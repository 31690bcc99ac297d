//! The grid-bucket binary file format.
//!
//! The paper assumes the swath data "had been scanned once, and sorted into
//! one degree latitude and one degree longitude grid buckets that were saved
//! to disk as binary files" and that "grid buckets are directly used as data
//! input" (§3.1). This module is that on-disk format: a small self-
//! describing header plus a flat little-endian `f64` payload, protected by
//! an FNV-1a checksum so corrupt buckets fail loudly instead of producing
//! garbage clusters.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic     8 B   "PMKMGB01"
//! cell      4 B   u32 flat cell index (see pmkm_data::grid)
//! dim       4 B   u32 attributes per point
//! count     8 B   u64 point count
//! checksum  8 B   u64 FNV-1a over the payload bytes
//! payload   count × dim × 8 B   row-major f64
//! ```

use crate::codec::LeCursor;
use crate::error::{DataError, Result};
use crate::grid::GridCell;
use pmkm_core::{Dataset, PointSource};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

/// File magic: format name + version.
pub const MAGIC: [u8; 8] = *b"PMKMGB01";
/// Header size in bytes.
pub const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8;

/// FNV-1a 64-bit hash of a byte slice (payload integrity check).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// An in-memory grid bucket: a cell id plus its points.
#[derive(Debug, Clone, PartialEq)]
pub struct GridBucket {
    /// The cell this bucket holds.
    pub cell: GridCell,
    /// The points.
    pub points: Dataset,
}

impl GridBucket {
    /// Serializes the bucket to bytes. The payload is written through the
    /// bulk little-endian path, not value-by-value.
    pub fn to_bytes(&self) -> Vec<u8> {
        let flat = self.points.as_flat();
        let mut payload = Vec::with_capacity(flat.len() * 8);
        crate::codec::f64s_to_le(flat, &mut payload);
        let checksum = fnv1a(&payload);
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.cell.index().to_le_bytes());
        out.extend_from_slice(&(self.points.dim() as u32).to_le_bytes());
        out.extend_from_slice(&(self.points.len() as u64).to_le_bytes());
        out.extend_from_slice(&checksum.to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Parses a bucket from bytes, verifying magic, shape and checksum.
    pub fn from_bytes(buf: &[u8]) -> Result<Self> {
        if buf.len() < HEADER_LEN {
            return Err(DataError::Format(format!(
                "bucket of {} bytes is shorter than the {HEADER_LEN}-byte header",
                buf.len()
            )));
        }
        let mut cur = LeCursor::new(buf);
        if cur.array() != MAGIC {
            return Err(DataError::Format("bad magic; not a PMKMGB01 bucket".into()));
        }
        let cell = GridCell::from_index(cur.u32())?;
        let dim = cur.u32() as usize;
        let count = cur.u64() as usize;
        let checksum = cur.u64();
        let buf = cur.rest();
        if dim == 0 {
            return Err(DataError::Format("bucket declares zero dimensions".into()));
        }
        let payload_len = count
            .checked_mul(dim)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(|| DataError::Format("payload size overflows".into()))?;
        if buf.len() != payload_len {
            return Err(DataError::Format(format!(
                "payload is {} bytes, header promises {payload_len}",
                buf.len()
            )));
        }
        let actual = fnv1a(buf);
        if actual != checksum {
            return Err(DataError::ChecksumMismatch { expected: checksum, actual });
        }
        let flat = crate::codec::f64s_from_le(buf);
        let points = Dataset::from_flat(dim, flat).map_err(|e| DataError::Format(e.to_string()))?;
        Ok(Self { cell, points })
    }

    /// Writes the bucket to a file (buffered, fsync not forced).
    pub fn write_to(&self, path: &Path) -> Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(&self.to_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Reads a bucket file fully into memory.
    pub fn read_from(path: &Path) -> Result<Self> {
        let mut r = BufReader::new(File::open(path)?);
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        Self::from_bytes(&buf)
    }
}

/// Streaming bucket reader that yields points in fixed-size batches without
/// materializing the whole payload — the scan operator's "one look at the
/// data" access path for buckets larger than memory.
pub struct BucketReader {
    reader: BufReader<File>,
    /// Cell id from the header.
    pub cell: GridCell,
    /// Attributes per point.
    pub dim: usize,
    /// Total points promised by the header.
    pub count: usize,
    remaining: usize,
    checksum_expected: u64,
    checksum_running: u64,
}

impl BucketReader {
    /// Opens a bucket file and parses its header.
    pub fn open(path: &Path) -> Result<Self> {
        let mut reader = BufReader::new(File::open(path)?);
        let mut header = [0u8; HEADER_LEN];
        reader.read_exact(&mut header)?;
        let mut cur = LeCursor::new(&header);
        if cur.array() != MAGIC {
            return Err(DataError::Format("bad magic; not a PMKMGB01 bucket".into()));
        }
        let cell = GridCell::from_index(cur.u32())?;
        let dim = cur.u32() as usize;
        let count = cur.u64() as usize;
        let checksum_expected = cur.u64();
        if dim == 0 {
            return Err(DataError::Format("bucket declares zero dimensions".into()));
        }
        // The whole-file read's shape rule, so batches are bounded by the
        // file and a short or padded file fails here, not mid-stream.
        let payload_len = (count as u64)
            .checked_mul(dim as u64)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(|| DataError::Format("payload size overflows".into()))?;
        let file_payload = reader.get_ref().metadata()?.len().saturating_sub(HEADER_LEN as u64);
        if file_payload != payload_len {
            return Err(DataError::Format(format!(
                "payload is {file_payload} bytes, header promises {payload_len}"
            )));
        }
        // An empty payload has no final batch to verify it.
        if count == 0 && checksum_expected != fnv1a(&[]) {
            return Err(DataError::ChecksumMismatch {
                expected: checksum_expected,
                actual: fnv1a(&[]),
            });
        }
        Ok(Self {
            reader,
            cell,
            dim,
            count,
            remaining: count,
            checksum_expected,
            // FNV-1a offset basis; updated incrementally per batch.
            checksum_running: 0xcbf2_9ce4_8422_2325,
        })
    }

    /// Reads up to `max_points` into a dataset; `Ok(None)` at end of file.
    /// The running checksum is verified when the final batch is consumed.
    pub fn next_batch(&mut self, max_points: usize) -> Result<Option<Dataset>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let n = self.remaining.min(max_points.max(1));
        let mut raw = vec![0u8; n * self.dim * 8];
        self.reader.read_exact(&mut raw)?;
        for &b in &raw {
            self.checksum_running ^= b as u64;
            self.checksum_running = self.checksum_running.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.remaining -= n;
        if self.remaining == 0 && self.checksum_running != self.checksum_expected {
            return Err(DataError::ChecksumMismatch {
                expected: self.checksum_expected,
                actual: self.checksum_running,
            });
        }
        let flat = crate::codec::f64s_from_le(&raw);
        let ds =
            Dataset::from_flat(self.dim, flat).map_err(|e| DataError::Format(e.to_string()))?;
        Ok(Some(ds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(n: usize) -> GridBucket {
        let mut points = Dataset::new(3).unwrap();
        for i in 0..n {
            points.push(&[i as f64, i as f64 * 0.5, -(i as f64)]).unwrap();
        }
        GridBucket { cell: GridCell::new(12, 34).unwrap(), points }
    }

    #[test]
    fn round_trip_in_memory() {
        let b = bucket(17);
        let bytes = b.to_bytes();
        let back = GridBucket::from_bytes(&bytes).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn round_trip_via_file() {
        let dir = std::env::temp_dir().join("pmkm_bucket_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rt.gb");
        let b = bucket(100);
        b.write_to(&path).unwrap();
        let back = GridBucket::read_from(&path).unwrap();
        assert_eq!(back, b);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_bucket_round_trips() {
        let b = GridBucket { cell: GridCell::new(0, 0).unwrap(), points: Dataset::new(2).unwrap() };
        let back = GridBucket::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back.points.len(), 0);
        assert_eq!(back.points.dim(), 2);
    }

    #[test]
    fn detects_bad_magic() {
        let b = bucket(3);
        let mut bytes = b.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(GridBucket::from_bytes(&bytes), Err(DataError::Format(_))));
    }

    #[test]
    fn detects_truncation() {
        let b = bucket(3);
        let bytes = b.to_bytes();
        assert!(matches!(
            GridBucket::from_bytes(&bytes[..bytes.len() - 8]),
            Err(DataError::Format(_))
        ));
        assert!(matches!(GridBucket::from_bytes(&bytes[..10]), Err(DataError::Format(_))));
    }

    #[test]
    fn detects_payload_corruption() {
        let b = bucket(5);
        let mut bytes = b.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(GridBucket::from_bytes(&bytes), Err(DataError::ChecksumMismatch { .. })));
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_reader_batches_match_full_read() {
        let dir = std::env::temp_dir().join("pmkm_bucket_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.gb");
        let b = bucket(101);
        b.write_to(&path).unwrap();

        let mut reader = BucketReader::open(&path).unwrap();
        assert_eq!(reader.cell, b.cell);
        assert_eq!(reader.count, 101);
        assert_eq!(reader.dim, 3);
        let mut all = Dataset::new(3).unwrap();
        while let Some(batch) = reader.next_batch(10).unwrap() {
            assert!(batch.len() <= 10);
            all.extend_from(&batch).unwrap();
        }
        assert_eq!(all, b.points);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streaming_reader_detects_corruption_at_final_batch() {
        let dir = std::env::temp_dir().join("pmkm_bucket_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.gb");
        let b = bucket(20);
        let mut bytes = b.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let mut reader = BucketReader::open(&path).unwrap();
        let mut err = None;
        loop {
            match reader.next_batch(7) {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(DataError::ChecksumMismatch { .. })));
        std::fs::remove_file(&path).unwrap();
    }
}

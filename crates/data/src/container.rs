//! The `PMKMGB02` versioned block container.
//!
//! GB01 is a single uncompressed blob with one whole-file checksum — fine
//! for local buffered reads, useless for ranged reads, compression, or
//! per-block integrity. GB02 splits the payload into fixed-point-count
//! blocks, compresses each independently, and appends a block index plus a
//! fixed-size footer so a reader can locate any block with two ranged
//! reads from the end of the object:
//!
//! ```text
//! header   32 B   magic "PMKMGB02" (8) · cell u32 · dim u32 · count u64
//!                 · block_points u32 · codec u8 · reserved [u8; 3]
//! blocks   ...    each block: codec-encoded bytes of `point_count × dim`
//!                 little-endian f64 values, written densely in order
//! index    n × 49 B   per block: offset u64 · clen u64 · ulen u64
//!                 · checksum u64 (FNV-1a over UNCOMPRESSED bytes)
//!                 · point_start u64 · point_count u64 · codec u8
//! footer   32 B   index_offset u64 · n_blocks u64
//!                 · index_checksum u64 (FNV-1a over index bytes)
//!                 · magic "PMKM2END" (8)
//! ```
//!
//! Every multi-byte field is little-endian. Per-block checksums are over
//! the uncompressed bytes so a decode bug and a storage flip are equally
//! loud; the index itself is checksummed so corrupt metadata is a clean
//! [`DataError`], never garbage points. [`Gb02Reader`] is backend-agnostic
//! ([`ScanBackend`]) and `&self`-threadsafe, so a prefetch thread can
//! decode block *i+1* while the scan operator clusters block *i*.

use crate::backend::{open_backend, BackendKind, ScanBackend};
use crate::bucket::{fnv1a, BucketReader, GridBucket, HEADER_LEN, MAGIC};
use crate::codec::{self, Codec, LeCursor};
use crate::error::{DataError, Result};
use crate::grid::GridCell;
use pmkm_core::{Dataset, PointSource};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// GB02 file magic.
pub const MAGIC2: [u8; 8] = *b"PMKMGB02";
/// GB02 trailing footer magic.
pub const FOOTER_MAGIC: [u8; 8] = *b"PMKM2END";
/// GB02 header size in bytes.
pub const HEADER2_LEN: usize = 8 + 4 + 4 + 8 + 4 + 1 + 3;
/// One block-index entry in bytes.
pub const INDEX_ENTRY_LEN: usize = 8 * 6 + 1;
/// Footer size in bytes.
pub const FOOTER_LEN: usize = 8 + 8 + 8 + 8;
/// Default points per block: 4096 × 6 dims × 8 B ≈ 192 KiB uncompressed,
/// large enough to amortize per-block work, small enough to double-buffer.
pub const DEFAULT_BLOCK_POINTS: usize = 4096;

/// One entry of the trailing block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEntry {
    /// File offset of the stored (possibly compressed) block.
    pub offset: u64,
    /// Stored length in bytes.
    pub clen: u64,
    /// Uncompressed length in bytes.
    pub ulen: u64,
    /// Word-wise FNV-1a (see `fnv1a_words`) over the uncompressed
    /// block bytes.
    pub checksum: u64,
    /// Index of the first point in this block.
    pub point_start: u64,
    /// Points in this block.
    pub point_count: u64,
    /// Codec this block was stored with.
    pub codec: Codec,
}

/// Writer-side summary, surfaced by `pmkm convert` and the benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gb02Stats {
    /// Blocks written.
    pub blocks: usize,
    /// Uncompressed payload bytes.
    pub payload_bytes: u64,
    /// Total file bytes (header + stored blocks + index + footer).
    pub file_bytes: u64,
}

impl Gb02Stats {
    /// Stored-payload compression ratio (uncompressed / stored payload);
    /// 1.0 for an empty bucket.
    pub fn ratio(&self) -> f64 {
        let overhead = (HEADER2_LEN + FOOTER_LEN) as u64 + (self.blocks * INDEX_ENTRY_LEN) as u64;
        let stored = self.file_bytes.saturating_sub(overhead);
        if stored == 0 {
            1.0
        } else {
            self.payload_bytes as f64 / stored as f64
        }
    }
}

/// FNV-1a over the little-endian u64 words of `bytes` (whose length must
/// be a multiple of 8 — block payloads are always whole `f64`s). Hashing
/// a word per multiply instead of a byte breaks FNV's byte-serial
/// dependency chain, so per-block integrity checking costs ~1/8th of the
/// byte-wise hash GB01 uses and stops dominating scan-bound reads;
/// corruption detection is unchanged (any flipped bit changes its word,
/// which changes the hash).
fn fnv1a_words(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len().is_multiple_of(8), "block payloads are whole f64s");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in bytes.chunks_exact(8) {
        h ^= u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl BlockEntry {
    /// Appends the entry's 49 index bytes to `out`.
    fn write_le(&self, out: &mut Vec<u8>) {
        for field in
            [self.offset, self.clen, self.ulen, self.checksum, self.point_start, self.point_count]
        {
            out.extend_from_slice(&field.to_le_bytes());
        }
        out.push(self.codec.id());
    }
}

/// Streams a GB02 container into a [`Write`] sink: the header when it is
/// created, each block as soon as it fills, and the index and footer on
/// [`Gb02Writer::finish`]. Live memory is one block — two buffers of
/// `min(block_points, count)` points — plus 49 bytes of index per block
/// written, however large the cell.
pub struct Gb02Writer<W: Write> {
    sink: W,
    codec: Codec,
    dim: usize,
    /// Uncompressed bytes in a full block.
    block_bytes: usize,
    /// `f64` values the header promises (`count × dim`).
    promised: u64,
    /// `f64` values pushed so far, counting any pushed past the promise.
    pushed: u64,
    /// The block being filled, as little-endian bytes; briefly its stored
    /// bytes while it is written.
    block: Vec<u8>,
    /// The codec's working buffer.
    scratch: Vec<u8>,
    /// Serialized index entries of the blocks written.
    index: Vec<u8>,
    /// Bytes written to the sink: the next block's offset.
    written: u64,
    /// Points in the blocks written.
    points_written: u64,
}

impl<W: Write> Gb02Writer<W> {
    /// Starts a container for `count` points of `dim` attributes in `cell`
    /// and writes its header to `sink`.
    pub fn new(
        mut sink: W,
        cell: GridCell,
        dim: usize,
        count: usize,
        block_codec: Codec,
        block_points: usize,
    ) -> Result<Self> {
        if block_points == 0 {
            return Err(DataError::Invalid("block_points must be at least 1".into()));
        }
        if dim == 0 {
            return Err(DataError::Invalid("a container needs at least one dimension".into()));
        }
        let too_large = || DataError::Invalid("container shape overflows its header".into());
        let dim32 = u32::try_from(dim).map_err(|_| too_large())?;
        let block_points32 = u32::try_from(block_points).map_err(|_| too_large())?;
        let promised = (count as u64).checked_mul(dim as u64).ok_or_else(too_large)?;
        let block_bytes = block_points.checked_mul(dim * 8).ok_or_else(too_large)?;
        let buffer_bytes = block_points.min(count) * dim * 8;

        let mut header = Vec::with_capacity(HEADER2_LEN);
        header.extend_from_slice(&MAGIC2);
        header.extend_from_slice(&cell.index().to_le_bytes());
        header.extend_from_slice(&dim32.to_le_bytes());
        header.extend_from_slice(&(count as u64).to_le_bytes());
        header.extend_from_slice(&block_points32.to_le_bytes());
        header.push(block_codec.id());
        header.extend_from_slice(&[0u8; 3]);
        debug_assert_eq!(header.len(), HEADER2_LEN);
        sink.write_all(&header)?;

        Ok(Self {
            sink,
            codec: block_codec,
            dim,
            block_bytes,
            promised,
            pushed: 0,
            block: Vec::with_capacity(buffer_bytes),
            scratch: Vec::with_capacity(if block_codec == Codec::Raw { 0 } else { buffer_bytes }),
            index: Vec::new(),
            written: HEADER2_LEN as u64,
            points_written: 0,
        })
    }

    /// Appends row-major point values. Slices of any length are re-blocked:
    /// every block but the last holds exactly `block_points` points, and a
    /// block is written the moment it fills. Pushing past the header's
    /// count is an error.
    pub fn push(&mut self, values: &[f64]) -> Result<()> {
        self.append(values.len(), |block, from, to| codec::f64s_to_le(&values[from..to], block))
    }

    /// [`Gb02Writer::push`] for values already in little-endian bytes (a
    /// whole number of them), such as a block's payload from
    /// [`Gb02Reader`].
    fn push_le(&mut self, bytes: &[u8]) -> Result<()> {
        debug_assert!(bytes.len().is_multiple_of(8), "block payloads are whole f64s");
        self.append(bytes.len() / 8, |block, from, to| {
            block.extend_from_slice(&bytes[from * 8..to * 8]);
        })
    }

    /// The re-blocking loop: appends values `from..to` of the `values`
    /// being pushed to the block with `copy`, as many as fit, and writes
    /// each block as it fills.
    fn append(
        &mut self,
        values: usize,
        mut copy: impl FnMut(&mut Vec<u8>, usize, usize),
    ) -> Result<()> {
        self.pushed = self.pushed.saturating_add(values as u64);
        if self.pushed > self.promised {
            return Err(DataError::Invalid(format!(
                "{} values pushed, the header promises {}",
                self.pushed, self.promised
            )));
        }
        let mut from = 0;
        while from < values {
            let room = (self.block_bytes - self.block.len()) / 8;
            let to = values.min(from + room);
            copy(&mut self.block, from, to);
            from = to;
            if self.block.len() == self.block_bytes {
                self.write_block()?;
            }
        }
        Ok(())
    }

    fn write_block(&mut self) -> Result<()> {
        let ulen = self.block.len() as u64;
        let checksum = fnv1a_words(&self.block);
        codec::encode_in_place(self.codec, &mut self.block, &mut self.scratch);
        self.sink.write_all(&self.block)?;
        let entry = BlockEntry {
            offset: self.written,
            clen: self.block.len() as u64,
            ulen,
            checksum,
            point_start: self.points_written,
            point_count: ulen / (self.dim as u64 * 8),
            codec: self.codec,
        };
        entry.write_le(&mut self.index);
        self.written += entry.clen;
        self.points_written += entry.point_count;
        self.block.clear();
        Ok(())
    }

    /// Writes the last (partial) block, the index and the footer, flushes
    /// the sink and returns it. Fewer points than the header promises is
    /// an error, as is any push past the promise.
    pub fn finish(mut self) -> Result<(W, Gb02Stats)> {
        if self.pushed != self.promised {
            return Err(DataError::Invalid(format!(
                "{} values pushed, the header promises {}",
                self.pushed, self.promised
            )));
        }
        if !self.block.is_empty() {
            self.write_block()?;
        }
        let mut footer = Vec::with_capacity(FOOTER_LEN);
        footer.extend_from_slice(&self.written.to_le_bytes());
        let blocks = self.index.len() / INDEX_ENTRY_LEN;
        footer.extend_from_slice(&(blocks as u64).to_le_bytes());
        footer.extend_from_slice(&fnv1a(&self.index).to_le_bytes());
        footer.extend_from_slice(&FOOTER_MAGIC);
        self.sink.write_all(&self.index)?;
        self.sink.write_all(&footer)?;
        self.sink.flush()?;
        let stats = Gb02Stats {
            blocks,
            payload_bytes: self.promised * 8,
            file_bytes: self.written + (self.index.len() + FOOTER_LEN) as u64,
        };
        Ok((self.sink, stats))
    }
}

/// Serializes `bucket` as a GB02 container in memory.
pub fn gb02_to_bytes(
    bucket: &GridBucket,
    block_codec: Codec,
    block_points: usize,
) -> Result<(Vec<u8>, Gb02Stats)> {
    let file_len = HEADER2_LEN + bucket.points.as_flat().len() * 8 + FOOTER_LEN;
    write_bucket(Vec::with_capacity(file_len), bucket, block_codec, block_points)
}

/// Writes `bucket` to `path` as a GB02 container, block by block.
pub fn write_gb02(
    bucket: &GridBucket,
    path: &Path,
    block_codec: Codec,
    block_points: usize,
) -> Result<Gb02Stats> {
    let sink = BufWriter::new(File::create(path)?);
    write_bucket(sink, bucket, block_codec, block_points).map(|(_, stats)| stats)
}

fn write_bucket<W: Write>(
    sink: W,
    bucket: &GridBucket,
    block_codec: Codec,
    block_points: usize,
) -> Result<(W, Gb02Stats)> {
    let (dim, count) = (bucket.points.dim(), bucket.points.len());
    let mut writer = Gb02Writer::new(sink, bucket.cell, dim, count, block_codec, block_points)?;
    writer.push(bucket.points.as_flat())?;
    writer.finish()
}

/// Converts the bucket at `src`, in either format, to a GB02 container at
/// `dst`, one block at a time: a GB02 block's verified payload goes to the
/// [`Gb02Writer`] as the little-endian bytes it decoded to, through
/// buffers reused from block to block, and GB01 points from
/// [`BucketReader::next_batch`] are pushed as values. The container is
/// written to `<dst>.tmp` and renamed over `dst` only once it is complete,
/// so `dst` may be `src` and a failed conversion leaves both untouched and
/// no `.tmp` behind. Returns the source's header facts and the writer's
/// summary.
pub fn convert_bucket(
    src: &Path,
    dst: &Path,
    block_codec: Codec,
    block_points: usize,
) -> Result<(BucketInfo, Gb02Stats)> {
    let mut tmp = dst.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let converted = stream_bucket(src, &tmp, block_codec, block_points).and_then(|out| {
        std::fs::rename(&tmp, dst)?;
        Ok(out)
    });
    if converted.is_err() {
        // The conversion's own error is the one worth reporting.
        let _ = std::fs::remove_file(&tmp);
    }
    converted
}

fn stream_bucket(
    src: &Path,
    tmp: &Path,
    block_codec: Codec,
    block_points: usize,
) -> Result<(BucketInfo, Gb02Stats)> {
    let format = probe(src)?.format;
    let create = |info: &BucketInfo| -> Result<Gb02Writer<BufWriter<File>>> {
        let sink = BufWriter::new(File::create(tmp)?);
        Gb02Writer::new(sink, info.cell, info.dim, info.count, block_codec, block_points)
    };
    let (info, writer) = match format {
        BucketFormat::Gb01 => {
            let mut reader = BucketReader::open(src)?;
            let info =
                BucketInfo { format, cell: reader.cell, dim: reader.dim, count: reader.count };
            let mut writer = create(&info)?;
            while let Some(batch) = reader.next_batch(block_points)? {
                writer.push(batch.as_flat())?;
            }
            (info, writer)
        }
        BucketFormat::Gb02 => {
            let reader = Gb02Reader::open_path(src, BackendKind::LocalFile)?;
            let info =
                BucketInfo { format, cell: reader.cell, dim: reader.dim, count: reader.count };
            let mut writer = create(&info)?;
            let (mut block, mut scratch) = (Vec::new(), Vec::new());
            for i in 0..reader.n_blocks() {
                writer.push_le(reader.payload(i, &mut block, &mut scratch)?.0)?;
            }
            (info, writer)
        }
    };
    Ok((info, writer.finish()?.1))
}

/// Statistics from one block read, for scan metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockReadStats {
    /// Bytes fetched from the backend.
    pub stored_bytes: u64,
    /// Bytes after decode.
    pub payload_bytes: u64,
    /// True when the block was decoded from a borrowed mmap range with no
    /// intermediate payload buffer.
    pub zero_copy: bool,
}

/// A backend-agnostic GB02 reader. Opening parses footer, index, and
/// header and fully validates the block map; [`Gb02Reader::read_block`]
/// then serves any block through `&self`, so readers can be shared with a
/// prefetch thread.
pub struct Gb02Reader {
    backend: Box<dyn ScanBackend>,
    /// Cell id from the header.
    pub cell: GridCell,
    /// Attributes per point.
    pub dim: usize,
    /// Total points promised by the header.
    pub count: usize,
    /// Nominal points per block from the header.
    pub block_points: usize,
    /// Default codec from the header (individual blocks may differ).
    pub default_codec: Codec,
    index: Vec<BlockEntry>,
}

impl Gb02Reader {
    /// Opens a GB02 container at `path` through the given backend kind
    /// (default backend parameters; pass a configured backend to
    /// [`Gb02Reader::open`] for sim-object-store latency/faults).
    pub fn open_path(path: &Path, kind: BackendKind) -> Result<Self> {
        Self::open(open_backend(path, kind)?)
    }

    /// Opens a GB02 container over an already-constructed backend.
    pub fn open(backend: Box<dyn ScanBackend>) -> Result<Self> {
        let total = backend.len();
        let min_len = (HEADER2_LEN + FOOTER_LEN) as u64;
        if total < min_len {
            return Err(DataError::Format(format!(
                "container of {total} bytes is shorter than header+footer ({min_len})"
            )));
        }

        // Footer first: it locates everything else.
        let footer = backend.read_range(total - FOOTER_LEN as u64, FOOTER_LEN)?;
        let mut f = LeCursor::new(&footer);
        let index_offset = f.u64();
        let n_blocks = f.u64();
        let index_checksum = f.u64();
        if f.array() != FOOTER_MAGIC {
            return Err(DataError::Format(
                "bad footer magic; truncated or not a PMKMGB02 container".into(),
            ));
        }
        let index_len = n_blocks
            .checked_mul(INDEX_ENTRY_LEN as u64)
            .ok_or_else(|| DataError::Format("block index size overflows".into()))?;
        let expected_index_end = total - FOOTER_LEN as u64;
        if index_offset < HEADER2_LEN as u64
            || index_offset.checked_add(index_len) != Some(expected_index_end)
        {
            return Err(DataError::Format(format!(
                "block index [{index_offset}, +{index_len}) does not fill the space \
                 before the footer (object is {total} bytes)"
            )));
        }

        let index_bytes = backend.read_range(index_offset, index_len as usize)?;
        let actual = fnv1a(&index_bytes);
        if actual != index_checksum {
            return Err(DataError::ChecksumMismatch { expected: index_checksum, actual });
        }

        let header = backend.read_range(0, HEADER2_LEN)?;
        let mut h = LeCursor::new(&header);
        if h.array() != MAGIC2 {
            return Err(DataError::Format("bad magic; not a PMKMGB02 container".into()));
        }
        let cell = GridCell::from_index(h.u32())?;
        let dim = h.u32() as usize;
        let count = h.u64() as usize;
        let block_points = h.u32() as usize;
        let default_codec = Codec::from_id(h.u8())?;
        if dim == 0 {
            return Err(DataError::Format("container declares zero dimensions".into()));
        }
        if block_points == 0 && count > 0 {
            return Err(DataError::Format("container declares zero points per block".into()));
        }

        // Parse and validate the block map: blocks must tile the payload
        // region densely and the point ranges must partition [0, count).
        let mut index = Vec::with_capacity(n_blocks as usize);
        let mut b = LeCursor::new(&index_bytes);
        let mut byte_cursor = HEADER2_LEN as u64;
        let mut point_cursor = 0u64;
        for i in 0..n_blocks {
            let entry = BlockEntry {
                offset: b.u64(),
                clen: b.u64(),
                ulen: b.u64(),
                checksum: b.u64(),
                point_start: b.u64(),
                point_count: b.u64(),
                codec: Codec::from_id(b.u8())?,
            };
            if entry.offset != byte_cursor {
                return Err(DataError::Format(format!(
                    "block {i} starts at byte {} but the previous block ends at \
                     {byte_cursor}: overlapping or gapped block ranges",
                    entry.offset
                )));
            }
            if entry.point_start != point_cursor {
                return Err(DataError::Format(format!(
                    "block {i} starts at point {} but the previous block ends at \
                     {point_cursor}: overlapping or gapped point ranges",
                    entry.point_start
                )));
            }
            if entry.point_count == 0 {
                return Err(DataError::Format(format!("block {i} holds zero points")));
            }
            if entry.point_count.checked_mul(dim as u64 * 8) != Some(entry.ulen) {
                return Err(DataError::Format(format!(
                    "block {i} claims {} uncompressed bytes for {} points × {dim} dims",
                    entry.ulen, entry.point_count
                )));
            }
            // Bound what a block may decode to by its stored bytes, so a
            // hostile `ulen` is rejected here rather than allocated later.
            let decodable = match entry.codec {
                Codec::Raw => entry.ulen == entry.clen,
                Codec::ShuffleRle => entry
                    .clen
                    .checked_mul(codec::MAX_RLE_EXPANSION as u64)
                    .is_none_or(|max| entry.ulen <= max),
            };
            if !decodable {
                return Err(DataError::Format(format!(
                    "block {i} stores {} bytes, which {} cannot decode to {} bytes",
                    entry.clen, entry.codec, entry.ulen
                )));
            }
            byte_cursor = byte_cursor.checked_add(entry.clen).ok_or_else(|| {
                DataError::Format(format!("block {i} extent overflows the object"))
            })?;
            point_cursor = point_cursor
                .checked_add(entry.point_count)
                .ok_or_else(|| DataError::Format(format!("block {i} point range overflows")))?;
            index.push(entry);
        }
        if byte_cursor != index_offset {
            return Err(DataError::Format(format!(
                "blocks end at byte {byte_cursor} but the index starts at {index_offset}"
            )));
        }
        if point_cursor != count as u64 {
            return Err(DataError::Format(format!(
                "blocks hold {point_cursor} points, header promises {count}"
            )));
        }

        Ok(Self { backend, cell, dim, count, block_points, default_codec, index })
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.index.len()
    }

    /// The block map.
    pub fn entries(&self) -> &[BlockEntry] {
        &self.index
    }

    /// One block's index entry.
    pub fn entry(&self, i: usize) -> &BlockEntry {
        &self.index[i]
    }

    /// Reads, integrity-checks, and decodes block `i` into a dataset.
    pub fn read_block(&self, i: usize) -> Result<Dataset> {
        self.read_block_with_stats(i).map(|(ds, _)| ds)
    }

    /// [`Gb02Reader::read_block`], plus byte accounting for scan metrics.
    pub fn read_block_with_stats(&self, i: usize) -> Result<(Dataset, BlockReadStats)> {
        let mut block = Vec::new();
        // The codec's scratch is freed before the payload becomes `f64`s.
        let (payload, stats) = self.payload(i, &mut block, &mut Vec::new())?;
        Ok((self.flat_to_dataset(codec::f64s_from_le(payload))?, stats))
    }

    /// Reads block `i`, decodes it and checks its checksum: the one path
    /// from stored bytes to a verified little-endian payload. A raw block
    /// in a mapped file is its own payload, read straight from the page
    /// cache; any other block is read into `block` and decoded there, with
    /// `scratch` as the codec's working buffer. Callers that pass the same
    /// buffers for every block allocate nothing per block.
    fn payload<'a>(
        &'a self,
        i: usize,
        block: &'a mut Vec<u8>,
        scratch: &mut Vec<u8>,
    ) -> Result<(&'a [u8], BlockReadStats)> {
        let e = *self.entry(i);
        let clen = usize::try_from(e.clen)
            .map_err(|_| DataError::Format(format!("block {i} too large for this host")))?;
        let ulen = usize::try_from(e.ulen)
            .map_err(|_| DataError::Format(format!("block {i} too large for this host")))?;
        let mapped = self.backend.map_range(e.offset, clen).filter(|_| e.codec == Codec::Raw);
        let zero_copy = mapped.is_some();
        let payload = match mapped {
            Some(stored) => codec::raw_payload(stored, ulen)?,
            None => {
                // `open` bounded `clen` by the object's length.
                block.resize(clen, 0);
                self.backend.read_into(e.offset, block)?;
                codec::decode_in_place(e.codec, block, ulen, scratch)?;
                block
            }
        };
        let actual = fnv1a_words(payload);
        if actual != e.checksum {
            return Err(DataError::ChecksumMismatch { expected: e.checksum, actual });
        }
        Ok((payload, BlockReadStats { stored_bytes: e.clen, payload_bytes: e.ulen, zero_copy }))
    }

    fn flat_to_dataset(&self, flat: Vec<f64>) -> Result<Dataset> {
        Dataset::from_flat(self.dim, flat).map_err(|e| DataError::Format(e.to_string()))
    }

    /// Reads the whole container back into a [`GridBucket`].
    pub fn read_all(&self) -> Result<GridBucket> {
        let mut points = Dataset::with_capacity(self.dim, self.count)
            .map_err(|e| DataError::Format(e.to_string()))?;
        for i in 0..self.n_blocks() {
            let block = self.read_block(i)?;
            points.extend_from(&block).map_err(|e| DataError::Format(e.to_string()))?;
        }
        Ok(GridBucket { cell: self.cell, points })
    }
}

/// On-disk bucket container formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketFormat {
    /// Legacy single-blob format.
    Gb01,
    /// Block container.
    Gb02,
}

impl BucketFormat {
    /// Stable label for logs and reports.
    pub fn label(self) -> &'static str {
        match self {
            BucketFormat::Gb01 => "gb01",
            BucketFormat::Gb02 => "gb02",
        }
    }
}

/// Header-level facts about a bucket file, cheap to obtain for either
/// format (one small read; no payload access).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketInfo {
    /// Which container format the file uses.
    pub format: BucketFormat,
    /// Cell id.
    pub cell: GridCell,
    /// Attributes per point.
    pub dim: usize,
    /// Total points promised by the header.
    pub count: usize,
}

/// Sniffs the magic and parses the header of either bucket format.
pub fn probe(path: &Path) -> Result<BucketInfo> {
    // Both formats carry magic(8) + cell(4) + dim(4) + count(8) in their
    // first 24 bytes; GB01's header is 32 bytes, GB02's is 32 too.
    debug_assert_eq!(HEADER_LEN, HEADER2_LEN);
    let mut header = [0u8; HEADER2_LEN];
    let mut f = File::open(path)?;
    f.read_exact(&mut header).map_err(|_| {
        DataError::Format(format!("file shorter than the {HEADER2_LEN}-byte bucket header"))
    })?;
    let mut h = LeCursor::new(&header);
    let magic: [u8; 8] = h.array();
    let format = if magic == MAGIC {
        BucketFormat::Gb01
    } else if magic == MAGIC2 {
        BucketFormat::Gb02
    } else {
        return Err(DataError::Format("bad magic; not a PMKM grid bucket".into()));
    };
    let cell = GridCell::from_index(h.u32())?;
    let dim = h.u32() as usize;
    let count = h.u64() as usize;
    if dim == 0 {
        return Err(DataError::Format("bucket declares zero dimensions".into()));
    }
    Ok(BucketInfo { format, cell, dim, count })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FileBackend, MmapBackend, SimObjectStore};
    use std::sync::Arc;

    fn bucket(n: usize, dim: usize) -> GridBucket {
        let mut points = Dataset::new(dim).unwrap();
        for i in 0..n {
            let row: Vec<f64> = (0..dim).map(|d| 100.0 + (i as f64) * 0.001 + d as f64).collect();
            points.push(&row).unwrap();
        }
        GridBucket { cell: GridCell::new(40, 77).unwrap(), points }
    }

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pmkm_container_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_tmp(name: &str, b: &GridBucket, codec: Codec, bp: usize) -> std::path::PathBuf {
        let path = tmpdir().join(format!("{name}-{}.gb2", std::process::id()));
        write_gb02(b, &path, codec, bp).unwrap();
        path
    }

    #[test]
    fn round_trips_across_codecs_backends_and_block_sizes() {
        for codec in Codec::ALL {
            for bp in [1, 7, 64, 1000] {
                let b = bucket(101, 3);
                let path = write_tmp(&format!("rt-{codec}-{bp}"), &b, codec, bp);
                for kind in BackendKind::ALL {
                    let r = Gb02Reader::open_path(&path, kind).unwrap();
                    assert_eq!(r.cell, b.cell);
                    assert_eq!(r.dim, 3);
                    assert_eq!(r.count, 101);
                    assert_eq!(r.default_codec, codec);
                    assert_eq!(r.n_blocks(), 101usize.div_ceil(bp));
                    let back = r.read_all().unwrap();
                    assert_eq!(back, b, "codec={codec} bp={bp} backend={kind}");
                }
                std::fs::remove_file(path).unwrap();
            }
        }
    }

    #[test]
    fn empty_bucket_round_trips() {
        let b = GridBucket { cell: GridCell::new(0, 0).unwrap(), points: Dataset::new(2).unwrap() };
        let path = write_tmp("empty", &b, Codec::ShuffleRle, 64);
        let r = Gb02Reader::open_path(&path, BackendKind::LocalFile).unwrap();
        assert_eq!(r.n_blocks(), 0);
        assert_eq!(r.count, 0);
        assert_eq!(r.read_all().unwrap(), b);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn mmap_raw_blocks_are_zero_copy() {
        let b = bucket(200, 4);
        let path = write_tmp("zc", &b, Codec::Raw, 64);
        let r = Gb02Reader::open(Box::new(MmapBackend::open(&path).unwrap())).unwrap();
        let (_, stats) = r.read_block_with_stats(0).unwrap();
        assert!(stats.zero_copy);
        assert_eq!(stats.stored_bytes, stats.payload_bytes);
        // Compressed blocks and file backends never claim zero-copy.
        let path2 = write_tmp("zc2", &b, Codec::ShuffleRle, 64);
        let r2 = Gb02Reader::open(Box::new(MmapBackend::open(&path2).unwrap())).unwrap();
        assert!(!r2.read_block_with_stats(0).unwrap().1.zero_copy);
        let r3 = Gb02Reader::open(Box::new(FileBackend::open(&path).unwrap())).unwrap();
        assert!(!r3.read_block_with_stats(0).unwrap().1.zero_copy);
        std::fs::remove_file(path).unwrap();
        std::fs::remove_file(path2).unwrap();
    }

    #[test]
    fn shuffle_rle_shrinks_clustered_buckets() {
        let b = bucket(5000, 6);
        let (raw_bytes, _) = gb02_to_bytes(&b, Codec::Raw, 1024).unwrap();
        let (comp_bytes, stats) = gb02_to_bytes(&b, Codec::ShuffleRle, 1024).unwrap();
        assert!(
            comp_bytes.len() * 3 < raw_bytes.len() * 2,
            "expected ≥1.5x compression, got {} -> {}",
            raw_bytes.len(),
            comp_bytes.len()
        );
        assert!(stats.ratio() > 1.5);
    }

    #[test]
    fn sim_object_store_reads_with_latency_and_counts_gets() {
        let b = bucket(64, 3);
        let path = write_tmp("sim", &b, Codec::ShuffleRle, 16);
        let store = SimObjectStore::open(&path, 10).unwrap();
        let r = Gb02Reader::open(Box::new(store)).unwrap();
        assert_eq!(r.read_all().unwrap(), b);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn sim_object_store_fault_surfaces_as_io_error() {
        let b = bucket(64, 3);
        let path = write_tmp("simfault", &b, Codec::Raw, 16);
        // Fail every GET after the metadata reads (footer, index, header).
        let store = SimObjectStore::open(&path, 0)
            .unwrap()
            .with_fault_hook(Arc::new(|ordinal| ordinal >= 3));
        let r = Gb02Reader::open(Box::new(store)).unwrap();
        assert!(matches!(r.read_block(0), Err(DataError::Io(_))));
        std::fs::remove_file(path).unwrap();
    }

    /// A sink that only counts the bytes it is handed.
    #[derive(Clone, Default)]
    struct Counting(std::rc::Rc<std::cell::Cell<u64>>);

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.set(self.0.get() + buf.len() as u64);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn writer_holds_at_most_one_block() {
        // The memory bound as a byte count: once k blocks have filled, the
        // sink holds exactly the header and those k stored blocks, so the
        // writer keeps nothing back but the block being filled.
        let b = bucket(100, 3);
        for codec in Codec::ALL {
            let (bytes, _) = gb02_to_bytes(&b, codec, 16).unwrap();
            let path = tmpdir().join(format!("oracle-{codec}-{}.gb2", std::process::id()));
            std::fs::write(&path, &bytes).unwrap();
            let entries = Gb02Reader::open_path(&path, BackendKind::LocalFile).unwrap().index;
            std::fs::remove_file(path).unwrap();

            let sink = Counting::default();
            let mut w = Gb02Writer::new(sink.clone(), b.cell, 3, 100, codec, 16).unwrap();
            assert_eq!(sink.0.get(), HEADER2_LEN as u64);
            let mut stored = HEADER2_LEN as u64;
            for (i, point) in b.points.iter().enumerate() {
                w.push(point).unwrap();
                if (i + 1) % 16 == 0 {
                    stored += entries[i / 16].clen;
                }
                assert_eq!(sink.0.get(), stored, "{codec} after point {i}");
            }
            let (_, stats) = w.finish().unwrap();
            assert_eq!(sink.0.get(), bytes.len() as u64);
            assert_eq!(stats.file_bytes, bytes.len() as u64);
        }
    }

    #[test]
    fn writer_needs_exactly_the_promised_points() {
        let b = bucket(10, 3);
        let flat = b.points.as_flat();
        let new = || Gb02Writer::new(Vec::new(), b.cell, 3, 10, Codec::ShuffleRle, 4).unwrap();

        let mut short = new();
        short.push(&flat[..27]).unwrap();
        assert!(matches!(short.finish(), Err(DataError::Invalid(_))));

        let mut ragged = new();
        ragged.push(&flat[..29]).unwrap();
        assert!(matches!(ragged.finish(), Err(DataError::Invalid(_))));

        let mut long = new();
        long.push(flat).unwrap();
        assert!(matches!(long.push(&[1.0, 2.0, 3.0]), Err(DataError::Invalid(_))));
        assert!(matches!(long.finish(), Err(DataError::Invalid(_))));

        let mut exact = new();
        exact.push(flat).unwrap();
        assert_eq!(exact.finish().unwrap(), gb02_to_bytes(&b, Codec::ShuffleRle, 4).unwrap());
    }

    #[test]
    fn writer_rejects_shapes_its_header_cannot_hold() {
        let cell = GridCell::new(0, 0).unwrap();
        let new = |dim, count, block_points| {
            Gb02Writer::new(Vec::new(), cell, dim, count, Codec::Raw, block_points).map(drop)
        };
        assert!(matches!(new(3, 10, 0), Err(DataError::Invalid(_))));
        assert!(matches!(new(0, 10, 4), Err(DataError::Invalid(_))));
        assert!(matches!(new(1 << 32, 1, 4), Err(DataError::Invalid(_))));
        assert!(matches!(new(3, 10, 1 << 32), Err(DataError::Invalid(_))));
        assert!(matches!(new(3, usize::MAX, 4), Err(DataError::Invalid(_))));
        // A block far larger than the cell allocates only for the cell.
        assert!(new(3, 10, u32::MAX as usize).is_ok());
    }

    // ---- corruption matrix (satellite 3) ----

    fn corrupt<F: FnOnce(&mut Vec<u8>)>(name: &str, f: F) -> Result<GridBucket> {
        let b = bucket(100, 3);
        let (mut bytes, _) = gb02_to_bytes(&b, Codec::ShuffleRle, 32).unwrap();
        f(&mut bytes);
        let path = tmpdir().join(format!("corrupt-{name}-{}.gb2", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let out = Gb02Reader::open_path(&path, BackendKind::LocalFile).and_then(|r| r.read_all());
        std::fs::remove_file(path).unwrap();
        out
    }

    #[test]
    fn corruption_bad_header_magic() {
        let err = corrupt("magic", |b| b[0] = b'X').unwrap_err();
        assert!(matches!(err, DataError::Format(_)), "{err:?}");
    }

    #[test]
    fn corruption_truncated_index() {
        let err = corrupt("truncindex", |b| {
            let cut = b.len() - FOOTER_LEN - INDEX_ENTRY_LEN / 2;
            b.truncate(cut);
        })
        .unwrap_err();
        assert!(matches!(err, DataError::Format(_)), "{err:?}");
    }

    #[test]
    fn corruption_truncated_footer() {
        let err = corrupt("truncfoot", |b| {
            let cut = b.len() - 5;
            b.truncate(cut);
        })
        .unwrap_err();
        assert!(matches!(err, DataError::Format(_)), "{err:?}");
    }

    #[test]
    fn corruption_flipped_block_byte() {
        let err = corrupt("blockflip", |b| b[HEADER2_LEN + 3] ^= 0xFF).unwrap_err();
        // A flipped stored byte either breaks the RLE stream (Format) or
        // decodes to different bytes (ChecksumMismatch) — both clean.
        assert!(
            matches!(err, DataError::ChecksumMismatch { .. } | DataError::Format(_)),
            "{err:?}"
        );
    }

    #[test]
    fn corruption_flipped_block_checksum_in_index() {
        // Flip a checksum byte inside the index and re-seal the index
        // checksum so only the per-block integrity check can catch it.
        let err = corrupt("cksumflip", |b| {
            let total = b.len();
            let footer_at = total - FOOTER_LEN;
            let index_offset =
                u64::from_le_bytes(b[footer_at..footer_at + 8].try_into().unwrap()) as usize;
            // checksum is the 4th u64 of the first entry.
            b[index_offset + 24] ^= 0xFF;
            let new_ck = fnv1a(&b[index_offset..footer_at]);
            b[footer_at + 16..footer_at + 24].copy_from_slice(&new_ck.to_le_bytes());
        })
        .unwrap_err();
        assert!(matches!(err, DataError::ChecksumMismatch { .. }), "{err:?}");
    }

    #[test]
    fn corruption_index_tamper_without_reseal_is_caught() {
        let err = corrupt("indexflip", |b| {
            let footer_at = b.len() - FOOTER_LEN;
            b[footer_at - 10] ^= 0x01;
        })
        .unwrap_err();
        assert!(matches!(err, DataError::ChecksumMismatch { .. }), "{err:?}");
    }

    #[test]
    fn corruption_bogus_codec_id() {
        let err = corrupt("codec", |b| {
            let total = b.len();
            let footer_at = total - FOOTER_LEN;
            let index_offset =
                u64::from_le_bytes(b[footer_at..footer_at + 8].try_into().unwrap()) as usize;
            // codec is the last byte of the first 49-byte entry.
            b[index_offset + INDEX_ENTRY_LEN - 1] = 0xEE;
            let new_ck = fnv1a(&b[index_offset..footer_at]);
            b[footer_at + 16..footer_at + 24].copy_from_slice(&new_ck.to_le_bytes());
        })
        .unwrap_err();
        assert!(matches!(err, DataError::Format(_)), "{err:?}");
    }

    #[test]
    fn corruption_overlapping_block_ranges() {
        let err = corrupt("overlap", |b| {
            let total = b.len();
            let footer_at = total - FOOTER_LEN;
            let index_offset =
                u64::from_le_bytes(b[footer_at..footer_at + 8].try_into().unwrap()) as usize;
            // Pull block 1's offset back inside block 0.
            let e1 = index_offset + INDEX_ENTRY_LEN;
            let off = u64::from_le_bytes(b[e1..e1 + 8].try_into().unwrap());
            b[e1..e1 + 8].copy_from_slice(&(off - 8).to_le_bytes());
            let new_ck = fnv1a(&b[index_offset..footer_at]);
            b[footer_at + 16..footer_at + 24].copy_from_slice(&new_ck.to_le_bytes());
        })
        .unwrap_err();
        assert!(matches!(err, DataError::Format(_)), "{err:?}");
        let err = corrupt("overlap-points", |b| {
            let total = b.len();
            let footer_at = total - FOOTER_LEN;
            let index_offset =
                u64::from_le_bytes(b[footer_at..footer_at + 8].try_into().unwrap()) as usize;
            // Make block 1 claim to re-cover block 0's point range.
            let e1_start = index_offset + INDEX_ENTRY_LEN + 32;
            b[e1_start..e1_start + 8].copy_from_slice(&0u64.to_le_bytes());
            let new_ck = fnv1a(&b[index_offset..footer_at]);
            b[footer_at + 16..footer_at + 24].copy_from_slice(&new_ck.to_le_bytes());
        })
        .unwrap_err();
        assert!(matches!(err, DataError::Format(_)), "{err:?}");
    }

    #[test]
    fn corruption_gb01_magic_on_gb02_reader() {
        let err = corrupt("gb01magic", |b| b[..8].copy_from_slice(&MAGIC)).unwrap_err();
        assert!(matches!(err, DataError::Format(_)), "{err:?}");
    }

    #[test]
    fn probe_reports_both_formats() {
        let b = bucket(42, 3);
        let dir = tmpdir();
        let p1 = dir.join(format!("probe1-{}.gb", std::process::id()));
        b.write_to(&p1).unwrap();
        let info = probe(&p1).unwrap();
        assert_eq!(info.format, BucketFormat::Gb01);
        assert_eq!(info.count, 42);
        assert_eq!(info.dim, 3);
        assert_eq!(info.cell, b.cell);

        let p2 = write_tmp("probe2", &b, Codec::ShuffleRle, 16);
        let info = probe(&p2).unwrap();
        assert_eq!(info.format, BucketFormat::Gb02);
        assert_eq!(info.count, 42);
        assert_eq!(info.cell, b.cell);

        std::fs::remove_file(p1).unwrap();
        std::fs::remove_file(p2).unwrap();
    }
}

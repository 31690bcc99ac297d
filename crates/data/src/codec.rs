//! Block codecs for the `PMKMGB02` container.
//!
//! Two codecs, both implemented in-tree (the build has no compression
//! crates) and both bit-exact: decode(encode(payload)) must reproduce the
//! input byte-for-byte, which the container layer additionally pins with a
//! per-block FNV-1a over the *uncompressed* bytes.
//!
//! * [`Codec::Raw`] — identity. The only codec eligible for the zero-copy
//!   mmap scan path: a raw block in a mapped file can be decoded straight
//!   from the page cache without an intermediate payload buffer.
//! * [`Codec::ShuffleRle`] — byte shuffle + run-length coding. The payload
//!   is a row-major `f64` array; transposing it so that byte *k* of every
//!   value sits contiguously (8 "lanes") turns the near-constant exponent
//!   and sign bytes of clustered coordinates into long runs, which a
//!   control-byte RLE then collapses. Grid buckets of Gaussian cells
//!   compress 1.5–2.5× this way at memcpy-like speeds.
//!
//! RLE wire format (after the shuffle): a control byte `c` followed by
//! payload — `c < 128` means a literal run of `c + 1` bytes follows;
//! `c >= 128` means the single following byte repeats `c - 125` times
//! (runs of 3..=130). Runs shorter than 3 are never emitted as repeats,
//! so encoding can only break even or win on them as literals.

use crate::error::{DataError, Result};

/// A block codec identifier. The `u8` ids are part of the on-disk format;
/// never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// Identity: stored bytes are the payload bytes.
    #[default]
    Raw,
    /// Byte shuffle (8 lanes) followed by control-byte RLE.
    ShuffleRle,
}

impl Codec {
    /// The on-disk codec id.
    pub fn id(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::ShuffleRle => 1,
        }
    }

    /// Resolves an on-disk id; unknown ids are a format error, never a
    /// silent fallback.
    pub fn from_id(id: u8) -> Result<Self> {
        match id {
            0 => Ok(Codec::Raw),
            1 => Ok(Codec::ShuffleRle),
            other => Err(DataError::Format(format!("unknown codec id {other}"))),
        }
    }

    /// Stable CLI/metrics label.
    pub fn label(self) -> &'static str {
        match self {
            Codec::Raw => "raw",
            Codec::ShuffleRle => "shuffle-rle",
        }
    }

    /// Parses a CLI label (`raw`, `shuffle-rle`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "raw" => Some(Codec::Raw),
            "shuffle-rle" | "shuffle_rle" | "shuffle" => Some(Codec::ShuffleRle),
            _ => None,
        }
    }

    /// Every codec, for exhaustive tests and bench sweeps.
    pub const ALL: [Codec; 2] = [Codec::Raw, Codec::ShuffleRle];
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Encodes one uncompressed block. `bytes.len()` must be a multiple of 8
/// (the payload is always whole `f64`s).
pub fn encode(codec: Codec, bytes: &[u8]) -> Result<Vec<u8>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(DataError::Invalid(format!(
            "block of {} bytes is not a whole number of f64 values",
            bytes.len()
        )));
    }
    let mut block = bytes.to_vec();
    encode_in_place(codec, &mut block, &mut Vec::new());
    Ok(block)
}

/// Replaces the uncompressed block in `block` (whole `f64`s) with its
/// stored bytes, using `scratch` for the shuffle; both keep their
/// capacity, so a writer encodes block after block with no allocation.
pub(crate) fn encode_in_place(codec: Codec, block: &mut Vec<u8>, scratch: &mut Vec<u8>) {
    match codec {
        Codec::Raw => {}
        Codec::ShuffleRle => {
            shuffle_into(block, scratch);
            block.clear();
            rle_encode_into(scratch, block);
        }
    }
}

/// Decodes one stored block back to exactly `ulen` payload bytes.
pub fn decode(codec: Codec, stored: &[u8], ulen: usize) -> Result<Vec<u8>> {
    if !ulen.is_multiple_of(8) {
        return Err(DataError::Format(format!(
            "block claims {ulen} uncompressed bytes, not a whole number of f64 values"
        )));
    }
    match codec {
        Codec::Raw => {
            if stored.len() != ulen {
                return Err(DataError::Format(format!(
                    "raw block is {} bytes, index promises {ulen}",
                    stored.len()
                )));
            }
            Ok(stored.to_vec())
        }
        Codec::ShuffleRle => {
            let shuffled = rle_decode(stored, ulen)?;
            Ok(unshuffle(&shuffled))
        }
    }
}

/// Transposes `bytes` (a flat `f64` array) into `out` so byte `k` of every
/// value is contiguous: lane 0 holds the low byte of each f64, lane 7 the
/// high byte.
fn shuffle_into(bytes: &[u8], out: &mut Vec<u8>) {
    let n = bytes.len() / 8;
    out.clear();
    out.resize(bytes.len(), 0);
    for lane in 0..8 {
        let dst = &mut out[lane * n..(lane + 1) * n];
        for (i, d) in dst.iter_mut().enumerate() {
            *d = bytes[i * 8 + lane];
        }
    }
}

/// Inverse of [`shuffle_into`].
fn unshuffle(bytes: &[u8]) -> Vec<u8> {
    let n = bytes.len() / 8;
    let mut out = vec![0u8; bytes.len()];
    for lane in 0..8 {
        let src = &bytes[lane * n..(lane + 1) * n];
        for (i, &s) in src.iter().enumerate() {
            out[i * 8 + lane] = s;
        }
    }
    out
}

/// Longest repeat run a single control byte can express.
const MAX_RUN: usize = 130;
/// Longest literal run a single control byte can express.
const MAX_LITERAL: usize = 128;
/// Shortest repeat worth a token (a 2-byte repeat token never beats
/// 2 literal bytes inside an open literal run).
const MIN_RUN: usize = 3;
/// Most payload bytes one stored RLE byte can yield: the largest token, a
/// 2-byte repeat, decodes to [`MAX_RUN`] bytes. A block whose index
/// promises more than this many times its stored length is corrupt.
pub(crate) const MAX_RLE_EXPANSION: usize = MAX_RUN / 2;

fn rle_encode_into(input: &[u8], out: &mut Vec<u8>) {
    let mut literal_start = 0usize;
    let mut i = 0usize;
    while i < input.len() {
        // Measure the run of equal bytes starting at i.
        let b = input[i];
        let mut run = 1usize;
        while i + run < input.len() && input[i + run] == b && run < MAX_RUN {
            run += 1;
        }
        if run >= MIN_RUN {
            flush_literals(out, &input[literal_start..i]);
            // Control 128 encodes a run of MIN_RUN (=3), i.e. run = c - 125.
            out.push((run - MIN_RUN) as u8 + 128);
            out.push(b);
            i += run;
            literal_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(out, &input[literal_start..]);
}

fn flush_literals(out: &mut Vec<u8>, mut lit: &[u8]) {
    while !lit.is_empty() {
        let take = lit.len().min(MAX_LITERAL);
        out.push((take - 1) as u8);
        out.extend_from_slice(&lit[..take]);
        lit = &lit[take..];
    }
}

fn rle_decode(input: &[u8], ulen: usize) -> Result<Vec<u8>> {
    // Bound the allocation by what the stored bytes can decode to, so a
    // hostile `ulen` is an error rather than an abort.
    if input.len().checked_mul(MAX_RLE_EXPANSION).is_none_or(|max| ulen > max) {
        return Err(DataError::Format(format!(
            "RLE block of {} stored bytes cannot decode to {ulen} bytes",
            input.len()
        )));
    }
    let mut out = Vec::with_capacity(ulen);
    let mut i = 0usize;
    while i < input.len() {
        let c = input[i] as usize;
        i += 1;
        if c < 128 {
            let take = c + 1;
            let lit = input
                .get(i..i + take)
                .ok_or_else(|| DataError::Format("RLE literal run overruns block".into()))?;
            out.extend_from_slice(lit);
            i += take;
        } else {
            let b = *input
                .get(i)
                .ok_or_else(|| DataError::Format("RLE repeat token missing its byte".into()))?;
            i += 1;
            let run = c - 125;
            out.resize(out.len() + run, b);
        }
        if out.len() > ulen {
            return Err(DataError::Format(format!("RLE block decodes past its {ulen}-byte bound")));
        }
    }
    if out.len() != ulen {
        return Err(DataError::Format(format!(
            "RLE block decoded to {} bytes, index promises {ulen}",
            out.len()
        )));
    }
    Ok(out)
}

/// Bulk little-endian materialization: `bytes` (a multiple of 8) → `f64`s.
/// This is the single conversion pass between storage and the kernel; it
/// compiles to vectorized loads on little-endian targets.
pub fn f64s_from_le(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect()
}

/// Bulk little-endian serialization: appends `vals` to `out` as LE bytes.
pub fn f64s_to_le(vals: &[f64], out: &mut Vec<u8>) {
    out.reserve(vals.len() * 8);
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// A little-endian reader over a header, index or stripe held in memory.
/// Every caller checks the slice's length before it reads, so reading past
/// the end is a bug in this crate and panics.
pub(crate) struct LeCursor<'a> {
    rest: &'a [u8],
}

impl<'a> LeCursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// The next `N` bytes.
    pub(crate) fn array<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.rest.split_first_chunk::<N>().expect("read past a length check");
        self.rest = rest;
        *head
    }

    pub(crate) fn u8(&mut self) -> u8 {
        u8::from_le_bytes(self.array())
    }

    pub(crate) fn u32(&mut self) -> u32 {
        u32::from_le_bytes(self.array())
    }

    pub(crate) fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.array())
    }

    pub(crate) fn f64(&mut self) -> f64 {
        f64::from_le_bytes(self.array())
    }

    /// The bytes not read yet.
    pub(crate) fn rest(&self) -> &'a [u8] {
        self.rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..n {
            let v = (i as f64) * 0.25 - 3.0;
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    #[test]
    fn raw_round_trips() {
        let p = payload(33);
        let enc = encode(Codec::Raw, &p).unwrap();
        assert_eq!(enc, p);
        assert_eq!(decode(Codec::Raw, &enc, p.len()).unwrap(), p);
    }

    #[test]
    fn shuffle_rle_round_trips() {
        for n in [0, 1, 2, 7, 64, 129, 1000] {
            let p = payload(n);
            let enc = encode(Codec::ShuffleRle, &p).unwrap();
            assert_eq!(decode(Codec::ShuffleRle, &enc, p.len()).unwrap(), p, "n={n}");
        }
    }

    #[test]
    fn shuffle_rle_compresses_clustered_doubles() {
        // Coordinates near a common center share exponent/sign bytes.
        let mut p = Vec::new();
        for i in 0..2000 {
            let v = 100.0 + (i % 17) as f64 * 1e-3;
            p.extend_from_slice(&v.to_le_bytes());
        }
        let enc = encode(Codec::ShuffleRle, &p).unwrap();
        assert!(
            enc.len() * 7 < p.len() * 5,
            "expected >1.4x compression, got {} -> {}",
            p.len(),
            enc.len()
        );
        assert_eq!(decode(Codec::ShuffleRle, &enc, p.len()).unwrap(), p);
    }

    #[test]
    fn rle_handles_long_runs_and_literal_tails() {
        let mut input = vec![0xAAu8; 1000];
        input.extend((0..=255u8).cycle().take(300));
        let mut enc = Vec::new();
        rle_encode_into(&input, &mut enc);
        assert!(enc.len() < input.len());
        assert_eq!(rle_decode(&enc, input.len()).unwrap(), input);
    }

    #[test]
    fn rle_rejects_truncated_streams() {
        let input = vec![1u8, 1, 1, 1, 1, 1, 2, 3, 4];
        let mut enc = Vec::new();
        rle_encode_into(&input, &mut enc);
        for cut in 1..enc.len() {
            assert!(
                rle_decode(&enc[..cut], input.len()).is_err(),
                "cut at {cut} must not decode cleanly"
            );
        }
    }

    #[test]
    fn rle_decode_bounds_ulen_by_the_largest_token() {
        // One 2-byte repeat token is the most a stored pair can yield.
        assert_eq!(rle_decode(&[0xFF, 7], MAX_RUN).unwrap(), vec![7u8; MAX_RUN]);
        assert!(rle_decode(&[0xFF, 7], MAX_RUN + 1).is_err());
        // A promise far past the bound fails before allocating for it.
        assert!(rle_decode(&[0xFF, 7], 1 << 50).is_err());
        assert!(decode(Codec::ShuffleRle, &[0xFF, 7], 1 << 50).is_err());
    }

    #[test]
    fn decode_rejects_wrong_ulen() {
        let p = payload(10);
        let enc = encode(Codec::ShuffleRle, &p).unwrap();
        assert!(decode(Codec::ShuffleRle, &enc, p.len() - 8).is_err());
        assert!(decode(Codec::ShuffleRle, &enc, p.len() + 8).is_err());
        assert!(decode(Codec::Raw, &p, p.len() - 8).is_err());
    }

    #[test]
    fn encode_rejects_ragged_blocks() {
        assert!(encode(Codec::Raw, &[1, 2, 3]).is_err());
        assert!(encode(Codec::ShuffleRle, &[0; 12]).is_err());
    }

    #[test]
    fn codec_ids_are_pinned() {
        assert_eq!(Codec::Raw.id(), 0);
        assert_eq!(Codec::ShuffleRle.id(), 1);
        assert_eq!(Codec::from_id(0).unwrap(), Codec::Raw);
        assert_eq!(Codec::from_id(1).unwrap(), Codec::ShuffleRle);
        assert!(Codec::from_id(2).is_err());
        for c in Codec::ALL {
            assert_eq!(Codec::parse(c.label()), Some(c));
        }
    }

    #[test]
    fn le_bulk_helpers_round_trip() {
        let vals = [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, 42.42];
        let mut bytes = Vec::new();
        f64s_to_le(&vals, &mut bytes);
        assert_eq!(bytes.len(), vals.len() * 8);
        let back = f64s_from_le(&bytes);
        assert_eq!(back.as_slice(), &vals[..]);
    }
}

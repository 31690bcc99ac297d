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
//!   control-byte RLE then collapses. How much that wins depends on the
//!   data: the paper-shaped benchmark cells (six radiances spread over
//!   0–800) store 0.887 of their payload (1.13×), while tightly clustered
//!   coordinates compress further. Both stages work a word at a time (an
//!   8×8 byte transpose; a SWAR search for the next run), several GB/s
//!   per core each on a 2-vCPU x86-64 box.
//!
//! RLE wire format (after the shuffle): a control byte `c` followed by
//! payload — `c < 128` means a literal run of `c + 1` bytes follows;
//! `c >= 128` means the single following byte repeats `c - 125` times
//! (runs of 3..=130). Runs shorter than 3 are never emitted as repeats,
//! so encoding can only break even or win on them as literals. There is
//! no escape: bytes that hold no run cost one control byte per literal
//! run of up to 128, so a block of `n` bytes stores at most
//! `n + ⌈n / 128⌉` (0.8 % over).

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
    let mut block = stored.to_vec();
    decode_in_place(codec, &mut block, ulen, &mut Vec::new())?;
    Ok(block)
}

/// Replaces the stored bytes in `block` with the exactly `ulen` payload
/// bytes they decode to, using `scratch` for the run-length stage: the
/// inverse of [`encode_in_place`]. Both keep their capacity, so a reader
/// decodes block after block with no allocation.
pub(crate) fn decode_in_place(
    codec: Codec,
    block: &mut Vec<u8>,
    ulen: usize,
    scratch: &mut Vec<u8>,
) -> Result<()> {
    if !ulen.is_multiple_of(8) {
        return Err(DataError::Format(format!(
            "block claims {ulen} uncompressed bytes, not a whole number of f64 values"
        )));
    }
    match codec {
        Codec::Raw => raw_payload(block, ulen).map(drop),
        Codec::ShuffleRle => {
            rle_decode_into(block, ulen, scratch)?;
            unshuffle_into(scratch, block);
            Ok(())
        }
    }
}

/// A raw block's stored bytes, which are its payload once their length is
/// the `ulen` the index promises.
pub(crate) fn raw_payload(stored: &[u8], ulen: usize) -> Result<&[u8]> {
    if stored.len() != ulen {
        return Err(DataError::Format(format!(
            "raw block is {} bytes, index promises {ulen}",
            stored.len()
        )));
    }
    Ok(stored)
}

/// The little-endian `u64` in the first 8 bytes of `bytes`.
fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("an 8-byte slice"))
}

/// Transposes the 8×8 byte matrix held in eight little-endian words: byte
/// `c` of word `r` moves to byte `r` of word `c`. Three stages swap the
/// off-diagonal 4×4, 2×2 and 1×1 blocks. The transpose is its own
/// inverse, so it both shuffles eight values into the eight lanes and
/// unshuffles them back.
fn transpose8(m: &mut [u64; 8]) {
    for (gap, keep) in
        [(4, 0x0000_0000_FFFF_FFFFu64), (2, 0x0000_FFFF_0000_FFFF), (1, 0x00FF_00FF_00FF_00FF)]
    {
        let shift = 8 * gap as u32;
        for r in (0..8).filter(|r| r & gap == 0) {
            let (a, b) = (m[r], m[r + gap]);
            m[r] = (a & keep) | ((b & keep) << shift);
            m[r + gap] = ((a >> shift) & keep) | (b & !keep);
        }
    }
}

/// `buf` cut into its 8 lanes of `n` bytes.
fn lanes_mut(mut buf: &mut [u8], n: usize) -> [&mut [u8]; 8] {
    std::array::from_fn(|_| {
        let (lane, rest) = std::mem::take(&mut buf).split_at_mut(n);
        buf = rest;
        lane
    })
}

/// Transposes `bytes` (a flat `f64` array) into `out` so byte `k` of every
/// value is contiguous: lane 0 holds the low byte of each f64, lane 7 the
/// high byte. Eight values move at a time as one 8×8 byte transpose; the
/// values left over move a byte at a time.
fn shuffle_into(bytes: &[u8], out: &mut Vec<u8>) {
    let n = bytes.len() / 8;
    out.clear();
    out.resize(bytes.len(), 0);
    let mut lanes = lanes_mut(out, n);
    let (groups, tail) = bytes.split_at(n / 8 * 64);
    for (g, group) in groups.chunks_exact(64).enumerate() {
        let mut m: [u64; 8] = std::array::from_fn(|r| le_word(&group[r * 8..]));
        transpose8(&mut m);
        for (lane, word) in lanes.iter_mut().zip(m) {
            lane[g * 8..g * 8 + 8].copy_from_slice(&word.to_le_bytes());
        }
    }
    for (i, value) in (n / 8 * 8..).zip(tail.chunks_exact(8)) {
        for (lane, &b) in lanes.iter_mut().zip(value) {
            lane[i] = b;
        }
    }
}

/// Inverse of [`shuffle_into`].
fn unshuffle_into(bytes: &[u8], out: &mut Vec<u8>) {
    let n = bytes.len() / 8;
    out.clear();
    out.resize(bytes.len(), 0);
    let whole = n / 8 * 8;
    let (groups, tail) = out.split_at_mut(whole * 8);
    let lanes: [&[u8]; 8] = std::array::from_fn(|lane| &bytes[lane * n..(lane + 1) * n]);
    for (g, group) in groups.chunks_exact_mut(64).enumerate() {
        let mut m: [u64; 8] = std::array::from_fn(|lane| le_word(&lanes[lane][g * 8..]));
        transpose8(&mut m);
        for (value, word) in group.chunks_exact_mut(8).zip(m) {
            value.copy_from_slice(&word.to_le_bytes());
        }
    }
    for (i, value) in (whole..).zip(tail.chunks_exact_mut(8)) {
        for (b, lane) in value.iter_mut().zip(lanes) {
            *b = lane[i];
        }
    }
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

/// `0x01` in every byte.
const ONES: u64 = 0x0101_0101_0101_0101;

/// Flags the zero bytes of `v` with their high bit. The lowest flag is
/// exact; a flag above a zero byte may be false (the borrow runs upward).
fn zero_bytes(v: u64) -> u64 {
    v.wrapping_sub(ONES) & !v & (ONES << 7)
}

/// The first position `p >= from` where three equal bytes start, or
/// `input.len()` when there is none. One step tests eight starts: byte `k`
/// of `w ^ w1` is zero when bytes `k` and `k + 1` are equal, and of
/// `w ^ w2` when `k` and `k + 2` are, where `w1` and `w2` are the words
/// one and two bytes on from `w`.
fn next_triple(input: &[u8], from: usize) -> usize {
    let mut p = from;
    while let Some(window) = input.get(p..p + 10) {
        let w = le_word(window);
        let starts = zero_bytes((w ^ le_word(&window[1..])) | (w ^ le_word(&window[2..])));
        if starts != 0 {
            return p + starts.trailing_zeros() as usize / 8;
        }
        p += 8;
    }
    (p..input.len().saturating_sub(MIN_RUN - 1))
        .find(|&p| input[p] == input[p + 1] && input[p] == input[p + 2])
        .unwrap_or(input.len())
}

/// Length of the run of `input[p]` that starts at `p`, at most
/// [`MAX_RUN`]; eight bytes are compared at a time.
fn run_len(input: &[u8], p: usize) -> usize {
    let end = input.len().min(p + MAX_RUN);
    let b = input[p];
    let pattern = u64::from(b) * ONES;
    let mut q = p + 1;
    while q + 8 <= end {
        let diff = le_word(&input[q..]) ^ pattern;
        if diff != 0 {
            return q + diff.trailing_zeros() as usize / 8 - p;
        }
        q += 8;
    }
    q + input[q..end].iter().take_while(|&&x| x == b).count() - p
}

/// Run-length codes `input` onto `out`. The greedy rule: every start of
/// three or more equal bytes becomes a repeat of its run (split at
/// [`MAX_RUN`]), and the bytes between repeats are literals. Finding the
/// next such start is the same as testing a run at every byte, one word
/// at a time; the literal span before it is copied in bulk.
fn rle_encode_into(input: &[u8], out: &mut Vec<u8>) {
    out.reserve(input.len() + input.len().div_ceil(MAX_LITERAL));
    let mut i = 0usize;
    while i < input.len() {
        let p = next_triple(input, i);
        flush_literals(out, &input[i..p]);
        if p == input.len() {
            break;
        }
        let run = run_len(input, p);
        // Control 128 encodes a run of MIN_RUN (=3), i.e. run = c - 125.
        out.push((run - MIN_RUN) as u8 + 128);
        out.push(input[p]);
        i = p + run;
    }
}

fn flush_literals(out: &mut Vec<u8>, mut lit: &[u8]) {
    while !lit.is_empty() {
        let take = lit.len().min(MAX_LITERAL);
        out.push((take - 1) as u8);
        out.extend_from_slice(&lit[..take]);
        lit = &lit[take..];
    }
}

/// Decodes an RLE stream into `out` (cleared first), which must come to
/// exactly `ulen` bytes.
fn rle_decode_into(input: &[u8], ulen: usize, out: &mut Vec<u8>) -> Result<()> {
    // Bound the allocation by what the stored bytes can decode to, so a
    // hostile `ulen` is an error rather than an abort.
    if input.len().checked_mul(MAX_RLE_EXPANSION).is_none_or(|max| ulen > max) {
        return Err(DataError::Format(format!(
            "RLE block of {} stored bytes cannot decode to {ulen} bytes",
            input.len()
        )));
    }
    out.clear();
    out.reserve(ulen);
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
    Ok(())
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
    use proptest::prelude::*;

    /// The byte-at-a-time kernels the word-at-a-time ones replaced, kept
    /// verbatim as the oracle they must match byte for byte.
    mod oracle {
        use super::super::{flush_literals, MAX_RUN, MIN_RUN};

        pub(super) fn shuffle_into(bytes: &[u8], out: &mut Vec<u8>) {
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

        pub(super) fn unshuffle(bytes: &[u8]) -> Vec<u8> {
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

        pub(super) fn rle_encode_into(input: &[u8], out: &mut Vec<u8>) {
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
    }

    fn rle_decode(input: &[u8], ulen: usize) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        rle_decode_into(input, ulen, &mut out).map(|()| out)
    }

    /// Every kernel against the oracle on `bytes`, cut to whole values
    /// for the shuffles; the encoder also on the bytes as they are.
    fn assert_matches_oracle(bytes: &[u8]) {
        let whole = &bytes[..bytes.len() / 8 * 8];
        let (mut got, mut want) = (Vec::new(), Vec::new());
        shuffle_into(whole, &mut got);
        oracle::shuffle_into(whole, &mut want);
        assert_eq!(got, want, "shuffle of {} bytes", whole.len());
        unshuffle_into(whole, &mut got);
        assert_eq!(got, oracle::unshuffle(whole), "unshuffle of {} bytes", whole.len());
        for input in [bytes, whole] {
            let (mut got, mut want) = (vec![9u8; 3], Vec::new());
            got.clear();
            rle_encode_into(input, &mut got);
            oracle::rle_encode_into(input, &mut want);
            assert_eq!(got, want, "RLE of {} bytes", input.len());
            assert_eq!(rle_decode(&got, input.len()).unwrap(), input);
        }
        let stored = encode(Codec::ShuffleRle, whole).unwrap();
        assert!(
            stored.len() <= whole.len() + whole.len().div_ceil(MAX_LITERAL),
            "{} bytes stored for {}",
            stored.len(),
            whole.len()
        );
        assert_eq!(decode(Codec::ShuffleRle, &stored, whole.len()).unwrap(), whole);
    }

    /// Bytes of runs: each segment is one byte value repeated `len` times.
    fn runs(segments: &[(u8, usize)]) -> Vec<u8> {
        segments.iter().flat_map(|&(b, len)| std::iter::repeat_n(b, len)).collect()
    }

    #[test]
    fn kernels_match_the_oracle_at_every_length_and_run_boundary() {
        // Every length up to 3 groups of eight and a few past 1,990
        // values covers each remainder mod 8 of the transpose and of the
        // six-start triple search.
        let noise: Vec<u8> =
            (0..2000 * 8).map(|i: u32| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for n in (0..=24).chain(1990..=2000) {
            assert_matches_oracle(&noise[..n * 8]);
            assert_matches_oracle(&vec![0x5A; n * 8]);
        }
        // Runs of 2, 3, 130, 131 and 260 at every offset in a word, so each
        // straddles a word boundary, between noise and between runs.
        for run in [1, 2, 3, 4, 7, 8, 9, 129, 130, 131, 132, 260, 261] {
            for offset in 0..16 {
                let mut bytes = noise[..offset].to_vec();
                bytes.extend(runs(&[(7, run), (8, 2), (7, run), (9, 3)]));
                bytes.extend_from_slice(&noise[..17]);
                bytes.extend(runs(&[(noise[16], run)]));
                assert_matches_oracle(&bytes);
            }
        }
    }

    /// Random bytes, a constant block, or runs of every interesting length
    /// (byte values drawn from 4 so neighbouring runs often agree).
    fn arb_block() -> impl Strategy<Value = Vec<u8>> {
        let noise = proptest::collection::vec(any::<u8>(), 0..2000 * 8);
        let segments = proptest::collection::vec((0u8..4, 0usize..12, 1usize..300), 0..60);
        (0usize..3, noise, any::<u8>(), 0usize..2001, segments).prop_map(
            |(kind, noise, b, n, segments)| match kind {
                0 => noise,
                1 => vec![b; n * 8],
                _ => {
                    let lens = [1, 2, 3, 130, 131, 260];
                    let segments: Vec<_> = segments
                        .into_iter()
                        .map(|(b, pick, len)| (b, lens.get(pick).copied().unwrap_or(len)))
                        .collect();
                    runs(&segments)
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn kernels_match_the_byte_at_a_time_oracle(bytes in arb_block()) {
            assert_matches_oracle(&bytes);
        }

        // Stored bytes from anywhere, with any `ulen` they could decode to:
        // exactly `ulen` bytes or an error, never a panic. Half the cases
        // are a real block with up to three bytes changed, and a third ask
        // for that block's true length, so the decoder gets deep into a
        // stream before it fails.
        #[test]
        fn decode_returns_ulen_bytes_or_an_error_on_any_stored_bytes(
            garbage in proptest::collection::vec(any::<u8>(), 0..600),
            payload in proptest::collection::vec(0u8..3, 0..600),
            flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            from_block in any::<bool>(),
            ulen_pick in any::<usize>(),
        ) {
            let payload = &payload[..payload.len() / 8 * 8];
            let stored = if from_block {
                let mut stored = encode(Codec::ShuffleRle, payload).unwrap();
                for (at, x) in flips {
                    if !stored.is_empty() {
                        let at = at % stored.len();
                        stored[at] ^= x;
                    }
                }
                stored
            } else {
                garbage
            };
            let values = stored.len() * MAX_RLE_EXPANSION / 8;
            let ulen = match ulen_pick % 3 {
                0 => payload.len(),
                _ => 8 * (ulen_pick % (values + 2)),
            };
            if let Ok(payload) = decode(Codec::ShuffleRle, &stored, ulen) {
                prop_assert_eq!(payload.len(), ulen);
            }
        }
    }

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

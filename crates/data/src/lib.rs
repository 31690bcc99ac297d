//! # pmkm-data — MISR-like geospatial data substrate
//!
//! Everything the partial/merge k-means reproduction needs as *input*:
//!
//! * [`gaussian`] / [`mixture`] — from-scratch normal and Gaussian-mixture
//!   samplers (the paper regenerated its MISR-like cells "with the same
//!   distribution" in R; this is the Rust equivalent),
//! * [`grid`] — the 64,800-cell 1° × 1° earth grid,
//! * [`swath`] — a satellite swath simulator producing stripe files in
//!   acquisition order (Figure 1 of the paper),
//! * [`binner`] — the one-scan stripe → grid-bucket sort the paper assumes
//!   as preprocessing (§3.1),
//! * [`bucket`] — the binary grid-bucket file format with streaming reads
//!   and checksum verification,
//! * [`generator`] — the exact experiment sweep of §5.1 (N ∈ {250 …
//!   75,000}, D = 6, five versions per configuration),
//! * [`stats`] — per-dimension summaries used for validation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod binner;
pub mod bucket;
pub mod codec;
pub mod container;
pub mod error;
pub mod gaussian;
pub mod generator;
pub mod grid;
pub mod mixture;
pub mod stats;
pub mod swath;

pub use backend::{
    open_backend, BackendKind, FileBackend, GetFaultHook, MmapBackend, ScanBackend, SimObjectStore,
};
pub use bucket::{BucketReader, GridBucket};
pub use codec::Codec;
pub use container::{
    check_destinations, convert_bucket, convert_buckets, gb02_to_bytes, probe, write_gb02,
    BlockEntry, BlockReadStats, BucketFormat, BucketInfo, Gb02Reader, Gb02Stats, Gb02Writer,
    DEFAULT_BLOCK_POINTS,
};
pub use error::{DataError, Result};
pub use generator::{paper_cell, CellConfig, PAPER_DIM, PAPER_K, PAPER_SWEEP, PAPER_VERSIONS};
pub use grid::GridCell;
pub use mixture::Mixture;
pub use swath::{Observation, SwathConfig, SwathSimulator};

/// The little-endian cursor every format reader in this crate shares.
#[cfg(test)]
mod tests {
    use crate::codec::LeCursor;

    #[test]
    fn round_trips_little_endian() {
        let mut bytes = b"MAGIC".to_vec();
        bytes.push(7);
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(&42u64.to_le_bytes());
        bytes.extend_from_slice(&(-1.5f64).to_le_bytes());
        let mut cur = LeCursor::new(&bytes);
        assert_eq!(&cur.array::<5>(), b"MAGIC");
        assert_eq!(cur.u8(), 7);
        assert_eq!(cur.u32(), 0xDEAD_BEEF);
        assert_eq!(cur.u64(), 42);
        assert_eq!(cur.f64(), -1.5);
        assert!(cur.rest().is_empty());
    }

    #[test]
    fn copy_to_slice_advances() {
        let data = [1u8, 2, 3, 4];
        let mut cur = LeCursor::new(&data);
        assert_eq!(cur.array::<2>(), [1, 2]);
        assert_eq!(cur.rest(), &[3, 4]);
    }

    #[test]
    #[should_panic(expected = "read past a length check")]
    fn reading_past_the_end_panics() {
        LeCursor::new(&[1, 2, 3]).u32();
    }
}

//! Property tests for the on-disk formats and grid math: round trips,
//! fuzz-resistance of the parsers, and total-function guarantees.

use pmkm_core::{Dataset, PointSource};
use pmkm_data::bucket::{fnv1a, GridBucket};
use pmkm_data::grid::TOTAL_CELLS;
use pmkm_data::swath::{read_stripe, write_stripe, Observation};
use pmkm_data::{BackendKind, BucketFormat, Codec, Gb02Reader, GridCell};
use proptest::prelude::*;

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..6, 0usize..64).prop_flat_map(|(dim, n)| {
        proptest::collection::vec(-1e6..1e6f64, dim * n)
            .prop_map(move |flat| Dataset::from_flat(dim, flat).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bucket_round_trips_any_dataset(ds in arb_dataset(), cell_idx in 0u32..TOTAL_CELLS) {
        let bucket = GridBucket { cell: GridCell::from_index(cell_idx).unwrap(), points: ds };
        let bytes = bucket.to_bytes();
        let back = GridBucket::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, bucket);
    }

    #[test]
    fn bucket_parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Any byte string either parses (vanishingly unlikely) or returns a
        // structured error — never panics, never aborts.
        let _ = GridBucket::from_bytes(&bytes);
    }

    #[test]
    fn bucket_parser_rejects_any_single_bitflip(ds in arb_dataset(), flip_bit in any::<u16>()) {
        prop_assume!(ds.len() > 0);
        let bucket = GridBucket { cell: GridCell::new(0, 0).unwrap(), points: ds };
        let mut bytes = bucket.to_bytes();
        // Flip one bit somewhere in the payload region (after the header).
        let header = pmkm_data::bucket::HEADER_LEN;
        let pos = header + (flip_bit as usize / 8) % (bytes.len() - header);
        bytes[pos] ^= 1 << (flip_bit % 8);
        match GridBucket::from_bytes(&bytes) {
            Err(_) => {} // checksum or shape failure — expected
            Ok(parsed) => {
                // An undetected flip would be an FNV collision; with one
                // bit flipped that cannot happen (FNV-1a is bijective per
                // byte step), so parsing back the identical bucket means
                // the flip restored itself — impossible here.
                prop_assert!(parsed != bucket, "corruption silently accepted");
            }
        }
    }

    #[test]
    fn fnv1a_is_order_sensitive(a in any::<Vec<u8>>(), b in any::<Vec<u8>>()) {
        prop_assume!(a != b);
        // Not a collision-resistance claim — just that typical reorderings
        // and small edits change the hash (differential smoke check).
        let mut ab = a.clone();
        ab.extend_from_slice(&b);
        let mut ba = b.clone();
        ba.extend_from_slice(&a);
        if ab != ba {
            prop_assert_ne!(fnv1a(&ab), fnv1a(&ba));
        }
    }

    #[test]
    fn grid_cell_containing_is_total_on_finite_coords(
        lat in -200.0..200.0f64,
        lon in -1000.0..1000.0f64,
    ) {
        let cell = GridCell::containing(lat, lon).unwrap();
        prop_assert!(cell.index() < TOTAL_CELLS);
        // The cell's box actually covers the (clamped, wrapped) point.
        let (slat, slon) = cell.southwest();
        let clamped_lat = lat.clamp(-90.0, 90.0);
        if clamped_lat < 90.0 {
            prop_assert!(slat <= clamped_lat && clamped_lat < slat + 1.0 + 1e-9);
        }
        let _ = slon;
    }

    #[test]
    fn grid_index_round_trip(idx in 0u32..TOTAL_CELLS) {
        let cell = GridCell::from_index(idx).unwrap();
        prop_assert_eq!(cell.index(), idx);
    }

    #[test]
    fn stripe_round_trips(obs in proptest::collection::vec(
        (( -90.0..90.0f64), (-180.0..180.0f64), proptest::collection::vec(-1e5..1e5f64, 3)),
        0..32,
    )) {
        let observations: Vec<Observation> = obs
            .into_iter()
            .map(|(lat, lon, attrs)| Observation { lat, lon, attrs })
            .collect();
        let dir = std::env::temp_dir().join(format!("pmkm_prop_stripe_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prop.sw");
        write_stripe(&path, 3, &observations).unwrap();
        let back = read_stripe(&path).unwrap();
        prop_assert_eq!(back, observations);
    }

    #[test]
    fn gb02_round_trips_any_dataset_any_codec_any_backend(
        ds in arb_dataset(),
        cell_idx in 0u32..TOTAL_CELLS,
        block_points in 1usize..96,
        codec_pick in 0usize..2,
        backend_pick in 0usize..3,
    ) {
        let codec = Codec::ALL[codec_pick];
        let backend = BackendKind::ALL[backend_pick];
        let bucket = GridBucket { cell: GridCell::from_index(cell_idx).unwrap(), points: ds };
        let dir = std::env::temp_dir().join(format!("pmkm_prop_gb02_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("prop.gb2");
        pmkm_data::write_gb02(&bucket, &path, codec, block_points).unwrap();
        let reader = Gb02Reader::open_path(&path, backend).unwrap();
        let back = reader.read_all().unwrap();
        prop_assert_eq!(back, bucket);
    }

    #[test]
    fn gb02_parser_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let dir = std::env::temp_dir().join(format!("pmkm_prop_gb02g_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.gb2");
        std::fs::write(&path, &bytes).unwrap();
        // Garbage either fails to open or fails to read — never panics.
        if let Ok(reader) = Gb02Reader::open_path(&path, BackendKind::LocalFile) {
            let _ = reader.read_all();
        }
        let _ = pmkm_data::probe(&path);
    }

    #[test]
    fn gb02_rejects_any_single_bitflip(
        ds in arb_dataset(),
        flip_bit in any::<u32>(),
        codec_pick in 0usize..2,
    ) {
        prop_assume!(ds.len() > 0);
        let bucket = GridBucket { cell: GridCell::new(0, 0).unwrap(), points: ds };
        let (mut bytes, _) = pmkm_data::gb02_to_bytes(&bucket, Codec::ALL[codec_pick], 16).unwrap();
        let pos = (flip_bit as usize / 8) % bytes.len();
        bytes[pos] ^= 1 << (flip_bit % 8);
        let dir = std::env::temp_dir().join(format!("pmkm_prop_gb02f_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flip.gb2");
        std::fs::write(&path, &bytes).unwrap();
        let parsed = Gb02Reader::open_path(&path, BackendKind::LocalFile)
            .and_then(|r| r.read_all());
        match parsed {
            Err(_) => {} // clean structured failure — expected
            Ok(back) => {
                // Flips in advisory header bytes (block_points, default
                // codec, padding — bytes 24..32) don't affect the payload,
                // which is governed by the per-entry index; anything else
                // must not round-trip silently.
                let advisory = (24..pmkm_data::container::HEADER2_LEN).contains(&pos);
                prop_assert!(advisory || back != bucket, "corruption silently accepted at byte {}", pos);
            }
        }
    }

    #[test]
    fn mixture_sampling_respects_dimensions(
        dim in 1usize..6,
        comps in 1usize..5,
        n in 0usize..64,
        seed in any::<u64>(),
    ) {
        let m = pmkm_data::Mixture::random(dim, comps, -10.0..10.0, 0.5..2.0, seed).unwrap();
        let ds = m.sample_dataset(n, seed).unwrap();
        prop_assert_eq!(ds.len(), n);
        prop_assert_eq!(ds.dim(), dim);
        for p in ds.iter() {
            prop_assert!(p.iter().all(|x| x.is_finite()));
        }
    }
}

/// GB01 backward compatibility, pinned by a committed golden file: these
/// bytes were written by the v1 writer and must keep reading forever.
#[test]
fn golden_gb01_bucket_still_reads() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/gb01_v1.bucket");
    let bucket = GridBucket::read_from(&path).unwrap();
    assert_eq!(bucket.cell.index(), 4354);
    assert_eq!(bucket.points.dim(), 3);
    assert_eq!(bucket.points.len(), 5);
    let expected: Vec<Vec<f64>> = vec![
        vec![0.0, -1.5, 2.25],
        vec![100.125, -0.0078125, 3.0e5],
        vec![-42.0, 7.75, -0.015625],
        vec![1.0, 2.0, 3.0],
        vec![9.5e-4, -8.25e2, 6.0],
    ];
    for (got, want) in bucket.points.iter().zip(expected.iter()) {
        assert_eq!(got, want.as_slice());
    }

    // The probe and the streaming reader agree on the same file.
    let info = pmkm_data::probe(&path).unwrap();
    assert_eq!(info.format, BucketFormat::Gb01);
    assert_eq!(info.cell, bucket.cell);
    assert_eq!(info.count, 5);
    let mut reader = pmkm_data::BucketReader::open(&path).unwrap();
    let mut streamed = Dataset::new(3).unwrap();
    while let Some(batch) = reader.next_batch(2).unwrap() {
        streamed.extend_from(&batch).unwrap();
    }
    assert_eq!(streamed, bucket.points);

    // And the current writer still produces byte-identical GB01 output.
    assert_eq!(bucket.to_bytes(), std::fs::read(&path).unwrap());
}

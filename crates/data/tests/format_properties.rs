//! Property tests for the on-disk formats and grid math: round trips,
//! fuzz-resistance of the parsers, and total-function guarantees.

use pmkm_core::{Dataset, PointSource};
use pmkm_data::bucket::{fnv1a, GridBucket};
use pmkm_data::container::{FOOTER_LEN, INDEX_ENTRY_LEN};
use pmkm_data::generator::{generate_cell, CellConfig};
use pmkm_data::grid::TOTAL_CELLS;
use pmkm_data::swath::{read_stripe, write_stripe, Observation};
use pmkm_data::{BackendKind, BucketFormat, Codec, DataError, Gb02Reader, Gb02Writer, GridCell};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (1usize..6, 0usize..64).prop_flat_map(|(dim, n)| {
        proptest::collection::vec(-1e6..1e6f64, dim * n)
            .prop_map(move |flat| Dataset::from_flat(dim, flat).unwrap())
    })
}

fn scratch_file(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmkm_prop_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.gb2"))
}

/// Reads `path` back through the reader and through a conversion; each
/// must fail cleanly or give back exactly `bucket`'s points.
fn read_or_reject(
    path: &Path,
    bucket: &GridBucket,
) -> Result<(), proptest::test_runner::TestCaseError> {
    if let Ok(back) = Gb02Reader::open_path(path, BackendKind::LocalFile).and_then(|r| r.read_all())
    {
        prop_assert_eq!(&back, bucket);
    }
    let dst = path.with_extension("converted.gb2");
    if pmkm_data::convert_bucket(path, &dst, Codec::Raw, 7).is_ok() {
        let back =
            Gb02Reader::open_path(&dst, BackendKind::LocalFile).and_then(|r| r.read_all()).unwrap();
        prop_assert_eq!(&back, bucket);
    }
    Ok(())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn write_u64(bytes: &mut [u8], at: usize, value: u64) {
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

/// Byte offset of a GB02 file's block index, from its footer.
fn index_offset(bytes: &[u8]) -> usize {
    read_u64(bytes, bytes.len() - FOOTER_LEN) as usize
}

/// Recomputes the footer's index checksum so a tampered index field
/// reaches the structural checks instead of failing the checksum.
fn reseal_index(bytes: &mut [u8]) {
    let footer = bytes.len() - FOOTER_LEN;
    let checksum = fnv1a(&bytes[index_offset(bytes)..footer]);
    write_u64(bytes, footer + 16, checksum);
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
    fn gb02_writer_is_split_invariant(
        ds in arb_dataset(),
        splits in proptest::collection::vec(0usize..40, 0..12),
        block_points in 1usize..96,
        codec_pick in 0usize..2,
    ) {
        // Pushing the points in arbitrary slices — empty, ragged, or
        // straddling blocks — writes the same bytes and stats as one call.
        let codec = Codec::ALL[codec_pick];
        let bucket = GridBucket { cell: GridCell::new(3, 4).unwrap(), points: ds };
        let whole = pmkm_data::gb02_to_bytes(&bucket, codec, block_points).unwrap();
        let mut writer = Gb02Writer::new(
            Vec::new(),
            bucket.cell,
            bucket.points.dim(),
            bucket.points.len(),
            codec,
            block_points,
        )
        .unwrap();
        let mut rest = bucket.points.as_flat();
        for split in splits {
            let (head, tail) = rest.split_at(split.min(rest.len()));
            writer.push(head).unwrap();
            rest = tail;
        }
        writer.push(rest).unwrap();
        prop_assert_eq!(writer.finish().unwrap(), whole);
    }

    #[test]
    fn gb02_survives_any_single_field_tamper(
        ds in arb_dataset(),
        block_points in 1usize..24,
        codec_pick in 0usize..2,
        field in 0usize..9,
        block_pick in any::<u32>(),
        value_pick in 0usize..8,
        random in any::<u64>(),
    ) {
        // Changes one index, footer or header field of a valid container,
        // re-sealing the index checksum, so the structural validation is
        // what must catch it: a clean error or the original points, never
        // a panic or an abort.
        prop_assume!(ds.len() > 0);
        let bucket = GridBucket { cell: GridCell::new(0, 0).unwrap(), points: ds };
        let (mut bytes, stats) =
            pmkm_data::gb02_to_bytes(&bucket, Codec::ALL[codec_pick], block_points).unwrap();
        let entry = index_offset(&bytes) + (block_pick as usize % stats.blocks) * INDEX_ENTRY_LEN;
        let footer = bytes.len() - FOOTER_LEN;
        // (byte position, width) of the field: the six u64s and the codec
        // byte of one index entry, then the footer's n_blocks and the
        // header's point count.
        let (at, width) = match field {
            0..=5 => (entry + field * 8, 8),
            6 => (entry + 48, 1),
            7 => (footer + 8, 8),
            _ => (16, 8),
        };
        let mut old = [0u8; 8];
        old[..width].copy_from_slice(&bytes[at..at + width]);
        let old = u64::from_le_bytes(old);
        let value = match value_pick {
            0 => random,
            1 => old.wrapping_add(1 + random % 8),
            2 => old.wrapping_sub(1 + random % 8),
            3 => 0,
            4 => u64::MAX,
            5 => 1 << 40,
            6 => (1 << 61) + 1,
            _ => old.wrapping_mul(2),
        };
        bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
        reseal_index(&mut bytes);
        let path = scratch_file("tamper");
        std::fs::write(&path, &bytes).unwrap();
        read_or_reject(&path, &bucket)?;
    }

    #[test]
    fn gb02_survives_a_self_consistent_point_count(
        ds in arb_dataset(),
        block_points in 1usize..24,
        codec_pick in 0usize..2,
        grow_pick in 0usize..4,
        random in any::<u64>(),
    ) {
        // Grows the last block's point count and moves its `ulen` and the
        // header's count to match (wrapping, as a hostile writer would),
        // then re-seals the index: every field agrees with every other, so
        // only the checked products and the bound on what the stored bytes
        // can decode to stand between the reader and a huge allocation.
        prop_assume!(ds.len() > 0);
        let dim = ds.dim() as u64;
        let bucket = GridBucket { cell: GridCell::new(0, 0).unwrap(), points: ds };
        let (mut bytes, stats) =
            pmkm_data::gb02_to_bytes(&bucket, Codec::ALL[codec_pick], block_points).unwrap();
        let last = index_offset(&bytes) + (stats.blocks - 1) * INDEX_ENTRY_LEN;
        let grow = match grow_pick {
            0 => 1 << 40,
            1 => 1 << 61,
            2 => random,
            _ => 1 + random % 1000,
        };
        let point_count = read_u64(&bytes, last + 40).wrapping_add(grow);
        write_u64(&mut bytes, last + 40, point_count);
        write_u64(&mut bytes, last + 16, point_count.wrapping_mul(dim * 8));
        let count = read_u64(&bytes, 16).wrapping_add(grow);
        write_u64(&mut bytes, 16, count);
        reseal_index(&mut bytes);
        let path = scratch_file("resize");
        std::fs::write(&path, &bytes).unwrap();
        read_or_reject(&path, &bucket)?;
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

/// The two committed GB02 goldens: 30 points × 3 dims in cell 12345,
/// blocks of 8 points (8 + 8 + 8 + 6), one raw, one shuffle-rle.
fn golden_gb02_bucket() -> GridBucket {
    let mut points = Dataset::new(3).unwrap();
    for i in 0..30 {
        let i = f64::from(i);
        points.push(&[100.0 + i * 0.125, -5.0 + (i % 7.0) * 0.5, 1.0e3 - i]).unwrap();
    }
    GridBucket { cell: GridCell::from_index(12345).unwrap(), points }
}

/// GB02 byte compatibility, pinned like GB01's: these files were written
/// by the whole-file writer that predates `Gb02Writer`. They must keep
/// reading, and the streaming writer — one call, point by point, or
/// through a conversion — must reproduce them byte for byte.
#[test]
fn golden_gb02_containers_still_read_and_rewrite_byte_for_byte() {
    let bucket = golden_gb02_bucket();
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (codec, name) in [(Codec::Raw, "gb02_v1_raw.gb2"), (Codec::ShuffleRle, "gb02_v1_rle.gb2")] {
        let path = golden.join(name);
        let bytes = std::fs::read(&path).unwrap();
        for backend in BackendKind::ALL {
            let reader = Gb02Reader::open_path(&path, backend).unwrap();
            assert_eq!(reader.n_blocks(), 4, "{name}");
            assert_eq!(reader.entry(3).point_count, 6, "{name}");
            assert_eq!(reader.read_all().unwrap(), bucket, "{name} via {backend}");
        }

        let (whole, stats) = pmkm_data::gb02_to_bytes(&bucket, codec, 8).unwrap();
        assert_eq!(whole, bytes, "{name}");
        assert_eq!(stats.file_bytes, bytes.len() as u64);

        let mut writer = Gb02Writer::new(Vec::new(), bucket.cell, 3, 30, codec, 8).unwrap();
        for point in bucket.points.iter() {
            writer.push(point).unwrap();
        }
        assert_eq!(writer.finish().unwrap(), (bytes.clone(), stats), "{name}");

        // Converting the golden itself, the same points as GB01, or them
        // in the other codec at 5 points per block lands on the same bytes.
        let gb01 = scratch_file("golden_src").with_extension("gb");
        bucket.write_to(&gb01).unwrap();
        let reblocked = scratch_file("golden_reblocked");
        pmkm_data::write_gb02(&bucket, &reblocked, Codec::ALL[1 - codec.id() as usize], 5).unwrap();
        for src in [&gb01, &reblocked, &path] {
            let dst = scratch_file("golden_dst");
            let (info, converted) = pmkm_data::convert_bucket(src, &dst, codec, 8).unwrap();
            assert_eq!((info.count, converted), (30, stats), "{name} from {}", src.display());
            assert_eq!(std::fs::read(&dst).unwrap(), bytes, "{name} from {}", src.display());
        }
    }
}

/// The shuffle-rle container of one paper-shaped cell (150,000 points ×
/// 6 attributes in blocks of 4,096), pinned by the FNV-1a digest of the
/// file the byte-at-a-time codec wrote for it: the word-at-a-time kernels
/// must write the same bytes on real coordinates, not only on the codec's
/// own test blocks.
#[test]
fn paper_cell_shuffle_rle_container_is_pinned() {
    let points = generate_cell(&CellConfig::paper(150_000, 42)).unwrap();
    let bucket = GridBucket { cell: GridCell::from_index(0).unwrap(), points };
    let path = scratch_file("paper_pin");
    pmkm_data::write_gb02(&bucket, &path, Codec::ShuffleRle, 4096).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!((bytes.len(), fnv1a(&bytes)), (6_371_710, 0xb15f_22f5_0a59_bed9));
    let reader = Gb02Reader::open_path(&path, BackendKind::LocalFile).unwrap();
    assert_eq!(reader.read_all().unwrap(), bucket);
    std::fs::remove_file(path).unwrap();
}

/// Committed hostile files that crashed every reader before their shape
/// was bounded: a 2-byte shuffle-rle block whose index promises 2^40
/// points at dim 6 (an allocation abort), a dim-1 container whose point
/// count 2^61 + 1 wraps `count × dim × 8` to 8 (a capacity-overflow
/// panic), and a bare GB01 header with dim 2^31 (an allocation abort in
/// the streaming reader).
const HOSTILE: [(&str, &[u8]); 3] = [
    ("rle_bomb.gb2", include_bytes!("hostile/rle_bomb.gb2")),
    ("wrapped_count.gb2", include_bytes!("hostile/wrapped_count.gb2")),
    ("huge_dim.gb", include_bytes!("hostile/huge_dim.gb")),
];

#[test]
fn hostile_files_are_format_errors_not_crashes() {
    for (name, bytes) in HOSTILE {
        let path = scratch_file("hostile").with_file_name(name);
        std::fs::write(&path, bytes).unwrap();
        let opened = match pmkm_data::probe(&path).unwrap().format {
            BucketFormat::Gb01 => pmkm_data::BucketReader::open(&path).map(drop),
            BucketFormat::Gb02 => Gb02Reader::open_path(&path, BackendKind::LocalFile).map(drop),
        };
        assert!(matches!(opened, Err(DataError::Format(_))), "{name}: {opened:?}");
        let dst = path.with_extension("out.gb2");
        let converted = pmkm_data::convert_bucket(&path, &dst, Codec::ShuffleRle, 64);
        assert!(matches!(converted, Err(DataError::Format(_))), "{name}: {converted:?}");
        assert!(!dst.exists(), "{name}");
    }
}

/// A streamed GB01 conversion keeps every check of the whole-file read.
#[test]
fn gb01_conversion_rejects_what_the_whole_file_read_rejects() {
    let bucket = golden_gb02_bucket();
    let good = bucket.to_bytes();
    let mut flipped = good.clone();
    *flipped.last_mut().unwrap() ^= 1;
    let mut padded = good.clone();
    padded.extend_from_slice(&[0; 8]);
    let mut empty_bad_checksum =
        GridBucket { cell: bucket.cell, points: Dataset::new(3).unwrap() }.to_bytes();
    empty_bad_checksum[24] ^= 1;
    let cases: [(&str, &[u8]); 4] = [
        ("short", &good[..good.len() - 8]),
        ("trailing", &padded),
        ("checksum", &flipped),
        ("empty-checksum", &empty_bad_checksum),
    ];
    for (name, bytes) in cases {
        let src = scratch_file("gb01_reject").with_file_name(format!("{name}.gb"));
        std::fs::write(&src, bytes).unwrap();
        assert!(GridBucket::from_bytes(bytes).is_err(), "{name}");
        let dst = src.with_extension("gb2");
        let err = pmkm_data::convert_bucket(&src, &dst, Codec::Raw, 8).unwrap_err();
        assert!(
            matches!(err, DataError::Format(_) | DataError::ChecksumMismatch { .. }),
            "{name}: {err:?}"
        );
        assert!(!dst.exists(), "{name}");
        assert!(!dst.with_extension("gb2.tmp").exists(), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // A conversion writes what the writer writes for the same points,
    // whether the source's blocks pass through whole (same block size,
    // short last block included) or are re-blocked.
    #[test]
    fn gb02_conversion_writes_what_the_writer_writes(
        ds in arb_dataset(),
        source_points in 1usize..24,
        block_points in 1usize..24,
        codecs in (0usize..2, 0usize..2),
    ) {
        let (from, to) = (Codec::ALL[codecs.0], Codec::ALL[codecs.1]);
        let bucket = GridBucket { cell: GridCell::new(5, 6).unwrap(), points: ds };
        let src = scratch_file("convert_any");
        pmkm_data::write_gb02(&bucket, &src, from, source_points).unwrap();
        let dst = src.with_extension("out.gb2");
        let (_, stats) = pmkm_data::convert_bucket(&src, &dst, to, block_points).unwrap();
        let whole = pmkm_data::gb02_to_bytes(&bucket, to, block_points).unwrap();
        prop_assert_eq!((std::fs::read(&dst).unwrap(), stats), whole);
    }
}

/// Each `.tmp` file left anywhere under `dir`.
fn tmp_files(dir: &Path) -> Vec<PathBuf> {
    let mut tmp = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            tmp.extend(tmp_files(&path));
        } else if path.extension().is_some_and(|e| e == "tmp") {
            tmp.push(path);
        }
    }
    tmp
}

/// `n` points of `dim` attributes that differ from cell to cell.
fn numbered_bucket(cell: u32, n: usize, dim: usize) -> GridBucket {
    let flat = (0..n * dim).map(|i| f64::from(cell) * 1e3 + (i as f64) * 0.25).collect();
    let points = Dataset::from_flat(dim, flat).unwrap();
    GridBucket { cell: GridCell::from_index(cell).unwrap(), points }
}

/// Writes the fan-out test's inputs into `dir`, each under its own name:
/// a GB01 file, GB02 files in both codecs at 8 points per block (one with a
/// short last block), one at 5 points per block, and one converted in
/// place. Returns the `(src, dst)` pairs, outputs under `dir/out`.
fn mixed_inputs(dir: &Path) -> Vec<(PathBuf, PathBuf)> {
    std::fs::create_dir_all(dir.join("out")).unwrap();
    let out = |name: &str| dir.join("out").join(name).with_extension("gb2");
    let gb01 = dir.join("a.gb");
    numbered_bucket(1, 30, 3).write_to(&gb01).unwrap();
    let mut pairs = vec![(gb01, out("a"))];
    for (name, cell, n, codec, block_points) in [
        ("b", 2, 30, Codec::Raw, 8),
        ("c", 3, 32, Codec::ShuffleRle, 8),
        ("d", 4, 29, Codec::Raw, 5),
        ("e", 5, 27, Codec::ShuffleRle, 8),
    ] {
        let src = dir.join(name).with_extension("gb2");
        pmkm_data::write_gb02(&numbered_bucket(cell, n, 3), &src, codec, block_points).unwrap();
        let dst = if name == "e" { src.clone() } else { out(name) };
        pairs.push((src, dst));
    }
    pmkm_data::check_destinations(&pairs).unwrap();
    pairs
}

/// The fan-out writes every file, and returns every row, that one
/// `convert_bucket` call per input in input order does, at any worker
/// count, with blocks passed through (8 points) and re-blocked (5).
#[test]
fn convert_buckets_matches_the_serial_loop_at_any_worker_count() {
    let root = std::env::temp_dir().join(format!("pmkm_prop_fanout_{}", std::process::id()));
    for codec in Codec::ALL {
        for block_points in [8, 5] {
            let serial_dir = root.join("serial");
            let pairs = mixed_inputs(&serial_dir);
            let rows: Vec<_> = pairs
                .iter()
                .map(|(src, dst)| pmkm_data::convert_bucket(src, dst, codec, block_points).unwrap())
                .collect();
            let files: Vec<Vec<u8>> =
                pairs.iter().map(|(_, d)| std::fs::read(d).unwrap()).collect();
            for workers in [1, 2, 3, 8] {
                let dir = root.join(format!("w{workers}"));
                let pairs = mixed_inputs(&dir);
                let results = pmkm_data::convert_buckets(&pairs, codec, block_points, workers);
                let got: Vec<_> = results.into_iter().map(|r| r.unwrap().unwrap()).collect();
                let tag = format!("{codec} at {block_points} points, {workers} worker(s)");
                assert_eq!(got, rows, "{tag}");
                for ((_, dst), want) in pairs.iter().zip(&files) {
                    assert_eq!(&std::fs::read(dst).unwrap(), want, "{tag}: {}", dst.display());
                }
                assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new(), "{tag}");
                std::fs::remove_dir_all(&dir).unwrap();
            }
            std::fs::remove_dir_all(&serial_dir).unwrap();
        }
    }
}

/// The fan-out's paper-cell round trip: raw to shuffle-rle at 4,096 points
/// per block writes the bytes `paper_cell_shuffle_rle_container_is_pinned`
/// pins, and converting those back to raw gives the source's bytes.
#[test]
fn convert_buckets_round_trips_the_pinned_paper_cell() {
    let points = generate_cell(&CellConfig::paper(150_000, 42)).unwrap();
    let bucket = GridBucket { cell: GridCell::from_index(0).unwrap(), points };
    let raw = scratch_file("paper_fanout_raw");
    pmkm_data::write_gb02(&bucket, &raw, Codec::Raw, 4096).unwrap();
    let packed = raw.with_extension("rle.gb2");
    let back = raw.with_extension("back.gb2");
    for (src, dst, codec) in [(&raw, &packed, Codec::ShuffleRle), (&packed, &back, Codec::Raw)] {
        let pairs = [(src.clone(), dst.clone())];
        let [result] = &pmkm_data::convert_buckets(&pairs, codec, 4096, 2)[..] else {
            panic!("one result per input")
        };
        assert_eq!(result.as_ref().unwrap().as_ref().unwrap().0.count, 150_000);
    }
    let bytes = std::fs::read(&packed).unwrap();
    assert_eq!((bytes.len(), fnv1a(&bytes)), (6_371_710, 0xb15f_22f5_0a59_bed9));
    assert_eq!(std::fs::read(&back).unwrap(), std::fs::read(&raw).unwrap());
    for path in [raw, packed, back] {
        std::fs::remove_file(path).unwrap();
    }
}

/// Eight inputs, the fifth with a corrupt block, on two workers: the fifth
/// slot holds its checksum mismatch and the four before it succeeded; the
/// corrupt input is unchanged, no `.tmp` is left, and each later output
/// either does not exist or is a whole container of its source's points.
#[test]
fn convert_buckets_fails_cleanly_in_the_middle() {
    let dir = std::env::temp_dir().join(format!("pmkm_prop_fanout_fail_{}", std::process::id()));
    std::fs::create_dir_all(dir.join("out")).unwrap();
    let buckets: Vec<GridBucket> = (0..8).map(|c| numbered_bucket(c, 40, 3)).collect();
    let pairs: Vec<(PathBuf, PathBuf)> = (0..8)
        .map(|c| (dir.join(format!("c{c}.gb2")), dir.join("out").join(format!("c{c}.gb2"))))
        .collect();
    for ((src, _), bucket) in pairs.iter().zip(&buckets) {
        pmkm_data::write_gb02(bucket, src, Codec::Raw, 10).unwrap();
    }
    let corrupt = &pairs[4].0;
    let offset = Gb02Reader::open_path(corrupt, BackendKind::LocalFile).unwrap().entry(2).offset;
    let mut bytes = std::fs::read(corrupt).unwrap();
    bytes[offset as usize + 3] ^= 0x10;
    std::fs::write(corrupt, &bytes).unwrap();

    let results = pmkm_data::convert_buckets(&pairs, Codec::ShuffleRle, 10, 2);
    assert_eq!(results.len(), 8);
    for result in &results[..4] {
        assert_eq!(result.as_ref().unwrap().as_ref().unwrap().0.count, 40);
    }
    assert!(
        matches!(results[4], Some(Err(DataError::ChecksumMismatch { .. }))),
        "{:?}",
        results[4]
    );
    assert_eq!(std::fs::read(corrupt).unwrap(), bytes);
    assert!(!pairs[4].1.exists());
    assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
    for ((_, dst), bucket) in pairs.iter().zip(&buckets).skip(5) {
        if dst.exists() {
            let back = Gb02Reader::open_path(dst, BackendKind::LocalFile).unwrap();
            assert_eq!(&back.read_all().unwrap(), bucket, "{}", dst.display());
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// No output may be another input or another input's output; an input
/// converted onto itself is fine. Directories compare canonically.
#[test]
fn colliding_destinations_are_named_before_anything_is_written() {
    let dir = std::env::temp_dir().join(format!("pmkm_prop_collide_{}", std::process::id()));
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    let p = |name: &str| dir.join(name);
    let pair = |src: &str, dst: &str| (p(src), p(dst));
    let check = |pairs: &[(PathBuf, PathBuf)]| pmkm_data::check_destinations(pairs);
    assert!(check(&[pair("x.gb2", "x.gb2"), pair("y.gb", "y.gb2")]).is_ok());
    for (pairs, names) in [
        (vec![pair("x.gb", "x.gb2"), pair("x.gb2", "x.gb2")], ["x.gb", "x.gb2"]),
        (vec![pair("a/x.gb", "out/x.gb2"), pair("b/x.gb", "out/x.gb2")], ["a/x.gb", "b/x.gb"]),
        (vec![pair("y.gb2", "sub/../z.gb2"), pair("z.gb2", "z.gb2")], ["y.gb2", "z.gb2"]),
        (vec![pair("a.gb2", "b.gb2"), pair("b.gb2", "sub/b.gb2")], ["a.gb2", "b.gb2"]),
    ] {
        let err = check(&pairs).unwrap_err().to_string();
        for name in names {
            assert!(err.contains(&p(name).display().to_string()), "{name}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

//! The `pmkm` binary's process contract: exit codes and which stream the
//! text goes to, checked on the real executable. The per-command cases loop
//! over [`pmkm_cli::COMMANDS`], so every command and flag row is covered.

use pmkm_cli::{Kind, COMMANDS};
use std::path::PathBuf;
use std::process::Command;

struct Output {
    code: i32,
    stdout: String,
    stderr: String,
}

fn pmkm<S: AsRef<std::ffi::OsStr>>(args: &[S]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_pmkm")).args(args).output().expect("spawn pmkm");
    Output {
        code: out.status.code().expect("pmkm exits, it is not killed"),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmkm_contract_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn no_arguments_is_misuse_with_usage_on_stderr() {
    let o = pmkm::<&str>(&[]);
    assert_eq!(o.code, 2);
    assert!(o.stdout.is_empty(), "{}", o.stdout);
    assert!(o.stderr.contains("USAGE: pmkm <command>"), "{}", o.stderr);
}

#[test]
fn help_prints_usage_on_stdout() {
    let o = pmkm(&["help"]);
    assert_eq!(o.code, 0);
    assert!(o.stdout.contains("USAGE: pmkm <command>"), "{}", o.stdout);
    assert!(o.stdout.contains("EXIT STATUS"), "{}", o.stdout);
    assert!(o.stderr.is_empty(), "{}", o.stderr);
}

#[test]
fn unknown_command_is_named_on_stderr() {
    let o = pmkm(&["frobnicate"]);
    assert_eq!(o.code, 2);
    assert!(o.stdout.is_empty(), "{}", o.stdout);
    assert!(o.stderr.contains("unknown command 'frobnicate'"), "{}", o.stderr);
}

/// The flags were removed, not turned into ignored no-ops.
#[test]
fn cluster_rejects_the_retired_adaptive_flag() {
    for flag in ["--adaptive", "--incremental"] {
        let o = pmkm(&["cluster", flag, "x.gb"]);
        assert_eq!(o.code, 2, "{flag}");
        assert!(o.stderr.contains(&format!("unknown option {flag}")), "{}", o.stderr);
    }
}

#[test]
fn diff_exits_3_on_a_detected_regression() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.github/golden");
    let o = pmkm(&[
        "diff",
        &format!("{golden}/regression_fast.jsonl"),
        &format!("{golden}/regression_slow.jsonl"),
    ]);
    assert_eq!(o.code, 3, "{}", o.stderr);
    assert!(o.stdout.contains("REGRESSION"), "{}", o.stdout);
    assert!(o.stderr.contains("pmkm diff: regression"), "{}", o.stderr);
}

/// Every command, every row: help on stdout, misuse exits 2 with the
/// command's synopsis on stderr, and a missing input is a run failure.
#[test]
fn every_command_keeps_the_contract() {
    let missing =
        std::env::temp_dir().join(format!("pmkm_contract_{}_none.gb", std::process::id()));
    let missing = missing.to_str().unwrap();
    for cmd in COMMANDS {
        let (name, synopsis) = (cmd.name, cmd.synopsis());
        let o = pmkm(&[name, "--help"]);
        assert_eq!(o.code, 0, "{name} --help: {}", o.stderr);
        assert!(o.stdout.contains(&synopsis), "{name} --help: {}", o.stdout);
        assert!(o.stderr.is_empty(), "{name} --help: {}", o.stderr);

        let o = pmkm(&[name, "--bogus"]);
        assert_eq!(o.code, 2, "{name} --bogus");
        assert!(o.stderr.contains("unknown option --bogus"), "{name}: {}", o.stderr);
        assert!(o.stderr.contains(&synopsis), "{name}: {}", o.stderr);

        if cmd.arity.0 > 0 {
            let o = pmkm(&[name]);
            assert_eq!(o.code, 2, "{name} without operands");
            assert!(o.stdout.is_empty(), "{name}: {}", o.stdout);
            assert!(o.stderr.contains(&synopsis), "{name}: {}", o.stderr);

            let mut argv = vec![name];
            argv.extend(std::iter::repeat_n(missing, cmd.arity.0));
            let o = pmkm(&argv);
            assert_eq!(o.code, 1, "{name} on a missing input: {}", o.stderr);
        }

        for row in cmd.rows() {
            let misuse = match row.kind {
                Kind::Switch => format!("--{}=x", row.name),
                Kind::Value(_) | Kind::Repeated(_) => format!("--{}", row.name),
            };
            let o = pmkm(&[name, &misuse]);
            assert_eq!(o.code, 2, "{name} {misuse}");
            assert!(o.stderr.contains(&format!("write {}", row.form())), "{}", o.stderr);
        }
    }
}

/// `bin`, `compress` and `convert` create their `--out` directory only once
/// an input has been read: a run that fails on a missing input leaves none
/// behind.
#[test]
fn a_failed_read_leaves_no_out_directory() {
    let dir = scratch_dir("no_out");
    let missing = dir.join("none.gb").display().to_string();
    for cmd in ["bin", "compress", "convert"] {
        let out_dir = dir.join(cmd).join("x");
        let o = pmkm(&[cmd, &format!("--out={}", out_dir.display()), &missing]);
        assert_eq!(o.code, 1, "{cmd}: {}", o.stderr);
        assert!(!out_dir.exists(), "{cmd} left {}", out_dir.display());
        assert!(!dir.join(cmd).exists(), "{cmd} left the parent of --out");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Command lines the parser used to accept while ignoring part of them.
#[test]
fn misuse_that_used_to_run_is_a_usage_error() {
    let dir = scratch_dir("misuse");
    let (stripes, buckets) = (dir.join("stripes"), dir.join("buckets"));
    let gen = pmkm(&[
        "generate",
        &format!("--out={}", stripes.display()),
        "--orbits=1",
        "--dim=2",
        "--lat=1",
        "--samples=8",
    ]);
    assert_eq!(gen.code, 0, "{}", gen.stderr);
    let mut argv = vec!["bin".to_string(), format!("--out={}", buckets.display())];
    for entry in std::fs::read_dir(&stripes).unwrap() {
        argv.push(entry.unwrap().path().display().to_string());
    }
    assert_eq!(pmkm(&argv).code, 0);
    let mut files: Vec<PathBuf> =
        std::fs::read_dir(&buckets).unwrap().map(|e| e.unwrap().path()).collect();
    files.sort_by_key(|p| std::cmp::Reverse(std::fs::metadata(p).unwrap().len()));
    let bucket = files[0].to_str().unwrap();

    for (argv, flag) in [
        (vec!["orchestrate", "--resume=yes", bucket], "--resume"),
        (vec!["cluster", "--tolerant=yes", bucket], "--tolerant"),
        (vec!["cluster", "--k", bucket], "--k"),
        (vec!["cluster", "--splits=2", "--memory=1", bucket], "--memory"),
    ] {
        let o = pmkm(&argv);
        assert_eq!(o.code, 2, "{argv:?}: {}", o.stdout);
        assert!(o.stderr.contains(flag), "{argv:?}: {}", o.stderr);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Hostile containers that used to abort (exit 134) or panic (exit 101)
/// are run failures with a format error on every command that reads them.
#[test]
fn hostile_buckets_are_format_errors_on_every_reader() {
    let hostile = concat!(env!("CARGO_MANIFEST_DIR"), "/../data/tests/hostile");
    let out = scratch_dir("hostile");
    let out_flag = format!("--out={}", out.display());
    for name in ["rle_bomb.gb2", "wrapped_count.gb2", "huge_dim.gb"] {
        let file = format!("{hostile}/{name}");
        for argv in [
            vec!["inspect", &file],
            vec!["convert", &out_flag, &file],
            vec!["cluster", "--k=2", &file],
        ] {
            let o = pmkm(&argv);
            assert_eq!(o.code, 1, "{argv:?}: {}", o.stderr);
            assert!(o.stderr.contains("file format error"), "{argv:?}: {}", o.stderr);
        }
    }
    assert_eq!(std::fs::read_dir(&out).unwrap().count(), 0, "convert left files behind");
    std::fs::remove_dir_all(&out).ok();
}

fn five_block_bucket() -> pmkm_data::GridBucket {
    let mut points = pmkm_core::Dataset::new(2).unwrap();
    for i in 0..50 {
        points.push(&[f64::from(i) * 0.5, 10.0 - f64::from(i)]).unwrap();
    }
    pmkm_data::GridBucket { cell: pmkm_data::GridCell::new(1, 2).unwrap(), points }
}

fn tmp_files(dir: &std::path::Path) -> Vec<PathBuf> {
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

/// A conversion that meets a corrupt block fails without touching its
/// input, even in place, and leaves no temporary file.
#[test]
fn convert_in_place_of_a_corrupt_container_changes_nothing() {
    let dir = scratch_dir("corrupt_convert");
    let path = dir.join("cell.gb2");
    let bucket = five_block_bucket();
    pmkm_data::write_gb02(&bucket, &path, pmkm_data::Codec::Raw, 10).unwrap();
    let reader =
        pmkm_data::Gb02Reader::open_path(&path, pmkm_data::BackendKind::LocalFile).unwrap();
    assert_eq!(reader.n_blocks(), 5);
    let block3 = reader.entry(3).offset as usize;
    drop(reader);
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[block3 + 5] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let file = path.to_str().unwrap();
    for codec in ["--codec=shuffle-rle", "--codec=raw"] {
        let o = pmkm(&["convert", codec, file]);
        assert_eq!(o.code, 1, "{codec}: {}", o.stdout);
        assert!(o.stderr.contains("checksum mismatch"), "{codec}: {}", o.stderr);
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "{codec}: input changed");
        assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new(), "{codec}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Converting a container over itself writes what converting it into
/// another directory writes, leg after leg.
#[test]
fn convert_in_place_equals_convert_to_another_directory() {
    let dir = scratch_dir("in_place");
    let (in_place, elsewhere) = (dir.join("in_place"), dir.join("elsewhere"));
    std::fs::create_dir_all(&in_place).unwrap();
    let file = in_place.join("cell.gb2");
    pmkm_data::write_gb02(&five_block_bucket(), &file, pmkm_data::Codec::Raw, 10).unwrap();
    let original = std::fs::read(&file).unwrap();
    let copy = dir.join("cell.gb2");
    std::fs::write(&copy, &original).unwrap();
    let out_flag = format!("--out={}", elsewhere.display());

    for (codec, block_points) in [("shuffle-rle", "7"), ("raw", "10")] {
        let flags = [format!("--codec={codec}"), format!("--block-points={block_points}")];
        let o = pmkm(&["convert", &flags[0], &flags[1], file.to_str().unwrap()]);
        assert_eq!(o.code, 0, "{}", o.stderr);
        let o = pmkm(&["convert", &flags[0], &flags[1], &out_flag, copy.to_str().unwrap()]);
        assert_eq!(o.code, 0, "{}", o.stderr);
        let moved = elsewhere.join("cell.gb2");
        assert_eq!(std::fs::read(&file).unwrap(), std::fs::read(&moved).unwrap(), "{codec}");
        std::fs::rename(&moved, &copy).unwrap();
    }
    // raw at 10 points per block is where the round trip started.
    assert_eq!(std::fs::read(&file).unwrap(), original);
    assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
    std::fs::remove_dir_all(&dir).ok();
}

/// An output that is another input, or another input's output, is a run
/// failure that names both operands before any file is written.
#[test]
fn colliding_convert_destinations_write_nothing() {
    let dir = scratch_dir("collide");
    for sub in ["a", "b", "out"] {
        std::fs::create_dir_all(dir.join(sub)).unwrap();
    }
    let bucket = five_block_bucket();
    let (gb01, gb02) = (dir.join("x.gb"), dir.join("x.gb2"));
    bucket.write_to(&gb01).unwrap();
    pmkm_data::write_gb02(&bucket, &gb02, pmkm_data::Codec::Raw, 10).unwrap();
    for sub in ["a", "b"] {
        bucket.write_to(&dir.join(sub).join("x.gb")).unwrap();
    }
    let listing = |dir: &std::path::Path| {
        let mut files = walk(dir);
        files.sort();
        files
    };
    let before = listing(&dir);
    let out_flag = format!("--out={}", dir.join("out").display());
    let s = |p: PathBuf| p.to_str().unwrap().to_string();
    for argv in [
        vec!["convert".to_string(), s(gb01.clone()), s(gb02.clone())],
        vec!["convert".to_string(), out_flag, s(dir.join("a/x.gb")), s(dir.join("b/x.gb"))],
        vec!["convert".to_string(), s(gb02.clone()), s(gb02.clone())],
    ] {
        let o = pmkm(&argv);
        assert_eq!(o.code, 1, "{argv:?}: {}", o.stderr);
        assert!(o.stdout.is_empty(), "{argv:?}: {}", o.stdout);
        for operand in argv.iter().skip(1).filter(|a| !a.starts_with("--")) {
            assert!(o.stderr.contains(operand.as_str()), "{argv:?}: {}", o.stderr);
        }
        assert_eq!(listing(&dir), before, "{argv:?} wrote a file");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file under `dir` with its bytes.
fn walk(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            files.extend(walk(&path));
        } else {
            files.push((path.clone(), std::fs::read(&path).unwrap()));
        }
    }
    files
}

/// A corrupt fifth input of eight, on however many cores: the four rows
/// before it are printed in input order, the run fails with the checksum
/// mismatch, the input is unchanged and no `.tmp` is left.
#[test]
fn convert_reports_the_rows_before_a_corrupt_input_in_order() {
    let dir = scratch_dir("fail_mid");
    let out = dir.join("out");
    let inputs: Vec<PathBuf> = (0..8).map(|c| dir.join(format!("c{c}.gb2"))).collect();
    for path in &inputs {
        pmkm_data::write_gb02(&five_block_bucket(), path, pmkm_data::Codec::Raw, 10).unwrap();
    }
    let reader =
        pmkm_data::Gb02Reader::open_path(&inputs[4], pmkm_data::BackendKind::LocalFile).unwrap();
    let block2 = reader.entry(2).offset as usize;
    drop(reader);
    let mut bytes = std::fs::read(&inputs[4]).unwrap();
    bytes[block2 + 1] ^= 0x04;
    std::fs::write(&inputs[4], &bytes).unwrap();

    let mut argv = vec![format!("--out={}", out.display())];
    argv.extend(inputs.iter().map(|p| p.to_str().unwrap().to_string()));
    argv.insert(0, "convert".to_string());
    let o = pmkm(&argv);
    assert_eq!(o.code, 1, "{}", o.stdout);
    assert!(o.stderr.contains("checksum mismatch"), "{}", o.stderr);
    assert!(o.stderr.contains(inputs[4].to_str().unwrap()), "{}", o.stderr);
    let sources: Vec<&str> = o.stdout.lines().map(|l| l.split(": ").next().unwrap()).collect();
    let first_four: Vec<&str> = inputs[..4].iter().map(|p| p.to_str().unwrap()).collect();
    assert_eq!(sources, first_four);
    assert_eq!(std::fs::read(&inputs[4]).unwrap(), bytes);
    assert_eq!(tmp_files(&dir), Vec::<PathBuf>::new());
    std::fs::remove_dir_all(&dir).ok();
}

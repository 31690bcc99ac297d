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

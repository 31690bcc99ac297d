//! The `pmkm` binary's process contract: exit codes and which stream the
//! text goes to, checked on the real executable.

use std::process::Command;

struct Output {
    code: i32,
    stdout: String,
    stderr: String,
}

fn pmkm(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_pmkm")).args(args).output().expect("spawn pmkm");
    Output {
        code: out.status.code().expect("pmkm exits, it is not killed"),
        stdout: String::from_utf8(out.stdout).expect("utf-8 stdout"),
        stderr: String::from_utf8(out.stderr).expect("utf-8 stderr"),
    }
}

#[test]
fn no_arguments_is_misuse_with_usage_on_stderr() {
    let o = pmkm(&[]);
    assert_eq!(o.code, 2);
    assert!(o.stdout.is_empty(), "{}", o.stdout);
    assert!(o.stderr.contains("USAGE: pmkm <command>"), "{}", o.stderr);
}

#[test]
fn help_prints_usage_on_stdout() {
    let o = pmkm(&["help"]);
    assert_eq!(o.code, 0);
    assert!(o.stdout.contains("USAGE: pmkm <command>"), "{}", o.stdout);
    assert!(o.stderr.is_empty(), "{}", o.stderr);
}

#[test]
fn unknown_command_is_named_on_stderr() {
    let o = pmkm(&["frobnicate"]);
    assert_eq!(o.code, 1);
    assert!(o.stdout.is_empty(), "{}", o.stdout);
    assert!(o.stderr.contains("unknown command 'frobnicate'"), "{}", o.stderr);
}

/// The flags were removed, not turned into ignored no-ops.
#[test]
fn cluster_rejects_the_retired_adaptive_flag() {
    for flag in ["--adaptive", "--incremental"] {
        let o = pmkm(&["cluster", flag, "x.gb"]);
        assert_eq!(o.code, 1, "{flag}");
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

//! Runs the `pmkm` CLI as a child process and measures it from outside:
//! wall time from spawn to exit, and CPU time and peak resident set from
//! the child's own `rusage`.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one finished child run cost and printed.
#[derive(Debug, Clone)]
pub struct ChildRun {
    pub wall_s: f64,
    /// User + system CPU seconds of the child.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
    pub exit_ok: bool,
    pub stdout: String,
}

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn seconds(&self) -> f64 {
        self.sec as f64 + self.usec as f64 * 1e-6
    }
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which only the first (`ru_maxrss`, in KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    // std links libc on every unix target; this is the one symbol the
    // harness needs from it that std does not expose.
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Spawns `program args…` with stdout and stderr redirected to files under
/// `log_dir`, waits for it, and returns its cost. The child's stderr is
/// echoed to ours when it fails.
pub fn run(program: &Path, args: &[String], log_dir: &Path, tag: &str) -> Result<ChildRun, String> {
    let stdout_path = log_dir.join(format!("{tag}.stdout"));
    let stderr_path = log_dir.join(format!("{tag}.stderr"));
    let create = |p: &PathBuf| File::create(p).map_err(|e| format!("{}: {e}", p.display()));
    let (out, err) = (create(&stdout_path)?, create(&stderr_path)?);

    let started = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::from(out))
        .stderr(Stdio::from(err))
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    let pid = i32::try_from(child.id()).map_err(|e| format!("child pid: {e}"))?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable and laid out as the
    // kernel's `int` and 64-bit `struct rusage`; `pid` is our own un-reaped
    // child, so wait4 blocks until it exits and reaps exactly it. `child`
    // is never waited on through std afterwards (dropping it does not wait).
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = started.elapsed().as_secs_f64();
    drop(child);
    if reaped != pid {
        return Err(format!("wait4({pid}) returned {reaped}"));
    }

    // WIFEXITED && WEXITSTATUS == 0 is a zero status word.
    let exit_ok = status == 0;
    let stdout = std::fs::read_to_string(&stdout_path).map_err(|e| e.to_string())?;
    if !exit_ok {
        let stderr = std::fs::read_to_string(&stderr_path).unwrap_or_default();
        eprintln!("[{tag}] child failed (status word {status:#x}): {}", stderr.trim_end());
    }
    Ok(ChildRun {
        wall_s,
        cpu_s: usage.utime.seconds() + usage.stime.seconds(),
        peak_rss_mb: usage.maxrss_kib as f64 / 1024.0,
        exit_ok,
        stdout,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_real_child() {
        // Beside the test executable, i.e. inside the target directory.
        let exe = std::env::current_exe().unwrap();
        let dir = exe.parent().unwrap().join(format!("child_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run = super::run(Path::new("/bin/sh"), &["-c".into(), "echo hello".into()], &dir, "ok")
            .unwrap();
        assert!(run.exit_ok);
        assert_eq!(run.stdout, "hello\n");
        assert!(run.wall_s > 0.0 && run.peak_rss_mb > 0.0 && run.cpu_s >= 0.0);
        let run =
            super::run(Path::new("/bin/sh"), &["-c".into(), "exit 3".into()], &dir, "bad").unwrap();
        assert!(!run.exit_ok);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! Storage backends for bucket scans.
//!
//! The paper assumes grid buckets are "directly used as data input" from
//! disk; production deployments put them behind whatever storage is at
//! hand. [`ScanBackend`] abstracts ranged reads so the container reader is
//! byte-source agnostic:
//!
//! * [`FileBackend`] — positional reads against a local file (the classic
//!   path, now block-aware).
//! * [`MmapBackend`] — the whole file mapped read-only; `map_range` hands
//!   out borrowed slices so raw-codec blocks decode straight from the page
//!   cache with no intermediate payload buffer.
//! * [`SimObjectStore`] — a local file dressed up as an object store:
//!   every read is a ranged GET with injected per-GET latency and
//!   an optional deterministic fault hook, so the chaos suite can exercise
//!   flaky remote storage without a network.
//!
//! Backends return `std::io::Result`; the container layer converts to
//! [`crate::DataError`] with context.

use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which backend a scan should use. The plan-level knob; stable labels are
/// part of the CLI surface and the plan fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Buffered/positional local-file reads.
    #[default]
    LocalFile,
    /// Read-only memory map (zero-copy for raw-codec blocks).
    Mmap,
    /// Simulated object store: ranged GETs + injected latency/flakiness.
    SimObjectStore,
}

impl BackendKind {
    /// Stable CLI/metrics label.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::LocalFile => "local-file",
            BackendKind::Mmap => "mmap",
            BackendKind::SimObjectStore => "sim-object-store",
        }
    }

    /// Parses a CLI label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "local-file" | "local_file" | "file" => Some(BackendKind::LocalFile),
            "mmap" => Some(BackendKind::Mmap),
            "sim-object-store" | "sim_object_store" | "object-store" | "sim" => {
                Some(BackendKind::SimObjectStore)
            }
            _ => None,
        }
    }

    /// Every backend, for exhaustive tests and bench sweeps.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::LocalFile, BackendKind::Mmap, BackendKind::SimObjectStore];
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Deterministic per-GET fault hook: called with the zero-based GET
/// ordinal before the read executes; returning `true` fails that GET.
/// The stream layer wires this to its seeded `FaultPlan` rolls so
/// object-store flakiness replays exactly under a fixed seed.
pub type GetFaultHook = Arc<dyn Fn(u64) -> bool + Send + Sync>;

/// A byte source supporting ranged reads.
pub trait ScanBackend: Send + Sync {
    /// Total length of the object in bytes.
    fn len(&self) -> u64;

    /// True when the object is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fills `buf` with the `buf.len()` bytes starting at `offset`.
    fn read_into(&self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Reads exactly `len` bytes starting at `offset` into a fresh buffer.
    fn read_range(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut buf = vec![0; len];
        self.read_into(offset, &mut buf)?;
        Ok(buf)
    }

    /// Borrowed view of a range when the backend can serve one without a
    /// copy (mmap); `None` means callers must read a copy with
    /// [`read_into`].
    ///
    /// [`read_into`]: ScanBackend::read_into
    fn map_range(&self, _offset: u64, _len: usize) -> Option<&[u8]> {
        None
    }

    /// The backend's [`BackendKind`] label, for metrics and errors.
    fn kind(&self) -> BackendKind;
}

// Shared handles delegate, so one backend (and its GET accounting) can
// serve several readers — e.g. retried opens and prefetch threads.
impl ScanBackend for Arc<dyn ScanBackend> {
    fn len(&self) -> u64 {
        (**self).len()
    }

    fn read_into(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        (**self).read_into(offset, buf)
    }

    fn map_range(&self, offset: u64, len: usize) -> Option<&[u8]> {
        (**self).map_range(offset, len)
    }

    fn kind(&self) -> BackendKind {
        (**self).kind()
    }
}

fn range_err(offset: u64, len: usize, total: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("range [{offset}, +{len}) outside object of {total} bytes"),
    )
}

/// Positional reads against a local file.
pub struct FileBackend {
    file: File,
    len: u64,
}

impl FileBackend {
    /// Opens `path` for ranged reads.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(Self { file, len })
    }
}

impl ScanBackend for FileBackend {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_into(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        if offset.checked_add(buf.len() as u64).is_none_or(|end| end > self.len) {
            return Err(range_err(offset, buf.len(), self.len));
        }
        read_exact_at(&self.file, buf, offset)
    }

    fn kind(&self) -> BackendKind {
        BackendKind::LocalFile
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    // Non-unix fallback: clone the handle so the shared cursor is private.
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// The whole file mapped read-only.
pub struct MmapBackend {
    map: memmap2::Mmap,
}

impl MmapBackend {
    /// Maps `path` in its entirety.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        // Contract (documented by the shim): the bucket file must not be
        // truncated or rewritten while mapped. Bucket files are write-once
        // in this system.
        let map = memmap2::Mmap::map_readonly(&file)?;
        Ok(Self { map })
    }

    /// True when the OS mapping succeeded (vs the owned-buffer fallback).
    pub fn is_zero_copy(&self) -> bool {
        self.map.is_zero_copy()
    }
}

impl ScanBackend for MmapBackend {
    fn len(&self) -> u64 {
        self.map.len() as u64
    }

    fn read_into(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let range = self.map_range(offset, buf.len());
        buf.copy_from_slice(range.ok_or_else(|| range_err(offset, buf.len(), self.len()))?);
        Ok(())
    }

    fn map_range(&self, offset: u64, len: usize) -> Option<&[u8]> {
        let start = usize::try_from(offset).ok()?;
        self.map.get(start..start.checked_add(len)?)
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Mmap
    }
}

/// A local file pretending to be a remote object store: every read is a
/// ranged GET with simulated latency and optional injected failures.
pub struct SimObjectStore {
    inner: FileBackend,
    /// Busy-wait-free sleep added to every GET, in microseconds.
    latency_us: u64,
    /// Zero-based ordinal of the next GET (shared across threads so the
    /// fault hook sees a stable global sequence per bucket).
    gets: AtomicU64,
    fault_hook: Option<GetFaultHook>,
}

impl SimObjectStore {
    /// Opens `path` with `latency_us` of injected latency per GET.
    pub fn open(path: &Path, latency_us: u64) -> io::Result<Self> {
        Ok(Self {
            inner: FileBackend::open(path)?,
            latency_us,
            gets: AtomicU64::new(0),
            fault_hook: None,
        })
    }

    /// Installs a deterministic per-GET fault hook.
    pub fn with_fault_hook(mut self, hook: GetFaultHook) -> Self {
        self.fault_hook = Some(hook);
        self
    }

    /// GETs issued so far.
    pub fn gets_issued(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }
}

impl ScanBackend for SimObjectStore {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_into(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let ordinal = self.gets.fetch_add(1, Ordering::Relaxed);
        if self.latency_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.latency_us));
        }
        if let Some(hook) = &self.fault_hook {
            if hook(ordinal) {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    format!("injected object-store fault on GET #{ordinal}"),
                ));
            }
        }
        self.inner.read_into(offset, buf)
    }

    fn kind(&self) -> BackendKind {
        BackendKind::SimObjectStore
    }
}

/// Opens `path` through the requested backend with default parameters
/// (sim-object-store gets zero injected latency and no fault hook; use
/// [`SimObjectStore::open`] directly to configure those).
pub fn open_backend(path: &Path, kind: BackendKind) -> io::Result<Box<dyn ScanBackend>> {
    Ok(match kind {
        BackendKind::LocalFile => Box::new(FileBackend::open(path)?),
        BackendKind::Mmap => Box::new(MmapBackend::open(path)?),
        BackendKind::SimObjectStore => Box::new(SimObjectStore::open(path, 0)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str, bytes: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("pmkm_backend_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}", std::process::id()));
        let mut f = File::create(&path).unwrap();
        f.write_all(bytes).unwrap();
        path
    }

    #[test]
    fn all_backends_serve_identical_ranges() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let path = tmp("ranges", &payload);
        for kind in BackendKind::ALL {
            let b = open_backend(&path, kind).unwrap();
            assert_eq!(b.len(), payload.len() as u64, "{kind}");
            assert_eq!(b.read_range(0, 16).unwrap(), &payload[..16], "{kind}");
            assert_eq!(b.read_range(1000, 96).unwrap(), &payload[1000..1096], "{kind}");
            assert_eq!(
                b.read_range(payload.len() as u64 - 1, 1).unwrap(),
                &payload[payload.len() - 1..],
                "{kind}"
            );
            assert!(b.read_range(payload.len() as u64 - 1, 2).is_err(), "{kind}");
            assert!(b.read_range(u64::MAX, 8).is_err(), "{kind}");
        }
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn mmap_serves_borrowed_slices() {
        let payload = vec![9u8; 1024];
        let path = tmp("mmap", &payload);
        let b = MmapBackend::open(&path).unwrap();
        let slice = b.map_range(100, 32).unwrap();
        assert_eq!(slice, &payload[100..132]);
        assert!(b.map_range(1020, 8).is_none());
        // File backend never serves borrowed ranges.
        let f = FileBackend::open(&path).unwrap();
        assert!(f.map_range(0, 8).is_none());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn sim_object_store_injects_faults_deterministically() {
        let payload = vec![1u8; 256];
        let path = tmp("faulty", &payload);
        let store = SimObjectStore::open(&path, 0)
            .unwrap()
            .with_fault_hook(Arc::new(|ordinal| ordinal % 3 == 1));
        assert!(store.read_range(0, 8).is_ok()); // GET #0
        assert!(store.read_range(0, 8).is_err()); // GET #1 injected
        assert!(store.read_range(0, 8).is_ok()); // GET #2
        assert_eq!(store.gets_issued(), 3);
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn backend_labels_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.label()), Some(kind));
        }
        assert_eq!(BackendKind::parse("file"), Some(BackendKind::LocalFile));
        assert_eq!(BackendKind::parse("nope"), None);
    }
}

//! The resource model the optimizer plans against.

/// Available computing resources: the paper's two bottleneck axes, volatile
/// memory for operator state and processors for operator clones (§3.2, §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resources {
    /// Volatile memory available to one partial operator's state — a chunk
    /// must fit here (§3.2: partitions "can be stored into available
    /// volatile memory (physical memory, not virtual memory)").
    pub chunk_memory_bytes: usize,
    /// Worker threads available for operator clones ("machines" in the
    /// paper's network-of-PCs deployment).
    pub workers: usize,
}

impl Resources {
    /// Detects host parallelism and pairs it with a default 32 MiB chunk
    /// budget (≈ 700k 6-dim points — a comfortable laptop-scale default).
    pub fn detect() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self { chunk_memory_bytes: 32 << 20, workers }
    }

    /// A fixed, test-friendly resource set.
    pub fn fixed(chunk_memory_bytes: usize, workers: usize) -> Self {
        Self { chunk_memory_bytes, workers: workers.max(1) }
    }
}

impl Default for Resources {
    fn default() -> Self {
        Self::detect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_reports_at_least_one_worker() {
        let r = Resources::detect();
        assert!(r.workers >= 1);
        assert!(r.chunk_memory_bytes > 0);
    }

    #[test]
    fn fixed_clamps_workers() {
        assert_eq!(Resources::fixed(1024, 0).workers, 1);
        assert_eq!(Resources::fixed(1024, 7).workers, 7);
    }
}

//! Host facts recorded with every result row, and the benchmark's scratch
//! space.
//!
//! All scratch files live under [`SCRATCH_ROOT`], relative to the working
//! directory (the repository checkout); the root `.gitignore` names it, so
//! a run leaves `git status` clean and never touches `results/`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Scratch root for caches, rendered outputs, span dumps and count records.
pub const SCRATCH_ROOT: &str = ".bench_build/perfbench";

/// `{os}-{nproc}cpu`, the key every result row carries.
pub fn host_fingerprint() -> String {
    format!("{}-{}cpu", std::env::consts::OS, available_cpus())
}

/// CPUs this process may run on.
pub fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker count of every workload: `min(2, nproc)`.
pub fn workers() -> usize {
    available_cpus().min(2)
}

/// The checked-out commit, read from `.git` without running git, or
/// `"unknown"` (a source export has no `.git`).
pub fn commit() -> String {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    read(Path::new(".git/packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (id, name) = line.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64 digest of this executable: identifies the build whose
/// deterministic counts are compared across runs.
pub fn exe_digest() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    format!("{:016x}", kelp::runner::fnv1a64(&bytes))
}

/// A fresh directory under [`SCRATCH_ROOT`], removed on drop.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `SCRATCH_ROOT/tmp-<pid>-<n>-<label>`.
    pub fn new(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(SCRATCH_ROOT).join(format!("tmp-{}-{n}-{label}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

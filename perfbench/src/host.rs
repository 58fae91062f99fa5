//! Host and provenance block carried by every benchmark output.

use crate::report::Json;

/// CPUs the process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// ISA features the kernels dispatch on.
pub fn isa_flags() -> Vec<&'static str> {
    let mut flags = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            flags.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            flags.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            flags.push("avx512f");
        }
    }
    flags
}

/// Process high-water resident set size, MiB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the process high-water RSS to the current RSS (writes `5` to
/// `/proc/self/clear_refs`), so a later [`peak_rss_mb`] covers only what
/// ran after it. Freed heap is handed back to the kernel first, so memory
/// the caller already dropped does not count. `false` when the kernel
/// refused the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cumulative `(steal, total)` CPU jiffies from `/proc/stat`, if readable.
/// On a virtual machine, steal is time the host ran something else while
/// this guest had work: it inflates every wall-clock metric.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time stolen by the host between two [`cpu_jiffies`]
/// readings.
pub fn steal_share(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (start?, end?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// Provenance fields supplied by the launcher (`run.py`): toolchain,
/// source revision and the workload reasons from `BENCHMARK.json`.
#[derive(Clone, Debug, Default)]
pub struct Provenance {
    /// `rustc --version` output.
    pub rustc: String,
    /// Git revision, or a digest of the source tree outside git.
    pub revision: String,
    /// `{"workload": "why", ...}` as JSON text.
    pub reasons_json: String,
}

impl Provenance {
    /// Reads the launcher's environment variables.
    pub fn from_env() -> Self {
        let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Self {
            rustc: var("PERFBENCH_RUSTC"),
            revision: var("PERFBENCH_REVISION"),
            reasons_json: std::env::var("PERFBENCH_REASONS").unwrap_or_else(|_| "{}".into()),
        }
    }

    /// The host + provenance block.
    pub fn json(
        &self,
        workload: &str,
        seed: u64,
        threads: usize,
        trace: bool,
        steal: Option<f64>,
    ) -> Json {
        Json::obj([
            ("cpu_steal_share", steal.map_or(Json::Null, Json::Num)),
            ("nproc", Json::Int(nproc() as i64)),
            (
                "isa",
                Json::Arr(isa_flags().into_iter().map(Json::str).collect()),
            ),
            ("rustc", Json::str(&self.rustc)),
            ("revision", Json::str(&self.revision)),
            ("thread_budget", Json::Int(threads as i64)),
            ("workload", Json::str(workload)),
            ("seed", Json::Int(seed as i64)),
            ("trace", Json::Bool(trace)),
            ("workload_reasons", Json::Raw(self.reasons_json.clone())),
        ])
    }
}

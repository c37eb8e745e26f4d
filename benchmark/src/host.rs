//! What the host contributes to a result: memory high-water mark,
//! thread count, a fixed calibration loop, and build provenance.

use std::hint::black_box;
use std::time::Instant;

/// Parses the `VmHWM` line of `/proc/<pid>/status` into MiB.
pub fn parse_vm_hwm(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    parse_vm_hwm(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Hardware threads the process may use.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds a fixed single-thread floating-point loop takes. Timed before
/// and after the measured ops: a drift means the host changed speed
/// under the run, not the program.
pub fn calibrate() -> f64 {
    let t0 = Instant::now();
    let mut x = 1.000_000_1f64;
    let mut acc = 0.0f64;
    for i in 0..40_000_000u64 {
        x = x * 1.000_000_01 + 1e-12;
        acc += x * (i & 7) as f64;
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// without starting a process; `unknown` outside a git checkout.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None => head,
    }
}

/// The compiler that built this binary (captured by `build.rs`).
pub fn rustc() -> &'static str {
    env!("E2E_RUSTC_VERSION")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_reader() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(200.0));
        assert_eq!(parse_vm_hwm("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tmany kB\n"), None);
        assert!(peak_rss_mib().expect("procfs on linux") > 0.0);
    }
}

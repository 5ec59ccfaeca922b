//! Host fingerprint and process memory, read from `/proc` and the checkout.

use std::path::Path;

/// One line naming what the figures were measured on: CPU model, usable
/// cores, the SIMD kernel path the engine dispatched to, whether hardware
/// counters can be opened, and the source revision.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "host: cpu={cpu:?} nproc={nproc} simd={} pmu={} rev={}",
        joinstudy_core::simd::active().name(),
        if joinstudy_exec::pmu::probe() {
            "available"
        } else {
            "unavailable"
        },
        git_rev(Path::new(".git")),
    )
}

/// The commit the checkout is at, read from `.git` without running git;
/// `unknown` when the checkout is not a git repository.
fn git_rev(git: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(name)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

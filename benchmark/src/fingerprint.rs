//! Where and how a result was measured. Every output carries this, and
//! `--compare` refuses two files whose host or build differ.

use crate::json::Value;

/// Cargo features the product crates are built with (fixed by this
/// package's `Cargo.toml`; `simd` is `ides-linalg`'s default).
pub const FEATURES: &str = "parallel,simd";

/// Load threads never exceed this.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `L1d=96K L2=4096K ...` from cpu0's sysfs cache directory.
fn cache_sizes() -> String {
    let mut parts = Vec::new();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(size)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/size")),
        ) else {
            break;
        };
        let kind = match read_trimmed(&format!("{dir}/type")).as_deref() {
            Some("Data") => "d",
            Some("Instruction") => "i",
            _ => "",
        };
        parts.push(format!("L{level}{kind}={size}"));
    }
    if parts.is_empty() {
        "unknown".into()
    } else {
        parts.join(" ")
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host/build half of the fingerprint (seed and op counts are per
/// run and sit beside it). `run.sh` passes the toolchain and commit in
/// through the environment; a bare binary reports them as unknown.
pub fn host() -> Value {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let mut v = Value::obj();
    v.set("nproc", nproc())
        .set("cpu_model", cpu_model())
        .set("cache_sizes", cache_sizes())
        .set(
            "active_isa",
            format!("{:?}", ides_linalg::kernels::active_isa()),
        )
        .set("cargo_features", FEATURES)
        .set("rustc", env("IDES_BENCH_RUSTC"))
        .set("git_commit", env("IDES_BENCH_COMMIT"));
    v
}

/// The fields two result files must share to be comparable.
pub const MUST_MATCH: [&str; 5] = [
    "nproc",
    "cpu_model",
    "cache_sizes",
    "active_isa",
    "cargo_features",
];

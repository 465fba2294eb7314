//! Serving-engine load experiment: the `ides::service` headline numbers.
//!
//! Runs the standard serving measurement
//! ([`ides::service::load::ServeSummary`], shared with `ides-cli serve`)
//! at deployment scale: 64 landmarks at d = 16 with 500 admitted hosts
//! by default. Measures:
//!
//! * **Admission**: 500 concurrent joiners through the group commit vs
//!   the same joiners uncoalesced (`ShardedEngine::join_direct`: same
//!   writer, same cached solver, one solve + one publish per request),
//!   barrier-timed — what batching buys under a flash crowd. The `serve`
//!   bench group measures the same pair and `scripts/check_bench.sh`
//!   gates it with a within-run floor.
//! * **Query latency**: p50/p99 over all queries, first quiescent, then
//!   with a writer thread applying drift epochs continuously — the
//!   snapshot design's claim is p99 under drift within 2x of quiescent.
//!
//! The summary prints to stderr; `ides-cli serve --json` emits the same
//! measurement as one JSON object.

use std::time::Duration;

use ides::service::load::{ServeMeasurementConfig, ServeSummary};
use ides_experiments::seed;

fn main() {
    let mut config = ServeMeasurementConfig {
        seed: seed(),
        ..ServeMeasurementConfig::default()
    };
    let mut duration_s = 4.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--duration-s" => {
                duration_s = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--duration-s S");
            }
            "--hosts" => {
                config.hosts = args.next().and_then(|v| v.parse().ok()).expect("--hosts N");
            }
            "--threads" => {
                config.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads N");
            }
            other => panic!("unknown argument {other}"),
        }
    }
    config.hosts = ((config.hosts as f64) * ides_experiments::scale())
        .round()
        .max(12.0) as usize;
    config.phase = Duration::from_secs_f64((duration_s / 2.0).max(0.25));

    eprintln!(
        "# serving {} landmarks + {} hosts at d={}",
        config.landmarks, config.hosts, config.dim
    );
    let summary = ServeSummary::measure(config).expect("serve measurement");
    eprintln!(
        "# admission ({} joiners): coalesced {:.0}/s in {} flushes vs direct {:.0}/s => {:.2}x",
        summary.admission.joiners,
        summary.admission.coalesced_per_sec,
        summary.admission.coalesced_flushes,
        summary.admission.direct_per_sec,
        summary.admission.speedup
    );
    eprintln!(
        "# queries quiescent:   p50 {:.2}us p99 {:.2}us ({:.0} qps)",
        summary.quiescent_us(0.5),
        summary.quiescent_us(0.99),
        summary.quiescent.queries_per_sec
    );
    eprintln!(
        "# queries under drift: p50 {:.2}us p99 {:.2}us ({:.0} qps, {} epochs)",
        summary.drift_us(0.5),
        summary.drift_us(0.99),
        summary.drifting.queries_per_sec,
        summary.drifting.epochs
    );
    eprintln!("# p99 drift/quiescent: {:.2}x", summary.p99_ratio());
}

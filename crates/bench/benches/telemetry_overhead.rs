//! Telemetry overhead on the serving hot path.
//!
//! The telemetry subsystem promises its enabled cost on the query path
//! stays within 10 % of the disabled baseline: a disabled site is one
//! relaxed atomic load, and an enabled query adds only that load plus a
//! 1-in-64-sampled span (query totals ride the engine's always-on
//! `ServiceStats` counter, whose pre-increment value doubles as the
//! sampling tick — no extra RMW or thread-local on the hot path). This
//! group measures the same single-estimate loop as
//! `serve/query_quiescent`, once with telemetry disabled and once
//! enabled:
//!
//! * `query_disabled/500` — telemetry off (the global flag short-circuits
//!   every recording site).
//! * `query_instrumented/500` — telemetry on: one in 64 queries records
//!   a trace span with two monotonic clock reads.
//!
//! `scripts/check_bench.sh` gates `disabled_ns / instrumented_ns >= 0.9`
//! (instrumented throughput must stay >= 0.9x disabled). Ordering
//! matters: the disabled pass runs first so the instrumented pass cannot
//! warm its caches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ides::service::load::{self, ServeScenario};
use ides::streaming::StalenessPolicy;
use ides::telemetry;

const LANDMARKS: usize = 64;
const DIM: usize = 16;
const HOSTS: usize = 500;
const SEED: u64 = 20041025;

fn scenario(hosts: usize) -> ServeScenario {
    load::synthetic_scenario(LANDMARKS, hosts, DIM, SEED, 1, StalenessPolicy::default())
        .expect("scenario")
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);

    let s = scenario(HOSTS);
    let nodes = &s.nodes;

    telemetry::set_enabled(false);
    let mut i = 0usize;
    group.bench_function(BenchmarkId::new("query_disabled", HOSTS), |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let a = nodes[i % nodes.len()];
            let bn = nodes[(i * 7 + 3) % nodes.len()];
            s.engine.estimate(a, bn).expect("estimate")
        })
    });

    telemetry::set_enabled(true);
    let mut j = 0usize;
    group.bench_function(BenchmarkId::new("query_instrumented", HOSTS), |b| {
        b.iter(|| {
            j = j.wrapping_add(1);
            let a = nodes[j % nodes.len()];
            let bn = nodes[(j * 7 + 3) % nodes.len()];
            s.engine.estimate(a, bn).expect("estimate")
        })
    });
    telemetry::set_enabled(false);
    // Drain what the instrumented pass recorded so the buffers don't
    // carry into any later group run in the same process.
    let spans = telemetry::take_spans();
    let stats = s.engine.stats();
    assert!(stats.queries > 0, "bench passes served no queries");
    assert!(
        !spans.is_empty(),
        "instrumented pass sampled no query spans"
    );
    eprintln!(
        "telemetry_overhead: {} queries counted, {} spans sampled",
        stats.queries,
        spans.len()
    );

    group.finish();
}

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);

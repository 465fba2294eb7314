//! Scale serving: publish cost vs table size, and sharded vs single
//! query throughput at a million hosts.
//!
//! The chunk-tree snapshot promises publish cost **independent of table
//! size** (O(changed chunks), not O(hosts)), and horizontal sharding
//! promises query cost independent of shard count. Both are measured
//! here at the scale where the old flat-clone publish was hopeless:
//!
//! * `publish_churn/1x` vs `publish_churn/10x` — one iteration is one
//!   join + one leave (two publishes) against a one-shard engine grown to
//!   10⁵ then 10⁶ admitted hosts (10⁴ → 10⁵ under `CRITERION_QUICK=1`).
//!   With flat snapshot clones the 10x point would cost ~10× the 1x
//!   point; with the chunk tree both copy a handful of chunks, so the
//!   gated within-run ratio stays near 1 (acceptance: ≤ 2x).
//! * `qps/shards{1,2,4,8}` — single-threaded closed-loop estimates
//!   against an engine holding the 10x population, one group
//!   per shard count over the same substrate. A query reads two rows
//!   through at most two shard snapshots regardless of N, so per-query
//!   cost — and therefore single-core qps — must stay flat as shards
//!   grow (gated: each sharded qps ≥ 0.7 × the 1-shard qps). On a
//!   multi-core host the shards' writer locks are disjoint, so aggregate
//!   qps under concurrent writers scales with N; the top-level `cores`
//!   field of `scripts/run_benches.sh`'s output records what this machine
//!   could actually exercise.
//!
//! The deployment comes from `load::scale_scenario`: topology-direct
//! generation (no O(n²) measured matrix) and bulk `join_many` admission
//! in 65 536-row batches — a million hosts admitted in tens of
//! publishes rather than a million.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ides::service::load::{self, ServeScenario};

const LANDMARKS: usize = 32;
const DIM: usize = 8;
const SEED: u64 = 20041025;

fn quick() -> bool {
    std::env::var("CRITERION_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn base_hosts() -> usize {
    if quick() {
        10_000
    } else {
        100_000
    }
}

fn scale(hosts: usize, shards: usize) -> ServeScenario {
    load::scale_scenario(LANDMARKS, hosts, DIM, SEED, shards).expect("scale scenario")
}

fn bench_serve_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_sharded");
    group.sample_size(10);
    let base = base_hosts();
    let big = base * 10;

    // Publish cost vs table size: the same single-shard engine, churned
    // (join + leave = two publishes per iteration) at 1x and again after
    // growing the table to 10x. Chunk-tree publishes copy O(changed
    // chunks), so the 10x median must stay within 2x of the 1x median
    // (CI-gated within-run).
    {
        let s = scale(base, 1);
        let (d_out, d_in) = &s.host_rows[0];
        group.bench_function(BenchmarkId::new("publish_churn", "1x"), |b| {
            b.iter(|| {
                let id = s.engine.join_direct(d_out, d_in).expect("churn join");
                s.engine.leave(id).expect("churn leave");
            })
        });
    }
    {
        let s = scale(big, 1);
        let (d_out, d_in) = &s.host_rows[0];
        group.bench_function(BenchmarkId::new("publish_churn", "10x"), |b| {
            b.iter(|| {
                let id = s.engine.join_direct(d_out, d_in).expect("churn join");
                s.engine.leave(id).expect("churn leave");
            })
        });
    }

    // Query throughput vs shard count at the 10x population. One
    // iteration is one estimate; the node walk mixes landmark-host and
    // host-host (cross-shard) pairs deterministically.
    for shards in [1usize, 2, 4, 8] {
        let s = scale(big, shards);
        assert_eq!(s.engine.stats().joins as usize, big);
        let nodes = &s.nodes;
        let mut i = 0usize;
        group.bench_function(BenchmarkId::new("qps", format!("shards{shards}")), |b| {
            b.iter(|| {
                i = i.wrapping_add(1);
                let a = nodes[(i * 2654435761) % nodes.len()];
                let bn = nodes[(i * 40503 + 7) % nodes.len()];
                s.engine.estimate(a, bn).expect("estimate")
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_serve_sharded);
criterion_main!(benches);

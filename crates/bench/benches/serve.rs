//! The serving engine under load: group-commit vs uncoalesced
//! admission, and query latency quiescent vs under active drift.
//!
//! Scale: the shared deployment scenario (64 landmarks, d = 16, 500
//! admitted hosts).
//!
//! * `coalesced_join/500` vs `direct_join/500` — one iteration is a
//!   wave of 500 **concurrent** joiners: a persistent pool of 500 worker
//!   threads rendezvouses at a barrier, each admits one host (through
//!   `ShardedEngine::join` / `ShardedEngine::join_direct`), and the wave
//!   is retired in one `leave_many` so the table stays bounded. The pool
//!   persists across iterations, so thread spawning never enters the
//!   timing. Both sides run the same writer and the same cached solver;
//!   the control takes one solve and one publish per joiner, so the
//!   within-group ratio is what batching buys under a flash crowd. CI
//!   gates it with a within-run floor (`scripts/check_bench.sh`).
//! * `query_quiescent/500` vs `query_under_drift/500` — single estimates
//!   against a 500-host snapshot, with and without a writer thread
//!   continuously applying drift epochs. The snapshot design promises
//!   drift does not stall readers (acceptance: p99 within 2x, measured
//!   with full histograms by the `serve_load` experiment; here the
//!   medians must tell the same story).
//! * `admit/5000` vs `cached_join/5000` — bulk admission against its own
//!   solve: one iteration of `admit` is a fresh one-shard engine (built
//!   and dropped inside the timing) admitting 5 000 hosts with one
//!   `ShardedEngine::join_many`; `cached_join` is
//!   `LandmarkModel::join_batch` of the same rows, the tiled solve
//!   admission runs, with nothing stored. The ratio is what admission
//!   pays beyond that solve — growing the measurement tables and the
//!   coordinate chunk tree, and the publish. CI gates it with a
//!   within-run ceiling (`scripts/check_bench.sh`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ides::projection::BatchHostVectors;
use ides::service::load::{self, ServeScenario};
use ides::service::{NodeId, ServiceConfig, ShardedEngine};
use ides::streaming::{StalenessPolicy, StreamingServer};
use ides_linalg::Matrix;

const LANDMARKS: usize = 64;
const DIM: usize = 16;
const HOSTS: usize = 500;
/// Hosts per bulk admission in `admit` / `cached_join`.
const ADMITTED: usize = 5000;
const SEED: u64 = 20041025;

/// The shared deployment on one shard (global host ids are its slots).
fn scenario(hosts: usize) -> ServeScenario {
    load::synthetic_scenario(LANDMARKS, hosts, DIM, SEED, 1, StalenessPolicy::default())
        .expect("scenario")
}

fn bench_serve(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);

    // Admission: engine starts empty; each iteration is one wave of 500
    // concurrent joiners from a persistent worker pool (spawned once,
    // synchronized by barriers, so only admission work is timed).
    {
        let s = scenario(0);
        let rows = scenario(HOSTS).host_rows;
        let start = Barrier::new(HOSTS + 1);
        let done = Barrier::new(HOSTS + 1);
        let coalesced = AtomicBool::new(true);
        let shutdown = AtomicBool::new(false);
        let slots: Vec<AtomicUsize> = (0..HOSTS).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|scope| {
            for (w, (d_out, d_in)) in rows.iter().enumerate() {
                let (engine, start, done) = (&s.engine, &start, &done);
                let (coalesced, shutdown, slots) = (&coalesced, &shutdown, &slots);
                scope.spawn(move || loop {
                    start.wait();
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let joined = if coalesced.load(Ordering::Relaxed) {
                        engine.join(d_out, d_in)
                    } else {
                        engine.join_direct(d_out, d_in)
                    };
                    let NodeId::Host(slot) = joined.expect("admission join") else {
                        panic!("join returned a landmark")
                    };
                    slots[w].store(slot, Ordering::Relaxed);
                    done.wait();
                });
            }
            let run_wave = |is_coalesced: bool| {
                coalesced.store(is_coalesced, Ordering::Relaxed);
                start.wait();
                done.wait();
                let ids: Vec<NodeId> = slots
                    .iter()
                    .map(|s| NodeId::Host(s.load(Ordering::Relaxed)))
                    .collect();
                s.engine.leave_many(&ids).expect("leave wave");
            };
            group.bench_function(BenchmarkId::new("coalesced_join", HOSTS), |b| {
                b.iter(|| run_wave(true))
            });
            group.bench_function(BenchmarkId::new("direct_join", HOSTS), |b| {
                b.iter(|| run_wave(false))
            });
            shutdown.store(true, Ordering::Relaxed);
            start.wait();
        });
    }

    // Bulk admission into a fresh engine vs the cached join of the same
    // rows. The measurement rows are synthetic RTTs in 1..81 ms: their
    // values do not change the cost of either side.
    {
        let ds = ides_datasets::generators::p2psim_like(LANDMARKS + 20, SEED).expect("dataset");
        let sub: Vec<usize> = (0..LANDMARKS).collect();
        let lm = ds.matrix.submatrix(&sub, &sub);
        let server =
            StreamingServer::new(&lm, DIM, StalenessPolicy::default()).expect("landmark model");
        let mut state = SEED;
        let rows = Matrix::from_fn(ADMITTED, LANDMARKS, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * 80.0 + 1.0
        });
        group.bench_function(BenchmarkId::new("admit", ADMITTED), |b| {
            b.iter(|| {
                let engine = ShardedEngine::new(server.clone(), 1, ServiceConfig::default())
                    .expect("engine");
                engine.join_many(&rows, &rows).expect("bulk admission")
            })
        });
        let mut coords = BatchHostVectors::new();
        group.bench_function(BenchmarkId::new("cached_join", ADMITTED), |b| {
            b.iter(|| {
                server
                    .landmark_model()
                    .join_batch(&rows, &rows, &mut coords)
                    .expect("cached join")
            })
        });
    }

    // Query latency against a fully admitted snapshot.
    {
        let s = scenario(HOSTS);
        let nodes = &s.nodes;
        let mut i = 0usize;
        group.bench_function(BenchmarkId::new("query_quiescent", HOSTS), |b| {
            b.iter(|| {
                i = i.wrapping_add(1);
                let a = nodes[i % nodes.len()];
                let bn = nodes[(i * 7 + 3) % nodes.len()];
                s.engine.estimate(a, bn).expect("estimate")
            })
        });

        // Same measurement with a writer continuously applying drift
        // epochs (2ms apart) in the background.
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let mut epoch = s.engine.current_epoch();
                let mut k = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(2));
                    if s.drift_updates.is_empty() {
                        continue;
                    }
                    epoch += 1.0;
                    let mut u = s.drift_updates[k % s.drift_updates.len()].clone();
                    u.epoch = epoch;
                    s.engine.apply_epoch(&u).expect("drift epoch");
                    k += 1;
                }
            });
            let mut j = 0usize;
            group.bench_function(BenchmarkId::new("query_under_drift", HOSTS), |b| {
                b.iter(|| {
                    j = j.wrapping_add(1);
                    let a = nodes[j % nodes.len()];
                    let bn = nodes[(j * 7 + 3) % nodes.len()];
                    s.engine.estimate(a, bn).expect("estimate")
                })
            });
            stop.store(true, Ordering::Relaxed);
            writer.join().expect("drift writer panicked");
        });
    }

    group.finish();
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);

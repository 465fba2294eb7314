//! One-thread vs automatic-policy epoch application.
//!
//! One mixed maintenance epoch — landmark measurement deltas to absorb
//! plus ~10 % of ordinary hosts to re-join — applied through
//! `StreamingServer::apply_epoch_with` in three configurations:
//! `threads1` pins the executor to one thread, `auto` is the production
//! automatic policy (ambient thread cap, absorb fan-out clamped by work
//! size), and `threads4` pins four scoped threads with the heuristic
//! bypassed. The committed state is bit-identical in all three (asserted
//! by tests/epoch_determinism.rs); the bench measures what fan-out costs
//! or buys. Acceptance (`check_bench.sh`): `auto` ≥ 0.9x `threads1` —
//! the auto policy's fan-out decisions must stay noise-level. `threads4`
//! is deliberately ungated: at this epoch's grain (d = 8, microsecond
//! solves) it documents the spawn cost the auto clamp exists to avoid.
//!
//! Run at 500 and 5000 hosts so the rejoin (which dominates at scale) is
//! measured at both the classic scale and a deployment scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ides::streaming::{
    EpochUpdate, MeasurementDelta, RejoinTables, StalenessPolicy, StreamingServer,
};
use ides::BatchHostVectors;
use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;

const LANDMARKS: usize = 20;
const DIM: usize = 8;

struct Setup {
    server: StreamingServer,
    meas: Matrix,
    update: EpochUpdate,
    affected: Vec<usize>,
    coords: BatchHostVectors,
}

/// Deterministic synthetic measurement value (positive, host-varied) —
/// cheap enough to build a 5000-host table without a full NxN dataset.
fn meas_value(h: usize, l: usize) -> f64 {
    20.0 + 10.0 * ((0.37 * (h as f64 + 1.0) + 0.91 * (l as f64 + 1.0)).sin() + 1.0)
}

fn setup(hosts: usize) -> Setup {
    let ds = ides_datasets::generators::p2psim_like(LANDMARKS + 20, 17).expect("dataset");
    let sub: Vec<usize> = (0..LANDMARKS).collect();
    let lm0 = DistanceMatrix::full("lm0", ds.matrix.submatrix(&sub, &sub).values().clone())
        .expect("landmark matrix");
    let policy = StalenessPolicy {
        deviation_threshold: 0.5, // stay on the absorb tier
        ..StalenessPolicy::default()
    };
    let server = StreamingServer::new(&lm0, DIM, policy).expect("server");
    let meas = Matrix::from_fn(hosts, LANDMARKS, meas_value);

    // Mixed epoch: drift 8 landmark pairs (16 directed deltas -> 16
    // absorbed landmarks) and re-join ~10 % of the hosts.
    let mut deltas = Vec::new();
    for i in 0..8usize {
        let j = (i + 9) % LANDMARKS;
        let rtt = lm0.values()[(i, j)] * 1.02;
        deltas.push(MeasurementDelta {
            from: i,
            to: j,
            rtt,
        });
        deltas.push(MeasurementDelta {
            from: j,
            to: i,
            rtt,
        });
    }
    let affected: Vec<usize> = (0..hosts).step_by(10).collect();
    let mut coords = BatchHostVectors::new();
    server
        .join_batch_cached(&meas, &meas, &mut coords)
        .expect("initial join");
    Setup {
        server,
        meas,
        update: EpochUpdate { epoch: 1.0, deltas },
        affected,
        coords,
    }
}

fn bench_epoch_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_apply");
    group.sample_size(10);

    for &hosts in &[500usize, 5000] {
        for (label, threads) in [
            ("threads1", Some(1usize)),
            ("auto", None),
            ("threads4", Some(4)),
        ] {
            let mut s = setup(hosts);
            let outcome = s
                .server
                .apply_epoch_with(
                    &s.update,
                    Some(RejoinTables::full(
                        &s.affected,
                        &s.meas,
                        &s.meas,
                        &mut s.coords,
                    )),
                    threads,
                )
                .expect("warmup epoch");
            assert!(!outcome.refreshed, "bench must stay on the absorb tier");
            group.bench_function(BenchmarkId::new(label, hosts), |b| {
                b.iter(|| {
                    s.server
                        .apply_epoch_with(
                            &s.update,
                            Some(RejoinTables::full(
                                &s.affected,
                                &s.meas,
                                &s.meas,
                                &mut s.coords,
                            )),
                            threads,
                        )
                        .expect("apply")
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_epoch_apply);
criterion_main!(benches);

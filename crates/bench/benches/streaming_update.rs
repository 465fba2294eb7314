//! Per-epoch streaming maintenance vs full refit: the PR-3 headline.
//!
//! A long-running information server at 500 ordinary hosts must absorb an
//! epoch of drifted measurements. The expensive control (`full_refit`)
//! re-fits the landmark model cold and re-joins every host; the streaming
//! tiers (`incremental` = absorb the touched landmarks + re-join of the
//! ~10 % of hosts whose own measurements moved, `warm_refresh` = bounded
//! 2-sweep warm ALS refit + full re-join) ride the cached factorizations.
//! `scripts/check_bench.sh` gates `full_refit/500 : incremental/500` at
//! ≥ 6x: an epoch that re-joins every host, or absorbs by a cold refit,
//! reads below it.
//!
//! Also times the landmark step alone at the served shape: the absorb tier
//! with one and all 64 landmarks moved (`absorb/64x16_one`,
//! `absorb/64x16_all`) and the refresh tier with all 64 moved
//! (`refresh/64x16`). `scripts/check_bench.sh` caps two ratios: the absorb
//! step must not scale with the moved-landmark count faster than it does
//! today, and a refresh must stay within a few absorbs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ides::streaming::{EpochUpdate, MeasurementDelta, StalenessPolicy, StreamingServer};
use ides::BatchHostVectors;
use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;
use ides_netsim::drift::{DriftModel, DriftStream};

const LANDMARKS: usize = 20;
const HOSTS: usize = 500;
const DIM: usize = 8;

struct Setup {
    lm0: DistanceMatrix,
    meas: Matrix,
    update: EpochUpdate,
    /// Hosts the staleness policy would re-join this epoch (~10 %).
    affected: Vec<usize>,
}

fn setup() -> Setup {
    let ds = ides_datasets::generators::p2psim_like(LANDMARKS + HOSTS, 17).expect("dataset");
    let drift = DriftModel::new(0.2, 24.0, 17);
    let mut stream = DriftStream::new(&ds.topology, drift, ds.row_hosts.clone(), 1.0, 0.04);
    let full0 = stream.initial_matrix();
    let lm0 = DistanceMatrix::full(
        "lm0",
        Matrix::from_fn(LANDMARKS, LANDMARKS, |a, b| full0[(a, b)]),
    )
    .expect("landmark matrix");
    let meas = Matrix::from_fn(HOSTS, LANDMARKS, |h, l| full0[(LANDMARKS + h, l)]);

    // One epoch of drift: landmark-slab deltas feed `apply_epoch`; the
    // affected-host set models the policy's partial re-join (~10 %).
    let batch = stream.next().expect("epoch batch");
    let mut deltas = Vec::new();
    let mut touched = Vec::new();
    for s in &batch.samples {
        if s.j < LANDMARKS {
            deltas.push(MeasurementDelta {
                from: s.i,
                to: s.j,
                rtt: s.rtt,
            });
            deltas.push(MeasurementDelta {
                from: s.j,
                to: s.i,
                rtt: s.rtt,
            });
        } else if s.i < LANDMARKS && !touched.contains(&(s.j - LANDMARKS)) {
            touched.push(s.j - LANDMARKS);
        }
    }
    touched.sort_unstable();
    touched.truncate(HOSTS / 10);
    Setup {
        lm0,
        meas,
        update: EpochUpdate {
            epoch: batch.epoch,
            deltas,
        },
        affected: touched,
    }
}

fn bench_streaming_update(c: &mut Criterion) {
    let s = setup();
    let mut group = c.benchmark_group("streaming_update");
    group.sample_size(10);

    // Full refit: cold ALS fit of the landmark slab + re-join all hosts.
    {
        let mut server =
            StreamingServer::new(&s.lm0, DIM, StalenessPolicy::default()).expect("server");
        let mut coords = BatchHostVectors::new();
        group.bench_function(BenchmarkId::new("full_refit", HOSTS), |b| {
            b.iter(|| {
                server.full_refit().expect("refit");
                server
                    .landmark_model()
                    .join_batch(&s.meas, &s.meas, &mut coords)
                    .expect("join");
            })
        });
    }

    // Incremental absorb: re-solve the touched landmarks, factor the new
    // Grams once, and re-join the affected ~10 % of hosts.
    {
        let policy = StalenessPolicy {
            deviation_threshold: 0.5, // stay on the absorb tier
            ..StalenessPolicy::default()
        };
        let mut server = StreamingServer::new(&s.lm0, DIM, policy).expect("server");
        let mut coords = BatchHostVectors::new();
        server
            .landmark_model()
            .join_batch(&s.meas, &s.meas, &mut coords)
            .expect("initial join");
        group.bench_function(BenchmarkId::new("incremental", HOSTS), |b| {
            b.iter(|| {
                let outcome = server.apply_epoch(&s.update).expect("apply");
                assert!(!outcome.refreshed, "bench must stay on the absorb tier");
                server
                    .rejoin_affected(&s.affected, &s.meas, &s.meas, &mut coords)
                    .expect("rejoin");
            })
        });
    }

    // Warm refresh: threshold 0 forces the bounded 2-sweep warm refit and
    // a full re-join — the middle tier. Refreshing resets the staleness
    // baseline, so alternate the drifted values with the epoch-0 originals
    // to keep every iteration genuinely drifted.
    {
        let policy = StalenessPolicy {
            deviation_threshold: 0.0,
            ..StalenessPolicy::default()
        };
        let mut server = StreamingServer::new(&s.lm0, DIM, policy).expect("server");
        let revert = EpochUpdate {
            epoch: s.update.epoch + 1.0,
            deltas: s
                .update
                .deltas
                .iter()
                .map(|d| MeasurementDelta {
                    rtt: s.lm0.values()[(d.from, d.to)],
                    ..*d
                })
                .collect(),
        };
        let mut coords = BatchHostVectors::new();
        let mut forward = true;
        group.bench_function(BenchmarkId::new("warm_refresh", HOSTS), |b| {
            b.iter(|| {
                let update = if forward { &s.update } else { &revert };
                forward = !forward;
                let outcome = server.apply_epoch(update).expect("apply");
                assert!(outcome.refreshed);
                server
                    .landmark_model()
                    .join_batch(&s.meas, &s.meas, &mut coords)
                    .expect("join");
            })
        });
    }

    // The landmark step alone at the served shape (k = 64, d = 16): absorb
    // epochs moving one landmark (a diagonal delta) and all 64 (32
    // disjoint pairs), and refresh epochs moving all 64 (every row is hot
    // at threshold 0, so each epoch runs the warm 2-sweep ALS refit).
    // The entries alternate between +1 % and their original values, so
    // every iteration does the same work.
    let ds = ides_datasets::generators::p2psim_like(72, 7).expect("dataset");
    let sub: Vec<usize> = (0..64).collect();
    let absorb = StalenessPolicy {
        refresh_row_fraction: 1.0,
        ..StalenessPolicy::default()
    };
    let refresh = StalenessPolicy {
        deviation_threshold: 0.0,
        refresh_row_fraction: 0.0,
        ..StalenessPolicy::default()
    };
    let all: Vec<(usize, usize)> = (0..32).map(|i| (2 * i, 2 * i + 1)).collect();
    for (tier, label, policy, pairs) in [
        ("absorb", "64x16_one", absorb, vec![(0, 0)]),
        ("absorb", "64x16_all", absorb, all.clone()),
        ("refresh", "64x16", refresh, all),
    ] {
        let lm = ds.matrix.submatrix(&sub, &sub);
        let mut server = StreamingServer::new(&lm, 16, policy).expect("server");
        let updates = [1.01, 1.0].map(|scale| EpochUpdate {
            epoch: scale,
            deltas: pairs
                .iter()
                .map(|&(from, to)| MeasurementDelta {
                    from,
                    to,
                    rtt: lm.values()[(from, to)] * scale + (scale - 1.0),
                })
                .collect(),
        });
        let mut e = 0usize;
        group.bench_function(BenchmarkId::new(tier, label), |b| {
            b.iter(|| {
                let outcome = server.apply_epoch(&updates[e % 2]).expect("apply");
                e += 1;
                assert_eq!(outcome.refreshed, tier == "refresh", "bench left its tier");
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_streaming_update);
criterion_main!(benches);

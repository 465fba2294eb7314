//! Bit-identity of epoch application.
//!
//! An epoch is two calls — `StreamingServer::apply_epoch`, the serial
//! landmark step, then `StreamingServer::rejoin`, the host step — and its
//! contract is that the committed state — factor model, coordinate table,
//! and every subsequently served answer — does not depend on who runs the
//! host step or how often: any number of threads rejoining off the one
//! shared server land the same bits, and at the engine layer so does any
//! shard count and any batching of the epochs
//! (`ShardedEngine::apply_epochs`, which rejoins once per batch, ≡ one
//! `apply_epoch` per update). The same holds for the §6.2 partial
//! observed sets, whose grouped subset joins run serially by design.
//!
//! The matrix CI lane (`determinism-stress`) runs this suite across
//! `IDES_LINALG_THREADS` x `IDES_LINALG_KERNEL` configurations. The
//! tiled join's worker-count invariance is pinned in-crate
//! (`streaming::tile::tests`), where the worker count can be passed.

use ides::service::{NodeId, ServiceConfig, ShardedEngine};
use ides::streaming::{
    EpochOutcome, EpochUpdate, MeasurementDelta, RejoinTables, StalenessPolicy, StreamingServer,
};
use ides::BatchHostVectors;
use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;
use proptest::prelude::*;

/// Concurrent rejoiners compared against one.
const THREAD_COUNTS: [usize; 3] = [2, 4, 7];

/// Deterministic positive measurement table (`hosts x k`).
fn meas_table(hosts: usize, k: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(11);
    Matrix::from_fn(hosts, k, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        10.0 + ((state >> 33) as f64 / (1u64 << 31) as f64) * 90.0
    })
}

fn server(k: usize, dim: usize, seed: u64, threshold: f64) -> StreamingServer {
    let lm = DistanceMatrix::full("lm", meas_table(k, k, seed)).expect("landmark matrix");
    StreamingServer::new(
        &lm,
        dim,
        StalenessPolicy {
            deviation_threshold: threshold,
            ..StalenessPolicy::default()
        },
    )
    .expect("server")
}

fn assert_bits_eq(a: &[f64], b: &[f64], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: component {i} differs: {x} vs {y}"
        );
    }
}

fn assert_models_eq(a: &StreamingServer, b: &StreamingServer, context: &str) {
    for l in 0..a.landmark_count() {
        assert_bits_eq(
            a.model().outgoing(l),
            b.model().outgoing(l),
            &format!("{context}: outgoing row {l}"),
        );
        assert_bits_eq(
            a.model().incoming(l),
            b.model().incoming(l),
            &format!("{context}: incoming row {l}"),
        );
    }
}

fn assert_coords_eq(a: &BatchHostVectors, b: &BatchHostVectors, context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: host count");
    for h in 0..a.len() {
        assert_bits_eq(
            a.outgoing(h),
            b.outgoing(h),
            &format!("{context}: host {h} out"),
        );
        assert_bits_eq(
            a.incoming(h),
            b.incoming(h),
            &format!("{context}: host {h} in"),
        );
    }
}

/// Joins every host, then applies `epochs` as the two calls: one
/// `apply_epoch`, then the `rejoin` of `affected` (through `observed`
/// subsets when given) — run by `threads` threads at once, each into its
/// own copy of the table off the one shared server, the way the engine's
/// shards rejoin off one model. The copies must agree bit for bit. Returns
/// the final server and coordinate table plus the per-epoch outcomes.
fn run_epochs(
    mut srv: StreamingServer,
    meas: &Matrix,
    affected: &[usize],
    observed: Option<&[Vec<usize>]>,
    epochs: &[EpochUpdate],
    threads: usize,
) -> (StreamingServer, BatchHostVectors, Vec<EpochOutcome>) {
    let mut coords = BatchHostVectors::new();
    srv.landmark_model()
        .join_batch(meas, meas, &mut coords)
        .expect("initial join");
    let mut log = Vec::new();
    for update in epochs {
        log.push(srv.apply_epoch(update).expect("landmark step"));
        let mut rejoined: Vec<BatchHostVectors> = std::thread::scope(|scope| {
            let rejoiners: Vec<_> = (0..threads)
                .map(|_| {
                    let (srv, mut mine) = (&srv, coords.clone());
                    scope.spawn(move || {
                        let tables = RejoinTables {
                            observed,
                            ..RejoinTables::full(affected, meas, meas, &mut mine)
                        };
                        srv.rejoin(tables).expect("rejoin");
                        mine
                    })
                })
                .collect();
            rejoiners
                .into_iter()
                .map(|r| r.join().expect("rejoiner"))
                .collect()
        });
        coords = rejoined.swap_remove(0);
        for other in &rejoined {
            assert_coords_eq(&coords, other, "concurrent rejoiners");
        }
    }
    (srv, coords, log)
}

/// Asserts that `run_epochs` with 2/4/7 concurrent rejoiners reproduces
/// the one-thread run bit for bit — outcomes, model and coordinates — and
/// returns the one-thread run.
fn assert_thread_invariant(
    srv: &StreamingServer,
    meas: &Matrix,
    affected: &[usize],
    observed: Option<&[Vec<usize>]>,
    epochs: &[EpochUpdate],
    what: &str,
) -> (StreamingServer, BatchHostVectors, Vec<EpochOutcome>) {
    let one = run_epochs(srv.clone(), meas, affected, observed, epochs, 1);
    for &threads in &THREAD_COUNTS {
        let ctx = format!("{what} at {threads} threads");
        let (t_srv, t_coords, t_log) =
            run_epochs(srv.clone(), meas, affected, observed, epochs, threads);
        assert_eq!(one.2, t_log, "{ctx}: outcomes diverged");
        assert_models_eq(&one.0, &t_srv, &ctx);
        assert_coords_eq(&one.1, &t_coords, &ctx);
    }
    one
}

/// Drift `pairs` distinct landmark pairs confined to `lo..hi` by `factor`.
fn drift_in_range(
    srv: &StreamingServer,
    epoch: f64,
    pairs: usize,
    lo: usize,
    hi: usize,
    factor: f64,
) -> EpochUpdate {
    let span = hi - lo;
    let mut deltas = Vec::new();
    for p in 0..pairs {
        let i = lo + (p * 3) % span;
        let j = lo + (p * 5 + 1) % span;
        if i == j {
            continue;
        }
        deltas.push(MeasurementDelta {
            from: i,
            to: j,
            rtt: srv.landmark_matrix()[(i, j)] * factor,
        });
    }
    EpochUpdate { epoch, deltas }
}

/// The same relative drift on the same landmark pairs, one update per
/// epoch `1..=epochs`.
fn pair_drift_epochs(
    srv: &StreamingServer,
    epochs: usize,
    pair_drifts: &[(usize, usize, f64)],
) -> Vec<EpochUpdate> {
    (1..=epochs)
        .map(|e| EpochUpdate {
            epoch: e as f64,
            deltas: pair_drifts
                .iter()
                .filter(|(i, j, _)| i != j)
                .map(|&(i, j, f)| MeasurementDelta {
                    from: i,
                    to: j,
                    rtt: srv.landmark_matrix()[(i, j)] * f,
                })
                .collect(),
        })
        .collect()
}

/// Deterministic per-host observed subsets: host `h` observes
/// `min_len + h % spread` landmarks starting at `h * 3`, wrapping. Sizes
/// stay `>= min_len` so the normal-equation subset solve is well-posed
/// without ridge.
fn observed_subsets(hosts: &[usize], k: usize, min_len: usize, spread: usize) -> Vec<Vec<usize>> {
    hosts
        .iter()
        .map(|&h| {
            let len = (min_len + h % spread).min(k);
            (0..len).map(|i| (h * 3 + i) % k).collect()
        })
        .collect()
}

/// Observed subset from a bitmask, padded deterministically to `min_len`
/// distinct landmarks so the subset solve stays well-posed without ridge.
fn mask_subset(mask: u32, k: usize, min_len: usize, salt: usize) -> Vec<usize> {
    let mut s: Vec<usize> = (0..k).filter(|i| mask >> i & 1 == 1).collect();
    let mut next = salt % k;
    while s.len() < min_len {
        if !s.contains(&next) {
            s.push(next);
        }
        next = (next + 1) % k;
    }
    s
}

/// Each listed host's `[outgoing | incoming]` row as the engine serves it.
fn served_rows(engine: &ShardedEngine, ids: &[NodeId]) -> Vec<Vec<f64>> {
    ids.iter()
        .map(|&id| {
            let (mut out, inc) = engine.host_coords(id).expect("coords");
            out.extend(inc);
            out
        })
        .collect()
}

#[test]
fn refresh_epoch_stays_bitwise() {
    let k = 12;
    let hosts = 18;
    let srv = server(k, 5, 31, 0.01); // tiny threshold: refresh tier
    let meas = meas_table(hosts, k, 32);
    let affected: Vec<usize> = (0..hosts).collect();
    let epochs = vec![drift_in_range(&srv, 1.0, 8, 0, k, 1.4)];

    let (_, _, log) = assert_thread_invariant(&srv, &meas, &affected, None, &epochs, "refresh");
    assert!(log[0].refreshed, "drift must cross the refresh threshold");
    assert_eq!(log[0].absorbed, 0);
}

#[test]
fn empty_epoch_changes_nothing() {
    let mut srv = server(10, 4, 55, 0.5);
    let before = srv.clone();
    let outcome = srv
        .apply_epoch(&EpochUpdate {
            epoch: 1.0,
            deltas: Vec::new(),
        })
        .expect("empty epoch");
    assert_eq!(outcome.applied, 0);
    assert_eq!(outcome.absorbed, 0);
    assert!(!outcome.refreshed);
    assert_models_eq(&before, &srv, "empty epoch");
}

#[test]
fn repeated_same_row_deltas_absorb_once() {
    // Many deltas to one landmark pair dedup to two absorbs (from + to):
    // the changed landmarks are coalesced before the solve phase.
    let mut srv = server(10, 4, 91, 0.5);
    let rtt = srv.landmark_matrix()[(1, 7)];
    let update = EpochUpdate {
        epoch: 1.0,
        deltas: (0..5)
            .map(|i| MeasurementDelta {
                from: 1,
                to: 7,
                rtt: rtt * (1.0 + 0.002 * i as f64),
            })
            .collect(),
    };
    let outcome = srv.apply_epoch(&update).expect("epoch");
    assert_eq!(outcome.applied, 5);
    assert_eq!(outcome.absorbed, 2);
    assert_eq!(srv.absorbed(), 2);
}

/// Engine-level: a one-shard engine under the ambient `IDES_LINALG_THREADS`
/// resolution serves bit-identical snapshots at every thread count. Env
/// mutation is process-global, so every env-touching assertion lives in
/// this one test (the suite's own process, per CI lane).
#[test]
fn engine_epochs_bitwise_across_thread_env() {
    let k = 12;
    let hosts = 15;
    let srv = server(k, 5, 63, 0.5);
    let meas = meas_table(hosts, k, 64);

    let run = |threads: &str| -> Vec<Vec<f64>> {
        std::env::set_var("IDES_LINALG_THREADS", threads);
        let engine = ShardedEngine::new(srv.clone(), 1, ServiceConfig::default()).expect("engine");
        let ids = engine.join_many(&meas, &meas).expect("admit hosts");
        for e in 1..=3 {
            let update = drift_in_range(&srv, e as f64, 4, 0, k, 1.0 + 0.01 * e as f64);
            engine.apply_epoch(&update).expect("epoch");
        }
        served_rows(&engine, &ids)
    };

    let baseline = run("1");
    for t in ["2", "4", "7"] {
        let got = run(t);
        for (h, (a, b)) in baseline.iter().zip(got.iter()).enumerate() {
            assert_bits_eq(a, b, &format!("IDES_LINALG_THREADS={t}, host {h}"));
        }
    }
    std::env::remove_var("IDES_LINALG_THREADS");
}

#[test]
fn sharded_epochs_bitwise_across_shard_counts() {
    let k = 12;
    let hosts = 24;
    let srv = server(k, 5, 47, 0.5);
    let meas = meas_table(hosts, k, 48);

    let run = |shards: usize| -> Vec<Vec<f64>> {
        let engine =
            ShardedEngine::new(srv.clone(), shards, ServiceConfig::default()).expect("engine");
        let ids = engine.join_many(&meas, &meas).expect("admit hosts");
        for e in 1..=3 {
            let update = drift_in_range(&srv, e as f64, 5, 0, k, 1.0 + 0.015 * e as f64);
            engine.apply_epoch(&update).expect("epoch");
        }
        served_rows(&engine, &ids)
    };

    let single = run(1);
    for shards in [2usize, 4, 7] {
        let got = run(shards);
        for (h, (a, b)) in single.iter().zip(got.iter()).enumerate() {
            assert_bits_eq(a, b, &format!("{shards} shards, host {h}"));
        }
    }
}

#[test]
fn full_coverage_subsets_match_the_full_join_bitwise() {
    let k = 10;
    let hosts = 12;
    let srv = server(k, 4, 101, 0.5);
    let meas = meas_table(hosts, k, 102);
    let affected: Vec<usize> = (0..hosts).collect();
    // Every host observes all k landmarks — shuffled, with duplicates.
    let full_cover: Vec<Vec<usize>> = (0..hosts)
        .map(|h| {
            let mut s: Vec<usize> = (0..k).map(|i| (i * 7 + h) % k).collect();
            s.push(h % k); // duplicate: dedup must not change coverage
            s
        })
        .collect();
    let epochs: Vec<EpochUpdate> = (1..=2)
        .map(|e| drift_in_range(&srv, e as f64, 3, 0, k, 1.0 + 0.01 * e as f64))
        .collect();

    let (all_srv, all_coords, all_log) =
        run_epochs(srv.clone(), &meas, &affected, None, &epochs, 2);
    let (sub_srv, sub_coords, sub_log) =
        run_epochs(srv.clone(), &meas, &affected, Some(&full_cover), &epochs, 2);
    assert_eq!(all_log, sub_log, "outcomes diverged");
    assert_models_eq(&all_srv, &sub_srv, "full-coverage subsets");
    assert_coords_eq(&all_coords, &sub_coords, "full-coverage subsets");
}

#[test]
fn partial_subsets_bitwise_across_thread_counts() {
    let k = 12;
    let hosts = 16;
    let srv = server(k, 4, 111, 0.5);
    let meas = meas_table(hosts, k, 112);
    let affected: Vec<usize> = (0..hosts).collect();
    let observed = observed_subsets(&affected, k, 5, 4);
    let epochs: Vec<EpochUpdate> = (1..=3)
        .map(|e| drift_in_range(&srv, e as f64, 4, 0, k, 1.0 + 0.01 * e as f64))
        .collect();

    let (_, subset_coords, _) = assert_thread_invariant(
        &srv,
        &meas,
        &affected,
        Some(&observed),
        &epochs,
        "partial subsets",
    );
    // The subsets really took the grouped subset join: a host that saw
    // fewer landmarks lands elsewhere than its full-measurement join.
    let (_, full_coords, _) = run_epochs(srv.clone(), &meas, &affected, None, &epochs, 1);
    assert!((0..hosts).any(|h| subset_coords.outgoing(h) != full_coords.outgoing(h)));
}

#[test]
fn one_catastrophic_landmark_absorbs_under_row_gate() {
    let k = 16;
    let mut srv = server(k, 5, 161, 0.05);
    // One pair drifts 3x: global deviation blows past the threshold, but
    // only 2 of 16 Gram rows are hot — under the per-row gate
    // (refresh_row_fraction 0.25, so > 4 hot rows required) this absorbs.
    let rtt = srv.landmark_matrix()[(2, 9)];
    let update = EpochUpdate {
        epoch: 1.0,
        deltas: vec![MeasurementDelta {
            from: 2,
            to: 9,
            rtt: rtt * 3.0,
        }],
    };
    let outcome = srv.apply_epoch(&update).expect("epoch");
    assert!(
        !outcome.refreshed,
        "a single hot landmark must absorb, not refresh: {outcome:?}"
    );
    assert_eq!(outcome.hot_rows, 2, "rows 2 and 9 are hot");
    assert_eq!(outcome.absorbed, 2);
}

#[test]
fn global_drift_still_refreshes_under_row_gate() {
    let k = 12;
    let mut srv = server(k, 5, 171, 0.05);
    let deltas: Vec<MeasurementDelta> = (0..k)
        .flat_map(|i| {
            let j = (i + 5) % k;
            (i != j).then(|| MeasurementDelta {
                from: i,
                to: j,
                rtt: srv.landmark_matrix()[(i, j)] * 2.5,
            })
        })
        .collect();
    let update = EpochUpdate { epoch: 1.0, deltas };
    let outcome = srv.apply_epoch(&update).expect("epoch");
    assert!(
        outcome.refreshed,
        "global drift must still trip the refresh tier: {outcome:?}"
    );
    assert!(outcome.hot_rows > k / 4, "most rows hot: {outcome:?}");
}

/// Engine-level batch application: `apply_epochs` (the landmark steps back
/// to back, then one rejoin and one publish per shard) serves
/// bitwise-identical snapshots to the one-at-a-time `apply_epoch` loop at
/// 1/2/4 shards — and both serve what the two calls compute on a bare
/// server, one `apply_epoch` + `rejoin` per update.
#[test]
fn engine_apply_epochs_bitwise_vs_one_at_a_time_across_shards() {
    let k = 12;
    let hosts = 18;
    let srv = server(k, 5, 181, 0.5);
    let meas = meas_table(hosts, k, 182);
    let updates: Vec<EpochUpdate> = (1..=3)
        .map(|e| drift_in_range(&srv, e as f64, 4, 0, k, 1.0 + 0.01 * e as f64))
        .collect();

    let loop_engine = ShardedEngine::new(srv.clone(), 1, ServiceConfig::default()).expect("engine");
    let loop_ids = loop_engine.join_many(&meas, &meas).expect("admit");
    let loop_outcomes: Vec<EpochOutcome> = updates
        .iter()
        .map(|u| loop_engine.apply_epoch(u).expect("epoch"))
        .collect();
    let loop_rows = served_rows(&loop_engine, &loop_ids);
    let all: Vec<usize> = (0..hosts).collect();
    let (_, two_calls, _) = run_epochs(srv.clone(), &meas, &all, None, &updates, 1);
    for (h, row) in loop_rows.iter().enumerate() {
        let d = two_calls.dim();
        assert_bits_eq(&row[..d], two_calls.outgoing(h), &format!("host {h} out"));
        assert_bits_eq(&row[d..], two_calls.incoming(h), &format!("host {h} in"));
    }

    for shards in [1usize, 2, 4] {
        let engine =
            ShardedEngine::new(srv.clone(), shards, ServiceConfig::default()).expect("engine");
        let ids = engine.join_many(&meas, &meas).expect("admit");
        let admitted = engine.stats().version;
        let outcomes = engine.apply_epochs(&updates).expect("epochs");
        assert_eq!(loop_outcomes, outcomes, "{shards} shards: outcomes");
        assert_eq!(engine.stats().epochs, updates.len() as u64);
        assert_eq!(
            engine.stats().version,
            admitted + shards as u64,
            "{shards} shards: one publish per shard per batch"
        );
        for (h, row) in served_rows(&engine, &ids).iter().enumerate() {
            assert_bits_eq(&loop_rows[h], row, &format!("{shards} shards, host {h}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random partial subsets and drift: subset epochs rejoined by 2/4/7
    /// threads at once are bitwise the one-thread output.
    #[test]
    fn subset_epochs_match_one_thread_bitwise(
        seed in 0u64..1_000,
        epochs in 2usize..4,
        pair_drifts in prop::collection::vec((0usize..6, 0usize..6, 0.98f64..1.05), 1..6),
        subset_masks in prop::collection::vec(0u32..1024, 8),
    ) {
        let k = 10;
        let hosts = 8;
        let srv = server(k, 4, seed, 0.5);
        let meas = meas_table(hosts, k, seed ^ 0xBEEF);
        let affected: Vec<usize> = (0..hosts).collect();
        let observed: Vec<Vec<usize>> = subset_masks
            .iter()
            .enumerate()
            .map(|(h, &m)| mask_subset(m, k, 4, h * 3))
            .collect();
        let updates = pair_drift_epochs(&srv, epochs, &pair_drifts);
        assert_thread_invariant(
            &srv, &meas, &affected, Some(&observed), &updates, "random subset epochs");
    }
}

//! Partial-observed-set and cross-epoch-pipeline bit-identity.
//!
//! Extends the `dag_determinism` suite to the PR-9 planner features:
//!
//! * **Full-coverage subsets** route through the cached full join and are
//!   bitwise identical to the `Observed::All` plan.
//! * **Partial subsets** (the §6.2 grouped subset joins) are bitwise
//!   identical to serial execution of the same plan at every thread
//!   count — parallelism never leaks into the arithmetic.
//! * **Skip elision** under the `coords_current` attestation is a
//!   provable no-op: eliding an untouched host leaves the same bytes a
//!   recompute would have produced.
//! * **Cross-epoch pipelining** (`apply_epochs_pipelined`) is bitwise
//!   identical to back-to-back barriered epochs with the same tables,
//!   at 1/2/4/7 threads.
//! * **Engine batches** (`ShardedEngine::apply_epochs`) serve
//!   bitwise-identical snapshots to the one-epoch-at-a-time loop at
//!   1/2/4 shards.
//!
//! The matrix CI lane (`determinism-stress`) runs this suite across
//! `IDES_LINALG_THREADS` x `IDES_LINALG_KERNEL` configurations.

use ides::service::{NodeId, ServiceConfig, ShardedEngine};
use ides::streaming::dag::PlanStats;
use ides::streaming::{
    EpochOutcome, EpochUpdate, MeasurementDelta, RejoinTables, StalenessPolicy, StreamingServer,
};
use ides::BatchHostVectors;
use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];

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

/// Deterministic per-host observed subsets: host `h` observes
/// `min_len + h % spread` landmarks starting at `h * stride`, wrapping.
/// Sizes stay `>= min_len` so the normal-equation subset solve is
/// well-posed without ridge.
fn observed_subsets(hosts: &[usize], k: usize, min_len: usize, spread: usize) -> Vec<Vec<usize>> {
    hosts
        .iter()
        .map(|&h| {
            let len = (min_len + h % spread).min(k);
            (0..len).map(|i| (h * 3 + i) % k).collect()
        })
        .collect()
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

type EpochLog = Vec<(EpochOutcome, PlanStats)>;

/// Barriered reference driver: one `apply_epoch_planned` per update, with
/// the same `coords_current` upgrade discipline the pipeline applies
/// (false on the priming first epoch, true afterwards).
#[allow(clippy::too_many_arguments)]
fn run_barriered(
    mut srv: StreamingServer,
    meas: &Matrix,
    affected: &[usize],
    observed: Option<&[Vec<usize>]>,
    epochs: &[EpochUpdate],
    threads: usize,
    coords_current_after_first: bool,
) -> (StreamingServer, BatchHostVectors, EpochLog) {
    let mut coords = BatchHostVectors::new();
    srv.join_batch_cached(meas, meas, &mut coords)
        .expect("initial join");
    let mut log = Vec::new();
    for (e, update) in epochs.iter().enumerate() {
        let tables = RejoinTables {
            hosts: affected,
            d_out: meas,
            d_in: meas,
            coords: &mut coords,
            observed,
            coords_current: coords_current_after_first && e > 0,
        };
        let res = srv
            .apply_epoch_planned(update, Some(tables), Some(threads))
            .expect("apply epoch");
        log.push(res);
    }
    (srv, coords, log)
}

/// Pipelined driver: one `apply_epochs_pipelined` call over the batch.
fn run_pipelined(
    mut srv: StreamingServer,
    meas: &Matrix,
    affected: &[usize],
    observed: Option<&[Vec<usize>]>,
    epochs: &[EpochUpdate],
    threads: usize,
) -> (StreamingServer, BatchHostVectors, EpochLog, usize) {
    let mut coords = BatchHostVectors::new();
    srv.join_batch_cached(meas, meas, &mut coords)
        .expect("initial join");
    let tables = RejoinTables {
        hosts: affected,
        d_out: meas,
        d_in: meas,
        coords: &mut coords,
        observed,
        coords_current: false,
    };
    let report = srv
        .apply_epochs_pipelined(epochs, Some(tables), Some(threads))
        .expect("pipelined epochs");
    let overlapped = report.overlapped;
    (srv, coords, report.outcomes, overlapped)
}

#[test]
fn full_coverage_subsets_match_observed_all_bitwise() {
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
        run_barriered(srv.clone(), &meas, &affected, None, &epochs, 2, false);
    let (sub_srv, sub_coords, sub_log) = run_barriered(
        srv.clone(),
        &meas,
        &affected,
        Some(&full_cover),
        &epochs,
        2,
        false,
    );
    assert_eq!(all_log, sub_log, "plans diverged");
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

    let (serial_srv, serial_coords, serial_log) = run_barriered(
        srv.clone(),
        &meas,
        &affected,
        Some(&observed),
        &epochs,
        1,
        false,
    );
    // The subset routing actually grouped partial hosts.
    assert!(serial_log.iter().any(|(_, s)| s.pruning() > 0.0));
    for &threads in &THREAD_COUNTS[1..] {
        let ctx = format!("partial subsets at {threads} threads");
        let (dag_srv, dag_coords, dag_log) = run_barriered(
            srv.clone(),
            &meas,
            &affected,
            Some(&observed),
            &epochs,
            threads,
            false,
        );
        assert_eq!(serial_log, dag_log, "{ctx}: outcomes/stats diverged");
        assert_models_eq(&serial_srv, &dag_srv, &ctx);
        assert_coords_eq(&serial_coords, &dag_coords, &ctx);
    }
}

#[test]
fn skip_elision_is_bitwise_noop() {
    let k = 12;
    let hosts = 10;
    let srv = server(k, 4, 121, 0.5);
    let meas = meas_table(hosts, k, 122);
    let affected: Vec<usize> = (0..hosts).collect();
    // Hosts 0..5 observe only landmarks 6..11 (untouched below); the rest
    // observe the drift range.
    let observed: Vec<Vec<usize>> = (0..hosts)
        .map(|h| {
            if h < 5 {
                (6..k).collect()
            } else {
                (0..6).collect()
            }
        })
        .collect();
    // Localized drift: only landmarks 0..4 move.
    let epochs = [
        drift_in_range(&srv, 1.0, 3, 0, 4, 1.01),
        drift_in_range(&srv, 2.0, 3, 0, 4, 1.02),
    ];

    let (elide_srv, elide_coords, elide_log) = run_barriered(
        srv.clone(),
        &meas,
        &affected,
        Some(&observed),
        &epochs,
        2,
        true, // attests currency after the priming epoch: elision allowed
    );
    let (full_srv, full_coords, full_log) = run_barriered(
        srv.clone(),
        &meas,
        &affected,
        Some(&observed),
        &epochs,
        2,
        false, // never attests: every subset host recomputes every epoch
    );
    // The attested run pruned the untouched hosts on the second epoch…
    assert_eq!(elide_log[0].1.pruned, 0, "priming epoch cannot elide");
    assert_eq!(elide_log[1].1.pruned, 5, "untouched hosts must be elided");
    assert_eq!(full_log[1].1.pruned, 0);
    // …and the bytes are identical anyway: the elision is a true no-op.
    assert_models_eq(&elide_srv, &full_srv, "elide vs recompute");
    assert_coords_eq(&elide_coords, &full_coords, "elide vs recompute");
    // Outcomes (measurement-level accounting) agree even though the plans
    // differ in shape.
    for (a, b) in elide_log.iter().zip(full_log.iter()) {
        assert_eq!(a.0, b.0, "outcomes diverged");
    }
}

#[test]
fn localized_drift_collapses_critical_path() {
    let k = 12;
    let hosts = 8;
    let srv = server(k, 4, 131, 0.5);
    let meas = meas_table(hosts, k, 132);
    let affected: Vec<usize> = (0..hosts).collect();
    // Every host observes only landmarks 6..11; drift hits 0..3.
    let observed: Vec<Vec<usize>> = (0..hosts).map(|_| (6..k).collect()).collect();
    let epochs = [drift_in_range(&srv, 1.0, 3, 0, 4, 1.01)];

    let (_, _, full_log) = run_barriered(srv.clone(), &meas, &affected, None, &epochs, 1, false);
    let (_, _, sub_log) = run_barriered(
        srv.clone(),
        &meas,
        &affected,
        Some(&observed),
        &epochs,
        1,
        false,
    );
    let full = &full_log[0].1;
    let partial = &sub_log[0].1;
    // Observed::All rejoins wait for every absorb; dependency-exact
    // subsets that miss the drift schedule at level 0.
    assert!(full.critical_path > 1, "full plan must serialize: {full:?}");
    assert_eq!(
        partial.critical_path, 1,
        "untouched subsets must plan at level 0: {partial:?}"
    );
    assert!(
        partial.critical_path < full.critical_path,
        "pruned plan critical path {} must beat full plan {}",
        partial.critical_path,
        full.critical_path
    );
    assert!(partial.pruning() > 0.0, "edges must be pruned: {partial:?}");
    assert_eq!(full.pruning(), 0.0);
}

#[test]
fn pipelined_epochs_match_barriered_bitwise() {
    let k = 12;
    let hosts = 14;
    let srv = server(k, 4, 141, 0.5);
    let meas = meas_table(hosts, k, 142);
    let affected: Vec<usize> = (0..hosts).collect();
    // Mix: partial subsets inside and outside the drift range plus one
    // full-coverage host.
    let mut observed = observed_subsets(&affected, k, 5, 4);
    observed[0] = (0..k).collect();
    let epochs: Vec<EpochUpdate> = (1..=3)
        .map(|e| drift_in_range(&srv, e as f64, 3, 0, 6, 1.0 + 0.01 * e as f64))
        .collect();

    for &threads in &THREAD_COUNTS {
        let ctx = format!("pipelined at {threads} threads");
        let (bar_srv, bar_coords, bar_log) = run_barriered(
            srv.clone(),
            &meas,
            &affected,
            Some(&observed),
            &epochs,
            threads,
            true,
        );
        let (pipe_srv, pipe_coords, pipe_log, overlapped) = run_pipelined(
            srv.clone(),
            &meas,
            &affected,
            Some(&observed),
            &epochs,
            threads,
        );
        assert_eq!(
            overlapped,
            epochs.len() - 1,
            "{ctx}: every interior epoch must overlap"
        );
        assert_eq!(bar_log, pipe_log, "{ctx}: outcomes/stats diverged");
        assert_models_eq(&bar_srv, &pipe_srv, &ctx);
        assert_coords_eq(&bar_coords, &pipe_coords, &ctx);
    }
}

#[test]
fn pipelined_without_tables_runs_serially() {
    let k = 10;
    let srv = server(k, 4, 151, 0.5);
    let epochs: Vec<EpochUpdate> = (1..=2)
        .map(|e| drift_in_range(&srv, e as f64, 3, 0, k, 1.0 + 0.01 * e as f64))
        .collect();
    let mut pipe = srv.clone();
    let report = pipe
        .apply_epochs_pipelined(&epochs, None, Some(2))
        .expect("pipelined no-tables");
    assert_eq!(report.overlapped, 0, "nothing to overlap without coords");
    assert_eq!(report.outcomes.len(), 2);
    let mut bar = srv.clone();
    for u in &epochs {
        bar.apply_epoch_planned(u, None, Some(2))
            .expect("barriered");
    }
    assert_models_eq(&bar, &pipe, "no-tables pipeline");
}

/// Under the automatic thread policy a batch smaller than
/// `StalenessPolicy::min_pipeline_hosts` (default 1024) must skip the
/// pipeline worker and still land bitwise on the serial result.
#[test]
fn auto_policy_clamps_small_batches_to_barriered() {
    let k = 10;
    let hosts = 14;
    let srv = server(k, 4, 191, 0.5);
    assert!(hosts < srv.policy().min_pipeline_hosts);
    let meas = meas_table(hosts, k, 192);
    let affected: Vec<usize> = (0..hosts).collect();
    let observed = observed_subsets(&affected, k, 5, 4);
    let epochs: Vec<EpochUpdate> = (1..=3)
        .map(|e| drift_in_range(&srv, e as f64, 4, 0, k, 1.0 + 0.01 * e as f64))
        .collect();

    let mut clamped = srv.clone();
    let mut clamped_coords = BatchHostVectors::new();
    clamped
        .join_batch_cached(&meas, &meas, &mut clamped_coords)
        .expect("initial join");
    let report = clamped
        .apply_epochs_pipelined(
            &epochs,
            Some(RejoinTables {
                hosts: &affected,
                d_out: &meas,
                d_in: &meas,
                coords: &mut clamped_coords,
                observed: Some(&observed),
                coords_current: false,
            }),
            None,
        )
        .expect("clamped batch");
    assert_eq!(
        report.overlapped, 0,
        "small batch must not spawn the worker"
    );

    let (bar_srv, bar_coords, bar_log) = run_barriered(
        srv.clone(),
        &meas,
        &affected,
        Some(&observed),
        &epochs,
        1,
        true,
    );
    assert_eq!(bar_log, report.outcomes, "clamped batch: outcomes/stats");
    assert_models_eq(&bar_srv, &clamped, "clamped batch");
    assert_coords_eq(&bar_coords, &clamped_coords, "clamped batch");
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
    let (outcome, stats) = srv
        .apply_epoch_planned(&update, None, Some(2))
        .expect("epoch");
    assert!(
        !outcome.refreshed,
        "a single hot landmark must absorb, not refresh: {outcome:?}"
    );
    assert_eq!(outcome.hot_rows, 2, "rows 2 and 9 are hot");
    assert_eq!(outcome.absorbed, 2);
    assert_eq!(stats.nodes, 2);
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
    let (outcome, _) = srv
        .apply_epoch_planned(&update, None, Some(2))
        .expect("epoch");
    assert!(
        outcome.refreshed,
        "global drift must still trip the refresh barrier: {outcome:?}"
    );
    assert!(outcome.hot_rows > k / 4, "most rows hot: {outcome:?}");
}

/// Engine-level batch application: `apply_epochs` (pipelined under the
/// writer lock) serves bitwise-identical snapshots to the serial
/// `apply_epoch` loop, and shard replicas agree at 1/2/4 shards.
#[test]
fn engine_apply_epochs_bitwise_vs_serial_loop_and_shards() {
    let k = 12;
    let hosts = 18;
    // The engine batch path runs under the automatic thread policy; zero
    // the pipeline work clamp so this 18-host test still drives the
    // worker hand-off and its overlap accounting.
    let lm = DistanceMatrix::full("lm", meas_table(k, k, 181)).expect("landmark matrix");
    let srv = StreamingServer::new(
        &lm,
        5,
        StalenessPolicy {
            deviation_threshold: 0.5,
            min_pipeline_hosts: 0,
            ..StalenessPolicy::default()
        },
    )
    .expect("server");
    let meas = meas_table(hosts, k, 182);
    let updates: Vec<EpochUpdate> = (1..=3)
        .map(|e| drift_in_range(&srv, e as f64, 4, 0, k, 1.0 + 0.01 * e as f64))
        .collect();

    // One shard: global host ids are its snapshot's slots.
    let collect = |engine: &ShardedEngine, ids: &[NodeId]| -> Vec<Vec<f64>> {
        let snap = engine.snapshots().remove(0);
        ids.iter()
            .map(|id| match id {
                NodeId::Host(s) => {
                    let mut row = snap.host_outgoing(*s).to_vec();
                    row.extend_from_slice(snap.host_incoming(*s));
                    row
                }
                NodeId::Landmark(_) => unreachable!("join returns hosts"),
            })
            .collect()
    };

    let serial_engine =
        ShardedEngine::new(srv.clone(), 1, ServiceConfig::default()).expect("engine");
    let serial_ids = serial_engine.join_many(&meas, &meas).expect("admit");
    let mut serial_outcomes = Vec::new();
    for u in &updates {
        serial_outcomes.push(serial_engine.apply_epoch(u).expect("epoch"));
    }
    let serial_rows = collect(&serial_engine, &serial_ids);

    let batch_engine =
        ShardedEngine::new(srv.clone(), 1, ServiceConfig::default()).expect("engine");
    let batch_ids = batch_engine.join_many(&meas, &meas).expect("admit");
    let batch_outcomes = batch_engine.apply_epochs(&updates).expect("epochs");
    assert_eq!(serial_outcomes, batch_outcomes, "outcomes diverged");
    let batch_rows = collect(&batch_engine, &batch_ids);
    for (h, (a, b)) in serial_rows.iter().zip(batch_rows.iter()).enumerate() {
        assert_bits_eq(a, b, &format!("batched engine, host {h}"));
    }
    // The batch path reports its overlap to the plan totals.
    let totals = batch_engine.epoch_plan_totals();
    assert_eq!(totals.pipelined, updates.len() as u64 - 1);
    assert!(totals.overlap_fraction() > 0.0);

    // Sharded: batch application replicates bitwise at every shard count.
    for shards in [1usize, 2, 4] {
        let engine =
            ShardedEngine::new(srv.clone(), shards, ServiceConfig::default()).expect("engine");
        let ids = engine.join_many(&meas, &meas).expect("admit");
        let outcomes = engine.apply_epochs(&updates).expect("epochs");
        assert_eq!(serial_outcomes, outcomes, "{shards} shards: outcomes");
        for (h, id) in ids.iter().enumerate() {
            let (mut out, inc) = engine.host_coords(*id).expect("coords");
            out.extend(inc);
            assert_bits_eq(&serial_rows[h], &out, &format!("{shards} shards, host {h}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random partial subsets and drift: the pipelined batch is bitwise
    /// identical to barriered epochs at 2/4/7 threads, and barriered
    /// subset plans are bitwise serial.
    #[test]
    fn pipelined_subset_epochs_match_barriered_serial_bitwise(
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
        let updates: Vec<EpochUpdate> = (1..=epochs)
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
            .collect();
        let (ref_srv, ref_coords, ref_log) = run_barriered(
            srv.clone(), &meas, &affected, Some(&observed), &updates, 1, true);
        for &threads in &THREAD_COUNTS[1..] {
            let ctx = format!("{threads} threads");
            let (bar_srv, bar_coords, bar_log) = run_barriered(
                srv.clone(), &meas, &affected, Some(&observed), &updates, threads, true);
            prop_assert_eq!(&ref_log, &bar_log, "barriered log at {}", &ctx);
            assert_models_eq(&ref_srv, &bar_srv, &ctx);
            assert_coords_eq(&ref_coords, &bar_coords, &ctx);
            let (pipe_srv, pipe_coords, pipe_log, overlapped) = run_pipelined(
                srv.clone(), &meas, &affected, Some(&observed), &updates, threads);
            prop_assert_eq!(overlapped, updates.len() - 1);
            prop_assert_eq!(&ref_log, &pipe_log, "pipelined log at {}", &ctx);
            assert_models_eq(&ref_srv, &pipe_srv, &ctx);
            assert_coords_eq(&ref_coords, &pipe_coords, &ctx);
        }
    }
}

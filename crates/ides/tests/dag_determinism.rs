//! DAG-vs-serial bit-identity for planned epoch application.
//!
//! The dependency-DAG executor's contract: the committed state after
//! `StreamingServer::apply_epoch_planned` — factor model, coordinate
//! table, and every subsequently served answer — is **bit-identical to
//! serial application** at any thread count (and, at the engine layer, at
//! any shard count). Parallelism changes when a solve runs, never what it
//! reads or the order its result merges.
//!
//! The matrix CI lane (`determinism-stress`) runs this suite across
//! `IDES_LINALG_THREADS` x `IDES_LINALG_KERNEL` configurations; the
//! explicit-thread tests below additionally pin 1/2/4/7 threads in-process
//! so the guarantee holds regardless of the ambient environment.

use ides::service::{NodeId, ServiceConfig, ShardedEngine};
use ides::streaming::dag::PlanStats;
use ides::streaming::{
    EpochUpdate, MeasurementDelta, RejoinTables, StalenessPolicy, StreamingServer,
};
use ides::BatchHostVectors;
use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;
use proptest::prelude::*;

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

/// Applies `epochs` with an explicit executor thread count and returns the
/// final coordinate table plus the per-epoch outcomes and plan stats.
fn run_planned(
    mut srv: StreamingServer,
    meas: &Matrix,
    affected: &[usize],
    epochs: &[EpochUpdate],
    threads: usize,
) -> (
    StreamingServer,
    BatchHostVectors,
    Vec<(ides::streaming::EpochOutcome, PlanStats)>,
) {
    let mut coords = BatchHostVectors::new();
    srv.join_batch_cached(meas, meas, &mut coords)
        .expect("initial join");
    let mut log = Vec::new();
    for update in epochs {
        let res = srv
            .apply_epoch_planned(
                update,
                Some(RejoinTables::full(affected, meas, meas, &mut coords)),
                Some(threads),
            )
            .expect("apply epoch");
        log.push(res);
    }
    (srv, coords, log)
}

/// Drift `pairs` distinct landmark pairs by the given factor.
fn drift_epoch(srv: &StreamingServer, epoch: f64, pairs: usize, factor: f64) -> EpochUpdate {
    let k = srv.landmark_count();
    let mut deltas = Vec::new();
    for p in 0..pairs {
        let i = (p * 3) % k;
        let j = (p * 5 + 1) % k;
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

#[test]
fn dag_application_is_bitwise_serial_at_any_thread_count() {
    let k = 16;
    let hosts = 40;
    let srv = server(k, 6, 77, 0.5); // absorb tier throughout
    let meas = meas_table(hosts, k, 78);
    let affected: Vec<usize> = (0..hosts).step_by(3).collect();
    let epochs: Vec<EpochUpdate> = (1..=4)
        .map(|e| drift_epoch(&srv, e as f64, 2 + e, 1.0 + 0.01 * e as f64))
        .collect();

    let (serial_srv, serial_coords, serial_log) =
        run_planned(srv.clone(), &meas, &affected, &epochs, 1);
    // The mixed epochs really exercise width: absorbs + rejoins.
    assert!(serial_log.iter().any(|(_, s)| s.max_width > 1));
    for &threads in &THREAD_COUNTS {
        let ctx = format!("{threads} threads");
        let (dag_srv, dag_coords, dag_log) =
            run_planned(srv.clone(), &meas, &affected, &epochs, threads);
        assert_eq!(serial_log, dag_log, "{ctx}: outcomes/stats diverged");
        assert_models_eq(&serial_srv, &dag_srv, &ctx);
        assert_coords_eq(&serial_coords, &dag_coords, &ctx);
        // Answers served from the maintained caches agree bitwise too.
        let mut probe_serial = BatchHostVectors::new();
        let mut probe_dag = BatchHostVectors::new();
        serial_srv
            .join_batch_cached(&meas, &meas, &mut probe_serial)
            .expect("serial probe");
        dag_srv
            .join_batch_cached(&meas, &meas, &mut probe_dag)
            .expect("dag probe");
        assert_coords_eq(&probe_serial, &probe_dag, &format!("{ctx}: probe join"));
    }
}

#[test]
fn refresh_barrier_epoch_stays_bitwise() {
    let k = 12;
    let hosts = 18;
    let srv = server(k, 5, 31, 0.01); // tiny threshold: refresh tier
    let meas = meas_table(hosts, k, 32);
    let affected: Vec<usize> = (0..hosts).collect();
    let epochs = vec![drift_epoch(&srv, 1.0, 8, 1.4)];

    let (serial_srv, serial_coords, serial_log) =
        run_planned(srv.clone(), &meas, &affected, &epochs, 1);
    let (outcome, stats) = &serial_log[0];
    assert!(outcome.refreshed, "drift must cross the refresh threshold");
    // Plan: one barrier node + one rejoin per host, in two groups.
    assert_eq!(stats.nodes, 1 + hosts);
    assert_eq!(stats.groups, 2);
    assert_eq!(stats.max_width, hosts);
    assert_eq!(stats.critical_path, 2);
    for &threads in &THREAD_COUNTS {
        let ctx = format!("refresh at {threads} threads");
        let (dag_srv, dag_coords, dag_log) =
            run_planned(srv.clone(), &meas, &affected, &epochs, threads);
        assert_eq!(serial_log, dag_log, "{ctx}: outcomes/stats diverged");
        assert_models_eq(&serial_srv, &dag_srv, &ctx);
        assert_coords_eq(&serial_coords, &dag_coords, &ctx);
    }
}

#[test]
fn empty_epoch_plans_to_nothing_and_changes_nothing() {
    let mut srv = server(10, 4, 55, 0.5);
    let before = srv.clone();
    let (outcome, stats) = srv
        .apply_epoch_planned(
            &EpochUpdate {
                epoch: 1.0,
                deltas: Vec::new(),
            },
            None,
            Some(4),
        )
        .expect("empty epoch");
    assert_eq!(outcome.applied, 0);
    assert_eq!(outcome.absorbed, 0);
    assert_eq!(stats, PlanStats::default());
    assert_models_eq(&before, &srv, "empty epoch");
}

#[test]
fn repeated_same_row_deltas_still_one_absorb_node() {
    // Many deltas to one landmark pair dedup to two absorb nodes (from +
    // to), not a chain: apply_epoch coalesces per-landmark before
    // planning. The chain path is exercised at the EpochDag level
    // (streaming::dag unit tests); here we pin the planner's shape.
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
    let (outcome, stats) = srv
        .apply_epoch_planned(&update, None, Some(4))
        .expect("epoch");
    assert_eq!(outcome.applied, 5);
    assert_eq!(outcome.absorbed, 2);
    assert_eq!(stats.nodes, 2);
    assert_eq!(stats.groups, 1, "distinct landmarks, one antichain");
    assert_eq!(stats.max_width, 2);
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

    let run = |threads: Option<&str>| -> Vec<Vec<f64>> {
        match threads {
            Some(t) => std::env::set_var("IDES_LINALG_THREADS", t),
            None => std::env::remove_var("IDES_LINALG_THREADS"),
        }
        let engine = ShardedEngine::new(srv.clone(), 1, ServiceConfig::default()).expect("engine");
        let ids = engine.join_many(&meas, &meas).expect("admit hosts");
        for e in 1..=3 {
            let update = drift_epoch(&srv, e as f64, 4, 1.0 + 0.01 * e as f64);
            engine.apply_epoch(&update).expect("epoch");
        }
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

    let baseline = run(Some("1"));
    for t in ["2", "4", "7"] {
        let got = run(Some(t));
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
            let update = drift_epoch(&srv, e as f64, 5, 1.0 + 0.015 * e as f64);
            engine.apply_epoch(&update).expect("epoch");
        }
        ids.iter()
            .map(|&id| {
                let (mut out, inc) = engine.host_coords(id).expect("coords");
                out.extend(inc);
                out
            })
            .collect()
    };

    let single = run(1);
    for shards in [2usize, 4] {
        let got = run(shards);
        for (h, (a, b)) in single.iter().zip(got.iter()).enumerate() {
            assert_bits_eq(a, b, &format!("{shards} shards, host {h}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mixed epochs: DAG output is bitwise serial at 2/4/7 threads.
    #[test]
    fn planned_epochs_match_serial_bitwise(
        seed in 0u64..1_000,
        epochs in 1usize..4,
        pair_drifts in prop::collection::vec((0usize..10, 0usize..10, 0.98f64..1.05), 1..8),
        affected_mask in 0u32..4096,
    ) {
        let k = 10;
        let hosts = 12;
        let srv = server(k, 4, seed, 0.5);
        let meas = meas_table(hosts, k, seed ^ 0xABCD);
        let affected: Vec<usize> = (0..hosts).filter(|h| affected_mask >> h & 1 == 1).collect();
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
        let (serial_srv, serial_coords, serial_log) =
            run_planned(srv.clone(), &meas, &affected, &updates, 1);
        for &threads in &THREAD_COUNTS {
            let (dag_srv, dag_coords, dag_log) =
                run_planned(srv.clone(), &meas, &affected, &updates, threads);
            prop_assert_eq!(&serial_log, &dag_log, "log at {} threads", threads);
            assert_models_eq(&serial_srv, &dag_srv, &format!("{threads} threads"));
            assert_coords_eq(&serial_coords, &dag_coords, &format!("{threads} threads"));
        }
    }
}

//! Concurrency-determinism contract of the serving engine:
//!
//! 1. Replaying the same seeded workload (queries, joins, leaves, drift)
//!    must produce **bit-identical** query answers and final coordinate
//!    tables whether the query segments run on 1 thread or many — the
//!    engine's parallelism must never leak into results.
//! 2. Snapshot reads must be **bit-identical** to direct
//!    `LandmarkModel::join_batch` answers: an admitted host's served
//!    coordinates (and hence every pair estimate, cached or not) carry
//!    exactly the arithmetic of the streaming server's batched cached
//!    join.
//!
//! Like `parallel_eval.rs`, this file is its own test binary so the
//! multi-threaded scenarios cannot interfere with other suites.

use ides::service::replay::{self, ReplayReport};
use ides::service::{NodeId, ServiceConfig, ShardedEngine};
use ides::streaming::{StalenessPolicy, StreamingServer};
use ides::BatchHostVectors;
use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;
use ides_mf::FactorModel;
use ides_netsim::drift::DriftModel;
use ides_netsim::workload::{self, Workload, WorkloadConfig, WorkloadOp};

const LANDMARKS: usize = 14;
const POOL: usize = 24;
const DIM: usize = 6;
const SEED: u64 = 20040427;

struct Setup {
    /// Builds a fresh one-shard engine: global host ids are its slots.
    engine_of: Box<dyn Fn() -> ShardedEngine>,
    workload: Workload,
}

fn setup() -> Setup {
    let ds = ides_datasets::generators::p2psim_like(LANDMARKS + POOL + 5, SEED).expect("dataset");
    let landmarks: Vec<usize> = ds.row_hosts[..LANDMARKS].to_vec();
    let pool: Vec<usize> = ds.row_hosts[LANDMARKS..LANDMARKS + POOL].to_vec();
    let drift = DriftModel::new(0.2, 24.0, SEED);
    let lm = Matrix::from_fn(LANDMARKS, LANDMARKS, |a, b| {
        drift.rtt(&ds.topology, landmarks[a], landmarks[b], 0.0)
    });
    let workload = workload::generate(
        &ds.topology,
        &landmarks,
        &pool,
        &WorkloadConfig {
            seed: SEED,
            requests: 600,
            query_weight: 0.82,
            join_weight: 0.11,
            leave_weight: 0.07,
            drift_epochs: 8,
            drift_amplitude: 0.2,
            ..WorkloadConfig::default()
        },
    );
    let engine_of = move || {
        let server = StreamingServer::new(
            &DistanceMatrix::full("lm", lm.clone()).unwrap(),
            DIM,
            StalenessPolicy::default(),
        )
        .expect("server");
        ShardedEngine::new(server, 1, ServiceConfig::default()).expect("engine")
    };
    Setup {
        engine_of: Box::new(engine_of),
        workload,
    }
}

fn assert_reports_identical(a: &ReplayReport, b: &ReplayReport, context: &str) {
    assert_eq!(a.joins, b.joins, "{context}: joins");
    assert_eq!(a.leaves, b.leaves, "{context}: leaves");
    assert_eq!(a.epochs, b.epochs, "{context}: epochs");
    assert_eq!(a.final_version, b.final_version, "{context}: version");
    assert_eq!(a.answers.len(), b.answers.len(), "{context}: answer count");
    for (i, (x, y)) in a.answers.iter().zip(b.answers.iter()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{context}: answer {i} differs: {x} vs {y}"
        );
    }
}

fn assert_snapshots_identical(a: &ShardedEngine, b: &ShardedEngine, context: &str) {
    let (sa, sb) = (a.snapshots().remove(0), b.snapshots().remove(0));
    assert_eq!(sa.slot_count(), sb.slot_count(), "{context}: slot count");
    assert_eq!(sa.host_count(), sb.host_count(), "{context}: host count");
    for s in 0..sa.slot_count() {
        assert_eq!(sa.is_live(s), sb.is_live(s), "{context}: liveness of {s}");
        for j in 0..sa.dim() {
            assert_eq!(
                sa.host_outgoing(s)[j].to_bits(),
                sb.host_outgoing(s)[j].to_bits(),
                "{context}: slot {s} outgoing[{j}]"
            );
            assert_eq!(
                sa.host_incoming(s)[j].to_bits(),
                sb.host_incoming(s)[j].to_bits(),
                "{context}: slot {s} incoming[{j}]"
            );
        }
    }
    for (x, y) in sa
        .model()
        .x()
        .as_slice()
        .iter()
        .zip(sb.model().x().as_slice())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{context}: model diverged");
    }
}

#[test]
fn replay_is_bit_identical_at_any_thread_count() {
    let s = setup();
    let sequential_engine = (s.engine_of)();
    let sequential = replay::replay(&sequential_engine, &s.workload, 1).expect("replay@1");
    assert!(sequential.joins > 0, "workload must admit hosts");
    assert!(sequential.leaves > 0, "workload must retire hosts");
    assert_eq!(sequential.epochs, 8);
    for threads in [2, 4, 7] {
        let engine = (s.engine_of)();
        let parallel = replay::replay(&engine, &s.workload, threads).expect("replay@N");
        assert_reports_identical(&sequential, &parallel, &format!("{threads} threads"));
        assert_snapshots_identical(&sequential_engine, &engine, &format!("{threads} threads"));
    }
}

#[test]
fn replay_is_bit_identical_with_telemetry_enabled() {
    // Telemetry is observational only: flipping the global enable flag
    // (counters, gauges, timers, sampled spans all recording) must not
    // change a single served bit at any thread count. The baseline
    // replay runs with telemetry off; the 1/2/4-thread replays run with
    // it on and must match bitwise.
    let s = setup();
    let baseline_engine = (s.engine_of)();
    let baseline = replay::replay(&baseline_engine, &s.workload, 1).expect("replay baseline");
    assert!(baseline.joins > 0, "workload must admit hosts");
    ides::telemetry::set_enabled(true);
    for threads in [1, 2, 4] {
        let engine = (s.engine_of)();
        let instrumented = replay::replay(&engine, &s.workload, threads).expect("replay@N");
        assert_reports_identical(
            &baseline,
            &instrumented,
            &format!("telemetry on, {threads} threads"),
        );
        assert_snapshots_identical(
            &baseline_engine,
            &engine,
            &format!("telemetry on, {threads} threads"),
        );
    }
    ides::telemetry::set_enabled(false);
    // The instrumented replays must actually have recorded something —
    // otherwise this test silently stops guarding the claim. (Query
    // totals live in the engine's always-on ServiceStats, not the
    // registry; the registry counts the write-side stages.)
    let snap = ides::telemetry::global().snapshot();
    assert!(
        snap.counter(ides::telemetry::Counter::Epochs) > 0,
        "instrumented replays recorded no epochs"
    );
    // Drain span buffers so a later test in this binary starts clean.
    let spans = ides::telemetry::take_spans();
    assert!(!spans.is_empty(), "instrumented replays recorded no spans");
}

#[test]
fn snapshot_reads_are_bit_identical_to_direct_cached_joins() {
    // Admit a batch of hosts through the engine (coalesced and direct
    // paths mixed), then check every served coordinate — and therefore
    // every pair estimate — against `LandmarkModel::join_batch` run
    // directly on an identically drifted StreamingServer.
    let s = setup();
    let engine = (s.engine_of)();
    let report = replay::replay(&engine, &s.workload, 4).expect("replay");

    // Rebuild the writer-side state independently: a fresh streaming
    // server fed the same drift epochs.
    let ds = ides_datasets::generators::p2psim_like(LANDMARKS + POOL + 5, SEED).expect("dataset");
    let landmarks: Vec<usize> = ds.row_hosts[..LANDMARKS].to_vec();
    let drift = DriftModel::new(0.2, 24.0, SEED);
    let lm = Matrix::from_fn(LANDMARKS, LANDMARKS, |a, b| {
        drift.rtt(&ds.topology, landmarks[a], landmarks[b], 0.0)
    });
    let mut shadow = StreamingServer::new(
        &DistanceMatrix::full("lm", lm).unwrap(),
        DIM,
        StalenessPolicy::default(),
    )
    .expect("shadow server");
    // Collect the last join of every pool host that is still live at the
    // end, applying drift epochs in event order so the shadow model walks
    // the same trajectory as the engine's writer.
    let mut last_join: Vec<Option<(Vec<f64>, Vec<f64>)>> = vec![None; s.workload.pool_size];
    for e in &s.workload.events {
        match &e.op {
            WorkloadOp::Join { host, d_out, d_in } => {
                last_join[*host] = Some((d_out.clone(), d_in.clone()));
            }
            WorkloadOp::Leave { host } => {
                last_join[*host] = None;
            }
            WorkloadOp::Drift(batch) => {
                shadow
                    .apply_epoch(&replay::epoch_update_from_batch(batch))
                    .expect("shadow epoch");
            }
            WorkloadOp::Query { .. } => {}
        }
    }
    let live: Vec<(Vec<f64>, Vec<f64>)> = last_join.into_iter().flatten().collect();
    assert!(!live.is_empty(), "some hosts must survive the churn");
    let snap = engine.snapshots().remove(0);
    assert_eq!(snap.host_count(), live.len(), "live host census");

    // Direct cached join of the surviving hosts' measurements.
    let k = LANDMARKS;
    let d_out = Matrix::from_fn(live.len(), k, |h, l| live[h].0[l]);
    let d_in = Matrix::from_fn(live.len(), k, |h, l| live[h].1[l]);
    let mut direct = BatchHostVectors::new();
    shadow
        .landmark_model()
        .join_batch(&d_out, &d_in, &mut direct)
        .expect("direct join");

    // Each direct row must appear bit-identically among the snapshot's
    // live slots (slot order differs from batch order; match by content
    // of the measurement-determined coordinates).
    let live_slots: Vec<usize> = (0..snap.slot_count())
        .filter(|&s| snap.is_live(s))
        .collect();
    for h in 0..live.len() {
        let found = live_slots.iter().any(|&slot| {
            (0..DIM).all(|j| {
                snap.host_outgoing(slot)[j].to_bits() == direct.outgoing(h)[j].to_bits()
                    && snap.host_incoming(slot)[j].to_bits() == direct.incoming(h)[j].to_bits()
            })
        });
        assert!(found, "direct join of host {h} not served by any live slot");
    }

    // And the pair estimates the engine serves (cache on) equal the dot
    // products of those tables exactly.
    for (i, &slot) in live_slots.iter().enumerate().take(5) {
        for &other in live_slots.iter().skip(i + 1).take(5) {
            let served = engine
                .estimate(NodeId::Host(slot), NodeId::Host(other))
                .expect("estimate");
            let direct_est = FactorModel::dot(snap.host_outgoing(slot), snap.host_incoming(other));
            assert_eq!(served.to_bits(), direct_est.to_bits());
        }
    }
    assert!(report.answers.iter().all(|v| v.is_finite()));
}

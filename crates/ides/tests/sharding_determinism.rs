//! The sharding and chunk-tree contracts:
//!
//! 1. A [`ShardedEngine`] at **any** shard count serves bit-identical
//!    answers — and ends with a bit-identical host coordinate table — to
//!    the one-shard engine replaying the same workload. Sharding is a
//!    layout choice, not a semantics choice.
//! 2. Consecutive snapshots share all but the touched chunks of the
//!    coordinate tree: publish cost is O(changed chunks), not O(hosts).
//! 3. There is no staleness window: a query issued after a publish on
//!    either endpoint's shard returns sees that publish, and an id
//!    recycled after a `leave` serves the new host's coordinates.

use ides::service::{replay, NodeId, ServiceConfig, ShardedEngine, Snapshot};
use ides::streaming::{StalenessPolicy, StreamingServer};
use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;
use ides_mf::FactorModel;
use ides_netsim::workload::{self, Workload, WorkloadConfig};

const LANDMARKS: usize = 12;
const DIM: usize = 5;

struct Setup {
    server: StreamingServer,
    workload: Workload,
}

fn setup() -> Setup {
    let ds = ides_datasets::generators::p2psim_like(60, 404).expect("dataset");
    let landmarks: Vec<usize> = ds.row_hosts[..LANDMARKS].to_vec();
    let pool: Vec<usize> = ds.row_hosts[LANDMARKS..LANDMARKS + 36].to_vec();
    let drift = ides_netsim::drift::DriftModel::new(0.2, 24.0, 404);
    let lm = Matrix::from_fn(LANDMARKS, LANDMARKS, |a, b| {
        drift.rtt(&ds.topology, landmarks[a], landmarks[b], 0.0)
    });
    let server = StreamingServer::new(
        &DistanceMatrix::full("lm", lm).unwrap(),
        DIM,
        StalenessPolicy::default(),
    )
    .expect("server");
    let workload = workload::generate(
        &ds.topology,
        &landmarks,
        &pool,
        &WorkloadConfig {
            seed: 404,
            requests: 700,
            join_weight: 0.14,
            leave_weight: 0.06,
            query_weight: 0.80,
            drift_amplitude: 0.2,
            drift_epochs: 5,
            ..WorkloadConfig::default()
        },
    );
    Setup { server, workload }
}

/// Every live host's `(outgoing ‖ incoming)` row as raw bit patterns,
/// sorted — a layout-independent fingerprint of the coordinate table.
fn coord_multiset(engine: &ShardedEngine) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = Vec::new();
    for snap in engine.snapshots() {
        for s in 0..snap.slot_count() {
            if snap.is_live(s) {
                rows.push(
                    snap.host_outgoing(s)
                        .iter()
                        .chain(snap.host_incoming(s))
                        .map(|v| v.to_bits())
                        .collect(),
                );
            }
        }
    }
    rows.sort();
    rows
}

#[test]
fn sharded_replay_is_bit_identical_to_single_engine_at_any_shard_count() {
    let s = setup();
    let single = ShardedEngine::new(s.server.clone(), 1, ServiceConfig::default()).expect("engine");
    let reference = replay::replay(&single, &s.workload, 2).expect("single replay");
    assert!(reference.joins > 0 && reference.leaves > 0 && reference.epochs == 5);
    let reference_coords = coord_multiset(&single);
    assert!(!reference_coords.is_empty(), "hosts must survive the run");

    for shards in [1usize, 2, 4, 7] {
        let engine = ShardedEngine::new(s.server.clone(), shards, ServiceConfig::default())
            .expect("sharded engine");
        let report = replay::replay(&engine, &s.workload, 2).expect("sharded replay");
        assert_eq!(report.joins, reference.joins, "{shards} shards: joins");
        assert_eq!(report.leaves, reference.leaves, "{shards} shards: leaves");
        assert_eq!(report.epochs, reference.epochs, "{shards} shards: epochs");
        assert_eq!(
            report.answers.len(),
            reference.answers.len(),
            "{shards} shards: answer count"
        );
        for (i, (a, b)) in report.answers.iter().zip(&reference.answers).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{shards} shards: answer {i} diverged ({a} vs {b})"
            );
        }
        assert_eq!(
            coord_multiset(&engine),
            reference_coords,
            "{shards} shards: final coordinate tables diverged"
        );
    }
}

#[test]
fn sharded_replay_is_thread_count_invariant() {
    let s = setup();
    let run_at = |threads: usize| {
        let engine =
            ShardedEngine::new(s.server.clone(), 3, ServiceConfig::default()).expect("engine");
        replay::replay(&engine, &s.workload, threads).expect("replay")
    };
    let one = run_at(1);
    for threads in [2, 5] {
        let other = run_at(threads);
        assert_eq!(one.final_version, other.final_version);
        for (a, b) in one.answers.iter().zip(&other.answers) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "answers diverged at {threads} threads"
            );
        }
    }
}

/// A one-shard engine (global host ids are its shard's slots) and a view
/// of its current snapshot.
fn small_engine() -> ShardedEngine {
    let ds = ides_datasets::generators::p2psim_like(40, 77).expect("dataset");
    let sub: Vec<usize> = (0..10).collect();
    let lm = ds.matrix.submatrix(&sub, &sub);
    let server = StreamingServer::new(&lm, 4, StalenessPolicy::default()).expect("server");
    ShardedEngine::new(server, 1, ServiceConfig::default()).expect("engine")
}

fn snapshot(engine: &ShardedEngine) -> std::sync::Arc<Snapshot> {
    engine.snapshots().remove(0)
}

fn row(seed: u64, k: usize) -> Vec<f64> {
    let mut state = seed;
    (0..k)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * 40.0 + 5.0
        })
        .collect()
}

#[test]
fn consecutive_snapshots_share_all_untouched_chunks() {
    let engine = small_engine();
    // Grow a table that spans many chunks (coords cols = 2·dim = 8, so
    // 256 rows/chunk; 2000 hosts ≈ 8 chunks).
    for i in 0..2000u64 {
        engine.join_direct(&row(i, 10), &row(i + 9000, 10)).unwrap();
    }
    let before = snapshot(&engine);
    let chunks = before.coords().chunk_count();
    assert!(chunks >= 8, "table must span several chunks, got {chunks}");

    // One more admission touches exactly one coordinate chunk: the new
    // snapshot shares every other chunk with its predecessor by pointer.
    engine.join_direct(&row(5000, 10), &row(5001, 10)).unwrap();
    let after = snapshot(&engine);
    assert!(
        !std::sync::Arc::ptr_eq(&before, &after),
        "publish must swap"
    );
    let shared = after.coords().shared_chunks_with(before.coords());
    assert!(
        shared >= chunks - 1,
        "publish copied more than the touched chunk: {shared}/{chunks} shared"
    );

    // A leave flips one liveness bit: again all but one coordinate chunk
    // (none, actually — coords untouched) and all but one live chunk
    // shared.
    let before = after;
    engine.leave(NodeId::Host(3)).unwrap();
    let after = snapshot(&engine);
    assert_eq!(
        after.coords().shared_chunks_with(before.coords()),
        after.coords().chunk_count(),
        "a leave must not copy any coordinate chunk"
    );

    // The snapshots remain independently consistent: the retired slot is
    // dead only in the newer one, and live rows are bit-identical.
    assert!(before.is_live(3) && !after.is_live(3));
    for s in [0usize, 4, 255, 256, 1999] {
        for j in 0..4 {
            assert_eq!(
                before.host_outgoing(s)[j].to_bits(),
                after.host_outgoing(s)[j].to_bits()
            );
        }
    }
}

#[test]
fn estimates_track_snapshot_rows_bit_for_bit_across_churn() {
    let engine = small_engine();
    let mut live: Vec<NodeId> = (0..600u64)
        .map(|i| engine.join_direct(&row(i, 10), &row(i + 7000, 10)).unwrap())
        .collect();
    // Churn: retire every third host, admit replacements (free-list
    // reuse), then spot-check that served estimates equal dots of the
    // published rows exactly.
    let retired: Vec<NodeId> = live.iter().copied().step_by(3).collect();
    for id in &retired {
        engine.leave(*id).unwrap();
    }
    live.retain(|id| !retired.contains(id));
    for i in 0..150u64 {
        live.push(
            engine
                .join_direct(&row(20_000 + i, 10), &row(30_000 + i, 10))
                .unwrap(),
        );
    }
    let snap = snapshot(&engine);
    for (i, &a) in live.iter().enumerate().step_by(37) {
        let b = live[(i * 31 + 7) % live.len()];
        let served = engine.estimate(a, b).unwrap();
        let (NodeId::Host(sa), NodeId::Host(sb)) = (a, b) else {
            unreachable!()
        };
        let direct = FactorModel::dot(snap.host_outgoing(sa), snap.host_incoming(sb));
        assert_eq!(served.to_bits(), direct.to_bits(), "pair ({a:?}, {b:?})");
    }
}

#[test]
fn query_after_a_publish_sees_that_publish() {
    // Same-shard and cross-shard pairs: the first query issued after ANY
    // publish that changes an endpoint's coordinates equals the fresh
    // snapshot's dot — every read form, with no staleness window.
    let s = setup();
    let engine = ShardedEngine::new(s.server, 2, ServiceConfig::default()).expect("engine");
    let a = engine
        .join_direct(&row(1, LANDMARKS), &row(2, LANDMARKS))
        .unwrap();
    let b = engine
        .join_direct(&row(3, LANDMARKS), &row(4, LANDMARKS))
        .unwrap();
    let c = engine
        .join_direct(&row(5, LANDMARKS), &row(6, LANDMARKS))
        .unwrap();
    assert_ne!(engine.shard_of(a), engine.shard_of(b), "cross-shard pair");
    assert_eq!(engine.shard_of(a), engine.shard_of(c), "same-shard pair");
    let before: Vec<f64> = [(a, b), (a, c)]
        .iter()
        .map(|&(x, y)| engine.estimate(x, y).unwrap())
        .collect();
    let held = engine.snapshots();

    // An epoch re-solves every host's coordinates on both shards.
    let deltas = [(0, 1), (1, 0)]
        .map(|(from, to)| ides::streaming::MeasurementDelta {
            from,
            to,
            rtt: 64.0,
        })
        .to_vec();
    let update = ides::streaming::EpochUpdate { epoch: 1.0, deltas };
    engine.apply_epoch(&update).unwrap();
    let mut batch = Vec::new();
    engine
        .estimate_batch(&[(a, b), (a, c)], &mut batch)
        .unwrap();
    for (i, &(x, y)) in [(a, b), (a, c)].iter().enumerate() {
        let after = engine.estimate(x, y).unwrap();
        let (xo, _) = engine.host_coords(x).unwrap();
        let (_, yi) = engine.host_coords(y).unwrap();
        let fresh = FactorModel::dot(&xo, &yi);
        assert_eq!(after.to_bits(), fresh.to_bits(), "stale answer after epoch");
        assert_eq!(batch[i].to_bits(), fresh.to_bits(), "stale batch answer");
        assert_ne!(
            before[i].to_bits(),
            after.to_bits(),
            "epoch must actually move the estimate for this test to bite"
        );
        // A caller-held view keeps answering from the version it pinned.
        let pinned = engine.estimate_on(&held, x, y).unwrap();
        assert_eq!(pinned.to_bits(), before[i].to_bits());
    }
}

#[test]
fn recycled_id_serves_the_new_hosts_coordinates() {
    // leave(id) → estimate(id, ·) errors → a later join recycles the
    // slot → estimates on the recycled id are the NEW host's dot
    // products bit for bit; nothing of the departed host can be served.
    for shards in [1usize, 2, 3] {
        let s = setup();
        let engine =
            ShardedEngine::new(s.server, shards, ServiceConfig::default()).expect("engine");
        let ids: Vec<NodeId> = (0..4u64)
            .map(|i| {
                engine
                    .join_direct(&row(10 + i, LANDMARKS), &row(20 + i, LANDMARKS))
                    .unwrap()
            })
            .collect();
        // Round-robin from a fresh engine: ids are 0, 1, 2, … at any
        // shard count, one publish and one live host per admission.
        assert_eq!(ids[0], NodeId::Host(0));
        assert_eq!(engine.stats().version, 4);
        let census = |e: &ShardedEngine| -> (usize, usize) {
            let snaps = e.snapshots();
            (
                snaps.iter().map(|s| s.host_count()).sum(),
                snaps.iter().map(|s| s.slot_count()).sum(),
            )
        };
        assert_eq!(census(&engine), (4, 4));
        let (gone, peer) = (ids[1], ids[2]);
        let departed = engine.estimate(gone, peer).unwrap();
        assert!(engine.estimate(gone, gone).unwrap().is_finite());
        engine.leave(gone).unwrap();
        assert_eq!(census(&engine), (3, 4), "leave must not shrink the table");
        assert!(engine.estimate(gone, peer).is_err(), "{shards} shards");
        assert!(engine.estimate(peer, gone).is_err(), "{shards} shards");
        assert!(engine.estimate(peer, NodeId::Landmark(0)).is_ok());
        assert!(engine
            .estimate_batch(&[(peer, peer), (gone, peer)], &mut Vec::new())
            .is_err());
        // Double-leave and landmark-leave are rejected.
        assert!(engine.leave(gone).is_err());
        assert!(engine.leave(NodeId::Landmark(1)).is_err());

        // Round-robin routing reaches the freed slot's shard within one
        // round of admissions.
        let newcomer = (0..shards as u64)
            .find(|&i| {
                let id = engine
                    .join_direct(&row(500 + i, LANDMARKS), &row(600 + i, LANDMARKS))
                    .unwrap();
                id == gone
            })
            .expect("freed id must be recycled");
        assert_eq!(census(&engine).0, 4 + newcomer as usize);
        assert_eq!(
            census(&engine).1,
            4 + newcomer as usize,
            "free-listed slot must be reused"
        );
        assert_eq!(engine.stats().leaves, 1);
        assert_eq!(engine.stats().joins, 5 + newcomer);

        // Reference: the newcomer's coordinates from a snapshot-side join
        // of its own measurements, dotted against the peer's rows.
        let d_out = Matrix::from_rows(&[row(500 + newcomer, LANDMARKS)]).unwrap();
        let d_in = Matrix::from_rows(&[row(600 + newcomer, LANDMARKS)]).unwrap();
        let mut fresh = ides::BatchHostVectors::new();
        engine.snapshots()[0]
            .landmark_model()
            .join_batch(&d_out, &d_in, &mut fresh)
            .unwrap();
        // The admitted row is that join, bit for bit.
        let (new_out, new_in) = engine.host_coords(gone).unwrap();
        assert_eq!(
            new_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            fresh
                .outgoing(0)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        assert_eq!(
            new_in.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            fresh
                .incoming(0)
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );
        let (peer_out, peer_in) = engine.host_coords(peer).unwrap();
        let forward = engine.estimate(gone, peer).unwrap();
        let backward = engine.estimate(peer, gone).unwrap();
        assert_eq!(
            forward.to_bits(),
            FactorModel::dot(fresh.outgoing(0), &peer_in).to_bits(),
            "{shards} shards: recycled id, outgoing row"
        );
        assert_eq!(
            backward.to_bits(),
            FactorModel::dot(&peer_out, fresh.incoming(0)).to_bits(),
            "{shards} shards: recycled id, incoming row"
        );
        assert_ne!(forward.to_bits(), departed.to_bits());
    }
}

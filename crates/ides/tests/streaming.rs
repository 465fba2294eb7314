//! Bit-identity contract of the streaming update subsystem:
//! `apply_epoch` (refresh tier) followed by a cached join must be
//! **bit-identical** to a manual fresh partial refit — `als::refine` from
//! the same prior factors with the same sweep budget — followed by a
//! one-shot batched normal-equation join. The streaming layer promises it
//! adds no arithmetic of its own on either the maintenance or the query
//! path.

use ides::streaming::{EpochUpdate, MeasurementDelta, StalenessPolicy, StreamingServer};
use ides::{BatchHostVectors, JoinOptions, JoinSolver};
use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;
use ides_mf::als;

/// Deterministic measurement matrix rows (hosts x k).
fn measurements(hosts: usize, k: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(hosts, k, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64 * 60.0 + 5.0
    })
}

#[test]
fn apply_epoch_then_join_is_bit_identical_to_fresh_partial_refit() {
    let ds = ides_datasets::generators::p2psim_like(25, 6).expect("dataset");
    let sub: Vec<usize> = (0..18).collect();
    let lm = ds.matrix.submatrix(&sub, &sub);
    let policy = StalenessPolicy {
        deviation_threshold: 0.0, // every epoch refreshes
        refresh_row_fraction: 0.0,
        sweep_budget: 2,
        ridge: 0.0,
    };
    let mut server = StreamingServer::new(&lm, 6, policy).expect("server");
    let prior_model = server.model().clone();

    // One epoch of drift over a handful of landmark pairs.
    let mut drifted = lm.values().clone();
    let mut deltas = Vec::new();
    for (step, &(i, j)) in [(0usize, 3usize), (2, 9), (5, 12), (7, 16)]
        .iter()
        .enumerate()
    {
        let rtt = drifted[(i, j)] * (1.0 + 0.04 * (step as f64 + 1.0));
        drifted[(i, j)] = rtt;
        deltas.push(MeasurementDelta {
            from: i,
            to: j,
            rtt,
        });
    }
    let outcome = server
        .apply_epoch(&EpochUpdate { epoch: 1.0, deltas })
        .expect("apply epoch");
    assert!(outcome.refreshed, "threshold 0 must refresh");
    assert_eq!(outcome.sweeps, 2);

    // Manual fresh partial refit: same drifted matrix, same prior factors,
    // same sweep budget, same config.
    let data = DistanceMatrix::full("manual", drifted).expect("matrix");
    let refine_cfg = server.refresh_config();
    let manual = als::refine(&data, &prior_model, refine_cfg).expect("refine");

    // The refreshed factor models agree bitwise.
    for (a, b) in server
        .model()
        .x()
        .as_slice()
        .iter()
        .chain(server.model().y().as_slice())
        .zip(
            manual
                .model
                .x()
                .as_slice()
                .iter()
                .chain(manual.model.y().as_slice()),
        )
    {
        assert_eq!(a.to_bits(), b.to_bits(), "refit factors diverge");
    }

    // And a cached join on the streaming server is bit-identical to a
    // one-shot batched normal-equation join against the manual model.
    let hosts = 9;
    let d_out = measurements(hosts, 18, 42);
    let d_in = measurements(hosts, 18, 43);
    let mut cached = BatchHostVectors::new();
    server
        .landmark_model()
        .join_batch(&d_out, &d_in, &mut cached)
        .expect("cached join");
    let mut ws = ides::projection::JoinWorkspace::new();
    let oneshot = ides::projection::join_hosts_with(
        &mut ws,
        manual.model.x(),
        manual.model.y(),
        &d_out,
        &d_in,
        JoinOptions {
            solver: JoinSolver::NormalEquations,
            ridge: policy.ridge,
        },
    )
    .expect("one-shot join");
    for (h, one) in oneshot.iter().enumerate() {
        let hv = cached.host(h);
        for j in 0..6 {
            assert_eq!(
                hv.outgoing[j].to_bits(),
                one.outgoing[j].to_bits(),
                "outgoing host {h} col {j}"
            );
            assert_eq!(
                hv.incoming[j].to_bits(),
                one.incoming[j].to_bits(),
                "incoming host {h} col {j}"
            );
        }
    }
}

#[test]
fn rejoin_affected_is_identical_to_unsharded_join_rows() {
    // The sharded re-join path (scoped threads under `parallel`, inline
    // otherwise) must scatter exactly the rows an unsharded batch join
    // computes — at any shard count, which the parallel CI lane exercises.
    let ds = ides_datasets::generators::p2psim_like(30, 8).expect("dataset");
    let sub: Vec<usize> = (0..16).collect();
    let lm = ds.matrix.submatrix(&sub, &sub);
    let server = StreamingServer::new(&lm, 5, StalenessPolicy::default()).expect("server");
    let hosts = 23;
    let d_out = measurements(hosts, 16, 7);
    let d_in = measurements(hosts, 16, 8);
    let mut full = BatchHostVectors::new();
    server
        .landmark_model()
        .join_batch(&d_out, &d_in, &mut full)
        .expect("full join");
    // Start from zeroed coordinates and re-join every host through the
    // sharded path.
    let mut coords = BatchHostVectors::new();
    coords.reset_shape(hosts, 5);
    let all: Vec<usize> = (0..hosts).collect();
    for h in &all {
        coords.set_host(*h, &[0.0; 5], &[0.0; 5]);
    }
    server
        .rejoin_affected(&all, &d_out, &d_in, &mut coords)
        .expect("rejoin");
    for h in 0..hosts {
        assert_eq!(coords.host(h), full.host(h), "host {h}");
    }
}

//! Bit-identity contract of the streaming update subsystem:
//! `apply_epoch` (refresh tier) followed by a cached join must be
//! **bit-identical** to a manual fresh partial refit — `als::refine` from
//! the same prior factors with the same sweep budget — followed by a
//! one-shot batched normal-equation join. The streaming layer promises it
//! adds no arithmetic of its own on either the maintenance or the query
//! path.

use ides::streaming::{
    EpochUpdate, MeasurementDelta, RefreshStrategy, StalenessPolicy, StreamingServer,
};
use ides::{BatchHostVectors, JoinOptions, JoinSolver};
use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;
use ides_mf::{als, nmf};

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
    let RefreshStrategy::Als(refine_cfg) = server.refresh_strategy() else {
        panic!("ALS-family server must report an ALS refresh strategy");
    };
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

#[test]
fn nmf_family_refresh_is_bit_identical_to_manual_nmf_refine() {
    // The PR-3 follow-on: an NMF-family server must route the refresh tier
    // through `nmf::refine` — bit-identically to a manual warm refine from
    // the same prior factors — and keep the refreshed factors nonnegative.
    let ds = ides_datasets::generators::p2psim_like(25, 13).expect("dataset");
    let sub: Vec<usize> = (0..15).collect();
    let lm = ds.matrix.submatrix(&sub, &sub);
    let policy = StalenessPolicy {
        deviation_threshold: 0.0, // every epoch refreshes
        refresh_row_fraction: 0.0,
        sweep_budget: 3,
        ridge: 0.0,
    };
    let nmf_cfg = nmf::NmfConfig::new(5);
    let mut server = StreamingServer::with_nmf_config(&lm, nmf_cfg, policy).expect("server");
    assert!(matches!(
        server.refresh_strategy(),
        RefreshStrategy::Nmf(cfg) if cfg.iterations == 3 && cfg.tolerance == 0.0
    ));
    let prior_model = server.model().clone();
    assert!(
        prior_model.x().is_nonnegative(0.0),
        "cold NMF fit nonnegative"
    );

    let mut drifted = lm.values().clone();
    let mut deltas = Vec::new();
    for (step, &(i, j)) in [(1usize, 4usize), (3, 11), (6, 13)].iter().enumerate() {
        let rtt = drifted[(i, j)] * (1.0 + 0.05 * (step as f64 + 1.0));
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
    assert!(outcome.refreshed);
    assert_eq!(outcome.sweeps, 3);

    let data = DistanceMatrix::full("manual", drifted).expect("matrix");
    let RefreshStrategy::Nmf(refine_cfg) = server.refresh_strategy() else {
        panic!("NMF-family server must report an NMF refresh strategy");
    };
    let manual = nmf::refine(&data, &prior_model, refine_cfg).expect("refine");
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
        assert_eq!(a.to_bits(), b.to_bits(), "refreshed NMF factors diverged");
    }
    // Multiplicative updates preserve nonnegativity through the refresh.
    assert!(server.model().x().is_nonnegative(0.0));
    assert!(server.model().y().is_nonnegative(0.0));

    // Cached joins keep working from the refreshed nonnegative model.
    let d_out = measurements(4, 15, 21);
    let d_in = measurements(4, 15, 22);
    let mut joined = BatchHostVectors::new();
    server
        .landmark_model()
        .join_batch(&d_out, &d_in, &mut joined)
        .expect("cached join");
    assert_eq!(joined.len(), 4);
}

#[test]
fn nmf_family_absorb_tier_keeps_factors_nonnegative() {
    // The PR-4 follow-on: the absorb tier of an NMF-family server re-solves
    // drifted landmark rows by NNLS, so factors stay nonnegative *between*
    // refreshes — not just after the next warm `nmf::refine`.
    let ds = ides_datasets::generators::p2psim_like(30, 41).expect("dataset");
    let sub: Vec<usize> = (0..16).collect();
    let lm = ds.matrix.submatrix(&sub, &sub);
    let policy = StalenessPolicy {
        deviation_threshold: 0.9, // never refresh: every epoch absorbs
        refresh_row_fraction: 1.0,
        sweep_budget: 2,
        ridge: 0.0,
    };
    let mut server =
        StreamingServer::with_nmf_config(&lm, nmf::NmfConfig::new(5), policy).expect("server");
    // Drive a dozen absorb epochs with meaningful drift on varied pairs.
    for step in 0..12usize {
        let i = (step * 5 + 1) % 16;
        let j = (step * 7 + 3) % 16;
        if i == j {
            continue;
        }
        let rtt = server.landmark_matrix()[(i, j)] * (1.0 + 0.08 * ((step % 5) as f64 - 2.0));
        let outcome = server
            .apply_epoch(&EpochUpdate {
                epoch: step as f64,
                deltas: vec![MeasurementDelta {
                    from: i,
                    to: j,
                    rtt,
                }],
            })
            .expect("absorb epoch");
        assert!(!outcome.refreshed, "epoch {step} must stay on absorb tier");
        assert!(
            server.model().x().is_nonnegative(0.0),
            "outgoing factors went negative after absorb epoch {step}"
        );
        assert!(
            server.model().y().is_nonnegative(0.0),
            "incoming factors went negative after absorb epoch {step}"
        );
    }
    assert_eq!(server.refreshes(), 0);
    assert!(server.absorbed() > 0, "absorb tier must have run");
    // Every absorb epoch factors the Grams afresh from the (NNLS-resolved)
    // factors, so a cached join is bit-identical to a fresh factorization
    // of the current model.
    let fresh_y =
        ides_linalg::solve::CachedGram::factor(server.model().y(), policy.ridge).expect("gram");
    let d_out = measurements(3, 16, 77);
    let mut cached = BatchHostVectors::new();
    server
        .landmark_model()
        .join_batch(&d_out, &measurements(3, 16, 78), &mut cached)
        .expect("cached join");
    let mut fresh = d_out.matmul(server.model().y()).expect("rhs");
    fresh_y.solve_rows_in_place(&mut fresh).expect("solve");
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(cached.outgoing_matrix()), bits(&fresh));
}

#[test]
fn nmf_absorb_honors_the_ridge() {
    // With StalenessPolicy::ridge > 0 the NNLS absorb tier must solve the
    // ridge-regularized problem min ‖Yx − b‖² + λ‖x‖² s.t. x ≥ 0 — i.e.
    // Lawson–Hanson on the augmented system [Y; √λ·I] — not the
    // unregularized one the λ knob exists to prevent.
    let ds = ides_datasets::generators::p2psim_like(25, 51).expect("dataset");
    let sub: Vec<usize> = (0..14).collect();
    let lm = ds.matrix.submatrix(&sub, &sub);
    let ridge = 0.3;
    let policy = StalenessPolicy {
        deviation_threshold: 0.9, // absorb tier only
        refresh_row_fraction: 1.0,
        sweep_budget: 2,
        ridge,
    };
    let mut server =
        StreamingServer::with_nmf_config(&lm, nmf::NmfConfig::new(4), policy).expect("server");
    let prior = server.model().clone();
    let (i, j) = (2usize, 9usize);
    let rtt = server.landmark_matrix()[(i, j)] * 1.06;
    let outcome = server
        .apply_epoch(&EpochUpdate {
            epoch: 1.0,
            deltas: vec![MeasurementDelta {
                from: i,
                to: j,
                rtt,
            }],
        })
        .expect("absorb epoch");
    assert!(!outcome.refreshed);

    // Manual augmented-system NNLS for the *first* absorbed landmark
    // (index i < j, absorbed in sorted order against the prior factors).
    let k = 14;
    let d = 4;
    let mut drifted = lm.values().clone();
    drifted[(i, j)] = rtt;
    let aug = Matrix::from_fn(k + d, d, |r, c| {
        if r < k {
            prior.y()[(r, c)]
        } else if r - k == c {
            ridge.sqrt()
        } else {
            0.0
        }
    });
    let mut rhs: Vec<f64> = (0..k).map(|c| drifted[(i, c)]).collect();
    rhs.resize(k + d, 0.0);
    let manual = ides_linalg::nnls::nnls(&aug, &rhs).expect("manual ridge NNLS");
    for (c, &want) in manual.iter().enumerate() {
        assert_eq!(
            server.model().outgoing(i)[c].to_bits(),
            want.to_bits(),
            "absorbed outgoing row must be the ridge-NNLS solution (col {c})"
        );
        assert!(want >= 0.0);
    }
    // And it must differ from the unregularized solution whenever the
    // ridge actually binds (it does at λ=0.3 on this system).
    let plain = ides_linalg::nnls::nnls(prior.y(), &rhs[..k]).expect("plain NNLS");
    assert!(
        manual
            .iter()
            .zip(plain.iter())
            .any(|(a, b)| (a - b).abs() > 1e-12),
        "ridge had no effect — test scenario too weak"
    );
}

#[test]
fn nmf_family_full_refit_uses_nmf() {
    let ds = ides_datasets::generators::gnp_like(14, 19).expect("dataset");
    let policy = StalenessPolicy::default();
    let cfg = nmf::NmfConfig::new(4);
    let mut server = StreamingServer::with_nmf_config(&ds.matrix, cfg, policy).expect("server");
    server.full_refit().expect("full refit");
    // A cold NMF refit from the same matrix must reproduce the factors.
    let manual = nmf::fit(&ds.matrix, cfg).expect("manual fit");
    for (a, b) in server
        .model()
        .x()
        .as_slice()
        .iter()
        .zip(manual.model.x().as_slice().iter())
    {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    assert_eq!(server.refreshes(), 1);
}

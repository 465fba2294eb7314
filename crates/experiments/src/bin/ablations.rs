//! Ablations of design choices that live code still makes. README
//! §"Ablations" holds their readings and the verdicts on the alternatives
//! that lost and were deleted.
//!
//! 1. **Join solver**: QR vs the paper's normal equations on the SVD
//!    model, then NNLS vs QR on the NMF model — accuracy on the same
//!    joins.
//! 2. **Relaxed architecture**: accuracy vs the number of reference nodes
//!    `k` an ordinary host measures (k ≥ d; larger k → better joins).
//! 3. **NMF sweep budget**: error after {25, 50, 100, 200, 400} sweeps
//!    from the random start (early stopping off).
//!
//! Usage: `ablations [solver|relaxed|nmf]` (default: all).

use ides::eval::evaluate_ides;
use ides::projection::{JoinOptions, JoinSolver};
use ides::system::{split_landmarks, IdesConfig, InformationServer};
use ides_experiments::{arg1, seed, Dataset};
use ides_mf::metrics::{modified_relative_error, Cdf};
use ides_mf::nmf::{self, NmfConfig};

fn solver_ablation() {
    println!("\n== join-solver ablation (NLANR-like, 20 landmarks, d=8) ==");
    let ds = Dataset::Nlanr.generate(seed());
    let n = ds.matrix.rows();
    let (landmarks, ordinary) = split_landmarks(n, 20.min(n - 2), seed());
    let (svd, nmf) = (IdesConfig::new(8), IdesConfig::nmf(8));
    for (label, mut config, solver) in [
        ("QR", svd, JoinSolver::Qr),
        ("normal equations (paper)", svd, JoinSolver::NormalEquations),
        ("NNLS on NMF", nmf, JoinSolver::NonNegative),
        ("QR on NMF", nmf, JoinSolver::Qr),
    ] {
        config.join = JoinOptions { solver, ridge: 0.0 };
        let r = evaluate_ides(&ds.matrix, &landmarks, &ordinary, config).expect("evaluation");
        let build = r.build_seconds;
        let cdf = r.into_cdf();
        println!(
            "  {label:<26} median {:.4}  p90 {:.4}  build {build:.3}s",
            cdf.median(),
            cdf.p90(),
        );
    }
}

fn relaxed_ablation() {
    println!("\n== relaxed-architecture ablation: accuracy vs k reference nodes (d=8) ==");
    let ds = Dataset::Nlanr.generate(seed());
    let n = ds.matrix.rows();
    let m = 30.min(n - 2);
    let (landmarks, ordinary) = split_landmarks(n, m, seed());
    let lm = ds.matrix.submatrix(&landmarks, &landmarks);
    let server = InformationServer::build(&lm, IdesConfig::new(8)).expect("server");
    println!("  (k of {m} landmarks measured per host; evaluated on ordinary pairs)");
    for k in [8usize, 10, 12, 16, 20, 30] {
        if k > m {
            continue;
        }
        // One workspace across all partial joins: the gathered reference
        // submatrices and solver scratch are reused host to host.
        let mut ws = ides::projection::JoinWorkspace::new();
        let mut joined = Vec::new();
        for (hi, &h) in ordinary.iter().enumerate() {
            // Deterministic per-host subset: rotate through the landmarks.
            let observed: Vec<usize> = (0..k).map(|t| (hi + t * m / k) % m).collect();
            let mut obs_sorted = observed.clone();
            obs_sorted.sort_unstable();
            obs_sorted.dedup();
            let d_out: Vec<f64> = obs_sorted
                .iter()
                .map(|&i| ds.matrix.get(h, landmarks[i]).unwrap())
                .collect();
            let d_in: Vec<f64> = obs_sorted
                .iter()
                .map(|&i| ds.matrix.get(landmarks[i], h).unwrap())
                .collect();
            if let Ok(v) = server.join_partial_with(&mut ws, &obs_sorted, &d_out, &d_in) {
                joined.push((h, v));
            }
        }
        let mut errors = Vec::new();
        for (i, (hi, vi)) in joined.iter().enumerate() {
            for (j, (hj, vj)) in joined.iter().enumerate() {
                if i != j {
                    if let Some(actual) = ds.matrix.get(*hi, *hj) {
                        if actual > 0.0 {
                            errors.push(modified_relative_error(actual, vi.distance_to_host(vj)));
                        }
                    }
                }
            }
        }
        let cdf = Cdf::new(errors);
        println!(
            "  k={k:<3} median {:.4}  p90 {:.4}",
            cdf.median(),
            cdf.p90()
        );
    }
}

fn nmf_ablation() {
    println!("\n== NMF sweep ablation (NLANR-like, d=10, fixed sweep budgets) ==");
    let ds = Dataset::Nlanr.generate(seed());
    let norm = ds.matrix.values().frobenius_norm();
    for sweeps in [25usize, 50, 100, 200, 400] {
        let cfg = NmfConfig {
            iterations: sweeps,
            tolerance: 0.0,
            ..NmfConfig::new(10)
        };
        let fit = nmf::fit(&ds.matrix, cfg).expect("nmf fit");
        let rel = fit.error_trace.last().unwrap().sqrt() / norm;
        println!("  sweeps={sweeps:<4} relative-F error {rel:.5}");
    }
}

fn main() {
    println!("# Design-choice ablations (README §\"Ablations\")");
    match arg1().as_deref() {
        Some("solver") => solver_ablation(),
        Some("relaxed") => relaxed_ablation(),
        Some("nmf") => nmf_ablation(),
        Some(other) => {
            eprintln!("unknown ablation {other:?}");
            std::process::exit(2);
        }
        None => {
            solver_ablation();
            relaxed_ablation();
            nmf_ablation();
        }
    }
}

//! Ablations of the design choices called out in DESIGN.md §5:
//!
//! 1. **Join solver**: QR vs the paper's normal equations vs NNLS —
//!    accuracy on the same joins.
//! 2. **Landmark selection**: random (paper) vs greedy k-center spread.
//! 3. **Relaxed architecture**: accuracy vs the number of reference nodes
//!    `k` an ordinary host measures (k ≥ d; larger k → better joins).
//! 4. **NMF sweep budget**: error after {25, 50, 100, 200, 400} sweeps
//!    (early stopping off), random vs SVD warm start.
//!
//! Usage: `ablations [solver|landmarks|relaxed|nmf]` (default: all).

use ides::eval::evaluate_ides;
use ides::projection::{JoinOptions, JoinSolver};
use ides::system::{
    select_random_landmarks, select_spread_landmarks, split_landmarks, IdesConfig,
    InformationServer,
};
use ides_experiments::{arg1, seed, Dataset};
use ides_mf::metrics::{modified_relative_error, Cdf};
use ides_mf::nmf::{self, NmfConfig, NmfInit};

fn solver_ablation() {
    println!("\n== join-solver ablation (NLANR-like, 20 landmarks, d=8) ==");
    let ds = Dataset::Nlanr.generate(seed());
    let n = ds.matrix.rows();
    let (landmarks, ordinary) = split_landmarks(n, 20.min(n - 2), seed());
    for (label, solver) in [
        ("QR", JoinSolver::Qr),
        ("normal equations (paper)", JoinSolver::NormalEquations),
        ("NNLS", JoinSolver::NonNegative),
    ] {
        let mut config = IdesConfig::new(8);
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

fn landmark_ablation() {
    println!("\n== landmark-selection ablation (NLANR-like, d=8) ==");
    let ds = Dataset::Nlanr.generate(seed());
    let n = ds.matrix.rows();
    for m in [15usize, 20, 30] {
        if m + 2 >= n {
            continue;
        }
        let random = select_random_landmarks(n, m, seed());
        let spread = select_spread_landmarks(&ds.matrix, m);
        for (label, landmarks) in [("random", random), ("k-center spread", spread)] {
            let ordinary: Vec<usize> = (0..n).filter(|i| !landmarks.contains(i)).collect();
            let r = evaluate_ides(&ds.matrix, &landmarks, &ordinary, IdesConfig::new(8))
                .expect("evaluation");
            let cdf = r.into_cdf();
            println!(
                "  m={m:<3} {label:<16} median {:.4}  p90 {:.4}",
                cdf.median(),
                cdf.p90()
            );
        }
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
    println!("\n== NMF sweep/init ablation (NLANR-like, d=10, fixed sweep budgets) ==");
    let ds = Dataset::Nlanr.generate(seed());
    let norm = ds.matrix.values().frobenius_norm();
    for init in [NmfInit::Svd, NmfInit::Random] {
        for sweeps in [25usize, 50, 100, 200, 400] {
            let cfg = NmfConfig {
                iterations: sweeps,
                tolerance: 0.0,
                init,
                ..NmfConfig::new(10)
            };
            let fit = nmf::fit(&ds.matrix, cfg).expect("nmf fit");
            let rel = fit.error_trace.last().unwrap().sqrt() / norm;
            println!("  init={init:?} sweeps={sweeps:<4} relative-F error {rel:.5}");
        }
    }
}

fn weighting_ablation() {
    use ides_mf::als::{self, AlsConfig, WeightScheme};
    use ides_mf::metrics::reconstruction_errors;
    println!("\n== error-weighting ablation: ALS objective (NLANR-like, d=10) ==");
    println!("  (uniform = paper's Eq. 7; inverse-square = GNP's relative objective)");
    let ds = Dataset::Nlanr.generate(seed());
    for (label, weights) in [
        ("uniform (Eq. 7)", WeightScheme::Uniform),
        ("1/D", WeightScheme::InverseDistance),
        ("1/D^2 (relative)", WeightScheme::InverseSquare),
    ] {
        let fit = als::fit(
            &ds.matrix,
            AlsConfig {
                weights,
                sweeps: 25,
                ..AlsConfig::new(10)
            },
        )
        .expect("als fit");
        let cdf = Cdf::new(reconstruction_errors(&fit.model, &ds.matrix));
        println!(
            "  {label:<18} median rel-err {:.4}  p90 {:.4}",
            cdf.median(),
            cdf.p90()
        );
    }
}

fn main() {
    println!("# Design-choice ablations (DESIGN.md §5)");
    match arg1().as_deref() {
        Some("solver") => solver_ablation(),
        Some("landmarks") => landmark_ablation(),
        Some("relaxed") => relaxed_ablation(),
        Some("nmf") => nmf_ablation(),
        Some("weighting") => weighting_ablation(),
        Some(other) => {
            eprintln!("unknown ablation {other:?}");
            std::process::exit(2);
        }
        None => {
            solver_ablation();
            landmark_ablation();
            relaxed_ablation();
            nmf_ablation();
            weighting_ablation();
        }
    }
}

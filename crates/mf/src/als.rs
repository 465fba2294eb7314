//! Alternating least squares factorization (extension).
//!
//! The paper's two learners each have a gap: SVD is the global optimum of
//! Eq. 7 but cannot handle missing entries; NMF handles missing entries
//! but is constrained nonnegative and converges only to local minima.
//! ALS fills the gap discussed in the paper's
//! §4.2: minimize the same squared error, unconstrained, by alternating
//! exact least-squares solves —
//!
//! ```text
//! X_i ← argmin_u Σ_{j observed} (D_ij − u · Y_j)²    (row-wise LS)
//! Y_j ← argmin_u Σ_{i observed} (D_ij − X_i · u)²
//! ```
//!
//! Each half-step *is* a batched IDES host join (Eqs. 13–14): the rows
//! being solved are the hosts, the fixed factor is the landmark design,
//! and consecutive rows that observe the same columns (every row, on
//! complete data) share one Gram, one Cholesky factorization and one GEMM
//! of right-hand sides. So ALS is also the natural "re-fit everything"
//! operation for a long-running IDES deployment. The sweeps run on the
//! loop NMF shares (`crate::sweeps`); only the per-row solve differs. Each
//! row's bits are those of a one-row ridge solve while its system has at
//! most 256 observed entries (the GEMM's `KC` depth); past that the
//! right-hand side is summed in 256-deep panels and may move in its last
//! bits.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ides_datasets::DistanceMatrix;
use ides_linalg::{random, LinalgError, Matrix};

use crate::error::Result;
use crate::model::FactorModel;
use crate::sweeps::{self, Step};

/// Configuration for the ALS factorizer.
#[derive(Debug, Clone, Copy)]
pub struct AlsConfig {
    /// Target dimensionality `d`.
    pub dim: usize,
    /// Full X-then-Y sweeps.
    pub sweeps: usize,
    /// Ridge term keeping row solves well-posed when a host has fewer than
    /// `d` observed entries.
    pub ridge: f64,
    /// RNG seed for the initialization.
    pub seed: u64,
    /// Stop early when the relative error improvement per sweep falls
    /// below this (0 disables).
    pub tolerance: f64,
}

impl AlsConfig {
    /// Sensible defaults: 30 sweeps, tiny ridge.
    pub fn new(dim: usize) -> Self {
        AlsConfig {
            dim,
            sweeps: 30,
            ridge: 1e-8,
            seed: 4242,
            tolerance: 1e-8,
        }
    }
}

/// Result of an ALS fit.
#[derive(Debug, Clone)]
pub struct AlsFit {
    /// The fitted factor model.
    pub model: FactorModel,
    /// Squared observed-entry error after each sweep.
    pub error_trace: Vec<f64>,
}

/// Factors a (possibly incomplete) distance matrix by ALS; a missing entry
/// is never read.
pub fn fit(data: &DistanceMatrix, config: AlsConfig) -> Result<AlsFit> {
    sweeps::validate(data.values(), config.dim)?;
    let (x, y) = initial_factors(data, config);
    sweep(data, x, y, config)
}

/// [`fit`]'s starting factors: scaled to the observed cells and random
/// from `config.seed` (sign-free: ALS is unconstrained).
fn initial_factors(data: &DistanceMatrix, config: AlsConfig) -> (Matrix, Matrix) {
    let (m, n) = data.shape();
    let k = config.dim.min(m).min(n);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let scale = sweeps::start_scale(data.values(), Some(data.mask()), k);
    let x = random::uniform(m, k, 0.1 * scale, scale, &mut rng);
    let y = random::uniform(n, k, 0.1 * scale, scale, &mut rng);
    (x, y)
}

/// Warm-start **partial refit**: continues ALS from an existing factor
/// model instead of a fresh random initialization, running at most
/// `config.sweeps` full X-then-Y sweeps.
///
/// This is the streaming-update workhorse: when a slab of the landmark
/// matrix drifts, a small sweep budget (1–3) from the current factors
/// re-converges at a fraction of a cold fit's cost, because each half-step
/// is an exact least-squares solve and the start point is already near the
/// optimum. Entirely deterministic — no RNG is consulted — so a refit from
/// the same `(data, model, config)` is bit-reproducible, which is what
/// lets `ides`' `apply_epoch` promise joins bit-identical to a manual
/// refit with the same budget. `config.dim` and `config.seed` are ignored
/// in favor of the model's own dimensionality. Runs the same
/// allocation-free sweeps as [`fit`].
pub fn refine(data: &DistanceMatrix, model: &FactorModel, config: AlsConfig) -> Result<AlsFit> {
    sweeps::check_model(data.values(), model)?;
    sweep(data, model.x().clone(), model.y().clone(), config)
}

/// Runs the shared sweep loop with the ridge step.
fn sweep(data: &DistanceMatrix, x: Matrix, y: Matrix, config: AlsConfig) -> Result<AlsFit> {
    if config.ridge < 0.0 {
        return Err(LinalgError::InvalidArgument("ridge lambda must be nonnegative").into());
    }
    let step = Step::Ridge {
        lambda: config.ridge,
    };
    let (d, mask) = (data.values(), sweeps::observed(data));
    let (model, error_trace) = sweeps::run(d, mask, x, y, step, config.sweeps, config.tolerance)?;
    Ok(AlsFit { model, error_trace })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DistanceEstimator;
    use crate::nmf::{self, NmfConfig};
    use ides_linalg::{cholesky, solve};

    fn low_rank(n: usize) -> Matrix {
        let b = Matrix::from_fn(n, 3, |i, j| 1.0 + ((i * 3 + j) as f64 * 0.41).sin());
        let c = Matrix::from_fn(3, n, |i, j| 1.0 + ((i * 5 + j) as f64 * 0.23).cos());
        b.matmul(&c).unwrap()
    }

    /// Ridge least squares of one row, `x = (AᵀA + λI)⁻¹ Aᵀ b`, falling
    /// back to the pseudo-inverse when the Gram is indefinite.
    fn lstsq_ridge(a: &Matrix, b: &[f64], lambda: f64) -> Vec<f64> {
        let mut ata = a.tr_matmul(a).unwrap();
        for i in 0..ata.rows() {
            ata[(i, i)] += lambda;
        }
        let atb = a.tr_matvec(b).unwrap();
        match cholesky::cholesky(&ata) {
            Ok(c) => c.solve(&atb).unwrap(),
            Err(_) => solve::lstsq_normal(a, b).unwrap(),
        }
    }

    /// The per-row ALS the batched half-steps replaced, kept as the
    /// oracle: every row gathers its own system and solves it alone
    /// through `lstsq_ridge`, X rows then Y rows, for `config.sweeps`.
    fn per_row_sweeps(
        data: &DistanceMatrix,
        (mut x, mut y): (Matrix, Matrix),
        config: AlsConfig,
    ) -> (Matrix, Matrix) {
        let (d, mask) = (data.values(), data.mask());
        let (dt, mask_t) = (d.transpose(), mask.transpose());
        let half = |d: &Matrix, mask: &Matrix, fixed: &Matrix, out: &mut Matrix| {
            for i in 0..d.rows() {
                let obs: Vec<usize> = (0..d.cols()).filter(|&j| mask[(i, j)] == 1.0).collect();
                if !obs.is_empty() {
                    let a = fixed.select_rows(&obs);
                    let b: Vec<f64> = obs.iter().map(|&j| d[(i, j)]).collect();
                    out.set_row(i, &lstsq_ridge(&a, &b, config.ridge));
                }
            }
        };
        for _ in 0..config.sweeps {
            half(d, mask, &y, &mut x);
            half(&dt, &mask_t, &x, &mut y);
        }
        (x, y)
    }

    /// Largest deviation of a batched factor from the per-row oracle's,
    /// relative to the factor's largest entry (0 when all are bit-equal),
    /// over `fit` from its random start and `refine` from a perturbed one.
    fn deviation_from_per_row(data: &DistanceMatrix, config: AlsConfig) -> f64 {
        let (x0, y0) = initial_factors(data, config);
        let warm = FactorModel::new(x0.map(|v| v * 1.1), y0.map(|v| v * 0.9)).unwrap();
        let warm_start = (warm.x().clone(), warm.y().clone());
        let runs = [
            (fit(data, config), per_row_sweeps(data, (x0, y0), config)),
            (
                refine(data, &warm, config),
                per_row_sweeps(data, warm_start, config),
            ),
        ];
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let factors = runs
            .iter()
            .map(|(got, want)| (&got.as_ref().unwrap().model, want));
        let pairs = factors.flat_map(|(got, (x, y))| [(got.x(), x), (got.y(), y)]);
        pairs
            .filter(|(a, b)| bits(a) != bits(b))
            .map(|(a, b)| a.max_abs_diff(b) / b.max_abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn batched_half_steps_match_per_row_solves_bitwise() {
        // History oracle.
        // Every system here has at most 256 observed entries, so each row
        // must carry the bits of its own one-row solve: on complete data
        // (one run per half-step) at d <= 16 and past it, and on masked
        // data (runs broken by rows missing other columns).
        let complete = ides_datasets::generators::p2psim_like(40, 3)
            .unwrap()
            .matrix;
        let mut mask = Matrix::filled(40, 40, 1.0);
        for (i, j) in [
            (10, 3),
            (11, 3),
            (12, 3),
            (20, 6),
            (21, 0),
            (25, 4),
            (23, 25),
        ] {
            mask[(i, j)] = 0.0;
        }
        let masked = DistanceMatrix::with_mask("masked", complete.values().clone(), mask).unwrap();
        for ridge in [0.0, 1e-8, 0.1] {
            for (data, dim) in [(&complete, 5), (&complete, 20), (&masked, 5)] {
                let config = AlsConfig {
                    sweeps: 3,
                    tolerance: 0.0,
                    ridge,
                    ..AlsConfig::new(dim)
                };
                let dev = deviation_from_per_row(data, config);
                assert_eq!(dev, 0.0, "{} at {config:?}", data.name());
            }
        }
    }

    #[test]
    fn batched_half_steps_past_256_entries_stay_within_1e9() {
        // History oracle.
        // 300 x 300 complete P2PSim-like data at the paper's d = 10: each
        // system has 300 rows, so the right-hand sides are summed in
        // 256-deep panels and may move in their last bits — never by more
        // than 1e-9 of the factor's scale. (A factor the data leaves
        // undetermined, e.g. d > rank on an exactly low-rank matrix with a
        // 1e-8 ridge, amplifies any last-bit difference; the per-row path
        // is that sensitive to its own summation order too.)
        let data = ides_datasets::generators::p2psim_like(300, 5)
            .unwrap()
            .matrix;
        let config = AlsConfig {
            sweeps: 2,
            tolerance: 0.0,
            ..AlsConfig::new(10)
        };
        let dev = deviation_from_per_row(&data, config);
        assert!(dev <= 1e-9, "relative deviation {dev}");
    }

    #[test]
    fn recovers_exact_low_rank() {
        // Engine contract.
        let d = DistanceMatrix::full("lr", low_rank(14)).unwrap();
        let fit = fit(&d, AlsConfig::new(3)).unwrap();
        let rel =
            (&fit.model.reconstruct() - d.values()).frobenius_norm() / d.values().frobenius_norm();
        assert!(rel < 1e-5, "relative error {rel}");
    }

    #[test]
    fn error_monotone_per_sweep() {
        // Engine contract.
        let d = DistanceMatrix::full("lr", low_rank(12)).unwrap();
        let fit = fit(
            &d,
            AlsConfig {
                sweeps: 20,
                tolerance: 0.0,
                ..AlsConfig::new(2)
            },
        )
        .unwrap();
        for w in fit.error_trace.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-9), "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn handles_missing_entries_and_imputes() {
        // Engine contract.
        let base = low_rank(12);
        let mut corrupted = base.clone();
        corrupted[(2, 7)] = 0.0;
        let mut mask = Matrix::filled(12, 12, 1.0);
        mask[(2, 7)] = 0.0;
        let data = DistanceMatrix::with_mask("m", corrupted, mask).unwrap();
        let fit = fit(&data, AlsConfig::new(3)).unwrap();
        let predicted = fit.model.estimate(2, 7);
        assert!(
            (predicted - base[(2, 7)]).abs() < 0.05 * base[(2, 7)],
            "imputed {predicted} vs true {}",
            base[(2, 7)]
        );
    }

    #[test]
    fn converges_faster_than_nmf_in_sweeps() {
        // Engine contract.
        // ALS's unconstrained half-steps should need fewer passes than
        // NMF's nonnegative sweeps to reach the same error on clean data.
        let d = DistanceMatrix::full("lr", low_rank(15)).unwrap();
        let als = fit(
            &d,
            AlsConfig {
                sweeps: 5,
                tolerance: 0.0,
                ..AlsConfig::new(3)
            },
        )
        .unwrap();
        let nmf = nmf::fit(
            &d,
            NmfConfig {
                iterations: 5,
                ..NmfConfig::new(3)
            },
        )
        .unwrap();
        let als_err = als.error_trace.last().unwrap();
        let nmf_err = nmf.error_trace.last().unwrap();
        assert!(
            als_err < nmf_err,
            "ALS {als_err} vs NMF {nmf_err} after 5 passes"
        );
    }

    #[test]
    fn asymmetric_matrices_supported() {
        // Engine contract.
        let mut d = low_rank(10);
        // Make it asymmetric: the factorization must not care.
        d[(0, 5)] *= 3.0;
        let data = DistanceMatrix::full("asym", d.clone()).unwrap();
        let fit = fit(
            &data,
            AlsConfig {
                sweeps: 60,
                ..AlsConfig::new(4)
            },
        )
        .unwrap();
        let rel = (&fit.model.reconstruct() - &d).frobenius_norm() / d.frobenius_norm();
        assert!(rel < 0.01, "relative error {rel}");
    }

    #[test]
    fn refine_is_deterministic_and_improves_on_drifted_data() {
        // Engine contract.
        let base = low_rank(14);
        let data = DistanceMatrix::full("base", base.clone()).unwrap();
        let cold = fit(&data, AlsConfig::new(3)).unwrap();
        // Drift every entry a few percent and refit warm with a tiny budget.
        let mut drifted = base.clone();
        for (i, j, v) in base.iter_entries() {
            drifted[(i, j)] = v * (1.0 + 0.05 * ((i * 14 + j) as f64 * 0.7).sin());
        }
        let ddata = DistanceMatrix::full("drift", drifted.clone()).unwrap();
        let budget = AlsConfig {
            sweeps: 2,
            tolerance: 0.0,
            ..AlsConfig::new(3)
        };
        let warm = refine(&ddata, &cold.model, budget).unwrap();
        assert_eq!(warm.error_trace.len(), 2);
        // The stale model's error on the drifted data, for comparison.
        let mut stale_err = 0.0;
        let recon = cold.model.reconstruct();
        for (i, j, v) in drifted.iter_entries() {
            stale_err += (v - recon[(i, j)]) * (v - recon[(i, j)]);
        }
        let warm_err = *warm.error_trace.last().unwrap();
        assert!(
            warm_err < 0.5 * stale_err,
            "2 warm sweeps should slash the stale error: {warm_err} vs {stale_err}"
        );
        // Bit-reproducible: same inputs, same budget, same bits.
        let again = refine(&ddata, &cold.model, budget).unwrap();
        assert_eq!(
            warm.model.x().as_slice().len(),
            again.model.x().as_slice().len()
        );
        for (a, b) in warm
            .model
            .x()
            .as_slice()
            .iter()
            .chain(warm.model.y().as_slice())
            .zip(
                again
                    .model
                    .x()
                    .as_slice()
                    .iter()
                    .chain(again.model.y().as_slice()),
            )
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn refine_rejects_mismatched_model() {
        // Engine contract.
        let data = DistanceMatrix::full("lr", low_rank(10)).unwrap();
        let other = fit(
            &DistanceMatrix::full("s", low_rank(8)).unwrap(),
            AlsConfig::new(2),
        )
        .unwrap();
        assert!(refine(&data, &other.model, AlsConfig::new(2)).is_err());
    }

    #[test]
    fn early_stop_and_validation() {
        // Engine contract.
        let d = DistanceMatrix::full("lr", low_rank(10)).unwrap();
        assert!(fit(&d, AlsConfig::new(0)).is_err());
        let short = fit(
            &d,
            AlsConfig {
                sweeps: 100,
                tolerance: 1e-3,
                ..AlsConfig::new(3)
            },
        )
        .unwrap();
        assert!(short.error_trace.len() < 100);
    }
}

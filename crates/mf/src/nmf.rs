//! Non-negative matrix factorization (§4.2 of the paper).
//!
//! Minimizes the squared error over the observed cells (Eq. 7, and its
//! masked form behind Eqs. 8–9), `Σ_observed (D_ij − X_i · Y_j)²`, under
//! nonnegativity of `X` and `Y`, from a random start (the paper's "initial
//! (random) matrices").
//!
//! # Hierarchical ALS, not the paper's multiplicative updates
//!
//! Complete and masked data are both fit by HALS sweeps (Cichocki, Zdunek
//! & Amari, ICA 2007; Gillis & Glineur, *Neural Computation* 24(4), 2012),
//! a deliberate deviation from the paper's Lee–Seung updates. Each step is
//! the exact minimizer on `[EPS, ∞)`, so the error is monotone; on the
//! paper's matrix HALS passes 200 multiplicative updates by sweep 24, and
//! on masked data it imputes hidden cells more accurately than 150. A sweep
//! is, for each row `i` of `X` and `j = 0..k` in order,
//!
//! ```text
//! X_ij ← max(EPS, X_ij + (A_ij − Σ_l X_il B_lj) / B_jj)
//! ```
//!
//! with `A = D Y` and `B = YᵀY` over the columns row `i` observes (rows
//! sharing an observed set share `B`), then the same for `Y`; a column
//! whose `B_jj ≤ EPS` has collapsed and is left as is. The loop, which ALS
//! shares, lives in `crate::sweeps`. The paper reports that "two hundred
//! iterations suffice to converge to a local minimum"; 200 is the cap.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ides_datasets::DistanceMatrix;
use ides_linalg::{random, Matrix};

use crate::error::{MfError, Result};
use crate::model::FactorModel;
use crate::sweeps::{self, Step, EPS};

/// Configuration for the NMF factorizer.
#[derive(Debug, Clone, Copy)]
pub struct NmfConfig {
    /// Target dimensionality `d`.
    pub dim: usize,
    /// Cap on the HALS sweeps (paper: 200 iterations).
    pub iterations: usize,
    /// RNG seed for the random initialization.
    pub seed: u64,
    /// Stop early when the relative error improvement of a sweep drops
    /// below this threshold (0 runs every sweep up to the cap).
    pub tolerance: f64,
}

impl NmfConfig {
    /// Defaults: a random start, as in the paper, at most 200 sweeps, and
    /// a stop once a sweep improves the error by less than 0.1 %.
    pub fn new(dim: usize) -> Self {
        NmfConfig {
            dim,
            iterations: 200,
            seed: 1729,
            tolerance: 1e-3,
        }
    }
}

/// Result of an NMF fit: the model plus the per-sweep squared-error trace
/// (useful for the convergence ablation).
#[derive(Debug, Clone)]
pub struct NmfFit {
    /// The fitted nonnegative factor model.
    pub model: FactorModel,
    /// Squared reconstruction error over the observed cells after each
    /// sweep.
    pub error_trace: Vec<f64>,
}

/// Factors a fully observed nonnegative matrix. A NaN or infinite entry is
/// refused as [`MfError::InvalidInput`], a negative one as
/// [`MfError::NegativeInput`].
pub fn fit_matrix(d: &Matrix, config: NmfConfig) -> Result<NmfFit> {
    sweeps::validate(d, config.dim)?;
    for (i, j, v) in d.iter_entries() {
        if !v.is_finite() {
            return Err(MfError::InvalidInput(format!(
                "NMF input has non-finite entry {v} at ({i},{j})"
            )));
        }
        if v < 0.0 {
            return Err(MfError::NegativeInput {
                row: i,
                col: j,
                value: v,
            });
        }
    }
    let (x, y) = initial_factors(d, None, config);
    sweep(d, None, x, y, config)
}

/// Factors a distance matrix over its observed entries; a missing entry is
/// never read.
pub fn fit(data: &DistanceMatrix, config: NmfConfig) -> Result<NmfFit> {
    sweeps::validate(data.values(), config.dim)?;
    let (d, mask) = (data.values(), sweeps::observed(data));
    let (x, y) = initial_factors(d, mask, config);
    sweep(d, mask, x, y, config)
}

/// The random start of `config.seed`: positive entries scaled so `X Yᵀ`
/// starts near the observed cells' magnitude, [`MASKED_START`] times higher
/// on masked data.
fn initial_factors(d: &Matrix, mask: Option<&Matrix>, config: NmfConfig) -> (Matrix, Matrix) {
    let (m, n) = d.shape();
    let k = config.dim.min(m).min(n);
    let lift = if mask.is_some() { MASKED_START } else { 1.0 };
    let scale = lift * sweeps::start_scale(d, mask, k);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let x = random::uniform(m, k, 0.5 * scale, 1.5 * scale, &mut rng);
    let y = random::uniform(n, k, 0.5 * scale, 1.5 * scale, &mut rng);
    (x, y)
}

/// How far above the complete fit's start a masked fit starts its factors.
/// Masked data can leave the fit underdetermined, and from a start near the
/// data's scale HALS then settles in a worse local minimum about twice as
/// often as the multiplicative updates did. On Figure 1 with one hidden
/// cell at `d = 3` (each of the 12 cells, 200 seeds each), the fits that
/// impute the hidden cell outside `[0, 2 · max D]` fall from 153 of 2400
/// at `×1` to 124 / 110 / 89 / 78 at `×1.25 / 1.5 / 2 / 3`, and stay at 78
/// above; the multiplicative updates from `×1` had 77. Complete data keeps
/// `×1`, where a higher start only costs sweeps.
const MASKED_START: f64 = 3.0;

/// Warm-start **partial refit**: continues the HALS sweeps of [`fit`] from
/// an existing nonnegative factor model instead of a fresh initialization,
/// running at most `config.iterations` sweeps.
///
/// The streaming counterpart of [`fit`]: when a slab of the (possibly
/// masked) distance matrix drifts, a handful of sweeps from the current
/// factors re-converges far cheaper than a cold fit, because the start
/// point is already near the local optimum. Deterministic (no RNG) and
/// allocation-free once warm, like [`fit`]. Factor entries below `EPS`
/// (`1e-12`) are raised to it, the floor every HALS step keeps;
/// `config.dim` and `config.seed` are ignored in favor of the model's own
/// factors.
pub fn refine(data: &DistanceMatrix, model: &FactorModel, config: NmfConfig) -> Result<NmfFit> {
    sweeps::check_model(data.values(), model)?;
    let mut x = model.x().clone();
    let mut y = model.y().clone();
    x.map_inplace(|v| v.max(EPS));
    y.map_inplace(|v| v.max(EPS));
    sweep(data.values(), sweeps::observed(data), x, y, config)
}

/// Runs the shared sweep loop with the HALS step.
fn sweep(
    d: &Matrix,
    mask: Option<&Matrix>,
    x: Matrix,
    y: Matrix,
    config: NmfConfig,
) -> Result<NmfFit> {
    let NmfConfig {
        iterations,
        tolerance,
        ..
    } = config;
    let (model, error_trace) = sweeps::run(d, mask, x, y, Step::Hals, iterations, tolerance)?;
    Ok(NmfFit { model, error_trace })
}

#[cfg(test)]
mod tests {
    //! Each test is labelled an *engine contract* (what the fit promises:
    //! validation, invariants, bit-identity between its own paths, accuracy
    //! claims) or a *history oracle* (held against a copy of a former or
    //! textbook loop).

    use super::*;
    use crate::model::DistanceEstimator;
    use ides_linalg::kernels;

    fn low_rank_nonneg(n: usize) -> Matrix {
        // Exactly rank-2 nonnegative matrix.
        let b = Matrix::from_fn(n, 2, |i, j| 1.0 + ((i + j) as f64 * 0.37).sin().abs());
        let c = Matrix::from_fn(2, n, |i, j| 1.0 + ((i * 3 + j) as f64 * 0.21).cos().abs());
        b.matmul(&c).unwrap()
    }

    #[test]
    fn error_descends_monotonically() {
        // Engine contract: every HALS step is an exact coordinate minimizer,
        // so the objective never increases.
        let d = low_rank_nonneg(12);
        let fit = fit_matrix(
            &d,
            NmfConfig {
                dim: 3,
                iterations: 100,
                seed: 5,
                tolerance: 0.0,
            },
        )
        .unwrap();
        for w in fit.error_trace.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-9),
                "error increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn recovers_low_rank_matrix() {
        // Engine contract.
        let d = low_rank_nonneg(15);
        let fit = fit_matrix(
            &d,
            NmfConfig {
                dim: 2,
                iterations: 500,
                seed: 1,
                tolerance: 0.0,
            },
        )
        .unwrap();
        let rel = (&d - &fit.model.reconstruct()).frobenius_norm() / d.frobenius_norm();
        assert!(rel < 0.02, "relative reconstruction error {rel}");
    }

    #[test]
    fn factors_are_nonnegative() {
        // Engine contract.
        let d = low_rank_nonneg(10);
        let fit = fit_matrix(&d, NmfConfig::new(3)).unwrap();
        assert!(fit.model.x().is_nonnegative(0.0));
        assert!(fit.model.y().is_nonnegative(0.0));
        // Hence all predictions are nonnegative — NMF's guarantee over SVD.
        for i in 0..10 {
            for j in 0..10 {
                assert!(fit.model.estimate(i, j) >= 0.0);
            }
        }
    }

    #[test]
    fn rejects_negative_input() {
        // Engine contract.
        let mut d = low_rank_nonneg(5);
        d[(2, 3)] = -1.0;
        assert!(matches!(
            fit_matrix(&d, NmfConfig::new(2)),
            Err(MfError::NegativeInput { row: 2, col: 3, .. })
        ));
    }

    #[test]
    fn rejects_nan_input() {
        // Engine contract.
        let mut d = low_rank_nonneg(5);
        d[(1, 4)] = f64::NAN;
        match fit_matrix(&d, NmfConfig::new(2)) {
            Err(MfError::InvalidInput(msg)) => {
                assert!(msg.contains("NaN") && msg.contains("(1,4)"), "{msg}")
            }
            other => panic!("NaN entry: {other:?}"),
        }
    }

    #[test]
    fn rejects_infinite_input() {
        // Engine contract.
        for v in [f64::INFINITY, f64::NEG_INFINITY] {
            let mut d = low_rank_nonneg(5);
            d[(3, 0)] = v;
            match fit_matrix(&d, NmfConfig::new(2)) {
                Err(MfError::InvalidInput(msg)) => {
                    assert!(
                        msg.contains(&v.to_string()) && msg.contains("(3,0)"),
                        "{msg}"
                    )
                }
                other => panic!("{v} entry: {other:?}"),
            }
        }
    }

    /// In-place multiplicative update `f ← f ∘ num / den` with a positive
    /// floor.
    fn update_factor(f: &mut Matrix, num: &Matrix, den: &Matrix) {
        for ((fv, &nv), &dv) in f
            .as_mut_slice()
            .iter_mut()
            .zip(num.as_slice())
            .zip(den.as_slice())
        {
            *fv = (*fv * nv / dv.max(EPS)).max(EPS);
        }
    }

    /// The paper's multiplicative updates on complete data, as the
    /// complete path ran them before HALS: `YᵀY` formed at the top of every
    /// iteration, both `D · Y` and `Dᵀ · X` on the packed GEMM driver (an
    /// `Op::Trans` operand never takes the narrow one), and the banded
    /// reconstruction error.
    fn reference_complete_loop(d: &Matrix, mut x: Matrix, mut y: Matrix, iters: usize) -> NmfFit {
        use ides_linalg::kernels::Op;
        let (m, n) = d.shape();
        let k = x.cols();
        let dt = d.transpose();
        let mut gram = Matrix::zeros(k, k);
        let (mut num_x, mut den_x) = (Matrix::zeros(m, k), Matrix::zeros(m, k));
        let (mut num_y, mut den_y) = (Matrix::zeros(n, k), Matrix::zeros(n, k));
        let mut band = Matrix::zeros(crate::banded::ERROR_BAND_ROWS.min(m), n);
        let mut error_trace = Vec::new();
        for _ in 0..iters {
            y.tr_matmul_into(&y, &mut gram).unwrap();
            let (a, b) = (dt.as_slice(), y.as_slice());
            kernels::gemm(
                a,
                Op::Trans,
                m,
                b,
                Op::NoTrans,
                k,
                num_x.as_mut_slice(),
                m,
                k,
                n,
            );
            x.matmul_into(&gram, &mut den_x).unwrap();
            update_factor(&mut x, &num_x, &den_x);

            x.tr_matmul_into(&x, &mut gram).unwrap();
            d.tr_matmul_into(&x, &mut num_y).unwrap();
            y.matmul_into(&gram, &mut den_y).unwrap();
            update_factor(&mut y, &num_y, &den_y);

            error_trace.push(crate::banded::banded_sq_error(d, None, &x, &y, &mut band));
        }
        NmfFit {
            model: FactorModel::new(x, y).unwrap(),
            error_trace,
        }
    }

    /// Column-wise HALS as it is usually written: `YᵀY` formed at the top
    /// of every sweep, both `D · Y` and `Dᵀ · X` on the packed GEMM driver,
    /// then `F[:, j] ← max(EPS, F[:, j] + (A[:, j] − F · B[:, j]) / B_jj)`
    /// for one column at a time, the banded reconstruction error, and the
    /// fit's stop rule.
    fn reference_hals_loop(d: &Matrix, mut x: Matrix, mut y: Matrix, config: NmfConfig) -> NmfFit {
        use ides_linalg::kernels::Op;
        let (m, n) = d.shape();
        let k = x.cols();
        let dt = d.transpose();
        let mut gram = Matrix::zeros(k, k);
        let (mut dy, mut dtx) = (Matrix::zeros(m, k), Matrix::zeros(n, k));
        let mut band = Matrix::zeros(crate::banded::ERROR_BAND_ROWS.min(m), n);
        let columns = |f: &mut Matrix, a: &Matrix, b: &Matrix| {
            for j in 0..k {
                if b[(j, j)] <= EPS {
                    continue;
                }
                for i in 0..f.rows() {
                    let fb = (0..k).fold(0.0, |s, l| s + f[(i, l)] * b[(l, j)]);
                    f[(i, j)] = (f[(i, j)] + (a[(i, j)] - fb) / b[(j, j)]).max(EPS);
                }
            }
        };
        let mut error_trace: Vec<f64> = Vec::new();
        for _ in 0..config.iterations {
            y.tr_matmul_into(&y, &mut gram).unwrap();
            let (a, b) = (dt.as_slice(), y.as_slice());
            kernels::gemm(
                a,
                Op::Trans,
                m,
                b,
                Op::NoTrans,
                k,
                dy.as_mut_slice(),
                m,
                k,
                n,
            );
            columns(&mut x, &dy, &gram);

            x.tr_matmul_into(&x, &mut gram).unwrap();
            d.tr_matmul_into(&x, &mut dtx).unwrap();
            columns(&mut y, &dtx, &gram);

            let err = crate::banded::banded_sq_error(d, None, &x, &y, &mut band);
            let stop = error_trace.last().is_some_and(|&prev| {
                let rel_impr = (prev - err) / prev.max(EPS);
                config.tolerance > 0.0 && (0.0..config.tolerance).contains(&rel_impr)
            });
            error_trace.push(err);
            if stop {
                break;
            }
        }
        NmfFit {
            model: FactorModel::new(x, y).unwrap(),
            error_trace,
        }
    }

    /// NNDSVDa (Boutsidis & Gallopoulos), the SVD warm start the
    /// multiplicative updates ran from before HALS: for each rank-one term
    /// `a bᵀ` of the rank-`k` SVD model, the sign-consistent part with the
    /// larger `‖a±‖·‖b±‖`, rescaled to that product; zeros then rise to 1 %
    /// of the random start's scale.
    fn nndsvda_start(d: &Matrix, k: usize) -> (Matrix, Matrix) {
        let svd = crate::svd_model::fit_matrix(
            d,
            crate::svd_model::SvdConfig {
                dim: k,
                force_exact: false,
            },
        );
        let svd = svd.unwrap();
        let (mut x, mut y) = (Matrix::zeros(d.rows(), k), Matrix::zeros(d.cols(), k));
        let norm = |w: &[f64]| w.iter().map(|v| v * v).sum::<f64>().sqrt();
        for j in 0..k {
            let signed = |s: f64| {
                let part = |w: Vec<f64>| w.iter().map(|v| (s * v).max(0.0)).collect::<Vec<_>>();
                (part(svd.x().col(j)), part(svd.y().col(j)))
            };
            let (plus, minus) = (signed(1.0), signed(-1.0));
            let weight = |(a, b): &(Vec<f64>, Vec<f64>)| norm(a) * norm(b);
            let (a, b) = if weight(&plus) >= weight(&minus) {
                plus
            } else {
                minus
            };
            let (na, nb) = (norm(&a), norm(&b));
            if na > 0.0 && nb > 0.0 {
                let root = (na * nb).sqrt();
                (0..x.rows()).for_each(|i| x[(i, j)] = root * a[i] / na);
                (0..y.rows()).for_each(|i| y[(i, j)] = root * b[i] / nb);
            }
        }
        let fill = 0.01 * sweeps::start_scale(d, None, k);
        x.map_inplace(|v| if v <= 0.0 { fill } else { v });
        y.map_inplace(|v| if v <= 0.0 { fill } else { v });
        (x, y)
    }

    /// The paper's masked multiplicative updates (Eqs. 8–9), as the masked
    /// path ran them before HALS: `X ← X ∘ ((D ∘ W) Y) / (((X Yᵀ) ∘ W) Y)`,
    /// then the same for `Y`.
    fn reference_masked_mu(d: &Matrix, w: &Matrix, mut x: Matrix, mut y: Matrix) -> FactorModel {
        let masked = |m: Matrix| Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)] * w[(i, j)]);
        let md = masked(d.clone());
        for _ in 0..150 {
            let recon = masked(x.matmul_tr(&y).unwrap());
            update_factor(&mut x, &md.matmul(&y).unwrap(), &recon.matmul(&y).unwrap());
            let recon = masked(x.matmul_tr(&y).unwrap());
            update_factor(
                &mut y,
                &md.tr_matmul(&x).unwrap(),
                &recon.tr_matmul(&x).unwrap(),
            );
        }
        FactorModel::new(x, y).unwrap()
    }

    /// Masked HALS one row at a time, as it is usually written: gather the
    /// row's observed cells and the fixed factor's matching rows, form that
    /// row's Gram and right-hand side, and step its coordinates in order.
    fn reference_masked_hals(
        d: &Matrix,
        w: &Matrix,
        mut x: Matrix,
        mut y: Matrix,
        sweeps: usize,
    ) -> FactorModel {
        let half = |d: &Matrix, w: &Matrix, fixed: &Matrix, out: &mut Matrix| {
            let k = fixed.cols();
            for i in 0..d.rows() {
                let obs: Vec<usize> = (0..d.cols()).filter(|&j| w[(i, j)] == 1.0).collect();
                if obs.is_empty() {
                    continue;
                }
                let a = fixed.select_rows(&obs);
                let row = Matrix::from_vec(1, obs.len(), obs.iter().map(|&j| d[(i, j)]).collect());
                let (gram, rhs) = (a.tr_matmul(&a).unwrap(), row.unwrap().matmul(&a).unwrap());
                for j in (0..k).filter(|&j| gram[(j, j)] > EPS) {
                    let s = (0..k).fold(0.0, |s, l| s + out[(i, l)] * gram[(l, j)]);
                    out[(i, j)] = (out[(i, j)] + (rhs[(0, j)] - s) / gram[(j, j)]).max(EPS);
                }
            }
        };
        let (dt, wt) = (d.transpose(), w.transpose());
        for _ in 0..sweeps {
            half(d, w, &y, &mut x);
            half(&dt, &wt, &x, &mut y);
        }
        FactorModel::new(x, y).unwrap()
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn complete_updates_match_the_reference_loop_bitwise() {
        // History oracle.
        // The row-major pass over narrow-driver products, with `YᵀY`
        // carried across sweeps, must leave every factor bit as column-wise
        // HALS over packed products does; the error identity moves the
        // trace only in its last bits.
        let p2p = ides_datasets::generators::p2psim_like(300, 7).unwrap();
        let mut noisy = low_rank_nonneg(10);
        for (i, j, v) in low_rank_nonneg(10).iter_entries() {
            noisy[(i, j)] = v + 0.5 * ((i * 7 + j * 3) % 5) as f64;
        }
        let cases = [
            (p2p.matrix.values().clone(), NmfConfig::new(10)),
            (
                low_rank_nonneg(12),
                NmfConfig {
                    tolerance: 0.0,
                    ..NmfConfig::new(3)
                },
            ),
            (noisy, NmfConfig::new(2)),
        ];
        for (d, config) in cases {
            assert!(d.iter_entries().all(|(_, _, v)| v.is_finite() && v >= 0.0));
            let (x, y) = initial_factors(&d, None, config);
            let want = reference_hals_loop(&d, x.clone(), y.clone(), config);
            let got = sweep(&d, None, x, y, config).unwrap();
            let label = format!("{}x{} d = {}", d.rows(), d.cols(), config.dim);
            assert_eq!(bits(got.model.x()), bits(want.model.x()), "X, {label}");
            assert_eq!(bits(got.model.y()), bits(want.model.y()), "Y, {label}");
            assert_eq!(got.error_trace.len(), want.error_trace.len(), "{label}");
            for (it, (g, w)) in got.error_trace.iter().zip(&want.error_trace).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-10 * w,
                    "{label}, sweep {it}: error {g} vs banded {w}"
                );
            }
        }
    }

    #[test]
    fn default_fit_ends_at_or_below_two_hundred_multiplicative_updates() {
        // History oracle.
        // HALS from a random start, stopped by the default
        // tolerance, must fit at least as well as the paper's 200
        // multiplicative updates from the SVD warm start they ran from.
        let p2p = ides_datasets::generators::p2psim_like(300, 7).unwrap();
        let d = p2p.matrix.values();
        for dim in [3, 10] {
            let fit = fit_matrix(d, NmfConfig::new(dim)).unwrap();
            let (x, y) = nndsvda_start(d, dim);
            let mu = reference_complete_loop(d, x, y, 200);
            let (got, want) = (
                *fit.error_trace.last().unwrap(),
                *mu.error_trace.last().unwrap(),
            );
            assert!(
                got <= want,
                "d = {dim}: HALS {got} after {} sweeps vs 200 MU updates {want}",
                fit.error_trace.len()
            );
        }
    }

    #[test]
    fn degenerate_input_keeps_factors_finite_and_floored() {
        // Engine contract.
        // Rank 2 at d = 6 leaves columns with nothing to fit, and a zero
        // row of D pins its row of X at the floor: no column step may
        // divide by a collapsed Gram diagonal or leave the feasible set.
        let rank2 = low_rank_nonneg(20);
        let mut noisy = rank2.clone();
        for (i, j, v) in rank2.iter_entries() {
            noisy[(i, j)] = v + 0.5 * ((i * 7 + j * 3) % 5) as f64;
        }
        let zero_row = |mut d: Matrix| {
            for j in 0..d.cols() {
                d[(4, j)] = 0.0;
            }
            d
        };
        let cases = [
            ("rank 2", rank2.clone()),
            ("rank 2, zero row", zero_row(rank2)),
            ("noisy, zero row", zero_row(noisy)),
        ];
        for (label, d) in cases {
            let fit = fit_matrix(
                &d,
                NmfConfig {
                    iterations: 500,
                    tolerance: 0.0,
                    ..NmfConfig::new(6)
                },
            )
            .unwrap();
            for f in [fit.model.x(), fit.model.y()] {
                assert!(
                    f.as_slice().iter().all(|&v| v.is_finite() && v >= EPS),
                    "{label}: factor entry non-finite or below the floor"
                );
            }
            if d.row(4).iter().all(|&v| v == 0.0) {
                let x4 = fit.model.x().row(4);
                assert!(x4.iter().all(|&v| v == EPS), "{label}: X row 4 {x4:?}");
            }
            // An error evaluated in floating point resolves nothing below
            // `m n (ε max D)²`. The zero row's floored reconstruction parks
            // the rank-2 fit just above that, where the trace may wander by
            // it.
            let max_d = d.as_slice().iter().fold(0.0f64, |a, &v| a.max(v));
            let floor = (d.rows() * d.cols()) as f64 * (f64::EPSILON * max_d).powi(2);
            for w in fit.error_trace.windows(2) {
                assert!(
                    w[1] <= w[0] * (1.0 + 1e-9) + floor,
                    "{label}: error increased: {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn error_identity_falls_back_near_an_exact_fit() {
        // Engine contract.
        // An exactly rank-2 matrix fit at d = 2 drives the error towards
        // rounding level, where `‖D‖² − 2⟨Y, DᵀX⟩ + ⟨XᵀX, YᵀY⟩` cancels to
        // noise (and below zero: 366 of these 3000 iterations without the
        // guard). The guard must hand those iterations to the banded pass:
        // the trace stays nonnegative and monotone.
        let d = low_rank_nonneg(40);
        let fit = fit_matrix(
            &d,
            NmfConfig {
                iterations: 3000,
                seed: 5,
                tolerance: 0.0,
                ..NmfConfig::new(2)
            },
        )
        .unwrap();
        assert!(fit.error_trace.iter().all(|&e| e >= 0.0));
        for w in fit.error_trace.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-9),
                "error increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn masked_fit_ignores_missing_entries() {
        // Engine contract.
        // Corrupt one entry but mask it out: the fit
        // should be as good as clean.
        let d = low_rank_nonneg(10);
        let mut corrupted = d.clone();
        corrupted[(1, 2)] = 500.0;
        let mut mask = Matrix::filled(10, 10, 1.0);
        mask[(1, 2)] = 0.0;
        let data = DistanceMatrix::with_mask("m", corrupted, mask).unwrap();
        let fit = fit(
            &data,
            NmfConfig {
                dim: 2,
                iterations: 400,
                seed: 3,
                tolerance: 0.0,
            },
        )
        .unwrap();
        // The masked cell should be *predicted* near the true low-rank value,
        // not the corrupted 500.
        let predicted = fit.model.estimate(1, 2);
        assert!(
            (predicted - d[(1, 2)]).abs() < 0.2 * d[(1, 2)],
            "predicted {predicted} vs true {}",
            d[(1, 2)]
        );
    }

    #[test]
    fn an_all_ones_mask_gives_the_complete_factor_bits() {
        // Engine contract: the masked path gathers every row and column and
        // forms the same Grams and products as the complete path reads in
        // place, so only the error (banded, not the identity) may differ.
        let d = low_rank_nonneg(8);
        let mut noisy = d.clone();
        noisy.map_inplace(|v| v + 0.3);
        let ones = Matrix::filled(8, 8, 1.0);
        for (d, dim) in [(d, 2), (noisy, 3)] {
            let cfg = NmfConfig {
                iterations: 50,
                tolerance: 0.0,
                ..NmfConfig::new(dim)
            };
            let (x, y) = initial_factors(&d, None, cfg);
            let masked = sweep(&d, Some(&ones), x.clone(), y.clone(), cfg).unwrap();
            let complete = sweep(&d, None, x, y, cfg).unwrap();
            assert_eq!(bits(masked.model.x()), bits(complete.model.x()));
            assert_eq!(bits(masked.model.y()), bits(complete.model.y()));
            for (m, c) in masked.error_trace.iter().zip(&complete.error_trace) {
                assert!((m - c).abs() <= 1e-10 * c, "banded {m} vs identity {c}");
            }
        }
    }

    #[test]
    fn masked_sweeps_match_per_row_hals_bitwise() {
        // History oracle: while every system has at most 256 observed
        // entries, each row carries the bits of its own gathered HALS step,
        // in runs of rows sharing an observed set (rows 10–12 here), in
        // runs of one, and at d = 20, past the 16 columns of the unpacked
        // GEMM tile.
        let p2p = ides_datasets::generators::p2psim_like(40, 3).unwrap();
        let d = p2p.matrix.values();
        let mut w = Matrix::filled(40, 40, 1.0);
        for (i, j) in [
            (10, 3),
            (11, 3),
            (12, 3),
            (20, 6),
            (21, 0),
            (25, 4),
            (23, 25),
        ] {
            w[(i, j)] = 0.0;
        }
        for i in 0..40 {
            w[(i, (i * 7 + 1) % 40)] = 0.0;
        }
        for j in 0..40 {
            w[(33, j)] = 0.0;
        }
        for dim in [5, 20] {
            let cfg = NmfConfig {
                iterations: 4,
                tolerance: 0.0,
                ..NmfConfig::new(dim)
            };
            let (x, y) = initial_factors(d, Some(&w), cfg);
            let want = reference_masked_hals(d, &w, x.clone(), y.clone(), cfg.iterations);
            let got = sweep(d, Some(&w), x, y, cfg).unwrap();
            assert_eq!(bits(got.model.x()), bits(want.x()), "X, d = {dim}");
            assert_eq!(bits(got.model.y()), bits(want.y()), "Y, d = {dim}");
        }
    }

    #[test]
    fn the_masked_start_settles_in_plausible_minima_more_often() {
        // Engine contract (the reason for `MASKED_START`): Figure 1 with one
        // hidden cell at d = 3 is underdetermined, and a fit that settles in
        // the worse local minimum imputes the cell far outside the data.
        // From the masked start that happens clearly less often than from
        // the complete fit's start.
        let base = Matrix::from_vec(
            4,
            4,
            vec![
                0.0, 1.0, 1.0, 2.0, 1.0, 0.0, 2.0, 1.0, 1.0, 2.0, 0.0, 1.0, 2.0, 1.0, 1.0, 0.0,
            ],
        )
        .unwrap();
        let (mut lifted, mut plain) = (0, 0);
        for (i, j) in (0..4)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .filter(|(i, j)| i != j)
        {
            let mut w = Matrix::filled(4, 4, 1.0);
            w[(i, j)] = 0.0;
            for seed in 0..50 {
                let cfg = NmfConfig {
                    seed,
                    ..NmfConfig::new(3)
                };
                let (mut x, mut y) = initial_factors(&base, Some(&w), cfg);
                let wild = |fit: NmfFit| !(0.0..=4.0).contains(&fit.model.estimate(i, j));
                lifted += usize::from(wild(
                    sweep(&base, Some(&w), x.clone(), y.clone(), cfg).unwrap(),
                ));
                x.map_inplace(|v| v / MASKED_START);
                y.map_inplace(|v| v / MASKED_START);
                plain += usize::from(wild(sweep(&base, Some(&w), x, y, cfg).unwrap()));
            }
        }
        assert!(
            4 * lifted <= 3 * plain,
            "wild imputations: {lifted} from the masked start, {plain} from x1"
        );
    }

    #[test]
    fn masked_fit_imputes_at_least_as_well_as_multiplicative_updates() {
        // History oracle (science): with 30 % of an NLANR-like matrix's
        // off-diagonal cells hidden, the default masked fit's median
        // relative error on the hidden cells is no worse than 150 of the
        // paper's masked multiplicative updates from the same start.
        use crate::metrics::{modified_relative_error, Cdf};
        use rand::seq::SliceRandom;
        let full = ides_datasets::generators::nlanr_like(110, 20041025)
            .unwrap()
            .matrix;
        let n = full.rows();
        let mut cells: Vec<(usize, usize)> = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .collect();
        cells.shuffle(&mut StdRng::seed_from_u64(7));
        let hidden = &cells[..cells.len() * 3 / 10];
        let (mut values, mut w) = (full.values().clone(), Matrix::filled(n, n, 1.0));
        for &(i, j) in hidden {
            values[(i, j)] = 0.0;
            w[(i, j)] = 0.0;
        }
        let data = DistanceMatrix::with_mask("hidden", values, w.clone()).unwrap();
        let cfg = NmfConfig::new(10);
        let median = |model: &FactorModel| {
            let errors = hidden.iter().filter_map(|&(i, j)| {
                let actual = full.values()[(i, j)];
                (actual > 0.0).then(|| modified_relative_error(actual, model.estimate(i, j)))
            });
            Cdf::new(errors.collect()).median()
        };
        let hals = median(&fit(&data, cfg).unwrap().model);
        let (x, y) = initial_factors(data.values(), Some(&w), cfg);
        let mu = median(&reference_masked_mu(data.values(), &w, x, y));
        assert!(hals <= mu, "hidden-cell median: HALS {hals} vs MU-150 {mu}");
    }

    #[test]
    fn early_stopping_shortens_trace() {
        // Engine contract.
        // Use a noisy (not exactly rank-2) target so the d=2 error plateaus
        // at a positive floor, which is what triggers relative-improvement
        // early stopping.
        let mut d = low_rank_nonneg(10);
        d.map_inplace(|v| v + 0.3);
        for i in 0..10 {
            d[(i, (i * 3) % 10)] += 0.5;
        }
        let full = fit_matrix(
            &d,
            NmfConfig {
                iterations: 300,
                tolerance: 0.0,
                ..NmfConfig::new(2)
            },
        )
        .unwrap();
        let early = fit_matrix(
            &d,
            NmfConfig {
                iterations: 300,
                tolerance: 1e-4,
                ..NmfConfig::new(2)
            },
        )
        .unwrap();
        assert!(early.error_trace.len() < full.error_trace.len());
        // And the early-stopped error is still close to the full-run error.
        let e_early = early.error_trace.last().unwrap();
        let e_full = full.error_trace.last().unwrap();
        assert!(
            e_early <= &(e_full * 1.05),
            "early {e_early} vs full {e_full}"
        );
    }

    #[test]
    fn two_hundred_iterations_suffice_claim() {
        // Engine contract (science).
        // Verify the paper's claim on a realistic synthetic data set: the
        // default fit (at most 200 sweeps, stopped by the default tolerance)
        // ends within 0.02 *relative Frobenius* reconstruction error of a
        // fit that runs all 1000 sweeps, i.e. it reaches the practical
        // optimum.
        let ds = ides_datasets::generators::gnp_like(19, 4).unwrap();
        let d = ds.matrix.values();
        let short = fit_matrix(d, NmfConfig::new(8)).unwrap();
        let long = fit_matrix(
            d,
            NmfConfig {
                iterations: 1000,
                tolerance: 0.0,
                ..NmfConfig::new(8)
            },
        )
        .unwrap();
        assert_eq!(long.error_trace.len(), 1000);
        let norm = d.frobenius_norm();
        let r200 = short.error_trace.last().unwrap().sqrt() / norm;
        let r1000 = long.error_trace.last().unwrap().sqrt() / norm;
        assert!(
            r200 - r1000 < 0.02,
            "relative error {r200} after {} sweeps vs {r1000} after 1000",
            short.error_trace.len()
        );
    }

    #[test]
    fn dim_zero_rejected() {
        // Engine contract.
        let d = low_rank_nonneg(4);
        assert!(fit_matrix(&d, NmfConfig::new(0)).is_err());
    }

    #[test]
    fn refine_recovers_from_drift_in_few_iterations() {
        // Engine contract.
        let base = low_rank_nonneg(12);
        let data = DistanceMatrix::full("b", base.clone()).unwrap();
        let cold = fit(&data, NmfConfig::new(2)).unwrap();
        // Drift the matrix a few percent, then refine with a small budget.
        let mut drifted = base.clone();
        for (i, j, v) in base.iter_entries() {
            drifted[(i, j)] = v * (1.0 + 0.04 * ((i * 12 + j) as f64 * 0.9).cos());
        }
        let ddata = DistanceMatrix::full("d", drifted.clone()).unwrap();
        let budget = NmfConfig {
            iterations: 10,
            tolerance: 0.0,
            ..NmfConfig::new(2)
        };
        let warm = refine(&ddata, &cold.model, budget).unwrap();
        assert_eq!(warm.error_trace.len(), 10);
        // Warm refit beats both the stale model and a cold fit with the
        // same tiny budget.
        let stale_err: f64 = {
            let recon = cold.model.reconstruct();
            drifted
                .iter_entries()
                .map(|(i, j, v)| (v - recon[(i, j)]) * (v - recon[(i, j)]))
                .sum()
        };
        let cold_budget = fit(&ddata, budget).unwrap();
        let warm_err = *warm.error_trace.last().unwrap();
        assert!(warm_err < stale_err, "{warm_err} vs stale {stale_err}");
        assert!(
            warm_err < *cold_budget.error_trace.last().unwrap(),
            "warm {warm_err} vs cold-10-iter {}",
            cold_budget.error_trace.last().unwrap()
        );
        // Factors stay nonnegative through the refit.
        assert!(warm.model.x().is_nonnegative(0.0));
        assert!(warm.model.y().is_nonnegative(0.0));
    }

    #[test]
    fn refine_runs_a_zero_dimension_model() {
        // Engine contract.
        // A model without columns has nothing to sweep: the error stays
        // `‖D‖²` and no step divides by a zero-width row.
        let d = low_rank_nonneg(6);
        let data = DistanceMatrix::full("z", d.clone()).unwrap();
        let empty = FactorModel::new(Matrix::zeros(6, 0), Matrix::zeros(6, 0)).unwrap();
        let fit = refine(&data, &empty, NmfConfig::new(1)).unwrap();
        let d_sq = kernels::dot(d.as_slice(), d.as_slice());
        assert!(fit.error_trace.iter().all(|&e| e == d_sq));
        assert_eq!(fit.model.dim(), 0);
    }

    #[test]
    fn refine_rejects_mismatched_model() {
        // Engine contract.
        let data = DistanceMatrix::full("b", low_rank_nonneg(9)).unwrap();
        let other = fit_matrix(&low_rank_nonneg(5), NmfConfig::new(2)).unwrap();
        assert!(refine(&data, &other.model, NmfConfig::new(2)).is_err());
    }
}

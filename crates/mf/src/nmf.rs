//! Non-negative matrix factorization (§4.2 of the paper).
//!
//! Minimizes the squared error (Eq. 7), `‖D − X Yᵀ‖²`, under
//! nonnegativity of `X` and `Y`.
//!
//! # Complete data: hierarchical ALS
//!
//! A fully observed matrix is fit by HALS sweeps (Cichocki, Zdunek & Amari,
//! ICA 2007; Gillis & Glineur, *Neural Computation* 24(4), 2012), not by
//! the paper's Lee–Seung multiplicative updates. This is a deliberate
//! deviation: each HALS coordinate step is the exact minimizer on
//! `[EPS, ∞)`, so the error is monotone by construction, and on the paper's
//! matrix HALS from a random start passes the error of 200 multiplicative
//! updates from an SVD warm start by sweep 24. One sweep, with
//! `A = D Y` and `B = YᵀY`, is for each row `i` and `j = 0..k` in order
//!
//! ```text
//! X_ij ← max(EPS, X_ij + (A_ij − Σ_l X_il B_lj) / B_jj)
//! ```
//!
//! then the same for `Y` with `Dᵀ X` and `XᵀX`. A row's step reads only
//! that row, so this row-major Gauss–Seidel pass is exactly column-wise
//! HALS. A column whose `B_jj ≤ EPS` has collapsed and is left as is.
//!
//! * `D Y` and `Dᵀ X` are `n ≤ 16`-column products, which the kernel
//!   layer runs on its unpacked narrow driver at any depth. `Dᵀ` is formed
//!   once per fit, so `Dᵀ X` is a plain `(Dᵀ) · X` product too.
//! * `YᵀY` is formed once per sweep, at its end: that sweep's error and the
//!   next X half-step both read it.
//! * The error trace comes from what the sweep already holds,
//!   `‖D − X Yᵀ‖² = ‖D‖² − 2⟨Y, Dᵀ X⟩ + ⟨XᵀX, YᵀY⟩`, with `‖D‖²` formed
//!   once per fit. Where that value has cancelled below `1e-4 · ‖D‖²` (a
//!   near-exact fit), the error is recomputed from a banded reconstruction.
//!
//! The factors are bit-identical to forming every product on the packed
//! driver and the error by reconstruction; only the error trace differs, in
//! its last bits.
//!
//! # Missing data: the paper's multiplicative updates
//!
//! The masked variants (Eqs. 8–9) skip missing entries, which is NMF's key
//! practical advantage over SVD:
//!
//! ```text
//! X_ia ← X_ia ((D ∘ W) Y)_ia / (((X Yᵀ) ∘ W) Y)_ia
//! Y_ja ← Y_ja ((D ∘ W)ᵀ X)_ja / (((X Yᵀ) ∘ W)ᵀ X)_ja
//! ```
//!
//! They keep the masked reconstruction, which they need for the
//! denominators anyway. The paper reports that "two hundred iterations
//! suffice to converge to a local minimum"; 200 is the default cap on
//! either path.

use rand::rngs::StdRng;
use rand::SeedableRng;

use ides_datasets::DistanceMatrix;
use ides_linalg::{kernels, random, Matrix};

use crate::error::{MfError, Result};
use crate::model::FactorModel;

/// Floor of every factor entry; also the threshold below which a HALS
/// column counts as collapsed and a multiplicative denominator is clamped.
const EPS: f64 = 1e-12;

/// Initialization strategy for the factors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NmfInit {
    /// Uniform random positive entries (the paper's "initial (random)
    /// matrices"). The default.
    Random,
    /// Absolute values of the rank-`d` SVD factors (NNDSVDa): a lower
    /// first-sweep error, for the price of a truncated SVD.
    Svd,
}

/// Configuration for the NMF factorizer.
#[derive(Debug, Clone, Copy)]
pub struct NmfConfig {
    /// Target dimensionality `d`.
    pub dim: usize,
    /// Cap on the sweeps: HALS sweeps on complete data, multiplicative
    /// updates on masked data (paper: 200).
    pub iterations: usize,
    /// RNG seed for the random initialization.
    pub seed: u64,
    /// Stop early when the relative error improvement of a sweep drops
    /// below this threshold (0 runs every sweep up to the cap).
    pub tolerance: f64,
    /// Factor initialization strategy.
    pub init: NmfInit,
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
            init: NmfInit::Random,
        }
    }
}

/// Result of an NMF fit: the model plus the per-sweep squared-error trace
/// (useful for the convergence ablation).
#[derive(Debug, Clone)]
pub struct NmfFit {
    /// The fitted nonnegative factor model.
    pub model: FactorModel,
    /// Squared reconstruction error after each sweep.
    pub error_trace: Vec<f64>,
}

/// Factors a fully observed nonnegative matrix. A NaN or infinite entry is
/// refused as [`MfError::InvalidInput`], a negative one as
/// [`MfError::NegativeInput`].
pub fn fit_matrix(d: &Matrix, config: NmfConfig) -> Result<NmfFit> {
    validate(d, config.dim)?;
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
    Ok(fit_masked_inner(d, None, config))
}

/// Factors a distance matrix, using the masked updates (Eqs. 8–9) when
/// entries are missing.
pub fn fit(data: &DistanceMatrix, config: NmfConfig) -> Result<NmfFit> {
    validate(data.values(), config.dim)?;
    Ok(fit_masked_inner(data.values(), observed(data), config))
}

/// The mask the updates must honor: `None` when every entry is observed,
/// which selects the complete-data updates.
fn observed(data: &DistanceMatrix) -> Option<&Matrix> {
    (!data.is_complete()).then(|| data.mask())
}

fn validate(d: &Matrix, dim: usize) -> Result<()> {
    if d.rows() == 0 || d.cols() == 0 {
        return Err(MfError::InvalidInput("empty matrix".into()));
    }
    if dim == 0 {
        return Err(MfError::InvalidInput("dimension must be at least 1".into()));
    }
    Ok(())
}

/// Preallocated sweep workspace: every buffer the updates touch, sized
/// once before the loop so the **sweeps perform no heap allocation**
/// (asserted by `tests/alloc_free.rs`). The one `m x n`-sized buffer of
/// the complete path is `Dᵀ`; the masked path holds `D ∘ mask` and the
/// masked reconstruction instead.
struct Workspace {
    /// `k x k` Gram `XᵀX` of the X the Y half-step reads.
    gram_x: Matrix,
    /// `k x k` Gram `YᵀY` of the current Y: formed at the end of each
    /// sweep, read by that sweep's error and the next X half-step.
    gram_y: Matrix,
    /// `m x k` product `D Y` (masked path: the numerator `(D ∘ mask) Y`).
    num_x: Matrix,
    /// Masked path: `m x k` denominator of the X update.
    den_x: Matrix,
    /// `n x k` product `Dᵀ X`, which also feeds the error identity
    /// (masked path: the numerator `(D ∘ mask)ᵀ X`).
    num_y: Matrix,
    /// Masked path: `n x k` denominator of the Y update.
    den_y: Matrix,
    /// Complete path: `Dᵀ`, fixed across sweeps, so `Dᵀ X` runs as a
    /// plain `(Dᵀ) · X` product on the kernel layer's narrow driver.
    dt: Matrix,
    /// Masked path: `D ∘ mask`, fixed across iterations.
    md: Matrix,
    /// Masked path: current masked reconstruction `(X Yᵀ) ∘ mask`.
    recon: Matrix,
    /// Complete path: row band of the reconstruction for the banded error,
    /// the fallback when the error identity cancels.
    band: Matrix,
}

impl Workspace {
    fn new(d: &Matrix, k: usize, complete: bool) -> Self {
        let (m, n) = d.shape();
        let (mn_rows, mn_cols, band_rows) = if complete {
            (0, 0, crate::banded::ERROR_BAND_ROWS.min(m.max(1)))
        } else {
            (m, n, 0)
        };
        let (den_m, den_n) = if complete { (0, 0) } else { (m, n) };
        Workspace {
            gram_x: Matrix::zeros(k, k),
            gram_y: Matrix::zeros(k, k),
            num_x: Matrix::zeros(m, k),
            den_x: Matrix::zeros(den_m, k),
            num_y: Matrix::zeros(n, k),
            den_y: Matrix::zeros(den_n, k),
            dt: if complete {
                d.transpose()
            } else {
                Matrix::zeros(0, 0)
            },
            md: Matrix::zeros(mn_rows, mn_cols),
            recon: Matrix::zeros(mn_rows, mn_cols),
            band: Matrix::zeros(band_rows, n),
        }
    }
}

fn fit_masked_inner(d: &Matrix, mask: Option<&Matrix>, config: NmfConfig) -> NmfFit {
    let (m, n) = d.shape();
    let k = config.dim.min(m).min(n);
    let (x, y) = match mask {
        None => initial_factors(d, k, config),
        Some(mask) => {
            // For the warm start on incomplete data, impute missing entries
            // with the observed mean so the init SVD is not biased towards
            // zero (or towards stale values stored behind the mask).
            let mut sum = 0.0;
            let mut count = 0usize;
            for (i, j, mv) in mask.iter_entries() {
                if mv == 1.0 {
                    sum += d[(i, j)];
                    count += 1;
                }
            }
            let mean = if count > 0 { sum / count as f64 } else { 0.0 };
            let imputed = Matrix::from_fn(
                m,
                n,
                |i, j| if mask[(i, j)] == 1.0 { d[(i, j)] } else { mean },
            );
            initial_factors(&imputed, k, config)
        }
    };
    iterate_from(d, mask, x, y, config)
}

/// Warm-start **partial refit**: continues the sweeps of [`fit`] (HALS on
/// complete data, multiplicative updates on masked data) from an existing
/// nonnegative factor model instead of a fresh initialization, running at
/// most `config.iterations` sweeps.
///
/// The streaming counterpart of [`fit`]: when a slab of the (possibly
/// masked) distance matrix drifts, a handful of sweeps from the current
/// factors re-converges far cheaper than a cold fit, because the start
/// point is already near the local optimum. Deterministic (no RNG) and
/// allocation-free in the inner loop — it reuses the same preallocated
/// workspace machinery as [`fit`]. Factor entries at or below zero are
/// floored to a tiny positive value so the multiplicative updates are not
/// locked at zero; `config.dim`, `config.seed`, and `config.init` are
/// ignored in favor of the model's own factors.
pub fn refine(data: &DistanceMatrix, model: &FactorModel, config: NmfConfig) -> Result<NmfFit> {
    validate(data.values(), model.dim().max(1))?;
    let (m, n) = data.shape();
    if model.x().rows() != m || model.y().rows() != n {
        return Err(MfError::DimensionMismatch {
            x: model.x().shape(),
            y: model.y().shape(),
        });
    }
    let mut x = model.x().clone();
    let mut y = model.y().clone();
    x.map_inplace(|v| v.max(EPS));
    y.map_inplace(|v| v.max(EPS));
    Ok(iterate_from(data.values(), observed(data), x, y, config))
}

/// The shared sweep loop, starting from the given factors: HALS sweeps for
/// `mask: None`, the masked multiplicative updates otherwise.
fn iterate_from(
    d: &Matrix,
    mask: Option<&Matrix>,
    mut x: Matrix,
    mut y: Matrix,
    config: NmfConfig,
) -> NmfFit {
    let k = x.cols();
    let mut ws = Workspace::new(d, k, mask.is_none());
    let d_sq = match mask {
        None => {
            // `YᵀY` for the first X half-step, and `‖D‖²` for the error
            // identity: `D` is fixed for the whole fit.
            y.tr_matmul_into(&y, &mut ws.gram_y).expect("shapes agree");
            kernels::dot(d.as_slice(), d.as_slice())
        }
        Some(mask) => {
            // Fixed numerator operand D ∘ mask, and the masked reconstruction
            // of the initial factors. Inside the loop the reconstruction is
            // recomputed exactly once per half-update and the end-of-iteration
            // error pass doubles as the next iteration's masking pass.
            for ((md, &dv), &mv) in ws
                .md
                .as_mut_slice()
                .iter_mut()
                .zip(d.as_slice())
                .zip(mask.as_slice())
            {
                *md = if mv == 1.0 { dv } else { 0.0 };
            }
            x.matmul_tr_into(&y, &mut ws.recon).expect("shapes agree");
            mask_recon_and_error(&mut ws.recon, d, mask);
            0.0
        }
    };

    let mut error_trace = Vec::with_capacity(config.iterations);
    let mut prev_err = f64::INFINITY;
    for _it in 0..config.iterations {
        let err = if let Some(mask) = mask {
            // Masked updates (Eqs. 8–9): reconstruction enters only through
            // observed cells. `ws.recon` holds `(X Yᵀ) ∘ mask` for the
            // current factors, carried over from the previous iteration's
            // fused error pass.
            ws.md.matmul_into(&y, &mut ws.num_x).expect("shapes agree");
            ws.recon
                .matmul_into(&y, &mut ws.den_x)
                .expect("shapes agree");
            update_factor(&mut x, &ws.num_x, &ws.den_x);

            x.matmul_tr_into(&y, &mut ws.recon).expect("shapes agree");
            mask_recon_and_error(&mut ws.recon, d, mask);
            ws.md
                .tr_matmul_into(&x, &mut ws.num_y)
                .expect("shapes agree");
            ws.recon
                .tr_matmul_into(&x, &mut ws.den_y)
                .expect("shapes agree");
            update_factor(&mut y, &ws.num_y, &ws.den_y);

            // Fused: one pass masks the fresh reconstruction for the next
            // iteration *and* accumulates this iteration's squared error.
            x.matmul_tr_into(&y, &mut ws.recon).expect("shapes agree");
            mask_recon_and_error(&mut ws.recon, d, mask)
        } else {
            // HALS on X against `D Y`, with `YᵀY` carried over from the
            // previous sweep's end; then on Y against `Dᵀ X` and `XᵀX`.
            d.matmul_into(&y, &mut ws.num_x).expect("shapes agree");
            hals_half_step(&mut x, &ws.num_x, &ws.gram_y);

            x.tr_matmul_into(&x, &mut ws.gram_x).expect("shapes agree");
            ws.dt.matmul_into(&x, &mut ws.num_y).expect("shapes agree");
            hals_half_step(&mut y, &ws.num_y, &ws.gram_x);

            y.tr_matmul_into(&y, &mut ws.gram_y).expect("shapes agree");
            complete_sq_error(d_sq, d, &x, &y, &mut ws)
        };
        error_trace.push(err);
        if config.tolerance > 0.0 && prev_err.is_finite() {
            let rel_impr = (prev_err - err) / prev_err.max(EPS);
            if rel_impr >= 0.0 && rel_impr < config.tolerance {
                break;
            }
        }
        prev_err = err;
    }

    let model = FactorModel::new(x, y).expect("columns agree");
    NmfFit { model, error_trace }
}

/// Builds the initial nonnegative factors according to the configured
/// strategy.
fn initial_factors(d: &Matrix, k: usize, config: NmfConfig) -> (Matrix, Matrix) {
    match config.init {
        NmfInit::Random => {
            let mut rng = StdRng::seed_from_u64(config.seed);
            // Positive random entries scaled so X Yᵀ starts near the
            // magnitude of D.
            let scale = (d.mean().max(EPS) / k as f64).sqrt();
            (
                random::uniform(d.rows(), k, 0.5 * scale, 1.5 * scale, &mut rng),
                random::uniform(d.cols(), k, 0.5 * scale, 1.5 * scale, &mut rng),
            )
        }
        NmfInit::Svd => {
            // NNDSVDa (Boutsidis & Gallopoulos): for each singular triple,
            // keep the dominant sign-consistent part of (u, v); fill the
            // remaining zeros with the data mean so multiplicative updates
            // are not locked at zero.
            match ides_linalg::svd::svd_truncated(
                d,
                k,
                ides_linalg::svd::TruncatedSvdOptions::default(),
            ) {
                Ok(s) => {
                    let mut x = Matrix::zeros(d.rows(), k);
                    let mut y = Matrix::zeros(d.cols(), k);
                    for j in 0..k.min(s.singular_values.len()) {
                        let sv = s.singular_values[j].max(0.0);
                        let u = s.u.col(j);
                        let v = s.v.col(j);
                        let up: Vec<f64> = u.iter().map(|&a| a.max(0.0)).collect();
                        let un: Vec<f64> = u.iter().map(|&a| (-a).max(0.0)).collect();
                        let vp: Vec<f64> = v.iter().map(|&a| a.max(0.0)).collect();
                        let vn: Vec<f64> = v.iter().map(|&a| (-a).max(0.0)).collect();
                        let norm = |w: &[f64]| w.iter().map(|a| a * a).sum::<f64>().sqrt();
                        let (nup, nun, nvp, nvn) = (norm(&up), norm(&un), norm(&vp), norm(&vn));
                        let termp = nup * nvp;
                        let termn = nun * nvn;
                        let (uu, vv, term, nu, nv) = if termp >= termn {
                            (up, vp, termp, nup, nvp)
                        } else {
                            (un, vn, termn, nun, nvn)
                        };
                        if term <= 0.0 || nu <= 0.0 || nv <= 0.0 {
                            continue; // leave zeros; filled by the mean below
                        }
                        let scale = (sv * term).sqrt();
                        for i in 0..x.rows() {
                            x[(i, j)] = scale * uu[i] / nu;
                        }
                        for i in 0..y.rows() {
                            y[(i, j)] = scale * vv[i] / nv;
                        }
                    }
                    // "a" variant: replace zeros with the mean-derived level
                    // so they stay reachable by multiplicative updates.
                    let fill = (d.mean().max(EPS) / k as f64).sqrt() * 0.01;
                    x.map_inplace(|v| if v <= 0.0 { fill } else { v });
                    y.map_inplace(|v| if v <= 0.0 { fill } else { v });
                    (x, y)
                }
                Err(_) => initial_factors(
                    d,
                    k,
                    NmfConfig {
                        init: NmfInit::Random,
                        ..config
                    },
                ),
            }
        }
    }
}

/// One HALS half-step on `f` against `a = D·G` and `b = GᵀG`, where `G` is
/// the other factor: for each row `i` and `j = 0..k` in order,
/// `f_ij ← max(EPS, f_ij + (a_ij − Σ_l f_il·b_lj) / b_jj)`, the exact
/// minimizer of the error over `f_ij ≥ EPS` with the rest held. A row's
/// steps read only that row, so rows are independent and the pass equals
/// column-wise HALS. A collapsed column (`b_jj ≤ EPS`) is left as is.
fn hals_half_step(f: &mut Matrix, a: &Matrix, b: &Matrix) {
    let k = f.cols();
    if k == 0 {
        return;
    }
    let b = b.as_slice();
    let mut f_blocks = f.as_mut_slice().chunks_exact_mut(HALS_ROWS * k);
    let mut a_blocks = a.as_slice().chunks_exact(HALS_ROWS * k);
    for (fb, ab) in f_blocks.by_ref().zip(a_blocks.by_ref()) {
        hals_rows::<HALS_ROWS>(fb, ab, b, k);
    }
    let f_rest = f_blocks.into_remainder().chunks_exact_mut(k);
    for (fr, ar) in f_rest.zip(a_blocks.remainder().chunks_exact(k)) {
        hals_rows::<1>(fr, ar, b, k);
    }
}

/// Rows one [`hals_half_step`] block steps together. Each row's chain of
/// `k` dependent coordinate steps is serial; interleaving independent
/// rows hides that latency without changing any row's arithmetic.
const HALS_ROWS: usize = 8;

/// The coordinate steps of `R` consecutive rows (`f`, `a`: `R x k`,
/// row-major), interleaved.
#[inline(always)]
fn hals_rows<const R: usize>(f: &mut [f64], a: &[f64], b: &[f64], k: usize) {
    for j in 0..k {
        let b_jj = b[j * k + j];
        if b_jj <= EPS {
            continue;
        }
        let mut s = [0.0; R];
        for l in 0..k {
            let b_lj = b[l * k + j];
            for (r, s_r) in s.iter_mut().enumerate() {
                *s_r += f[r * k + l] * b_lj;
            }
        }
        for (r, &s_r) in s.iter().enumerate() {
            let f_rj = &mut f[r * k + j];
            *f_rj = (*f_rj + (a[r * k + j] - s_r) / b_jj).max(EPS);
        }
    }
}

/// In-place multiplicative update `f ← f ∘ num / den` with a positive floor.
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

/// Below this share of `‖D‖²` the error identity has cancelled too far to
/// trust, and [`complete_sq_error`] recomputes the error band by band.
const IDENTITY_FLOOR: f64 = 1e-4;

/// `‖D − X Yᵀ‖²` for the sweep's final factors, from quantities the
/// update already holds:
///
/// ```text
/// ‖D − X Yᵀ‖² = ‖D‖² − 2⟨Y, Dᵀ X⟩ + ⟨XᵀX, YᵀY⟩
/// ```
///
/// with `Dᵀ X = num_y`, `XᵀX = gram_x` and `YᵀY = gram_y` — `O((m + n)k)`
/// work instead of the `O(mnk)` reconstruction. The three terms nearly
/// cancel once the fit is good, so the identity loses about
/// `ε · ‖D‖² / err` of relative accuracy; where its value falls below
/// [`IDENTITY_FLOOR`]` · ‖D‖²` (a near-exact fit, where it may even come
/// out negative) the error comes from the banded reconstruction instead.
fn complete_sq_error(d_sq: f64, d: &Matrix, x: &Matrix, y: &Matrix, ws: &mut Workspace) -> f64 {
    let cross = kernels::dot(y.as_slice(), ws.num_y.as_slice());
    let recon_sq = kernels::dot(ws.gram_x.as_slice(), ws.gram_y.as_slice());
    let err = d_sq - 2.0 * cross + recon_sq;
    if err < IDENTITY_FLOOR * d_sq {
        crate::banded::banded_sq_error(d, None, x, y, &mut ws.band)
    } else {
        err
    }
}

/// One fused row-major pass over the reconstruction: zeroes the cells the
/// mask hides (producing `(X Yᵀ) ∘ mask` in place) and accumulates
/// `Σ_observed (D − X Yᵀ)²` over the cells it keeps.
fn mask_recon_and_error(recon: &mut Matrix, d: &Matrix, mask: &Matrix) -> f64 {
    let mut err = 0.0;
    for ((rv, &dv), &mv) in recon
        .as_mut_slice()
        .iter_mut()
        .zip(d.as_slice())
        .zip(mask.as_slice())
    {
        if mv == 1.0 {
            let diff = dv - *rv;
            err += diff * diff;
        } else {
            *rv = 0.0;
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::DistanceEstimator;

    fn low_rank_nonneg(n: usize) -> Matrix {
        // Exactly rank-2 nonnegative matrix.
        let b = Matrix::from_fn(n, 2, |i, j| 1.0 + ((i + j) as f64 * 0.37).sin().abs());
        let c = Matrix::from_fn(2, n, |i, j| 1.0 + ((i * 3 + j) as f64 * 0.21).cos().abs());
        b.matmul(&c).unwrap()
    }

    #[test]
    fn error_descends_monotonically() {
        // Lee–Seung updates are guaranteed non-increasing in the objective.
        let d = low_rank_nonneg(12);
        let fit = fit_matrix(
            &d,
            NmfConfig {
                dim: 3,
                iterations: 100,
                seed: 5,
                tolerance: 0.0,
                init: NmfInit::Random,
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
        let d = low_rank_nonneg(15);
        let fit = fit_matrix(
            &d,
            NmfConfig {
                dim: 2,
                iterations: 500,
                seed: 1,
                tolerance: 0.0,
                init: NmfInit::Random,
            },
        )
        .unwrap();
        let rel = (&d - &fit.model.reconstruct()).frobenius_norm() / d.frobenius_norm();
        assert!(rel < 0.02, "relative reconstruction error {rel}");
    }

    #[test]
    fn factors_are_nonnegative() {
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
        let mut d = low_rank_nonneg(5);
        d[(2, 3)] = -1.0;
        assert!(matches!(
            fit_matrix(&d, NmfConfig::new(2)),
            Err(MfError::NegativeInput { row: 2, col: 3, .. })
        ));
    }

    #[test]
    fn rejects_nan_input() {
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

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn complete_updates_match_the_reference_loop_bitwise() {
        // The row-major pass over narrow-driver products, with `YᵀY`
        // carried across sweeps, must leave every factor bit as column-wise
        // HALS over packed products does; the error identity moves the
        // trace only in its last bits.
        let p2p = ides_datasets::generators::p2psim_like(300, 7).unwrap();
        let mut noisy = low_rank_nonneg(10);
        for (i, j, v) in low_rank_nonneg(10).iter_entries() {
            noisy[(i, j)] = v + 0.5 * ((i * 7 + j * 3) % 5) as f64;
        }
        let svd = |dim| NmfConfig {
            init: NmfInit::Svd,
            ..NmfConfig::new(dim)
        };
        let cases = [
            (p2p.matrix.values().clone(), NmfConfig::new(10)),
            (p2p.matrix.values().clone(), svd(10)),
            (
                low_rank_nonneg(12),
                NmfConfig {
                    tolerance: 0.0,
                    ..NmfConfig::new(3)
                },
            ),
            (noisy, svd(2)),
        ];
        for (d, config) in cases {
            assert!(d.iter_entries().all(|(_, _, v)| v.is_finite() && v >= 0.0));
            let k = config.dim.min(d.rows()).min(d.cols());
            let (x, y) = initial_factors(&d, k, config);
            let want = reference_hals_loop(&d, x.clone(), y.clone(), config);
            let got = iterate_from(&d, None, x, y, config);
            let label = format!("{}x{} {:?}", d.rows(), d.cols(), config.init);
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
        // HALS from a random start, stopped by the default tolerance, must
        // fit at least as well as the paper's 200 multiplicative updates
        // from the SVD warm start.
        let p2p = ides_datasets::generators::p2psim_like(300, 7).unwrap();
        let d = p2p.matrix.values();
        for dim in [3, 10] {
            let fit = fit_matrix(d, NmfConfig::new(dim)).unwrap();
            let warm = NmfConfig {
                init: NmfInit::Svd,
                ..NmfConfig::new(dim)
            };
            let (x, y) = initial_factors(d, dim, warm);
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
        // Corrupt one entry but mask it out: fit should be as good as clean.
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
                init: NmfInit::Svd,
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
    fn masked_updates_match_dense_on_complete_data() {
        let d = low_rank_nonneg(8);
        let cfg = NmfConfig {
            dim: 2,
            iterations: 50,
            seed: 9,
            tolerance: 0.0,
            init: NmfInit::Random,
        };
        // Complete data is fit by HALS, so the masked multiplicative updates
        // are held against the paper's complete-data ones.
        let (x, y) = initial_factors(&d, cfg.dim, cfg);
        let dense = reference_complete_loop(&d, x, y, cfg.iterations);
        // Force the masked code path with an all-ones mask.
        let mask = Matrix::filled(8, 8, 1.0);
        let masked = fit_masked_inner(&d, Some(&mask), cfg);
        let diff = dense
            .model
            .reconstruct()
            .max_abs_diff(&masked.model.reconstruct());
        assert!(diff < 1e-6, "dense and masked paths diverge: {diff}");
    }

    #[test]
    fn early_stopping_shortens_trace() {
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
    fn svd_init_starts_closer_than_random() {
        // The warm start's value is in early iterations: after the first
        // update its error must already be well below the random start's.
        let ds = ides_datasets::generators::gnp_like(19, 12).unwrap();
        let d = ds.matrix.values();
        let cfg = NmfConfig {
            iterations: 3,
            ..NmfConfig::new(8)
        };
        let warm = fit_matrix(
            d,
            NmfConfig {
                init: NmfInit::Svd,
                ..cfg
            },
        )
        .unwrap();
        let cold = fit_matrix(
            d,
            NmfConfig {
                init: NmfInit::Random,
                ..cfg
            },
        )
        .unwrap();
        assert!(
            warm.error_trace[0] < cold.error_trace[0],
            "warm first-iteration error {} vs cold {}",
            warm.error_trace[0],
            cold.error_trace[0]
        );
    }

    #[test]
    fn dim_zero_rejected() {
        let d = low_rank_nonneg(4);
        assert!(fit_matrix(&d, NmfConfig::new(0)).is_err());
    }

    #[test]
    fn refine_recovers_from_drift_in_few_iterations() {
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
        let cold_budget = fit(
            &ddata,
            NmfConfig {
                init: NmfInit::Random,
                ..budget
            },
        )
        .unwrap();
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
        let data = DistanceMatrix::full("b", low_rank_nonneg(9)).unwrap();
        let other = fit_matrix(&low_rank_nonneg(5), NmfConfig::new(2)).unwrap();
        assert!(refine(&data, &other.model, NmfConfig::new(2)).is_err());
    }
}

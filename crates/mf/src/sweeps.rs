//! The alternating sweep loop shared by ALS and NMF.
//!
//! Both minimize `Σ_observed (D_ij − X_i · Y_j)²` by half-steps: hold `Y`
//! and update every row of `X`, then the reverse. Consecutive rows that
//! observe the same columns form a **run** (every row, on complete data);
//! each run gets the Gram `FᵀF` of the fixed factor's observed rows and the
//! products `T·F` of its targets. The [`Step`] is the one difference: ALS
//! solves `FᵀF + λI` by Cholesky for every row (a batched host join, Eqs.
//! 13–14), NMF runs one HALS coordinate pass per row. On complete data
//! under uniform weights a half-step reads `D`, a `Dᵀ` formed once per
//! fit, and the factors in place, and `YᵀY` carries from a sweep's end into
//! the next; masked or weighted data gathers each run (a weighted row
//! scales its own design, so it is a run of one). Every buffer reaches its
//! high-water mark in the first sweep, so later sweeps allocate nothing.

use ides_datasets::DistanceMatrix;
use ides_linalg::cholesky::{cholesky_in_place, solve_cholesky_rows_in_place};
use ides_linalg::{kernels, solve, Matrix};

use crate::als::{apply_weights, WeightScheme};
use crate::banded::{banded_sq_error, ERROR_BAND_ROWS};
use crate::error::{MfError, Result};
use crate::model::FactorModel;

/// Floor of every NMF factor entry; also the threshold below which a HALS
/// column counts as collapsed.
pub(crate) const EPS: f64 = 1e-12;

/// Below this share of `‖D‖²` the error identity has cancelled too far to
/// trust, and the sweep recomputes its error band by band.
const IDENTITY_FLOOR: f64 = 1e-4;

/// The per-row solve of a half-step, selected by the family.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// ALS: ridge least squares, each cell weighted per `weights`.
    Ridge { lambda: f64, weights: WeightScheme },
    /// NMF: one HALS coordinate pass per row.
    Hals,
}

/// Refuses an empty matrix and a zero target dimension.
pub(crate) fn validate(d: &Matrix, dim: usize) -> Result<()> {
    if d.rows() == 0 || d.cols() == 0 {
        return Err(MfError::InvalidInput("empty matrix".into()));
    }
    if dim == 0 {
        return Err(MfError::InvalidInput("dimension must be at least 1".into()));
    }
    Ok(())
}

/// The mask a fit of `data` honors: `None` when every entry is observed.
pub(crate) fn observed(data: &DistanceMatrix) -> Option<&Matrix> {
    (!data.is_complete()).then(|| data.mask())
}

/// Refuses a warm start whose factors do not fit `d`'s shape.
pub(crate) fn check_model(d: &Matrix, model: &FactorModel) -> Result<()> {
    validate(d, 1)?;
    if model.x().rows() != d.rows() || model.y().rows() != d.cols() {
        return Err(MfError::DimensionMismatch {
            x: model.x().shape(),
            y: model.y().shape(),
        });
    }
    Ok(())
}

/// Scale of a random start at rank `k`: `sqrt(|mean| / k)`, so that
/// `X Yᵀ` starts near the magnitude of `D`. The mean is over the observed
/// cells only (`mask: None` observes every cell), summed in row-major
/// order, so a value stored behind the mask never reaches the fit; on
/// complete data it is `d.mean()` bit for bit.
pub(crate) fn start_scale(d: &Matrix, mask: Option<&Matrix>, k: usize) -> f64 {
    let seen = |at: &usize| mask.is_none_or(|mask| mask.as_slice()[*at] == 1.0);
    let cells = (0..d.as_slice().len()).filter(seen);
    let sum: f64 = cells.clone().map(|at| d.as_slice()[at]).sum();
    let count = cells.count();
    let mean = if count == 0 { 0.0 } else { sum / count as f64 };
    (mean.abs().max(1e-12) / k as f64).sqrt()
}

/// Runs up to `sweeps` X-then-Y sweeps of `step` from `(x, y)` and returns
/// the final model with its per-sweep squared error over the observed
/// cells. `mask: None` marks every cell observed. The fit stops early once
/// a sweep improves the error by less than `tolerance` relative (0 runs
/// every sweep).
pub(crate) fn run(
    d: &Matrix,
    mask: Option<&Matrix>,
    mut x: Matrix,
    mut y: Matrix,
    step: Step,
    sweeps: usize,
    tolerance: f64,
) -> Result<(FactorModel, Vec<f64>)> {
    let (m, n) = d.shape();
    let k = x.cols();
    // A weighted row scales its own design, so weighted complete data runs
    // the gathering path over an all-ones mask.
    let ones;
    let mask = match (mask, step) {
        (None, Step::Ridge { weights, .. }) if weights != WeightScheme::Uniform => {
            ones = Matrix::filled(m, n, 1.0);
            Some(&ones)
        }
        _ => mask,
    };
    let dt = d.transpose();
    let obs = mask.map(|mask| (observed_sets(mask), observed_sets(&mask.transpose())));
    let mut ws = Workspace::new(m, n, k, mask.is_none());
    // The identity's last-bit noise can move an ALS stop, and with it the
    // factors, so ALS reads it only where no stop rule reads the trace.
    // `‖D‖²` is formed once for it, `YᵀY` for the first X half-step.
    let identity = mask.is_none() && (matches!(step, Step::Hals) || tolerance == 0.0);
    let d_sq = identity.then(|| kernels::dot(d.as_slice(), d.as_slice()));
    y.tr_matmul_into(&y, &mut ws.gram_y)?;

    let mut error_trace = Vec::with_capacity(sweeps);
    for _ in 0..sweeps {
        let err = match &obs {
            Some((rows_obs, cols_obs)) => {
                ws.runs(step, d, rows_obs, &y, &mut x)?;
                ws.runs(step, &dt, cols_obs, &x, &mut y)?;
                banded_sq_error(d, mask, &x, &y, &mut ws.band)
            }
            None => {
                d.matmul_into(&y, &mut ws.dy)?;
                ws.solve
                    .apply(step, &ws.gram_y, &ws.dy, &y, d, x.as_mut_slice())?;
                x.tr_matmul_into(&x, &mut ws.gram_x)?;
                dt.matmul_into(&x, &mut ws.dtx)?;
                ws.solve
                    .apply(step, &ws.gram_x, &ws.dtx, &x, &dt, y.as_mut_slice())?;
                y.tr_matmul_into(&y, &mut ws.gram_y)?;
                ws.complete_sq_error(d_sq, d, &x, &y)
            }
        };
        let prev = error_trace.last().copied();
        error_trace.push(err);
        if prev.is_some_and(|prev| stalled(prev, err, tolerance)) {
            break;
        }
    }
    Ok((FactorModel::new(x, y)?, error_trace))
}

/// The stop rule of both families: a sweep that improved the error by
/// less than `tolerance` relative (and did not raise it) ends the fit.
fn stalled(prev: f64, err: f64, tolerance: f64) -> bool {
    let improvement = (prev - err) / prev.max(1e-300);
    tolerance > 0.0 && (0.0..tolerance).contains(&improvement)
}

/// The observed columns of each row of `mask`.
fn observed_sets(mask: &Matrix) -> Vec<Vec<usize>> {
    let rows = (0..mask.rows()).map(|i| mask.row(i));
    rows.map(|row| (0..row.len()).filter(|&j| row[j] == 1.0).collect())
        .collect()
}

/// Every buffer a sweep touches.
struct Workspace {
    /// `k x k` Grams of the complete path: `XᵀX` for the Y half-step and
    /// the error, `YᵀY` carried from a sweep's end into the next X
    /// half-step.
    gram_x: Matrix,
    gram_y: Matrix,
    /// Complete path: `D·Y` (`m x k`) and `Dᵀ·X` (`n x k`), which also
    /// feeds the error identity.
    dy: Matrix,
    dtx: Matrix,
    /// Masked path, one run: the fixed factor's observed rows (scaled under
    /// weights), the run's targets, their Gram and their product.
    design: Matrix,
    targets: Matrix,
    gram: Matrix,
    prod: Matrix,
    solve: Solve,
    /// Row band of the reconstruction for the banded error.
    band: Matrix,
}

impl Workspace {
    fn new(m: usize, n: usize, k: usize, complete: bool) -> Self {
        let (pm, pn) = if complete { (m, n) } else { (0, 0) };
        Workspace {
            gram_x: Matrix::zeros(k, k),
            gram_y: Matrix::zeros(k, k),
            dy: Matrix::zeros(pm, k),
            dtx: Matrix::zeros(pn, k),
            design: Matrix::default(),
            targets: Matrix::default(),
            gram: Matrix::default(),
            prod: Matrix::default(),
            solve: Solve::default(),
            band: Matrix::zeros(ERROR_BAND_ROWS.min(m), n),
        }
    }

    /// One masked (or weighted) half-step: every row `i` of `out` is
    /// solved against `fixed[obs[i]]` and `targets[i, obs[i]]`, one run of
    /// rows sharing `obs[i]` at a time. A row with nothing observed keeps
    /// its value.
    fn runs(
        &mut self,
        step: Step,
        targets: &Matrix,
        obs: &[Vec<usize>],
        fixed: &Matrix,
        out: &mut Matrix,
    ) -> Result<()> {
        let k = fixed.cols();
        let weights = match step {
            Step::Ridge { weights, .. } => weights,
            Step::Hals => WeightScheme::Uniform,
        };
        let mut i = 0;
        while i < obs.len() {
            let cols = &obs[i];
            let run = match weights {
                WeightScheme::Uniform => obs[i..].iter().take_while(|o| *o == cols).count(),
                _ => 1,
            };
            if !cols.is_empty() {
                fixed.select_rows_into(cols, &mut self.design);
                self.targets.reset_shape(run, cols.len());
                for r in 0..run {
                    let src = targets.row(i + r);
                    for (dst, &j) in self.targets.row_mut(r).iter_mut().zip(cols) {
                        *dst = src[j];
                    }
                }
                if weights != WeightScheme::Uniform {
                    apply_weights(&mut self.design, self.targets.row_mut(0), weights);
                }
                self.gram.reset_shape(k, k);
                self.design.tr_matmul_into(&self.design, &mut self.gram)?;
                self.prod.reset_shape(run, k);
                self.targets.matmul_into(&self.design, &mut self.prod)?;
                let rows = &mut out.as_mut_slice()[i * k..(i + run) * k];
                let (g, p, a, t) = (&self.gram, &self.prod, &self.design, &self.targets);
                self.solve.apply(step, g, p, a, t, rows)?;
            }
            i += run;
        }
        Ok(())
    }

    /// `‖D − X Yᵀ‖²` of the complete path. Given `d_sq = ‖D‖²` it is
    /// `‖D‖² − 2⟨Y, DᵀX⟩ + ⟨XᵀX, YᵀY⟩` from what the sweep holds,
    /// `O((m + n)k)` work instead of `O(mnk)`. The terms nearly cancel once the fit is
    /// good, losing about `ε · ‖D‖² / err` of relative accuracy, so below
    /// [`IDENTITY_FLOOR`]` · ‖D‖²` (where it may even come out negative),
    /// and without `d_sq`, the error comes from the banded reconstruction.
    fn complete_sq_error(&mut self, d_sq: Option<f64>, d: &Matrix, x: &Matrix, y: &Matrix) -> f64 {
        let identity = d_sq.map(|d_sq| {
            let cross = kernels::dot(y.as_slice(), self.dtx.as_slice());
            let recon_sq = kernels::dot(self.gram_x.as_slice(), self.gram_y.as_slice());
            (d_sq - 2.0 * cross + recon_sq, d_sq)
        });
        match identity {
            Some((err, d_sq)) if err >= IDENTITY_FLOOR * d_sq => err,
            _ => banded_sq_error(d, None, x, y, &mut self.band),
        }
    }
}

/// Scratch of the ridge solve: the factored Gram and the solutions.
#[derive(Default)]
struct Solve {
    chol: Matrix,
    solved: Matrix,
}

impl Solve {
    /// Updates `rows` (`r x k`, row-major) by `step` against the Gram `gram`
    /// of `design` and the products `prod = targets · design`. The ridge
    /// step is [`solve::lstsq_ridge_multi_with`]'s arithmetic: one Cholesky
    /// of `gram + λI` and one lane-blocked solve of every row, falling back
    /// to [`solve::lstsq_normal`] per row when the Gram is indefinite.
    fn apply(
        &mut self,
        step: Step,
        gram: &Matrix,
        prod: &Matrix,
        design: &Matrix,
        targets: &Matrix,
        rows: &mut [f64],
    ) -> Result<()> {
        let k = gram.rows();
        if k == 0 {
            return Ok(());
        }
        match step {
            Step::Hals => hals(rows, prod.as_slice(), gram.as_slice(), k),
            Step::Ridge { lambda, .. } => {
                self.chol.reset_shape(k, k);
                self.chol.as_mut_slice().copy_from_slice(gram.as_slice());
                for i in 0..k {
                    self.chol[(i, i)] += lambda;
                }
                if cholesky_in_place(&mut self.chol).is_ok() {
                    self.solved.reset_shape(prod.rows(), k);
                    self.solved.as_mut_slice().copy_from_slice(prod.as_slice());
                    solve_cholesky_rows_in_place(&self.chol, &mut self.solved)?;
                    rows.copy_from_slice(self.solved.as_slice());
                } else {
                    for (r, row) in rows.chunks_exact_mut(k).enumerate() {
                        row.copy_from_slice(&solve::lstsq_normal(design, targets.row(r))?);
                    }
                }
            }
        }
        Ok(())
    }
}

/// One HALS pass over the rows of `f` against `a` (the rows' `T·F`) and
/// `b` (the Gram `FᵀF`), all row-major with `k` columns: for each row and
/// `j = 0..k` in order, `f_j ← max(EPS, f_j + (a_j − Σ_l f_l b_lj) / b_jj)`,
/// the exact minimizer over `f_j ≥ EPS` with the rest held. A row's steps
/// read only that row, so on complete data the pass equals column-wise
/// HALS. A collapsed column (`b_jj ≤ EPS`) is left as is.
fn hals(f: &mut [f64], a: &[f64], b: &[f64], k: usize) {
    let mut f_blocks = f.chunks_exact_mut(HALS_ROWS * k);
    let mut a_blocks = a.chunks_exact(HALS_ROWS * k);
    for (fb, ab) in f_blocks.by_ref().zip(a_blocks.by_ref()) {
        hals_rows::<HALS_ROWS>(fb, ab, b, k);
    }
    let f_rest = f_blocks.into_remainder().chunks_exact_mut(k);
    for (fr, ar) in f_rest.zip(a_blocks.remainder().chunks_exact(k)) {
        hals_rows::<1>(fr, ar, b, k);
    }
}

/// Rows one [`hals`] block steps together. Each row's chain of `k`
/// dependent coordinate steps is serial; interleaving independent rows
/// hides that latency without changing any row's arithmetic.
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

#[cfg(test)]
mod tests {
    //! Each test is labelled an *engine contract* (what the loop promises)
    //! or a *history oracle* (held against a copy of a former loop).

    use super::*;
    use crate::{als, nmf};

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn hidden_cells_never_reach_a_fit() {
        // Engine contract: whatever a hidden cell holds, both families fit
        // the bits they fit with the cell zero-filled. (The start scale once
        // averaged hidden cells in: +∞ panicked ALS's random start, NaN and
        // −5 moved it.)
        let full = ides_datasets::generators::p2psim_like(30, 11)
            .unwrap()
            .matrix;
        let hidden = [
            (0, 5),
            (3, 1),
            (7, 22),
            (12, 12),
            (29, 0),
            (15, 16),
            (15, 17),
        ];
        let mut mask = Matrix::filled(30, 30, 1.0);
        for &cell in &hidden {
            mask[cell] = 0.0;
        }
        let with = |v: f64| {
            let mut values = full.values().clone();
            for &cell in &hidden {
                values[cell] = v;
            }
            DistanceMatrix::with_mask("hidden", values, mask.clone()).unwrap()
        };
        let zero = with(0.0);
        type Fit = fn(&DistanceMatrix) -> crate::Result<FactorModel>;
        let fits: [(&str, Fit); 3] = [
            ("als", |d| Ok(als::fit(d, als::AlsConfig::new(4))?.model)),
            ("als relative", |d| {
                Ok(als::fit(d, als::AlsConfig::relative(4))?.model)
            }),
            ("nmf", |d| Ok(nmf::fit(d, nmf::NmfConfig::new(4))?.model)),
        ];
        for (family, fit) in fits {
            let want = fit(&zero).unwrap();
            for v in [0.0, f64::NAN, f64::INFINITY, -5.0, 1e6] {
                let got = fit(&with(v)).unwrap_or_else(|e| panic!("{family}, hidden {v}: {e}"));
                assert_eq!(bits(got.x()), bits(want.x()), "{family}, hidden {v}: X");
                assert_eq!(bits(got.y()), bits(want.y()), "{family}, hidden {v}: Y");
            }
        }
    }

    #[test]
    fn start_scale_on_complete_data_is_the_mean() {
        // Engine contract: the observed-cell mean is `Matrix::mean` bit for
        // bit when every cell is observed, so complete fits keep their start.
        let d = ides_datasets::generators::p2psim_like(40, 2)
            .unwrap()
            .matrix;
        let ones = Matrix::filled(40, 40, 1.0);
        let want = (d.values().mean().abs().max(1e-12) / 7.0).sqrt();
        assert_eq!(start_scale(d.values(), None, 7).to_bits(), want.to_bits());
        assert_eq!(
            start_scale(d.values(), Some(&ones), 7).to_bits(),
            want.to_bits()
        );
    }
}

//! Singular value decomposition.
//!
//! Three algorithms are provided:
//!
//! * [`svd`] — full SVD. Dispatches to the **blocked Golub–Kahan** path
//!   ([`crate::factor::svd_with`]: bidiagonalization + implicit-shift QR
//!   with GEMM-accumulated `U`/`V`) above [`crate::factor::SMALL`], and to
//!   one-sided Jacobi at or below it; Jacobi is also the fallback if the
//!   shift iteration ever fails to converge.
//! * [`svd_jacobi`] — full SVD by **one-sided Jacobi** rotations. Slower
//!   than bidiagonalization but simple, numerically robust, and highly
//!   accurate for small singular values; the small-matrix workhorse and
//!   the accuracy oracle of the blocked property suite.
//! * [`svd_truncated`] — rank-`d` **subspace (orthogonal) iteration**, the
//!   right tool when only the leading `d ≪ n` singular triples are needed
//!   (the common case in distance-matrix factorization). Its per-iteration
//!   re-orthonormalization rides the blocked QR.

use crate::error::{ensure_finite, LinalgError, Result};
use crate::matrix::Matrix;

/// Result of a singular value decomposition `A = U S Vᵀ`.
///
/// `u` is `m x k`, `v` is `n x k` (both with orthonormal columns) and
/// `singular_values` holds the `k` singular values in non-increasing order,
/// where `k = min(m, n)` for a full SVD or the requested rank for a
/// truncated one.
#[derive(Debug, Clone, Default)]
pub struct Svd {
    /// Left singular vectors (columns), `m x k`.
    pub u: Matrix,
    /// Singular values in non-increasing order, length `k`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors (columns), `n x k`.
    pub v: Matrix,
}

impl Svd {
    /// Reconstructs `U S Vᵀ` as the single kernel GEMM `U (V S)ᵀ`,
    /// scaling the (smaller) right factor instead of cloning `U`.
    pub fn reconstruct(&self) -> Matrix {
        let vs = Matrix::from_fn(self.v.rows(), self.v.cols(), |i, j| {
            self.v[(i, j)] * self.singular_values[j]
        });
        self.u.matmul_tr(&vs).expect("shapes agree by construction")
    }

    /// Truncates the decomposition to the leading `d` triples.
    pub fn truncate(&self, d: usize) -> Svd {
        let d = d.min(self.singular_values.len());
        let cols: Vec<usize> = (0..d).collect();
        Svd {
            u: self.u.select_cols(&cols),
            singular_values: self.singular_values[..d].to_vec(),
            v: self.v.select_cols(&cols),
        }
    }

    /// Numerical rank: number of singular values above `tol * s_max`.
    pub fn rank(&self, tol: f64) -> usize {
        let smax = self.singular_values.first().copied().unwrap_or(0.0);
        self.singular_values
            .iter()
            .filter(|&&s| s > tol * smax)
            .count()
    }
}

/// Maximum number of one-sided Jacobi sweeps before giving up.
const MAX_JACOBI_SWEEPS: usize = 60;

/// Computes the full SVD of `a`.
///
/// Dispatches on size: matrices whose smaller dimension is at most
/// [`crate::factor::SMALL`] use one-sided Jacobi ([`svd_jacobi`]); larger
/// ones run the blocked Golub–Kahan path ([`crate::factor::svd_with`]),
/// falling back to Jacobi in the (defensive) event the implicit-shift
/// iteration does not converge. Repeated large-matrix callers should hold
/// a [`crate::factor::FactorWorkspace`] and call the `_with` variant
/// directly, which allocates nothing once warm.
pub fn svd(a: &Matrix) -> Result<Svd> {
    ensure_finite(a, "svd")?;
    if a.rows().min(a.cols()) <= crate::factor::SMALL {
        return svd_jacobi(a);
    }
    let mut out = Svd::default();
    small_svd(a, &mut crate::factor::FactorWorkspace::new(), &mut out)?;
    Ok(out)
}

/// Computes the full SVD of `a` by one-sided Jacobi rotations — the
/// small-matrix path and accuracy fallback of [`svd`].
///
/// Works for any shape; internally operates on the transposed matrix when
/// `m < n` and swaps `u`/`v` back at the end.
pub fn svd_jacobi(a: &Matrix) -> Result<Svd> {
    ensure_finite(a, "svd_jacobi")?;
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Ok(Svd {
            u: Matrix::zeros(m, 0),
            singular_values: vec![],
            v: Matrix::zeros(n, 0),
        });
    }
    if m < n {
        let t = svd_jacobi(&a.transpose())?;
        return Ok(Svd {
            u: t.v,
            singular_values: t.singular_values,
            v: t.u,
        });
    }

    // Work on columns of W (a copy of A); V accumulates the rotations.
    let mut w = a.clone();
    let mut v = Matrix::identity(n);
    let eps = 1e-14;
    // Scale tolerance by the Frobenius norm so convergence is relative.
    let fnorm = w.frobenius_norm();
    if fnorm == 0.0 {
        // Zero matrix: U = any orthonormal basis (identity block), S = 0.
        let mut u = Matrix::zeros(m, n);
        for i in 0..n {
            u[(i, i)] = 1.0;
        }
        return Ok(Svd {
            u,
            singular_values: vec![0.0; n],
            v,
        });
    }
    let tol = eps * fnorm * fnorm;

    let mut converged = false;
    for _sweep in 0..MAX_JACOBI_SWEEPS {
        let mut off = 0.0_f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Compute the 2x2 Gram block for columns p, q.
                let mut app = 0.0;
                let mut aqq = 0.0;
                let mut apq = 0.0;
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    app += wp * wp;
                    aqq += wq * wq;
                    apq += wp * wq;
                }
                off = off.max(apq.abs());
                if apq.abs() <= tol {
                    continue;
                }
                // Jacobi rotation that zeroes the off-diagonal Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Rotate columns p and q of W and V.
                for i in 0..m {
                    let wp = w[(i, p)];
                    let wq = w[(i, q)];
                    w[(i, p)] = c * wp - s * wq;
                    w[(i, q)] = s * wp + c * wq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if off <= tol {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(LinalgError::NoConvergence {
            op: "svd (one-sided Jacobi)",
            iterations: MAX_JACOBI_SWEEPS,
        });
    }

    // Singular values are the column norms of W; U = W with normalized columns.
    let mut triples: Vec<(f64, usize)> = (0..n)
        .map(|j| {
            let norm = (0..m).map(|i| w[(i, j)] * w[(i, j)]).sum::<f64>().sqrt();
            (norm, j)
        })
        .collect();
    triples.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("norms are finite"));

    let mut u = Matrix::zeros(m, n);
    let mut v_sorted = Matrix::zeros(n, n);
    let mut sv = Vec::with_capacity(n);
    let smax = triples[0].0;
    let rank_tol = 1e-13 * smax;
    let mut degenerate: Vec<usize> = Vec::new();
    for (dst, &(norm, src)) in triples.iter().enumerate() {
        sv.push(norm);
        if norm > rank_tol {
            for i in 0..m {
                u[(i, dst)] = w[(i, src)] / norm;
            }
        } else {
            degenerate.push(dst);
        }
        for i in 0..n {
            v_sorted[(i, dst)] = v[(i, src)];
        }
    }
    // For (numerically) zero singular values the Jacobi columns vanish;
    // complete U to an orthonormal set by Gram-Schmidt against the
    // coordinate basis so the documented invariant UᵀU = I always holds.
    for &dst in &degenerate {
        for trial in 0..m {
            let mut cand = vec![0.0; m];
            cand[trial] = 1.0;
            // Orthogonalize against all previously filled columns (twice,
            // for numerical safety).
            for _ in 0..2 {
                for j in 0..n {
                    if j == dst {
                        continue;
                    }
                    let dot: f64 = (0..m).map(|i| cand[i] * u[(i, j)]).sum();
                    for (i, c) in cand.iter_mut().enumerate() {
                        *c -= dot * u[(i, j)];
                    }
                }
            }
            let norm: f64 = cand.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 0.5 {
                for (i, c) in cand.iter().enumerate() {
                    u[(i, dst)] = c / norm;
                }
                break;
            }
        }
    }
    Ok(Svd {
        u,
        singular_values: sv,
        v: v_sorted,
    })
}

/// Options for [`svd_truncated`].
#[derive(Debug, Clone, Copy)]
pub struct TruncatedSvdOptions {
    /// Extra subspace columns carried during iteration (improves accuracy of
    /// the trailing requested triples). Default 8.
    pub oversample: usize,
    /// Maximum subspace sweeps. Default 200.
    pub max_iterations: usize,
    /// Stop once every requested Ritz triplet has
    /// `‖Aᵀu_j − σ_j v_j‖ ≤ tolerance · σ₁`, tested every few sweeps.
    /// The error in `σ_j` is of the order of the residual squared, so the
    /// default 1e-8 already puts every σ near machine precision.
    pub tolerance: f64,
}

impl Default for TruncatedSvdOptions {
    fn default() -> Self {
        TruncatedSvdOptions {
            oversample: 8,
            max_iterations: 200,
            tolerance: 1e-8,
        }
    }
}

/// Computes the leading `d` singular triples of `a` by subspace iteration
/// with QR re-orthonormalization on the blocked factorization layer and a
/// Rayleigh–Ritz projection, stopped by the Ritz residual
/// ([`TruncatedSvdOptions::tolerance`]). Allocating convenience wrapper over
/// [`svd_truncated_with`].
///
/// Deterministic: the start basis is a fixed quasi-random (but seedless)
/// matrix, so repeated runs give identical results. A non-finite entry in
/// `a` is an error ([`LinalgError::NonFinite`]).
pub fn svd_truncated(a: &Matrix, d: usize, opts: TruncatedSvdOptions) -> Result<Svd> {
    let mut ws = crate::factor::FactorWorkspace::new();
    let mut out = Svd::default();
    svd_truncated_with(a, d, opts, &mut ws, &mut out)?;
    Ok(out)
}

/// Staging buffers for one truncated-SVD run, taken out of the
/// [`crate::factor::FactorWorkspace`] for the duration of the call so the
/// workspace itself stays free for the nested `qr_with` / `svd_with`
/// factorizations, and put back on every exit path: the basis `V`
/// (`n x p`), `A·V`, `Z = Aᵀ·(A·V)`, and the QR and projection-SVD outputs.
#[derive(Debug, Default, Clone)]
pub(crate) struct TruncStage {
    v: Matrix,
    av: Matrix,
    atav: Matrix,
    qr: crate::qr::Qr,
    svd: Svd,
}

/// [`svd_truncated`] into a caller-owned [`Svd`] and
/// [`crate::factor::FactorWorkspace`]: subspace iteration whose iterates,
/// re-orthonormalizations, projection SVD, and outputs all live in
/// workspace-owned buffers, so a warm workspace serves repeated calls of
/// one shape **without allocating**.
///
/// The projection SVD always runs the blocked Golub–Kahan path
/// ([`crate::factor::svd_with`]); Jacobi, which allocates, is only the
/// fallback if its shift iteration fails to converge. `out` is
/// unspecified on error.
pub fn svd_truncated_with(
    a: &Matrix,
    d: usize,
    opts: TruncatedSvdOptions,
    ws: &mut crate::factor::FactorWorkspace,
    out: &mut Svd,
) -> Result<()> {
    let mut st = std::mem::take(&mut ws.trunc);
    let result = svd_truncated_core(a, d, opts, ws, &mut st, out);
    ws.trunc = st;
    result
}

/// Copies the leading `k` left singular vectors and values of `full` into
/// `out` (reshaped); `out.v` is the caller's to write.
fn emit_left(full: &Svd, k: usize, out: &mut Svd) {
    let m = full.u.rows();
    out.u.reset_shape(m, k);
    for i in 0..m {
        out.u.row_mut(i).copy_from_slice(&full.u.row(i)[..k]);
    }
    out.singular_values.clear();
    out.singular_values
        .extend_from_slice(&full.singular_values[..k]);
}

/// Sweeps between two Rayleigh–Ritz residual checks in
/// [`svd_truncated_with`]. A check costs one small SVD of `A·V` and
/// `O(n·p·k)` flops; a sweep costs two GEMMs with `A`.
const RITZ_CHECK_EVERY: usize = 5;

/// Blocked Golub–Kahan SVD of `a` into `out`, falling back to Jacobi if
/// the shift iteration does not converge.
fn small_svd(a: &Matrix, ws: &mut crate::factor::FactorWorkspace, out: &mut Svd) -> Result<()> {
    match crate::factor::svd_with(a, ws, out) {
        Err(LinalgError::NoConvergence { .. }) => *out = svd_jacobi(a)?,
        r => r?,
    }
    Ok(())
}

fn svd_truncated_core(
    a: &Matrix,
    d: usize,
    opts: TruncatedSvdOptions,
    ws: &mut crate::factor::FactorWorkspace,
    st: &mut TruncStage,
    out: &mut Svd,
) -> Result<()> {
    ensure_finite(a, "svd_truncated")?;
    let (m, n) = a.shape();
    let k = d.min(m).min(n);
    if k == 0 {
        out.u.reset_shape(m, 0);
        out.v.reset_shape(n, 0);
        out.singular_values.clear();
        return Ok(());
    }
    // If the requested rank is close to full, the exact algorithm is cheaper.
    let p = (k + opts.oversample).min(n).min(m);
    if p * 2 >= n.min(m) {
        small_svd(a, ws, &mut st.svd)?;
        emit_left(&st.svd, k, out);
        out.v.reset_shape(n, k);
        for i in 0..n {
            out.v.row_mut(i).copy_from_slice(&st.svd.v.row(i)[..k]);
        }
        return Ok(());
    }

    // Deterministic pseudo-random start basis (Weyl sequence).
    st.v.reset_shape(n, p);
    for i in 0..n {
        for (j, x) in st.v.row_mut(i).iter_mut().enumerate() {
            let t = ((i as f64 + 1.0) * 0.754877666 + (j as f64 + 1.0) * 0.569840296).fract();
            *x = 2.0 * t - 1.0;
        }
    }
    crate::factor::qr_with(&st.v, ws, &mut st.qr)?;
    std::mem::swap(&mut st.v, &mut st.qr.q);

    // One sweep is Z = Aᵀ (A v), v <- orth(Z), then A v for the next sweep:
    // the A v a sweep ends with is the next sweep's input and, after the
    // last sweep, the projection's. Every RITZ_CHECK_EVERY sweeps the
    // projection runs early and its residual, read off Z, may stop the loop.
    st.av.reset_shape(m, p);
    a.matmul_into(&st.v, &mut st.av)?;
    for sweep in 0..opts.max_iterations {
        st.atav.reset_shape(n, p);
        a.tr_matmul_into(&st.av, &mut st.atav)?;
        if sweep > 0 && sweep % RITZ_CHECK_EVERY == 0 {
            ritz_project(st, ws, k, out)?;
            if ritz_converged(&st.atav, &st.svd.v, out, opts.tolerance) {
                return Ok(());
            }
        }
        crate::factor::qr_with(&st.atav, ws, &mut st.qr)?;
        std::mem::swap(&mut st.v, &mut st.qr.q);
        st.av.reset_shape(m, p);
        a.matmul_into(&st.v, &mut st.av)?;
    }
    ritz_project(st, ws, k, out)
}

/// Rayleigh–Ritz projection of `A` onto the basis `V = st.v`, given
/// `st.av = A·V`: the small SVD `A V = U' S W'ᵀ` gives `A ≈ U' S (V W')ᵀ`.
/// Writes the leading `k` triplets to `out` and keeps `W'` in `st.svd.v`.
fn ritz_project(
    st: &mut TruncStage,
    ws: &mut crate::factor::FactorWorkspace,
    k: usize,
    out: &mut Svd,
) -> Result<()> {
    small_svd(&st.av, ws, &mut st.svd)?;
    emit_left(&st.svd, k, out);
    // out.v is the single GEMM `V · W'_k`, reading the first k columns of
    // the small right factor in place via its leading dimension.
    let (n, p) = st.v.shape();
    out.v.reset_shape(n, k);
    crate::kernels::gemm(
        st.v.as_slice(),
        crate::kernels::Op::NoTrans,
        p,
        st.svd.v.as_slice(),
        crate::kernels::Op::NoTrans,
        st.svd.v.cols(),
        out.v.as_mut_slice(),
        n,
        k,
        p,
    );
    Ok(())
}

/// Whether every Ritz triplet in `out` has `‖Aᵀu_j − σ_j v_j‖ ≤ tol · σ₁`.
/// With `Z = Aᵀ(A V)` and `A V = U' S W'ᵀ`, `Aᵀu_j = Z w_j / σ_j`, so the
/// test is `‖Z w_j − σ_j² v_j‖ ≤ tol · σ₁ · σ_j`, at `O(n·p·k)` cost. A
/// Ritz value at or below `√ε · σ₁` is rounding noise, and so is its
/// `Z w_j`: it is not tested, so a zero or rank-deficient matrix stops at
/// its first check without dividing by zero.
fn ritz_converged(z: &Matrix, w: &Matrix, out: &Svd, tol: f64) -> bool {
    let s1 = out.singular_values[0];
    out.singular_values.iter().enumerate().all(|(j, &s)| {
        s <= f64::EPSILON.sqrt() * s1 || {
            let r2: f64 = (0..z.rows())
                .map(|i| {
                    let zw: f64 = (0..w.rows()).map(|l| z[(i, l)] * w[(l, j)]).sum();
                    (zw - s * s * out.v[(i, j)]).powi(2)
                })
                .sum();
            r2.sqrt() <= tol * s1 * s
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_orthonormal_cols(q: &Matrix, tol: f64) {
        let qtq = q.tr_matmul(q).unwrap();
        let i = Matrix::identity(q.cols());
        assert!(qtq.approx_eq(&i, tol), "max diff {}", qtq.max_abs_diff(&i));
    }

    #[test]
    fn svd_diagonal() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let s = svd(&a).unwrap();
        assert_eq!(s.singular_values.len(), 3);
        assert!((s.singular_values[0] - 3.0).abs() < 1e-12);
        assert!((s.singular_values[1] - 2.0).abs() < 1e-12);
        assert!((s.singular_values[2] - 1.0).abs() < 1e-12);
        assert!(s.reconstruct().approx_eq(&a, 1e-10));
    }

    #[test]
    fn svd_paper_distance_matrix() {
        // The worked example from §4.1 of the paper: S = diag(4, 2, 2, 0).
        let d = Matrix::from_vec(
            4,
            4,
            vec![
                0.0, 1.0, 1.0, 2.0, 1.0, 0.0, 2.0, 1.0, 1.0, 2.0, 0.0, 1.0, 2.0, 1.0, 1.0, 0.0,
            ],
        )
        .unwrap();
        let s = svd(&d).unwrap();
        assert!((s.singular_values[0] - 4.0).abs() < 1e-10);
        assert!((s.singular_values[1] - 2.0).abs() < 1e-10);
        assert!((s.singular_values[2] - 2.0).abs() < 1e-10);
        assert!(s.singular_values[3].abs() < 1e-10);
        assert!(s.reconstruct().approx_eq(&d, 1e-9));
        // Rank-3 truncation is exact because s4 = 0.
        assert!(s.truncate(3).reconstruct().approx_eq(&d, 1e-9));
        assert_eq!(s.rank(1e-9), 3);
    }

    #[test]
    fn svd_reconstruction_and_orthogonality_random() {
        let a = Matrix::from_fn(8, 5, |i, j| ((i * 5 + j) as f64 * 0.7).sin() * 3.0 + 0.1);
        let s = svd(&a).unwrap();
        assert_orthonormal_cols(&s.u, 1e-10);
        assert_orthonormal_cols(&s.v, 1e-10);
        assert!(s.reconstruct().approx_eq(&a, 1e-9));
        // Non-increasing singular values.
        for w in s.singular_values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn svd_wide_matrix() {
        let a = Matrix::from_fn(3, 6, |i, j| (i as f64 + 1.0) * (j as f64 - 2.5));
        let s = svd(&a).unwrap();
        assert_eq!(s.u.shape(), (3, 3));
        assert_eq!(s.v.shape(), (6, 3));
        assert!(s.reconstruct().approx_eq(&a, 1e-9));
        // This matrix is rank 1.
        assert_eq!(s.rank(1e-9), 1);
    }

    #[test]
    fn svd_zero_matrix() {
        let a = Matrix::zeros(4, 3);
        let s = svd(&a).unwrap();
        assert!(s.singular_values.iter().all(|&x| x == 0.0));
        assert!(s.reconstruct().approx_eq(&a, 1e-12));
    }

    #[test]
    fn svd_empty() {
        let a = Matrix::zeros(0, 0);
        let s = svd(&a).unwrap();
        assert!(s.singular_values.is_empty());
    }

    #[test]
    fn svd_asymmetric_exact() {
        // SVD must handle asymmetric matrices; check singular values of
        // [[0, 1], [-1, 0]] are both 1.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, -1.0, 0.0]).unwrap();
        let s = svd(&a).unwrap();
        assert!((s.singular_values[0] - 1.0).abs() < 1e-12);
        assert!((s.singular_values[1] - 1.0).abs() < 1e-12);
        assert!(s.reconstruct().approx_eq(&a, 1e-10));
    }

    /// Checks `svd_truncated(a, d)` against the full SVD: every σ to 1e-10
    /// relative (σ below 1e-4·σ₁ against that floor), the right singular
    /// vector of every triplet with a gap ratio of at least 1.5 to both
    /// neighbours to 1e-8 in angle, and the rank-`d` error to 1e-10 relative
    /// over the Eckart–Young optimum `sqrt(Σ_{i>d} σᵢ²)`.
    fn assert_matches_full_svd(a: &Matrix, d: usize) {
        let t = svd_truncated(a, d, TruncatedSvdOptions::default()).unwrap();
        let full = svd(a).unwrap();
        let s = &full.singular_values;
        for j in 0..d {
            let rel = (t.singular_values[j] - s[j]).abs() / s[j].max(1e-4 * s[0]);
            assert!(rel <= 1e-10, "σ_{j}: relative error {rel:e}");
            if s[j] >= 1.5 * s[j + 1] && (j == 0 || s[j - 1] >= 1.5 * s[j]) {
                let (x, y) = (t.v.col(j), full.v.col(j));
                let dist = |sign: f64| -> f64 {
                    let d2: f64 = x.iter().zip(&y).map(|(a, b)| (a - sign * b).powi(2)).sum();
                    d2.sqrt()
                };
                let angle = dist(1.0).min(dist(-1.0));
                assert!(angle <= 1e-8, "v_{j}: angle {angle:e}");
            }
        }
        let err = (a - &t.reconstruct()).frobenius_norm();
        let optimal = s[d..].iter().map(|x| x * x).sum::<f64>().sqrt();
        // An exactly rank-d matrix has no optimum to be relative to.
        let scale = optimal.max(1e-4 * a.frobenius_norm());
        assert!(err - optimal <= 1e-10 * scale, "{err} vs optimal {optimal}");
    }

    #[test]
    fn truncated_matches_full_on_low_rank() {
        // Rank 3 by construction, numerically rank 2.
        let b = Matrix::from_fn(60, 3, |i, j| ((i + j) as f64 * 0.31).sin() + 0.2);
        let c = Matrix::from_fn(3, 60, |i, j| ((i * 2 + j) as f64 * 0.17).cos());
        assert_matches_full_svd(&b.matmul(&c).unwrap(), 3);
    }

    #[test]
    fn truncated_low_rank_approximation_error() {
        // For a general matrix the rank-d truncation error equals
        // sqrt(sum of squared discarded singular values) (Eckart–Young).
        let a = Matrix::from_fn(40, 40, |i, j| {
            ((i * 13 + j * 7) as f64 * 0.05).sin() + (i == j) as u8 as f64
        });
        assert_matches_full_svd(&a, 10);
    }

    #[test]
    fn truncated_falls_back_to_exact_when_rank_near_full() {
        let a = Matrix::from_fn(6, 6, |i, j| ((i + 2 * j) as f64).cos());
        let t = svd_truncated(&a, 5, TruncatedSvdOptions::default()).unwrap();
        let f = svd(&a).unwrap();
        for i in 0..5 {
            assert!((t.singular_values[i] - f.singular_values[i]).abs() < 1e-9);
        }
    }

    /// The subspace iteration as it was before `A·V` was carried across
    /// sweeps: three GEMMs and a QR per sweep, `sweeps` sweeps, then the
    /// projection SVD.
    fn three_gemm_loop(a: &Matrix, k: usize, p: usize, sweeps: usize) -> Svd {
        let (m, n) = a.shape();
        let mut ws = crate::factor::FactorWorkspace::new();
        let v0 = Matrix::from_fn(n, p, |i, j| {
            let t = ((i as f64 + 1.0) * 0.754877666 + (j as f64 + 1.0) * 0.569840296).fract();
            2.0 * t - 1.0
        });
        let mut q = crate::qr::Qr::default();
        crate::factor::qr_with(&v0, &mut ws, &mut q).unwrap();
        let mut v = q.q.clone();
        let mut av = Matrix::zeros(m, p);
        let mut atav = Matrix::zeros(n, p);
        for _ in 0..sweeps {
            a.matmul_into(&v, &mut av).unwrap();
            a.tr_matmul_into(&av, &mut atav).unwrap();
            crate::factor::qr_with(&atav, &mut ws, &mut q).unwrap();
            v = q.q.clone();
            a.matmul_into(&v, &mut av).unwrap();
        }
        a.matmul_into(&v, &mut av).unwrap();
        let mut small = Svd::default();
        crate::factor::svd_with(&av, &mut ws, &mut small).unwrap();
        let cols: Vec<usize> = (0..k).collect();
        Svd {
            u: small.u.select_cols(&cols),
            singular_values: small.singular_values[..k].to_vec(),
            v: v.matmul(&small.v).unwrap().select_cols(&cols),
        }
    }

    fn same_bits(x: &Svd, y: &Svd) -> bool {
        let bits = |s: &Svd| {
            let all = s.u.as_slice().iter().chain(&s.singular_values);
            all.chain(s.v.as_slice())
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        x.u.shape() == y.u.shape() && x.v.shape() == y.v.shape() && bits(x) == bits(y)
    }

    #[test]
    fn two_gemm_sweeps_are_bit_identical_to_three_gemm_sweeps() {
        let a = Matrix::from_fn(120, 90, |i, j| {
            ((i * 31 + j * 17) as f64 * 0.013).sin() * 5.0 + (i as f64 - j as f64).abs() * 0.1
        });
        let (k, p) = (5, 5 + TruncatedSvdOptions::default().oversample);
        for sweeps in [0, 1, 7, 30] {
            let opts = TruncatedSvdOptions {
                max_iterations: sweeps,
                tolerance: 0.0,
                ..TruncatedSvdOptions::default()
            };
            let got = svd_truncated(&a, k, opts).unwrap();
            let want = three_gemm_loop(&a, k, p, sweeps);
            assert!(same_bits(&got, &want), "differs after {sweeps} sweeps");
        }
    }

    #[test]
    fn zero_and_rank_deficient_matrices_stop_at_the_first_check() {
        // Every Ritz value past the rank is rounding noise and goes untested,
        // so the first residual check passes: the default run must equal,
        // bit for bit, a run capped at that check's sweep.
        let rank1 = Matrix::from_fn(80, 70, |i, j| {
            (1.0 + i as f64 * 0.1) * (2.0 - j as f64 * 0.02)
        });
        let b = Matrix::from_fn(80, 3, |i, j| ((i * 3 + j) as f64 * 0.23).sin() + 0.5);
        let c = Matrix::from_fn(3, 70, |i, j| ((i + 2 * j) as f64 * 0.11).cos());
        let capped = TruncatedSvdOptions {
            max_iterations: RITZ_CHECK_EVERY,
            ..TruncatedSvdOptions::default()
        };
        for (a, d) in [
            (Matrix::zeros(80, 70), 4),
            (rank1, 4),
            (b.matmul(&c).unwrap(), 6),
        ] {
            let t = svd_truncated(&a, d, TruncatedSvdOptions::default()).unwrap();
            assert!(same_bits(&t, &svd_truncated(&a, d, capped).unwrap()));
            assert!(t
                .u
                .as_slice()
                .iter()
                .chain(t.v.as_slice())
                .all(|x| x.is_finite()));
            let tol = 1e-12 * a.frobenius_norm();
            assert!(
                t.reconstruct().approx_eq(&a, tol),
                "{}",
                t.reconstruct().max_abs_diff(&a)
            );
        }
    }

    #[test]
    fn non_finite_input_is_an_error_not_a_panic() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = Matrix::from_fn(64, 64, |i, j| ((i * 7 + j) as f64 * 0.1).sin());
            a[(10, 20)] = bad;
            let err = svd_truncated(&a, 5, TruncatedSvdOptions::default()).unwrap_err();
            assert_eq!(
                err,
                LinalgError::NonFinite {
                    op: "svd_truncated"
                }
            );
            assert!(matches!(svd(&a), Err(LinalgError::NonFinite { .. })));
            assert!(matches!(svd_jacobi(&a), Err(LinalgError::NonFinite { .. })));
        }
    }

    #[test]
    fn truncate_method() {
        let a = Matrix::from_fn(5, 5, |i, j| {
            ((i * j) as f64 * 0.3).sin() + 2.0 * (i == j) as u8 as f64
        });
        let s = svd(&a).unwrap();
        let t = s.truncate(2);
        assert_eq!(t.u.shape(), (5, 2));
        assert_eq!(t.v.shape(), (5, 2));
        assert_eq!(t.singular_values.len(), 2);
        // Truncating beyond available rank is a no-op.
        let t6 = s.truncate(10);
        assert_eq!(t6.singular_values.len(), 5);
    }
}

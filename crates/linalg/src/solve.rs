//! High-level solvers built on the factorizations: pseudo-inverse,
//! normal-equations least squares, and ridge regularization.

use crate::cholesky::cholesky;
use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

use crate::svd::{svd, Svd};

/// Moore–Penrose pseudo-inverse via SVD.
///
/// Singular values below `rcond * s_max` are treated as zero. Use
/// `rcond = 1e-12` for well-scaled data.
pub fn pinv(a: &Matrix, rcond: f64) -> Result<Matrix> {
    let Svd {
        u,
        singular_values,
        v,
    } = svd(a)?;
    let smax = singular_values.first().copied().unwrap_or(0.0);
    let cutoff = rcond * smax;
    // pinv(A) = V S⁺ Uᵀ.
    let mut vs = v.clone();
    for j in 0..vs.cols() {
        let s = singular_values[j];
        let inv = if s > cutoff { 1.0 / s } else { 0.0 };
        for i in 0..vs.rows() {
            vs[(i, j)] *= inv;
        }
    }
    vs.matmul_tr(&u)
}

/// Least squares via the **normal equations**: `x = (AᵀA)⁻¹ Aᵀ b`.
///
/// This is the formulation written in Eqs. (13–14) of the paper. It squares
/// the condition number, so [`crate::qr::lstsq`] is preferred for ill-conditioned
/// systems; both are exposed so the experiment harness can ablate the two.
/// Falls back to the SVD pseudo-inverse when `AᵀA` is singular (e.g. when
/// fewer than `d` reference nodes are observed).
pub fn lstsq_normal(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    if a.rows() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            expected: (a.rows(), 1),
            got: (b.len(), 1),
            op: "lstsq_normal",
        });
    }
    let ata = a.tr_matmul(a)?;
    let atb = a.tr_matvec(b)?;
    match cholesky(&ata) {
        Ok(c) => c.solve(&atb),
        Err(_) => {
            // Rank-deficient: minimum-norm solution via pseudo-inverse.
            let p = pinv(a, 1e-12)?;
            p.matvec(b)
        }
    }
}

/// Reusable scratch space for [`lstsq_ridge_multi_with`]: the `AᵀA` Gram
/// matrix and its Cholesky factor. Reused across solves of the same width
/// (the ALS half-steps and host joins solve many systems of one fixed
/// dimension), so the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct NormalEqWorkspace {
    ata: Matrix,
}

impl NormalEqWorkspace {
    fn fit_to(&mut self, k: usize) {
        self.ata.reset_shape(k, k);
    }
}

/// Batched, multi-right-hand-side ridge least squares: solves
/// `min ‖A xₕᵀ − bₕ‖² + λ‖xₕ‖²` for **every row** `bₕ` of `b` with a
/// single factorization.
///
/// * `a` is the shared `k x d` design matrix (one reference node per row).
/// * `b` is `hosts x k` — one right-hand side per row.
/// * `out` is reshaped to `hosts x d`; row `h` receives host `h`'s solution.
///
/// The Gram matrix `AᵀA + λI` is formed and Cholesky-factored **once**, and
/// the right-hand sides are assembled as the single GEMM `B·A` (row `h` of
/// which is `Aᵀbₕ`), so the per-host cost collapses to one triangular
/// solve. Because every output cell of the blocked GEMM accumulates over
/// the shared `k` dimension in the same order regardless of the batch's
/// row count, the solutions are **bit-identical** to solving each host
/// separately through the same batched path — the property the evaluation
/// sharding relies on.
///
/// Each row's bits are those of the one-row ridge solve (`AᵀA + λI`
/// factored by [`cholesky`], `Aᵀbₕ` by [`Matrix::tr_matvec`]) while `a` has
/// at most 256 rows (the GEMM's `KC` depth: `Aᵀbₕ` is then summed in one
/// pass, in `tr_matvec`'s order); past that `B·A` is summed in 256-deep
/// panels and may differ in the last bits.
///
/// Falls back to the per-row [`lstsq_normal`] pseudo-inverse path when
/// `AᵀA + λI` is numerically indefinite (rank-deficient input with
/// `lambda = 0`). Steady-state allocation is zero once `ws` and `out` have
/// reached their high-water shapes.
pub fn lstsq_ridge_multi_with(
    a: &Matrix,
    b: &Matrix,
    lambda: f64,
    ws: &mut NormalEqWorkspace,
    out: &mut Matrix,
) -> Result<()> {
    if a.rows() != b.cols() {
        return Err(LinalgError::ShapeMismatch {
            expected: (b.rows(), a.rows()),
            got: b.shape(),
            op: "lstsq_ridge_multi",
        });
    }
    if lambda < 0.0 {
        return Err(LinalgError::InvalidArgument(
            "ridge lambda must be nonnegative",
        ));
    }
    let d = a.cols();
    let hosts = b.rows();
    out.reset_shape(hosts, d);
    ws.fit_to(d);
    a.tr_matmul_into(a, &mut ws.ata)?;
    for i in 0..d {
        ws.ata[(i, i)] += lambda;
    }
    match crate::cholesky::cholesky_in_place(&mut ws.ata) {
        Ok(()) => {
            // RHS for all hosts in one GEMM: row h of B·A is Aᵀ bₕ.
            b.matmul_into(a, out)?;
            crate::cholesky::solve_cholesky_rows_in_place(&ws.ata, out)
        }
        Err(_) => {
            for h in 0..hosts {
                let x = lstsq_normal(a, b.row(h))?;
                out.row_mut(h).copy_from_slice(&x);
            }
            Ok(())
        }
    }
}

/// A cached normal-equation factorization: the Cholesky factor of the
/// Gram matrix `AᵀA + λI` of a `k x d` design matrix, factored once so
/// that multi-RHS solves run with **no factorization at all** (one
/// triangular solve per right-hand side, exactly the arithmetic of
/// [`lstsq_ridge_multi_with`]).
///
/// Every cached host join in `ides` solves through one. A cache describes
/// one design matrix: when the design changes, factor the new one.
#[derive(Debug, Clone)]
pub struct CachedGram {
    /// Cholesky factor `L` of `AᵀA + λI` (lower triangle).
    l: Matrix,
    lambda: f64,
}

impl CachedGram {
    /// Factors `AᵀA + λI` from scratch. Runs the same arithmetic as
    /// [`lstsq_ridge_multi_with`]'s factorization step, so solves through
    /// the cache are bit-identical to one-shot batched solves.
    pub fn factor(a: &Matrix, lambda: f64) -> Result<Self> {
        if lambda < 0.0 {
            return Err(LinalgError::InvalidArgument(
                "ridge lambda must be nonnegative",
            ));
        }
        let d = a.cols();
        let mut l = Matrix::zeros(d, d);
        a.tr_matmul_into(a, &mut l)?;
        for i in 0..d {
            l[(i, i)] += lambda;
        }
        crate::cholesky::cholesky_in_place(&mut l)?;
        Ok(CachedGram { l, lambda })
    }

    /// System width `d`.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The ridge term baked into the Gram matrix.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The cached lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Replaces design row `old_row` by `new_row`: factors
    /// `LLᵀ − old·oldᵀ + new·newᵀ`, formed densely (`O(d³)`), for callers
    /// that hold only the factor; nothing in the product calls it. On a
    /// non-positive-definite result the cache is left as it was and
    /// [`LinalgError::NotPositiveDefinite`] is returned.
    pub fn replace_row(&mut self, old_row: &[f64], new_row: &[f64]) -> Result<()> {
        let d = self.dim();
        if old_row.len() != d || new_row.len() != d {
            return Err(LinalgError::ShapeMismatch {
                expected: (d, 1),
                got: (old_row.len().max(new_row.len()), 1),
                op: "cached_gram_replace_row",
            });
        }
        let mut g = self.l.matmul_tr(&self.l)?;
        for i in 0..d {
            for j in 0..d {
                g[(i, j)] += new_row[i] * new_row[j] - old_row[i] * old_row[j];
            }
        }
        crate::cholesky::cholesky_in_place(&mut g)?;
        self.l = g;
        Ok(())
    }

    /// Solves `(AᵀA + λI) xᵀ = bᵀ` for every row of `rhs` in place — the
    /// normal-equation solve step of a batched host join, with the
    /// factorization amortized across the cache's whole lifetime. Callers
    /// supply `rhs` rows already multiplied through `Aᵀ` (i.e. row `h`
    /// holds `Aᵀ bₕ`, assembled by one `B·A` GEMM).
    ///
    /// Rows are solved 16 at a time, one SIMD lane per row
    /// ([`crate::cholesky::solve_cholesky_rows_in_place`]): the independent
    /// rows fill the vector width and hide the subtract/divide latency
    /// that bounds a single row's substitution. Every lane runs the exact
    /// operation sequence of the one-row
    /// [`crate::cholesky::solve_cholesky_in_place`] — unfused
    /// multiply, subtract, true division, from the same routine — and
    /// lanes never mix, so each row's bits are those of a one-row solve
    /// whatever the batch size, the row's position or the instruction
    /// set. No heap allocation.
    pub fn solve_rows_in_place(&self, rhs: &mut Matrix) -> Result<()> {
        crate::cholesky::solve_cholesky_rows_in_place(&self.l, rhs)
    }

    /// Solves one right-hand-side row `row` against this cache and one,
    /// `other_row`, against `other`, interleaved
    /// ([`crate::cholesky::solve_cholesky_pair_in_place`]): a lone host
    /// join's two directions. Each row gets the bits of
    /// [`CachedGram::solve_rows_in_place`] on that row alone.
    pub fn solve_pair_in_place(
        &self,
        row: &mut [f64],
        other: &CachedGram,
        other_row: &mut [f64],
    ) -> Result<()> {
        crate::cholesky::solve_cholesky_pair_in_place(&self.l, row, &other.l, other_row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-row ridge solve `x = (AᵀA + λI)⁻¹ Aᵀ b`, kept as the oracle
    /// of [`lstsq_ridge_multi_with`]'s per-row bits.
    fn lstsq_ridge(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>> {
        let mut ata = a.tr_matmul(a)?;
        for i in 0..ata.rows() {
            ata[(i, i)] += lambda;
        }
        let atb = a.tr_matvec(b)?;
        match cholesky(&ata) {
            Ok(c) => c.solve(&atb),
            Err(_) => lstsq_normal(a, b),
        }
    }

    /// [`lstsq_ridge_multi_with`] on the single right-hand side `b`.
    fn ridge_one(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>> {
        let rhs = Matrix::from_vec(1, b.len(), b.to_vec())?;
        let mut out = Matrix::zeros(0, 0);
        lstsq_ridge_multi_with(a, &rhs, lambda, &mut NormalEqWorkspace::default(), &mut out)?;
        Ok(out.row(0).to_vec())
    }

    #[test]
    fn pinv_of_invertible_is_inverse() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 7.0, 2.0, 6.0]).unwrap();
        let p = pinv(&a, 1e-12).unwrap();
        assert!(a.matmul(&p).unwrap().approx_eq(&Matrix::identity(2), 1e-10));
    }

    #[test]
    fn pinv_penrose_conditions() {
        // Rank-deficient rectangular matrix; verify all four Penrose axioms.
        let a = Matrix::from_vec(3, 2, vec![1.0, 2.0, 2.0, 4.0, 3.0, 6.0]).unwrap(); // rank 1
        let p = pinv(&a, 1e-12).unwrap();
        let apa = a.matmul(&p).unwrap().matmul(&a).unwrap();
        assert!(apa.approx_eq(&a, 1e-9), "A P A != A");
        let pap = p.matmul(&a).unwrap().matmul(&p).unwrap();
        assert!(pap.approx_eq(&p, 1e-9), "P A P != P");
        let ap = a.matmul(&p).unwrap();
        assert!(ap.approx_eq(&ap.transpose(), 1e-9), "(AP)ᵀ != AP");
        let pa = p.matmul(&a).unwrap();
        assert!(pa.approx_eq(&pa.transpose(), 1e-9), "(PA)ᵀ != PA");
    }

    #[test]
    fn normal_equations_match_qr_when_well_conditioned() {
        let a = Matrix::from_fn(8, 3, |i, j| {
            ((i * 3 + j) as f64 * 0.9).sin() + (j == 0) as u8 as f64
        });
        let b: Vec<f64> = (0..8).map(|i| (i as f64 * 1.3).cos()).collect();
        let x1 = lstsq_normal(&a, &b).unwrap();
        let x2 = crate::qr::lstsq(&a, &b).unwrap();
        for (u, v) in x1.iter().zip(x2.iter()) {
            assert!((u - v).abs() < 1e-8, "{x1:?} vs {x2:?}");
        }
    }

    #[test]
    fn normal_equations_rank_deficient_falls_back() {
        // Columns identical: AᵀA singular; minimum-norm solution splits the
        // coefficient evenly between the two columns.
        let a = Matrix::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]).unwrap();
        let b = vec![2.0, 4.0, 6.0];
        let x = lstsq_normal(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ridge_shrinks_towards_zero() {
        let a = Matrix::identity(3);
        let b = vec![1.0, 2.0, 3.0];
        let x0 = ridge_one(&a, &b, 0.0).unwrap();
        let x1 = ridge_one(&a, &b, 1.0).unwrap();
        for i in 0..3 {
            assert!((x0[i] - b[i]).abs() < 1e-12);
            assert!((x1[i] - b[i] / 2.0).abs() < 1e-12); // (I + I)⁻¹ b
        }
        assert!(ridge_one(&a, &b, -1.0).is_err());
    }

    #[test]
    fn dimension_mismatches_rejected() {
        let a = Matrix::zeros(3, 2);
        assert!(lstsq_normal(&a, &[1.0]).is_err());
        assert!(ridge_one(&a, &[1.0], 0.1).is_err());
    }

    #[test]
    fn multi_rhs_matches_single_solves() {
        // Systems of 9, 17 and 256 rows (at most `KC`), batches of 1 and 6
        // right-hand sides: every solved row carries the bits of
        // `lstsq_ridge` on that row alone.
        for rows in [9usize, 17, 256] {
            let a = Matrix::from_fn(rows, 4, |i, j| ((i * 4 + j) as f64 * 0.63).sin() + 0.2);
            let b = Matrix::from_fn(6, rows, |h, i| ((h * rows + i) as f64 * 0.31).cos() * 5.0);
            for (lambda, hosts) in [(0.0, 6), (1e-8, 1), (0.5, 6)] {
                let batch = Matrix::from_fn(hosts, rows, |h, i| b[(h, i)]);
                let mut ws = NormalEqWorkspace::default();
                let mut out = Matrix::zeros(0, 0);
                lstsq_ridge_multi_with(&a, &batch, lambda, &mut ws, &mut out).unwrap();
                assert_eq!(out.shape(), (hosts, 4));
                for h in 0..hosts {
                    let x = lstsq_ridge(&a, b.row(h), lambda).unwrap();
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(out.row(h)),
                        bits(&x),
                        "{rows} rows, λ={lambda}, host {h}"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_rhs_rank_deficient_falls_back() {
        // Duplicate columns: AᵀA singular at λ=0; per-row minimum-norm
        // solutions split the coefficient evenly, like `lstsq_normal`.
        let a = Matrix::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]).unwrap();
        let b = Matrix::from_vec(2, 3, vec![2.0, 4.0, 6.0, 4.0, 8.0, 12.0]).unwrap();
        let mut ws = NormalEqWorkspace::default();
        let mut out = Matrix::zeros(0, 0);
        lstsq_ridge_multi_with(&a, &b, 0.0, &mut ws, &mut out).unwrap();
        assert!((out[(0, 0)] - 1.0).abs() < 1e-9);
        assert!((out[(0, 1)] - 1.0).abs() < 1e-9);
        assert!((out[(1, 0)] - 2.0).abs() < 1e-9);
        assert!((out[(1, 1)] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cached_gram_matches_one_shot_multi_rhs_bitwise() {
        let a = Matrix::from_fn(20, 8, |i, j| {
            (0.5 * (i as f64 + 3.0) * (j as f64 + 1.0)).sin() + 0.4
        });
        let b = Matrix::from_fn(5, 20, |h, i| ((h * 20 + i) as f64 * 0.19).cos() * 3.0);
        for lambda in [0.0, 0.25] {
            let cg = CachedGram::factor(&a, lambda).unwrap();
            // Cached path: one GEMM for the RHS rows, then cached solves.
            let mut cached = b.matmul(&a).unwrap();
            cg.solve_rows_in_place(&mut cached).unwrap();
            // One-shot path.
            let mut ws = NormalEqWorkspace::default();
            let mut oneshot = Matrix::zeros(0, 0);
            lstsq_ridge_multi_with(&a, &b, lambda, &mut ws, &mut oneshot).unwrap();
            for h in 0..5 {
                for j in 0..8 {
                    assert_eq!(
                        cached[(h, j)].to_bits(),
                        oneshot[(h, j)].to_bits(),
                        "λ={lambda} host {h} col {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_gram_replace_row_tracks_refactorization() {
        let mut a = Matrix::from_fn(12, 4, |i, j| ((i * 4 + j) as f64 * 0.61).sin() + 0.3);
        let mut cg = CachedGram::factor(&a, 0.1).unwrap();
        // Replace three rows, one at a time, through the cached factor.
        for (step, row) in [2usize, 7, 11].into_iter().enumerate() {
            let old: Vec<f64> = a.row(row).to_vec();
            let newr: Vec<f64> = old
                .iter()
                .enumerate()
                .map(|(j, &v)| v + 0.2 * ((step * 4 + j) as f64 * 0.9).cos())
                .collect();
            a.set_row(row, &newr);
            cg.replace_row(&old, &newr).unwrap();
        }
        let fresh = CachedGram::factor(&a, 0.1).unwrap();
        assert!(
            cg.l().approx_eq(fresh.l(), 1e-9),
            "replaced-row factor drifted: {}",
            cg.l().max_abs_diff(fresh.l())
        );
        assert_eq!(cg.dim(), 4);
        assert!((cg.lambda() - 0.1).abs() < 1e-15);
    }

    #[test]
    fn cached_gram_rejects_negative_lambda_and_bad_downdate() {
        let a = Matrix::identity(3);
        assert!(CachedGram::factor(&a, -1.0).is_err());
        let mut cg = CachedGram::factor(&a, 0.0).unwrap();
        let before = cg.l().clone();
        // Removing more than the Gram holds is not positive definite: the
        // replace fails and leaves the cache as it was.
        assert!(matches!(
            cg.replace_row(&[5.0, 0.0, 0.0], &[0.0, 0.0, 0.0]),
            Err(LinalgError::NotPositiveDefinite)
        ));
        assert!(cg.replace_row(&[1.0, 0.0], &[0.0, 1.0]).is_err());
        assert_eq!(cg.l(), &before);
        let mut rhs = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        cg.solve_rows_in_place(&mut rhs).unwrap();
        assert!((rhs[(0, 0)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_rhs_shape_and_lambda_validation() {
        let a = Matrix::zeros(3, 2);
        let mut ws = NormalEqWorkspace::default();
        let mut out = Matrix::zeros(0, 0);
        // b columns must equal a rows.
        let bad = Matrix::zeros(2, 4);
        assert!(lstsq_ridge_multi_with(&a, &bad, 0.1, &mut ws, &mut out).is_err());
        let b = Matrix::zeros(2, 3);
        assert!(lstsq_ridge_multi_with(&a, &b, -1.0, &mut ws, &mut out).is_err());
        // Empty batch is fine.
        let empty = Matrix::zeros(0, 3);
        lstsq_ridge_multi_with(&a, &empty, 0.1, &mut ws, &mut out).unwrap();
        assert_eq!(out.shape(), (0, 2));
    }
}

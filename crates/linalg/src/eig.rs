//! Symmetric eigendecomposition.
//!
//! Used by the Lipschitz+PCA baseline (ICS / Virtual Landmark), which
//! diagonalizes the covariance matrix of the Lipschitz coordinates.
//!
//! [`symmetric_eig`] dispatches on size: matrices larger than
//! [`crate::factor::SMALL`] run the blocked Householder tridiagonalization
//! plus implicit-QL path ([`crate::factor::symmetric_eig_with`]); small
//! ones (and the defensive non-convergence fallback) use the cyclic
//! Jacobi method, kept as [`symmetric_eig_jacobi`] — also the accuracy
//! oracle of the blocked property suite.

use crate::error::{ensure_finite, LinalgError, Result};
use crate::matrix::Matrix;

/// Result of a symmetric eigendecomposition `A = Q Λ Qᵀ`.
#[derive(Debug, Clone, Default)]
pub struct SymmetricEig {
    /// Eigenvalues in non-increasing order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors as columns, in the order of `eigenvalues`.
    pub eigenvectors: Matrix,
}

impl SymmetricEig {
    /// Reconstructs `Q Λ Qᵀ` as the single kernel GEMM `Q (Q Λ)ᵀ`,
    /// scaling one factor copy instead of cloning-then-scaling.
    pub fn reconstruct(&self) -> Matrix {
        let q = &self.eigenvectors;
        let ql = Matrix::from_fn(q.rows(), q.cols(), |i, j| q[(i, j)] * self.eigenvalues[j]);
        ql.matmul_tr(q).expect("square by construction")
    }
}

const MAX_SWEEPS: usize = 100;

/// Computes all eigenvalues and eigenvectors of a symmetric matrix.
///
/// The input must be symmetric; only the symmetric part is used. Returns
/// [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::NonFinite`] for a NaN or infinite entry. Dispatches to the
/// blocked tridiagonalization path above [`crate::factor::SMALL`] (with
/// cyclic Jacobi as the defensive non-convergence fallback) and to cyclic
/// Jacobi at small sizes. Repeated large-matrix callers should hold a
/// [`crate::factor::FactorWorkspace`] and call
/// [`crate::factor::symmetric_eig_with`] directly.
pub fn symmetric_eig(a: &Matrix) -> Result<SymmetricEig> {
    if a.rows() <= crate::factor::SMALL || !a.is_square() {
        return symmetric_eig_jacobi(a);
    }
    let mut ws = crate::factor::FactorWorkspace::new();
    let mut out = SymmetricEig::default();
    match crate::factor::symmetric_eig_with(a, &mut ws, &mut out) {
        Ok(()) => Ok(out),
        Err(LinalgError::NoConvergence { .. }) => symmetric_eig_jacobi(a),
        Err(e) => Err(e),
    }
}

/// Cyclic-Jacobi symmetric eigendecomposition — the small-matrix path and
/// accuracy fallback of [`symmetric_eig`].
///
/// Convergence is guaranteed in theory for symmetric matrices; the
/// iteration cap exists as a defensive bound.
pub fn symmetric_eig_jacobi(a: &Matrix) -> Result<SymmetricEig> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            got: a.shape(),
            op: "symmetric_eig",
        });
    }
    ensure_finite(a, "symmetric_eig")?;
    let n = a.rows();
    if n == 0 {
        return Ok(SymmetricEig {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
        });
    }
    let mut m = a.clone();
    m.symmetrize(); // tolerate tiny asymmetry from accumulated round-off
    let mut q = Matrix::identity(n);

    let off_norm = |m: &Matrix| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                s += m[(i, j)] * m[(i, j)];
            }
        }
        (2.0 * s).sqrt()
    };
    let tol = 1e-14 * m.frobenius_norm().max(1e-300);

    let mut converged = false;
    for _ in 0..MAX_SWEEPS {
        if off_norm(&m) <= tol {
            converged = true;
            break;
        }
        for p in 0..n {
            for qq in (p + 1)..n {
                let apq = m[(p, qq)];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(qq, qq)];
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Apply the rotation J(p, q, θ) on both sides: M <- Jᵀ M J.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, qq)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, qq)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(qq, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(qq, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors: Q <- Q J.
                for k in 0..n {
                    let qkp = q[(k, p)];
                    let qkq = q[(k, qq)];
                    q[(k, p)] = c * qkp - s * qkq;
                    q[(k, qq)] = s * qkp + c * qkq;
                }
            }
        }
    }
    if !converged && off_norm(&m) > tol * 100.0 {
        return Err(LinalgError::NoConvergence {
            op: "symmetric_eig (Jacobi)",
            iterations: MAX_SWEEPS,
        });
    }

    // Sort eigenpairs by descending eigenvalue.
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite eigenvalues"));
    let eigenvalues: Vec<f64> = pairs.iter().map(|&(l, _)| l).collect();
    let mut vecs = Matrix::zeros(n, n);
    for (dst, &(_, src)) in pairs.iter().enumerate() {
        for i in 0..n {
            vecs[(i, dst)] = q[(i, src)];
        }
    }
    Ok(SymmetricEig {
        eigenvalues,
        eigenvectors: vecs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::{symmetric_eig_with, FactorWorkspace};
    use crate::pca;

    #[test]
    fn non_finite_input_is_an_error_not_a_panic() {
        // Engine contract.
        // Every eigensolver entry point, and PCA through them, refuses a
        // NaN or infinite entry at a Jacobi size (5) and a blocked one (40).
        for n in [5, 40] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut a = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 7) as f64 * 0.1).sin());
                a[(1, 3)] = bad;
                let non_finite = |r: Result<()>| matches!(r, Err(LinalgError::NonFinite { .. }));
                assert!(non_finite(symmetric_eig(&a).map(drop)), "n = {n}, {bad}");
                assert!(non_finite(symmetric_eig_jacobi(&a).map(drop)));
                let mut ws = FactorWorkspace::new();
                let mut out = SymmetricEig::default();
                assert!(non_finite(symmetric_eig_with(&a, &mut ws, &mut out)));
                let mut data = Matrix::from_fn(n + 3, n, |i, j| ((i * n + j) as f64).cos());
                data[(2, 1)] = bad;
                assert!(non_finite(pca::fit(&data, 2).map(drop)));
                assert!(non_finite(pca::fit_with(&data, 2, &mut ws).map(drop)));
            }
        }
    }

    #[test]
    fn eig_diagonal() {
        let a = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        let e = symmetric_eig(&a).unwrap();
        assert!((e.eigenvalues[0] - 5.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn eig_2x2_known() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let e = symmetric_eig(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        assert!(e.reconstruct().approx_eq(&a, 1e-10));
    }

    #[test]
    fn eig_reconstruction_random_symmetric() {
        let mut a = Matrix::from_fn(7, 7, |i, j| ((i * 7 + j) as f64 * 0.37).sin());
        a.symmetrize();
        let e = symmetric_eig(&a).unwrap();
        assert!(e.reconstruct().approx_eq(&a, 1e-9));
        // Eigenvectors orthonormal.
        let qtq = e.eigenvectors.tr_matmul(&e.eigenvectors).unwrap();
        assert!(qtq.approx_eq(&Matrix::identity(7), 1e-10));
        // Trace preserved.
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-9);
    }

    #[test]
    fn eig_rejects_non_square() {
        assert!(symmetric_eig(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn eig_empty() {
        let e = symmetric_eig(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.eigenvalues.is_empty());
    }

    #[test]
    fn eig_psd_matrix_nonnegative_eigenvalues() {
        // Gram matrices are PSD; all eigenvalues must be >= 0.
        let b = Matrix::from_fn(6, 3, |i, j| ((i + j) as f64 * 0.7).cos());
        let g = b.matmul_tr(&b).unwrap();
        let e = symmetric_eig(&g).unwrap();
        for &l in &e.eigenvalues {
            assert!(l > -1e-10, "eigenvalue {l} negative");
        }
        // Rank of G is at most 3.
        assert!(e.eigenvalues[3].abs() < 1e-9);
    }
}

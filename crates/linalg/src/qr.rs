//! Householder QR decomposition and QR-based least squares.
//!
//! Since the blocked factorization layer landed, [`qr`] runs the
//! compact-WY blocked algorithm in [`crate::factor`] (GEMM-rich trailing
//! updates and Q accumulation); the original scalar-loop implementation is
//! preserved as [`reference::qr_unblocked`] — the correctness oracle for
//! the property suite and the honest "before" baseline of the `factor`
//! benchmark group. For matrices with at most [`crate::factor::PANEL`]
//! columns the two are **bit-identical** (a single panel runs the
//! reference arithmetic end to end).

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// QR decomposition `A = Q R` of an `m x n` matrix with `m >= n`.
///
/// `q` is `m x n` with orthonormal columns (thin Q), `r` is `n x n` upper
/// triangular. Produced by [`qr`] / [`crate::factor::qr_with`].
#[derive(Debug, Clone, Default)]
pub struct Qr {
    /// Thin orthonormal factor, `m x n`.
    pub q: Matrix,
    /// Upper-triangular factor, `n x n`.
    pub r: Matrix,
}

/// Computes the thin QR decomposition of `a` (`m x n`, `m >= n`) using
/// blocked Householder reflections (see [`crate::factor`]).
///
/// Householder QR is backward stable, unlike classical Gram-Schmidt; the
/// columns of `q` stay orthonormal to machine precision even for poorly
/// conditioned inputs. Repeated callers should hold a
/// [`crate::factor::FactorWorkspace`] and use [`crate::factor::qr_with`],
/// which allocates nothing once warm.
pub fn qr(a: &Matrix) -> Result<Qr> {
    let mut ws = crate::factor::FactorWorkspace::new();
    let mut out = Qr::default();
    crate::factor::qr_with(a, &mut ws, &mut out)?;
    Ok(out)
}

/// The pre-blocking scalar implementation, kept as the correctness oracle
/// and benchmark baseline for the blocked layer.
pub mod reference {
    use super::{LinalgError, Matrix, Qr, Result};

    /// The seed's unblocked Householder QR: one scalar rank-1 update per
    /// reflector per column, `Q` formed by reverse scalar application.
    /// This was [`super::qr`] before the blocked factorization layer.
    pub fn qr_unblocked(a: &Matrix) -> Result<Qr> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                expected: (n, n),
                got: (m, n),
                op: "qr (requires rows >= cols)",
            });
        }
        let mut r = a.clone();
        // Accumulate Householder vectors; v[k] has length m-k.
        let mut vs: Vec<Vec<f64>> = Vec::with_capacity(n);

        for k in 0..n {
            // Build the Householder vector for column k below the diagonal.
            let mut v: Vec<f64> = (k..m).map(|i| r[(i, k)]).collect();
            let alpha = {
                let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
                if v[0] >= 0.0 {
                    -norm
                } else {
                    norm
                }
            };
            if alpha == 0.0 {
                // Column already zero below (and at) the diagonal; identity
                // reflector.
                vs.push(vec![0.0; m - k]);
                continue;
            }
            v[0] -= alpha;
            let vnorm2: f64 = v.iter().map(|x| x * x).sum();
            if vnorm2 == 0.0 {
                vs.push(vec![0.0; m - k]);
                continue;
            }
            // Apply reflector H = I - 2 v vᵀ / (vᵀv) to the trailing block.
            for j in k..n {
                let dot: f64 = (k..m).map(|i| v[i - k] * r[(i, j)]).sum();
                let s = 2.0 * dot / vnorm2;
                for i in k..m {
                    r[(i, j)] -= s * v[i - k];
                }
            }
            vs.push(v);
        }

        // Form thin Q by applying the reflectors in reverse to the first n
        // columns of the identity.
        let mut q = Matrix::zeros(m, n);
        for j in 0..n {
            q[(j, j)] = 1.0;
        }
        for k in (0..n).rev() {
            let v = &vs[k];
            let vnorm2: f64 = v.iter().map(|x| x * x).sum();
            if vnorm2 == 0.0 {
                continue;
            }
            for j in 0..n {
                let dot: f64 = (k..m).map(|i| v[i - k] * q[(i, j)]).sum();
                let s = 2.0 * dot / vnorm2;
                for i in k..m {
                    q[(i, j)] -= s * v[i - k];
                }
            }
        }

        // Zero out numerical noise below the diagonal of R and truncate.
        let mut r_thin = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r_thin[(i, j)] = r[(i, j)];
            }
        }
        Ok(Qr { q, r: r_thin })
    }
}

/// Solves the upper-triangular system `R x = b` by back substitution.
///
/// Returns [`LinalgError::Singular`] if a diagonal entry of `r` is
/// negligibly small relative to the largest diagonal entry.
pub fn solve_upper_triangular(r: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = r.rows();
    if !r.is_square() {
        return Err(LinalgError::NotSquare {
            got: r.shape(),
            op: "solve_upper_triangular",
        });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: (n, 1),
            got: (b.len(), 1),
            op: "solve_upper_triangular",
        });
    }
    let mut x = b.to_vec();
    solve_upper_triangular_in_place(r, &mut x)?;
    Ok(x)
}

/// [`solve_upper_triangular`] overwriting `b` with the solution — the
/// allocation-free variant the batched host join uses to back-substitute
/// every right-hand-side row of a `QᵀB` product in place.
///
/// The singular check (any diagonal entry negligibly small relative to the
/// largest) runs up front, so `b` is untouched on error.
pub fn solve_upper_triangular_in_place(r: &Matrix, b: &mut [f64]) -> Result<()> {
    let n = r.rows();
    if !r.is_square() {
        return Err(LinalgError::NotSquare {
            got: r.shape(),
            op: "solve_upper_triangular",
        });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            expected: (n, 1),
            got: (b.len(), 1),
            op: "solve_upper_triangular",
        });
    }
    let max_diag = (0..n).fold(0.0_f64, |m, i| m.max(r[(i, i)].abs()));
    let tol = max_diag * 1e-13;
    if (0..n).any(|i| r[(i, i)].abs() <= tol) {
        return Err(LinalgError::Singular {
            op: "solve_upper_triangular",
        });
    }
    for i in (0..n).rev() {
        let mut s = b[i];
        for j in (i + 1)..n {
            s -= r[(i, j)] * b[j];
        }
        b[i] = s / r[(i, i)];
    }
    Ok(())
}

/// Solves the least-squares problem `min ‖A x − b‖₂` via QR.
///
/// `a` is `m x n` with `m >= n` and full column rank.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    if a.rows() != b.len() {
        return Err(LinalgError::ShapeMismatch {
            expected: (a.rows(), 1),
            got: (b.len(), 1),
            op: "lstsq",
        });
    }
    let Qr { q, r } = qr(a)?;
    let qtb = q.tr_matvec(b)?;
    solve_upper_triangular(&r, &qtb)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_orthonormal_cols(q: &Matrix, tol: f64) {
        let qtq = q.tr_matmul(q).unwrap();
        let i = Matrix::identity(q.cols());
        assert!(
            qtq.approx_eq(&i, tol),
            "QᵀQ is not identity: max diff {}",
            qtq.max_abs_diff(&i)
        );
    }

    #[test]
    fn qr_reconstructs_square() {
        let a = Matrix::from_vec(
            3,
            3,
            vec![12.0, -51.0, 4.0, 6.0, 167.0, -68.0, -4.0, 24.0, -41.0],
        )
        .unwrap();
        let Qr { q, r } = qr(&a).unwrap();
        assert_orthonormal_cols(&q, 1e-12);
        let recon = q.matmul(&r).unwrap();
        assert!(recon.approx_eq(&a, 1e-10));
        // R is upper triangular.
        for i in 0..3 {
            for j in 0..i {
                assert_eq!(r[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn qr_reconstructs_tall() {
        let a = Matrix::from_fn(7, 3, |i, j| ((i * 3 + j) as f64).sin() + 0.1 * i as f64);
        let Qr { q, r } = qr(&a).unwrap();
        assert_eq!(q.shape(), (7, 3));
        assert_eq!(r.shape(), (3, 3));
        assert_orthonormal_cols(&q, 1e-12);
        assert!(q.matmul(&r).unwrap().approx_eq(&a, 1e-10));
    }

    #[test]
    fn qr_rejects_wide() {
        let a = Matrix::zeros(2, 3);
        assert!(qr(&a).is_err());
    }

    #[test]
    fn qr_handles_zero_column() {
        let a = Matrix::from_vec(3, 2, vec![0.0, 1.0, 0.0, 2.0, 0.0, 3.0]).unwrap();
        let Qr { q, r } = qr(&a).unwrap();
        assert!(q.matmul(&r).unwrap().approx_eq(&a, 1e-12));
    }

    #[test]
    fn back_substitution() {
        let r = Matrix::from_vec(3, 3, vec![2.0, 1.0, -1.0, 0.0, 3.0, 2.0, 0.0, 0.0, 4.0]).unwrap();
        let x = solve_upper_triangular(&r, &[1.0, 8.0, 8.0]).unwrap();
        // x3 = 2, x2 = (8-4)/3 = 4/3, x1 = (1 - 4/3 + 2)/2
        assert!((x[2] - 2.0).abs() < 1e-14);
        assert!((x[1] - 4.0 / 3.0).abs() < 1e-14);
        assert!((x[0] - (1.0 - 4.0 / 3.0 + 2.0) / 2.0).abs() < 1e-14);
    }

    #[test]
    fn back_substitution_singular() {
        let r = Matrix::from_vec(2, 2, vec![1.0, 1.0, 0.0, 0.0]).unwrap();
        assert!(matches!(
            solve_upper_triangular(&r, &[1.0, 1.0]),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn lstsq_exact_system() {
        // Square nonsingular: least squares equals exact solve.
        let a = Matrix::from_vec(2, 2, vec![3.0, 1.0, 1.0, 2.0]).unwrap();
        let x = lstsq(&a, &[9.0, 8.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lstsq_overdetermined_line_fit() {
        // Fit y = 2x + 1 with noise-free samples: design [x 1].
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Matrix::from_fn(5, 2, |i, j| if j == 0 { xs[i] } else { 1.0 });
        let b: Vec<f64> = xs.iter().map(|&x| 2.0 * x + 1.0).collect();
        let coef = lstsq(&a, &b).unwrap();
        assert!((coef[0] - 2.0).abs() < 1e-12);
        assert!((coef[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lstsq_residual_orthogonal_to_columns() {
        let a = Matrix::from_fn(6, 3, |i, j| {
            ((i + 1) * (j + 2)) as f64 + ((i * j) as f64).cos()
        });
        let b: Vec<f64> = (0..6).map(|i| (i as f64).sin() * 3.0).collect();
        let x = lstsq(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let resid: Vec<f64> = b.iter().zip(ax.iter()).map(|(&bi, &ai)| bi - ai).collect();
        // Normal equations: Aᵀ r = 0 at the minimizer.
        let at_r = a.tr_matvec(&resid).unwrap();
        assert!(at_r.iter().all(|v| v.abs() < 1e-9), "Aᵀr = {at_r:?}");
    }
}

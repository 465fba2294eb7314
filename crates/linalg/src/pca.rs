//! Principal component analysis on row-vector data.
//!
//! The ICS / Virtual Landmark baselines embed hosts by their Lipschitz
//! coordinates (rows of distances to landmarks) and project onto the
//! `d`-dimensional subspace of maximum variance. This module provides that
//! projection.

use crate::eig::{symmetric_eig, symmetric_eig_jacobi, SymmetricEig};
use crate::error::{ensure_finite, LinalgError, Result};
use crate::factor::{symmetric_eig_with, FactorWorkspace};
use crate::matrix::Matrix;

/// A fitted PCA model.
#[derive(Debug, Clone)]
pub struct Pca {
    /// Column means of the training data (length = input dimension).
    pub mean: Vec<f64>,
    /// Principal axes as columns, `p x d` (input dim × components).
    pub components: Matrix,
    /// Variance captured by each retained component, non-increasing.
    pub explained_variance: Vec<f64>,
}

/// Fits PCA on the rows of `data` (`n` samples × `p` features), retaining
/// the top `d` components. A NaN or infinite entry is
/// [`LinalgError::NonFinite`].
///
/// Uses the eigendecomposition of the `p x p` covariance matrix, which is
/// the formulation in the ICS paper and efficient when `p` (number of
/// landmarks) is small. The decomposition runs on the blocked
/// factorization layer once `p` exceeds [`crate::factor::SMALL`]; repeated
/// fitters (dimension sweeps) should hold a
/// [`crate::factor::FactorWorkspace`] and call [`fit_with`].
pub fn fit(data: &Matrix, d: usize) -> Result<Pca> {
    let mut ws = FactorWorkspace::new();
    fit_with(data, d, &mut ws)
}

/// [`fit`] with a caller-owned workspace for the covariance
/// eigendecomposition — the factorization-layer entry point the IDES
/// evaluation sweeps share.
pub fn fit_with(data: &Matrix, d: usize, ws: &mut FactorWorkspace) -> Result<Pca> {
    let (n, p) = data.shape();
    if n == 0 || p == 0 {
        return Err(LinalgError::InvalidArgument("pca: empty data"));
    }
    ensure_finite(data, "pca")?;
    let d = d.min(p);
    // Column means.
    let mut mean = vec![0.0; p];
    for i in 0..n {
        for (j, m) in mean.iter_mut().enumerate() {
            *m += data[(i, j)];
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    // Covariance (biased, 1/n — the scaling does not affect the axes).
    let centered = Matrix::from_fn(n, p, |i, j| data[(i, j)] - mean[j]);
    let cov = centered.tr_matmul(&centered)?.scale(1.0 / n as f64);
    // Same dispatch as `symmetric_eig`, but through the caller's workspace
    // on the blocked path (Jacobi at small sizes / on non-convergence).
    let eig = if p <= crate::factor::SMALL {
        symmetric_eig(&cov)?
    } else {
        let mut out = SymmetricEig::default();
        match symmetric_eig_with(&cov, ws, &mut out) {
            Ok(()) => out,
            // Straight to Jacobi: re-dispatching through `symmetric_eig`
            // would rerun the whole blocked path just to fail again.
            Err(LinalgError::NoConvergence { .. }) => symmetric_eig_jacobi(&cov)?,
            Err(e) => return Err(e),
        }
    };
    let cols: Vec<usize> = (0..d).collect();
    Ok(Pca {
        mean,
        components: eig.eigenvectors.select_cols(&cols),
        explained_variance: eig.eigenvalues[..d].iter().map(|&l| l.max(0.0)).collect(),
    })
}

impl Pca {
    /// Projects rows of `data` into the principal subspace (`n x d`).
    pub fn transform(&self, data: &Matrix) -> Result<Matrix> {
        if data.cols() != self.mean.len() {
            return Err(LinalgError::ShapeMismatch {
                expected: (0, self.mean.len()),
                got: data.shape(),
                op: "pca_transform",
            });
        }
        let centered =
            Matrix::from_fn(data.rows(), data.cols(), |i, j| data[(i, j)] - self.mean[j]);
        centered.matmul(&self.components)
    }

    /// Projects a single row into a preallocated `out` (length [`Pca::dim`]),
    /// using `scratch` for the centered row. Reuses both buffers' capacity,
    /// so repeated projections (e.g. embedding every ordinary host in an
    /// evaluation sweep) allocate nothing in the steady state.
    pub fn transform_row_into(
        &self,
        row: &[f64],
        scratch: &mut Vec<f64>,
        out: &mut [f64],
    ) -> Result<()> {
        if row.len() != self.mean.len() {
            return Err(LinalgError::ShapeMismatch {
                expected: (1, self.mean.len()),
                got: (1, row.len()),
                op: "pca_transform_row",
            });
        }
        scratch.clear();
        scratch.extend(row.iter().zip(self.mean.iter()).map(|(&x, &m)| x - m));
        self.components.tr_matvec_into(scratch, out)
    }

    /// Number of retained components.
    pub fn dim(&self) -> usize {
        self.components.cols()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_dominant_direction() {
        // Points along the line y = 2x (plus a tiny orthogonal wiggle):
        // the first principal axis must be ∝ (1, 2)/√5.
        let data = Matrix::from_fn(50, 2, |i, j| {
            let t = i as f64 / 10.0 - 2.5;
            let wiggle = 0.01 * ((i * 7) as f64).sin();
            if j == 0 {
                t - 2.0 * wiggle / 5.0_f64.sqrt()
            } else {
                2.0 * t + wiggle / 5.0_f64.sqrt()
            }
        });
        let pca = fit(&data, 1).unwrap();
        let axis = pca.components.col(0);
        let expected = [1.0 / 5.0_f64.sqrt(), 2.0 / 5.0_f64.sqrt()];
        // Axis sign is arbitrary.
        let dot = axis[0] * expected[0] + axis[1] * expected[1];
        assert!(dot.abs() > 0.9999, "axis {axis:?}");
        assert!(pca.explained_variance[0] > 1.0);
    }

    #[test]
    fn variance_ordering_and_total() {
        let data = Matrix::from_fn(30, 4, |i, j| {
            ((i * (j + 1)) as f64 * 0.21).sin() * (4 - j) as f64
        });
        let pca = fit(&data, 4).unwrap();
        for w in pca.explained_variance.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert_eq!(pca.dim(), 4);
    }

    #[test]
    fn transform_centers_data() {
        let data = Matrix::from_fn(10, 3, |i, j| (i + j) as f64 + 100.0);
        let pca = fit(&data, 2).unwrap();
        let t = pca.transform(&data).unwrap();
        // Projected data must have zero mean per component.
        for j in 0..2 {
            let mean: f64 = (0..10).map(|i| t[(i, j)]).sum::<f64>() / 10.0;
            assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn transform_row_matches_matrix_transform() {
        let data = Matrix::from_fn(12, 3, |i, j| ((i * 3 + j) as f64 * 0.53).cos());
        let pca = fit(&data, 2).unwrap();
        let all = pca.transform(&data).unwrap();
        let (mut scratch, mut row) = (Vec::new(), vec![0.0; 2]);
        for i in 0..12 {
            pca.transform_row_into(data.row(i), &mut scratch, &mut row)
                .unwrap();
            for j in 0..2 {
                assert!((row[j] - all[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn d_clamped_to_feature_count() {
        let data = Matrix::from_fn(5, 2, |i, j| (i * 2 + j) as f64);
        let pca = fit(&data, 10).unwrap();
        assert_eq!(pca.dim(), 2);
    }

    #[test]
    fn empty_rejected() {
        assert!(fit(&Matrix::zeros(0, 3), 1).is_err());
        let pca = fit(&Matrix::from_fn(4, 2, |i, j| (i + j) as f64), 1).unwrap();
        assert!(pca.transform(&Matrix::zeros(2, 3)).is_err());
        assert!(pca
            .transform_row_into(&[1.0], &mut Vec::new(), &mut [0.0])
            .is_err());
    }
}

//! Principal component analysis on row-vector data.
//!
//! The ICS / Virtual Landmark baselines embed hosts by their Lipschitz
//! coordinates (rows of distances to landmarks) and project onto the
//! `d`-dimensional subspace of maximum variance. This module provides that
//! projection.

use crate::error::{ensure_finite, LinalgError, Result};
use crate::matrix::Matrix;
use crate::svd::svd;

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
/// The principal axes are the right singular vectors of the centered
/// data `X`, and the variance along axis `i` is `σᵢ²/n` — the eigenpairs
/// of the biased covariance `XᵀX/n` of the ICS formulation, without
/// forming it. The SVD is [`crate::svd::svd`]: one-sided Jacobi while
/// `min(n, p)` is at most [`crate::factor::SMALL`], blocked Golub–Kahan
/// above. The centered data has at most `min(n, p)` axes, so `d` is
/// clamped to that; with fewer samples than features the remaining axes
/// would span only the zero-variance null space.
pub fn fit(data: &Matrix, d: usize) -> Result<Pca> {
    let (n, p) = data.shape();
    if n == 0 || p == 0 {
        return Err(LinalgError::InvalidArgument("pca: empty data"));
    }
    ensure_finite(data, "pca")?;
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
    let centered = Matrix::from_fn(n, p, |i, j| data[(i, j)] - mean[j]);
    let f = svd(&centered)?;
    let d = d.min(f.singular_values.len());
    let cols: Vec<usize> = (0..d).collect();
    Ok(Pca {
        mean,
        components: f.v.select_cols(&cols),
        explained_variance: f.singular_values[..d]
            .iter()
            .map(|&s| s * s / n as f64)
            .collect(),
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
    use crate::svd::svd_jacobi;

    /// `n x p` pseudo-random data with column `j` scaled by `p - j`, so
    /// most axes are well separated.
    fn spread_data(n: usize, p: usize) -> Matrix {
        let mut state = 12345u64;
        Matrix::from_fn(n, p, |_, j| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * (p - j) as f64 + j as f64
        })
    }

    #[test]
    fn non_finite_input_is_an_error_not_a_panic() {
        // Engine contract.
        // PCA refuses a NaN or infinite entry on the Jacobi branch of the
        // SVD (5 features) and on the Golub–Kahan one (40).
        for p in [5, 40] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut data = Matrix::from_fn(p + 3, p, |i, j| ((i * p + j) as f64).cos());
                data[(2, 1)] = bad;
                let r = fit(&data, 2);
                assert!(
                    matches!(r, Err(LinalgError::NonFinite { .. })),
                    "p = {p}, {bad}"
                );
            }
        }
    }

    #[test]
    fn matches_jacobi_svd_of_centered_data() {
        // Both branches of `svd` (Jacobi at 5 features, Golub–Kahan at 40)
        // against the one-sided Jacobi oracle: variances to 1e-10 of the
        // largest, and every axis whose variance is separated from its
        // neighbours equal up to sign.
        for p in [5, 40] {
            let n = 2 * p + 7;
            let data = spread_data(n, p);
            let pca = fit(&data, p).unwrap();
            let centered = Matrix::from_fn(n, p, |i, j| data[(i, j)] - pca.mean[j]);
            let oracle = svd_jacobi(&centered).unwrap();
            let var: Vec<f64> = oracle
                .singular_values
                .iter()
                .map(|&s| s * s / n as f64)
                .collect();
            assert_eq!(pca.dim(), p);
            let scale = var[0];
            for (i, (&got, &want)) in pca.explained_variance.iter().zip(&var).enumerate() {
                assert!(
                    (got - want).abs() <= 1e-10 * scale,
                    "p = {p}: variance {i}: {got} vs {want}"
                );
            }
            let mut checked = 0;
            for i in 0..p {
                let neighbours = [i.wrapping_sub(1), i + 1].map(|j| var.get(j));
                if neighbours
                    .iter()
                    .flatten()
                    .any(|&&v| (var[i] - v).abs() < 1e-3 * scale)
                {
                    continue;
                }
                let dot: f64 = (0..p)
                    .map(|r| pca.components[(r, i)] * oracle.v[(r, i)])
                    .sum();
                assert!(
                    (dot.abs() - 1.0).abs() < 1e-8,
                    "p = {p}: axis {i}: |cos| {dot}"
                );
                checked += 1;
            }
            assert!(checked >= p / 2, "p = {p}: only {checked} separated axes");
        }
    }

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
        // Fewer samples than features: the centered data has at most
        // `min(n, p)` axes, on both branches of the SVD.
        for (n, p) in [(3, 5), (20, 40)] {
            let pca = fit(&spread_data(n, p), p).unwrap();
            assert_eq!(pca.dim(), n, "{n} x {p}");
            assert_eq!(pca.components.shape(), (p, n));
        }
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

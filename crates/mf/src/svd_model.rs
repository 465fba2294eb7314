//! SVD-based distance matrix factorization (§4.1 of the paper).
//!
//! `D = U S Vᵀ`; truncating to the top `d` singular triples and splitting
//! `S` symmetrically gives `X = U_d S_d^{1/2}`, `Y = V_d S_d^{1/2}`, the
//! global minimizer of the squared reconstruction error (Eq. 7).

use ides_datasets::DistanceMatrix;
use ides_linalg::svd::{svd, svd_truncated, Svd, TruncatedSvdOptions};
use ides_linalg::Matrix;

use crate::error::{MfError, Result};
use crate::model::FactorModel;

/// Configuration for the SVD factorizer.
#[derive(Debug, Clone, Copy)]
pub struct SvdConfig {
    /// Target dimensionality `d`.
    pub dim: usize,
    /// Force the exact (full-decomposition) SVD even for large matrices —
    /// blocked Golub–Kahan above the factorization layer's small-matrix
    /// cutoff, one-sided Jacobi below it. By default the truncated
    /// subspace iteration is used when it is clearly cheaper; both paths
    /// run on `ides_linalg`'s blocked factorization layer.
    pub force_exact: bool,
}

impl SvdConfig {
    /// Config with dimension `d` and automatic algorithm choice.
    pub fn new(dim: usize) -> Self {
        SvdConfig {
            dim,
            force_exact: false,
        }
    }
}

/// Factors a distance matrix by SVD into a rank-`d` [`FactorModel`].
///
/// The input must be fully observed (the paper notes SVD cannot cope with
/// missing entries without dropping hosts; use NMF for incomplete data or
/// filter first).
pub fn fit(data: &DistanceMatrix, config: SvdConfig) -> Result<FactorModel> {
    if !data.is_complete() {
        return Err(MfError::InvalidInput(
            "SVD requires a fully observed matrix; filter missing hosts or use NMF".into(),
        ));
    }
    fit_matrix(data.values(), config)
}

/// Factors a raw matrix (no observation mask) by SVD.
pub fn fit_matrix(d: &Matrix, config: SvdConfig) -> Result<FactorModel> {
    let (m, n) = d.shape();
    if m == 0 || n == 0 {
        return Err(MfError::InvalidInput("empty matrix".into()));
    }
    let dim = config.dim.min(m).min(n);
    if dim == 0 {
        return Err(MfError::InvalidInput("dimension must be at least 1".into()));
    }
    let decomposition = if config.force_exact {
        svd(d)?.truncate(dim)
    } else {
        svd_truncated(d, dim, TruncatedSvdOptions::default())?
    };
    Ok(model_from_svd(&decomposition, dim))
}

/// Builds the factor model from a (possibly wider) decomposition:
/// `X_ij = U_ij sqrt(S_j)`, `Y_ij = V_ij sqrt(S_j)` (Eqs. 5–6).
pub fn model_from_svd(decomposition: &Svd, dim: usize) -> FactorModel {
    let k = dim.min(decomposition.singular_values.len());
    let mut x = Matrix::zeros(decomposition.u.rows(), k);
    let mut y = Matrix::zeros(decomposition.v.rows(), k);
    for j in 0..k {
        let root = decomposition.singular_values[j].max(0.0).sqrt();
        for i in 0..x.rows() {
            x[(i, j)] = decomposition.u[(i, j)] * root;
        }
        for i in 0..y.rows() {
            y[(i, j)] = decomposition.v[(i, j)] * root;
        }
    }
    FactorModel::new(x, y).expect("columns agree by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{reconstruction_errors, Cdf};
    use crate::model::DistanceEstimator;
    use ides_netsim::topology::figure1_distance_matrix;

    #[test]
    fn paper_example_exact_rank3() {
        // §4.1: the Figure-1 matrix has S = diag(4,2,2,0), so d=3 is exact.
        let d = figure1_distance_matrix();
        let model = fit_matrix(
            &d,
            SvdConfig {
                dim: 3,
                force_exact: true,
            },
        )
        .unwrap();
        assert!(model.reconstruct().approx_eq(&d, 1e-9));
        // And the reconstruction is NOT possible in d=2 (error > 0).
        let m2 = fit_matrix(
            &d,
            SvdConfig {
                dim: 2,
                force_exact: true,
            },
        )
        .unwrap();
        assert!(!m2.reconstruct().approx_eq(&d, 1e-6));
    }

    #[test]
    fn factorization_minimizes_squared_error() {
        // Eckart–Young: rank-d SVD factorization achieves the optimal
        // Frobenius error sqrt(Σ_{i>d} σᵢ²).
        let d = Matrix::from_fn(10, 10, |i, j| {
            if i == j {
                0.0
            } else {
                20.0 + ((i * 3 + j * 7) % 13) as f64
            }
        });
        let full = svd(&d).unwrap();
        for dim in [1, 3, 5] {
            let model = fit_matrix(
                &d,
                SvdConfig {
                    dim,
                    force_exact: true,
                },
            )
            .unwrap();
            let err = (&d - &model.reconstruct()).frobenius_norm();
            let optimal: f64 = full.singular_values[dim..]
                .iter()
                .map(|s| s * s)
                .sum::<f64>()
                .sqrt();
            assert!(
                (err - optimal).abs() < 1e-8 * (1.0 + optimal),
                "dim {dim}: {err} vs {optimal}"
            );
        }
    }

    #[test]
    fn asymmetric_matrix_reconstructed() {
        // Euclidean embeddings cannot represent asymmetry; SVD factorization can.
        let d = Matrix::from_vec(3, 3, vec![0.0, 10.0, 3.0, 2.0, 0.0, 9.0, 8.0, 1.0, 0.0]).unwrap();
        let model = fit_matrix(
            &d,
            SvdConfig {
                dim: 3,
                force_exact: true,
            },
        )
        .unwrap();
        assert!(model.reconstruct().approx_eq(&d, 1e-8));
        assert!((model.estimate(0, 1) - 10.0).abs() < 1e-8);
        assert!((model.estimate(1, 0) - 2.0).abs() < 1e-8);
    }

    #[test]
    fn rejects_incomplete_data() {
        let values = Matrix::zeros(3, 3);
        let mut mask = Matrix::filled(3, 3, 1.0);
        mask[(0, 1)] = 0.0;
        let data = DistanceMatrix::with_mask("m", values, mask).unwrap();
        assert!(fit(&data, SvdConfig::new(2)).is_err());
    }

    #[test]
    fn dim_clamped_to_matrix_size() {
        let d = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64 + 1.0);
        let model = fit_matrix(&d, SvdConfig::new(100)).unwrap();
        assert_eq!(model.dim(), 4);
    }

    #[test]
    fn truncated_matches_exact_on_moderate_matrix() {
        let d = Matrix::from_fn(30, 30, |i, j| {
            if i == j {
                0.0
            } else {
                15.0 + ((i / 5) as f64 - (j / 5) as f64).abs() * 12.0
            }
        });
        let exact = fit_matrix(
            &d,
            SvdConfig {
                dim: 5,
                force_exact: true,
            },
        )
        .unwrap();
        let fast = fit_matrix(
            &d,
            SvdConfig {
                dim: 5,
                force_exact: false,
            },
        )
        .unwrap();
        let e1 = (&d - &exact.reconstruct()).frobenius_norm();
        let e2 = (&d - &fast.reconstruct()).frobenius_norm();
        assert!((e1 - e2).abs() < 1e-6 * (1.0 + e1), "{e1} vs {e2}");
    }

    /// The benchmark's `paper_offline` matrix at `keep` hosts: the first
    /// `keep` of `p2psim_like(target)` at its dataset seed.
    fn paper_offline_matrix(target: usize, keep: usize) -> Matrix {
        let ds = ides_datasets::generators::p2psim_like(target, 20041025).unwrap();
        let kept: Vec<usize> = (0..keep).collect();
        ds.matrix.submatrix(&kept, &kept).values().clone()
    }

    /// `svd_truncated` against the full SVD on the paper's 256² matrix, by
    /// the bounds `ides_linalg::svd`'s tests hold its structured fixtures
    /// to: every σ to 1e-10 relative; the right singular vector of every
    /// triplet whose gap ratio to both neighbours is at least 1.5 to 1e-8
    /// in angle (the spectrum is too flat after σ₃ for the rest to be
    /// defined that finely); the rank-`d` error to 1e-10 relative over the
    /// Eckart–Young optimum.
    #[test]
    fn truncated_svd_matches_the_full_svd() {
        let (a, d) = (paper_offline_matrix(286, 256), 10);
        let t = svd_truncated(&a, d, TruncatedSvdOptions::default()).unwrap();
        let full = svd(&a).unwrap();
        let s = &full.singular_values;
        for j in 0..d {
            let rel = (t.singular_values[j] - s[j]).abs() / s[j];
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
        let err = (&a - &t.reconstruct()).frobenius_norm();
        let optimal = s[d..].iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(
            err - optimal <= 1e-10 * optimal,
            "{err} vs optimal {optimal}"
        );
    }

    #[test]
    fn paper_offline_fit_stops_within_40_sweeps() {
        // A run capped at 40 sweeps equals the uncapped one bit for bit
        // exactly when the residual stop fired by sweep 40.
        let a = paper_offline_matrix(1143, 1024);
        let run = |max_iterations| {
            let opts = TruncatedSvdOptions {
                max_iterations,
                ..TruncatedSvdOptions::default()
            };
            let t = svd_truncated(&a, 10, opts).unwrap();
            let all = t.u.as_slice().iter().chain(&t.singular_values);
            all.chain(t.v.as_slice())
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        };
        assert!(run(40) == run(TruncatedSvdOptions::default().max_iterations));
    }

    #[test]
    fn non_finite_entries_are_an_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut d = Matrix::from_fn(64, 64, |i, j| (i as f64 - j as f64).abs());
            d[(3, 5)] = bad;
            for force_exact in [false, true] {
                assert!(fit_matrix(
                    &d,
                    SvdConfig {
                        dim: 5,
                        force_exact
                    }
                )
                .is_err());
            }
        }
    }

    #[test]
    fn reconstruction_errors_on_real_dataset_shape() {
        let ds = ides_datasets::generators::gnp_like(19, 3).unwrap();
        let model = fit(&ds.matrix, SvdConfig::new(10)).unwrap();
        let errs = reconstruction_errors(&model, &ds.matrix);
        assert_eq!(errs.len(), 19 * 18);
        let cdf = Cdf::new(errs);
        // With d=10 of 19, reconstruction should be very accurate (paper
        // reports 90% within 9% relative error for GNP at d=10).
        assert!(cdf.p90() < 0.25, "90th percentile error {}", cdf.p90());
    }
}

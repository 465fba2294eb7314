//! Property-based tests for the factorization models and metrics. Every
//! test here is an *engine contract* (a property the models promise), none
//! a *history oracle* (a copy of a former loop).

use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;
use ides_mf::metrics::{modified_relative_error, Cdf};
use ides_mf::model::{DistanceEstimator, EuclideanModel, FactorModel};
use ides_mf::nmf::{self, NmfConfig};
use ides_mf::svd_model::{fit_matrix, SvdConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The modified relative error (Eq. 10) is zero iff exact, always
    /// nonnegative, finite, and penalizes underestimation at least as hard
    /// as the same-magnitude overestimation.
    #[test]
    fn relative_error_properties(actual in 0.01f64..1000.0, delta in 0.0f64..0.99) {
        // Engine contract.
        prop_assert_eq!(modified_relative_error(actual, actual), 0.0);
        let over = modified_relative_error(actual, actual * (1.0 + delta));
        let under = modified_relative_error(actual, actual * (1.0 - delta));
        prop_assert!(over >= 0.0 && over.is_finite());
        prop_assert!(under >= 0.0 && under.is_finite());
        prop_assert!(under + 1e-12 >= over, "under {} < over {}", under, over);
    }

    /// Full-rank SVD factorization reconstructs any matrix exactly —
    /// including asymmetric and triangle-violating ones.
    #[test]
    fn full_rank_factorization_is_exact(vals in prop::collection::vec(0.0f64..100.0, 25)) {
        // Engine contract.
        let mut d = Matrix::from_vec(5, 5, vals).unwrap();
        for i in 0..5 {
            d[(i, i)] = 0.0;
        }
        let model = fit_matrix(&d, SvdConfig { dim: 5, force_exact: true }).unwrap();
        prop_assert!(model.reconstruct().approx_eq(&d, 1e-7));
    }

    /// Rank-(d+1) SVD reconstruction error never exceeds rank-d error.
    #[test]
    fn svd_error_monotone_in_dimension(vals in prop::collection::vec(0.0f64..100.0, 36)) {
        // Engine contract.
        let d = Matrix::from_vec(6, 6, vals).unwrap();
        let mut prev = f64::INFINITY;
        for dim in 1..=6 {
            let model = fit_matrix(&d, SvdConfig { dim, force_exact: true }).unwrap();
            let err = (&d - &model.reconstruct()).frobenius_norm();
            prop_assert!(err <= prev + 1e-9, "dim {}: {} > {}", dim, err, prev);
            prev = err;
        }
    }

    /// NMF factors stay nonnegative and its error trace never increases.
    #[test]
    fn nmf_invariants(vals in prop::collection::vec(0.0f64..50.0, 36), seed in 0u64..100) {
        // Engine contract.
        let d = Matrix::from_vec(6, 6, vals).unwrap();
        let cfg = NmfConfig { iterations: 40, seed, ..NmfConfig::new(3) };
        let fit = nmf::fit_matrix(&d, cfg).unwrap();
        prop_assert!(fit.model.x().is_nonnegative(0.0));
        prop_assert!(fit.model.y().is_nonnegative(0.0));
        for w in fit.error_trace.windows(2) {
            prop_assert!(w[1] <= w[0] * (1.0 + 1e-9), "{} -> {}", w[0], w[1]);
        }
    }

    /// The factor model serializes losslessly.
    #[test]
    fn factor_model_serde_roundtrip(
        x in prop::collection::vec(-10.0f64..10.0, 8),
        y in prop::collection::vec(-10.0f64..10.0, 12)
    ) {
        // Engine contract.
        let model = FactorModel::new(
            Matrix::from_vec(4, 2, x).unwrap(),
            Matrix::from_vec(6, 2, y).unwrap(),
        )
        .unwrap();
        let json = serde_json::to_string(&model).unwrap();
        let back: FactorModel = serde_json::from_str(&json).unwrap();
        for i in 0..4 {
            for j in 0..6 {
                prop_assert!((model.estimate(i, j) - back.estimate(i, j)).abs() < 1e-12);
            }
        }
    }

    /// Euclidean models always satisfy symmetry and the triangle
    /// inequality — the §2.2 limitation the factor model removes.
    #[test]
    fn euclidean_model_is_constrained(coords in prop::collection::vec(-100.0f64..100.0, 12)) {
        // Engine contract.
        let m = EuclideanModel::new(Matrix::from_vec(4, 3, coords).unwrap());
        for a in 0..4 {
            prop_assert_eq!(m.estimate(a, a), 0.0);
            for b in 0..4 {
                prop_assert_eq!(m.estimate(a, b), m.estimate(b, a));
                for c in 0..4 {
                    prop_assert!(m.estimate(a, c) <= m.estimate(a, b) + m.estimate(b, c) + 1e-9);
                }
            }
        }
    }

    /// CDF quantiles are monotone in p and bracket the sample range.
    #[test]
    fn cdf_quantile_monotone(samples in prop::collection::vec(0.0f64..100.0, 1..60)) {
        // Engine contract.
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0_f64, f64::max);
        let cdf = Cdf::new(samples);
        let mut prev = f64::NEG_INFINITY;
        for k in 0..=10 {
            let q = cdf.quantile(k as f64 / 10.0);
            prop_assert!(q >= prev - 1e-12);
            prop_assert!(q >= min - 1e-12 && q <= max + 1e-12);
            prev = q;
        }
        prop_assert_eq!(cdf.fraction_below(max), 1.0);
    }

    /// Masked NMF never reads masked cells: flipping a masked cell's value
    /// leaves the fit unchanged.
    #[test]
    fn masked_nmf_ignores_hidden_values(seed in 0u64..50, hidden in 0.0f64..1000.0) {
        // Engine contract.
        let base = Matrix::from_fn(6, 6, |i, j| if i == j { 0.0 } else { 10.0 + ((i * 6 + j) % 7) as f64 });
        let mut mask = Matrix::filled(6, 6, 1.0);
        mask[(1, 4)] = 0.0;
        let mut altered = base.clone();
        altered[(1, 4)] = hidden;
        let cfg = NmfConfig { iterations: 30, seed, ..NmfConfig::new(2) };
        let d1 = DistanceMatrix::with_mask("a", base, mask.clone()).unwrap();
        let d2 = DistanceMatrix::with_mask("b", altered, mask).unwrap();
        let f1 = nmf::fit(&d1, cfg).unwrap();
        let f2 = nmf::fit(&d2, cfg).unwrap();
        let diff = f1.model.reconstruct().max_abs_diff(&f2.model.reconstruct());
        prop_assert!(diff < 1e-9, "masked value leaked into fit: {}", diff);
    }
}

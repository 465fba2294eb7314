//! Property-based tests for the dense linear-algebra kernels.

use ides_linalg::qr::{lstsq, qr};
use ides_linalg::svd::{svd, svd_truncated, TruncatedSvdOptions};
use ides_linalg::{eig::symmetric_eig, nnls::nnls, solve::pinv, Matrix};
use proptest::prelude::*;

/// Strategy: a small matrix shape (the matrices themselves are built
/// deterministically from a seed).
fn small_shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..8, 1usize..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_involution((r, c) in small_shape(), seed in 0u64..1000) {
        let a = deterministic_matrix(r, c, seed);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_associative(seed in 0u64..1000) {
        let a = deterministic_matrix(4, 3, seed);
        let b = deterministic_matrix(3, 5, seed.wrapping_add(1));
        let c = deterministic_matrix(5, 2, seed.wrapping_add(2));
        let ab_c = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let a_bc = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(ab_c.approx_eq(&a_bc, 1e-8 * (1.0 + ab_c.max_abs())));
    }

    #[test]
    fn matmul_distributes_over_add(seed in 0u64..1000) {
        let a = deterministic_matrix(3, 4, seed);
        let b = deterministic_matrix(4, 3, seed.wrapping_add(7));
        let c = deterministic_matrix(4, 3, seed.wrapping_add(13));
        let lhs = a.matmul(&(&b + &c)).unwrap();
        let rhs = &a.matmul(&b).unwrap() + &a.matmul(&c).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-9 * (1.0 + lhs.max_abs())));
    }

    #[test]
    fn transpose_of_product(seed in 0u64..1000) {
        let a = deterministic_matrix(4, 3, seed);
        let b = deterministic_matrix(3, 5, seed.wrapping_add(3));
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn qr_reconstructs(v in prop::collection::vec(-10.0_f64..10.0, 20)) {
        let a = Matrix::from_vec(5, 4, v).unwrap();
        let f = qr(&a).unwrap();
        prop_assert!(f.q.matmul(&f.r).unwrap().approx_eq(&a, 1e-8));
        let qtq = f.q.tr_matmul(&f.q).unwrap();
        prop_assert!(qtq.approx_eq(&Matrix::identity(4), 1e-9));
    }

    #[test]
    fn svd_reconstructs_and_is_sorted(v in prop::collection::vec(-10.0_f64..10.0, 24)) {
        let a = Matrix::from_vec(6, 4, v).unwrap();
        let f = svd(&a).unwrap();
        prop_assert!(f.reconstruct().approx_eq(&a, 1e-7));
        for w in f.singular_values.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-10);
        }
        for &s in &f.singular_values {
            prop_assert!(s >= 0.0);
        }
        // Orthonormality of both factors.
        prop_assert!(f.u.tr_matmul(&f.u).unwrap().approx_eq(&Matrix::identity(4), 1e-8));
        prop_assert!(f.v.tr_matmul(&f.v).unwrap().approx_eq(&Matrix::identity(4), 1e-8));
    }

    #[test]
    fn svd_frobenius_norm_identity(v in prop::collection::vec(-5.0_f64..5.0, 25)) {
        // ‖A‖_F² = Σ σᵢ².
        let a = Matrix::from_vec(5, 5, v).unwrap();
        let f = svd(&a).unwrap();
        let sum_sq: f64 = f.singular_values.iter().map(|s| s * s).sum();
        let fro2 = a.frobenius_norm().powi(2);
        prop_assert!((sum_sq - fro2).abs() < 1e-7 * (1.0 + fro2));
    }

    #[test]
    fn truncated_svd_never_beats_eckart_young(v in prop::collection::vec(-5.0_f64..5.0, 49), d in 1usize..4) {
        // The optimal rank-d error is sqrt(Σ_{i>d} σᵢ²); subspace iteration
        // must be within a small factor of it and never (meaningfully) below.
        let a = Matrix::from_vec(7, 7, v).unwrap();
        let full = svd(&a).unwrap();
        let optimal: f64 = full.singular_values[d..].iter().map(|s| s * s).sum::<f64>().sqrt();
        let t = svd_truncated(&a, d, TruncatedSvdOptions::default()).unwrap();
        let err = (&a - &t.reconstruct()).frobenius_norm();
        prop_assert!(err >= optimal - 1e-6, "err {} below optimal {}", err, optimal);
        prop_assert!(err <= optimal * 1.0 + 1e-4 + optimal * 1e-3, "err {} far above optimal {}", err, optimal);
    }

    #[test]
    fn eig_reconstructs_symmetric(v in prop::collection::vec(-10.0_f64..10.0, 36)) {
        let mut a = Matrix::from_vec(6, 6, v).unwrap();
        a.symmetrize();
        let e = symmetric_eig(&a).unwrap();
        prop_assert!(e.reconstruct().approx_eq(&a, 1e-7));
        let trace_sum: f64 = e.eigenvalues.iter().sum();
        prop_assert!((trace_sum - a.trace()).abs() < 1e-8 * (1.0 + a.trace().abs()));
    }

    #[test]
    fn lstsq_normal_gradient_zero(v in prop::collection::vec(-5.0_f64..5.0, 18), b in prop::collection::vec(-5.0_f64..5.0, 6)) {
        let a = Matrix::from_vec(6, 3, v).unwrap();
        if let Ok(x) = lstsq(&a, &b) {
            let ax = a.matvec(&x).unwrap();
            let resid: Vec<f64> = b.iter().zip(ax.iter()).map(|(&bi, &ai)| bi - ai).collect();
            let grad = a.tr_matvec(&resid).unwrap();
            for g in grad {
                prop_assert!(g.abs() < 1e-6, "gradient component {}", g);
            }
        }
    }

    #[test]
    fn pinv_penrose_1(v in prop::collection::vec(-5.0_f64..5.0, 12)) {
        let a = Matrix::from_vec(4, 3, v).unwrap();
        let p = pinv(&a, 1e-10).unwrap();
        let apa = a.matmul(&p).unwrap().matmul(&a).unwrap();
        prop_assert!(apa.approx_eq(&a, 1e-6 * (1.0 + a.max_abs())));
    }

    #[test]
    fn nnls_is_nonnegative_and_no_worse_than_zero(v in prop::collection::vec(-5.0_f64..5.0, 15), b in prop::collection::vec(-5.0_f64..5.0, 5)) {
        let a = Matrix::from_vec(5, 3, v).unwrap();
        let x = nnls(&a, &b).unwrap();
        for &xi in &x {
            prop_assert!(xi >= 0.0);
        }
        let ax = a.matvec(&x).unwrap();
        let r2: f64 = b.iter().zip(ax.iter()).map(|(&bi, &ai)| (bi - ai) * (bi - ai)).sum();
        let b2: f64 = b.iter().map(|&v| v * v).sum();
        prop_assert!(r2 <= b2 + 1e-8);
    }
}

/// Deterministic pseudo-random matrix from a seed (keeps shrinking fast by
/// avoiding huge proptest vectors for multi-matrix laws).
fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) * 10.0 - 5.0
    })
}

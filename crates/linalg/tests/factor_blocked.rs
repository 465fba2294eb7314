//! Property suite for the blocked factorization layer: every blocked
//! algorithm is pinned against its unblocked reference (scalar Householder
//! QR, one-sided Jacobi SVD) across shapes straddling
//! the panel boundaries — square-ish, very tall, rank-deficient — with
//! orthogonality and reconstruction held to 1e-9, and blocked QR held
//! **bit-identical** to the unblocked algorithm whenever the matrix has at
//! most `PANEL` columns (a single panel runs the reference arithmetic end
//! to end).

use ides_linalg::factor::{self, FactorWorkspace, PANEL, SMALL};
use ides_linalg::qr::{self, reference::qr_unblocked, Qr};
use ides_linalg::svd::{svd, svd_jacobi, Svd};
use ides_linalg::Matrix;

/// Deterministic dense test matrix with O(1) entries and no structure.
fn det_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345);
    Matrix::from_fn(r, c, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) * 4.0 - 2.0
    })
}

/// Rank-`k` matrix: product of two random factors.
fn low_rank(r: usize, c: usize, k: usize, seed: u64) -> Matrix {
    let a = det_matrix(r, k, seed);
    let b = det_matrix(k, c, seed.wrapping_add(7));
    a.matmul(&b).unwrap()
}

fn assert_orthonormal_cols(q: &Matrix, tol: f64, what: &str) {
    let qtq = q.tr_matmul(q).unwrap();
    let i = Matrix::identity(q.cols());
    assert!(
        qtq.approx_eq(&i, tol),
        "{what}: QᵀQ deviates from identity by {}",
        qtq.max_abs_diff(&i)
    );
}

// ---------------------------------------------------------------------------
// QR
// ---------------------------------------------------------------------------

#[test]
fn blocked_qr_matches_reference_across_shapes() {
    // Shapes straddling the panel boundary, incl. m ≈ n and m ≫ n.
    for &(m, n) in &[
        (PANEL + 1, PANEL + 1),
        (PANEL * 2 + 3, PANEL * 2 + 3),
        (97, 91),
        (200, 64),
        (333, 40),
        (500, 37),
        (130, 129),
    ] {
        let a = det_matrix(m, n, (m * 7 + n) as u64);
        let blocked = qr::qr(&a).unwrap();
        let reference = qr_unblocked(&a).unwrap();
        assert_eq!(blocked.q.shape(), (m, n));
        assert_eq!(blocked.r.shape(), (n, n));
        assert_orthonormal_cols(&blocked.q, 1e-11, &format!("qr {m}x{n}"));
        // Reconstruction against the input.
        let recon = blocked.q.matmul(&blocked.r).unwrap();
        assert!(
            recon.approx_eq(&a, 1e-9),
            "qr {m}x{n}: |QR - A| = {}",
            recon.max_abs_diff(&a)
        );
        // R upper triangular with the reference's magnitudes on the diagonal
        // (signs and low bits may differ panel-wise; diagonal magnitudes are
        // pinned by the sign convention, which both algorithms share).
        for i in 0..n {
            for j in 0..i {
                assert_eq!(blocked.r[(i, j)], 0.0);
            }
            assert!(
                (blocked.r[(i, i)].abs() - reference.r[(i, i)].abs()).abs()
                    <= 1e-9 * (1.0 + reference.r[(i, i)].abs()),
                "qr {m}x{n}: diag {i}"
            );
        }
    }
}

#[test]
fn blocked_qr_bit_identical_to_unblocked_within_one_panel() {
    // n <= PANEL => a single panel runs the reference arithmetic end to
    // end: results must be bitwise equal, not merely close.
    for &(m, n) in &[
        (PANEL, PANEL),
        (64, PANEL),
        (200, 17),
        (45, 1),
        (333, PANEL - 1),
    ] {
        let a = det_matrix(m, n, (m * 31 + n) as u64);
        let blocked = qr::qr(&a).unwrap();
        let reference = qr_unblocked(&a).unwrap();
        assert_eq!(
            blocked.q.as_slice(),
            reference.q.as_slice(),
            "Q not bitwise for {m}x{n}"
        );
        assert_eq!(
            blocked.r.as_slice(),
            reference.r.as_slice(),
            "R not bitwise for {m}x{n}"
        );
    }
}

#[test]
fn blocked_qr_rank_deficient_and_zero_columns() {
    // Rank-3 tall matrix: QR must still produce an orthonormal Q and an
    // exact reconstruction (R picks up ~zero diagonal entries).
    let a = low_rank(120, 50, 3, 9);
    let Qr { q, r } = qr::qr(&a).unwrap();
    assert_orthonormal_cols(&q, 1e-10, "rank-deficient qr");
    assert!(q.matmul(&r).unwrap().approx_eq(&a, 1e-9));
    // Explicit zero column crossing a panel boundary.
    let mut b = det_matrix(100, PANEL + 5, 11);
    for i in 0..100 {
        b[(i, PANEL + 1)] = 0.0;
    }
    let f = qr::qr(&b).unwrap();
    assert!(f.q.matmul(&f.r).unwrap().approx_eq(&b, 1e-9));
}

#[test]
fn qr_with_reuses_workspace_across_shapes() {
    let mut ws = FactorWorkspace::new();
    let mut out = Qr::default();
    for &(m, n) in &[(80, 40), (120, 90), (40, 40), (90, 12)] {
        let a = det_matrix(m, n, (m + n) as u64);
        factor::qr_with(&a, &mut ws, &mut out).unwrap();
        let fresh = qr::qr(&a).unwrap();
        assert_eq!(out.q.as_slice(), fresh.q.as_slice(), "{m}x{n}");
        assert_eq!(out.r.as_slice(), fresh.r.as_slice(), "{m}x{n}");
    }
    // Wide input still rejected through the workspace entry point.
    assert!(factor::qr_with(&Matrix::zeros(3, 5), &mut ws, &mut out).is_err());
}

// ---------------------------------------------------------------------------
// SVD
// ---------------------------------------------------------------------------

fn check_svd_against_jacobi(a: &Matrix, tag: &str) {
    let blocked = svd(a).unwrap();
    let oracle = svd_jacobi(a).unwrap();
    let (m, n) = a.shape();
    let k = m.min(n);
    assert_eq!(blocked.u.shape(), (m, k.max(n.min(m))), "{tag}: u shape");
    assert_eq!(blocked.singular_values.len(), k, "{tag}: sv count");
    assert_orthonormal_cols(&blocked.u, 1e-9, &format!("{tag} U"));
    assert_orthonormal_cols(&blocked.v, 1e-9, &format!("{tag} V"));
    let smax = oracle.singular_values[0].max(1e-300);
    for (i, (b, o)) in blocked
        .singular_values
        .iter()
        .zip(oracle.singular_values.iter())
        .enumerate()
    {
        assert!(
            (b - o).abs() <= 1e-9 * smax,
            "{tag}: sv {i}: blocked {b} vs jacobi {o}"
        );
        assert!(*b >= -1e-12, "{tag}: negative singular value {b}");
    }
    // Non-increasing order.
    for w in blocked.singular_values.windows(2) {
        assert!(w[0] >= w[1] - 1e-12 * smax, "{tag}: not sorted");
    }
    let recon = blocked.reconstruct();
    assert!(
        recon.approx_eq(a, 1e-9 * (1.0 + smax)),
        "{tag}: |USVᵀ - A| = {}",
        recon.max_abs_diff(a)
    );
}

#[test]
fn blocked_svd_matches_jacobi_square_and_tall() {
    for &(m, n, seed) in &[
        (SMALL + 1, SMALL + 1, 1u64), // just past the dispatch cutoff
        (90, 85, 2),                  // m ≈ n across panel boundaries
        (130, 130, 3),                // square, multiple panels
        (400, 50, 4),                 // m ≫ n
        (250, 33, 5),
    ] {
        let a = det_matrix(m, n, seed);
        check_svd_against_jacobi(&a, &format!("svd {m}x{n}"));
    }
}

#[test]
fn blocked_svd_wide_matrix_via_transpose() {
    let a = det_matrix(40, 120, 6);
    check_svd_against_jacobi(&a, "svd 40x120");
    let s = svd(&a).unwrap();
    assert_eq!(s.u.shape(), (40, 40));
    assert_eq!(s.v.shape(), (120, 40));
}

#[test]
fn blocked_svd_rank_deficient() {
    // Exact rank 5 in a 140x60 matrix: trailing singular values ~0 and the
    // reconstruction still holds to 1e-9.
    let a = low_rank(140, 60, 5, 21);
    let s = svd(&a).unwrap();
    let smax = s.singular_values[0];
    for &sv in &s.singular_values[5..] {
        assert!(sv.abs() <= 1e-10 * smax, "phantom singular value {sv}");
    }
    assert!(s.reconstruct().approx_eq(&a, 1e-9 * (1.0 + smax)));
    assert_orthonormal_cols(&s.u, 1e-9, "rank-deficient U");
    assert_orthonormal_cols(&s.v, 1e-9, "rank-deficient V");
}

#[test]
fn blocked_svd_distance_matrix_like() {
    // Positive, zero-diagonal, near-low-rank input — the IDES workload.
    let base = det_matrix(96, 8, 31).map(|x| x.abs() + 0.5);
    let mut d = base.matmul_tr(&base).unwrap().scale(10.0);
    for i in 0..96 {
        d[(i, i)] = 0.0;
    }
    check_svd_against_jacobi(&d, "svd distance-like 96x96");
}

#[test]
fn svd_with_workspace_reuse_matches_dispatch() {
    let mut ws = FactorWorkspace::new();
    let mut out = Svd {
        u: Matrix::zeros(0, 0),
        singular_values: Vec::new(),
        v: Matrix::zeros(0, 0),
    };
    for &(m, n, seed) in &[(70, 60, 41u64), (60, 70, 42), (150, 40, 43)] {
        let a = det_matrix(m, n, seed);
        factor::svd_with(&a, &mut ws, &mut out).unwrap();
        let oracle = svd_jacobi(&a).unwrap();
        let smax = oracle.singular_values[0];
        for (b, o) in out
            .singular_values
            .iter()
            .zip(oracle.singular_values.iter())
        {
            assert!((b - o).abs() <= 1e-9 * smax, "{m}x{n}");
        }
        assert!(
            out.reconstruct().approx_eq(&a, 1e-9 * (1.0 + smax)),
            "{m}x{n}"
        );
    }
}

//! Structural statistics of distance matrices.
//!
//! These quantify the phenomena the paper's argument rests on: triangle-
//! inequality violations from sub-optimal routing (§2.2 cites ~40 % of
//! pairs having a shorter one-hop detour), route asymmetry, and the
//! near-low-rank structure that makes factorization work.

use ides_linalg::svd::{svd_truncated, TruncatedSvdOptions};
use ides_linalg::Matrix;

use crate::distance_matrix::DistanceMatrix;

/// Fraction of ordered host pairs `(i, j)` for which some relay `k` gives
/// `D[i][k] + D[k][j] < D[i][j]` by more than `rel_slack` (relative).
///
/// Missing entries never participate. Quadratic-in-pairs × hosts; sampled
/// down to `max_pairs` pairs for large matrices (deterministic stride).
pub fn triangle_violation_fraction(d: &DistanceMatrix, rel_slack: f64, max_pairs: usize) -> f64 {
    assert!(d.is_square(), "TIV is defined on square matrices");
    let n = d.rows();
    if n < 3 {
        return 0.0;
    }
    let total_pairs = n * (n - 1);
    let stride = (total_pairs / max_pairs.max(1)).max(1);
    let mut violated = 0usize;
    let mut examined = 0usize;
    let mut counter = 0usize;
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            counter += 1;
            if !counter.is_multiple_of(stride) {
                continue;
            }
            let Some(dij) = d.get(i, j) else { continue };
            if dij <= 0.0 {
                continue;
            }
            examined += 1;
            let has_detour = (0..n).any(|k| {
                if k == i || k == j {
                    return false;
                }
                match (d.get(i, k), d.get(k, j)) {
                    (Some(a), Some(b)) => a + b < dij * (1.0 - rel_slack),
                    _ => false,
                }
            });
            if has_detour {
                violated += 1;
            }
        }
    }
    if examined == 0 {
        0.0
    } else {
        violated as f64 / examined as f64
    }
}

/// Mean relative asymmetry over observed off-diagonal pairs:
/// `|D_ij − D_ji| / max(D_ij, D_ji)`.
pub fn asymmetry_index(d: &DistanceMatrix) -> f64 {
    assert!(d.is_square(), "asymmetry is defined on square matrices");
    let n = d.rows();
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            if let (Some(a), Some(b)) = (d.get(i, j), d.get(j, i)) {
                let m = a.max(b);
                if m > 0.0 {
                    sum += (a - b).abs() / m;
                    count += 1;
                }
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

/// Effective rank: smallest `d` such that the top-`d` singular values carry
/// `energy_fraction` of the total squared spectral energy (computed over
/// the first `probe_rank` singular values; returns `probe_rank` when even
/// those do not reach the threshold).
///
/// The probe runs through `ides_linalg`'s unified factorization entry
/// points: subspace iteration re-orthonormalized by the blocked QR, with
/// the near-full-rank fallback dispatching to the blocked Golub–Kahan SVD
/// (Jacobi below the small-matrix cutoff).
///
/// # Panics
///
/// If `values` holds a NaN or infinite entry.
pub fn effective_rank(values: &Matrix, energy_fraction: f64, probe_rank: usize) -> usize {
    let k = probe_rank.min(values.rows()).min(values.cols());
    if k == 0 {
        return 0;
    }
    let svd = svd_truncated(values, k, TruncatedSvdOptions::default()).expect("values are finite");
    let total = values.frobenius_norm().powi(2);
    if total == 0.0 {
        return 0;
    }
    let mut acc = 0.0;
    for (i, s) in svd.singular_values.iter().enumerate() {
        acc += s * s;
        if acc >= energy_fraction * total {
            return i + 1;
        }
    }
    k
}

/// Simple summary of a dataset, printable in experiment headers.
#[derive(Debug, Clone)]
pub struct DatasetSummary {
    /// Dataset name.
    pub name: String,
    /// Shape of the matrix.
    pub shape: (usize, usize),
    /// Mean observed off-diagonal distance (ms).
    pub mean_rtt_ms: f64,
    /// Fraction of observed entries.
    pub observed_fraction: f64,
    /// Triangle-violation fraction (square matrices; else 0).
    pub tiv_fraction: f64,
    /// Mean relative asymmetry (square matrices; else 0).
    pub asymmetry: f64,
    /// Effective rank at 95 % energy.
    pub effective_rank_95: usize,
}

/// Computes the summary statistics for a dataset.
pub fn summarize(d: &DistanceMatrix) -> DatasetSummary {
    let (tiv, asym) = if d.is_square() {
        (
            triangle_violation_fraction(d, 0.005, 20_000),
            asymmetry_index(d),
        )
    } else {
        (0.0, 0.0)
    };
    DatasetSummary {
        name: d.name().to_string(),
        shape: d.shape(),
        mean_rtt_ms: d.mean_distance(),
        observed_fraction: d.observed_fraction(),
        tiv_fraction: tiv,
        asymmetry: asym,
        effective_rank_95: effective_rank(d.values(), 0.95, 40),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dm(values: Vec<f64>, n: usize) -> DistanceMatrix {
        DistanceMatrix::full("t", Matrix::from_vec(n, n, values).unwrap()).unwrap()
    }

    #[test]
    fn metric_matrix_has_no_violations() {
        // Shortest-path metric (Figure 1 ring) satisfies the triangle
        // inequality exactly.
        let d = dm(
            vec![
                0.0, 1.0, 1.0, 2.0, 1.0, 0.0, 2.0, 1.0, 1.0, 2.0, 0.0, 1.0, 2.0, 1.0, 1.0, 0.0,
            ],
            4,
        );
        assert_eq!(triangle_violation_fraction(&d, 0.001, 10_000), 0.0);
    }

    #[test]
    fn detects_planted_violation() {
        // D[0][2] = 10 but D[0][1] + D[1][2] = 2: pair (0,2) violates.
        let d = dm(vec![0.0, 1.0, 10.0, 1.0, 0.0, 1.0, 10.0, 1.0, 0.0], 3);
        let f = triangle_violation_fraction(&d, 0.001, 10_000);
        // Ordered pairs: (0,2) and (2,0) violate out of 6.
        assert!((f - 2.0 / 6.0).abs() < 1e-12, "fraction {f}");
    }

    #[test]
    fn symmetric_matrix_has_zero_asymmetry() {
        let d = dm(vec![0.0, 5.0, 5.0, 0.0], 2);
        assert_eq!(asymmetry_index(&d), 0.0);
    }

    #[test]
    fn asymmetry_measured() {
        // D_01 = 10, D_10 = 5 -> |10-5|/10 = 0.5.
        let d = dm(vec![0.0, 10.0, 5.0, 0.0], 2);
        assert!((asymmetry_index(&d) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn effective_rank_of_low_rank_matrix() {
        // Rank-2 matrix: effective rank at 99.9% energy must be <= 2.
        let b = Matrix::from_fn(20, 2, |i, j| ((i + j) as f64 * 0.4).sin() + 1.5);
        let c = Matrix::from_fn(2, 20, |i, j| ((i * 3 + j) as f64 * 0.2).cos() + 1.0);
        let m = b.matmul(&c).unwrap();
        let r = effective_rank(&m, 0.999, 10);
        assert!(r <= 2, "effective rank {r}");
    }

    #[test]
    fn effective_rank_identity() {
        // Identity spreads energy evenly: need ~95% of dimensions.
        let m = Matrix::identity(20);
        let r = effective_rank(&m, 0.95, 20);
        assert!(r >= 19, "effective rank {r}");
    }

    #[test]
    fn summary_runs_on_masked_data() {
        let v = Matrix::from_vec(3, 3, vec![0.0, 1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 2.0, 0.0]).unwrap();
        let mut mask = Matrix::filled(3, 3, 1.0);
        mask[(0, 2)] = 0.0;
        mask[(2, 0)] = 0.0;
        let d = DistanceMatrix::with_mask("m", v, mask).unwrap();
        let s = summarize(&d);
        assert_eq!(s.shape, (3, 3));
        assert!(s.observed_fraction < 1.0);
        assert!(s.mean_rtt_ms > 0.0);
    }

    #[test]
    fn sampling_cap_is_respected_and_stable() {
        let n = 30;
        let vals = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                0.0
            } else {
                10.0 + ((i * 31 + j * 17) % 7) as f64
            }
        });
        let d = DistanceMatrix::full("s", vals).unwrap();
        let f1 = triangle_violation_fraction(&d, 0.001, 100);
        let f2 = triangle_violation_fraction(&d, 0.001, 100);
        assert_eq!(f1, f2, "sampled TIV must be deterministic");
        assert!((0.0..=1.0).contains(&f1));
    }
}

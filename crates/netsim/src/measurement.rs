//! RTT measurement simulation: queueing noise, min-of-k filtering, loss.
//!
//! The paper's data sets are *measured* RTTs — NLANR takes the minimum of a
//! day of once-per-minute pings; P2PSim uses the King technique (indirect
//! measurement through DNS, noisier). This module turns the deterministic
//! policy-routed base RTTs from [`crate::topology`] into measurement-shaped
//! matrices: a base value plus exponential queueing jitter, with the
//! min-of-k estimator and a configurable probability of outright
//! measurement failure (missing matrix entries).

use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::topology::TransitStubTopology;
use ides_linalg::Matrix;

/// Parameters of the measurement process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasurementParams {
    /// Number of probes per pair; the estimate is the minimum over probes.
    pub probes: usize,
    /// Mean of the exponential queueing-delay jitter added per probe, as a
    /// fraction of the base RTT (e.g. 0.1 = mean jitter is 10 % of base).
    pub jitter_frac: f64,
    /// Additive measurement floor jitter in ms (clock quantization etc.).
    pub floor_jitter_ms: f64,
    /// Probability that a pair's measurement fails entirely → missing entry.
    pub loss_prob: f64,
}

impl MeasurementParams {
    /// NLANR-style: once-a-minute pings over a day, min filter → very clean.
    pub fn nlanr_style() -> Self {
        MeasurementParams {
            probes: 24,
            jitter_frac: 0.08,
            floor_jitter_ms: 0.1,
            loss_prob: 0.0,
        }
    }

    /// King-style indirect measurement: few probes, heavy jitter, losses.
    pub fn king_style() -> Self {
        MeasurementParams {
            probes: 4,
            jitter_frac: 0.35,
            floor_jitter_ms: 0.5,
            loss_prob: 0.02,
        }
    }
}

impl Default for MeasurementParams {
    fn default() -> Self {
        MeasurementParams::nlanr_style()
    }
}

/// One measured RTT: `Some(ms)` or `None` when all probes were lost.
pub type Measured = Option<f64>;

/// Measures a single pair: min over `probes` of `base + Exp(jitter)`.
pub fn measure_rtt(base_ms: f64, params: &MeasurementParams, rng: &mut StdRng) -> Measured {
    if params.loss_prob > 0.0 && rng.gen_bool(params.loss_prob.min(1.0)) {
        return None;
    }
    let mut best = f64::INFINITY;
    for _ in 0..params.probes.max(1) {
        let queueing = exp_sample(params.jitter_frac * base_ms, rng);
        let floor = rng.gen_range(0.0..=params.floor_jitter_ms.max(f64::MIN_POSITIVE));
        let sample = base_ms + queueing + floor;
        if sample < best {
            best = sample;
        }
    }
    Some(best)
}

/// Measures a rectangular matrix of RTTs from `rows` hosts to `cols` hosts
/// (for AGNP-style asymmetric data sets the two host sets differ).
///
/// Returns `(matrix, mask)` where `mask[(r, c)] == 1.0` marks an observed
/// entry; lost entries are `0.0` in both, and a host against itself is an
/// observed zero. Entries are **one-way-pair** measurements of
/// `rtt(row, col)`; if the same pair appears transposed in another call,
/// jitter makes the two measurements differ, which is one of the sources
/// of observed asymmetry in real data.
pub fn measure_submatrix(
    topo: &TransitStubTopology,
    rows: &[usize],
    cols: &[usize],
    params: &MeasurementParams,
    rng: &mut StdRng,
) -> (Matrix, Matrix) {
    let mut d = Matrix::zeros(rows.len(), cols.len());
    let mut mask = Matrix::zeros(rows.len(), cols.len());
    for (ri, &i) in rows.iter().enumerate() {
        for (cj, &j) in cols.iter().enumerate() {
            if i == j {
                mask[(ri, cj)] = 1.0;
                continue;
            }
            if let Some(v) = measure_rtt(topo.host_rtt(i, j), params, rng) {
                d[(ri, cj)] = v;
                mask[(ri, cj)] = 1.0;
            }
        }
    }
    (d, mask)
}

/// Draws an exponential sample with the given mean (0 if mean <= 0).
fn exp_sample(mean: f64, rng: &mut StdRng) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TransitStubParams;
    use rand::SeedableRng;

    fn topo() -> TransitStubTopology {
        let params = TransitStubParams {
            hosts: 30,
            stubs: 8,
            ..TransitStubParams::default()
        };
        TransitStubTopology::generate(&params, &mut StdRng::seed_from_u64(5))
    }

    #[test]
    fn measured_rtt_at_least_base() {
        let mut rng = StdRng::seed_from_u64(0);
        let p = MeasurementParams::default();
        for base in [1.0, 10.0, 100.0] {
            for _ in 0..100 {
                let m = measure_rtt(base, &p, &mut rng).unwrap();
                assert!(m >= base, "measured {m} below base {base}");
            }
        }
    }

    #[test]
    fn more_probes_tighter_estimate() {
        let mut rng = StdRng::seed_from_u64(1);
        let few = MeasurementParams {
            probes: 1,
            loss_prob: 0.0,
            ..MeasurementParams::king_style()
        };
        let many = MeasurementParams {
            probes: 50,
            loss_prob: 0.0,
            ..MeasurementParams::king_style()
        };
        let base = 50.0;
        let avg = |p: &MeasurementParams, rng: &mut StdRng| -> f64 {
            (0..200)
                .map(|_| measure_rtt(base, p, rng).unwrap())
                .sum::<f64>()
                / 200.0
        };
        let few_avg = avg(&few, &mut rng);
        let many_avg = avg(&many, &mut rng);
        assert!(
            many_avg < few_avg,
            "min-of-50 {many_avg} not below min-of-1 {few_avg}"
        );
        assert!(
            many_avg - base < 0.1 * base,
            "min filter should approach base"
        );
    }

    #[test]
    fn loss_produces_missing_entries() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = MeasurementParams {
            loss_prob: 0.5,
            ..MeasurementParams::default()
        };
        let lost = (0..1000)
            .filter(|_| measure_rtt(10.0, &p, &mut rng).is_none())
            .count();
        assert!((350..650).contains(&lost), "lost {lost}/1000 at p=0.5");
    }

    #[test]
    fn matrix_mask_consistency() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(3);
        let p = MeasurementParams {
            loss_prob: 0.1,
            ..MeasurementParams::king_style()
        };
        let n = t.host_count();
        let all: Vec<usize> = (0..n).collect();
        let (d, mask) = measure_submatrix(&t, &all, &all, &p, &mut rng);
        assert_eq!(d.shape(), (n, n));
        let mut missing = 0;
        for i in 0..n {
            assert_eq!(mask[(i, i)], 1.0);
            assert_eq!(d[(i, i)], 0.0);
            for j in 0..n {
                if mask[(i, j)] == 0.0 {
                    missing += 1;
                    assert_eq!(d[(i, j)], 0.0, "missing entry must be zero");
                } else if i != j {
                    assert!(d[(i, j)] > 0.0);
                }
            }
        }
        assert!(missing > 0, "expected some missing entries at 10% loss");
    }

    #[test]
    fn submatrix_shapes() {
        let t = topo();
        let mut rng = StdRng::seed_from_u64(4);
        let rows: Vec<usize> = (0..10).collect();
        let cols: Vec<usize> = (10..15).collect();
        let (d, mask) =
            measure_submatrix(&t, &rows, &cols, &MeasurementParams::default(), &mut rng);
        assert_eq!(d.shape(), (10, 5));
        assert_eq!(mask.shape(), (10, 5));
        for i in 0..10 {
            for j in 0..5 {
                assert_eq!(mask[(i, j)], 1.0);
                assert!(d[(i, j)] > 0.0);
            }
        }
    }

    #[test]
    fn zero_jitter_reproduces_base() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = MeasurementParams {
            probes: 1,
            jitter_frac: 0.0,
            floor_jitter_ms: 0.0,
            loss_prob: 0.0,
        };
        let m = measure_rtt(42.0, &p, &mut rng).unwrap();
        assert!((m - 42.0).abs() < 1e-9);
    }
}

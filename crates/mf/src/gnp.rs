//! GNP baseline (Ng & Zhang): Euclidean embedding fit by Simplex Downhill.
//!
//! GNP minimizes the sum of *relative* errors (Eq. 3 of the paper):
//! `Σ |D_ij − D̂_ij| / D_ij`. Landmark coordinates are fit jointly; each
//! ordinary host is then fit independently against the landmark positions.
//! The paper's Table 1 shows this is orders of magnitude slower than
//! IDES/ICS — a property this implementation faithfully reproduces by
//! using the same optimizer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;

use crate::error::{MfError, Result};
use crate::model::DistanceEstimator;
use crate::optimizer::{nelder_mead, NelderMeadOptions};

/// Configuration for the GNP fit.
#[derive(Debug, Clone, Copy)]
pub struct GnpConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Objective-evaluation budget for the joint landmark fit (split over
    /// the restarts).
    pub landmark_evals: usize,
    /// Random restarts of the joint landmark fit (GNP keeps the best of
    /// several Simplex Downhill runs).
    pub restarts: usize,
    /// Objective-evaluation budget per ordinary host fit.
    pub host_evals: usize,
    /// RNG seed for coordinate initialization.
    pub seed: u64,
}

impl GnpConfig {
    /// Defaults sized like the original GNP software's settings.
    pub fn new(dim: usize) -> Self {
        GnpConfig {
            dim,
            landmark_evals: 120_000,
            restarts: 4,
            host_evals: 4_000,
            seed: 42,
        }
    }
}

/// A fitted GNP model over the landmark set.
#[derive(Debug, Clone)]
pub struct GnpModel {
    /// Landmark coordinates, `m x d`.
    landmarks: Matrix,
    dim: usize,
    /// The configuration the landmarks were fit with; reused as the default
    /// for batched host fits ([`GnpModel::fit_hosts`] / [`BatchEmbed`]).
    config: GnpConfig,
}

impl GnpModel {
    /// Fits landmark coordinates from the (square, fully observed)
    /// landmark-to-landmark distance matrix by joint Simplex Downhill on
    /// the summed relative error.
    pub fn fit_landmarks(data: &DistanceMatrix, config: GnpConfig) -> Result<Self> {
        if !data.is_square() {
            return Err(MfError::InvalidInput(
                "GNP landmark matrix must be square".into(),
            ));
        }
        if !data.is_complete() {
            return Err(MfError::InvalidInput(
                "GNP cannot handle missing entries".into(),
            ));
        }
        let m = data.rows();
        if m < 2 || config.dim == 0 {
            return Err(MfError::InvalidInput(
                "need >= 2 landmarks and dim >= 1".into(),
            ));
        }
        let d = config.dim;
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Initialize coordinates at the scale of the measured distances.
        let spread = data.mean_distance().max(1.0);

        let values = data.values().clone();
        let objective = |coords: &[f64]| -> f64 {
            let mut total = 0.0;
            for i in 0..m {
                for j in (i + 1)..m {
                    let dij = values[(i, j)];
                    if dij <= 0.0 {
                        continue;
                    }
                    let est = euclid(&coords[i * d..(i + 1) * d], &coords[j * d..(j + 1) * d]);
                    total += (dij - est).abs() / dij;
                }
            }
            total
        };

        // Best-of-restarts, then a polishing run from the winner with a
        // fresh (smaller) simplex — plain Nelder–Mead stalls in high
        // dimension when the simplex collapses, and a restart recovers it.
        let restarts = config.restarts.max(1);
        let budget = (config.landmark_evals / (restarts + 1)).max(1_000);
        let mut best: Option<(Vec<f64>, f64)> = None;
        for _ in 0..restarts {
            let x0: Vec<f64> = (0..m * d).map(|_| rng.gen_range(-spread..spread)).collect();
            let r = nelder_mead(
                objective,
                &x0,
                NelderMeadOptions {
                    max_evals: budget,
                    f_tolerance: 1e-8,
                    initial_step: spread * 0.25,
                },
            );
            if best.as_ref().is_none_or(|(_, f)| r.fx < *f) {
                best = Some((r.x, r.fx));
            }
        }
        let (start, _) = best.expect("at least one restart ran");
        let polished = nelder_mead(
            objective,
            &start,
            NelderMeadOptions {
                max_evals: budget,
                f_tolerance: 1e-9,
                initial_step: spread * 0.05,
            },
        );
        let landmarks = Matrix::from_vec(m, d, polished.x)?;
        Ok(GnpModel {
            landmarks,
            dim: d,
            config,
        })
    }

    /// The configuration the landmark fit ran with.
    pub fn config(&self) -> GnpConfig {
        self.config
    }

    /// Fits the coordinates of a whole **batch** of ordinary hosts: row `h`
    /// of `rows` holds host `h`'s measured distances to the landmarks, and
    /// `seeds[h]` seeds its simplex initialization (the evaluation harness
    /// passes the host's global id, keeping results independent of batch
    /// composition). Returns the `hosts x d` coordinate matrix.
    ///
    /// Each host's Simplex Downhill fit is independent, so this is the
    /// shard-friendly GNP counterpart of the GEMM-backed IDES batch join:
    /// no cross-host factorization exists to share, but the batch entry
    /// point lets the sharded evaluation driver treat all three systems
    /// uniformly.
    pub fn fit_hosts(&self, rows: &Matrix, config: GnpConfig, seeds: &[u64]) -> Result<Matrix> {
        if seeds.len() != rows.rows() {
            return Err(MfError::InvalidInput(format!(
                "expected one seed per host: {} hosts, {} seeds",
                rows.rows(),
                seeds.len()
            )));
        }
        let mut coords = Matrix::zeros(rows.rows(), self.dim);
        for (h, &seed) in seeds.iter().enumerate() {
            let x = self.fit_host(rows.row(h), config, seed)?;
            coords.row_mut(h).copy_from_slice(&x);
        }
        Ok(coords)
    }

    /// Fits the coordinates of one ordinary host from its measured
    /// distances to the landmarks (the per-host phase of GNP).
    pub fn fit_host(
        &self,
        distances_to_landmarks: &[f64],
        config: GnpConfig,
        host_seed: u64,
    ) -> Result<Vec<f64>> {
        let m = self.landmarks.rows();
        if distances_to_landmarks.len() != m {
            return Err(MfError::InvalidInput(format!(
                "expected {m} landmark distances, got {}",
                distances_to_landmarks.len()
            )));
        }
        let d = self.dim;
        let mut rng =
            StdRng::seed_from_u64(config.seed ^ host_seed.wrapping_mul(0x9E3779B97F4A7C15));
        // Start at the centroid of the landmarks plus noise — standard GNP.
        let mut x0 = vec![0.0; d];
        for i in 0..m {
            for (k, x) in x0.iter_mut().enumerate() {
                *x += self.landmarks[(i, k)] / m as f64;
            }
        }
        let spread = distances_to_landmarks
            .iter()
            .copied()
            .fold(0.0_f64, f64::max)
            .max(1.0);
        for x in &mut x0 {
            *x += rng.gen_range(-0.1 * spread..0.1 * spread);
        }
        let landmarks = &self.landmarks;
        let objective = |coords: &[f64]| -> f64 {
            let mut total = 0.0;
            for (i, &dij) in distances_to_landmarks.iter().enumerate() {
                if dij <= 0.0 {
                    continue;
                }
                let est = euclid(coords, landmarks.row(i));
                total += (dij - est).abs() / dij;
            }
            total
        };
        let first = nelder_mead(
            objective,
            &x0,
            NelderMeadOptions {
                max_evals: config.host_evals / 2,
                f_tolerance: 1e-9,
                initial_step: spread * 0.2,
            },
        );
        // Polish with a fresh simplex around the found optimum.
        let polished = nelder_mead(
            objective,
            &first.x,
            NelderMeadOptions {
                max_evals: config.host_evals / 2,
                f_tolerance: 1e-10,
                initial_step: spread * 0.03,
            },
        );
        Ok(if polished.fx < first.fx {
            polished.x
        } else {
            first.x
        })
    }

    /// Landmark coordinate matrix (`m x d`).
    pub fn landmarks(&self) -> &Matrix {
        &self.landmarks
    }

    /// Distance between two coordinate vectors.
    pub fn distance(a: &[f64], b: &[f64]) -> f64 {
        euclid(a, b)
    }
}

impl crate::model::BatchEmbed for GnpModel {
    /// Stochastic embedder: `ids[h]` seeds host `h`'s simplex restart, using
    /// the configuration stored at landmark-fit time.
    fn embed_batch(&self, rows: &Matrix, ids: &[u64]) -> Result<Matrix> {
        self.fit_hosts(rows, self.config, ids)
    }
}

impl DistanceEstimator for GnpModel {
    fn estimate(&self, i: usize, j: usize) -> f64 {
        euclid(self.landmarks.row(i), self.landmarks.row(j))
    }
    fn n_from(&self) -> usize {
        self.landmarks.rows()
    }
    fn n_to(&self) -> usize {
        self.landmarks.rows()
    }
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn euclidean_dataset(n: usize) -> (DistanceMatrix, Vec<(f64, f64)>) {
        let coords: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                (
                    ((i * 13) % 7) as f64 * 12.0,
                    ((i * 5) % 9) as f64 * 8.0 + 1.0,
                )
            })
            .collect();
        let values = Matrix::from_fn(n, n, |i, j| {
            let (xi, yi) = coords[i];
            let (xj, yj) = coords[j];
            ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()
        });
        (DistanceMatrix::full("euclid", values).unwrap(), coords)
    }

    #[test]
    fn fits_euclidean_landmarks_well() {
        let (data, _) = euclidean_dataset(8);
        let model = GnpModel::fit_landmarks(&data, GnpConfig::new(2)).unwrap();
        let mut total_rel = 0.0;
        let mut pairs = 0;
        for i in 0..8 {
            for j in (i + 1)..8 {
                let actual = data.get(i, j).unwrap();
                let est = model.estimate(i, j);
                total_rel += (actual - est).abs() / actual;
                pairs += 1;
            }
        }
        let mean_rel = total_rel / pairs as f64;
        assert!(mean_rel < 0.15, "mean relative error {mean_rel}");
    }

    #[test]
    fn host_fit_places_known_point() {
        let (data, _) = euclidean_dataset(8);
        let model = GnpModel::fit_landmarks(&data, GnpConfig::new(2)).unwrap();
        // A "new" host coincident with landmark 3: distances are row 3.
        let row: Vec<f64> = (0..8).map(|j| data.get(3, j).unwrap()).collect();
        let coords = model.fit_host(&row, GnpConfig::new(2), 3).unwrap();
        // The host fit should land near landmark 3's own embedded position:
        // its distance estimates to the other landmarks must roughly match
        // the model's own estimates from landmark 3.
        let mut total_rel = 0.0;
        let mut count = 0;
        for l in 0..8 {
            if l == 3 {
                continue;
            }
            let host_est = euclid(&coords, model.landmarks().row(l));
            let own_est = model.estimate(3, l);
            if own_est > 1e-9 {
                total_rel += (host_est - own_est).abs() / own_est;
                count += 1;
            }
        }
        let mean_rel = total_rel / count as f64;
        assert!(
            mean_rel < 0.2,
            "host fit deviates from landmark-3 embedding by {mean_rel}"
        );
    }

    #[test]
    fn host_fit_validates_input_length() {
        let (data, _) = euclidean_dataset(5);
        let model = GnpModel::fit_landmarks(&data, GnpConfig::new(2)).unwrap();
        assert!(model.fit_host(&[1.0, 2.0], GnpConfig::new(2), 0).is_err());
    }

    #[test]
    fn fit_hosts_matches_per_host_fits_bitwise() {
        let (data, _) = euclidean_dataset(6);
        let cfg = GnpConfig {
            landmark_evals: 6_000,
            host_evals: 800,
            ..GnpConfig::new(2)
        };
        let model = GnpModel::fit_landmarks(&data, cfg).unwrap();
        let rows = Matrix::from_fn(3, 6, |h, j| data.get(h + 1, j).unwrap().max(0.1));
        let seeds = [11u64, 7, 42];
        let batch = model.fit_hosts(&rows, cfg, &seeds).unwrap();
        for h in 0..3 {
            let single = model.fit_host(rows.row(h), cfg, seeds[h]).unwrap();
            for j in 0..2 {
                assert_eq!(batch[(h, j)].to_bits(), single[j].to_bits());
            }
        }
        // Seed-count mismatch rejected.
        assert!(model.fit_hosts(&rows, cfg, &seeds[..2]).is_err());
        // The stored config round-trips.
        assert_eq!(model.config().host_evals, 800);
    }

    #[test]
    fn rejects_incomplete_or_rectangular() {
        let rect = DistanceMatrix::full("r", Matrix::zeros(2, 3)).unwrap();
        assert!(GnpModel::fit_landmarks(&rect, GnpConfig::new(2)).is_err());
        let values = Matrix::zeros(3, 3);
        let mut mask = Matrix::filled(3, 3, 1.0);
        mask[(0, 1)] = 0.0;
        let incomplete = DistanceMatrix::with_mask("i", values, mask).unwrap();
        assert!(GnpModel::fit_landmarks(&incomplete, GnpConfig::new(2)).is_err());
    }

    #[test]
    fn embedding_cannot_capture_asymmetry() {
        // Structural check: whatever GNP produces is symmetric, unlike the
        // factor model — this is §2.2's limitation.
        let ds = ides_datasets::generators::gnp_like(10, 5).unwrap();
        let model = GnpModel::fit_landmarks(
            &ds.matrix,
            GnpConfig {
                landmark_evals: 5_000,
                ..GnpConfig::new(3)
            },
        )
        .unwrap();
        for i in 0..10 {
            for j in 0..10 {
                assert_eq!(model.estimate(i, j), model.estimate(j, i));
            }
        }
    }
}

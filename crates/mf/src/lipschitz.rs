//! Lipschitz embedding + PCA baseline (ICS \[12\] / Virtual Landmark \[20\]).
//!
//! Each host is first embedded by its vector of distances to the landmark
//! set (the Lipschitz embedding), then projected to `d` dimensions by PCA,
//! and finally calibrated by a scalar linear normalization so that
//! Euclidean distances in the projected space match the measured distances
//! in scale. The paper's Figure 3 shows this baseline is ~5× less accurate
//! than SVD/NMF at d = 10.

use ides_datasets::DistanceMatrix;
use ides_linalg::pca::{self, Pca};
use ides_linalg::Matrix;

use crate::error::{MfError, Result};
use crate::model::{DistanceEstimator, EuclideanModel};

/// A fitted Lipschitz+PCA model: PCA projection plus linear calibration.
#[derive(Debug, Clone)]
pub struct LipschitzPca {
    projection: Pca,
    /// Scalar calibration applied to projected Euclidean distances.
    scale: f64,
    /// Calibrated host coordinates.
    model: EuclideanModel,
}

impl LipschitzPca {
    /// Fits the model on a fully observed square distance matrix, using all
    /// hosts as Lipschitz landmarks (the reconstruction setting of Fig. 3).
    pub fn fit(data: &DistanceMatrix, dim: usize) -> Result<Self> {
        if !data.is_square() {
            return Err(MfError::InvalidInput(
                "Lipschitz embedding needs a square matrix".into(),
            ));
        }
        if !data.is_complete() {
            return Err(MfError::InvalidInput(
                "Lipschitz+PCA cannot handle missing entries; filter first".into(),
            ));
        }
        Self::fit_landmarks(data, dim)
    }

    /// Fits using the rows of `data` as hosts and columns as landmarks
    /// (`data` may be rectangular: `n x m` distances-to-landmarks).
    pub fn fit_landmarks(data: &DistanceMatrix, dim: usize) -> Result<Self> {
        if data.rows() == 0 || data.cols() == 0 {
            return Err(MfError::InvalidInput("empty matrix".into()));
        }
        if dim == 0 {
            return Err(MfError::InvalidInput("dimension must be at least 1".into()));
        }
        let lipschitz = data.values();
        let projection = pca::fit(lipschitz, dim.min(data.cols()))?;
        let coords = projection.transform(lipschitz)?;
        // Linear normalization: find α minimizing Σ (D_ij − α e_ij)² over
        // observed pairs, where e_ij are raw projected distances. Only
        // meaningful for square (host × host) data; for rectangular input
        // calibrate on the landmark columns that are also rows, else skip.
        let raw = EuclideanModel::new(coords);
        let scale = if data.is_square() {
            calibrate(&raw, data)
        } else {
            1.0
        };
        let calibrated = EuclideanModel::new(raw.coords().scale(scale));
        Ok(LipschitzPca {
            projection,
            scale,
            model: calibrated,
        })
    }

    /// The calibrated Euclidean model over the training hosts.
    pub fn model(&self) -> &EuclideanModel {
        &self.model
    }

    /// Calibration factor α.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Embeds a *new* host from its Lipschitz vector (distances to the same
    /// landmark set used in training), returning calibrated coordinates.
    pub fn embed(&self, distances_to_landmarks: &[f64]) -> Result<Vec<f64>> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.embed_into(distances_to_landmarks, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`LipschitzPca::embed`]: writes the
    /// calibrated coordinates into `out` (resized to the model dimension),
    /// reusing both buffers' capacity across calls.
    pub fn embed_into(
        &self,
        distances_to_landmarks: &[f64],
        scratch: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        out.clear();
        out.resize(self.projection.dim(), 0.0);
        self.projection
            .transform_row_into(distances_to_landmarks, scratch, out)?;
        for c in out.iter_mut() {
            *c *= self.scale;
        }
        Ok(())
    }

    /// Embeds a whole **batch** of new hosts at once: each row of `rows` is
    /// one host's Lipschitz vector, and row `h` of the result holds that
    /// host's calibrated coordinates.
    ///
    /// The projection of the entire batch is a single `hosts x m` by
    /// `m x d` GEMM on the blocked kernel layer, so embedding many hosts
    /// costs one matrix product instead of per-host matrix-vector products.
    /// Rows are embedded independently, so sharding a batch cannot change
    /// any host's coordinates.
    pub fn embed_batch(&self, rows: &Matrix) -> Result<Matrix> {
        let mut coords = self.projection.transform(rows)?;
        coords.map_inplace(|c| c * self.scale);
        Ok(coords)
    }

    /// Estimated distance between two embedded coordinate vectors.
    pub fn distance(a: &[f64], b: &[f64]) -> f64 {
        EuclideanModel::distance(a, b)
    }

    /// Truncates a fitted model to its leading `d` principal components,
    /// recalibrating the scale on `data`.
    ///
    /// PCA components nest (the d-dimensional projection is the first `d`
    /// coordinates of the wider one), so a dimension sweep can fit once at
    /// the maximum dimension and truncate — identical results to refitting
    /// at each `d`, at a fraction of the cost.
    pub fn truncate(&self, data: &DistanceMatrix, d: usize) -> Result<Self> {
        let d = d.min(self.model.dim());
        if d == 0 {
            return Err(MfError::InvalidInput("dimension must be at least 1".into()));
        }
        let cols: Vec<usize> = (0..d).collect();
        // Undo the previous calibration before re-estimating it.
        let raw_coords = self
            .model
            .coords()
            .select_cols(&cols)
            .scale(1.0 / self.scale);
        let raw = EuclideanModel::new(raw_coords);
        let scale = if data.is_square() {
            calibrate(&raw, data)
        } else {
            1.0
        };
        let projection = Pca {
            mean: self.projection.mean.clone(),
            components: self.projection.components.select_cols(&cols),
            explained_variance: self.projection.explained_variance[..d].to_vec(),
        };
        Ok(LipschitzPca {
            projection,
            scale,
            model: EuclideanModel::new(raw.coords().scale(scale)),
        })
    }
}

impl crate::model::BatchEmbed for LipschitzPca {
    /// Deterministic embedder: `ids` are ignored.
    fn embed_batch(&self, rows: &Matrix, _ids: &[u64]) -> Result<Matrix> {
        LipschitzPca::embed_batch(self, rows)
    }
}

impl DistanceEstimator for LipschitzPca {
    fn estimate(&self, i: usize, j: usize) -> f64 {
        self.model.estimate(i, j)
    }
    fn n_from(&self) -> usize {
        self.model.n_from()
    }
    fn n_to(&self) -> usize {
        self.model.n_to()
    }
}

/// Least-squares scalar fit: α = Σ D e / Σ e² over off-diagonal pairs.
fn calibrate(raw: &EuclideanModel, data: &DistanceMatrix) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, j, d) in data.observed_entries() {
        if i == j {
            continue;
        }
        let e = raw.estimate(i, j);
        num += d * e;
        den += e * e;
    }
    if den > 0.0 {
        num / den
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{reconstruction_errors, Cdf};
    use crate::svd_model::{self, SvdConfig};

    fn euclidean_dataset(n: usize) -> DistanceMatrix {
        // Points on a 2-D grid: distances are exactly Euclidean, so
        // Lipschitz+PCA (d>=2) should reconstruct them very well.
        let coords: Vec<(f64, f64)> = (0..n)
            .map(|i| ((i % 5) as f64 * 10.0, (i / 5) as f64 * 10.0))
            .collect();
        let values = Matrix::from_fn(n, n, |i, j| {
            let (xi, yi) = coords[i];
            let (xj, yj) = coords[j];
            ((xi - xj).powi(2) + (yi - yj).powi(2)).sqrt()
        });
        DistanceMatrix::full("euclid", values).unwrap()
    }

    #[test]
    fn reconstructs_euclidean_data_reasonably() {
        // Lipschitz rows are not an isometry even for perfectly Euclidean
        // data (only a contraction), so we expect decent-but-imperfect
        // reconstruction — exactly the weakness the paper exploits.
        let data = euclidean_dataset(20);
        let model = LipschitzPca::fit(&data, 4).unwrap();
        let errs = reconstruction_errors(&model, &data);
        let cdf = Cdf::new(errs);
        assert!(cdf.median() < 0.15, "median error {}", cdf.median());
    }

    #[test]
    fn calibration_fixes_scale() {
        let data = euclidean_dataset(15);
        let model = LipschitzPca::fit(&data, 3).unwrap();
        // Average predicted / actual ratio near 1 after calibration.
        let mut ratio_sum = 0.0;
        let mut count = 0;
        for (i, j, d) in data.observed_entries() {
            if i != j && d > 0.0 {
                ratio_sum += model.estimate(i, j) / d;
                count += 1;
            }
        }
        let mean_ratio = ratio_sum / count as f64;
        assert!((mean_ratio - 1.0).abs() < 0.15, "mean ratio {mean_ratio}");
    }

    #[test]
    fn embed_new_host_consistent_with_training() {
        let data = euclidean_dataset(12);
        let model = LipschitzPca::fit(&data, 3).unwrap();
        // "New" host = training host 4's Lipschitz row: its embedding must
        // land on host 4's coordinates.
        let row: Vec<f64> = (0..12).map(|j| data.get(4, j).unwrap()).collect();
        let emb = model.embed(&row).unwrap();
        let train = model.model().coords().row(4);
        for (a, b) in emb.iter().zip(train.iter()) {
            assert!((a - b).abs() < 1e-9, "{emb:?} vs {train:?}");
        }
    }

    #[test]
    fn worse_than_svd_on_policy_routed_data() {
        // The paper's headline comparison (Fig. 3): on data with routing
        // violations, SVD reconstruction beats Lipschitz+PCA clearly.
        let ds = ides_datasets::generators::nlanr_like(50, 17).unwrap();
        let dim = 10;
        let svd = svd_model::fit(&ds.matrix, SvdConfig::new(dim)).unwrap();
        let lip = LipschitzPca::fit(&ds.matrix, dim).unwrap();
        let svd_med = Cdf::new(reconstruction_errors(&svd, &ds.matrix)).median();
        let lip_med = Cdf::new(reconstruction_errors(&lip, &ds.matrix)).median();
        assert!(
            svd_med < lip_med,
            "SVD median {svd_med} should beat Lipschitz {lip_med}"
        );
    }

    #[test]
    fn embed_batch_matches_per_host_embed() {
        let data = euclidean_dataset(14);
        let model = LipschitzPca::fit(&data, 3).unwrap();
        let rows = Matrix::from_fn(6, 14, |h, j| data.get(h + 2, j).unwrap() + 0.1 * h as f64);
        let batch = model.embed_batch(&rows).unwrap();
        assert_eq!(batch.shape(), (6, 3));
        for h in 0..6 {
            let single = model.embed(rows.row(h)).unwrap();
            for j in 0..3 {
                assert!(
                    (batch[(h, j)] - single[j]).abs() < 1e-10,
                    "host {h}: {:?} vs {single:?}",
                    batch.row(h)
                );
            }
        }
        // Shard independence: embedding a sub-batch reproduces the same rows
        // bit for bit.
        let sub = Matrix::from_fn(2, 14, |h, j| rows[(h + 3, j)]);
        let sub_batch = model.embed_batch(&sub).unwrap();
        for h in 0..2 {
            for j in 0..3 {
                assert_eq!(sub_batch[(h, j)].to_bits(), batch[(h + 3, j)].to_bits());
            }
        }
    }

    #[test]
    fn symmetric_estimates() {
        let ds = ides_datasets::generators::gnp_like(19, 2).unwrap();
        let lip = LipschitzPca::fit(&ds.matrix, 5).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                assert!((lip.estimate(i, j) - lip.estimate(j, i)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rejects_bad_input() {
        let rect = DistanceMatrix::full("r", Matrix::zeros(3, 4)).unwrap();
        assert!(LipschitzPca::fit(&rect, 2).is_err());
        let sq = euclidean_dataset(5);
        assert!(LipschitzPca::fit(&sq, 0).is_err());
    }

    #[test]
    fn truncate_matches_refit() {
        let ds = ides_datasets::generators::gnp_like(19, 8).unwrap();
        let wide = LipschitzPca::fit(&ds.matrix, 12).unwrap();
        for d in [2usize, 5, 8] {
            let truncated = wide.truncate(&ds.matrix, d).unwrap();
            let refit = LipschitzPca::fit(&ds.matrix, d).unwrap();
            for i in 0..5 {
                for j in 0..5 {
                    let a = truncated.estimate(i, j);
                    let b = refit.estimate(i, j);
                    // Eigenvector signs may flip but distances must agree.
                    assert!((a - b).abs() < 1e-6 * (1.0 + b), "d={d}: {a} vs {b}");
                }
            }
        }
        assert!(wide.truncate(&ds.matrix, 0).is_err());
    }

    #[test]
    fn rectangular_landmark_fit() {
        // 10 hosts x 4 landmarks rectangular input via fit_landmarks.
        let values = Matrix::from_fn(10, 4, |i, j| ((i + 1) * (j + 2)) as f64);
        let data = DistanceMatrix::full("rect", values).unwrap();
        let model = LipschitzPca::fit_landmarks(&data, 2).unwrap();
        assert_eq!(model.model().coords().shape(), (10, 2));
        assert_eq!(model.scale(), 1.0);
    }
}

//! Distance-model abstractions: the factorization model (`D̂ᵢⱼ = X_i · Y_j`)
//! and the Euclidean embedding model used by the baselines.

use serde::{Deserialize, Serialize};

use ides_linalg::Matrix;

use crate::error::{MfError, Result};

/// Anything that can estimate the distance from row-host `i` to
/// column-host `j`.
pub trait DistanceEstimator {
    /// Estimated distance from host `i` to host `j`.
    fn estimate(&self, i: usize, j: usize) -> f64;
    /// Number of "from" hosts the model covers.
    fn n_from(&self) -> usize;
    /// Number of "to" hosts the model covers.
    fn n_to(&self) -> usize;

    /// Materializes the full estimated matrix.
    fn estimate_matrix(&self) -> Matrix {
        Matrix::from_fn(self.n_from(), self.n_to(), |i, j| self.estimate(i, j))
    }
}

/// Models that can embed a whole **batch** of new hosts from their
/// measurement rows in one call — the estimator-level entry point the
/// sharded evaluation driver (`ides::eval`) uses so every system (IDES
/// joins, ICS PCA projection, GNP simplex fits) runs behind the same
/// gather → batch-embed → score pipeline.
///
/// `rows` holds one host per row (distances to the reference/landmark
/// set); the result has one coordinate row per host. `ids` are per-host
/// identifiers, parallel to the rows, that stochastic embedders (GNP) use
/// for deterministic seeding; deterministic embedders ignore them.
///
/// Implementations must be **per-row independent**: host `h`'s output row
/// may depend only on its input row (and the fitted model), never on the
/// rest of the batch, so that sharded and whole-batch embeddings are
/// bit-identical.
pub trait BatchEmbed {
    /// Embeds each measurement row into one coordinate row.
    fn embed_batch(&self, rows: &Matrix, ids: &[u64]) -> Result<Matrix>;
}

/// The paper's model (§3): each host carries an *outgoing* vector `X_i`
/// and an *incoming* vector `Y_j`; the estimated distance from `i` to `j`
/// is their dot product. Distances may be asymmetric
/// (`X_i·Y_j ≠ X_j·Y_i`) and need not satisfy the triangle inequality.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FactorModel {
    /// Outgoing vectors as rows, `N x d`.
    x: Matrix,
    /// Incoming vectors as rows, `N' x d`.
    y: Matrix,
}

impl FactorModel {
    /// Builds a model from outgoing (`N x d`) and incoming (`N' x d`)
    /// vector matrices. The column counts must agree.
    pub fn new(x: Matrix, y: Matrix) -> Result<Self> {
        if x.cols() != y.cols() {
            return Err(MfError::DimensionMismatch {
                x: x.shape(),
                y: y.shape(),
            });
        }
        Ok(FactorModel { x, y })
    }

    /// Model dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.x.cols()
    }

    /// The outgoing-vector matrix `X` (`N x d`).
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// The incoming-vector matrix `Y` (`N' x d`).
    pub fn y(&self) -> &Matrix {
        &self.y
    }

    /// Outgoing vector of host `i`.
    pub fn outgoing(&self, i: usize) -> &[f64] {
        self.x.row(i)
    }

    /// Incoming vector of host `j`.
    pub fn incoming(&self, j: usize) -> &[f64] {
        self.y.row(j)
    }

    /// Overwrites host `i`'s outgoing vector — how the streaming layer's
    /// absorb tier writes a re-solved landmark row into its new factors.
    pub fn set_outgoing(&mut self, i: usize, v: &[f64]) {
        self.x.row_mut(i).copy_from_slice(v);
    }

    /// Overwrites host `j`'s incoming vector; see
    /// [`FactorModel::set_outgoing`].
    pub fn set_incoming(&mut self, j: usize, v: &[f64]) {
        self.y.row_mut(j).copy_from_slice(v);
    }

    /// Reconstructed matrix `X Yᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        self.x
            .matmul_tr(&self.y)
            .expect("column counts checked at construction")
    }

    /// Estimates the distance between two *external* vector pairs (used by
    /// IDES for ordinary hosts that are not rows of the model).
    pub fn dot(out_vec: &[f64], in_vec: &[f64]) -> f64 {
        out_vec
            .iter()
            .zip(in_vec.iter())
            .map(|(&a, &b)| a * b)
            .sum()
    }
}

impl DistanceEstimator for FactorModel {
    fn estimate(&self, i: usize, j: usize) -> f64 {
        FactorModel::dot(self.x.row(i), self.y.row(j))
    }
    fn n_from(&self) -> usize {
        self.x.rows()
    }
    fn n_to(&self) -> usize {
        self.y.rows()
    }
}

/// A Euclidean network embedding (§2): one coordinate vector per host,
/// distances estimated by the Euclidean norm. Inherently symmetric and
/// triangle-inequality bound — the limitation the paper's model removes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EuclideanModel {
    coords: Matrix,
}

impl EuclideanModel {
    /// Builds a model from host coordinates (`N x d`).
    pub fn new(coords: Matrix) -> Self {
        EuclideanModel { coords }
    }

    /// Model dimensionality.
    pub fn dim(&self) -> usize {
        self.coords.cols()
    }

    /// Host coordinate rows.
    pub fn coords(&self) -> &Matrix {
        &self.coords
    }

    /// Euclidean distance between two coordinate vectors.
    pub fn distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }
}

impl DistanceEstimator for EuclideanModel {
    fn estimate(&self, i: usize, j: usize) -> f64 {
        EuclideanModel::distance(self.coords.row(i), self.coords.row(j))
    }
    fn n_from(&self) -> usize {
        self.coords.rows()
    }
    fn n_to(&self) -> usize {
        self.coords.rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_model_dot_product() {
        let x = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let m = FactorModel::new(x, y).unwrap();
        assert_eq!(m.estimate(0, 0), 17.0); // 1*5 + 2*6
        assert_eq!(m.estimate(0, 1), 23.0);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.n_from(), 2);
        assert_eq!(m.n_to(), 2);
    }

    #[test]
    fn factor_model_can_be_asymmetric() {
        let x = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        let y = Matrix::from_vec(2, 1, vec![3.0, 5.0]).unwrap();
        let m = FactorModel::new(x, y).unwrap();
        assert_ne!(m.estimate(0, 1), m.estimate(1, 0)); // 5 vs 6
    }

    #[test]
    fn factor_model_rejects_mismatched_dims() {
        let x = Matrix::zeros(2, 2);
        let y = Matrix::zeros(2, 3);
        assert!(FactorModel::new(x, y).is_err());
    }

    #[test]
    fn reconstruct_matches_estimates() {
        let x = Matrix::from_fn(3, 2, |i, j| (i + j) as f64);
        let y = Matrix::from_fn(4, 2, |i, j| (2 * i + j) as f64 * 0.5);
        let m = FactorModel::new(x, y).unwrap();
        let r = m.reconstruct();
        assert_eq!(r.shape(), (3, 4));
        for i in 0..3 {
            for j in 0..4 {
                assert!((r[(i, j)] - m.estimate(i, j)).abs() < 1e-14);
            }
        }
        assert_eq!(r, m.estimate_matrix());
    }

    #[test]
    fn euclidean_model_symmetric_and_triangle() {
        let coords = Matrix::from_vec(3, 2, vec![0.0, 0.0, 3.0, 4.0, 6.0, 8.0]).unwrap();
        let m = EuclideanModel::new(coords);
        assert_eq!(m.estimate(0, 1), 5.0);
        assert_eq!(m.estimate(1, 0), 5.0);
        assert_eq!(m.estimate(0, 0), 0.0);
        // Triangle inequality is inherent.
        assert!(m.estimate(0, 2) <= m.estimate(0, 1) + m.estimate(1, 2) + 1e-12);
        assert_eq!(m.dim(), 2);
    }

    #[test]
    fn outgoing_incoming_accessors() {
        let x = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]).unwrap();
        let y = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]).unwrap();
        let m = FactorModel::new(x, y).unwrap();
        assert_eq!(m.outgoing(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.incoming(0), &[4.0, 5.0, 6.0]);
        assert_eq!(FactorModel::dot(m.outgoing(0), m.incoming(0)), 32.0);
    }
}

//! The IDES system (§5.1): landmark set, information server, host joins.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;
use ides_mf::nmf::{self, NmfConfig};
use ides_mf::svd_model::{self, SvdConfig};
use ides_mf::{DistanceEstimator, FactorModel};

use crate::error::{IdesError, Result};
use crate::projection::{
    join_host, join_host_subset_with, join_hosts_into, join_hosts_with, BatchHostVectors,
    HostVectors, JoinOptions, JoinSolver, JoinWorkspace,
};

/// Which factorization algorithm the information server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Singular value decomposition (global optimum; complete data only).
    Svd,
    /// Nonnegative matrix factorization (local optimum; handles missing
    /// entries; guarantees nonnegative reconstructions).
    Nmf,
}

/// IDES configuration.
#[derive(Debug, Clone, Copy)]
pub struct IdesConfig {
    /// Model dimensionality `d` (paper: `d ≈ 10` is the sweet spot, `d = 8`
    /// in the prediction experiments).
    pub dim: usize,
    /// Factorization algorithm.
    pub algorithm: Algorithm,
    /// Options for ordinary-host joins.
    pub join: JoinOptions,
    /// Seed for NMF initialization.
    pub seed: u64,
}

impl IdesConfig {
    /// Defaults matching the paper's prediction experiments (d = 8, SVD).
    pub fn new(dim: usize) -> Self {
        IdesConfig {
            dim,
            algorithm: Algorithm::Svd,
            join: JoinOptions::default(),
            seed: 20041025,
        }
    }

    /// Same but with NMF as the factorizer.
    pub fn nmf(dim: usize) -> Self {
        IdesConfig {
            algorithm: Algorithm::Nmf,
            ..IdesConfig::new(dim)
        }
    }
}

/// The information server: holds the factored landmark model and answers
/// vector queries / join requests.
#[derive(Debug, Clone)]
pub struct InformationServer {
    model: FactorModel,
    config: IdesConfig,
}

impl InformationServer {
    /// Builds the server from the measured landmark-to-landmark matrix.
    ///
    /// SVD requires a complete matrix; NMF accepts missing entries (the
    /// masked updates of Eqs. 8–9).
    pub fn build(landmark_matrix: &DistanceMatrix, config: IdesConfig) -> Result<Self> {
        validate_landmark_dims(landmark_matrix.rows(), landmark_matrix.cols(), config.dim)?;
        let model = match config.algorithm {
            Algorithm::Svd => svd_model::fit(landmark_matrix, SvdConfig::new(config.dim))?,
            Algorithm::Nmf => {
                let cfg = NmfConfig {
                    seed: config.seed,
                    ..NmfConfig::new(config.dim)
                };
                nmf::fit(landmark_matrix, cfg)?.model
            }
        };
        Ok(InformationServer { model, config })
    }

    /// Number of landmarks.
    pub fn landmark_count(&self) -> usize {
        self.model.n_from()
    }

    /// Model dimensionality.
    pub fn dim(&self) -> usize {
        self.model.dim()
    }

    /// The landmark factor model (outgoing/incoming vectors).
    pub fn model(&self) -> &FactorModel {
        &self.model
    }

    /// Landmark `i`'s vectors as a [`HostVectors`] (for the relaxed
    /// architecture where landmarks and joined hosts are interchangeable).
    pub fn landmark_vectors(&self, i: usize) -> HostVectors {
        HostVectors {
            outgoing: self.model.outgoing(i).to_vec(),
            incoming: self.model.incoming(i).to_vec(),
        }
    }

    /// Joins an ordinary host from its measured distances to (`d_out`) and
    /// from (`d_in`) **all** landmarks — the basic architecture (Eqs. 13–14).
    pub fn join(&self, d_out: &[f64], d_in: &[f64]) -> Result<HostVectors> {
        join_host(
            self.model.x(),
            self.model.y(),
            d_out,
            d_in,
            self.config.join,
        )
    }

    /// Joins a whole batch of ordinary hosts in one shot: row `h` of
    /// `d_out`/`d_in` holds host `h`'s measured distances to/from **all**
    /// landmarks. One factorization of the landmark system serves the
    /// entire batch (see [`crate::projection::join_hosts_with`]); results
    /// are bit-identical to per-host [`InformationServer::join`] calls.
    pub fn join_batch(&self, d_out: &Matrix, d_in: &Matrix) -> Result<Vec<HostVectors>> {
        let mut ws = JoinWorkspace::new();
        self.join_batch_with(&mut ws, d_out, d_in)
    }

    /// [`InformationServer::join_batch`] with caller-provided workspace.
    pub fn join_batch_with(
        &self,
        ws: &mut JoinWorkspace,
        d_out: &Matrix,
        d_in: &Matrix,
    ) -> Result<Vec<HostVectors>> {
        join_hosts_with(
            ws,
            self.model.x(),
            self.model.y(),
            d_out,
            d_in,
            self.config.join,
        )
    }

    /// [`InformationServer::join_batch`] writing into a caller-owned
    /// [`BatchHostVectors`] — the zero-allocation variant the sharded
    /// evaluation sweeps drive.
    pub fn join_batch_into(
        &self,
        ws: &mut JoinWorkspace,
        d_out: &Matrix,
        d_in: &Matrix,
        out: &mut BatchHostVectors,
    ) -> Result<()> {
        join_hosts_into(
            ws,
            self.model.x(),
            self.model.y(),
            d_out,
            d_in,
            self.config.join,
            out,
        )
    }

    /// Joins a host that only observed the landmark subset `observed`
    /// (indices into the landmark set); `d_out`/`d_in` are parallel to
    /// `observed`. Robustness path of §6.2.
    pub fn join_partial(
        &self,
        observed: &[usize],
        d_out: &[f64],
        d_in: &[f64],
    ) -> Result<HostVectors> {
        let mut ws = JoinWorkspace::new();
        self.join_partial_with(&mut ws, observed, d_out, d_in)
    }

    /// [`InformationServer::join_partial`] with caller-provided workspace:
    /// the observed landmark rows are gathered into reusable buffers
    /// instead of cloned into fresh submatrices on every join.
    pub fn join_partial_with(
        &self,
        ws: &mut JoinWorkspace,
        observed: &[usize],
        d_out: &[f64],
        d_in: &[f64],
    ) -> Result<HostVectors> {
        join_host_subset_with(
            ws,
            self.model.x(),
            self.model.y(),
            observed,
            d_out,
            d_in,
            self.config.join,
        )
    }

    /// Joins a host through arbitrary reference nodes (landmarks *or*
    /// previously joined hosts) — the relaxed architecture (Eqs. 15–16).
    pub fn join_via_references(
        &self,
        references: &[HostVectors],
        d_out: &[f64],
        d_in: &[f64],
    ) -> Result<HostVectors> {
        if references.is_empty() {
            return Err(IdesError::TooFewObservations {
                observed: 0,
                needed: self.dim(),
            });
        }
        let d = references[0].outgoing.len();
        for r in references {
            if r.outgoing.len() != d || r.incoming.len() != d {
                return Err(IdesError::InvalidInput(
                    "reference vectors must share one dimension".into(),
                ));
            }
        }
        // Pack the reference rows directly — no per-row clones.
        let mut x = Matrix::zeros(references.len(), d);
        let mut y = Matrix::zeros(references.len(), d);
        for (i, r) in references.iter().enumerate() {
            x.set_row(i, &r.outgoing);
            y.set_row(i, &r.incoming);
        }
        join_host(&x, &y, d_out, d_in, self.config.join)
    }

    /// The configured join options.
    pub fn join_options(&self) -> JoinOptions {
        self.config.join
    }
}

/// Shared validation of a landmark system's shape: the matrix (or factor
/// model) must be square over the landmark set and the model dimension
/// must fit it. Used by every server entry point
/// ([`InformationServer::build`], the streaming server's constructors) so
/// the rule can't silently diverge.
pub(crate) fn validate_landmark_dims(rows: usize, cols: usize, dim: usize) -> Result<()> {
    if rows != cols {
        return Err(IdesError::InvalidInput(
            "landmark matrix must be square".into(),
        ));
    }
    if dim == 0 || dim > rows {
        return Err(IdesError::InvalidInput(format!(
            "dimension {dim} out of range for {rows} landmarks"
        )));
    }
    Ok(())
}

/// Selects `m` random landmark indices out of `n` hosts (the paper selects
/// landmarks randomly, citing \[21\] that random placement is effective once
/// 20+ landmarks are used).
pub fn select_random_landmarks(n: usize, m: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    idx.truncate(m);
    idx.sort_unstable();
    idx
}

/// Convenience used by evaluation code: splits the hosts of a square data
/// set into `(landmarks, ordinary)` by random selection.
pub fn split_landmarks(n: usize, m: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let landmarks = select_random_landmarks(n, m, seed);
    let ordinary: Vec<usize> = (0..n).filter(|i| !landmarks.contains(i)).collect();
    (landmarks, ordinary)
}

/// Ensure the chosen solver matches the algorithm (the paper pairs NNLS
/// joins with NMF landmark models so predictions stay nonnegative).
pub fn recommended_solver(algorithm: Algorithm) -> JoinSolver {
    match algorithm {
        Algorithm::Svd => JoinSolver::Qr,
        Algorithm::Nmf => JoinSolver::NonNegative,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ides_datasets::generators::gnp_like;
    use ides_netsim::topology::figure1_distance_matrix;

    fn figure1_dataset() -> DistanceMatrix {
        DistanceMatrix::full("fig1", figure1_distance_matrix()).unwrap()
    }

    #[test]
    fn server_builds_with_svd_and_nmf() {
        let data = figure1_dataset();
        let svd = InformationServer::build(&data, IdesConfig::new(3)).unwrap();
        assert_eq!(svd.landmark_count(), 4);
        assert_eq!(svd.dim(), 3);
        let nmf = InformationServer::build(&data, IdesConfig::nmf(3)).unwrap();
        assert_eq!(nmf.dim(), 3);
        // NMF landmark reconstruction should also be accurate here.
        let recon = nmf.model().reconstruct();
        let err = (&recon - &figure1_distance_matrix()).frobenius_norm();
        assert!(err < 0.8, "NMF reconstruction error {err}");
    }

    #[test]
    fn nmf_server_accepts_missing_entries_svd_rejects() {
        let mut values = figure1_distance_matrix();
        values[(0, 3)] = 0.0;
        let mut mask = Matrix::filled(4, 4, 1.0);
        mask[(0, 3)] = 0.0;
        let data = DistanceMatrix::with_mask("fig1-missing", values, mask).unwrap();
        assert!(InformationServer::build(&data, IdesConfig::new(3)).is_err());
        // The fit is randomly started and underdetermined (a 4x4 with one
        // mask hole does not pin D[0][3], true value 2), so the NMF half is
        // a rate over seeds, `IdesConfig::new`'s seed among them. A fit
        // fails when an observed off-diagonal entry is off by 0.4 or more,
        // or when the imputed D[0][3] leaves [0, 4]. Measured: 46 of 400
        // seeds fail (11.5 %); the bound is that count plus three binomial
        // standard deviations, 46 + 3 · sqrt(400 · 0.115 · 0.885) ≈ 65.
        let seeds = 400;
        let base = IdesConfig::nmf(3).seed;
        let truth = figure1_distance_matrix();
        let failed = (0..seeds)
            .filter(|&s| {
                let config = IdesConfig {
                    seed: base + s,
                    ..IdesConfig::nmf(3)
                };
                let recon = InformationServer::build(&data, config)
                    .unwrap()
                    .model()
                    .reconstruct();
                let observed_ok = (0..4)
                    .flat_map(|i| (0..4).map(move |j| (i, j)))
                    .filter(|&(i, j)| (i, j) != (0, 3) && i != j)
                    .all(|(i, j)| (recon[(i, j)] - truth[(i, j)]).abs() < 0.4);
                !(observed_ok && (0.0..=4.0).contains(&recon[(0, 3)]))
            })
            .count();
        assert!(failed <= 65, "{failed} of {seeds} fits failed");
    }

    #[test]
    fn join_roundtrip_on_dataset() {
        let ds = gnp_like(19, 5).unwrap();
        let (landmarks, ordinary) = split_landmarks(19, 15, 99);
        let lm = ds.matrix.submatrix(&landmarks, &landmarks);
        let server = InformationServer::build(&lm, IdesConfig::new(8)).unwrap();
        // Join one ordinary host and check its landmark distances are
        // approximately reproduced.
        let h = ordinary[0];
        let d_out: Vec<f64> = landmarks
            .iter()
            .map(|&l| ds.matrix.get(h, l).unwrap())
            .collect();
        let d_in: Vec<f64> = landmarks
            .iter()
            .map(|&l| ds.matrix.get(l, h).unwrap())
            .collect();
        let host = server.join(&d_out, &d_in).unwrap();
        let mut total_rel = 0.0;
        for (i, &actual) in d_out.iter().enumerate() {
            let est = host.distance_to(&server.landmark_vectors(i).incoming);
            total_rel += (est - actual).abs() / actual;
        }
        let mean_rel = total_rel / d_out.len() as f64;
        assert!(mean_rel < 0.25, "mean relative landmark error {mean_rel}");
    }

    #[test]
    fn partial_join_with_enough_landmarks_still_works() {
        let ds = gnp_like(19, 6).unwrap();
        let (landmarks, ordinary) = split_landmarks(19, 15, 7);
        let lm = ds.matrix.submatrix(&landmarks, &landmarks);
        let server = InformationServer::build(&lm, IdesConfig::new(4)).unwrap();
        let h = ordinary[0];
        // Observe only 8 of 15 landmarks.
        let observed: Vec<usize> = (0..15).step_by(2).collect();
        let d_out: Vec<f64> = observed
            .iter()
            .map(|&i| ds.matrix.get(h, landmarks[i]).unwrap())
            .collect();
        let d_in: Vec<f64> = observed
            .iter()
            .map(|&i| ds.matrix.get(landmarks[i], h).unwrap())
            .collect();
        let host = server.join_partial(&observed, &d_out, &d_in).unwrap();
        // Distances to *unobserved* landmarks should still be predicted
        // within a reasonable factor.
        let unobserved: Vec<usize> = (0..15).filter(|i| !observed.contains(i)).collect();
        let mut rels = Vec::new();
        for &i in &unobserved {
            let actual = ds.matrix.get(h, landmarks[i]).unwrap();
            let est = host
                .distance_to(&server.landmark_vectors(i).incoming)
                .max(0.0);
            rels.push((est - actual).abs() / actual);
        }
        rels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = rels[rels.len() / 2];
        assert!(
            median < 0.5,
            "median relative error to unobserved landmarks {median}"
        );
    }

    #[test]
    fn join_partial_validates_lengths() {
        let data = figure1_dataset();
        let server = InformationServer::build(&data, IdesConfig::new(3)).unwrap();
        assert!(server.join_partial(&[0, 1], &[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn random_landmark_selection_properties() {
        let sel = select_random_landmarks(100, 20, 1);
        assert_eq!(sel.len(), 20);
        let mut sorted = sel.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "landmarks must be distinct");
        assert!(sel.iter().all(|&i| i < 100));
        // Deterministic per seed.
        assert_eq!(sel, select_random_landmarks(100, 20, 1));
        assert_ne!(sel, select_random_landmarks(100, 20, 2));
    }

    #[test]
    fn split_landmarks_partitions() {
        let (lm, ord) = split_landmarks(50, 10, 3);
        assert_eq!(lm.len(), 10);
        assert_eq!(ord.len(), 40);
        for l in &lm {
            assert!(!ord.contains(l));
        }
    }

    #[test]
    fn config_validation() {
        let data = figure1_dataset();
        assert!(InformationServer::build(&data, IdesConfig::new(0)).is_err());
        assert!(InformationServer::build(&data, IdesConfig::new(5)).is_err());
        let rect = DistanceMatrix::full("r", Matrix::zeros(2, 3)).unwrap();
        assert!(InformationServer::build(&rect, IdesConfig::new(1)).is_err());
    }

    #[test]
    fn recommended_solver_pairs() {
        assert_eq!(recommended_solver(Algorithm::Svd), JoinSolver::Qr);
        assert_eq!(recommended_solver(Algorithm::Nmf), JoinSolver::NonNegative);
    }
}

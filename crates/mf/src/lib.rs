//! # ides-mf
//!
//! The paper's core contribution (§3–§4): modeling network distance
//! matrices as the product of two low-rank factors, `D ≈ X Yᵀ`, where each
//! host carries an *outgoing* vector (row of `X`) and an *incoming* vector
//! (row of `Y`), and the estimated distance from `i` to `j` is `X_i · Y_j`.
//! Unlike Euclidean network embeddings, this representation can express
//! asymmetric distances and triangle-inequality violations.
//!
//! * [`svd_model`] — SVD factorization (Eqs. 5–6), the global optimum of
//!   the squared error (Eq. 7).
//! * [`nmf`] — nonnegative matrix factorization by HALS sweeps, on
//!   complete data and, over the observed entries only (Eqs. 8–9's masked
//!   objective), on missing data. NMF and [`als`] run one alternating
//!   sweep loop and differ only in the per-row solve.
//! * [`als`] / [`nmf`] both expose warm-start partial refits
//!   ([`als::refine`], [`nmf::refine`]): a bounded number of
//!   deterministic update sweeps from existing factors, the
//!   recompute-free maintenance step behind `ides`' streaming update
//!   subsystem.
//! * [`lipschitz`] — the ICS / Virtual Landmark baseline (Lipschitz
//!   embedding + PCA + linear normalization).
//! * [`gnp`] — the GNP baseline (Euclidean embedding by Simplex Downhill).
//! * [`metrics`] — the modified relative error (Eq. 10) and CDF helpers.
//! * [`optimizer`] — the Nelder–Mead simplex method used by GNP.
//!
//! ```
//! use ides_mf::svd_model::{fit_matrix, SvdConfig};
//! use ides_mf::model::DistanceEstimator;
//! use ides_netsim::topology::figure1_distance_matrix;
//!
//! // §4.1 worked example: the Figure-1 matrix factors exactly at d = 3.
//! let d = figure1_distance_matrix();
//! let model = fit_matrix(&d, SvdConfig { dim: 3, force_exact: true }).unwrap();
//! assert!((model.estimate(0, 3) - 2.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod als;
mod banded;
pub mod error;
pub mod gnp;
pub mod lipschitz;
pub mod metrics;
pub mod model;
pub mod nmf;
pub mod optimizer;
pub mod svd_model;
mod sweeps;

pub use error::{MfError, Result};
pub use model::{BatchEmbed, DistanceEstimator, EuclideanModel, FactorModel};

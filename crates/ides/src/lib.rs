//! # ides — Internet Distance Estimation Service
//!
//! The system layer of the reproduction of Mao & Saul, *Modeling Distances
//! in Large-Scale Networks by Matrix Factorization* (IMC 2004), §5–§6.
//!
//! IDES classifies hosts into **landmarks** — well-positioned nodes whose
//! pairwise distance matrix an information server measures and factors by
//! SVD or NMF — and **ordinary hosts**, which join by measuring distances
//! to/from the landmarks (or, in the relaxed architecture, any `k ≥ d`
//! nodes with known vectors) and solving two small least-squares problems
//! (Eqs. 13–16) for their own outgoing/incoming vectors. Distance queries
//! then reduce to dot products with no further measurement.
//!
//! * [`system`] — landmark selection, [`system::InformationServer`], joins
//!   (single-host and batched).
//! * [`projection`] — the least-squares host join with QR / normal-equation
//!   / nonnegative solvers; the batched multi-RHS path
//!   ([`projection::join_hosts_with`]) joins every host sharing a landmark
//!   set through one factorization + one GEMM, bit-identical to per-host
//!   solves.
//! * [`eval`] — the §6 evaluation harness (IDES vs ICS vs GNP, landmark
//!   failure injection), batched per shard and sharded over scoped
//!   threads with byte-identical results (`IDES_LINALG_THREADS` sets the
//!   thread count).
//! * [`streaming`] — epoch-driven coordinate maintenance under drift:
//!   [`streaming::StreamingServer`] ingests epoch-stamped measurement
//!   deltas from an [`streaming::UpdateQueue`] and keeps coordinates fresh
//!   **without refitting from scratch** — re-solving only the drifted
//!   landmarks' factor rows for small drift, bounded warm-start ALS
//!   refits beyond the [`streaming::StalenessPolicy`] threshold (either
//!   way, one fresh factorization of the join Grams), and sharded
//!   re-joins of only the affected hosts.
//! * [`service`] — the concurrent serving engine:
//!   [`service::ShardedEngine`] answers `estimate(a, b)` for thousands of
//!   concurrent readers from **epoch-versioned, immutable snapshots**
//!   (a query pins the published `Snapshot` for one closure; the
//!   streaming writer publishes a new one after each drift epoch, so
//!   queries never block on maintenance and never see a torn epoch),
//!   admits new hosts by **group commit** (a join on an idle shard is
//!   solved and published at once; joins that arrive while the shard's
//!   writer is busy solve as one batched cached-Gram system — the
//!   batch-join amortization applied across requesters, sized by
//!   contention), retires departed hosts to
//!   a free list, and partitions hosts over as many single-writer shards
//!   as its constructor is given. Paired with `ides_netsim::workload`
//!   (deterministic query/join/leave/drift event streams),
//!   [`service::replay`] (bit-identical replay at any thread or shard
//!   count) and [`service::load`] (wall-clock latency/throughput
//!   harness).
//! * [`telemetry`] — end-to-end observability: a lock-free,
//!   statically-registered metrics registry (striped atomic counters /
//!   gauges / histogram timers with exact merge), bounded per-thread
//!   tracing-span ring buffers covering every write-side stage and the
//!   read-side events, and Prometheus-text / Chrome-trace-JSON
//!   exporters. Off by default (one relaxed load per site);
//!   observational only — enabling it never changes a computed bit.
//! * [`protocol`] — the wire protocol simulated over `ides-netsim`
//!   (framed serde messages, ping-based RTT measurement, deterministic
//!   discrete-event timing).
//!
//! ```
//! use ides::system::{IdesConfig, InformationServer};
//! use ides_datasets::DistanceMatrix;
//! use ides_netsim::topology::figure1_distance_matrix;
//!
//! // §5.1 worked example: 4 landmarks, host H1 joins with distances
//! // [0.5, 1.5, 1.5, 2.5]; its distance to a mirrored host H2 is
//! // predicted as 3.25 (true distance 3).
//! let lm = DistanceMatrix::full("fig1", figure1_distance_matrix()).unwrap();
//! let server = InformationServer::build(&lm, IdesConfig::new(3)).unwrap();
//! let h1 = server.join(&[0.5, 1.5, 1.5, 2.5], &[0.5, 1.5, 1.5, 2.5]).unwrap();
//! let h2 = server.join(&[2.5, 1.5, 1.5, 0.5], &[2.5, 1.5, 1.5, 0.5]).unwrap();
//! assert!((h1.distance_to_host(&h2) - 3.25).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod eval;
pub mod projection;
pub mod protocol;
pub mod service;
pub mod streaming;
pub mod system;
pub mod telemetry;

pub use error::{IdesError, Result};
pub use projection::{BatchHostVectors, HostVectors, JoinOptions, JoinSolver};
pub use service::{NodeId, ServiceConfig, ShardedEngine, Snapshot};
pub use streaming::{
    EpochOutcome, EpochUpdate, MeasurementDelta, StalenessPolicy, StreamingServer, UpdateQueue,
};
pub use system::{Algorithm, IdesConfig, InformationServer};

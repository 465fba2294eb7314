//! # ides-netsim
//!
//! Synthetic Internet substrate for the IDES reproduction (Mao & Saul,
//! IMC 2004). The paper evaluates on real measurement data sets (NLANR,
//! GNP/AGNP, P2PSim/King, PlanetLab); this crate provides their stand-in:
//! a transit-stub topology generator whose **policy routing** produces the
//! two phenomena matrix factorization exists to model — triangle-inequality
//! violations (sub-optimal routing) and asymmetric one-way delays — plus a
//! measurement layer (queueing jitter, min-of-k probing, losses) and a
//! deterministic discrete-event message transport used by the simulated
//! IDES wire protocol.
//!
//! The [`drift`] module additionally models slow RTT evolution (diurnal
//! multiplicative drift) and exposes it as an epoch-stamped measurement
//! stream ([`drift::DriftStream`]) deliverable through the event queue —
//! the input side of the `ides::streaming` coordinate-maintenance
//! subsystem. The [`workload`] module expands a seeded
//! [`workload::WorkloadConfig`] into a deterministic, time-ordered mix of
//! query / join / leave / drift events — the load side of the
//! `ides::service` serving engine.
//!
//! ```
//! use ides_netsim::topology::{TransitStubParams, TransitStubTopology};
//! use rand::SeedableRng;
//!
//! let params = TransitStubParams { hosts: 50, stubs: 12, ..Default::default() };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let topo = TransitStubTopology::generate(&params, &mut rng);
//! let rtt = topo.host_rtt(0, 1);
//! assert!(rtt > 0.0 && rtt.is_finite());
//! // One-way delays are asymmetric even though RTT is symmetric:
//! assert_eq!(topo.host_rtt(0, 1), topo.host_rtt(1, 0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod drift;
pub mod event;
pub mod geo;
pub mod graph;
pub mod measurement;
pub mod topology;
pub mod transport;
pub mod workload;

pub use graph::{Edge, Graph, NodeId};
pub use topology::{TransitStubParams, TransitStubTopology};

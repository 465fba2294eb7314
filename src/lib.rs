//! Umbrella crate for the IDES reproduction workspace.
//!
//! All functionality lives in the `crates/*` members; this crate exists so
//! the repo-level `examples/` and `tests/` directories can exercise the
//! public APIs of every crate together. Re-exports are provided for
//! convenience.
//!
//! # Threads and `IDES_LINALG_THREADS`
//!
//! There is one build. Large blocked GEMMs split into row bands, the §6
//! evaluation sweeps (batched host joins/embeddings plus O(n²) pair
//! scoring) split into host shards, and the serving engine's shards run
//! side by side, all through one helper (`ides_linalg::kernels::fan_out`)
//! and one thread budget read once per process: `IDES_LINALG_THREADS=N`
//! if set, else the detected core count. Outputs are bit-identical at any
//! thread count: bands and shards partition per-row-independent work and
//! merge in a fixed order. See the workspace `README.md` for usage
//! examples.

#![forbid(unsafe_code)]

pub use ides;
pub use ides_datasets;
pub use ides_linalg;
pub use ides_mf;
pub use ides_netsim;

//! # ides-linalg
//!
//! Self-contained dense linear algebra for the IDES reproduction
//! (Mao & Saul, *Modeling Distances in Large-Scale Networks by Matrix
//! Factorization*, IMC 2004).
//!
//! Everything the paper's algorithms need — and nothing more — implemented
//! in plain safe Rust with no external BLAS/LAPACK:
//!
//! * [`Matrix`] — dense row-major `f64` matrices with BLAS-like kernels,
//! * [`kernels`] — the cache-blocked, register-tiled GEMM layer behind
//!   every matrix product (see below),
//! * [`factor`] — the blocked Householder factorization layer: compact-WY
//!   QR and Golub–Kahan bidiagonal SVD, both GEMM-rich with
//!   allocation-free `_with` workspace variants,
//! * [`qr`] — Householder QR and QR least squares (blocked; the scalar
//!   reference survives as `qr::reference`),
//! * [`svd`] — full SVD (blocked Golub–Kahan above the small cutoff,
//!   one-sided Jacobi below it / as fallback) plus truncated
//!   subspace-iteration SVD,
//! * [`cholesky`] — exact solves for the host-join normal equations
//!   (the cached form every served join solves through is
//!   [`solve::CachedGram`]),
//! * [`nnls`] — Lawson–Hanson nonnegative least squares (§5.1 option),
//! * [`pca`] — the projection used by the ICS / Virtual Landmark baselines,
//!   from the SVD of the centered data,
//! * [`random`] — seeded random matrices for NMF initialization.
//!
//! # The kernel layer
//!
//! `Matrix::{matmul, tr_matmul, matmul_tr, matvec, tr_matvec}` and their
//! allocation-free `*_into` twins all run on one blocked GEMM driver in
//! [`kernels`]: operands are packed into contiguous panels (transposition
//! is free at packing time) and consumed by an explicit-FMA
//! [`kernels::MR`]`x`[`kernels::NR`] register-tile micro-kernel, with
//! [`kernels::MC`]/[`kernels::KC`]/[`kernels::NC`] cache blocking
//! (defaults 128/256/1024, tuned on the kernels benchmark). The
//! micro-kernel back end — 512-bit AVX-512F, 256-bit AVX2+FMA, or the
//! portable `f64::mul_add` scalar tile — is chosen **once per process**
//! by runtime CPU detection ([`kernels::active_isa`]; override with
//! `IDES_LINALG_KERNEL=scalar|avx2|avx512`). Packing
//! buffers are thread-local and reused, so steady-state products allocate
//! nothing — the foundation of the allocation-free NMF/ALS iteration
//! loops in `ides-mf`. Per output cell, contributions accumulate in
//! ascending-`k` fused order **identically on every back end**, so
//! results are bitwise equal across ISAs and deterministic run-to-run;
//! for depths `<= KC` they match a fused textbook dot product bit for
//! bit.
//!
//! ## Threads
//!
//! Large products fan out across row bands on std scoped threads through
//! [`kernels::fan_out`], one band per thread of the process's budget
//! ([`kernels::thread_budget`]: the `IDES_LINALG_THREADS` env var, or the
//! host's core count). Bands are numerically independent, so **results are
//! bit-identical at any thread count**; small products stay on the
//! calling thread.
//!
//! ```
//! use ides_linalg::{Matrix, svd::svd};
//!
//! // The 4-host example from §4.1 of the paper.
//! let d = Matrix::from_vec(4, 4, vec![
//!     0.0, 1.0, 1.0, 2.0,
//!     1.0, 0.0, 2.0, 1.0,
//!     1.0, 2.0, 0.0, 1.0,
//!     2.0, 1.0, 1.0, 0.0,
//! ]).unwrap();
//! let f = svd(&d).unwrap();
//! assert!((f.singular_values[0] - 4.0).abs() < 1e-9);
//! assert!(f.singular_values[3].abs() < 1e-9); // rank 3 => exact d=3 factorization
//! ```

#![warn(missing_docs)]
// Unsafe code is denied crate-wide and allowed back in exactly one place:
// the x86-64-only `kernels::x86` module holding the AVX2/AVX-512 FMA
// intrinsics behind runtime CPU-feature detection.
#![deny(unsafe_code)]

pub mod cholesky;
pub mod chunked;
pub mod error;
pub mod factor;
pub mod kernels;
pub mod matrix;
pub mod nnls;
pub mod pca;
pub mod qr;
pub mod random;
pub mod solve;
pub mod svd;

pub use error::{LinalgError, Result};
pub use matrix::Matrix;

//! Counting-allocator enforcement of the `_with` factorization variants'
//! zero-allocation contract: once the [`FactorWorkspace`], the output
//! struct, and the thread-local GEMM packing buffers have reached their
//! high-water shapes, repeated `qr_with` / `svd_with` /
//! `svd_truncated_with` calls on same-shaped inputs must not touch the
//! heap at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ides_linalg::factor::{self, FactorWorkspace};
use ides_linalg::qr::Qr;
use ides_linalg::svd::Svd;
use ides_linalg::Matrix;

struct CountingAllocator;

thread_local! {
    /// Per-thread allocation counter: only the thread that opened a
    /// [`count_allocs`] window counts, and only its own allocations.
    /// Without this attribution the libtest harness's *main* thread races
    /// the counted window (its blocking channel `recv` lazily allocates an
    /// mpmc `Context` on first use) and the zero-alloc assertions fail
    /// intermittently; a process-global counter would also cross-count
    /// parallel test threads. Const-initialized so reading it never
    /// allocates inside the allocator itself.
    static THREAD_ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Bumps the current thread's counter if it is inside a counting window;
/// safe to call from the allocator (never allocates, tolerates TLS
/// teardown).
fn count_here() {
    let _ = THREAD_ALLOCS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns the number of allocation calls **this thread**
/// made during it.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    THREAD_ALLOCS.with(|c| c.set(Some(0)));
    let r = f();
    let calls = THREAD_ALLOCS.with(|c| c.replace(None)).unwrap_or(0);
    (calls, r)
}

fn det_matrix(r: usize, c: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345);
    Matrix::from_fn(r, c, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) * 4.0 - 2.0
    })
}

#[test]
fn qr_with_allocates_nothing_on_reuse() {
    let a = det_matrix(150, 70, 1);
    let b = det_matrix(150, 70, 2);
    let mut ws = FactorWorkspace::new();
    let mut out = Qr::default();
    // Warm the workspace, the output, and the thread-local GEMM buffers.
    factor::qr_with(&a, &mut ws, &mut out).unwrap();
    let (calls, ()) = count_allocs(|| {
        for m in [&a, &b, &a, &b] {
            factor::qr_with(m, &mut ws, &mut out).unwrap();
        }
    });
    assert_eq!(calls, 0, "warm qr_with allocated {calls} times");
}

#[test]
fn svd_with_allocates_nothing_on_reuse() {
    let a = det_matrix(120, 60, 3);
    let b = det_matrix(120, 60, 4);
    let mut ws = FactorWorkspace::new();
    let mut out = Svd {
        u: Matrix::zeros(0, 0),
        singular_values: Vec::new(),
        v: Matrix::zeros(0, 0),
    };
    factor::svd_with(&a, &mut ws, &mut out).unwrap();
    let (calls, ()) = count_allocs(|| {
        for m in [&a, &b, &a, &b] {
            factor::svd_with(m, &mut ws, &mut out).unwrap();
        }
    });
    assert_eq!(calls, 0, "warm svd_with allocated {calls} times");
}

#[test]
fn svd_truncated_with_allocates_nothing_on_reuse() {
    // 100x100 at rank 6 (+8 oversample) keeps the subspace-iteration path
    // (2·14 < 100): iterates, re-orthonormalizations, the projection SVD,
    // and the output GEMM must all run in workspace-owned buffers.
    let a = det_matrix(100, 100, 9);
    let b = det_matrix(100, 100, 10);
    let opts = ides_linalg::svd::TruncatedSvdOptions::default();
    let mut ws = FactorWorkspace::new();
    let mut out = Svd::default();
    ides_linalg::svd::svd_truncated_with(&a, 6, opts, &mut ws, &mut out).unwrap();
    let (calls, ()) = count_allocs(|| {
        for m in [&a, &b, &a, &b] {
            ides_linalg::svd::svd_truncated_with(m, 6, opts, &mut ws, &mut out).unwrap();
        }
    });
    assert_eq!(calls, 0, "warm svd_truncated_with allocated {calls} times");
}

#[test]
fn shrinking_shapes_do_not_reallocate() {
    // After factoring the largest shape, smaller same-kind factorizations
    // must run inside the existing capacity.
    let big = det_matrix(160, 80, 7);
    let small = det_matrix(100, 40, 8);
    let mut ws = FactorWorkspace::new();
    let mut out = Qr::default();
    factor::qr_with(&big, &mut ws, &mut out).unwrap();
    let (calls, ()) = count_allocs(|| {
        factor::qr_with(&small, &mut ws, &mut out).unwrap();
        factor::qr_with(&big, &mut ws, &mut out).unwrap();
    });
    assert_eq!(calls, 0, "shape shrink/regrow allocated {calls} times");
}

#[test]
fn blocked_cholesky_solves_allocate_nothing() {
    // The lane-blocked multi-row solve transposes through stack scratch:
    // full blocks, a ragged tail, and a system wider than the scratch (the
    // row-by-row path) must all stay off the heap — cold, no warm-up.
    use ides_linalg::solve::CachedGram;
    for d in [16usize, 33, 70] {
        let design = det_matrix(3 * d, d, d as u64);
        let gram = CachedGram::factor(&design, 0.1).unwrap();
        let mut rhs = det_matrix(1000, d, 11);
        let mut one = vec![0.5; d];
        let (calls, ()) = count_allocs(|| {
            gram.solve_rows_in_place(&mut rhs).unwrap();
            ides_linalg::cholesky::solve_cholesky_in_place(gram.l(), &mut one).unwrap();
        });
        assert_eq!(calls, 0, "d={d}: blocked solve allocated {calls} times");
    }
}

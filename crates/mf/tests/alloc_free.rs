//! Asserts the allocation-freedom of the NMF and ALS iteration loops: a
//! counting global allocator measures two fits that differ only in
//! iteration count, so any per-iteration heap allocation shows up as a
//! count difference proportional to the extra iterations.
//!
//! This is the enforcement test for the workspace refactor: every buffer
//! the multiplicative updates and ALS sweeps touch is preallocated before
//! the loop, and the blocked GEMM kernels reuse thread-local packing
//! buffers, so once warm the loops must not allocate at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ides_datasets::DistanceMatrix;
use ides_linalg::Matrix;
use ides_mf::als::{self, AlsConfig};
use ides_mf::nmf::{self, NmfConfig, NmfInit};

struct CountingAllocator;

// Per-thread, so the tests of this binary (and the harness thread that
// prints their results) cannot pollute each other's deltas. Const-
// initialised `Cell`s need no lazy init and no destructor, which makes
// them safe to touch from inside the allocator.
thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns `(allocation calls, allocated bytes)` this thread
/// made during it.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let calls0 = ALLOC_CALLS.get();
    let bytes0 = ALLOC_BYTES.get();
    let r = f();
    (ALLOC_CALLS.get() - calls0, ALLOC_BYTES.get() - bytes0, r)
}

fn low_rank_nonneg(n: usize) -> Matrix {
    let b = Matrix::from_fn(n, 4, |i, j| 1.0 + ((i + j) as f64 * 0.37).sin().abs());
    let c = Matrix::from_fn(4, n, |i, j| 1.0 + ((i * 3 + j) as f64 * 0.21).cos().abs());
    b.matmul(&c).unwrap()
}

/// The acceptance check: an NMF fit of a 256×256 matrix allocates no
/// factor-sized buffers inside the iteration loop. Two fits differing by
/// 40 iterations must show (near-)zero allocation difference — a single
/// `m x k` factor buffer per iteration would add 40 allocations and
/// ~8 MB to the delta.
#[test]
fn nmf_complete_iterations_allocate_nothing() {
    let d = low_rank_nonneg(256);
    let cfg = |iterations| NmfConfig {
        iterations,
        init: NmfInit::Random,
        tolerance: 0.0,
        ..NmfConfig::new(10)
    };
    // Warm the thread-local GEMM packing buffers and the allocator pools.
    let _ = nmf::fit_matrix(&d, cfg(2)).unwrap();

    let (calls_short, bytes_short, short) = count_allocs(|| nmf::fit_matrix(&d, cfg(5)).unwrap());
    let (calls_long, bytes_long, long) = count_allocs(|| nmf::fit_matrix(&d, cfg(45)).unwrap());
    assert_eq!(short.error_trace.len(), 5);
    assert_eq!(long.error_trace.len(), 45);

    let call_delta = calls_long.saturating_sub(calls_short);
    let byte_delta = bytes_long.saturating_sub(bytes_short);
    assert!(
        call_delta == 0,
        "40 extra NMF iterations performed {call_delta} heap allocations \
         ({byte_delta} bytes): the iteration loop is supposed to be \
         allocation-free (short fit: {calls_short} calls / {bytes_short} B, \
         long fit: {calls_long} calls / {bytes_long} B)"
    );
}

/// Same property for the masked (missing-entry) update path.
#[test]
fn nmf_masked_iterations_allocate_nothing() {
    let base = low_rank_nonneg(96);
    let mut mask = Matrix::filled(96, 96, 1.0);
    for i in 0..96 {
        mask[(i, (i * 7) % 96)] = 0.0;
    }
    let mut values = base.clone();
    for i in 0..96 {
        values[(i, (i * 7) % 96)] = 0.0;
    }
    let data = DistanceMatrix::with_mask("alloc", values, mask).unwrap();
    let cfg = |iterations| NmfConfig {
        iterations,
        init: NmfInit::Random,
        tolerance: 0.0,
        ..NmfConfig::new(8)
    };
    let _ = nmf::fit(&data, cfg(2)).unwrap();

    let (calls_short, _, _) = count_allocs(|| nmf::fit(&data, cfg(5)).unwrap());
    let (calls_long, bytes_long, _) = count_allocs(|| nmf::fit(&data, cfg(45)).unwrap());
    let call_delta = calls_long.saturating_sub(calls_short);
    assert!(
        call_delta == 0,
        "40 extra masked NMF iterations performed {call_delta} heap \
         allocations ({bytes_long} bytes in the long fit)"
    );
}

/// ALS sweeps reuse the gathered LS system, right-hand side, and
/// normal-equation scratch: extra sweeps must not allocate.
#[test]
fn als_sweeps_allocate_nothing() {
    let d = DistanceMatrix::full("als-alloc", low_rank_nonneg(96)).unwrap();
    let cfg = |sweeps| AlsConfig {
        sweeps,
        tolerance: 0.0,
        ..AlsConfig::new(6)
    };
    let _ = als::fit(&d, cfg(2)).unwrap();

    let (calls_short, _, _) = count_allocs(|| als::fit(&d, cfg(3)).unwrap());
    let (calls_long, bytes_long, _) = count_allocs(|| als::fit(&d, cfg(13)).unwrap());
    let call_delta = calls_long.saturating_sub(calls_short);
    assert!(
        call_delta == 0,
        "10 extra ALS sweeps performed {call_delta} heap allocations \
         ({bytes_long} bytes in the long fit)"
    );
}

//! Pins the batched host-join path to **zero allocations per additional
//! host** once the workspace is warm, extending the PR-1 zero-alloc suite
//! for the NMF/ALS loops to the join layer.
//!
//! Method: a counting global allocator measures two batched joins that
//! differ only in host count (300 vs 600 hosts) against warm buffers. The
//! per-batch costs (one QR or Cholesky factorization of the shared
//! reference system) appear in both measurements identically, so any
//! per-host allocation would surface as a positive count delta
//! proportional to the 300 extra hosts.
//!
//! The same allocator pins the serving engine's drift epoch: one warm
//! `apply_epoch` over 50 000 slots allocates one coordinate table's worth
//! of fresh chunks and no buffer that scales with `slots × k`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ides::projection::{join_hosts_into, BatchHostVectors, JoinOptions, JoinSolver, JoinWorkspace};
use ides_linalg::Matrix;

struct CountingAllocator;

// Per-thread, so concurrently running tests (and the harness thread that
// prints their results) cannot bleed allocations into each other's
// measured regions. Const-initialised `Cell`s need no lazy init and no
// destructor, which makes them safe to touch from inside the allocator.
thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    /// Largest single request since the last reset.
    static ALLOC_MAX: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    let _ = ALLOC_MAX.try_with(|c| c.set(c.get().max(bytes as u64)));
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

/// Deterministic full-column-rank reference matrix (k x d).
fn reference(k: usize, d: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut m = Matrix::from_fn(k, d, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) * 4.0 + 0.5
    });
    for i in 0..d.min(k) {
        m[(i, i)] += 3.0;
    }
    m
}

fn measurements(hosts: usize, k: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(hosts, k, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64 * 80.0 + 1.0
    })
}

/// The acceptance check: with a warm workspace and output batch, joining
/// 600 hosts allocates exactly as much as joining 300 — zero allocations
/// per additional host — on both factorization-sharing solver paths.
#[test]
fn batched_join_zero_alloc_per_additional_host() {
    let k = 24;
    let d = 8;
    let x_refs = reference(k, d, 1);
    let y_refs = reference(k, d, 2);
    let d_out_big = measurements(600, k, 3);
    let d_in_big = measurements(600, k, 4);
    // Row-prefix views would share storage; independent matrices keep the
    // measurement inputs themselves out of the measured region.
    let d_out_small = Matrix::from_fn(300, k, |r, c| d_out_big[(r, c)]);
    let d_in_small = Matrix::from_fn(300, k, |r, c| d_in_big[(r, c)]);

    for (label, opts) in [
        (
            "qr",
            JoinOptions {
                solver: JoinSolver::Qr,
                ridge: 0.0,
            },
        ),
        (
            "normal_eq",
            JoinOptions {
                solver: JoinSolver::NormalEquations,
                ridge: 0.0,
            },
        ),
        (
            "ridge",
            JoinOptions {
                solver: JoinSolver::NormalEquations,
                ridge: 0.01,
            },
        ),
    ] {
        let mut ws = JoinWorkspace::new();
        let mut batch = BatchHostVectors::new();
        // Warm every buffer to its 600-host high-water mark.
        join_hosts_into(
            &mut ws, &x_refs, &y_refs, &d_out_big, &d_in_big, opts, &mut batch,
        )
        .expect("warm join");

        let (calls_small, _, _) = count_allocs(|| {
            join_hosts_into(
                &mut ws,
                &x_refs,
                &y_refs,
                &d_out_small,
                &d_in_small,
                opts,
                &mut batch,
            )
            .expect("300-host join")
        });
        let (calls_big, bytes_big, _) = count_allocs(|| {
            join_hosts_into(
                &mut ws, &x_refs, &y_refs, &d_out_big, &d_in_big, opts, &mut batch,
            )
            .expect("600-host join")
        });
        let delta = calls_big.saturating_sub(calls_small);
        assert!(
            delta == 0,
            "{label}: 300 extra hosts performed {delta} heap allocations \
             (300-host batch: {calls_small} calls, 600-host batch: \
             {calls_big} calls / {bytes_big} B): the batched join is \
             supposed to be allocation-free per additional host"
        );
    }
}

/// The per-batch factorization cost itself is bounded: joining through the
/// warm workspace allocates only the O(1)-per-batch factorization buffers
/// (QR path) or nothing at all (normal-equation/ridge paths).
#[test]
fn warm_normal_equation_batch_allocates_nothing_at_all() {
    let k = 16;
    let d = 6;
    let x_refs = reference(k, d, 7);
    let y_refs = reference(k, d, 8);
    let d_out = measurements(200, k, 9);
    let d_in = measurements(200, k, 10);
    let opts = JoinOptions {
        solver: JoinSolver::NormalEquations,
        ridge: 0.0,
    };
    let mut ws = JoinWorkspace::new();
    let mut batch = BatchHostVectors::new();
    join_hosts_into(&mut ws, &x_refs, &y_refs, &d_out, &d_in, opts, &mut batch).expect("warm");
    let (calls, bytes, _) = count_allocs(|| {
        join_hosts_into(&mut ws, &x_refs, &y_refs, &d_out, &d_in, opts, &mut batch)
            .expect("warm join")
    });
    assert!(
        calls == 0,
        "warm normal-equation batch join performed {calls} allocations ({bytes} B)"
    );
}

/// One drift epoch on a warm 50 000-slot engine: the rejoin reads the
/// measurement tables in place and installs each solved tile as a fresh
/// chunk, so the epoch allocates about one coordinate table (the chunks
/// the new snapshot will own) — no gathered copy of the `slots × k`
/// tables, no `slots × d` staging batch, no per-slot plan node.
#[test]
fn warm_epoch_allocates_one_coordinate_table_and_nothing_per_measurement() {
    use ides::service::{ServiceConfig, ShardedEngine};
    use ides::streaming::{EpochUpdate, MeasurementDelta, StalenessPolicy, StreamingServer};

    let (k, d, slots) = (16usize, 4usize, 50_000usize);
    let ds = ides_datasets::generators::p2psim_like(k + 10, 3).expect("dataset");
    let sub: Vec<usize> = (0..k).collect();
    let lm = ds.matrix.submatrix(&sub, &sub);
    let server = StreamingServer::new(&lm, d, StalenessPolicy::default()).expect("server");
    let engine = ShardedEngine::new(server, 1, ServiceConfig::default()).expect("engine");
    let rows = measurements(slots, k, 5);
    engine.join_many(&rows, &rows).expect("admission");
    let drift = |epoch: f64| EpochUpdate {
        epoch,
        deltas: vec![MeasurementDelta {
            from: 1,
            to: 2,
            rtt: 20.0 + epoch,
        }],
    };
    // Warm: GEMM packing buffers and the diverged spine.
    engine.apply_epoch(&drift(1.0)).expect("warm epoch");

    ALLOC_MAX.set(0);
    let (calls, bytes, outcome) = count_allocs(|| engine.apply_epoch(&drift(2.0)));
    outcome.expect("measured epoch");
    let largest = ALLOC_MAX.get();
    let coord_table = (slots * 2 * d * 8) as u64;
    let measurement_table = (slots * k * 8) as u64;
    assert!(
        bytes <= coord_table + coord_table / 4,
        "epoch allocated {bytes} B in {calls} calls; one coordinate table is {coord_table} B"
    );
    assert!(
        largest * 16 <= measurement_table.min(coord_table),
        "largest single allocation {largest} B scales with the tables \
         (measurements {measurement_table} B, coordinates {coord_table} B)"
    );
}

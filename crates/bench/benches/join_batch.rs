//! Batched vs per-host joins. One Cholesky/QR factorization of the shared
//! landmark system plus a multi-RHS GEMM should beat re-factorizing per
//! host by a wide margin once the batch is large: `scripts/check_bench.sh`
//! gates `per_host_qr/500 : batched_qr/500` at ≥ 8x.
//!
//! Also times the end-to-end sharded evaluation sweep (`evaluate_ides`),
//! which drives the same batch path through gather → join → pair scoring.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ides::eval::evaluate_ides;
use ides::projection::{
    join_host_with, join_hosts_into, BatchHostVectors, JoinOptions, JoinSolver, JoinWorkspace,
};
use ides::system::{split_landmarks, IdesConfig};
use ides_datasets::generators::p2psim_like;
use ides_linalg::Matrix;

/// Deterministic measurement matrix (hosts x landmarks).
fn measurements(hosts: usize, k: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(hosts, k, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64 * 80.0 + 1.0
    })
}

fn bench_join_batch(c: &mut Criterion) {
    let ds = p2psim_like(700, 41).expect("dataset");
    let (landmarks, _ordinary) = split_landmarks(700, 20, 2);
    let lm = ds.matrix.submatrix(&landmarks, &landmarks);
    let server = ides::system::InformationServer::build(&lm, IdesConfig::new(8)).expect("server");
    let x = server.model().x().clone();
    let y = server.model().y().clone();

    let mut group = c.benchmark_group("join_batch");
    group.sample_size(10);
    for hosts in [100usize, 500] {
        let d_out = measurements(hosts, landmarks.len(), 3);
        let d_in = measurements(hosts, landmarks.len(), 4);
        for (label, solver) in [
            ("qr", JoinSolver::Qr),
            ("normal_eq", JoinSolver::NormalEquations),
        ] {
            let opts = JoinOptions { solver, ridge: 0.0 };
            group.bench_with_input(
                BenchmarkId::new(format!("per_host_{label}"), hosts),
                &(&d_out, &d_in),
                |b, (d_out, d_in)| {
                    let mut ws = JoinWorkspace::new();
                    b.iter(|| {
                        for h in 0..hosts {
                            join_host_with(&mut ws, &x, &y, d_out.row(h), d_in.row(h), opts)
                                .expect("join");
                        }
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("batched_{label}"), hosts),
                &(&d_out, &d_in),
                |b, (d_out, d_in)| {
                    let mut ws = JoinWorkspace::new();
                    let mut batch = BatchHostVectors::new();
                    b.iter(|| {
                        join_hosts_into(&mut ws, &x, &y, d_out, d_in, opts, &mut batch)
                            .expect("batch join")
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_eval_sweep(c: &mut Criterion) {
    // End-to-end §6 sweep at a few hundred hosts: landmark fit + batched
    // joins + O(n²) pair scoring (sharded over the thread budget).
    let n = 300;
    let ds = p2psim_like(n, 43).expect("dataset");
    let (landmarks, ordinary) = split_landmarks(n, 20, 5);
    let mut group = c.benchmark_group("eval_sweep");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("ides_svd", n), |b| {
        b.iter(|| {
            evaluate_ides(&ds.matrix, &landmarks, &ordinary, IdesConfig::new(8)).expect("eval")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_join_batch, bench_eval_sweep);
criterion_main!(benches);

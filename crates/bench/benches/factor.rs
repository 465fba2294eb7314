//! Factorization-layer benchmark: the blocked (Golub–Kahan) SVD of a
//! distance-matrix-like 512² input against the one-sided Jacobi
//! reference at 256².
//!
//! `scripts/check_bench.sh` gates the within-run ratio `svd_jacobi/256 :
//! svd_blocked/512`: it catches the bidiagonalization losing its panel
//! blocking (see the gate table there for the floor and how it was set).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use ides_linalg::svd::{svd, svd_jacobi};
use ides_linalg::{random, Matrix};

/// Distance-matrix-like input: positive, zero diagonal, near-low-rank —
/// the same generator the kernels benchmark uses.
fn test_matrix(n: usize) -> Matrix {
    let mut rng = random::seeded_rng(99);
    let base = random::uniform(n, 8, 0.5, 2.0, &mut rng);
    let mut m = base.matmul_tr(&base).unwrap().scale(10.0);
    for i in 0..n {
        m[(i, i)] = 0.0;
    }
    m
}

/// Nominal LAPACK-convention flop count for a full SVD of a square `n`
/// input (bidiagonalize + implicit-shift with both bases): 16/3 n^3, so
/// the emitted `gflops` fields are comparable across hosts. A convention,
/// not a measured count — the iterative phase's true count is
/// matrix-dependent.
fn svd_flops(n: usize) -> Throughput {
    Throughput::Flops(16 * (n as u64).pow(3) / 3)
}

fn bench_factor(c: &mut Criterion) {
    let mut group = c.benchmark_group("factor");
    group.sample_size(3);
    group.throughput(svd_flops(512));
    group.bench_with_input(
        BenchmarkId::new("svd_blocked", 512),
        &test_matrix(512),
        |b, a| b.iter(|| svd(a).unwrap()),
    );
    // The control runs at half the size: one Jacobi SVD takes 8-12 s at
    // 512 and under a second at 256.
    group.throughput(svd_flops(256));
    group.bench_with_input(
        BenchmarkId::new("svd_jacobi", 256),
        &test_matrix(256),
        |b, a| b.iter(|| svd_jacobi(a).unwrap()),
    );
    group.finish();
}

criterion_group!(benches, bench_factor);
criterion_main!(benches);

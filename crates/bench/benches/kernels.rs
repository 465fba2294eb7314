//! Linear-algebra kernel benchmarks: the primitives every IDES operation
//! reduces to.
//!
//! The `matmul` group times the blocked kernel layer against the seed's
//! row-streaming `ikj` loop that was `Matrix::matmul` before the kernel
//! layer landed, and against itself forced onto the scalar tile; the
//! `svd` and `cholesky_solve_rows` groups pair each fast path with an
//! in-process control. `scripts/check_bench.sh` gates the within-run
//! ratios of those pairs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use ides_datasets::generators::p2psim_like;
use ides_linalg::cholesky::{cholesky, solve_cholesky_in_place, solve_cholesky_rows_in_place};
use ides_linalg::kernels::{self, reference};
use ides_linalg::qr::qr;
use ides_linalg::svd::{svd, svd_truncated, TruncatedSvdOptions};
use ides_linalg::{random, Matrix};

fn test_matrix(n: usize) -> Matrix {
    let mut rng = random::seeded_rng(99);
    // Distance-matrix-like: positive, zero diagonal, cluster structure.
    let base = random::uniform(n, 8, 0.5, 2.0, &mut rng);
    let mut m = base.matmul_tr(&base).unwrap().scale(10.0);
    for i in 0..n {
        m[(i, i)] = 0.0;
    }
    m
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    group.sample_size(10);
    for n in [64usize, 128, 256, 512] {
        let a = test_matrix(n);
        // Nominal flop convention for a square n-by-n product: 2n^3
        // (one multiply + one add per inner-loop step), so the emitted
        // `gflops` field is comparable across hosts and kernel back ends.
        group.throughput(Throughput::Flops(2 * (n as u64).pow(3)));
        group.bench_with_input(BenchmarkId::new("blocked", n), &a, |b, a| {
            b.iter(|| a.matmul(a).unwrap())
        });
        // The same blocked kernel on one thread, on the dispatched tile and
        // forced onto the portable scalar tile. `blocked_serial/512` is the
        // denominator of the gates that compare against other one-thread
        // work (`seed_ikj/512`, `rejoin`), so their ratios do not move with
        // whether the host's vCPUs run the fan-out in parallel;
        // `blocked_scalar/512 : blocked/512` is the SIMD-speedup gate.
        if n == 512 {
            for (name, isa) in [
                ("blocked_serial", kernels::active_isa()),
                ("blocked_scalar", kernels::Isa::Scalar),
            ] {
                group.bench_with_input(BenchmarkId::new(name, n), &a, |b, a| {
                    let mut out = vec![0.0f64; n * n];
                    b.iter(|| {
                        kernels::gemm_with_isa(
                            isa,
                            a.as_slice(),
                            kernels::Op::NoTrans,
                            n,
                            a.as_slice(),
                            kernels::Op::NoTrans,
                            n,
                            &mut out,
                            n,
                            n,
                            n,
                        );
                        out[0]
                    })
                });
            }
        }
        group.bench_with_input(BenchmarkId::new("seed_ikj", n), &a, |b, a| {
            b.iter(|| reference::matmul_ikj(a, a).unwrap())
        });
    }
    // The host join's product at the served shape (`k = 64` landmarks,
    // `d = 16`), as `LandmarkModel::join_into` runs it: a 131 072-host
    // measurement table read in place 256 rows at a time into one
    // cache-resident tile, each call too small to fan out.
    // 2·131072·64·16 = 2·512³ flops, so its median compares directly with
    // `blocked_serial/512`'s (`scripts/check_bench.sh` gates the ratio).
    let (hosts, k, d, tile) = (131_072usize, 64usize, 16usize, 256usize);
    let mut rng = random::seeded_rng(11);
    let table = random::uniform(hosts, k, 1.0, 200.0, &mut rng);
    let factor = random::uniform(k, d, -1.0, 1.0, &mut rng);
    let mut rhs = vec![0.0f64; tile * d];
    group.throughput(Throughput::Flops(2 * (hosts * k * d) as u64));
    group.bench_function(
        BenchmarkId::new("rejoin", format!("{hosts}x{k}x{d}")),
        |b| {
            b.iter(|| {
                for rows in table.as_slice().chunks_exact(tile * k) {
                    kernels::gemm(
                        rows,
                        kernels::Op::NoTrans,
                        k,
                        factor.as_slice(),
                        kernels::Op::NoTrans,
                        d,
                        &mut rhs,
                        tile,
                        d,
                        k,
                    );
                    black_box(&mut rhs);
                }
                rhs[0]
            })
        },
    );
    // NMF's `D · Y` on the paper's matrix (1024 hosts, `d = 10`): `n ≤ 16`
    // but `k` spans four KC panels, which the unpacked driver sums in the
    // packed driver's order. `narrow_deep_packed` is the same product, bit
    // for bit, through an `Op::Trans` operand — a stored `Dᵀ` — which only
    // the packed driver takes; `scripts/check_bench.sh` gates the ratio.
    let (m, k, d) = (1024usize, 1024usize, 10usize);
    let dist = test_matrix(m);
    let dist_t = dist.transpose();
    let factor = random::uniform(k, d, 0.1, 1.0, &mut rng);
    let mut out = vec![0.0f64; m * d];
    let mut out_packed = vec![0.0f64; m * d];
    let narrow = |out: &mut [f64]| {
        kernels::gemm(
            dist.as_slice(),
            kernels::Op::NoTrans,
            k,
            factor.as_slice(),
            kernels::Op::NoTrans,
            d,
            out,
            m,
            d,
            k,
        );
    };
    let packed = |out: &mut [f64]| {
        kernels::gemm(
            dist_t.as_slice(),
            kernels::Op::Trans,
            m,
            factor.as_slice(),
            kernels::Op::NoTrans,
            d,
            out,
            m,
            d,
            k,
        );
    };
    narrow(&mut out);
    packed(&mut out_packed);
    assert_eq!(out, out_packed, "both drivers compute the same bits");
    let shape = format!("{m}x{k}x{d}");
    group.throughput(Throughput::Flops(2 * (m * k * d) as u64));
    group.bench_function(BenchmarkId::new("narrow_deep", &shape), |b| {
        b.iter(|| {
            narrow(&mut out);
            out[0]
        })
    });
    group.bench_function(BenchmarkId::new("narrow_deep_packed", &shape), |b| {
        b.iter(|| {
            packed(&mut out_packed);
            out_packed[0]
        })
    });
    group.finish();
}

fn bench_gemm_variants(c: &mut Criterion) {
    // The transposed products the NMF/ALS inner loops lean on, at the
    // shapes those loops use them: skinny factors against a square matrix.
    let mut group = c.benchmark_group("gemm_variants");
    group.sample_size(10);
    let n = 512;
    let k = 10;
    let d = test_matrix(n);
    let mut rng = random::seeded_rng(7);
    let x = random::uniform(n, k, 0.1, 1.0, &mut rng);
    let y = random::uniform(n, k, 0.1, 1.0, &mut rng);
    group.bench_function("tr_matmul_gram_512x10", |b| {
        b.iter(|| y.tr_matmul(&y).unwrap())
    });
    group.bench_function("matmul_skinny_512x10", |b| b.iter(|| d.matmul(&y).unwrap()));
    group.bench_function("matmul_tr_recon_512x10", |b| {
        b.iter(|| x.matmul_tr(&y).unwrap())
    });
    let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    group.bench_function("matvec_512", |b| b.iter(|| d.matvec(&v).unwrap()));
    group.bench_function("tr_matvec_512", |b| b.iter(|| d.tr_matvec(&v).unwrap()));
    group.finish();
}

fn bench_svd(c: &mut Criterion) {
    let mut group = c.benchmark_group("svd");
    group.sample_size(10);
    for n in [32usize, 64, 110] {
        let a = test_matrix(n);
        group.bench_with_input(BenchmarkId::new("exact_jacobi", n), &a, |b, a| {
            b.iter(|| svd(a).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("truncated_d10", n), &a, |b, a| {
            b.iter(|| svd_truncated(a, 10, TruncatedSvdOptions::default()).unwrap())
        });
    }
    // The truncated path is the one that must scale to P2PSim size.
    // `test_matrix` is rank 8 plus a flat diagonal tail, so σ₉ … σ₁₈ are
    // clustered and the iteration needs ~125 sweeps to resolve σ₁₀.
    let big = test_matrix(512);
    group.bench_function("truncated_d10/512", |b| {
        b.iter(|| svd_truncated(&big, 10, TruncatedSvdOptions::default()).unwrap())
    });
    // The paper's case: a P2PSim-like matrix, beside the exact blocked SVD
    // of the same matrix as its in-process reference; scripts/check_bench.sh
    // gates their ratio.
    let ds = p2psim_like(572, 20041025).expect("dataset");
    let kept: Vec<usize> = (0..512).collect();
    let p2p = ds.matrix.submatrix(&kept, &kept).values().clone();
    group.bench_function("truncated_d10_p2psim/512", |b| {
        b.iter(|| svd_truncated(&p2p, 10, TruncatedSvdOptions::default()).unwrap())
    });
    group.bench_function("exact_blocked/512", |b| b.iter(|| svd(&p2p).unwrap()));
    group.finish();
}

fn bench_qr(c: &mut Criterion) {
    let mut group = c.benchmark_group("qr");
    group.sample_size(10);
    for n in [32usize, 110] {
        let a = test_matrix(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &a, |b, a| {
            b.iter(|| qr(a).unwrap())
        });
    }
    group.finish();
}

fn bench_cholesky_solve_rows(c: &mut Criterion) {
    // The host-join solve step at the bulk shape (65 536 right-hand-side
    // rows against one 16x16 factor): the lane-blocked multi-row solve
    // against a loop over the single-row solve — the same arithmetic one
    // row at a time, and the in-process control `scripts/check_bench.sh`
    // gates the blocked path against.
    let mut group = c.benchmark_group("cholesky_solve_rows");
    group.sample_size(10);
    let (d, rows) = (16usize, 65_536usize);
    let mut rng = random::seeded_rng(5);
    let design = random::uniform(4 * d, d, 0.1, 1.0, &mut rng);
    let gram = design.tr_matmul(&design).unwrap();
    let l = cholesky(&gram).unwrap().l().clone();
    let source = random::uniform(rows, d, -1.0, 1.0, &mut rng);
    let mut rhs = source.clone();
    group.bench_function(BenchmarkId::new("blocked", d), |b| {
        b.iter(|| {
            rhs.as_mut_slice().copy_from_slice(source.as_slice());
            solve_cholesky_rows_in_place(&l, &mut rhs).unwrap();
            rhs[(0, 0)]
        })
    });
    group.bench_function(BenchmarkId::new("per_row", d), |b| {
        b.iter(|| {
            rhs.as_mut_slice().copy_from_slice(source.as_slice());
            for row in rhs.as_mut_slice().chunks_exact_mut(d) {
                solve_cholesky_in_place(&l, row).unwrap();
            }
            rhs[(0, 0)]
        })
    });
    // A lone host join's solve: one right-hand-side row at the same d.
    // The multi-row entry point must cost what the one-row solve does
    // (`scripts/check_bench.sh` caps `blocked/1` at 1.2x `per_row/1`), not
    // a 16-lane block of mostly zeros. Both sides are sub-microsecond
    // solves whose host-speed drift between two separate loops spans that
    // ceiling, so their samples alternate in one loop.
    let one = Matrix::from_rows(&[source.row(0).to_vec()]).unwrap();
    let (mut rhs_blocked, mut rhs_row) = (one.clone(), one.clone());
    group.bench_pair(
        BenchmarkId::new("blocked", 1),
        |b| {
            b.iter(|| {
                rhs_blocked.as_mut_slice().copy_from_slice(one.as_slice());
                solve_cholesky_rows_in_place(&l, &mut rhs_blocked).unwrap();
                rhs_blocked[(0, 0)]
            })
        },
        BenchmarkId::new("per_row", 1),
        |b| {
            b.iter(|| {
                rhs_row.as_mut_slice().copy_from_slice(one.as_slice());
                solve_cholesky_in_place(&l, rhs_row.as_mut_slice()).unwrap();
                rhs_row[(0, 0)]
            })
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_gemm_variants,
    bench_svd,
    bench_qr,
    bench_cholesky_solve_rows
);
criterion_main!(benches);

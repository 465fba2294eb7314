//! Host-join solver ablation (README §"Ablations"): the paper writes the
//! join as normal equations (Eqs. 13–14); we default to Householder QR.
//! This bench quantifies the cost of each solver, plus the NNLS variant, at
//! realistic landmark counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ides::projection::{join_host, JoinOptions, JoinSolver};
use ides::system::{split_landmarks, IdesConfig, InformationServer};
use ides_datasets::generators::nlanr_like;

fn bench_join(c: &mut Criterion) {
    let ds = nlanr_like(110, 55).expect("dataset");
    let mut group = c.benchmark_group("host_join");
    group.sample_size(10);
    for m in [20usize, 50] {
        let (landmarks, ordinary) = split_landmarks(110, m, 2);
        let lm = ds.matrix.submatrix(&landmarks, &landmarks);
        let server = InformationServer::build(&lm, IdesConfig::new(8)).expect("server");
        let h = ordinary[0];
        let d_out: Vec<f64> = landmarks
            .iter()
            .map(|&l| ds.matrix.get(h, l).unwrap())
            .collect();
        let d_in: Vec<f64> = landmarks
            .iter()
            .map(|&l| ds.matrix.get(l, h).unwrap())
            .collect();

        for (label, solver) in [
            ("qr", JoinSolver::Qr),
            ("normal_eq", JoinSolver::NormalEquations),
            ("nnls", JoinSolver::NonNegative),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, format!("{m}_landmarks")),
                &(
                    server.model().x().clone(),
                    server.model().y().clone(),
                    d_out.clone(),
                    d_in.clone(),
                ),
                |b, (x, y, d_out, d_in)| {
                    let opts = JoinOptions { solver, ridge: 0.0 };
                    b.iter(|| join_host(x, y, d_out, d_in, opts).expect("join"))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_join);
criterion_main!(benches);

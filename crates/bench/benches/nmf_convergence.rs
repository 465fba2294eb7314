//! NMF sweep-budget ablation (README §"Ablations"): the paper claims "two
//! hundred iterations suffice". This bench times NMF from its random start
//! at several fixed sweep budgets (early stopping off) so the time/accuracy
//! trade-off can be read off together with the error traces from the fig3
//! experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ides_datasets::generators::nlanr_like;
use ides_mf::nmf::{fit, NmfConfig};

fn bench_nmf(c: &mut Criterion) {
    let ds = nlanr_like(110, 66).expect("dataset");
    let mut group = c.benchmark_group("nmf");
    group.sample_size(10);
    for sweeps in [50usize, 200, 500] {
        let id = BenchmarkId::new("random_init_sweeps", sweeps);
        group.bench_with_input(id, &sweeps, |b, &sweeps| {
            let cfg = NmfConfig {
                iterations: sweeps,
                tolerance: 0.0,
                ..NmfConfig::new(10)
            };
            b.iter(|| fit(&ds.matrix, cfg).expect("nmf fit"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_nmf);
criterion_main!(benches);

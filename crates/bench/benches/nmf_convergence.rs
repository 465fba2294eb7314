//! NMF sweep-budget ablation (DESIGN.md §5): the paper claims "two hundred
//! iterations suffice". This bench times NMF at several fixed sweep budgets
//! (early stopping off) and init strategies so the time/accuracy trade-off
//! can be read off together with the error traces from the fig3
//! experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ides_datasets::generators::nlanr_like;
use ides_mf::nmf::{fit, NmfConfig, NmfInit};

fn bench_nmf(c: &mut Criterion) {
    let ds = nlanr_like(110, 66).expect("dataset");
    let mut group = c.benchmark_group("nmf");
    group.sample_size(10);
    for sweeps in [50usize, 200, 500] {
        for (label, init) in [
            ("svd_init_sweeps", NmfInit::Svd),
            ("random_init_sweeps", NmfInit::Random),
        ] {
            group.bench_with_input(BenchmarkId::new(label, sweeps), &sweeps, |b, &sweeps| {
                let cfg = NmfConfig {
                    iterations: sweeps,
                    tolerance: 0.0,
                    init,
                    ..NmfConfig::new(10)
                };
                b.iter(|| fit(&ds.matrix, cfg).expect("nmf fit"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_nmf);
criterion_main!(benches);

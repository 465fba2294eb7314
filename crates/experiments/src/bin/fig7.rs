//! Figure 7: median prediction error vs fraction of unobserved landmarks,
//! IDES/SVD, with 20 and 50 landmarks.
//!
//! Usage: `fig7 [nlanr|p2psim]` (default: both).
//!
//! Expected shape (paper): with 20 landmarks (close to 2·d) accuracy is
//! sensitive to failures; with 50 landmarks, losing even 40 % of them has
//! little impact — the headline robustness result of §6.2.

use ides::eval::evaluate_ides_with_failures;
use ides::system::{split_landmarks, IdesConfig};
use ides_experiments::{arg1, print_summary, seed, Dataset};

fn run(dataset: Dataset, dim: usize) {
    let ds = dataset.generate(seed());
    print_summary(&ds);
    let data = if ds.matrix.is_complete() {
        ds.matrix.clone()
    } else {
        ds.matrix.filter_complete().expect("square dataset").0
    };
    let n = data.rows();
    let fractions: Vec<f64> = (0..=8).map(|k| k as f64 * 0.1).collect();

    let landmark_counts: Vec<usize> = [20usize, 50].into_iter().filter(|&m| m + 2 < n).collect();
    let series: Vec<(usize, Vec<(f64, f64)>)> = std::thread::scope(|s| {
        let handles: Vec<_> = landmark_counts
            .iter()
            .map(|&m| {
                let data = &data;
                let fractions = &fractions;
                s.spawn(move || {
                    let (landmarks, ordinary) = split_landmarks(n, m, seed());
                    let points: Vec<(f64, f64)> = fractions
                        .iter()
                        .map(|&f| {
                            let r = evaluate_ides_with_failures(
                                data,
                                &landmarks,
                                &ordinary,
                                IdesConfig::new(dim),
                                f,
                                seed() ^ (m as u64) << 8,
                            )
                            .expect("failure evaluation");
                            (f, r.into_cdf().median())
                        })
                        .collect();
                    (m, points)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread"))
            .collect()
    });

    for (m, points) in series {
        println!(
            "\n# series: {} / {} landmarks, d={}",
            dataset.name(),
            m,
            dim
        );
        println!("# unobserved_fraction median_relative_error");
        for (f, median) in points {
            println!("{f:.1} {median:.5}");
        }
    }
}

fn main() {
    println!("# Figure 7: median relative error vs fraction of unobserved landmarks (IDES/SVD)");
    match arg1().as_deref() {
        Some(name) => {
            let ds = ides_experiments::Dataset::parse(name).unwrap_or_else(|| {
                eprintln!("unknown dataset {name:?}; expected nlanr or p2psim");
                std::process::exit(2);
            });
            let dim = if ds == Dataset::P2pSim { 10 } else { 8 };
            run(ds, dim);
        }
        None => {
            run(Dataset::Nlanr, 8); // paper: d = 8 on NLANR
            run(Dataset::P2pSim, 10); // paper: d = 10 on P2PSim
        }
    }
}

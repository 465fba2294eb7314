//! Figure 3: median reconstruction relative error vs model dimension for
//! SVD, NMF and Lipschitz+PCA, over the NLANR-like (a) and P2PSim-like (b)
//! data sets.
//!
//! Usage: `fig3 [nlanr|p2psim]` (default: both).
//!
//! Expected shape (paper): SVD and NMF nearly identical for d < 10 and
//! ~5× more accurate than Lipschitz+PCA at d = 10; SVD slightly better
//! than NMF at large d (NMF only reaches local minima); diminishing
//! returns past d ≈ 10.

use ides_datasets::DistanceMatrix;
use ides_experiments::{arg1, print_summary, seed, Dataset};
use ides_linalg::svd::{svd_truncated, TruncatedSvdOptions};
use ides_mf::lipschitz::LipschitzPca;
use ides_mf::metrics::{reconstruction_errors, Cdf};
use ides_mf::nmf::{self, NmfConfig};
use ides_mf::svd_model::model_from_svd;

fn dims_for(n: usize) -> Vec<usize> {
    [1, 2, 3, 4, 5, 6, 8, 10, 14, 20, 30, 40, 60, 80, 100]
        .into_iter()
        .filter(|&d| d < n)
        .collect()
}

fn run(dataset: Dataset) {
    let ds = dataset.generate(seed());
    print_summary(&ds);
    let data = if ds.matrix.is_complete() {
        ds.matrix.clone()
    } else {
        ds.matrix.filter_complete().expect("square dataset").0
    };
    let n = data.rows();
    let dims = dims_for(n);
    let max_d = *dims.last().expect("at least one dim");

    // One wide truncated SVD serves every d (truncation nests). The
    // subspace iteration re-orthonormalizes through the blocked QR of the
    // factorization layer, and its near-full-rank fallback is the blocked
    // Golub–Kahan SVD — the same entry points the estimators use.
    let wide = svd_truncated(data.values(), max_d, TruncatedSvdOptions::default())
        .expect("svd of dataset");

    // The three method sweeps are independent — run them on scoped threads.
    let (svd_series, nmf_series, lip_series) = std::thread::scope(|s| {
        let svd_handle = s.spawn(|| {
            dims.iter()
                .map(|&d| {
                    let model = model_from_svd(&wide, d);
                    (d, Cdf::new(reconstruction_errors(&model, &data)).median())
                })
                .collect::<Vec<_>>()
        });
        let nmf_handle = s.spawn(|| {
            dims.iter()
                .map(|&d| {
                    // Large matrices: thin the grid at large d where the
                    // curve has flattened.
                    if n > 500 && d > 40 && d != *dims.last().expect("nonempty") {
                        return (d, f64::NAN); // skipped point, filtered below
                    }
                    let fit = nmf::fit(&data, NmfConfig::new(d)).expect("nmf fit");
                    (
                        d,
                        Cdf::new(reconstruction_errors(&fit.model, &data)).median(),
                    )
                })
                .filter(|&(_, v)| !v.is_nan())
                .collect::<Vec<_>>()
        });
        let lip_handle = s.spawn(|| {
            // PCA components nest: fit once at the max dimension, truncate.
            let wide = LipschitzPca::fit(&data, max_d).expect("lipschitz fit");
            dims.iter()
                .map(|&d| {
                    let model = wide.truncate(&data, d).expect("lipschitz truncate");
                    (d, Cdf::new(reconstruction_errors(&model, &data)).median())
                })
                .collect::<Vec<_>>()
        });
        (
            svd_handle.join().expect("svd sweep"),
            nmf_handle.join().expect("nmf sweep"),
            lip_handle.join().expect("lipschitz sweep"),
        )
    });

    for (label, series) in [
        ("SVD", &svd_series),
        ("NMF", &nmf_series),
        ("Lipschitz+PCA", &lip_series),
    ] {
        println!("\n# series: {} / {}", dataset.name(), label);
        println!("# dimension median_relative_error");
        for (d, median) in series {
            println!("{d} {median:.5}");
        }
    }
    let _ = &data as &DistanceMatrix;
}

fn main() {
    println!("# Figure 3: median relative error vs dimension (SVD, NMF, Lipschitz+PCA)");
    match arg1().as_deref() {
        Some(name) => {
            let ds = Dataset::parse(name).unwrap_or_else(|| {
                eprintln!("unknown dataset {name:?}; expected nlanr or p2psim");
                std::process::exit(2);
            });
            run(ds);
        }
        None => {
            run(Dataset::Nlanr);
            run(Dataset::P2pSim);
        }
    }
}

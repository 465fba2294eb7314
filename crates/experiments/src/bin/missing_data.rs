//! Missing-data extension experiment (not a paper figure; extends §4.2).
//!
//! The paper's main argument for NMF is its masked objective (Eqs. 8–9)
//! that tolerates missing matrix entries, where SVD must drop hosts. This
//! experiment quantifies that: hide a growing random fraction of the
//! entries of an NLANR-like matrix, fit masked NMF and ALS on the
//! survivors, and measure reconstruction error separately on the
//! *observed* entries (fit quality) and the *hidden* ones (imputation /
//! matrix completion quality). NMF runs its default configuration
//! (`NmfConfig::new`: masked HALS sweeps from a random start, stopped at a
//! 0.1 % relative improvement), so the curve is the product's own.

use ides_experiments::{seed, Dataset};
use ides_linalg::Matrix;
use ides_mf::metrics::{modified_relative_error, Cdf};
use ides_mf::model::DistanceEstimator;
use ides_mf::{als, nmf};
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let dim = 10;
    println!("# Missing-data extension: masked NMF / ALS vs fraction of hidden entries, d = {dim}");
    let ds = Dataset::Nlanr.generate(seed());
    let full = &ds.matrix;
    let n = full.rows();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed() ^ 0xDA7A);

    // Off-diagonal cells, shuffled once; each fraction hides a prefix.
    let mut cells: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .filter(|&(i, j)| i != j)
        .collect();
    cells.shuffle(&mut rng);

    println!(
        "# fraction_hidden  nmf_obs_median nmf_hidden_median  als_obs_median als_hidden_median"
    );
    for hidden_pct in [0usize, 5, 10, 20, 30, 40, 50] {
        let hidden_count = cells.len() * hidden_pct / 100;
        let hidden = &cells[..hidden_count];
        let mut mask = Matrix::filled(n, n, 1.0);
        let mut values = full.values().clone();
        for &(i, j) in hidden {
            mask[(i, j)] = 0.0;
            values[(i, j)] = 0.0;
        }
        let masked = ides_datasets::DistanceMatrix::with_mask("masked", values, mask)
            .expect("valid masked matrix");

        let nmf_fit = nmf::fit(&masked, nmf::NmfConfig::new(dim)).expect("nmf fit");
        let als_fit = als::fit(
            &masked,
            als::AlsConfig {
                sweeps: 25,
                ..als::AlsConfig::new(dim)
            },
        )
        .expect("als fit");

        let score = |model: &dyn DistanceEstimator| -> (f64, f64) {
            let mut obs = Vec::new();
            let mut hid = Vec::new();
            for i in 0..n {
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let actual = full.get(i, j).expect("full matrix");
                    if actual <= 0.0 {
                        continue;
                    }
                    let err = modified_relative_error(actual, model.estimate(i, j));
                    if masked.get(i, j).is_some() {
                        obs.push(err);
                    } else {
                        hid.push(err);
                    }
                }
            }
            (
                Cdf::new(obs).median(),
                if hid.is_empty() {
                    f64::NAN
                } else {
                    Cdf::new(hid).median()
                },
            )
        };
        let (nmf_obs, nmf_hid) = score(&nmf_fit.model);
        let (als_obs, als_hid) = score(&als_fit.model);
        println!(
            "{:.2} {nmf_obs:.4} {nmf_hid:.4} {als_obs:.4} {als_hid:.4}",
            hidden_pct as f64 / 100.0
        );
    }
}

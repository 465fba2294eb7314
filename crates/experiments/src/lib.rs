//! Shared harness for the per-figure/per-table experiment binaries.
//!
//! Each binary regenerates one table or figure from the paper's evaluation
//! (§4.3 and §6), and its doc comment names which; the rest extend the
//! paper and say so. Output is plain text: one series per block, `x y`
//! rows, suitable for gnuplot or eyeballing against the paper's plots.

use ides_datasets::generators::{self, paper_sizes, GeneratedDataset};
use ides_datasets::stats;

/// Scale knob for quick runs: `IDES_SCALE` in `(0, 1]` shrinks every data
/// set (e.g. `IDES_SCALE=0.1 cargo run --bin fig2`). Defaults to 1 (paper
/// sizes).
pub fn scale() -> f64 {
    std::env::var("IDES_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0 && s <= 1.0)
        .unwrap_or(1.0)
}

/// Applies the scale factor to a paper-scale host count (minimum 12).
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()).round() as usize).max(12)
}

/// Master seed for all experiments (override with `IDES_SEED`).
pub fn seed() -> u64 {
    std::env::var("IDES_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20041025)
}

/// The five paper data sets by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// NLANR AMP 110-host clique stand-in.
    Nlanr,
    /// GNP 19-host symmetric set stand-in.
    Gnp,
    /// AGNP 869×19 asymmetric set stand-in.
    Agnp,
    /// P2PSim/King ~1143-host set stand-in.
    P2pSim,
    /// PlanetLab all-pairs-ping 169-host set stand-in.
    PlRtt,
}

impl Dataset {
    /// Parses a dataset name (as passed on the command line).
    pub fn parse(name: &str) -> Option<Dataset> {
        match name.to_ascii_lowercase().as_str() {
            "nlanr" => Some(Dataset::Nlanr),
            "gnp" => Some(Dataset::Gnp),
            "agnp" => Some(Dataset::Agnp),
            "p2psim" => Some(Dataset::P2pSim),
            "plrtt" | "pl-rtt" => Some(Dataset::PlRtt),
            _ => None,
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Nlanr => "nlanr",
            Dataset::Gnp => "gnp",
            Dataset::Agnp => "agnp",
            Dataset::P2pSim => "p2psim",
            Dataset::PlRtt => "pl-rtt",
        }
    }

    /// Generates the data set at the configured scale.
    pub fn generate(self, seed: u64) -> GeneratedDataset {
        match self {
            Dataset::Nlanr => {
                generators::nlanr_like(scaled(paper_sizes::NLANR), seed).expect("nlanr generation")
            }
            Dataset::Gnp => generators::gnp_like(scaled(paper_sizes::GNP).min(19), seed)
                .expect("gnp generation"),
            Dataset::Agnp => generators::agnp_like(
                scaled(paper_sizes::AGNP_ROWS),
                scaled(paper_sizes::AGNP_COLS).min(19),
                seed,
            )
            .expect("agnp generation"),
            Dataset::P2pSim => generators::p2psim_like(scaled(paper_sizes::P2PSIM), seed)
                .expect("p2psim generation"),
            Dataset::PlRtt => {
                generators::plrtt_like(scaled(paper_sizes::PLRTT), seed).expect("plrtt generation")
            }
        }
    }

    /// All five data sets.
    pub fn all() -> [Dataset; 5] {
        [
            Dataset::Nlanr,
            Dataset::Gnp,
            Dataset::Agnp,
            Dataset::P2pSim,
            Dataset::PlRtt,
        ]
    }
}

/// Prints a dataset summary header (shape, TIV fraction, asymmetry, rank).
pub fn print_summary(ds: &GeneratedDataset) {
    let s = stats::summarize(&ds.matrix);
    println!(
        "# {}: {}x{}, mean RTT {:.1} ms, observed {:.1}%, TIV {:.1}%, asym {:.3}, eff-rank(95%) {}",
        s.name,
        s.shape.0,
        s.shape.1,
        s.mean_rtt_ms,
        s.observed_fraction * 100.0,
        s.tiv_fraction * 100.0,
        s.asymmetry,
        s.effective_rank_95
    );
}

/// Prints one CDF series in `value probability` rows under a `# label`.
pub fn print_cdf(label: &str, cdf: &ides_mf::metrics::Cdf, points: usize) {
    println!(
        "\n# series: {label} (n={}, median={:.4}, p90={:.4})",
        cdf.len(),
        cdf.median(),
        cdf.p90()
    );
    for (value, prob) in cdf.curve(points) {
        println!("{value:.5} {prob:.4}");
    }
}

/// First CLI argument, lowercased.
pub fn arg1() -> Option<String> {
    std::env::args().nth(1).map(|s| s.to_ascii_lowercase())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_parsing() {
        assert_eq!(Dataset::parse("NLANR"), Some(Dataset::Nlanr));
        assert_eq!(Dataset::parse("pl-rtt"), Some(Dataset::PlRtt));
        assert_eq!(Dataset::parse("plrtt"), Some(Dataset::PlRtt));
        assert_eq!(Dataset::parse("bogus"), None);
        for d in Dataset::all() {
            assert_eq!(Dataset::parse(d.name()), Some(d));
        }
    }

    #[test]
    fn scaled_has_floor() {
        // Without the env var, scale is 1.
        assert_eq!(scaled(110), 110);
    }
}

//! Prints the structural statistics of all five synthetic data sets —
//! the sanity check that the substrate reproduces the phenomena the paper
//! relies on (triangle-inequality violations, asymmetry, low effective
//! rank). Not a paper figure, but the evidence behind the substitutions
//! that the generators in `ides_datasets::generators` document.

use ides_experiments::{print_summary, seed, Dataset};

fn main() {
    println!("# Data set summaries (synthetic stand-ins; see ides_datasets::generators)");
    for dataset in Dataset::all() {
        let ds = dataset.generate(seed());
        print_summary(&ds);
    }
}

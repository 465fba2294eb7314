//! Random matrix constructors (seeded, for reproducible experiments).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// Uniform random matrix with entries in `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

/// Convenience: a seeded RNG for reproducible experiments.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_range_and_determinism() {
        let mut r1 = seeded_rng(42);
        let mut r2 = seeded_rng(42);
        let a = uniform(10, 10, 2.0, 5.0, &mut r1);
        let b = uniform(10, 10, 2.0, 5.0, &mut r2);
        assert_eq!(a, b);
        assert!(a.as_slice().iter().all(|&x| (2.0..5.0).contains(&x)));
    }

    #[test]
    fn different_seeds_differ() {
        let a = uniform(5, 5, 0.0, 1.0, &mut seeded_rng(1));
        let b = uniform(5, 5, 0.0, 1.0, &mut seeded_rng(2));
        assert_ne!(a, b);
    }
}

//! splitmix64: the benchmark's only source of randomness for its own
//! draws (pair lists, host samples, churn rows). Hand-rolled so the
//! ruler does not move when the vendored `rand` shim does.

/// Sebastiano Vigna's splitmix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (widening multiply; `n` must be non-zero).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform draw in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An independent stream for `tag`, so adding draws to one phase
    /// never shifts the inputs of another.
    pub fn fork(&self, tag: u64) -> SplitMix64 {
        let mut s = SplitMix64(self.0 ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        SplitMix64(s.next_u64())
    }

    /// `count` distinct values from `0..n`, in draw order.
    pub fn sample_distinct(&mut self, n: usize, count: usize) -> Vec<usize> {
        assert!(count <= n, "sample larger than population");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..count {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(count);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_stream() {
        // First outputs of splitmix64 seeded with 1234567 (Vigna's
        // reference implementation).
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn same_seed_same_stream_and_forks_differ() {
        let mut a = SplitMix64::new(20041025);
        let mut b = SplitMix64::new(20041025);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let root = SplitMix64::new(7);
        assert_eq!(root.fork(1).next_u64(), root.fork(1).next_u64());
        assert_ne!(root.fork(1).next_u64(), root.fork(2).next_u64());
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut r = SplitMix64::new(3);
        for n in [1usize, 2, 7, 1000] {
            for _ in 0..1000 {
                assert!(r.below(n) < n);
            }
        }
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
        let s = r.sample_distinct(50, 20);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
        assert!(s.iter().all(|&v| v < 50));
    }
}

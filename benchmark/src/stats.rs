//! Sample summaries: medians, the percentile rule, quartile spreads.

/// The tail percentiles the benchmark may report, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.90, 0.75];

/// A percentile is reported only with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest rank of percentile `p` among `n` samples (the epsilon keeps
/// `0.99 * 1000` from rounding up to rank 991).
fn rank_of(p: f64, n: usize) -> usize {
    (p * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank_of(q, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// Median of the samples (mean of the two middle ones for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile of the ladder, at most `want`, that still has
/// [`MIN_BEYOND`] samples beyond it among `n`; `None` when even the
/// lowest rung does not (only the median may be reported then).
pub fn supported_tail(n: usize, want: f64) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .filter(|&p| p <= want)
        .find(|&p| n >= rank_of(p, n) + MIN_BEYOND)
}

/// Median and supported tail of one timing series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The tail value and the percentile it was taken at (the requested
    /// one, or the highest lower rung the sample count supports). With
    /// too few samples for any rung this is the maximum at percentile 1.
    pub tail: f64,
    pub tail_p: f64,
}

/// Summarises `samples`, asking for the `want` tail percentile.
pub fn summarize(samples: &[f64], want: f64) -> Summary {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let (tail, tail_p) = match supported_tail(s.len(), want) {
        Some(p) => (quantile_sorted(&s, p), p),
        None => (*s.last().expect("summary of no samples"), 1.0),
    };
    Summary {
        n: s.len(),
        p50: median(&s),
        tail,
        tail_p,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so spreads computed here match the
/// acceptance check's.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median (0 for one value).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1).abs() / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p99 of 1000 has exactly 10 beyond; of 999 it has 9.
        assert_eq!(supported_tail(1000, 0.99), Some(0.99));
        assert_eq!(supported_tail(999, 0.99), Some(0.95));
        assert_eq!(supported_tail(10_000, 0.999), Some(0.999));
        assert_eq!(supported_tail(10_000, 0.99), Some(0.99));
        // 40 epochs: p75 leaves 10 beyond, p90 only 4.
        assert_eq!(supported_tail(40, 0.99), Some(0.75));
        assert_eq!(supported_tail(39, 0.99), None);
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        let s = summarize(&few, 0.99);
        assert_eq!((s.n, s.p50, s.tail, s.tail_p), (12, 6.5, 12.0, 1.0));
    }

    #[test]
    fn summary_takes_the_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v, 0.99);
        assert_eq!(s.p50, 500.5);
        assert_eq!((s.tail, s.tail_p), (990.0, 0.99));
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 1000.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(spread(&[5.0]), 0.0);
    }
}

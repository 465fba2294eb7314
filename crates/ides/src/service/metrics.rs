//! Serving-side measurement: latency histograms and counter snapshots.
//!
//! The load harness records each operation's latency into a
//! [`LatencyHistogram`] — log-spaced buckets (4 per octave, ~19 % wide)
//! covering nanoseconds to minutes in a fixed 256-slot array, so
//! recording is allocation-free and O(1) and per-thread histograms merge
//! exactly. Quantiles interpolate by rank within the bucket that crosses
//! the requested rank, which is plenty for p50/p99 reporting (the bucket
//! width bounds the relative error). The bucket layout is shared with
//! the telemetry registry's striped atomic timers
//! ([`crate::telemetry::registry`]) and walked by the Prometheus
//! exporter via [`LatencyHistogram::bucket_counts`] /
//! [`LatencyHistogram::bucket_bounds`].

use std::time::Duration;

/// Buckets per octave (power of two) of latency.
pub(crate) const SUB: usize = 4;
/// Total bucket count: 64 octaves x `SUB`.
pub(crate) const BUCKETS: usize = 64 * SUB;

/// Fixed-size log-bucketed latency histogram.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: Box::new([0; BUCKETS]),
            total: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

/// Bucket index of a nanosecond value: octave = floor(log2 ns), plus the
/// top two mantissa bits as the sub-bucket.
pub(crate) fn bucket_of(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize; // the first few buckets are exact
    }
    let octave = 63 - ns.leading_zeros() as usize;
    let sub = ((ns >> (octave - 2)) & 0b11) as usize;
    (octave * SUB + sub).min(BUCKETS - 1)
}

/// Lower bound (ns) of bucket `b` — inverse of [`bucket_of`].
pub(crate) fn bucket_floor(b: usize) -> u64 {
    if b < SUB {
        return b as u64;
    }
    let octave = b / SUB;
    let sub = b % SUB;
    if octave < 2 {
        // bucket_of never produces octave-1 indices (values below `SUB`
        // map exactly to the first buckets; values >= SUB have
        // octave >= 2), so these permanently-empty buckets just need a
        // floor that keeps the bounds monotone.
        return SUB as u64;
    }
    (1u64 << octave) + ((sub as u64) << (octave - 2))
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_ns / self.total as u128) as u64)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns)
    }

    /// Exact sum of all recorded samples in nanoseconds — the
    /// Prometheus `_sum` value (integer, so it reconciles exactly with
    /// the per-sample totals a load report prints).
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Per-bucket sample counts, low to high — one entry per bucket of
    /// the fixed log-spaced layout, in lockstep with
    /// [`LatencyHistogram::bucket_bounds`].
    pub fn bucket_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.counts.iter().copied()
    }

    /// Per-bucket `(lower, upper)` bounds in nanoseconds, low to high. A
    /// bucket with count `c` holds `c` samples in `lower..upper` (the
    /// last bucket is open-ended: its upper bound is `u64::MAX`). The
    /// upper bound is the Prometheus `le` label of the cumulative
    /// `_bucket` series.
    pub fn bucket_bounds() -> impl Iterator<Item = (u64, u64)> {
        (0..BUCKETS).map(|b| {
            let lo = bucket_floor(b);
            let hi = if b + 1 < BUCKETS {
                bucket_floor(b + 1)
            } else {
                u64::MAX
            };
            (lo, hi)
        })
    }

    /// The `q`-quantile (`0 < q <= 1`), e.g. `0.5` for p50, `0.99` for
    /// p99. Interpolates linearly **by rank** within the bucket that
    /// crosses the requested rank: if the bucket `[lo, hi)` holds samples
    /// of ranks `(prior, prior + c]`, the returned value is
    /// `lo + (hi − lo)·(rank − prior)/c`, clamped to the recorded
    /// maximum. A bucket holding a single quantile's whole mass thus
    /// reports a value that moves monotonically with `q` instead of a
    /// constant midpoint. Zero when empty; depends only on the bucket
    /// counts, so exactly-merged histograms report identical quantiles.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let prior = seen;
            seen += c;
            if seen >= rank {
                let lo = bucket_floor(b) as f64;
                let hi = bucket_floor((b + 1).min(BUCKETS - 1)).max(bucket_floor(b) + 1) as f64;
                let frac = (rank - prior) as f64 / c as f64;
                let v = (lo + (hi - lo) * frac).min(self.max_ns as f64);
                return Duration::from_nanos(v as u64);
            }
        }
        Duration::from_nanos(self.max_ns)
    }

    /// Folds `count` samples pre-assigned to `bucket` into the histogram
    /// (exact bucket-wise sum; the telemetry registry's striped atomic
    /// timers merge through this).
    pub(crate) fn absorb_bucket(&mut self, bucket: usize, count: u64) {
        self.counts[bucket] += count;
        self.total += count;
    }

    /// Folds a stripe's aggregate sum/max in (companion of
    /// [`LatencyHistogram::absorb_bucket`]).
    pub(crate) fn absorb_aggregate(&mut self, sum_ns: u128, max_ns: u64) {
        self.sum_ns += sum_ns;
        self.max_ns = self.max_ns.max(max_ns);
    }

    /// Adds every sample of `other` into `self` (exact: bucket-wise sum).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// Counter snapshot of a [`crate::service::ShardedEngine`] or of one of
/// its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    /// Pair estimates served.
    pub queries: u64,
    /// Always 0 since PR 12 (the pair cache is gone); field kept for the
    /// benchmark's frozen surface, dropped with `service.cache.hit_ratio`.
    pub cache_hits: u64,
    /// Hosts admitted (coalesced and direct).
    pub joins: u64,
    /// Admission flushes (one batched solve + publish each): one per
    /// group-commit generation, per `join_direct` and per shard of a
    /// `join_many`. `joins / flushes` is the realized batch size — 1 on
    /// an idle writer, growing with the joiners that queue up while the
    /// writer is busy.
    pub flushes: u64,
    /// Hosts retired.
    pub leaves: u64,
    /// Drift epochs applied.
    pub epochs: u64,
    /// Version of the currently published snapshot.
    pub version: u64,
    /// Hosts in the pending group-commit generation: enqueued, their
    /// leader still waiting for the writer lock. 0 whenever the writer is
    /// idle — the gauge measures contention, not a timer's backlog;
    /// summed across shards.
    pub coalescer_depth: u64,
    /// Coordinate-table chunks the latest published snapshot shares with
    /// its predecessor (copy-on-write reuse at the last publish).
    pub chunk_shared: u64,
    /// Total coordinate-table chunks in the latest published snapshot —
    /// the denominator of [`ServiceStats::chunk_share_ratio`].
    pub chunk_total: u64,
    /// Bytes held by the stored host measurement rows as of the latest
    /// publish: slots (live and retired) × landmarks × 8 per table held —
    /// one table while every stored row is symmetric, two after the
    /// first asymmetric one. Summed across shards.
    pub measurement_bytes: u64,
}

impl ServiceStats {
    /// Fraction of the latest snapshot's coordinate-table chunks reused
    /// from its predecessor (1.0 = publish copied nothing; 0 before the
    /// first incremental publish or when the table is empty).
    pub fn chunk_share_ratio(&self) -> f64 {
        if self.chunk_total == 0 {
            0.0
        } else {
            self.chunk_shared as f64 / self.chunk_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_invertible() {
        let mut prev = 0;
        for ns in [0u64, 1, 2, 3, 4, 7, 8, 100, 1_000, 1_000_000, u64::MAX / 2] {
            let b = bucket_of(ns);
            assert!(b >= prev || ns < 8, "bucket order broke at {ns}");
            prev = b;
            assert!(
                bucket_floor(b) <= ns.max(1),
                "floor {} above value {ns}",
                bucket_floor(b)
            );
        }
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let mut h = LatencyHistogram::new();
        // 99 samples at ~1µs, 1 sample at ~1ms.
        for _ in 0..99 {
            h.record(Duration::from_micros(1));
        }
        h.record(Duration::from_millis(1));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile(0.5).as_nanos() as f64;
        assert!((800.0..1300.0).contains(&p50), "p50 {p50}ns");
        let p99 = h.quantile(0.99).as_nanos() as f64;
        assert!(p99 < 2000.0, "p99 {p99}ns should still be in the 1µs mass");
        let p100 = h.quantile(1.0);
        assert!(p100.as_micros() >= 800, "max-quantile {p100:?}");
        assert!(h.max() >= Duration::from_micros(999));
        assert!(h.mean() > Duration::from_micros(1));
    }

    #[test]
    fn merge_is_exact() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..50u64 {
            let d = Duration::from_nanos(100 + i * 13);
            a.record(d);
            whole.record(d);
        }
        for i in 0..70u64 {
            let d = Duration::from_micros(3 + i);
            b.record(d);
            whole.record(d);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.mean(), whole.mean());
        assert_eq!(a.max(), whole.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn quantile_interpolates_by_rank_within_bucket() {
        // 100 identical samples all land in one bucket: the quantile must
        // move monotonically with q across that bucket's span instead of
        // returning one constant midpoint.
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(Duration::from_nanos(1000));
        }
        let (lo, hi) = LatencyHistogram::bucket_bounds()
            .nth(bucket_of(1000))
            .unwrap();
        let p10 = h.quantile(0.10).as_nanos() as u64;
        let p90 = h.quantile(0.90).as_nanos() as u64;
        assert!(p10 >= lo && p90 <= hi, "{p10}..{p90} outside {lo}..{hi}");
        assert!(p90 > p10, "interpolation must be monotone in q");
        // The top rank clamps to the recorded maximum, never the bucket
        // ceiling.
        assert_eq!(h.quantile(1.0), Duration::from_nanos(1000));
    }

    #[test]
    fn bucket_iteration_matches_recorded_samples() {
        let mut h = LatencyHistogram::new();
        for ns in [1u64, 900, 1000, 1100, 5_000_000] {
            h.record(Duration::from_nanos(ns));
        }
        let counts: Vec<u64> = h.bucket_counts().collect();
        let bounds: Vec<(u64, u64)> = LatencyHistogram::bucket_bounds().collect();
        assert_eq!(counts.len(), BUCKETS);
        assert_eq!(bounds.len(), BUCKETS);
        assert_eq!(counts.iter().sum::<u64>(), h.count());
        // Bounds tile the axis: each bucket's upper bound is the next
        // bucket's lower bound, and every recorded sample sits inside the
        // bounds of its bucket.
        for w in bounds.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        for ns in [1u64, 900, 1000, 1100, 5_000_000] {
            let b = bucket_of(ns);
            assert!(counts[b] > 0, "{ns}ns bucket {b} empty");
            assert!(bounds[b].0 <= ns && ns < bounds[b].1.max(ns + 1));
        }
    }

    #[test]
    fn stats_chunk_share_ratio() {
        let mut s = ServiceStats {
            queries: 0,
            cache_hits: 0,
            joins: 0,
            flushes: 0,
            leaves: 0,
            epochs: 0,
            version: 0,
            coalescer_depth: 0,
            chunk_shared: 0,
            chunk_total: 0,
            measurement_bytes: 0,
        };
        assert_eq!(s.chunk_share_ratio(), 0.0, "empty table: no ratio");
        s.chunk_shared = 3;
        s.chunk_total = 4;
        assert!((s.chunk_share_ratio() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }
}

//! Process-wide lock-free metrics registry.
//!
//! Every metric is **statically registered**: counters, gauges, and
//! timers are fixed enums, so a recording site compiles down to an index
//! into a static array of atomics — no hashing, no registration lock,
//! no allocation. Counters and timers are **striped**: each thread is
//! assigned one of [`STRIPES`] cache-line-aligned cells (round-robin at
//! first touch) and records with a single relaxed `fetch_add`, so the
//! hot paths are wait-free and cross-thread cache-line ping-pong is
//! bounded by the stripe count. A snapshot merges the stripes by
//! summation, which is **exact** — unlike sampled or lossy schemes,
//! `merged total == sum of per-thread increments` always holds (see the
//! scoped-thread hammering test below).
//!
//! The whole subsystem sits behind one global enable flag: when
//! disabled (the default), every recording helper returns after a
//! single relaxed load, so uninstrumented runs pay one predictable
//! branch per site. The `telemetry_overhead` bench group and its CI
//! gate (instrumented throughput ≥ 0.9× disabled) pin the *enabled* cost
//! too.
//!
//! Timers reuse the exact log-bucketed layout of
//! [`LatencyHistogram`] (4 buckets per
//! octave, 256 buckets), with each stripe holding its own atomic bucket
//! array; merging stripes into a `LatencyHistogram` is again an exact
//! bucket-wise sum, which is what lets the Prometheus exporter render
//! registry timers and load-harness histograms identically.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use crate::service::metrics::{bucket_of, LatencyHistogram, BUCKETS};

/// Number of counter/timer stripes. Threads are assigned stripes
/// round-robin, so up to this many threads record without sharing a
/// cache line; beyond it, stripes are shared but recording stays
/// wait-free (relaxed `fetch_add`).
pub const STRIPES: usize = 8;

/// Statically registered monotone counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Pair estimates served. Not recorded on the
    /// query hot path: the engine's always-on [`ServiceStats`] counter
    /// is already exact, so exporters fold those totals in with
    /// [`Registry::add`] at drain time instead of paying a second RMW
    /// per sub-100 ns query (see the `telemetry_overhead` gate).
    ///
    /// [`ServiceStats`]: crate::service::ServiceStats
    Queries,
    /// Hosts admitted (coalesced and direct).
    Joins,
    /// Admission batch flushes (one batched solve + publish each).
    Flushes,
    /// Hosts retired.
    Leaves,
    /// Drift epochs applied: landmark steps, counted once per engine
    /// call (`apply_epochs` adds its batch size), not once per shard.
    Epochs,
    /// Snapshot publishes (pointer swaps).
    Publishes,
    /// Waits inside the join coalescer, either role: a generation's
    /// leader for the writer lock, a follower for its leader's flush.
    CoalescerWaits,
    /// Span events discarded because a thread's ring buffer was full —
    /// the explicit loss signal of the span recorder; 0 means the drain
    /// was lossless.
    SpansDropped,
}

impl Counter {
    /// Number of counter slots.
    pub const COUNT: usize = 8;
    /// Every counter, in index order (snapshot / exporter iteration).
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Queries,
        Counter::Joins,
        Counter::Flushes,
        Counter::Leaves,
        Counter::Epochs,
        Counter::Publishes,
        Counter::CoalescerWaits,
        Counter::SpansDropped,
    ];

    /// Prometheus metric name (without the `ides_` namespace prefix).
    pub fn name(self) -> &'static str {
        match self {
            Counter::Queries => "queries_total",
            Counter::Joins => "joins_total",
            Counter::Flushes => "flushes_total",
            Counter::Leaves => "leaves_total",
            Counter::Epochs => "epochs_total",
            Counter::Publishes => "publishes_total",
            Counter::CoalescerWaits => "coalescer_waits_total",
            Counter::SpansDropped => "spans_dropped_total",
        }
    }
}

/// Statically registered gauges (instantaneous values, updated by
/// balanced add/sub deltas so concurrent writers compose).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Gauge {
    /// Hosts currently enqueued in admission coalescers (all shards).
    CoalescerQueueDepth,
}

impl Gauge {
    /// Number of gauge slots.
    pub const COUNT: usize = 1;
    /// Every gauge, in index order.
    pub const ALL: [Gauge; Gauge::COUNT] = [Gauge::CoalescerQueueDepth];

    /// Prometheus metric name (without the `ides_` namespace prefix).
    pub fn name(self) -> &'static str {
        match self {
            Gauge::CoalescerQueueDepth => "coalescer_queue_depth",
        }
    }
}

/// Statically registered latency timers (striped atomic histograms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Timer {
    /// Snapshot publish (writer-side pointer-swap path).
    Publish,
    /// Coalesced admission flush (batched solve + publish).
    Flush,
    /// One drift epoch applied end to end — landmark step, every shard's
    /// rejoin and publish. Recorded once per
    /// `ShardedEngine::apply_epoch` call, not once per shard.
    EpochApply,
}

impl Timer {
    /// Number of timer slots.
    pub const COUNT: usize = 3;
    /// Every timer, in index order.
    pub const ALL: [Timer; Timer::COUNT] = [Timer::Publish, Timer::Flush, Timer::EpochApply];

    /// Prometheus metric name (without the `ides_` namespace prefix);
    /// the `_ns` suffix marks the unit as integer nanoseconds.
    pub fn name(self) -> &'static str {
        match self {
            Timer::Publish => "publish_latency_ns",
            Timer::Flush => "flush_latency_ns",
            Timer::EpochApply => "epoch_apply_latency_ns",
        }
    }
}

/// One cache-line-aligned stripe of counter cells.
#[repr(align(64))]
struct CounterStripe {
    cells: [AtomicU64; Counter::COUNT],
}

/// One cache-line-aligned stripe of a timer's atomic histogram.
#[repr(align(64))]
struct TimerStripe {
    buckets: [AtomicU64; BUCKETS],
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

/// One timer: a stripe of atomic histograms.
struct TimerCell {
    stripes: [TimerStripe; STRIPES],
}

/// The registry itself: fixed arrays of atomics, `const`-constructible
/// so the global instance lives in `.bss` with zero initialization
/// cost. Tests construct private instances to assert exactness without
/// interference from the global one.
pub struct Registry {
    counters: [CounterStripe; STRIPES],
    gauges: [AtomicU64; Gauge::COUNT],
    timers: [TimerCell; Timer::COUNT],
}

/// A merged, point-in-time copy of a [`Registry`]'s contents.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    /// Counter totals, indexed in [`Counter::ALL`] order.
    pub counters: [u64; Counter::COUNT],
    /// Gauge values, indexed in [`Gauge::ALL`] order.
    pub gauges: [u64; Gauge::COUNT],
    /// Merged timer histograms, indexed in [`Timer::ALL`] order.
    pub timers: Vec<LatencyHistogram>,
}

impl RegistrySnapshot {
    /// Total of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Value of one gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Merged histogram of one timer.
    pub fn timer(&self, t: Timer) -> &LatencyHistogram {
        &self.timers[t as usize]
    }
}

impl Registry {
    /// An all-zero registry. `const` so the global instance needs no
    /// lazy initialization — the disabled fast path never synchronizes.
    pub const fn new() -> Self {
        Registry {
            counters: [const {
                CounterStripe {
                    cells: [const { AtomicU64::new(0) }; Counter::COUNT],
                }
            }; STRIPES],
            gauges: [const { AtomicU64::new(0) }; Gauge::COUNT],
            timers: [const {
                TimerCell {
                    stripes: [const {
                        TimerStripe {
                            buckets: [const { AtomicU64::new(0) }; BUCKETS],
                            sum_ns: AtomicU64::new(0),
                            max_ns: AtomicU64::new(0),
                        }
                    }; STRIPES],
                }
            }; Timer::COUNT],
        }
    }

    /// Adds `n` to counter `c` on the calling thread's stripe
    /// (wait-free: one relaxed `fetch_add`).
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[stripe()].cells[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Increments counter `c` by one.
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Exact total of counter `c` (sum over stripes).
    pub fn total(&self, c: Counter) -> u64 {
        self.counters
            .iter()
            .map(|s| s.cells[c as usize].load(Ordering::Relaxed))
            .sum()
    }

    /// Adds `delta` to gauge `g`.
    pub fn gauge_add(&self, g: Gauge, delta: u64) {
        self.gauges[g as usize].fetch_add(delta, Ordering::Relaxed);
    }

    /// Subtracts `delta` from gauge `g`, saturating at zero (a racing
    /// unbalanced sub must not wrap the gauge to 2^64).
    pub fn gauge_sub(&self, g: Gauge, delta: u64) {
        let _ = self.gauges[g as usize].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_sub(delta))
        });
    }

    /// Current value of gauge `g`.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize].load(Ordering::Relaxed)
    }

    /// Records one duration into timer `t` on the calling thread's
    /// stripe (wait-free: three relaxed RMWs).
    pub fn time(&self, t: Timer, d: Duration) {
        let ns = d.as_nanos().min(u64::MAX as u128) as u64;
        let s = &self.timers[t as usize].stripes[stripe()];
        s.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        s.sum_ns.fetch_add(ns, Ordering::Relaxed);
        s.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Merges timer `t`'s stripes into one exact [`LatencyHistogram`].
    pub fn timer_histogram(&self, t: Timer) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for s in &self.timers[t as usize].stripes {
            for (b, cell) in s.buckets.iter().enumerate() {
                let c = cell.load(Ordering::Relaxed);
                if c > 0 {
                    h.absorb_bucket(b, c);
                }
            }
            h.absorb_aggregate(
                s.sum_ns.load(Ordering::Relaxed) as u128,
                s.max_ns.load(Ordering::Relaxed),
            );
        }
        h
    }

    /// Merged point-in-time copy of everything (exact once recording
    /// threads have quiesced; a torn read under concurrent recording
    /// only lags, it never invents samples).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut counters = [0u64; Counter::COUNT];
        for (i, c) in Counter::ALL.iter().enumerate() {
            counters[i] = self.total(*c);
        }
        let mut gauges = [0u64; Gauge::COUNT];
        for (i, g) in Gauge::ALL.iter().enumerate() {
            gauges[i] = self.gauge(*g);
        }
        let timers = Timer::ALL
            .iter()
            .map(|t| self.timer_histogram(*t))
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            timers,
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

/// The process-global registry every instrumented site records into.
static GLOBAL: Registry = Registry::new();

/// Global telemetry enable flag. Off by default: every recording helper
/// in this module (and the span recorder) first loads this and bails,
/// so the disabled cost per site is one relaxed load and a predictable
/// branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Round-robin stripe assignment, fixed at a thread's first recording.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialized with a sentinel (fast TLS path: no lazy-init
    // flag or destructor registration on the per-record lookup); the
    // round-robin assignment happens on a thread's first recording.
    static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

#[inline]
fn stripe() -> usize {
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
            s.set(v);
            v
        }
    })
}

/// Turns process-wide telemetry recording on or off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry recording is on (one relaxed load).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The process-global registry (for snapshots / exporters).
pub fn global() -> &'static Registry {
    &GLOBAL
}

/// Increments `c` in the global registry when telemetry is enabled.
#[inline]
pub fn count(c: Counter) {
    if enabled() {
        GLOBAL.incr(c);
    }
}

/// Adds `n` to `c` in the global registry when telemetry is enabled.
#[inline]
pub fn count_n(c: Counter, n: u64) {
    if enabled() {
        GLOBAL.add(c, n);
    }
}

/// Adds `delta` to gauge `g` when telemetry is enabled.
#[inline]
pub fn gauge_add(g: Gauge, delta: u64) {
    if enabled() {
        GLOBAL.gauge_add(g, delta);
    }
}

/// Subtracts `delta` from gauge `g` when telemetry is enabled.
#[inline]
pub fn gauge_sub(g: Gauge, delta: u64) {
    if enabled() {
        GLOBAL.gauge_sub(g, delta);
    }
}

/// Records `d` into timer `t` when telemetry is enabled.
#[inline]
pub fn time(t: Timer, d: Duration) {
    if enabled() {
        GLOBAL.time(t, d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_merge_is_exact_under_scoped_thread_hammering() {
        // The exactness contract: with T threads each adding K times,
        // the merged total is exactly T*K — striping shards contention,
        // never samples it. A private instance keeps the global
        // registry's concurrent test traffic out of the assertion.
        let reg = Registry::new();
        const THREADS: usize = 23; // > STRIPES: forces stripe sharing
        const PER_THREAD: u64 = 20_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let reg = &reg;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        reg.incr(Counter::Queries);
                        if (i + t as u64).is_multiple_of(3) {
                            reg.add(Counter::Joins, 2);
                        }
                    }
                });
            }
        });
        assert_eq!(
            reg.total(Counter::Queries),
            THREADS as u64 * PER_THREAD,
            "merged counter total must be exact"
        );
        assert_eq!(reg.total(Counter::Joins) % 2, 0);
        assert_eq!(reg.total(Counter::Leaves), 0);
    }

    #[test]
    fn timer_merge_matches_serial_histogram() {
        // Striped atomic timers must merge to the same histogram a
        // serial LatencyHistogram would produce from the same samples.
        let reg = Registry::new();
        let mut serial = LatencyHistogram::new();
        let durations: Vec<Duration> = (0..500u64)
            .map(|i| Duration::from_nanos(50 + i * 977))
            .collect();
        std::thread::scope(|scope| {
            for chunk in durations.chunks(100) {
                let reg = &reg;
                scope.spawn(move || {
                    for d in chunk {
                        reg.time(Timer::Publish, *d);
                    }
                });
            }
        });
        for d in &durations {
            serial.record(*d);
        }
        let merged = reg.timer_histogram(Timer::Publish);
        assert_eq!(merged.count(), serial.count());
        assert_eq!(merged.sum_ns(), serial.sum_ns());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), serial.quantile(q));
        }
        let a: Vec<u64> = merged.bucket_counts().collect();
        let b: Vec<u64> = serial.bucket_counts().collect();
        assert_eq!(a, b, "bucket-exact merge");
    }

    #[test]
    fn gauges_saturate_instead_of_wrapping() {
        let reg = Registry::new();
        reg.gauge_add(Gauge::CoalescerQueueDepth, 5);
        reg.gauge_sub(Gauge::CoalescerQueueDepth, 3);
        assert_eq!(reg.gauge(Gauge::CoalescerQueueDepth), 2);
        reg.gauge_sub(Gauge::CoalescerQueueDepth, 100);
        assert_eq!(reg.gauge(Gauge::CoalescerQueueDepth), 0, "saturating");
    }

    #[test]
    fn disabled_helpers_do_not_record() {
        // Serialized with every other test that flips the global flag.
        let _g = crate::telemetry::test_guard();
        assert!(!enabled(), "telemetry must default to off");
        let before = global().total(Counter::Leaves);
        count(Counter::Leaves);
        // No other test touches Leaves while disabled, and enabling
        // tests use private instances, so the total must be unchanged.
        assert_eq!(global().total(Counter::Leaves), before);
    }
}

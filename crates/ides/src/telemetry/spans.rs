//! Bounded per-thread ring-buffer span recorder.
//!
//! Every instrumented stage records a [`SpanEvent`] — `(stage, shard,
//! epoch, t_start, t_end, thread)` — into a buffer owned by the
//! recording thread. Buffers are bounded (default
//! [`DEFAULT_CAPACITY`] events, `IDES_TELEMETRY_SPAN_CAP` overrides):
//! when one fills, new events are **dropped, never overwritten**, and
//! the drop is counted in [`Counter::SpansDropped`] — so a drain that
//! observes a zero dropped-counter is provably lossless, which is
//! exactly what the CI smoke validates.
//!
//! Each buffer sits behind its own mutex that only contends at drain
//! time: the recording thread is the sole writer, so the hot-path lock
//! is always uncontended (a single CAS). A global list of weak-free
//! `Arc`s keeps buffers of exited threads alive until drained.
//!
//! Timestamps are nanoseconds since a process-wide epoch (first
//! telemetry touch), so spans from different threads share one
//! timeline — the property the Chrome-trace exporter needs to show
//! concurrent shards and writers side by side.
//!
//! Shard and epoch labels travel in thread-local context cells
//! ([`set_shard`] / [`set_epoch`]): the sharded engine sets the shard id
//! at the top of each per-shard closure and the epoch appliers set the
//! epoch, so deep callees (executor phases, publish) label their spans
//! without threading arguments through every signature.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use super::registry::{self, Counter};

/// Shard label meaning "not shard-scoped" (single-engine spans).
pub const NO_SHARD: u32 = u32::MAX;

/// Default per-thread span-buffer capacity (events).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// The instrumented write-side stages and read-side events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Epoch intake: validation, delta application, tier gate.
    Plan,
    /// One epoch's absorb solve phase.
    AbsorbSolve,
    /// One epoch's absorb commit phase.
    AbsorbCommit,
    /// One epoch's rejoin (full cached joins + subset groups).
    Rejoin,
    /// Landmark Gram refresh triggered by the staleness policy.
    Refresh,
    /// Snapshot publish (pointer swap).
    Publish,
    /// Coalesced admission flush (batched solve + publish).
    Flush,
    /// One read-side pair estimate (sampled).
    Query,
    /// A coalesced join not being solved: its generation's leader
    /// waiting for the writer lock, or a follower waiting for that
    /// leader's flush.
    CoalescerWait,
}

impl Stage {
    /// Stable name used by the Chrome-trace exporter.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Plan => "plan",
            Stage::AbsorbSolve => "absorb_solve",
            Stage::AbsorbCommit => "absorb_commit",
            Stage::Rejoin => "rejoin",
            Stage::Refresh => "refresh",
            Stage::Publish => "publish",
            Stage::Flush => "flush",
            Stage::Query => "query",
            Stage::CoalescerWait => "coalescer_wait",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent {
    /// Which stage this span covers.
    pub stage: Stage,
    /// Shard label ([`NO_SHARD`] when not shard-scoped).
    pub shard: u32,
    /// Epoch label (`NaN` when not epoch-scoped).
    pub epoch: f64,
    /// Start, nanoseconds since the process telemetry epoch.
    pub t_start_ns: u64,
    /// End, nanoseconds since the process telemetry epoch.
    pub t_end_ns: u64,
    /// Recording thread's telemetry-assigned sequence number.
    pub thread: u64,
}

struct SpanBuf {
    events: Vec<SpanEvent>,
    cap: usize,
}

/// Registry of every thread's buffer; holds `Arc`s so buffers of exited
/// threads survive until drained.
static SINKS: Mutex<Vec<Arc<Mutex<SpanBuf>>>> = Mutex::new(Vec::new());

/// Process-wide time origin: all spans share this epoch so cross-thread
/// overlap renders correctly.
static EPOCH_INSTANT: OnceLock<Instant> = OnceLock::new();

/// Per-thread telemetry sequence number (the Chrome-trace `tid`).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

fn capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("IDES_TELEMETRY_SPAN_CAP")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&c| c > 0)
            .unwrap_or(DEFAULT_CAPACITY)
    })
}

thread_local! {
    static LOCAL: (Arc<Mutex<SpanBuf>>, u64) = {
        let buf = Arc::new(Mutex::new(SpanBuf {
            events: Vec::new(),
            cap: capacity(),
        }));
        SINKS.lock().expect("span sink registry").push(Arc::clone(&buf));
        (buf, NEXT_THREAD.fetch_add(1, Ordering::Relaxed))
    };
    static SHARD: Cell<u32> = const { Cell::new(NO_SHARD) };
    static EPOCH: Cell<f64> = const { Cell::new(f64::NAN) };
}

/// Nanoseconds since the process telemetry epoch.
pub fn now_ns() -> u64 {
    EPOCH_INSTANT
        .get_or_init(Instant::now)
        .elapsed()
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// Sets the calling thread's shard label for subsequent spans and
/// returns the previous label (restore it when leaving the scope).
pub fn set_shard(shard: u32) -> u32 {
    SHARD.with(|s| s.replace(shard))
}

/// Sets the calling thread's epoch label for subsequent spans and
/// returns the previous label.
pub fn set_epoch(epoch: f64) -> f64 {
    EPOCH.with(|e| e.replace(epoch))
}

fn record(stage: Stage, t_start_ns: u64, t_end_ns: u64) {
    LOCAL.with(|(buf, thread)| {
        let mut b = buf.lock().expect("own span buffer");
        if b.events.len() >= b.cap {
            drop(b);
            registry::global().incr(Counter::SpansDropped);
            return;
        }
        let ev = SpanEvent {
            stage,
            shard: SHARD.with(|s| s.get()),
            epoch: EPOCH.with(|e| e.get()),
            t_start_ns,
            t_end_ns,
            thread: *thread,
        };
        b.events.push(ev);
    });
}

/// A RAII span: started by [`span`], recorded on drop. Inert (records
/// nothing, costs nothing beyond the construction-time enabled check)
/// when telemetry is disabled.
#[must_use = "a span records its stage's duration when dropped"]
pub struct Span {
    stage: Stage,
    start_ns: u64,
    armed: bool,
}

/// Opens a span for `stage`. When telemetry is disabled this is one
/// relaxed load and an inert guard; when enabled, the span records
/// `(stage, shard, epoch, start, end)` into the calling thread's buffer
/// at drop.
#[inline]
pub fn span(stage: Stage) -> Span {
    if !registry::enabled() {
        return Span {
            stage,
            start_ns: 0,
            armed: false,
        };
    }
    Span {
        stage,
        start_ns: now_ns(),
        armed: true,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.armed {
            record(self.stage, self.start_ns, now_ns());
        }
    }
}

/// Records a span ending now with an explicit start timestamp (from
/// [`now_ns`]) — for sites that decide whether to record only after the
/// work ran, e.g. a sampled read call that must not record while it
/// holds a snapshot pin.
#[inline]
pub fn record_at(stage: Stage, t_start_ns: u64) {
    if registry::enabled() {
        record(stage, t_start_ns, now_ns());
    }
}

/// Drains every thread's buffer (exited threads included), returning
/// all recorded spans sorted by start time. Lossless by construction —
/// buffers drop-on-full rather than overwrite — so
/// `Counter::SpansDropped == 0` certifies that the returned vector is
/// the complete record.
pub fn take_spans() -> Vec<SpanEvent> {
    let sinks = SINKS.lock().expect("span sink registry");
    let mut all = Vec::new();
    for sink in sinks.iter() {
        let mut b = sink.lock().expect("span buffer");
        all.append(&mut b.events);
    }
    drop(sinks);
    all.sort_by_key(|e| (e.t_start_ns, e.t_end_ns, e.thread));
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_context_and_drain_losslessly() {
        // Private-instance isolation is impossible for the thread-local
        // recorder, so serialize against other global-flag tests, run
        // the scenario on dedicated threads, and filter drained spans
        // by their thread ids.
        let _g = crate::telemetry::test_guard();
        registry::set_enabled(true);
        let mut tids = Vec::new();
        for k in 0..3u32 {
            let h = std::thread::spawn(move || {
                set_shard(k);
                set_epoch(k as f64 + 0.5);
                for _ in 0..5 {
                    let s = span(Stage::Rejoin);
                    drop(s);
                }
                record_at(Stage::Query, now_ns());
                LOCAL.with(|(_, t)| *t)
            });
            tids.push(h.join().expect("recorder thread"));
        }
        registry::set_enabled(false);
        let spans = take_spans();
        for (k, tid) in tids.iter().enumerate() {
            let mine: Vec<&SpanEvent> = spans.iter().filter(|e| e.thread == *tid).collect();
            assert_eq!(mine.len(), 6, "5 rejoin spans + 1 query");
            assert!(mine.iter().all(|e| e.shard == k as u32));
            assert!(mine
                .iter()
                .all(|e| (e.epoch - (k as f64 + 0.5)).abs() < 1e-12));
            assert!(mine.iter().all(|e| e.t_end_ns >= e.t_start_ns));
            assert_eq!(mine.iter().filter(|e| e.stage == Stage::Query).count(), 1);
        }
        // Drained means gone: a second drain of those threads is empty.
        let again = take_spans();
        assert!(again.iter().all(|e| !tids.contains(&e.thread)));
    }

    #[test]
    fn full_buffer_drops_and_counts_instead_of_overwriting() {
        let _g = crate::telemetry::test_guard();
        registry::set_enabled(true);
        let dropped_before = registry::global().total(Counter::SpansDropped);
        let (tid, first_start) = std::thread::spawn(|| {
            // Fill this thread's buffer past capacity; the earliest
            // event must survive (drop-new, not ring-overwrite).
            let cap = capacity();
            let first = span(Stage::Plan);
            drop(first);
            for _ in 0..cap + 10 {
                drop(span(Stage::Flush));
            }
            LOCAL.with(|(buf, t)| {
                let b = buf.lock().expect("own buffer");
                (*t, b.events.first().map(|e| e.t_start_ns))
            })
        })
        .join()
        .expect("filler thread");
        registry::set_enabled(false);
        let dropped = registry::global().total(Counter::SpansDropped) - dropped_before;
        assert!(dropped >= 11, "at least 11 events past cap, got {dropped}");
        let spans = take_spans();
        let mine: Vec<&SpanEvent> = spans.iter().filter(|e| e.thread == tid).collect();
        assert_eq!(mine.len(), capacity(), "buffer retained exactly cap");
        assert_eq!(
            mine.iter().map(|e| e.t_start_ns).min(),
            first_start,
            "oldest event survived the overflow"
        );
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = crate::telemetry::test_guard();
        assert!(!registry::enabled());
        let tid = std::thread::spawn(|| {
            drop(span(Stage::Publish));
            record_at(Stage::Query, now_ns());
            LOCAL.with(|(_, t)| *t)
        })
        .join()
        .expect("inert thread");
        assert!(take_spans().iter().all(|e| e.thread != tid));
    }
}

//! End-to-end telemetry: lock-free metrics, per-stage tracing spans,
//! and Prometheus / Chrome-trace export.
//!
//! Three layers, all behind **one global enable flag** (off by default;
//! a disabled recording site costs one relaxed atomic load):
//!
//! * [`registry`] — statically registered [`Counter`]s, [`Gauge`]s, and
//!   [`LatencyHistogram`](crate::service::LatencyHistogram)-backed
//!   [`Timer`]s with per-thread striped atomic cells: recording is
//!   wait-free (a relaxed `fetch_add` on the thread's stripe) and the
//!   merged totals are **exact**, not sampled.
//! * [`spans`] — a bounded per-thread ring-buffer recorder capturing
//!   `(stage, shard, epoch, t_start, t_end)` for the write-side stages
//!   (`plan`, `absorb_solve`, `absorb_commit`, `rejoin`, `refresh`,
//!   `publish`, `flush`), the group-commit wait
//!   (`coalescer_wait`: a join's leader waiting for the writer lock or a
//!   follower waiting for that leader's flush — the time a join spent
//!   not being solved, one stage for both roles) and read-side events
//!   (`query`). Buffers drop-on-full
//!   with an explicit [`Counter::SpansDropped`] counter, so a drain
//!   with a zero dropped-count is provably lossless.
//! * [`export`] — [`render_prometheus`] (cumulative
//!   `_bucket`/`_sum`/`_count` text exposition over the same
//!   log-bucketed histograms the load harness uses, in exact integer
//!   nanoseconds) and [`render_chrome_trace`] (complete-event JSON that
//!   opens directly in Perfetto / `chrome://tracing`).
//!
//! Instrumented call sites live in [`crate::service`] (query,
//! group-commit enqueue/wait/flush, publish),
//! [`crate::service::shard`] (per-shard labels via [`set_shard`]),
//! [`crate::streaming`] (per-epoch plan/absorb/refresh/rejoin spans),
//! and the `ides-cli serve
//! --metrics-out/--trace-out` surface that drains them.
//!
//! Telemetry is observational only: enabling it never changes any
//! computed value (pinned bit-identical by the `service_determinism`
//! suite's telemetry test), and its enabled overhead on the serve hot
//! path is gated ≥ 0.9× disabled qps by the `telemetry_overhead` bench
//! group in CI.

pub mod export;
pub mod registry;
pub mod spans;

pub use export::{render_chrome_trace, render_prometheus};
pub use registry::{
    count, count_n, enabled, gauge_add, gauge_sub, global, set_enabled, time, Counter, Gauge,
    Registry, RegistrySnapshot, Timer, STRIPES,
};
pub use spans::{
    now_ns, record_at, set_epoch, set_shard, span, take_spans, Span, SpanEvent, Stage,
    DEFAULT_CAPACITY, NO_SHARD,
};

/// Serializes tests that flip the global enable flag or assert on the
/// global registry/span state, so parallel test threads can't race the
/// process-wide telemetry state.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

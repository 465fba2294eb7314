//! Exporters: Prometheus text exposition and Chrome-trace-event JSON.
//!
//! Both are plain string renderers over telemetry snapshots — no I/O,
//! no dependencies — so the CLI (or a test) decides where the bytes go.
//!
//! **Prometheus** ([`render_prometheus`]): counters and gauges as
//! single samples, histograms as the classic cumulative
//! `_bucket{le=...}` / `_sum` / `_count` triple. All latency series use
//! **integer nanoseconds** (`_ns`-suffixed metric names) rather than
//! the conventional float seconds: the exposition's `_count`/`_sum`
//! must reconcile *exactly* with the load report's own totals, and
//! integers make that a byte-for-byte equality instead of a float
//! round-trip. Buckets above the highest occupied one are elided
//! (they'd all repeat the total), with `+Inf` always closing the
//! series.
//!
//! **Chrome trace** ([`render_chrome_trace`]): one complete-event
//! (`"ph":"X"`) object per span with microsecond `ts`/`dur`, `pid` 1,
//! and the recorder's thread sequence as `tid` — load the file straight
//! into Perfetto / `chrome://tracing` and concurrent work (the shards'
//! epochs, joins beside a drift writer) shows as parallel tracks.

use std::fmt::Write as _;

use super::registry::{Counter, Gauge, RegistrySnapshot, Timer};
use super::spans::{SpanEvent, NO_SHARD};
use crate::service::LatencyHistogram;

/// Namespace prefix of every exported metric.
const PREFIX: &str = "ides_";

fn render_histogram(out: &mut String, name: &str, h: &LatencyHistogram) {
    let _ = writeln!(out, "# TYPE {PREFIX}{name} histogram");
    // Highest occupied bucket bounds the rendered series; everything
    // above would repeat the cumulative total that `+Inf` already
    // carries.
    let counts: Vec<u64> = h.bucket_counts().collect();
    let last = counts.iter().rposition(|&c| c > 0);
    let mut cum = 0u64;
    if let Some(last) = last {
        for (b, (_, hi)) in LatencyHistogram::bucket_bounds().enumerate().take(last + 1) {
            cum += counts[b];
            let _ = writeln!(out, "{PREFIX}{name}_bucket{{le=\"{hi}\"}} {cum}");
        }
    }
    let _ = writeln!(out, "{PREFIX}{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{PREFIX}{name}_sum {}", h.sum_ns());
    let _ = writeln!(out, "{PREFIX}{name}_count {}", h.count());
}

/// Renders a registry snapshot — plus caller-supplied extra histograms
/// and gauges (e.g. the load harness's per-run query-latency histogram
/// and `ServiceStats`-derived ratios) — as Prometheus text exposition
/// format. Extra histogram names should carry a `_ns` suffix to match
/// the registry timers' nanosecond unit.
pub fn render_prometheus(
    snap: &RegistrySnapshot,
    extra_hists: &[(&str, &LatencyHistogram)],
    extra_gauges: &[(&str, f64)],
) -> String {
    let mut out = String::new();
    for c in Counter::ALL {
        let _ = writeln!(out, "# TYPE {PREFIX}{} counter", c.name());
        let _ = writeln!(out, "{PREFIX}{} {}", c.name(), snap.counter(c));
    }
    for g in Gauge::ALL {
        let _ = writeln!(out, "# TYPE {PREFIX}{} gauge", g.name());
        let _ = writeln!(out, "{PREFIX}{} {}", g.name(), snap.gauge(g));
    }
    for (name, v) in extra_gauges {
        let _ = writeln!(out, "# TYPE {PREFIX}{name} gauge");
        let _ = writeln!(out, "{PREFIX}{name} {v}");
    }
    for t in Timer::ALL {
        render_histogram(&mut out, t.name(), snap.timer(t));
    }
    for (name, h) in extra_hists {
        render_histogram(&mut out, name, h);
    }
    out
}

/// Renders spans as a Chrome-trace-event JSON document (a
/// `traceEvents` array of complete events). Microsecond timestamps
/// keep nanosecond resolution through the fractional part. `args`
/// carries the shard and epoch labels when present.
pub fn render_chrome_trace(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let dur_ns = e.t_end_ns.saturating_sub(e.t_start_ns);
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"ides\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{}",
            e.stage.name(),
            e.t_start_ns / 1_000,
            e.t_start_ns % 1_000,
            dur_ns / 1_000,
            dur_ns % 1_000,
            e.thread,
        );
        out.push_str(",\"args\":{");
        let mut first = true;
        if e.shard != NO_SHARD {
            let _ = write!(out, "\"shard\":{}", e.shard);
            first = false;
        }
        if e.epoch.is_finite() {
            let _ = write!(out, "{}\"epoch\":{}", if first { "" } else { "," }, e.epoch);
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::super::registry::Registry;
    use super::super::spans::Stage;
    use super::*;

    #[test]
    fn prometheus_histogram_reconciles_and_is_cumulative() {
        let reg = Registry::new();
        reg.incr(Counter::Queries);
        reg.add(Counter::Joins, 41);
        reg.gauge_add(Gauge::CoalescerQueueDepth, 7);
        for ns in [800u64, 900, 1000, 2_000_000] {
            reg.time(Timer::Publish, Duration::from_nanos(ns));
        }
        let mut query_hist = LatencyHistogram::new();
        query_hist.record(Duration::from_nanos(500));
        query_hist.record(Duration::from_nanos(700));
        let snap = reg.snapshot();
        let text = render_prometheus(
            &snap,
            &[("serve_query_latency_ns", &query_hist)],
            &[("snapshot_chunk_share_ratio", 0.75)],
        );
        assert!(text.contains("ides_queries_total 1\n"));
        assert!(text.contains("ides_joins_total 41\n"));
        assert!(text.contains("ides_coalescer_queue_depth 7\n"));
        assert!(text.contains("ides_snapshot_chunk_share_ratio 0.75\n"));
        // _count/_sum reconcile exactly with the recorded samples.
        assert!(text.contains("ides_publish_latency_ns_count 4\n"));
        assert!(text.contains(&format!(
            "ides_publish_latency_ns_sum {}\n",
            800 + 900 + 1000 + 2_000_000
        )));
        assert!(text.contains("ides_serve_query_latency_ns_count 2\n"));
        assert!(text.contains("ides_serve_query_latency_ns_sum 1200\n"));
        assert!(text.contains("ides_serve_query_latency_ns_bucket{le=\"+Inf\"} 2\n"));
        // Cumulative buckets: the series of `le` counts never decreases
        // and ends at the total.
        let cums: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("ides_publish_latency_ns_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(cums.windows(2).all(|w| w[0] <= w[1]), "{cums:?}");
        assert_eq!(*cums.last().unwrap(), 4);
    }

    #[test]
    fn chrome_trace_renders_complete_events_with_labels() {
        let events = [
            SpanEvent {
                stage: Stage::Plan,
                shard: NO_SHARD,
                epoch: f64::NAN,
                t_start_ns: 1_500,
                t_end_ns: 4_000,
                thread: 1,
            },
            SpanEvent {
                stage: Stage::Rejoin,
                shard: 3,
                epoch: 12.0,
                t_start_ns: 2_000,
                t_end_ns: 9_750,
                thread: 2,
            },
        ];
        let json = render_chrome_trace(&events);
        assert!(json.contains("\"name\":\"plan\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":2.500"));
        assert!(json.contains("\"shard\":3"));
        assert!(json.contains("\"epoch\":12"));
        // The NaN epoch and NO_SHARD label are omitted, keeping the
        // document valid JSON.
        assert!(!json.contains("NaN"));
        let plan_obj = json.lines().find(|l| l.contains("\"plan\"")).unwrap();
        assert!(plan_obj.contains("\"args\":{}"));
    }

    #[test]
    fn empty_inputs_render_valid_documents() {
        let snap = Registry::new().snapshot();
        let text = render_prometheus(&snap, &[], &[]);
        assert!(text.contains("ides_publish_latency_ns_bucket{le=\"+Inf\"} 0\n"));
        assert!(text.contains("ides_publish_latency_ns_count 0\n"));
        let json = render_chrome_trace(&[]);
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }
}

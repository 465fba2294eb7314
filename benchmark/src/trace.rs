//! The benchmark's own in-memory span recorder.
//!
//! Every call the benchmark makes into a product layer runs inside
//! [`Tracer::span`], which always files the call's wall time under the
//! span's name (the metrics are built from those samples) and, in a
//! traced run, also records `{name, id, parent, request, start, end}`. A span opened while
//! no other is open starts a new request (one query block, one join, one
//! epoch, one fit). Spans live in per-thread vectors and are written out
//! once, when the run ends; product telemetry stays disabled.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Span and request ids come from one process-wide counter, so they stay
/// unique across every per-thread recorder a run creates. Relaxed: the
/// counter publishes nothing but its own value.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// One recorded call. `parent == 0` marks a request's root span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-thread recorder; worker threads get one from [`Tracer::for_thread`]
/// and hand it back through [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Wall seconds of every span (and [`Tracer::note`]d value) by name,
    /// in call order; kept whether or not spans are recorded.
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            tid: 0,
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// A recorder for worker thread `tid` (non-zero) on the same clock.
    pub fn for_thread(&self, tid: u32) -> Tracer {
        Tracer {
            on: self.on,
            origin: self.origin,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    /// Takes over a finished worker's spans and samples.
    pub fn absorb(&mut self, worker: Tracer) {
        self.spans.extend(worker.spans);
        for (name, values) in worker.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    /// Files a value that is not a span's duration (a rate, a count).
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The samples filed under `name` so far (empty if none).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f`, returning its result and wall time in seconds; files the
    /// time under `name` and records a span when tracing is on.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        if !self.on {
            let start = Instant::now();
            let r = f(self);
            let secs = start.elapsed().as_secs_f64();
            self.note(name, secs);
            return (r, secs);
        }
        let (parent, request) = match self.open.last() {
            Some(&p) => (self.spans[p].id, self.spans[p].request),
            None => (0, next_id()),
        };
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id: next_id(),
            parent,
            request,
            tid: self.tid,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(idx);
        let start = Instant::now();
        let r = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[idx].start_ns = (start - self.origin).as_nanos() as u64;
        self.spans[idx].end_ns = (end - self.origin).as_nanos() as u64;
        let secs = (end - start).as_secs_f64();
        self.note(name, secs);
        (r, secs)
    }

    /// One request: a root span `root` around a single product call
    /// `layer`. Returns the call's result and its own wall time — the
    /// root's extra clock reads stay outside what the metrics see.
    pub fn request<R>(
        &mut self,
        root: &'static str,
        layer: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.span(root, |t| t.span(layer, |_| f())).0
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may overlap when they ran on
/// other threads, so the cover is a union, not a sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(reach, s.end_ns);
                covered += b - a;
                reach = b;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name (a name is `layer.call`; `request.*` names
/// are the request roots).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Chrome-trace ("complete event") JSON; opens in Perfetto or
/// `chrome://tracing`. Written by hand: a run records tens of thousands
/// of spans and needs no value tree for them.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 64);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let layer = s.name.split('.').next().unwrap_or(s.name);
        write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"request\":{},\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}}}",
            s.name,
            layer,
            s.tid,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.request,
            workload,
            s.start_ns,
            s.end_ns,
        )
        .expect("write to string");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t.x",
            id,
            parent,
            request: 1,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children cover 10..60, a third 70..80.
            span(2, 1, 10, 50),
            span(3, 1, 40, 60),
            span(4, 1, 70, 80),
            // A grandchild only reduces its own parent's self time.
            span(5, 2, 20, 30),
            // A child reaching past its parent is clipped to it.
            span(6, 4, 75, 95),
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 20, 5, 10, 20]);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.span("a.b", |t| t.span("a.c", |_| 7).0);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
        // ... but the samples are filed either way.
        assert_eq!((t.samples("a.b").len(), t.samples("a.c").len()), (1, 1));
        assert_eq!(t.samples("a.b")[0], secs);
        assert!(t.samples("nope").is_empty());
    }

    #[test]
    fn nesting_sets_parent_and_request() {
        let mut t = Tracer::new(true);
        t.span("request.one", |t| {
            t.span("layer.a", |t| {
                t.span("layer.b", |_| ());
            });
            t.span("layer.c", |_| ());
        });
        t.span("request.two", |_| ());
        // Two workers reusing one thread number still get distinct ids.
        for _ in 0..2 {
            let mut w = t.for_thread(3);
            w.span("request.worker", |w| {
                w.span("layer.d", |_| ());
            });
            t.absorb(w);
        }

        let s = t.spans();
        let by_name = |n: &str| s.iter().find(|x| x.name == n).unwrap();
        let (one, a, b, c) = (
            by_name("request.one"),
            by_name("layer.a"),
            by_name("layer.b"),
            by_name("layer.c"),
        );
        assert_eq!(one.parent, 0);
        assert_eq!((a.parent, b.parent, c.parent), (one.id, a.id, one.id));
        assert!([a, b, c].iter().all(|x| x.request == one.request));
        assert_ne!(by_name("request.two").request, one.request);
        assert_eq!(t.samples("layer.d").len(), 2);
        let (wr, d) = (by_name("request.worker"), by_name("layer.d"));
        assert_eq!((wr.tid, d.parent, d.request), (3, wr.id, wr.request));
        let mut ids: Vec<u64> = s.iter().map(|x| x.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), s.len());
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));

        let totals = totals_by_name(s);
        assert_eq!(totals["request.one"].count, 1);
        assert!(totals["request.one"].self_ns <= totals["request.one"].total_ns);
        let trace = chrome_trace(s, "unit");
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), s.len());
        crate::json::parse(&trace).expect("chrome trace is valid json");
    }
}

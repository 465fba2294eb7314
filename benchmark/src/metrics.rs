//! Turns one pass's samples into the end-to-end metrics of
//! `BENCHMARK.json`.

use crate::json::Value;
use crate::phases::Run;
use crate::spec::{MetricDef, Substrate, BLOCK};
use crate::stats::{median, summarize};

/// One reported number: how many samples stand behind it and, for a
/// tail, the percentile it was really taken at (see `stats::summarize`).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub n: usize,
    pub percentile: Option<f64>,
}

impl Metric {
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("value", self.value)
            .set("unit", self.unit.as_str())
            .set("n", self.n);
        if let Some(p) = self.percentile {
            v.set("percentile", p);
        }
        v
    }
}

/// Collects `(name, value, n, percentile)` rows and checks them against
/// the contract's list, so a metric cannot silently go missing or gain
/// an undeclared sibling.
pub struct MetricSet {
    rows: Vec<(String, f64, usize, Option<f64>)>,
}

impl MetricSet {
    pub fn new() -> Self {
        MetricSet { rows: Vec::new() }
    }

    pub fn put(&mut self, name: &str, value: f64, n: usize) {
        self.rows.push((name.to_string(), value, n, None));
    }

    /// Median and tail of a timing series, `scale` converting seconds to
    /// the metric's unit; either name may be left out.
    pub fn put_summary(&mut self, p50: Option<&str>, tail: Option<&str>, secs: &[f64], scale: f64) {
        let scaled: Vec<f64> = secs.iter().map(|s| s * scale).collect();
        if scaled.is_empty() {
            return;
        }
        let s = summarize(&scaled, 0.99);
        if let Some(name) = p50 {
            self.rows.push((name.to_string(), s.p50, s.n, Some(0.5)));
        }
        if let Some(name) = tail {
            self.rows
                .push((name.to_string(), s.tail, s.n, Some(s.tail_p)));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// The rows in the contract's order. Errors name every declared
    /// metric that is missing or not a finite number, and every row the
    /// contract does not declare.
    pub fn finish(self, defs: &[MetricDef]) -> Result<Vec<Metric>, String> {
        let mut problems = Vec::new();
        let mut out = Vec::with_capacity(defs.len());
        for def in defs {
            match self.rows.iter().find(|r| r.0 == def.name) {
                Some(&(_, value, n, percentile)) if value.is_finite() => out.push(Metric {
                    name: def.name.clone(),
                    value,
                    unit: def.unit.clone(),
                    n,
                    percentile,
                }),
                Some(_) => problems.push(format!("{} is not finite", def.name)),
                None => problems.push(format!("{} was not measured", def.name)),
            }
        }
        for row in &self.rows {
            if !defs.iter().any(|d| d.name == row.0) {
                problems.push(format!("{} is not in BENCHMARK.json", row.0));
            }
        }
        if problems.is_empty() {
            Ok(out)
        } else {
            Err(problems.join("; "))
        }
    }
}

/// Whether the quietest group is the one with the lowest median (a
/// time) or the highest (a rate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Best {
    Lowest,
    Highest,
}

/// The median of the quietest group of `group` consecutive samples.
/// Series too short to form four groups (a handful of second-long fits)
/// fall back to single samples.
pub fn quietest_group_median(samples: &[f64], group: usize, pick: Best) -> Option<f64> {
    let group = if samples.len() < 4 * group { 1 } else { group };
    let medians = samples.chunks_exact(group).map(median);
    match pick {
        Best::Lowest => medians.min_by(f64::total_cmp),
        Best::Highest => medians.max_by(f64::total_cmp),
    }
}

/// The end-to-end metrics of one pass, all but `peak_rss_mb`: the caller
/// reads that last, so it covers the whole run.
///
/// Every timing is the median of the run's **quietest group** of
/// consecutive samples of its series. The reference host is a 2-vCPU guest among
/// neighbours: over eight minutes the median of a fixed 1.5 ms kernel
/// wandered by 20 % while its fastest samples stayed within 2 %.
/// Interference only ever adds time, so the quietest group is the
/// closest a run gets to what the code costs, and it repeats where the
/// run-wide median does not. The phases run interleaved in laps so each
/// series has groups all along the run.
pub fn end_to_end(run: &Run, setup_s: f64, setup_reps: usize) -> MetricSet {
    let tr = &run.tr;
    let mut m = MetricSet::new();
    let mut best = |name: &str, series: &str, scale: f64, group: usize, pick: Best| {
        let samples = tr.samples(series);
        if let Some(v) = quietest_group_median(samples, group, pick) {
            m.rows
                .push((name.to_string(), v * scale, samples.len(), Some(0.5)));
        }
    };
    // Groups are as short as the series allows, so that some group falls
    // wholly inside a quiet stretch. Fits and bulk admissions are long
    // operations with few samples: single samples. Absorb and refresh
    // epochs take turns, so a pair holds one of each. Coalesced joins
    // come as leaders (a full linger) and followers (less), in an order
    // the scheduler decides; sixteen hold a stable mix where four would
    // find a run of followers.
    // Medians only: on the reference host no tail percentile, no
    // multi-reader rate and no rate of the millisecond-long two-thread
    // evaluation repeats within 25 %, so those are per-layer metrics
    // (`service.*_p99`, `service.query_mt_per_s`, `eval.pairs_per_s`),
    // not gates.
    best("fit_svd_s", "mf.svd_fit", 1.0, 1, Best::Lowest);
    best("fit_nmf_s", "mf.nmf_fit", 1.0, 1, Best::Lowest);
    best(
        "query_ns_p50",
        "service.estimate_block",
        1e9 / BLOCK as f64,
        4,
        Best::Lowest,
    );
    best(
        "admit_hosts_per_s",
        "rate.admit_hosts",
        1.0,
        4,
        Best::Highest,
    );
    best("join_us_p50", "service.join", 1e6, 16, Best::Lowest);
    best("epoch_ms_p50", "service.apply_epoch", 1e3, 2, Best::Lowest);
    m.put("setup_s", setup_s, setup_reps);
    // Accuracy of what the workload is about: the offline evaluation on
    // the paper's data set, the served estimates everywhere else.
    let source = match run.spec.substrate {
        Substrate::P2psim { .. } => "offline",
        Substrate::TransitStub => "served",
    };
    for p in ["p50", "p90"] {
        let key = format!("{source}_rel_err_{p}");
        if let Some((_, v)) = run.values.iter().find(|(k, _)| **k == key) {
            m.put(&format!("rel_err_{p}"), *v, run.inp.probe_pairs.len());
        }
    }
    m
}

/// `name: {value, unit}` for the result line the driver reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut table = Value::obj();
    for m in metrics {
        let mut v = Value::obj();
        v.set("value", m.value).set("unit", m.unit.as_str());
        table.set(&m.name, v);
    }
    let mut line = Value::obj();
    line.set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", table);
    line.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &str) -> MetricDef {
        MetricDef {
            name: name.into(),
            unit: "u".into(),
            lower_is_better: true,
            bound: None,
        }
    }

    #[test]
    fn finish_orders_by_contract_and_reports_gaps() {
        let mut set = MetricSet::new();
        set.put("b", 2.0, 1);
        set.put_summary(Some("a_p50"), Some("a_p99"), &[1.0; 1000], 1e3);
        let got = set.finish(&[def("a_p50"), def("a_p99"), def("b")]).unwrap();
        assert_eq!(
            got.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            ["a_p50", "a_p99", "b"]
        );
        assert_eq!(
            (got[1].value, got[1].n, got[1].percentile),
            (1000.0, 1000, Some(0.99))
        );

        let mut set = MetricSet::new();
        set.put("nan", f64::NAN, 1);
        set.put("extra", 1.0, 1);
        let err = set.finish(&[def("nan"), def("gone")]).unwrap_err();
        assert!(err.contains("nan is not finite") && err.contains("gone was not measured"));
        assert!(err.contains("extra is not in BENCHMARK.json"));
    }

    #[test]
    fn quietest_group_ignores_noisy_stretches() {
        // 64 samples: a quiet stretch of 100s in a sea of 130s, with the
        // odd spike inside the quiet stretch too.
        let mut samples = vec![130.0; 64];
        samples[16..32].fill(100.0);
        samples[20] = 500.0;
        assert_eq!(
            quietest_group_median(&samples, 4, Best::Lowest),
            Some(100.0)
        );
        assert_eq!(
            quietest_group_median(&samples, 4, Best::Highest),
            Some(130.0)
        );
        // A lone fast sample does not make a group.
        samples[40] = 50.0;
        assert_eq!(
            quietest_group_median(&samples, 4, Best::Lowest),
            Some(100.0)
        );
        // Too short for four groups: every sample is its own group.
        assert_eq!(
            quietest_group_median(&[3.0, 1.0, 2.0], 4, Best::Lowest),
            Some(1.0)
        );
        assert_eq!(quietest_group_median(&[], 4, Best::Lowest), None);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = vec![Metric {
            name: "latency".into(),
            value: 1.25,
            unit: "ms".into(),
            n: 3,
            percentile: None,
        }];
        let line = result_line(true, 10, 0, &metrics);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency":{"value":1.25,"unit":"ms"}}}"#
        );
    }
}

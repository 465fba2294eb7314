//! `--compare A.json B.json`: one row per workload x end-to-end metric
//! with both medians, the ratio and its base, the bound and a verdict.
//! This is the tool for "same commit, two sets of runs, do they agree"
//! and for "parent vs change".

use std::collections::BTreeMap;

use crate::fingerprint::MUST_MATCH;
use crate::json::{self, Value};
use crate::spec::{Contract, MetricDef, WORKLOADS};
use crate::stats::{median, spread};

/// The one op count allowed to differ between runs (see `phases::mixed`).
const FREE_OP: &str = "query_blocks_mixed";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// Run-to-run spread exceeds the bound, so a difference of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against baseline `a` for one metric.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let noise = spread(a).max(spread(b));
    // Positive when `b` is worse than `a`, as a share of `a`.
    let worse_by = if def.lower_is_better {
        mb - ma
    } else {
        ma - mb
    } / ma.abs();
    let every_b_beats_every_a = if def.lower_is_better {
        b.iter().all(|x| a.iter().all(|y| x < y))
    } else {
        b.iter().all(|x| a.iter().all(|y| x > y))
    };
    let verdict = if noise > bound {
        if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    };
    (ma, mb, noise, verdict)
}

struct Side {
    host: Value,
    /// Untraced runs by workload.
    runs: BTreeMap<String, Vec<Value>>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let host = doc
        .get("host")
        .cloned()
        .ok_or_else(|| format!("{path}: no host fingerprint"))?;
    let mut runs: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    for run in doc
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no runs"))?
    {
        if run.get("trace").and_then(Value::as_bool) == Some(true) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: run without workload"))?;
        runs.entry(workload.to_string())
            .or_default()
            .push(run.clone());
    }
    Ok(Side { host, runs })
}

fn metric_values(runs: &[Value], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

fn total(runs: &[Value], key: &str) -> f64 {
    runs.iter().filter_map(|r| r.get(key)?.as_f64()).sum()
}

/// Every run's op counts (minus the free one) and configuration must be
/// the same on both sides, or the two did unequal work.
fn work_signature(run: &Value) -> Vec<(String, String)> {
    let mut sig: Vec<(String, String)> = ["seed", "seconds", "smoke"]
        .iter()
        .filter_map(|k| Some((k.to_string(), run.get(k)?.render())))
        .collect();
    if let Some(ops) = run.get("ops") {
        for (k, v) in ops.fields() {
            if k != FREE_OP {
                sig.push((format!("ops.{k}"), v.render()));
            }
        }
    }
    sig
}

/// Compares two result files; prints the table and returns whether `b`
/// is acceptable (no `worse` row, no higher failed share).
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    for field in MUST_MATCH {
        let (va, vb) = (a.host.get(field), b.host.get(field));
        if va != vb {
            return Err(format!(
                "refusing to compare: {field} differs ({} vs {})",
                va.map_or("missing".into(), Value::render),
                vb.map_or("missing".into(), Value::render)
            ));
        }
    }
    let contract = Contract::load();
    println!("base = A = {path_a}; B = {path_b}; ratio = B/A; spread = quartile distance / median, the wider side");
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B/A", "bound", "spread"
    );
    let mut acceptable = true;
    let mut compared = 0;
    for workload in WORKLOADS {
        let (Some(ra), Some(rb)) = (a.runs.get(workload), b.runs.get(workload)) else {
            continue;
        };
        let signature = work_signature(&ra[0]);
        if let Some(odd) = ra
            .iter()
            .chain(rb)
            .map(work_signature)
            .find(|s| *s != signature)
        {
            let diff: Vec<String> = odd
                .iter()
                .filter(|kv| !signature.contains(kv))
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            return Err(format!(
                "refusing to compare {workload}: runs did unequal work ({})",
                diff.join(", ")
            ));
        }
        for def in &contract.end_to_end {
            let (va, vb) = (metric_values(ra, &def.name), metric_values(rb, &def.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{workload}: {} missing from a side", def.name));
            }
            let (ma, mb, noise, verdict) = judge(def, &va, &vb);
            println!(
                "{:<14} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>6.1}% {:>6.1}%  {}",
                workload,
                def.name,
                ma,
                mb,
                mb / ma,
                def.bound.unwrap_or(0.0) * 100.0,
                noise * 100.0,
                verdict.label()
            );
            acceptable &= verdict != Verdict::Worse;
            compared += 1;
        }
        let share = |runs: &[Value]| total(runs, "failed") / total(runs, "attempted").max(1.0);
        let (fa, fb) = (share(ra), share(rb));
        println!(
            "{workload:<14} failed share    A {fa:.6} ({} runs)   B {fb:.6} ({} runs)",
            ra.len(),
            rb.len()
        );
        acceptable &= fb <= fa;
    }
    if compared == 0 {
        return Err("the two files share no workload".into());
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(lower: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "u".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = def(true, 0.10);
        let base = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(&lower, &base, &[103.0, 104.0, 102.0, 103.5]).3,
            Verdict::Within
        );
        assert_eq!(
            judge(&lower, &base, &[120.0, 121.0, 119.0, 120.5]).3,
            Verdict::Worse
        );
        assert_eq!(
            judge(&lower, &base, &[80.0, 81.0, 79.0, 80.5]).3,
            Verdict::Better
        );
        // Noisy baseline: a 20 % shift inside the noise is unresolved ...
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&lower, &noisy, &[100.0, 120.0, 140.0, 160.0]).3,
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(&lower, &noisy, &[50.0, 60.0, 70.0, 75.0]).3,
            Verdict::Better
        );

        let higher = def(false, 0.10);
        assert_eq!(
            judge(&higher, &base, &[80.0, 81.0, 79.0, 80.5]).3,
            Verdict::Worse
        );
        assert_eq!(
            judge(&higher, &base, &[120.0, 121.0, 119.0, 120.5]).3,
            Verdict::Better
        );
        let (ma, mb, noise, _) = judge(&lower, &base, &base);
        assert_eq!((ma, mb), (100.25, 100.25));
        assert!(noise < 0.02);
    }

    #[test]
    fn unequal_work_is_spotted() {
        let run = |epochs: f64, free: f64| {
            let mut ops = Value::obj();
            ops.set("epochs", epochs).set(FREE_OP, free);
            let mut r = Value::obj();
            r.set("seed", 1u64).set("ops", ops);
            r
        };
        assert_eq!(
            work_signature(&run(10.0, 5.0)),
            work_signature(&run(10.0, 9.0))
        );
        assert_ne!(
            work_signature(&run(10.0, 5.0)),
            work_signature(&run(11.0, 5.0))
        );
    }
}

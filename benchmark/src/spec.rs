//! The four workloads and the metric contract.
//!
//! Every workload runs the same five phases — offline fits and accuracy
//! evaluation, bulk admission, reads, join/leave churn, drift epochs —
//! through the same code, because the contract wants every end-to-end
//! metric from every workload. What differs is the shape (substrate,
//! host count, shards, pair popularity) and the operation count per
//! phase; the shape decides which layers carry the time. Phases are
//! sized by operation count, never by wall-clock, so counts, final model
//! state and accuracy repeat exactly for a given `--seed`/`--seconds`.

use crate::json::{self, Value};

/// `--seconds` at which the nominal operation counts below take about
/// that long on the 2-core reference host; other values scale the
/// counts linearly (sizes never change).
pub const NOMINAL_SECONDS: f64 = 15.0;

/// The paper's presentation date (IMC'04, 25 October 2004).
pub const DEFAULT_SEED: u64 = 20041025;

pub const WORKLOADS: [&str; 4] = ["paper_offline", "serve_hot", "serve_wide", "churn_drift"];

/// Queries per timed block: one `Instant` pair per 1024 calls keeps the
/// clock out of an ~100 ns operation.
pub const BLOCK: usize = 1024;

/// Rows per bulk `join_many` call.
pub const ADMIT_CHUNK: usize = 65_536;

/// Where a workload's hosts and distances come from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Substrate {
    /// `generators::p2psim_like(target)`, trimmed to the first `keep`
    /// filtered rows so the matrix size does not move with the seed.
    P2psim { target: usize, keep: usize },
    /// `TransitStubParams::internet_scale(landmarks + hosts)`.
    TransitStub,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Sizes shrunk ~50x for a seconds-long sanity run.
    pub smoke: bool,
    pub substrate: Substrate,
    /// Serving deployment: landmark count, model dimension, resident
    /// hosts, engine shards, and whether query pairs are skewed
    /// (log-uniform host rank) or uniform.
    pub landmarks: usize,
    pub dim: usize,
    pub hosts: usize,
    pub shards: usize,
    pub skewed: bool,
    /// Offline phase: hosts in the fitted matrix when it is sampled from
    /// a transit-stub topology (P2PSim fits its whole trimmed matrix),
    /// full-matrix fits per algorithm, landmark-architecture repetitions.
    pub offline_hosts: usize,
    pub fits: usize,
    pub eval_reps: usize,
    /// Laps the run is cut into: each lap performs its share of every
    /// count below, so every metric is sampled across the whole run.
    pub laps: usize,
    /// Serving phases: fresh-engine bulk admissions (beyond the one that
    /// deploys), query blocks for one reader and per reader of the
    /// traced run's `nproc` phase, join→leave cycles per client, drift
    /// epochs.
    pub admit_reps: usize,
    pub blocks_single: usize,
    pub blocks_mt: usize,
    pub churn_cycles: usize,
    pub epochs: usize,
    /// Accuracy probe pairs and reference-check sample.
    pub probe_pairs: usize,
    pub reference_hosts: usize,
    pub reference_pairs: usize,
}

/// Landmark architecture of the paper's §6 experiment, used by every
/// workload's offline accuracy evaluation.
pub const EVAL_LANDMARKS: usize = 20;
pub const EVAL_DIM: usize = 8;
/// Dimension of the full-matrix fits (paper: d ≈ 10 is the sweet spot).
pub const FIT_DIM: usize = 10;
/// Distinct landmark draws the evaluation cycles through; `rel_err_*`
/// pools them so one lucky draw does not set the accuracy.
pub const EVAL_SPLITS: usize = 16;
/// Every fourth evaluation repetition drops this share of each host's
/// landmark measurements (paper §6.2).
pub const EVAL_UNOBSERVED: f64 = 0.25;

fn scaled(nominal: usize, scale: f64, floor: usize) -> usize {
    ((nominal as f64 * scale).round() as usize).max(floor)
}

impl Spec {
    /// The spec of `name` with operation counts scaled by `scale`
    /// (`--seconds / NOMINAL_SECONDS`); `smoke` also shrinks the sizes.
    pub fn of(name: &str, scale: f64, smoke: bool) -> Option<Spec> {
        let size = |full: usize, small: usize| if smoke { small } else { full };
        let base = Spec {
            smoke,
            substrate: Substrate::TransitStub,
            landmarks: 64,
            dim: 16,
            hosts: 0,
            shards: 1,
            skewed: false,
            offline_hosts: size(192, 64),
            laps: if smoke { 2 } else { 8 },
            fits: scaled(16, scale, 2),
            eval_reps: scaled(200, scale, 4),
            admit_reps: scaled(40, scale, 1),
            blocks_single: 0,
            blocks_mt: 0,
            churn_cycles: scaled(600, scale, 12),
            epochs: scaled(1000, scale, 12),
            probe_pairs: size(20_000, 2_000),
            reference_hosts: size(256, 32),
            reference_pairs: size(1_000, 100),
        };
        Some(match name {
            // The paper's own experiment: full-matrix fits on ~1000 hosts
            // dominate; the deployment it then serves is small. It is
            // served at the other workloads' landmark shape: with the
            // paper's 20 landmarks at d = 8 an epoch is 0.4 ms of mostly
            // thread spawns, which no estimator steadies.
            "paper_offline" => Spec {
                substrate: Substrate::P2psim {
                    target: size(1143, 200),
                    keep: size(1024, 96),
                },
                hosts: size(1024, 96) - 64,
                epochs: scaled(500, scale, 12),
                // One second-long fit of each kind per lap.
                laps: scaled(3, scale, 2).min(8),
                fits: scaled(3, scale, 2),
                eval_reps: scaled(160, scale, 4),
                blocks_single: scaled(3_200, scale, 8),
                blocks_mt: scaled(1_600, scale, 8),
                ..base
            },
            // Working set inside L2, pair cache useful: per-query overhead
            // is the whole cost.
            "serve_hot" => Spec {
                hosts: size(500, 100),
                skewed: true,
                blocks_single: scaled(24_000, scale, 8),
                blocks_mt: scaled(8_000, scale, 8),
                ..base
            },
            // 25.6 MB of coordinates against 4 MiB of L2, uniform pairs:
            // every query misses cache and memory; the only workload where
            // the rejoin GEMM, chunk-tree publish and sharding carry work.
            "serve_wide" => Spec {
                hosts: size(100_000, 2_000),
                shards: 2,
                admit_reps: scaled(3, scale, 1),
                blocks_single: scaled(4_000, scale, 8),
                blocks_mt: scaled(3_200, scale, 8),
                epochs: scaled(40, scale, 12),
                ..base
            },
            // Writes beside reads: coalescer, cached-Gram solves, absorb /
            // refresh tiers and publish dominate.
            "churn_drift" => Spec {
                hosts: size(5_000, 200),
                admit_reps: scaled(20, scale, 1),
                blocks_single: scaled(3_200, scale, 8),
                blocks_mt: scaled(1_280, scale, 8),
                churn_cycles: scaled(5000, scale, 12),
                ..base
            },
            _ => return None,
        })
    }

    /// Where in the drift schedule the traced run's reads-beside-writes
    /// segment sits: right after the epoch phase, a quarter as long.
    pub fn mixed_epochs_range(&self) -> std::ops::Range<usize> {
        self.epochs..self.epochs + (self.epochs / 4).clamp(12, 250)
    }

    /// And where its `apply_epochs` probe does: two batches of four.
    pub fn pipelined_epochs_range(&self) -> std::ops::Range<usize> {
        let start = self.mixed_epochs_range().end;
        start..start + 8
    }

    /// Drift updates generated at set-up: the epoch phase's, then the
    /// two traced-run segments above.
    pub fn updates_needed(&self) -> usize {
        self.pipelined_epochs_range().end
    }
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Regression bound as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// The contract file, compiled in so names, units, directions and bounds
/// have one source of truth.
const CONTRACT: &str = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Contract {
    pub fn load() -> Contract {
        let doc = json::parse(CONTRACT).expect("BENCHMARK.json parses");
        let defs = |key: &str| -> Vec<MetricDef> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| MetricDef {
                    name: m
                        .get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string(),
                    unit: m
                        .get("unit")
                        .and_then(Value::as_str)
                        .expect("unit")
                        .to_string(),
                    lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(Value::as_f64),
                })
                .collect()
        };
        Contract {
            end_to_end: defs("end_to_end"),
            per_layer: defs("per_layer"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_lists_the_workloads_and_is_well_formed() {
        let doc = json::parse(CONTRACT).unwrap();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
        let run_seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
        let c = Contract::load();
        assert_eq!(c.end_to_end.len(), 10);
        assert!(c
            .end_to_end
            .iter()
            .all(|m| matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25)));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let mut all: Vec<&str> = c
            .end_to_end
            .iter()
            .chain(&c.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "metric names are used once");
    }

    #[test]
    fn specs_scale_counts_not_sizes() {
        for name in WORKLOADS {
            let full = Spec::of(name, 1.0, false).unwrap();
            let half = Spec::of(name, 0.5, false).unwrap();
            assert_eq!(
                (full.hosts, full.landmarks, full.dim),
                (half.hosts, half.landmarks, half.dim)
            );
            assert!(half.epochs <= full.epochs && half.churn_cycles < full.churn_cycles);
            let smoke = Spec::of(name, 0.02, true).unwrap();
            assert!(smoke.hosts < full.hosts && smoke.epochs >= 12);
        }
        assert!(Spec::of("nope", 1.0, false).is_none());
    }
}

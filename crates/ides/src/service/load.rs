//! Wall-clock load harness: drives real threads against a
//! [`ShardedEngine`] and reports latency quantiles and throughput.
//!
//! Unlike [`super::replay`] (deterministic, event-ordered, used for the
//! bit-identity contracts), this harness measures the engine under
//! genuine concurrency: `threads` query workers sample pairs as fast as
//! they can (closed loop) or paced to a target rate (open loop), an
//! optional drift writer applies epoch updates at a fixed interval, and
//! an optional churn worker joins/leaves hosts continuously. Per-thread
//! [`LatencyHistogram`]s merge into the report, so p50/p99 come from
//! every recorded operation, not a sample; each query also lands in the
//! histogram of the shard that served its first endpoint
//! ([`LoadReport::per_shard_latency`]), so shard imbalance is visible.
//!
//! This is the measurement side of the `serve` / `serve_sharded` bench
//! groups and the `ides-cli serve` command: quiescent vs under-drift
//! query p99, admission throughput with and without coalescing, and
//! sharded-vs-single throughput. [`scale_scenario`] builds the
//! million-host deployment (topology-direct, bulk-admitted via
//! [`ShardedEngine::join_many`]) that backs the scale acceptance runs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{IdesError, Result};
use crate::streaming::{EpochUpdate, StalenessPolicy, StreamingServer};

use super::metrics::{LatencyHistogram, ServiceStats};
use super::{NodeId, ServiceConfig, ShardedEngine};

/// Query-load shape.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Query worker threads.
    pub threads: usize,
    /// Wall-clock run time.
    pub duration: Duration,
    /// Seed for the per-thread pair sampling streams.
    pub seed: u64,
    /// `None` = closed loop (each worker issues its next query as soon as
    /// the previous one returns); `Some(rate)` = open loop, each worker
    /// paced to `rate` queries per second with exponential gaps.
    pub pace_per_thread: Option<f64>,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            threads: 4,
            duration: Duration::from_secs(2),
            seed: 20041025,
            pace_per_thread: None,
        }
    }
}

/// Continuous drift applied while the query load runs: the updates are
/// cycled in order, one writer call per `interval` — a single
/// [`ShardedEngine::apply_epoch`] when `batch <= 1`, one
/// [`ShardedEngine::apply_epochs`] batch otherwise (one publish per
/// batch).
#[derive(Debug, Clone)]
pub struct DriftLoad {
    /// Epoch updates to cycle through (epochs are re-stamped
    /// monotonically so the streaming server always moves forward).
    pub updates: Vec<EpochUpdate>,
    /// Wall-clock gap between writer calls.
    pub interval: Duration,
    /// Epochs per writer call (0/1 = one publish per epoch; >= 2 = one
    /// publish per batch).
    pub batch: usize,
}

/// Continuous admission churn applied while the query load runs: each
/// (out, in) measurement row is joined and immediately left, cycling.
#[derive(Debug, Clone)]
pub struct ChurnLoad {
    /// Measurement rows to cycle through.
    pub rows: Vec<(Vec<f64>, Vec<f64>)>,
    /// Wall-clock gap between join/leave pairs (zero = as fast as
    /// possible).
    pub interval: Duration,
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Actual wall-clock time spent.
    pub elapsed: Duration,
    /// Queries answered across all workers.
    pub queries: u64,
    /// Merged query-latency histogram.
    pub query_latency: LatencyHistogram,
    /// Queries per second (all workers combined).
    pub queries_per_sec: f64,
    /// Drift epochs applied during the run.
    pub epochs: u64,
    /// Join/leave pairs completed by the churn worker.
    pub churned: u64,
    /// Query latency split by the shard that served each query's first
    /// endpoint (one entry per shard).
    pub per_shard_latency: Vec<LatencyHistogram>,
}

/// Runs the query load (plus optional drift writer and churn worker)
/// against `engine`, sampling query pairs uniformly from `nodes`. The
/// node list must stay valid for the whole run — pass landmarks and
/// hosts that the churn worker does not touch.
pub fn run(
    engine: &ShardedEngine,
    nodes: &[NodeId],
    config: &LoadConfig,
    drift: Option<&DriftLoad>,
    churn: Option<&ChurnLoad>,
) -> Result<LoadReport> {
    if nodes.len() < 2 {
        return Err(IdesError::InvalidInput(
            "need at least two nodes to query".into(),
        ));
    }
    if config.threads == 0 {
        return Err(IdesError::InvalidInput(
            "need at least one query worker".into(),
        ));
    }
    let n_shards = engine.shard_count();
    let stats_before = engine.stats();
    let stop = AtomicBool::new(false);
    let start = Instant::now();

    let mut worker_hists: Vec<Vec<LatencyHistogram>> = Vec::new();
    let mut churned = 0u64;
    std::thread::scope(|scope| {
        // Query workers.
        let mut handles = Vec::new();
        for tid in 0..config.threads {
            let stop = &stop;
            handles.push(scope.spawn(move || {
                let mut rng =
                    StdRng::seed_from_u64(config.seed ^ (tid as u64).wrapping_mul(0x9E37));
                let mut hists: Vec<LatencyHistogram> =
                    (0..n_shards).map(|_| LatencyHistogram::new()).collect();
                let mut next_at = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    if let Some(rate) = config.pace_per_thread {
                        // Open loop: exponential inter-arrival pacing.
                        let gap = -(1.0 - rng.gen_range(0.0f64..1.0)).ln() / rate;
                        next_at += Duration::from_secs_f64(gap);
                        let now = Instant::now();
                        if next_at > now {
                            std::thread::sleep(next_at - now);
                        }
                    }
                    let a = nodes[rng.gen_range(0..nodes.len())];
                    let b = nodes[rng.gen_range(0..nodes.len())];
                    let t0 = Instant::now();
                    let est = engine.estimate(a, b);
                    hists[engine.shard_of(a)].record(t0.elapsed());
                    debug_assert!(est.is_ok(), "query failed: {est:?}");
                    let _ = est;
                }
                hists
            }));
        }
        // Drift writer.
        let drift_handle = drift.map(|d| {
            let stop = &stop;
            scope.spawn(move || {
                let mut epoch = f64::max(engine.current_epoch(), 0.0);
                let mut i = 0usize;
                let batch = d.batch.max(1);
                let mut updates: Vec<EpochUpdate> = Vec::with_capacity(batch);
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(d.interval);
                    if stop.load(Ordering::Relaxed) || d.updates.is_empty() {
                        break;
                    }
                    updates.clear();
                    for _ in 0..batch {
                        epoch += 1.0;
                        let mut update = d.updates[i % d.updates.len()].clone();
                        update.epoch = epoch;
                        updates.push(update);
                        i += 1;
                    }
                    if batch == 1 {
                        engine.apply_epoch(&updates[0]).expect("drift epoch");
                    } else {
                        engine.apply_epochs(&updates).expect("drift epoch batch");
                    }
                }
            })
        });
        // Churn worker.
        let churn_handle = churn.map(|c| {
            let stop = &stop;
            scope.spawn(move || {
                let mut done = 0u64;
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    if !c.interval.is_zero() {
                        std::thread::sleep(c.interval);
                    }
                    if stop.load(Ordering::Relaxed) || c.rows.is_empty() {
                        break;
                    }
                    let (d_out, d_in) = &c.rows[i % c.rows.len()];
                    let id = engine.join(d_out, d_in).expect("churn join");
                    engine.leave(id).expect("churn leave");
                    done += 1;
                    i += 1;
                }
                done
            })
        });

        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            worker_hists.push(h.join().expect("query worker panicked"));
        }
        if let Some(h) = drift_handle {
            h.join().expect("drift writer panicked");
        }
        if let Some(h) = churn_handle {
            churned = h.join().expect("churn worker panicked");
        }
    });

    let elapsed = start.elapsed();
    let mut per_shard_latency: Vec<LatencyHistogram> =
        (0..n_shards).map(|_| LatencyHistogram::new()).collect();
    for worker in &worker_hists {
        for (merged, h) in per_shard_latency.iter_mut().zip(worker) {
            merged.merge(h);
        }
    }
    let mut query_latency = LatencyHistogram::new();
    for h in &per_shard_latency {
        query_latency.merge(h);
    }
    let stats_after = engine.stats();
    let queries = query_latency.count();
    Ok(LoadReport {
        elapsed,
        queries,
        queries_per_sec: queries as f64 / elapsed.as_secs_f64(),
        epochs: stats_after.epochs.saturating_sub(stats_before.epochs),
        churned,
        query_latency,
        per_shard_latency,
    })
}

/// A ready-to-serve synthetic deployment: an engine over a drifting
/// transit-stub substrate with `hosts` ordinary hosts admitted, plus the
/// raw material the load drivers need (query node list, the hosts'
/// measurement rows for churn, and a cycle of landmark drift epochs).
/// Shared by `ides-cli serve`, the `serve` / `serve_sharded` bench
/// groups, and the `serve_load` experiment so they all measure the same
/// deployment.
#[derive(Debug)]
pub struct ServeScenario {
    /// The serving engine (landmark model fitted, hosts admitted).
    pub engine: ShardedEngine,
    /// Landmarks plus every admitted host — the query population.
    pub nodes: Vec<NodeId>,
    /// Admitted hosts' measurement rows (out, in), usable as churn fodder
    /// or to re-derive coordinates externally. [`scale_scenario`] retains
    /// only a sample (keeping a million rows would dwarf the engine).
    pub host_rows: Vec<(Vec<f64>, Vec<f64>)>,
    /// Landmark drift epochs (non-empty batches, in epoch order) to cycle
    /// through a [`DriftLoad`].
    pub drift_updates: Vec<EpochUpdate>,
}

/// The fitted substrate every scenario builder starts from: a drifting
/// transit-stub topology, the landmark ids, a [`StreamingServer`] fitted
/// on the epoch-zero landmark matrix, and a cycle of drift epochs.
struct ScenarioSubstrate {
    topology: ides_netsim::TransitStubTopology,
    drift: ides_netsim::drift::DriftModel,
    lm_ids: Vec<usize>,
    host_ids: Vec<usize>,
    server: StreamingServer,
    drift_updates: Vec<EpochUpdate>,
}

impl ScenarioSubstrate {
    /// Fits the landmark model at drift epoch zero over the given
    /// topology and host-id split. Deterministic per topology/seed.
    fn fit(
        topology: ides_netsim::TransitStubTopology,
        lm_ids: Vec<usize>,
        host_ids: Vec<usize>,
        dim: usize,
        seed: u64,
        policy: StalenessPolicy,
    ) -> Result<ScenarioSubstrate> {
        use ides_netsim::drift::{DriftModel, DriftStream};

        let landmarks = lm_ids.len();
        let drift = DriftModel::new(0.2, 24.0, seed);
        let lm = ides_linalg::Matrix::from_fn(landmarks, landmarks, |a, b| {
            drift.rtt(&topology, lm_ids[a], lm_ids[b], 0.0)
        });
        let server = StreamingServer::new(
            &ides_datasets::DistanceMatrix::full("serve-lm", lm)
                .map_err(|e| IdesError::InvalidInput(e.to_string()))?,
            dim,
            policy,
        )?;
        let mut stream = DriftStream::new(&topology, drift.clone(), lm_ids.clone(), 1.0, 0.01);
        let drift_updates: Vec<EpochUpdate> = (&mut stream)
            .take(16)
            .filter(|b| !b.samples.is_empty())
            .map(|b| super::replay::epoch_update_from_batch(&b))
            .collect();
        Ok(ScenarioSubstrate {
            topology,
            drift,
            lm_ids,
            host_ids,
            server,
            drift_updates,
        })
    }

    /// Measurement row of ordinary host `h` at drift epoch zero (the same
    /// row for both directions — the harness measures serving cost, not
    /// asymmetry recovery).
    fn row(&self, h: usize) -> Vec<f64> {
        ides_netsim::workload::measurement_row(&self.topology, &self.drift, h, &self.lm_ids, 0.0)
    }
}

/// Builds the P2PSim-like substrate used by [`synthetic_scenario`]
/// (post-filter host sampling, King-style measurement of the landmark
/// matrix's substrate).
fn p2psim_substrate(
    landmarks: usize,
    hosts: usize,
    dim: usize,
    seed: u64,
    policy: StalenessPolicy,
) -> Result<ScenarioSubstrate> {
    // `p2psim_like(n)` treats `n` as a *post-filter* target: how many
    // hosts survive its measurement-loss filter is stochastic, and at
    // larger populations the survivor count can land short of the
    // request. Grow the target until enough hosts survive — each
    // attempt is deterministic per (target, seed).
    let want = landmarks + hosts;
    let mut target = want;
    let ds = loop {
        let ds = ides_datasets::generators::p2psim_like(target, seed)
            .map_err(|e| IdesError::InvalidInput(e.to_string()))?;
        if ds.row_hosts.len() >= want {
            break ds;
        }
        target += target / 4 + 16;
    };
    let lm_ids: Vec<usize> = ds.row_hosts[..landmarks].to_vec();
    let host_ids: Vec<usize> = ds.row_hosts[landmarks..landmarks + hosts].to_vec();
    ScenarioSubstrate::fit(ds.topology, lm_ids, host_ids, dim, seed, policy)
}

/// Builds a [`ServeScenario`]: a P2PSim-like transit-stub topology, a
/// ±20 % diurnal drift layer, `landmarks` landmarks fitted at drift epoch
/// zero under `policy`, and `hosts`
/// ordinary hosts admitted one by one from their epoch-zero measurements,
/// round-robin over `shards` shards. Deterministic per seed.
pub fn synthetic_scenario(
    landmarks: usize,
    hosts: usize,
    dim: usize,
    seed: u64,
    shards: usize,
    policy: StalenessPolicy,
) -> Result<ServeScenario> {
    let sub = p2psim_substrate(landmarks, hosts, dim, seed, policy)?;
    let host_rows: Vec<(Vec<f64>, Vec<f64>)> = sub
        .host_ids
        .iter()
        .map(|&h| {
            let row = sub.row(h);
            (row.clone(), row)
        })
        .collect();
    let engine = ShardedEngine::new(sub.server, shards, ServiceConfig::default())?;
    let mut nodes: Vec<NodeId> = (0..landmarks).map(NodeId::Landmark).collect();
    for (d_out, d_in) in &host_rows {
        nodes.push(engine.join_direct(d_out, d_in)?);
    }
    Ok(ServeScenario {
        engine,
        nodes,
        host_rows,
        drift_updates: sub.drift_updates,
    })
}

/// Rows per [`ShardedEngine::join_many`] call in [`scale_scenario`]: the
/// whole population is admitted in `hosts / SCALE_ADMIT_CHUNK` bulk
/// batches (one solve + one publish per involved shard per batch), so a
/// million hosts take tens of publishes instead of a million.
pub const SCALE_ADMIT_CHUNK: usize = 65_536;

/// How many admitted hosts' measurement rows [`scale_scenario`] retains
/// as churn fodder.
pub const SCALE_CHURN_SAMPLE: usize = 1_024;

/// Builds the **scale** deployment: a transit-stub topology generated
/// directly at `landmarks + hosts` end hosts (no O(n²) measured matrix —
/// unlike [`synthetic_scenario`], whose P2PSim-style measurement pass
/// caps out around 10⁴ hosts), landmarks fitted at drift epoch zero, and
/// all `hosts` admitted through [`ShardedEngine::join_many`] in
/// [`SCALE_ADMIT_CHUNK`]-row batches. This is the ≥10⁶-host scenario
/// behind the `serve_sharded` bench group. Deterministic per seed.
pub fn scale_scenario(
    landmarks: usize,
    hosts: usize,
    dim: usize,
    seed: u64,
    shards: usize,
) -> Result<ServeScenario> {
    use ides_netsim::{TransitStubParams, TransitStubTopology};
    use rand::rngs::StdRng as NetRng;
    use rand::SeedableRng as _;

    let n = landmarks + hosts;
    let params = TransitStubParams::internet_scale(n);
    let mut rng = NetRng::seed_from_u64(seed);
    let topology = TransitStubTopology::generate(&params, &mut rng);
    let lm_ids: Vec<usize> = (0..landmarks).collect();
    let host_ids: Vec<usize> = (landmarks..n).collect();
    let sub = ScenarioSubstrate::fit(
        topology,
        lm_ids,
        host_ids,
        dim,
        seed,
        StalenessPolicy::default(),
    )?;

    let engine = ShardedEngine::new(sub.server.clone(), shards, ServiceConfig::default())?;
    let mut nodes: Vec<NodeId> = (0..landmarks).map(NodeId::Landmark).collect();
    nodes.reserve(hosts);
    let mut host_rows: Vec<(Vec<f64>, Vec<f64>)> = Vec::with_capacity(SCALE_CHURN_SAMPLE);
    for chunk in sub.host_ids.chunks(SCALE_ADMIT_CHUNK) {
        let mut batch = ides_linalg::Matrix::zeros(0, landmarks);
        for &h in chunk {
            let row = sub.row(h);
            if host_rows.len() < SCALE_CHURN_SAMPLE {
                host_rows.push((row.clone(), row.clone()));
            }
            batch.push_row(&row);
        }
        nodes.extend(engine.join_many(&batch, &batch)?);
    }
    Ok(ServeScenario {
        engine,
        nodes,
        host_rows,
        drift_updates: sub.drift_updates,
    })
}

/// Admission-throughput comparison: `rows` join requests issued by
/// `joiner_threads` concurrent threads, once through the group commit
/// ([`ShardedEngine::join`]) and once uncoalesced
/// ([`ShardedEngine::join_direct`]: the same writer and the same cached
/// solver, but one solve and one publish per request), each against a
/// fresh engine from `make_engine`.
/// Threads rendezvous at a barrier before the clock starts, so spawn
/// overhead is excluded and both sides measure pure admission work. The
/// two sides differ only in batching, so the ratio is what group commit
/// buys under this much contention.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionReport {
    /// Join requests issued per side.
    pub joiners: usize,
    /// Coalesced admissions per second.
    pub coalesced_per_sec: f64,
    /// Uncoalesced (`join_direct`) admissions per second.
    pub direct_per_sec: f64,
    /// `coalesced_per_sec / direct_per_sec`.
    pub speedup: f64,
    /// Batched flushes the coalesced side needed (`joiners / flushes` is
    /// the realized batch size).
    pub coalesced_flushes: u64,
}

/// Runs the comparison (see [`AdmissionReport`]).
pub fn admission_comparison(
    make_engine: impl Fn() -> Result<ShardedEngine>,
    rows: &[(Vec<f64>, Vec<f64>)],
    joiner_threads: usize,
) -> Result<AdmissionReport> {
    if rows.is_empty() {
        return Err(IdesError::InvalidInput(
            "need at least one host row to compare admission paths".into(),
        ));
    }
    let joiner_threads = joiner_threads.clamp(1, rows.len());
    let time_side = |coalesced: bool| -> Result<(Duration, u64)> {
        let engine = make_engine()?;
        let chunk = rows.len().div_ceil(joiner_threads);
        let parts: Vec<&[(Vec<f64>, Vec<f64>)]> = rows.chunks(chunk).collect();
        // +1: the timing thread releases the barrier and stamps the start.
        let barrier = std::sync::Barrier::new(parts.len() + 1);
        let mut elapsed = Duration::ZERO;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for part in &parts {
                let engine = &engine;
                let barrier = &barrier;
                let part: &[(Vec<f64>, Vec<f64>)] = part;
                handles.push(scope.spawn(move || {
                    barrier.wait();
                    for (d_out, d_in) in part {
                        let joined = if coalesced {
                            engine.join(d_out, d_in)
                        } else {
                            engine.join_direct(d_out, d_in)
                        };
                        joined.expect("admission join");
                    }
                }));
            }
            barrier.wait();
            let start = Instant::now();
            for h in handles {
                h.join().expect("joiner thread panicked");
            }
            elapsed = start.elapsed();
        });
        Ok((elapsed, engine.stats().flushes))
    };
    let (coalesced_t, flushes) = time_side(true)?;
    let (direct_t, _) = time_side(false)?;
    let n = rows.len() as f64;
    let coalesced_per_sec = n / coalesced_t.as_secs_f64();
    let direct_per_sec = n / direct_t.as_secs_f64();
    Ok(AdmissionReport {
        joiners: rows.len(),
        coalesced_per_sec,
        direct_per_sec,
        speedup: coalesced_per_sec / direct_per_sec,
        coalesced_flushes: flushes,
    })
}

/// Parameters of the standard serving measurement (admission comparison
/// plus quiescent and under-drift query phases) shared by `ides-cli
/// serve` and the `serve_load` experiment.
#[derive(Debug, Clone, Copy)]
pub struct ServeMeasurementConfig {
    /// Landmarks in the synthetic deployment.
    pub landmarks: usize,
    /// Ordinary hosts admitted (and concurrent joiners in the admission
    /// comparison).
    pub hosts: usize,
    /// Model dimensionality.
    pub dim: usize,
    /// Query worker threads.
    pub threads: usize,
    /// Wall-clock budget of EACH query phase.
    pub phase: Duration,
    /// Scenario / sampling seed.
    pub seed: u64,
    /// Open-loop per-thread pacing; `None` = closed loop.
    pub pace_per_thread: Option<f64>,
    /// Gap between drift epochs in the under-drift phase.
    pub drift_interval: Duration,
    /// Drift epochs per writer call (1 = one publish per epoch; >= 2 =
    /// one publish per batch).
    pub drift_batch: usize,
    /// Horizontal shards (1 = classic single-writer serving).
    pub shards: usize,
}

impl Default for ServeMeasurementConfig {
    fn default() -> Self {
        ServeMeasurementConfig {
            landmarks: 64,
            hosts: 500,
            dim: 16,
            threads: 4,
            phase: Duration::from_secs(2),
            seed: 20041025,
            pace_per_thread: None,
            drift_interval: Duration::from_millis(2),
            drift_batch: 1,
            shards: 1,
        }
    }
}

/// The standard serving measurement's results, shared by `ides-cli serve`
/// and the `serve_load` experiment, with the one JSON emitter behind
/// `ides-cli serve --json`.
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// The parameters measured under.
    pub config: ServeMeasurementConfig,
    /// Coalesced vs uncoalesced admission.
    pub admission: AdmissionReport,
    /// Query phase with no writer activity.
    pub quiescent: LoadReport,
    /// Query phase under continuous drift epochs.
    pub drifting: LoadReport,
    /// Publish latency across both phases (merged over shards).
    pub publish: LatencyHistogram,
    /// End-of-run engine counters and gauges (summed over shards):
    /// coalescer queue depth, snapshot chunk sharing, stored measurement
    /// bytes.
    pub stats: ServiceStats,
}

impl ServeSummary {
    /// Runs the standard measurement: builds the scenario over
    /// `config.shards` shards, re-admits every host onto fresh engines
    /// for the admission comparison, then runs the two query phases
    /// against the admitted deployment.
    pub fn measure(config: ServeMeasurementConfig) -> Result<ServeSummary> {
        let scenario_with = |hosts: usize| {
            synthetic_scenario(
                config.landmarks,
                hosts,
                config.dim,
                config.seed,
                config.shards.max(1),
                StalenessPolicy::default(),
            )
        };
        let scenario = scenario_with(config.hosts)?;
        let admission = admission_comparison(
            || scenario_with(0).map(|s| s.engine),
            &scenario.host_rows,
            config.hosts,
        )?;
        let load_cfg = LoadConfig {
            threads: config.threads,
            duration: config.phase,
            seed: config.seed,
            pace_per_thread: config.pace_per_thread,
        };
        let quiescent = run(&scenario.engine, &scenario.nodes, &load_cfg, None, None)?;
        let drift = DriftLoad {
            updates: scenario.drift_updates.clone(),
            interval: config.drift_interval,
            batch: config.drift_batch.max(1),
        };
        let drifting = run(
            &scenario.engine,
            &scenario.nodes,
            &load_cfg,
            Some(&drift),
            None,
        )?;
        let publish = scenario.engine.publish_latency();
        let stats = scenario.engine.stats();
        Ok(ServeSummary {
            config,
            admission,
            quiescent,
            drifting,
            publish,
            stats,
        })
    }

    /// Query-latency histogram merged across both query phases — the
    /// exact histogram the CLI's Prometheus exposition renders, so its
    /// `_count`/`_sum` reconcile bit-for-bit with the
    /// `telemetry_query_count`/`telemetry_query_sum_ns` JSON keys.
    pub fn query_latency_merged(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        merged.merge(&self.quiescent.query_latency);
        merged.merge(&self.drifting.query_latency);
        merged
    }

    /// Quiescent query quantile in microseconds.
    pub fn quiescent_us(&self, q: f64) -> f64 {
        self.quiescent.query_latency.quantile(q).as_secs_f64() * 1e6
    }

    /// Under-drift query quantile in microseconds.
    pub fn drift_us(&self, q: f64) -> f64 {
        self.drifting.query_latency.quantile(q).as_secs_f64() * 1e6
    }

    /// p99 under drift over quiescent p99 — the snapshot design's
    /// reader-isolation headline (acceptance: within 2x).
    pub fn p99_ratio(&self) -> f64 {
        let q = self.quiescent_us(0.99);
        if q > 0.0 {
            self.drift_us(0.99) / q
        } else {
            0.0
        }
    }

    /// The flat JSON object `ides-cli serve --json` prints, which
    /// `scripts/check_telemetry.sh` reads (hand-rendered: the vendored
    /// serde_json has no `json!` macro).
    pub fn to_json(&self) -> String {
        let us = |h: &LatencyHistogram, q: f64| h.quantile(q).as_secs_f64() * 1e6;
        // Per-shard quiescent latency: [{"shard": i, "p50_us": …, "p99_us": …}, …].
        let per_shard: Vec<String> = self
            .quiescent
            .per_shard_latency
            .iter()
            .enumerate()
            .map(|(i, h)| {
                format!(
                    "{{\"shard\": {i}, \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"queries\": {}}}",
                    us(h, 0.5),
                    us(h, 0.99),
                    h.count(),
                )
            })
            .collect();
        format!(
            "{{\"landmarks\": {}, \"hosts\": {}, \"dim\": {}, \"threads\": {}, \
             \"shards\": {}, \"mode\": \"{}\", \
             \"admission_joiners\": {}, \"admission_coalesced_per_sec\": {:.1}, \
             \"admission_direct_per_sec\": {:.1}, \"admission_speedup\": {:.3}, \
             \"admission_flushes\": {}, \
             \"quiescent_p50_us\": {:.3}, \"quiescent_p99_us\": {:.3}, \
             \"quiescent_qps\": {:.1}, \
             \"drift_p50_us\": {:.3}, \"drift_p99_us\": {:.3}, \
             \"drift_qps\": {:.1}, \"drift_epochs\": {}, \
             \"p99_drift_over_quiescent\": {:.4}, \
             \"publish_p50_us\": {:.3}, \"publish_p99_us\": {:.3}, \
             \"publishes\": {}, \
             \"drift_batch\": {}, \
             \"telemetry_query_count\": {}, \"telemetry_query_sum_ns\": {}, \
             \"coalescer_depth\": {}, \"chunk_share_ratio\": {:.4}, \
             \"measurement_bytes\": {}, \
             \"per_shard\": [{}]}}",
            self.config.landmarks,
            self.config.hosts,
            self.config.dim,
            self.config.threads,
            self.config.shards.max(1),
            if self.config.pace_per_thread.is_some() {
                "open"
            } else {
                "closed"
            },
            self.admission.joiners,
            self.admission.coalesced_per_sec,
            self.admission.direct_per_sec,
            self.admission.speedup,
            self.admission.coalesced_flushes,
            self.quiescent_us(0.5),
            self.quiescent_us(0.99),
            self.quiescent.queries_per_sec,
            self.drift_us(0.5),
            self.drift_us(0.99),
            self.drifting.queries_per_sec,
            self.drifting.epochs,
            self.p99_ratio(),
            us(&self.publish, 0.5),
            us(&self.publish, 0.99),
            self.publish.count(),
            self.config.drift_batch.max(1),
            self.query_latency_merged().count(),
            self.query_latency_merged().sum_ns(),
            self.stats.coalescer_depth,
            self.stats.chunk_share_ratio(),
            self.stats.measurement_bytes,
            per_shard.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::MeasurementDelta;

    fn engine() -> ShardedEngine {
        let ds = ides_datasets::generators::p2psim_like(20, 31).expect("dataset");
        let sub: Vec<usize> = (0..12).collect();
        let lm = ds.matrix.submatrix(&sub, &sub);
        let server = StreamingServer::new(&lm, 4, StalenessPolicy::default()).expect("server");
        ShardedEngine::new(server, 1, ServiceConfig::default()).expect("engine")
    }

    #[test]
    fn short_load_run_reports_sane_numbers() {
        let e = engine();
        let nodes: Vec<NodeId> = (0..12).map(NodeId::Landmark).collect();
        let drift = DriftLoad {
            updates: vec![EpochUpdate {
                epoch: 0.0,
                deltas: vec![
                    MeasurementDelta {
                        from: 0,
                        to: 5,
                        rtt: 20.0,
                    },
                    MeasurementDelta {
                        from: 5,
                        to: 0,
                        rtt: 20.0,
                    },
                ],
            }],
            interval: Duration::from_millis(5),
            batch: 2, // exercise the batched writer path
        };
        let report = run(
            &e,
            &nodes,
            &LoadConfig {
                threads: 2,
                duration: Duration::from_millis(120),
                ..LoadConfig::default()
            },
            Some(&drift),
            None,
        )
        .expect("load run");
        assert!(report.queries > 0, "workers must make progress");
        assert!(report.queries_per_sec > 0.0);
        assert!(report.epochs >= 1, "drift writer must have applied epochs");
        assert!(report.query_latency.quantile(0.99) >= report.query_latency.quantile(0.5));
        assert!(report.elapsed >= Duration::from_millis(120));
    }

    #[test]
    fn scenario_builds_and_admission_comparison_runs() {
        let scenario = |hosts: usize, shards: usize| {
            let policy = StalenessPolicy::default();
            synthetic_scenario(10, hosts, 4, 99, shards, policy)
        };
        let s = scenario(12, 2).expect("scenario");
        assert_eq!(s.nodes.len(), 22);
        let admitted: usize = s.engine.snapshots().iter().map(|sn| sn.host_count()).sum();
        assert_eq!(admitted, 12);
        assert!(!s.drift_updates.is_empty(), "drift must emit epochs");
        // Every admitted host answers queries.
        for &n in &s.nodes {
            assert!(s.engine.estimate(n, s.nodes[0]).is_ok());
        }
        let report = admission_comparison(|| scenario(0, 1).map(|sc| sc.engine), &s.host_rows, 4)
            .expect("admission comparison");
        assert_eq!(report.joiners, 12);
        assert!(report.coalesced_per_sec > 0.0);
        assert!(report.direct_per_sec > 0.0);
        assert!(report.coalesced_flushes >= 1);
    }

    #[test]
    fn degenerate_load_shapes_are_errors_not_panics() {
        let e = engine();
        let nodes: Vec<NodeId> = (0..12).map(NodeId::Landmark).collect();
        let no_workers = LoadConfig {
            threads: 0,
            ..LoadConfig::default()
        };
        for refused in [
            run(&e, &nodes, &no_workers, None, None).map(|_| ()),
            run(&e, &nodes[..1], &LoadConfig::default(), None, None).map(|_| ()),
            admission_comparison(|| Ok(engine()), &[], 4).map(|_| ()),
        ] {
            assert!(matches!(refused, Err(IdesError::InvalidInput(_))));
        }
    }

    #[test]
    fn p2psim_substrate_survives_post_filter_shortfall() {
        // p2psim_like's measurement-loss filter keeps a stochastic
        // fraction of the requested population; around 2k hosts the
        // survivor count lands short of the request and the substrate
        // must regrow the target instead of slicing out of range
        // (regression: `serve --hosts 2000` panicked).
        let sub =
            p2psim_substrate(32, 2000, 4, 20040427, StalenessPolicy::default()).expect("substrate");
        assert_eq!(sub.lm_ids.len(), 32);
        assert_eq!(sub.host_ids.len(), 2000);
    }

    #[test]
    fn scale_scenario_bulk_admits_across_shards() {
        let s = scale_scenario(8, 300, 4, 7, 3).expect("scale scenario");
        assert_eq!(s.nodes.len(), 308);
        assert_eq!(s.engine.stats().joins, 300);
        assert!(s.host_rows.len() <= SCALE_CHURN_SAMPLE);
        // Round-robin dealing balances the one 300-row bulk batch.
        assert!(s.engine.shard_stats().iter().all(|st| st.joins == 100));
        // Bulk admission: one flush per shard for the whole batch.
        assert_eq!(s.engine.stats().flushes, 3);
        assert!(!s.drift_updates.is_empty());
        let est = s
            .engine
            .estimate(s.nodes[8], s.nodes[307])
            .expect("estimate");
        assert!(est.is_finite());
        // The load harness attributes latency per shard.
        let report = run(
            &s.engine,
            &s.nodes,
            &LoadConfig {
                threads: 2,
                duration: Duration::from_millis(80),
                ..LoadConfig::default()
            },
            None,
            None,
        )
        .expect("sharded load run");
        assert_eq!(report.per_shard_latency.len(), 3);
        assert!(report.queries > 0);
        let split: u64 = report.per_shard_latency.iter().map(|h| h.count()).sum();
        assert_eq!(split, report.queries);
    }

    #[test]
    fn open_loop_paces_below_closed_loop() {
        let e = engine();
        let nodes: Vec<NodeId> = (0..12).map(NodeId::Landmark).collect();
        let paced = run(
            &e,
            &nodes,
            &LoadConfig {
                threads: 1,
                duration: Duration::from_millis(100),
                pace_per_thread: Some(200.0), // ~20 queries in 100ms
                ..LoadConfig::default()
            },
            None,
            None,
        )
        .expect("paced run");
        // Closed loop on the same engine runs orders of magnitude faster;
        // the paced run must stay within a loose multiple of its target.
        assert!(
            paced.queries < 400,
            "open loop did not pace: {} queries",
            paced.queries
        );
    }
}

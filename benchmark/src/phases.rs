//! The five phases every workload runs — offline fits and accuracy
//! evaluation, bulk admission, reads, join/leave churn, drift epochs —
//! interleaved in laps, then the accuracy probe and the reference check.
//! Each product call goes through [`Tracer::request`], so its wall time
//! is filed under the call's name whether or not the run is traced.
//!
//! Closed loop everywhere: callers are in-process threads that wait for
//! each reply, never more of them than `nproc`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use ides::eval::{evaluate_ides, evaluate_ides_with_failures};
use ides::service::{NodeId, ServiceConfig, ShardedEngine};
use ides::streaming::{StalenessPolicy, StreamingServer};
use ides::system::{split_landmarks, IdesConfig};
use ides::BatchHostVectors;
use ides_linalg::Matrix;
use ides_mf::metrics::modified_relative_error;
use ides_mf::nmf::{self, NmfConfig};
use ides_mf::svd_model::{self, SvdConfig};
use ides_mf::FactorModel;

use crate::fingerprint::nproc;
use crate::inputs::Inputs;
use crate::reference;
use crate::rng::SplitMix64;
use crate::spec::{
    Spec, ADMIT_CHUNK, BLOCK, EVAL_DIM, EVAL_LANDMARKS, EVAL_SPLITS, EVAL_UNOBSERVED, FIT_DIM,
};
use crate::trace::Tracer;

/// Blocks in the ring the reader beside the epoch writer cycles through.
const WRITER_READER_RING: usize = 64;

/// Served estimates must match the reference join to this (relative).
const REFERENCE_TOLERANCE: f64 = 1e-6;

/// One pass over a workload: its inputs, the recorder, and the tallies
/// that are not timings.
pub struct Run<'a> {
    pub spec: &'a Spec,
    pub inp: &'a Inputs,
    pub seed: u64,
    pub tr: Tracer,
    /// Operations whose outcome was checked, and how many failed (an
    /// error, a non-finite answer, or a reference mismatch).
    pub attempted: u64,
    pub failed: u64,
    /// Exact per-phase operation counts (part of the fingerprint).
    pub ops: BTreeMap<&'static str, u64>,
    /// Results that repeat exactly for a seed: accuracy, iteration counts.
    pub values: BTreeMap<&'static str, f64>,
    /// State the offline phase carries from lap to lap.
    svd_first: Option<FactorModel>,
    nmf_first: Option<FactorModel>,
    pooled_errors: Vec<f64>,
    /// The traced run's twin of the landmark server (see `drift`).
    twin: Option<(StreamingServer, Vec<usize>, BatchHostVectors)>,
}

/// The serving deployment a pass leaves behind for the layer probes.
pub struct Deployment {
    /// The landmark server as fitted at epoch zero, before any drift.
    pub pristine: StreamingServer,
    pub engine: ShardedEngine,
    /// Resident hosts' ids, in `Inputs::rows` order, and the same as bare
    /// table slots (see [`host_slots`]).
    pub ids: Vec<NodeId>,
    pub slots: Vec<u32>,
    /// The rows cut into the chunks `join_many` takes.
    pub chunks: Vec<Matrix>,
}

/// The part of `total` operations that lap `lap` of `laps` performs.
fn lap_slice(total: usize, lap: usize, laps: usize) -> std::ops::Range<usize> {
    total * lap / laps..total * (lap + 1) / laps
}

impl<'a> Run<'a> {
    pub fn new(spec: &'a Spec, inp: &'a Inputs, seed: u64, traced: bool) -> Self {
        Run {
            spec,
            inp,
            seed,
            tr: Tracer::new(traced),
            attempted: 0,
            failed: 0,
            ops: BTreeMap::new(),
            values: BTreeMap::new(),
            svd_first: None,
            nmf_first: None,
            pooled_errors: Vec::new(),
            twin: None,
        }
    }

    fn op(&mut self, name: &'static str, n: u64) {
        *self.ops.entry(name).or_default() += n;
    }

    /// Counts `n` checked operations of which `bad` failed.
    pub fn check(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Runs the phases in `spec.laps` laps — every lap does its share of
    /// every phase, so each metric's samples are spread over the whole
    /// run and a quiet stretch of the host benefits all of them (see
    /// `metrics::end_to_end`). The deployment stays up for the probes.
    pub fn all_phases(&mut self) -> Deployment {
        let dep = self.deploy();
        for lap in 0..self.spec.laps {
            self.offline(lap);
            self.admit(&dep, lap);
            self.read(&dep, lap);
            self.churn(&dep, lap);
            self.drift(&dep, lap);
        }
        let mut pooled = std::mem::take(&mut self.pooled_errors);
        let (p50, p90) = p50_p90(&mut pooled);
        self.values.insert("offline_rel_err_p50", p50);
        self.values.insert("offline_rel_err_p90", p90);
        self.departed_id_is_refused(&dep);
        self.accuracy(&dep);
        self.reference_check(&dep);
        dep
    }

    // ---------------------------------------------------------------
    // Phase 1: the paper's offline experiment on `Inputs::offline`.
    // ---------------------------------------------------------------

    fn offline(&mut self, lap: usize) {
        let (spec, inp) = (self.spec, self.inp);
        let data = &inp.offline;
        let n = data.rows();

        // Full-matrix fits. Repeated fits of one matrix must agree to the
        // bit: both algorithms are deterministic by construction.
        let fits = lap_slice(spec.fits, lap, spec.laps).len();
        for _ in 0..fits {
            let (fit, _) = self.tr.request("request.fit_svd", "mf.svd_fit", || {
                svd_model::fit(data, SvdConfig::new(FIT_DIM))
            });
            let ok =
                fit.is_ok_and(|m| same_bits(self.svd_first.get_or_insert_with(|| m.clone()), &m));
            self.check(1, u64::from(!ok));
        }
        for _ in 0..fits {
            let (fit, _) = self.tr.request("request.fit_nmf", "mf.nmf_fit", || {
                nmf::fit(data, NmfConfig::new(FIT_DIM))
            });
            let ok = fit.is_ok_and(|f| {
                self.values
                    .insert("nmf_iterations", f.error_trace.len() as f64);
                same_bits(
                    self.nmf_first.get_or_insert_with(|| f.model.clone()),
                    &f.model,
                )
            });
            self.check(1, u64::from(!ok));
        }
        self.op("fits_svd", fits as u64);
        self.op("fits_nmf", fits as u64);

        // §6 landmark architecture: build from 20 random landmarks, batch
        // join every other host, score all ordinary pairs. Repetitions
        // cycle through EVAL_SPLITS landmark draws; every fourth one runs
        // the §6.2 variant where hosts miss a share of the landmarks.
        let (m, config) = eval_shape(n);
        let reps = lap_slice(spec.eval_reps, lap, spec.laps);
        let mut pairs = 0u64;
        for rep in reps.clone() {
            let split = rep % EVAL_SPLITS;
            let split_seed = self.seed.wrapping_mul(1000).wrapping_add(split as u64);
            let (landmarks, ordinary) = split_landmarks(n, m, split_seed);
            let (result, secs) = if rep % 4 == 3 {
                self.tr.request(
                    "request.eval_failures",
                    "eval.evaluate_ides_with_failures",
                    || {
                        evaluate_ides_with_failures(
                            data,
                            &landmarks,
                            &ordinary,
                            config,
                            EVAL_UNOBSERVED,
                            split_seed,
                        )
                    },
                )
            } else {
                self.tr.request("request.eval", "eval.evaluate_ides", || {
                    evaluate_ides(data, &landmarks, &ordinary, config)
                })
            };
            match result {
                Ok(r) => {
                    pairs += r.pairs_evaluated as u64;
                    self.tr
                        .note("rate.eval_pairs", r.pairs_evaluated as f64 / secs);
                    let bad = r.errors.iter().filter(|e| !e.is_finite()).count() as u64;
                    self.check(r.errors.len() as u64, bad);
                    // Accuracy pools the first plain pass over each
                    // split, thinned so sixteen splits fit in memory.
                    if rep < EVAL_SPLITS && rep % 4 != 3 {
                        self.pooled_errors.extend(
                            r.errors
                                .iter()
                                .step_by(EVAL_SPLITS)
                                .filter(|e| e.is_finite()),
                        );
                    }
                }
                Err(_) => self.check(1, 1),
            }
        }
        self.op("eval_reps", reps.len() as u64);
        self.op("eval_pairs", pairs);
    }

    // ---------------------------------------------------------------
    // Phase 2: bulk admission into fresh engines.
    // ---------------------------------------------------------------

    /// Fits the landmark model and admits every resident host into the
    /// engine the rest of the run serves from (itself a timed admission).
    fn deploy(&mut self) -> Deployment {
        let (spec, inp) = (self.spec, self.inp);
        let (server, _) = self
            .tr
            .request("request.server_new", "streaming.server_new", || {
                StreamingServer::new(&inp.lm_matrix, spec.dim, StalenessPolicy::default())
            });
        let pristine = server.expect("landmark model fits");
        self.check(1, 0);
        // Rows are generated already; cut them into the chunks join_many
        // takes before the clock starts, so admission is timed alone.
        let k = inp.rows.cols();
        let chunks: Vec<Matrix> = inp
            .rows
            .as_slice()
            .chunks(ADMIT_CHUNK * k)
            .map(|c| Matrix::from_vec(c.len() / k, k, c.to_vec()).expect("chunk shape"))
            .collect();
        let (engine, ids) = self.admit_fresh(&pristine, &chunks);
        Deployment {
            pristine,
            engine,
            slots: host_slots(&ids),
            ids,
            chunks,
        }
    }

    fn admit_fresh(
        &mut self,
        pristine: &StreamingServer,
        chunks: &[Matrix],
    ) -> (ShardedEngine, Vec<NodeId>) {
        let hosts = self.inp.rows.rows();
        let engine =
            ShardedEngine::new(pristine.clone(), self.spec.shards, ServiceConfig::default())
                .expect("engine builds");
        let mut ids = Vec::with_capacity(hosts);
        let mut errors = 0u64;
        let (_, secs) = self.tr.span("request.admit", |t| {
            for chunk in chunks {
                match t
                    .span("service.join_many", |_| engine.join_many(chunk, chunk))
                    .0
                {
                    Ok(new) => ids.extend(new),
                    Err(_) => errors += chunk.rows() as u64,
                }
            }
        });
        self.tr.note("rate.admit_hosts", ids.len() as f64 / secs);
        self.check(hosts as u64, errors);
        self.op("admitted_hosts", ids.len() as u64);
        (engine, ids)
    }

    /// This lap's share of the further admissions, each into a fresh
    /// engine that is dropped again.
    fn admit(&mut self, dep: &Deployment, lap: usize) {
        for _ in lap_slice(self.spec.admit_reps, lap, self.spec.laps) {
            self.admit_fresh(&dep.pristine, &dep.chunks);
        }
    }

    // ---------------------------------------------------------------
    // Phase 3: reads — one reader; in the traced run also nproc readers.
    // ---------------------------------------------------------------

    fn read(&mut self, dep: &Deployment, lap: usize) {
        let spec = self.spec;
        let slots = &dep.slots;
        let readers = nproc();
        let mut rng = SplitMix64::new(self.seed).fork(4).fork(lap as u64);
        let before = dep.engine.stats();

        // One reader. Pairs are drawn before the clock starts.
        let blocks = lap_slice(spec.blocks_single, lap, spec.laps).len();
        let pairs = draw_pairs(&mut rng, slots, spec.skewed, blocks * BLOCK);
        for block in pairs.chunks(BLOCK) {
            let ((_, errors), _) =
                self.tr
                    .request("request.query_block", "service.estimate_block", || {
                        query_block(&dep.engine, block)
                    });
            self.check(block.len() as u64, errors);
        }
        self.op("query_blocks_single", blocks as u64);

        // nproc readers, released together; the rate is all their queries
        // over first start to last finish. A per-layer number (how the
        // two vCPUs share cache lines decides it, and that moves between
        // runs), so only the traced run pays for it.
        if self.tr.enabled() {
            let blocks = lap_slice(spec.blocks_mt, lap, spec.laps).len();
            let lists: Vec<Vec<(u32, u32)>> = (0..readers)
                .map(|_| draw_pairs(&mut rng, slots, spec.skewed, blocks * BLOCK))
                .collect();
            let barrier = Barrier::new(readers);
            let parent = &self.tr;
            let results: Vec<(Tracer, Instant, Instant, u64)> = std::thread::scope(|scope| {
                let handles: Vec<_> = lists
                    .iter()
                    .enumerate()
                    .map(|(i, list)| {
                        let mut tr = parent.for_thread(i as u32 + 1);
                        let (barrier, engine) = (&barrier, &dep.engine);
                        scope.spawn(move || {
                            let mut errors = 0;
                            barrier.wait();
                            let start = Instant::now();
                            for block in list.chunks(BLOCK) {
                                let ((_, e), _) = tr.request(
                                    "request.query_block_mt",
                                    "service.estimate_block_mt",
                                    || query_block(engine, block),
                                );
                                errors += e;
                            }
                            (tr, start, Instant::now(), errors)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("reader thread"))
                    .collect()
            });
            let start = results.iter().map(|r| r.1).min().expect("readers");
            let end = results.iter().map(|r| r.2).max().expect("readers");
            let queries = (readers * blocks * BLOCK) as u64;
            self.tr.note(
                "rate.query_mt",
                queries as f64 / (end - start).as_secs_f64(),
            );
            for (tr, _, _, errors) in results {
                self.tr.absorb(tr);
                self.check(queries / readers as u64, errors);
            }
            self.op("query_blocks_mt", (readers * blocks) as u64);
        }
        let after = dep.engine.stats();
        let queries = (after.queries - before.queries).max(1);
        // Timing-dependent (readers race for cache slots), so a note, not
        // one of the exactly repeating `values`.
        self.tr.note(
            "ratio.cache_hit",
            (after.cache_hits - before.cache_hits) as f64 / queries as f64,
        );
    }

    // ---------------------------------------------------------------
    // Phase 4: churn — nproc clients, each join → leave, join timed.
    // ---------------------------------------------------------------

    fn churn(&mut self, dep: &Deployment, lap: usize) {
        let (spec, inp) = (self.spec, self.inp);
        let clients = nproc();
        let cycles = lap_slice(spec.churn_cycles, lap, spec.laps).len();
        let barrier = Barrier::new(clients);
        let before = dep.engine.stats();
        let parent = &self.tr;
        let root = SplitMix64::new(self.seed).fork(5).fork(lap as u64);
        let results: Vec<(Tracer, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let mut tr = parent.for_thread(c as u32 + 1);
                    let mut rng = root.fork(c as u64);
                    let (barrier, engine) = (&barrier, &dep.engine);
                    scope.spawn(move || {
                        let mut errors = 0;
                        barrier.wait();
                        for _ in 0..cycles {
                            let row = inp.rows.row(rng.below(inp.rows.rows()));
                            let (id, _) = tr
                                .request("request.join", "service.join", || engine.join(row, row));
                            let left = id.and_then(|id| {
                                tr.request("request.leave", "service.leave", || engine.leave(id))
                                    .0
                            });
                            errors += u64::from(left.is_err());
                        }
                        (tr, errors)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("churn client"))
                .collect()
        });
        for (tr, errors) in results {
            self.tr.absorb(tr);
            self.check(2 * cycles as u64, errors);
        }
        let after = dep.engine.stats();
        let flushes = (after.flushes - before.flushes).max(1);
        self.tr.note(
            "ratio.coalescer_batch",
            (after.joins - before.joins) as f64 / flushes as f64,
        );
        self.op("joins", after.joins - before.joins);
        self.op("leaves", after.leaves - before.leaves);
    }

    /// A departed host's id must be refused, not answered from a stale
    /// row (no other writer is running, so the slot cannot be reused).
    fn departed_id_is_refused(&mut self, dep: &Deployment) {
        let row = self.inp.rows.row(0);
        let refused = dep.engine.join(row, row).and_then(|id| {
            dep.engine.leave(id)?;
            Ok(dep.engine.estimate(id, dep.ids[0]).is_err())
        });
        self.check(1, u64::from(!matches!(refused, Ok(true))));
    }

    // ---------------------------------------------------------------
    // Phase 5: drift — one writer applies epochs back to back.
    // ---------------------------------------------------------------

    fn drift(&mut self, dep: &Deployment, lap: usize) {
        let (spec, inp) = (self.spec, self.inp);

        // The traced run feeds a twin of the landmark server the same
        // updates, to time the streaming layer's share from outside: the
        // landmark tier (`apply_epoch`) and the host rejoin apart.
        if self.tr.enabled() && self.twin.is_none() {
            let all: Vec<usize> = (0..inp.rows.rows()).collect();
            let mut coords = BatchHostVectors::new();
            coords.reset_shape(inp.rows.rows(), spec.dim);
            self.twin = Some((dep.pristine.clone(), all, coords));
        }

        let epochs = lap_slice(spec.epochs, lap, spec.laps);
        let (mut refreshed, mut absorbed, mut sweeps, mut errors) = (0u64, 0u64, 0u64, 0u64);
        for update in &inp.updates[epochs.clone()] {
            let (outcome, _) = self.tr.request("request.epoch", "service.apply_epoch", || {
                dep.engine.apply_epoch(update)
            });
            match outcome {
                Ok(o) => {
                    refreshed += u64::from(o.refreshed);
                    absorbed += o.absorbed as u64;
                    sweeps += o.sweeps as u64;
                }
                Err(_) => errors += 1,
            }
            if let Some((server, all, coords)) = self.twin.as_mut() {
                self.tr.span("request.probe_epoch_twin", |t| {
                    let applied = t
                        .span("streaming.apply_epoch", |_| server.apply_epoch(update))
                        .0;
                    let rejoined = t
                        .span("streaming.rejoin", |_| {
                            server.rejoin_affected(all, &inp.rows, &inp.rows, coords)
                        })
                        .0;
                    errors += u64::from(applied.is_err() || rejoined.is_err());
                });
            }
        }
        self.check(epochs.len() as u64, errors);
        self.op("epochs", epochs.len() as u64);
        self.op("epochs_refreshed", refreshed);
        self.op("epoch_absorbed_rows", absorbed);
        self.op("epoch_sweeps", sweeps);
    }

    /// Reads beside writes (traced run only, after the accuracy checks):
    /// the writer applies the schedule's next epochs while one reader
    /// runs timed query blocks, so the trace shows what each costs the
    /// other. Not an end-to-end metric: how two threads interfere on this
    /// host depends on where the hypervisor puts its two vCPUs.
    pub fn mixed(&mut self, dep: &Deployment) {
        let (spec, inp) = (self.spec, self.inp);
        let ring = draw_pairs(
            &mut SplitMix64::new(self.seed).fork(6),
            &dep.slots,
            spec.skewed,
            WRITER_READER_RING * BLOCK,
        );
        let done = AtomicBool::new(false);
        let mut reader_tr = self.tr.for_thread(1);
        let mut errors = 0u64;
        let (blocks, reader_errors) = std::thread::scope(|scope| {
            let (engine, done, ring, tr) = (&dep.engine, &done, &ring, &mut reader_tr);
            let reader = scope.spawn(move || {
                let (mut blocks, mut errors) = (0u64, 0u64);
                for block in ring.chunks(BLOCK).cycle() {
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let ((_, e), _) = tr.request(
                        "request.query_block_mixed",
                        "service.estimate_block_mixed",
                        || query_block(engine, block),
                    );
                    errors += e;
                    blocks += 1;
                }
                (blocks, errors)
            });
            for update in &inp.updates[spec.mixed_epochs_range()] {
                let applied = self
                    .tr
                    .request("request.epoch_mixed", "service.apply_epoch_mixed", || {
                        dep.engine.apply_epoch(update)
                    })
                    .0;
                errors += u64::from(applied.is_err());
            }
            // Release pairs with the reader's Acquire load: it must see
            // the flag to stop.
            done.store(true, Ordering::Release);
            reader.join().expect("reader thread")
        });
        self.tr.absorb(reader_tr);
        self.check(
            spec.mixed_epochs_range().len() as u64 + blocks * BLOCK as u64,
            errors + reader_errors,
        );
        // The one count allowed to differ between runs: how many blocks
        // the reader fitted in while the writer worked.
        self.op("query_blocks_mixed", blocks);
    }

    // ---------------------------------------------------------------
    // Accuracy of what is served, and the independent reference check.
    // ---------------------------------------------------------------

    fn accuracy(&mut self, dep: &Deployment) {
        let inp = self.inp;
        let epoch = inp.updates[self.spec.epochs - 1].epoch;
        let mut errs = Vec::with_capacity(inp.probe_pairs.len());
        let mut bad = 0u64;
        for &(a, b) in &inp.probe_pairs {
            let truth = inp.drift.rtt(
                &inp.topo,
                inp.host_ids[a as usize],
                inp.host_ids[b as usize],
                epoch,
            );
            match dep
                .engine
                .estimate(dep.ids[a as usize], dep.ids[b as usize])
            {
                Ok(est) if est.is_finite() => errs.push(modified_relative_error(truth, est)),
                _ => bad += 1,
            }
        }
        self.check(inp.probe_pairs.len() as u64, bad);
        self.op("probe_pairs", inp.probe_pairs.len() as u64);
        let (p50, p90) = p50_p90(&mut errs);
        self.values.insert("served_rel_err_p50", p50);
        self.values.insert("served_rel_err_p90", p90);
    }

    fn reference_check(&mut self, dep: &Deployment) {
        let (spec, inp) = (self.spec, self.inp);
        let snaps = dep.engine.snapshots();
        // Every shard replica holds the same landmark model.
        let model = snaps[0].model();
        let (k, d) = (spec.landmarks, spec.dim);
        let mut rng = SplitMix64::new(self.seed).fork(7);
        let sample =
            rng.sample_distinct(inp.rows.rows(), spec.reference_hosts.min(inp.rows.rows()));
        let joined: Vec<Option<(Vec<f64>, Vec<f64>)>> = sample
            .iter()
            .map(|&h| {
                let row = inp.rows.row(h);
                reference::join_host(model.x().as_slice(), model.y().as_slice(), k, d, row, row)
            })
            .collect();
        let mut bad = 0u64;
        for _ in 0..spec.reference_pairs {
            let (a, b) = (rng.below(sample.len()), rng.below(sample.len()));
            let ok = match (
                &joined[a],
                &joined[b],
                dep.engine.estimate(dep.ids[sample[a]], dep.ids[sample[b]]),
            ) {
                (Some((out, _)), Some((_, inc)), Ok(served)) => {
                    reference::close(served, reference::dot(out, inc), REFERENCE_TOLERANCE)
                }
                _ => false,
            };
            bad += u64::from(!ok);
        }
        self.check(spec.reference_pairs as u64, bad);
        self.op("reference_pairs", spec.reference_pairs as u64);
    }
}

/// Landmark count and configuration of the §6 evaluation on an `n`-host
/// matrix (the paper's 20 landmarks at d = 8, less on a smoke matrix).
pub fn eval_shape(n: usize) -> (usize, IdesConfig) {
    let m = EVAL_LANDMARKS.min(n / 2);
    (m, IdesConfig::new(EVAL_DIM.min(m)))
}

/// True when two factor models hold exactly the same bits.
fn same_bits(a: &FactorModel, b: &FactorModel) -> bool {
    let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    bits(a.x()) == bits(b.x()) && bits(a.y()) == bits(b.y())
}

/// Median and 90th percentile (nearest rank); sorts in place.
fn p50_p90(errs: &mut [f64]) -> (f64, f64) {
    if errs.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    errs.sort_by(f64::total_cmp);
    (
        crate::stats::quantile_sorted(errs, 0.5),
        crate::stats::quantile_sorted(errs, 0.9),
    )
}

/// Resident hosts' table slots, so a pair is eight bytes and a query
/// needs no id lookup inside the timed loop.
pub fn host_slots(ids: &[NodeId]) -> Vec<u32> {
    ids.iter()
        .map(|id| match id {
            NodeId::Host(slot) => u32::try_from(*slot).expect("slot fits u32"),
            NodeId::Landmark(_) => unreachable!("join returns host ids"),
        })
        .collect()
}

/// `count` ordered host pairs: uniform, or skewed by drawing each
/// endpoint's popularity rank log-uniformly (`rank = n^u`), which puts
/// about half of all draws on the most popular ~√n hosts.
pub fn draw_pairs(
    rng: &mut SplitMix64,
    slots: &[u32],
    skewed: bool,
    count: usize,
) -> Vec<(u32, u32)> {
    let n = slots.len();
    let pick = |rng: &mut SplitMix64| {
        if skewed {
            slots[((n as f64).powf(rng.unit()) as usize).clamp(1, n) - 1]
        } else {
            slots[rng.below(n)]
        }
    };
    (0..count).map(|_| (pick(rng), pick(rng))).collect()
}

/// One block of `estimate` calls; returns the checksum and how many of
/// them failed (an error, or all of them if the sum is not finite).
pub fn query_block(engine: &ShardedEngine, pairs: &[(u32, u32)]) -> (f64, u64) {
    let mut sum = 0.0;
    let mut errors = 0u64;
    for &(a, b) in pairs {
        match engine.estimate(NodeId::Host(a as usize), NodeId::Host(b as usize)) {
            Ok(v) => sum += v,
            Err(_) => errors += 1,
        }
    }
    if !sum.is_finite() {
        errors = pairs.len() as u64;
    }
    (black_box(sum), errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skewed_pairs_favour_low_ranks_and_uniform_do_not() {
        let slots: Vec<u32> = (0..500).collect();
        let mut rng = SplitMix64::new(1);
        let hot = |pairs: &[(u32, u32)]| {
            pairs.iter().filter(|p| p.0 < 25).count() as f64 / pairs.len() as f64
        };
        let skewed = draw_pairs(&mut rng, &slots, true, 20_000);
        let uniform = draw_pairs(&mut rng, &slots, false, 20_000);
        // ln(25)/ln(500) ≈ 0.52 of skewed draws land on the top 5 %.
        assert!((hot(&skewed) - 0.52).abs() < 0.03, "{}", hot(&skewed));
        assert!((hot(&uniform) - 0.05).abs() < 0.01, "{}", hot(&uniform));
        assert!(skewed
            .iter()
            .chain(&uniform)
            .all(|p| p.0 < 500 && p.1 < 500));
    }

    #[test]
    fn a_smoke_pass_checks_out_and_repeats_exactly() {
        let spec = Spec::of("churn_drift", 0.02, true).unwrap();
        let inp = crate::inputs::generate(&spec, 3);
        let run_once = || {
            let mut run = Run::new(&spec, &inp, 3, false);
            run.all_phases();
            run
        };
        let (a, b) = (run_once(), run_once());
        assert_eq!(a.failed, 0, "failed ops");
        assert!(a.attempted > 1000);
        assert_eq!(a.values, b.values, "accuracy and tallies repeat exactly");
        let fixed = |r: &Run| {
            let mut ops = r.ops.clone();
            ops.remove("query_blocks_mixed");
            ops
        };
        assert_eq!(fixed(&a), fixed(&b), "write-side op counts repeat exactly");
        assert_eq!(a.ops["epochs"], spec.epochs as u64);
        assert_eq!(a.ops["joins"], (nproc() * spec.churn_cycles) as u64);
        assert_eq!(
            a.tr.samples("service.join").len(),
            nproc() * spec.churn_cycles
        );
        assert!(a.tr.spans().is_empty());
    }
}

//! Per-layer attribution, measured from outside (traced run only).
//!
//! After the traced pass the deployment is still up; the probes below
//! time calls into each layer's public functions on that workload's own
//! shapes — the landmark factor, the host rows, the offline matrix — and
//! [`per_layer`] combines them with the pass's samples into the metrics
//! `BENCHMARK.json` lists. Layers are the repo's crates and modules:
//! `linalg`, `mf`, `system` / `projection` / `eval`, `streaming`,
//! `service`, `telemetry`, `netsim` / `datasets`.

use std::collections::BTreeMap;
use std::hint::black_box;

use ides::service::{NodeId, ServiceConfig, ShardedEngine};
use ides::streaming::{StalenessPolicy, StreamingServer};
use ides::system::{split_landmarks, InformationServer};
use ides_datasets::generators::p2psim_like;
use ides_linalg::chunked::ChunkedRows;
use ides_linalg::solve::CachedGram;
use ides_linalg::svd::{svd, svd_truncated, TruncatedSvdOptions};
use ides_linalg::Matrix;
use ides_mf::als::{self, AlsConfig};
use ides_mf::FactorModel;
use ides_netsim::workload::measurement_row;
use ides_netsim::{TransitStubParams, TransitStubTopology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fingerprint::nproc;
use crate::metrics::{quietest_group_median, Best, MetricSet};
use crate::phases::{draw_pairs, eval_shape, host_slots, query_block, Deployment, Run};
use crate::rng::SplitMix64;
use crate::spec::{Substrate, BLOCK, FIT_DIM};
use crate::stats::median;
use crate::trace::{totals_by_name, LayerTotals, Tracer};

/// Query blocks per read-path probe, and rows of the big cached-Gram solve.
const PROBE_BLOCKS: usize = 200;
const SOLVE_ROWS: usize = 65_536;
/// Epochs the one-shard rebuild applies for `service.shards1.epoch_ms`.
const SHARDS1_EPOCHS: usize = 12;

/// Calls `f` `n` times inside spans named `name`.
fn repeat<R>(tr: &mut Tracer, name: &'static str, n: usize, mut f: impl FnMut() -> R) {
    for _ in 0..n {
        black_box(tr.span(name, |_| f()).0);
    }
}

fn random_matrix(rng: &mut SplitMix64, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.unit() * 100.0)
}

/// Runs every probe, filing samples under `probe.*` / layer-call names.
pub fn probes(run: &mut Run, dep: &Deployment) {
    let mut rng = SplitMix64::new(run.seed).fork(8);
    linalg(run, dep, &mut rng);
    mf(run, dep);
    landmark_architecture(run);
    let single = service(run, dep, &mut rng);
    generators(run);
    recorder_overhead(run, dep, &single, &mut rng);
}

fn linalg(run: &mut Run, dep: &Deployment, rng: &mut SplitMix64) {
    let (spec, inp) = (run.spec, run.inp);
    let model = dep.pristine.model().clone();
    let (n, d) = (inp.rows.rows(), spec.dim);
    run.tr.span("request.probe_linalg", |t| {
        // GEMM at the textbook square shape and at this workload's
        // rejoin shape (hosts x landmarks times landmarks x d).
        let (a, b) = (random_matrix(rng, 512, 512), random_matrix(rng, 512, 512));
        repeat(t, "linalg.matmul512", 7, || a.matmul(&b).expect("512 gemm"));
        repeat(t, "linalg.matmul_rejoin", 7, || {
            inp.rows.matmul(model.y()).expect("rejoin gemm")
        });

        // The factorizations behind `svd_model::fit`, on the same matrix.
        let values = inp.offline.values();
        let reps = if values.rows() >= 512 { 1 } else { 5 };
        repeat(t, "linalg.svd", reps, || svd(values).expect("svd"));
        repeat(t, "linalg.svd_truncated", reps.max(2), || {
            svd_truncated(values, FIT_DIM, TruncatedSvdOptions::default()).expect("truncated svd")
        });

        // Cached-Gram solves on the landmark factor: a full coalescer
        // flush (64 rows), a bulk chunk (65 536 rows), one row swap.
        let mut gram = CachedGram::factor(model.y(), 0.0).expect("landmark factor has full rank");
        for (name, rows, reps) in [
            ("linalg.cached_gram.solve64", 64, 200),
            ("linalg.cached_gram.solve65536", SOLVE_ROWS, 3),
        ] {
            let source = random_matrix(rng, rows, d);
            let mut rhs = source.clone();
            for _ in 0..reps {
                rhs.as_mut_slice().copy_from_slice(source.as_slice());
                t.span(name, |_| gram.solve_rows_in_place(&mut rhs).expect("solve"));
            }
        }
        let old: Vec<f64> = model.y().row(0).to_vec();
        let new: Vec<f64> = old.iter().map(|v| v * 1.01).collect();
        for _ in 0..100 {
            t.span("linalg.cached_gram.replace_row", |_| {
                gram.replace_row(&old, &new).expect("swap in")
            });
            t.span("linalg.cached_gram.replace_row", |_| {
                gram.replace_row(&new, &old).expect("swap back")
            });
        }

        // The snapshot's coordinate table: random row reads, and what the
        // first writes after a clone (a publish) cost when they touch one
        // chunk or every chunk.
        let mut table: ChunkedRows<f64> = ChunkedRows::new(2 * d);
        let row: Vec<f64> = (0..2 * d).map(|i| i as f64).collect();
        for _ in 0..n {
            table.push_row(&row);
        }
        let reads: Vec<usize> = (0..PROBE_BLOCKS * BLOCK).map(|_| rng.below(n)).collect();
        for block in reads.chunks(BLOCK) {
            t.span("linalg.chunked.row_block", |_| {
                black_box(block.iter().map(|&r| table.row(r)[0]).sum::<f64>())
            });
        }
        for _ in 0..20 {
            t.span("linalg.chunked.clone_touch1", |_| {
                let snapshot = table.clone();
                table.row_mut(0)[0] += 1.0;
                snapshot
            });
            t.span("linalg.chunked.clone_touch_all", |_| {
                let snapshot = table.clone();
                for r in (0..n).step_by(256) {
                    table.row_mut(r)[0] += 1.0;
                }
                snapshot
            });
        }
    });
}

fn mf(run: &mut Run, dep: &Deployment) {
    let (spec, inp) = (run.spec, run.inp);
    let model = dep.pristine.model().clone();
    run.tr.span("request.probe_mf", |t| {
        // The refresh tier's warm refit: two sweeps from the fitted model.
        let config = AlsConfig {
            sweeps: StalenessPolicy::default().sweep_budget,
            tolerance: 0.0,
            ..AlsConfig::new(spec.dim)
        };
        repeat(t, "mf.als_refine", 20, || {
            als::refine(&inp.lm_matrix, &model, config).expect("refine")
        });
        // The floor under every query: one dot of two contiguous vectors.
        let (x, y) = (model.x().row(0), model.y().row(1));
        repeat(t, "mf.dot_block", PROBE_BLOCKS, || {
            (0..BLOCK)
                .map(|_| FactorModel::dot(black_box(x), black_box(y)))
                .sum::<f64>()
        });
    });
}

/// `evaluate_ides` taken apart: model build, batch join, and (by
/// subtraction) the pair-scoring sweep.
fn landmark_architecture(run: &mut Run) {
    let data = &run.inp.offline;
    let n = data.rows();
    let (m, config) = eval_shape(n);
    let (landmarks, ordinary) = split_landmarks(n, m, run.seed.wrapping_mul(1000));
    let lm = data.submatrix(&landmarks, &landmarks);
    let cell = |i: usize, j: usize| data.get(i, j).expect("offline matrix is complete");
    let d_out = Matrix::from_fn(ordinary.len(), m, |h, l| cell(ordinary[h], landmarks[l]));
    let d_in = Matrix::from_fn(ordinary.len(), m, |h, l| cell(landmarks[l], ordinary[h]));
    run.values
        .insert("probe_ordinary_hosts", ordinary.len() as f64);
    run.tr.span("request.probe_landmark_architecture", |t| {
        repeat(t, "system.build", 20, || {
            InformationServer::build(&lm, config).expect("build")
        });
        let server = InformationServer::build(&lm, config).expect("build");
        repeat(t, "projection.join_batch", 10, || {
            server.join_batch(&d_out, &d_in).expect("join")
        });
    });
}

fn node_pairs(pairs: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
    pairs
        .iter()
        .map(|&(a, b)| (NodeId::Host(a as usize), NodeId::Host(b as usize)))
        .collect()
}

/// Returns the one-shard rebuild, [`SHARDS1_EPOCHS`] epochs into the
/// schedule, for the recorder-overhead probe to carry on with.
fn service(run: &mut Run, dep: &Deployment, rng: &mut SplitMix64) -> ShardedEngine {
    let (spec, inp) = (run.spec, run.inp);
    let engine = &dep.engine;
    let k = inp.rows.cols();
    let pairs = draw_pairs(rng, &dep.slots, spec.skewed, PROBE_BLOCKS * BLOCK);
    let mut errors = 0u64;

    run.tr.span("request.probe_service_read", |t| {
        // The served read path, its batch form, and the same reads with
        // product telemetry switched on.
        for block in pairs.chunks(BLOCK) {
            errors += t
                .span("service.estimate_probe", |_| query_block(engine, block))
                .0
                 .1;
        }
        let mut out = Vec::with_capacity(BLOCK);
        for block in pairs.chunks(BLOCK) {
            let nodes = node_pairs(block);
            out.clear();
            let ok = t
                .span("service.estimate_batch", |_| {
                    engine.estimate_batch(&nodes, &mut out)
                })
                .0;
            errors += u64::from(ok.is_err());
        }
        ides::telemetry::set_enabled(true);
        for block in pairs.chunks(BLOCK) {
            errors += t
                .span("service.estimate_telemetry_on", |_| {
                    query_block(engine, block)
                })
                .0
                 .1;
        }
        ides::telemetry::set_enabled(false);
    });

    run.tr.span("request.probe_service_write", |t| {
        // Uncoalesced admissions: a batch of one (what a lone join costs
        // without the linger) and a full coalescer flush of 64.
        for (name, rows, reps) in [
            ("service.join_many1", 1, 200),
            ("service.join_many64", 64, 50),
        ] {
            // Cycles the rows when the deployment has fewer (smoke sizes).
            let hosts = inp.rows.rows();
            let batch = Matrix::from_fn(rows, k, |r, c| inp.rows.row(r % hosts)[c]);
            for _ in 0..reps {
                match t.span(name, |_| engine.join_many(&batch, &batch)).0 {
                    Ok(ids) => {
                        errors += ids
                            .into_iter()
                            .filter(|&id| engine.leave(id).is_err())
                            .count() as u64
                    }
                    Err(_) => errors += 1,
                }
            }
            if rows == 1 {
                // Chunk sharing of a single-host publish: the copy-on-
                // write claim in one number.
                t.note("ratio.chunk_share", engine.stats().chunk_share_ratio());
            }
        }
        // Cross-epoch pipelining: the schedule's tail in batches of four.
        for batch in inp.updates[spec.pipelined_epochs_range()].chunks_exact(4) {
            let applied = t
                .span("service.apply_epochs4", |_| engine.apply_epochs(batch))
                .0;
            errors += u64::from(applied.is_err());
        }
        let publish = engine.publish_latency();
        t.note("publish.us_p50", publish.quantile(0.5).as_secs_f64() * 1e6);
        t.note("publish.us_p99", publish.quantile(0.99).as_secs_f64() * 1e6);
    });

    // The same deployment on one shard: what sharding costs or buys, and
    // the only layout where a pinned `Snapshot` can answer every pair.
    let single =
        ShardedEngine::new(dep.pristine.clone(), 1, ServiceConfig::default()).expect("engine");
    run.tr.span("request.probe_shards1", |t| {
        let mut ids = Vec::with_capacity(inp.rows.rows());
        for chunk in &dep.chunks {
            ids.extend(single.join_many(chunk, chunk).expect("admission"));
        }
        let pairs = draw_pairs(rng, &host_slots(&ids), spec.skewed, PROBE_BLOCKS * BLOCK);
        for block in pairs.chunks(BLOCK) {
            errors += t
                .span("service.shards1.estimate", |_| query_block(&single, block))
                .0
                 .1;
        }
        let snapshot = single.snapshots().remove(0);
        for block in pairs.chunks(BLOCK) {
            t.span("service.snapshot_estimate", |_| {
                let sum: f64 = block
                    .iter()
                    .map(|&(a, b)| {
                        snapshot
                            .estimate(NodeId::Host(a as usize), NodeId::Host(b as usize))
                            .unwrap_or(f64::NAN)
                    })
                    .sum();
                errors += u64::from(!sum.is_finite());
                black_box(sum)
            });
        }
        for update in inp.updates.iter().take(SHARDS1_EPOCHS) {
            let applied = t
                .span("service.shards1.apply_epoch", |_| {
                    single.apply_epoch(update)
                })
                .0;
            errors += u64::from(applied.is_err());
        }
    });
    run.check(1, errors);

    // More samples of the landmark fit than the pass's single one.
    run.tr.span("request.probe_server_new", |t| {
        repeat(t, "streaming.server_new", 8, || {
            StreamingServer::new(&inp.lm_matrix, spec.dim, StalenessPolicy::default()).expect("fit")
        });
    });
    single
}

fn generators(run: &mut Run) {
    let (spec, inp, seed) = (run.spec, run.inp, run.seed);
    let n = spec.landmarks + spec.hosts;
    run.tr.span("request.probe_generators", |t| {
        let mut topo = None;
        repeat(t, "netsim.topology_gen", 3, || {
            topo = Some(TransitStubTopology::generate(
                &TransitStubParams::internet_scale(n),
                &mut StdRng::seed_from_u64(seed),
            ));
        });
        let topo = topo.expect("generated");
        let landmarks: Vec<usize> = (0..spec.landmarks).collect();
        let hosts = spec.hosts.min(4096);
        t.span("netsim.measurement_rows", |_| {
            for h in spec.landmarks..spec.landmarks + hosts {
                black_box(measurement_row(&topo, &inp.drift, h, &landmarks, 0.0));
            }
        });
        t.note("probe.measurement_rows", hosts as f64);
        let target = match spec.substrate {
            Substrate::P2psim { target, .. } => target,
            Substrate::TransitStub if spec.smoke => 200,
            Substrate::TransitStub => 1143,
        };
        repeat(t, "datasets.p2psim_like", 1, || {
            p2psim_like(target, seed).expect("p2psim_like")
        });
    });
}

/// What recording costs: each request type run alternately through the
/// recording tracer and through a silent one, same engine, same inputs,
/// so machine drift between two runs cannot pose as overhead.
fn recorder_overhead(
    run: &mut Run,
    dep: &Deployment,
    single: &ShardedEngine,
    rng: &mut SplitMix64,
) {
    let (spec, inp) = (run.spec, run.inp);
    let engine = &dep.engine;
    let pairs = draw_pairs(rng, &dep.slots, spec.skewed, 2 * PROBE_BLOCKS * BLOCK);
    let mut silent = Tracer::new(false);
    let mut errors = 0u64;
    for (i, block) in pairs.chunks(BLOCK).enumerate() {
        let (tr, name) = if i % 2 == 0 {
            (&mut run.tr, "bench.query_block_recorded")
        } else {
            (&mut silent, "bench.query_block_silent")
        };
        errors += tr
            .request("request.probe_overhead", name, || {
                query_block(engine, block)
            })
            .0
             .1;
    }
    let row = inp.rows.row(0);
    for i in 0..2 * PROBE_BLOCKS {
        let (tr, name) = if i % 2 == 0 {
            (&mut run.tr, "bench.join_recorded")
        } else {
            (&mut silent, "bench.join_silent")
        };
        let left = tr
            .request("request.probe_overhead", name, || engine.join(row, row))
            .0
            .and_then(|id| engine.leave(id));
        errors += u64::from(left.is_err());
    }
    // Epochs cannot be replayed on the live engine; the one-shard rebuild
    // carries on along the schedule, alternating per epoch.
    for (i, update) in inp.updates.iter().skip(SHARDS1_EPOCHS).take(24).enumerate() {
        let (tr, name) = if i % 2 == 0 {
            (&mut run.tr, "bench.epoch_recorded")
        } else {
            (&mut silent, "bench.epoch_silent")
        };
        let applied = tr
            .request("request.probe_overhead", name, || {
                single.apply_epoch(update)
            })
            .0;
        errors += u64::from(applied.is_err());
    }
    run.tr.absorb(silent);
    run.check(1, errors);
}

/// Share of the request roots' time not covered by the product call
/// inside them: the benchmark's own glue, i.e. what the trace cannot
/// attribute to a layer.
fn unattributed(totals: &BTreeMap<&'static str, LayerTotals>, roots: &[&str]) -> f64 {
    let (mut total, mut own) = (0u64, 0u64);
    for (name, t) in totals {
        if roots.contains(name) {
            total += t.total_ns;
            own += t.self_ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

/// The per-layer metrics of one traced pass; `e2e` is that pass's own
/// end-to-end set.
pub fn per_layer(run: &Run, e2e: &MetricSet) -> MetricSet {
    let tr = &run.tr;
    let spec = run.spec;
    let totals = totals_by_name(tr.spans());
    let med = |name: &str| {
        let s = tr.samples(name);
        if s.is_empty() {
            f64::NAN
        } else {
            median(s)
        }
    };
    let value = |name: &str| run.values.get(name).copied().unwrap_or(f64::NAN);
    let op = |name: &str| run.ops.get(name).copied().unwrap_or(0) as f64;
    let hosts = run.inp.rows.rows() as f64;
    let (k, d) = (spec.landmarks as f64, spec.dim as f64);
    let block = BLOCK as f64;
    let mut m = MetricSet::new();
    let mut put = |name: &str, v: f64, from: &str| m.put(name, v, tr.samples(from).len().max(1));

    // linalg
    put(
        "linalg.gemm512.gflops",
        2.0 * 512f64.powi(3) / med("linalg.matmul512") / 1e9,
        "linalg.matmul512",
    );
    let rejoin_flops = 2.0 * hosts * k * d;
    put(
        "linalg.gemm.rejoin_gflops",
        rejoin_flops / med("linalg.matmul_rejoin") / 1e9,
        "linalg.matmul_rejoin",
    );
    put("linalg.gemm.flops", rejoin_flops, "");
    put(
        "linalg.gemm.bytes",
        8.0 * (hosts * k + k * d + hosts * d),
        "",
    );
    put("linalg.svd.s", med("linalg.svd"), "linalg.svd");
    put(
        "linalg.svd_truncated.s",
        med("linalg.svd_truncated"),
        "linalg.svd_truncated",
    );
    put(
        "linalg.cached_gram.solve64.ns_per_row",
        med("linalg.cached_gram.solve64") * 1e9 / 64.0,
        "linalg.cached_gram.solve64",
    );
    put(
        "linalg.cached_gram.solve65536.ns_per_row",
        med("linalg.cached_gram.solve65536") * 1e9 / SOLVE_ROWS as f64,
        "linalg.cached_gram.solve65536",
    );
    put(
        "linalg.cached_gram.replace_row_us",
        med("linalg.cached_gram.replace_row") * 1e6,
        "linalg.cached_gram.replace_row",
    );
    put(
        "linalg.chunked.row_ns",
        med("linalg.chunked.row_block") * 1e9 / block,
        "linalg.chunked.row_block",
    );
    put(
        "linalg.chunked.clone_us",
        med("linalg.chunked.clone_touch1") * 1e6,
        "linalg.chunked.clone_touch1",
    );
    put(
        "linalg.chunked.clone_all_us",
        med("linalg.chunked.clone_touch_all") * 1e6,
        "linalg.chunked.clone_touch_all",
    );

    // mf
    let iterations = value("nmf_iterations");
    put("mf.nmf.iterations", iterations, "");
    put(
        "mf.nmf.ms_per_iter",
        med("mf.nmf_fit") * 1e3 / iterations,
        "mf.nmf_fit",
    );
    put(
        "mf.svd_fit.self_s",
        med("mf.svd_fit") - med("linalg.svd_truncated"),
        "mf.svd_fit",
    );
    put(
        "mf.als_refine.ms",
        med("mf.als_refine") * 1e3,
        "mf.als_refine",
    );
    put(
        "mf.dot.ns",
        med("mf.dot_block") * 1e9 / block,
        "mf.dot_block",
    );

    // system / projection / eval
    let ordinary = value("probe_ordinary_hosts");
    put("system.build_ms", med("system.build") * 1e3, "system.build");
    put(
        "projection.join_batch.ns_per_host",
        med("projection.join_batch") * 1e9 / ordinary,
        "projection.join_batch",
    );
    // Pairs scored per second of a whole landmark-architecture
    // repetition (build + batch join + scoring), the quietest four.
    let rate =
        quietest_group_median(tr.samples("rate.eval_pairs"), 4, Best::Highest).unwrap_or(f64::NAN);
    put("eval.pairs_per_s", rate, "rate.eval_pairs");
    let scoring = med("eval.evaluate_ides") - med("system.build") - med("projection.join_batch");
    put(
        "eval.score.pairs_per_s",
        ordinary * (ordinary - 1.0) / scoring,
        "eval.evaluate_ides",
    );

    // streaming (the twin server fed the same updates)
    put(
        "streaming.server_new.ms",
        med("streaming.server_new") * 1e3,
        "streaming.server_new",
    );
    put(
        "streaming.apply_epoch.ms",
        med("streaming.apply_epoch") * 1e3,
        "streaming.apply_epoch",
    );
    put(
        "streaming.rejoin.ns_per_host",
        med("streaming.rejoin") * 1e9 / hosts,
        "streaming.rejoin",
    );
    put(
        "streaming.epoch.refresh_share",
        op("epochs_refreshed") / op("epochs"),
        "",
    );
    put(
        "streaming.epoch.absorbed_rows",
        op("epoch_absorbed_rows"),
        "",
    );
    put("streaming.epoch.sweeps", op("epoch_sweeps"), "");

    // service
    let estimate_ns = med("service.estimate_probe") * 1e9 / block;
    let shards1_ns = med("service.shards1.estimate") * 1e9 / block;
    let snapshot_ns = med("service.snapshot_estimate") * 1e9 / block;
    put("service.estimate.ns", estimate_ns, "service.estimate_probe");
    put(
        "service.snapshot_estimate.ns",
        snapshot_ns,
        "service.snapshot_estimate",
    );
    put(
        "service.read_overhead.ns",
        shards1_ns - snapshot_ns,
        "service.shards1.estimate",
    );
    put(
        "service.estimate_batch.ns_per_pair",
        med("service.estimate_batch") * 1e9 / block,
        "service.estimate_batch",
    );
    put("service.cache.hit_ratio", med("ratio.cache_hit"), "");
    let quiescent_ns = med("service.estimate_block") * 1e9 / block;
    put(
        "service.query_mt_per_s",
        med("rate.query_mt"),
        "rate.query_mt",
    );
    put(
        "service.mt_efficiency",
        med("rate.query_mt") / (nproc() as f64 * 1e9 / quiescent_ns),
        "rate.query_mt",
    );
    let join_p50 = e2e.get("join_us_p50").unwrap_or(f64::NAN);
    put(
        "service.join.wait_us",
        join_p50 - med("service.join_many1") * 1e6,
        "service.join_many1",
    );
    put(
        "service.coalescer.batch_mean",
        med("ratio.coalescer_batch"),
        "",
    );
    put(
        "service.join_many64.us",
        med("service.join_many64") * 1e6,
        "service.join_many64",
    );
    put(
        "service.join_many.ns_per_host",
        1e9 / med("rate.admit_hosts"),
        "rate.admit_hosts",
    );
    put(
        "service.leave.us",
        med("service.leave") * 1e6,
        "service.leave",
    );
    put("service.publish.us_p50", med("publish.us_p50"), "");
    put("service.publish.us_p99", med("publish.us_p99"), "");
    put(
        "service.publish.chunk_share_ratio",
        med("ratio.chunk_share"),
        "",
    );
    put(
        "service.epoch.overhead_ms",
        (med("service.apply_epoch") - med("streaming.apply_epoch") - med("streaming.rejoin")) * 1e3,
        "service.apply_epoch",
    );
    put(
        "service.shards1.query_ns",
        shards1_ns,
        "service.shards1.estimate",
    );
    put(
        "service.shards1.epoch_ms",
        med("service.shards1.apply_epoch") * 1e3,
        "service.shards1.apply_epoch",
    );
    put(
        "service.apply_epochs4.ms_per_epoch",
        med("service.apply_epochs4") * 1e3 / 4.0,
        "service.apply_epochs4",
    );

    // telemetry, generators, and the benchmark itself
    put(
        "telemetry.enabled.query_x",
        med("service.estimate_telemetry_on") / med("service.estimate_probe"),
        "service.estimate_telemetry_on",
    );
    put(
        "netsim.topology_gen.s",
        med("netsim.topology_gen"),
        "netsim.topology_gen",
    );
    put(
        "netsim.rows_per_s",
        med("probe.measurement_rows") / med("netsim.measurement_rows"),
        "netsim.measurement_rows",
    );
    put(
        "datasets.p2psim_like.s",
        med("datasets.p2psim_like"),
        "datasets.p2psim_like",
    );
    // Worst recorded-over-silent ratio among the request types.
    let overhead = ["query_block", "join", "epoch"]
        .iter()
        .map(|kind| med(&format!("bench.{kind}_recorded")) / med(&format!("bench.{kind}_silent")))
        .fold(f64::NAN, f64::max);
    put(
        "bench.trace_overhead_x",
        overhead,
        "bench.query_block_recorded",
    );
    put(
        "bench.unattributed.fit_share",
        unattributed(&totals, &["request.fit_svd", "request.fit_nmf"]),
        "",
    );
    put(
        "bench.unattributed.query_share",
        unattributed(
            &totals,
            &[
                "request.query_block",
                "request.query_block_mt",
                "request.query_block_mixed",
            ],
        ),
        "",
    );
    put(
        "bench.unattributed.join_share",
        unattributed(&totals, &["request.join"]),
        "",
    );
    put(
        "bench.unattributed.epoch_share",
        unattributed(&totals, &["request.epoch"]),
        "",
    );

    // Tails, and reads beside writes: reported with the percentile the
    // sample count supports, never gated (see `metrics::end_to_end`).
    m.put_summary(
        None,
        Some("service.query_ns_p99"),
        tr.samples("service.estimate_block"),
        1e9 / block,
    );
    m.put_summary(
        None,
        Some("service.join_us_p99"),
        tr.samples("service.join"),
        1e6,
    );
    m.put_summary(
        None,
        Some("service.epoch_ms_p99"),
        tr.samples("service.apply_epoch"),
        1e3,
    );
    m.put_summary(
        Some("service.mixed.query_ns_p50"),
        Some("service.mixed.query_ns_p99"),
        tr.samples("service.estimate_block_mixed"),
        1e9 / block,
    );
    m.put_summary(
        Some("service.mixed.epoch_ms_p50"),
        None,
        tr.samples("service.apply_epoch_mixed"),
        1e3,
    );
    m
}

//! `ides-cli` — command-line frontend to the IDES reproduction.
//!
//! ```text
//! ides-cli gen <nlanr|gnp|agnp|p2psim|plrtt> --out m.json [--hosts N] [--seed S] [--format json|text]
//! ides-cli stats <matrix.{json,txt}>
//! ides-cli factor <matrix> --dim D [--algo svd|nmf|als] --out model.json
//! ides-cli reconstruct <matrix> --dim D [--algo ...]      # reconstruction error report
//! ides-cli join <model.json> --out-row "a b c ..." [--in-row "..."]
//! ides-cli predict <model.json> <i> <j>
//! ides-cli eval <matrix> --landmarks M --dim D [--algo svd|nmf] [--seed S]
//! ```

mod args;

use std::path::Path;
use std::process::exit;

use args::Args;
use ides::system::{split_landmarks, IdesConfig};
use ides_datasets::{generators, io, stats, DistanceMatrix};
use ides_mf::metrics::{reconstruction_errors, Cdf};
use ides_mf::model::DistanceEstimator;
use ides_mf::{als, nmf, svd_model, FactorModel};

fn main() {
    let args = Args::from_env();
    match args.command.as_str() {
        "gen" => cmd_gen(&args),
        "stats" => cmd_stats(&args),
        "factor" => cmd_factor(&args),
        "reconstruct" => cmd_reconstruct(&args),
        "join" => cmd_join(&args),
        "predict" => cmd_predict(&args),
        "eval" => cmd_eval(&args),
        "serve" | "loadgen" => cmd_serve(&args),
        "" | "help" | "-h" | "--help" => {
            print!("{}", HELP);
        }
        other => {
            eprintln!("unknown command {other:?}\n");
            eprint!("{}", HELP);
            exit(2);
        }
    }
}

const HELP: &str = "\
ides-cli — Internet Distance Estimation Service (Mao & Saul, IMC 2004)

commands:
  gen <set> --out FILE        generate a synthetic data set
                              (nlanr|gnp|agnp|p2psim|plrtt; --hosts N, --seed S,
                               --format json|text)
  stats <matrix>              structural statistics (TIV, asymmetry, rank)
  factor <matrix> --dim D     factor into X·Yᵀ (--algo svd|nmf|als) and save
                              with --out model.json
  reconstruct <matrix> --dim D  reconstruction-error report per algorithm
  join <model> --out-row \"..\"  solve a host join from landmark measurements
                              (--rows-file FILE batch-joins one host per line
                               through a single shared factorization;
                               --in-rows-file FILE adds asymmetric incoming
                               rows, else incoming = outgoing)
  predict <model> i j         estimated distance between model hosts i and j
  eval <matrix> --landmarks M --dim D   full prediction experiment
  serve                       load-test the concurrent serving engine
                              (--landmarks K --hosts H --dim D --threads T
                               --shards N for a horizontally sharded
                               engine, --drift-batch B to apply B drift
                               epochs per writer call (one publish each),
                               --duration-s S --rate QPS-per-thread
                               for open loop, --seed N, --json); admits H
                               hosts, compares coalesced vs uncoalesced
                               admission, then measures query p50/p99
                               quiescent and under active drift, with
                               per-shard and publish latency in --json;
                               --metrics-out FILE writes a Prometheus
                               text exposition and --trace-out FILE a
                               Chrome-trace JSON (open in Perfetto) —
                               either flag enables telemetry recording
";

fn load_matrix(path_str: &str) -> DistanceMatrix {
    let path = Path::new(path_str);
    let result = if path.extension().is_some_and(|e| e == "json") {
        io::load_json(path)
    } else {
        io::load_text(
            path.file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("matrix"),
            path,
        )
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: cannot load {path_str}: {e}");
        exit(1);
    })
}

fn cmd_gen(args: &Args) {
    let Some(set) = args.positional.first() else {
        eprintln!("usage: ides-cli gen <nlanr|gnp|agnp|p2psim|plrtt> --out FILE");
        exit(2);
    };
    let seed: u64 = args.get_parsed("seed", 20041025);
    let ds = match set.as_str() {
        "nlanr" => generators::nlanr_like(args.get_parsed("hosts", 110), seed),
        "gnp" => generators::gnp_like(args.get_parsed("hosts", 19), seed),
        "agnp" => generators::agnp_like(
            args.get_parsed("hosts", 869),
            args.get_parsed("cols", 19),
            seed,
        ),
        "p2psim" => generators::p2psim_like(args.get_parsed("hosts", 1143), seed),
        "plrtt" | "pl-rtt" => generators::plrtt_like(args.get_parsed("hosts", 169), seed),
        other => {
            eprintln!("unknown data set {other:?}");
            exit(2);
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("generation failed: {e}");
        exit(1);
    });
    let out = args.get("out", "matrix.json");
    let path = Path::new(&out);
    let save = match args.get("format", "json").as_str() {
        "json" => io::save_json(&ds.matrix, path),
        "text" => io::save_text(&ds.matrix, path),
        other => {
            eprintln!("unknown format {other:?} (json|text)");
            exit(2);
        }
    };
    save.unwrap_or_else(|e| {
        eprintln!("write failed: {e}");
        exit(1);
    });
    let (r, c) = ds.matrix.shape();
    println!("wrote {r}x{c} matrix to {out}");
}

fn cmd_stats(args: &Args) {
    let Some(path) = args.positional.first() else {
        eprintln!("usage: ides-cli stats <matrix>");
        exit(2);
    };
    let m = load_matrix(path);
    let s = stats::summarize(&m);
    println!("name:               {}", s.name);
    println!("shape:              {}x{}", s.shape.0, s.shape.1);
    println!("mean distance:      {:.2} ms", s.mean_rtt_ms);
    println!("observed:           {:.2}%", s.observed_fraction * 100.0);
    println!(
        "triangle violations: {:.1}% of pairs have a shorter 1-hop detour",
        s.tiv_fraction * 100.0
    );
    println!("asymmetry index:    {:.4}", s.asymmetry);
    println!("effective rank(95%): {}", s.effective_rank_95);
}

/// Fits the requested algorithm, returning the model.
fn fit_model(m: &DistanceMatrix, dim: usize, algo: &str, seed: u64) -> FactorModel {
    let result = match algo {
        "svd" => svd_model::fit(m, svd_model::SvdConfig::new(dim)),
        "nmf" => nmf::fit(
            m,
            nmf::NmfConfig {
                seed,
                ..nmf::NmfConfig::new(dim)
            },
        )
        .map(|f| f.model),
        "als" => als::fit(
            m,
            als::AlsConfig {
                seed,
                ..als::AlsConfig::new(dim)
            },
        )
        .map(|f| f.model),
        other => {
            eprintln!("unknown algorithm {other:?} (svd|nmf|als)");
            exit(2);
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("factorization failed: {e}");
        exit(1);
    })
}

fn cmd_factor(args: &Args) {
    let Some(path) = args.positional.first() else {
        eprintln!("usage: ides-cli factor <matrix> --dim D [--algo svd|nmf|als] --out model.json");
        exit(2);
    };
    let m = load_matrix(path);
    let dim: usize = args.get_parsed("dim", 10);
    let algo = args.get("algo", "svd");
    let model = fit_model(&m, dim, &algo, args.get_parsed("seed", 1729));
    let out = args.get("out", "model.json");
    let json = serde_json::to_string(&model).expect("model serialization");
    std::fs::write(&out, json).unwrap_or_else(|e| {
        eprintln!("write failed: {e}");
        exit(1);
    });
    let errs = reconstruction_errors(&model, &m);
    let cdf = Cdf::new(errs);
    println!(
        "factored {}x{} at d={dim} ({algo}); reconstruction median {:.4}, p90 {:.4}; wrote {out}",
        m.rows(),
        m.cols(),
        cdf.median(),
        cdf.p90()
    );
}

fn cmd_reconstruct(args: &Args) {
    let Some(path) = args.positional.first() else {
        eprintln!("usage: ides-cli reconstruct <matrix> --dim D");
        exit(2);
    };
    let m = load_matrix(path);
    let dim: usize = args.get_parsed("dim", 10);
    println!(
        "{:<6} {:>10} {:>10} {:>10}",
        "algo", "median", "p90", "mean"
    );
    for algo in ["svd", "nmf", "als"] {
        if algo == "svd" && !m.is_complete() {
            println!("{algo:<6} {:>10} (needs complete matrix)", "-");
            continue;
        }
        let model = fit_model(&m, dim, algo, 1729);
        let cdf = Cdf::new(reconstruction_errors(&model, &m));
        println!(
            "{algo:<6} {:>10.4} {:>10.4} {:>10.4}",
            cdf.median(),
            cdf.p90(),
            cdf.mean()
        );
    }
}

fn load_model(path: &str) -> FactorModel {
    let data = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        exit(1);
    });
    serde_json::from_str(&data).unwrap_or_else(|e| {
        eprintln!("error: {path} is not a model file: {e}");
        exit(1);
    })
}

fn parse_row(s: &str, label: &str) -> Vec<f64> {
    s.split_whitespace()
        .map(|t| {
            t.parse().unwrap_or_else(|_| {
                eprintln!("error: --{label} contains a non-number: {t:?}");
                exit(2);
            })
        })
        .collect()
}

/// Parses a measurement file: one host per line, space-separated distances
/// to every landmark (`#` comments and blank lines skipped). Exits unless
/// every row has exactly `k` entries.
fn parse_rows_file(path: &str, k: usize, label: &str) -> ides_linalg::Matrix {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        exit(1);
    });
    let rows: Vec<Vec<f64>> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
        .map(|l| parse_row(l, label))
        .collect();
    if rows.is_empty() {
        eprintln!("error: {path} contains no measurement rows");
        exit(1);
    }
    if rows.iter().any(|r| r.len() != k) {
        eprintln!("error: every row of {path} must have {k} landmark distances");
        exit(1);
    }
    ides_linalg::Matrix::from_rows(&rows).expect("rows validated consistent")
}

/// Batch join: each line of `rows_path` is one host's space-separated
/// distances **to** every landmark; `in_rows_path` optionally provides the
/// distances **from** the landmarks (same shape). Without it the outgoing
/// measurements are reused for both directions (symmetric-RTT assumption).
/// All hosts are joined with one factorization through the batched
/// multi-RHS path.
fn cmd_join_batch(model_path: &str, rows_path: &str, in_rows_path: &str) {
    let model = load_model(model_path);
    let k = model.x().rows();
    let d_out = parse_rows_file(rows_path, k, "rows-file");
    let d_in = if in_rows_path.is_empty() {
        d_out.clone()
    } else {
        let m = parse_rows_file(in_rows_path, k, "in-rows-file");
        if m.rows() != d_out.rows() {
            eprintln!(
                "error: {} hosts in {rows_path} but {} in {in_rows_path}",
                d_out.rows(),
                m.rows()
            );
            exit(1);
        }
        m
    };
    let mut ws = ides::projection::JoinWorkspace::new();
    let hosts = ides::projection::join_hosts_with(
        &mut ws,
        model.x(),
        model.y(),
        &d_out,
        &d_in,
        ides::projection::JoinOptions::default(),
    )
    .unwrap_or_else(|e| {
        eprintln!("batch join failed: {e}");
        exit(1);
    });
    println!(
        "joined {} hosts against {k} landmarks (one factorization{})",
        hosts.len(),
        if in_rows_path.is_empty() {
            "; incoming = outgoing, pass --in-rows-file for asymmetric data"
        } else {
            ""
        }
    );
    for (h, host) in hosts.iter().enumerate() {
        println!(
            "host {h}: outgoing {:?} incoming {:?}",
            host.outgoing, host.incoming
        );
    }
}

fn cmd_join(args: &Args) {
    let Some(path) = args.positional.first() else {
        eprintln!(
            "usage: ides-cli join <model.json> --out-row \"d1 d2 ...\" [--in-row \"...\"] | --rows-file hosts.txt"
        );
        exit(2);
    };
    let rows_file = args.get("rows-file", "");
    if !rows_file.is_empty() {
        cmd_join_batch(path, &rows_file, &args.get("in-rows-file", ""));
        return;
    }
    let model = load_model(path);
    let out_row = parse_row(&args.get("out-row", ""), "out-row");
    if out_row.is_empty() {
        eprintln!("error: --out-row is required (distances to each landmark), or pass --rows-file");
        exit(2);
    }
    let in_row = {
        let s = args.get("in-row", "");
        if s.is_empty() {
            out_row.clone()
        } else {
            parse_row(&s, "in-row")
        }
    };
    let host = ides::projection::join_host(
        model.x(),
        model.y(),
        &out_row,
        &in_row,
        ides::projection::JoinOptions::default(),
    )
    .unwrap_or_else(|e| {
        eprintln!("join failed: {e}");
        exit(1);
    });
    println!("outgoing: {:?}", host.outgoing);
    println!("incoming: {:?}", host.incoming);
    for i in 0..model.x().rows() {
        let est = host.distance_to(model.incoming(i));
        println!("  estimated distance to landmark {i}: {est:.3}");
    }
}

fn cmd_predict(args: &Args) {
    if args.positional.len() < 3 {
        eprintln!("usage: ides-cli predict <model.json> <i> <j>");
        exit(2);
    }
    let model = load_model(&args.positional[0]);
    let i: usize = args.positional[1].parse().unwrap_or_else(|_| {
        eprintln!("error: i must be an index");
        exit(2);
    });
    let j: usize = args.positional[2].parse().unwrap_or_else(|_| {
        eprintln!("error: j must be an index");
        exit(2);
    });
    if i >= model.n_from() || j >= model.n_to() {
        eprintln!(
            "error: index out of range (model covers {}x{})",
            model.n_from(),
            model.n_to()
        );
        exit(2);
    }
    println!("{:.4}", model.estimate(i, j));
}

/// Load-tests the `ides::service` engine on a synthetic deployment:
/// admission throughput with and without group commit, then query
/// latency quantiles quiescent and under continuous landmark drift. The
/// measurement and the `--json` schema live in
/// `ides::service::load::ServeSummary`, shared with the `serve_load`
/// experiment so the two cannot measure different things.
fn cmd_serve(args: &Args) {
    use ides::service::load::{ServeMeasurementConfig, ServeSummary};
    use std::time::Duration;

    let landmarks: usize = args.get_parsed("landmarks", 20);
    let dim: usize = args.get_parsed("dim", 8);
    let duration_s: f64 = args.get_parsed("duration-s", 4.0);
    let rate: f64 = args.get_parsed("rate", 0.0); // 0 = closed loop
    if dim == 0 || dim > landmarks {
        eprintln!("error: --dim must be in 1..=landmarks");
        exit(2);
    }
    let shards: usize = args.get_parsed("shards", 1);
    if shards == 0 {
        eprintln!("error: --shards must be >= 1");
        exit(2);
    }
    let drift_batch: usize = args.get_parsed("drift-batch", 1);
    if drift_batch == 0 {
        eprintln!("error: --drift-batch must be >= 1");
        exit(2);
    }
    let metrics_out = args
        .flags
        .get("metrics-out")
        .cloned()
        .filter(|p| !p.is_empty());
    let trace_out = args
        .flags
        .get("trace-out")
        .cloned()
        .filter(|p| !p.is_empty());
    let telemetry_on = metrics_out.is_some() || trace_out.is_some();
    if telemetry_on {
        ides::telemetry::set_enabled(true);
    }
    let config = ServeMeasurementConfig {
        landmarks,
        dim,
        hosts: args.get_parsed("hosts", 200),
        threads: args.get_parsed("threads", 4),
        seed: args.get_parsed("seed", 20041025),
        // Half the budget quiescent, half under active drift.
        phase: Duration::from_secs_f64((duration_s / 2.0).max(0.2)),
        pace_per_thread: (rate > 0.0).then_some(rate),
        shards,
        drift_batch,
        ..ServeMeasurementConfig::default()
    };
    let summary = ServeSummary::measure(config).unwrap_or_else(|e| {
        eprintln!("serve measurement failed: {e}");
        exit(1);
    });
    if telemetry_on {
        ides::telemetry::set_enabled(false);
        // The query total is not recorded on the query hot path (the
        // engine's always-on ServiceStats counter is already exact);
        // fold it into the registry so the exposition carries it without
        // a second per-query RMW.
        let reg = ides::telemetry::global();
        reg.add(ides::telemetry::Counter::Queries, summary.stats.queries);
        // The exposition's query histogram is the load harness's own
        // merged histogram, so its `_count`/`_sum` reconcile exactly
        // with the `telemetry_query_*` keys in `--json`.
        let snap = reg.snapshot();
        let spans = ides::telemetry::take_spans();
        if let Some(path) = &metrics_out {
            let query_hist = summary.query_latency_merged();
            let text = ides::telemetry::render_prometheus(
                &snap,
                &[("query_latency_ns", &query_hist)],
                &[
                    ("chunk_share_ratio", summary.stats.chunk_share_ratio()),
                    // An integer below 2^53: the exposition prints it
                    // exactly, the same digits as `--json`.
                    ("measurement_bytes", summary.stats.measurement_bytes as f64),
                ],
            );
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("error: cannot write --metrics-out {path}: {e}");
                exit(1);
            }
        }
        if let Some(path) = &trace_out {
            if let Err(e) = std::fs::write(path, ides::telemetry::render_chrome_trace(&spans)) {
                eprintln!("error: cannot write --trace-out {path}: {e}");
                exit(1);
            }
        }
    }
    if args.has("json") {
        println!("{}", summary.to_json());
        return;
    }
    println!(
        "serving {} landmarks + {} hosts at d={}, {} query threads, {} shard(s)",
        config.landmarks, config.hosts, config.dim, config.threads, config.shards
    );
    println!(
        "admission ({} concurrent joiners): coalesced {:.0}/s ({} flushes) vs direct {:.0}/s  => {:.1}x",
        summary.admission.joiners,
        summary.admission.coalesced_per_sec,
        summary.admission.coalesced_flushes,
        summary.admission.direct_per_sec,
        summary.admission.speedup
    );
    println!(
        "queries quiescent:   p50 {:.1}us  p99 {:.1}us  ({:.0} qps)",
        summary.quiescent_us(0.5),
        summary.quiescent_us(0.99),
        summary.quiescent.queries_per_sec
    );
    println!(
        "queries under drift: p50 {:.1}us  p99 {:.1}us  ({:.0} qps, {} epochs applied)",
        summary.drift_us(0.5),
        summary.drift_us(0.99),
        summary.drifting.queries_per_sec,
        summary.drifting.epochs
    );
    println!("p99 drift/quiescent: {:.2}x", summary.p99_ratio());
    let pub_us = |q: f64| summary.publish.quantile(q).as_secs_f64() * 1e6;
    println!(
        "publishes:           p50 {:.1}us  p99 {:.1}us  ({} publishes across {} shard(s))",
        pub_us(0.5),
        pub_us(0.99),
        summary.publish.count(),
        config.shards
    );
    println!(
        "gauges:              coalescer depth {}, snapshot chunk share {:.1}%, measurements {} B",
        summary.stats.coalescer_depth,
        summary.stats.chunk_share_ratio() * 100.0,
        summary.stats.measurement_bytes
    );
    if config.shards > 1 {
        for (i, h) in summary.quiescent.per_shard_latency.iter().enumerate() {
            println!(
                "  shard {i}: quiescent p50 {:.1}us  p99 {:.1}us  ({} queries)",
                h.quantile(0.5).as_secs_f64() * 1e6,
                h.quantile(0.99).as_secs_f64() * 1e6,
                h.count()
            );
        }
    }
}

fn cmd_eval(args: &Args) {
    let Some(path) = args.positional.first() else {
        eprintln!("usage: ides-cli eval <matrix> --landmarks M --dim D [--algo svd|nmf]");
        exit(2);
    };
    let m = load_matrix(path);
    if !m.is_square() {
        eprintln!("error: eval needs a square matrix");
        exit(1);
    }
    let landmarks_n: usize = args.get_parsed("landmarks", 20);
    let dim: usize = args.get_parsed("dim", 8);
    let seed: u64 = args.get_parsed("seed", 20041025);
    let config = match args.get("algo", "svd").as_str() {
        "svd" => IdesConfig::new(dim),
        "nmf" => IdesConfig::nmf(dim),
        other => {
            eprintln!("unknown algorithm {other:?} (svd|nmf)");
            exit(2);
        }
    };
    let n = m.rows();
    if landmarks_n + 2 > n {
        eprintln!("error: {landmarks_n} landmarks but only {n} hosts");
        exit(1);
    }
    let (landmarks, ordinary) = split_landmarks(n, landmarks_n, seed);
    let r = ides::eval::evaluate_ides(&m, &landmarks, &ordinary, config).unwrap_or_else(|e| {
        eprintln!("evaluation failed: {e}");
        exit(1);
    });
    println!("landmarks:        {landmarks_n}");
    println!("hosts joined:     {}", r.hosts_joined);
    println!("pairs evaluated:  {}", r.pairs_evaluated);
    println!("build time:       {:.3}s", r.build_seconds);
    let cdf = r.into_cdf();
    println!("median rel error: {:.4}", cdf.median());
    println!("p90 rel error:    {:.4}", cdf.p90());
    println!("fraction <= 0.1:  {:.3}", cdf.fraction_below(0.1));
    println!("fraction <= 0.5:  {:.3}", cdf.fraction_below(0.5));
}

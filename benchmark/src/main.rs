//! `ides_benchmark`: the repo's end-to-end + per-layer benchmark.
//! See `benchmark/README.md`; `benchmark/run.sh` builds and runs it.
//!
//! Modes:
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload in
//!   this process; the last stdout line is the result object.
//! * no `--workload` — every workload, each in a fresh child process,
//!   `--runs K` times; results land in `--out` (default
//!   `benchmark/out/results.json`). `--trace` adds a traced run each.
//! * `--compare A.json B.json` — judge two result files.

mod compare;
mod fingerprint;
mod inputs;
mod json;
mod layers;
mod metrics;
mod phases;
mod reference;
mod rng;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Value;
use metrics::Metric;
use phases::Run;
use spec::{Contract, Spec, DEFAULT_SEED, NOMINAL_SECONDS, WORKLOADS};

/// Set-up repetitions per run (the median is `setup_s`).
const SETUP_REPS: usize = 5;
/// The traced run adds the reads-beside-writes segment and the layer
/// probes to the phases, so it runs those at this share of the untraced
/// operation counts (end-to-end metrics never come from it).
const TRACED_SCALE: f64 = 0.6;
/// `--smoke` runs every workload at about 1/50 scale.
const SMOKE_SCALE: f64 = 0.02;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: Option<PathBuf>,
    out_dir: PathBuf,
    result_file: Option<PathBuf>,
    compare: Option<(String, String)>,
}

const USAGE: &str =
    "usage: ides_benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
[--smoke] [--runs K] [--out FILE] [--out-dir DIR] | --compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: NOMINAL_SECONDS,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
        out_dir: PathBuf::from("benchmark/out"),
        result_file: None,
        compare: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && (0.1..=600.0).contains(&args.seconds)) {
                    return Err("--seconds must be between 0.1 and 600".into());
                }
            }
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&args.runs) {
                    return Err("--runs must be between 1 and 100".into());
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--out-dir" => args.out_dir = PathBuf::from(value("a path")?),
            "--result-file" => args.result_file = Some(PathBuf::from(value("a path")?)),
            "--smoke" => args.smoke = true,
            "--compare" => args.compare = Some((value("two files")?, value("two files")?)),
            // The driver passes `--trace 0|1`; people type a bare `--trace`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn scale_of(args: &Args) -> f64 {
    if args.smoke {
        SMOKE_SCALE
    } else {
        args.seconds / NOMINAL_SECONDS
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let tail = match m.percentile {
            Some(p) if p != 0.5 => format!(", percentile {p}"),
            _ => String::new(),
        };
        println!(
            "{:<44} {:>18.6} {:<8} (n={}{tail})",
            m.name, m.value, m.unit, m.n
        );
    }
}

/// Runs one workload in this process and prints its result line, in
/// which `correct` says whether every checked operation passed.
fn run_workload(args: &Args, name: &str) -> Result<bool, String> {
    let contract = Contract::load();
    let scale = scale_of(args) * if args.trace { TRACED_SCALE } else { 1.0 };
    let spec = Spec::of(name, scale, args.smoke)
        .ok_or_else(|| format!("unknown workload {name} (have {WORKLOADS:?})"))?;
    // The benchmark measures from outside; product telemetry stays off
    // (one probe of the traced run switches it on and back).
    ides::telemetry::set_enabled(false);
    let wall = Instant::now();

    let (inp, setup_s) = inputs::generate_timed(&spec, args.seed, SETUP_REPS);
    let mut run = Run::new(&spec, &inp, args.seed, args.trace);
    let dep = run.all_phases();
    let mut end_to_end = metrics::end_to_end(&run, setup_s, SETUP_REPS);

    let mut record = Value::obj();
    let metrics = if args.trace {
        run.mixed(&dep);
        layers::probes(&mut run, &dep);
        let layer_metrics = layers::per_layer(&run, &end_to_end).finish(&contract.per_layer)?;

        let trace_path = args.out_dir.join(format!("trace-{name}.json"));
        write_file(&trace_path, &trace::chrome_trace(run.tr.spans(), name))?;
        println!("trace written to {}", trace_path.display());
        let mut layers = Value::obj();
        for (span, t) in trace::totals_by_name(run.tr.spans()) {
            let mut row = Value::obj();
            row.set("count", t.count)
                .set("total_ns", t.total_ns)
                .set("self_ns", t.self_ns);
            layers.set(span, row);
        }
        record.set("layers", layers);
        layer_metrics
    } else {
        // Peak memory is read last so it covers the whole run.
        end_to_end.put("peak_rss_mb", fingerprint::peak_rss_mb(), 1);
        end_to_end.finish(&contract.end_to_end)?
    };

    let correct = run.failed == 0;
    let mut ops = Value::obj();
    for (k, v) in &run.ops {
        ops.set(k, *v);
    }
    let mut values = Value::obj();
    for (k, v) in &run.values {
        values.set(k, *v);
    }
    let mut table = Value::obj();
    for m in &metrics {
        table.set(&m.name, m.to_json());
    }
    record
        .set("workload", name)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("smoke", args.smoke)
        .set("trace", args.trace)
        .set("correct", correct)
        .set("attempted", run.attempted)
        .set("failed", run.failed)
        .set("wall_s", wall.elapsed().as_secs_f64())
        .set("host", fingerprint::host())
        .set("ops", ops)
        .set("values", values)
        .set("metrics", table);
    if let Some(path) = &args.result_file {
        write_file(path, &record.render_pretty())?;
    }

    println!(
        "workload {name} seed {} seconds {} trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("fingerprint {}", fingerprint::host().render());
    println!("ops {}", record.get("ops").expect("ops").render());
    print_metrics(&metrics);
    println!(
        "{}",
        metrics::result_line(correct, run.attempted, run.failed, &metrics)
    );
    // A printed result is a completed run: `correct` carries the verdict.
    Ok(true)
}

/// Runs every workload `--runs` times, each in a fresh child process,
/// and merges the children's records into one results file.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| args.out_dir.join("results.json"));
    let scratch = args.out_dir.join("run.tmp.json");
    let mut runs = Vec::new();
    let mut all_correct = true;
    let traces: &[bool] = if args.trace { &[false, true] } else { &[false] };
    for round in 0..args.runs {
        for workload in WORKLOADS {
            for &trace in traces {
                println!(
                    "--- {workload} (run {} of {}, trace {}) ---",
                    round + 1,
                    args.runs,
                    u8::from(trace)
                );
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", workload])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out-dir")
                    .arg(&args.out_dir)
                    .arg("--result-file")
                    .arg(&scratch);
                if args.smoke {
                    child.arg("--smoke");
                }
                // `status` waits for the child to end before returning.
                let status = child
                    .status()
                    .map_err(|e| format!("spawn {workload}: {e}"))?;
                if !status.success() {
                    return Err(format!("{workload} exited with {status}"));
                }
                let text = std::fs::read_to_string(&scratch)
                    .map_err(|e| format!("{}: {e}", scratch.display()))?;
                let record = json::parse(&text)?;
                all_correct &= record.get("correct").and_then(Value::as_bool) == Some(true);
                runs.push(record);
            }
        }
    }
    // Best effort: the scratch file is ours and already merged.
    let _ = std::fs::remove_file(&scratch);
    let mut doc = Value::obj();
    doc.set("host", fingerprint::host()).set("runs", runs);
    write_file(&out, &doc.render_pretty())?;
    println!("results written to {}", out.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare::compare(a, b),
        (None, Some(name)) => run_workload(&args, name),
        (None, None) => run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ides_benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

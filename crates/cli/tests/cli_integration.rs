//! End-to-end tests of the `ides-cli` binary: gen → stats → factor →
//! predict → join → eval over real files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ides-cli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ides_cli_test_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn gen_stats_factor_predict_roundtrip() {
    let dir = tmpdir("roundtrip");
    let matrix = dir.join("m.json");
    let model = dir.join("model.json");

    let out = bin()
        .args(["gen", "gnp", "--hosts", "15", "--seed", "3", "--out"])
        .arg(&matrix)
        .output()
        .expect("run gen");
    assert!(
        out.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("15x15"));

    let out = bin().arg("stats").arg(&matrix).output().expect("run stats");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("shape:              15x15"), "{text}");
    assert!(text.contains("triangle violations"));

    let out = bin()
        .args(["factor"])
        .arg(&matrix)
        .args(["--dim", "6", "--algo", "svd", "--out"])
        .arg(&model)
        .output()
        .expect("run factor");
    assert!(
        out.status.success(),
        "factor failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(model.exists());

    let out = bin()
        .arg("predict")
        .arg(&model)
        .args(["0", "5"])
        .output()
        .expect("run predict");
    assert!(out.status.success());
    let predicted: f64 = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("a number");
    assert!(predicted.is_finite() && predicted > 0.0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn text_format_and_reconstruct() {
    let dir = tmpdir("text");
    let matrix = dir.join("m.txt");
    let out = bin()
        .args(["gen", "gnp", "--hosts", "12", "--format", "text", "--out"])
        .arg(&matrix)
        .output()
        .expect("run gen");
    assert!(out.status.success());

    let out = bin()
        .arg("reconstruct")
        .arg(&matrix)
        .args(["--dim", "5"])
        .output()
        .expect("run reconstruct");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    for algo in ["svd", "nmf", "als"] {
        assert!(text.contains(algo), "missing {algo} row: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn join_reproduces_landmark_distances() {
    let dir = tmpdir("join");
    let matrix = dir.join("m.json");
    let model = dir.join("model.json");
    bin()
        .args(["gen", "gnp", "--hosts", "10", "--seed", "9", "--out"])
        .arg(&matrix)
        .output()
        .expect("gen");
    bin()
        .arg("factor")
        .arg(&matrix)
        .args(["--dim", "8", "--out"])
        .arg(&model)
        .output()
        .expect("factor");
    let out = bin()
        .arg("join")
        .arg(&model)
        .args(["--out-row", "10 20 30 40 50 60 70 80 90 100"])
        .output()
        .expect("join");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("outgoing:"));
    assert!(text.contains("estimated distance to landmark 0"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_join_from_rows_file() {
    let dir = tmpdir("join_batch");
    let matrix = dir.join("m.json");
    let model = dir.join("model.json");
    let rows = dir.join("hosts.txt");
    bin()
        .args(["gen", "gnp", "--hosts", "10", "--seed", "9", "--out"])
        .arg(&matrix)
        .output()
        .expect("gen");
    bin()
        .arg("factor")
        .arg(&matrix)
        .args(["--dim", "8", "--out"])
        .arg(&model)
        .output()
        .expect("factor");
    std::fs::write(
        &rows,
        "# two hosts, one measurement row each\n\
         10 20 30 40 50 60 70 80 90 100\n\
         100 90 80 70 60 50 40 30 20 10\n",
    )
    .expect("write rows file");
    let out = bin()
        .arg("join")
        .arg(&model)
        .arg("--rows-file")
        .arg(&rows)
        .output()
        .expect("batch join");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("joined 2 hosts"), "{text}");
    assert!(
        text.contains("host 0:") && text.contains("host 1:"),
        "{text}"
    );
    // The symmetric fallback is called out on stdout.
    assert!(text.contains("incoming = outgoing"), "{text}");

    // Asymmetric data via --in-rows-file: same shape, different values.
    let in_rows = dir.join("hosts_in.txt");
    std::fs::write(
        &in_rows,
        "12 22 32 42 52 62 72 82 92 102\n\
         102 92 82 72 62 52 42 32 22 12\n",
    )
    .expect("write in-rows file");
    let out = bin()
        .arg("join")
        .arg(&model)
        .arg("--rows-file")
        .arg(&rows)
        .arg("--in-rows-file")
        .arg(&in_rows)
        .output()
        .expect("asymmetric batch join");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("joined 2 hosts"), "{text}");
    assert!(!text.contains("incoming = outgoing"), "{text}");

    // Host-count mismatch between the two files is rejected.
    std::fs::write(&in_rows, "12 22 32 42 52 62 72 82 92 102\n").expect("rewrite");
    let out = bin()
        .arg("join")
        .arg(&model)
        .arg("--rows-file")
        .arg(&rows)
        .arg("--in-rows-file")
        .arg(&in_rows)
        .output()
        .expect("mismatched batch join");
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn eval_subcommand_reports() {
    let dir = tmpdir("eval");
    let matrix = dir.join("m.json");
    bin()
        .args(["gen", "nlanr", "--hosts", "40", "--seed", "5", "--out"])
        .arg(&matrix)
        .output()
        .expect("gen");
    let out = bin()
        .arg("eval")
        .arg(&matrix)
        .args(["--landmarks", "15", "--dim", "6"])
        .output()
        .expect("eval");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("hosts joined:     25"), "{text}");
    assert!(text.contains("median rel error"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_reports_queries_without_cache_fields() {
    // The pair cache is gone: neither the text report nor `--json` may
    // still carry a cache field, and the fields around them survive.
    let common = "serve --landmarks 12 --dim 4 --hosts 24 --threads 1 --duration-s 0.4";
    let out = bin()
        .args(common.split(' '))
        .arg("--json")
        .output()
        .expect("serve --json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout).to_string();
    for key in [
        "admission_direct_per_sec",
        "quiescent_qps",
        "coalescer_depth",
        "chunk_share_ratio",
    ] {
        assert!(
            json.contains(&format!("\"{key}\"")),
            "missing {key}: {json}"
        );
    }
    assert!(!json.contains("cache"), "{json}");

    let out = bin().args(common.split(' ')).output().expect("serve");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("queries quiescent:"), "{text}");
    assert!(text.contains("gauges:"), "{text}");
    assert!(!text.contains("cache"), "{text}");
}

#[test]
fn serve_refuses_degenerate_load_shapes_without_panicking() {
    for degenerate in ["--threads 0", "--hosts 0"] {
        let out = bin()
            .args("serve --landmarks 12 --dim 4 --hosts 24 --duration-s 0.4".split(' '))
            .args(degenerate.split(' '))
            .output()
            .expect("serve");
        let stderr = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(!out.status.success(), "{degenerate} should fail");
        assert!(!stderr.contains("panicked"), "{degenerate}: {stderr}");
        assert_eq!(stderr.trim_end().lines().count(), 1, "{stderr}");
        assert!(stderr.starts_with("serve measurement failed:"), "{stderr}");
    }
}

#[test]
fn unknown_command_fails_with_help() {
    let out = bin().arg("bogus").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_arguments_fail_cleanly() {
    for args in [
        vec!["gen"],
        vec!["stats"],
        vec!["factor"],
        vec!["predict", "x.json"],
    ] {
        let out = bin().args(&args).output().expect("run");
        assert!(!out.status.success(), "{args:?} should fail");
    }
}

//! The observatory gate, end to end: the real `benchdiff` binary must
//! pass an unchanged bench file, fail (exit 1) on a synthetically
//! regressed one, and fail when a baseline metric vanishes; and the CI
//! gate over the traced tsmobench baseline must fail on any moved work
//! count.

use std::path::PathBuf;
use std::process::Command;
use tsmo_obs::json::{self, Json};

fn write_temp(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("benchdiff_{name}_{}", std::process::id()));
    std::fs::write(&path, text).expect("write temp bench file");
    path
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchdiff"))
        .args(args)
        .output()
        .expect("spawn benchdiff");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

const BASELINE: &str = r#"{"evals_per_sec": 1500000.0, "raw": {"seconds": 0.5},
    "points": [{"hypervolume": 96049.25, "seconds": 2.7}]}"#;

#[test]
fn an_unchanged_bench_file_passes_the_gate() {
    let baseline = write_temp("pass_base", BASELINE);
    let fresh = write_temp("pass_fresh", BASELINE);
    let (code, stdout, _) = run(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--fresh",
        fresh.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("no regression"), "{stdout}");
}

#[test]
fn a_synthetically_regressed_bench_file_fails_the_gate() {
    // Throughput down 30% against a 10% band.
    let baseline = write_temp("fail_base", BASELINE);
    let fresh = write_temp("fail_fresh", &BASELINE.replace("1500000.0", "1050000.0"));
    let (code, stdout, stderr) = run(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--fresh",
        fresh.to_str().unwrap(),
        "--tolerance",
        "10",
    ]);
    assert_eq!(code, 1, "{stdout}{stderr}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stderr.contains("regression detected"), "{stderr}");
}

#[test]
fn wide_bands_absorb_the_same_move_and_vanished_metrics_still_fail() {
    let baseline = write_temp("band_base", BASELINE);
    let fresh = write_temp("band_fresh", &BASELINE.replace("1500000.0", "1050000.0"));
    let (code, stdout, _) = run(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--fresh",
        fresh.to_str().unwrap(),
        "--tolerance-for",
        "evals_per_sec=50",
    ]);
    assert_eq!(code, 0, "{stdout}");

    // Dropping a metric entirely is never absorbable.
    let gutted = write_temp(
        "band_gutted",
        r#"{"evals_per_sec": 1500000.0, "raw": {"seconds": 0.5}}"#,
    );
    let (code, stdout, _) = run(&[
        "--baseline",
        baseline.to_str().unwrap(),
        "--fresh",
        gutted.to_str().unwrap(),
        "--tolerance",
        "99",
    ]);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("MISSING"), "{stdout}");
}

/// The CI gate over the committed traced tsmobench baseline: the flags
/// of the CI step, and the seven work counts a fixed seed pins exactly.
const TRACED_BASELINE: &str = "baselines/BENCH_tsmobench_trace.json";
const CI_FLAGS: [&str; 6] = [
    "--tolerance",
    "2",
    "--tolerance-for",
    "_ms=900",
    "--tolerance-for",
    "_ns=900",
];
const EXACT_COUNTS: [&str; 7] = [
    "operators.draws_per_neighbor",
    "operators.draw_fail_ratio",
    "vrptw.sites_resimulated_per_neighbor",
    "core.materialized_sites_per_neighbor",
    "core.allocs_per_neighbor",
    "core.iterations",
    "core.restarts",
];

fn traced_baseline() -> (PathBuf, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(TRACED_BASELINE);
    let text = std::fs::read_to_string(&path).expect("read the traced baseline");
    (path, text)
}

fn ci_tolerances() -> bench::diff::Tolerances {
    bench::diff::Tolerances {
        default_pct: 2.0,
        overrides: vec![("_ms".to_string(), 900.0), ("_ns".to_string(), 900.0)],
        informational: Vec::new(),
    }
}

fn metric(doc: &Json, workload: &str, metric: &str) -> f64 {
    doc.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("metrics"))
        .and_then(|m| m.get(metric))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{workload} has no {metric}"))
}

/// The baseline with one workload's metric set to `value`.
fn edited(doc: &Json, workload: &str, metric: &str, value: f64) -> Json {
    let mut doc = doc.clone();
    let mut node = &mut doc;
    for key in ["workloads", workload, "metrics", metric] {
        node = match node {
            Json::Object(map) => map.get_mut(key).expect("path exists"),
            _ => panic!("{key}: not an object"),
        };
    }
    *node = Json::Number(value);
    doc
}

#[test]
fn every_traced_work_count_fails_the_ci_gate_when_it_moves_three_percent() {
    let (_, text) = traced_baseline();
    let doc = json::parse(&text).expect("baseline parses");
    let Some(Json::Object(workloads)) = doc.get("workloads") else {
        panic!("no workloads in the traced baseline");
    };
    assert_eq!(workloads.len(), 5, "every tsmobench workload is gated");
    let judged = |fresh: &Json| bench::diff::diff(&doc, fresh, &ci_tolerances());
    for workload in workloads.keys() {
        for name in EXACT_COUNTS {
            let base = metric(&doc, workload, name);
            // A count of zero that becomes one moved too.
            let moves = if base == 0.0 {
                vec![1.0]
            } else {
                vec![base * 1.03, base * 0.97]
            };
            for value in moves {
                let report = judged(&edited(&doc, workload, name, value));
                assert!(
                    report.regressed(),
                    "{workload} {name} {base} -> {value} passed:\n{}",
                    report.render()
                );
            }
            let report = judged(&edited(&doc, workload, name, base * 1.01));
            assert!(!report.regressed(), "{workload} {name} +1% failed");
        }
    }
}

#[test]
fn the_ci_step_passes_the_traced_baseline_and_fails_a_moved_count() {
    let (path, text) = traced_baseline();
    let baseline = path.to_str().unwrap();
    let mut args = vec!["--baseline", baseline, "--fresh", baseline];
    args.extend(CI_FLAGS);
    let (code, stdout, _) = run(&args);
    assert_eq!(code, 0, "{stdout}");

    // Edit the text itself, as a hand edit of the fresh file would.
    let doc = json::parse(&text).expect("baseline parses");
    let allocs = metric(&doc, "search-r1-100", "core.allocs_per_neighbor");
    let needle = format!("\"core.allocs_per_neighbor\": {allocs}");
    assert_eq!(text.matches(&needle).count(), 1, "{needle}");
    let moved = format!("\"core.allocs_per_neighbor\": {}", allocs * 0.97);
    let fresh = write_temp("traced_fresh", &text.replace(&needle, &moved));
    let mut args = vec!["--baseline", baseline, "--fresh", fresh.to_str().unwrap()];
    args.extend(CI_FLAGS);
    let (code, stdout, _) = run(&args);
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("REGRESSED"), "{stdout}");
}

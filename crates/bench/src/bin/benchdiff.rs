//! CI perf-regression gate over the `BENCH_*.json` artifacts.
//!
//! ```text
//! benchdiff --baseline crates/bench/baselines/BENCH_tsmobench_trace.json \
//!           --fresh BENCH_tsmobench_trace.json \
//!           [--tolerance PCT] [--tolerance-for SUBSTR=PCT ...] \
//!           [--informational SUBSTR ...]
//! ```
//!
//! Prints the per-metric delta table and exits 1 when any direction-aware
//! metric moved the wrong way beyond its band (an exact work count, either
//! way), or when a baseline metric vanished from the fresh run. `--tolerance-for` widens the band for
//! paths containing a substring (timing metrics on shared CI runners need
//! more slack than deterministic counters); `--informational` tracks a
//! noisy metric in the table without letting it fail the gate.

use bench::diff::{diff_texts, Tolerances};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchdiff --baseline FILE --fresh FILE [--tolerance PCT] \
         [--tolerance-for SUBSTR=PCT ...] [--informational SUBSTR ...]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut baseline = None;
    let mut fresh = None;
    let mut tolerances = Tolerances::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let Some(value) = args.get(i + 1) else {
            return usage();
        };
        match flag {
            "--baseline" => baseline = Some(value.clone()),
            "--fresh" => fresh = Some(value.clone()),
            "--tolerance" => match value.parse() {
                Ok(pct) => tolerances.default_pct = pct,
                Err(_) => return usage(),
            },
            "--tolerance-for" => match value.split_once('=') {
                Some((sub, pct)) => match pct.parse() {
                    Ok(pct) => tolerances.overrides.push((sub.to_string(), pct)),
                    Err(_) => return usage(),
                },
                None => return usage(),
            },
            "--informational" => tolerances.informational.push(value.clone()),
            _ => return usage(),
        }
        i += 2;
    }
    let (Some(baseline), Some(fresh)) = (baseline, fresh) else {
        return usage();
    };

    let read = |path: &str| -> Result<String, ExitCode> {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("cannot read {path}: {e}");
            ExitCode::from(2)
        })
    };
    let baseline_text = match read(&baseline) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let fresh_text = match read(&fresh) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let report = match diff_texts(&baseline_text, &fresh_text, &tolerances) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchdiff: {e}");
            return ExitCode::from(2);
        }
    };
    println!("benchdiff {baseline} vs {fresh}");
    print!("{}", report.render());
    if report.regressed() {
        eprintln!("benchdiff: regression detected ({fresh} vs {baseline})");
        ExitCode::FAILURE
    } else {
        println!("benchdiff: no regression");
        ExitCode::SUCCESS
    }
}

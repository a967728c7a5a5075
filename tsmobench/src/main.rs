//! `tsmobench`: the suite's end-to-end and per-layer benchmark.
//!
//! ```text
//! tsmobench --workload <name|all> --seed N [--seconds S] [--trace 0|1] [--out FILE]
//! ```
//!
//! Prints one `name value unit` line per metric, then one JSON result line
//! (`correct`, `attempted`, `failed`, `metrics`). `--trace 1` reports the
//! per-layer metrics instead of the end-to-end ones. `--workload all` runs
//! every workload in its own child process, one after another, so memory
//! is measured per workload. `--out FILE` also writes the results as one
//! JSON document that `benchdiff` can compare with a baseline.
//!
//! Exits 0 when every workload ran (failed operations are counted in the
//! result, not fatal), 1 when a set-up failed, 2 on a usage error.

use std::process::{Command, ExitCode, Stdio};
use tsmo_obs::json;
use tsmobench::alloc::CountingAlloc;
use tsmobench::report::{Metric, Report};
use tsmobench::verify::Tally;
use tsmobench::workload::Workload;
use tsmobench::Options;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Args {
    workload: String,
    opts: Options,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => out = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && Workload::parse(&workload).is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        opts,
        out,
    })
}

/// The `--out` document: `workloads.<name>.metrics.<metric>` flattens to
/// one numeric path per metric.
fn document(opts: &Options, results: &[(&str, Report)]) -> String {
    let mut out = format!(
        "{{\n  \"benchmark\": \"tsmobench\",\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"trace\": {},\n  \"workloads\": {{",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    for (i, (workload, r)) in results.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        json::write_str(&mut out, workload);
        out.push_str(&format!(
            ": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            r.correct, r.tally.attempted, r.tally.failed
        ));
        for (k, m) in r.metrics.iter().enumerate() {
            out.push_str(if k == 0 { "\n      " } else { ",\n      " });
            json::write_str(&mut out, &m.name);
            out.push_str(": ");
            json::write_f64(&mut out, m.value);
        }
        out.push_str("\n    }}");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Runs one workload in this process.
fn run_here(workload: Workload, opts: &Options) -> Result<Report, String> {
    let report = tsmobench::run(workload, opts)?;
    report.print();
    Ok(report)
}

/// Runs one workload in a child process, forwarding its output; returns
/// its result line read back.
fn run_child(workload: Workload, opts: &Options) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: spawn: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    println!("## {}", workload.name());
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{}: exited with {}",
            workload.name(),
            output.status
        ));
    }
    let line = stdout.lines().last().unwrap_or_default();
    Report::parse(line).map_err(|e| format!("{}: {e}", workload.name()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tsmobench: {e}");
            eprintln!(
                "usage: tsmobench --workload <name|all> --seed N [--seconds S] [--trace 0|1] \
                 [--out FILE]"
            );
            return ExitCode::from(2);
        }
    };
    let mut results = Vec::new();
    let mut failed = false;
    let workloads = match Workload::parse(&args.workload) {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    for w in &workloads {
        let run = if workloads.len() == 1 {
            run_here(*w, &args.opts)
        } else {
            run_child(*w, &args.opts)
        };
        match run {
            Ok(report) => results.push((w.name(), report)),
            Err(e) => {
                eprintln!("tsmobench: {e}");
                failed = true;
            }
        }
    }
    if workloads.len() > 1 && !failed {
        // The combined result line: every metric as `<workload>/<name>`.
        let combined = Report {
            correct: results.iter().all(|(_, r)| r.correct),
            tally: Tally {
                attempted: results.iter().map(|(_, r)| r.tally.attempted).sum(),
                failed: results.iter().map(|(_, r)| r.tally.failed).sum(),
                ..Tally::default()
            },
            metrics: results
                .iter()
                .flat_map(|(w, r)| {
                    r.metrics.iter().map(move |m| Metric {
                        name: format!("{w}/{}", m.name),
                        ..m.clone()
                    })
                })
                .collect(),
            notes: Vec::new(),
        };
        println!("{}", combined.result_json());
    }
    if failed {
        return ExitCode::from(1);
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, document(&args.opts, &results)) {
            eprintln!("tsmobench: write {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("tsmobench: wrote {path}");
    }
    ExitCode::SUCCESS
}

//! Regenerates Tables I–IV of the paper.
//!
//! ```text
//! cargo run --release -p bench --bin tables -- [--table N] [--full]
//!     [--runs R] [--evals E] [--size S] [--procs 3,6,12] [--ttest]
//!     [--seed S] [--csv PATH] [--metrics-out PATH] [--events-out PATH]
//! ```
//!
//! Without `--table` all four tables are produced. `--full` switches to the
//! paper's scale (400/600 customers, 100,000 evaluations, 30 runs — hours
//! of runtime); the default is a laptop-scale configuration with the same
//! structure.
//!
//! `--metrics-out` writes Prometheus-format metrics accumulated over every
//! cell of every requested table; `--events-out` writes the combined
//! structured event stream as JSONL (large — prefer single-cell
//! configurations when recording events).

use bench::{render_table, run_table_with, ttest_report, TableOpts};
use std::io::Write;
use std::sync::Arc;
use tsmo_core::Clock;
use tsmo_obs::{MemoryRecorder, Recorder};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let has = |flag: &str| args.iter().any(|a| a == flag);

    if has("--help") || has("-h") {
        println!(
            "{}",
            include_str!("tables.rs")
                .lines()
                .take(12)
                .collect::<Vec<_>>()
                .join("\n")
        );
        return;
    }

    let metrics_out = get("--metrics-out");
    let events_out = get("--events-out");
    let memory = (metrics_out.is_some() || events_out.is_some()).then(MemoryRecorder::shared);

    let full = has("--full");
    let tables: Vec<usize> = match get("--table") {
        Some(t) => vec![t.parse().expect("--table takes 1..=4")],
        None => vec![1, 2, 3, 4],
    };

    for table in tables {
        let mut opts = if full {
            TableOpts::full(table)
        } else {
            TableOpts::quick(table)
        };
        if let Some(r) = get("--runs") {
            opts.runs = r.parse().expect("--runs takes a positive integer");
        }
        if let Some(e) = get("--evals") {
            opts.evals = e.parse().expect("--evals takes a positive integer");
        }
        if let Some(s) = get("--size") {
            opts.size = s.parse().expect("--size takes a positive integer");
        }
        if let Some(s) = get("--seed") {
            opts.seed = s.parse().expect("--seed takes a u64");
        }
        if let Some(p) = get("--procs") {
            opts.procs = p
                .split(',')
                .map(|x| x.trim().parse().expect("--procs takes a comma list"))
                .collect();
        }
        if let Some(t) = get("--timing") {
            opts.timing = match t.as_str() {
                "real" => Clock::Wall,
                "virtual" => Clock::Virtual { speeds: None },
                other => panic!("--timing takes real|virtual, got {other:?}"),
            };
        }

        let window = match table {
            1 | 3 => "small time windows (C1, R1)",
            _ => "large time windows (C2, R2)",
        };
        eprintln!(
            "Table {table}: {} customers, {window}, {} runs x {} evals",
            opts.size, opts.runs, opts.evals
        );
        let total_cells =
            (1 + 3 * opts.procs.len()) * opts.classes.len() * opts.instances_per_class * opts.runs;
        let mut done = 0usize;
        let recorder: Arc<dyn Recorder> = memory
            .clone()
            .map_or_else(tsmo_obs::noop, |m| m as Arc<dyn Recorder>);
        let results = run_table_with(&opts, recorder, |label, _, _| {
            done += 1;
            eprint!("\r  [{done}/{total_cells}] {label}                    ");
            let _ = std::io::stderr().flush();
        });
        eprintln!();
        let title = format!(
            "Table {table} — {} city problems, {window} (generated set; {} runs, {} evaluations)",
            opts.size, opts.runs, opts.evals
        );
        let rendered = render_table(&title, &results);
        println!("{rendered}");
        if has("--ttest") {
            println!("{}", ttest_report(&results));
        }
        if let Some(path) = get("--csv") {
            let mut csv = String::from("algorithm,run,distance,vehicles,runtime\n");
            for algo in &results {
                for (run, agg) in algo.per_run.iter().enumerate() {
                    csv.push_str(&format!(
                        "{},{},{:.4},{:.4},{:.4}\n",
                        algo.label, run, agg.distance, agg.vehicles, agg.runtime
                    ));
                }
            }
            let file = format!("{path}.table{table}.csv");
            std::fs::write(&file, csv).expect("failed to write CSV");
            eprintln!("wrote {file}");
        }
    }

    if let Some(memory) = &memory {
        if let Some(path) = &metrics_out {
            std::fs::write(path, memory.prometheus()).expect("failed to write metrics");
            eprintln!("wrote {path}");
        }
        if let Some(path) = &events_out {
            std::fs::write(path, memory.events_jsonl()).expect("failed to write events");
            eprintln!("wrote {path} ({} events)", memory.event_count());
        }
        eprint!("{}", memory.summary());
    }
}

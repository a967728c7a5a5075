//! Regenerates Fig. 1: the asynchronous TS search trajectory in objective
//! space, with iteration-tagged neighborhoods and the selected currents.
//!
//! ```text
//! cargo run --release -p bench --bin fig1 -- [--evals E] [--procs P]
//!     [--size N] [--seed S] [--csv PATH] [--iters-shown K]
//!     [--metrics-out PATH] [--events-out PATH]
//! ```
//!
//! Prints an ASCII rendition of the figure (distance × tardiness plane,
//! digits = creating iteration mod 10, `●` = selected current solutions)
//! and optionally writes the full trace CSV for external plotting.
//! `--metrics-out`/`--events-out` export the run's telemetry (Prometheus
//! text and structured JSONL events; see the `tsmo-obs` crate) — useful
//! for relating the trajectory to staleness and worker utilization.

use std::sync::Arc;
use tsmo_core::{ParallelVariant, TsmoConfig};
use tsmo_obs::{MemoryRecorder, Recorder};
use vrptw::generator::{GeneratorConfig, InstanceClass};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let evals: u64 = get("--evals").map_or(4_000, |s| s.parse().expect("--evals"));
    let procs: usize = get("--procs").map_or(4, |s| s.parse().expect("--procs"));
    let size: usize = get("--size").map_or(60, |s| s.parse().expect("--size"));
    let seed: u64 = get("--seed").map_or(42, |s| s.parse().expect("--seed"));
    let iters_shown: usize = get("--iters-shown").map_or(12, |s| s.parse().expect("--iters-shown"));

    let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, size, seed).build());
    let cfg = TsmoConfig {
        max_evaluations: evals,
        neighborhood_size: 120,
        trace: true,
        seed,
        ..TsmoConfig::default()
    };
    eprintln!(
        "async TSMO on {} ({} customers), {} processors, {} evaluations",
        inst.name, size, procs, evals
    );
    let metrics_out = get("--metrics-out");
    let events_out = get("--events-out");
    let memory = (metrics_out.is_some() || events_out.is_some()).then(MemoryRecorder::shared);
    let recorder: Arc<dyn Recorder> = memory
        .clone()
        .map_or_else(tsmo_obs::noop, |m| m as Arc<dyn Recorder>);
    let out = ParallelVariant::Asynchronous(procs).run_with(&inst, &cfg, recorder);
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
    let trace = out.trace.expect("tracing was enabled");

    eprintln!(
        "{} trace points, {} selected currents, max staleness {} iterations",
        trace.len(),
        trace.trajectory().len(),
        trace.max_staleness()
    );

    // Show the early search (the figure sketches the approach to the
    // front), restricted to the first `iters_shown` iterations.
    let pts: Vec<_> = trace
        .iter()
        .filter(|p| p.iter_considered <= iters_shown)
        .collect();
    if pts.is_empty() {
        eprintln!("nothing to plot");
        return;
    }
    // Axes: f1 (distance) on x, f3 (tardiness) on y, like the trajectory
    // approaching the pareto-optimal front.
    let (w, h) = (78usize, 24usize);
    let min_x = pts
        .iter()
        .map(|p| p.objectives.distance)
        .fold(f64::INFINITY, f64::min);
    let max_x = pts
        .iter()
        .map(|p| p.objectives.distance)
        .fold(f64::NEG_INFINITY, f64::max);
    let min_y = pts
        .iter()
        .map(|p| p.objectives.tardiness)
        .fold(f64::INFINITY, f64::min);
    let max_y = pts
        .iter()
        .map(|p| p.objectives.tardiness)
        .fold(f64::NEG_INFINITY, f64::max);
    let sx = |x: f64| (((x - min_x) / (max_x - min_x).max(1e-9)) * (w - 1) as f64).round() as usize;
    let sy = |y: f64| {
        (h - 1) - (((y - min_y) / (max_y - min_y).max(1e-9)) * (h - 1) as f64).round() as usize
    };
    let mut grid = vec![vec![' '; w]; h];
    for p in &pts {
        let (cx, cy) = (sx(p.objectives.distance), sy(p.objectives.tardiness));
        grid[cy][cx] = char::from_digit((p.iter_created % 10) as u32, 10).unwrap_or('?');
    }
    for p in &pts {
        if p.chosen {
            grid[sy(p.objectives.tardiness)][sx(p.objectives.distance)] = 'O';
        }
    }
    println!(
        "Fig. 1 — async TS trajectory (first {iters_shown} iterations; digits = creating iteration mod 10, O = selected current)"
    );
    println!("tardiness {:>10.1} ┐", max_y);
    for row in grid {
        println!("            │{}", row.into_iter().collect::<String>());
    }
    println!("{:>10.1}  └{}", min_y, "─".repeat(w));
    println!("            distance: {min_x:.1} … {max_x:.1}");

    if let Some(path) = get("--csv") {
        std::fs::write(&path, trace.to_csv()).expect("failed to write CSV");
        eprintln!("wrote {path}");
    }
}

//! Records the asynchronous search trajectory (the data behind the paper's
//! Fig. 1) and prints summary statistics about neighbor staleness — how
//! often the master considered solutions generated from an earlier
//! iteration's current solution, which is the defining behavior of the
//! asynchronous variant.
//!
//! ```text
//! cargo run --release --example trajectory [-- <trace.csv>]
//! ```

use std::sync::Arc;
use tsmo_suite::prelude::*;

fn main() {
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 80, 21).build());
    let cfg = TsmoConfig {
        max_evaluations: 8_000,
        neighborhood_size: 120,
        trace: true,
        seed: 2,
        ..TsmoConfig::default()
    };
    let out = ParallelVariant::Asynchronous(4).run(&inst, &cfg);
    let trace = out.trace.as_ref().expect("tracing was enabled");

    println!(
        "async run: {} iterations, {} trace points, {} selected currents",
        out.iterations,
        trace.len(),
        trace.trajectory().len()
    );
    // Staleness histogram: how many iterations old were considered
    // neighbors? (0 = same iteration, like the synchronous variant.)
    let mut histogram = std::collections::BTreeMap::<usize, usize>::new();
    for p in trace.iter() {
        *histogram
            .entry(p.iter_considered - p.iter_created)
            .or_default() += 1;
    }
    println!("\nstaleness histogram (iterations between creation and consideration):");
    for (staleness, count) in &histogram {
        let bar = "#".repeat((count * 60 / trace.len()).max(1));
        println!("  {staleness:>3}: {count:>7} {bar}");
    }
    println!("\nmax staleness: {} iterations", trace.max_staleness());

    // Trajectory of selected currents through objective space.
    println!("\nfirst 10 selected current solutions (distance, vehicles, tardiness):");
    for p in trace.trajectory().iter().take(10) {
        println!(
            "  iter {:>4}: ({:>10.2}, {:>3}, {:>10.2})",
            p.iter_considered, p.objectives.distance, p.objectives.vehicles, p.objectives.tardiness
        );
    }

    if let Some(path) = std::env::args().nth(1) {
        std::fs::write(&path, trace.to_csv()).expect("failed to write CSV");
        println!("\nwrote full trace to {path}");
    }
}

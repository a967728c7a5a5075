//! Quickstart: generate an instance, run the sequential multiobjective
//! tabu search, and print the Pareto front of trade-offs it found.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use tsmo_suite::prelude::*;

fn main() {
    // A 100-customer random instance with large time windows (class R2 of
    // the extended-Solomon benchmark family), deterministically generated.
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 100, 42).build());
    println!(
        "instance {}: {} customers, {} vehicles of capacity {}",
        inst.name,
        inst.n_customers(),
        inst.max_vehicles(),
        inst.capacity()
    );

    // Paper defaults, scaled down to a couple of seconds of runtime.
    let cfg = TsmoConfig {
        max_evaluations: 20_000,
        neighborhood_size: 200,
        seed: 1,
        ..TsmoConfig::default()
    };
    let outcome = ParallelVariant::Sequential.run(&inst, &cfg);

    println!(
        "\n{} evaluations in {:.2}s ({} iterations)",
        outcome.evaluations, outcome.runtime_seconds, outcome.iterations
    );
    println!("\nPareto front (time-feasible solutions):");
    println!("{:>12} {:>9} {:>11}", "distance", "vehicles", "tardiness");
    let mut front: Vec<_> = outcome.feasible_front();
    front.sort_by(|a, b| {
        a.objectives
            .distance
            .partial_cmp(&b.objectives.distance)
            .expect("not NaN")
    });
    for entry in &front {
        println!(
            "{:>12.2} {:>9} {:>11.2}",
            entry.objectives.distance, entry.objectives.vehicles, entry.objectives.tardiness
        );
    }
    if let Some(best) = front.first() {
        println!(
            "\nbest-distance solution uses {} routes; the paper's permutation encoding:",
            best.solution.n_deployed()
        );
        let tour = best.solution.giant_tour(&inst);
        let shown: Vec<String> = tour.iter().take(30).map(|s| s.to_string()).collect();
        println!("P = ({}, …)  |P| = {}", shown.join(", "), tour.len());
    }
}

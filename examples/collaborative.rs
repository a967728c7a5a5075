//! The collaborative multisearch variant: several searchers with perturbed
//! parameters exchanging archive-improving solutions, compared against a
//! single sequential search via the set-coverage metric — the comparison
//! behind the "coll." rows of the paper's tables.
//!
//! ```text
//! cargo run --release --example collaborative [-- <searchers>]
//! ```

use std::sync::Arc;
use tsmo_suite::pareto::coverage;
use tsmo_suite::prelude::*;

fn main() {
    let searchers: usize = std::env::args()
        .nth(1)
        .map_or(4, |s| s.parse().expect("searcher count"));
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 120, 11).build());
    let cfg = TsmoConfig {
        max_evaluations: 15_000,
        seed: 5,
        ..TsmoConfig::default()
    };

    println!(
        "instance {} with {} customers\n",
        inst.name,
        inst.n_customers()
    );

    let seq = SequentialTsmo::new(cfg.clone()).run(&inst);
    println!(
        "sequential: {:>6.2}s, front of {} ({} feasible)",
        seq.runtime_seconds,
        seq.archive.len(),
        seq.feasible_front().len()
    );

    let coll = ParallelVariant::Collaborative(searchers).run(&inst, &cfg);
    println!(
        "collaborative ({searchers} searchers): {:>6.2}s, front of {} ({} feasible), {} total evaluations",
        coll.runtime_seconds,
        coll.archive.len(),
        coll.feasible_front().len(),
        coll.evaluations
    );

    let c_coll = coverage(&coll.feasible_vectors(), &seq.feasible_vectors()) * 100.0;
    let c_seq = coverage(&seq.feasible_vectors(), &coll.feasible_vectors()) * 100.0;
    println!("\nset coverage (paper's metric):");
    println!("  C(collaborative, sequential) = {c_coll:.1}%");
    println!("  C(sequential, collaborative) = {c_seq:.1}%");
    println!("\nvehicle counts on the feasible fronts:");
    println!(
        "  sequential:    best {} vehicles",
        seq.best_vehicles()
            .map_or_else(|| "-".into(), |v| v.to_string())
    );
    println!(
        "  collaborative: best {} vehicles",
        coll.best_vehicles()
            .map_or_else(|| "-".into(), |v| v.to_string())
    );
}

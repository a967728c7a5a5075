//! Tests for the paper's qualitative claims, at integration level:
//! the synchronous variant's behavioral equivalence, the representation's
//! encoding, the three-objective structure, and the vehicles/distance
//! coupling argument of §II.A.

use std::sync::Arc;
use tsmo_suite::prelude::*;
use tsmo_suite::vrptw_construct::i1;

fn cfg(evals: u64) -> TsmoConfig {
    TsmoConfig {
        max_evaluations: evals,
        neighborhood_size: 60,
        ..TsmoConfig::default()
    }
}

/// §III.C: "the behavior [of the synchronous variant] remains unchanged"
/// w.r.t. the sequential algorithm — here exactly, via chunked RNG streams.
#[test]
fn sync_equals_sequential_across_classes_and_proc_counts() {
    for (class, seed) in [(InstanceClass::C1, 11u64), (InstanceClass::R2, 12)] {
        let inst = Arc::new(GeneratorConfig::new(class, 36, seed).build());
        for p in [2usize, 5] {
            let mut seq_cfg = cfg(1_800).with_seed(seed);
            seq_cfg.chunks = p;
            let seq = ParallelVariant::Sequential.run(&inst, &seq_cfg);
            let sync = ParallelVariant::Synchronous(p).run(&inst, &cfg(1_800).with_seed(seed));
            let norm = |mut v: Vec<[f64; 3]>| {
                v.sort_by(|a, b| a.partial_cmp(b).expect("not NaN"));
                v
            };
            assert_eq!(
                norm(seq.feasible_vectors()),
                norm(sync.feasible_vectors()),
                "{class:?} with {p} processors"
            );
            assert_eq!(seq.iterations, sync.iterations);
        }
    }
}

/// §II.A: the permutation string is `(0, …, 0)` of length `N + R + 1`, and
/// `f2` equals the number of `0 → non-zero` transitions.
#[test]
fn representation_matches_paper_definition() {
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 20, 3).build());
    let sol = i1(&inst, &I1Config::default());
    let perm = sol.giant_tour(&inst);
    assert_eq!(perm.len(), inst.n_customers() + inst.max_vehicles() + 1);
    assert_eq!(perm[0], 0);
    assert_eq!(*perm.last().expect("non-empty"), 0);
    // f2 from the string, as defined in the paper.
    let f2_from_string = perm.windows(2).filter(|w| w[0] == 0 && w[1] > 0).count();
    assert_eq!(f2_from_string, sol.evaluate(&inst).vehicles);
    // Round trip.
    let back = Solution::from_giant_tour(&inst, &perm).expect("valid");
    assert_eq!(back, sol);
}

/// §II.A's argument: in Euclidean space, merging two routes (fewer
/// vehicles) cannot lengthen the total tour — removing a depot round trip
/// and splicing by the triangle inequality shortens (or preserves) f1.
#[test]
fn merging_routes_never_lengthens_in_euclidean_space() {
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 17).build());
    let sol = Solution::one_customer_per_route(&inst);
    // Merge routes pairwise by concatenation: f1 must not increase.
    let before = sol.evaluate(&inst);
    let mut merged: Vec<Vec<u16>> = Vec::new();
    let mut it = sol.routes().iter();
    while let Some(a) = it.next() {
        let mut r = a.clone();
        if let Some(b) = it.next() {
            r.extend_from_slice(b);
        }
        merged.push(r);
    }
    let merged = Solution::from_routes(merged);
    let after = merged.evaluate(&inst);
    assert!(after.vehicles < before.vehicles);
    assert!(
        after.distance <= before.distance + 1e-9,
        "triangle inequality: {} should be <= {}",
        after.distance,
        before.distance
    );
}

/// The search optimizes all three objectives: starting from a
/// deliberately bad (high-tardiness) region, the archive must contain
/// time-feasible solutions on a relaxed instance.
#[test]
fn search_recovers_time_feasibility_on_relaxed_instances() {
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 40, 23).build());
    let out = ParallelVariant::Sequential.run(&inst, &cfg(6_000).with_seed(2));
    assert!(
        !out.feasible_front().is_empty(),
        "large-window instances must yield feasible archive members"
    );
}

/// Async and collaborative runs also respect the permutation invariant
/// under concurrency (no lost/duplicated customers through the channels).
#[test]
fn concurrent_variants_preserve_permutation_invariant() {
    let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 40, 31).build());
    for variant in [
        ParallelVariant::Asynchronous(4),
        ParallelVariant::Collaborative(4),
    ] {
        let out = variant.run(&inst, &cfg(2_500));
        assert!(!out.archive.is_empty());
        for e in &out.archive {
            assert!(e.solution.check(&inst).is_empty(), "{variant:?}");
        }
    }
}

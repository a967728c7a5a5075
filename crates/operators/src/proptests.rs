//! Property-based tests over randomly generated instances and solutions:
//! the operator layer must never break the permutation invariant, the
//! incremental preview must always agree with a from-scratch evaluation,
//! and the splice arcs must agree with the `arc_delta` oracle.

use crate::descent::enumerate_moves;
use crate::feasibility::arc_feasible;
use crate::moves::{Arc, Move, OperatorKind};
use crate::sample::{sample_move, sample_of_kind, SampleParams};
use detrand::{Rng, Xoshiro256StarStar};
use proptest::prelude::*;
use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::solution::EvaluatedSolution;
use vrptw::{Instance, Solution};

/// Builds a random (structurally valid) solution by dealing customers into
/// `k` routes in shuffled order.
fn random_solution(inst: &Instance, k: usize, seed: u64) -> Solution {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut customers: Vec<u16> = inst.customers().collect();
    rng.shuffle(&mut customers);
    let k = k.clamp(1, inst.max_vehicles());
    let mut routes: Vec<Vec<u16>> = vec![Vec::new(); k];
    for (i, c) in customers.into_iter().enumerate() {
        routes[i % k].push(c);
    }
    Solution::from_routes(routes)
}

/// Deals customers into `k` routes of uneven length: one customer per
/// route first, then the rest to routes drawn at random, so short and
/// single-customer routes are common.
fn ragged_solution(inst: &Instance, k: usize, seed: u64) -> Solution {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut customers: Vec<u16> = inst.customers().collect();
    rng.shuffle(&mut customers);
    let k = k.clamp(1, inst.max_vehicles()).min(customers.len());
    let mut routes: Vec<Vec<u16>> = vec![Vec::new(); k];
    for (i, c) in customers.into_iter().enumerate() {
        let r = if i < k { i } else { rng.index(k) };
        routes[r].push(c);
    }
    Solution::from_routes(routes)
}

/// `a` and `b` hold the same arcs, counted with multiplicity.
fn same_multiset(mut a: Vec<Arc>, mut b: Vec<Arc>) -> bool {
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

/// The filter as the oracle states it: every created arc is feasible.
fn oracle_feasible(inst: &Instance, ev: &EvaluatedSolution, mv: &Move) -> bool {
    mv.arcs_created(ev)
        .iter()
        .all(|&(u, v)| arc_feasible(inst, u, v))
}

fn class_from(idx: u8) -> InstanceClass {
    InstanceClass::ALL[idx as usize % InstanceClass::ALL.len()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any chain of sampled moves preserves the permutation invariant.
    #[test]
    fn move_chains_preserve_permutation(
        class_idx in 0u8..6,
        n in 8usize..40,
        k in 2usize..6,
        seed in 0u64..1_000,
        chain_len in 1usize..30,
    ) {
        let inst = GeneratorConfig::new(class_from(class_idx), n, seed).build();
        let sol = random_solution(&inst, k, seed ^ 0xABCD);
        prop_assert!(sol.check(&inst).is_empty());
        let mut ev = EvaluatedSolution::new(sol, &inst);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed.wrapping_add(17));
        let mut applied = 0;
        let mut attempts = 0;
        while applied < chain_len && attempts < chain_len * 50 {
            attempts += 1;
            if let Some(c) = sample_move(&mut rng, &inst, &ev, SampleParams::default()) {
                ev.apply(&inst, c.patch);
                applied += 1;
                prop_assert!(ev.solution().check(&inst).is_empty());
            }
        }
    }

    /// The incremental preview of every sampled candidate equals a full
    /// re-evaluation of the patched solution.
    #[test]
    fn preview_agrees_with_full_evaluation(
        class_idx in 0u8..6,
        n in 8usize..40,
        k in 2usize..6,
        seed in 0u64..1_000,
    ) {
        let inst = GeneratorConfig::new(class_from(class_idx), n, seed).build();
        let sol = random_solution(&inst, k, seed ^ 0x1234);
        let ev = EvaluatedSolution::new(sol, &inst);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed.wrapping_add(99));
        for _ in 0..40 {
            if let Some(c) = sample_move(&mut rng, &inst, &ev, SampleParams::default()) {
                let mut applied = ev.clone();
                applied.apply(&inst, c.patch.clone());
                let full = applied.solution().evaluate(&inst);
                prop_assert!((c.preview.objectives.distance - full.distance).abs() < 1e-6,
                    "distance mismatch for {:?}", c.mv);
                prop_assert_eq!(c.preview.objectives.vehicles, full.vehicles);
                prop_assert!((c.preview.objectives.tardiness - full.tardiness).abs() < 1e-6,
                    "tardiness mismatch for {:?}", c.mv);
            }
        }
    }

    /// Applying a move and then checking arc bookkeeping: every arc the move
    /// reports as created is present afterwards, every arc reported removed
    /// is gone (as a multiset over the touched routes).
    #[test]
    fn arc_delta_is_consistent_with_application(
        n in 8usize..30,
        k in 2usize..5,
        seed in 0u64..500,
    ) {
        let inst = GeneratorConfig::new(InstanceClass::R2, n, seed).build();
        let sol = random_solution(&inst, k, seed ^ 0x77);
        let ev = EvaluatedSolution::new(sol, &inst);
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed.wrapping_add(5));
        for _ in 0..20 {
            if let Some(c) = sample_move(&mut rng, &inst, &ev, SampleParams::default()) {
                let created = c.mv.arcs_created(&ev);
                let removed = c.mv.arcs_removed(&ev);
                // No arc may appear on both sides.
                for arc in &created {
                    prop_assert!(!removed.contains(arc),
                        "arc {:?} both created and removed by {:?}", arc, c.mv);
                }
                let mut applied = ev.clone();
                applied.apply(&inst, c.patch.clone());
                let all_arcs = |e: &EvaluatedSolution| -> Vec<(u16, u16)> {
                    let mut arcs = Vec::new();
                    for i in 0..e.n_routes() {
                        let r = e.route(i);
                        arcs.push((0, r[0]));
                        for w in r.windows(2) { arcs.push((w[0], w[1])); }
                        arcs.push((r[r.len()-1], 0));
                    }
                    arcs
                };
                let after = all_arcs(&applied);
                for arc in &created {
                    prop_assert!(after.contains(arc),
                        "created arc {:?} missing after {:?}", arc, c.mv);
                }
                let before = all_arcs(&ev);
                for arc in &removed {
                    prop_assert!(before.contains(arc));
                }
            }
        }
    }

    /// Round-trip: every reachable solution encodes to a giant tour of
    /// length N+R+1 and decodes back to itself.
    #[test]
    fn giant_tour_roundtrip_over_random_solutions(
        class_idx in 0u8..6,
        n in 5usize..50,
        k in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let inst = GeneratorConfig::new(class_from(class_idx), n, seed).build();
        let sol = random_solution(&inst, k, seed);
        let tour = sol.giant_tour(&inst);
        prop_assert_eq!(tour.len(), inst.n_customers() + inst.max_vehicles() + 1);
        let back = Solution::from_giant_tour(&inst, &tour).unwrap();
        prop_assert_eq!(back, sol);
    }

    /// Every enumerated move of every operator — adjacent positions,
    /// positions 0 and `len`, single-customer routes a relocate or a
    /// 2-opt* empties, whole-route 2-opts — has splice arcs equal to the
    /// oracle's as multisets, and the allocation-free filter accepts it
    /// exactly when every oracle-created arc is feasible.
    #[test]
    fn splice_delta_matches_arc_delta_on_every_move(
        class_idx in 0u8..6,
        n in 6usize..24,
        k in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let inst = GeneratorConfig::new(class_from(class_idx), n, seed).build();
        let ev = EvaluatedSolution::new(ragged_solution(&inst, k, seed ^ 0x5EED), &inst);
        for mv in enumerate_moves(&ev) {
            let (removed, created) = mv.splice_delta(&ev);
            let (oracle_removed, oracle_created) = mv.arc_delta(&ev);
            prop_assert!(same_multiset(removed.clone(), oracle_removed.clone()),
                "removed arcs of {:?}: {:?} vs oracle {:?}", mv, removed, oracle_removed);
            prop_assert!(same_multiset(created.clone(), oracle_created.clone()),
                "created arcs of {:?}: {:?} vs oracle {:?}", mv, created, oracle_created);
            prop_assert_eq!(mv.splice_feasible(&inst, &ev), oracle_feasible(&inst, &ev, &mv),
                "filter disagrees with the oracle on {:?}", mv);
        }
    }

    /// The sampler draws the same move with the filter on and off (the
    /// filter consumes no randomness); with it on, it keeps exactly the
    /// draws whose oracle-created arcs are all feasible, for every
    /// operator, and the kept moves' arcs match the oracle.
    #[test]
    fn sampler_filter_matches_the_oracle_loop(
        class_idx in 0u8..6,
        n in 6usize..66,
        k in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let inst = GeneratorConfig::new(class_from(class_idx), n, seed).build();
        let ev = EvaluatedSolution::new(ragged_solution(&inst, k, seed ^ 0xF117), &inst);
        let on = SampleParams { feasibility: true };
        let off = SampleParams { feasibility: false };
        for kind in OperatorKind::ALL {
            let mut rng_on = Xoshiro256StarStar::seed_from_u64(seed.wrapping_add(3));
            let mut rng_off = rng_on.clone();
            for _ in 0..60 {
                let kept = sample_of_kind(&mut rng_on, &inst, &ev, kind, on);
                let drawn = sample_of_kind(&mut rng_off, &inst, &ev, kind, off);
                let expected = drawn.filter(|c| oracle_feasible(&inst, &ev, &c.mv));
                prop_assert_eq!(kept.as_ref().map(|c| c.mv), expected.as_ref().map(|c| c.mv));
                if let Some(c) = kept {
                    let (removed, created) = c.mv.splice_delta(&ev);
                    let (oracle_removed, oracle_created) = c.mv.arc_delta(&ev);
                    prop_assert!(same_multiset(removed, oracle_removed), "{:?}", c.mv);
                    prop_assert!(same_multiset(created, oracle_created), "{:?}", c.mv);
                }
            }
        }
    }
}

//! Property-based tests of the multiobjective machinery.

use pareto::{
    compare, coverage, crowding_distances, dominates, hypervolume_2d, hypervolume_3d,
    non_dominated_indices, Archive, DomRelation, ParetoFront,
};
use proptest::prelude::*;

fn objective_vec(d: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..100.0, d)
}

fn point_cloud(d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(objective_vec(d), 1..60)
}

proptest! {
    /// Dominance is a strict partial order: irreflexive, asymmetric,
    /// transitive.
    #[test]
    fn dominance_is_a_strict_partial_order(
        a in objective_vec(3),
        b in objective_vec(3),
        c in objective_vec(3),
    ) {
        prop_assert!(!dominates(&a, &a));
        if dominates(&a, &b) {
            prop_assert!(!dominates(&b, &a));
        }
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c));
        }
    }

    /// `compare` is antisymmetric: swapping arguments swaps the relation.
    #[test]
    fn compare_is_antisymmetric(a in objective_vec(3), b in objective_vec(3)) {
        let fwd = compare(&a, &b);
        let bwd = compare(&b, &a);
        let expected = match fwd {
            DomRelation::Dominates => DomRelation::DominatedBy,
            DomRelation::DominatedBy => DomRelation::Dominates,
            other => other,
        };
        prop_assert_eq!(bwd, expected);
    }

    /// A front built from any stream is mutually non-dominated and every
    /// rejected point is weakly dominated by some member.
    #[test]
    fn front_invariants(points in point_cloud(2)) {
        let mut front = ParetoFront::new();
        for p in &points {
            front.insert(p.clone());
        }
        let nd = non_dominated_indices(front.items());
        prop_assert_eq!(nd.len(), front.len());
        for p in &points {
            let covered = front
                .items()
                .iter()
                .any(|m| !dominates(p, m));
            prop_assert!(covered, "front lost ground against {:?}", p);
            prop_assert!(!front.would_accept(p) || front.items().iter().all(|m| m != p));
        }
    }

    /// Archives never exceed capacity and stay mutually non-dominated.
    #[test]
    fn archive_invariants(points in point_cloud(3), cap in 1usize..10) {
        let mut archive = Archive::new(cap);
        for p in points {
            archive.insert(p);
            prop_assert!(archive.len() <= cap);
            let nd = non_dominated_indices(archive.items());
            prop_assert_eq!(nd.len(), archive.len());
        }
    }

    /// `insert_with` is `insert` with the candidate built late: over a 3-D
    /// stream on a coarse grid (duplicates and dominance both occur) at
    /// capacities small enough that crowding truncation fires, it returns
    /// what `insert` returns, leaves the same members in the same order,
    /// and builds exactly the candidates no member dominates or equals.
    #[test]
    fn insert_with_matches_insert(
        grid in prop::collection::vec(prop::collection::vec(0u32..12, 3), 1..80),
        cap in 2usize..7,
    ) {
        let mut eager: Archive<Vec<f64>> = Archive::new(cap);
        let mut lazy: Archive<Vec<f64>> = Archive::new(cap);
        for g in grid {
            let p: Vec<f64> = g.iter().map(|&x| f64::from(x)).collect();
            let survives = lazy
                .items()
                .iter()
                .all(|m| !matches!(compare(m, &p), DomRelation::Dominates | DomRelation::Equal));
            let mut builds = 0;
            let added = lazy.insert_with(&p, || {
                builds += 1;
                p.clone()
            });
            prop_assert_eq!(added, eager.insert(p.clone()));
            prop_assert_eq!(builds, usize::from(survives));
            prop_assert_eq!(lazy.items(), eager.items());
        }
    }

    /// Insertion order cannot change which points a front considers
    /// non-dominated (set equality of surviving objective vectors).
    #[test]
    fn front_is_order_independent(points in point_cloud(2)) {
        let forward: ParetoFront<Vec<f64>> = points.iter().cloned().collect();
        let reverse: ParetoFront<Vec<f64>> = points.iter().rev().cloned().collect();
        let norm = |f: &ParetoFront<Vec<f64>>| {
            let mut v: Vec<Vec<f64>> = f.items().to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).expect("not NaN"));
            v
        };
        prop_assert_eq!(norm(&forward), norm(&reverse));
    }

    /// Coverage is reflexive (C(A,A) = 1) and bounded.
    #[test]
    fn coverage_properties(a in point_cloud(3), b in point_cloud(3)) {
        prop_assert_eq!(coverage(&a, &a), 1.0);
        let c = coverage(&a, &b);
        prop_assert!((0.0..=1.0).contains(&c));
    }

    /// Hypervolume is monotone: adding a point never decreases it, and it
    /// is bounded by the reference box volume.
    #[test]
    fn hypervolume_monotone_2d(points in point_cloud(2), extra in objective_vec(2)) {
        let reference = [110.0, 110.0];
        let before = hypervolume_2d(&points, reference);
        let mut more = points.clone();
        more.push(extra);
        let after = hypervolume_2d(&more, reference);
        prop_assert!(after + 1e-9 >= before);
        prop_assert!(after <= 110.0 * 110.0 + 1e-9);
    }

    /// 3-D hypervolume agrees with 2-D when the third coordinate is flat.
    #[test]
    fn hypervolume_3d_flat_slice(points in point_cloud(2)) {
        let reference3 = [110.0, 110.0, 1.0];
        let flat: Vec<Vec<f64>> =
            points.iter().map(|p| vec![p[0], p[1], 0.0]).collect();
        let hv3 = hypervolume_3d(&flat, reference3);
        let hv2 = hypervolume_2d(&points, [110.0, 110.0]);
        prop_assert!((hv3 - hv2).abs() < 1e-6, "hv3 {} vs hv2 {}", hv3, hv2);
    }

    /// Crowding distances: boundary maxima/minima per objective are always
    /// infinite when there are 3+ points.
    #[test]
    fn crowding_boundaries(points in prop::collection::vec(objective_vec(2), 3..40)) {
        let d = crowding_distances(&points);
        for m in 0..2 {
            let lo = (0..points.len())
                .min_by(|&a, &b| points[a][m].partial_cmp(&points[b][m]).expect("not NaN"))
                .expect("non-empty");
            let hi = (0..points.len())
                .max_by(|&a, &b| points[a][m].partial_cmp(&points[b][m]).expect("not NaN"))
                .expect("non-empty");
            prop_assert!(d[lo].is_infinite());
            prop_assert!(d[hi].is_infinite());
        }
    }
}

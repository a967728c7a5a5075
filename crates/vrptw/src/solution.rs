//! Solution representation: route lists and the paper's giant permutation.
//!
//! The paper encodes a solution as one permutation string of length
//! `L = N + R + 1`: every tour starts and ends at the depot (`0`), tours are
//! concatenated with consecutive zeros merged, and one trailing `0` is
//! appended per unused vehicle (§II.A). Internally we store the equivalent
//! list of non-empty routes, which is what the neighborhood operators
//! manipulate; [`Solution::giant_tour`] and [`Solution::from_giant_tour`]
//! convert losslessly between the two forms.

use crate::eval::{evaluate_route, Objectives, RouteEval};
use crate::model::{Instance, SiteId, DEPOT};

/// How far a reported objective may lie from its re-simulated value.
pub const OBJECTIVE_TOLERANCE: f64 = 1e-6;

/// A CVRPTW solution: the customer sequences of the deployed vehicles.
///
/// Only non-empty routes are stored; `R − routes.len()` vehicles implicitly
/// stay at the depot. All constructors and mutators preserve the permutation
/// invariant (every customer appears exactly once across all routes).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Solution {
    routes: Vec<Vec<SiteId>>,
}

impl Solution {
    /// Creates a solution from explicit routes.
    ///
    /// # Panics
    /// Panics (in debug builds and via [`Solution::check`] in tests) only
    /// lazily; use [`Solution::check`] to validate eagerly.
    pub fn from_routes(routes: Vec<Vec<SiteId>>) -> Self {
        let routes: Vec<Vec<SiteId>> = routes.into_iter().filter(|r| !r.is_empty()).collect();
        Self { routes }
    }

    /// The trivial solution deploying one vehicle per customer.
    ///
    /// Only valid when `R ≥ N`; callers on tighter instances should use a
    /// construction heuristic instead.
    pub fn one_customer_per_route(inst: &Instance) -> Self {
        Self {
            routes: inst.customers().map(|c| vec![c]).collect(),
        }
    }

    /// The deployed (non-empty) routes.
    #[inline]
    pub fn routes(&self) -> &[Vec<SiteId>] {
        &self.routes
    }

    /// Number of deployed vehicles (`f2`).
    #[inline]
    pub fn n_deployed(&self) -> usize {
        self.routes.len()
    }

    /// Evaluates the three objectives from scratch.
    pub fn evaluate(&self, inst: &Instance) -> Objectives {
        self.routes
            .iter()
            .map(|r| evaluate_route(inst, r).objectives(true))
            .fold(Objectives::ZERO, |a, b| a + b)
    }

    /// Verifies the permutation invariant against an instance.
    ///
    /// Returns human-readable violations; empty means the solution is a
    /// valid member of the search space (feasibility w.r.t. time windows is
    /// a separate, soft question).
    pub fn check(&self, inst: &Instance) -> Vec<String> {
        let mut problems = Vec::new();
        if self.routes.len() > inst.max_vehicles() {
            problems.push(format!(
                "{} routes deployed but only {} vehicles available",
                self.routes.len(),
                inst.max_vehicles()
            ));
        }
        let mut seen = vec![false; inst.n_sites()];
        for (ri, route) in self.routes.iter().enumerate() {
            if route.is_empty() {
                problems.push(format!("route {ri} is empty (must be dropped)"));
            }
            for &c in route {
                if c == DEPOT || (c as usize) >= inst.n_sites() {
                    problems.push(format!("route {ri} contains invalid site {c}"));
                } else if seen[c as usize] {
                    problems.push(format!("customer {c} visited more than once"));
                } else {
                    seen[c as usize] = true;
                }
            }
        }
        for c in inst.customers() {
            if !seen[c as usize] {
                problems.push(format!("customer {c} is not visited"));
            }
        }
        problems
    }

    /// Checks a solution received from elsewhere against the objectives
    /// reported for it: it must pass [`Self::check`], and each objective
    /// must re-simulate within [`OBJECTIVE_TOLERANCE`] (a NaN never does).
    pub fn verify(&self, inst: &Instance, reported: [f64; 3]) -> Result<(), String> {
        if let Some(problem) = self.check(inst).into_iter().next() {
            return Err(problem);
        }
        let actual = self.evaluate(inst).to_vector();
        let agree = |(a, r): (&f64, &f64)| (a - r).abs() <= OBJECTIVE_TOLERANCE;
        if actual.iter().zip(&reported).all(agree) {
            Ok(())
        } else {
            Err(format!(
                "objectives {reported:?} do not re-simulate (actual {actual:?})"
            ))
        }
    }

    /// Encodes the paper's permutation string of length `N + R + 1`.
    pub fn giant_tour(&self, inst: &Instance) -> Vec<SiteId> {
        let len = inst.n_customers() + inst.max_vehicles() + 1;
        let mut out = Vec::with_capacity(len);
        out.push(DEPOT);
        for route in &self.routes {
            out.extend_from_slice(route);
            out.push(DEPOT);
        }
        out.resize(len, DEPOT);
        out
    }

    /// Returns the solution resulting from `patch`, without evaluating it.
    ///
    /// Used to materialize chosen neighbors cheaply; the patch must have
    /// been built against this solution's route order.
    ///
    /// # Panics
    /// Panics if a replacement index is out of range.
    pub fn patched(&self, patch: &RoutePatch) -> Solution {
        let mut routes = self.routes.clone();
        for (i, new_route) in &patch.replace {
            routes[*i] = new_route.clone();
        }
        routes.extend(patch.append.iter().cloned());
        Solution::from_routes(routes)
    }

    /// Decodes a permutation string produced by [`Solution::giant_tour`]
    /// (or hand-written in the same format).
    ///
    /// # Errors
    /// Returns a description of the first structural problem: wrong length,
    /// not starting/ending at the depot, too many tours, or not being a
    /// permutation of the customers.
    pub fn from_giant_tour(inst: &Instance, perm: &[SiteId]) -> Result<Self, String> {
        let expected = inst.n_customers() + inst.max_vehicles() + 1;
        if perm.len() != expected {
            return Err(format!(
                "permutation length {} != N+R+1 = {}",
                perm.len(),
                expected
            ));
        }
        if perm.first() != Some(&DEPOT) || perm.last() != Some(&DEPOT) {
            return Err("permutation must start and end at the depot".into());
        }
        let mut routes = Vec::new();
        let mut current: Vec<SiteId> = Vec::new();
        for &s in &perm[1..] {
            if s == DEPOT {
                if !current.is_empty() {
                    routes.push(std::mem::take(&mut current));
                }
            } else {
                current.push(s);
            }
        }
        if !current.is_empty() {
            return Err("permutation does not end at the depot".into());
        }
        let sol = Self { routes };
        let problems = sol.check(inst);
        if let Some(p) = problems.first() {
            return Err(p.clone());
        }
        Ok(sol)
    }
}

/// A batch of route edits, the unit in which neighborhood operators express
/// their effect: replace some existing routes and/or open new ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoutePatch {
    /// `(route index, new customer sequence)`; an empty sequence deletes the
    /// route (the vehicle returns to the pool).
    pub replace: Vec<(usize, Vec<SiteId>)>,
    /// Newly opened routes (must respect the vehicle limit at apply time).
    pub append: Vec<Vec<SiteId>>,
}

/// The evaluation of a hypothetical patched solution, computed without
/// materializing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Preview {
    /// The three paper objectives of the patched solution.
    pub objectives: Objectives,
    /// Worst per-route capacity excess among the *changed* routes; the
    /// operators' local feasibility criterion rejects positive values.
    pub capacity_excess: f64,
}

/// A solution together with cached per-route evaluations and aggregated
/// objectives, enabling O(changed routes) re-evaluation of neighbors.
#[derive(Debug, Clone)]
pub struct EvaluatedSolution {
    solution: Solution,
    route_evals: Vec<RouteEval>,
    objectives: Objectives,
}

impl EvaluatedSolution {
    /// Evaluates all routes of `solution` once and caches the results.
    pub fn new(solution: Solution, inst: &Instance) -> Self {
        let route_evals: Vec<RouteEval> = solution
            .routes
            .iter()
            .map(|r| evaluate_route(inst, r))
            .collect();
        let objectives = route_evals
            .iter()
            .map(|e| e.objectives(true))
            .fold(Objectives::ZERO, |a, b| a + b);
        Self {
            solution,
            route_evals,
            objectives,
        }
    }

    /// The underlying solution.
    #[inline]
    pub fn solution(&self) -> &Solution {
        &self.solution
    }

    /// The cached objectives.
    #[inline]
    pub fn objectives(&self) -> Objectives {
        self.objectives
    }

    /// The cached evaluation of route `i`.
    #[inline]
    pub fn route_eval(&self, i: usize) -> &RouteEval {
        &self.route_evals[i]
    }

    /// The customer sequence of route `i`.
    #[inline]
    pub fn route(&self, i: usize) -> &[SiteId] {
        &self.solution.routes[i]
    }

    /// Number of deployed routes.
    #[inline]
    pub fn n_routes(&self) -> usize {
        self.solution.routes.len()
    }

    /// Evaluates the solution that would result from `patch`, touching only
    /// the changed routes. This is the hot path of neighborhood evaluation.
    ///
    /// # Panics
    /// Panics if a replacement index is out of range or listed twice.
    pub fn preview(&self, inst: &Instance, patch: &RoutePatch) -> Preview {
        let mut objectives = self.objectives;
        let mut capacity_excess = 0.0f64;
        debug_assert!(
            {
                let mut idx: Vec<usize> = patch.replace.iter().map(|(i, _)| *i).collect();
                idx.sort_unstable();
                idx.windows(2).all(|w| w[0] != w[1])
            },
            "a route may be replaced at most once per patch"
        );
        for (i, new_route) in &patch.replace {
            let old = &self.route_evals[*i];
            objectives.distance -= old.distance;
            objectives.tardiness -= old.tardiness;
            objectives.vehicles -= 1; // stored routes are always non-empty
            if !new_route.is_empty() {
                let e = evaluate_route(inst, new_route);
                objectives.distance += e.distance;
                objectives.tardiness += e.tardiness;
                objectives.vehicles += 1;
                capacity_excess = capacity_excess.max(e.capacity_excess);
            }
        }
        for new_route in &patch.append {
            if !new_route.is_empty() {
                let e = evaluate_route(inst, new_route);
                objectives.distance += e.distance;
                objectives.tardiness += e.tardiness;
                objectives.vehicles += 1;
                capacity_excess = capacity_excess.max(e.capacity_excess);
            }
        }
        Preview {
            objectives,
            capacity_excess,
        }
    }

    /// Applies `patch`, re-evaluating the changed routes and dropping any
    /// routes that became empty.
    ///
    /// # Panics
    /// Panics if the patch would exceed the vehicle limit or replaces an
    /// out-of-range route.
    pub fn apply(&mut self, inst: &Instance, patch: RoutePatch) {
        for (i, new_route) in patch.replace {
            self.solution.routes[i] = new_route;
            self.route_evals[i] = evaluate_route(inst, &self.solution.routes[i]);
        }
        for new_route in patch.append {
            if new_route.is_empty() {
                continue;
            }
            self.route_evals.push(evaluate_route(inst, &new_route));
            self.solution.routes.push(new_route);
        }
        // Drop emptied routes, keeping evals aligned.
        let mut i = 0;
        while i < self.solution.routes.len() {
            if self.solution.routes[i].is_empty() {
                self.solution.routes.swap_remove(i);
                self.route_evals.swap_remove(i);
            } else {
                i += 1;
            }
        }
        assert!(
            self.solution.routes.len() <= inst.max_vehicles(),
            "patch exceeded the vehicle limit"
        );
        self.objectives = self
            .route_evals
            .iter()
            .map(|e| e.objectives(true))
            .fold(Objectives::ZERO, |a, b| a + b);
    }

    /// Consumes the wrapper, returning the plain solution.
    pub fn into_solution(self) -> Solution {
        self.solution
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Instance {
        Instance::tiny()
    }

    #[test]
    fn verify_accepts_honest_objectives_and_nothing_else() {
        let inst = tiny();
        let sol = Solution::from_routes(vec![vec![1, 2], vec![3, 4]]);
        let honest = sol.evaluate(&inst).to_vector();
        assert_eq!(sol.verify(&inst, honest), Ok(()));
        let mut near = honest;
        near[0] += OBJECTIVE_TOLERANCE / 2.0;
        assert_eq!(sol.verify(&inst, near), Ok(()), "within tolerance");
        for lie in [[0.0, 0.0, 0.0], [honest[0], f64::NAN, honest[2]]] {
            assert!(sol.verify(&inst, lie).is_err(), "{lie:?} accepted");
        }
        let off_map = Solution::from_routes(vec![vec![1, 2, 3, 4, 99]]);
        assert!(off_map.verify(&inst, honest).is_err());
    }

    #[test]
    fn paper_example_encoding() {
        // The paper's example: 4 customers, 5 vehicles, tours [4,2],[3],[1]
        // => P = (0, 4, 2, 0, 3, 0, 1, 0, 0, 0).
        let depot = crate::Customer {
            x: 0.0,
            y: 0.0,
            demand: 0.0,
            ready: 0.0,
            due: 1e4,
            service: 0.0,
        };
        let c = |x: f64| crate::Customer {
            x,
            y: 1.0,
            demand: 1.0,
            ready: 0.0,
            due: 1e4,
            service: 0.0,
        };
        let inst = Instance::new(
            "paper",
            vec![depot, c(1.0), c(2.0), c(3.0), c(4.0)],
            100.0,
            5,
        );
        let sol = Solution::from_routes(vec![vec![4, 2], vec![3], vec![1]]);
        assert_eq!(sol.giant_tour(&inst), vec![0, 4, 2, 0, 3, 0, 1, 0, 0, 0]);
        let round = Solution::from_giant_tour(&inst, &sol.giant_tour(&inst)).unwrap();
        assert_eq!(round, sol);
    }

    #[test]
    fn giant_tour_length_is_always_n_plus_r_plus_1() {
        let inst = tiny();
        for sol in [
            Solution::from_routes(vec![vec![1, 2, 3, 4]]),
            Solution::from_routes(vec![vec![1], vec![2], vec![3, 4]]),
        ] {
            assert_eq!(sol.giant_tour(&inst).len(), 4 + 3 + 1);
        }
    }

    #[test]
    fn from_giant_tour_rejects_garbage() {
        let inst = tiny();
        // Wrong length.
        assert!(Solution::from_giant_tour(&inst, &[0, 1, 2, 3, 4, 0]).is_err());
        // Doesn't start with depot.
        assert!(Solution::from_giant_tour(&inst, &[1, 0, 2, 0, 3, 0, 4, 0]).is_err());
        // Missing customer 4, customer 1 twice.
        assert!(Solution::from_giant_tour(&inst, &[0, 1, 1, 0, 2, 0, 3, 0]).is_err());
        // Valid one for reference: N+R+1 = 8.
        assert!(Solution::from_giant_tour(&inst, &[0, 1, 2, 0, 3, 0, 4, 0]).is_ok());
    }

    #[test]
    fn check_catches_all_violation_kinds() {
        let inst = tiny();
        let missing = Solution::from_routes(vec![vec![1, 2]]);
        assert!(missing
            .check(&inst)
            .iter()
            .any(|p| p.contains("not visited")));
        let duped = Solution::from_routes(vec![vec![1, 2], vec![2, 3, 4]]);
        assert!(duped
            .check(&inst)
            .iter()
            .any(|p| p.contains("more than once")));
        let too_many = Solution::from_routes(vec![vec![1], vec![2], vec![3], vec![4]]);
        assert!(too_many
            .check(&inst)
            .iter()
            .any(|p| p.contains("vehicles available")));
        let ok = Solution::from_routes(vec![vec![1, 2], vec![3, 4]]);
        assert!(ok.check(&inst).is_empty());
    }

    #[test]
    fn evaluate_sums_routes() {
        let inst = tiny();
        let sol = Solution::from_routes(vec![vec![1], vec![2], vec![3]]);
        // This leaves customer 4 unvisited (invalid as a solution), but
        // evaluation is structural: 3 out-and-back routes of length 20.
        let o = sol.evaluate(&inst);
        assert_eq!(o.distance, 60.0);
        assert_eq!(o.vehicles, 3);
        assert_eq!(o.tardiness, 0.0);
    }

    #[test]
    fn preview_matches_full_reevaluation() {
        let inst = tiny();
        let base = Solution::from_routes(vec![vec![1, 2], vec![3, 4]]);
        let ev = EvaluatedSolution::new(base, &inst);
        // Move customer 2 from route 0 to route 1.
        let patch = RoutePatch {
            replace: vec![(0, vec![1]), (1, vec![3, 2, 4])],
            append: vec![],
        };
        let preview = ev.preview(&inst, &patch);
        let target = Solution::from_routes(vec![vec![1], vec![3, 2, 4]]);
        let full = target.evaluate(&inst);
        assert!((preview.objectives.distance - full.distance).abs() < 1e-9);
        assert_eq!(preview.objectives.vehicles, full.vehicles);
        assert!((preview.objectives.tardiness - full.tardiness).abs() < 1e-9);
    }

    #[test]
    fn preview_counts_emptied_and_new_routes() {
        let inst = tiny();
        let ev = EvaluatedSolution::new(Solution::from_routes(vec![vec![1, 2], vec![3, 4]]), &inst);
        // Empty route 0, open a new route with customer 1, keep 2 in route 1.
        let patch = RoutePatch {
            replace: vec![(0, vec![]), (1, vec![3, 4, 2])],
            append: vec![vec![1]],
        };
        let p = ev.preview(&inst, &patch);
        assert_eq!(p.objectives.vehicles, 2);
        let target = Solution::from_routes(vec![vec![3, 4, 2], vec![1]]);
        assert!((p.objectives.distance - target.evaluate(&inst).distance).abs() < 1e-9);
    }

    #[test]
    fn apply_matches_preview_and_purges_empties() {
        let inst = tiny();
        let mut ev =
            EvaluatedSolution::new(Solution::from_routes(vec![vec![1, 2], vec![3, 4]]), &inst);
        let patch = RoutePatch {
            replace: vec![(0, vec![]), (1, vec![3, 4, 2, 1])],
            append: vec![],
        };
        let preview = ev.preview(&inst, &patch);
        ev.apply(&inst, patch);
        assert_eq!(ev.objectives(), preview.objectives);
        assert_eq!(ev.n_routes(), 1);
        assert!(ev.solution().check(&inst).is_empty());
        // Cached evals stay consistent with a fresh evaluation.
        let fresh = EvaluatedSolution::new(ev.solution().clone(), &inst);
        assert!((fresh.objectives().distance - ev.objectives().distance).abs() < 1e-9);
    }

    #[test]
    fn patched_matches_apply() {
        let inst = tiny();
        let base = Solution::from_routes(vec![vec![1, 2], vec![3, 4]]);
        let patch = RoutePatch {
            replace: vec![(0, vec![]), (1, vec![3, 4, 2])],
            append: vec![vec![1]],
        };
        let light = base.patched(&patch);
        let mut heavy = EvaluatedSolution::new(base, &inst);
        heavy.apply(&inst, patch);
        // Same multiset of routes (ordering may differ due to swap_remove).
        let mut a: Vec<_> = light.routes().to_vec();
        let mut b: Vec<_> = heavy.solution().routes().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert!(light.check(&inst).is_empty());
    }

    #[test]
    fn capacity_excess_reported_in_preview() {
        let inst = tiny(); // capacity 10, demands 4 each
        let ev = EvaluatedSolution::new(Solution::from_routes(vec![vec![1, 2], vec![3, 4]]), &inst);
        let patch = RoutePatch {
            replace: vec![(0, vec![1, 2, 3])],
            append: vec![],
        };
        let p = ev.preview(&inst, &patch);
        assert_eq!(p.capacity_excess, 2.0);
    }
}

//! Run results: the archive front and run statistics.

use crate::trace::Trace;
use vrptw::{Instance, Objectives, Solution};

/// One member of a Pareto front: solution plus cached objective vector.
#[derive(Debug, Clone)]
pub struct FrontEntry {
    /// The solution.
    pub solution: Solution,
    /// Its objectives.
    pub objectives: Objectives,
    /// `objectives` as the minimization vector `[f1, f2, f3]`.
    vector: [f64; 3],
}

impl FrontEntry {
    /// Wraps a solution with its objectives.
    pub fn new(solution: Solution, objectives: Objectives) -> Self {
        Self {
            solution,
            objectives,
            vector: objectives.to_vector(),
        }
    }

    /// Evaluates `solution` on `inst` and wraps it with the result.
    pub fn evaluated(solution: Solution, inst: &Instance) -> Self {
        let objectives = solution.evaluate(inst);
        Self::new(solution, objectives)
    }

    /// The objectives as the minimization vector `[f1, f2, f3]`.
    pub fn vector(&self) -> &[f64; 3] {
        &self.vector
    }
}

impl pareto::Dominance for FrontEntry {
    fn objectives(&self) -> &[f64] {
        &self.vector
    }
}

/// Checks a front against `inst`: every entry is a valid solution whose
/// reported objectives re-simulate ([`Solution::verify`]), and no entry
/// dominates another. An empty front passes.
pub fn verify_front(inst: &Instance, front: &[FrontEntry]) -> Result<(), String> {
    for (i, e) in front.iter().enumerate() {
        e.solution
            .verify(inst, e.objectives.to_vector())
            .map_err(|problem| format!("front entry {i}: {problem}"))?;
    }
    let dominated = front.len() - pareto::non_dominated_indices(front).len();
    if dominated > 0 {
        return Err(format!(
            "{dominated} of {} front entries are dominated",
            front.len()
        ));
    }
    Ok(())
}

/// The result of one search run: every TSMO variant, the hybrid, adaptive
/// memory and the MOEAs of the `moea` crate return it.
#[derive(Debug, Clone)]
pub struct TsmoOutcome {
    /// The final front, mutually non-dominated: TSMO's `M_archive`, or
    /// the front an MOEA ends with.
    pub archive: Vec<FrontEntry>,
    /// Evaluations actually consumed.
    pub evaluations: u64,
    /// Iterations performed: TSMO master iterations (summed over the
    /// searchers of the collaborative variant), adaptive-memory
    /// improvement tasks, NSGA-II and SPEA2 generations, or PAES accepted
    /// moves.
    pub iterations: usize,
    /// Wall-clock runtime in seconds.
    pub runtime_seconds: f64,
    /// Optional search trace (Fig. 1 data).
    pub trace: Option<Trace>,
}

impl TsmoOutcome {
    /// The archive members with no time-window violation — the paper's
    /// tables "only \[consider\] those solutions that did not violate the
    /// time window and capacity constraints" (capacity is structural here:
    /// the operators never create overloads).
    pub fn feasible_front(&self) -> Vec<&FrontEntry> {
        self.archive
            .iter()
            .filter(|e| e.objectives.is_time_feasible(1e-6))
            .collect()
    }

    /// Mean distance over the feasible front (`None` if it is empty).
    pub fn mean_distance(&self) -> Option<f64> {
        let front = self.feasible_front();
        if front.is_empty() {
            return None;
        }
        Some(front.iter().map(|e| e.objectives.distance).sum::<f64>() / front.len() as f64)
    }

    /// Mean deployed vehicles over the feasible front.
    pub fn mean_vehicles(&self) -> Option<f64> {
        let front = self.feasible_front();
        if front.is_empty() {
            return None;
        }
        Some(
            front
                .iter()
                .map(|e| e.objectives.vehicles as f64)
                .sum::<f64>()
                / front.len() as f64,
        )
    }

    /// Smallest total distance on the feasible front.
    pub fn best_distance(&self) -> Option<f64> {
        self.feasible_front()
            .iter()
            .map(|e| e.objectives.distance)
            .min_by(|a, b| a.partial_cmp(b).expect("distances are not NaN"))
    }

    /// Fewest vehicles on the feasible front.
    pub fn best_vehicles(&self) -> Option<usize> {
        self.feasible_front()
            .iter()
            .map(|e| e.objectives.vehicles)
            .min()
    }

    /// The feasible front's objective vectors (for indicator computations).
    pub fn feasible_vectors(&self) -> Vec<[f64; 3]> {
        self.feasible_front()
            .iter()
            .map(|e| e.objectives.to_vector())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::Objectives;

    fn entry(d: f64, v: usize, t: f64) -> FrontEntry {
        FrontEntry::new(
            Solution::from_routes(vec![vec![1]]),
            Objectives {
                distance: d,
                vehicles: v,
                tardiness: t,
            },
        )
    }

    fn outcome(entries: Vec<FrontEntry>) -> TsmoOutcome {
        TsmoOutcome {
            archive: entries,
            evaluations: 100,
            iterations: 10,
            runtime_seconds: 0.5,
            trace: None,
        }
    }

    #[test]
    fn feasible_front_filters_tardy_solutions() {
        let o = outcome(vec![
            entry(10.0, 2, 0.0),
            entry(8.0, 2, 5.0),
            entry(12.0, 1, 0.0),
        ]);
        let front = o.feasible_front();
        assert_eq!(front.len(), 2);
        assert_eq!(o.best_distance(), Some(10.0));
        assert_eq!(o.best_vehicles(), Some(1));
        assert_eq!(o.mean_distance(), Some(11.0));
        assert_eq!(o.mean_vehicles(), Some(1.5));
    }

    #[test]
    fn empty_feasible_front_yields_none() {
        let o = outcome(vec![entry(10.0, 2, 3.0)]);
        assert!(o.feasible_front().is_empty());
        assert_eq!(o.mean_distance(), None);
        assert_eq!(o.best_vehicles(), None);
    }

    #[test]
    fn verify_front_accepts_real_fronts_and_rejects_bad_entries() {
        use crate::{ParallelVariant, TsmoConfig};
        use vrptw::generator::{GeneratorConfig, InstanceClass};

        let inst = std::sync::Arc::new(GeneratorConfig::new(InstanceClass::R2, 25, 4).build());
        let cfg = TsmoConfig {
            max_evaluations: 3_000,
            neighborhood_size: 50,
            ..TsmoConfig::default()
        };
        let front = ParallelVariant::Sequential.run(&inst, &cfg).archive;
        assert_eq!(verify_front(&inst, &front), Ok(()));

        let mut tampered = front.clone();
        tampered[0].objectives.distance -= 1.0;
        let err = verify_front(&inst, &tampered).unwrap_err();
        assert!(err.starts_with("front entry 0:"), "{err}");

        // Moving the last customer of a time-feasible entry onto a route of
        // its own adds a vehicle, never shortens the tour (Euclidean
        // distances) and keeps every arrival on time: a dominated entry.
        let base = front
            .iter()
            .find(|e| e.objectives.tardiness == 0.0)
            .expect("a time-feasible entry");
        let mut routes = base.solution.routes().to_vec();
        let long = routes
            .iter_mut()
            .find(|r| r.len() > 1)
            .expect("a long route");
        let last = long.pop().expect("non-empty");
        routes.push(vec![last]);
        let split = Solution::from_routes(routes);
        let objectives = split.evaluate(&inst);
        let pair = [base.clone(), FrontEntry::new(split, objectives)];
        let err = verify_front(&inst, &pair).unwrap_err();
        assert_eq!(err, "1 of 2 front entries are dominated");
    }

    #[test]
    fn dominance_vector_matches_objectives() {
        use pareto::Dominance;
        let e = entry(10.0, 2, 1.5);
        assert_eq!(e.objectives(), &[10.0, 2.0, 1.5]);
    }
}

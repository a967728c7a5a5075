//! The front verifier every workload runs on every front it receives, and
//! the tally that turns failed operations into counts instead of panics.

use tsmo_core::FrontEntry;
use tsmo_serve::FrontPoint;
use vrptw::{Instance, Solution};

/// Largest accepted gap between a reported objective and its
/// re-simulation.
pub const OBJECTIVE_TOLERANCE: f64 = 1e-6;

/// One front member as the verifier sees it: a solution and the objective
/// vector reported for it.
pub struct Member {
    /// The routes.
    pub solution: Solution,
    /// The reported `[distance, vehicles, tardiness]`.
    pub objectives: [f64; 3],
}

/// Members of a front returned by an in-process search.
pub fn from_entries(entries: &[FrontEntry]) -> Vec<Member> {
    entries
        .iter()
        .map(|e| Member {
            solution: e.solution.clone(),
            objectives: e.objectives.to_vector(),
        })
        .collect()
}

/// Members of a front returned over the service wire.
pub fn from_points(points: &[FrontPoint]) -> Vec<Member> {
    points
        .iter()
        .map(|p| Member {
            solution: Solution::from_routes(p.routes.clone()),
            objectives: p.objectives,
        })
        .collect()
}

/// Checks a front: it is non-empty, every member is a valid permutation
/// of the instance's customers, every reported objective re-simulates
/// within [`OBJECTIVE_TOLERANCE`], no member dominates another, and the
/// run consumed exactly its evaluation budget.
pub fn check_front(
    inst: &Instance,
    front: &[Member],
    evaluations: u64,
    budget: u64,
) -> Result<(), String> {
    if evaluations != budget {
        return Err(format!(
            "{evaluations} evaluations against a budget of {budget}"
        ));
    }
    if front.is_empty() {
        return Err("empty front".to_string());
    }
    for (i, m) in front.iter().enumerate() {
        if let Some(problem) = m.solution.check(inst).first() {
            return Err(format!("member {i}: {problem}"));
        }
        let simulated = m.solution.evaluate(inst).to_vector();
        for (k, (reported, actual)) in m.objectives.iter().zip(simulated).enumerate() {
            if (reported - actual).abs() > OBJECTIVE_TOLERANCE {
                return Err(format!(
                    "member {i}: objective {k} reported {reported}, re-simulates to {actual}"
                ));
            }
        }
    }
    let vectors: Vec<[f64; 3]> = front.iter().map(|m| m.objectives).collect();
    let non_dominated = pareto::non_dominated_indices(&vectors).len();
    if non_dominated != front.len() {
        return Err(format!(
            "{} of {} members are dominated",
            front.len() - non_dominated,
            front.len()
        ));
    }
    Ok(())
}

/// Operations attempted and how they ended. A refused, failed or
/// unverifiable operation is counted, never a panic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a front that did
    /// not verify.
    pub failed: u64,
    /// The subset of `failed` whose output was wrong (verification
    /// failures), as opposed to refusals and transport errors.
    pub wrong: u64,
    /// The first few failure messages, for the report.
    pub messages: Vec<String>,
}

impl Tally {
    /// Counts one operation that ran and returned an output, with its
    /// verification outcome.
    pub fn verified(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.failed += 1;
            self.wrong += 1;
            self.note(message);
        }
    }

    /// Counts one operation that did not produce an output (refused,
    /// transport error, failed job).
    pub fn refused(&mut self, message: String) {
        self.attempted += 1;
        self.failed += 1;
        self.note(message);
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for m in other.messages {
            self.note(m);
        }
    }

    fn note(&mut self, message: String) {
        if self.messages.len() < 5 {
            self.messages.push(message);
        }
    }
}

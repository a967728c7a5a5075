//! The [`RacedAlgorithm`] contract and the built-in contenders.
//!
//! A raced algorithm is anything that can spend a bounded slice of
//! evaluation budget, pause, and later resume from where it stopped. The
//! TSMO variants resume through [`TsmoConfig::warm_start`] (searchers are
//! re-seeded from the contender's current front); the MOEAs resume through
//! their own `warm_start` population seeding, which PR satellite work gave
//! the same budget accounting as a cold start. Every slice runs under a
//! [`CancelToken`], so a portfolio job inherits the service's deadline and
//! cancel semantics unchanged.

use pareto::Archive;
use std::sync::Arc;
use tsmo_core::{CancelToken, FrontEntry, ParallelVariant, RunOptions, TsmoConfig, TsmoOutcome};
use vrptw::{Instance, Solution};

/// An algorithm the portfolio can race: seeded slice runs, cooperative
/// cancellation, and a resumable current front.
pub trait RacedAlgorithm: Send {
    /// Stable display name (also the wire/CLI identifier).
    fn name(&self) -> &str;

    /// Spends (up to) `evaluations` evaluations resuming from the state
    /// earlier slices left behind. `seed` is the slice's derived seed —
    /// the scheduler pins it per `(portfolio seed, contender, round)`, so
    /// re-running a portfolio replays every slice identically. Returns
    /// the evaluations actually consumed — less than the slice only when
    /// `cancel` fired mid-slice, or (for multi-searcher contenders that
    /// split the slice per searcher) by a rounding remainder smaller than
    /// the searcher count.
    fn run_slice(
        &mut self,
        inst: &Arc<Instance>,
        evaluations: u64,
        seed: u64,
        cancel: &CancelToken,
    ) -> u64;

    /// The contender's current front: the bounded non-dominated archive
    /// accumulated over all slices so far (stage one of the two-stage
    /// merge).
    fn front(&self) -> &[FrontEntry];
}

/// Shared sizing for the built-in contenders.
#[derive(Debug, Clone)]
pub struct RaceParams {
    /// Neighborhood size for the TSMO variants.
    pub neighborhood_size: usize,
    /// Processor count for the parallel TSMO variants.
    pub processors: usize,
    /// Population size for the generational MOEAs.
    pub population: usize,
}

/// Per-contender front capacity (stage-one archives).
const ARCHIVE_CAPACITY: usize = 30;

impl Default for RaceParams {
    fn default() -> Self {
        Self {
            neighborhood_size: 50,
            processors: 3,
            population: 24,
        }
    }
}

/// The algorithm identifiers [`contender`] accepts (the `--algos` values).
pub const KNOWN_ALGORITHMS: [&str; 7] = [
    "tsmo-seq",
    "tsmo-sync",
    "tsmo-async",
    "tsmo-collab",
    "nsga2",
    "spea2",
    "paes",
];

/// Builds a contender by identifier. Returns `None` for unknown names;
/// see [`KNOWN_ALGORITHMS`].
pub fn contender(name: &str, params: &RaceParams) -> Option<Box<dyn RacedAlgorithm>> {
    let variant = match name {
        "tsmo-seq" | "sequential" => Some(ParallelVariant::Sequential),
        "tsmo-sync" | "synchronous" => Some(ParallelVariant::Synchronous(params.processors)),
        "tsmo-async" | "asynchronous" => Some(ParallelVariant::Asynchronous(params.processors)),
        "tsmo-collab" | "collaborative" => Some(ParallelVariant::Collaborative(params.processors)),
        _ => None,
    };
    if let Some(variant) = variant {
        return Some(Box::new(TsmoContender::new(name, variant, params)));
    }
    match name {
        "nsga2" | "spea2" | "paes" => Some(Box::new(MoeaContender::new(name, params))),
        _ => None,
    }
}

/// What a contender carries from slice to slice: the solutions that seed
/// the next slice, and the bounded front accumulated over all slices.
struct SliceState {
    pool: Vec<Solution>,
    archive: Archive<FrontEntry>,
    items: Vec<FrontEntry>,
}

impl SliceState {
    fn new() -> Self {
        Self {
            pool: Vec::new(),
            archive: Archive::new(ARCHIVE_CAPACITY),
            items: Vec::new(),
        }
    }

    /// Folds one slice's outcome in; returns the evaluations it spent.
    fn absorb(&mut self, out: TsmoOutcome) -> u64 {
        self.pool = out.archive.iter().map(|e| e.solution.clone()).collect();
        self.archive.absorb(out.archive);
        self.items = self.archive.items().to_vec();
        out.evaluations
    }
}

/// A TSMO variant raced through [`ParallelVariant::run_opts`].
pub struct TsmoContender {
    name: String,
    variant: ParallelVariant,
    base: TsmoConfig,
    state: SliceState,
}

impl TsmoContender {
    /// A contender running `variant` with the shared race sizing.
    pub fn new(name: &str, variant: ParallelVariant, params: &RaceParams) -> Self {
        let base = TsmoConfig {
            neighborhood_size: params.neighborhood_size,
            ..TsmoConfig::default()
        };
        Self {
            name: name.to_string(),
            variant,
            base,
            state: SliceState::new(),
        }
    }
}

impl RacedAlgorithm for TsmoContender {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_slice(
        &mut self,
        inst: &Arc<Instance>,
        evaluations: u64,
        seed: u64,
        cancel: &CancelToken,
    ) -> u64 {
        let mut cfg = self.base.clone();
        // The collaborative variant's budget is *per searcher* (P
        // searchers each spend max_evaluations); every other variant
        // treats it as the global total. Split the slice so one raced
        // slice always costs (at most) the slice, whatever the variant.
        cfg.max_evaluations = match self.variant {
            ParallelVariant::Collaborative(p) => evaluations / p.max(1) as u64,
            _ => evaluations,
        };
        cfg.seed = seed;
        cfg.warm_start = self.state.pool.clone();
        let opts = RunOptions {
            cancel: cancel.clone(),
            ..RunOptions::default()
        };
        self.state.absorb(self.variant.run_opts(inst, &cfg, opts))
    }

    fn front(&self) -> &[FrontEntry] {
        &self.state.items
    }
}

/// Which MOEA a [`MoeaContender`] races.
enum MoeaKind {
    Nsga2,
    Spea2,
    Paes,
}

/// An MOEA raced through its cancellable `run`, resuming via `warm_start`
/// population seeding.
pub struct MoeaContender {
    name: String,
    kind: MoeaKind,
    params: RaceParams,
    state: SliceState,
}

impl MoeaContender {
    /// A contender for `name` (`"nsga2"`, `"spea2"`, or `"paes"`).
    ///
    /// # Panics
    /// Panics on any other name; route construction through [`contender`].
    pub fn new(name: &str, params: &RaceParams) -> Self {
        let kind = match name {
            "nsga2" => MoeaKind::Nsga2,
            "spea2" => MoeaKind::Spea2,
            "paes" => MoeaKind::Paes,
            other => panic!("unknown MOEA '{other}'"),
        };
        Self {
            name: name.to_string(),
            kind,
            params: params.clone(),
            state: SliceState::new(),
        }
    }
}

impl RacedAlgorithm for MoeaContender {
    fn name(&self) -> &str {
        &self.name
    }

    fn run_slice(
        &mut self,
        inst: &Arc<Instance>,
        evaluations: u64,
        seed: u64,
        cancel: &CancelToken,
    ) -> u64 {
        let warm_start = self.state.pool.clone();
        let out = match self.kind {
            MoeaKind::Nsga2 => moea::Nsga2::new(moea::Nsga2Config {
                population: self.params.population,
                max_evaluations: evaluations,
                seed,
                warm_start,
                ..Default::default()
            })
            .run(inst, cancel),
            MoeaKind::Spea2 => moea::Spea2::new(moea::Spea2Config {
                population: self.params.population,
                archive: ARCHIVE_CAPACITY,
                max_evaluations: evaluations,
                seed,
                warm_start,
                ..Default::default()
            })
            .run(inst, cancel),
            MoeaKind::Paes => moea::Paes::new(moea::PaesConfig {
                archive: ARCHIVE_CAPACITY,
                max_evaluations: evaluations,
                seed,
                warm_start,
                ..Default::default()
            })
            .run(inst, cancel),
        };
        self.state.absorb(out)
    }

    fn front(&self) -> &[FrontEntry] {
        &self.state.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pareto::Dominance;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    #[test]
    fn factory_knows_every_advertised_algorithm() {
        let params = RaceParams::default();
        for name in KNOWN_ALGORITHMS {
            let c = contender(name, &params).expect(name);
            assert_eq!(c.name(), name);
        }
        assert!(contender("simulated-annealing", &params).is_none());
    }

    #[test]
    fn slices_resume_and_accumulate_a_front() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 25, 5).build());
        let params = RaceParams::default();
        for name in ["tsmo-seq", "nsga2", "paes"] {
            let mut c = contender(name, &params).unwrap();
            let spent1 = c.run_slice(&inst, 600, 11, &CancelToken::never());
            assert_eq!(spent1, 600, "{name} must honor the slice budget");
            assert!(!c.front().is_empty(), "{name} produced no front");
            let first: Vec<[f64; 3]> = c
                .front()
                .iter()
                .map(|e| [e.objectives()[0], e.objectives()[1], e.objectives()[2]])
                .collect();
            let spent2 = c.run_slice(&inst, 600, 12, &CancelToken::never());
            assert_eq!(spent2, 600);
            // The accumulated archive never regresses: every old point is
            // still matched or dominated by the new front.
            let now = c.front().to_vec();
            for old in &first {
                assert!(
                    now.iter()
                        .any(|n| pareto::weakly_dominates(n.objectives(), old)),
                    "{name} lost front quality across slices"
                );
            }
        }
    }
}

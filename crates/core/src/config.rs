//! Search parameters, with the paper's experimental defaults.

use detrand::Rng;

/// How the new current solution is picked from the non-dominated, non-tabu
/// neighbors. The paper only says "a Selection of one of the non-dominated
/// solutions found" (§III.B), so the rule is configurable:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionRule {
    /// Uniformly random among the non-dominated neighbors — the most
    /// literal reading of the paper, and the default.
    #[default]
    RandomNonDominated,
    /// Prefer neighbors that *dominate the current solution* (random among
    /// them); fall back to a random non-dominated neighbor. Closer to the
    /// "best-improvement local search" framing of §I and markedly more
    /// intensifying (see `ablation -- selection`).
    PreferDominating,
}

/// Configuration of one TSMO search.
///
/// Defaults are the settings used for every table in the paper:
/// 100,000 evaluations, neighborhood size 200, tabu tenure 20, archive
/// size 20, restart after 100 iterations without archive improvement.
#[derive(Debug, Clone)]
pub struct TsmoConfig {
    /// Total evaluation budget (paper: 100,000).
    pub max_evaluations: u64,
    /// Moves drawn per neighborhood (paper: 200).
    pub neighborhood_size: usize,
    /// Length of the tabu list in accepted moves (paper: 20).
    pub tabu_tenure: usize,
    /// Capacity of the Pareto archive `M_archive` (paper: 20).
    pub archive_capacity: usize,
    /// Capacity of the medium-term memory `M_nondom` (bounded with the same
    /// crowding rule; the paper leaves its size unspecified).
    pub nondom_capacity: usize,
    /// Iterations without archive improvement before restarting from a
    /// remembered solution (paper: 100).
    pub stagnation_limit: usize,
    /// Collaborative migration interval: offer only every k-th
    /// post-initial-phase archive improvement to the communication list
    /// (1 = every improvement, the paper's policy; larger values trade
    /// exchange traffic against convergence — the knob the elastic-mesh
    /// migration sweep varies). Values below 1 behave like 1.
    pub exchange_interval: usize,
    /// Number of RNG chunks the neighborhood is split into. The sequential
    /// algorithm generates its neighborhood in this many seed-derived
    /// chunks so that the synchronous variant (one chunk per processor)
    /// reproduces it exactly; set it to the processor count you want to
    /// compare against (default 1).
    pub chunks: usize,
    /// Apply the local feasibility criterion when sampling moves
    /// (paper: on; the ablation harness switches it off).
    pub feasibility_criterion: bool,
    /// How the next current solution is selected (see [`SelectionRule`]).
    pub selection: SelectionRule,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
    /// Record a search trace for trajectory plots (Fig. 1).
    pub trace: bool,
    /// Overrides the per-run trace id stamped on profiling spans. `None`
    /// (the default) derives it from `seed` via
    /// [`tsmo_obs::trace_id_from_seed`]; a distributed mesh sets it
    /// explicitly so every node's spans share one id.
    pub trace_id: Option<u64>,
    /// Emit a `FrontSample` convergence event (archive size, 2-D
    /// hypervolume, coverage of `M_nondom`) roughly every this many
    /// evaluated neighbors (`None` = no timeline). Sampling is driven by
    /// the searcher-local evaluated-neighbor count, so timelines are as
    /// deterministic as the rest of the event stream.
    pub timeline_every: Option<u64>,
    /// Asynchronous variant: upper bound, in milliseconds, on how long the
    /// master waits for workers after finishing its own chunk — condition
    /// `c3` ("AreWeWaitingTooLong") of Algorithm 2.
    pub async_max_wait_ms: u64,
    /// Per-message latency, in seconds, of the *simulated* cluster behind
    /// [`Clock::Virtual`](crate::Clock) (see `deme::virtual_time`): the
    /// cost of one master–worker or searcher–searcher message on the
    /// modeled machine.
    pub sim_comm_latency: f64,
    /// Virtual cost, in seconds on a reference-speed processor, of one
    /// unit of counted work on [`Clock::Virtual`](crate::Clock): one
    /// evaluation, one neighbor considered by a selection step, or one
    /// received exchange entry. Virtual time reads no host clock, so the
    /// simulated schedule — and with it every virtual-clock trajectory,
    /// runtime and event stream — depends on the seed alone.
    pub sim_eval_cost: f64,
    /// Warm-start pool: solutions a run starts from instead of a fresh I1
    /// construction. Every entry must be a *complete, valid* solution of
    /// the instance being solved (the dynamic re-optimization path repairs
    /// elites against the mutated instance before putting them here). The
    /// searcher picks `warm_start[searcher_id % len]` as its current
    /// solution — deterministic, and collaborative searchers spread over
    /// the pool — and seeds `M_archive` / `M_nondom` with every entry.
    /// Empty (the default) leaves the cold-start path byte-identical.
    pub warm_start: Vec<vrptw::Solution>,
}

impl Default for TsmoConfig {
    fn default() -> Self {
        Self {
            max_evaluations: 100_000,
            neighborhood_size: 200,
            tabu_tenure: 20,
            archive_capacity: 20,
            nondom_capacity: 50,
            stagnation_limit: 100,
            exchange_interval: 1,
            chunks: 1,
            feasibility_criterion: true,
            selection: SelectionRule::RandomNonDominated,
            seed: 0,
            trace: false,
            trace_id: None,
            timeline_every: None,
            async_max_wait_ms: 20,
            sim_comm_latency: 0.001,
            sim_eval_cost: 2e-5,
            warm_start: Vec::new(),
        }
    }
}

impl TsmoConfig {
    /// Returns a copy with `seed` replaced.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The trace id a run with this configuration stamps on its spans:
    /// the explicit override, or the id derived from `seed`.
    pub fn effective_trace_id(&self) -> u64 {
        self.trace_id
            .unwrap_or_else(|| tsmo_obs::trace_id_from_seed(self.seed))
    }

    /// The collaborative variant's parameter disturbance (§III.E): every
    /// integer parameter is shifted by `N(0, param/4)` (the first searcher
    /// keeps the undisturbed configuration). Values are clamped to sane
    /// minima so a large negative draw cannot disable the search.
    pub fn perturbed<R: Rng>(&self, rng: &mut R) -> Self {
        let disturb = |rng: &mut R, value: usize, min: usize| -> usize {
            let v = value as f64 + rng.normal(0.0, value as f64 / 4.0);
            (v.round().max(min as f64)) as usize
        };
        Self {
            neighborhood_size: disturb(rng, self.neighborhood_size, 2),
            tabu_tenure: disturb(rng, self.tabu_tenure, 1),
            archive_capacity: disturb(rng, self.archive_capacity, 2),
            nondom_capacity: disturb(rng, self.nondom_capacity, 2),
            stagnation_limit: disturb(rng, self.stagnation_limit, 5),
            ..self.clone()
        }
    }

    /// Sizes of the neighborhood chunks: `neighborhood_size` split as
    /// evenly as possible over `chunks` (first chunks take the remainder).
    pub fn chunk_sizes(&self) -> Vec<usize> {
        let chunks = self.chunks.max(1);
        let base = self.neighborhood_size / chunks;
        let rem = self.neighborhood_size % chunks;
        (0..chunks).map(|i| base + usize::from(i < rem)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detrand::Xoshiro256StarStar;

    #[test]
    fn defaults_match_paper() {
        let c = TsmoConfig::default();
        assert_eq!(c.max_evaluations, 100_000);
        assert_eq!(c.neighborhood_size, 200);
        assert_eq!(c.tabu_tenure, 20);
        assert_eq!(c.archive_capacity, 20);
        assert_eq!(c.stagnation_limit, 100);
        assert!(c.feasibility_criterion);
    }

    #[test]
    fn chunk_sizes_partition_neighborhood() {
        for (size, chunks) in [(200, 1), (200, 3), (200, 6), (200, 12), (7, 3), (5, 8)] {
            let cfg = TsmoConfig {
                neighborhood_size: size,
                chunks,
                ..Default::default()
            };
            let sizes = cfg.chunk_sizes();
            assert_eq!(sizes.len(), chunks);
            assert_eq!(sizes.iter().sum::<usize>(), size);
            // Even split up to 1.
            let max = sizes.iter().max().unwrap();
            let min = sizes.iter().min().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn perturbation_changes_parameters_but_respects_minima() {
        let base = TsmoConfig::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let mut any_changed = false;
        for _ in 0..20 {
            let p = base.perturbed(&mut rng);
            assert!(p.neighborhood_size >= 2);
            assert!(p.tabu_tenure >= 1);
            assert!(p.archive_capacity >= 2);
            assert!(p.stagnation_limit >= 5);
            // Unperturbed knobs survive.
            assert_eq!(p.max_evaluations, base.max_evaluations);
            assert_eq!(p.seed, base.seed);
            if p.neighborhood_size != base.neighborhood_size || p.tabu_tenure != base.tabu_tenure {
                any_changed = true;
            }
        }
        assert!(any_changed, "perturbation never changed anything");
    }

    #[test]
    fn perturbation_spread_is_about_a_quarter() {
        let base = TsmoConfig::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let samples: Vec<f64> = (0..4000)
            .map(|_| base.perturbed(&mut rng).neighborhood_size as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let sd =
            (samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64).sqrt();
        assert!((mean - 200.0).abs() < 3.0, "mean {mean}");
        assert!((sd - 50.0).abs() < 3.0, "sd {sd} should be ~param/4 = 50");
    }
}

//! TSMO — multiobjective tabu search for the CVRPTW, and its three
//! parallel variants (Beham, IPPS 2007).
//!
//! The sequential algorithm (§III.B, Algorithm 1) iterates:
//!
//! 1. **Neighborhood generation** — `neighborhood_size` moves drawn from
//!    the five operators with equal probability, each respecting the local
//!    feasibility criterion;
//! 2. **Evaluation** — each neighbor's three objectives (incremental);
//! 3. **Selection** — one of the non-dominated, non-tabu neighbors becomes
//!    the new current solution; its reversal attributes enter the tabu
//!    list;
//! 4. **Memory update** — neighborhood non-dominated solutions are offered
//!    to the medium-term memory `M_nondom`; the chosen solution is offered
//!    to the bounded crowding archive `M_archive`. If the archive has not
//!    improved for `stagnation_limit` iterations (or no neighbor was
//!    selectable), the search restarts from a remembered solution.
//!
//! The parallel variants ([`ParallelVariant`]):
//!
//! * **Synchronous** (§III.C) — master–worker functional decomposition of
//!   steps 1–2 with a barrier; **bit-identical trajectories** to the
//!   sequential algorithm for the same seed (tested), which is the paper's
//!   "the behavior remains unchanged".
//! * **Asynchronous** (§III.D) — same decomposition without the barrier;
//!   the master continues with a partial neighborhood according to the
//!   decision function of Algorithm 2 and folds late worker results into
//!   later iterations.
//! * **Collaborative** (§III.E) — independent searchers with perturbed
//!   parameters that exchange archive-improving solutions over a rotating
//!   communication list after an initial stagnation phase.
//!
//! Each variant is written once and runs on either [`Clock`]: OS threads
//! and the wall clock, or one thread scheduling the same work on a
//! simulated cluster in virtual time (`deme::virtual_time`), which shows
//! parallel runtimes on hosts with fewer cores than processors and, with
//! a fixed [`TsmoConfig::sim_eval_cost`], makes whole event streams
//! byte-reproducible.
//!
//! The parallel runtimes are self-healing: the asynchronous master runs
//! its workers under a supervisor (`deme::Supervisor`) that resends
//! panicked tasks, quarantines and respawns repeat offenders, and degrades
//! to master-local evaluation when no worker is left; the collaborative
//! searchers track peer liveness and route around dead peers. Both can be
//! exercised under deterministic fault injection via
//! [`RunOptions::faults`] and the `tsmo-faults` crate.

//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use tsmo_core::{SequentialTsmo, TsmoConfig};
//! use vrptw::generator::{GeneratorConfig, InstanceClass};
//!
//! let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 7).build());
//! let cfg = TsmoConfig { max_evaluations: 2_000, neighborhood_size: 50,
//!                        ..TsmoConfig::default() };
//! let outcome = SequentialTsmo::new(cfg).run(&inst);
//! assert_eq!(outcome.evaluations, 2_000);
//! assert!(!outcome.archive.is_empty());
//! ```

mod adaptive;
mod asynchronous;
mod cancel;
mod collaborative;
mod config;
mod core_search;
mod exec;
mod fault_obs;
mod hybrid;
mod neighborhood;
mod outcome;
mod scalarized;
mod searcher;
mod sequential;
mod sync;
mod tabu;
mod trace;

pub use adaptive::{insert_cheapest, scalarize, AdaptiveMemory, AdaptiveMemoryTs};
pub use cancel::{CancelToken, StopCause};
pub use config::{SelectionRule, TsmoConfig};
pub use core_search::SearchCore;
pub use hybrid::HybridTsmo;
pub use neighborhood::{generate_chunk, Neighbor};
pub use outcome::{FrontEntry, TsmoOutcome};
pub use scalarized::{weighted_front, WeightedOutcome, WeightedSumTs};
pub use searcher::{searcher_cfg, CollabSearcher, SearcherResult};
pub use sequential::SequentialTsmo;
pub use tabu::TabuList;
pub use trace::{Trace, TracePoint};

use std::sync::Arc;
use tsmo_faults::FaultHook;
use tsmo_obs::Recorder;
use vrptw::Instance;

/// The algorithm variants compared in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelVariant {
    /// Algorithm 1 on one thread.
    Sequential,
    /// Synchronous master–worker with this many processors (incl. master).
    Synchronous(usize),
    /// Asynchronous master–worker with this many processors (incl. master).
    Asynchronous(usize),
    /// Collaborative multisearch with this many searchers.
    Collaborative(usize),
}

/// Which clock a parallel run executes against.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Clock {
    /// OS threads; `runtime_seconds` is wall time.
    #[default]
    Wall,
    /// One thread scheduling every processor's work on a simulated cluster
    /// (`deme::virtual_time`); `runtime_seconds` is the virtual makespan.
    /// Each work item costs its measured wall time, or
    /// [`TsmoConfig::sim_eval_cost`] per evaluation when that is set —
    /// then the schedule, and with it the whole event stream, is
    /// byte-reproducible for a fixed seed.
    Virtual {
        /// Relative speed of each processor (processor 0 is the master),
        /// for heterogeneous machines; `None` means all run at 1.0. Slow
        /// workers stretch the synchronous barrier, while the asynchronous
        /// master moves on without them.
        speeds: Option<Vec<f64>>,
    },
}

/// Everything a run takes besides the instance and the configuration.
pub struct RunOptions {
    /// Telemetry sink (see `tsmo-obs`); the no-op recorder by default.
    pub recorder: Arc<dyn Recorder>,
    /// Fault injection (see `tsmo-faults`). The asynchronous variant
    /// recovers under its supervisor (resend, quarantine, respawn,
    /// degraded mode); the collaborative variant drops or delays exchange
    /// messages and routes around dead peers. `Sequential` and
    /// `Synchronous` have no recovery path and ignore the hook. An
    /// inactive hook ([`FaultHook::active`] is `false`) takes exactly the
    /// unfaulted code path.
    pub faults: Arc<dyn FaultHook>,
    /// Cooperative stop signal, checked at the top of each iteration (per
    /// searcher for the collaborative variant), so a stopped run returns
    /// its best-so-far front as a valid, truncated prefix of the unstopped
    /// run; read [`CancelToken::cause`] to learn why it stopped.
    pub cancel: CancelToken,
    /// Wall or virtual time. `Sequential` always runs on the wall clock.
    pub clock: Clock,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            recorder: tsmo_obs::noop(),
            faults: tsmo_faults::none(),
            cancel: CancelToken::never(),
            clock: Clock::Wall,
        }
    }
}

impl ParallelVariant {
    /// Runs the variant on `inst` with `cfg`.
    pub fn run(self, inst: &Arc<Instance>, cfg: &TsmoConfig) -> TsmoOutcome {
        self.run_opts(inst, cfg, RunOptions::default())
    }

    /// Runs the variant with a telemetry sink attached (see `tsmo-obs`).
    /// The no-op recorder makes this identical to [`run`](Self::run).
    pub fn run_with(
        self,
        inst: &Arc<Instance>,
        cfg: &TsmoConfig,
        recorder: Arc<dyn Recorder>,
    ) -> TsmoOutcome {
        self.run_opts(
            inst,
            cfg,
            RunOptions {
                recorder,
                ..RunOptions::default()
            },
        )
    }

    /// Runs the variant with every option (see [`RunOptions`]).
    ///
    /// # Panics
    /// Panics on zero processors, or on a speed vector whose length is not
    /// the processor count.
    pub fn run_opts(self, inst: &Arc<Instance>, cfg: &TsmoConfig, opts: RunOptions) -> TsmoOutcome {
        let RunOptions {
            recorder,
            faults,
            cancel,
            clock,
        } = opts;
        let speeds = match &clock {
            Clock::Wall => None,
            Clock::Virtual { speeds } => Some(speeds.as_deref()),
        };
        let params = vrptw_operators::SampleParams {
            feasibility: cfg.feasibility_criterion,
        };
        match self {
            ParallelVariant::Sequential => {
                let exec = exec::Threads::new(inst, params, 1, &recorder, faults);
                sync::run_sync(exec, inst, cfg, &recorder, &cancel)
            }
            ParallelVariant::Synchronous(p) => {
                assert!(p > 0, "need at least the master processor");
                let cfg = TsmoConfig {
                    chunks: p,
                    ..cfg.clone()
                };
                let none = tsmo_faults::none();
                match speeds {
                    None => {
                        let exec = exec::Threads::new(inst, params, p, &recorder, none);
                        sync::run_sync(exec, inst, &cfg, &recorder, &cancel)
                    }
                    Some(speeds) => {
                        let exec = exec::Virtual::new(inst, &cfg, p, speeds, &recorder, none);
                        sync::run_sync(exec, inst, &cfg, &recorder, &cancel)
                    }
                }
            }
            ParallelVariant::Asynchronous(p) => {
                assert!(p > 0, "need at least the master processor");
                let searcher = asynchronous::AsyncSearcher {
                    inst,
                    cfg: cfg.clone(),
                    rng: detrand::Xoshiro256StarStar::seed_from_u64(cfg.seed),
                    recorder: &recorder,
                    id: 0,
                };
                match speeds {
                    None => {
                        let exec = exec::Threads::new(inst, params, p, &recorder, faults);
                        asynchronous::run_async(exec, searcher, &cancel, &mut ())
                    }
                    Some(speeds) => {
                        let exec = exec::Virtual::new(inst, cfg, p, speeds, &recorder, faults);
                        asynchronous::run_async(exec, searcher, &cancel, &mut ())
                    }
                }
            }
            ParallelVariant::Collaborative(p) => {
                assert!(p > 0, "need at least one searcher");
                match speeds {
                    None => collaborative::run_threads(inst, cfg, p, &recorder, &faults, &cancel),
                    Some(speeds) => collaborative::run_virtual(
                        inst, cfg, p, speeds, &recorder, &faults, &cancel,
                    ),
                }
            }
        }
    }

    /// A short label for result tables (`"TSMO sync."` style).
    pub fn label(self) -> String {
        match self {
            ParallelVariant::Sequential => "Sequential TSMO".to_string(),
            ParallelVariant::Synchronous(p) => format!("TSMO sync. ({p})"),
            ParallelVariant::Asynchronous(p) => format!("TSMO async. ({p})"),
            ParallelVariant::Collaborative(p) => format!("TSMO coll. ({p})"),
        }
    }
}

/// Runs `variant` on the virtual clock with default options.
#[cfg(test)]
pub(crate) fn on_virtual_clock(
    variant: ParallelVariant,
    inst: &Arc<Instance>,
    cfg: &TsmoConfig,
) -> TsmoOutcome {
    let clock = Clock::Virtual { speeds: None };
    variant.run_opts(
        inst,
        cfg,
        RunOptions {
            clock,
            ..RunOptions::default()
        },
    )
}

#[cfg(test)]
mod variant_tests {
    use super::*;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    #[test]
    fn all_variants_run_and_produce_fronts() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C2, 30, 5).build());
        let cfg = TsmoConfig {
            max_evaluations: 2_000,
            neighborhood_size: 40,
            ..TsmoConfig::default()
        };
        for variant in [
            ParallelVariant::Sequential,
            ParallelVariant::Synchronous(3),
            ParallelVariant::Asynchronous(3),
            ParallelVariant::Collaborative(3),
        ] {
            let out = variant.run(&inst, &cfg);
            assert!(
                !out.archive.is_empty(),
                "{variant:?} produced an empty archive"
            );
            assert!(out.evaluations > 0, "{variant:?} did no evaluations");
            for entry in &out.archive {
                assert!(
                    entry.solution.check(&inst).is_empty(),
                    "{variant:?} invalid solution"
                );
            }
        }
    }

    /// With a stagnation limit above the iteration count the initial phase
    /// never ends, so nothing is exchanged and the searchers are
    /// independent: the two clocks must then produce the same front, which
    /// pins the per-searcher RNG draw order (communication list first,
    /// then the parameter perturbation) on both.
    #[test]
    fn collaborative_fronts_agree_across_clocks_without_exchanges() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 30, 5).build());
        let cfg = TsmoConfig {
            max_evaluations: 2_000,
            neighborhood_size: 50,
            stagnation_limit: 10_000,
            ..TsmoConfig::default()
        }
        .with_seed(4);
        let run = |clock: Clock| {
            let recorder = tsmo_obs::MemoryRecorder::shared();
            let out = ParallelVariant::Collaborative(3).run_opts(
                &inst,
                &cfg,
                RunOptions {
                    recorder: Arc::clone(&recorder) as Arc<dyn Recorder>,
                    clock,
                    ..RunOptions::default()
                },
            );
            let sent = recorder
                .metrics()
                .counter(tsmo_obs::metrics::names::EXCHANGE_SENT);
            assert_eq!(sent, 0, "the setting must exchange nothing");
            out
        };
        let wall = run(Clock::Wall);
        let virt = run(Clock::Virtual { speeds: None });
        assert_eq!(wall.iterations, virt.iterations);
        let vectors = |out: &TsmoOutcome| -> Vec<[f64; 3]> {
            out.archive
                .iter()
                .map(|e| e.objectives.to_vector())
                .collect()
        };
        assert_eq!(vectors(&wall), vectors(&virt));
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<String> = [
            ParallelVariant::Sequential,
            ParallelVariant::Synchronous(3),
            ParallelVariant::Asynchronous(3),
            ParallelVariant::Collaborative(3),
            ParallelVariant::Synchronous(6),
        ]
        .iter()
        .map(|v| v.label())
        .collect();
        assert_eq!(labels.len(), 5);
    }
}

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
//! parallel runtimes on hosts with fewer cores than processors. Virtual
//! time charges counted work at [`TsmoConfig::sim_eval_cost`] per unit
//! and never reads the host clock, so virtual runtimes and whole event
//! streams are byte-reproducible.
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
//! use tsmo_core::{ParallelVariant, TsmoConfig};
//! use vrptw::generator::{GeneratorConfig, InstanceClass};
//!
//! let inst = Arc::new(GeneratorConfig::new(InstanceClass::R2, 40, 7).build());
//! let cfg = TsmoConfig { max_evaluations: 2_000, neighborhood_size: 50,
//!                        ..TsmoConfig::default() };
//! let outcome = ParallelVariant::Sequential.run(&inst, &cfg);
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
mod sync;
mod tabu;
mod trace;

pub use adaptive::{insert_cheapest, scalarize, AdaptiveMemory, AdaptiveMemoryTs};
pub use cancel::{CancelToken, StopCause};
pub use config::{SelectionRule, TsmoConfig};
pub use core_search::SearchCore;
pub use hybrid::HybridTsmo;
pub use neighborhood::{generate_chunk, Chunk, LazyNeighbor, Neighbor, StepNeighbor};
pub use outcome::{verify_front, FrontEntry, TsmoOutcome};
pub use scalarized::{weighted_front, WeightedOutcome, WeightedSumTs};
pub use searcher::{searcher_cfg, CollabSearcher, SearcherResult};
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
    /// Work is charged by count, never by host time, at
    /// [`TsmoConfig::sim_eval_cost`] per unit divided by the processor's
    /// speed: a chunk of `k` evaluations costs `k` units, a selection step
    /// over `n` neighbors `n` units, a received exchange entry one unit,
    /// and a message [`TsmoConfig::sim_comm_latency`]. The schedule, and
    /// with it the whole event stream, is byte-reproducible for a fixed
    /// seed.
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
    /// Wall or virtual time; on the virtual clock `Sequential` is one
    /// processor.
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
            ParallelVariant::Sequential | ParallelVariant::Synchronous(_) => {
                let (p, chunks) = match self {
                    ParallelVariant::Synchronous(p) => (p, p),
                    _ => (1, cfg.chunks),
                };
                assert!(p > 0, "need at least the master processor");
                let cfg = TsmoConfig {
                    chunks,
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
                    Some(speeds) => collaborative::run_on_virtual_clock(
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

    /// Sleeps in every counter update, so host time passes unevenly
    /// between and during the steps of a search.
    struct SlowRecorder;

    impl Recorder for SlowRecorder {
        fn counter_add(&self, _name: &str, _delta: u64) {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }

    fn on_clock(
        variant: ParallelVariant,
        inst: &Arc<Instance>,
        cfg: &TsmoConfig,
        speeds: Option<Vec<f64>>,
        recorder: Arc<dyn Recorder>,
    ) -> TsmoOutcome {
        let opts = RunOptions {
            recorder,
            clock: Clock::Virtual { speeds },
            ..RunOptions::default()
        };
        variant.run_opts(inst, cfg, opts)
    }

    /// Virtual time counts work and never reads the host clock: a run
    /// whose host time is stretched by a slow recorder has the same
    /// runtime, iterations and front as one without it.
    #[test]
    fn virtual_time_reads_no_host_clock() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 30, 2).build());
        let cfg = TsmoConfig {
            max_evaluations: 1_500,
            neighborhood_size: 30,
            stagnation_limit: 5,
            ..TsmoConfig::default()
        }
        .with_seed(6);
        for variant in [
            ParallelVariant::Sequential,
            ParallelVariant::Synchronous(3),
            ParallelVariant::Asynchronous(3),
            ParallelVariant::Collaborative(3),
        ] {
            let fast = on_clock(variant, &inst, &cfg, None, tsmo_obs::noop());
            let slow = on_clock(variant, &inst, &cfg, None, Arc::new(SlowRecorder));
            assert_eq!(fast.runtime_seconds, slow.runtime_seconds, "{variant:?}");
            assert_eq!(fast.iterations, slow.iterations, "{variant:?}");
            let vectors = |out: &TsmoOutcome| -> Vec<[f64; 3]> {
                out.archive
                    .iter()
                    .map(|e| e.objectives.to_vector())
                    .collect()
            };
            assert_eq!(vectors(&fast), vectors(&slow), "{variant:?}");
        }
    }

    /// Processor speeds divide every work cost: slow workers stretch the
    /// synchronous barrier, and a half-speed sequential run takes exactly
    /// twice as long.
    #[test]
    fn speeds_divide_the_cost_of_work() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 30, 2).build());
        let cfg = TsmoConfig {
            max_evaluations: 1_200,
            neighborhood_size: 30,
            ..TsmoConfig::default()
        };
        let makespan = |variant: ParallelVariant, speeds: Vec<f64>| {
            on_clock(variant, &inst, &cfg, Some(speeds), tsmo_obs::noop()).runtime_seconds
        };
        let sync = ParallelVariant::Synchronous(3);
        let (even, slow) = (
            makespan(sync, vec![1.0; 3]),
            makespan(sync, vec![1.0, 0.5, 0.5]),
        );
        assert!(slow > even, "half-speed workers {slow} vs {even}");
        let seq = ParallelVariant::Sequential;
        assert_eq!(makespan(seq, vec![0.5]), 2.0 * makespan(seq, vec![1.0]));
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

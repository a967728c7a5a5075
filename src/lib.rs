//! Umbrella crate for the TSMO suite: re-exports every workspace crate and
//! provides a `prelude` so examples and integration tests can pull the whole
//! public API with one `use`.
//!
//! The actual functionality lives in the member crates:
//!
//! * [`vrptw`] — CVRPTW problem model, instances, evaluation
//! * [`vrptw_operators`] — neighborhood operators and moves
//! * [`vrptw_construct`] — construction heuristics (Solomon I1, …)
//! * [`pareto`] — multiobjective machinery (dominance, archives, metrics)
//! * [`deme`] — the distributed-metaheuristics framework
//! * [`tsmo_core`] — the TSMO algorithm and its parallel variants
//! * [`tsmo_obs`] — deterministic telemetry (events, metrics, recorders)
//! * [`tsmo_faults`] — deterministic fault injection for the parallel runtime
//! * [`tsmo_serve`] — solver service: daemon, wire protocol, job queue, client
//! * [`tsmo_cluster`] — distributed multi-process collaborative multisearch over TCP
//! * [`moea`] — NSGA-II baseline for the paper's future-work comparison
//! * [`runstats`] — statistics for the experiment harness
//! * [`detrand`] — deterministic random number generation

pub use deme;
pub use detrand;
pub use moea;
pub use pareto;
pub use runstats;
pub use tsmo_cluster;
pub use tsmo_core;
pub use tsmo_faults;
pub use tsmo_obs;
pub use tsmo_serve;
pub use vrptw;
pub use vrptw_construct;
pub use vrptw_operators;

/// Everything an example or downstream user typically needs.
pub mod prelude {
    pub use detrand::{DefaultRng, Rng, Xoshiro256StarStar};
    pub use moea::{Nsga2, Nsga2Config, Paes, PaesConfig, Spea2, Spea2Config};
    pub use pareto::{coverage, dominates, Archive, Dominance, ParetoFront};
    pub use tsmo_cluster::{run_mesh, MeshClient, MeshJob, NodeConfig, Noded};
    pub use tsmo_core::{
        AdaptiveMemoryTs, CancelToken, Clock, HybridTsmo, ParallelVariant, RunOptions,
        SelectionRule, SequentialTsmo, StopCause, TsmoConfig, TsmoOutcome, WeightedSumTs,
    };
    pub use tsmo_faults::{FaultConfig, FaultHook, FaultPlan};
    pub use tsmo_obs::{MemoryRecorder, Recorder, SearchEvent};
    pub use tsmo_serve::{Client, JobSpec, Server, ServerConfig};
    pub use vrptw::{
        generator::{GeneratorConfig, InstanceClass},
        Instance, Objectives, Solution,
    };
    pub use vrptw_construct::{i1, nearest_neighbor, randomized_i1, savings, sweep, I1Config};
    pub use vrptw_operators::{descend, DescentConfig};
}

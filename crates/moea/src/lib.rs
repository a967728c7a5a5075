//! NSGA-II, SPEA2 and PAES adapted to the multiobjective CVRPTW.
//!
//! The paper's stated future work is "a comparison between the TSMO
//! versions here and the well established multiobjective evolutionary
//! algorithms in both runtime and solution quality". This crate implements
//! those comparators: NSGA-II (Deb et al. 2000) and SPEA2 (Zitzler et al.
//! 2001) with routing-specific variation operators — best-cost route
//! crossover and neighborhood-move mutation — and the (1+1)-PAES of
//! Knowles & Corne (2000) with the same mutation. They search the same
//! three objectives under the same evaluation accounting as the tabu
//! searches, and each `run` returns a [`tsmo_core::TsmoOutcome`], so the
//! families can be compared on equal budgets by the ablation harness.

mod nsga2;
mod paes;
mod sorting;
mod spea2;
mod variation;

pub use nsga2::{Nsga2, Nsga2Config};
pub use paes::{Paes, PaesConfig};
pub use sorting::{crowded_compare, fast_non_dominated_sort};
pub use spea2::{Spea2, Spea2Config};
pub use variation::{best_cost_route_crossover, mutate};

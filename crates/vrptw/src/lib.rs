//! The Capacitated Vehicle Routing Problem with (soft) Time Windows.
//!
//! This crate is the problem substrate for the TSMO reproduction: the
//! instance model (§II of the paper), the permutation representation
//! (§II.A), the three-objective evaluation (total distance, vehicles
//! deployed, total tardiness), a Solomon-format parser for the classic
//! benchmark files, and a seeded generator that produces extended-Solomon
//! (Gehring–Homberger-like) instances of 100–1000 customers since the
//! original 400/600-city files are no longer publicly hosted.
//!
//! # Problem definition
//!
//! A depot (site `0`) houses up to `R` identical vehicles of capacity `m`.
//! Customers `1..=N` each have a location, a demand `d_i`, a time window
//! `[a_i, b_i]`, and a service time `c_i`. Travel cost and travel time
//! between sites are both the Euclidean distance. A vehicle arriving before
//! `a_i` waits; arriving after `b_i` incurs *tardiness* (soft time windows).
//!
//! The three minimization objectives, exactly as in the paper:
//!
//! * `f1` — total tour length,
//! * `f2` — number of vehicles actually deployed,
//! * `f3` — total tardiness over all sites (including late depot returns).
//!
//! # Example
//!
//! ```
//! use vrptw::{generator::{GeneratorConfig, InstanceClass}, Solution};
//!
//! let inst = GeneratorConfig::new(InstanceClass::R1, 100, 42).build();
//! // One customer per vehicle is always a valid (if poor) solution:
//! let sol = Solution::one_customer_per_route(&inst);
//! let obj = sol.evaluate(&inst);
//! assert!(obj.distance > 0.0);
//! assert_eq!(obj.vehicles, 100);
//! ```

pub mod eval;
pub mod generator;
pub mod model;
pub mod solomon;
pub mod solution;
pub mod stats;
pub mod timing;

pub use eval::{evaluate_route, Objectives, RouteEval};
pub use model::{Customer, Instance, SiteId, DEPOT};
pub use solution::{EvaluatedSolution, Solution, OBJECTIVE_TOLERANCE};
pub use timing::RouteTiming;

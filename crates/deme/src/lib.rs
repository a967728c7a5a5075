//! A small distributed-metaheuristics framework ("DEME" substrate).
//!
//! The paper's implementation "builds upon a framework called Distributed
//! metaheuristics or DEME for short" — a closed research framework. This
//! crate provides the roles that framework plays in the paper, implemented
//! with OS threads and crossbeam channels:
//!
//! * [`EvaluationBudget`] — a shared, atomically counted evaluation budget
//!   (the paper stops every variant after 100,000 evaluations, wherever
//!   those evaluations happen to be computed);
//! * [`MasterWorker`] — a master–worker pool for functional decomposition,
//!   supporting both the synchronous collect-everything pattern and the
//!   asynchronous partial-collection pattern of §III.C/D;
//! * [`SupervisorPolicy`] — the worker-recovery rules as a pure state
//!   machine: resend panicked tasks round-robin with a bounded retry
//!   budget, quarantine and respawn repeatedly failing workers, and
//!   degrade to master-local evaluation when live workers fall below
//!   quorum. [`Supervisor`] drives it over a [`MasterWorker`] pool on the
//!   wall clock; `tsmo-core`'s virtual executor drives the same policy in
//!   virtual time;
//! * [`multisearch`] — the rotating-communication-list topology of the
//!   collaborative multisearch variant (§III.E), with peer-liveness
//!   tracking (dead peers are skipped and probed for re-admission);
//! * [`RunClock`] — wall-clock measurement for the runtime/speedup columns.
//!
//! Nothing in here knows about vehicle routing: the framework is generic
//! over task, result, and message types.
//!
//! # Example
//!
//! ```
//! use deme::{EvaluationBudget, MasterWorker};
//!
//! // A shared budget: grants stop exactly at the maximum.
//! let budget = EvaluationBudget::new(100);
//! assert_eq!(budget.try_consume(60), 60);
//! assert_eq!(budget.try_consume(60), 40); // partial grant
//! assert!(budget.exhausted());
//!
//! // A worker pool computing squares. Each reply names its worker, and
//! // receives report worker panics as `Err(PoolError::WorkerPanicked)`
//! // instead of hanging the master.
//! let pool: MasterWorker<u64, u64> = MasterWorker::spawn(2, |_, x| x * x);
//! pool.send(0, 3);
//! pool.send(1, 4);
//! let mut squares = [0; 2];
//! for _ in 0..2 {
//!     let (worker, square) = pool.recv().expect("no worker panicked");
//!     squares[worker] = square;
//! }
//! assert_eq!(squares, [9, 16]);
//! pool.shutdown();
//! ```

mod budget;
mod master_worker;
pub mod multisearch;
mod supervisor;
#[doc(hidden)]
pub mod testkit;
pub mod virtual_time;

pub use budget::EvaluationBudget;
pub use master_worker::{MasterWorker, PoolError, WorkerStats};
pub use supervisor::{
    PanicPlan, Quarantine, RecoveryEvent, RecoveryStats, Route, Supervisor, SupervisorConfig,
    SupervisorPolicy,
};
pub use virtual_time::VirtualCluster;

use std::time::{Duration, Instant};

/// Wall-clock stopwatch for run-time reporting.
#[derive(Debug, Clone, Copy)]
pub struct RunClock {
    started: Instant,
}

impl Default for RunClock {
    fn default() -> Self {
        Self::start()
    }
}

impl RunClock {
    /// Starts the clock.
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Time elapsed since start.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Elapsed seconds as `f64` (the unit of the paper's runtime columns).
    pub fn seconds(&self) -> f64 {
        self.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_monotone() {
        let c = RunClock::start();
        let a = c.seconds();
        let b = c.seconds();
        assert!(b >= a);
        assert!(a >= 0.0);
    }
}

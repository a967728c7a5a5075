//! `tsmo-serve` — a solver service for the TSMO suite.
//!
//! The repository's algorithms run one search per process invocation;
//! this crate wraps them in a long-lived daemon so many clients can
//! share one solver host:
//!
//! * [`wire`] — length-prefixed JSON frames; requests
//!   Submit / Status / Cancel / Result / Wait / Tail / Health / Metrics /
//!   Shutdown. One `Submit` carries every kind of job: its
//!   [`JobSpec::mode`] is a plain search, a dynamic re-optimization
//!   (mutated epochs warm-started from the solution pool), or a portfolio
//!   race.
//! * [`queue`] — a bounded job queue with explicit `QueueFull`
//!   backpressure (the daemon never buffers unboundedly).
//! * [`cache`] — a content-hash-keyed instance cache, so resubmitting
//!   the same instance shares one `Arc<Instance>` instead of reparsing.
//! * [`job`] — the job table: lifecycle states, cancel tokens, waiters,
//!   and the bounded retention of finished jobs.
//! * [`server`] — the daemon itself: accept loop, worker pool running
//!   each job by its mode (collaborative searches on the node mesh when
//!   one is configured), per-job deadlines and cooperative cancellation
//!   ([`tsmo_core::CancelToken`]), HTTP `/healthz` + `/metrics` on the
//!   same port, and drain-then-stop shutdown.
//! * [`client`] — a blocking client library (used by `servectl` and by
//!   tsmobench's `serve-small` and `serve-mesh` workloads).
//!
//! Everything is std-only: the wire format reuses the zero-dependency
//! JSON support from `tsmo-obs`, and metrics come from the existing
//! recorder machinery. Cancelled or deadline-expired jobs return their
//! best-so-far front as a valid truncated run — byte-identical to a
//! prefix of the uncancelled run, because the token is checked before
//! any randomness is drawn each iteration.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod job;
pub mod queue;
pub mod server;
pub mod wire;

pub use cache::InstanceCache;
pub use client::Client;
pub use job::{JobState, JobTable};
pub use queue::{JobQueue, QueueFull};
pub use server::{Server, ServerConfig};
pub use wire::{
    DynamicParams, EpochInfo, FrontPoint, JobMode, JobResult, JobSpec, PortfolioParams, Request,
    Response, RoundInfo,
};

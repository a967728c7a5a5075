//! Structured search events and their JSONL encoding.
//!
//! Events carry **logical** time only: a sequence number assigned by the
//! recorder at append, plus whatever algorithmic counters (iteration,
//! staleness) the emitter provides. No wall-clock values appear in events,
//! so two runs with the same seed produce byte-identical streams. Runtime
//! measurements (busy fractions, queue depths over time) belong in the
//! metrics registry instead.
//!
//! [`SearchEvent`] is one [`wire_enum!`](crate::wire_enum) table: each
//! row is a variant with its wire `type` string and its fields in line
//! order, and the JSONL writer and parser are generated from it.

use crate::json::{self, Json};
use std::fmt::Write as _;

/// Declares a fieldless enum whose wire form is one string per variant,
/// and its [`json::Field`] codec.
macro_rules! keyword_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $word:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $( $(#[$vmeta])* $variant, )*
        }

        impl json::Field for $name {
            fn write_field(&self, out: &mut String) {
                out.push_str(match self {
                    $( Self::$variant => concat!("\"", $word, "\""), )*
                });
            }

            fn read_field(v: &Json) -> Result<Self, String> {
                match v.as_str() {
                    $( Some($word) => Ok(Self::$variant), )*
                    _ => Err(concat!("expected one of" $(, " ", $word)*).to_string()),
                }
            }
        }
    };
}

keyword_enum! {
    /// Why the search restarted from memory.
    pub enum RestartReason {
        /// The admissible neighborhood was empty (`s ∉ N`).
        EmptyPool = "empty_pool",
        /// `M_archive` was unchanged for the configured stagnation limit.
        Stagnation = "stagnation",
    }
}

keyword_enum! {
    /// Direction of a collaborative-multisearch exchange, from the emitting
    /// searcher's point of view.
    pub enum ExchangeDirection {
        /// The searcher broadcast an improving solution to a peer.
        Sent = "sent",
        /// The searcher drained a solution from its inbox.
        Received = "received",
    }
}

keyword_enum! {
    /// The category of an injected fault. Mirrors `tsmo_faults::FaultKind`
    /// (kept as a plain string pair here so the obs crate stays
    /// zero-dependency).
    pub enum FaultKind {
        /// A worker task was made to panic.
        TaskPanic = "task_panic",
        /// A worker task was stalled before computing.
        TaskStall = "task_stall",
        /// A worker task's result was delivered late.
        TaskLate = "task_late",
        /// An exchange message was dropped.
        ExchangeDrop = "exchange_drop",
        /// An exchange message was delayed.
        ExchangeDelay = "exchange_delay",
    }
}

crate::wire_enum! {
    /// One structured event from the search. `searcher` is 0 for the
    /// single-searcher variants and the collaborative searcher index otherwise.
    #[derive(Debug, Clone, PartialEq)]
    pub enum SearchEvent {
        /// One selection step completed.
        Iteration = "iteration" {
            /// Emitting searcher.
            searcher: u32,
            /// Iteration number the step ran as.
            iteration: u64,
            /// Neighbors offered to selection.
            pool: u32,
            /// Neighbors that survived the tabu filter.
            admissible: u32,
            /// Objective vector of the selected neighbor (`None` on restart
            /// steps with an empty admissible set).
            chosen: Option<[f64; 3]>,
        },
        /// The search restarted from `M_nondom ∪ M_archive`.
        Restart = "restart" {
            /// Emitting searcher.
            searcher: u32,
            /// Iteration at which the restart happened.
            iteration: u64,
            /// What triggered it.
            reason: RestartReason,
        },
        /// A solution entered `M_archive`.
        ArchiveInsert = "archive_insert" {
            /// Emitting searcher.
            searcher: u32,
            /// Iteration of the insertion.
            iteration: u64,
            /// The inserted objective vector.
            objectives: [f64; 3],
        },
        /// The archive stagnation streak reached the configured limit; a
        /// restart from memory follows on the same iteration.
        SearchStagnated = "search_stagnated" {
            /// Emitting searcher.
            searcher: u32,
            /// Iteration at which the limit was hit.
            iteration: u64,
            /// Consecutive steps without an `M_archive` change.
            streak: u64,
        },
        /// A neighbor was rejected by the tabu list.
        TabuHit = "tabu_hit" {
            /// Emitting searcher.
            searcher: u32,
            /// Iteration of the check.
            iteration: u64,
        },
        /// A collaborative exchange on the communication lists.
        Exchange = "exchange" {
            /// Emitting searcher.
            searcher: u32,
            /// The peer on the other end.
            peer: u32,
            /// Sent or received.
            direction: ExchangeDirection,
            /// The exchanged objective vector.
            objectives: [f64; 3],
        },
        /// The master dispatched a neighborhood task to a worker.
        WorkerTask = "worker_task" {
            /// Receiving worker.
            worker: u32,
            /// Iteration the task was generated for.
            iteration: u64,
            /// Neighbors requested.
            count: u32,
        },
        /// A worker returned an evaluated chunk to the master.
        WorkerResult = "worker_result" {
            /// Responding worker.
            worker: u32,
            /// Iteration the chunk was generated for.
            iteration: u64,
            /// Neighbors delivered.
            neighbors: u32,
        },
        /// Stale neighbors were consumed by a step (asynchronous variants:
        /// results generated from an older current solution).
        Staleness = "staleness" {
            /// Emitting searcher.
            searcher: u32,
            /// Iteration that consumed the stale neighbors.
            iteration: u64,
            /// Age in iterations of the oldest neighbor in the step's pool.
            max_staleness: u64,
            /// How many neighbors in the pool were stale (age > 0).
            stale: u32,
        },
        /// The fault layer injected a fault (see the `tsmo-faults` crate).
        FaultInjected = "fault_injected" {
            /// The decision site: the worker id for task faults, the sending
            /// searcher for exchange faults.
            site: u32,
            /// The site-local decision sequence number.
            fault_seq: u64,
            /// What was injected.
            kind: FaultKind,
        },
        /// The supervisor resent a panicked or lost task.
        TaskResent = "task_resent" {
            /// The worker the task is resent *to*.
            worker: u32,
            /// Master iteration at resend time.
            iteration: u64,
            /// Resend attempt number for this task (1-based).
            attempt: u32,
        },
        /// A worker exceeded its consecutive-panic limit and was taken out of
        /// the dispatch rotation.
        WorkerQuarantined = "worker_quarantined" {
            /// The quarantined worker.
            worker: u32,
            /// Master iteration at quarantine time.
            iteration: u64,
        },
        /// A quarantined worker was replaced with a fresh thread and
        /// re-admitted to the rotation.
        WorkerRespawned = "worker_respawned" {
            /// The respawned worker.
            worker: u32,
            /// Master iteration at respawn time.
            iteration: u64,
        },
        /// The live worker pool fell below the quorum; the master continues
        /// alone (sequential evaluation) instead of erroring.
        DegradedMode = "degraded_mode" {
            /// Master iteration when degradation began.
            iteration: u64,
            /// Live workers remaining at that point.
            live_workers: u32,
        },
        /// A communication-list peer was declared dead after a failed
        /// delivery (in-process channel or network transport alike).
        PeerDead = "peer_dead" {
            /// The searcher that observed the failure.
            searcher: u32,
            /// The peer declared dead.
            peer: u32,
        },
        /// A dead peer answered a probe and re-entered the rotation.
        PeerReadmitted = "peer_readmitted" {
            /// The searcher whose probe succeeded.
            searcher: u32,
            /// The peer re-admitted.
            peer: u32,
        },
        /// A node was admitted into the cluster membership (late join or
        /// re-admission after a kill); the epoch bumps with every transition.
        MemberJoined = "member_joined" {
            /// The admitted node's member index.
            node: u32,
            /// Membership epoch after the admission.
            epoch: u64,
        },
        /// A node left the cluster membership (graceful leave or declared
        /// dead by the control plane).
        MemberLeft = "member_left" {
            /// The departed node's member index.
            node: u32,
            /// Membership epoch after the departure.
            epoch: u64,
        },
        /// The rebalancer assigned a node its contiguous slice of global
        /// searcher ids after a membership change.
        SliceRebalanced = "slice_rebalanced" {
            /// Membership epoch the assignment belongs to.
            epoch: u64,
            /// The node receiving the slice.
            node: u32,
            /// First global searcher id of the slice.
            start: u32,
            /// Number of ids in the slice.
            len: u32,
        },
        /// A node checkpointed its archive to its ring successor.
        ArchiveReplicated = "archive_replicated" {
            /// The node whose archive was checkpointed.
            node: u32,
            /// The ring successor now holding the replica.
            holder: u32,
            /// Entries in the checkpointed front.
            entries: u32,
        },
        /// The solver service admitted a job to its queue.
        JobAdmitted = "job_admitted" {
            /// Service-assigned job id.
            job: u64,
            /// Queue depth right after admission.
            depth: u32,
        },
        /// The solver service rejected a submission with `QueueFull`.
        JobRejected = "job_rejected" {
            /// Service-assigned id the job would have received.
            job: u64,
            /// Queue depth at rejection time (the configured capacity).
            depth: u32,
        },
        /// A job's run was truncated by an explicit cancel request.
        JobCancelled = "job_cancelled" {
            /// The cancelled job.
            job: u64,
        },
        /// A job's run was truncated by its deadline.
        JobDeadlineExceeded = "job_deadline_exceeded" {
            /// The expired job.
            job: u64,
        },
        /// A job reached a terminal state with a result front available.
        JobCompleted = "job_completed" {
            /// The finished job.
            job: u64,
            /// Search iterations the run performed.
            iterations: u64,
            /// Whether the run was stopped early (cancel or deadline).
            truncated: bool,
        },
        /// A profiling span opened. Carries only logical fields — the wall
        /// time of the span feeds the profiler/metrics, never the stream.
        SpanEnter = "span_enter" {
            /// The run's trace id (shared by a whole distributed run).
            trace: u64,
            /// Recorder-assigned span id, unique within the recorder.
            span: u64,
            /// Enclosing span id (0 for a root span).
            parent: u64,
            /// Phase name, e.g. `evaluate` or `archive`.
            name: String,
        },
        /// A profiling span closed.
        SpanExit = "span_exit" {
            /// The run's trace id.
            trace: u64,
            /// The span being closed.
            span: u64,
            /// Phase name (repeated so exits are self-describing).
            name: String,
        },
        /// Periodic convergence sample of the live archive's front quality.
        FrontSample = "front_sample" {
            /// Emitting searcher.
            searcher: u32,
            /// Iteration at sample time.
            iteration: u64,
            /// Evaluations consumed by this searcher at sample time.
            evaluations: u64,
            /// Entries in `M_archive`.
            size: u32,
            /// 2-D hypervolume of the archive projected to
            /// (distance, vehicles).
            hypervolume: f64,
            /// Coverage `C(archive, M_nondom)` — the fraction of `M_nondom`
            /// weakly dominated by the live archive.
            coverage: f64,
        },
        /// A portfolio round finished and one contender's front was scored
        /// against the union of the other contenders' fronts.
        RoundScored = "round_scored" {
            /// Portfolio round index (0-based).
            round: u32,
            /// Contender index within the portfolio.
            contender: u32,
            /// Mean coverage `C(this, other)` over the other contenders.
            coverage: f64,
            /// Hypervolume of the contender's front (reallocation tiebreak).
            hypervolume: f64,
        },
        /// The portfolio scheduler granted a contender its slice of the next
        /// round's evaluation budget.
        BudgetReallocated = "budget_reallocated" {
            /// Round the slice is granted *for* (1-based; round 0 slices are
            /// the uniform opening allocation).
            round: u32,
            /// Receiving contender.
            contender: u32,
            /// Evaluations in the granted slice.
            evaluations: u64,
        },
        /// A contender pinned at the budget floor was retired from the race;
        /// its share flows back to the live contenders.
        ContenderRetired = "contender_retired" {
            /// Round after which the retirement took effect.
            round: u32,
            /// The retired contender.
            contender: u32,
        },
    }
}

/// An event stamped with its logical sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Position in the recorder's stream, starting at 0.
    pub seq: u64,
    /// The event itself.
    pub event: SearchEvent,
}

impl TimedEvent {
    /// Encodes the event as one JSON line (no trailing newline):
    /// `{"seq":N,"type":…` and then the event's fields. Field order is
    /// fixed, so equal events encode byte-identically.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"seq\":{},", self.seq);
        self.event.write_fields(&mut s);
        s.push('}');
        s
    }

    /// Parses one JSONL line produced by [`to_json_line`].
    ///
    /// [`to_json_line`]: TimedEvent::to_json_line
    pub fn parse_json_line(line: &str) -> Result<Self, String> {
        let doc = json::parse(line).map_err(|e| e.to_string())?;
        Ok(TimedEvent {
            seq: json::field(&doc, "seq")?,
            event: SearchEvent::from_json(&doc)?,
        })
    }
}

/// Parses a whole JSONL stream (blank lines are skipped). Returns the
/// failing 1-based line number alongside the message on error.
pub fn parse_events_jsonl(input: &str) -> Result<Vec<TimedEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(TimedEvent::parse_json_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

//! Central registry of metric names.
//!
//! Every metric sample name used anywhere in the suite is declared here,
//! so emitters (the search core, the parallel runtimes, the cluster, the
//! solver service) and consumers (`benchdiff`, `clusterctl`,
//! `servectl top`, dashboards) agree by construction instead of by
//! convention. Adding a metric means adding a constant (or labeled-name
//! helper) here first; grepping for a name string outside this module is
//! a bug.
//!
//! Metric names follow Prometheus conventions (`tsmo_` prefix, `_total`
//! suffix on counters); labeled samples inline the label block, e.g.
//! `tsmo_operator_proposed_total{operator="relocate"}`. Event `type`
//! strings are not here: each lives once, next to its variant, in the
//! [`SearchEvent`](crate::SearchEvent) table, which generates the JSONL
//! writer and parser.

/// Selection steps completed (counter).
pub const ITERATIONS: &str = "tsmo_iterations_total";
/// Restarts from memory (counter; see the labeled variants).
pub const RESTARTS: &str = "tsmo_restarts_total";
/// Restarts due to an empty admissible pool (counter).
pub const RESTARTS_EMPTY_POOL: &str = "tsmo_restarts_total{reason=\"empty_pool\"}";
/// Restarts due to archive stagnation (counter).
pub const RESTARTS_STAGNATION: &str = "tsmo_restarts_total{reason=\"stagnation\"}";
/// Neighbors rejected by the tabu list (counter).
pub const TABU_HITS: &str = "tsmo_tabu_hits_total";
/// Accepted `M_archive` insertions (counter).
pub const ARCHIVE_INSERTS: &str = "tsmo_archive_inserts_total";
/// Accepted `M_nondom` insertions (counter).
pub const NONDOM_INSERTS: &str = "tsmo_nondom_inserts_total";
/// Objective evaluations consumed (counter).
pub const EVALUATIONS: &str = "tsmo_evaluations_total";
/// Multisearch messages sent on communication lists (counter).
pub const EXCHANGE_SENT: &str = "tsmo_exchange_sent_total";
/// Multisearch messages drained from inboxes (counter).
pub const EXCHANGE_RECEIVED: &str = "tsmo_exchange_received_total";
/// Stale neighbors consumed by steps (counter).
pub const STALE_NEIGHBORS: &str = "tsmo_stale_neighbors_total";
/// Largest staleness (iterations) seen in any step (gauge).
pub const STALENESS_MAX: &str = "tsmo_staleness_max";
/// Final archive size (gauge).
pub const ARCHIVE_SIZE: &str = "tsmo_archive_size";
/// Wall-clock runtime of the run (gauge, seconds).
pub const RUNTIME_SECONDS: &str = "tsmo_runtime_seconds";
/// Pool size offered to each step (histogram).
pub const POOL_SIZE: &str = "tsmo_pool_size";
/// Per-neighbor staleness in iterations (histogram).
pub const NEIGHBOR_STALENESS: &str = "tsmo_neighbor_staleness";
/// Master-observed result queue depth at each poll (histogram).
pub const RESULT_QUEUE_DEPTH: &str = "tsmo_result_queue_depth";
/// Faults injected by the fault layer, all kinds (counter).
pub const FAULTS_INJECTED: &str = "tsmo_faults_injected_total";
/// Panicked or lost tasks resent by the supervisor (counter).
pub const TASKS_RESENT: &str = "tsmo_tasks_resent_total";
/// Tasks abandoned after the retry budget was exhausted (counter).
pub const TASKS_LOST: &str = "tsmo_tasks_lost_total";
/// Workers quarantined after consecutive panics (counter).
pub const WORKERS_QUARANTINED: &str = "tsmo_workers_quarantined_total";
/// Quarantined workers replaced with fresh threads (counter).
pub const WORKERS_RESPAWNED: &str = "tsmo_workers_respawned_total";
/// Exchange messages skipped because every peer was dead (counter).
pub const EXCHANGE_UNDELIVERABLE: &str = "tsmo_exchange_undeliverable_total";
/// 1 while the run is in master-only degraded mode, else 0 (gauge).
pub const DEGRADED_MODE: &str = "tsmo_degraded_mode";
/// Solver-service jobs admitted to the queue (counter).
pub const JOBS_ADMITTED: &str = "tsmo_jobs_admitted_total";
/// Jobs rejected with `QueueFull` backpressure (counter).
pub const JOBS_REJECTED: &str = "tsmo_jobs_rejected_total";
/// Jobs whose run was truncated by an explicit Cancel (counter).
pub const JOBS_CANCELLED: &str = "tsmo_jobs_cancelled_total";
/// Jobs whose run was truncated by their deadline (counter).
pub const JOBS_DEADLINE_EXCEEDED: &str = "tsmo_jobs_deadline_exceeded_total";
/// Jobs that reached a terminal state, truncated or not (counter).
pub const JOBS_COMPLETED: &str = "tsmo_jobs_completed_total";
/// Current solver-service queue depth (gauge).
pub const QUEUE_DEPTH: &str = "tsmo_queue_depth";
/// Submit-to-result latency of completed jobs, milliseconds
/// (histogram; the default buckets cover 0–250 ms, larger runs land
/// in `+Inf`).
pub const JOB_LATENCY_MS: &str = "tsmo_job_latency_ms";
/// Admission-to-dequeue wait of a job in the solver-service queue,
/// milliseconds (histogram; one sample per job a worker picks up).
pub const JOB_QUEUE_WAIT_MS: &str = "tsmo_job_queue_wait_ms";
/// Dequeue-to-terminal run time of a job on a worker, milliseconds
/// (histogram; one sample per job that reaches `done` or `failed`).
pub const JOB_RUN_MS: &str = "tsmo_job_run_ms";
/// Instance-cache lookups answered without re-parsing (counter).
pub const INSTANCE_CACHE_HITS: &str = "tsmo_instance_cache_hits_total";
/// Instance-cache lookups that had to parse the payload (counter).
pub const INSTANCE_CACHE_MISSES: &str = "tsmo_instance_cache_misses_total";

/// Cluster exchange payloads sent, all peers (counter; see the
/// per-peer labeled variant [`exchanges_sent_to_peer`]).
pub const EXCHANGES_SENT: &str = "tsmo_exchanges_sent_total";
/// Cluster exchange payloads received, all peers (counter; see the
/// per-peer labeled variant [`exchanges_received_from_peer`]).
pub const EXCHANGES_RECEIVED: &str = "tsmo_exchanges_received_total";
/// Round-trip time of peer handshakes/probes, milliseconds (histogram).
pub const PEER_RTT_MS: &str = "tsmo_peer_rtt_ms";
/// Peers declared dead after a failed delivery (counter).
pub const PEERS_DEAD: &str = "tsmo_peers_dead_total";
/// Dead peers re-admitted by a successful probe (counter).
pub const PEERS_READMITTED: &str = "tsmo_peers_readmitted_total";

/// Nodes admitted into the cluster membership (counter; one per
/// `member_joined` event).
pub const MEMBERS_JOINED: &str = "tsmo_members_joined_total";
/// Nodes that left the membership — graceful leave or declared dead
/// (counter; one per `member_left` event).
pub const MEMBERS_LEFT: &str = "tsmo_members_left_total";
/// Contiguous searcher-id slices reassigned by the rebalancer
/// (counter; one per `slice_rebalanced` event).
pub const SLICES_REBALANCED: &str = "tsmo_slices_rebalanced_total";
/// Archive checkpoints delivered to a ring successor (counter; one
/// per `archive_replicated` event).
pub const ARCHIVES_REPLICATED: &str = "tsmo_archives_replicated_total";
/// Node fronts restored from a successor's replica — on re-admission
/// or at final merge (counter).
pub const ARCHIVES_RECOVERED: &str = "tsmo_archives_recovered_total";
/// Current membership epoch (gauge; bumps on every join/leave).
pub const MEMBERSHIP_EPOCH: &str = "tsmo_membership_epoch";

/// Portfolio rounds scored (counter; one per contender per round).
pub const PORTFOLIO_ROUNDS_SCORED: &str = "tsmo_portfolio_rounds_scored_total";
/// Portfolio budget slices granted (counter).
pub const PORTFOLIO_REALLOCATIONS: &str = "tsmo_portfolio_reallocations_total";
/// Contenders retired at the budget floor (counter).
pub const PORTFOLIO_CONTENDERS_RETIRED: &str = "tsmo_portfolio_contenders_retired_total";
/// Evaluations spent through portfolio slices (counter).
pub const PORTFOLIO_EVALUATIONS: &str = "tsmo_portfolio_evaluations_total";

// ---- operator attribution (tsmo-insight) ------------------------------

/// Moves drawn by the sampler, per operator — the raw proposal count
/// before any feasibility filter (counter family; labeled by operator).
pub const OPERATOR_PROPOSED: &str = "tsmo_operator_proposed_total";
/// Proposals that survived arc-feasibility and capacity filters and
/// entered the candidate pool (counter family; labeled by operator).
pub const OPERATOR_FEASIBLE: &str = "tsmo_operator_feasible_total";
/// Pool neighbors selected as the next current solution (counter
/// family; labeled by operator).
pub const OPERATOR_ACCEPTED: &str = "tsmo_operator_accepted_total";
/// Selected neighbors that entered `M_archive` — the paper's
/// "improving solutions" (counter family; labeled by operator).
pub const OPERATOR_IMPROVING: &str = "tsmo_operator_improving_total";
/// Pool neighbors rejected by the tabu list (counter family; labeled
/// by operator).
pub const OPERATOR_TABU_REJECTED: &str = "tsmo_operator_tabu_rejected_total";

/// Entries pruned out of `M_archive` by dominating insertions
/// (counter).
pub const ARCHIVE_PRUNES: &str = "tsmo_archive_prunes_total";
/// Final 2-D hypervolume of `M_archive` projected to
/// (distance, vehicles) (gauge).
pub const ARCHIVE_HYPERVOLUME: &str = "tsmo_archive_hypervolume";
/// Hypervolume gained over the run: final minus first-insert baseline
/// (gauge).
pub const ARCHIVE_HYPERVOLUME_DELTA: &str = "tsmo_archive_hypervolume_delta";
/// Longest run of consecutive steps without an `M_archive` change
/// (gauge).
pub const STAGNATION_STREAK_MAX: &str = "tsmo_stagnation_streak_max";
/// Times the stagnation limit was reached and a `search_stagnated`
/// event fired (counter).
pub const SEARCH_STAGNATED: &str = "tsmo_search_stagnated_total";

/// Sample name of one operator-attribution counter, e.g.
/// `operator_counter(OPERATOR_PROPOSED, "relocate")` →
/// `tsmo_operator_proposed_total{operator="relocate"}`.
pub fn operator_counter(family: &str, operator: &str) -> String {
    format!("{family}{{operator=\"{operator}\"}}")
}

// ---- federation -------------------------------------------------------

/// Per-node liveness gauge in a merged exposition: 1 if the node
/// answered the metrics fetch, 0 if it was down (gauge).
pub fn node_up(node: &str) -> String {
    format!("tsmo_node_up{{node=\"{node}\"}}")
}

/// Per-phase closed-span count from the self-profiler (counter).
pub fn span_calls(span: &str) -> String {
    format!("tsmo_span_calls_total{{span=\"{span}\"}}")
}

/// Per-phase wall seconds folded by the self-profiler (gauge; wall
/// clock, so it lives in metrics, never events).
pub fn span_seconds(span: &str) -> String {
    format!("tsmo_span_seconds_total{{span=\"{span}\"}}")
}

/// Per-peer sent-exchange sample name (counter).
pub fn exchanges_sent_to_peer(peer: usize) -> String {
    format!("tsmo_exchanges_sent_total{{peer=\"{peer}\"}}")
}

/// Per-peer received-exchange sample name (counter).
pub fn exchanges_received_from_peer(peer: usize) -> String {
    format!("tsmo_exchanges_received_total{{peer=\"{peer}\"}}")
}

/// Per-worker busy fraction sample name (gauge in `[0, 1]`).
pub fn worker_busy_fraction(worker: usize) -> String {
    format!("tsmo_worker_busy_fraction{{worker=\"{worker}\"}}")
}

/// Per-worker completed task count (counter).
pub fn worker_tasks(worker: usize) -> String {
    format!("tsmo_worker_tasks_total{{worker=\"{worker}\"}}")
}

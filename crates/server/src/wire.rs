//! The wire protocol: length-prefixed JSON frames and the request /
//! response vocabulary.
//!
//! A frame is a big-endian `u32` payload length followed by that many
//! bytes of UTF-8 JSON. One request frame yields exactly one response
//! frame; a client may pipeline multiple requests on one connection.
//! Encoding reuses the zero-dependency JSON support from `tsmo-obs`
//! ([`tsmo_obs::json`]) and its typed field readers, the same ones the
//! node protocol uses, so the whole service layer adds no external
//! dependencies. Field order is fixed by the writers, so equal messages
//! encode byte-identically — the same property the telemetry layer has.
//!
//! Every job — a plain search, a dynamic re-optimization, or a portfolio
//! race — is one `Submit` whose [`JobSpec::mode`] says which. A plain
//! search writes no mode field, so its frame carries only the search
//! settings; the other modes append a `"dynamic"` or `"portfolio"` object.
//!
//! [`Request`] and [`Response`] are [`tsmo_obs::wire_enum!`] tables: each
//! row is a message with its wire `type` string and its fields in frame
//! order, and the writers and readers are generated from them. The nested
//! payloads ([`JobSpec`], [`JobResult`], [`DynamicParams`],
//! [`PortfolioParams`]) keep hand-written codecs, which carry the defaults
//! older clients rely on.

use std::fmt::Write as _;
use tsmo_obs::json::{self, field, req_array, routes_from, write_array, Field, Json};

// Framing moved to `tsmo_obs::frame` so the cluster crate can share it
// without depending on the service layer; re-exported here so existing
// `wire::read_frame` / `wire::write_frame` callers keep compiling.
pub use tsmo_obs::frame::{read_frame, write_frame, MAX_FRAME_LEN};

/// What a client asks the daemon to run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The instance, as Solomon-format text (parsed — and cached by
    /// content hash — on the server).
    pub instance_text: String,
    /// Variant name: `sequential`, `synchronous`, `asynchronous`, or
    /// `collaborative`.
    pub variant: String,
    /// Processor / searcher count for the parallel variants (ignored by
    /// `sequential`).
    pub processors: usize,
    /// Evaluation budget.
    pub max_evaluations: u64,
    /// Neighborhood size per iteration.
    pub neighborhood_size: usize,
    /// Master seed.
    pub seed: u64,
    /// Optional deadline in milliseconds, measured from admission.
    pub deadline_ms: Option<u64>,
    /// Optional hard iteration cap (deterministic truncation).
    pub max_iterations: Option<u64>,
    /// Keep the job's full event stream (spans included) in memory so
    /// `Tail` can stream it. Off by default: event streams grow with run
    /// length, which is why the daemon's shared recorder is metrics-only.
    pub record_events: bool,
    /// What the job runs with this spec: one search (the default), a
    /// sequence of re-optimization epochs, or a portfolio race.
    pub mode: JobMode,
}

/// The kind of job a [`JobSpec`] describes. A decision maker submits one
/// spec and re-submits it with another mode or new parameters; the
/// search settings (instance, variant, budget, seed) mean the same in
/// every mode.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum JobMode {
    /// One search run by `variant` (on the node mesh, for `collaborative`
    /// jobs on a mesh-backed daemon).
    #[default]
    Search,
    /// Re-optimization epochs: the instance is mutated between epochs per
    /// a deterministic script and each epoch re-solves with the spec's
    /// budget.
    Dynamic(DynamicParams),
    /// A portfolio race: the named algorithms share the spec's evaluation
    /// budget across scored rounds with coverage-driven reallocation.
    Portfolio(PortfolioParams),
}

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            instance_text: String::new(),
            variant: "sequential".to_string(),
            processors: 1,
            max_evaluations: 10_000,
            neighborhood_size: 50,
            seed: 0,
            deadline_ms: None,
            max_iterations: None,
            record_events: false,
            mode: JobMode::Search,
        }
    }
}

/// How a dynamic re-optimization job unfolds. The server regenerates the
/// mutation script deterministically from `(instance, script_seed)`, so
/// the wire payload stays small and a resubmission replays the identical
/// scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicParams {
    /// Seed of the scenario script (mutation schedule).
    pub script_seed: u64,
    /// Total epochs, including the unmutated base epoch.
    pub epochs: usize,
    /// Mutations applied between consecutive epochs.
    pub mutations_per_epoch: usize,
    /// Warm-start each epoch from the previous front (and epoch 0 from
    /// the daemon's solution pool). `false` runs the cold control arm.
    pub warm: bool,
}

impl Default for DynamicParams {
    fn default() -> Self {
        Self {
            script_seed: 0,
            epochs: 3,
            mutations_per_epoch: 4,
            warm: true,
        }
    }
}

impl Field for DynamicParams {
    fn write_field(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"script_seed\":{},\"epochs\":{},\"mutations_per_epoch\":{},\"warm\":{}}}",
            self.script_seed, self.epochs, self.mutations_per_epoch, self.warm
        );
    }

    fn read_field(doc: &Json) -> Result<Self, String> {
        Ok(Self {
            script_seed: field(doc, "script_seed")?,
            epochs: field(doc, "epochs")?,
            mutations_per_epoch: field(doc, "mutations_per_epoch")?,
            // Lenient: absent means the default (warm).
            warm: field::<Option<bool>>(doc, "warm")?.unwrap_or(true),
        })
    }
}

/// How a portfolio race is set up. The per-slice search parameters
/// (budget, seed, neighborhood, processors) ride in the accompanying
/// [`JobSpec`]; these are the scheduler knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioParams {
    /// Contender algorithm names (`tsmo-seq`, `tsmo-sync`, `tsmo-async`,
    /// `tsmo-collab`, `nsga2`, `spea2`, `paes`).
    pub algos: Vec<String>,
    /// Racing rounds the budget is split into.
    pub rounds: u32,
    /// Budget floor as a fraction of the uniform share.
    pub floor: f64,
    /// η-greedy exploration rate.
    pub eta: f64,
    /// Softmax temperature over the coverage scores.
    pub softmax_beta: f64,
    /// Retire after this many consecutive floor rounds (0 disables).
    pub retire_after: u32,
}

impl Default for PortfolioParams {
    fn default() -> Self {
        Self {
            algos: vec![
                "tsmo-collab".to_string(),
                "nsga2".to_string(),
                "spea2".to_string(),
            ],
            rounds: 4,
            floor: 0.25,
            eta: 0.1,
            softmax_beta: 4.0,
            retire_after: 2,
        }
    }
}

impl Field for PortfolioParams {
    fn write_field(&self, out: &mut String) {
        out.push_str("{\"algos\":");
        self.algos.write_field(out);
        let _ = write!(out, ",\"rounds\":{},\"floor\":", self.rounds);
        json::write_f64(out, self.floor);
        out.push_str(",\"eta\":");
        json::write_f64(out, self.eta);
        out.push_str(",\"softmax_beta\":");
        json::write_f64(out, self.softmax_beta);
        let _ = write!(out, ",\"retire_after\":{}}}", self.retire_after);
    }

    fn read_field(doc: &Json) -> Result<Self, String> {
        let defaults = Self::default();
        Ok(Self {
            algos: field(doc, "algos")?,
            rounds: field(doc, "rounds")?,
            // Lenient: absent scheduler knobs take the defaults.
            floor: field::<Option<f64>>(doc, "floor")?.unwrap_or(defaults.floor),
            eta: field::<Option<f64>>(doc, "eta")?.unwrap_or(defaults.eta),
            softmax_beta: field::<Option<f64>>(doc, "softmax_beta")?
                .unwrap_or(defaults.softmax_beta),
            retire_after: field::<Option<u32>>(doc, "retire_after")?
                .unwrap_or(defaults.retire_after),
        })
    }
}

tsmo_obs::wire_enum! {
    /// A request frame.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Enqueue a job of any [`JobMode`]; answered with `Submitted` or
        /// `QueueFull`.
        Submit = "submit" {
            /// What to run.
            spec: JobSpec,
        },
        /// Query a job's lifecycle state.
        Status = "status" {
            /// The job to query.
            job: u64,
        },
        /// Cooperatively cancel a job (queued or running).
        Cancel = "cancel" {
            /// The job to cancel.
            job: u64,
        },
        /// Fetch a terminal job's result front.
        Result = "result" {
            /// The job whose result to fetch.
            job: u64,
        },
        /// Block until a job is terminal, for at most `timeout_ms`: answered
        /// with `JobResult` once it is done, `Error` if it failed, or
        /// `JobStatus` with its current state when the timeout runs out
        /// first.
        Wait = "wait" {
            /// The job to wait for.
            job: u64,
            /// Longest the daemon holds the request, in milliseconds.
            timeout_ms: u64,
        },
        /// Stream a job's recorded events (submitted with `record_events`).
        /// Unlike every other request, the answer is a *sequence* of frames:
        /// `TailEvent` per JSONL line as the job runs, then one `TailDone`.
        Tail = "tail" {
            /// The job to tail.
            job: u64,
        },
        /// Liveness / readiness probe.
        Health = "health",
        /// Prometheus text exposition of the daemon's metrics.
        Metrics = "metrics",
        /// The daemon's metrics as a mergeable JSON registry. Unlike
        /// `Metrics`, whose prometheus text is render-only, this answer can
        /// be re-parsed with [`tsmo_obs::MetricsRegistry::from_json`] and
        /// folded into a federated view.
        MetricsJson = "metrics_json",
        /// Drain the queue, finish running jobs, then stop accepting work.
        /// Answered with `ShutdownComplete` *after* the drain finishes.
        Shutdown = "shutdown",
    }
}

/// One entry of a result front: the objective vector plus the routes
/// realizing it — the same type the node mesh exchanges.
pub type FrontPoint = tsmo_cluster::ExchangeEntry;

/// Summary of one epoch of a dynamic job.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochInfo {
    /// Epoch index (0 = base instance).
    pub epoch: u64,
    /// Mutations applied before this epoch.
    pub mutations: u64,
    /// Customers of this epoch's instance.
    pub customers: u64,
    /// Warm-start seeds the epoch's searchers started from.
    pub warm_seeds: u64,
    /// Evaluations the epoch consumed.
    pub evaluations: u64,
    /// Size of the epoch's non-dominated front.
    pub front_size: u64,
    /// Best (minimum) total distance on the epoch's front.
    pub best_distance: f64,
}

/// Summary of one round of a portfolio job.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundInfo {
    /// Round index (0-based).
    pub round: u64,
    /// The round's coverage winner (contender index).
    pub winner: u64,
    /// The winner's algorithm name.
    pub winner_algo: String,
    /// Evaluations allocated across the round's live contenders.
    pub allocated: u64,
    /// Evaluations actually consumed.
    pub spent: u64,
    /// Contenders retired at the end of the round.
    pub retired: u64,
    /// The winner's mean coverage over the other live fronts.
    pub best_coverage: f64,
}

/// A terminal job's payload.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Evaluations actually consumed.
    pub evaluations: u64,
    /// Search iterations performed.
    pub iterations: u64,
    /// Whether the run was stopped before budget exhaustion.
    pub truncated: bool,
    /// Why it stopped early (`cancelled`, `deadline_exceeded`,
    /// `iteration_limit`), if it did.
    pub stop_cause: Option<String>,
    /// The non-dominated front of the run. Time windows are soft, so
    /// entries may carry tardiness (`objectives[2]`); filter on zero
    /// tardiness for hard-feasible solutions.
    pub front: Vec<FrontPoint>,
    /// Per-epoch summaries of a dynamic job; empty for other modes
    /// (whose single run *is* the result). For dynamic jobs `front` is
    /// the final epoch's front.
    pub epochs: Vec<EpochInfo>,
    /// Per-round summaries of a portfolio job; empty otherwise. For
    /// portfolio jobs `front` is the stage-two merged front.
    pub rounds: Vec<RoundInfo>,
}

tsmo_obs::wire_enum! {
    /// A response frame.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// The job was admitted at the reported queue depth.
        Submitted = "submitted" {
            /// Assigned job id.
            job: u64,
            /// Queue depth right after admission.
            depth: u32,
        },
        /// Backpressure: the queue is at capacity; retry later.
        QueueFull = "queue_full" {
            /// The configured queue capacity.
            capacity: u32,
        },
        /// A job's current lifecycle state.
        JobStatus = "job_status" {
            /// The queried job.
            job: u64,
            /// `queued`, `running`, `done`, or `failed`.
            state: String,
        },
        /// Cancellation was requested (the job stops at its next iteration).
        CancelAccepted = "cancel_accepted" {
            /// The cancelled job.
            job: u64,
        },
        /// A terminal job's result.
        JobResult = "job_result" {
            /// The job the result belongs to.
            job: u64,
            /// The result payload.
            result: JobResult,
        },
        /// The daemon's health snapshot; also the body of HTTP `/healthz`.
        Health = "health" {
            /// `ok` or `draining`.
            status: String,
            /// Jobs waiting in the queue.
            queued: u32,
            /// Jobs currently on a worker.
            running: u32,
            /// Worker threads serving the queue.
            workers: u32,
        },
        /// Prometheus text exposition.
        Metrics = "metrics" {
            /// The exposition body.
            prometheus: String,
        },
        /// The metrics registry as mergeable JSON.
        MetricsJson = "metrics_json" {
            /// `MetricsRegistry::to_json` output; parse back with
            /// `MetricsRegistry::from_json`.
            registry: String,
        },
        /// Drain finished; the daemon stops after this response.
        ShutdownComplete = "shutdown_complete" {
            /// Jobs that reached a terminal state over the daemon's lifetime.
            jobs_completed: u64,
        },
        /// One live event line of a tailed job (JSONL without the newline).
        TailEvent = "tail_event" {
            /// The tailed job.
            job: u64,
            /// One event, JSON-encoded.
            line: String,
        },
        /// End of a tail stream: the job is terminal and the stream drained.
        TailDone = "tail_done" {
            /// The tailed job.
            job: u64,
            /// Total events streamed.
            events: u64,
        },
        /// The request referenced an unknown job id.
        NotFound = "not_found" {
            /// The unknown id.
            job: u64,
        },
        /// The request could not be served.
        Error = "error" {
            /// Human-readable reason.
            message: String,
        },
    }
}

impl Field for JobSpec {
    fn write_field(&self, out: &mut String) {
        out.push_str("{\"instance\":");
        json::write_str(out, &self.instance_text);
        out.push_str(",\"variant\":");
        json::write_str(out, &self.variant);
        let _ = write!(
            out,
            ",\"processors\":{},\"max_evaluations\":{},\"neighborhood_size\":{},\"seed\":{},\"deadline_ms\":",
            self.processors, self.max_evaluations, self.neighborhood_size, self.seed
        );
        self.deadline_ms.write_field(out);
        out.push_str(",\"max_iterations\":");
        self.max_iterations.write_field(out);
        let _ = write!(out, ",\"record_events\":{}", self.record_events);
        match &self.mode {
            JobMode::Search => {}
            JobMode::Dynamic(dynamic) => {
                out.push_str(",\"dynamic\":");
                dynamic.write_field(out);
            }
            JobMode::Portfolio(portfolio) => {
                out.push_str(",\"portfolio\":");
                portfolio.write_field(out);
            }
        }
        out.push('}');
    }

    fn read_field(doc: &Json) -> Result<Self, String> {
        Ok(Self {
            instance_text: field(doc, "instance")?,
            variant: field(doc, "variant")?,
            processors: field(doc, "processors")?,
            max_evaluations: field(doc, "max_evaluations")?,
            neighborhood_size: field(doc, "neighborhood_size")?,
            seed: field(doc, "seed")?,
            deadline_ms: field(doc, "deadline_ms")?,
            max_iterations: field(doc, "max_iterations")?,
            // Lenient for compatibility with pre-tail clients.
            record_events: field::<Option<bool>>(doc, "record_events")?.unwrap_or(false),
            mode: match (field(doc, "dynamic")?, field(doc, "portfolio")?) {
                (None, None) => JobMode::Search,
                (Some(dynamic), None) => JobMode::Dynamic(dynamic),
                (None, Some(portfolio)) => JobMode::Portfolio(portfolio),
                (Some(_), Some(_)) => {
                    return Err("a job is dynamic or a portfolio, not both".to_string())
                }
            },
        })
    }
}

impl Field for JobResult {
    fn write_field(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"evaluations\":{},\"iterations\":{},\"truncated\":{},\"stop_cause\":",
            self.evaluations, self.iterations, self.truncated
        );
        self.stop_cause.write_field(out);
        out.push_str(",\"front\":");
        write_array(out, &self.front, |out, p| p.objectives.write_field(out));
        out.push_str(",\"routes\":");
        write_array(out, &self.front, |out, p| {
            json::write_routes(out, &p.routes)
        });
        out.push_str(",\"epochs\":");
        self.epochs.write_field(out);
        out.push_str(",\"rounds\":");
        self.rounds.write_field(out);
        out.push('}');
    }

    fn read_field(doc: &Json) -> Result<Self, String> {
        let front_vectors: Vec<[f64; 3]> = field(doc, "front")?;
        let routes_per_point = req_array(doc, "routes", routes_from)?;
        if front_vectors.len() != routes_per_point.len() {
            return Err("'front' and 'routes' lengths differ".to_string());
        }
        Ok(Self {
            evaluations: field(doc, "evaluations")?,
            iterations: field(doc, "iterations")?,
            truncated: field(doc, "truncated")?,
            stop_cause: field(doc, "stop_cause")?,
            front: front_vectors
                .into_iter()
                .zip(routes_per_point)
                .map(|(objectives, routes)| FrontPoint { objectives, routes })
                .collect(),
            // Lenient for results written before dynamic jobs existed.
            epochs: field::<Option<_>>(doc, "epochs")?.unwrap_or_default(),
            // Likewise for results that predate portfolio jobs.
            rounds: field::<Option<_>>(doc, "rounds")?.unwrap_or_default(),
        })
    }
}

impl Field for EpochInfo {
    fn write_field(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"epoch\":{},\"mutations\":{},\"customers\":{},\"warm_seeds\":{},\"evaluations\":{},\"front_size\":{},\"best_distance\":",
            self.epoch, self.mutations, self.customers, self.warm_seeds, self.evaluations, self.front_size
        );
        json::write_f64(out, self.best_distance);
        out.push('}');
    }

    fn read_field(v: &Json) -> Result<Self, String> {
        Ok(EpochInfo {
            epoch: field(v, "epoch")?,
            mutations: field(v, "mutations")?,
            customers: field(v, "customers")?,
            warm_seeds: field(v, "warm_seeds")?,
            evaluations: field(v, "evaluations")?,
            front_size: field(v, "front_size")?,
            best_distance: field(v, "best_distance")?,
        })
    }
}

impl Field for RoundInfo {
    fn write_field(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"round\":{},\"winner\":{},\"winner_algo\":",
            self.round, self.winner
        );
        json::write_str(out, &self.winner_algo);
        let _ = write!(
            out,
            ",\"allocated\":{},\"spent\":{},\"retired\":{},\"best_coverage\":",
            self.allocated, self.spent, self.retired
        );
        json::write_f64(out, self.best_coverage);
        out.push('}');
    }

    fn read_field(v: &Json) -> Result<Self, String> {
        Ok(RoundInfo {
            round: field(v, "round")?,
            winner: field(v, "winner")?,
            winner_algo: field(v, "winner_algo")?,
            allocated: field(v, "allocated")?,
            spent: field(v, "spent")?,
            retired: field(v, "retired")?,
            best_coverage: field(v, "best_coverage")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result() -> JobResult {
        JobResult {
            evaluations: 5_000,
            iterations: 100,
            truncated: true,
            stop_cause: Some("deadline_exceeded".to_string()),
            front: vec![
                FrontPoint {
                    objectives: [512.25, 4.0, 0.0],
                    routes: vec![vec![1, 3, 2], vec![4], vec![5, 6]],
                },
                FrontPoint {
                    objectives: [600.0, 3.0, 0.0],
                    routes: vec![vec![1, 2, 3, 4], vec![5, 6]],
                },
            ],
            epochs: Vec::new(),
            rounds: Vec::new(),
        }
    }

    #[test]
    fn old_clients_remain_parseable() {
        // Results written before dynamic jobs carry no "epochs" array.
        let legacy = "{\"type\":\"job_result\",\"job\":1,\"result\":\
                      {\"evaluations\":10,\"iterations\":2,\"truncated\":false,\
                      \"stop_cause\":null,\"front\":[[1.0,2.0,0.0]],\"routes\":[[[1]]]}}";
        let Response::JobResult { result, .. } = Response::parse(legacy).unwrap() else {
            panic!("parsed to the wrong variant");
        };
        assert!(result.epochs.is_empty());
        // Dynamic params without "warm" default to warm.
        let spec = "\"instance\":\"X\",\"variant\":\"sequential\",\"processors\":1,\
                    \"max_evaluations\":5,\"neighborhood_size\":2,\"seed\":0,\
                    \"deadline_ms\":null,\"max_iterations\":null";
        let req = format!(
            "{{\"type\":\"submit\",\"spec\":{{{spec},\"dynamic\":{{\"script_seed\":3,\
             \"epochs\":2,\"mutations_per_epoch\":1}}}}}}"
        );
        let Request::Submit {
            spec:
                JobSpec {
                    mode: JobMode::Dynamic(dynamic),
                    ..
                },
        } = Request::parse(&req).unwrap()
        else {
            panic!("parsed to the wrong mode");
        };
        assert!(dynamic.warm);
        // Portfolio params without scheduler knobs take the defaults.
        let req = format!(
            "{{\"type\":\"submit\",\"spec\":{{{spec},\"portfolio\":{{\"algos\":\
             [\"nsga2\",\"paes\"],\"rounds\":2}}}}}}"
        );
        let Request::Submit {
            spec:
                JobSpec {
                    mode: JobMode::Portfolio(portfolio),
                    ..
                },
        } = Request::parse(&req).unwrap()
        else {
            panic!("parsed to the wrong mode");
        };
        assert_eq!(portfolio.algos, vec!["nsga2", "paes"]);
        assert_eq!(portfolio.rounds, 2);
        let defaults = PortfolioParams::default();
        assert_eq!(portfolio.floor, defaults.floor);
        assert_eq!(portfolio.retire_after, defaults.retire_after);
        // A spec cannot be both.
        let both = format!(
            "{{\"type\":\"submit\",\"spec\":{{{spec},\"dynamic\":{{\"script_seed\":3,\
             \"epochs\":2,\"mutations_per_epoch\":1}},\"portfolio\":{{\"algos\":[],\
             \"rounds\":2}}}}}}"
        );
        assert!(Request::parse(&both).is_err());
    }

    /// A plain search and its result encode to exactly the bytes they did
    /// before dynamic and portfolio jobs became modes of `Submit`.
    #[test]
    fn plain_submit_and_result_frames_are_pinned() {
        let submit = Request::Submit {
            spec: JobSpec {
                instance_text: "R101\n".to_string(),
                deadline_ms: Some(250),
                record_events: true,
                ..JobSpec::default()
            },
        };
        assert_eq!(
            submit.to_json(),
            "{\"type\":\"submit\",\"spec\":{\"instance\":\"R101\\n\",\
             \"variant\":\"sequential\",\"processors\":1,\"max_evaluations\":10000,\
             \"neighborhood_size\":50,\"seed\":0,\"deadline_ms\":250,\
             \"max_iterations\":null,\"record_events\":true}}"
        );
        let result = Response::JobResult {
            job: 3,
            result: sample_result(),
        };
        assert_eq!(
            result.to_json(),
            "{\"type\":\"job_result\",\"job\":3,\"result\":{\"evaluations\":5000,\
             \"iterations\":100,\"truncated\":true,\"stop_cause\":\"deadline_exceeded\",\
             \"front\":[[512.25,4,0],[600,3,0]],\"routes\":[[[1,3,2],[4],[5,6]],\
             [[1,2,3,4],[5,6]]],\"epochs\":[],\"rounds\":[]}}"
        );
    }

    #[test]
    fn frames_round_trip_through_the_reexport() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "first").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().as_deref(), Some("first"));
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }
}

//! Job lifecycle tracking.
//!
//! Every submitted job lives in the [`JobTable`] from admission until it
//! is no longer among the [`RETAINED_TERMINAL_JOBS`] most recently
//! finished jobs; then it is evicted and its id answers as unknown. States
//! move strictly forward (`Queued → Running → Done` or `Failed`), and
//! every terminal transition goes through [`JobTable::finish`]; waiters
//! block on a condvar, which is also how the daemon's shutdown path waits
//! for the in-flight jobs to drain.

use crate::wire::{JobResult, JobSpec};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use tsmo_core::CancelToken;
use tsmo_obs::MemoryRecorder;
use vrptw::Instance;

/// Lifecycle state of one job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// On a worker.
    Running,
    /// Finished with a result (possibly truncated).
    Done(JobResult),
    /// Could not run (the message explains why).
    Failed(String),
}

impl JobState {
    /// Short wire name of the state.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }

    /// Whether the state is final.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }
}

/// One tracked job: the spec (mode included), its shared parsed instance, the cancel
/// token threaded into the search, and the submission timestamp for
/// latency accounting.
pub struct Job {
    /// The submitted spec (instance text dropped — the parsed instance
    /// is shared via `instance`).
    pub spec: JobSpec,
    /// Parsed instance, shared with the cache (no per-job clone).
    pub instance: Arc<Instance>,
    /// Cooperative stop signal for this job's run.
    pub cancel: CancelToken,
    /// When the job was admitted.
    pub submitted: Instant,
    /// Current state.
    pub state: JobState,
    /// Per-job event recorder (spans included), present when the spec
    /// asked for `record_events`. `Tail` streams from it while the job
    /// runs; metrics still flow to the daemon's shared registry.
    pub events: Option<Arc<MemoryRecorder>>,
}

/// How many terminal jobs the table keeps for `status`, `result` and
/// `wait`. Past it, finishing a job evicts the oldest terminal one, so a
/// long-lived daemon's memory does not grow with the jobs it has served;
/// queued and running jobs are never evicted.
pub const RETAINED_TERMINAL_JOBS: usize = 256;

struct TableState {
    jobs: HashMap<u64, Job>,
    next_id: u64,
    /// Ids of the retained terminal jobs, oldest first.
    terminal: VecDeque<u64>,
    /// Jobs finished over the table's lifetime, evicted ones included.
    finished: u64,
}

/// Thread-safe registry of the daemon's queued and running jobs and its
/// [`RETAINED_TERMINAL_JOBS`] most recently finished ones.
pub struct JobTable {
    state: Mutex<TableState>,
    changed: Condvar,
}

impl Default for JobTable {
    fn default() -> Self {
        Self::new()
    }
}

impl JobTable {
    /// An empty table; ids start at 1.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(TableState {
                jobs: HashMap::new(),
                next_id: 1,
                terminal: VecDeque::new(),
                finished: 0,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TableState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers a new queued job and returns its id. The instance text
    /// inside `spec` is dropped here: the parsed `instance` is the single
    /// shared copy.
    pub fn admit(&self, mut spec: JobSpec, instance: Arc<Instance>, cancel: CancelToken) -> u64 {
        spec.instance_text = String::new();
        let events = spec
            .record_events
            .then(|| Arc::new(MemoryRecorder::new().with_span_events()));
        let mut state = self.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.insert(
            id,
            Job {
                spec,
                instance,
                cancel,
                submitted: Instant::now(),
                state: JobState::Queued,
                events,
            },
        );
        id
    }

    /// The job's event recorder handle, if it records events.
    pub fn events_recorder(&self, id: u64) -> Option<Arc<MemoryRecorder>> {
        self.with_job(id, |j| j.events.clone()).flatten()
    }

    /// The next id `admit` would hand out (used to report the id a
    /// rejected submission *would* have received).
    pub fn peek_next_id(&self) -> u64 {
        self.lock().next_id
    }

    /// Forgets a job entirely (used when the queue rejects an admission:
    /// a rejected job must not count toward the shutdown drain).
    pub fn remove(&self, id: u64) -> bool {
        let removed = self.lock().jobs.remove(&id).is_some();
        self.changed.notify_all();
        removed
    }

    /// Runs `f` on the job, if it exists.
    pub fn with_job<T>(&self, id: u64, f: impl FnOnce(&mut Job) -> T) -> Option<T> {
        let mut state = self.lock();
        let out = state.jobs.get_mut(&id).map(f);
        drop(state);
        self.changed.notify_all();
        out
    }

    /// The job's current state name, if it exists.
    pub fn state_name(&self, id: u64) -> Option<&'static str> {
        self.with_job(id, |j| j.state.name())
    }

    /// The job's result, if it is `Done`.
    pub fn result(&self, id: u64) -> Option<Option<JobResult>> {
        self.with_job(id, |j| match &j.state {
            JobState::Done(r) => Some(r.clone()),
            _ => None,
        })
    }

    /// Count of jobs currently in `Running`.
    pub fn running_count(&self) -> u32 {
        self.lock()
            .jobs
            .values()
            .filter(|j| j.state == JobState::Running)
            .count() as u32
    }

    /// Moves a job to its terminal `state` (`Done` or `Failed`) and wakes
    /// its waiters. The job joins the retained terminal jobs; past
    /// [`RETAINED_TERMINAL_JOBS`] the oldest of them is evicted. Unknown
    /// or already terminal jobs are left as they are.
    pub fn finish(&self, id: u64, terminal: JobState) {
        debug_assert!(terminal.is_terminal(), "finish takes a terminal state");
        let mut state = self.lock();
        match state.jobs.get_mut(&id) {
            Some(job) if !job.state.is_terminal() => job.state = terminal,
            _ => return,
        }
        state.finished += 1;
        state.terminal.push_back(id);
        while state.terminal.len() > RETAINED_TERMINAL_JOBS {
            if let Some(oldest) = state.terminal.pop_front() {
                state.jobs.remove(&oldest);
            }
        }
        drop(state);
        self.changed.notify_all();
    }

    /// Jobs that reached a terminal state over the table's lifetime,
    /// including those since evicted.
    pub fn finished_count(&self) -> u64 {
        self.lock().finished
    }

    /// Blocks until the job reaches a terminal state or the timeout
    /// elapses. Returns the job's state at that moment — terminal unless
    /// the timeout ran out first — or `None` for an unknown (or evicted)
    /// id.
    pub fn wait_terminal(&self, id: u64, timeout: Duration) -> Option<JobState> {
        let (state, _) = self
            .changed
            .wait_timeout_while(self.lock(), timeout, |s| {
                s.jobs.get(&id).is_some_and(|j| !j.state.is_terminal())
            })
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.jobs.get(&id).map(|j| j.state.clone())
    }

    /// Blocks until every tracked job is terminal (the shutdown drain).
    /// Returns `false` if the timeout elapsed first.
    pub fn wait_all_terminal(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if state.jobs.values().all(|j| j.state.is_terminal()) {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            state = self
                .changed
                .wait_timeout(state, left)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn table_with_job() -> (JobTable, u64) {
        let table = JobTable::new();
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 10, 1).build());
        let id = table.admit(JobSpec::default(), inst, CancelToken::never());
        (table, id)
    }

    fn done_result() -> JobResult {
        JobResult {
            evaluations: 1,
            iterations: 1,
            truncated: false,
            stop_cause: None,
            front: Vec::new(),
            epochs: Vec::new(),
            rounds: Vec::new(),
        }
    }

    #[test]
    fn ids_are_sequential_and_states_advance() {
        let (table, id) = table_with_job();
        assert_eq!(id, 1);
        assert_eq!(table.peek_next_id(), 2);
        assert_eq!(table.state_name(id), Some("queued"));
        table.with_job(id, |j| j.state = JobState::Running);
        assert_eq!(table.running_count(), 1);
        table.finish(id, JobState::Done(done_result()));
        assert_eq!(table.state_name(id), Some("done"));
        assert_eq!(table.finished_count(), 1);
        assert!(table.result(id).unwrap().is_some());
    }

    #[test]
    fn admit_drops_the_instance_text_copy() {
        let table = JobTable::new();
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 10, 1).build());
        let spec = JobSpec {
            instance_text: "X".repeat(1000),
            ..JobSpec::default()
        };
        let id = table.admit(spec, inst, CancelToken::never());
        let text_len = table.with_job(id, |j| j.spec.instance_text.len()).unwrap();
        assert_eq!(text_len, 0, "the parsed Arc<Instance> is the only copy");
    }

    #[test]
    fn wait_terminal_sees_cross_thread_completion() {
        let (table, id) = table_with_job();
        let table = Arc::new(table);
        let t2 = Arc::clone(&table);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            t2.finish(id, JobState::Failed("boom".to_string()));
        });
        let state = table.wait_terminal(id, Duration::from_secs(5));
        h.join().unwrap();
        assert_eq!(state, Some(JobState::Failed("boom".to_string())));
        assert!(table.wait_all_terminal(Duration::from_secs(1)));
    }

    #[test]
    fn wait_terminal_times_out_on_stuck_jobs() {
        let (table, id) = table_with_job();
        assert_eq!(
            table.wait_terminal(id, Duration::from_millis(30)),
            Some(JobState::Queued),
            "a timed-out wait reports the current state"
        );
        assert!(!table.wait_all_terminal(Duration::from_millis(30)));
        assert_eq!(table.wait_terminal(999, Duration::from_millis(1)), None);
    }

    #[test]
    fn finished_jobs_past_the_cap_are_evicted_oldest_first() {
        let table = JobTable::new();
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 10, 1).build());
        let admit = || table.admit(JobSpec::default(), Arc::clone(&inst), CancelToken::never());
        let queued = admit();
        let running = admit();
        table.with_job(running, |j| j.state = JobState::Running);
        let finished: Vec<u64> = (0..300).map(|_| admit()).collect();
        for &id in &finished {
            table.finish(id, JobState::Done(done_result()));
        }
        assert_eq!(
            table.finished_count(),
            300,
            "the lifetime count survives eviction"
        );
        let retained = finished
            .iter()
            .filter(|&&id| table.state_name(id).is_some())
            .count();
        assert_eq!(retained, RETAINED_TERMINAL_JOBS);
        let evicted = 300 - RETAINED_TERMINAL_JOBS;
        assert!(finished[..evicted]
            .iter()
            .all(|&id| table.state_name(id).is_none() && table.result(id).is_none()));
        assert_eq!(table.state_name(queued), Some("queued"));
        assert_eq!(table.state_name(running), Some("running"));
        // Finishing twice changes nothing.
        let last = finished[299];
        table.finish(last, JobState::Failed("late".to_string()));
        assert_eq!(table.state_name(last), Some("done"));
        assert_eq!(table.finished_count(), 300);
    }
}

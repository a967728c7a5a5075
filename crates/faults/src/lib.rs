//! Deterministic, seed-driven fault injection for the TSMO parallel runtime.
//!
//! Beham's asynchronous master–worker algorithm (Algorithm 2) exists
//! because real worker pools straggle and fail: the master must make
//! progress from a *partial* neighborhood. To test the recovery machinery
//! that makes this possible (`deme::Supervisor`, multisearch peer
//! liveness), this crate injects faults — worker-task panics, stalls, late
//! returns, and dropped/delayed multisearch exchange messages — from a
//! **reproducible plan**.
//!
//! Reproducibility is the design constraint everything here serves:
//!
//! * every decision is a *pure function* of `(fault seed, site, seq)`,
//!   hashed through [`detrand::SplitMix64`]. Two runs with the same fault
//!   seed inject exactly the same faults at the same logical points, no
//!   matter how OS threads interleave;
//! * an **all-zero plan** ([`FaultConfig::default`]) returns
//!   [`TaskFault::None`]/[`MsgFault::Deliver`] for every query and injects
//!   nothing, so a run wired through it is byte-identical to a run without
//!   the fault layer (asserted in `crates/core/tests/faults.rs`);
//! * the hook itself is stateless apart from relaxed counters, so it can be
//!   shared across worker threads without serializing them.
//!
//! Emitters consult the plan through the [`FaultHook`] trait, whose default
//! methods are no-ops — production code paths pay a single virtual call
//! (guarded by [`FaultHook::active`]) when no chaos is configured.

use detrand::{RandomSource, SplitMix64};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What to do to one worker task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFault {
    /// Execute normally.
    None,
    /// Panic inside the task function. The `deme` pool catches the panic
    /// and surfaces `PoolError::WorkerPanicked`; the supervisor resends.
    Panic,
    /// Stall *before* computing for this many milliseconds (real time on
    /// the wall clock, `millis / 1000` virtual seconds on the virtual
    /// clock).
    Stall {
        /// Delay duration in milliseconds.
        millis: u64,
    },
    /// Compute normally but deliver the result late by this many
    /// milliseconds — the straggler case the async decision function is
    /// built for.
    Late {
        /// Delay duration in milliseconds.
        millis: u64,
    },
}

/// What to do to one multisearch exchange message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFault {
    /// Deliver normally.
    Deliver,
    /// Silently drop the message (the receiver never sees it).
    Drop,
    /// Deliver after this many sender ticks (loop iterations in the
    /// thread-based variant, virtual latency units in the simulation).
    Delay {
        /// Delay in sender ticks.
        ticks: u64,
    },
}

/// The category of an injected fault, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A worker task was made to panic.
    TaskPanic,
    /// A worker task was stalled before computing.
    TaskStall,
    /// A worker task's result was delivered late.
    TaskLate,
    /// An exchange message was dropped.
    ExchangeDrop,
    /// An exchange message was delayed.
    ExchangeDelay,
}

impl FaultKind {
    /// Stable string form, used in events.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::TaskPanic => "task_panic",
            FaultKind::TaskStall => "task_stall",
            FaultKind::TaskLate => "task_late",
            FaultKind::ExchangeDrop => "exchange_drop",
            FaultKind::ExchangeDelay => "exchange_delay",
        }
    }

    /// Parses the string form back (inverse of [`as_str`](Self::as_str)).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "task_panic" => Some(FaultKind::TaskPanic),
            "task_stall" => Some(FaultKind::TaskStall),
            "task_late" => Some(FaultKind::TaskLate),
            "exchange_drop" => Some(FaultKind::ExchangeDrop),
            "exchange_delay" => Some(FaultKind::ExchangeDelay),
            _ => None,
        }
    }
}

/// Injection decision point for the parallel runtime. All methods default
/// to "no fault", so the no-op implementation costs one virtual call.
pub trait FaultHook: Send + Sync {
    /// Whether this hook can ever inject anything. Emitters may skip
    /// bookkeeping (sequence counters, event construction) entirely when
    /// this returns `false`.
    fn active(&self) -> bool {
        false
    }

    /// Decision for the `seq`-th task dispatched to `worker`.
    fn on_task(&self, _worker: usize, _seq: u64) -> TaskFault {
        TaskFault::None
    }

    /// Decision for the `seq`-th exchange message sent by `sender`.
    fn on_exchange(&self, _sender: usize, _seq: u64) -> MsgFault {
        MsgFault::Deliver
    }
}

/// Injects nothing, ever. The default hook.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {}

/// A shared handle to the no-op hook.
pub fn none() -> Arc<dyn FaultHook> {
    Arc::new(NoFaults)
}

/// Rates and magnitudes of the injected faults. All rates are
/// probabilities in `[0, 1]` per decision point; the default is all-zero
/// (inject nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault plan. Independent from the search seed: the same
    /// search can be replayed under different chaos, and vice versa.
    pub seed: u64,
    /// Probability that a worker task panics.
    pub task_panic_rate: f64,
    /// Probability that a worker task stalls before computing.
    pub task_stall_rate: f64,
    /// Stall duration in milliseconds.
    pub stall_millis: u64,
    /// Probability that a worker task returns late.
    pub task_late_rate: f64,
    /// Lateness in milliseconds.
    pub late_millis: u64,
    /// Probability that an exchange message is dropped.
    pub exchange_drop_rate: f64,
    /// Probability that an exchange message is delayed.
    pub exchange_delay_rate: f64,
    /// Exchange delay in sender ticks.
    pub delay_ticks: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            task_panic_rate: 0.0,
            task_stall_rate: 0.0,
            stall_millis: 2,
            task_late_rate: 0.0,
            late_millis: 2,
            exchange_drop_rate: 0.0,
            exchange_delay_rate: 0.0,
            delay_ticks: 2,
        }
    }
}

impl FaultConfig {
    /// The CLI's one-knob chaos profile: `rate` is split evenly between
    /// panics and stalls on the task side, and between drops and delays on
    /// the exchange side. `uniform(seed, 0.0)` is the all-zero plan.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        Self {
            seed,
            task_panic_rate: rate / 2.0,
            task_stall_rate: rate / 2.0,
            task_late_rate: 0.0,
            exchange_drop_rate: rate / 2.0,
            exchange_delay_rate: rate / 2.0,
            ..Self::default()
        }
    }

    /// Chaos confined to the exchange path: `rate` is split evenly
    /// between message drops and delays, task faults stay at zero. This
    /// is the profile the cluster uses — the same plan perturbs
    /// in-process channels and real sockets identically, because the
    /// decision happens in the searcher loop before the transport is
    /// asked to deliver.
    pub fn exchange_only(seed: u64, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        Self {
            seed,
            exchange_drop_rate: rate / 2.0,
            exchange_delay_rate: rate / 2.0,
            ..Self::default()
        }
    }

    /// Whether every rate is zero (the plan can never inject).
    pub fn is_zero(&self) -> bool {
        self.task_panic_rate == 0.0
            && self.task_stall_rate == 0.0
            && self.task_late_rate == 0.0
            && self.exchange_drop_rate == 0.0
            && self.exchange_delay_rate == 0.0
    }
}

/// Totals of what a [`FaultPlan`] actually injected, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Tasks made to panic.
    pub task_panics: u64,
    /// Tasks stalled.
    pub task_stalls: u64,
    /// Task results made late.
    pub task_lates: u64,
    /// Exchange messages dropped.
    pub exchange_drops: u64,
    /// Exchange messages delayed.
    pub exchange_delays: u64,
}

impl InjectionStats {
    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.task_panics
            + self.task_stalls
            + self.task_lates
            + self.exchange_drops
            + self.exchange_delays
    }
}

/// A deterministic fault plan.
///
/// Each decision hashes `(seed, site, seq)` through its own
/// [`SplitMix64`] stream, so the answer for a given logical point is fixed
/// at construction and independent of call order or thread timing — the
/// property that makes chaos runs replayable and the zero plan inert.
pub struct FaultPlan {
    cfg: FaultConfig,
    task_panics: AtomicU64,
    task_stalls: AtomicU64,
    task_lates: AtomicU64,
    exchange_drops: AtomicU64,
    exchange_delays: AtomicU64,
}

/// Domain-separation constants for the two decision families.
const DOMAIN_TASK: u64 = 0x7461736B_00000000; // "task"
const DOMAIN_EXCHANGE: u64 = 0x65786368_00000000; // "exch"

fn draw(seed: u64, domain: u64, site: usize, seq: u64) -> f64 {
    // One hashed SplitMix64 step per decision: mix the coordinates into the
    // seed, then take a uniform f64 from the high 53 bits, exactly like
    // `Rng::next_f64`.
    let mut sm = SplitMix64::new(
        seed ^ domain
            ^ (site as u64).wrapping_mul(0x9E3779B97F4A7C15)
            ^ seq.wrapping_mul(0xD1B54A32D192ED03),
    );
    (sm.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// Builds a plan from the given rates.
    pub fn new(cfg: FaultConfig) -> Self {
        Self {
            cfg,
            task_panics: AtomicU64::new(0),
            task_stalls: AtomicU64::new(0),
            task_lates: AtomicU64::new(0),
            exchange_drops: AtomicU64::new(0),
            exchange_delays: AtomicU64::new(0),
        }
    }

    /// A shared plan ready to hand to a search run.
    pub fn shared(cfg: FaultConfig) -> Arc<FaultPlan> {
        Arc::new(Self::new(cfg))
    }

    /// The configured rates.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Snapshot of what has been injected so far.
    pub fn stats(&self) -> InjectionStats {
        InjectionStats {
            task_panics: self.task_panics.load(Ordering::Relaxed),
            task_stalls: self.task_stalls.load(Ordering::Relaxed),
            task_lates: self.task_lates.load(Ordering::Relaxed),
            exchange_drops: self.exchange_drops.load(Ordering::Relaxed),
            exchange_delays: self.exchange_delays.load(Ordering::Relaxed),
        }
    }

    /// The decision itself, without counting — pure, for tests and replay
    /// tooling.
    pub fn peek_task(&self, worker: usize, seq: u64) -> TaskFault {
        let u = draw(self.cfg.seed, DOMAIN_TASK, worker, seq);
        if u < self.cfg.task_panic_rate {
            TaskFault::Panic
        } else if u < self.cfg.task_panic_rate + self.cfg.task_stall_rate {
            TaskFault::Stall {
                millis: self.cfg.stall_millis,
            }
        } else if u < self.cfg.task_panic_rate + self.cfg.task_stall_rate + self.cfg.task_late_rate
        {
            TaskFault::Late {
                millis: self.cfg.late_millis,
            }
        } else {
            TaskFault::None
        }
    }

    /// Pure exchange decision (see [`peek_task`](Self::peek_task)).
    pub fn peek_exchange(&self, sender: usize, seq: u64) -> MsgFault {
        let u = draw(self.cfg.seed, DOMAIN_EXCHANGE, sender, seq);
        if u < self.cfg.exchange_drop_rate {
            MsgFault::Drop
        } else if u < self.cfg.exchange_drop_rate + self.cfg.exchange_delay_rate {
            MsgFault::Delay {
                ticks: self.cfg.delay_ticks,
            }
        } else {
            MsgFault::Deliver
        }
    }
}

impl FaultHook for FaultPlan {
    fn active(&self) -> bool {
        !self.cfg.is_zero()
    }

    fn on_task(&self, worker: usize, seq: u64) -> TaskFault {
        let fault = self.peek_task(worker, seq);
        match fault {
            TaskFault::Panic => {
                self.task_panics.fetch_add(1, Ordering::Relaxed);
            }
            TaskFault::Stall { .. } => {
                self.task_stalls.fetch_add(1, Ordering::Relaxed);
            }
            TaskFault::Late { .. } => {
                self.task_lates.fetch_add(1, Ordering::Relaxed);
            }
            TaskFault::None => {}
        }
        fault
    }

    fn on_exchange(&self, sender: usize, seq: u64) -> MsgFault {
        let fault = self.peek_exchange(sender, seq);
        match fault {
            MsgFault::Drop => {
                self.exchange_drops.fetch_add(1, Ordering::Relaxed);
            }
            MsgFault::Delay { .. } => {
                self.exchange_delays.fetch_add(1, Ordering::Relaxed);
            }
            MsgFault::Deliver => {}
        }
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic() -> FaultConfig {
        FaultConfig {
            seed: 42,
            task_panic_rate: 0.2,
            task_stall_rate: 0.1,
            task_late_rate: 0.05,
            exchange_drop_rate: 0.15,
            exchange_delay_rate: 0.1,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn zero_plan_is_inert_and_inactive() {
        let plan = FaultPlan::new(FaultConfig::default());
        assert!(!plan.active());
        for worker in 0..4 {
            for seq in 0..500 {
                assert_eq!(plan.on_task(worker, seq), TaskFault::None);
                assert_eq!(plan.on_exchange(worker, seq), MsgFault::Deliver);
            }
        }
        assert_eq!(plan.stats().total(), 0);
        assert!(FaultConfig::uniform(7, 0.0).is_zero());
    }

    #[test]
    fn decisions_are_pure_functions_of_site_and_seq() {
        let a = FaultPlan::new(chaotic());
        let b = FaultPlan::new(chaotic());
        // Query b in a scrambled order; answers must still match a's.
        let mut points: Vec<(usize, u64)> =
            (0..8).flat_map(|w| (0..200).map(move |s| (w, s))).collect();
        points.reverse();
        let scrambled: Vec<_> = points.iter().map(|&(w, s)| b.peek_task(w, s)).collect();
        points.reverse();
        for (i, &(w, s)) in points.iter().enumerate() {
            assert_eq!(a.peek_task(w, s), scrambled[points.len() - 1 - i]);
            assert_eq!(a.peek_exchange(w, s), b.peek_exchange(w, s));
        }
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let a = FaultPlan::new(FaultConfig {
            seed: 1,
            ..chaotic()
        });
        let b = FaultPlan::new(FaultConfig {
            seed: 2,
            ..chaotic()
        });
        let differs = (0..2000).any(|s| a.peek_task(0, s) != b.peek_task(0, s));
        assert!(differs, "seeds 1 and 2 produced identical task plans");
    }

    #[test]
    fn rates_are_approximately_respected() {
        let plan = FaultPlan::new(chaotic());
        let n = 20_000u64;
        let mut panics = 0u64;
        for seq in 0..n {
            if plan.on_task(0, seq) == TaskFault::Panic {
                panics += 1;
            }
        }
        let rate = panics as f64 / n as f64;
        assert!(
            (rate - 0.2).abs() < 0.02,
            "panic rate {rate} far from configured 0.2"
        );
        let stats = plan.stats();
        assert_eq!(stats.task_panics, panics);
        assert!(stats.task_stalls > 0);
    }

    #[test]
    fn uniform_profile_splits_the_rate() {
        let cfg = FaultConfig::uniform(9, 0.4);
        assert_eq!(cfg.task_panic_rate, 0.2);
        assert_eq!(cfg.task_stall_rate, 0.2);
        assert_eq!(cfg.exchange_drop_rate, 0.2);
        assert_eq!(cfg.exchange_delay_rate, 0.2);
        assert!(!cfg.is_zero());
        // Rates above 1 are clamped.
        let wild = FaultConfig::uniform(9, 7.0);
        assert!(wild.task_panic_rate <= 0.5);
    }

    #[test]
    fn exchange_only_profile_leaves_tasks_alone() {
        let cfg = FaultConfig::exchange_only(5, 0.3);
        assert_eq!(cfg.task_panic_rate, 0.0);
        assert_eq!(cfg.task_stall_rate, 0.0);
        assert_eq!(cfg.task_late_rate, 0.0);
        assert_eq!(cfg.exchange_drop_rate, 0.15);
        assert_eq!(cfg.exchange_delay_rate, 0.15);
        assert!(!cfg.is_zero());
        assert!(FaultConfig::exchange_only(5, 0.0).is_zero());
        let plan = FaultPlan::new(FaultConfig::exchange_only(5, 0.9));
        assert!((0..200).all(|s| plan.peek_task(0, s) == TaskFault::None));
        assert!((0..200).any(|s| plan.peek_exchange(0, s) != MsgFault::Deliver));
    }

    #[test]
    fn fault_kind_round_trips() {
        for kind in [
            FaultKind::TaskPanic,
            FaultKind::TaskStall,
            FaultKind::TaskLate,
            FaultKind::ExchangeDrop,
            FaultKind::ExchangeDelay,
        ] {
            assert_eq!(FaultKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(FaultKind::parse("mystery"), None);
    }

    #[test]
    fn noop_hook_defaults_are_silent() {
        let hook = none();
        assert!(!hook.active());
        assert_eq!(hook.on_task(3, 17), TaskFault::None);
        assert_eq!(hook.on_exchange(1, 4), MsgFault::Deliver);
    }
}

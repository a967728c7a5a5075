//! Property test of the pure worker-recovery policy: random dispatch,
//! reply and panic scripts over 1–4 workers and arbitrary configurations
//! keep every task accounted for and every budget respected.

use deme::{Quarantine, RecoveryEvent, Route, SupervisorConfig, SupervisorPolicy};
use proptest::prelude::*;
use proptest::TestCaseError;
use std::collections::VecDeque;
use std::time::Duration;

/// The caller's side of the protocol: per-worker FIFOs of `(task id,
/// attempt)`, and what became of every task.
struct Model {
    policy: SupervisorPolicy,
    in_flight: Vec<VecDeque<(usize, u32)>>,
    delivered: Vec<u32>,
    lost: Vec<u32>,
    resends: Vec<u32>,
    respawns: Vec<u32>,
}

impl Model {
    fn dispatch(&mut self, worker: usize) {
        self.in_flight[worker].push_back((self.delivered.len(), 0));
        self.delivered.push(0);
        self.lost.push(0);
        self.resends.push(0);
    }

    fn reply(&mut self, worker: usize) {
        let (task, _) = self.in_flight[worker]
            .pop_front()
            .expect("a task in flight");
        self.delivered[task] += 1;
        self.policy.on_reply(worker);
    }

    fn panic(&mut self, worker: usize) -> Result<(), TestCaseError> {
        let attempts: Vec<u32> = self.in_flight[worker].iter().map(|t| t.1).collect();
        let plan = self.policy.on_panic(worker, &attempts);
        match plan.quarantine {
            Some(Quarantine::Respawn) => self.respawns[worker] += 1,
            Some(Quarantine::Retire) => prop_assert!(!self.policy.is_live(worker)),
            None => prop_assert_eq!(plan.routes.len(), 1, "only the failed task moves"),
        }
        prop_assert!(plan.routes.len() <= attempts.len());
        let routed: Vec<(usize, u32)> = self.in_flight[worker].drain(..plan.routes.len()).collect();
        for ((task, _), route) in routed.into_iter().zip(plan.routes) {
            match route {
                Route::Resend {
                    worker: to,
                    attempt,
                } => {
                    prop_assert!(self.policy.is_live(to), "routed to retired slot {}", to);
                    self.resends[task] += 1;
                    prop_assert_eq!(attempt, self.resends[task]);
                    self.in_flight[to].push_back((task, attempt));
                }
                Route::Lose => self.lost[task] += 1,
            }
        }
        Ok(())
    }

    fn disconnect(&mut self) {
        let counts: Vec<usize> = self.in_flight.iter().map(VecDeque::len).collect();
        self.policy.on_disconnect(&counts);
        for queue in &mut self.in_flight {
            for (task, _) in queue.drain(..) {
                self.lost[task] += 1;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn every_task_is_delivered_or_lost_once_within_budget(
        n in 1usize..5,
        max_retries in 0u32..5,
        quarantine_after in 0u32..4,
        max_respawns in 0u32..3,
        quorum_pick in 0usize..5,
        script in prop::collection::vec(0u32..1_000, 0..200)
    ) {
        let cfg = SupervisorConfig {
            max_retries,
            quarantine_after,
            max_respawns,
            quorum: quorum_pick % (n + 1),
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        };
        let mut m = Model {
            policy: SupervisorPolicy::new(n, cfg),
            in_flight: vec![VecDeque::new(); n],
            delivered: Vec::new(),
            lost: Vec::new(),
            resends: Vec::new(),
            respawns: vec![0; n],
        };
        let mut degraded_seen = 0;
        let mut below_quorum = false;
        for op in script {
            let worker = (op / 10) as usize % n;
            match op % 10 {
                0..=3 => {
                    if m.policy.is_live(worker) {
                        m.dispatch(worker);
                    }
                }
                4..=6 => {
                    if !m.in_flight[worker].is_empty() {
                        m.reply(worker);
                    }
                }
                7 | 8 => {
                    if !m.in_flight[worker].is_empty() {
                        m.panic(worker)?;
                    }
                }
                _ => {
                    if op % 97 == 0 {
                        m.disconnect();
                    }
                }
            }
            let events = m.policy.take_events();
            let degraded_now = events
                .iter()
                .filter(|e| matches!(e, RecoveryEvent::Degraded { .. }))
                .count();
            degraded_seen += degraded_now;
            let was_below = below_quorum;
            below_quorum = m.policy.live_workers() < cfg.quorum;
            prop_assert_eq!(degraded_now, usize::from(below_quorum && !was_below));
            prop_assert_eq!(m.policy.degraded(), below_quorum);
        }
        // Drain: whatever is still in flight is answered.
        for w in 0..n {
            while !m.in_flight[w].is_empty() {
                m.reply(w);
            }
        }
        prop_assert!(degraded_seen <= 1);
        for task in 0..m.delivered.len() {
            prop_assert_eq!(m.delivered[task] + m.lost[task], 1, "task {} ended twice or never", task);
            prop_assert!(m.resends[task] <= max_retries);
        }
        for &r in &m.respawns {
            prop_assert!(r <= max_respawns);
        }
        let stats = m.policy.stats();
        prop_assert_eq!(stats.tasks_lost, m.lost.iter().map(|&l| u64::from(l)).sum::<u64>());
        prop_assert_eq!(stats.tasks_resent, m.resends.iter().map(|&r| u64::from(r)).sum::<u64>());
        prop_assert_eq!(stats.degraded, degraded_seen == 1);
    }
}

//! Bridges between the fault/recovery layers and the telemetry layer:
//! injected faults and supervisor recovery actions become `tsmo-obs`
//! counters and structured events. Kept in one place so both executors
//! (wall and virtual clock) publish identical shapes.

use deme::RecoveryEvent;
use tsmo_faults::{FaultHook, TaskFault};
use tsmo_obs::{metrics::names, FaultKind, Recorder, SearchEvent};

/// Publishes one injected fault: bumps `tsmo_faults_injected_total` and
/// (when events are on) appends a `fault_injected` event.
pub(crate) fn record_fault(recorder: &dyn Recorder, site: u32, seq: u64, kind: FaultKind) {
    recorder.counter_add(names::FAULTS_INJECTED, 1);
    if recorder.enabled() {
        recorder.event(SearchEvent::FaultInjected {
            site,
            fault_seq: seq,
            kind,
        });
    }
}

/// Draws the hook's decision for execution `seq` of a chunk task on
/// processor `site` and publishes it if a fault was injected.
pub(crate) fn draw_task_fault(
    hook: &dyn FaultHook,
    recorder: &dyn Recorder,
    site: usize,
    seq: u64,
) -> TaskFault {
    let fault = hook.on_task(site, seq);
    let kind = match fault {
        TaskFault::None => return fault,
        TaskFault::Panic => FaultKind::TaskPanic,
        TaskFault::Stall { .. } => FaultKind::TaskStall,
        TaskFault::Late { .. } => FaultKind::TaskLate,
    };
    record_fault(recorder, site as u32, seq, kind);
    fault
}

/// Publishes a batch of supervisor recovery actions. `iteration` is the
/// master's iteration at drain time; workers are shifted by one so the
/// master keeps id 0 in the event stream (matching worker task/result
/// events).
pub(crate) fn publish_recovery(
    recorder: &dyn Recorder,
    events: Vec<RecoveryEvent>,
    iteration: u64,
) {
    let site = |worker: usize| (worker + 1) as u32;
    for ev in events {
        let event = match ev {
            RecoveryEvent::TaskResent { worker, attempt } => {
                recorder.counter_add(names::TASKS_RESENT, 1);
                SearchEvent::TaskResent {
                    worker: site(worker),
                    iteration,
                    attempt,
                }
            }
            RecoveryEvent::TaskLost { .. } => {
                recorder.counter_add(names::TASKS_LOST, 1);
                continue;
            }
            RecoveryEvent::WorkerQuarantined { worker } => {
                recorder.counter_add(names::WORKERS_QUARANTINED, 1);
                SearchEvent::WorkerQuarantined {
                    worker: site(worker),
                    iteration,
                }
            }
            RecoveryEvent::WorkerRespawned { worker } => {
                recorder.counter_add(names::WORKERS_RESPAWNED, 1);
                SearchEvent::WorkerRespawned {
                    worker: site(worker),
                    iteration,
                }
            }
            RecoveryEvent::Degraded { live_workers } => {
                recorder.gauge_set(names::DEGRADED_MODE, 1.0);
                SearchEvent::DegradedMode {
                    iteration,
                    live_workers: live_workers as u32,
                }
            }
        };
        if recorder.enabled() {
            recorder.event(event);
        }
    }
}

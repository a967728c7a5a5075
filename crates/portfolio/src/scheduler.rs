//! The budget-racing scheduler: rounds, scoring, reallocation, merge.
//!
//! A [`Portfolio`] splits one evaluation budget into rounds. Every round
//! each live contender runs a budget slice, then the fronts are scored
//! against each other with the Zitzler coverage metric (hypervolume breaks
//! ties). The next round's slices follow a softmax over the scores with an
//! η-greedy exploration draw from a pinned-seed RNG, so the whole race —
//! ledger, events, merged front — is a pure function of
//! `(instance, algorithms, seed, budget)`. Losing contenders decay to a
//! budget floor rather than zero; a contender pinned at the floor for
//! [`PortfolioConfig::retire_after`] consecutive rounds is retired and its
//! share flows back to the survivors.

use crate::algorithm::RacedAlgorithm;
use detrand::{Rng, Xoshiro256StarStar};
use pareto::Archive;
use std::sync::Arc;
use tsmo_core::{CancelToken, FrontEntry};
use tsmo_obs::metrics::names;
use tsmo_obs::{json, Recorder, SearchEvent};
use vrptw::Instance;

/// Scheduler parameters. Everything that influences the race is in here or
/// in the contender list, so equal configs replay byte-identically.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Number of racing rounds the budget is split into.
    pub rounds: u32,
    /// Total evaluation budget across all contenders and rounds.
    pub total_evaluations: u64,
    /// Master seed; slice seeds and the exploration RNG derive from it.
    pub seed: u64,
    /// Budget floor as a fraction of the uniform share — losers decay to
    /// `floor / live_count` of the round budget, never to zero.
    pub floor: f64,
    /// η-greedy exploration rate: each reallocation boosts one random
    /// contender back to (at least) the uniform share with this probability.
    pub eta: f64,
    /// Softmax temperature over the coverage scores (higher = greedier).
    pub softmax_beta: f64,
    /// Retire a contender after this many consecutive rounds pinned at the
    /// budget floor (`0` disables retirement).
    pub retire_after: u32,
}

/// Capacity of the stage-two merged archive.
const MERGE_CAPACITY: usize = 60;

impl Default for PortfolioConfig {
    fn default() -> Self {
        Self {
            rounds: 4,
            total_evaluations: 20_000,
            seed: 42,
            floor: 0.25,
            eta: 0.1,
            softmax_beta: 4.0,
            retire_after: 2,
        }
    }
}

/// One contender's row in a round of the budget ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Contender index.
    pub contender: u32,
    /// Algorithm name.
    pub algo: String,
    /// Evaluations granted for the round.
    pub allocated: u64,
    /// Evaluations actually consumed (differs only under cancellation).
    pub spent: u64,
    /// Mean coverage `C(this, other)` over the other live contenders.
    pub coverage: f64,
    /// Hypervolume of the contender's front w.r.t. the round's shared
    /// reference point.
    pub hypervolume: f64,
    /// Budget weight the allocation was drawn from.
    pub weight: f64,
}

/// The complete record of one racing round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundLedger {
    /// Round index (0-based).
    pub round: u32,
    /// Per-live-contender rows, in contender order.
    pub entries: Vec<LedgerEntry>,
    /// The round's coverage winner.
    pub winner: u32,
    /// Contenders retired at the end of this round.
    pub retired: Vec<u32>,
}

impl RoundLedger {
    /// The round as one JSON object with a fixed field order, so equal
    /// races serialize byte-identically.
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"round\":");
        out.push_str(&self.round.to_string());
        out.push_str(",\"winner\":");
        out.push_str(&self.winner.to_string());
        out.push_str(",\"retired\":[");
        for (i, r) in self.retired.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_string());
        }
        out.push_str("],\"entries\":[");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"contender\":");
            out.push_str(&e.contender.to_string());
            out.push_str(",\"algo\":");
            json::write_str(&mut out, &e.algo);
            out.push_str(",\"allocated\":");
            out.push_str(&e.allocated.to_string());
            out.push_str(",\"spent\":");
            out.push_str(&e.spent.to_string());
            out.push_str(",\"coverage\":");
            json::write_f64(&mut out, e.coverage);
            out.push_str(",\"hypervolume\":");
            json::write_f64(&mut out, e.hypervolume);
            out.push_str(",\"weight\":");
            json::write_f64(&mut out, e.weight);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Final per-contender summary.
#[derive(Debug, Clone)]
pub struct ContenderReport {
    /// Algorithm name.
    pub name: String,
    /// The contender's accumulated front (stage-one archive).
    pub front: Vec<FrontEntry>,
    /// Evaluations consumed across all its slices.
    pub evaluations: u64,
    /// Rounds this contender won on coverage.
    pub rounds_won: u32,
    /// Round after which the contender was retired, if it was.
    pub retired_round: Option<u32>,
}

/// Everything a portfolio race produces.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// Stage-two merged front over every contender (mutually non-dominated
    /// by construction of [`pareto::Archive`]).
    pub merged: Vec<FrontEntry>,
    /// Round-by-round budget ledger.
    pub ledger: Vec<RoundLedger>,
    /// Per-contender reports, in contender order.
    pub contenders: Vec<ContenderReport>,
    /// Total evaluations consumed.
    pub evaluations: u64,
}

impl PortfolioOutcome {
    /// The ledger as JSONL — the byte-identical reproducibility artifact.
    pub fn ledger_jsonl(&self) -> String {
        let mut out = String::new();
        for round in &self.ledger {
            out.push_str(&round.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// Derives the pinned seed for one contender's slice in one round.
fn slice_seed(seed: u64, contender: usize, round: u32) -> u64 {
    seed ^ (contender as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(round) + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Internal per-contender race state.
struct Lane {
    algo: Box<dyn RacedAlgorithm>,
    weight: f64,
    evaluations: u64,
    rounds_won: u32,
    floor_streak: u32,
    retired_round: Option<u32>,
}

impl Lane {
    fn live(&self) -> bool {
        self.retired_round.is_none()
    }
}

/// The budget-racing scheduler. See the module docs for the round protocol.
pub struct Portfolio {
    cfg: PortfolioConfig,
}

impl Portfolio {
    /// A scheduler with the given parameters.
    pub fn new(cfg: PortfolioConfig) -> Self {
        Self { cfg }
    }

    /// Races `contenders` on `inst` and merges their fronts.
    ///
    /// Slices run sequentially in contender order (the race is about
    /// budget shares, not wall clock), each under `cancel`; once the token
    /// fires the current round is cut short and the outcome reports what
    /// was merged so far.
    ///
    /// # Panics
    /// Panics when `contenders` is empty or `rounds == 0`.
    pub fn run(
        &self,
        inst: &Arc<Instance>,
        contenders: Vec<Box<dyn RacedAlgorithm>>,
        recorder: Arc<dyn Recorder>,
        cancel: CancelToken,
    ) -> PortfolioOutcome {
        let cfg = &self.cfg;
        assert!(!contenders.is_empty(), "a portfolio needs contenders");
        assert!(cfg.rounds > 0, "a portfolio needs at least one round");
        let n = contenders.len();
        let mut lanes: Vec<Lane> = contenders
            .into_iter()
            .map(|algo| Lane {
                algo,
                weight: 1.0 / n as f64,
                evaluations: 0,
                rounds_won: 0,
                floor_streak: 0,
                retired_round: None,
            })
            .collect();
        // The exploration RNG is pinned to the master seed and drawn in a
        // fixed order, so η-greedy boosts replay exactly.
        let mut explore = Xoshiro256StarStar::seed_from_u64(cfg.seed ^ 0xA110_CA7E_0F0F_0F0F);
        let mut ledger = Vec::with_capacity(cfg.rounds as usize);
        let mut total_spent = 0u64;
        let base = cfg.total_evaluations / u64::from(cfg.rounds);
        let extra = cfg.total_evaluations % u64::from(cfg.rounds);

        'rounds: for round in 0..cfg.rounds {
            let round_budget = base + u64::from(u64::from(round) < extra);
            let slices = allocate(&lanes, round_budget);
            for (i, lane) in lanes.iter().enumerate() {
                if !lane.live() {
                    continue;
                }
                recorder.event(SearchEvent::BudgetReallocated {
                    round,
                    contender: i as u32,
                    evaluations: slices[i],
                });
                recorder.counter_add(names::PORTFOLIO_REALLOCATIONS, 1);
            }

            let mut spent = vec![0u64; n];
            let mut truncated = false;
            for (i, lane) in lanes.iter_mut().enumerate() {
                if !lane.live() || slices[i] == 0 {
                    continue;
                }
                let used =
                    lane.algo
                        .run_slice(inst, slices[i], slice_seed(cfg.seed, i, round), &cancel);
                spent[i] = used;
                lane.evaluations += used;
                total_spent += used;
                recorder.counter_add(names::PORTFOLIO_EVALUATIONS, used);
                if cancel.is_stopped() {
                    truncated = true;
                    break;
                }
            }

            let (scores, hypervolumes) = score(&lanes);
            for (i, lane) in lanes.iter().enumerate() {
                if !lane.live() {
                    continue;
                }
                recorder.event(SearchEvent::RoundScored {
                    round,
                    contender: i as u32,
                    coverage: scores[i],
                    hypervolume: hypervolumes[i],
                });
                recorder.counter_add(names::PORTFOLIO_ROUNDS_SCORED, 1);
            }
            let winner = winner_index(&lanes, &scores, &hypervolumes);
            lanes[winner].rounds_won += 1;

            let mut record = RoundLedger {
                round,
                entries: lanes
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.live())
                    .map(|(i, lane)| LedgerEntry {
                        contender: i as u32,
                        algo: lane.algo.name().to_string(),
                        allocated: slices[i],
                        spent: spent[i],
                        coverage: scores[i],
                        hypervolume: hypervolumes[i],
                        weight: lane.weight,
                    })
                    .collect(),
                winner: winner as u32,
                retired: Vec::new(),
            };

            let last_round = round + 1 == cfg.rounds;
            if !last_round && !truncated {
                let at_floor = reweight(&mut lanes, &scores, &hypervolumes, cfg, &mut explore);
                for (i, lane) in lanes.iter_mut().enumerate() {
                    if !lane.live() {
                        continue;
                    }
                    lane.floor_streak = if at_floor[i] {
                        lane.floor_streak + 1
                    } else {
                        0
                    };
                }
                // Retire floor-pinned lanes — never the round winner, and
                // never below two live contenders (coverage needs a rival).
                if cfg.retire_after > 0 {
                    for i in 0..n {
                        let live = lanes.iter().filter(|l| l.live()).count();
                        if live <= 2 || i == winner || !lanes[i].live() {
                            continue;
                        }
                        if lanes[i].floor_streak >= cfg.retire_after {
                            lanes[i].retired_round = Some(round);
                            lanes[i].weight = 0.0;
                            record.retired.push(i as u32);
                            recorder.event(SearchEvent::ContenderRetired {
                                round,
                                contender: i as u32,
                            });
                            recorder.counter_add(names::PORTFOLIO_CONTENDERS_RETIRED, 1);
                        }
                    }
                    if !record.retired.is_empty() {
                        renormalize(&mut lanes);
                    }
                }
            }
            ledger.push(record);
            if truncated {
                break 'rounds;
            }
        }

        // Stage two: the merged archive absorbs every stage-one front.
        let mut merged = Archive::new(MERGE_CAPACITY);
        for lane in &lanes {
            merged.absorb(lane.algo.front().iter().cloned());
        }
        let contenders = lanes
            .iter()
            .map(|lane| ContenderReport {
                name: lane.algo.name().to_string(),
                front: lane.algo.front().to_vec(),
                evaluations: lane.evaluations,
                rounds_won: lane.rounds_won,
                retired_round: lane.retired_round,
            })
            .collect();
        PortfolioOutcome {
            merged: merged.items().to_vec(),
            ledger,
            contenders,
            evaluations: total_spent,
        }
    }
}

/// Splits `round_budget` across the live lanes proportionally to their
/// weights; the integer remainder goes to the heaviest lane (ties break to
/// the lowest index).
fn allocate(lanes: &[Lane], round_budget: u64) -> Vec<u64> {
    let mut slices = vec![0u64; lanes.len()];
    let mut granted = 0u64;
    let mut heaviest: Option<usize> = None;
    for (i, lane) in lanes.iter().enumerate() {
        if !lane.live() {
            continue;
        }
        slices[i] = (lane.weight * round_budget as f64).floor() as u64;
        granted += slices[i];
        if heaviest.is_none_or(|h| lane.weight > lanes[h].weight) {
            heaviest = Some(i);
        }
    }
    if let Some(h) = heaviest {
        slices[h] += round_budget - granted;
    }
    slices
}

/// Scores every live lane: mean coverage over the other live fronts, and
/// hypervolume against a shared reference point spanning the union.
fn score(lanes: &[Lane]) -> (Vec<f64>, Vec<f64>) {
    let n = lanes.len();
    let mut coverage = vec![0.0; n];
    let mut hv = vec![0.0; n];
    let live: Vec<usize> = (0..n).filter(|&i| lanes[i].live()).collect();
    let mut reference = [f64::MIN; 3];
    for &i in &live {
        for entry in lanes[i].algo.front() {
            let o = pareto::Dominance::objectives(entry);
            for k in 0..3 {
                if o[k].is_finite() && o[k] > reference[k] {
                    reference[k] = o[k];
                }
            }
        }
    }
    let have_points = reference.iter().all(|r| *r > f64::MIN);
    if have_points {
        for r in &mut reference {
            *r = *r * 1.1 + 1.0;
        }
    }
    for &i in &live {
        let mine = lanes[i].algo.front();
        if live.len() > 1 {
            let mut sum = 0.0;
            for &j in &live {
                if j != i {
                    sum += pareto::coverage(mine, lanes[j].algo.front());
                }
            }
            coverage[i] = sum / (live.len() - 1) as f64;
        }
        if have_points {
            hv[i] = pareto::hypervolume_3d(mine, reference);
        }
    }
    (coverage, hv)
}

/// The round winner: best coverage, hypervolume tiebreak, then lowest index.
fn winner_index(lanes: &[Lane], scores: &[f64], hv: &[f64]) -> usize {
    let mut best: Option<usize> = None;
    for (i, lane) in lanes.iter().enumerate() {
        if !lane.live() {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => scores[i] > scores[b] || (scores[i] == scores[b] && hv[i] > hv[b]),
        };
        if better {
            best = Some(i);
        }
    }
    best.expect("at least one live lane")
}

/// Computes the next round's weights: softmax over coverage (with a small
/// normalized-hypervolume tiebreak term), an η-greedy boost from the pinned
/// RNG, then a water-filling clamp to the budget floor. Returns which live
/// lanes the floor clamp was binding for (the "at the floor" flags that
/// drive retirement).
fn reweight(
    lanes: &mut [Lane],
    scores: &[f64],
    hv: &[f64],
    cfg: &PortfolioConfig,
    explore: &mut Xoshiro256StarStar,
) -> Vec<bool> {
    let live: Vec<usize> = (0..lanes.len()).filter(|&i| lanes[i].live()).collect();
    let max_hv = live.iter().map(|&i| hv[i]).fold(0.0f64, f64::max);
    let mut soft: Vec<f64> = live
        .iter()
        .map(|&i| {
            let tiebreak = if max_hv > 0.0 {
                1e-3 * hv[i] / max_hv
            } else {
                0.0
            };
            (cfg.softmax_beta * (scores[i] + tiebreak)).exp()
        })
        .collect();
    let sum: f64 = soft.iter().sum();
    for s in &mut soft {
        *s /= sum;
    }
    // η-greedy: occasionally drag one lane back to the uniform share so a
    // slow starter can recover. Both draws happen every round in the same
    // order regardless of the outcome, keeping the RNG stream aligned.
    let boost = explore.bernoulli(cfg.eta);
    let pick = explore.index(live.len());
    if boost {
        let uniform = 1.0 / live.len() as f64;
        if soft[pick] < uniform {
            soft[pick] = uniform;
            let rest: f64 = soft.iter().sum::<f64>() - soft[pick];
            let scale = (1.0 - uniform) / rest;
            for (k, s) in soft.iter_mut().enumerate() {
                if k != pick {
                    *s *= scale;
                }
            }
        }
    }
    // Water-filling floor clamp: pin every lane the floor is binding for,
    // share the remainder proportionally among the rest, repeat until
    // stable. Terminates because the pinned set only grows.
    let floor_share = (cfg.floor / live.len() as f64).clamp(0.0, 1.0 / live.len() as f64);
    let mut pinned = vec![false; live.len()];
    loop {
        let free_mass: f64 = soft
            .iter()
            .zip(&pinned)
            .filter(|(_, p)| !**p)
            .map(|(s, _)| *s)
            .sum();
        let pinned_mass = floor_share * pinned.iter().filter(|p| **p).count() as f64;
        let mut changed = false;
        for k in 0..live.len() {
            if pinned[k] {
                continue;
            }
            let w = soft[k] / free_mass * (1.0 - pinned_mass);
            if w < floor_share {
                pinned[k] = true;
                changed = true;
            }
        }
        if !changed {
            let pinned_mass = floor_share * pinned.iter().filter(|p| **p).count() as f64;
            let free_mass: f64 = soft
                .iter()
                .zip(&pinned)
                .filter(|(_, p)| !**p)
                .map(|(s, _)| *s)
                .sum();
            for (k, &i) in live.iter().enumerate() {
                lanes[i].weight = if pinned[k] {
                    floor_share
                } else {
                    soft[k] / free_mass * (1.0 - pinned_mass)
                };
            }
            break;
        }
    }
    let mut at_floor = vec![false; lanes.len()];
    for (k, &i) in live.iter().enumerate() {
        at_floor[i] = pinned[k];
    }
    at_floor
}

/// Rescales the live weights to sum to one after a retirement.
fn renormalize(lanes: &mut [Lane]) {
    let sum: f64 = lanes.iter().filter(|l| l.live()).map(|l| l.weight).sum();
    if sum > 0.0 {
        for lane in lanes.iter_mut().filter(|l| l.live()) {
            lane.weight /= sum;
        }
    } else {
        let live = lanes.iter().filter(|l| l.live()).count().max(1);
        for lane in lanes.iter_mut().filter(|l| l.live()) {
            lane.weight = 1.0 / live as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{contender, RaceParams};
    use pareto::Dominance;
    use tsmo_obs::MemoryRecorder;
    use vrptw::generator::{GeneratorConfig, InstanceClass};

    fn build(names: &[&str]) -> Vec<Box<dyn RacedAlgorithm>> {
        let params = RaceParams {
            neighborhood_size: 20,
            population: 12,
            ..RaceParams::default()
        };
        names
            .iter()
            .map(|n| contender(n, &params).expect(n))
            .collect()
    }

    fn small_cfg() -> PortfolioConfig {
        PortfolioConfig {
            rounds: 3,
            total_evaluations: 4_500,
            seed: 7,
            ..PortfolioConfig::default()
        }
    }

    #[test]
    fn race_spends_the_budget_and_merges_a_valid_front() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C1, 25, 5).build());
        let cfg = small_cfg();
        let out = Portfolio::new(cfg.clone()).run(
            &inst,
            build(&["tsmo-seq", "nsga2", "paes"]),
            tsmo_obs::noop(),
            CancelToken::never(),
        );
        assert_eq!(out.evaluations, cfg.total_evaluations);
        assert_eq!(out.ledger.len(), cfg.rounds as usize);
        for round in &out.ledger {
            let allocated: u64 = round.entries.iter().map(|e| e.allocated).sum();
            let spent: u64 = round.entries.iter().map(|e| e.spent).sum();
            assert_eq!(spent, allocated, "uncancelled slices spend exactly");
        }
        assert!(!out.merged.is_empty());
        // Merged front is mutually non-dominated.
        let nd = pareto::non_dominated_indices(&out.merged);
        assert_eq!(nd.len(), out.merged.len());
        // Stage-two merge never loses to a stage-one front: every
        // contender point is weakly dominated by some merged point.
        for report in &out.contenders {
            for entry in &report.front {
                assert!(
                    out.merged
                        .iter()
                        .any(|m| { pareto::weakly_dominates(m.objectives(), entry.objectives()) }),
                    "merged front dropped a non-dominated {} point",
                    report.name
                );
            }
        }
    }

    #[test]
    fn ledger_replays_byte_identically() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::RC1, 25, 5).build());
        let run = || {
            Portfolio::new(small_cfg()).run(
                &inst,
                build(&["tsmo-seq", "nsga2", "spea2"]),
                tsmo_obs::noop(),
                CancelToken::never(),
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.ledger_jsonl(), b.ledger_jsonl());
        assert_eq!(a.merged.len(), b.merged.len());
        for (x, y) in a.merged.iter().zip(&b.merged) {
            assert_eq!(x.objectives(), y.objectives());
            assert_eq!(x.solution, y.solution);
        }
    }

    #[test]
    fn scheduler_emits_the_portfolio_events_and_counters() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 25, 5).build());
        let recorder = MemoryRecorder::shared();
        let out = Portfolio::new(small_cfg()).run(
            &inst,
            build(&["tsmo-seq", "nsga2"]),
            recorder.clone(),
            CancelToken::never(),
        );
        let jsonl = recorder.events_jsonl();
        assert!(jsonl.contains("\"type\":\"budget_reallocated\""));
        assert!(jsonl.contains("\"type\":\"round_scored\""));
        let snap = recorder.metrics();
        assert_eq!(
            snap.counter(names::PORTFOLIO_ROUNDS_SCORED),
            out.ledger
                .iter()
                .map(|r| r.entries.len() as u64)
                .sum::<u64>()
        );
        assert_eq!(snap.counter(names::PORTFOLIO_EVALUATIONS), out.evaluations);
    }

    #[test]
    fn cancellation_truncates_the_race() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::R1, 25, 5).build());
        let cancel = CancelToken::never();
        cancel.cancel();
        let out = Portfolio::new(small_cfg()).run(
            &inst,
            build(&["tsmo-seq", "nsga2"]),
            tsmo_obs::noop(),
            cancel,
        );
        assert!(out.ledger.len() <= 1);
        assert!(out.evaluations < small_cfg().total_evaluations);
    }

    #[test]
    fn floor_keeps_every_live_contender_funded() {
        let inst = Arc::new(GeneratorConfig::new(InstanceClass::C1, 25, 5).build());
        let cfg = PortfolioConfig {
            rounds: 4,
            total_evaluations: 8_000,
            retire_after: 0, // keep everyone live to observe the floor
            ..small_cfg()
        };
        let out = Portfolio::new(cfg.clone()).run(
            &inst,
            build(&["tsmo-seq", "nsga2", "paes"]),
            tsmo_obs::noop(),
            CancelToken::never(),
        );
        let floor_share = cfg.floor / 3.0;
        for round in &out.ledger {
            for e in &round.entries {
                assert!(
                    e.weight >= floor_share - 1e-12,
                    "round {} contender {} fell below the floor: {}",
                    round.round,
                    e.contender,
                    e.weight
                );
            }
        }
    }
}

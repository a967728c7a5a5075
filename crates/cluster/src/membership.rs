//! Dynamic mesh membership: who is in the ring, which searcher slice each
//! member owns, and how both change when nodes are killed or (re)join.
//!
//! The membership view is a versioned list of member slots. Slots are
//! stable — node `k` keeps index `k` across leave/rejoin cycles — so
//! searcher-slice assignment, checkpoint replicas, and the recorded
//! virtual-net log can all refer to nodes by slot. Every transition bumps
//! `epoch`; two views with the same epoch are identical, which is what
//! `MemberUpdate` frames rely on to be idempotent.
//!
//! Slice assignment is a pure function of `(n_total, live slots)`:
//! contiguous ranges in slot order, remainders going to the earliest live
//! slots. At fixed membership every id keeps its owner, so RNG streams,
//! communication lists, and parameter perturbations — all derived from the
//! global id — are untouched, preserving the determinism contract.
//!
//! The recovery rules both meshes share live here too, as pure functions:
//! which replica of a dead node is newest ([`newest_replica`], and
//! [`supersedes`] on the holder's side), and how replicated or warm-start
//! entries fold into a node front ([`merge_warm`]).

use pareto::Archive;
use std::cmp::Reverse;
use std::ops::Range;
use tsmo_core::FrontEntry;

/// One membership slot: a node's address and whether it is currently live.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Member {
    /// The node's `host:port` (empty for virtual nodes).
    pub addr: String,
    /// Whether the slot currently participates in the mesh.
    pub live: bool,
}

/// The versioned membership view of a mesh.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// Transition counter; bumped by every leave/join.
    pub epoch: u64,
    /// Member slots in node order. Slots never shrink: a killed node's
    /// slot stays (marked dead) so its searcher ids and replicas remain
    /// addressable, and a joiner either revives a dead slot or appends.
    pub members: Vec<Member>,
}

impl Membership {
    /// A fresh view with every listed node live, at epoch 0.
    pub fn new(addrs: &[String]) -> Self {
        Self {
            epoch: 0,
            members: addrs
                .iter()
                .map(|a| Member {
                    addr: a.clone(),
                    live: true,
                })
                .collect(),
        }
    }

    /// Number of live members.
    pub fn live_count(&self) -> usize {
        self.members.iter().filter(|m| m.live).count()
    }

    /// Slot indices of the live members, ascending.
    pub fn live_indices(&self) -> Vec<usize> {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.live)
            .map(|(i, _)| i)
            .collect()
    }

    /// Marks slot `node` dead. Returns `true` (and bumps the epoch) iff
    /// the slot existed and was live.
    pub fn mark_left(&mut self, node: usize) -> bool {
        match self.members.get_mut(node) {
            Some(m) if m.live => {
                m.live = false;
                self.epoch += 1;
                true
            }
            _ => false,
        }
    }

    /// Marks slot `node` live again — the slot-addressed rejoin the
    /// virtual mesh uses (the TCP path goes through [`Self::admit`], which
    /// matches by address). Returns `true` (and bumps the epoch) iff the
    /// slot existed and was dead.
    pub fn revive(&mut self, node: usize) -> bool {
        match self.members.get_mut(node) {
            Some(m) if !m.live => {
                m.live = true;
                self.epoch += 1;
                true
            }
            _ => false,
        }
    }

    /// Admits `addr` into the view: an existing slot with the same address
    /// is revived in place, else the first dead slot is taken over, else a
    /// new slot is appended. Returns the slot index; the epoch is bumped
    /// unless the address was already live.
    pub fn admit(&mut self, addr: &str) -> usize {
        if let Some(i) = self.members.iter().position(|m| m.addr == addr) {
            if !self.members[i].live {
                self.members[i].live = true;
                self.epoch += 1;
            }
            return i;
        }
        if let Some(i) = self.members.iter().position(|m| !m.live) {
            self.members[i] = Member {
                addr: addr.to_string(),
                live: true,
            };
            self.epoch += 1;
            return i;
        }
        self.members.push(Member {
            addr: addr.to_string(),
            live: true,
        });
        self.epoch += 1;
        self.members.len() - 1
    }

    /// The next live slot after `node` in ring order (wrapping), excluding
    /// `node` itself — where `node` ships its archive checkpoints. `None`
    /// when no *other* live member exists.
    pub fn ring_successor(&self, node: usize) -> Option<usize> {
        let n = self.members.len();
        if n == 0 {
            return None;
        }
        (1..n)
            .map(|d| (node + d) % n)
            .find(|&i| self.members[i].live)
    }
}

/// Contiguous searcher-slice assignment: `n_total` global searcher ids
/// split over the live slots in ascending slot order, remainder ids going
/// to the earliest slots. Pure in its inputs, so every member computes the
/// identical assignment from the same view.
pub fn assign_slices(n_total: usize, live: &[usize]) -> Vec<(usize, Range<usize>)> {
    if live.is_empty() {
        return Vec::new();
    }
    let base = n_total / live.len();
    let rem = n_total % live.len();
    let mut start = 0;
    live.iter()
        .enumerate()
        .map(|(i, &slot)| {
            let len = base + usize::from(i < rem);
            let range = start..start + len;
            start += len;
            (slot, range)
        })
        .collect()
}

/// The slot owning global searcher `id` under `assignment`, if any.
pub fn owner_of(assignment: &[(usize, Range<usize>)], id: usize) -> Option<usize> {
    assignment
        .iter()
        .find(|(_, r)| r.contains(&id))
        .map(|(slot, _)| *slot)
}

/// How new an archive replica is: the membership epoch its checkpoint was
/// cut at, then the evaluations it covers. For one subject both only grow,
/// so a higher stamp is a later cut; fields compare in declaration order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ReplicaStamp {
    /// Membership epoch when the checkpoint was cut.
    pub epoch: u64,
    /// Evaluations the checkpointed front covers.
    pub evaluations: u64,
}

/// The replica rule: among one subject's `(holder slot, stamp, replica)`
/// candidates the highest stamp wins, ties going to the lowest holder slot.
pub fn newest_replica<T>(
    candidates: impl IntoIterator<Item = (usize, ReplicaStamp, T)>,
) -> Option<T> {
    candidates
        .into_iter()
        .max_by_key(|(holder, stamp, _)| (*stamp, Reverse(*holder)))
        .map(|(_, _, replica)| replica)
}

/// The holder's side of the rule: whether an `incoming` checkpoint replaces
/// the copy stamped `held` (keep the newer; the incoming one on a tie).
pub fn supersedes(incoming: ReplicaStamp, held: Option<ReplicaStamp>) -> bool {
    held.is_none_or(|held| incoming >= held)
}

/// Folds recovered or warm-start entries into a node's merged front. They
/// survive the handover even when every searcher replaced them: a node
/// front must never lose elites the mesh had already found. So crowding
/// may drop a warm entry only when a front member dominates (or equals)
/// it; one that merely lost the crowding comparison on a full archive is
/// put back, past the capacity if need be.
pub fn merge_warm(mut front: Archive<FrontEntry>, warm: Vec<FrontEntry>) -> Vec<FrontEntry> {
    front.absorb(warm.iter().cloned());
    let mut items = front.into_items();
    for entry in warm {
        let w = entry.objectives.to_vector();
        let held = items.iter().any(|f| {
            let v = f.objectives.to_vector();
            v == w || pareto::dominates(&v, &w)
        });
        if !held {
            items.retain(|f| !pareto::dominates(&w, &f.objectives.to_vector()));
            items.push(entry);
        }
    }
    items
}

/// What happens to a node at a scheduled round of an elastic run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// The node is killed: its searchers stop, its inboxes drain to the
    /// void, and the replicas it held are lost with it.
    Kill,
    /// The node (re)joins: its slice is handed back, warm-started from the
    /// replicated archives.
    Join,
}

/// One scheduled membership transition of an elastic virtual run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// Virtual round (1-based step of the round-robin loop) the event
    /// fires before.
    pub round: u64,
    /// The affected node slot.
    pub node: usize,
    /// Kill or join.
    pub kind: ChurnKind,
}

/// Parses a churn schedule of the form `kill:2@40,join:2@90` — comma
/// separated `kind:node@round` items. Events are sorted by round (stable
/// for ties, preserving written order).
pub fn parse_churn(spec: &str) -> Result<Vec<ChurnEvent>, String> {
    let mut events = Vec::new();
    for item in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        let (kind, rest) = item
            .split_once(':')
            .ok_or_else(|| format!("churn item '{item}' is not kind:node@round"))?;
        let kind = match kind {
            "kill" => ChurnKind::Kill,
            "join" => ChurnKind::Join,
            other => return Err(format!("unknown churn kind '{other}' (kill|join)")),
        };
        let (node, round) = rest
            .split_once('@')
            .ok_or_else(|| format!("churn item '{item}' is not kind:node@round"))?;
        let node: usize = node
            .parse()
            .map_err(|_| format!("bad node index '{node}' in '{item}'"))?;
        let round: u64 = round
            .parse()
            .map_err(|_| format!("bad round '{round}' in '{item}'"))?;
        events.push(ChurnEvent { round, node, kind });
    }
    events.sort_by_key(|e| e.round);
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::{Objectives, Solution};

    fn entry(distance: f64, vehicles: usize) -> FrontEntry {
        FrontEntry::new(
            Solution::from_routes(vec![vec![1]]),
            Objectives {
                distance,
                vehicles,
                tardiness: 0.0,
            },
        )
    }

    fn stamp(epoch: u64, evaluations: u64) -> ReplicaStamp {
        ReplicaStamp { epoch, evaluations }
    }

    #[test]
    fn newest_replica_orders_by_epoch_then_evaluations() {
        // A later epoch beats more evaluations at an earlier one.
        let pick = newest_replica([(0, stamp(1, 900), "a"), (2, stamp(2, 100), "b")]);
        assert_eq!(pick, Some("b"));
        // Within an epoch, more evaluations win, whatever the holder.
        let pick = newest_replica([(0, stamp(2, 100), "a"), (3, stamp(2, 300), "b")]);
        assert_eq!(pick, Some("b"));
        assert_eq!(newest_replica::<&str>([]), None);
    }

    #[test]
    fn newest_replica_ties_go_to_the_lowest_holder() {
        let pick = newest_replica([
            (3, stamp(1, 50), "c"),
            (1, stamp(1, 50), "a"),
            (2, stamp(1, 50), "b"),
        ]);
        assert_eq!(pick, Some("a"));
    }

    #[test]
    fn a_holder_keeps_the_newer_copy_on_insert() {
        assert!(supersedes(stamp(0, 10), None), "first copy is stored");
        assert!(supersedes(stamp(1, 5), Some(stamp(0, 10))), "newer epoch");
        assert!(
            supersedes(stamp(1, 20), Some(stamp(1, 10))),
            "more evaluations"
        );
        assert!(
            supersedes(stamp(1, 10), Some(stamp(1, 10))),
            "a tie refreshes"
        );
        // A delayed, older checkpoint must not replace the newer copy.
        assert!(!supersedes(stamp(1, 5), Some(stamp(1, 10))));
        assert!(!supersedes(stamp(0, 99), Some(stamp(1, 10))));
    }

    #[test]
    fn crowding_never_evicts_an_undominated_warm_entry() {
        // A full archive of three spread points, and a warm entry squeezed
        // next to the middle one: the most crowded point, so the capped
        // archive alone would drop it.
        let mut front = Archive::new(3);
        for (d, v) in [(0.0, 10), (5.0, 5), (10.0, 0)] {
            front.insert(entry(d, v));
        }
        let crowded = entry(5.1, 4);
        let mut capped = front.clone();
        capped.insert(crowded.clone());
        assert!(
            !capped
                .items()
                .iter()
                .any(|f| f.objectives == crowded.objectives),
            "the capped archive alone drops the crowded entry"
        );
        let dominated = entry(11.0, 11);
        let merged = merge_warm(front, vec![crowded.clone(), dominated.clone()]);
        assert!(merged.iter().any(|f| f.objectives == crowded.objectives));
        assert!(
            !merged.iter().any(|f| f.objectives == dominated.objectives),
            "a dominated warm entry may still go"
        );
        for a in &merged {
            for b in &merged {
                let (va, vb) = (a.objectives.to_vector(), b.objectives.to_vector());
                assert!(!pareto::dominates(&va, &vb), "front stays non-dominated");
            }
        }
    }

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 4000 + i)).collect()
    }

    #[test]
    fn transitions_bump_epoch_and_keep_slots_stable() {
        let mut m = Membership::new(&addrs(4));
        assert_eq!(m.epoch, 0);
        assert_eq!(m.live_count(), 4);
        assert!(m.mark_left(2));
        assert_eq!(m.epoch, 1);
        assert!(!m.mark_left(2), "double-leave is a no-op");
        assert_eq!(m.epoch, 1);
        assert_eq!(m.live_indices(), vec![0, 1, 3]);
        // Rejoin with the same address revives the same slot.
        assert_eq!(m.admit("127.0.0.1:4002"), 2);
        assert_eq!(m.epoch, 2);
        assert_eq!(m.live_count(), 4);
        // Admitting an already-live address changes nothing.
        assert_eq!(m.admit("127.0.0.1:4002"), 2);
        assert_eq!(m.epoch, 2);
    }

    #[test]
    fn new_address_takes_over_dead_slot_before_appending() {
        let mut m = Membership::new(&addrs(3));
        m.mark_left(1);
        assert_eq!(m.admit("10.0.0.9:5000"), 1, "dead slot reused");
        assert_eq!(m.members[1].addr, "10.0.0.9:5000");
        assert_eq!(m.admit("10.0.0.10:5001"), 3, "no dead slot: append");
        assert_eq!(m.members.len(), 4);
    }

    #[test]
    fn ring_successor_skips_dead_and_wraps() {
        let mut m = Membership::new(&addrs(4));
        assert_eq!(m.ring_successor(0), Some(1));
        assert_eq!(m.ring_successor(3), Some(0));
        m.mark_left(1);
        assert_eq!(m.ring_successor(0), Some(2));
        m.mark_left(2);
        m.mark_left(3);
        assert_eq!(m.ring_successor(0), None, "alone in the ring");
        assert_eq!(
            m.ring_successor(1),
            Some(0),
            "dead nodes still have a successor"
        );
    }

    #[test]
    fn slices_are_contiguous_cover_all_ids_and_favor_early_slots() {
        let a = assign_slices(16, &[0, 1, 2, 3]);
        assert_eq!(a, vec![(0, 0..4), (1, 4..8), (2, 8..12), (3, 12..16)]);
        let a = assign_slices(16, &[0, 1, 3]);
        assert_eq!(a, vec![(0, 0..6), (1, 6..11), (3, 11..16)]);
        // Remainder to the earliest live slots; union always covers 0..n.
        let mut covered = [false; 16];
        for (_, r) in &a {
            for id in r.clone() {
                assert!(!covered[id], "id {id} assigned twice");
                covered[id] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
        assert_eq!(owner_of(&a, 7), Some(1));
        assert_eq!(owner_of(&a, 11), Some(3));
        assert_eq!(owner_of(&a, 16), None);
        assert!(assign_slices(8, &[]).is_empty());
    }

    #[test]
    fn fixed_membership_assignment_matches_static_mesh() {
        // At full membership the assignment is exactly the static
        // `node k hosts k*s..(k+1)*s` contract.
        let s = 3;
        let a = assign_slices(4 * s, &[0, 1, 2, 3]);
        for (k, (slot, range)) in a.iter().enumerate() {
            assert_eq!(*slot, k);
            assert_eq!(*range, k * s..(k + 1) * s);
        }
    }

    #[test]
    fn churn_spec_parses_and_sorts() {
        let plan = parse_churn("join:2@90, kill:2@40,kill:5@40").expect("parses");
        assert_eq!(
            plan,
            vec![
                ChurnEvent {
                    round: 40,
                    node: 2,
                    kind: ChurnKind::Kill
                },
                ChurnEvent {
                    round: 40,
                    node: 5,
                    kind: ChurnKind::Kill
                },
                ChurnEvent {
                    round: 90,
                    node: 2,
                    kind: ChurnKind::Join
                },
            ]
        );
        assert!(parse_churn("reboot:1@5").is_err());
        assert!(parse_churn("kill:x@5").is_err());
        assert!(parse_churn("kill:1").is_err());
        assert!(parse_churn("").expect("empty ok").is_empty());
    }
}

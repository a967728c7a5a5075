//! The move vocabulary: plain-data descriptions of route edits.

use crate::feasibility::arc_feasible;
use vrptw::solution::{EvaluatedSolution, RoutePatch};
use vrptw::{Instance, SiteId, DEPOT};

/// A directed arc of the giant tour; `0` is the depot. Arcs are the
/// attributes stored in the tabu list: a move is tabu when it re-creates an
/// arc that a recent move removed (it would start undoing that move).
pub type Arc = (SiteId, SiteId);

/// The five operator families of §II.B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Move one customer to another route.
    Relocate,
    /// Swap two customers of different routes.
    Exchange,
    /// Reverse part of one tour.
    TwoOpt,
    /// Exchange the tails of two tours.
    TwoOptStar,
    /// Move two consecutive customers within their tour.
    OrOpt,
}

impl OperatorKind {
    /// All five operators, in the paper's order.
    pub const ALL: [OperatorKind; 5] = [
        OperatorKind::Relocate,
        OperatorKind::Exchange,
        OperatorKind::TwoOpt,
        OperatorKind::TwoOptStar,
        OperatorKind::OrOpt,
    ];

    /// This operator's position in [`OperatorKind::ALL`] — the index
    /// used by per-operator attribution arrays.
    pub fn index(self) -> usize {
        match self {
            OperatorKind::Relocate => 0,
            OperatorKind::Exchange => 1,
            OperatorKind::TwoOpt => 2,
            OperatorKind::TwoOptStar => 3,
            OperatorKind::OrOpt => 4,
        }
    }

    /// Stable snake_case label used as the `operator` metric label.
    pub fn label(self) -> &'static str {
        match self {
            OperatorKind::Relocate => "relocate",
            OperatorKind::Exchange => "exchange",
            OperatorKind::TwoOpt => "two_opt",
            OperatorKind::TwoOptStar => "two_opt_star",
            OperatorKind::OrOpt => "or_opt",
        }
    }
}

/// A sampled neighborhood move, expressed against a specific solution
/// snapshot (the route indices and positions refer to that snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Move {
    /// Remove the customer at `from.1` in route `from.0` and insert it at
    /// position `to.1` of route `to.0` (≠ `from.0`); the insertion position
    /// is an index into the *unmodified* target route (`0..=len`).
    Relocate {
        /// `(route, position)` of the customer being moved.
        from: (usize, usize),
        /// `(route, insertion index)` in the target route.
        to: (usize, usize),
    },
    /// Swap the customers at the two `(route, position)` slots (different
    /// routes).
    Exchange {
        /// First slot.
        a: (usize, usize),
        /// Second slot.
        b: (usize, usize),
    },
    /// Reverse positions `i..=j` (inclusive, `i < j`) of `route`.
    TwoOpt {
        /// Route index.
        route: usize,
        /// First position of the reversed segment.
        i: usize,
        /// Last position of the reversed segment.
        j: usize,
    },
    /// Cross routes `a` and `b`: the new `a` keeps its first `cut_a`
    /// customers and receives `b`'s tail from `cut_b`, and vice versa.
    TwoOptStar {
        /// First route index.
        a: usize,
        /// Number of customers route `a` keeps.
        cut_a: usize,
        /// Second route index.
        b: usize,
        /// Number of customers route `b` keeps.
        cut_b: usize,
    },
    /// Move the pair at positions `(from, from+1)` of `route` so that it
    /// starts at position `to` of the route with the pair removed
    /// (`to != from`, `to <= len-2`).
    OrOpt {
        /// Route index.
        route: usize,
        /// Position of the first customer of the pair.
        from: usize,
        /// Insertion position in the pair-less route.
        to: usize,
    },
}

impl Move {
    /// The operator family this move belongs to.
    pub fn kind(&self) -> OperatorKind {
        match self {
            Move::Relocate { .. } => OperatorKind::Relocate,
            Move::Exchange { .. } => OperatorKind::Exchange,
            Move::TwoOpt { .. } => OperatorKind::TwoOpt,
            Move::TwoOptStar { .. } => OperatorKind::TwoOptStar,
            Move::OrOpt { .. } => OperatorKind::OrOpt,
        }
    }

    /// Builds the route patch this move performs on `snapshot`.
    ///
    /// # Panics
    /// Panics if the move's indices do not fit the snapshot (moves must be
    /// expanded against the same snapshot they were sampled from).
    pub fn expand(&self, snapshot: &EvaluatedSolution) -> RoutePatch {
        match *self {
            Move::Relocate { from, to } => {
                let (fr, fp) = from;
                let (tr, tp) = to;
                assert_ne!(fr, tr, "relocate requires distinct routes");
                let mut from_route = snapshot.route(fr).to_vec();
                let customer = from_route.remove(fp);
                // Sized for the insert, so it never reallocates.
                let mut to_route = Vec::with_capacity(snapshot.route(tr).len() + 1);
                to_route.extend_from_slice(snapshot.route(tr));
                to_route.insert(tp, customer);
                RoutePatch {
                    replace: vec![(fr, from_route), (tr, to_route)],
                    append: vec![],
                }
            }
            Move::Exchange { a, b } => {
                let (ra, pa) = a;
                let (rb, pb) = b;
                assert_ne!(ra, rb, "exchange requires distinct routes");
                let mut route_a = snapshot.route(ra).to_vec();
                let mut route_b = snapshot.route(rb).to_vec();
                std::mem::swap(&mut route_a[pa], &mut route_b[pb]);
                RoutePatch {
                    replace: vec![(ra, route_a), (rb, route_b)],
                    append: vec![],
                }
            }
            Move::TwoOpt { route, i, j } => {
                let mut r = snapshot.route(route).to_vec();
                assert!(i < j && j < r.len(), "invalid 2-opt segment");
                r[i..=j].reverse();
                RoutePatch {
                    replace: vec![(route, r)],
                    append: vec![],
                }
            }
            Move::TwoOptStar { a, cut_a, b, cut_b } => {
                assert_ne!(a, b, "2-opt* requires distinct routes");
                let ra = snapshot.route(a);
                let rb = snapshot.route(b);
                let mut new_a = Vec::with_capacity(cut_a + rb.len() - cut_b);
                new_a.extend_from_slice(&ra[..cut_a]);
                new_a.extend_from_slice(&rb[cut_b..]);
                let mut new_b = Vec::with_capacity(cut_b + ra.len() - cut_a);
                new_b.extend_from_slice(&rb[..cut_b]);
                new_b.extend_from_slice(&ra[cut_a..]);
                RoutePatch {
                    replace: vec![(a, new_a), (b, new_b)],
                    append: vec![],
                }
            }
            Move::OrOpt { route, from, to } => {
                let mut r = snapshot.route(route).to_vec();
                assert!(from + 1 < r.len(), "or-opt pair out of range");
                let second = r.remove(from + 1);
                let first = r.remove(from);
                assert!(to <= r.len() && to != from, "invalid or-opt target");
                r.insert(to, first);
                r.insert(to + 1, second);
                RoutePatch {
                    replace: vec![(route, r)],
                    append: vec![],
                }
            }
        }
    }

    /// `(removed, created)` arcs — the tabu attributes — listed from the
    /// move's splice points alone: the 2–4 arcs it breaks and forms there
    /// and, for 2-opt, every arc of the reversed segment with its reversal.
    /// Equal to [`Move::arc_delta`] as multisets, in time proportional to
    /// the splice (plus the reversed segment) instead of the touched routes.
    pub fn splice_delta(&self, snapshot: &EvaluatedSolution) -> (Vec<Arc>, Vec<Arc>) {
        let s = self.splice(snapshot);
        let interior = s.reversed.len().saturating_sub(1);
        let mut removed = Vec::with_capacity(s.removed.len + interior);
        let mut created = Vec::with_capacity(s.created.len + interior);
        removed.extend_from_slice(s.removed.as_slice());
        created.extend_from_slice(s.created.as_slice());
        removed.extend(s.reversed.windows(2).map(|w| (w[0], w[1])));
        created.extend(s.reversed.windows(2).map(|w| (w[1], w[0])));
        (removed, created)
    }

    /// The local feasibility criterion over the arcs the move creates:
    /// every one satisfies [`arc_feasible`]. Reads the splice arcs from
    /// inline buffers and the reversed 2-opt segment in place, so it never
    /// allocates and never expands the move.
    pub fn splice_feasible(&self, inst: &Instance, snapshot: &EvaluatedSolution) -> bool {
        let s = self.splice(snapshot);
        s.created
            .as_slice()
            .iter()
            .all(|&(u, v)| arc_feasible(inst, u, v))
            && s.reversed
                .windows(2)
                .all(|w| arc_feasible(inst, w[1], w[0]))
    }

    /// The arcs this move breaks and forms at its splice points, minus the
    /// arcs it both breaks and forms (a customer that keeps its depot arc).
    ///
    /// # Panics
    /// Panics if the move's indices do not fit the snapshot, as
    /// [`Move::expand`] does.
    fn splice<'a>(&self, snapshot: &'a EvaluatedSolution) -> Splice<'a> {
        let mut s = Splice::default();
        match *self {
            Move::Relocate { from, to } => {
                let (fr, fp) = from;
                let (tr, tp) = to;
                assert_ne!(fr, tr, "relocate requires distinct routes");
                let (f, t) = (snapshot.route(fr), snapshot.route(tr));
                assert!(tp <= t.len(), "relocate target out of range");
                let c = f[fp];
                let (fp_prev, fp_next) = (before(f, fp), at(f, fp + 1));
                let (tp_prev, tp_next) = (before(t, tp), at(t, tp));
                s.removed.push((fp_prev, c));
                s.removed.push((c, fp_next));
                s.removed.push((tp_prev, tp_next));
                s.created.push((fp_prev, fp_next));
                s.created.push((tp_prev, c));
                s.created.push((c, tp_next));
            }
            Move::Exchange { a, b } => {
                assert_ne!(a.0, b.0, "exchange requires distinct routes");
                let (ra, rb) = (snapshot.route(a.0), snapshot.route(b.0));
                let (x, y) = (ra[a.1], rb[b.1]);
                for (r, p, old, new) in [(ra, a.1, x, y), (rb, b.1, y, x)] {
                    let (prev, next) = (before(r, p), at(r, p + 1));
                    s.removed.push((prev, old));
                    s.removed.push((old, next));
                    s.created.push((prev, new));
                    s.created.push((new, next));
                }
            }
            Move::TwoOpt { route, i, j } => {
                let r = snapshot.route(route);
                assert!(i < j && j < r.len(), "invalid 2-opt segment");
                let (prev, next) = (before(r, i), at(r, j + 1));
                s.removed.push((prev, r[i]));
                s.removed.push((r[j], next));
                s.created.push((prev, r[j]));
                s.created.push((r[i], next));
                s.reversed = &r[i..=j];
            }
            Move::TwoOptStar { a, cut_a, b, cut_b } => {
                assert_ne!(a, b, "2-opt* requires distinct routes");
                let (ra, rb) = (snapshot.route(a), snapshot.route(b));
                assert!(
                    cut_a <= ra.len() && cut_b <= rb.len(),
                    "2-opt* cut out of range"
                );
                let (a_prev, a_next) = (before(ra, cut_a), at(ra, cut_a));
                let (b_prev, b_next) = (before(rb, cut_b), at(rb, cut_b));
                s.removed.push((a_prev, a_next));
                s.removed.push((b_prev, b_next));
                s.created.push((a_prev, b_next));
                s.created.push((b_prev, a_next));
            }
            Move::OrOpt { route, from, to } => {
                let r = snapshot.route(route);
                assert!(from + 1 < r.len(), "or-opt pair out of range");
                assert!(to <= r.len() - 2 && to != from, "invalid or-opt target");
                let (p, q) = (r[from], r[from + 1]);
                // Site `k` of the route with the pair removed.
                let rest = |k: usize| if k < from { r[k] } else { at(r, k + 2) };
                let (prev, next) = (before(r, from), at(r, from + 2));
                let (x, y) = (if to == 0 { DEPOT } else { rest(to - 1) }, rest(to));
                s.removed.push((prev, p));
                s.removed.push((q, next));
                s.removed.push((x, y));
                s.created.push((prev, next));
                s.created.push((x, p));
                s.created.push((q, y));
            }
        }
        s.cancel();
        s
    }

    /// The arcs this move removes from the solution (tabu attributes),
    /// through the [`Move::arc_delta`] oracle.
    pub fn arcs_removed(&self, snapshot: &EvaluatedSolution) -> Vec<Arc> {
        self.arc_delta(snapshot).0
    }

    /// The arcs this move creates, through the [`Move::arc_delta`] oracle.
    pub fn arcs_created(&self, snapshot: &EvaluatedSolution) -> Vec<Arc> {
        self.arc_delta(snapshot).1
    }

    /// `(removed, created)` arcs, computed by diffing the arc multisets of
    /// the touched routes before and after the patch.
    ///
    /// This is the reference oracle for [`Move::splice_delta`] and
    /// [`Move::splice_feasible`]: it derives the attributes from `expand`
    /// by definition, at the cost of expanding the move and a quadratic
    /// diff over the touched routes. The search itself uses the splice
    /// form.
    pub fn arc_delta(&self, snapshot: &EvaluatedSolution) -> (Vec<Arc>, Vec<Arc>) {
        let patch = self.expand(snapshot);
        let mut before: Vec<Arc> = Vec::new();
        let mut after: Vec<Arc> = Vec::new();
        for (idx, new_route) in &patch.replace {
            collect_arcs(snapshot.route(*idx), &mut before);
            collect_arcs(new_route, &mut after);
        }
        for new_route in &patch.append {
            collect_arcs(new_route, &mut after);
        }
        // removed = before \ after, created = after \ before (multiset diff).
        let removed = multiset_minus(&before, &after);
        let created = multiset_minus(&after, &before);
        (removed, created)
    }
}

/// Up to four arcs held inline: one side of a move's splice.
#[derive(Debug, Default)]
struct SpliceArcs {
    arcs: [Arc; 4],
    len: usize,
}

impl SpliceArcs {
    /// Adds `arc`, except the depot-to-depot pair an empty route yields,
    /// which is no arc of any tour.
    fn push(&mut self, arc: Arc) {
        if arc != (DEPOT, DEPOT) {
            self.arcs[self.len] = arc;
            self.len += 1;
        }
    }

    fn as_slice(&self) -> &[Arc] {
        &self.arcs[..self.len]
    }
}

/// The arcs a move breaks and forms: the splice arcs inline, and the
/// segment a 2-opt reverses, whose arcs it removes and whose reversed arcs
/// it creates.
#[derive(Debug, Default)]
struct Splice<'a> {
    removed: SpliceArcs,
    created: SpliceArcs,
    reversed: &'a [SiteId],
}

impl Splice<'_> {
    /// Multiset difference of the two splice lists: an arc both broken and
    /// formed stays in the tour. (A reversed segment's arcs never cancel:
    /// a route visits each customer once.)
    fn cancel(&mut self) {
        let mut k = 0;
        while k < self.created.len {
            let arc = self.created.arcs[k];
            match self.removed.as_slice().iter().position(|&r| r == arc) {
                Some(m) => {
                    self.removed.len -= 1;
                    self.removed.arcs[m] = self.removed.arcs[self.removed.len];
                    self.created.len -= 1;
                    self.created.arcs[k] = self.created.arcs[self.created.len];
                }
                None => k += 1,
            }
        }
    }
}

/// The site before position `pos` of `route`: the depot at the start.
fn before(route: &[SiteId], pos: usize) -> SiteId {
    if pos == 0 {
        DEPOT
    } else {
        route[pos - 1]
    }
}

/// The site at position `pos` of `route`: the depot past the end.
fn at(route: &[SiteId], pos: usize) -> SiteId {
    route.get(pos).copied().unwrap_or(DEPOT)
}

/// Appends the depot-to-depot arc sequence of a route to `out`.
fn collect_arcs(route: &[SiteId], out: &mut Vec<Arc>) {
    if route.is_empty() {
        return;
    }
    out.push((DEPOT, route[0]));
    for w in route.windows(2) {
        out.push((w[0], w[1]));
    }
    out.push((route[route.len() - 1], DEPOT));
}

/// Multiset difference `a \ b`.
fn multiset_minus(a: &[Arc], b: &[Arc]) -> Vec<Arc> {
    let mut remaining: Vec<Arc> = b.to_vec();
    let mut out = Vec::new();
    for &arc in a {
        if let Some(pos) = remaining.iter().position(|&x| x == arc) {
            remaining.swap_remove(pos);
        } else {
            out.push(arc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrptw::{Instance, Solution};

    fn snapshot(routes: Vec<Vec<SiteId>>) -> (Instance, EvaluatedSolution) {
        let inst = Instance::tiny();
        let ev = EvaluatedSolution::new(Solution::from_routes(routes), &inst);
        (inst, ev)
    }

    #[test]
    fn relocate_expands_correctly() {
        let (inst, ev) = snapshot(vec![vec![1, 2], vec![3, 4]]);
        let mv = Move::Relocate {
            from: (0, 1),
            to: (1, 0),
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![1]), (1, vec![2, 3, 4])]);
        let mut applied = ev.clone();
        applied.apply(&inst, patch);
        assert!(applied.solution().check(&inst).is_empty());
    }

    #[test]
    fn relocate_can_empty_a_route() {
        let (inst, ev) = snapshot(vec![vec![1], vec![2, 3, 4]]);
        let mv = Move::Relocate {
            from: (0, 0),
            to: (1, 3),
        };
        let mut applied = ev.clone();
        applied.apply(&inst, mv.expand(&ev));
        assert_eq!(applied.n_routes(), 1);
        assert_eq!(applied.route(0), &[2, 3, 4, 1]);
    }

    #[test]
    fn exchange_expands_correctly() {
        let (_, ev) = snapshot(vec![vec![1, 2], vec![3, 4]]);
        let mv = Move::Exchange {
            a: (0, 0),
            b: (1, 1),
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![4, 2]), (1, vec![3, 1])]);
    }

    #[test]
    fn two_opt_reverses_segment() {
        let (_, ev) = snapshot(vec![vec![1, 2, 3, 4]]);
        let mv = Move::TwoOpt {
            route: 0,
            i: 1,
            j: 3,
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![1, 4, 3, 2])]);
    }

    #[test]
    fn two_opt_star_swaps_tails() {
        let (_, ev) = snapshot(vec![vec![1, 2], vec![3, 4]]);
        let mv = Move::TwoOptStar {
            a: 0,
            cut_a: 1,
            b: 1,
            cut_b: 1,
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![1, 4]), (1, vec![3, 2])]);
    }

    #[test]
    fn two_opt_star_with_empty_tail_moves_suffix() {
        let (_, ev) = snapshot(vec![vec![1, 2, 3], vec![4]]);
        // a keeps 3 (empty tail added from b after cut 1 => nothing),
        // b keeps 1 and receives nothing… choose cuts that move 3 to b.
        let mv = Move::TwoOptStar {
            a: 0,
            cut_a: 2,
            b: 1,
            cut_b: 1,
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![1, 2]), (1, vec![4, 3])]);
    }

    #[test]
    fn or_opt_moves_pair_within_route() {
        let (_, ev) = snapshot(vec![vec![1, 2, 3, 4]]);
        let mv = Move::OrOpt {
            route: 0,
            from: 0,
            to: 2,
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![3, 4, 1, 2])]);
    }

    #[test]
    fn or_opt_backward_move() {
        let (_, ev) = snapshot(vec![vec![1, 2, 3, 4]]);
        let mv = Move::OrOpt {
            route: 0,
            from: 2,
            to: 0,
        };
        let patch = mv.expand(&ev);
        assert_eq!(patch.replace, vec![(0, vec![3, 4, 1, 2])]);
    }

    #[test]
    fn arc_delta_for_relocate() {
        let (_, ev) = snapshot(vec![vec![1, 2], vec![3, 4]]);
        let mv = Move::Relocate {
            from: (0, 0),
            to: (1, 1),
        };
        let (removed, created) = mv.arc_delta(&ev);
        // Before: 0-1,1-2,2-0 / 0-3,3-4,4-0  After: 0-2,2-0? no: route0=[2]
        // => 0-2,2-0 ; route1=[3,1,4] => 0-3,3-1,1-4,4-0.
        let rm: std::collections::HashSet<Arc> = removed.into_iter().collect();
        let cr: std::collections::HashSet<Arc> = created.into_iter().collect();
        assert_eq!(rm, [(0, 1), (1, 2), (3, 4)].into_iter().collect());
        assert_eq!(cr, [(0, 2), (3, 1), (1, 4)].into_iter().collect());
    }

    #[test]
    fn arc_delta_for_two_opt_ignores_unchanged_arcs() {
        let (_, ev) = snapshot(vec![vec![1, 2, 3, 4]]);
        let mv = Move::TwoOpt {
            route: 0,
            i: 1,
            j: 2,
        };
        let (removed, created) = mv.arc_delta(&ev);
        // 1-2,2-3,3-4 -> 1-3,3-2,2-4.
        let rm: std::collections::HashSet<Arc> = removed.into_iter().collect();
        let cr: std::collections::HashSet<Arc> = created.into_iter().collect();
        assert_eq!(rm, [(1, 2), (2, 3), (3, 4)].into_iter().collect());
        assert_eq!(cr, [(1, 3), (3, 2), (2, 4)].into_iter().collect());
    }

    #[test]
    fn identity_like_moves_have_empty_delta() {
        let (_, ev) = snapshot(vec![vec![1, 2], vec![3, 4]]);
        // Whole-route swap via 2-opt*: relabeling only.
        let mv = Move::TwoOptStar {
            a: 0,
            cut_a: 0,
            b: 1,
            cut_b: 0,
        };
        let (removed, created) = mv.arc_delta(&ev);
        assert!(removed.is_empty());
        assert!(created.is_empty());
    }

    #[test]
    #[should_panic]
    fn relocate_same_route_panics() {
        let (_, ev) = snapshot(vec![vec![1, 2], vec![3, 4]]);
        Move::Relocate {
            from: (0, 0),
            to: (0, 1),
        }
        .expand(&ev);
    }

    #[test]
    fn kinds_are_reported() {
        assert_eq!(
            Move::TwoOpt {
                route: 0,
                i: 0,
                j: 1
            }
            .kind(),
            OperatorKind::TwoOpt
        );
        assert_eq!(OperatorKind::ALL.len(), 5);
    }
}

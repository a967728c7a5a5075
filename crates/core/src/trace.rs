//! Search-trajectory tracing for Fig. 1-style plots.
//!
//! The paper's Fig. 1 shows the asynchronous variant's trajectory in
//! objective space: every considered neighbor carries the number of the
//! iteration that *created* it, circles mark the solutions selected as
//! current, and — because the variant is asynchronous — a solution created
//! in iteration `k` may only be considered in iteration `k+δ`.
//!
//! A trace holds one 48-byte point per considered neighbor, and a search
//! considers at most one neighbor per evaluation, so a paper-sized run of
//! 100,000 evaluations traces under 5 MB.

use vrptw::Objectives;

/// One recorded event: a neighbor considered during selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Iteration whose current solution generated this neighbor.
    pub iter_created: usize,
    /// Iteration in which it was considered for selection (equals
    /// `iter_created` for the synchronous/sequential variants).
    pub iter_considered: usize,
    /// The neighbor's objectives.
    pub objectives: Objectives,
    /// Whether it was chosen as the new current solution.
    pub chosen: bool,
}

/// A search trace: every considered neighbor, in consideration order.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    points: Vec<TracePoint>,
}

impl Trace {
    /// Records one considered neighbor.
    pub fn record(&mut self, point: TracePoint) {
        self.points.push(point);
    }

    /// Number of recorded points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points are recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points in consideration order.
    pub fn iter(&self) -> impl Iterator<Item = &TracePoint> {
        self.points.iter()
    }

    /// Serializes to CSV (`iter_created,iter_considered,f1,f2,f3,chosen`).
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("iter_created,iter_considered,distance,vehicles,tardiness,chosen\n");
        for p in self.iter() {
            out.push_str(&format!(
                "{},{},{:.6},{},{:.6},{}\n",
                p.iter_created,
                p.iter_considered,
                p.objectives.distance,
                p.objectives.vehicles,
                p.objectives.tardiness,
                u8::from(p.chosen),
            ));
        }
        out
    }

    /// Points chosen as current solutions, in order — the trajectory line
    /// of Fig. 1.
    pub fn trajectory(&self) -> Vec<&TracePoint> {
        self.iter().filter(|p| p.chosen).collect()
    }

    /// Maximum staleness observed: how many iterations after its creation
    /// a neighbor was still considered (0 for synchronous runs).
    pub fn max_staleness(&self) -> usize {
        self.iter()
            .map(|p| p.iter_considered.saturating_sub(p.iter_created))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(created: usize, considered: usize, chosen: bool) -> TracePoint {
        TracePoint {
            iter_created: created,
            iter_considered: considered,
            objectives: Objectives {
                distance: 1.0,
                vehicles: 1,
                tardiness: 0.0,
            },
            chosen,
        }
    }

    #[test]
    fn trajectory_filters_chosen() {
        let mut t = Trace::default();
        t.record(pt(0, 0, false));
        t.record(pt(0, 0, true));
        t.record(pt(1, 1, true));
        assert_eq!(t.trajectory().len(), 2);
    }

    #[test]
    fn staleness_zero_for_synchronous_traces() {
        let mut t = Trace::default();
        t.record(pt(3, 3, false));
        t.record(pt(4, 4, true));
        assert_eq!(t.max_staleness(), 0);
    }

    #[test]
    fn staleness_measures_late_consideration() {
        let mut t = Trace::default();
        t.record(pt(2, 5, false));
        t.record(pt(4, 4, true));
        assert_eq!(t.max_staleness(), 3);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut t = Trace::default();
        t.record(pt(0, 1, true));
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("iter_created,"));
        assert!(lines[1].starts_with("0,1,"));
        assert!(lines[1].ends_with(",1"));
    }

    #[test]
    fn empty_trace_is_sane() {
        let t = Trace::default();
        assert_eq!(t.max_staleness(), 0);
        assert!(t.trajectory().is_empty());
        assert_eq!(t.to_csv().lines().count(), 1);
        assert!(t.is_empty());
    }
}

//! Deterministic virtual-time simulation of a message-passing cluster.
//!
//! The paper measured runtimes and speedups on an SGI Origin 3800 with 128
//! processors. When the reproduction host has fewer cores than the
//! experiment needs (in the limit: a single-core container, where OS
//! threads can only timeshare), real wall-clock measurements cannot show
//! parallel speedup at all. This module substitutes the machine: work is
//! executed on one thread, and per-processor **virtual clocks** plus a
//! simple interconnect model (per-message latency, with a congestion
//! factor for many-way collaborative traffic) yield the makespan a real
//! cluster would have achieved. The parallel variants in `tsmo-core` run
//! on this behind their executor seam; DESIGN.md documents the
//! substitution.
//!
//! Virtual time is a pure function of counted work — no host clock is
//! read, so a schedule depends on the seed alone:
//!
//! * a unit of work (one evaluation, one neighbor the master considers,
//!   one received exchange entry) costs `unit_cost` seconds on a
//!   reference processor, and `unit_cost / speed` on a processor of
//!   relative speed `speed`;
//! * a message sent at time `t` arrives at `t + latency` (the receiver can
//!   process it once its own clock has reached the arrival time);
//! * the run's `makespan` is the maximum clock.

/// A simulated cluster: one clock and one relative speed per processor,
/// a cost per unit of work, and a per-message latency.
#[derive(Debug, Clone)]
pub struct VirtualCluster {
    clocks: Vec<f64>,
    /// Virtual seconds of work charged to each processor (its clock
    /// without the time it spent waiting or sending).
    busy: Vec<f64>,
    /// Relative speed of each processor (1.0 = reference speed); work
    /// costs are divided by this when charged.
    speeds: Vec<f64>,
    unit_cost: f64,
    latency: f64,
}

impl VirtualCluster {
    /// A cluster with one processor per entry of `speeds`: `speeds[p]` is
    /// processor `p`'s relative speed (0.5 = half as fast as the
    /// reference, so its work takes twice as long in virtual time). The
    /// paper motivates the asynchronous variant with heterogeneous
    /// speeds: "the asynchronous algorithms are interesting as they should
    /// perform well on both homogenous and heterogenous systems". A unit
    /// of work costs `unit_cost` seconds at reference speed; a message
    /// takes `latency` seconds.
    ///
    /// # Panics
    /// Panics on an empty or non-positive speed vector, or a negative cost
    /// or latency.
    pub fn new(speeds: Vec<f64>, unit_cost: f64, latency: f64) -> Self {
        assert!(!speeds.is_empty(), "a cluster needs at least one processor");
        assert!(speeds.iter().all(|&s| s > 0.0), "speeds must be positive");
        assert!(unit_cost >= 0.0, "work cannot cost negative time");
        assert!(latency >= 0.0, "latency cannot be negative");
        Self {
            clocks: vec![0.0; speeds.len()],
            busy: vec![0.0; speeds.len()],
            speeds,
            unit_cost,
            latency,
        }
    }

    /// Number of processors.
    pub fn n_processors(&self) -> usize {
        self.clocks.len()
    }

    /// The configured per-message latency.
    pub fn latency(&self) -> f64 {
        self.latency
    }

    /// Processor `p`'s current virtual time.
    pub fn clock(&self, p: usize) -> f64 {
        self.clocks[p]
    }

    /// Virtual seconds of work charged to processor `p` so far: the sum
    /// of its [`VirtualCluster::work`] costs, excluding [`advance`] and
    /// [`advance_to`] (stalls, sends and idle waiting).
    ///
    /// [`advance`]: VirtualCluster::advance
    /// [`advance_to`]: VirtualCluster::advance_to
    pub fn busy(&self, p: usize) -> f64 {
        self.busy[p]
    }

    /// Charges `units` of work to processor `p`: its clock and its busy
    /// time advance by `units · unit_cost / speed[p]`.
    pub fn work(&mut self, p: usize, units: u64) {
        let dt = units as f64 * self.unit_cost / self.speeds[p];
        self.clocks[p] += dt;
        self.busy[p] += dt;
    }

    /// Advances processor `p` by `dt` seconds that are not work (a stall,
    /// or the time a message occupies its sender), so its speed does not
    /// apply.
    ///
    /// # Panics
    /// Panics if `dt` is negative.
    pub fn advance(&mut self, p: usize, dt: f64) {
        assert!(dt >= 0.0, "cannot advance backwards");
        self.clocks[p] += dt;
    }

    /// Moves processor `p`'s clock forward to `t` (no-op if already past).
    pub fn advance_to(&mut self, p: usize, t: f64) {
        if t > self.clocks[p] {
            self.clocks[p] = t;
        }
    }

    /// Sends a message from `from` (at its current time): returns the
    /// virtual arrival time at the destination. `congestion` scales the
    /// latency — pass 1.0 for point-to-point master–worker traffic, or a
    /// larger factor to model interconnect contention (the collaborative
    /// variant charges a factor proportional to the processor count, which
    /// is what makes its runtime grow with P as in the paper's tables).
    pub fn send_at(&self, from: usize, congestion: f64) -> f64 {
        self.clocks[from] + self.latency * congestion.max(0.0)
    }

    /// The cluster's makespan so far — the virtual runtime of the program.
    pub fn makespan(&self) -> f64 {
        self.clocks.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_advances_only_the_target_clock_scaled_by_its_speed() {
        let mut c = VirtualCluster::new(vec![1.0, 0.5, 2.0], 0.25, 0.0);
        for p in 0..3 {
            c.work(p, 4);
        }
        assert_eq!(c.clock(0), 1.0);
        assert_eq!(c.clock(1), 2.0, "half speed takes twice as long");
        assert_eq!(c.clock(2), 0.5, "double speed takes half as long");
        assert_eq!(c.makespan(), 2.0);
        assert_eq!(c.busy(1), 2.0, "work is busy time");
    }

    #[test]
    fn waiting_and_sending_are_not_busy() {
        let mut c = VirtualCluster::new(vec![1.0; 2], 0.5, 0.1);
        c.work(0, 2);
        c.advance(0, 0.3);
        c.advance_to(1, c.send_at(0, 1.0));
        c.work(1, 1);
        assert_eq!(c.busy(0), 1.0);
        assert_eq!(c.busy(1), 0.5);
        assert!((c.clock(1) - 1.9).abs() < 1e-12);
    }

    #[test]
    fn advance_is_not_scaled_by_speed() {
        let mut c = VirtualCluster::new(vec![0.5], 1.0, 0.0);
        c.advance(0, 1.5);
        assert_eq!(c.clock(0), 1.5);
    }

    #[test]
    fn messages_add_latency() {
        let mut c = VirtualCluster::new(vec![1.0; 2], 0.0, 0.1);
        c.advance(0, 1.0);
        let arrival = c.send_at(0, 1.0);
        assert!((arrival - 1.1).abs() < 1e-12);
        c.advance_to(1, arrival);
        assert!((c.clock(1) - 1.1).abs() < 1e-12);
        // A receiver already past the arrival time is not rewound.
        c.advance(1, 5.0);
        c.advance_to(1, 2.0);
        assert!((c.clock(1) - 6.1).abs() < 1e-12);
    }

    #[test]
    fn congestion_scales_latency() {
        let mut c = VirtualCluster::new(vec![1.0; 2], 0.0, 0.01);
        c.advance(0, 1.0);
        assert!((c.send_at(0, 12.0) - 1.12).abs() < 1e-12);
        assert!((c.send_at(0, 1.0) - 1.01).abs() < 1e-12);
    }

    #[test]
    fn parallel_work_beats_serial_in_virtual_time() {
        // The whole point: 4 equal work items on 4 processors finish in
        // a quarter of the time they take on one.
        let mut serial = VirtualCluster::new(vec![1.0], 0.5, 0.0);
        for _ in 0..4 {
            serial.work(0, 10);
        }
        let mut parallel = VirtualCluster::new(vec![1.0; 4], 0.5, 0.0);
        for p in 0..4 {
            parallel.work(p, 10);
        }
        assert_eq!(serial.makespan(), 20.0);
        assert_eq!(parallel.makespan(), 5.0);
    }

    #[test]
    #[should_panic]
    fn non_positive_speed_rejected() {
        VirtualCluster::new(vec![1.0, 0.0], 0.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn zero_processors_rejected() {
        VirtualCluster::new(Vec::new(), 0.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_advance_rejected() {
        VirtualCluster::new(vec![1.0], 0.0, 0.0).advance(0, -1.0);
    }
}

//! Self-profiling phase timers for the simulation engine.
//!
//! A [`Profiler`] is a fixed array of per-[`Phase`] accumulators
//! (nanoseconds + call counts) that the engine laps through as it steps.
//! The engine holds it behind an `Option<Box<Profiler>>`, so a disabled
//! profiler costs one branch per phase boundary — the same
//! zero-cost-when-off contract as the engine's optional event trace.
//!
//! An enabled profiler is a **deterministic sampling profiler**: it
//! times the phases of every `stride`-th unit (engine slot or fast-path
//! scan) with chained monotonic-clock reads and only bumps call
//! counters in between. Call counts are always exact; reported
//! nanoseconds are the sampled sums scaled back up by the stride — a
//! whole-run estimate whose per-phase *fractions* converge over the
//! thousands of slots a run executes. Stride 1 times everything and
//! reports exact totals; the engine's default stride keeps the
//! profiled-run overhead on a saturated network under the CI gate.
//!
//! Profiling is a pure observer: it never draws from the simulation RNG
//! and never perturbs dynamics, so profiled and unprofiled runs produce
//! byte-identical results (the differential suite checks this).

use serde::{Deserialize, Serialize};

/// The engine phases a [`Profiler`] attributes time to.
///
/// Together these cover the whole slot loop of `Engine::step`; the
/// extra [`Phase::HorizonScan`] covers the quiescence/wakeup-hint scan
/// of the event-horizon fast path (`Engine::advance_to`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Building the per-node carrier-sense (busy) map.
    CarrierSense,
    /// Resolving ended transmissions at the channel (capture, FER).
    Resolve,
    /// Delivering resolved receptions to station `on_receive` handlers.
    Deliver,
    /// Per-slot station FSM dispatch (`on_slot`).
    FsmDispatch,
    /// Draining the outbox and launching new transmissions.
    TxLaunch,
    /// Finding the earliest station wakeup hint (a wake-queue peek) in
    /// the event-horizon fast path.
    HorizonScan,
}

impl Phase {
    /// Every phase, in reporting order.
    pub const ALL: [Phase; 6] = [
        Phase::CarrierSense,
        Phase::Resolve,
        Phase::Deliver,
        Phase::FsmDispatch,
        Phase::TxLaunch,
        Phase::HorizonScan,
    ];

    /// Stable snake_case name used in reports and Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            Phase::CarrierSense => "carrier_sense",
            Phase::Resolve => "resolve",
            Phase::Deliver => "deliver",
            Phase::FsmDispatch => "fsm_dispatch",
            Phase::TxLaunch => "tx_launch",
            Phase::HorizonScan => "horizon_scan",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::CarrierSense => 0,
            Phase::Resolve => 1,
            Phase::Deliver => 2,
            Phase::FsmDispatch => 3,
            Phase::TxLaunch => 4,
            Phase::HorizonScan => 5,
        }
    }
}

/// Accumulates per-phase wall-clock while the engine runs.
#[derive(Debug, Clone)]
pub struct Profiler {
    ns: [u64; Phase::ALL.len()],
    calls: [u64; Phase::ALL.len()],
    /// Every `stride`-th unit is timed (1 = time everything).
    stride: u64,
    /// Units registered so far via [`Profiler::begin_unit`].
    units: u64,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A fresh profiler that times every unit (stride 1).
    pub fn new() -> Self {
        Profiler::with_stride(1)
    }

    /// A fresh profiler timing every `stride`-th unit (clamped to ≥ 1).
    pub fn with_stride(stride: u64) -> Self {
        Profiler {
            ns: Default::default(),
            calls: Default::default(),
            stride: stride.max(1),
            units: 0,
        }
    }

    /// Registers the start of one profiled unit (an engine slot, a
    /// fast-path scan) and says whether its phases should be *timed*
    /// this round or merely counted. Deterministic: the first unit is
    /// always timed, then every `stride`-th after it.
    #[inline]
    pub fn begin_unit(&mut self) -> bool {
        let timed = self.units.is_multiple_of(self.stride);
        self.units += 1;
        timed
    }

    /// Adds one timed lap of `ns` nanoseconds to `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase, ns: u64) {
        let i = phase.index();
        self.ns[i] += ns;
        self.calls[i] += 1;
    }

    /// Counts an execution of `phase` without timing it (the unsampled
    /// units of a stride > 1 profiler).
    #[inline]
    pub fn record_call(&mut self, phase: Phase) {
        self.calls[phase.index()] += 1;
    }

    /// Snapshot of the accumulated attribution. With stride > 1 the
    /// nanoseconds are the sampled sums scaled by the stride (a
    /// whole-run estimate); call counts are exact either way.
    pub fn report(&self) -> ProfileReport {
        let scale = |ns: u64| ns.saturating_mul(self.stride);
        ProfileReport {
            phases: Phase::ALL
                .iter()
                .map(|&p| PhaseStat {
                    name: p.name().to_string(),
                    ns: scale(self.ns[p.index()]),
                    calls: self.calls[p.index()],
                })
                .collect(),
            total_ns: scale(self.ns.iter().sum()),
        }
    }
}

/// One phase's share of a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Phase name (see [`Phase::name`]).
    pub name: String,
    /// Total nanoseconds attributed to the phase (a stride-scaled
    /// estimate when the profiler sampled, see [`Profiler::report`]).
    pub ns: u64,
    /// Number of phase executions counted (always exact).
    pub calls: u64,
}

/// Serializable per-phase cost attribution for one (or many, merged)
/// engine runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Per-phase totals, in [`Phase::ALL`] order.
    pub phases: Vec<PhaseStat>,
    /// Sum of all phase nanoseconds.
    pub total_ns: u64,
}

impl ProfileReport {
    /// The stat for `name`, if present.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Fraction of total profiled time spent in `name` (0 when nothing
    /// was recorded).
    pub fn fraction(&self, name: &str) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.phase(name)
            .map_or(0.0, |p| p.ns as f64 / self.total_ns as f64)
    }

    /// Folds `other`'s attribution into `self`. Phases are matched by
    /// name; ones `self` has not seen yet are appended, so merging
    /// reports from identical engines is exact and order-independent.
    pub fn merge(&mut self, other: &ProfileReport) {
        for p in &other.phases {
            match self.phases.iter_mut().find(|mine| mine.name == p.name) {
                Some(mine) => {
                    mine.ns += p.ns;
                    mine.calls += p.calls;
                }
                None => self.phases.push(p.clone()),
            }
        }
        self.total_ns += other.total_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_per_phase() {
        let mut prof = Profiler::new();
        prof.record(Phase::Resolve, 100);
        prof.record(Phase::Resolve, 50);
        prof.record(Phase::TxLaunch, 7);
        let r = prof.report();
        assert_eq!(r.phase("resolve").unwrap().ns, 150);
        assert_eq!(r.phase("resolve").unwrap().calls, 2);
        assert_eq!(r.phase("tx_launch").unwrap().ns, 7);
        assert_eq!(r.total_ns, 157);
        assert!((r.fraction("resolve") - 150.0 / 157.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_stride_times_every_nth_unit_and_scales_ns() {
        let mut prof = Profiler::with_stride(4);
        // Units 0, 4, 8 are timed; the rest only count.
        let mut timed_units = 0;
        for _ in 0..9 {
            if prof.begin_unit() {
                timed_units += 1;
                prof.record(Phase::Resolve, 100);
            } else {
                prof.record_call(Phase::Resolve);
            }
        }
        assert_eq!(timed_units, 3);
        let r = prof.report();
        let resolve = r.phase("resolve").unwrap();
        assert_eq!(resolve.calls, 9, "calls are exact under sampling");
        assert_eq!(resolve.ns, 3 * 100 * 4, "ns scale by the stride");
        assert_eq!(r.total_ns, 1200);
    }

    #[test]
    fn stride_one_times_every_unit() {
        let mut prof = Profiler::new();
        for _ in 0..5 {
            assert!(prof.begin_unit());
        }
    }

    #[test]
    fn report_lists_every_phase_in_order() {
        let r = Profiler::new().report();
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "carrier_sense",
                "resolve",
                "deliver",
                "fsm_dispatch",
                "tx_launch",
                "horizon_scan"
            ]
        );
        assert_eq!(r.total_ns, 0);
        assert_eq!(r.fraction("resolve"), 0.0);
    }

    #[test]
    fn merge_adds_by_name() {
        let mut a = Profiler::new();
        a.record(Phase::Deliver, 10);
        let mut b = Profiler::new();
        b.record(Phase::Deliver, 5);
        b.record(Phase::CarrierSense, 3);
        let mut r = a.report();
        r.merge(&b.report());
        assert_eq!(r.phase("deliver").unwrap().ns, 15);
        assert_eq!(r.phase("deliver").unwrap().calls, 2);
        assert_eq!(r.phase("carrier_sense").unwrap().ns, 3);
        assert_eq!(r.total_ns, 18);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut prof = Profiler::new();
        prof.record(Phase::FsmDispatch, 42);
        let r = prof.report();
        let json = serde_json::to_string(&r).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}

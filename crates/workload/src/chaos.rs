//! Chaos harness: seeded fault + churn + burst schedules, an invariant
//! checker over the resulting runs, and a greedy shrinker that reduces a
//! failing schedule to a minimal replayable repro.
//!
//! The harness closes the loop the individual robustness features opened:
//! crash/reboot faults ([`rmm_sim::FaultPlan`]), membership churn
//! ([`ChurnPlan`](crate::churn::ChurnPlan)), and the burst-error channel
//! are composed into randomized schedules, every schedule is simulated
//! under a protocol, and the run is checked against invariants that must
//! hold *no matter what the schedule does*:
//!
//! * **Stall** — no sender trips the liveness watchdog (bounded retry
//!   budgets guarantee forward progress even against dead receivers),
//! * **Termination** — every message whose timeout window fits in the
//!   run reaches a final outcome; outcome slots are sane,
//! * **RetryBudget** — no consecutive-retry streak exceeds
//!   `timing.retry_limit`; no give-up spends more than
//!   `timing.dest_retry_limit` tries; give-up lists stay consistent,
//! * **Membership** — senders only originate, and receiver lists only
//!   name, stations that were group members at the arrival slot,
//! * **AirtimePartition** — the airtime ledger partitions the run
//!   exactly and agrees with the channel's busy counter,
//! * **Determinism** — the event-horizon fast path and the naive
//!   stepper produce byte-identical results and traces.
//!
//! When a schedule fails, [`shrink`] greedily drops fault events, churn
//! nodes, and the burst model, and narrows fault windows, re-checking
//! after each candidate until no single reduction still reproduces one
//! of the original violation kinds. The result is a [`ChaosRepro`]: a
//! self-contained JSON artifact that replays to the same violation set.

use crate::churn::ChurnPlan;
use crate::observe::PhaseTimings;
use crate::runner::{run, Probes, RunResult, RunSpec, Stepping};
use crate::scenario::Scenario;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmm_mac::{MacTiming, Outcome, ProtocolKind, SentRecord};
use rmm_sim::{FaultPlan, GilbertElliott, MsgId, NodeId, Slot, TraceEvent};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// Dedicated seed stream for schedule generation ("chaos").
const CHAOS_SEED: u64 = 0x0063_6861_6f73;

/// The invariant a violation broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ViolationKind {
    /// A sender tripped the liveness watchdog.
    Stall,
    /// A message failed to reach a final outcome in its window, or an
    /// outcome slot is outside the run.
    Termination,
    /// A retry or give-up exceeded its configured budget.
    RetryBudget,
    /// A message was originated by or addressed to a non-member.
    Membership,
    /// The airtime ledger does not partition the run exactly.
    AirtimePartition,
    /// Fast-path and naive stepping diverged.
    Determinism,
}

/// One checked-invariant failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Which invariant broke.
    pub kind: ViolationKind,
    /// Human-readable specifics (node, message, slot...).
    pub detail: String,
}

impl Violation {
    fn new(kind: ViolationKind, detail: impl Into<String>) -> Self {
        Violation {
            kind,
            detail: detail.into(),
        }
    }
}

/// The sorted, deduplicated set of kinds in `violations`.
fn kinds_of(violations: &[Violation]) -> Vec<ViolationKind> {
    let mut kinds: Vec<ViolationKind> = violations.iter().map(|v| v.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    kinds
}

/// One randomized chaos schedule: the fault, churn, and burst-error
/// configuration layered onto a base scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSchedule {
    /// Scheduled node faults (crash / deaf / mute / reboot).
    pub faults: FaultPlan,
    /// Scheduled membership churn.
    pub churn: ChurnPlan,
    /// Burst-error channel, when the schedule enables it.
    pub burst: Option<GilbertElliott>,
}

impl ChaosSchedule {
    /// Generates a valid schedule for a network of `n_nodes` over
    /// `sim_slots`, deterministically from `seed`: up to three faulted
    /// stations (one fault each, so same-kind windows never overlap), up
    /// to two churning stations, and sometimes a burst channel. Node 0
    /// is spared everywhere so at least one station stays healthy.
    pub fn generate(n_nodes: usize, sim_slots: Slot, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ CHAOS_SEED);
        let span = sim_slots.max(8);
        let pool = n_nodes.saturating_sub(1);
        let n_faults = rng.random_range(0..=3usize.min(pool));
        let mut victims: Vec<u32> = Vec::new();
        while victims.len() < n_faults {
            let v = rng.random_range(1..n_nodes) as u32;
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        victims.sort_unstable();
        let mut faults = FaultPlan::new();
        for v in victims {
            let from = rng.random_range(0..span * 3 / 4);
            let until = from + rng.random_range(1..=span / 4);
            faults = match rng.random_range(0..4u32) {
                0 => faults.crash(NodeId(v), from),
                1 => faults.deaf(NodeId(v), from, until),
                2 => faults.mute(NodeId(v), from, until),
                _ => faults.reboot(NodeId(v), from, until),
            };
        }
        let churners = rng.random_range(0..=2usize.min(pool));
        let churn = if churners > 0 {
            ChurnPlan::random(n_nodes, churners, sim_slots, rng.random::<u64>())
        } else {
            ChurnPlan::new()
        };
        let burst = rng
            .random_bool(0.3)
            .then(|| GilbertElliott::new(0.05, 0.25));
        ChaosSchedule {
            faults,
            churn,
            burst,
        }
    }

    /// Number of discrete events in the schedule — the quantity the
    /// shrinker minimizes.
    pub fn event_count(&self) -> usize {
        self.faults.faults.len() + self.churn.events.len() + usize::from(self.burst.is_some())
    }

    /// The base scenario with this schedule layered on.
    pub fn apply(&self, base: &Scenario) -> Scenario {
        let mut s = base.clone();
        s.faults = self.faults.clone();
        s.churn = self.churn.clone();
        s.burst = self.burst;
        s
    }
}

/// Runs `scenario` under `protocol` with `seed` — once on the fast path,
/// once on the naive reference stepper — and checks every chaos
/// invariant. Empty means the run was clean.
pub fn check_invariants(scenario: &Scenario, protocol: ProtocolKind, seed: u64) -> Vec<Violation> {
    let run_with = |stepping| {
        let probes = Probes {
            trace: true,
            profile: false,
            forensic: true,
        };
        let spec = RunSpec {
            stepping,
            probes,
            mobility: None,
        };
        run(scenario, protocol, seed, &spec)
    };
    let fast = run_with(Stepping::Fast);
    let naive = run_with(Stepping::Naive);
    let fast_trace = fast.trace.expect("tracing was enabled");
    let naive_trace = naive.trace.expect("tracing was enabled");
    let nodes = fast.nodes.expect("forensic probe was enabled");
    let records = || nodes.iter().flat_map(|n| n.records());
    let fast = fast.result;
    let naive = naive.result;
    let mut out = Vec::new();
    if fast_trace.events() != naive_trace.events() {
        let idx = fast_trace
            .events()
            .iter()
            .zip(naive_trace.events())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| fast_trace.events().len().min(naive_trace.events().len()));
        out.push(Violation::new(
            ViolationKind::Determinism,
            format!("fast and naive traces diverge at event {idx}"),
        ));
    }
    if canonical(fast.clone()) != canonical(naive) {
        out.push(Violation::new(
            ViolationKind::Determinism,
            "fast and naive RunResults are not byte-identical",
        ));
    }
    check_stall(&fast, &mut out);
    check_termination(
        scenario.sim_slots,
        scenario.timing.timeout,
        records(),
        &mut out,
    );
    check_membership(&scenario.churn, records(), &mut out);
    check_retry_budget(&scenario.timing, fast_trace.events(), records(), &mut out);
    check_airtime(scenario.sim_slots, &fast, &mut out);
    out
}

/// Serializes a result with the (nondeterministic) wall-clock phase
/// timings zeroed, so string equality means byte-identical simulation
/// output.
fn canonical(mut r: RunResult) -> String {
    r.manifest.wall_clock = PhaseTimings::default();
    serde_json::to_string(&r).expect("RunResult serializes")
}

fn check_stall(result: &RunResult, out: &mut Vec<Violation>) {
    for s in &result.stalls {
        out.push(Violation::new(
            ViolationKind::Stall,
            format!(
                "node {} made no progress on {} for {} slots (detected at slot {})",
                s.node.0, s.msg, s.window, s.detected_at
            ),
        ));
    }
}

fn check_termination<'a>(
    sim_slots: Slot,
    timeout: Slot,
    records: impl IntoIterator<Item = &'a SentRecord>,
    out: &mut Vec<Violation>,
) {
    for rec in records {
        match rec.outcome {
            Outcome::Pending => {
                if rec.arrival.saturating_add(timeout) <= sim_slots {
                    out.push(Violation::new(
                        ViolationKind::Termination,
                        format!(
                            "{} arrived at slot {} and its {timeout}-slot window closed \
                             in-run, but it never reached a final outcome",
                            rec.msg, rec.arrival
                        ),
                    ));
                }
            }
            Outcome::Completed(at) | Outcome::TimedOut(at) | Outcome::Failed(at) => {
                if at < rec.arrival || at > sim_slots {
                    out.push(Violation::new(
                        ViolationKind::Termination,
                        format!(
                            "{} resolved at slot {at}, outside [{}, {sim_slots}]",
                            rec.msg, rec.arrival
                        ),
                    ));
                }
            }
        }
    }
}

fn check_membership<'a>(
    churn: &ChurnPlan,
    records: impl IntoIterator<Item = &'a SentRecord>,
    out: &mut Vec<Violation>,
) {
    for rec in records {
        if !churn.member_at(rec.msg.src, rec.arrival) {
            out.push(Violation::new(
                ViolationKind::Membership,
                format!(
                    "{} originated at slot {} while its sender was out of the group",
                    rec.msg, rec.arrival
                ),
            ));
        }
        for r in &rec.intended {
            if !churn.member_at(*r, rec.arrival) {
                out.push(Violation::new(
                    ViolationKind::Membership,
                    format!(
                        "{} (arrival slot {}) addresses node {}, not a member at that slot",
                        rec.msg, rec.arrival, r.0
                    ),
                ));
            }
        }
    }
}

fn check_retry_budget<'a>(
    timing: &MacTiming,
    events: &[TraceEvent],
    records: impl IntoIterator<Item = &'a SentRecord>,
    out: &mut Vec<Violation>,
) {
    // A `Retry` event marks a recontention *without* forward progress; a
    // `ContentionStart` with no paired `Retry` is a fresh (reset) window
    // and clears the streak. The node-level ceiling caps consecutive
    // no-progress retries at `retry_limit`.
    let mut streaks: HashMap<(NodeId, MsgId), u32> = HashMap::new();
    let mut pending: HashSet<(NodeId, MsgId)> = HashSet::new();
    for ev in events {
        match ev {
            TraceEvent::Retry {
                node, msg, slot, ..
            } => {
                let streak = streaks.entry((*node, *msg)).or_insert(0);
                *streak += 1;
                if *streak > timing.retry_limit {
                    out.push(Violation::new(
                        ViolationKind::RetryBudget,
                        format!(
                            "node {} hit {streak} consecutive retries on {msg} at slot \
                             {slot} (retry_limit {})",
                            node.0, timing.retry_limit
                        ),
                    ));
                }
                pending.insert((*node, *msg));
            }
            TraceEvent::ContentionStart { node, msg, .. } if !pending.remove(&(*node, *msg)) => {
                streaks.insert((*node, *msg), 0);
            }
            TraceEvent::GiveUp {
                node,
                msg,
                dst,
                after_retries,
                slot,
            } if *after_retries > timing.dest_retry_limit => {
                out.push(Violation::new(
                    ViolationKind::RetryBudget,
                    format!(
                        "node {} gave up on {} for {msg} at slot {slot} after \
                         {after_retries} tries (dest_retry_limit {})",
                        node.0, dst.0, timing.dest_retry_limit
                    ),
                ));
            }
            _ => {}
        }
    }
    for rec in records {
        let mut seen: Vec<NodeId> = Vec::new();
        for g in &rec.gave_up {
            if !rec.intended.contains(g) {
                out.push(Violation::new(
                    ViolationKind::RetryBudget,
                    format!("{} gave up on {}, which it never addressed", rec.msg, g.0),
                ));
            }
            if seen.contains(g) {
                out.push(Violation::new(
                    ViolationKind::RetryBudget,
                    format!("{} gave up on {} twice", rec.msg, g.0),
                ));
            }
            seen.push(*g);
        }
    }
}

fn check_airtime(sim_slots: Slot, result: &RunResult, out: &mut Vec<Violation>) {
    let a = &result.airtime;
    let sum = a.idle_slots + a.data_slots + a.control_slots + a.collision_slots;
    if sum != sim_slots {
        out.push(Violation::new(
            ViolationKind::AirtimePartition,
            format!(
                "idle {} + data {} + control {} + collision {} = {sum} ≠ {sim_slots} slots",
                a.idle_slots, a.data_slots, a.control_slots, a.collision_slots
            ),
        ));
    }
    let from_ledger = if sim_slots == 0 {
        0.0
    } else {
        a.busy_slots() as f64 / sim_slots as f64
    };
    if result.utilization.to_bits() != from_ledger.to_bits() {
        out.push(Violation::new(
            ViolationKind::AirtimePartition,
            format!(
                "channel busy fraction {} disagrees with ledger {}",
                result.utilization, from_ledger
            ),
        ));
    }
}

/// A self-contained, replayable failure artifact: the exact scenario
/// (schedule already applied), protocol, and seed, plus the violation
/// kinds the run produced. Serializes to JSON for the on-disk corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosRepro {
    /// Protocol the failing run used.
    pub protocol: ProtocolKind,
    /// Seed of the failing run.
    pub seed: u64,
    /// The full failing scenario, schedule included.
    pub scenario: Scenario,
    /// Sorted, deduplicated violation kinds the run produced.
    pub violations: Vec<ViolationKind>,
    /// Human-readable violation details (informational; replay compares
    /// kinds only).
    pub detail: Vec<String>,
}

impl ChaosRepro {
    /// Re-runs the repro and verifies it produces exactly the recorded
    /// violation kinds. Returns the fresh violations on success, and an
    /// error without running when the stored scenario is invalid.
    pub fn replay(&self) -> Result<Vec<Violation>, String> {
        self.scenario.validate()?;
        let found = check_invariants(&self.scenario, self.protocol, self.seed);
        let kinds = kinds_of(&found);
        if kinds == self.violations {
            Ok(found)
        } else {
            Err(format!(
                "repro drifted: recorded {:?}, replay produced {:?}",
                self.violations, kinds
            ))
        }
    }
}

/// Greedily shrinks a failing `schedule`: repeatedly tries dropping one
/// fault event, dropping one station's churn events, clearing the burst
/// model, or halving one fault window, keeping any reduction whose run
/// still produces at least one of `original` violation kinds. Stops at
/// a fixpoint or after `max_checks` re-runs. Returns the shrunk
/// schedule and the number of check runs spent.
pub fn shrink(
    base: &Scenario,
    schedule: &ChaosSchedule,
    protocol: ProtocolKind,
    seed: u64,
    original: &[ViolationKind],
    max_checks: usize,
) -> (ChaosSchedule, usize) {
    let still_fails = |cand: &ChaosSchedule| {
        let kinds = kinds_of(&check_invariants(&cand.apply(base), protocol, seed));
        kinds.iter().any(|k| original.contains(k))
    };
    let mut current = schedule.clone();
    let mut checks = 0usize;
    loop {
        let mut reduced = false;
        for cand in reductions(&current) {
            if checks >= max_checks {
                return (current, checks);
            }
            checks += 1;
            if still_fails(&cand) {
                current = cand;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return (current, checks);
        }
    }
}

/// Every single-step reduction of `schedule`, strongest first: whole
/// events before window narrowing.
fn reductions(schedule: &ChaosSchedule) -> Vec<ChaosSchedule> {
    let mut out = Vec::new();
    for i in 0..schedule.faults.faults.len() {
        let mut cand = schedule.clone();
        cand.faults.faults.remove(i);
        out.push(cand);
    }
    let mut churn_nodes: Vec<NodeId> = schedule.churn.events.iter().map(|e| e.node).collect();
    churn_nodes.sort_unstable_by_key(|n| n.0);
    churn_nodes.dedup();
    for node in churn_nodes {
        let mut cand = schedule.clone();
        cand.churn.events.retain(|e| e.node != node);
        out.push(cand);
    }
    if schedule.burst.is_some() {
        let mut cand = schedule.clone();
        cand.burst = None;
        out.push(cand);
    }
    for (i, f) in schedule.faults.faults.iter().enumerate() {
        if let Some(until) = f.until {
            let halved = f.from + ((until - f.from) / 2).max(1);
            if halved < until {
                let mut cand = schedule.clone();
                cand.faults.faults[i].until = Some(halved);
                out.push(cand);
            }
        }
    }
    out
}

/// Configuration for a chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Base scenario every schedule is layered onto. Its `faults`,
    /// `churn`, and `burst` fields are overwritten per iteration; set
    /// `stall_window` here to arm the liveness invariant.
    pub base: Scenario,
    /// Protocols to rotate through (iteration `i` uses `i % len`).
    pub protocols: Vec<ProtocolKind>,
    /// Maximum iterations.
    pub iters: u64,
    /// Master seed; iteration `i` uses `seed + i` for both the schedule
    /// and the run.
    pub seed: u64,
    /// Optional wall-clock budget; the campaign stops early when spent.
    pub budget: Option<Duration>,
    /// Cap on shrinker re-runs once a failure is found.
    pub max_shrink_checks: usize,
}

/// The result of a chaos campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosOutcome {
    /// Iterations actually executed.
    pub iterations: u64,
    /// The first failure found, already shrunk — `None` means every
    /// checked run was clean.
    pub failure: Option<ChaosRepro>,
    /// Schedule event count when the failure was found.
    pub events_before: usize,
    /// Schedule event count after shrinking.
    pub events_after: usize,
    /// Check runs the shrinker spent.
    pub shrink_checks: usize,
}

/// Runs a chaos campaign: generate a schedule, simulate, check the
/// invariants, and on the first failure shrink it and return the repro.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    assert!(
        !cfg.protocols.is_empty(),
        "chaos needs at least one protocol"
    );
    let started = Instant::now();
    let mut iterations = 0u64;
    for i in 0..cfg.iters {
        if let Some(budget) = cfg.budget {
            if started.elapsed() >= budget {
                break;
            }
        }
        let seed = cfg.seed.wrapping_add(i);
        let protocol = cfg.protocols[(i % cfg.protocols.len() as u64) as usize];
        let schedule = ChaosSchedule::generate(cfg.base.n_nodes, cfg.base.sim_slots, seed);
        let scenario = schedule.apply(&cfg.base);
        iterations += 1;
        let violations = check_invariants(&scenario, protocol, seed);
        if violations.is_empty() {
            continue;
        }
        let kinds = kinds_of(&violations);
        let events_before = schedule.event_count();
        let (shrunk, shrink_checks) = shrink(
            &cfg.base,
            &schedule,
            protocol,
            seed,
            &kinds,
            cfg.max_shrink_checks,
        );
        let scenario = shrunk.apply(&cfg.base);
        let final_violations = check_invariants(&scenario, protocol, seed);
        return ChaosOutcome {
            iterations,
            events_before,
            events_after: shrunk.event_count(),
            shrink_checks,
            failure: Some(ChaosRepro {
                protocol,
                seed,
                scenario,
                violations: kinds_of(&final_violations),
                detail: final_violations.into_iter().map(|v| v.detail).collect(),
            }),
        };
    }
    ChaosOutcome {
        iterations,
        failure: None,
        events_before: 0,
        events_after: 0,
        shrink_checks: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmm_mac::TrafficKind;

    #[test]
    fn generated_schedules_are_deterministic_and_valid() {
        for seed in 0..32 {
            let a = ChaosSchedule::generate(12, 2_000, seed);
            let b = ChaosSchedule::generate(12, 2_000, seed);
            assert_eq!(a, b);
            a.faults
                .validate(12)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            a.churn
                .validate(12)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert!(
                a.faults.faults.iter().all(|f| f.node.0 != 0),
                "seed {seed}: node 0 must be spared"
            );
        }
        // Degenerate networks produce empty (still valid) schedules.
        let tiny = ChaosSchedule::generate(1, 100, 7);
        assert_eq!(tiny.event_count(), usize::from(tiny.burst.is_some()));
    }

    #[test]
    fn healthy_run_passes_every_invariant() {
        let scenario = Scenario {
            n_nodes: 12,
            sim_slots: 1_000,
            n_runs: 1,
            msg_rate: 2e-3,
            ..Scenario::default()
        }
        .with_stall_window(400);
        let violations = check_invariants(&scenario, ProtocolKind::Bmmm, 3);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn retry_streaks_reset_on_forward_progress() {
        let timing = MacTiming {
            retry_limit: 2,
            ..Default::default()
        };
        let node = NodeId(0);
        let msg = MsgId::new(node, 0);
        let retry = |slot| TraceEvent::Retry {
            slot,
            node,
            msg,
            round: 0,
        };
        let cs = |slot| TraceEvent::ContentionStart {
            slot,
            node,
            msg,
            attempts: 1,
            backoff_slots: 3,
        };
        // Two retries, a fresh (reset) contention, two more retries:
        // never three in a row, so no violation.
        let ok = [
            retry(1),
            cs(1),
            retry(5),
            cs(5),
            cs(9),
            retry(12),
            cs(12),
            retry(15),
            cs(15),
        ];
        let mut out = Vec::new();
        check_retry_budget(&timing, &ok, &[], &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Three consecutive retries breach retry_limit = 2.
        let bad = [retry(1), cs(1), retry(5), cs(5), retry(9), cs(9)];
        let mut out = Vec::new();
        check_retry_budget(&timing, &bad, &[], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].kind, ViolationKind::RetryBudget);
        // An over-budget give-up is caught too.
        let giveup = [TraceEvent::GiveUp {
            slot: 3,
            node,
            msg,
            dst: NodeId(1),
            after_retries: timing.dest_retry_limit + 1,
        }];
        let mut out = Vec::new();
        check_retry_budget(&timing, &giveup, &[], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    fn record(src: u32, arrival: Slot, intended: Vec<NodeId>, outcome: Outcome) -> SentRecord {
        SentRecord {
            msg: MsgId::new(NodeId(src), 0),
            kind: TrafficKind::Multicast,
            intended,
            arrival,
            started: Some(arrival),
            outcome,
            contention_phases: 1,
            acked: Vec::new(),
            assumed_covered: Vec::new(),
            gave_up: Vec::new(),
        }
    }

    #[test]
    fn membership_checker_flags_non_member_traffic() {
        let churn = ChurnPlan::new().leave(NodeId(1), 100).leave(NodeId(2), 50);
        let records = [
            // Fine: addressed while everyone concerned was a member.
            record(0, 10, vec![NodeId(1)], Outcome::Completed(20)),
            // Sender 2 left at 50 but originates at 60.
            record(2, 60, vec![NodeId(0)], Outcome::Completed(70)),
            // Node 1 left at 100 but is addressed at 150.
            record(0, 150, vec![NodeId(1)], Outcome::Completed(160)),
        ];
        let mut out = Vec::new();
        check_membership(&churn, &records, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|v| v.kind == ViolationKind::Membership));
    }

    #[test]
    fn termination_checker_flags_unresolved_windows() {
        let records = [
            // Window closed in-run but still Pending: violation.
            record(0, 100, vec![NodeId(1)], Outcome::Pending),
            // Window extends past the run end: Pending is legitimate.
            record(0, 950, vec![NodeId(1)], Outcome::Pending),
            // Outcome slot before arrival: violation.
            record(0, 500, vec![NodeId(1)], Outcome::Completed(499)),
        ];
        let mut out = Vec::new();
        check_termination(1_000, 100, &records, &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|v| v.kind == ViolationKind::Termination));
    }

    #[test]
    fn airtime_checker_flags_a_corrupted_partition() {
        let scenario = Scenario {
            n_nodes: 10,
            sim_slots: 500,
            n_runs: 1,
            msg_rate: 2e-3,
            ..Scenario::default()
        };
        let mut result = crate::runner::run_one(&scenario, ProtocolKind::Ieee80211, 1);
        let mut out = Vec::new();
        check_airtime(scenario.sim_slots, &result, &mut out);
        assert!(out.is_empty(), "{out:?}");
        result.airtime.idle_slots += 1;
        let mut out = Vec::new();
        check_airtime(scenario.sim_slots, &result, &mut out);
        assert!(!out.is_empty());
        assert!(out
            .iter()
            .all(|v| v.kind == ViolationKind::AirtimePartition));
    }

    #[test]
    fn repro_serializes_and_round_trips() {
        let repro = ChaosRepro {
            protocol: ProtocolKind::Bmw,
            seed: 42,
            scenario: Scenario {
                n_nodes: 8,
                sim_slots: 600,
                n_runs: 1,
                ..Scenario::default()
            }
            .with_faults(FaultPlan::new().reboot(NodeId(3), 50, 400))
            .with_churn(ChurnPlan::new().leave(NodeId(2), 100)),
            violations: vec![ViolationKind::Stall],
            detail: vec!["node 1 made no progress".into()],
        };
        let json = serde_json::to_string(&repro).expect("repro serializes");
        let back: ChaosRepro = serde_json::from_str(&json).expect("repro parses");
        assert_eq!(back, repro);
        // A hand-edited file with an invalid scenario is refused, not run.
        let mut bad = repro;
        bad.scenario.msg_rate = 5.0;
        assert!(bad.replay().unwrap_err().contains("msg_rate"));
    }

    #[test]
    fn shrinker_reductions_stay_valid() {
        let schedule = ChaosSchedule {
            faults: FaultPlan::new()
                .crash(NodeId(1), 100)
                .reboot(NodeId(2), 50, 900)
                .deaf(NodeId(3), 10, 500),
            churn: ChurnPlan::new().leave(NodeId(4), 200).join(NodeId(4), 700),
            burst: Some(GilbertElliott::new(0.05, 0.25)),
        };
        let cands = reductions(&schedule);
        // 3 fault drops + 1 churn-node drop + 1 burst clear + 2 window
        // halvings (the crash has no window).
        assert_eq!(cands.len(), 7);
        for cand in &cands {
            assert!(cand.event_count() <= schedule.event_count());
            cand.faults.validate(10).expect("reduced fault plan valid");
            cand.churn.validate(10).expect("reduced churn plan valid");
        }
        // Every candidate is a strict structural reduction: fewer events
        // or a narrower window.
        assert!(cands.iter().all(|c| c != &schedule));
    }
}

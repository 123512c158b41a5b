//! Workload-level fault-injection guarantees:
//!
//! 1. **RNG-stream isolation** — enabling fault machinery that never
//!    fires (a crash scheduled after the run, a burst channel that never
//!    leaves Good, a watchdog on a healthy run) leaves the simulation
//!    bit-identical to a plain run. Faults draw from their own RNG
//!    streams, so zero faults ⇒ zero perturbation.
//! 2. **Watchdog** — with bounded retry budgets in place, a crashed
//!    receiver never produces a stall report (the firing predicate
//!    itself is unit-tested next to `check_stalls` in the runner).
//! 3. **Graceful degradation** — one crashed receiver leaves every
//!    protocol live: runs finish without stalls, budgeted protocols emit
//!    give-ups, and the reachable-receiver delivery metric stays honest.

use rmm_mac::{MacTiming, ProtocolKind};
use rmm_sim::{FaultPlan, GilbertElliott, NodeId, Trace, TraceEvent};
use rmm_workload::{run, run_one, PhaseTimings, Probes, RunResult, RunSpec, Scenario};

/// One traced run on the fast path.
fn run_one_traced(scenario: &Scenario, protocol: ProtocolKind, seed: u64) -> (RunResult, Trace) {
    let spec = RunSpec {
        probes: Probes {
            trace: true,
            ..Probes::default()
        },
        ..RunSpec::default()
    };
    let out = run(scenario, protocol, seed, &spec);
    (out.result, out.trace.expect("tracing was enabled"))
}

const ALL_PROTOCOLS: [ProtocolKind; 8] = [
    ProtocolKind::Ieee80211,
    ProtocolKind::TangGerla,
    ProtocolKind::Bsma,
    ProtocolKind::Bmw,
    ProtocolKind::Bmmm,
    ProtocolKind::Lamm,
    ProtocolKind::LeaderBased,
    ProtocolKind::BmmmUncoordinated,
];

/// Serializes a result with nondeterministic provenance (wall clock) and
/// the configuration echo (the manifest embeds the scenario, which
/// legitimately differs between variants) neutralized.
fn canonical(mut r: RunResult, baseline: &RunResult) -> String {
    r.manifest = baseline.manifest.clone();
    r.manifest.wall_clock = PhaseTimings::default();
    serde_json::to_string(&r).expect("RunResult serializes")
}

#[test]
fn inert_fault_machinery_leaves_runs_bit_identical() {
    let base = Scenario {
        n_nodes: 30,
        sim_slots: 2_000,
        n_runs: 1,
        msg_rate: 1.5e-3,
        ..Scenario::default()
    };
    // Each variant arms a fault feature in a way that can never fire:
    // the crash lands after the run ends, the burst chain has p = 0 (it
    // never leaves Good), and the watchdog only observes.
    let variants: [(&str, Scenario); 3] = [
        (
            "never-firing crash",
            base.clone()
                .with_faults(FaultPlan::new().crash(NodeId(4), base.sim_slots + 1_000)),
        ),
        (
            "zero-loss burst channel",
            base.clone().with_burst(GilbertElliott::new(0.0, 1.0)),
        ),
        (
            "watchdog on healthy run",
            base.clone().with_stall_window(400),
        ),
    ];
    for protocol in [ProtocolKind::Bmmm, ProtocolKind::Bsma, ProtocolKind::Bmw] {
        for seed in [1, 7] {
            let (plain, plain_trace) = run_one_traced(&base, protocol, seed);
            for (label, scenario) in &variants {
                let (got, got_trace) = run_one_traced(scenario, protocol, seed);
                assert_eq!(
                    plain_trace.events(),
                    got_trace.events(),
                    "[{label}] {protocol:?} seed {seed}: trace diverged"
                );
                assert_eq!(
                    canonical(plain.clone(), &plain),
                    canonical(got, &plain),
                    "[{label}] {protocol:?} seed {seed}: RunResult diverged"
                );
            }
        }
    }
}

/// A scenario where node 1 is likely to be a multicast target: small and
/// dense, with enough traffic to exercise every sender.
fn crash_scenario(timing: MacTiming) -> Scenario {
    Scenario {
        n_nodes: 20,
        sim_slots: 4_000,
        n_runs: 1,
        msg_rate: 2e-3,
        timing,
        ..Scenario::default()
    }
    .with_faults(FaultPlan::new().crash(NodeId(1), 0))
    .with_stall_window(600)
}

#[test]
fn default_budgets_keep_a_crashed_receiver_stall_free() {
    let timing = MacTiming {
        timeout: 4_000,
        ..Default::default()
    };
    let scenario = crash_scenario(timing);
    for seed in 0..6 {
        let r = run_one(&scenario, ProtocolKind::Bmw, seed);
        assert!(
            r.stalls.is_empty(),
            "seed {seed}: budgeted run stalled: {:?}",
            r.stalls
        );
    }
}

#[test]
fn one_crashed_receiver_degrades_gracefully_for_every_protocol() {
    let timing = MacTiming {
        timeout: 2_000,
        dest_retry_limit: 3,
        ..Default::default()
    };
    let scenario = Scenario {
        n_nodes: 20,
        sim_slots: 6_000,
        n_runs: 1,
        msg_rate: 2e-3,
        timing,
        ..Scenario::default()
    }
    .with_faults(FaultPlan::new().crash(NodeId(1), 0))
    .with_stall_window(1_000);
    let mut any_give_up = false;
    let mut any_unreachable = false;
    for protocol in ALL_PROTOCOLS {
        for seed in [3, 4] {
            let (r, trace) = run_one_traced(&scenario, protocol, seed);
            assert!(
                r.stalls.is_empty(),
                "{protocol:?} seed {seed}: stalled with a single crashed receiver: {:?}",
                r.stalls
            );
            any_give_up |= trace
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::GiveUp { .. }));
            for m in &r.messages {
                assert!(
                    m.reachable <= m.intended,
                    "{protocol:?}: reachable accounting"
                );
                assert!(m.delivered_reachable <= m.delivered);
                any_unreachable |= m.reachable < m.intended;
            }
            // Reachable-basis delivery can only improve on the raw rate.
            assert!(
                r.group_metrics.avg_reachable_frac >= r.group_metrics.avg_delivered_frac - 1e-12,
                "{protocol:?} seed {seed}: reachable frac below raw frac"
            );
        }
    }
    assert!(any_give_up, "no protocol ever gave up on the crashed node");
    assert!(
        any_unreachable,
        "the crashed node was never an intended receiver — scenario too sparse"
    );
}

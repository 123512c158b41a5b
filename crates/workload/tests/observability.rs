//! End-to-end observability tests: traced BMMM runs export JSONL from
//! which the paper's batch invariants are checked, and tracing itself
//! never perturbs the simulation.

use rmm_mac::ProtocolKind;
use rmm_sim::{max_idle_gap, MsgId, Trace, TraceEvent};
use rmm_workload::{
    collect_metrics, run, run_one, Probes, RunResult, RunSpec, Scenario, TrafficMix,
};
use std::collections::BTreeMap;

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

fn traced_scenario() -> Scenario {
    Scenario {
        n_nodes: 30,
        sim_slots: 3_000,
        n_runs: 1,
        msg_rate: 1e-3,
        mix: TrafficMix {
            unicast: 0.0,
            multicast: 1.0,
            broadcast: 0.0,
        },
        ..Scenario::default()
    }
}

/// The acceptance-criteria invariant: inside every completed BMMM batch
/// the medium never goes idle for DIFS slots (no bystander's backoff can
/// complete — the paper's co-existence argument), and every batch is
/// served by exactly one contention phase. Checked on events exported to
/// JSONL and parsed back, so the export path is part of the test.
#[test]
fn bmmm_batches_hold_idle_gap_and_single_contention_invariants() {
    let scenario = traced_scenario();
    let (_result, trace) = run_one_traced(&scenario, ProtocolKind::Bmmm, 11);
    let parsed = Trace::from_jsonl(&trace.to_jsonl()).expect("JSONL parses");
    assert_eq!(parsed.events(), trace.events());
    let events = parsed.events();
    let difs = u64::from(scenario.timing.difs);

    // Exactly one ContentionStart between consecutive BatchStarts of the
    // same message (one contention phase serves a whole batch).
    let mut contention_since: BTreeMap<(u32, u32), u32> = BTreeMap::new();
    let key = |m: MsgId| (m.src.0, m.seq);
    let mut batches = 0u32;
    for ev in events {
        match ev {
            TraceEvent::ContentionStart { msg, .. } => {
                *contention_since.entry(key(*msg)).or_insert(0) += 1;
            }
            TraceEvent::BatchStart { msg, .. } => {
                let count = contention_since.insert(key(*msg), 0).unwrap_or(0);
                assert_eq!(
                    count, 1,
                    "batch of {msg:?} began after {count} contention phases"
                );
                batches += 1;
            }
            _ => {}
        }
    }
    assert!(batches >= 5, "only {batches} batches traced");

    // No idle gap inside a completed batch ever reaches DIFS.
    let mut starts: BTreeMap<(u32, u32, u32), u64> = BTreeMap::new();
    let mut checked = 0u32;
    for ev in events {
        match ev {
            TraceEvent::BatchStart {
                slot, msg, round, ..
            } => {
                starts.insert((msg.src.0, msg.seq, *round), *slot);
            }
            TraceEvent::BatchEnd {
                slot, msg, round, ..
            } => {
                let from = starts[&(msg.src.0, msg.seq, *round)];
                let gap = max_idle_gap(events, from, slot + 1);
                assert!(
                    gap < difs,
                    "batch {round} of {msg:?} left the medium idle {gap} >= DIFS {difs}"
                );
                checked += 1;
            }
            _ => {}
        }
    }
    assert!(checked >= 5, "only {checked} completed batches checked");
}

/// Enabling tracing must not change a single metric: the traced run is
/// slot-for-slot the run it observes.
#[test]
fn tracing_changes_no_metric_values() {
    let scenario = traced_scenario();
    let plain = run_one(&scenario, ProtocolKind::Lamm, 3);
    let (traced, trace) = run_one_traced(&scenario, ProtocolKind::Lamm, 3);
    assert!(!trace.events().is_empty());
    assert_eq!(plain.messages.len(), traced.messages.len());
    assert_eq!(plain.collisions, traced.collisions);
    assert_eq!(plain.utilization, traced.utilization);
    assert_eq!(plain.mean_degree, traced.mean_degree);
    assert_eq!(
        plain.group_metrics.delivery_rate,
        traced.group_metrics.delivery_rate
    );
    assert_eq!(
        plain.group_metrics.avg_contention_phases,
        traced.group_metrics.avg_contention_phases
    );
    assert_eq!(
        plain.group_metrics.avg_completion_time,
        traced.group_metrics.avg_completion_time
    );
    assert!(!plain.manifest.traced);
    assert!(traced.manifest.traced);
}

/// The trace-derived registry is populated and internally consistent
/// for a BMMM run.
#[test]
fn collected_metrics_are_consistent_with_the_trace() {
    let scenario = traced_scenario();
    let (result, trace) = run_one_traced(&scenario, ProtocolKind::Bmmm, 7);
    let reg = collect_metrics(trace.events(), &result.messages);
    assert!(reg.counter("tx_frames") > 0);
    assert!(reg.counter("contention_starts") >= reg.counter("contention_wins"));
    assert!(reg.counter("batches") > 0);
    assert_eq!(
        reg.counter("batches"),
        u64::from(
            trace
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::BatchStart { .. }))
                .count() as u32
        )
    );
    // Every poll is an RTS or RAK control frame the engine also saw.
    assert!(reg.counter("polls_rts") + reg.counter("polls_rak") <= reg.counter("tx_frames"));
    assert!(reg
        .histogram("contention_phases_per_msg")
        .is_some_and(|h| h.count() == result.messages.len() as u64));
    assert!(reg.histogram("batch_len").is_some_and(|h| h.count() > 0));
}

/// LAMM emits cover-set events whose cover is a subset of the full set,
/// and the manifest records reproducible provenance.
#[test]
fn lamm_cover_sets_and_manifest_provenance() {
    let scenario = traced_scenario();
    let (result, trace) = run_one_traced(&scenario, ProtocolKind::Lamm, 9);
    let mut cover_sets = 0;
    for ev in trace.events() {
        if let TraceEvent::CoverSetComputed { full, cover, .. } = ev {
            assert!(!cover.is_empty());
            assert!(cover.iter().all(|n| full.contains(n)));
            cover_sets += 1;
        }
    }
    assert!(cover_sets > 0, "LAMM never computed a cover set");
    assert_eq!(result.manifest.protocol, ProtocolKind::Lamm);
    assert_eq!(result.manifest.seed, 9);
    assert_eq!(result.manifest.slot_budget, scenario.sim_slots);
    assert_eq!(result.manifest.scenario, scenario);
    assert!(result.manifest.wall_clock.total_us() > 0);
}

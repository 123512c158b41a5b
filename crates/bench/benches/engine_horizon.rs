//! Engine stepping benchmarks: naive slot-by-slot stepping vs. the
//! event-horizon fast path, on three workloads (idle-dominated,
//! busy/saturated, and the paper's Table 2 scale).
//!
//! It emits `BENCH_engine.json` (median ns/slot per mode, speedup, and
//! the slots-skipped ratio) so the perf trajectory is machine-readable.
//! The naive numbers in the same file are the baseline the speedup is
//! measured against; a determinism cross-check guards the comparison.
//!
//! Env knobs: `BENCH_SMOKE=1` shrinks reps/slots for CI smoke runs;
//! `BENCH_ENGINE_OUT` overrides the output path (default
//! `results/BENCH_engine.json` at the workspace root).

use rmm::mac::{MacNode, ProtocolKind};
use rmm::sim::{Slot, Topology};
use rmm::workload::traffic::Arrival;
use rmm::workload::{uniform_square, Scenario, TrafficGen};
use rmm_bench::{median, percentile, Workload};
use serde::Serialize;
use std::time::Instant;

/// The pre-drawn arrival schedule, so both modes service the identical
/// workload without paying traffic-generation cost inside the timed
/// region.
fn schedule(scenario: &Scenario, topo: &Topology, seed: u64) -> Vec<(Slot, Arrival)> {
    let mut traffic = TrafficGen::new(scenario.msg_rate, scenario.mix, seed);
    let mut out = Vec::new();
    let mut arrivals = Vec::new();
    for t in 0..scenario.sim_slots {
        traffic.tick(topo, t, &mut arrivals);
        for a in arrivals.drain(..) {
            out.push((t, a));
        }
    }
    out
}

/// Cheap digest of everything the simulation decided, for the
/// fast-vs-naive determinism cross-check.
#[derive(Debug, PartialEq)]
struct Digest {
    collisions: u64,
    busy_slots: u64,
    frames_sent: u64,
    completed: usize,
    received: usize,
}

struct Timed {
    ns_per_slot: f64,
    skipped_ratio: f64,
    digest: Digest,
}

fn drive(
    scenario: &Scenario,
    topo: &Topology,
    plan: &[(Slot, Arrival)],
    seed: u64,
    fast: bool,
) -> Timed {
    let mut nodes = MacNode::build_network(topo, ProtocolKind::Bmmm, scenario.timing, seed);
    let mut engine = scenario.build_engine(topo.clone(), seed);
    let start = Instant::now();
    if fast {
        for (t, a) in plan {
            engine.advance_to(&mut nodes, *t);
            nodes[a.node.index()].enqueue(a.kind, a.receivers.clone(), *t);
            engine.wake(a.node);
        }
        engine.advance_to(&mut nodes, scenario.sim_slots);
    } else {
        let mut i = 0;
        for t in 0..scenario.sim_slots {
            while i < plan.len() && plan[i].0 == t {
                let a = &plan[i].1;
                nodes[a.node.index()].enqueue(a.kind, a.receivers.clone(), t);
                i += 1;
            }
            engine.step(&mut nodes);
        }
    }
    let elapsed = start.elapsed();
    for node in &mut nodes {
        node.drain_unfinished(scenario.sim_slots);
    }
    let digest = Digest {
        collisions: engine.channel().collisions_total,
        busy_slots: engine.channel().busy_slots,
        frames_sent: nodes.iter().map(|n| n.counters().frames_sent).sum(),
        completed: nodes
            .iter()
            .flat_map(|n| n.records())
            .filter(|r| r.outcome.is_completed())
            .count(),
        received: nodes.iter().map(|n| n.received().len()).sum(),
    };
    Timed {
        ns_per_slot: elapsed.as_nanos() as f64 / scenario.sim_slots as f64,
        skipped_ratio: engine.slots_skipped() as f64 / scenario.sim_slots as f64,
        digest,
    }
}

#[derive(Debug, Serialize)]
struct ScenarioReport {
    name: &'static str,
    nodes: usize,
    sim_slots: u64,
    msg_rate: f64,
    reps: usize,
    /// Median ns/slot across reps (the speedup and CI gates key on the
    /// medians; p95 is recorded so single-rep noise can't hide drift).
    naive_ns_per_slot: f64,
    fast_ns_per_slot: f64,
    naive_p95_ns_per_slot: f64,
    fast_p95_ns_per_slot: f64,
    speedup: f64,
    slots_skipped_ratio: f64,
    digests_match: bool,
}

#[derive(Debug, Serialize)]
struct Report {
    bench: &'static str,
    smoke: bool,
    host: rmm_bench::HostMeta,
    scenarios: Vec<ScenarioReport>,
}

fn main() {
    let smoke = rmm_bench::smoke();
    let reps = if smoke { 3 } else { 7 };
    let seed = 42u64;
    let mut scenarios = Vec::new();
    for Workload {
        name,
        sim_slots,
        msg_rate,
    } in rmm_bench::workloads(smoke)
    {
        let scenario = Scenario {
            sim_slots,
            msg_rate,
            ..Scenario::default()
        };
        let topo = uniform_square(scenario.n_nodes, scenario.radius, seed);
        let plan = schedule(&scenario, &topo, seed);
        let mut naive_ns = Vec::new();
        let mut fast_ns = Vec::new();
        let mut skipped_ratio = 0.0;
        let mut digests_match = true;
        for _ in 0..reps {
            let naive = drive(&scenario, &topo, &plan, seed, false);
            let fast = drive(&scenario, &topo, &plan, seed, true);
            digests_match &= naive.digest == fast.digest;
            naive_ns.push(naive.ns_per_slot);
            fast_ns.push(fast.ns_per_slot);
            skipped_ratio = fast.skipped_ratio;
        }
        let naive_med = median(&naive_ns);
        let fast_med = median(&fast_ns);
        let report = ScenarioReport {
            name,
            nodes: scenario.n_nodes,
            sim_slots,
            msg_rate,
            reps,
            naive_ns_per_slot: naive_med,
            fast_ns_per_slot: fast_med,
            naive_p95_ns_per_slot: percentile(&naive_ns, 0.95),
            fast_p95_ns_per_slot: percentile(&fast_ns, 0.95),
            speedup: naive_med / fast_med,
            slots_skipped_ratio: skipped_ratio,
            digests_match,
        };
        eprintln!(
            "[engine_horizon] {:<15} naive {:>9.0} ns/slot | fast {:>9.0} ns/slot | {:>5.2}x | skipped {:>5.1}% | deterministic: {}",
            report.name,
            report.naive_ns_per_slot,
            report.fast_ns_per_slot,
            report.speedup,
            report.slots_skipped_ratio * 100.0,
            report.digests_match,
        );
        assert!(
            report.digests_match,
            "{}: fast and naive stepping disagreed",
            report.name
        );
        scenarios.push(report);
    }
    let report = Report {
        bench: "engine_horizon",
        smoke,
        host: rmm_bench::host_meta(),
        scenarios,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let out = rmm_bench::write_report("BENCH_ENGINE_OUT", "BENCH_engine.json", &json);
    eprintln!("[engine_horizon] wrote {out}");
}

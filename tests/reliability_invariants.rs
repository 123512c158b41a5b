//! Reliability invariants, checked against the simulator's ground truth.
//!
//! The central one validates the paper's Theorems 1 and 3 end-to-end:
//! whenever LAMM closes a receiver *without* an explicit ACK (geometric
//! coverage by the ACK set), that receiver really did decode the data
//! frame — under the paper's assumption that transmission errors come
//! from collisions, which is exactly our channel model.

use rmm::mac::{MacNode, Outcome, ProtocolKind};
use rmm::prelude::*;
use rmm::workload::{run, Probes, RunSpec, Scenario, Stepping};

fn scenario(seed_rate: f64) -> Scenario {
    Scenario {
        n_nodes: 70,
        sim_slots: 5_000,
        msg_rate: seed_rate,
        n_runs: 1,
        ..Scenario::default()
    }
}

/// One naive-stepped run with the forensic probe on: the final
/// stations, so sender records and receiver ground truth stay
/// inspectable.
fn final_stations(protocol: ProtocolKind, seed: u64) -> Vec<MacNode> {
    let spec = RunSpec {
        stepping: Stepping::Naive,
        probes: Probes {
            forensic: true,
            ..Probes::default()
        },
        mobility: None,
    };
    run(&scenario(1e-3), protocol, seed, &spec)
        .nodes
        .expect("forensic probe was enabled")
}

#[test]
fn completed_reliable_multicasts_delivered_to_every_intended_receiver() {
    // BMW and BMMM complete only after an explicit ACK (or have-CTS) from
    // every intended receiver, so completion ⇒ full delivery.
    for protocol in [ProtocolKind::Bmw, ProtocolKind::Bmmm] {
        for seed in 0..4 {
            let nodes = final_stations(protocol, seed);
            let mut checked = 0;
            for node in &nodes {
                for rec in node.records() {
                    if !rec.is_group() || !matches!(rec.outcome, Outcome::Completed(_)) {
                        continue;
                    }
                    for r in &rec.intended {
                        assert!(
                            nodes[r.index()].received().contains(&rec.msg),
                            "{protocol:?} seed {seed}: {} completed but {r} missing data",
                            rec.msg
                        );
                    }
                    checked += 1;
                }
            }
            assert!(
                checked > 5,
                "{protocol:?} seed {seed}: only {checked} completions checked"
            );
        }
    }
}

#[test]
fn lamm_theorem3_coverage_implies_delivery() {
    // The paper's Theorem 3, validated in the wild: every receiver LAMM
    // closed by geometric coverage actually decoded the data frame.
    let mut covered_total = 0;
    for seed in 0..6 {
        let nodes = final_stations(ProtocolKind::Lamm, seed);
        for node in &nodes {
            for rec in node.records() {
                if !matches!(rec.outcome, Outcome::Completed(_)) {
                    continue;
                }
                for r in &rec.assumed_covered {
                    assert!(
                        nodes[r.index()].received().contains(&rec.msg),
                        "seed {seed}: Theorem 3 violated — {r} assumed covered for {} but \
                         never decoded it",
                        rec.msg
                    );
                    covered_total += 1;
                }
            }
        }
    }
    assert!(
        covered_total > 20,
        "only {covered_total} coverage closures exercised — test too weak"
    );
}

#[test]
fn acked_receivers_really_received() {
    // An ACK (or BMW have-CTS) can only exist if the receiver holds the
    // data — across every protocol and outcome.
    for protocol in [ProtocolKind::Bmw, ProtocolKind::Bmmm, ProtocolKind::Lamm] {
        let nodes = final_stations(protocol, 3);
        for node in &nodes {
            for rec in node.records() {
                for r in &rec.acked {
                    assert!(
                        rec.intended.contains(r),
                        "{protocol:?}: ack from non-intended {r}"
                    );
                    assert!(
                        nodes[r.index()].received().contains(&rec.msg),
                        "{protocol:?}: {r} acked {} without the data",
                        rec.msg
                    );
                }
            }
        }
    }
}

#[test]
fn assumed_covered_is_lamm_only_and_disjoint_from_acked() {
    for protocol in [ProtocolKind::Bmw, ProtocolKind::Bmmm, ProtocolKind::Bsma] {
        let nodes = final_stations(protocol, 1);
        for node in &nodes {
            for rec in node.records() {
                assert!(
                    rec.assumed_covered.is_empty(),
                    "{protocol:?} produced assumed_covered entries"
                );
            }
        }
    }
    let nodes = final_stations(ProtocolKind::Lamm, 1);
    for node in &nodes {
        for rec in node.records() {
            for r in &rec.assumed_covered {
                assert!(!rec.acked.contains(r), "covered node {r} also acked");
                assert!(rec.intended.contains(r));
            }
        }
    }
}

#[test]
fn every_request_is_accounted_for() {
    // Conservation: queue in = records out; nothing is silently dropped.
    let s = scenario(2e-3);
    let topo = rmm::workload::uniform_square(s.n_nodes, s.radius, 9);
    let mut nodes = MacNode::build_network(&topo, ProtocolKind::Bmmm, s.timing, 9);
    let mut engine = Engine::new(topo.clone(), s.capture, 9);
    let mut traffic = rmm::workload::TrafficGen::new(s.msg_rate, s.mix, 9);
    let mut arrivals = Vec::new();
    let mut enqueued = vec![0usize; s.n_nodes];
    for t in 0..s.sim_slots {
        traffic.tick(engine.topology(), t, &mut arrivals);
        for a in &arrivals {
            nodes[a.node.index()].enqueue(a.kind, a.receivers.clone(), t);
            enqueued[a.node.index()] += 1;
        }
        engine.step(&mut nodes);
    }
    for n in &mut nodes {
        n.drain_unfinished(s.sim_slots);
    }
    for (i, node) in nodes.iter().enumerate() {
        assert_eq!(
            node.records().len(),
            enqueued[i],
            "node {i}: {} enqueued but {} recorded",
            enqueued[i],
            node.records().len()
        );
        // Message ids are unique and sequential per sender.
        let mut seqs: Vec<u32> = node.records().iter().map(|r| r.msg.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), node.records().len());
    }
}

#[test]
fn half_duplex_is_never_violated() {
    // A node's own transmissions never overlap: tx accounting is kept by
    // the engine's debug assertions, but double-check with the trace.
    let topo = rmm::workload::uniform_square(40, 0.2, 5);
    let mut nodes = MacNode::build_network(&topo, ProtocolKind::Lamm, Default::default(), 5);
    let mut engine = Engine::new(topo.clone(), Capture::ZorziRao, 5);
    engine.enable_trace();
    let mut traffic = rmm::workload::TrafficGen::new(2e-3, Default::default(), 5);
    let mut arrivals = Vec::new();
    for t in 0..3_000 {
        traffic.tick(engine.topology(), t, &mut arrivals);
        for a in &arrivals {
            nodes[a.node.index()].enqueue(a.kind, a.receivers.clone(), t);
        }
        engine.step(&mut nodes);
    }
    let mut busy_until = vec![0u64; topo.len()];
    for ev in engine.trace().unwrap().events() {
        if let rmm::sim::TraceEvent::TxStart {
            slot, node, slots, ..
        } = ev
        {
            assert!(
                *slot >= busy_until[node.index()],
                "{node} started a tx at {slot} while busy until {}",
                busy_until[node.index()]
            );
            busy_until[node.index()] = slot + u64::from(*slots);
        }
    }
}

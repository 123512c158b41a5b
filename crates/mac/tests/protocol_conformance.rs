//! Per-protocol conformance tests on small, hand-analyzable topologies:
//! do the frame exchanges match the paper's protocol descriptions?

use rmm_geom::Point;
use rmm_mac::{MacNode, MacTiming, Outcome, ProtocolKind, TrafficKind};
use rmm_sim::{Capture, Engine, FaultPlan, FrameKind, NodeId, Slot, Topology, TraceEvent};

fn nid(n: u32) -> NodeId {
    NodeId(n)
}

/// A star: node 0 in the middle, `n` receivers around it, everyone within
/// range of everyone (a single cell).
fn star(n: usize) -> Topology {
    let mut pts = vec![Point::new(0.5, 0.5)];
    for i in 0..n {
        let a = i as f64 * std::f64::consts::TAU / n as f64;
        pts.push(Point::new(0.5 + 0.05 * a.cos(), 0.5 + 0.05 * a.sin()));
    }
    Topology::new(pts, 0.2)
}

struct Run {
    nodes: Vec<MacNode>,
    engine: Engine,
}

/// One sender (node 0) multicasting to all its neighbors, no cross
/// traffic.
fn run_single_multicast(protocol: ProtocolKind, n_receivers: usize, slots: u64) -> Run {
    run_star(
        protocol,
        TrafficKind::Multicast,
        n_receivers,
        slots,
        FaultPlan::new(),
    )
}

/// One `kind` message from node 0 of `star(n_receivers)` to all its
/// neighbors (to node 1 alone for unicast), no cross traffic, with
/// `faults` injected.
fn run_star(
    protocol: ProtocolKind,
    kind: TrafficKind,
    n_receivers: usize,
    slots: u64,
    faults: FaultPlan,
) -> Run {
    let topo = star(n_receivers);
    let mut nodes = MacNode::build_network(&topo, protocol, MacTiming::default(), 42);
    let mut engine = Engine::new(topo, Capture::ZorziRao, 42);
    engine.enable_trace();
    if !faults.is_empty() {
        engine.set_faults(faults);
    }
    let receivers: Vec<NodeId> = match kind {
        TrafficKind::Unicast => vec![nid(1)],
        _ => (1..=n_receivers as u32).map(NodeId).collect(),
    };
    nodes[0].enqueue(kind, receivers, 0);
    engine.run(&mut nodes, slots);
    Run { nodes, engine }
}

fn tx_kinds(run: &Run, node: NodeId) -> Vec<FrameKind> {
    run.engine
        .trace()
        .unwrap()
        .events()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::TxStart { node: n, kind, .. } if *n == node => Some(*kind),
            _ => None,
        })
        .collect()
}

fn count_kind(run: &Run, node: NodeId, kind: FrameKind) -> usize {
    tx_kinds(run, node).iter().filter(|&&k| k == kind).count()
}

#[test]
fn plain_80211_sends_one_data_frame_and_nothing_else() {
    let run = run_single_multicast(ProtocolKind::Ieee80211, 3, 50);
    assert_eq!(tx_kinds(&run, nid(0)), vec![FrameKind::Data]);
    let rec = &run.nodes[0].records()[0];
    assert!(rec.outcome.is_completed());
    assert_eq!(rec.contention_phases, 1);
    // No receiver transmits anything: no CTS, no ACK.
    for r in 1..=3 {
        assert!(tx_kinds(&run, nid(r)).is_empty());
    }
    // All three receivers get the frame on a quiet channel.
    for r in 1..=3 {
        assert_eq!(run.nodes[r as usize].received().len(), 1);
    }
}

#[test]
fn bmmm_batch_is_one_contention_phase_on_a_clean_channel() {
    let n = 4;
    let run = run_single_multicast(ProtocolKind::Bmmm, n, 120);
    let rec = &run.nodes[0].records()[0];
    assert!(rec.outcome.is_completed(), "outcome: {:?}", rec.outcome);
    assert_eq!(rec.contention_phases, 1, "BMMM consolidates contention");
    // Sender: n RTS + 1 DATA + n RAK.
    assert_eq!(count_kind(&run, nid(0), FrameKind::Rts), n);
    assert_eq!(count_kind(&run, nid(0), FrameKind::Data), 1);
    assert_eq!(count_kind(&run, nid(0), FrameKind::Rak), n);
    // Every receiver: 1 CTS + 1 ACK.
    for r in 1..=n as u32 {
        assert_eq!(count_kind(&run, nid(r), FrameKind::Cts), 1);
        assert_eq!(count_kind(&run, nid(r), FrameKind::Ack), 1);
    }
    // All receivers ACKed.
    let mut acked = rec.acked.clone();
    acked.sort();
    assert_eq!(acked, (1..=n as u32).map(NodeId).collect::<Vec<_>>());
}

#[test]
fn bmmm_figure2_frame_order() {
    // Figure 2: RTS1 CTS1 RTS2 CTS2 … DATA RAK1 ACK1 RAK2 ACK2 …
    let run = run_single_multicast(ProtocolKind::Bmmm, 2, 80);
    let order: Vec<(NodeId, FrameKind)> = run
        .engine
        .trace()
        .unwrap()
        .events()
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::TxStart { node, kind, .. } => Some((*node, *kind)),
            _ => None,
        })
        .collect();
    use FrameKind::*;
    let expected = vec![
        (nid(0), Rts),
        (nid(1), Cts),
        (nid(0), Rts),
        (nid(2), Cts),
        (nid(0), Data),
        (nid(0), Rak),
        (nid(1), Ack),
        (nid(0), Rak),
        (nid(2), Ack),
    ];
    assert_eq!(order, expected);
}

#[test]
fn bmw_uses_one_contention_phase_per_receiver() {
    let n = 4;
    let run = run_single_multicast(ProtocolKind::Bmw, n, 400);
    let rec = &run.nodes[0].records()[0];
    assert!(rec.outcome.is_completed(), "outcome: {:?}", rec.outcome);
    // The paper: BMW needs at least n contention phases per message.
    assert_eq!(rec.contention_phases as usize, n);
    assert_eq!(count_kind(&run, nid(0), FrameKind::Rts), n);
    // The first receiver needs the data; later ones overheard it and
    // suppress via the have-flag, so exactly one data transmission.
    assert_eq!(count_kind(&run, nid(0), FrameKind::Data), 1);
    assert_eq!(rec.acked.len(), n);
}

#[test]
fn bmw_have_flag_suppresses_redundant_data() {
    let run = run_single_multicast(ProtocolKind::Bmw, 3, 400);
    // Receivers 2 and 3 cache the data addressed to receiver 1
    // (promiscuous receive buffer), so they never trigger a second DATA
    // and never send an ACK — their CTS(have) closes the round.
    assert_eq!(count_kind(&run, nid(0), FrameKind::Data), 1);
    let acks: usize = (1..=3)
        .map(|r| count_kind(&run, nid(r), FrameKind::Ack))
        .sum();
    assert_eq!(acks, 1, "only the receiver that got addressed data ACKs");
}

#[test]
fn tang_gerla_completes_after_any_cts() {
    let run = run_single_multicast(ProtocolKind::TangGerla, 3, 200);
    let rec = &run.nodes[0].records()[0];
    assert!(rec.outcome.is_completed());
    // Sender transmitted at least one group RTS and exactly one DATA.
    assert!(count_kind(&run, nid(0), FrameKind::Rts) >= 1);
    assert_eq!(count_kind(&run, nid(0), FrameKind::Data), 1);
    // All three receivers answered the (first successful) RTS at once:
    // their CTS frames collided at the sender, so completion required
    // capture. With 3 colliding CTS frames the capture probability is
    // ~0.46 per attempt; with seed 42 and 200 slots it succeeds.
    for r in 1..=3 {
        assert!(count_kind(&run, nid(r), FrameKind::Cts) >= 1);
    }
}

#[test]
fn tang_gerla_single_receiver_needs_no_capture() {
    // With one receiver there is no CTS collision: one contention phase.
    let run = run_single_multicast(ProtocolKind::TangGerla, 1, 60);
    let rec = &run.nodes[0].records()[0];
    assert!(rec.outcome.is_completed());
    assert_eq!(rec.contention_phases, 1);
}

#[test]
fn bsma_completes_silently_when_all_receive() {
    let run = run_single_multicast(ProtocolKind::Bsma, 1, 100);
    let rec = &run.nodes[0].records()[0];
    assert!(rec.outcome.is_completed());
    // No NAK was sent: data went through.
    assert_eq!(count_kind(&run, nid(1), FrameKind::Nak), 0);
    assert_eq!(run.nodes[1].received().len(), 1);
}

#[test]
fn lamm_polls_a_cover_set_only() {
    // Receivers: a ring of 6 close to the sender plus one co-located
    // pair; the minimum cover set is strictly smaller than the set.
    let mut pts = vec![Point::new(0.5, 0.5)];
    for i in 0..6 {
        let a = i as f64 * std::f64::consts::TAU / 6.0;
        pts.push(Point::new(0.5 + 0.06 * a.cos(), 0.5 + 0.06 * a.sin()));
    }
    pts.push(Point::new(0.5, 0.5001)); // ~co-located with the sender ring center
    let topo = Topology::new(pts, 0.2);
    let receivers: Vec<NodeId> = (1..=7).map(NodeId).collect();
    let mut nodes = MacNode::build_network(&topo, ProtocolKind::Lamm, MacTiming::default(), 7);
    let mut engine = Engine::new(topo, Capture::ZorziRao, 7);
    engine.enable_trace();
    nodes[0].enqueue(TrafficKind::Multicast, receivers.clone(), 0);
    engine.run(&mut nodes, 200);
    let rec = &nodes[0].records()[0];
    assert!(rec.outcome.is_completed(), "outcome: {:?}", rec.outcome);
    // LAMM polled fewer receivers than BMMM would have.
    let rts_count = engine
        .trace()
        .unwrap()
        .events()
        .iter()
        .filter(|ev| {
            matches!(ev, TraceEvent::TxStart { node, kind: FrameKind::Rts, .. } if *node == nid(0))
        })
        .count();
    assert!(
        rts_count < receivers.len(),
        "LAMM sent {rts_count} RTS for {} receivers",
        receivers.len()
    );
    // Uncovered/unpolled receivers were closed by coverage and did
    // actually receive the data (Theorem 3 soundness).
    assert!(!rec.assumed_covered.is_empty());
    for &covered in &rec.assumed_covered {
        assert!(
            nodes[covered.index()].received().contains(&rec.msg),
            "{covered} was assumed covered but missed the data"
        );
    }
    // Every intended receiver ended up with the message.
    for &r in &receivers {
        assert!(nodes[r.index()].received().contains(&rec.msg));
    }
}

#[test]
fn unicast_uses_dcf_under_every_protocol() {
    for protocol in ProtocolKind::ALL {
        let run = {
            let topo = star(2);
            let mut nodes = MacNode::build_network(&topo, protocol, MacTiming::default(), 9);
            let mut engine = Engine::new(topo, Capture::ZorziRao, 9);
            engine.enable_trace();
            nodes[0].enqueue(TrafficKind::Unicast, vec![nid(1)], 0);
            engine.run(&mut nodes, 80);
            Run { nodes, engine }
        };
        let rec = &run.nodes[0].records()[0];
        assert!(
            rec.outcome.is_completed(),
            "{protocol:?}: {:?}",
            rec.outcome
        );
        // RTS/CTS/DATA/ACK exchange.
        assert_eq!(
            tx_kinds(&run, nid(0)),
            vec![FrameKind::Rts, FrameKind::Data],
            "{protocol:?}"
        );
        assert_eq!(
            tx_kinds(&run, nid(1)),
            vec![FrameKind::Cts, FrameKind::Ack],
            "{protocol:?}"
        );
        assert_eq!(rec.acked, vec![nid(1)], "{protocol:?}");
    }
}

#[test]
fn reliable_protocols_guarantee_delivery_on_completion() {
    // On a clean channel every protocol completes; for the reliable ones
    // completion must imply full delivery.
    for protocol in [ProtocolKind::Bmw, ProtocolKind::Bmmm, ProtocolKind::Lamm] {
        let run = run_single_multicast(protocol, 5, 600);
        let rec = &run.nodes[0].records()[0];
        assert!(rec.outcome.is_completed(), "{protocol:?}");
        for r in 1..=5u32 {
            assert!(
                run.nodes[r as usize].received().contains(&rec.msg),
                "{protocol:?}: receiver {r} missing data"
            );
        }
    }
}

#[test]
fn empty_receiver_set_completes_immediately() {
    for protocol in ProtocolKind::ALL {
        let topo = star(1);
        let mut nodes = MacNode::build_network(&topo, protocol, MacTiming::default(), 5);
        let mut engine = Engine::new(topo, Capture::ZorziRao, 5);
        nodes[0].enqueue(TrafficKind::Multicast, vec![], 0);
        engine.run(&mut nodes, 40);
        let rec = &nodes[0].records()[0];
        assert!(
            rec.outcome.is_completed(),
            "{protocol:?}: {:?}",
            rec.outcome
        );
    }
}

#[test]
fn message_times_out_when_a_receiver_is_unreachable() {
    // A stale neighbor table: the intended receiver has moved out of
    // range. The reliable protocols retry until the 100-slot service
    // timeout expires, then give up.
    let topo = Topology::new(
        vec![
            Point::new(0.0, 0.0),
            Point::new(0.1, 0.0),
            Point::new(0.9, 0.9),
        ],
        0.2,
    );
    for protocol in [ProtocolKind::Bmw, ProtocolKind::Bmmm, ProtocolKind::Lamm] {
        let mut nodes = MacNode::build_network(&topo, protocol, MacTiming::default(), 3);
        let mut engine = Engine::new(topo.clone(), Capture::ZorziRao, 3);
        nodes[0].enqueue(TrafficKind::Multicast, vec![nid(1), nid(2)], 0);
        engine.run(&mut nodes, 400);
        let rec = &nodes[0].records()[0];
        assert!(
            matches!(rec.outcome, Outcome::TimedOut(at) if (100..=110).contains(&at)),
            "{protocol:?}: expected timeout shortly after 100 slots, got {:?}",
            rec.outcome
        );
        // The reachable receiver still got the data along the way (BMMM
        // transmits it once at least one CTS arrives) — except under BMW,
        // which serves targets in order and may never reach node 1 if the
        // unreachable node 2 comes later in the list; node 1 is first
        // here, so it must have been served.
        assert!(nodes[1].received().len() == 1, "{protocol:?}");
    }
}

#[test]
fn queued_messages_are_served_in_fifo_order() {
    let topo = star(2);
    let mut nodes = MacNode::build_network(&topo, ProtocolKind::Bmmm, MacTiming::default(), 11);
    let mut engine = Engine::new(topo, Capture::ZorziRao, 11);
    let m1 = nodes[0].enqueue(TrafficKind::Multicast, vec![nid(1), nid(2)], 0);
    let m2 = nodes[0].enqueue(TrafficKind::Multicast, vec![nid(1)], 0);
    engine.run(&mut nodes, 200);
    let records = nodes[0].records();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].msg, m1);
    assert_eq!(records[1].msg, m2);
    assert!(records[0].outcome.is_completed());
    assert!(records[1].outcome.is_completed());
    // Completion order follows queue order.
    let Outcome::Completed(c1) = records[0].outcome else {
        unreachable!()
    };
    let Outcome::Completed(c2) = records[1].outcome else {
        unreachable!()
    };
    assert!(c1 < c2);
}

#[test]
fn bystander_yields_during_bmmm_batch() {
    // Node 3 is a bystander in range of the sender. During the batch it
    // must not win contention (the paper's "the medium will never be
    // idle for more than 2·SIFS + T_CTS < DIFS" argument).
    let topo = star(3);
    let mut nodes = MacNode::build_network(&topo, ProtocolKind::Bmmm, MacTiming::default(), 13);
    let mut engine = Engine::new(topo, Capture::ZorziRao, 13);
    engine.enable_trace();
    nodes[0].enqueue(TrafficKind::Multicast, vec![nid(1), nid(2)], 0);
    // Bystander (node 3) wants to send while the batch runs.
    nodes[3].enqueue(TrafficKind::Unicast, vec![nid(1)], 2);
    engine.run(&mut nodes, 300);
    // Both complete eventually…
    assert!(nodes[0].records()[0].outcome.is_completed());
    assert!(nodes[3].records()[0].outcome.is_completed());
    // …and the bystander never transmits *inside* the batch: on this
    // clean channel the batch is a single contiguous train of frames with
    // sub-DIFS gaps, so no station can win a contention within it. (The
    // bystander may legitimately transmit before the batch starts if its
    // backoff wins the initial race.)
    let evs = engine.trace().unwrap().events();
    let batch_slots: Vec<u64> = evs
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::TxStart { slot, node, .. } if *node == nid(0) => Some(*slot),
            _ => None,
        })
        .collect();
    let (batch_first, batch_last) = (
        *batch_slots.iter().min().unwrap(),
        *batch_slots.iter().max().unwrap(),
    );
    for ev in evs {
        if let TraceEvent::TxStart { slot, node, .. } = ev {
            if *node == nid(3) {
                assert!(
                    *slot <= batch_first || *slot > batch_last,
                    "bystander transmitted at {slot}, inside the batch [{batch_first}, {batch_last}]"
                );
            }
        }
    }
}

mod leader_based {
    use super::*;
    use rmm_mac::MacTiming;
    use rmm_sim::{Ctx, Dest, Frame, MsgId, Station};

    #[test]
    fn clean_channel_single_phase_with_leader_handshake() {
        let run = run_single_multicast(ProtocolKind::LeaderBased, 3, 80);
        let rec = &run.nodes[0].records()[0];
        assert!(rec.outcome.is_completed(), "{:?}", rec.outcome);
        assert_eq!(rec.contention_phases, 1);
        // Sender: one group RTS + one DATA. Leader (node 1): CTS + ACK.
        // Non-leaders: silent.
        assert_eq!(
            tx_kinds(&run, nid(0)),
            vec![FrameKind::Rts, FrameKind::Data]
        );
        assert_eq!(tx_kinds(&run, nid(1)), vec![FrameKind::Cts, FrameKind::Ack]);
        assert!(tx_kinds(&run, nid(2)).is_empty());
        assert!(tx_kinds(&run, nid(3)).is_empty());
        // Everyone got the data on the clean channel.
        for r in 1..=3 {
            assert_eq!(run.nodes[r].received().len(), 1);
        }
        // Only the leader is recorded as confirming.
        assert_eq!(rec.acked, vec![nid(1)]);
    }

    /// Mixed station type so a scripted jammer can share the engine with
    /// real MAC nodes.
    enum TestStation {
        Mac(Box<MacNode>),
        Script { plan: Vec<(u64, Frame)> },
    }

    impl Station for TestStation {
        fn on_receive(&mut self, frame: &Frame, captured: bool, ctx: &mut Ctx<'_>) {
            if let TestStation::Mac(m) = self {
                m.on_receive(frame, captured, ctx);
            }
        }
        fn on_slot(&mut self, ctx: &mut Ctx<'_>) {
            match self {
                TestStation::Mac(m) => m.on_slot(ctx),
                TestStation::Script { plan } => {
                    while let Some(pos) = plan.iter().position(|(s, _)| *s == ctx.now) {
                        let (_, frame) = plan.remove(pos);
                        ctx.send(frame);
                    }
                }
            }
        }
    }

    #[test]
    fn nak_jam_forces_retransmission() {
        // S(0) multicasts to leader L(1) and non-leader C(2). A hidden
        // interferer D(3) — audible only at C — destroys the first DATA
        // frame at C. C heard the RTS, so it jams the ACK slot with a
        // NAK; the collided ACK makes S retransmit until C has the data.
        //
        // cw_min = 0 makes contention deterministic: RTS at slot 4,
        // DATA at [6, 11), ACK/NAK slot 11.
        let topo = Topology::new(
            vec![
                Point::new(0.00, 0.00), // S
                Point::new(0.15, 0.00), // L
                Point::new(0.00, 0.15), // C
                Point::new(0.00, 0.30), // D: in range of C only
            ],
            0.2,
        );
        assert!(!topo.in_range(nid(0), nid(3)));
        assert!(!topo.in_range(nid(1), nid(3)));
        let timing = MacTiming {
            cw_min: 0,
            ..Default::default()
        };
        let mut stations: Vec<TestStation> =
            MacNode::build_network(&topo, ProtocolKind::LeaderBased, timing, 1)
                .into_iter()
                .map(|m| TestStation::Mac(Box::new(m)))
                .collect();
        // The jammer overlaps the first DATA window [6, 11).
        stations[3] = TestStation::Script {
            plan: vec![(
                7,
                Frame::data(nid(3), Dest::Node(nid(2)), 0, MsgId::new(nid(3), 0), 3),
            )],
        };
        if let TestStation::Mac(m) = &mut stations[0] {
            m.enqueue(TrafficKind::Multicast, vec![nid(1), nid(2)], 0);
        }
        let mut engine = Engine::new(topo, rmm_sim::Capture::None, 1);
        engine.enable_trace();
        engine.run(&mut stations, 200);

        let (sender, c_node) = match (&stations[0], &stations[2]) {
            (TestStation::Mac(s), TestStation::Mac(c)) => (s, c),
            _ => unreachable!(),
        };
        let rec = &sender.records()[0];
        assert!(rec.outcome.is_completed(), "{:?}", rec.outcome);
        assert!(
            rec.contention_phases >= 2,
            "the jammed ACK must force a retransmission, got {} phase(s)",
            rec.contention_phases
        );
        assert!(
            c_node.received().len() == 1,
            "C must eventually get the data"
        );
        // The NAK really went on the air.
        let naks = engine
            .trace()
            .unwrap()
            .events()
            .iter()
            .filter(|ev| {
                matches!(ev, rmm_sim::TraceEvent::TxStart { node, kind: FrameKind::Nak, .. } if *node == nid(2))
            })
            .count();
        assert!(naks >= 1, "non-leader never jammed");
    }

    #[test]
    fn leader_scheme_blind_spot() {
        // The weakness relative to BMMM: a receiver that never heard the
        // RTS cannot jam, so the sender completes while that receiver has
        // nothing. Put the non-leader out of range entirely.
        let topo = Topology::new(
            vec![
                Point::new(0.00, 0.00), // S
                Point::new(0.15, 0.00), // L (leader)
                Point::new(0.90, 0.90), // C: unreachable
            ],
            0.2,
        );
        let mut nodes =
            MacNode::build_network(&topo, ProtocolKind::LeaderBased, MacTiming::default(), 2);
        let mut engine = Engine::new(topo, rmm_sim::Capture::None, 2);
        nodes[0].enqueue(TrafficKind::Multicast, vec![nid(1), nid(2)], 0);
        engine.run(&mut nodes, 200);
        let rec = &nodes[0].records()[0];
        assert!(
            rec.outcome.is_completed(),
            "leader scheme should complete despite the unreachable receiver: {:?}",
            rec.outcome
        );
        assert!(nodes[2].received().is_empty());
        // BMMM on the same topology refuses to complete (it times out
        // waiting for the missing ACK) — that is what is_reliable() means.
        assert!(!ProtocolKind::LeaderBased.is_reliable());
        assert!(ProtocolKind::Bmmm.is_reliable());
    }
}

mod bmmm_uncoordinated_ablation {
    use super::*;

    #[test]
    fn uncoordinated_acks_collide_and_stall_completion() {
        // Two receivers, clean channel, capture disabled: both ACK the
        // data simultaneously, the burst collides every round, and the
        // sender can never close the message — it times out. Real BMMM
        // on the identical setup completes in one batch.
        let topo = star(2);
        let mut nodes = MacNode::build_network(
            &topo,
            ProtocolKind::BmmmUncoordinated,
            MacTiming::default(),
            3,
        );
        let mut engine = Engine::new(topo.clone(), rmm_sim::Capture::None, 3);
        nodes[0].enqueue(TrafficKind::Multicast, vec![nid(1), nid(2)], 0);
        engine.run(&mut nodes, 400);
        let rec = &nodes[0].records()[0];
        assert!(
            matches!(rec.outcome, Outcome::TimedOut(_)),
            "uncoordinated ACKs should deadlock under Capture::None, got {:?}",
            rec.outcome
        );
        // The data itself reached both receivers — the protocol just
        // cannot learn it.
        assert_eq!(nodes[1].received().len(), 1);
        assert_eq!(nodes[2].received().len(), 1);

        let mut nodes = MacNode::build_network(&topo, ProtocolKind::Bmmm, MacTiming::default(), 3);
        let mut engine = Engine::new(topo, rmm_sim::Capture::None, 3);
        nodes[0].enqueue(TrafficKind::Multicast, vec![nid(1), nid(2)], 0);
        engine.run(&mut nodes, 400);
        assert!(
            nodes[0].records()[0].outcome.is_completed(),
            "coordinated BMMM completes on the same setup"
        );
    }

    #[test]
    fn single_receiver_needs_no_coordination() {
        // With one receiver there is no ACK burst to collide: the
        // variant behaves like BMMM and completes in one phase.
        let run = run_single_multicast(ProtocolKind::BmmmUncoordinated, 1, 80);
        let rec = &run.nodes[0].records()[0];
        assert!(rec.outcome.is_completed());
        assert_eq!(rec.contention_phases, 1);
        assert_eq!(rec.acked, vec![nid(1)]);
    }

    #[test]
    fn capture_sometimes_rescues_but_slowly() {
        // With Zorzi–Rao capture the burst occasionally yields one ACK
        // per round, so the message completes — in strictly more phases
        // than coordinated BMMM's single batch.
        let run = run_single_multicast(ProtocolKind::BmmmUncoordinated, 3, 400);
        let rec = &run.nodes[0].records()[0];
        if rec.outcome.is_completed() {
            assert!(
                rec.contention_phases >= 3,
                "3 receivers need ≥ 3 capture wins, got {} phases",
                rec.contention_phases
            );
        } else {
            assert!(matches!(rec.outcome, Outcome::TimedOut(_)));
        }
    }
}

#[test]
fn bmmm_batch_gaps_stay_below_difs() {
    // The paper's co-existence invariant, measured on the trace: within a
    // clean-channel BMMM batch, the medium never idles for DIFS slots, so
    // no bystander contention can complete mid-batch. Check across batch
    // sizes and seeds.
    for n in [2usize, 4, 6] {
        for seed in [7u64, 21, 99] {
            let topo = star(n);
            let timing = MacTiming::default();
            let mut nodes = MacNode::build_network(&topo, ProtocolKind::Bmmm, timing, seed);
            let mut engine = Engine::new(topo, Capture::ZorziRao, seed);
            engine.enable_trace();
            let receivers: Vec<NodeId> = (1..=n as u32).map(NodeId).collect();
            nodes[0].enqueue(TrafficKind::Multicast, receivers, 0);
            engine.run(&mut nodes, 200);
            assert!(nodes[0].records()[0].outcome.is_completed());
            let events = engine.trace().unwrap().events();
            // The batch spans from the first to the last transmission.
            let first = events
                .iter()
                .find_map(|ev| match ev {
                    TraceEvent::TxStart { slot, .. } => Some(*slot),
                    _ => None,
                })
                .unwrap();
            let last = events
                .iter()
                .filter_map(|ev| match ev {
                    TraceEvent::TxStart { slot, .. } => Some(*slot),
                    _ => None,
                })
                .max()
                .unwrap();
            let gap = rmm_sim::max_idle_gap(events, first, last + 1);
            assert!(
                gap < u64::from(timing.difs),
                "n={n} seed={seed}: intra-batch idle gap {gap} ≥ DIFS {}",
                timing.difs
            );
        }
    }
}

/// Checks the slot of every frame, recontention and completion of node
/// 0's one message against the exchange clock, and returns how many
/// frames it checked. The sender's first frame goes out in the slot its
/// contention ends; each later frame, recontention and the completion
/// in the slot where its last frame's response window closed (airtime
/// plus one control slot) or, for a data frame no reply follows at once
/// (`data_awaits_reply` false), where the data left the air. Every reply
/// goes out in the slot after the sender's frame ends.
fn assert_exchange_clock(run: &Run, data_awaits_reply: bool, label: &str) -> usize {
    let window = Slot::from(MacTiming::default().control_slots);
    let (mut due, mut last_end, mut frames) = (None, None, 0);
    for ev in run.engine.trace().unwrap().events() {
        match *ev {
            TraceEvent::ContentionStart { slot, node, .. } if node == nid(0) => {
                // The first contention starts on arrival, not on a clock.
                if due.is_some() {
                    assert_eq!(Some(slot), due, "{label}: recontention");
                }
                due = None;
            }
            TraceEvent::ContentionEnd { slot, node, .. } if node == nid(0) => due = Some(slot),
            TraceEvent::TxStart {
                slot,
                node,
                kind,
                slots,
                ..
            } => {
                frames += 1;
                let end = slot + Slot::from(slots);
                if node == nid(0) {
                    assert_eq!(Some(slot), due, "{label}: the sender's {kind:?}");
                    let answered = kind != FrameKind::Data || data_awaits_reply;
                    due = Some(if answered { end + window } else { end });
                    last_end = Some(end);
                } else {
                    assert_eq!(Some(slot), last_end, "{label}: {kind:?} from {node:?}");
                }
            }
            _ => {}
        }
    }
    let outcome = run.nodes[0].records()[0].outcome;
    let Outcome::Completed(done) = outcome else {
        panic!("{label}: {outcome:?}");
    };
    assert_eq!(Some(done), due, "{label}: completion");
    frames
}

#[test]
fn every_frame_goes_out_in_the_slot_its_exchange_names() {
    use ProtocolKind::*;
    use TrafficKind::{Multicast, Unicast};
    // (protocol, traffic, receivers, whether a reply answers the data at
    // once). BSMA gets one receiver: two CTSs collide, and each receiver
    // then NAKs on its own WAIT_FOR_DATA clock while the sender contends.
    let cases = [
        (Ieee80211, Multicast, 2, false),
        (TangGerla, Multicast, 2, false),
        (Bsma, Multicast, 1, true),
        (Bmw, Multicast, 2, true),
        (Bmmm, Multicast, 2, false),
        (Lamm, Multicast, 2, false),
        (LeaderBased, Multicast, 2, true),
        (BmmmUncoordinated, Multicast, 2, true),
        // DCF, which serves unicast under every protocol.
        (Bmmm, Unicast, 1, true),
    ];
    for (protocol, kind, n, data_awaits_reply) in cases {
        let label = format!("{protocol:?} {kind:?}");
        let clean = run_star(protocol, kind, n, 200, FaultPlan::new());
        assert!(assert_exchange_clock(&clean, data_awaits_reply, &label) > 0);
        // Lose receiver 1's last reply: the sender must act where that
        // reply's window closes. (802.11 has no reply to lose; a BSMA
        // receiver whose CTS is lost NAKs on its own clock.)
        let lost = clean
            .engine
            .trace()
            .unwrap()
            .events()
            .iter()
            .rev()
            .find_map(|ev| match *ev {
                TraceEvent::TxStart { slot, node, .. } if node == nid(1) => Some(slot),
                _ => None,
            });
        let Some(lost) = lost.filter(|_| protocol != Bsma) else {
            continue;
        };
        let faults = FaultPlan::new().mute(nid(1), lost, lost + 1);
        let run = run_star(protocol, kind, n, 400, faults);
        let label = format!("{label}, reply at slot {lost} lost");
        assert!(assert_exchange_clock(&run, data_awaits_reply, &label) > 0);
    }
}

#[test]
fn airtime_split_matches_frame_counters() {
    // The channel's airtime ledger and the node-level frame counters
    // must tell the same story.
    let run = run_single_multicast(ProtocolKind::Bmmm, 3, 120);
    let airtime = run
        .engine
        .channel()
        .ledger()
        .breakdown(run.engine.now())
        .by_kind;
    let mut counters = rmm_mac::FrameKindCounts::default();
    for node in &run.nodes {
        counters.add(&node.counters().sent_by_kind);
    }
    assert_eq!(airtime.rts, counters.rts);
    assert_eq!(airtime.cts, counters.cts);
    assert_eq!(airtime.rak, counters.rak);
    assert_eq!(airtime.ack, counters.ack);
    // Data airtime = data frames × 5 slots.
    assert_eq!(
        airtime.data,
        counters.data * u64::from(MacTiming::default().data_slots)
    );
}

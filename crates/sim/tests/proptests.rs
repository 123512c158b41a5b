//! Property-based tests for the simulator substrate: the wire codec,
//! the grid-built neighbor tables, and the channel's physical invariants
//! under random traffic.

use proptest::prelude::*;
use rmm_geom::Point;
use rmm_sim::{
    crc32, decode_frame, encode_frame, Capture, Ctx, Dest, Engine, Frame, FrameKind, MsgId, NodeId,
    Slot, Station, Topology, Trace, TraceEvent, WireError,
};

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Rts),
        Just(FrameKind::Cts),
        Just(FrameKind::Ack),
        Just(FrameKind::Rak),
        Just(FrameKind::Nak),
        Just(FrameKind::Data),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (arb_kind(), 0u32..100, 0u32..100, 0u32..500, 0u32..1000).prop_map(
        |(kind, src, dst, dur, seq)| {
            let msg = MsgId::new(NodeId(src), seq);
            if kind == FrameKind::Data {
                Frame::data(NodeId(src), Dest::Node(NodeId(dst)), dur, msg, 5)
            } else {
                Frame::control(kind, NodeId(src), Dest::Node(NodeId(dst)), dur, msg)
            }
        },
    )
}

proptest! {
    /// Every frame round-trips through the 802.11 codec with its MAC-read
    /// fields intact.
    #[test]
    fn wire_roundtrip(frame in arb_frame()) {
        let octets = encode_frame(&frame, 50.0, 40);
        let wire = decode_frame(&octets).expect("well-formed frame decodes");
        prop_assert_eq!(wire.kind, frame.kind);
        prop_assert_eq!(u32::from(wire.duration_us), frame.duration * 50);
        prop_assert_eq!(wire.ra.node(), match &frame.dest {
            Dest::Node(n) => Some(*n),
            Dest::Group(_) => None,
        });
        if matches!(frame.kind, FrameKind::Rts | FrameKind::Data) {
            prop_assert_eq!(wire.ta.unwrap().node(), Some(frame.src));
        }
        if frame.kind == FrameKind::Data {
            prop_assert_eq!(wire.seq, Some(frame.msg.seq as u16));
        }
    }

    /// Any single-bit corruption is detected by the FCS (CRC-32 has
    /// Hamming distance ≥ 2 over these lengths).
    #[test]
    fn wire_single_bit_corruption_detected(frame in arb_frame(), pos in 0usize..160, bit in 0u8..8) {
        let mut octets = encode_frame(&frame, 50.0, 10);
        let pos = pos % octets.len();
        octets[pos] ^= 1 << bit;
        prop_assert!(
            decode_frame(&octets).is_err(),
            "flipped bit {bit} of byte {pos} went undetected"
        );
    }

    /// CRC-32 differs for any two distinct short strings we feed it (not
    /// a collision-freeness claim — a regression check that length and
    /// content both matter).
    #[test]
    fn crc_depends_on_content(a in prop::collection::vec(any::<u8>(), 0..64)) {
        let c = crc32(&a);
        let mut b = a.clone();
        b.push(0);
        prop_assert_ne!(c, crc32(&b));
        if !a.is_empty() {
            let mut flipped = a.clone();
            flipped[0] ^= 0x01;
            prop_assert_ne!(c, crc32(&flipped));
        }
    }
}

fn arb_node() -> impl Strategy<Value = NodeId> {
    (0u32..64).prop_map(NodeId)
}

fn arb_msg() -> impl Strategy<Value = MsgId> {
    (0u32..64, 0u32..1000).prop_map(|(n, s)| MsgId::new(NodeId(n), s))
}

fn arb_nodes() -> impl Strategy<Value = Vec<NodeId>> {
    prop::collection::vec(arb_node(), 0..6)
}

/// Every [`TraceEvent`] variant with arbitrary payloads, covering the
/// optional and vector-valued fields the JSONL codec must preserve.
fn arb_event() -> impl Strategy<Value = TraceEvent> {
    let slot = || 0u64..10_000;
    prop_oneof![
        (
            slot(),
            arb_node(),
            arb_kind(),
            prop::bool::ANY,
            arb_node(),
            1u32..40
        )
            .prop_map(
                |(slot, node, kind, unicast, dest, slots)| TraceEvent::TxStart {
                    slot,
                    node,
                    kind,
                    dest: unicast.then_some(dest),
                    msg: MsgId::new(node, slots),
                    slots,
                }
            ),
        (slot(), arb_node(), arb_node(), arb_kind(), prop::bool::ANY).prop_map(
            |(slot, node, from, kind, captured)| TraceEvent::RxOk {
                slot,
                node,
                from,
                kind,
                captured,
            }
        ),
        (slot(), arb_node(), arb_nodes()).prop_map(|(slot, node, senders)| {
            TraceEvent::Collision {
                slot,
                node,
                senders,
            }
        }),
        (slot(), arb_node(), arb_msg(), 1u32..8, 0u32..32).prop_map(
            |(slot, node, msg, attempts, backoff_slots)| TraceEvent::ContentionStart {
                slot,
                node,
                msg,
                attempts,
                backoff_slots,
            }
        ),
        (slot(), arb_node(), arb_msg(), 1u32..8).prop_map(|(slot, node, msg, attempts)| {
            TraceEvent::ContentionEnd {
                slot,
                node,
                msg,
                attempts,
            }
        }),
        (slot(), arb_node(), arb_msg(), 1u32..8, arb_nodes()).prop_map(
            |(slot, node, msg, round, batch)| TraceEvent::BatchStart {
                slot,
                node,
                msg,
                round,
                batch,
            }
        ),
        (
            slot(),
            arb_node(),
            arb_msg(),
            1u32..8,
            arb_nodes(),
            arb_nodes()
        )
            .prop_map(
                |(slot, node, msg, round, batch, acked)| TraceEvent::BatchEnd {
                    slot,
                    node,
                    msg,
                    round,
                    batch,
                    acked,
                }
            ),
        (slot(), arb_node(), arb_msg(), arb_kind(), arb_node()).prop_map(
            |(slot, node, msg, kind, target)| TraceEvent::PollSent {
                slot,
                node,
                msg,
                kind,
                target,
            }
        ),
        (slot(), arb_node(), arb_msg(), arb_node()).prop_map(|(slot, node, msg, target)| {
            TraceEvent::AckMissed {
                slot,
                node,
                msg,
                target,
            }
        }),
        (slot(), arb_node(), arb_msg(), arb_nodes(), arb_nodes()).prop_map(
            |(slot, node, msg, full, cover)| TraceEvent::CoverSetComputed {
                slot,
                node,
                msg,
                full,
                cover,
            }
        ),
        (slot(), arb_node(), arb_msg(), 1u32..8).prop_map(|(slot, node, msg, round)| {
            TraceEvent::Retry {
                slot,
                node,
                msg,
                round,
            }
        }),
        (slot(), arb_node(), arb_msg(), arb_node(), 0u32..8).prop_map(
            |(slot, node, msg, dst, after_retries)| TraceEvent::GiveUp {
                slot,
                node,
                msg,
                dst,
                after_retries,
            }
        ),
        (slot(), arb_node(), arb_msg(), 0u64..20_000).prop_map(|(slot, node, msg, until)| {
            TraceEvent::NavDefer {
                slot,
                node,
                msg,
                until,
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any event stream survives the JSONL export/import round trip
    /// bit-for-bit (the contract `rmm trace` and the profiling export
    /// both rely on).
    #[test]
    fn trace_jsonl_roundtrip(events in prop::collection::vec(arb_event(), 0..40)) {
        let mut trace = Trace::new();
        for ev in &events {
            trace.push(ev.clone());
        }
        let jsonl = trace.to_jsonl();
        let back = Trace::from_jsonl(&jsonl).expect("exported trace parses");
        prop_assert_eq!(back.events(), trace.events());
        // A second round trip is a fixpoint.
        prop_assert_eq!(back.to_jsonl(), jsonl);
    }
}

/// A station that transmits scripted frames and does nothing else.
struct Blaster {
    plan: Vec<(Slot, Frame)>,
    busy_until: Slot,
}

impl Station for Blaster {
    fn on_receive(&mut self, _frame: &Frame, _captured: bool, _ctx: &mut Ctx<'_>) {}
    fn on_slot(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.now < self.busy_until {
            return;
        }
        if let Some(pos) = self.plan.iter().position(|(s, _)| *s <= ctx.now) {
            let (_, frame) = self.plan.remove(pos);
            self.busy_until = ctx.now + u64::from(frame.slots);
            ctx.send(frame);
        }
    }
}

fn arb_positions(n: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), n..=n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Physical invariants under random scripted traffic: receptions only
    /// happen within radio range, never at a station that was itself
    /// transmitting, and with capture disabled never out of a collision.
    #[test]
    fn channel_physics_hold(
        positions in arb_positions(8),
        plans in prop::collection::vec((0u64..40, 0usize..8, 0usize..8, prop::bool::ANY), 0..20),
    ) {
        let pts: Vec<Point> = positions.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let topo = Topology::new(pts, 0.3);
        let mut stations: Vec<Blaster> = (0..8)
            .map(|_| Blaster { plan: Vec::new(), busy_until: 0 })
            .collect();
        for (i, &(slot, src, dst, is_data)) in plans.iter().enumerate() {
            let src = src % 8;
            let dst = dst % 8;
            if src == dst {
                continue;
            }
            let msg = MsgId::new(NodeId(src as u32), i as u32);
            let frame = if is_data {
                Frame::data(NodeId(src as u32), Dest::Node(NodeId(dst as u32)), 0, msg, 5)
            } else {
                Frame::control(
                    FrameKind::Rts,
                    NodeId(src as u32),
                    Dest::Node(NodeId(dst as u32)),
                    0,
                    msg,
                )
            };
            stations[src].plan.push((slot, frame));
        }
        let mut engine = Engine::new(topo.clone(), Capture::None, 99);
        engine.enable_trace();
        engine.run(&mut stations, 80);

        // Reconstruct per-station busy intervals from the trace.
        let events = engine.trace().unwrap().events().to_vec();
        let mut tx_intervals: Vec<(NodeId, Slot, Slot)> = Vec::new();
        for ev in &events {
            if let TraceEvent::TxStart { slot, node, slots, .. } = ev {
                tx_intervals.push((*node, *slot, slot + u64::from(*slots)));
            }
        }
        for ev in &events {
            if let TraceEvent::RxOk { slot, node, from, .. } = ev {
                // 1. In range.
                prop_assert!(
                    topo.in_range(*node, *from),
                    "{node} decoded a frame from out-of-range {from}"
                );
                // 2. Half duplex: the receiver had no tx overlapping the
                // frame (the frame ended at `slot`; find its interval).
                let frame_iv = tx_intervals
                    .iter()
                    .find(|(n, _, end)| n == from && *end == *slot)
                    .expect("reception has a matching transmission");
                for (n, start, end) in &tx_intervals {
                    if n == node {
                        prop_assert!(
                            *end <= frame_iv.1 || *start >= frame_iv.2,
                            "{node} decoded while transmitting"
                        );
                    }
                }
                // 3. No capture: no other audible transmission overlapped.
                for (n, start, end) in &tx_intervals {
                    if n != from && n != node && topo.in_range(*node, *n) {
                        prop_assert!(
                            *end <= frame_iv.1 || *start >= frame_iv.2,
                            "{node} decoded {from} despite overlap from {n} with Capture::None"
                        );
                    }
                }
            }
        }
    }

    /// The engine is deterministic: identical seeds and scripts produce
    /// identical traces.
    #[test]
    fn engine_is_deterministic(
        positions in arb_positions(6),
        seed in 0u64..1000,
    ) {
        let pts: Vec<Point> = positions.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let run = |seed: u64| {
            let topo = Topology::new(pts.clone(), 0.25);
            let mut stations: Vec<Blaster> = (0..6)
                .map(|i| Blaster {
                    plan: vec![(
                        u64::from(i) * 3,
                        Frame::control(
                            FrameKind::Rts,
                            NodeId(i),
                            Dest::Node(NodeId((i + 1) % 6)),
                            0,
                            MsgId::new(NodeId(i), 0),
                        ),
                    )],
                    busy_until: 0,
                })
                .collect();
            let mut engine = Engine::new(topo, Capture::ZorziRao, seed);
            engine.enable_trace();
            engine.run(&mut stations, 40);
            engine.trace().unwrap().events().to_vec()
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

/// The O(N²) pair scan the grid in `Topology::new` replaced, kept as its
/// oracle: every unordered pair tested once with `Point::within`, so
/// each list comes out in ascending station order.
fn pair_scan(positions: &[Point], radius: f64) -> Vec<Vec<NodeId>> {
    let n = positions.len();
    let mut neighbors = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if positions[i].within(&positions[j], radius) {
                neighbors[i].push(NodeId(j as u32));
                neighbors[j].push(NodeId(i as u32));
            }
        }
    }
    neighbors
}

fn grid_lists(positions: &[Point], radius: f64) -> Vec<Vec<NodeId>> {
    let topo = Topology::new(positions.to_vec(), radius);
    (0..positions.len())
        .map(|i| topo.neighbors(NodeId(i as u32)).to_vec())
        .collect()
}

/// Random point sets for the topology oracle, in four shapes (uniform
/// scatter, a collinear run, three locations repeated, and a lattice
/// whose spacing is the radius, so many pairs sit at exactly the
/// radius), then scaled over six decades and shifted so coordinates go
/// negative. The radius runs from a thousandth of the extent to three
/// times it.
fn arb_layout() -> impl Strategy<Value = (Vec<Point>, f64)> {
    (
        0u8..4,
        prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..80),
        -3.0f64..3.0,
        -1.0f64..1.0,
        -3.0f64..0.5,
    )
        .prop_map(|(shape, raw, log_scale, shift, log_radius)| {
            let scale = 10f64.powf(log_scale);
            let radius = scale * 10f64.powf(log_radius);
            let side = (raw.len() as f64).sqrt().ceil() as usize;
            let points = raw
                .iter()
                .enumerate()
                .map(|(i, &(x, y))| match shape {
                    0 => Point::new((x + shift) * scale, (y - shift) * scale),
                    1 => Point::new((x + shift) * scale, shift * scale),
                    2 => {
                        let (x, y) = raw[i % 3.min(raw.len())];
                        Point::new((x + shift) * scale, (y + shift) * scale)
                    }
                    _ => Point::new(
                        (i % side) as f64 * radius + shift * scale,
                        (i / side) as f64 * radius - shift * scale,
                    ),
                })
                .collect();
            (points, radius)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The grid-built neighbor tables equal the pair scan's, order
    /// included.
    #[test]
    fn topology_matches_pair_scan((points, radius) in arb_layout()) {
        prop_assert_eq!(grid_lists(&points, radius), pair_scan(&points, radius));
    }
}

/// The edge cases of the grid, each against the pair scan.
#[test]
fn topology_matches_pair_scan_on_edge_cases() {
    let p = Point::new;
    let cases: [(&str, Vec<Point>, f64); 9] = [
        ("single point", vec![p(0.4, 0.6)], 0.2),
        (
            "duplicate points",
            vec![p(0.5, 0.5), p(0.5, 0.5), p(0.1, 0.1), p(0.5, 0.5)],
            0.2,
        ),
        (
            "a pair exactly radius apart",
            vec![p(0.0, 0.0), p(0.2, 0.0)],
            0.2,
        ),
        (
            "exactly radius apart across a cell edge",
            vec![p(0.3, 0.7), p(0.5, 0.7), p(0.3, 0.9), p(0.1, 0.7)],
            0.2,
        ),
        (
            // Rounding lets `within` accept this pair although cells
            // exactly one radius wide would put it two cells apart.
            "in range across two radius-wide cells",
            vec![
                p(-0.6667587653605755, 0.0),
                p(-0.13116517583910933, 0.0),
                p(0.404428413682357, 0.0),
            ],
            0.5355935895214663,
        ),
        (
            "collinear points",
            (0..40).map(|i| p(i as f64 * 0.05, 0.25)).collect(),
            0.1,
        ),
        (
            "radius larger than the extent",
            vec![p(0.1, 0.1), p(0.2, 0.3), p(0.15, 0.2)],
            5.0,
        ),
        (
            "tiny radius over a large extent",
            (0..50)
                .map(|i| p(i as f64 * 1e3, (i % 7) as f64 * 1e3 + 1e-7 * i as f64))
                .chain([p(0.0, 1e-7), p(7e3, 1e-7)])
                .collect(),
            1e-6,
        ),
        (
            "negative coordinates",
            vec![p(-0.5, -0.5), p(-0.35, -0.5), p(-0.2, -0.45), p(0.05, -0.5)],
            0.2,
        ),
    ];
    for (what, points, radius) in cases {
        assert_eq!(
            grid_lists(&points, radius),
            pair_scan(&points, radius),
            "{what}"
        );
    }
    let pair = grid_lists(&[p(0.0, 0.0), p(0.2, 0.0)], 0.2);
    assert_eq!(
        pair,
        vec![vec![NodeId(1)], vec![NodeId(0)]],
        "range is inclusive"
    );
}

#[test]
fn wire_error_variants_are_reachable() {
    assert_eq!(decode_frame(&[1, 2, 3]), Err(WireError::Truncated));
}

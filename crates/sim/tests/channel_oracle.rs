//! Differential oracle for the incremental channel: random topologies
//! and launch schedules driven through both [`Channel`] (incremental
//! interference bookkeeping) and [`ReferenceChannel`] (naive full
//! rescan) with cloned RNG streams, asserting every observable agrees
//! slot by slot — outcomes, RNG position, carrier sense, half-duplex
//! state, occupancy, and the airtime ledger.
//!
//! The driver follows the engine's phase order (resolve and all busy
//! queries for a slot before that slot's launches, prune last): the
//! incremental channel's O(1) carrier watermark is exact only under
//! that ordering, and it is the only ordering the engine ever uses.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rmm_geom::Point;
use rmm_sim::channel::reference::ReferenceChannel;
use rmm_sim::{Capture, Channel, Dest, Frame, FrameKind, MsgId, NodeId, Slot, Topology};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn incremental_channel_matches_naive_reference(
        positions in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 4..16),
        schedule in prop::collection::vec(
            (0u64..80, any::<u8>(), any::<u8>(), any::<u8>()),
            1..60,
        ),
        fer_sel in 0usize..3,
        plain_capture in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let pts: Vec<Point> = positions.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let topo = Topology::new(pts, 0.35);
        let capture = if plain_capture { Capture::None } else { Capture::ZorziRao };
        let fer = [0.0, 0.15, 0.6][fer_sel];

        let mut fast = Channel::new(capture);
        fast.set_fer(fer);
        let mut naive = ReferenceChannel::new(capture);
        naive.set_fer(fer);
        let mut rng_fast = SmallRng::seed_from_u64(seed);
        let mut rng_naive = rng_fast.clone();

        let mut launched = 0u32;
        // Past the last scheduled slot plus the longest frame, both
        // channels must have drained completely.
        for now in 0..96 {
            let out_fast = fast.resolve_ended(now, &topo, &mut rng_fast);
            let out_naive = naive.resolve_ended(now, &topo, &mut rng_naive);
            prop_assert_eq!(&out_fast, &out_naive, "outcome diverged at slot {}", now);
            prop_assert!(rng_fast == rng_naive, "RNG streams diverged at slot {}", now);
            for i in 0..topo.len() {
                let node = NodeId(i as u32);
                prop_assert_eq!(
                    fast.busy_prev_slot(node, now, &topo),
                    naive.busy_prev_slot(node, now, &topo),
                    "carrier sense diverged at node {} slot {}", node, now
                );
                prop_assert_eq!(
                    fast.is_transmitting(node, now),
                    naive.is_transmitting(node, now),
                    "half-duplex state diverged at node {} slot {}", node, now
                );
            }
            prop_assert_eq!(
                fast.any_active(now),
                naive.any_active(now),
                "occupancy diverged at slot {}", now
            );

            for &(t, src_sel, kind_sel, dur) in &schedule {
                if t != now {
                    continue;
                }
                let src = NodeId((src_sel as usize % topo.len()) as u32);
                // Half-duplex: the MAC never launches from a station
                // that still has a frame on the air (this also filters
                // duplicate same-slot schedule entries for one source).
                if fast.is_transmitting(src, now) {
                    continue;
                }
                let neighbors = topo.neighbors(src);
                let dest = if neighbors.is_empty() || kind_sel % 3 == 0 {
                    Dest::Node(NodeId((dur as usize % topo.len()) as u32))
                } else {
                    Dest::group(neighbors.to_vec())
                };
                let msg = MsgId::new(src, launched);
                launched += 1;
                let frame = if kind_sel % 2 == 0 {
                    Frame::control(FrameKind::Rts, src, dest, u32::from(dur % 8), msg)
                } else {
                    Frame::data(src, dest, u32::from(dur % 8), msg, 1 + u32::from(kind_sel % 5))
                };
                fast.begin_tx(frame.clone(), now, &topo);
                naive.begin_tx(frame, now);
            }
            fast.prune(now);
            naive.prune(now);
        }
        prop_assert_eq!(fast.ledger(), naive.ledger(), "airtime ledgers diverged");
        prop_assert!(!fast.any_active(96), "channel failed to drain");
    }
}

/// Receiver 0 at the center of `k` senders: on one ring (equidistant,
/// so only the id tie-break picks the strongest), or nearest-first or
/// nearest-last in launch order. Node `k + 1` hears only the senders on
/// its side.
fn pileup_topology(k: usize, layout: usize) -> Topology {
    let mut pts = vec![Point::new(0.5, 0.5)];
    for i in 0..k {
        let a = i as f64 * std::f64::consts::TAU / k as f64;
        let d = match layout {
            0 => 0.1,
            1 => 0.05 + 0.01 * i as f64,
            _ => 0.16 - 0.01 * i as f64,
        };
        pts.push(Point::new(0.5 + d * a.cos(), 0.5 + d * a.sin()));
    }
    pts.push(Point::new(0.75, 0.5));
    Topology::new(pts, 0.2)
}

/// k = 2…12 CTS frames launched in one slot around one receiver, under
/// ZorziRao capture and FER 0.15 with the shadow crosscheck on: one
/// member of each pile-up judges it at each receiver, and the outcomes
/// and draws must still be the naive reference's, with one collision
/// event per pile-up at the center. Each pile-up is a fresh subset of
/// the k senders, so its strongest member changes from one to the next.
#[test]
fn synchronized_pileups_match_the_reference() {
    use rand::Rng;
    let mut captured = 0;
    for k in 2..=12usize {
        for layout in 0..3 {
            let topo = pileup_topology(k, layout);
            let mut fast = Channel::new(Capture::ZorziRao);
            fast.set_fer(0.15);
            fast.enable_crosscheck();
            let mut naive = ReferenceChannel::new(Capture::ZorziRao);
            naive.set_fer(0.15);
            let mut rng_fast = SmallRng::seed_from_u64((k * 3 + layout) as u64);
            let mut rng_naive = rng_fast.clone();
            let mut schedule = SmallRng::seed_from_u64(!((k * 3 + layout) as u64));
            let mut members = Vec::new();
            for now in 0..300 as Slot {
                let out_fast = fast.resolve_ended(now, &topo, &mut rng_fast);
                let out_naive = naive.resolve_ended(now, &topo, &mut rng_naive);
                assert_eq!(out_fast, out_naive, "k={k} layout {layout} slot {now}");
                assert!(rng_fast == rng_naive, "k={k} layout {layout} slot {now}");
                if now % 2 == 1 {
                    let at_center: Vec<_> = out_fast
                        .collisions
                        .iter()
                        .filter(|c| c.receiver == NodeId(0))
                        .collect();
                    assert_eq!(at_center.len(), 1, "k={k} layout {layout} slot {now}");
                    assert_eq!(at_center[0].senders, members);
                    captured += usize::from(at_center[0].captured.is_some());
                } else {
                    members.clear();
                    while members.len() < 2 {
                        members = (1..=k as u32)
                            .filter(|_| schedule.random::<bool>())
                            .map(NodeId)
                            .collect();
                    }
                    for &src in &members {
                        let msg = MsgId::new(src, now as u32);
                        let cts =
                            Frame::control(FrameKind::Cts, src, Dest::Node(NodeId(0)), 0, msg);
                        fast.begin_tx(cts.clone(), now, &topo);
                        naive.begin_tx(cts, now);
                    }
                }
                fast.prune(now);
                naive.prune(now);
            }
        }
    }
    assert!(captured > 0, "no pile-up was ever captured");
}

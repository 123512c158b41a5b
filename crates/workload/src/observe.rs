//! Run observability: provenance manifests, per-phase wall-clock
//! timings, and metrics derived from a protocol event trace.

use crate::scenario::Scenario;
use rmm_mac::ProtocolKind;
use rmm_sim::{idle_gaps, FrameKind, NodeId, Slot, TraceEvent};
use rmm_stats::MetricsRegistry;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Wall-clock spent in each phase of one run, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Topology sampling, station construction, engine setup.
    pub setup_us: u64,
    /// The slot loop (including traffic generation).
    pub simulate_us: u64,
    /// Record draining and metric assembly.
    pub collect_us: u64,
}

impl PhaseTimings {
    /// Total wall-clock across all phases.
    pub fn total_us(&self) -> u64 {
        self.setup_us + self.simulate_us + self.collect_us
    }
}

/// Provenance for one run: everything needed to reproduce it, plus how
/// long it took. Attached to every [`RunResult`](crate::RunResult).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunManifest {
    /// The full scenario the run executed.
    pub scenario: Scenario,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Seed that produced the run.
    pub seed: u64,
    /// Slots simulated (the scenario's `sim_slots`).
    pub slot_budget: Slot,
    /// Whether event tracing was enabled for the run.
    pub traced: bool,
    /// Wall-clock per runner phase.
    pub wall_clock: PhaseTimings,
}

/// One FSM dwell state: its network-wide total counter, its
/// episode-length histogram, and that histogram's range `[0, hi)` in
/// `bins` bins.
struct Dwell(&'static str, &'static str, f64, usize);

const CONTENTION: Dwell = Dwell("dwell_contention_slots", "dwell_contention", 64.0, 32);
const BATCH: Dwell = Dwell("dwell_batch_slots", "dwell_batch", 128.0, 32);
const ACK_WAIT: Dwell = Dwell("dwell_ack_wait_slots", "dwell_ack_wait", 32.0, 16);
const BACKOFF: Dwell = Dwell("dwell_backoff_slots", "dwell_backoff", 16.0, 16);

impl Dwell {
    fn record(&self, reg: &mut MetricsRegistry, slots: u64) {
        reg.add(self.0, slots);
        reg.histogram_mut(self.1, 0.0, self.2, self.3)
            .record(slots as f64);
    }
}

/// A station's dwell episodes still waiting for their closing event.
#[derive(Default)]
struct Open {
    contention: Option<Slot>,
    batch: Option<Slot>,
    /// The outstanding RAK and its target: at most one per poller in
    /// every protocol here.
    rak: Option<(Slot, NodeId)>,
}

/// Folds a run's event trace and its per-message records into one
/// metrics registry, in one pass over the events.
///
/// Counters: `tx_frames`, `rx_ok`, `collisions`, `contention_starts`,
/// `contention_wins`, `retries`, `nav_defers`, `polls_rts`, `polls_rak`,
/// `acks_missed`, `batches`, `cover_sets`, `give_ups`.
///
/// Histograms: `contention_phases_per_msg`, `batch_len`, `idle_gap`
/// (slots between consecutive transmissions anywhere in the network),
/// `ack_coverage_per_round` (fraction of the polled batch that ACKed).
///
/// FSM dwell, where the senders' slots went while serving messages
/// (BMW's repeated contention shows up as contention dwell, BMMM's
/// serialized RAK/ACK trains as ack-wait dwell): the network-wide
/// totals `dwell_{contention,batch,ack_wait,backoff}_slots` and the
/// episode-length histograms `dwell_{contention,batch,ack_wait,backoff}`,
/// present even when empty. Episodes are matched per station: a
/// `ContentionStart` opens a contention episode closed by the station's
/// next `ContentionEnd`; `BatchStart`/`BatchEnd` likewise; a RAK
/// `PollSent` opens an ack-wait closed by the ACK's `RxOk` at the poller
/// (from the polled target) or by `AckMissed`. Each `ContentionStart`'s
/// backoff draw is one backoff episode. Episodes still open at trace end
/// are dropped (their dwell is unknowable).
pub fn collect_metrics(
    events: &[TraceEvent],
    messages: &[rmm_stats::MessageMetric],
) -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    for d in [CONTENTION, BATCH, ACK_WAIT, BACKOFF] {
        reg.add(d.0, 0);
        reg.histogram_mut(d.1, 0.0, d.2, d.3);
    }
    let mut open: HashMap<NodeId, Open> = HashMap::new();
    for ev in events {
        match ev {
            TraceEvent::TxStart { .. } => reg.inc("tx_frames"),
            TraceEvent::RxOk {
                slot,
                node,
                from,
                kind,
                ..
            } => {
                reg.inc("rx_ok");
                if *kind == FrameKind::Ack {
                    let rak = &mut open.entry(*node).or_default().rak;
                    if let Some((start, _)) = rak.take_if(|r| r.1 == *from) {
                        ACK_WAIT.record(&mut reg, slot.saturating_sub(start));
                    }
                }
            }
            TraceEvent::Collision { .. } => reg.inc("collisions"),
            TraceEvent::ContentionStart {
                slot,
                node,
                backoff_slots,
                ..
            } => {
                reg.inc("contention_starts");
                open.entry(*node).or_default().contention = Some(*slot);
                BACKOFF.record(&mut reg, u64::from(*backoff_slots));
            }
            TraceEvent::ContentionEnd { slot, node, .. } => {
                reg.inc("contention_wins");
                if let Some(start) = open.entry(*node).or_default().contention.take() {
                    CONTENTION.record(&mut reg, slot.saturating_sub(start));
                }
            }
            TraceEvent::Retry { .. } => reg.inc("retries"),
            TraceEvent::NavDefer { .. } => reg.inc("nav_defers"),
            TraceEvent::PollSent {
                slot,
                node,
                kind,
                target,
                ..
            } => {
                if *kind == FrameKind::Rak {
                    reg.inc("polls_rak");
                    open.entry(*node).or_default().rak = Some((*slot, *target));
                } else {
                    reg.inc("polls_rts");
                }
            }
            TraceEvent::AckMissed {
                slot, node, target, ..
            } => {
                reg.inc("acks_missed");
                let rak = &mut open.entry(*node).or_default().rak;
                if let Some((start, _)) = rak.take_if(|r| r.1 == *target) {
                    ACK_WAIT.record(&mut reg, slot.saturating_sub(start));
                }
            }
            TraceEvent::BatchStart {
                slot, node, batch, ..
            } => {
                reg.inc("batches");
                reg.histogram_mut("batch_len", 0.0, 32.0, 32)
                    .record(batch.len() as f64);
                open.entry(*node).or_default().batch = Some(*slot);
            }
            TraceEvent::BatchEnd {
                slot,
                node,
                batch,
                acked,
                ..
            } => {
                if !batch.is_empty() {
                    reg.histogram_mut("ack_coverage_per_round", 0.0, 1.1, 11)
                        .record(acked.len() as f64 / batch.len() as f64);
                }
                if let Some(start) = open.entry(*node).or_default().batch.take() {
                    BATCH.record(&mut reg, slot.saturating_sub(start));
                }
            }
            TraceEvent::CoverSetComputed { .. } => reg.inc("cover_sets"),
            TraceEvent::GiveUp { .. } => reg.inc("give_ups"),
        }
    }
    for gap in idle_gaps(events, 0, Slot::MAX) {
        reg.histogram_mut("idle_gap", 0.0, 16.0, 16)
            .record(gap as f64);
    }
    for m in messages {
        reg.histogram_mut("contention_phases_per_msg", 0.0, 16.0, 16)
            .record(f64::from(m.contention_phases));
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmm_sim::{MsgId, NodeId};

    fn msg() -> MsgId {
        MsgId::new(NodeId(0), 0)
    }

    #[test]
    fn counters_cover_every_event_kind() {
        let m = msg();
        let events = vec![
            TraceEvent::TxStart {
                slot: 0,
                node: NodeId(0),
                kind: FrameKind::Rts,
                dest: Some(NodeId(1)),
                msg: m,
                slots: 1,
            },
            TraceEvent::RxOk {
                slot: 1,
                node: NodeId(1),
                from: NodeId(0),
                kind: FrameKind::Rts,
                captured: false,
            },
            TraceEvent::ContentionStart {
                slot: 0,
                node: NodeId(0),
                msg: m,
                attempts: 1,
                backoff_slots: 3,
            },
            TraceEvent::ContentionEnd {
                slot: 4,
                node: NodeId(0),
                msg: m,
                attempts: 1,
            },
            TraceEvent::PollSent {
                slot: 4,
                node: NodeId(0),
                msg: m,
                kind: FrameKind::Rts,
                target: NodeId(1),
            },
            TraceEvent::PollSent {
                slot: 9,
                node: NodeId(0),
                msg: m,
                kind: FrameKind::Rak,
                target: NodeId(1),
            },
            TraceEvent::BatchStart {
                slot: 4,
                node: NodeId(0),
                msg: m,
                round: 1,
                batch: vec![NodeId(1), NodeId(2)],
            },
            TraceEvent::BatchEnd {
                slot: 12,
                node: NodeId(0),
                msg: m,
                round: 1,
                batch: vec![NodeId(1), NodeId(2)],
                acked: vec![NodeId(1)],
            },
            TraceEvent::AckMissed {
                slot: 12,
                node: NodeId(0),
                msg: m,
                target: NodeId(2),
            },
            TraceEvent::GiveUp {
                slot: 40,
                node: NodeId(0),
                msg: m,
                dst: NodeId(2),
                after_retries: 7,
            },
        ];
        let reg = collect_metrics(&events, &[]);
        assert_eq!(reg.counter("tx_frames"), 1);
        assert_eq!(reg.counter("rx_ok"), 1);
        assert_eq!(reg.counter("contention_starts"), 1);
        assert_eq!(reg.counter("contention_wins"), 1);
        assert_eq!(reg.counter("polls_rts"), 1);
        assert_eq!(reg.counter("polls_rak"), 1);
        assert_eq!(reg.counter("batches"), 1);
        assert_eq!(reg.counter("acks_missed"), 1);
        assert_eq!(reg.counter("give_ups"), 1);
        assert_eq!(reg.histogram("batch_len").unwrap().count(), 1);
        let cov = reg.histogram("ack_coverage_per_round").unwrap();
        assert_eq!(cov.count(), 1);
        // 1 of 2 receivers ACKed → coverage 0.5 lands in bin [0.5, 0.6).
        assert_eq!(cov.bins()[5], 1);
    }

    #[test]
    fn dwell_matches_episodes() {
        let m = msg();
        let events = vec![
            TraceEvent::ContentionStart {
                slot: 10,
                node: NodeId(0),
                msg: m,
                attempts: 1,
                backoff_slots: 3,
            },
            TraceEvent::ContentionEnd {
                slot: 17,
                node: NodeId(0),
                msg: m,
                attempts: 1,
            },
            TraceEvent::BatchStart {
                slot: 17,
                node: NodeId(0),
                msg: m,
                round: 1,
                batch: vec![NodeId(1)],
            },
            TraceEvent::PollSent {
                slot: 25,
                node: NodeId(0),
                msg: m,
                kind: FrameKind::Rak,
                target: NodeId(1),
            },
            TraceEvent::RxOk {
                slot: 27,
                node: NodeId(0),
                from: NodeId(1),
                kind: FrameKind::Ack,
                captured: false,
            },
            TraceEvent::BatchEnd {
                slot: 28,
                node: NodeId(0),
                msg: m,
                round: 1,
                batch: vec![NodeId(1)],
                acked: vec![NodeId(1)],
            },
            // A RAK whose ACK never comes, closed by the miss verdict.
            TraceEvent::PollSent {
                slot: 30,
                node: NodeId(2),
                msg: m,
                kind: FrameKind::Rak,
                target: NodeId(1),
            },
            TraceEvent::AckMissed {
                slot: 34,
                node: NodeId(2),
                msg: m,
                target: NodeId(1),
            },
        ];
        let reg = collect_metrics(&events, &[]);
        assert_eq!(reg.counter("dwell_contention_slots"), 7);
        assert_eq!(reg.counter("dwell_backoff_slots"), 3);
        assert_eq!(reg.counter("dwell_batch_slots"), 11);
        // Station 0 waited 2 slots for its ACK, station 2 waited 4 for
        // the miss verdict: each RAK is closed at its own poller.
        assert_eq!(reg.counter("dwell_ack_wait_slots"), 6);
        // One episode each, in the bin its length falls in.
        for (name, bin) in [
            ("dwell_contention", 3),
            ("dwell_batch", 2),
            ("dwell_backoff", 3),
        ] {
            let h = reg.histogram(name).unwrap();
            assert_eq!((h.count(), h.bins()[bin]), (1, 1), "{name}");
        }
        let ack_wait = reg.histogram("dwell_ack_wait").unwrap();
        assert_eq!(
            (ack_wait.count(), ack_wait.bins()[1], ack_wait.bins()[2]),
            (2, 1, 1)
        );
    }

    #[test]
    fn dwell_drops_unclosed_episodes() {
        let m = msg();
        let events = vec![
            TraceEvent::ContentionStart {
                slot: 5,
                node: NodeId(0),
                msg: m,
                attempts: 1,
                backoff_slots: 2,
            },
            TraceEvent::PollSent {
                slot: 9,
                node: NodeId(0),
                msg: m,
                kind: FrameKind::Rak,
                target: NodeId(1),
            },
            // An ACK from somebody we did not poll must not close the wait.
            TraceEvent::RxOk {
                slot: 11,
                node: NodeId(0),
                from: NodeId(2),
                kind: FrameKind::Ack,
                captured: false,
            },
        ];
        let reg = collect_metrics(&events, &[]);
        assert_eq!(reg.counter("dwell_contention_slots"), 0);
        assert_eq!(reg.counter("dwell_ack_wait_slots"), 0);
        // The backoff draw is still counted: it happened at start.
        assert_eq!(reg.counter("dwell_backoff_slots"), 2);
        assert_eq!(reg.histogram("dwell_contention").unwrap().count(), 0);
        assert_eq!(reg.histogram("dwell_ack_wait").unwrap().count(), 0);
        // Every dwell entry exists even when a run has no episodes.
        let empty = collect_metrics(&[], &[]);
        let counters: Vec<&str> = empty.counters().iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            counters,
            [
                "dwell_ack_wait_slots",
                "dwell_backoff_slots",
                "dwell_batch_slots",
                "dwell_contention_slots"
            ]
        );
        assert_eq!(empty.histograms().len(), 4);
    }

    #[test]
    fn idle_gaps_merge_overlapping_transmissions() {
        let m = msg();
        let tx = |slot: Slot, slots: u32| TraceEvent::TxStart {
            slot,
            node: NodeId(0),
            kind: FrameKind::Data,
            dest: None,
            msg: m,
            slots,
        };
        // [0,10) with [2,3) nested inside, then [12,14): one gap of 2.
        let events = vec![tx(0, 10), tx(2, 1), tx(12, 2)];
        let reg = collect_metrics(&events, &[]);
        let h = reg.histogram("idle_gap").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.bins()[2], 1);
    }
}

//! Event tracing: physical channel events plus MAC protocol-phase
//! events, used for the Figure-2-style timelines, trace export (JSONL)
//! and trace-derived metrics.

use crate::frame::{Dest, Frame, FrameKind};
use crate::ids::{MsgId, NodeId, Slot};
use serde::{Deserialize, Serialize};
use std::any::Any;

/// A recorded simulator event.
///
/// The first three variants are emitted by the engine itself (physical
/// channel activity); the rest are protocol-phase events emitted by the
/// MAC layer through [`Ctx::emit`](crate::engine::Ctx::emit) and only
/// exist when tracing is enabled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A station put a frame on the air.
    TxStart {
        /// Slot at which the transmission starts.
        slot: Slot,
        /// Transmitting station.
        node: NodeId,
        /// Frame type.
        kind: FrameKind,
        /// Addressed station for unicast-addressed frames.
        dest: Option<NodeId>,
        /// Message the frame belongs to.
        msg: MsgId,
        /// Airtime in slots.
        slots: u32,
    },
    /// A station decoded a frame.
    RxOk {
        /// Slot at which the frame ended.
        slot: Slot,
        /// Receiving station.
        node: NodeId,
        /// Transmitting station.
        from: NodeId,
        /// Frame type.
        kind: FrameKind,
        /// Whether the capture effect was needed.
        captured: bool,
    },
    /// Frames collided at a station.
    Collision {
        /// Slot at which the collision resolved.
        slot: Slot,
        /// Station at which the frames collided.
        node: NodeId,
        /// Senders involved.
        senders: Vec<NodeId>,
    },
    /// A sender entered a contention phase (drew a backoff).
    ContentionStart {
        /// Slot of the draw.
        slot: Slot,
        /// Contending station.
        node: NodeId,
        /// Message being served.
        msg: MsgId,
        /// 1-based contention attempt number for this message.
        attempts: u32,
        /// Backoff slots drawn from the contention window.
        backoff_slots: u32,
    },
    /// A sender won its contention phase and may transmit this slot.
    ContentionEnd {
        /// Slot of the access grant.
        slot: Slot,
        /// Station that won access.
        node: NodeId,
        /// Message being served.
        msg: MsgId,
        /// Contention attempts spent on the message so far.
        attempts: u32,
    },
    /// A BMMM/LAMM batch began (the `Batch_Mode_Procedure` entry).
    BatchStart {
        /// Slot of the first RTS.
        slot: Slot,
        /// Batch sender.
        node: NodeId,
        /// Message being served.
        msg: MsgId,
        /// 1-based batch (round) number for this message.
        round: u32,
        /// Receivers polled this batch (`S` for BMMM, `MCS(S)` for LAMM).
        batch: Vec<NodeId>,
    },
    /// A BMMM/LAMM batch ran to the end of its RAK/ACK train.
    BatchEnd {
        /// Slot at which the last ACK window closed.
        slot: Slot,
        /// Batch sender.
        node: NodeId,
        /// Message being served.
        msg: MsgId,
        /// 1-based batch (round) number for this message.
        round: u32,
        /// Receivers polled this batch.
        batch: Vec<NodeId>,
        /// Receivers that ACKed this batch (`S_ACK`).
        acked: Vec<NodeId>,
    },
    /// A serialized poll frame (RTS or RAK) went to one batch receiver.
    PollSent {
        /// Slot of the poll.
        slot: Slot,
        /// Polling sender.
        node: NodeId,
        /// Message being served.
        msg: MsgId,
        /// `Rts` (CTS poll) or `Rak` (ACK poll).
        kind: FrameKind,
        /// Polled receiver.
        target: NodeId,
    },
    /// A polled receiver's ACK window closed without an ACK.
    AckMissed {
        /// Slot at which the window closed.
        slot: Slot,
        /// Polling sender.
        node: NodeId,
        /// Message being served.
        msg: MsgId,
        /// Receiver that did not ACK.
        target: NodeId,
    },
    /// LAMM computed the minimum cover set for a batch (Theorem 3).
    CoverSetComputed {
        /// Slot of the computation.
        slot: Slot,
        /// Batch sender.
        node: NodeId,
        /// Message being served.
        msg: MsgId,
        /// Receivers still requiring service (`S`).
        full: Vec<NodeId>,
        /// The chosen cover set (`MCS(S)`), a subset of `full`.
        cover: Vec<NodeId>,
    },
    /// A sender re-entered contention after a failed attempt (binary
    /// exponential backoff, as opposed to a fresh round's reset window).
    Retry {
        /// Slot of the retry decision.
        slot: Slot,
        /// Retrying station.
        node: NodeId,
        /// Message being retried.
        msg: MsgId,
        /// The upcoming contention attempt number.
        round: u32,
    },
    /// A sender exhausted the per-destination retry budget and pruned
    /// the destination from the message's remaining-set: delivery to
    /// `dst` is abandoned so the rest of the group can finish.
    GiveUp {
        /// Slot of the give-up decision.
        slot: Slot,
        /// Abandoning sender.
        node: NodeId,
        /// Message being served.
        msg: MsgId,
        /// Destination given up on.
        dst: NodeId,
        /// Retries spent on this destination before giving up.
        after_retries: u32,
    },
    /// A station set its NAV from an overheard Duration field.
    NavDefer {
        /// Slot the reserving frame ended.
        slot: Slot,
        /// Deferring station.
        node: NodeId,
        /// Message the reservation belongs to.
        msg: MsgId,
        /// First slot at which this reservation lapses.
        until: Slot,
    },
}

impl TraceEvent {
    /// The slot the event happened in.
    pub fn slot(&self) -> Slot {
        match self {
            TraceEvent::TxStart { slot, .. }
            | TraceEvent::RxOk { slot, .. }
            | TraceEvent::Collision { slot, .. }
            | TraceEvent::ContentionStart { slot, .. }
            | TraceEvent::ContentionEnd { slot, .. }
            | TraceEvent::BatchStart { slot, .. }
            | TraceEvent::BatchEnd { slot, .. }
            | TraceEvent::PollSent { slot, .. }
            | TraceEvent::AckMissed { slot, .. }
            | TraceEvent::CoverSetComputed { slot, .. }
            | TraceEvent::Retry { slot, .. }
            | TraceEvent::GiveUp { slot, .. }
            | TraceEvent::NavDefer { slot, .. } => *slot,
        }
    }

    /// The message the event concerns, when it concerns exactly one.
    pub fn msg(&self) -> Option<MsgId> {
        match self {
            TraceEvent::TxStart { msg, .. }
            | TraceEvent::ContentionStart { msg, .. }
            | TraceEvent::ContentionEnd { msg, .. }
            | TraceEvent::BatchStart { msg, .. }
            | TraceEvent::BatchEnd { msg, .. }
            | TraceEvent::PollSent { msg, .. }
            | TraceEvent::AckMissed { msg, .. }
            | TraceEvent::CoverSetComputed { msg, .. }
            | TraceEvent::Retry { msg, .. }
            | TraceEvent::GiveUp { msg, .. }
            | TraceEvent::NavDefer { msg, .. } => Some(*msg),
            TraceEvent::RxOk { .. } | TraceEvent::Collision { .. } => None,
        }
    }
}

/// Where a forwarding [`Trace`] hands its events.
pub trait TraceSink: Any + Send {
    /// Takes the next event, in emission order.
    fn event(&mut self, ev: TraceEvent);
}

/// An append-only event log: it buffers its events, or forwards each
/// to a [`TraceSink`] as it is pushed and keeps none.
#[derive(Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    sink: Option<Box<dyn TraceSink>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("events", &self.events)
            .field("forwarding", &self.sink.is_some())
            .finish()
    }
}

impl Trace {
    /// Creates an empty buffering trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates a trace that hands every event to `sink` and keeps none.
    pub fn forward(sink: impl TraceSink) -> Self {
        Trace {
            events: Vec::new(),
            sink: Some(Box::new(sink)),
        }
    }

    /// The sink of a forwarding trace, if it is an `S`.
    pub fn into_sink<S: TraceSink>(self) -> Option<S> {
        let sink: Box<dyn Any> = self.sink?;
        sink.downcast().ok().map(|sink| *sink)
    }

    /// Appends an event, or forwards it.
    pub fn push(&mut self, ev: TraceEvent) {
        match &mut self.sink {
            Some(sink) => sink.event(ev),
            None => self.events.push(ev),
        }
    }

    /// All recorded events, in order; none for a forwarding trace.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Records a transmission start.
    pub fn tx_start(&mut self, slot: Slot, frame: &Frame) {
        let dest = match &frame.dest {
            Dest::Node(n) => Some(*n),
            Dest::Group(_) => None,
        };
        self.push(TraceEvent::TxStart {
            slot,
            node: frame.src,
            kind: frame.kind,
            dest,
            msg: frame.msg,
            slots: frame.slots,
        });
    }

    /// Renders the channel activity of the trace as a compact per-slot
    /// timeline string, Figure-2 style: one line per transmission,
    /// decode, or collision. Protocol-phase events are omitted.
    pub fn render_timeline(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ev in &self.events {
            match ev {
                TraceEvent::TxStart {
                    slot,
                    node,
                    kind,
                    dest,
                    slots,
                    ..
                } => {
                    let dest = dest.map(|d| d.to_string()).unwrap_or_else(|| "grp".into());
                    let _ = writeln!(
                        out,
                        "slot {slot:>5}  {node:>4} -> {dest:<4}  {kind:?} ({slots} slot{})",
                        if *slots == 1 { "" } else { "s" }
                    );
                }
                TraceEvent::RxOk {
                    slot,
                    node,
                    from,
                    kind,
                    captured,
                } => {
                    let _ = writeln!(
                        out,
                        "slot {slot:>5}  {node:>4} <- {from:<4}  {kind:?} rx{}",
                        if *captured { " (captured)" } else { "" }
                    );
                }
                TraceEvent::Collision {
                    slot,
                    node,
                    senders,
                } => {
                    let senders = senders
                        .iter()
                        .map(|s| s.to_string())
                        .collect::<Vec<_>>()
                        .join(",");
                    let _ = writeln!(out, "slot {slot:>5}  ** collision at {node} [{senders}]");
                }
                _ => {}
            }
        }
        out
    }

    /// Serializes the trace as JSON Lines: one event object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = Vec::new();
        self.write_jsonl(&mut out)
            .expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("JSON text is UTF-8")
    }

    /// Streams the trace as JSON Lines into `w`, each event written
    /// straight into one reused line buffer.
    pub fn write_jsonl<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        let mut line = String::new();
        for ev in &self.events {
            line.clear();
            ev.write_json(&mut line);
            line.push('\n');
            w.write_all(line.as_bytes())?;
        }
        Ok(())
    }

    /// Parses a JSON Lines trace produced by [`Trace::to_jsonl`] /
    /// [`Trace::write_jsonl`]. Blank lines are skipped.
    pub fn from_jsonl(text: &str) -> Result<Trace, serde::Error> {
        let mut events = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            events.push(serde_json::from_str(line)?);
        }
        Ok(Trace { events, sink: None })
    }
}

/// The medium-idle gaps (slots) between consecutive transmissions
/// starting in `[from, to)`, considering every station, in time order:
/// each is the distance from the end of everything already on the air
/// to the next start. Overlapping transmissions leave no gap.
pub fn idle_gaps(events: &[TraceEvent], from: Slot, to: Slot) -> impl Iterator<Item = u64> {
    let mut intervals: Vec<(Slot, Slot)> = events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::TxStart { slot, slots, .. } if (from..to).contains(slot) => {
                Some((*slot, slot + Slot::from(*slots)))
            }
            _ => None,
        })
        .collect();
    intervals.sort_unstable();
    let mut busy_until: Option<Slot> = None;
    intervals.into_iter().filter_map(move |(s, e)| {
        let gap = busy_until.filter(|&until| s > until).map(|until| s - until);
        busy_until = Some(busy_until.map_or(e, |until| until.max(e)));
        gap
    })
}

/// The largest of the [`idle_gaps`] in `[from, to)`; 0 if fewer than
/// two transmissions fall in the window.
///
/// This is the measurement behind the paper's co-existence invariant:
/// inside a BMMM batch the gap never reaches DIFS, so no bystander's
/// backoff can complete.
pub fn max_idle_gap(events: &[TraceEvent], from: Slot, to: Slot) -> u64 {
    idle_gaps(events, from, to).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    #[test]
    fn trace_records_in_order() {
        let mut tr = Trace::new();
        let f = Frame::control(
            FrameKind::Rts,
            NodeId(0),
            Dest::Node(NodeId(1)),
            0,
            MsgId::new(NodeId(0), 0),
        );
        tr.tx_start(3, &f);
        tr.push(TraceEvent::RxOk {
            slot: 4,
            node: NodeId(1),
            from: NodeId(0),
            kind: FrameKind::Rts,
            captured: false,
        });
        assert_eq!(tr.events().len(), 2);
        assert_eq!(tr.events()[0].slot(), 3);
        assert_eq!(tr.events()[1].slot(), 4);
    }

    #[test]
    fn a_forwarding_trace_hands_each_event_on_and_keeps_none() {
        struct Slots(Vec<Slot>);
        impl TraceSink for Slots {
            fn event(&mut self, ev: TraceEvent) {
                self.0.push(ev.slot());
            }
        }
        let mut tr = Trace::forward(Slots(Vec::new()));
        let f = Frame::control(
            FrameKind::Cts,
            NodeId(1),
            Dest::Node(NodeId(0)),
            0,
            MsgId::new(NodeId(0), 0),
        );
        for slot in [2, 5, 9] {
            tr.tx_start(slot, &f);
        }
        assert!(tr.events().is_empty());
        assert!(Trace::new().into_sink::<Slots>().is_none());
        assert_eq!(tr.into_sink::<Slots>().map(|s| s.0), Some(vec![2, 5, 9]));
    }

    #[test]
    fn idle_gap_measurement() {
        let mut tr = Trace::new();
        let msg = MsgId::new(NodeId(0), 0);
        // Tx at [0,1), [2,3) (gap 1), [10,11) (gap 7).
        for (slot, kind) in [
            (0, FrameKind::Rts),
            (2, FrameKind::Cts),
            (10, FrameKind::Ack),
        ] {
            tr.tx_start(
                slot,
                &Frame::control(kind, NodeId(0), Dest::Node(NodeId(1)), 0, msg),
            );
        }
        assert_eq!(max_idle_gap(tr.events(), 0, 20), 7);
        assert_eq!(max_idle_gap(tr.events(), 0, 9), 1);
        assert_eq!(max_idle_gap(tr.events(), 0, 1), 0);
        assert_eq!(max_idle_gap(&[], 0, 10), 0);
    }

    #[test]
    fn timeline_mentions_frames() {
        let mut tr = Trace::new();
        let f = Frame::data(
            NodeId(2),
            Dest::group(vec![NodeId(3)]),
            0,
            MsgId::new(NodeId(2), 1),
            5,
        );
        tr.tx_start(10, &f);
        let line = tr.render_timeline();
        assert!(line.contains("slot    10"));
        assert!(line.contains("n2"));
        assert!(line.contains("Data"));
        assert!(line.contains("grp"));
        assert!(line.contains("5 slots"));
    }

    #[test]
    fn timeline_renders_collisions_and_decodes() {
        let mut tr = Trace::new();
        tr.push(TraceEvent::RxOk {
            slot: 4,
            node: NodeId(3),
            from: NodeId(2),
            kind: FrameKind::Cts,
            captured: true,
        });
        tr.push(TraceEvent::Collision {
            slot: 7,
            node: NodeId(3),
            senders: vec![NodeId(1), NodeId(2)],
        });
        // A protocol-phase event must not add a timeline line.
        tr.push(TraceEvent::NavDefer {
            slot: 8,
            node: NodeId(4),
            msg: MsgId::new(NodeId(2), 0),
            until: 12,
        });
        let rendered = tr.render_timeline();
        let lines: Vec<&str> = rendered.lines().map(str::trim_end).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("n3 <- n2"));
        assert!(lines[0].contains("Cts rx (captured)"));
        assert_eq!(lines[1], "slot     7  ** collision at n3 [n1,n2]");
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        let msg = MsgId::new(NodeId(0), 7);
        let mut tr = Trace::new();
        for ev in [
            TraceEvent::TxStart {
                slot: 0,
                node: NodeId(0),
                kind: FrameKind::Rts,
                dest: Some(NodeId(1)),
                msg,
                slots: 1,
            },
            TraceEvent::RxOk {
                slot: 1,
                node: NodeId(1),
                from: NodeId(0),
                kind: FrameKind::Rts,
                captured: false,
            },
            TraceEvent::Collision {
                slot: 2,
                node: NodeId(2),
                senders: vec![NodeId(0), NodeId(3)],
            },
            TraceEvent::ContentionStart {
                slot: 3,
                node: NodeId(0),
                msg,
                attempts: 1,
                backoff_slots: 4,
            },
            TraceEvent::ContentionEnd {
                slot: 7,
                node: NodeId(0),
                msg,
                attempts: 1,
            },
            TraceEvent::BatchStart {
                slot: 7,
                node: NodeId(0),
                msg,
                round: 1,
                batch: vec![NodeId(1), NodeId(2)],
            },
            TraceEvent::PollSent {
                slot: 7,
                node: NodeId(0),
                msg,
                kind: FrameKind::Rak,
                target: NodeId(1),
            },
            TraceEvent::AckMissed {
                slot: 9,
                node: NodeId(0),
                msg,
                target: NodeId(2),
            },
            TraceEvent::BatchEnd {
                slot: 9,
                node: NodeId(0),
                msg,
                round: 1,
                batch: vec![NodeId(1), NodeId(2)],
                acked: vec![NodeId(1)],
            },
            TraceEvent::CoverSetComputed {
                slot: 10,
                node: NodeId(0),
                msg,
                full: vec![NodeId(1), NodeId(2)],
                cover: vec![NodeId(1)],
            },
            TraceEvent::Retry {
                slot: 11,
                node: NodeId(0),
                msg,
                round: 2,
            },
            TraceEvent::GiveUp {
                slot: 11,
                node: NodeId(0),
                msg,
                dst: NodeId(2),
                after_retries: 7,
            },
            TraceEvent::NavDefer {
                slot: 11,
                node: NodeId(4),
                msg,
                until: 20,
            },
        ] {
            tr.push(ev);
        }
        let jsonl = tr.to_jsonl();
        assert_eq!(jsonl.lines().count(), tr.events().len());
        let parsed = Trace::from_jsonl(&jsonl).expect("parses back");
        assert_eq!(parsed.events(), tr.events());
        // write_jsonl produces the same bytes as to_jsonl.
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), jsonl);
        // Blank lines are tolerated; garbage is not.
        let padded = format!("\n{jsonl}\n\n");
        assert_eq!(Trace::from_jsonl(&padded).unwrap().events(), tr.events());
        assert!(Trace::from_jsonl("not json\n").is_err());
    }
}

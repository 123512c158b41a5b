//! Per-node accounting: what each sender believes happened to each of its
//! messages, and which data frames each station actually decoded. The
//! cross-run metrics (delivery rate, contention phases, completion time)
//! are assembled from these records by the `rmm-stats` crate.

use crate::request::TrafficKind;
use rmm_sim::{FrameKind, MsgId, NodeId, Slot};
use serde::{Deserialize, Serialize};

/// Transmitted-frame counts broken down by frame kind. Backs the paper's
/// Section 5 claim that LAMM "significantly reduces the number of RTS,
/// CTS, RAK and ACK frames" relative to BMMM.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameKindCounts {
    /// RTS frames.
    pub rts: u64,
    /// CTS frames.
    pub cts: u64,
    /// Data frames.
    pub data: u64,
    /// ACK frames.
    pub ack: u64,
    /// RAK frames (BMMM/LAMM only).
    pub rak: u64,
    /// NAK frames (BSMA only).
    pub nak: u64,
}

impl FrameKindCounts {
    /// Increments the counter for `kind`.
    pub fn bump(&mut self, kind: FrameKind) {
        match kind {
            FrameKind::Rts => self.rts += 1,
            FrameKind::Cts => self.cts += 1,
            FrameKind::Data => self.data += 1,
            FrameKind::Ack => self.ack += 1,
            FrameKind::Rak => self.rak += 1,
            FrameKind::Nak => self.nak += 1,
        }
    }

    /// All control frames (everything but data).
    pub fn control_total(&self) -> u64 {
        self.rts + self.cts + self.ack + self.rak + self.nak
    }

    /// All frames.
    pub fn total(&self) -> u64 {
        self.control_total() + self.data
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &FrameKindCounts) {
        self.rts += other.rts;
        self.cts += other.cts;
        self.data += other.data;
        self.ack += other.ack;
        self.rak += other.rak;
        self.nak += other.nak;
    }
}

/// How a message's service ended, from the sender's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Outcome {
    /// Still queued or in service when the simulation ended.
    Pending,
    /// The protocol considers the transfer complete at the given slot.
    /// For BMW/BMMM/LAMM this implies the protocol's delivery guarantee;
    /// for 802.11/Tang–Gerla/BSMA it merely means the sender is done.
    Completed(Slot),
    /// The service deadline expired before completion.
    TimedOut(Slot),
    /// The protocol gave up (DCF retry limit exceeded).
    Failed(Slot),
}

impl Outcome {
    /// Whether the sender finished the protocol run for this message.
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed(_))
    }
}

/// A sender-side record of one serviced (or abandoned) message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SentRecord {
    /// Message id.
    pub msg: MsgId,
    /// Traffic class.
    pub kind: TrafficKind,
    /// Intended receivers at enqueue time.
    pub intended: Vec<NodeId>,
    /// Arrival slot at the MAC.
    pub arrival: Slot,
    /// Slot at which service (first contention) began, if it did.
    pub started: Option<Slot>,
    /// Final outcome.
    pub outcome: Outcome,
    /// Number of contention phases spent on this message.
    pub contention_phases: u32,
    /// Number of data-frame transmissions.
    pub data_tx: u32,
    /// Number of control-frame transmissions.
    pub control_tx: u32,
    /// Receivers that explicitly ACKed (BMW/BMMM/LAMM).
    pub acked: Vec<NodeId>,
    /// Receivers LAMM deemed served by geometric coverage rather than an
    /// explicit ACK (empty for every other protocol).
    pub assumed_covered: Vec<NodeId>,
    /// Receivers the sender abandoned after exhausting the
    /// per-destination retry budget (`timing.dest_retry_limit`).
    pub gave_up: Vec<NodeId>,
}

impl SentRecord {
    /// Completion latency (completion slot − arrival), if completed.
    pub fn completion_time(&self) -> Option<Slot> {
        match self.outcome {
            Outcome::Completed(at) => Some(at - self.arrival),
            _ => None,
        }
    }

    /// Whether this record is for a multicast or broadcast message (the
    /// population the paper's multicast figures are computed over).
    pub fn is_group(&self) -> bool {
        matches!(self.kind, TrafficKind::Multicast | TrafficKind::Broadcast)
    }
}

/// Running per-node counters, cheap enough to keep always-on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeCounters {
    /// Transmitted frames by kind (their `total()` is every frame this
    /// station put on the air).
    pub sent_by_kind: FrameKindCounts,
    /// Frames this station decoded.
    pub frames_received: u64,
    /// Data frames decoded (including overheard ones).
    pub data_received: u64,
    /// Times the station entered a contention phase.
    pub contention_phases: u64,
    /// Responses suppressed because the station was in yield state.
    pub yield_suppressions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(outcome: Outcome) -> SentRecord {
        SentRecord {
            msg: MsgId::new(NodeId(0), 0),
            kind: TrafficKind::Multicast,
            intended: vec![NodeId(1)],
            arrival: 10,
            started: Some(12),
            outcome,
            contention_phases: 2,
            data_tx: 1,
            control_tx: 4,
            acked: vec![NodeId(1)],
            assumed_covered: vec![],
            gave_up: vec![],
        }
    }

    #[test]
    fn completion_time_only_for_completed() {
        assert_eq!(record(Outcome::Completed(40)).completion_time(), Some(30));
        assert_eq!(record(Outcome::TimedOut(110)).completion_time(), None);
        assert_eq!(record(Outcome::Failed(50)).completion_time(), None);
        assert_eq!(record(Outcome::Pending).completion_time(), None);
    }

    #[test]
    fn group_classification() {
        let mut r = record(Outcome::Pending);
        assert!(r.is_group());
        r.kind = TrafficKind::Broadcast;
        assert!(r.is_group());
        r.kind = TrafficKind::Unicast;
        assert!(!r.is_group());
    }

    #[test]
    fn outcome_completed_predicate() {
        assert!(Outcome::Completed(5).is_completed());
        assert!(!Outcome::TimedOut(5).is_completed());
        assert!(!Outcome::Pending.is_completed());
    }
}

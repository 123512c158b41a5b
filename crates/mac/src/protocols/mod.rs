//! The multicast MAC protocol suite.
//!
//! Each protocol's *sender side* is a small finite-state machine driven by
//! the owning [`crate::node::MacNode`]:
//!
//! * [`Fsm::on_access`] — the contention phase was just won; transmit.
//! * [`Fsm::on_slot`] — the pending exchange's deadline arrived: its
//!   response window closed or its airtime ended.
//! * [`Fsm::on_frame`] — a sender-relevant frame (CTS/ACK/NAK) addressed
//!   to this station was decoded.
//!
//! Each callback returns a [`Flow`] telling the node what to do next.
//! Every frame a sender puts on the air opens an exchange whose deadline
//! it hands back as [`Flow::Await`]; the node keeps that slot and calls
//! [`Fsm::on_slot`] when it arrives, so no FSM keeps a clock of its own.
//! Receiver-side behaviour (CTS/ACK/NAK replies, NAV) is shared and lives
//! in the node itself.

pub mod bmmm;
pub mod bmmm_uncoordinated;
pub mod bmw;
pub mod bsma;
pub mod dcf;
pub mod leader;
pub mod plain;
pub mod tang_gerla;

use crate::node::NodeCore;
use crate::request::Request;
use crate::timing::MacTiming;
use rmm_sim::{Ctx, Dest, Frame, FrameInfo, FrameKind, NodeId, Slot, TraceEvent};
use serde::{Deserialize, Serialize};

pub use bmmm::BmmmFsm;
pub use bmmm_uncoordinated::BmmmUncoordFsm;
pub use bmw::BmwFsm;
pub use bsma::BsmaFsm;
pub use dcf::DcfFsm;
pub use leader::LeaderFsm;
pub use plain::PlainFsm;
pub use tang_gerla::TangFsm;

/// Which multicast MAC protocol a station runs for its multicast and
/// broadcast traffic (unicast always uses DCF).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Plain IEEE 802.11 multicast: contend, transmit the data frame,
    /// done. No RTS/CTS, no recovery.
    Ieee80211,
    /// Tang–Gerla MILCOM'00 \[19\]: multicast RTS, simultaneous CTS replies
    /// (colliding; DS capture may rescue one), then the data frame.
    TangGerla,
    /// BSMA \[20\]: Tang–Gerla plus a NAK window after the data frame.
    Bsma,
    /// BMW \[21\]: one reliable DCF unicast round per intended receiver,
    /// each with its own contention phase.
    Bmw,
    /// Batch Mode Multicast MAC (this paper): one contention phase, then
    /// serialized RTS/CTS polling, the data frame, and serialized RAK/ACK
    /// collection.
    Bmmm,
    /// Location Aware Multicast MAC (this paper): BMMM polling only a
    /// minimum cover set, with geometric coverage closing the rest.
    Lamm,
    /// Leader-based reliable multicast in the style of Kuri–Kasera \[13\]:
    /// one receiver CTSs and ACKs for the group; the others jam the ACK
    /// with a NAK when they miss the data.
    LeaderBased,
    /// Ablation: BMMM with the RAK train removed — receivers ACK the data
    /// frame simultaneously and their ACKs collide, demonstrating why the
    /// paper introduces the RAK coordination.
    BmmmUncoordinated,
}

impl ProtocolKind {
    /// All protocols, in the order the paper's figures list them, plus
    /// the leader-based related-work baseline.
    pub const ALL: [ProtocolKind; 7] = [
        ProtocolKind::Ieee80211,
        ProtocolKind::TangGerla,
        ProtocolKind::Bsma,
        ProtocolKind::Bmw,
        ProtocolKind::Bmmm,
        ProtocolKind::Lamm,
        ProtocolKind::LeaderBased,
    ];

    /// Every implemented protocol, including the BMMM-U ablation that
    /// [`ProtocolKind::ALL`] (the paper's figure list) leaves out.
    pub const EVERY: [ProtocolKind; 8] = [
        ProtocolKind::Ieee80211,
        ProtocolKind::TangGerla,
        ProtocolKind::Bsma,
        ProtocolKind::Bmw,
        ProtocolKind::Bmmm,
        ProtocolKind::Lamm,
        ProtocolKind::LeaderBased,
        ProtocolKind::BmmmUncoordinated,
    ];

    /// Parses a protocol name: case-insensitive display names
    /// ([`ProtocolKind::name`]) plus the CLI aliases.
    pub fn parse(name: &str) -> Option<ProtocolKind> {
        match name.to_ascii_lowercase().as_str() {
            "802.11" | "80211" | "ieee80211" | "plain" => Some(ProtocolKind::Ieee80211),
            "tg" | "tg-rts" | "tang-gerla" | "tanggerla" => Some(ProtocolKind::TangGerla),
            "bsma" => Some(ProtocolKind::Bsma),
            "bmw" => Some(ProtocolKind::Bmw),
            "bmmm" => Some(ProtocolKind::Bmmm),
            "lamm" => Some(ProtocolKind::Lamm),
            "leader" | "leader-based" | "kk" => Some(ProtocolKind::LeaderBased),
            "uncoord" | "bmmm-u" | "bmmm-uncoord" | "bmmm-uncoordinated" => {
                Some(ProtocolKind::BmmmUncoordinated)
            }
            _ => None,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Ieee80211 => "802.11",
            ProtocolKind::TangGerla => "TG-RTS",
            ProtocolKind::Bsma => "BSMA",
            ProtocolKind::Bmw => "BMW",
            ProtocolKind::Bmmm => "BMMM",
            ProtocolKind::Lamm => "LAMM",
            ProtocolKind::LeaderBased => "Leader",
            ProtocolKind::BmmmUncoordinated => "BMMM-U",
        }
    }

    /// Whether completion implies every intended receiver provably got
    /// the data (the paper's notion of a *reliable* multicast MAC).
    pub fn is_reliable(&self) -> bool {
        matches!(
            self,
            ProtocolKind::Bmw | ProtocolKind::Bmmm | ProtocolKind::Lamm
        )
    }
}

/// What the owning node should do after an FSM callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep going; the pending exchange's deadline stands.
    Continue,
    /// A frame went on the air: call [`Fsm::on_slot`] at this slot, where
    /// its response window closes or its airtime ends.
    Await(Slot),
    /// Enter a new contention phase. `reset_cw` distinguishes a *new
    /// round* (e.g. the next BMW target or BMMM batch — fresh window)
    /// from a *retry* after failure (binary exponential backoff).
    Recontend {
        /// Reset the contention window to `cw_min` instead of doubling.
        reset_cw: bool,
    },
    /// The message is served; record success.
    Complete,
    /// The protocol gave up on the message (DCF retry limit).
    Abort,
}

/// Everything an FSM callback may touch: the shared node state, the
/// engine context, the request being served, and the per-message frame
/// counters.
pub struct Env<'a, 'b> {
    /// Shared node state (identity, timing, geometry, received set, …).
    pub core: &'a mut NodeCore,
    /// Engine slot context.
    pub ctx: &'a mut Ctx<'b>,
    /// The request being served.
    pub req: &'a Request,
    /// Data frames sent for this message (incremented by [`Env::send`]).
    pub data_tx: &'a mut u32,
    /// Control frames sent for this message.
    pub control_tx: &'a mut u32,
}

impl Env<'_, '_> {
    /// Current slot.
    pub fn now(&self) -> Slot {
        self.ctx.now
    }

    /// MAC timing parameters.
    pub fn timing(&self) -> MacTiming {
        self.core.timing
    }

    /// Puts a frame for the current message on the air, with node-level
    /// bookkeeping.
    pub fn send(&mut self, frame: Frame) {
        debug_assert!(
            self.core.tx_until <= self.ctx.now,
            "FSM of {} scheduled a send while already transmitting",
            self.core.id
        );
        if frame.kind == FrameKind::Data {
            *self.data_tx += 1;
        } else {
            *self.control_tx += 1;
        }
        self.core.transmit(self.ctx, frame);
    }

    /// Builds and sends a 1-slot control frame for the current message.
    pub fn send_control(&mut self, kind: FrameKind, dest: Dest, duration: u32) {
        let frame = Frame {
            kind,
            src: self.core.id,
            dest,
            duration,
            msg: self.req.msg,
            slots: self.core.timing.control_slots,
            info: FrameInfo::None,
        };
        self.send(frame);
    }

    /// Builds and sends the data frame for the current message.
    pub fn send_data(&mut self, dest: Dest, duration: u32) {
        let frame = Frame::data(
            self.core.id,
            dest,
            duration,
            self.req.msg,
            self.core.timing.data_slots,
        );
        self.send(frame);
    }

    /// Slot at which a 1-control-slot response to a frame of airtime
    /// `sent_slots` sent *now* will have been delivered.
    pub fn response_deadline(&self, sent_slots: u32) -> Slot {
        self.ctx.now + self.core.timing.response_delivered_after(sent_slots)
    }

    /// Emits a protocol-phase trace event; a no-op branch unless the
    /// engine is tracing (the closure never runs then).
    #[inline]
    pub fn emit<F: FnOnce() -> TraceEvent>(&mut self, f: F) {
        self.ctx.emit(f);
    }
}

/// The per-destination retry budget every reliable sender charges (BMW,
/// BMMM, LAMM, BMMM-U and the leader scheme): every exchange or batch a
/// receiver is served in without confirming is one failed round, and a
/// receiver that reaches `timing.dest_retry_limit` failed rounds is given
/// up on, so one dead receiver costs a bounded number of rounds.
#[derive(Debug, Default)]
pub(crate) struct RetryBudget {
    /// Failed rounds charged to each receiver so far.
    misses: Vec<(NodeId, u32)>,
    /// Receivers abandoned after exhausting their budget, in order.
    gave_up: Vec<NodeId>,
}

impl RetryBudget {
    /// Receivers abandoned after exhausting their budget.
    pub(crate) fn gave_up(&self) -> &[NodeId] {
        &self.gave_up
    }

    /// Charges one failed round to `dst`. Returns whether that exhausted
    /// its budget, in which case `dst` is traced and recorded as given
    /// up on.
    pub(crate) fn charge(&mut self, dst: NodeId, env: &mut Env<'_, '_>) -> bool {
        let count = match self.misses.iter_mut().find(|(n, _)| *n == dst) {
            Some((_, c)) => {
                *c += 1;
                *c
            }
            None => {
                self.misses.push((dst, 1));
                1
            }
        };
        if count < env.core.timing.dest_retry_limit {
            return false;
        }
        let (slot, node, msg) = (env.now(), env.core.id, env.req.msg);
        env.emit(|| TraceEvent::GiveUp {
            slot,
            node,
            msg,
            dst,
            after_retries: count,
        });
        self.gave_up.push(dst);
        true
    }

    /// Charges one failed round to every receiver still in `remaining`
    /// and drops the exhausted ones from it.
    pub(crate) fn prune_exhausted(&mut self, remaining: &mut Vec<NodeId>, env: &mut Env<'_, '_>) {
        remaining.retain(|&dst| !self.charge(dst, env));
    }

    /// A wholly silent poll train is a failed round for every receiver
    /// of `batch` still in `remaining`: charge them and drop the
    /// exhausted ones, so a batch of dead receivers cannot stall the
    /// message until the node-level retry ceiling kills it. Returns
    /// whether any receiver was given up on.
    pub(crate) fn charge_silent_batch(
        &mut self,
        batch: &[NodeId],
        remaining: &mut Vec<NodeId>,
        env: &mut Env<'_, '_>,
    ) -> bool {
        let before = self.gave_up.len();
        for &dst in batch {
            if remaining.contains(&dst) && self.charge(dst, env) {
                remaining.retain(|n| *n != dst);
            }
        }
        self.gave_up.len() > before
    }
}

/// A protocol sender state machine (enum dispatch keeps the hot path
/// monomorphic).
#[derive(Debug)]
pub enum Fsm {
    /// DCF unicast.
    Dcf(DcfFsm),
    /// Plain 802.11 multicast.
    Plain(PlainFsm),
    /// Tang–Gerla multicast RTS.
    Tang(TangFsm),
    /// BSMA.
    Bsma(BsmaFsm),
    /// BMW.
    Bmw(BmwFsm),
    /// BMMM / LAMM.
    Bmmm(BmmmFsm),
    /// Leader-based (Kuri–Kasera style).
    Leader(LeaderFsm),
    /// BMMM without RAK coordination (ablation).
    BmmmUncoord(BmmmUncoordFsm),
}

impl Fsm {
    /// Builds the sender FSM for `req` under `protocol`. Unicast requests
    /// always get DCF.
    pub fn for_request(protocol: ProtocolKind, req: &Request) -> Fsm {
        use crate::request::TrafficKind;
        if req.kind == TrafficKind::Unicast {
            return Fsm::Dcf(DcfFsm::new(req.receivers[0]));
        }
        match protocol {
            ProtocolKind::Ieee80211 => Fsm::Plain(PlainFsm::new()),
            ProtocolKind::TangGerla => Fsm::Tang(TangFsm::new()),
            ProtocolKind::Bsma => Fsm::Bsma(BsmaFsm::new()),
            ProtocolKind::Bmw => Fsm::Bmw(BmwFsm::new(req.receivers.clone())),
            ProtocolKind::Bmmm => Fsm::Bmmm(BmmmFsm::new(req.receivers.clone(), false)),
            ProtocolKind::Lamm => Fsm::Bmmm(BmmmFsm::new(req.receivers.clone(), true)),
            ProtocolKind::LeaderBased => Fsm::Leader(LeaderFsm::new()),
            ProtocolKind::BmmmUncoordinated => {
                Fsm::BmmmUncoord(BmmmUncoordFsm::new(req.receivers.clone()))
            }
        }
    }

    /// Contention won: transmit the first frame of the (next) exchange.
    pub fn on_access(&mut self, env: &mut Env<'_, '_>) -> Flow {
        match self {
            Fsm::Dcf(f) => f.on_access(env),
            Fsm::Plain(f) => f.on_access(env),
            Fsm::Tang(f) => f.on_access(env),
            Fsm::Bsma(f) => f.on_access(env),
            Fsm::Bmw(f) => f.on_access(env),
            Fsm::Bmmm(f) => f.on_access(env),
            Fsm::Leader(f) => f.on_access(env),
            Fsm::BmmmUncoord(f) => f.on_access(env),
        }
    }

    /// The deadline of the pending exchange (the last [`Flow::Await`])
    /// arrived. Every FSM acts here: it sends and awaits again,
    /// recontends or finishes, since a [`Flow::Continue`] would leave
    /// the deadline in the past.
    pub fn on_slot(&mut self, env: &mut Env<'_, '_>) -> Flow {
        match self {
            Fsm::Dcf(f) => f.on_slot(env),
            // The data frame left the air.
            Fsm::Plain(_) => Flow::Complete,
            Fsm::Tang(f) => f.on_slot(env),
            Fsm::Bsma(f) => f.on_slot(env),
            Fsm::Bmw(f) => f.on_slot(env),
            Fsm::Bmmm(f) => f.on_slot(env),
            Fsm::Leader(f) => f.on_slot(env),
            Fsm::BmmmUncoord(f) => f.on_slot(env),
        }
    }

    /// A CTS/ACK/NAK addressed to this station was decoded.
    pub fn on_frame(&mut self, frame: &Frame, env: &mut Env<'_, '_>) -> Flow {
        match self {
            Fsm::Dcf(f) => f.on_frame(frame, env),
            Fsm::Plain(_) => Flow::Continue,
            Fsm::Tang(f) => f.on_frame(frame, env),
            Fsm::Bsma(f) => f.on_frame(frame, env),
            Fsm::Bmw(f) => f.on_frame(frame, env),
            Fsm::Bmmm(f) => f.on_frame(frame, env),
            Fsm::Leader(f) => f.on_frame(frame, env),
            Fsm::BmmmUncoord(f) => f.on_frame(frame, env),
        }
    }

    /// Receivers that explicitly confirmed the message so far.
    pub fn acked(&self) -> &[NodeId] {
        match self {
            Fsm::Dcf(f) => f.acked(),
            Fsm::Plain(_) | Fsm::Tang(_) | Fsm::Bsma(_) => &[],
            Fsm::Bmw(f) => f.acked(),
            Fsm::Bmmm(f) => f.acked(),
            Fsm::Leader(f) => f.acked(),
            Fsm::BmmmUncoord(f) => f.acked(),
        }
    }

    /// Receivers served by geometric coverage (LAMM only).
    pub fn assumed_covered(&self) -> &[NodeId] {
        match self {
            Fsm::Bmmm(f) => f.assumed_covered(),
            _ => &[],
        }
    }

    /// Receivers abandoned after exhausting the per-destination retry
    /// budget (`timing.dest_retry_limit`). Empty for protocols without
    /// per-receiver service state (802.11, Tang–Gerla, BSMA, DCF) —
    /// those are bounded by the node-level retry ceiling instead.
    pub fn gave_up(&self) -> &[NodeId] {
        match self {
            Fsm::Bmw(f) => f.gave_up(),
            Fsm::Bmmm(f) => f.gave_up(),
            Fsm::Leader(f) => f.gave_up(),
            Fsm::BmmmUncoord(f) => f.gave_up(),
            Fsm::Dcf(_) | Fsm::Plain(_) | Fsm::Tang(_) | Fsm::Bsma(_) => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_display_name_parses_back() {
        for p in ProtocolKind::EVERY {
            assert_eq!(ProtocolKind::parse(p.name()), Some(p), "{}", p.name());
        }
        assert_eq!(ProtocolKind::parse("kk"), Some(ProtocolKind::LeaderBased));
        assert_eq!(
            ProtocolKind::parse("uncoord"),
            Some(ProtocolKind::BmmmUncoordinated)
        );
        assert_eq!(ProtocolKind::parse("nope"), None);
    }
}

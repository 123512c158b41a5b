//! BMW \[21\] — *Broadcast Medium Window*: "treat each broadcast request as
//! multiple unicast requests", each processed with the reliable DCF
//! RTS/CTS/DATA/ACK exchange. Reliable, but it costs at least `n`
//! contention phases per message (the inefficiency BMMM removes).
//!
//! Receiver-buffer mechanics: the RTS carries the message's sequence
//! number; a receiver that already holds the message (typically by
//! overhearing an earlier round to a sibling) answers with a CTS whose
//! `have` flag suppresses the redundant data transmission.

use super::{Env, Flow, RetryBudget};
use rmm_sim::{Dest, Frame, FrameInfo, FrameKind, NodeId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// RTS to the current target sent; waiting for its CTS.
    AwaitCts,
    /// DATA to the current target sent; waiting for its ACK.
    AwaitAck,
}

/// BMW multicast sender.
#[derive(Debug)]
pub struct BmwFsm {
    /// Targets not yet served, front first (the paper's NEIGHBOR-list
    /// order).
    pending: Vec<NodeId>,
    phase: Phase,
    /// Failed exchanges per target. Only the front target is ever
    /// charged, so its count is its run of failed exchanges.
    budget: RetryBudget,
}

impl BmwFsm {
    /// New sender serving `receivers` in order.
    pub fn new(receivers: Vec<NodeId>) -> Self {
        BmwFsm {
            pending: receivers,
            phase: Phase::AwaitCts,
            budget: RetryBudget::default(),
        }
    }

    fn target(&self) -> Option<NodeId> {
        self.pending.first().copied()
    }

    /// Mark the current target served (an ACK or a have-flagged CTS);
    /// move to the next (with a fresh contention phase) or finish.
    fn advance(&mut self, env: &mut Env<'_, '_>) -> Flow {
        env.acked.push(self.pending.remove(0));
        self.next_target()
    }

    fn next_target(&self) -> Flow {
        if self.pending.is_empty() {
            Flow::Complete
        } else {
            Flow::Recontend { reset_cw: true }
        }
    }

    pub(super) fn on_access(&mut self, env: &mut Env<'_, '_>) -> Flow {
        let Some(target) = self.target() else {
            return Flow::Complete; // degenerate: no receivers
        };
        let t = env.timing();
        env.send_control(FrameKind::Rts, Dest::Node(target), t.dcf_rts_duration());
        self.phase = Phase::AwaitCts;
        Flow::Await(env.response_deadline(t.control_slots))
    }

    pub(super) fn on_slot(&mut self, env: &mut Env<'_, '_>) -> Flow {
        // CTS or ACK missing: back off and retry the same target, until
        // its per-destination budget runs out — then abandon it (without
        // marking it served) and move on so one dead receiver cannot
        // monopolize the message.
        if !self.budget.charge(self.pending[0], env) {
            return Flow::Recontend { reset_cw: false };
        }
        self.pending.remove(0);
        self.next_target()
    }

    pub(super) fn on_frame(&mut self, frame: &Frame, env: &mut Env<'_, '_>) -> Flow {
        let Some(target) = self.target() else {
            return Flow::Continue;
        };
        if frame.src != target || frame.msg != env.req.msg {
            return Flow::Continue;
        }
        match (self.phase, frame.kind) {
            (Phase::AwaitCts, FrameKind::Cts) => {
                if matches!(frame.info, FrameInfo::BmwCts { have: true }) {
                    // Receiver already holds the message: skip the data.
                    self.advance(env)
                } else {
                    let t = env.timing();
                    env.send_data(Dest::Node(target), t.control_slots);
                    self.phase = Phase::AwaitAck;
                    Flow::Await(env.response_deadline(t.data_slots))
                }
            }
            (Phase::AwaitAck, FrameKind::Ack) => self.advance(env),
            _ => Flow::Continue,
        }
    }
}

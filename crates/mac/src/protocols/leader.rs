//! Leader-based reliable multicast in the style of Kuri & Kasera
//! (reference \[13\] of the paper, *"Reliable Multicast in Multi-Access
//! Wireless LANs"*): one designated receiver — the *leader* — speaks for
//! the group.
//!
//! * The sender's multicast RTS is answered by a CTS from the leader
//!   only (no CTS pile-up, unlike Tang–Gerla/BSMA).
//! * After the data frame the leader returns an ACK; a non-leader that
//!   took part in the exchange but missed the data transmits a NAK *in
//!   the ACK slot*, deliberately colliding with (jamming) the leader's
//!   ACK. The sender treats a missing/garbled ACK as failure and
//!   retransmits.
//!
//! The scheme is one contention phase per attempt like BMMM, but its
//! guarantee is weaker: only receivers that heard the RTS can jam, so a
//! receiver that missed the RTS entirely (yielding, collision) is
//! unprotected — and the sender never learns per-receiver state. The
//! leader is the first receiver in the request's list.

use super::{Env, Flow, RetryBudget};
use rmm_sim::{Dest, Frame, FrameKind, NodeId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Multicast RTS sent; waiting for the leader's CTS.
    AwaitCts,
    /// Data sent; waiting for the leader's ACK (or its jam).
    AwaitAck,
}

/// Leader-based multicast sender.
#[derive(Debug)]
pub struct LeaderFsm {
    phase: Phase,
    cts_ok: bool,
    ack_ok: bool,
    /// Failed attempts per leader. A leader that reaches
    /// `timing.dest_retry_limit` of them is demoted ([`Env::gave_up`]):
    /// a dead leader would otherwise wedge the whole group, and demoting
    /// it rotates leadership to the next receiver in list order. Only
    /// the current leader is ever charged.
    budget: RetryBudget,
}

impl LeaderFsm {
    /// New sender; the leader is `receivers\[0\]` by convention.
    pub fn new() -> Self {
        LeaderFsm {
            phase: Phase::AwaitCts,
            cts_ok: false,
            ack_ok: false,
            budget: RetryBudget::default(),
        }
    }

    /// The leader of a receiver list.
    pub fn leader(receivers: &[NodeId]) -> Option<NodeId> {
        receivers.first().copied()
    }

    /// The request's receiver list minus demoted leaders, order
    /// preserved. The front element is the current leader — receivers
    /// apply the same `first()` convention to the group list carried by
    /// each frame, so rotation needs no extra signalling.
    fn group(env: &Env<'_, '_>) -> Vec<NodeId> {
        env.req
            .receivers
            .iter()
            .copied()
            .filter(|n| !env.gave_up.contains(n))
            .collect()
    }

    /// One more failed attempt under the current leader: retry, or — once
    /// the per-destination budget is spent — demote it and rotate. An
    /// exchange is only ever opened with a leader, so the group is not
    /// empty here.
    fn fail_attempt(&mut self, env: &mut Env<'_, '_>) -> Flow {
        let group = Self::group(env);
        if !self.budget.charge(group[0], env) {
            return Flow::Recontend { reset_cw: false };
        }
        if group.len() <= 1 {
            // No receiver left to lead: the message is undeliverable.
            Flow::Abort
        } else {
            Flow::Recontend { reset_cw: true }
        }
    }

    pub(super) fn on_access(&mut self, env: &mut Env<'_, '_>) -> Flow {
        let group = Self::group(env);
        let Some(_leader) = Self::leader(&group) else {
            return Flow::Complete;
        };
        let t = env.timing();
        self.cts_ok = false;
        self.ack_ok = false;
        env.send_control(FrameKind::Rts, Dest::group(group), t.dcf_rts_duration());
        self.phase = Phase::AwaitCts;
        Flow::Await(env.response_deadline(t.control_slots))
    }

    pub(super) fn on_slot(&mut self, env: &mut Env<'_, '_>) -> Flow {
        match self.phase {
            Phase::AwaitCts if self.cts_ok => {
                let t = env.timing();
                // Duration covers the ACK/jam slot after the data.
                let group = Self::group(env);
                env.send_data(Dest::group(group), t.control_slots);
                self.phase = Phase::AwaitAck;
                Flow::Await(env.response_deadline(t.data_slots))
            }
            Phase::AwaitAck if self.ack_ok => {
                // A clean leader ACK: no receiver jammed it, and the
                // leader confirms for the group.
                let leader = Self::leader(&Self::group(env));
                env.acked.extend(leader);
                Flow::Complete
            }
            // No leader CTS, or a missing or jammed ACK: retransmit
            // everything.
            Phase::AwaitCts | Phase::AwaitAck => self.fail_attempt(env),
        }
    }

    pub(super) fn on_frame(&mut self, frame: &Frame, env: &mut Env<'_, '_>) -> Flow {
        if frame.msg != env.req.msg {
            return Flow::Continue;
        }
        let leader = Self::leader(&Self::group(env));
        match (self.phase, frame.kind) {
            (Phase::AwaitCts, FrameKind::Cts) if Some(frame.src) == leader => {
                self.cts_ok = true;
            }
            (Phase::AwaitAck, FrameKind::Ack) if Some(frame.src) == leader => {
                self.ack_ok = true;
            }
            _ => {}
        }
        Flow::Continue
    }
}

impl Default for LeaderFsm {
    fn default() -> Self {
        LeaderFsm::new()
    }
}

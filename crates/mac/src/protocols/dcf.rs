//! IEEE 802.11 DCF unicast: CSMA/CA + RTS/CTS/DATA/ACK with binary
//! exponential backoff and a retry limit. All protocols in the suite use
//! this machine for the unicast share of the traffic mix.

use super::{Env, Flow};
use rmm_sim::{Dest, Frame, FrameKind, NodeId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// RTS sent; waiting for the CTS.
    AwaitCts,
    /// DATA sent; waiting for the ACK.
    AwaitAck,
}

/// DCF unicast sender.
#[derive(Debug)]
pub struct DcfFsm {
    target: NodeId,
    phase: Phase,
    retries: u32,
    acked: Vec<NodeId>,
}

impl DcfFsm {
    /// New sender for a single `target`.
    pub fn new(target: NodeId) -> Self {
        DcfFsm {
            target,
            phase: Phase::AwaitCts,
            retries: 0,
            acked: Vec::new(),
        }
    }

    /// Receivers that ACKed (0 or 1 node).
    pub fn acked(&self) -> &[NodeId] {
        &self.acked
    }

    pub(super) fn on_access(&mut self, env: &mut Env<'_, '_>) -> Flow {
        let t = env.timing();
        env.send_control(
            FrameKind::Rts,
            Dest::Node(self.target),
            t.dcf_rts_duration(),
        );
        self.phase = Phase::AwaitCts;
        Flow::Await(env.response_deadline(t.control_slots))
    }

    pub(super) fn on_slot(&mut self, env: &mut Env<'_, '_>) -> Flow {
        // The expected response did not arrive.
        self.retries += 1;
        if self.retries > env.timing().retry_limit {
            Flow::Abort
        } else {
            Flow::Recontend { reset_cw: false }
        }
    }

    pub(super) fn on_frame(&mut self, frame: &Frame, env: &mut Env<'_, '_>) -> Flow {
        if frame.src != self.target || frame.msg != env.req.msg {
            return Flow::Continue;
        }
        match (self.phase, frame.kind) {
            (Phase::AwaitCts, FrameKind::Cts) => {
                let t = env.timing();
                env.send_data(Dest::Node(self.target), t.control_slots);
                self.phase = Phase::AwaitAck;
                Flow::Await(env.response_deadline(t.data_slots))
            }
            (Phase::AwaitAck, FrameKind::Ack) => {
                self.acked.push(self.target);
                Flow::Complete
            }
            _ => Flow::Continue,
        }
    }
}

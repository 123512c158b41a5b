//! IEEE 802.11 DCF unicast: CSMA/CA + RTS/CTS/DATA/ACK with binary
//! exponential backoff. All protocols in the suite use this machine for
//! the unicast share of the traffic mix. A missing CTS or ACK sends it
//! back into contention; the node's retry ceiling
//! (`timing.retry_limit`) is DCF's retry limit.

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
}

impl DcfFsm {
    /// New sender for a single `target`.
    pub fn new(target: NodeId) -> Self {
        DcfFsm {
            target,
            phase: Phase::AwaitCts,
        }
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
                env.acked.push(self.target);
                Flow::Complete
            }
            _ => Flow::Continue,
        }
    }
}

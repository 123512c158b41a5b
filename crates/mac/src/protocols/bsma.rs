//! BSMA \[20\]: the Tang–Gerla protocol augmented with a NAK. After the
//! data frame the sender waits WAIT_FOR_NAK; receivers that returned a
//! CTS but then missed the data transmit a NAK (these, too, collide and
//! are subject to capture). A heard NAK sends the sender back into
//! contention to retransmit; silence is treated as success — which is why
//! BSMA is "not logically reliable": receivers that never made it into
//! the CTS exchange cannot complain.

use super::{Env, Flow};
use rmm_sim::{Dest, Frame, FrameKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Multicast RTS sent; waiting out the CTS window.
    AwaitCts,
    /// Data sent; waiting out the NAK window.
    AwaitNak,
}

/// BSMA multicast sender.
#[derive(Debug)]
pub struct BsmaFsm {
    phase: Phase,
    cts_any: bool,
    nak_seen: bool,
}

impl BsmaFsm {
    /// New sender.
    pub fn new() -> Self {
        BsmaFsm {
            phase: Phase::AwaitCts,
            cts_any: false,
            nak_seen: false,
        }
    }

    pub(super) fn on_access(&mut self, env: &mut Env<'_, '_>) -> Flow {
        if env.req.receivers.is_empty() {
            return Flow::Complete;
        }
        let t = env.timing();
        self.cts_any = false;
        self.nak_seen = false;
        env.send_control(
            FrameKind::Rts,
            Dest::group(env.req.receivers.clone()),
            t.bsma_rts_duration(),
        );
        self.phase = Phase::AwaitCts;
        Flow::Await(env.response_deadline(t.control_slots))
    }

    pub(super) fn on_slot(&mut self, env: &mut Env<'_, '_>) -> Flow {
        match self.phase {
            Phase::AwaitCts if self.cts_any => {
                let t = env.timing();
                // Duration covers the NAK window after the data.
                env.send_data(Dest::group(env.req.receivers.clone()), t.control_slots);
                self.phase = Phase::AwaitNak;
                Flow::Await(env.response_deadline(t.data_slots))
            }
            // WAIT_FOR_CTS expired: back off and recontend.
            Phase::AwaitCts => Flow::Recontend { reset_cw: false },
            // A receiver reported a transmission problem: back off and
            // retransmit the whole exchange.
            Phase::AwaitNak if self.nak_seen => Flow::Recontend { reset_cw: false },
            Phase::AwaitNak => Flow::Complete,
        }
    }

    pub(super) fn on_frame(&mut self, frame: &Frame, env: &mut Env<'_, '_>) -> Flow {
        if frame.msg != env.req.msg {
            return Flow::Continue;
        }
        match (self.phase, frame.kind) {
            (Phase::AwaitCts, FrameKind::Cts) => self.cts_any = true,
            (Phase::AwaitNak, FrameKind::Nak) => self.nak_seen = true,
            _ => {}
        }
        Flow::Continue
    }
}

impl Default for BsmaFsm {
    fn default() -> Self {
        BsmaFsm::new()
    }
}

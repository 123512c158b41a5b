//! The Tang–Gerla MILCOM'00 broadcast MAC \[19\]: a multicast RTS answered
//! by *simultaneous* CTS frames from every non-yielding intended
//! receiver. The CTS replies collide at the sender; the protocol relies
//! on the radio's DS capture ability to salvage one of them. If any CTS
//! gets through, the data frame follows; otherwise the sender backs off
//! and recontends. No acknowledgements — the sender never learns who got
//! the data (the reliability problem Section 3 of the paper demonstrates).

use super::{Env, Flow};
use rmm_sim::{Dest, Frame, FrameKind, Slot};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Multicast RTS sent; waiting out the CTS window.
    AwaitCts,
    /// Data on the air.
    Sending,
}

/// Tang–Gerla multicast sender.
#[derive(Debug)]
pub struct TangFsm {
    phase: Phase,
    cts_any: bool,
}

impl TangFsm {
    /// New sender.
    pub fn new() -> Self {
        TangFsm {
            phase: Phase::AwaitCts,
            cts_any: false,
        }
    }

    pub(super) fn on_access(&mut self, env: &mut Env<'_, '_>) -> Flow {
        if env.req.receivers.is_empty() {
            return Flow::Complete;
        }
        let t = env.timing();
        self.cts_any = false;
        env.send_control(
            FrameKind::Rts,
            Dest::group(env.req.receivers.clone()),
            t.tg_rts_duration(),
        );
        self.phase = Phase::AwaitCts;
        Flow::Await(env.response_deadline(t.control_slots))
    }

    pub(super) fn on_slot(&mut self, env: &mut Env<'_, '_>) -> Flow {
        match self.phase {
            Phase::AwaitCts if self.cts_any => {
                let t = env.timing();
                env.send_data(Dest::group(env.req.receivers.clone()), 0);
                self.phase = Phase::Sending;
                Flow::Await(env.now() + Slot::from(t.data_slots))
            }
            // WAIT_FOR_CTS expired: back off and recontend.
            Phase::AwaitCts => Flow::Recontend { reset_cw: false },
            Phase::Sending => Flow::Complete,
        }
    }

    pub(super) fn on_frame(&mut self, frame: &Frame, env: &mut Env<'_, '_>) -> Flow {
        if self.phase == Phase::AwaitCts && frame.kind == FrameKind::Cts && frame.msg == env.req.msg
        {
            self.cts_any = true;
        }
        Flow::Continue
    }
}

impl Default for TangFsm {
    fn default() -> Self {
        TangFsm::new()
    }
}

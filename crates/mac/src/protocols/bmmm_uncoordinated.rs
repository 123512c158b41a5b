//! Ablation variant: BMMM **without** the RAK frame.
//!
//! The paper's central design argument (Section 4): "to avoid the
//! collisions among CTS and ACK frames, the sender needs to provide a
//! simple coordination among the intended receivers", which is what the
//! RTS train and the new RAK frame do. This variant keeps the RTS/CTS
//! train (coordinated CTS) but drops the RAK train: after the data frame
//! every receiver that decoded it transmits its ACK *simultaneously*,
//! exactly the uncoordinated behaviour the paper warns against. The ACKs
//! collide; only DS capture occasionally rescues one, so the sender
//! keeps re-serving receivers it cannot hear — measurably worse than
//! real BMMM (`rak_train_is_what_makes_bmmm_reliable` in
//! `tests/protocol_integration.rs`).

use super::{Env, Flow, RetryBudget};
use rmm_sim::{Dest, Frame, FrameKind, NodeId, Slot};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    /// RTS to `batch[i]` sent; CTS window closes at `at`.
    AwaitCts {
        /// Index into the current batch.
        i: usize,
    },
    /// Data on the air; the simultaneous ACK burst lands at `at`.
    AwaitAckBurst,
}

/// BMMM-without-RAK sender (ablation).
#[derive(Debug)]
pub struct BmmmUncoordFsm {
    s_remaining: Vec<NodeId>,
    batch: Vec<NodeId>,
    phase: Phase,
    at: Slot,
    cts_any: bool,
    batch_acked: Vec<NodeId>,
    all_acked: Vec<NodeId>,
    /// Failed rounds per receiver, and the receivers given up on (the
    /// same budget as BMMM's).
    budget: RetryBudget,
}

impl BmmmUncoordFsm {
    /// New sender.
    pub fn new(receivers: Vec<NodeId>) -> Self {
        BmmmUncoordFsm {
            s_remaining: receivers,
            batch: Vec::new(),
            phase: Phase::Idle,
            at: 0,
            cts_any: false,
            batch_acked: Vec::new(),
            all_acked: Vec::new(),
            budget: RetryBudget::default(),
        }
    }

    /// Receivers whose ACK survived capture so far.
    pub fn acked(&self) -> &[NodeId] {
        &self.all_acked
    }

    /// Receivers abandoned after exhausting their retry budget.
    pub fn gave_up(&self) -> &[NodeId] {
        self.budget.gave_up()
    }

    fn send_rts(&mut self, i: usize, env: &mut Env<'_, '_>) {
        let t = env.timing();
        // Same Duration arithmetic as BMMM minus the RAK train: the
        // reservation covers the rest of the poll, the data, and one ACK
        // burst slot.
        let m = self.batch.len();
        let remaining = (m - i - 1) as u32;
        let dur =
            remaining * 2 * t.control_slots + t.control_slots + t.data_slots + t.control_slots;
        env.send_control(FrameKind::Rts, Dest::Node(self.batch[i]), dur);
        self.phase = Phase::AwaitCts { i };
        self.at = env.response_deadline(t.control_slots);
    }

    pub(super) fn on_access(&mut self, env: &mut Env<'_, '_>) -> Flow {
        if self.s_remaining.is_empty() {
            return Flow::Complete;
        }
        self.batch = self.s_remaining.clone();
        self.cts_any = false;
        self.batch_acked.clear();
        self.send_rts(0, env);
        Flow::Continue
    }

    /// The next slot at which `on_slot` will act — the pending response
    /// or airtime deadline — if an exchange is in flight. Feeds the
    /// station's event-horizon wakeup hint.
    pub(super) fn deadline(&self) -> Option<Slot> {
        (self.phase != Phase::Idle).then_some(self.at)
    }

    pub(super) fn on_slot(&mut self, env: &mut Env<'_, '_>) -> Flow {
        if env.now() != self.at || self.phase == Phase::Idle {
            return Flow::Continue;
        }
        let m = self.batch.len();
        match self.phase {
            Phase::AwaitCts { i } => {
                if i + 1 < m {
                    self.send_rts(i + 1, env);
                    Flow::Continue
                } else if self.cts_any {
                    let t = env.timing();
                    // Duration: the uncoordinated ACK burst (1 slot).
                    env.send_data(Dest::group(self.s_remaining.clone()), t.control_slots);
                    self.phase = Phase::AwaitAckBurst;
                    self.at = env.response_deadline(t.data_slots);
                    Flow::Continue
                } else {
                    // No CTS at all: charge the silent batch before
                    // backing off.
                    self.phase = Phase::Idle;
                    let pruned =
                        self.budget
                            .charge_silent_batch(&self.batch, &mut self.s_remaining, env);
                    if self.s_remaining.is_empty() {
                        return Flow::Complete;
                    }
                    Flow::Recontend { reset_cw: pruned }
                }
            }
            Phase::AwaitAckBurst => {
                self.phase = Phase::Idle;
                self.all_acked.extend(self.batch_acked.iter().copied());
                self.s_remaining.retain(|n| !self.batch_acked.contains(n));
                self.budget.prune_exhausted(&mut self.s_remaining, env);
                if self.s_remaining.is_empty() {
                    Flow::Complete
                } else {
                    Flow::Recontend { reset_cw: true }
                }
            }
            Phase::Idle => Flow::Continue,
        }
    }

    pub(super) fn on_frame(&mut self, frame: &Frame, env: &mut Env<'_, '_>) -> Flow {
        if frame.msg != env.req.msg || !self.batch.contains(&frame.src) {
            return Flow::Continue;
        }
        match (self.phase, frame.kind) {
            (Phase::AwaitCts { .. }, FrameKind::Cts) => self.cts_any = true,
            (Phase::AwaitAckBurst, FrameKind::Ack) if !self.batch_acked.contains(&frame.src) => {
                self.batch_acked.push(frame.src);
            }
            _ => {}
        }
        Flow::Continue
    }
}

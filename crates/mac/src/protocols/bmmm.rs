//! BMMM — *Batch Mode Multicast MAC* — and its location-aware refinement
//! LAMM, the paper's contributions (Figures 3 and Section 5).
//!
//! One contention phase serves a whole batch: the sender serializes the
//! control traffic itself, polling each receiver for its CTS with a
//! dedicated RTS, transmitting the data frame once, then polling each
//! receiver for its ACK with a RAK frame. Un-ACKed receivers roll over
//! into the next batch (`S := S \ S_ACK`).
//!
//! With `location_aware` set (LAMM), each batch polls only the minimum
//! cover set `MCS(S)` of the remaining receivers, and the round closes
//! with `S := UPDATE(S, S_ACK)` — receivers whose coverage disk is
//! entirely covered by the ACKing receivers' disks are *guaranteed*
//! (Theorem 3) to have received the data collision-free and need no
//! explicit confirmation.

use super::{Env, Flow, RetryBudget};
use rmm_geom::{min_cover_set, update_uncovered};
use rmm_sim::{Dest, Frame, FrameKind, NodeId, Slot, TraceEvent};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// RTS to `batch[i]` sent; waiting out its CTS window.
    AwaitCts {
        /// Index into the current batch.
        i: usize,
    },
    /// Data frame on the air; the first RAK goes out when it ends.
    Sending,
    /// RAK to `batch[i]` sent; waiting out its ACK window.
    AwaitAck {
        /// Index into the current batch.
        i: usize,
    },
}

/// BMMM / LAMM sender.
#[derive(Debug)]
pub struct BmmmFsm {
    location_aware: bool,
    /// Receivers still requiring service (the paper's `S`).
    s_remaining: Vec<NodeId>,
    /// The receivers polled this batch (`S` for BMMM, `MCS(S)` for LAMM).
    batch: Vec<NodeId>,
    /// 1-based batch (round) number, counting every `Batch_Mode_Procedure`.
    round: u32,
    phase: Phase,
    cts_any: bool,
    /// ACKs collected this batch (`S_ACK`), folded into the message's
    /// receipts when the batch ends.
    batch_acked: Vec<NodeId>,
    /// Failed rounds per receiver.
    budget: RetryBudget,
}

impl BmmmFsm {
    /// New sender; `location_aware` selects LAMM.
    pub fn new(receivers: Vec<NodeId>, location_aware: bool) -> Self {
        BmmmFsm {
            location_aware,
            s_remaining: receivers,
            batch: Vec::new(),
            round: 0,
            phase: Phase::AwaitCts { i: 0 },
            cts_any: false,
            batch_acked: Vec::new(),
            budget: RetryBudget::default(),
        }
    }

    fn compute_batch(&self, env: &Env<'_, '_>) -> Vec<NodeId> {
        if !self.location_aware {
            return self.s_remaining.clone();
        }
        let indices: Vec<usize> = self.s_remaining.iter().map(|n| n.index()).collect();
        let mcs = min_cover_set(env.core.positions(), &indices, env.core.radius());
        mcs.into_iter().map(|i| NodeId(i as u32)).collect()
    }

    /// `Batch_Mode_Procedure` entry: contention won, start the RTS train.
    pub(super) fn on_access(&mut self, env: &mut Env<'_, '_>) -> Flow {
        if self.s_remaining.is_empty() {
            return Flow::Complete; // degenerate: no receivers
        }
        self.batch = self.compute_batch(env);
        debug_assert!(!self.batch.is_empty());
        self.round += 1;
        self.cts_any = false;
        self.batch_acked.clear();
        let (slot, node, msg, round) = (env.now(), env.core.id, env.req.msg, self.round);
        if self.location_aware {
            env.emit(|| TraceEvent::CoverSetComputed {
                slot,
                node,
                msg,
                full: self.s_remaining.clone(),
                cover: self.batch.clone(),
            });
        }
        env.emit(|| TraceEvent::BatchStart {
            slot,
            node,
            msg,
            round,
            batch: self.batch.clone(),
        });
        self.send_rts(0, env)
    }

    fn send_rts(&mut self, i: usize, env: &mut Env<'_, '_>) -> Flow {
        let t = env.timing();
        let dur = t.bmmm_rts_duration(i, self.batch.len());
        let (slot, node, msg, target) = (env.now(), env.core.id, env.req.msg, self.batch[i]);
        env.emit(|| TraceEvent::PollSent {
            slot,
            node,
            msg,
            kind: FrameKind::Rts,
            target,
        });
        env.send_control(FrameKind::Rts, Dest::Node(self.batch[i]), dur);
        self.phase = Phase::AwaitCts { i };
        Flow::Await(env.response_deadline(t.control_slots))
    }

    fn send_rak(&mut self, i: usize, env: &mut Env<'_, '_>) -> Flow {
        let t = env.timing();
        let dur = t.bmmm_rak_duration(i, self.batch.len());
        let (slot, node, msg, target) = (env.now(), env.core.id, env.req.msg, self.batch[i]);
        env.emit(|| TraceEvent::PollSent {
            slot,
            node,
            msg,
            kind: FrameKind::Rak,
            target,
        });
        env.send_control(FrameKind::Rak, Dest::Node(self.batch[i]), dur);
        self.phase = Phase::AwaitAck { i };
        Flow::Await(env.response_deadline(t.control_slots))
    }

    /// Traces the close of the RAK/ACK train. Called before the batch
    /// state is folded into `S`.
    fn emit_batch_end(&self, env: &mut Env<'_, '_>) {
        let (slot, node, msg, round) = (env.now(), env.core.id, env.req.msg, self.round);
        env.emit(|| TraceEvent::BatchEnd {
            slot,
            node,
            msg,
            round,
            batch: self.batch.clone(),
            acked: self.batch_acked.clone(),
        });
    }

    /// Batch over: fold `S_ACK` into `S` — `S \ S_ACK` for BMMM,
    /// `UPDATE(S, S_ACK)` for LAMM — charge the receivers still
    /// outstanding, and decide what happens next.
    fn finish_batch(&mut self, env: &mut Env<'_, '_>) -> Flow {
        self.emit_batch_end(env);
        env.acked.extend(self.batch_acked.iter().copied());
        if self.location_aware {
            // UPDATE(S, S_ACK): keep the nodes not covered by the ACK set.
            let indices: Vec<usize> = self.s_remaining.iter().map(|n| n.index()).collect();
            let acked: Vec<usize> = self.batch_acked.iter().map(|n| n.index()).collect();
            let rem = update_uncovered(env.core.positions(), &indices, &acked, env.core.radius());
            let new_remaining: Vec<NodeId> = rem.into_iter().map(|i| NodeId(i as u32)).collect();
            // Nodes that left S without explicitly ACKing were closed by
            // Theorem 3 coverage.
            for &n in &self.s_remaining {
                if !new_remaining.contains(&n)
                    && !self.batch_acked.contains(&n)
                    && !env.assumed_covered.contains(&n)
                {
                    env.assumed_covered.push(n);
                }
            }
            self.s_remaining = new_remaining;
        } else {
            self.s_remaining.retain(|n| !self.batch_acked.contains(n));
        }
        self.budget.prune_exhausted(&mut self.s_remaining, env);
        if self.s_remaining.is_empty() {
            Flow::Complete
        } else {
            // The sender's protocol loops: a fresh Batch_Mode_Procedure
            // begins with a fresh contention phase.
            Flow::Recontend { reset_cw: true }
        }
    }

    pub(super) fn on_slot(&mut self, env: &mut Env<'_, '_>) -> Flow {
        let m = self.batch.len();
        match self.phase {
            // Whether or not p_i answered, poll the next receiver.
            Phase::AwaitCts { i } if i + 1 < m => self.send_rts(i + 1, env),
            Phase::AwaitCts { .. } if self.cts_any => {
                let t = env.timing();
                env.send_data(
                    Dest::group(self.s_remaining.clone()),
                    t.bmmm_data_duration(m),
                );
                self.phase = Phase::Sending;
                Flow::Await(env.now() + Slot::from(t.data_slots))
            }
            Phase::AwaitCts { .. } => {
                // No CTS at all: charge the silent batch, then back off
                // and restart the procedure.
                let pruned =
                    self.budget
                        .charge_silent_batch(&self.batch, &mut self.s_remaining, env);
                if self.s_remaining.is_empty() {
                    return Flow::Complete;
                }
                Flow::Recontend { reset_cw: pruned }
            }
            // Data airtime over: start the RAK/ACK train.
            Phase::Sending => self.send_rak(0, env),
            Phase::AwaitAck { i } => {
                if !self.batch_acked.contains(&self.batch[i]) {
                    let (slot, node, msg) = (env.now(), env.core.id, env.req.msg);
                    let target = self.batch[i];
                    env.emit(|| TraceEvent::AckMissed {
                        slot,
                        node,
                        msg,
                        target,
                    });
                }
                if i + 1 < m {
                    self.send_rak(i + 1, env)
                } else {
                    self.finish_batch(env)
                }
            }
        }
    }

    pub(super) fn on_frame(&mut self, frame: &Frame, env: &mut Env<'_, '_>) -> Flow {
        if frame.msg != env.req.msg || !self.batch.contains(&frame.src) {
            return Flow::Continue;
        }
        match frame.kind {
            FrameKind::Cts => {
                if matches!(self.phase, Phase::AwaitCts { .. }) {
                    self.cts_any = true;
                }
            }
            FrameKind::Ack
                if matches!(self.phase, Phase::AwaitAck { .. })
                    && !self.batch_acked.contains(&frame.src) =>
            {
                self.batch_acked.push(frame.src);
            }
            _ => {}
        }
        Flow::Continue
    }
}

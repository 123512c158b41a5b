//! Naive full-rescan reference implementation of the channel.
//!
//! This is the pre-optimization algorithm kept verbatim: a flat
//! transmission list scanned per ended frame and per receiver. It is the
//! differential oracle for the incremental bookkeeping in [`Channel`] —
//! [`Channel::enable_crosscheck`] shadows every launch and resolution
//! against it, and the channel proptests drive both implementations with
//! cloned RNGs and assert byte-identical outcomes.
//!
//! Being the oracle, this module trades speed for obviousness on purpose:
//! keep it dumb.
//!
//! [`Channel`]: super::Channel
//! [`Channel::enable_crosscheck`]: super::Channel::enable_crosscheck

use super::{BurstState, CollisionEvent, Reception, SlotOutcome, Transmission};
use crate::capture::Capture;
use crate::fault::GilbertElliott;
use crate::frame::Frame;
use crate::ids::{NodeId, Slot};
use crate::ledger::AirtimeLedger;
use crate::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// The shared radio medium, resolved by exhaustive rescans.
#[derive(Debug)]
pub struct ReferenceChannel {
    transmissions: Vec<Transmission>,
    capture: Capture,
    max_len: u32,
    latest_end: Slot,
    ledger: AirtimeLedger,
    fer: f64,
    burst: Option<BurstState>,
    /// Count of frame receptions destroyed by the burst-error channel.
    pub burst_errors_total: u64,
}

impl ReferenceChannel {
    /// Creates an idle reference channel with the given capture model.
    pub fn new(capture: Capture) -> Self {
        ReferenceChannel {
            transmissions: Vec::new(),
            capture,
            max_len: 1,
            latest_end: 0,
            ledger: AirtimeLedger::new(),
            fer: 0.0,
            burst: None,
            burst_errors_total: 0,
        }
    }

    /// Sets the independent per-reception frame error rate.
    pub fn set_fer(&mut self, fer: f64) {
        assert!(
            (0.0..1.0).contains(&fer),
            "frame error rate must be in [0, 1)"
        );
        self.fer = fer;
    }

    /// Enables the Gilbert–Elliott burst-error channel with its own
    /// seeded RNG stream.
    pub fn set_burst(&mut self, model: GilbertElliott, seed: u64) {
        let model = GilbertElliott::new(model.p, model.r);
        self.burst = Some(BurstState {
            model,
            rng: SmallRng::seed_from_u64(seed),
            chains: Vec::new(),
        });
    }

    /// Adopts a snapshot of the fast channel's burst state so both sides
    /// continue the same chain/RNG trajectories (crosscheck plumbing).
    pub(super) fn mirror_burst(&mut self, burst: Option<BurstState>) {
        self.burst = burst;
    }

    /// Starts a transmission at slot `now`.
    pub fn begin_tx(&mut self, frame: Frame, now: Slot) {
        debug_assert!(
            !self
                .transmissions
                .iter()
                .any(|t| t.frame.src == frame.src && t.end > now),
            "station {} started a transmission while already transmitting",
            frame.src
        );
        let len = frame.slots.max(1);
        self.max_len = self.max_len.max(len);
        let end = now + Slot::from(len);
        self.latest_end = self.latest_end.max(end);
        self.ledger.mark_tx(frame.kind, now, end);
        self.transmissions.push(Transmission {
            frame: Rc::new(frame),
            start: now,
            end,
        });
    }

    /// The per-slot airtime ledger accumulated so far.
    pub fn ledger(&self) -> &AirtimeLedger {
        &self.ledger
    }

    /// Whether slot `slot` is dead air for every station.
    pub fn quiescent_at(&self, slot: Slot) -> bool {
        self.latest_end < slot
    }

    /// Whether the medium at `node` was busy during slot `now - 1`,
    /// by scanning every retained transmission.
    pub fn busy_prev_slot(&self, node: NodeId, now: Slot, topo: &Topology) -> bool {
        if now == 0 {
            return false;
        }
        let prev = now - 1;
        self.transmissions
            .iter()
            .any(|t| t.occupies(prev) && (t.frame.src == node || topo.in_range(node, t.frame.src)))
    }

    /// Whether `node` has a frame of its own on the air at slot `now`.
    pub fn is_transmitting(&self, node: NodeId, now: Slot) -> bool {
        self.transmissions
            .iter()
            .any(|t| t.frame.src == node && t.occupies(now))
    }

    /// Resolves all transmissions ending at slot `now` (convenience
    /// wrapper returning a fresh [`SlotOutcome`]).
    pub fn resolve_ended(&mut self, now: Slot, topo: &Topology, rng: &mut SmallRng) -> SlotOutcome {
        let mut outcome = SlotOutcome::default();
        self.resolve_ended_into(now, topo, rng, &mut outcome);
        outcome
    }

    /// Wrapper used by the crosscheck: resolves into a fresh outcome and
    /// returns it for comparison.
    pub(super) fn resolve_shadow(
        &mut self,
        now: Slot,
        topo: &Topology,
        rng: &mut SmallRng,
    ) -> SlotOutcome {
        self.resolve_ended(now, topo, rng)
    }

    /// Resolves all transmissions whose airtime ends at slot `now` into
    /// `outcome`, scanning the full transmission list per receiver.
    pub fn resolve_ended_into(
        &mut self,
        now: Slot,
        topo: &Topology,
        rng: &mut SmallRng,
        outcome: &mut SlotOutcome,
    ) {
        outcome.clear();
        if self.quiescent_at(now) {
            return;
        }
        let ended: Vec<usize> = self
            .transmissions
            .iter()
            .enumerate()
            .filter(|(_, t)| t.end == now)
            .map(|(i, _)| i)
            .collect();
        let mut interferers: Vec<usize> = Vec::new();
        let mut collided: Vec<(Slot, Slot)> = Vec::new();
        for &fi in &ended {
            let src = self.transmissions[fi].frame.src;
            for &r in topo.neighbors(src) {
                self.resolve_at_receiver(
                    fi,
                    r,
                    topo,
                    rng,
                    outcome,
                    &mut interferers,
                    &mut collided,
                );
            }
        }
        for &(s, e) in &collided {
            self.ledger.mark_collided(s, e);
        }
        if let Some(burst) = &mut self.burst {
            self.burst_errors_total += burst.apply(outcome);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_at_receiver(
        &self,
        fi: usize,
        receiver: NodeId,
        topo: &Topology,
        rng: &mut SmallRng,
        outcome: &mut SlotOutcome,
        interferers: &mut Vec<usize>,
        collided: &mut Vec<(Slot, Slot)>,
    ) {
        let f = &self.transmissions[fi];
        // Half-duplex: a station transmitting during the frame hears
        // nothing of it.
        if self
            .transmissions
            .iter()
            .any(|t| t.frame.src == receiver && t.overlaps(f))
        {
            return;
        }
        // Interferers: other transmissions audible at the receiver that
        // overlap this frame in time.
        interferers.clear();
        interferers.extend(self.transmissions.iter().enumerate().filter_map(|(ti, t)| {
            (ti != fi && t.overlaps(f) && topo.in_range(receiver, t.frame.src)).then_some(ti)
        }));
        if interferers.is_empty() {
            if self.fer > 0.0 && rng.random::<f64>() < self.fer {
                outcome.frame_errors.push(receiver);
                return;
            }
            outcome.receptions.push(Reception {
                receiver,
                frame: Rc::clone(&f.frame),
                captured: false,
            });
            return;
        }

        collided.push((f.start, f.end));
        for &ti in interferers.iter() {
            let t = &self.transmissions[ti];
            collided.push((t.start, t.end));
        }

        let synchronized = f.frame.kind.is_control()
            && interferers.iter().all(|&ti| {
                let t = &self.transmissions[ti];
                t.frame.kind.is_control() && t.start == f.start && t.end == f.end
            });

        let mut captured = None;
        if synchronized {
            let strongest = interferers
                .iter()
                .map(|&ti| self.transmissions[ti].frame.src)
                .chain(std::iter::once(f.frame.src))
                .min_by(|&a, &b| {
                    topo.distance(receiver, a)
                        .partial_cmp(&topo.distance(receiver, b))
                        .expect("distances are finite")
                        .then(a.cmp(&b))
                })
                .expect("at least one sender");
            if strongest == f.frame.src {
                let k = interferers.len() + 1;
                if rng.random::<f64>() < self.capture.capture_prob(k)
                    && (self.fer == 0.0 || rng.random::<f64>() >= self.fer)
                {
                    captured = Some(strongest);
                    outcome.receptions.push(Reception {
                        receiver,
                        frame: Rc::clone(&f.frame),
                        captured: true,
                    });
                }
                let mut senders: Vec<NodeId> = interferers
                    .iter()
                    .map(|&ti| self.transmissions[ti].frame.src)
                    .collect();
                senders.push(f.frame.src);
                senders.sort();
                outcome.collisions.push(CollisionEvent {
                    receiver,
                    senders,
                    captured,
                });
            }
        } else {
            let mut senders: Vec<NodeId> = interferers
                .iter()
                .map(|&ti| self.transmissions[ti].frame.src)
                .collect();
            senders.push(f.frame.src);
            senders.sort();
            outcome.collisions.push(CollisionEvent {
                receiver,
                senders,
                captured: None,
            });
        }
    }

    /// Drops transmissions that can no longer interfere with anything.
    pub fn prune(&mut self, now: Slot) {
        let max_len = Slot::from(self.max_len);
        self.transmissions.retain(|t| t.end + max_len > now);
    }

    /// Number of transmission records currently retained.
    pub fn records(&self) -> usize {
        self.transmissions.len()
    }

    /// Whether any transmission is on the air at slot `now`.
    pub fn any_active(&self, now: Slot) -> bool {
        self.transmissions.iter().any(|t| t.occupies(now))
    }
}

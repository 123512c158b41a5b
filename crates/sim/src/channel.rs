//! The shared radio channel: transmission bookkeeping and per-receiver
//! reception resolution.
//!
//! Reception rule (per receiver `r`, for a frame `f` whose airtime just
//! ended): `r` decodes `f` iff
//!
//! 1. `r` is within the transmission radius of `f`'s sender,
//! 2. `r` was not itself transmitting during any slot of `f` (half-duplex),
//! 3. no other transmission audible at `r` overlapped `f` in time — unless
//!    *all* overlapping frames are control frames occupying exactly the
//!    same slot (a synchronized pile-up, e.g. simultaneous CTS replies), in
//!    which case the strongest frame (nearest sender) is decoded with the
//!    capture probability of the configured [`Capture`] model.
//!
//! Every audible station receives every decodable frame (promiscuous
//! delivery); MAC layers decide whether a frame is addressed to them or
//! triggers a NAV yield.
//!
//! # Hot-path bookkeeping
//!
//! The saturated regime is where the paper's protocols differ, so the
//! channel maintains incremental indexes at launch/expiry time instead of
//! rescanning the transmission list per slot:
//!
//! * an **end-slot bucket ring** (`ends`) so resolution touches only the
//!   frames actually ending at the resolved slot, in launch order,
//! * **per-receiver audible lists** (`audible`) and **per-sender on-air
//!   lists** (`own`) so interference and half-duplex checks in
//!   [`Channel::resolve_ended_into`] scan only the handful of records
//!   audible at one station; every list entry is a denormalized
//!   [`AirRef`] carrying the interference window (start/end/sender/kind)
//!   inline, so the hot scans never chase the record slab,
//! * **busy-period audible lists**: a launch empties a neighbor's list
//!   first if that neighbor's medium has fallen idle (its carrier
//!   watermark is at or before the launch slot). Every listed record
//!   then ended and was resolved, since a slot's resolution precedes
//!   its launches, and none can overlap a frame launched from now on.
//!   So a record is never taken out of its receivers' lists one by one:
//!   pruning frees the slab slot and the sender's `own` entry only, and
//!   a list keeps stale entries of pruned records until its receiver's
//!   next idle launch. A receiver whose medium never falls idle has its
//!   list trimmed of prunable records whenever it doubles (see
//!   [`Audible`]), so every list stays bounded,
//! * **one verdict per synchronized pile-up per receiver**: frames that
//!   end in the same slot overlap, so when one of them reaches a
//!   receiver as a synchronized control pile-up, every frame ending
//!   there in that slot is in the same pile-up. The first member
//!   resolved there finds the strongest sender; the others return at
//!   once unless they are the strongest, which alone draws capture and
//!   frame errors, as it always did,
//! * **per-station carrier watermarks** (`air_until`) raised at launch
//!   over the sender and its neighborhood, so carrier sense
//!   ([`Channel::busy_prev_slot`]) and global airtime occupancy
//!   ([`Channel::any_active`]) are O(1) comparisons instead of bitset
//!   ring maintenance. The watermarks are exact for the engine's query
//!   pattern — all of a slot's carrier-sense reads happen before that
//!   slot's launches, and launches are time-ordered.
//!
//! All bookkeeping is behaviorally invisible: outcomes, RNG draw order,
//! and the airtime ledger are bit-identical to the naive full-rescan
//! reference in [`reference`], which doubles as a differential oracle via
//! [`Channel::enable_crosscheck`].
//!
//! Frames are shared through [`Rc`], not `Arc`: an engine and its
//! channel are built, run and dropped on one thread, so the per-reception
//! count changes need not be atomic.

pub mod reference;

use crate::capture::Capture;
use crate::fault::{BurstChain, GilbertElliott};
use crate::frame::Frame;
use crate::ids::{NodeId, Slot};
use crate::ledger::AirtimeLedger;
use crate::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;

/// A frame on the air, occupying slots `[start, end)`. The frame payload
/// is reference-counted so multicast delivery shares one allocation
/// across every receiver instead of cloning it per reception.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// The frame being transmitted.
    pub frame: Rc<Frame>,
    /// First occupied slot.
    pub start: Slot,
    /// One past the last occupied slot.
    pub end: Slot,
}

impl Transmission {
    #[inline]
    fn overlaps(&self, other: &Transmission) -> bool {
        self.start < other.end && other.start < self.end
    }

    #[inline]
    fn occupies(&self, slot: Slot) -> bool {
        self.start <= slot && slot < self.end
    }
}

/// A successfully decoded frame, to be delivered to `receiver`. Every
/// receiver of a multicast frame shares the same [`Rc`]ed payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Reception {
    /// Station that decoded the frame.
    pub receiver: NodeId,
    /// The decoded frame.
    pub frame: Rc<Frame>,
    /// Whether decoding required the capture effect.
    pub captured: bool,
}

/// A collision observed at a receiver (for tracing and statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct CollisionEvent {
    /// Station at which the frames collided.
    pub receiver: NodeId,
    /// Senders of the frames involved.
    pub senders: Vec<NodeId>,
    /// The sender whose frame was captured, if any.
    pub captured: Option<NodeId>,
}

/// Result of resolving one slot's ended transmissions.
#[derive(Debug, Default, PartialEq)]
pub struct SlotOutcome {
    /// Frames decoded this slot, in deterministic order.
    pub receptions: Vec<Reception>,
    /// Collisions observed this slot.
    pub collisions: Vec<CollisionEvent>,
    /// Receivers that lost an otherwise clean frame to a random frame
    /// error this slot.
    pub frame_errors: Vec<NodeId>,
    /// Receivers that lost an otherwise decodable frame to the
    /// Gilbert–Elliott burst channel this slot.
    pub burst_errors: Vec<NodeId>,
}

impl SlotOutcome {
    /// Empties all event lists, keeping their allocations.
    pub fn clear(&mut self) {
        self.receptions.clear();
        self.collisions.clear();
        self.frame_errors.clear();
        self.burst_errors.clear();
    }
}

/// Burst-loss state: the configured model, one chain per receiver, and
/// the model's own RNG stream (isolated from the i.i.d. FER / capture
/// draws so enabling bursts never perturbs the other streams).
#[derive(Debug, Clone)]
struct BurstState {
    model: GilbertElliott,
    rng: SmallRng,
    chains: Vec<BurstChain>,
}

impl BurstState {
    /// Steps the chains over this slot's decoded receptions (in
    /// deterministic reception order) and moves losses from
    /// `outcome.receptions` to `outcome.burst_errors`. Returns the number
    /// of frames lost. Chains advance only on reception attempts, so the
    /// naive and event-horizon steppers (which see identical reception
    /// sequences) stay bit-exact.
    fn apply(&mut self, outcome: &mut SlotOutcome) -> u64 {
        let mut lost = 0;
        let mut i = 0;
        while i < outcome.receptions.len() {
            let r = outcome.receptions[i].receiver;
            if r.index() >= self.chains.len() {
                self.chains
                    .resize(r.index() + 1, BurstChain::new(self.model));
            }
            if self.chains[r.index()].step(&mut self.rng) {
                outcome.burst_errors.push(r);
                outcome.receptions.remove(i);
                lost += 1;
            } else {
                i += 1;
            }
        }
        lost
    }
}

/// A slab-resident transmission record. `seq` is the global launch
/// counter, used to restore launch order when the end-slot ring is
/// rebuilt after a `max_len` growth.
#[derive(Debug)]
struct Rec {
    tx: Transmission,
    seq: u64,
}

/// A denormalized reference to a slab record, carried by the end
/// buckets and the per-node audible/on-air lists: everything the hot
/// scans test — the occupancy window, the sender, and whether the frame
/// is a control frame (capture-pile-up membership) — lives inline, so
/// interference resolution touches the slab once per ended frame
/// instead of once per list entry.
#[derive(Debug, Clone, Copy)]
struct AirRef {
    /// Slab index of the full record.
    idx: u32,
    /// Sending station.
    src: NodeId,
    /// Whether the frame is a control frame.
    ctrl: bool,
    /// First occupied slot.
    start: Slot,
    /// One past the last occupied slot.
    end: Slot,
}

impl AirRef {
    fn of(idx: u32, tx: &Transmission) -> Self {
        AirRef {
            idx,
            src: tx.frame.src,
            ctrl: tx.frame.kind.is_control(),
            start: tx.start,
            end: tx.end,
        }
    }

    #[inline]
    fn overlaps(&self, start: Slot, end: Slot) -> bool {
        self.start < end && start < self.end
    }

    #[inline]
    fn occupies(&self, slot: Slot) -> bool {
        self.start <= slot && slot < self.end
    }
}

/// The records audible at one receiver since its medium last fell idle.
///
/// Entries of pruned records stay until the next idle launch clears the
/// list; they ended at or before the prune horizon, so they overlap no
/// frame still to be resolved, and resolution reads only their inline
/// window (a reused slab index among them is harmless). A medium that
/// never falls idle (hidden senders alternating back to back) would let
/// the list grow without end, so reaching `trim_at` entries drops every
/// record the pruner would free and sets `trim_at` to twice what is
/// left, at least [`Audible::TRIM_FLOOR`]: amortized O(1) per launch,
/// and a list never holds more than `max(TRIM_FLOOR, 2 × the records
/// it kept at its last trim)` entries.
#[derive(Debug, Clone)]
struct Audible {
    recs: Vec<AirRef>,
    trim_at: usize,
}

impl Audible {
    /// Smallest list length that triggers a trim.
    const TRIM_FLOOR: usize = 16;

    fn new() -> Self {
        Audible {
            recs: Vec::new(),
            trim_at: Self::TRIM_FLOOR,
        }
    }

    /// Lists `e`, launched at `now`. `air_until` is the receiver's
    /// carrier watermark before the launch; records ended at or before
    /// `horizon` can no longer interfere.
    #[inline]
    fn push(&mut self, e: AirRef, now: Slot, air_until: Slot, horizon: Slot) {
        if air_until <= now {
            self.recs.clear();
        } else if self.recs.len() >= self.trim_at {
            self.recs.retain(|t| t.end > horizon);
            self.trim_at = (2 * self.recs.len()).max(Self::TRIM_FLOOR);
        }
        self.recs.push(e);
    }
}

/// Scratch state of one resolution pass, moved out of the channel while
/// the pass borrows it, so no slot allocates.
#[derive(Debug, Default)]
struct ResolveScratch {
    /// Records ending at the resolved slot.
    ended: Vec<AirRef>,
    /// Interferers at one receiver.
    interferers: Vec<AirRef>,
    /// Slot intervals of frames destroyed by collisions, drained into
    /// the ledger after the pass.
    collided: Vec<(Slot, Slot)>,
    /// Recycled `CollisionEvent::senders` vectors, refilled from the
    /// previous slot's outcome so saturated resolution does not allocate
    /// per collision event.
    sender_pool: Vec<Vec<NodeId>>,
    /// Per receiver: the end slot and strongest sender of the last
    /// synchronized pile-up resolved there. No frame ends at slot 0, so
    /// `(0, _)` is never current.
    pileups: Vec<(Slot, NodeId)>,
}

/// The shared radio medium.
#[derive(Debug)]
pub struct Channel {
    /// Transmission records, slab-allocated so the per-node index lists
    /// can hold stable `u32` handles.
    slab: Vec<Option<Rec>>,
    /// Free slab slots, reused before growing.
    free: Vec<u32>,
    /// Number of live records (active plus interference-history tail).
    live: usize,
    /// Global launch counter (restores launch order on ring rebuilds).
    next_seq: u64,
    capture: Capture,
    max_len: u32,
    /// One past the last slot any transmission ever begun will occupy
    /// (monotone). Slots at or beyond it are dead air unless a new
    /// transmission starts first.
    latest_end: Slot,
    /// Station count the index structures are bound to (0 until the
    /// first launch binds a topology).
    n_nodes: usize,
    /// End-slot bucket ring: `ends[end % ends.len()]` holds the records
    /// ending at `end`, in launch order. Ring length `2 * max_len + 2`
    /// keeps live ends collision-free.
    ends: Vec<Vec<AirRef>>,
    /// Per-receiver audible records: `audible[r]` holds every record
    /// whose sender is in range of `r` (under the current topology) and
    /// that is still retained or was launched since `r`'s medium last
    /// fell idle. Maintained at launch and rebuilt by
    /// [`Channel::retune`].
    audible: Vec<Audible>,
    /// Per-sender on-air records: `own[s]` holds every retained record
    /// sent by `s` (half-duplex checks, [`Channel::is_transmitting`]).
    own: Vec<Vec<AirRef>>,
    /// Per-station carrier watermark: one past the last slot any
    /// transmission audible at the station (its neighbors' or its own)
    /// ever launched will occupy. Monotone under launches; recomputed by
    /// [`Channel::retune`]. Because launches are time-ordered and every
    /// carrier-sense read for a slot happens before that slot's
    /// launches, `air_until[i] >= now` is exactly "the medium at `i` was
    /// busy during `now - 1`".
    air_until: Vec<Slot>,
    /// Next end slot the pruner will drain (monotone).
    prune_cursor: Slot,
    /// Resolution scratch and the per-receiver pile-up verdicts.
    scratch: ResolveScratch,
    /// Per-slot airtime classification (idle / data / control /
    /// collision), stamped as transmissions start and resolve.
    ledger: AirtimeLedger,
    /// Independent per-reception frame error probability (transmission
    /// errors other than collisions — noise, fading). The paper's
    /// Section 6 analysis folds these into its `q`; default 0.
    fer: f64,
    /// Gilbert–Elliott burst-loss state, if configured.
    burst: Option<BurstState>,
    /// Naive full-rescan shadow channel, if crosschecking is enabled:
    /// every launch is mirrored and every resolution is replayed against
    /// it (with a cloned RNG) and asserted byte-identical.
    shadow: Option<Box<reference::ReferenceChannel>>,
    /// Count of frame receptions destroyed by collisions (monotone).
    pub collisions_total: u64,
    /// Count of frame receptions destroyed by random frame errors.
    pub frame_errors_total: u64,
    /// Count of frame receptions destroyed by the burst-error channel.
    pub burst_errors_total: u64,
    /// Count of slots during which at least one transmission was on the
    /// air anywhere in the network (global airtime utilization).
    pub busy_slots: u64,
}

impl Channel {
    /// Creates an idle channel with the given capture model.
    pub fn new(capture: Capture) -> Self {
        let max_len = 1u32;
        Channel {
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            capture,
            max_len,
            latest_end: 0,
            n_nodes: 0,
            ends: vec![Vec::new(); Self::end_ring_len(max_len)],
            audible: Vec::new(),
            own: Vec::new(),
            air_until: Vec::new(),
            prune_cursor: 0,
            scratch: ResolveScratch::default(),
            ledger: AirtimeLedger::new(),
            fer: 0.0,
            burst: None,
            shadow: None,
            collisions_total: 0,
            frame_errors_total: 0,
            burst_errors_total: 0,
            busy_slots: 0,
        }
    }

    /// End-bucket ring length for a given longest frame: live ends span
    /// at most `(now - max_len, now + max_len]`, so `2 * max_len + 2`
    /// rows keep distinct live ends in distinct buckets.
    fn end_ring_len(max_len: u32) -> usize {
        2 * max_len as usize + 2
    }

    /// Sets the independent frame error rate applied to every otherwise
    /// successful reception.
    pub fn set_fer(&mut self, fer: f64) {
        assert!(
            (0.0..1.0).contains(&fer),
            "frame error rate must be in [0, 1)"
        );
        self.fer = fer;
        if let Some(shadow) = &mut self.shadow {
            shadow.set_fer(fer);
        }
    }

    /// The configured frame error rate.
    pub fn fer(&self) -> f64 {
        self.fer
    }

    /// Enables the Gilbert–Elliott burst-error channel, seeding its
    /// dedicated RNG stream. Per-receiver chains start in the Good state
    /// and advance once per reception attempt at that receiver.
    pub fn set_burst(&mut self, model: GilbertElliott, seed: u64) {
        let model = GilbertElliott::new(model.p, model.r); // re-validate
        self.burst = Some(BurstState {
            model,
            rng: SmallRng::seed_from_u64(seed),
            chains: Vec::new(),
        });
        if let Some(shadow) = &mut self.shadow {
            shadow.mirror_burst(self.burst.clone());
        }
    }

    /// The configured burst model, if any.
    pub fn burst(&self) -> Option<GilbertElliott> {
        self.burst.as_ref().map(|b| b.model)
    }

    /// The configured capture model.
    pub fn capture(&self) -> Capture {
        self.capture
    }

    /// Enables the differential shadow channel: every launch is mirrored
    /// into a naive full-rescan [`reference::ReferenceChannel`], and every
    /// [`Channel::resolve_ended_into`] replays it there with a cloned RNG,
    /// asserting that outcomes, the RNG draw stream, the airtime ledger,
    /// carrier sense, and half-duplex state are all byte-identical. Test
    /// instrumentation — roughly doubles resolution cost.
    ///
    /// # Panics
    ///
    /// If any transmission has already been launched (the shadow must see
    /// the full history).
    pub fn enable_crosscheck(&mut self) {
        assert!(
            self.live == 0 && self.latest_end == 0,
            "crosscheck must be enabled on a fresh channel"
        );
        let mut shadow = Box::new(reference::ReferenceChannel::new(self.capture));
        shadow.set_fer(self.fer);
        shadow.mirror_burst(self.burst.clone());
        self.shadow = Some(shadow);
    }

    /// Whether the naive shadow channel is active.
    pub fn crosscheck_enabled(&self) -> bool {
        self.shadow.is_some()
    }

    /// Binds the index structures to a station count the first time a
    /// transmission launches (or after construction).
    fn bind(&mut self, topo: &Topology) {
        if self.n_nodes == topo.len() {
            return;
        }
        assert!(
            self.live == 0,
            "channel topology changed while transmissions are retained — use retune()"
        );
        self.n_nodes = topo.len();
        self.audible = vec![Audible::new(); self.n_nodes];
        self.own = vec![Vec::new(); self.n_nodes];
        self.air_until = vec![0; self.n_nodes];
        self.scratch.pileups = vec![(0, NodeId(0)); self.n_nodes];
    }

    /// Rebinds the index structures to a changed topology (node
    /// mobility): audible lists and carrier watermarks are recomputed
    /// from the retained records, so in-flight transmissions sense and
    /// resolve against the new geometry. Called by the engine from
    /// `Engine::set_topology`.
    pub fn retune(&mut self, topo: &Topology, _now: Slot) {
        if self.n_nodes != topo.len() {
            self.bind(topo);
            return;
        }
        for list in &mut self.audible {
            list.recs.clear();
        }
        // A pile-up verdict describes the old geometry.
        self.scratch.pileups.fill((0, NodeId(0)));
        // Records audible under the old geometry may not be under the
        // new one, so the watermarks restart from scratch. Every
        // retained record started in the past, so the rebuilt
        // watermarks stay exact for all future carrier-sense reads.
        for w in &mut self.air_until {
            *w = 0;
        }
        for (i, slot) in self.slab.iter().enumerate() {
            let Some(rec) = slot else { continue };
            let e = AirRef::of(i as u32, &rec.tx);
            let w = &mut self.air_until[e.src.index()];
            *w = (*w).max(e.end);
            for &r in topo.neighbors(e.src) {
                self.audible[r.index()].recs.push(e);
                let w = &mut self.air_until[r.index()];
                *w = (*w).max(e.end);
            }
        }
    }

    /// Grows the end-bucket ring after `max_len` increased: records are
    /// re-bucketed by end slot in launch order.
    fn rebuild_rings(&mut self) {
        self.ends = vec![Vec::new(); Self::end_ring_len(self.max_len)];
        let mut recs: Vec<(u64, AirRef)> = self
            .slab
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let rec = slot.as_ref()?;
                Some((rec.seq, AirRef::of(i as u32, &rec.tx)))
            })
            .collect();
        recs.sort_unstable_by_key(|&(seq, _)| seq);
        let er = self.ends.len() as u64;
        for (_, e) in recs {
            self.ends[(e.end % er) as usize].push(e);
        }
    }

    /// Starts a transmission at slot `now`. The topology supplies the
    /// audibility sets the incremental indexes are keyed on; it must be
    /// the same one later resolution calls use (the engine guarantees
    /// this, and re-keys via [`Channel::retune`] on mobility). Every
    /// frame ending at or before `now` must already be resolved, as the
    /// engine's phase order guarantees: a neighbor whose medium has
    /// fallen idle forgets its audible records here. Panics (debug) if
    /// the sender already has a frame on the air — MAC layers are
    /// half-duplex.
    pub fn begin_tx(&mut self, frame: Frame, now: Slot, topo: &Topology) {
        self.bind(topo);
        debug_assert!(
            !self.own[frame.src.index()].iter().any(|e| e.end > now),
            "station {} started a transmission while already transmitting",
            frame.src
        );
        let len = frame.slots.max(1);
        if len > self.max_len {
            self.max_len = len;
            self.rebuild_rings();
        }
        let end = now + Slot::from(len);
        self.latest_end = self.latest_end.max(end);
        self.ledger.mark_tx(frame.kind, now, end);
        if let Some(shadow) = &mut self.shadow {
            shadow.begin_tx(frame.clone(), now);
        }
        let src = frame.src;
        let rec = Rec {
            tx: Transmission {
                frame: Rc::new(frame),
                start: now,
                end,
            },
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i as usize] = Some(rec);
                i
            }
            None => {
                self.slab.push(Some(rec));
                (self.slab.len() - 1) as u32
            }
        };
        self.live += 1;
        let e = AirRef::of(idx, &self.rec(idx).tx);
        let er = self.ends.len() as u64;
        self.ends[(end % er) as usize].push(e);
        self.own[src.index()].push(e);
        let w = &mut self.air_until[src.index()];
        *w = (*w).max(end);
        let horizon = now.saturating_sub(Slot::from(self.max_len));
        for &r in topo.neighbors(src) {
            let w = &mut self.air_until[r.index()];
            self.audible[r.index()].push(e, now, *w, horizon);
            *w = (*w).max(end);
        }
    }

    /// The per-slot airtime ledger accumulated so far.
    pub fn ledger(&self) -> &AirtimeLedger {
        &self.ledger
    }

    /// Whether slot `slot` is dead air: every transmission ever begun
    /// ends strictly before it, so nothing resolves at `slot`, no
    /// station's carrier sense reads busy at `slot`, and (absent new
    /// transmissions) the same holds for every later slot. The engine's
    /// event-horizon stepper may only skip quiescent slots.
    pub fn quiescent_at(&self, slot: Slot) -> bool {
        self.latest_end < slot
    }

    #[inline]
    fn rec(&self, idx: u32) -> &Rec {
        self.slab[idx as usize]
            .as_ref()
            .expect("index lists only hold live records")
    }

    /// Whether the medium at `node` was busy during slot `now - 1`:
    /// true if any audible transmission (or the node's own) occupied it.
    /// At `now == 0` the medium has no history and reads idle. O(1)
    /// from the per-station carrier watermark, which is exact as long
    /// as every retained transmission started before `now` — the
    /// engine's phase order (all of a slot's carrier-sense reads
    /// precede its launches) guarantees this.
    pub fn busy_prev_slot(&self, node: NodeId, now: Slot, _topo: &Topology) -> bool {
        now > 0 && self.air_until.get(node.index()).is_some_and(|&w| w >= now)
    }

    /// Whether `node` has a frame of its own on the air at slot `now`.
    /// Served from the per-sender on-air list — O(frames `node` has
    /// retained), not O(all transmissions).
    pub fn is_transmitting(&self, node: NodeId, now: Slot) -> bool {
        self.own
            .get(node.index())
            .is_some_and(|list| list.iter().any(|e| e.occupies(now)))
    }

    /// Resolves all transmissions whose airtime ends at slot `now` and
    /// returns the decoded receptions plus collision records.
    pub fn resolve_ended(&mut self, now: Slot, topo: &Topology, rng: &mut SmallRng) -> SlotOutcome {
        let mut outcome = SlotOutcome::default();
        self.resolve_ended_into(now, topo, rng, &mut outcome);
        outcome
    }

    /// Like [`Channel::resolve_ended`], but clears and fills a
    /// caller-owned [`SlotOutcome`], reusing its vectors (and internal
    /// index scratch) across slots instead of allocating fresh ones.
    pub fn resolve_ended_into(
        &mut self,
        now: Slot,
        topo: &Topology,
        rng: &mut SmallRng,
        outcome: &mut SlotOutcome,
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);
        // Recycle the previous slot's collision sender lists before the
        // outcome is cleared: collision events are the only per-event
        // allocation left on the saturated resolve path.
        for c in outcome.collisions.drain(..) {
            if scratch.sender_pool.len() < 64 {
                let mut v = c.senders;
                v.clear();
                scratch.sender_pool.push(v);
            }
        }
        outcome.clear();
        if self.quiescent_at(now) {
            self.scratch = scratch;
            return;
        }
        let shadow_rng = self.shadow.as_ref().map(|_| rng.clone());
        let mut ended = std::mem::take(&mut scratch.ended);
        ended.clear();
        scratch.collided.clear();
        let er = self.ends.len() as u64;
        // Bucket order is launch order, matching the naive reference's
        // scan order — observable through burst-chain stepping and trace
        // event order. The end filter drops the stale residents a
        // prune-free caller can leave behind.
        ended.extend(
            self.ends[(now % er) as usize]
                .iter()
                .copied()
                .filter(|e| e.end == now),
        );
        for &e in &ended {
            let f = &self.rec(e.idx).tx;
            for &r in topo.neighbors(e.src) {
                self.resolve_at_receiver(f, e, r, topo, rng, outcome, &mut scratch);
            }
        }
        for &(s, e) in &scratch.collided {
            self.ledger.mark_collided(s, e);
        }
        scratch.ended = ended;
        self.scratch = scratch;
        if let Some(burst) = &mut self.burst {
            self.burst_errors_total += burst.apply(outcome);
        }
        if let Some(mut shadow) = self.shadow.take() {
            let mut srng = shadow_rng.expect("snapshotted above");
            let sout = shadow.resolve_shadow(now, topo, &mut srng);
            assert_eq!(
                &sout, &*outcome,
                "incremental and naive channel outcomes diverged at slot {now}"
            );
            assert!(
                srng == *rng,
                "incremental and naive channel RNG streams diverged at slot {now}"
            );
            assert_eq!(
                shadow.ledger(),
                &self.ledger,
                "airtime ledgers diverged at slot {now}"
            );
            for i in 0..topo.len() {
                let n = NodeId(i as u32);
                assert_eq!(
                    shadow.busy_prev_slot(n, now, topo),
                    self.busy_prev_slot(n, now, topo),
                    "carrier sense diverged at node {n} slot {now}"
                );
                assert_eq!(
                    shadow.is_transmitting(n, now),
                    self.is_transmitting(n, now),
                    "half-duplex state diverged at node {n} slot {now}"
                );
            }
            assert_eq!(
                shadow.any_active(now),
                self.any_active(now),
                "airtime occupancy diverged at slot {now}"
            );
            self.shadow = Some(shadow);
        }
    }

    /// Resolves one ended frame at one receiver. `f` is the full record
    /// behind `e` (fetched once per ended frame by the caller); every
    /// scan below runs on denormalized [`AirRef`] entries, so no slab
    /// access happens here besides the shared-payload clone on success.
    #[allow(clippy::too_many_arguments)]
    fn resolve_at_receiver(
        &self,
        f: &Transmission,
        e: AirRef,
        receiver: NodeId,
        topo: &Topology,
        rng: &mut SmallRng,
        outcome: &mut SlotOutcome,
        scratch: &mut ResolveScratch,
    ) {
        // A synchronized pile-up already judged here this slot: `e` is
        // one of its members (frames ending together overlap), and only
        // the strongest member has anything left to do. The first
        // member passed the half-duplex check for the shared interval,
        // and its collided intervals cover this frame's.
        let (slot, strongest) = scratch.pileups[receiver.index()];
        let judged = slot == e.end;
        if judged && strongest != e.src {
            return;
        }
        // Half-duplex: a station transmitting during the frame hears
        // nothing. Only the receiver's own on-air records are scanned.
        if self.own[receiver.index()]
            .iter()
            .any(|o| o.overlaps(e.start, e.end))
        {
            return;
        }
        // Interferers: other transmissions audible at the receiver that
        // overlap this frame in time. The audible list already encodes
        // the in-range predicate.
        let interferers = &mut scratch.interferers;
        interferers.clear();
        interferers.extend(
            self.audible[receiver.index()]
                .recs
                .iter()
                .copied()
                .filter(|t| t.idx != e.idx && t.overlaps(e.start, e.end)),
        );
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

        // Collision: the frame and every interferer burned their airtime
        // (even a capture rescue destroys the other frames of the
        // pile-up). Marking is idempotent per interval, so the dedup
        // here only trims repeated ledger calls.
        let collided = &mut scratch.collided;
        let iv = (e.start, e.end);
        if !collided.contains(&iv) {
            collided.push(iv);
        }
        for t in interferers.iter() {
            let iv = (t.start, t.end);
            if !collided.contains(&iv) {
                collided.push(iv);
            }
        }

        // Capture can only rescue a synchronized control-frame
        // pile-up: every frame involved must be a control frame occupying
        // exactly the same slots as `f`.
        let synchronized = e.ctrl
            && interferers
                .iter()
                .all(|t| t.ctrl && t.start == e.start && t.end == e.end);

        let mut captured = None;
        let senders_pool = &mut scratch.sender_pool;
        if synchronized {
            // Strongest signal = nearest sender (ties broken by id), per
            // the DS capture model.
            let strongest = if judged {
                strongest
            } else {
                let strongest = interferers
                    .iter()
                    .map(|t| t.src)
                    .chain(std::iter::once(e.src))
                    .min_by(|&a, &b| {
                        topo.distance(receiver, a)
                            .partial_cmp(&topo.distance(receiver, b))
                            .expect("distances are finite")
                            .then(a.cmp(&b))
                    })
                    .expect("at least one sender");
                scratch.pileups[receiver.index()] = (e.end, strongest);
                strongest
            };
            // Exactly one capture draw per pile-up per receiver: perform it
            // when resolving the strongest frame (only it can be captured).
            if strongest == e.src {
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
                // Record the pile-up once, from the strongest frame's
                // perspective.
                let mut senders = senders_pool.pop().unwrap_or_default();
                senders.extend(interferers.iter().map(|t| t.src));
                senders.push(e.src);
                senders.sort();
                outcome.collisions.push(CollisionEvent {
                    receiver,
                    senders,
                    captured,
                });
            }
        } else {
            let mut senders = senders_pool.pop().unwrap_or_default();
            senders.extend(interferers.iter().map(|t| t.src));
            senders.push(e.src);
            senders.sort();
            outcome.collisions.push(CollisionEvent {
                receiver,
                senders,
                captured: None,
            });
        }
    }

    /// Counts collision events into the running total. Called by the
    /// engine after tracing, so the trace and the counter agree.
    pub fn count_collisions(&mut self, n: usize) {
        self.collisions_total += n as u64;
    }

    /// Drops transmissions that can no longer interfere with anything:
    /// a frame ended at `e` can only overlap frames still on the air if
    /// one of them started before `e`, and any such frame has length
    /// greater than `now - e`; beyond the longest frame length seen, the
    /// record is garbage. Drains the end-bucket ring in end order, so
    /// each call is O(records actually expiring): each record leaves its
    /// sender's on-air list, and its receivers' audible lists forget it
    /// at their next idle launch or trim (see [`Audible`]).
    pub fn prune(&mut self, now: Slot) {
        let Some(limit) = now.checked_sub(Slot::from(self.max_len)) else {
            return;
        };
        // Buckets beyond the newest end are empty; after draining up to
        // there the cursor can jump (post-fast-forward calls would
        // otherwise walk millions of empty buckets).
        let drained = limit.min(self.latest_end);
        let er = self.ends.len() as u64;
        while self.prune_cursor <= drained {
            let b = (self.prune_cursor % er) as usize;
            if !self.ends[b].is_empty() {
                // While the cursor is still sweeping up from far behind
                // (fresh channel, post-fast-forward), a bucket can also
                // hold entries whose end merely aliases the cursor slot
                // modulo the ring — keep those, preserving launch order.
                let mut bucket = std::mem::take(&mut self.ends[b]);
                let mut keep = 0;
                for i in 0..bucket.len() {
                    let e = bucket[i];
                    if e.end == self.prune_cursor {
                        self.slab[e.idx as usize]
                            .take()
                            .expect("end buckets only hold live records");
                        let own = &mut self.own[e.src.index()];
                        if let Some(pos) = own.iter().position(|o| o.idx == e.idx) {
                            own.swap_remove(pos);
                        }
                        self.free.push(e.idx);
                        self.live -= 1;
                    } else {
                        debug_assert!(e.end > self.prune_cursor);
                        bucket[keep] = e;
                        keep += 1;
                    }
                }
                bucket.truncate(keep);
                self.ends[b] = bucket;
            }
            self.prune_cursor += 1;
        }
        self.prune_cursor = self.prune_cursor.max(limit + 1);
        if let Some(shadow) = &mut self.shadow {
            shadow.prune(now);
        }
    }

    /// Number of transmission records currently retained (active plus the
    /// short interference-history tail).
    pub fn records(&self) -> usize {
        self.live
    }

    /// Whether any transmission is on the air at slot `now`. O(1) from
    /// the global airtime watermark: a record ending after `now` is
    /// unprunable (hence retained) and, with time-ordered launches,
    /// started at or before `now` — so it occupies `now`. Exact for
    /// queries at or after the latest launch slot, which is the only
    /// pattern the engine (and the monotone shadow crosscheck) issues;
    /// strictly-past slots may over-report.
    pub fn any_active(&self, now: Slot) -> bool {
        self.latest_end > now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Dest, Frame, FrameKind};
    use crate::ids::MsgId;
    use rand::SeedableRng;
    use rmm_geom::Point;

    fn nid(n: u32) -> NodeId {
        NodeId(n)
    }

    fn mid(n: u32) -> MsgId {
        MsgId::new(nid(n), 0)
    }

    /// 0 and 2 both in range of 1; 0 and 2 hidden from each other.
    fn hidden_terminal_topo() -> Topology {
        Topology::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.15, 0.0),
                Point::new(0.3, 0.0),
            ],
            0.2,
        )
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    fn rts(src: u32, dst: u32) -> Frame {
        Frame::control(FrameKind::Rts, nid(src), Dest::Node(nid(dst)), 0, mid(src))
    }

    #[test]
    fn lone_transmission_is_received_by_all_neighbors() {
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        let mut r = rng();
        ch.begin_tx(rts(1, 0), 0, &topo);
        let out = ch.resolve_ended(1, &topo, &mut r);
        let mut receivers: Vec<NodeId> = out.receptions.iter().map(|x| x.receiver).collect();
        receivers.sort();
        assert_eq!(receivers, vec![nid(0), nid(2)]);
        assert!(out.collisions.is_empty());
    }

    #[test]
    fn out_of_range_node_hears_nothing() {
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        let mut r = rng();
        ch.begin_tx(rts(0, 1), 0, &topo);
        let out = ch.resolve_ended(1, &topo, &mut r);
        assert_eq!(out.receptions.len(), 1);
        assert_eq!(out.receptions[0].receiver, nid(1));
    }

    #[test]
    fn hidden_terminal_collision_at_middle_node() {
        // 0 and 2 transmit simultaneously: they cannot hear each other, and
        // their frames collide at 1 — the textbook hidden-terminal failure.
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        let mut r = rng();
        ch.begin_tx(rts(0, 1), 0, &topo);
        ch.begin_tx(rts(2, 1), 0, &topo);
        let out = ch.resolve_ended(1, &topo, &mut r);
        assert!(out.receptions.is_empty());
        assert_eq!(out.collisions.len(), 1);
        assert_eq!(out.collisions[0].receiver, nid(1));
        assert_eq!(out.collisions[0].senders, vec![nid(0), nid(2)]);
    }

    #[test]
    fn half_duplex_sender_misses_overlapping_frame() {
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        let mut r = rng();
        // 1 transmits a 1-slot frame while 0 also transmits: 1 is deaf.
        ch.begin_tx(rts(1, 2), 0, &topo);
        ch.begin_tx(rts(0, 1), 0, &topo);
        let out = ch.resolve_ended(1, &topo, &mut r);
        // Node 1's frame is heard fine by 0? No: 0 is transmitting too.
        // Node 2 hears 1's frame cleanly (0 is out of 2's range).
        assert_eq!(out.receptions.len(), 1);
        assert_eq!(out.receptions[0].receiver, nid(2));
        assert_eq!(out.receptions[0].frame.src, nid(1));
    }

    #[test]
    fn partial_overlap_destroys_long_frame() {
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::ZorziRao);
        let mut r = rng();
        // 0 sends 5-slot data to 1; 2 fires a control frame mid-way.
        ch.begin_tx(
            Frame::data(nid(0), Dest::Node(nid(1)), 0, mid(0), 5),
            0,
            &topo,
        );
        ch.begin_tx(rts(2, 1), 2, &topo);
        let out3 = ch.resolve_ended(3, &topo, &mut r);
        // The control frame also dies at 1 (overlap, not synchronized).
        assert!(out3.receptions.iter().all(|x| x.receiver != nid(1)));
        let out5 = ch.resolve_ended(5, &topo, &mut r);
        assert!(
            out5.receptions.is_empty(),
            "data frame should be destroyed at node 1"
        );
        assert_eq!(out5.collisions.len(), 1);
    }

    #[test]
    fn capture_none_never_rescues_synchronized_controls() {
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        let mut r = rng();
        ch.begin_tx(rts(0, 1), 0, &topo);
        ch.begin_tx(rts(2, 1), 0, &topo);
        let out = ch.resolve_ended(1, &topo, &mut r);
        assert!(out.receptions.is_empty());
    }

    #[test]
    fn capture_certain_rescues_strongest() {
        // Capture model that always captures: the nearer sender wins.
        let topo = Topology::new(
            vec![
                Point::new(0.0, 0.0),  // receiver... actually sender 0
                Point::new(0.05, 0.0), // receiver 1
                Point::new(0.2, 0.0),  // sender 2 (farther from 1)
            ],
            0.2,
        );
        let mut ch = Channel::new(Capture::Rayleigh { z0: 0.0 }); // prob = k·1 ≥ 1 → clamped to 1
        let mut r = rng();
        ch.begin_tx(rts(0, 1), 0, &topo);
        ch.begin_tx(rts(2, 1), 0, &topo);
        let out = ch.resolve_ended(1, &topo, &mut r);
        let got: Vec<_> = out
            .receptions
            .iter()
            .filter(|x| x.receiver == nid(1))
            .collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].frame.src, nid(0), "nearest sender must capture");
        assert!(got[0].captured);
    }

    #[test]
    fn capture_statistics_match_model() {
        // Two synchronized CTS frames, C_2 = 0.55: over many trials the
        // strongest should be captured roughly 55% of the time.
        let topo = Topology::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.05, 0.0),
                Point::new(0.2, 0.0),
            ],
            0.2,
        );
        let mut r = rng();
        let trials = 4000;
        let mut captured = 0;
        for i in 0..trials {
            let mut ch = Channel::new(Capture::ZorziRao);
            ch.begin_tx(rts(0, 1), i, &topo);
            ch.begin_tx(rts(2, 1), i, &topo);
            let out = ch.resolve_ended(i + 1, &topo, &mut r);
            captured += out
                .receptions
                .iter()
                .filter(|x| x.receiver == nid(1))
                .count();
        }
        let rate = captured as f64 / trials as f64;
        assert!(
            (rate - 0.55).abs() < 0.04,
            "capture rate {rate} too far from 0.55"
        );
    }

    #[test]
    fn busy_prev_slot_reflects_occupancy() {
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        ch.begin_tx(
            Frame::data(nid(0), Dest::Node(nid(1)), 0, mid(0), 5),
            0,
            &topo,
        );
        // Node 1 (in range): busy for decisions at slots 1..=5.
        assert!(!ch.busy_prev_slot(nid(1), 0, &topo));
        for t in 1..=5 {
            assert!(ch.busy_prev_slot(nid(1), t, &topo), "slot {t}");
        }
        assert!(!ch.busy_prev_slot(nid(1), 6, &topo));
        // Node 2 (out of 0's range): never busy.
        for t in 0..7 {
            assert!(!ch.busy_prev_slot(nid(2), t, &topo));
        }
        // The sender itself senses its own transmission.
        assert!(ch.busy_prev_slot(nid(0), 3, &topo));
    }

    #[test]
    fn is_transmitting_served_from_on_air_records() {
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        let mut r = rng();
        assert!(!ch.is_transmitting(nid(0), 0), "idle channel");
        ch.begin_tx(
            Frame::data(nid(0), Dest::Node(nid(1)), 0, mid(0), 5),
            2,
            &topo,
        );
        ch.begin_tx(rts(2, 1), 2, &topo);
        for t in 2..7 {
            assert!(ch.is_transmitting(nid(0), t), "slot {t}");
        }
        assert!(!ch.is_transmitting(nid(0), 1), "before airtime");
        assert!(!ch.is_transmitting(nid(0), 7), "after airtime");
        assert!(ch.is_transmitting(nid(2), 2));
        assert!(!ch.is_transmitting(nid(2), 3), "control frame ended");
        assert!(!ch.is_transmitting(nid(1), 4), "never transmitted");
        // The record outlives its airtime (interference history) but the
        // predicate stays false; once pruned it stays false too.
        let _ = ch.resolve_ended(3, &topo, &mut r);
        let _ = ch.resolve_ended(7, &topo, &mut r);
        ch.prune(100);
        assert_eq!(ch.records(), 0);
        assert!(!ch.is_transmitting(nid(0), 4));
    }

    #[test]
    fn prune_keeps_interference_history() {
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        let mut r = rng();
        // Long data from 0 at [0,5); short control from 2 at [0,1).
        ch.begin_tx(
            Frame::data(nid(0), Dest::Node(nid(1)), 0, mid(0), 5),
            0,
            &topo,
        );
        ch.begin_tx(rts(2, 1), 0, &topo);
        let _ = ch.resolve_ended(1, &topo, &mut r);
        ch.prune(1);
        // The ended control frame must survive pruning: it still overlaps
        // the ongoing data frame and must destroy it at slot 5.
        let out = ch.resolve_ended(5, &topo, &mut r);
        assert!(out.receptions.is_empty());
        // Eventually records are dropped.
        ch.prune(100);
        assert_eq!(ch.records(), 0);
    }

    #[test]
    fn burst_channel_drops_receptions_into_burst_errors() {
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        // p = 1, r = 0: every chain goes Bad on its first step and stays
        // there, so every otherwise clean reception is lost.
        ch.set_burst(GilbertElliott::new(1.0, 0.0), 9);
        let mut r = rng();
        for i in 0..5 {
            ch.begin_tx(rts(1, 0), i * 2, &topo);
            let out = ch.resolve_ended(i * 2 + 1, &topo, &mut r);
            assert!(out.receptions.is_empty());
            assert_eq!(out.burst_errors.len(), 2, "receivers 0 and 2");
            ch.prune(i * 2 + 1);
        }
        assert_eq!(ch.burst_errors_total, 10);
    }

    #[test]
    fn burst_p_zero_is_inert() {
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        ch.set_burst(GilbertElliott::new(0.0, 0.5), 9);
        let mut r = rng();
        ch.begin_tx(rts(1, 0), 0, &topo);
        let out = ch.resolve_ended(1, &topo, &mut r);
        assert_eq!(out.receptions.len(), 2);
        assert!(out.burst_errors.is_empty());
        assert_eq!(ch.burst_errors_total, 0);
    }

    #[test]
    fn any_active_tracks_airtime() {
        // Queries advance monotonically with the launches, matching the
        // engine's pattern (the O(1) watermark answers exactly for
        // `now` at or after the latest launch slot).
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        assert!(!ch.any_active(0));
        assert!(!ch.any_active(2));
        ch.begin_tx(rts(0, 1), 3, &topo);
        assert!(ch.any_active(3));
        assert!(!ch.any_active(4));
        ch.begin_tx(
            Frame::data(nid(0), Dest::Node(nid(1)), 0, mid(0), 3),
            5,
            &topo,
        );
        assert!(ch.any_active(5));
        assert!(ch.any_active(7));
        assert!(!ch.any_active(8));
    }

    #[test]
    fn crosscheck_shadows_a_saturated_history() {
        // Drive an irregular launch schedule (overlaps, pile-ups, FER,
        // bursts, long frames) with the naive shadow attached: every
        // resolve asserts byte-identical outcomes internally.
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::ZorziRao);
        ch.set_fer(0.05);
        ch.set_burst(GilbertElliott::new(0.1, 0.4), 7);
        ch.enable_crosscheck();
        let mut r = rng();
        let mut total = 0;
        // Engine phase order per slot: resolve first, then launch, then
        // prune — the crosscheck's carrier-sense asserts rely on every
        // retained record having started before the resolved slot.
        for slot in 0..200u64 {
            let out = ch.resolve_ended(slot, &topo, &mut r);
            total += out.receptions.len() + out.collisions.len();
            if slot % 3 == 0 && !ch.is_transmitting(nid(0), slot) {
                ch.begin_tx(
                    Frame::data(nid(0), Dest::Node(nid(1)), 4, mid(0), 4),
                    slot,
                    &topo,
                );
            }
            if slot % 5 == 0 && !ch.is_transmitting(nid(2), slot) {
                ch.begin_tx(rts(2, 1), slot, &topo);
            }
            if slot % 7 == 0 && !ch.is_transmitting(nid(1), slot) {
                ch.begin_tx(rts(1, 0), slot, &topo);
            }
            ch.prune(slot);
        }
        assert!(total > 0, "schedule produced no channel activity");
    }

    #[test]
    fn audible_list_resets_when_the_medium_falls_idle() {
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        let mut r = rng();
        // 0 sends to 1 with gaps: every launch finds 1's medium idle and
        // its list holding only the frames since, though pruning never
        // takes a record out of it.
        for slot in 0..40u64 {
            let _ = ch.resolve_ended(slot, &topo, &mut r);
            if slot % 3 == 0 {
                ch.begin_tx(rts(0, 1), slot, &topo);
                assert_eq!(ch.audible[1].recs.len(), 1, "slot {slot}");
            }
            ch.prune(slot);
        }
    }

    #[test]
    fn audible_list_stays_bounded_when_the_medium_never_idles() {
        // Hidden senders 0 and 2 alternate staggered 4-slot frames back
        // to back into 1, so 1's medium never falls idle and no launch
        // clears its list: only the trim bounds it.
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::ZorziRao);
        ch.enable_crosscheck();
        let mut r = rng();
        let mut longest = 0;
        let mut collisions = 0;
        for slot in 0..4000u64 {
            let out = ch.resolve_ended(slot, &topo, &mut r);
            collisions += out.collisions.len();
            if slot > 0 {
                assert!(ch.busy_prev_slot(nid(1), slot, &topo), "slot {slot}");
            }
            if slot % 2 == 0 {
                let src = (slot % 4) as u32;
                ch.begin_tx(
                    Frame::data(nid(src), Dest::Node(nid(1)), 0, mid(src), 4),
                    slot,
                    &topo,
                );
                longest = longest.max(ch.audible[1].recs.len());
            }
            ch.prune(slot);
        }
        assert!(
            longest <= Audible::TRIM_FLOOR,
            "receiver 1 listed {longest} records, bound {}",
            Audible::TRIM_FLOOR
        );
        // Every frame overlaps the other sender's, so each of the 1 998
        // that end within the run (all but the last two) collides at 1.
        assert_eq!(collisions, 1998);
    }

    #[test]
    fn max_len_growth_rebuilds_rings_consistently() {
        let topo = hidden_terminal_topo();
        let mut ch = Channel::new(Capture::None);
        ch.enable_crosscheck();
        let mut r = rng();
        // Short frames establish state, then a much longer frame forces a
        // ring rebuild mid-history; resolution must stay identical.
        ch.begin_tx(rts(2, 1), 0, &topo);
        let _ = ch.resolve_ended(1, &topo, &mut r);
        ch.begin_tx(
            Frame::data(nid(0), Dest::Node(nid(1)), 9, mid(0), 9),
            1,
            &topo,
        );
        for slot in 2..=12 {
            let _ = ch.resolve_ended(slot, &topo, &mut r);
            ch.prune(slot);
        }
        // The 9-slot frame's record stays until its interference window
        // closes (end 10 + max_len 9), then pruning drains it.
        assert_eq!(ch.records(), 1);
        ch.prune(19);
        assert_eq!(ch.records(), 0);
    }
}

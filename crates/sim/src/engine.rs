//! The slotted simulation engine.
//!
//! [`Engine::step`] advances the whole network by one slot:
//!
//! 1. transmissions whose airtime ends this slot are resolved against the
//!    channel (collisions, capture) and delivered via
//!    [`Station::on_receive`],
//! 2. every station gets an [`Station::on_slot`] call with its local
//!    carrier-sense state (the channel as of the *previous* slot) and may
//!    queue new transmissions,
//! 3. queued transmissions go on the air starting this slot.
//!
//! Stations starting in the same slot therefore cannot see each other —
//! the canonical slotted-CSMA collision mechanism.
//!
//! # Hot-path layout
//!
//! The per-station state the engine consults every slot lives in
//! contiguous struct-of-arrays form: reception/fault/sensitivity flags
//! are word-packed bitsets, wakeup hints are a flat `Slot` array, and
//! carrier sense is an O(1) watermark compare served by the channel. On
//! the event-horizon path ([`Engine::advance_to`]) these arrays form a
//! dispatch filter with one rule: a station that received nothing is
//! skipped while its hinted wakeup lies in the future and its medium is
//! idle or it is not carrier-sensitive. Those are exactly the slots in
//! which naive stepping cannot observably change it, so the run stays
//! bit-exact, and a carrier-sensitive station replays its skipped gap
//! as idle polls at its next dispatch.
//!
//! Most skipped stations are never visited, so a stepped slot costs
//! O(N/64 + active) rather than O(N). Hinted wakeups wait in a min-heap
//! of `(slot, station)` entries; at the top of each stepped slot the
//! entries that fell due move into a word-packed `due` set, and the
//! dispatcher walks only the set bits of `received | due | sensitive`,
//! in ascending station order, so the outbox, launch order, RNG draws
//! and trace order match naive stepping. A station outside that union
//! has a future wakeup and is not carrier-sensitive, so the rule skips
//! it. The fast-forward horizon is the heap's earliest live entry.
//! A station whose hint no longer describes it is marked due: it runs
//! on the next stepped slot and pushes its fresh hint. [`Engine::wake`]
//! marks one (an arrival, a reboot); [`Engine::new`],
//! [`Engine::set_topology`] and every naive [`Engine::step`] mark them
//! all. Heap entries a marking supersedes are dropped when they surface.

use crate::capture::Capture;
use crate::channel::{Channel, SlotOutcome};
use crate::fault::{FaultPlan, GilbertElliott};
use crate::frame::Frame;
use crate::ids::{NodeId, Slot};
use crate::topology::Topology;
use crate::trace::{Trace, TraceEvent};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rmm_stats::{Phase, ProfileReport, Profiler};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    words[i >> 6] & (1 << (i & 63)) != 0
}

#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1 << (i & 63);
}

/// The bits of word `w` that name one of `n` stations.
#[inline]
fn station_bits(n: usize, w: usize) -> u64 {
    u64::MAX >> (64 - (n - w * 64).min(64))
}

#[inline]
fn assign_bit(words: &mut [u64], i: usize, v: bool) {
    if v {
        words[i >> 6] |= 1 << (i & 63);
    } else {
        words[i >> 6] &= !(1 << (i & 63));
    }
}

/// Per-call context handed to stations.
pub struct Ctx<'a> {
    /// Current slot.
    pub now: Slot,
    /// The station being called.
    pub node: NodeId,
    /// Carrier sense: was the medium busy at this station during the
    /// previous slot?
    pub busy: bool,
    out: &'a mut Vec<Frame>,
    trace: Option<&'a mut Trace>,
}

impl Ctx<'_> {
    /// Puts `frame` on the air starting at the current slot. The frame's
    /// `src` must be the station itself.
    pub fn send(&mut self, frame: Frame) {
        debug_assert_eq!(frame.src, self.node, "stations may only send as themselves");
        self.out.push(frame);
    }

    /// Whether protocol events are being collected this run.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// Emits a protocol-phase event. The construction closure only runs
    /// when tracing is enabled, so emission costs one branch otherwise.
    #[inline]
    pub fn emit<F: FnOnce() -> TraceEvent>(&mut self, f: F) {
        if let Some(trace) = self.trace.as_mut() {
            trace.push(f());
        }
    }
}

/// A MAC entity driven by the engine. Implemented by every protocol in
/// the `rmm-mac` crate.
pub trait Station {
    /// A frame addressed to (or overheard by) this station was decoded.
    /// Called at the beginning of the slot following the frame's last
    /// airtime slot, before `on_slot`.
    fn on_receive(&mut self, frame: &Frame, captured: bool, ctx: &mut Ctx<'_>);

    /// Called once per slot, after receptions. The station may inspect
    /// carrier sense and queue transmissions starting this slot.
    fn on_slot(&mut self, ctx: &mut Ctx<'_>);

    /// Event-horizon hint: the earliest slot after `now` (the slot whose
    /// `on_slot` just ran) at which this station next needs an `on_slot`
    /// call, **assuming the medium stays idle at the station and no
    /// frame is delivered to it in between**. `None` means the station
    /// has nothing self-scheduled at all. Returning an earlier slot than
    /// necessary is always safe; returning a later one (or `None` while
    /// a countdown is pending) breaks the protocol, because
    /// [`Engine::advance_to`] skips the station's `on_slot` for every
    /// slot before the earliest hint while the station's medium stays
    /// idle and nothing is delivered to it.
    ///
    /// The default — wake every slot — makes fast-forwarding a no-op for
    /// stations that don't opt in, so it is always bit-exact.
    fn next_wakeup(&self, now: Slot) -> Option<Slot> {
        Some(now + 1)
    }

    /// Whether a busy medium (carrier sense) can change this station's
    /// `on_slot` behaviour right now. Stations that are not currently
    /// counting down a contention window may return `false`, letting the
    /// event-horizon dispatcher skip their `on_slot` on slots where only
    /// the medium changed. Returning `true` is always safe (the default);
    /// returning `false` while the station would actually react to a
    /// busy medium breaks bit-exactness with naive stepping.
    fn carrier_sensitive(&self) -> bool {
        true
    }

    /// The station's platform rebooted: a [`crate::FaultKind::Reboot`]
    /// blackout window just ended. The engine calls this at the top of
    /// the recovery slot, before any reception or `on_slot` in it, so
    /// the naive and event-horizon steppers agree by construction.
    /// Implementations should cold-reset transient MAC state (in-flight
    /// exchanges, virtual carrier sense, backoff) while keeping
    /// measurement state. Default: no-op.
    fn on_reset(&mut self, _now: Slot) {}
}

/// The slotted simulation engine: topology + channel + clock.
pub struct Engine {
    topo: Topology,
    channel: Channel,
    now: Slot,
    rng: SmallRng,
    trace: Option<Trace>,
    outbox: Vec<Frame>,
    /// Stations that had a frame delivered this slot (word-packed).
    received: Vec<u64>,
    /// Stations whose `on_slot` currently reacts to a busy medium
    /// (word-packed; refreshed with the wakeup hints).
    sensitive: Vec<u64>,
    /// Per-station next-wakeup hint, in absolute slots (`Slot::MAX` =
    /// nothing self-scheduled). Entry `i` was computed by
    /// `stations[i].next_wakeup` at the last slot the station ran, and
    /// stays exact until then because skipped slots are exactly the ones
    /// naive stepping could not have changed the station in.
    wake_at: Vec<Slot>,
    /// Pending hinted wakeups, a min-heap of `(slot, station)`. An entry
    /// is pushed whenever a station's hint changes, which it always does
    /// when a due station runs, so every finite future `wake_at[i]` has
    /// an entry, while an entry whose slot no longer equals
    /// `wake_at[station]` is stale and is dropped when it reaches the
    /// top.
    wakeups: BinaryHeap<Reverse<(Slot, u32)>>,
    /// Stations whose `wake_at` slot has arrived but that have not run
    /// since (word-packed): filled from `wakeups` at the top of each
    /// selective slot, set directly by [`Engine::wake`] and
    /// `Engine::wake_all`, and cleared when the station runs, which a
    /// due station always does in the slot it fell due.
    due: Vec<u64>,
    /// Scratch: per-station fault masks for the current slot
    /// (word-packed rx-blocked / tx-blocked bits).
    rx_blocked: Vec<u64>,
    tx_blocked: Vec<u64>,
    /// Per-slot resolution outcome, reused across slots.
    outcome: SlotOutcome,
    /// Slots fast-forwarded over by [`Engine::advance_to`] (monotone).
    slots_skipped: u64,
    /// Scheduled node faults (empty by default). A pure predicate of
    /// `(node, slot)`, so the fast and naive steppers agree exactly.
    faults: FaultPlan,
    /// Whether `faults` schedules any reboot — cached so the per-slot
    /// reboot scan and the horizon clamp cost one branch when it doesn't.
    has_reboots: bool,
    /// Per-station slot of the most recent transmission that actually
    /// reached the air (`None` = never). Liveness diagnostics for the
    /// workload watchdog; muted/crashed sends do not count.
    last_tx: Vec<Option<Slot>>,
    /// Phase-timer profiler, if enabled. Behind a box so the disabled
    /// case costs one null check per phase boundary. Profiling is a pure
    /// observer — it never draws from the RNG or touches dynamics, so
    /// profiled and unprofiled runs are bit-identical.
    prof: Option<Box<Profiler>>,
}

impl Engine {
    /// Creates an engine over `topo` with the given capture model and
    /// channel RNG seed.
    pub fn new(topo: Topology, capture: Capture, seed: u64) -> Self {
        let n = topo.len();
        let n_words = n.div_ceil(64);
        let mut engine = Engine {
            topo,
            channel: Channel::new(capture),
            now: 0,
            rng: SmallRng::seed_from_u64(seed),
            trace: None,
            outbox: Vec::new(),
            received: vec![0; n_words],
            sensitive: vec![0; n_words],
            wake_at: vec![0; n],
            wakeups: BinaryHeap::new(),
            due: vec![0; n_words],
            rx_blocked: vec![0; n_words],
            tx_blocked: vec![0; n_words],
            outcome: SlotOutcome::default(),
            slots_skipped: 0,
            faults: FaultPlan::default(),
            has_reboots: false,
            last_tx: vec![None; n],
            prof: None,
        };
        engine.wake_all();
        engine
    }

    /// Slot-sampling stride used by [`Engine::enable_profiling`]: one
    /// slot in four is timed (calls are counted on every slot). Chosen
    /// so profiling a saturated network costs well under the CI gate's
    /// 5% while the per-phase fractions still average over thousands of
    /// timed slots.
    pub const PROFILE_STRIDE: u64 = 4;

    /// Enables phase-timer profiling (disabled by default) at
    /// [`Engine::PROFILE_STRIDE`]. On timed slots each engine phase is
    /// lapped with chained monotonic-clock reads — one `Instant::now()`
    /// per phase boundary — on the rest only call counts advance;
    /// reported nanoseconds are stride-scaled whole-run estimates
    /// accumulated into a [`ProfileReport`].
    pub fn enable_profiling(&mut self) {
        self.prof = Some(Box::new(Profiler::with_stride(Self::PROFILE_STRIDE)));
    }

    /// Snapshot of the accumulated phase attribution, if profiling is
    /// enabled.
    pub fn profile(&self) -> Option<ProfileReport> {
        self.prof.as_ref().map(|p| p.report())
    }

    /// Takes the accumulated profile, leaving profiling disabled.
    pub fn take_profile(&mut self) -> Option<ProfileReport> {
        self.prof.take().map(|p| p.report())
    }

    /// Starts one profiled unit: registers it with the sampler and
    /// returns the armed mark if this unit is timed. `None` either
    /// means profiling is off or this unit is merely call-counted.
    #[inline]
    fn begin_profiled_unit(&mut self) -> Option<Instant> {
        self.prof
            .as_deref_mut()
            .is_some_and(|prof| prof.begin_unit())
            .then(Instant::now)
    }

    /// Records the time since `*mark` to `phase` and re-arms the mark;
    /// on unsampled units only the call count advances. No-op (one
    /// branch) when profiling is off.
    #[inline]
    fn lap(&mut self, mark: &mut Option<Instant>, phase: Phase) {
        if let Some(prof) = self.prof.as_deref_mut() {
            match mark {
                Some(m) => {
                    let now = Instant::now();
                    prof.record(phase, now.duration_since(*m).as_nanos() as u64);
                    *m = now;
                }
                None => prof.record_call(phase),
            }
        }
    }

    /// Sets the channel's independent frame error rate.
    pub fn set_fer(&mut self, fer: f64) {
        self.channel.set_fer(fer);
    }

    /// Enables the channel's differential shadow: every resolution is
    /// replayed against the naive full-rescan reference implementation
    /// and asserted byte-identical (see
    /// [`Channel::enable_crosscheck`]). Test instrumentation; must be
    /// called before any transmission.
    pub fn enable_channel_crosscheck(&mut self) {
        self.channel.enable_crosscheck();
    }

    /// Installs a fault plan. Crashed/deaf/rebooting nodes decode
    /// nothing while faulty; crashed/muted/rebooting nodes' frames are
    /// dropped before the air; a rebooting station is cold-reset (via
    /// [`Station::on_reset`]) at the top of its recovery slot.
    ///
    /// # Panics
    ///
    /// If the plan fails [`FaultPlan::validate`] against this engine's
    /// station count: out-of-range node ids, overlapping same-kind
    /// windows on one node, or a reboot with no recovery slot.
    pub fn set_faults(&mut self, faults: FaultPlan) {
        if let Err(e) = faults.validate(self.topo.len()) {
            panic!("invalid fault plan: {e}");
        }
        self.has_reboots = faults.has_reboots();
        self.faults = faults;
    }

    /// The installed fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Enables the Gilbert–Elliott burst-error channel with its own RNG
    /// stream seeded from `seed`.
    pub fn set_burst(&mut self, model: GilbertElliott, seed: u64) {
        self.channel.set_burst(model, seed);
    }

    /// Slot of `node`'s most recent transmission that reached the air.
    pub fn last_tx(&self, node: NodeId) -> Option<Slot> {
        self.last_tx[node.index()]
    }

    /// Enables event tracing (disabled by default; it allocates).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::new());
    }

    /// The trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Takes ownership of the trace, leaving tracing disabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Current slot (the next one to be stepped).
    pub fn now(&self) -> Slot {
        self.now
    }

    /// Total slots fast-forwarded over by [`Engine::advance_to`] so far.
    /// Skipped slots still advance the clock and the idle accounting;
    /// they just never reach the stations.
    pub fn slots_skipped(&self) -> u64 {
        self.slots_skipped
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Replaces the ground-truth topology (node mobility). Station count
    /// must not change. Transmissions already on the air resolve against
    /// the new geometry — acceptable at epoch granularity, since motion
    /// per frame airtime is negligible at realistic speeds. The
    /// channel's interference indexes are re-keyed to the new geometry
    /// and every station is marked due, so the next stepped slot runs
    /// each one and refreshes its hint.
    pub fn set_topology(&mut self, topo: Topology) {
        assert_eq!(topo.len(), self.topo.len(), "station count is fixed");
        self.topo = topo;
        self.channel.retune(&self.topo, self.now);
        self.wake_all();
    }

    /// Marks `node` for dispatch on the next stepped slot, regardless of
    /// its current wakeup hint. Callers that perturb a station from
    /// outside the engine (e.g. the workload runner handing it a traffic
    /// arrival) must call this so the event-horizon dispatcher does not
    /// skip the station's next `on_slot`.
    pub fn wake(&mut self, node: NodeId) {
        self.wake_at[node.index()] = self.now;
        set_bit(&mut self.due, node.index());
    }

    /// [`Engine::wake`] for every station: the next stepped slot runs
    /// each one and pushes its hint afresh. Sets no bit at or past the
    /// station count.
    fn wake_all(&mut self) {
        self.wake_at.fill(self.now);
        let n = self.wake_at.len();
        for (w, word) in self.due.iter_mut().enumerate() {
            *word = station_bits(n, w);
        }
    }

    /// The radio channel (for inspection in tests and stats).
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Advances the network by one slot. `stations[i]` is the MAC entity
    /// of `NodeId(i)`; the slice length must match the topology. Every
    /// station runs and no hint is kept, so all are left due.
    pub fn step<S: Station>(&mut self, stations: &mut [S]) {
        self.step_inner(stations, false);
        self.wake_all();
    }

    /// One slot. `selective` runs only the stations that received a
    /// frame, sense a busy medium while carrier-sensitive, or are due,
    /// refreshing their hints; otherwise every station runs and no hint
    /// is kept (the naive reference stepper).
    fn step_inner<S: Station>(&mut self, stations: &mut [S], selective: bool) {
        debug_assert_eq!(stations.len(), self.topo.len());
        let now = self.now;

        // Phase 0: reboot completions. A station whose blackout window
        // ends exactly now comes back with its MAC cold-reset before
        // anything else happens in this slot — [`Engine::advance_to`]
        // clamps its skip target to the next completion, so the reset
        // fires identically under naive and fast stepping.
        if self.has_reboots {
            let rebooted: Vec<NodeId> = self.faults.reboots_completing_at(now).collect();
            for node in rebooted {
                stations[node.index()].on_reset(now);
                // A cold reset reschedules the station arbitrarily, so
                // it runs this slot and refreshes its hint.
                self.wake(node);
            }
        }

        let mut mark = self.begin_profiled_unit();

        // Fault masks for the slot, word-packed.
        let faulty = !self.faults.is_empty();
        if faulty {
            self.faults
                .fill_masks(now, &mut self.rx_blocked, &mut self.tx_blocked);
        }
        self.lap(&mut mark, Phase::CarrierSense);

        // Phase 1: resolve frames ending now and deliver them.
        self.channel
            .resolve_ended_into(now, &self.topo, &mut self.rng, &mut self.outcome);
        // Fault injection, rx side: crashed/deaf receivers decode
        // nothing. Filtering happens *after* resolution so the channel's
        // RNG draws (FER, capture, burst) are identical with or without
        // a fault plan — only delivery is suppressed.
        if faulty {
            let rx_blocked = &self.rx_blocked;
            self.outcome
                .receptions
                .retain(|r| !bit(rx_blocked, r.receiver.index()));
        }
        if let Some(trace) = &mut self.trace {
            for c in &self.outcome.collisions {
                trace.push(TraceEvent::Collision {
                    slot: now,
                    node: c.receiver,
                    senders: c.senders.clone(),
                });
            }
            for r in &self.outcome.receptions {
                trace.push(TraceEvent::RxOk {
                    slot: now,
                    node: r.receiver,
                    from: r.frame.src,
                    kind: r.frame.kind,
                    captured: r.captured,
                });
            }
        }
        self.channel.count_collisions(self.outcome.collisions.len());
        self.lap(&mut mark, Phase::Resolve);
        for rec in &self.outcome.receptions {
            let node = rec.receiver;
            set_bit(&mut self.received, node.index());
            let mut ctx = Ctx {
                now,
                node,
                busy: self.channel.busy_prev_slot(node, now, &self.topo),
                out: &mut self.outbox,
                trace: self.trace.as_mut(),
            };
            stations[node.index()].on_receive(&rec.frame, rec.captured, &mut ctx);
        }
        self.lap(&mut mark, Phase::Deliver);

        // Phase 2: per-slot decisions. The selective mode runs exactly
        // the stations naive stepping could observably have changed this
        // slot: a delivered frame, a busy medium at a carrier-sensitive
        // station, or the station's own hinted wakeup. Only stations in
        // `received | due | sensitive` can be any of these; the rest are
        // never visited.
        if selective {
            while let Some(&Reverse((slot, i))) = self.wakeups.peek() {
                if slot > now {
                    break;
                }
                self.wakeups.pop();
                if self.wake_at[i as usize] == slot {
                    set_bit(&mut self.due, i as usize);
                }
            }
        }
        let n = stations.len();
        for w in 0..self.received.len() {
            let received = std::mem::take(&mut self.received[w]);
            let mut visit = if selective {
                received | self.due[w] | self.sensitive[w]
            } else {
                station_bits(n, w)
            };
            while visit != 0 {
                let b = visit.trailing_zeros() as usize;
                visit &= visit - 1;
                let i = w * 64 + b;
                let node = NodeId(i as u32);
                let busy = self.channel.busy_prev_slot(node, now, &self.topo);
                if selective
                    && received & (1 << b) == 0
                    && self.wake_at[i] > now
                    && !(busy && bit(&self.sensitive, i))
                {
                    continue;
                }
                let station = &mut stations[i];
                let mut ctx = Ctx {
                    now,
                    node,
                    busy,
                    out: &mut self.outbox,
                    trace: self.trace.as_mut(),
                };
                station.on_slot(&mut ctx);
                if selective {
                    // A hint at or before `now` means the next slot; the
                    // clamp keeps every live hint in the future, where
                    // it owns a heap entry. A due station's old hint lies
                    // at or before `now`, so it always pushes.
                    let wake = station
                        .next_wakeup(now)
                        .map_or(Slot::MAX, |s| s.max(now + 1));
                    if wake != Slot::MAX && wake != self.wake_at[i] {
                        self.wakeups.push(Reverse((wake, i as u32)));
                    }
                    self.wake_at[i] = wake;
                    assign_bit(&mut self.due, i, false);
                    assign_bit(&mut self.sensitive, i, station.carrier_sensitive());
                }
            }
        }
        self.lap(&mut mark, Phase::FsmDispatch);

        // Phase 3: new transmissions go on the air. Fault injection, tx
        // side: frames from crashed/muted stations are dropped before
        // the air — no trace event, no interference, no carrier sense.
        // The sender's own MAC bookkeeping already ran; it believes the
        // frame went out.
        for frame in self.outbox.drain(..) {
            if faulty && bit(&self.tx_blocked, frame.src.index()) {
                continue;
            }
            self.last_tx[frame.src.index()] = Some(now);
            if let Some(trace) = &mut self.trace {
                trace.tx_start(now, &frame);
            }
            self.channel.begin_tx(frame, now, &self.topo);
        }
        if self.channel.any_active(now) {
            self.channel.busy_slots += 1;
        }
        self.channel.prune(now);
        self.lap(&mut mark, Phase::TxLaunch);
        self.now = now + 1;
    }

    /// Runs `slots` steps, one by one (the naive reference stepper).
    pub fn run<S: Station>(&mut self, stations: &mut [S], slots: Slot) {
        for _ in 0..slots {
            self.step(stations);
        }
    }

    /// Advances the clock to `target`, fast-forwarding through dead air.
    ///
    /// After each processed slot, if the channel is quiescent (nothing
    /// on the air or still resolvable anywhere in the network), the
    /// clock jumps straight to the earliest cached [`Station::next_wakeup`]
    /// hint, clamped to `target`. Skipped slots are provably idle for
    /// every station — no receptions, no busy carrier sense, no channel
    /// RNG draws — so stations that honor the hint contract observe
    /// exactly the slot sequence naive stepping would have given them,
    /// and the run is bit-exact with [`Engine::run`]. Stepped slots use
    /// the same hints to dispatch only the stations the slot can
    /// observably affect.
    ///
    /// Callers that inject external events (traffic arrivals, topology
    /// changes) must advance to the event's slot first, apply it, and
    /// [`Engine::wake`] any station they touched, then continue — see
    /// the workload runner.
    pub fn advance_to<S: Station>(&mut self, stations: &mut [S], target: Slot) {
        while self.now < target {
            self.step_inner(stations, true);
            if self.now >= target || !self.channel.quiescent_at(self.now) {
                continue;
            }
            let mut mark = self.begin_profiled_unit();
            let mut horizon = target;
            // Never skip past a reboot completion: the recovery slot
            // must actually be stepped so the cold reset fires there.
            if self.has_reboots {
                if let Some(recovery) = self.faults.next_reboot_completion(self.now) {
                    horizon = horizon.min(recovery);
                }
            }
            // The hints are exact (each was computed the last time its
            // station ran, and skipped slots cannot change a station), so
            // the horizon is the earliest of them: the heap's earliest
            // live entry. No due station is left waiting, since the rule
            // never skips one.
            debug_assert!(self.due.iter().all(|&w| w == 0));
            while let Some(&Reverse((slot, i))) = self.wakeups.peek() {
                if self.wake_at[i as usize] == slot {
                    horizon = horizon.min(slot);
                    break;
                }
                self.wakeups.pop();
            }
            self.lap(&mut mark, Phase::HorizonScan);
            self.slots_skipped += horizon - self.now;
            self.now = horizon;
        }
    }

    /// Runs `slots` slots' worth of simulated time using the
    /// event-horizon fast path (see [`Engine::advance_to`]).
    pub fn run_fast<S: Station>(&mut self, stations: &mut [S], slots: Slot) {
        let target = self.now + slots;
        self.advance_to(stations, target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{Dest, FrameKind};
    use crate::ids::MsgId;
    use rmm_geom::Point;

    /// A scripted station: transmits given frames at given slots, records
    /// everything it hears.
    #[derive(Default)]
    struct Scripted {
        plan: Vec<(Slot, Frame)>,
        heard: Vec<(Slot, NodeId, FrameKind)>,
        busy_log: Vec<bool>,
        resets: Vec<Slot>,
    }

    impl Station for Scripted {
        fn on_receive(&mut self, frame: &Frame, _captured: bool, ctx: &mut Ctx<'_>) {
            self.heard.push((ctx.now, frame.src, frame.kind));
        }
        fn on_slot(&mut self, ctx: &mut Ctx<'_>) {
            self.busy_log.push(ctx.busy);
            while let Some(pos) = self.plan.iter().position(|(s, _)| *s == ctx.now) {
                let (_, frame) = self.plan.remove(pos);
                ctx.send(frame);
            }
        }
        fn on_reset(&mut self, now: Slot) {
            self.resets.push(now);
        }
    }

    fn pair_topo() -> Topology {
        Topology::new(vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0)], 0.2)
    }

    fn rts(src: u32, dst: u32) -> Frame {
        Frame::control(
            FrameKind::Rts,
            NodeId(src),
            Dest::Node(NodeId(dst)),
            0,
            MsgId::new(NodeId(src), 0),
        )
    }

    #[test]
    fn frame_is_delivered_next_slot() {
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        let mut st = vec![
            Scripted {
                plan: vec![(0, rts(0, 1))],
                ..Default::default()
            },
            Scripted::default(),
        ];
        eng.run(&mut st, 3);
        assert_eq!(st[1].heard, vec![(1, NodeId(0), FrameKind::Rts)]);
    }

    #[test]
    fn carrier_sense_lags_one_slot() {
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        let mut st = vec![
            Scripted {
                plan: vec![(0, rts(0, 1))],
                ..Default::default()
            },
            Scripted::default(),
        ];
        eng.run(&mut st, 3);
        // Node 1: slot 0 idle (no history), slot 1 busy (slot 0 had the
        // RTS), slot 2 idle again.
        assert_eq!(st[1].busy_log, vec![false, true, false]);
    }

    #[test]
    fn simultaneous_starts_collide() {
        let mut eng = Engine::new(
            Topology::new(
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(0.1, 0.0),
                    Point::new(0.2, 0.0),
                ],
                0.15,
            ),
            Capture::None,
            1,
        );
        // 0 and 2 both transmit at slot 0; they are hidden from each other
        // and both frames die at 1.
        let mut st = vec![
            Scripted {
                plan: vec![(0, rts(0, 1))],
                ..Default::default()
            },
            Scripted::default(),
            Scripted {
                plan: vec![(0, rts(2, 1))],
                ..Default::default()
            },
        ];
        eng.run(&mut st, 3);
        assert!(st[1].heard.is_empty());
        assert_eq!(eng.channel().collisions_total, 1);
    }

    #[test]
    fn trace_records_tx_and_rx() {
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        eng.enable_trace();
        let mut st = vec![
            Scripted {
                plan: vec![(0, rts(0, 1))],
                ..Default::default()
            },
            Scripted::default(),
        ];
        eng.run(&mut st, 3);
        let evs = eng.trace().unwrap().events();
        assert!(matches!(evs[0], TraceEvent::TxStart { slot: 0, .. }));
        assert!(matches!(evs[1], TraceEvent::RxOk { slot: 1, .. }));
    }

    #[test]
    fn data_frame_occupies_multiple_slots() {
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        let data = Frame::data(
            NodeId(0),
            Dest::Node(NodeId(1)),
            0,
            MsgId::new(NodeId(0), 0),
            5,
        );
        let mut st = vec![
            Scripted {
                plan: vec![(0, data)],
                ..Default::default()
            },
            Scripted::default(),
        ];
        eng.run(&mut st, 8);
        assert_eq!(st[1].heard, vec![(5, NodeId(0), FrameKind::Data)]);
        // Busy during decisions at slots 1..=5.
        assert_eq!(
            st[1].busy_log,
            vec![false, true, true, true, true, true, false, false]
        );
    }

    /// Periodic station: wants `on_slot` only at multiples of `period`,
    /// optionally transmitting a scripted frame first.
    struct Dozer {
        period: Slot,
        seen: Vec<Slot>,
        plan: Vec<(Slot, Frame)>,
        resets: Vec<Slot>,
    }

    impl Dozer {
        fn new(period: Slot) -> Self {
            Dozer {
                period,
                seen: Vec::new(),
                plan: Vec::new(),
                resets: Vec::new(),
            }
        }
    }

    impl Station for Dozer {
        fn on_receive(&mut self, _frame: &Frame, _captured: bool, _ctx: &mut Ctx<'_>) {}
        fn on_slot(&mut self, ctx: &mut Ctx<'_>) {
            self.seen.push(ctx.now);
            while let Some(pos) = self.plan.iter().position(|(s, _)| *s == ctx.now) {
                let (_, frame) = self.plan.remove(pos);
                ctx.send(frame);
            }
        }
        fn next_wakeup(&self, now: Slot) -> Option<Slot> {
            Some((now / self.period + 1) * self.period)
        }
        fn on_reset(&mut self, now: Slot) {
            self.resets.push(now);
        }
    }

    #[test]
    fn fast_path_skips_dead_air_between_wakeups() {
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        let mut st = vec![Dozer::new(10), Dozer::new(10)];
        eng.run_fast(&mut st, 30);
        assert_eq!(eng.now(), 30);
        assert_eq!(st[0].seen, vec![0, 10, 20]);
        assert_eq!(st[1].seen, vec![0, 10, 20]);
        assert_eq!(eng.slots_skipped(), 27);
    }

    #[test]
    fn alternating_naive_and_fast_stepping_matches_a_pure_run() {
        // Naive steps keep no hints and leave every station due, so
        // each `advance_to` after them first runs every station and
        // pushes its hint afresh, down to stations whose hint did not
        // change: both still want slot 10 across the naive steps at 3
        // and 4.
        let mk = || {
            let mut st = vec![Dozer::new(10), Dozer::new(10)];
            st[0].plan = [10, 20, 40].map(|s| (s, rts(0, 1))).to_vec();
            st[1].plan = vec![(30, rts(1, 0))];
            st
        };
        let mut pure = Engine::new(pair_topo(), Capture::None, 1);
        pure.enable_trace();
        pure.run(&mut mk(), 50);
        let mut mixed = Engine::new(pair_topo(), Capture::None, 1);
        mixed.enable_trace();
        let mut st = mk();
        for (naive_steps, fast_to) in [(0, 3), (2, 15), (1, 23), (3, 35), (0, 50)] {
            for _ in 0..naive_steps {
                mixed.step(&mut st);
            }
            mixed.advance_to(&mut st, fast_to);
        }
        assert_eq!(mixed.now(), 50);
        assert!(mixed.slots_skipped() > 0, "the fast path never skipped");
        let events = |eng: &Engine| eng.trace().unwrap().events().to_vec();
        assert_eq!(
            events(&pure).len(),
            8,
            "four RTS frames, each sent and heard"
        );
        assert_eq!(events(&pure), events(&mixed));
    }

    #[test]
    fn fast_path_never_skips_while_frames_are_on_the_air() {
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        let mut a = Dozer::new(10);
        // A 3-slot data frame at slot 0 keeps the channel non-quiescent
        // through slot 3 (resolution slot), forcing stepped slots there
        // even though the hint asks for slot 10; both stations' media are
        // busy (sender + in-range receiver), so both stay dispatched.
        a.plan.push((
            0,
            Frame::data(
                NodeId(0),
                Dest::Node(NodeId(1)),
                0,
                MsgId::new(NodeId(0), 0),
                3,
            ),
        ));
        let mut st = vec![a, Dozer::new(10)];
        eng.run_fast(&mut st, 30);
        assert_eq!(st[0].seen, vec![0, 1, 2, 3, 10, 20]);
        assert_eq!(st[1].seen, vec![0, 1, 2, 3, 10, 20]);
    }

    #[test]
    fn fast_path_is_inert_for_default_hint_stations() {
        let plan = vec![(0, rts(0, 1)), (7, rts(0, 1))];
        let mk = |plan: Vec<(Slot, Frame)>| {
            vec![
                Scripted {
                    plan,
                    ..Default::default()
                },
                Scripted::default(),
            ]
        };
        let mut naive = Engine::new(pair_topo(), Capture::None, 1);
        let mut st_naive = mk(plan.clone());
        naive.run(&mut st_naive, 12);
        let mut fast = Engine::new(pair_topo(), Capture::None, 1);
        let mut st_fast = mk(plan);
        fast.run_fast(&mut st_fast, 12);
        assert_eq!(fast.slots_skipped(), 0, "default hint wakes every slot");
        assert_eq!(st_naive[1].heard, st_fast[1].heard);
        assert_eq!(st_naive[1].busy_log, st_fast[1].busy_log);
    }

    #[test]
    fn selective_dispatch_wakes_on_busy_medium_only_when_sensitive() {
        /// Hints far in the future, logs every `on_slot` slot, and
        /// optionally transmits at slot 3; sensitivity is configurable.
        struct Watcher {
            sensitive: bool,
            tx_at_3: bool,
            seen: Vec<Slot>,
            heard: Vec<Slot>,
        }
        impl Station for Watcher {
            fn on_receive(&mut self, _f: &Frame, _c: bool, ctx: &mut Ctx<'_>) {
                self.heard.push(ctx.now);
            }
            fn on_slot(&mut self, ctx: &mut Ctx<'_>) {
                self.seen.push(ctx.now);
                if self.tx_at_3 && ctx.now == 3 {
                    ctx.send(rts(ctx.node.0, (ctx.node.0 + 1) % 3));
                }
            }
            fn next_wakeup(&self, now: Slot) -> Option<Slot> {
                if self.tx_at_3 && now < 3 {
                    Some(3)
                } else {
                    Some(now + 1_000_000)
                }
            }
            fn carrier_sensitive(&self) -> bool {
                self.sensitive
            }
        }
        // Three stations in one radio range: 0 transmits at slot 3,
        // 1 is carrier-sensitive, 2 is not.
        let topo = Topology::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.05, 0.0),
                Point::new(0.1, 0.0),
            ],
            0.2,
        );
        let mk = |sensitive, tx_at_3| Watcher {
            sensitive,
            tx_at_3,
            seen: Vec::new(),
            heard: Vec::new(),
        };
        let mut eng = Engine::new(topo, Capture::None, 1);
        let mut st = vec![mk(false, true), mk(true, false), mk(false, false)];
        eng.run_fast(&mut st, 8);
        // At slot 0 every station is due (everyone runs). The
        // RTS airs at slot 3 and resolves at 4, so slot-4 media read
        // busy: the sensitive watcher runs at 4, the insensitive one
        // does not — but both receive the frame at 4 (delivery always
        // dispatches the receiving station's on_slot too).
        assert_eq!(st[0].seen, vec![0, 3]);
        assert_eq!(st[1].seen, vec![0, 4]);
        assert_eq!(st[2].seen, vec![0, 4]);
        assert_eq!(st[1].heard, vec![4]);
        assert_eq!(st[2].heard, vec![4]);
    }

    #[test]
    fn crashed_node_neither_sends_nor_receives() {
        use crate::fault::FaultPlan;
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        eng.set_faults(FaultPlan::new().crash(NodeId(0), 3));
        let mut st = vec![
            Scripted {
                plan: vec![(0, rts(0, 1)), (5, rts(0, 1))],
                ..Default::default()
            },
            Scripted {
                plan: vec![(7, rts(1, 0))],
                ..Default::default()
            },
        ];
        eng.run(&mut st, 10);
        // The pre-crash frame arrives; the post-crash one is dropped.
        assert_eq!(st[1].heard, vec![(1, NodeId(0), FrameKind::Rts)]);
        // The crashed node decodes nothing.
        assert!(st[0].heard.is_empty());
        assert_eq!(eng.last_tx(NodeId(0)), Some(0));
        assert_eq!(eng.last_tx(NodeId(1)), Some(7));
    }

    #[test]
    fn deaf_window_blocks_decode_then_recovers() {
        use crate::fault::FaultPlan;
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        // Frames resolve at slot start+1; deafness covers the first one.
        eng.set_faults(FaultPlan::new().deaf(NodeId(1), 0, 3));
        let mut st = vec![
            Scripted {
                plan: vec![(0, rts(0, 1)), (4, rts(0, 1))],
                ..Default::default()
            },
            Scripted::default(),
        ];
        eng.run(&mut st, 8);
        assert_eq!(st[1].heard, vec![(5, NodeId(0), FrameKind::Rts)]);
        // Carrier sense still works while deaf: slot 1 reads busy.
        assert!(st[1].busy_log[1]);
    }

    #[test]
    fn muted_sender_is_silent_on_the_air() {
        use crate::fault::FaultPlan;
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        eng.enable_trace();
        eng.set_faults(FaultPlan::new().mute(NodeId(0), 0, 10));
        let mut st = vec![
            Scripted {
                plan: vec![(2, rts(0, 1))],
                ..Default::default()
            },
            Scripted::default(),
        ];
        eng.run(&mut st, 6);
        assert!(st[1].heard.is_empty());
        // No TxStart trace, no carrier sense, no last_tx: the frame
        // never existed as far as the network is concerned.
        assert!(eng.trace().unwrap().events().is_empty());
        assert!(st[1].busy_log.iter().all(|&b| !b));
        assert_eq!(eng.last_tx(NodeId(0)), None);
    }

    #[test]
    fn reboot_blocks_radio_then_resets_at_recovery() {
        use crate::fault::FaultPlan;
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        eng.set_faults(FaultPlan::new().reboot(NodeId(1), 2, 6));
        let mut st = vec![
            Scripted {
                plan: vec![(0, rts(0, 1)), (3, rts(0, 1)), (7, rts(0, 1))],
                ..Default::default()
            },
            Scripted {
                plan: vec![(4, rts(1, 0))],
                ..Default::default()
            },
        ];
        eng.run(&mut st, 10);
        // Pre-window and post-window frames arrive; the mid-window one is
        // lost (rx dead) and node 1's own frame never airs (tx dead).
        assert_eq!(
            st[1].heard,
            vec![
                (1, NodeId(0), FrameKind::Rts),
                (8, NodeId(0), FrameKind::Rts)
            ]
        );
        assert!(st[0].heard.is_empty());
        assert_eq!(eng.last_tx(NodeId(1)), None);
        // Exactly one cold reset, at the recovery slot, only for node 1.
        assert_eq!(st[1].resets, vec![6]);
        assert!(st[0].resets.is_empty());
    }

    #[test]
    fn fast_path_steps_the_reboot_recovery_slot() {
        use crate::fault::FaultPlan;
        // The recovery slot (17) is aligned with no wakeup hint (period
        // 10): without the horizon clamp the fast path would skip it and
        // never fire the reset.
        let run = |fast: bool| {
            let mut eng = Engine::new(pair_topo(), Capture::None, 1);
            eng.set_faults(FaultPlan::new().reboot(NodeId(1), 3, 17));
            let mut st = vec![Dozer::new(10), Dozer::new(10)];
            if fast {
                eng.run_fast(&mut st, 30);
            } else {
                eng.run(&mut st, 30);
            }
            (st[1].seen.clone(), st[1].resets.clone())
        };
        let (_, naive_resets) = run(false);
        let (fast_seen, fast_resets) = run(true);
        assert_eq!(naive_resets, vec![17]);
        assert_eq!(fast_resets, vec![17], "fast path missed the reset slot");
        // The reset forces the rebooted station awake at the recovery
        // slot even though its own hint said 20.
        assert!(fast_seen.contains(&17), "recovery slot was skipped");
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn set_faults_rejects_out_of_range_nodes() {
        use crate::fault::FaultPlan;
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        eng.set_faults(FaultPlan::new().crash(NodeId(7), 10));
    }

    #[test]
    fn run_advances_clock() {
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        let mut st = vec![Scripted::default(), Scripted::default()];
        assert_eq!(eng.now(), 0);
        eng.run(&mut st, 10);
        assert_eq!(eng.now(), 10);
    }

    #[test]
    fn profiling_attributes_time_without_changing_the_run() {
        let mk = || {
            vec![
                Scripted {
                    plan: vec![(0, rts(0, 1)), (5, rts(0, 1))],
                    ..Default::default()
                },
                Scripted::default(),
            ]
        };
        let mut plain = Engine::new(pair_topo(), Capture::None, 1);
        let mut st_plain = mk();
        plain.run(&mut st_plain, 10);

        let mut profiled = Engine::new(pair_topo(), Capture::None, 1);
        profiled.enable_profiling();
        let mut st_prof = mk();
        profiled.run_fast(&mut st_prof, 10);

        assert_eq!(st_plain[1].heard, st_prof[1].heard);
        assert_eq!(st_plain[1].busy_log, st_prof[1].busy_log);
        let report = profiled.take_profile().expect("profiling was enabled");
        for name in [
            "carrier_sense",
            "resolve",
            "deliver",
            "fsm_dispatch",
            "tx_launch",
        ] {
            let p = report.phase(name).unwrap();
            assert_eq!(p.calls, 10, "{name} laps once per stepped slot");
        }
        assert!(
            profiled.profile().is_none(),
            "take_profile disables profiling"
        );
        assert!(plain.profile().is_none());
    }

    #[test]
    fn ledger_busy_slots_match_channel_counter() {
        let mut eng = Engine::new(pair_topo(), Capture::None, 1);
        let data = Frame::data(
            NodeId(0),
            Dest::Node(NodeId(1)),
            0,
            MsgId::new(NodeId(0), 0),
            5,
        );
        let mut st = vec![
            Scripted {
                plan: vec![(0, rts(0, 1)), (3, data)],
                ..Default::default()
            },
            Scripted {
                plan: vec![(10, rts(1, 0))],
                ..Default::default()
            },
        ];
        eng.run(&mut st, 12);
        let b = eng.channel().ledger().breakdown(eng.now());
        assert_eq!(b.busy_slots(), eng.channel().busy_slots);
        assert_eq!(
            b.idle_slots + b.data_slots + b.control_slots + b.collision_slots,
            12
        );
        assert_eq!(b.by_kind.rts, 2);
        assert_eq!(b.by_kind.data, 5);
    }
}

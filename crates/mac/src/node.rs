//! The MAC station: glue between the simulator's [`Station`] trait, the
//! shared receiver behaviour (CTS/ACK/NAK replies, NAV yielding,
//! promiscuous data caching) and the per-protocol sender FSMs.
//!
//! The station keeps the one clock of its sender: each frame an FSM puts
//! on the air comes back as a [`Flow::Await`] naming the slot where the
//! exchange's response window closes or its airtime ends. The node
//! stores it in `Active::at`, calls [`Fsm::on_slot`] when that slot
//! arrives, and offers it to the engine as its wakeup hint.

use crate::contention::{next_cw, Contention};
use crate::nav::Nav;
use crate::protocols::{Env, Flow, Fsm, ProtocolKind};
use crate::request::{Request, TrafficKind};
use crate::stats::{NodeCounters, Outcome, SentRecord};
use crate::timing::MacTiming;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rmm_geom::Point;
use rmm_sim::{
    Ctx, Dest, Frame, FrameInfo, FrameKind, MsgId, MsgSet, NodeId, Slot, Station, Topology,
    TraceEvent,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Receiver-side wait-for-data state: after a group RTS, a BSMA receiver
/// (which answered with a CTS) or a leader-scheme non-leader (which
/// stayed silent) expects the data by `deadline` and NAKs the sender
/// otherwise — BSMA's WAIT_FOR_DATA and the leader scheme's ACK-slot jam.
#[derive(Debug, Clone)]
struct WaitData {
    msg: MsgId,
    sender: NodeId,
    deadline: Slot,
}

/// Node state shared between the receiver logic and the sender FSMs.
#[derive(Debug)]
pub struct NodeCore {
    /// This station's id.
    pub id: NodeId,
    /// Protocol under test for multicast/broadcast traffic.
    pub protocol: ProtocolKind,
    /// MAC timing parameters.
    pub timing: MacTiming,
    neighbors: Vec<NodeId>,
    positions: Arc<Vec<Point>>,
    radius: f64,
    /// Station-local randomness (backoff draws).
    pub rng: SmallRng,
    /// Virtual carrier sense.
    pub nav: Nav,
    /// End of this station's own transmission, if one is on the air.
    pub tx_until: Slot,
    received: MsgSet,
    wait_data: Vec<WaitData>,
    /// Running counters.
    pub counters: NodeCounters,
    records: Vec<SentRecord>,
    seq: u32,
}

impl NodeCore {
    /// All station positions (beacon-learned; LAMM reads only neighbors').
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Shared transmission radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// This station's neighbors.
    pub fn neighbors(&self) -> &[NodeId] {
        &self.neighbors
    }

    /// Data messages this station has decoded.
    pub fn received(&self) -> &MsgSet {
        &self.received
    }

    /// Puts a frame on the air with node-level bookkeeping. Used by both
    /// the sender FSMs (via [`Env::send`]) and receiver responses.
    pub fn transmit(&mut self, ctx: &mut Ctx<'_>, frame: Frame) {
        debug_assert!(self.tx_until <= ctx.now);
        self.tx_until = ctx.now + Slot::from(frame.slots);
        self.counters.sent_by_kind.bump(frame.kind);
        ctx.send(frame);
    }

    /// Arms a wait for the data of the group RTS `rts` (see [`WaitData`]),
    /// unless this station already holds the message or waits for it.
    fn await_data(&mut self, rts: &Frame, now: Slot) {
        if self.received.contains(&rts.msg) || self.wait_data.iter().any(|w| w.msg == rts.msg) {
            return;
        }
        let t = self.timing;
        self.wait_data.push(WaitData {
            msg: rts.msg,
            sender: rts.src,
            deadline: now + Slot::from(t.control_slots) + Slot::from(t.data_slots),
        });
    }
}

/// The sender side of one in-service message.
#[derive(Debug)]
struct Active {
    req: Request,
    started: Slot,
    phases: u32,
    cw: u32,
    contention: Contention,
    contending: bool,
    fsm: Fsm,
    /// The slot where the pending exchange's response window closes or
    /// its airtime ends (the last [`Flow::Await`]); [`Fsm::on_slot`] runs
    /// there. Meaningless while `contending`.
    at: Slot,
    data_tx: u32,
    control_tx: u32,
    /// Consecutive failed recontentions (`reset_cw: false`); cleared by
    /// forward progress (`reset_cw: true`). Capped at
    /// `timing.retry_limit` for every protocol, mirroring DCF.
    retries: u32,
}

/// A complete MAC station.
#[derive(Debug)]
pub struct MacNode {
    core: NodeCore,
    queue: VecDeque<Request>,
    active: Option<Active>,
    /// First slot whose `on_slot` has not run yet. When the engine
    /// fast-forwards, this lags `ctx.now` and the gap is replayed by
    /// [`MacNode::catch_up`].
    next_poll: Slot,
}

enum DriveMode {
    None,
    Access,
    Slot,
}

impl MacNode {
    /// Builds a station. `topo` provides neighbors and positions; `seed`
    /// derives the station's private RNG stream.
    pub fn new(
        id: NodeId,
        protocol: ProtocolKind,
        timing: MacTiming,
        topo: &Topology,
        positions: Arc<Vec<Point>>,
        seed: u64,
    ) -> Self {
        MacNode {
            core: NodeCore {
                id,
                protocol,
                timing,
                neighbors: topo.neighbors(id).to_vec(),
                positions,
                radius: topo.radius(),
                rng: SmallRng::seed_from_u64(seed ^ (u64::from(id.0) << 32) ^ 0x9e37_79b9),
                nav: Nav::new(),
                tx_until: 0,
                received: MsgSet::default(),
                wait_data: Vec::new(),
                counters: NodeCounters::default(),
                records: Vec::new(),
                seq: 0,
            },
            queue: VecDeque::new(),
            active: None,
            next_poll: 0,
        }
    }

    /// Builds one station per topology node, all running `protocol`.
    pub fn build_network(
        topo: &Topology,
        protocol: ProtocolKind,
        timing: MacTiming,
        seed: u64,
    ) -> Vec<MacNode> {
        let positions = Arc::new(topo.positions().to_vec());
        Self::build_network_with_positions(topo, positions, protocol, timing, seed)
    }

    /// Builds the network with an explicit *advertised* position table —
    /// what stations learned from beacons, which may differ from the
    /// channel's ground truth (GPS error). LAMM reads only this table.
    pub fn build_network_with_positions(
        topo: &Topology,
        advertised: Arc<Vec<Point>>,
        protocol: ProtocolKind,
        timing: MacTiming,
        seed: u64,
    ) -> Vec<MacNode> {
        assert_eq!(advertised.len(), topo.len());
        (0..topo.len() as u32)
            .map(|i| {
                MacNode::new(
                    NodeId(i),
                    protocol,
                    timing,
                    topo,
                    Arc::clone(&advertised),
                    seed,
                )
            })
            .collect()
    }

    /// Shared node state (tests and harnesses).
    pub fn core(&self) -> &NodeCore {
        &self.core
    }

    /// Sender-side records accumulated so far.
    pub fn records(&self) -> &[SentRecord] {
        &self.core.records
    }

    /// Data messages this station decoded.
    pub fn received(&self) -> &MsgSet {
        &self.core.received
    }

    /// Running counters.
    pub fn counters(&self) -> NodeCounters {
        self.core.counters
    }

    /// The message currently in service, if any, as
    /// `(msg, arrival, service_start)`. Read by the workload liveness
    /// watchdog to detect senders stuck on one message.
    pub fn active_msg(&self) -> Option<(MsgId, Slot, Slot)> {
        self.active
            .as_ref()
            .map(|a| (a.req.msg, a.req.arrival, a.started))
    }

    /// Beacon refresh: adopts the current neighbor table and advertised
    /// position map, as a round of beacon exchanges would. Called by the
    /// mobile runner every beacon period; in-flight exchanges keep their
    /// already-resolved receiver lists (stale, as in reality).
    pub fn refresh_neighbors(&mut self, topo: &Topology, advertised: Arc<Vec<Point>>) {
        self.core.neighbors = topo.neighbors(self.core.id).to_vec();
        self.core.positions = advertised;
    }

    /// Enqueues a MAC request arriving at slot `now`; returns its id.
    pub fn enqueue(&mut self, kind: TrafficKind, receivers: Vec<NodeId>, now: Slot) -> MsgId {
        let msg = MsgId::new(self.core.id, self.core.seq);
        self.core.seq += 1;
        self.queue
            .push_back(Request::new(msg, kind, receivers, now));
        msg
    }

    /// Converts any in-flight and queued messages into records at the end
    /// of a run, so the harness sees every request.
    pub fn drain_unfinished(&mut self, now: Slot) {
        if let Some(active) = self.active.take() {
            let outcome = if active.req.timed_out(now, self.core.timing.timeout) {
                Outcome::TimedOut(now)
            } else {
                Outcome::Pending
            };
            self.finish(active, outcome);
        }
        while let Some(req) = self.queue.pop_front() {
            let outcome = if req.timed_out(now, self.core.timing.timeout) {
                Outcome::TimedOut(now)
            } else {
                Outcome::Pending
            };
            self.record_unserviced(req, outcome);
        }
    }

    /// Records a request that never entered service.
    fn record_unserviced(&mut self, req: Request, outcome: Outcome) {
        self.core.records.push(SentRecord {
            msg: req.msg,
            kind: req.kind,
            intended: req.receivers,
            arrival: req.arrival,
            started: None,
            outcome,
            contention_phases: 0,
            data_tx: 0,
            control_tx: 0,
            acked: Vec::new(),
            assumed_covered: Vec::new(),
            gave_up: Vec::new(),
        });
    }

    fn finish(&mut self, active: Active, outcome: Outcome) {
        self.core.records.push(SentRecord {
            msg: active.req.msg,
            kind: active.req.kind,
            intended: active.req.receivers.clone(),
            arrival: active.req.arrival,
            started: Some(active.started),
            outcome,
            contention_phases: active.phases,
            data_tx: active.data_tx,
            control_tx: active.control_tx,
            acked: active.fsm.acked().to_vec(),
            assumed_covered: active.fsm.assumed_covered().to_vec(),
            gave_up: active.fsm.gave_up().to_vec(),
        });
    }

    /// Pops the next serviceable request (recording stale ones as timed
    /// out without service) and begins its first contention phase.
    fn start_next(&mut self, ctx: &mut Ctx<'_>) {
        debug_assert!(self.active.is_none());
        let now = ctx.now;
        while let Some(req) = self.queue.pop_front() {
            if req.timed_out(now, self.core.timing.timeout) {
                self.record_unserviced(req, Outcome::TimedOut(now));
                continue;
            }
            let fsm = Fsm::for_request(self.core.protocol, &req);
            let cw = self.core.timing.cw_min;
            let mut contention = Contention::idle();
            contention.begin(cw, &mut self.core.rng);
            self.core.counters.contention_phases += 1;
            let (node, msg, backoff_slots) = (self.core.id, req.msg, contention.backoff());
            ctx.emit(|| TraceEvent::ContentionStart {
                slot: now,
                node,
                msg,
                attempts: 1,
                backoff_slots,
            });
            self.active = Some(Active {
                req,
                started: now,
                phases: 1,
                cw,
                contention,
                contending: true,
                fsm,
                at: 0,
                data_tx: 0,
                control_tx: 0,
                retries: 0,
            });
            return;
        }
    }

    /// Runs one FSM callback with the split-borrow dance, then applies the
    /// resulting [`Flow`].
    fn drive_fsm<F>(&mut self, ctx: &mut Ctx<'_>, f: F)
    where
        F: FnOnce(&mut Fsm, &mut Env<'_, '_>) -> Flow,
    {
        let Some(mut active) = self.active.take() else {
            return;
        };
        let flow = {
            let Active {
                fsm,
                req,
                data_tx,
                control_tx,
                ..
            } = &mut active;
            let mut env = Env {
                core: &mut self.core,
                ctx,
                req,
                data_tx,
                control_tx,
            };
            f(fsm, &mut env)
        };
        match flow {
            Flow::Continue => self.active = Some(active),
            Flow::Await(at) => {
                active.at = at;
                self.active = Some(active);
            }
            Flow::Recontend { reset_cw } => {
                if reset_cw {
                    active.retries = 0;
                } else {
                    // Retry ceiling for every protocol: DCF bounds its
                    // own retries inside the FSM, but the multicast FSMs
                    // recontend optimistically; without this cap a dead
                    // neighborhood would retry forever.
                    active.retries += 1;
                    if active.retries > self.core.timing.retry_limit {
                        self.finish(active, Outcome::Failed(ctx.now));
                        return;
                    }
                }
                active.cw = if reset_cw {
                    self.core.timing.cw_min
                } else {
                    next_cw(active.cw, self.core.timing.cw_max)
                };
                active.contention.begin(active.cw, &mut self.core.rng);
                active.contending = true;
                active.phases += 1;
                self.core.counters.contention_phases += 1;
                let (now, node, msg) = (ctx.now, self.core.id, active.req.msg);
                let (attempts, backoff_slots) = (active.phases, active.contention.backoff());
                if !reset_cw {
                    ctx.emit(|| TraceEvent::Retry {
                        slot: now,
                        node,
                        msg,
                        round: attempts,
                    });
                }
                ctx.emit(|| TraceEvent::ContentionStart {
                    slot: now,
                    node,
                    msg,
                    attempts,
                    backoff_slots,
                });
                self.active = Some(active);
            }
            Flow::Complete => self.finish(active, Outcome::Completed(ctx.now)),
            Flow::Abort => self.finish(active, Outcome::Failed(ctx.now)),
        }
    }

    /// Whether the station may transmit a receiver response right now.
    fn can_respond(&self, now: Slot) -> bool {
        self.core.tx_until <= now && self.active.as_ref().is_none_or(|a| a.contending)
    }

    /// Sends a receiver-side response frame.
    fn respond(
        &mut self,
        ctx: &mut Ctx<'_>,
        kind: FrameKind,
        to: NodeId,
        duration: u32,
        msg: MsgId,
        info: FrameInfo,
    ) {
        let frame = Frame {
            kind,
            src: self.core.id,
            dest: Dest::Node(to),
            duration,
            msg,
            slots: self.core.timing.control_slots,
            info,
        };
        self.core.transmit(ctx, frame);
    }

    /// Books the overheard Duration field in the NAV (virtual carrier
    /// sense) and traces the deferral when it actually extends anything.
    fn nav_reserve(&mut self, ctx: &mut Ctx<'_>, frame: &Frame) {
        if !self.core.timing.nav_enabled {
            return;
        }
        let now = ctx.now;
        self.core.nav.reserve(now, frame.duration, frame.msg);
        if frame.duration > 0 {
            let (node, msg) = (self.core.id, frame.msg);
            let until = now + Slot::from(frame.duration);
            ctx.emit(|| TraceEvent::NavDefer {
                slot: now,
                node,
                msg,
                until,
            });
        }
    }

    /// BSMA receiver rule 2: NAK the sender when the promised data never
    /// arrived within WAIT_FOR_DATA.
    fn flush_wait_data(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        if self.core.wait_data.is_empty() {
            return;
        }
        let mut due: Vec<(NodeId, MsgId)> = Vec::new();
        self.core.wait_data.retain(|w| {
            if w.deadline <= now {
                if !self.core.received.contains(&w.msg) {
                    due.push((w.sender, w.msg));
                }
                false
            } else {
                true
            }
        });
        for (sender, msg) in due {
            if self.core.nav.yielding(now) {
                self.core.counters.yield_suppressions += 1;
            } else if self.can_respond(now) {
                self.respond(ctx, FrameKind::Nak, sender, 0, msg, FrameInfo::None);
                // Only one response per slot.
                break;
            }
        }
    }

    fn handle_receive(&mut self, frame: &Frame, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        self.core.counters.frames_received += 1;
        let addressed = frame.dest.addresses(self.core.id);
        match frame.kind {
            // Sender-relevant responses.
            FrameKind::Cts | FrameKind::Ack | FrameKind::Nak => {
                if addressed {
                    let relevant = self.active.as_ref().is_some_and(|a| !a.contending);
                    if relevant {
                        self.drive_fsm(ctx, |fsm, env| fsm.on_frame(frame, env));
                    }
                } else {
                    self.nav_reserve(ctx, frame);
                }
            }
            FrameKind::Data => {
                self.core.counters.data_received += 1;
                // Promiscuous caching: any decoded data frame enters the
                // receive buffer (this is what lets BMW's have-flag
                // suppress redundant retransmissions).
                self.core.received.insert(frame.msg);
                self.core.wait_data.retain(|w| w.msg != frame.msg);
                let acks = match &frame.dest {
                    // Unicast-style data (DCF / BMW): ACK after SIFS.
                    Dest::Node(n) => *n == self.core.id,
                    Dest::Group(g) => match self.core.protocol {
                        // Uncoordinated-BMMM ablation: every receiver ACKs
                        // the group data immediately. These ACKs are
                        // synchronized and collide — the failure mode the
                        // RAK train exists to prevent.
                        ProtocolKind::BmmmUncoordinated => addressed,
                        // Leader-based multicast: the group leader ACKs the
                        // data on behalf of everyone. A non-leader that
                        // missed it jams this ACK slot with a NAK (armed
                        // when the RTS arrived).
                        ProtocolKind::LeaderBased => g.first() == Some(&self.core.id),
                        _ => false,
                    },
                };
                if acks {
                    if self.can_respond(now) {
                        self.respond(
                            ctx,
                            FrameKind::Ack,
                            frame.src,
                            0,
                            frame.msg,
                            FrameInfo::None,
                        );
                    }
                } else if !addressed {
                    self.nav_reserve(ctx, frame);
                }
            }
            FrameKind::Rts => {
                if addressed {
                    if self.core.nav.yielding_except(now, frame.msg) {
                        self.core.counters.yield_suppressions += 1;
                    } else if self.can_respond(now) {
                        let dur = frame
                            .duration
                            .saturating_sub(self.core.timing.control_slots);
                        match &frame.dest {
                            Dest::Node(_) => {
                                // DCF / BMW / BMMM poll: CTS carries the
                                // receive-buffer state (BMW reads it; the
                                // others ignore it).
                                let have = self.core.received.contains(&frame.msg);
                                let dur = if have { 0 } else { dur };
                                self.respond(
                                    ctx,
                                    FrameKind::Cts,
                                    frame.src,
                                    dur,
                                    frame.msg,
                                    FrameInfo::BmwCts { have },
                                );
                            }
                            Dest::Group(group) => {
                                let protocol = self.core.protocol;
                                let silent = protocol == ProtocolKind::LeaderBased
                                    && group.first() != Some(&self.core.id);
                                if !silent {
                                    // Tang–Gerla / BSMA: every intended
                                    // receiver answers at once; leader
                                    // scheme: only the leader answers.
                                    self.respond(
                                        ctx,
                                        FrameKind::Cts,
                                        frame.src,
                                        dur,
                                        frame.msg,
                                        FrameInfo::None,
                                    );
                                }
                                // BSMA's WAIT_FOR_DATA, and a leader-scheme
                                // non-leader's ACK-slot jam in case the
                                // data never arrives.
                                if protocol == ProtocolKind::Bsma || silent {
                                    self.core.await_data(frame, now);
                                }
                            }
                        }
                    }
                } else {
                    self.nav_reserve(ctx, frame);
                }
            }
            FrameKind::Rak => {
                if addressed {
                    if self.core.nav.yielding_except(now, frame.msg) {
                        self.core.counters.yield_suppressions += 1;
                    } else if self.core.received.contains(&frame.msg) && self.can_respond(now) {
                        let dur = frame
                            .duration
                            .saturating_sub(self.core.timing.control_slots);
                        self.respond(
                            ctx,
                            FrameKind::Ack,
                            frame.src,
                            dur,
                            frame.msg,
                            FrameInfo::None,
                        );
                    }
                } else {
                    self.nav_reserve(ctx, frame);
                }
            }
        }
    }

    /// Replays the per-slot effects of slots the engine fast-forwarded
    /// over (`next_poll..now`).
    ///
    /// The engine skips a slot for this station only when nothing
    /// observable happened in it: no frame was delivered, no
    /// wait-for-data deadline or service timeout fell due, an idle
    /// station with queued work was never left waiting, and the medium
    /// was busy only while the station was a frozen contender — those
    /// slots arrive as `busy_through` (the engine's
    /// [`rmm_sim::Ctx::frozen_through`] watermark). The only per-slot
    /// state that evolved is the contention countdown: frozen while the
    /// medium was busy (which covers the station's own transmissions)
    /// or the NAV still had a reservation, idle polls afterwards. Both
    /// freeze prefixes are contiguous from the gap's start — the engine
    /// dispatches at the first busy slot after any skipped idle slot —
    /// so the gap replays as one freeze followed by pure idle polls,
    /// exactly as naive stepping would have applied them.
    fn catch_up(&mut self, now: Slot, busy_through: Slot) {
        let start = self.next_poll;
        if start >= now {
            return;
        }
        let Some(a) = &mut self.active else {
            return;
        };
        if !a.contending {
            return;
        }
        debug_assert!(
            busy_through == 0 || busy_through >= start,
            "frozen watermark predates the gap"
        );
        let medium = if busy_through >= start {
            busy_through + 1
        } else {
            start
        };
        let clear = self.core.nav.next_idle(start).max(medium).min(now);
        if clear > start {
            a.contention.freeze();
        }
        a.contention
            .advance_idle(now - clear, self.core.timing.difs);
    }

    fn slot(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now;
        self.catch_up(now, ctx.frozen_through);
        self.next_poll = now + 1;
        self.flush_wait_data(ctx);

        if self.active.is_none() {
            self.start_next(ctx);
        }

        // Service timeout (measured from arrival).
        if self
            .active
            .as_ref()
            .is_some_and(|a| a.req.timed_out(now, self.core.timing.timeout))
        {
            let active = self.active.take().expect("checked above");
            self.finish(active, Outcome::TimedOut(now));
            self.start_next(ctx);
        }

        let mode = match &mut self.active {
            Some(a) if a.contending => {
                let busy = ctx.busy || self.core.nav.yielding(now) || self.core.tx_until > now;
                if a.contention.poll(busy, self.core.timing.difs) {
                    a.contending = false;
                    let (node, msg, attempts) = (self.core.id, a.req.msg, a.phases);
                    ctx.emit(|| TraceEvent::ContentionEnd {
                        slot: now,
                        node,
                        msg,
                        attempts,
                    });
                    DriveMode::Access
                } else {
                    DriveMode::None
                }
            }
            Some(a) if a.at == now => DriveMode::Slot,
            _ => DriveMode::None,
        };
        match mode {
            DriveMode::Access => self.drive_fsm(ctx, |fsm, env| fsm.on_access(env)),
            DriveMode::Slot => self.drive_fsm(ctx, |fsm, env| fsm.on_slot(env)),
            DriveMode::None => {}
        }
    }
}

impl Station for MacNode {
    fn on_receive(&mut self, frame: &Frame, _captured: bool, ctx: &mut Ctx<'_>) {
        // Under selective dispatch the engine may not have polled this
        // station for a while (its medium stayed idle and nothing fell
        // due), so replay the gap before the frame lands: the reception
        // can change contention state that the skipped idle slots
        // already advanced.
        if self.next_poll < ctx.now {
            self.catch_up(ctx.now, ctx.frozen_through);
            self.next_poll = ctx.now;
        }
        self.handle_receive(frame, ctx);
    }

    fn on_slot(&mut self, ctx: &mut Ctx<'_>) {
        self.slot(ctx);
    }

    /// Physical carrier sense only matters while a contention countdown
    /// is running: every other consumer of `ctx.busy` in [`MacNode`]
    /// derives busyness from the NAV or its own half-duplex state, which
    /// evolve through receptions and deadlines, not the medium bit. This
    /// lets the engine's selective dispatcher skip idle stations on
    /// slots where only the medium changed.
    fn carrier_sensitive(&self) -> bool {
        self.active.as_ref().is_some_and(|a| a.contending)
    }

    /// A busy medium can only freeze a contention countdown — it never
    /// changes any other per-slot decision in [`MacNode::slot`] — so the
    /// engine may skip busy slots entirely and let
    /// [`MacNode::catch_up`] replay the freeze from the engine's
    /// watermark.
    fn busy_freezes(&self) -> bool {
        self.active.as_ref().is_some_and(|a| a.contending)
    }

    /// Deadlines that fire regardless of the medium: receiver-side
    /// WAIT_FOR_DATA expiries and the in-service request's timeout.
    /// These bound how far the engine may skip a frozen contender.
    fn next_deadline(&self) -> Option<Slot> {
        let mut due: Option<Slot> = None;
        let mut consider = |slot: Slot| {
            due = Some(due.map_or(slot, |d: Slot| d.min(slot)));
        };
        for w in &self.core.wait_data {
            consider(w.deadline);
        }
        if let Some(a) = &self.active {
            consider(a.req.arrival.saturating_add(self.core.timing.timeout));
        }
        due
    }

    /// Crash-recovery cold reset ([`rmm_sim::FaultKind::Reboot`]): the
    /// platform rebooted, so transient MAC state is lost. The in-service
    /// exchange and everything queued behind it die with the radio
    /// (recorded as failed, so the harness still sees every request);
    /// the NAV, receiver-side data waits, and half-duplex bookkeeping
    /// clear. Measurement state survives: decoded messages, counters,
    /// sender records, and the sequence counter (post-reboot `MsgId`s
    /// must stay unique). The station's RNG keeps its stream position —
    /// a reboot must not replay backoff draws already consumed.
    fn on_reset(&mut self, now: Slot) {
        if let Some(active) = self.active.take() {
            self.finish(active, Outcome::Failed(now));
        }
        while let Some(req) = self.queue.pop_front() {
            self.record_unserviced(req, Outcome::Failed(now));
        }
        self.core.nav = Nav::new();
        self.core.wait_data.clear();
        self.core.tx_until = now;
        self.next_poll = now;
    }

    fn next_wakeup(&self, now: Slot) -> Option<Slot> {
        let t = self.core.timing;
        let mut wake: Option<Slot> = None;
        let mut consider = |slot: Slot| {
            // Deadlines already due act on the very next slot.
            let slot = slot.max(now + 1);
            wake = Some(wake.map_or(slot, |w: Slot| w.min(slot)));
        };
        for w in &self.core.wait_data {
            consider(w.deadline);
        }
        match &self.active {
            Some(a) => {
                consider(a.req.arrival.saturating_add(t.timeout));
                if a.contending {
                    if !a.contention.is_active() {
                        // Unreachable in practice (contending implies an
                        // armed countdown); degrade to naive stepping.
                        consider(now + 1);
                    } else {
                        // Under an idle medium the station yields to its
                        // NAV, then needs DIFS + backoff + 1 idle polls;
                        // the grant lands on the last of them.
                        let first_idle = self.core.nav.next_idle(now + 1);
                        let idle_run = if first_idle > now + 1 {
                            0
                        } else {
                            a.contention.idle_run()
                        };
                        let polls = u64::from(t.difs.saturating_sub(idle_run))
                            + u64::from(a.contention.backoff())
                            + 1;
                        consider(first_idle + polls - 1);
                    }
                } else {
                    consider(a.at);
                }
            }
            None => {
                if !self.queue.is_empty() {
                    consider(now + 1);
                }
            }
        }
        wake
    }
}

//! The simulation runner: one seeded run ([`run`], configured by a
//! [`RunSpec`]), and parallel sweeps across seeds (the paper averages
//! 100 runs per data point).

use crate::churn::EpochMetrics;
use crate::feed::Feed;
use crate::mobility::{MobilityConfig, RandomWaypoint};
use crate::observe::{PhaseTimings, RunManifest};
use crate::placement::uniform_square;
use crate::scenario::Scenario;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmm_geom::Point;
use rmm_mac::{FrameKindCounts, MacNode, Outcome, ProtocolKind};
use rmm_sim::{AirtimeBreakdown, Engine, MsgId, NodeId, Slot, Topology, Trace};
use rmm_stats::{MessageMetric, ProfileReport, RunMetrics};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Instant;

/// Dedicated seed stream for beacon position noise ("noise").
const NOISE_SEED: u64 = 0x006e_6f69_7365;

/// Gaussian sample via Box–Muller (keeps the dependency set small).
fn gaussian(rng: &mut SmallRng, sigma: f64) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random::<f64>();
    sigma * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One liveness-watchdog finding: a sender that sat on an active message
/// for a whole watchdog window without putting a single frame on the
/// air. A healthy MAC always either transmits or times the message out,
/// so a stall indicates a wedged protocol state machine (or a retry
/// policy with no bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallReport {
    /// The wedged sender.
    pub node: NodeId,
    /// The message it is stuck on.
    pub msg: MsgId,
    /// When the message arrived at the MAC.
    pub arrival: Slot,
    /// When its service began.
    pub started: Slot,
    /// The sender's last transmission of any kind, if it ever sent one.
    pub last_tx: Option<Slot>,
    /// The watchdog check that caught it.
    pub detected_at: Slot,
    /// The configured watchdog window (slots).
    pub window: u64,
}

/// Files a [`StallReport`] for every node holding an active message that
/// has not transmitted for at least `window` slots. Read-only: safe to
/// call between engine steps without perturbing the run. Each `(node,
/// msg)` pair is reported at most once. Nodes whose injected faults
/// currently block transmission are skipped: a crashed or muted sender
/// is *known* impaired, not a wedged protocol.
fn check_stalls(
    engine: &Engine,
    nodes: &[MacNode],
    now: Slot,
    window: u64,
    stalls: &mut Vec<StallReport>,
) {
    for node in nodes {
        let id = node.core().id;
        if engine.faults().blocks_tx(id, now) {
            continue;
        }
        let Some((msg, arrival, started)) = node.active_msg() else {
            continue;
        };
        let last_tx = engine.last_tx(id);
        let progress = last_tx.map_or(started, |l| l.max(started));
        if now.saturating_sub(progress) >= window
            && !stalls.iter().any(|s| s.node == id && s.msg == msg)
        {
            stalls.push(StallReport {
                node: id,
                msg,
                arrival,
                started,
                last_tx,
                detected_at: now,
                window,
            });
        }
    }
}

/// Assembles ground-truth per-message delivery metrics from the senders'
/// records and the receivers' ledgers. Only messages whose full timeout
/// window fits inside the run are counted, so late arrivals don't read
/// as spurious failures. Receivers impaired by the fault plan — or out
/// of the group per the churn plan — at any point in the message's
/// service window count as unreachable, feeding the
/// reachable-vs-faulted metric split.
fn collect_messages(nodes: &[MacNode], scenario: &Scenario) -> Vec<MessageMetric> {
    let cutoff = scenario.sim_slots.saturating_sub(scenario.timing.timeout);
    let mut messages = Vec::new();
    for node in nodes {
        for rec in node.records() {
            if rec.arrival > cutoff {
                continue;
            }
            let window_end = rec.arrival.saturating_add(scenario.timing.timeout);
            let (mut delivered, mut reachable, mut delivered_reachable) = (0, 0, 0);
            for r in &rec.intended {
                let got = nodes[r.index()].received().contains(&rec.msg);
                delivered += usize::from(got);
                if !scenario.faults.impaired_during(*r, rec.arrival, window_end)
                    && scenario.churn.member_during(*r, rec.arrival, window_end)
                {
                    reachable += 1;
                    delivered_reachable += usize::from(got);
                }
            }
            messages.push(MessageMetric {
                is_group: rec.is_group(),
                intended: rec.intended.len(),
                delivered,
                reachable,
                delivered_reachable,
                completed: rec.outcome.is_completed(),
                timed_out: matches!(rec.outcome, Outcome::TimedOut(_)),
                contention_phases: rec.contention_phases,
                completion_time: rec.completion_time(),
                arrival: rec.arrival,
            });
        }
    }
    messages
}

/// The result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Seed that produced the run.
    pub seed: u64,
    /// Mean number of neighbors in the sampled topology (density axis).
    pub mean_degree: f64,
    /// Aggregates over multicast + broadcast messages.
    pub group_metrics: RunMetrics,
    /// Aggregates over unicast messages.
    pub unicast_metrics: RunMetrics,
    /// Per-message records (population already cut to messages whose full
    /// timeout window fit in the run).
    pub messages: Vec<MessageMetric>,
    /// Total collision events observed at receivers.
    pub collisions: u64,
    /// Frames transmitted during the run, by kind.
    pub frames: FrameKindCounts,
    /// Fraction of slots with at least one transmission on the air
    /// somewhere in the network.
    pub utilization: f64,
    /// Exact per-slot channel airtime classification (idle / data /
    /// control / collision) from the channel's ledger.
    pub airtime: AirtimeBreakdown,
    /// Liveness-watchdog findings (empty unless `scenario.stall_window`
    /// is set and some sender made no forward progress for a window).
    pub stalls: Vec<StallReport>,
    /// Group-delivery metrics split by membership epoch (empty unless
    /// `scenario.churn` schedules membership changes).
    pub churn_epochs: Vec<EpochMetrics>,
    /// Run provenance: scenario, protocol, seed, and wall-clock phases.
    pub manifest: RunManifest,
}

/// How the engine advances between the events the runner injects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Stepping {
    /// The event-horizon fast path: `Engine::advance_to` skips dead air.
    #[default]
    Fast,
    /// Slot-by-slot stepping: the reference the differential suites
    /// check the fast path against. Bit-exact with [`Stepping::Fast`].
    Naive,
}

/// Pure observers a run can carry. None of them perturbs the
/// simulation: a probed run is byte-identical to an unprobed one, apart
/// from wall-clock provenance and `RunManifest::traced`, which records
/// [`Probes::trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Probes {
    /// Record the full protocol event trace ([`RunOutput::trace`]).
    pub trace: bool,
    /// Run the engine's phase timers ([`RunOutput::profile`]). The
    /// attribution includes the (small) cost of any other probe.
    pub profile: bool,
    /// Hand back the final stations ([`RunOutput::nodes`]): every
    /// sender's service records and every receiver's ground truth.
    pub forensic: bool,
}

/// Everything about one run that is not the scenario itself.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunSpec {
    /// Fast or naive engine stepping.
    pub stepping: Stepping,
    /// Observers to attach.
    pub probes: Probes,
    /// Random-waypoint mobility with periodic beaconing; `None` is a
    /// static topology.
    pub mobility: Option<MobilityConfig>,
}

/// What one [`run`] produced: the result plus whatever the probes
/// asked for.
#[derive(Debug)]
pub struct RunOutput {
    /// The run's result.
    pub result: RunResult,
    /// The protocol event trace, when [`Probes::trace`] was set.
    pub trace: Option<Trace>,
    /// The phase-timer report, when [`Probes::profile`] was set.
    pub profile: Option<ProfileReport>,
    /// The final stations, when [`Probes::forensic`] was set.
    pub nodes: Option<Vec<MacNode>>,
}

/// Executes one seeded run of `scenario` under `protocol`, using the
/// engine's event-horizon fast path (bit-exact with naive stepping; see
/// [`run_one_naive`]).
pub fn run_one(scenario: &Scenario, protocol: ProtocolKind, seed: u64) -> RunResult {
    run(scenario, protocol, seed, &RunSpec::default()).result
}

/// [`run_one`] with naive slot-by-slot stepping.
pub fn run_one_naive(scenario: &Scenario, protocol: ProtocolKind, seed: u64) -> RunResult {
    let spec = RunSpec {
        stepping: Stepping::Naive,
        ..RunSpec::default()
    };
    run(scenario, protocol, seed, &spec).result
}

/// [`run_one`] with the engine's phase timers on: the result together
/// with the per-phase cost attribution.
pub fn run_one_profiled(
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed: u64,
) -> (RunResult, ProfileReport) {
    let spec = RunSpec {
        probes: Probes {
            profile: true,
            ..Probes::default()
        },
        ..RunSpec::default()
    };
    let out = run(scenario, protocol, seed, &spec);
    (out.result, out.profile.expect("profiling was enabled"))
}

/// The positions stations advertise in their beacons: the true
/// positions, plus Gaussian GPS error drawn from `noise` when `sigma`
/// is positive. LAMM reads only this table; the channel keeps using
/// the true geometry.
fn advertise(topo: &Topology, sigma: f64, noise: &mut SmallRng) -> Arc<Vec<Point>> {
    let positions = topo.positions();
    if sigma > 0.0 {
        Arc::new(
            positions
                .iter()
                .map(|p| p.offset(gaussian(noise, sigma), gaussian(noise, sigma)))
                .collect(),
        )
    } else {
        Arc::new(positions.to_vec())
    }
}

/// The moving world of a mobile run: ground truth walks every
/// `update_period` slots, and stations see it only as of the last
/// beacon exchange.
struct Mobile {
    config: MobilityConfig,
    waypoint: RandomWaypoint,
    /// The topology as of the last beacon: what senders believe.
    beacon: Topology,
}

/// Executes one seeded run of `scenario` under `protocol`, as `spec`
/// says: fast or naive stepping, the probes to attach, and static or
/// mobile stations.
///
/// Under mobility, ground truth moves every `update_period` slots; the
/// beacon view that requests are addressed from, and the advertised
/// positions stations read, refresh only every `beacon_period` slots, so
/// stations act on *stale* beacon state in between — the realistic
/// failure mode for neighbor-list-based multicast.
///
/// The slot loop takes each slot's arrivals from one of two feeds, and
/// both give the same arrivals, so the run is the same either way:
///
/// * **inline**: `TrafficGen::tick` draws them in the loop, one draw
///   per station per slot, over the topology the senders believe in;
/// * **ahead**: a producer thread owns a second generator with the same
///   seed and a copy of the topology, draws every slot in advance and
///   hands the arrivals over in batches of a fixed number of draws
///   through a bounded queue, so the draws leave the engine's critical
///   path.
///
/// A run draws ahead only when all three of these hold (see
/// [`draws_ahead`](crate::draws_ahead)): the topology is static
/// (`spec.mobility` is `None`; a moving topology changes what the draws
/// read), the run makes at least
/// [`DRAW_AHEAD_MIN_DRAWS`](crate::DRAW_AHEAD_MIN_DRAWS) draws
/// (`n_nodes × sim_slots`, set there from cells timed both ways), and
/// the calling thread has a spare core
/// ([`rmm_fleet::spare_cores`]: 0 in a pool that fills the host, so
/// sweeps never put a producer beside every worker). Membership churn,
/// the stall watchdog and both steppings act on the arrivals the same
/// way whichever feed drew them. The producer is joined before `run`
/// returns (see `Feed::finish`), and the queue's receiver lives in the
/// run, so a run that panics drops it and the producer stops at its
/// next send instead of waiting on a full queue.
pub fn run(scenario: &Scenario, protocol: ProtocolKind, seed: u64, spec: &RunSpec) -> RunOutput {
    let trace = spec.probes.trace.then(Trace::new);
    std::thread::scope(|scope| run_in(scope, scenario, protocol, seed, spec, trace))
}

/// [`run`] traced into `trace`, whatever `spec.probes.trace` says: a
/// buffering [`Trace`] collects the events as [`run`] does, a
/// forwarding one hands each to its sink as the engine emits it. The
/// trace comes back in [`RunOutput::trace`].
pub fn run_traced(
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed: u64,
    spec: &RunSpec,
    trace: Trace,
) -> RunOutput {
    std::thread::scope(|scope| run_in(scope, scenario, protocol, seed, spec, Some(trace)))
}

/// [`run`] inside the scope that holds its traffic producer, if any.
fn run_in<'scope>(
    scope: &'scope Scope<'scope, '_>,
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed: u64,
    spec: &RunSpec,
    trace: Option<Trace>,
) -> RunOutput {
    let fast = spec.stepping == Stepping::Fast;
    let t_setup = Instant::now();
    let topo = uniform_square(scenario.n_nodes, scenario.radius, seed);
    let mean_degree = topo.mean_degree();
    let mut noise = SmallRng::seed_from_u64(seed ^ NOISE_SEED);
    let advertised = advertise(&topo, scenario.position_noise, &mut noise);
    let mut nodes =
        MacNode::build_network_with_positions(&topo, advertised, protocol, scenario.timing, seed);
    let mut mobile = spec.mobility.map(|config| Mobile {
        config,
        waypoint: RandomWaypoint::new(topo.positions().to_vec(), config, seed),
        beacon: topo.clone(),
    });
    let mut engine = scenario.build_engine(topo, seed);
    let traced = trace.is_some();
    if let Some(trace) = trace {
        engine.enable_trace_into(trace);
    }
    if spec.probes.profile {
        engine.enable_profiling();
    }
    // Spawned only now, after the run's large buffers: a copy of the
    // topology made ahead of the stations' 6.6 MB array left
    // `scale_10k`'s peak RSS at 24 MB instead of 18 in 4 runs of 6.
    let mut feed = Feed::new(scope, scenario, spec, seed, engine.topology());
    let mut arrivals = Vec::new();
    let mut stalls = Vec::new();
    let setup_us = t_setup.elapsed().as_micros() as u64;

    let t_simulate = Instant::now();
    // The traffic stream is drawn per slot either way (stream identity);
    // the fast path only wakes the engine for slots with external events
    // and lets `advance_to` fast-forward the dead air in between. Every
    // external event must land at its exact slot, so the fast path
    // catches the engine up before mutating the world it simulates.
    for t in 0..scenario.sim_slots {
        if let Some(m) = &mut mobile {
            if t > 0 && t % m.config.update_period == 0 {
                if fast {
                    engine.advance_to(&mut nodes, t);
                }
                m.waypoint.step(m.config.update_period);
                engine.set_topology(m.waypoint.topology(scenario.radius));
            }
            if t > 0 && t % m.config.beacon_period == 0 {
                if fast {
                    engine.advance_to(&mut nodes, t);
                }
                m.beacon = engine.topology().clone();
                let advertised = advertise(&m.beacon, scenario.position_noise, &mut noise);
                for (i, node) in nodes.iter_mut().enumerate() {
                    node.refresh_positions(Arc::clone(&advertised));
                    // The refresh mutates stations outside the engine:
                    // invalidate their cached wakeup hints.
                    if fast {
                        engine.wake(NodeId(i as u32));
                    }
                }
            }
        }
        // Requests are addressed to the neighbors the sender *believes*
        // it has: the beacon view under mobility, else the ground truth.
        let view = mobile.as_ref().map_or(engine.topology(), |m| &m.beacon);
        feed.next(view, t, &mut arrivals);
        // Membership churn rewrites the arrival list *after* the traffic
        // draws, so the RNG stream is identical with or without a plan.
        scenario.churn.filter_arrivals(t, &mut arrivals);
        if fast && !arrivals.is_empty() {
            engine.advance_to(&mut nodes, t);
        }
        for a in arrivals.drain(..) {
            nodes[a.node.index()].enqueue(a.kind, a.receivers, t);
            // The enqueue perturbs the station from outside the engine:
            // force its next on_slot past any stale hint.
            if fast {
                engine.wake(a.node);
            }
        }
        // The watchdog inspects the network at multiples of its window,
        // before slot `t` is simulated (chunked `advance_to` is
        // bit-exact, so enabling the watchdog never changes the run).
        if let Some(w) = scenario.stall_window {
            if t > 0 && t % w == 0 {
                if fast {
                    engine.advance_to(&mut nodes, t);
                }
                check_stalls(&engine, &nodes, t, w, &mut stalls);
            }
        }
        if !fast {
            engine.step(&mut nodes);
        }
    }
    feed.finish();
    if fast {
        engine.advance_to(&mut nodes, scenario.sim_slots);
    }
    for node in &mut nodes {
        node.drain_unfinished(scenario.sim_slots);
    }
    let simulate_us = t_simulate.elapsed().as_micros() as u64;

    let t_collect = Instant::now();
    let messages = collect_messages(&nodes, scenario);
    let group: Vec<MessageMetric> = messages.iter().filter(|m| m.is_group).cloned().collect();
    let unicast: Vec<MessageMetric> = messages.iter().filter(|m| !m.is_group).cloned().collect();
    let mut frames = FrameKindCounts::default();
    for node in &nodes {
        frames.add(&node.counters().sent_by_kind);
    }
    let churn_epochs = scenario
        .churn
        .epoch_metrics(&messages, scenario.reliability_threshold);
    let collect_us = t_collect.elapsed().as_micros() as u64;
    let result = RunResult {
        seed,
        mean_degree,
        group_metrics: RunMetrics::compute(&group, scenario.reliability_threshold),
        unicast_metrics: RunMetrics::compute(&unicast, scenario.reliability_threshold),
        messages,
        collisions: engine.channel().collisions_total,
        utilization: engine.channel().busy_slots as f64 / scenario.sim_slots as f64,
        airtime: engine.channel().ledger().breakdown(scenario.sim_slots),
        frames,
        stalls,
        churn_epochs,
        manifest: RunManifest {
            scenario: scenario.clone(),
            protocol,
            seed,
            slot_budget: scenario.sim_slots,
            traced,
            wall_clock: PhaseTimings {
                setup_us,
                simulate_us,
                collect_us,
            },
        },
    };
    RunOutput {
        result,
        trace: engine.take_trace(),
        profile: engine.take_profile(),
        nodes: spec.probes.forensic.then_some(nodes),
    }
}

/// Executes `scenario.n_runs` seeded runs in parallel (one OS thread per
/// available core) and returns them ordered by seed.
pub fn run_many(scenario: &Scenario, protocol: ProtocolKind) -> Vec<RunResult> {
    run_many_jobs(scenario, protocol, 0, 0)
}

/// [`run_many`] with a seed offset (seeds `seed_base..seed_base +
/// n_runs`) and an explicit worker count (`0` = one per available
/// core). Each run derives all randomness from its own seed,
/// and the fleet pool merges results back in seed order, so the output
/// is identical at any worker count.
pub fn run_many_jobs(
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed_base: u64,
    workers: usize,
) -> Vec<RunResult> {
    let seeds: Vec<u64> = (0..scenario.n_runs as u64).map(|s| s + seed_base).collect();
    let workers = rmm_fleet::resolve_workers(workers, seeds.len());
    rmm_fleet::run_parallel(workers, &seeds, |_w, &seed| {
        run_one(scenario, protocol, seed)
    })
}

/// Means of the headline per-run metrics across `results` (delivery rate,
/// contention phases, completion time), over group traffic. Internally a
/// seed-keyed partial merge with a canonical-order finalize, so the same
/// set of runs yields the bit-identical mean regardless of the order the
/// slice happens to be in.
pub fn mean_group_metrics(results: &[RunResult]) -> RunMetrics {
    let mut merge = rmm_stats::RunMetricsMerge::new();
    for r in results {
        merge.absorb(r.seed, r.group_metrics);
    }
    merge.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Scenario {
        Scenario {
            n_nodes: 40,
            sim_slots: 2_000,
            n_runs: 3,
            msg_rate: 1e-3,
            ..Scenario::default()
        }
    }

    #[test]
    fn watchdog_flags_a_silent_sender_and_skips_fault_blocked_nodes() {
        use rmm_mac::MacTiming;
        use rmm_sim::{Capture, FaultPlan, Topology};

        // Two nodes in range; node 0 multicasts to node 1 with an
        // effectively infinite service timeout, so the message is still
        // active long after its last transmission.
        let build = |faults: FaultPlan| {
            let topo = Topology::new(vec![Point::new(0.4, 0.5), Point::new(0.6, 0.5)], 0.3);
            let timing = MacTiming {
                timeout: 1_000_000,
                retry_limit: u32::MAX,
                dest_retry_limit: u32::MAX,
                ..Default::default()
            };
            let mut nodes = MacNode::build_network(&topo, ProtocolKind::Bmw, timing, 9);
            let mut engine = Engine::new(topo, Capture::ZorziRao, 9);
            engine.set_faults(faults);
            nodes[0].enqueue(rmm_mac::TrafficKind::Multicast, vec![NodeId(1)], 0);
            engine.run(&mut nodes, 50);
            (engine, nodes)
        };

        let (engine, nodes) = build(FaultPlan::new().crash(NodeId(1), 0));
        let last = engine.last_tx(NodeId(0)).expect("sender transmitted");
        let mut stalls = Vec::new();
        // Inside the window: quiet.
        check_stalls(&engine, &nodes, last + 10, 200, &mut stalls);
        assert!(stalls.is_empty(), "{stalls:?}");
        // A full window with no transmission: reported, exactly once.
        check_stalls(&engine, &nodes, last + 200, 200, &mut stalls);
        assert_eq!(stalls.len(), 1, "{stalls:?}");
        assert_eq!(stalls[0].node, NodeId(0));
        assert_eq!(stalls[0].last_tx, Some(last));
        check_stalls(&engine, &nodes, last + 400, 200, &mut stalls);
        assert_eq!(stalls.len(), 1, "same (node, msg) reported twice");

        // The same silence from a TX-muted sender is expected impairment,
        // not a wedged FSM: never reported.
        let (engine, nodes) = build(
            FaultPlan::new()
                .mute(NodeId(0), 0, 1_000_000)
                .crash(NodeId(1), 0),
        );
        assert_eq!(engine.last_tx(NodeId(0)), None);
        let mut stalls = Vec::new();
        check_stalls(&engine, &nodes, 10_000, 200, &mut stalls);
        assert!(stalls.is_empty(), "{stalls:?}");
    }

    #[test]
    fn run_one_is_deterministic() {
        let s = small();
        let a = run_one(&s, ProtocolKind::Bmmm, 5);
        let b = run_one(&s, ProtocolKind::Bmmm, 5);
        assert_eq!(a.messages.len(), b.messages.len());
        assert_eq!(a.collisions, b.collisions);
        assert_eq!(a.group_metrics.delivery_rate, b.group_metrics.delivery_rate);
    }

    #[test]
    fn different_seeds_give_different_runs() {
        let s = small();
        let a = run_one(&s, ProtocolKind::Bmmm, 5);
        let b = run_one(&s, ProtocolKind::Bmmm, 6);
        assert!(a.mean_degree != b.mean_degree || a.messages.len() != b.messages.len());
    }

    #[test]
    fn run_many_matches_run_one() {
        let s = small();
        let many = run_many(&s, ProtocolKind::Ieee80211);
        assert_eq!(many.len(), 3);
        let lone = run_one(&s, ProtocolKind::Ieee80211, 1);
        assert_eq!(many[1].messages.len(), lone.messages.len());
        assert_eq!(
            many[1].group_metrics.delivery_rate,
            lone.group_metrics.delivery_rate
        );
        assert_eq!(many[1].seed, 1);
    }

    #[test]
    fn traffic_actually_flows() {
        let s = small();
        let r = run_one(&s, ProtocolKind::Bmmm, 2);
        assert!(
            r.group_metrics.messages > 10,
            "only {} messages",
            r.group_metrics.messages
        );
        assert!(r.unicast_metrics.messages > 0);
        assert!(r.group_metrics.delivery_rate > 0.0);
    }

    #[test]
    fn mean_group_metrics_averages() {
        let s = small();
        let results = run_many(&s, ProtocolKind::Bmmm);
        let mean = mean_group_metrics(&results);
        let manual: f64 = results
            .iter()
            .map(|r| r.group_metrics.delivery_rate)
            .sum::<f64>()
            / results.len() as f64;
        assert!((mean.delivery_rate - manual).abs() < 1e-12);
    }

    #[test]
    fn run_many_jobs_is_worker_count_invariant() {
        let s = Scenario {
            n_runs: 5,
            ..small()
        };
        let serial = run_many_jobs(&s, ProtocolKind::Bmmm, 100, 1);
        let serial_mean = mean_group_metrics(&serial);
        for workers in [2, 8] {
            let par = run_many_jobs(&s, ProtocolKind::Bmmm, 100, workers);
            assert_eq!(par.len(), serial.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.seed, b.seed);
                assert_eq!(a.collisions, b.collisions);
                assert_eq!(a.frames, b.frames);
                assert_eq!(
                    a.group_metrics.delivery_rate.to_bits(),
                    b.group_metrics.delivery_rate.to_bits(),
                    "workers = {workers}"
                );
                assert_eq!(
                    a.group_metrics.avg_completion_time.to_bits(),
                    b.group_metrics.avg_completion_time.to_bits()
                );
            }
            let par_mean = mean_group_metrics(&par);
            assert_eq!(
                serial_mean.delivery_rate.to_bits(),
                par_mean.delivery_rate.to_bits()
            );
        }
    }

    #[test]
    fn mean_group_metrics_is_order_independent() {
        let s = small();
        let mut results = run_many(&s, ProtocolKind::Bmw);
        let forward = mean_group_metrics(&results);
        results.reverse();
        let backward = mean_group_metrics(&results);
        assert_eq!(
            forward.delivery_rate.to_bits(),
            backward.delivery_rate.to_bits()
        );
        assert_eq!(
            forward.avg_contention_phases.to_bits(),
            backward.avg_contention_phases.to_bits()
        );
        assert_eq!(forward.messages, backward.messages);
    }

    #[test]
    fn merged_run_registries_are_order_independent() {
        let s = small();
        let results = run_many(&s, ProtocolKind::Bmmm);
        let regs: Vec<rmm_stats::MetricsRegistry> = results
            .iter()
            .map(|r| crate::observe::collect_metrics(&[], &r.messages))
            .collect();
        let mut forward = rmm_stats::MetricsRegistry::new();
        for reg in &regs {
            forward.merge(reg);
        }
        let mut backward = rmm_stats::MetricsRegistry::new();
        for reg in regs.iter().rev() {
            backward.merge(reg);
        }
        assert_eq!(
            serde_json::to_string(&forward).unwrap(),
            serde_json::to_string(&backward).unwrap()
        );
    }
}

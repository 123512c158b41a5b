//! The traced pass's per-layer numbers: calls into each layer's public
//! functions, timed from the benchmark's own code on the workload's own
//! scenario and protocols.

use crate::serve::{self, ServeStats};
use crate::sim::{run_round, SWEEP_WORKERS};
use crate::{
    canonical_json, derive_seed, seconds_per_call, self_times, Args, Outcome, Recorder, Span,
};
use rmm_fleet::{JobId, Manifest, ManifestHeader, MANIFEST_VERSION};
use rmm_geom::{min_cover_set, update_uncovered};
use rmm_mac::{MacNode, ProtocolKind};
use rmm_serve::{cache_key, compute_cell, run_response_lines, CacheStore};
use rmm_sim::{Engine, NodeId, Topology};
use rmm_stats::{Phase, ProfileReport, RunMetrics};
use rmm_workload::{
    run_one, run_one_profiled, scenario_schema_hash, uniform_square, RunResult, Scenario,
    TrafficGen,
};
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The cells a workload runs: a scenario and its protocols.
pub struct Cells {
    /// Scenario of every cell.
    pub scenario: Scenario,
    /// Protocols the workload runs.
    pub protocols: &'static [ProtocolKind],
}

/// Reports `ladder.unexplained_frac`: the share of the window's lane
/// time (window wall clock × `lanes`) that no layer's self time covers.
/// Only calls into a crate carry a layer's name; the round, the lanes
/// and everything the harness does around a call are `ladder` spans, so
/// pool start-up, idle workers and harness overhead all count here.
pub fn unexplained(spans: &[Span], lanes: f64, out: &mut Outcome) {
    let window = spans
        .iter()
        .find(|s| s.name == "ladder.window")
        .expect("the window is traced");
    let layered: u64 = spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.layer() != "ladder")
        .map(|(_, t)| t)
        .sum();
    let total = (window.end - window.start) as f64 * lanes;
    out.metric(
        "ladder.unexplained_frac",
        1.0 - layered as f64 / total,
        "frac",
        spans.len(),
    );
}

/// Per-job fleet overhead (µs) and idle fraction from the worker lanes
/// (`ladder.lane`) of `spans`: time before and between a lane's cells is
/// overhead, time after its last cell is idle. `None` without lanes.
fn fleet_lanes(spans: &[Span]) -> Option<(f64, f64, usize)> {
    let mut cells: HashMap<usize, Vec<&Span>> = HashMap::new();
    for s in spans.iter().filter(|s| s.name == "workload.run_one") {
        if let Some(p) = s.parent {
            cells.entry(p).or_default().push(s);
        }
    }
    let (mut overhead, mut idle, mut lane_time, mut jobs) = (0u64, 0u64, 0u64, 0usize);
    for (id, lane) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "ladder.lane")
    {
        lane_time += lane.end - lane.start;
        let mut mine = cells.remove(&id).unwrap_or_default();
        mine.sort_by_key(|s| s.start);
        let mut at = lane.start;
        for cell in &mine {
            overhead += cell.start.saturating_sub(at);
            at = cell.end;
        }
        idle += lane.end.saturating_sub(at);
        jobs += mine.len();
    }
    (lane_time > 0 && jobs > 0).then(|| {
        (
            overhead as f64 / jobs as f64 / 1e3,
            idle as f64 / lane_time as f64,
            jobs,
        )
    })
}

/// Drives the engine with `advance_to` over a pre-drawn arrival
/// schedule, so traffic generation stays outside the timing. Returns
/// (nanoseconds, slots skipped by the event horizon).
fn drive_engine(s: &Scenario, topo: &Topology, p: ProtocolKind, seed: u64) -> (f64, u64) {
    let mut traffic = TrafficGen::new(s.msg_rate, s.mix, seed);
    let mut arrivals = Vec::new();
    let mut plan = Vec::new();
    for t in 0..s.sim_slots {
        traffic.tick(topo, t, &mut arrivals);
        plan.extend(arrivals.drain(..).map(|a| (t, a)));
    }
    let mut nodes = MacNode::build_network(topo, p, s.timing, seed);
    let mut engine = Engine::new(topo.clone(), s.capture, seed.wrapping_add(0x5eed));
    let t0 = Instant::now();
    for (t, a) in &plan {
        engine.advance_to(&mut nodes, *t);
        nodes[a.node.index()].enqueue(a.kind, a.receivers.clone(), *t);
        engine.wake(a.node);
    }
    engine.advance_to(&mut nodes, s.sim_slots);
    (t0.elapsed().as_nanos() as f64, engine.slots_skipped())
}

/// At most this many nodes' neighbor sets go through the cover-set
/// probe, which bounds its time on the 10 000-node topology.
const GEOM_NODES: usize = 2_000;

/// `MCS` and `UPDATE` over every node's neighbor set (µs per call), and
/// |MCS| / |S| summed over the sets.
fn geom_probe(topo: &Topology) -> (f64, f64, f64, usize) {
    let points = topo.positions();
    let r = topo.radius();
    let sets: Vec<Vec<usize>> = (0..topo.len().min(GEOM_NODES))
        .map(|i| {
            topo.neighbors(NodeId(i as u32))
                .iter()
                .map(|n| n.index())
                .collect()
        })
        .filter(|s: &Vec<usize>| !s.is_empty())
        .collect();
    let (mut mcs_ns, mut update_ns, mut calls) = (0u128, 0u128, 0usize);
    let (mut cover, mut total) = (0usize, 0usize);
    let t0 = Instant::now();
    while calls == 0 || t0.elapsed().as_secs_f64() < 0.05 {
        for set in &sets {
            let t = Instant::now();
            let mcs = black_box(min_cover_set(points, set, r));
            mcs_ns += t.elapsed().as_nanos();
            let t = Instant::now();
            black_box(update_uncovered(points, set, &mcs[..mcs.len() / 2], r));
            update_ns += t.elapsed().as_nanos();
            if calls < sets.len() {
                cover += mcs.len();
                total += set.len();
            }
            calls += 1;
        }
    }
    let per_call_us = |ns: u128| ns as f64 / calls as f64 / 1e3;
    (
        per_call_us(mcs_ns),
        per_call_us(update_ns),
        cover as f64 / total as f64,
        sets.len(),
    )
}

/// In-process serve costs per cell, ms: compute, cache put (serialize and
/// append to a disk manifest), cache get (parse), and render.
fn serve_costs(
    s: &Scenario,
    protocols: &[ProtocolKind],
    seed: u64,
    trace: bool,
    tmp: &Path,
) -> Result<[f64; 4], String> {
    let path = tmp.join(format!("probe-cache-{trace}.jsonl"));
    let cache = CacheStore::open(Some(&path), scenario_schema_hash())
        .map_err(|e| format!("probe cache: {e}"))?;
    // A traced cell is megabytes; one put each keeps the probe short.
    let reps = if trace { 1 } else { 5 };
    let mut sum = [0.0; 4];
    for &p in protocols {
        let t0 = Instant::now();
        let cell = compute_cell(s, p, seed, trace, false);
        sum[0] += t0.elapsed().as_secs_f64();
        let key = cache_key(p, s, seed, trace, false);
        sum[1] += seconds_per_call(reps, reps, 0.0, || cache.put(&key, seed, &cell));
        sum[2] += seconds_per_call(reps, 10_000, 0.02, || {
            black_box(cache.get(&key));
        });
        sum[3] += seconds_per_call(reps, 10_000, 0.02, || {
            black_box(run_response_lines(1, &cell, true));
        });
    }
    let _ = std::fs::remove_file(&path);
    Ok(sum.map(|x| x * 1e3 / protocols.len() as f64))
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    sum / n.max(1) as f64
}

/// Reports every per-layer metric for the workload whose cells are
/// `cells`. Runner timings come from `ran`, the window's first round of
/// cells (seed-major: every protocol on each seed), fleet lanes from
/// `spans` when the window ran the fleet, and served-request numbers
/// from `served` when the window served; otherwise one cell per
/// protocol, a probe round and a probe exchange stand in.
pub fn per_layer(
    cells: &Cells,
    args: &Args,
    spans: &[Span],
    ran: Vec<RunResult>,
    served: Option<ServeStats>,
    out: &mut Outcome,
) -> Result<(), String> {
    let s = &cells.scenario;
    let n = cells.protocols.len();
    let seed = derive_seed(args.seed, "probe", 0);
    let topo = uniform_square(s.n_nodes, s.radius, seed);

    // workload: the runner's own phase timings.
    let results: Vec<RunResult> = if ran.len() >= n {
        ran
    } else {
        cells
            .protocols
            .iter()
            .map(|&p| run_one(s, p, seed))
            .collect()
    };
    let phase_ms = |f: fn(&RunResult) -> u64| mean(results.iter().map(|r| f(r) as f64 / 1e3));
    out.metric(
        "workload.setup_ms",
        phase_ms(|r| r.manifest.wall_clock.setup_us),
        "ms",
        results.len(),
    );
    out.metric(
        "workload.simulate_ms",
        phase_ms(|r| r.manifest.wall_clock.simulate_us),
        "ms",
        results.len(),
    );
    out.metric(
        "workload.collect_ms",
        phase_ms(|r| r.manifest.wall_clock.collect_us),
        "ms",
        results.len(),
    );
    // One result per protocol for the per-call probes below.
    let results = &results[..n];

    // sim: the engine alone, then its phase attribution.
    let slots = (s.sim_slots * n as u64) as f64;
    let (mut engine_ns, mut skipped) = (0.0, 0);
    for &p in cells.protocols {
        let (ns, sk) = drive_engine(s, &topo, p, seed);
        engine_ns += ns;
        skipped += sk;
    }
    out.metric("sim.engine.ns_per_slot", engine_ns / slots, "ns/slot", n);
    out.metric("sim.engine.skipped_frac", skipped as f64 / slots, "frac", n);
    let mut profile = ProfileReport::default();
    for &p in cells.protocols {
        profile.merge(&run_one_profiled(s, p, seed).1);
    }
    for phase in Phase::ALL {
        let ns = profile.phase(phase.name()).map_or(0, |p| p.ns);
        out.metric(
            format!("sim.phase.{}.ns_per_slot", phase.name()),
            ns as f64 / slots,
            "ns/slot",
            n,
        );
    }
    let topo_s = seconds_per_call(3, 1_000, 0.05, || {
        black_box(uniform_square(s.n_nodes, s.radius, seed));
    });
    out.metric("sim.topology.build_ms", topo_s * 1e3, "ms", 1);

    // mac
    let build_s = mean(cells.protocols.iter().map(|&p| {
        seconds_per_call(3, 1_000, 0.02, || {
            black_box(MacNode::build_network(&topo, p, s.timing, seed));
        })
    }));
    out.metric("mac.build_network_ms", build_s * 1e3, "ms", n);

    // geom
    let (mcs_us, update_us, ratio, sets) = geom_probe(&topo);
    out.metric("geom.min_cover_set_us", mcs_us, "us", sets);
    out.metric("geom.update_uncovered_us", update_us, "us", sets);
    out.metric("geom.cover_ratio", ratio, "frac", sets);

    // stats
    let metrics_s = mean(results.iter().map(|r| {
        let group: Vec<_> = r.messages.iter().filter(|m| m.is_group).cloned().collect();
        seconds_per_call(10, 100_000, 0.01, || {
            black_box(RunMetrics::compute(&group, s.reliability_threshold));
        })
    }));
    out.metric("stats.run_metrics_us", metrics_s * 1e6, "us", n);

    // fleet
    let (overhead_us, idle, jobs) = match fleet_lanes(spans) {
        Some(lanes) => lanes,
        None => {
            let rec = Recorder::new(true);
            let jobs: Vec<(ProtocolKind, u64)> = (0..2)
                .flat_map(|k| {
                    let seed = derive_seed(args.seed, "probe-round", k);
                    cells.protocols.iter().map(move |&p| (p, seed))
                })
                .collect();
            run_round(s, &jobs, SWEEP_WORKERS, &rec, None);
            fleet_lanes(&rec.spans()).expect("the probe round has lanes")
        }
    };
    out.metric("fleet.job_overhead_us", overhead_us, "us", jobs);
    out.metric("fleet.idle_frac", idle, "frac", jobs);
    let header = ManifestHeader {
        sweep: "ladder-probe".into(),
        options_hash: "0x0".into(),
        jobs: 0,
        version: MANIFEST_VERSION,
        schema: scenario_schema_hash(),
    };
    let path = args.tmp.join("probe.manifest.jsonl");
    let manifest =
        Manifest::create(&path, &header, &[]).map_err(|e| format!("probe manifest: {e}"))?;
    let append_s = mean(results.iter().map(|r| {
        let json = canonical_json(r);
        let id = JobId::new("probe", r.manifest.protocol.name(), r.seed);
        seconds_per_call(3, 20, 0.01, || manifest.append(&id, &json))
    }));
    drop(manifest);
    let _ = std::fs::remove_file(&path);
    out.metric("fleet.manifest_append_us", append_s * 1e6, "us", n);

    // serve: in process, then as a client sees it.
    let plain = serve_costs(s, cells.protocols, seed, false, &args.tmp)?;
    let traced = serve_costs(s, &[ProtocolKind::Bmmm], seed, true, &args.tmp)?;
    for (suffix, costs) in [("", plain), (".traced", traced)] {
        for (name, ms) in ["compute_cell", "cache_put", "cache_get", "render"]
            .iter()
            .zip(costs)
        {
            out.metric(format!("serve.{name}_ms{suffix}"), ms, "ms", 1);
        }
    }
    let served = match served {
        Some(served) => served,
        None => serve::probe_exchange(cells, args.seed, &args.tmp)?,
    };
    let [hit, miss, traced_p50] = served.p50_ms;
    for ((class, p50), n) in [("hit", hit), ("miss", miss), ("traced", traced_p50)]
        .into_iter()
        .zip(served.n)
    {
        out.metric(format!("serve.latency_ms.{class}"), p50, "ms", n);
    }
    out.metric("serve.transport_ms.hit", hit - plain[2] - plain[3], "ms", 1);
    out.metric(
        "serve.transport_ms.miss",
        miss - plain[0] - plain[1] - plain[3],
        "ms",
        1,
    );
    out.metric(
        "serve.transport_ms.traced",
        traced_p50 - traced[0] - traced[1] - traced[3],
        "ms",
        1,
    );
    out.metric(
        "serve.response_bytes.hit",
        served.hit_bytes,
        "bytes",
        served.n[0],
    );
    out.metric(
        "serve.response_bytes.traced",
        served.traced_bytes,
        "bytes",
        served.n[2],
    );
    out.metric("serve.cache_hit_frac", served.hit_frac, "frac", 1);
    out.metric("serve.engine_runs", served.engine_runs, "count", 1);

    // experiments: each figure invocation on its own.
    for (fig, secs) in crate::repro::figure_seconds(&args.tmp)? {
        out.metric(format!("experiments.{fig}_s"), secs, "s", 1);
    }
    Ok(())
}

//! Figure 5: expected total number of contention phases per multicast vs
//! the number of intended receivers (per-round per-receiver success
//! probability `p = 0.9`), for BMW, BMMM, and LAMM.
//!
//! The paper notes that these analytical lines "coincide with the lines
//! of the average number of contention phases in Figure 9(a) very well";
//! the `fig5_overlay` table makes that claim measurable: a controlled
//! single-cell simulation with the frame-error rate chosen so that the
//! per-round per-receiver success probability is exactly `p = 0.9`
//! (a receiver is served iff its DATA, RAK and ACK all survive:
//! `p = (1 − fer)³`), overlaid on the recursion.

use crate::common::{emit, f2, f3, run_grid, Options};
use rmm_analysis::{
    bmmm_expected_total_phases, bmw_expected_total_phases, lamm_expected_total_phases,
};
use rmm_fleet::JobId;
use rmm_geom::Point;
use rmm_mac::{MacNode, MacTiming, Outcome, ProtocolKind, TrafficKind};
use rmm_sim::{Capture, Engine, NodeId, Topology};
use rmm_stats::Table;

fn star(n: usize) -> Topology {
    let mut pts = vec![Point::new(0.5, 0.5)];
    for i in 0..n {
        let a = i as f64 * std::f64::consts::TAU / n as f64;
        pts.push(Point::new(0.5 + 0.05 * a.cos(), 0.5 + 0.05 * a.sin()));
    }
    Topology::new(pts, 0.2)
}

/// Measured contention phases of one clean-cell multicast with the
/// channel's frame-error rate dialed to the target per-round `p`. The
/// fleet-job body for the overlay grid.
fn simulate_one(protocol: ProtocolKind, n: usize, p: f64, seed: u64) -> f64 {
    // A receiver is served in a round iff DATA, RAK and ACK survive.
    let fer = 1.0 - p.cbrt();
    let timing = MacTiming {
        timeout: 20_000,
        ..Default::default()
    };
    let topo = star(n);
    let mut nodes = MacNode::build_network(&topo, protocol, timing, seed);
    let mut engine = Engine::new(topo, Capture::ZorziRao, seed);
    engine.set_fer(fer);
    let receivers: Vec<NodeId> = (1..=n as u32).map(NodeId).collect();
    nodes[0].enqueue(TrafficKind::Multicast, receivers, 0);
    // The multicast finishes within tens of slots; the event-horizon
    // stepper skips the idle rest bit-exactly.
    engine.run_fast(&mut nodes, 25_000);
    let rec = &nodes[0].records()[0];
    assert!(
        matches!(rec.outcome, Outcome::Completed(_)),
        "{protocol:?} n={n} seed={seed}: {:?}",
        rec.outcome
    );
    f64::from(rec.contention_phases)
}

/// Runs the Figure 5 experiment (analysis + LAMM Monte Carlo + the
/// analysis-vs-simulation overlay).
pub fn run(options: &Options) {
    let p = 0.9;
    let trials = (options.runs * 40).max(400);
    // One fleet job per LAMM Monte Carlo row: each row seeds its own
    // generator, so the rows are independent of the worker count.
    let lamm_jobs: Vec<(JobId, usize)> = (1..=20usize)
        .map(|n| (JobId::new("fig5_lamm", format!("n={n}"), 42), n))
        .collect();
    let lamm_hash = [format!("p={p}|trials={trials}|r=0.2")];
    let lamm: Vec<f64> = run_grid(options, "fig5_lamm", &lamm_hash, &lamm_jobs, |id, &n| {
        lamm_expected_total_phases(n, p, 0.2, trials, id.seed)
    });
    let mut table = Table::new(["n", "BMW", "BMMM", "LAMM"]);
    for (&(_, n), lamm) in lamm_jobs.iter().zip(lamm) {
        table.row([
            n.to_string(),
            f3(bmw_expected_total_phases(n, p)),
            f3(bmmm_expected_total_phases(n, p)),
            f3(lamm),
        ]);
    }
    emit(
        options,
        "fig5",
        "Figure 5: expected total contention phases vs n (p = 0.9) — \
         BMW linear, BMMM/LAMM far below and sub-linear",
        &table,
    );

    // The "lines coincide" overlay: f_n vs a controlled simulation, one
    // fleet job per (protocol, n, seed).
    let seeds = (options.runs as u64 * 2).clamp(20, 120);
    let ns = [1usize, 2, 4, 6, 8, 10];
    let mut jobs: Vec<(JobId, (ProtocolKind, usize))> = Vec::new();
    for &n in &ns {
        for proto in [ProtocolKind::Bmmm, ProtocolKind::Bmw] {
            for seed in 0..seeds {
                jobs.push((
                    JobId::new("fig5", format!("{}/n={n}", proto.name()), seed),
                    (proto, n),
                ));
            }
        }
    }
    let hash_parts = [format!("p={p}|seeds={seeds}")];
    let phases: Vec<f64> = run_grid(options, "fig5", &hash_parts, &jobs, |id, &(proto, n)| {
        simulate_one(proto, n, p, id.seed)
    });
    let mean = |chunk: &[f64]| chunk.iter().sum::<f64>() / chunk.len() as f64;
    let mut per_cell = phases.chunks(seeds as usize);
    let mut overlay = Table::new(["n", "f_n (analysis)", "BMMM sim", "BMW analysis", "BMW sim"]);
    for &n in &ns {
        let bmmm_sim = mean(per_cell.next().expect("BMMM cell"));
        let bmw_sim = mean(per_cell.next().expect("BMW cell"));
        overlay.row([
            n.to_string(),
            f2(bmmm_expected_total_phases(n, p)),
            f2(bmmm_sim),
            f2(bmw_expected_total_phases(n, p)),
            f2(bmw_sim),
        ]);
    }
    emit(
        options,
        "fig5_overlay",
        "Figure 5 overlay: the f_n recursion vs a controlled single-cell \
         simulation at the same per-round p = 0.9 (the paper: the lines \
         'coincide very well')",
        &overlay,
    );
}

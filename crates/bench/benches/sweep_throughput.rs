//! Sweep throughput: serial (`--jobs 1`) vs parallel (`--jobs N`)
//! execution of the same seed sweep through the fleet pool.
//!
//! It times `run_many_jobs` at one worker and at the machine's core
//! count, cross-checks that the two produce byte-identical results (the
//! fleet's determinism contract), and writes the wall-clock numbers to
//! `BENCH_sweep.json` so the perf trajectory is machine-readable.
//! On a single-core box the speedup honestly reports ~1.0; the ≥2.5×
//! target applies on 4+ cores.
//!
//! Env knobs: `BENCH_SMOKE=1` shrinks runs/slots for CI smoke runs;
//! `BENCH_SWEEP_OUT` overrides the output path (default
//! `results/BENCH_sweep.json` at the workspace root).

use rmm::fleet::{hex, Fnv1a};
use rmm::mac::ProtocolKind;
use rmm::workload::{run_many_jobs, RunResult, Scenario};
use rmm_bench::median;
use serde::Serialize;
use std::time::Instant;

/// Digest of everything a sweep *simulated*, for the serial-vs-parallel
/// determinism cross-check. Covers every result field except the run
/// provenance (`RunResult::manifest` records wall-clock phases, which
/// legitimately vary between repetitions). Serde's canonical float
/// formatting makes this sensitive to any bit-level drift.
fn digest(results: &[RunResult]) -> String {
    let mut h = Fnv1a::new();
    for r in results {
        h.write_u64(r.seed);
        h.write_u64(r.mean_degree.to_bits());
        h.write_u64(r.utilization.to_bits());
        h.write_u64(r.collisions);
        for part in [
            serde_json::to_string(&r.group_metrics),
            serde_json::to_string(&r.unicast_metrics),
            serde_json::to_string(&r.messages),
            serde_json::to_string(&r.frames),
            serde_json::to_string(&r.stalls),
        ] {
            h.write_str(&part.expect("result field serializes"));
        }
    }
    hex(h.finish())
}

#[derive(Debug, Serialize)]
struct Report {
    bench: &'static str,
    smoke: bool,
    host: rmm_bench::HostMeta,
    cores: usize,
    workers: usize,
    n_runs: usize,
    sim_slots: u64,
    reps: usize,
    serial_ms: f64,
    parallel_ms: f64,
    /// Serial/parallel wall-clock ratio. On a single-core host this is
    /// not a parallel speedup at all — both configurations run the same
    /// one-worker schedule — so consumers must gate on `single_core`
    /// before reading anything into it.
    speedup: f64,
    /// True when the host exposes only one core: the speedup column is
    /// pure scheduling noise there, and perf gates should skip it.
    single_core: bool,
    digests_match: bool,
}

fn main() {
    let smoke = rmm_bench::smoke();
    let reps = if smoke { 3 } else { 5 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let scenario = Scenario {
        n_runs: if smoke { 8 } else { 24 },
        sim_slots: if smoke { 1_500 } else { 4_000 },
        ..Scenario::default()
    };
    let seed_base = 42u64;

    // Warm-up run (pulls the binary/pages in), also the digest baseline.
    let baseline = run_many_jobs(&scenario, ProtocolKind::Bmmm, seed_base, 1);
    let baseline_digest = digest(&baseline);

    let mut serial_ms = Vec::new();
    let mut parallel_ms = Vec::new();
    let mut digests_match = true;
    for _ in 0..reps {
        let start = Instant::now();
        let serial = run_many_jobs(&scenario, ProtocolKind::Bmmm, seed_base, 1);
        serial_ms.push(start.elapsed().as_secs_f64() * 1e3);
        digests_match &= digest(&serial) == baseline_digest;

        let start = Instant::now();
        let parallel = run_many_jobs(&scenario, ProtocolKind::Bmmm, seed_base, cores);
        parallel_ms.push(start.elapsed().as_secs_f64() * 1e3);
        digests_match &= digest(&parallel) == baseline_digest;
    }

    let serial_med = median(&serial_ms);
    let parallel_med = median(&parallel_ms);
    let report = Report {
        bench: "sweep_throughput",
        smoke,
        host: rmm_bench::host_meta(),
        cores,
        workers: cores,
        n_runs: scenario.n_runs,
        sim_slots: scenario.sim_slots,
        reps,
        serial_ms: serial_med,
        parallel_ms: parallel_med,
        speedup: serial_med / parallel_med,
        single_core: cores == 1,
        digests_match,
    };
    eprintln!(
        "[sweep_throughput] {} runs × {} slots on {} core(s): serial {:>8.1} ms | parallel {:>8.1} ms | {:.2}x | deterministic: {}",
        report.n_runs,
        report.sim_slots,
        report.cores,
        report.serial_ms,
        report.parallel_ms,
        report.speedup,
        report.digests_match,
    );
    if report.single_core {
        eprintln!(
            "[sweep_throughput] single-core host: the speedup column is noise, not parallel scaling"
        );
    }
    assert!(
        report.digests_match,
        "parallel sweep diverged from the serial baseline"
    );
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let out = rmm_bench::write_report("BENCH_SWEEP_OUT", "BENCH_sweep.json", &json);
    eprintln!("[sweep_throughput] wrote {out}");
}

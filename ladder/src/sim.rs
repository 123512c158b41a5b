//! The three simulation workloads: rounds of seeded cells swept through
//! the fleet pool, as `experiments` and `rmm compare` run them.

use crate::probe::{self, Cells};
use crate::{
    canonical_json, derive_seed, digest, median, peak_rss_mb, Args, Outcome, Recorder, SpanId,
};
use rmm_fleet::run_parallel;
use rmm_mac::ProtocolKind;
use rmm_workload::{run_one, run_one_naive, RunResult, Scenario};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// How many times set-up is repeated; `setup_s` is their median. The
/// first few set-ups of a process run slow (a quarter to a half on the
/// 2-worker sweeps), so enough follow for the median to be a warm one.
const SETUP_REPS: u64 = 15;

/// One simulation workload: each round runs every protocol on each of
/// `seeds_per_round` fresh seeds, on `workers` fleet workers.
pub struct SimSpec {
    /// Scenario and protocols of every cell.
    pub cells: Cells,
    /// Fresh seeds per round.
    pub seeds_per_round: usize,
    /// Fleet workers per round.
    pub workers: usize,
}

/// Fleet workers of the sweeps: what `experiments` runs with by default
/// (one per core) on the 2-core reference host, fixed so that a larger
/// host runs the same schedule.
pub const SWEEP_WORKERS: usize = 2;

const BMMM_LAMM: &[ProtocolKind] = &[ProtocolKind::Bmmm, ProtocolKind::Lamm];

/// The spec of a simulation workload, by name.
pub fn spec(workload: &str) -> Option<SimSpec> {
    match workload {
        // Table 2: the traffic the paper's figures are built from. Short
        // jobs, so per-job fleet overhead shows; the event horizon skips
        // about a third of the slots.
        "paper_sweep" => Some(SimSpec {
            cells: Cells {
                scenario: Scenario::default(),
                protocols: &ProtocolKind::EVERY,
            },
            seeds_per_round: 8,
            workers: SWEEP_WORKERS,
        }),
        // Ten times the load: collision slots dominate, LAMM's exact
        // cover-set search is most of the slot, the horizon skips nothing.
        "saturated" => Some(SimSpec {
            cells: Cells {
                scenario: Scenario {
                    msg_rate: 5e-3,
                    sim_slots: 4_000,
                    ..Scenario::default()
                },
                protocols: BMMM_LAMM,
            },
            seeds_per_round: 8,
            workers: SWEEP_WORKERS,
        }),
        // 10 000 stations at the paper's density (mean degree ≈ 12.4):
        // most stations are idle in a slot, so the O(N) station walk
        // dominates. One worker: a round is four long cells, so two
        // workers would mostly measure how evenly those split. Fleet
        // concurrency is bypassed and the round time is the cells' own.
        "scale_10k" => Some(SimSpec {
            cells: Cells {
                scenario: Scenario {
                    n_nodes: 10_000,
                    radius: 0.02,
                    msg_rate: 5e-5,
                    sim_slots: 2_000,
                    ..Scenario::default()
                },
                protocols: BMMM_LAMM,
            },
            seeds_per_round: 2,
            workers: 1,
        }),
        _ => None,
    }
}

/// One cell: a protocol and a seed.
type Job = (ProtocolKind, u64);

/// The cells of round `index` of `stream`: every protocol on each fresh
/// seed, seed-major so the pool's contiguous shards stay balanced.
fn round_jobs(cells: &Cells, seed: u64, stream: &str, index: u64, seeds: usize) -> Vec<Job> {
    (0..seeds as u64)
        .flat_map(|k| {
            let s = derive_seed(seed, stream, index * seeds as u64 + k);
            cells.protocols.iter().map(move |&p| (p, s))
        })
        .collect()
}

/// Runs one round of cells on the fleet pool. Spans: the round and one
/// lane per worker, both the harness's own (`ladder`), then each
/// `run_one` call and the runner phases its manifest timed (laid end to
/// end from the call's start).
pub fn run_round(
    scenario: &Scenario,
    jobs: &[Job],
    workers: usize,
    rec: &Recorder,
    parent: SpanId,
) -> Vec<Option<RunResult>> {
    let round = rec.open("ladder.round", parent);
    let lanes: Vec<SpanId> = (0..workers)
        .map(|_| rec.open("ladder.lane", round))
        .collect();
    let results = run_parallel(workers, jobs, |w, &(protocol, seed)| {
        let cell = rec.open("workload.run_one", lanes[w]);
        let result = catch_unwind(AssertUnwindSafe(|| run_one(scenario, protocol, seed))).ok();
        rec.close(cell);
        if let (Some(r), Some(mut at)) = (&result, rec.start_of(cell)) {
            let t = &r.manifest.wall_clock;
            for (name, us) in [
                ("workload.setup", t.setup_us),
                ("sim.engine", t.simulate_us),
                ("workload.collect", t.collect_us),
            ] {
                rec.record(name, at, at + us * 1_000, cell);
                at += us * 1_000;
            }
        }
        result
    });
    for lane in lanes {
        rec.close(lane);
    }
    rec.close(round);
    results
}

/// Runs a simulation workload: set-up, the timed window of rounds, then
/// the correctness gates (and, traced, the per-layer probes).
pub fn run(name: &str, spec: &SimSpec, args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let scenario = &spec.cells.scenario;

    // Set-up: the job list plus one warm-up cell per protocol.
    let untraced = Recorder::new(false);
    let mut setup_s = Vec::new();
    let mut warm_jobs = Vec::new();
    let mut warm = Vec::new();
    for rep in 0..crate::setup_reps(SETUP_REPS, args) {
        let t0 = Instant::now();
        warm_jobs = round_jobs(&spec.cells, args.seed, "setup", rep, 1);
        warm = run_round(scenario, &warm_jobs, spec.workers, &untraced, None);
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let rec = Recorder::new(args.traced);
    let window = rec.open("ladder.window", None);
    let t0 = Instant::now();
    let mut round_s = Vec::new();
    let mut cells_per_s = Vec::new();
    let mut round0 = Vec::new();
    let mut round = 0;
    while round == 0 || t0.elapsed().as_secs_f64() < args.seconds {
        let jobs = round_jobs(&spec.cells, args.seed, "round", round, spec.seeds_per_round);
        let t = Instant::now();
        let results = run_round(scenario, &jobs, spec.workers, &rec, window);
        let wall = t.elapsed().as_secs_f64();
        round_s.push(wall);
        cells_per_s.push(jobs.len() as f64 / wall);
        out.attempted += jobs.len() as u64;
        for (&(protocol, seed), r) in jobs.iter().zip(&results) {
            match r {
                None => out.failed += 1,
                Some(r) if r.seed != seed || r.manifest.protocol != protocol => out.fail(format!(
                    "cell {} #{seed} returned another cell",
                    protocol.name()
                )),
                Some(_) => {}
            }
        }
        if round == 0 {
            round0 = results.into_iter().flatten().collect();
        }
        round += 1;
    }
    rec.close(window);
    let window_s = t0.elapsed().as_secs_f64();
    let rss = peak_rss_mb();

    // Correctness, outside the window: fast stepping against the naive
    // reference on one cell per protocol, and the committed digest.
    for (&(p, s), fast) in warm_jobs.iter().zip(&warm) {
        let naive = canonical_json(&run_one_naive(scenario, p, s));
        if fast.as_ref().map(canonical_json) != Some(naive) {
            out.fail(format!(
                "{} #{s}: run_one differs from run_one_naive",
                p.name()
            ));
        }
    }
    crate::digest_gate(name, args.seed, &digest(&round0), &mut out);

    out.details
        .insert("rounds", serde_json::json!(round_s.len()));
    out.details.insert("window_s", serde_json::json!(window_s));
    if !args.traced {
        out.metric("setup_s", median(&setup_s), "s", setup_s.len());
        out.details.insert("setup_s", serde_json::json!(setup_s));
        out.metric(
            "throughput_per_s",
            median(&cells_per_s),
            "1/s",
            cells_per_s.len(),
        );
        let round_ms: Vec<f64> = round_s.iter().map(|s| s * 1e3).collect();
        out.metric("latency_ms_p50", median(&round_ms), "ms", round_ms.len());
        out.metric("peak_rss_mb", rss, "MB", 1);
        out.note_tail("latency_ms", &round_ms, "ms");
        return Ok(out);
    }

    let spans = rec.spans();
    probe::unexplained(&spans, spec.workers as f64, &mut out);
    probe::per_layer(&spec.cells, args, &spans, round0, None, &mut out)?;
    out.spans = spans;
    Ok(out)
}

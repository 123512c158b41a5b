//! The reproduction workload: `experiments all --quick` as a child
//! process, the command users run to reproduce the paper.

use crate::probe::{self, Cells};
use crate::{lines_digest, median, run_child, Args, Outcome, Recorder};
use rmm_mac::ProtocolKind;
use rmm_workload::Scenario;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// How many times set-up is repeated; `setup_s` is their median.
const SETUP_REPS: u64 = 7;

/// The set-up's warm-up invocation: one figure's sweep through the fleet
/// pool and its manifest (about 0.2 s), which also loads the binary. The
/// smallest invocations take about a millisecond, mostly process start,
/// and their time moved by half between otherwise equal runs.
const WARM_UP: &str = "fig8";

/// The invocations that together do the work of `all`.
const FIGURES: [&str; 6] = ["table1", "fig2", "fig5", "fig6", "fig7", "fig8"];

/// The `experiments` binary, built into the same directory as this one.
fn experiments_bin() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin = exe.with_file_name("experiments");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} is missing; build it with `cargo build --release -p rmm-experiments`",
            bin.display()
        ))
    }
}

/// Fleet workers of each invocation (`--jobs`): what the default (one per
/// core) gives on the 2-core reference host, fixed so that a larger host
/// runs the same schedule.
const JOBS: &str = "2";

/// One finished `experiments` invocation.
struct Invocation {
    seconds: f64,
    ok: bool,
    peak_rss_mb: f64,
}

/// Runs `experiments <what> --quick --jobs 2 --out <dir>`.
fn invoke(bin: &Path, what: &str, dir: &Path) -> Invocation {
    let t0 = Instant::now();
    let run = std::fs::create_dir_all(dir).and_then(|()| {
        run_child(
            Command::new(bin)
                .args([what, "--quick", "--jobs", JOBS, "--out"])
                .arg(dir)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
        )
    });
    let (ok, peak_rss_mb) = run.unwrap_or((false, 0.0));
    Invocation {
        seconds: t0.elapsed().as_secs_f64(),
        ok,
        peak_rss_mb,
    }
}

/// Digest of the CSV and SVG artifacts in `dir`, by file name. The fleet
/// manifests are left out: they record wall-clock time.
fn artifacts_digest(dir: &Path) -> std::io::Result<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.ends_with(".csv") || n.ends_with(".svg"))
        .collect();
    names.sort();
    let mut parts = Vec::new();
    for name in names {
        let bytes = std::fs::read(dir.join(&name))?;
        parts.push(name.into_bytes());
        parts.push(bytes);
    }
    Ok(lines_digest(&parts))
}

/// Wall-clock seconds of each figure invocation on its own.
pub fn figure_seconds(tmp: &Path) -> Result<Vec<(&'static str, f64)>, String> {
    let bin = experiments_bin()?;
    FIGURES
        .iter()
        .map(|&fig| {
            let dir = tmp.join(format!("figure-{fig}"));
            let run = invoke(&bin, fig, &dir);
            let _ = std::fs::remove_dir_all(&dir);
            if run.ok {
                Ok((fig, run.seconds))
            } else {
                Err(format!("experiments {fig} --quick failed"))
            }
        })
        .collect()
}

/// Runs the `repro_quick` workload. It ignores `--seed`: the suite's
/// inputs are fixed.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = experiments_bin()?;
    let mut out = Outcome::default();

    // Set-up: a fresh output directory and a warm-up invocation.
    let mut setup_s = Vec::new();
    for rep in 0..crate::setup_reps(SETUP_REPS, args) {
        let dir = args.tmp.join(format!("setup-{rep}"));
        let run = invoke(&bin, WARM_UP, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        if !run.ok {
            return Err(format!(
                "experiments {WARM_UP} --quick failed during set-up"
            ));
        }
        setup_s.push(run.seconds);
    }

    let rec = Recorder::new(args.traced);
    let window = rec.open("ladder.window", None);
    let t0 = Instant::now();
    let mut suite_s = Vec::new();
    let mut rss: f64 = 0.0;
    let mut digests = Vec::new();
    while suite_s.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let dir = args.tmp.join(format!("suite-{}", suite_s.len()));
        let span = rec.open("experiments.all", window);
        let run = invoke(&bin, "all", &dir);
        rec.close(span);
        suite_s.push(run.seconds);
        rss = rss.max(run.peak_rss_mb);
        out.attempted += 1;
        if run.ok {
            digests.push(artifacts_digest(&dir).map_err(|e| format!("artifacts: {e}"))?);
        } else {
            out.failed += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    rec.close(window);
    digests.dedup();
    for d in &digests {
        crate::digest_gate("repro_quick", args.seed, d, &mut out);
    }

    let suite_ms: Vec<f64> = suite_s.iter().map(|s| s * 1e3).collect();
    if !args.traced {
        out.metric("setup_s", median(&setup_s), "s", setup_s.len());
        out.details.insert("setup_s", serde_json::json!(setup_s));
        out.metric(
            "throughput_per_s",
            1.0 / median(&suite_s),
            "1/s",
            suite_s.len(),
        );
        out.metric("latency_ms_p50", median(&suite_ms), "ms", suite_ms.len());
        out.metric("peak_rss_mb", rss, "MB", suite_s.len());
        return Ok(out);
    }

    let spans = rec.spans();
    let cells = Cells {
        scenario: Scenario {
            sim_slots: 4_000,
            n_runs: 1,
            ..Scenario::default()
        },
        protocols: &ProtocolKind::EVERY,
    };
    probe::per_layer(&cells, args, &spans, Vec::new(), None, &mut out)?;
    // The layers here are the figure invocations: how much of the
    // suite's wall clock do they account for?
    let figures: f64 = out
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("experiments."))
        .map(|m| m.value)
        .sum();
    out.metric(
        "ladder.unexplained_frac",
        1.0 - figures / median(&suite_s),
        "frac",
        suite_s.len(),
    );
    out.spans = spans;
    Ok(out)
}

//! Command-line front end for the reliable multicast MAC simulator.
//!
//! ```text
//! rmm run     --protocol lamm [--config s.json] [--nodes N] [--slots N]
//!             [--rate X] [--timeout N] [--runs N] [--seed N] [--json]
//!             [--trace-out t.jsonl] [--metrics-out m.json]
//!             [--profile-out p.json] [--jobs N] [--manifest f.jsonl] [--resume]
//! rmm compare [--config s.json] [same overrides] [--metrics-out m.json]
//!             [--jobs N]
//! rmm trace   --protocol bmmm [--seed N] [overrides]  # JSONL to stdout
//! rmm prof    --protocol bmmm [--seed N] [--json] [--profile-out p.json]
//!             [--prom-out p.prom] [overrides]
//! rmm chaos   [--iters N] [--budget-secs N] [--protocol name] [--seed N]
//!             [--canary] [--out repro.json] [--repro repro.json] [overrides]
//! rmm config  # emit a default scenario JSON template to stdout
//! ```
//!
//! Configs are the JSON serialization of
//! [`rmm::workload::Scenario`]; command-line flags override
//! individual fields after the file is loaded. `trace`, `prof`, and `run`
//! with `--trace-out`/`--metrics-out`/`--profile-out` execute one traced
//! and profiled run at the given seed ([`CellExport`]) and export from
//! it: the protocol event log as JSON Lines, the metrics registry folded
//! from it, and the phase-timer attribution.

use rmm::fleet::{run_sweep, Fnv1a, JobId, SweepConfig};
use rmm::mac::ProtocolKind;
use rmm::sim::{FaultPlan, GilbertElliott, SpecError, Trace};
use rmm::stats::{render_profile, render_registry, MetricsRegistry, ProfileReport, Summary, Table};
use rmm::workload::{
    collect_metrics, mean_group_metrics, run, run_chaos, run_many_jobs, run_one, ChaosConfig,
    ChaosOutcome, ChaosRepro, ChurnPlan, Probes, RunResult, RunSpec, Scenario,
};
use std::time::Duration;

/// How a run sweep is executed: worker count and optional resumable
/// manifest (`--jobs`, `--manifest`, `--resume`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepOpts {
    /// Fleet worker threads (0 = one per available core). Results are
    /// identical at any value.
    pub jobs: usize,
    /// Manifest file recording completed runs for `--resume`.
    pub manifest: Option<String>,
    /// Reuse completed runs from the manifest instead of re-executing.
    pub resume: bool,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one protocol and report its metrics.
    Run {
        /// Protocol under test.
        protocol: ProtocolKind,
        /// Scenario after config + overrides.
        scenario: Scenario,
        /// Base seed for the run sweep (and the traced export run).
        seed: u64,
        /// Emit machine-readable JSON instead of a table.
        json: bool,
        /// Write a traced run's event log (JSON Lines) to this file.
        trace_out: Option<String>,
        /// Write a traced run's metrics registry (JSON) to this file.
        metrics_out: Option<String>,
        /// Write a profiled run's attribution report (JSON) to this file.
        profile_out: Option<String>,
        /// Parallelism and resume options.
        sweep: SweepOpts,
    },
    /// Run every protocol on the same scenario and print the comparison.
    Compare {
        /// Scenario after config + overrides.
        scenario: Scenario,
        /// Base seed for the run sweeps.
        seed: u64,
        /// Emit machine-readable JSON instead of a table.
        json: bool,
        /// Write per-protocol traced-run metrics (JSON) to this file.
        metrics_out: Option<String>,
        /// Fleet worker threads (0 = one per available core).
        jobs: usize,
    },
    /// Execute one traced run and export its event log.
    Trace {
        /// Protocol under test.
        protocol: ProtocolKind,
        /// Scenario after config + overrides.
        scenario: Scenario,
        /// Seed of the traced run.
        seed: u64,
        /// Event log destination (stdout when absent).
        trace_out: Option<String>,
        /// Metrics registry destination (not written when absent).
        metrics_out: Option<String>,
    },
    /// Profile one run: engine phase timers, airtime ledger, FSM dwell.
    Prof {
        /// Protocol under test.
        protocol: ProtocolKind,
        /// Scenario after config + overrides.
        scenario: Scenario,
        /// Seed of the profiled run.
        seed: u64,
        /// Emit machine-readable JSON instead of tables.
        json: bool,
        /// Write the attribution report (JSON) to this file.
        profile_out: Option<String>,
        /// Write a Prometheus text-exposition snapshot to this file.
        prom_out: Option<String>,
    },
    /// Run a chaos campaign: randomized fault + churn + burst schedules
    /// checked against the harness invariants, with automatic shrinking.
    Chaos {
        /// Base scenario after config + overrides (its fault/churn/burst
        /// fields are overwritten per iteration).
        scenario: Scenario,
        /// Restrict the campaign to one protocol (all eight otherwise).
        protocol: Option<ProtocolKind>,
        /// Maximum schedules to try.
        iters: u64,
        /// Optional wall-clock budget in seconds.
        budget_secs: Option<u64>,
        /// Master seed; iteration `i` uses `seed + i`.
        seed: u64,
        /// Emit the outcome as JSON instead of a table.
        json: bool,
        /// Write the shrunk repro (JSON) here when a failure is found.
        out: Option<String>,
        /// Replay a stored repro file instead of running a campaign.
        repro: Option<String>,
    },
    /// Start the long-lived simulation daemon.
    Serve {
        /// Bind address (`host:port`; port 0 picks a free port).
        addr: String,
        /// Engine worker threads (0 = one per core; an *explicit*
        /// `--jobs 0` is rejected at parse time).
        jobs: usize,
        /// Concurrent-connection cap.
        max_conns: usize,
        /// Bounded engine-queue depth (TCP backpressure threshold).
        queue_cap: usize,
        /// On-disk result cache, a directory holding one file per cached
        /// cell; if absent, a private directory (mode 0700, made fresh)
        /// deleted once the server drains. A killed server's private
        /// directory is removed by the next server started without one.
        cache: Option<String>,
    },
    /// Talk to a running daemon.
    Submit {
        /// Daemon address (`host:port`).
        addr: String,
        /// What to submit.
        action: SubmitAction,
    },
    /// Print the default scenario as a JSON template.
    Config,
    /// Print usage.
    Help,
}

/// What `rmm submit` does once connected.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitAction {
    /// Submit one cell and print the response lines verbatim (or, with
    /// `local`, compute the identical lines in-process — the byte-diff
    /// oracle CI uses against a running server).
    Run {
        /// Protocol under test.
        protocol: ProtocolKind,
        /// Scenario after config + overrides.
        scenario: Scenario,
        /// Seed of the cell.
        seed: u64,
        /// Ask for the streamed event trace.
        trace: bool,
        /// Ask for the phase-timer profile.
        profile: bool,
        /// Compute locally instead of contacting the daemon.
        local: bool,
    },
    /// Drive a concurrent soak campaign and byte-verify every response
    /// against the serial in-process oracle.
    Soak {
        /// Total requests (spread over all protocols round-robin).
        requests: usize,
        /// Concurrent pipelined connections.
        conns: usize,
        /// Scenario every request uses (seeds differ per request).
        scenario: Scenario,
        /// First seed; request `i` uses `seed + i`.
        seed: u64,
        /// Request a trace on every n-th request (0 = never).
        trace_every: usize,
        /// Require a fully-cached sweep with zero engine runs.
        expect_cached: bool,
    },
    /// Print the daemon's Prometheus metrics snapshot.
    Metrics,
    /// Ask the daemon to drain and exit.
    Shutdown,
}

/// Errors from [`parse_args`].
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// Unknown subcommand or flag.
    Unknown(String),
    /// A flag was missing its value or the value did not parse.
    BadValue(String),
    /// The config file could not be read or parsed.
    BadConfig(String),
    /// `run`, `trace`, and `prof` require `--protocol`.
    MissingProtocol,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Unknown(s) => write!(f, "unknown argument: {s}"),
            CliError::BadValue(s) => write!(f, "bad or missing value for {s}"),
            CliError::BadConfig(s) => write!(f, "config error: {s}"),
            CliError::MissingProtocol => {
                write!(
                    f,
                    "`run`, `trace`, `prof`, and `submit run` require --protocol <name>"
                )
            }
        }
    }
}

/// Parses a protocol name (case-insensitive; accepts the display names
/// and a few aliases). Delegates to [`ProtocolKind::parse`] so the CLI,
/// the serve daemon, and library callers accept exactly the same names.
pub fn parse_protocol(name: &str) -> Option<ProtocolKind> {
    ProtocolKind::parse(name)
}

/// Parses an argument vector (without the binary name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Command, CliError> {
    let mut args = args.into_iter();
    let sub = match args.next() {
        Some(s) => s,
        None => return Ok(Command::Help),
    };
    match sub.as_str() {
        "config" | "help" | "--help" | "-h" => match args.next() {
            Some(extra) => Err(CliError::Unknown(extra)),
            None if sub == "config" => Ok(Command::Config),
            None => Ok(Command::Help),
        },
        "run" | "compare" | "trace" | "prof" | "chaos" => {
            let mut protocol = None;
            let mut scenario = Scenario::default();
            let mut seed = 0u64;
            let mut json = false;
            let mut trace_out = None;
            let mut metrics_out = None;
            let mut profile_out = None;
            let mut prom_out = None;
            let mut sweep = SweepOpts::default();
            let mut iters = 64u64;
            let mut budget_secs = None;
            let mut out = None;
            let mut repro = None;
            let rest: Vec<String> = args.collect();
            let mut i = 0;
            while i < rest.len() {
                if scenario_override(&rest, i, &mut scenario, &mut seed)? {
                    i += 2;
                    continue;
                }
                match rest[i].as_str() {
                    "--protocol" | "-p" => {
                        let v = flag_value(&rest, i, "--protocol")?;
                        protocol =
                            Some(parse_protocol(&v).ok_or_else(|| CliError::BadValue(v.clone()))?);
                        i += 2;
                    }
                    "--trace-out" if sub == "run" || sub == "trace" => {
                        trace_out = Some(flag_value(&rest, i, "--trace-out")?);
                        i += 2;
                    }
                    "--metrics-out" if matches!(sub.as_str(), "run" | "trace" | "compare") => {
                        metrics_out = Some(flag_value(&rest, i, "--metrics-out")?);
                        i += 2;
                    }
                    "--profile-out" if sub == "run" || sub == "prof" => {
                        profile_out = Some(flag_value(&rest, i, "--profile-out")?);
                        i += 2;
                    }
                    "--prom-out" if sub == "prof" => {
                        prom_out = Some(flag_value(&rest, i, "--prom-out")?);
                        i += 2;
                    }
                    "--json" if sub != "trace" => {
                        json = true;
                        i += 1;
                    }
                    "--jobs" if sub == "run" || sub == "compare" => {
                        sweep.jobs = parse_positive(&rest, i, "--jobs")?;
                        i += 2;
                    }
                    "--manifest" if sub == "run" => {
                        sweep.manifest = Some(flag_value(&rest, i, "--manifest")?);
                        i += 2;
                    }
                    "--resume" if sub == "run" => {
                        sweep.resume = true;
                        i += 1;
                    }
                    "--iters" if sub == "chaos" => {
                        iters = parse_num(&rest, i, "--iters")?;
                        i += 2;
                    }
                    "--budget-secs" if sub == "chaos" => {
                        budget_secs = Some(parse_num(&rest, i, "--budget-secs")?);
                        i += 2;
                    }
                    "--out" if sub == "chaos" => {
                        out = Some(flag_value(&rest, i, "--out")?);
                        i += 2;
                    }
                    "--repro" if sub == "chaos" => {
                        repro = Some(flag_value(&rest, i, "--repro")?);
                        i += 2;
                    }
                    "--canary" if sub == "chaos" => {
                        // A preset, like --config: later flags override it.
                        scenario = canary_scenario();
                        protocol = protocol.or(Some(ProtocolKind::Bmw));
                        i += 1;
                    }
                    other => return Err(CliError::Unknown(other.to_string())),
                }
            }
            if sweep.resume && sweep.manifest.is_none() {
                return Err(CliError::BadValue(
                    "--resume (requires --manifest <file>)".into(),
                ));
            }
            // Set-up asserts what validate checks; reject a bad scenario
            // (from flags or a config file) with a friendly error instead
            // of panicking mid-run.
            scenario
                .validate()
                .map_err(|e| CliError::BadValue(format!("the scenario: {e}")))?;
            match sub.as_str() {
                "run" => Ok(Command::Run {
                    protocol: protocol.ok_or(CliError::MissingProtocol)?,
                    scenario,
                    seed,
                    json,
                    trace_out,
                    metrics_out,
                    profile_out,
                    sweep,
                }),
                "prof" => Ok(Command::Prof {
                    protocol: protocol.ok_or(CliError::MissingProtocol)?,
                    scenario,
                    seed,
                    json,
                    profile_out,
                    prom_out,
                }),
                "trace" => Ok(Command::Trace {
                    protocol: protocol.ok_or(CliError::MissingProtocol)?,
                    scenario,
                    seed,
                    trace_out,
                    metrics_out,
                }),
                "chaos" => Ok(Command::Chaos {
                    scenario,
                    protocol,
                    iters,
                    budget_secs,
                    seed,
                    json,
                    out,
                    repro,
                }),
                _ => Ok(Command::Compare {
                    scenario,
                    seed,
                    json,
                    metrics_out,
                    jobs: sweep.jobs,
                }),
            }
        }
        "serve" => {
            let rest: Vec<String> = args.collect();
            let mut addr = "127.0.0.1:4860".to_string();
            let mut jobs = 0usize;
            let mut max_conns = 64usize;
            let mut queue_cap = 1024usize;
            let mut cache = None;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--addr" => {
                        addr = flag_value(&rest, i, "--addr")?;
                        i += 2;
                    }
                    "--jobs" => {
                        jobs = parse_positive(&rest, i, "--jobs")?;
                        i += 2;
                    }
                    "--max-conns" => {
                        max_conns = parse_positive(&rest, i, "--max-conns")?;
                        i += 2;
                    }
                    "--queue-cap" => {
                        queue_cap = parse_positive(&rest, i, "--queue-cap")?;
                        i += 2;
                    }
                    "--cache" => {
                        cache = Some(flag_value(&rest, i, "--cache")?);
                        i += 2;
                    }
                    other => return Err(CliError::Unknown(other.to_string())),
                }
            }
            Ok(Command::Serve {
                addr,
                jobs,
                max_conns,
                queue_cap,
                cache,
            })
        }
        "submit" => {
            let mut args = args.peekable();
            let action = match args.next().as_deref() {
                Some("run") => "run",
                Some("soak") => "soak",
                Some("metrics") => "metrics",
                Some("shutdown") => "shutdown",
                Some(other) => return Err(CliError::Unknown(format!("submit {other}"))),
                None => {
                    return Err(CliError::BadValue(
                        "submit (needs an action: run, soak, metrics, or shutdown)".into(),
                    ))
                }
            };
            let rest: Vec<String> = args.collect();
            let mut addr = "127.0.0.1:4860".to_string();
            let mut protocol = None;
            let mut scenario = Scenario::default();
            let mut seed = 0u64;
            let mut trace = false;
            let mut profile = false;
            let mut local = false;
            let mut requests = 1000usize;
            let mut conns = 8usize;
            let mut trace_every = 0usize;
            let mut expect_cached = false;
            let runs_a_scenario = action == "run" || action == "soak";
            let mut i = 0;
            while i < rest.len() {
                if runs_a_scenario && scenario_override(&rest, i, &mut scenario, &mut seed)? {
                    i += 2;
                    continue;
                }
                match rest[i].as_str() {
                    "--addr" => {
                        addr = flag_value(&rest, i, "--addr")?;
                        i += 2;
                    }
                    "--protocol" | "-p" if action == "run" => {
                        let v = flag_value(&rest, i, "--protocol")?;
                        protocol =
                            Some(parse_protocol(&v).ok_or_else(|| CliError::BadValue(v.clone()))?);
                        i += 2;
                    }
                    "--trace" if action == "run" => {
                        trace = true;
                        i += 1;
                    }
                    "--profile" if action == "run" => {
                        profile = true;
                        i += 1;
                    }
                    "--local" if action == "run" => {
                        local = true;
                        i += 1;
                    }
                    "--requests" if action == "soak" => {
                        requests = parse_positive(&rest, i, "--requests")?;
                        i += 2;
                    }
                    "--conns" if action == "soak" => {
                        conns = parse_positive(&rest, i, "--conns")?;
                        i += 2;
                    }
                    "--trace-every" if action == "soak" => {
                        trace_every = parse_num(&rest, i, "--trace-every")?;
                        i += 2;
                    }
                    "--expect-cached" if action == "soak" => {
                        expect_cached = true;
                        i += 1;
                    }
                    other => return Err(CliError::Unknown(other.to_string())),
                }
            }
            scenario
                .validate()
                .map_err(|e| CliError::BadValue(format!("the scenario: {e}")))?;
            let action = match action {
                "run" => SubmitAction::Run {
                    protocol: protocol.ok_or(CliError::MissingProtocol)?,
                    scenario,
                    seed,
                    trace,
                    profile,
                    local,
                },
                "soak" => SubmitAction::Soak {
                    requests,
                    conns,
                    scenario,
                    seed,
                    trace_every,
                    expect_cached,
                },
                "metrics" => SubmitAction::Metrics,
                _ => SubmitAction::Shutdown,
            };
            Ok(Command::Submit { addr, action })
        }
        other => Err(CliError::Unknown(other.to_string())),
    }
}

fn flag_value(rest: &[String], i: usize, flag: &str) -> Result<String, CliError> {
    rest.get(i + 1)
        .cloned()
        .ok_or_else(|| CliError::BadValue(flag.into()))
}

/// Applies the scenario override at `rest[i]` (`--config` through
/// `--stall-window`, plus `--seed`), which takes the value after it.
/// `Ok(false)` when `rest[i]` is no such flag. Every subcommand that
/// runs a scenario parses its overrides here.
fn scenario_override(
    rest: &[String],
    i: usize,
    scenario: &mut Scenario,
    seed: &mut u64,
) -> Result<bool, CliError> {
    let flag = rest[i].as_str();
    let spec_error = |e: SpecError| CliError::BadValue(format!("{flag}: {e}"));
    match flag {
        "--config" => {
            let path = flag_value(rest, i, flag)?;
            let text = std::fs::read_to_string(&path)
                .map_err(|e| CliError::BadConfig(format!("{path}: {e}")))?;
            *scenario = serde_json::from_str(&text)
                .map_err(|e| CliError::BadConfig(format!("{path}: {e}")))?;
        }
        "--nodes" => scenario.n_nodes = parse_num(rest, i, flag)?,
        "--slots" => scenario.sim_slots = parse_num(rest, i, flag)?,
        "--rate" => scenario.msg_rate = parse_num(rest, i, flag)?,
        "--timeout" => scenario.timing.timeout = parse_num(rest, i, flag)?,
        "--runs" => scenario.n_runs = parse_num(rest, i, flag)?,
        "--threshold" => scenario.reliability_threshold = parse_num(rest, i, flag)?,
        "--fer" => scenario.fer = parse_num(rest, i, flag)?,
        "--faults" => {
            scenario.faults = FaultPlan::parse(&flag_value(rest, i, flag)?).map_err(spec_error)?;
        }
        "--churn" => {
            scenario.churn = ChurnPlan::parse(&flag_value(rest, i, flag)?).map_err(spec_error)?;
        }
        "--burst-fer" => {
            let v = flag_value(rest, i, flag)?;
            let burst = parse_burst(&v).ok_or_else(|| CliError::BadValue(format!("{flag} {v}")))?;
            scenario.burst = Some(burst);
        }
        "--stall-window" => scenario.stall_window = Some(parse_num(rest, i, flag)?),
        "--seed" => *seed = parse_num(rest, i, flag)?,
        _ => return Ok(false),
    }
    Ok(true)
}

fn parse_num<T: std::str::FromStr>(rest: &[String], i: usize, flag: &str) -> Result<T, CliError> {
    rest.get(i + 1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| CliError::BadValue(flag.into()))
}

/// [`parse_num`] for counts where zero is meaningless: an explicit `0`
/// gets a friendly rejection instead of surprising behaviour (`--jobs 0`
/// would mean "no workers", `--max-conns 0` a server nobody can reach).
/// Omitting the flag keeps the documented default.
fn parse_positive(rest: &[String], i: usize, flag: &str) -> Result<usize, CliError> {
    let n: usize = parse_num(rest, i, flag)?;
    if n == 0 {
        return Err(CliError::BadValue(format!(
            "{flag} (must be at least 1; omit the flag for the default)"
        )));
    }
    Ok(n)
}

/// Parses a `--burst-fer p,r` value into a Gilbert–Elliott model.
fn parse_burst(v: &str) -> Option<GilbertElliott> {
    let (p, r) = v.split_once(',')?;
    let p: f64 = p.trim().parse().ok()?;
    let r: f64 = r.trim().parse().ok()?;
    ((0.0..=1.0).contains(&p) && (0.0..=1.0).contains(&r)).then_some(GilbertElliott { p, r })
}

/// Executes the `run` sweep: `scenario.n_runs` seeds from `seed`, on
/// `sweep.jobs` workers, optionally recorded in (and resumed from) a
/// manifest. Results come back seed-ordered — identical at any worker
/// count. Errors on a stale or corrupt manifest.
fn sweep_runs(
    protocol: ProtocolKind,
    scenario: &Scenario,
    seed: u64,
    sweep: &SweepOpts,
) -> Result<Vec<RunResult>, String> {
    let Some(path) = &sweep.manifest else {
        return Ok(run_many_jobs(scenario, protocol, seed, sweep.jobs));
    };
    let ids: Vec<(JobId, ())> = (0..scenario.n_runs as u64)
        .map(|s| (JobId::new("cli-run", protocol.name(), seed + s), ()))
        .collect();
    let mut h = Fnv1a::new();
    h.write_str(protocol.name());
    h.write_u64(seed);
    h.write_str(&serde_json::to_string(scenario).expect("scenario serializes"));
    let config = SweepConfig {
        name: "cli-run".to_string(),
        workers: sweep.jobs,
        resume: sweep.resume,
        manifest_path: Some(path.into()),
        options_hash: h.finish(),
        schema: rmm::workload::scenario_schema_hash(),
        quiet: true,
        work_per_job: scenario.sim_slots,
    };
    match run_sweep(&config, &ids, |id, _| run_one(scenario, protocol, id.seed)) {
        Ok(out) => {
            if out.reused > 0 {
                eprintln!(
                    "[reused {} completed runs from {path}, ran {}]",
                    out.reused, out.executed
                );
            }
            Ok(out.results)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Renders one protocol's results. Errors if the sweep manifest cannot
/// be used (stale or corrupt).
pub fn render_run(
    protocol: ProtocolKind,
    scenario: &Scenario,
    seed: u64,
    json: bool,
    sweep: &SweepOpts,
) -> Result<String, String> {
    let results = sweep_runs(protocol, scenario, seed, sweep)?;
    let m = mean_group_metrics(&results);
    let delivery: Vec<f64> = results
        .iter()
        .map(|r| r.group_metrics.delivery_rate)
        .collect();
    let ci = Summary::of(&delivery);
    let stalls: usize = results.iter().map(|r| r.stalls.len()).sum();
    // Mean per-epoch delivery across the sweep (epoch boundaries are a
    // property of the churn plan, so every run has the same table shape).
    let no_epochs = Vec::new();
    let epochs: Vec<(String, f64)> = results
        .first()
        .map_or(&no_epochs, |first| &first.churn_epochs)
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let mean = results
                .iter()
                .map(|r| r.churn_epochs[i].group_metrics.delivery_rate)
                .sum::<f64>()
                / results.len() as f64;
            let until = e.until.map_or_else(|| "end".to_string(), |u| u.to_string());
            (format!("epoch {} [{}..{until})", e.epoch, e.from), mean)
        })
        .collect();
    if json {
        Ok(serde_json::json!({
            "protocol": protocol.name(),
            "runs": results.len(),
            "mean_degree": results.iter().map(|r| r.mean_degree).sum::<f64>() / results.len() as f64,
            "delivery_rate": { "mean": ci.mean, "ci95": ci.ci95 },
            "avg_contention_phases": m.avg_contention_phases,
            "avg_completion_time": m.avg_completion_time,
            "avg_delivered_frac": m.avg_delivered_frac,
            "avg_reachable_frac": m.avg_reachable_frac,
            "stalls": stalls,
            "utilization": results.iter().map(|r| r.utilization).sum::<f64>() / results.len() as f64,
            "reliable": protocol.is_reliable(),
            "churn_epochs": epochs
                .iter()
                .map(|(label, mean)| serde_json::json!({ "epoch": label, "delivery_rate": mean }))
                .collect::<Vec<_>>(),
        })
        .to_string())
    } else {
        let mut t = Table::new(["metric", "value"]);
        t.row(["protocol".to_string(), protocol.name().to_string()]);
        t.row(["runs".to_string(), results.len().to_string()]);
        t.row(["delivery rate".to_string(), ci.display()]);
        t.row([
            "contention phases/msg".to_string(),
            format!("{:.2}", m.avg_contention_phases),
        ]);
        t.row([
            "completion time (slots)".to_string(),
            format!("{:.1}", m.avg_completion_time),
        ]);
        t.row([
            "airtime utilization".to_string(),
            format!(
                "{:.3}",
                results.iter().map(|r| r.utilization).sum::<f64>() / results.len() as f64
            ),
        ]);
        if !scenario.faults.is_empty() {
            t.row([
                "delivered frac (reachable)".to_string(),
                format!("{:.3}", m.avg_reachable_frac),
            ]);
        }
        if scenario.stall_window.is_some() {
            t.row(["watchdog stalls".to_string(), stalls.to_string()]);
        }
        for (label, mean) in &epochs {
            t.row([format!("delivery {label}"), format!("{mean:.3}")]);
        }
        t.row([
            "reliable protocol".to_string(),
            if protocol.is_reliable() { "yes" } else { "no" }.to_string(),
        ]);
        Ok(t.render())
    }
}

/// Renders the all-protocol comparison on `jobs` fleet workers
/// (0 = one per core; output identical at any value).
pub fn render_compare(scenario: &Scenario, seed: u64, json: bool, jobs: usize) -> String {
    let mut rows = Vec::new();
    for protocol in ProtocolKind::ALL {
        let results = run_many_jobs(scenario, protocol, seed, jobs);
        let m = mean_group_metrics(&results);
        rows.push((protocol, m));
    }
    if json {
        let v: Vec<_> = rows
            .iter()
            .map(|(p, m)| {
                serde_json::json!({
                    "protocol": p.name(),
                    "delivery_rate": m.delivery_rate,
                    "avg_contention_phases": m.avg_contention_phases,
                    "avg_completion_time": m.avg_completion_time,
                })
            })
            .collect();
        serde_json::to_string_pretty(&v).expect("json serializes")
    } else {
        let mut t = Table::new(["protocol", "delivery", "phases", "completion", "reliable"]);
        for (p, m) in rows {
            t.row([
                p.name().to_string(),
                format!("{:.3}", m.delivery_rate),
                format!("{:.2}", m.avg_contention_phases),
                format!("{:.1}", m.avg_completion_time),
                if p.is_reliable() { "yes" } else { "no" }.to_string(),
            ]);
        }
        t.render()
    }
}

/// The dwell states of [`collect_metrics`]: each one's metric infix
/// and table label.
const DWELL: [(&str, &str); 4] = [
    ("contention", "contention"),
    ("batch", "batch service"),
    ("ack_wait", "ack wait"),
    ("backoff", "backoff drawn"),
];

/// One run of a cell with the trace and profile probes on, and every
/// artifact the CLI renders from it: `run`, `trace`, `prof` and
/// `compare --metrics-out` all export from this one run. The phase
/// attribution therefore includes the cost of recording the trace
/// (mostly in the Resolve phase).
#[derive(Debug)]
pub struct CellExport {
    /// The run's result; its manifest names the cell.
    pub result: RunResult,
    /// The event log.
    pub trace: Trace,
    /// The phase-timer report.
    pub profile: ProfileReport,
    /// The counters and histograms [`collect_metrics`] folds from the
    /// trace, dwell included.
    pub metrics: MetricsRegistry,
}

impl CellExport {
    /// Runs `protocol` on `scenario` at `seed` once, traced and profiled.
    pub fn run(protocol: ProtocolKind, scenario: &Scenario, seed: u64) -> CellExport {
        let spec = RunSpec {
            probes: Probes {
                trace: true,
                profile: true,
                ..Probes::default()
            },
            ..RunSpec::default()
        };
        let out = run(scenario, protocol, seed, &spec);
        let trace = out.trace.expect("tracing was enabled");
        CellExport {
            metrics: collect_metrics(trace.events(), &out.result.messages),
            result: out.result,
            trace,
            profile: out.profile.expect("profiling was enabled"),
        }
    }

    /// The run manifest and the metrics registry, pretty JSON.
    pub fn metrics_json(&self) -> String {
        serde_json::json!({ "manifest": self.result.manifest, "metrics": self.metrics }).pretty()
    }

    /// One-line summary of the trace, for stderr.
    pub fn trace_summary(&self) -> String {
        let m = &self.result.manifest;
        format!(
            "{} seed {}: {} events, {} messages, {} batches in {} slots ({} us)",
            m.protocol.name(),
            m.seed,
            self.trace.events().len(),
            self.result.messages.len(),
            self.metrics.counter("batches"),
            m.slot_budget,
            m.wall_clock.total_us(),
        )
    }

    /// Network-wide slots spent in one dwell state.
    fn dwell(&self, state: &str) -> u64 {
        self.metrics.counter(&format!("dwell_{state}_slots"))
    }

    /// The attribution report (phase timers, airtime ledger, dwell
    /// totals), pretty JSON.
    pub fn profile_json(&self) -> String {
        let m = &self.result.manifest;
        let mut dwell = serde_json::Map::new();
        for (state, _) in DWELL {
            dwell.insert(
                format!("{state}_slots"),
                serde_json::json!(self.dwell(state)),
            );
        }
        serde_json::json!({
            "protocol": m.protocol.name(),
            "seed": m.seed,
            "slots": m.slot_budget,
            "profile": self.profile,
            "airtime": self.result.airtime,
            "dwell": serde_json::Value::Object(dwell),
        })
        .pretty()
    }

    /// The phase timers and the metrics registry as a Prometheus
    /// text-exposition snapshot.
    pub fn prom_text(&self) -> String {
        let mut text = render_profile(&self.profile, "rmm_engine");
        text.push_str(&render_registry(&self.metrics, "rmm"));
        text
    }

    /// A phase timer's share of the profiled time.
    fn share(&self, ns: u64) -> String {
        format!(
            "{:.1}%",
            100.0 * ns as f64 / self.profile.total_ns.max(1) as f64
        )
    }

    /// An airtime class's fraction of the run.
    fn frac(&self, slots: u64) -> String {
        format!(
            "{:.3}",
            slots as f64 / self.result.airtime.total_slots.max(1) as f64
        )
    }

    /// Aligned tables: phase attribution, airtime ledger, dwell totals.
    pub fn profile_tables(&self) -> String {
        let mut phases = Table::new(["phase", "ns", "calls", "share"]);
        for p in &self.profile.phases {
            phases.row([
                p.name.clone(),
                p.ns.to_string(),
                p.calls.to_string(),
                self.share(p.ns),
            ]);
        }
        let air = &self.result.airtime;
        let mut airtime = Table::new(["airtime", "slots", "fraction"]);
        for (label, slots) in [
            ("idle", air.idle_slots),
            ("data (success)", air.data_slots),
            ("control", air.control_slots),
            ("collision", air.collision_slots),
        ] {
            airtime.row([label.to_string(), slots.to_string(), self.frac(slots)]);
        }
        airtime.row([
            "total".to_string(),
            air.total_slots.to_string(),
            "1.000".to_string(),
        ]);
        let mut dwell = Table::new(["dwell (network)", "slots"]);
        for (state, label) in DWELL {
            dwell.row([label.to_string(), self.dwell(state).to_string()]);
        }
        format!(
            "{}\n{}\n{}",
            phases.render(),
            airtime.render(),
            dwell.render()
        )
    }

    /// One-line summary of the profile, for stderr.
    pub fn profile_summary(&self) -> String {
        let m = &self.result.manifest;
        let air = &self.result.airtime;
        let hottest = self.profile.phases.iter().max_by_key(|p| p.ns);
        format!(
            "{} seed {}: {} slots profiled in {} us; hottest phase {} ({}); \
             airtime {} data / {} control / {} collision",
            m.protocol.name(),
            m.seed,
            m.slot_budget,
            self.profile.total_ns / 1_000,
            hottest.map_or("-", |p| p.name.as_str()),
            hottest.map_or_else(|| "0.0%".to_string(), |p| self.share(p.ns)),
            self.frac(air.data_slots),
            self.frac(air.control_slots),
            self.frac(air.collision_slots),
        )
    }
}

/// Traced-run metrics for every protocol on one scenario, as a pretty
/// JSON array of `{protocol, metrics}` objects (for `compare
/// --metrics-out`).
pub fn compare_metrics_json(scenario: &Scenario, seed: u64) -> String {
    let rows: Vec<serde_json::Value> = ProtocolKind::ALL
        .into_iter()
        .map(|p| {
            serde_json::json!({
                "protocol": p.name(),
                "metrics": CellExport::run(p, scenario, seed).metrics,
            })
        })
        .collect();
    serde_json::Value::Array(rows).pretty()
}

/// The deliberately fragile "canary" configuration: the service timeout
/// and both retry budgets are effectively unbounded and the contention
/// window may grow six orders of magnitude, so a schedule that kills a
/// receiver drives its sender into ever-longer silent backoff until the
/// liveness watchdog trips. `rmm chaos --canary` must find that stall
/// and shrink it — it is the harness's own end-to-end test.
pub fn canary_scenario() -> Scenario {
    let mut s = Scenario {
        n_nodes: 12,
        sim_slots: 12_000,
        n_runs: 1,
        msg_rate: 2e-3,
        stall_window: Some(2_000),
        ..Scenario::default()
    };
    s.timing.timeout = 1_000_000;
    s.timing.retry_limit = u32::MAX;
    s.timing.dest_retry_limit = u32::MAX;
    s.timing.cw_max = 1 << 20;
    s
}

/// Artifacts from one chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The campaign outcome (shrunk repro included when a run failed).
    pub outcome: ChaosOutcome,
    /// Rendered table or JSON.
    pub rendered: String,
}

/// Runs a chaos campaign per the parsed `chaos` flags and renders the
/// outcome.
pub fn run_chaos_campaign(
    scenario: &Scenario,
    protocol: Option<ProtocolKind>,
    iters: u64,
    budget_secs: Option<u64>,
    seed: u64,
    json: bool,
) -> ChaosReport {
    let cfg = ChaosConfig {
        base: scenario.clone(),
        protocols: protocol.map_or_else(|| ProtocolKind::ALL.to_vec(), |p| vec![p]),
        iters,
        seed,
        budget: budget_secs.map(Duration::from_secs),
        max_shrink_checks: 128,
    };
    let outcome = run_chaos(&cfg);
    let rendered = if json {
        serde_json::to_string_pretty(&outcome).expect("outcome serializes")
    } else {
        render_chaos(&outcome)
    };
    ChaosReport { outcome, rendered }
}

fn render_chaos(outcome: &ChaosOutcome) -> String {
    let Some(repro) = &outcome.failure else {
        return format!(
            "chaos: {} schedules checked, every invariant held\n",
            outcome.iterations
        );
    };
    let mut t = Table::new(["field", "value"]);
    t.row(["protocol".to_string(), repro.protocol.name().to_string()]);
    t.row(["seed".to_string(), repro.seed.to_string()]);
    t.row(["iterations".to_string(), outcome.iterations.to_string()]);
    t.row(["violations".to_string(), format!("{:?}", repro.violations)]);
    t.row([
        "schedule events".to_string(),
        format!(
            "{} -> {} ({} shrink checks)",
            outcome.events_before, outcome.events_after, outcome.shrink_checks
        ),
    ]);
    t.row(["faults".to_string(), repro.scenario.faults.spec()]);
    t.row(["churn".to_string(), repro.scenario.churn.spec()]);
    t.row([
        "burst".to_string(),
        repro
            .scenario
            .burst
            .map_or_else(|| "-".to_string(), |b| format!("{},{}", b.p, b.r)),
    ]);
    let mut s = t.render();
    s.push('\n');
    for d in &repro.detail {
        s.push_str("  ");
        s.push_str(d);
        s.push('\n');
    }
    s
}

/// Pretty JSON for writing a repro to disk.
pub fn repro_json(repro: &ChaosRepro) -> String {
    serde_json::to_string_pretty(repro).expect("repro serializes")
}

/// Replays a stored [`ChaosRepro`] file; `Ok` when the recorded
/// violation kinds reproduce exactly.
pub fn replay_repro(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let repro: ChaosRepro = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let found = repro.replay()?;
    let mut s = format!(
        "{path}: reproduced {:?} ({} violations)\n",
        repro.violations,
        found.len()
    );
    for v in &found {
        s.push_str("  ");
        s.push_str(&v.detail);
        s.push('\n');
    }
    Ok(s)
}

/// The default scenario as a pretty JSON template.
pub fn config_template() -> String {
    serde_json::to_string_pretty(&Scenario::default()).expect("scenario serializes")
}

/// Usage text.
pub const USAGE: &str = "\
rmm — reliable 802.11 multicast MAC simulator (BMMM / LAMM, ICPP 2002)

usage:
  rmm run --protocol <802.11|tg|bsma|bmw|bmmm|lamm|leader|uncoord> [options]
  rmm compare [options]
  rmm trace --protocol <name> [options]   # one traced run, JSONL events
  rmm prof --protocol <name> [options]    # one profiled run: phase timers,
                                          # airtime ledger, FSM dwell
  rmm chaos [options]     # randomized fault/churn/burst schedules checked
                          # against invariants, failures shrunk to a repro
  rmm serve [--addr H:P] [--jobs N] [--max-conns N] [--queue-cap N]
            [--cache DIR]       # long-lived daemon: JSONL requests over TCP,
                                # streamed traces, content-addressed cache
  rmm submit run --protocol <name> [--seed N] [--trace] [--profile]
             [--local] [--addr H:P] [scenario overrides]
  rmm submit soak [--requests N] [--conns N] [--trace-every N]
             [--expect-cached] [--addr H:P] [overrides]
                          # concurrent campaign, byte-diffed vs the serial
                          # oracle; --expect-cached also requires zero
                          # engine runs (checked via the metrics counters)
  rmm submit metrics|shutdown [--addr H:P]
  rmm config              # print a scenario JSON template

options:
  --config <file.json>    load a Scenario (JSON); flags below override it
  --nodes N  --slots N  --rate X  --timeout N  --runs N
  --threshold X  --fer X  --seed N  --json
  --faults <spec>         inject node faults, e.g. crash:5@1000;deaf:3@200..800;reboot:2@100..600
  --churn <spec>          group membership churn, e.g. leave:3@500;join:3@900
  --burst-fer p,r         Gilbert-Elliott burst-error channel (G->B prob p, B->G prob r)
  --stall-window N        liveness watchdog: report senders with no tx for N slots
  --trace-out <file>      write the traced run's events as JSON Lines
                          (run/trace; trace prints to stdout by default)
  --metrics-out <file>    write trace-derived counters/histograms, FSM dwell
                          included, as JSON (run/trace/compare)
  --profile-out <file>    write a profiled run's attribution report as JSON
                          (run/prof): engine phase timers, airtime ledger,
                          network FSM dwell totals
  --prom-out <file>       write a Prometheus text-exposition snapshot (prof)
  --jobs N                worker threads for the run sweep (run/compare;
                          0 = one per core; results identical at any N)
  --manifest <file>       record completed runs for later --resume (run)
  --resume                reuse completed runs from --manifest (run)
  --iters N               chaos: max schedules to try (default 64)
  --budget-secs N         chaos: wall-clock budget; stops early when spent
  --canary                chaos: unbounded-retry preset that must stall —
                          the harness's own end-to-end check
  --out <file>            chaos: write the shrunk repro JSON when a run fails
  --repro <file>          chaos: replay a stored repro instead of campaigning
  (chaos exits 1 when a violation is found or a replay drifts)
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_protocol_names() {
        assert_eq!(parse_protocol("LAMM"), Some(ProtocolKind::Lamm));
        assert_eq!(parse_protocol("bmmm"), Some(ProtocolKind::Bmmm));
        assert_eq!(parse_protocol("802.11"), Some(ProtocolKind::Ieee80211));
        assert_eq!(parse_protocol("kk"), Some(ProtocolKind::LeaderBased));
        assert_eq!(parse_protocol("nope"), None);
        // Delegates to ProtocolKind::parse, so every display name
        // round-trips — including the BMMM-U ablation's.
        for p in ProtocolKind::EVERY {
            assert_eq!(parse_protocol(p.name()), Some(p));
        }
    }

    #[test]
    fn parse_serve_defaults_and_flags() {
        assert_eq!(
            parse_args(args("serve")),
            Ok(Command::Serve {
                addr: "127.0.0.1:4860".into(),
                jobs: 0,
                max_conns: 64,
                queue_cap: 1024,
                cache: None,
            })
        );
        assert_eq!(
            parse_args(args(
                "serve --addr 0.0.0.0:9000 --jobs 2 --max-conns 8 --queue-cap 32 --cache c.jsonl"
            )),
            Ok(Command::Serve {
                addr: "0.0.0.0:9000".into(),
                jobs: 2,
                max_conns: 8,
                queue_cap: 32,
                cache: Some("c.jsonl".into()),
            })
        );
    }

    #[test]
    fn explicit_zero_counts_are_rejected_with_a_friendly_error() {
        for cmdline in [
            "serve --jobs 0",
            "serve --max-conns 0",
            "serve --queue-cap 0",
            "run --protocol bmmm --jobs 0",
            "compare --jobs 0",
            "submit soak --conns 0",
            "submit soak --requests 0",
        ] {
            match parse_args(args(cmdline)) {
                Err(CliError::BadValue(msg)) => {
                    assert!(
                        msg.contains("at least 1") && msg.contains("omit the flag"),
                        "`{cmdline}` should explain the rejection, got: {msg}"
                    );
                }
                other => panic!("`{cmdline}` should be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn parse_submit_actions() {
        let cmd = parse_args(args(
            "submit run --protocol lamm --seed 9 --trace --local --nodes 20 --addr h:1",
        ));
        assert_eq!(
            cmd,
            Ok(Command::Submit {
                addr: "h:1".into(),
                action: SubmitAction::Run {
                    protocol: ProtocolKind::Lamm,
                    scenario: Scenario {
                        n_nodes: 20,
                        ..Scenario::default()
                    },
                    seed: 9,
                    trace: true,
                    profile: false,
                    local: true,
                },
            })
        );
        let cmd = parse_args(args(
            "submit soak --requests 100 --conns 4 --trace-every 10 --expect-cached",
        ));
        assert_eq!(
            cmd,
            Ok(Command::Submit {
                addr: "127.0.0.1:4860".into(),
                action: SubmitAction::Soak {
                    requests: 100,
                    conns: 4,
                    scenario: Scenario::default(),
                    seed: 0,
                    trace_every: 10,
                    expect_cached: true,
                },
            })
        );
        assert_eq!(
            parse_args(args("submit metrics")),
            Ok(Command::Submit {
                addr: "127.0.0.1:4860".into(),
                action: SubmitAction::Metrics,
            })
        );
        assert_eq!(
            parse_args(args("submit shutdown --addr x:2")),
            Ok(Command::Submit {
                addr: "x:2".into(),
                action: SubmitAction::Shutdown,
            })
        );
        assert_eq!(
            parse_args(args("submit run")),
            Err(CliError::MissingProtocol)
        );
        assert!(matches!(
            parse_args(args("submit dance")),
            Err(CliError::Unknown(_))
        ));
        assert!(matches!(
            parse_args(args("submit")),
            Err(CliError::BadValue(_))
        ));
    }

    #[test]
    fn parse_run_with_overrides() {
        let cmd = parse_args(args(
            "run --protocol lamm --nodes 50 --slots 2000 --runs 3 --seed 42 --json",
        ))
        .unwrap();
        match cmd {
            Command::Run {
                protocol,
                scenario,
                seed,
                json,
                trace_out,
                metrics_out,
                profile_out,
                sweep,
            } => {
                assert_eq!(protocol, ProtocolKind::Lamm);
                assert_eq!(scenario.n_nodes, 50);
                assert_eq!(scenario.sim_slots, 2000);
                assert_eq!(scenario.n_runs, 3);
                assert_eq!(seed, 42);
                assert!(json);
                assert_eq!(trace_out, None);
                assert_eq!(metrics_out, None);
                assert_eq!(profile_out, None);
                assert_eq!(sweep, SweepOpts::default());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_trace_with_exports() {
        let cmd = parse_args(args(
            "trace --protocol bmmm --seed 7 --trace-out t.jsonl --metrics-out m.json",
        ))
        .unwrap();
        match cmd {
            Command::Trace {
                protocol,
                seed,
                trace_out,
                metrics_out,
                ..
            } => {
                assert_eq!(protocol, ProtocolKind::Bmmm);
                assert_eq!(seed, 7);
                assert_eq!(trace_out.as_deref(), Some("t.jsonl"));
                assert_eq!(metrics_out.as_deref(), Some("m.json"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn run_and_trace_require_protocol() {
        assert_eq!(
            parse_args(args("run --nodes 50")),
            Err(CliError::MissingProtocol)
        );
        assert_eq!(
            parse_args(args("trace --seed 3")),
            Err(CliError::MissingProtocol)
        );
        assert_eq!(
            parse_args(args("prof --seed 3")),
            Err(CliError::MissingProtocol)
        );
    }

    #[test]
    fn parse_prof_flags() {
        let cmd = parse_args(args(
            "prof --protocol bmmm --seed 9 --profile-out p.json --prom-out p.prom",
        ))
        .unwrap();
        match cmd {
            Command::Prof {
                protocol,
                seed,
                json,
                profile_out,
                prom_out,
                ..
            } => {
                assert_eq!(protocol, ProtocolKind::Bmmm);
                assert_eq!(seed, 9);
                assert!(!json);
                assert_eq!(profile_out.as_deref(), Some("p.json"));
                assert_eq!(prom_out.as_deref(), Some("p.prom"));
            }
            other => panic!("{other:?}"),
        }
        // run also takes --profile-out; prof is a single run, so sweep
        // and trace flags are rejected there.
        assert!(matches!(
            parse_args(args("run --protocol bmw --profile-out p.json")),
            Ok(Command::Run {
                profile_out: Some(_),
                ..
            })
        ));
        assert!(matches!(
            parse_args(args("prof --protocol bmmm --jobs 2")),
            Err(CliError::Unknown(_))
        ));
        assert!(matches!(
            parse_args(args("prof --protocol bmmm --trace-out t.jsonl")),
            Err(CliError::Unknown(_))
        ));
        assert!(matches!(
            parse_args(args("trace --protocol bmmm --prom-out p.prom")),
            Err(CliError::Unknown(_))
        ));
    }

    #[test]
    fn export_profile_produces_parseable_artifacts() {
        let scenario = Scenario {
            n_nodes: 25,
            sim_slots: 1_200,
            n_runs: 1,
            ..Scenario::default()
        };
        let export = CellExport::run(ProtocolKind::Bmmm, &scenario, 5);
        let v: serde_json::Value = serde_json::from_str(&export.profile_json()).unwrap();
        assert_eq!(v["protocol"].as_str(), Some("BMMM"));
        assert_eq!(v["seed"].as_u64(), Some(5));
        assert_eq!(v["airtime"]["total_slots"].as_u64(), Some(1_200));
        assert!(v["profile"]["total_ns"].as_u64().unwrap() > 0);
        // The profile's dwell totals are the metrics' dwell counters.
        for (state, _) in DWELL {
            assert_eq!(
                v["dwell"][format!("{state}_slots").as_str()].as_u64(),
                Some(export.metrics.counter(&format!("dwell_{state}_slots")))
            );
        }
        assert!(export.metrics.counter("dwell_contention_slots") > 0);
        let prom = export.prom_text();
        assert!(prom.contains("rmm_engine_phase_ns{phase=\"fsm_dispatch\"}"));
        assert!(prom.contains("# TYPE rmm_tx_frames counter"));
        assert!(prom.contains("rmm_dwell_contention_slots"));
        let tables = export.profile_tables();
        assert!(tables.contains("fsm_dispatch"));
        assert!(tables.contains("collision"));
        assert!(tables.contains("backoff drawn"));
        assert!(export.profile_summary().contains("BMMM seed 5"));
    }

    #[test]
    fn output_flags_are_accepted_only_where_they_are_written() {
        const FLAGS: [&str; 5] = [
            "--trace-out",
            "--metrics-out",
            "--profile-out",
            "--prom-out",
            "--json",
        ];
        let accepted: [(&str, &[&str]); 12] = [
            (
                "run --protocol bmmm",
                &["--trace-out", "--metrics-out", "--profile-out", "--json"],
            ),
            ("compare", &["--metrics-out", "--json"]),
            ("trace --protocol bmmm", &["--trace-out", "--metrics-out"]),
            (
                "prof --protocol bmmm",
                &["--profile-out", "--prom-out", "--json"],
            ),
            ("chaos", &["--json"]),
            ("serve", &[]),
            ("submit run --protocol bmmm", &[]),
            ("submit soak", &[]),
            ("submit metrics", &[]),
            ("submit shutdown", &[]),
            ("config", &[]),
            ("help", &[]),
        ];
        for (sub, takes) in accepted {
            for flag in FLAGS {
                let value = if flag == "--json" { "" } else { " out.file" };
                let parsed = parse_args(args(&format!("{sub} {flag}{value}")));
                if takes.contains(&flag) {
                    assert!(parsed.is_ok(), "`{sub} {flag}`: {parsed:?}");
                } else {
                    assert_eq!(
                        parsed,
                        Err(CliError::Unknown(flag.into())),
                        "`{sub} {flag}` must be rejected"
                    );
                }
            }
        }
    }

    #[test]
    fn submit_takes_every_scenario_override_that_run_takes() {
        let overrides = "--nodes 20 --slots 800 --rate 0.002 --timeout 300 --runs 2 \
                         --threshold 0.8 --fer 0.1 --faults crash:3@100 \
                         --churn leave:4@200 --burst-fer 0.05,0.25 --stall-window 500 --seed 4";
        let Ok(Command::Run { scenario, seed, .. }) =
            parse_args(args(&format!("run --protocol bmmm {overrides}")))
        else {
            panic!("run takes every override");
        };
        assert_eq!(scenario.fer, 0.1);
        assert_eq!(scenario.timing.timeout, 300);
        assert_eq!(
            parse_args(args(&format!(
                "submit run --protocol bmmm --local {overrides}"
            ))),
            Ok(Command::Submit {
                addr: "127.0.0.1:4860".into(),
                action: SubmitAction::Run {
                    protocol: ProtocolKind::Bmmm,
                    scenario: scenario.clone(),
                    seed,
                    trace: false,
                    profile: false,
                    local: true,
                },
            })
        );
        match parse_args(args(&format!("submit soak {overrides}"))) {
            Ok(Command::Submit {
                action:
                    SubmitAction::Soak {
                        scenario: soak,
                        seed: soak_seed,
                        ..
                    },
                ..
            }) => {
                assert_eq!(soak, scenario);
                assert_eq!(soak_seed, seed);
            }
            other => panic!("{other:?}"),
        }
        // Overrides are for the actions that run a scenario.
        assert_eq!(
            parse_args(args("submit metrics --fer 0.1")),
            Err(CliError::Unknown("--fer".into()))
        );
    }

    #[test]
    fn compare_rejects_trace_out_and_trace_rejects_json() {
        assert_eq!(
            parse_args(args("compare --trace-out t.jsonl")),
            Err(CliError::Unknown("--trace-out".into()))
        );
        assert_eq!(
            parse_args(args("trace --protocol bmmm --json")),
            Err(CliError::Unknown("--json".into()))
        );
        assert!(matches!(
            parse_args(args("compare --seed 5 --metrics-out m.json")),
            Ok(Command::Compare { seed: 5, .. })
        ));
    }

    #[test]
    fn parse_fault_flags() {
        let cmd = parse_args(args(
            "run --protocol bmmm --faults crash:5@1000;deaf:3@200..800 \
             --burst-fer 0.05,0.25 --stall-window 500",
        ))
        .unwrap();
        match cmd {
            Command::Run { scenario, .. } => {
                assert_eq!(scenario.faults.faults.len(), 2);
                assert_eq!(scenario.faults.spec(), "crash:5@1000;deaf:3@200..800");
                let burst = scenario.burst.unwrap();
                assert_eq!(burst.p, 0.05);
                assert_eq!(burst.r, 0.25);
                assert_eq!(scenario.stall_window, Some(500));
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_args(args("run --protocol bmmm --faults bogus:1@2")),
            Err(CliError::BadValue(_))
        ));
        assert!(matches!(
            parse_args(args("run --protocol bmmm --burst-fer 2.0,0.5")),
            Err(CliError::BadValue(_))
        ));
    }

    #[test]
    fn parse_chaos_flags() {
        let cmd = parse_args(args(
            "chaos --iters 10 --budget-secs 5 --protocol bmw --seed 9 --out r.json",
        ))
        .unwrap();
        match cmd {
            Command::Chaos {
                protocol,
                iters,
                budget_secs,
                seed,
                out,
                repro,
                ..
            } => {
                assert_eq!(protocol, Some(ProtocolKind::Bmw));
                assert_eq!(iters, 10);
                assert_eq!(budget_secs, Some(5));
                assert_eq!(seed, 9);
                assert_eq!(out.as_deref(), Some("r.json"));
                assert_eq!(repro, None);
            }
            other => panic!("{other:?}"),
        }
        // chaos needs no --protocol: it rotates through all eight.
        assert!(matches!(
            parse_args(args("chaos")),
            Ok(Command::Chaos {
                protocol: None,
                iters: 64,
                ..
            })
        ));
        // --canary presets the fragile scenario and defaults to BMW.
        match parse_args(args("chaos --canary")).unwrap() {
            Command::Chaos {
                scenario, protocol, ..
            } => {
                assert_eq!(scenario, canary_scenario());
                assert_eq!(protocol, Some(ProtocolKind::Bmw));
            }
            other => panic!("{other:?}"),
        }
        // chaos-only flags are rejected elsewhere.
        assert!(matches!(
            parse_args(args("run --protocol bmw --iters 5")),
            Err(CliError::Unknown(_))
        ));
        assert!(matches!(
            parse_args(args("trace --protocol bmw --canary")),
            Err(CliError::Unknown(_))
        ));
    }

    #[test]
    fn parse_churn_flag_and_plan_validation() {
        match parse_args(args("run --protocol bmmm --churn leave:3@500;join:3@900")).unwrap() {
            Command::Run { scenario, .. } => {
                assert_eq!(scenario.churn.spec(), "leave:3@500;join:3@900");
            }
            other => panic!("{other:?}"),
        }
        // Malformed specs and plans naming out-of-range stations are
        // rejected at parse time — the engine would panic mid-run
        // otherwise.
        assert!(matches!(
            parse_args(args("run --protocol bmmm --churn bogus:1@2")),
            Err(CliError::BadValue(_))
        ));
        assert!(matches!(
            parse_args(args("run --protocol bmmm --nodes 4 --churn leave:9@100")),
            Err(CliError::BadValue(_))
        ));
        assert!(matches!(
            parse_args(args("run --protocol bmmm --nodes 4 --faults crash:9@100")),
            Err(CliError::BadValue(_))
        ));
    }

    #[test]
    fn canary_campaign_finds_shrinks_and_replays_a_stall() {
        use rmm::workload::ViolationKind;
        let report = run_chaos_campaign(
            &canary_scenario(),
            Some(ProtocolKind::Bmw),
            16,
            None,
            51_866,
            false,
        );
        let failure = report.outcome.failure.as_ref().expect("canary must fail");
        assert!(
            failure.violations.contains(&ViolationKind::Stall),
            "{:?}",
            failure.violations
        );
        assert!(
            report.outcome.events_after <= 5,
            "shrunk to {} events",
            report.outcome.events_after
        );
        assert!(report.outcome.events_after <= report.outcome.events_before);
        failure
            .replay()
            .expect("shrunk repro replays to the same failure");
        assert!(report.rendered.contains("Stall"));
        let back: ChaosRepro = serde_json::from_str(&repro_json(failure)).unwrap();
        assert_eq!(&back, failure);
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(matches!(
            parse_args(args("run --protocol bmmm --frobnicate")),
            Err(CliError::Unknown(_))
        ));
    }

    #[test]
    fn compare_and_config_and_help() {
        assert!(matches!(
            parse_args(args("compare --runs 2")),
            Ok(Command::Compare { .. })
        ));
        assert_eq!(parse_args(args("config")), Ok(Command::Config));
        assert_eq!(parse_args(args("help")), Ok(Command::Help));
        assert_eq!(parse_args(Vec::new()), Ok(Command::Help));
    }

    #[test]
    fn config_template_roundtrips() {
        let template = config_template();
        let parsed: Scenario = serde_json::from_str(&template).unwrap();
        assert_eq!(parsed, Scenario::default());
    }

    #[test]
    fn config_file_loads_and_flags_override() {
        let dir = std::env::temp_dir().join("rmm_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scenario.json");
        let s = Scenario {
            n_nodes: 33,
            msg_rate: 1e-3,
            ..Scenario::default()
        };
        std::fs::write(&path, serde_json::to_string(&s).unwrap()).unwrap();
        let cmd = parse_args(args(&format!(
            "run --protocol bmw --config {} --nodes 44",
            path.display()
        )))
        .unwrap();
        match cmd {
            Command::Run { scenario, .. } => {
                assert_eq!(scenario.n_nodes, 44, "flag overrides config");
                assert_eq!(scenario.msg_rate, 1e-3, "config field survives");
            }
            other => panic!("{other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_run_produces_metrics() {
        let scenario = Scenario {
            n_nodes: 30,
            sim_slots: 1_500,
            n_runs: 1,
            ..Scenario::default()
        };
        let opts = SweepOpts::default();
        let text = render_run(ProtocolKind::Bmmm, &scenario, 0, false, &opts).unwrap();
        assert!(text.contains("delivery rate"));
        assert!(text.contains("BMMM"));
        let json = render_run(ProtocolKind::Bmmm, &scenario, 0, true, &opts).unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["protocol"], "BMMM");
        assert!(v["delivery_rate"]["mean"].as_f64().unwrap() >= 0.0);
    }

    #[test]
    fn parse_sweep_flags() {
        let cmd = parse_args(args(
            "run --protocol bmmm --runs 2 --jobs 4 --manifest m.jsonl --resume",
        ))
        .unwrap();
        match cmd {
            Command::Run { sweep, .. } => {
                assert_eq!(sweep.jobs, 4);
                assert_eq!(sweep.manifest.as_deref(), Some("m.jsonl"));
                assert!(sweep.resume);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(
            parse_args(args("compare --jobs 2")),
            Ok(Command::Compare { jobs: 2, .. })
        ));
        // --resume without --manifest has nothing to resume from.
        assert!(matches!(
            parse_args(args("run --protocol bmmm --resume")),
            Err(CliError::BadValue(_))
        ));
        // trace is a single run; sweep flags make no sense there.
        assert!(matches!(
            parse_args(args("trace --protocol bmmm --jobs 2")),
            Err(CliError::Unknown(_))
        ));
        assert!(matches!(
            parse_args(args("compare --manifest m.jsonl")),
            Err(CliError::Unknown(_))
        ));
    }

    #[test]
    fn run_output_is_identical_at_any_jobs_and_resumes_from_manifest() {
        let scenario = Scenario {
            n_nodes: 25,
            sim_slots: 1_200,
            n_runs: 4,
            ..Scenario::default()
        };
        let serial =
            render_run(ProtocolKind::Bmw, &scenario, 3, true, &SweepOpts::default()).unwrap();
        let parallel = render_run(
            ProtocolKind::Bmw,
            &scenario,
            3,
            true,
            &SweepOpts {
                jobs: 4,
                ..SweepOpts::default()
            },
        )
        .unwrap();
        assert_eq!(serial, parallel, "output must not depend on --jobs");

        let dir = std::env::temp_dir().join("rmm_cli_sweep_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("run.manifest.jsonl").display().to_string();
        let with_manifest = render_run(
            ProtocolKind::Bmw,
            &scenario,
            3,
            true,
            &SweepOpts {
                jobs: 2,
                manifest: Some(manifest.clone()),
                resume: false,
            },
        )
        .unwrap();
        assert_eq!(serial, with_manifest);
        // Resume with everything already recorded: identical output again.
        let resumed = render_run(
            ProtocolKind::Bmw,
            &scenario,
            3,
            true,
            &SweepOpts {
                jobs: 2,
                manifest: Some(manifest),
                resume: true,
            },
        )
        .unwrap();
        assert_eq!(serial, resumed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_trace_produces_parseable_artifacts() {
        let scenario = Scenario {
            n_nodes: 25,
            sim_slots: 1_200,
            n_runs: 1,
            ..Scenario::default()
        };
        let export = CellExport::run(ProtocolKind::Bmmm, &scenario, 5);
        let trace = rmm::sim::Trace::from_jsonl(&export.trace.to_jsonl()).unwrap();
        assert!(!trace.events().is_empty());
        assert_eq!(trace.events(), export.trace.events());
        let v: serde_json::Value = serde_json::from_str(&export.metrics_json()).unwrap();
        assert_eq!(v["manifest"]["seed"].as_u64(), Some(5));
        assert_eq!(v["manifest"]["traced"].as_bool(), Some(true));
        assert!(!v["metrics"]["counters"].is_null());
        assert!(export.trace_summary().contains("BMMM seed 5"));
    }

    #[test]
    fn bad_config_reports_error() {
        let err = parse_args(args("run --protocol bmmm --config /nonexistent/x.json"));
        assert!(matches!(err, Err(CliError::BadConfig(_))));
    }
}

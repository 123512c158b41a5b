//! `rmm-ladder`: runs one benchmark workload and reports its metrics.
//!
//! ```text
//! rmm-ladder --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Workloads: paper_sweep, saturated, scale_10k, serve_mixed, repro_quick.
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics and writes its spans to
//! `<out>/spans-<workload>.jsonl`. Every run writes
//! `<out>/ladder-<workload>.json`, prints one `name value unit (n=…)`
//! line per metric, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. It exits 1 when a
//! correctness gate fails and 2 on a usage error.

use rmm_ladder::{
    check_metric_set, host_meta, layer_self_times, repro, serve, sim, write_spans, Args, Metric,
    Outcome, END_TO_END, PER_LAYER,
};
use serde_json::{json, Map, Value};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: rmm-ladder --workload <paper_sweep|saturated|scale_10k|serve_mixed|repro_quick> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut out = PathBuf::from("target/ladder");
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
        out,
        tmp,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "serve_mixed" => serve::run(args),
        "repro_quick" => repro::run(args),
        name => match sim::spec(name) {
            Some(spec) => sim::run(name, &spec, args),
            None => Err(format!("unknown workload {name:?}\n{USAGE}")),
        },
    }
}

fn metric_json(m: &Metric) -> Value {
    json!({ "name": m.name, "value": m.value, "unit": m.unit, "n": m.n })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rmm-ladder: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.tmp) {
        eprintln!("rmm-ladder: cannot create {}: {e}", args.tmp.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&args.tmp);
    let want: &[(&str, &str)] = if args.traced { &PER_LAYER } else { &END_TO_END };
    let outcome = match outcome.and_then(|o| check_metric_set(&o.metrics, want).map(|()| o)) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("rmm-ladder: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    for m in outcome.metrics.iter().chain(&outcome.notes) {
        println!("{:<36} {:>14.6} {:<8} (n={})", m.name, m.value, m.unit, m.n);
    }
    for e in &outcome.errors {
        eprintln!("rmm-ladder: correctness: {e}");
    }
    let correct = outcome.errors.is_empty();

    let mut report = Map::new();
    report.insert("workload", json!(args.workload));
    report.insert("seed", json!(args.seed));
    report.insert("seconds", json!(args.seconds));
    report.insert("trace", json!(args.traced));
    report.insert("host", host_meta());
    report.insert("correct", json!(correct));
    report.insert("attempted", json!(outcome.attempted));
    report.insert("failed", json!(outcome.failed));
    report.insert("errors", json!(outcome.errors));
    report.insert(
        "metrics",
        Value::Array(outcome.metrics.iter().map(metric_json).collect()),
    );
    report.insert(
        "notes",
        Value::Array(outcome.notes.iter().map(metric_json).collect()),
    );
    report.insert("details", Value::Object(outcome.details));
    if args.traced {
        let mut layers = Map::new();
        for (layer, ns) in layer_self_times(&outcome.spans) {
            layers.insert(layer, json!(ns as f64 / 1e6));
        }
        report.insert("layer_self_ms", Value::Object(layers));
    }
    let written = std::fs::write(
        args.out.join(format!("ladder-{}.json", args.workload)),
        Value::Object(report).pretty(),
    )
    .and_then(|()| {
        if args.traced {
            write_spans(
                &args.out.join(format!("spans-{}.jsonl", args.workload)),
                &outcome.spans,
            )
        } else {
            Ok(())
        }
    });
    if let Err(e) = written {
        eprintln!("rmm-ladder: writing reports to {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    let mut metrics = Map::new();
    for m in &outcome.metrics {
        metrics.insert(m.name.clone(), json!({ "value": m.value, "unit": m.unit }));
    }
    let last = json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{last}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

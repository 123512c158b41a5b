//! End-to-end tests driving the actual `rmm` binary.

use std::process::Command;

fn rmm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rmm"))
}

#[test]
fn config_emits_valid_scenario_json() {
    let out = rmm().arg("config").output().expect("binary runs");
    assert!(out.status.success());
    let scenario: rmm::workload::Scenario =
        serde_json::from_slice(&out.stdout).expect("valid Scenario JSON");
    assert_eq!(scenario, rmm::workload::Scenario::default());
}

#[test]
fn run_json_reports_metrics() {
    let out = rmm()
        .args([
            "run",
            "--protocol",
            "bmmm",
            "--nodes",
            "30",
            "--slots",
            "1500",
            "--runs",
            "1",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).expect("json output");
    assert_eq!(v["protocol"], "BMMM");
    assert_eq!(v["reliable"], true);
    let rate = v["delivery_rate"]["mean"].as_f64().unwrap();
    assert!((0.0..=1.0).contains(&rate));
}

#[test]
fn bad_usage_exits_nonzero_with_usage() {
    let out = rmm()
        .args(["run", "--nodes", "30"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--protocol"));
    assert!(err.contains("usage"));
}

#[test]
fn out_of_range_scenario_exits_with_usage_error() {
    let dir = std::env::temp_dir().join("rmm_cli_e2e_range");
    std::fs::create_dir_all(&dir).unwrap();
    let config = dir.join("zero_radius.json");
    let zero_radius = rmm::workload::Scenario {
        radius: 0.0,
        ..Default::default()
    };
    std::fs::write(&config, serde_json::to_string(&zero_radius).unwrap()).unwrap();
    let config = config.to_str().unwrap();
    for flags in [
        ["--rate", "5"],
        ["--runs", "0"],
        ["--fer", "1.5"],
        ["--config", config],
    ] {
        let out = rmm()
            .args(["run", "--protocol", "bmmm"])
            .args(flags)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn help_prints_usage() {
    let out = rmm().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("rmm run --protocol"));
}

#[test]
fn trace_streams_jsonl_and_writes_metrics() {
    let dir = std::env::temp_dir().join("rmm_cli_e2e_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let metrics_path = dir.join("m.json");
    let out = rmm()
        .args([
            "trace",
            "--protocol",
            "bmmm",
            "--nodes",
            "30",
            "--slots",
            "1500",
            "--seed",
            "11",
            "--metrics-out",
            metrics_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // stdout is the JSONL event log; it parses back into a trace.
    let trace = rmm::sim::Trace::from_jsonl(&String::from_utf8_lossy(&out.stdout))
        .expect("stdout is valid JSONL");
    assert!(!trace.events().is_empty());
    // stderr carries the one-line human summary.
    assert!(String::from_utf8_lossy(&out.stderr).contains("BMMM seed 11"));
    // The metrics file embeds the run manifest for provenance.
    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert_eq!(metrics["manifest"]["seed"].as_u64(), Some(11));
    assert_eq!(metrics["manifest"]["protocol"], "Bmmm");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_with_trace_out_writes_event_log() {
    let dir = std::env::temp_dir().join("rmm_cli_e2e_run_trace");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("t.jsonl");
    let out = rmm()
        .args([
            "run",
            "--protocol",
            "lamm",
            "--nodes",
            "25",
            "--slots",
            "1200",
            "--runs",
            "1",
            "--json",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // stdout stays the normal run report.
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["protocol"], "LAMM");
    let trace = rmm::sim::Trace::from_jsonl(&std::fs::read_to_string(&trace_path).unwrap())
        .expect("trace file is valid JSONL");
    assert!(!trace.events().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn config_file_roundtrip_through_binary() {
    let dir = std::env::temp_dir().join("rmm_cli_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("s.json");
    let out = rmm().arg("config").output().unwrap();
    std::fs::write(&path, &out.stdout).unwrap();
    let out = rmm()
        .args([
            "run",
            "--protocol",
            "lamm",
            "--config",
            path.to_str().unwrap(),
            "--nodes",
            "25",
            "--slots",
            "1200",
            "--runs",
            "1",
            "--json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    assert_eq!(v["protocol"], "LAMM");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_run_exports_trace_metrics_and_profile() {
    let dir = std::env::temp_dir().join("rmm_cli_e2e_one_run");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let cell = [
        "--protocol",
        "bmmm",
        "--nodes",
        "30",
        "--slots",
        "1500",
        "--runs",
        "1",
        "--seed",
        "11",
    ];
    let out = rmm()
        .arg("run")
        .args(cell)
        .args(["--trace-out", &path("t.jsonl")])
        .args(["--metrics-out", &path("m.json")])
        .args(["--profile-out", &path("p.json")])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let traced = rmm().arg("trace").args(cell).output().expect("binary runs");
    assert!(traced.status.success());
    let jsonl = std::fs::read(path("t.jsonl")).unwrap();
    assert!(!jsonl.is_empty());
    assert!(
        jsonl == traced.stdout,
        "run --trace-out differs from trace stdout"
    );
    // The metrics carry the dwell totals the profile reports.
    let read = |name: &str| -> serde_json::Value {
        serde_json::from_str(&std::fs::read_to_string(path(name)).unwrap()).unwrap()
    };
    let (metrics, profile) = (read("m.json"), read("p.json"));
    let counters = metrics["metrics"]["counters"].as_array().unwrap();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|c| c["name"] == name)
            .and_then(|c| c["value"].as_u64())
    };
    for state in ["contention", "batch", "ack_wait", "backoff"] {
        let total = counter(&format!("dwell_{state}_slots"));
        assert!(total.is_some(), "metrics.json lacks dwell_{state}_slots");
        assert_eq!(
            total,
            profile["dwell"][format!("{state}_slots").as_str()].as_u64()
        );
    }
    assert!(counter("dwell_contention_slots") > Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submit_run_local_takes_scenario_overrides() {
    let out = rmm()
        .args(["submit", "run", "--protocol", "bmmm", "--local"])
        .args(["--nodes", "20", "--slots", "800"])
        .args(["--fer", "0.1", "--faults", "crash:3@100"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout.lines().last().expect("a Result line");
    assert!(result.starts_with("{\"Result\""), "{result}");
    assert!(result.contains("\"fer\":0.1"), "{result}");
}

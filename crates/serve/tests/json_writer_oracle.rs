//! Oracle for the direct JSON writer: every value the service, the
//! fleet and the trace exports serialize, taken from real runs, writes
//! through `serde_json::to_string` exactly the text of its `Value` tree
//! (`serde_json::to_value(x).to_string()`), byte for byte.

use rmm_fleet::{JobId, ManifestHeader, MANIFEST_VERSION};
use rmm_mac::ProtocolKind;
use rmm_serve::{canonical_result, Request, Response, RunRequest, ServeCell, PROTO_VERSION};
use rmm_sim::{FaultPlan, GilbertElliott, NodeId, TraceEvent};
use rmm_workload::{
    run, scenario_schema_hash, ChaosRepro, ChaosSchedule, ChurnPlan, MobilityConfig, Probes,
    RunSpec, Scenario, ViolationKind,
};
use serde::Serialize;
use std::collections::BTreeSet;

/// Asserts that the direct writer and the tree agree on `x`.
fn same_text<T: Serialize + ?Sized>(x: &T, what: &str) {
    let direct = serde_json::to_string(x).expect("serializes");
    let tree = serde_json::to_value(x).to_string();
    assert!(direct == tree, "{what}:\n direct {direct}\n   tree {tree}");
}

/// Every [`TraceEvent`] variant by name. The match has no wildcard, so
/// a new variant fails to compile here until it is listed.
fn variant(event: &TraceEvent) -> &'static str {
    match event {
        TraceEvent::TxStart { .. } => "TxStart",
        TraceEvent::RxOk { .. } => "RxOk",
        TraceEvent::Collision { .. } => "Collision",
        TraceEvent::ContentionStart { .. } => "ContentionStart",
        TraceEvent::ContentionEnd { .. } => "ContentionEnd",
        TraceEvent::BatchStart { .. } => "BatchStart",
        TraceEvent::BatchEnd { .. } => "BatchEnd",
        TraceEvent::PollSent { .. } => "PollSent",
        TraceEvent::AckMissed { .. } => "AckMissed",
        TraceEvent::CoverSetComputed { .. } => "CoverSetComputed",
        TraceEvent::Retry { .. } => "Retry",
        TraceEvent::GiveUp { .. } => "GiveUp",
        TraceEvent::NavDefer { .. } => "NavDefer",
    }
}

const VARIANTS: usize = 13;

fn base() -> Scenario {
    Scenario {
        n_nodes: 20,
        sim_slots: 800,
        n_runs: 1,
        ..Scenario::default()
    }
}

/// The channel and membership conditions every protocol runs under:
/// frame errors, burst errors, a fault plan of every kind, churn, and
/// mobility. The faulted run's timeout outlasts it, so senders spend
/// their retry budget on the station crashed from the start.
fn conditions() -> Vec<(&'static str, Scenario, Option<MobilityConfig>)> {
    let faults = FaultPlan::parse("crash:3@0;deaf:4@50..300;mute:5@80..260;reboot:6@120..400")
        .expect("fault spec parses");
    let churn = ChurnPlan::new()
        .leave(NodeId(7), 150)
        .join(NodeId(7), 450)
        .leave(NodeId(8), 300);
    vec![
        ("fer", base().with_fer(0.1), None),
        (
            "burst",
            base().with_burst(GilbertElliott::new(0.05, 0.25)),
            None,
        ),
        ("faults", base().with_timeout(800).with_faults(faults), None),
        ("churn", base().with_churn(churn), None),
        ("mobility", base(), Some(MobilityConfig::default())),
    ]
}

/// A traced and profiled cell, as the service would hold it.
fn cell(s: &Scenario, protocol: ProtocolKind, mobility: Option<MobilityConfig>) -> ServeCell {
    s.validate().expect("valid scenario");
    let spec = RunSpec {
        probes: Probes {
            trace: true,
            profile: true,
            ..Probes::default()
        },
        mobility,
        ..RunSpec::default()
    };
    let out = run(s, protocol, 11, &spec);
    ServeCell {
        result: canonical_result(out.result),
        trace: out.trace,
        profile: out.profile,
    }
}

#[test]
fn run_values_write_what_their_trees_render() {
    let mut seen = BTreeSet::new();
    for (name, s, mobility) in conditions() {
        for protocol in ProtocolKind::EVERY {
            let what = format!("{name}/{protocol:?}");
            let cell = cell(&s, protocol, mobility);
            same_text(&cell.result, &format!("{what} result"));
            same_text(&cell.profile, &format!("{what} profile"));
            let trace = cell.trace.expect("traced");
            let mut tree_jsonl = String::new();
            for event in trace.events() {
                seen.insert(variant(event));
                same_text(event, &format!("{what} {event:?}"));
                tree_jsonl.push_str(&serde_json::to_value(event).to_string());
                tree_jsonl.push('\n');
            }
            assert!(trace.to_jsonl() == tree_jsonl, "{what} trace JSONL");
        }
    }
    assert_eq!(seen.len(), VARIANTS, "variants seen: {seen:?}");
}

#[test]
fn requests_and_responses_write_what_their_trees_render() {
    let (_, s, _) = &conditions()[2];
    let cell = cell(s, ProtocolKind::Lamm, None);
    let trace = cell.trace.as_ref().expect("traced");
    let requests = [
        Request::Run(RunRequest {
            id: u64::MAX,
            protocol: "lamm".into(),
            scenario: s.clone(),
            seed: 11,
            trace: true,
            profile: true,
        }),
        Request::Metrics,
        Request::Ping,
        Request::Shutdown,
    ];
    for request in &requests {
        same_text(request, &format!("{request:?}"));
    }
    let mut responses = vec![
        Response::Started { id: 0 },
        Response::Profile {
            id: 1,
            profile: cell.profile.clone().expect("profiled"),
        },
        Response::Metrics {
            text: "# TYPE rmm_serve_requests_total counter\nrmm_serve_requests_total 3\n".into(),
        },
        Response::Pong {
            version: PROTO_VERSION,
        },
        Response::Draining,
        Response::Error {
            id: None,
            message: "bad request line: expected `,` or `}` in object at byte 7".into(),
        },
        Response::Error {
            id: Some(9),
            message: "unknown protocol \"\u{1}x\"\t(tab)\r\n".into(),
        },
    ];
    for cached in [false, true] {
        responses.push(Response::Result {
            id: 4_242,
            cached,
            result: cell.result.clone(),
        });
    }
    responses.extend(trace.events().iter().map(|event| Response::Event {
        id: 17,
        event: event.clone(),
    }));
    for response in &responses {
        same_text(response, &format!("{response:?}"));
    }
}

#[test]
fn stored_values_write_what_their_trees_render() {
    let base = base();
    for (name, s, _) in conditions() {
        same_text(&s, name);
    }
    let mut every_field = base
        .clone()
        .with_fer(0.05)
        .with_position_noise(0.01)
        .with_stall_window(250);
    every_field.burst = Some(GilbertElliott::new(0.05, 0.25));
    same_text(&every_field, "every optional field set");
    for seed in 0..8 {
        let schedule = ChaosSchedule::generate(base.n_nodes, base.sim_slots, seed);
        let repro = ChaosRepro {
            protocol: ProtocolKind::EVERY[seed as usize % ProtocolKind::EVERY.len()],
            seed,
            scenario: schedule.apply(&base),
            violations: vec![
                ViolationKind::Stall,
                ViolationKind::Termination,
                ViolationKind::RetryBudget,
                ViolationKind::Membership,
                ViolationKind::AirtimePartition,
                ViolationKind::Determinism,
            ],
            detail: vec![
                String::new(),
                "node 3 \"stalled\" at slot 120\n\tsince C:\\ 😀".into(),
                "\u{0}\u{8}\u{c}\u{1f}\u{7f}".into(),
            ],
        };
        same_text(&repro, &format!("chaos repro {seed}"));
    }
    let header = ManifestHeader {
        sweep: "serve-cache".into(),
        options_hash: "0x00000000deadbeef".into(),
        jobs: usize::MAX,
        version: MANIFEST_VERSION,
        schema: scenario_schema_hash(),
    };
    same_text(&header, "manifest header");
    for id in [
        JobId::new("ext_fer", "fer=0.05/LAMM", 40_003),
        JobId::new("serve", "BMMM/0x0123456789abcdef", u64::MAX),
        JobId::new("", "\"quoted\"\\path\n", 0),
    ] {
        same_text(&id, &id.to_string());
    }
}

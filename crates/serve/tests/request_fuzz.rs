//! Property-based robustness tests for the request edge: whatever one
//! line a client sends — arbitrary bytes, invalid UTF-8, NULs, a `Run`
//! request cut short or with bytes overwritten, scenario values out of
//! range, brackets nested tens of thousands deep — the server answers it
//! with exactly one `Error`, answers the `Ping` after it, never panics,
//! and still serves a valid request afterwards byte for byte.

use proptest::prelude::*;
use rmm_mac::ProtocolKind;
use rmm_serve::{
    local_lines, request_shutdown, submit_one, Request, RunRequest, ServeConfig, Server,
    MAX_REQUEST_LINE,
};
use rmm_workload::{ChurnPlan, Scenario};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn tiny() -> Scenario {
    Scenario {
        n_nodes: 10,
        sim_slots: 400,
        n_runs: 1,
        ..Scenario::default()
    }
}

fn run_req(id: u64, scenario: Scenario) -> RunRequest {
    RunRequest {
        id,
        protocol: "bmmm".into(),
        scenario,
        seed: 3,
        trace: false,
        profile: false,
    }
}

fn line_of(req: RunRequest) -> Vec<u8> {
    serde_json::to_string(&Request::Run(req))
        .expect("request serializes")
        .into_bytes()
}

/// How many inputs [`out_of_range`] has; the generator and the coverage
/// check both walk `0..OUT_OF_RANGE_INPUTS`.
const OUT_OF_RANGE_INPUTS: usize = 16;

/// Requests whose scenario (or protocol) the server must refuse: built
/// through the types where they allow it, edited in the JSON where the
/// value does not even fit the field.
fn out_of_range(k: usize) -> Vec<u8> {
    let edit = |from: &str, to: &str| {
        let line = String::from_utf8(line_of(run_req(7, tiny()))).unwrap();
        assert!(line.contains(from), "{from}");
        line.replacen(from, to, 1).into_bytes()
    };
    let with = |scenario| line_of(run_req(7, scenario));
    match k {
        0 => with(tiny().with_nodes(0)),
        1 => with(Scenario {
            n_runs: 0,
            ..tiny()
        }),
        2 => with(Scenario {
            radius: -0.1,
            ..tiny()
        }),
        3 => with(tiny().with_rate(5.0)),
        4 => with(tiny().with_fer(1.0)),
        5 => with(Scenario {
            burst: Some(rmm_sim::GilbertElliott { p: 1.5, r: 0.5 }),
            ..tiny()
        }),
        6 => with(tiny().with_faults(rmm_sim::FaultPlan::parse("crash:99@5").unwrap())),
        7 => with(tiny().with_churn(ChurnPlan::parse("leave:99@5").unwrap())),
        8 => with(Scenario {
            sim_slots: 0,
            ..tiny()
        }),
        9 => line_of(RunRequest {
            protocol: "carrier-pigeon".into(),
            ..run_req(7, tiny())
        }),
        10 => edit("\"n_nodes\":10", "\"n_nodes\":-1"),
        11 => edit("\"sim_slots\":400", "\"sim_slots\":1e400"),
        12 => edit("\"radius\":0.2", "\"radius\":\"wide\""),
        13 => edit("\"seed\":3", "\"seed\":18446744073709551616"),
        14 => with(tiny().with_stall_window(0)),
        _ => edit("\"msg_rate\":0.0005", "\"msg_rate\":null"),
    }
}

/// One line a client might send, its newline not included.
fn any_line() -> impl Strategy<Value = Vec<u8>> {
    let valid = || line_of(run_req(1, tiny()));
    prop_oneof![
        // Arbitrary bytes: invalid UTF-8 and NULs included.
        prop::collection::vec(any::<u8>(), 0..300),
        // NULs around a request fragment.
        (0usize..40, 0usize..40).prop_map(|(a, b)| [
            vec![0; a],
            b"{\"Run\":{\"id\":".to_vec(),
            vec![0; b]
        ]
        .concat()),
        // A valid request cut short.
        (0.0f64..1.0).prop_map(move |f| {
            let line = valid();
            line[..(line.len() as f64 * f) as usize].to_vec()
        }),
        // A valid request with a few bytes overwritten.
        prop::collection::vec((any::<usize>(), any::<u8>()), 1..6).prop_map(move |edits| {
            let mut line = valid();
            let n = line.len();
            for (at, byte) in edits {
                line[at % n] = byte;
            }
            line
        }),
        // Scenario values out of range.
        (0usize..OUT_OF_RANGE_INPUTS).prop_map(out_of_range),
        // Junk right up to the bound.
        (0usize..3).prop_map(|k| vec![b'{'; MAX_REQUEST_LINE - k]),
        // Nesting deeper than any parser should recurse.
        (0usize..2, 100usize..70_000)
            .prop_map(|(k, n)| { [b"[".as_slice(), b"{\"Run\":{\"id\":["][k].repeat(n) }),
    ]
    .prop_map(|line| {
        line.into_iter()
            .map(|b| if b == b'\n' { b' ' } else { b })
            .collect()
    })
}

/// Whether the server owes `line` exactly one `Error`: it is not UTF-8,
/// does not parse as a request, or is a run the server must refuse.
/// Blank lines, an HTTP `GET`, and requests the server would carry out
/// are answered otherwise, and are not sent.
fn owes_one_error(line: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(line) else {
        return true;
    };
    let text = text.trim();
    if text.is_empty() || text.starts_with("GET ") {
        return false;
    }
    match serde_json::from_str::<Request>(text) {
        Err(_) => true,
        Ok(Request::Run(req)) => {
            ProtocolKind::parse(&req.protocol).is_none() || req.scenario.validate().is_err()
        }
        Ok(_) => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_bad_line_gets_one_error_and_the_connection_survives(
        lines in prop::collection::vec(any_line(), 1..6),
    ) {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let addr = server.addr().to_string();
        let bad: Vec<Vec<u8>> = lines.into_iter().filter(|l| owes_one_error(l)).collect();
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        for line in &bad {
            stream.write_all(line).unwrap();
            stream.write_all(b"\n\"Ping\"\n").unwrap();
        }
        stream.flush().unwrap();
        let mut reader = BufReader::new(stream);
        for (k, line) in bad.iter().enumerate() {
            let shown = String::from_utf8_lossy(&line[..line.len().min(120)]).into_owned();
            let mut reply = String::new();
            reader.read_line(&mut reply).unwrap();
            prop_assert!(reply.starts_with("{\"Error\""), "line {k} {shown:?}: {reply}");
            reply.clear();
            reader.read_line(&mut reply).unwrap();
            prop_assert!(reply.starts_with("{\"Pong\""), "after line {k} {shown:?}: {reply}");
        }
        drop(reader);
        let req = run_req(42, tiny());
        prop_assert_eq!(submit_one(&addr, &req).unwrap(), local_lines(&req).unwrap());
        request_shutdown(&addr).unwrap();
        server.join();
    }
}

#[test]
fn the_generators_reach_every_kind_of_bad_line() {
    for k in 0..OUT_OF_RANGE_INPUTS {
        assert!(owes_one_error(&out_of_range(k)), "out-of-range input {k}");
    }
    assert!(owes_one_error(b"\xff\xfe not utf8"));
    assert!(owes_one_error(b"\0\0{\"Run\":{\"id\":\0"));
    assert!(owes_one_error(&vec![b'{'; MAX_REQUEST_LINE]));
    assert!(owes_one_error(&b"[".repeat(MAX_REQUEST_LINE)));
    assert!(!owes_one_error(&line_of(run_req(1, tiny()))));
    assert!(!owes_one_error(b"  \r"));
    assert!(!owes_one_error(b"\"Ping\""));
}

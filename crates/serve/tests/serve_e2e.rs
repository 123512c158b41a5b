//! End-to-end exercises of the serve daemon over real loopback TCP:
//! byte-identity against the serial oracle, cache warm/cold behaviour,
//! persistence across restarts, connection capping, error handling, a
//! concurrent soak, and graceful drain.

use rmm_serve::{
    fetch_metrics, local_lines, parse_metric, request_shutdown, soak, submit_one, Request,
    Response, RunRequest, ServeConfig, Server, SoakSpec, MAX_REQUEST_LINE, OWED_BEYOND_WORKERS,
};
use rmm_workload::{ChurnPlan, Scenario};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

fn tiny() -> Scenario {
    Scenario {
        n_nodes: 10,
        sim_slots: 400,
        n_runs: 1,
        ..Scenario::default()
    }
}

fn start(config: ServeConfig) -> (Server, String) {
    let server = Server::start(config).expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

fn run_req(id: u64, protocol: &str, seed: u64, trace: bool) -> RunRequest {
    RunRequest {
        id,
        protocol: protocol.into(),
        scenario: tiny(),
        seed,
        trace,
        profile: false,
    }
}

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rmm-serve-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn drain(server: Server, addr: &str) {
    // A connection slot can stay occupied for a moment after a client
    // drops its stream (the server-side reader has to observe the EOF),
    // so a capacity-limited server may refuse the first shutdown
    // attempt — retry until the Draining ack actually comes back.
    for _ in 0..500 {
        if request_shutdown(addr).is_ok() {
            server.join();
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("server never admitted the shutdown request");
}

#[test]
fn served_response_is_byte_identical_to_local_oracle() {
    let (server, addr) = start(ServeConfig::default());
    for (id, protocol, trace) in [(1, "bmmm", false), (2, "lamm", true), (3, "802.11", true)] {
        let req = run_req(id, protocol, 7, trace);
        let got = submit_one(&addr, &req).expect("served");
        let want = local_lines(&req).expect("oracle");
        assert_eq!(got, want, "served bytes must equal the serial oracle");
    }
    drain(server, &addr);
}

#[test]
fn second_request_is_served_from_cache_without_engine_work() {
    let (server, addr) = start(ServeConfig::default());
    let req = run_req(9, "bmw", 3, true);
    let cold = submit_one(&addr, &req).expect("cold");
    let runs_after_cold = parse_metric(
        &fetch_metrics(&addr).unwrap(),
        "rmm_serve_engine_runs_total",
    )
    .unwrap();
    let warm = submit_one(&addr, &req).expect("warm");
    let runs_after_warm = parse_metric(
        &fetch_metrics(&addr).unwrap(),
        "rmm_serve_engine_runs_total",
    )
    .unwrap();
    assert_eq!(
        runs_after_cold, runs_after_warm,
        "warm hit must not run the engine"
    );
    assert_eq!(cold.len(), warm.len());
    assert_eq!(cold[..cold.len() - 1], warm[..warm.len() - 1]);
    assert!(cold.last().unwrap().contains("\"cached\":false"));
    assert!(warm.last().unwrap().contains("\"cached\":true"));
    let hits = parse_metric(&fetch_metrics(&addr).unwrap(), "rmm_serve_cache_hits_total").unwrap();
    assert!(hits >= 1);
    drain(server, &addr);
}

#[test]
fn disk_cache_survives_server_restart() {
    let cache = tmp_dir("restart").join("cache.jsonl");
    let req = run_req(1, "leader", 11, false);
    let cold = {
        let (server, addr) = start(ServeConfig {
            cache_path: Some(cache.clone()),
            ..ServeConfig::default()
        });
        let lines = submit_one(&addr, &req).expect("cold");
        drain(server, &addr);
        lines
    };
    let (server, addr) = start(ServeConfig {
        cache_path: Some(cache),
        ..ServeConfig::default()
    });
    let warm = submit_one(&addr, &req).expect("warm from reloaded cache");
    let runs = parse_metric(
        &fetch_metrics(&addr).unwrap(),
        "rmm_serve_engine_runs_total",
    )
    .unwrap();
    assert_eq!(
        runs, 0,
        "restarted server must answer entirely from the reloaded cache"
    );
    assert!(warm.last().unwrap().contains("\"cached\":true"));
    assert_eq!(cold[..cold.len() - 1], warm[..warm.len() - 1]);
    drain(server, &addr);
}

#[test]
fn bad_lines_and_unknown_protocols_error_without_killing_the_connection() {
    let (server, addr) = start(ServeConfig::default());
    let mut stream = TcpStream::connect(&addr).unwrap();
    writeln!(stream, "this is not json").unwrap();
    writeln!(
        stream,
        "{}",
        serde_json::to_string(&Request::Run(run_req(5, "carrier-pigeon", 0, false))).unwrap()
    )
    .unwrap();
    writeln!(stream, "{}", serde_json::to_string(&Request::Ping).unwrap()).unwrap();
    stream.write_all(b"\xff\xfe not utf8\n").unwrap();
    writeln!(stream, "{}", serde_json::to_string(&Request::Ping).unwrap()).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::new();
    for _ in 0..5 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        lines.push(line);
    }
    assert!(lines[0].contains("\"Error\"") && lines[0].contains("unparseable"));
    assert!(lines[1].contains("\"Error\"") && lines[1].contains("carrier-pigeon"));
    assert!(
        lines[2].contains("\"Pong\""),
        "connection stays usable after errors"
    );
    assert!(lines[3].contains("\"Error\"") && lines[3].contains("UTF-8"));
    assert!(
        lines[4].contains("\"Pong\""),
        "connection stays usable after a non-UTF-8 line"
    );
    let metrics = fetch_metrics(&addr).unwrap();
    assert_eq!(parse_metric(&metrics, "rmm_serve_errors_total"), Some(3));
    drop(reader); // close our connection so the drain can complete
    drain(server, &addr);
}

#[test]
fn oversize_line_gets_one_error_and_a_close() {
    let (server, addr) = start(ServeConfig::default());
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    // Twice the bound, and no newline ever.
    stream.write_all(&vec![b'x'; 2 * MAX_REQUEST_LINE]).unwrap();
    stream.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("\"Error\"") && line.contains("longer than"),
        "{line}"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "then the close");
    drop(reader);
    // A new connection is still served.
    let req = run_req(4, "bmmm", 2, false);
    assert_eq!(submit_one(&addr, &req).unwrap(), local_lines(&req).unwrap());
    let metrics = fetch_metrics(&addr).unwrap();
    assert_eq!(
        parse_metric(&metrics, "rmm_serve_oversize_lines_total"),
        Some(1)
    );
    assert_eq!(parse_metric(&metrics, "rmm_serve_errors_total"), Some(1));
    drain(server, &addr);
}

#[test]
fn invalid_fault_plan_is_rejected_before_the_engine() {
    // One worker: a request that panicked it would leave every later
    // run, and the drain, waiting forever.
    let (server, addr) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let burst = |p, r| Some(rmm_sim::GilbertElliott { p, r });
    for (scenario, why) in [
        (
            tiny().with_faults(
                rmm_sim::FaultPlan::parse("crash:99@5").expect("node 99 is out of range for n=10"),
            ),
            "fault plan",
        ),
        (
            tiny().with_churn(ChurnPlan::parse("leave:99@5").expect("out of range for n=10")),
            "churn plan",
        ),
        (tiny().with_nodes(0), "n_nodes"),
        (
            Scenario {
                n_runs: 0,
                ..tiny()
            },
            "n_runs",
        ),
        (
            Scenario {
                radius: 0.0,
                ..tiny()
            },
            "radius",
        ),
        (
            Scenario {
                radius: -0.1,
                ..tiny()
            },
            "radius",
        ),
        (tiny().with_rate(5.0), "msg_rate"),
        (tiny().with_rate(-0.1), "msg_rate"),
        (tiny().with_fer(1.5), "fer"),
        (tiny().with_fer(1.0), "fer"),
        (
            Scenario {
                burst: burst(1.5, 0.5),
                ..tiny()
            },
            "burst",
        ),
        (
            Scenario {
                burst: burst(0.5, -0.1),
                ..tiny()
            },
            "burst",
        ),
    ] {
        let req = RunRequest {
            scenario,
            ..run_req(2, "bmmm", 0, false)
        };
        let lines = submit_one(&addr, &req).expect("response");
        assert_eq!(lines.len(), 1, "{why}");
        assert!(
            lines[0].contains("\"Error\"") && lines[0].contains(why),
            "{why}: {}",
            lines[0]
        );
    }
    let req = run_req(3, "bmmm", 0, false);
    assert_eq!(submit_one(&addr, &req).unwrap(), local_lines(&req).unwrap());
    drain(server, &addr);
}

/// The run request EXPERIMENTS.md shows, sent as written, gets the
/// lines the serial oracle renders for it, ending in a `Result`.
#[test]
fn the_documented_run_request_gets_a_result() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let section = &doc[doc.find("## Serving the simulator").expect("serve section")..];
    let line = section
        .lines()
        .find(|l| l.starts_with("{\"Run\""))
        .expect("a documented run request");
    let Ok(Request::Run(req)) = serde_json::from_str::<Request>(line) else {
        panic!("the documented request does not parse: {line}");
    };
    let want = local_lines(&req).expect("oracle");
    assert!(want.last().unwrap().starts_with("{\"Result\""));
    let (server, addr) = start(ServeConfig::default());
    let mut stream = TcpStream::connect(&addr).unwrap();
    writeln!(stream, "{line}").unwrap();
    let mut reader = BufReader::new(stream);
    let got: Vec<String> = want
        .iter()
        .map(|_| {
            let mut got = String::new();
            reader.read_line(&mut got).unwrap();
            got.trim_end_matches('\n').to_string()
        })
        .collect();
    assert_eq!(got, want);
    drop(reader);
    drain(server, &addr);
}

#[test]
fn a_run_of_no_slots_gets_one_error_and_no_cache_entry() {
    // Such a run's utilization is NaN, written as `null`: its `Result`
    // line would not parse back in the client, nor its cache entry in
    // a sweep manifest.
    let cache = tmp_dir("no-slots").join("cache");
    let (server, addr) = start(ServeConfig {
        workers: 1,
        cache_path: Some(cache.clone()),
        ..ServeConfig::default()
    });
    let entries = || -> Vec<_> {
        std::fs::read_dir(&cache)
            .map(|dir| dir.map(|e| e.unwrap().file_name()).collect())
            .unwrap_or_default()
    };
    let req = RunRequest {
        scenario: Scenario {
            sim_slots: 0,
            ..tiny()
        },
        ..run_req(4, "bmmm", 2, false)
    };
    let lines = submit_one(&addr, &req).expect("response");
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].contains("\"Error\"") && lines[0].contains("sim_slots"),
        "{}",
        lines[0]
    );
    let metrics = fetch_metrics(&addr).unwrap();
    assert_eq!(
        parse_metric(&metrics, "rmm_serve_engine_runs_total"),
        Some(0)
    );
    assert!(entries().is_empty(), "{:?}", entries());
    // A valid cell is cached in the same directory.
    let req = run_req(5, "bmmm", 2, false);
    assert_eq!(submit_one(&addr, &req).unwrap(), local_lines(&req).unwrap());
    assert!(!entries().is_empty());
    drain(server, &addr);
}

#[test]
fn connections_beyond_the_cap_are_refused() {
    let (server, addr) = start(ServeConfig {
        max_conns: 1,
        ..ServeConfig::default()
    });
    // First connection occupies the only slot until dropped.
    let held = TcpStream::connect(&addr).unwrap();
    let second = TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(second);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"Error\"") && line.contains("capacity"));
    drop(held);
    // Capacity frees up once the held connection closes.
    let req = run_req(1, "bsma", 1, false);
    let retry = loop {
        match submit_one(&addr, &req) {
            Ok(lines) if lines.last().unwrap().contains("\"Result\"") => break lines,
            _ => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };
    assert_eq!(retry, local_lines(&req).unwrap());
    drain(server, &addr);
}

#[test]
fn http_get_scrapes_metrics() {
    let (server, addr) = start(ServeConfig::default());
    let mut stream = TcpStream::connect(&addr).unwrap();
    write!(stream, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    stream.flush().unwrap();
    let mut body = String::new();
    BufReader::new(stream).read_to_string(&mut body).unwrap();
    assert!(body.starts_with("HTTP/1.0 200 OK"));
    assert!(body.contains("rmm_serve_requests_total"));
    assert!(body.contains("rmm_serve_workers"));
    drain(server, &addr);
}

#[test]
fn concurrent_soak_is_byte_identical_then_fully_cached() {
    let cache = tmp_dir("soak").join("cache.jsonl");
    let (server, addr) = start(ServeConfig {
        cache_path: Some(cache),
        queue_cap: 16,
        ..ServeConfig::default()
    });
    let mut spec = SoakSpec {
        requests: 48,
        conns: 6,
        scenario: tiny(),
        seed_base: 1000,
        trace_every: 7,
        expect_cached: false,
    };
    let cold = soak(&addr, &spec).expect("cold soak byte-identical");
    assert_eq!(cold.requests, 48);
    // Second sweep: same cells, must be answered entirely from cache.
    spec.expect_cached = true;
    let warm = soak(&addr, &spec).expect("warm soak fully cached");
    assert_eq!(warm.cached, 48);
    assert_eq!(warm.engine_runs, 0);
    assert_eq!(warm.cache_hits, 48);
    drain(server, &addr);
}

#[test]
fn graceful_drain_refuses_new_work_but_finishes_the_ack() {
    let (server, addr) = start(ServeConfig::default());
    server.begin_shutdown();
    // New engine work on an already-open path is refused while draining.
    // The drain wake-up connection races with us; the listener may
    // accept us before observing the flag, in which case the Run is
    // refused, or refuse the connection outright.
    let mut stream = match TcpStream::connect(&addr) {
        Ok(s) => s,
        Err(_) => {
            server.join();
            return;
        }
    };
    let _ = writeln!(
        stream,
        "{}",
        serde_json::to_string(&Request::Run(run_req(1, "bmmm", 0, false))).unwrap()
    );
    let _ = stream.flush();
    let mut line = String::new();
    let _ = BufReader::new(stream).read_line(&mut line);
    if !line.is_empty() {
        assert!(
            line.contains("draining") || line.contains("\"Error\""),
            "a run accepted mid-drain must be refused: {line}"
        );
    }
    server.join();
}

/// A drain closes connections whose clients keep their sockets open.
/// One client sends a `Run` and `Shutdown` on one connection and reads
/// through `Draining` without closing; a second sits idle after a
/// `Ping`. `join` must return, and both clients must read EOF, the
/// first after every answer it was owed.
#[test]
fn drain_closes_connections_their_clients_keep_open() {
    use std::sync::mpsc;
    use std::time::Duration;
    let (server, addr) = start(ServeConfig::default());
    let connect = || {
        let stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
    };
    let line_of = |req: &Request| format!("{}\n", serde_json::to_string(req).unwrap());
    let mut idle = connect();
    idle.write_all(line_of(&Request::Ping).as_bytes()).unwrap();
    let mut idle = BufReader::new(idle);
    let mut pong = String::new();
    idle.read_line(&mut pong).unwrap();
    assert!(pong.contains("Pong"), "{pong}");

    let mut asker = connect();
    let req = run_req(1, "bmmm", 5, false);
    let lines = line_of(&Request::Run(req.clone())) + &line_of(&Request::Shutdown);
    asker.write_all(lines.as_bytes()).unwrap();
    let mut asker = BufReader::new(asker);
    let mut read = Vec::new();
    loop {
        let mut line = String::new();
        assert!(
            asker.read_line(&mut line).unwrap() > 0,
            "EOF before Draining"
        );
        let draining = line.contains("\"Draining\"");
        read.push(line);
        if draining {
            break;
        }
    }

    let (joined_tx, joined_rx) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        server.join();
        let _ = joined_tx.send(());
    });
    joined_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("join returned while two clients kept their sockets open");
    joiner.join().expect("the joining thread finished");
    let mut rest = String::new();
    asker
        .read_to_string(&mut rest)
        .expect("the asking client reads EOF");
    read.extend(rest.lines().map(|l| format!("{l}\n")));
    let want = local_lines(&req).unwrap();
    let results: Vec<&String> = read.iter().filter(|l| l.contains("\"Result\"")).collect();
    assert_eq!(results.len(), 1, "{read:?}");
    assert_eq!(results[0].trim_end(), want.last().unwrap(), "{read:?}");
    let mut rest = String::new();
    idle.read_to_string(&mut rest)
        .expect("the idle client reads EOF");
    assert!(rest.is_empty(), "{rest}");
}

/// A traced response streams while its run executes: its `Started`
/// line and first `Event` arrive while the cache holds no entry for it
/// and its entry file does not exist, since a run's `Result` leaves only
/// once its entry is renamed into place. The cell is long and sparse:
/// its first 64 KB of events are out within its first few percent of
/// slots, and it runs on for seconds in a debug build after that.
#[test]
fn a_traced_response_streams_before_its_result() {
    let cache = tmp_dir("live").join("cache");
    let (server, addr) = start(ServeConfig {
        workers: 1,
        cache_path: Some(cache.clone()),
        ..ServeConfig::default()
    });
    let req = RunRequest {
        scenario: Scenario {
            n_nodes: 100,
            sim_slots: 4_000_000,
            msg_rate: 1.2e-7,
            n_runs: 1,
            ..Scenario::default()
        },
        ..run_req(21, "bmmm", 3, true)
    };
    let key = rmm_serve::cache_key(
        rmm_mac::ProtocolKind::Bmmm,
        &req.scenario,
        req.seed,
        true,
        false,
    );
    let entry = rmm_serve::CacheStore::entry_path(&cache, &key);
    let mut stream = TcpStream::connect(&addr).unwrap();
    writeln!(
        stream,
        "{}",
        serde_json::to_string(&Request::Run(req.clone())).unwrap()
    )
    .unwrap();
    let mut reader = BufReader::new(stream);
    let mut read_line = || {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "EOF mid-stream");
        line.trim_end_matches('\n').to_string()
    };
    let mut got = vec![read_line(), read_line()];
    assert!(got[0].starts_with("{\"Started\""), "{}", got[0]);
    assert!(got[1].starts_with("{\"Event\""), "{}", got[1]);
    let metrics = fetch_metrics(&addr).unwrap();
    assert_eq!(parse_metric(&metrics, "rmm_serve_cache_entries"), Some(0));
    assert!(
        !entry.exists(),
        "the entry is stored only before the Result"
    );
    while !got.last().unwrap().starts_with("{\"Result\"") {
        got.push(read_line());
    }
    assert!(entry.is_file());
    assert_eq!(got, local_lines(&req).unwrap());
    drain(server, &addr);
}

/// A profiled miss, traced or not, streams the oracle's lines but for
/// its wall-clock timings: the `Profile` line names the same phases with
/// the same call counts. Its hit replays the miss byte for byte, with
/// `"cached":true`.
#[test]
fn profiled_misses_match_the_oracle_but_for_their_timings() {
    /// The line with its profile's nanoseconds zeroed.
    fn untimed(line: &str) -> String {
        match serde_json::from_str(line) {
            Ok(Response::Profile { id, mut profile }) => {
                profile.total_ns = 0;
                for phase in &mut profile.phases {
                    phase.ns = 0;
                }
                serde_json::to_string(&Response::Profile { id, profile }).unwrap()
            }
            _ => line.to_string(),
        }
    }
    let (server, addr) = start(ServeConfig::default());
    for (id, trace) in [(31, true), (32, false)] {
        let req = RunRequest {
            profile: true,
            ..run_req(id, "lamm", 8, trace)
        };
        let served = submit_one(&addr, &req).unwrap();
        let local = local_lines(&req).unwrap();
        assert_eq!(served.len(), local.len());
        assert!(served[served.len() - 2].starts_with("{\"Profile\""));
        for (served, local) in served.iter().zip(&local) {
            assert_eq!(untimed(served), untimed(local), "trace={trace}");
        }
        let hit = submit_one(&addr, &req).unwrap();
        let (last, rest) = served.split_last().unwrap();
        let flipped = last.replacen("\"cached\":false", "\"cached\":true", 1);
        assert_eq!(hit[..rest.len()], *rest, "trace={trace}");
        assert_eq!(hit[rest.len()..], [flipped], "trace={trace}");
    }
    let metrics = fetch_metrics(&addr).unwrap();
    assert_eq!(
        parse_metric(&metrics, "rmm_serve_engine_runs_total"),
        Some(2)
    );
    drain(server, &addr);
}

/// One connection that pipelines a sweep keeps every engine worker
/// busy: a connection may owe one answer per worker and
/// `OWED_BEYOND_WORKERS` more, so its reader takes a request for each of
/// more workers than that spare even while its client reads nothing.
/// Each answer is a traced Table 2 cell of about 6 MB, more than the
/// socket holds, so none is written whole while the test waits.
#[test]
fn one_pipelined_connection_keeps_every_worker_busy() {
    let workers = OWED_BEYOND_WORKERS + 4;
    let (server, addr) = start(ServeConfig {
        workers,
        ..ServeConfig::default()
    });
    let lines: String = (0..workers as u64)
        .map(|k| {
            let req = RunRequest {
                scenario: Scenario {
                    sim_slots: 2_000,
                    n_runs: 1,
                    ..Scenario::default()
                },
                ..run_req(40 + k, "bmmm", k, true)
            };
            serde_json::to_string(&Request::Run(req)).unwrap() + "\n"
        })
        .collect();
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(lines.as_bytes()).unwrap();
    let runs = || {
        let metrics = fetch_metrics(&addr).unwrap();
        parse_metric(&metrics, "rmm_serve_engine_runs_total").unwrap()
    };
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while runs() < workers as u64 {
        assert!(
            std::time::Instant::now() < deadline,
            "{} of {workers} cells started",
            runs()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    drop(stream);
    drain(server, &addr);
}

//! A client that pipelines traced requests and never reads pins a
//! bounded amount of the server: its reader stops taking requests once
//! it owes one answer per worker and `OWED_BEYOND_WORKERS` more, so few
//! entry files are held open,
//! no response is buffered in memory, and the writer closes the
//! connection once a write has made no progress for `WRITE_TIMEOUT`.
//! This is a test binary of its own, so the memory and the file
//! descriptors of other tests are not counted.
#![cfg(target_os = "linux")]

use rmm_serve::{
    fetch_metrics, local_lines, parse_metric, request_shutdown, submit_one, Request, RunRequest,
    ServeConfig, Server, OWED_BEYOND_WORKERS, WRITE_TIMEOUT,
};
use rmm_workload::Scenario;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The file descriptors this process holds open.
fn fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs lists this process's descriptors")
        .count()
}

/// A memory figure of this process from `/proc/self/status`, in KB.
fn status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB")?.trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"))
}

/// What the slow client may cost the server in memory, over 50 answers
/// of about 6 MB each that it never reads.
const RSS_BOUND_KB: u64 = 64 << 10;

#[test]
fn a_client_that_stops_reading_is_closed_and_counted() {
    let baseline = fds();
    let workers = 2;
    let server = Server::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    let metric = |name| parse_metric(&fetch_metrics(&addr).unwrap(), name).unwrap();
    // A traced Table 2 cell at 2 000 slots: about 6 MB of answer.
    let req = RunRequest {
        id: 1,
        protocol: "bmmm".into(),
        scenario: Scenario {
            sim_slots: 2_000,
            n_runs: 1,
            ..Scenario::default()
        },
        seed: 5,
        trace: true,
        profile: false,
    };
    let line = serde_json::to_string(&Request::Run(req)).unwrap() + "\n";
    let rss_before = status_kb("VmRSS");

    // Fifty requests on one connection, and not one byte read back.
    let mut slow = TcpStream::connect(&addr).unwrap();
    slow.write_all(line.repeat(50).as_bytes()).unwrap();

    // Another connection is served meanwhile.
    let small = RunRequest {
        id: 2,
        protocol: "lamm".into(),
        scenario: Scenario {
            n_nodes: 10,
            sim_slots: 400,
            n_runs: 1,
            ..Scenario::default()
        },
        seed: 7,
        trace: false,
        profile: false,
    };
    assert_eq!(
        submit_one(&addr, &small).unwrap(),
        local_lines(&small).unwrap()
    );
    assert_eq!(metric("rmm_serve_slow_clients_total"), 0);

    // The writer gives up on the slow client after its timeout.
    let deadline = Instant::now() + WRITE_TIMEOUT * 6;
    let mut most_fds = 0;
    while metric("rmm_serve_slow_clients_total") == 0 {
        most_fds = most_fds.max(fds());
        assert!(
            Instant::now() < deadline,
            "the slow client was never closed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        most_fds <= baseline + workers + OWED_BEYOND_WORKERS + 16,
        "{most_fds} descriptors open, {baseline} before the server"
    );
    let grown = status_kb("VmHWM").saturating_sub(rss_before);
    assert!(grown < RSS_BOUND_KB, "peak RSS grew by {grown} KB");

    // The slow client reads what the kernel held for it, then the close.
    slow.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut buf = vec![0; 1 << 16];
    loop {
        match slow.read(&mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("the slow client's connection is still open")
            }
            Err(_) => break,
        }
    }
    drop(slow);
    assert_eq!(metric("rmm_serve_slow_clients_total"), 1);
    request_shutdown(&addr).expect("drain acknowledged");
    server.join();
    assert_eq!(fds(), baseline, "a descriptor outlived the server");
}

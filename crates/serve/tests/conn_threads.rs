//! A drained server leaves no thread behind: [`Server::join`] returns
//! only after every connection's reader and writer threads have exited,
//! not merely finished their work. This is a test binary of its own, so
//! the threads of other tests are not counted.
#![cfg(target_os = "linux")]

use rmm_serve::{request_shutdown, submit_one, Request, RunRequest, ServeConfig, Server};
use rmm_workload::Scenario;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// The threads of this process, as the kernel lists them.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .count()
}

#[test]
fn join_returns_after_every_connection_thread_exits() {
    let baseline = threads();
    let req = RunRequest {
        id: 1,
        protocol: "bmw".into(),
        scenario: Scenario {
            n_nodes: 8,
            sim_slots: 200,
            n_runs: 1,
            ..Scenario::default()
        },
        seed: 3,
        trace: false,
        profile: false,
    };
    for cycle in 0..20 {
        let server = Server::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let addr = server.addr().to_string();
        // Connections that close while the server runs: the first is a
        // miss, the rest are hits.
        for _ in 0..3 {
            submit_one(&addr, &req).expect("served");
        }
        // One connection still open when the drain starts, closed just
        // before `join`.
        let mut held = TcpStream::connect(&addr).expect("connects");
        let ping = serde_json::to_string(&Request::Ping).expect("request serializes");
        writeln!(held, "{ping}").expect("ping sent");
        let mut pong = String::new();
        BufReader::new(&held)
            .read_line(&mut pong)
            .expect("pong read");
        assert!(pong.contains("Pong"), "{pong}");
        request_shutdown(&addr).expect("drain acknowledged");
        drop(held);
        server.join();
        assert_eq!(
            threads(),
            baseline,
            "cycle {cycle}: a thread outlived Server::join"
        );
    }
}

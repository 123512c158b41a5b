//! Oracle tests for the cached stream: what a miss streams as its run
//! emits it and what a hit writes are what `run_response_lines` renders
//! for its id and cached flag, whichever store they come from; a cache
//! file in an earlier layout, or an entry damaged on disk, is never
//! served, and a damaged entry costs only itself; a failed cache write
//! still answers and is counted; and a hit answers without waiting on
//! TCP's delayed ACK.

use rmm_fleet::{hex, Fnv1a, JobId, Manifest, ManifestHeader, MANIFEST_VERSION};
use rmm_mac::ProtocolKind;
use rmm_serve::cache::CHUNK;
use rmm_serve::{
    cache_key, compute_cell, fetch_metrics, local_lines, parse_metric, request_shutdown, run_cell,
    run_response_lines, submit_one, CacheStore, Chunk, Request, RunRequest, ServeCell, ServeConfig,
    Server, PROTO_VERSION,
};
use rmm_workload::{scenario_schema_hash, Scenario};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn tiny() -> Scenario {
    Scenario {
        n_nodes: 10,
        sim_slots: 400,
        n_runs: 1,
        ..Scenario::default()
    }
}

fn run_req(id: u64, protocol: &str, seed: u64) -> RunRequest {
    RunRequest {
        id,
        protocol: protocol.into(),
        scenario: tiny(),
        seed,
        trace: false,
        profile: false,
    }
}

fn tmp_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rmm-serve-oracle-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("cache.jsonl")
}

/// What a server streams for `lines`.
fn joined(lines: &[String]) -> Vec<u8> {
    lines
        .iter()
        .flat_map(|l| [l.as_bytes(), b"\n"].concat())
        .collect()
}

fn start(cache_path: Option<PathBuf>) -> (Server, String) {
    let server = Server::start(ServeConfig {
        cache_path,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

fn stop(server: Server, addr: &str) {
    request_shutdown(addr).expect("drain acknowledged");
    server.join();
}

fn metric(addr: &str, name: &str) -> u64 {
    parse_metric(&fetch_metrics(addr).unwrap(), name).unwrap()
}

/// Flips one byte of the stream stored in the entry file at `entry`.
fn flip_started(entry: &Path) {
    let mut bytes = std::fs::read(entry).unwrap();
    let at = bytes
        .windows(7)
        .position(|w| w == b"Started")
        .expect("the entry holds the stream");
    bytes[at] = b's';
    std::fs::write(entry, bytes).unwrap();
}

/// What a server writes for `chunks`, answering request `id`.
fn served(chunks: &[Chunk], id: u64, cached: bool) -> Vec<u8> {
    let mut out = Vec::new();
    for chunk in chunks {
        chunk.write_to(id, cached, &mut out).unwrap();
    }
    out
}

#[test]
fn spliced_streams_match_the_renderer() {
    let private = CacheStore::open(None, 7).unwrap();
    let disk = CacheStore::open(Some(&tmp_cache("splice")), 7).unwrap();
    // A traced BMMM cell of 30 nodes and 1 500 slots streams about
    // 90 KB: more than a chunk, so its hit is read back in pieces.
    let long = Scenario {
        n_nodes: 30,
        sim_slots: 1_500,
        n_runs: 1,
        ..Scenario::default()
    };
    let cells = ProtocolKind::EVERY
        .into_iter()
        .flat_map(|p| {
            [(false, false), (true, false), (false, true), (true, true)].map(|f| (p, f, tiny()))
        })
        .chain([(ProtocolKind::Bmmm, (true, false), long)]);
    for (protocol, (trace, profile), s) in cells {
        let key = cache_key(protocol, &s, 11, trace, profile);
        // The chunks a miss streams as its run emits its events, the
        // last once its entry is stored: what a server runs for a miss.
        let (tx, rx) = mpsc::channel();
        let mut ran = None;
        let send = move |chunk| tx.send(chunk).unwrap();
        let last = private
            .begin(&key, 11)
            .write_run(&private, trace, send, |t| {
                let cell = run_cell(&s, protocol, 11, t, profile);
                ran = Some((cell.result.clone(), cell.profile.clone()));
                cell
            });
        let streamed: Vec<Chunk> = rx.try_iter().chain([last]).collect();
        // The cell as the renderer sees it: its events as a run of its
        // own records them, its wall-clock profile the streamed run's.
        let (result, profile_report) = ran.unwrap();
        let cell = ServeCell {
            result,
            trace: compute_cell(&s, protocol, 11, trace, false).trace,
            profile: profile_report,
        };
        // And the one chunk each store's hit reads back.
        disk.put(&key, 11, &cell);
        let answers = [
            streamed,
            vec![private.get(&key).unwrap()],
            vec![disk.get(&key).unwrap()],
        ];
        for id in [0, 9, 10, 4_242, u64::MAX] {
            for cached in [false, true] {
                let want = joined(&run_response_lines(id, &cell, cached));
                let what = format!("{protocol:?} trace={trace} profile={profile} id={id}");
                for chunks in &answers {
                    assert_eq!(served(chunks, id, cached), want, "{what} cached={cached}");
                }
            }
        }
        if s.sim_slots > tiny().sim_slots {
            assert!(
                matches!(&answers[2][0], Chunk::File { range, .. } if range.end - range.start > CHUNK as u64),
                "the long cell's hit streams from its file"
            );
        }
    }
    assert_eq!(private.read_failures() + disk.read_failures(), 0);
    assert_eq!(private.write_failures() + disk.write_failures(), 0);
}

#[test]
fn cache_file_in_the_old_layout_starts_cold() {
    let path = tmp_cache("old-layout");
    let req = run_req(3, "bmw", 21);
    let protocol = ProtocolKind::parse(&req.protocol).unwrap();
    let key = cache_key(protocol, &req.scenario, req.seed, false, false);
    // Earlier builds stored each cell's JSON under a header that hashed
    // only the service name and the wire version.
    let write_old_layout = || {
        let mut h = Fnv1a::new();
        h.write_str("serve");
        h.write_u64(u64::from(PROTO_VERSION));
        let header = ManifestHeader {
            sweep: "serve-cache".into(),
            options_hash: hex(h.finish()),
            jobs: 0,
            version: MANIFEST_VERSION,
            schema: scenario_schema_hash(),
        };
        let cell = compute_cell(&req.scenario, protocol, req.seed, false, false);
        let json = format!(
            "{{\"result\":{},\"trace\":null,\"profile\":null}}",
            serde_json::to_string(&cell.result).unwrap()
        );
        Manifest::create(
            &path,
            &header,
            &[(JobId::new("serve", &key, req.seed), json)],
        )
        .unwrap();
    };

    write_old_layout();
    let cache = CacheStore::open(Some(&path), scenario_schema_hash()).unwrap();
    assert!(cache.is_empty(), "an old-layout file is discarded at open");
    assert!(cache.get(&key).is_none());
    assert_eq!(cache.read_failures(), 0, "discarded, never read");
    drop(cache);

    write_old_layout();
    let (server, addr) = start(Some(path.clone()));
    assert_eq!(submit_one(&addr, &req).unwrap(), local_lines(&req).unwrap());
    assert_eq!(metric(&addr, "rmm_serve_engine_runs_total"), 1);
    assert_eq!(metric(&addr, "rmm_serve_cache_hits_total"), 0);
    stop(server, &addr);
}

#[test]
fn flipped_entry_is_a_counted_miss_that_recomputes() {
    let path = tmp_cache("flipped");
    let (server, addr) = start(Some(path.clone()));
    let req = run_req(5, "lamm", 4);
    let cold = submit_one(&addr, &req).unwrap();
    assert_eq!(cold, local_lines(&req).unwrap());

    // Flip one byte inside the stored stream, in the entry's own file.
    let key = cache_key(ProtocolKind::Lamm, &req.scenario, req.seed, false, false);
    flip_started(&CacheStore::entry_path(&path, &key));

    let again = submit_one(&addr, &req).unwrap();
    assert_eq!(again, cold, "the miss recomputes the right bytes");
    assert_eq!(metric(&addr, "rmm_serve_cache_read_failures_total"), 1);
    assert_eq!(metric(&addr, "rmm_serve_cache_misses_total"), 2);
    assert_eq!(metric(&addr, "rmm_serve_engine_runs_total"), 2);
    // The recomputed entry serves the next request.
    let warm = submit_one(&addr, &req).unwrap();
    assert_eq!(
        warm.last().unwrap(),
        &cold
            .last()
            .unwrap()
            .replacen("\"cached\":false", "\"cached\":true", 1)
    );
    assert_eq!(metric(&addr, "rmm_serve_cache_hits_total"), 1);
    assert_eq!(metric(&addr, "rmm_serve_cache_read_failures_total"), 1);
    stop(server, &addr);
}

#[test]
fn damaged_entry_costs_only_itself_across_a_restart() {
    let path = tmp_cache("damaged");
    let reqs: Vec<RunRequest> = (0..4).map(|i| run_req(i, "bmmm", 30 + i)).collect();
    let (server, addr) = start(Some(path.clone()));
    let cold: Vec<Vec<String>> = reqs.iter().map(|r| submit_one(&addr, r).unwrap()).collect();
    stop(server, &addr);

    let first = &reqs[0];
    let key = cache_key(
        ProtocolKind::Bmmm,
        &first.scenario,
        first.seed,
        false,
        false,
    );
    flip_started(&CacheStore::entry_path(&path, &key));

    let (server, addr) = start(Some(path.clone()));
    for (i, (req, cold)) in reqs.iter().zip(&cold).enumerate() {
        assert_eq!(cold, &local_lines(req).unwrap());
        let mut want = cold.clone();
        if i > 0 {
            let result = want.last_mut().unwrap();
            *result = result.replacen("\"cached\":false", "\"cached\":true", 1);
        }
        assert_eq!(submit_one(&addr, req).unwrap(), want, "request {i}");
    }
    assert_eq!(metric(&addr, "rmm_serve_cache_hits_total"), 3);
    assert_eq!(metric(&addr, "rmm_serve_cache_read_failures_total"), 1);
    assert_eq!(metric(&addr, "rmm_serve_cache_misses_total"), 1);
    assert_eq!(metric(&addr, "rmm_serve_engine_runs_total"), 1);
    assert_eq!(metric(&addr, "rmm_serve_cache_entries"), 4);
    stop(server, &addr);
}

#[test]
fn failed_cache_write_is_counted_and_the_cell_stays_uncached() {
    let path = tmp_cache("write-failure");
    let (server, addr) = start(Some(path.clone()));
    let req = run_req(6, "bmw", 9);
    // A directory where the entry's file belongs: the rename fails.
    let key = cache_key(ProtocolKind::Bmw, &req.scenario, req.seed, false, false);
    std::fs::create_dir_all(CacheStore::entry_path(&path, &key)).unwrap();

    let want = local_lines(&req).unwrap();
    assert_eq!(submit_one(&addr, &req).unwrap(), want);
    assert_eq!(metric(&addr, "rmm_serve_cache_write_failures_total"), 1);
    assert_eq!(metric(&addr, "rmm_serve_cache_entries"), 0);
    assert_eq!(submit_one(&addr, &req).unwrap(), want, "a miss again");
    assert_eq!(metric(&addr, "rmm_serve_cache_misses_total"), 2);
    assert_eq!(metric(&addr, "rmm_serve_cache_hits_total"), 0);
    assert_eq!(metric(&addr, "rmm_serve_engine_runs_total"), 2);
    assert_eq!(metric(&addr, "rmm_serve_cache_read_failures_total"), 0);
    stop(server, &addr);
}

#[test]
fn hits_on_one_connection_answer_in_under_20ms() {
    let (server, addr) = start(Some(tmp_cache("latency")));
    // A Table 2 cell at 2 000 slots: an 18 KB answer, larger than one
    // buffered write.
    let req = RunRequest {
        id: 1,
        protocol: "bmmm".into(),
        scenario: Scenario {
            sim_slots: 2_000,
            n_runs: 1,
            ..Scenario::default()
        },
        seed: 5,
        trace: false,
        profile: false,
    };
    let cold = joined(&submit_one(&addr, &req).unwrap());
    let stream = TcpStream::connect(&addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let line = serde_json::to_string(&Request::Run(req)).unwrap() + "\n";
    let mut ms = Vec::new();
    let mut answer = Vec::new();
    for _ in 0..21 {
        answer.clear();
        let t0 = Instant::now();
        writer.write_all(line.as_bytes()).unwrap();
        loop {
            let start = answer.len();
            assert!(reader.read_until(b'\n', &mut answer).unwrap() > 0);
            if answer[start..].starts_with(b"{\"Result\"") {
                break;
            }
        }
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let cached =
        String::from_utf8(cold)
            .unwrap()
            .replacen("\"cached\":false", "\"cached\":true", 1);
    assert_eq!(answer, cached.into_bytes());
    ms.sort_by(f64::total_cmp);
    assert!(ms[10] < 20.0, "median hit {:.2} ms of {ms:?}", ms[10]);
    assert_eq!(metric(&addr, "rmm_serve_cache_hits_total"), 21);
    drop((writer, reader));
    stop(server, &addr);
}

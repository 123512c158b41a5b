//! The served workload: an in-process `rmm_serve::Server` (the code
//! `rmm serve` runs) with a disk cache, driven over loopback TCP by two
//! closed-loop client connections.

use crate::probe::{self, Cells};
use crate::{derive_seed, lines_digest, median, peak_rss_mb, Args, Outcome, Recorder, SpanId};
use rmm_mac::ProtocolKind;
use rmm_serve::{local_lines, parse_metric, Request, RunRequest, ServeConfig, Server};
use rmm_workload::Scenario;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Client connections (closed loop: one request in flight on each).
const CONNS: usize = 2;
/// Server engine workers.
const WORKERS: usize = 2;
/// How many times set-up is repeated; `setup_s` is their median.
const SETUP_REPS: u64 = 12;
/// Seeds in the warmed working set, each run under every protocol.
const WARM_SEEDS: u64 = 8;
/// One connection's repeating schedule: 7 hits, 2 misses, 1 traced miss.
const CYCLE: [Class; 10] = [
    Class::Hit,
    Class::Hit,
    Class::Hit,
    Class::Miss,
    Class::Hit,
    Class::Hit,
    Class::Hit,
    Class::Miss,
    Class::Hit,
    Class::Traced,
];
/// Schedule cycles per connection per second of `--seconds`. The served
/// cache grows with every miss, so the window runs a fixed number of
/// cycles instead of a fixed time: peak memory then compares like for
/// like between commits. Sized so a window takes about `--seconds` on
/// the reference host (2 shared cores).
const CYCLES_PER_SECOND: f64 = 1.5;
/// Traced responses checked byte for byte against the local oracle.
const TRACED_CHECKED: usize = 8;

/// Request class of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A cell of the warmed working set.
    Hit,
    /// A fresh-seed cell.
    Miss,
    /// A fresh-seed BMMM cell with its event trace streamed back.
    Traced,
}

impl Class {
    const ALL: [Class; 3] = [Class::Hit, Class::Miss, Class::Traced];

    fn name(self) -> &'static str {
        match self {
            Class::Hit => "hit",
            Class::Miss => "miss",
            Class::Traced => "traced",
        }
    }
}

/// What the served requests of a run looked like to the client and to
/// the server's counters.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Client-observed p50 latency per class (hit, miss, traced), ms.
    pub p50_ms: [f64; 3],
    /// Answered requests per class.
    pub n: [usize; 3],
    /// Median response size of a hit, bytes.
    pub hit_bytes: f64,
    /// Median response size of a traced miss, bytes.
    pub traced_bytes: f64,
    /// Server cache hits / lookups.
    pub hit_frac: f64,
    /// Engine runs the server performed.
    pub engine_runs: f64,
}

/// The scenario of every served cell: Table 2 at 2 000 slots.
fn scenario() -> Scenario {
    Scenario {
        sim_slots: 2_000,
        n_runs: 1,
        ..Scenario::default()
    }
}

fn request(
    id: u64,
    protocol: ProtocolKind,
    scenario: &Scenario,
    seed: u64,
    trace: bool,
) -> RunRequest {
    RunRequest {
        id,
        protocol: protocol.name().to_string(),
        scenario: scenario.clone(),
        seed,
        trace,
        profile: false,
    }
}

/// A request line, newline included, ready for one `write_all`.
fn encode(req: &RunRequest) -> Vec<u8> {
    let mut text = serde_json::to_string(&Request::Run(req.clone())).expect("request serializes");
    text.push('\n');
    text.into_bytes()
}

/// The exact bytes a server streams for `lines`.
fn joined(lines: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    for l in lines {
        out.extend_from_slice(l.as_bytes());
        out.push(b'\n');
    }
    out
}

/// A cold response turned into its cache-hit twin: the terminal line's
/// `cached` flag flipped, every other byte kept.
fn flip_cached(cold: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(cold).expect("responses are UTF-8");
    let body = text.strip_suffix('\n').unwrap_or(text);
    let last = body.rfind('\n').map_or(0, |i| i + 1);
    let mut out = text[..last].to_string();
    out.push_str(&text[last..].replacen("\"cached\":false", "\"cached\":true", 1));
    out.into_bytes()
}

fn is_terminal(line: &[u8]) -> bool {
    line.starts_with(b"{\"Result\"") || line.starts_with(b"{\"Error\"")
}

/// The request id a response line carries.
fn line_id(line: &[u8]) -> Option<u64> {
    let at = line.windows(5).position(|w| w == b"\"id\":")? + 5;
    let digits = line[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&line[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// One loopback connection with `TCP_NODELAY`, so the latency floor it
/// measures belongs to the server and not to the client.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            stream,
        })
    }

    /// Reads one line, newline included, appending it to `buf`.
    fn read_line(&mut self, buf: &mut Vec<u8>) -> std::io::Result<()> {
        if self.reader.read_until(b'\n', buf)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(())
    }

    /// Sends one request and reads its response stream into `buf`,
    /// through the terminal line.
    fn call(&mut self, text: &[u8], buf: &mut Vec<u8>) -> std::io::Result<()> {
        self.stream.write_all(text)?;
        buf.clear();
        loop {
            let start = buf.len();
            self.read_line(buf)?;
            if is_terminal(&buf[start..]) {
                return Ok(());
            }
        }
    }
}

/// Sends `reqs` pipelined on one connection and returns each request's
/// response bytes, in request order.
fn pipelined(addr: SocketAddr, reqs: &[RunRequest]) -> std::io::Result<Vec<Vec<u8>>> {
    let mut client = Client::connect(addr)?;
    let text: Vec<u8> = reqs.iter().flat_map(encode).collect();
    client.stream.write_all(&text)?;
    let mut by_id: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut done = 0;
    while done < reqs.len() {
        let mut line = Vec::new();
        client.read_line(&mut line)?;
        done += usize::from(is_terminal(&line));
        let id = line_id(&line).ok_or_else(|| std::io::Error::other("unaddressed response"))?;
        by_id.entry(id).or_default().extend_from_slice(&line);
    }
    Ok(reqs
        .iter()
        .map(|r| by_id.remove(&r.id).unwrap_or_default())
        .collect())
}

/// A warmed cell: its request and the cold response that cached it.
struct WarmCell {
    req: RunRequest,
    cold: Vec<u8>,
}

/// Warms the working set: every protocol on each of the fresh seeds,
/// split across the connections and pipelined on each.
fn warm(addr: SocketAddr, seed: u64, rep: u64) -> std::io::Result<Vec<WarmCell>> {
    let scenario = scenario();
    let reqs: Vec<RunRequest> = (0..WARM_SEEDS)
        .flat_map(|k| {
            let s = derive_seed(seed, "warm", rep * WARM_SEEDS + k);
            let scenario = &scenario;
            ProtocolKind::EVERY.iter().map(move |&p| (p, s, scenario))
        })
        .enumerate()
        .map(|(id, (p, s, scenario))| request(id as u64, p, scenario, s, false))
        .collect();
    let shares: Vec<Vec<RunRequest>> = (0..CONNS)
        .map(|c| reqs.iter().skip(c).step_by(CONNS).cloned().collect())
        .collect();
    let responses = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .iter()
            .map(|share| scope.spawn(move || pipelined(addr, share)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })?;
    let mut cold: Vec<Vec<u8>> = vec![Vec::new(); reqs.len()];
    for (c, share) in responses.into_iter().enumerate() {
        for (k, bytes) in share.into_iter().enumerate() {
            cold[c + k * CONNS] = bytes;
        }
    }
    Ok(reqs
        .iter()
        .zip(cold)
        .map(|(req, cold)| WarmCell {
            req: req.clone(),
            cold,
        })
        .collect())
}

/// One request of a connection's plan.
struct Planned {
    class: Class,
    req: RunRequest,
    text: Vec<u8>,
    /// The bytes a hit must return.
    expect: Option<Vec<u8>>,
    /// Keep the response for the oracle check after the window.
    keep: bool,
}

/// One finished request.
struct Done {
    class: Class,
    latency_ms: f64,
    bytes: usize,
    /// The server answered with an `Error` line, or the connection broke.
    failed: bool,
    /// A hit that was not byte-identical to its cold response.
    mismatch: bool,
    kept: Option<Vec<u8>>,
}

/// Runs `plan` in a closed loop on one connection: each request is
/// written once and timed to its terminal line.
fn drive(addr: SocketAddr, plan: &[Planned], rec: &Recorder, lane: SpanId) -> Vec<Done> {
    let mut done = Vec::with_capacity(plan.len());
    let mut client = Client::connect(addr).ok();
    let mut buf = Vec::new();
    for p in plan {
        let span = rec.open(&format!("ladder.request.{}", p.class.name()), lane);
        let t0 = Instant::now();
        let answered = client
            .as_mut()
            .is_some_and(|c| c.call(&p.text, &mut buf).is_ok());
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        rec.close(span);
        if !answered {
            // The stream's position is unknown after an error: every
            // later request on this connection fails too.
            client = None;
            buf.clear();
        }
        let error_line = buf
            .rsplit(|&b| b == b'\n')
            .nth(1)
            .is_some_and(|l| l.starts_with(b"{\"Error\""));
        let failed = !answered || error_line;
        done.push(Done {
            class: p.class,
            latency_ms,
            bytes: buf.len(),
            failed,
            mismatch: !failed && p.expect.as_ref().is_some_and(|e| *e != buf),
            kept: (p.keep && !failed).then(|| buf.clone()),
        });
    }
    done
}

fn server_config(cache: &Path) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        max_conns: 8,
        cache_path: Some(cache.to_path_buf()),
        ..ServeConfig::default()
    }
}

fn stop(server: Server) {
    server.begin_shutdown();
    server.join();
}

/// Server counter deltas: (cache hits, cache misses, engine runs).
fn counters(server: &Server) -> [u64; 3] {
    let text = server.metrics_text();
    [
        "rmm_serve_cache_hits_total",
        "rmm_serve_cache_misses_total",
        "rmm_serve_engine_runs_total",
    ]
    .map(|name| parse_metric(&text, name).unwrap_or(0))
}

/// Summarizes finished requests and the server's counter deltas.
fn stats(done: &[&Done], before: [u64; 3], after: [u64; 3]) -> ServeStats {
    let class = |c: Class| done.iter().filter(move |d| d.class == c && !d.failed);
    // Median of `f` over the answered requests of class `c`.
    let med = |c: Class, f: fn(&Done) -> f64| {
        let xs: Vec<f64> = class(c).map(|d| f(d)).collect();
        if xs.is_empty() {
            f64::NAN
        } else {
            median(&xs)
        }
    };
    let [hits, misses, runs] = [0, 1, 2].map(|i| (after[i] - before[i]) as f64);
    ServeStats {
        p50_ms: Class::ALL.map(|c| med(c, |d| d.latency_ms)),
        n: Class::ALL.map(|c| class(c).count()),
        hit_bytes: med(Class::Hit, |d| d.bytes as f64),
        traced_bytes: med(Class::Traced, |d| d.bytes as f64),
        hit_frac: hits / (hits + misses).max(1.0),
        engine_runs: runs,
    }
}

/// Runs the `serve_mixed` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let io = |e: std::io::Error| format!("serve_mixed: {e}");

    // Set-up: start the server and warm the working set.
    let mut setup_s = Vec::new();
    let mut live = None;
    let reps = crate::setup_reps(SETUP_REPS, args);
    for rep in 0..reps {
        let dir = args.tmp.join(format!("serve-{rep}"));
        let t0 = Instant::now();
        let server = Server::start(server_config(&dir.join("cache.jsonl"))).map_err(io)?;
        // The last set-up stays live and warms seed set 0, so the
        // working set does not depend on how many set-ups there are.
        let set = warm(server.addr(), args.seed, reps - 1 - rep).map_err(io)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps {
            stop(server);
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            live = Some((server, set));
        }
    }
    let (server, set) = live.expect("at least one set-up");
    let cold: Vec<&[u8]> = set.iter().map(|c| c.cold.as_slice()).collect();
    crate::digest_gate("serve_mixed", args.seed, &lines_digest(&cold), &mut out);

    // Plans: hits walk the working set, misses walk the protocols, each
    // miss on a fresh seed.
    let scenario = scenario();
    let cycles = ((args.seconds * CYCLES_PER_SECOND).round() as usize).max(1);
    let plans: Vec<Vec<Planned>> = (0..CONNS)
        .map(|c| {
            let (mut hits, mut misses, mut traced) = (c, c, 0);
            let mut plan = Vec::new();
            for i in 0..cycles {
                for (k, class) in CYCLE.iter().enumerate() {
                    let id = 1_000_000 * (c as u64 + 1) + (i * CYCLE.len() + k) as u64;
                    let planned = match class {
                        Class::Hit => {
                            let cell = &set[hits % set.len()];
                            hits += CONNS;
                            Planned {
                                class: Class::Hit,
                                text: encode(&cell.req),
                                req: cell.req.clone(),
                                expect: Some(flip_cached(&cell.cold)),
                                keep: false,
                            }
                        }
                        Class::Miss => {
                            let p = ProtocolKind::EVERY[misses % ProtocolKind::EVERY.len()];
                            misses += CONNS;
                            let req = request(
                                id,
                                p,
                                &scenario,
                                derive_seed(args.seed, "miss", id),
                                false,
                            );
                            Planned {
                                class: Class::Miss,
                                text: encode(&req),
                                req,
                                expect: None,
                                keep: true,
                            }
                        }
                        Class::Traced => {
                            traced += 1;
                            let req = request(
                                id,
                                ProtocolKind::Bmmm,
                                &scenario,
                                derive_seed(args.seed, "traced", id),
                                true,
                            );
                            let keep = traced <= TRACED_CHECKED / CONNS;
                            Planned {
                                class: Class::Traced,
                                text: encode(&req),
                                req,
                                expect: None,
                                keep,
                            }
                        }
                    };
                    plan.push(planned);
                }
            }
            plan
        })
        .collect();

    let rec = Recorder::new(args.traced);
    let before = counters(&server);
    let window = rec.open("ladder.window", None);
    let t0 = Instant::now();
    let done: Vec<Vec<Done>> = std::thread::scope(|scope| {
        let handles: Vec<_> = plans
            .iter()
            .map(|plan| {
                let rec = &rec;
                let addr = server.addr();
                scope.spawn(move || {
                    let lane = rec.open("ladder.client", window);
                    let done = drive(addr, plan, rec, lane);
                    rec.close(lane);
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client panicked"))
            .collect()
    });
    let window_s = t0.elapsed().as_secs_f64();
    rec.close(window);
    let after = counters(&server);
    let rss = peak_rss_mb();
    stop(server);

    // Correctness, outside the window.
    let all: Vec<&Done> = done.iter().flatten().collect();
    out.attempted = all.len() as u64;
    out.failed = all.iter().filter(|d| d.failed).count() as u64;
    let mismatched = all.iter().filter(|d| d.mismatch).count();
    if mismatched > 0 {
        out.fail(format!(
            "{mismatched} cache hits differ from the response that cached them"
        ));
    }
    for (plan, done) in plans.iter().flatten().zip(done.iter().flatten()) {
        if let Some(got) = &done.kept {
            let want = joined(&local_lines(&plan.req).expect("protocol parses"));
            if *got != want {
                out.fail(format!(
                    "served {} id {} differs from local_lines",
                    plan.class.name(),
                    plan.req.id
                ));
            }
        }
    }
    // Every hit request must hit and every miss must run the engine
    // once, so the hit fraction is the schedule's 0.7.
    let hits = all.iter().filter(|d| d.class == Class::Hit).count() as u64;
    let [cache_hits, _, runs] = [0, 1, 2].map(|i| after[i] - before[i]);
    if cache_hits != hits || runs != all.len() as u64 - hits {
        out.fail(format!(
            "server counted {cache_hits} cache hits and {runs} engine runs \
             for {hits} hit and {} miss requests",
            all.len() as u64 - hits
        ));
    }
    let summary = stats(&all, before, after);

    out.details.insert("window_s", serde_json::json!(window_s));
    out.details
        .insert("cycles_per_conn", serde_json::json!(cycles));
    let latencies: Vec<f64> = all
        .iter()
        .filter(|d| !d.failed)
        .map(|d| d.latency_ms)
        .collect();
    if !args.traced {
        out.metric("setup_s", median(&setup_s), "s", setup_s.len());
        out.details.insert("setup_s", serde_json::json!(setup_s));
        out.metric(
            "throughput_per_s",
            all.len() as f64 / window_s,
            "1/s",
            all.len(),
        );
        out.metric("latency_ms_p50", median(&latencies), "ms", latencies.len());
        out.metric("peak_rss_mb", rss, "MB", 1);
        out.note_tail("latency_ms", &latencies, "ms");
        for class in Class::ALL {
            let xs: Vec<f64> = all
                .iter()
                .filter(|d| d.class == class && !d.failed)
                .map(|d| d.latency_ms)
                .collect();
            out.notes.push(crate::Metric::new(
                format!("{}_ms_p50", class.name()),
                median(&xs),
                "ms",
                xs.len(),
            ));
            out.note_tail(&format!("{}_ms", class.name()), &xs, "ms");
        }
        return Ok(out);
    }

    let spans = rec.spans();
    let answered = summary.n;
    let cells = Cells {
        scenario,
        protocols: &ProtocolKind::EVERY,
    };
    probe::per_layer(&cells, args, &spans, Vec::new(), Some(summary), &mut out)?;
    // The client threads call no crate: the server does the work. Layer
    // time is what the answered requests cost in process, by class, from
    // the probes above; the rest of the client lanes is transport and
    // waiting.
    let cost = |name: &str| {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let class_ms = [
        cost("serve.cache_get_ms") + cost("serve.render_ms"),
        cost("serve.compute_cell_ms") + cost("serve.cache_put_ms") + cost("serve.render_ms"),
        cost("serve.compute_cell_ms.traced")
            + cost("serve.cache_put_ms.traced")
            + cost("serve.render_ms.traced"),
    ];
    let layered_ms: f64 = class_ms
        .iter()
        .zip(answered)
        .map(|(ms, n)| ms * n as f64)
        .sum();
    out.metric(
        "ladder.unexplained_frac",
        1.0 - layered_ms / (window_s * 1e3 * CONNS as f64),
        "frac",
        answered.iter().sum(),
    );
    out.spans = spans;
    Ok(out)
}

/// A short served exchange on `cells`, for workloads that serve nothing
/// themselves: a miss on the first protocol, the same request again as
/// a hit, and a traced BMMM miss.
pub fn probe_exchange(cells: &Cells, seed: u64, tmp: &Path) -> Result<ServeStats, String> {
    let io = |e: std::io::Error| format!("serve probe: {e}");
    let server =
        Server::start(server_config(&tmp.join("probe-serve").join("cache.jsonl"))).map_err(io)?;
    let miss = request(
        0,
        cells.protocols[0],
        &cells.scenario,
        derive_seed(seed, "probe-miss", 0),
        false,
    );
    let traced = request(
        1,
        ProtocolKind::Bmmm,
        &cells.scenario,
        derive_seed(seed, "probe-traced", 0),
        true,
    );
    let plan: Vec<Planned> = [
        (Class::Miss, &miss),
        (Class::Hit, &miss),
        (Class::Traced, &traced),
    ]
    .into_iter()
    .map(|(class, req)| Planned {
        class,
        text: encode(req),
        req: req.clone(),
        expect: None,
        keep: false,
    })
    .collect();
    let before = counters(&server);
    let done = drive(server.addr(), &plan, &Recorder::new(false), None);
    let after = counters(&server);
    stop(server);
    if let Some(d) = done.iter().find(|d| d.failed) {
        return Err(format!("serve probe: a {} request failed", d.class.name()));
    }
    Ok(stats(&done.iter().collect::<Vec<_>>(), before, after))
}

//! Client helpers: single-request submission, the serial local oracle,
//! metrics scraping, and the concurrent soak driver the CI gate runs.
//!
//! The soak driver is deliberately adversarial: many connections, each
//! pipelining many requests without waiting, all eight protocols
//! interleaved, a slice of them traced — and every response byte-diffed
//! against [`local_lines`], the same cell computed serially in-process.
//! Bit-determinism plus canonical results make that a strict equality
//! check, not a tolerance check.

use crate::proto::{compute_cell, run_response_lines, Request, Response, RunRequest};
use rmm_mac::ProtocolKind;
use rmm_workload::Scenario;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Generous per-read safety net so a wedged server fails a test run
/// instead of hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(300);

fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// The correlation id a response line belongs to, if any.
fn response_id(response: &Response) -> Option<u64> {
    match response {
        Response::Started { id }
        | Response::Event { id, .. }
        | Response::Profile { id, .. }
        | Response::Result { id, .. } => Some(*id),
        Response::Error { id, .. } => *id,
        _ => None,
    }
}

/// Whether this line ends its request's response stream.
fn is_terminal(response: &Response) -> bool {
    matches!(response, Response::Result { .. } | Response::Error { .. })
}

/// Sends one run request on a fresh connection and collects its full
/// response-line stream (`Started` … terminal line), verbatim.
pub fn submit_one(addr: impl ToSocketAddrs, req: &RunRequest) -> std::io::Result<Vec<String>> {
    let mut lines = Vec::new();
    submit_each(addr, req, |line| {
        lines.push(line.to_string());
        Ok(())
    })?;
    Ok(lines)
}

/// Sends one run request on a fresh connection and hands each response
/// line to `each`, verbatim and without its newline, as it arrives,
/// through the terminal line.
pub fn submit_each(
    addr: impl ToSocketAddrs,
    req: &RunRequest,
    mut each: impl FnMut(&str) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut stream = connect(addr)?;
    writeln!(
        stream,
        "{}",
        serde_json::to_string(&Request::Run(req.clone())).expect("request serializes")
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("server closed before terminal line"));
        }
        let text = line.trim_end_matches('\n');
        let response: Response = serde_json::from_str(text)
            .map_err(|e| std::io::Error::other(format!("bad response line: {e}")))?;
        each(text)?;
        if is_terminal(&response) {
            return Ok(());
        }
    }
}

/// The serial oracle: computes the same cell in-process and renders the
/// exact line sequence a cold server would stream for it. `None` if the
/// protocol name does not parse.
pub fn local_lines(req: &RunRequest) -> Option<Vec<String>> {
    let protocol = ProtocolKind::parse(&req.protocol)?;
    let cell = compute_cell(&req.scenario, protocol, req.seed, req.trace, req.profile);
    Some(run_response_lines(req.id, &cell, false))
}

/// Fetches the Prometheus metrics snapshot over the JSONL protocol.
pub fn fetch_metrics(addr: impl ToSocketAddrs) -> std::io::Result<String> {
    let mut stream = connect(addr)?;
    writeln!(
        stream,
        "{}",
        serde_json::to_string(&Request::Metrics).expect("request serializes")
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    match serde_json::from_str::<Response>(line.trim()) {
        Ok(Response::Metrics { text }) => Ok(text),
        other => Err(std::io::Error::other(format!(
            "expected a Metrics response, got {other:?}"
        ))),
    }
}

/// Reads one counter out of a Prometheus text snapshot. The `name` is
/// matched exactly (e.g. `rmm_serve_engine_runs_total`).
pub fn parse_metric(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| match l.split_once(' ') {
            Some((n, v)) if n == name => v.trim().parse().ok(),
            _ => None,
        })
}

/// Asks the server to drain and waits for the `Draining` ack. Any
/// other reply — notably the capacity `Error` a full server sends
/// before the connection even reaches the request handler — is an
/// error, so callers can retry instead of mistaking it for the ack.
pub fn request_shutdown(addr: impl ToSocketAddrs) -> std::io::Result<()> {
    let mut stream = connect(addr)?;
    writeln!(
        stream,
        "{}",
        serde_json::to_string(&Request::Shutdown).expect("request serializes")
    )?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    match serde_json::from_str::<Response>(line.trim()) {
        Ok(Response::Draining) => Ok(()),
        other => Err(std::io::Error::other(format!(
            "expected a Draining ack, got {other:?}"
        ))),
    }
}

/// Shape of one soak campaign.
#[derive(Debug, Clone)]
pub struct SoakSpec {
    /// Total run requests, spread over every protocol in
    /// [`ProtocolKind::EVERY`] round-robin with distinct seeds.
    pub requests: usize,
    /// Concurrent connections; each pipelines its share of the
    /// requests without waiting for responses.
    pub conns: usize,
    /// Scenario every request uses (seeds differ, so cells differ).
    pub scenario: Scenario,
    /// First seed; request `i` uses `seed_base + i`.
    pub seed_base: u64,
    /// Request a trace on every n-th request (0 = never).
    pub trace_every: usize,
    /// Require every response to come from the cache and the engine-run
    /// counter to stay flat (the warm-sweep gate).
    pub expect_cached: bool,
}

/// What a soak campaign observed.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Requests submitted and byte-verified.
    pub requests: usize,
    /// How many terminal lines were `cached: true`.
    pub cached: usize,
    /// Engine runs the server performed during the campaign (from the
    /// metrics counter).
    pub engine_runs: u64,
    /// Cache hits the server counted during the campaign.
    pub cache_hits: u64,
}

fn soak_request(spec: &SoakSpec, i: usize) -> RunRequest {
    RunRequest {
        id: i as u64,
        protocol: ProtocolKind::EVERY[i % ProtocolKind::EVERY.len()]
            .name()
            .to_string(),
        scenario: spec.scenario.clone(),
        seed: spec.seed_base + i as u64,
        trace: spec.trace_every != 0 && i.is_multiple_of(spec.trace_every),
        profile: false,
    }
}

/// Runs one soak campaign against `addr` and byte-verifies every
/// response stream against the serial in-process oracle. Any
/// divergence — missing line, reordered line within an id, a single
/// differing byte — is an `Err` describing the first mismatch.
pub fn soak(addr: &str, spec: &SoakSpec) -> Result<SoakReport, String> {
    assert!(spec.conns > 0, "soak needs at least one connection");
    let before = fetch_metrics(addr).map_err(|e| format!("metrics before soak: {e}"))?;

    // Serial oracle first: the expected line stream per request id.
    let mut expected: HashMap<u64, Vec<String>> = HashMap::with_capacity(spec.requests);
    for i in 0..spec.requests {
        let req = soak_request(spec, i);
        let lines = local_lines(&req).expect("soak protocols all parse");
        expected.insert(req.id, lines);
    }

    // Fire the campaign: `conns` threads, each pipelining its slice.
    let mut collected: HashMap<u64, Vec<String>> = HashMap::with_capacity(spec.requests);
    let mut workers = Vec::with_capacity(spec.conns);
    for c in 0..spec.conns {
        let ids: Vec<usize> = (c..spec.requests).step_by(spec.conns).collect();
        if ids.is_empty() {
            continue;
        }
        let spec = spec.clone();
        let addr = addr.to_string();
        workers.push(std::thread::spawn(
            move || -> Result<HashMap<u64, Vec<String>>, String> {
                let stream = connect(&addr).map_err(|e| format!("conn {c}: {e}"))?;
                let write_half = stream.try_clone().map_err(|e| format!("conn {c}: {e}"))?;
                let reqs: Vec<RunRequest> = ids.iter().map(|&i| soak_request(&spec, i)).collect();
                let pending = reqs.len();
                let writer = std::thread::spawn(move || -> std::io::Result<()> {
                    let mut out = std::io::BufWriter::new(write_half);
                    for req in &reqs {
                        writeln!(
                            out,
                            "{}",
                            serde_json::to_string(&Request::Run(req.clone()))
                                .expect("request serializes")
                        )?;
                    }
                    out.flush()
                });
                let mut got: HashMap<u64, Vec<String>> = HashMap::with_capacity(pending);
                let mut done = 0usize;
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                while done < pending {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) => return Err(format!("conn {c}: server closed early")),
                        Ok(_) => {}
                        Err(e) => return Err(format!("conn {c}: read: {e}")),
                    }
                    let text = line.trim_end_matches('\n').to_string();
                    let response: Response = serde_json::from_str(&text)
                        .map_err(|e| format!("conn {c}: bad response line: {e}"))?;
                    let Some(id) = response_id(&response) else {
                        return Err(format!("conn {c}: unaddressed response: {text}"));
                    };
                    if is_terminal(&response) {
                        done += 1;
                    }
                    got.entry(id).or_default().push(text);
                }
                writer
                    .join()
                    .map_err(|_| format!("conn {c}: writer panicked"))?
                    .map_err(|e| format!("conn {c}: write: {e}"))?;
                Ok(got)
            },
        ));
    }
    for worker in workers {
        let got = worker
            .join()
            .map_err(|_| "soak worker panicked".to_string())??;
        collected.extend(got);
    }

    // Byte-verify: every stream must match the oracle exactly, except
    // that the terminal line may be the `cached: true` twin.
    let mut cached = 0usize;
    for (id, want) in &expected {
        let got = collected
            .get(id)
            .ok_or_else(|| format!("request {id}: no response stream"))?;
        if got.len() != want.len() {
            return Err(format!(
                "request {id}: got {} lines, expected {}",
                got.len(),
                want.len()
            ));
        }
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            if g == w {
                continue;
            }
            // The final line may legitimately be the cached replay.
            if k == want.len() - 1 && *g == w.replacen("\"cached\":false", "\"cached\":true", 1) {
                cached += 1;
                continue;
            }
            return Err(format!(
                "request {id}, line {k}: byte mismatch\n  got:  {g}\n  want: {w}"
            ));
        }
    }
    if spec.expect_cached && cached != spec.requests {
        return Err(format!(
            "expected all {} responses cached, only {cached} were",
            spec.requests
        ));
    }

    let after = fetch_metrics(addr).map_err(|e| format!("metrics after soak: {e}"))?;
    let delta = |name: &str| {
        parse_metric(&after, name).unwrap_or(0) - parse_metric(&before, name).unwrap_or(0)
    };
    let engine_runs = delta("rmm_serve_engine_runs_total");
    if spec.expect_cached && engine_runs != 0 {
        return Err(format!(
            "expected a fully-cached sweep but the engine ran {engine_runs} times"
        ));
    }
    Ok(SoakReport {
        requests: spec.requests,
        cached,
        engine_runs,
        cache_hits: delta("rmm_serve_cache_hits_total"),
    })
}

/// Renders a soak report for the CLI / CI log.
pub fn render_soak(report: &SoakReport) -> String {
    format!(
        "soak ok: {} requests byte-identical to the serial oracle ({} cached, {} engine runs, {} cache hits)",
        report.requests, report.cached, report.engine_runs, report.cache_hits
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_metric_reads_counters() {
        let text = "# TYPE rmm_serve_requests_total counter\nrmm_serve_requests_total 41\nrmm_serve_workers 2\n";
        assert_eq!(parse_metric(text, "rmm_serve_requests_total"), Some(41));
        assert_eq!(parse_metric(text, "rmm_serve_workers"), Some(2));
        assert_eq!(parse_metric(text, "rmm_serve_missing"), None);
    }

    #[test]
    fn oracle_rejects_unknown_protocols() {
        let req = RunRequest {
            id: 0,
            protocol: "carrier-pigeon".into(),
            scenario: Scenario::default(),
            seed: 0,
            trace: false,
            profile: false,
        };
        assert!(local_lines(&req).is_none());
    }

    #[test]
    fn soak_requests_cover_every_protocol() {
        let spec = SoakSpec {
            requests: 16,
            conns: 4,
            scenario: Scenario::default(),
            seed_base: 100,
            trace_every: 5,
            expect_cached: false,
        };
        let names: std::collections::HashSet<String> =
            (0..16).map(|i| soak_request(&spec, i).protocol).collect();
        assert_eq!(names.len(), ProtocolKind::EVERY.len());
        let traced = (0..16).filter(|&i| soak_request(&spec, i).trace).count();
        assert_eq!(traced, 4, "every 5th of 16 requests is traced");
        // Distinct seeds => distinct cells even with one scenario.
        let seeds: std::collections::HashSet<u64> =
            (0..16).map(|i| soak_request(&spec, i).seed).collect();
        assert_eq!(seeds.len(), 16);
    }
}

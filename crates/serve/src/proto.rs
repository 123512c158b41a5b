//! The wire protocol: JSON Lines over TCP, one request or response
//! object per line.
//!
//! Requests and responses are externally-tagged serde enums, so a run
//! request looks like
//!
//! ```text
//! {"Run":{"id":1,"protocol":"bmmm","scenario":{...},"seed":7,"trace":true,"profile":false}}
//! ```
//!
//! and the server answers with a `Started` line, the streamed
//! `Event`/`Profile` lines the request asked for, and a final `Result`
//! (or `Error`) line carrying the same `id`. Responses to different
//! in-flight requests on one connection may interleave; the lines for
//! one `id` always arrive in order. Everything in a `Result` is
//! **canonical** (wall-clock provenance zeroed, see
//! [`canonical_result`]), which is what makes a served response
//! byte-identical to a local serial run of the same cell — and lets the
//! cache replay it verbatim.
//!
//! Every response line starts `{"<Variant>":{"id":`, and a `Result`
//! line goes on with `,"cached":`. The cache relies on exactly that: a
//! cell's stream is rendered once, for the placeholder id 0, and each
//! answer puts its own id and cached flag in place as it is written.

use rmm_mac::ProtocolKind;
use rmm_sim::{Trace, TraceEvent};
use rmm_stats::ProfileReport;
use rmm_workload::observe::PhaseTimings;
use rmm_workload::{run, run_traced, Probes, RunResult, RunSpec, Scenario};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

/// Wire-protocol version, folded into the cache header so a protocol
/// change can never replay cells written under another framing.
pub const PROTO_VERSION: u32 = 1;

/// One simulation cell to run (or fetch from cache).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunRequest {
    /// Client-chosen correlation id echoed on every response line.
    pub id: u64,
    /// Protocol name (display name or CLI alias, case-insensitive).
    pub protocol: String,
    /// Full scenario for the run.
    pub scenario: Scenario,
    /// Seed of the run (a request is always a single cell; use many
    /// requests for a sweep).
    pub seed: u64,
    /// Stream the run's `TraceEvent` log back as `Event` lines.
    pub trace: bool,
    /// Attach the engine's phase-timer attribution report. Profile
    /// timings are wall-clock and therefore *not* byte-reproducible; a
    /// cached cell replays the timings of the run that produced it.
    pub profile: bool,
}

/// A client request line.
///
/// One short-lived value per parsed line; the `Run` payload dwarfing
/// the flag-only variants costs nothing here.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Run (or serve from cache) one simulation cell.
    Run(RunRequest),
    /// Fetch the Prometheus metrics snapshot.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Begin a graceful drain: stop accepting connections and reading
    /// requests, answer every request already read (in-flight work
    /// finishes and stores its cache entry), close every connection,
    /// exit. A client that keeps its socket open reads EOF after its
    /// answers.
    Shutdown,
}

/// A server response line.
///
/// Transient per-line values; `Result`'s payload dominating the
/// stream-control variants is expected and harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// The run request was accepted (cache hit or scheduled).
    Started {
        /// Correlation id from the request.
        id: u64,
    },
    /// One streamed trace event of a `trace: true` run.
    Event {
        /// Correlation id from the request.
        id: u64,
        /// The protocol event.
        event: TraceEvent,
    },
    /// The engine phase-timer report of a `profile: true` run.
    Profile {
        /// Correlation id from the request.
        id: u64,
        /// Attribution report (wall-clock; not byte-reproducible).
        profile: ProfileReport,
    },
    /// Terminal success line of a run request.
    Result {
        /// Correlation id from the request.
        id: u64,
        /// Whether the cell came from the result cache without touching
        /// the engine.
        cached: bool,
        /// The canonical run result (wall-clock provenance zeroed).
        result: RunResult,
    },
    /// Prometheus text exposition, answering `Metrics`.
    Metrics {
        /// The rendered snapshot.
        text: String,
    },
    /// Liveness reply, answering `Ping`.
    Pong {
        /// Server wire-protocol version.
        version: u32,
    },
    /// Acknowledges `Shutdown`; the server stops accepting work.
    Draining,
    /// Terminal failure line (`id` absent for connection-level errors).
    Error {
        /// Correlation id, when the error belongs to one request.
        id: Option<u64>,
        /// What went wrong.
        message: String,
    },
}

/// Everything one completed cell produced: the canonical result plus
/// the optional trace/profile attachments. The cache stores its
/// response stream ([`CacheStore::put`](crate::CacheStore::put)).
#[derive(Debug)]
pub struct ServeCell {
    /// Canonical run result.
    pub result: RunResult,
    /// Event log, when the producing request asked for a trace.
    pub trace: Option<Trace>,
    /// Phase-timer report, when the producing request asked for one.
    pub profile: Option<ProfileReport>,
}

/// Zeroes the wall-clock provenance — the only scheduling-dependent
/// bytes in a [`RunResult`] — so served, cached, and locally computed
/// results compare byte-for-byte.
pub fn canonical_result(mut result: RunResult) -> RunResult {
    result.manifest.wall_clock = PhaseTimings::default();
    result
}

/// Executes one cell with exactly the probes the request's flags
/// select, canonicalizing the result.
pub fn compute_cell(
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed: u64,
    trace: bool,
    profile: bool,
) -> ServeCell {
    run_cell(scenario, protocol, seed, trace.then(Trace::new), profile)
}

/// [`compute_cell`], traced into `trace` when it is given: a forwarding
/// [`Trace`] hands each event to its sink as the engine emits it, and
/// comes back, sink and all, in [`ServeCell::trace`].
pub fn run_cell(
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed: u64,
    trace: Option<Trace>,
    profile: bool,
) -> ServeCell {
    let spec = RunSpec {
        probes: Probes {
            profile,
            ..Probes::default()
        },
        ..RunSpec::default()
    };
    let out = match trace {
        Some(trace) => run_traced(scenario, protocol, seed, &spec, trace),
        None => run(scenario, protocol, seed, &spec),
    };
    ServeCell {
        result: canonical_result(out.result),
        trace: out.trace,
        profile: out.profile,
    }
}

/// Renders the full response-line sequence for one served cell:
/// `Started`, the `Event` stream, the `Profile` report, and the
/// terminal `Result`. The server streams exactly these lines and the
/// client oracle recomputes exactly these lines, so byte-identity is by
/// construction.
pub fn run_response_lines(id: u64, cell: &ServeCell, cached: bool) -> Vec<String> {
    let mut lines = Vec::with_capacity(2 + cell.trace.as_ref().map_or(0, |t| t.events().len()));
    lines.push(encode(&Response::Started { id }));
    if let Some(trace) = &cell.trace {
        for event in trace.events() {
            lines.push(encode(&Response::Event {
                id,
                event: event.clone(),
            }));
        }
    }
    if let Some(profile) = &cell.profile {
        lines.push(encode(&Response::Profile {
            id,
            profile: profile.clone(),
        }));
    }
    lines.push(encode(&Response::Result {
        id,
        cached,
        result: cell.result.clone(),
    }));
    lines
}

/// Serializes one response line.
pub fn encode(response: &Response) -> String {
    serde_json::to_string(response).expect("response serializes")
}

/// Follows the variant name on every response line.
const ID_FIELD: &[u8] = b"\":{\"id\":";
/// Follows the id on a fresh `Result` line, and its cached twin.
const FRESH: &[u8] = b",\"cached\":false";
const CACHED: &[u8] = b",\"cached\":true";

/// Appends one response line for the placeholder id 0:
/// `{"<variant>":{"id":0`, the rest of the variant's fields as `fields`
/// writes them, and `}}\n`.
fn line(text: &mut String, variant: &str, fields: impl FnOnce(&mut String)) {
    text.push_str("{\"");
    text.push_str(variant);
    text.push_str("\":{\"id\":0");
    fields(text);
    text.push_str("}}\n");
}

// The lines of `run_response_lines` for id 0 and `"cached":false`, each
// written as the derived `Response` serializes it, with every payload
// borrowed rather than cloned into a `Response`.

/// Appends the `Started` line.
pub(crate) fn started_line(text: &mut String) {
    line(text, "Started", |_| {});
}

/// Appends one `Event` line.
pub(crate) fn event_line(text: &mut String, event: &TraceEvent) {
    line(text, "Event", |text| {
        text.push_str(",\"event\":");
        event.write_json(text);
    });
}

/// Appends the `Profile` line.
pub(crate) fn profile_line(text: &mut String, profile: &ProfileReport) {
    line(text, "Profile", |text| {
        text.push_str(",\"profile\":");
        profile.write_json(text);
    });
}

/// Appends the fresh `Result` line.
pub(crate) fn result_line(text: &mut String, result: &RunResult) {
    line(text, "Result", |text| {
        text.push_str(",\"cached\":false,\"result\":");
        result.write_json(text);
    });
}

/// Writes `lines`, whole response lines for the placeholder id 0, as
/// the answer to request `id`: every line's id put in place and, when
/// `cached`, a `Result` line's flag flipped.
pub(crate) fn write_spliced(
    lines: &[u8],
    id: u64,
    cached: bool,
    out: &mut impl Write,
) -> std::io::Result<()> {
    let id = id.to_string();
    let mut rest = lines;
    while !rest.is_empty() {
        // `BufRead` on bytes steps past the next newline, found by the
        // platform's `memchr`: a 20 KB `Result` line is scanned on every
        // answer.
        let line = rest;
        let line = &line[..rest.skip_until(b'\n')?];
        // The id follows the variant name, a few bytes in.
        let Some(at) = line
            .windows(ID_FIELD.len())
            .position(|w| w == ID_FIELD)
            .map(|at| at + ID_FIELD.len())
        else {
            out.write_all(line)?;
            continue;
        };
        out.write_all(&line[..at])?;
        out.write_all(id.as_bytes())?;
        let rest = &line[at + 1..];
        match rest.strip_prefix(FRESH) {
            Some(rest) if cached && line.starts_with(b"{\"Result\"") => {
                out.write_all(CACHED)?;
                out.write_all(rest)?;
            }
            _ => out.write_all(rest)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            n_nodes: 10,
            sim_slots: 300,
            n_runs: 1,
            ..Scenario::default()
        }
    }

    #[test]
    fn requests_round_trip() {
        let req = Request::Run(RunRequest {
            id: 7,
            protocol: "bmmm".into(),
            scenario: tiny(),
            seed: 3,
            trace: true,
            profile: false,
        });
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(req, back);
        for req in [Request::Metrics, Request::Ping, Request::Shutdown] {
            let line = serde_json::to_string(&req).unwrap();
            assert_eq!(req, serde_json::from_str::<Request>(&line).unwrap());
        }
    }

    #[test]
    fn canonical_results_are_byte_stable_across_runs() {
        let s = tiny();
        let a = compute_cell(&s, ProtocolKind::Bmmm, 5, false, false);
        let b = compute_cell(&s, ProtocolKind::Bmmm, 5, false, false);
        assert_eq!(
            serde_json::to_string(&a.result).unwrap(),
            serde_json::to_string(&b.result).unwrap(),
            "wall-clock is zeroed, everything else is seed-determined"
        );
    }

    #[test]
    fn traced_cell_matches_run_one_traced() {
        let s = tiny();
        let cell = compute_cell(&s, ProtocolKind::Lamm, 9, true, false);
        let spec = RunSpec {
            probes: Probes {
                trace: true,
                ..Probes::default()
            },
            ..RunSpec::default()
        };
        let out = run(&s, ProtocolKind::Lamm, 9, &spec);
        assert_eq!(cell.trace.unwrap().events(), out.trace.unwrap().events());
        assert_eq!(
            serde_json::to_string(&cell.result).unwrap(),
            serde_json::to_string(&canonical_result(out.result)).unwrap()
        );
    }

    #[test]
    fn response_lines_start_and_end_correctly() {
        let cell = compute_cell(&tiny(), ProtocolKind::Bmw, 1, true, false);
        let lines = run_response_lines(4, &cell, false);
        assert!(lines.first().unwrap().contains("\"Started\""));
        assert!(lines.last().unwrap().contains("\"Result\""));
        assert_eq!(lines.len(), 2 + cell.trace.as_ref().unwrap().events().len());
        // The cached replay differs only in the `cached` flag.
        let cached = run_response_lines(4, &cell, true);
        assert_eq!(lines.len(), cached.len());
        assert_eq!(lines[..lines.len() - 1], cached[..lines.len() - 1]);
        assert_ne!(lines.last(), cached.last());
    }
}

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
//! line goes on with `,"cached":`. [`Rendered`] relies on exactly that:
//! a cell is rendered once, and a cache hit puts its own id and cached
//! flag in place instead of rendering again.

use rmm_mac::ProtocolKind;
use rmm_sim::{Trace, TraceEvent};
use rmm_stats::ProfileReport;
use rmm_workload::observe::PhaseTimings;
use rmm_workload::{run, Probes, RunResult, RunSpec, Scenario};
use serde::{Deserialize, Serialize};

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
    /// Begin a graceful drain: stop accepting connections, finish
    /// in-flight work, flush the cache, exit.
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
/// response stream, rendered once ([`Rendered`]).
#[derive(Debug, Clone)]
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
    let spec = RunSpec {
        probes: Probes {
            trace,
            profile,
            ..Probes::default()
        },
        ..RunSpec::default()
    };
    let out = run(scenario, protocol, seed, &spec);
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
const ID_FIELD: &str = "\":{\"id\":";
/// Follows the id on a fresh `Result` line, and its cached twin.
const FRESH: &str = ",\"cached\":false";
const CACHED: &str = ",\"cached\":true";

/// Room reserved for a rendered stream's `Result` line and for each of
/// its `Event` lines: a Table 2 cell's run 17–20 KB and 100–103 bytes.
/// Pages reserved but never written are not resident, and the text is
/// trimmed to its length once written.
const RESULT_LINE_BYTES: usize = 24 << 10;
const EVENT_LINE_BYTES: usize = 128;

/// A cell's response stream rendered once: the lines of
/// [`run_response_lines`] for the placeholder id 0 and `"cached":false`,
/// each ending in `\n`, plus where each line's id sits. The cache stores
/// the text; [`Rendered::write`] answers any request from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rendered {
    text: String,
    /// Byte offset of each line's placeholder id.
    ids: Vec<usize>,
}

impl Rendered {
    /// Renders `cell`'s response stream straight into one buffer,
    /// recording each line's id offset as it goes. Each line is written
    /// as the derived [`Response`] serializes it, with every payload
    /// borrowed from `cell` rather than cloned into a `Response`.
    pub fn render(cell: &ServeCell) -> Rendered {
        let events = cell.trace.as_ref().map_or(&[][..], Trace::events);
        let mut out = Rendered {
            text: String::with_capacity(RESULT_LINE_BYTES + events.len() * EVENT_LINE_BYTES),
            ids: Vec::with_capacity(events.len() + 3),
        };
        out.line("Started", |_| {});
        for event in events {
            out.line("Event", |text| {
                text.push_str(",\"event\":");
                event.write_json(text);
            });
        }
        if let Some(profile) = &cell.profile {
            out.line("Profile", |text| {
                text.push_str(",\"profile\":");
                profile.write_json(text);
            });
        }
        out.line("Result", |text| {
            text.push_str(FRESH);
            text.push_str(",\"result\":");
            cell.result.write_json(text);
        });
        out.text.shrink_to_fit();
        out
    }

    /// Appends `{"<variant>":{"id":0`, the rest of the variant's fields
    /// as `fields` writes them, and `}}\n`.
    fn line(&mut self, variant: &str, fields: impl FnOnce(&mut String)) {
        self.text.push_str("{\"");
        self.text.push_str(variant);
        self.text.push_str(ID_FIELD);
        self.ids.push(self.text.len());
        self.text.push('0');
        fields(&mut self.text);
        self.text.push_str("}}\n");
    }

    /// Takes `text` back as a rendered stream: every line must read
    /// `{"<Variant>":{"id":0` followed by `,` or `}`, and the last must
    /// be a fresh `Result`. `None` if it does not.
    pub fn parse(text: String) -> Option<Rendered> {
        let mut ids = Vec::new();
        let mut start = 0;
        for line in text.split_inclusive('\n') {
            let name = line.strip_prefix("{\"")?.split('"').next()?;
            let at = 2 + name.len() + ID_FIELD.len();
            let rest = line[2 + name.len()..].strip_prefix(ID_FIELD)?;
            if !(rest.starts_with("0,") || rest.starts_with("0}")) || !line.ends_with('\n') {
                return None;
            }
            ids.push(start + at);
            start += line.len();
        }
        let last = *ids.last()?;
        let result_line = text[..last].rsplit('\n').next()? == "{\"Result\":{\"id\":";
        (result_line && text[last + 1..].starts_with(FRESH)).then_some(Rendered { text, ids })
    }

    /// The stored text: the stream for id 0, not cached.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The stream as the answer to request `id`: every line's id put in
    /// place and, when `cached`, the `Result` line's flag flipped. Equal
    /// to [`run_response_lines`]`(id, cell, cached)`, newline-terminated.
    pub fn write(&self, id: u64, cached: bool) -> Vec<u8> {
        let id = id.to_string();
        let text = self.text.as_bytes();
        let mut out = Vec::with_capacity(text.len() + self.ids.len() * id.len() + 1);
        let mut from = 0;
        for &at in &self.ids {
            out.extend_from_slice(&text[from..at]);
            out.extend_from_slice(id.as_bytes());
            from = at + 1;
        }
        if cached {
            out.extend_from_slice(CACHED.as_bytes());
            from += FRESH.len();
        }
        out.extend_from_slice(&text[from..]);
        out
    }
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

//! The daemon: a TCP listener, one reader/writer thread pair per
//! connection, and the shared [`ServicePool`] + [`CacheStore`] behind
//! them.
//!
//! Connection life cycle: the accept loop admits up to
//! [`ServeConfig::max_conns`] concurrent connections (excess
//! connections get one `Error` line and are closed — load shedding, not
//! queueing). Accepted sockets set `TCP_NODELAY`, so a response leaves
//! when it is written instead of waiting out the client's delayed ACK.
//! Each connection runs a reader thread (reads request lines, serves
//! cache hits inline, submits misses to the pool) and a writer thread
//! (writes every response of the connection, each as one buffer, so
//! pool workers never block on a slow client socket longer than the
//! channel hand-off). When a client disconnects, its still-queued jobs
//! are cancelled — work nobody will read is never run.
//!
//! What is bounded:
//! - a request line, at [`MAX_REQUEST_LINE`] bytes. A longer line gets
//!   one `Error` and the connection closes, since its framing is lost.
//!   A line that is not UTF-8 gets one `Error`, and the connection
//!   carries on;
//! - the engine queue: the pool blocks readers once `queue_cap` jobs
//!   are waiting, which stops them draining their sockets, which fills
//!   the kernel TCP window — the client's writes stall;
//! - the connections, at `max_conns`.
//!
//! What is not: each connection's output queue is an unbounded channel.
//! A client that stops reading has every response buffered for it,
//! about 6 MB per traced Table 2 cell.
//!
//! Graceful drain (`Shutdown` request or [`Server::begin_shutdown`]):
//! stop accepting, refuse new engine work, finish in-flight jobs (each
//! stores its cache entry before it answers), join every thread.

use crate::cache::{cache_key, CacheStore};
use crate::proto::{compute_cell, encode, Rendered, Request, Response, RunRequest, PROTO_VERSION};
use rmm_fleet::{JobTicket, ServicePool};
use rmm_mac::ProtocolKind;
use rmm_stats::{render_registry, MetricsRegistry};
use rmm_workload::scenario_schema_hash;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest request line served, in bytes, its newline excluded. A
/// default Table 2 `Run` request is about 550 bytes.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// How long a connection closed over an oversize line goes on
/// discarding input, so that its client reads the `Error` and then the
/// close, not a reset.
const LINGER: Duration = Duration::from_secs(1);

/// One connection's queue of whole responses, newlines included.
type Outbox = mpsc::Sender<Vec<u8>>;

/// How a [`Server`] is configured; `Default` is a loopback server on an
/// OS-assigned port with a memory-only cache.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:4860` (`:0` picks a free port).
    pub addr: String,
    /// Engine worker threads (0 = one per core).
    pub workers: usize,
    /// Concurrent-connection cap; connections beyond it are refused
    /// with an `Error` line.
    pub max_conns: usize,
    /// Bounded engine-queue depth; readers block (and TCP backpressure
    /// engages) once this many jobs are waiting.
    pub queue_cap: usize,
    /// On-disk result cache: a directory holding one file per cached
    /// cell, created by the first cached cell. `None` = memory-only.
    pub cache_path: Option<PathBuf>,
    /// Suppress the startup line on stdout.
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            max_conns: 64,
            queue_cap: 1024,
            cache_path: None,
            quiet: true,
        }
    }
}

struct Shared {
    pool: ServicePool,
    cache: CacheStore,
    draining: AtomicBool,
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    oversize_lines: AtomicU64,
    addr: SocketAddr,
}

impl Shared {
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop is parked in `accept()`; poke it awake so it
        // observes the flag. The loop drops this connection on sight.
        let _ = TcpStream::connect(self.addr);
    }

    fn metrics_text(&self) -> String {
        let mut reg = MetricsRegistry::new();
        reg.add(
            "serve_requests_total",
            self.requests.load(Ordering::Relaxed),
        );
        reg.add("serve_cache_hits_total", self.cache.hits());
        reg.add("serve_cache_misses_total", self.cache.misses());
        reg.add(
            "serve_cache_read_failures_total",
            self.cache.read_failures(),
        );
        reg.add(
            "serve_cache_write_failures_total",
            self.cache.write_failures(),
        );
        reg.add("serve_cache_entries", self.cache.len() as u64);
        reg.add("serve_engine_runs_total", self.pool.executed());
        reg.add("serve_jobs_cancelled_total", self.pool.cancelled());
        reg.add("serve_job_panics_total", self.pool.panicked());
        reg.add(
            "serve_conns_accepted_total",
            self.conns_accepted.load(Ordering::Relaxed),
        );
        reg.add(
            "serve_conns_rejected_total",
            self.conns_rejected.load(Ordering::Relaxed),
        );
        reg.add("serve_errors_total", self.errors.load(Ordering::Relaxed));
        reg.add(
            "serve_oversize_lines_total",
            self.oversize_lines.load(Ordering::Relaxed),
        );
        reg.add("serve_workers", self.pool.workers() as u64);
        render_registry(&reg, "rmm")
    }
}

/// A running serve daemon. Dropping the handle does *not* stop the
/// server; call [`Server::begin_shutdown`] (or send a `Shutdown`
/// request) and then [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    addr: SocketAddr,
}

impl Server {
    /// Binds, opens the cache, starts the worker pool and the accept
    /// loop, and returns immediately.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cache = CacheStore::open(config.cache_path.as_deref(), scenario_schema_hash())?;
        let shared = Arc::new(Shared {
            pool: ServicePool::with_capacity(config.workers, config.queue_cap),
            cache,
            draining: AtomicBool::new(false),
            conns_accepted: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            oversize_lines: AtomicU64::new(0),
            addr,
        });
        if !config.quiet {
            println!(
                "rmm-serve listening on {addr} ({} workers, cache: {})",
                shared.pool.workers(),
                config
                    .cache_path
                    .as_deref()
                    .map_or("memory".to_string(), |p| p.display().to_string()),
            );
        }
        let max_conns = config.max_conns;
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, shared, max_conns))
        };
        Ok(Server {
            shared,
            accept,
            addr,
        })
    }

    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current metrics snapshot in Prometheus text format.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Starts a graceful drain: stop accepting connections and refuse
    /// new engine work. Idempotent.
    pub fn begin_shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Waits for the drain to complete: the accept loop and every
    /// connection's threads exited, every in-flight job finished,
    /// workers joined.
    pub fn join(self) {
        let _ = self.accept.join();
        self.shared.pool.shutdown();
    }
}

/// Accepts connections until a drain starts, then joins every
/// connection's thread before it returns. A thread's exit, not just the
/// end of its work, is what hands its memory back, so a server that
/// has joined holds no thread of a closed connection.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>, max_conns: usize) {
    // The threads of the connections not yet joined. Those that have
    // finished are joined as each connection arrives, so what is left
    // are the open connections.
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        for conn in conns.extract_if(.., |conn| conn.is_finished()) {
            let _ = conn.join();
        }
        if conns.len() >= max_conns {
            shared.conns_rejected.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = writeln!(
                stream,
                "{}",
                encode(&Response::Error {
                    id: None,
                    message: format!("server at connection capacity ({max_conns})"),
                })
            );
            continue; // dropping the stream closes it
        }
        shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&shared);
        conns.push(std::thread::spawn(move || handle_conn(stream, &shared)));
    }
    for conn in conns {
        let _ = conn.join();
    }
}

/// Runs one connection to completion: spawns the writer, loops over
/// request lines, and on disconnect cancels whatever the client will
/// never read.
fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (out_tx, out_rx) = mpsc::channel::<Vec<u8>>();
    let writer = std::thread::spawn(move || writer_loop(write_half, out_rx));
    let mut outstanding: Vec<JobTicket> = Vec::new();
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut oversize = false;
    loop {
        line.clear();
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.len() > MAX_REQUEST_LINE && !line.ends_with(b"\n") {
            shared.oversize_lines.fetch_add(1, Ordering::Relaxed);
            let message = format!("request line longer than {MAX_REQUEST_LINE} bytes");
            send_error(shared, &out_tx, None, message);
            oversize = true;
            break;
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            send_error(shared, &out_tx, None, "request line is not UTF-8".into());
            continue;
        };
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed.starts_with("GET ") {
            // Plain-HTTP scrape of the metrics endpoint: answer one
            // HTTP/1.0 response and close.
            let body = shared.metrics_text();
            let _ = out_tx.send(format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            ).into_bytes());
            break;
        }
        let request = match serde_json::from_str::<Request>(trimmed) {
            Ok(request) => request,
            Err(e) => {
                send_error(shared, &out_tx, None, format!("unparseable request: {e}"));
                continue;
            }
        };
        match request {
            Request::Ping => send(
                &out_tx,
                &Response::Pong {
                    version: PROTO_VERSION,
                },
            ),
            Request::Metrics => send(
                &out_tx,
                &Response::Metrics {
                    text: shared.metrics_text(),
                },
            ),
            Request::Shutdown => {
                send(&out_tx, &Response::Draining);
                shared.begin_drain();
            }
            Request::Run(req) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                if let Some(ticket) = serve_run(req, shared, &out_tx) {
                    outstanding.push(ticket);
                }
            }
        }
    }
    // The client is gone: queued jobs it will never read are cancelled
    // (running ones finish — cancellation is queue-removal). Dropping
    // our sender lets the writer drain and exit once the last in-flight
    // job drops its clone.
    for ticket in &outstanding {
        ticket.cancel();
    }
    drop(out_tx);
    let _ = writer.join();
    if oversize {
        linger(reader.into_inner());
    }
}

/// Closes a connection whose framing is lost. The write side closes
/// first, so the client reads what was sent and then EOF; then the
/// input the client is still sending is discarded for up to [`LINGER`].
/// Closing with that input unread would reset the connection, and the
/// reset could overtake the `Error` line.
fn linger(stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(LINGER));
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 8192];
    while Instant::now() < deadline {
        match (&stream).read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Queues one response line for the connection's writer.
fn send(out_tx: &Outbox, response: &Response) {
    let mut line = encode(response).into_bytes();
    line.push(b'\n');
    let _ = out_tx.send(line);
}

/// Counts and queues one `Error` line.
fn send_error(shared: &Shared, out_tx: &Outbox, id: Option<u64>, message: String) {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    send(out_tx, &Response::Error { id, message });
}

/// Validates and serves one run request: a cache hit is written
/// inline, a miss is scheduled on the pool (unless draining). Returns
/// the cancellation ticket of a scheduled job.
fn serve_run(req: RunRequest, shared: &Arc<Shared>, out_tx: &Outbox) -> Option<JobTicket> {
    let id = req.id;
    let Some(protocol) = ProtocolKind::parse(&req.protocol) else {
        let message = format!("unknown protocol {:?}", req.protocol);
        send_error(shared, out_tx, Some(id), message);
        return None;
    };
    if let Err(e) = req.scenario.validate() {
        send_error(shared, out_tx, Some(id), e);
        return None;
    }
    let key = cache_key(protocol, &req.scenario, req.seed, req.trace, req.profile);
    if let Some(rendered) = shared.cache.get(&key) {
        let _ = out_tx.send(rendered.write(id, true));
        return None;
    }
    if shared.draining.load(Ordering::SeqCst) {
        send_error(shared, out_tx, Some(id), "server is draining".into());
        return None;
    }
    let job_shared = Arc::clone(shared);
    let out_tx = out_tx.clone();
    Some(shared.pool.submit(move || {
        answer(&job_shared, &out_tx, id, || {
            let cell = compute_cell(&req.scenario, protocol, req.seed, req.trace, req.profile);
            let rendered = Rendered::render(&cell);
            drop(cell);
            let rendered = job_shared.cache.put_rendered(&key, req.seed, rendered);
            rendered.write(id, false)
        });
    }))
}

/// Queues what `work` renders for request `id`, or one `Error` naming
/// the panic if `work` panics. The panic then goes on into the pool,
/// which counts it and keeps the worker.
fn answer(shared: &Shared, out_tx: &Outbox, id: u64, work: impl FnOnce() -> Vec<u8>) {
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(lines) => {
            let _ = out_tx.send(lines);
        }
        Err(panic) => {
            let what = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("no message");
            send_error(
                shared,
                out_tx,
                Some(id),
                format!("the run panicked: {what}"),
            );
            resume_unwind(panic);
        }
    }
}

/// Writes every response of one connection. A dead socket drains the
/// channel without writing, so producers never block on it.
fn writer_loop(stream: TcpStream, out_rx: mpsc::Receiver<Vec<u8>>) {
    let mut out = std::io::BufWriter::new(stream);
    let mut broken = false;
    while let Ok(response) = out_rx.recv() {
        if broken {
            continue;
        }
        broken = out.write_all(&response).is_err();
        // Batch whatever is already queued before paying the flush.
        while !broken {
            let Ok(response) = out_rx.try_recv() else {
                break;
            };
            broken = out.write_all(&response).is_err();
        }
        broken = broken || out.flush().is_err();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_run_answers_one_error_and_is_counted() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let (out_tx, out_rx) = mpsc::channel();
        let shared = Arc::clone(&server.shared);
        server.shared.pool.submit(move || {
            answer(&shared, &out_tx, 7, || panic!("a run panics on purpose"));
        });
        let line = out_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the request got an answer");
        assert_eq!(
            String::from_utf8(line).unwrap(),
            "{\"Error\":{\"id\":7,\"message\":\"the run panicked: a run panics on purpose\"}}\n"
        );
        assert!(out_rx.recv().is_err(), "one line, then the job is gone");
        server.shared.pool.wait_idle();
        let metrics = server.metrics_text();
        for counted in ["rmm_serve_job_panics_total 1", "rmm_serve_errors_total 1"] {
            assert!(
                metrics.lines().any(|l| l == counted),
                "{counted}:\n{metrics}"
            );
        }
        server.begin_shutdown();
        server.join();
    }
}

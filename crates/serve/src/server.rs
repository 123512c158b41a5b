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
//! (writes every response of the connection, so pool workers never
//! block on a client socket).
//!
//! Every answer to a `Run` is read from its cache entry. A miss's
//! worker renders each response line into the entry's temporary file
//! as the run produces it — a traced run's `Event` lines as the engine
//! emits each event — and hands the writer a small notice for each
//! chunk of about [`CHUNK`](crate::cache::CHUNK) bytes as soon as the
//! file holds it, so a trace streams while its run executes. The chunk
//! with the `Result` line goes last, once the entry is renamed into
//! place and listed. A hit checks the entry's digest in one read of at
//! most a chunk and hands over what it read, or, for a longer entry,
//! the open file. The writer reads each range back and puts the
//! request's id (and a hit's `"cached":true`) in place as it writes, so
//! what a connection holds for its client is notices, open files and
//! at most a chunk per answer, never a copy of a stream. When a client
//! disconnects, its still-queued jobs are cancelled — work nobody will
//! read is never run.
//!
//! What is bounded:
//! - a request line, at [`MAX_REQUEST_LINE`] bytes. A longer line gets
//!   one `Error` and the connection closes, since its framing is lost.
//!   A line that is not UTF-8 gets one `Error`, and the connection
//!   carries on;
//! - the engine queue: the pool blocks readers once `queue_cap` jobs
//!   are waiting, which stops them draining their sockets, which fills
//!   the kernel TCP window — the client's writes stall;
//! - the connections, at `max_conns`;
//! - what a connection is owed: its reader takes no request while it
//!   owes one answer per engine worker and [`OWED_BEYOND_WORKERS`]
//!   more, so one pipelining client can keep every worker busy while
//!   the entry files a stalled one holds open stay bounded;
//! - a client that stops reading: a buffer of [`CHUNK`](crate::cache::CHUNK)
//!   bytes not written within [`WRITE_TIMEOUT`] closes the connection,
//!   counted in `rmm_serve_slow_clients_total`.
//!
//! Graceful drain (`Shutdown` request or [`Server::begin_shutdown`]):
//! stop accepting, refuse new engine work, finish in-flight jobs (each
//! stores its cache entry before it answers), join every thread. The
//! drain also ends reading on every open connection, so a client that
//! keeps its socket open cannot hold it: a reader blocked on such a
//! client wakes with EOF, and a reader that sees EOF while draining
//! cancels nothing, so every request the server had read is answered
//! before its connection closes. A client that stops reading holds the
//! drain for at most [`WRITE_TIMEOUT`]. A server without a cache
//! directory deletes its private one once it has drained.

use crate::cache::{cache_key, CacheStore, Chunk, CHUNK};
use crate::proto::{encode, run_cell, Request, Response, RunRequest, PROTO_VERSION};
use rmm_fleet::{JobTicket, ServicePool};
use rmm_mac::ProtocolKind;
use rmm_stats::{render_registry, MetricsRegistry};
use rmm_workload::scenario_schema_hash;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
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

/// How long a client may take to accept one buffer of up to
/// [`CHUNK`] bytes before the connection is closed as a slow client.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// How many answers a connection may owe beyond one per engine worker:
/// its reader takes the next request only once fewer are unwritten.
pub const OWED_BEYOND_WORKERS: usize = 8;

/// What a connection's writer is handed: small notices, never a copy of
/// a stream.
enum Notice {
    /// One whole response line, newline included, written as it is: the
    /// whole answer to a request.
    Line(Vec<u8>),
    /// Lines of a cache entry, written as the answer to request `id`.
    Stream {
        chunk: Chunk,
        id: u64,
        cached: bool,
        /// The chunk holds the answer's terminal line.
        ends: bool,
    },
}

impl Notice {
    fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        match self {
            Notice::Line(line) => out.write_all(line),
            Notice::Stream {
                chunk, id, cached, ..
            } => chunk.write_to(*id, *cached, out),
        }
    }

    /// Whether this notice ends the answer to a request.
    fn ends(&self) -> bool {
        match self {
            Notice::Line(_) => true,
            Notice::Stream { ends, .. } => *ends,
        }
    }
}

/// One connection's queue of notices for its writer.
type Outbox = mpsc::Sender<Notice>;

/// How a [`Server`] is configured; `Default` is a loopback server on an
/// OS-assigned port with a private cache directory.
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
    /// cell, created by the first cached cell. `None` = a private
    /// directory, deleted once the server has drained.
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
    slow_clients: AtomicU64,
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
        reg.add(
            "serve_slow_clients_total",
            self.slow_clients.load(Ordering::Relaxed),
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
            slow_clients: AtomicU64::new(0),
            addr,
        });
        if !config.quiet {
            println!(
                "rmm-serve listening on {addr} ({} workers, cache: {}{})",
                shared.pool.workers(),
                shared.cache.dir().display(),
                if config.cache_path.is_none() {
                    ", private"
                } else {
                    ""
                },
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

/// Accepts connections until a drain starts, then ends reading on
/// every open connection and joins its thread before it returns. A
/// thread's exit, not just the end of its work, is what hands its
/// memory back, so a server that has joined holds no thread of a closed
/// connection.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>, max_conns: usize) {
    // The threads of the connections not yet joined, each beside a
    // handle on its socket. Those that have finished are joined as each
    // connection arrives, so what is left are the open connections.
    let mut conns: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        for (conn, _) in conns.extract_if(.., |(conn, _)| conn.is_finished()) {
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
        let Ok(socket) = stream.try_clone() else {
            continue;
        };
        shared.conns_accepted.fetch_add(1, Ordering::Relaxed);
        let shared = Arc::clone(&shared);
        let conn = std::thread::spawn(move || handle_conn(stream, &shared));
        conns.push((conn, socket));
    }
    // A reader blocked on a client that keeps its socket open wakes
    // with EOF, so every connection ends once its answers are written.
    for (_, socket) in &conns {
        let _ = socket.shutdown(Shutdown::Read);
    }
    for (conn, _) in conns {
        let _ = conn.join();
    }
}

/// Runs one connection to completion: spawns the writer, loops over
/// request lines, and on disconnect cancels whatever the client will
/// never read. A drain ends reading too, but then nothing is cancelled:
/// every request read is answered before the connection closes.
fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (out_tx, out_rx) = mpsc::channel();
    // One token per answer owed: the reader puts one in before it takes
    // a request, blocking while the connection owes its most, and the
    // writer takes one out as each answer ends. The writer drops its end
    // when it gives the client up, which wakes the reader with an error.
    let (owe, owed) = mpsc::sync_channel(shared.pool.workers() + OWED_BEYOND_WORKERS);
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || writer_loop(write_half, out_rx, owed, &shared))
    };
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
            let _ = owe.send(());
            send_error(shared, &out_tx, None, message);
            oversize = true;
            break;
        }
        let text = std::str::from_utf8(&line);
        if text.is_ok_and(|text| text.trim().is_empty()) {
            continue;
        }
        // Every line from here on gets exactly one answer.
        if owe.send(()).is_err() {
            break;
        }
        let Ok(text) = text else {
            send_error(shared, &out_tx, None, "request line is not UTF-8".into());
            continue;
        };
        let trimmed = text.trim();
        if trimmed.starts_with("GET ") {
            // Plain-HTTP scrape of the metrics endpoint: answer one
            // HTTP/1.0 response and close.
            let body = shared.metrics_text();
            let _ = out_tx.send(Notice::Line(format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
                body.len(),
                body
            ).into_bytes()));
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
    // (running ones finish — cancellation is queue-removal). Unless the
    // drain ended reading: then the client is still there and is owed
    // every answer. Dropping our sender lets the writer drain and exit
    // once the last in-flight job drops its clone.
    if !shared.draining.load(Ordering::SeqCst) {
        for ticket in &outstanding {
            ticket.cancel();
        }
    }
    drop(out_tx);
    let _ = writer.join();
    let stream = reader.into_inner();
    if oversize {
        linger(&stream);
    }
    // The accept loop holds a handle on this socket until it reaps this
    // thread, so dropping ours would not close it.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Closes a connection whose framing is lost. The write side closes
/// first, so the client reads what was sent and then EOF; then the
/// input the client is still sending is discarded for up to [`LINGER`].
/// Closing with that input unread would reset the connection, and the
/// reset could overtake the `Error` line.
fn linger(mut stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(LINGER));
    let deadline = Instant::now() + LINGER;
    let mut sink = [0u8; 8192];
    while Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

/// Queues one response line for the connection's writer.
fn send(out_tx: &Outbox, response: &Response) {
    let mut line = encode(response).into_bytes();
    line.push(b'\n');
    let _ = out_tx.send(Notice::Line(line));
}

/// Counts and queues one `Error` line.
fn send_error(shared: &Shared, out_tx: &Outbox, id: Option<u64>, message: String) {
    shared.errors.fetch_add(1, Ordering::Relaxed);
    send(out_tx, &Response::Error { id, message });
}

/// Validates and serves one run request: a cache hit is handed to the
/// writer inline, a miss is scheduled on the pool (unless draining).
/// Returns the cancellation ticket of a scheduled job.
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
    if let Some(chunk) = shared.cache.get(&key) {
        let _ = out_tx.send(Notice::Stream {
            chunk,
            id,
            cached: true,
            ends: true,
        });
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
            miss(&req, protocol, &key, &job_shared.cache, &out_tx)
        });
    }))
}

/// Runs one missed cell into its entry, each chunk going to the
/// connection as soon as the entry file holds it (a traced run's events
/// as the engine emits them), and returns the last chunk, the one with
/// the `Result` line, once the entry is stored.
fn miss(
    req: &RunRequest,
    protocol: ProtocolKind,
    key: &str,
    cache: &CacheStore,
    out: &Outbox,
) -> Chunk {
    let entry = cache.begin(key, req.seed);
    entry.write_run(cache, req.trace, streamer(out, req.id), |trace| {
        run_cell(&req.scenario, protocol, req.seed, trace, req.profile)
    })
}

/// Queues each chunk it is handed as part of the answer to request `id`.
fn streamer(out: &Outbox, id: u64) -> impl FnMut(Chunk) + Send + 'static {
    let out = out.clone();
    move |chunk| {
        let _ = out.send(Notice::Stream {
            chunk,
            id,
            cached: false,
            ends: false,
        });
    }
}

/// Queues what `work` streams for request `id` and then the last chunk
/// it returns, or, if `work` panics, ends the stream with one `Error`
/// naming the panic. The panic then goes on into the pool, which counts
/// it and keeps the worker.
fn answer(shared: &Shared, out_tx: &Outbox, id: u64, work: impl FnOnce() -> Chunk) {
    match catch_unwind(AssertUnwindSafe(work)) {
        Ok(chunk) => {
            let _ = out_tx.send(Notice::Stream {
                chunk,
                id,
                cached: false,
                ends: true,
            });
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

/// The connection's socket behind a buffer of about [`CHUNK`] bytes.
/// Each flush of the buffer must be done [`WRITE_TIMEOUT`] after it
/// began, so a client that takes its bytes a few at a time is as slow
/// as one that takes none.
struct Out<'a> {
    stream: &'a TcpStream,
    buf: Vec<u8>,
}

impl Write for Out<'_> {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        if self.buf.len() + bytes.len() > CHUNK {
            self.flush()?;
        }
        self.buf.extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let deadline = Instant::now() + WRITE_TIMEOUT;
        let mut sent = 0;
        while sent < self.buf.len() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ErrorKind::TimedOut.into());
            }
            self.stream.set_write_timeout(Some(left))?;
            match (&*self.stream).write(&self.buf[sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        Ok(())
    }
}

/// Writes every answer of one connection, each notice's lines read back
/// and spliced as they go out, and takes a token from `owed` as each
/// answer ends. A client that does not take a buffer's worth within
/// [`WRITE_TIMEOUT`], or a dead socket, closes the connection: `owed` is
/// dropped, which stops the reader, and the notices are then drained
/// without writing, so producers never block on them.
fn writer_loop(
    stream: TcpStream,
    notices: mpsc::Receiver<Notice>,
    owed: mpsc::Receiver<()>,
    shared: &Shared,
) {
    let mut owed = Some(owed);
    let mut out = Out {
        stream: &stream,
        buf: Vec::with_capacity(CHUNK),
    };
    while let Ok(first) = notices.recv() {
        let mut written = Ok(());
        let mut next = Some(first);
        // Batch whatever is already queued before paying the flush.
        while let Some(notice) = next {
            if let Some(owed) = &owed {
                if written.is_ok() {
                    written = notice.write(&mut out);
                }
                if notice.ends() {
                    let _ = owed.try_recv();
                }
            }
            drop(notice);
            next = notices.try_recv().ok();
        }
        if owed.is_none() {
            continue;
        }
        if let Err(e) = written.and_then(|()| out.flush()) {
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                shared.slow_clients.fetch_add(1, Ordering::Relaxed);
            }
            owed = None;
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmm_sim::{MsgId, NodeId, TraceEvent};

    /// Everything queued on `out_rx`, as the writer would write it.
    fn written(out_rx: &mpsc::Receiver<Notice>) -> String {
        let mut out = Vec::new();
        while let Ok(notice) = out_rx.recv_timeout(Duration::from_secs(30)) {
            notice.write(&mut out).unwrap();
        }
        String::from_utf8(out).unwrap()
    }

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
        assert_eq!(
            written(&out_rx),
            "{\"Error\":{\"id\":7,\"message\":\"the run panicked: a run panics on purpose\"}}\n",
            "one line, then the job is gone"
        );
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

    #[test]
    fn a_run_that_panics_mid_stream_ends_its_stream_with_one_error() {
        let server = Server::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("server starts");
        let (out_tx, out_rx) = mpsc::channel();
        let shared = Arc::clone(&server.shared);
        server.shared.pool.submit(move || {
            answer(&shared, &out_tx, 7, || {
                // Chunks of events leave, as a traced run's first chunks
                // do, before the run panics.
                let cache = &shared.cache;
                let entry = cache.begin("BMMM/0x0000000000000001", 1);
                entry.write_run(cache, true, streamer(&out_tx, 7), |trace| {
                    let mut trace = trace.expect("a traced run");
                    for _ in 0..2_000 {
                        trace.push(TraceEvent::Retry {
                            slot: 3,
                            node: NodeId(1),
                            msg: MsgId::new(NodeId(1), 0),
                            round: 2,
                        });
                    }
                    panic!("mid-stream")
                })
            });
        });
        let text = written(&out_rx);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"Started\":{\"id\":7}}");
        let event = "{\"Event\":{\"id\":7,\"event\":{\"Retry\":{\"slot\":3,\"node\":1,\"msg\":{\"src\":1,\"seq\":0},\"round\":2}}}}";
        let (last, events) = lines[1..].split_last().unwrap();
        assert!(
            events.len() > 100 && events.iter().all(|l| *l == event),
            "{}",
            events[0]
        );
        assert_eq!(
            *last,
            "{\"Error\":{\"id\":7,\"message\":\"the run panicked: mid-stream\"}}"
        );
        server.shared.pool.wait_idle();
        let dir = server.shared.cache.dir();
        let left: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|name| name != "rmm-serve-cache")
            .collect();
        assert!(left.is_empty(), "{left:?}");
        assert_eq!(server.shared.cache.len(), 0);
        server.begin_shutdown();
        server.join();
    }
}

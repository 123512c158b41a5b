//! `rmm-serve`: the simulator as a long-lived service.
//!
//! Everything below the workload layer is bit-deterministic, so a
//! simulation cell is a *pure function* of `(protocol, scenario, seed,
//! flags)`. This crate exploits that twice:
//!
//! 1. **Serving** — a TCP daemon ([`Server`]) accepts JSONL requests,
//!    schedules engine work on a resident worker pool
//!    ([`rmm_fleet::ServicePool`]), and streams progress, trace events,
//!    and results back live, interleaved per connection: a run's trace
//!    leaves in chunks while the engine emits it.
//! 2. **Memoizing** — completed cells land in a content-addressed
//!    cache ([`CacheStore`]) keyed by a hash of exactly the inputs that
//!    determine the output, as their response stream rendered once. The
//!    cache entry *is* the stream: a miss renders its lines straight
//!    into its entry file ([`EntryWriter`]), and every answer, the
//!    miss's own and each hit's, is read back from that file with the
//!    request's id spliced in as it is written ([`Chunk`]), so a
//!    response costs the server a buffer, never a copy of the stream.
//!    A repeated sweep is answered entirely from cache, byte-for-byte
//!    identical, with zero engine invocations — and a cache directory
//!    survives restarts: each cell is one file, written under a
//!    temporary name and renamed into place, and checked against its
//!    XXH64 digest (seeded with the FNV-1a of its key and seed) when it
//!    is read back.
//!
//! The [`client`] module carries the other half of the contract: a
//! serial in-process oracle plus a concurrent soak driver that
//! byte-diffs served responses against it, which is how CI proves the
//! service layer adds no nondeterminism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod proto;
pub mod server;

pub use cache::{cache_key, CacheStore, Chunk, EntryWriter};
pub use client::{
    fetch_metrics, local_lines, parse_metric, render_soak, request_shutdown, soak, submit_each,
    submit_one, SoakReport, SoakSpec,
};
pub use proto::{
    canonical_result, compute_cell, encode, run_cell, run_response_lines, Request, Response,
    RunRequest, ServeCell, PROTO_VERSION,
};
pub use server::{ServeConfig, Server, MAX_REQUEST_LINE, OWED_BEYOND_WORKERS, WRITE_TIMEOUT};

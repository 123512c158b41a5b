//! Content-addressed result cache, backed by the fleet's crash-safe
//! manifest format.
//!
//! Every completed cell is stored under a key derived purely from its
//! *content*: protocol, scenario JSON, seed, and the trace/profile
//! flags, all folded through FNV-1a together with the wire-protocol
//! version. Because the engine is bit-deterministic, replaying a cached
//! cell is byte-identical to recomputing it — the cache is a pure
//! memoization layer, never an approximation.
//!
//! What a cell stores is its [`Rendered`] response stream, not the cell:
//! a hit writes those bytes with its own id and `"cached":true` put in
//! place, with no parse of the cell and no second render.
//!
//! On disk the cache is a manifest (`header` + one digest-checked JSONL
//! entry per cell), so it inherits the manifest's crash-safety: appends are
//! flushed per line, a torn tail is dropped on load, and the header
//! carries both the serve options hash and the scenario *schema*
//! fingerprint. A cache written by a build with a different scenario
//! layout, wire protocol or stored form is discarded (with a warning)
//! rather than replayed — unlike a sweep resume, a stale cache is never
//! an error, just a cold start.
//!
//! With a cache file, memory holds only where each key's entry sits in
//! it. A hit reads that one entry back and checks its digest; a failed
//! read, digest or stream shape is a miss, counted as a read failure.
//! A key enters the index only once its append has flushed, so a failed
//! append leaves the cell uncached. Without a cache file, the map holds
//! the rendered streams themselves.

use crate::proto::{Rendered, ServeCell, PROTO_VERSION};
use rmm_fleet::{
    hex, EntrySpan, Fnv1a, JobId, Manifest, ManifestError, ManifestHeader, MANIFEST_VERSION,
};
use rmm_mac::ProtocolKind;
use rmm_workload::Scenario;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a cache entry holds, folded into the cache header: a file whose
/// entries hold anything else (such as the cell JSON earlier builds
/// stored) is stale.
const STORED_FORM: &str = "rendered-stream";

/// Computes the content address of one cell. Everything that can change
/// the response bytes is hashed; nothing else is.
pub fn cache_key(
    protocol: ProtocolKind,
    scenario: &Scenario,
    seed: u64,
    trace: bool,
    profile: bool,
) -> String {
    let mut h = Fnv1a::new();
    h.write_str("serve");
    h.write_u64(u64::from(PROTO_VERSION));
    h.write_str(protocol.name());
    h.write_str(&serde_json::to_string(scenario).expect("scenario serializes"));
    h.write_u64(seed);
    h.write_u64(u64::from(trace) << 1 | u64::from(profile));
    format!("{}/{}", protocol.name(), hex(h.finish()))
}

/// The serve-side result cache: an index over an optional on-disk
/// manifest. All methods take `&self`; the store is shared across
/// connection threads behind an `Arc`.
pub struct CacheStore {
    entries: Entries,
    hits: AtomicU64,
    misses: AtomicU64,
    read_failures: AtomicU64,
}

/// Where the cached streams live.
enum Entries {
    /// No cache file: the streams themselves, by key.
    Memory(Mutex<HashMap<String, Arc<Rendered>>>),
    /// A cache file, and where each key's entry sits in it.
    Disk {
        manifest: Manifest,
        index: Mutex<HashMap<String, EntrySpan>>,
    },
}

fn cache_header(schema: u32) -> ManifestHeader {
    let mut h = Fnv1a::new();
    h.write_str("serve");
    h.write_u64(u64::from(PROTO_VERSION));
    h.write_str(STORED_FORM);
    ManifestHeader {
        sweep: "serve-cache".into(),
        options_hash: hex(h.finish()),
        jobs: 0,
        version: MANIFEST_VERSION,
        schema,
    }
}

impl CacheStore {
    /// Opens the cache. With `path: None` the cache is memory-only (it
    /// dies with the server). With a path, compatible entries from a
    /// previous server are indexed again; a missing file starts empty,
    /// and a stale or corrupt file (other schema, other wire protocol,
    /// other stored form, unreadable header) is *discarded* with a
    /// warning and rebuilt from scratch.
    pub fn open(path: Option<&Path>, schema: u32) -> std::io::Result<CacheStore> {
        let Some(path) = path else {
            return Ok(CacheStore::new(Entries::Memory(Mutex::default())));
        };
        let header = cache_header(schema);
        let preserved = match Manifest::load(path, &header) {
            Ok(entries) => entries,
            Err(ManifestError::Missing) => Vec::new(),
            Err(e @ (ManifestError::Stale { .. } | ManifestError::Corrupt(_))) => {
                eprintln!(
                    "rmm-serve: discarding incompatible cache at {}: {e}",
                    path.display()
                );
                Vec::new()
            }
            Err(ManifestError::Io(e)) => return Err(e),
        };
        let (manifest, spans) = Manifest::create_indexed(path, &header, &preserved)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        // A key written twice keeps its last entry.
        let index = preserved
            .into_iter()
            .zip(spans)
            .map(|((id, _), span)| (id.point, span))
            .collect();
        Ok(CacheStore::new(Entries::Disk {
            manifest,
            index: Mutex::new(index),
        }))
    }

    fn new(entries: Entries) -> CacheStore {
        CacheStore {
            entries,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            read_failures: AtomicU64::new(0),
        }
    }

    /// Looks a cell's stream up by content key, counting a hit or a
    /// miss. A stored entry that does not read back intact — an I/O
    /// error, a digest mismatch, another key, a stream of the wrong
    /// shape — is a miss and a read failure.
    pub fn get(&self, key: &str) -> Option<Arc<Rendered>> {
        let found = match &self.entries {
            Entries::Memory(map) => map.lock().expect("cache index poisoned").get(key).cloned(),
            Entries::Disk { manifest, index } => {
                let span = index
                    .lock()
                    .expect("cache index poisoned")
                    .get(key)
                    .copied();
                span.and_then(|span| {
                    let read = manifest
                        .read_entry(span)
                        .ok()
                        .filter(|(id, _)| id.point == key)
                        .and_then(|(_, text)| Rendered::parse(text));
                    if read.is_none() {
                        self.read_failures.fetch_add(1, Ordering::Relaxed);
                    }
                    read.map(Arc::new)
                })
            }
        };
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Renders one completed cell and stores it under its content key.
    pub fn put(&self, key: &str, seed: u64, cell: &ServeCell) {
        self.put_rendered(key, seed, Rendered::render(cell));
    }

    /// Stores one rendered cell under its content key and hands it back
    /// for sending. With a cache file the entry is appended first, and
    /// the key is indexed only once the append has flushed; a failed
    /// append leaves the cell uncached. Concurrent identical misses may
    /// race here; both store the same bytes, so last-write-wins is
    /// harmless and the on-load index keeps the later line.
    pub fn put_rendered(&self, key: &str, seed: u64, rendered: Rendered) -> Arc<Rendered> {
        let rendered = Arc::new(rendered);
        match &self.entries {
            Entries::Memory(map) => {
                map.lock()
                    .expect("cache index poisoned")
                    .insert(key.to_string(), Arc::clone(&rendered));
            }
            Entries::Disk { manifest, index } => {
                let id = JobId::new("serve", key, seed);
                if let Ok(span) = manifest.append_entry(&id, rendered.text()) {
                    index
                        .lock()
                        .expect("cache index poisoned")
                        .insert(key.to_string(), span);
                }
            }
        }
        rendered
    }

    /// Number of distinct cached cells.
    pub fn len(&self) -> usize {
        match &self.entries {
            Entries::Memory(map) => map.lock().expect("cache index poisoned").len(),
            Entries::Disk { index, .. } => index.lock().expect("cache index poisoned").len(),
        }
    }

    /// Whether the cache holds no cells yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache since this store opened.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to the engine since this store opened.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Stored entries that did not read back intact (each also a miss).
    pub fn read_failures(&self) -> u64 {
        self.read_failures.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{compute_cell, run_response_lines};

    fn tiny() -> Scenario {
        Scenario {
            n_nodes: 8,
            sim_slots: 200,
            n_runs: 1,
            ..Scenario::default()
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rmm-serve-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cache.jsonl")
    }

    #[test]
    fn key_depends_on_every_input() {
        let s = tiny();
        let base = cache_key(ProtocolKind::Bmmm, &s, 1, false, false);
        assert_ne!(base, cache_key(ProtocolKind::Bmw, &s, 1, false, false));
        assert_ne!(base, cache_key(ProtocolKind::Bmmm, &s, 2, false, false));
        assert_ne!(base, cache_key(ProtocolKind::Bmmm, &s, 1, true, false));
        assert_ne!(base, cache_key(ProtocolKind::Bmmm, &s, 1, false, true));
        let mut other = s.clone();
        other.n_nodes += 1;
        assert_ne!(base, cache_key(ProtocolKind::Bmmm, &other, 1, false, false));
        assert_eq!(base, cache_key(ProtocolKind::Bmmm, &s, 1, false, false));
    }

    /// What a server streams for `lines`.
    fn joined(lines: Vec<String>) -> Vec<u8> {
        lines
            .into_iter()
            .map(|l| l + "\n")
            .collect::<String>()
            .into_bytes()
    }

    #[test]
    fn memory_cache_round_trips_and_counts() {
        let cache = CacheStore::open(None, 7).unwrap();
        let s = tiny();
        let key = cache_key(ProtocolKind::Lamm, &s, 3, true, false);
        assert!(cache.get(&key).is_none());
        let cell = compute_cell(&s, ProtocolKind::Lamm, 3, true, false);
        cache.put(&key, 3, &cell);
        let back = cache.get(&key).expect("cached");
        for cached in [false, true] {
            assert_eq!(
                back.write(3, cached),
                joined(run_response_lines(3, &cell, cached))
            );
        }
        assert_eq!(
            (cache.hits(), cache.misses(), cache.read_failures()),
            (1, 1, 0)
        );
    }

    #[test]
    fn disk_cache_survives_reopen() {
        let path = tmp("reopen");
        let s = tiny();
        let key = cache_key(ProtocolKind::TangGerla, &s, 5, false, false);
        let cell = compute_cell(&s, ProtocolKind::TangGerla, 5, false, false);
        {
            let cache = CacheStore::open(Some(&path), 7).unwrap();
            cache.put(&key, 5, &cell);
            assert_eq!(cache.len(), 1);
        }
        let cache = CacheStore::open(Some(&path), 7).unwrap();
        assert_eq!(cache.len(), 1);
        let back = cache.get(&key).expect("reloaded");
        assert_eq!(
            back.write(8, true),
            joined(run_response_lines(8, &cell, true))
        );
        assert_eq!(
            (cache.hits(), cache.misses(), cache.read_failures()),
            (1, 0, 0)
        );
    }

    #[test]
    fn schema_drift_discards_disk_cache() {
        let path = tmp("schema");
        let s = tiny();
        let key = cache_key(ProtocolKind::Bsma, &s, 1, false, false);
        {
            let cache = CacheStore::open(Some(&path), 7).unwrap();
            cache.put(
                &key,
                1,
                &compute_cell(&s, ProtocolKind::Bsma, 1, false, false),
            );
        }
        let cache = CacheStore::open(Some(&path), 8).unwrap();
        assert!(cache.is_empty(), "other schema must start cold");
        assert!(cache.get(&key).is_none());
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = tmp("torn");
        let s = tiny();
        let key = |seed| cache_key(ProtocolKind::Ieee80211, &s, seed, false, false);
        let cells: Vec<ServeCell> = (0..3)
            .map(|seed| compute_cell(&s, ProtocolKind::Ieee80211, seed, false, false))
            .collect();
        {
            let cache = CacheStore::open(Some(&path), 7).unwrap();
            for (seed, cell) in (0..3).zip(&cells) {
                cache.put(&key(seed), seed, cell);
            }
        }
        // Simulate a kill mid-append: truncate the last line in half.
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - text.lines().last().unwrap().len() / 2;
        std::fs::write(&path, &text.as_bytes()[..keep]).unwrap();
        let cache = CacheStore::open(Some(&path), 7).unwrap();
        assert_eq!(
            cache.len(),
            2,
            "intact prefix survives, torn tail is dropped"
        );
        for (seed, cell) in (0..2).zip(&cells) {
            let back = cache.get(&key(seed)).expect("intact entry");
            assert_eq!(
                back.write(seed, false),
                joined(run_response_lines(seed, cell, false))
            );
        }
        assert!(cache.get(&key(2)).is_none());
    }
}

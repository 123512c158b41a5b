//! Content-addressed result cache: in memory, or one file per cell in
//! a cache directory.
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
//! On disk the cache is a directory: one header file naming the wire
//! version, the scenario *schema* fingerprint and the stored form, and
//! one file per key. An entry file's first line carries the key, the
//! seed and a digest; the rest is the rendered stream, byte for byte.
//! The digest is the stream's XXH64, seeded with the FNV-1a of the key
//! and the seed, so it covers all three (`rmm_fleet::digest` says why
//! the stream gets XXH64). A put writes the file under a unique
//! temporary name and renames it into place, so a reader sees a whole
//! entry or none, and a key stored twice is still one file. Nothing is
//! synced: an entry that a power loss tears fails its digest and is
//! recomputed. Memory holds only the names of the entry files:
//! [`CacheStore::open`] reads the header and lists the directory, and a
//! hit reads its one file and checks the key, the digest and the
//! stream's shape. A failed read is a miss counted as a read failure,
//! and costs only that entry. A failed write or rename leaves the cell
//! uncached and is counted as a write failure. The directory and its
//! header are created by the first put.
//!
//! A header written by a build with a different scenario layout, wire
//! protocol or stored form (which names the entry digest, so a cache of
//! FNV-1a digests is stale), or a serve-cache manifest file at the path
//! (the layout earlier builds wrote), is discarded with a warning: a
//! stale cache is never an error, just a cold start. A non-empty
//! directory without the header is an error, so `open` deletes only
//! what the cache wrote.

use crate::proto::{Rendered, ServeCell, PROTO_VERSION};
use rmm_fleet::{hex, xxh64, Fnv1a, ManifestHeader};
use rmm_mac::ProtocolKind;
use rmm_workload::Scenario;
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// What a cache entry holds and how it is digested, folded into the
/// cache header: a cache whose entries hold anything else, or carry
/// another digest, is stale.
const STORED_FORM: &str = "rendered-stream, xxh64";

/// The header file of a cache directory.
const HEADER: &str = "rmm-serve-cache";

/// The name ending of an entry file.
const ENTRY: &str = ".entry";

/// The name ending of an entry file still being written.
const TEMP: &str = ".tmp";

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

/// The serve-side result cache, in memory or over a cache directory.
/// All methods take `&self`; the store is shared across connection
/// threads behind an `Arc`.
pub struct CacheStore {
    entries: Entries,
    hits: AtomicU64,
    misses: AtomicU64,
    read_failures: AtomicU64,
    write_failures: AtomicU64,
}

/// Where the cached streams live.
enum Entries {
    /// No cache directory: the streams themselves, by key.
    Memory(Mutex<HashMap<String, Arc<Rendered>>>),
    /// A cache directory.
    Disk(Disk),
}

/// A cache directory and the names of the entry files in it.
struct Disk {
    dir: PathBuf,
    /// The header this build writes and accepts.
    header: String,
    /// Whether the directory holds that header yet. Set with `Release`
    /// after the header is written, read with `Acquire`, so a put that
    /// sees it set writes after the header.
    ready: AtomicBool,
    /// Entry files written whole, by name.
    names: Mutex<HashSet<String>>,
    /// Numbers the temporary files of this store's writes.
    writes: AtomicU64,
}

fn cache_header(schema: u32) -> String {
    format!("rmm-serve cache: wire v{PROTO_VERSION}, schema {schema:#010x}, {STORED_FORM}\n")
}

/// The first line of an entry file: its key, its seed and a digest of
/// both and the stream, the stream's XXH64 seeded with the FNV-1a of
/// the key and the seed.
fn entry_head(key: &str, seed: u64, stream: &str) -> String {
    let mut h = Fnv1a::new();
    h.write_str(key);
    h.write_u64(seed);
    format!(
        "{key} {seed} {}\n",
        hex(xxh64(stream.as_bytes(), h.finish()))
    )
}

fn entry_name(key: &str) -> String {
    key.replace('/', "_") + ENTRY
}

/// Whether `path` is a cache file in the layout earlier builds wrote: a
/// fleet manifest whose header names the serve cache.
fn is_old_layout(path: &Path) -> bool {
    let Ok(file) = fs::File::open(path) else {
        return false;
    };
    let mut line = String::new();
    let read = BufReader::new(file.take(4096)).read_line(&mut line);
    read.is_ok()
        && serde_json::from_str::<ManifestHeader>(line.trim_end())
            .is_ok_and(|h| h.sweep == "serve-cache")
}

impl Disk {
    fn names(&self) -> MutexGuard<'_, HashSet<String>> {
        self.names.lock().expect("cache index poisoned")
    }

    /// Opens the cache directory at `dir` for `header`: lists the entry
    /// files when the header matches, and otherwise discards (with a
    /// warning) a stale cache or an old-layout cache file. Reads no entry.
    fn open(dir: &Path, header: String) -> std::io::Result<Disk> {
        let mut disk = Disk {
            dir: dir.to_path_buf(),
            header,
            ready: AtomicBool::new(false),
            names: Mutex::default(),
            writes: AtomicU64::new(0),
        };
        if dir.is_file() {
            if !is_old_layout(dir) {
                return Err(std::io::Error::other(format!(
                    "{} is a file, not a cache directory",
                    dir.display()
                )));
            }
            eprintln!(
                "rmm-serve: discarding the cache file in the old layout at {}",
                dir.display()
            );
            fs::remove_file(dir)?;
            return Ok(disk);
        }
        let mut names = Vec::new();
        match fs::read_dir(dir) {
            Ok(listing) => {
                for entry in listing {
                    names.push(entry?.file_name().to_string_lossy().into_owned());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(disk),
            Err(e) => return Err(e),
        }
        if !names.iter().any(|n| n == HEADER) {
            if names.is_empty() {
                return Ok(disk);
            }
            return Err(std::io::Error::other(format!(
                "{} holds files but no cache header; refusing to use it as a cache",
                dir.display()
            )));
        }
        let fresh = fs::read(dir.join(HEADER))? == disk.header.as_bytes();
        if !fresh {
            eprintln!(
                "rmm-serve: discarding incompatible cache at {}",
                dir.display()
            );
        }
        // Temporary files are writes a stopped server never finished. A
        // stale cache loses its entries, then its header.
        for name in &names {
            if name.ends_with(TEMP) || (!fresh && name.ends_with(ENTRY)) {
                fs::remove_file(dir.join(name))?;
            }
        }
        if fresh {
            *disk.ready.get_mut() = true;
            let entries = names.into_iter().filter(|n| n.ends_with(ENTRY));
            disk.names.get_mut().expect("fresh lock").extend(entries);
        } else {
            fs::remove_file(dir.join(HEADER))?;
        }
        Ok(disk)
    }

    /// Reads the entry for `key` back, or `None` if it does not read
    /// back intact: an I/O error, another key, a digest mismatch, a
    /// stream of the wrong shape.
    ///
    /// The head line and the stream are read into buffers of their own,
    /// so the stream (6 MB for a traced Table 2 cell) is read once and
    /// never moved.
    fn read(&self, name: &str, key: &str) -> Option<Rendered> {
        let file = fs::File::open(self.dir.join(name)).ok()?;
        let mut reader = BufReader::new(file);
        let mut head = String::new();
        reader.read_line(&mut head).ok()?;
        let mut stream = String::new();
        reader.read_to_string(&mut stream).ok()?;
        let seed = head.strip_prefix(key)?.strip_prefix(' ')?;
        let seed = seed.split(' ').next()?.parse().ok()?;
        if entry_head(key, seed, &stream) != head {
            return None;
        }
        Rendered::parse(stream)
    }

    /// Writes the entry for `key` under a temporary name and renames it
    /// into place, creating the directory and its header first if they
    /// are not there yet. Returns the entry's name.
    fn write(&self, key: &str, seed: u64, stream: &str) -> std::io::Result<String> {
        if !self.ready.load(Ordering::Acquire) {
            fs::create_dir_all(&self.dir)?;
            fs::write(self.dir.join(HEADER), &self.header)?;
            self.ready.store(true, Ordering::Release);
        }
        let name = entry_name(key);
        let n = self.writes.fetch_add(1, Ordering::Relaxed);
        let temp = self
            .dir
            .join(format!("{name}.{}.{n}{TEMP}", std::process::id()));
        let written = fs::File::create(&temp)
            .and_then(|mut file| {
                file.write_all(entry_head(key, seed, stream).as_bytes())?;
                file.write_all(stream.as_bytes())
            })
            .and_then(|()| fs::rename(&temp, self.dir.join(&name)));
        if written.is_err() {
            let _ = fs::remove_file(&temp);
        }
        written.map(|()| name)
    }
}

impl CacheStore {
    /// Opens the cache. With `path: None` the cache is memory-only (it
    /// dies with the server). With a path, a cache directory from a
    /// previous server is listed again; a missing path starts empty, and
    /// a stale cache (other schema, other wire protocol, other stored
    /// form, unreadable header) or an old-layout cache file is
    /// *discarded* with a warning. A file that is not a serve cache, or a
    /// non-empty directory without the cache header, is an error.
    pub fn open(path: Option<&Path>, schema: u32) -> std::io::Result<CacheStore> {
        let entries = match path {
            None => Entries::Memory(Mutex::default()),
            Some(dir) => Entries::Disk(Disk::open(dir, cache_header(schema))?),
        };
        Ok(CacheStore {
            entries,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            read_failures: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
        })
    }

    /// Where the entry for `key` lives in the cache directory `dir`.
    pub fn entry_path(dir: &Path, key: &str) -> PathBuf {
        dir.join(entry_name(key))
    }

    /// Looks a cell's stream up by content key, counting a hit or a
    /// miss. A stored entry that does not read back intact — an I/O
    /// error, a digest mismatch, another key, a stream of the wrong
    /// shape — is a miss and a read failure, and leaves the index until
    /// a put writes it again.
    pub fn get(&self, key: &str) -> Option<Arc<Rendered>> {
        let found = match &self.entries {
            Entries::Memory(map) => map.lock().expect("cache index poisoned").get(key).cloned(),
            Entries::Disk(disk) => {
                let name = entry_name(key);
                let stored = disk.names().contains(&name);
                let read = if stored { disk.read(&name, key) } else { None };
                if stored && read.is_none() {
                    self.read_failures.fetch_add(1, Ordering::Relaxed);
                    disk.names().remove(&name);
                }
                read.map(Arc::new)
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
    /// for sending. With a cache directory the key is listed only once
    /// its file has been renamed into place; a failed write leaves the
    /// cell uncached and is counted. Concurrent identical misses may race
    /// here; both store the same bytes, so last-write-wins is harmless.
    pub fn put_rendered(&self, key: &str, seed: u64, rendered: Rendered) -> Arc<Rendered> {
        let rendered = Arc::new(rendered);
        match &self.entries {
            Entries::Memory(map) => {
                map.lock()
                    .expect("cache index poisoned")
                    .insert(key.to_string(), Arc::clone(&rendered));
            }
            Entries::Disk(disk) => match disk.write(key, seed, rendered.text()) {
                Ok(name) => {
                    disk.names().insert(name);
                }
                Err(_) => {
                    self.write_failures.fetch_add(1, Ordering::Relaxed);
                }
            },
        }
        rendered
    }

    /// Number of distinct cached cells.
    pub fn len(&self) -> usize {
        match &self.entries {
            Entries::Memory(map) => map.lock().expect("cache index poisoned").len(),
            Entries::Disk(disk) => disk.names().len(),
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

    /// Puts whose entry could not be written, each leaving its cell
    /// uncached.
    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::Relaxed)
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
        dir.join("cache")
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
        assert!(
            !CacheStore::entry_path(&path, &key).exists(),
            "the stale entry is deleted"
        );
    }

    #[test]
    fn cache_in_the_fnv1a_form_starts_cold() {
        use crate::client::{
            fetch_metrics, local_lines, parse_metric, request_shutdown, submit_one,
        };
        use crate::proto::RunRequest;
        use crate::server::{ServeConfig, Server};
        use rmm_workload::scenario_schema_hash;

        let path = tmp("fnv1a-form");
        let req = RunRequest {
            id: 4,
            protocol: "bmmm".into(),
            scenario: tiny(),
            seed: 12,
            trace: true,
            profile: false,
        };
        let key = cache_key(ProtocolKind::Bmmm, &req.scenario, req.seed, true, false);
        // The directory as earlier builds wrote it: the stored form
        // without its digest, and an entry whose head carries FNV-1a
        // over the key, the seed and the stream.
        let cell = compute_cell(&req.scenario, ProtocolKind::Bmmm, req.seed, true, false);
        let stream = Rendered::render(&cell).text().to_string();
        let mut h = Fnv1a::new();
        h.write_str(&key);
        h.write_u64(req.seed);
        h.write_str(&stream);
        let entry = CacheStore::entry_path(&path, &key);
        fs::create_dir_all(&path).unwrap();
        fs::write(
            path.join(HEADER),
            format!(
                "rmm-serve cache: wire v{PROTO_VERSION}, schema {:#010x}, rendered-stream\n",
                scenario_schema_hash()
            ),
        )
        .unwrap();
        fs::write(
            &entry,
            format!("{key} {} {}\n{stream}", req.seed, hex(h.finish())),
        )
        .unwrap();

        let cache = CacheStore::open(Some(&path), scenario_schema_hash()).unwrap();
        assert!(cache.is_empty(), "the earlier form starts cold");
        assert!(!entry.exists(), "its entry is deleted");
        assert!(cache.get(&key).is_none());
        assert_eq!(cache.read_failures(), 0, "discarded, never read");
        drop(cache);

        let server = Server::start(ServeConfig {
            cache_path: Some(path),
            ..ServeConfig::default()
        })
        .unwrap();
        let addr = server.addr().to_string();
        assert_eq!(submit_one(&addr, &req).unwrap(), local_lines(&req).unwrap());
        let metrics = fetch_metrics(&addr).unwrap();
        assert_eq!(
            parse_metric(&metrics, "rmm_serve_engine_runs_total"),
            Some(1)
        );
        request_shutdown(&addr).unwrap();
        server.join();
    }

    #[test]
    fn digest_covers_the_seed() {
        let path = tmp("digest");
        let s = tiny();
        let key = cache_key(ProtocolKind::Bmw, &s, 5, false, false);
        let cache = CacheStore::open(Some(&path), 7).unwrap();
        cache.put(
            &key,
            5,
            &compute_cell(&s, ProtocolKind::Bmw, 5, false, false),
        );
        let entry = CacheStore::entry_path(&path, &key);
        let intact = fs::read_to_string(&entry).unwrap();
        let reseeded = intact.replacen(&format!("{key} 5 "), &format!("{key} 6 "), 1);
        assert_ne!(reseeded, intact);
        fs::write(&entry, reseeded).unwrap();
        assert!(cache.get(&key).is_none(), "another seed fails the digest");
        assert_eq!(cache.read_failures(), 1);
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
        // Simulate a torn write: truncate one entry's file in half.
        let torn = CacheStore::entry_path(&path, &key(1));
        let bytes = std::fs::read(&torn).unwrap();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        let cache = CacheStore::open(Some(&path), 7).unwrap();
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(
            cache.len(),
            2,
            "intact entries survive, the torn one is dropped"
        );
        for seed in [0, 2] {
            let back = cache.get(&key(seed)).expect("intact entry");
            assert_eq!(
                back.write(seed, false),
                joined(run_response_lines(seed, &cells[seed as usize], false))
            );
        }
        assert_eq!(
            (cache.hits(), cache.misses(), cache.read_failures()),
            (2, 1, 1)
        );
    }

    #[test]
    fn foreign_directory_is_refused_and_left_as_it_is() {
        let dir = tmp("foreign");
        let files = [
            ("notes.txt", "keep me"),
            ("BMMM_0x0000000000000001.entry", "not an entry"),
            ("half.tmp", "not a write of ours"),
        ];
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        for (name, text) in files {
            std::fs::write(dir.join(name), text).unwrap();
        }
        let err = CacheStore::open(Some(&dir), 7).err().expect("refused");
        assert!(err.to_string().contains("no cache header"), "{err}");
        for (name, text) in files {
            assert_eq!(std::fs::read_to_string(dir.join(name)).unwrap(), text);
        }
        assert!(dir.join("sub").is_dir());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 4);

        // A file that is not a serve cache is refused and kept too.
        let file = dir.join("notes.txt");
        let err = CacheStore::open(Some(&file), 7).err().expect("refused");
        assert!(err.to_string().contains("not a cache directory"), "{err}");
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "keep me");
    }
}

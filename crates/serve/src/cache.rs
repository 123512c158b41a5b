//! Content-addressed result cache: one file per cell in a cache
//! directory.
//!
//! Every completed cell is stored under a key derived purely from its
//! *content*: protocol, scenario JSON, seed, and the trace/profile
//! flags, all folded through FNV-1a together with the wire-protocol
//! version. Because the engine is bit-deterministic, replaying a cached
//! cell is byte-identical to recomputing it — the cache is a pure
//! memoization layer, never an approximation.
//!
//! What a cell stores is its response stream, rendered once for the
//! placeholder id 0, not the cell: every answer, the miss that wrote it
//! and each hit, is read back from the entry file and written with its
//! own id (and a hit's `"cached":true`) put in place, with no parse of
//! the cell and no second render ([`Chunk::write_to`]).
//!
//! The cache is a directory: one header file naming the wire version,
//! the scenario *schema* fingerprint and the stored form, and one file
//! per key. An entry file's first line carries the key, the seed and a
//! digest; the rest is the stream, byte for byte. The digest is the
//! stream's XXH64, seeded with the FNV-1a of the key and the seed, so
//! it covers all three (`rmm_fleet::digest` says why the stream gets
//! XXH64). A cell is written by an [`EntryWriter`]: its lines go in
//! whole-line chunks of about [`CHUNK`] bytes into a temporary file
//! under a unique name, each digested and handed back as it is written
//! so that it can be sent at once; the head, whose width is known from
//! the start, goes last into the room reserved for it at offset 0, and
//! the file is renamed into place. A reader sees a whole entry or none,
//! and a key stored twice is still one file. Nothing is synced: an
//! entry that a power loss tears fails its digest and is recomputed.
//! Memory holds only the names of the entry files: [`CacheStore::open`]
//! reads the header and lists the directory, and a hit reads its one
//! file through one buffer of at most [`CHUNK`] bytes, checks the key
//! and the digest, and hands the stream over: the bytes it read, when
//! the entry fit in the buffer (an untraced cell does), else the open
//! file. A failed read is a miss counted as a read
//! failure, and costs only that entry. A failed write or rename leaves
//! the cell uncached and is counted as a write failure; the chunks not
//! yet written are then handed back in memory, so the answer is whole.
//! A given directory and its header are created by the first write.
//!
//! A store opened without a path keeps its entries in a private
//! directory under the system's temporary directory: one it creates
//! itself under a fresh name, readable by its user alone, with its
//! header written at once and held locked (`flock`) while the store
//! lives. The store deletes it when it drops. A server that is killed
//! never drops its store, but the kernel frees its lock, so the next
//! private store to open removes that directory (see [`sweep`]).
//!
//! A header written by a build with a different scenario layout, wire
//! protocol or stored form (which names the entry digest, so a cache of
//! FNV-1a digests is stale), or a serve-cache manifest file at the path
//! (the layout earlier builds wrote), is discarded with a warning: a
//! stale cache is never an error, just a cold start. A non-empty
//! directory without the header is an error, so `open` deletes only
//! what the cache wrote.

use crate::proto::{
    event_line, profile_line, result_line, started_line, write_spliced, ServeCell, PROTO_VERSION,
};
use rmm_fleet::{hex, Fnv1a, ManifestHeader, Xxh64};
use rmm_mac::ProtocolKind;
use rmm_sim::{Trace, TraceEvent, TraceSink};
use rmm_stats::ProfileReport;
use rmm_workload::{RunResult, Scenario};
use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::ops::Range;
use std::os::unix::fs::{DirBuilderExt, FileExt, MetadataExt};
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

/// The bytes an entry's stream is written, sent and read back in: each
/// chunk of a miss holds whole lines and is at least this long (all but
/// the last), and a hit is read through a buffer of at most this size.
pub const CHUNK: usize = 64 << 10;

/// The width of an entry head's digest and newline: `0x`, 16 hex
/// digits, `\n`.
const DIGEST_WIDTH: usize = 19;

/// How the name of a private cache directory starts; the process id
/// and a count follow: `rmm-serve-private-<pid>-<n>`.
const PRIVATE_PREFIX: &str = "rmm-serve-private-";

/// Numbers the private directories of this process's stores.
static PRIVATE: AtomicU64 = AtomicU64::new(0);

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

/// The serve-side result cache over a cache directory. All methods take
/// `&self`; the store is shared across connection threads behind an
/// `Arc`.
pub struct CacheStore {
    disk: Disk,
    /// The locked header of a private directory, which the store
    /// deletes when it drops.
    private: Option<File>,
    hits: AtomicU64,
    misses: AtomicU64,
    read_failures: AtomicU64,
    write_failures: AtomicU64,
}

/// A cache directory and the names of the entry files in it.
struct Disk {
    dir: PathBuf,
    /// The header this build writes and accepts.
    header: String,
    /// Whether the directory holds that header yet. Set with `Release`
    /// after the header is written, read with `Acquire`, so a write that
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

/// The seed of an entry's digest: the FNV-1a of its key and its seed.
fn digest_seed(key: &str, seed: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str(key);
    h.write_u64(seed);
    h.finish()
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

/// Whether `name` is a private directory's: `rmm-serve-private-<pid>-<n>`.
fn is_private_name(name: &str) -> bool {
    let digits = |s: &str| !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit());
    name.strip_prefix(PRIVATE_PREFIX)
        .and_then(|rest| rest.split_once('-'))
        .is_some_and(|(pid, n)| digits(pid) && digits(n))
}

/// Removes the private cache directories under `tmp` whose stores are
/// gone: a server that is killed never drops its store. Such a
/// directory (not a link to one) is `uid`'s, has a private directory's
/// name, and holds a whole header line that no store holds locked — the
/// kernel frees the lock of a process that exits. A header not yet
/// written is a store still opening, and is left alone.
fn sweep(tmp: &Path, uid: u32) {
    let Ok(listing) = fs::read_dir(tmp) else {
        return;
    };
    for entry in listing.flatten() {
        let left = is_private_name(&entry.file_name().to_string_lossy())
            && entry.metadata().is_ok_and(|m| m.is_dir() && m.uid() == uid)
            && File::open(entry.path().join(HEADER)).is_ok_and(|header| {
                let mut line = String::new();
                header.try_lock().is_ok()
                    && (&header).take(4096).read_to_string(&mut line).is_ok()
                    && line.starts_with("rmm-serve cache:")
                    && line.ends_with('\n')
            });
        if left {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
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

    /// Makes a private cache directory under `tmp`, then removes those
    /// that killed servers left there ([`sweep`]). The directory is one
    /// this call creates under a fresh name, readable by its user
    /// alone, never one that was there before. Its header is written at
    /// once and held locked by the returned file while the store lives.
    fn private(tmp: &Path, header: String) -> std::io::Result<(Disk, File)> {
        let dir = loop {
            let n = PRIVATE.fetch_add(1, Ordering::Relaxed);
            let dir = tmp.join(format!("{PRIVATE_PREFIX}{}-{n}", std::process::id()));
            match fs::DirBuilder::new().mode(0o700).create(&dir) {
                Ok(()) => break dir,
                Err(e) if e.kind() == ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        };
        let lock = File::create_new(dir.join(HEADER))
            .and_then(|lock| {
                lock.lock()?;
                (&lock).write_all(header.as_bytes())?;
                Ok(lock)
            })
            .inspect_err(|_| {
                let _ = fs::remove_dir_all(&dir);
            })?;
        sweep(tmp, fs::metadata(&dir)?.uid());
        let disk = Disk {
            dir,
            header,
            ready: AtomicBool::new(true),
            names: Mutex::default(),
            writes: AtomicU64::new(0),
        };
        Ok((disk, lock))
    }

    /// Reads the entry `name` for `key` back and checks it, through one
    /// buffer of at most [`CHUNK`] bytes (a whole untraced entry in one
    /// read): the head must name `key` and the digest must match.
    /// Returns the stream as the bytes read when the entry fit in the
    /// buffer, or else as the open file and its stream's range; `None`
    /// if the entry does not read back intact.
    fn read(&self, name: &str, key: &str) -> Option<Chunk> {
        let file = File::open(self.dir.join(name)).ok()?;
        let len = file.metadata().ok()?.len();
        let mut buf = vec![0; CHUNK.min(len as usize)];
        file.read_exact_at(&mut buf, 0).ok()?;
        let stream = buf.iter().position(|&b| b == b'\n')? + 1;
        let head = String::from_utf8(buf[..stream].to_vec()).ok()?;
        let (seed, digest) = head.strip_prefix(key)?.strip_prefix(' ')?.split_once(' ')?;
        let mut h = Xxh64::new(digest_seed(key, seed.parse().ok()?));
        h.update(&buf[stream..]);
        let mut at = buf.len() as u64;
        while at < len {
            let n = CHUNK.min((len - at) as usize);
            file.read_exact_at(&mut buf[..n], at).ok()?;
            h.update(&buf[..n]);
            at += n as u64;
        }
        if digest.strip_suffix('\n')? != hex(h.finish()) {
            return None;
        }
        Some(if len as usize == buf.len() {
            buf.drain(..stream);
            Chunk::Bytes(buf)
        } else {
            Chunk::File {
                file: Arc::new(file),
                range: stream as u64..len,
            }
        })
    }

    /// Creates the directory and its header if they are not there yet,
    /// then a temporary file for the entry `name` with `room` bytes
    /// reserved for its head.
    fn create(&self, name: &str, room: usize) -> std::io::Result<(File, PathBuf)> {
        if !self.ready.load(Ordering::Acquire) {
            fs::create_dir_all(&self.dir)?;
            fs::write(self.dir.join(HEADER), &self.header)?;
            self.ready.store(true, Ordering::Release);
        }
        let n = self.writes.fetch_add(1, Ordering::Relaxed);
        let temp = self
            .dir
            .join(format!("{name}.{}.{n}{TEMP}", std::process::id()));
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&temp)?;
        if let Err(e) = (&file).write_all(&vec![b' '; room]) {
            let _ = fs::remove_file(&temp);
            return Err(e);
        }
        Ok((file, temp))
    }
}

/// Whole response lines of one stored stream, each with the
/// placeholder id 0: a byte range of the entry's file, or the bytes
/// themselves, when the hit read them whole or the file could not be
/// written. A hit is one chunk, its whole stream; a miss is the chunks
/// its [`EntryWriter`] hands back.
#[derive(Debug)]
pub enum Chunk {
    /// Bytes `range` of an open entry file.
    File {
        /// The entry file, open for reading.
        file: Arc<File>,
        /// Where the lines lie in it.
        range: Range<u64>,
    },
    /// Lines held in memory: at most about [`CHUNK`] bytes of them.
    Bytes(Vec<u8>),
}

impl Chunk {
    /// Writes the lines as the answer to request `id`: every line's id
    /// put in place and, when `cached`, the `Result` line's flag
    /// flipped. A file's range is read back through a buffer of about
    /// [`CHUNK`] bytes, whole lines at a time.
    pub fn write_to(&self, id: u64, cached: bool, out: &mut impl Write) -> std::io::Result<()> {
        let (file, range) = match self {
            Chunk::Bytes(bytes) => return write_spliced(bytes, id, cached, out),
            Chunk::File { file, range } => (file, range),
        };
        let mut buf = Vec::new();
        let mut at = range.start;
        while at < range.end {
            let kept = buf.len();
            let n = CHUNK.min((range.end - at) as usize);
            buf.resize(kept + n, 0);
            file.read_exact_at(&mut buf[kept..], at)?;
            at += n as u64;
            let whole = if at == range.end {
                buf.len()
            } else {
                buf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)
            };
            write_spliced(&buf[..whole], id, cached, out)?;
            buf.drain(..whole);
        }
        Ok(())
    }
}

/// One entry being written: its response stream, rendered line by line
/// for the placeholder id 0 and not cached, in whole-line chunks of
/// about [`CHUNK`] bytes appended to a temporary file and digested as
/// they go. [`EntryWriter::write_run`] hands each chunk on once it is
/// full, so the stream can be sent while it is written, and ends with
/// the `Result` line, the head put in its room at offset 0 and the file
/// renamed into place. Dropped unfinished (a run that panicked), it
/// deletes its temporary file.
pub struct EntryWriter {
    /// The temporary file, until a write to it fails.
    file: Option<Arc<File>>,
    /// Its path, until it is renamed or deleted.
    temp: Option<PathBuf>,
    name: String,
    /// The head without its digest: `<key> <seed> `.
    head: String,
    digest: Xxh64,
    /// Where the next chunk goes in the file.
    end: u64,
    /// Lines not yet written.
    text: String,
}

impl EntryWriter {
    /// Appends the `Started` line.
    fn started(&mut self) -> Option<Chunk> {
        started_line(&mut self.text);
        self.full()
    }

    /// Appends one `Event` line.
    fn event(&mut self, event: &TraceEvent) -> Option<Chunk> {
        event_line(&mut self.text, event);
        self.full()
    }

    /// Appends the `Profile` line.
    fn profile(&mut self, profile: &ProfileReport) -> Option<Chunk> {
        profile_line(&mut self.text, profile);
        self.full()
    }

    /// Writes the lines held once they fill a chunk.
    fn full(&mut self) -> Option<Chunk> {
        (self.text.len() >= CHUNK).then(|| self.flush())
    }

    /// Writes the lines held to the file and digests them, or, once the
    /// file has failed, hands them back in memory.
    fn flush(&mut self) -> Chunk {
        if let Some(file) = &self.file {
            match (&**file).write_all(self.text.as_bytes()) {
                Ok(()) => {
                    self.digest.update(self.text.as_bytes());
                    let start = self.end;
                    self.end += self.text.len() as u64;
                    self.text.clear();
                    return Chunk::File {
                        file: Arc::clone(file),
                        range: start..self.end,
                    };
                }
                Err(_) => self.fail(),
            }
        }
        let text = std::mem::replace(&mut self.text, String::with_capacity(CHUNK));
        Chunk::Bytes(text.into_bytes())
    }

    /// Gives the file up: the cell will not be cached.
    fn fail(&mut self) {
        self.file = None;
        if let Some(temp) = self.temp.take() {
            let _ = fs::remove_file(temp);
        }
    }

    /// Ends the stream with the `Result` line, writes the head, renames
    /// the entry into place and lists it in `cache`, counting a failed
    /// write there. Returns the last chunk, which is to be sent only now
    /// that the entry is stored.
    fn finish(mut self, result: &RunResult, cache: &CacheStore) -> Chunk {
        result_line(&mut self.text, result);
        let last = self.flush();
        if let (Some(file), Some(temp)) = (&self.file, &self.temp) {
            let head = format!("{}{}\n", self.head, hex(self.digest.finish()));
            let stored = file
                .write_all_at(head.as_bytes(), 0)
                .and_then(|()| fs::rename(temp, cache.disk.dir.join(&self.name)));
            match stored {
                Ok(()) => {
                    self.temp = None;
                    cache.disk.names().insert(self.name.clone());
                }
                Err(_) => self.fail(),
            }
        }
        if self.file.is_none() {
            cache.write_failures.fetch_add(1, Ordering::Relaxed);
        }
        last
    }

    /// Writes the stream of the cell that `run` computes and finishes
    /// the entry: the `Started` line at once; when `traced`, each event
    /// as the run emits it into the trace it is handed, which forwards
    /// to this entry; then the cell's `Profile` and `Result` lines. Each
    /// chunk but the last goes to `send` as soon as the file holds it.
    /// The last, with the `Result` line, is returned once the entry is
    /// stored. A served miss and [`CacheStore::put`] both write through
    /// here.
    pub fn write_run<S>(
        self,
        cache: &CacheStore,
        traced: bool,
        send: S,
        run: impl FnOnce(Option<Trace>) -> ServeCell,
    ) -> Chunk
    where
        S: FnMut(Chunk) + Send + 'static,
    {
        let mut live = Live { entry: self, send };
        let chunk = live.entry.started();
        live.pass(chunk);
        let (cell, mut live) = if traced {
            let mut cell = run(Some(Trace::forward(live)));
            let live = cell.trace.take().and_then(Trace::into_sink::<Live<S>>);
            (cell, live.expect("the run hands its trace back"))
        } else {
            (run(None), live)
        };
        if let Some(profile) = &cell.profile {
            let chunk = live.entry.profile(profile);
            live.pass(chunk);
        }
        live.entry.finish(&cell.result, cache)
    }
}

/// An entry being written and where its chunks go. It is the sink of a
/// traced run's trace, so each event is in the entry, and on its way,
/// as the engine emits it.
struct Live<S> {
    entry: EntryWriter,
    send: S,
}

impl<S: FnMut(Chunk)> Live<S> {
    fn pass(&mut self, chunk: Option<Chunk>) {
        if let Some(chunk) = chunk {
            (self.send)(chunk);
        }
    }
}

impl<S: FnMut(Chunk) + Send + 'static> TraceSink for Live<S> {
    fn event(&mut self, event: TraceEvent) {
        let chunk = self.entry.event(&event);
        self.pass(chunk);
    }
}

impl Drop for EntryWriter {
    fn drop(&mut self) {
        if let Some(temp) = self.temp.take() {
            let _ = fs::remove_file(temp);
        }
    }
}

impl CacheStore {
    /// Opens the cache. With `path: None` the entries live in a private
    /// directory that the store creates and deletes when it drops. With a path, a
    /// cache directory from a previous server is listed again; a
    /// missing path starts empty, and a stale cache (other schema, other
    /// wire protocol, other stored form, unreadable header) or an
    /// old-layout cache file is *discarded* with a warning. A file that
    /// is not a serve cache, or a non-empty directory without the cache
    /// header, is an error.
    pub fn open(path: Option<&Path>, schema: u32) -> std::io::Result<CacheStore> {
        let header = cache_header(schema);
        let (disk, private) = match path {
            Some(dir) => (Disk::open(dir, header)?, None),
            None => {
                let (disk, lock) = Disk::private(&std::env::temp_dir(), header)?;
                (disk, Some(lock))
            }
        };
        Ok(CacheStore {
            disk,
            private,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            read_failures: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.disk.dir
    }

    /// Where the entry for `key` lives in the cache directory `dir`.
    pub fn entry_path(dir: &Path, key: &str) -> PathBuf {
        dir.join(entry_name(key))
    }

    /// Looks a cell's stream up by content key, counting a hit or a
    /// miss. A hit is the entry's stream, checked against its digest. A stored entry that does not read back intact — an
    /// I/O error, a digest mismatch, another key — is a miss and a read
    /// failure, and leaves the index until a put writes it again.
    pub fn get(&self, key: &str) -> Option<Chunk> {
        let name = entry_name(key);
        let stored = self.disk.names().contains(&name);
        let found = if stored {
            self.disk.read(&name, key)
        } else {
            None
        };
        if stored && found.is_none() {
            self.read_failures.fetch_add(1, Ordering::Relaxed);
            self.disk.names().remove(&name);
        }
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Starts writing the entry for `key`. With a cache directory the
    /// key is listed only once its file has been renamed into place; a
    /// failed write leaves the cell uncached and is counted. Concurrent
    /// identical misses may race here; both store the same bytes, so
    /// last-write-wins is harmless.
    pub fn begin(&self, key: &str, seed: u64) -> EntryWriter {
        let head = format!("{key} {seed} ");
        let name = entry_name(key);
        let created = self.disk.create(&name, head.len() + DIGEST_WIDTH);
        let room = (head.len() + DIGEST_WIDTH) as u64;
        let (file, temp) = created.ok().unzip();
        EntryWriter {
            file: file.map(Arc::new),
            temp,
            name,
            head,
            digest: Xxh64::new(digest_seed(key, seed)),
            end: room,
            text: String::with_capacity(CHUNK),
        }
    }

    /// Renders one completed cell and stores it under its content key:
    /// [`EntryWriter::write_run`] with a run that replays the cell.
    pub fn put(&self, key: &str, seed: u64, cell: &ServeCell) {
        let replay = |trace: Option<Trace>| ServeCell {
            result: cell.result.clone(),
            trace: trace.map(|mut trace| {
                for event in cell.trace.iter().flat_map(Trace::events) {
                    trace.push(event.clone());
                }
                trace
            }),
            profile: cell.profile.clone(),
        };
        let traced = cell.trace.is_some();
        self.begin(key, seed).write_run(self, traced, drop, replay);
    }

    /// Number of distinct cached cells.
    pub fn len(&self) -> usize {
        self.disk.names().len()
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

    /// Entries that could not be written, each leaving its cell
    /// uncached.
    pub fn write_failures(&self) -> u64 {
        self.write_failures.load(Ordering::Relaxed)
    }
}

impl Drop for CacheStore {
    fn drop(&mut self) {
        // The lock goes after the directory, once the store's fields
        // drop.
        if self.private.is_some() {
            let _ = fs::remove_dir_all(&self.disk.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{compute_cell, run_cell, run_response_lines};

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

    /// Runs a cell into its entry as a served miss does, each event
    /// forwarded as the engine emits it. Returns the chunks streamed,
    /// the last one too, and the cell: its events as a run of its own
    /// records them, its result and wall-clock profile the streamed
    /// run's.
    fn stream(
        cache: &CacheStore,
        s: &Scenario,
        protocol: ProtocolKind,
        seed: u64,
        trace: bool,
        profile: bool,
    ) -> (Vec<Chunk>, ServeCell) {
        let key = cache_key(protocol, s, seed, trace, profile);
        let (tx, rx) = std::sync::mpsc::channel();
        let mut ran = None;
        let send = move |chunk| tx.send(chunk).unwrap();
        let last = cache.begin(&key, seed).write_run(cache, trace, send, |t| {
            let cell = run_cell(s, protocol, seed, t, profile);
            ran = Some((cell.result.clone(), cell.profile.clone()));
            cell
        });
        let (result, profile) = ran.unwrap();
        let cell = ServeCell {
            result,
            trace: compute_cell(s, protocol, seed, trace, false).trace,
            profile,
        };
        (rx.try_iter().chain([last]).collect(), cell)
    }

    /// What a server writes for a hit's `chunk`, answering request `id`.
    fn served(chunk: &Chunk, id: u64, cached: bool) -> Vec<u8> {
        let mut out = Vec::new();
        chunk.write_to(id, cached, &mut out).unwrap();
        out
    }

    #[test]
    fn memory_cache_round_trips_and_counts() {
        // A store without a path: its private directory goes with it.
        let cache = CacheStore::open(None, 7).unwrap();
        let dir = cache.dir().to_path_buf();
        let s = tiny();
        let key = cache_key(ProtocolKind::Lamm, &s, 3, true, false);
        assert!(cache.get(&key).is_none());
        let cell = compute_cell(&s, ProtocolKind::Lamm, 3, true, false);
        cache.put(&key, 3, &cell);
        let back = cache.get(&key).expect("cached");
        for cached in [false, true] {
            assert_eq!(
                served(&back, 3, cached),
                joined(run_response_lines(3, &cell, cached))
            );
        }
        assert_eq!(
            (cache.hits(), cache.misses(), cache.read_failures()),
            (1, 1, 0)
        );
        assert!(CacheStore::entry_path(&dir, &key).is_file());
        drop(cache);
        assert!(!dir.exists(), "the private directory is deleted");
        assert_eq!(
            served(&back, 4, true),
            joined(run_response_lines(4, &cell, true)),
            "an open entry outlives its directory"
        );
    }

    #[test]
    fn a_private_directory_is_made_fresh_and_swept_once_its_store_is_gone() {
        use std::os::unix::fs::PermissionsExt;
        let base = tmp("private");
        let base = base.parent().unwrap();
        let header = cache_header(7);
        let name = |pid: u32, n: u64| base.join(format!("{PRIVATE_PREFIX}{pid}-{n}"));
        let (live, _live_lock) = Disk::private(base, header.clone()).unwrap();
        // Names this process's next stores would take, made by someone
        // else: the store passes them by.
        let next = PRIVATE.load(Ordering::Relaxed);
        let pid = std::process::id();
        let taken: Vec<PathBuf> = (next..next + 3).map(|n| name(pid, n)).collect();
        for dir in &taken {
            fs::create_dir(dir).unwrap();
            fs::write(dir.join("notes.txt"), "not a cache").unwrap();
        }
        // What a killed server leaves: a whole header no store holds
        // locked, and an entry. A store that was still opening has not
        // written its header yet.
        let (dead, opening) = (name(1, 0), name(1, 1));
        for dir in [&dead, &opening] {
            fs::create_dir(dir).unwrap();
        }
        fs::write(dead.join(HEADER), &header).unwrap();
        fs::write(dead.join("BMMM_0x0000000000000001.entry"), "a stream").unwrap();
        fs::write(opening.join(HEADER), "").unwrap();

        let (disk, _lock) = Disk::private(base, header.clone()).unwrap();
        assert!(!taken.contains(&disk.dir), "{}", disk.dir.display());
        let mode = fs::metadata(&disk.dir).unwrap().permissions().mode();
        assert_eq!(mode & 0o777, 0o700, "readable by its user alone");
        assert_eq!(fs::read_to_string(disk.dir.join(HEADER)).unwrap(), header);
        assert!(!dead.exists(), "a killed server's directory is swept");
        assert!(opening.is_dir(), "an unwritten header is left alone");
        assert!(live.dir.join(HEADER).is_file(), "a live store's is kept");
        for dir in &taken {
            assert!(dir.join("notes.txt").is_file(), "{}", dir.display());
        }
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
            served(&back, 8, true),
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
        let stream = String::from_utf8(joined(run_response_lines(0, &cell, false))).unwrap();
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
    fn an_entry_that_cannot_be_written_streams_from_memory() {
        let path = tmp("unwritable");
        let cache = CacheStore::open(Some(&path), 7).unwrap();
        // A file where the cache directory belongs: no entry can be
        // created, so every chunk is handed back in memory.
        fs::write(&path, "in the way").unwrap();
        let s = Scenario {
            n_nodes: 30,
            sim_slots: 1_500,
            ..tiny()
        };
        let (chunks, cell) = stream(&cache, &s, ProtocolKind::Lamm, 3, true, true);
        let key = cache_key(ProtocolKind::Lamm, &s, 3, true, true);
        assert!(chunks.len() > 1);
        assert!(chunks.iter().all(|c| matches!(c, Chunk::Bytes(_))));
        let mut out = Vec::new();
        for chunk in &chunks {
            chunk.write_to(3, false, &mut out).unwrap();
        }
        assert_eq!(out, joined(run_response_lines(3, &cell, false)));
        assert_eq!((cache.write_failures(), cache.len()), (1, 0));
        assert!(cache.get(&key).is_none());
    }

    #[test]
    fn entries_keep_the_stored_form() {
        // An entry as earlier builds wrote it, whole: the head with the
        // one-shot XXH64 of the stream, then the stream for id 0.
        let path = tmp("stored-form");
        let s = tiny();
        let cell = compute_cell(&s, ProtocolKind::Bmmm, 4, true, false);
        let key = cache_key(ProtocolKind::Bmmm, &s, 4, true, false);
        let stream = joined(run_response_lines(0, &cell, false));
        let digest = rmm_fleet::xxh64(&stream, digest_seed(&key, 4));
        let mut entry = format!("{key} 4 {}\n", hex(digest)).into_bytes();
        entry.extend_from_slice(&stream);
        {
            let cache = CacheStore::open(Some(&path), 7).unwrap();
            cache.put(&key, 4, &cell);
        }
        let written = CacheStore::entry_path(&path, &key);
        assert_eq!(fs::read(&written).unwrap(), entry, "a put writes that form");
        let cache = CacheStore::open(Some(&path), 7).unwrap();
        let back = cache.get(&key).expect("that form is served");
        assert_eq!(
            served(&back, 6, true),
            joined(run_response_lines(6, &cell, true))
        );
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
                served(&back, seed, false),
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

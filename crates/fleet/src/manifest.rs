//! The crash-safe sweep manifest: `results/<sweep>.manifest.jsonl`.
//!
//! Line 1 is a header binding the manifest to one sweep configuration
//! (an options hash over the full job grid); every following line is one
//! completed job with a digest of its serialized result. Lines are
//! appended and flushed as jobs finish, so a killed sweep leaves a
//! prefix of valid lines plus at most one truncated tail line — which
//! [`Manifest::load`] tolerates by dropping it. A manifest whose header
//! does not match the sweep being run (options changed, different grid)
//! is *stale* and is rejected rather than silently merged.
//!
//! An open manifest also reads single entries back by position: an
//! append reports the [`EntrySpan`] it landed at, and
//! [`Manifest::read_entry`] re-reads and re-checks that one line. The
//! serve cache keeps only these spans in memory.

use crate::digest::hex;
use crate::id::JobId;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Manifest format version (bumped on incompatible layout changes).
/// Version 2 added the `schema` field to the header.
pub const MANIFEST_VERSION: u32 = 2;

/// The first line of a manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestHeader {
    /// Sweep (experiment) name.
    pub sweep: String,
    /// Hash over the sweep's options and full job grid.
    pub options_hash: String,
    /// Total jobs in the sweep.
    pub jobs: usize,
    /// Format version.
    pub version: u32,
    /// Fingerprint of the *result/scenario serialization shape* the
    /// entries were written under (see
    /// `rmm_workload::scenario_schema_hash`). The options hash covers
    /// the option *values*; this covers the field layout itself, so a
    /// `Scenario` refactor that keeps old option strings valid still
    /// invalidates cached entries instead of silently resurrecting
    /// stale digests.
    pub schema: u32,
}

/// One completed-job line.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    id: JobId,
    /// FNV-1a 64 over the id fields and the `result` string, as `0x…`
    /// (see [`entry_digest`]).
    digest: String,
    /// The job's result, serialized to JSON (stored as a string so the
    /// digest covers the exact bytes that will be parsed on resume).
    result: String,
}

/// Why a manifest could not be loaded for resume.
#[derive(Debug)]
pub enum ManifestError {
    /// No manifest at the path (fresh start).
    Missing,
    /// The header does not match the sweep being resumed.
    Stale {
        /// What the running sweep expects.
        expected: Box<ManifestHeader>,
        /// What the file contains.
        found: Box<ManifestHeader>,
    },
    /// The header line is unreadable.
    Corrupt(String),
    /// Filesystem error.
    Io(std::io::Error),
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Missing => write!(f, "no manifest to resume from"),
            ManifestError::Stale { expected, found } => write!(
                f,
                "stale manifest: expected sweep `{}` hash {} schema {:#010x} over {} jobs, \
                 found sweep `{}` hash {} schema {:#010x} over {} jobs — \
                 rerun without --resume to start fresh",
                expected.sweep,
                expected.options_hash,
                expected.schema,
                expected.jobs,
                found.sweep,
                found.options_hash,
                found.schema,
                found.jobs
            ),
            ManifestError::Corrupt(why) => write!(
                f,
                "corrupt manifest: {why} — likely written by an older \
                 build; rerun without --resume to start fresh"
            ),
            ManifestError::Io(e) => write!(f, "manifest I/O error: {e}"),
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<std::io::Error> for ManifestError {
    fn from(e: std::io::Error) -> Self {
        ManifestError::Io(e)
    }
}

/// Where one entry line sits in a manifest file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntrySpan {
    /// Byte offset of the line's first byte.
    pub offset: u64,
    /// Length of the line in bytes, its newline excluded.
    pub len: u64,
}

/// An open manifest being appended to by the running sweep.
pub struct Manifest {
    path: PathBuf,
    writer: Mutex<Writer>,
    reader: Mutex<File>,
}

/// The append handle and the file length it has written.
struct Writer {
    file: File,
    end: u64,
}

impl Manifest {
    /// Creates (or atomically replaces) the manifest with `header` and
    /// the already-completed `preserved` entries, then leaves it open
    /// for appends. The rewrite goes through a temp file + rename so a
    /// crash mid-rewrite never destroys the previous manifest.
    pub fn create(
        path: &Path,
        header: &ManifestHeader,
        preserved: &[(JobId, String)],
    ) -> Result<Manifest, ManifestError> {
        Manifest::create_indexed(path, header, preserved).map(|(manifest, _)| manifest)
    }

    /// [`Manifest::create`], also returning where each `preserved`
    /// entry landed, in order.
    pub fn create_indexed(
        path: &Path,
        header: &ManifestHeader,
        preserved: &[(JobId, String)],
    ) -> Result<(Manifest, Vec<EntrySpan>), ManifestError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("jsonl.tmp");
        let mut out = BufWriter::new(File::create(&tmp)?);
        let head = serde_json::to_string(header).expect("header serializes");
        writeln!(out, "{head}")?;
        let mut end = head.len() as u64 + 1;
        let mut spans = Vec::with_capacity(preserved.len());
        for (id, result) in preserved {
            let line = entry_line(id, result);
            out.write_all(line.as_bytes())?;
            spans.push(EntrySpan {
                offset: end,
                len: line.len() as u64 - 1,
            });
            end += line.len() as u64;
        }
        let file = out.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        let manifest = Manifest {
            path: path.to_path_buf(),
            writer: Mutex::new(Writer { file, end }),
            reader: Mutex::new(File::open(path)?),
        };
        Ok((manifest, spans))
    }

    /// Appends one completed job and flushes, so the line survives a
    /// kill right after.
    pub fn append(&self, id: &JobId, result_json: &str) {
        // A failed append must not kill the sweep (the results are still
        // merged in memory); it only costs resumability of this job.
        let _ = self.append_entry(id, result_json);
    }

    /// [`Manifest::append`], reporting where the line landed once it is
    /// flushed, or the error. A failed append cuts the file back to
    /// where the line began, so no torn line sits in front of later
    /// appends and stops [`Manifest::load`] short of them.
    pub fn append_entry(&self, id: &JobId, result_json: &str) -> std::io::Result<EntrySpan> {
        let line = entry_line(id, result_json);
        let mut writer = self.writer.lock().expect("manifest writer poisoned");
        let Writer { file, end } = &mut *writer;
        let offset = *end;
        let written = file.write_all(line.as_bytes()).and_then(|()| file.flush());
        if let Err(e) = written {
            let _ = file.set_len(offset);
            let _ = file.seek(SeekFrom::Start(offset));
            return Err(e);
        }
        *end += line.len() as u64;
        Ok(EntrySpan {
            offset,
            len: line.len() as u64 - 1,
        })
    }

    /// Reads the entry at `span` back and checks its digest, as
    /// [`Manifest::load`] checks every line. A span that does not hold
    /// one intact entry is [`ManifestError::Corrupt`].
    pub fn read_entry(&self, span: EntrySpan) -> Result<(JobId, String), ManifestError> {
        let corrupt =
            |why: String| ManifestError::Corrupt(format!("entry at byte {}: {why}", span.offset));
        let len = usize::try_from(span.len).map_err(|e| corrupt(e.to_string()))?;
        let mut bytes = vec![0; len];
        {
            let mut file = self.reader.lock().expect("manifest reader poisoned");
            file.seek(SeekFrom::Start(span.offset))?;
            file.read_exact(&mut bytes)?;
        }
        let line = String::from_utf8(bytes).map_err(|e| corrupt(e.to_string()))?;
        intact_entry(&line).map_err(corrupt)
    }

    /// Where this manifest lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads a manifest back for `--resume`, validating the header
    /// against the sweep about to run and each line's digest against its
    /// stored result. Reading stops at the first unparseable or
    /// digest-mismatched line (the truncated tail of a killed run);
    /// everything before it is returned as `(id, result_json)` pairs.
    pub fn load(
        path: &Path,
        expected: &ManifestHeader,
    ) -> Result<Vec<(JobId, String)>, ManifestError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ManifestError::Missing)
            }
            Err(e) => return Err(e.into()),
        };
        let mut lines = text.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| ManifestError::Corrupt("empty file".into()))?;
        let found: ManifestHeader = serde_json::from_str(header_line)
            .map_err(|e| ManifestError::Corrupt(format!("bad header: {e}")))?;
        if found != *expected {
            return Err(ManifestError::Stale {
                expected: Box::new(expected.clone()),
                found: Box::new(found),
            });
        }
        let mut entries = Vec::new();
        for line in lines {
            // A truncated tail of a killed sweep, bit-rot or a torn
            // write: stop trusting the file.
            let Ok(entry) = intact_entry(line) else {
                break;
            };
            entries.push(entry);
        }
        Ok(entries)
    }
}

/// Parses one entry line and checks its digest.
fn intact_entry(line: &str) -> Result<(JobId, String), String> {
    let entry: Entry = serde_json::from_str(line).map_err(|e| e.to_string())?;
    if entry_digest(&entry.id, &entry.result) != entry.digest {
        return Err("digest mismatch".into());
    }
    Ok((entry.id, entry.result))
}

/// FNV-1a over the id *and* the result bytes. Covering the id matters:
/// bit-rot inside the id field would otherwise produce a valid-looking
/// entry under a forged identity, which on resume could mark a
/// different pending job as already done.
fn entry_digest(id: &JobId, result_json: &str) -> String {
    let mut h = crate::digest::Fnv1a::new();
    h.write_str(&id.experiment);
    h.write_str(&id.point);
    h.write_u64(id.seed);
    h.write_str(result_json);
    hex(h.finish())
}

/// One entry line, its newline included: the text the derived [`Entry`]
/// serializes to, written straight into one buffer sized for it. The
/// result is escaped into place, never copied first; JSON text grows by
/// about a fifth when escaped (its quotes and newlines), so a quarter
/// is reserved.
fn entry_line(id: &JobId, result_json: &str) -> String {
    let digest = entry_digest(id, result_json);
    let mut line = String::with_capacity(
        64 + id.experiment.len() + id.point.len() + digest.len() + result_json.len() * 5 / 4,
    );
    line.push_str("{\"id\":");
    id.write_json(&mut line);
    line.push_str(",\"digest\":");
    digest.write_json(&mut line);
    line.push_str(",\"result\":");
    result_json.write_json(&mut line);
    line.push_str("}\n");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(jobs: usize) -> ManifestHeader {
        ManifestHeader {
            sweep: "test".into(),
            options_hash: "0x00000000deadbeef".into(),
            jobs,
            version: MANIFEST_VERSION,
            schema: 7,
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rmm_fleet_manifest_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn entry_lines_are_the_derived_entry_text() {
        let results = [
            String::new(),
            "{\"v\":1}".to_string(),
            "{\"s\":\"a\\\"b\\\\c\\n\"}\n{\"t\":\"é€😀\\u0001\"}\n".to_string(),
            "\u{0}\u{1f}\t\r\u{8}\u{c}".to_string(),
        ];
        for (seed, result) in results.iter().enumerate() {
            let id = JobId::new("ext_fer", format!("fer=0.05/\"{seed}\""), seed as u64);
            let entry = Entry {
                id: id.clone(),
                digest: entry_digest(&id, result),
                result: result.clone(),
            };
            let want = serde_json::to_value(&entry).to_string() + "\n";
            assert_eq!(entry_line(&id, result), want);
        }
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = tempdir("roundtrip");
        let path = dir.join("test.manifest.jsonl");
        let m = Manifest::create(&path, &header(3), &[]).unwrap();
        m.append(&JobId::new("test", "p", 0), "{\"v\":1}");
        m.append(&JobId::new("test", "p", 1), "{\"v\":2}");
        let loaded = Manifest::load(&path, &header(3)).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].0, JobId::new("test", "p", 0));
        assert_eq!(loaded[1].1, "{\"v\":2}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_dropped() {
        let dir = tempdir("truncated");
        let path = dir.join("test.manifest.jsonl");
        let m = Manifest::create(&path, &header(3), &[]).unwrap();
        m.append(&JobId::new("test", "p", 0), "{\"v\":1}");
        m.append(&JobId::new("test", "p", 1), "{\"v\":2}");
        drop(m);
        // Simulate a kill mid-append: chop the file mid-way through the
        // last line.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 7]).unwrap();
        let loaded = Manifest::load(&path, &header(3)).unwrap();
        assert_eq!(loaded.len(), 1, "only the intact line survives");
        assert_eq!(loaded[0].0.seed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_digest_stops_the_load() {
        let dir = tempdir("digest");
        let path = dir.join("test.manifest.jsonl");
        let m = Manifest::create(&path, &header(2), &[]).unwrap();
        m.append(&JobId::new("test", "p", 0), "{\"v\":1}");
        drop(m);
        let text = std::fs::read_to_string(&path).unwrap();
        // Flip a byte inside the stored result.
        std::fs::write(&path, text.replace("\\\"v\\\":1", "\\\"v\\\":9")).unwrap();
        let loaded = Manifest::load(&path, &header(2)).unwrap();
        assert!(loaded.is_empty(), "tampered line must not be trusted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_header_is_rejected() {
        let dir = tempdir("stale");
        let path = dir.join("test.manifest.jsonl");
        Manifest::create(&path, &header(3), &[]).unwrap();
        let mut other = header(3);
        other.options_hash = "0x0000000000000bad".into();
        match Manifest::load(&path, &other) {
            Err(ManifestError::Stale { .. }) => {}
            other => panic!("expected Stale, got {other:?}"),
        }
        // Different job count is stale too.
        match Manifest::load(&path, &header(4)) {
            Err(ManifestError::Stale { .. }) => {}
            other => panic!("expected Stale, got {other:?}"),
        }
        // A schema drift (Scenario fields changed) is stale as well —
        // cached entries must self-invalidate, never resurrect.
        let mut drifted = header(3);
        drifted.schema = 8;
        match Manifest::load(&path, &drifted) {
            Err(ManifestError::Stale { .. }) => {}
            other => panic!("expected Stale on schema drift, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn schemaless_v1_header_is_rejected_not_merged() {
        // A manifest written before the schema field existed must not
        // load: its entries predate the schema fingerprint entirely.
        let dir = tempdir("v1");
        let path = dir.join("test.manifest.jsonl");
        std::fs::write(
            &path,
            "{\"sweep\":\"test\",\"options_hash\":\"0x00000000deadbeef\",\
             \"jobs\":3,\"version\":1}\n",
        )
        .unwrap();
        match Manifest::load(&path, &header(3)) {
            Err(ManifestError::Corrupt(_)) => {}
            other => panic!("expected Corrupt for a v1 header, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_and_corrupt_headers_are_distinguished() {
        let dir = tempdir("missing");
        let path = dir.join("nope.manifest.jsonl");
        assert!(matches!(
            Manifest::load(&path, &header(1)),
            Err(ManifestError::Missing)
        ));
        std::fs::write(&path, "not json\n").unwrap();
        assert!(matches!(
            Manifest::load(&path, &header(1)),
            Err(ManifestError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spans_read_back_the_lines_they_point_at() {
        let dir = tempdir("spans");
        let path = dir.join("test.manifest.jsonl");
        let prior = vec![
            (JobId::new("test", "p", 1), "{\"v\":1}".to_string()),
            (JobId::new("test", "p", 2), "{\"v\":\"two\\n\"}".to_string()),
        ];
        let (m, mut spans) = Manifest::create_indexed(&path, &header(4), &prior).unwrap();
        let mut written = prior.clone();
        for seed in 3..5 {
            let entry = (JobId::new("test", "q", seed), format!("{{\"v\":{seed}}}"));
            spans.push(m.append_entry(&entry.0, &entry.1).unwrap());
            written.push(entry);
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        for ((span, entry), line) in spans.iter().zip(&written).zip(&lines) {
            let at = span.offset as usize;
            assert_eq!(&text[at..at + span.len as usize], *line);
            assert_eq!(m.read_entry(*span).unwrap(), *entry);
        }
        assert_eq!(Manifest::load(&path, &header(4)).unwrap(), written);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_entry_rejects_what_is_not_one_intact_entry() {
        let dir = tempdir("read-corrupt");
        let path = dir.join("test.manifest.jsonl");
        let m = Manifest::create(&path, &header(2), &[]).unwrap();
        let span = m
            .append_entry(&JobId::new("test", "p", 0), "{\"v\":1}")
            .unwrap();
        let other = m
            .append_entry(&JobId::new("test", "p", 1), "{\"v\":2}")
            .unwrap();
        for bad in [
            EntrySpan { offset: 0, ..span },
            EntrySpan {
                offset: span.offset + 1,
                ..span
            },
            EntrySpan {
                len: span.len + 2,
                ..span
            },
            EntrySpan {
                offset: other.offset + other.len + 1,
                ..span
            },
        ] {
            assert!(m.read_entry(bad).is_err(), "{bad:?}");
        }
        // Flip one byte of the stored result in place: the open reader
        // sees the rewritten file.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = span.offset as usize + span.len as usize - 4;
        assert_eq!(bytes[at], b'1');
        bytes[at] = b'7';
        std::fs::write(&path, &bytes).unwrap();
        match m.read_entry(span) {
            Err(ManifestError::Corrupt(why)) => assert!(why.contains("digest"), "{why}"),
            other => panic!("expected a digest mismatch, got {other:?}"),
        }
        assert!(m.read_entry(other).is_ok(), "the other entry is intact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_preserves_prior_entries() {
        let dir = tempdir("preserve");
        let path = dir.join("test.manifest.jsonl");
        let prior = vec![(JobId::new("test", "p", 4), "{\"v\":4}".to_string())];
        let m = Manifest::create(&path, &header(2), &prior).unwrap();
        m.append(&JobId::new("test", "p", 5), "{\"v\":5}");
        let loaded = Manifest::load(&path, &header(2)).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].0.seed, 4);
        assert_eq!(loaded[1].0.seed, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

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

use crate::digest::hex;
use crate::id::JobId;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::{BufWriter, Seek, SeekFrom, Write};
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

/// An open manifest being appended to by the running sweep.
pub struct Manifest {
    path: PathBuf,
    writer: Mutex<Writer>,
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
        for (id, result) in preserved {
            let line = entry_line(id, result);
            out.write_all(line.as_bytes())?;
            end += line.len() as u64;
        }
        let file = out.into_inner().map_err(|e| e.into_error())?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(Manifest {
            path: path.to_path_buf(),
            writer: Mutex::new(Writer { file, end }),
        })
    }

    /// Appends one completed job and flushes, so the line survives a
    /// kill right after. A failed append must not kill the sweep (the
    /// results are still merged in memory); it only costs resumability
    /// of this job. It cuts the file back to where the line began, so no
    /// torn line sits in front of later appends and stops
    /// [`Manifest::load`] short of them.
    pub fn append(&self, id: &JobId, result_json: &str) {
        let line = entry_line(id, result_json);
        let mut writer = self.writer.lock().expect("manifest writer poisoned");
        let Writer { file, end } = &mut *writer;
        match file.write_all(line.as_bytes()).and_then(|()| file.flush()) {
            Ok(()) => *end += line.len() as u64,
            Err(_) => {
                let _ = file.set_len(*end);
                let _ = file.seek(SeekFrom::Start(*end));
            }
        }
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
            let Ok(entry) = serde_json::from_str::<Entry>(line) else {
                break;
            };
            if entry_digest(&entry.id, &entry.result) != entry.digest {
                break;
            }
            entries.push((entry.id, entry.result));
        }
        Ok(entries)
    }
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

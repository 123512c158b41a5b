//! Parallel, resumable sweep orchestration.
//!
//! The paper's evaluation is a grid of independent (protocol × density ×
//! rate × seed) simulator runs. This crate executes such grids on a
//! std-only thread pool while keeping the artifacts **bit-deterministic**:
//!
//! * every cell is a self-describing job keyed by a stable [`JobId`]
//!   (experiment, point, seed) — the job derives all of its randomness
//!   from that key, exactly as the serial path does,
//! * workers pull jobs from a shared injector queue and emit results into
//!   a slot-addressed buffer, so scheduling order never leaks into the
//!   output,
//! * the final merge happens in canonical (input) `JobId` order, making
//!   CSV/SVG/JSONL artifacts byte-identical at any `--jobs` value,
//!   including `--jobs 1` vs the serial runner,
//! * completed jobs are appended to a crash-safe [`manifest`]
//!   (`results/<sweep>.manifest.jsonl`) with a digest of their serialized
//!   result, so a killed sweep restarts with `--resume` and re-runs only
//!   the missing cells. A stale manifest (options-hash mismatch) is
//!   detected and rejected.
//!
//! ```
//! use rmm_fleet::{run_parallel, JobId};
//!
//! let jobs: Vec<u64> = (0..8).collect();
//! let doubled = run_parallel(4, &jobs, |_w, &x| x * 2);
//! assert_eq!(doubled, vec![0, 2, 4, 6, 8, 10, 12, 14]);
//! let id = JobId::new("density", "nodes=40/BMW", 3);
//! assert_eq!(id.to_string(), "density/nodes=40/BMW#3");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cores;
pub mod digest;
pub mod id;
pub mod manifest;
pub mod pool;
pub mod progress;
pub mod service;
pub mod sweep;

pub use cores::{cores, spare_cores, with_spare_cores};
pub use digest::{fnv1a, hex, xxh64, Fnv1a, Xxh64};
pub use id::JobId;
pub use manifest::{Manifest, ManifestError, ManifestHeader, MANIFEST_VERSION};
pub use pool::{resolve_workers, run_parallel};
pub use progress::Progress;
pub use service::{JobTicket, ServicePool};
pub use sweep::{run_sweep, FleetError, SweepConfig, SweepOutcome};

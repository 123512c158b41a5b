//! The measurement ladder: shared helpers for the benchmark binary.
//!
//! * the tail percentile that still has ten samples beyond it (over the
//!   bench suite's nearest-rank percentiles),
//! * a span recorder with self-time math, so the traced pass can say
//!   which layer spent the end-to-end time,
//! * result digests that cover every simulated field,
//! * host metadata and peak-RSS readers.

pub use rmm_bench::{median, percentile};
use rmm_fleet::{hex, Fnv1a};
use rmm_workload::RunResult;
use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

pub mod probe;
pub mod repro;
pub mod serve;
pub mod sim;

/// Command-line inputs of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input of the run derives from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced pass: report per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Report directory.
    pub out: PathBuf,
    /// Temporary directory inside `out`, removed when the run ends.
    pub tmp: PathBuf,
}

/// How many set-ups a run does: `reps` when it reports `setup_s`, one in
/// the traced pass, which only needs what set-up leaves behind.
pub fn setup_reps(reps: u64, args: &Args) -> u64 {
    if args.traced {
        1
    } else {
        reps
    }
}

/// The end-to-end metrics every untraced run reports: (name, unit).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports: (name, unit).
pub const PER_LAYER: [(&str, &str); 45] = [
    ("workload.setup_ms", "ms"),
    ("workload.simulate_ms", "ms"),
    ("workload.collect_ms", "ms"),
    ("sim.engine.ns_per_slot", "ns/slot"),
    ("sim.engine.skipped_frac", "frac"),
    ("sim.phase.carrier_sense.ns_per_slot", "ns/slot"),
    ("sim.phase.resolve.ns_per_slot", "ns/slot"),
    ("sim.phase.deliver.ns_per_slot", "ns/slot"),
    ("sim.phase.fsm_dispatch.ns_per_slot", "ns/slot"),
    ("sim.phase.tx_launch.ns_per_slot", "ns/slot"),
    ("sim.phase.horizon_scan.ns_per_slot", "ns/slot"),
    ("sim.topology.build_ms", "ms"),
    ("mac.build_network_ms", "ms"),
    ("geom.min_cover_set_us", "us"),
    ("geom.update_uncovered_us", "us"),
    ("geom.cover_ratio", "frac"),
    ("stats.run_metrics_us", "us"),
    ("fleet.job_overhead_us", "us"),
    ("fleet.idle_frac", "frac"),
    ("fleet.manifest_append_us", "us"),
    ("serve.compute_cell_ms", "ms"),
    ("serve.cache_put_ms", "ms"),
    ("serve.cache_get_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.compute_cell_ms.traced", "ms"),
    ("serve.cache_put_ms.traced", "ms"),
    ("serve.cache_get_ms.traced", "ms"),
    ("serve.render_ms.traced", "ms"),
    ("serve.latency_ms.hit", "ms"),
    ("serve.latency_ms.miss", "ms"),
    ("serve.latency_ms.traced", "ms"),
    ("serve.transport_ms.hit", "ms"),
    ("serve.transport_ms.miss", "ms"),
    ("serve.transport_ms.traced", "ms"),
    ("serve.response_bytes.hit", "bytes"),
    ("serve.response_bytes.traced", "bytes"),
    ("serve.cache_hit_frac", "frac"),
    ("serve.engine_runs", "count"),
    ("experiments.table1_s", "s"),
    ("experiments.fig2_s", "s"),
    ("experiments.fig5_s", "s"),
    ("experiments.fig6_s", "s"),
    ("experiments.fig7_s", "s"),
    ("experiments.fig8_s", "s"),
    ("ladder.unexplained_frac", "frac"),
];

/// Checks that `metrics` is exactly `want`: every name once, with its
/// unit, and nothing else.
pub fn check_metric_set(metrics: &[Metric], want: &[(&str, &str)]) -> Result<(), String> {
    for (name, unit) in want {
        match metrics.iter().filter(|m| m.name == *name).count() {
            1 => {}
            n => return Err(format!("metric {name} reported {n} times")),
        }
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .expect("counted once");
        if m.unit != *unit {
            return Err(format!("metric {name} in {}, expected {unit}", m.unit));
        }
    }
    match metrics
        .iter()
        .find(|m| !want.iter().any(|(n, _)| *n == m.name))
    {
        Some(m) => Err(format!("unlisted metric {}", m.name)),
        None => Ok(()),
    }
}

/// Digests committed for the workloads, see `expected.json`.
const EXPECTED: &str = include_str!("../expected.json");

/// Checks `got` against the digest committed for `workload`: on the
/// committed seed for seeded workloads, on every seed for those listed
/// under `any_seed`. A mismatch is a correctness failure.
pub fn digest_gate(workload: &str, seed: u64, got: &str, out: &mut Outcome) {
    let table: Value = serde_json::from_str(EXPECTED).expect("expected.json parses");
    check_digest(&table, workload, seed, got, out);
}

fn check_digest(table: &Value, workload: &str, seed: u64, got: &str, out: &mut Outcome) {
    let want = match table["any_seed"].get(workload) {
        Some(want) => want,
        None if table["seed"].as_u64() == Some(seed) => &table["digests"][workload],
        None => return,
    };
    if want.as_str() != Some(got) {
        out.fail(format!(
            "{workload}: digest {got} on seed {seed}, expected.json has {want}"
        ));
    }
}

/// The 1-based nearest rank of percentile `p` among `n` samples, as
/// [`percentile`] picks it.
fn rank(n: usize, p: f64) -> usize {
    ((n as f64 * p).ceil() as usize).clamp(1, n)
}

/// The highest of p99, p95, p90 and p50 that has at least ten samples
/// ranked above it, as `(label, value)`. `None` below 20 samples, where
/// not even the median has ten samples beyond it.
pub fn tail_percentile(xs: &[f64]) -> Option<(&'static str, f64)> {
    [("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p50", 0.50)]
        .into_iter()
        .find(|&(_, p)| xs.len() - rank(xs.len(), p) >= 10)
        .map(|(label, p)| (label, percentile(xs, p)))
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub n: usize,
}

impl Metric {
    /// A metric summarizing `n` samples.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed window.
    pub attempted: u64,
    /// Operations that failed: error lines, refused connections,
    /// panicking cells, non-zero exits.
    pub failed: u64,
    /// Correctness-gate failures; the run is correct when this is empty.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable report (tail percentiles,
    /// per-class numbers); not part of the metric contract.
    pub notes: Vec<Metric>,
    /// Workload-specific details for the JSON report.
    pub details: Map,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a correctness-gate failure.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.errors.push(why.into());
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric::new(name, value, unit, n));
    }

    /// Adds a report-only line with the tail percentile of `xs`, if one
    /// above the median has enough samples.
    pub fn note_tail(&mut self, prefix: &str, xs: &[f64], unit: &'static str) {
        if let Some((label, value)) = tail_percentile(xs).filter(|(label, _)| *label != "p50") {
            self.notes.push(Metric::new(
                format!("{prefix}_{label}"),
                value,
                unit,
                xs.len(),
            ));
        }
    }
}

/// One timed interval of the traced pass. `parent` indexes the span
/// whose interval caused this one.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.operation`; the layer is the text before the first dot.
    pub name: String,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    /// Nanoseconds since the recorder's epoch (`start` while open).
    pub end: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
}

impl Span {
    /// The crate (layer) the span belongs to.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Span identifier; `None` when the recorder is off.
pub type SpanId = Option<usize>;

/// Keeps spans in memory until the run ends. A disabled recorder keeps
/// nothing, so the untraced run pays one branch per call.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(&self, name: &str, start: u64, end: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span starting now; [`Recorder::close`] ends it.
    pub fn open(&self, name: &str, parent: SpanId) -> SpanId {
        let now = self.now();
        self.record(name, now, now, parent)
    }

    /// Ends an open span now.
    pub fn close(&self, id: SpanId) {
        if let Some(id) = id {
            let now = self.now();
            self.spans.lock().expect("span list poisoned")[id].end = now;
        }
    }

    /// Start of a recorded span.
    pub fn start_of(&self, id: SpanId) -> Option<u64> {
        id.map(|id| self.spans.lock().expect("span list poisoned")[id].start)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Sum of self time per layer, in first-seen order.
pub fn layer_self_times(spans: &[Span]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(layer, _)| layer == s.layer()) {
            Some((_, sum)) => *sum += t,
            None => out.push((s.layer().to_string(), t)),
        }
    }
    out
}

/// Writes spans as JSON lines: `{"id","name","start_ns","end_ns","parent"}`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::new();
    for (id, s) in spans.iter().enumerate() {
        let line = json!({
            "id": id,
            "name": s.name,
            "start_ns": s.start,
            "end_ns": s.end,
            "parent": s.parent,
        });
        text.push_str(&line.to_string());
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// Digest of everything a set of runs simulated: every `RunResult` field
/// except `manifest.wall_clock`, which is the only one that varies
/// between repetitions. Float formatting makes it sensitive to any
/// bit-level drift.
pub fn digest(results: &[RunResult]) -> String {
    lines_digest(&results.iter().map(canonical_json).collect::<Vec<_>>())
}

/// A result's JSON with the wall-clock provenance zeroed.
pub fn canonical_json(r: &RunResult) -> String {
    serde_json::to_string(&rmm_serve::canonical_result(r.clone())).expect("result serializes")
}

/// FNV-1a digest of a list of byte strings, each terminated so the
/// split between them counts.
pub fn lines_digest<S: AsRef<[u8]>>(lines: &[S]) -> String {
    let mut h = Fnv1a::new();
    for l in lines {
        h.write(l.as_ref());
        h.write(&[0xff]);
    }
    hex(h.finish())
}

/// A seed derived from the run's `--seed`, a stream name and an index,
/// so every simulated cell gets a fresh seed.
pub fn derive_seed(seed: u64, stream: &str, index: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(seed);
    h.write_str(stream);
    h.write_u64(index);
    h.finish()
}

/// Where and how the numbers were taken, stamped on every report: the
/// bench suite's host metadata plus how the cores and the network were
/// shared.
pub fn host_meta() -> Value {
    let mut meta = serde_json::to_value(&rmm_bench::host_meta());
    if let Value::Object(m) = &mut meta {
        m.insert("cores_shared", json!(true));
        m.insert("transport", json!("loopback TCP"));
    }
    meta
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `cmd` to completion and returns whether it exited with status 0
/// and its peak resident set (`ru_maxrss`) in MB. The child is reaped
/// with `wait4`, which reports that one child's usage.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn run_child(cmd: &mut std::process::Command) -> std::io::Result<(bool, f64)> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s
    /// of which `ru_maxrss` (kB) is the first.
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
    }
    let child = cmd.spawn()?;
    let pid = i32::try_from(child.id()).map_err(std::io::Error::other)?;
    let mut status = 0;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable values with the
        // layouts of C `int` and `struct rusage` on this target; wait4
        // writes only them. `pid` is our own unreaped child.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            // A zero wait status is a normal exit with code 0.
            return Ok((status == 0, usage.maxrss as f64 / 1024.0));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Calls `f` until both `min_calls` calls and `min_total` seconds have
/// passed (or `max_calls` is reached) and returns seconds per call.
pub fn seconds_per_call(
    min_calls: usize,
    max_calls: usize,
    min_total: f64,
    mut f: impl FnMut(),
) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0;
    while calls < max_calls && (calls < min_calls || t0.elapsed().as_secs_f64() < min_total) {
        f();
        calls += 1;
    }
    t0.elapsed().as_secs_f64() / calls.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(rank(1, 0.0), 1);
        assert_eq!(rank(1, 1.0), 1);
        assert_eq!(rank(2, 0.5), 1, "ceil(2 * 0.5) = 1");
        assert_eq!(rank(3, 0.5), 2);
        assert_eq!(rank(100, 0.0), 1);
        assert_eq!(rank(100, 0.99), 99);
        assert_eq!(rank(100, 1.0), 100);
        // The rank is the one the shared percentile picks.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        for p in [0.0, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&xs, p), rank(100, p) as f64);
        }
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&xs(19)), None);
        assert_eq!(tail_percentile(&xs(20)), Some(("p50", 10.0)));
        assert_eq!(tail_percentile(&xs(99)), Some(("p50", 50.0)));
        assert_eq!(tail_percentile(&xs(100)), Some(("p90", 90.0)));
        assert_eq!(tail_percentile(&xs(200)), Some(("p95", 190.0)));
        assert_eq!(tail_percentile(&xs(1000)), Some(("p99", 990.0)));
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("fleet.round", 0, 100, None),
            span("workload.run_one", 10, 50, Some(0)),
            span("workload.run_one", 30, 70, Some(0)),
            span("sim.engine", 20, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40, 20]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![
            span("serve.request", 100, 200, None),
            span("serve.render", 50, 150, Some(0)),
            span("serve.render", 190, 300, Some(0)),
            span("serve.render", 300, 400, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn layer_self_times_group_by_prefix() {
        let spans = vec![
            span("ladder.lane", 0, 100, None),
            span("workload.run_one", 0, 90, Some(0)),
            span("sim.engine", 10, 80, Some(1)),
            span("ladder.lane", 0, 100, None),
        ];
        assert_eq!(
            layer_self_times(&spans),
            vec![
                ("ladder".to_string(), 110),
                ("workload".to_string(), 20),
                ("sim".to_string(), 70),
            ]
        );
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let rec = Recorder::new(false);
        let id = rec.open("fleet.round", None);
        rec.close(id);
        assert_eq!(id, None);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn tampered_digest_fails_the_gate() {
        let table: Value = serde_json::from_str(EXPECTED).unwrap();
        let committed = table["digests"]["saturated"].as_str().unwrap().to_string();
        let mut out = Outcome::default();
        check_digest(&table, "saturated", 1, &committed, &mut out);
        check_digest(&table, "saturated", 2, "0xanything", &mut out);
        assert!(out.errors.is_empty(), "{:?}", out.errors);

        let mut tampered = table.clone();
        if let Value::Object(m) = &mut tampered {
            let mut digests = m.get("digests").unwrap().as_object().unwrap().clone();
            digests.insert("saturated", Value::from("0x0000000000000000"));
            m.insert("digests", Value::Object(digests));
        }
        check_digest(&tampered, "saturated", 1, &committed, &mut out);
        assert_eq!(out.errors.len(), 1);
        let any = table["any_seed"]["repro_quick"].as_str().unwrap();
        check_digest(&table, "repro_quick", 7, &format!("{any}0"), &mut out);
        assert_eq!(
            out.errors.len(),
            2,
            "seed-independent digests hold on every seed"
        );
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let bench: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let mut v: Vec<_> = bench[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap().to_string(),
                        m["unit"].as_str().unwrap().to_string(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            let mut v: Vec<_> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn metric_set_check_catches_gaps_and_extras() {
        let m = |name: &str, unit: &'static str| Metric::new(name, 1.0, unit, 1);
        let want = [("a", "s"), ("b", "ms")];
        assert!(check_metric_set(&[m("a", "s"), m("b", "ms")], &want).is_ok());
        assert!(check_metric_set(&[m("a", "s")], &want).is_err());
        assert!(check_metric_set(&[m("a", "s"), m("b", "s")], &want).is_err());
        assert!(check_metric_set(&[m("a", "s"), m("b", "ms"), m("c", "s")], &want).is_err());
        assert!(check_metric_set(&[m("a", "s"), m("a", "s"), m("b", "ms")], &want).is_err());
    }

    #[test]
    fn derived_seeds_differ_by_stream_and_index() {
        assert_ne!(derive_seed(1, "round", 0), derive_seed(1, "round", 1));
        assert_ne!(derive_seed(1, "round", 0), derive_seed(1, "setup", 0));
        assert_ne!(derive_seed(1, "round", 0), derive_seed(2, "round", 0));
        assert_eq!(derive_seed(1, "round", 0), derive_seed(1, "round", 0));
    }
}

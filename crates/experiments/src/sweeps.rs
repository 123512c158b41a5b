//! The simulation sweeps behind Figures 6–10.
//!
//! Figures 6a/9a/10a share one *density* sweep (node-count axis) and
//! Figures 6b/9b/10b share one *rate* sweep, so each sweep is executed
//! once and re-reported per figure. Figure 7 sweeps the service timeout
//! and Figure 8 the reliability threshold.

use crate::common::{emit, emit_chart, f2, f3, run_grid, Options, PAPER_PROTOCOLS};
use rmm_fleet::JobId;
use rmm_mac::ProtocolKind;
use rmm_plot::{Chart, Series};
use rmm_stats::{MessageMetric, RunMetrics, Summary, Table};
use rmm_workload::{run_one, RunResult, Scenario};

/// One protocol's aggregate at one sweep point.
#[derive(Debug, Clone)]
struct Point {
    degree: Summary,
    delivery: Summary,
    phases: Summary,
    completion: Summary,
}

/// Summarizes one cell's seed-ordered runs.
fn summarize(results: &[RunResult]) -> Point {
    let delivery: Vec<f64> = results
        .iter()
        .map(|r| r.group_metrics.delivery_rate)
        .collect();
    let phases: Vec<f64> = results
        .iter()
        .map(|r| r.group_metrics.avg_contention_phases)
        .collect();
    let completion: Vec<f64> = results
        .iter()
        .map(|r| r.group_metrics.avg_completion_time)
        .collect();
    let degree: Vec<f64> = results.iter().map(|r| r.mean_degree).collect();
    Point {
        degree: Summary::of(&degree),
        delivery: Summary::of(&delivery),
        phases: Summary::of(&phases),
        completion: Summary::of(&completion),
    }
}

/// One sweep cell: a `(scenario, protocol)` pair every seed of which
/// becomes one fleet job.
pub struct Cell {
    /// Human-readable point key, e.g. `nodes=40/BMW` (the JobId `point`).
    pub point: String,
    /// The scenario to run.
    pub scenario: Scenario,
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// First seed; the cell runs `scenario.n_runs` seeds from here (the
    /// exact seeds the serial runner would use).
    pub seed_base: u64,
}

/// Expands `cells` into one job per `(cell, seed)`, runs the grid on the
/// fleet under `experiment`'s manifest, and returns each cell's runs
/// (seed-ordered), cell by cell in input order.
pub fn run_cells(options: &Options, experiment: &str, cells: &[Cell]) -> Vec<Vec<RunResult>> {
    let mut jobs: Vec<(JobId, usize)> = Vec::new();
    let mut hash_parts: Vec<String> = Vec::new();
    for (ci, cell) in cells.iter().enumerate() {
        for s in 0..cell.scenario.n_runs as u64 {
            jobs.push((JobId::new(experiment, &cell.point, cell.seed_base + s), ci));
        }
        hash_parts.push(format!(
            "{}|{}|{}",
            cell.protocol.name(),
            cell.seed_base,
            serde_json::to_string(&cell.scenario).expect("scenario serializes"),
        ));
    }
    let results = run_grid(options, experiment, &hash_parts, &jobs, |id, &ci| {
        run_one(&cells[ci].scenario, cells[ci].protocol, id.seed)
    });
    // Jobs were laid out cell-contiguous and seed-ascending, so slicing
    // the merged results back per cell preserves the serial layout.
    let mut grouped: Vec<Vec<RunResult>> = cells.iter().map(|_| Vec::new()).collect();
    for ((_, ci), result) in jobs.iter().zip(results) {
        grouped[*ci].push(result);
    }
    grouped
}

fn base_scenario(options: &Options) -> Scenario {
    Scenario {
        n_runs: options.runs,
        sim_slots: options.slots,
        ..Scenario::default()
    }
}

/// Runs one sweep (axis values + scenario builder) for all protocols and
/// emits the three metric tables under the given figure names. The whole
/// `axis × protocol × seed` grid goes to the fleet as one manifest-backed
/// sweep named `experiment`.
#[allow(clippy::too_many_arguments)]
fn sweep_and_emit(
    options: &Options,
    experiment: &str,
    axis_name: &str,
    axis: &[f64],
    build: impl Fn(&Scenario, f64) -> Scenario,
    delivery_fig: Option<(&str, &str)>,
    phases_fig: Option<(&str, &str)>,
    completion_fig: Option<(&str, &str)>,
    x_display: impl Fn(f64, &Point) -> String,
) {
    let base = base_scenario(options);
    let mut cells: Vec<Cell> = Vec::new();
    for (i, &x) in axis.iter().enumerate() {
        let scenario = build(&base, x);
        for &p in &PAPER_PROTOCOLS {
            cells.push(Cell {
                point: format!("{axis_name}={x}/{}", p.name()),
                scenario: scenario.clone(),
                protocol: p,
                // The seed bases the serial sweep has always used: one
                // block of 10 000 per axis point, shared by protocols.
                seed_base: (i as u64) * 10_000,
            });
        }
    }
    let per_cell = run_cells(options, experiment, &cells);
    let mut points: Vec<(f64, Vec<Point>)> = Vec::new();
    let mut runs = per_cell.into_iter();
    for &x in axis {
        let per_proto: Vec<Point> = PAPER_PROTOCOLS
            .iter()
            .map(|_| summarize(&runs.next().expect("cell per protocol")))
            .collect();
        points.push((x, per_proto));
    }

    let header = |metric: &str| {
        let mut h = vec![format!("{axis_name}"), "x".into()];
        for p in PAPER_PROTOCOLS {
            h.push(format!("{} {metric}", p.name()));
        }
        h
    };
    let emit_metric = |fig: Option<(&str, &str)>, metric: &str, get: &dyn Fn(&Point) -> Summary| {
        let Some((name, title)) = fig else { return };
        let mut table = Table::new(header(metric));
        for (x, per_proto) in &points {
            let mut row = vec![f3(*x), x_display(*x, &per_proto[0])];
            for p in per_proto {
                row.push(f3(get(p).mean));
            }
            table.row(row);
        }
        emit(options, name, title, &table);
        // SVG rendition of the same series.
        let mut chart = Chart::new(title, axis_name, metric);
        for (pi, proto) in PAPER_PROTOCOLS.iter().enumerate() {
            let pts: Vec<(f64, f64)> = points
                .iter()
                .map(|(x, per)| (*x, get(&per[pi]).mean))
                .collect();
            chart.series(Series::new(proto.name(), pts));
        }
        emit_chart(options, name, &chart);
    };
    emit_metric(delivery_fig, "rate", &|p: &Point| p.delivery);
    emit_metric(phases_fig, "phases", &|p: &Point| p.phases);
    emit_metric(completion_fig, "slots", &|p: &Point| p.completion);
}

/// Figures 6a / 9a / 10a: metrics vs nodal density. The paper's x-axis is
/// the average number of neighbors; we sweep the node count and report
/// the measured mean degree alongside.
pub fn density_sweep(options: &Options) {
    let counts = [40.0, 60.0, 80.0, 100.0, 120.0, 140.0];
    sweep_and_emit(
        options,
        "density",
        "nodes",
        &counts,
        |base, x| base.clone().with_nodes(x as usize),
        Some((
            "fig6a",
            "Figure 6a: successful delivery rate vs nodal density \
             (paper: LAMM > BMMM >> BSMA > BMW, all degrade with density)",
        )),
        Some((
            "fig9a",
            "Figure 9a: avg contention phases vs nodal density \
             (paper: BMW highest, BMMM/LAMM slightly below BSMA)",
        )),
        Some((
            "fig10a",
            "Figure 10a: avg multicast completion time vs nodal density \
             (paper: LAMM < BMMM < BMW)",
        )),
        |_, p| format!("deg={}", f2(p.degree.mean)),
    );
}

/// Figures 6b / 9b / 10b: metrics vs message generation rate.
pub fn rate_sweep(options: &Options) {
    let rates = [2.5e-4, 5e-4, 7.5e-4, 1e-3, 1.25e-3, 1.5e-3];
    sweep_and_emit(
        options,
        "rate",
        "rate",
        &rates,
        |base, x| base.clone().with_rate(x),
        Some((
            "fig6b",
            "Figure 6b: successful delivery rate vs message generation rate",
        )),
        Some((
            "fig9b",
            "Figure 9b: avg contention phases vs message generation rate",
        )),
        Some((
            "fig10b",
            "Figure 10b: avg completion time vs message generation rate",
        )),
        |x, _| format!("{x:.2e}"),
    );
}

/// Figure 7: successful delivery rate vs timeout (100–300 slots).
pub fn fig7(options: &Options) {
    let timeouts = [100.0, 150.0, 200.0, 250.0, 300.0];
    sweep_and_emit(
        options,
        "fig7",
        "timeout",
        &timeouts,
        |base, x| base.clone().with_timeout(x as u64),
        Some((
            "fig7",
            "Figure 7: successful delivery rate vs timeout \
             (paper: improves with timeout; BMMM/LAMM dominate throughout)",
        )),
        None,
        None,
        |x, _| format!("{x}"),
    );
}

/// Figure 8: successful delivery rate vs reliability threshold. All
/// protocols share the same runs per threshold-independent simulation;
/// the threshold only re-scores the messages, so one simulation per
/// protocol is re-evaluated across thresholds.
pub fn fig8(options: &Options) {
    let thresholds = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let base = base_scenario(options);
    let mut header = vec!["threshold".to_string()];
    for p in PAPER_PROTOCOLS {
        header.push(p.name().to_string());
    }
    let mut table = Table::new(header);

    // One simulation per protocol; re-score per threshold.
    let cells: Vec<Cell> = PAPER_PROTOCOLS
        .iter()
        .map(|&p| Cell {
            point: p.name().to_string(),
            scenario: base.clone(),
            protocol: p,
            seed_base: 80_000,
        })
        .collect();
    let per_proto_msgs: Vec<Vec<Vec<MessageMetric>>> = run_cells(options, "fig8", &cells)
        .into_iter()
        .map(|results| {
            results
                .into_iter()
                .map(|r| r.messages.into_iter().filter(|m| m.is_group).collect())
                .collect()
        })
        .collect();
    for &t in &thresholds {
        let mut row = vec![f2(t)];
        for msgs in &per_proto_msgs {
            let rates: Vec<f64> = msgs
                .iter()
                .map(|run| RunMetrics::compute(run, t).delivery_rate)
                .collect();
            row.push(f3(Summary::of(&rates).mean));
        }
        table.row(row);
    }
    emit(
        options,
        "fig8",
        "Figure 8: successful delivery rate vs reliability threshold \
         (paper: BMMM/LAMM always above BMW/BSMA)",
        &table,
    );
}

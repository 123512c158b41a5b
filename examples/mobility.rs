//! Mobility demo: random-waypoint motion with beacon-learned (and
//! therefore stale) neighbor tables — how each reliable multicast
//! protocol degrades when the network it believes in lags the network
//! that exists.
//!
//! ```text
//! cargo run --release --example mobility [-- <runs>]
//! ```

use rmm::prelude::*;
use rmm::stats::Table;
use rmm::workload::{run, MobilityConfig, RunSpec};

fn main() {
    let runs: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(3);
    let scenario = Scenario {
        n_runs: runs as usize,
        sim_slots: 8_000,
        ..Scenario::default()
    };

    println!(
        "random waypoint, {} nodes, beacons every 500 slots, {} seed(s)\n",
        scenario.n_nodes, runs
    );
    let mut table = Table::new(["max speed", "BMMM rate", "LAMM rate", "BMW rate"]);
    for vmax in [0.0, 2e-5, 1e-4, 3e-4] {
        let config = MobilityConfig {
            speed_min: 0.0,
            speed_max: vmax,
            update_period: 100,
            beacon_period: 500,
        };
        let spec = RunSpec {
            mobility: Some(config),
            ..RunSpec::default()
        };
        let mut rates = Vec::new();
        for protocol in [ProtocolKind::Bmmm, ProtocolKind::Lamm, ProtocolKind::Bmw] {
            let mean: f64 = (0..runs)
                .map(|seed| {
                    run(&scenario, protocol, seed, &spec)
                        .result
                        .group_metrics
                        .delivery_rate
                })
                .sum::<f64>()
                / runs as f64;
            rates.push(mean);
        }
        table.row([
            format!("{vmax:.0e}"),
            format!("{:.3}", rates[0]),
            format!("{:.3}", rates[1]),
            format!("{:.3}", rates[2]),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nAt 3e-4 units/slot a node crosses a whole transmission radius in
~700 slots, while beacons refresh every 500: senders routinely poll
ex-neighbors and burn their service timeout on them. The paper assumes
beacon-fresh neighbor sets; this is what relaxing that costs."
    );
}

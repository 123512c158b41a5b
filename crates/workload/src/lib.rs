//! Scenarios, traffic, mobility, churn, and the one run pipeline.
//!
//! Reproduces the paper's experimental setup (Section 7, Table 2):
//! 100 stations placed uniformly at random in a unit square with
//! transmission radius 0.2; Bernoulli message arrivals at
//! 5·10⁻⁴ msgs/node/slot with a 0.2 / 0.4 / 0.4 unicast / multicast /
//! broadcast mix; 10 000-slot runs; 100-slot service timeout; 90%
//! reliability threshold; results averaged over 100 seeds.
//!
//! Every seeded run goes through [`run`]: a [`RunSpec`] picks fast or
//! naive stepping, the probes to attach (trace, phase profile, final
//! stations), and optional random-waypoint mobility. [`run_one`] is the
//! plain fast run; [`run_many_jobs`] sweeps seeds on the fleet pool; the
//! [`chaos`] harness checks invariants over paired fast and naive runs.
//!
//! ```
//! use rmm_workload::{run, run_one, Probes, RunSpec, Scenario};
//! use rmm_mac::ProtocolKind;
//!
//! let scenario = Scenario { sim_slots: 2_000, n_runs: 1, ..Scenario::default() };
//! let result = run_one(&scenario, ProtocolKind::Bmmm, 7);
//! assert!(result.group_metrics.messages > 0);
//!
//! let traced = RunSpec { probes: Probes { trace: true, ..Probes::default() }, ..RunSpec::default() };
//! let out = run(&scenario, ProtocolKind::Bmmm, 7, &traced);
//! assert!(!out.trace.expect("traced").events().is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod churn;
mod feed;
pub mod mobility;
pub mod observe;
pub mod placement;
pub mod runner;
pub mod scenario;
pub mod traffic;

pub use chaos::{
    check_invariants, run_chaos, shrink, ChaosConfig, ChaosOutcome, ChaosRepro, ChaosSchedule,
    Violation, ViolationKind,
};
pub use churn::{ChurnEvent, ChurnKind, ChurnPlan, EpochMetrics};
pub use feed::{draws_ahead, DRAW_AHEAD_MIN_DRAWS};
pub use mobility::{MobilityConfig, RandomWaypoint};
pub use observe::{collect_metrics, PhaseTimings, RunManifest};
pub use placement::uniform_square;
pub use runner::{
    mean_group_metrics, run, run_many, run_many_jobs, run_one, run_one_naive, run_one_profiled,
    run_traced, Probes, RunOutput, RunResult, RunSpec, StallReport, Stepping,
};
pub use scenario::{scenario_schema_hash, Scenario};
pub use traffic::{TrafficGen, TrafficMix};

//! Scenario configuration (the paper's Table 2, as a struct).

use crate::churn::ChurnPlan;
use crate::traffic::TrafficMix;
use rmm_mac::MacTiming;
use rmm_sim::{Capture, Engine, FaultPlan, GilbertElliott, Topology};
use serde::{Deserialize, Serialize};

/// Dedicated seed stream for the burst-error channel ("burst").
const BURST_SEED: u64 = 0x0062_7572_7374;

/// A complete simulation scenario. [`Scenario::default`] is the paper's
/// Table 2 configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Number of stations (paper: 100).
    pub n_nodes: usize,
    /// Transmission radius in the unit square (paper: 0.2).
    pub radius: f64,
    /// Run length in slots (paper: 10 000).
    pub sim_slots: u64,
    /// Message generation rate per node per slot (paper: 5·10⁻⁴).
    pub msg_rate: f64,
    /// Unicast / multicast / broadcast mix (paper: 0.2 / 0.4 / 0.4).
    pub mix: TrafficMix,
    /// Reliability threshold for the success criterion (paper: 0.9).
    pub reliability_threshold: f64,
    /// Capture model (paper: DS capture per Zorzi–Rao).
    pub capture: Capture,
    /// Independent frame error rate (non-collision transmission errors;
    /// folded into the analysis' `q`). Paper default: collisions only.
    pub fer: f64,
    /// Standard deviation of the Gaussian error applied to the positions
    /// stations advertise in beacons (GPS inaccuracy). Only LAMM reads
    /// positions; the channel always uses ground truth.
    pub position_noise: f64,
    /// MAC timing (includes the 100-slot timeout and 5-slot data time).
    pub timing: MacTiming,
    /// Number of independent runs to average (paper: 100).
    pub n_runs: usize,
    /// Scheduled node faults (crash / deaf / TX-mute). Empty by default;
    /// an empty plan leaves the run bit-identical to a fault-free build.
    pub faults: FaultPlan,
    /// Gilbert–Elliott burst-error channel, applied per receiver on its
    /// own RNG stream. `None` keeps the i.i.d. `fer` model only.
    pub burst: Option<GilbertElliott>,
    /// Liveness watchdog period in slots: every multiple of this window
    /// the runner checks each sender for forward progress and files a
    /// [`StallReport`](crate::StallReport) for wedged ones. `None`
    /// disables the watchdog.
    pub stall_window: Option<u64>,
    /// Scheduled group-membership churn (leave / rejoin). Empty by
    /// default; an empty plan leaves the run bit-identical to a
    /// churn-free build.
    pub churn: ChurnPlan,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            n_nodes: 100,
            radius: 0.2,
            sim_slots: 10_000,
            msg_rate: 5e-4,
            mix: TrafficMix::default(),
            reliability_threshold: 0.9,
            capture: Capture::ZorziRao,
            fer: 0.0,
            position_noise: 0.0,
            timing: MacTiming::default(),
            n_runs: 100,
            faults: FaultPlan::new(),
            burst: None,
            stall_window: None,
            churn: ChurnPlan::new(),
        }
    }
}

impl Scenario {
    /// Scenario with a different timeout (Figure 7's sweep axis).
    pub fn with_timeout(mut self, timeout: u64) -> Self {
        self.timing.timeout = timeout;
        self
    }

    /// Scenario with a different node count (density sweeps).
    pub fn with_nodes(mut self, n: usize) -> Self {
        self.n_nodes = n;
        self
    }

    /// Scenario with a different message rate (load sweeps).
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.msg_rate = rate;
        self
    }

    /// Scenario with a different reliability threshold (Figure 8).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.reliability_threshold = threshold;
        self
    }

    /// Scenario with a different frame error rate.
    pub fn with_fer(mut self, fer: f64) -> Self {
        self.fer = fer;
        self
    }

    /// Scenario with Gaussian beacon-position noise (std deviation).
    pub fn with_position_noise(mut self, sigma: f64) -> Self {
        self.position_noise = sigma;
        self
    }

    /// Scenario with a fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Scenario with a Gilbert–Elliott burst-error channel.
    pub fn with_burst(mut self, model: GilbertElliott) -> Self {
        self.burst = Some(model);
        self
    }

    /// Scenario with the liveness watchdog enabled at the given period.
    pub fn with_stall_window(mut self, window: u64) -> Self {
        self.stall_window = Some(window);
        self
    }

    /// Scenario with a group-membership churn plan.
    pub fn with_churn(mut self, churn: ChurnPlan) -> Self {
        self.churn = churn;
        self
    }

    /// Checks what set-up would otherwise assert, so a bad scenario from
    /// a config file, a flag or a request is reported instead of
    /// panicking mid-run: at least one node and one run, a positive,
    /// finite `radius`, `msg_rate` in [0, 1], `fer` in [0, 1), burst `p`
    /// and `r` in [0, 1], and fault and churn plans that fit the
    /// network. It also refuses a run of no slots, whose utilization
    /// (busy slots over slots) would be NaN: JSON writes that as `null`,
    /// and the result would not parse back.
    pub fn validate(&self) -> Result<(), String> {
        if self.n_nodes == 0 || self.n_runs == 0 {
            return Err("scenario needs n_nodes >= 1 and n_runs >= 1".into());
        }
        if self.sim_slots == 0 {
            return Err("scenario needs sim_slots >= 1".into());
        }
        if !(self.radius > 0.0 && self.radius.is_finite()) {
            return Err(format!("radius {} is not positive and finite", self.radius));
        }
        if !(0.0..=1.0).contains(&self.msg_rate) {
            return Err(format!("msg_rate {} is outside [0, 1]", self.msg_rate));
        }
        if !(0.0..1.0).contains(&self.fer) {
            return Err(format!("fer {} is outside [0, 1)", self.fer));
        }
        if let Some(GilbertElliott { p, r }) = self.burst {
            if !(0.0..=1.0).contains(&p) || !(0.0..=1.0).contains(&r) {
                return Err(format!("burst p {p} and r {r} must both be in [0, 1]"));
            }
        }
        if self.stall_window == Some(0) {
            return Err("stall_window needs at least 1 slot".into());
        }
        self.faults
            .validate(self.n_nodes)
            .map_err(|e| format!("invalid fault plan: {e}"))?;
        self.churn
            .validate(self.n_nodes)
            .map_err(|e| format!("invalid churn plan: {e}"))
    }

    /// The engine for one seeded run over `topo`: the scenario's capture
    /// model, frame error rate, fault plan, and burst-error channel, each
    /// on its own seed stream. The runner and the route-discovery
    /// harness both build their engines here.
    pub fn build_engine(&self, topo: Topology, seed: u64) -> Engine {
        let mut engine = Engine::new(topo, self.capture, seed.wrapping_add(0x5eed));
        if self.fer > 0.0 {
            engine.set_fer(self.fer);
        }
        if !self.faults.is_empty() {
            engine.set_faults(self.faults.clone());
        }
        if let Some(model) = self.burst {
            engine.set_burst(model, seed ^ BURST_SEED);
        }
        engine
    }
}

/// Fingerprint of the [`Scenario`] *serialization shape*.
///
/// A probe scenario with every optional subsystem populated (all four
/// fault kinds, churn, burst channel, watchdog, position noise — so
/// every nested shape appears in the JSON) is serialized and its
/// structure hashed: key names, nesting, and enum tags, with numbers
/// and booleans reduced to their JSON type so value changes don't
/// matter. Sweep manifests and the serve result cache stamp this into
/// their headers ([`rmm_fleet::ManifestHeader::schema`]); adding,
/// renaming, or moving a `Scenario` field therefore invalidates cached
/// entries even when the stored options string would still parse —
/// stale digests self-invalidate instead of silently resurrecting.
pub fn scenario_schema_hash() -> u32 {
    let probe = Scenario::default()
        .with_faults(
            rmm_sim::FaultPlan::parse("crash:0@1;deaf:1@1..2;mute:2@1..2;reboot:3@1..2")
                .expect("probe fault plan parses"),
        )
        .with_churn(ChurnPlan::parse("leave:0@1;join:0@2").expect("probe churn plan parses"))
        .with_burst(GilbertElliott::new(0.1, 0.9))
        .with_stall_window(1)
        .with_position_noise(0.1);
    let mut h = rmm_fleet::Fnv1a::new();
    walk_shape(&serde_json::to_value(&probe), &mut h);
    let h = h.finish();
    (h >> 32) as u32 ^ h as u32
}

/// Feeds a JSON value's structure (not its numeric/boolean content)
/// into the hasher. Strings keep their content: on the fixed probe they
/// are enum tags and spec strings, which are part of the shape.
fn walk_shape(v: &serde_json::Value, h: &mut rmm_fleet::Fnv1a) {
    use serde_json::Value;
    match v {
        Value::Null => h.write_str("null"),
        Value::Bool(_) => h.write_str("bool"),
        Value::Number(_) => h.write_str("num"),
        Value::String(s) => {
            h.write_str("str");
            h.write_str(s);
        }
        Value::Array(items) => {
            h.write_str("[");
            for item in items {
                walk_shape(item, h);
            }
            h.write_str("]");
        }
        Value::Object(map) => {
            h.write_str("{");
            for (k, val) in map.iter() {
                h.write_str(k);
                walk_shape(val, h);
            }
            h.write_str("}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table2() {
        let s = Scenario::default();
        assert_eq!(s.n_nodes, 100);
        assert_eq!(s.radius, 0.2);
        assert_eq!(s.sim_slots, 10_000);
        assert_eq!(s.msg_rate, 5e-4);
        assert_eq!(s.timing.timeout, 100);
        assert_eq!(s.timing.data_slots, 5);
        assert_eq!(s.reliability_threshold, 0.9);
        assert_eq!(s.mix.unicast, 0.2);
        assert_eq!(s.mix.multicast, 0.4);
        assert_eq!(s.mix.broadcast, 0.4);
        assert_eq!(s.n_runs, 100);
        assert_eq!(s.capture, Capture::ZorziRao);
        assert!(s.faults.is_empty());
        assert!(s.burst.is_none());
        assert!(s.stall_window.is_none());
        assert!(s.churn.is_empty());
    }

    #[test]
    fn builders_update_fields() {
        let s = Scenario::default()
            .with_timeout(300)
            .with_nodes(150)
            .with_rate(1e-3)
            .with_threshold(0.5);
        assert_eq!(s.timing.timeout, 300);
        assert_eq!(s.n_nodes, 150);
        assert_eq!(s.msg_rate, 1e-3);
        assert_eq!(s.reliability_threshold, 0.5);
    }

    #[test]
    fn scenario_serializes() {
        let s = Scenario::default();
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        // With the fault machinery configured, too.
        let s = Scenario::default()
            .with_faults(FaultPlan::parse("crash:5@1000;deaf:3@200..800").unwrap())
            .with_burst(GilbertElliott::new(0.05, 0.25))
            .with_stall_window(500)
            .with_churn(ChurnPlan::parse("leave:3@500;join:3@900").unwrap());
        let json = serde_json::to_string(&s).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn validate_refuses_a_run_of_no_slots() {
        let tiny = Scenario {
            n_nodes: 5,
            sim_slots: 1,
            n_runs: 1,
            ..Scenario::default()
        };
        assert_eq!(tiny.validate(), Ok(()));
        let empty = Scenario {
            sim_slots: 0,
            ..tiny.clone()
        };
        let err = empty.validate().expect_err("no slots is not a run");
        assert!(err.contains("sim_slots"), "{err}");
        // What it guards against: such a run's result does not parse
        // back.
        let r = crate::run_one(&empty, rmm_mac::ProtocolKind::Bmmm, 1);
        assert!(r.utilization.is_nan());
        let json = serde_json::to_string(&r).unwrap();
        assert!(serde_json::from_str::<crate::RunResult>(&json).is_err());
    }

    #[test]
    fn validate_refuses_a_watchdog_window_of_no_slots() {
        let watched = Scenario {
            n_nodes: 5,
            sim_slots: 10,
            n_runs: 1,
            ..Scenario::default()
        };
        assert_eq!(watched.clone().with_stall_window(1).validate(), Ok(()));
        let err = watched
            .with_stall_window(0)
            .validate()
            .expect_err("the watchdog checks every `t % window` slot");
        assert!(err.contains("stall_window"), "{err}");
    }

    #[test]
    fn schema_hash_is_stable_and_shape_sensitive() {
        // Deterministic across calls (it goes into persistent headers).
        assert_eq!(scenario_schema_hash(), scenario_schema_hash());
        // The walk sees key names and nesting, not numeric values.
        let shape = |v: &serde_json::Value| {
            let mut h = rmm_fleet::Fnv1a::new();
            walk_shape(v, &mut h);
            h.finish()
        };
        let a: serde_json::Value = serde_json::from_str("{\"n\":1,\"r\":[2,3]}").unwrap();
        let same_shape: serde_json::Value = serde_json::from_str("{\"n\":9,\"r\":[7,8]}").unwrap();
        let renamed: serde_json::Value = serde_json::from_str("{\"m\":1,\"r\":[2,3]}").unwrap();
        let nested: serde_json::Value =
            serde_json::from_str("{\"n\":{\"x\":1},\"r\":[2,3]}").unwrap();
        assert_eq!(shape(&a), shape(&same_shape));
        assert_ne!(shape(&a), shape(&renamed));
        assert_ne!(shape(&a), shape(&nested));
    }
}

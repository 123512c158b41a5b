//! Differential determinism suite for the event-horizon fast path and
//! the run probes.
//!
//! [`Stepping::Fast`] steps the engine with `Engine::advance_to`, which
//! fast-forwards through dead air using `Station::next_wakeup` hints;
//! [`Stepping::Naive`] steps every slot. Tracing and profiling are pure
//! observers. Every input below therefore runs through one matrix,
//! {Fast, Naive} × {plain, trace, profile, trace+profile} × {static,
//! mobile}, and must give byte-identical `RunResult`s (modulo wall-clock
//! provenance and the `traced` flag) and identical trace event streams
//! within each topology — for every protocol kind, across seeds, in
//! calm and saturated networks, under faults, churn, and position noise.
//! The `MetricsRegistry` is a pure fold of the trace and the messages,
//! so identical traces and results imply identical metrics.
//!
//! Runs large enough to draw their traffic ahead on a spare core run
//! once per feed as well ([`assert_feeds_agree`]): drawn ahead, and
//! drawn in the slot loop, under both steppings.

use rmm_fleet::with_spare_cores;
use rmm_mac::ProtocolKind;
use rmm_sim::{FaultPlan, GilbertElliott, NodeId, TraceEvent};
use rmm_workload::{
    draws_ahead, run, run_one, ChurnPlan, MobilityConfig, PhaseTimings, Probes, RunOutput,
    RunResult, RunSpec, Scenario, Stepping, DRAW_AHEAD_MIN_DRAWS,
};

const SEEDS: [u64; 5] = [1, 2, 3, 5, 8];

const ALL_PROTOCOLS: [ProtocolKind; 8] = [
    ProtocolKind::Ieee80211,
    ProtocolKind::TangGerla,
    ProtocolKind::Bsma,
    ProtocolKind::Bmw,
    ProtocolKind::Bmmm,
    ProtocolKind::Lamm,
    ProtocolKind::LeaderBased,
    ProtocolKind::BmmmUncoordinated,
];

/// Serializes a result with the (nondeterministic) wall-clock phase
/// timings zeroed and the `traced` flag cleared, so equality means
/// byte-identical simulation output.
fn canonical(mut r: RunResult) -> String {
    r.manifest.wall_clock = PhaseTimings::default();
    r.manifest.traced = false;
    serde_json::to_string(&r).expect("RunResult serializes")
}

/// Runs one `(scenario, protocol, seed)` input through the whole
/// stepping × probes × topology matrix and checks that, per topology,
/// every cell agrees with the first. Returns the static, fast cell with
/// both trace and profile attached, for input-specific assertions.
fn assert_matrix(scenario: &Scenario, protocol: ProtocolKind, seed: u64, label: &str) -> RunOutput {
    let probe_sets = [(false, false), (true, false), (false, true), (true, true)];
    let mut kept = None;
    for mobility in [None, Some(MobilityConfig::default())] {
        let mut want: Option<String> = None;
        let mut want_trace: Option<Vec<TraceEvent>> = None;
        for stepping in [Stepping::Fast, Stepping::Naive] {
            for (trace, profile) in probe_sets {
                let spec = RunSpec {
                    stepping,
                    probes: Probes {
                        trace,
                        profile,
                        forensic: false,
                    },
                    mobility,
                };
                let at = format!("[{label}] {protocol:?} seed {seed} {spec:?}");
                let out = run(scenario, protocol, seed, &spec);
                assert_eq!(out.result.manifest.traced, trace, "{at}: manifest.traced");
                assert_eq!(out.trace.is_some(), trace, "{at}: trace probe");
                assert_eq!(out.profile.is_some(), profile, "{at}: profile probe");
                let got = canonical(out.result.clone());
                match &want {
                    None => want = Some(got),
                    Some(w) => assert_eq!(*w, got, "{at}: RunResult diverged"),
                }
                if let Some(t) = &out.trace {
                    match &want_trace {
                        None => want_trace = Some(t.events().to_vec()),
                        Some(w) => assert_eq!(w[..], t.events()[..], "{at}: trace diverged"),
                    }
                }
                if mobility.is_none() && stepping == Stepping::Fast && trace && profile {
                    kept = Some(out);
                }
            }
        }
    }
    kept.expect("the matrix includes the static fast traced+profiled cell")
}

/// Every protocol kind, ≥5 seeds, moderate load: the headline guarantee.
#[test]
fn fast_stepping_is_bit_exact_for_all_protocols() {
    let scenario = Scenario {
        n_nodes: 25,
        sim_slots: 1_500,
        n_runs: 1,
        msg_rate: 2e-3,
        ..Scenario::default()
    };
    let mut traffic_seen = false;
    for protocol in ALL_PROTOCOLS {
        for seed in SEEDS {
            let out = assert_matrix(&scenario, protocol, seed, "load");
            traffic_seen |= !out.result.messages.is_empty();
        }
    }
    assert!(traffic_seen, "suite exercised no traffic at all");
}

/// The `saturated` workload's load at Table 2's density: with a mean
/// degree near 10 and ten times the paper's rate, many contenders share
/// one busy medium, so most stepped slots dispatch carrier-sensitive
/// stations for the busy medium alone. The other inputs stay at the
/// paper's rate or at a mean degree near 3.
#[test]
fn fast_stepping_is_bit_exact_at_saturated_load() {
    let scenario = Scenario {
        msg_rate: 5e-3,
        sim_slots: 1_000,
        n_runs: 1,
        ..Scenario::default()
    };
    for protocol in [ProtocolKind::Bmmm, ProtocolKind::Lamm, ProtocolKind::Bsma] {
        for seed in [1, 2] {
            let result = assert_matrix(&scenario, protocol, seed, "saturated").result;
            assert!(
                result.mean_degree > 9.0 && result.utilization > 0.9,
                "{protocol:?} seed {seed}: degree {} and utilization {} are not saturated",
                result.mean_degree,
                result.utilization
            );
        }
    }
}

/// A service timeout near `u64::MAX` must not wrap `arrival + timeout`
/// into a deadline in the past: the run equals the run with a timeout far
/// past its end, in every field but the scenario it echoes, under both
/// steppings.
#[test]
fn an_unbounded_timeout_runs_as_a_long_one() {
    let with_timeout = |timeout| {
        let mut s = Scenario {
            n_nodes: 30,
            sim_slots: 3_000,
            n_runs: 1,
            msg_rate: 2e-3,
            ..Scenario::default()
        };
        s.timing.timeout = timeout;
        s
    };
    let (long, unbounded) = (with_timeout(1_000_000_000), with_timeout(u64::MAX));
    for protocol in [ProtocolKind::Bmmm, ProtocolKind::Bmw] {
        for seed in [3, 8] {
            let want = assert_matrix(&long, protocol, seed, "timeout 1e9").result;
            assert!(
                want.utilization > 0.0,
                "{protocol:?} seed {seed}: no traffic"
            );
            let mut got = assert_matrix(&unbounded, protocol, seed, "timeout u64::MAX").result;
            got.manifest.scenario = want.manifest.scenario.clone();
            assert_eq!(canonical(want), canonical(got), "{protocol:?} seed {seed}");
        }
    }
}

/// Every other input has at most 100 stations, so each dispatcher
/// bitset spans at most two words and a slip past the second would pass
/// them all. A sparse 1 000-station network at `scale_10k`'s density and
/// load spans 16 words.
#[test]
fn fast_stepping_is_bit_exact_past_one_bitset_word() {
    let scenario = Scenario {
        n_nodes: 1_000,
        radius: 0.2 * (100.0f64 / 1_000.0).sqrt(),
        msg_rate: 5e-5,
        sim_slots: 1_000,
        n_runs: 1,
        ..Scenario::default()
    };
    for protocol in [ProtocolKind::Bmmm, ProtocolKind::Lamm] {
        let trace = assert_matrix(&scenario, protocol, 81, "1k")
            .trace
            .expect("traced cell");
        assert!(
            trace
                .events()
                .iter()
                .any(|e| matches!(e, TraceEvent::TxStart { node, .. } if node.index() >= 64)),
            "{protocol:?}: no sender beyond the first bitset word"
        );
    }
}

/// Idle-dominated runs are where the fast path actually skips: long
/// gaps between arrivals stress the contention/NAV replay math.
#[test]
fn fast_stepping_is_bit_exact_when_idle_dominated() {
    let scenario = Scenario {
        n_nodes: 30,
        sim_slots: 6_000,
        n_runs: 1,
        msg_rate: 1e-4,
        ..Scenario::default()
    };
    for protocol in [ProtocolKind::Bmmm, ProtocolKind::Bsma, ProtocolKind::Bmw] {
        for seed in [11, 12] {
            assert_matrix(&scenario, protocol, seed, "idle");
        }
    }
}

/// Channel imperfections (frame errors, capture) draw from the engine
/// RNG; skipping a slot that consumed a draw would desynchronize the
/// stream and everything after it.
#[test]
fn fast_stepping_preserves_channel_rng_stream() {
    let scenario = Scenario {
        n_nodes: 25,
        sim_slots: 2_000,
        n_runs: 1,
        msg_rate: 1e-3,
        fer: 0.05,
        ..Scenario::default()
    };
    for seed in [21, 22, 23] {
        assert_matrix(&scenario, ProtocolKind::Bmmm, seed, "fer");
    }
}

/// Fault injection and the burst-error channel are the newest pressure
/// on the fast path: crashes re-route frames, the burst chains consume
/// their own RNG stream per reception, give-ups change FSM control flow,
/// and the watchdog forces extra `advance_to` calls at window
/// boundaries. All of it must stay bit-exact — and actually fire.
#[test]
fn fast_stepping_is_bit_exact_under_faults() {
    // The service timeout is stretched and the per-destination budget
    // tightened so senders actually reach the give-up path before the
    // message times out.
    let timing = rmm_mac::MacTiming {
        timeout: 500,
        dest_retry_limit: 3,
        ..Default::default()
    };
    let scenario = Scenario {
        n_nodes: 25,
        sim_slots: 2_500,
        n_runs: 1,
        msg_rate: 2e-3,
        timing,
        ..Scenario::default()
    }
    .with_faults(
        FaultPlan::new()
            .crash(rmm_sim::NodeId(3), 400)
            .crash(rmm_sim::NodeId(11), 900)
            .deaf(rmm_sim::NodeId(5), 200, 1_200)
            .mute(rmm_sim::NodeId(7), 600, 1_800),
    )
    .with_burst(GilbertElliott::new(0.05, 0.25))
    .with_stall_window(500);
    let mut give_ups = 0usize;
    let mut faulted_receiver_seen = false;
    for protocol in ALL_PROTOCOLS {
        for seed in [41, 42] {
            let out = assert_matrix(&scenario, protocol, seed, "faults");
            let (result, trace) = (out.result, out.trace.expect("traced cell"));
            give_ups += trace
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::GiveUp { .. }))
                .count();
            faulted_receiver_seen |= result.messages.iter().any(|m| m.reachable < m.intended);
        }
    }
    assert!(give_ups > 0, "fault scenario produced no give-up events");
    assert!(
        faulted_receiver_seen,
        "no message ever had a faulted receiver"
    );
}

/// Reboot faults and membership churn are the chaos harness's pressure
/// points on the fast path: the engine must land on every
/// reboot-completion slot to cold-reset the MAC, and the membership
/// filter rewrites receiver lists at churn boundaries — in both
/// stepping modes, identically.
#[test]
fn fast_stepping_is_bit_exact_under_reboot_and_churn() {
    let timing = rmm_mac::MacTiming {
        timeout: 300,
        ..Default::default()
    };
    let scenario = Scenario {
        n_nodes: 25,
        sim_slots: 2_500,
        n_runs: 1,
        msg_rate: 2e-3,
        timing,
        ..Scenario::default()
    }
    .with_faults(
        FaultPlan::new()
            .reboot(NodeId(3), 300, 900)
            .reboot(NodeId(9), 1_200, 1_900)
            .crash(NodeId(15), 800),
    )
    .with_churn(
        ChurnPlan::new()
            .leave(NodeId(5), 600)
            .join(NodeId(5), 1_600)
            .leave(NodeId(12), 1_000),
    )
    .with_stall_window(600);
    let mut epoch_traffic = 0usize;
    for protocol in ALL_PROTOCOLS {
        for seed in [51, 52] {
            let result = assert_matrix(&scenario, protocol, seed, "reboot+churn").result;
            assert!(!result.churn_epochs.is_empty(), "churn produced no epochs");
            epoch_traffic += result
                .churn_epochs
                .iter()
                .map(|e| e.group_metrics.messages)
                .sum::<usize>();
        }
    }
    assert!(epoch_traffic > 0, "churn epochs collected no messages");
}

/// Plumbing inertness: a fault/churn plan whose events all lie beyond
/// the simulated horizon must not perturb the run at all — the
/// membership filter and fault hooks draw no RNG of their own. Only the
/// provenance manifest (which embeds the scenario) and the epoch table
/// (which follows the plan) may differ.
#[test]
fn armed_but_idle_chaos_plumbing_is_rng_inert() {
    let base = Scenario {
        n_nodes: 25,
        sim_slots: 1_500,
        n_runs: 1,
        msg_rate: 2e-3,
        ..Scenario::default()
    };
    let armed = base
        .clone()
        .with_faults(FaultPlan::new().deaf(NodeId(4), 100_000, 120_000))
        .with_churn(
            ChurnPlan::new()
                .leave(NodeId(6), 100_000)
                .join(NodeId(6), 120_000),
        );
    for protocol in ALL_PROTOCOLS {
        for seed in [61, 62] {
            let mut plain = run_one(&base, protocol, seed);
            let mut idle = run_one(&armed, protocol, seed);
            plain.manifest.wall_clock = PhaseTimings::default();
            idle.manifest = plain.manifest.clone();
            idle.churn_epochs = plain.churn_epochs.clone();
            assert_eq!(
                serde_json::to_string(&plain).expect("RunResult serializes"),
                serde_json::to_string(&idle).expect("RunResult serializes"),
                "[inert] {protocol:?} seed {seed}: idle plan perturbed the run"
            );
        }
    }
}

/// The engine's phase profiler is a pure observer: it draws no RNG and
/// perturbs no dynamics (the matrix checks results and traces), while
/// still recording laps for every engine phase it claims to cover.
#[test]
fn profiling_is_bit_exact_for_all_protocols() {
    let scenario = Scenario {
        n_nodes: 25,
        sim_slots: 1_500,
        n_runs: 1,
        msg_rate: 2e-3,
        ..Scenario::default()
    };
    for protocol in ALL_PROTOCOLS {
        for seed in [1, 2] {
            let out = assert_matrix(&scenario, protocol, seed, "prof");
            let report = out.profile.expect("profiled cell");
            assert!(
                report.total_ns > 0,
                "[prof] {protocol:?} seed {seed}: profiler recorded nothing"
            );
            for phase in [
                "carrier_sense",
                "resolve",
                "deliver",
                "fsm_dispatch",
                "tx_launch",
                "horizon_scan",
            ] {
                let stat = report.phase(phase).expect("every phase reported");
                assert!(
                    stat.calls > 0,
                    "[prof] {protocol:?} seed {seed}: phase {phase} never lapped"
                );
            }
        }
    }
}

/// Mobility injects topology swaps and beacon refreshes mid-run; the
/// fast path must land the engine on exactly those slots.
#[test]
fn fast_stepping_is_bit_exact_under_mobility() {
    let scenario = Scenario {
        n_nodes: 25,
        sim_slots: 2_000,
        n_runs: 1,
        msg_rate: 1e-3,
        ..Scenario::default()
    };
    for seed in [31, 32] {
        assert_matrix(&scenario, ProtocolKind::Bmmm, seed, "mobile");
    }
}

/// Beacon position noise draws from its own stream at set-up and again
/// at every beacon refresh of a mobile run. Stepping must not disturb
/// that stream, and a mobile LAMM run (the protocol that reads
/// positions) must actually see the noise.
#[test]
fn fast_stepping_is_bit_exact_under_position_noise() {
    let clean = Scenario {
        n_nodes: 60,
        sim_slots: 2_000,
        n_runs: 1,
        msg_rate: 1e-3,
        ..Scenario::default()
    };
    let noisy = clean.clone().with_position_noise(0.05);
    let mobile = RunSpec {
        mobility: Some(MobilityConfig::default()),
        ..RunSpec::default()
    };
    for seed in [71, 72] {
        assert_matrix(&noisy, ProtocolKind::Lamm, seed, "noise");
        let mut with_noise = run(&noisy, ProtocolKind::Lamm, seed, &mobile).result;
        let without = run(&clean, ProtocolKind::Lamm, seed, &mobile).result;
        with_noise.manifest.scenario = without.manifest.scenario.clone();
        assert_ne!(
            canonical(with_noise),
            canonical(without),
            "mobile seed {seed}: position noise had no effect"
        );
    }
}

/// Runs one input above the draw-ahead gate traced, under both
/// steppings, once with a spare core (the producer thread draws the
/// traffic) and once without (the slot loop draws it), and checks that
/// all four runs give byte-identical results and trace event streams.
/// Returns the fast run that drew ahead.
fn assert_feeds_agree(
    scenario: &Scenario,
    protocol: ProtocolKind,
    seed: u64,
    label: &str,
) -> RunOutput {
    assert!(
        scenario.n_nodes as u64 * scenario.sim_slots >= DRAW_AHEAD_MIN_DRAWS,
        "[{label}] below the draw-ahead gate"
    );
    let mut want: Option<(String, Vec<TraceEvent>)> = None;
    let mut kept = None;
    for stepping in [Stepping::Fast, Stepping::Naive] {
        for spare in [0, 1] {
            let spec = RunSpec {
                stepping,
                probes: Probes {
                    trace: true,
                    ..Probes::default()
                },
                mobility: None,
            };
            let at =
                format!("[{label}] {protocol:?} seed {seed} {stepping:?}, {spare} spare cores");
            let (ahead, out) = with_spare_cores(spare, || {
                (
                    draws_ahead(scenario, &spec),
                    run(scenario, protocol, seed, &spec),
                )
            });
            assert_eq!(ahead, spare == 1, "{at}: feed choice");
            let got = (
                canonical(out.result.clone()),
                out.trace.as_ref().expect("traced").events().to_vec(),
            );
            match &want {
                None => want = Some(got),
                Some(w) => {
                    assert_eq!(w.0, got.0, "{at}: RunResult diverged");
                    assert_eq!(w.1[..], got.1[..], "{at}: trace diverged");
                }
            }
            if ahead && stepping == Stepping::Fast {
                kept = Some(out);
            }
        }
    }
    kept.expect("the fast run with a spare core drew ahead")
}

/// 1 050 stations at the paper's density, at twice `scale_10k`'s load,
/// for 2 000 slots: 2.1 M draws, just above the draw-ahead gate.
fn above_the_gate() -> Scenario {
    Scenario {
        n_nodes: 1_050,
        radius: 0.2 * (100.0f64 / 1_050.0).sqrt(),
        msg_rate: 1e-4,
        sim_slots: 2_000,
        n_runs: 1,
        ..Scenario::default()
    }
}

/// The producer thread's arrivals are the slot loop's: every protocol,
/// three seeds, both steppings.
#[test]
fn drawing_ahead_is_bit_exact_for_all_protocols() {
    let scenario = above_the_gate();
    for protocol in ALL_PROTOCOLS {
        for seed in [1, 2, 3] {
            let out = assert_feeds_agree(&scenario, protocol, seed, "ahead");
            assert!(
                out.result.messages.len() > 50,
                "{protocol:?} seed {seed}: only {} messages",
                out.result.messages.len()
            );
        }
    }
}

/// Churn filters the arrivals after the feed hands them over, the
/// watchdog inspects the network between them, and frame errors, the
/// burst channel and the fault plan draw or act inside the engine: all
/// of it must see the same arrivals whichever feed drew them.
#[test]
fn drawing_ahead_is_bit_exact_under_faults_and_churn() {
    let timing = rmm_mac::MacTiming {
        timeout: 300,
        dest_retry_limit: 3,
        ..Default::default()
    };
    let scenario = Scenario {
        msg_rate: 4e-4,
        fer: 0.05,
        timing,
        ..above_the_gate()
    }
    .with_burst(GilbertElliott::new(0.05, 0.25))
    .with_faults(
        FaultPlan::new()
            .crash(NodeId(3), 400)
            .deaf(NodeId(5), 200, 1_200)
            .mute(NodeId(7), 600, 1_800)
            .reboot(NodeId(9), 300, 900),
    )
    .with_churn(
        ChurnPlan::new()
            .leave(NodeId(12), 500)
            .join(NodeId(12), 1_500)
            .leave(NodeId(20), 1_000),
    )
    .with_stall_window(400);
    let mut give_ups = 0;
    for protocol in ALL_PROTOCOLS {
        for seed in [4, 5, 6] {
            let out = assert_feeds_agree(&scenario, protocol, seed, "ahead+faults");
            assert!(
                !out.result.churn_epochs.is_empty(),
                "churn produced no epochs"
            );
            give_ups += out
                .trace
                .expect("traced")
                .events()
                .iter()
                .filter(|e| matches!(e, TraceEvent::GiveUp { .. }))
                .count();
        }
    }
    assert!(
        give_ups > 0,
        "the fault scenario produced no give-up events"
    );
}

//! Full-stack integration: the paper's qualitative results must hold on
//! the real simulator with the Table 2 workload (scaled down for CI).

use rmm::prelude::*;
use rmm::workload::mean_group_metrics;
use std::sync::OnceLock;

fn scenario() -> Scenario {
    Scenario {
        n_nodes: 60,
        sim_slots: 5_000,
        n_runs: 4,
        ..Scenario::default()
    }
}

/// Table 2 at 60 nodes, shortened further: the base of the per-axis
/// sweeps and the ablations.
fn short() -> Scenario {
    Scenario {
        sim_slots: 2_000,
        n_runs: 2,
        ..scenario()
    }
}

/// The protocols the paper plots, in the order of [`Point`]'s arrays.
const PLOTTED: [ProtocolKind; 4] = [
    ProtocolKind::Bsma,
    ProtocolKind::Bmw,
    ProtocolKind::Bmmm,
    ProtocolKind::Lamm,
];

/// One scenario's runs of every plotted protocol.
struct Point {
    scenario: Scenario,
    /// Mean group metrics per protocol.
    metrics: [RunMetrics; 4],
    /// Every run's group messages per protocol, for re-scoring.
    messages: [Vec<MessageMetric>; 4],
}

impl Point {
    fn run(scenario: Scenario) -> Point {
        let runs = PLOTTED.map(|p| run_many(&scenario, p));
        Point {
            metrics: runs.each_ref().map(|r| mean_group_metrics(r)),
            messages: runs.map(|r| {
                r.into_iter()
                    .flat_map(|r| r.messages.into_iter().filter(|m| m.is_group))
                    .collect()
            }),
            scenario,
        }
    }

    /// Delivery rates re-scored at a reliability `threshold`.
    fn scored(&self, threshold: f64) -> [f64; 4] {
        self.messages
            .each_ref()
            .map(|m| RunMetrics::compute(m, threshold).delivery_rate)
    }

    fn label(&self) -> String {
        let s = &self.scenario;
        format!(
            "{} nodes, rate {:e}, {} slots",
            s.n_nodes, s.msg_rate, s.sim_slots
        )
    }
}

/// The CI-scale scenario, then the density (40–120 nodes) and load
/// (2.5·10⁻⁴–10⁻³) axes of Figures 6, 9 and 10 around [`short`]. Run
/// once, shared by the ranking tests.
fn sweep() -> &'static [Point] {
    static SWEEP: OnceLock<Vec<Point>> = OnceLock::new();
    SWEEP.get_or_init(|| {
        let density = [40, 60, 80, 120].map(|n| short().with_nodes(n));
        let load = [2.5e-4, 1e-3].map(|r| short().with_rate(r));
        std::iter::once(scenario())
            .chain(density)
            .chain(load)
            .map(Point::run)
            .collect()
    })
}

fn metrics(scenario: &Scenario, protocol: ProtocolKind) -> RunMetrics {
    mean_group_metrics(&run_many(scenario, protocol))
}

#[test]
fn delivery_rate_ranking_matches_paper() {
    // Figure 6: LAMM ≥ BMMM >> BSMA, BMW.
    for point in sweep() {
        let [bsma, bmw, bmmm, lamm] = point.metrics.map(|m| m.delivery_rate);
        let at = point.label();
        assert!(lamm >= bmmm - 0.02, "{at}: LAMM {lamm} < BMMM {bmmm}");
        assert!(bmmm > bsma + 0.05, "{at}: BMMM {bmmm} !>> BSMA {bsma}");
        assert!(bmmm > bmw + 0.05, "{at}: BMMM {bmmm} !>> BMW {bmw}");
    }
}

#[test]
fn contention_phase_ranking_matches_paper() {
    // Figure 9: BMW needs by far the most contention phases; BMMM/LAMM
    // need no more than BSMA.
    for point in sweep() {
        let [bsma, bmw, bmmm, lamm] = point.metrics.map(|m| m.avg_contention_phases);
        let at = point.label();
        assert!(bmw > 2.0 * bmmm, "{at}: BMW {bmw} vs BMMM {bmmm}");
        assert!(bmw > bsma, "{at}: BMW {bmw} vs BSMA {bsma}");
        assert!(bmmm <= bsma + 0.1, "{at}: BMMM {bmmm} vs BSMA {bsma}");
        assert!(lamm <= bsma + 0.1, "{at}: LAMM {lamm} vs BSMA {bsma}");
    }
}

#[test]
fn completion_time_ranking_matches_paper() {
    // Figure 10: LAMM completes faster than BMMM, which beats BMW.
    for point in sweep() {
        let [_, bmw, bmmm, lamm] = point.metrics.map(|m| m.avg_completion_time);
        let at = point.label();
        assert!(lamm <= bmmm + 1.0, "{at}: LAMM {lamm} > BMMM {bmmm}");
        // Above the paper's density only BMW's fastest messages complete
        // at all (its delivery rate collapses, Figure 6a), so its mean
        // over completions shrinks: Section 7.3's caveat that completion
        // time must be read jointly with delivery rate.
        if point.scenario.n_nodes <= 60 {
            assert!(bmmm < bmw, "{at}: BMMM {bmmm} !< BMW {bmw}");
        }
    }
}

#[test]
fn longer_timeout_improves_delivery() {
    // Figure 7's monotone trend.
    let short_timeout = metrics(&scenario().with_timeout(100), ProtocolKind::Bmmm);
    let long_timeout = metrics(&scenario().with_timeout(300), ProtocolKind::Bmmm);
    assert!(
        long_timeout.delivery_rate > short_timeout.delivery_rate,
        "300-slot timeout {} !> 100-slot {}",
        long_timeout.delivery_rate,
        short_timeout.delivery_rate
    );
    // BMMM/LAMM stay above BMW/BSMA at every timeout.
    for timeout in [100, 200, 300] {
        let [bsma, bmw, bmmm, lamm] = Point::run(short().with_timeout(timeout))
            .metrics
            .map(|m| m.delivery_rate);
        assert!(bmmm > bmw, "timeout {timeout}: BMMM {bmmm} !> BMW {bmw}");
        assert!(lamm > bsma, "timeout {timeout}: LAMM {lamm} !> BSMA {bsma}");
    }
}

#[test]
fn higher_threshold_reduces_delivery_rate_for_unreliable_protocols() {
    // Figure 8: scoring is monotone in the threshold for every protocol,
    // and BMMM/LAMM stay above BMW/BSMA at every threshold.
    for point in sweep() {
        let mut prev = [f64::INFINITY; 4];
        for t in [0.5, 0.7, 0.9, 1.0] {
            let rates = point.scored(t);
            let at = format!("{}, threshold {t}", point.label());
            for ((p, rate), prev) in PLOTTED.iter().zip(rates).zip(prev) {
                assert!(rate <= prev + 1e-12, "{at}: {p:?} {rate} > {prev}");
            }
            let [bsma, bmw, bmmm, lamm] = rates;
            assert!(bmmm > bmw, "{at}: BMMM {bmmm} !> BMW {bmw}");
            assert!(lamm > bsma, "{at}: LAMM {lamm} !> BSMA {bsma}");
            prev = rates;
        }
    }
    // And the drop from 0.5 to 1.0 is real for BSMA (it completes while
    // receivers are missing the data).
    let [lo, ..] = sweep()[0].scored(0.5);
    let [hi, ..] = sweep()[0].scored(1.0);
    assert!(
        lo > hi,
        "BSMA should lose apparent reliability at threshold 1.0"
    );
}

#[test]
fn heavier_load_degrades_every_protocol() {
    // Figures 6b/9b: more traffic, more collisions, lower delivery.
    for protocol in [ProtocolKind::Bmmm, ProtocolKind::Bsma] {
        let light = metrics(&scenario().with_rate(2e-4), protocol);
        let heavy = metrics(&scenario().with_rate(2e-3), protocol);
        assert!(
            heavy.delivery_rate < light.delivery_rate,
            "{protocol:?}: heavy {} !< light {}",
            heavy.delivery_rate,
            light.delivery_rate
        );
    }
}

#[test]
fn unicast_metrics_are_protocol_independent_in_shape() {
    // The unicast share always rides DCF; its delivery rate should be
    // high and similar across protocol choices.
    let a = mean_group_metrics(&run_many(&scenario(), ProtocolKind::Bmmm));
    let _ = a; // group metrics sanity below uses unicast slice directly
    for protocol in [ProtocolKind::Ieee80211, ProtocolKind::Bmmm] {
        let results = run_many(&scenario(), protocol);
        for r in &results {
            assert!(
                r.unicast_metrics.delivery_rate > 0.7,
                "{protocol:?} seed {}: unicast delivery {}",
                r.seed,
                r.unicast_metrics.delivery_rate
            );
        }
    }
}

#[test]
fn run_results_are_internally_consistent() {
    let results = run_many(&scenario(), ProtocolKind::Lamm);
    for r in &results {
        assert!((0.0..=1.0).contains(&r.group_metrics.delivery_rate));
        assert!((0.0..=1.0).contains(&r.group_metrics.avg_delivered_frac));
        assert!(r.group_metrics.avg_contention_phases >= 0.99);
        for m in &r.messages {
            assert!(m.delivered <= m.intended);
            if let Some(ct) = m.completion_time {
                assert!(ct <= 100, "completion {ct} beyond the timeout");
                assert!(m.completed);
            }
            assert!(!(m.completed && m.timed_out));
        }
    }
}

#[test]
fn capture_keeps_bsma_alive_and_leaves_bmmm_alone() {
    // Ablation: BSMA's piled-up CTS/NAK replies survive only by capture,
    // so without it BSMA burns more contention phases. BMMM's replies
    // never pile up, so capture barely moves its delivery.
    let none = Scenario {
        capture: Capture::None,
        ..short()
    };
    let zorzi_rao = Scenario {
        capture: Capture::ZorziRao,
        ..short()
    };
    let phases = |s| metrics(s, ProtocolKind::Bsma).avg_contention_phases;
    let (bsma_none, bsma_zr) = (phases(&none), phases(&zorzi_rao));
    assert!(
        bsma_none > bsma_zr,
        "BSMA phases without capture {bsma_none} !> with {bsma_zr}"
    );
    let delivery = |s| metrics(s, ProtocolKind::Bmmm).delivery_rate;
    let (bmmm_none, bmmm_zr) = (delivery(&none), delivery(&zorzi_rao));
    assert!(
        (bmmm_none - bmmm_zr).abs() < 0.08,
        "BMMM delivery without capture {bmmm_none} vs with {bmmm_zr}"
    );
}

#[test]
fn nav_does_not_hurt_bmmm() {
    // Ablation: virtual carrier sense protects batches from hidden
    // bystanders; turning it off must not deliver noticeably more.
    let mut without_nav = short();
    without_nav.timing.nav_enabled = false;
    let on = metrics(&short(), ProtocolKind::Bmmm).delivery_rate;
    let off = metrics(&without_nav, ProtocolKind::Bmmm).delivery_rate;
    assert!(on + 0.05 >= off, "BMMM with NAV {on}, without {off}");
}

#[test]
fn rak_train_is_what_makes_bmmm_reliable() {
    // Ablation (Section 4): without the RAK train every receiver ACKs at
    // once, the ACKs collide, and the sender re-contends for receivers
    // it already served.
    let with_rak = metrics(&short(), ProtocolKind::Bmmm);
    let without = metrics(&short(), ProtocolKind::BmmmUncoordinated);
    assert!(
        with_rak.delivery_rate > without.delivery_rate + 0.1,
        "delivery with RAK {} vs without {}",
        with_rak.delivery_rate,
        without.delivery_rate
    );
    assert!(
        without.avg_contention_phases > with_rak.avg_contention_phases,
        "phases without RAK {} !> with {}",
        without.avg_contention_phases,
        with_rak.avg_contention_phases
    );
}

//! Traffic generation: Bernoulli per-node arrivals with the paper's
//! unicast / multicast / broadcast mix.
//!
//! Every slot draws one uniform per station, so at the paper's rate
//! (5·10⁻⁴) the arrival test is the whole cost of a tick. It runs on
//! the raw 64-bit draw, never forming the `f64`: the generator's `f64`
//! is `(x >> 11) · 2⁻⁵³`, exact, and `rate · 2⁵³` is exact too (scaling
//! by a power of two), so `u < rate` is exactly `x >> 11 < ⌈rate · 2⁵³⌉`.
//! The scan for the next arrival runs on a local copy of the generator,
//! whose state the compiler keeps in registers. Draws and their order
//! are those of the plain `f64` loop, which the unit tests keep as the
//! oracle.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use rmm_mac::TrafficKind;
use rmm_sim::{NodeId, Slot, Topology};
use serde::{Deserialize, Serialize};

/// Message-type mix (must sum to ≤ 1; the remainder generates nothing).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficMix {
    /// Fraction of unicast messages (paper: 0.2).
    pub unicast: f64,
    /// Fraction of multicast messages (paper: 0.4).
    pub multicast: f64,
    /// Fraction of broadcast messages (paper: 0.4).
    pub broadcast: f64,
}

impl Default for TrafficMix {
    fn default() -> Self {
        TrafficMix {
            unicast: 0.2,
            multicast: 0.4,
            broadcast: 0.4,
        }
    }
}

impl TrafficMix {
    /// Draws a message kind from the mix.
    pub fn draw(&self, rng: &mut SmallRng) -> TrafficKind {
        let x: f64 = rng.random::<f64>() * (self.unicast + self.multicast + self.broadcast);
        if x < self.unicast {
            TrafficKind::Unicast
        } else if x < self.unicast + self.multicast {
            TrafficKind::Multicast
        } else {
            TrafficKind::Broadcast
        }
    }
}

/// Per-slot Bernoulli arrival generator.
///
/// Each slot, each station generates a message with probability `rate`
/// (paper: 5·10⁻⁴ per node per slot). Receiver selection, per the paper's
/// model (the request "indicates the set of neighbors required to reach
/// all the members of the intended multicast group"):
///
/// * unicast → one uniformly-chosen neighbor,
/// * multicast → a uniformly-sized random subset of the neighbors
///   (size drawn from `1..=degree`),
/// * broadcast → all neighbors.
///
/// Stations with no neighbors generate no traffic.
#[derive(Debug)]
pub struct TrafficGen {
    /// [`arrival_threshold`] of the configured rate.
    threshold: u64,
    mix: TrafficMix,
    rng: SmallRng,
}

/// `⌈rate · 2⁵³⌉`: a station draws an arrival iff its raw draw `x` has
/// `x >> 11` below this, which is exactly `u < rate` for the uniform
/// `u = (x >> 11) · 2⁻⁵³` the generator would return.
fn arrival_threshold(rate: f64) -> u64 {
    (rate * (1u64 << 53) as f64).ceil() as u64
}

/// One generated arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Originating station.
    pub node: NodeId,
    /// Traffic class.
    pub kind: TrafficKind,
    /// Intended receivers.
    pub receivers: Vec<NodeId>,
}

impl TrafficGen {
    /// Creates a generator.
    pub fn new(rate: f64, mix: TrafficMix, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        TrafficGen {
            threshold: arrival_threshold(rate),
            mix,
            rng: SmallRng::seed_from_u64(seed ^ 0xa5a5_5a5a_dead_beef),
        }
    }

    /// Generates this slot's arrivals across all stations.
    pub fn tick(&mut self, topo: &Topology, _now: Slot, out: &mut Vec<Arrival>) {
        out.clear();
        let n = topo.len();
        let mut i = 0;
        while i < n {
            let mut rng = self.rng.clone();
            while i < n && rng.next_u64() >> 11 >= self.threshold {
                i += 1;
            }
            self.rng = rng;
            if i == n {
                break;
            }
            out.extend(self.arrival(topo, NodeId(i as u32)));
            i += 1;
        }
    }

    /// Draws the kind and receivers of an arrival at `node` (none for a
    /// station without neighbors).
    fn arrival(&mut self, topo: &Topology, node: NodeId) -> Option<Arrival> {
        let neighbors = topo.neighbors(node);
        if neighbors.is_empty() {
            return None;
        }
        let kind = self.mix.draw(&mut self.rng);
        let receivers = match kind {
            TrafficKind::Unicast => {
                vec![neighbors[self.rng.random_range(0..neighbors.len())]]
            }
            TrafficKind::Broadcast => neighbors.to_vec(),
            TrafficKind::Multicast => {
                let size = self.rng.random_range(1..=neighbors.len());
                // Partial Fisher–Yates over a scratch copy.
                let mut pool = neighbors.to_vec();
                for j in 0..size {
                    let k = self.rng.random_range(j..pool.len());
                    pool.swap(j, k);
                }
                pool.truncate(size);
                pool
            }
        };
        Some(Arrival {
            node,
            kind,
            receivers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::uniform_square;
    use proptest::prelude::*;

    /// The plain arrival loop: one `f64` per station, compared against
    /// the rate. The oracle for `tick`'s raw-draw scan.
    fn tick_reference(gen: &mut TrafficGen, rate: f64, topo: &Topology, out: &mut Vec<Arrival>) {
        out.clear();
        for i in 0..topo.len() {
            if gen.rng.random::<f64>() >= rate {
                continue;
            }
            out.extend(gen.arrival(topo, NodeId(i as u32)));
        }
    }

    /// The paper's rate, a tenth of it, the extremes, a subnormal, and a
    /// multiple of 2⁻⁵³ (the draw's resolution) or one ulp either side.
    fn rate() -> impl Strategy<Value = f64> {
        let step = (prop_oneof![1u64..64, 1u64..(1 << 53)], 0usize..3).prop_map(|(k, side)| {
            let r = k as f64 / (1u64 << 53) as f64;
            [r.next_down(), r, r.next_up()][side]
        });
        prop_oneof![
            Just(0.0),
            Just(1.0),
            Just(5e-4),
            Just(5e-5),
            Just(f64::MIN_POSITIVE / 3.0),
            step,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `tick` draws the same arrivals as the `f64` loop and leaves
        /// the generator in the same state, and its threshold splits the
        /// raw draws exactly where `u < rate` does.
        #[test]
        fn tick_matches_the_float_loop(
            rate in rate(),
            n in 1usize..120,
            seed in any::<u64>(),
        ) {
            let t = arrival_threshold(rate);
            for m in t.saturating_sub(2)..(t + 2).min(1 << 53) {
                let u = m as f64 / (1u64 << 53) as f64;
                prop_assert_eq!(u < rate, m < t, "rate {:e}, raw draw {}", rate, m);
            }
            let topo = uniform_square(n, 0.2, seed);
            let mut gen = TrafficGen::new(rate, TrafficMix::default(), seed);
            let mut reference = TrafficGen::new(rate, TrafficMix::default(), seed);
            let (mut out, mut expected) = (Vec::new(), Vec::new());
            for now in 0..40 {
                gen.tick(&topo, now, &mut out);
                tick_reference(&mut reference, rate, &topo, &mut expected);
                prop_assert_eq!(&out, &expected, "rate {:e}, slot {}", rate, now);
            }
            prop_assert!(gen.rng == reference.rng, "generator state diverged at rate {:e}", rate);
        }
    }

    #[test]
    fn mix_draw_respects_ratios() {
        let mix = TrafficMix::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            match mix.draw(&mut rng) {
                TrafficKind::Unicast => counts[0] += 1,
                TrafficKind::Multicast => counts[1] += 1,
                TrafficKind::Broadcast => counts[2] += 1,
            }
        }
        let total = 30_000.0;
        assert!((counts[0] as f64 / total - 0.2).abs() < 0.02);
        assert!((counts[1] as f64 / total - 0.4).abs() < 0.02);
        assert!((counts[2] as f64 / total - 0.4).abs() < 0.02);
    }

    #[test]
    fn arrival_rate_matches_configuration() {
        let topo = uniform_square(100, 0.2, 3);
        let mut gen = TrafficGen::new(0.01, TrafficMix::default(), 5);
        let mut out = Vec::new();
        let mut total = 0usize;
        let slots = 2_000;
        for t in 0..slots {
            gen.tick(&topo, t, &mut out);
            total += out.len();
        }
        // Expect ≈ rate · nodes · slots (isolated nodes generate none; at
        // this density nearly all nodes have neighbors).
        let expect = 0.01 * 100.0 * slots as f64;
        assert!(
            (total as f64) > expect * 0.85 && (total as f64) < expect * 1.15,
            "total {total}, expected ≈ {expect}"
        );
    }

    #[test]
    fn receivers_are_always_neighbors() {
        let topo = uniform_square(60, 0.2, 9);
        let mut gen = TrafficGen::new(0.05, TrafficMix::default(), 9);
        let mut out = Vec::new();
        for t in 0..500 {
            gen.tick(&topo, t, &mut out);
            for a in &out {
                assert!(!a.receivers.is_empty());
                for r in &a.receivers {
                    assert!(
                        topo.neighbors(a.node).contains(r),
                        "{r} not a neighbor of {}",
                        a.node
                    );
                }
                // No duplicates.
                let mut rs = a.receivers.clone();
                rs.sort();
                rs.dedup();
                assert_eq!(rs.len(), a.receivers.len());
            }
        }
    }

    #[test]
    fn unicast_has_one_receiver_broadcast_has_all() {
        let topo = uniform_square(60, 0.2, 10);
        let mut gen = TrafficGen::new(0.05, TrafficMix::default(), 10);
        let mut out = Vec::new();
        let mut seen_unicast = false;
        let mut seen_broadcast = false;
        for t in 0..2_000 {
            gen.tick(&topo, t, &mut out);
            for a in &out {
                match a.kind {
                    TrafficKind::Unicast => {
                        assert_eq!(a.receivers.len(), 1);
                        seen_unicast = true;
                    }
                    TrafficKind::Broadcast => {
                        assert_eq!(a.receivers.len(), topo.neighbors(a.node).len());
                        seen_broadcast = true;
                    }
                    TrafficKind::Multicast => {
                        assert!(a.receivers.len() <= topo.neighbors(a.node).len());
                    }
                }
            }
        }
        assert!(seen_unicast && seen_broadcast);
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let topo = uniform_square(50, 0.2, 2);
        let mut gen = TrafficGen::new(0.0, TrafficMix::default(), 2);
        let mut out = Vec::new();
        for t in 0..100 {
            gen.tick(&topo, t, &mut out);
            assert!(out.is_empty());
        }
    }
}

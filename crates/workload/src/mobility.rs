//! Node mobility and periodic beaconing.
//!
//! The paper's network model learns neighborhoods from periodic beacons
//! ("the beacon containing the station MAC address is broadcast
//! periodically by each station to announce its presence"), and LAMM
//! additionally piggybacks GPS positions on those beacons. With static
//! nodes the beacon abstraction is invisible; with mobility it matters:
//! stations act on the neighbor set and positions as of the **last
//! beacon exchange**, which lags the ground truth. This module provides
//! the classic random-waypoint model and the beacon-refresh plumbing the
//! mobile runner uses.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmm_geom::Point;
use rmm_sim::Topology;
use serde::{Deserialize, Serialize};

/// Mobility configuration for [`RandomWaypoint`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobilityConfig {
    /// Minimum node speed in unit-square lengths per slot.
    pub speed_min: f64,
    /// Maximum node speed in unit-square lengths per slot.
    pub speed_max: f64,
    /// Slots between ground-truth topology updates (simulation epochs).
    pub update_period: u64,
    /// Slots between beacon exchanges — how often the beacon view that
    /// requests are addressed from and the advertised positions stations
    /// read are refreshed. Staleness is
    /// `beacon_period − update_period` in the worst case.
    pub beacon_period: u64,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        // With a 50 µs slot, 10⁻⁵ units/slot over a 300 m square is
        // ≈ 60 m/s... units are abstract; these defaults give visible
        // but not absurd motion over a 10 000-slot run (total ≈ 0.1).
        MobilityConfig {
            speed_min: 0.0,
            speed_max: 2e-5,
            update_period: 100,
            beacon_period: 500,
        }
    }
}

/// Random-waypoint mobility: each node walks toward a uniformly random
/// destination at a uniformly random speed, then picks a new one.
#[derive(Debug, Clone)]
pub struct RandomWaypoint {
    positions: Vec<Point>,
    targets: Vec<Point>,
    speeds: Vec<f64>,
    config: MobilityConfig,
    rng: SmallRng,
}

impl RandomWaypoint {
    /// Starts the model from `initial` positions.
    pub fn new(initial: Vec<Point>, config: MobilityConfig, seed: u64) -> Self {
        assert!(config.speed_min >= 0.0 && config.speed_max >= config.speed_min);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6d6f_7665);
        let n = initial.len();
        let targets: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        let speeds: Vec<f64> = (0..n)
            .map(|_| {
                if config.speed_max > config.speed_min {
                    rng.random_range(config.speed_min..=config.speed_max)
                } else {
                    config.speed_min
                }
            })
            .collect();
        RandomWaypoint {
            positions: initial,
            targets,
            speeds,
            config,
            rng,
        }
    }

    /// Current ground-truth positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Advances all nodes by `dt` slots of motion.
    pub fn step(&mut self, dt: u64) {
        let dt = dt as f64;
        for i in 0..self.positions.len() {
            let mut remaining = self.speeds[i] * dt;
            while remaining > 0.0 {
                let p = self.positions[i];
                let t = self.targets[i];
                let d = p.dist(&t);
                if d <= remaining {
                    // Arrived: hop to the waypoint, draw a new one.
                    self.positions[i] = t;
                    remaining -= d;
                    self.targets[i] = Point::new(
                        self.rng.random_range(0.0..1.0),
                        self.rng.random_range(0.0..1.0),
                    );
                    let (lo, hi) = (self.config.speed_min, self.config.speed_max);
                    self.speeds[i] = if hi > lo {
                        self.rng.random_range(lo..=hi)
                    } else {
                        lo
                    };
                    if self.speeds[i] == 0.0 {
                        break;
                    }
                } else {
                    let frac = remaining / d;
                    self.positions[i] =
                        Point::new(p.x + (t.x - p.x) * frac, p.y + (t.y - p.y) * frac);
                    remaining = 0.0;
                }
            }
        }
    }

    /// Builds the ground-truth topology for the current positions.
    pub fn topology(&self, radius: f64) -> Topology {
        Topology::new(self.positions.clone(), radius)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::uniform_square;

    fn initial(n: usize) -> Vec<Point> {
        uniform_square(n, 0.2, 3).positions().to_vec()
    }

    fn config(vmax: f64) -> MobilityConfig {
        MobilityConfig {
            speed_min: 0.0,
            speed_max: vmax,
            ..Default::default()
        }
    }

    #[test]
    fn zero_speed_means_no_motion() {
        let init = initial(20);
        let mut m = RandomWaypoint::new(init.clone(), config(0.0), 1);
        m.step(10_000);
        assert_eq!(m.positions(), &init[..]);
    }

    #[test]
    fn nodes_stay_in_unit_square() {
        let mut m = RandomWaypoint::new(initial(30), config(1e-3), 2);
        for _ in 0..200 {
            m.step(100);
            for p in m.positions() {
                assert!((0.0..=1.0).contains(&p.x), "x = {}", p.x);
                assert!((0.0..=1.0).contains(&p.y), "y = {}", p.y);
            }
        }
    }

    #[test]
    fn displacement_is_bounded_by_speed() {
        let init = initial(25);
        let mut m = RandomWaypoint::new(init.clone(), config(1e-4), 5);
        m.step(1_000);
        for (a, b) in init.iter().zip(m.positions()) {
            // Waypoint turns only shorten net displacement.
            assert!(a.dist(b) <= 1e-4 * 1_000.0 + 1e-9);
        }
    }

    #[test]
    fn motion_actually_happens() {
        let init = initial(25);
        let mut m = RandomWaypoint::new(init.clone(), config(1e-4), 5);
        m.step(2_000);
        let moved = init
            .iter()
            .zip(m.positions())
            .filter(|(a, b)| a.dist(b) > 1e-4)
            .count();
        assert!(moved > 15, "only {moved} nodes moved");
    }

    #[test]
    fn stepping_is_deterministic_per_seed() {
        let mut a = RandomWaypoint::new(initial(10), config(1e-4), 7);
        let mut b = RandomWaypoint::new(initial(10), config(1e-4), 7);
        a.step(500);
        b.step(500);
        assert_eq!(a.positions(), b.positions());
    }

    #[test]
    fn topology_tracks_motion() {
        let mut m = RandomWaypoint::new(initial(40), config(5e-4), 9);
        let before = m.topology(0.2).mean_degree();
        m.step(5_000);
        let after = m.topology(0.2).mean_degree();
        // Degrees change as nodes move (value itself is random).
        assert!((before - after).abs() > 1e-9 || before == after);
        assert_eq!(m.topology(0.2).len(), 40);
    }
}

//! Angles and directed circular arcs.
//!
//! The paper expresses cover angles in degrees on `[0, 360]`; internally we
//! use radians on `[0, 2π)`. An [`Arc`] is stored as a start direction plus
//! a non-negative extent, which sidesteps wrap-around ambiguity: the arc
//! `[350°, 10°]` is simply `start = 350°, extent = 20°`.

use crate::EPS;
use serde::{Deserialize, Serialize};

/// Full turn, `2π`.
pub const TAU: f64 = std::f64::consts::TAU;

/// One degree in radians.
pub const DEG: f64 = std::f64::consts::PI / 180.0;

/// Normalizes an angle into `[0, 2π)`.
///
/// `%` is a libm `fmod` call, and for `|a| < 2π` it returns `a` itself,
/// so in-range angles (every cover angle's) skip it: the result is bit
/// for bit that of `a % TAU` and the folding below.
#[inline]
pub fn normalize_angle(a: f64) -> f64 {
    let mut a = if a.abs() < TAU { a } else { a % TAU };
    if a < 0.0 {
        a += TAU;
    }
    // `-1e-30 % TAU + TAU` rounds to TAU itself; fold it back to 0.
    if a >= TAU {
        a = 0.0;
    }
    a
}

/// A counter-clockwise circular arc of directions.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Arc {
    /// Start direction in radians, normalized to `[0, 2π)`.
    pub start: f64,
    /// Counter-clockwise extent in radians, clamped to `[0, 2π]`.
    pub extent: f64,
}

impl Arc {
    /// Creates an arc from a start direction and a CCW extent. The start is
    /// normalized and the extent clamped to a full turn.
    pub fn new(start: f64, extent: f64) -> Self {
        Arc {
            start: normalize_angle(start),
            extent: extent.clamp(0.0, TAU),
        }
    }

    /// Creates the arc running counter-clockwise from `from` to `to`
    /// (paper notation `[α, β]`).
    pub fn from_endpoints(from: f64, to: f64) -> Self {
        let from = normalize_angle(from);
        let to = normalize_angle(to);
        let extent = normalize_angle(to - from);
        Arc {
            start: from,
            extent,
        }
    }

    /// Arc covering the whole circle.
    pub const fn full() -> Self {
        Arc {
            start: 0.0,
            extent: TAU,
        }
    }

    /// End direction (`start + extent`, normalized).
    #[inline]
    pub fn end(&self) -> f64 {
        normalize_angle(self.start + self.extent)
    }

    /// Whether this arc covers the whole circle (up to [`EPS`]).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.extent >= TAU - EPS
    }

    /// Whether this arc is (numerically) empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.extent <= EPS
    }

    /// Whether direction `a` lies on the arc (inclusive of endpoints).
    pub fn contains(&self, a: f64) -> bool {
        if self.is_full() {
            return true;
        }
        let rel = normalize_angle(a - self.start);
        rel <= self.extent + EPS
    }

    /// Midpoint direction of the arc.
    pub fn midpoint(&self) -> f64 {
        normalize_angle(self.start + self.extent / 2.0)
    }

    /// Splits the arc into up to two linear intervals `[lo, hi]` with
    /// `0 ≤ lo ≤ hi ≤ 2π`, unwrapping arcs that cross the 0 direction.
    pub fn to_linear_intervals(&self) -> ([f64; 2], Option<[f64; 2]>) {
        if self.is_full() {
            return ([0.0, TAU], None);
        }
        let end = self.start + self.extent;
        if end <= TAU {
            ([self.start, end], None)
        } else {
            ([self.start, TAU], Some([0.0, end - TAU]))
        }
    }

    /// The paper's degree notation `[α°, β°]` for this arc.
    pub fn to_degrees(&self) -> (f64, f64) {
        (self.start / DEG, self.end() / DEG)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn normalize_wraps_negative() {
        assert!((normalize_angle(-PI / 2.0) - 1.5 * PI).abs() < 1e-12);
        assert!((normalize_angle(5.0 * PI) - PI).abs() < 1e-12);
        assert_eq!(normalize_angle(0.0), 0.0);
    }

    #[test]
    fn normalize_never_returns_tau() {
        assert!(normalize_angle(-1e-30) < TAU);
        assert!(normalize_angle(TAU) < TAU);
        assert!(normalize_angle(-0.0) < TAU);
    }

    #[test]
    fn from_endpoints_simple() {
        let a = Arc::from_endpoints(0.0, PI);
        assert!((a.extent - PI).abs() < 1e-12);
        assert!(a.contains(PI / 2.0));
        assert!(!a.contains(1.5 * PI));
    }

    #[test]
    fn from_endpoints_wrapping() {
        // [350°, 10°] wraps through zero.
        let a = Arc::from_endpoints(350.0 * DEG, 10.0 * DEG);
        assert!((a.extent - 20.0 * DEG).abs() < 1e-9);
        assert!(a.contains(0.0));
        assert!(a.contains(355.0 * DEG));
        assert!(a.contains(5.0 * DEG));
        assert!(!a.contains(180.0 * DEG));
    }

    #[test]
    fn full_arc_contains_everything() {
        let a = Arc::full();
        assert!(a.is_full());
        for k in 0..16 {
            assert!(a.contains(k as f64 * TAU / 16.0));
        }
    }

    #[test]
    fn contains_is_endpoint_inclusive() {
        let a = Arc::new(1.0, 1.0);
        assert!(a.contains(1.0));
        assert!(a.contains(2.0));
    }

    #[test]
    fn linear_intervals_non_wrapping() {
        let a = Arc::new(1.0, 1.5);
        let (first, second) = a.to_linear_intervals();
        assert_eq!(first, [1.0, 2.5]);
        assert!(second.is_none());
    }

    #[test]
    fn linear_intervals_wrapping() {
        let a = Arc::new(TAU - 0.5, 1.0);
        let (first, second) = a.to_linear_intervals();
        assert!((first[0] - (TAU - 0.5)).abs() < 1e-12);
        assert!((first[1] - TAU).abs() < 1e-12);
        let second = second.unwrap();
        assert!((second[0] - 0.0).abs() < 1e-12);
        assert!((second[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn midpoint_wraps() {
        let a = Arc::new(TAU - 0.2, 0.4);
        assert!((a.midpoint() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn degrees_roundtrip() {
        let a = Arc::from_endpoints(90.0 * DEG, 180.0 * DEG);
        let (s, e) = a.to_degrees();
        assert!((s - 90.0).abs() < 1e-9);
        assert!((e - 180.0).abs() < 1e-9);
    }
}

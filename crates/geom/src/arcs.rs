//! Unions of circular arcs.
//!
//! [`ArcSet`] accumulates arcs and answers the question at the heart of the
//! paper's Theorem 4: *does the union of the cover angles span the full
//! circle `[0°, 360°]`?*

use crate::angle::{Arc, TAU};
use crate::EPS;
use std::iter::Peekable;

/// A set of circular arcs with union queries.
///
/// Arcs are stored as they arrive, next to their linear intervals on
/// `[0, 2π]` kept sorted by start, so [`ArcSet::covers_full_circle`] sweeps
/// them without sorting or allocating.
#[derive(Debug, Clone, Default)]
pub struct ArcSet {
    arcs: Vec<Arc>,
    /// [`Arc::to_linear_intervals`] of every arc, sorted by start; equal
    /// starts keep arrival order.
    intervals: Vec<[f64; 2]>,
}

impl ArcSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ArcSet::default()
    }

    /// Creates a set from an iterator of arcs.
    pub fn from_arcs<I: IntoIterator<Item = Arc>>(arcs: I) -> Self {
        let mut set = ArcSet::new();
        for arc in arcs {
            set.insert(arc);
        }
        set
    }

    /// Adds an arc to the set. Empty arcs are ignored.
    pub fn push(&mut self, arc: Arc) {
        if !arc.is_empty() {
            self.insert(arc);
        }
    }

    fn insert(&mut self, arc: Arc) {
        let (first, second) = arc.to_linear_intervals();
        for iv in std::iter::once(first).chain(second) {
            // After equal starts: the order a stable sort would give.
            let at = self.intervals.partition_point(|x| x[0] <= iv[0]);
            self.intervals.insert(at, iv);
        }
        self.arcs.push(arc);
    }

    /// Number of (raw, unmerged) arcs.
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// Whether the set holds no arcs.
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// Removes all arcs, keeping the allocation (workhorse reuse).
    pub fn clear(&mut self) {
        self.arcs.clear();
        self.intervals.clear();
    }

    /// Merged linear intervals `[lo, hi]` (sorted, disjoint) covering the
    /// same directions as the arc union, with `0 ≤ lo ≤ hi ≤ 2π`.
    pub fn merged_intervals(&self) -> Vec<[f64; 2]> {
        merge(self.intervals.iter().copied()).collect()
    }

    /// Whether the union of the arcs covers the full circle (Theorem 4
    /// condition `⋃ [αᵢ, βᵢ] = [0, 360]`).
    pub fn covers_full_circle(&self) -> bool {
        self.arcs.iter().any(|a| a.is_full()) || covers_circle(self.intervals.iter().copied())
    }

    /// Whether direction `a` is covered by at least one arc.
    pub fn contains(&self, a: f64) -> bool {
        self.arcs.iter().any(|arc| arc.contains(a))
    }

    /// Total covered measure (radians), counting overlaps once.
    pub fn covered_measure(&self) -> f64 {
        self.merged_intervals().iter().map(|iv| iv[1] - iv[0]).sum()
    }

    /// Uncovered gaps as arcs (complement of the union).
    pub fn gaps(&self) -> Vec<Arc> {
        if self.covers_full_circle() {
            return Vec::new();
        }
        let merged = self.merged_intervals();
        if merged.is_empty() {
            return vec![Arc::full()];
        }
        let mut gaps = Vec::new();
        // Gap between consecutive intervals.
        for w in merged.windows(2) {
            if w[1][0] - w[0][1] > EPS {
                gaps.push(Arc::from_endpoints(w[0][1], w[1][0]));
            }
        }
        // Wrap-around gap between the last interval's end and the first's
        // start (through 2π ≡ 0).
        let first = merged[0];
        let last = merged[merged.len() - 1];
        let head = first[0]; // uncovered: [last[1], 2π) ∪ [0, head)
        if (TAU - last[1]) + head > EPS {
            gaps.push(Arc::new(last[1], (TAU - last[1]) + head));
        }
        gaps
    }
}

/// Merges linear intervals sorted by start into disjoint ones. An interval
/// that starts within [`EPS`] of the current end extends it.
fn merge<I: Iterator<Item = [f64; 2]>>(sorted: I) -> Merge<I> {
    Merge {
        sorted: sorted.peekable(),
    }
}

/// The iterator returned by [`merge`].
struct Merge<I: Iterator<Item = [f64; 2]>> {
    sorted: Peekable<I>,
}

impl<I: Iterator<Item = [f64; 2]>> Iterator for Merge<I> {
    type Item = [f64; 2];

    fn next(&mut self) -> Option<[f64; 2]> {
        let mut cur = self.sorted.next()?;
        while let Some(iv) = self.sorted.next_if(|iv| iv[0] <= cur[1] + EPS) {
            if iv[1] > cur[1] {
                cur[1] = iv[1];
            }
        }
        Some(cur)
    }
}

/// The Theorem 4 test on linear intervals sorted by start: they merge into
/// one interval from `≤ EPS` to `≥ 2π − EPS`.
pub(crate) fn covers_circle<I: Iterator<Item = [f64; 2]>>(sorted: I) -> bool {
    let mut merged = merge(sorted);
    matches!(merged.next(), Some([lo, hi]) if lo <= EPS && hi >= TAU - EPS)
        && merged.next().is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::DEG;
    use std::f64::consts::PI;

    #[test]
    fn empty_set_covers_nothing() {
        let s = ArcSet::new();
        assert!(!s.covers_full_circle());
        assert_eq!(s.covered_measure(), 0.0);
        assert_eq!(s.gaps(), vec![Arc::full()]);
    }

    #[test]
    fn single_full_arc_covers() {
        let s = ArcSet::from_arcs([Arc::full()]);
        assert!(s.covers_full_circle());
        assert!(s.gaps().is_empty());
    }

    #[test]
    fn two_half_circles_cover() {
        let s = ArcSet::from_arcs([Arc::new(0.0, PI), Arc::new(PI, PI)]);
        assert!(s.covers_full_circle());
    }

    #[test]
    fn two_half_circles_with_gap_do_not_cover() {
        let s = ArcSet::from_arcs([Arc::new(0.0, PI - 0.01), Arc::new(PI, PI - 0.01)]);
        assert!(!s.covers_full_circle());
        let gaps = s.gaps();
        assert_eq!(gaps.len(), 2);
        let total_gap: f64 = gaps.iter().map(|g| g.extent).sum();
        assert!((total_gap - 0.02).abs() < 1e-9);
    }

    #[test]
    fn overlapping_arcs_merge() {
        let s = ArcSet::from_arcs([
            Arc::new(0.0, 2.0),
            Arc::new(1.5, 2.0),
            Arc::new(3.0, TAU - 3.0),
        ]);
        assert!(s.covers_full_circle());
    }

    #[test]
    fn wrapping_arc_plus_middle_covers() {
        // [300°, 60°] (wraps) plus [60°, 300°].
        let s = ArcSet::from_arcs([
            Arc::from_endpoints(300.0 * DEG, 60.0 * DEG),
            Arc::from_endpoints(60.0 * DEG, 300.0 * DEG),
        ]);
        assert!(s.covers_full_circle());
    }

    #[test]
    fn wrap_gap_detected() {
        // Covers [10°, 350°]; the gap wraps through 0°.
        let s = ArcSet::from_arcs([Arc::from_endpoints(10.0 * DEG, 350.0 * DEG)]);
        assert!(!s.covers_full_circle());
        let gaps = s.gaps();
        assert_eq!(gaps.len(), 1);
        assert!((gaps[0].extent - 20.0 * DEG).abs() < 1e-9);
        assert!(gaps[0].contains(0.0));
    }

    #[test]
    fn covered_measure_counts_overlap_once() {
        let s = ArcSet::from_arcs([Arc::new(0.0, 2.0), Arc::new(1.0, 2.0)]);
        assert!((s.covered_measure() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn contains_matches_arcs() {
        let s = ArcSet::from_arcs([Arc::new(1.0, 0.5)]);
        assert!(s.contains(1.25));
        assert!(!s.contains(2.0));
    }

    #[test]
    fn clear_retains_nothing() {
        let mut s = ArcSet::from_arcs([Arc::full()]);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.covers_full_circle());
    }

    #[test]
    fn many_small_arcs_cover_exactly() {
        let n = 360;
        let arcs = (0..n).map(|i| Arc::new(i as f64 * TAU / n as f64, TAU / n as f64));
        let s = ArcSet::from_arcs(arcs);
        assert!(s.covers_full_circle());
    }

    #[test]
    fn many_small_arcs_with_pinhole_gap() {
        let n = 360;
        let arcs = (0..n - 1).map(|i| Arc::new(i as f64 * TAU / n as f64, TAU / n as f64));
        let s = ArcSet::from_arcs(arcs);
        assert!(!s.covers_full_circle());
    }
}

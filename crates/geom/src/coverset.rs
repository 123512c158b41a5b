//! Cover sets (Definition 1), `MCS(S)` and `UPDATE(S, S_ACK)`.
//!
//! All functions operate on indices into a caller-provided slice of
//! positions so that MAC protocols can keep talking about station ids.
//!
//! Substitution note (documented in `DESIGN.md`): the paper delegates the
//! `O(n^{4/3})` minimum-cover-set algorithm to an unpublished reference
//! \[18\]. We provide an **exact** search for small sets and a **greedy
//! removal** scheme (minimal, not necessarily minimum, cover sets) for
//! larger ones; both are correct cover sets per Definition 1 as certified
//! by the Theorem 4 angle test, so protocol *behaviour* is preserved —
//! only the asymptotic cost of the (off-line) computation differs.

use crate::arcs::ArcSet;
use crate::cover::{cover_angle, CoverAngle};
use crate::point::Point;

/// Largest set size for which [`min_cover_set`] performs the exact
/// minimum search before falling back to the greedy scheme.
pub const EXACT_MCS_LIMIT: usize = 10;

/// Whether `subset ⊆ set` is a cover set of `set` under the angle-based
/// test: every node of `set` not in `subset` must have its disk covered by
/// the disks of `subset`.
pub fn is_cover_set(points: &[Point], set: &[usize], subset: &[usize], r: f64) -> bool {
    let mut arcs = ArcSet::new();
    'outer: for &p in set {
        if subset.contains(&p) {
            continue;
        }
        arcs.clear();
        for &q in subset {
            match cover_angle(&points[p], &points[q], r) {
                CoverAngle::Full => continue 'outer,
                CoverAngle::Partial(a) => arcs.push(a),
                CoverAngle::Empty => {}
            }
        }
        if !arcs.covers_full_circle() {
            return false;
        }
    }
    true
}

/// Greedy minimal cover set: start from `set` and repeatedly discard a
/// node as long as the surviving subset is still an angle-certified cover
/// set of the *original* set. The result is a cover set of `set` that is
/// *minimal* (no single node can be removed), though not always
/// *minimum*. Worst case `O(n³ log n)`; `n` here is a neighbor count, so
/// small.
///
/// The full re-certification per removal matters: checking only the
/// removal candidate against the survivors would admit sequences where an
/// earlier-removed node relied on a later-removed one. The union of disks
/// still covers it (coverage is preserved under such chains), but the
/// angle-based scheme of Theorem 4 — which is what LAMM and its peers can
/// actually evaluate — may no longer certify it. Keeping every
/// intermediate subset certified matches the paper's Theorem 1 statement.
///
/// Removal order: nodes are tried nearest-to-centroid first, since interior
/// nodes are the ones most likely to be redundant, which empirically gets
/// close to the minimum.
pub fn greedy_cover_set(points: &[Point], set: &[usize], r: f64) -> Vec<usize> {
    let mut current: Vec<usize> = set.to_vec();
    if current.len() <= 1 {
        return current;
    }
    // Centroid of the set.
    let (mut cx, mut cy) = (0.0, 0.0);
    for &i in &current {
        cx += points[i].x;
        cy += points[i].y;
    }
    let centroid = Point::new(cx / current.len() as f64, cy / current.len() as f64);
    let mut order: Vec<usize> = current.clone();
    order.sort_by(|&a, &b| {
        points[a]
            .dist_sq(&centroid)
            .partial_cmp(&points[b].dist_sq(&centroid))
            .expect("coordinates are finite")
            .then(a.cmp(&b))
    });

    let mut trial: Vec<usize> = Vec::with_capacity(current.len());
    for cand in order {
        if current.len() == 1 {
            break;
        }
        trial.clear();
        trial.extend(current.iter().copied().filter(|&x| x != cand));
        if is_cover_set(points, set, &trial, r) {
            std::mem::swap(&mut current, &mut trial);
        }
    }
    current
}

/// Minimum cover set of `set` (the paper's `MCS(S)`).
///
/// For `|set| ≤ EXACT_MCS_LIMIT` this searches subsets in increasing size
/// order and returns a true minimum (under the angle-based coverage test);
/// beyond that it falls back to [`greedy_cover_set`].
///
/// ```
/// use rmm_geom::{min_cover_set, Point};
/// // Two co-located receivers: one of them suffices.
/// let pts = vec![Point::new(0.5, 0.5), Point::new(0.5, 0.5)];
/// let mcs = min_cover_set(&pts, &[0, 1], 0.2);
/// assert_eq!(mcs.len(), 1);
/// ```
pub fn min_cover_set(points: &[Point], set: &[usize], r: f64) -> Vec<usize> {
    let n = set.len();
    if n <= 1 {
        return set.to_vec();
    }
    if n > EXACT_MCS_LIMIT {
        return greedy_cover_set(points, set, r);
    }
    // Subsets by increasing popcount; first hit is a minimum cover set.
    let mut masks: Vec<u32> = (1u32..(1u32 << n)).collect();
    masks.sort_by_key(|m| m.count_ones());
    let mut subset: Vec<usize> = Vec::with_capacity(n);
    for mask in masks {
        subset.clear();
        for (bit, &idx) in set.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                subset.push(idx);
            }
        }
        if is_cover_set(points, set, &subset, r) {
            return subset.clone();
        }
    }
    set.to_vec() // unreachable: the full set always covers itself
}

/// The paper's `UPDATE(S, S_ACK)`: the nodes of `set` whose disk is *not*
/// completely covered by the disks of `acked` — i.e. the receivers that
/// still need service in the next LAMM round. Nodes present in `acked`
/// cover themselves and so never appear in the result.
///
/// ```
/// use rmm_geom::{update_uncovered, Point};
/// let pts = vec![Point::new(0.5, 0.5), Point::new(0.65, 0.5)];
/// // Only node 1 ACKed; node 0's disk is not covered by node 1 alone.
/// assert_eq!(update_uncovered(&pts, &[0, 1], &[1], 0.2), vec![0]);
/// // An empty ACK set leaves everything outstanding.
/// assert_eq!(update_uncovered(&pts, &[0, 1], &[], 0.2), vec![0, 1]);
/// ```
pub fn update_uncovered(points: &[Point], set: &[usize], acked: &[usize], r: f64) -> Vec<usize> {
    let mut remaining = Vec::new();
    let mut arcs = ArcSet::new();
    'outer: for &p in set {
        arcs.clear();
        for &q in acked {
            match cover_angle(&points[p], &points[q], r) {
                CoverAngle::Full => continue 'outer,
                CoverAngle::Partial(a) => arcs.push(a),
                CoverAngle::Empty => {}
            }
        }
        if !arcs.covers_full_circle() {
            remaining.push(p);
        }
    }
    remaining
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::TAU;

    const R: f64 = 0.2;

    /// A ring of `n` points at distance `d` around `center`.
    fn ring(center: Point, d: f64, n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let a = i as f64 * TAU / n as f64;
                center.offset(d * a.cos(), d * a.sin())
            })
            .collect()
    }

    #[test]
    fn full_set_is_cover_set_of_itself() {
        let pts = ring(Point::new(0.5, 0.5), 0.1, 6);
        let set: Vec<usize> = (0..6).collect();
        assert!(is_cover_set(&pts, &set, &set, R));
    }

    #[test]
    fn empty_subset_covers_only_empty_set() {
        let pts = vec![Point::new(0.5, 0.5)];
        assert!(is_cover_set(&pts, &[], &[], R));
        assert!(!is_cover_set(&pts, &[0], &[], R));
    }

    #[test]
    fn colocated_duplicate_is_redundant() {
        let pts = vec![Point::new(0.5, 0.5), Point::new(0.5, 0.5)];
        assert!(is_cover_set(&pts, &[0, 1], &[0], R));
        let mcs = min_cover_set(&pts, &[0, 1], R);
        assert_eq!(mcs.len(), 1);
    }

    #[test]
    fn surrounded_interior_node_is_redundant() {
        // Center node surrounded by a tight ring of 6 at distance 0.05:
        // each ring node's cover angle for the center is wide, and the
        // ring covers the center's disk.
        let mut pts = ring(Point::new(0.5, 0.5), 0.05, 6);
        pts.push(Point::new(0.5, 0.5)); // index 6: interior node
        let set: Vec<usize> = (0..7).collect();
        let subset: Vec<usize> = (0..6).collect();
        assert!(is_cover_set(&pts, &set, &subset, R));
        let mcs = min_cover_set(&pts, &set, R);
        assert!(mcs.len() <= 6);
        assert!(is_cover_set(&pts, &set, &mcs, R));
    }

    #[test]
    fn spread_out_nodes_all_required() {
        // Nodes pairwise farther than R apart: nothing covers anything, so
        // the minimum cover set is the whole set.
        let pts = vec![
            Point::new(0.1, 0.1),
            Point::new(0.9, 0.1),
            Point::new(0.1, 0.9),
            Point::new(0.9, 0.9),
        ];
        let set: Vec<usize> = (0..4).collect();
        let mcs = min_cover_set(&pts, &set, R);
        assert_eq!(mcs.len(), 4);
    }

    #[test]
    fn greedy_result_is_cover_set() {
        let mut pts = ring(Point::new(0.5, 0.5), 0.08, 8);
        pts.extend(ring(Point::new(0.5, 0.5), 0.03, 5));
        let set: Vec<usize> = (0..pts.len()).collect();
        let greedy = greedy_cover_set(&pts, &set, R);
        assert!(is_cover_set(&pts, &set, &greedy, R));
        assert!(greedy.len() < set.len(), "inner ring should be redundant");
    }

    #[test]
    fn exact_mcs_never_larger_than_greedy() {
        let mut pts = ring(Point::new(0.5, 0.5), 0.06, 7);
        pts.push(Point::new(0.5, 0.5));
        pts.push(Point::new(0.52, 0.5));
        let set: Vec<usize> = (0..pts.len()).collect();
        let exact = min_cover_set(&pts, &set, R);
        let greedy = greedy_cover_set(&pts, &set, R);
        assert!(exact.len() <= greedy.len());
        assert!(is_cover_set(&pts, &set, &exact, R));
    }

    #[test]
    fn greedy_stays_within_a_fifth_of_exact_on_random_sets() {
        // LAMM's control-frame savings ride on small cover sets: over
        // random 8-receiver sets inside one disk, greedy is near optimal.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        let set: Vec<usize> = (0..8).collect();
        let (mut exact, mut greedy) = (0, 0);
        for _ in 0..200 {
            let pts: Vec<Point> = (0..8)
                .map(|_| loop {
                    let (x, y): (f64, f64) = (rng.random_range(-R..=R), rng.random_range(-R..=R));
                    if x * x + y * y <= R * R {
                        break Point::new(0.5 + x, 0.5 + y);
                    }
                })
                .collect();
            exact += min_cover_set(&pts, &set, R).len();
            greedy += greedy_cover_set(&pts, &set, R).len();
        }
        assert!(exact <= greedy, "exact {exact} > greedy {greedy}");
        assert!(
            greedy as f64 <= 1.2 * exact as f64,
            "greedy {greedy} vs exact {exact}"
        );
    }

    #[test]
    fn singleton_set_is_its_own_mcs() {
        let pts = vec![Point::new(0.2, 0.2)];
        assert_eq!(min_cover_set(&pts, &[0], R), vec![0]);
        assert_eq!(greedy_cover_set(&pts, &[0], R), vec![0]);
    }

    #[test]
    fn update_removes_acked_and_covered() {
        // Interior node covered by ring; if the whole ring ACKs, the
        // interior node is covered and drops out.
        let mut pts = ring(Point::new(0.5, 0.5), 0.05, 6);
        pts.push(Point::new(0.5, 0.5));
        let set: Vec<usize> = (0..7).collect();
        let acked: Vec<usize> = (0..6).collect();
        let rem = update_uncovered(&pts, &set, &acked, R);
        assert!(rem.is_empty());
    }

    #[test]
    fn update_keeps_uncovered_nodes() {
        let pts = vec![Point::new(0.5, 0.5), Point::new(0.65, 0.5)];
        // Only node 1 acked; node 0's disk is not covered by node 1 alone.
        let rem = update_uncovered(&pts, &[0, 1], &[1], R);
        assert_eq!(rem, vec![0]);
    }

    #[test]
    fn update_with_no_acks_keeps_everything() {
        let pts = ring(Point::new(0.5, 0.5), 0.05, 4);
        let set: Vec<usize> = (0..4).collect();
        assert_eq!(update_uncovered(&pts, &set, &[], R), set);
    }

    #[test]
    fn mcs_of_large_set_falls_back_to_greedy() {
        let mut pts = ring(Point::new(0.5, 0.5), 0.08, 10);
        pts.extend(ring(Point::new(0.5, 0.5), 0.02, 6));
        let set: Vec<usize> = (0..pts.len()).collect();
        assert!(set.len() > EXACT_MCS_LIMIT);
        let mcs = min_cover_set(&pts, &set, R);
        assert!(is_cover_set(&pts, &set, &mcs, R));
    }
}

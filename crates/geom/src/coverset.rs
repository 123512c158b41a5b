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
//!
//! Both searches test many candidate subsets of one set. Each call first
//! builds a cover-angle table: for every member, the linear intervals of
//! its cover angles from the other members, sorted by start and tagged with
//! the member they come from. A co-located member contributes the full
//! interval `[0, 2π]`. A candidate subset is then tested with one sweep per
//! member outside it, the same sweep [`ArcSet::covers_full_circle`] runs,
//! over that member's intervals from the candidate's members: no
//! trigonometry and no allocation per candidate. The verdict is the one
//! [`is_cover_set`] gives. Skipping the intervals of non-members leaves a
//! list sorted once still sorted, the order of equal starts does not
//! change the merged union, and a full interval passes the sweep as a
//! `Full` cover angle passes `is_cover_set`.

use crate::arcs::{covers_circle, ArcSet};
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

/// The cover-angle table of one set (see the module docs): member `i`'s
/// intervals are `spans[bounds[i]..bounds[i + 1]]`, sorted by start.
struct CoverTable {
    spans: Vec<Span>,
    bounds: Vec<usize>,
}

/// One linear interval of a cover angle, and the member (a position in
/// the set) whose disk it comes from.
#[derive(Clone, Copy)]
struct Span {
    interval: [f64; 2],
    from: usize,
}

impl CoverTable {
    /// One [`cover_angle`] per ordered pair of members. Empty arcs are
    /// dropped, as [`ArcSet::push`] drops them.
    fn new(points: &[Point], set: &[usize], r: f64) -> Self {
        let n = set.len();
        // At most two intervals per ordered pair, so `spans` never grows.
        let mut spans = Vec::with_capacity(2 * n * n.saturating_sub(1));
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(0);
        for (i, &p) in set.iter().enumerate() {
            let first = spans.len();
            for (from, &q) in set.iter().enumerate() {
                if from == i {
                    continue;
                }
                let arc = cover_angle(&points[p], &points[q], r).arc();
                let Some(arc) = arc.filter(|a| !a.is_empty()) else {
                    continue;
                };
                let (head, tail) = arc.to_linear_intervals();
                spans.extend(
                    std::iter::once(head)
                        .chain(tail)
                        .map(|interval| Span { interval, from }),
                );
            }
            spans[first..].sort_by(|a, b| {
                a.interval[0]
                    .partial_cmp(&b.interval[0])
                    .expect("angles are finite")
            });
            bounds.push(spans.len());
        }
        CoverTable { spans, bounds }
    }

    /// Whether the members for which `kept` holds cover member `i`'s disk.
    fn covered(&self, i: usize, kept: impl Fn(usize) -> bool) -> bool {
        let spans = &self.spans[self.bounds[i]..self.bounds[i + 1]];
        covers_circle(spans.iter().filter(|s| kept(s.from)).map(|s| s.interval))
    }
}

/// Greedy minimal cover set: start from `set` and repeatedly discard a
/// node as long as the surviving subset is still an angle-certified cover
/// set of the *original* set. The result is a cover set of `set` that is
/// *minimal* (no single node can be removed), though not always
/// *minimum*. With the cover-angle table the cost is `O(n² log n)` to
/// build it plus `O(n³)` for the `n` removal tests, with no trigonometry
/// after the table; `n` here is a neighbor count, so small.
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
/// close to the minimum. A removal drops every copy of a repeated index.
pub fn greedy_cover_set(points: &[Point], set: &[usize], r: f64) -> Vec<usize> {
    let n = set.len();
    if n <= 1 {
        return set.to_vec();
    }
    // Centroid of the set.
    let (mut cx, mut cy) = (0.0, 0.0);
    for &i in set {
        cx += points[i].x;
        cy += points[i].y;
    }
    let centroid = Point::new(cx / n as f64, cy / n as f64);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        points[set[a]]
            .dist_sq(&centroid)
            .partial_cmp(&points[set[b]].dist_sq(&centroid))
            .expect("coordinates are finite")
            .then(set[a].cmp(&set[b]))
    });

    let table = CoverTable::new(points, set, r);
    let mut kept = vec![true; n];
    for cand in order {
        if kept.iter().filter(|&&k| k).count() == 1 {
            break;
        }
        if !kept[cand] {
            continue; // a copy of an index already removed
        }
        let idx = set[cand];
        let mark = |kept: &mut [bool], keep: bool| {
            for (k, &i) in kept.iter_mut().zip(set) {
                if i == idx {
                    *k = keep;
                }
            }
        };
        mark(&mut kept, false);
        // The candidate itself is the likeliest to be left uncovered.
        let covered = |p: usize| kept[p] || table.covered(p, |q| kept[q]);
        if !(covered(cand) && (0..n).all(covered)) {
            mark(&mut kept, true);
        }
    }
    set.iter()
        .zip(&kept)
        .filter(|&(_, &k)| k)
        .map(|(&i, _)| i)
        .collect()
}

/// Minimum cover set of `set` (the paper's `MCS(S)`).
///
/// For `|set| ≤ EXACT_MCS_LIMIT` this searches subsets in increasing size
/// order and returns a true minimum (under the angle-based coverage test);
/// beyond that it falls back to [`greedy_cover_set`]. Subsets of one size
/// are tried in ascending bitmask order (bit `i` is `set[i]`), and the
/// first cover set found is returned in `set` order.
///
/// A member that all the other members together do not cover is *forced*:
/// coverage only grows as members are added, so every cover set contains
/// it, and the search skips subsets that lack one. Each subset is tested
/// against the cover-angle table, so the search costs `O(n² log n)` for
/// the table plus `O(n²)` per subset tried, at most `2ⁿ` of them.
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
    let table = CoverTable::new(points, set, r);
    let all = (1u32 << n) - 1;
    let has = |mask: u32, i: usize| mask >> i & 1 != 0;
    let forced = (0..n)
        .filter(|&i| !table.covered(i, |_| true))
        .fold(0u32, |mask, i| mask | 1 << i);
    let covers = |mask| (0..n).all(|i| has(mask, i) || table.covered(i, |j| has(mask, j)));
    // Smallest subsets first, so the first hit is a minimum cover set.
    for size in forced.count_ones().max(1)..=n as u32 {
        let mut mask = (1u32 << size) - 1;
        while mask <= all {
            if mask & forced == forced && covers(mask) {
                return (0..n).filter(|&i| has(mask, i)).map(|i| set[i]).collect();
            }
            mask = next_same_popcount(mask);
        }
    }
    unreachable!("the full set covers itself")
}

/// The next larger integer with as many set bits as `x` (Gosper's hack).
fn next_same_popcount(x: u32) -> u32 {
    let low = x & x.wrapping_neg();
    let ripple = x + low;
    ripple | (((x ^ ripple) >> 2) / low)
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

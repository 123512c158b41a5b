//! Property-based tests for the geometry substrate, and the oracles that
//! pin the cover-set searches and the arc sweep to their reference
//! definitions.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmm_geom::coverset::EXACT_MCS_LIMIT;
use rmm_geom::{
    cover_angle, covers_disk, greedy_cover_set, is_cover_set, min_cover_set, normalize_angle,
    update_uncovered, Arc, ArcSet, CoverAngle, Point, EPS, TAU,
};

const R: f64 = 0.2;

/// Reference `MCS(S)`: every non-empty subset mask, stably sorted by
/// popcount, each tested with the public [`is_cover_set`]; greedy above
/// [`EXACT_MCS_LIMIT`].
fn reference_min_cover_set(points: &[Point], set: &[usize], r: f64) -> Vec<usize> {
    let n = set.len();
    if n <= 1 {
        return set.to_vec();
    }
    if n > EXACT_MCS_LIMIT {
        return reference_greedy_cover_set(points, set, r);
    }
    let mut masks: Vec<u32> = (1u32..(1u32 << n)).collect();
    masks.sort_by_key(|m| m.count_ones());
    for mask in masks {
        let subset: Vec<usize> = set
            .iter()
            .enumerate()
            .filter(|&(bit, _)| mask & (1 << bit) != 0)
            .map(|(_, &idx)| idx)
            .collect();
        if is_cover_set(points, set, &subset, r) {
            return subset;
        }
    }
    unreachable!("the full set covers itself")
}

/// Reference greedy cover set: nearest-to-centroid removal order, every
/// removal (of all copies of an index) re-certified with the public
/// [`is_cover_set`].
fn reference_greedy_cover_set(points: &[Point], set: &[usize], r: f64) -> Vec<usize> {
    let mut current: Vec<usize> = set.to_vec();
    if current.len() <= 1 {
        return current;
    }
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
            .unwrap()
            .then(a.cmp(&b))
    });
    for cand in order {
        if current.len() == 1 {
            break;
        }
        let trial: Vec<usize> = current.iter().copied().filter(|&x| x != cand).collect();
        if is_cover_set(points, set, &trial, r) {
            current = trial;
        }
    }
    current
}

/// Reference Theorem 4 test on raw arcs: split each with
/// `to_linear_intervals`, sort by start, merge with `EPS`.
fn reference_merge(arcs: &[Arc]) -> Vec<[f64; 2]> {
    let mut intervals: Vec<[f64; 2]> = Vec::new();
    for arc in arcs {
        let (first, second) = arc.to_linear_intervals();
        intervals.push(first);
        intervals.extend(second);
    }
    intervals.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
    let mut merged: Vec<[f64; 2]> = Vec::new();
    for iv in intervals {
        match merged.last_mut() {
            Some(last) if iv[0] <= last[1] + EPS => {
                if iv[1] > last[1] {
                    last[1] = iv[1];
                }
            }
            _ => merged.push(iv),
        }
    }
    merged
}

fn reference_covers_full_circle(arcs: &[Arc]) -> bool {
    if arcs.iter().any(|a| a.is_full()) {
        return true;
    }
    let merged = reference_merge(arcs);
    merged.len() == 1 && merged[0][0] <= EPS && merged[0][1] >= TAU - EPS
}

/// Both searches against their references, element for element.
fn check_against_oracle(points: &[Point], set: &[usize]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        min_cover_set(points, set, R),
        reference_min_cover_set(points, set, R),
        "min_cover_set of {:?} at {:?}",
        set,
        points
    );
    prop_assert_eq!(
        greedy_cover_set(points, set, R),
        reference_greedy_cover_set(points, set, R),
        "greedy_cover_set of {:?} at {:?}",
        set,
        points
    );
    Ok(())
}

/// A point uniform in the disk of radius `R` around `(0.5, 0.5)`: where a
/// LAMM sender's receivers lie.
fn disk_point() -> impl Strategy<Value = Point> {
    (0.0f64..1.0, 0.0f64..TAU).prop_map(|(u, a)| {
        let d = R * u.sqrt();
        Point::new(0.5 + d * a.cos(), 0.5 + d * a.sin())
    })
}

/// Sets where coincidence, tangency or `EPS` decide the verdicts.
fn degenerate_set() -> impl Strategy<Value = (Vec<Point>, Vec<usize>)> {
    let all = |pts: Vec<Point>| {
        let set = (0..pts.len()).collect();
        (pts, set)
    };
    prop_oneof![
        // Duplicated points: every other point repeats its predecessor.
        prop::collection::vec(disk_point(), 1..=6).prop_map(move |pts| {
            all(pts
                .iter()
                .flat_map(|&p| [p, p])
                .take(pts.len() * 3 / 2 + 1)
                .collect())
        }),
        // Each point exactly R from the one before.
        (disk_point(), prop::collection::vec(0.0f64..TAU, 1..=9)).prop_map(move |(p, dirs)| {
            let mut pts = vec![p];
            for a in dirs {
                let last = pts[pts.len() - 1];
                pts.push(last.offset(R * a.cos(), R * a.sin()));
            }
            all(pts)
        }),
        // Points of an R/2 lattice, where arcs abut exactly.
        (0u32..1 << 16).prop_map(move |keep| {
            let pts: Vec<Point> = (0..16)
                .filter(|&k| keep >> k & 1 != 0)
                .map(|k| {
                    Point::new(
                        0.3 + 0.5 * R * (k % 4) as f64,
                        0.3 + 0.5 * R * (k / 4) as f64,
                    )
                })
                .collect();
            all(if pts.is_empty() {
                vec![Point::new(0.5, 0.5)]
            } else {
                pts
            })
        }),
        // A repeated index in `set`.
        (prop::collection::vec(disk_point(), 2..=9), 0usize..9).prop_map(|(pts, k)| {
            let mut set: Vec<usize> = (0..pts.len()).collect();
            set.insert(k % pts.len(), (k + 1) % pts.len());
            (pts, set)
        }),
        // `set` in descending order.
        prop::collection::vec(disk_point(), 1..=16).prop_map(|pts| {
            let set = (0..pts.len()).rev().collect();
            (pts, set)
        }),
    ]
}

/// Chains of arcs around the circle whose ends abut at `gap` (negative
/// gaps overlap). A chain starts anywhere or within a few `EPS` of 0, and
/// some joints hold a sliver arc at most 2·`EPS` wide, which `push` drops
/// when it is empty.
fn arc_chain() -> impl Strategy<Value = Vec<Arc>> {
    (
        prop_oneof![0.0f64..TAU, (0.0f64..4.0).prop_map(|k| k * EPS)],
        prop::collection::vec((0.1f64..1.0, 0.0f64..2.0 * EPS, prop::bool::ANY), 1..=8),
        prop_oneof![
            Just(-EPS),
            Just(0.0),
            Just(0.5 * EPS),
            Just(EPS),
            Just(2.0 * EPS)
        ],
    )
        .prop_map(|(start, links, gap)| {
            let total: f64 = links.iter().map(|link| link.0).sum();
            let free = TAU - gap * links.len() as f64;
            let mut at = start;
            let mut arcs = Vec::new();
            for (weight, sliver, with_sliver) in links {
                let extent = free * weight / total;
                arcs.push(Arc::new(at, extent));
                at += extent;
                if with_sliver {
                    arcs.push(Arc::new(at, sliver));
                }
                at += gap;
            }
            arcs
        })
}

/// Arcs that cross the 0 direction.
fn wrapping_arc() -> impl Strategy<Value = Arc> {
    (0.0f64..1.0, 0.0f64..1.0).prop_map(|(before, after)| Arc::new(TAU - before, before + after))
}

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0f64..1.0, 0.0f64..1.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_arc() -> impl Strategy<Value = Arc> {
    (0.0f64..TAU, 0.0f64..TAU).prop_map(|(s, e)| Arc::new(s, e))
}

proptest! {
    /// An arc always contains its own start, end and midpoint.
    #[test]
    fn arc_contains_its_own_landmarks(arc in arb_arc()) {
        if !arc.is_empty() {
            prop_assert!(arc.contains(arc.start));
            prop_assert!(arc.contains(arc.end()));
            prop_assert!(arc.contains(arc.midpoint()));
        }
    }

    /// Union coverage agrees with dense pointwise sampling of `contains`.
    #[test]
    fn arcset_full_circle_matches_sampling(arcs in prop::collection::vec(arb_arc(), 0..8)) {
        let set = ArcSet::from_arcs(arcs);
        let covered_everywhere = (0..720).all(|i| {
            // Sample slightly off the lattice to dodge endpoint epsilons.
            set.contains(i as f64 * TAU / 720.0 + 1e-4)
        });
        if set.covers_full_circle() {
            prop_assert!(covered_everywhere);
        }
        // And a definite gap direction must not be reported as covered.
        if !set.covers_full_circle() {
            let gaps = set.gaps();
            prop_assert!(!gaps.is_empty());
            let mid = gaps[0].midpoint();
            if gaps[0].extent > 1e-6 {
                prop_assert!(!set.contains(mid));
            }
        }
    }

    /// Covered measure plus gap measure equals the full circle.
    #[test]
    fn measure_plus_gaps_is_tau(arcs in prop::collection::vec(arb_arc(), 0..8)) {
        let set = ArcSet::from_arcs(arcs);
        let gap_total: f64 = set.gaps().iter().map(|g| g.extent).sum();
        prop_assert!((set.covered_measure() + gap_total - TAU).abs() < 1e-6);
    }

    /// Every boundary direction inside a cover angle maps to a boundary
    /// point of A(p) lying inside A(q): the defining property of Def. 2.
    #[test]
    fn cover_angle_sector_is_inside_neighbor(p in arb_point(), q in arb_point()) {
        match cover_angle(&p, &q, R) {
            CoverAngle::Partial(a) => {
                for i in 0..=16 {
                    let t = a.start + a.extent * i as f64 / 16.0;
                    let boundary = p.offset(R * t.cos(), R * t.sin());
                    prop_assert!(boundary.within(&q, R + 1e-7));
                }
            }
            CoverAngle::Full => prop_assert!(p.dist(&q) < 1e-9),
            CoverAngle::Empty => prop_assert!(p.dist(&q) > R - 1e-9),
        }
    }

    /// Theorem 4 is sound in the simulator's disk model: whenever the angle
    /// test says A(p) is covered, every sampled point of A(p) lies in some
    /// covering disk.
    #[test]
    fn covers_disk_soundness(p in arb_point(), cover in prop::collection::vec(arb_point(), 0..8)) {
        if covers_disk(&p, &cover, R) {
            for i in 0..24 {
                let ang = i as f64 * TAU / 24.0;
                for rad in [0.25 * R, 0.6 * R, 0.999 * R] {
                    let sample = p.offset(rad * ang.cos(), rad * ang.sin());
                    prop_assert!(
                        cover.iter().any(|c| c.within(&sample, R + 1e-7)),
                        "sample at angle {ang}, radius {rad} not covered"
                    );
                }
            }
        }
    }

    /// Both cover-set constructions always return genuine cover sets, and
    /// the exact search is never larger than greedy on small instances.
    #[test]
    fn cover_sets_are_cover_sets(pts in prop::collection::vec(arb_point(), 1..=10)) {
        let set: Vec<usize> = (0..pts.len()).collect();
        let exact = min_cover_set(&pts, &set, R);
        let greedy = greedy_cover_set(&pts, &set, R);
        prop_assert!(is_cover_set(&pts, &set, &exact, R));
        prop_assert!(is_cover_set(&pts, &set, &greedy, R));
        prop_assert!(exact.len() <= greedy.len());
        prop_assert!(!exact.is_empty());
        // Results are subsets of the input set.
        prop_assert!(exact.iter().all(|i| set.contains(i)));
        prop_assert!(greedy.iter().all(|i| set.contains(i)));
    }

    /// UPDATE(S, S_ACK) never returns acked nodes, returns a subset of S,
    /// and returns all of S when nothing was acked (unless S is empty).
    #[test]
    fn update_invariants(pts in prop::collection::vec(arb_point(), 1..10), ack_mask in 0u32..1024) {
        let set: Vec<usize> = (0..pts.len()).collect();
        let acked: Vec<usize> = set
            .iter()
            .copied()
            .filter(|&i| ack_mask & (1 << i) != 0)
            .collect();
        let rem = update_uncovered(&pts, &set, &acked, R);
        prop_assert!(rem.iter().all(|i| set.contains(i)));
        prop_assert!(rem.iter().all(|i| !acked.contains(i)));
        if acked.is_empty() {
            prop_assert_eq!(rem.len(), set.len());
        }
        // Soundness: a node reported covered really had its disk covered.
        for &p in set.iter().filter(|i| !rem.contains(i) && !acked.contains(i)) {
            let cover: Vec<Point> = acked.iter().map(|&i| pts[i]).collect();
            prop_assert!(covers_disk(&pts[p], &cover, R));
        }
    }

    /// If S' is a cover set of S then UPDATE(S, S') empties S.
    #[test]
    fn cover_set_acks_empty_update(pts in prop::collection::vec(arb_point(), 1..9)) {
        let set: Vec<usize> = (0..pts.len()).collect();
        let mcs = min_cover_set(&pts, &set, R);
        let rem = update_uncovered(&pts, &set, &mcs, R);
        prop_assert!(rem.is_empty(), "MCS acked but UPDATE left {rem:?}");
    }

    /// Dense sets, sizes on both sides of `EXACT_MCS_LIMIT`: both searches
    /// return exactly the reference sets, order included.
    #[test]
    fn cover_sets_match_the_oracle_on_dense_sets(pts in prop::collection::vec(disk_point(), 1..=16)) {
        let set: Vec<usize> = (0..pts.len()).collect();
        check_against_oracle(&pts, &set)?;
    }

    /// Duplicated points, tangent disks, an R/2 lattice, a repeated index
    /// and a descending `set`.
    #[test]
    fn cover_sets_match_the_oracle_on_degenerate_sets((pts, set) in degenerate_set()) {
        check_against_oracle(&pts, &set)?;
    }
}

proptest! {
    // Each case is a handful of arcs; the `EPS` edges need many draws.
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `covers_full_circle` and `merged_intervals` agree with the
    /// reference sort-and-merge on random arcs, arcs that cross 0 and arc
    /// chains whose ends abut within a few `EPS`.
    #[test]
    fn arc_sweep_matches_the_oracle(
        random in prop::collection::vec(arb_arc(), 0..8),
        wrapping in prop::collection::vec(wrapping_arc(), 0..3),
        chain in arc_chain(),
        pick in 0usize..4,
    ) {
        let arcs: Vec<Arc> = match pick {
            0 => random,
            1 => random.into_iter().chain(wrapping).collect(),
            2 => chain,
            _ => chain.into_iter().chain(wrapping).collect(),
        };
        let set = ArcSet::from_arcs(arcs.iter().copied());
        prop_assert_eq!(set.covers_full_circle(), reference_covers_full_circle(&arcs), "{:?}", arcs);
        prop_assert_eq!(set.merged_intervals(), reference_merge(&arcs));
        let kept: Vec<Arc> = arcs.iter().copied().filter(|a| !a.is_empty()).collect();
        let mut pushed = ArcSet::new();
        for &arc in &arcs {
            pushed.push(arc);
        }
        prop_assert_eq!(pushed.covers_full_circle(), reference_covers_full_circle(&kept));
    }
}

/// Reference `normalize_angle`: `%` (libm `fmod`) on every input, with
/// no in-range fast path.
fn reference_normalize_angle(a: f64) -> f64 {
    let mut a = a % TAU;
    if a < 0.0 {
        a += TAU;
    }
    if a >= TAU {
        a = 0.0;
    }
    a
}

/// Angles near and inside `±2π`, and any bit pattern at all.
fn angle_input() -> impl Strategy<Value = f64> {
    prop_oneof![
        -TAU..TAU,
        -20.0f64..20.0,
        (0u64..64, any::<bool>()).prop_map(|(ulps, up)| {
            let bits = if up {
                TAU.next_up().to_bits() + ulps
            } else {
                TAU.next_down().to_bits() - ulps
            };
            f64::from_bits(bits)
        }),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The in-range fast path returns what `fmod` would, bit for bit.
    #[test]
    fn normalize_angle_matches_fmod(a in angle_input(), negate in any::<bool>()) {
        let a = if negate { -a } else { a };
        prop_assert_eq!(
            normalize_angle(a).to_bits(),
            reference_normalize_angle(a).to_bits(),
            "{:e}",
            a
        );
    }
}

/// The edges of the fast path: signed zeros, `±2π` and their neighbors,
/// tiny negatives that round to `2π`, subnormals, infinities and NaN.
#[test]
fn normalize_angle_matches_fmod_at_the_edges() {
    let subnormal = f64::MIN_POSITIVE / 3.0;
    let edges = [
        0.0,
        TAU,
        TAU.next_down(),
        TAU.next_up(),
        1e-30,
        subnormal,
        f64::from_bits(1),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
    ];
    for a in edges.into_iter().flat_map(|a| [a, -a]) {
        assert_eq!(
            normalize_angle(a).to_bits(),
            reference_normalize_angle(a).to_bits(),
            "{a:e}"
        );
    }
}

/// One set of more than 64 members takes the greedy path of both searches.
#[test]
fn cover_sets_match_the_oracle_past_64_members() {
    let mut rng = SmallRng::seed_from_u64(64);
    let pts: Vec<Point> = (0..72)
        .map(|_| {
            let (u, a): (f64, f64) = (rng.random(), rng.random_range(0.0..TAU));
            Point::new(0.5 + R * u.sqrt() * a.cos(), 0.5 + R * u.sqrt() * a.sin())
        })
        .collect();
    let set: Vec<usize> = (0..pts.len()).collect();
    check_against_oracle(&pts, &set).unwrap();
}

/// Every node's full neighbor set and one random subset of it, on 100-node
/// topologies at the paper's radius.
#[test]
fn cover_sets_match_the_oracle_on_neighbor_sets() {
    for seed in 1..=3 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let pts: Vec<Point> = (0..100)
            .map(|_| Point::new(rng.random(), rng.random()))
            .collect();
        for (i, p) in pts.iter().enumerate() {
            let neighbors: Vec<usize> = (0..pts.len())
                .filter(|&j| j != i && p.within(&pts[j], R))
                .collect();
            let subset: Vec<usize> = neighbors
                .iter()
                .copied()
                .filter(|_| rng.random_bool(0.5))
                .collect();
            check_against_oracle(&pts, &neighbors).unwrap();
            check_against_oracle(&pts, &subset).unwrap();
        }
    }
}

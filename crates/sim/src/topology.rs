//! Network topology: station positions and neighbor tables.
//!
//! In the protocols' world view, neighbor MAC addresses (and, for LAMM,
//! neighbor positions) are learned from periodic beacons. The simulator
//! precomputes this knowledge here; LAMM senders only ever read the
//! positions of their own neighbors, mirroring what beacons would carry.

use crate::ids::NodeId;
use rmm_geom::Point;
use serde::{Deserialize, Serialize};

/// Static topology: positions plus derived neighbor tables.
///
/// The neighbor lists live in one array: station `i`'s list is
/// `neighbors[offsets[i]..offsets[i + 1]]`, so a topology is three
/// buffers whatever its size, and a clone copies three.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    positions: Vec<Point>,
    radius: f64,
    neighbors: Vec<NodeId>,
    /// `len() + 1` segment bounds into `neighbors`.
    offsets: Vec<u32>,
}

impl Topology {
    /// Builds a topology from station positions and a shared transmission
    /// radius. Neighborhood is symmetric: `dist ≤ radius` by
    /// [`Point::within`], excluding self; each neighbor list is in
    /// ascending station order.
    ///
    /// Stations are bucketed into a uniform grid whose cells are at
    /// least `radius` wide, so two stations in range always share a
    /// cell or sit in adjacent ones, and each pair of stations in the
    /// same or adjacent cells is tested once: O(N·degree) rather than
    /// a scan of all N² pairs.
    ///
    /// # Panics
    ///
    /// If `radius` is not positive and finite, or if the neighbor
    /// lists would hold more than `u32::MAX` entries in all.
    pub fn new(positions: Vec<Point>, radius: f64) -> Self {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "transmission radius must be positive and finite"
        );
        let (neighbors, offsets) = grid_neighbors(&positions, radius);
        Topology {
            positions,
            radius,
            neighbors,
            offsets,
        }
    }

    /// Number of stations.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the topology has no stations.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Shared transmission radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Position of a station.
    pub fn position(&self, node: NodeId) -> Point {
        self.positions[node.index()]
    }

    /// All positions, indexed by station.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Neighbors of a station (within radius, excluding itself).
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Whether `b` is audible at `a` (within the shared radius).
    #[inline]
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.positions[a.index()].within(&self.positions[b.index()], self.radius)
    }

    /// Distance between two stations.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.positions[a.index()].dist(&self.positions[b.index()])
    }

    /// Mean number of neighbors across stations — the x-axis of the
    /// paper's density figures.
    pub fn mean_degree(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.neighbors.len() as f64 / self.len() as f64
    }
}

/// Neighbor lists of `positions` at `radius`, built over a uniform grid
/// (see [`Topology::new`]): every station's list, in station order, in
/// one array, and the `n + 1` bounds of the lists in it.
///
/// Two walks over the pairs in range: the first counts each station's
/// neighbors, so the array is allocated once at its exact size, and the
/// second fills it. An array grown by pushes instead read about 6 MB
/// more peak RSS over rounds of `scale_10k` cells.
///
/// # Panics
///
/// If the lists hold more than `u32::MAX` entries in all.
fn grid_neighbors(positions: &[Point], radius: f64) -> (Vec<NodeId>, Vec<u32>) {
    let n = positions.len();
    if n == 0 {
        return (Vec::new(), vec![0]);
    }
    let grid = Grid::new(positions, radius);
    let mut degree = vec![0u32; n];
    grid.pairs(positions, radius, |i, j| {
        degree[i] += 1;
        degree[j] += 1;
    });
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    for &d in &degree {
        let end = offsets[offsets.len() - 1].checked_add(d);
        offsets.push(end.expect("more than u32::MAX neighbor entries"));
    }
    // Each station's next free entry.
    let mut next = degree;
    next.copy_from_slice(&offsets[..n]);
    let mut neighbors = vec![NodeId(0); offsets[n] as usize];
    grid.pairs(positions, radius, |i, j| {
        neighbors[next[i] as usize] = NodeId(j as u32);
        neighbors[next[j] as usize] = NodeId(i as u32);
        next[i] += 1;
        next[j] += 1;
    });
    // Pairs arrive cell by cell, not in station order.
    for w in offsets.windows(2) {
        neighbors[w[0] as usize..w[1] as usize].sort_unstable();
    }
    (neighbors, offsets)
}

/// Stations bucketed into a uniform grid of cells at least `radius`
/// wide, so two stations in range always share a cell or sit in
/// adjacent ones.
struct Grid {
    cols: usize,
    rows: usize,
    /// Cell `c` holds `members[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    members: Vec<u32>,
}

impl Grid {
    fn new(positions: &[Point], radius: f64) -> Grid {
        let n = positions.len();
        let (mut lo, mut hi) = (positions[0], positions[0]);
        for p in positions {
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        // Cells a hair wider than the radius, so rounding in the cell
        // arithmetic never puts an in-range pair two cells apart; doubled
        // while the grid would have more cells than stations (a tiny
        // radius over a large extent), which only makes cells coarser.
        let mut side = radius * (1.0 + 1e-6);
        let (cols, rows) = loop {
            let cells = |extent: f64| ((extent / side) as usize).saturating_add(1);
            let (cols, rows) = (cells(hi.x - lo.x), cells(hi.y - lo.y));
            if cols.saturating_mul(rows) <= n {
                break (cols, rows);
            }
            side *= 2.0;
        };
        let cell_of = |p: &Point| {
            let cx = (((p.x - lo.x) / side) as usize).min(cols - 1);
            let cy = (((p.y - lo.y) / side) as usize).min(rows - 1);
            (cy * cols + cx) as u32
        };
        // Counting sort of stations by cell. Filling from the last
        // station down leaves each `start[c]` at its cell's first slot.
        let cell: Vec<u32> = positions.iter().map(cell_of).collect();
        let mut start = vec![0u32; cols * rows + 1];
        for &c in &cell {
            start[c as usize] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let mut members = vec![0u32; n];
        for (i, &c) in cell.iter().enumerate().rev() {
            start[c as usize] -= 1;
            members[start[c as usize] as usize] = i as u32;
        }
        Grid {
            cols,
            rows,
            start,
            members,
        }
    }

    /// Stations in cell `(x, y)`, in ascending order.
    fn members(&self, x: usize, y: usize) -> &[u32] {
        let c = y * self.cols + x;
        &self.members[self.start[c] as usize..self.start[c + 1] as usize]
    }

    /// Calls `visit(a, b)` once for every unordered pair of stations in
    /// range. Each cell is tested against itself and against the four
    /// neighbors after it (east, and the three below), so every pair
    /// of adjacent cells is tested once.
    fn pairs(&self, positions: &[Point], radius: f64, mut visit: impl FnMut(usize, usize)) {
        let mut test = |a: u32, b: u32| {
            let (a, b) = (a as usize, b as usize);
            if positions[a].within(&positions[b], radius) {
                visit(a, b);
            }
        };
        for y in 0..self.rows {
            for x in 0..self.cols {
                let here = self.members(x, y);
                for (k, &a) in here.iter().enumerate() {
                    for &b in &here[k + 1..] {
                        test(a, b);
                    }
                }
                let below = y + 1 < self.rows;
                let east = x + 1 < self.cols;
                let after = [
                    (east, x + 1, y),
                    (below && x > 0, x.wrapping_sub(1), y + 1),
                    (below, x, y + 1),
                    (below && east, x + 1, y + 1),
                ];
                for (_, nx, ny) in after.into_iter().filter(|&(inside, ..)| inside) {
                    let there = self.members(nx, ny);
                    for &a in here {
                        for &b in there {
                            test(a, b);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_topology() -> Topology {
        // 0 -- 1 -- 2, with 0 and 2 out of range of each other (the
        // canonical hidden-terminal layout from Section 2.1).
        Topology::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(0.15, 0.0),
                Point::new(0.3, 0.0),
            ],
            0.2,
        )
    }

    #[test]
    fn neighbors_are_symmetric() {
        let t = line_topology();
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
        assert_eq!(t.neighbors(NodeId(2)), &[NodeId(1)]);
    }

    #[test]
    fn hidden_terminals_not_in_range() {
        let t = line_topology();
        assert!(!t.in_range(NodeId(0), NodeId(2)));
        assert!(t.in_range(NodeId(0), NodeId(1)));
        assert!(t.in_range(NodeId(2), NodeId(1)));
    }

    #[test]
    fn node_is_not_its_own_neighbor() {
        let t = line_topology();
        assert!(!t.in_range(NodeId(1), NodeId(1)));
        assert!(!t.neighbors(NodeId(1)).contains(&NodeId(1)));
    }

    #[test]
    fn range_is_inclusive_at_radius() {
        let t = Topology::new(vec![Point::new(0.0, 0.0), Point::new(0.2, 0.0)], 0.2);
        assert!(t.in_range(NodeId(0), NodeId(1)));
    }

    #[test]
    fn mean_degree_of_line() {
        let t = line_topology();
        assert!((t.mean_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_topology() {
        let t = Topology::new(vec![], 0.2);
        assert!(t.is_empty());
        assert_eq!(t.mean_degree(), 0.0);
    }

    #[test]
    fn isolated_stations_have_empty_lists_between_full_ones() {
        let t = Topology::new(
            vec![
                Point::new(0.9, 0.9),
                Point::new(0.0, 0.0),
                Point::new(0.5, 0.5),
                Point::new(0.1, 0.0),
                Point::new(0.0, 0.9),
            ],
            0.2,
        );
        let lists: Vec<&[NodeId]> = (0..5).map(|i| t.neighbors(NodeId(i))).collect();
        assert_eq!(lists, [&[][..], &[NodeId(3)], &[], &[NodeId(1)], &[]]);
        assert!((t.mean_degree() - 0.4).abs() < 1e-12);
        let copy = t.clone();
        assert_eq!(copy.neighbors(NodeId(3)), &[NodeId(1)]);
    }

    #[test]
    fn distance_matches_positions() {
        let t = line_topology();
        assert!((t.distance(NodeId(0), NodeId(2)) - 0.3).abs() < 1e-12);
    }
}

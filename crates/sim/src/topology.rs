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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    positions: Vec<Point>,
    radius: f64,
    neighbors: Vec<Vec<NodeId>>,
}

impl Topology {
    /// Builds a topology from station positions and a shared transmission
    /// radius. Neighborhood is symmetric: `dist ≤ radius` by
    /// [`Point::within`], excluding self; each neighbor list is in
    /// ascending station order.
    ///
    /// Stations are bucketed into a uniform grid whose cells are at
    /// least `radius` wide, so two stations in range always share a
    /// cell or sit in adjacent ones, and each station is tested only
    /// against the 3×3 block of cells around its own: O(N·degree)
    /// rather than a scan of all N² pairs.
    ///
    /// # Panics
    ///
    /// If `radius` is not positive and finite.
    pub fn new(positions: Vec<Point>, radius: f64) -> Self {
        assert!(
            radius > 0.0 && radius.is_finite(),
            "transmission radius must be positive and finite"
        );
        let neighbors = grid_neighbors(&positions, radius);
        Topology {
            positions,
            radius,
            neighbors,
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
        &self.neighbors[node.index()]
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
        if self.neighbors.is_empty() {
            return 0.0;
        }
        self.neighbors.iter().map(|n| n.len()).sum::<usize>() as f64 / self.neighbors.len() as f64
    }
}

/// Neighbor lists of `positions` at `radius`, built over a uniform grid
/// (see [`Topology::new`]).
fn grid_neighbors(positions: &[Point], radius: f64) -> Vec<Vec<NodeId>> {
    let n = positions.len();
    if n == 0 {
        return Vec::new();
    }
    let (mut lo, mut hi) = (positions[0], positions[0]);
    for p in positions {
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
    }
    // Cells a hair wider than the radius, so rounding in the cell
    // arithmetic never puts an in-range pair two cells apart; doubled
    // while the grid would have more cells than stations (a tiny radius
    // over a large extent), which only makes cells coarser.
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
    // Counting sort of stations by cell: cell `c` holds
    // `members[start[c]..start[c + 1]]`. Filling from the last station
    // down leaves each `start[c]` at its cell's first slot.
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
    let mut neighbors = vec![Vec::new(); n];
    for (i, &home) in cell.iter().enumerate() {
        let (cx, cy) = (home as usize % cols, home as usize / cols);
        let list = &mut neighbors[i];
        for y in cy.saturating_sub(1)..=(cy + 1).min(rows - 1) {
            for x in cx.saturating_sub(1)..=(cx + 1).min(cols - 1) {
                let c = y * cols + x;
                for &j in &members[start[c] as usize..start[c + 1] as usize] {
                    if j as usize != i && positions[i].within(&positions[j as usize], radius) {
                        list.push(NodeId(j));
                    }
                }
            }
        }
        // The block is walked cell by cell, not in station order.
        list.sort_unstable();
    }
    neighbors
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
    fn distance_matches_positions() {
        let t = line_topology();
        assert!((t.distance(NodeId(0), NodeId(2)) - 0.3).abs() < 1e-12);
    }
}

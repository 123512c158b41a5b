//! RREQ flooding over the MAC layer.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmm_mac::{MacNode, ProtocolKind, TrafficKind};
use rmm_sim::{Engine, MsgId, NodeId, Slot, Topology};
use rmm_workload::{Scenario, TrafficGen};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Route-discovery parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscoveryConfig {
    /// Maximum hops a RREQ may travel (TTL).
    pub ttl: u32,
    /// Slots to keep simulating after the flood starts.
    pub horizon: Slot,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            ttl: 16,
            horizon: 2_000,
        }
    }
}

/// Outcome of one route discovery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiscoveryResult {
    /// The flood reached the target.
    pub reached: bool,
    /// Slot at which the target first processed a RREQ copy.
    pub latency: Option<Slot>,
    /// Hop count of the first copy to arrive (route length).
    pub hops: Option<u32>,
    /// Total RREQ (re)broadcasts the flood generated.
    pub rebroadcasts: u32,
    /// Stations that processed the RREQ at least once (flood coverage).
    pub coverage: usize,
}

/// Outcome of a full route-establishment cycle (RREQ flood + RREP
/// unicast chain back along the recorded reverse path).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteResult {
    /// The forward flood's outcome.
    pub discovery: DiscoveryResult,
    /// The RREP made it back to the origin.
    pub route_established: bool,
    /// Slot at which the origin received the RREP.
    pub round_trip: Option<Slot>,
    /// The reverse path the RREP walked (target first), when established.
    pub path: Vec<NodeId>,
}

/// A RREQ copy in flight: which flood it belongs to and its hop count.
#[derive(Debug, Clone, Copy)]
struct RreqCopy {
    hops: u32,
}

/// The route-discovery harness: MAC stations under a chosen protocol plus
/// the network-layer flooding state.
pub struct RouteSim {
    topo: Topology,
    nodes: Vec<MacNode>,
    engine: Engine,
    /// MsgId → RREQ metadata for frames that carry the flood.
    payloads: HashMap<MsgId, RreqCopy>,
    /// Per-node count of received messages already processed.
    processed: Vec<usize>,
    /// Per-node: has this station already forwarded the flood?
    forwarded: Vec<bool>,
    /// Reverse route: the station each node first heard the flood from.
    prev_hop: Vec<Option<NodeId>>,
    /// Optional cross traffic competing with the flood.
    background: Option<TrafficGen>,
    rng: SmallRng,
}

impl RouteSim {
    /// Builds the harness over a scenario's topology with every station
    /// running `protocol`.
    pub fn new(scenario: &Scenario, protocol: ProtocolKind, seed: u64) -> Self {
        let topo = rmm_workload::uniform_square(scenario.n_nodes, scenario.radius, seed);
        let nodes = MacNode::build_network(&topo, protocol, scenario.timing, seed);
        let engine = scenario.build_engine(topo.clone(), seed);
        let n = topo.len();
        let background = (scenario.msg_rate > 0.0)
            .then(|| TrafficGen::new(scenario.msg_rate, scenario.mix, seed));
        RouteSim {
            topo,
            nodes,
            engine,
            payloads: HashMap::new(),
            processed: vec![0; n],
            forwarded: vec![false; n],
            prev_hop: vec![None; n],
            background,
            rng: SmallRng::seed_from_u64(seed ^ 0x7275_7465),
        }
    }

    /// Disables the scenario's background traffic (flood on a quiet
    /// channel).
    pub fn quiet(mut self) -> Self {
        self.background = None;
        self
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Picks an origin/target pair at least `min_hops` apart in the
    /// connectivity graph (BFS), if one exists.
    pub fn pick_distant_pair(&mut self, min_hops: u32) -> Option<(NodeId, NodeId)> {
        let n = self.topo.len();
        for _ in 0..64 {
            let origin = NodeId(self.rng.random_range(0..n as u32));
            let dist = self.bfs_distances(origin);
            let candidates: Vec<NodeId> = (0..n as u32)
                .map(NodeId)
                .filter(|t| dist[t.index()].is_some_and(|d| d >= min_hops))
                .collect();
            if !candidates.is_empty() {
                let target = candidates[self.rng.random_range(0..candidates.len())];
                return Some((origin, target));
            }
        }
        None
    }

    /// BFS hop distances from `origin` over the connectivity graph.
    pub fn bfs_distances(&self, origin: NodeId) -> Vec<Option<u32>> {
        let n = self.topo.len();
        let mut dist = vec![None; n];
        dist[origin.index()] = Some(0);
        let mut queue = std::collections::VecDeque::from([origin]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued nodes have distances");
            for &v in self.topo.neighbors(u) {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Floods a RREQ from `origin` toward `target` and runs the network
    /// until the flood dies out or `config.horizon` elapses.
    pub fn discover(
        &mut self,
        origin: NodeId,
        target: NodeId,
        config: DiscoveryConfig,
    ) -> DiscoveryResult {
        let mut result = DiscoveryResult {
            reached: false,
            latency: None,
            hops: None,
            rebroadcasts: 0,
            coverage: 1, // the origin knows the request
        };
        // Origin broadcast: hop count 0 copy.
        self.forwarded[origin.index()] = true;
        self.broadcast_copy(origin, 0, self.engine.now(), &mut result);

        let deadline = self.engine.now() + config.horizon;
        let mut arrivals = Vec::new();
        while self.engine.now() < deadline {
            if let Some(gen) = &mut self.background {
                let now = self.engine.now();
                gen.tick(&self.topo, now, &mut arrivals);
                for a in &arrivals {
                    self.nodes[a.node.index()].enqueue(a.kind, a.receivers.clone(), now);
                }
            }
            self.engine.step(&mut self.nodes);
            let now = self.engine.now();
            // Network layer: react to newly decoded data frames.
            for i in 0..self.nodes.len() {
                let received = self.nodes[i].received();
                if received.len() == self.processed[i] {
                    continue;
                }
                // Collect the fresh RREQ copies (cheap: received counts
                // only move forward, and floods are short).
                let fresh: Vec<(MsgId, RreqCopy)> = received
                    .iter()
                    .filter_map(|m| self.payloads.get(m).map(|c| (*m, *c)))
                    .collect();
                self.processed[i] = received.len();
                let me = NodeId(i as u32);
                let Some(&(best_msg, best)) = fresh.iter().min_by_key(|(_, c)| c.hops) else {
                    continue;
                };
                if self.forwarded[i] {
                    continue;
                }
                self.forwarded[i] = true;
                self.prev_hop[i] = Some(best_msg.src);
                result.coverage += 1;
                if me == target {
                    result.reached = true;
                    result.latency = Some(now);
                    result.hops = Some(best.hops + 1);
                    return result;
                }
                if best.hops + 1 < config.ttl {
                    self.broadcast_copy(me, best.hops + 1, now, &mut result);
                }
            }
        }
        result
    }

    /// Runs the full AODV cycle: RREQ flood, then a RREP unicast chain
    /// walking the recorded reverse path back to the origin.
    pub fn establish_route(
        &mut self,
        origin: NodeId,
        target: NodeId,
        config: DiscoveryConfig,
    ) -> RouteResult {
        let discovery = self.discover(origin, target, config);
        let mut result = RouteResult {
            discovery,
            route_established: false,
            round_trip: None,
            path: Vec::new(),
        };
        if !discovery.reached {
            return result;
        }
        // Reconstruct the reverse path target → origin from prev hops.
        let mut path = vec![target];
        let mut cursor = target;
        while cursor != origin {
            let Some(prev) = self.prev_hop[cursor.index()] else {
                return result; // broken reverse route (should not happen)
            };
            if path.contains(&prev) {
                return result; // defensive: loop
            }
            path.push(prev);
            cursor = prev;
        }
        // Walk the RREP: one DCF unicast per reverse hop, each launched
        // once the previous one is delivered. The flood's broadcast storm
        // is usually still draining, so legs may time out; retry each a
        // few times, as AODV route replies effectively do.
        let mut leg = 0usize; // path[leg] -> path[leg + 1]
        let mut pending: Option<MsgId> = None;
        let mut retries = 0u32;
        let deadline = self.engine.now() + config.horizon;
        let mut arrivals = Vec::new();
        while self.engine.now() < deadline {
            let now = self.engine.now();
            if pending.is_none() {
                if leg + 1 == path.len() {
                    result.route_established = true;
                    result.round_trip = Some(now);
                    result.path = path;
                    return result;
                }
                let from = path[leg];
                let to = path[leg + 1];
                let msg = self.nodes[from.index()].enqueue(TrafficKind::Unicast, vec![to], now);
                pending = Some(msg);
            }
            if let Some(gen) = &mut self.background {
                gen.tick(&self.topo, now, &mut arrivals);
                for a in &arrivals {
                    self.nodes[a.node.index()].enqueue(a.kind, a.receivers.clone(), now);
                }
            }
            self.engine.step(&mut self.nodes);
            if let Some(msg) = pending {
                let to = path[leg + 1];
                if self.nodes[to.index()].received().contains(&msg) {
                    pending = None;
                    leg += 1;
                } else {
                    // Retry the leg if the sender abandoned it (service
                    // timeout under the draining flood storm).
                    let from = path[leg];
                    let done = self.nodes[from.index()]
                        .records()
                        .iter()
                        .any(|r| r.msg == msg && !matches!(r.outcome, rmm_mac::Outcome::Pending));
                    if done {
                        retries += 1;
                        if retries > 8 {
                            return result; // leg persistently failing
                        }
                        pending = None; // re-enqueue this leg next round
                    }
                }
            }
        }
        result
    }

    fn broadcast_copy(&mut self, from: NodeId, hops: u32, now: Slot, result: &mut DiscoveryResult) {
        if self.topo.neighbors(from).is_empty() {
            return;
        }
        let receivers = self.topo.neighbors(from).to_vec();
        let msg = self.nodes[from.index()].enqueue(TrafficKind::Broadcast, receivers, now);
        self.payloads.insert(msg, RreqCopy { hops });
        result.rebroadcasts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(nodes: usize) -> Scenario {
        // msg_rate 0: the unit tests flood on a quiet channel.
        Scenario {
            n_nodes: nodes,
            n_runs: 1,
            msg_rate: 0.0,
            ..Scenario::default()
        }
    }

    #[test]
    fn bfs_distances_on_known_topology() {
        // RouteSim over a seeded random topology: BFS sanity.
        let sim = RouteSim::new(&scenario(50), ProtocolKind::Bmmm, 3);
        let dist = sim.bfs_distances(NodeId(0));
        assert_eq!(dist[0], Some(0));
        // Every direct neighbor is at distance 1.
        for &nb in sim.topology().neighbors(NodeId(0)) {
            assert_eq!(dist[nb.index()], Some(1));
        }
        // Triangle inequality along edges.
        for u in 0..50u32 {
            if let Some(du) = dist[u as usize] {
                for &v in sim.topology().neighbors(NodeId(u)) {
                    let dv = dist[v.index()].expect("connected to reached node");
                    assert!(dv <= du + 1);
                }
            }
        }
    }

    #[test]
    fn discovery_reaches_multi_hop_target_under_bmmm() {
        let mut sim = RouteSim::new(&scenario(80), ProtocolKind::Bmmm, 7);
        let (origin, target) = sim.pick_distant_pair(3).expect("a 3-hop pair exists");
        let hops_truth = sim.bfs_distances(origin)[target.index()].unwrap();
        let result = sim.discover(origin, target, DiscoveryConfig::default());
        assert!(result.reached, "flood never reached the target");
        let hops = result.hops.unwrap();
        assert!(
            hops >= hops_truth,
            "route of {hops} hops beats the BFS optimum {hops_truth}"
        );
        assert!(result.rebroadcasts >= hops_truth);
        assert!(result.coverage >= hops as usize);
    }

    #[test]
    fn unreachable_target_is_never_found() {
        // Find a disconnected pair if one exists; otherwise synthesize by
        // using an isolated-by-construction two-cluster layout.
        let topo = Topology::new(
            vec![
                rmm_geom::Point::new(0.1, 0.1),
                rmm_geom::Point::new(0.2, 0.1),
                rmm_geom::Point::new(0.9, 0.9),
            ],
            0.2,
        );
        let nodes = MacNode::build_network(&topo, ProtocolKind::Bmmm, Default::default(), 1);
        let engine = Engine::new(topo.clone(), rmm_sim::Capture::ZorziRao, 1);
        let mut sim = RouteSim {
            topo,
            nodes,
            engine,
            payloads: HashMap::new(),
            processed: vec![0; 3],
            forwarded: vec![false; 3],
            prev_hop: vec![None; 3],
            background: None,
            rng: SmallRng::seed_from_u64(1),
        };
        let result = sim.discover(
            NodeId(0),
            NodeId(2),
            DiscoveryConfig {
                ttl: 8,
                horizon: 500,
            },
        );
        assert!(!result.reached);
        assert_eq!(result.latency, None);
        assert!(
            result.coverage >= 2,
            "the connected cluster should be covered"
        );
    }

    #[test]
    fn ttl_bounds_the_flood() {
        let mut sim = RouteSim::new(&scenario(80), ProtocolKind::Bmmm, 7);
        let (origin, target) = sim.pick_distant_pair(4).expect("a 4-hop pair exists");
        // TTL 1: only the origin's own broadcast; a ≥4-hop target cannot
        // be reached.
        let result = sim.discover(
            origin,
            target,
            DiscoveryConfig {
                ttl: 1,
                horizon: 800,
            },
        );
        assert!(!result.reached);
        assert_eq!(result.rebroadcasts, 1);
    }

    #[test]
    fn scenario_faults_reach_the_flood() {
        let healthy = scenario(80);
        let (origin, target) = RouteSim::new(&healthy, ProtocolKind::Bmmm, 7)
            .pick_distant_pair(3)
            .expect("a 3-hop pair exists");
        // Every station but the origin is down from the first slot: no
        // one can decode the RREQ, so the flood never leaves the origin.
        let faults = (0..80u32)
            .filter(|&i| NodeId(i) != origin)
            .fold(rmm_sim::FaultPlan::new(), |f, i| f.crash(NodeId(i), 0));
        let mut sim = RouteSim::new(&healthy.with_faults(faults), ProtocolKind::Bmmm, 7);
        assert_eq!(sim.pick_distant_pair(3), Some((origin, target)));
        let result = sim.discover(origin, target, DiscoveryConfig::default());
        assert!(!result.reached);
        assert_eq!(result.coverage, 1);
    }

    #[test]
    fn discovery_is_deterministic() {
        let run = |seed: u64| {
            let mut sim = RouteSim::new(&scenario(60), ProtocolKind::Lamm, seed);
            let (o, t) = sim.pick_distant_pair(2).unwrap();
            sim.discover(o, t, DiscoveryConfig::default())
        };
        assert_eq!(run(11), run(11));
    }
}

#[cfg(test)]
mod rrep_tests {
    use super::*;

    fn scenario(nodes: usize) -> Scenario {
        Scenario {
            n_nodes: nodes,
            n_runs: 1,
            msg_rate: 0.0,
            ..Scenario::default()
        }
    }

    #[test]
    fn full_route_establishment_round_trip() {
        let mut sim = RouteSim::new(&scenario(80), ProtocolKind::Bmmm, 7);
        let (origin, target) = sim.pick_distant_pair(3).expect("3-hop pair");
        let result = sim.establish_route(origin, target, DiscoveryConfig::default());
        assert!(result.discovery.reached);
        assert!(result.route_established, "RREP never returned");
        // The path runs target → origin and is loop-free.
        assert_eq!(*result.path.first().unwrap(), target);
        assert_eq!(*result.path.last().unwrap(), origin);
        let mut dedup = result.path.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), result.path.len(), "loop in path");
        // Every consecutive pair is a radio link.
        for w in result.path.windows(2) {
            assert!(sim.topology().in_range(w[0], w[1]));
        }
        // Round trip strictly after the forward latency.
        assert!(result.round_trip.unwrap() > result.discovery.latency.unwrap());
    }

    #[test]
    fn rrep_path_length_is_at_least_bfs_distance() {
        let mut sim = RouteSim::new(&scenario(80), ProtocolKind::Lamm, 9);
        let (origin, target) = sim.pick_distant_pair(3).expect("3-hop pair");
        let truth = sim.bfs_distances(origin)[target.index()].unwrap() as usize;
        let result = sim.establish_route(origin, target, DiscoveryConfig::default());
        if result.route_established {
            assert!(result.path.len() > truth);
        }
    }

    #[test]
    fn failed_discovery_yields_no_route() {
        let mut sim = RouteSim::new(&scenario(80), ProtocolKind::Bmmm, 7);
        let (origin, target) = sim.pick_distant_pair(4).expect("4-hop pair");
        let result = sim.establish_route(
            origin,
            target,
            DiscoveryConfig {
                ttl: 1,
                horizon: 500,
            },
        );
        assert!(!result.discovery.reached);
        assert!(!result.route_established);
        assert!(result.path.is_empty());
    }
}

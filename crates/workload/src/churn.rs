//! Seeded group-membership churn: join/leave/rejoin schedules per
//! station, applied at slot boundaries.
//!
//! Membership is *logical*, layered above the radio: a station that has
//! left the group keeps its radio on (it still decodes frames, still
//! defers to the NAV), but the traffic generator stops addressing
//! messages to it and stops originating messages from it — the plan
//! rewrites each arrival's receiver list at its arrival slot. Like the
//! fault plan, a [`ChurnPlan`] is a pure function of `(node, slot)`: it
//! draws no randomness at simulation time, the filtering happens *after*
//! the traffic generator's RNG draws, and an empty plan leaves the run
//! bit-identical to a churn-free build.
//!
//! Every station starts as a group member; events toggle membership, so
//! a node's first event is always a `leave` and events alternate
//! leave/join from there ([`ChurnPlan::validate`] enforces this).
//!
//! Delivery metrics are split by **membership epoch** — the intervals
//! between consecutive churn events — so reachable-delivery accounting
//! stays honest while the group composition moves under the senders.

use crate::traffic::Arrival;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmm_sim::{spec_entries, spec_slot, NodeId, Slot, SpecEntry, SpecError};
use rmm_stats::{MessageMetric, RunMetrics};
use serde::{Deserialize, Serialize};

/// The direction of one membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnKind {
    /// The node leaves the multicast group at `at`.
    Leave,
    /// The node (re)joins the multicast group at `at`.
    Join,
}

impl ChurnKind {
    fn tag(self) -> &'static str {
        match self {
            ChurnKind::Leave => "leave",
            ChurnKind::Join => "join",
        }
    }
}

/// One scheduled membership change: `node` is a member up to (for
/// `Leave`) or from (for `Join`) slot `at`, inclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// The station whose membership changes.
    pub node: NodeId,
    /// What happens.
    pub kind: ChurnKind,
    /// First slot at which the new membership state holds.
    pub at: Slot,
}

impl ChurnEvent {
    fn entry_spec(&self) -> String {
        format!("{}:{}@{}", self.kind.tag(), self.node.0, self.at)
    }
}

/// A deterministic schedule of membership changes, applied by the
/// workload runner at arrival slots.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnPlan {
    /// The scheduled membership changes.
    pub events: Vec<ChurnEvent>,
}

impl ChurnPlan {
    /// An empty plan (everyone is a member throughout).
    pub fn new() -> Self {
        ChurnPlan::default()
    }

    /// Whether the plan schedules no membership changes at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds a leave of `node` effective at slot `at`.
    pub fn leave(mut self, node: NodeId, at: Slot) -> Self {
        self.events.push(ChurnEvent {
            node,
            kind: ChurnKind::Leave,
            at,
        });
        self
    }

    /// Adds a (re)join of `node` effective at slot `at`.
    pub fn join(mut self, node: NodeId, at: Slot) -> Self {
        self.events.push(ChurnEvent {
            node,
            kind: ChurnKind::Join,
            at,
        });
        self
    }

    /// Whether `node` is a group member at `slot`. Every node starts as
    /// a member; the latest event at or before `slot` decides.
    pub fn member_at(&self, node: NodeId, slot: Slot) -> bool {
        let mut best: Option<(Slot, ChurnKind)> = None;
        for e in &self.events {
            if e.node == node && e.at <= slot && best.is_none_or(|(at, _)| e.at >= at) {
                best = Some((e.at, e.kind));
            }
        }
        !matches!(best, Some((_, ChurnKind::Leave)))
    }

    /// Whether `node` is a member for the whole window `[from, to)` —
    /// the membership analogue of an unimpaired fault window, used to
    /// decide whether a receiver counts as reachable for a message.
    pub fn member_during(&self, node: NodeId, from: Slot, to: Slot) -> bool {
        if to <= from {
            return true;
        }
        self.member_at(node, from)
            && !self
                .events
                .iter()
                .any(|e| e.node == node && e.kind == ChurnKind::Leave && e.at > from && e.at < to)
    }

    /// The sorted, deduplicated slots at which any membership changes —
    /// the epoch boundaries. `n` boundaries divide a run into `n + 1`
    /// epochs.
    pub fn epoch_boundaries(&self) -> Vec<Slot> {
        let mut bounds: Vec<Slot> = self.events.iter().map(|e| e.at).collect();
        bounds.sort_unstable();
        bounds.dedup();
        bounds
    }

    /// The membership epoch `slot` falls in (epoch 0 runs from slot 0 to
    /// the first boundary).
    pub fn epoch_of(&self, slot: Slot) -> usize {
        self.epoch_boundaries().partition_point(|&b| b <= slot)
    }

    /// Drops arrivals the plan forbids at `now`: a non-member neither
    /// originates messages nor appears in any receiver list, and an
    /// arrival whose receiver list empties out is dropped whole. Called
    /// *after* the traffic generator's draws for the slot, so the RNG
    /// stream is untouched and an empty plan changes nothing.
    pub fn filter_arrivals(&self, now: Slot, arrivals: &mut Vec<Arrival>) {
        if self.is_empty() {
            return;
        }
        arrivals.retain_mut(|a| {
            if !self.member_at(a.node, now) {
                return false;
            }
            a.receivers.retain(|r| self.member_at(*r, now));
            !a.receivers.is_empty()
        });
    }

    /// Splits group-delivery metrics by membership epoch: every group
    /// message is bucketed by the epoch its arrival falls in. Empty when
    /// the plan is empty (no epochs to split by).
    pub fn epoch_metrics(&self, messages: &[MessageMetric], threshold: f64) -> Vec<EpochMetrics> {
        if self.is_empty() {
            return Vec::new();
        }
        let bounds = self.epoch_boundaries();
        let mut out = Vec::with_capacity(bounds.len() + 1);
        for epoch in 0..=bounds.len() {
            let from = if epoch == 0 { 0 } else { bounds[epoch - 1] };
            let until = bounds.get(epoch).copied();
            let in_epoch: Vec<MessageMetric> = messages
                .iter()
                .filter(|m| m.is_group && m.arrival >= from && until.is_none_or(|u| m.arrival < u))
                .cloned()
                .collect();
            out.push(EpochMetrics {
                epoch,
                from,
                until,
                group_metrics: RunMetrics::compute(&in_epoch, threshold),
            });
        }
        out
    }

    /// Validates the plan against a network of `n_nodes` stations: node
    /// ids in range, at most one event per node per slot, and each
    /// node's events alternating starting from `leave` (everyone starts
    /// as a member, so a join-first or leave-while-out schedule is a
    /// typo).
    pub fn validate(&self, n_nodes: usize) -> Result<(), String> {
        for e in &self.events {
            if e.node.index() >= n_nodes {
                return Err(format!(
                    "churn event `{}` names node {} but the network has {} nodes (ids 0..={})",
                    e.entry_spec(),
                    e.node.0,
                    n_nodes,
                    n_nodes.saturating_sub(1)
                ));
            }
        }
        let mut nodes: Vec<NodeId> = self.events.iter().map(|e| e.node).collect();
        nodes.sort_unstable_by_key(|n| n.0);
        nodes.dedup();
        for node in nodes {
            let mut evs: Vec<&ChurnEvent> = self.events.iter().filter(|e| e.node == node).collect();
            evs.sort_by_key(|e| e.at);
            let mut member = true;
            let mut prev_at: Option<Slot> = None;
            for e in evs {
                if prev_at == Some(e.at) {
                    return Err(format!(
                        "node {} has two churn events at slot {}",
                        node.0, e.at
                    ));
                }
                prev_at = Some(e.at);
                match (member, e.kind) {
                    (true, ChurnKind::Leave) => member = false,
                    (false, ChurnKind::Join) => member = true,
                    (true, ChurnKind::Join) => {
                        return Err(format!(
                            "`{}` joins node {} which is already a member (every node starts in the group)",
                            e.entry_spec(),
                            node.0
                        ));
                    }
                    (false, ChurnKind::Leave) => {
                        return Err(format!(
                            "`{}` leaves node {} which has already left",
                            e.entry_spec(),
                            node.0
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// A seeded random churn schedule: `churners` distinct nodes drawn
    /// from `1..n_nodes` (node 0 is spared, mirroring
    /// [`rmm_sim::FaultPlan::random_crashes`]) each get one or two
    /// leave→rejoin cycles inside `(0, sim_slots)`. The same seed always
    /// yields the same — always valid — schedule.
    pub fn random(n_nodes: usize, churners: usize, sim_slots: Slot, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0063_6875_726e); // "churn"
        let pool = n_nodes.saturating_sub(1);
        let churners = churners.min(pool);
        let mut victims: Vec<u32> = Vec::new();
        while victims.len() < churners {
            let v = rng.random_range(1..n_nodes) as u32;
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        victims.sort_unstable();
        let mut plan = ChurnPlan::new();
        let span = sim_slots.max(4);
        for v in victims {
            let cycles = rng.random_range(1..=2u32);
            // Draw 2·cycles distinct slots and alternate leave/join over
            // them in order, which is valid by construction.
            let mut slots: Vec<Slot> = Vec::new();
            while slots.len() < 2 * cycles as usize {
                let s = rng.random_range(1..span);
                if !slots.contains(&s) {
                    slots.push(s);
                }
            }
            slots.sort_unstable();
            for (i, s) in slots.into_iter().enumerate() {
                plan = if i % 2 == 0 {
                    plan.leave(NodeId(v), s)
                } else {
                    plan.join(NodeId(v), s)
                };
            }
        }
        plan
    }

    /// Parses a semicolon-separated churn spec, e.g.
    /// `leave:3@500;join:3@900`. Each entry is `leave:node@slot` or
    /// `join:node@slot`. Errors carry the byte span of the offending
    /// token, like [`rmm_sim::FaultPlan::parse`].
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        const KINDS: [(&str, ChurnKind); 2] =
            [("leave", ChurnKind::Leave), ("join", ChurnKind::Join)];
        let mut plan = ChurnPlan::new();
        for entry in spec_entries(spec, "churn", &KINDS) {
            let SpecEntry { kind, node, when } = entry?;
            let at = spec_slot(spec, when)?;
            plan.events.push(ChurnEvent { node, kind, at });
        }
        Ok(plan)
    }

    /// Renders the plan back into the [`ChurnPlan::parse`] spec syntax.
    pub fn spec(&self) -> String {
        self.events
            .iter()
            .map(ChurnEvent::entry_spec)
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// Group-delivery metrics over the messages arriving within one
/// membership epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochMetrics {
    /// Epoch index (0 = from slot 0 to the first churn event).
    pub epoch: usize,
    /// First slot of the epoch.
    pub from: Slot,
    /// One past the last slot (`None` = runs to the end of the
    /// simulation).
    pub until: Option<Slot>,
    /// Aggregates over group messages arriving in the epoch.
    pub group_metrics: RunMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmm_mac::TrafficKind;

    #[test]
    fn membership_toggles_and_defaults_to_member() {
        let plan = ChurnPlan::new()
            .leave(NodeId(3), 500)
            .join(NodeId(3), 900)
            .leave(NodeId(5), 200);
        assert!(plan.member_at(NodeId(3), 0));
        assert!(plan.member_at(NodeId(3), 499));
        assert!(!plan.member_at(NodeId(3), 500));
        assert!(!plan.member_at(NodeId(3), 899));
        assert!(plan.member_at(NodeId(3), 900));
        assert!(!plan.member_at(NodeId(5), 10_000));
        // Untouched nodes are members forever.
        assert!(plan.member_at(NodeId(0), 123_456));
        assert!(plan.validate(10).is_ok());
    }

    #[test]
    fn member_during_requires_whole_window() {
        let plan = ChurnPlan::new().leave(NodeId(3), 500).join(NodeId(3), 900);
        assert!(plan.member_during(NodeId(3), 0, 500));
        assert!(!plan.member_during(NodeId(3), 0, 501));
        assert!(!plan.member_during(NodeId(3), 499, 600));
        assert!(
            !plan.member_during(NodeId(3), 600, 700),
            "out the whole time"
        );
        assert!(plan.member_during(NodeId(3), 900, 2_000));
        // A leave *inside* the window spoils it even if the node is back
        // by the end.
        assert!(!plan.member_during(NodeId(3), 400, 1_000));
        // Degenerate window is vacuously fine.
        assert!(plan.member_during(NodeId(3), 600, 600));
    }

    #[test]
    fn epochs_partition_the_run() {
        let plan = ChurnPlan::new()
            .leave(NodeId(1), 300)
            .leave(NodeId(2), 700)
            .join(NodeId(1), 700);
        assert_eq!(plan.epoch_boundaries(), vec![300, 700]);
        assert_eq!(plan.epoch_of(0), 0);
        assert_eq!(plan.epoch_of(299), 0);
        assert_eq!(plan.epoch_of(300), 1);
        assert_eq!(plan.epoch_of(700), 2);
        assert_eq!(plan.epoch_of(10_000), 2);
        assert_eq!(ChurnPlan::new().epoch_of(5), 0);
    }

    #[test]
    fn filter_drops_non_member_senders_and_receivers() {
        let plan = ChurnPlan::new().leave(NodeId(1), 100).leave(NodeId(2), 100);
        let mk = || {
            vec![
                Arrival {
                    node: NodeId(1),
                    kind: TrafficKind::Multicast,
                    receivers: vec![NodeId(0), NodeId(3)],
                },
                Arrival {
                    node: NodeId(0),
                    kind: TrafficKind::Multicast,
                    receivers: vec![NodeId(1), NodeId(3)],
                },
                Arrival {
                    node: NodeId(3),
                    kind: TrafficKind::Unicast,
                    receivers: vec![NodeId(2)],
                },
            ]
        };
        // Before the boundary nothing is filtered.
        let mut arrivals = mk();
        plan.filter_arrivals(99, &mut arrivals);
        assert_eq!(arrivals.len(), 3);
        // After it: node 1's own arrival dies, node 0's loses receiver 1,
        // and node 3's unicast to the departed node 2 empties out.
        let mut arrivals = mk();
        plan.filter_arrivals(100, &mut arrivals);
        assert_eq!(arrivals.len(), 1);
        assert_eq!(arrivals[0].node, NodeId(0));
        assert_eq!(arrivals[0].receivers, vec![NodeId(3)]);
        // An empty plan never touches the list.
        let mut arrivals = mk();
        ChurnPlan::new().filter_arrivals(100, &mut arrivals);
        assert_eq!(arrivals.len(), 3);
    }

    #[test]
    fn validate_rejects_malformed_schedules() {
        // Join-first: the node is already a member.
        let err = ChurnPlan::new()
            .join(NodeId(1), 50)
            .validate(10)
            .unwrap_err();
        assert!(err.contains("already a member"), "{err}");
        // Double leave.
        let err = ChurnPlan::new()
            .leave(NodeId(1), 50)
            .leave(NodeId(1), 90)
            .validate(10)
            .unwrap_err();
        assert!(err.contains("already left"), "{err}");
        // Two events in one slot.
        let err = ChurnPlan::new()
            .leave(NodeId(1), 50)
            .join(NodeId(1), 50)
            .validate(10)
            .unwrap_err();
        assert!(err.contains("two churn events"), "{err}");
        // Out-of-range node.
        let err = ChurnPlan::new()
            .leave(NodeId(12), 50)
            .validate(10)
            .unwrap_err();
        assert!(err.contains("node 12"), "{err}");
        // A proper leave→join→leave chain is fine.
        assert!(ChurnPlan::new()
            .leave(NodeId(1), 50)
            .join(NodeId(1), 90)
            .leave(NodeId(1), 200)
            .validate(10)
            .is_ok());
    }

    #[test]
    fn spec_round_trips_with_spans_on_errors() {
        let plan = ChurnPlan::parse("leave:3@500; join:3@900;leave:5@200").unwrap();
        assert_eq!(plan.spec(), "leave:3@500;join:3@900;leave:5@200");
        assert_eq!(ChurnPlan::parse(&plan.spec()).unwrap(), plan);
        assert!(ChurnPlan::parse("").unwrap().is_empty());
        let spec = "leave:3@500;hop:4@100";
        let err = ChurnPlan::parse(spec).unwrap_err();
        assert_eq!(&spec[err.offset..err.offset + err.len], "hop");
        let spec = "leave:3@zzz";
        let err = ChurnPlan::parse(spec).unwrap_err();
        assert_eq!(&spec[err.offset..err.offset + err.len], "zzz");
    }

    #[test]
    fn random_schedules_are_deterministic_and_valid() {
        let a = ChurnPlan::random(20, 5, 10_000, 42);
        let b = ChurnPlan::random(20, 5, 10_000, 42);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        assert!(a.validate(20).is_ok(), "{:?}", a.validate(20));
        assert!(a.events.iter().all(|e| e.node.0 != 0), "node 0 is spared");
        let c = ChurnPlan::random(20, 5, 10_000, 43);
        assert_ne!(a, c);
        // More churners than candidates clamps.
        assert!(ChurnPlan::random(3, 10, 1_000, 1).validate(3).is_ok());
    }

    #[test]
    fn epoch_metrics_bucket_by_arrival() {
        let plan = ChurnPlan::new().leave(NodeId(1), 100).join(NodeId(1), 200);
        let msg = |arrival: Slot, delivered: usize| MessageMetric {
            is_group: true,
            intended: 2,
            delivered,
            reachable: 2,
            delivered_reachable: delivered,
            completed: true,
            timed_out: false,
            contention_phases: 1,
            completion_time: Some(10),
            arrival,
        };
        let messages = vec![msg(0, 2), msg(50, 2), msg(150, 1), msg(250, 2)];
        let epochs = plan.epoch_metrics(&messages, 0.9);
        assert_eq!(epochs.len(), 3);
        assert_eq!(
            epochs
                .iter()
                .map(|e| e.group_metrics.messages)
                .collect::<Vec<_>>(),
            vec![2, 1, 1]
        );
        assert_eq!(epochs[0].from, 0);
        assert_eq!(epochs[0].until, Some(100));
        assert_eq!(epochs[2].until, None);
        assert!(epochs[1].group_metrics.delivery_rate < 1.0);
        // Empty plan ⇒ no split at all.
        assert!(ChurnPlan::new().epoch_metrics(&messages, 0.9).is_empty());
    }
}

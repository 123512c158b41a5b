//! MAC service requests, as handed down by the network layer.
//!
//! Per the paper's model, "when a multicast request arrives from the
//! network layer, it is assumed that the request indicates the set of
//! neighbors required to reach all the members of the intended multicast
//! group" — so a request carries an explicit receiver list resolved
//! against the sender's neighborhood.

use rmm_sim::{MsgId, NodeId, Slot};
use serde::{Deserialize, Serialize};

/// The traffic class of a request (the paper's message mix is 0.2 / 0.4 /
/// 0.4 across these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficKind {
    /// One addressed receiver; always served by DCF unicast.
    Unicast,
    /// A subset of the sender's neighbors.
    Multicast,
    /// All of the sender's neighbors (a special case of multicast).
    Broadcast,
}

/// A queued MAC request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Message identifier (sender + sequence).
    pub msg: MsgId,
    /// Traffic class.
    pub kind: TrafficKind,
    /// Intended receivers, resolved to current neighbors at arrival.
    pub receivers: Vec<NodeId>,
    /// Slot the request arrived at the MAC.
    pub arrival: Slot,
}

impl Request {
    /// Creates a request.
    pub fn new(msg: MsgId, kind: TrafficKind, receivers: Vec<NodeId>, arrival: Slot) -> Self {
        debug_assert!(
            kind != TrafficKind::Unicast || receivers.len() == 1,
            "unicast requests carry exactly one receiver"
        );
        Request {
            msg,
            kind,
            receivers,
            arrival,
        }
    }

    /// Whether the request has passed its service deadline at `now`. A
    /// deadline past `Slot::MAX` saturates to it instead of wrapping.
    pub fn timed_out(&self, now: Slot, timeout: Slot) -> bool {
        now >= self.arrival.saturating_add(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(arrival: Slot) -> Request {
        Request::new(
            MsgId::new(NodeId(0), 0),
            TrafficKind::Multicast,
            vec![NodeId(1), NodeId(2)],
            arrival,
        )
    }

    #[test]
    fn timeout_is_measured_from_arrival() {
        let r = req(50);
        assert!(!r.timed_out(50, 100));
        assert!(!r.timed_out(149, 100));
        assert!(r.timed_out(150, 100));
        assert!(
            !r.timed_out(Slot::MAX - 1, Slot::MAX),
            "the deadline saturates"
        );
    }

    #[test]
    fn request_fields_roundtrip() {
        let r = req(3);
        assert_eq!(r.kind, TrafficKind::Multicast);
        assert_eq!(r.receivers.len(), 2);
        assert_eq!(r.arrival, 3);
    }
}

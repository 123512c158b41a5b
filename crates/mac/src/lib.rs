//! The multicast MAC protocol suite of *"Reliable MAC Layer Multicast in
//! IEEE 802.11 Wireless Networks"* (Sun, Huang, Arora, Lai — ICPP 2002).
//!
//! The crate provides:
//!
//! * the paper's contributions — [`protocols::BmmmFsm`] (Batch Mode
//!   Multicast MAC) and its location-aware refinement LAMM,
//! * the baselines it evaluates against — plain IEEE 802.11 multicast,
//!   the Tang–Gerla multicast-RTS protocol, BSMA, and BMW,
//! * DCF unicast for the unicast share of the traffic mix,
//! * shared mechanisms: the CSMA/CA [`contention::Contention`] engine,
//!   the [`nav::Nav`] virtual carrier sense, [`timing::MacTiming`], and
//!   the [`node::MacNode`] station that glues them onto the `rmm-sim`
//!   channel.
//!
//! Every station runs the same protocol in a simulation; which one is
//! selected with [`ProtocolKind`].
//!
//! # Example
//!
//! ```
//! use rmm_mac::{MacNode, MacTiming, ProtocolKind, TrafficKind};
//! use rmm_sim::{Capture, Engine, NodeId, Topology};
//! use rmm_geom::Point;
//!
//! // Three stations in a row, all within range of each other.
//! let topo = Topology::new(
//!     vec![Point::new(0.0, 0.0), Point::new(0.1, 0.0), Point::new(0.1, 0.1)],
//!     0.2,
//! );
//! let mut nodes = MacNode::build_network(&topo, ProtocolKind::Bmmm, MacTiming::default(), 1);
//! let mut engine = Engine::new(topo, Capture::ZorziRao, 1);
//!
//! // Node 0 multicasts to its two neighbors.
//! nodes[0].enqueue(TrafficKind::Multicast, vec![NodeId(1), NodeId(2)], 0);
//! engine.run(&mut nodes, 60);
//!
//! assert!(nodes[0].records()[0].outcome.is_completed());
//! assert!(nodes[1].received().len() == 1 && nodes[2].received().len() == 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod contention;
pub mod nav;
pub mod node;
pub mod protocols;
pub mod request;
pub mod stats;
pub mod timing;

pub use contention::{next_cw, Contention};
pub use nav::Nav;
pub use node::{MacNode, NodeCore};
pub use protocols::ProtocolKind;
pub use request::{Request, TrafficKind};
pub use stats::{FrameKindCounts, NodeCounters, Outcome, SentRecord};
pub use timing::{max_cts_defer_window, MacTiming, PhyTimingUs, FHSS};

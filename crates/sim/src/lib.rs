//! Slotted discrete-event wireless LAN simulator.
//!
//! This crate is the substrate the paper's evaluation runs on: the authors
//! "developed \[their\] own wireless LAN simulator" with slotted time where
//! "the event (e.g., message sending and receiving) happens at the
//! beginning of a slot". We reproduce that model:
//!
//! * time advances in integer [`Slot`]s,
//! * stations are half-duplex disk radios with a shared transmission
//!   radius (`R = 0.2` in a unit square by default),
//! * a frame is decoded at a receiver iff the receiver is in range, not
//!   itself transmitting, and no other audible transmission overlaps the
//!   frame — unless the *direct-sequence capture* model rescues one frame
//!   of a control-frame pile-up ([`capture`]),
//! * carrier sense reports the channel state of the *previous* slot, so
//!   two stations that start in the same slot collide (classic slotted
//!   CSMA behaviour).
//!
//! MAC protocols implement the [`Station`] trait (see the `rmm-mac`
//! crate); the [`Engine`] drives all stations one slot at a time and
//! resolves the channel.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod capture;
pub mod channel;
pub mod engine;
pub mod fault;
pub mod frame;
pub mod ids;
pub mod ledger;
pub mod topology;
pub mod trace;
pub mod wire;

pub use capture::{zorzi_rao_capture, Capture};
pub use channel::{Channel, Reception, Transmission};
pub use engine::{Ctx, Engine, Station};
pub use fault::{
    spec_entries, spec_slot, BurstChain, FaultKind, FaultPlan, GilbertElliott, NodeFault,
    SpecEntry, SpecError,
};
pub use frame::{Dest, Frame, FrameInfo, FrameKind};
pub use ids::{BuildIdHasher, IdHasher, MsgId, MsgSet, NodeId, Slot};
pub use ledger::{AirtimeBreakdown, AirtimeByKind, AirtimeLedger};
pub use topology::Topology;
pub use trace::{idle_gaps, max_idle_gap, Trace, TraceEvent};
pub use wire::{
    crc32, decode as decode_frame, encode as encode_frame, MacAddr, WireError, WireFrame,
};

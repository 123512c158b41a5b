//! IEEE 802.11 wire formats for the control and data frames the
//! protocols exchange.
//!
//! A key design point of the paper is that BMMM/LAMM need **no new frame
//! formats**: RTS, CTS, ACK and DATA are the 1997-spec formats, and the
//! new RAK frame (paper Figure 1) reuses the ACK format — frame control,
//! Duration, receiver address (RA), FCS. That is what lets the reliable
//! multicast MAC co-exist with stock 802.11 stations. This module makes
//! the claim concrete: it encodes and decodes the exact octet layouts,
//! including a real CRC-32 frame check sequence.
//!
//! The simulator itself runs on the abstract [`Frame`]
//! representation (slot-denominated airtime); this codec is the bridge to
//! byte-level tooling and is exercised by round-trip and corruption
//! tests. Group membership (which stations a multicast RA refers to) is
//! upper-layer state in 802.11, so encoding a group-addressed frame
//! yields a multicast RA derived from the message id, not the member
//! list.

use crate::frame::{Dest, Frame, FrameKind};
use crate::ids::{MsgId, NodeId};

/// A 48-bit IEEE MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The locally-administered unicast address of a station:
    /// `02:52:4D:4D:hh:ll` ("RM M" OUI-ish tag + the 16-bit station id).
    pub fn from_node(node: NodeId) -> MacAddr {
        let id = node.0;
        MacAddr([0x02, 0x52, 0x4D, 0x4D, (id >> 8) as u8, id as u8])
    }

    /// A multicast (group) address derived from a message id:
    /// `01:52:4D:4D:hh:ll` with the low 16 bits of a mix of source and
    /// sequence. Group membership itself is upper-layer state.
    pub fn group(msg: MsgId) -> MacAddr {
        let mix = msg.src.0.wrapping_mul(0x9e37).wrapping_add(msg.seq);
        MacAddr([0x01, 0x52, 0x4D, 0x4D, (mix >> 8) as u8, mix as u8])
    }

    /// Whether the group (multicast) bit is set.
    pub fn is_group(&self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// The station id encoded in a unicast address, if recognizable.
    pub fn node(&self) -> Option<NodeId> {
        if self.0[0] == 0x02 && self.0[1..4] == [0x52, 0x4D, 0x4D] {
            Some(NodeId((u32::from(self.0[4]) << 8) | u32::from(self.0[5])))
        } else {
            None
        }
    }
}

/// 802.11 frame type field (2 bits).
const TYPE_CONTROL: u8 = 0b01;
const TYPE_DATA: u8 = 0b10;

/// Control subtypes (1997 spec), plus the two reserved subtypes this
/// protocol suite assigns: RAK (the paper's new frame) and NAK (BSMA).
const SUBTYPE_RTS: u8 = 0b1011;
const SUBTYPE_CTS: u8 = 0b1100;
const SUBTYPE_ACK: u8 = 0b1101;
/// Reserved control subtype adopted for the paper's RAK frame.
const SUBTYPE_RAK: u8 = 0b0111;
/// Reserved control subtype adopted for BSMA's NAK frame.
const SUBTYPE_NAK: u8 = 0b0110;
const SUBTYPE_DATA: u8 = 0b0000;

/// Errors from [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer octets than the smallest valid frame.
    Truncated,
    /// FCS mismatch: the frame was corrupted in flight.
    BadFcs,
    /// Unknown type/subtype combination.
    UnknownType(u8, u8),
    /// Protocol version bits were not zero.
    BadVersion(u8),
}

/// A decoded 802.11 frame header (the fields the MAC reads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Frame kind.
    pub kind: FrameKind,
    /// Duration field in microseconds.
    pub duration_us: u16,
    /// Receiver address.
    pub ra: MacAddr,
    /// Transmitter address (present in RTS and DATA).
    pub ta: Option<MacAddr>,
    /// Sequence number (DATA frames; carries the MsgId sequence, which
    /// BMW's receive-buffer logic reads).
    pub seq: Option<u16>,
    /// Payload length in octets (DATA frames).
    pub body_len: usize,
}

/// IEEE CRC-32 (as used for the 802.11 FCS), bitwise reflected
/// implementation — small and dependency-free.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn frame_control(kind: FrameKind) -> [u8; 2] {
    let (typ, subtype) = match kind {
        FrameKind::Rts => (TYPE_CONTROL, SUBTYPE_RTS),
        FrameKind::Cts => (TYPE_CONTROL, SUBTYPE_CTS),
        FrameKind::Ack => (TYPE_CONTROL, SUBTYPE_ACK),
        FrameKind::Rak => (TYPE_CONTROL, SUBTYPE_RAK),
        FrameKind::Nak => (TYPE_CONTROL, SUBTYPE_NAK),
        FrameKind::Data => (TYPE_DATA, SUBTYPE_DATA),
    };
    // version (2 bits) | type (2 bits) | subtype (4 bits), then flags.
    [(subtype << 4) | (typ << 2), 0x00]
}

fn kind_of(fc0: u8) -> Result<FrameKind, WireError> {
    let version = fc0 & 0b11;
    if version != 0 {
        return Err(WireError::BadVersion(version));
    }
    let typ = (fc0 >> 2) & 0b11;
    let subtype = fc0 >> 4;
    match (typ, subtype) {
        (TYPE_CONTROL, SUBTYPE_RTS) => Ok(FrameKind::Rts),
        (TYPE_CONTROL, SUBTYPE_CTS) => Ok(FrameKind::Cts),
        (TYPE_CONTROL, SUBTYPE_ACK) => Ok(FrameKind::Ack),
        (TYPE_CONTROL, SUBTYPE_RAK) => Ok(FrameKind::Rak),
        (TYPE_CONTROL, SUBTYPE_NAK) => Ok(FrameKind::Nak),
        (TYPE_DATA, SUBTYPE_DATA) => Ok(FrameKind::Data),
        (t, s) => Err(WireError::UnknownType(t, s)),
    }
}

/// Receiver address of an abstract frame.
fn ra_of(frame: &Frame) -> MacAddr {
    match &frame.dest {
        Dest::Node(n) => MacAddr::from_node(*n),
        Dest::Group(_) => MacAddr::group(frame.msg),
    }
}

/// Encodes an abstract simulator [`Frame`] into its 802.11 octets.
///
/// * RTS: FC(2) Dur(2) RA(6) TA(6) FCS(4) = 20 octets.
/// * CTS/ACK/RAK/NAK: FC(2) Dur(2) RA(6) FCS(4) = 14 octets.
/// * DATA: FC(2) Dur(2) RA(6) TA(6) BSSID(6) SeqCtl(2) body FCS(4).
///
/// `us_per_slot` converts the slot-denominated Duration into the
/// microsecond field the spec carries (50 µs for FHSS);
/// `body_per_data_slot` sizes the payload of data frames.
pub fn encode(frame: &Frame, us_per_slot: f64, body_per_data_slot: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&frame_control(frame.kind));
    let duration_us = (f64::from(frame.duration) * us_per_slot).round() as u16;
    buf.extend_from_slice(&duration_us.to_le_bytes());
    buf.extend_from_slice(&ra_of(frame).0);
    match frame.kind {
        FrameKind::Rts => {
            buf.extend_from_slice(&MacAddr::from_node(frame.src).0);
        }
        FrameKind::Cts | FrameKind::Ack | FrameKind::Rak | FrameKind::Nak => {}
        FrameKind::Data => {
            buf.extend_from_slice(&MacAddr::from_node(frame.src).0);
            // BSSID: the ad hoc cell id; we use the broadcast BSSID.
            buf.extend_from_slice(&[0xFF; 6]);
            // Sequence control: the per-station sequence number << 4
            // (fragment number 0).
            buf.extend_from_slice(&((frame.msg.seq as u16) << 4).to_le_bytes());
            let body = frame.slots as usize * body_per_data_slot;
            buf.resize(buf.len() + body, 0xA5);
        }
    }
    let fcs = crc32(&buf);
    buf.extend_from_slice(&fcs.to_le_bytes());
    buf
}

/// Splits the first `N` octets off the front of `buf`. Callers check
/// the remaining length first.
fn take<const N: usize>(buf: &mut &[u8]) -> [u8; N] {
    let (head, rest) = buf.split_first_chunk::<N>().expect("length checked");
    *buf = rest;
    *head
}

/// Decodes 802.11 octets back into a [`WireFrame`], verifying the FCS.
///
/// ```
/// use rmm_sim::{decode_frame, encode_frame, Dest, Frame, FrameKind, MsgId, NodeId};
/// // The paper's RAK frame reuses the 14-octet ACK layout.
/// let rak = Frame::control(
///     FrameKind::Rak,
///     NodeId(0),
///     Dest::Node(NodeId(1)),
///     3,
///     MsgId::new(NodeId(0), 0),
/// );
/// let octets = encode_frame(&rak, 50.0, 0);
/// assert_eq!(octets.len(), 14);
/// let wire = decode_frame(&octets).unwrap();
/// assert_eq!(wire.kind, FrameKind::Rak);
/// assert_eq!(wire.duration_us, 150);
/// ```
pub fn decode(octets: &[u8]) -> Result<WireFrame, WireError> {
    if octets.len() < 14 {
        return Err(WireError::Truncated);
    }
    let (body, fcs_bytes) = octets.split_at(octets.len() - 4);
    let want = u32::from_le_bytes(fcs_bytes.try_into().expect("4 bytes"));
    if crc32(body) != want {
        return Err(WireError::BadFcs);
    }
    let mut buf = body;
    let [fc0, _flags] = take(&mut buf);
    let kind = kind_of(fc0)?;
    let duration_us = u16::from_le_bytes(take(&mut buf));
    let ra = MacAddr(take(&mut buf));
    let (ta, seq, body_len) = match kind {
        FrameKind::Rts => {
            if buf.len() < 6 {
                return Err(WireError::Truncated);
            }
            (Some(MacAddr(take(&mut buf))), None, 0)
        }
        FrameKind::Data => {
            if buf.len() < 14 {
                return Err(WireError::Truncated);
            }
            let ta = MacAddr(take(&mut buf));
            let _bssid: [u8; 6] = take(&mut buf);
            let seq_ctl = u16::from_le_bytes(take(&mut buf));
            (Some(ta), Some(seq_ctl >> 4), buf.len())
        }
        _ => (None, None, 0),
    };
    Ok(WireFrame {
        kind,
        duration_us,
        ra,
        ta,
        seq,
        body_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Dest;

    fn nid(n: u32) -> NodeId {
        NodeId(n)
    }

    fn mid(n: u32, s: u32) -> MsgId {
        MsgId::new(nid(n), s)
    }

    const US: f64 = 50.0; // FHSS slot time

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
    }

    #[test]
    fn rts_is_twenty_octets() {
        let f = Frame::control(FrameKind::Rts, nid(1), Dest::Node(nid(2)), 7, mid(1, 0));
        assert_eq!(encode(&f, US, 0).len(), 20);
    }

    #[test]
    fn cts_ack_rak_nak_are_fourteen_octets() {
        for kind in [
            FrameKind::Cts,
            FrameKind::Ack,
            FrameKind::Rak,
            FrameKind::Nak,
        ] {
            let f = Frame::control(kind, nid(1), Dest::Node(nid(2)), 3, mid(1, 0));
            assert_eq!(encode(&f, US, 0).len(), 14, "{kind:?}");
        }
    }

    #[test]
    fn rak_format_equals_ack_format() {
        // Paper Figure 1: the RAK frame has the same format as ACK —
        // identical length and layout, only the subtype differs.
        let rak = Frame::control(FrameKind::Rak, nid(1), Dest::Node(nid(2)), 3, mid(1, 0));
        let ack = Frame::control(FrameKind::Ack, nid(1), Dest::Node(nid(2)), 3, mid(1, 0));
        let rak_b = encode(&rak, US, 0);
        let ack_b = encode(&ack, US, 0);
        assert_eq!(rak_b.len(), ack_b.len());
        // Everything except the frame-control octet and the FCS agrees.
        assert_eq!(rak_b[1..10], ack_b[1..10]);
        assert_ne!(rak_b[0], ack_b[0]);
    }

    #[test]
    fn control_roundtrip() {
        for kind in [
            FrameKind::Rts,
            FrameKind::Cts,
            FrameKind::Ack,
            FrameKind::Rak,
            FrameKind::Nak,
        ] {
            let f = Frame::control(kind, nid(7), Dest::Node(nid(9)), 13, mid(7, 5));
            let w = decode(&encode(&f, US, 0)).unwrap();
            assert_eq!(w.kind, kind);
            assert_eq!(w.duration_us, 13 * 50);
            assert_eq!(w.ra.node(), Some(nid(9)));
            if kind == FrameKind::Rts {
                assert_eq!(w.ta.unwrap().node(), Some(nid(7)));
            } else {
                assert_eq!(w.ta, None);
            }
        }
    }

    #[test]
    fn data_roundtrip_carries_sequence_and_body() {
        let f = Frame::data(nid(3), Dest::Node(nid(4)), 2, mid(3, 41), 5);
        let octets = encode(&f, US, 200);
        let w = decode(&octets).unwrap();
        assert_eq!(w.kind, FrameKind::Data);
        assert_eq!(w.seq, Some(41));
        assert_eq!(w.body_len, 1000);
        assert_eq!(w.ta.unwrap().node(), Some(nid(3)));
        assert_eq!(w.ra.node(), Some(nid(4)));
    }

    #[test]
    fn group_frames_get_multicast_ra() {
        let f = Frame::data(nid(3), Dest::group(vec![nid(4), nid(5)]), 0, mid(3, 1), 5);
        let w = decode(&encode(&f, US, 100)).unwrap();
        assert!(w.ra.is_group());
        assert_eq!(w.ra.node(), None);
    }

    #[test]
    fn corrupted_fcs_is_rejected() {
        let f = Frame::control(FrameKind::Cts, nid(1), Dest::Node(nid(2)), 3, mid(1, 0));
        let mut octets = encode(&f, US, 0);
        // Flip one payload bit.
        octets[5] ^= 0x10;
        assert_eq!(decode(&octets), Err(WireError::BadFcs));
    }

    #[test]
    fn corrupted_fcs_field_is_rejected() {
        let f = Frame::control(FrameKind::Ack, nid(1), Dest::Node(nid(2)), 3, mid(1, 0));
        let mut octets = encode(&f, US, 0);
        let last = octets.len() - 1;
        octets[last] ^= 0xFF;
        assert_eq!(decode(&octets), Err(WireError::BadFcs));
    }

    #[test]
    fn truncated_frames_are_rejected() {
        assert_eq!(decode(&[0u8; 5]), Err(WireError::Truncated));
        assert_eq!(decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn nonzero_version_is_rejected() {
        let f = Frame::control(FrameKind::Cts, nid(1), Dest::Node(nid(2)), 3, mid(1, 0));
        let mut octets = encode(&f, US, 0);
        octets[0] |= 0b01; // set a version bit
                           // Recompute the FCS so only the version check can fire.
        let n = octets.len();
        let fcs = crc32(&octets[..n - 4]);
        octets[n - 4..].copy_from_slice(&fcs.to_le_bytes());
        assert!(matches!(decode(&octets), Err(WireError::BadVersion(_))));
    }

    #[test]
    fn mac_addr_node_roundtrip() {
        for id in [0u32, 1, 255, 65_535] {
            assert_eq!(MacAddr::from_node(nid(id)).node(), Some(nid(id)));
        }
        assert!(!MacAddr::from_node(nid(3)).is_group());
        assert!(MacAddr::group(mid(1, 2)).is_group());
    }

    #[test]
    fn distinct_messages_get_distinct_group_addresses() {
        let a = MacAddr::group(mid(1, 0));
        let b = MacAddr::group(mid(1, 1));
        let c = MacAddr::group(mid(2, 0));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}

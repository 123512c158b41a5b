//! MAC timing parameters.
//!
//! The simulation uses the paper's abstract slot units (Table 2): control
//! frames ("Signal Time") take 1 slot and data frames 5 slots. Responses
//! that 802.11 sends "after SIFS" occupy the slot immediately following
//! the triggering frame — SIFS (28 µs for FHSS) is shorter than a slot
//! (50 µs), so in slot units it rounds to "the very next slot" and the
//! medium shows no idle slot inside a frame exchange. DIFS, which *is*
//! longer than a slot, is modeled as a required run of idle slots before
//! backoff may progress.
//!
//! The microsecond-level FHSS constants are kept for the Section 3
//! feasibility computation: the paper argues a *random CTS defer window*
//! cannot work because the window `w` must satisfy
//! `w < (DIFS − SIFS) / slot`, which is ≤ 1 for FHSS (and 0 if PIFS is in
//! use). [`max_cts_defer_window`] reproduces that arithmetic.

use serde::{Deserialize, Serialize};

/// Slot-denominated MAC timing used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacTiming {
    /// Airtime of a control frame (RTS/CTS/ACK/RAK/NAK), in slots.
    pub control_slots: u32,
    /// Airtime of a data frame, in slots (paper: 5).
    pub data_slots: u32,
    /// Idle slots required before backoff may progress (DIFS).
    pub difs: u32,
    /// Initial contention window: backoff drawn uniformly from `0..=cw`.
    pub cw_min: u32,
    /// Contention window ceiling for binary exponential backoff.
    pub cw_max: u32,
    /// Ceiling on *consecutive* failed recontentions, enforced by the
    /// node for every protocol: once a message's retries fail past it,
    /// the message is recorded `Failed`. For DCF unicast this is
    /// 802.11's retry limit; for the multicast senders it keeps any FSM
    /// from retrying unboundedly.
    pub retry_limit: u32,
    /// Per-destination retry budget for the reliable multicast
    /// protocols: once a receiver has failed to confirm this many
    /// service rounds, the sender gives up on it (emitting a `GiveUp`
    /// trace event) and serves the rest of the group. `u32::MAX`
    /// effectively disables the budget.
    pub dest_retry_limit: u32,
    /// Message service timeout in slots (paper: 100), measured from the
    /// message's arrival at the MAC.
    pub timeout: u64,
    /// Whether stations honor Duration-based yielding (the NAV). Always
    /// on in the paper's protocols; `nav_does_not_hurt_bmmm` in
    /// `tests/protocol_integration.rs` turns it off to measure what the
    /// virtual carrier sense buys.
    pub nav_enabled: bool,
}

impl Default for MacTiming {
    fn default() -> Self {
        MacTiming {
            control_slots: 1,
            data_slots: 5,
            difs: 4,
            cw_min: 7,
            cw_max: 255,
            retry_limit: 7,
            dest_retry_limit: 7,
            timeout: 100,
            nav_enabled: true,
        }
    }
}

impl MacTiming {
    /// Slots from the *start* of a transmitted frame with airtime `sent`
    /// until a 1-control-frame response to it is fully delivered: the
    /// frame's airtime, plus the response airtime (the response occupies
    /// the slot right after the frame ends, and is delivered at the
    /// beginning of the slot after that).
    pub fn response_delivered_after(&self, sent: u32) -> u64 {
        u64::from(sent) + u64::from(self.control_slots)
    }

    /// Duration (NAV) carried by a DCF/BMW RTS: the CTS + DATA + ACK that
    /// follow it.
    pub fn dcf_rts_duration(&self) -> u32 {
        2 * self.control_slots + self.data_slots
    }

    /// Duration carried by a Tang–Gerla multicast RTS: CTS + DATA.
    pub fn tg_rts_duration(&self) -> u32 {
        self.control_slots + self.data_slots
    }

    /// Duration carried by a BSMA multicast RTS: CTS + DATA + NAK window.
    pub fn bsma_rts_duration(&self) -> u32 {
        2 * self.control_slots + self.data_slots
    }

    /// Duration carried by the `i`-th (0-based) of `m` BMMM RTS frames —
    /// the paper's Figure 3 formula
    /// `(‖S‖−i)·T_RTS + (‖S‖−i+1)·T_CTS + T_DATA + ‖S‖·(T_RAK + T_ACK)`
    /// with 1-based `i`, expressed in slots.
    pub fn bmmm_rts_duration(&self, i: usize, m: usize) -> u32 {
        let remaining = (m - i - 1) as u32; // RTS/CTS pairs after this one
        remaining * 2 * self.control_slots  // later RTS+CTS pairs
            + self.control_slots            // this frame's CTS
            + self.data_slots
            + (m as u32) * 2 * self.control_slots // RAK+ACK per receiver
    }

    /// Duration carried by the BMMM DATA frame: the full RAK/ACK train.
    pub fn bmmm_data_duration(&self, m: usize) -> u32 {
        (m as u32) * 2 * self.control_slots
    }

    /// Duration carried by the `i`-th (0-based) of `m` BMMM RAK frames.
    pub fn bmmm_rak_duration(&self, i: usize, m: usize) -> u32 {
        let remaining = (m - i - 1) as u32;
        remaining * 2 * self.control_slots + self.control_slots
    }
}

/// IEEE 802.11 FHSS PHY timing in microseconds (1997 spec values quoted
/// in the paper's Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhyTimingUs {
    /// Short inter-frame spacing.
    pub sifs: f64,
    /// PCF inter-frame spacing.
    pub pifs: f64,
    /// DCF inter-frame spacing.
    pub difs: f64,
    /// Slot time.
    pub slot: f64,
}

/// The FHSS constants: SIFS 28 µs, PIFS 78 µs, DIFS 128 µs, slot 50 µs.
pub const FHSS: PhyTimingUs = PhyTimingUs {
    sifs: 28.0,
    pifs: 78.0,
    difs: 128.0,
    slot: 50.0,
};

/// Maximum usable contention-window size `w` for the hypothetical "random
/// CTS defer" fix discussed (and dismissed) in Section 3: every deferred
/// CTS must still start before any station could complete a DIFS, so
/// `w < (deadline − SIFS) / slot`, where `deadline` is DIFS — or PIFS if
/// the point coordinator may seize the medium.
pub fn max_cts_defer_window(phy: &PhyTimingUs, deadline_us: f64) -> u32 {
    let bound = (deadline_us - phy.sifs) / phy.slot;
    // w must be *strictly* below the bound.
    let max = bound.ceil() - 1.0;
    if max < 0.0 {
        0
    } else {
        max as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table2() {
        let t = MacTiming::default();
        assert_eq!(t.control_slots, 1, "signal time: 1 slot");
        assert_eq!(t.data_slots, 5, "data transmission time: 5 slots");
        assert_eq!(t.timeout, 100, "time out: 100 slots");
    }

    #[test]
    fn sifs_gap_invariant_holds() {
        // The paper's co-existence argument: the medium is never idle for
        // 2·SIFS + T_CTS during a BMMM batch, which must be < DIFS. In our
        // slot units the largest intra-batch gap is one control slot
        // (a missing CTS), strictly below DIFS.
        let t = MacTiming::default();
        assert!(t.control_slots < t.difs);
    }

    #[test]
    fn fhss_defer_window_is_one() {
        // Paper: "the maximum value allowed for w is 1".
        assert_eq!(max_cts_defer_window(&FHSS, FHSS.difs), 1);
    }

    #[test]
    fn pifs_defer_window_is_zero() {
        // Paper footnote: with PIFS, "the only value available for w
        // would be 0".
        assert_eq!(max_cts_defer_window(&FHSS, FHSS.pifs), 0);
    }

    #[test]
    fn defer_window_grows_with_larger_difs() {
        let big = PhyTimingUs {
            difs: 528.0,
            ..FHSS
        };
        assert_eq!(max_cts_defer_window(&big, big.difs), 9);
    }

    #[test]
    fn bmmm_rts_duration_matches_figure3() {
        // m = 3, i = 1 (1-based: the 2nd RTS): Figure 3 gives
        // (3−2)·T_RTS + (3−2+1)·T_CTS + T_DATA + 3·(T_RAK+T_ACK)
        // = 1 + 2 + 5 + 6 = 14 slots.
        let t = MacTiming::default();
        assert_eq!(t.bmmm_rts_duration(1, 3), 14);
        // First RTS of the batch reserves the whole rest of the batch.
        assert_eq!(t.bmmm_rts_duration(0, 3), 2 * 2 + 1 + 5 + 6);
        // Last RTS: only its CTS, the data and the RAK train remain.
        assert_eq!(t.bmmm_rts_duration(2, 3), 1 + 5 + 6);
    }

    #[test]
    fn bmmm_rak_durations_shrink_to_final_ack() {
        let t = MacTiming::default();
        assert_eq!(t.bmmm_rak_duration(0, 3), 5);
        assert_eq!(t.bmmm_rak_duration(1, 3), 3);
        assert_eq!(t.bmmm_rak_duration(2, 3), 1);
    }

    #[test]
    fn dcf_durations() {
        let t = MacTiming::default();
        assert_eq!(t.dcf_rts_duration(), 7);
        assert_eq!(t.tg_rts_duration(), 6);
        assert_eq!(t.bsma_rts_duration(), 7);
    }

    #[test]
    fn response_deadline_arithmetic() {
        let t = MacTiming::default();
        // A 1-slot RTS sent at slot s: CTS delivered at s + 2.
        assert_eq!(t.response_delivered_after(1), 2);
        // A 5-slot DATA sent at slot s: ACK delivered at s + 6.
        assert_eq!(t.response_delivered_after(5), 6);
    }
}

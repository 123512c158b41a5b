//! Direct-sequence capture models.
//!
//! The Tang–Gerla protocols assume the radio can "capture" the strongest
//! of several colliding frames. The paper (citing Zorzi & Rao, IEEE JSAC
//! 1994) reports a capture probability of ≈0.55 for two competing nodes,
//! dropping to ≈0.3 at five and ≈0.2 beyond. We provide:
//!
//! * [`zorzi_rao_capture`] — a calibrated curve that passes through those
//!   published anchor points and is used both here and by the analytical
//!   model (Table 1 of the paper),
//! * [`Capture`] — the runtime selector: no capture, the calibrated curve,
//!   or a physically derived Rayleigh-fading model for ablations.

use serde::{Deserialize, Serialize};

/// Calibrated Zorzi–Rao capture probability for `k` simultaneous
/// equal-power control frames.
///
/// `C_1 = 1` (no contention), and for `k ≥ 2`:
/// `C_k = 0.2 + 0.35 / (k - 1)^0.9`, which reproduces the anchor values
/// the paper quotes: `C_2 = 0.55`, `C_5 ≈ 0.29`, `C_k → 0.2`. With this
/// curve the analytical Table 1 values match the paper (3.27 and 4.08
/// expected contention phases for BSMA at `q = 0.05`, `n = 5, 10`).
pub fn zorzi_rao_capture(k: usize) -> f64 {
    match k {
        0 => 0.0,
        1 => 1.0,
        k => 0.2 + 0.35 / ((k - 1) as f64).powf(0.9),
    }
}

/// Capture probability under Rayleigh fading: the strongest of `k`
/// same-cell signals must exceed the sum of the rest by the SIR threshold
/// `z0` (linear). This uses the classical result for i.i.d. exponential
/// received powers: the probability that one designated signal beats the
/// other `k-1` combined is `(1 + z0)^-(k-1)`; any of the `k` may win.
pub fn rayleigh_capture(k: usize, z0: f64) -> f64 {
    match k {
        0 => 0.0,
        1 => 1.0,
        k => (k as f64) * (1.0 + z0).powi(-((k - 1) as i32)),
    }
}

/// Runtime capture model selector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Capture {
    /// Collisions always destroy all frames involved.
    None,
    /// The calibrated Zorzi–Rao curve (the paper's simulation setting:
    /// "the probability of capturing a collided CTS frame was set
    /// according to \[23\]").
    #[default]
    ZorziRao,
    /// Rayleigh-fading capture with the given linear SIR threshold
    /// (10 dB ⇒ `z0 = 10.0`): a physically derived alternative to the
    /// calibrated curve.
    Rayleigh {
        /// Linear SIR threshold required for capture.
        z0: f64,
    },
}

impl Capture {
    /// Probability that the strongest of `k` simultaneous equal-length
    /// control frames is successfully decoded.
    pub fn capture_prob(&self, k: usize) -> f64 {
        match self {
            Capture::None => {
                if k <= 1 {
                    1.0
                } else {
                    0.0
                }
            }
            Capture::ZorziRao => zorzi_rao_capture(k),
            Capture::Rayleigh { z0 } => rayleigh_capture(k, *z0).min(1.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zorzi_rao_anchor_points() {
        assert_eq!(zorzi_rao_capture(1), 1.0);
        assert!((zorzi_rao_capture(2) - 0.55).abs() < 1e-12);
        // Paper: "drops to 0.3 at the presence of 5 nodes".
        assert!((zorzi_rao_capture(5) - 0.3).abs() < 0.02);
        // "then further drops to 0.2".
        assert!((zorzi_rao_capture(50) - 0.2).abs() < 0.02);
    }

    #[test]
    fn zorzi_rao_is_monotone_decreasing() {
        for k in 1..40 {
            assert!(zorzi_rao_capture(k) >= zorzi_rao_capture(k + 1));
        }
    }

    #[test]
    fn zorzi_rao_is_a_probability() {
        for k in 0..100 {
            let c = zorzi_rao_capture(k);
            assert!((0.0..=1.0).contains(&c), "C_{k} = {c} out of range");
        }
    }

    #[test]
    fn rayleigh_two_signals_at_10db() {
        // 2 signals, z0 = 10: 2 / 11 ≈ 0.18.
        assert!((rayleigh_capture(2, 10.0) - 2.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn rayleigh_decays_fast() {
        assert!(rayleigh_capture(5, 10.0) < 0.001);
    }

    #[test]
    fn capture_none_only_passes_singletons() {
        assert_eq!(Capture::None.capture_prob(1), 1.0);
        assert_eq!(Capture::None.capture_prob(2), 0.0);
        assert_eq!(Capture::None.capture_prob(7), 0.0);
    }

    #[test]
    fn capture_selector_matches_curves() {
        assert_eq!(Capture::ZorziRao.capture_prob(3), zorzi_rao_capture(3));
        assert_eq!(
            Capture::Rayleigh { z0: 10.0 }.capture_prob(2),
            rayleigh_capture(2, 10.0)
        );
    }

    #[test]
    fn default_is_zorzi_rao() {
        assert_eq!(Capture::default(), Capture::ZorziRao);
    }
}

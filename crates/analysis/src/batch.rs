//! Expected **total** number of contention phases per multicast message
//! (paper Section 6, Figure 5).
//!
//! Model: in each BMMM batch round, every remaining receiver is served
//! successfully with independent probability `p`; the round consumes one
//! contention phase; unserved receivers roll into the next round. The
//! paper derives the recursion
//!
//! ```text
//! f_n = 1 + Σ_{k=1}^{n} C(n,k) p^k (1−p)^{n−k} · f_{n−k}   (f_0 = 0)
//! ```
//!
//! where the `k = 0` term (all fail) is folded onto the left side:
//! `f_n · (1 − (1−p)ⁿ) = 1 + Σ_{k=1}^{n−1} C(n,k) pᵏ (1−p)^{n−k} f_{n−k}`.
//! The paper checks `f_1 = 1/p` and `f_2 = (3−2p)/(p(2−p))`; so do our
//! tests.
//!
//! For LAMM no closed form is given; we estimate it by Monte Carlo over
//! the geometry (receivers uniform in the sender's coverage disk), using
//! the real `MCS`/`UPDATE` procedures from `rmm-geom` and the same
//! per-receiver success probability `p`.

use crate::combinatorics::binomial;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmm_geom::{min_cover_set, update_uncovered, Point};

/// Expected total contention phases for a BMMM multicast with `n`
/// receivers and per-round per-receiver success probability `p`.
///
/// ```
/// use rmm_analysis::bmmm_expected_total_phases;
/// // The paper's printed closed forms: f₁ = 1/p, f₂ = (3−2p)/(p(2−p)).
/// let p = 0.9;
/// assert!((bmmm_expected_total_phases(1, p) - 1.0 / p).abs() < 1e-12);
/// let f2 = (3.0 - 2.0 * p) / (p * (2.0 - p));
/// assert!((bmmm_expected_total_phases(2, p) - f2).abs() < 1e-12);
/// ```
pub fn bmmm_expected_total_phases(n: usize, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p) && p > 0.0, "p must be in (0, 1]");
    let mut f = vec![0.0f64; n + 1];
    for m in 1..=n {
        let qm = (1.0 - p).powi(m as i32);
        let mut acc = 1.0;
        for k in 1..m {
            acc += binomial(m, k) * p.powi(k as i32) * (1.0 - p).powi((m - k) as i32) * f[m - k];
        }
        f[m] = acc / (1.0 - qm);
    }
    f[n]
}

/// Expected total contention phases for BMW: each of the `n` receivers
/// needs its own geometrically-distributed number of phases with success
/// probability `p` per phase, so the total is `n / p`.
pub fn bmw_expected_total_phases(n: usize, p: f64) -> f64 {
    n as f64 / p
}

/// Monte-Carlo estimate of the expected total contention phases for a
/// LAMM multicast: `trials` random receiver placements (uniform in the
/// sender's disk of radius `r`), batch rounds polling `MCS(S)` with
/// per-receiver success probability `p`, closing covered receivers with
/// `UPDATE`.
pub fn lamm_expected_total_phases(n: usize, p: f64, r: f64, trials: usize, seed: u64) -> f64 {
    assert!(p > 0.0);
    if n == 0 {
        return 0.0;
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut total = 0.0f64;
    for _ in 0..trials {
        // Sender at the origin; receivers uniform in its disk.
        let pts: Vec<Point> = (0..n)
            .map(|_| loop {
                let x = rng.random_range(-r..=r);
                let y = rng.random_range(-r..=r);
                if x * x + y * y <= r * r {
                    break Point::new(x, y);
                }
            })
            .collect();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut phases = 0u32;
        let mut guard = 0;
        while !remaining.is_empty() {
            phases += 1;
            guard += 1;
            assert!(guard < 10_000, "LAMM Monte Carlo failed to converge");
            let batch = min_cover_set(&pts, &remaining, r);
            let acked: Vec<usize> = batch
                .iter()
                .copied()
                .filter(|_| rng.random::<f64>() < p)
                .collect();
            remaining = update_uncovered(&pts, &remaining, &acked, r);
        }
        total += f64::from(phases);
    }
    total / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f1_is_one_over_p() {
        for p in [0.3, 0.5, 0.9] {
            assert!((bmmm_expected_total_phases(1, p) - 1.0 / p).abs() < 1e-12);
        }
    }

    #[test]
    fn f2_matches_paper_closed_form() {
        // Paper: f_2 = (3 − 2p) / (p (2 − p)).
        for p in [0.3, 0.5, 0.9] {
            let expect = (3.0 - 2.0 * p) / (p * (2.0 - p));
            assert!(
                (bmmm_expected_total_phases(2, p) - expect).abs() < 1e-12,
                "p={p}"
            );
        }
    }

    #[test]
    fn f3_satisfies_paper_recursion() {
        // Paper: f_3 = 1 + C(3,1)p²(1−p)f_1 + C(3,2)p(1−p)²f_2 + (1−p)³f_3.
        let p = 0.9;
        let f1 = bmmm_expected_total_phases(1, p);
        let f2 = bmmm_expected_total_phases(2, p);
        let f3 = bmmm_expected_total_phases(3, p);
        let rhs = 1.0
            + 3.0 * p * p * (1.0 - p) * f1
            + 3.0 * p * (1.0 - p) * (1.0 - p) * f2
            + (1.0 - p).powi(3) * f3;
        assert!((f3 - rhs).abs() < 1e-9);
    }

    #[test]
    fn bmmm_is_sublinear_in_n() {
        // Figure 5's headline: the curve grows far slower than BMW's line.
        let p = 0.9;
        for n in 5..=20 {
            let f = bmmm_expected_total_phases(n, p);
            let bmw = bmw_expected_total_phases(n, p);
            assert!(f < bmw / 2.0, "n={n}: BMMM {f} vs BMW {bmw}");
        }
        // And it is monotone in n.
        let mut prev = 0.0;
        for n in 1..=20 {
            let f = bmmm_expected_total_phases(n, 0.9);
            assert!(f > prev);
            prev = f;
        }
    }

    #[test]
    fn high_p_needs_about_one_phase() {
        let f = bmmm_expected_total_phases(10, 0.999);
        assert!(f < 1.05, "{f}");
    }

    #[test]
    fn bmw_is_linear() {
        assert_eq!(bmw_expected_total_phases(10, 0.9), 10.0 / 0.9);
        assert_eq!(bmw_expected_total_phases(0, 0.9), 0.0);
    }

    #[test]
    fn lamm_uses_no_more_phases_than_bmmm() {
        // LAMM closes receivers by coverage, so with the same p it needs
        // at most as many rounds (statistically) as BMMM.
        let p = 0.9;
        for n in [4usize, 5, 8, 10, 15, 20] {
            let lamm = lamm_expected_total_phases(n, p, 0.2, 400, 7);
            let bmmm = bmmm_expected_total_phases(n, p);
            assert!(lamm <= bmmm * 1.05, "n={n}: LAMM {lamm} vs BMMM {bmmm}");
        }
    }

    #[test]
    fn lamm_zero_receivers_is_zero() {
        assert_eq!(lamm_expected_total_phases(0, 0.9, 0.2, 10, 1), 0.0);
    }

    #[test]
    fn lamm_single_receiver_matches_geometric() {
        let p = 0.8;
        let est = lamm_expected_total_phases(1, p, 0.2, 4000, 11);
        assert!((est - 1.0 / p).abs() < 0.08, "{est}");
    }
}

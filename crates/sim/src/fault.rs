//! Deterministic fault injection: scheduled per-node radio faults and
//! the Gilbert–Elliott burst-error channel.
//!
//! Both impairments are *additive* to the healthy simulation: a run with
//! an empty [`FaultPlan`] and no burst model configured draws from
//! exactly the same RNG streams as before and is bit-identical to a run
//! on a build without this module. Faults are pure predicates of
//! `(node, slot)` enforced by the engine (so the naive and event-horizon
//! steppers agree by construction), and the burst chain advances only on
//! reception attempts, from its own dedicated RNG stream.
//!
//! The one non-predicate fault is [`FaultKind::Reboot`]: the blackout
//! window is a pure predicate like the others, but when it ends the
//! engine cold-resets the station's MAC at the top of the recovery slot
//! (and the event-horizon stepper clamps its skip target to that slot),
//! so both steppers still agree by construction.

use crate::ids::{NodeId, Slot};
use rand::rngs::SmallRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The kind of an injected node fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The node's radio dies at `from` and never recovers: nothing it
    /// sends reaches the air and it decodes nothing. `until` is ignored.
    Crash,
    /// Receive path dead during the window: the node decodes no frames.
    /// Carrier sense still works — deafness models a broken decoder (or
    /// persistent in-band interference), not a missing antenna.
    Deaf,
    /// Transmit path dead during the window: the node's frames are
    /// silently dropped before they reach the air. The node itself still
    /// believes it transmitted (a dead power amplifier is invisible to
    /// the MAC), so its counters and half-duplex bookkeeping advance.
    TxMute,
    /// Crash-with-recovery: the radio is fully dead (no rx, no tx)
    /// during `[from, until)`, and at `until` the station comes back
    /// with its MAC **cold-reset**. The engine performs the reset (via
    /// [`crate::Station::on_reset`]) at the top of slot `until`, before
    /// anything else happens in that slot, so the naive and
    /// event-horizon steppers agree by construction. `until` is
    /// mandatory — a reboot that never completes is a [`FaultKind::Crash`].
    Reboot,
}

impl FaultKind {
    fn tag(self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Deaf => "deaf",
            FaultKind::TxMute => "mute",
            FaultKind::Reboot => "reboot",
        }
    }
}

/// One scheduled fault: `kind` afflicts `node` during `[from, until)`
/// (`until = None` means forever; `Crash` is always forever).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeFault {
    /// Afflicted station.
    pub node: NodeId,
    /// What breaks.
    pub kind: FaultKind,
    /// First faulty slot.
    pub from: Slot,
    /// One past the last faulty slot; `None` = never recovers.
    pub until: Option<Slot>,
}

impl NodeFault {
    /// One past the last faulty slot, `None` meaning forever. `Crash`
    /// is forever by definition, whatever its `until` field says.
    fn end(&self) -> Option<Slot> {
        match self.kind {
            FaultKind::Crash => None,
            _ => self.until,
        }
    }

    fn active_at(&self, slot: Slot) -> bool {
        slot >= self.from && self.end().is_none_or(|u| slot < u)
    }

    /// Whether the fault is active anywhere in `[from, to)`.
    fn active_during(&self, from: Slot, to: Slot) -> bool {
        to > self.from && self.end().is_none_or(|u| from < u)
    }

    /// Whether two faults' active windows intersect.
    fn overlaps(&self, other: &NodeFault) -> bool {
        self.end().is_none_or(|u| other.from < u) && other.end().is_none_or(|u| self.from < u)
    }

    /// Renders this fault in the [`FaultPlan::parse`] entry syntax.
    fn entry_spec(&self) -> String {
        match (self.kind, self.until) {
            (FaultKind::Crash, _) | (_, None) => {
                format!("{}:{}@{}", self.kind.tag(), self.node.0, self.from)
            }
            (_, Some(u)) => format!("{}:{}@{}..{}", self.kind.tag(), self.node.0, self.from, u),
        }
    }
}

/// A [`FaultPlan::parse`] error, carrying the byte span of the
/// offending token within the original spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Byte offset of the offending token in the spec string.
    pub offset: usize,
    /// Byte length of the offending token (at least 1).
    pub len: usize,
    /// What went wrong.
    pub msg: String,
}

impl SpecError {
    /// Builds an error whose span is `token`, which must be a subslice
    /// of `spec` (as every token produced by a `split`-based parser is).
    /// Shared by the fault and churn spec parsers.
    pub fn at(spec: &str, token: &str, msg: impl Into<String>) -> SpecError {
        let offset = (token.as_ptr() as usize).saturating_sub(spec.as_ptr() as usize);
        SpecError {
            offset: offset.min(spec.len()),
            len: token.len().max(1),
            msg: msg.into(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "at {}..{}: {}",
            self.offset,
            self.offset + self.len,
            self.msg
        )
    }
}

impl std::error::Error for SpecError {}

/// One `kind:node@when` entry of a fault or churn spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecEntry<'a, K> {
    /// The entry's kind, from the caller's table.
    pub kind: K,
    /// The node the entry names.
    pub node: NodeId,
    /// The text after `@`, left for the caller's own grammar. It is a
    /// subslice of the spec, so [`SpecError::at`] spans it.
    pub when: &'a str,
}

/// Reads a `;`-separated spec of `kind:node@when` entries, the grammar
/// [`FaultPlan::parse`] and the workload's churn spec share. Each entry is
/// trimmed and empty ones are skipped; its kind is looked up in `kinds`
/// and its node id parsed, with `noun` naming the spec in messages.
/// Entries are read lazily, so a caller that reads each `when` as it
/// comes reports the first bad entry in spec order.
pub fn spec_entries<'a, K: Copy>(
    spec: &'a str,
    noun: &'a str,
    kinds: &'a [(&'a str, K)],
) -> impl Iterator<Item = Result<SpecEntry<'a, K>, SpecError>> + 'a {
    spec.split(';')
        .map(str::trim)
        .filter(|entry| !entry.is_empty())
        .map(move |entry| {
            let (kind_s, rest) = entry.split_once(':').ok_or_else(|| {
                SpecError::at(
                    spec,
                    entry,
                    format!("{noun} entry `{entry}` missing `kind:`"),
                )
            })?;
            let Some(&(_, kind)) = kinds.iter().find(|(name, _)| *name == kind_s) else {
                let names: Vec<&str> = kinds.iter().map(|(name, _)| *name).collect();
                let (last, init) = names.split_last().expect("a spec has kinds");
                let comma = if init.len() > 1 { "," } else { "" };
                return Err(SpecError::at(
                    spec,
                    kind_s,
                    format!(
                        "unknown {noun} kind `{kind_s}` (expected {}{comma} or {last})",
                        init.join(", ")
                    ),
                ));
            };
            let (node_s, when) = rest.split_once('@').ok_or_else(|| {
                SpecError::at(
                    spec,
                    entry,
                    format!("{noun} entry `{entry}` missing `@slot`"),
                )
            })?;
            let node = node_s
                .parse()
                .map_err(|_| SpecError::at(spec, node_s, format!("bad node id `{node_s}`")))?;
            Ok(SpecEntry {
                kind,
                node: NodeId(node),
                when,
            })
        })
}

/// Parses `token`, a subslice of `spec`, as a slot number.
pub fn spec_slot(spec: &str, token: &str) -> Result<Slot, SpecError> {
    token
        .parse()
        .map_err(|_| SpecError::at(spec, token, format!("bad slot `{token}`")))
}

/// A deterministic schedule of node faults, applied by the engine.
///
/// The plan is a pure function of `(node, slot)`: it draws no randomness
/// at simulation time, so fast and naive stepping see identical fault
/// states, and an empty plan changes nothing at all.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub faults: Vec<NodeFault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Adds a permanent crash of `node` starting at `at`.
    pub fn crash(mut self, node: NodeId, at: Slot) -> Self {
        self.faults.push(NodeFault {
            node,
            kind: FaultKind::Crash,
            from: at,
            until: None,
        });
        self
    }

    /// Adds a deafness window `[from, until)` for `node`.
    pub fn deaf(mut self, node: NodeId, from: Slot, until: Slot) -> Self {
        self.faults.push(NodeFault {
            node,
            kind: FaultKind::Deaf,
            from,
            until: Some(until),
        });
        self
    }

    /// Adds a TX-mute window `[from, until)` for `node`.
    pub fn mute(mut self, node: NodeId, from: Slot, until: Slot) -> Self {
        self.faults.push(NodeFault {
            node,
            kind: FaultKind::TxMute,
            from,
            until: Some(until),
        });
        self
    }

    /// Adds a reboot of `node`: radio fully dead during `[from, until)`,
    /// MAC cold-reset by the engine at `until`.
    pub fn reboot(mut self, node: NodeId, from: Slot, until: Slot) -> Self {
        assert!(until > from, "reboot window must be non-empty");
        self.faults.push(NodeFault {
            node,
            kind: FaultKind::Reboot,
            from,
            until: Some(until),
        });
        self
    }

    /// Whether `node` cannot decode frames at `slot` (crashed, deaf, or
    /// mid-reboot).
    pub fn blocks_rx(&self, node: NodeId, slot: Slot) -> bool {
        self.faults.iter().any(|f| {
            f.node == node
                && matches!(
                    f.kind,
                    FaultKind::Crash | FaultKind::Deaf | FaultKind::Reboot
                )
                && f.active_at(slot)
        })
    }

    /// Whether frames sent by `node` at `slot` are dropped before the
    /// air (crashed, TX-muted, or mid-reboot).
    pub fn blocks_tx(&self, node: NodeId, slot: Slot) -> bool {
        self.faults.iter().any(|f| {
            f.node == node
                && matches!(
                    f.kind,
                    FaultKind::Crash | FaultKind::TxMute | FaultKind::Reboot
                )
                && f.active_at(slot)
        })
    }

    /// Fills word-packed per-station fault masks for `slot`: bit `i` of
    /// `rx_blocked` / `tx_blocked` is set iff [`FaultPlan::blocks_rx`] /
    /// [`FaultPlan::blocks_tx`] holds for `NodeId(i)`. One pass over the
    /// fault list per slot, so the engine's per-reception and per-frame
    /// checks are bit tests instead of list scans. The caller supplies
    /// the buffers sized to `n_nodes.div_ceil(64)` words.
    pub fn fill_masks(&self, slot: Slot, rx_blocked: &mut [u64], tx_blocked: &mut [u64]) {
        rx_blocked.fill(0);
        tx_blocked.fill(0);
        for f in &self.faults {
            if !f.active_at(slot) {
                continue;
            }
            let (w, b) = (f.node.index() >> 6, 1u64 << (f.node.index() & 63));
            match f.kind {
                FaultKind::Crash | FaultKind::Reboot => {
                    rx_blocked[w] |= b;
                    tx_blocked[w] |= b;
                }
                FaultKind::Deaf => rx_blocked[w] |= b,
                FaultKind::TxMute => tx_blocked[w] |= b,
            }
        }
    }

    /// Whether the plan schedules any reboot (cheap gate so the engine
    /// pays nothing for reboot bookkeeping when there are none).
    pub fn has_reboots(&self) -> bool {
        self.faults.iter().any(|f| f.kind == FaultKind::Reboot)
    }

    /// Nodes whose reboot window ends exactly at `slot` — stations the
    /// engine must cold-reset at the top of `slot`, before anything else
    /// happens in it.
    pub fn reboots_completing_at(&self, slot: Slot) -> impl Iterator<Item = NodeId> + '_ {
        self.faults
            .iter()
            .filter(move |f| f.kind == FaultKind::Reboot && f.until == Some(slot))
            .map(|f| f.node)
    }

    /// The earliest reboot completion at or after `slot`, if any. The
    /// event-horizon stepper clamps its skip target to this so the reset
    /// slot is actually stepped, keeping naive and fast stepping in
    /// agreement by construction.
    pub fn next_reboot_completion(&self, slot: Slot) -> Option<Slot> {
        self.faults
            .iter()
            .filter(|f| f.kind == FaultKind::Reboot)
            .filter_map(|f| f.until)
            .filter(|&u| u >= slot)
            .min()
    }

    /// Validates the plan against a network of `n_nodes` stations:
    /// every `NodeId` must be in range, every reboot must carry a
    /// recovery slot, windows must be non-empty, and no two same-kind
    /// faults on one node may overlap (an overlapping pair is almost
    /// always a schedule typo, and it would make reboot-completion
    /// bookkeeping ambiguous).
    pub fn validate(&self, n_nodes: usize) -> Result<(), String> {
        for f in &self.faults {
            if f.node.index() >= n_nodes {
                return Err(format!(
                    "fault `{}` names node {} but the network has {} nodes (ids 0..={})",
                    f.entry_spec(),
                    f.node.0,
                    n_nodes,
                    n_nodes.saturating_sub(1)
                ));
            }
            if f.kind == FaultKind::Reboot && f.until.is_none() {
                return Err(format!(
                    "reboot of node {} at {} has no recovery slot; a permanent outage is `crash:{}@{}`",
                    f.node.0, f.from, f.node.0, f.from
                ));
            }
            if f.until.is_some_and(|u| u <= f.from) {
                return Err(format!("empty fault window `{}`", f.entry_spec()));
            }
        }
        for (i, a) in self.faults.iter().enumerate() {
            for b in &self.faults[i + 1..] {
                if a.node == b.node && a.kind == b.kind && a.overlaps(b) {
                    return Err(format!(
                        "overlapping {} windows on node {}: `{}` and `{}`",
                        a.kind.tag(),
                        a.node.0,
                        a.entry_spec(),
                        b.entry_spec()
                    ));
                }
            }
        }
        Ok(())
    }

    /// Whether `node` is crashed at `slot`.
    pub fn crashed(&self, node: NodeId, slot: Slot) -> bool {
        self.faults
            .iter()
            .any(|f| f.node == node && f.kind == FaultKind::Crash && f.active_at(slot))
    }

    /// Whether any fault impairs `node` at any point during `[from, to)`.
    /// Used to split delivery metrics into reachable vs. faulted
    /// receivers: a receiver counts as reachable for a message only if it
    /// was healthy for the message's whole service window.
    pub fn impaired_during(&self, node: NodeId, from: Slot, to: Slot) -> bool {
        self.faults
            .iter()
            .any(|f| f.node == node && f.active_during(from, to))
    }

    /// A plan crashing `count` distinct nodes drawn from `1..n_nodes`
    /// (node 0 is spared so at least one healthy sender remains) at slot
    /// `at`, using a dedicated RNG stream derived from `seed`. The same
    /// seed always yields the same victims.
    pub fn random_crashes(n_nodes: usize, count: usize, at: Slot, seed: u64) -> Self {
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6661_756c_7473); // "faults"
        let mut victims: Vec<u32> = Vec::new();
        let pool = n_nodes.saturating_sub(1);
        let count = count.min(pool);
        while victims.len() < count {
            let v = rng.random_range(1..n_nodes) as u32;
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        victims.sort_unstable();
        let mut plan = FaultPlan::new();
        for v in victims {
            plan = plan.crash(NodeId(v), at);
        }
        plan
    }

    /// Parses a semicolon-separated fault spec, e.g.
    /// `crash:5@1000;deaf:3@200..800;reboot:7@0..500`. Each entry is
    /// `kind:node@from` (permanent: crash, or deaf/mute with no window
    /// end) or `kind:node@from..until` (windowed). `crash` takes no
    /// window — a crash that recovers is spelled `reboot` — and `reboot`
    /// requires one. Errors carry the byte span of the offending token
    /// in `spec`.
    pub fn parse(spec: &str) -> Result<Self, SpecError> {
        const KINDS: [(&str, FaultKind); 4] = [
            ("crash", FaultKind::Crash),
            ("deaf", FaultKind::Deaf),
            ("mute", FaultKind::TxMute),
            ("reboot", FaultKind::Reboot),
        ];
        let mut plan = FaultPlan::new();
        for entry in spec_entries(spec, "fault", &KINDS) {
            let SpecEntry {
                kind,
                node,
                when: when_s,
            } = entry?;
            let (from, until) = match when_s.split_once("..") {
                Some((a, b)) => (spec_slot(spec, a)?, Some(spec_slot(spec, b)?)),
                None => (spec_slot(spec, when_s)?, None),
            };
            if kind == FaultKind::Crash {
                if let Some(u) = until {
                    return Err(SpecError::at(
                        spec,
                        when_s,
                        format!(
                            "crash is permanent and takes no `..until` window; \
                             a crash that recovers is `reboot:{}@{from}..{u}`",
                            node.0
                        ),
                    ));
                }
            }
            if kind == FaultKind::Reboot && until.is_none() {
                return Err(SpecError::at(
                    spec,
                    when_s,
                    format!(
                        "reboot needs a recovery slot: `reboot:{0}@{from}..until` \
                         (a permanent outage is `crash:{0}@{from}`)",
                        node.0
                    ),
                ));
            }
            if until.is_some_and(|u| u <= from) {
                return Err(SpecError::at(
                    spec,
                    when_s,
                    format!("empty fault window `{when_s}`"),
                ));
            }
            plan.faults.push(NodeFault {
                node,
                kind,
                from,
                until,
            });
        }
        Ok(plan)
    }

    /// Renders the plan back into the [`FaultPlan::parse`] spec syntax.
    pub fn spec(&self) -> String {
        self.faults
            .iter()
            .map(NodeFault::entry_spec)
            .collect::<Vec<_>>()
            .join(";")
    }
}

/// The two-state Gilbert–Elliott burst-loss model.
///
/// Each receiver carries an independent two-state Markov chain (Good /
/// Bad). The chain is stepped once per frame that would otherwise be
/// decoded at that receiver: first the state transitions (Good→Bad with
/// probability `p`, Bad→Good with probability `r`), then the frame is
/// lost iff the new state is Bad. The stationary loss rate is
/// `p / (p + r)`; mean burst length is `1 / r` frames.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GilbertElliott {
    /// P(Good → Bad) per reception attempt.
    pub p: f64,
    /// P(Bad → Good) per reception attempt.
    pub r: f64,
}

impl GilbertElliott {
    /// Creates a model, validating both probabilities.
    pub fn new(p: f64, r: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1]");
        assert!((0.0..=1.0).contains(&r), "r must be in [0, 1]");
        GilbertElliott { p, r }
    }

    /// The closed-form stationary loss rate `p / (p + r)` (0 when both
    /// probabilities are 0: the chain starts Good and never leaves).
    pub fn stationary_loss(&self) -> f64 {
        if self.p + self.r == 0.0 {
            0.0
        } else {
            self.p / (self.p + self.r)
        }
    }
}

/// One receiver's chain state. Starts in the Good state.
#[derive(Debug, Clone, Copy)]
pub struct BurstChain {
    model: GilbertElliott,
    bad: bool,
}

impl BurstChain {
    /// A fresh chain in the Good state.
    pub fn new(model: GilbertElliott) -> Self {
        BurstChain { model, bad: false }
    }

    /// Advances the chain by one reception attempt and returns whether
    /// the frame is lost (the chain is in the Bad state after the
    /// transition). Exactly one RNG draw per step, regardless of state.
    pub fn step(&mut self, rng: &mut SmallRng) -> bool {
        let u: f64 = rng.random();
        self.bad = if self.bad {
            u >= self.model.r
        } else {
            u < self.model.p
        };
        self.bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn stationary_loss_matches_closed_form() {
        for &(p, r) in &[(0.05, 0.25), (0.1, 0.1), (0.02, 0.5)] {
            let model = GilbertElliott::new(p, r);
            let mut chain = BurstChain::new(model);
            let mut rng = SmallRng::seed_from_u64(7);
            let trials = 200_000;
            let lost = (0..trials).filter(|_| chain.step(&mut rng)).count();
            let rate = lost as f64 / trials as f64;
            let want = model.stationary_loss();
            assert!(
                (rate - want).abs() < 0.01,
                "p={p} r={r}: empirical {rate} vs closed-form {want}"
            );
        }
    }

    #[test]
    fn degenerate_p_zero_never_loses() {
        let mut chain = BurstChain::new(GilbertElliott::new(0.0, 0.3));
        let mut rng = SmallRng::seed_from_u64(1);
        assert!((0..10_000).all(|_| !chain.step(&mut rng)));
        assert_eq!(GilbertElliott::new(0.0, 0.3).stationary_loss(), 0.0);
        assert_eq!(GilbertElliott::new(0.0, 0.0).stationary_loss(), 0.0);
    }

    #[test]
    fn degenerate_r_zero_absorbs_into_bad() {
        // With r = 0 the Bad state is absorbing: once the first G→B
        // transition fires, every later frame is lost.
        let mut chain = BurstChain::new(GilbertElliott::new(1.0, 0.0));
        let mut rng = SmallRng::seed_from_u64(1);
        assert!((0..1000).all(|_| chain.step(&mut rng)));
        assert_eq!(GilbertElliott::new(0.4, 0.0).stationary_loss(), 1.0);
    }

    #[test]
    fn fault_predicates_respect_windows() {
        let plan = FaultPlan::new()
            .crash(NodeId(1), 100)
            .deaf(NodeId(2), 10, 20)
            .mute(NodeId(3), 30, 40);
        // Crash: rx and tx blocked from 100 on, forever.
        assert!(!plan.blocks_rx(NodeId(1), 99));
        assert!(plan.blocks_rx(NodeId(1), 100));
        assert!(plan.blocks_tx(NodeId(1), 1_000_000));
        assert!(plan.crashed(NodeId(1), 100));
        assert!(!plan.crashed(NodeId(2), 15));
        // Deaf: rx blocked only inside the window; tx unaffected.
        assert!(plan.blocks_rx(NodeId(2), 10));
        assert!(plan.blocks_rx(NodeId(2), 19));
        assert!(!plan.blocks_rx(NodeId(2), 20));
        assert!(!plan.blocks_tx(NodeId(2), 15));
        // Mute: tx blocked only inside the window; rx unaffected.
        assert!(plan.blocks_tx(NodeId(3), 30));
        assert!(!plan.blocks_tx(NodeId(3), 40));
        assert!(!plan.blocks_rx(NodeId(3), 35));
        // Healthy node untouched.
        assert!(!plan.blocks_rx(NodeId(0), 500));
    }

    #[test]
    fn impaired_during_covers_window_overlap() {
        let plan = FaultPlan::new()
            .deaf(NodeId(2), 10, 20)
            .crash(NodeId(1), 50);
        assert!(!plan.impaired_during(NodeId(2), 0, 10));
        assert!(plan.impaired_during(NodeId(2), 0, 11));
        assert!(plan.impaired_during(NodeId(2), 19, 100));
        assert!(!plan.impaired_during(NodeId(2), 20, 100));
        assert!(!plan.impaired_during(NodeId(1), 0, 50));
        assert!(plan.impaired_during(NodeId(1), 49, 51));
        assert!(plan.impaired_during(NodeId(1), 1000, 1001));
    }

    #[test]
    fn spec_round_trips() {
        let plan = FaultPlan::parse("crash:5@1000; deaf:3@200..800;mute:7@0..500;reboot:2@10..90")
            .unwrap();
        assert_eq!(plan.faults.len(), 4);
        assert_eq!(
            plan.spec(),
            "crash:5@1000;deaf:3@200..800;mute:7@0..500;reboot:2@10..90"
        );
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("bogus:1@2").is_err());
        assert!(FaultPlan::parse("deaf:1").is_err());
        assert!(FaultPlan::parse("deaf:1@9..9").is_err());
        assert!(FaultPlan::parse("deaf:x@9").is_err());
    }

    #[test]
    fn parse_rejects_crash_window_pointing_at_reboot() {
        let err = FaultPlan::parse("crash:5@100..900").unwrap_err();
        assert!(
            err.msg.contains("reboot:5@100..900"),
            "error should spell out the reboot alternative: {err}"
        );
        let err = FaultPlan::parse("reboot:5@100").unwrap_err();
        assert!(
            err.msg.contains("recovery slot"),
            "windowless reboot should demand a recovery slot: {err}"
        );
    }

    #[test]
    fn parse_errors_carry_spans() {
        // The span points at the offending token, not the whole spec.
        let spec = "deaf:3@200..800;mute:xx@0..500";
        let err = FaultPlan::parse(spec).unwrap_err();
        assert_eq!(&spec[err.offset..err.offset + err.len], "xx");
        let spec = "crash:5@100..900";
        let err = FaultPlan::parse(spec).unwrap_err();
        assert_eq!(&spec[err.offset..err.offset + err.len], "100..900");
        let spec = "deaf:1@9..9;crash:2@5";
        let err = FaultPlan::parse(spec).unwrap_err();
        assert_eq!(&spec[err.offset..err.offset + err.len], "9..9");
        let spec = "wobble:1@2";
        let err = FaultPlan::parse(spec).unwrap_err();
        assert_eq!(&spec[err.offset..err.offset + err.len], "wobble");
        assert!(err.to_string().starts_with("at 0..6:"), "{err}");
    }

    #[test]
    fn reboot_blocks_both_paths_only_inside_window() {
        let plan = FaultPlan::new().reboot(NodeId(4), 50, 120);
        assert!(!plan.blocks_rx(NodeId(4), 49));
        assert!(!plan.blocks_tx(NodeId(4), 49));
        assert!(plan.blocks_rx(NodeId(4), 50));
        assert!(plan.blocks_tx(NodeId(4), 119));
        assert!(!plan.blocks_rx(NodeId(4), 120));
        assert!(!plan.blocks_tx(NodeId(4), 120));
        assert!(
            !plan.crashed(NodeId(4), 60),
            "a rebooting node is not crashed"
        );
        assert!(plan.impaired_during(NodeId(4), 0, 51));
        assert!(!plan.impaired_during(NodeId(4), 120, 500));
        assert!(plan.has_reboots());
        assert!(!FaultPlan::new().crash(NodeId(1), 5).has_reboots());
        assert_eq!(
            plan.reboots_completing_at(120).collect::<Vec<_>>(),
            vec![NodeId(4)]
        );
        assert_eq!(plan.reboots_completing_at(119).count(), 0);
        assert_eq!(plan.next_reboot_completion(0), Some(120));
        assert_eq!(plan.next_reboot_completion(120), Some(120));
        assert_eq!(plan.next_reboot_completion(121), None);
    }

    #[test]
    fn validate_rejects_bad_plans() {
        // Out-of-range node.
        let plan = FaultPlan::new().crash(NodeId(9), 10);
        assert!(plan.validate(10).is_ok());
        let err = plan.validate(9).unwrap_err();
        assert!(err.contains("node 9") && err.contains("ids 0..=8"), "{err}");
        // Overlapping same-kind windows on one node.
        let plan = FaultPlan::new()
            .deaf(NodeId(2), 10, 50)
            .deaf(NodeId(2), 40, 80);
        let err = plan.validate(10).unwrap_err();
        assert!(err.contains("overlapping deaf windows on node 2"), "{err}");
        // Two crashes on one node always overlap (both are forever).
        let plan = FaultPlan::new().crash(NodeId(1), 10).crash(NodeId(1), 900);
        assert!(plan.validate(10).is_err());
        // Same node, different kinds: fine. Same kind, disjoint: fine.
        assert!(FaultPlan::new()
            .deaf(NodeId(2), 10, 50)
            .mute(NodeId(2), 10, 50)
            .deaf(NodeId(2), 50, 80)
            .validate(10)
            .is_ok());
        // Reboot windows on distinct nodes: fine.
        assert!(FaultPlan::new()
            .reboot(NodeId(1), 10, 50)
            .reboot(NodeId(2), 10, 50)
            .validate(10)
            .is_ok());
        // A hand-built reboot with no recovery slot is rejected.
        let plan = FaultPlan {
            faults: vec![NodeFault {
                node: NodeId(1),
                kind: FaultKind::Reboot,
                from: 10,
                until: None,
            }],
        };
        let err = plan.validate(10).unwrap_err();
        assert!(err.contains("recovery slot"), "{err}");
        // Empty plan is always valid.
        assert!(FaultPlan::new().validate(0).is_ok());
    }

    #[test]
    fn random_crashes_are_deterministic_and_spare_node_zero() {
        let a = FaultPlan::random_crashes(20, 5, 300, 42);
        let b = FaultPlan::random_crashes(20, 5, 300, 42);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 5);
        assert!(a.faults.iter().all(|f| f.node.0 != 0));
        assert!(a.faults.iter().all(|f| f.kind == FaultKind::Crash));
        let c = FaultPlan::random_crashes(20, 5, 300, 43);
        assert_ne!(a, c, "different seed should pick different victims");
        // Requesting more crashes than candidates clamps.
        assert_eq!(FaultPlan::random_crashes(4, 10, 0, 1).faults.len(), 3);
    }

    #[test]
    fn serde_round_trip() {
        let plan = FaultPlan::new().crash(NodeId(1), 100).deaf(NodeId(2), 5, 9);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        let model = GilbertElliott::new(0.1, 0.4);
        let json = serde_json::to_string(&model).unwrap();
        let back: GilbertElliott = serde_json::from_str(&json).unwrap();
        assert_eq!(model, back);
    }
}

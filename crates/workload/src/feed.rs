//! The runner's two arrival feeds: each slot's arrivals drawn in the
//! slot loop, or drawn ahead on a spare core and handed over in
//! batches.
//!
//! `TrafficGen::tick` draws one value per station per slot, whether
//! or not the station acts, and reads nothing but the seed and the
//! topology. On a static topology a second generator with the same
//! seed over a copy of the topology therefore draws exactly the
//! arrivals the inline loop would, and can draw them on another core
//! while the engine simulates.

use crate::runner::RunSpec;
use crate::scenario::Scenario;
use crate::traffic::{Arrival, TrafficGen};
use rmm_sim::{Slot, Topology};
use std::iter::Peekable;
use std::sync::mpsc::{sync_channel, Receiver};
use std::thread::{Scope, ScopedJoinHandle};
use std::vec;

/// The fewest draws (`n_nodes × sim_slots`) a run must make to draw
/// them ahead: 2²⁰, about 1.05 M, or eight batches.
///
/// Set from lone cells timed both ways with a spare core on a 2-vCPU
/// host, 12 alternating pairs each (EXPERIMENTS.md § Performance,
/// "Traffic drawn ahead"). Small runs lost: 1.93× slower at 10⁴
/// draws, where the spawn and join outweigh the draws, and 1.43× at
/// 10⁵, a run of one batch, all of which the engine waits for before
/// its first slot. Cells of 100 stations held from 2·10⁵ to 10⁶ draws
/// (0.96–1.02×), and from 10⁶ up every shape held or gained
/// (10 000 × 100: 0.89×, 1 050 × 1 000: 0.77×, 100 × 30 000: 0.91×).
/// The gate is the first power of two above 10⁶.
pub const DRAW_AHEAD_MIN_DRAWS: u64 = 1 << 20;

/// Draws per batch the producer hands over, about a quarter of a
/// millisecond of drawing: a batch covers `BATCH_DRAWS / n_nodes`
/// slots, 13 at 10 000 stations.
///
/// A hand-over can wake a parked thread, which takes microseconds, so
/// a batch must hold more drawing than that. Batches of a fixed 16
/// slots made a 20-station run of 110 000 slots 2.0–3.3× slower drawn
/// ahead than inline: 16 of its slots take under a microsecond to draw.
const BATCH_DRAWS: u64 = 1 << 17;

/// Batches the producer may run ahead of the engine before it waits.
/// The producer draws faster than the engine steps, so the queue stays
/// full, and a deeper one would only hold more arrivals.
const QUEUE_BATCHES: usize = 4;

/// Whether [`run`](crate::run) would draw `scenario`'s traffic ahead
/// on another thread when called here: on a static topology
/// (`spec.mobility` is `None`), with at least
/// [`DRAW_AHEAD_MIN_DRAWS`] draws, and with a spare core
/// ([`rmm_fleet::spare_cores`] ≥ 1: the calling thread's share of the
/// host, so a full pool never spawns).
pub fn draws_ahead(scenario: &Scenario, spec: &RunSpec) -> bool {
    spec.mobility.is_none()
        && (scenario.n_nodes as u64).saturating_mul(scenario.sim_slots) >= DRAW_AHEAD_MIN_DRAWS
        && rmm_fleet::spare_cores() >= 1
}

/// The arrivals of every slot before `.0` not yet handed over, each
/// with its slot, in slot order.
type Batch = (Slot, Vec<(Slot, Arrival)>);

/// Where the slot loop takes each slot's arrivals from.
pub(crate) enum Feed<'scope> {
    /// Drawn in the loop, one `tick` per slot.
    Inline(TrafficGen),
    /// Drawn ahead by a producer thread, which hands its copy of the
    /// topology back when it is joined.
    Ahead {
        batches: Receiver<Batch>,
        producer: ScopedJoinHandle<'scope, Topology>,
        /// The first slot no received batch covers.
        through: Slot,
        /// The last received batch's arrivals not yet taken.
        pending: Peekable<vec::IntoIter<(Slot, Arrival)>>,
    },
}

impl<'scope> Feed<'scope> {
    /// The feed for one run over `topo`: a producer spawned in `scope`
    /// when [`draws_ahead`] says so, else the inline generator.
    pub(crate) fn new(
        scope: &'scope Scope<'scope, '_>,
        scenario: &Scenario,
        spec: &RunSpec,
        seed: u64,
        topo: &Topology,
    ) -> Feed<'scope> {
        let mut traffic = TrafficGen::new(scenario.msg_rate, scenario.mix, seed);
        if !draws_ahead(scenario, spec) {
            return Feed::Inline(traffic);
        }
        let (tx, batches) = sync_channel(QUEUE_BATCHES);
        let (topo, slots) = (topo.clone(), scenario.sim_slots);
        let every = (BATCH_DRAWS / scenario.n_nodes as u64).max(1);
        let producer = scope.spawn(move || {
            let (mut drawn, mut batch) = (Vec::new(), Vec::new());
            for t in 0..slots {
                traffic.tick(&topo, t, &mut drawn);
                batch.extend(drawn.drain(..).map(|a| (t, a)));
                // A failed send means the run stopped early (it
                // panicked and dropped the receiver): stop drawing.
                if ((t + 1) % every == 0 || t + 1 == slots)
                    && tx.send((t + 1, std::mem::take(&mut batch))).is_err()
                {
                    break;
                }
            }
            topo
        });
        Feed::Ahead {
            batches,
            producer,
            through: 0,
            pending: Vec::new().into_iter().peekable(),
        }
    }

    /// Puts slot `t`'s arrivals in `out`, in station order: drawn now
    /// over `view`, or taken from the producer's batches. Slots must
    /// come in order, each once.
    pub(crate) fn next(&mut self, view: &Topology, t: Slot, out: &mut Vec<Arrival>) {
        match self {
            Feed::Inline(traffic) => traffic.tick(view, t, out),
            Feed::Ahead {
                batches,
                through,
                pending,
                ..
            } => {
                out.clear();
                while t >= *through {
                    let (until, batch) = batches.recv().expect("the traffic producer stopped");
                    *through = until;
                    *pending = batch.into_iter().peekable();
                }
                while let Some((_, a)) = pending.next_if(|&(s, _)| s == t) {
                    out.push(a);
                }
            }
        }
    }

    /// Joins the producer, if there is one, and frees its copy of the
    /// topology here.
    ///
    /// The scope's own wait ends when the producer's closure returns, a
    /// moment before the thread exits and hands its malloc arena back;
    /// a producer spawned by the next run could race that hand-back and
    /// take a fresh arena, and peak memory would then depend on thread
    /// timing. `join` waits for the exit. The copy comes back through
    /// the join because freeing it on the producer, which finishes
    /// mid-run, left peak RSS about 6 MB higher over rounds of
    /// `scale_10k` cells.
    pub(crate) fn finish(self) {
        if let Feed::Ahead {
            batches, producer, ..
        } = self
        {
            drop(batches);
            match producer.join() {
                Ok(topo) => drop(topo),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    }
}

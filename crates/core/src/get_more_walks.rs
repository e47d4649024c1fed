//! `GET-MORE-WALKS` (Algorithm 2): replenish the short walks of a drained
//! connector.
//!
//! A connector `v` whose ledger holds no walk ([`crate::state::Ledger`])
//! launches `gmw_count` new walks of its own, with fresh `seq`s. The
//! walk token rides the first one (`Ride`): its endpoint continues the
//! walk instead of storing it, so the stitch waits for nothing. Its
//! length is drawn on the way — from step `lambda` on, a node ends the
//! ride with probability `1 / (2*lambda − step)`, which makes the length
//! uniform in `[lambda, 2*lambda − 1]` (Lemma 2.4) — since the token has
//! no word left for it; with fixed lengths every ride is `lambda` steps.
//! A recorded lane records each visit of the ride as it goes, like a
//! tail hop, so nothing replays it.
//!
//! The other walks are Phase 1's token ([`crate::short_walks`]): each
//! draws its length at launch, every node after the source logs its
//! arrival, and the endpoint stores it. So a replenished walk is stored
//! like any Phase-1 walk: it has its own id and can be replayed and
//! evicted by its trajectory. Its endpoint then sends a `Stored`
//! acknowledgement home backwards along the arrival log, as replay
//! does, and the walks enter `v`'s ledger together once all of them are
//! home. Until then every lane that reaches `v` in a later round waits:
//! a choice made while some walks were home and others were not would
//! depend on their trajectories. Lanes of the launch's own round stitch
//! as usual (no walk of it can be home), so lanes that start together at
//! a drained connector each launch at once. The run ends only once every
//! invocation is home.
//!
//! The paper aggregates the new walks into `(v, count)` pairs, one
//! message per edge per round, so an invocation costs `O(lambda)` rounds
//! however many walks it creates (Lemma 2.2). Per-token replenishment
//! gives that up: the tokens queue on the connector's edges. DESIGN.md
//! ("Algorithms") states the deviation and its measured price.
//!
//! This module is the replenishment role of the one Phase-2 protocol
//! ([`crate::StitchScheduler`]): launched by a stitch that drew nothing
//! at an uncapped connector, it handles `Gmw`, `Ride` and `Stored`.

#![deny(clippy::too_many_lines)]

use crate::short_walks::{self, ShortWalkMsg};
use crate::state::{StoredWalk, WalkId};
use crate::stitch_scheduler::{NodeCall, StitchMsg};
use crate::tail::{pack_walk, unpack_walk};
use drw_graph::NodeId;
use rand::Rng;

/// A node's `GET-MORE-WALKS` invocations in flight: those of one round,
/// and any its released lanes launched.
#[derive(Debug, Clone, Default)]
pub(crate) struct Launch {
    /// The round of the first invocation. Lanes that reach the node in a
    /// later round wait; those of this round stitch as usual, since no
    /// walk of it can have come home yet.
    pub(crate) round: u64,
    /// Stored walks whose acknowledgement is not home yet.
    unacked: u32,
    /// The stored walks' `(seq, len)`, entering the ledger together.
    fresh: Vec<(u32, u32)>,
    /// Lanes that reached this connector meanwhile, with the steps their
    /// walk stands at, in arrival order.
    pub(crate) waiting: Vec<(u32, u64)>,
}

/// A round's acknowledgements at one node, merged per source as
/// `(lane, walk, step, count)`: they go on as one message along the
/// arrival log of the walk with the fewest steps left, so however many
/// walks an invocation stores, each node passes at most one message home
/// per source and round.
pub(crate) type Acks = Vec<(u32, u64, u32, u32)>;

/// A stored replenishing walk on the wire.
fn gmw(t: ShortWalkMsg) -> StitchMsg {
    let walk = pack_walk(WalkId {
        source: t.source,
        seq: t.seq,
    });
    let (step, total) = (t.step, t.total);
    StitchMsg::Gmw { walk, step, total }
}

impl NodeCall<'_> {
    /// Replenishes this node, lane `w`'s drained connector, where the
    /// walk stands at `completed` steps (Algorithm 1, lines 7-10):
    /// `gmw_count` new walks from here, the first ridden by the token.
    pub(crate) fn launch_gmw(&mut self, w: u32, completed: u64) {
        let shared = self.shared;
        let count = shared.setup.gmw_count as u32;
        self.wave.tally.launches.push(w);
        let first = self.ws.ledger_mut().alloc_seqs(count as usize);
        let walk = pack_walk(WalkId {
            source: self.ctx.node() as u32,
            seq: first,
        });
        let ride = StitchMsg::Ride {
            walk,
            completed,
            step: 1,
        };
        self.ctx.send_random_neighbor(shared.mux(w, ride));
        if count == 1 {
            return;
        }
        if self.wave.launch.is_none() {
            self.wave.tally.launches_open += 1;
        }
        let round = self.ctx.round();
        let launch = self.wave.launch.get_or_insert_with(|| {
            Box::new(Launch {
                round,
                ..Launch::default()
            })
        });
        launch.unacked += count - 1;
        let length = (shared.setup.lambda, shared.setup.randomize_len);
        let (seqs, wrap) = (first + 1..first + count, |t| shared.mux(w, gmw(t)));
        short_walks::launch(&mut self.ctx, seqs, length, &mut launch.fresh, wrap);
    }

    /// The ride of lane `w`'s token on `walk`, its `step`-th node, from
    /// `from`; the walk stood at `completed` steps at its connector.
    /// Records the visit on a recorded lane, then ends the ride here —
    /// a stitch — or moves it on.
    pub(crate) fn on_ride(
        &mut self,
        w: u32,
        (walk, completed, step): (u64, u64, u32),
        from: NodeId,
    ) {
        let spec = self.shared.walks[w as usize];
        if spec.record {
            let pos = spec.pos_offset + completed + u64::from(step);
            self.ws.record_visit(pos, Some(from));
        }
        let (lambda, randomize) = (self.shared.setup.lambda, self.shared.setup.randomize_len);
        let ends = step >= lambda
            && (!randomize || self.ctx.rng().random_range(0..2 * lambda - step) == 0);
        if ends {
            let walk = StoredWalk {
                id: unpack_walk(walk),
                len: step,
            };
            return self.advance_walk(w, walk, completed, false);
        }
        let ride = StitchMsg::Ride {
            walk,
            completed,
            step: step + 1,
        };
        self.ctx.send_random_neighbor(self.shared.mux(w, ride));
    }

    /// A stored replenishing walk of lane `w`'s invocation, arrived from
    /// `from`: stored here at its end, which sends the acknowledgement
    /// home, else moved on.
    pub(crate) fn on_gmw(&mut self, w: u32, (walk, step, total): (u64, u32, u32), from: NodeId) {
        let id = unpack_walk(walk);
        let token = ShortWalkMsg {
            source: id.source,
            seq: id.seq,
            step,
            total,
        };
        let shared = self.shared;
        let wrap = |t| shared.mux(w, gmw(t));
        if short_walks::step(self.ws, &mut self.ctx, &token, from, wrap) {
            self.on_stored(w, (walk, total, 1));
        }
    }

    /// `count` acknowledgements of lane `w`'s walks at `walk`'s `step`-th
    /// node: merged into the round's batch for their source, or, at the
    /// source, counted — and with the last one in flight the walks enter
    /// the ledger and the waiting lanes stitch, in the order they came
    /// (a lane that finds the ledger dry launches at once, as in the
    /// round of a launch).
    pub(crate) fn on_stored(&mut self, w: u32, (walk, step, count): (u64, u32, u32)) {
        if step > 0 {
            let source = unpack_walk(walk).source;
            let same = |a: &&mut (u32, u64, u32, u32)| unpack_walk(a.1).source == source;
            match self.acks.iter_mut().find(same) {
                Some(a) if step < a.2 => *a = (w, walk, step, a.3 + count),
                Some(a) => a.3 += count,
                None => self.acks.push((w, walk, step, count)),
            }
            return;
        }
        let launch = self.wave.launch.as_mut();
        let launch = launch.expect("an acknowledgement comes home to its invocation");
        launch.unacked -= count;
        if launch.unacked > 0 {
            return;
        }
        let done = self.wave.launch.take().expect("checked above");
        self.ws.ledger_mut().unused.extend(done.fresh);
        self.wave.tally.launches_open -= 1;
        for (w, completed) in done.waiting {
            self.stitch(w, completed);
        }
    }

    /// Sends the call's merged acknowledgements one hop home each.
    pub(crate) fn flush_acks(&mut self) {
        for i in 0..self.acks.len() {
            let (w, walk, step, count) = self.acks[i];
            let pred = self.pred_on(unpack_walk(walk), step);
            let acks = StitchMsg::Stored {
                walk,
                step: step - 1,
                count,
            };
            self.send(pred, w, acks);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::state::{WalkId, WalkState};
    use crate::stitch_scheduler::tests::{phase1, setup, starved_stitch, stored};
    use crate::stitch_scheduler::StitchScheduler;
    use drw_congest::{EngineConfig, Runner};
    use drw_graph::generators;

    #[test]
    fn gmw_creates_exactly_count_walks_each_with_its_own_id() {
        let g = generators::torus2d(4, 4);
        let lambda = 6;
        let (state, out) = starved_stitch(&g, 3, 25, lambda, true, 1);
        assert_eq!(state.total_stored(), 24, "25 created, one stitched");
        let seg = out.walks[0].segments[0];
        let walks = stored(&state).map(|w| (w.id, w.len));
        let mut ids = std::collections::BTreeSet::new();
        for (id, len) in walks.chain([(seg.id, seg.len)]) {
            assert_eq!(id.source, 3, "the drained connector launched it");
            assert!(ids.insert(id), "{id:?} stored twice");
            assert!(len >= lambda && len < 2 * lambda, "len = {len}");
        }
        assert_eq!(ids.len(), 25);
        assert_eq!(state.nodes[3].unused().len(), 24, "all home, all ledgered");
        assert_eq!(state.ledger_mismatch(), None);
    }

    #[test]
    fn gmw_fixed_length_and_unit_lambda_modes() {
        // Fixed-length mode stops everything at lambda...
        let (state, _) = starved_stitch(&generators::cycle(10), 0, 30, 5, false, 4);
        assert_eq!(state.total_stored(), 29);
        assert!(stored(&state).all(|w| w.len == 5));
        // ...lambda = 1 yields unit walks...
        let (state, _) = starved_stitch(&generators::cycle(5), 2, 10, 1, true, 7);
        assert_eq!(state.total_stored(), 9);
        assert!(stored(&state).all(|w| w.len == 1));
        // ...and a zero count is clamped to the one walk the waiting
        // stitch needs (a replenishment of nothing would never resolve).
        let (state, _) = starved_stitch(&generators::path(4), 0, 0, 4, true, 8);
        assert_eq!(state.total_stored(), 0);
    }

    #[test]
    fn contended_source_replenishes_and_still_completes() {
        // Eight walks from the same source over a nearly-empty store:
        // the connector's ledger (one walk) drains at once, and the seven
        // lanes that find it dry in the same round each replenish.
        let g = generators::torus2d(3, 3);
        let mut runner = Runner::new(&g, EngineConfig::default(), 11);
        let mut state = WalkState::new(g.n());
        phase1(&mut runner, &mut state, 1, 6);

        let mut sched = StitchScheduler::new(&setup(6));
        for _ in 0..8 {
            sched.add_walk(0, 120);
        }
        let out = sched.run(&mut runner, &mut state).expect("contended run");
        assert_eq!(out.walks.len(), 8);
        assert!(
            out.gmw_invocations > 0,
            "a starved shared pool must trigger GET-MORE-WALKS"
        );
        for walk in &out.walks {
            assert!(!walk.segments.is_empty());
        }
        assert!(
            out.gmw_by_walk[1..].iter().all(|&g| g > 0),
            "{:?}",
            out.gmw_by_walk
        );
        assert_eq!(state.ledger_mismatch(), None);
    }

    #[test]
    fn a_drained_connector_rides_one_walk_and_stores_the_rest() {
        // No Phase 1 at all: every connector starts dry. Each invocation's
        // first walk carries the token and is logged nowhere; the rest are
        // stored, logged up to their owners and entered in their source's
        // ledger, and later stitches from that source take them.
        let g = generators::torus2d(4, 4);
        let mut runner = Runner::new(&g, EngineConfig::default(), 3);
        let mut state = WalkState::new(g.n());
        let mut sched = StitchScheduler::new(&setup(6));
        sched.add_walk(2, 100).add_walk(9, 100);
        let out = sched.run(&mut runner, &mut state).expect("starved run");
        let (mut ridden, mut taken) = (0, 0);
        for seg in out.walks.iter().flat_map(|w| &w.segments) {
            let log = &state.nodes[seg.owner].forward;
            match log.arrival(seg.id.source, seg.id.seq, seg.len) {
                Some(_) => taken += 1,
                None => ridden += 1,
            }
        }
        assert_eq!(ridden, out.gmw_invocations, "one ride per invocation");
        assert!(taken > 0, "no replenished walk was taken");
        assert_eq!(state.ledger_mismatch(), None);
        assert_eq!(state.replay_store_centrally(&g), state.total_stored());
    }

    #[test]
    fn a_lane_reaching_a_connector_in_flight_waits_for_its_walks() {
        // Lane 0 finds node 0 dry in round 0 and launches four walks: it
        // rides one, three go to be stored. Lane 1 reaches node 0 one round
        // later through a planted walk and finds the ledger still empty;
        // it waits, then takes one of the three instead of launching.
        let g = generators::torus2d(4, 4);
        let lambda = 4u32;
        let mut state = WalkState::new(g.n());
        state.store_walk(0, WalkId { source: 1, seq: 0 }, 5);
        let mut runner = Runner::new(&g, EngineConfig::default(), 8);
        let mut sched = StitchScheduler::new(&crate::StitchSetup {
            gmw_count: 4,
            ..setup(lambda)
        });
        sched
            .add_walk(0, 2 * u64::from(lambda))
            .add_walk(1, 5 + 2 * u64::from(lambda));
        let out = sched.run(&mut runner, &mut state).expect("waiting run");
        assert_eq!(out.gmw_by_walk, vec![1, 0], "lane 1 never launched");
        let segs = &out.walks[1].segments;
        assert_eq!((segs[0].connector, segs[0].owner), (1, 0));
        let took = segs[1];
        assert_eq!((took.connector, took.id.source), (0, 0));
        assert!((1..4).contains(&took.id.seq), "one of the stored three");
        let log = &state.nodes[took.owner].forward;
        assert!(log.arrival(0, took.id.seq, took.len).is_some());
        assert_eq!(state.ledger_mismatch(), None);
    }
}

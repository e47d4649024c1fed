//! `SAMPLE-DESTINATION` (Algorithm 3 of the paper): choose, uniformly at
//! random, one *unused* short walk of the connector `v`, and move the
//! walk token to that walk's endpoint.
//!
//! The paper runs one echo from `v` per sample: a wave builds a BFS
//! tree, a count-weighted reservoir comes back up it, and the choice
//! goes down to the owner — about `3·ecc(v)` rounds and `2m + depth`
//! messages. Here `v` makes the choice itself. Every short walk of `v`
//! was launched by `v`, which allocated its `seq` and drew its length,
//! and only a stitch whose connector is `v` ever uses it. So `v` keeps a
//! ledger of its unused `(seq, len)` ([`crate::state::Ledger`]) and
//! draws one uniformly — among those no longer than the cap, on a fitted
//! stitch. That is the law the echo's reservoir produced. A recorded
//! walk with under `4 * lambda` steps left instead draws among the walks
//! whose length `s` minimises `max(s, left - s)`, so its last segment's
//! replay, one hop a round, ends no later than the walk it runs beside.
//!
//! Only the owner is unknown to `v`, so `v` floods a `Claim` for the
//! walk: a node that holds it takes it and moves the walk on; every
//! other node forwards the first copy of a newer claim to all its
//! neighbours but the sender; nothing comes back. The owner is reached
//! in `dist(v, owner)` rounds. A flood that reaches every node costs
//! `2m − n + 1` messages; the owner forwards nothing, so a loss-free,
//! uncontended stitch costs `2m − n + 2 − deg(owner)` (DESIGN.md says why
//! `2m − n` is the floor), and none when `v` holds the walk itself.
//!
//! `v` takes its lanes one at a time, and a draw removes the entry, so
//! two walks never claim the same short walk and a claim cannot fail.
//! If nothing is drawn, `v` knows at once: an uncapped stitch runs
//! `GET-MORE-WALKS` ([`crate::get_more_walks`]), a fitted one goes down
//! its naive tail. A lane that reaches `v` while one of `v`'s
//! `GET-MORE-WALKS` invocations of an earlier round is in flight waits
//! for it, so no choice depends on when a launched walk came home. The choice reads lengths,
//! never trajectories, so the taken walk is still a simple random walk
//! of its length and the rest stay independent: exact.
//!
//! This module is the stitch role of the one Phase-2 protocol
//! ([`crate::StitchScheduler`]): the connector's draw and the handler of
//! `Claim`.

#![deny(clippy::too_many_lines)]

use crate::single_walk::Segment;
use crate::state::{StoredWalk, WalkId};
use crate::stitch_scheduler::{NodeCall, StitchMsg, NO_CAP};
use crate::tail::{self, pack_walk, unpack_walk};
use drw_graph::NodeId;

impl NodeCall<'_> {
    /// Stitches lane `w`'s walk, standing here at its connector at
    /// `completed` steps: draws one of this node's unused walks that
    /// fits, takes it if it is stored here and claims it otherwise.
    /// With none drawn, an uncapped stitch replenishes and a fitted one
    /// walks its tail. While an invocation of an earlier round is in
    /// flight, the lane waits for it.
    pub(crate) fn stitch(&mut self, w: u32, completed: u64) {
        if let Some(launch) = &mut self.wave.launch {
            if launch.round < self.ctx.round() {
                return launch.waiting.push((w, completed));
            }
        }
        let spec = self.shared.walks[w as usize];
        let lambda = self.shared.setup.lambda;
        let cap = spec.cap_at(completed, lambda);
        let zone = spec.replay_zone(completed, lambda);
        let drawn = (self.ws.ledger.as_mut()).and_then(|l| match zone {
            Some(left) => {
                l.draw_cheapest(|s| u64::from(s).max(left - u64::from(s)), self.ctx.rng())
            }
            None => l.draw(cap, self.ctx.rng()),
        });
        let Some((seq, _)) = drawn else {
            if cap == NO_CAP {
                self.wave.tally.connector_visits += 1;
                return self.launch_gmw(w, completed);
            }
            return tail::hop(self.shared, &mut self.ctx, w, spec.len - completed);
        };
        self.wave.tally.connector_visits += 1;
        let node = self.ctx.node();
        let id = WalkId {
            source: node as u32,
            seq,
        };
        match self.ws.take(id) {
            Some(walk) => self.advance_walk(w, walk, completed, true),
            None => {
                *self.claimed(w) = completed + 1;
                let claim = StitchMsg::Claim {
                    walk: pack_walk(id),
                    completed,
                };
                self.flood(w, claim, None);
            }
        }
    }

    /// Sends lane `w`'s `msg` to every neighbour but `except`, in order.
    fn flood(&mut self, w: u32, msg: StitchMsg, except: Option<NodeId>) {
        let node = self.ctx.node();
        for i in 0..self.ctx.graph().degree(node) {
            let v = self.ctx.graph().neighbor_at(node, i);
            if Some(v) != except {
                self.send(v, w, msg);
            }
        }
    }

    /// One past the position of lane `w`'s newest claim seen here,
    /// sizing the table for every walk first if this is the node's
    /// first claim.
    fn claimed(&mut self, w: u32) -> &mut u64 {
        let claimed = &mut self.wave.claimed;
        if claimed.is_empty() {
            claimed.resize(self.shared.walks.len(), 0);
        }
        &mut claimed[w as usize]
    }

    /// Lane `w`'s claim on `walk`, whose walk stands at `completed`
    /// steps, arrived from `from`: dropped unless newer than any seen
    /// here; then the owner takes the walk and moves it on, and any
    /// other node passes the claim on.
    pub(crate) fn on_claim(&mut self, w: u32, walk: u64, completed: u64, from: NodeId) {
        let claimed = self.claimed(w);
        if *claimed > completed {
            return; // a copy of this claim, or a straggler of an older one
        }
        *claimed = completed + 1;
        match self.ws.take(unpack_walk(walk)) {
            Some(taken) => self.advance_walk(w, taken, completed, true),
            None => self.flood(w, StitchMsg::Claim { walk, completed }, Some(from)),
        }
    }

    /// The end of a stitch at this node, the endpoint of `walk` (the
    /// walk stood at `completed` steps at its connector): records the
    /// segment, replays it on a recorded lane if it was `taken` from
    /// the store (a ridden walk recorded itself), and moves the walk on
    /// from here.
    pub(crate) fn advance_walk(&mut self, w: u32, walk: StoredWalk, completed: u64, taken: bool) {
        let seg = Segment {
            connector: walk.id.source as usize,
            id: walk.id,
            len: walk.len,
            start_pos: completed,
            owner: self.ctx.node(),
        };
        let tally = &mut self.wave.tally;
        tally.segments.push((w, seg));
        tally.last_stitch_round = self.ctx.round();
        if taken {
            self.replay_taken(w, &seg);
        }
        self.proceed(w, completed + u64::from(walk.len));
    }
}

#[cfg(test)]
mod tests {
    use crate::state::{WalkId, WalkState};
    use crate::stitch_scheduler::tests::{one_stitch, phase1, recorded_walk, setup, spread_tokens};
    use crate::stitch_scheduler::StitchScheduler;
    use drw_congest::{EngineConfig, Runner};
    use drw_graph::generators;

    /// Which of six stored walks of node 0 each of `trials` one-stitch
    /// walks from 0 took, over a fresh store each time.
    fn token_choices(trials: u64) -> Vec<u64> {
        let g = generators::torus2d(3, 3);
        let placements = [(0usize, 0u32), (2, 1), (4, 2), (4, 3), (7, 4), (8, 5)];
        let mut counts = vec![0u64; placements.len()];
        for trial in 0..trials {
            let mut state = WalkState::new(g.n());
            for &(owner, seq) in &placements {
                state.store_walk(owner, WalkId { source: 0, seq }, 5);
            }
            let out = one_stitch(&g, &mut state, 0, &setup(4), 1000 + trial);
            let seg = out.walks[0].segments[0];
            let idx = placements
                .iter()
                .position(|&(o, s)| o == seg.owner && s == seg.id.seq)
                .expect("chosen token is one of the placements");
            counts[idx] += 1;
            assert_eq!(state.total_stored(), 5, "the chosen token is deleted");
            assert_eq!(state.ledger_mismatch(), None, "and its ledger entry");
        }
        counts
    }

    #[test]
    fn sampling_is_uniform_over_tokens() {
        // The connector's ledger draw, chi-squared over the tokens.
        let counts = token_choices(1200);
        let test = drw_stats::chi_square_uniform(&counts);
        assert!(test.passes(0.001), "{test:?} counts={counts:?}");
    }

    #[test]
    #[should_panic(expected = "counts=")]
    fn a_connector_that_picks_its_lowest_seq_is_caught() {
        // Planted bug: the draw takes the lowest seq that fits. Every
        // stored walk is an independent walk, so no endpoint law shows
        // it; the choice's uniformity does. The engine runs the handlers
        // on this thread, which is the only one to see the flag.
        crate::state::LOWEST_SEQ.set(true);
        sampling_is_uniform_over_tokens();
    }

    #[test]
    fn tokens_of_other_sources_are_ignored() {
        let g = generators::cycle(8);
        let mut state = WalkState::new(g.n());
        state.store_walk(4, WalkId { source: 1, seq: 0 }, 5);
        state.store_walk(5, WalkId { source: 2, seq: 0 }, 5);
        let out = one_stitch(&g, &mut state, 2, &setup(5), 9);
        let seg = out.walks[0].segments[0];
        assert_eq!((seg.connector, seg.owner, seg.id.source), (2, 5, 2));
        assert_eq!(out.gmw_invocations, 0);
        assert_eq!(state.total_stored(), 1, "source-1 token untouched");
        assert_eq!(state.stored_from(4, 1), 1);
    }

    #[test]
    fn root_owned_token_works() {
        let g = generators::path(5);
        let mut state = WalkState::new(g.n());
        state.store_walk(2, WalkId { source: 2, seq: 0 }, 3);
        let out = one_stitch(&g, &mut state, 2, &setup(3), 4);
        assert_eq!(out.walks[0].segments[0].owner, 2);
        assert_eq!(out.connector_visits, vec![(2, 1)]);
        assert_eq!(state.total_stored(), 0);
    }

    #[test]
    fn a_claim_is_one_message_per_directed_edge_less_one_per_node() {
        use rand::SeedableRng;
        // One lane, capacity-1 edges, so nothing queues. The connector
        // sends its claim to every neighbour, every other node but the
        // owner forwards its first copy to all neighbours but the sender,
        // and the owner takes the walk and forwards nothing:
        // `2m - n + 2 - deg(owner)` messages, none when the connector
        // holds the walk. The tail (`lambda - 1` hops) outlasts the
        // flood, whose first copy reaches the owner over a shortest path.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let graphs = [
            ("torus", generators::torus2d(6, 7)),
            ("4-regular", generators::random_regular(48, 4, &mut rng)),
        ];
        let lambda = 8u32;
        for (name, g) in &graphs {
            assert!(drw_graph::traversal::is_connected(g), "{name}");
            let root = 11;
            let depth = drw_graph::traversal::bfs_distances(g, root);
            let ecc = *depth.iter().max().expect("nodes");
            assert!(ecc < lambda, "{name}: the tail must outlast the flood");
            let (n, dir_edges) = (g.n() as u64, g.dir_edge_count() as u64);
            let mut depths_seen = std::collections::BTreeSet::new();
            for trial in 0..24 {
                let mut state = spread_tokens(g.n(), root, 12, lambda + 1);
                let out = one_stitch(g, &mut state, root, &setup(lambda), 300 + trial);
                let seg = out.walks[0].segments[0];
                let tail = 2 * u64::from(lambda) - u64::from(seg.len);
                let flood = match seg.owner {
                    owner if owner == root => 0,
                    owner => dir_edges - n + 2 - g.degree(owner) as u64,
                };
                let tag = format!("{name}, trial {trial}: owner {}", seg.owner);
                assert_eq!(out.report.messages, flood + tail, "{tag}");
                let owner_depth = u64::from(depth[seg.owner]);
                assert_eq!(out.report.rounds - out.rounds_tail, owner_depth, "{tag}");
                assert_eq!(out.gmw_invocations, 0);
                depths_seen.insert(owner_depth);
            }
            assert!(depths_seen.contains(&0), "{name}: the root's own token");
            assert!(depths_seen.len() >= 3, "{name}: {depths_seen:?}");
        }
    }

    #[test]
    fn eight_lanes_sharing_a_connector_each_consume_a_token_of_their_own() {
        let g = generators::torus2d(5, 5);
        let (root, lambda) = (12, 4u32);
        // Walks of `lambda + 1` steps leave fewer than `lambda` to go.
        let mut state = spread_tokens(g.n(), root, 12, lambda + 1);
        let mut runner = Runner::new(&g, EngineConfig::default(), 41);
        let mut sched = StitchScheduler::new(&setup(lambda));
        for _ in 0..8 {
            sched.add_walk(root, 2 * u64::from(lambda));
        }
        let out = sched
            .run(&mut runner, &mut state)
            .expect("shared connector");
        let mut taken = std::collections::BTreeSet::new();
        for walk in &out.walks {
            assert_eq!(walk.segments.len(), 1, "one stitch, then the tail");
            let seg = walk.segments[0];
            assert!(
                taken.insert((seg.owner, seg.id.seq)),
                "token {:?} at {} consumed twice",
                seg.id,
                seg.owner
            );
        }
        assert_eq!((out.stitches, out.gmw_invocations), (8, 0));
        assert_eq!(state.total_stored(), 4, "twelve tokens, eight consumed");
    }

    #[test]
    fn a_stitch_takes_as_many_rounds_as_the_owner_is_far() {
        // `report.rounds - rounds_tail` is the one stitch: the claim's way
        // to the owner, however many tokens the connector holds (the
        // paper's echo took three sweeps of the connector's eccentricity).
        let g = generators::path(32);
        let mut owners = std::collections::BTreeSet::new();
        for seed in 0..8 {
            let mut state = WalkState::new(g.n());
            for seq in 0..20 {
                state.store_walk((seq as usize * 7) % 32, WalkId { source: 0, seq }, 5);
            }
            let out = one_stitch(&g, &mut state, 0, &setup(4), seed);
            let owner = out.walks[0].segments[0].owner;
            assert_eq!(
                out.report.rounds - out.rounds_tail,
                owner as u64,
                "seed {seed}"
            );
            assert_eq!(out.rounds_tail, 3, "the tail is the 8 - 5 remaining steps");
            owners.insert(owner);
        }
        assert!(owners.len() >= 4, "{owners:?}");
    }

    #[test]
    fn a_fitted_stitch_leaves_a_tail_below_lambda_whenever_a_walk_fits() {
        // Plain 120-step walks over a 6x6 torus store at lambda = 6: a
        // segment that starts with fewer than 2λ to go is fitted and fits
        // what is left; a tail of λ or more means the last connector's
        // ledger held no walk that fits it (one lane: nothing else took one).
        let (g, lambda, len) = (generators::torus2d(6, 6), 6u32, 120u64);
        let mut fitted = 0;
        for seed in 0..16 {
            let mut runner = Runner::new(&g, EngineConfig::default(), 70 + seed);
            let mut state = WalkState::new(g.n());
            phase1(&mut runner, &mut state, 4, lambda);
            let mut sched = StitchScheduler::new(&setup(lambda));
            sched.add_walk(0, len);
            let out = sched.run(&mut runner, &mut state).expect("plain run");
            let segs = &out.walks[0].segments;
            for seg in segs {
                let left = len - seg.start_pos;
                assert!(
                    u64::from(seg.len) <= left,
                    "seed {seed}: {seg:?} overshoots"
                );
                fitted += u32::from(left < 2 * u64::from(lambda));
            }
            let last = segs.last().expect("a 120-step walk stitches");
            let tail = len - last.start_pos - u64::from(last.len);
            let unused = state.nodes[last.owner].unused();
            let fits = unused.iter().filter(|e| u64::from(e.1) <= tail).count();
            assert!(tail < 2 * u64::from(lambda), "seed {seed}");
            assert!(
                tail < u64::from(lambda) || fits == 0,
                "seed {seed}: tail {tail}"
            );
        }
        assert!(fitted > 0, "no walk ever stitched a fitted segment");
        // A walk shorter than 2λ walks naively over the same store.
        let mut runner = Runner::new(&g, EngineConfig::default(), 5);
        let mut state = WalkState::new(g.n());
        phase1(&mut runner, &mut state, 4, lambda);
        let mut sched = StitchScheduler::new(&setup(lambda));
        sched.add_walk(0, 2 * u64::from(lambda) - 1);
        let out = sched.run(&mut runner, &mut state).expect("short run");
        assert_eq!((out.stitches, out.report.messages), (0, 11));
        // A recorded walk keeps stitching only while 2λ or more remain.
        for seed in 0..6 {
            let (out, _) = recorded_walk(len, seed);
            for seg in &out.walks[0].segments {
                assert!(len - seg.start_pos >= 2 * u64::from(lambda), "{seg:?}");
            }
        }
    }

    #[test]
    fn a_lost_claim_is_a_lost_token_and_leaves_its_walk_to_a_reclaim() {
        use drw_congest::FaultPlan;
        // Node 0's one stored walk runs the length of a path, so its
        // claim has one route. A plan that drops the claim stalls the
        // walk: the re-issue pass finds node 0's ledger empty and
        // replenishes, and the claimed walk stays stored, outside every
        // ledger, until a reclaim drops it with its log.
        let g = generators::path(8);
        let id = WalkId { source: 0, seq: 0 };
        for fault_seed in 0..64 {
            let mut state = WalkState::new(g.n());
            for step in 1..=7 {
                state.nodes[step as usize].log_arrival(0, 0, step, 0);
            }
            state.store_walk(7, id, 7);
            let plan = FaultPlan::drops(fault_seed, 100).lossy();
            let mut runner = Runner::new(&g, EngineConfig::default().with_faults(plan), 5);
            let mut sched = StitchScheduler::new(&setup(8));
            sched.add_walk(0, 16);
            let Ok(out) = sched.run(&mut runner, &mut state) else {
                continue; // re-issue exhausted as well
            };
            let orphaned = state.nodes[7].store.iter().any(|w| w.id == id);
            if out.reissues == 0 || !orphaned {
                continue;
            }
            assert!(out.gmw_invocations >= 1, "the re-issue found node 0 dry");
            assert!(state.ledger_mismatch().is_some(), "stored, not ledgered");
            assert!(state.reclaim_forward_logs(0) >= 7);
            assert!(state.nodes[7].take(id).is_none(), "the reclaim dropped it");
            assert_eq!(state.ledger_mismatch(), None);
            return;
        }
        panic!("no fault seed in 0..64 lost the claim");
    }
}

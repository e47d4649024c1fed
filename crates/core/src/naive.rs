//! The naive random-walk baseline: pass a token for `l` steps.
//!
//! This is the `O(l)`-round algorithm of Section 1.2 that the paper's
//! contribution beats (all tokens walk simultaneously; congestion is
//! absorbed by the engine's edge queues, exactly as in the model). Phase
//! 2 does not run it: the final `< 2*lambda` steps of a walk and the
//! `k + l` branch of `MANY-RANDOM-WALKS` are tail lanes of the one stitch
//! run ([`crate::StitchSpec::naive`]).

use crate::state::WalkState;
use drw_congest::{Ctx, Envelope, Message, Protocol, RunError, WireReader, WireSink};
use drw_graph::{Graph, NodeId};

/// Specification of one token walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NaiveWalkSpec {
    /// Starting node.
    pub source: NodeId,
    /// Number of steps.
    pub len: u64,
    /// Global position of `source` within a larger stitched walk (0 for a
    /// standalone walk); visited nodes record `start_pos + steps`.
    pub start_pos: u64,
    /// Whether the source should record its own starting position (false
    /// when a previous stitched segment already recorded it).
    pub record_start: bool,
}

/// One hop of a naive token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveMsg {
    /// Walk index within the protocol's batch.
    pub walk: u32,
    /// Steps remaining after this arrival.
    pub left: u64,
    /// Global position of the receiving node.
    pub pos: u64,
}

impl Message for NaiveMsg {
    fn encode(&self, w: &mut impl WireSink) {
        w.word("walk", self.walk.into());
        w.word("left", self.left);
        w.word("pos", self.pos);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(NaiveMsg {
            walk: r.read()?,
            left: r.read()?,
            pos: r.read()?,
        })
    }
}

/// Walks one or more tokens naively; optionally records visits
/// (position + predecessor) into a shared [`WalkState`].
#[derive(Debug)]
pub struct NaiveWalkProtocol<'s> {
    specs: Vec<NaiveWalkSpec>,
    record: Option<&'s mut WalkState>,
    destinations: Vec<Option<NodeId>>,
}

impl<'s> NaiveWalkProtocol<'s> {
    /// Creates a batch of naive walks. Pass `Some(state)` to record every
    /// visit into `state.visits`.
    pub fn new(specs: Vec<NaiveWalkSpec>, record: Option<&'s mut WalkState>) -> Self {
        let destinations = vec![None; specs.len()];
        NaiveWalkProtocol {
            specs,
            record,
            destinations,
        }
    }

    /// Destination of walk `i`.
    ///
    /// # Panics
    ///
    /// Panics if the protocol has not completed walk `i`.
    pub fn destination(&self, i: usize) -> NodeId {
        self.destinations[i].expect("walk has not completed")
    }

    /// All destinations, in spec order.
    pub fn destinations(&self) -> Vec<NodeId> {
        self.destinations
            .iter()
            .map(|d| d.expect("walk has not completed"))
            .collect()
    }
}

impl Protocol for NaiveWalkProtocol<'_> {
    type Msg = NaiveMsg;

    fn start(&mut self, ctx: &mut Ctx<'_, NaiveMsg>) {
        for i in 0..self.specs.len() {
            let spec = self.specs[i];
            assert!(spec.source < ctx.graph().n(), "walk source out of range");
            if spec.record_start {
                if let Some(state) = self.record.as_deref_mut() {
                    state.record_visit(spec.source, spec.start_pos, None);
                }
            }
            if spec.len == 0 {
                self.destinations[i] = Some(spec.source);
                continue;
            }
            ctx.send_random_neighbor(
                spec.source,
                NaiveMsg {
                    walk: i as u32,
                    left: spec.len - 1,
                    pos: spec.start_pos + 1,
                },
            );
        }
    }

    fn on_receive(
        &mut self,
        node: NodeId,
        inbox: &[Envelope<NaiveMsg>],
        ctx: &mut Ctx<'_, NaiveMsg>,
    ) {
        for env in inbox {
            let m = &env.msg;
            if let Some(state) = self.record.as_deref_mut() {
                state.record_visit(node, m.pos, Some(env.from));
            }
            if m.left == 0 {
                self.destinations[m.walk as usize] = Some(node);
            } else {
                ctx.send_random_neighbor(
                    node,
                    NaiveMsg {
                        walk: m.walk,
                        left: m.left - 1,
                        pos: m.pos + 1,
                    },
                );
            }
        }
    }
}

/// Runs a single naive walk of `len` steps from `source` and returns
/// `(destination, rounds)`.
///
/// # Errors
///
/// Propagates engine errors (round cap, oversized messages).
///
/// # Example
///
/// ```
/// use drw_graph::generators;
///
/// let g = generators::cycle(16);
/// let (dest, rounds) = drw_core::naive_walk(&g, 0, 100, 7).unwrap();
/// assert!(dest < g.n());
/// assert_eq!(rounds, 100);
/// ```
pub fn naive_walk(
    g: &Graph,
    source: NodeId,
    len: u64,
    seed: u64,
) -> Result<(NodeId, u64), RunError> {
    let mut p = NaiveWalkProtocol::new(
        vec![NaiveWalkSpec {
            source,
            len,
            start_pos: 0,
            record_start: false,
        }],
        None,
    );
    let report = drw_congest::run_protocol(g, &drw_congest::EngineConfig::default(), seed, &mut p)?;
    Ok((p.destination(0), report.rounds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use drw_congest::{run_protocol, EngineConfig};
    use drw_graph::generators;

    #[test]
    fn walk_takes_len_rounds() {
        let g = generators::torus2d(4, 4);
        let (dest, rounds) = naive_walk(&g, 0, 57, 3).unwrap();
        assert!(dest < g.n());
        assert_eq!(rounds, 57);
    }

    #[test]
    fn zero_length_walk_stays_home() {
        let g = generators::path(4);
        let (dest, rounds) = naive_walk(&g, 2, 0, 3).unwrap();
        assert_eq!(dest, 2);
        assert_eq!(rounds, 0);
    }

    #[test]
    fn walk_on_path_has_right_parity() {
        // On a bipartite graph, an even-length walk ends on the source's side.
        let g = generators::path(10);
        for seed in 0..20 {
            let (dest, _) = naive_walk(&g, 4, 6, seed).unwrap();
            assert_eq!(dest % 2, 0, "seed {seed} gave dest {dest}");
        }
    }

    #[test]
    fn recorded_visits_form_a_valid_path() {
        let g = generators::torus2d(4, 4);
        let mut state = WalkState::new(g.n());
        let mut p = NaiveWalkProtocol::new(
            vec![NaiveWalkSpec {
                source: 5,
                len: 40,
                start_pos: 0,
                record_start: true,
            }],
            Some(&mut state),
        );
        run_protocol(&g, &EngineConfig::default(), 11, &mut p).unwrap();
        let dest = p.destination(0);
        let walk = state.reconstruct_walk(40);
        assert_eq!(walk[0], 5);
        assert_eq!(*walk.last().unwrap(), dest);
        for w in walk.windows(2) {
            assert!(g.has_edge(w[0], w[1]), "non-edge {}-{} in walk", w[0], w[1]);
        }
    }

    #[test]
    fn multiple_walks_share_the_network() {
        let g = generators::complete(8);
        let specs: Vec<NaiveWalkSpec> = (0..5)
            .map(|i| NaiveWalkSpec {
                source: i,
                len: 30,
                start_pos: 0,
                record_start: false,
            })
            .collect();
        let mut p = NaiveWalkProtocol::new(specs, None);
        let report = run_protocol(&g, &EngineConfig::default(), 1, &mut p).unwrap();
        assert_eq!(p.destinations().len(), 5);
        // Queueing may add rounds but the walks all complete.
        assert!(report.rounds >= 30);
    }

    #[test]
    fn start_pos_offsets_recorded_positions() {
        let g = generators::path(6);
        let mut state = WalkState::new(g.n());
        let mut p = NaiveWalkProtocol::new(
            vec![NaiveWalkSpec {
                source: 3,
                len: 2,
                start_pos: 100,
                record_start: true,
            }],
            Some(&mut state),
        );
        run_protocol(&g, &EngineConfig::default(), 2, &mut p).unwrap();
        let all: Vec<u64> = state
            .nodes
            .iter()
            .flat_map(|ns| ns.visits.iter().map(|v| v.pos))
            .collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![100, 101, 102]);
    }
}

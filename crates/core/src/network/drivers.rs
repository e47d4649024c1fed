//! Per-request driver state machines and the one wave step that
//! advances them — the only place a request kind is driven.
//!
//! A *driver* is the resident state of one request: what work it
//! contributes to the next shared wave ([`plan_wave`]) and how it folds
//! a wave's results back in ([`absorb`]), possibly running private
//! follow-up protocols on the session (cover-check convergecasts,
//! histogram upcasts) that are billed to the request alone.
//! [`wave_step`] sequences one super-step over a set of drivers — plan
//! every member, [`assemble_wave`], [`WalkSession::run_wave`], slice the
//! walks back, absorb — and reports per member its private rounds, its
//! exact share of the wave and its `Result`. What to do with those is
//! caller policy: `Network::run_batch` drains a fixed set of slots and
//! aborts on the first error, `Network::run` is a batch of one over a
//! private session — for every request kind; a `Walk` is a one-lane
//! wave — and the service admits new slots mid-flight, bills tenants
//! and resolves failed tickets individually. The machines themselves,
//! and the wave-assembly rules (one recorded plan per wave, cyclic
//! recorder rotation, regime maxima), are defined once, here. Outputs
//! are pinned by `tests/drivers_refactor.rs`.

use super::{mixing, spanning};
use crate::bucket::BucketTest;
use crate::error::Error;
use crate::many_walks::ManyWalksResult;
use crate::request::{
    MixingProbe, MixingReport, MixingRequest, Request, Response, TreeMode, TreeRequest, TreeSample,
};
use crate::session::{WalkSession, WaveWalk};
use crate::single_walk::{SingleWalkResult, WalkError};
use crate::state::WalkState;
use crate::stitch_scheduler::{StitchSpec, MAX_WAVE_LANES};
use drw_congest::primitives::{AggOp, ConvergecastProtocol};
use drw_graph::{Graph, NodeId};

/// One request's contribution to the next wave.
struct WavePlan {
    specs: Vec<StitchSpec>,
    /// `(lambda_call, len)` of the stitch-eligible work, if any.
    regime: Option<(u32, u64)>,
}

/// The per-request state machines of a batch.
pub(crate) enum Driver {
    Walk {
        source: NodeId,
        len: u64,
        record: bool,
    },
    Many {
        sources: Vec<NodeId>,
        len: u64,
        /// Set at plan time: the Theorem 2.8 regime decision.
        fallback_lambda: Option<u32>,
    },
    Tree(TreeDriver),
    Mixing(Box<MixingDriver>),
}

/// Batch state of one spanning-tree request (both modes).
pub(crate) struct TreeDriver {
    req: TreeRequest,
    initial_len: u64,
    first: Vec<Option<(u64, Option<NodeId>)>>,
    offset: u64,
    current: NodeId,
    phase: u32,
    walk_in_phase: usize,
    attempts: u64,
}

/// Batch state of one mixing-time request.
pub(crate) struct MixingDriver {
    req: MixingRequest,
    k: usize,
    bucket: BucketTest,
    /// The network constants, once the one-time setup
    /// ([`mixing::run_probe_setup`]) ran, billed to this request.
    setup: Option<mixing::ProbeSetup>,
    len: u64,
    last_fail: u64,
    refine_bounds: Option<(u64, u64)>, // (lo, hi) once refining
    probes: Vec<MixingProbe>,
    done_estimate: Option<Option<u64>>, // Some(first_pass) once finished
}

/// One entry of a batch scheduler: a request's driver plus its
/// accumulators and (eventually) its response.
pub(crate) struct Slot {
    pub(crate) driver: Driver,
    pub(crate) rounds: u64,
    pub(crate) response: Option<Response>,
}

/// Shared facts of one wave, handed to every participant's absorb step.
struct WaveContext {
    rounds: u64,
    messages: u64,
    rounds_topup: u64,
    rounds_tail: u64,
    rounds_replay: u64,
    lambda: u32,
    gmw: u64,
}

/// A wave assembled from the active requests' plans: the specs to hand
/// [`WalkSession::run_wave`], which request owns which specs, and the
/// regime maxima across the stitch-eligible participants.
struct WaveAssembly {
    specs: Vec<StitchSpec>,
    /// `(plan key, spec count)` in spec order — [`wave_step`] maps keys
    /// back to its members and slices the wave's walks by count.
    members: Vec<(usize, usize)>,
    lambda_call: u32,
    stitch_len: u64,
}

/// Selects the wave's membership from the gathered plans.
///
/// At most one *recorded* plan may ride a wave (the per-node visit
/// ledger is not lane-tagged). The grant rotates cyclically from
/// `*last_recorder` (updated in place) so concurrent tree requests
/// genuinely alternate waves instead of the lowest key monopolizing the
/// ledger; deferred recorders still share a later wave's rounds, just
/// not this one's. A plan that would take the wave past
/// [`MAX_WAVE_LANES`] waits for a later wave in the same way ([`new_slot`]
/// holds every single request under the limit, so the first plan always
/// fits). Keys must be in increasing order (see
/// [`Member::key`]) and planning must be deferral-safe ([`plan_wave`]
/// mutates nothing a repeat call would get wrong).
fn assemble_wave(plans: Vec<(usize, WavePlan)>, last_recorder: &mut usize) -> WaveAssembly {
    let recorders: Vec<usize> = plans
        .iter()
        .filter(|(_, p)| p.specs.iter().any(|s| s.record))
        .map(|&(i, _)| i)
        .collect();
    let granted = recorders
        .iter()
        .copied()
        .find(|&i| i > *last_recorder)
        .or_else(|| recorders.first().copied());
    if let Some(i) = granted {
        *last_recorder = i;
    }

    let mut out = WaveAssembly {
        specs: Vec::new(),
        members: Vec::new(),
        lambda_call: 0,
        stitch_len: 0,
    };
    for (i, plan) in plans {
        let records = plan.specs.iter().any(|s| s.record);
        if records && granted != Some(i) {
            continue; // defer this recorder to a later wave
        }
        if out.specs.len() + plan.specs.len() > MAX_WAVE_LANES {
            continue; // out of lane tags: a later wave
        }
        if let Some((lc, sl)) = plan.regime {
            out.lambda_call = out.lambda_call.max(lc);
            out.stitch_len = out.stitch_len.max(sl);
        }
        out.members.push((i, plan.specs.len()));
        out.specs.extend(plan.specs);
    }
    out
}

/// One unresolved request handed to [`wave_step`].
pub(crate) struct Member<'a> {
    /// Recorder-rotation key, strictly increasing across the members of
    /// a step and stable across steps: slot indices for `run_batch`,
    /// admission sequence numbers for the service.
    pub(crate) key: usize,
    /// The [`drw_congest::Mux2`] request tag this member's messages ride.
    pub(crate) req: u16,
    pub(crate) slot: &'a mut Slot,
}

/// What one [`wave_step`] did for one member (same order as the
/// members it was handed).
pub(crate) struct MemberStep {
    /// Rounds of the member's private plan/absorb protocols.
    pub(crate) private_rounds: u64,
    /// The member's exact share of the wave's rounds: `floor(R / m)` per
    /// spec it contributed, the remainder going to the first `R mod m`
    /// specs in spec order — so the shares of a step sum to `R` to the
    /// round. Zero for members that failed to plan or were deferred.
    pub(crate) wave_share: u64,
    /// Whether the member's plan or absorb failed; the other members
    /// are unaffected.
    pub(crate) result: Result<(), Error>,
}

/// A wave's sparse connector visits: `(node, count)`, ascending by node.
pub(crate) type ConnectorVisits = Vec<(NodeId, u32)>;

/// Advances `members` by one shared wave: plans every member (members
/// whose plan fails sit the wave out), assembles the wave, runs it on
/// `session`, slices the walks and `GET-MORE-WALKS` counts back to
/// their owners and lets each absorb its part. Returns one
/// [`MemberStep`] per member plus, if a wave ran at all (it does unless
/// every plan failed), the wave's sparse connector visits — not
/// attributable within a shared wave, but a request that rode its wave
/// alone may claim them.
///
/// # Errors
///
/// Only a failure of the shared wave itself, which has no single owner.
pub(crate) fn wave_step(
    session: &mut WalkSession,
    mut members: Vec<Member<'_>>,
    last_recorder: &mut usize,
) -> Result<(Vec<MemberStep>, Option<ConnectorVisits>), Error> {
    let mut steps = Vec::with_capacity(members.len());
    let mut plans = Vec::with_capacity(members.len());
    for m in &mut members {
        let before = session.total_rounds();
        let plan = plan_wave(m.slot, m.req, session);
        steps.push(MemberStep {
            private_rounds: session.total_rounds() - before,
            wave_share: 0,
            result: plan.map(|plan| plans.push((m.key, plan))),
        });
    }
    let asm = assemble_wave(plans, last_recorder);
    if asm.specs.is_empty() {
        return Ok((steps, None));
    }

    let before = session.total_rounds();
    let wave = session.run_wave(asm.lambda_call, asm.stitch_len, &asm.specs)?;
    let wave_cost = session.total_rounds() - before;
    let m = asm.specs.len() as u64;
    let (per_spec, remainder) = (wave_cost / m, wave_cost % m);

    let mut walks = wave.walks.into_iter();
    let mut gmw = wave.gmw_by_walk.iter().copied();
    let mut spec_base = 0u64;
    let mut at = 0;
    for (key, count) in asm.members {
        // Members and wave membership both ascend by key.
        while members[at].key != key {
            at += 1;
        }
        let slot = &mut *members[at].slot;
        let ctx = WaveContext {
            rounds: wave.rounds,
            messages: wave.messages,
            rounds_topup: wave.rounds_topup,
            rounds_tail: wave.rounds_tail,
            rounds_replay: wave.rounds_replay,
            lambda: wave.lambda,
            gmw: gmw.by_ref().take(count).sum(),
        };
        let count_u64 = count as u64;
        steps[at].wave_share =
            count_u64 * per_spec + remainder.saturating_sub(spec_base).min(count_u64);
        spec_base += count_u64;
        slot.rounds += wave.rounds;
        let before = session.total_rounds();
        steps[at].result = absorb(slot, walks.by_ref().take(count).collect(), &ctx, session);
        steps[at].private_rounds += session.total_rounds() - before;
    }
    Ok((steps, Some(wave.connector_visits)))
}

/// Validates `request` against the graph it will be served on and
/// builds its driver. Runs no protocol, so a scheduler can reject a
/// whole batch up front, or a single ticket at admission.
///
/// # Errors
///
/// [`WalkError::SourceOutOfRange`] for an unknown source/root,
/// [`WalkError::Disconnected`] for anything but an empty walk on a graph
/// without edges,
/// [`WalkError::TooFewSamples`] for a mixing request whose
/// `ceil(samples_scale * sqrt(n))` is below 2 (the collision estimator
/// needs pairs; a zero-sample probe would also contribute no work items
/// and stall its batch), [`WalkError::TooManyLanes`] for a many-walks
/// or mixing request that alone wants more walks than a wave has lane
/// tags, and [`WalkError::BadBucketBase`] for a mixing request whose
/// bucket base [`BucketTest::new`] refuses.
pub(crate) fn new_slot(request: Request, g: &Graph) -> Result<Slot, Error> {
    let n = g.n();
    let check = |s: NodeId| {
        if s >= n {
            Err(WalkError::SourceOutOfRange(s))
        } else {
            Ok(())
        }
    };
    // A step needs an edge: on a lone node only the empty walk exists.
    // A tree or a mixing probe walks at least one step.
    let steps = |len: u64| {
        if len > 0 && g.m() == 0 {
            Err(WalkError::Disconnected)
        } else {
            Ok(())
        }
    };
    let mut response = None;
    let driver = match request {
        Request::Mutate(_) => unreachable!("mutations are split off by the scheduler"),
        Request::Walk {
            source,
            len,
            record,
        } => {
            check(source)?;
            steps(len)?;
            Driver::Walk {
                source,
                len,
                record,
            }
        }
        Request::ManyWalks { sources, len } => {
            sources.iter().try_for_each(|&s| check(s))?;
            steps(len)?;
            if sources.len() > MAX_WAVE_LANES {
                return Err(WalkError::TooManyLanes(sources.len()).into());
            }
            if sources.is_empty() {
                response = Some(Response::ManyWalks(empty_many_result(n)));
            }
            Driver::Many {
                sources,
                len,
                fallback_lambda: None,
            }
        }
        Request::SpanningTree(req) => {
            check(req.root)?;
            steps(1)?;
            let initial_len = if req.initial_len == 0 {
                n as u64
            } else {
                req.initial_len
            };
            let mut first = vec![None; n];
            first[req.root] = Some((0, None));
            Driver::Tree(TreeDriver {
                current: req.root,
                req,
                initial_len,
                first,
                offset: 0,
                phase: 0,
                walk_in_phase: 0,
                attempts: 0,
            })
        }
        Request::MixingTime(req) => {
            check(req.source)?;
            steps(1)?;
            let k = ((n as f64).sqrt() * req.samples_scale).ceil() as usize;
            if k < 2 {
                return Err(WalkError::TooFewSamples(k).into());
            }
            if k > MAX_WAVE_LANES {
                return Err(WalkError::TooManyLanes(k).into());
            }
            let bucket = BucketTest::new(g, req.bucket_base, k)
                .ok_or(WalkError::BadBucketBase(req.bucket_base.to_bits()))?;
            Driver::Mixing(Box::new(MixingDriver {
                len: req.start_len.max(1),
                req,
                k,
                bucket,
                setup: None,
                last_fail: 0,
                refine_bounds: None,
                probes: Vec::new(),
                done_estimate: None,
            }))
        }
    };
    Ok(Slot {
        driver,
        rounds: 0,
        response,
    })
}

fn empty_many_result(n: usize) -> ManyWalksResult {
    ManyWalksResult {
        destinations: Vec::new(),
        rounds: 0,
        messages: 0,
        lambda: 0,
        used_naive_fallback: false,
        stitches: 0,
        gmw_invocations: 0,
        connector_visits: vec![0; n],
        segments: Vec::new(),
        rounds_bfs: 0,
        rounds_phase1: 0,
        rounds_phase2: 0,
        state: WalkState::new(n),
    }
}

/// Computes a request's next work items. May run private setup
/// protocols on the session (billed to the request); must be safe to
/// call again on the same state if the request is deferred from this
/// wave.
fn plan_wave(slot: &mut Slot, req_id: u16, session: &mut WalkSession) -> Result<WavePlan, Error> {
    let params = session.params();
    let d_est = u64::from(session.diameter_estimate());
    match &mut slot.driver {
        Driver::Walk {
            source,
            len,
            record,
        } => {
            let lambda = params.lambda(*len, d_est);
            Ok(WavePlan {
                specs: vec![StitchSpec {
                    req: req_id,
                    source: *source,
                    len: *len,
                    pos_offset: 0,
                    record: *record,
                    naive: false,
                }],
                regime: Some((lambda, *len)),
            })
        }
        Driver::Many {
            sources,
            len,
            fallback_lambda,
        } => {
            let k = sources.len() as u64;
            let lambda = params.lambda_many(k, *len, d_est);
            // Theorem 2.8's regime rule: lambda >= l takes the `k + l`
            // simultaneous-naive branch — lowered as naive tokens into
            // the same shared run.
            let naive = u64::from(lambda) >= (*len).max(1);
            *fallback_lambda = naive.then_some(lambda);
            Ok(WavePlan {
                specs: sources
                    .iter()
                    .map(|&source| StitchSpec {
                        req: req_id,
                        source,
                        len: *len,
                        pos_offset: 0,
                        record: false,
                        naive,
                    })
                    .collect(),
                regime: (!naive).then_some((lambda, *len)),
            })
        }
        Driver::Tree(t) => {
            let phase = t.phase + 1;
            if phase > t.req.max_phases {
                return Err(Error::NotCovered {
                    phases: t.req.max_phases,
                    final_len: match t.req.mode {
                        TreeMode::ExtendWalk => t.offset,
                        TreeMode::RestartPhases => {
                            spanning::doubling_step(t.initial_len, t.phase.max(1), 0)
                                .map_or(0, |(l, _)| l)
                        }
                    },
                });
            }
            // Extend mode continues the one walk from where it stands;
            // restart mode draws a fresh walk from the root.
            let (source, pos_offset) = match t.req.mode {
                TreeMode::ExtendWalk => (t.current, t.offset),
                TreeMode::RestartPhases => (t.req.root, 0),
            };
            let (seg_len, _) = spanning::doubling_step(t.initial_len, phase, pos_offset).ok_or(
                Error::LengthOverflow {
                    phases: t.phase,
                    walked: pos_offset,
                },
            )?;
            let lambda = params.lambda(seg_len, d_est);
            Ok(WavePlan {
                specs: vec![StitchSpec {
                    req: req_id,
                    source,
                    len: seg_len,
                    pos_offset,
                    record: true,
                    naive: false,
                }],
                regime: Some((lambda, seg_len)),
            })
        }
        Driver::Mixing(m) => {
            if m.setup.is_none() {
                // One-time setup protocols over the session tree,
                // billed to this request.
                let before = session.total_rounds();
                let g = session.graph();
                let (tree, runner) = session.tree_and_runner();
                let setup = mixing::run_probe_setup(&g, &m.bucket, tree, runner)?;
                slot.rounds += session.total_rounds() - before;
                m.setup = Some(setup);
            }
            let len = m.len;
            let k = m.k as u64;
            let lambda = params.lambda_many(k, len, d_est);
            let naive = u64::from(lambda) >= len.max(1);
            let source = m.req.source;
            Ok(WavePlan {
                specs: (0..m.k)
                    .map(|_| StitchSpec {
                        req: req_id,
                        source,
                        len,
                        pos_offset: 0,
                        record: false,
                        naive,
                    })
                    .collect(),
                regime: (!naive).then_some((lambda, len)),
            })
        }
    }
}

/// Absorbs a wave's results into a request's state machine, running any
/// private follow-up protocols, and resolves the response once the
/// request completes.
///
/// Walk responses get the fields of a request on a *shared* session:
/// `rounds_bfs = 0`, all-zero `connector_visits` and a `state` holding
/// only the walk's own recorded visits are the neutral values there (the
/// session's BFS, connectors and store belong to no single request).
/// `Network::run` overwrites them for a request that owned its session.
fn absorb(
    slot: &mut Slot,
    walks: Vec<WaveWalk>,
    ctx: &WaveContext,
    session: &mut WalkSession,
) -> Result<(), Error> {
    let n = session.graph().n();
    match &mut slot.driver {
        Driver::Walk { source, record, .. } => {
            let walk = walks.into_iter().next().expect("one spec per walk");
            let mut state = WalkState::new(n);
            if *record {
                state.record_visit(*source, 0, None);
                for (v, visit) in &walk.visits {
                    state.record_visit(*v, visit.pos, visit.pred());
                }
            }
            slot.response = Some(Response::Walk(SingleWalkResult {
                destination: walk.destination,
                rounds: ctx.rounds,
                messages: ctx.messages,
                rounds_bfs: 0,
                rounds_phase1: ctx.rounds_topup,
                rounds_stitch: ctx.rounds - ctx.rounds_topup - ctx.rounds_tail - ctx.rounds_replay,
                rounds_tail: ctx.rounds_tail,
                rounds_replay: ctx.rounds_replay,
                stitches: walk.segments.len() as u64,
                gmw_invocations: ctx.gmw,
                lambda: ctx.lambda,
                diameter_estimate: session.diameter_estimate(),
                connector_visits: vec![0; n],
                segments: walk.segments,
                state,
            }));
        }
        Driver::Many {
            fallback_lambda, ..
        } => {
            let fallback = *fallback_lambda;
            let mut destinations = Vec::with_capacity(walks.len());
            let mut segments = Vec::with_capacity(walks.len());
            let mut stitches = 0u64;
            for w in walks {
                destinations.push(w.destination);
                stitches += w.segments.len() as u64;
                segments.push(w.segments);
            }
            slot.response = Some(Response::ManyWalks(ManyWalksResult {
                destinations,
                rounds: ctx.rounds,
                messages: ctx.messages,
                lambda: fallback.unwrap_or(ctx.lambda),
                used_naive_fallback: fallback.is_some(),
                stitches,
                gmw_invocations: ctx.gmw,
                connector_visits: vec![0; n],
                segments,
                rounds_bfs: 0,
                rounds_phase1: ctx.rounds_topup,
                rounds_phase2: ctx.rounds - ctx.rounds_topup,
                state: WalkState::new(n),
            }));
        }
        Driver::Tree(t) => {
            let walk = walks.into_iter().next().expect("one extension per wave");
            t.phase += 1;
            t.attempts += 1;
            let g = session.graph();
            // `restart_first` only exists in restart mode (fresh table
            // per walk); extend mode reads the accumulated `t.first` by
            // reference — no per-phase O(n) copy.
            let mut restart_first: Vec<Option<(u64, Option<NodeId>)>>;
            let (covered_first, phase_for_result, cover_len): (&[_], u32, u64) = match t.req.mode {
                TreeMode::ExtendWalk => {
                    let seg_len = spanning::doubling_step(t.initial_len, t.phase, t.offset)
                        .expect("planned step was valid")
                        .0;
                    for (v, visit) in &walk.visits {
                        debug_assert!(visit.pos > t.offset && visit.pos <= t.offset + seg_len);
                        let pred = visit.pred().expect("extension visits carry predecessors");
                        spanning::merge_first_visit(&mut t.first, *v, visit.pos, pred);
                    }
                    t.offset += seg_len;
                    t.current = walk.destination;
                    (t.first.as_slice(), t.phase, t.offset)
                }
                TreeMode::RestartPhases => {
                    let seg_len = spanning::doubling_step(t.initial_len, t.phase, 0)
                        .expect("planned step was valid")
                        .0;
                    restart_first = vec![None; n];
                    restart_first[t.req.root] = Some((0, None));
                    for (v, visit) in &walk.visits {
                        let pred = visit.pred().expect("extension visits carry predecessors");
                        spanning::merge_first_visit(&mut restart_first, *v, visit.pos, pred);
                    }
                    (restart_first.as_slice(), t.phase, seg_len)
                }
            };
            // Private cover check over the shared tree, billed to this
            // request alone.
            let before = session.total_rounds();
            let values: Vec<u64> = covered_first
                .iter()
                .map(|f| u64::from(f.is_some()))
                .collect();
            let (tree, runner) = session.tree_and_runner();
            let mut cc = ConvergecastProtocol::new(tree, AggOp::Min, values);
            runner.run(&mut cc).map_err(WalkError::from)?;
            let covered = cc.result() == 1;
            slot.rounds += session.total_rounds() - before;
            if covered {
                let key = spanning::tree_from_first_visits(&g, t.req.root, covered_first);
                slot.response = Some(Response::SpanningTree(TreeSample {
                    edges: key,
                    rounds: slot.rounds,
                    phases: phase_for_result,
                    attempts: t.attempts,
                    cover_len,
                    bfs_runs: 0,
                }));
            } else if let TreeMode::RestartPhases = t.req.mode {
                // Phase bookkeeping for restart mode: `walks_per_phase`
                // walks before the length doubles.
                let per_phase = spanning::walks_per_phase(n, t.req.walks_per_phase);
                t.walk_in_phase += 1;
                if t.walk_in_phase < per_phase {
                    t.phase -= 1; // same length again next wave
                } else {
                    t.walk_in_phase = 0;
                }
            }
        }
        Driver::Mixing(m) => {
            let destinations: Vec<NodeId> = walks.iter().map(|w| w.destination).collect();
            let before = session.total_rounds();
            let setup = m.setup.as_ref().expect("setup ran at plan time");
            let g = session.graph();
            let (tree, runner) = session.tree_and_runner();
            let probe = mixing::evaluate_probe(
                &g,
                &m.bucket,
                tree,
                runner,
                &destinations,
                setup,
                m.len,
                m.req.threshold,
                m.req.l2_threshold,
            )?;
            slot.rounds += session.total_rounds() - before;
            m.probes.push(probe);
            advance_mixing(m, probe);
            if let Some(first_pass) = m.done_estimate {
                slot.response = Some(Response::MixingTime(MixingReport {
                    tau_estimate: first_pass.unwrap_or(m.req.max_len),
                    converged: first_pass.is_some(),
                    rounds: slot.rounds,
                    samples_per_probe: m.k,
                    buckets: m.bucket.buckets(),
                    probes: std::mem::take(&mut m.probes),
                }));
            }
        }
    }
    Ok(())
}

/// Advances the mixing scan/refinement state machine after one probe.
fn advance_mixing(m: &mut MixingDriver, probe: MixingProbe) {
    match m.refine_bounds {
        None => {
            // Doubling scan.
            if probe.pass {
                if m.req.refine && m.last_fail + 1 < m.len {
                    m.refine_bounds = Some((m.last_fail, m.len));
                    let (lo, hi) = m.refine_bounds.expect("just set");
                    m.len = lo + (hi - lo) / 2;
                } else {
                    m.done_estimate = Some(Some(m.len));
                }
            } else {
                m.last_fail = m.len;
                match m.len.checked_mul(2) {
                    Some(next) if next <= m.req.max_len => m.len = next,
                    _ => m.done_estimate = Some(None), // cap reached
                }
            }
        }
        Some((lo, hi)) => {
            // Binary-search refinement (Lemma 4.4 monotonicity).
            let (lo, hi) = if probe.pass { (lo, m.len) } else { (m.len, hi) };
            if lo + 1 < hi {
                m.refine_bounds = Some((lo, hi));
                m.len = lo + (hi - lo) / 2;
            } else {
                m.done_estimate = Some(Some(hi));
            }
        }
    }
}

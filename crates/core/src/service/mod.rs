//! `drw_core::Service` — the walk service as a *long-running loop*:
//! continuous batching, per-tenant fairness, completion streaming.
//!
//! [`Network::run_batch`](crate::Network::run_batch) serves a batch it
//! was handed up front; a production walk service faces a **stream** of
//! requests from many tenants. [`Service`] closes that gap. It owns one
//! [`Topology`]-attached [`WalkSession`] and advances the same
//! per-request drivers through the same wave step as `run_batch`
//! (`crate::network::drivers::wave_step`) — but instead of draining a
//! fixed slot set, every super-step wave re-opens admission: requests that arrived
//! while a wave was running are admitted into the *next*
//! [`WalkSession::run_wave`] call mid-flight, piggybacking on rounds
//! the in-flight work was paying for anyway. That is continuous
//! batching, and it is where the service beats the obvious baseline
//! (wait for the current batch to drain, then start the next — the
//! [`ServiceConfig::boundary`] policy, kept as a config knob precisely
//! so experiment E17 can measure the gap on identical traces).
//!
//! # The loop
//!
//! One [`Service::pump`] call is one scheduling step:
//!
//! 1. **Barriers**: while nothing is in flight and the queue's front is
//!    a [`Request::Mutate`], pop it and apply the delta — exactly
//!    `run_batch`'s segment-barrier semantics, generalized to a stream
//!    (nothing admitted after a delta may run before it; everything
//!    admitted before it completes on the old epoch).
//! 2. **Churn repair**: [`WalkSession::sync`] — rounds billed to the
//!    service's churn bucket, not to a tenant.
//! 3. **Admission**: credit every tenant with standing work
//!    (deficit round-robin, `ledger.rs`); scan the queue in arrival
//!    order up to the first barrier and admit entries whose tenant has
//!    a positive balance and free in-flight slots. If nothing is in
//!    flight and everyone is over budget, the front entry is admitted
//!    anyway (progress guarantee). Under [`ServiceConfig::boundary`]
//!    admission happens only when the flight is empty.
//! 4. **Wave**: one `drivers::wave_step` over the whole flight (plan
//!    every driver, assemble one wave with `run_batch`'s recorder
//!    rotation, run it, absorb), then bill what it reports: the wave's
//!    measured rounds are split **exactly** across the specs that rode
//!    it (`floor(R/m)` each, the remainder to the first `R mod m` specs
//!    in spec order), and each driver's private plan/absorb protocols
//!    are billed to their tenant alone. The sum of all tenant bills
//!    plus the setup and churn buckets equals the engine's total round
//!    count to the round — [`ServiceReport::reconciles`]. A driver that
//!    fails resolves its own ticket with the error.
//! 5. **Completion streaming**: resolved drivers leave the flight as
//!    [`Completion`]s, consumed by [`Service::poll`] (each ticket
//!    resolves exactly once) or [`Service::drain`].
//!
//! # Virtual time
//!
//! The service clock is **rounds, not wall time**: it advances by
//! exactly the rounds the engine consumes, plus explicit fast-forwards
//! to the next arrival when idle ([`Service::serve_trace`]). Arrivals
//! come from an explicit seeded [`ArrivalTrace`], so a given
//! `(trace, seed)` pair replays bit-identically — `tests/service.rs`
//! pins this.

mod ledger;
mod queue;
mod trace;

pub use ledger::TenantBill;
pub use queue::SubmitError;
pub use trace::{ArrivalTrace, MixedTraceSpec, TenantId, TraceEvent};

use crate::error::Error;
use crate::network::drivers::{self, Member};
use crate::request::{Request, Response};
use crate::session::WalkSession;
use crate::single_walk::SingleWalkConfig;
use drw_congest::{derive_seed, EngineConfig};
use drw_graph::{Graph, NodeId, Topology};
use ledger::FairLedger;
use queue::{AdmissionQueue, Pending};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Seed tag for the service's session (distinct from the network batch
/// session's tag, so a `Service` and a `Network` over the same base
/// seed draw independent randomness).
const SERVICE_SEED_TAG: u64 = 0x5EAF;

/// A claim on a submitted request's eventual [`Completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The ticket's service-unique id (monotone in submission order).
    pub fn id(self) -> u64 {
        self.0
    }
}

/// What [`Service::poll`] found for a ticket.
#[derive(Debug)]
pub enum TicketPoll {
    /// Still queued or in flight.
    Pending,
    /// Resolved: the completion record, surrendered exactly once.
    Ready(Box<Completion>),
}

/// A resolved request: the response plus the service-side timeline and
/// bill.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The ticket this completion resolves.
    pub ticket: Ticket,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// The response, or the per-request error (a failed request never
    /// aborts the service; the error is streamed like any completion).
    pub response: Result<Response, Error>,
    /// Virtual time the request was submitted.
    pub submitted_at: u64,
    /// Virtual time the request was admitted into flight.
    pub admitted_at: u64,
    /// Virtual time the response resolved.
    pub completed_at: u64,
    /// Rounds billed to the tenant for this request: exact wave shares
    /// plus private protocols.
    pub billed_rounds: u64,
}

impl Completion {
    /// Rounds the request waited in the queue before admission.
    pub fn admission_latency(&self) -> u64 {
        self.admitted_at - self.submitted_at
    }

    /// End-to-end rounds from submission to resolution.
    pub fn turnaround(&self) -> u64 {
        self.completed_at - self.submitted_at
    }
}

/// Service-API misuse errors (distinct from per-request walk errors,
/// which are streamed inside [`Completion::response`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The ticket is not queued, not in flight, and not awaiting
    /// collection — never issued, or already resolved exactly once.
    UnknownTicket(u64),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownTicket(id) => {
                write!(f, "ticket {id} unknown (never issued, or already resolved)")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Service policy: queue caps, fairness quantum, admission mode.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Global queue capacity; submissions beyond it are rejected.
    pub queue_cap: usize,
    /// Per-tenant queued-share capacity.
    pub tenant_queue_cap: usize,
    /// Per-tenant in-flight capacity (excess stays queued).
    pub tenant_inflight_cap: usize,
    /// DRR credit earned per wave per unit weight, in rounds.
    pub quantum: u64,
    /// `true` (default): continuous batching — admission re-opens at
    /// every wave. `false`: wait-for-batch-boundary — admission only
    /// when the flight is empty (the baseline policy E17 measures
    /// against).
    pub continuous: bool,
    /// Per-tenant scheduling weights (default weight 1).
    pub weights: BTreeMap<TenantId, u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_cap: 1024,
            tenant_queue_cap: 1024,
            tenant_inflight_cap: 16,
            quantum: 256,
            continuous: true,
            weights: BTreeMap::new(),
        }
    }
}

impl ServiceConfig {
    /// The wait-for-batch-boundary baseline policy (identical in every
    /// other respect).
    pub fn boundary() -> Self {
        ServiceConfig {
            continuous: false,
            ..ServiceConfig::default()
        }
    }

    /// Sets a tenant's scheduling weight (builder style).
    pub fn weight(mut self, tenant: TenantId, weight: u64) -> Self {
        self.weights.insert(tenant, weight.max(1));
        self
    }
}

/// Builder for a [`Service`] (mirrors
/// [`Network::builder`](crate::Network::builder)).
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    topo: Topology,
    cfg: SingleWalkConfig,
    svc: ServiceConfig,
    seed: u64,
    anchor: NodeId,
}

impl ServiceBuilder {
    /// Replaces the engine configuration.
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.cfg.engine = engine;
        self
    }

    /// Replaces the whole walk configuration.
    pub fn config(mut self, cfg: SingleWalkConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Replaces the service policy.
    pub fn service_config(mut self, svc: ServiceConfig) -> Self {
        self.svc = svc;
        self
    }

    /// Sets the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the session's BFS anchor (default: node 0).
    pub fn anchor(mut self, anchor: NodeId) -> Self {
        self.anchor = anchor;
        self
    }

    /// Builds the service. Cheap: the session (one BFS) is created by
    /// the first walk-bearing admission.
    pub fn build(self) -> Service {
        let tenant_queue_cap = self.svc.tenant_queue_cap.min(self.svc.queue_cap);
        Service {
            queue: AdmissionQueue::new(self.svc.queue_cap, tenant_queue_cap),
            topo: self.topo,
            cfg: self.cfg,
            svc: self.svc,
            base_seed: self.seed,
            anchor: self.anchor,
            session: None,
            flight: Vec::new(),
            inflight: BTreeMap::new(),
            ledger: FairLedger::default(),
            ready: BTreeMap::new(),
            done_order: VecDeque::new(),
            next_ticket: 0,
            next_seq: 0,
            last_recorder: 0,
            clock_base: 0,
            setup_rounds: 0,
            churn_rounds: 0,
            waves: 0,
            rejected: 0,
        }
    }
}

/// One in-flight request: its driver slot plus its timeline and bill.
struct FlightEntry {
    /// Admission sequence number: stable, strictly increasing — the
    /// recorder-rotation key and walk-distribution key.
    seq: usize,
    ticket: Ticket,
    tenant: TenantId,
    slot: drivers::Slot,
    submitted_at: u64,
    admitted_at: u64,
    billed: u64,
}

/// The continuous-batching walk service (see the module docs).
pub struct Service {
    topo: Topology,
    cfg: SingleWalkConfig,
    svc: ServiceConfig,
    base_seed: u64,
    anchor: NodeId,
    session: Option<WalkSession>,
    queue: AdmissionQueue,
    flight: Vec<FlightEntry>,
    inflight: BTreeMap<TenantId, usize>,
    ledger: FairLedger,
    ready: BTreeMap<u64, Completion>,
    done_order: VecDeque<u64>,
    next_ticket: u64,
    next_seq: usize,
    last_recorder: usize,
    /// `now() = clock_base + engine rounds`: bumped only by idle
    /// fast-forwards, so the clock advances exactly with engine work.
    clock_base: u64,
    setup_rounds: u64,
    churn_rounds: u64,
    waves: u64,
    rejected: u64,
}

/// A summary of the service's accounting, reconciling per-tenant bills
/// against the engine's own round totals.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Rounds of the one-time session setup (anchor BFS).
    pub setup_rounds: u64,
    /// Rounds of incremental churn repair (billed to the service, not
    /// to tenants).
    pub churn_rounds: u64,
    /// Waves run so far.
    pub waves: u64,
    /// The engine's total round count ([`WalkSession::total_rounds`]).
    pub engine_rounds: u64,
    /// Per-tenant standing, in tenant-id order.
    pub tenants: BTreeMap<TenantId, TenantBill>,
    /// Total completions delivered (including per-request errors).
    pub completed: u64,
    /// Total submissions rejected by admission control.
    pub rejected: u64,
}

impl ServiceReport {
    /// Sum of all tenants' billed rounds.
    pub fn billed_total(&self) -> u64 {
        self.tenants.values().map(|b| b.billed_rounds).sum()
    }

    /// The accounting identity: tenant bills plus the service's own
    /// setup and churn buckets must equal the engine's round total
    /// *exactly*.
    pub fn reconciles(&self) -> bool {
        self.setup_rounds + self.churn_rounds + self.billed_total() == self.engine_rounds
    }
}

/// The outcome of serving one [`ArrivalTrace`] to completion.
#[derive(Debug)]
pub struct TraceRun {
    /// Every completion, in resolution order.
    pub completions: Vec<Completion>,
    /// Rejected submissions: `(event index, why)`.
    pub rejections: Vec<(usize, SubmitError)>,
}

impl Service {
    /// Starts building a service over a static graph (wrapped into a
    /// private [`Topology`]).
    pub fn builder(g: &Graph) -> ServiceBuilder {
        Service::over(Topology::new(g.clone()))
    }

    /// Starts building a service over a *shared* versioned topology:
    /// deltas applied by other components are observed live.
    pub fn over(topo: Topology) -> ServiceBuilder {
        ServiceBuilder {
            topo,
            cfg: SingleWalkConfig::default(),
            svc: ServiceConfig::default(),
            seed: 0,
            anchor: 0,
        }
    }

    /// The current virtual time, in rounds (see the module docs).
    pub fn now(&self) -> u64 {
        self.clock_base + self.engine_rounds()
    }

    /// Queued (not yet admitted) submissions.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.flight.len()
    }

    /// Whether the service has no work standing (completions may still
    /// await collection).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.flight.is_empty()
    }

    /// The versioned topology the service serves.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The shared session, if the first admission created it already.
    pub fn session(&self) -> Option<&WalkSession> {
        self.session.as_ref()
    }

    /// The accounting summary (see [`ServiceReport::reconciles`]).
    pub fn report(&self) -> ServiceReport {
        ServiceReport {
            setup_rounds: self.setup_rounds,
            churn_rounds: self.churn_rounds,
            waves: self.waves,
            engine_rounds: self.engine_rounds(),
            tenants: self.ledger.bills().clone(),
            completed: self.ledger.bills().values().map(|b| b.completed).sum(),
            rejected: self.rejected,
        }
    }

    /// Submits a request at the current virtual time.
    ///
    /// # Errors
    ///
    /// [`SubmitError`] when admission control refuses the submission
    /// (global or per-tenant queue cap).
    pub fn submit(&mut self, tenant: TenantId, request: Request) -> Result<Ticket, SubmitError> {
        self.submit_at(tenant, request, self.now())
    }

    /// Submits with an explicit (past) arrival timestamp — what
    /// [`Service::serve_trace`] uses so queueing delay is measured from
    /// the trace's arrival time, not from ingestion.
    fn submit_at(
        &mut self,
        tenant: TenantId,
        request: Request,
        at: u64,
    ) -> Result<Ticket, SubmitError> {
        let weight = self.svc.weights.get(&tenant).copied().unwrap_or(1);
        self.ledger.ensure(tenant, weight, self.svc.quantum);
        let ticket = Ticket(self.next_ticket);
        let pending = Pending {
            ticket,
            tenant,
            request,
            submitted_at: at.min(self.now()),
        };
        match self.queue.try_push(pending) {
            Ok(()) => {
                self.next_ticket += 1;
                Ok(ticket)
            }
            Err(e) => {
                self.ledger.note_rejected(tenant);
                self.rejected += 1;
                Err(e)
            }
        }
    }

    /// Polls a ticket. [`TicketPoll::Ready`] surrenders the completion:
    /// a second poll of the same ticket returns
    /// [`ServiceError::UnknownTicket`] — tickets resolve exactly once.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownTicket`] for never-issued or
    /// already-resolved tickets.
    pub fn poll(&mut self, ticket: Ticket) -> Result<TicketPoll, ServiceError> {
        if let Some(c) = self.ready.remove(&ticket.0) {
            return Ok(TicketPoll::Ready(Box::new(c)));
        }
        if self.queue.contains(ticket) || self.flight.iter().any(|e| e.ticket == ticket) {
            return Ok(TicketPoll::Pending);
        }
        Err(ServiceError::UnknownTicket(ticket.0))
    }

    /// Drains every uncollected completion, in resolution order.
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        while let Some(id) = self.done_order.pop_front() {
            // Polled tickets leave a stale id behind; skip them.
            if let Some(c) = self.ready.remove(&id) {
                out.push(c);
            }
        }
        out
    }

    /// Runs scheduling steps until no work is standing.
    ///
    /// # Errors
    ///
    /// Only service-fatal engine failures; per-request errors are
    /// streamed as completions.
    pub fn run_until_idle(&mut self) -> Result<(), Error> {
        while !self.is_idle() {
            self.pump()?;
        }
        Ok(())
    }

    /// Serves an [`ArrivalTrace`] to completion: events are submitted
    /// once the virtual clock reaches their timestamp, the pump runs,
    /// and idle gaps fast-forward to the next arrival. Deterministic
    /// for a given `(trace, seed)` pair.
    ///
    /// # Errors
    ///
    /// As [`Service::run_until_idle`].
    pub fn serve_trace(&mut self, trace: &ArrivalTrace) -> Result<TraceRun, Error> {
        let events = trace.events();
        let mut idx = 0;
        let mut rejections = Vec::new();
        loop {
            while idx < events.len() && events[idx].at <= self.now() {
                let e = &events[idx];
                if let Err(err) = self.submit_at(e.tenant, e.request.clone(), e.at) {
                    rejections.push((idx, err));
                }
                idx += 1;
            }
            self.pump()?;
            if self.is_idle() {
                match events.get(idx) {
                    Some(next) => self.advance_to(next.at),
                    None => break,
                }
            }
        }
        Ok(TraceRun {
            completions: self.drain(),
            rejections,
        })
    }

    /// One scheduling step (see the module docs). Returns whether
    /// anything happened — `false` only when the service is idle.
    ///
    /// # Errors
    ///
    /// Service-fatal failures only: session attach/repair failures and
    /// engine errors. Per-request errors (bad sources, uncoverable
    /// trees, rejected deltas) resolve their own ticket with an `Err`
    /// response and never poison other tenants' work.
    pub fn pump(&mut self) -> Result<bool, Error> {
        let mut progressed = false;
        // 1. Barriers: with nothing in flight, leading deltas apply now.
        while self.flight.is_empty() {
            let Some(p) = self.queue.pop_front_mutate() else {
                break;
            };
            let Request::Mutate(delta) = &p.request else {
                unreachable!("pop_front_mutate returns mutations only");
            };
            let outcome = match self.topo.apply(delta) {
                Ok(report) => Ok(Response::Epoch(report)),
                Err(e) => Err(Error::Graph(e)),
            };
            let now = self.now();
            self.resolve(p.ticket, p.tenant, p.submitted_at, now, 0, outcome);
            progressed = true;
        }
        if self.is_idle() {
            return Ok(progressed);
        }

        // 2. Session + churn repair (the barrier loop above guarantees
        // any front-of-queue delta is already applied, so the session
        // always attaches to the epoch it will serve).
        self.ensure_session()?;
        {
            let session = self.session.as_mut().expect("session just ensured");
            let before = session.total_rounds();
            session.sync()?;
            self.churn_rounds += session.total_rounds() - before;
        }

        // 3. Admission.
        let boundary = self.flight.is_empty();
        if self.svc.continuous || boundary {
            let active: Vec<TenantId> = {
                let mut t: Vec<TenantId> = self.queue.tenants().collect();
                t.extend(
                    self.inflight
                        .iter()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(&t, _)| t),
                );
                t.sort_unstable();
                t.dedup();
                t
            };
            self.ledger.credit(active, self.svc.quantum);
            let cap = self.svc.tenant_inflight_cap;
            let fair = self.svc.continuous;
            let mut granted: BTreeMap<TenantId, usize> = BTreeMap::new();
            let (queue, ledger, inflight) = (&mut self.queue, &self.ledger, &self.inflight);
            let mut admitted = queue.drain_admissible(|p| {
                let seated = inflight.get(&p.tenant).copied().unwrap_or(0)
                    + granted.get(&p.tenant).copied().unwrap_or(0);
                if seated >= cap || (fair && !ledger.admissible(p.tenant)) {
                    return false;
                }
                *granted.entry(p.tenant).or_insert(0) += 1;
                true
            });
            if admitted.is_empty() && boundary && !self.queue.is_empty() {
                // Progress guarantee: every queued tenant is over
                // budget and nothing is in flight — admit the front
                // entry anyway (the barrier loop above guarantees it is
                // not a delta).
                admitted.extend(self.queue.pop_front());
            }
            for p in admitted {
                self.admit(p);
                progressed = true;
            }
        }
        if self.flight.is_empty() {
            // Everything admitted resolved instantly (empty cohorts,
            // invalid sources); queued work waits for the next step.
            return Ok(progressed);
        }

        // 4. One shared wave step over the whole flight
        // (`drivers::wave_step`): the policy here is billing — every
        // member's private rounds and exact wave share go to its
        // tenant — and failing tickets one by one.
        let members: Vec<Member<'_>> = self
            .flight
            .iter_mut()
            .enumerate()
            .map(|(pos, entry)| Member {
                key: entry.seq,
                req: pos as u16,
                slot: &mut entry.slot,
            })
            .collect();
        let session = self.session.as_mut().expect("session ensured above");
        let (steps, wave) = drivers::wave_step(session, members, &mut self.last_recorder)?;
        let mut pump_billed = 0u64;
        let mut failed: Vec<(usize, Error)> = Vec::new();
        for (entry, step) in self.flight.iter_mut().zip(steps) {
            let billed = step.private_rounds + step.wave_share;
            entry.billed += billed;
            pump_billed += billed;
            self.ledger.bill(entry.tenant, billed);
            if let Err(e) = step.result {
                failed.push((entry.seq, e));
            }
        }
        for (seq, e) in failed {
            self.fail_flight(seq, e);
            progressed = true;
        }
        if wave.is_none() {
            return Ok(progressed);
        }
        self.waves += 1;

        // 5. Stream completions out of the flight.
        let done: Vec<usize> = self
            .flight
            .iter()
            .filter(|e| e.slot.response.is_some())
            .map(|e| e.seq)
            .collect();
        for seq in done {
            let pos = self
                .flight
                .iter()
                .position(|e| e.seq == seq)
                .expect("just listed");
            let mut entry = self.flight.remove(pos);
            let response = entry.slot.response.take().expect("resolved entries only");
            self.land(entry, Ok(response));
        }

        // 6. Fair-share recredit: redistribute this step's billed
        // rounds to the tenants *still competing*, proportionally to
        // weight — so aggregate earnings track aggregate billing and
        // deferral hits only tenants consuming beyond their share (a
        // fixed quantum alone would throttle everyone whenever waves
        // cost more than the combined quantum income). Tenants whose
        // work all drained reset to their starting balance, the classic
        // DRR deficit reset on queue drain.
        let active: Vec<TenantId> = {
            let mut t: Vec<TenantId> = self.queue.tenants().collect();
            t.extend(self.flight.iter().map(|e| e.tenant));
            t.sort_unstable();
            t.dedup();
            t
        };
        self.ledger.credit_share(&active, pump_billed);
        self.ledger.settle_idle(&active, self.svc.quantum);
        Ok(true)
    }

    fn engine_rounds(&self) -> u64 {
        self.session.as_ref().map_or(0, |s| s.total_rounds())
    }

    /// Fast-forwards the virtual clock to `t` (no-op if `t` is past).
    fn advance_to(&mut self, t: u64) {
        let now = self.now();
        if t > now {
            self.clock_base += t - now;
        }
    }

    fn ensure_session(&mut self) -> Result<(), Error> {
        if self.session.is_none() {
            let session = WalkSession::attach(
                &self.topo,
                self.anchor,
                &self.cfg,
                derive_seed(self.base_seed, SERVICE_SEED_TAG),
            )?;
            self.setup_rounds = session.total_rounds();
            self.session = Some(session);
        }
        Ok(())
    }

    /// Moves a queued entry into flight (or resolves it immediately:
    /// invalid requests fail their own ticket, empty cohorts are born
    /// resolved).
    fn admit(&mut self, p: Pending) {
        let g = self.session.as_ref().expect("session ensured").graph();
        let slot = match drivers::new_slot(p.request, &g) {
            Ok(slot) => slot,
            Err(e) => {
                let now = self.now();
                self.resolve(p.ticket, p.tenant, p.submitted_at, now, 0, Err(e));
                return;
            }
        };
        self.ledger.note_admitted(p.tenant);
        let mut entry = FlightEntry {
            seq: self.next_seq,
            ticket: p.ticket,
            tenant: p.tenant,
            slot,
            submitted_at: p.submitted_at,
            admitted_at: self.now(),
            billed: 0,
        };
        self.next_seq += 1;
        if let Some(response) = entry.slot.response.take() {
            self.resolve(
                entry.ticket,
                entry.tenant,
                entry.submitted_at,
                entry.admitted_at,
                0,
                Ok(response),
            );
        } else {
            *self.inflight.entry(p.tenant).or_insert(0) += 1;
            self.flight.push(entry);
        }
    }

    /// Resolves and removes an in-flight entry with a per-request
    /// error.
    fn fail_flight(&mut self, seq: usize, e: Error) {
        let pos = self
            .flight
            .iter()
            .position(|entry| entry.seq == seq)
            .expect("failed entry is in flight");
        let entry = self.flight.remove(pos);
        self.land(entry, Err(e));
    }

    /// Completes a former flight entry.
    fn land(&mut self, entry: FlightEntry, response: Result<Response, Error>) {
        let seats = self
            .inflight
            .get_mut(&entry.tenant)
            .expect("in-flight tenant is counted");
        *seats -= 1;
        self.resolve(
            entry.ticket,
            entry.tenant,
            entry.submitted_at,
            entry.admitted_at,
            entry.billed,
            response,
        );
    }

    /// Records a completion for collection.
    fn resolve(
        &mut self,
        ticket: Ticket,
        tenant: TenantId,
        submitted_at: u64,
        admitted_at: u64,
        billed_rounds: u64,
        response: Result<Response, Error>,
    ) {
        self.ledger.note_completed(tenant);
        let completion = Completion {
            ticket,
            tenant,
            response,
            submitted_at,
            admitted_at,
            completed_at: self.now(),
            billed_rounds,
        };
        self.done_order.push_back(ticket.0);
        self.ready.insert(ticket.0, completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_walk::WalkError;
    use drw_graph::{generators, TopologyDelta};

    #[test]
    fn submit_pump_poll_roundtrip() {
        let g = generators::torus2d(4, 4);
        let mut svc = Service::builder(&g).seed(7).build();
        let t0 = svc.submit(0, Request::walk(0, 128)).unwrap();
        let t1 = svc.submit(1, Request::walk(5, 128)).unwrap();
        assert!(matches!(svc.poll(t0), Ok(TicketPoll::Pending)));
        svc.run_until_idle().unwrap();
        let TicketPoll::Ready(c0) = svc.poll(t0).unwrap() else {
            panic!("t0 unresolved");
        };
        let walk = c0.response.clone().unwrap().into_walk();
        assert_eq!((walk.destination / 4 + walk.destination % 4) % 2, 0);
        // Exactly-once: the second poll no longer knows the ticket.
        assert!(matches!(
            svc.poll(t0),
            Err(ServiceError::UnknownTicket(id)) if id == t0.id()
        ));
        // The drain sees only what poll has not surrendered.
        let rest = svc.drain();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].ticket, t1);
        let report = svc.report();
        assert!(report.reconciles(), "{report:?}");
        assert_eq!(report.completed, 2);
    }

    #[test]
    fn mid_flight_admission_joins_the_running_session() {
        let g = generators::torus2d(5, 5);
        let mut svc = Service::builder(&g).seed(11).build();
        // A tree that starts at 8 steps needs several doubling phases.
        let tree = crate::request::TreeRequest {
            initial_len: 8,
            ..crate::request::TreeRequest::new(0)
        };
        let slow = svc.submit(0, Request::SpanningTree(tree)).unwrap();
        // Get the tree request into flight first.
        svc.pump().unwrap();
        assert_eq!(svc.in_flight(), 1);
        // A late arrival must be admitted while the tree is mid-flight.
        let late = svc.submit(1, Request::walk(3, 64)).unwrap();
        svc.pump().unwrap();
        assert!(
            matches!(svc.poll(late), Ok(TicketPoll::Ready(_))),
            "late walk rode the in-flight wave"
        );
        assert!(matches!(svc.poll(slow), Ok(TicketPoll::Pending)));
        svc.run_until_idle().unwrap();
        let TicketPoll::Ready(c) = svc.poll(slow).unwrap() else {
            panic!("tree unresolved");
        };
        let tree = c.response.clone().unwrap().into_tree();
        assert_eq!(tree.edges.len(), g.n() - 1);
    }

    #[test]
    fn mutate_is_a_stream_barrier() {
        let g = generators::torus2d(4, 4);
        let mut svc = Service::builder(&g).seed(3).build();
        let w1 = svc.submit(0, Request::walk(0, 64)).unwrap();
        let d = svc
            .submit(0, Request::mutate(TopologyDelta::new().add_edge(0, 10)))
            .unwrap();
        let w2 = svc.submit(1, Request::walk(10, 64)).unwrap();
        // One pump: w1 admitted; the delta and w2 must both wait.
        svc.pump().unwrap();
        assert!(matches!(svc.poll(d), Ok(TicketPoll::Pending)));
        assert!(matches!(svc.poll(w2), Ok(TicketPoll::Pending)));
        svc.run_until_idle().unwrap();
        let TicketPoll::Ready(c1) = svc.poll(w1).unwrap() else {
            panic!()
        };
        let TicketPoll::Ready(cd) = svc.poll(d).unwrap() else {
            panic!()
        };
        let TicketPoll::Ready(c2) = svc.poll(w2).unwrap() else {
            panic!()
        };
        // The delta applied after w1 and before w2 (virtual-time order).
        assert!(c1.completed_at <= cd.completed_at);
        assert!(cd.completed_at <= c2.admitted_at);
        assert_eq!(cd.response.clone().unwrap().into_epoch().epoch, 1);
        assert_eq!(svc.session().unwrap().epoch(), 1);
        assert!(svc.report().reconciles());
    }

    #[test]
    fn per_request_errors_do_not_poison_the_stream() {
        let g = generators::torus2d(4, 4);
        let mut svc = Service::builder(&g).seed(5).build();
        let good = svc.submit(0, Request::walk(0, 64)).unwrap();
        let bad = svc.submit(1, Request::walk(99, 64)).unwrap();
        let rejected_delta = svc
            .submit(2, Request::mutate(TopologyDelta::new().remove_edge(0, 5)))
            .unwrap();
        let also_good = svc.submit(0, Request::walk(5, 64)).unwrap();
        svc.run_until_idle().unwrap();
        let TicketPoll::Ready(c) = svc.poll(bad).unwrap() else {
            panic!()
        };
        assert!(matches!(
            c.response,
            Err(Error::Walk(WalkError::SourceOutOfRange(99)))
        ));
        let TicketPoll::Ready(c) = svc.poll(rejected_delta).unwrap() else {
            panic!()
        };
        assert!(matches!(c.response, Err(Error::Graph(_))));
        assert_eq!(svc.topology().epoch(), 0, "rejected deltas change nothing");
        for t in [good, also_good] {
            let TicketPoll::Ready(c) = svc.poll(t).unwrap() else {
                panic!()
            };
            assert!(c.response.is_ok());
        }
        assert!(svc.report().reconciles());
    }

    #[test]
    fn queue_caps_reject_typed() {
        let g = generators::torus2d(4, 4);
        let svc_cfg = ServiceConfig {
            queue_cap: 2,
            tenant_queue_cap: 1,
            ..ServiceConfig::default()
        };
        let mut svc = Service::builder(&g).service_config(svc_cfg).build();
        svc.submit(0, Request::walk(0, 8)).unwrap();
        assert_eq!(
            svc.submit(0, Request::walk(0, 8)),
            Err(SubmitError::TenantQueueFull { tenant: 0, cap: 1 })
        );
        svc.submit(1, Request::walk(0, 8)).unwrap();
        assert_eq!(
            svc.submit(2, Request::walk(0, 8)),
            Err(SubmitError::QueueFull { cap: 2 })
        );
        assert_eq!(svc.report().rejected, 2);
    }

    #[test]
    fn boundary_policy_defers_admission_to_the_drain() {
        let g = generators::torus2d(5, 5);
        let mut svc = Service::builder(&g)
            .service_config(ServiceConfig::boundary())
            .seed(13)
            .build();
        let _slow = svc.submit(0, Request::spanning_tree(0)).unwrap();
        svc.pump().unwrap();
        assert_eq!(svc.in_flight(), 1);
        let late = svc.submit(1, Request::walk(3, 64)).unwrap();
        svc.pump().unwrap();
        // Wait-for-batch-boundary: the walk stays queued while the tree
        // is in flight.
        assert!(svc.queue.contains(late), "boundary policy admitted early");
        svc.run_until_idle().unwrap();
        assert!(matches!(svc.poll(late), Ok(TicketPoll::Ready(_))));
        assert!(svc.report().reconciles());
    }

    #[test]
    fn empty_cohorts_resolve_instantly() {
        let g = generators::torus2d(4, 4);
        let mut svc = Service::builder(&g).build();
        let t = svc.submit(0, Request::many_walks(Vec::new(), 64)).unwrap();
        svc.pump().unwrap();
        let TicketPoll::Ready(c) = svc.poll(t).unwrap() else {
            panic!()
        };
        let r = c.response.clone().unwrap().into_many_walks();
        assert!(r.destinations.is_empty());
        assert_eq!(c.billed_rounds, 0);
    }

    #[test]
    fn serve_trace_is_deterministic() {
        let g = generators::torus2d(4, 4);
        let spec = MixedTraceSpec {
            mutate_pct: 8,
            churn_pairs: vec![(0, 10), (5, 15)],
            ..MixedTraceSpec::balanced(g.n(), 3, 24)
        };
        let trace = ArrivalTrace::synthesize(&spec, 17);
        let run = |seed: u64| {
            let mut svc = Service::builder(&g).seed(seed).build();
            let out = svc.serve_trace(&trace).unwrap();
            let digest: Vec<(u64, u64, u64)> = out
                .completions
                .iter()
                .map(|c| (c.ticket.id(), c.completed_at, c.billed_rounds))
                .collect();
            (digest, svc.report().engine_rounds)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).1, run(10).1, "seed must matter");
    }
}

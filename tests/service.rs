//! Acceptance tests for the continuous-batching walk service:
//! fairness/accounting invariants under arbitrary seeded arrival
//! traces (proptest), and bit-identical trace service on replay; and the
//! long-horizon soak — a session's state stays bounded however many
//! arrivals it has served.

use distributed_random_walks::prelude::*;
use proptest::prelude::*;

/// A mixed multi-tenant trace with churn on the standard test torus.
fn mixed_trace(n: usize, side: usize, tenants: u32, events: usize, seed: u64) -> ArrivalTrace {
    let spec = MixedTraceSpec {
        mean_gap: 48,
        walk_len_min: 16,
        walk_len_max: 128,
        mutate_pct: 10,
        // Diagonal chords — never torus edges, so deltas always apply.
        churn_pairs: vec![(0, side + 1), (1, n - 1)],
        ..MixedTraceSpec::balanced(n, tenants, events)
    };
    ArrivalTrace::synthesize(&spec, seed)
}

fn serve(g: &Graph, trace: &ArrivalTrace, cfg: SingleWalkConfig, seed: u64) -> (TraceRun, Service) {
    let mut svc = Service::builder(g).config(cfg).seed(seed).build();
    let run = svc.serve_trace(trace).expect("trace serves");
    (run, svc)
}

/// One completion, flattened for bit-identity comparison. `Debug`
/// covers every field of the response payloads (destinations, tree
/// edges, probe verdicts, epoch reports), so any divergence shows.
fn digest(run: &TraceRun, svc: &Service) -> String {
    let mut out = String::new();
    for c in &run.completions {
        out.push_str(&format!(
            "{} t{} sub{} adm{} done{} bill{} {:?}\n",
            c.ticket.id(),
            c.tenant,
            c.submitted_at,
            c.admitted_at,
            c.completed_at,
            c.billed_rounds,
            c.response,
        ));
    }
    let rep = svc.report();
    out.push_str(&format!(
        "setup{} churn{} waves{} engine{} bills{:?}",
        rep.setup_rounds, rep.churn_rounds, rep.waves, rep.engine_rounds, rep.tenants
    ));
    out
}

/// The determinism contract, extended to the service: a given
/// `(trace, seed)` pair yields bit-identical completions, timelines and
/// bills when served again — after another service on the same thread,
/// under the configuration the retired `"sharded"` executor name
/// resolves to.
#[test]
fn trace_service_is_identical_across_executors() {
    let g = generators::torus2d(6, 6);
    let trace = mixed_trace(g.n(), 6, 3, 18, 0xE17);
    let (first_run, first_svc) = serve(&g, &trace, SingleWalkConfig::default(), 99);
    assert!(first_svc.report().reconciles());
    let kind = ExecutorKind::from_name("sharded").expect("the name still parses");
    let cfg = SingleWalkConfig {
        engine: EngineConfig::default().with_executor(kind),
        ..SingleWalkConfig::default()
    };
    let (run, svc) = serve(&g, &trace, cfg, 99);
    assert_eq!(
        digest(&run, &svc),
        digest(&first_run, &first_svc),
        "the replay diverged"
    );
}

/// Deficit round-robin must not let a hog tenant starve a light one:
/// a light tenant's single short walk, queued *behind* a 12-deep convoy
/// of long hog walks (in-flight cap 4, so the convoy drains over many
/// waves), jumps the deferred hog entries once the hog is over budget
/// and completes before the convoy does. Pure FIFO would serve it last.
#[test]
fn light_tenant_is_not_starved_by_a_hog() {
    let g = generators::torus2d(6, 6);
    let mut svc = Service::builder(&g)
        .service_config(ServiceConfig {
            tenant_inflight_cap: 4,
            ..ServiceConfig::default()
        })
        .seed(5)
        .build();
    for i in 0..12 {
        svc.submit(0, Request::walk(i % g.n(), 2048)).expect("caps");
    }
    let light_ticket = svc.submit(1, Request::walk(7, 32)).expect("caps");
    svc.run_until_idle().expect("drains");
    let TicketPoll::Ready(light) = svc.poll(light_ticket).expect("resolves") else {
        panic!("light walk unresolved");
    };
    let hog_last = svc
        .drain()
        .iter()
        .filter(|c| c.tenant == 0)
        .map(|c| c.completed_at)
        .max()
        .unwrap();
    assert!(light.response.is_ok());
    assert!(
        light.completed_at < hog_last,
        "light tenant ({}) should finish before the hog convoy drains ({})",
        light.completed_at,
        hog_last
    );
    assert!(svc.report().reconciles());
}

/// Serves `events` churned mixed arrivals on one `Service` (engine from
/// the environment, so the fault leg runs it over a lossy link) in
/// chunks of 250 and checks, at every chunk boundary: each arrival
/// completed exactly once, the bills reconcile, and the forwarding logs
/// hold at most twice the live store's steps plus one full launch.
/// Returns the session's bytes per node at each boundary.
fn soak(events: usize) -> Vec<f64> {
    let g = generators::torus2d(5, 5);
    let trace = mixed_trace(g.n(), 5, 3, events, 0x50A);
    let cfg = SingleWalkConfig {
        engine: drw_experiments::engine_config_from_env(),
        ..SingleWalkConfig::default()
    };
    let mut svc = Service::builder(&g).config(cfg.clone()).seed(7).build();
    let mut seen = std::collections::BTreeSet::new();
    let mut bytes_per_node = Vec::new();
    for chunk in trace.events().chunks(250) {
        let part = chunk.iter().fold(ArrivalTrace::new(), |t, e| {
            t.push(e.at, e.tenant, e.request.clone())
        });
        let run = svc.serve_trace(&part).expect("chunk serves");
        assert!(run.rejections.is_empty(), "default caps fit this load");
        assert_eq!(run.completions.len(), chunk.len());
        for c in &run.completions {
            assert!(seen.insert(c.ticket.id()), "duplicate completion");
        }
        assert!(svc.report().reconciles());

        // A reclaim check leaves `logged <= 2 * live`; until the next
        // one (a top-up or a repair) launches add to both sides and
        // consumption — capped by the top-up hysteresis at a quarter of
        // the store — only to the slack, which one full launch of the
        // store (every node's target at the longest length) covers.
        let session = svc.session().expect("served arrivals opened it");
        let state = session.state();
        let stored = state.nodes.iter().flat_map(|ns| &ns.store);
        let live: usize = stored
            .filter(|w| w.replayable)
            .map(|w| w.len as usize)
            .sum();
        let graph = session.graph();
        let targets = (0..graph.n()).map(|v| cfg.params.walks_for_degree(graph.degree(v)));
        let launch = targets.sum::<usize>() * 2 * session.store_lambda() as usize;
        let logged = state.forward_entries();
        assert!(
            logged <= 2 * live + launch,
            "after {} arrivals: {logged} logged, {live} live steps, launch {launch}",
            seen.len()
        );
        bytes_per_node.push(state.memory_report().bytes_per_node());
    }
    assert_eq!(seen.len(), events);
    bytes_per_node
}

#[test]
fn soak_keeps_session_state_bounded() {
    let _ = soak(2000);
}

/// The long horizon (run in CI, in release, over the smoke fault plan):
/// for 9 * 10^4 arrivals after the first 10^4, a node's state never
/// grows past 1.25x its peak over those first 10^4. The peak, not the
/// one sample at arrival 10^4: between two reclaims the logs swing
/// between one and two times the live store by design, so single
/// samples differ by more than 1.25x with no growth at all.
#[test]
#[ignore = "10^5 arrivals; run with --release -- --ignored soak"]
fn soak_long_horizon_state_is_flat() {
    let bytes = soak(100_000);
    let (warm_up, after) = bytes.split_at(10_000 / 250);
    let peak = |samples: &[f64]| samples.iter().copied().fold(0.0, f64::max);
    assert!(
        peak(after) <= 1.25 * peak(warm_up),
        "bytes per node grew from {} (first 10^4 arrivals) to {}",
        peak(warm_up),
        peak(after)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Under arbitrary seeded traces: every ticket resolves exactly
    /// once, per-tenant counters balance, and the per-tenant round
    /// bills reconcile **exactly** against the engine's round totals.
    #[test]
    fn accounting_reconciles_and_tickets_resolve_exactly_once(
        trace_seed in 0u64..1000,
        svc_seed in 0u64..1000,
        events in 4usize..20,
        tenants in 1u32..5,
        continuous in 0u64..2,
    ) {
        let g = generators::torus2d(5, 5);
        let trace = mixed_trace(g.n(), 5, tenants, events, trace_seed);
        let svc_cfg = if continuous == 1 {
            ServiceConfig::default()
        } else {
            ServiceConfig::boundary()
        };
        let mut svc = Service::builder(&g)
            .service_config(svc_cfg)
            .seed(svc_seed)
            .build();
        let mut tickets = Vec::new();
        for e in trace.events() {
            tickets.push(svc.submit(e.tenant, e.request.clone()).expect("caps are large"));
        }
        svc.run_until_idle().expect("drains");

        // Exactly-once resolution: each ticket polls Ready once, then
        // is unknown; a never-issued ticket is always unknown.
        let mut by_tenant = std::collections::BTreeMap::new();
        for &t in &tickets {
            match svc.poll(t).expect("issued tickets resolve") {
                TicketPoll::Ready(c) => {
                    prop_assert_eq!(c.ticket, t);
                    prop_assert!(c.submitted_at <= c.admitted_at);
                    prop_assert!(c.admitted_at <= c.completed_at);
                    *by_tenant.entry(c.tenant).or_insert(0u64) += 1;
                }
                TicketPoll::Pending => prop_assert!(false, "idle service holds no pending work"),
            }
            prop_assert!(svc.poll(t).is_err(), "second poll must not resolve again");
        }
        prop_assert!(svc.drain().is_empty(), "polling consumed everything");

        // Per-tenant counters balance, and billing reconciles exactly.
        let rep = svc.report();
        prop_assert_eq!(rep.completed, tickets.len() as u64);
        for (tenant, bill) in &rep.tenants {
            prop_assert_eq!(bill.completed, by_tenant[tenant]);
            prop_assert!(bill.admitted <= bill.completed);
        }
        prop_assert!(
            rep.reconciles(),
            "setup {} + churn {} + billed {} != engine {}",
            rep.setup_rounds, rep.churn_rounds, rep.billed_total(), rep.engine_rounds
        );
    }

    /// `serve_trace` delivers one completion per trace event (minus
    /// typed rejections) and no tenant waits forever: admission
    /// latency is finite and bounded by the run's own span.
    #[test]
    fn serve_trace_completes_every_arrival(
        trace_seed in 0u64..1000,
        events in 4usize..16,
    ) {
        let g = generators::torus2d(5, 5);
        let trace = mixed_trace(g.n(), 5, 3, events, trace_seed);
        let (run, svc) = serve(&g, &trace, SingleWalkConfig::default(), trace_seed);
        prop_assert_eq!(run.completions.len() + run.rejections.len(), trace.len());
        prop_assert!(run.rejections.is_empty(), "default caps fit this load");
        let span = svc.now();
        let mut seen = std::collections::BTreeSet::new();
        for c in &run.completions {
            prop_assert!(seen.insert(c.ticket.id()), "duplicate completion");
            prop_assert!(c.admission_latency() <= span);
            prop_assert!(c.completed_at <= span);
        }
        prop_assert!(svc.report().reconciles());
    }
}

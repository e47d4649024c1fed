//! Acceptance tests for the continuous-batching walk service:
//! fairness/accounting invariants under arbitrary seeded arrival
//! traces (proptest), and bit-identical trace service across the
//! sequential and sharded executors at several worker counts.

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
/// `(trace, seed, executor)` triple yields bit-identical completions,
/// timelines and bills on the sequential backend and on the sharded
/// backend at several worker counts.
#[test]
fn trace_service_is_identical_across_executors() {
    let g = generators::torus2d(6, 6);
    let trace = mixed_trace(g.n(), 6, 3, 18, 0xE17);
    let cfg = |engine: EngineConfig| SingleWalkConfig {
        engine,
        ..SingleWalkConfig::default()
    };
    let (seq_run, seq_svc) = serve(&g, &trace, cfg(EngineConfig::default()), 99);
    let reference = digest(&seq_run, &seq_svc);
    assert!(seq_svc.report().reconciles());
    for workers in [1, 2, 4, 16] {
        let sharded = cfg(EngineConfig::default().with_workers(workers));
        let (run, svc) = serve(&g, &trace, sharded, 99);
        assert_eq!(
            digest(&run, &svc),
            reference,
            "sharded at {workers} workers diverged from sequential"
        );
    }
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

//! E17: the continuous-batching walk service (ISSUE 9's acceptance
//! workload) — one seeded arrival trace of mixed multi-tenant requests
//! (walks, `MANY-RANDOM-WALKS` cohorts, spanning trees, mixing probes,
//! interleaved churn deltas) served twice by `drw_core::Service`:
//!
//! - **continuous**: admission re-opens at every wave, so late arrivals
//!   ride rounds the in-flight work was paying for anyway;
//! - **boundary**: the wait-for-batch-boundary baseline — identical
//!   code path, but admission only when the flight has drained.
//!
//! Both runs consume the *same* trace under the same seed, so the gap
//! is pure scheduling policy. Acceptance (ISSUE 9): on the 32x32 torus,
//! late-arriving requests (virtual arrival time > 0) complete in
//! measurably fewer rounds under continuous batching, and in **both**
//! runs the per-tenant round bills reconcile *exactly* against the
//! engine's own round totals
//! (`setup + churn + sum(bills) == session.total_rounds()`).

use drw_core::{
    ArrivalTrace, Completion, MixedTraceSpec, Service, ServiceConfig, ServiceReport, TraceRun,
};
use drw_experiments::{table::f3, walk_config_from_env, workloads, Table};

fn mean(xs: impl Iterator<Item = u64>) -> f64 {
    let (mut sum, mut count) = (0u64, 0u64);
    for x in xs {
        sum += x;
        count += 1;
    }
    sum as f64 / count.max(1) as f64
}

/// Turnarounds of the late arrivals — the requests continuous batching
/// exists for (an arrival at time 0 rides the first wave either way).
fn late(completions: &[Completion]) -> impl Iterator<Item = u64> + '_ {
    completions
        .iter()
        .filter(|c| c.submitted_at > 0)
        .map(|c| c.turnaround())
}

fn serve(
    g: &drw_graph::Graph,
    trace: &ArrivalTrace,
    svc_cfg: ServiceConfig,
    seed: u64,
) -> (TraceRun, ServiceReport) {
    let mut svc = Service::builder(g)
        .config(walk_config_from_env())
        .service_config(svc_cfg)
        .seed(seed)
        .build();
    let run = svc.serve_trace(trace).expect("trace serves");
    (run, svc.report())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let side = if quick { 16 } else { 32 };
    let events = if quick { 24 } else { 64 };
    let w = workloads::torus(side);
    let g = &w.graph;
    let seed = 1717;

    // Churn toggles diagonal chords — never torus edges, so every
    // generated delta is valid and removal cannot disconnect. Arrival
    // cadence is set so the queue stays busy without saturating: under
    // a deep permanent backlog both policies are throughput-bound and
    // the scheduling gap vanishes; continuous batching's win is the
    // arrivals that land *while* a wave train is running.
    let spec = MixedTraceSpec {
        mean_gap: if quick { 96 } else { 192 },
        churn_pairs: vec![(0, side + 1), (side / 2, g.n() - 1)],
        ..MixedTraceSpec::balanced(g.n(), 3, events)
    };
    let trace = ArrivalTrace::synthesize(&spec, seed);
    let mutates = trace
        .events()
        .iter()
        .filter(|e| e.request.kind() == "mutate")
        .count();

    let (cont_run, cont_rep) = serve(g, &trace, ServiceConfig::default(), seed);
    let (base_run, base_rep) = serve(g, &trace, ServiceConfig::boundary(), seed);

    for (mode, run, rep) in [
        ("continuous", &cont_run, &cont_rep),
        ("boundary", &base_run, &base_rep),
    ] {
        assert!(run.rejections.is_empty(), "{mode}: unexpected rejections");
        assert_eq!(
            run.completions.len(),
            trace.len(),
            "{mode}: every ticket resolves"
        );
        // The acceptance identity, exact to the round in both modes.
        assert!(
            rep.reconciles(),
            "{mode}: bills do not reconcile: setup {} + churn {} + billed {} != engine {}",
            rep.setup_rounds,
            rep.churn_rounds,
            rep.billed_total(),
            rep.engine_rounds
        );
    }

    let mut t = Table::new(
        &format!(
            "E17 continuous-batching service on {side}x{side} {} — \
             {events} arrivals / 3 tenants / {mutates} deltas",
            w.name
        ),
        &[
            "mode",
            "waves",
            "engine rounds",
            "mean admission wait",
            "mean turnaround (late)",
        ],
    );
    for (mode, run, rep) in [
        ("continuous", &cont_run, &cont_rep),
        ("boundary", &base_run, &base_rep),
    ] {
        t.row(&[
            mode.into(),
            rep.waves.to_string(),
            rep.engine_rounds.to_string(),
            f3(mean(run.completions.iter().map(|c| c.admission_latency()))),
            f3(mean(late(&run.completions))),
        ]);
    }
    t.emit();

    let mut t2 = Table::new(
        "E17 per-tenant bills, continuous run",
        &[
            "tenant",
            "weight",
            "admitted",
            "completed",
            "billed rounds",
            "share",
        ],
    );
    let billed_total = cont_rep.billed_total().max(1);
    for (tenant, bill) in &cont_rep.tenants {
        t2.row(&[
            tenant.to_string(),
            bill.weight.to_string(),
            bill.admitted.to_string(),
            bill.completed.to_string(),
            bill.billed_rounds.to_string(),
            f3(bill.billed_rounds as f64 / billed_total as f64),
        ]);
    }
    t2.emit();

    let cont_late = mean(late(&cont_run.completions));
    let base_late = mean(late(&base_run.completions));
    let speedup = base_late / cont_late.max(1.0);
    println!(
        "boundary/continuous late-arrival turnaround ratio: {}{}",
        f3(speedup),
        if quick {
            " (16x16 smoke; the >= 1.2x acceptance bar applies to the full 32x32 run)"
        } else {
            " (acceptance: >= 1.2)"
        }
    );
    if !quick {
        assert!(
            speedup >= 1.2,
            "acceptance failed: boundary/continuous late turnaround = {speedup:.2} < 1.2"
        );
    }
}

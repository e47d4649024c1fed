//! Per-request failures are typed errors on every execution path — the
//! one-shot `Network::run`, `Network::run_batch` (which aborts on the
//! first one) and the `Service` (which resolves only the failing
//! ticket) — because all three advance the same drivers through the
//! same wave step. No request, however malformed, may panic the
//! process or poison a co-tenant's work.

use distributed_random_walks::prelude::*;

/// Serves `bad` next to a healthy walk from another tenant and returns
/// the bad ticket's error; the walk must complete and the accounting
/// must still reconcile to the round.
fn serve_next_to_a_walk(g: &Graph, bad: Request) -> DrwError {
    let mut svc = Service::builder(g).seed(1).build();
    let bad_ticket = svc.submit(0, bad).expect("queued");
    let walk_ticket = svc.submit(1, Request::walk(0, 8)).expect("queued");
    svc.run_until_idle().expect("no service-fatal failure");
    let TicketPoll::Ready(walk) = svc.poll(walk_ticket).expect("known ticket") else {
        panic!("co-tenant walk unresolved");
    };
    assert!(walk.response.is_ok(), "co-tenant walk was poisoned");
    let report = svc.report();
    assert!(report.reconciles(), "{report:?}");
    assert_eq!(report.completed, 2);
    let TicketPoll::Ready(failed) = svc.poll(bad_ticket).expect("known ticket") else {
        panic!("failing ticket unresolved");
    };
    failed.response.expect_err("the bad request must fail")
}

#[test]
fn undersampled_mixing_request_is_rejected_typed_on_every_path() {
    // ceil(0.5 * sqrt(3)) = 1 sample per probe: the collision estimator
    // needs pairs.
    let g = generators::path(3);
    let bad = || {
        Request::MixingTime(MixingRequest {
            samples_scale: 0.5,
            ..MixingRequest::new(0)
        })
    };
    let expected = DrwError::Walk(WalkError::TooFewSamples(1));

    let mut net = Network::builder(&g).seed(1).build();
    assert_eq!(net.run(bad()).unwrap_err(), expected);
    assert_eq!(
        net.run_batch(vec![Request::walk(0, 8), bad()]).unwrap_err(),
        expected
    );
    let session = net.session().expect("the batch opened the shared session");
    assert_eq!(
        session.total_rounds(),
        session.rounds_bfs(),
        "the batch must be rejected before any wave runs"
    );
    let legacy = MixingConfig {
        samples_scale: 0.5,
        ..MixingConfig::default()
    };
    assert_eq!(
        estimate_mixing_time(&g, 0, &legacy, 1).unwrap_err(),
        WalkError::TooFewSamples(1)
    );
    assert_eq!(serve_next_to_a_walk(&g, bad()), expected);
}

#[test]
fn exhausted_phase_budget_is_not_covered_on_every_path() {
    // One phase of length-1 walks cannot cover a 6x6 torus.
    let g = generators::torus2d(6, 6);
    for mode in [TreeMode::ExtendWalk, TreeMode::RestartPhases] {
        let bad = || {
            Request::SpanningTree(TreeRequest {
                mode,
                max_phases: 1,
                initial_len: 1,
                ..TreeRequest::new(0)
            })
        };
        let expected = DrwError::NotCovered {
            phases: 1,
            final_len: 1,
        };

        let mut net = Network::builder(&g).seed(1).build();
        assert_eq!(net.run(bad()).unwrap_err(), expected, "{mode:?}");
        assert_eq!(
            net.run_batch(vec![Request::walk(0, 8), bad()]).unwrap_err(),
            expected,
            "{mode:?}"
        );
        assert_eq!(serve_next_to_a_walk(&g, bad()), expected, "{mode:?}");
    }
}

#[test]
fn oversized_cohort_is_rejected_typed_on_the_shared_paths() {
    // One wave tags its walks with a 16-bit lane: 65536 of them used to
    // trip an `assert!` in the stitch scheduler and take every tenant
    // down with it. (One-shot, this short cohort is Theorem 2.8's
    // `k + l` regime: plain tokens, no lanes, and it is served.)
    let g = generators::torus2d(4, 4);
    let bad = || Request::many_walks(vec![0; 65_536], 8);
    let expected = DrwError::Walk(WalkError::TooManyLanes(65_536));

    let mut net = Network::builder(&g).seed(1).build();
    assert_eq!(
        net.run_batch(vec![Request::walk(0, 8), bad()]).unwrap_err(),
        expected
    );
    assert_eq!(serve_next_to_a_walk(&g, bad()), expected);

    // Two cohorts that fit one by one but not together take turns: the
    // second waits for a later wave instead of overflowing the first.
    let cohort = |shift: usize| -> Vec<usize> { (0..33_000).map(|i| (i + shift) % 16).collect() };
    let rs = net
        .run_batch(vec![
            Request::many_walks(cohort(0), 2),
            Request::many_walks(cohort(1), 2),
        ])
        .expect("each cohort fits a wave of its own");
    let parity = |v: usize| (v / 4 + v % 4) % 2;
    for (r, shift) in rs.into_iter().zip([0, 1]) {
        let many = r.into_many_walks();
        assert_eq!(many.destinations.len(), 33_000);
        for (source, &dest) in cohort(shift).into_iter().zip(&many.destinations) {
            assert_eq!(parity(source), parity(dest), "two steps keep parity");
        }
    }
}

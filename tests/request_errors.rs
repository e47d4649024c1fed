//! Per-request failures are typed errors on every execution path — the
//! one-shot `Network::run`, `Network::run_batch` (which aborts on the
//! first one) and the `Service` (which resolves only the failing
//! ticket) — because all three advance the same drivers through the
//! same wave step. No request, however malformed, may panic the
//! process or poison a co-tenant's work.

use distributed_random_walks::prelude::*;

/// Serves `bad` next to a healthy walk from another tenant and returns
/// the bad ticket's error; the walk must complete and the accounting
/// must still reconcile to the round. (On a graph without edges the
/// only healthy walk is the empty one.)
fn serve_next_to_a_walk(g: &Graph, bad: Request) -> DrwError {
    let mut svc = Service::builder(g).seed(1).build();
    let bad_ticket = svc.submit(0, bad).expect("queued");
    let len = if g.m() == 0 { 0 } else { 8 };
    let walk_ticket = svc.submit(1, Request::walk(0, len)).expect("queued");
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
    assert_eq!(serve_next_to_a_walk(&g, bad()), expected);
}

#[test]
fn a_step_off_a_lone_node_is_rejected_typed_on_every_path() {
    // Node 0 has no neighbour to step to; each path used to panic.
    let g = generators::path(1);
    let expected = DrwError::Walk(WalkError::Disconnected);
    let mut net = Network::builder(&g).seed(1).build();
    for bad in [
        Request::walk(0, 100),
        Request::ManyWalks {
            sources: vec![0, 0],
            len: 5,
        },
        Request::SpanningTree(TreeRequest::new(0)),
        Request::mixing_probe(0, 4),
    ] {
        assert_eq!(net.run(bad.clone()).unwrap_err(), expected, "{bad:?}");
        assert_eq!(
            net.run_batch(vec![Request::walk(0, 0), bad.clone()])
                .unwrap_err(),
            expected
        );
        assert_eq!(serve_next_to_a_walk(&g, bad), expected);
    }
    // The empty walk ends where it starts.
    let walk = net.run(Request::walk(0, 0)).unwrap().into_walk();
    assert_eq!(walk.destination, 0);
}

#[test]
fn malformed_bucket_base_is_rejected_typed_on_every_path() {
    // The degree buckets are the powers of the base: a base of 1 or
    // less, or NaN, used to trip an `assert!` inside the bucket test and
    // take every co-tenant down with it. On a star of 64 (degrees 63
    // and 1) a base b asks for floor(ln 63 / ln b) + 1 buckets against
    // K = 8 * sqrt(64) = 64 samples: 1.0001 wants ~41 400 buckets (and
    // cost ~41 000 rounds), and the two bases below it aborted the
    // process on allocation.
    let torus = generators::torus2d(4, 4);
    let star = generators::star(64);
    let cases = [
        (&torus, 1.0),
        (&torus, 0.5),
        (&torus, -2.0),
        (&torus, f64::NAN),
        (&star, 1.0001),
        (&star, 1.000_001),
        (&star, 1.0 + 1e-9),
    ];
    for (g, base) in cases {
        let bad = || {
            Request::MixingTime(MixingRequest {
                bucket_base: base,
                ..MixingRequest::new(0)
            })
        };
        let expected = DrwError::Walk(WalkError::BadBucketBase(base.to_bits()));

        let mut net = Network::builder(g).seed(1).build();
        assert_eq!(net.run(bad()).unwrap_err(), expected, "{base}");
        assert_eq!(
            net.run_batch(vec![Request::walk(0, 8), bad()]).unwrap_err(),
            expected,
            "{base}"
        );
        assert_eq!(serve_next_to_a_walk(g, bad()), expected, "{base}");
    }
    // The default base is still served on the star: 11 buckets for 64
    // samples.
    let mut net = Network::builder(&star).seed(1).build();
    let probe = net.run(Request::mixing_probe(0, 4)).unwrap().into_mixing();
    assert_eq!((probe.buckets, probe.samples_per_probe), (11, 64));
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

#[test]
fn fail_silent_loss_is_a_typed_error_on_every_path() {
    // Unhealed drops, fault seed 5. On the 6x6 torus at 2 % the
    // session's BFS tree loses a message, so every request there fails
    // before Phase 2 (whose claims, flooded over redundant routes, would
    // mostly get through); at 100 % the BFS reaches no one. Each used to
    // panic. On the 16-node path at 0.5 % a claim has one route and is
    // lost like any token, and so are Phase-1 walks; the ledgers forget
    // those before each re-issue pass, so the walk is still served.
    use drw_congest::FaultPlan;
    let (torus, path) = (generators::torus2d(6, 6), generators::path(16));
    let expected = DrwError::Walk(WalkError::MessagesLost);
    let lossy = |g: &Graph, per_mille| {
        let plan = FaultPlan::drops(5, per_mille).lossy();
        Network::builder(g)
            .engine(EngineConfig::default().with_faults(plan))
            .build()
    };
    let cases = [
        (&torus, 20, Request::walk(0, 400)),
        (&torus, 20, Request::many_walks(vec![0, 7, 14], 400)),
        (&torus, 20, Request::spanning_tree(0)),
        (&torus, 20, Request::mixing_probe(0, 16)),
        (&torus, 20, Request::MixingTime(MixingRequest::new(0))),
        (&torus, 1000, Request::walk(0, 400)),
        (&torus, 1000, Request::many_walks(vec![0, 7], 64)),
        (&torus, 1000, Request::spanning_tree(0)),
        (&torus, 1000, Request::mixing_probe(0, 16)),
    ];
    assert!(lossy(&path, 5).run(Request::walk(0, 2000)).is_ok());
    for (g, per_mille, bad) in cases {
        let lossy = |per_mille| lossy(g, per_mille);
        let label = format!("{per_mille} per mille, {bad:?}");
        assert_eq!(
            lossy(per_mille).run(bad.clone()).unwrap_err(),
            expected,
            "{label}"
        );
        let batch = vec![Request::walk(0, 0), bad];
        assert_eq!(
            lossy(per_mille).run_batch(batch).unwrap_err(),
            expected,
            "{label}"
        );
    }
}

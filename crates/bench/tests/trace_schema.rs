//! Tracing acceptance suite, mirroring `dse_schema.rs` for the trace
//! exporter: a live-collector quick sweep must (a) leave the Pareto fronts
//! bit-identical to a run over a detached handle (recording is
//! observation-only), (b) nest every session span under the `dse.eval`
//! that asked for it, and (c) produce a `rap/trace/v1` document that
//! passes the schema validator with span coverage at or above the floor.
//! That a detached handle costs nothing is pinned per call by `rap-obs`'s
//! `noop_overhead` bench.

use rap_bench::dse::{assert_fronts_identical, run_sweep};
use rap_bench::trace::{render, validate, MIN_COVERAGE, SCHEMA};
use rap_obs::{Collector, Obs};
use std::sync::Arc;

#[test]
fn traced_sweep_is_schema_valid_and_front_identical() {
    let collector = Arc::new(Collector::new());
    let root = Obs::collecting(&collector);
    let traced = {
        // everything under one top span, exactly like the bins do, so the
        // snapshot's coverage reflects the whole run
        let _main = root.span("bench.main");
        run_sweep(true, None, &root)
    };
    // snapshot before anything else runs: the collector's wall-clock keeps
    // ticking, so later work would dilute the coverage figure
    let snap = collector.snapshot();
    let untraced = run_sweep(true, None, &Obs::none());

    // observation-only: same fronts bit-for-bit (labels, periods, order)
    assert_fronts_identical(&traced.outcome, &untraced.outcome);
    assert!(
        snap.coverage() >= MIN_COVERAGE,
        "span tree accounts for {:.1}% of wall-clock, floor is {:.0}%",
        snap.coverage() * 100.0,
        MIN_COVERAGE * 100.0
    );
    // the sweep's own taxonomy shows up in the tree
    for name in ["dse.sweep", "dse.eval"] {
        assert!(
            snap.spans.iter().any(|s| s.name == name),
            "span {name:?} missing from trace"
        );
    }
    assert!(snap.counters.get("dse.enumerated") > 0);

    // spans nest by the thread's context, so every span the session opens
    // (`session.open` and `session.close` are the bench's, around the
    // store's open and its drop-time sync) sits inside the `dse.eval` that
    // asked for it, and the engine inside a query's compute
    let spans = &snap.spans;
    let name = |i: usize| spans[i].name;
    let ancestors = |mut i: usize| {
        std::iter::from_fn(move || {
            i = spans[i].parent? as usize;
            Some(i)
        })
    };
    let mut session_spans = 0;
    for (i, span) in spans.iter().enumerate() {
        if span.name.starts_with("session.")
            && span.name != "session.open"
            && span.name != "session.close"
        {
            session_spans += 1;
            assert!(
                ancestors(i).any(|a| name(a) == "dse.eval"),
                "{} (span {i}) has no dse.eval ancestor",
                span.name
            );
        }
        if span.name == "dse.eval" {
            assert!(
                span.children
                    .iter()
                    .any(|&c| name(c as usize) == "dse.build"),
                "dse.eval (span {i}) has no dse.build child"
            );
        }
        if span.name == "engine.explore" {
            assert_eq!(name(span.parent.unwrap() as usize), "session.compute");
        }
    }
    for name in ["session.compile", "session.query.check", "engine.explore"] {
        assert!(
            snap.spans.iter().any(|s| s.name == name),
            "span {name:?} missing from trace"
        );
    }
    assert!(session_spans > 0);

    let json = render(&snap);
    assert!(json.contains(SCHEMA));
    validate(&json).expect("emitted trace validates against rap/trace/v1");
}

#[test]
fn validator_enforces_the_coverage_floor() {
    // a collector whose root has children but whose spans account for
    // (essentially) none of the wall-clock must be rejected; the idle
    // stretch has to clear the absolute slack that exempts near-instant
    // runs, so sleep well past `COVERAGE_SLACK_NS`
    let collector = Arc::new(Collector::new());
    let obs = Obs::collecting(&collector);
    drop(obs.span("tiny"));
    std::thread::sleep(std::time::Duration::from_millis(25));
    let json = render(&collector.snapshot());
    let err = validate(&json).expect_err("under-covered trace must fail");
    assert!(err.contains("coverage"), "unexpected error: {err}");
}

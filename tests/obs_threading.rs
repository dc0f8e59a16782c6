//! The recorder rides the exploration config through every layer.
//!
//! Each entry point that explores a state space takes its `rap-obs` handle
//! from `ExploreConfig::obs` — directly (`explore_truncated`,
//! `explore_quotient_truncated`, `quick_check_with`, `Lts::explore_with`)
//! or through a session, whose queries run the engine inside their
//! `session.compute` span. For each one this suite attaches a live
//! collector and checks three things:
//!
//! * the engine's `engine.states` counter equals the returned state count;
//! * exactly one `engine.explore` span sits directly under the caller's
//!   span (`session.compute` for session queries, itself under the query's
//!   `session.query.<kind>` span), and no other engine span name appears;
//! * the result is bit-identical to the same call over a detached handle.

use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{to_petri, Dfs, Lts};
use rap::obs::{Collector, Obs, Snapshot};
use rap::petri::analysis::quick_check_with;
use rap::petri::reachability::{
    explore_quotient_truncated, explore_truncated, ExploreConfig, StateSpace,
};
use rap::Session;
use std::sync::Arc;

/// The caller's own span, under which the engine must nest its run.
const CALLER: &str = "test.caller";

fn pipeline() -> Dfs {
    build_pipeline(&PipelineSpec::reconfigurable_depth(2, 2).unwrap())
        .unwrap()
        .dfs
}

fn cfg(max_states: usize, obs: Obs) -> ExploreConfig {
    ExploreConfig {
        max_states,
        obs,
        ..ExploreConfig::default()
    }
}

/// Runs `f` with a config recording under a `CALLER` span of a fresh
/// collector, and returns the result with the collector's snapshot.
fn recorded<T>(max_states: usize, f: impl FnOnce(ExploreConfig) -> T) -> (T, Snapshot) {
    let collector = Arc::new(Collector::new());
    let out = {
        let obs = Obs::collecting(&collector);
        let _caller = obs.span(CALLER);
        f(cfg(max_states, obs.clone()))
    };
    (out, collector.snapshot())
}

/// The index of the span the snapshot's one engine span hangs off, after
/// checking that exactly one `engine.*` span was recorded, once, and that
/// it is `engine.explore`.
fn engine_parent(snap: &Snapshot) -> usize {
    let engine: Vec<_> = snap
        .spans
        .iter()
        .filter(|s| s.name.starts_with("engine."))
        .collect();
    assert_eq!(engine.len(), 1, "one engine span node: {engine:?}");
    assert_eq!(engine[0].name, "engine.explore");
    assert_eq!(engine[0].count, 1, "one exploration recorded");
    engine[0].parent.expect("the engine span has a parent") as usize
}

/// The name of span `i`'s parent.
fn parent_name(snap: &Snapshot, i: usize) -> &'static str {
    snap.spans[snap.spans[i].parent.expect("not the root") as usize].name
}

/// Full observational identity of two state spaces.
fn assert_same_space(a: &StateSpace, b: &StateSpace) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.outcome(), b.outcome());
    assert_eq!(a.deadlocks(), b.deadlocks());
    for (sa, sb) in a.states().zip(b.states()) {
        assert_eq!(a.marking(sa), b.marking(sb));
        assert_eq!(a.successors(sa), b.successors(sb));
        assert_eq!(a.concrete_trace_to(sa), b.concrete_trace_to(sb));
    }
}

fn assert_same_lts(a: &Lts, b: &Lts) {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.outcome(), b.outcome());
    assert_eq!(a.deadlocks(), b.deadlocks());
    for (sa, sb) in a.states().zip(b.states()) {
        assert_eq!(a.state(sa), b.state(sb));
        assert_eq!(a.successors(sa), b.successors(sb));
        assert_eq!(a.trace_to(sa), b.trace_to(sb));
    }
}

#[test]
fn explore_truncated_records_into_the_config() {
    let img = to_petri(&pipeline());
    for budget in [100_000usize, 300] {
        let (space, snap) = recorded(budget, |c| explore_truncated(&img.net, c));
        assert_eq!(snap.counter("engine.states"), space.len() as u64);
        assert_eq!(snap.spans[engine_parent(&snap)].name, CALLER);
        assert_same_space(
            &space,
            &explore_truncated(&img.net, cfg(budget, Obs::none())),
        );
    }
}

#[test]
fn explore_quotient_truncated_records_into_the_config() {
    let w = wagged_pipeline(2, 1, 1.0).unwrap();
    let img = to_petri(&w.dfs);
    let sym = img
        .induced_symmetry(&w.way_rotation)
        .unwrap()
        .state_symmetry();
    let (space, snap) = recorded(20_000, |c| explore_quotient_truncated(&img.net, c, &sym));
    assert_eq!(snap.counter("engine.states"), space.len() as u64);
    assert_eq!(snap.spans[engine_parent(&snap)].name, CALLER);
    let detached = explore_quotient_truncated(&img.net, cfg(20_000, Obs::none()), &sym);
    assert_same_space(&space, &detached);
}

#[test]
fn quick_check_with_records_into_the_config() {
    let img = to_petri(&pipeline());
    let pairs = img.complementary_pairs();
    for budget in [100_000usize, 300] {
        let (check, snap) = recorded(budget, |c| quick_check_with(&img.net, &pairs, &c));
        assert_eq!(snap.counter("engine.states"), check.states as u64);
        assert_eq!(snap.spans[engine_parent(&snap)].name, CALLER);
        assert_eq!(
            check,
            quick_check_with(&img.net, &pairs, &cfg(budget, Obs::none()))
        );
    }
}

#[test]
fn lts_explore_with_records_into_the_config() {
    let dfs = pipeline();
    for budget in [100_000usize, 300] {
        let (lts, snap) = recorded(budget, |c| Lts::explore_with(&dfs, &c, None));
        assert_eq!(snap.counter("engine.states"), lts.len() as u64);
        assert_eq!(snap.spans[engine_parent(&snap)].name, CALLER);
        assert_same_lts(
            &lts,
            &Lts::explore_with(&dfs, &cfg(budget, Obs::none()), None),
        );
    }
}

/// Session queries run the engine inside their `session.compute` span,
/// which itself sits under the query's `session.query.<kind>` span.
#[test]
fn session_queries_nest_the_engine_under_session_compute() {
    let dfs = pipeline();
    let detached = Session::new().compile(&dfs);

    let collector = Arc::new(Collector::new());
    let session = Session::with(None, Obs::collecting(&collector));
    let model = session.compile(&dfs);
    let check = model.quick_check(100_000);
    let snap = collector.snapshot();
    assert_eq!(snap.counter("engine.states"), check.states as u64);
    let compute = engine_parent(&snap);
    assert_eq!(snap.spans[compute].name, "session.compute");
    assert_eq!(parent_name(&snap, compute), "session.query.check");
    assert_eq!(*check, *detached.quick_check(100_000));

    let collector = Arc::new(Collector::new());
    let session = Session::with(None, Obs::collecting(&collector));
    let model = session.compile(&dfs);
    let lts = model.lts(100_000).unwrap();
    let snap = collector.snapshot();
    assert_eq!(snap.counter("engine.states"), lts.len() as u64);
    let compute = engine_parent(&snap);
    assert_eq!(snap.spans[compute].name, "session.compute");
    assert_eq!(parent_name(&snap, compute), "session.query.lts");
    assert_same_lts(&lts, &detached.lts(100_000).unwrap());

    // a budget overrun is still the cached typed error, traced or not
    assert_eq!(model.lts(10).unwrap_err(), detached.lts(10).unwrap_err());
}

//! Traced ↔ untraced ↔ seed-explorer equivalence, property-tested.
//!
//! The state-space engine records into `ExploreConfig::obs`, and recording
//! is observation-only by contract: a run with a live
//! [`rap::obs::Collector`] attached must produce the same state numbering,
//! edges, truncation point, dead list and witness traces as the same run
//! over a detached handle — and both must equal the seed explorers of the
//! dev-only `rap-oracle` crate (`explore_net`, `explore_dfs`), on random
//! inputs from both ends of the tool (raw random Petri nets and the
//! paper's pipeline generators), including under tiny truncation budgets.
//! The oracle returns plain vectors, so each comparison with it reads the
//! engine's accessors against the oracle's own data; traced against
//! untraced compares two engine runs through the same accessors. Every
//! traced run also checks that the collector saw it: the `engine.states`
//! counter equals the returned state count.
//!
//! The test names are kept from the suite's earlier role (pinning a
//! parallel driver against the serial one); the engine now has one
//! driver, and these tests pin the recording contract against the seed
//! explorers instead.

use proptest::prelude::*;
use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{to_petri, Dfs, Lts};
use rap::obs::{Collector, Obs};
use rap::petri::reachability::{explore_truncated, ExploreConfig, StateSpace};
use rap::petri::{PetriNet, PlaceId, TransitionId};
use std::sync::Arc;

/// Random net over `np` places and `nt` transitions with small arc lists.
fn arb_net(np: usize, nt: usize) -> impl Strategy<Value = PetriNet> {
    let place_marks = proptest::collection::vec(any::<bool>(), np);
    let arcs = proptest::collection::vec(
        (
            proptest::collection::vec(0..np, 0..3), // consumes
            proptest::collection::vec(0..np, 0..3), // produces
            proptest::collection::vec(0..np, 0..2), // reads
        ),
        nt,
    );
    (place_marks, arcs).prop_map(move |(marks, arcs)| {
        let mut net = PetriNet::new();
        let places: Vec<PlaceId> = marks
            .iter()
            .enumerate()
            .map(|(i, &m)| net.add_place(format!("p{i}"), m))
            .collect();
        for (i, (cons, prod, reads)) in arcs.into_iter().enumerate() {
            let t = net.add_transition(format!("t{i}"));
            for c in cons {
                net.consume(t, places[c]);
            }
            for p in prod {
                net.produce(t, places[p]);
            }
            for r in reads {
                net.read(t, places[r]);
            }
        }
        net
    })
}

/// Random paper-flow pipeline: 2–3 stages, random reconfigurability pattern
/// and inclusion depth.
fn arb_pipeline() -> impl Strategy<Value = Dfs> {
    (
        2usize..=3,
        proptest::collection::vec(any::<bool>(), 3),
        0usize..=3,
    )
        .prop_map(|(stages, reconf, depth)| {
            let mut spec =
                PipelineSpec::reconfigurable_depth(stages, depth.clamp(1, stages)).unwrap();
            for (i, flag) in reconf.iter().take(stages).enumerate().skip(1) {
                spec.reconfigurable[i] = *flag;
            }
            build_pipeline(&spec).expect("spec builds").dfs
        })
}

/// The default config under a state budget, recording into `obs`.
fn cfg(max_states: usize, obs: Obs) -> ExploreConfig {
    ExploreConfig {
        max_states,
        obs,
        ..ExploreConfig::default()
    }
}

/// Exact observational identity of two state spaces: numbering, markings,
/// edges, traces, truncation and the recorded dead states.
fn assert_spaces_identical(a: &StateSpace, b: &StateSpace, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{}: state count", ctx);
    prop_assert_eq!(a.outcome(), b.outcome(), "{}: outcome", ctx);
    prop_assert_eq!(a.deadlocks(), b.deadlocks(), "{}: dead states", ctx);
    for (sa, sb) in a.states().zip(b.states()) {
        prop_assert_eq!(&a.marking(sa), &b.marking(sb), "{}: marking", ctx);
        prop_assert_eq!(a.successors(sa), b.successors(sb), "{}: edges", ctx);
        prop_assert_eq!(a.trace_to(sa), b.trace_to(sb), "{}: trace", ctx);
    }
    Ok(())
}

/// The engine's Petri space against the oracle's vectors: count,
/// truncation, dead states, and per state its marking, its edges and its
/// trace against the trace along the oracle's parent links.
fn assert_matches_oracle(
    space: &StateSpace,
    net: &PetriNet,
    max_states: usize,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let oracle = rap_oracle::explore_net(net, max_states);
    prop_assert_eq!(space.len(), oracle.len(), "{}: state count", ctx);
    prop_assert_eq!(
        space.is_truncated(),
        oracle.truncated,
        "{}: truncation",
        ctx
    );
    let dead: Vec<usize> = space.deadlocks().iter().map(|s| s.index()).collect();
    prop_assert_eq!(&dead, &oracle.dead, "{}: dead states", ctx);
    for s in space.states() {
        let i = s.index();
        prop_assert_eq!(&space.marking(s), &oracle.states[i], "{}: marking", ctx);
        let edges: Vec<(TransitionId, usize)> = space
            .successors(s)
            .iter()
            .map(|(t, x)| (t, x.index()))
            .collect();
        prop_assert_eq!(&edges, &oracle.successors[i], "{}: edges", ctx);
        prop_assert_eq!(space.trace_to(s), oracle.trace_to(i), "{}: trace", ctx);
    }
    Ok(())
}

/// Traced ≡ untraced ≡ oracle, for one net and budget; the collector of
/// the traced run must have counted every state.
fn assert_recording_equivalent(net: &PetriNet, max_states: usize) -> Result<(), TestCaseError> {
    let untraced = explore_truncated(net, cfg(max_states, Obs::none()));
    let collector = Arc::new(Collector::new());
    let traced = explore_truncated(net, cfg(max_states, Obs::collecting(&collector)));
    assert_matches_oracle(&untraced, net, max_states, "untraced vs oracle")?;
    assert_spaces_identical(&traced, &untraced, "traced vs untraced")?;
    prop_assert_eq!(
        collector.snapshot().counters.get("engine.states"),
        traced.len() as u64,
        "collector missed the run"
    );
    Ok(())
}

/// The LTS backend's version of [`assert_recording_equivalent`]: traced
/// and untraced runs each against the oracle.
fn assert_lts_recording_equivalent(dfs: &Dfs, max_states: usize) -> Result<(), TestCaseError> {
    let oracle = rap_oracle::explore_dfs(dfs, max_states);
    let untraced = Lts::explore_with(dfs, &cfg(max_states, Obs::none()), None);
    let collector = Arc::new(Collector::new());
    let traced = Lts::explore_with(dfs, &cfg(max_states, Obs::collecting(&collector)), None);
    for (run, ctx) in [
        (&untraced, "untraced vs oracle"),
        (&traced, "traced vs oracle"),
    ] {
        prop_assert_eq!(run.len(), oracle.len(), "{}: state count", ctx);
        prop_assert_eq!(run.is_truncated(), oracle.truncated, "{}: truncation", ctx);
        let dead: Vec<usize> = run.deadlocks().iter().map(|s| s.index()).collect();
        prop_assert_eq!(&dead, &oracle.dead, "{}: dead states", ctx);
        for s in run.states() {
            let i = s.index();
            prop_assert_eq!(&run.state(s), &oracle.states[i], "{}: state", ctx);
            let edges: Vec<_> = run
                .successors(s)
                .iter()
                .map(|(ev, x)| (ev, x.index()))
                .collect();
            prop_assert_eq!(&edges, &oracle.successors[i], "{}: edges", ctx);
            prop_assert_eq!(run.trace_to(s), oracle.trace_to(i), "{}: trace", ctx);
        }
    }
    prop_assert_eq!(
        collector.snapshot().counters.get("engine.states"),
        traced.len() as u64,
        "collector missed the LTS run"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random raw nets: traced, untraced and oracle runs agree on ids,
    /// edges and traces.
    #[test]
    fn random_nets_parallel_equals_serial(net in arb_net(10, 8)) {
        assert_recording_equivalent(&net, 3_000)?;
    }

    /// Random nets under tiny budgets: truncation must bite at exactly the
    /// same state whether or not a recorder is attached, and where the
    /// oracle stops.
    #[test]
    fn random_nets_truncate_identically(net in arb_net(9, 8)) {
        for cap in [1usize, 2, 7, 40] {
            assert_recording_equivalent(&net, cap)?;
        }
    }

    /// Random paper pipelines, both backends, exhaustive and under tiny
    /// budgets.
    #[test]
    fn random_pipelines_parallel_equals_serial(dfs in arb_pipeline()) {
        let img = to_petri(&dfs);
        for cap in [3_000usize, 7, 1] {
            assert_recording_equivalent(&img.net, cap)?;
            assert_lts_recording_equivalent(&dfs, cap)?;
        }
    }
}

/// The deterministic wagged shapes (guard/choice structure beyond what the
/// random pipelines reach), including truncation budgets.
#[test]
fn wagged_shapes_parallel_equals_serial() {
    for ways in [1usize, 2] {
        let w = wagged_pipeline(ways, 1, 1.0).unwrap();
        let img = to_petri(&w.dfs);
        for cap in [30_000usize, 500] {
            assert_recording_equivalent(&img.net, cap)
                .unwrap_or_else(|e| panic!("ways={ways} cap={cap}: {e}"));
        }
    }
}

/// Witness traces from a traced run replay through the net's own firing
/// rule — step-enabled, landing exactly on the recorded marking.
#[test]
fn parallel_witness_traces_replay() {
    let w = wagged_pipeline(2, 1, 1.0).unwrap();
    let img = to_petri(&w.dfs);
    let collector = Arc::new(Collector::new());
    let space = explore_truncated(&img.net, cfg(2_000, Obs::collecting(&collector)));
    assert!(space.is_truncated());
    assert_eq!(collector.snapshot().counter("engine.states"), 2_000);
    for s in space.states() {
        let mut m = img.net.initial_marking();
        for t in space.trace_to(s) {
            assert!(img.net.is_enabled(t, &m), "trace step not enabled");
            m = img.net.fire(t, &m).unwrap();
        }
        assert_eq!(m, space.marking(s));
    }
}

//! Engine ↔ naive-explorer equivalence, property-tested.
//!
//! The shared incremental engine (`rap::petri::engine`) claims to be
//! observationally identical to the retained naive explorers — same state
//! numbering, same edges, same truncation behaviour, replayable
//! counterexample traces. This suite pins that claim on random inputs from
//! both ends of the tool: raw random Petri nets (arbitrary arc structure,
//! including non-1-safe-looking shapes the firing rule must reject) and the
//! pipeline generators the paper's flow actually explores (the
//! `perf_cross_check.rs` shapes: reconfigurable-depth pipelines and wagged
//! pipelines).

use proptest::prelude::*;
use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{to_petri, Dfs, DfsState, Lts};
use rap::petri::reachability::{
    explore_naive_truncated, explore_truncated, ExploreConfig, StateSpace,
};
use rap::petri::{PetriNet, PlaceId};

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

/// The default config under a state budget.
fn cfg(max_states: usize) -> ExploreConfig {
    ExploreConfig {
        max_states,
        ..ExploreConfig::default()
    }
}

/// Full equivalence of the Petri explorers, including the replay of every
/// counterexample (per-state shortest trace). The dead states the engine
/// records on discovery must equal the naive explorer's full-scan ones.
fn assert_pn_equivalent(net: &PetriNet, max_states: usize) -> Result<(), TestCaseError> {
    let engine = explore_truncated(net, cfg(max_states));
    let naive = explore_naive_truncated(net, cfg(max_states));
    prop_assert_eq!(engine.len(), naive.len());
    prop_assert_eq!(engine.is_truncated(), naive.is_truncated());
    prop_assert!(engine.dead_states().eq(naive.dead_states()), "dead states");
    for (a, b) in engine.states().zip(naive.states()) {
        prop_assert_eq!(&engine.marking(a), &naive.marking(b));
        prop_assert_eq!(engine.successors(a), naive.successors(b));
    }
    replay_traces(net, &engine)?;
    Ok(())
}

/// Replays the engine's traces through the *net's* firing rule — the trace
/// must be step-wise enabled and land exactly on the recorded marking.
fn replay_traces(net: &PetriNet, space: &StateSpace) -> Result<(), TestCaseError> {
    for s in space.states() {
        let mut m = net.initial_marking();
        for t in space.trace_to(s) {
            prop_assert!(net.is_enabled(t, &m), "trace step not enabled");
            m = net.fire(t, &m).unwrap();
        }
        prop_assert_eq!(&m, &space.marking(s));
    }
    Ok(())
}

fn assert_lts_equivalent(dfs: &Dfs, max_states: usize) -> Result<(), TestCaseError> {
    let engine = Lts::explore_with(dfs, &cfg(max_states), None);
    let naive = Lts::explore_naive_truncated(dfs, max_states);
    prop_assert_eq!(engine.len(), naive.len());
    prop_assert_eq!(engine.is_truncated(), naive.is_truncated());
    prop_assert_eq!(engine.deadlocks(), naive.deadlocks());
    for (a, b) in engine.states().zip(naive.states()) {
        prop_assert_eq!(&engine.state(a), &naive.state(b));
        prop_assert_eq!(engine.successors(a), naive.successors(b));
    }
    // counterexample-trace replay through the semantics
    for s in engine.states() {
        let mut st = DfsState::initial(dfs);
        for ev in engine.trace_to(s) {
            prop_assert!(dfs.is_event_enabled(&st, ev), "trace event not enabled");
            st = dfs.apply(&st, ev);
        }
        prop_assert_eq!(&st, &engine.state(s));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random raw nets: the engine's event-driven enabledness updates and
    /// arena dedup agree with the naive full-scan explorer state-for-state.
    #[test]
    fn random_nets_agree(net in arb_net(10, 8)) {
        assert_pn_equivalent(&net, 3_000)?;
    }

    /// Random nets under a tiny budget: truncation must bite at exactly the
    /// same point in both explorers.
    #[test]
    fn random_nets_agree_under_truncation(net in arb_net(9, 8)) {
        for cap in [1usize, 2, 7] {
            assert_pn_equivalent(&net, cap)?;
        }
    }

    /// Random paper pipelines, both backends: the PN image explored by the
    /// engine and the direct-semantics LTS agree with their references (and
    /// with each other on the state count, by bisimilarity).
    #[test]
    fn random_pipelines_agree(dfs in arb_pipeline()) {
        let img = to_petri(&dfs);
        for cap in [3_000usize, 7, 1] {
            assert_pn_equivalent(&img.net, cap)?;
            assert_lts_equivalent(&dfs, cap)?;
        }
        let pn = explore_truncated(&img.net, cfg(3_000));
        let lts = Lts::explore_with(&dfs, &cfg(3_000), None);
        if !pn.is_truncated() && !lts.is_truncated() {
            prop_assert_eq!(pn.len(), lts.len());
        }
    }
}

/// The deterministic `perf_cross_check.rs` shapes: wagged pipelines stress
/// guard/choice structure beyond what the random pipelines reach.
#[test]
fn wagged_shapes_agree() {
    for ways in [1usize, 2] {
        let w = wagged_pipeline(ways, 1, 1.0).unwrap();
        let img = to_petri(&w.dfs);
        let cap = 30_000;
        let engine = explore_truncated(&img.net, cfg(cap));
        let naive = explore_naive_truncated(&img.net, cfg(cap));
        assert_eq!(engine.len(), naive.len(), "ways={ways}");
        assert_eq!(engine.is_truncated(), naive.is_truncated());
        for (a, b) in engine.states().zip(naive.states()) {
            assert_eq!(engine.successors(a), naive.successors(b));
        }
        assert!(engine.dead_states().eq(naive.dead_states()), "ways={ways}");
        let l_engine = Lts::explore_with(&w.dfs, &cfg(cap), None);
        let l_naive = Lts::explore_naive_truncated(&w.dfs, cap);
        assert_eq!(l_engine.len(), l_naive.len(), "ways={ways}");
        assert_eq!(l_engine.is_truncated(), l_naive.is_truncated());
        assert_eq!(l_engine.deadlocks(), l_naive.deadlocks(), "ways={ways}");
    }
}

//! Engine ↔ seed-explorer equivalence, property-tested.
//!
//! The shared incremental engine (`rap::petri::engine`) claims to be
//! observationally identical to the seed explorers it replaced — same state
//! numbering, same edges, same truncation behaviour, replayable
//! counterexample traces. The seed explorers live in the dev-only
//! `rap-oracle` crate and return plain vectors, so every check below
//! compares an engine accessor with the oracle's own data; no accessor is
//! shared between the two sides. This suite pins that claim on random
//! inputs from both ends of the tool: raw random Petri nets (arbitrary arc
//! structure, including non-1-safe-looking shapes the firing rule must
//! reject) and the pipeline generators the paper's flow actually explores
//! (the `perf_cross_check.rs` shapes: reconfigurable-depth pipelines and
//! wagged pipelines), plus random DFS models, a 9-place token ring and a
//! three-register DFS ring at budgets that cut them, and a three-block
//! pipeline cut around a storage-block boundary. The oracle fires a DFS
//! model by its own hand-written statement of eqs. (1)–(5), so the LTS
//! cases check the firing rule `dfs-core` derives as well as the engine.

#[path = "../crates/core/tests/common/random.rs"]
mod random;

use proptest::prelude::*;
use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{to_petri, Dfs, DfsBuilder, DfsState, Lts};
use rap::petri::reachability::{explore_truncated, ExploreConfig, StateSpace};
use rap::petri::{PetriNet, PlaceId, TransitionId};

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

/// Full equivalence of the engine's Petri space with the oracle's: count,
/// truncation, dead states, and per state its marking, its edges and its
/// trace against the trace along the oracle's parent links. The engine's
/// traces must also replay through the net's firing rule.
fn assert_pn_equivalent(net: &PetriNet, max_states: usize) -> Result<(), TestCaseError> {
    let engine = explore_truncated(net, cfg(max_states));
    let oracle = rap_oracle::explore_net(net, max_states);
    prop_assert_eq!(engine.len(), oracle.len(), "state count");
    prop_assert_eq!(engine.is_truncated(), oracle.truncated, "truncation");
    let dead: Vec<usize> = engine.deadlocks().iter().map(|s| s.index()).collect();
    prop_assert_eq!(&dead, &oracle.dead, "dead states");
    for s in engine.states() {
        let i = s.index();
        prop_assert_eq!(&engine.marking(s), &oracle.states[i], "marking of {}", i);
        let edges: Vec<(TransitionId, usize)> = engine
            .successors(s)
            .iter()
            .map(|(t, x)| (t, x.index()))
            .collect();
        prop_assert_eq!(&edges, &oracle.successors[i], "edges of {}", i);
        prop_assert_eq!(engine.trace_to(s), oracle.trace_to(i), "trace to {}", i);
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

/// The LTS backend's version of [`assert_pn_equivalent`], with the traces
/// replayed through the DFS semantics.
fn assert_lts_equivalent(dfs: &Dfs, max_states: usize) -> Result<(), TestCaseError> {
    let engine = Lts::explore_with(dfs, &cfg(max_states), None);
    let oracle = rap_oracle::explore_dfs(dfs, max_states);
    prop_assert_eq!(engine.len(), oracle.len(), "state count");
    prop_assert_eq!(engine.is_truncated(), oracle.truncated, "truncation");
    let dead: Vec<usize> = engine.deadlocks().iter().map(|s| s.index()).collect();
    prop_assert_eq!(&dead, &oracle.dead, "dead states");
    for s in engine.states() {
        let i = s.index();
        prop_assert_eq!(&engine.state(s), &oracle.states[i], "state {}", i);
        let edges: Vec<_> = engine
            .successors(s)
            .iter()
            .map(|(ev, x)| (ev, x.index()))
            .collect();
        prop_assert_eq!(&edges, &oracle.successors[i], "edges of {}", i);
        prop_assert_eq!(engine.trace_to(s), oracle.trace_to(i), "trace to {}", i);
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
    /// arena dedup agree with the seed full-scan explorer state-for-state.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Random DFS models, the generator of the DSL round-trip and the
    /// bisimulation suite: every node kind, guard mode, marking and
    /// inverted arc, on the LTS backend, complete and cut.
    #[test]
    fn random_models_agree(dfs in random::arb_dfs()) {
        for cap in [3_000usize, 7, 1] {
            assert_lts_equivalent(&dfs, cap)?;
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
        assert_pn_equivalent(&img.net, cap).unwrap_or_else(|e| panic!("petri ways={ways}: {e}"));
        assert_lts_equivalent(&w.dfs, cap).unwrap_or_else(|e| panic!("lts ways={ways}: {e}"));
    }
}

/// `reconfigurable_depth(3,1)`'s 34,704 states fill three storage blocks
/// on both backends: unbounded, and cut one below, at and one above the
/// first block boundary, so states on both sides of it and a budget stop
/// right after it are read back through the blocks.
#[test]
fn block_boundaries_agree() {
    let dfs = build_pipeline(&PipelineSpec::reconfigurable_depth(3, 1).unwrap())
        .unwrap()
        .dfs;
    let net = to_petri(&dfs).net;
    let block = rap::petri::engine::BLOCK_STATES;
    assert_eq!(
        explore_truncated(&net, cfg(usize::MAX))
            .len()
            .div_ceil(block),
        3
    );
    for budget in [usize::MAX, block - 1, block, block + 1] {
        assert_pn_equivalent(&net, budget).unwrap_or_else(|e| panic!("petri {budget}: {e}"));
        assert_lts_equivalent(&dfs, budget).unwrap_or_else(|e| panic!("lts {budget}: {e}"));
    }
}

/// A ring of `n` places with one token circulating.
fn place_ring(n: usize) -> PetriNet {
    let mut net = PetriNet::new();
    let places: Vec<PlaceId> = (0..n)
        .map(|i| net.add_place(format!("p{i}"), i == 0))
        .collect();
    for i in 0..n {
        let t = net.add_transition(format!("t{i}"));
        net.consume(t, places[i]);
        net.produce(t, places[(i + 1) % n]);
    }
    net
}

/// The 9-place token ring, unbounded and cut at 7 and 3 states, and the
/// closed three-register DFS ring, unbounded and cut at 5 and 2 states. At
/// 2 the ring's unexpanded frontier is live, so neither side may list it
/// as a deadlock.
#[test]
fn rings_agree_at_every_budget() {
    let net = place_ring(9);
    for budget in [usize::MAX, 7, 3] {
        assert_pn_equivalent(&net, budget).unwrap_or_else(|e| panic!("budget={budget}: {e}"));
    }

    let mut b = DfsBuilder::new();
    let r0 = b.register("a").marked().build();
    let r1 = b.register("b").build();
    let r2 = b.register("c").build();
    b.connect(r0, r1);
    b.connect(r1, r2);
    b.connect(r2, r0);
    let dfs = b.finish().unwrap();
    for budget in [usize::MAX, 5, 2] {
        assert_lts_equivalent(&dfs, budget).unwrap_or_else(|e| panic!("budget={budget}: {e}"));
    }
    let cut = rap_oracle::explore_dfs(&dfs, 2);
    assert!(cut.truncated && cut.successors[1].is_empty());
    assert!(cut.dead.is_empty());
}

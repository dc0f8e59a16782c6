//! Differential suite: the parallel engine is observationally identical to
//! the serial reference at every thread count — **including when a live
//! collector is attached** through `ExploreConfig::obs`. Recording is
//! observation-only by contract ([`rap_petri::engine::ExploreConfig::obs`]):
//! span timings and counters must never leak into state numbering, parent
//! attribution, edge order or truncation. These tests pin that contract by
//! comparing serial, untraced-parallel and traced-parallel runs
//! state-for-state at threads ∈ {1, 2, 8}.
//!
//! The comparison includes the dead-state list each engine records as it
//! commits states ([`ExploredGraph::dead`]), under tiny budgets (where the
//! truncated frontier must not be mistaken for deadlocks) and in quotient
//! mode, where no serial reference exists and a full enabledness scan of
//! every representative is the oracle.

use proptest::prelude::*;
use rap_obs::{Collector, Obs};
use rap_petri::engine::{
    explore, explore_parallel, EngineStats, ExploreConfig, ExploredGraph, Incidence, NetSystem,
    StateSymmetry,
};
use rap_petri::{PetriNet, PlaceId};
use std::sync::Arc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn cfg(max_states: usize, threads: usize) -> ExploreConfig {
    ExploreConfig {
        max_states,
        threads,
        ..ExploreConfig::default()
    }
}

/// [`cfg`] recording into `collector`.
fn recording(max_states: usize, threads: usize, collector: &Arc<Collector>) -> ExploreConfig {
    ExploreConfig {
        obs: Obs::collecting(collector),
        ..cfg(max_states, threads)
    }
}

/// Full observational equality: counts, outcome, parent links, CSR edges,
/// dead states and every reconstructed state vector.
fn assert_identical(a: &ExploredGraph, b: &ExploredGraph, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: state count");
    assert_eq!(a.outcome(), b.outcome(), "{ctx}: outcome");
    assert_eq!(a.parents, b.parents, "{ctx}: parent attribution");
    assert_eq!(a.succ_off, b.succ_off, "{ctx}: CSR offsets");
    assert_eq!(a.succ, b.succ, "{ctx}: edge order");
    assert_eq!(a.dead(), b.dead(), "{ctx}: dead states");
    for i in 0..a.len() {
        assert_eq!(a.state_vec(i), b.state_vec(i), "{ctx}: state {i}");
    }
}

/// The dead states of `g` by a full scan: every state whose marking
/// enables no transition of `net`.
fn scanned_dead(net: &PetriNet, g: &ExploredGraph) -> Vec<u32> {
    let inc = Incidence::from_net(net);
    (0..g.len())
        .filter(|&i| {
            let words = g.state_vec(i);
            net.transitions().all(|t| !inc.is_enabled(t, &words))
        })
        .map(|i| i as u32)
        .collect()
}

/// `copies` disjoint copies of `base`, with the rotation that maps copy
/// `c` onto copy `c + 1` (places and transitions alike).
fn replicated(base: &PetriNet, copies: usize) -> (PetriNet, StateSymmetry) {
    let (np, nt) = (base.place_count(), base.transition_count());
    let mut net = PetriNet::new();
    for c in 0..copies {
        for p in base.places() {
            net.add_place(
                format!("c{c}_p{}", p.index()),
                base.place(p).initially_marked,
            );
        }
    }
    for c in 0..copies {
        for t in base.transitions() {
            let nt_id = net.add_transition(format!("c{c}_t{}", t.index()));
            let tr = base.transition(t);
            let at = |p: PlaceId| PlaceId::from_index(c * np + p.index());
            for &p in tr.consumes() {
                net.consume(nt_id, at(p));
            }
            for &p in tr.produces() {
                net.produce(nt_id, at(p));
            }
            for &p in tr.reads() {
                net.read(nt_id, at(p));
            }
        }
    }
    let rotate = |n: usize| -> Vec<u32> {
        (0..copies * n)
            .map(|i| ((i + n) % (copies * n)) as u32)
            .collect()
    };
    let sym = StateSymmetry::new(rotate(np), rotate(nt)).expect("rotation is a permutation");
    (net, sym)
}

fn ring(n: usize) -> PetriNet {
    let mut net = PetriNet::new();
    let places: Vec<_> = (0..n)
        .map(|i| net.add_place(format!("p{i}"), i == 0))
        .collect();
    for i in 0..n {
        let t = net.add_transition(format!("t{i}"));
        net.consume(t, places[i]);
        net.produce(t, places[(i + 1) % n]);
    }
    net
}

/// Random net generator shared with `tests/properties.rs`.
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

/// A live collector never perturbs the result: traced parallel ≡ serial on
/// a ring, across thread counts and budgets, and the collector actually
/// observed the run (per-level spans plus the end-of-run counter flush).
#[test]
fn traced_parallel_matches_serial_at_every_thread_count() {
    let net = ring(64);
    let mut sys = NetSystem::new(&net);
    for budget in [usize::MAX, 64, 17, 3, 1] {
        let serial = explore(&mut sys, budget);
        for threads in THREAD_COUNTS {
            let collector = Arc::new(Collector::new());
            let traced = explore_parallel(
                || NetSystem::new(&net),
                &recording(budget, threads, &collector),
                None,
            );
            assert_identical(&serial, &traced, &format!("t={threads} budget={budget}"));

            let snap = collector.snapshot();
            let stats = EngineStats::from_counters(&snap.counters);
            assert_eq!(stats.states, traced.len() as u64, "t={threads}");
            assert!(stats.levels > 0, "t={threads}: no levels recorded");
            assert!(
                snap.spans.iter().any(|s| s.name == "engine.level.expand"),
                "t={threads}: expand spans missing"
            );
            assert!(
                snap.spans.iter().any(|s| s.name == "engine.level.commit"),
                "t={threads}: commit spans missing"
            );
        }
    }
}

/// Tracing is invisible to the output: traced and untraced parallel runs
/// are bit-identical at every thread count, on a wide-state net (3 words
/// per state, stride > 2) whose auto anchor policy stores most states as
/// deltas.
#[test]
fn tracing_is_observation_only() {
    let net = ring(150);
    for threads in THREAD_COUNTS {
        let untraced = explore_parallel(|| NetSystem::new(&net), &cfg(1_000, threads), None);
        assert!(
            untraced.anchor_count() < untraced.len(),
            "t={threads}: deltas were actually used"
        );
        let collector = Arc::new(Collector::new());
        let traced = explore_parallel(
            || NetSystem::new(&net),
            &recording(1_000, threads, &collector),
            None,
        );
        assert_identical(&untraced, &traced, &format!("t={threads}"));
        assert!(collector.snapshot().wall_ns > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The property-level version: on random nets, serial, untraced
    /// parallel and traced parallel (live collector) agree exactly at
    /// threads ∈ {1, 2, 8}.
    #[test]
    fn parallel_equivalence_holds_under_tracing(net in arb_net(10, 8)) {
        let mut sys = NetSystem::new(&net);
        for budget in [2_000usize, 40, 7, 2, 1] {
            let serial = explore(&mut sys, budget);
            prop_assert_eq!(serial.dead(), scanned_dead(&net, &serial).as_slice());
            for threads in THREAD_COUNTS {
                let plain = explore_parallel(|| NetSystem::new(&net), &cfg(budget, threads), None);
                let collector = Arc::new(Collector::new());
                let traced = explore_parallel(
                    || NetSystem::new(&net),
                    &recording(budget, threads, &collector),
                    None,
                );
                let ctx = format!("t={threads} budget={budget}");
                assert_identical(&serial, &plain, &format!("plain {ctx}"));
                assert_identical(&serial, &traced, &format!("traced {ctx}"));
                let stats = EngineStats::from_counters(&collector.snapshot().counters);
                prop_assert_eq!(stats.states, traced.len() as u64);
            }
        }
    }

    /// Quotient mode: on two or three rotated copies of a random net, the
    /// dead list is identical at every thread count and budget, and equals
    /// a full enabledness scan of the representatives.
    #[test]
    fn quotient_dead_states_match_a_full_scan(base in arb_net(5, 4), copies in 2usize..=3) {
        let (net, sym) = replicated(&base, copies);
        for budget in [2_000usize, 40, 7, 2, 1] {
            let one = explore_parallel(|| NetSystem::new(&net), &cfg(budget, 1), Some(&sym));
            prop_assert_eq!(one.dead(), scanned_dead(&net, &one).as_slice(), "budget={}", budget);
            for threads in THREAD_COUNTS {
                let par = explore_parallel(|| NetSystem::new(&net), &cfg(budget, threads), Some(&sym));
                assert_identical(&one, &par, &format!("quotient t={threads} budget={budget}"));
            }
        }
    }
}

//! Parallel ↔ serial engine equivalence, property-tested.
//!
//! The parallel engine (`rap_petri::engine::explore_parallel`) claims to be
//! *observationally identical* to the serial engine at every thread count:
//! same state numbering, same edges, same truncation point, same witness
//! traces — not just equal counts. This suite pins that claim on random
//! inputs from both ends of the tool (raw random Petri nets and the paper's
//! pipeline generators), at threads ∈ {1, 2, 8} plus whatever
//! `RAP_TEST_THREADS` asks for, including under tiny truncation budgets.
//! It mirrors `engine_equivalence.rs`, which pins the serial engine against
//! the naive explorers.
//!
//! Every parallel run here executes **with a live [`rap::obs::Collector`]
//! attached** through `ExploreConfig::obs` — the suite therefore
//! simultaneously pins the tracing determinism contract: recording is
//! observation-only and can never perturb state numbering, edge order,
//! witness traces or truncation, at any thread count.

use proptest::prelude::*;
use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{to_petri, Dfs, Lts};
use rap::obs::{Collector, Obs};
use rap::petri::reachability::{
    explore_serial_truncated, explore_truncated, ExploreConfig, StateSpace,
};
use rap::petri::{PetriNet, PlaceId};
use std::sync::Arc;

/// Thread counts under test: the fixed {1, 2, 8} ladder plus the
/// `RAP_TEST_THREADS` environment override (the CI matrix sets 2).
fn thread_counts() -> Vec<usize> {
    let mut ts = vec![1usize, 2, 8];
    if let Some(t) = std::env::var("RAP_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&t| t >= 1)
    {
        if !ts.contains(&t) {
            ts.push(t);
        }
    }
    ts
}

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

/// Exact observational identity of two state spaces: numbering, markings,
/// edges, traces, truncation and the recorded dead states.
fn assert_spaces_identical(a: &StateSpace, b: &StateSpace, ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{}: state count", ctx);
    prop_assert_eq!(a.outcome(), b.outcome(), "{}: outcome", ctx);
    prop_assert!(a.dead_states().eq(b.dead_states()), "{}: dead states", ctx);
    for (sa, sb) in a.states().zip(b.states()) {
        prop_assert_eq!(&a.marking(sa), &b.marking(sb), "{}: marking", ctx);
        prop_assert_eq!(a.successors(sa), b.successors(sb), "{}: edges", ctx);
        prop_assert_eq!(a.trace_to(sa), b.trace_to(sb), "{}: trace", ctx);
    }
    Ok(())
}

/// Parallel at every thread count ≡ serial, for one net and budget. The
/// parallel side runs **traced** (live collector): equivalence holding
/// here is the proof that recording is observation-only.
fn assert_parallel_equivalent(net: &PetriNet, max_states: usize) -> Result<(), TestCaseError> {
    let serial = explore_serial_truncated(
        net,
        ExploreConfig {
            max_states,
            ..ExploreConfig::default()
        },
    );
    for threads in thread_counts() {
        let collector = Arc::new(Collector::new());
        let par = explore_truncated(
            net,
            ExploreConfig {
                max_states,
                threads,
                deadline: None,
                obs: Obs::collecting(&collector),
            },
        );
        assert_spaces_identical(&par, &serial, &format!("threads={threads}"))?;
        // the collector really was live: the engine flushed its counters
        prop_assert_eq!(
            collector.snapshot().counters.get("engine.states"),
            par.len() as u64,
            "threads={}: collector missed the run",
            threads
        );
    }
    Ok(())
}

fn assert_lts_parallel_equivalent(dfs: &Dfs, max_states: usize) -> Result<(), TestCaseError> {
    let serial = Lts::explore_serial_truncated(dfs, max_states);
    for threads in thread_counts() {
        // tracing through a live collector keeps the observation-only
        // contract under test on the LTS backend too
        let collector = Arc::new(Collector::new());
        let par = Lts::explore_with(
            dfs,
            &ExploreConfig {
                max_states,
                threads,
                deadline: None,
                obs: Obs::collecting(&collector),
            },
            None,
        );
        let ctx = format!("threads={threads}");
        prop_assert_eq!(par.len(), serial.len(), "{}: state count", &ctx);
        prop_assert_eq!(par.outcome(), serial.outcome(), "{}: outcome", &ctx);
        prop_assert_eq!(par.deadlocks(), serial.deadlocks(), "{}: dead states", &ctx);
        for (sa, sb) in par.states().zip(serial.states()) {
            prop_assert_eq!(par.state(sa), serial.state(sb), "{}: state", &ctx);
            prop_assert_eq!(par.successors(sa), serial.successors(sb), "{}: edges", &ctx);
            prop_assert_eq!(par.trace_to(sa), serial.trace_to(sb), "{}: trace", &ctx);
        }
        prop_assert_eq!(
            collector.snapshot().counters.get("engine.states"),
            par.len() as u64,
            "{}: collector missed the run",
            &ctx
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random raw nets: the level-synchronous commit makes the parallel
    /// engine's ids, edges and traces identical to the serial engine's.
    #[test]
    fn random_nets_parallel_equals_serial(net in arb_net(10, 8)) {
        assert_parallel_equivalent(&net, 3_000)?;
    }

    /// Random nets under tiny budgets: truncation must bite at exactly the
    /// same state in every parallel configuration (the commit pass stops at
    /// the same canonical point regardless of worker schedule).
    #[test]
    fn random_nets_truncate_identically(net in arb_net(9, 8)) {
        for cap in [1usize, 2, 7, 40] {
            assert_parallel_equivalent(&net, cap)?;
        }
    }

    /// Random paper pipelines, both backends, exhaustive and under tiny
    /// budgets.
    #[test]
    fn random_pipelines_parallel_equals_serial(dfs in arb_pipeline()) {
        let img = to_petri(&dfs);
        for cap in [3_000usize, 7, 1] {
            assert_parallel_equivalent(&img.net, cap)?;
            assert_lts_parallel_equivalent(&dfs, cap)?;
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
            let serial = explore_serial_truncated(
                &img.net,
                ExploreConfig {
                    max_states: cap,
                    ..ExploreConfig::default()
                },
            );
            for threads in thread_counts() {
                let par = explore_truncated(
                    &img.net,
                    ExploreConfig {
                        max_states: cap,
                        threads,
                        ..ExploreConfig::default()
                    },
                );
                assert_eq!(par.len(), serial.len(), "ways={ways} threads={threads}");
                assert_eq!(par.outcome(), serial.outcome());
                assert!(par.dead_states().eq(serial.dead_states()));
                for (sa, sb) in par.states().zip(serial.states()) {
                    assert_eq!(par.successors(sa), serial.successors(sb));
                }
            }
        }
    }
}

/// Witness traces from the parallel engine replay through the net's own
/// firing rule — step-enabled, landing exactly on the recorded marking.
#[test]
fn parallel_witness_traces_replay() {
    let w = wagged_pipeline(2, 1, 1.0).unwrap();
    let img = to_petri(&w.dfs);
    let space = explore_truncated(
        &img.net,
        ExploreConfig {
            max_states: 2_000,
            threads: 8,
            ..ExploreConfig::default()
        },
    );
    assert!(space.is_truncated());
    for s in space.states() {
        let mut m = img.net.initial_marking();
        for t in space.trace_to(s) {
            assert!(img.net.is_enabled(t, &m), "trace step not enabled");
            m = img.net.fire(t, &m).unwrap();
        }
        assert_eq!(m, space.marking(s));
    }
}

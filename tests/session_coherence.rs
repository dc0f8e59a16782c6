//! Cache-coherence contract of `rap::Session` (see the `rap-session`
//! crate docs, "Caching and coherence contract"):
//!
//! * every query on a compiled model is **bit-identical** to the direct
//!   free-function call on the same model — including every `f64`, the
//!   node names in critical cycles, and cached *errors*;
//! * repeated queries return the **same cached artifact** (pointer-equal
//!   references / the same `Arc`), computed exactly once;
//! * results are invariant under **query order** and under **concurrent
//!   access** from multiple threads (in-flight reservation: one
//!   computation total, everyone else blocks on it);
//! * a model queried for `perf`, `quick_check` and `cost` performs
//!   exactly **one Petri translation and one phase unfolding** (the
//!   acceptance pin of the session layer, via `Session::stats`);
//! * **timing twins** (models equal in everything but delays) share one
//!   Petri translation, LTS and screen, and nothing else is shared.

use proptest::prelude::*;
use rap::dfs::perf::{analyse_with_activity, PerfDetail};
use rap::dfs::pipelines::{build_pipeline, PipelineSpec, StageDelays};
use rap::dfs::timed::{measure_steady_period, ChoicePolicy};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{to_petri, Dfs, DfsBuilder, DfsError, Lts, PetriImage};
use rap::petri::analysis::{check, quick_check, Properties, QuickCheck};
use rap::petri::reachability::ExploreConfig;
use rap::petri::symmetry::Symmetry;
use rap::session::{CompiledModel, CostModel, CostSummary};
use rap::{Error, Session};
use std::sync::Arc;

const DELAYS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// Random reconfigurable pipeline (stages 2–4, every operating depth,
/// random per-stage f delays) — the §III shape family.
fn arb_pipeline() -> impl Strategy<Value = Dfs> {
    (
        2usize..5,
        1usize..5,
        proptest::collection::vec(0usize..DELAYS.len(), 4),
    )
        .prop_map(|(stages, depth, idx)| {
            let depth = depth.min(stages);
            let f_delays = (0..stages).map(|s| DELAYS[idx[s.min(3)]]).collect();
            let spec = PipelineSpec::reconfigurable_depth(stages, depth)
                .unwrap()
                .with_f_delays(f_delays);
            build_pipeline(&spec).unwrap().dfs
        })
}

/// Random wagged pipeline — the phase-unfolded family.
fn arb_wagged() -> impl Strategy<Value = (Dfs, rap::dfs::NodeId)> {
    (1usize..4, 1usize..3, 0usize..DELAYS.len()).prop_map(|(ways, depth, d)| {
        let w = wagged_pipeline(ways, depth, DELAYS[d]).unwrap();
        (w.dfs, w.output)
    })
}

fn assert_perf_bit_identical(got: &PerfDetail, want: &PerfDetail) {
    assert_eq!(got.report.period.to_bits(), want.report.period.to_bits());
    assert_eq!(
        got.report.throughput.to_bits(),
        want.report.throughput.to_bits()
    );
    assert_eq!(got.report.construction, want.report.construction);
    assert_eq!(got.report.critical.nodes, want.report.critical.nodes);
    assert_eq!(
        got.report.critical.delay.to_bits(),
        want.report.critical.delay.to_bits()
    );
    assert_eq!(got.report.critical.tokens, want.report.critical.tokens);
    assert_eq!(
        got.report.critical.bottleneck,
        want.report.critical.bottleneck
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got.activity_per_item), bits(&want.activity_per_item));
}

fn direct_cost(dfs: &Dfs, cost: &CostModel) -> CostSummary {
    let detail = analyse_with_activity(dfs).unwrap();
    CostSummary {
        area: cost.area(dfs),
        switched_ge_per_item: cost.switched_ge_per_item(dfs, &detail.activity_per_item),
    }
}

/// Every query vs its direct free function, on one model.
fn assert_coherent(dfs: &Dfs, lts_budget: usize, check_budget: usize) {
    let session = Session::new();
    let model = session.compile(dfs);
    assert_queries_match_direct(&model, dfs, lts_budget, check_budget);
    let stats = model.stats();
    assert_eq!(stats.perf_analyses, 1);
    assert_eq!(stats.petri_translations, 1);
    assert_eq!(stats.lts_explorations, 1);
    // the full check and the screen, once each
    assert_eq!(stats.check_runs, 2);
    assert_eq!(stats.cost_evaluations, 1);
}

/// Every query of `model` equals its direct free function on `dfs`, and
/// repeated queries return the cached artifact.
fn assert_queries_match_direct(
    model: &CompiledModel,
    dfs: &Dfs,
    lts_budget: usize,
    check_budget: usize,
) {
    let cost = CostModel::default();

    // perf_detail == analyse_with_activity, bitwise
    let want = analyse_with_activity(dfs).unwrap();
    assert_perf_bit_identical(model.perf_detail().unwrap(), &want);
    // perf() is the report half of the same artifact
    assert!(std::ptr::eq(
        model.perf().unwrap(),
        &model.perf_detail().unwrap().report
    ));

    // petri == to_petri: same structure, same names, same labels
    let img = model.petri();
    let want_img = to_petri(dfs);
    assert_eq!(img.net.place_count(), want_img.net.place_count());
    assert_eq!(img.net.transition_count(), want_img.net.transition_count());
    for t in 0..img.net.transition_count() {
        assert_eq!(img.labels[t], want_img.labels[t]);
    }
    // the translation fixes the pair order; compared as sets here, and
    // as lists in `timing_twins_share_the_delay_free_artifacts`
    let sorted = |mut v: Vec<_>| {
        v.sort();
        v
    };
    assert_eq!(
        sorted(img.complementary_pairs()),
        sorted(want_img.complementary_pairs())
    );

    // lts == Lts::explore: same states, successors and deadlocks — or the
    // identical budget-exceeded error (errors are cached artifacts too)
    match (model.lts(lts_budget), Lts::explore(dfs, lts_budget)) {
        (Ok(lts), Ok(want_lts)) => {
            assert_eq!(lts.len(), want_lts.len());
            assert_eq!(lts.is_truncated(), want_lts.is_truncated());
            assert_eq!(lts.deadlocks(), want_lts.deadlocks());
            for s in lts.states() {
                assert_eq!(lts.successors(s), want_lts.successors(s));
            }
        }
        (Err(got), Err(want)) => assert_eq!(got, Error::Dfs(want)),
        (got, want) => panic!("session {got:?} disagrees with direct {want:?}"),
    }

    // quick_check == quick_check over the direct image
    let check = model.quick_check(check_budget);
    let want_check = quick_check(&want_img.net, &want_img.complementary_pairs(), check_budget);
    assert_eq!(check.states, want_check.states);
    assert_eq!(check.truncated, want_check.truncated);
    assert_eq!(check.deadlock_free, want_check.deadlock_free);
    assert_eq!(check.safe, want_check.safe);
    assert_eq!(
        check.deadlock.as_ref().map(|d| (d.state, d.trace.clone())),
        want_check
            .deadlock
            .as_ref()
            .map(|d| (d.state, d.trace.clone()))
    );
    assert_eq!(check.unsafe_witness, want_check.unsafe_witness);

    // screen == the stubborn check over the direct image, every field
    let reduced = model.screen(check_budget, None).unwrap();
    assert_eq!(*reduced, stubborn_check(&want_img, check_budget, None));
    assert!(Arc::ptr_eq(
        &reduced,
        &model.screen(check_budget, None).unwrap()
    ));

    // cost == the two direct CostModel calls, bitwise
    let summary = model.cost(&cost).unwrap();
    let want_cost = direct_cost(dfs, &cost);
    assert_eq!(summary.area.to_bits(), want_cost.area.to_bits());
    assert_eq!(
        summary.switched_ge_per_item.to_bits(),
        want_cost.switched_ge_per_item.to_bits()
    );

    // repeated queries: the same cached artifact, not a recomputation
    assert!(std::ptr::eq(
        model.perf_detail().unwrap(),
        model.perf_detail().unwrap()
    ));
    if let Ok(lts) = model.lts(lts_budget) {
        assert!(Arc::ptr_eq(&lts, &model.lts(lts_budget).unwrap()));
    }
    assert!(Arc::ptr_eq(&check, &model.quick_check(check_budget)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random reconfigurable pipelines: every query equals its direct
    /// free-function result, repeated queries are served from cache.
    #[test]
    fn pipeline_queries_equal_direct_calls(dfs in arb_pipeline()) {
        assert_coherent(&dfs, 500_000, 50_000);
    }

    /// Random wagged shapes (phase-unfolded analysis): same contract,
    /// plus the steady-period query against the timed-simulator oracle.
    #[test]
    fn wagged_queries_equal_direct_calls((dfs, output) in arb_wagged()) {
        let session = Session::new();
        let model = session.compile(&dfs);
        let want = analyse_with_activity(&dfs).unwrap();
        assert_perf_bit_identical(model.perf_detail().unwrap(), &want);

        let steady = model.steady_period(output, 500).unwrap();
        let want_steady =
            measure_steady_period(&dfs, output, 500, ChoicePolicy::AlwaysTrue).unwrap();
        prop_assert_eq!(steady.period.to_bits(), want_steady.period.to_bits());
        prop_assert_eq!(steady.cycle_marks, want_steady.cycle_marks);
        prop_assert_eq!(steady.transient_marks, want_steady.transient_marks);
        // cached: second query measures nothing
        let again = model.steady_period(output, 500).unwrap();
        prop_assert_eq!(again.period.to_bits(), steady.period.to_bits());
        prop_assert_eq!(model.stats().steady_measurements, 1);
    }

    /// Query order must not matter: ask in opposite orders on two fresh
    /// sessions and compare everything bitwise.
    #[test]
    fn results_are_invariant_under_query_order(dfs in arb_pipeline()) {
        let cost = CostModel::default();
        let s1 = Session::new();
        let m1 = s1.compile(&dfs);
        let perf1 = m1.perf_detail().unwrap().clone();
        let check1 = m1.quick_check(50_000);
        let cost1 = m1.cost(&cost).unwrap();

        let s2 = Session::new();
        let m2 = s2.compile(&dfs);
        let cost2 = m2.cost(&cost).unwrap(); // cost first: demands perf internally
        let check2 = m2.quick_check(50_000);
        let perf2 = m2.perf_detail().unwrap().clone();

        assert_perf_bit_identical(&perf2, &perf1);
        prop_assert_eq!(check1.states, check2.states);
        prop_assert_eq!(check1.deadlock_free, check2.deadlock_free);
        prop_assert_eq!(check1.safe, check2.safe);
        prop_assert_eq!(cost1.area.to_bits(), cost2.area.to_bits());
        prop_assert_eq!(
            cost1.switched_ge_per_item.to_bits(),
            cost2.switched_ge_per_item.to_bits()
        );
        // both sessions did the same amount of real work
        prop_assert_eq!(s1.stats().queries.computations(), s2.stats().queries.computations());
    }

    /// Concurrent queries from many threads: everyone sees the same
    /// artifact and exactly one computation happened per kind.
    #[test]
    fn concurrent_queries_share_one_computation(dfs in arb_pipeline()) {
        let session = Session::new();
        let model = session.compile(&dfs);
        let cost = CostModel::default();
        let periods: Vec<u64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let model = Arc::clone(&model);
                    let cost = &cost;
                    scope.spawn(move || {
                        let p = model.perf_detail().unwrap().report.period;
                        let c = model.quick_check(50_000);
                        let k = model.cost(cost).unwrap();
                        assert!(k.area > 0.0);
                        assert!(!c.deadlock_free.is_violated());
                        p.to_bits()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        prop_assert!(periods.windows(2).all(|w| w[0] == w[1]));
        let stats = model.stats();
        prop_assert_eq!(stats.perf_analyses, 1, "in-flight reservation");
        prop_assert_eq!(stats.petri_translations, 1);
        prop_assert_eq!(stats.check_runs, 1);
        prop_assert_eq!(stats.cost_evaluations, 1);
        // 8 direct queries + exactly 1 internal one from the single cost
        // evaluation (cache-hit cost queries never re-enter perf)
        prop_assert_eq!(stats.perf_queries, 8 + 1);
    }
}

/// The acceptance pin: a model with choice (2-way wagging, so the analysis
/// *must* phase-unfold) queried for `perf`, `quick_check` and `cost`
/// performs exactly one Petri translation and one phase unfolding, with
/// results bit-identical to the direct calls.
#[test]
fn one_translation_and_one_unfolding_serve_perf_check_and_cost() {
    let w = wagged_pipeline(2, 2, 8.0).unwrap();
    let session = Session::new();
    let model = session.compile(&w.dfs);
    let cost = CostModel::default();

    let perf = model.perf().unwrap();
    let check = model.quick_check(100_000);
    let summary = model.cost(&cost).unwrap();

    // bit-identical to the direct free-function calls
    let want = analyse_with_activity(&w.dfs).unwrap();
    assert_eq!(perf.period.to_bits(), want.report.period.to_bits());
    assert!(matches!(
        perf.construction,
        rap::dfs::perf::Construction::PhaseUnfolded { phases: 2 }
    ));
    let want_img = to_petri(&w.dfs);
    let want_check = quick_check(&want_img.net, &want_img.complementary_pairs(), 100_000);
    assert_eq!(check.states, want_check.states);
    assert_eq!(check.deadlock_free, want_check.deadlock_free);
    let want_cost = direct_cost(&w.dfs, &cost);
    assert_eq!(summary.area.to_bits(), want_cost.area.to_bits());
    assert_eq!(
        summary.switched_ge_per_item.to_bits(),
        want_cost.switched_ge_per_item.to_bits()
    );

    // the pin: one translation, one unfolding — across all three queries
    let stats = session.stats();
    assert_eq!(stats.queries.petri_translations, 1, "{stats:?}");
    assert_eq!(stats.queries.perf_analyses, 1, "{stats:?}");
    assert_eq!(stats.compiles, 1);
    assert_eq!(stats.models, 1);
}

/// Errors are cached artifacts too: the budget-exceeded LTS and the
/// token-free-cycle analysis fail identically to the direct calls, once.
#[test]
fn cached_errors_match_direct_errors() {
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(3, 2).unwrap()).unwrap();
    let session = Session::new();
    let model = session.compile(&p.dfs);
    // a 10-state budget is always exceeded
    let got = model.lts(10).unwrap_err();
    let want = Lts::explore(&p.dfs, 10).unwrap_err();
    assert_eq!(got, Error::Dfs(want));
    let again = model.lts(10).unwrap_err();
    assert_eq!(got, again);
    assert_eq!(model.stats().lts_explorations, 1, "failure explored once");

    // interning: compiling the identical pipeline again shares the cache
    let twin = session.compile(
        &build_pipeline(&PipelineSpec::reconfigurable_depth(3, 2).unwrap())
            .unwrap()
            .dfs,
    );
    assert!(Arc::ptr_eq(&model, &twin));
    assert!(matches!(
        twin.lts(10).unwrap_err(),
        Error::Dfs(DfsError::StateBudgetExceeded { budget: 10 })
    ));
    assert_eq!(twin.stats().lts_explorations, 1);
}

/// A marked ring: register `names[marked]` holds the token, `names[1]` is
/// a logic stage, every node has latency `delay`.
fn ring(names: &[&str], marked: usize, delay: f64) -> Dfs {
    let mut b = DfsBuilder::new();
    let ids: Vec<_> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let node = if i == 1 {
                b.logic(*name)
            } else if i == marked {
                b.register(*name).marked()
            } else {
                b.register(*name)
            };
            node.delay(delay).build()
        })
        .collect();
    for i in 0..ids.len() {
        b.connect(ids[i], ids[(i + 1) % ids.len()]);
    }
    b.finish().unwrap()
}

/// Timing twins — one pipeline under two `StageDelays` — share one Petri
/// translation, one LTS exploration and one screen, but each has its own
/// throughput analysis, and each model's answers equal the free functions
/// on its own `Dfs`. A renamed node or a different initial marking makes
/// a model that shares nothing.
#[test]
fn timing_twins_share_the_delay_free_artifacts() {
    let spec = PipelineSpec::reconfigurable_depth(3, 2).unwrap();
    let slow = StageDelays {
        f: 3.0,
        g: 5.0,
        register: 1.5,
        control: 0.25,
    };
    let fast = build_pipeline(&spec.clone().with_delays(StageDelays::default()))
        .unwrap()
        .dfs;
    let slow = build_pipeline(&spec.with_delays(slow)).unwrap().dfs;
    let session = Session::new();
    let (a, b) = (session.compile(&fast), session.compile(&slow));
    assert!(!Arc::ptr_eq(&a, &b), "twins are distinct models");
    assert_queries_match_direct(&a, &fast, 500_000, 50_000);
    assert_queries_match_direct(&b, &slow, 500_000, 50_000);
    assert_ne!(
        a.perf().unwrap().period.to_bits(),
        b.perf().unwrap().period.to_bits(),
        "the delays differ, and so do the periods"
    );
    // the shared image lists its pairs exactly as a fresh translation does
    assert_eq!(
        b.petri().complementary_pairs(),
        to_petri(&slow).complementary_pairs()
    );
    let stats = session.stats();
    assert_eq!(stats.models, 2);
    assert_eq!(stats.queries.petri_translations, 1, "{stats:?}");
    assert_eq!(stats.queries.lts_explorations, 1, "{stats:?}");
    // the full check and the screen, once each for the group
    assert_eq!(stats.queries.check_runs, 2, "{stats:?}");
    assert_eq!(stats.queries.perf_analyses, 2, "{stats:?}");
    assert_eq!(stats.queries.cost_evaluations, 2, "{stats:?}");

    // anything but a delay splits the group
    let session = Session::new();
    let names = ["a", "f", "b", "c"];
    for dfs in [
        ring(&names, 0, 1.0),
        ring(&names, 0, 2.0), // a twin of the first
        ring(&["a", "f", "b", "x"], 0, 1.0),
        ring(&names, 2, 1.0),
    ] {
        let model = session.compile(&dfs);
        assert_queries_match_direct(&model, &dfs, 10_000, 10_000);
    }
    let stats = session.stats();
    assert_eq!(stats.models, 4);
    assert_eq!(stats.queries.petri_translations, 3, "{stats:?}");
    assert_eq!(stats.queries.lts_explorations, 3, "{stats:?}");
    assert_eq!(stats.queries.check_runs, 2 * 3, "{stats:?}");
    assert_eq!(stats.queries.perf_analyses, 4, "{stats:?}");
}

/// The check a screen runs: 1-safety over the image's pairs, on a
/// stubborn-set reduced exploration under `budget`.
fn stubborn_check(img: &PetriImage, budget: usize, sym: Option<&Symmetry>) -> QuickCheck {
    let pairs = img.complementary_pairs();
    let props = Properties {
        pairs: &pairs,
        ..Properties::default()
    };
    let cfg = ExploreConfig {
        max_states: budget,
        stubborn: true,
        ..ExploreConfig::default()
    };
    check(&img.net, &props, &cfg, sym).into()
}

/// The screen on a way rotation equals the direct quotient screen, and a
/// rotation that is no automorphism is a typed error, cached like a
/// result and never replaced by an unreduced run.
#[test]
fn screens_on_the_way_rotation_equal_the_direct_quotient_screen() {
    let cfg = ExploreConfig {
        max_states: 20_000,
        ..ExploreConfig::default()
    };
    for ways in [2, 3] {
        let w = wagged_pipeline(ways, 1, 1.0).unwrap();
        let model = Session::new().compile(&w.dfs);
        let img = to_petri(&w.dfs);
        let sym = img.induced_symmetry(&w.way_rotation).unwrap();
        let want = stubborn_check(&img, cfg.max_states, Some(&sym));
        let got = model.screen(cfg.max_states, Some(&w.way_rotation)).unwrap();
        assert_eq!(*got, want, "{ways} ways");

        let mut broken = w.way_rotation.clone();
        broken.swap(0, 1);
        for _ in 0..2 {
            let err = model.screen(cfg.max_states, Some(&broken)).unwrap_err();
            assert!(
                matches!(
                    err,
                    Error::Petri(rap::petri::PetriError::InvalidSymmetry { .. })
                ),
                "{err}"
            );
        }
        assert_eq!(model.stats().check_runs, 2, "one screen, one cached error");
    }
}

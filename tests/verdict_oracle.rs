//! `quick_check` and `quick_check_quotient` against the post-hoc verdict
//! pass they replaced, field for field.
//!
//! The screen now takes its deadlock witness from the dead states the
//! engine records on discovery, and scans the complementary pairs only
//! when the P-invariant certificate fails. The oracle below is the former
//! pass, kept here as a test-only reference: it walks every explored state
//! without recorded successors, re-checks it against the net for enabled
//! transitions, and then scans every state for a broken pair. Both must
//! agree on every field of [`QuickCheck`] — state count, truncation, both
//! verdicts and both witnesses — on random nets (whose random pairs mostly
//! fail the certificate and take the scan), on random paper pipelines and
//! wagged shapes (whose pairs certify), under tiny budgets and in quotient
//! mode.

use proptest::prelude::*;
use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{to_petri, Dfs};
use rap::petri::analysis::{
    check_complementary_pairs, quick_check, quick_check_quotient, Deadlock, QuickCheck,
    QuickVerdict,
};
use rap::petri::reachability::{
    explore_quotient_truncated, explore_truncated, ExploreConfig, StateSpace,
};
use rap::petri::symmetry::Symmetry;
use rap::petri::{Marking, PetriNet, PlaceId};

/// Budgets from "stops inside the first expansion" up to exhaustive for
/// the small inputs.
const BUDGETS: [usize; 6] = [1, 2, 7, 40, 500, 3_000];

/// The former verdict pass of `quick_check`, verbatim over the public API.
fn posthoc_verdicts(
    net: &PetriNet,
    space: &StateSpace,
    pairs: &[(PlaceId, PlaceId)],
    max_states: usize,
) -> QuickCheck {
    let truncated = space.is_truncated();
    let mut deadlock = None;
    let mut marking = Marking::empty(net.place_count());
    let mut enabled = Vec::new();
    for s in space.states() {
        if !space.successors(s).is_empty() {
            continue;
        }
        space.fill_marking(s, &mut marking);
        net.enabled_transitions_into(&marking, &mut enabled);
        if enabled.is_empty() {
            deadlock = Some(Deadlock {
                state: s,
                marking: space.concrete_marking(s),
                trace: space.concrete_trace_to(s),
            });
            break;
        }
    }
    let verdict = |violated: bool| match (violated, truncated) {
        (true, _) => QuickVerdict::Violated,
        (false, false) => QuickVerdict::Holds,
        (false, true) => QuickVerdict::Inconclusive { budget: max_states },
    };
    let unsafe_witness = check_complementary_pairs(space, pairs);
    QuickCheck {
        states: space.len(),
        truncated,
        deadlock_free: verdict(deadlock.is_some()),
        deadlock,
        safe: verdict(unsafe_witness.is_some()),
        unsafe_witness,
    }
}

fn cfg(max_states: usize) -> ExploreConfig {
    ExploreConfig {
        max_states,
        ..ExploreConfig::default()
    }
}

fn assert_matches_oracle(
    net: &PetriNet,
    pairs: &[(PlaceId, PlaceId)],
    budget: usize,
) -> Result<(), TestCaseError> {
    let want = posthoc_verdicts(net, &explore_truncated(net, cfg(budget)), pairs, budget);
    prop_assert_eq!(quick_check(net, pairs, budget), want, "budget={}", budget);
    Ok(())
}

fn assert_quotient_matches_oracle(
    net: &PetriNet,
    pairs: &[(PlaceId, PlaceId)],
    budget: usize,
    sym: &Symmetry,
) -> Result<(), TestCaseError> {
    let space = explore_quotient_truncated(net, cfg(budget), &sym.state_symmetry());
    let want = posthoc_verdicts(net, &space, pairs, budget);
    prop_assert_eq!(
        quick_check_quotient(net, pairs, budget, sym),
        want,
        "quotient budget={}",
        budget
    );
    Ok(())
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

/// `copies` copies of the read-produce net `y_0 --read--> oops --> y_1`,
/// whose pair `(y_0, y_1)` fails the certificate (firing `oops` marks
/// both), with the rotation of the copies and the closed pair set.
fn oops_copies(copies: usize) -> (PetriNet, Vec<(PlaceId, PlaceId)>, Symmetry) {
    let mut net = PetriNet::new();
    let mut pairs = Vec::new();
    for c in 0..copies {
        let y0 = net.add_place(format!("y{c}_0"), true);
        let y1 = net.add_place(format!("y{c}_1"), false);
        let t = net.add_transition(format!("oops{c}"));
        net.read(t, y0);
        net.produce(t, y1);
        pairs.push((y0, y1));
    }
    let rotate = |n: usize| -> Vec<u32> {
        (0..copies * n)
            .map(|i| ((i + n) % (copies * n)) as u32)
            .collect()
    };
    let sym = Symmetry::new(&net, rotate(2)).expect("copy rotation");
    (net, pairs, sym)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random nets with random pairs: deadlocks inside truncated prefixes,
    /// frontier states that are not dead, and pairs that fail the
    /// certificate, so the fallback scan must find the same witness.
    #[test]
    fn random_nets_match_the_posthoc_pass(
        net in arb_net(9, 8),
        raw_pairs in proptest::collection::vec((0usize..9, 0usize..9), 0..4),
    ) {
        let pairs: Vec<(PlaceId, PlaceId)> = raw_pairs
            .into_iter()
            .map(|(a, b)| (PlaceId::from_index(a), PlaceId::from_index(b)))
            .collect();
        for budget in BUDGETS {
            assert_matches_oracle(&net, &pairs, budget)?;
        }
    }

    /// Random paper pipelines with their translation's pairs, which the
    /// certificate proves, so no scan runs.
    #[test]
    fn random_pipelines_match_the_posthoc_pass(dfs in arb_pipeline()) {
        let img = to_petri(&dfs);
        let pairs = img.complementary_pairs();
        prop_assert!(rap::petri::invariants::certify_complementary_pairs(&img.net, &pairs).is_none());
        for budget in BUDGETS {
            assert_matches_oracle(&img.net, &pairs, budget)?;
        }
    }
}

/// Wagged shapes, full and quotient under the way rotation.
#[test]
fn wagged_shapes_match_the_posthoc_pass() {
    for ways in 1usize..=3 {
        let w = wagged_pipeline(ways, 1, 1.0).unwrap();
        let img = to_petri(&w.dfs);
        let pairs = img.complementary_pairs();
        let sym = img.induced_symmetry(&w.way_rotation).unwrap();
        for budget in BUDGETS {
            assert_matches_oracle(&img.net, &pairs, budget).unwrap();
            assert_quotient_matches_oracle(&img.net, &pairs, budget, &sym).unwrap();
        }
    }
}

/// The read-produce `oops` net keeps its 1-safety witness through the
/// fallback scan, alone, in copies, and in quotient mode.
#[test]
fn uncertified_pairs_keep_their_witness() {
    for copies in 1usize..=3 {
        let (net, pairs, sym) = oops_copies(copies);
        assert!(rap::petri::invariants::certify_complementary_pairs(&net, &pairs).is_some());
        for budget in BUDGETS {
            assert_matches_oracle(&net, &pairs, budget).unwrap();
            assert_quotient_matches_oracle(&net, &pairs, budget, &sym).unwrap();
        }
        // from the second state on, the first `oops` firing is explored
        for budget in &BUDGETS[1..] {
            let qc = quick_check(&net, &pairs, *budget);
            assert_eq!(
                qc.safe,
                QuickVerdict::Violated,
                "copies={copies} budget={budget}"
            );
            assert!(qc.unsafe_witness.is_some());
        }
    }
}

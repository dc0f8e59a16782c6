//! Symmetry-reduction soundness on the paper's wagged pipelines.
//!
//! The wagged construction (paper §V) replicates the computation stages
//! into `k` ways fed round-robin; rotating the ways (and shifting the
//! distribution/collection rings by 3) is a structural automorphism of the
//! model. The quotient engine explores one canonical representative per
//! rotation orbit, so it must (a) reach the *same* 1-safety and deadlock
//! verdicts as the unreduced engine, and (b) shrink the state count by a
//! factor approaching `k`. Both claims are pinned here — (b) with exact
//! state counts, as a regression guard on the canonicalization.

use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{node_rotation_symmetry, to_petri, Lts};
use rap::petri::analysis::{check, quick_check, quick_check_quotient, Properties, QuickVerdict};
use rap::petri::reachability::ExploreConfig;
use rap::petri::TransitionId;

/// Full reachable state count of the 2-way wagged pipeline (comp depth 1)
/// and its rotation quotient. The orbit of every reachable state off the
/// symmetry axis has size exactly 2 here, and fixed points are rare enough
/// not to show at this scale: the reduction is *exactly* 2x.
const WAGGED2_FULL: usize = 1_476_774;
const WAGGED2_QUOTIENT: usize = 738_387;

#[test]
fn wagged2_quotient_verdicts_equal_full_verdicts() {
    let w = wagged_pipeline(2, 1, 1.0).unwrap();
    let img = to_petri(&w.dfs);
    let pairs = img.complementary_pairs();
    let sym = img.induced_symmetry(&w.way_rotation).unwrap();
    assert_eq!(sym.order(), 2);
    assert!(
        sym.pairs_closed(&pairs),
        "wagging replicates complementary pairs into every way, so the pair \
         set must be closed under the way rotation"
    );

    let budget = 2_000_000;
    let full = quick_check(&img.net, &pairs, budget);
    let quo = quick_check_quotient(&img.net, &pairs, budget, &sym);

    // both complete within budget and agree: clean on the whole space
    assert!(!full.truncated && !quo.truncated);
    assert_eq!(full.deadlock_free, QuickVerdict::Holds);
    assert_eq!(full.safe, QuickVerdict::Holds);
    assert_eq!(quo.deadlock_free, full.deadlock_free);
    assert_eq!(quo.safe, full.safe);

    // the exact-count regression guard: 2x reduction, to the state
    assert_eq!(full.states, WAGGED2_FULL);
    assert_eq!(quo.states, WAGGED2_QUOTIENT);
    assert_eq!(quo.states * 2, full.states);
}

#[test]
fn wagged2_lts_quotient_matches_petri_quotient() {
    // the direct-semantics backend must agree with the Petri backend on
    // both the full and the quotient counts (the two engines share the
    // canonicalization, not the encoding — agreement is evidence neither
    // quotient is an artifact of its state layout)
    let w = wagged_pipeline(2, 1, 1.0).unwrap();
    let sym = node_rotation_symmetry(&w.dfs, &w.way_rotation).unwrap();
    assert_eq!(sym.order(), 2);

    let cfg = ExploreConfig {
        max_states: 2_000_000,
        ..ExploreConfig::default()
    };
    let full = Lts::explore_with(&w.dfs, &cfg, None);
    assert!(!full.is_truncated());
    assert_eq!(full.len(), WAGGED2_FULL);
    assert!(full.deadlocks().is_empty());

    let quo = Lts::explore_with(&w.dfs, &cfg, Some(&sym));
    assert!(!quo.is_truncated());
    assert_eq!(quo.len(), WAGGED2_QUOTIENT);
    assert!(quo.deadlocks().is_empty());
}

#[test]
fn wagged3_quotient_verdicts_equal_full_verdicts_under_budget() {
    // the 3-way full space exceeds 16M states (it truncates even the
    // release bench sweep), so the k=3 verdict comparison is budget-bounded:
    // under an equal budget both engines must report the same Inconclusive
    // verdicts with no violation claimed — the quotient must not
    // manufacture a deadlock or safety counterexample out of
    // canonicalization, and must not claim completeness it does not have
    let w = wagged_pipeline(3, 1, 1.0).unwrap();
    let img = to_petri(&w.dfs);
    let pairs = img.complementary_pairs();
    let sym = img.induced_symmetry(&w.way_rotation).unwrap();
    assert_eq!(sym.order(), 3);
    assert!(sym.pairs_closed(&pairs));

    let budget = 60_000;
    let full = quick_check(&img.net, &pairs, budget);
    let quo = quick_check_quotient(&img.net, &pairs, budget, &sym);

    assert!(full.truncated && quo.truncated);
    assert!(full.no_violation() && quo.no_violation());
    assert_eq!(full.deadlock_free, QuickVerdict::Inconclusive { budget });
    assert_eq!(quo.deadlock_free, full.deadlock_free);
    assert_eq!(quo.safe, full.safe);
    assert_eq!(full.states, budget);
    assert_eq!(quo.states, budget);
}

#[test]
fn wagged3_quotient_explores_only_canonical_representatives() {
    // internal invariant behind the counting argument: every state the
    // quotient engine numbers is the lexicographically-least rotation of
    // its orbit (otherwise orbits would be double-counted and the k x
    // reduction would silently erode)
    let w = wagged_pipeline(3, 1, 1.0).unwrap();
    let img = to_petri(&w.dfs);
    let sym = img.induced_symmetry(&w.way_rotation).unwrap();
    let ssym = sym.state_symmetry();

    let space = rap::petri::reachability::explore_quotient_truncated(
        &img.net,
        ExploreConfig {
            max_states: 5_000,
            ..ExploreConfig::default()
        },
        &ssym,
    );
    let words = space.words(space.initial()).len();
    let mut canon = vec![0u64; words];
    let mut tmp = vec![0u64; words];
    for s in space.states() {
        let raw = space.words(s);
        ssym.canonicalize(raw, &mut canon, &mut tmp);
        assert_eq!(
            raw, canon,
            "quotient engine stored a non-canonical representative"
        );
    }
}

/// Persistence on the wagged quotients, under `dfs::verify`'s exemption of
/// the intended `Mt_x+`/`Mf_x+` choices: at a 20k budget the 2- and 3-way
/// quotients report no hazard, as the full spaces do. (The check once read
/// each successor's stored representative, rotated into another frame, and
/// reported 16,513 and 25,096 false hazards here.)
#[test]
fn wagged_quotients_report_the_hazards_of_the_full_space() {
    let cfg = ExploreConfig {
        max_states: 20_000,
        ..ExploreConfig::default()
    };
    for ways in [2, 3] {
        let w = wagged_pipeline(ways, 1, 1.0).unwrap();
        let img = to_petri(&w.dfs);
        let sym = img.induced_symmetry(&w.way_rotation).unwrap();
        let choice = |en: TransitionId, dis: TransitionId| {
            let (a, b) = (img.label(en), img.label(dis));
            let pair = |t: &str, f: &str| {
                (t.strip_prefix("Mt_").zip(f.strip_prefix("Mf_"))).is_some_and(|(x, y)| x == y)
            };
            a.ends_with('+') && b.ends_with('+') && (pair(a, b) || pair(b, a))
        };
        let props = Properties {
            persistence: Some(&choice),
            ..Properties::default()
        };
        let quo = check(&img.net, &props, &cfg, Some(&sym));
        let full = check(&img.net, &props, &cfg, None);
        assert!(quo.truncated && full.truncated, "{ways}-way");
        let hazards = |c: &rap::petri::analysis::CheckReport| (c.conflicts.len(), c.persistent);
        let none = (0, Some(QuickVerdict::Inconclusive { budget: 20_000 }));
        assert_eq!((hazards(&quo), hazards(&full)), (none, none), "{ways}-way");
    }
}

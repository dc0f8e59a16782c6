//! Wall-clock deadline budget: determinism and typed-outcome contract.
//!
//! `ExploreConfig::deadline` turns runaway explorations into a typed
//! outcome of its own (`DeadlineExpired`, reported as a truncated space and
//! degrading verdicts to `Inconclusive`). The clock is consulted only once
//! a BFS level is fully expanded, so the cut prefix is always a
//! complete-level prefix of the BFS order — this suite pins the two halves
//! of that contract:
//!
//! * **zero deadline** cuts after the *first* level, producing the
//!   identical (bit-for-bit) one-level graph on every run — the only
//!   deterministically reachable cut point, and the proof that a deadline
//!   cut is a BFS-order prefix, not an artifact of timing;
//! * **unreachable deadline** changes nothing: the graph equals the
//!   undeadlined exploration exactly.
//!
//! A deadline cut is reported as what it is, never as a state-budget
//! overrun.

use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::to_petri;
use rap::petri::analysis::{check, quick_check, Properties, QuickVerdict};
use rap::petri::engine::ExploreOutcome;
use rap::petri::reachability::{explore, explore_truncated, ExploreConfig, StateId, StateSpace};
use rap::petri::{PetriError, TransitionId};
use std::time::Duration;

type Fingerprint = Vec<(Vec<u64>, Vec<(TransitionId, StateId)>)>;

fn fingerprint(space: &StateSpace) -> Fingerprint {
    space
        .states()
        .map(|s| (space.words(s).to_vec(), space.successors(s).to_vec()))
        .collect()
}

#[test]
fn zero_deadline_cuts_after_first_level_commit_at_every_thread_count() {
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(3, 1).unwrap()).unwrap();
    let img = to_petri(&p.dfs);
    let full = explore_truncated(
        &img.net,
        ExploreConfig {
            max_states: 100_000,
            ..ExploreConfig::default()
        },
    );
    assert!(!full.is_truncated());
    let full_fp = fingerprint(&full);
    let cuts: Vec<Fingerprint> = (0..3)
        .map(|_| {
            let space = explore_truncated(
                &img.net,
                ExploreConfig {
                    max_states: 100_000,
                    deadline: Some(Duration::ZERO),
                    ..ExploreConfig::default()
                },
            );
            assert!(space.is_truncated(), "zero deadline must truncate");
            assert!(!space.is_empty(), "the initial state is always committed");
            fingerprint(&space)
        })
        .collect();
    for (run, cut) in cuts.iter().enumerate() {
        assert_eq!(
            cut, &cuts[0],
            "deadline cut of run {run} differs from run 0"
        );
        // the cut prefix is exactly the full exploration's first BFS
        // levels: same states, same ids, same edges among them
        assert!(cut.len() < full_fp.len(), "zero deadline cut early");
        for (i, (marking, succs)) in cut.iter().enumerate() {
            assert_eq!(marking, &full_fp[i].0, "state {i} diverges from BFS order");
            // edges to states beyond the cut exist only in the full graph;
            // within the prefix, every recorded edge matches
            for edge in succs {
                assert!(full_fp[i].1.contains(edge), "alien edge {edge:?} at {i}");
            }
        }
    }
}

#[test]
fn unreachable_deadline_is_a_no_op() {
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(3, 1).unwrap()).unwrap();
    let img = to_petri(&p.dfs);
    let with = explore_truncated(
        &img.net,
        ExploreConfig {
            max_states: 100_000,
            deadline: Some(Duration::from_secs(3600)),
            ..ExploreConfig::default()
        },
    );
    let without = explore_truncated(
        &img.net,
        ExploreConfig {
            max_states: 100_000,
            ..ExploreConfig::default()
        },
    );
    assert!(!with.is_truncated());
    assert_eq!(fingerprint(&with), fingerprint(&without));
}

#[test]
fn deadline_cut_quick_check_degrades_to_inconclusive_not_wrong() {
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(3, 1).unwrap()).unwrap();
    let img = to_petri(&p.dfs);
    let pairs = img.complementary_pairs();
    // the reference: an exhaustive check — the model is clean
    let exhaustive = quick_check(&img.net, &pairs, 1_000_000);
    assert!(exhaustive.is_clean());
    // a time-boxed check over a tiny prefix must say Inconclusive (the
    // prefix holds), never Violated, never Holds
    let props = Properties {
        pairs: &pairs,
        ..Properties::default()
    };
    let cut = check(
        &img.net,
        &props,
        &ExploreConfig {
            max_states: 1_000_000,
            deadline: Some(Duration::ZERO),
            ..ExploreConfig::default()
        },
        None,
    );
    assert!(cut.truncated);
    assert_eq!(
        cut.deadlock_free,
        QuickVerdict::Inconclusive { budget: 1_000_000 }
    );
    assert_eq!(cut.safe, QuickVerdict::Inconclusive { budget: 1_000_000 });
    assert!(cut.deadlocks.is_empty());
    assert!(cut.unsafe_witness.is_none());
}

#[test]
fn deadline_cut_is_not_reported_as_a_budget_overrun() {
    // reconfigurable_depth(3,1) has 34,704 states, far inside the budget:
    // only the zero deadline can stop this exploration
    let p = build_pipeline(&PipelineSpec::reconfigurable_depth(3, 1).unwrap()).unwrap();
    let img = to_petri(&p.dfs);
    let cfg = ExploreConfig {
        max_states: 100_000,
        deadline: Some(Duration::ZERO),
        ..ExploreConfig::default()
    };
    let err = explore(&img.net, cfg.clone()).unwrap_err();
    assert!(
        !matches!(err, PetriError::StateBudgetExceeded { .. }),
        "deadline cut reported as a budget overrun: {err}"
    );
    assert!(err.to_string().contains("deadline"), "{err}");
    let space = explore_truncated(&img.net, cfg);
    assert!(space.is_truncated());
    assert!(
        !matches!(space.outcome(), ExploreOutcome::Truncated { .. }),
        "deadline cut recorded as a budget truncation: {:?}",
        space.outcome()
    );
}

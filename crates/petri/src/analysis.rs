//! Standard verification analyses: deadlock and persistence.
//!
//! These are the "standard properties" the paper verifies through MPSAT
//! (§II-D): deadlock freedom, and persistence (absence of hazards — an
//! enabled event must not be disabled by another event firing). Custom
//! functional properties are expressed in the Reach-style language of the
//! `rap-reach` crate and evaluated over the same state space.
//!
//! Deadness has one definition here, shared with `dfs-core`'s `Lts`: a
//! state is dead when its enabled set was empty as the explorer committed
//! it ([`StateSpace::deadlocks`]). No analysis re-derives it from "no
//! recorded successors", which would also match the unexpanded frontier
//! of a truncated exploration.

use crate::reachability::{
    explore_quotient_truncated, explore_truncated, ExploreConfig, StateId, StateSpace,
};
use crate::symmetry::Symmetry;
use crate::{Marking, PetriError, PetriNet, PlaceId, TransitionId};

/// A reachable deadlock: a state with no enabled transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock {
    /// The dead state.
    pub state: StateId,
    /// The dead marking itself.
    pub marking: Marking,
    /// Firing sequence from the initial marking to the dead state.
    pub trace: Vec<TransitionId>,
}

/// Searches the state space for deadlocks.
///
/// Returns all dead states (often one suffices for debugging, but incorrect
/// control initialisation in DFS models typically produces families of dead
/// states; reporting them all mirrors the tool's behaviour). Reads the
/// explorer's dead list ([`StateSpace::deadlocks`]), so a truncated space
/// reports only states that are really dead, never its unexpanded frontier.
#[must_use]
pub fn find_deadlocks(space: &StateSpace) -> Vec<Deadlock> {
    space
        .deadlocks()
        .iter()
        .map(|&s| Deadlock {
            state: s,
            marking: space.marking(s),
            trace: space.trace_to(s),
        })
        .collect()
}

/// A persistence violation: in `state`, both `enabled` and `disabler` were
/// enabled, but firing `disabler` disabled `enabled` without it having fired.
#[derive(Debug, Clone)]
pub struct PersistenceViolation {
    /// State in which the conflict occurs.
    pub state: StateId,
    /// The transition that loses its enabledness.
    pub enabled: TransitionId,
    /// The transition whose firing disables `enabled`.
    pub disabler: TransitionId,
    /// Trace from the initial marking to `state`.
    pub trace: Vec<TransitionId>,
}

/// Checks persistence over the reachable state space.
///
/// A net is *persistent* when no enabled transition can be disabled by the
/// firing of a different transition. Non-persistence in the PN image of a
/// DFS model indicates a hazard (§III-A: "several cases of deadlock and
/// non-persistent behaviour ... were identified").
///
/// `allowed_conflicts` lets the caller exempt transition pairs that are
/// *intended* choices (e.g. the non-deterministic `Mt+`/`Mf+` evaluation of a
/// control register fed by a data predicate); the predicate receives both
/// transition ids and should return `true` when the pair is an intended
/// choice rather than a hazard.
#[must_use]
pub fn find_persistence_violations(
    net: &PetriNet,
    space: &StateSpace,
    mut allowed_conflicts: impl FnMut(TransitionId, TransitionId) -> bool,
) -> Vec<PersistenceViolation> {
    // word-level enabledness via the incidence index: the check runs over
    // every ordered pair of concurrently enabled transitions, so avoiding a
    // Marking materialisation per probe matters on large spaces
    let inc = crate::engine::Incidence::from_net(net);
    let mut out = Vec::new();
    for s in space.states() {
        let succs = space.successors(s);
        if succs.len() < 2 {
            continue;
        }
        for &(disabler, after) in succs {
            let after_words = space.words(after);
            for &(enabled, _) in succs {
                if enabled == disabler {
                    continue;
                }
                if inc.is_enabled(enabled, after_words) {
                    continue;
                }
                if allowed_conflicts(enabled, disabler) {
                    continue;
                }
                out.push(PersistenceViolation {
                    state: s,
                    enabled,
                    disabler,
                    trace: space.trace_to(s),
                });
            }
        }
    }
    out
}

/// Outcome of one property of a budget-bounded [`quick_check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuickVerdict {
    /// The property holds over the *entire* reachable space (the budget was
    /// not hit, so the exploration was exhaustive).
    Holds,
    /// A genuine violation was found (violations found within a truncated
    /// prefix are still real).
    Violated,
    /// No violation found, but the state budget truncated the exploration —
    /// the property holds on the explored prefix only. Carries the budget
    /// that was hit so callers can report (or retry past) the exact bound.
    /// [`screen`] also reports 1-safety over uncertified pairs this way,
    /// truncated or not: its reduced space need not hold the unsafe
    /// marking.
    Inconclusive {
        /// The `max_states` budget that stopped exploration.
        budget: usize,
    },
}

impl QuickVerdict {
    /// Did the check find a violation?
    #[must_use]
    pub fn is_violated(self) -> bool {
        self == QuickVerdict::Violated
    }
}

/// Result of a budget-bounded deadlock + 1-safety check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuickCheck {
    /// States explored.
    pub states: usize,
    /// Whether the budget truncated the exploration.
    pub truncated: bool,
    /// Deadlock-freedom verdict; [`QuickCheck::deadlock`] carries the
    /// counterexample on violation.
    pub deadlock_free: QuickVerdict,
    /// The first deadlock found, if any.
    pub deadlock: Option<Deadlock>,
    /// Complementary-pair (1-safety) verdict over the supplied pairs;
    /// [`QuickVerdict::Holds`] trivially when `pairs` is empty and the
    /// space was exhausted.
    pub safe: QuickVerdict,
    /// On a safety violation: the offending state and pair index.
    pub unsafe_witness: Option<(StateId, usize)>,
}

impl QuickCheck {
    /// Both properties verified over the whole space.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.deadlock_free == QuickVerdict::Holds && self.safe == QuickVerdict::Holds
    }

    /// Neither property violated (possibly only on a truncated prefix).
    #[must_use]
    pub fn no_violation(&self) -> bool {
        !self.deadlock_free.is_violated() && !self.safe.is_violated()
    }
}

/// Budget-bounded deadlock and 1-safety check over the *full* state space.
/// (The design sweep's cheaper screen, which decides deadlock-freedom on a
/// stubborn-set reduction, is [`screen`].)
///
/// Explores at most `max_states` markings (never erroring on overrun,
/// unlike [`crate::reachability::explore`]) and checks the explored prefix
/// for deadlocks and for violations of the complementary-pair 1-safety
/// invariant (see [`check_complementary_pairs`]; DFS translations obtain
/// the pairs from `PetriImage::complementary_pairs`).
///
/// Truncation is handled soundly in both directions: a violation found in
/// the prefix is a real violation of the net, and a deadlock is a state
/// whose enabled set the engine found empty when it committed the state
/// ([`StateSpace::deadlocks`]) — an unexpanded frontier state of a
/// truncated exploration is *not* a counterexample. When the budget was
/// hit and nothing was found, the verdicts say
/// [`QuickVerdict::Inconclusive`] instead of over-claiming.
///
/// Neither verdict costs a pass over the explored states. The deadlock
/// witness is the first entry of the dead list. The 1-safety scan
/// ([`check_complementary_pairs`]) runs only when the pairs fail the
/// structural P-invariant certificate
/// ([`crate::invariants::certify_complementary_pairs`]); a certified pair
/// set holds on every reachable marking, so the scan could find nothing.
/// Every DFS translation certifies.
#[must_use]
pub fn quick_check(net: &PetriNet, pairs: &[(PlaceId, PlaceId)], max_states: usize) -> QuickCheck {
    quick_check_with(
        net,
        pairs,
        &ExploreConfig {
            max_states,
            ..ExploreConfig::default()
        },
    )
}

/// [`quick_check`] under an explicit [`ExploreConfig`] — the variant that
/// exposes the wall-clock [`deadline`](ExploreConfig::deadline) and the
/// recorder ([`obs`](ExploreConfig::obs)) in addition to the state budget.
///
/// A deadline expiry degrades the verdicts like a budget hit: the
/// exploration stops between two BFS levels and the verdicts over the
/// (complete-level, deterministic) prefix say
/// [`QuickVerdict::Inconclusive`] unless a genuine violation was already
/// found — a runaway check never over-claims, and never runs past its
/// time box to the state cap. The reported `Inconclusive` budget is the
/// state budget in force when the clock cut the run.
#[must_use]
pub fn quick_check_with(
    net: &PetriNet,
    pairs: &[(PlaceId, PlaceId)],
    cfg: &ExploreConfig,
) -> QuickCheck {
    let space = explore_truncated(net, cfg.clone());
    verdicts_over(net, &space, pairs, cfg.max_states, Derivation::Full)
}

/// Symmetry-reduced [`quick_check`]: explores the rotation *quotient* under
/// `sym` (up to `sym.order()`× fewer states for the same verdicts) and
/// checks the same two properties on the representatives.
///
/// Soundness: deadlock-freedom is orbit-invariant (a representative is dead
/// iff every member of its orbit is), and the engine's quotient discovers
/// exactly the canonical image of the reachable set, so the deadlock
/// verdict transfers unchanged, whatever the pairs. The 1-safety scan
/// reads each representative's concrete marking
/// ([`check_complementary_pairs`]), a reachable marking, so a violation it
/// finds is real; a clean scan decides 1-safety over `pairs` only when
/// **the pair set is closed under the symmetry** (DFS wagging replicates
/// every variable's complementary pair into each way, so the pair sets it
/// produces are closed by construction). Over a pair set it does not
/// close, 1-safety follows the [`screen`]'s rule: [`QuickVerdict::Holds`]
/// from the structural certificate, [`QuickVerdict::Violated`] when a
/// concrete marking breaks a pair, and [`QuickVerdict::Inconclusive`]
/// otherwise.
///
/// Counterexamples are made concrete before being reported: the attached
/// deadlock trace replays on the original net from its real initial
/// marking ([`StateSpace::concrete_trace_to`]).
#[must_use]
pub fn quick_check_quotient(
    net: &PetriNet,
    pairs: &[(PlaceId, PlaceId)],
    max_states: usize,
    sym: &Symmetry,
) -> QuickCheck {
    let ssym = sym.state_symmetry();
    let space = explore_quotient_truncated(
        net,
        ExploreConfig {
            max_states,
            ..ExploreConfig::default()
        },
        &ssym,
    );
    let derivation = if sym.pairs_closed(pairs) {
        Derivation::Full
    } else {
        Derivation::Reduced
    };
    verdicts_over(net, &space, pairs, max_states, derivation)
}

/// The design-space screen: deadlock-freedom decided on a stubborn-set
/// reduced exploration ([`ExploreConfig::stubborn`], see
/// [`crate::engine`]), on the rotation quotient under `sym` when one is
/// given, and 1-safety over `pairs` taken from the structural P-invariant
/// certificate ([`crate::invariants::certify_complementary_pairs`]).
///
/// The reduction keeps every reachable dead state and no other state
/// property, so the verdicts read:
///
/// - deadlock-freedom: [`QuickVerdict::Violated`] with a concrete,
///   replayable witness when a dead state was found,
///   [`QuickVerdict::Holds`] when the reduced exploration completed
///   without one, [`QuickVerdict::Inconclusive`] when the budget or the
///   deadline cut it first;
/// - 1-safety: [`QuickVerdict::Holds`] whenever the certificate holds,
///   truncated or not. Otherwise the explored markings are scanned, and a
///   violation found there is real ([`QuickVerdict::Violated`]); finding
///   none is [`QuickVerdict::Inconclusive`] (carrying the state budget),
///   even on a completed run, because the reduced space need not contain
///   the unsafe marking.
///
/// `states` counts the states of the *reduced* space. `cfg`'s other
/// knobs (budget, deadline, recorder) apply unchanged; its `stubborn`
/// flag is ignored, the screen always sets it.
///
/// # Errors
///
/// [`PetriError::InvalidSymmetry`] when `pairs` is not closed under `sym`
/// (the quotient's 1-safety scan would be unsound); a symmetry that is
/// not a net automorphism cannot be built in the first place
/// ([`Symmetry::new`]).
pub fn screen(
    net: &PetriNet,
    pairs: &[(PlaceId, PlaceId)],
    cfg: &ExploreConfig,
    sym: Option<&Symmetry>,
) -> Result<QuickCheck, PetriError> {
    if sym.is_some_and(|sym| !sym.pairs_closed(pairs)) {
        return Err(PetriError::InvalidSymmetry {
            reason: "the complementary-pair set is not closed under it".into(),
        });
    }
    let reduced = ExploreConfig {
        stubborn: true,
        ..cfg.clone()
    };
    let space = match sym {
        Some(sym) => explore_quotient_truncated(net, reduced, &sym.state_symmetry()),
        None => explore_truncated(net, reduced),
    };
    let derivation = Derivation::Reduced;
    Ok(verdicts_over(
        net,
        &space,
        pairs,
        cfg.max_states,
        derivation,
    ))
}

/// How the space a verdict reads was explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Derivation {
    /// Every reachable state (or orbit, under a symmetry that closes the
    /// pair set): both properties are decided by a complete run.
    Full,
    /// A stubborn-set reduction, or a quotient under a symmetry that does
    /// not close the pair set: only the dead states are complete.
    Reduced,
}

/// Shared verdict step of [`quick_check`], [`quick_check_quotient`] and
/// [`screen`]: the first dead state is the witness, and the pairs are
/// scanned only when they fail the structural certificate (a quotient
/// needs nothing more when the pair set is closed under the symmetry: a
/// reachable marking then breaks a pair iff its orbit's scanned concrete
/// marking breaks one). Over a full space a clean, complete run decides
/// 1-safety; a reduced one decides it only through the certificate.
fn verdicts_over(
    net: &PetriNet,
    space: &StateSpace,
    pairs: &[(PlaceId, PlaceId)],
    max_states: usize,
    derivation: Derivation,
) -> QuickCheck {
    let truncated = space.is_truncated();

    let deadlock = space.deadlocks().first().map(|&s| Deadlock {
        state: s,
        marking: space.concrete_marking(s),
        trace: space.concrete_trace_to(s),
    });
    let deadlock_free = match (&deadlock, truncated) {
        (Some(_), _) => QuickVerdict::Violated,
        (None, false) => QuickVerdict::Holds,
        (None, true) => QuickVerdict::Inconclusive { budget: max_states },
    };

    let certified = crate::invariants::certify_complementary_pairs(net, pairs).is_none();
    let unsafe_witness = if certified {
        None
    } else {
        check_complementary_pairs(space, pairs)
    };
    let decided = match derivation {
        Derivation::Full => !truncated,
        Derivation::Reduced => certified,
    };
    let safe = match (&unsafe_witness, decided) {
        (Some(_), _) => QuickVerdict::Violated,
        (None, true) => QuickVerdict::Holds,
        (None, false) => QuickVerdict::Inconclusive { budget: max_states },
    };

    QuickCheck {
        states: space.len(),
        truncated,
        deadlock_free,
        deadlock,
        safe,
        unsafe_witness,
    }
}

/// Verifies that every reachable marking keeps the net 1-safe with respect to
/// a set of *complementary place pairs*: for each pair exactly one of the two
/// places is marked.
///
/// The DFS translation introduces `x_0`/`x_1` place pairs per state variable;
/// this check is the structural invariant that validates the translation.
///
/// In a quotient space each state is read as its concrete marking
/// ([`StateSpace::concrete_marking`]), which is reachable even when the
/// representative is not (an asymmetric initial marking), so the witness
/// state's concrete marking breaks the reported pair. That scan covers
/// every reachable marking only when the pair set is closed under the
/// symmetry.
#[must_use]
pub fn check_complementary_pairs(
    space: &StateSpace,
    pairs: &[(crate::PlaceId, crate::PlaceId)],
) -> Option<(StateId, usize)> {
    let quotient = space.symmetry().is_some();
    for s in space.states() {
        let concrete;
        let words = if quotient {
            concrete = space.concrete_words(s);
            &concrete[..]
        } else {
            space.words(s)
        };
        for (i, &(p0, p1)) in pairs.iter().enumerate() {
            if crate::engine::get_bit(words, p0.index())
                == crate::engine::get_bit(words, p1.index())
            {
                return Some((s, i));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reachability::{explore, ExploreConfig};
    use crate::PetriNet;

    #[test]
    fn detects_deadlock_with_trace() {
        // a -> b -> (dead)
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", false);
        let c = net.add_place("c", false);
        let t1 = net.add_transition("t1");
        net.consume(t1, a);
        net.produce(t1, b);
        let t2 = net.add_transition("t2");
        net.consume(t2, b);
        net.produce(t2, c);
        let space = explore(&net, ExploreConfig::default()).unwrap();
        let dls = find_deadlocks(&space);
        assert_eq!(dls.len(), 1);
        assert_eq!(dls[0].trace, vec![t1, t2]);
        assert!(dls[0].marking.is_marked(c));
    }

    #[test]
    fn live_ring_has_no_deadlock() {
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", false);
        let t1 = net.add_transition("t1");
        net.consume(t1, a);
        net.produce(t1, b);
        let t2 = net.add_transition("t2");
        net.consume(t2, b);
        net.produce(t2, a);
        let space = explore(&net, ExploreConfig::default()).unwrap();
        assert!(find_deadlocks(&space).is_empty());
    }

    /// An unexpanded frontier state of a truncated exploration has no
    /// recorded successors but is not dead.
    #[test]
    fn truncated_frontier_is_not_a_deadlock() {
        let net = live_ring_net(8);
        let space = crate::reachability::explore_truncated(
            &net,
            ExploreConfig {
                max_states: 3,
                ..ExploreConfig::default()
            },
        );
        assert!(space.is_truncated());
        assert!(space.successors(StateId::from_index(2)).is_empty());
        assert!(find_deadlocks(&space).is_empty());
    }

    #[test]
    fn detects_choice_as_persistence_violation() {
        // one token, two competing consumers => classic conflict
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", false);
        let c = net.add_place("c", false);
        let t1 = net.add_transition("t1");
        net.consume(t1, a);
        net.produce(t1, b);
        let t2 = net.add_transition("t2");
        net.consume(t2, a);
        net.produce(t2, c);
        let space = explore(&net, ExploreConfig::default()).unwrap();
        let v = find_persistence_violations(&net, &space, |_, _| false);
        // both orderings are reported
        assert_eq!(v.len(), 2);
        let allowed = find_persistence_violations(&net, &space, |_, _| true);
        assert!(allowed.is_empty());
    }

    #[test]
    fn concurrent_transitions_are_persistent() {
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", true);
        let a1 = net.add_place("a1", false);
        let b1 = net.add_place("b1", false);
        let t1 = net.add_transition("t1");
        net.consume(t1, a);
        net.produce(t1, a1);
        let t2 = net.add_transition("t2");
        net.consume(t2, b);
        net.produce(t2, b1);
        let space = explore(&net, ExploreConfig::default()).unwrap();
        assert!(find_persistence_violations(&net, &space, |_, _| false).is_empty());
    }

    #[test]
    fn complementary_pair_check() {
        let mut net = PetriNet::new();
        let x0 = net.add_place("x_0", true);
        let x1 = net.add_place("x_1", false);
        let t = net.add_transition("x+");
        net.consume(t, x0);
        net.produce(t, x1);
        let space = explore(&net, ExploreConfig::default()).unwrap();
        assert!(check_complementary_pairs(&space, &[(x0, x1)]).is_none());

        // a broken net where the pair can both become marked
        let mut bad = PetriNet::new();
        let y0 = bad.add_place("y_0", true);
        let y1 = bad.add_place("y_1", false);
        let t = bad.add_transition("oops");
        bad.read(t, y0);
        bad.produce(t, y1);
        let space = explore(&bad, ExploreConfig::default()).unwrap();
        let hit = check_complementary_pairs(&space, &[(y0, y1)]);
        assert!(hit.is_some());
    }

    /// a → b → c: a genuine dead end the quick check must find and trace.
    fn dead_end_net() -> (PetriNet, PlaceId, PlaceId) {
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", false);
        let c = net.add_place("c", false);
        let t1 = net.add_transition("t1");
        net.consume(t1, a);
        net.produce(t1, b);
        let t2 = net.add_transition("t2");
        net.consume(t2, b);
        net.produce(t2, c);
        (net, a, c)
    }

    fn live_ring_net(n: usize) -> PetriNet {
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

    #[test]
    fn quick_check_finds_real_deadlocks_and_certifies_live_nets() {
        let (net, _, c) = dead_end_net();
        let qc = quick_check(&net, &[], 1_000);
        assert_eq!(qc.deadlock_free, QuickVerdict::Violated);
        assert!(!qc.no_violation());
        let dl = qc.deadlock.expect("counterexample attached");
        assert_eq!(dl.trace.len(), 2);
        assert!(dl.marking.is_marked(c));

        let qc = quick_check(&live_ring_net(5), &[], 1_000);
        assert!(qc.is_clean(), "{qc:?}");
        assert_eq!(qc.states, 5);
        assert!(!qc.truncated);
    }

    /// Truncation must downgrade "no violation" to Inconclusive, and an
    /// unexpanded frontier state must not masquerade as a deadlock.
    #[test]
    fn quick_check_is_sound_under_truncation() {
        // the dead-end net truncated to 2 of its 3 states: state b has no
        // recorded successors but t2 is enabled there — not a deadlock
        let (net, _, _) = dead_end_net();
        let qc = quick_check(&net, &[], 2);
        assert!(qc.truncated);
        assert_eq!(qc.deadlock_free, QuickVerdict::Inconclusive { budget: 2 });
        assert!(qc.deadlock.is_none());
        assert!(qc.no_violation() && !qc.is_clean());

        // a live ring truncated mid-way: inconclusive, carrying the budget
        // that was hit, not violated
        let qc = quick_check(&live_ring_net(8), &[], 3);
        assert!(qc.truncated);
        assert_eq!(qc.deadlock_free, QuickVerdict::Inconclusive { budget: 3 });
        assert_eq!(qc.safe, QuickVerdict::Inconclusive { budget: 3 });
    }

    #[test]
    fn quotient_quick_check_agrees_with_full_on_a_symmetric_ring() {
        let net = live_ring_net(6);
        let perm: Vec<u32> = (0..6u32).map(|i| (i + 1) % 6).collect();
        let sym = Symmetry::new(&net, perm).unwrap();
        let full = quick_check(&net, &[], 1_000);
        let quo = quick_check_quotient(&net, &[], 1_000, &sym);
        assert_eq!(full.deadlock_free, quo.deadlock_free);
        assert_eq!(full.safe, quo.safe);
        assert_eq!(full.states, 6);
        assert_eq!(quo.states, 1, "all 6 token positions are one orbit");
    }

    #[test]
    fn quotient_deadlock_traces_are_concrete() {
        // two independent dead-end chains a->b (way 0 / way 1), swap-symmetric
        let mut net = PetriNet::new();
        let a0 = net.add_place("a0", true);
        let b0 = net.add_place("b0", false);
        let a1 = net.add_place("a1", true);
        let b1 = net.add_place("b1", false);
        let t0 = net.add_transition("t0");
        net.consume(t0, a0);
        net.produce(t0, b0);
        let t1 = net.add_transition("t1");
        net.consume(t1, a1);
        net.produce(t1, b1);
        // generator: swap ways (a0<->a1, b0<->b1)
        let sym = Symmetry::new(&net, vec![2, 3, 0, 1]).unwrap();
        assert_eq!(sym.order(), 2);
        let qc = quick_check_quotient(&net, &[], 1_000, &sym);
        assert_eq!(qc.deadlock_free, QuickVerdict::Violated);
        let dl = qc.deadlock.expect("deadlock witness");
        // the concrete trace replays on the original net into the concrete
        // dead marking
        let mut m = net.initial_marking();
        for t in &dl.trace {
            m = net.fire(*t, &m).unwrap();
        }
        assert_eq!(m, dl.marking);
        assert!(net.enabled_transitions(&m).is_empty());
        let _ = (a0, b0, a1, b1);
    }

    /// Over a pair set the symmetry does not close, the quotient keeps the
    /// full check's deadlock verdict and never claims more about 1-safety
    /// than it knows: `Holds` only from the certificate, `Violated` when a
    /// concrete marking breaks a pair, `Inconclusive` otherwise — where the
    /// full check, which sees every marking, decides.
    #[test]
    fn quotient_over_unclosed_pair_sets_takes_safety_from_the_certificate() {
        let p = |i: usize| PlaceId::from_index(i);
        let net = live_ring_net(4);
        let perm: Vec<u32> = (0..4u32).map(|i| (i + 1) % 4).collect();
        let sym = Symmetry::new(&net, perm).unwrap();
        for (pairs, safe) in [
            // the token leaves p0 and p1 empty: the full check finds it,
            // the one representative does not
            (
                vec![(p(0), p(1))],
                QuickVerdict::Inconclusive { budget: 1_000 },
            ),
            // every marking breaks it, the representative included
            (vec![(p(0), p(0))], QuickVerdict::Violated),
        ] {
            assert!(!sym.pairs_closed(&pairs));
            let full = quick_check(&net, &pairs, 1_000);
            let qc = quick_check_quotient(&net, &pairs, 1_000, &sym);
            assert_eq!(full.safe, QuickVerdict::Violated);
            assert_eq!(qc.safe, safe, "{pairs:?}");
            assert_eq!(qc.deadlock_free, full.deadlock_free);
            assert_eq!(qc.deadlock_free, QuickVerdict::Holds);
        }

        // two independent flip-flops swapped by the symmetry; the pair of
        // one alone is unclosed but certified, so it holds on the quotient
        // as on the full space
        let mut flips = PetriNet::new();
        for name in ["a", "b"] {
            let lo = flips.add_place(format!("{name}_0"), true);
            let hi = flips.add_place(format!("{name}_1"), false);
            let (up, down) = (
                flips.add_transition(format!("{name}+")),
                flips.add_transition(format!("{name}-")),
            );
            flips.consume(up, lo);
            flips.produce(up, hi);
            flips.consume(down, hi);
            flips.produce(down, lo);
        }
        let sym = Symmetry::new(&flips, vec![2, 3, 0, 1]).unwrap();
        let pairs = [(p(0), p(1))];
        assert!(!sym.pairs_closed(&pairs));
        let full = quick_check(&flips, &pairs, 1_000);
        let qc = quick_check_quotient(&flips, &pairs, 1_000, &sym);
        assert_eq!(full.safe, QuickVerdict::Holds);
        assert_eq!(qc.safe, QuickVerdict::Holds);
        assert_eq!(qc.deadlock_free, full.deadlock_free);
        assert!(qc.states < full.states, "the quotient is smaller");
    }

    /// With an asymmetric initial marking a representative need not be
    /// reachable, so an unclosed pair set is judged on concrete markings.
    /// `a` and `b` are swapped; `xa -> a_1` and `xb -> b_1` never fire
    /// (nothing marks `xa` or `xb`) but break the certificate of
    /// `(a_0, a_1)`. The two mirror-image initial markings share one orbit,
    /// so one representative, which breaks the pair for exactly one of
    /// them: the quotient must agree with the full check on both.
    #[test]
    fn quotient_judges_unclosed_pairs_on_reachable_markings() {
        let p = |i: usize| PlaceId::from_index(i);
        let pairs = [(p(0), p(1))];
        // initial tokens on (a_0, a_1, b_0, b_1): the pair holds, then breaks
        for (marks, want) in [
            (
                [true, false, true, true],
                QuickVerdict::Inconclusive { budget: 100 },
            ),
            ([true, true, true, false], QuickVerdict::Violated),
        ] {
            let mut net = PetriNet::new();
            let ab: Vec<PlaceId> = ["a_0", "a_1", "b_0", "b_1"]
                .into_iter()
                .zip(marks)
                .map(|(name, marked)| net.add_place(name, marked))
                .collect();
            for (x, target) in [("xa", ab[1]), ("xb", ab[3])] {
                let source = net.add_place(x, false);
                let t = net.add_transition(format!("{x}+"));
                net.consume(t, source);
                net.produce(t, target);
            }
            let sym = Symmetry::new(&net, vec![2, 3, 0, 1, 5, 4]).unwrap();
            assert!(!sym.pairs_closed(&pairs));
            let full = quick_check(&net, &pairs, 100);
            let qc = quick_check_quotient(&net, &pairs, 100, &sym);
            assert_eq!((full.states, qc.states), (1, 1));
            assert_eq!(qc.safe, want, "{marks:?}");
            assert_eq!(full.safe.is_violated(), want.is_violated(), "{marks:?}");
            assert_eq!(qc.deadlock_free, full.deadlock_free);
            if let Some((s, i)) = qc.unsafe_witness {
                let cfg = ExploreConfig {
                    max_states: 100,
                    ..ExploreConfig::default()
                };
                let space = explore_quotient_truncated(&net, cfg, &sym.state_symmetry());
                let m = space.concrete_marking(s);
                assert_eq!(m.is_marked(pairs[i].0), m.is_marked(pairs[i].1));
            }
        }
    }

    /// The screen decides deadlocks on its reduced space and takes
    /// 1-safety from the certificate: an uncertified pair set is
    /// `Inconclusive` unless a violation was found, even when the reduced
    /// run completed.
    #[test]
    fn screen_decides_deadlocks_and_takes_safety_from_the_certificate() {
        let cfg = ExploreConfig::default();
        let (net, _, c) = dead_end_net();
        let qc = screen(&net, &[], &cfg, None).unwrap();
        assert_eq!(qc.deadlock_free, QuickVerdict::Violated);
        assert!(qc.deadlock.unwrap().marking.is_marked(c));

        // a two-place ring whose pair is safe, but uncertified: a dead
        // transition marks one side alone
        let mut ring = live_ring_net(2);
        let p = |i: usize| PlaceId::from_index(i);
        let never = ring.add_place("never", false);
        let stray = ring.add_transition("stray");
        ring.consume(stray, never);
        ring.produce(stray, p(1));
        let qc = screen(&ring, &[(p(0), p(1))], &cfg, None).unwrap();
        assert!(!qc.truncated);
        assert_eq!(qc.deadlock_free, QuickVerdict::Holds);
        assert_eq!(qc.safe, QuickVerdict::Inconclusive { budget: 2_000_000 });
        let qc = screen(&ring, &[(p(0), p(0))], &cfg, None).unwrap();
        assert_eq!(qc.safe, QuickVerdict::Violated);

        // a certified pair set holds even on a truncated screen
        let mut flip = PetriNet::new();
        let (x0, x1) = (flip.add_place("x_0", true), flip.add_place("x_1", false));
        let (up, down) = (flip.add_transition("x+"), flip.add_transition("x-"));
        flip.consume(up, x0);
        flip.produce(up, x1);
        flip.consume(down, x1);
        flip.produce(down, x0);
        let tiny = ExploreConfig {
            max_states: 1,
            ..ExploreConfig::default()
        };
        let qc = screen(&flip, &[(x0, x1)], &tiny, None).unwrap();
        assert!(qc.truncated);
        assert_eq!(qc.deadlock_free, QuickVerdict::Inconclusive { budget: 1 });
        assert_eq!(qc.safe, QuickVerdict::Holds);
    }

    #[test]
    fn screen_refuses_a_quotient_over_an_unclosed_pair_set() {
        let net = live_ring_net(4);
        let perm: Vec<u32> = (0..4u32).map(|i| (i + 1) % 4).collect();
        let sym = Symmetry::new(&net, perm).unwrap();
        let p = |i: usize| PlaceId::from_index(i);
        let cfg = ExploreConfig::default();
        let err = screen(&net, &[(p(0), p(1))], &cfg, Some(&sym)).unwrap_err();
        assert!(matches!(err, PetriError::InvalidSymmetry { .. }), "{err}");
        let qc = screen(&net, &[], &cfg, Some(&sym)).unwrap();
        assert_eq!((qc.states, qc.deadlock_free), (1, QuickVerdict::Holds));
    }

    #[test]
    fn quick_check_reports_unsafe_pairs_even_when_truncated() {
        let mut bad = PetriNet::new();
        let y0 = bad.add_place("y_0", true);
        let y1 = bad.add_place("y_1", false);
        let t = bad.add_transition("oops");
        bad.read(t, y0);
        bad.produce(t, y1);
        let qc = quick_check(&bad, &[(y0, y1)], 2);
        assert_eq!(qc.safe, QuickVerdict::Violated);
        assert!(qc.unsafe_witness.is_some());
    }
}

//! The one net check: deadlock-freedom, 1-safety, unreachable markings and
//! persistence, decided in one exploration.
//!
//! These are the paper's standard properties (§II-D): deadlock freedom,
//! control mismatch (a marking that must never be reached) and persistence
//! (no enabled event is disabled by another firing), with the 1-safety of
//! the translation's complementary place pairs. [`check`] decides what it
//! is asked ([`Properties`]) while the states stream past, through the
//! engine's [`Watch`] hook, as SPIN and Murφ do:
//! deadness is recorded as each state commits ([`StateSpace::deadlocks`],
//! never "no successors", which a truncated run's frontier also has), each
//! committed state is tested against the `unreachable` sets as word masks,
//! and each listed edge `a` reports the other enabled transitions `a`'s
//! row of [`Incidence::disabling_masks`](engine::Incidence::disabling_masks)
//! holds. Traces, concrete markings and un-rotated quotient witnesses are
//! built after the run, for what was found. Only 1-safety reads the stored
//! states afterwards, and only when the pairs fail the P-invariant
//! certificate ([`crate::invariants::certify_complementary_pairs`]), which
//! every DFS translation passes.
//!
//! # Derivation
//!
//! A verdict is [`QuickVerdict::Violated`] when the run found a violation,
//! whose witness is reachable and replays on the net. Otherwise it is
//! [`QuickVerdict::Holds`] when the question is decided, and
//! [`QuickVerdict::Inconclusive`] (carrying the state budget) when not:
//!
//! - a complete run decides deadlock-freedom, reduced or not;
//! - it decides the other questions only when it was not stubborn-reduced
//!   ([`ExploreConfig::stubborn`]) and, on a quotient, the symmetry closes
//!   the question: [`Symmetry::pairs_closed`] for the pairs, for
//!   persistence an exemption that treats each conflict found like its
//!   rotations (each conflict is un-rotated to the concrete state before
//!   the exemption sees it). A quotient never decides, nor tests, the
//!   `unreachable` sets: a representative need not be reachable;
//! - otherwise 1-safety holds only through the certificate.

use crate::engine::{self, NetSystem, Watch};
use crate::reachability::{ExploreConfig, StateId, StateSpace};
use crate::symmetry::Symmetry;
use crate::{Marking, PetriNet, PlaceId, TransitionId};

/// A reachable deadlock: a state with no enabled transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deadlock {
    /// The dead state (the representative, on a quotient).
    pub state: StateId,
    /// The dead marking itself, concrete.
    pub marking: Marking,
    /// Firing sequence from the initial marking to the dead marking.
    pub trace: Vec<TransitionId>,
}

/// A persistence violation: in `state`, both `enabled` and `disabler` were
/// enabled, but firing `disabler` disabled `enabled` without it having fired.
///
/// On a quotient space `state` is the representative, and the rest is
/// concrete: `trace` ([`StateSpace::concrete_trace_to`]) replays on the net
/// into the marking [`StateSpace::concrete_marking`] gives, and `enabled`
/// and `disabler` are the conflicting transitions there.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// A reachable marking that marks every place of one of the
/// [`Properties::unreachable`] sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reached {
    /// The first such state in BFS order.
    pub state: StateId,
    /// The index of the first set it marks.
    pub set: usize,
    /// Trace from the initial marking to `state`.
    pub trace: Vec<TransitionId>,
}

/// Outcome of one property of a [`check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuickVerdict {
    /// The property holds over the *entire* reachable space (see
    /// [Derivation](self#derivation) for when a run decides it).
    Holds,
    /// A genuine violation was found (violations found within a truncated
    /// prefix or a reduced space are still real).
    Violated,
    /// No violation found, but the run does not decide the property (see
    /// [Derivation](self#derivation)): the budget or the deadline cut it,
    /// or its reduction keeps too little. Carries the state budget.
    Inconclusive {
        /// The `max_states` budget of the run.
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

/// The deadlock and 1-safety part of a [`CheckReport`], with its first
/// deadlock only: what the session caches and persists.
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

impl From<CheckReport> for QuickCheck {
    fn from(r: CheckReport) -> Self {
        QuickCheck {
            states: r.states,
            truncated: r.truncated,
            deadlock_free: r.deadlock_free,
            deadlock: r.deadlocks.into_iter().next(),
            safe: r.safe,
            unsafe_witness: r.unsafe_witness,
        }
    }
}

/// The questions a [`check`] answers besides deadlock-freedom, which it
/// always decides. The default asks nothing more.
#[derive(Clone, Copy, Default)]
pub struct Properties<'a> {
    /// 1-safety over complementary place pairs: exactly one place of each
    /// pair is marked (see [`check_complementary_pairs`]).
    pub pairs: &'a [(PlaceId, PlaceId)],
    /// Markings that must never be reached: a marking is bad when it marks
    /// every place of some set — the shape of a DFS control mismatch. A set
    /// naming a place the net lacks is never marked.
    pub unreachable: &'a [Vec<PlaceId>],
    /// Persistence, when given: no enabled transition is disabled by the
    /// firing of another. The exemption receives the transition that loses
    /// its enabledness and the one that disables it, and returns `true` for
    /// an intended choice rather than a hazard (e.g. the non-deterministic
    /// `Mt+`/`Mf+` evaluation of a control register fed by a data
    /// predicate).
    pub persistence: Option<&'a dyn Fn(TransitionId, TransitionId) -> bool>,
}

/// Everything a [`check`] decided, with concrete witnesses. It holds no
/// state space: the run's space is dropped before the report is returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// States explored (orbit representatives on a quotient, the reduced
    /// space's states on a stubborn run).
    pub states: usize,
    /// Whether the budget or the deadline truncated the exploration.
    pub truncated: bool,
    /// Deadlock-freedom verdict.
    pub deadlock_free: QuickVerdict,
    /// Every dead state found, ascending, each with its concrete marking
    /// and a trace that replays into it.
    pub deadlocks: Vec<Deadlock>,
    /// 1-safety verdict over [`Properties::pairs`].
    pub safe: QuickVerdict,
    /// On a safety violation: the offending state and pair index.
    pub unsafe_witness: Option<(StateId, usize)>,
    /// Verdict on [`Properties::unreachable`]: `Holds` when no marking
    /// marks a whole set.
    pub unreachable: QuickVerdict,
    /// The first state in BFS order that marks a whole set, if any.
    pub reached: Option<Reached>,
    /// Persistence verdict; `None` when it was not asked.
    pub persistent: Option<QuickVerdict>,
    /// Every non-exempt conflict found, by state in BFS order, then by
    /// disabler, then by disabled transition.
    pub conflicts: Vec<PersistenceViolation>,
}

/// Checks `net` for everything `props` asks, in one exploration under `cfg`
/// (its budget, deadline, recorder and [`stubborn`](ExploreConfig::stubborn)
/// reduction), on the rotation quotient under `sym` when one is given. See
/// the [module docs](self) for what is decided during the run and how each
/// verdict is derived.
///
/// Building the net's system is recorded as the `petri.incidence` span in
/// `cfg.obs`, beside the engine's `engine.explore`.
#[must_use]
pub fn check(
    net: &PetriNet,
    props: &Properties<'_>,
    cfg: &ExploreConfig,
    sym: Option<&Symmetry>,
) -> CheckReport {
    let sys = cfg.obs.time("petri.incidence", || NetSystem::new(net));
    let mut found = Found {
        // a representative that marks a set need not be reachable
        sets: (props.unreachable.iter())
            .filter(|_| sym.is_none())
            .map(|set| {
                set.iter()
                    .map(|p| (p.index() / 64, 1 << (p.index() % 64)))
                    .collect()
            })
            .collect(),
        reached: None,
        disables: (props.persistence).map_or_else(Vec::new, |_| sys.incidence().disabling_masks()),
        stride: net.transition_count().div_ceil(64).max(1),
        conflicts: Vec::new(),
    };
    let ssym = sym.map(Symmetry::state_symmetry);
    let space = if found.sets.is_empty() && found.disables.is_empty() {
        engine::explore(sys, cfg, ssym.as_ref(), &mut ())
    } else {
        engine::explore(sys, cfg, ssym.as_ref(), &mut found)
    };

    let budget = cfg.max_states;
    let verdict = |violated: bool, decided: bool| match (violated, decided) {
        (true, _) => QuickVerdict::Violated,
        (false, true) => QuickVerdict::Holds,
        (false, false) => QuickVerdict::Inconclusive { budget },
    };
    let complete = !space.is_truncated();
    // does a complete run see every reachable marking, up to the symmetry?
    let exhaustive = !cfg.stubborn;

    let certified = crate::invariants::certify_complementary_pairs(net, props.pairs).is_none();
    let unsafe_witness = if certified {
        None
    } else {
        check_complementary_pairs(&space, props.pairs)
    };
    let safe_by_run = exhaustive && sym.is_none_or(|sym| sym.pairs_closed(props.pairs));

    let (conflicts, orbits_agree) = match props.persistence {
        Some(exempt) => concrete_conflicts(&space, sym, found.conflicts, exempt),
        None => (Vec::new(), true),
    };

    // every witness trace in one batch, which derives each path state's
    // discovering action once
    let dead = space.deadlocks();
    let witnesses: Vec<StateId> = (dead.iter().copied())
        .chain(found.reached.map(|(state, _)| state))
        .chain(conflicts.iter().map(|&(state, ..)| state))
        .collect();
    let mut traces = space.concrete_traces_to(&witnesses).into_iter();
    let mut trace = || traces.next().expect("one trace per witness");
    let deadlocks: Vec<Deadlock> = (dead.iter())
        .map(|&s| Deadlock {
            state: s,
            marking: space.concrete_marking(s),
            trace: trace(),
        })
        .collect();
    let reached = found.reached.map(|(state, set)| Reached {
        state,
        set,
        trace: trace(),
    });
    let conflicts: Vec<PersistenceViolation> = (conflicts.into_iter())
        .map(|(state, enabled, disabler)| PersistenceViolation {
            state,
            enabled,
            disabler,
            trace: trace(),
        })
        .collect();

    CheckReport {
        states: space.len(),
        truncated: !complete,
        deadlock_free: verdict(!deadlocks.is_empty(), complete),
        deadlocks,
        safe: verdict(
            unsafe_witness.is_some(),
            if safe_by_run { complete } else { certified },
        ),
        unsafe_witness,
        unreachable: verdict(reached.is_some(), exhaustive && sym.is_none() && complete),
        reached,
        persistent: props.persistence.map(|_| {
            verdict(
                !conflicts.is_empty(),
                exhaustive && orbits_agree && complete,
            )
        }),
        conflicts,
    }
}

/// What [`check`] watches for while the engine explores: the first state
/// that marks a whole set, and every conflict of a listed edge.
struct Found {
    /// Per watched set: its places as `(word, bit)` masks.
    sets: Vec<Vec<(usize, u64)>>,
    /// The first committed state that marks a whole set, and that set.
    reached: Option<(StateId, usize)>,
    /// Per transition, the transitions its firing disables (see
    /// [`Incidence::disabling_masks`](engine::Incidence::disabling_masks));
    /// empty when persistence is not asked.
    disables: Vec<u64>,
    /// Words per row of `disables`.
    stride: usize,
    /// `(state, enabled, disabler)` in the state's frame, in listing order.
    conflicts: Vec<(StateId, u32, u32)>,
}

impl Watch for Found {
    fn commit(&mut self, state: StateId, words: &[u64]) {
        if self.reached.is_none() {
            // a place past the state's words is one the net lacks: never marked
            let marked = |&(w, m): &(usize, u64)| words.get(w).is_some_and(|x| x & m != 0);
            self.reached = self
                .sets
                .iter()
                .position(|set| set.iter().all(marked))
                .map(|i| (state, i));
        }
    }

    fn fire(&mut self, state: StateId, enabled: &[u64], a: usize) {
        if self.disables.is_empty() {
            return;
        }
        let disabled = &self.disables[a * self.stride..(a + 1) * self.stride];
        for (w, (&d, &e)) in disabled.iter().zip(enabled).enumerate() {
            let mut hit = d & e;
            if w == a / 64 {
                hit &= !(1 << (a % 64));
            }
            while hit != 0 {
                let t = w * 64 + hit.trailing_zeros() as usize;
                hit &= hit - 1;
                self.conflicts.push((state, t as u32, a as u32));
            }
        }
    }
}

/// The non-exempt conflicts among the `raw` ones the run found, made
/// concrete: each pair `(state, enabled, disabler)` un-rotated to the state
/// [`StateSpace::concrete_trace_to`] reaches before `exempt` sees it. Also
/// answers whether `exempt` treats every conflict like all of its
/// rotations, which makes a quotient's answer the full space's.
fn concrete_conflicts(
    space: &StateSpace,
    sym: Option<&Symmetry>,
    raw: Vec<(StateId, u32, u32)>,
    exempt: &dyn Fn(TransitionId, TransitionId) -> bool,
) -> (Vec<(StateId, TransitionId, TransitionId)>, bool) {
    let mut out = Vec::new();
    let mut orbits_agree = true;
    for (s, enabled, disabler) in raw {
        let r = space.path_rotation(s);
        let concrete = |t: u32| {
            let t = space
                .symmetry()
                .map_or(t, |ssym| ssym.unrotate_action(r, t));
            TransitionId::from_index(t as usize)
        };
        let (enabled, disabler) = (concrete(enabled), concrete(disabler));
        let exempted = exempt(enabled, disabler);
        if let Some(sym) = sym {
            let (mut e, mut d) = (enabled, disabler);
            for _ in 1..sym.order() {
                (e, d) = (sym.map_transition(e), sym.map_transition(d));
                orbits_agree &= exempt(e, d) == exempted;
            }
        }
        if !exempted {
            out.push((s, enabled, disabler));
        }
    }
    (out, orbits_agree)
}

/// [`check`] of deadlock-freedom and 1-safety over `pairs`, on the full
/// space under a state budget.
#[must_use]
pub fn quick_check(net: &PetriNet, pairs: &[(PlaceId, PlaceId)], max_states: usize) -> QuickCheck {
    check_pairs(net, pairs, max_states, None)
}

/// [`quick_check`] on the rotation quotient under `sym`.
#[must_use]
pub fn quick_check_quotient(
    net: &PetriNet,
    pairs: &[(PlaceId, PlaceId)],
    max_states: usize,
    sym: &Symmetry,
) -> QuickCheck {
    check_pairs(net, pairs, max_states, Some(sym))
}

/// [`check`] of 1-safety over `pairs` under a state budget, everything
/// else at its default.
fn check_pairs(
    net: &PetriNet,
    pairs: &[(PlaceId, PlaceId)],
    max_states: usize,
    sym: Option<&Symmetry>,
) -> QuickCheck {
    let props = Properties {
        pairs,
        ..Properties::default()
    };
    let cfg = ExploreConfig {
        max_states,
        ..ExploreConfig::default()
    };
    check(net, &props, &cfg, sym).into()
}

/// Verifies that every explored marking keeps the net 1-safe with respect
/// to a set of *complementary place pairs* (the DFS translation's `x_0`/`x_1`
/// pair per state variable): exactly one place of each pair is marked.
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
    use crate::reachability::{explore, explore_quotient_truncated, ExploreConfig};
    use crate::PetriNet;

    /// `check` of `props` on the full space, default budget.
    fn full(net: &PetriNet, props: &Properties<'_>) -> CheckReport {
        check(net, props, &ExploreConfig::default(), None)
    }

    fn stubborn(max_states: usize) -> ExploreConfig {
        ExploreConfig {
            max_states,
            stubborn: true,
            ..ExploreConfig::default()
        }
    }

    #[test]
    fn detects_deadlock_with_trace() {
        let (net, _, c) = dead_end_net();
        let report = full(&net, &Properties::default());
        assert_eq!(report.deadlocks.len(), 1);
        let t = |i| TransitionId::from_index(i);
        assert_eq!(report.deadlocks[0].trace, vec![t(0), t(1)]);
        assert!(report.deadlocks[0].marking.is_marked(c));
    }

    #[test]
    fn live_ring_has_no_deadlock() {
        let report = full(&live_ring_net(2), &Properties::default());
        assert!(report.deadlocks.is_empty());
        assert_eq!(report.deadlock_free, QuickVerdict::Holds);
    }

    /// An unexpanded frontier state of a truncated exploration has no
    /// successors but is not dead.
    #[test]
    fn truncated_frontier_is_not_a_deadlock() {
        let net = live_ring_net(8);
        let cfg = ExploreConfig {
            max_states: 3,
            ..ExploreConfig::default()
        };
        let space = crate::reachability::explore_truncated(&net, cfg.clone());
        assert!(space.is_truncated());
        assert!(space.successors(StateId::from_index(2)).is_empty());
        let report = check(&net, &Properties::default(), &cfg, None);
        assert!(report.deadlocks.is_empty());
        assert_eq!(
            report.deadlock_free,
            QuickVerdict::Inconclusive { budget: 3 }
        );
    }

    /// One token, two competing consumers: a classic conflict, reported in
    /// both orders unless the exemption accepts it.
    #[test]
    fn detects_choice_as_persistence_violation() {
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
        let hazard = |_: TransitionId, _: TransitionId| false;
        let report = full(
            &net,
            &Properties {
                persistence: Some(&hazard),
                ..Properties::default()
            },
        );
        assert_eq!(report.persistent, Some(QuickVerdict::Violated));
        let pairs: Vec<_> = report
            .conflicts
            .iter()
            .map(|v| (v.enabled, v.disabler))
            .collect();
        assert_eq!(pairs, [(t2, t1), (t1, t2)]);
        let choice = |_: TransitionId, _: TransitionId| true;
        let report = full(
            &net,
            &Properties {
                persistence: Some(&choice),
                ..Properties::default()
            },
        );
        assert_eq!(report.persistent, Some(QuickVerdict::Holds));
        assert!(report.conflicts.is_empty());
        // not asked, not answered
        assert_eq!(full(&net, &Properties::default()).persistent, None);
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
        let hazard = |_: TransitionId, _: TransitionId| false;
        let report = full(
            &net,
            &Properties {
                persistence: Some(&hazard),
                ..Properties::default()
            },
        );
        assert_eq!(report.persistent, Some(QuickVerdict::Holds));
    }

    /// A marking that marks a whole set is found at the first state in BFS
    /// order, with its trace; on a stubborn run finding none is
    /// inconclusive, on a quotient the sets are not decided at all.
    #[test]
    fn unreachable_sets_are_found_at_the_first_state_that_marks_them() {
        let net = live_ring_net(4);
        let p = |i: usize| PlaceId::from_index(i);
        let t = |i: usize| TransitionId::from_index(i);
        let sets = [vec![p(0), p(1)], vec![p(2)], vec![p(3)]];
        let report = full(
            &net,
            &Properties {
                unreachable: &sets,
                ..Properties::default()
            },
        );
        assert_eq!(report.unreachable, QuickVerdict::Violated);
        let reached = report.reached.expect("p2 is marked after two firings");
        assert_eq!((reached.state, reached.set), (StateId::from_index(2), 1));
        assert_eq!(reached.trace, [t(0), t(1)]);

        let never = [vec![p(0), p(1)], vec![PlaceId::from_index(99)]];
        let props = Properties {
            unreachable: &never,
            ..Properties::default()
        };
        assert_eq!(full(&net, &props).unreachable, QuickVerdict::Holds);
        let reduced = check(&net, &props, &stubborn(100), None);
        assert_eq!(
            reduced.unreachable,
            QuickVerdict::Inconclusive { budget: 100 }
        );
        let perm: Vec<u32> = (0..4u32).map(|i| (i + 1) % 4).collect();
        let sym = Symmetry::new(&net, perm).unwrap();
        let props = Properties {
            unreachable: &sets,
            ..Properties::default()
        };
        let quo = check(&net, &props, &ExploreConfig::default(), Some(&sym));
        assert_eq!(
            quo.unreachable,
            QuickVerdict::Inconclusive { budget: 2_000_000 }
        );
        assert!(quo.reached.is_none());
    }

    /// On a quotient each conflict is un-rotated before the exemption sees
    /// it, and an exemption that treats a conflict unlike its rotation
    /// leaves the quotient's persistence undecided. Two copies, swapped by
    /// the symmetry, race for one token `m`; the winner then chooses
    /// between `l` and `r`. The quotient sees copy 0 choose, the full
    /// space either copy.
    #[test]
    fn quotient_conflicts_are_concrete_and_need_a_closed_exemption() {
        let mut net = PetriNet::new();
        let copies: Vec<[PlaceId; 4]> = (0..2)
            .map(|c| ["p", "q", "b", "c"].map(|x| net.add_place(format!("{x}{c}"), x == "p")))
            .collect();
        let m = net.add_place("m", true);
        for (c, [p, q, b, d]) in copies.into_iter().enumerate() {
            let start = net.add_transition(format!("s{c}"));
            net.consume(start, p);
            net.consume(start, m);
            net.produce(start, q);
            for (name, to) in [("l", b), ("r", d)] {
                let t = net.add_transition(format!("{name}{c}"));
                net.consume(t, q);
                net.produce(t, to);
            }
        }
        let sym = Symmetry::new(&net, vec![4, 5, 6, 7, 0, 1, 2, 3, 8]).unwrap();
        let run = |exempt: &dyn Fn(TransitionId, TransitionId) -> bool| {
            let props = Properties {
                persistence: Some(exempt),
                ..Properties::default()
            };
            let quo = check(&net, &props, &ExploreConfig::default(), Some(&sym));
            (full(&net, &props), quo)
        };

        let (all, quo) = run(&|_, _| false);
        assert_eq!((all.states, quo.states), (7, 4));
        assert_eq!(quo.persistent, Some(QuickVerdict::Violated));
        assert_eq!(quo.conflicts.len(), 4, "the race and copy 0's choice");
        for v in &quo.conflicts {
            let mut m = net.initial_marking();
            for &t in &v.trace {
                m = net.fire(t, &m).unwrap();
            }
            assert!(net.is_enabled(v.enabled, &m) && net.is_enabled(v.disabler, &m));
            assert!(!net.is_enabled(v.enabled, &net.fire(v.disabler, &m).unwrap()));
        }

        // transitions s0, l0, r0, s1, l1, r1
        let either = |e: TransitionId, d: TransitionId, a: usize, b: usize| {
            let (e, d) = (e.index(), d.index());
            (e, d) == (a, b) || (e, d) == (b, a)
        };
        // exempting the race and copy 0's choice only: the full space sees
        // copy 1 choose too, the quotient cannot tell
        let (all, quo) = run(&|e, d| either(e, d, 0, 3) || either(e, d, 1, 2));
        assert_eq!(all.persistent, Some(QuickVerdict::Violated));
        assert_eq!(
            quo.persistent,
            Some(QuickVerdict::Inconclusive { budget: 2_000_000 })
        );
        assert!(quo.conflicts.is_empty());
        let (all, quo) =
            run(&|e, d| either(e, d, 0, 3) || either(e, d, 1, 2) || either(e, d, 4, 5));
        assert_eq!(all.persistent, Some(QuickVerdict::Holds));
        assert_eq!(quo.persistent, Some(QuickVerdict::Holds));
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
        // successors but t2 is enabled there — not a deadlock
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

    /// Every dead witness of a quotient replays on the original net into
    /// its concrete dead marking: on two dead-end chains swapped by the
    /// symmetry, with both chains marked, and with only way 1's marked, so
    /// that the representative's trace `[t0]` cannot fire from the
    /// initial marking.
    #[test]
    fn quotient_deadlock_traces_are_concrete() {
        for way0_marked in [true, false] {
            let mut net = PetriNet::new();
            let a0 = net.add_place("a0", way0_marked);
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
            let report = check(
                &net,
                &Properties::default(),
                &ExploreConfig::default(),
                Some(&sym),
            );
            assert_eq!(report.deadlock_free, QuickVerdict::Violated);
            assert!(!report.deadlocks.is_empty());
            for dl in &report.deadlocks {
                let mut m = net.initial_marking();
                for t in &dl.trace {
                    m = net.fire(*t, &m).expect("the witness trace replays");
                }
                assert_eq!(m, dl.marking, "way 0 marked: {way0_marked}");
                assert!(net.enabled_transitions(&m).is_empty());
            }
        }
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
            // the stubborn quotient is just as sound
            let props = Properties {
                pairs: &pairs,
                ..Properties::default()
            };
            let reduced = check(&net, &props, &stubborn(1_000), Some(&sym));
            assert_eq!(reduced.safe, safe, "{pairs:?}");
            assert_eq!(reduced.deadlock_free, QuickVerdict::Holds);
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

    /// A stubborn run decides deadlocks on its reduced space and takes
    /// 1-safety from the certificate: an uncertified pair set is
    /// `Inconclusive` unless a violation was found, even when the reduced
    /// run completed.
    #[test]
    fn stubborn_check_decides_deadlocks_and_takes_safety_from_the_certificate() {
        let cfg = stubborn(2_000_000);
        let (net, _, c) = dead_end_net();
        let qc = check(&net, &Properties::default(), &cfg, None);
        assert_eq!(qc.deadlock_free, QuickVerdict::Violated);
        assert!(qc.deadlocks[0].marking.is_marked(c));

        // a two-place ring whose pair is safe, but uncertified: a dead
        // transition marks one side alone
        let mut ring = live_ring_net(2);
        let p = |i: usize| PlaceId::from_index(i);
        let never = ring.add_place("never", false);
        let stray = ring.add_transition("stray");
        ring.consume(stray, never);
        ring.produce(stray, p(1));
        fn pairs(pairs: &[(PlaceId, PlaceId)]) -> Properties<'_> {
            Properties {
                pairs,
                ..Properties::default()
            }
        }
        let qc = check(&ring, &pairs(&[(p(0), p(1))]), &cfg, None);
        assert!(!qc.truncated);
        assert_eq!(qc.deadlock_free, QuickVerdict::Holds);
        assert_eq!(qc.safe, QuickVerdict::Inconclusive { budget: 2_000_000 });
        let qc = check(&ring, &pairs(&[(p(0), p(0))]), &cfg, None);
        assert_eq!(qc.safe, QuickVerdict::Violated);

        // a certified pair set holds even on a truncated screen
        let mut flip = PetriNet::new();
        let (x0, x1) = (flip.add_place("x_0", true), flip.add_place("x_1", false));
        let (up, down) = (flip.add_transition("x+"), flip.add_transition("x-"));
        flip.consume(up, x0);
        flip.produce(up, x1);
        flip.consume(down, x1);
        flip.produce(down, x0);
        let qc = check(&flip, &pairs(&[(x0, x1)]), &stubborn(1), None);
        assert!(qc.truncated);
        assert_eq!(qc.deadlock_free, QuickVerdict::Inconclusive { budget: 1 });
        assert_eq!(qc.safe, QuickVerdict::Holds);

        // two independent flip-flops `a` and `b`, the pair `(b_1, c)`: the
        // full check finds `b_1` and `c` marked together, the reduction
        // never fires `b`'s transitions, so a clean reduced run decides
        // nothing
        let mut net = PetriNet::new();
        let places: Vec<PlaceId> = [("a0", true), ("a1", false), ("b0", true), ("b1", false)]
            .into_iter()
            .map(|(name, marked)| net.add_place(name, marked))
            .collect();
        let c = net.add_place("c", true);
        for (from, to) in [(0, 1), (1, 0), (2, 3), (3, 2)] {
            let t = net.add_transition(format!("t{from}{to}"));
            net.consume(t, places[from]);
            net.produce(t, places[to]);
        }
        let unsafe_pair = [(places[3], c)];
        let props = pairs(&unsafe_pair);
        let all = check(&net, &props, &ExploreConfig::default(), None);
        assert_eq!((all.states, all.safe), (4, QuickVerdict::Violated));
        let reduced = check(&net, &props, &stubborn(2_000_000), None);
        assert_eq!(reduced.states, 2);
        assert_eq!(
            reduced.safe,
            QuickVerdict::Inconclusive { budget: 2_000_000 }
        );
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

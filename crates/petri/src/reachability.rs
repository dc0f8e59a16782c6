//! Explicit-state reachability exploration.
//!
//! The explorer performs a breadth-first traversal of the reachable markings
//! of a [`PetriNet`], recording for every state its predecessor so that a
//! firing trace (counterexample) can be reconstructed for any reached state.
//!
//! The same engine runs under the one net check ([`crate::analysis::check`],
//! which decides its properties during the exploration) and under
//! Reach-predicate queries, standing in for the paper's MPSAT backend.
//!
//! [`explore`] and [`explore_truncated`] run the state-space engine
//! ([`crate::engine::explore`]) under one [`ExploreConfig`] (state budget,
//! deadline and the `rap-obs` handle) and return its [`StateSpace`],
//! labelled with [`TransitionId`]s. This module adds only the marking
//! accessors of a net's space; everything else (successors, dead list,
//! traces) is the engine's. The engine is differentially tested against
//! the seed explorer, which lives outside the library in the dev-only
//! `rap-oracle` crate.
//!
//! With a cyclic symmetry of the net (wagged replicas — see
//! [`crate::symmetry`]), [`explore_quotient_truncated`] explores the
//! rotation *quotient* instead: states are canonicalized to the
//! lexicographically-least rotation before dedup, cutting the space by up
//! to the group order while preserving orbit-invariant verdicts. Concrete
//! (replayable) traces are recovered via [`StateSpace::concrete_trace_to`].

use crate::engine::{self, NetSystem, StateSymmetry};
use crate::{Marking, PetriError, PetriNet, PlaceId, TransitionId};

pub use crate::engine::{ExploreConfig, StateId, StateSpace};

/// The marking accessors of a net's state space. Markings live word-packed
/// in the space's arena, one bit per place: [`StateSpace::marking`]
/// materialises a [`Marking`] on demand and [`StateSpace::fill_marking`]
/// copies into a caller-owned one for allocation-free scans
/// ([`StateSpace::words`] reads the raw bits without copying).
impl StateSpace<TransitionId> {
    /// The marking of `state`, materialised from the state arena.
    #[must_use]
    pub fn marking(&self, state: StateId) -> Marking {
        self.marking_from(self.words(state).to_vec())
    }

    /// Copies the marking of `state` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics when `out` does not cover exactly this net's places.
    pub fn fill_marking(&self, state: StateId, out: &mut Marking) {
        assert_eq!(out.len(), self.bits, "marking buffer has the wrong width");
        // zero-place nets: the space pads to one word, the marking to none,
        // and `copy_from_words` ignores the padding
        out.copy_from_words(self.words(state));
    }

    /// Is `place` marked in `state`?
    #[must_use]
    pub fn is_marked(&self, state: StateId, place: PlaceId) -> bool {
        engine::get_bit(self.words(state), place.index())
    }

    /// The concrete marking reached by [`StateSpace::concrete_trace_to`]:
    /// the representative of `state` un-rotated by the cumulative rotation
    /// along its discovery path. Equals [`StateSpace::marking`] outside
    /// quotient spaces.
    #[must_use]
    pub fn concrete_marking(&self, state: StateId) -> Marking {
        self.marking_from(self.concrete_words(state))
    }

    /// A marking over this net's places from state-width `words`.
    fn marking_from(&self, mut words: Vec<u64>) -> Marking {
        words.truncate(self.bits.div_ceil(64));
        Marking::from_words(words, self.bits)
    }
}

/// Explores the reachable markings of `net` starting from its initial
/// marking.
///
/// # Errors
///
/// [`PetriError::StateBudgetExceeded`] when more than `config.max_states`
/// distinct markings are reachable, [`PetriError::DeadlineExpired`] when
/// `config.deadline` cut the exploration first. Use [`explore_truncated`]
/// to get the partial state space instead.
pub fn explore(net: &PetriNet, config: ExploreConfig) -> Result<StateSpace, PetriError> {
    let space = explore_truncated(net, config);
    match space.outcome() {
        engine::ExploreOutcome::Complete => Ok(space),
        engine::ExploreOutcome::Truncated { limit } => {
            Err(PetriError::StateBudgetExceeded { budget: limit })
        }
        engine::ExploreOutcome::DeadlineExpired { deadline } => {
            Err(PetriError::DeadlineExpired { deadline })
        }
    }
}

/// Like [`explore`] but returns the partial state space (with
/// [`StateSpace::is_truncated`] set) instead of an error when the budget or
/// the deadline cut the exploration. Records into `config.obs` (see
/// [`ExploreConfig::obs`]).
#[must_use]
pub fn explore_truncated(net: &PetriNet, config: ExploreConfig) -> StateSpace {
    engine::explore(NetSystem::new(net), &config, None, &mut ())
}

/// Explores the rotation *quotient* of the net under `sym`: every successor
/// is canonicalized to the lexicographically-least state of its orbit
/// before dedup, so the result has one state per reachable orbit (up to
/// `sym.order()`× fewer states). Orbit-invariant verdicts (deadlock
/// freedom, 1-safety over symmetric pair sets) transfer — see
/// [`crate::engine`] for the soundness argument and
/// [`crate::symmetry::Symmetry`] for building/validating the permutations.
#[must_use]
pub fn explore_quotient_truncated(
    net: &PetriNet,
    config: ExploreConfig,
    sym: &StateSymmetry,
) -> StateSpace {
    engine::explore(NetSystem::new(net), &config, Some(sym), &mut ())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of `n` places with one token circulating.
    fn ring(n: usize) -> PetriNet {
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
    fn ring_has_n_states() {
        let net = ring(5);
        let space = explore(&net, ExploreConfig::default()).unwrap();
        assert_eq!(space.len(), 5);
        assert!(!space.is_truncated());
    }

    #[test]
    fn traces_replay_to_the_right_marking() {
        let net = ring(4);
        let space = explore(&net, ExploreConfig::default()).unwrap();
        for s in space.states() {
            let mut m = net.initial_marking();
            for t in space.trace_to(s) {
                m = net.fire(t, &m).unwrap();
            }
            assert_eq!(m, space.marking(s));
        }
    }

    #[test]
    fn budget_is_enforced() {
        let net = ring(10);
        let err = explore(
            &net,
            ExploreConfig {
                max_states: 3,
                ..ExploreConfig::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, PetriError::StateBudgetExceeded { budget: 3 });
        let partial = explore_truncated(
            &net,
            ExploreConfig {
                max_states: 3,
                ..ExploreConfig::default()
            },
        );
        assert!(partial.is_truncated());
        assert_eq!(
            partial.outcome(),
            engine::ExploreOutcome::Truncated { limit: 3 }
        );
        assert_eq!(partial.len(), 3);
    }

    /// A deadline cut is its own outcome and its own error, never a
    /// budget overrun.
    #[test]
    fn deadline_cut_is_its_own_error() {
        let net = ring(10);
        let cfg = ExploreConfig {
            deadline: Some(std::time::Duration::ZERO),
            ..ExploreConfig::default()
        };
        let err = explore(&net, cfg.clone()).unwrap_err();
        assert_eq!(
            err,
            PetriError::DeadlineExpired {
                deadline: std::time::Duration::ZERO
            }
        );
        let partial = explore_truncated(&net, cfg);
        assert!(partial.is_truncated());
        assert_eq!(
            partial.outcome(),
            engine::ExploreOutcome::DeadlineExpired {
                deadline: std::time::Duration::ZERO
            }
        );
        // the zero deadline cuts once the first level is expanded
        assert_eq!(partial.len(), 2);
    }

    #[test]
    fn independent_tokens_interleave() {
        // two independent 2-rings => 4 states
        let mut net = PetriNet::new();
        let a0 = net.add_place("a0", true);
        let a1 = net.add_place("a1", false);
        let b0 = net.add_place("b0", true);
        let b1 = net.add_place("b1", false);
        for (name, from, to) in [
            ("ta+", a0, a1),
            ("ta-", a1, a0),
            ("tb+", b0, b1),
            ("tb-", b1, b0),
        ] {
            let t = net.add_transition(name);
            net.consume(t, from);
            net.produce(t, to);
        }
        let space = explore(&net, ExploreConfig::default()).unwrap();
        assert_eq!(space.len(), 4);
    }
}

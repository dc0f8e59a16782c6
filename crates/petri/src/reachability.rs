//! Explicit-state reachability exploration.
//!
//! The explorer performs a breadth-first traversal of the reachable markings
//! of a [`PetriNet`], recording for every state its predecessor so that a
//! firing trace (counterexample) can be reconstructed for any reached state.
//!
//! This is the workhorse behind deadlock detection, persistence checking and
//! Reach-predicate queries, standing in for the paper's MPSAT backend.
//!
//! [`explore`] and [`explore_truncated`] run the state-space engine
//! ([`crate::engine::explore`]) under one [`ExploreConfig`] (state budget,
//! deadline and the `rap-obs` handle). They are differentially tested
//! against the seed explorer, which lives outside the library in the
//! dev-only `rap-oracle` crate.
//!
//! With a cyclic symmetry of the net (wagged replicas — see
//! [`crate::symmetry`]), [`explore_quotient_truncated`] explores the
//! rotation *quotient* instead: states are canonicalized to the
//! lexicographically-least rotation before dedup, cutting the space by up
//! to the group order while preserving orbit-invariant verdicts. Concrete
//! (replayable) traces are recovered via [`StateSpace::concrete_trace_to`].

use crate::engine::{self, ExploredGraph, NetSystem, StateSymmetry, NO_PARENT};
use crate::{Marking, PetriError, PetriNet, TransitionId};

pub use crate::engine::ExploreConfig;

/// Dense id of a state discovered during exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(u32);

impl StateId {
    /// Dense index of the state (0 = initial marking).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `StateId` from a raw index (see [`PlaceId::from_index`]
    /// for the caveats: only meaningful against the space that issued the
    /// index — used by persistence layers that round-trip witnesses).
    ///
    /// [`PlaceId::from_index`]: crate::PlaceId::from_index
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        StateId(u32::try_from(index).expect("state index exceeds u32"))
    }
}

/// The reachable state space of a net.
///
/// Markings live word-packed in the underlying [`ExploredGraph`]:
/// [`StateSpace::marking`] materialises a [`Marking`] on demand, and
/// [`StateSpace::fill_marking`] / [`StateSpace::fill_marking_words`]
/// copy into caller-owned buffers for allocation-free scans.
#[derive(Debug, Clone)]
pub struct StateSpace {
    places: usize,
    graph: ExploredGraph,
    succ: Vec<(TransitionId, StateId)>,
    /// Present when this is a quotient space: the symmetry that was used to
    /// canonicalize states, needed to make traces/markings concrete again.
    symmetry: Option<StateSymmetry>,
}

impl StateSpace {
    fn from_graph(mut g: ExploredGraph, places: usize, symmetry: Option<StateSymmetry>) -> Self {
        let succ = std::mem::take(&mut g.succ)
            .into_iter()
            .map(|(a, s)| (TransitionId::from_index(a as usize), StateId(s)))
            .collect();
        StateSpace {
            places,
            graph: g,
            succ,
            symmetry,
        }
    }

    /// Number of reachable states discovered (orbit representatives for a
    /// quotient space).
    #[must_use]
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// `true` when the net has no reachable states (impossible: the initial
    /// marking always exists), kept for `len`/`is_empty` pairing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Did exploration stop early, on [`ExploreConfig::max_states`] or
    /// [`ExploreConfig::deadline`]?
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.graph.is_truncated()
    }

    /// How exploration ended (carries the budget or deadline that cut it).
    #[must_use]
    pub fn outcome(&self) -> engine::ExploreOutcome {
        self.graph.outcome()
    }

    /// The symmetry this space is a quotient under, if any.
    #[must_use]
    pub fn symmetry(&self) -> Option<&StateSymmetry> {
        self.symmetry.as_ref()
    }

    /// Words per packed marking — the scratch width for
    /// [`StateSpace::fill_marking_words`].
    #[must_use]
    pub fn word_count(&self) -> usize {
        self.graph.stride()
    }

    /// The marking of `state`, materialised from the state arena.
    #[must_use]
    pub fn marking(&self, state: StateId) -> Marking {
        let words = &self.graph.state(state.index())[..self.places.div_ceil(64)];
        Marking::from_words(words.to_vec(), self.places)
    }

    /// Copies the marking of `state` into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics when `out` does not cover exactly this net's places.
    pub fn fill_marking(&self, state: StateId, out: &mut Marking) {
        assert_eq!(out.len(), self.places, "marking buffer has the wrong width");
        // zero-place nets: the graph pads to one word, the marking to none,
        // and `copy_from_words` ignores the padding
        out.copy_from_words(self.graph.state(state.index()));
    }

    /// Copies the word-packed marking bits of `state` into `out` (exactly
    /// [`StateSpace::word_count`] words).
    pub fn fill_marking_words(&self, state: StateId, out: &mut [u64]) {
        out.copy_from_slice(self.graph.state(state.index()));
    }

    /// Is `place` marked in `state`?
    #[must_use]
    pub fn is_marked(&self, state: StateId, place: crate::PlaceId) -> bool {
        engine::get_bit(self.graph.state(state.index()), place.index())
    }

    /// The initial state.
    #[must_use]
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// Iterates over all states.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.graph.len() as u32).map(StateId)
    }

    /// The dead states — no transition enabled — in ascending order, as
    /// the explorer recorded them on discovery ([`ExploredGraph::dead`]).
    /// Exact on truncated spaces too: an unexpanded frontier state has no
    /// recorded successors but is listed only if it is really dead. For a
    /// quotient space these are dead representatives (deadness is
    /// orbit-invariant).
    pub fn dead_states(&self) -> impl Iterator<Item = StateId> + '_ {
        self.graph.dead().iter().map(|&s| StateId(s))
    }

    /// Outgoing edges `(transition, successor)` of `state`.
    #[must_use]
    pub fn successors(&self, state: StateId) -> &[(TransitionId, StateId)] {
        let i = state.index();
        &self.succ[self.graph.succ_off[i] as usize..self.graph.succ_off[i + 1] as usize]
    }

    /// Reconstructs the firing sequence from the initial state to `state`.
    ///
    /// For a quotient space this trace is over orbit *representatives* — it
    /// replays in the quotient, not necessarily from the net's concrete
    /// initial marking. Use [`StateSpace::concrete_trace_to`] for a firing
    /// sequence of the original net.
    #[must_use]
    pub fn trace_to(&self, state: StateId) -> Vec<TransitionId> {
        self.graph
            .trace_to(state.index())
            .into_iter()
            .map(|a| TransitionId::from_index(a as usize))
            .collect()
    }

    /// The symmetry rotation applied when `state` was canonicalized at
    /// discovery (always 0 outside quotient spaces).
    #[must_use]
    pub fn rotation(&self, state: StateId) -> u32 {
        self.graph.rotation(state.index())
    }

    /// A firing sequence of the *original* net from its concrete initial
    /// marking to a concrete member of `state`'s orbit (that member is
    /// [`StateSpace::concrete_marking`]). Falls back to
    /// [`StateSpace::trace_to`] when this is not a quotient space.
    ///
    /// Each quotient step fires action `a` in the representative's frame;
    /// un-rotating by the cumulative rotation `R` accumulated along the
    /// path (`b = g^-R(a)`, then `R +=` the step's canonicalization
    /// rotation) yields the concrete firing — see the soundness argument in
    /// the [`crate::engine`] docs.
    #[must_use]
    pub fn concrete_trace_to(&self, state: StateId) -> Vec<TransitionId> {
        let Some(sym) = &self.symmetry else {
            return self.trace_to(state);
        };
        let mut path = vec![state.index()];
        while self.graph.parents[*path.last().expect("non-empty path")].0 != NO_PARENT {
            path.push(self.graph.parents[*path.last().expect("non-empty path")].0 as usize);
        }
        path.reverse();
        let order = sym.order() as u32;
        let mut rot = self.graph.rotation(path[0]);
        let mut out = Vec::with_capacity(path.len() - 1);
        for &child in &path[1..] {
            let a = self.graph.parents[child].1;
            out.push(TransitionId::from_index(
                sym.unrotate_action(rot, a) as usize
            ));
            rot = (rot + self.graph.rotation(child)) % order;
        }
        out
    }

    /// The concrete marking reached by [`StateSpace::concrete_trace_to`]:
    /// the representative of `state` un-rotated by the cumulative rotation
    /// along its discovery path. Equals [`StateSpace::marking`] outside
    /// quotient spaces.
    #[must_use]
    pub fn concrete_marking(&self, state: StateId) -> Marking {
        let Some(sym) = &self.symmetry else {
            return self.marking(state);
        };
        let order = sym.order() as u32;
        let mut rot = 0u32;
        let mut cur = state.index();
        loop {
            rot = (rot + self.graph.rotation(cur)) % order;
            let (p, _) = self.graph.parents[cur];
            if p == NO_PARENT {
                break;
            }
            cur = p as usize;
        }
        let mut words = vec![0u64; self.graph.stride()];
        sym.unapply_state(rot, self.graph.state(state.index()), &mut words);
        words.truncate(self.places.div_ceil(64));
        Marking::from_words(words, self.places)
    }

    /// Finds a state whose marking satisfies `pred`, if any, scanning in BFS
    /// (shortest-trace) order with a single reused marking buffer.
    pub fn find_state(&self, mut pred: impl FnMut(&Marking) -> bool) -> Option<StateId> {
        let mut scratch = Marking::empty(self.places);
        self.states().find(|&s| {
            self.fill_marking(s, &mut scratch);
            pred(&scratch)
        })
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
    let graph = engine::explore(&mut NetSystem::new(net), &config, None);
    StateSpace::from_graph(graph, net.place_count(), None)
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
    let graph = engine::explore(&mut NetSystem::new(net), &config, Some(sym));
    StateSpace::from_graph(graph, net.place_count(), Some(sym.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlaceId;

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

    #[test]
    fn find_state_locates_marking() {
        let net = ring(6);
        let space = explore(&net, ExploreConfig::default()).unwrap();
        let p3 = net.place_by_name("p3").unwrap();
        let s = space.find_state(|m| m.is_marked(p3)).unwrap();
        assert!(space.marking(s).is_marked(p3));
        assert!(space.is_marked(s, p3));
        assert_eq!(space.trace_to(s).len(), 3);
    }
}

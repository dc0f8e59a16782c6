//! Net structure, construction API and the firing rule.

use crate::{Marking, PetriError, PlaceId, TransitionId};
use std::collections::HashMap;

/// A place of a 1-safe net.
#[derive(Debug, Clone)]
pub struct Place {
    /// Human-readable unique name (used by the Reach language and DOT export).
    pub name: String,
    /// Whether the place carries a token in the initial marking.
    pub initially_marked: bool,
}

/// A transition together with its arc lists.
///
/// Arc lists are kept sorted by place index so that enabledness tests scan
/// them linearly and deterministically.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Human-readable unique name.
    pub name: String,
    pub(crate) consumes: Vec<PlaceId>,
    pub(crate) produces: Vec<PlaceId>,
    pub(crate) reads: Vec<PlaceId>,
}

impl Transition {
    /// Places from which this transition consumes a token.
    #[must_use]
    pub fn consumes(&self) -> &[PlaceId] {
        &self.consumes
    }

    /// Places into which this transition produces a token.
    #[must_use]
    pub fn produces(&self) -> &[PlaceId] {
        &self.produces
    }

    /// Places tested (but not consumed) by this transition.
    #[must_use]
    pub fn reads(&self) -> &[PlaceId] {
        &self.reads
    }
}

/// A 1-safe Petri net with read arcs.
///
/// See the [crate docs](crate) for the model and an example.
#[derive(Debug, Clone, Default)]
pub struct PetriNet {
    places: Vec<Place>,
    transitions: Vec<Transition>,
    place_names: HashMap<String, PlaceId>,
    transition_names: HashMap<String, TransitionId>,
}

impl PetriNet {
    /// Creates an empty net.
    #[must_use]
    pub fn new() -> Self {
        PetriNet::default()
    }

    /// Adds a place. Names must be unique among places.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate place name — duplicate names in a generated net
    /// are a construction bug, not a runtime condition.
    pub fn add_place(&mut self, name: impl Into<String>, initially_marked: bool) -> PlaceId {
        let name = name.into();
        let id = PlaceId::from_index(self.places.len());
        assert!(
            self.place_names.insert(name.clone(), id).is_none(),
            "duplicate place name `{name}`"
        );
        self.places.push(Place {
            name,
            initially_marked,
        });
        id
    }

    /// Adds a transition with empty arc lists. Names must be unique among
    /// transitions.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate transition name.
    pub fn add_transition(&mut self, name: impl Into<String>) -> TransitionId {
        let name = name.into();
        let id = TransitionId::from_index(self.transitions.len());
        assert!(
            self.transition_names.insert(name.clone(), id).is_none(),
            "duplicate transition name `{name}`"
        );
        self.transitions.push(Transition {
            name,
            consumes: Vec::new(),
            produces: Vec::new(),
            reads: Vec::new(),
        });
        id
    }

    /// Adds a consume arc (`place → transition`).
    pub fn consume(&mut self, t: TransitionId, p: PlaceId) {
        let list = &mut self.transitions[t.index()].consumes;
        if let Err(pos) = list.binary_search(&p) {
            list.insert(pos, p);
        }
    }

    /// Adds a produce arc (`transition → place`).
    pub fn produce(&mut self, t: TransitionId, p: PlaceId) {
        let list = &mut self.transitions[t.index()].produces;
        if let Err(pos) = list.binary_search(&p) {
            list.insert(pos, p);
        }
    }

    /// Adds a read (test) arc: `t` requires a token in `p` but does not
    /// consume it.
    pub fn read(&mut self, t: TransitionId, p: PlaceId) {
        let list = &mut self.transitions[t.index()].reads;
        if let Err(pos) = list.binary_search(&p) {
            list.insert(pos, p);
        }
    }

    /// Number of places.
    #[must_use]
    pub fn place_count(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    #[must_use]
    pub fn transition_count(&self) -> usize {
        self.transitions.len()
    }

    /// The place record for `p`.
    #[must_use]
    pub fn place(&self, p: PlaceId) -> &Place {
        &self.places[p.index()]
    }

    /// The transition record for `t`.
    #[must_use]
    pub fn transition(&self, t: TransitionId) -> &Transition {
        &self.transitions[t.index()]
    }

    /// Looks a place up by name.
    #[must_use]
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.place_names.get(name).copied()
    }

    /// Looks a transition up by name.
    #[must_use]
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transition_names.get(name).copied()
    }

    /// Iterates over all place ids.
    pub fn places(&self) -> impl Iterator<Item = PlaceId> + '_ {
        (0..self.places.len()).map(PlaceId::from_index)
    }

    /// Iterates over all transition ids.
    pub fn transitions(&self) -> impl Iterator<Item = TransitionId> + '_ {
        (0..self.transitions.len()).map(TransitionId::from_index)
    }

    /// The initial marking declared at construction time.
    #[must_use]
    pub fn initial_marking(&self) -> Marking {
        let mut m = Marking::empty(self.places.len());
        for (i, p) in self.places.iter().enumerate() {
            if p.initially_marked {
                m.set(PlaceId::from_index(i), true);
            }
        }
        m
    }

    /// Is `t` enabled in `m`?
    ///
    /// A transition is enabled when every consumed and read place is marked,
    /// and firing would not violate 1-safety: every produced place is either
    /// unmarked or also consumed by `t`.
    #[must_use]
    pub fn is_enabled(&self, t: TransitionId, m: &Marking) -> bool {
        let tr = &self.transitions[t.index()];
        tr.consumes.iter().all(|&p| m.is_marked(p))
            && tr.reads.iter().all(|&p| m.is_marked(p))
            && tr
                .produces
                .iter()
                .all(|&p| !m.is_marked(p) || tr.consumes.binary_search(&p).is_ok())
    }

    /// All transitions enabled in `m`, in index order.
    ///
    /// Allocates a fresh `Vec` per call; hot loops should reuse a buffer via
    /// [`PetriNet::enabled_transitions_into`] (or go through the incidence
    /// index of [`crate::engine`], which skips the scan entirely).
    #[must_use]
    pub fn enabled_transitions(&self, m: &Marking) -> Vec<TransitionId> {
        let mut out = Vec::new();
        self.enabled_transitions_into(m, &mut out);
        out
    }

    /// Buffer-reusing variant of [`PetriNet::enabled_transitions`]: clears
    /// `out` and fills it with the transitions enabled in `m`, in index
    /// order.
    pub fn enabled_transitions_into(&self, m: &Marking, out: &mut Vec<TransitionId>) {
        out.clear();
        out.extend(self.transitions().filter(|&t| self.is_enabled(t, m)));
    }

    /// Fires `t` in marking `m`, returning the successor marking.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::NotEnabled`] if `t` is not enabled in `m`.
    pub fn fire(&self, t: TransitionId, m: &Marking) -> Result<Marking, PetriError> {
        let mut next = m.clone();
        self.fire_into(t, m, &mut next)?;
        Ok(next)
    }

    /// Buffer-reusing variant of [`PetriNet::fire`]: writes the successor of
    /// `m` under `t` into `out` (which must cover the same places; its prior
    /// contents are overwritten).
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::NotEnabled`] if `t` is not enabled in `m`; `out`
    /// is left untouched in that case.
    pub fn fire_into(
        &self,
        t: TransitionId,
        m: &Marking,
        out: &mut Marking,
    ) -> Result<(), PetriError> {
        if !self.is_enabled(t, m) {
            return Err(PetriError::NotEnabled(t));
        }
        out.clone_from(m);
        let tr = &self.transitions[t.index()];
        for &p in &tr.consumes {
            out.set(p, false);
        }
        for &p in &tr.produces {
            out.set(p, true);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// in --t--> out, with a read-arc guard.
    fn tiny() -> (PetriNet, PlaceId, PlaceId, PlaceId, TransitionId) {
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", false);
        let g = net.add_place("g", true);
        let t = net.add_transition("t");
        net.consume(t, a);
        net.produce(t, b);
        net.read(t, g);
        (net, a, b, g, t)
    }

    #[test]
    fn firing_moves_token_and_keeps_read_token() {
        let (net, a, b, g, t) = tiny();
        let m0 = net.initial_marking();
        let m1 = net.fire(t, &m0).unwrap();
        assert!(!m1.is_marked(a));
        assert!(m1.is_marked(b));
        assert!(m1.is_marked(g));
    }

    #[test]
    fn read_arc_gates_enabledness() {
        let (net, _a, _b, g, t) = tiny();
        let mut m0 = net.initial_marking();
        m0.set(g, false);
        assert!(!net.is_enabled(t, &m0));
        assert_eq!(net.fire(t, &m0), Err(PetriError::NotEnabled(t)));
    }

    #[test]
    fn safety_blocks_production_into_marked_place() {
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", true);
        let t = net.add_transition("t");
        net.consume(t, a);
        net.produce(t, b);
        let m0 = net.initial_marking();
        assert!(!net.is_enabled(t, &m0), "would violate 1-safety");
    }

    #[test]
    fn self_loop_consume_produce_is_enabled() {
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let t = net.add_transition("t");
        net.consume(t, a);
        net.produce(t, a);
        let m0 = net.initial_marking();
        assert!(net.is_enabled(t, &m0));
        let m1 = net.fire(t, &m0).unwrap();
        assert_eq!(m0, m1);
    }

    #[test]
    fn name_lookup() {
        let (net, a, _, _, t) = tiny();
        assert_eq!(net.place_by_name("a"), Some(a));
        assert_eq!(net.transition_by_name("t"), Some(t));
        assert_eq!(net.place_by_name("nope"), None);
    }

    #[test]
    fn duplicate_arcs_are_deduplicated() {
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let t = net.add_transition("t");
        net.consume(t, a);
        net.consume(t, a);
        assert_eq!(net.transition(t).consumes().len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate place name")]
    fn duplicate_place_name_panics() {
        let mut net = PetriNet::new();
        net.add_place("x", false);
        net.add_place("x", false);
    }

    #[test]
    fn enabled_transitions_in_index_order() {
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let t1 = net.add_transition("t1");
        let t2 = net.add_transition("t2");
        net.read(t1, a);
        net.read(t2, a);
        let m0 = net.initial_marking();
        assert_eq!(net.enabled_transitions(&m0), vec![t1, t2]);
    }
}

//! Labelled transition system of the direct DFS semantics.
//!
//! Exhaustive exploration of [`crate::DfsState`]s under
//! [`Dfs::enabled_events`]. This is the reference object for the
//! PN-translation bisimulation tests, and the substrate of the verification
//! queries that do not go through the Petri-net backend.
//!
//! Exploration runs on the shared state-space engine of
//! [`rap_petri::engine`] under one [`ExploreConfig`]: states are packed
//! into two bit-planes (`active`, `false-valued`), the actions are the
//! events of the model's firing rule ([`mod@crate::semantics`]) in its
//! order, and after each event only the events of *dependent* nodes — the
//! nodes whose rule literals name the event's node — are re-checked for
//! enabledness. The result is the engine's
//! [`StateSpace`] labelled with [`Event`]s; [`Lts`] derefs to it and adds
//! only DFS-state decoding. The seed explorer it replaced lives outside
//! the library, in the dev-only `rap-oracle` crate, as the reference of
//! the engine-equivalence property tests.
//!
//! Symmetric models (wagged replicas) can be explored as a rotation
//! *quotient* via [`Lts::explore_with`] and a [`StateSymmetry`] built by
//! [`node_rotation_symmetry`] from a node permutation.

use crate::graph::Dfs;
use crate::node::{NodeId, TokenValue};
use crate::semantics::{Event, NodeBits};
use crate::state::DfsState;
use crate::DfsError;
use rap_petri::engine::{
    self, get_bit, set_bit, ExploreConfig, StateId, StateSpace, StateSymmetry, TransitionSystem,
};
use std::ops::Deref;

/// The reachable labelled transition system of a DFS model: the engine's
/// [`StateSpace`] labelled with [`Event`]s, which it derefs to for every
/// shared accessor (successors, deadlocks, traces), plus the node count
/// that decodes its states — [`Lts::state`] materialises a [`DfsState`]
/// snapshot on demand.
///
/// Like every engine space it stores states, not edges:
/// [`StateSpace::successors`] re-expands a state under the direct
/// semantics each time it is called, from a copy of the model the space
/// keeps, and a truncated LTS lists no successors for the states its run
/// never expanded.
#[derive(Debug)]
pub struct Lts {
    space: StateSpace<Event>,
    node_count: usize,
}

impl Deref for Lts {
    type Target = StateSpace<Event>;

    fn deref(&self) -> &StateSpace<Event> {
        &self.space
    }
}

impl Lts {
    /// Explores the reachable states of `dfs`, up to `max_states`.
    ///
    /// # Errors
    ///
    /// [`DfsError::StateBudgetExceeded`] when the bound is hit.
    pub fn explore(dfs: &Dfs, max_states: usize) -> Result<Lts, DfsError> {
        let lts = Self::explore_with(
            dfs,
            &ExploreConfig {
                max_states,
                ..ExploreConfig::default()
            },
            None,
        );
        if lts.is_truncated() {
            return Err(DfsError::StateBudgetExceeded { budget: max_states });
        }
        Ok(lts)
    }

    /// Full-control frontend: explores on the engine under `cfg` (budget,
    /// deadline, recorder), optionally as the rotation quotient under
    /// `symmetry` (build one with [`node_rotation_symmetry`]). Returns the
    /// partial LTS when the budget or the deadline cuts the exploration
    /// ([`StateSpace::is_truncated`]).
    #[must_use]
    pub fn explore_with(dfs: &Dfs, cfg: &ExploreConfig, symmetry: Option<&StateSymmetry>) -> Lts {
        Lts {
            space: engine::explore(DfsSystem::new(dfs), cfg, symmetry, &mut ()),
            node_count: dfs.node_count(),
        }
    }

    /// The state snapshot for `id`, decoded from the state arena.
    #[must_use]
    pub fn state(&self, id: StateId) -> DfsState {
        let mut out = self.decode_buffer();
        DfsSystem::decode_words(self.words(id), self.node_count, &mut out);
        out
    }

    /// Finds a state satisfying `pred`, in BFS (shortest-trace) order,
    /// decoding into a single reused buffer.
    pub fn find_state(&self, mut pred: impl FnMut(&DfsState) -> bool) -> Option<StateId> {
        let mut scratch = self.decode_buffer();
        self.states().find(|&s| {
            DfsSystem::decode_words(self.words(s), self.node_count, &mut scratch);
            pred(&scratch)
        })
    }

    /// A state buffer of this model's width; decoding overwrites it.
    fn decode_buffer(&self) -> DfsState {
        DfsState {
            active: vec![false; self.node_count],
            value: vec![TokenValue::True; self.node_count],
        }
    }
}

/// Builds the engine-level [`StateSymmetry`] of a DFS model generated by a
/// node permutation (`node_perm[i]` = image of node `i`), for quotient
/// exploration via [`Lts::explore_with`].
///
/// The permutation must preserve the model's *structure*: node kinds, guard
/// modes, and the (inversion-flagged) data-edge, R-preset/postset and guard
/// relations. The initial state is deliberately **not** required to be
/// symmetric — the engine canonicalizes it first (see its docs) — which is
/// what makes the rotation of a wagged pipeline usable even though its
/// control tokens start in way 0 only.
///
/// # Errors
///
/// When `node_perm` is not a permutation of the nodes or fails to preserve
/// the structure.
pub fn node_rotation_symmetry(dfs: &Dfs, node_perm: &[u32]) -> Result<StateSymmetry, String> {
    let n = dfs.node_count();
    if node_perm.len() != n {
        return Err(format!(
            "node permutation covers {} of {n} nodes",
            node_perm.len()
        ));
    }
    let mut seen = vec![false; n];
    for &p in node_perm {
        let i = p as usize;
        if i >= n || seen[i] {
            return Err(format!(
                "not a permutation: node image {p} repeated or out of range"
            ));
        }
        seen[i] = true;
    }

    for node in dfs.nodes() {
        let img = NodeId::from_index(node_perm[node.index()] as usize);
        if dfs.kind(node) != dfs.kind(img) {
            return Err(format!(
                "node {} and its image differ in kind",
                node.index()
            ));
        }
        if dfs.guard_mode(node) != dfs.guard_mode(img) {
            return Err(format!(
                "node {} and its image differ in guard mode",
                node.index()
            ));
        }
        let edge_key = |edges: &[crate::graph::EdgeRef], map: bool| -> Vec<(usize, bool)> {
            let mut v: Vec<(usize, bool)> = edges
                .iter()
                .map(|e| {
                    let i = e.node.index();
                    (if map { node_perm[i] as usize } else { i }, e.inverted)
                })
                .collect();
            v.sort_unstable();
            v
        };
        let rref_key = |refs: &[crate::graph::RRef], map: bool| -> Vec<(usize, bool)> {
            let mut v: Vec<(usize, bool)> = refs
                .iter()
                .map(|r| {
                    let i = r.node.index();
                    (if map { node_perm[i] as usize } else { i }, r.inverted)
                })
                .collect();
            v.sort_unstable();
            v
        };
        let preserved = edge_key(dfs.preds(node), true) == edge_key(dfs.preds(img), false)
            && edge_key(dfs.succs(node), true) == edge_key(dfs.succs(img), false)
            && rref_key(dfs.r_preset(node), true) == rref_key(dfs.r_preset(img), false)
            && rref_key(dfs.r_postset(node), true) == rref_key(dfs.r_postset(img), false)
            && rref_key(dfs.guards(node), true) == rref_key(dfs.guards(img), false);
        if !preserved {
            return Err(format!(
                "not an automorphism: node {} and its image differ in arc structure",
                node.index()
            ));
        }
    }

    // two-plane bit permutation: plane 0 (active) and plane 1 (false-valued)
    // each permute by the node map; pad bits map to themselves
    let w = DfsSystem::plane_words(n);
    let bits = DfsSystem::stride_for(n) * 64;
    let mut bit_perm: Vec<u32> = (0..bits as u32).collect();
    for (i, &p) in node_perm.iter().enumerate() {
        bit_perm[i] = p;
        bit_perm[w * 64 + i] = (w * 64) as u32 + p;
    }

    // action permutation: event k of node i maps to event k of its image
    // (same kind, hence the same events)
    let rule = dfs.rule();
    let mut act_perm = vec![0u32; rule.events().len()];
    for node in dfs.nodes() {
        let img = NodeId::from_index(node_perm[node.index()] as usize);
        for k in 0..rule.node_events(node).len() {
            act_perm[rule.first_event(node) + k] = (rule.first_event(img) + k) as u32;
        }
    }

    StateSymmetry::new(bit_perm, act_perm)
}

/// [`TransitionSystem`] view of a DFS model for the shared engine.
///
/// States are two bit-planes over the nodes: plane 0 holds `active`
/// (`C`/`M`), plane 1 holds "marked with a False token" (zero whenever the
/// node is inactive, matching [`DfsState`]'s canonicalisation). The action
/// table is the firing rule's event list: per node, in
/// [`Dfs::enabled_events`] order, every event the node can ever offer:
///
/// * logic — `Eval`, `Reset`;
/// * plain register — `Mark(True)`, `Unmark`;
/// * control/push/pop — `Mark(True)`, `Mark(False)`, `Unmark`.
///
/// The events of node `m` are re-checked after an event of node `n` iff one
/// of `m`'s literals names `n`. The engine-equivalence property tests pin
/// this closure against the seed full-scan explorer of the `rap-oracle`
/// crate.
struct DfsSystem {
    /// The system's own copy of the model: the explored space keeps the
    /// system to re-expand states.
    dfs: Dfs,
    actions: Vec<Event>,
    /// Per node: the nodes whose events must be re-checked after it changes.
    dependents: Vec<Vec<u32>>,
}

impl DfsSystem {
    fn new(dfs: &Dfs) -> Self {
        let rule = dfs.rule();
        let actions = rule.events().iter().map(|e| e.event).collect();
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); dfs.node_count()];
        for m in dfs.nodes() {
            let mut deps: Vec<NodeId> = vec![m];
            for e in rule.node_events(m) {
                for clause in rule.clauses(e) {
                    deps.extend(clause.reads().iter().map(|l| l.node));
                }
            }
            deps.sort_unstable();
            deps.dedup();
            for d in deps {
                dependents[d.index()].push(m.index() as u32);
            }
        }

        DfsSystem {
            dfs: dfs.clone(),
            actions,
            dependents,
        }
    }

    fn stride_for(node_count: usize) -> usize {
        (node_count.div_ceil(64) * 2).max(1)
    }

    fn plane_words(node_count: usize) -> usize {
        node_count.div_ceil(64)
    }

    /// Packs `state` into `out` (pre-zeroed, `stride_for` words).
    fn encode(state: &DfsState, node_count: usize, out: &mut [u64]) {
        let w = Self::plane_words(node_count);
        for i in 0..node_count {
            if state.active[i] {
                set_bit(&mut out[..w], i, true);
                if state.value[i] == TokenValue::False {
                    set_bit(&mut out[w..], i, true);
                }
            }
        }
    }

    fn decode_words(words: &[u64], node_count: usize, out: &mut DfsState) {
        let w = Self::plane_words(node_count);
        for i in 0..node_count {
            out.active[i] = get_bit(&words[..w], i);
            out.value[i] = if w > 0 && get_bit(&words[w..], i) {
                TokenValue::False
            } else {
                TokenValue::True
            };
        }
    }
}

/// A packed state's two planes, read node by node.
struct Planes<'a> {
    active: &'a [u64],
    is_false: &'a [u64],
}

impl<'a> Planes<'a> {
    fn of(words: &'a [u64], node_count: usize) -> Self {
        let (active, is_false) = words.split_at(DfsSystem::plane_words(node_count));
        Planes { active, is_false }
    }
}

impl NodeBits for Planes<'_> {
    #[inline]
    fn active(&self, n: NodeId) -> bool {
        get_bit(self.active, n.index())
    }

    #[inline]
    fn is_false(&self, n: NodeId) -> bool {
        get_bit(self.is_false, n.index())
    }
}

impl TransitionSystem for DfsSystem {
    type Action = Event;

    fn state_bits(&self) -> usize {
        Self::stride_for(self.dfs.node_count()) * 64
    }

    fn actions(&self) -> &[Event] {
        &self.actions
    }

    fn write_initial(&mut self, out: &mut [u64]) {
        let s0 = DfsState::initial(&self.dfs);
        Self::encode(&s0, self.dfs.node_count(), out);
    }

    fn write_enabled_full(&mut self, state: &[u64], out: &mut [u64]) {
        let planes = Planes::of(state, self.dfs.node_count());
        let rule = self.dfs.rule();
        for (a, e) in rule.events().iter().enumerate() {
            if rule.is_enabled(e, &planes) {
                set_bit(out, a, true);
            }
        }
    }

    fn apply(&mut self, a: usize, state: &[u64], out: &mut [u64]) {
        out.copy_from_slice(state);
        let w = Self::plane_words(self.dfs.node_count());
        match self.actions[a] {
            Event::Eval(n) => set_bit(&mut out[..w], n.index(), true),
            Event::Mark(n, v) => {
                set_bit(&mut out[..w], n.index(), true);
                set_bit(&mut out[w..], n.index(), v == TokenValue::False);
            }
            Event::Reset(n) | Event::Unmark(n) => {
                set_bit(&mut out[..w], n.index(), false);
                set_bit(&mut out[w..], n.index(), false);
            }
        }
    }

    fn update_enabled(&mut self, a: usize, state: &[u64], enabled: &mut [u64]) {
        let planes = Planes::of(state, self.dfs.node_count());
        let rule = self.dfs.rule();
        let node = self.actions[a].node();
        for &mi in &self.dependents[node.index()] {
            let m = NodeId::from_index(mi as usize);
            let first = rule.first_event(m);
            for (k, e) in rule.node_events(m).iter().enumerate() {
                set_bit(enabled, first + k, rule.is_enabled(e, &planes));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfsBuilder;
    use crate::node::TokenValue;

    fn cfg(max_states: usize) -> ExploreConfig {
        ExploreConfig {
            max_states,
            ..ExploreConfig::default()
        }
    }

    /// Closed three-register ring — the paper notes three registers are the
    /// minimum for a token to oscillate (§III, control loops), and the same
    /// holds for plain rings under the spread-token semantics.
    fn ring() -> Dfs {
        let mut b = DfsBuilder::new();
        let r0 = b.register("a").marked().build();
        let r1 = b.register("b").build();
        let r2 = b.register("c").build();
        b.connect(r0, r1);
        b.connect(r1, r2);
        b.connect(r2, r0);
        b.finish().unwrap()
    }

    /// Two disjoint copies of the three-register ring: the swap of the two
    /// copies is a structural automorphism of order 2.
    fn double_ring() -> (Dfs, Vec<u32>) {
        let mut b = DfsBuilder::new();
        let mut ids = Vec::new();
        for copy in 0..2 {
            let r0 = b.register(format!("a{copy}")).marked().build();
            let r1 = b.register(format!("b{copy}")).build();
            let r2 = b.register(format!("c{copy}")).build();
            b.connect(r0, r1);
            b.connect(r1, r2);
            b.connect(r2, r0);
            ids.extend([r0, r1, r2]);
        }
        let dfs = b.finish().unwrap();
        let perm: Vec<u32> = (0..6u32).map(|i| (i + 3) % 6).collect();
        (dfs, perm)
    }

    #[test]
    fn two_register_ring_deadlocks() {
        // With fewer than three registers a token cannot oscillate: the
        // receiving register's R-postset is the marked sender itself.
        let mut b = DfsBuilder::new();
        let r0 = b.register("a").marked().build();
        let r1 = b.register("b").build();
        b.connect(r0, r1);
        b.connect(r1, r0);
        let dfs = b.finish().unwrap();
        let lts = Lts::explore(&dfs, 1_000).unwrap();
        assert!(!lts.deadlocks().is_empty());
    }

    #[test]
    fn ring_is_live_and_bounded() {
        let dfs = ring();
        let lts = Lts::explore(&dfs, 10_000).unwrap();
        assert!(lts.deadlocks().is_empty());
        assert!(lts.len() > 2);
        // traces replay
        for s in lts.states() {
            let mut st = DfsState::initial(&dfs);
            for ev in lts.trace_to(s) {
                st = dfs.apply(&st, ev);
            }
            assert_eq!(st, lts.state(s));
        }
    }

    #[test]
    fn budget_overrun_reports() {
        let dfs = ring();
        assert!(matches!(
            Lts::explore(&dfs, 2),
            Err(crate::DfsError::StateBudgetExceeded { budget: 2 })
        ));
        let partial = Lts::explore_with(&dfs, &cfg(2), None);
        assert!(partial.is_truncated());
        assert_eq!(
            partial.outcome(),
            engine::ExploreOutcome::Truncated { limit: 2 }
        );
        assert_eq!(partial.len(), 2);
    }

    #[test]
    fn truncated_frontier_is_not_a_deadlock() {
        let dfs = ring();
        let partial = Lts::explore_with(&dfs, &cfg(2), None);
        assert!(partial.is_truncated());
        assert!(partial.successors(StateId::from_index(1)).is_empty());
        assert!(partial.deadlocks().is_empty());
    }

    #[test]
    fn mismatch_init_deadlocks() {
        // push guarded by two controls initialised inconsistently — the
        // §III-A "incorrect initialisation" bug class
        let mut b = DfsBuilder::new();
        let i = b.register("in").marked().build();
        let c1 = b.control("c1").marked_with(TokenValue::True).build();
        let c2 = b.control("c2").marked_with(TokenValue::False).build();
        let p = b.push("p").build();
        let o = b.register("out").build();
        b.connect(i, p);
        b.connect(c1, p);
        b.connect(c2, p);
        b.connect(p, o);
        let dfs = b.finish().unwrap();
        let lts = Lts::explore(&dfs, 10_000).unwrap();
        assert!(!lts.deadlocks().is_empty());
        let mismatch = lts.find_state(|s| dfs.has_control_mismatch(s));
        assert!(mismatch.is_some());
    }

    /// The swap of two disjoint identical rings is an automorphism; the
    /// quotient halves (most of) the space and preserves deadlock-freedom,
    /// and its concrete traces replay through the real semantics.
    #[test]
    fn quotient_under_copy_swap_is_sound() {
        let (dfs, perm) = double_ring();
        let sym = node_rotation_symmetry(&dfs, &perm).unwrap();
        assert_eq!(sym.order(), 2);
        let full = Lts::explore_with(&dfs, &cfg(100_000), None);
        let quo = Lts::explore_with(&dfs, &ExploreConfig::default(), Some(&sym));
        assert!(quo.len() < full.len());
        assert!(quo.len() * 2 >= full.len());
        assert_eq!(full.deadlocks().is_empty(), quo.deadlocks().is_empty());
        // concrete traces must replay step-enabled through the semantics
        for s in quo.states() {
            let mut st = DfsState::initial(&dfs);
            for ev in quo.concrete_trace_to(s) {
                assert!(dfs.is_event_enabled(&st, ev), "concrete trace not enabled");
                st = dfs.apply(&st, ev);
            }
        }
    }

    #[test]
    fn broken_node_permutations_are_rejected() {
        let (dfs, _) = double_ring();
        // not a permutation
        assert!(node_rotation_symmetry(&dfs, &[0, 0, 1, 2, 3, 4]).is_err());
        // wrong width
        assert!(node_rotation_symmetry(&dfs, &[0, 1, 2]).is_err());
        // a permutation that breaks the arc structure
        assert!(node_rotation_symmetry(&dfs, &[1, 0, 2, 3, 4, 5]).is_err());
    }
}

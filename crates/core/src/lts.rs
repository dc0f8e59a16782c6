//! Labelled transition system of the direct DFS semantics.
//!
//! Exhaustive exploration of [`crate::DfsState`]s under
//! [`Dfs::enabled_events`]. This is the reference object for the
//! PN-translation bisimulation tests, and the substrate of the verification
//! queries that do not go through the Petri-net backend.
//!
//! Exploration runs on the shared state-space engine of
//! [`rap_petri::engine`] under one [`ExploreConfig`]: states are packed
//! into two bit-planes (`active`, `false-valued`), and after each event
//! only the events of *dependent* nodes — the event's own node plus
//! everything reading it through data edges, R-presets/postsets or guards
//! — are re-checked for enabledness. The seed explorer it replaced lives
//! outside the library, in the dev-only `rap-oracle` crate, as the
//! reference of the engine-equivalence property tests.
//!
//! Symmetric models (wagged replicas) can be explored as a rotation
//! *quotient* via [`Lts::explore_with`] and a [`StateSymmetry`] built by
//! [`node_rotation_symmetry`] from a node permutation.

use crate::graph::Dfs;
use crate::node::{NodeId, NodeKind, TokenValue};
use crate::semantics::Event;
use crate::state::DfsState;
use crate::DfsError;
use rap_petri::engine::{
    self, get_bit, set_bit, ExploreConfig, ExploredGraph, StateSymmetry, TransitionSystem,
    NO_PARENT,
};

/// Dense id of a state in an [`Lts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LtsStateId(u32);

impl LtsStateId {
    /// Dense index of the state (0 = initial).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The reachable labelled transition system of a DFS model.
///
/// States live word-packed in the underlying [`ExploredGraph`];
/// [`Lts::state`] materialises a [`DfsState`] snapshot on demand.
#[derive(Debug, Clone)]
pub struct Lts {
    node_count: usize,
    graph: ExploredGraph,
    actions: Vec<Event>,
    succ: Vec<(Event, LtsStateId)>,
    /// Present when this is a quotient LTS: the symmetry used to
    /// canonicalize states, needed to make traces concrete again.
    symmetry: Option<StateSymmetry>,
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
    /// ([`Lts::is_truncated`]).
    #[must_use]
    pub fn explore_with(dfs: &Dfs, cfg: &ExploreConfig, symmetry: Option<&StateSymmetry>) -> Lts {
        let mut sys = DfsSystem::new(dfs);
        let graph = engine::explore(&mut sys, cfg, symmetry);
        Self::from_graph(graph, &sys, symmetry.cloned())
    }

    fn from_graph(
        mut g: ExploredGraph,
        sys: &DfsSystem<'_>,
        symmetry: Option<StateSymmetry>,
    ) -> Lts {
        let succ = std::mem::take(&mut g.succ)
            .into_iter()
            .map(|(a, s)| (sys.actions[a as usize], LtsStateId(s)))
            .collect();
        Lts {
            node_count: sys.dfs.node_count(),
            graph: g,
            actions: sys.actions.clone(),
            succ,
            symmetry,
        }
    }

    /// Number of reachable states (orbit representatives for a quotient).
    #[must_use]
    pub fn len(&self) -> usize {
        self.graph.len()
    }

    /// Always false (the initial state exists); pairs with [`Lts::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.graph.is_empty()
    }

    /// Was exploration cut short, by the state budget or the deadline?
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.graph.is_truncated()
    }

    /// How exploration ended (carries the budget or deadline that cut it).
    #[must_use]
    pub fn outcome(&self) -> engine::ExploreOutcome {
        self.graph.outcome()
    }

    /// The symmetry this LTS is a quotient under, if any.
    #[must_use]
    pub fn symmetry(&self) -> Option<&StateSymmetry> {
        self.symmetry.as_ref()
    }

    /// The initial state id.
    #[must_use]
    pub fn initial(&self) -> LtsStateId {
        LtsStateId(0)
    }

    /// The state snapshot for `id`, decoded from the state arena.
    #[must_use]
    pub fn state(&self, id: LtsStateId) -> DfsState {
        let mut out = DfsState {
            active: vec![false; self.node_count],
            value: vec![TokenValue::True; self.node_count],
        };
        self.fill_state(id, &mut out);
        out
    }

    /// Decodes the state `id` into `out`. `out` must come from the same
    /// model (same node count).
    pub fn fill_state(&self, id: LtsStateId, out: &mut DfsState) {
        assert_eq!(out.active.len(), self.node_count, "state buffer mismatch");
        DfsSystem::decode_words(self.graph.state(id.index()), self.node_count, out);
    }

    /// Iterates over all state ids.
    pub fn states(&self) -> impl Iterator<Item = LtsStateId> {
        (0..self.graph.len() as u32).map(LtsStateId)
    }

    /// Outgoing labelled edges of `id`.
    #[must_use]
    pub fn successors(&self, id: LtsStateId) -> &[(Event, LtsStateId)] {
        let i = id.index();
        &self.succ[self.graph.succ_off[i] as usize..self.graph.succ_off[i + 1] as usize]
    }

    /// Event sequence from the initial state to `id`.
    ///
    /// For a quotient LTS this trace is over orbit *representatives*; use
    /// [`Lts::concrete_trace_to`] for a replayable sequence of the original
    /// model.
    #[must_use]
    pub fn trace_to(&self, id: LtsStateId) -> Vec<Event> {
        self.graph
            .trace_to(id.index())
            .into_iter()
            .map(|a| self.actions[a as usize])
            .collect()
    }

    /// The symmetry rotation applied when `id` was canonicalized at
    /// discovery (always 0 outside quotient LTSs).
    #[must_use]
    pub fn rotation(&self, id: LtsStateId) -> u32 {
        self.graph.rotation(id.index())
    }

    /// An event sequence of the *original* model from its concrete initial
    /// state to a concrete member of `id`'s orbit. Falls back to
    /// [`Lts::trace_to`] when this is not a quotient LTS.
    ///
    /// Each quotient step fires in the representative's frame; un-rotating
    /// by the cumulative rotation accumulated along the discovery path
    /// yields the concrete event — see the soundness argument in the
    /// [`rap_petri::engine`] docs.
    #[must_use]
    pub fn concrete_trace_to(&self, id: LtsStateId) -> Vec<Event> {
        let Some(sym) = &self.symmetry else {
            return self.trace_to(id);
        };
        let mut path = vec![id.index()];
        while self.graph.parents[*path.last().expect("non-empty path")].0 != NO_PARENT {
            path.push(self.graph.parents[*path.last().expect("non-empty path")].0 as usize);
        }
        path.reverse();
        let order = sym.order() as u32;
        let mut rot = self.graph.rotation(path[0]);
        let mut out = Vec::with_capacity(path.len() - 1);
        for &child in &path[1..] {
            let a = self.graph.parents[child].1;
            out.push(self.actions[sym.unrotate_action(rot, a) as usize]);
            rot = (rot + self.graph.rotation(child)) % order;
        }
        out
    }

    /// The deadlocks: states with no enabled event, ascending, as the
    /// explorer recorded them on discovery ([`ExploredGraph::dead`] — the
    /// same definition as `rap_petri::analysis::find_deadlocks`). Exact on
    /// a truncated LTS too, whose unexpanded frontier states have no edges
    /// but are not dead.
    #[must_use]
    pub fn deadlocks(&self) -> Vec<LtsStateId> {
        self.graph.dead().iter().map(|&s| LtsStateId(s)).collect()
    }

    /// Finds a state satisfying `pred`, in BFS (shortest-trace) order,
    /// decoding into a single reused buffer.
    pub fn find_state(&self, mut pred: impl FnMut(&DfsState) -> bool) -> Option<LtsStateId> {
        let mut scratch = DfsState {
            active: vec![false; self.node_count],
            value: vec![TokenValue::True; self.node_count],
        };
        self.states().find(|&s| {
            self.fill_state(s, &mut scratch);
            pred(&scratch)
        })
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

    // action permutation: slot s of node i maps to slot s of its image
    // (same kind, hence the same slot layout)
    let mut base = Vec::with_capacity(n);
    let mut total = 0u32;
    for node in dfs.nodes() {
        base.push(total);
        total += action_slots(dfs.kind(node));
    }
    let mut act_perm = vec![0u32; total as usize];
    for node in dfs.nodes() {
        let i = node.index();
        let j = node_perm[i] as usize;
        for s in 0..action_slots(dfs.kind(node)) {
            act_perm[(base[i] + s) as usize] = base[j] + s;
        }
    }

    StateSymmetry::new(bit_perm, act_perm)
}

/// Maximum actions a node can offer, by kind (see the action layout below).
fn action_slots(kind: NodeKind) -> u32 {
    match kind {
        NodeKind::Logic | NodeKind::Register => 2,
        NodeKind::Control | NodeKind::Push | NodeKind::Pop => 3,
    }
}

/// [`TransitionSystem`] view of a DFS model for the shared engine.
///
/// States are two bit-planes over the nodes: plane 0 holds `active`
/// (`C`/`M`), plane 1 holds "marked with a False token" (zero whenever the
/// node is inactive, matching [`DfsState`]'s canonicalisation). The action
/// table enumerates, per node and in [`Dfs::enabled_events`] order, every
/// event the node can ever offer:
///
/// * logic — `Eval`, `Reset`;
/// * plain register — `Mark(True)`, `Unmark`;
/// * control/push/pop — `Mark(True)`, `Mark(False)`, `Unmark`.
///
/// The affected map is the syntactic dependency closure of the semantics
/// (eqs. (1)–(5)): the events of node `m` are re-checked after an event of
/// node `n` iff `n ∈ {m} ∪ preds(m) ∪ ?m ∪ m? ∪ guards(m)`. The
/// engine-equivalence property tests pin this closure against the seed
/// full-scan explorer of the `rap-oracle` crate.
struct DfsSystem<'a> {
    dfs: &'a Dfs,
    actions: Vec<Event>,
    /// First action index of each node.
    base: Vec<u32>,
    /// Per node: the nodes whose events must be re-checked after it changes.
    dependents: Vec<Vec<u32>>,
    scratch: DfsState,
    evbuf: Vec<Event>,
}

impl<'a> DfsSystem<'a> {
    fn new(dfs: &'a Dfs) -> Self {
        let n = dfs.node_count();
        let mut actions = Vec::new();
        let mut base = Vec::with_capacity(n);
        for node in dfs.nodes() {
            base.push(actions.len() as u32);
            match dfs.kind(node) {
                NodeKind::Logic => {
                    actions.push(Event::Eval(node));
                    actions.push(Event::Reset(node));
                }
                NodeKind::Register => {
                    actions.push(Event::Mark(node, TokenValue::True));
                    actions.push(Event::Unmark(node));
                }
                NodeKind::Control | NodeKind::Push | NodeKind::Pop => {
                    actions.push(Event::Mark(node, TokenValue::True));
                    actions.push(Event::Mark(node, TokenValue::False));
                    actions.push(Event::Unmark(node));
                }
            }
        }

        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n];
        for m in dfs.nodes() {
            let mut deps: Vec<NodeId> = vec![m];
            deps.extend(dfs.preds(m).iter().map(|e| e.node));
            deps.extend(dfs.r_preset(m).iter().map(|r| r.node));
            deps.extend(dfs.r_postset(m).iter().map(|r| r.node));
            deps.extend(dfs.guards(m).iter().map(|r| r.node));
            deps.sort_unstable();
            deps.dedup();
            for d in deps {
                dependents[d.index()].push(m.index() as u32);
            }
        }
        for row in &mut dependents {
            row.sort_unstable();
            row.dedup();
        }

        DfsSystem {
            dfs,
            actions,
            base,
            dependents,
            scratch: DfsState::initial(dfs),
            evbuf: Vec::new(),
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

    /// The action id of `ev` (which must be one of `ev.node()`'s slots).
    fn action_id(&self, ev: Event) -> usize {
        let node = ev.node();
        let offset = match ev {
            Event::Eval(_) => 0,
            Event::Reset(_) => 1,
            Event::Mark(n, v) => {
                if self.dfs.kind(n) == NodeKind::Register || v == TokenValue::True {
                    0
                } else {
                    1
                }
            }
            Event::Unmark(n) => {
                if self.dfs.kind(n) == NodeKind::Register {
                    1
                } else {
                    2
                }
            }
        };
        self.base[node.index()] as usize + offset
    }
}

impl TransitionSystem for DfsSystem<'_> {
    fn state_words(&self) -> usize {
        Self::stride_for(self.dfs.node_count())
    }

    fn action_count(&self) -> usize {
        self.actions.len()
    }

    fn write_initial(&mut self, out: &mut [u64]) {
        let s0 = DfsState::initial(self.dfs);
        Self::encode(&s0, self.dfs.node_count(), out);
    }

    fn write_enabled_full(&mut self, state: &[u64], out: &mut [u64]) {
        Self::decode_words(state, self.dfs.node_count(), &mut self.scratch);
        for ev in self.dfs.enabled_events(&self.scratch) {
            set_bit(out, self.action_id(ev), true);
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
        Self::decode_words(state, self.dfs.node_count(), &mut self.scratch);
        let node = self.actions[a].node();
        for &mi in &self.dependents[node.index()] {
            let m = NodeId::from_index(mi as usize);
            let b = self.base[mi as usize] as usize;
            for slot in 0..action_slots(self.dfs.kind(m)) {
                set_bit(enabled, b + slot as usize, false);
            }
            self.evbuf.clear();
            self.dfs.node_events(&self.scratch, m, &mut self.evbuf);
            for i in 0..self.evbuf.len() {
                set_bit(enabled, self.action_id(self.evbuf[i]), true);
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
        assert!(partial.successors(LtsStateId(1)).is_empty());
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

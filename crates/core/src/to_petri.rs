//! Translation of DFS models into 1-safe Petri nets with read arcs (Fig. 3).
//!
//! Every state variable becomes a complementary pair of places `x_0`/`x_1`
//! with `x+`/`x-` transitions between them; the enabling conditions of the
//! operational semantics (eqs. (1)–(5)) become read arcs. Dynamic registers
//! additionally get `Mt_x`/`Mf_x` *value places*, and their `M_x+`/`M_x-`
//! transitions are refined into mutually exclusive `Mt_x±`/`Mf_x±` pairs
//! (Fig. 3c).
//!
//! The translation is behaviour-preserving: the reachable LTS of the net
//! (labelled by base transition names) is bisimilar to the LTS of the direct
//! semantics — this is checked by the `semantics_bisimulation` integration
//! test on a corpus of models including Fig. 1b.

use crate::graph::{Dfs, GuardMode, RRef};
use crate::node::{NodeId, NodeKind, TokenValue};
use rap_petri::symmetry::Symmetry;
use rap_petri::{PetriNet, PlaceId, TransitionId};
use std::collections::HashMap;

/// The true/false complementary place pairs of one dynamic register:
/// `((Mt_x_0, Mt_x_1), (Mf_x_0, Mf_x_1))`.
pub type ValuePlacePairs = ((PlaceId, PlaceId), (PlaceId, PlaceId));

/// The Petri-net image of a DFS model, with the mapping tables needed to
/// interpret verification results back at the dataflow level.
#[derive(Debug, Clone)]
pub struct PetriImage {
    /// The generated net.
    pub net: PetriNet,
    /// Per logic node: `(C_x_0, C_x_1)`.
    pub logic_places: HashMap<NodeId, (PlaceId, PlaceId)>,
    /// Per register: `(M_x_0, M_x_1)`.
    pub marking_places: HashMap<NodeId, (PlaceId, PlaceId)>,
    /// Per dynamic register: `((Mt_x_0, Mt_x_1), (Mf_x_0, Mf_x_1))` —
    /// complementary pairs so that both a value and its absence can be
    /// tested by read arcs (the paper's Fig. 4 uses the same `Mt_ctrl_1`
    /// naming).
    pub value_places: HashMap<NodeId, ValuePlacePairs>,
    /// Base label of each transition (variant suffixes stripped): aligns
    /// with [`crate::Dfs::event_label`].
    pub labels: Vec<String>,
}

impl PetriImage {
    /// The base event label of transition `t` (e.g. `Mt_ctrl+`).
    #[must_use]
    pub fn label(&self, t: TransitionId) -> &str {
        &self.labels[t.index()]
    }

    /// All complementary `x_0`/`x_1` place pairs (used by the structural
    /// 1-safety invariant check), in ascending place order: by node, and
    /// per node its `C`, `M`, `Mt` and `Mf` pairs, as [`to_petri`] creates
    /// them. The order is fixed because a screen's unsafe witness is an
    /// index into this list, and that index is persisted.
    #[must_use]
    pub fn complementary_pairs(&self) -> Vec<(PlaceId, PlaceId)> {
        let mut pairs: Vec<_> = self
            .logic_places
            .values()
            .chain(self.marking_places.values())
            .copied()
            .chain(self.value_places.values().flat_map(|&(mt, mf)| [mt, mf]))
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Pushes a DFS-level node permutation (e.g.
    /// [`crate::wagging::Wagged::way_rotation`]) through the translation's
    /// place maps and builds the induced net-level [`Symmetry`], for
    /// quotient exploration of the Petri image.
    ///
    /// Every place of node `n` (logic `C` pair, marking `M` pair, value
    /// `Mt`/`Mf` pairs) maps to the corresponding place of `node_perm[n]`;
    /// [`Symmetry::new`] then derives the transition permutation and
    /// re-validates that the whole map is a net automorphism.
    ///
    /// # Errors
    ///
    /// When `node_perm` is malformed or the induced place map is not a net
    /// automorphism (e.g. the permuted nodes differ in kind).
    pub fn induced_symmetry(&self, node_perm: &[u32]) -> Result<Symmetry, String> {
        let nodes = node_perm.len();
        let img_of = |id: NodeId| -> Result<NodeId, String> {
            let i = id.index();
            if i >= nodes {
                return Err(format!(
                    "node permutation covers {nodes} nodes, node {i} is out of range"
                ));
            }
            Ok(NodeId::from_index(node_perm[i] as usize))
        };
        let mut place_perm = vec![u32::MAX; self.net.place_count()];
        let mut set = |from: PlaceId, to: PlaceId| {
            place_perm[from.index()] = to.index() as u32;
        };
        for (&node, &(p0, p1)) in &self.logic_places {
            let img = img_of(node)?;
            let &(q0, q1) = self.logic_places.get(&img).ok_or_else(|| {
                format!("image of logic node {} is not a logic node", node.index())
            })?;
            set(p0, q0);
            set(p1, q1);
        }
        for (&node, &(p0, p1)) in &self.marking_places {
            let img = img_of(node)?;
            let &(q0, q1) = self
                .marking_places
                .get(&img)
                .ok_or_else(|| format!("image of register {} is not a register", node.index()))?;
            set(p0, q0);
            set(p1, q1);
        }
        for (&node, &((t0, t1), (f0, f1))) in &self.value_places {
            let img = img_of(node)?;
            let &((u0, u1), (v0, v1)) = self.value_places.get(&img).ok_or_else(|| {
                format!(
                    "image of dynamic register {} is not a dynamic register",
                    node.index()
                )
            })?;
            set(t0, u0);
            set(t1, u1);
            set(f0, v0);
            set(f1, v1);
        }
        if let Some(miss) = place_perm.iter().position(|&p| p == u32::MAX) {
            return Err(format!(
                "place {miss} is not covered by the translation maps"
            ));
        }
        Symmetry::new(&self.net, place_perm)
    }
}

/// Context for building one node's transitions.
struct Tx<'a> {
    dfs: &'a Dfs,
    img: &'a mut PetriImage,
}

impl Tx<'_> {
    fn transition(&mut self, base_label: &str, variant: Option<usize>) -> TransitionId {
        let name = match variant {
            None => base_label.to_string(),
            Some(k) => format!("{base_label}~{k}"),
        };
        let t = self.img.net.add_transition(name);
        debug_assert_eq!(t.index(), self.img.labels.len());
        self.img.labels.push(base_label.to_string());
        t
    }

    fn read_active(&mut self, t: TransitionId, l: NodeId) {
        let p = self.img.logic_places[&l].1;
        self.img.net.read(t, p);
    }

    fn read_inactive(&mut self, t: TransitionId, l: NodeId) {
        let p = self.img.logic_places[&l].0;
        self.img.net.read(t, p);
    }

    fn read_marked(&mut self, t: TransitionId, r: NodeId) {
        let p = self.img.marking_places[&r].1;
        self.img.net.read(t, p);
    }

    fn read_unmarked(&mut self, t: TransitionId, r: NodeId) {
        let p = self.img.marking_places[&r].0;
        self.img.net.read(t, p);
    }

    /// Reads the value place asserting `r`'s token (effectively) equals `v`,
    /// accounting for the arc inversion recorded in `g`.
    fn read_effective(&mut self, t: TransitionId, g: RRef, v: TokenValue) {
        let want = if g.inverted { v.negate() } else { v };
        let ((_, mt1), (_, mf1)) = self.img.value_places[&g.node];
        self.img
            .net
            .read(t, if want == TokenValue::True { mt1 } else { mf1 });
    }

    /// Reads `Mt_x_1` (the register is true-marked).
    fn read_true_marked(&mut self, t: TransitionId, r: NodeId) {
        let ((_, mt1), _) = self.img.value_places[&r];
        self.img.net.read(t, mt1);
    }

    /// Reads `Mt_x_0` (the register is not true-marked: unmarked or false).
    fn read_not_true_marked(&mut self, t: TransitionId, r: NodeId) {
        let ((mt0, _), _) = self.img.value_places[&r];
        self.img.net.read(t, mt0);
    }

    /// `Mt(q)` for pushes, `M(q)` otherwise — the presence half of
    /// `mark_core` over `?r`.
    fn read_preset_presence(&mut self, t: TransitionId, r: NodeId) {
        for q in dedup_nodes(self.dfs.r_preset(r)) {
            if self.dfs.kind(q) == NodeKind::Push {
                self.read_true_marked(t, q);
            } else {
                self.read_marked(t, q);
            }
        }
    }

    /// Read arcs for the full `mark_core` condition of register `r`.
    fn reads_mark_core(&mut self, t: TransitionId, r: NodeId) {
        self.reads_mark_preset(t, r);
        for q in dedup_nodes(self.dfs.r_postset(r)) {
            self.read_unmarked(t, q);
        }
    }

    /// Read arcs for the preset half of `mark_core` only (false-controlled
    /// pushes: consume-and-destroy ignores the R-postset).
    fn reads_mark_preset(&mut self, t: TransitionId, r: NodeId) {
        for e in self.dfs.preds(r) {
            if self.dfs.kind(e.node) == NodeKind::Logic {
                self.read_active(t, e.node);
            }
        }
        self.read_preset_presence(t, r);
    }

    /// Read arcs for the full `unmark_core` condition of register `r`.
    fn reads_unmark_core(&mut self, t: TransitionId, r: NodeId) {
        let exempt_pops = self.dfs.kind(r) == NodeKind::Control;
        for e in self.dfs.preds(r) {
            if self.dfs.kind(e.node) == NodeKind::Logic {
                self.read_inactive(t, e.node);
            }
        }
        for q in dedup_nodes(self.dfs.r_preset(r)) {
            if self.dfs.kind(q) == NodeKind::Push {
                self.read_not_true_marked(t, q);
            } else {
                self.read_unmarked(t, q);
            }
        }
        for q in dedup_nodes(self.dfs.r_postset(r)) {
            if self.dfs.kind(q) == NodeKind::Pop && !exempt_pops {
                self.read_true_marked(t, q);
            } else {
                self.read_marked(t, q);
            }
        }
    }

    /// The marking flip arcs for a plain register transition.
    fn flip_plain(&mut self, t: TransitionId, r: NodeId, to_marked: bool) {
        let (m0, m1) = self.img.marking_places[&r];
        if to_marked {
            self.img.net.consume(t, m0);
            self.img.net.produce(t, m1);
        } else {
            self.img.net.consume(t, m1);
            self.img.net.produce(t, m0);
        }
    }

    /// The marking flip arcs for a dynamic register transition carrying
    /// value `v`.
    fn flip_valued(&mut self, t: TransitionId, r: NodeId, v: TokenValue, to_marked: bool) {
        let (m0, m1) = self.img.marking_places[&r];
        let (mt, mf) = self.img.value_places[&r];
        let (v0, v1) = if v == TokenValue::True { mt } else { mf };
        if to_marked {
            self.img.net.consume(t, m0);
            self.img.net.consume(t, v0);
            self.img.net.produce(t, m1);
            self.img.net.produce(t, v1);
        } else {
            self.img.net.consume(t, m1);
            self.img.net.consume(t, v1);
            self.img.net.produce(t, m0);
            self.img.net.produce(t, v0);
        }
    }

    /// Generates the `+` transitions selecting value `v` under the node's
    /// guard mode. `sources` are the guards/value sources; `core` selects
    /// which enabling-condition reads apply.
    fn valued_mark_transitions(
        &mut self,
        r: NodeId,
        v: TokenValue,
        sources: &[RRef],
        mode: GuardMode,
        core: MarkCondition,
    ) {
        let name = &self.dfs.node(r).name;
        let base = if v == TokenValue::True {
            format!("Mt_{name}+")
        } else {
            format!("Mf_{name}+")
        };
        // Which guard-value read sets select value `v`?
        // Unanimous: all sources effectively `v` — one transition.
        // And: True needs all true (one); False needs a false witness (one
        //   transition per source) plus presence of the rest.
        // Or : dual of And.
        let witness_based = match (mode, v) {
            (GuardMode::Unanimous, _) => false,
            (GuardMode::And, TokenValue::True) | (GuardMode::Or, TokenValue::False) => false,
            (GuardMode::And, TokenValue::False) | (GuardMode::Or, TokenValue::True) => true,
        };
        if sources.is_empty() || !witness_based {
            let t = self.transition(&base, None);
            self.flip_valued(t, r, v, true);
            self.reads_for_core(t, r, core, sources);
            for &g in sources {
                self.read_effective(t, g, v);
            }
        } else {
            for (k, &witness) in sources.iter().enumerate() {
                let t = self.transition(&base, Some(k));
                self.flip_valued(t, r, v, true);
                self.reads_for_core(t, r, core, sources);
                self.read_effective(t, witness, v);
                for &g in sources {
                    self.read_marked(t, g.node);
                }
            }
        }
    }

    /// Applies the enabling-condition reads chosen by `core`.
    fn reads_for_core(
        &mut self,
        t: TransitionId,
        r: NodeId,
        core: MarkCondition,
        sources: &[RRef],
    ) {
        match core {
            MarkCondition::Full => self.reads_mark_core(t, r),
            MarkCondition::PresetOnly => self.reads_mark_preset(t, r),
            MarkCondition::GuardAndEmptyPostset => {
                for &g in sources {
                    self.read_marked(t, g.node);
                }
                for q in dedup_nodes(self.dfs.r_postset(r)) {
                    self.read_unmarked(t, q);
                }
            }
        }
    }
}

/// Which enabling condition a valued `+` transition encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MarkCondition {
    /// The full `mark_core` (true-controlled acceptance).
    Full,
    /// Preset half only (false-controlled push: consume-and-destroy).
    PresetOnly,
    /// Guard presence + empty R-postset (false-controlled pop: produce an
    /// empty token).
    GuardAndEmptyPostset,
}

/// Registers in an R-set, deduplicated by node (parity matters only for
/// value reads, not presence reads).
fn dedup_nodes(rs: &[RRef]) -> Vec<NodeId> {
    let mut out: Vec<NodeId> = rs.iter().map(|r| r.node).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Translates `dfs` into its Petri-net image.
#[must_use]
pub fn to_petri(dfs: &Dfs) -> PetriImage {
    let mut img = PetriImage {
        net: PetriNet::new(),
        logic_places: HashMap::new(),
        marking_places: HashMap::new(),
        value_places: HashMap::new(),
        labels: Vec::new(),
    };

    // --- places ---
    for n in dfs.nodes() {
        let node = dfs.node(n);
        let name = &node.name;
        match node.kind {
            NodeKind::Logic => {
                let c0 = img.net.add_place(format!("C_{name}_0"), true);
                let c1 = img.net.add_place(format!("C_{name}_1"), false);
                img.logic_places.insert(n, (c0, c1));
            }
            kind => {
                let marked = node.initial.is_marked();
                let m0 = img.net.add_place(format!("M_{name}_0"), !marked);
                let m1 = img.net.add_place(format!("M_{name}_1"), marked);
                img.marking_places.insert(n, (m0, m1));
                if kind.is_dynamic() {
                    let v = node.initial.value();
                    let is_true = marked && v == Some(TokenValue::True);
                    let is_false = marked && v == Some(TokenValue::False);
                    let mt0 = img.net.add_place(format!("Mt_{name}_0"), !is_true);
                    let mt1 = img.net.add_place(format!("Mt_{name}_1"), is_true);
                    let mf0 = img.net.add_place(format!("Mf_{name}_0"), !is_false);
                    let mf1 = img.net.add_place(format!("Mf_{name}_1"), is_false);
                    img.value_places.insert(n, ((mt0, mt1), (mf0, mf1)));
                }
            }
        }
    }

    // --- transitions ---
    let mut tx = Tx { dfs, img: &mut img };
    for n in dfs.nodes() {
        let node = dfs.node(n);
        let name = node.name.clone();
        match node.kind {
            NodeKind::Logic => {
                let (c0, c1) = tx.img.logic_places[&n];
                let plus = tx.transition(&format!("C_{name}+"), None);
                tx.img.net.consume(plus, c0);
                tx.img.net.produce(plus, c1);
                for e in dfs.preds(n) {
                    match dfs.kind(e.node) {
                        NodeKind::Logic => tx.read_active(plus, e.node),
                        NodeKind::Push => tx.read_true_marked(plus, e.node),
                        _ => tx.read_marked(plus, e.node),
                    }
                }
                let minus = tx.transition(&format!("C_{name}-"), None);
                tx.img.net.consume(minus, c1);
                tx.img.net.produce(minus, c0);
                for e in dfs.preds(n) {
                    match dfs.kind(e.node) {
                        NodeKind::Logic => tx.read_inactive(minus, e.node),
                        NodeKind::Push => tx.read_not_true_marked(minus, e.node),
                        _ => tx.read_unmarked(minus, e.node),
                    }
                }
            }
            NodeKind::Register => {
                let plus = tx.transition(&format!("M_{name}+"), None);
                tx.flip_plain(plus, n, true);
                tx.reads_mark_core(plus, n);
                let minus = tx.transition(&format!("M_{name}-"), None);
                tx.flip_plain(minus, n, false);
                tx.reads_unmark_core(minus, n);
            }
            NodeKind::Control => {
                let sources: Vec<RRef> = dfs
                    .r_preset(n)
                    .iter()
                    .copied()
                    .filter(|r| dfs.kind(r.node) == NodeKind::Control)
                    .collect();
                let mode = dfs.guard_mode(n);
                if sources.is_empty() {
                    // free choice: both variants, mark_core reads only
                    tx.valued_mark_transitions(n, TokenValue::True, &[], mode, MarkCondition::Full);
                    tx.valued_mark_transitions(
                        n,
                        TokenValue::False,
                        &[],
                        mode,
                        MarkCondition::Full,
                    );
                } else {
                    tx.valued_mark_transitions(
                        n,
                        TokenValue::True,
                        &sources,
                        mode,
                        MarkCondition::Full,
                    );
                    tx.valued_mark_transitions(
                        n,
                        TokenValue::False,
                        &sources,
                        mode,
                        MarkCondition::Full,
                    );
                }
                for v in [TokenValue::True, TokenValue::False] {
                    let base = if v == TokenValue::True {
                        format!("Mt_{name}-")
                    } else {
                        format!("Mf_{name}-")
                    };
                    let t = tx.transition(&base, None);
                    tx.flip_valued(t, n, v, false);
                    tx.reads_unmark_core(t, n);
                }
            }
            NodeKind::Push => {
                let guards = dfs.guards(n).to_vec();
                let mode = dfs.guard_mode(n);
                if guards.is_empty() {
                    tx.valued_mark_transitions(n, TokenValue::True, &[], mode, MarkCondition::Full);
                } else {
                    tx.valued_mark_transitions(
                        n,
                        TokenValue::True,
                        &guards,
                        mode,
                        MarkCondition::Full,
                    );
                    // consume-and-destroy ignores the R-postset
                    tx.valued_mark_transitions(
                        n,
                        TokenValue::False,
                        &guards,
                        mode,
                        MarkCondition::PresetOnly,
                    );
                }
                // true release: full unmark_core
                let t = tx.transition(&format!("Mt_{name}-"), None);
                tx.flip_valued(t, n, TokenValue::True, false);
                tx.reads_unmark_core(t, n);
                // false release: destroy — preset withdrawn only
                let t = tx.transition(&format!("Mf_{name}-"), None);
                tx.flip_valued(t, n, TokenValue::False, false);
                for e in dfs.preds(n) {
                    if dfs.kind(e.node) == NodeKind::Logic {
                        tx.read_inactive(t, e.node);
                    }
                }
                for q in dedup_nodes(dfs.r_preset(n)) {
                    if dfs.kind(q) == NodeKind::Push {
                        tx.read_not_true_marked(t, q);
                    } else {
                        tx.read_unmarked(t, q);
                    }
                }
            }
            NodeKind::Pop => {
                let guards = dfs.guards(n).to_vec();
                let mode = dfs.guard_mode(n);
                if guards.is_empty() {
                    tx.valued_mark_transitions(n, TokenValue::True, &[], mode, MarkCondition::Full);
                } else {
                    tx.valued_mark_transitions(
                        n,
                        TokenValue::True,
                        &guards,
                        mode,
                        MarkCondition::Full,
                    );
                    // false production: guard presence and empty R-postset
                    tx.valued_mark_transitions(
                        n,
                        TokenValue::False,
                        &guards,
                        mode,
                        MarkCondition::GuardAndEmptyPostset,
                    );
                }
                let t = tx.transition(&format!("Mt_{name}-"), None);
                tx.flip_valued(t, n, TokenValue::True, false);
                tx.reads_unmark_core(t, n);
                // false release: guards gone, downstream took the token
                let t = tx.transition(&format!("Mf_{name}-"), None);
                tx.flip_valued(t, n, TokenValue::False, false);
                for g in &guards {
                    tx.read_unmarked(t, g.node);
                }
                for q in dedup_nodes(dfs.r_postset(n)) {
                    if dfs.kind(q) == NodeKind::Pop {
                        tx.read_true_marked(t, q);
                    } else {
                        tx.read_marked(t, q);
                    }
                }
            }
        }
    }

    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfsBuilder;
    use rap_petri::reachability::{explore, ExploreConfig};

    #[test]
    fn logic_node_translation_matches_fig3a() {
        let mut b = DfsBuilder::new();
        let r = b.register("r").marked().build();
        let l = b.logic("l").build();
        b.connect(r, l);
        let dfs = b.finish().unwrap();
        let img = to_petri(&dfs);
        // places: M_r_0, M_r_1, C_l_0, C_l_1
        assert_eq!(img.net.place_count(), 4);
        let cl1 = img.net.place_by_name("C_l_1").unwrap();
        let plus = img.net.transition_by_name("C_l+").unwrap();
        assert_eq!(img.net.transition(plus).produces(), &[cl1]);
        // C_l+ reads M_r_1
        let mr1 = img.net.place_by_name("M_r_1").unwrap();
        assert_eq!(img.net.transition(plus).reads(), &[mr1]);
        assert_eq!(img.label(plus), "C_l+");
    }

    #[test]
    fn control_register_translation_matches_fig3c() {
        let mut b = DfsBuilder::new();
        let i = b.register("in").marked().build();
        let c = b.control("c").build();
        b.connect(i, c);
        let dfs = b.finish().unwrap();
        let img = to_petri(&dfs);
        // control without sources: free choice Mt_c+/Mf_c+, both exist
        assert!(img.net.transition_by_name("Mt_c+").is_some());
        assert!(img.net.transition_by_name("Mf_c+").is_some());
        assert!(img.net.transition_by_name("Mt_c-").is_some());
        assert!(img.net.transition_by_name("Mf_c-").is_some());
        // value places exist and start empty (complement marked)
        let mt1 = img.net.place_by_name("Mt_c_1").unwrap();
        let mt0 = img.net.place_by_name("Mt_c_0").unwrap();
        assert!(!img.net.initial_marking().is_marked(mt1));
        assert!(img.net.initial_marking().is_marked(mt0));
    }

    #[test]
    fn initial_marking_reflects_m0() {
        use crate::node::TokenValue;
        let mut b = DfsBuilder::new();
        let c = b.control("c").marked_with(TokenValue::False).build();
        let e = b.register("r").build();
        b.connect(c, e);
        let dfs = b.finish().unwrap();
        let img = to_petri(&dfs);
        let m0 = img.net.initial_marking();
        assert!(m0.is_marked(img.net.place_by_name("M_c_1").unwrap()));
        assert!(m0.is_marked(img.net.place_by_name("Mf_c_1").unwrap()));
        assert!(!m0.is_marked(img.net.place_by_name("Mt_c_1").unwrap()));
        assert!(m0.is_marked(img.net.place_by_name("M_r_0").unwrap()));
    }

    #[test]
    fn complementary_pairs_hold_over_reachable_space() {
        // closed ring with a control choice — exercise dynamic transitions
        let mut b = DfsBuilder::new();
        let i = b.register("in").marked().build();
        let f = b.logic("cond").build();
        let c = b.control("ctrl").build();
        let g = b.logic("ret").build();
        b.connect(i, f);
        b.connect(f, c);
        b.connect(c, g);
        b.connect(g, i);
        let dfs = b.finish().unwrap();
        let img = to_petri(&dfs);
        let space = explore(&img.net, ExploreConfig::default()).unwrap();
        let pairs = img.complementary_pairs();
        assert!(rap_petri::analysis::check_complementary_pairs(&space, &pairs).is_none());
    }

    #[test]
    fn complementary_pairs_come_in_a_fixed_order() {
        let p = crate::pipelines::build_pipeline(
            &crate::pipelines::PipelineSpec::reconfigurable_depth(3, 2).unwrap(),
        )
        .unwrap();
        let pairs = to_petri(&p.dfs).complementary_pairs();
        // every translation lists the same pairs in the same order (each
        // one builds its maps under a fresh hasher seed)
        for _ in 0..8 {
            assert_eq!(to_petri(&p.dfs).complementary_pairs(), pairs);
        }
        // by node, then C/M/Mt/Mf: each pair's places are adjacent, and
        // the pairs ascend
        assert!(pairs.iter().all(|(p0, p1)| p1.index() == p0.index() + 1));
        assert!(pairs.windows(2).all(|w| w[0].1 < w[1].0));
    }

    #[test]
    fn induced_symmetry_survives_the_translation() {
        use crate::wagging::wagged_pipeline;
        let w = wagged_pipeline(2, 1, 1.0).unwrap();
        let img = to_petri(&w.dfs);
        let sym = img
            .induced_symmetry(&w.way_rotation)
            .expect("way rotation must induce a net automorphism");
        assert_eq!(sym.order(), 2);
        // the translation's complementary-pair set is closed under it, so
        // quotient 1-safety verdicts are transferable
        assert!(sym.pairs_closed(&img.complementary_pairs()));
        // a malformed permutation is rejected
        let mut broken = w.way_rotation.clone();
        broken.swap(0, 1);
        assert!(img.induced_symmetry(&broken).is_err());
    }
}

//! Translation of DFS models into 1-safe Petri nets with read arcs (Fig. 3).
//!
//! Every state variable becomes a complementary pair of places `x_0`/`x_1`
//! with `x+`/`x-` transitions between them. Dynamic registers additionally
//! get `Mt_x`/`Mf_x` *value places*, and their `M_x+`/`M_x-` transitions are
//! refined into mutually exclusive `Mt_x±`/`Mf_x±` pairs (Fig. 3c).
//!
//! The transitions are read off the model's firing rule (eqs. (1)–(5), see
//! [`mod@crate::semantics`]), one per clause, in the rule's order: the
//! clause's own literal becomes the flip of its node's places, every other
//! literal a read arc of the place it names. The clauses of a value one
//! witness guard decides give transitions named `x~k`, `k` the witness.
//!
//! The translation is behaviour-preserving: the reachable LTS of the net
//! (labelled by base transition names) is bisimilar to the LTS of the direct
//! semantics — this is checked by the `bisimulation` integration test on a
//! corpus of models including Fig. 1b and on random models.

use crate::graph::Dfs;
use crate::node::{NodeId, NodeKind, TokenValue};
use crate::semantics::{Event, Pred};
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

/// Offset, from its node's first place, of the place a literal reads: a
/// node's places are its `C` or `M` pair, then for a dynamic register its
/// `Mt` and `Mf` pairs, each `x_0` before `x_1`.
fn offset(pred: Pred) -> usize {
    match pred {
        Pred::Inactive | Pred::Unmarked => 0,
        Pred::Active | Pred::Marked => 1,
        Pred::NotTrueMarked => 2,
        Pred::TrueMarked => 3,
        Pred::FalseMarked => 5,
    }
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
    let mut first = Vec::with_capacity(dfs.node_count());
    for n in dfs.nodes() {
        first.push(img.net.place_count());
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
    let place = |n: NodeId, offset: usize| PlaceId::from_index(first[n.index()] + offset);

    // --- transitions: one per clause of the firing rule ---
    let rule = dfs.rule();
    for e in rule.events() {
        let n = e.event.node();
        for (k, clause) in rule.clauses(e).enumerate() {
            let value = match (e.event, clause.own().pred) {
                (Event::Mark(_, v), _) => v,
                (_, Pred::FalseMarked) => TokenValue::False,
                _ => TokenValue::True,
            };
            let label = dfs.label(e.event, value);
            let name = if e.witnessed {
                format!("{label}~{k}")
            } else {
                label.clone()
            };
            let t = img.net.add_transition(name);
            img.labels.push(label);
            // the own literal flips the node's pair and a dynamic
            // register's value pair
            let value_pair = if value == TokenValue::True { 2 } else { 4 };
            let pairs = std::iter::once(0).chain(dfs.kind(n).is_dynamic().then_some(value_pair));
            for at in pairs {
                let (from, to) = if e.event.is_plus() {
                    (at, at + 1)
                } else {
                    (at + 1, at)
                };
                img.net.consume(t, place(n, from));
                img.net.produce(t, place(n, to));
            }
            for lit in clause.reads() {
                img.net.read(t, place(lit.node, offset(lit.pred)));
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

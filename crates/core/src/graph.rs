//! The DFS graph: `DFS = ⟨V, E, M0⟩` with derived R-presets/R-postsets.
//!
//! A [`Dfs`] is immutable once built (see [`crate::DfsBuilder`]); all derived
//! structure — R-presets, R-postsets, guards — is computed at build time so
//! the simulators and analysers run over plain index lookups, and the
//! firing rule stated over them ([`mod@crate::semantics`]) on first use.

use crate::node::{Node, NodeId, NodeKind};
use crate::semantics::Rule;
use crate::DfsError;
use std::collections::HashMap;
use std::sync::OnceLock;

/// How a node combines the values of several control guards.
///
/// The paper's base model requires unanimity (a True/False mismatch disables
/// the node — a verifiable error condition, §II-B). The `And`/`Or` modes
/// implement the Boolean-algebra extension mentioned (and deferred) by the
/// paper: token synchronisation with AND/OR semantics instead of C-element
/// unanimity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GuardMode {
    /// All guards must agree; a mismatch disables the node (C-element
    /// semantics). This is the paper's base behaviour.
    #[default]
    Unanimous,
    /// The node is true-controlled iff *all* guards are true (AND).
    And,
    /// The node is true-controlled iff *any* guard is true (OR).
    Or,
}

/// An edge endpoint with the inversion parity accumulated along the logic
/// path (inverting arcs are part of the Boolean-algebra extension; parity is
/// `false` everywhere in base-model graphs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RRef {
    /// The register at the far end of the logic path.
    pub node: NodeId,
    /// XOR of edge inversions along the path.
    pub inverted: bool,
}

/// A direct edge endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// The adjacent node.
    pub node: NodeId,
    /// Whether this arc inverts the token value it conveys.
    pub inverted: bool,
}

/// An immutable dataflow structure.
#[derive(Debug, Clone)]
pub struct Dfs {
    pub(crate) nodes: Vec<Node>,
    pub(crate) preds: Vec<Vec<EdgeRef>>,
    pub(crate) succs: Vec<Vec<EdgeRef>>,
    pub(crate) guard_modes: Vec<GuardMode>,
    /// `?x` — registers with a logic path into `x`.
    pub(crate) r_preset: Vec<Vec<RRef>>,
    /// `x?` — registers reachable from `x` through a logic path.
    pub(crate) r_postset: Vec<Vec<RRef>>,
    /// Control registers in `?x`, for non-control `x`: the node's guards.
    pub(crate) guards: Vec<Vec<RRef>>,
    pub(crate) name_index: HashMap<String, NodeId>,
    /// The firing rule (eqs. (1)–(5)), derived on first use.
    pub(crate) rule: OnceLock<Rule>,
}

impl Dfs {
    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// The node record for `n`.
    #[must_use]
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n.index()]
    }

    /// The kind of `n` (shorthand for `self.node(n).kind`).
    #[must_use]
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.nodes[n.index()].kind
    }

    /// Finds a node by name.
    #[must_use]
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// Direct predecessors (`•x`).
    #[must_use]
    pub fn preds(&self, n: NodeId) -> &[EdgeRef] {
        &self.preds[n.index()]
    }

    /// Direct successors (`x•`).
    #[must_use]
    pub fn succs(&self, n: NodeId) -> &[EdgeRef] {
        &self.succs[n.index()]
    }

    /// R-preset `?x`: registers with a logic path to `x`.
    #[must_use]
    pub fn r_preset(&self, n: NodeId) -> &[RRef] {
        &self.r_preset[n.index()]
    }

    /// R-postset `x?`: registers reachable from `x` via a logic path.
    #[must_use]
    pub fn r_postset(&self, n: NodeId) -> &[RRef] {
        &self.r_postset[n.index()]
    }

    /// Control registers guarding `n` (empty for control nodes themselves —
    /// their upstream controls are value sources, not guards).
    #[must_use]
    pub fn guards(&self, n: NodeId) -> &[RRef] {
        &self.guards[n.index()]
    }

    /// The guard combination mode of `n`.
    #[must_use]
    pub fn guard_mode(&self, n: NodeId) -> GuardMode {
        self.guard_modes[n.index()]
    }

    /// Number of edges in the graph.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// All register nodes.
    pub fn registers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| self.kind(n).is_register())
    }

    /// All logic nodes.
    pub fn logic_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&n| self.kind(n) == NodeKind::Logic)
    }

    /// Total number of initial tokens.
    #[must_use]
    pub fn initial_token_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.initial.is_marked()).count()
    }

    /// Validates structural well-formedness; called by the builder.
    ///
    /// # Errors
    ///
    /// * [`DfsError::CombinationalCycle`] — a cycle through logic nodes only.
    /// * [`DfsError::MarkedLogic`] — a logic node with an initial token.
    /// * [`DfsError::BadDelay`] — a negative or non-finite delay.
    pub fn validate(&self) -> Result<(), DfsError> {
        for n in self.nodes() {
            let node = self.node(n);
            if node.kind == NodeKind::Logic && node.initial.is_marked() {
                return Err(DfsError::MarkedLogic {
                    node: node.name.clone(),
                });
            }
            if !node.delay.is_finite() || node.delay < 0.0 {
                return Err(DfsError::BadDelay {
                    node: node.name.clone(),
                    delay: node.delay,
                });
            }
        }
        // combinational cycle detection: DFS over logic-only subgraph
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks = vec![Mark::White; self.nodes.len()];
        let mut stack: Vec<(NodeId, usize)> = Vec::new();
        for start in self.logic_nodes() {
            if marks[start.index()] != Mark::White {
                continue;
            }
            marks[start.index()] = Mark::Grey;
            stack.push((start, 0));
            while let Some(&mut (n, ref mut next)) = stack.last_mut() {
                let succs = &self.succs[n.index()];
                let mut advanced = false;
                while *next < succs.len() {
                    let s = succs[*next].node;
                    *next += 1;
                    if self.kind(s) != NodeKind::Logic {
                        continue;
                    }
                    match marks[s.index()] {
                        Mark::Grey => {
                            return Err(DfsError::CombinationalCycle {
                                node: self.node(s).name.clone(),
                            })
                        }
                        Mark::White => {
                            marks[s.index()] = Mark::Grey;
                            stack.push((s, 0));
                            advanced = true;
                            break;
                        }
                        Mark::Black => {}
                    }
                }
                if !advanced && stack.last().map(|&(m, _)| m) == Some(n) {
                    marks[n.index()] = Mark::Black;
                    stack.pop();
                }
            }
        }
        Ok(())
    }

    /// Computes the derived R-relations; called by the builder.
    pub(crate) fn compute_derived(&mut self) {
        let count = self.nodes.len();
        self.r_preset = (0..count)
            .map(|i| self.trace_registers(NodeId::from_index(i), Direction::Backward))
            .collect();
        self.r_postset = (0..count)
            .map(|i| self.trace_registers(NodeId::from_index(i), Direction::Forward))
            .collect();
        self.guards = (0..count)
            .map(|i| {
                let n = NodeId::from_index(i);
                if self.kind(n) == NodeKind::Control {
                    Vec::new()
                } else {
                    self.r_preset[i]
                        .iter()
                        .copied()
                        .filter(|r| self.kind(r.node) == NodeKind::Control)
                        .collect()
                }
            })
            .collect();
    }

    /// Registers reachable from `start` through logic paths in the given
    /// direction, with inversion parity. If two paths with different parity
    /// exist, the register appears once per parity.
    fn trace_registers(&self, start: NodeId, dir: Direction) -> Vec<RRef> {
        let mut out: Vec<RRef> = Vec::new();
        let mut visited: Vec<(NodeId, bool)> = Vec::new();
        let mut stack: Vec<(NodeId, bool)> = self
            .neighbours(start, dir)
            .iter()
            .map(|e| (e.node, e.inverted))
            .collect();
        while let Some((n, parity)) = stack.pop() {
            if self.kind(n).is_register() {
                if !out.iter().any(|r| r.node == n && r.inverted == parity) {
                    out.push(RRef {
                        node: n,
                        inverted: parity,
                    });
                }
                continue;
            }
            if visited.contains(&(n, parity)) {
                continue;
            }
            visited.push((n, parity));
            for e in self.neighbours(n, dir) {
                stack.push((e.node, parity ^ e.inverted));
            }
        }
        out.sort_by_key(|r| (r.node, r.inverted));
        out
    }

    fn neighbours(&self, n: NodeId, dir: Direction) -> &[EdgeRef] {
        match dir {
            Direction::Forward => &self.succs[n.index()],
            Direction::Backward => &self.preds[n.index()],
        }
    }
}

#[derive(Clone, Copy)]
enum Direction {
    Forward,
    Backward,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfsBuilder;
    use crate::node::TokenValue;

    /// in -> cond(logic) -> ctrl; in -> filt(push); ctrl guards filt.
    fn fig1b_fragment() -> Dfs {
        let mut b = DfsBuilder::new();
        let input = b.register("in").marked().build();
        let cond = b.logic("cond").build();
        let ctrl = b.control("ctrl").build();
        let filt = b.push("filt").build();
        b.connect(input, cond);
        b.connect(cond, ctrl);
        b.connect(input, filt);
        b.connect(ctrl, filt);
        b.finish().unwrap()
    }

    #[test]
    fn r_preset_traverses_logic_paths() {
        let dfs = fig1b_fragment();
        let ctrl = dfs.node_by_name("ctrl").unwrap();
        let input = dfs.node_by_name("in").unwrap();
        let filt = dfs.node_by_name("filt").unwrap();
        // ?ctrl = {in} (through cond)
        let rp: Vec<NodeId> = dfs.r_preset(ctrl).iter().map(|r| r.node).collect();
        assert_eq!(rp, vec![input]);
        // ?filt = {in, ctrl}
        let rp: Vec<NodeId> = dfs.r_preset(filt).iter().map(|r| r.node).collect();
        assert!(rp.contains(&input) && rp.contains(&ctrl));
        // in? = {ctrl, filt}
        let rs: Vec<NodeId> = dfs.r_postset(input).iter().map(|r| r.node).collect();
        assert!(rs.contains(&ctrl) && rs.contains(&filt));
    }

    #[test]
    fn guards_are_control_registers_in_r_preset() {
        let dfs = fig1b_fragment();
        let filt = dfs.node_by_name("filt").unwrap();
        let ctrl = dfs.node_by_name("ctrl").unwrap();
        let guards: Vec<NodeId> = dfs.guards(filt).iter().map(|r| r.node).collect();
        assert_eq!(guards, vec![ctrl]);
        // a control register's own upstream controls are value sources,
        // not guards
        assert!(dfs.guards(ctrl).is_empty());
    }

    #[test]
    fn combinational_cycle_is_rejected() {
        let mut b = DfsBuilder::new();
        let l1 = b.logic("l1").build();
        let l2 = b.logic("l2").build();
        b.connect(l1, l2);
        b.connect(l2, l1);
        assert!(matches!(
            b.finish(),
            Err(DfsError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn cycle_through_register_is_fine() {
        let mut b = DfsBuilder::new();
        let l1 = b.logic("l1").build();
        let r = b.register("r").marked().build();
        b.connect(l1, r);
        b.connect(r, l1);
        assert!(b.finish().is_ok());
    }

    #[test]
    fn inversion_parity_propagates_through_logic() {
        let mut b = DfsBuilder::new();
        let c = b.control("c").marked_with(TokenValue::True).build();
        let l = b.logic("l").build();
        let p = b.push("p").build();
        b.connect_inverted(c, l);
        b.connect(l, p);
        let dfs = b.finish().unwrap();
        let p = dfs.node_by_name("p").unwrap();
        assert_eq!(dfs.guards(p).len(), 1);
        assert!(dfs.guards(p)[0].inverted);
    }

    #[test]
    fn marked_logic_is_rejected() {
        let mut b = DfsBuilder::new();
        let _ = b.logic("l").marked().build();
        assert!(matches!(b.finish(), Err(DfsError::MarkedLogic { .. })));
    }

    #[test]
    fn edge_and_token_counts() {
        let dfs = fig1b_fragment();
        assert_eq!(dfs.edge_count(), 4);
        assert_eq!(dfs.initial_token_count(), 1);
        assert_eq!(dfs.registers().count(), 3);
        assert_eq!(dfs.logic_nodes().count(), 1);
    }
}

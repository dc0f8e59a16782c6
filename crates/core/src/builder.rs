//! Fluent construction of DFS graphs.
//!
//! ```
//! use dfs_core::DfsBuilder;
//!
//! let mut b = DfsBuilder::new();
//! let input = b.register("in").marked().build();
//! let f = b.logic("f").delay(2.0).build();
//! let out = b.register("out").build();
//! b.connect(input, f);
//! b.connect(f, out);
//! let dfs = b.finish()?;
//! assert_eq!(dfs.node_count(), 3);
//! # Ok::<(), dfs_core::DfsError>(())
//! ```

use crate::graph::{Dfs, EdgeRef, GuardMode};
use crate::node::{InitialMarking, Node, NodeId, NodeKind, TokenValue};
use crate::DfsError;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Incremental builder for [`Dfs`] graphs.
#[derive(Debug, Default)]
pub struct DfsBuilder {
    nodes: Vec<Node>,
    guard_modes: Vec<GuardMode>,
    edges: Vec<(NodeId, NodeId, bool)>,
    names: HashMap<String, NodeId>,
    duplicate: Option<String>,
}

/// Per-node configuration returned by the node-creation methods of
/// [`DfsBuilder`]; call [`NodeBuilder::build`] to obtain the [`NodeId`].
#[derive(Debug)]
pub struct NodeBuilder<'a> {
    owner: &'a mut DfsBuilder,
    id: NodeId,
}

impl<'a> NodeBuilder<'a> {
    /// Places a plain token on the node initially.
    #[must_use]
    pub fn marked(self) -> Self {
        self.owner.nodes[self.id.index()].initial = InitialMarking::Marked;
        self
    }

    /// Places a valued token on the node initially (dynamic registers).
    #[must_use]
    pub fn marked_with(self, value: TokenValue) -> Self {
        self.owner.nodes[self.id.index()].initial = InitialMarking::MarkedWith(value);
        self
    }

    /// Sets the node latency (default 1.0).
    #[must_use]
    pub fn delay(self, delay: f64) -> Self {
        self.owner.nodes[self.id.index()].delay = delay;
        self
    }

    /// Sets how multiple guards combine (default: unanimous).
    #[must_use]
    pub fn guard_mode(self, mode: GuardMode) -> Self {
        self.owner.guard_modes[self.id.index()] = mode;
        self
    }

    /// Finishes this node, returning its id.
    #[must_use]
    pub fn build(self) -> NodeId {
        self.id
    }
}

impl DfsBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        DfsBuilder::default()
    }

    fn add(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeBuilder<'_> {
        let name = name.into();
        let id = NodeId::from_index(self.nodes.len());
        if self.names.insert(name.clone(), id).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(name.clone());
        }
        self.nodes.push(Node {
            name,
            kind,
            initial: InitialMarking::Empty,
            delay: 1.0,
        });
        self.guard_modes.push(GuardMode::default());
        NodeBuilder { owner: self, id }
    }

    /// Adds a combinational logic node.
    pub fn logic(&mut self, name: impl Into<String>) -> NodeBuilder<'_> {
        self.add(name, NodeKind::Logic)
    }

    /// Adds a static register node.
    pub fn register(&mut self, name: impl Into<String>) -> NodeBuilder<'_> {
        self.add(name, NodeKind::Register)
    }

    /// Adds a control register node.
    pub fn control(&mut self, name: impl Into<String>) -> NodeBuilder<'_> {
        self.add(name, NodeKind::Control)
    }

    /// Adds a push register node.
    pub fn push(&mut self, name: impl Into<String>) -> NodeBuilder<'_> {
        self.add(name, NodeKind::Push)
    }

    /// Adds a pop register node.
    pub fn pop(&mut self, name: impl Into<String>) -> NodeBuilder<'_> {
        self.add(name, NodeKind::Pop)
    }

    /// Connects `from → to`.
    pub fn connect(&mut self, from: NodeId, to: NodeId) {
        self.edges.push((from, to, false));
    }

    /// Connects `from → to` with an inverting arc (control-value inversion;
    /// part of the Boolean-algebra extension).
    pub fn connect_inverted(&mut self, from: NodeId, to: NodeId) {
        self.edges.push((from, to, true));
    }

    /// Connects a chain of nodes in sequence.
    pub fn connect_chain(&mut self, nodes: &[NodeId]) {
        for w in nodes.windows(2) {
            self.connect(w[0], w[1]);
        }
    }

    /// Validates and finalises the graph.
    ///
    /// # Errors
    ///
    /// Propagates [`DfsError::DuplicateName`] and the structural checks of
    /// [`Dfs::validate`].
    pub fn finish(self) -> Result<Dfs, DfsError> {
        if let Some(name) = self.duplicate {
            return Err(DfsError::DuplicateName(name));
        }
        let count = self.nodes.len();
        let mut preds: Vec<Vec<EdgeRef>> = vec![Vec::new(); count];
        let mut succs: Vec<Vec<EdgeRef>> = vec![Vec::new(); count];
        for (from, to, inverted) in self.edges {
            let fwd = EdgeRef { node: to, inverted };
            let bwd = EdgeRef {
                node: from,
                inverted,
            };
            if !succs[from.index()].contains(&fwd) {
                succs[from.index()].push(fwd);
                preds[to.index()].push(bwd);
            }
        }
        for list in preds.iter_mut().chain(succs.iter_mut()) {
            list.sort_by_key(|e| (e.node, e.inverted));
        }
        let mut dfs = Dfs {
            nodes: self.nodes,
            preds,
            succs,
            guard_modes: self.guard_modes,
            r_preset: Vec::new(),
            r_postset: Vec::new(),
            guards: Vec::new(),
            name_index: self.names,
            rule: OnceLock::new(),
        };
        dfs.validate()?;
        dfs.compute_derived();
        Ok(dfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_names_are_reported() {
        let mut b = DfsBuilder::new();
        let _ = b.register("x").build();
        let _ = b.logic("x").build();
        assert_eq!(b.finish().unwrap_err(), DfsError::DuplicateName("x".into()));
    }

    #[test]
    fn chain_connects_pairwise() {
        let mut b = DfsBuilder::new();
        let a = b.register("a").marked().build();
        let l = b.logic("l").build();
        let c = b.register("c").build();
        b.connect_chain(&[a, l, c]);
        let dfs = b.finish().unwrap();
        assert_eq!(dfs.edge_count(), 2);
        let l = dfs.node_by_name("l").unwrap();
        assert_eq!(dfs.preds(l).len(), 1);
        assert_eq!(dfs.succs(l).len(), 1);
    }

    #[test]
    fn parallel_duplicate_edges_collapse() {
        let mut b = DfsBuilder::new();
        let a = b.register("a").build();
        let c = b.register("c").build();
        b.connect(a, c);
        b.connect(a, c);
        let dfs = b.finish().unwrap();
        assert_eq!(dfs.edge_count(), 1);
    }

    #[test]
    fn delay_and_guard_mode_are_stored() {
        use crate::graph::GuardMode;
        let mut b = DfsBuilder::new();
        let p = b.push("p").delay(3.5).guard_mode(GuardMode::And).build();
        let dfs = b.finish().unwrap();
        assert_eq!(dfs.node(p).delay, 3.5);
        assert_eq!(dfs.guard_mode(p), GuardMode::And);
    }

    #[test]
    fn bad_delay_is_rejected() {
        let mut b = DfsBuilder::new();
        let _ = b.register("r").delay(-1.0).build();
        assert!(matches!(b.finish(), Err(DfsError::BadDelay { .. })));
    }
}

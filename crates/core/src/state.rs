//! Global state of a DFS model during execution.

use crate::graph::Dfs;
use crate::node::{NodeId, NodeKind, TokenValue};

/// A snapshot of all node state variables.
///
/// * `C(l)` — evaluation state of each logic node (eq. (1)/(3));
/// * `M(r)` — marking of each register (eq. (2)/(4));
/// * the token value of each dynamic register (`Mt`/`Mf`, eqs. (4)/(5)).
///
/// Values of unmarked registers are canonicalised to [`TokenValue::True`] so
/// that state hashing does not distinguish states that differ only in stale
/// values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DfsState {
    /// Indexed by node: `C` for logic nodes, `M` for registers.
    pub(crate) active: Vec<bool>,
    /// Indexed by node: token value (meaningful only for marked dynamic
    /// registers).
    pub(crate) value: Vec<TokenValue>,
}

impl DfsState {
    /// The initial state of `dfs` (all logic reset, registers per `M0`).
    #[must_use]
    pub fn initial(dfs: &Dfs) -> Self {
        let mut active = vec![false; dfs.node_count()];
        let mut value = vec![TokenValue::True; dfs.node_count()];
        for n in dfs.nodes() {
            let node = dfs.node(n);
            if node.initial.is_marked() {
                active[n.index()] = true;
                if let Some(v) = node.initial.value() {
                    value[n.index()] = v;
                }
            }
        }
        DfsState { active, value }
    }

    /// Is logic node `l` evaluated (`C(l)`)?
    ///
    /// Also answers `M(r)` for registers — the two share storage.
    #[must_use]
    pub fn is_active(&self, n: NodeId) -> bool {
        self.active[n.index()]
    }

    /// Is register `r` marked (`M(r)`)? Alias of [`DfsState::is_active`]
    /// with register-flavoured naming.
    #[must_use]
    pub fn is_marked(&self, r: NodeId) -> bool {
        self.active[r.index()]
    }

    /// The token value of a *marked* dynamic register; `None` when unmarked.
    #[must_use]
    pub fn token_value(&self, r: NodeId) -> Option<TokenValue> {
        if self.active[r.index()] {
            Some(self.value[r.index()])
        } else {
            None
        }
    }

    /// `Mt(r)`: marked with a True token (eq. (4)).
    #[must_use]
    pub fn is_true_marked(&self, r: NodeId) -> bool {
        self.active[r.index()] && self.value[r.index()] == TokenValue::True
    }

    /// `Mf(r)`: marked with a False token.
    #[must_use]
    pub fn is_false_marked(&self, r: NodeId) -> bool {
        self.active[r.index()] && self.value[r.index()] == TokenValue::False
    }

    /// Number of marked registers (logic excluded).
    #[must_use]
    pub fn token_count(&self, dfs: &Dfs) -> usize {
        dfs.registers().filter(|&r| self.is_marked(r)).count()
    }

    pub(crate) fn set_marked(&mut self, n: NodeId, v: TokenValue) {
        self.active[n.index()] = true;
        self.value[n.index()] = v;
    }

    pub(crate) fn clear(&mut self, n: NodeId) {
        self.active[n.index()] = false;
        // canonicalise stale values so hashing ignores them
        self.value[n.index()] = TokenValue::True;
    }

    /// Renders the state compactly for debugging: marked registers with
    /// their values, evaluated logic nodes.
    #[must_use]
    pub fn describe(&self, dfs: &Dfs) -> String {
        let mut parts = Vec::new();
        for n in dfs.nodes() {
            if !self.active[n.index()] {
                continue;
            }
            let node = dfs.node(n);
            match node.kind {
                NodeKind::Logic => parts.push(format!("C[{}]", node.name)),
                NodeKind::Register => parts.push(format!("M[{}]", node.name)),
                _ => parts.push(format!(
                    "{}[{}]",
                    if self.value[n.index()] == TokenValue::True {
                        "Mt"
                    } else {
                        "Mf"
                    },
                    node.name
                )),
            }
        }
        parts.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfsBuilder;

    #[test]
    fn initial_state_reflects_m0() {
        let mut b = DfsBuilder::new();
        let r = b.register("r").marked().build();
        let c = b.control("c").marked_with(TokenValue::False).build();
        let e = b.register("e").build();
        let l = b.logic("l").build();
        b.connect(r, l);
        b.connect(l, e);
        let dfs = b.finish().unwrap();
        let s = DfsState::initial(&dfs);
        assert!(s.is_marked(r));
        assert!(s.is_false_marked(c));
        assert!(!s.is_marked(e));
        assert!(!s.is_active(dfs.node_by_name("l").unwrap()));
        assert_eq!(s.token_count(&dfs), 2);
        assert_eq!(s.describe(&dfs), "M[r] Mf[c]");
    }

    #[test]
    fn clearing_canonicalises_value() {
        let mut b = DfsBuilder::new();
        let c = b.control("c").marked_with(TokenValue::False).build();
        let dfs = b.finish().unwrap();
        let mut s = DfsState::initial(&dfs);
        let mut t = s.clone();
        s.clear(c);
        t.clear(c);
        t.set_marked(c, TokenValue::False);
        t.clear(c);
        assert_eq!(s, t);
        assert_eq!(s.token_value(c), None);
    }
}

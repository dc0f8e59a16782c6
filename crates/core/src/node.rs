//! Node kinds of the DFS model (Fig. 2 of the paper).

use std::fmt;

/// Identifier of a node within a [`crate::Dfs`] graph.
///
/// Dense indices in insertion order, meaningful only for the owning graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index of the node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a raw index previously obtained via
    /// [`NodeId::index`].
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The five DFS node types (Fig. 2): the two *static* kinds inherited from
/// SDFS, and the three *dynamic* register kinds that model reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Combinational dataflow component (eq. (1)).
    Logic,
    /// Sequential dataflow component holding at most one token (eq. (2)).
    Register,
    /// Register whose token carries a Boolean value; guards other nodes
    /// (eq. (5)).
    Control,
    /// Register that consumes-and-destroys its token when false-controlled.
    Push,
    /// Register that produces an "empty" token when false-controlled.
    Pop,
}

impl NodeKind {
    /// Is this one of the register kinds (everything except [`Logic`])?
    ///
    /// [`Logic`]: NodeKind::Logic
    #[must_use]
    pub fn is_register(self) -> bool {
        !matches!(self, NodeKind::Logic)
    }

    /// Is this one of the dynamic kinds introduced by the DFS extension
    /// (control, push, pop)?
    #[must_use]
    pub fn is_dynamic(self) -> bool {
        matches!(self, NodeKind::Control | NodeKind::Push | NodeKind::Pop)
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeKind::Logic => "logic",
            NodeKind::Register => "register",
            NodeKind::Control => "control",
            NodeKind::Push => "push",
            NodeKind::Pop => "pop",
        };
        f.write_str(s)
    }
}

/// The Boolean carried by a dynamic register's token.
///
/// For control registers this is the guard value; for push/pop registers
/// [`TokenValue::True`] means "received while true-controlled — behaving as a
/// static register" (the paper's `Mt`), and [`TokenValue::False`] means the
/// token is being destroyed (push) or is an empty bypass token (pop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TokenValue {
    /// `Mt` — true / static-behaving token.
    True,
    /// `Mf` — false / bypass token.
    False,
}

impl TokenValue {
    /// Boolean view of the value.
    #[must_use]
    pub fn as_bool(self) -> bool {
        matches!(self, TokenValue::True)
    }

    /// Logical negation (used by inverting guard arcs).
    #[must_use]
    pub fn negate(self) -> Self {
        match self {
            TokenValue::True => TokenValue::False,
            TokenValue::False => TokenValue::True,
        }
    }
}

impl From<bool> for TokenValue {
    fn from(b: bool) -> Self {
        if b {
            TokenValue::True
        } else {
            TokenValue::False
        }
    }
}

impl fmt::Display for TokenValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.as_bool() { "True" } else { "False" })
    }
}

/// Initial token state of a register node (the `M0` component of
/// `DFS = ⟨V, E, M0⟩`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitialMarking {
    /// No token.
    Empty,
    /// A plain token (static registers).
    Marked,
    /// A valued token (dynamic registers; e.g. a control loop initialised
    /// with `True` to include a pipeline stage, `False` to exclude it).
    MarkedWith(TokenValue),
}

impl InitialMarking {
    /// Does this initial state carry a token?
    #[must_use]
    pub fn is_marked(self) -> bool {
        !matches!(self, InitialMarking::Empty)
    }

    /// The token value, defaulting to `True` for plain markings (a marked
    /// static register behaves like a true-marked dynamic one).
    #[must_use]
    pub fn value(self) -> Option<TokenValue> {
        match self {
            InitialMarking::Empty => None,
            InitialMarking::Marked => Some(TokenValue::True),
            InitialMarking::MarkedWith(v) => Some(v),
        }
    }
}

/// A DFS node: name, kind, initial marking and a latency used by the timed
/// simulator and the performance analyser (Fig. 5).
#[derive(Debug, Clone)]
pub struct Node {
    /// Unique name within the graph.
    pub name: String,
    /// Which of the five kinds this node is.
    pub kind: NodeKind,
    /// Initial token (registers only; `Empty` for logic).
    pub initial: InitialMarking,
    /// Latency of the node in arbitrary time units (the tool lets designers
    /// annotate per-node delays; defaults to 1.0).
    pub delay: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification() {
        assert!(!NodeKind::Logic.is_register());
        assert!(NodeKind::Register.is_register());
        assert!(NodeKind::Push.is_register());
        assert!(!NodeKind::Register.is_dynamic());
        assert!(NodeKind::Control.is_dynamic());
        assert!(NodeKind::Pop.is_dynamic());
    }

    #[test]
    fn token_value_conversions() {
        assert!(TokenValue::from(true).as_bool());
        assert!(!TokenValue::from(false).as_bool());
        assert_eq!(TokenValue::True.negate(), TokenValue::False);
        assert_eq!(TokenValue::True.to_string(), "True");
    }

    #[test]
    fn initial_marking_values() {
        assert_eq!(InitialMarking::Empty.value(), None);
        assert_eq!(InitialMarking::Marked.value(), Some(TokenValue::True));
        assert_eq!(
            InitialMarking::MarkedWith(TokenValue::False).value(),
            Some(TokenValue::False)
        );
        assert!(InitialMarking::Marked.is_marked());
        assert!(!InitialMarking::Empty.is_marked());
    }

    #[test]
    fn ids_roundtrip_and_display() {
        let n = NodeId::from_index(12);
        assert_eq!(n.index(), 12);
        assert_eq!(n.to_string(), "n12");
        assert_eq!(NodeKind::Push.to_string(), "push");
    }
}

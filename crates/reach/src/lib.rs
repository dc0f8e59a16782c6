//! A Reach-style property language for Petri-net reachability queries.
//!
//! The DATE'18 paper verifies custom functional properties of DFS models
//! (e.g. "no node ever sees both a True and a False control token") by
//! passing Reach-language predicates to the MPSAT backend. This crate
//! provides the equivalent facility for the `rap-petri` explorer: a small
//! boolean predicate language over markings, with glob-based quantifiers.
//!
//! # Syntax
//!
//! ```text
//! expr    := iff
//! iff     := imp ( "<->" imp )*
//! imp     := or ( "->" or )*          (right associative)
//! or      := xor ( "|" xor )*
//! xor     := and ( "^" and )*
//! and     := not ( "&" not )*
//! not     := "!" not | atom
//! atom    := "true" | "false"
//!          | "marked" "(" name-or-var ")"
//!          | "enabled" "(" name-or-var ")"
//!          | "forall" IDENT "in" set ":" not
//!          | "exists" IDENT "in" set ":" not
//!          | "(" expr ")"
//! set     := "places" "(" STRING ")" | "transitions" "(" STRING ")"
//! ```
//!
//! Names are double-quoted strings; the argument of `places`/`transitions`
//! is a glob pattern (`*` matches any run of characters, `?` a single one).
//! Quantifier bodies follow the `not` production, so parenthesise compound
//! bodies: `forall p in places("Mt_*"): (marked(p) -> !marked(p))`.
//!
//! # Example
//!
//! ```
//! use rap_petri::PetriNet;
//! use rap_reach::Predicate;
//!
//! let mut net = PetriNet::new();
//! net.add_place("Mt_ctrl_1", true);
//! net.add_place("Mf_ctrl_1", false);
//! let pred = Predicate::parse(r#"marked("Mt_ctrl_1") & marked("Mf_ctrl_1")"#)?;
//! let compiled = pred.compile(&net)?;
//! assert!(!compiled.eval(&net, &net.initial_marking()));
//! # Ok::<(), rap_reach::ReachError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod compile;
mod glob;
mod lexer;
mod parser;

pub use ast::{Expr, NameRef, SetKind};
pub use compile::CompiledPredicate;
pub use glob::glob_match;

use rap_petri::reachability::{StateId, StateSpace};
use rap_petri::{PetriNet, TransitionId};
use std::error::Error;
use std::fmt;

/// A parsed (but not yet name-resolved) Reach predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct Predicate {
    pub(crate) root: Expr,
}

impl Predicate {
    /// Parses the textual form of a predicate.
    ///
    /// # Errors
    ///
    /// Returns [`ReachError`] with a byte offset on lexical or syntax
    /// errors, and [`ReachError::TooDeep`] for predicates nested past 256
    /// levels (operators, atoms and parenthesised groups along one path).
    pub fn parse(src: &str) -> Result<Self, ReachError> {
        parser::parse(src).map(|root| Predicate { root })
    }

    /// Resolves all names against `net`, expanding quantifiers.
    ///
    /// # Errors
    ///
    /// Fails when a literal place/transition name does not exist in `net`,
    /// or a quantified variable is used with the wrong atom kind.
    pub fn compile(&self, net: &PetriNet) -> Result<CompiledPredicate, ReachError> {
        compile::compile(&self.root, net)
    }
}

/// A predicate built as a syntax tree rather than parsed from text: no
/// quoting of names, so any place name is a valid literal.
impl From<Expr> for Predicate {
    fn from(root: Expr) -> Self {
        Predicate { root }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.root)
    }
}

/// A state satisfying a predicate, with its witness trace.
#[derive(Debug, Clone)]
pub struct Witness {
    /// The satisfying state (the representative, on a quotient).
    pub state: StateId,
    /// Firing sequence from the initial marking to the satisfying marking.
    pub trace: Vec<TransitionId>,
}

/// Searches `space` for a state satisfying `pred` (compiled against `net`).
///
/// Returns the first satisfying state in BFS order — i.e. a shortest-trace
/// witness — or `None` when no explored marking satisfies it. Each state is
/// judged by its concrete marking ([`StateSpace::concrete_marking`]), so
/// every witness is reachable and its trace replays on `net`. A quotient
/// holds one concrete member of each orbit: there `None` proves the
/// predicate unreachable only when it is closed under the symmetry.
#[must_use]
pub fn find_witness(
    net: &PetriNet,
    space: &StateSpace,
    pred: &CompiledPredicate,
) -> Option<Witness> {
    let state = space
        .states()
        .find(|&s| pred.eval(net, &space.concrete_marking(s)))?;
    Some(Witness {
        state,
        trace: space.concrete_trace_to(state),
    })
}

/// Errors from parsing or compiling a predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachError {
    /// A character that cannot start a token, at the given byte offset.
    UnexpectedChar {
        /// Byte offset into the source.
        offset: usize,
        /// The offending character.
        ch: char,
    },
    /// A token that does not fit the grammar.
    UnexpectedToken {
        /// Byte offset into the source.
        offset: usize,
        /// Human-readable description of what was found.
        found: String,
        /// What the parser expected.
        expected: &'static str,
    },
    /// The source ended in the middle of an expression.
    UnexpectedEnd,
    /// A literal name was not found in the net.
    UnknownName {
        /// The name that failed to resolve.
        name: String,
        /// `"place"` or `"transition"`.
        kind: &'static str,
    },
    /// A quantified variable was used in the wrong atom (e.g. a
    /// `transitions(..)` variable inside `marked(..)`).
    KindMismatch {
        /// The variable name.
        var: String,
    },
    /// A variable was referenced without being bound by a quantifier.
    UnboundVariable {
        /// The variable name.
        var: String,
    },
    /// The predicate nests deeper than the parser's bound: operators,
    /// atoms and parenthesised groups along one path exceed `limit` levels.
    TooDeep {
        /// The bound, in levels.
        limit: usize,
    },
}

impl fmt::Display for ReachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReachError::UnexpectedChar { offset, ch } => {
                write!(f, "unexpected character `{ch}` at offset {offset}")
            }
            ReachError::UnexpectedToken {
                offset,
                found,
                expected,
            } => write!(f, "expected {expected} at offset {offset}, found {found}"),
            ReachError::UnexpectedEnd => write!(f, "unexpected end of input"),
            ReachError::UnknownName { name, kind } => {
                write!(f, "unknown {kind} name `{name}`")
            }
            ReachError::KindMismatch { var } => {
                write!(f, "variable `{var}` used with the wrong atom kind")
            }
            ReachError::UnboundVariable { var } => write!(f, "unbound variable `{var}`"),
            ReachError::TooDeep { limit } => {
                write!(f, "predicate nests deeper than {limit} levels")
            }
        }
    }
}

impl Error for ReachError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_petri::reachability::{explore_quotient_truncated, ExploreConfig};
    use rap_petri::symmetry::Symmetry;

    /// Two one-shot chains `a0 -> b0` and `a1 -> b1`, swapped by the
    /// symmetry, with only `a1` marked: the quotient's representatives are
    /// `{a0}` and `{b0}`, the reachable markings `{a1}` and `{b1}`. A
    /// witness must be reachable and replay.
    #[test]
    fn quotient_witnesses_are_reachable_and_replay() {
        let mut net = PetriNet::new();
        let a0 = net.add_place("a0", false);
        let b0 = net.add_place("b0", false);
        let a1 = net.add_place("a1", true);
        let b1 = net.add_place("b1", false);
        for (from, to) in [(a0, b0), (a1, b1)] {
            let t = net.add_transition(format!("t{}", to.index()));
            net.consume(t, from);
            net.produce(t, to);
        }
        let sym = Symmetry::new(&net, vec![2, 3, 0, 1]).unwrap();
        let space =
            explore_quotient_truncated(&net, ExploreConfig::default(), &sym.state_symmetry());
        let witness = |place: &str| {
            let pred = Predicate::parse(&format!("marked(\"{place}\")")).unwrap();
            find_witness(&net, &space, &pred.compile(&net).unwrap())
        };
        let w = witness("b1").expect("t1 marks b1");
        let mut m = net.initial_marking();
        for &t in &w.trace {
            m = net.fire(t, &m).expect("the witness trace replays");
        }
        assert!(m.is_marked(b1));
        assert!(witness("b0").is_none(), "b0 is never marked");
    }
}

//! Error type for DFS construction, analysis and verification.

use std::error::Error;
use std::fmt;

/// Errors reported by `dfs-core` APIs.
#[derive(Debug, Clone, PartialEq)]
pub enum DfsError {
    /// Two nodes were given the same name.
    DuplicateName(String),
    /// A cycle passing only through logic nodes (combinational feedback).
    CombinationalCycle {
        /// A node on the cycle.
        node: String,
    },
    /// A logic node was given an initial token.
    MarkedLogic {
        /// The offending node.
        node: String,
    },
    /// A delay annotation is negative or not finite.
    BadDelay {
        /// The offending node.
        node: String,
        /// The rejected value.
        delay: f64,
    },
    /// A named node does not exist.
    UnknownNode(String),
    /// A pipeline (or other generator) specification is degenerate — e.g.
    /// zero stages, a configured depth of 0 or beyond the stage count, or
    /// an empty/mis-sized per-stage delay vector.
    InvalidSpec {
        /// What is wrong with the specification.
        reason: String,
    },
    /// The state-space exploration behind a verification query exceeded its
    /// budget.
    StateBudgetExceeded {
        /// Configured maximum number of states.
        budget: usize,
    },
    /// Performance analysis needs at least one register with a token on
    /// every cycle; this cycle has none (its throughput is zero).
    TokenFreeCycle {
        /// Names of the registers on the offending cycle.
        cycle: Vec<String>,
    },
    /// A DSL parse error with line number and message.
    Dsl {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The timed simulation stalled before producing the requested output
    /// tokens (a deadlock under the chosen control values).
    SimulationStalled {
        /// Simulated time at which no event was pending.
        time: f64,
        /// Output tokens produced before the stall.
        produced: u64,
    },
    /// The timed simulator found no steady-state recurrence within its
    /// token budget (non-periodic scheduling policy, or budget too small).
    NoSteadyState {
        /// Watched tokens produced while searching.
        marks: u64,
    },
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            DfsError::CombinationalCycle { node } => {
                write!(f, "combinational cycle through logic node `{node}`")
            }
            DfsError::MarkedLogic { node } => {
                write!(f, "logic node `{node}` cannot carry an initial token")
            }
            DfsError::BadDelay { node, delay } => {
                write!(f, "node `{node}` has invalid delay {delay}")
            }
            DfsError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            DfsError::InvalidSpec { reason } => write!(f, "invalid specification: {reason}"),
            DfsError::StateBudgetExceeded { budget } => {
                write!(f, "state space exceeds the budget of {budget} states")
            }
            DfsError::TokenFreeCycle { cycle } => {
                write!(f, "cycle without tokens: {}", cycle.join(" -> "))
            }
            DfsError::Dsl { line, message } => write!(f, "DSL error at line {line}: {message}"),
            DfsError::SimulationStalled { time, produced } => write!(
                f,
                "simulation stalled at t={time} after {produced} output tokens"
            ),
            DfsError::NoSteadyState { marks } => {
                write!(f, "no steady-state recurrence within {marks} output tokens")
            }
        }
    }
}

impl Error for DfsError {}

impl From<rap_petri::PetriError> for DfsError {
    fn from(e: rap_petri::PetriError) -> Self {
        match e {
            rap_petri::PetriError::StateBudgetExceeded { budget } => {
                DfsError::StateBudgetExceeded { budget }
            }
            other => DfsError::Dsl {
                line: 0,
                message: format!("internal Petri-net error: {other}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = DfsError::CombinationalCycle {
            node: "mixer".into(),
        };
        assert!(e.to_string().contains("mixer"));
        let e = DfsError::TokenFreeCycle {
            cycle: vec!["a".into(), "b".into()],
        };
        assert_eq!(e.to_string(), "cycle without tokens: a -> b");
    }
}

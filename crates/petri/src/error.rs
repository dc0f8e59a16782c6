//! Error type for net construction and firing.

use crate::TransitionId;
use std::error::Error;
use std::fmt;

/// Errors reported by [`crate::PetriNet`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PetriError {
    /// A transition was fired while not enabled in the given marking.
    NotEnabled(TransitionId),
    /// Two places (or two transitions) were given the same name.
    DuplicateName(String),
    /// Firing would place a second token into a 1-safe place.
    SafetyViolation {
        /// The transition whose firing violated 1-safety.
        transition: TransitionId,
    },
    /// The state-space exploration exceeded its configured state budget.
    StateBudgetExceeded {
        /// The configured maximum number of states.
        budget: usize,
    },
    /// The state-space exploration ran past its wall-clock deadline.
    DeadlineExpired {
        /// The configured deadline.
        deadline: std::time::Duration,
    },
    /// A symmetry handed to a reduced exploration does not fit the net: it
    /// is not an automorphism, or the 1-safety pair set is not closed under
    /// it.
    InvalidSymmetry {
        /// Why the symmetry was refused.
        reason: String,
    },
}

impl fmt::Display for PetriError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PetriError::NotEnabled(t) => write!(f, "transition {t} is not enabled"),
            PetriError::DuplicateName(n) => write!(f, "duplicate node name `{n}`"),
            PetriError::SafetyViolation { transition } => {
                write!(f, "firing {transition} violates 1-safety")
            }
            PetriError::StateBudgetExceeded { budget } => {
                write!(f, "state space exceeds the budget of {budget} states")
            }
            PetriError::DeadlineExpired { deadline } => {
                write!(
                    f,
                    "state-space exploration ran past its deadline of {deadline:?}"
                )
            }
            PetriError::InvalidSymmetry { reason } => write!(f, "invalid symmetry: {reason}"),
        }
    }
}

impl Error for PetriError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = PetriError::NotEnabled(TransitionId::from_index(1));
        assert_eq!(e.to_string(), "transition t1 is not enabled");
        let e = PetriError::StateBudgetExceeded { budget: 10 };
        assert!(e.to_string().contains("10"));
        let e = PetriError::DeadlineExpired {
            deadline: std::time::Duration::from_millis(5),
        };
        assert!(e.to_string().contains("deadline of 5ms"), "{e}");
    }
}

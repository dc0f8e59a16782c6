//! Gate primitives: NCL threshold gates, C-elements and Boolean gates.
//!
//! NULL Convention Logic (Fant & Brandt, cited as \[16\]) builds circuits
//! from *threshold gates with hysteresis*: a `THmn` gate has `n` inputs and
//! threshold `m`; its output switches to 1 when at least `m` inputs are 1,
//! switches to 0 only when **all** inputs are 0, and otherwise *holds* its
//! previous value. The hysteresis is what makes NCL circuits
//! delay-insensitive: a gate "remembers" that its inputs formed a complete
//! DATA wave until the NULL wave arrives. A C-element is the special case
//! `m = n`.

use std::fmt;

/// The primitive cell types of the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// NCL threshold gate: output ↑ when ≥ `threshold` inputs are 1,
    /// ↓ when all inputs are 0, holds otherwise. `Th { threshold: n }`
    /// over `n` inputs is a C-element.
    Th {
        /// How many asserted inputs switch the gate on.
        threshold: u8,
    },
    /// Muller C-element (explicit kind for readability in netlists; behaves
    /// as `Th` with threshold = fan-in).
    C,
    /// Combinational AND.
    And,
    /// Combinational OR.
    Or,
    /// Combinational XOR (parity).
    Xor,
    /// Inverter (single input).
    Not,
    /// Buffer (single input).
    Buf,
    /// Constant 0 (no inputs).
    TieLow,
    /// Constant 1 (no inputs).
    TieHigh,
}

impl GateKind {
    /// Does this gate hold state (threshold gates and C-elements)?
    #[must_use]
    pub fn has_hysteresis(self) -> bool {
        matches!(self, GateKind::Th { .. } | GateKind::C)
    }

    /// Evaluates the gate.
    ///
    /// `current` is the present output value (relevant only for gates with
    /// hysteresis).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty for a gate that needs inputs, or not a
    /// singleton for `Not`/`Buf`.
    #[must_use]
    pub fn eval(self, inputs: &[bool], current: bool) -> bool {
        let ones = || inputs.iter().filter(|&&b| b).count();
        match self {
            GateKind::Th { threshold } => {
                let m = threshold as usize;
                assert!(
                    !inputs.is_empty() && m >= 1 && m <= inputs.len(),
                    "TH gate threshold {m} out of range for {} inputs",
                    inputs.len()
                );
                let count = ones();
                if count >= m {
                    true
                } else if count == 0 {
                    false
                } else {
                    current
                }
            }
            GateKind::C => {
                assert!(!inputs.is_empty(), "C-element needs inputs");
                let count = ones();
                if count == inputs.len() {
                    true
                } else if count == 0 {
                    false
                } else {
                    current
                }
            }
            GateKind::And => !inputs.is_empty() && inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().filter(|&&b| b).count() % 2 == 1,
            GateKind::Not => {
                assert_eq!(inputs.len(), 1, "NOT takes one input");
                !inputs[0]
            }
            GateKind::Buf => {
                assert_eq!(inputs.len(), 1, "BUF takes one input");
                inputs[0]
            }
            GateKind::TieLow => false,
            GateKind::TieHigh => true,
        }
    }

    /// Relative drive cost of the gate (used to scale per-switch energy and
    /// delay: larger gates switch more internal capacitance). Unit = a
    /// 2-input NAND-equivalent.
    #[must_use]
    pub fn complexity(self, fan_in: usize) -> f64 {
        match self {
            GateKind::Th { .. } | GateKind::C => 1.0 + 0.5 * fan_in as f64,
            GateKind::And | GateKind::Or => 0.5 + 0.25 * fan_in as f64,
            GateKind::Xor => 1.0 + 0.5 * fan_in as f64,
            GateKind::Not | GateKind::Buf => 0.5,
            GateKind::TieLow | GateKind::TieHigh => 0.0,
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateKind::Th { threshold } => write!(f, "TH{threshold}"),
            GateKind::C => write!(f, "C"),
            GateKind::And => write!(f, "AND"),
            GateKind::Or => write!(f, "OR"),
            GateKind::Xor => write!(f, "XOR"),
            GateKind::Not => write!(f, "NOT"),
            GateKind::Buf => write!(f, "BUF"),
            GateKind::TieLow => write!(f, "TIE0"),
            GateKind::TieHigh => write!(f, "TIE1"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn th23_hysteresis() {
        let g = GateKind::Th { threshold: 2 };
        // rises at 2 of 3
        assert!(!g.eval(&[true, false, false], false));
        assert!(g.eval(&[true, true, false], false));
        // holds at 1 of 3 when already high
        assert!(g.eval(&[true, false, false], true));
        // falls only at 0 of 3
        assert!(!g.eval(&[false, false, false], true));
    }

    #[test]
    fn c_element_is_thnn() {
        let c = GateKind::C;
        let t = GateKind::Th { threshold: 2 };
        for a in [false, true] {
            for b in [false, true] {
                for cur in [false, true] {
                    assert_eq!(c.eval(&[a, b], cur), t.eval(&[a, b], cur));
                }
            }
        }
    }

    #[test]
    fn boolean_gates() {
        assert!(GateKind::And.eval(&[true, true], false));
        assert!(!GateKind::And.eval(&[true, false], true));
        assert!(GateKind::Or.eval(&[false, true], false));
        assert!(GateKind::Xor.eval(&[true, true, true], false));
        assert!(!GateKind::Xor.eval(&[true, true], false));
        assert!(!GateKind::Not.eval(&[true], false));
        assert!(GateKind::Buf.eval(&[true], false));
        assert!(!GateKind::TieLow.eval(&[], true));
        assert!(GateKind::TieHigh.eval(&[], false));
    }

    #[test]
    fn complexity_scales_with_fanin() {
        assert!(
            GateKind::C.complexity(4) > GateKind::C.complexity(2),
            "wider C-elements cost more"
        );
        assert_eq!(GateKind::TieLow.complexity(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_threshold_panics() {
        let _ = GateKind::Th { threshold: 4 }.eval(&[true, true], false);
    }
}

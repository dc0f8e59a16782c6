//! Voltage-dependent delay model and supply-voltage profiles.
//!
//! The fabricated chip "is fully asynchronous and can therefore operate in
//! a wide range of voltages, dynamically adapting its speed" (§IV). The
//! standard first-order model for CMOS gate delay versus supply voltage is
//! the **alpha-power law**:
//!
//! ```text
//! d(V) = d0 · (V/V0) · ((V0 − Vt) / (V − Vt))^α
//! ```
//!
//! with `V0` the nominal supply (1.2 V for the paper's TSMC 90nm LP
//! process), `Vt` an effective threshold voltage and `α` the velocity
//! saturation exponent. Below a freeze voltage the circuit stops making
//! progress — the paper observed the chip freezing at 0.34 V and resuming
//! when the supply was raised (Fig. 9b); we model this as unbounded delay.

/// Alpha-power-law delay model.
#[derive(Debug, Clone, Copy)]
pub struct DelayModel {
    /// Nominal supply voltage (V).
    pub v0: f64,
    /// Effective threshold voltage (V).
    pub vt: f64,
    /// Velocity-saturation exponent.
    pub alpha: f64,
    /// Supply below which no progress is made (the paper's 0.34 V).
    pub v_freeze: f64,
}

impl Default for DelayModel {
    /// Calibrated for the Fig. 9a curve shape: computation time ≈ 10× at
    /// 0.5 V and ≈ 0.6× at 1.6 V, both relative to 1.2 V (see
    /// `DESIGN.md` §6).
    fn default() -> Self {
        DelayModel {
            v0: 1.2,
            vt: 0.33,
            alpha: 2.0,
            v_freeze: 0.34,
        }
    }
}

impl DelayModel {
    /// The delay scaling factor at supply `v` relative to the nominal
    /// voltage: `d(v)/d(v0)`. Returns `f64::INFINITY` at or below the
    /// freeze voltage.
    #[must_use]
    pub fn factor(&self, v: f64) -> f64 {
        if v <= self.v_freeze || v <= self.vt {
            return f64::INFINITY;
        }
        (v / self.v0) * ((self.v0 - self.vt) / (v - self.vt)).powf(self.alpha)
    }

    /// Is the circuit frozen at supply `v`?
    #[must_use]
    pub fn is_frozen(&self, v: f64) -> bool {
        v <= self.v_freeze
    }
}

/// A (possibly time-varying) supply-voltage waveform.
#[derive(Debug, Clone)]
pub enum VoltageProfile {
    /// Constant supply.
    Constant(f64),
    /// Piecewise-constant: `(start_time, voltage)` steps, sorted by time.
    /// Before the first step the first voltage applies.
    Steps(Vec<(f64, f64)>),
}

impl VoltageProfile {
    /// The supply voltage at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if a `Steps` profile is empty.
    #[must_use]
    pub fn at(&self, t: f64) -> f64 {
        match self {
            VoltageProfile::Constant(v) => *v,
            VoltageProfile::Steps(steps) => {
                assert!(!steps.is_empty(), "empty voltage profile");
                let mut v = steps[0].1;
                for &(start, volt) in steps {
                    if t >= start {
                        v = volt;
                    } else {
                        break;
                    }
                }
                v
            }
        }
    }

    /// The earliest time `≥ t` at which the supply exceeds `v_min`, or
    /// `None` if it never does again. Used by the simulator to park events
    /// while the circuit is frozen and resume them on recovery — the
    /// Fig. 9b behaviour.
    #[must_use]
    pub fn next_time_above(&self, v_min: f64, t: f64) -> Option<f64> {
        match self {
            VoltageProfile::Constant(v) => (*v > v_min).then_some(t),
            VoltageProfile::Steps(steps) => {
                if self.at(t) > v_min {
                    return Some(t);
                }
                steps
                    .iter()
                    .find(|&&(start, volt)| start > t && volt > v_min)
                    .map(|&(start, _)| start)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_factor_is_one() {
        let m = DelayModel::default();
        assert!((m.factor(1.2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calibrated_shape_matches_fig9a() {
        let m = DelayModel::default();
        let at_05 = m.factor(0.5);
        let at_16 = m.factor(1.6);
        assert!(
            (6.0..20.0).contains(&at_05),
            "0.5 V should be roughly 10x slower, got {at_05}"
        );
        assert!(
            (0.4..0.8).contains(&at_16),
            "1.6 V should be moderately faster, got {at_16}"
        );
        // monotone: lower voltage, slower
        assert!(m.factor(0.6) > m.factor(0.8));
        assert!(m.factor(0.8) > m.factor(1.0));
    }

    #[test]
    fn freeze_threshold() {
        let m = DelayModel::default();
        assert!(m.is_frozen(0.34));
        assert!(!m.is_frozen(0.35));
        assert!(m.factor(0.30).is_infinite());
    }

    #[test]
    fn step_profile_lookup() {
        let p = VoltageProfile::Steps(vec![(0.0, 0.5), (10.0, 0.4), (20.0, 0.34), (30.0, 0.5)]);
        assert_eq!(p.at(5.0), 0.5);
        assert_eq!(p.at(10.0), 0.4);
        assert_eq!(p.at(25.0), 0.34);
        assert_eq!(p.at(35.0), 0.5);
    }

    #[test]
    fn recovery_time_is_found() {
        let p = VoltageProfile::Steps(vec![(0.0, 0.5), (20.0, 0.34), (30.0, 0.5)]);
        // frozen at t=25 (0.34 V), recovers at t=30
        assert_eq!(p.next_time_above(0.34, 25.0), Some(30.0));
        // already above
        assert_eq!(p.next_time_above(0.34, 5.0), Some(5.0));
        let dead = VoltageProfile::Constant(0.3);
        assert_eq!(dead.next_time_above(0.34, 0.0), None);
    }
}

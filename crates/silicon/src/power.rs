//! Energy model: dynamic (switching) and static (leakage) components.
//!
//! * Each output transition switches an effective capacitance proportional
//!   to the gate's complexity: `E_switch(V) = e0 · complexity · (V/V0)²`
//!   (the `C·V²` law).
//! * Leakage power grows with supply roughly exponentially in the
//!   subthreshold regime; a simple `P_leak(V) = p0 · (V/V0) · e^{(V−V0)/vk}`
//!   fit captures the measured floor of Fig. 9b (the flat ~µW consumption
//!   while the circuit idles at 0.5 V and below).
//!
//! The absolute constants are calibrated in `rap-ope` so that the static
//! OPE pipeline at 1.2 V reproduces the paper's reference measurement
//! (1.22 s, 2.74 mJ for 16M items).

/// Energy/power model parameters.
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel {
    /// Nominal supply (V).
    pub v0: f64,
    /// Energy per unit-complexity output transition at `v0` (J).
    pub e_switch0: f64,
    /// Leakage power of the whole circuit at `v0` (W) per unit area.
    pub p_leak0: f64,
    /// Exponential voltage sensitivity of leakage (V).
    pub vk: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            v0: 1.2,
            e_switch0: 1.0e-15, // 1 fJ per NAND-equivalent transition
            p_leak0: 1.0e-9,    // 1 nW per NAND-equivalent of area
            vk: 0.5,
        }
    }
}

impl EnergyModel {
    /// Energy of one output transition of a gate with the given complexity
    /// at supply `v`.
    #[must_use]
    pub fn switch_energy(&self, complexity: f64, v: f64) -> f64 {
        self.e_switch0 * complexity * (v / self.v0).powi(2)
    }

    /// Leakage power of a circuit of the given total area at supply `v`.
    #[must_use]
    pub fn leakage_power(&self, area: f64, v: f64) -> f64 {
        self.p_leak0 * area * (v / self.v0) * ((v - self.v0) / self.vk).exp()
    }
}

/// A sampled power trace (for the Fig. 9b plot).
#[derive(Debug, Clone, Default)]
pub struct PowerTrace {
    /// Sample instants.
    pub time: Vec<f64>,
    /// Average power over the preceding sampling interval (W).
    pub power: Vec<f64>,
    /// Supply voltage at the sample instant (V).
    pub voltage: Vec<f64>,
}

impl PowerTrace {
    /// Appends a sample.
    pub fn push(&mut self, time: f64, power: f64, voltage: f64) {
        self.time.push(time);
        self.power.push(power);
        self.voltage.push(voltage);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Is the trace empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// The peak power sample.
    #[must_use]
    pub fn peak(&self) -> Option<(f64, f64)> {
        self.power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &p)| (self.time[i], p))
    }

    /// Energy absorbed over the whole trace: the trapezoidal integral of
    /// power over time (J, for traces in seconds and watts).
    ///
    /// Equivalent to [`PowerTrace::energy_between`] over the full time
    /// span; both are the single place energy is derived from a trace —
    /// the DSE cost model and the Fig. 9b experiment use these instead of
    /// re-deriving ad-hoc sums.
    #[must_use]
    pub fn total_energy(&self) -> f64 {
        match (self.time.first(), self.time.last()) {
            (Some(&t0), Some(&t1)) => self.energy_between(t0, t1),
            _ => 0.0,
        }
    }

    /// Energy absorbed between `t0` and `t1` (clamped to the trace's time
    /// span): the trapezoidal integral of the sampled power, with linear
    /// interpolation at the window edges.
    ///
    /// Returns `0.0` for an empty window (`t1 <= t0`) or a trace with
    /// fewer than two samples.
    #[must_use]
    pub fn energy_between(&self, t0: f64, t1: f64) -> f64 {
        if self.time.len() < 2 || t1 <= t0 {
            return 0.0;
        }
        // power at time t by linear interpolation between samples
        let power_at = |t: f64| -> f64 {
            match self.time.iter().position(|&s| s >= t) {
                Some(0) => self.power[0],
                None => *self.power.last().expect("len >= 2"),
                Some(i) => {
                    let (ta, tb) = (self.time[i - 1], self.time[i]);
                    let (pa, pb) = (self.power[i - 1], self.power[i]);
                    if tb > ta {
                        pa + (pb - pa) * (t - ta) / (tb - ta)
                    } else {
                        pb
                    }
                }
            }
        };
        let lo = t0.max(self.time[0]);
        let hi = t1.min(*self.time.last().expect("len >= 2"));
        if hi <= lo {
            return 0.0;
        }
        let mut energy = 0.0;
        let mut prev_t = lo;
        let mut prev_p = power_at(lo);
        for (&t, &p) in self.time.iter().zip(&self.power) {
            if t <= lo {
                continue;
            }
            if t >= hi {
                break;
            }
            energy += 0.5 * (prev_p + p) * (t - prev_t);
            (prev_t, prev_p) = (t, p);
        }
        energy + 0.5 * (prev_p + power_at(hi)) * (hi - prev_t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switching_energy_scales_quadratically() {
        let m = EnergyModel::default();
        let e12 = m.switch_energy(1.0, 1.2);
        let e06 = m.switch_energy(1.0, 0.6);
        assert!((e12 / e06 - 4.0).abs() < 1e-9, "V² law");
        assert!(m.switch_energy(2.0, 1.2) > m.switch_energy(1.0, 1.2));
    }

    #[test]
    fn leakage_grows_with_voltage() {
        let m = EnergyModel::default();
        assert!(m.leakage_power(100.0, 1.2) > m.leakage_power(100.0, 0.5));
        assert!(m.leakage_power(100.0, 0.5) > 0.0);
    }

    /// Hand-computed trapezoids: samples (0,1), (1,3), (3,2) W.
    /// Full integral = ½(1+3)·1 + ½(3+2)·2 = 2 + 5 = 7 J.
    #[test]
    fn energy_integrals_match_hand_computation() {
        let mut t = PowerTrace::default();
        t.push(0.0, 1.0, 1.2);
        t.push(1.0, 3.0, 1.2);
        t.push(3.0, 2.0, 1.2);
        assert!((t.total_energy() - 7.0).abs() < 1e-12);
        // sub-window [1, 3]: ½(3+2)·2 = 5
        assert!((t.energy_between(1.0, 3.0) - 5.0).abs() < 1e-12);
        // interpolated edges: [0.5, 1] has p(0.5) = 2 → ½(2+3)·0.5 = 1.25
        assert!((t.energy_between(0.5, 1.0) - 1.25).abs() < 1e-12);
        // window splitting is additive
        let split = t.energy_between(0.0, 1.7) + t.energy_between(1.7, 3.0);
        assert!((split - 7.0).abs() < 1e-12, "{split}");
        // out-of-span windows clamp; inverted/empty windows are zero
        assert!((t.energy_between(-5.0, 99.0) - 7.0).abs() < 1e-12);
        assert_eq!(t.energy_between(2.0, 2.0), 0.0);
        assert_eq!(t.energy_between(3.0, 1.0), 0.0);
        assert_eq!(PowerTrace::default().total_energy(), 0.0);
    }

    /// A constant-power trace integrates to P·Δt regardless of sampling.
    #[test]
    fn constant_power_energy_is_exact() {
        let mut t = PowerTrace::default();
        for i in 0..11 {
            t.push(f64::from(i) * 0.5, 4.0, 0.9);
        }
        assert!((t.total_energy() - 4.0 * 5.0).abs() < 1e-12);
        assert!((t.energy_between(1.25, 3.75) - 4.0 * 2.5).abs() < 1e-12);
    }

    #[test]
    fn power_trace_peak() {
        let mut t = PowerTrace::default();
        assert!(t.is_empty());
        t.push(0.0, 1.0, 0.5);
        t.push(1.0, 5.0, 0.5);
        t.push(2.0, 2.0, 0.4);
        assert_eq!(t.len(), 3);
        assert_eq!(t.peak(), Some((1.0, 5.0)));
    }
}

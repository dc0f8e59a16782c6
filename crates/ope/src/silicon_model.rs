//! Calibrated chip-scale timing and energy model — the quantitative engine
//! behind the Fig. 9a/9b reproductions.
//!
//! Gate-level simulation of 16M items through an 18-stage dual-rail
//! pipeline is far outside a software budget; the paper's §IV claims are
//! about *aggregate* behaviour, which a stage-level model captures:
//!
//! * **cycle time** = stage datapath delay + stage-synchronisation delay,
//!   all scaled by the alpha-power-law voltage factor. The fabricated
//!   reconfigurable pipeline synchronised stages through a **daisy chain**
//!   of C-elements (linear in the active depth — the measured 36%
//!   overhead); the static pipeline and the proposed fix use a **tree**
//!   (logarithmic — the estimated <10%);
//! * **energy/item** = per-stage switching (linear in depth, quadratic in
//!   voltage) + fixed infrastructure, ×1.05 for the reconfigurable
//!   pipeline's control logic (the measured 5%); plus leakage × time;
//! * constants calibrated so the static pipeline at the nominal 1.2 V
//!   reproduces the paper's reference measurement: **1.22 s / 2.74 mJ for
//!   16M items**.
//!
//! The *shape* of the model (chain vs tree latency, V² energy, leakage
//! floor, freeze) is cross-validated against the gate-level simulator in
//! `rap-silicon` (see the `chain_completion_is_slower_than_tree` test and
//! the voltage tests there); the absolute constants are the paper's.

use rap_silicon::delay::{DelayModel, VoltageProfile};
use rap_silicon::power::PowerTrace;

/// Stage-synchronisation structure (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncStyle {
    /// Linear C-element chain over the active stages — the fabricated
    /// prototype's structure ("inefficient implementation of the
    /// synchronisation between the stages using a daisy-chain C-element
    /// structure").
    DaisyChain,
    /// Balanced C-element tree — the static pipeline's structure and the
    /// proposed improvement ("estimates overhead below 10%").
    Tree,
}

/// Which pipeline is being modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineKind {
    /// The 18-stage static pipeline.
    Static,
    /// The reconfigurable pipeline with `depth` active stages and the
    /// given synchronisation structure.
    Reconfigurable {
        /// Active depth (window size), 3..=18 on the chip.
        depth: usize,
        /// Synchronisation structure.
        sync: SyncStyle,
    },
}

/// The calibrated chip model.
#[derive(Debug, Clone)]
pub struct ChipTimingModel {
    /// Voltage→delay scaling.
    pub delay: DelayModel,
    /// Stage datapath delay at nominal voltage (s).
    pub stage_delay0: f64,
    /// Daisy-chain synchronisation delay per active stage (s).
    pub chain_unit0: f64,
    /// Tree synchronisation delay per ⌈log₂ depth⌉ level (s).
    pub tree_unit0: f64,
    /// Fixed reconfigurable-control latency (s).
    pub ctrl_fixed0: f64,
    /// Per-stage switching energy per item at nominal voltage (J).
    pub stage_energy0: f64,
    /// Fixed per-item infrastructure energy at nominal voltage (J).
    pub base_energy0: f64,
    /// Energy multiplier of the reconfigurable pipeline's control logic
    /// (the measured 5%).
    pub ctrl_energy_factor: f64,
    /// Leakage power at nominal voltage (W).
    pub leak0: f64,
    /// Exponential voltage sensitivity of leakage (V).
    pub leak_vk: f64,
}

/// Number of stages of the static pipeline.
pub const STATIC_DEPTH: usize = 18;

impl Default for ChipTimingModel {
    fn default() -> Self {
        ChipTimingModel::paper_calibrated()
    }
}

impl ChipTimingModel {
    /// Constants calibrated to the paper's reference point (static
    /// pipeline, 1.2 V, 16M items ⇒ 1.22 s and 2.74 mJ) and overheads
    /// (36% time via the daisy chain, 5% energy, <10% with a tree).
    #[must_use]
    pub fn paper_calibrated() -> Self {
        // static cycle: 1.22 s / 16·10⁶ = 76.25 ns
        //   = stage 60 ns + tree sync ⌈log₂ 18⌉ = 5 levels × 3.25 ns
        // reconfigurable daisy chain at depth 18: 36% over 76.25 ns
        //   (including the 5 ns fixed control latency) ⇒ chain_unit ≈ 2.15 ns
        // static energy: 2.74 mJ / 16·10⁶ = 171.25 pJ/item
        //   = base 30 pJ + 18 stages × 7.847 pJ
        ChipTimingModel {
            delay: DelayModel::default(),
            stage_delay0: 60.0e-9,
            chain_unit0: 2.15e-9,
            tree_unit0: 3.25e-9,
            ctrl_fixed0: 5.0e-9,
            stage_energy0: 7.847_22e-12,
            base_energy0: 30.0e-12,
            ctrl_energy_factor: 1.05,
            leak0: 26.6e-6,
            leak_vk: 0.35,
        }
    }

    /// Active depth of `kind`.
    #[must_use]
    pub fn depth(kind: PipelineKind) -> usize {
        match kind {
            PipelineKind::Static => STATIC_DEPTH,
            PipelineKind::Reconfigurable { depth, .. } => depth,
        }
    }

    /// Steady-state cycle time (s/item) at supply `v`; infinite when
    /// frozen.
    #[must_use]
    pub fn cycle_time(&self, kind: PipelineKind, v: f64) -> f64 {
        let factor = self.delay.factor(v);
        let sync = match kind {
            PipelineKind::Static => self.tree_unit0 * ceil_log2(STATIC_DEPTH),
            PipelineKind::Reconfigurable { depth, sync } => {
                self.ctrl_fixed0
                    + match sync {
                        SyncStyle::DaisyChain => self.chain_unit0 * depth as f64,
                        SyncStyle::Tree => self.tree_unit0 * ceil_log2(depth),
                    }
            }
        };
        (self.stage_delay0 + sync) * factor
    }

    /// Total computation time for `items` items (s); infinite when frozen.
    #[must_use]
    pub fn computation_time(&self, kind: PipelineKind, v: f64, items: u64) -> f64 {
        self.cycle_time(kind, v) * items as f64
    }

    /// Dynamic energy per item at supply `v`.
    #[must_use]
    pub fn item_energy(&self, kind: PipelineKind, v: f64) -> f64 {
        let depth = Self::depth(kind) as f64;
        let scale = (v / self.delay.v0).powi(2);
        let ctrl = match kind {
            PipelineKind::Static => 1.0,
            PipelineKind::Reconfigurable { .. } => self.ctrl_energy_factor,
        };
        (self.base_energy0 + self.stage_energy0 * depth) * scale * ctrl
    }

    /// Leakage power at supply `v`.
    #[must_use]
    pub fn leakage_power(&self, v: f64) -> f64 {
        self.leak0 * (v / self.delay.v0) * ((v - self.delay.v0) / self.leak_vk).exp()
    }

    /// Total energy for a constant-voltage run (dynamic + leakage·time);
    /// infinite when frozen.
    #[must_use]
    pub fn energy(&self, kind: PipelineKind, v: f64, items: u64) -> f64 {
        let t = self.computation_time(kind, v, items);
        if !t.is_finite() {
            return f64::INFINITY;
        }
        self.item_energy(kind, v) * items as f64 + self.leakage_power(v) * t
    }

    /// Simulates a run under a time-varying supply, sampling average power
    /// every `dt` seconds — the Fig. 9b experiment. The computation starts
    /// at `start`; before that only leakage is drawn. Returns the trace and
    /// the completion time (`None` when the supply never lets it finish
    /// within `horizon`).
    #[must_use]
    pub fn power_trace(
        &self,
        kind: PipelineKind,
        profile: &VoltageProfile,
        items: u64,
        start: f64,
        horizon: f64,
        dt: f64,
    ) -> (PowerTrace, Option<f64>) {
        let mut trace = PowerTrace::default();
        let mut progress = 0.0f64;
        let mut finished: Option<f64> = None;
        let total = items as f64;
        let mut t = 0.0;
        while t < horizon {
            let v = profile.at(t);
            let leak = self.leakage_power(v);
            let computing = t >= start && finished.is_none();
            let power = if computing && !self.delay.is_frozen(v) {
                let cycle = self.cycle_time(kind, v);
                let rate = 1.0 / cycle;
                let step_items = rate * dt;
                progress += step_items;
                if progress >= total {
                    finished = Some(t + dt);
                }
                self.item_energy(kind, v) * rate + leak
            } else {
                leak
            };
            trace.push(t + dt, power, v);
            t += dt;
        }
        (trace, finished)
    }
}

fn ceil_log2(n: usize) -> f64 {
    (n.max(1) as f64).log2().ceil()
}

#[cfg(test)]
mod tests {
    use super::*;

    const M16: u64 = 16_000_000;

    #[test]
    fn reproduces_the_reference_point() {
        let m = ChipTimingModel::paper_calibrated();
        let t = m.computation_time(PipelineKind::Static, 1.2, M16);
        let e = m.energy(PipelineKind::Static, 1.2, M16);
        assert!((t - 1.22).abs() / 1.22 < 0.01, "time {t} s vs 1.22 s");
        // leakage at nominal adds ~32 µJ on top of 2.74 mJ dynamic
        assert!(
            (e - 2.74e-3).abs() / 2.74e-3 < 0.03,
            "energy {e} J vs 2.74 mJ"
        );
    }

    #[test]
    fn reconfigurable_overheads_match_the_paper() {
        let m = ChipTimingModel::paper_calibrated();
        let t_static = m.computation_time(PipelineKind::Static, 1.2, M16);
        let t_chain = m.computation_time(
            PipelineKind::Reconfigurable {
                depth: 18,
                sync: SyncStyle::DaisyChain,
            },
            1.2,
            M16,
        );
        let overhead = t_chain / t_static - 1.0;
        assert!(
            (0.34..0.38).contains(&overhead),
            "time overhead {overhead} vs paper's 36%"
        );
        let e_static = m.energy(PipelineKind::Static, 1.2, M16);
        let e_rc = m.energy(
            PipelineKind::Reconfigurable {
                depth: 18,
                sync: SyncStyle::DaisyChain,
            },
            1.2,
            M16,
        );
        let e_overhead = e_rc / e_static - 1.0;
        assert!(
            (0.03..0.08).contains(&e_overhead),
            "energy overhead {e_overhead} vs paper's 5%"
        );
        // the proposed tree structure: below 10%
        let t_tree = m.computation_time(
            PipelineKind::Reconfigurable {
                depth: 18,
                sync: SyncStyle::Tree,
            },
            1.2,
            M16,
        );
        let tree_overhead = t_tree / t_static - 1.0;
        assert!(
            tree_overhead < 0.10 && tree_overhead > 0.0,
            "tree overhead {tree_overhead} vs paper's <10% estimate"
        );
    }

    #[test]
    fn voltage_scaling_shape() {
        let m = ChipTimingModel::paper_calibrated();
        let k = PipelineKind::Static;
        // slower but more energy-efficient at lower voltage (§IV)
        let (t05, t12, t16) = (
            m.computation_time(k, 0.5, M16),
            m.computation_time(k, 1.2, M16),
            m.computation_time(k, 1.6, M16),
        );
        assert!(t05 > 6.0 * t12 && t05 < 20.0 * t12, "≈10x slower at 0.5 V");
        assert!(t16 < t12);
        let (e05, e12, e16) = (
            m.energy(k, 0.5, M16),
            m.energy(k, 1.2, M16),
            m.energy(k, 1.6, M16),
        );
        assert!(e05 < 0.4 * e12, "much cheaper at 0.5 V");
        assert!(e16 > e12, "more expensive at 1.6 V");
        // frozen below 0.34 V
        assert!(m.computation_time(k, 0.3, M16).is_infinite());
        assert!(m.energy(k, 0.3, M16).is_infinite());
    }

    #[test]
    fn time_and_energy_scale_linearly_with_depth() {
        let m = ChipTimingModel::paper_calibrated();
        let kind = |d| PipelineKind::Reconfigurable {
            depth: d,
            sync: SyncStyle::DaisyChain,
        };
        for v in [0.5, 0.8, 1.2] {
            let times: Vec<f64> = (3..=18)
                .map(|d| m.computation_time(kind(d), v, M16))
                .collect();
            let diffs: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            let first = diffs[0];
            assert!(
                diffs
                    .iter()
                    .all(|d| (d - first).abs() < 1e-9 * first.abs().max(1.0)),
                "constant increments = linear in depth at {v} V"
            );
        }
        // the slope shrinks as the voltage rises (§IV: "the slope of
        // increment is reverse-proportional to the supply voltage")
        let slope =
            |v: f64| m.computation_time(kind(18), v, M16) - m.computation_time(kind(17), v, M16);
        assert!(slope(0.5) > slope(0.8) && slope(0.8) > slope(1.2));
    }

    #[test]
    fn power_trace_shows_freeze_and_recovery() {
        let m = ChipTimingModel::paper_calibrated();
        let kind = PipelineKind::Reconfigurable {
            depth: 18,
            sync: SyncStyle::DaisyChain,
        };
        // Fig. 9b: start at 0.5 V, step down to 0.34 V (freeze), recover
        let profile =
            VoltageProfile::Steps(vec![(0.0, 0.5), (20.0, 0.45), (35.0, 0.34), (50.0, 0.5)]);
        // pick a count that finishes after recovery
        let items = (30.0 / m.cycle_time(kind, 0.5)) as u64;
        let (trace, finished) = m.power_trace(kind, &profile, items, 5.0, 80.0, 0.1);
        let finish = finished.expect("must complete after recovery");
        assert!(finish > 50.0, "completion only after the supply recovers");
        // during the freeze the power equals the leakage floor
        let frozen_sample = trace
            .time
            .iter()
            .position(|&t| t > 40.0 && t < 49.0)
            .unwrap();
        let floor = m.leakage_power(0.34);
        assert!((trace.power[frozen_sample] - floor).abs() < 1e-9);
        // while computing at 0.5 V the power is well above the floor
        let computing_sample = trace.time.iter().position(|&t| t > 6.0).unwrap();
        assert!(trace.power[computing_sample] > 5.0 * floor);
        // idle before start: leakage at 0.5 V only
        let idle = trace.time.iter().position(|&t| t > 1.0).unwrap();
        assert!((trace.power[idle] - m.leakage_power(0.5)).abs() < 1e-12);
    }
}

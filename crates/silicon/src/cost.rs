//! Area and energy estimation of DFS models — the cost side of
//! design-space exploration.
//!
//! Gate-level mapping (`crate::map`) is exact but only covers included
//! configurations, and simulating every candidate of a design sweep at gate
//! level is out of budget. This module estimates **area** (gate
//! equivalents) and **switching energy per item** directly from the DFS
//! structure plus the *exact* per-node activity that
//! `dfs_core::perf::analyse_with_activity` extracts from the phase
//! unfolding:
//!
//! * every node costs gate equivalents by kind; **logic blocks scale with
//!   drive strength** — a block sized to be twice as fast costs twice the
//!   area (and switched capacitance), the classic sizing trade-off that
//!   makes per-stage delay grids a real design axis rather than a free
//!   speedup;
//! * switching energy per item is `Σ activity(n) · E_switch(GE(n), V)` with
//!   the `C·V²` law of [`EnergyModel`]; an excluded stage whose logic never
//!   fires contributes nothing — the paper's motivation for run-time
//!   reconfiguration;
//! * leakage integrates the [`EnergyModel`] floor over the steady-state
//!   period, converting model time units to seconds via
//!   [`CostModel::time_unit_s`] and the alpha-power-law voltage slowdown of
//!   [`DelayModel`].

use crate::delay::DelayModel;
use crate::power::EnergyModel;
use dfs_core::{Dfs, Node, NodeKind};

/// Gate-equivalent costs per DFS node kind.
#[derive(Debug, Clone, Copy)]
pub struct GateCosts {
    /// A static pipeline register (NCL dual-rail latch + completion
    /// detector).
    pub register_ge: f64,
    /// A control-loop register (single-bit token, cheap).
    pub control_ge: f64,
    /// A push/pop steering register (register + guard gating).
    pub dynamic_ge: f64,
    /// A logic block with latency [`GateCosts::reference_delay`].
    pub logic_base_ge: f64,
    /// The latency the base logic cost is quoted at; a block of delay `d`
    /// costs `logic_base_ge · reference_delay / d` (clamped by
    /// [`GateCosts::max_drive`]) — faster blocks are larger.
    pub reference_delay: f64,
    /// Clamp on the sizing factor in both directions.
    pub max_drive: f64,
    /// Effective fraction of a node's gate equivalents that toggles per
    /// firing (dual-rail set + reset, averaged).
    pub switch_fraction: f64,
}

impl Default for GateCosts {
    fn default() -> Self {
        GateCosts {
            register_ge: 9.0,
            control_ge: 4.0,
            dynamic_ge: 12.0,
            logic_base_ge: 24.0,
            reference_delay: 1.0,
            max_drive: 8.0,
            switch_fraction: 0.5,
        }
    }
}

/// The combined cost model: per-kind gate counts, the `C·V²`/leakage
/// energy model and the voltage→delay law.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Gate-equivalent areas.
    pub gates: GateCosts,
    /// Switching/leakage energy parameters.
    pub energy: EnergyModel,
    /// Supply-voltage delay scaling.
    pub delay: DelayModel,
    /// Seconds per model time unit at the nominal supply.
    pub time_unit_s: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            gates: GateCosts::default(),
            energy: EnergyModel::default(),
            delay: DelayModel::default(),
            time_unit_s: 5.0e-9,
        }
    }
}

impl CostModel {
    /// A digest of every parameter of the model, for caches that key
    /// results by cost-model identity (e.g. `rap-session`'s `cost` query).
    /// Two models with bit-equal fields always get equal keys; unequal
    /// models collide only with SplitMix64 probability (~2⁻⁶⁴), and a
    /// collision would merely serve a cached summary computed under the
    /// colliding parameters — never corrupt state.
    #[must_use]
    pub fn cache_key(&self) -> u64 {
        use dfs_core::hash::mix64 as mix;
        let fields = [
            self.gates.register_ge,
            self.gates.control_ge,
            self.gates.dynamic_ge,
            self.gates.logic_base_ge,
            self.gates.reference_delay,
            self.gates.max_drive,
            self.gates.switch_fraction,
            self.energy.v0,
            self.energy.e_switch0,
            self.energy.p_leak0,
            self.energy.vk,
            self.delay.v0,
            self.delay.vt,
            self.delay.alpha,
            self.delay.v_freeze,
            self.time_unit_s,
        ];
        let mut h = mix(0xc057);
        for v in fields {
            h = mix(h ^ mix(v.to_bits()));
        }
        h
    }

    /// Gate-equivalent area of one node.
    #[must_use]
    pub fn node_area(&self, node: &Node) -> f64 {
        let g = &self.gates;
        match node.kind {
            NodeKind::Register => g.register_ge,
            NodeKind::Control => g.control_ge,
            NodeKind::Push | NodeKind::Pop => g.dynamic_ge,
            NodeKind::Logic => {
                let drive = if node.delay > 0.0 {
                    (g.reference_delay / node.delay).clamp(1.0 / g.max_drive, g.max_drive)
                } else {
                    g.max_drive
                };
                g.logic_base_ge * drive
            }
        }
    }

    /// Total gate-equivalent area of a model. Excluded stages still count:
    /// silicon is committed at tape-out, not at configuration time.
    #[must_use]
    pub fn area(&self, dfs: &Dfs) -> f64 {
        dfs.nodes().map(|n| self.node_area(dfs.node(n))).sum()
    }

    /// Gate equivalents switched per item given the per-node activity
    /// (firings per item, as produced by
    /// `dfs_core::perf::analyse_with_activity`).
    ///
    /// # Panics
    ///
    /// Panics if `activity` is shorter than the node count.
    #[must_use]
    pub fn switched_ge_per_item(&self, dfs: &Dfs, activity: &[f64]) -> f64 {
        dfs.nodes()
            .map(|n| activity[n.index()] * self.node_area(dfs.node(n)) * self.gates.switch_fraction)
            .sum()
    }

    /// Switching energy per item at supply `v` (J).
    #[must_use]
    pub fn switching_energy_per_item(&self, dfs: &Dfs, activity: &[f64], v: f64) -> f64 {
        self.energy
            .switch_energy(self.switched_ge_per_item(dfs, activity), v)
    }

    /// The wall-clock duration of `period_units` model time units at
    /// supply `v` (s); infinite when the supply is below the freeze point.
    #[must_use]
    pub fn period_seconds(&self, period_units: f64, v: f64) -> f64 {
        period_units * self.time_unit_s * self.delay.factor(v)
    }

    /// The energy law at scalar level: switching of `switched_ge` gate
    /// equivalents plus leakage of `area` integrated over `period_s`
    /// seconds, at supply `v`. Infinite when `period_s` is (frozen
    /// supply). This is the **single** place the per-item energy formula
    /// lives — [`CostModel::energy_per_item`] and the DSE objective
    /// computation in `rap-dse` both delegate here, so a model change
    /// cannot silently diverge between them.
    #[must_use]
    pub fn energy_from_parts(&self, switched_ge: f64, area: f64, period_s: f64, v: f64) -> f64 {
        if !period_s.is_finite() {
            return f64::INFINITY;
        }
        self.energy.switch_energy(switched_ge, v) + self.energy.leakage_power(area, v) * period_s
    }

    /// Total energy per item at supply `v`: switching plus leakage
    /// integrated over the (voltage-scaled) steady-state period. Infinite
    /// when frozen.
    #[must_use]
    pub fn energy_per_item(&self, dfs: &Dfs, activity: &[f64], period_units: f64, v: f64) -> f64 {
        self.energy_from_parts(
            self.switched_ge_per_item(dfs, activity),
            self.area(dfs),
            self.period_seconds(period_units, v),
            v,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_core::perf::analyse_with_activity;
    use dfs_core::pipelines::{build_pipeline, PipelineSpec};

    fn model(spec: &PipelineSpec) -> (Dfs, Vec<f64>, f64) {
        let dfs = build_pipeline(spec).unwrap().dfs;
        let d = analyse_with_activity(&dfs).unwrap();
        (dfs, d.activity_per_item, d.report.period)
    }

    #[test]
    fn faster_sizing_costs_area() {
        let m = CostModel::default();
        let slow = build_pipeline(&PipelineSpec::fully_static(3).with_f_delays(vec![2.0; 3]))
            .unwrap()
            .dfs;
        let fast = build_pipeline(&PipelineSpec::fully_static(3).with_f_delays(vec![0.5; 3]))
            .unwrap()
            .dfs;
        assert!(m.area(&fast) > m.area(&slow));
        // the clamp holds at absurd sizings
        let degenerate = build_pipeline(&PipelineSpec::fully_static(1).with_f_delays(vec![0.0]))
            .unwrap()
            .dfs;
        assert!(m.area(&degenerate).is_finite());
    }

    #[test]
    fn reconfigurable_fabric_costs_more_silicon_than_static() {
        let m = CostModel::default();
        let st = build_pipeline(&PipelineSpec::fully_static(4)).unwrap().dfs;
        let rc = build_pipeline(&PipelineSpec::reconfigurable_depth(4, 4).unwrap())
            .unwrap()
            .dfs;
        assert!(m.area(&rc) > m.area(&st), "control loops occupy silicon");
    }

    #[test]
    fn excluding_stages_saves_switching_energy() {
        let m = CostModel::default();
        let (full, act_full, _) = model(&PipelineSpec::reconfigurable_depth(4, 4).unwrap());
        let (shallow, act_shallow, _) = model(&PipelineSpec::reconfigurable_depth(4, 1).unwrap());
        // identical silicon…
        assert!((m.area(&full) - m.area(&shallow)).abs() < 1e-9);
        // …but the excluded stages stop switching
        let e_full = m.switching_energy_per_item(&full, &act_full, 1.2);
        let e_shallow = m.switching_energy_per_item(&shallow, &act_shallow, 1.2);
        assert!(
            e_shallow < 0.8 * e_full,
            "shallow {e_shallow} vs full {e_full}"
        );
    }

    #[test]
    fn energy_follows_v_squared_and_freeze() {
        let m = CostModel::default();
        let (dfs, act, period) = model(&PipelineSpec::fully_static(2));
        let e06 = m.switching_energy_per_item(&dfs, &act, 0.6);
        let e12 = m.switching_energy_per_item(&dfs, &act, 1.2);
        assert!((e12 / e06 - 4.0).abs() < 1e-9);
        // total energy includes a leakage·period term
        let total = m.energy_per_item(&dfs, &act, period, 1.2);
        assert!(total > e12);
        // frozen supply: infinite period, infinite energy
        assert!(m.energy_per_item(&dfs, &act, period, 0.3).is_infinite());
        assert!(m.period_seconds(period, 0.3).is_infinite());
    }
}

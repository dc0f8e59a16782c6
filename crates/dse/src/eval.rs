//! Exact evaluation of one structural configuration.
//!
//! A **structural evaluation** is everything that does not depend on the
//! supply voltage: the steady-state period in model time units (exact, via
//! `dfs_core::perf`), the switched gate equivalents per item (exact, via
//! the activity hook), the gate-equivalent area, and a budgeted
//! deadlock/1-safety screen through the Petri-net backend (stubborn sets,
//! on the way-rotation quotient for wagged hardware, and 1-safety from the
//! structural certificate). Voltage is then applied analytically — every
//! latency scales by the same alpha-power factor, so
//! `period(V) = period(V₀) · factor(V)` exactly — which is what makes
//! memoizing structural evaluations across the voltage axis sound.
//!
//! Evaluation runs on a [`CompiledModel`] from `rap-session`: the
//! throughput analysis, Petri translation, verification screen and cost
//! summary are session queries, so a configuration evaluated for the
//! sweep shares every artifact with any other caller of the same session
//! — identical configurations share all of them with each other, and
//! timing twins (equal but for delays) the Petri image, the screen and the
//! delay-free event schedule of the throughput analysis.

use crate::pareto::Objectives;
use dfs_core::perf::Construction;
use rap_session::{CompiledModel, Error};
use rap_silicon::cost::CostModel;

/// Voltage-independent evaluation of one structural configuration.
#[derive(Debug, Clone)]
pub struct StructuralEval {
    /// Steady-state period per item, model time units, at nominal supply.
    pub period_units: f64,
    /// Phases of the unfolded schedule (1 when the direct construction
    /// applied).
    pub phases: u32,
    /// Gate-equivalent area.
    pub area: f64,
    /// Gate equivalents switched per item (activity-weighted).
    pub switched_ge: f64,
    /// States explored by the verification screen (of its reduced space).
    pub check_states: usize,
    /// Whether the screen's budget truncated the exploration. A screen
    /// that was not truncated decided both verdicts: deadlock-freedom by
    /// the complete reduced exploration, 1-safety by the structural
    /// certificate, which every DFS translation passes.
    pub check_truncated: bool,
    /// Whether the screen found a deadlock or a 1-safety violation
    /// (violations in a truncated prefix are real).
    pub check_violated: bool,
}

impl StructuralEval {
    /// The objective vector at supply `v`.
    #[must_use]
    pub fn objectives(&self, cost: &CostModel, v: f64) -> Objectives {
        let period_s = cost.period_seconds(self.period_units, v);
        Objectives {
            throughput: if period_s > 0.0 && period_s.is_finite() {
                1.0 / period_s
            } else if period_s == 0.0 {
                f64::INFINITY
            } else {
                0.0
            },
            energy_per_item: cost.energy_from_parts(self.switched_ge, self.area, period_s, v),
            area: self.area,
        }
    }
}

/// Evaluates a compiled configuration exactly: throughput analysis with
/// activity, cost-model area/switching, and the budgeted Petri screen
/// ([`CompiledModel::screen`], on the quotient under `way_rotation` when
/// the hardware has one — see
/// [`Config::build_with_rotation`](crate::Config::build_with_rotation)) —
/// all as (cached) session queries, so repeated or concurrent evaluation
/// of the same structure performs each derivation exactly once.
///
/// # Errors
///
/// Propagates the session [`Error`] of the performance analysis (e.g. a
/// token-free cycle in a structurally dead candidate), and of the screen
/// (a `way_rotation` that is no automorphism of the Petri image).
pub fn evaluate_structural(
    model: &CompiledModel,
    cost: &CostModel,
    check_budget: usize,
    way_rotation: Option<&[u32]>,
) -> Result<StructuralEval, Error> {
    let detail = model.perf_detail()?;
    let phases = match detail.report.construction {
        Construction::Direct => 1,
        Construction::PhaseUnfolded { phases } => phases,
    };
    let check = model.screen(check_budget, way_rotation)?;
    let summary = model.cost(cost)?;
    Ok(StructuralEval {
        period_units: detail.report.period,
        phases,
        area: summary.area,
        switched_ge: summary.switched_ge_per_item,
        check_states: check.states,
        check_truncated: check.truncated,
        check_violated: !check.no_violation(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{DesignSpace, Hardware};
    use dfs_core::pipelines::StageDelays;
    use dfs_core::Dfs;
    use rap_session::Session;

    fn eval_direct(dfs: &Dfs, cost: &CostModel, budget: usize) -> Result<StructuralEval, Error> {
        evaluate_structural(&Session::new().compile(dfs), cost, budget, None)
    }

    fn ope_space() -> DesignSpace {
        DesignSpace {
            hardware: vec![
                Hardware::Static { stages: 3 },
                Hardware::Reconfigurable {
                    stages: 3,
                    share_ctrl: true,
                },
                Hardware::Wagged { ways: 2, stages: 2 },
            ],
            workloads: vec![1, 2],
            sizings: vec![1.0],
            voltages: vec![1.2],
            delays: StageDelays {
                f: 1.0,
                g: 2.0,
                register: 1.0,
                control: 0.5,
            },
        }
    }

    #[test]
    fn structural_eval_carries_the_verification_screen() {
        let cost = CostModel::default();
        let config = ope_space().enumerate()[0];
        let dfs = config.build().unwrap();
        // generous budget: the screen is exhaustive and clean
        let eval = eval_direct(&dfs, &cost, 2_000_000).unwrap();
        assert!(!eval.check_truncated);
        assert!(!eval.check_violated);
        assert!(eval.check_states > 0);
        // tiny budget: truncated, but still no violation claimed
        let eval = eval_direct(&dfs, &cost, 5).unwrap();
        assert!(eval.check_truncated);
        assert!(!eval.check_violated);
    }

    /// Wagged hardware is screened on its way-rotation quotient: the
    /// rotation from `Config` is accepted, and a permutation that is no
    /// automorphism is a typed error, not an unreduced run.
    #[test]
    fn wagged_screens_run_on_the_rotation_quotient() {
        let cost = CostModel::default();
        let config = ope_space().enumerate()[4];
        assert!(matches!(config.hardware, Hardware::Wagged { ways: 2, .. }));
        let (dfs, rotation) = config.build_with_rotation().unwrap();
        let rotation = rotation.expect("two ways rotate");
        let model = Session::new().compile(&dfs);
        let quotient = evaluate_structural(&model, &cost, 20_000, Some(&rotation)).unwrap();
        let plain = evaluate_structural(&model, &cost, 20_000, None).unwrap();
        assert!(!quotient.check_truncated && !quotient.check_violated);
        assert!(quotient.check_states < plain.check_states);
        let mut broken = rotation.clone();
        broken.swap(0, 1);
        let err = evaluate_structural(&model, &cost, 20_000, Some(&broken)).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Petri(rap_petri::PetriError::InvalidSymmetry { .. })
            ),
            "{err}"
        );
    }

    /// Voltage scaling is analytic: halving the supply factor must move
    /// throughput and leakage exactly, not approximately.
    #[test]
    fn objectives_scale_exactly_with_voltage() {
        let cost = CostModel::default();
        let config = ope_space().enumerate()[0];
        let dfs = config.build().unwrap();
        let eval = eval_direct(&dfs, &cost, 50_000).unwrap();
        let at = |v: f64| eval.objectives(&cost, v);
        let (lo, hi) = (at(0.9), at(1.6));
        let f_lo = cost.delay.factor(0.9);
        let f_hi = cost.delay.factor(1.6);
        assert!((lo.throughput * f_lo - hi.throughput * f_hi).abs() < 1e-9 * hi.throughput * f_hi);
        assert!(hi.energy_per_item > lo.energy_per_item, "V² dominates");
        assert_eq!(lo.area, hi.area);
    }
}

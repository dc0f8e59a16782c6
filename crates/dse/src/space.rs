//! Declarative configuration spaces.
//!
//! A [`DesignSpace`] is the cartesian product of four axes:
//!
//! * **hardware** — which silicon to build: a static pipeline, a
//!   reconfigurable pipeline (with or without the shared-control-loop
//!   optimisation of Fig. 7), or a `K`-way wagged replication;
//! * **workload** — the effective window depth the stream currently
//!   demands. Reconfigurable hardware *reconfigures* to the demand
//!   (excluding the unused tail stages); static and wagged hardware always
//!   compute their full window, serving shallower demands wastefully;
//! * **sizing** — a drive-strength scale on the datapath logic (`f` and
//!   `g` latencies multiply by it; smaller = faster = more area and
//!   switched capacitance, see `rap_silicon::cost`);
//! * **supply voltage** — scaling every latency by the alpha-power law and
//!   the switching energy by `V²`.
//!
//! Every hardware candidate must support the space's full workload range
//! (the product requirement the paper's chip was built for); a candidate
//! is enumerated only for demands within its capability.

use crate::models::wagged_ope;
use dfs_core::pipelines::{build_pipeline, PipelineSpec, StageDelays};
use dfs_core::{Dfs, DfsError};

/// A hardware candidate (what gets taped out).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hardware {
    /// A fully static `stages`-stage pipeline: least silicon, fixed
    /// function — it computes its full window whatever the demand.
    Static {
        /// Window capability.
        stages: usize,
    },
    /// The reconfigurable pipeline of Fig. 7: first stage static, the rest
    /// reconfigurable; operates at the demanded depth by excluding tail
    /// stages at run time.
    Reconfigurable {
        /// Window capability.
        stages: usize,
        /// Apply the shared-control-loop (`s2`) optimisation.
        share_ctrl: bool,
    },
    /// `ways` full replicas of the static pipeline behind round-robin
    /// wagging steering (see [`crate::models::wagged_ope`]).
    Wagged {
        /// Replica count.
        ways: usize,
        /// Window capability of each replica.
        stages: usize,
    },
}

impl Hardware {
    /// The window capability.
    #[must_use]
    pub fn stages(&self) -> usize {
        match *self {
            Hardware::Static { stages }
            | Hardware::Reconfigurable { stages, .. }
            | Hardware::Wagged { stages, .. } => stages,
        }
    }

    /// Can this hardware serve a window-`demand` workload?
    #[must_use]
    pub fn supports(&self, demand: usize) -> bool {
        demand >= 1 && demand <= self.stages()
    }

    /// A short human-readable tag.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            Hardware::Static { stages } => format!("static({stages})"),
            Hardware::Reconfigurable { stages, share_ctrl } => {
                if share_ctrl {
                    format!("reconfigurable({stages})")
                } else {
                    format!("reconfigurable({stages},noshare)")
                }
            }
            Hardware::Wagged { ways, stages } => format!("wagged({ways}x{stages})"),
        }
    }
}

/// The declarative space: the product of the four axes, filtered by
/// capability.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    /// Hardware candidates.
    pub hardware: Vec<Hardware>,
    /// Demanded window depths.
    pub workloads: Vec<usize>,
    /// Datapath sizing factors (latency multipliers on `f`/`g`).
    pub sizings: Vec<f64>,
    /// Supply voltages (V).
    pub voltages: Vec<f64>,
    /// Nominal per-node latencies (at sizing 1.0).
    pub delays: StageDelays,
}

impl DesignSpace {
    /// Enumerates every eligible configuration, in a deterministic order.
    #[must_use]
    pub fn enumerate(&self) -> Vec<Config> {
        let mut out = Vec::new();
        for &hw in &self.hardware {
            for &workload in &self.workloads {
                if !hw.supports(workload) {
                    continue;
                }
                for &sizing in &self.sizings {
                    for &voltage in &self.voltages {
                        out.push(Config {
                            hardware: hw,
                            workload,
                            sizing,
                            voltage,
                            delays: self.delays,
                        });
                    }
                }
            }
        }
        out
    }
}

/// One point of the space.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// The hardware candidate.
    pub hardware: Hardware,
    /// The demanded window depth.
    pub workload: usize,
    /// Datapath sizing factor.
    pub sizing: f64,
    /// Supply voltage (V).
    pub voltage: f64,
    /// Nominal latencies (sizing 1.0).
    pub delays: StageDelays,
}

impl Config {
    /// The latencies after sizing: datapath logic (`f`, `g`) scales, the
    /// register/control infrastructure does not.
    #[must_use]
    pub fn scaled_delays(&self) -> StageDelays {
        StageDelays {
            f: self.delays.f * self.sizing,
            g: self.delays.g * self.sizing,
            register: self.delays.register,
            control: self.delays.control,
        }
    }

    /// The depth the hardware actually operates at under this workload:
    /// the demand for reconfigurable hardware, the full capability for
    /// static and wagged hardware (they cannot shrink).
    #[must_use]
    pub fn operating_depth(&self) -> usize {
        match self.hardware {
            Hardware::Reconfigurable { .. } => self.workload,
            _ => self.hardware.stages(),
        }
    }

    /// The axes that fix the *untimed* structure this configuration
    /// builds: the hardware and its operating depth. Sizing and voltage
    /// change only delays and cost, so configurations with equal keys build
    /// timing twins, which share their Petri image and screen in a
    /// session.
    #[must_use]
    pub fn untimed_key(&self) -> (Hardware, usize) {
        (self.hardware, self.operating_depth())
    }

    /// A unique, stable label. Sizing and voltage are printed with Rust's
    /// shortest round-trip `f64` formatting — lossless, so two distinct
    /// configurations can never collapse onto one label (the label is
    /// load-bearing identity: the design-point lookup, the
    /// serial-vs-parallel front cross-check and the canonical evaluation
    /// sort all key on it).
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}@d{} s{} {}V",
            self.hardware.label(),
            self.workload,
            self.sizing,
            self.voltage
        )
    }

    /// Builds the timing model of this configuration. The result depends
    /// only on the *structural* part of the point (hardware, operating
    /// depth, sizing) — not on the voltage, which scales all delays
    /// uniformly and is applied analytically by the cost model. Two
    /// configs differing only in voltage (or in demand, for hardware that
    /// cannot reconfigure) therefore build identical models and share one
    /// memoized evaluation in a session. Configs that differ in sizing as
    /// well build *timing twins* (equal [`untimed_key`](Self::untimed_key),
    /// different delays): they are analysed apart, but share one Petri
    /// image and one screen.
    ///
    /// # Errors
    ///
    /// Propagates [`DfsError`] from the model builders (degenerate
    /// parameters are [`DfsError::InvalidSpec`]).
    pub fn build(&self) -> Result<Dfs, DfsError> {
        self.build_with_rotation().map(|(dfs, _)| dfs)
    }

    /// [`build`](Self::build), plus the model's way rotation when the
    /// hardware replicates ways (wagged hardware with at least two ways;
    /// see [`WaggedOpe::way_rotation`](crate::models::WaggedOpe::way_rotation)).
    /// The screen explores the rotation quotient under it.
    ///
    /// # Errors
    ///
    /// Same as [`build`](Self::build).
    pub fn build_with_rotation(&self) -> Result<(Dfs, Option<Vec<u32>>), DfsError> {
        let d = self.scaled_delays();
        match self.hardware {
            Hardware::Static { stages } => Ok((
                build_pipeline(&PipelineSpec::fully_static(stages).with_delays(d))?.dfs,
                None,
            )),
            Hardware::Reconfigurable { stages, share_ctrl } => {
                let mut spec =
                    PipelineSpec::reconfigurable_depth(stages, self.workload)?.with_delays(d);
                spec.share_ctrl_after_static = share_ctrl;
                Ok((build_pipeline(&spec)?.dfs, None))
            }
            Hardware::Wagged { ways, stages } => {
                let w = wagged_ope(ways, stages, d, &vec![d.f; stages])?;
                Ok((w.dfs, (ways > 1).then_some(w.way_rotation)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> DesignSpace {
        DesignSpace {
            hardware: vec![
                Hardware::Static { stages: 3 },
                Hardware::Reconfigurable {
                    stages: 3,
                    share_ctrl: true,
                },
                Hardware::Wagged { ways: 2, stages: 3 },
            ],
            workloads: vec![1, 2, 3],
            sizings: vec![1.0, 2.0],
            voltages: vec![0.9, 1.2],
            delays: StageDelays::default(),
        }
    }

    #[test]
    fn enumeration_is_the_filtered_product() {
        let space = small_space();
        let configs = space.enumerate();
        // 3 hardware × 3 workloads × 2 × 2
        assert_eq!(configs.len(), 36);
        // labels are unique
        let mut labels: Vec<String> = configs.iter().map(Config::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 36);
        // capability filter
        let mut space = space;
        space.workloads.push(7);
        assert_eq!(space.enumerate().len(), 36);
    }

    #[test]
    fn voltage_and_demand_replicas_share_structure() {
        let space = small_space();
        let configs = space.enumerate();
        let hash = |c: &Config| c.build().unwrap().structural_hash();
        // same point at two voltages: identical structure
        let a = configs
            .iter()
            .find(|c| c.label() == "static(3)@d1 s1 0.9V")
            .unwrap();
        let b = configs
            .iter()
            .find(|c| c.label() == "static(3)@d1 s1 1.2V")
            .unwrap();
        assert_eq!(hash(a), hash(b));
        // static hardware cannot reconfigure: demands share structure too
        let c = configs
            .iter()
            .find(|c| c.label() == "static(3)@d3 s1 0.9V")
            .unwrap();
        assert_eq!(hash(a), hash(c));
        // but a reconfigurable point operates at the demand: distinct
        let r1 = configs
            .iter()
            .find(|c| c.label() == "reconfigurable(3)@d1 s1 0.9V")
            .unwrap();
        let r3 = configs
            .iter()
            .find(|c| c.label() == "reconfigurable(3)@d3 s1 0.9V")
            .unwrap();
        assert_ne!(hash(r1), hash(r3));
        // and sizing changes the structure (delays are part of the hash)
        let s2 = configs
            .iter()
            .find(|c| c.label() == "static(3)@d1 s2 0.9V")
            .unwrap();
        assert_ne!(hash(a), hash(s2));
    }
}

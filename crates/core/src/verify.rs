//! Formal verification of DFS models (§II-B, §II-D, §III-A).
//!
//! A model is mechanically translated into its Petri net (Fig. 3), and one
//! [`rap_petri::analysis::check`] decides the standard properties during
//! one exhaustive exploration — standing in for the MPSAT backend:
//!
//! * **deadlock** — a reachable marking with no enabled transition;
//! * **control mismatch** — some node sees both a True and a False guard
//!   token simultaneously (the "disabled node" condition of §II-B), a
//!   marking that must never be reached: sets of `Mt_*`/`Mf_*` places;
//! * **non-persistence** — an enabled event disabled by another firing (a
//!   hazard at the dataflow level; intended free choices of control
//!   registers are exempted).
//!
//! Counterexamples are mapped back to DFS event labels.

use crate::graph::{Dfs, GuardMode};
use crate::to_petri::{to_petri, PetriImage};
use crate::DfsError;
use rap_petri::analysis::{check, Properties};
use rap_petri::reachability::ExploreConfig;
use rap_petri::{PlaceId, TransitionId};

/// Verification limits.
#[derive(Debug, Clone, Copy)]
pub struct VerifyConfig {
    /// State budget for the exhaustive exploration.
    pub max_states: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            max_states: 2_000_000,
        }
    }
}

/// A verification counterexample: the event-label trace from the initial
/// state to the offending state.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Event labels (`Mt_ctrl+`, `C_f-`, …) in firing order.
    pub trace: Vec<String>,
    /// Human-readable description of the violated property.
    pub reason: String,
}

/// Combined verification report.
#[derive(Debug, Clone)]
pub struct VerificationReport {
    /// Number of reachable states of the PN image.
    pub states: usize,
    /// Deadlock counterexamples (empty = deadlock-free).
    pub deadlocks: Vec<Counterexample>,
    /// Control-mismatch counterexample, if reachable.
    pub control_mismatch: Option<Counterexample>,
    /// Non-persistence (hazard) counterexamples.
    pub hazards: Vec<Counterexample>,
}

impl VerificationReport {
    /// Did every check pass?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.deadlocks.is_empty() && self.control_mismatch.is_none() && self.hazards.is_empty()
    }
}

/// Runs all checks on `dfs`: every dead state with its trace, the first
/// control-mismatch state in BFS order, and every hazard.
///
/// # Errors
///
/// [`DfsError::StateBudgetExceeded`] when the reachable space exceeds
/// `config.max_states`.
pub fn verify(dfs: &Dfs, config: &VerifyConfig) -> Result<VerificationReport, DfsError> {
    let img = to_petri(dfs);
    let mismatches = mismatch_sets(dfs, &img);
    // intended choices: the Mt_x+/Mf_x+ pair of one dynamic register x
    let choice = |en: TransitionId, dis: TransitionId| {
        let (a, b) = (img.label(en), img.label(dis));
        let pair = |t: &str, f: &str| {
            (t.strip_prefix("Mt_").zip(f.strip_prefix("Mf_"))).is_some_and(|(x, y)| x == y)
        };
        a.ends_with('+') && b.ends_with('+') && (pair(a, b) || pair(b, a))
    };
    let props = Properties {
        unreachable: &mismatches,
        persistence: Some(&choice),
        ..Properties::default()
    };
    let cfg = ExploreConfig {
        max_states: config.max_states,
        ..ExploreConfig::default()
    };
    let report = check(&img.net, &props, &cfg, None);
    if report.truncated {
        return Err(DfsError::StateBudgetExceeded {
            budget: config.max_states,
        });
    }
    let counterexample = |trace: &[TransitionId], reason: String| Counterexample {
        trace: trace.iter().map(|&t| img.label(t).to_string()).collect(),
        reason,
    };
    Ok(VerificationReport {
        states: report.states,
        deadlocks: report
            .deadlocks
            .iter()
            .map(|d| counterexample(&d.trace, "deadlock: no event enabled".to_string()))
            .collect(),
        control_mismatch: report.reached.map(|w| {
            counterexample(
                &w.trace,
                "control mismatch: True and False guard tokens visible simultaneously".to_string(),
            )
        }),
        hazards: report
            .conflicts
            .iter()
            .map(|v| {
                let reason = format!(
                    "non-persistence: {} disabled by {}",
                    img.label(v.enabled),
                    img.label(v.disabler)
                );
                counterexample(&v.trace, reason)
            })
            .collect(),
    })
}

/// Structurally certifies the 1-safety of the Fig. 3 translation of `dfs`:
/// every `x_0`/`x_1` pair must be a P-invariant with token sum 1, which
/// holds over *all* reachable markings without exploring any — the
/// structural counterpart of the exhaustive
/// [`rap_petri::analysis::check_complementary_pairs`].
#[must_use]
pub fn certify_translation_safety(dfs: &Dfs) -> bool {
    let img = to_petri(dfs);
    rap_petri::invariants::certify_complementary_pairs(&img.net, &img.complementary_pairs())
        .is_none()
}

/// The markings "some node has marked guards with both values": per guard
/// pair of a unanimous node, the two value places that assert opposite
/// readings, in both assignments, or a register's own `M_x_1` when the node
/// reads it with both parities. Inverted guards contribute their flipped
/// value places.
fn mismatch_sets(dfs: &Dfs, img: &PetriImage) -> Vec<Vec<PlaceId>> {
    // the `Mt_x_1` (`want`) or `Mf_x_1` value place guard `g` marks when
    // it effectively reads `want`
    let value = |g: &crate::graph::RRef, want: bool| {
        let ((_, mt1), (_, mf1)) = img.value_places[&g.node];
        if want ^ g.inverted {
            mt1
        } else {
            mf1
        }
    };
    let mut sets = Vec::new();
    for n in dfs.nodes() {
        if dfs.guard_mode(n) != GuardMode::Unanimous {
            continue;
        }
        let guards = dfs.guards(n);
        for (i, a) in guards.iter().enumerate() {
            for b in guards.iter().skip(i + 1) {
                if a.node == b.node && a.inverted != b.inverted {
                    // same register read with both parities: any marking of
                    // it is a mismatch
                    sets.push(vec![img.marking_places[&a.node].1]);
                    continue;
                }
                sets.push(vec![value(a, true), value(b, false)]);
                sets.push(vec![value(a, false), value(b, true)]);
            }
        }
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfsBuilder;
    use crate::node::TokenValue;

    fn verify_default(dfs: &Dfs) -> VerificationReport {
        verify(dfs, &VerifyConfig::default()).unwrap()
    }

    #[test]
    fn live_ring_is_clean() {
        let mut b = DfsBuilder::new();
        let r0 = b.register("r0").marked().build();
        let r1 = b.register("r1").build();
        let r2 = b.register("r2").build();
        b.connect(r0, r1);
        b.connect(r1, r2);
        b.connect(r2, r0);
        let report = verify_default(&b.finish().unwrap());
        assert!(report.is_clean(), "{report:?}");
        assert!(report.states > 1);
    }

    #[test]
    fn two_ring_deadlock_found_with_trace() {
        let mut b = DfsBuilder::new();
        let r0 = b.register("r0").marked().build();
        let r1 = b.register("r1").build();
        b.connect(r0, r1);
        b.connect(r1, r0);
        let report = verify_default(&b.finish().unwrap());
        assert!(!report.deadlocks.is_empty());
        // the initial state itself is dead: r1 cannot accept because its
        // R-postset (r0) is marked, and r0 cannot release because r1 is not
        assert!(report.deadlocks[0].trace.is_empty());
    }

    #[test]
    fn mismatched_guard_init_is_detected() {
        // the §III-A bug class: a stage whose two control loops were
        // initialised inconsistently
        let mut b = DfsBuilder::new();
        let i = b.register("in").marked().build();
        let c1 = b.control("c1").marked_with(TokenValue::True).build();
        let c2 = b.control("c2").marked_with(TokenValue::False).build();
        let p = b.push("p").build();
        let o = b.register("out").build();
        b.connect(i, p);
        b.connect(c1, p);
        b.connect(c2, p);
        b.connect(p, o);
        let report = verify_default(&b.finish().unwrap());
        let cm = report.control_mismatch.expect("mismatch must be found");
        assert!(cm.trace.is_empty(), "mismatch holds initially");
        assert!(!report.deadlocks.is_empty(), "and the model deadlocks");
    }

    #[test]
    fn translations_certify_structurally() {
        // structural 1-safety holds even for the full-scale 18-stage model
        // that is far too big to explore
        let p = crate::pipelines::build_pipeline(
            &crate::pipelines::PipelineSpec::reconfigurable_depth(18, 9).unwrap(),
        )
        .unwrap();
        assert!(certify_translation_safety(&p.dfs));
    }

    #[test]
    fn free_choice_is_not_a_hazard() {
        // control fed by a data predicate: Mt+/Mf+ compete but that is the
        // intended non-determinism, not a hazard
        let mut b = DfsBuilder::new();
        let i = b.register("in").marked().build();
        let f = b.logic("cond").build();
        let c = b.control("ctrl").build();
        let r = b.register("ret").build();
        b.connect(i, f);
        b.connect(f, c);
        b.connect(c, r);
        b.connect(r, i);
        let report = verify_default(&b.finish().unwrap());
        assert!(report.hazards.is_empty(), "{:?}", report.hazards);
        assert!(report.deadlocks.is_empty());
    }

    /// Only the `Mt_x+`/`Mf_x+` choice of one register `x` is exempt: a
    /// register's marking disabled by another node's `Mf+` is a hazard.
    #[test]
    fn choice_of_another_node_is_a_hazard() {
        let mut b = DfsBuilder::new();
        let pop = b.pop("n0").marked_with(TokenValue::True).build();
        let reg = b.register("n1").build();
        let ctrl = b.control("n2").marked_with(TokenValue::False).build();
        b.connect(reg, pop);
        b.connect(ctrl, pop);
        let report = verify_default(&b.finish().unwrap());
        let hazards: Vec<(&str, &[String])> = (report.hazards.iter())
            .map(|h| (h.reason.as_str(), &h.trace[..]))
            .collect();
        let trace = ["Mf_n2-", "Mt_n0-", "Mf_n2+"].map(String::from);
        assert_eq!(
            hazards,
            [("non-persistence: M_n1+ disabled by Mf_n0+", &trace[..])]
        );
    }
}

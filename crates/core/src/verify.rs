//! Formal verification of DFS models (§II-B, §II-D, §III-A).
//!
//! A model is mechanically translated into its Petri net (Fig. 3) and the
//! standard properties are decided by the `rap-petri` explorer — standing in
//! for the MPSAT backend:
//!
//! * **deadlock** — a reachable marking with no enabled transition;
//! * **control mismatch** — some node sees both a True and a False guard
//!   token simultaneously (the "disabled node" condition of §II-B),
//!   expressed as a generated Reach predicate over the `Mt_*`/`Mf_*` places;
//! * **non-persistence** — an enabled event disabled by another firing
//!   (a hazard at the dataflow level; intended free choices of control
//!   registers are exempted).
//!
//! Counterexamples are mapped back to DFS event labels.

use crate::graph::{Dfs, GuardMode};
use crate::to_petri::{to_petri, PetriImage};
use crate::DfsError;
use rap_petri::analysis as pn_analysis;
use rap_petri::reachability::{explore, ExploreConfig, StateSpace};
use rap_reach::Predicate;

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

/// Runs all checks on `dfs`.
///
/// # Errors
///
/// [`DfsError::StateBudgetExceeded`] when the reachable space exceeds
/// `config.max_states`.
pub fn verify(dfs: &Dfs, config: &VerifyConfig) -> Result<VerificationReport, DfsError> {
    let img = to_petri(dfs);
    let space = explore(
        &img.net,
        ExploreConfig {
            max_states: config.max_states,
            ..ExploreConfig::default()
        },
    )?;
    Ok(VerificationReport {
        states: space.len(),
        deadlocks: deadlocks(&img, &space),
        control_mismatch: control_mismatch(dfs, &img, &space),
        hazards: hazards(dfs, &img, &space),
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

fn trace_labels(img: &PetriImage, trace: &[rap_petri::TransitionId]) -> Vec<String> {
    trace.iter().map(|&t| img.label(t).to_string()).collect()
}

fn deadlocks(img: &PetriImage, space: &StateSpace) -> Vec<Counterexample> {
    pn_analysis::find_deadlocks(space)
        .into_iter()
        .map(|d| Counterexample {
            trace: trace_labels(img, &d.trace),
            reason: "deadlock: no event enabled".to_string(),
        })
        .collect()
}

/// Builds the Reach predicate "some node has marked guards with both
/// values" and searches for a witness.
fn control_mismatch(dfs: &Dfs, img: &PetriImage, space: &StateSpace) -> Option<Counterexample> {
    // Generate the disjunction over all guard pairs of all nodes. Inverted
    // guards contribute their flipped value places.
    let mut clauses = Vec::new();
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
                    clauses.push(format!("marked(\"M_{}_1\")", dfs.node(a.node).name));
                    continue;
                }
                let a_true = place_name(dfs, a, true);
                let a_false = place_name(dfs, a, false);
                let b_true = place_name(dfs, b, true);
                let b_false = place_name(dfs, b, false);
                clauses.push(format!(
                    "(marked(\"{a_true}\") & marked(\"{b_false}\")) | (marked(\"{a_false}\") & marked(\"{b_true}\"))"
                ));
            }
        }
    }
    if clauses.is_empty() {
        return None;
    }
    let source = any_of(&clauses);
    let predicate = Predicate::parse(&source).expect("generated predicate parses");
    let compiled = predicate
        .compile(&img.net)
        .expect("generated names resolve");
    rap_reach::find_witness(&img.net, space, &compiled).map(|w| Counterexample {
        trace: trace_labels(img, &w.trace),
        reason: "control mismatch: True and False guard tokens visible simultaneously".to_string(),
    })
}

/// The disjunction of `clauses` (non-empty), split into parenthesised
/// halves: its tree grows with the log of the clause count, so a model
/// with thousands of guard pairs stays inside the Reach parser's depth
/// bound, which a flat left-deep `a | b | …` chain would not.
fn any_of(clauses: &[String]) -> String {
    match clauses {
        [one] => one.clone(),
        _ => {
            let (left, right) = clauses.split_at(clauses.len() / 2);
            format!("({}) | ({})", any_of(left), any_of(right))
        }
    }
}

/// The value-place name asserting guard `g` effectively reads `want`.
fn place_name(dfs: &Dfs, g: &crate::graph::RRef, want: bool) -> String {
    let eff = want ^ g.inverted;
    let prefix = if eff { "Mt" } else { "Mf" };
    format!("{prefix}_{}_1", dfs.node(g.node).name)
}

fn hazards(dfs: &Dfs, img: &PetriImage, space: &StateSpace) -> Vec<Counterexample> {
    // Intended choices: the Mt_x+/Mf_x+ pair of the same dynamic register.
    let is_choice_pair = |a: &str, b: &str| -> bool {
        a.ends_with('+')
            && b.ends_with('+')
            && (a.strip_prefix("Mt_") == b.strip_prefix("Mf_")
                || a.strip_prefix("Mf_") == b.strip_prefix("Mt_"))
    };
    let _ = dfs;
    pn_analysis::find_persistence_violations(&img.net, space, |en, dis| {
        is_choice_pair(img.label(en), img.label(dis))
    })
    .into_iter()
    .map(|v| Counterexample {
        trace: trace_labels(img, &v.trace),
        reason: format!(
            "non-persistence: {} disabled by {}",
            img.label(v.enabled),
            img.label(v.disabler)
        ),
    })
    .collect()
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
}

//! The PN translation (Fig. 3) must be behaviour-preserving: the reachable
//! LTS of the generated net, labelled by base transition names, must be
//! isomorphic to the LTS of the direct operational semantics labelled by
//! [`Dfs::event_label`].
//!
//! Both systems are deterministic per label in every state (a label
//! identifies one node event; multiple PN variant transitions with the same
//! label lead to the same marking), so a product BFS that pairs states and
//! compares outgoing label sets decides strong bisimilarity exactly.
//!
//! The corpus: Fig. 1b, hand-built corners of the firing rule, the
//! reconfigurable and wagged pipelines, and random models.

#[path = "common/models.rs"]
mod models;
#[path = "common/random.rs"]
mod random;

use dfs_core::pipelines::{build_pipeline, PipelineSpec};
use dfs_core::{to_petri, Dfs, DfsBuilder, DfsState, GuardMode, Lts, TokenValue};
use proptest::prelude::*;
use rap_petri::reachability::ExploreConfig;
use rap_petri::Marking;
use std::collections::{HashMap, HashSet, VecDeque};

/// Checks label-wise bisimilarity between the direct LTS and the PN image.
fn assert_bisimilar(dfs: &Dfs, max_states: usize) {
    let img = to_petri(dfs);
    let net = &img.net;

    let mut pairing: HashMap<DfsState, Marking> = HashMap::new();
    let mut queue: VecDeque<(DfsState, Marking)> = VecDeque::new();
    let s0 = DfsState::initial(dfs);
    let m0 = net.initial_marking();
    pairing.insert(s0.clone(), m0.clone());
    queue.push_back((s0, m0));
    let mut visited = 0usize;

    while let Some((s, m)) = queue.pop_front() {
        visited += 1;
        assert!(
            visited <= max_states,
            "state budget exceeded during bisimulation check"
        );

        // direct side: label -> successor state
        let mut direct: HashMap<String, DfsState> = HashMap::new();
        for ev in dfs.enabled_events(&s) {
            let label = dfs.event_label(&s, ev);
            let next = dfs.apply(&s, ev);
            if let Some(prev) = direct.insert(label.clone(), next.clone()) {
                assert_eq!(prev, next, "direct semantics not label-deterministic");
            }
        }

        // net side: label -> successor marking
        let mut petri: HashMap<String, Marking> = HashMap::new();
        for t in net.transitions() {
            if !net.is_enabled(t, &m) {
                continue;
            }
            let label = img.label(t).to_string();
            let next = net.fire(t, &m).unwrap();
            if let Some(prev) = petri.insert(label.clone(), next.clone()) {
                assert_eq!(
                    prev, next,
                    "PN variants with label {label} diverge — translation bug"
                );
            }
        }

        let direct_labels: HashSet<&String> = direct.keys().collect();
        let petri_labels: HashSet<&String> = petri.keys().collect();
        assert_eq!(
            direct_labels,
            petri_labels,
            "label sets differ in state {}\n direct only: {:?}\n petri only: {:?}",
            s.describe(dfs),
            direct_labels.difference(&petri_labels).collect::<Vec<_>>(),
            petri_labels.difference(&direct_labels).collect::<Vec<_>>(),
        );

        for (label, next_s) in direct {
            let next_m = petri.remove(&label).expect("label sets already equal");
            match pairing.get(&next_s) {
                Some(existing) => assert_eq!(
                    existing, &next_m,
                    "state paired with two different markings via {label}"
                ),
                None => {
                    pairing.insert(next_s.clone(), next_m.clone());
                    queue.push_back((next_s, next_m));
                }
            }
        }
    }
}

/// Fig. 1b: the conditional-computation motivating example.
fn fig1b() -> Dfs {
    dfs_core::examples::conditional_dfs(2, 3.0).unwrap().dfs
}

#[test]
fn fig1b_is_bisimilar() {
    assert_bisimilar(&fig1b(), 1_000_000);
}

#[test]
fn plain_ring_is_bisimilar() {
    assert_bisimilar(&models::plain_ring(), 100_000);
}

#[test]
fn control_loop_is_bisimilar() {
    assert_bisimilar(&models::control_loop(), 100_000);
}

#[test]
fn reconfigurable_stage_is_bisimilar_in_both_configurations() {
    for depth in 1..=2 {
        let p = build_pipeline(&PipelineSpec::reconfigurable_depth(2, depth).unwrap()).unwrap();
        assert_bisimilar(&p.dfs, 2_000_000);
    }
}

#[test]
fn mismatched_guards_are_bisimilar_too() {
    // even pathological models must translate faithfully
    assert_bisimilar(&models::mismatched_guards(), 100_000);
}

#[test]
fn and_or_guard_modes_are_bisimilar() {
    for mode in [GuardMode::And, GuardMode::Or] {
        assert_bisimilar(&models::combined_guards(mode), 500_000);
    }
}

#[test]
fn inverted_guards_are_bisimilar() {
    assert_bisimilar(&models::inverted_guard(), 500_000);
}

/// A push feeding a push, both false-marked: the downstream push destroys
/// its token at once, because a false-marked push upstream is invisible to
/// it (eq. (3)), in the net (`Mf_p2-` reads `Mt_p1_0`) and in the direct
/// semantics alike.
#[test]
fn two_false_pushes_are_bisimilar() {
    let mut b = DfsBuilder::new();
    let p1 = b.push("p1").marked_with(TokenValue::False).build();
    let p2 = b.push("p2").marked_with(TokenValue::False).build();
    b.connect(p1, p2);
    assert_bisimilar(&b.finish().unwrap(), 1_000);
}

#[test]
fn wagged_pipeline_is_bisimilar() {
    let w = dfs_core::wagging::wagged_pipeline(2, 1, 2.0).unwrap();
    assert_bisimilar(&w.dfs, 5_000_000);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    /// Random models whose direct LTS has at most 20k states: the net
    /// image is bisimilar to it.
    #[test]
    fn random_models_are_bisimilar(dfs in random::arb_dfs()) {
        let cfg = ExploreConfig {
            max_states: 20_000,
            ..ExploreConfig::default()
        };
        prop_assume!(!Lts::explore_with(&dfs, &cfg, None).is_truncated());
        assert_bisimilar(&dfs, 20_000);
    }
}

//! Property-based tests over randomly generated DFS models.

use dfs_core::{to_petri, Dfs, DfsBuilder, DfsState, Lts, NodeKind, TokenValue};
use proptest::prelude::*;
use rap_petri::analysis::check_complementary_pairs;
use rap_petri::reachability::{explore_truncated, ExploreConfig};

/// The default config under a state budget.
fn cfg(max_states: usize) -> ExploreConfig {
    ExploreConfig {
        max_states,
        ..ExploreConfig::default()
    }
}

/// A random small DFS model: a few registers/dynamic nodes wired by random
/// edges, with logic sprinkled in. Construction may produce invalid graphs
/// (combinational cycles); those are filtered out.
fn arb_dfs() -> impl Strategy<Value = Dfs> {
    let kinds = proptest::collection::vec(0u8..5, 3..8);
    let marks = proptest::collection::vec(any::<(bool, bool)>(), 3..8);
    let edges = proptest::collection::vec((0usize..8, 0usize..8), 2..14);
    (kinds, marks, edges).prop_filter_map("invalid model", |(kinds, marks, edges)| {
        let mut b = DfsBuilder::new();
        let n = kinds.len().min(marks.len());
        let ids: Vec<_> = (0..n)
            .map(|i| {
                let name = format!("n{i}");
                let nb = match kinds[i] {
                    0 => b.logic(name),
                    1 => b.register(name),
                    2 => b.control(name),
                    3 => b.push(name),
                    _ => b.pop(name),
                };
                let (marked, value) = marks[i];
                if marked && kinds[i] != 0 {
                    if kinds[i] == 1 {
                        nb.marked().build()
                    } else {
                        nb.marked_with(TokenValue::from(value)).build()
                    }
                } else {
                    nb.build()
                }
            })
            .collect();
        for (from, to) in edges {
            if from < n && to < n && from != to {
                b.connect(ids[from], ids[to]);
            }
        }
        b.finish().ok()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The PN image of any model keeps every complementary place pair
    /// exactly singly-marked over its whole reachable space (1-safety of
    /// the Fig. 3 translation).
    #[test]
    fn translation_is_one_safe(dfs in arb_dfs()) {
        let img = to_petri(&dfs);
        let space = explore_truncated(&img.net, cfg(20_000));
        prop_assert!(check_complementary_pairs(&space, &img.complementary_pairs()).is_none());
    }

    /// Direct-LTS state count equals PN reachable-marking count (a cheap
    /// consequence of bisimilarity, checked on every random model).
    #[test]
    fn state_counts_agree(dfs in arb_dfs()) {
        let lts = Lts::explore_with(&dfs, &cfg(20_000), None);
        let img = to_petri(&dfs);
        let space = explore_truncated(&img.net, cfg(20_000));
        prop_assume!(!lts.is_truncated() && !space.is_truncated());
        prop_assert_eq!(lts.len(), space.len());
    }

    /// Every event the semantics offers is applicable and reversibly
    /// described: applying it changes exactly the state of its node.
    #[test]
    fn events_touch_only_their_node(dfs in arb_dfs()) {
        let s0 = DfsState::initial(&dfs);
        for ev in dfs.enabled_events(&s0) {
            let s1 = dfs.apply(&s0, ev);
            for n in dfs.nodes() {
                if n == ev.node() {
                    continue;
                }
                prop_assert_eq!(s0.is_active(n), s1.is_active(n));
                prop_assert_eq!(s0.token_value(n), s1.token_value(n));
            }
        }
    }

    /// Marked registers never lose their value until released, and logic
    /// nodes never carry token values.
    #[test]
    fn token_values_are_stable(dfs in arb_dfs()) {
        let lts = Lts::explore_with(&dfs, &cfg(5_000), None);
        for id in lts.states() {
            let s = lts.state(id);
            for n in dfs.nodes() {
                if dfs.kind(n) == NodeKind::Logic {
                    prop_assert_eq!(s.token_value(n).is_some(), s.is_active(n));
                }
            }
            for (ev, succ) in lts.successors(id) {
                // a register that stays marked across an unrelated event
                // keeps its value
                let t = lts.state(succ);
                for n in dfs.nodes() {
                    if n != ev.node() && s.is_marked(n) {
                        prop_assert_eq!(s.token_value(n), t.token_value(n));
                    }
                }
            }
        }
    }
}

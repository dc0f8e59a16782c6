//! Property test: every constructible DFS model round-trips through the
//! DSL (`to_text` → `parse`) preserving structure, semantics-relevant
//! attributes, and — on small models — the entire reachable LTS size.

use dfs_core::{dsl, Dfs, DfsBuilder, Lts, TokenValue};
use proptest::prelude::*;
use rap_petri::reachability::ExploreConfig;

fn arb_dfs() -> impl Strategy<Value = Dfs> {
    let kinds = proptest::collection::vec(0u8..5, 2..7);
    let marks = proptest::collection::vec(any::<(bool, bool)>(), 2..7);
    let delays = proptest::collection::vec(0u8..4, 2..7);
    let edges = proptest::collection::vec((0usize..7, 0usize..7, any::<bool>()), 1..10);
    (kinds, marks, delays, edges).prop_filter_map(
        "invalid model",
        |(kinds, marks, delays, edges)| {
            let mut b = DfsBuilder::new();
            let n = kinds.len().min(marks.len()).min(delays.len());
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
                    let nb = nb.delay(f64::from(delays[i]) * 0.5 + 0.5);
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
            for (from, to, inv) in edges {
                if from < n && to < n && from != to {
                    if inv {
                        b.connect_inverted(ids[from], ids[to]);
                    } else {
                        b.connect(ids[from], ids[to]);
                    }
                }
            }
            b.finish().ok()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dsl_roundtrip_preserves_structure_and_behaviour(dfs in arb_dfs()) {
        let text = dsl::to_text(&dfs);
        let again = dsl::parse(&text).expect("rendered DSL parses");
        prop_assert_eq!(again.node_count(), dfs.node_count());
        prop_assert_eq!(again.edge_count(), dfs.edge_count());
        for n in dfs.nodes() {
            let node = dfs.node(n);
            let m = again.node_by_name(&node.name).expect("node survives");
            prop_assert_eq!(again.kind(m), node.kind);
            prop_assert_eq!(again.node(m).initial, node.initial);
            prop_assert!((again.node(m).delay - node.delay).abs() < 1e-12);
            prop_assert_eq!(again.guard_mode(m), dfs.guard_mode(n));
            prop_assert_eq!(again.guards(m).len(), dfs.guards(n).len());
        }
        // behavioural equality (cheap proxy): identical LTS sizes
        let cfg = ExploreConfig {
            max_states: 5_000,
            ..ExploreConfig::default()
        };
        let a = Lts::explore_with(&dfs, &cfg, None);
        let b = Lts::explore_with(&again, &cfg, None);
        prop_assume!(!a.is_truncated());
        prop_assert_eq!(a.len(), b.len());
    }
}

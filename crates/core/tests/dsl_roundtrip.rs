//! Property tests: every constructible DFS model round-trips through the
//! DSL (`to_text` → `parse`) preserving structure, semantics-relevant
//! attributes (guards and guard modes among them), and — on small models —
//! the entire reachable LTS size; and verification reads a model's
//! structure, never its node names.

#[path = "common/random.rs"]
mod random;

use dfs_core::verify::{verify, VerifyConfig};
use dfs_core::{dsl, Dfs, Lts, NodeId};
use proptest::prelude::*;
use random::{arb_dense_draws, arb_dfs, build, plain_name};
use rap_petri::reachability::ExploreConfig;

/// The guards of `n`, as sorted `(source name, inverted)` pairs.
fn guard_names(dfs: &Dfs, n: NodeId) -> Vec<(String, bool)> {
    let mut guards: Vec<_> = dfs
        .guards(n)
        .iter()
        .map(|g| (dfs.node(g.node).name.clone(), g.inverted))
        .collect();
    guards.sort();
    guards
}

/// Seven node names over non-whitespace characters that the Reach and DSL
/// syntaxes give a meaning to, the quote and the backslash among them.
fn arb_names() -> impl Strategy<Value = Vec<String>> {
    const ALPHABET: [char; 12] = ['"', '\\', 'c', '1', '_', '(', ')', '|', '&', '!', '*', '#'];
    let name = proptest::collection::vec(0..ALPHABET.len(), 1..5)
        .prop_map(|cs| cs.into_iter().map(|c| ALPHABET[c]).collect::<String>());
    proptest::collection::vec(name, 7)
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
            prop_assert_eq!(guard_names(&again, m), guard_names(&dfs, n));
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

    /// Names reach verification only as place names, which the
    /// control-mismatch predicate quotes: any name the DSL accepts, quotes
    /// and backslashes included, verifies without a panic and with the
    /// same verdicts as the plainly named model.
    #[test]
    fn verification_is_blind_to_node_names(
        draws in arb_dense_draws()
            .prop_filter_map("invalid model", |d| build(&d, plain_name).map(|_| d)),
        names in arb_names(),
    ) {
        let plain = build(&draws, plain_name).expect("filtered to build");
        // names may collide, which `DfsBuilder::finish` rejects
        let renamed = build(&draws, |i| names[i].clone());
        prop_assume!(renamed.is_some());
        let renamed = renamed.expect("assumed");
        let cfg = VerifyConfig { max_states: 5_000 };
        match (verify(&plain, &cfg), verify(&renamed, &cfg)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.states, b.states);
                prop_assert_eq!(a.deadlocks.len(), b.deadlocks.len());
                prop_assert_eq!(a.control_mismatch.is_some(), b.control_mismatch.is_some());
                prop_assert_eq!(a.hazards.len(), b.hazards.len());
            }
            (a, b) => prop_assert_eq!(a.err(), b.err()),
        }
    }
}

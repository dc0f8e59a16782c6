//! Property tests: every constructible DFS model round-trips through the
//! DSL (`to_text` → `parse`) preserving structure, semantics-relevant
//! attributes (guards and guard modes among them), and — on small models —
//! the entire reachable LTS size; and verification reads a model's
//! structure, never its node names.

use dfs_core::verify::{verify, VerifyConfig};
use dfs_core::{dsl, Dfs, DfsBuilder, GuardMode, Lts, NodeId, TokenValue};
use proptest::prelude::*;
use rap_petri::reachability::ExploreConfig;

/// One model's draws: per node its kind, marking, delay and guard mode,
/// then the edges between the nodes.
type Draws = (
    Vec<u8>,
    Vec<(bool, bool)>,
    Vec<u8>,
    Vec<u8>,
    Vec<(usize, usize, bool)>,
);

/// The model `draws` describe, its node `i` named `name(i)`; `None` when
/// `DfsBuilder::finish` rejects it.
fn build(
    (kinds, marks, delays, modes, edges): &Draws,
    name: impl Fn(usize) -> String,
) -> Option<Dfs> {
    const MODES: [GuardMode; 3] = [GuardMode::Unanimous, GuardMode::And, GuardMode::Or];
    let mut b = DfsBuilder::new();
    let n = kinds.len();
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let name = name(i);
            let nb = match kinds[i] {
                0 => b.logic(name),
                1 => b.register(name),
                2 => b.control(name),
                3 => b.push(name),
                _ => b.pop(name),
            };
            let nb = nb
                .delay(f64::from(delays[i]) * 0.5 + 0.5)
                .guard_mode(MODES[usize::from(modes[i])]);
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
    for &(from, to, inv) in edges {
        if from != to {
            if inv {
                b.connect_inverted(ids[from], ids[to]);
            } else {
                b.connect(ids[from], ids[to]);
            }
        }
    }
    b.finish().ok()
}

/// `n` nodes and `n..2n` edges between them, dense enough that nodes with
/// two control guards come up: their control-mismatch predicate names
/// both, and their guard mode decides how the guards combine.
fn arb_dense_draws() -> impl Strategy<Value = Draws> {
    (3usize..7).prop_flat_map(|n| {
        (
            proptest::collection::vec(0u8..5, n),
            proptest::collection::vec(any::<(bool, bool)>(), n),
            proptest::collection::vec(0u8..4, n),
            proptest::collection::vec(0u8..3, n),
            proptest::collection::vec((0..n, 0..n, any::<bool>()), n..2 * n),
        )
    })
}

fn plain_name(i: usize) -> String {
    format!("n{i}")
}

fn arb_dfs() -> impl Strategy<Value = Dfs> {
    arb_dense_draws().prop_filter_map("invalid model", |d| build(&d, plain_name))
}

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

//! Random DFS models: per node a kind, a marking, a delay and a guard
//! mode, then `n..2n` edges between the `n` nodes, dense enough that nodes
//! with two control guards come up. Shared by the DSL round-trip, the
//! bisimulation suite and the workspace's engine-equivalence tests.

use dfs_core::{Dfs, DfsBuilder, GuardMode, TokenValue};
use proptest::prelude::*;

/// One model's draws: per node its kind, marking, delay and guard mode,
/// then the edges between the nodes.
pub type Draws = (
    Vec<u8>,
    Vec<(bool, bool)>,
    Vec<u8>,
    Vec<u8>,
    Vec<(usize, usize, bool)>,
);

/// The model `draws` describe, its node `i` named `name(i)`; `None` when
/// `DfsBuilder::finish` rejects it.
pub fn build(
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
pub fn arb_dense_draws() -> impl Strategy<Value = Draws> {
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

/// Node `i`'s name: `n{i}`.
pub fn plain_name(i: usize) -> String {
    format!("n{i}")
}

/// A random model of plainly named nodes that the builder accepts.
pub fn arb_dfs() -> impl Strategy<Value = Dfs> {
    arb_dense_draws().prop_filter_map("invalid model", |d| build(&d, plain_name))
}

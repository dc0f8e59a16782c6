//! **rap-oracle** — the seed state-space explorers, kept as test oracles.
//!
//! The library explores every state space on one engine
//! (`rap_petri::engine::explore`), behind both the Petri-net backend and the
//! direct DFS semantics. This crate holds the original explorers that engine
//! replaced, so differential tests can check it against something that
//! shares none of its code. It is a dev-dependency only and never ships.
//!
//! Both explorers run the seed algorithm:
//!
//! * breadth-first search from the initial state, with a `HashMap` dedup
//!   index over cloned state keys;
//! * a full enabledness scan per state, firing in transition (Petri) or
//!   (node, event) (DFS) order;
//! * truncation at the first new state past the budget; the successors
//!   found before it stay recorded, the overflowing edge does not;
//! * the dead list from a second full scan of every state without edges.
//!
//! They read the nets only through their public firing rule
//! ([`PetriNet::initial_marking`], [`PetriNet::is_enabled`],
//! [`PetriNet::fire`]). The DFS explorer fires by [`enabled_events`], this
//! crate's own hand-written statement of eqs. (1)–(5), node kind by node
//! kind, over the model's public structure and [`DfsState`]'s accessors;
//! it shares no code with the firing rule `dfs-core` derives, so the
//! engine-equivalence tests check that rule as well as the engine. Both
//! explorers return plain vectors ([`Explored`]), never the engine's
//! `StateSpace` (which an `Lts` wraps), so a defect in one of the engine's
//! accessors cannot show up on the oracle's side too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dfs_core::{Dfs, DfsState, Event, GuardMode, NodeId, NodeKind, RRef, TokenValue};
use rap_petri::{Marking, PetriNet, TransitionId};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// A breadth-first exploration, materialised as plain vectors indexed by
/// state number (discovery order, 0 = initial state).
#[derive(Debug, Clone)]
pub struct Explored<S, A> {
    /// The states, in discovery order.
    pub states: Vec<S>,
    /// Per state: its outgoing edges `(action, successor)` in firing order.
    /// Empty for states the budget left unexpanded.
    pub successors: Vec<Vec<(A, usize)>>,
    /// Per state: the state whose expansion discovered it and the action
    /// fired there; `None` for the initial state.
    pub parents: Vec<Option<(usize, A)>>,
    /// The states with nothing enabled, ascending.
    pub dead: Vec<usize>,
    /// Whether the state budget cut the exploration.
    pub truncated: bool,
}

impl<S, A: Copy> Explored<S, A> {
    /// Number of states discovered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Always false (the initial state exists); pairs with
    /// [`Explored::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The actions along the parent links from the initial state to
    /// state `i`.
    #[must_use]
    pub fn trace_to(&self, mut i: usize) -> Vec<A> {
        let mut rev = Vec::new();
        while let Some((parent, a)) = self.parents[i] {
            rev.push(a);
            i = parent;
        }
        rev.reverse();
        rev
    }
}

/// Explores the reachable markings of `net`, storing at most `max_states`.
#[must_use]
pub fn explore_net(net: &PetriNet, max_states: usize) -> Explored<Marking, TransitionId> {
    bfs(
        net.initial_marking(),
        max_states,
        |m| {
            net.transitions()
                .filter(|&t| net.is_enabled(t, m))
                .collect()
        },
        |m, t| net.fire(t, m).expect("an enabled transition fires"),
    )
}

/// Explores the reachable states of `dfs` under its direct semantics,
/// storing at most `max_states`.
#[must_use]
pub fn explore_dfs(dfs: &Dfs, max_states: usize) -> Explored<DfsState, Event> {
    bfs(
        DfsState::initial(dfs),
        max_states,
        |s| enabled_events(dfs, s),
        |s, ev| dfs.apply(s, ev),
    )
}

/// The events of `dfs` enabled in `s`, in (node, event) order: eqs.
/// (1)–(5) written out by hand, node kind by node kind, with the
/// resolutions `dfs_core::semantics` documents (guard-edge
/// synchronisation, the pop-`Mt` exemption for control registers, and
/// every test of a push in a preset or R-preset through `Mt`).
#[must_use]
pub fn enabled_events(dfs: &Dfs, s: &DfsState) -> Vec<Event> {
    let mut out = Vec::new();
    for n in dfs.nodes() {
        node_events(dfs, s, n, &mut out);
    }
    out
}

/// Result of combining a node's control guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GuardStatus {
    /// All guards present and combined to this value.
    Ready(TokenValue),
    /// Some guard has no token yet, or unanimous guards disagree.
    Blocked,
}

/// Appends the events of node `n` enabled in `s` to `out`.
fn node_events(dfs: &Dfs, s: &DfsState, n: NodeId, out: &mut Vec<Event>) {
    match dfs.kind(n) {
        NodeKind::Logic => {
            if can_eval(dfs, s, n) {
                out.push(Event::Eval(n));
            }
            if can_reset(dfs, s, n) {
                out.push(Event::Reset(n));
            }
        }
        NodeKind::Register => {
            if !s.is_marked(n) && mark_core(dfs, s, n) {
                out.push(Event::Mark(n, TokenValue::True));
            }
            if s.is_marked(n) && unmark_core(dfs, s, n) {
                out.push(Event::Unmark(n));
            }
        }
        NodeKind::Control => {
            if !s.is_marked(n) && mark_core(dfs, s, n) {
                let sources: Vec<RRef> = dfs
                    .r_preset(n)
                    .iter()
                    .copied()
                    .filter(|r| dfs.kind(r.node) == NodeKind::Control)
                    .collect();
                if sources.is_empty() {
                    // data-dependent predicate: free choice
                    out.push(Event::Mark(n, TokenValue::True));
                    out.push(Event::Mark(n, TokenValue::False));
                } else if let GuardStatus::Ready(v) = combine(dfs.guard_mode(n), &sources, s) {
                    out.push(Event::Mark(n, v));
                }
            }
            if s.is_marked(n) && unmark_core(dfs, s, n) {
                out.push(Event::Unmark(n));
            }
        }
        NodeKind::Push => {
            if !s.is_marked(n) {
                match combine(dfs.guard_mode(n), dfs.guards(n), s) {
                    GuardStatus::Ready(TokenValue::True) if mark_core(dfs, s, n) => {
                        out.push(Event::Mark(n, TokenValue::True));
                    }
                    // consume-and-destroy: the R-postset is not involved
                    GuardStatus::Ready(TokenValue::False) if mark_core_preset(dfs, s, n) => {
                        out.push(Event::Mark(n, TokenValue::False));
                    }
                    _ => {}
                }
            }
            let may = match s.token_value(n) {
                None => false,
                Some(TokenValue::True) => unmark_core(dfs, s, n),
                // a false token is destroyed once the preset withdraws
                Some(TokenValue::False) => unmark_core_preset(dfs, s, n),
            };
            if may {
                out.push(Event::Unmark(n));
            }
        }
        NodeKind::Pop => {
            if !s.is_marked(n) {
                match combine(dfs.guard_mode(n), dfs.guards(n), s) {
                    GuardStatus::Ready(TokenValue::True) if mark_core(dfs, s, n) => {
                        out.push(Event::Mark(n, TokenValue::True));
                    }
                    // spontaneous empty token: ignores the data preset
                    GuardStatus::Ready(TokenValue::False)
                        if dfs.r_postset(n).iter().all(|q| !s.is_marked(q.node)) =>
                    {
                        out.push(Event::Mark(n, TokenValue::False));
                    }
                    _ => {}
                }
            }
            let may = match s.token_value(n) {
                None => false,
                Some(TokenValue::True) => unmark_core(dfs, s, n),
                // an empty token moves on once the guards have moved on
                // and the downstream has taken it
                Some(TokenValue::False) => {
                    dfs.guards(n).iter().all(|g| !s.is_marked(g.node))
                        && dfs.r_postset(n).iter().all(|q| match dfs.kind(q.node) {
                            NodeKind::Pop => s.is_true_marked(q.node),
                            _ => s.is_marked(q.node),
                        })
                }
            };
            if may {
                out.push(Event::Unmark(n));
            }
        }
    }
}

/// `C↑` (eqs. (1), (3)): every predecessor evaluated or marked, pushes
/// true-marked.
fn can_eval(dfs: &Dfs, s: &DfsState, l: NodeId) -> bool {
    !s.is_active(l)
        && dfs.preds(l).iter().all(|e| match dfs.kind(e.node) {
            NodeKind::Logic => s.is_active(e.node),
            NodeKind::Push => s.is_true_marked(e.node),
            _ => s.is_marked(e.node),
        })
}

/// `C↓` (eqs. (1), (3)): every predecessor reset or empty, pushes not
/// true-marked.
fn can_reset(dfs: &Dfs, s: &DfsState, l: NodeId) -> bool {
    s.is_active(l)
        && dfs.preds(l).iter().all(|e| match dfs.kind(e.node) {
            NodeKind::Push => !s.is_true_marked(e.node),
            _ => !s.is_active(e.node),
        })
}

/// The static part of `M↑` (eqs. (2), (4)): the preset half and an empty
/// R-postset.
fn mark_core(dfs: &Dfs, s: &DfsState, r: NodeId) -> bool {
    mark_core_preset(dfs, s, r) && dfs.r_postset(r).iter().all(|q| !s.is_marked(q.node))
}

/// The preset half of `M↑`: preset logic evaluated, `?r` marked, pushes
/// true-marked.
fn mark_core_preset(dfs: &Dfs, s: &DfsState, r: NodeId) -> bool {
    dfs.preds(r)
        .iter()
        .filter(|e| dfs.kind(e.node) == NodeKind::Logic)
        .all(|e| s.is_active(e.node))
        && dfs.r_preset(r).iter().all(|q| match dfs.kind(q.node) {
            NodeKind::Push => s.is_true_marked(q.node),
            _ => s.is_marked(q.node),
        })
}

/// The preset half of `M↓`: preset logic reset, `?r` empty, pushes not
/// true-marked.
fn unmark_core_preset(dfs: &Dfs, s: &DfsState, r: NodeId) -> bool {
    dfs.preds(r)
        .iter()
        .filter(|e| dfs.kind(e.node) == NodeKind::Logic)
        .all(|e| !s.is_active(e.node))
        && dfs.r_preset(r).iter().all(|q| match dfs.kind(q.node) {
            NodeKind::Push => !s.is_true_marked(q.node),
            _ => !s.is_marked(q.node),
        })
}

/// The static part of `M↓` (eqs. (2), (4)): the preset half and a marked
/// R-postset, pops true-marked unless `r` is a control register.
fn unmark_core(dfs: &Dfs, s: &DfsState, r: NodeId) -> bool {
    let exempt_pops = dfs.kind(r) == NodeKind::Control;
    unmark_core_preset(dfs, s, r)
        && dfs.r_postset(r).iter().all(|q| match dfs.kind(q.node) {
            NodeKind::Pop if !exempt_pops => s.is_true_marked(q.node),
            _ => s.is_marked(q.node),
        })
}

/// Combines `guards` under `mode`; a node without guards is
/// true-controlled.
fn combine(mode: GuardMode, guards: &[RRef], s: &DfsState) -> GuardStatus {
    if guards.is_empty() {
        return GuardStatus::Ready(TokenValue::True);
    }
    if guards.iter().any(|g| !s.is_marked(g.node)) {
        return GuardStatus::Blocked;
    }
    // the effective value of a marked guard, through the arc inversion
    let values: Vec<bool> = guards
        .iter()
        .map(|g| s.is_true_marked(g.node) != g.inverted)
        .collect();
    let value = match mode {
        GuardMode::Unanimous if values.windows(2).any(|w| w[0] != w[1]) => {
            return GuardStatus::Blocked;
        }
        GuardMode::Unanimous => values[0],
        GuardMode::And => values.iter().all(|&v| v),
        GuardMode::Or => values.iter().any(|&v| v),
    };
    GuardStatus::Ready(TokenValue::from(value))
}

/// The seed breadth-first search over any firing rule: `enabled` lists a
/// state's enabled actions in firing order, `fire` applies one of them.
fn bfs<S: Clone + Eq + Hash, A: Copy>(
    initial: S,
    max_states: usize,
    enabled: impl Fn(&S) -> Vec<A>,
    fire: impl Fn(&S, A) -> S,
) -> Explored<S, A> {
    let mut index: HashMap<S, usize> = HashMap::from([(initial.clone(), 0)]);
    let mut out = Explored {
        states: vec![initial],
        successors: vec![Vec::new()],
        parents: vec![None],
        dead: Vec::new(),
        truncated: false,
    };
    let mut queue = VecDeque::from([0usize]);

    'bfs: while let Some(s) = queue.pop_front() {
        let state = out.states[s].clone();
        for a in enabled(&state) {
            let succ = match index.entry(fire(&state, a)) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    if out.states.len() >= max_states {
                        out.truncated = true;
                        break 'bfs;
                    }
                    let id = out.states.len();
                    out.states.push(e.key().clone());
                    out.successors.push(Vec::new());
                    out.parents.push(Some((s, a)));
                    queue.push_back(id);
                    e.insert(id);
                    id
                }
            };
            out.successors[s].push((a, succ));
        }
    }

    // deadness by a full scan of the state; a state with an edge is
    // skipped, the edge already proves an action enabled
    out.dead = (0..out.states.len())
        .filter(|&i| out.successors[i].is_empty() && enabled(&out.states[i]).is_empty())
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_petri::PlaceId;

    /// A ring of `n` places with one token circulating.
    fn ring(n: usize) -> PetriNet {
        let mut net = PetriNet::new();
        let places: Vec<PlaceId> = (0..n)
            .map(|i| net.add_place(format!("p{i}"), i == 0))
            .collect();
        for i in 0..n {
            let t = net.add_transition(format!("t{i}"));
            net.consume(t, places[i]);
            net.produce(t, places[(i + 1) % n]);
        }
        net
    }

    #[test]
    fn ring_is_one_cycle_with_replayable_traces() {
        let net = ring(5);
        let x = explore_net(&net, usize::MAX);
        assert_eq!(x.len(), 5);
        assert!(!x.truncated);
        assert!(x.dead.is_empty());
        for i in 0..x.len() {
            assert_eq!(x.successors[i].len(), 1);
            assert_eq!(x.trace_to(i).len(), i);
            let mut m = net.initial_marking();
            for t in x.trace_to(i) {
                m = net.fire(t, &m).unwrap();
            }
            assert_eq!(m, x.states[i]);
        }
    }

    #[test]
    fn budget_stops_at_the_first_new_state_past_it() {
        let x = explore_net(&ring(10), 3);
        assert!(x.truncated);
        assert_eq!(x.len(), 3);
        // the last stored state is unexpanded but live: not dead
        assert!(x.successors[2].is_empty());
        assert!(x.dead.is_empty());
    }

    #[test]
    fn a_sink_place_is_dead() {
        let mut net = PetriNet::new();
        let a = net.add_place("a", true);
        let b = net.add_place("b", false);
        let t = net.add_transition("t");
        net.consume(t, a);
        net.produce(t, b);
        let x = explore_net(&net, usize::MAX);
        assert_eq!(x.len(), 2);
        assert_eq!(x.dead, vec![1]);
        assert_eq!(x.parents[1], Some((0, t)));
    }
}

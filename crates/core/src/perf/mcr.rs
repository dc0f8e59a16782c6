//! The maximum cycle ratio of an event graph, by Howard's policy
//! iteration — the one solver behind [`super::analyse`].
//!
//! For a cycle `C` with total delay `W(C)` and total token offset `T(C)`,
//! the steady-state period of the max-plus system is
//! `λ* = max_C W(C) / T(C)`.
//!
//! Cycles with `T(C) = 0` and `W(C) > 0` make the period infinite — the
//! model has a structural deadlock; they are detected first via the
//! strongly-connected components of the zero-token subgraph.
//!
//! Otherwise policy iteration finds a critical cycle (Cochet-Terrasson,
//! Cohen, Gaubert, McGettrick & Quadrat, IFAC 1998; the fastest solver in
//! Dasdan's comparison, ACM TODAES 2004). Every vertex that lies on or
//! leads to a cycle picks one outgoing arc, its *policy*. Evaluating the
//! policy gives each vertex the ratio of the cycle it reaches and a bias
//! value; vertices then switch to arcs that reach a higher ratio, or the
//! same ratio with a higher bias, until no arc improves on its source by
//! more than `1e-9 ×` the largest arc weight. The threshold is relative,
//! so scaling every weight by a power of two changes none of the solver's
//! decisions: the critical cycle stays the same and the ratio scales
//! exactly.
//!
//! The reported ratio is not the iteration's running estimate but `W / T`
//! summed over the returned cycle's arcs ([`cycle_totals`]), so it is
//! exact whenever those sums are exact in `f64` — as they are for delays
//! that are small multiples of a common power of two.

use super::{EventGraph, McrError};

/// Result of the MCR computation.
#[derive(Debug, Clone)]
pub struct McrSolution {
    /// The maximum cycle ratio (steady-state period).
    pub ratio: f64,
    /// A critical cycle as a vertex sequence `v0, v1, …, v0`.
    pub cycle: Vec<usize>,
    /// The arc indices actually traversed along `cycle`
    /// (`cycle_arcs[i]` connects `cycle[i]` to `cycle[i + 1]`). Reported
    /// delays/tokens must come from these, not from a vertex-pair lookup:
    /// parallel arcs between the same vertices can carry different weights.
    pub cycle_arcs: Vec<usize>,
}

/// Safety cap on policy-improvement rounds. Policy iteration stops on its
/// own; the cap only bounds the work should rounding ever make it cycle.
const MAX_ROUNDS: usize = 10_000;

/// Computes the maximum cycle ratio of `g`.
///
/// `ratio` is `W / T` over `cycle_arcs`, and `0` (with an empty cycle)
/// when `g` has no cycle.
///
/// # Errors
///
/// [`McrError::TokenFreeCycle`] when a token-free positive-delay cycle
/// exists (infinite period). Render it with
/// [`McrError::into_dfs_error`](super::McrError::into_dfs_error) to get
/// real event names.
pub fn maximum_cycle_ratio(g: &EventGraph) -> Result<McrSolution, McrError> {
    if let Some(vertices) = token_free_cycle(g) {
        return Err(McrError::TokenFreeCycle { vertices });
    }
    let (cycle, cycle_arcs) = critical_cycle(g);
    let (delay, tokens) = cycle_totals(g, &cycle_arcs);
    Ok(McrSolution {
        ratio: if tokens > 0 {
            delay / f64::from(tokens)
        } else {
            0.0
        },
        cycle,
        cycle_arcs,
    })
}

/// Total (weight, tokens) along the arc indices of an extracted cycle.
#[must_use]
pub fn cycle_totals(g: &EventGraph, cycle_arcs: &[usize]) -> (f64, u32) {
    cycle_arcs.iter().fold((0.0, 0u32), |(w, t), &ai| {
        let a = &g.arcs[ai];
        (w + a.weight, t + a.tokens)
    })
}

/// Howard's policy iteration on a graph without token-free
/// positive-weight cycles: a critical cycle as vertices `v0, …, v0` plus
/// the arc indices traversed, or two empty lists when `g` is acyclic.
fn critical_cycle(g: &EventGraph) -> (Vec<usize>, Vec<usize>) {
    let n = g.vertices.len();
    let out = g.out_adjacency();
    let alive = cyclic_core(g, out);
    if !alive.iter().any(|&a| a) {
        return (Vec::new(), Vec::new());
    }
    let eps = 1e-9 * g.arcs.iter().fold(0.0f64, |m, a| m.max(a.weight.abs()));

    // initial policy: the heaviest arc into the core
    let mut policy = vec![usize::MAX; n];
    for v in (0..n).filter(|&v| alive[v]) {
        policy[v] = out[v]
            .iter()
            .copied()
            .filter(|&ai| alive[g.arcs[ai].to])
            .max_by(|&x, &y| g.arcs[x].weight.total_cmp(&g.arcs[y].weight))
            .expect("a core vertex has a successor in the core");
    }

    let mut lambda = vec![f64::NEG_INFINITY; n];
    let mut value = vec![0.0f64; n];
    for _ in 0..MAX_ROUNDS {
        evaluate_policy(g, &alive, &policy, &mut lambda, &mut value);
        let mut improved = false;
        // first reach a higher cycle ratio …
        for (ai, a) in g.arcs.iter().enumerate() {
            if alive[a.from] && alive[a.to] && lambda[a.to] > lambda[a.from] + eps {
                policy[a.from] = ai;
                lambda[a.from] = lambda[a.to];
                improved = true;
            }
        }
        // … and only then a higher bias at the same ratio
        if !improved {
            for (ai, a) in g.arcs.iter().enumerate() {
                if alive[a.from]
                    && alive[a.to]
                    && (lambda[a.to] - lambda[a.from]).abs() <= eps
                    && value[a.to] + a.weight - lambda[a.from] * f64::from(a.tokens)
                        > value[a.from] + eps
                {
                    policy[a.from] = ai;
                    improved = true;
                }
            }
        }
        if !improved {
            break;
        }
    }

    let best = (0..n)
        .filter(|&v| alive[v])
        .max_by(|&x, &y| lambda[x].total_cmp(&lambda[y]))
        .expect("nonempty core");
    policy_cycle(g, &policy, best)
}

/// The vertices that lie on or lead to a cycle: peels vertices with no arc
/// into a live vertex. A worklist keyed on the live out-degree makes this
/// O(V + E): when `v` dies, only its in-neighbours can lose their last live
/// successor.
fn cyclic_core(g: &EventGraph, out: &[Vec<usize>]) -> Vec<bool> {
    let n = g.vertices.len();
    let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); n];
    for a in &g.arcs {
        incoming[a.to].push(a.from);
    }
    let mut alive = vec![true; n];
    let mut live_out: Vec<usize> = out.iter().map(Vec::len).collect();
    let mut work: Vec<usize> = (0..n).filter(|&v| live_out[v] == 0).collect();
    for &v in &work {
        alive[v] = false;
    }
    while let Some(v) = work.pop() {
        for &u in &incoming[v] {
            if alive[u] {
                live_out[u] -= 1;
                if live_out[u] == 0 {
                    alive[u] = false;
                    work.push(u);
                }
            }
        }
    }
    alive
}

/// Evaluates the policy: the ratio of the cycle each core vertex reaches
/// (`lambda`) and its bias (`value`), with `value[u] = w − λ·t +
/// value[succ]` along policy arcs and each cycle's lowest vertex anchored
/// at 0. A fixed anchor keeps the biases of a cycle the policy kept
/// unchanged between rounds, wherever the walk happens to enter it.
fn evaluate_policy(
    g: &EventGraph,
    alive: &[bool],
    policy: &[usize],
    lambda: &mut [f64],
    value: &mut [f64],
) {
    let n = alive.len();
    let mut visited = vec![0u32; n]; // 0 = unvisited, else walk id
    let mut walk = 0u32;
    let mut order = Vec::new();
    for start in 0..n {
        if !alive[start] || visited[start] != 0 {
            continue;
        }
        walk += 1;
        // follow the policy until a vertex already evaluated or on this walk
        order.clear();
        let mut v = start;
        while visited[v] == 0 {
            visited[v] = walk;
            order.push(v);
            v = g.arcs[policy[v]].to;
        }
        let mut tail = order.len();
        if visited[v] == walk {
            // the walk closed a new cycle
            let entry = order.iter().position(|&x| x == v).expect("on the walk");
            let cycle = &order[entry..];
            let (w, t) = cycle.iter().fold((0.0, 0u32), |(w, t), &u| {
                let a = &g.arcs[policy[u]];
                (w + a.weight, t + a.tokens)
            });
            // a token-free cycle here has no positive weight: ratio 0
            let ratio = if t > 0 { w / f64::from(t) } else { 0.0 };
            let root = *cycle.iter().min().expect("nonempty cycle");
            lambda[root] = ratio;
            value[root] = 0.0;
            let mut u = root;
            loop {
                let a = &g.arcs[policy[u]];
                if a.to == root {
                    break;
                }
                lambda[a.to] = ratio;
                value[a.to] = value[u] - (a.weight - ratio * f64::from(a.tokens));
                u = a.to;
            }
            tail = entry;
        }
        // the walk's tree part hangs off the (now evaluated) vertex it hit
        for &u in order[..tail].iter().rev() {
            let a = &g.arcs[policy[u]];
            lambda[u] = lambda[a.to];
            value[u] = value[a.to] + a.weight - lambda[u] * f64::from(a.tokens);
        }
    }
}

/// The cycle reached by following the policy from `start`, listed from its
/// lowest vertex, as vertices plus the policy arc indices traversed (the
/// solver's actual arc choices — not re-derived from vertex pairs, which
/// would misattribute parallel arcs).
fn policy_cycle(g: &EventGraph, policy: &[usize], start: usize) -> (Vec<usize>, Vec<usize>) {
    let mut seen = vec![false; policy.len()];
    let mut v = start;
    while !seen[v] {
        seen[v] = true;
        v = g.arcs[policy[v]].to;
    }
    let mut root = v;
    let mut u = g.arcs[policy[v]].to;
    while u != v {
        root = root.min(u);
        u = g.arcs[policy[u]].to;
    }
    let mut cycle = vec![root];
    let mut arcs = Vec::new();
    let mut cur = root;
    loop {
        let ai = policy[cur];
        arcs.push(ai);
        cur = g.arcs[ai].to;
        cycle.push(cur);
        if cur == root {
            break;
        }
    }
    (cycle, arcs)
}

/// Finds a cycle with zero total tokens and positive total weight, if any.
fn token_free_cycle(g: &EventGraph) -> Option<Vec<usize>> {
    // SCCs of the zero-token subgraph (Tarjan, iterative), derived from the
    // graph's cached forward adjacency
    let n = g.vertices.len();
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for (v, row) in g.out_adjacency().iter().enumerate() {
        for &ai in row {
            let a = &g.arcs[ai];
            if a.tokens == 0 {
                adj[v].push((a.to, a.weight));
            }
        }
    }
    let scc = tarjan_scc(&adj);
    // a zero-token cycle with positive weight exists iff some SCC contains
    // an internal arc with positive weight, or any internal arc at all and
    // we only care about positive-delay cycles
    for a in &g.arcs {
        if a.tokens == 0 && a.weight > 0.0 && scc[a.from] == scc[a.to] {
            // find an actual cycle through this arc via BFS back from `to`
            // to `from` inside the zero-token subgraph
            if let Some(mut path) = bfs_path(&adj, a.to, a.from, scc[a.from], &scc) {
                let mut cycle = vec![a.from];
                cycle.append(&mut path);
                return Some(cycle);
            }
        }
    }
    None
}

fn bfs_path(
    adj: &[Vec<(usize, f64)>],
    from: usize,
    to: usize,
    comp: usize,
    scc: &[usize],
) -> Option<Vec<usize>> {
    use std::collections::VecDeque;
    let n = adj.len();
    let mut pred = vec![usize::MAX; n];
    let mut seen = vec![false; n];
    let mut q = VecDeque::from([from]);
    seen[from] = true;
    while let Some(v) = q.pop_front() {
        if v == to {
            let mut path = vec![to];
            let mut cur = to;
            while cur != from {
                cur = pred[cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for &(w, _) in &adj[v] {
            if !seen[w] && scc[w] == comp {
                seen[w] = true;
                pred[w] = v;
                q.push_back(w);
            }
        }
    }
    // from == to case: self component, single vertex with self-loop
    None
}

fn tarjan_scc(adj: &[Vec<(usize, f64)>]) -> Vec<usize> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    // iterative Tarjan
    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }
    for s in 0..n {
        if index[s] != usize::MAX {
            continue;
        }
        let mut call = vec![Frame::Enter(s)];
        while let Some(frame) = call.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    call.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut i) => {
                    let mut descend = None;
                    while i < adj[v].len() {
                        let w = adj[v][i].0;
                        i += 1;
                        if index[w] == usize::MAX {
                            descend = Some(w);
                            break;
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    if let Some(w) = descend {
                        call.push(Frame::Resume(v, i));
                        call.push(Frame::Enter(w));
                        continue;
                    }
                    if low[v] == index[v] {
                        while let Some(w) = stack.pop() {
                            on_stack[w] = false;
                            comp[w] = next_comp;
                            if w == v {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                    // propagate low to parent
                    if let Some(Frame::Resume(parent, _)) = call.last() {
                        let parent = *parent;
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
    }
    comp
}

/// Brute-force MCR by enumerating all simple cycles (test oracle; only
/// usable on small graphs).
#[must_use]
pub fn brute_force_mcr(g: &EventGraph, max_len: usize) -> Option<f64> {
    let n = g.vertices.len();
    let mut best: Option<f64> = None;
    let adj: Vec<Vec<&super::EventArc>> = g
        .out_adjacency()
        .iter()
        .map(|row| row.iter().map(|&ai| &g.arcs[ai]).collect())
        .collect();
    // DFS from each vertex, only visiting vertices >= start to avoid
    // duplicate cycles
    #[allow(clippy::too_many_arguments)] // recursive walker: explicit state beats a context struct here
    fn dfs(
        start: usize,
        v: usize,
        w: f64,
        t: u32,
        len: usize,
        max_len: usize,
        adj: &[Vec<&super::EventArc>],
        visited: &mut Vec<bool>,
        best: &mut Option<f64>,
    ) {
        if len > max_len {
            return;
        }
        for a in &adj[v] {
            if a.to == start {
                if t + a.tokens > 0 {
                    let ratio = (w + a.weight) / f64::from(t + a.tokens);
                    if best.is_none_or(|b| ratio > b) {
                        *best = Some(ratio);
                    }
                }
                continue;
            }
            if a.to > start && !visited[a.to] {
                visited[a.to] = true;
                dfs(
                    start,
                    a.to,
                    w + a.weight,
                    t + a.tokens,
                    len + 1,
                    max_len,
                    adj,
                    visited,
                    best,
                );
                visited[a.to] = false;
            }
        }
    }
    let mut visited = vec![false; n];
    for s in 0..n {
        visited[s] = true;
        dfs(s, s, 0.0, 0, 0, max_len, &adj, &mut visited, &mut best);
        visited[s] = false;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{EventArc, EventGraph, EventVertex};
    use crate::NodeId;

    fn graph(n: usize, arcs: &[(usize, usize, f64, u32)]) -> EventGraph {
        EventGraph::new(
            (0..n)
                .map(|i| EventVertex {
                    node: NodeId::from_index(i / 2),
                    plus: i % 2 == 0,
                })
                .collect(),
            arcs.iter()
                .map(|&(from, to, weight, tokens)| EventArc {
                    from,
                    to,
                    weight,
                    tokens,
                })
                .collect(),
        )
    }

    #[test]
    fn single_cycle_ratio() {
        let g = graph(2, &[(0, 1, 3.0, 1), (1, 0, 2.0, 1)]);
        let sol = maximum_cycle_ratio(&g).unwrap();
        assert!((sol.ratio - 2.5).abs() < 1e-9, "ratio {}", sol.ratio);
    }

    #[test]
    fn picks_the_worst_of_two_cycles() {
        // cycle A: ratio 2; cycle B: ratio 5
        let g = graph(
            4,
            &[
                (0, 1, 2.0, 1),
                (1, 0, 2.0, 1),
                (2, 3, 9.0, 1),
                (3, 2, 1.0, 1),
            ],
        );
        let sol = maximum_cycle_ratio(&g).unwrap();
        assert!((sol.ratio - 5.0).abs() < 1e-9, "ratio {}", sol.ratio);
        let brute = brute_force_mcr(&g, 8).unwrap();
        assert!((brute - 5.0).abs() < 1e-12);
    }

    #[test]
    fn token_free_cycle_detected() {
        let g = graph(2, &[(0, 1, 1.0, 0), (1, 0, 1.0, 0)]);
        assert!(maximum_cycle_ratio(&g).is_err());
    }

    #[test]
    fn zero_weight_token_free_cycle_is_harmless() {
        // tokens 0, weight 0: ratio 0/0 — not a deadlock, and another cycle
        // determines the period
        let g = graph(
            4,
            &[
                (0, 1, 0.0, 0),
                (1, 0, 0.0, 0),
                (2, 3, 4.0, 1),
                (3, 2, 0.0, 1),
            ],
        );
        let sol = maximum_cycle_ratio(&g).unwrap();
        assert!((sol.ratio - 2.0).abs() < 1e-9);
    }

    /// Random graphs with token-free arcs and dyadic weights `k × 2^j`:
    /// every cycle sum is exact, so the solver must equal brute force bit
    /// for bit. Scaled by 0.1 or 1e-9 the sums round, and the two may
    /// differ by that rounding only.
    #[test]
    fn matches_brute_force_on_random_graphs() {
        // deterministic pseudo-random graphs
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut rnd = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut compared = [0usize; 3];
        for case in 0..300 {
            let n = 6;
            let mut arcs = Vec::new();
            for _ in 0..12 {
                let from = (rnd() % n as u64) as usize;
                let to = (rnd() % n as u64) as usize;
                let weight = (rnd() % 16) as f64 * 2f64.powi((rnd() % 9) as i32 - 4);
                let tokens = (rnd() % 3) as u32;
                arcs.push((from, to, weight, tokens));
            }
            for (i, scale) in [1.0, 0.1, 1e-9].into_iter().enumerate() {
                let scaled: Vec<_> = arcs
                    .iter()
                    .map(|&(from, to, w, t)| (from, to, w * scale, t))
                    .collect();
                let g = graph(n, &scaled);
                // brute force skips token-free cycles; the solver rejects them
                let (Some(brute), Ok(sol)) = (brute_force_mcr(&g, 12), maximum_cycle_ratio(&g))
                else {
                    continue;
                };
                if scale == 1.0 {
                    assert_eq!(
                        sol.ratio.to_bits(),
                        brute.to_bits(),
                        "case {case}: mcr {} vs brute {brute}",
                        sol.ratio
                    );
                } else {
                    assert!(
                        (sol.ratio - brute).abs() <= 1e-15 * brute,
                        "case {case} × {scale}: mcr {} vs brute {brute}",
                        sol.ratio
                    );
                }
                compared[i] += 1;
            }
        }
        assert!(compared.iter().all(|&c| c >= 100), "compared {compared:?}");
    }
}

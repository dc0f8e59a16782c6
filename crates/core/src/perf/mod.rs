//! Performance analysis of DFS models (Fig. 5 of the paper).
//!
//! The Workcraft tool "reports the throughput of the slowest cycles and
//! highlights the bottleneck nodes in each cycle". This module reproduces
//! that analysis:
//!
//! 1. The DFS model is compiled into an **event-precedence graph**: two
//!    vertices per node (`+` = evaluate/mark, `-` = reset/release), arcs for
//!    every enabling dependency of the operational semantics, each weighted
//!    by the target event's latency and carrying a *token offset* (how many
//!    occurrences apart the dependency acts — the max-plus initial marking).
//! 2. The steady-state period equals the **maximum cycle ratio**
//!    `Σdelay / Σtokens` over the cycles of that graph; throughput is its
//!    reciprocal. One solver computes it, [`mcr::maximum_cycle_ratio`]
//!    (Howard's policy iteration; [`howard::howard_mcr`] is the same
//!    function under the algorithm's name), cross-checked against
//!    brute-force cycle enumeration and against the timed simulator in the
//!    test-suite.
//!
//! The event-graph construction covers both constraint families of the
//! spread-token semantics: the *forward* data dependencies and the
//! *backward* "bubble" dependencies (a register can only accept when its
//! R-postset is empty). The latter is why a 3-register ring with one token
//! has period `6·d` while a 4-register ring has period `4·d` — classic
//! asynchronous-ring behaviour that plain tokens-per-cycle counting misses.
//!
//! # Exactness contract
//!
//! The analysis is **exact** — not a bound — on every model whose choices
//! resolve deterministically under the `AlwaysTrue` free-choice policy (the
//! policy the timed simulator cross-checks use):
//!
//! * **Choice-free models** (logic + plain registers only) use the direct
//!   two-vertices-per-node construction of [`EventGraph::build`]
//!   ([`Construction::Direct`]).
//! * **Models with dynamic registers** — k-way wagging, round-robin
//!   distribution rings, reconfigurable stages with included *or excluded*
//!   configurations — are analysed on the **phase unfolding**
//!   ([`Construction::PhaseUnfolded`], [`mod@unfold`]): each event is
//!   replicated once per phase of the cyclic choice schedule, inter-phase
//!   dependencies are wired with token offsets that carry the wrap-around,
//!   and the resulting *choice-free* graph goes to the same MCR solvers.
//!   A k-way wagged pipeline, whose entry pushes accept a true token only
//!   every k-th item, is no longer flattened into an "always included"
//!   approximation — the former silent under-reporting of the period on
//!   multi-way wagging is gone.
//!
//! Exactness is certified by an independent oracle: the timed simulator's
//! steady-state period detection
//! ([`measure_steady_period`](crate::timed::measure_steady_period) finds an
//! exact recurrence of the timed configuration), and the two are asserted
//! equal in `tests/perf_cross_check.rs` for wagging up to 4 ways × depth 3.
//! [`PerfReport::construction`] records which construction produced a
//! report.
//!
//! The period is `W / T` summed over the critical cycle's arcs
//! ([`mcr::cycle_totals`]), not a numerical estimate, so it is exact
//! whenever those sums are exact in `f64`. That holds for every delay of
//! the paper's models: all are multiples of 0.25. The solver's stopping
//! threshold is relative to the largest delay, so scaling every delay by a
//! power of two scales the period and the critical cycle's delay exactly
//! and keeps the same critical cycle.
//!
//! Models whose free choices are *data-dependent* (a control register with
//! no upstream control sources) are analysed under the `AlwaysTrue`
//! resolution of those choices; other policies are the simulator's
//! territory.

pub mod howard;
pub mod mcr;
pub mod unfold;

use crate::graph::Dfs;
use crate::node::{NodeId, NodeKind};
use crate::DfsError;
use std::sync::OnceLock;

/// One vertex of the event graph: the `+` or `-` event of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventVertex {
    /// The DFS node.
    pub node: NodeId,
    /// `true` for the `+` (evaluate/mark) event, `false` for `-`.
    pub plus: bool,
}

/// A weighted arc of the event graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventArc {
    /// Source vertex index (into [`EventGraph::vertices`]).
    pub from: usize,
    /// Target vertex index.
    pub to: usize,
    /// Delay of the target event.
    pub weight: f64,
    /// Token offset of the dependency.
    pub tokens: u32,
}

/// The event-precedence graph of a DFS model.
#[derive(Debug, Clone, Default)]
pub struct EventGraph {
    /// Vertices: `2 * node_count`, `+` events first then `-` events is NOT
    /// the layout — vertex `2i` is `node i +`, vertex `2i+1` is `node i -`.
    pub vertices: Vec<EventVertex>,
    /// All dependency arcs.
    pub arcs: Vec<EventArc>,
    /// Lazily built forward adjacency (arc indices per source vertex),
    /// shared by the MCR solver and the brute-force oracle instead of being
    /// rebuilt per call. Tagged with the arc count it was built from so
    /// stale use is caught.
    out_cache: OnceLock<(usize, Vec<Vec<usize>>)>,
}

impl EventGraph {
    /// Builds a graph from explicit vertex and arc lists (mostly for tests;
    /// models use [`EventGraph::build`]).
    #[must_use]
    pub fn new(vertices: Vec<EventVertex>, arcs: Vec<EventArc>) -> Self {
        EventGraph {
            vertices,
            arcs,
            out_cache: OnceLock::new(),
        }
    }

    /// Vertex index of node `n`'s `+` or `-` event.
    #[must_use]
    pub fn vertex(n: NodeId, plus: bool) -> usize {
        n.index() * 2 + usize::from(!plus)
    }

    /// Forward adjacency: for each vertex, the indices of its outgoing arcs.
    ///
    /// Built once on first use and cached — `maximum_cycle_ratio` and
    /// `brute_force_mcr` both reuse it. Do not mutate `arcs` after the
    /// first call; the construction API builds the arc list up front.
    ///
    /// # Panics
    ///
    /// Panics if `arcs` grew or shrank since the cache was built (the
    /// mutate-after-analysis misuse a `OnceLock` cache cannot serve).
    #[must_use]
    pub fn out_adjacency(&self) -> &[Vec<usize>] {
        let (built_arcs, adj) = self.out_cache.get_or_init(|| {
            let mut out = vec![Vec::new(); self.vertices.len()];
            for (i, a) in self.arcs.iter().enumerate() {
                out[a.from].push(i);
            }
            (self.arcs.len(), out)
        });
        assert_eq!(
            *built_arcs,
            self.arcs.len(),
            "EventGraph::arcs was mutated after the adjacency cache was built"
        );
        adj
    }

    /// Builds the event graph of `dfs`.
    #[must_use]
    pub fn build(dfs: &Dfs) -> Self {
        let mut vertices = Vec::with_capacity(dfs.node_count() * 2);
        for n in dfs.nodes() {
            vertices.push(EventVertex {
                node: n,
                plus: true,
            });
            vertices.push(EventVertex {
                node: n,
                plus: false,
            });
        }
        let mut arcs = Vec::new();
        let m0 = |n: NodeId| u32::from(dfs.node(n).initial.is_marked());
        let mut push = |from: usize, to: usize, weight: f64, tokens: u32| {
            arcs.push(EventArc {
                from,
                to,
                weight,
                tokens,
            });
        };

        for v in dfs.nodes() {
            let d = dfs.node(v).delay;
            let vp = Self::vertex(v, true);
            let vm = Self::vertex(v, false);
            // self alternation: v+^k ; v-^k ; v+^(k+1)
            push(vp, vm, d, m0(v));
            push(vm, vp, d, 1 - m0(v));

            if dfs.kind(v) == NodeKind::Logic {
                // eval needs preset logic evaluated / registers marked;
                // reset needs the duals (eq. (1)); no postset conditions
                for e in dfs.preds(v) {
                    let u = e.node;
                    let up = Self::vertex(u, true);
                    let um = Self::vertex(u, false);
                    if dfs.kind(u) == NodeKind::Logic {
                        push(up, vp, d, 0);
                        push(um, vm, d, 0);
                    } else {
                        push(up, vp, d, m0(u));
                        push(um, vm, d, 0);
                    }
                }
            } else {
                // registers (eq. (2); dynamic nodes in their true-controlled
                // configuration behave identically for timing purposes)
                for e in dfs.preds(v) {
                    if dfs.kind(e.node) == NodeKind::Logic {
                        // (a') preset logic evaluated before mark,
                        // reset before release
                        push(Self::vertex(e.node, true), vp, d, 0);
                        push(Self::vertex(e.node, false), vm, d, m0(v));
                    }
                }
                for q in dedup(dfs.r_preset(v)) {
                    // (a) ?v marked before v+
                    push(Self::vertex(q, true), vp, d, m0(q));
                    // (d) ?v unmarked before v-
                    push(Self::vertex(q, false), vm, d, m0(v) * (1 - m0(q)));
                }
                for w in dedup(dfs.r_postset(v)) {
                    // (b) v? unmarked before v+
                    push(Self::vertex(w, false), vp, d, (1 - m0(w)) * (1 - m0(v)));
                    // (c) v? marked before v-; when both v and its postset
                    // register start marked, v's first release is enabled by
                    // w's *initial* token (w+^0), shifting the dependency by
                    // one occurrence — without this, adjacent initially
                    // marked registers look like a token-free cycle
                    push(Self::vertex(w, true), vm, d, m0(v) * m0(w));
                }
            }
        }
        EventGraph::new(vertices, arcs)
    }
}

/// Error of the raw MCR solver ([`mcr::maximum_cycle_ratio`]).
///
/// Carries bare event-graph *vertex indices*: the solver knows nothing about
/// node names, and eagerly formatting placeholder labels (`"v17"`) on a path
/// that callers usually `?`-convert anyway was wasted work. Rendering
/// happens lazily at the boundary — [`analyse`] maps the indices to real
/// node event names (`"r1+"`) via the graph; the `From` fallback keeps the
/// `v{index}` form for contexts without a graph at hand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McrError {
    /// A cycle with zero total tokens and positive total delay: the model
    /// cannot make progress around it (infinite period).
    TokenFreeCycle {
        /// Vertex indices on the offending cycle, in order.
        vertices: Vec<usize>,
    },
}

impl McrError {
    /// Renders the error against the model it came from, naming the events
    /// on the cycle (`"r1+"`, `"f-"`).
    #[must_use]
    pub fn into_dfs_error(self, dfs: &Dfs, g: &EventGraph) -> DfsError {
        match self {
            McrError::TokenFreeCycle { vertices } => DfsError::TokenFreeCycle {
                cycle: vertices
                    .iter()
                    .map(|&v| {
                        let ev = &g.vertices[v];
                        let sign = if ev.plus { '+' } else { '-' };
                        format!("{}{sign}", dfs.node(ev.node).name)
                    })
                    .collect(),
            },
        }
    }
}

impl From<McrError> for DfsError {
    fn from(e: McrError) -> Self {
        match e {
            McrError::TokenFreeCycle { vertices } => DfsError::TokenFreeCycle {
                cycle: vertices.iter().map(|v| format!("v{v}")).collect(),
            },
        }
    }
}

impl std::fmt::Display for McrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            McrError::TokenFreeCycle { vertices } => {
                write!(f, "cycle without tokens through event vertices ")?;
                for (i, v) in vertices.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "v{v}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for McrError {}

pub(crate) fn dedup(rs: &[crate::graph::RRef]) -> Vec<NodeId> {
    let mut v: Vec<NodeId> = rs.iter().map(|r| r.node).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Which event-graph construction produced a [`PerfReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construction {
    /// The direct two-vertices-per-node graph of [`EventGraph::build`] —
    /// used for choice-free models (logic and plain registers only), where
    /// it is exact.
    Direct,
    /// The phase-unfolded graph of [`unfold::unfold`] — used whenever the
    /// model contains dynamic registers (control / push / pop), replicating
    /// events over the cyclic choice schedule so the analysis stays exact.
    PhaseUnfolded {
        /// Items (occurrences of the fastest event) per hyper-period of the
        /// unfolding — `k` for k-way wagging, `1` for constant-configured
        /// reconfigurable stages.
        phases: u32,
    },
}

/// `1 / period` with the degenerate cases pinned down: a zero period (no
/// constraining cycle) maps to infinite throughput, an infinite period
/// (token-free cycle) maps to zero — never NaN. Both [`PerfReport`] and
/// [`CriticalCycle::throughput`] go through this single guard.
#[must_use]
pub fn reciprocal_throughput(period: f64) -> f64 {
    if period > 0.0 {
        1.0 / period // 1/∞ = 0 handles the infinite-period case
    } else {
        f64::INFINITY
    }
}

/// A critical cycle of the analysis.
///
/// For a [`Construction::PhaseUnfolded`] report the cycle lives in the
/// unfolded graph: one token around it corresponds to one *hyper-period*
/// (`phases` items), so its ratio is `phases ×` the per-item period of the
/// report.
#[derive(Debug, Clone)]
pub struct CriticalCycle {
    /// Names of the nodes on the cycle, in order (deduplicated consecutive
    /// repeats of the same node's `+`/`-` events).
    pub nodes: Vec<String>,
    /// Total delay around the cycle.
    pub delay: f64,
    /// Total token offset around the cycle.
    pub tokens: u32,
    /// The bottleneck: the slowest node on the cycle.
    pub bottleneck: String,
}

impl CriticalCycle {
    /// Cycle period (delay / tokens): `∞` for a token-free cycle with
    /// positive delay, `0` for an empty/degenerate cycle.
    #[must_use]
    pub fn period(&self) -> f64 {
        if self.tokens > 0 {
            self.delay / f64::from(self.tokens)
        } else if self.delay > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    }

    /// Cycle throughput (tokens / delay), guarded exactly like
    /// [`PerfReport::throughput`]: `0` for a token-free cycle, `∞` for a
    /// degenerate zero-delay cycle — never NaN.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        reciprocal_throughput(self.period())
    }
}

/// Result of the performance analysis.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Steady-state period in time units per token (per item for
    /// phase-unfolded constructions).
    pub period: f64,
    /// Throughput, `1 / period` (guarded — see [`reciprocal_throughput`]).
    pub throughput: f64,
    /// The critical cycle achieving the period.
    pub critical: CriticalCycle,
    /// Which event-graph construction produced this report.
    pub construction: Construction,
}

/// A [`PerfReport`] together with the per-node steady-state **activity**:
/// how many times each node's `+` (evaluate/mark) event fires per item.
///
/// This is the cost hook the energy models build on: switching energy per
/// item is `Σ activity(n) · E_switch(n)`. The activity is exact — for
/// phase-unfolded constructions it is read off the unfolding (a node
/// replicated over `R` phases of a `k`-item hyper-period fires `R/k` times
/// per item; a node of an excluded stage that never fires contributes `0`),
/// and for choice-free models every node of the (live, strongly-connected)
/// marked graph fires exactly once per period.
#[derive(Debug, Clone)]
pub struct PerfDetail {
    /// The throughput analysis.
    pub report: PerfReport,
    /// Per node (indexed by [`NodeId::index`]): `+` firings per item.
    pub activity_per_item: Vec<f64>,
}

/// Analyses `dfs` and returns its exact steady-state throughput and
/// critical cycle.
///
/// Choice-free models go straight to the direct event graph; models with
/// dynamic registers are analysed on the phase unfolding (see the module
/// docs for the exactness contract and [`PerfReport::construction`] for the
/// provenance).
///
/// # Errors
///
/// * [`DfsError::TokenFreeCycle`] when a dependency cycle carries no
///   tokens — the model cannot make progress around that cycle (structural
///   deadlock, e.g. a ring with fewer than three registers).
/// * [`DfsError::SimulationStalled`] when the choice-schedule replay behind
///   the phase unfolding deadlocks (e.g. mismatched guards).
/// * [`DfsError::StateBudgetExceeded`] when that replay finds no periodic
///   schedule within its step budget.
pub fn analyse(dfs: &Dfs) -> Result<PerfReport, DfsError> {
    analyse_with_activity(dfs).map(|d| d.report)
}

/// [`analyse`] plus the exact per-node activity (see [`PerfDetail`]):
/// [`analyse_schedule`] over the model's own [`EventSchedule`].
///
/// # Errors
///
/// Same conditions as [`analyse`].
pub fn analyse_with_activity(dfs: &Dfs) -> Result<PerfDetail, DfsError> {
    analyse_schedule(dfs, &EventSchedule::build(dfs)?)
}

/// The delay-free half of the analysis: the event graph of a model —
/// direct for choice-free models, phase-unfolded otherwise — whose shape
/// (vertices, arcs, token offsets, phases) no delay affects. Each arc's
/// weight is the delay of its target event's node, and nothing else in the
/// graph reads a delay, so models equal in everything but delays (timing
/// twins) share one schedule: [`analyse_schedule`] re-weights its arcs with
/// each twin's own delays.
#[derive(Debug, Clone)]
pub struct EventSchedule {
    /// The event graph, weighted with the delays of the model it was built
    /// from.
    graph: EventGraph,
    /// Which construction produced it.
    construction: Construction,
}

impl EventSchedule {
    /// The schedule of `dfs`: the direct event graph for a choice-free
    /// model, the phase unfolding otherwise.
    ///
    /// # Errors
    ///
    /// The unfolding's [`DfsError::SimulationStalled`] /
    /// [`DfsError::StateBudgetExceeded`] (see [`analyse`]).
    pub fn build(dfs: &Dfs) -> Result<Self, DfsError> {
        let choice_free = dfs
            .nodes()
            .all(|n| matches!(dfs.kind(n), NodeKind::Logic | NodeKind::Register));
        let (graph, construction) = if choice_free {
            (EventGraph::build(dfs), Construction::Direct)
        } else {
            let u = unfold::unfold(dfs)?;
            let phases = u.items_per_period;
            (u.graph, Construction::PhaseUnfolded { phases })
        };
        // the adjacency is weight-free: build it once, and every
        // re-weighted copy inherits it
        let _ = graph.out_adjacency();
        Ok(EventSchedule {
            graph,
            construction,
        })
    }
}

/// The exact throughput analysis with per-node activity of `dfs` on
/// `schedule`, which must be the [`EventSchedule`] of `dfs` or of a timing
/// twin of it (equal in everything but node delays): the arcs are
/// re-weighted with `dfs`'s delays and the maximum cycle ratio solved.
/// Bit-identical to solving the graph built from `dfs` itself.
///
/// # Errors
///
/// [`DfsError::TokenFreeCycle`] (see [`analyse`]).
///
/// # Panics
///
/// When `schedule` names a node `dfs` does not have.
pub fn analyse_schedule(dfs: &Dfs, schedule: &EventSchedule) -> Result<PerfDetail, DfsError> {
    let mut g = schedule.graph.clone();
    for arc in &mut g.arcs {
        arc.weight = dfs.node(g.vertices[arc.to].node).delay;
    }
    let sol = mcr::maximum_cycle_ratio(&g).map_err(|e| e.into_dfs_error(dfs, &g))?;
    let (period, activity_per_item) = match schedule.construction {
        Construction::Direct => (sol.ratio, vec![1.0; dfs.node_count()]),
        Construction::PhaseUnfolded { phases } => {
            // the MCR of the unfolded graph is the duration of one
            // hyper-period
            let items = f64::from(phases.max(1));
            let mut activity = vec![0.0; dfs.node_count()];
            for v in g.vertices.iter().filter(|v| v.plus) {
                activity[v.node.index()] += 1.0 / items;
            }
            (sol.ratio / items, activity)
        }
    };
    Ok(PerfDetail {
        report: report(dfs, &g, &sol, period, schedule.construction),
        activity_per_item,
    })
}

fn report(
    dfs: &Dfs,
    g: &EventGraph,
    sol: &mcr::McrSolution,
    period: f64,
    construction: Construction,
) -> PerfReport {
    PerfReport {
        period,
        throughput: reciprocal_throughput(period),
        critical: describe_cycle(dfs, g, &sol.cycle, &sol.cycle_arcs),
        construction,
    }
}

pub(crate) fn describe_cycle(
    dfs: &Dfs,
    g: &EventGraph,
    cycle: &[usize],
    cycle_arcs: &[usize],
) -> CriticalCycle {
    let mut nodes: Vec<NodeId> = Vec::new();
    for &v in cycle {
        let n = g.vertices[v].node;
        if nodes.last() != Some(&n) {
            nodes.push(n);
        }
    }
    if nodes.len() > 1 && nodes.first() == nodes.last() {
        nodes.pop();
    }
    // sum over the arcs the solver actually traversed: a vertex-pair lookup
    // would pick an arbitrary member of a parallel-arc bundle and misreport
    // the cycle's delay/token totals
    let (delay, tokens) = mcr::cycle_totals(g, cycle_arcs);
    let bottleneck = nodes
        .iter()
        .copied()
        .max_by(|&a, &b| dfs.node(a).delay.total_cmp(&dfs.node(b).delay))
        .map(|n| dfs.node(n).name.clone())
        .unwrap_or_default();
    CriticalCycle {
        nodes: nodes
            .into_iter()
            .map(|n| dfs.node(n).name.clone())
            .collect(),
        delay,
        tokens,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfsBuilder;
    use crate::timed::{measure_throughput, ChoicePolicy};

    fn ring(n: usize, delays: &[f64]) -> Dfs {
        let mut b = DfsBuilder::new();
        let regs: Vec<NodeId> = (0..n)
            .map(|i| {
                let nb = b
                    .register(format!("r{i}"))
                    .delay(delays.get(i).copied().unwrap_or(1.0));
                if i == 0 {
                    nb.marked().build()
                } else {
                    nb.build()
                }
            })
            .collect();
        for i in 0..n {
            b.connect(regs[i], regs[(i + 1) % n]);
        }
        b.finish().unwrap()
    }

    #[test]
    fn analysis_matches_timed_simulation_on_rings() {
        for n in [3usize, 4, 5, 6, 8] {
            let dfs = ring(n, &[]);
            let report = analyse(&dfs).unwrap();
            let out = dfs.node_by_name("r0").unwrap();
            let measured = measure_throughput(&dfs, out, 10, 60, ChoicePolicy::AlwaysTrue).unwrap();
            assert!(
                (report.throughput - measured).abs() < 1e-6,
                "ring {n}: analysis {} vs simulated {measured}",
                report.throughput
            );
        }
    }

    #[test]
    fn analysis_matches_simulation_with_heterogeneous_delays() {
        let dfs = ring(3, &[1.0, 5.0, 1.0]);
        let report = analyse(&dfs).unwrap();
        let out = dfs.node_by_name("r0").unwrap();
        let measured = measure_throughput(&dfs, out, 10, 60, ChoicePolicy::AlwaysTrue).unwrap();
        assert!(
            (report.throughput - measured).abs() < 1e-6,
            "analysis {} vs simulated {measured}",
            report.throughput
        );
        assert_eq!(report.critical.bottleneck, "r1");
    }

    /// Parallel arcs between the same vertex pair (legal in unfolded and
    /// hand-built graphs) must be attributed via the solver's actual arc
    /// indices: a vertex-pair lookup would report the delay/tokens of an
    /// arbitrary bundle member.
    #[test]
    fn describe_cycle_resolves_parallel_arcs() {
        let mut b = DfsBuilder::new();
        let _ = b.register("a").marked().build();
        let dfs = b.finish().unwrap();
        let g = EventGraph::new(
            vec![
                EventVertex {
                    node: NodeId::from_index(0),
                    plus: true,
                },
                EventVertex {
                    node: NodeId::from_index(0),
                    plus: false,
                },
            ],
            vec![
                // light member of the parallel bundle listed first: a
                // first-match lookup would pick it and report delay 2
                EventArc {
                    from: 0,
                    to: 1,
                    weight: 1.0,
                    tokens: 1,
                },
                EventArc {
                    from: 0,
                    to: 1,
                    weight: 5.0,
                    tokens: 1,
                },
                EventArc {
                    from: 1,
                    to: 0,
                    weight: 1.0,
                    tokens: 0,
                },
            ],
        );
        let sol = mcr::maximum_cycle_ratio(&g).unwrap();
        assert_eq!(sol.ratio, 6.0);
        let cycle = describe_cycle(&dfs, &g, &sol.cycle, &sol.cycle_arcs);
        assert_eq!(
            cycle.delay, 6.0,
            "cycle delay must come from the traversed heavy arc"
        );
        assert_eq!(cycle.tokens, 1);
        assert_eq!(cycle.period(), sol.ratio);
    }

    /// The degenerate-cycle guards: no NaN from `0/0`, zero throughput for
    /// token-free cycles, and the same guard on both `PerfReport` and
    /// `CriticalCycle`.
    #[test]
    fn zero_period_guard_is_unified() {
        let degenerate = CriticalCycle {
            nodes: Vec::new(),
            delay: 0.0,
            tokens: 0,
            bottleneck: String::new(),
        };
        assert_eq!(degenerate.period(), 0.0);
        assert_eq!(degenerate.throughput(), f64::INFINITY);
        let token_free = CriticalCycle {
            nodes: vec!["a".into()],
            delay: 3.0,
            tokens: 0,
            bottleneck: "a".into(),
        };
        assert_eq!(token_free.period(), f64::INFINITY);
        assert_eq!(token_free.throughput(), 0.0);
        assert_eq!(reciprocal_throughput(0.0), f64::INFINITY);
        assert_eq!(reciprocal_throughput(f64::INFINITY), 0.0);
        // an empty model exercises the zero-ratio path end to end: both the
        // report and its critical cycle agree on "infinitely fast"
        let empty = DfsBuilder::new().finish().unwrap();
        let report = analyse(&empty).unwrap();
        assert_eq!(report.period, 0.0);
        assert_eq!(report.throughput, f64::INFINITY);
        assert_eq!(report.critical.throughput(), f64::INFINITY);
        // and on a live model the two throughputs coincide
        let report = analyse(&ring(4, &[])).unwrap();
        assert!((report.throughput - report.critical.throughput()).abs() < 1e-9);
        assert_eq!(report.construction, Construction::Direct);
    }

    /// For a phase-unfolded report the critical cycle lives in the unfolded
    /// graph: one token there is one hyper-period, i.e. `phases` items.
    #[test]
    fn unfolded_critical_cycle_is_hyper_period_scaled() {
        let w = crate::wagging::wagged_pipeline(2, 1, 8.0).unwrap();
        let report = analyse(&w.dfs).unwrap();
        let Construction::PhaseUnfolded { phases } = report.construction else {
            panic!("wagging must unfold");
        };
        assert_eq!(phases, 2);
        assert!(
            (report.critical.period() - f64::from(phases) * report.period).abs() < 1e-6,
            "critical {} vs {} × {}",
            report.critical.period(),
            phases,
            report.period
        );
    }

    /// The exact activity hook: excluded stages contribute zero switching,
    /// wagged ways fire once every `k` items, choice-free nodes once per
    /// item.
    #[test]
    fn activity_reflects_the_configured_schedule() {
        // choice-free ring: everything fires once per item
        let d = analyse_with_activity(&ring(4, &[])).unwrap();
        assert!(d.activity_per_item.iter().all(|&a| (a - 1.0).abs() < 1e-12));

        // 2-way wagging: each way's registers fire every other item, the
        // environment once per item
        let w = crate::wagging::wagged_pipeline(2, 1, 8.0).unwrap();
        let d = analyse_with_activity(&w.dfs).unwrap();
        let act = |name: &str| d.activity_per_item[w.dfs.node_by_name(name).unwrap().index()];
        assert!((act("w0_r1") - 0.5).abs() < 1e-12, "{}", act("w0_r1"));
        assert!((act("w1_r1") - 0.5).abs() < 1e-12);
        assert!((act("in") - 1.0).abs() < 1e-12);
        assert!((act("agg") - 1.0).abs() < 1e-12);

        // reconfigurable pipeline, depth 1 of 3: the excluded stages' f
        // logic never switches, the included stage's does every item
        let p = crate::pipelines::build_pipeline(
            &crate::pipelines::PipelineSpec::reconfigurable_depth(3, 1).unwrap(),
        )
        .unwrap();
        let d = analyse_with_activity(&p.dfs).unwrap();
        let act = |name: &str| d.activity_per_item[p.dfs.node_by_name(name).unwrap().index()];
        assert!(
            (act("s1_f") - 1.0).abs() < 1e-12,
            "included f: {}",
            act("s1_f")
        );
        assert_eq!(act("s3_f"), 0.0, "excluded f must not switch");
        assert_eq!(act("s3_local_out"), 0.0);
        // activity agrees with the report from plain `analyse`
        assert!((d.report.period - analyse(&p.dfs).unwrap().period).abs() < 1e-12);
    }

    #[test]
    fn token_free_cycle_is_reported() {
        // unmarked ring: no progress possible
        let mut b = DfsBuilder::new();
        let r0 = b.register("r0").build();
        let r1 = b.register("r1").build();
        let r2 = b.register("r2").build();
        b.connect(r0, r1);
        b.connect(r1, r2);
        b.connect(r2, r0);
        let dfs = b.finish().unwrap();
        assert!(matches!(
            analyse(&dfs),
            Err(DfsError::TokenFreeCycle { .. })
        ));
    }

    #[test]
    fn more_tokens_raise_throughput_until_bubble_limit() {
        // 8-ring, 1 vs 2 tokens: doubling tokens doubles throughput while
        // bubbles are plentiful. (In a 6-ring two tokens leave only two
        // bubbles and the throughput does NOT improve — checked too.)
        let one = ring(8, &[]);
        let mk = |n: usize, step: usize| {
            let mut b = DfsBuilder::new();
            let regs: Vec<NodeId> = (0..n)
                .map(|i| {
                    let nb = b.register(format!("r{i}"));
                    if i % step == 0 {
                        nb.marked().build()
                    } else {
                        nb.build()
                    }
                })
                .collect();
            for i in 0..n {
                b.connect(regs[i], regs[(i + 1) % n]);
            }
            b.finish().unwrap()
        };
        let two = mk(8, 4);
        let t1 = analyse(&one).unwrap().throughput;
        let t2 = analyse(&two).unwrap().throughput;
        assert!((t1 - 0.125).abs() < 1e-9, "t1={t1}");
        assert!(t2 > t1 * 1.9, "t1={t1} t2={t2}");
        // bubble-limited case: 2 tokens in a 6-ring gain nothing
        let six_one = ring(6, &[]);
        let six_two = mk(6, 3);
        let b1 = analyse(&six_one).unwrap().throughput;
        let b2 = analyse(&six_two).unwrap().throughput;
        assert!((b1 - b2).abs() < 1e-9, "b1={b1} b2={b2}");
        // cross-check both against simulation
        for (dfs, expect) in [(&one, t1), (&two, t2)] {
            let out = dfs.node_by_name("r0").unwrap();
            let m = measure_throughput(dfs, out, 10, 60, ChoicePolicy::AlwaysTrue).unwrap();
            assert!((m - expect).abs() < 1e-6, "measured {m} expected {expect}");
        }
    }

    #[test]
    fn pipeline_with_logic_matches_simulation() {
        // ring with logic between registers
        let mut b = DfsBuilder::new();
        let r0 = b.register("r0").marked().delay(2.0).build();
        let f = b.logic("f").delay(3.0).build();
        let r1 = b.register("r1").build();
        let r2 = b.register("r2").build();
        b.connect(r0, f);
        b.connect(f, r1);
        b.connect(r1, r2);
        b.connect(r2, r0);
        let dfs = b.finish().unwrap();
        let report = analyse(&dfs).unwrap();
        let out = dfs.node_by_name("r0").unwrap();
        let measured = measure_throughput(&dfs, out, 10, 60, ChoicePolicy::AlwaysTrue).unwrap();
        assert!(
            (report.throughput - measured).abs() < 1e-6,
            "analysis {} vs simulated {measured}",
            report.throughput
        );
    }
}

//! Phase unfolding: exact event graphs for models with choice.
//!
//! The direct construction of [`EventGraph::build`](super::EventGraph::build)
//! gives every node two vertices and assumes every dependency fires once per
//! period — an *always-included* abstraction that silently under-reports the
//! period of k-way wagging (each way's entry push accepts a true token only
//! every k-th item) and of reconfigurable pipelines with excluded stages.
//!
//! This module builds the event graph on the **k-phase unfolding** of the
//! choice schedule instead:
//!
//! 1. **Replay.** The untimed operational semantics is replayed with a
//!    deterministic scheduler (first enabled event in the rule's order,
//!    which resolves data-dependent free choices `AlwaysTrue`). Guard values
//!    copied around control rings make the schedule of every choice
//!    deterministic, so the replay reaches a periodic orbit: the state
//!    recurs, and the events fired between two recurrences are one
//!    *hyper-period* of the steady-state schedule (k items for k-way
//!    round-robin wagging).
//! 2. **Cause extraction.** During one further period every fired event
//!    records, per causal literal of the firing-rule clause that enabled it
//!    ([`mod@crate::semantics`]; the clauses of eqs. (1)–(5) are *split by
//!    token variant*, so a false-controlled push's consume-and-destroy
//!    timing differs from its true-controlled mark), the occurrence of the
//!    neighbouring event that last established that literal. A clause's
//!    guard-value literals are no causes: each names a register whose
//!    presence literal already is one, established by the same mark.
//!    Conditions that never lapse during a period (an excluded stage's
//!    frozen control loop) impose no steady-state timing constraint and
//!    produce no arc.
//! 3. **Unfolded graph.** Every event that fires `R` times per hyper-period
//!    becomes `R` phase-replicated vertices; each recorded cause becomes an
//!    arc between the right phase copies, weighted by the target's latency
//!    and carrying the number of hyper-period wrap-arounds as its token
//!    offset. The result is a *choice-free* marked event graph, and the
//!    unchanged MCR solver ([`super::mcr`]) applies: the maximum cycle
//!    ratio is the exact duration of one hyper-period.
//!
//! Dependency extraction by replay is valid because the supported models
//! are *persistent* once choices are scheduled (an enabled event is never
//! disabled by another firing), which makes the occurrence-to-occurrence
//! matching independent of the interleaving order. The property is not
//! assumed blindly: the timed simulator's steady-state detector
//! ([`crate::timed::measure_steady_period`]) is an independent oracle, and
//! the equality of the two is pinned across the wagging/reconfigurable
//! shape grid in `tests/perf_cross_check.rs`.

use super::{EventArc, EventGraph, EventVertex};
use crate::graph::Dfs;
use crate::node::{NodeId, TokenValue};
use crate::semantics::{Clause, Event, Pred, Rule};
use crate::state::DfsState;
use crate::DfsError;
use std::collections::HashMap;

/// Hard cap on replay steps before giving up on finding a periodic orbit.
pub const STEP_BUDGET: usize = 1_000_000;

/// The phase-unfolded, choice-free event graph of a model.
#[derive(Debug, Clone)]
pub struct Unfolding {
    /// The unfolded graph: one vertex per (event, phase), arcs carrying
    /// hyper-period wrap-arounds as token offsets.
    pub graph: EventGraph,
    /// Occurrences of the fastest event per hyper-period — the number of
    /// items the environment streams through one period of the choice
    /// schedule (`k` for k-way wagging).
    pub items_per_period: u32,
    /// Events fired per hyper-period of the untimed replay.
    pub steps_per_period: usize,
}

fn pred_slot(n: NodeId, p: Pred) -> usize {
    n.index() * Pred::COUNT + p as usize
}

/// Event-family slot: `2·node` for the `+` event, `2·node + 1` for `-`.
fn ev_slot(n: NodeId, plus: bool) -> usize {
    n.index() * 2 + usize::from(!plus)
}

/// One fired event of the extraction window with its direct causes.
struct Firing {
    /// Event-family slot of the fired event.
    slot: usize,
    /// Absolute occurrence index (0-based) of the fired event.
    occ: u64,
    /// Per enabling condition: (source event slot, source occurrence,
    /// replay step at which the condition was established).
    causes: Vec<(usize, u64, u64)>,
}

/// Builds the phase-unfolded event graph of `dfs`.
///
/// # Errors
///
/// * [`DfsError::SimulationStalled`] — the replay deadlocked (e.g.
///   mismatched guards disable a node for good).
/// * [`DfsError::StateBudgetExceeded`] — no periodic orbit within
///   [`STEP_BUDGET`] steps.
pub fn unfold(dfs: &Dfs) -> Result<Unfolding, DfsError> {
    let n = dfs.node_count();
    let rule = dfs.rule();
    let mut state = DfsState::initial(dfs);
    let mut est: Vec<Option<(u64, u64)>> = vec![None; n * Pred::COUNT];
    let mut counts: Vec<u64> = vec![0; n * 2];
    let mut seen: HashMap<DfsState, u64> = HashMap::new();
    let mut step: u64 = 0;

    // phase 1: drive the deterministic replay onto its periodic orbit
    let regime_start = loop {
        if step as usize >= STEP_BUDGET {
            return Err(DfsError::StateBudgetExceeded {
                budget: STEP_BUDGET,
            });
        }
        if let Some(&prev) = seen.get(&state) {
            break prev;
        }
        seen.insert(state.clone(), step);
        let Some((ev, _)) = pick(rule, &state) else {
            return Err(DfsError::SimulationStalled {
                time: 0.0,
                produced: 0,
            });
        };
        fire(dfs, &mut state, ev, &mut est, &mut counts, step);
        step += 1;
    };
    let period_len = step - regime_start;

    // phase 2: replay one more full period, recording per-event causes
    let start_counts = counts.clone();
    let mut firings: Vec<Firing> = Vec::with_capacity(period_len as usize);
    for _ in 0..period_len {
        let (ev, clause) = pick(rule, &state).expect("a periodic orbit cannot stall");
        let causes = clause
            .causes()
            .iter()
            .filter_map(|l| {
                est[pred_slot(l.node, l.pred)]
                    .map(|(occ, st)| (ev_slot(l.node, l.pred.established_by_plus()), occ, st))
            })
            .collect();
        let slot = ev_slot(ev.node(), ev.is_plus());
        firings.push(Firing {
            slot,
            occ: counts[slot],
            causes,
        });
        fire(dfs, &mut state, ev, &mut est, &mut counts, step);
        step += 1;
    }

    Ok(build_graph(
        dfs,
        &start_counts,
        &counts,
        &firings,
        regime_start,
    ))
}

/// The deterministic replay scheduler: the first enabled event in the
/// rule's order, with the first of its clauses that holds. A control
/// register's `Mark(c, True)` comes before its `Mark(c, False)`, so
/// data-dependent free choices resolve to `True` (the policy the simulator
/// cross-checks use).
fn pick<'r>(rule: &'r Rule, s: &DfsState) -> Option<(Event, Clause<'r>)> {
    rule.events()
        .iter()
        .find_map(|e| rule.clauses(e).find(|c| c.holds(s)).map(|c| (e.event, c)))
}

/// Applies `ev` and updates occurrence counts and the
/// predicate-establishment table.
fn fire(
    dfs: &Dfs,
    state: &mut DfsState,
    ev: Event,
    est: &mut [Option<(u64, u64)>],
    counts: &mut [u64],
    step: u64,
) {
    let node = ev.node();
    // `!Mt` is established only by the unmark that releases a *true* token
    let released_true = matches!(ev, Event::Unmark(r) if state.is_true_marked(r));
    let slot = ev_slot(node, ev.is_plus());
    let occ = counts[slot];
    *state = dfs.apply(state, ev);
    counts[slot] += 1;
    let stamp = Some((occ, step));
    match ev {
        Event::Eval(_) => est[pred_slot(node, Pred::Active)] = stamp,
        Event::Reset(_) => est[pred_slot(node, Pred::Inactive)] = stamp,
        Event::Mark(_, v) => {
            est[pred_slot(node, Pred::Marked)] = stamp;
            let valued = if v == TokenValue::True {
                Pred::TrueMarked
            } else {
                Pred::FalseMarked
            };
            est[pred_slot(node, valued)] = stamp;
        }
        Event::Unmark(_) => {
            est[pred_slot(node, Pred::Unmarked)] = stamp;
            if released_true {
                est[pred_slot(node, Pred::NotTrueMarked)] = stamp;
            }
        }
    }
}

/// Assembles the unfolded graph from one recorded period.
fn build_graph(
    dfs: &Dfs,
    start: &[u64],
    end: &[u64],
    firings: &[Firing],
    regime_start: u64,
) -> Unfolding {
    let slots = start.len();
    let rates: Vec<u64> = (0..slots).map(|i| end[i] - start[i]).collect();
    // vertex layout: contiguous phase copies per event family
    let mut base = vec![usize::MAX; slots];
    let mut vertices = Vec::new();
    for i in 0..slots {
        if rates[i] > 0 {
            base[i] = vertices.len();
            let v = EventVertex {
                node: NodeId::from_index(i / 2),
                plus: i % 2 == 0,
            };
            vertices.extend(std::iter::repeat_n(v, rates[i] as usize));
        }
    }
    let mut arcs = Vec::new();
    for f in firings {
        let j = (f.occ - start[f.slot]) as usize;
        let weight = dfs.node(NodeId::from_index(f.slot / 2)).delay;
        for &(src, occ, st) in &f.causes {
            if st < regime_start {
                // established before the periodic regime and never again
                // during a full period: an eternally-true condition with no
                // steady-state timing constraint
                continue;
            }
            let r = rates[src] as i64;
            debug_assert!(r > 0, "periodic-regime cause from a rate-0 event");
            let d = occ as i64 - start[src] as i64;
            // phase of the causing occurrence, and how many hyper-periods
            // back it lies — the wrap-around becomes the token offset
            let q = d.rem_euclid(r) as usize;
            let wraps = -d.div_euclid(r);
            arcs.push(EventArc {
                from: base[src] + q,
                to: base[f.slot] + j,
                weight,
                tokens: u32::try_from(wraps).expect("causes precede their effects"),
            });
        }
    }
    let items = rates.iter().max().copied().unwrap_or(0);
    Unfolding {
        graph: EventGraph::new(vertices, arcs),
        items_per_period: u32::try_from(items).unwrap_or(u32::MAX),
        steps_per_period: firings.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfsBuilder;
    use crate::perf::mcr::maximum_cycle_ratio;

    fn ring(n: usize) -> Dfs {
        let mut b = DfsBuilder::new();
        let regs: Vec<NodeId> = (0..n)
            .map(|i| {
                let nb = b.register(format!("r{i}"));
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
    fn unfolding_matches_direct_graph_on_choice_free_rings() {
        for n in [3usize, 4, 5, 8] {
            let dfs = ring(n);
            let direct = maximum_cycle_ratio(&EventGraph::build(&dfs)).unwrap();
            let u = unfold(&dfs).unwrap();
            let unfolded = maximum_cycle_ratio(&u.graph).unwrap();
            let period = unfolded.ratio / f64::from(u.items_per_period);
            assert!(
                (period - direct.ratio).abs() < 1e-9,
                "ring {n}: unfolded {period} vs direct {}",
                direct.ratio
            );
        }
    }

    #[test]
    fn deadlocked_model_reports_a_stall() {
        use crate::node::TokenValue;
        let mut b = DfsBuilder::new();
        let i = b.register("in").marked().build();
        let c1 = b.control("c1").marked_with(TokenValue::True).build();
        let c2 = b.control("c2").marked_with(TokenValue::False).build();
        let p = b.push("p").build();
        b.connect(i, p);
        b.connect(c1, p);
        b.connect(c2, p);
        let dfs = b.finish().unwrap();
        assert!(matches!(
            unfold(&dfs),
            Err(DfsError::SimulationStalled { .. })
        ));
    }

    #[test]
    fn wagging_unfolds_with_k_phases() {
        let w = crate::wagging::wagged_pipeline(3, 1, 2.0).unwrap();
        let u = unfold(&w.dfs).unwrap();
        assert_eq!(
            u.items_per_period, 3,
            "3-way wagging streams 3 items per schedule period"
        );
        // way-internal events carry one phase copy, globals three
        assert!(u.graph.vertices.len() > 2 * w.dfs.node_count());
    }
}

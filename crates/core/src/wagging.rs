//! The wagging transformation (Brej \[15\], cited in §II-D).
//!
//! Wagging extracts implicit parallelism from a bottleneck stage by
//! replicating it `K` ways and steering successive tokens to successive
//! replicas. At the DFS level the steering is expressed with the dynamic
//! primitives themselves — no new node kinds are needed:
//!
//! * the input is **broadcast** to the `K` replica entries, each of which is
//!   a *push* guarded by a rotating control ring: the replica whose guard
//!   holds `True` accepts the token, the others destroy their copies;
//! * the ring holds one `True` token and `K−1` `False` tokens spaced three
//!   registers apart (the oscillation minimum), so the `True` advances to
//!   the next replica's guard position once per data item — round-robin
//!   distribution for free;
//! * the replica exits are *pops* guarded by an identically-initialised
//!   second ring, producing empty tokens for the inactive replicas, so the
//!   output aggregation completes exactly once per item and collection is
//!   in order.
//!
//! The resulting throughput scales with `K` until the distributor/collector
//! rings become the bottleneck — demonstrated in the tests and the
//! `fig5_performance` experiment binary.
//!
//! Performance analysis of wagged models is **exact**: `perf::analyse`
//! unfolds the event graph over the `K` phases of the rotating schedule
//! (see [`crate::perf::unfold`]), so the reported period accounts for each
//! way accepting a true token only every `K`-th item. The analysis is
//! pinned equal to the timed simulator's steady-state period for up to 4
//! ways × depth 3 in `tests/perf_cross_check.rs`.

use crate::builder::DfsBuilder;
use crate::graph::Dfs;
use crate::node::{NodeId, TokenValue};
use crate::DfsError;

/// A wagged pipeline model with interface handles.
#[derive(Debug, Clone)]
pub struct Wagged {
    /// The model.
    pub dfs: Dfs,
    /// Number of replica ways (the period of the rotating schedule, and the
    /// phase count of the exact performance analysis).
    pub ways: usize,
    /// The input register.
    pub input: NodeId,
    /// The aggregated output register.
    pub output: NodeId,
    /// Entry pushes of the replicas.
    pub entries: Vec<NodeId>,
    /// Exit pops of the replicas.
    pub exits: Vec<NodeId>,
    /// The way-rotation node permutation (`way_rotation[n]` = image of node
    /// `n`): way `w` maps to way `w+1 (mod ways)`, both control rings rotate
    /// by one guard position, and the shared environment maps to itself.
    /// This is a *structural* automorphism of order `ways` (the initial
    /// control tokens are **not** symmetric — they start in way 0 — which
    /// quotient exploration tolerates; see
    /// [`crate::node_rotation_symmetry`]). Identity for `ways == 1`.
    pub way_rotation: Vec<u32>,
}

/// Builds a rotating control ring with `ways` guard positions (three
/// registers per position), `True` initially at position 0. Returns the
/// guard registers, one per position.
///
/// This is the round-robin steering primitive of the wagging
/// transformation; it is public so other wagging-style topologies (e.g. the
/// replicated-OPE models of `rap-dse`) can reuse the exact structure that
/// is verified and pinned here.
pub fn rotating_ring(b: &mut DfsBuilder, prefix: &str, ways: usize, delay: f64) -> Vec<NodeId> {
    let len = 3 * ways;
    let regs: Vec<NodeId> = (0..len)
        .map(|i| {
            let nb = b.control(format!("{prefix}{i}")).delay(delay);
            if i % 3 == 0 {
                // a valued token at each guard position
                nb.marked_with(TokenValue::from(i == 0)).build()
            } else {
                nb.build()
            }
        })
        .collect();
    for i in 0..len {
        b.connect(regs[i], regs[(i + 1) % len]);
    }
    (0..ways).map(|k| regs[3 * k]).collect()
}

/// Builds a closed `ways`-way wagged pipeline whose replicated segment is a
/// `comp_depth`-stage pipeline of per-stage latency `comp_delay`.
///
/// With `ways == 1` this degenerates to a guarded linear pipeline and is
/// the natural baseline for the speed-up measurement.
///
/// # Errors
///
/// [`DfsError::InvalidSpec`] for `ways == 0` or `comp_depth == 0`;
/// otherwise propagates builder validation errors.
pub fn wagged_pipeline(
    ways: usize,
    comp_depth: usize,
    comp_delay: f64,
) -> Result<Wagged, DfsError> {
    if ways == 0 || comp_depth == 0 {
        return Err(DfsError::InvalidSpec {
            reason: format!(
                "wagged pipeline needs ways >= 1 and comp_depth >= 1 (got {ways}, {comp_depth})"
            ),
        });
    }
    let mut b = DfsBuilder::new();
    let input = b.register("in").marked().build();
    let agg = b.logic("agg").delay(0.5).build();
    let output = b.register("out").build();
    b.connect(agg, output);
    // environment loop with buffer registers: the recycled token must not
    // reappear at the input before the replicas have drained, or the
    // entry/input/output release conditions form a deadly embrace (the
    // asynchronous-ring bubble requirement again)
    // the buffers start marked: several items are in flight, which is what
    // gives replication something to parallelise
    let buf1 = b.register("env_buf1").marked().build();
    let buf2 = b.register("env_buf2").build();
    let buf3 = b.register("env_buf3").marked().build();
    b.connect(output, buf1);
    b.connect(buf1, buf2);
    b.connect(buf2, buf3);
    b.connect(buf3, input);

    let dist = rotating_ring(&mut b, "dc", ways, 0.5);
    let coll = rotating_ring(&mut b, "cc", ways, 0.5);

    let mut entries = Vec::new();
    let mut exits = Vec::new();
    for w in 0..ways {
        let entry = b.push(format!("w{w}_entry")).build();
        b.connect(input, entry);
        b.connect(dist[w], entry);
        let mut prev = entry;
        for s in 1..=comp_depth {
            let f = b.logic(format!("w{w}_f{s}")).delay(comp_delay).build();
            let r = b.register(format!("w{w}_r{s}")).build();
            b.connect(prev, f);
            b.connect(f, r);
            prev = r;
        }
        let exit = b.pop(format!("w{w}_exit")).build();
        b.connect(prev, exit);
        b.connect(coll[w], exit);
        b.connect(exit, agg);
        entries.push(entry);
        exits.push(exit);
    }

    let dfs = b.finish()?;

    // the way-rotation permutation: replica nodes shift one way over, ring
    // registers shift one guard position (three registers), shared nodes fix
    let mut way_rotation: Vec<u32> = (0..dfs.node_count() as u32).collect();
    let by = |name: String| {
        dfs.node_by_name(&name)
            .expect("wagging node exists")
            .index()
    };
    for i in 0..3 * ways {
        let j = (i + 3) % (3 * ways);
        way_rotation[by(format!("dc{i}"))] = by(format!("dc{j}")) as u32;
        way_rotation[by(format!("cc{i}"))] = by(format!("cc{j}")) as u32;
    }
    for w in 0..ways {
        let v = (w + 1) % ways;
        way_rotation[by(format!("w{w}_entry"))] = by(format!("w{v}_entry")) as u32;
        way_rotation[by(format!("w{w}_exit"))] = by(format!("w{v}_exit")) as u32;
        for s in 1..=comp_depth {
            way_rotation[by(format!("w{w}_f{s}"))] = by(format!("w{v}_f{s}")) as u32;
            way_rotation[by(format!("w{w}_r{s}"))] = by(format!("w{v}_r{s}")) as u32;
        }
    }

    Ok(Wagged {
        dfs,
        ways,
        input,
        output,
        entries,
        exits,
        way_rotation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::{measure_throughput, ChoicePolicy};
    use crate::verify::{verify, VerifyConfig};

    #[test]
    fn degenerate_shapes_are_rejected() {
        for (ways, depth) in [(0, 1), (2, 0), (0, 0)] {
            assert!(matches!(
                wagged_pipeline(ways, depth, 1.0),
                Err(DfsError::InvalidSpec { .. })
            ));
        }
    }

    #[test]
    fn two_way_wagging_is_deadlock_free() {
        let w = wagged_pipeline(2, 1, 4.0).unwrap();
        let report = verify(
            &w.dfs,
            &VerifyConfig {
                max_states: 5_000_000,
            },
        )
        .unwrap();
        assert!(
            report.deadlocks.is_empty(),
            "trace: {:?}",
            report.deadlocks.first().map(|d| &d.trace)
        );
        assert!(report.control_mismatch.is_none());
    }

    #[test]
    fn wagging_improves_throughput_of_a_slow_stage() {
        let slow = 8.0;
        let base = wagged_pipeline(1, 1, slow).unwrap();
        let wag2 = wagged_pipeline(2, 1, slow).unwrap();
        let t1 =
            measure_throughput(&base.dfs, base.output, 4, 24, ChoicePolicy::AlwaysTrue).unwrap();
        let t2 =
            measure_throughput(&wag2.dfs, wag2.output, 4, 24, ChoicePolicy::AlwaysTrue).unwrap();
        assert!(
            t2 > t1 * 1.4,
            "2-way wagging should speed up a slow stage: {t1} -> {t2}"
        );
    }

    /// The exactness defect this module used to carry: `perf::analyse`
    /// abstracted every way as always-included and over-reported multi-way
    /// throughput. Now the analysis itself must show the wagging speedup
    /// *and* agree exactly with the simulator's steady-state period.
    #[test]
    fn analysis_reports_the_true_wagging_speedup() {
        use crate::perf::analyse;
        use crate::timed::measure_steady_period;
        let slow = 8.0;
        let base = wagged_pipeline(1, 1, slow).unwrap();
        let wag2 = wagged_pipeline(2, 1, slow).unwrap();
        assert_eq!((base.ways, wag2.ways), (1, 2));
        let t1 = analyse(&base.dfs).unwrap().throughput;
        let t2 = analyse(&wag2.dfs).unwrap().throughput;
        assert!(
            t2 > t1 * 1.4,
            "analysis must see the wagging speedup: {t1} -> {t2}"
        );
        for w in [&base, &wag2] {
            let analysed = analyse(&w.dfs).unwrap().period;
            let steady = measure_steady_period(&w.dfs, w.output, 200, ChoicePolicy::AlwaysTrue)
                .unwrap()
                .period;
            assert!(
                (analysed - steady).abs() <= 1e-9 * steady,
                "analysis {analysed} vs steady {steady}"
            );
        }
    }

    #[test]
    fn way_rotation_is_a_structural_automorphism() {
        use crate::lts::node_rotation_symmetry;
        for ways in [1usize, 2, 3] {
            let w = wagged_pipeline(ways, 1, 2.0).unwrap();
            let sym = node_rotation_symmetry(&w.dfs, &w.way_rotation)
                .expect("way rotation must validate as an automorphism");
            assert_eq!(sym.order(), ways.max(1), "ways={ways}");
            // the permutation maps each entry to the next way's entry
            for i in 0..ways {
                assert_eq!(
                    w.way_rotation[w.entries[i].index()] as usize,
                    w.entries[(i + 1) % ways].index()
                );
            }
            // shared environment nodes are fixed points
            assert_eq!(w.way_rotation[w.input.index()] as usize, w.input.index());
            assert_eq!(w.way_rotation[w.output.index()] as usize, w.output.index());
        }
    }

    #[test]
    fn tokens_alternate_between_ways() {
        use crate::sim::{simulate, Scheduler, SimConfig};
        let w = wagged_pipeline(2, 1, 2.0).unwrap();
        let run = simulate(
            &w.dfs,
            &SimConfig {
                max_steps: 4_000,
                scheduler: Scheduler::Random { seed: 3 },
            },
        );
        assert!(!run.quiescent);
        // both ways see roughly equal numbers of true acceptances: compare
        // the per-way first comp register activity
        let r0 = w.dfs.node_by_name("w0_r1").unwrap();
        let r1 = w.dfs.node_by_name("w1_r1").unwrap();
        let (a, b) = (run.mark_count(r0), run.mark_count(r1));
        assert!(a > 0 && b > 0, "both ways must be used (a={a}, b={b})");
        let ratio = a.max(b) as f64 / a.min(b).max(1) as f64;
        assert!(
            ratio < 2.0,
            "round-robin should balance ways (a={a}, b={b})"
        );
    }
}

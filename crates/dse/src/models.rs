//! Model builders for the hardware families the design space sweeps.
//!
//! Static and reconfigurable pipelines come straight from
//! [`dfs_core::pipelines`]; this module adds the **wagged OPE** topology:
//! `K` full replicas of the static Fig. 6b pipeline behind the round-robin
//! push/pop steering of the wagging transformation. The replicated unit is
//! the *whole* stage column — including each stage's global broadcast and
//! the output aggregation — so a wagged candidate computes the same
//! windowed function as the pipeline it competes against, and its higher
//! throughput is honestly paid for with `K×` the datapath silicon. (The
//! [`dfs_core::wagging::wagged_pipeline`] fixture replicates a plain linear
//! chain; that is the right shape for studying the transformation itself
//! but would under-bill a design sweep, because a linear chain lacks the
//! per-item global synchronisation that dominates the OPE period.)

use dfs_core::pipelines::StageDelays;
use dfs_core::wagging::rotating_ring;
use dfs_core::{Dfs, DfsBuilder, DfsError, NodeId};

/// A wagged-OPE model with interface handles.
#[derive(Debug, Clone)]
pub struct WaggedOpe {
    /// The model.
    pub dfs: Dfs,
    /// Replica count.
    pub ways: usize,
    /// The common input register.
    pub input: NodeId,
    /// The aggregated output register.
    pub output: NodeId,
    /// Per way: the entry push.
    pub entries: Vec<NodeId>,
    /// Per way: the exit pop.
    pub exits: Vec<NodeId>,
    /// The way-rotation node permutation (`way_rotation[n]` = image of node
    /// `n`), as [`dfs_core::wagging::Wagged::way_rotation`] has it for the
    /// plain fixture: way `w` maps to way `w+1 (mod ways)`, both control
    /// rings rotate by one guard position, and the shared environment maps
    /// to itself. A structural automorphism of order `ways` (identity for
    /// one way); the screen explores the rotation quotient with it.
    pub way_rotation: Vec<u32>,
}

/// Builds a closed `ways`-way wagged pipeline whose replicated unit is a
/// full `stages`-stage static OPE column (Fig. 6b stages with per-replica
/// broadcast and aggregation). `f_delays` sizes each stage's `f` logic
/// (`stages` entries); the remaining latencies come from `delays`.
///
/// # Errors
///
/// [`DfsError::InvalidSpec`] for `ways == 0`, `stages == 0` or a mis-sized
/// `f_delays`; otherwise propagates builder validation errors.
pub fn wagged_ope(
    ways: usize,
    stages: usize,
    delays: StageDelays,
    f_delays: &[f64],
) -> Result<WaggedOpe, DfsError> {
    if ways == 0 || stages == 0 {
        return Err(DfsError::InvalidSpec {
            reason: format!("wagged OPE needs ways >= 1 and stages >= 1 (got {ways}, {stages})"),
        });
    }
    if f_delays.len() != stages {
        return Err(DfsError::InvalidSpec {
            reason: format!(
                "per-stage delays: {} entries for {stages} stages",
                f_delays.len()
            ),
        });
    }
    let d = delays;
    let mut b = DfsBuilder::new();

    let input = b.register("in").marked().delay(d.register).build();
    let agg = b.logic("agg").delay(d.g).build();
    let output = b.register("out").delay(d.register).build();
    b.connect(agg, output);
    // environment loop with in-flight buffer tokens, exactly as in the
    // verified `wagged_pipeline` fixture: the recycled token must not
    // reappear before the replicas drain, and the extra marked buffers are
    // what replication parallelises over
    let buf1 = b.register("env_buf1").marked().delay(d.register).build();
    let buf2 = b.register("env_buf2").delay(d.register).build();
    let buf3 = b.register("env_buf3").marked().delay(d.register).build();
    b.connect(output, buf1);
    b.connect(buf1, buf2);
    b.connect(buf2, buf3);
    b.connect(buf3, input);

    let dist = rotating_ring(&mut b, "dc", ways, d.control);
    let coll = rotating_ring(&mut b, "cc", ways, d.control);

    let mut entries = Vec::new();
    let mut exits = Vec::new();
    for w in 0..ways {
        let entry = b.push(format!("w{w}_in")).delay(d.register).build();
        b.connect(input, entry);
        b.connect(dist[w], entry);
        // the replica's aggregation column
        let wagg = b.logic(format!("w{w}_agg")).delay(d.g).build();
        let wres = b.register(format!("w{w}_res")).delay(d.register).build();
        b.connect(wagg, wres);

        let mut prev_local = entry;
        for (i, &f_delay) in f_delays.iter().enumerate() {
            let s = i + 1;
            let local_in = b
                .register(format!("w{w}_s{s}_local_in"))
                .delay(d.register)
                .build();
            let f = b.logic(format!("w{w}_s{s}_f")).delay(f_delay).build();
            let local_out = b
                .register(format!("w{w}_s{s}_local_out"))
                .delay(d.register)
                .build();
            let global_in = b
                .register(format!("w{w}_s{s}_global_in"))
                .delay(d.register)
                .build();
            let g = b.logic(format!("w{w}_s{s}_g")).delay(d.g).build();
            let global_out = b
                .register(format!("w{w}_s{s}_global_out"))
                .delay(d.register)
                .build();
            b.connect(prev_local, local_in);
            b.connect(local_in, f);
            b.connect(f, local_out);
            b.connect(entry, global_in);
            b.connect(local_out, g);
            b.connect(global_in, g);
            b.connect(g, global_out);
            b.connect(global_out, wagg);
            prev_local = local_out;
        }

        let exit = b.pop(format!("w{w}_out")).delay(d.register).build();
        b.connect(wres, exit);
        b.connect(coll[w], exit);
        b.connect(exit, agg);
        entries.push(entry);
        exits.push(exit);
    }

    let dfs = b.finish()?;
    let way_rotation = way_rotation(&dfs, ways);
    Ok(WaggedOpe {
        dfs,
        ways,
        input,
        output,
        entries,
        exits,
        way_rotation,
    })
}

/// The way rotation of a [`wagged_ope`] model, by node name: a replica
/// node `w{w}_…` maps to `w{w+1}_…`, a ring register `dc{i}`/`cc{i}` one
/// guard position (three registers) on, and every shared node to itself.
fn way_rotation(dfs: &Dfs, ways: usize) -> Vec<u32> {
    let image = |name: &str| -> Option<String> {
        for ring in ["dc", "cc"] {
            if let Some(i) = name
                .strip_prefix(ring)
                .and_then(|i| i.parse::<usize>().ok())
            {
                return Some(format!("{ring}{}", (i + 3) % (3 * ways)));
            }
        }
        let rest = name.strip_prefix('w')?;
        let (w, part) = rest.split_once('_')?;
        let w: usize = w.parse().ok()?;
        Some(format!("w{}_{part}", (w + 1) % ways))
    };
    dfs.nodes()
        .map(|n| {
            let img = image(&dfs.node(n).name)
                .and_then(|name| dfs.node_by_name(&name))
                .unwrap_or(n);
            img.index() as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_core::perf::{analyse, Construction};
    use dfs_core::timed::{measure_steady_period, ChoicePolicy};
    use dfs_core::verify::{verify, VerifyConfig};

    fn ope_delays() -> StageDelays {
        StageDelays {
            f: 1.0,
            g: 2.0,
            register: 1.0,
            control: 0.5,
        }
    }

    #[test]
    fn degenerate_parameters_are_rejected() {
        let d = ope_delays();
        assert!(matches!(
            wagged_ope(0, 2, d, &[1.0, 1.0]),
            Err(DfsError::InvalidSpec { .. })
        ));
        assert!(matches!(
            wagged_ope(2, 0, d, &[]),
            Err(DfsError::InvalidSpec { .. })
        ));
        assert!(matches!(
            wagged_ope(2, 3, d, &[1.0]),
            Err(DfsError::InvalidSpec { .. })
        ));
    }

    #[test]
    fn small_wagged_ope_verifies_clean() {
        // 1-way is small enough for the exhaustive checks (103k states)
        let w = wagged_ope(1, 1, ope_delays(), &[1.0]).unwrap();
        let report = verify(
            &w.dfs,
            &VerifyConfig {
                max_states: 1_000_000,
            },
        )
        .unwrap();
        assert!(
            report.deadlocks.is_empty(),
            "{:?}",
            report.deadlocks.first().map(|d| &d.trace)
        );
        assert!(report.control_mismatch.is_none());
    }

    /// Multi-way replication multiplies the state space past exhaustive
    /// budgets (>8M for 2×1); the budgeted screen must stay sound —
    /// no violation in a deep prefix — and the steady-state-simulation
    /// test above covers liveness of the executed schedule.
    #[test]
    fn two_way_wagged_ope_screens_clean_within_budget() {
        use dfs_core::to_petri;
        use rap_petri::analysis::quick_check;
        let w = wagged_ope(2, 1, ope_delays(), &[1.0]).unwrap();
        let img = to_petri(&w.dfs);
        let qc = quick_check(&img.net, &img.complementary_pairs(), 300_000);
        assert!(qc.truncated, "2-way space is far larger than the budget");
        assert!(qc.no_violation(), "{qc:?}");
    }

    /// The way rotation is a structural automorphism of order `ways`, and
    /// it survives the Petri translation with the pair set closed under
    /// it — what the screen's quotient needs.
    #[test]
    fn way_rotation_is_an_automorphism_of_the_model_and_its_net() {
        for ways in 1..=3 {
            let w = wagged_ope(ways, 2, ope_delays(), &[1.0, 1.0]).unwrap();
            let sym = dfs_core::node_rotation_symmetry(&w.dfs, &w.way_rotation).unwrap();
            assert_eq!(sym.order(), ways);
            assert_eq!(
                w.way_rotation[w.entries[0].index()],
                w.entries[1 % ways].index() as u32
            );
            let img = dfs_core::to_petri(&w.dfs);
            let net_sym = img.induced_symmetry(&w.way_rotation).unwrap();
            assert_eq!(net_sym.order(), ways);
            assert!(net_sym.pairs_closed(&img.complementary_pairs()));
        }
    }

    /// The analysis of the new topology is held to the same standard as
    /// every other shape in this repo: exact equality with the timed
    /// simulator's steady-state recurrence.
    #[test]
    fn analysis_matches_steady_state_simulation() {
        for (ways, stages) in [(1usize, 2usize), (2, 2), (3, 1)] {
            let w = wagged_ope(ways, stages, ope_delays(), &vec![1.0; stages]).unwrap();
            let report = analyse(&w.dfs).unwrap();
            assert!(matches!(
                report.construction,
                Construction::PhaseUnfolded { .. }
            ));
            let steady =
                measure_steady_period(&w.dfs, w.output, 200, ChoicePolicy::AlwaysTrue).unwrap();
            assert!(
                (report.period - steady.period).abs() <= 1e-9 * steady.period,
                "ways {ways} stages {stages}: analysis {} vs steady {}",
                report.period,
                steady.period
            );
        }
    }

    /// Replication pays once the replicated column is the bottleneck
    /// (slow stages); with fast stages the shared distribution/collection
    /// environment floors the period and extra ways are wasted silicon —
    /// exactly the dominated region the DSE pruner later discards.
    #[test]
    fn replication_buys_throughput_on_slow_columns() {
        let slow = StageDelays {
            f: 8.0,
            ..ope_delays()
        };
        let one = wagged_ope(1, 2, slow, &[8.0, 8.0]).unwrap();
        let two = wagged_ope(2, 2, slow, &[8.0, 8.0]).unwrap();
        let p1 = analyse(&one.dfs).unwrap().period;
        let p2 = analyse(&two.dfs).unwrap().period;
        assert!(p2 < p1 * 0.8, "2-way {p2} vs 1-way {p1}");
        // fast columns: the environment floor, not the replicas, binds
        let one = wagged_ope(1, 2, ope_delays(), &[1.0, 1.0]).unwrap();
        let two = wagged_ope(2, 2, ope_delays(), &[1.0, 1.0]).unwrap();
        let p1 = analyse(&one.dfs).unwrap().period;
        let p2 = analyse(&two.dfs).unwrap().period;
        assert!(p2 <= p1 + 1e-9, "more ways never hurt: {p1} -> {p2}");
    }
}

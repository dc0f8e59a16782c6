//! The driver's front is invariant under its own optimisations: neither
//! thread count nor memoization may change which points are reported
//! Pareto-optimal. The reference is an oracle inside this file that shares
//! none of them: it evaluates every configuration on its own, in a fresh
//! session, and takes the O(n²) front. Also pins that the driver's
//! structure groups screen each untimed structure once without any query
//! blocking on another worker, that its counters do not depend on the
//! thread count, and why wagged hardware needs the phase unfolding.

use dfs_core::perf::mcr::maximum_cycle_ratio;
use dfs_core::perf::{analyse, EventGraph};
use dfs_core::pipelines::StageDelays;
use rap_dse::models::wagged_ope;
use rap_dse::{
    evaluate_structural, explore, explore_with_session, naive_front_indices, DesignSpace,
    DseConfig, DseOutcome, Hardware, Objectives,
};
use rap_obs::{Collector, Obs};
use rap_session::Session;
use rap_silicon::cost::CostModel;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

fn ope_delays() -> StageDelays {
    StageDelays {
        f: 1.0,
        g: 2.0,
        register: 1.0,
        control: 0.5,
    }
}

fn small_space() -> DesignSpace {
    DesignSpace {
        hardware: vec![
            Hardware::Static { stages: 3 },
            Hardware::Reconfigurable {
                stages: 3,
                share_ctrl: true,
            },
            Hardware::Wagged { ways: 1, stages: 3 },
            Hardware::Wagged { ways: 2, stages: 3 },
        ],
        workloads: vec![1, 2, 3],
        sizings: vec![1.0, 1.5],
        voltages: vec![0.9, 1.2],
        delays: ope_delays(),
    }
}

/// A front as `(label, objective bits)` per point, in front order, per
/// workload demand.
type Fronts = BTreeMap<usize, Vec<(String, [u64; 3])>>;

fn bits(o: &Objectives) -> [u64; 3] {
    [
        o.throughput.to_bits(),
        o.energy_per_item.to_bits(),
        o.area.to_bits(),
    ]
}

fn front_signature(outcome: &DseOutcome) -> Fronts {
    outcome
        .fronts
        .iter()
        .map(|(w, f)| {
            let points = f
                .iter()
                .map(|e| (e.label.clone(), bits(&e.objectives)))
                .collect();
            (*w, points)
        })
        .collect()
}

/// The oracle: every enumerated configuration evaluated with
/// `evaluate_structural`, each in its own `Session::new()` (no memo),
/// then per demand the O(n²) front over the points with no
/// violation. Points are taken in (workload, label) order, as the driver
/// sorts them, so ties keep the same order.
fn oracle_fronts(space: &DesignSpace, cost: &CostModel, check_budget: usize) -> Fronts {
    let mut configs = space.enumerate();
    configs.sort_by_key(|c| (c.workload, c.label()));
    let mut classes: BTreeMap<usize, Vec<(String, Objectives)>> = BTreeMap::new();
    for config in configs {
        let (dfs, rotation) = config
            .build_with_rotation()
            .expect("every configuration builds");
        let model = Session::new().compile(&dfs);
        let eval = evaluate_structural(&model, cost, check_budget, rotation.as_deref())
            .expect("evaluates");
        if !eval.check_violated {
            classes
                .entry(config.workload)
                .or_default()
                .push((config.label(), eval.objectives(cost, config.voltage)));
        }
    }
    classes
        .into_iter()
        .map(|(w, class)| {
            let front = naive_front_indices(&class, |(_, o)| *o)
                .into_iter()
                .map(|i| (class[i].0.clone(), bits(&class[i].1)))
                .collect();
            (w, front)
        })
        .collect()
}

#[test]
fn parallel_memoized_sweep_matches_plain_serial() {
    let space = small_space();
    let cost = CostModel::default();
    let reference = oracle_fronts(&space, &cost, 4_000);
    assert!(!reference.is_empty());

    let mut serial_stats = None;
    for threads in [1, 2, 4] {
        let outcome = explore(
            &space,
            &cost,
            &DseConfig {
                threads,
                check_budget: 4_000,
            },
        );
        assert_eq!(front_signature(&outcome), reference, "threads={threads}");
        assert!(
            outcome.stats.memo_hits > 0,
            "voltage replicas must hit the memo"
        );
        assert!(outcome.stats.full_evaluations < outcome.stats.enumerated);
        // accounting: every enumerated point is full or memoized
        assert_eq!(outcome.stats.pruned, 0, "threads={threads}");
        assert_eq!(
            outcome.stats.full_evaluations + outcome.stats.memo_hits,
            outcome.stats.enumerated,
            "threads={threads}"
        );
        // the counters are a function of the space, not of the schedule
        let serial = *serial_stats.get_or_insert(outcome.stats);
        assert_eq!(outcome.stats, serial, "threads={threads}");
    }
}

/// Sizing twins on different workers would race for their shared screen.
/// The driver deals structure groups instead, so on every thread count no
/// query blocks on another worker (`session.<kind>.wait` never counts),
/// the fronts equal the oracle's, each untimed structure that is fully
/// evaluated is screened exactly once, and every distinct structure (an
/// untimed structure at one sizing) is fully evaluated exactly once, so
/// the counters equal the one-thread run's.
#[test]
fn structure_groups_screen_each_net_once_and_never_wait() {
    let cost = CostModel::default();
    // an unpaired reconfigurable request: two demands × two voltages, at
    // two sizings
    let twins = DesignSpace {
        hardware: vec![Hardware::Reconfigurable {
            stages: 3,
            share_ctrl: true,
        }],
        workloads: vec![2, 3],
        sizings: vec![1.0, 1.5],
        voltages: vec![0.9, 1.2],
        delays: ope_delays(),
    };
    for space in [twins, small_space()] {
        let reference = oracle_fronts(&space, &cost, 4_000);
        let structures: HashSet<_> = space
            .enumerate()
            .iter()
            .map(|c| (c.untimed_key(), c.sizing.to_bits()))
            .collect();
        let mut serial_stats = None;
        for threads in [1, 2, 4] {
            let collector = Arc::new(Collector::new());
            let session = Session::with(None, Obs::collecting(&collector));
            let cfg = DseConfig {
                threads,
                check_budget: 4_000,
            };
            let outcome = explore_with_session(&space, &cost, &cfg, &session);
            assert_eq!(front_signature(&outcome), reference, "threads={threads}");
            let screened: HashSet<_> = outcome
                .evaluations
                .iter()
                .filter(|e| !e.memoized)
                .map(|e| e.config.untimed_key())
                .collect();
            assert_eq!(
                session.stats().queries.check_runs,
                screened.len() as u64,
                "threads={threads}"
            );
            let snap = collector.snapshot();
            let waits: Vec<_> = snap
                .counters
                .iter()
                .filter(|(name, _)| name.ends_with(".wait"))
                .collect();
            assert!(waits.is_empty(), "threads={threads}: {waits:?}");
            assert!(snap.hists.iter().all(|h| h.name != "session.wait_ns"));
            assert_eq!(outcome.stats.pruned, 0, "threads={threads}");
            assert_eq!(
                outcome.stats.full_evaluations,
                structures.len(),
                "threads={threads}"
            );
            let serial = *serial_stats.get_or_insert(outcome.stats);
            assert_eq!(outcome.stats, serial, "threads={threads}");
        }
    }
}

/// Objective vectors (not just labels) agree between a parallel sweep and
/// the serial reference, for every front member.
#[test]
fn front_objectives_are_bitwise_stable_across_schedules() {
    let space = small_space();
    let cost = CostModel::default();
    let a = explore(&space, &cost, &DseConfig::default());
    let b = explore(
        &space,
        &cost,
        &DseConfig {
            threads: 1,
            ..DseConfig::default()
        },
    );
    for (w, front) in &a.fronts {
        let other = b.front(*w);
        assert_eq!(front.len(), other.len(), "workload {w}");
        for (x, y) in front.iter().zip(other) {
            assert_eq!(x.label, y.label);
            assert_eq!(
                x.objectives.throughput.to_bits(),
                y.objectives.throughput.to_bits()
            );
            assert_eq!(
                x.objectives.energy_per_item.to_bits(),
                y.objectives.energy_per_item.to_bits()
            );
            assert_eq!(x.objectives.area.to_bits(), y.objectives.area.to_bits());
        }
    }
}

/// Why wagged hardware needs the phase unfolding: the direct
/// (single-phase) event-graph MCR's all-true abstraction is optimistic
/// when a replicated column is the bottleneck, but **pessimistic** when
/// the shared steering environment is, so it bounds the period in neither
/// direction. This pins the concrete counterexample (fast 2×2 columns:
/// direct 11.0 > exact 10.5).
#[test]
fn wagged_direct_graph_period_is_not_an_admissible_bound() {
    let w = wagged_ope(2, 2, ope_delays(), &[1.0, 1.0]).unwrap();
    let exact = analyse(&w.dfs).unwrap().period;
    let direct = maximum_cycle_ratio(&EventGraph::build(&w.dfs))
        .expect("direct graph solves")
        .ratio;
    assert!(
        direct > exact + 1e-9,
        "direct {direct} vs exact {exact}: the counterexample disappeared"
    );
}

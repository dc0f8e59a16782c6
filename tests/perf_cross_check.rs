//! Cross-check: the analytical max-cycle-ratio period (`perf::analyse`)
//! agrees **exactly** with the timed event-driven simulator on every
//! deterministic pipeline shape — linear, ring, the §III stage structures,
//! and k-way wagging. Two independent oracles are used:
//!
//! * `timed::measure_throughput` — asymptotic averaging over a window
//!   (kept for the choice-free shapes where it converges exactly);
//! * `timed::measure_steady_period` — exact recurrence detection of the
//!   timed configuration, which certifies the phase-unfolded analysis on
//!   multi-way wagging with *strict equality*, replacing the former
//!   lower-bound / asymptotic contract. The analysis is no longer allowed
//!   to under-report the period anywhere on this grid.
//!
//! On the paper's reconfigurable space the period is also checked to be
//! exact to the bit, and to scale exactly with the delays.

use rap::dfs::perf::{analyse, Construction, PerfReport};
use rap::dfs::pipelines::{build_pipeline, linear_pipeline, PipelineSpec, StageDelays};
use rap::dfs::timed::{measure_steady_period, measure_throughput, ChoicePolicy};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{Dfs, DfsBuilder, NodeId};

/// Measures at `output` and asserts agreement with the MCR bound.
fn assert_agreement(dfs: &Dfs, output: NodeId, label: &str) {
    let report = analyse(dfs).unwrap_or_else(|e| panic!("{label}: analysis failed: {e:?}"));
    let measured = measure_throughput(dfs, output, 10, 60, ChoicePolicy::AlwaysTrue)
        .unwrap_or_else(|e| panic!("{label}: simulation failed: {e:?}"));
    assert!(
        (report.throughput - measured).abs() < 1e-6,
        "{label}: analysis {} vs simulated {measured}",
        report.throughput
    );
}

/// Asserts strict equality between the analysis period and the simulator's
/// steady-state recurrence period.
fn assert_exact_period(dfs: &Dfs, output: NodeId, label: &str) {
    let report = analyse(dfs).unwrap_or_else(|e| panic!("{label}: analysis failed: {e:?}"));
    let steady = measure_steady_period(dfs, output, 500, ChoicePolicy::AlwaysTrue)
        .unwrap_or_else(|e| panic!("{label}: no steady state: {e:?}"));
    assert!(
        (report.period - steady.period).abs() <= 1e-9 * steady.period.max(1.0),
        "{label}: analysis period {} vs steady-state period {}",
        report.period,
        steady.period
    );
}

#[test]
fn linear_pipelines_agree() {
    for (n, f_delay) in [(2usize, 1.0), (4, 2.5), (6, 0.75)] {
        let p = linear_pipeline(n, f_delay).unwrap();
        assert_agreement(&p.dfs, p.output, &format!("linear n={n} f={f_delay}"));
        assert_exact_period(&p.dfs, p.output, &format!("linear n={n} f={f_delay}"));
    }
}

#[test]
fn rings_with_heterogeneous_delays_agree() {
    for delays in [
        vec![1.0, 1.0, 1.0, 1.0],
        vec![0.5, 3.0, 1.0, 2.0],
        vec![2.0, 2.0, 0.25, 0.25, 4.0],
    ] {
        let mut b = DfsBuilder::new();
        let regs: Vec<NodeId> = delays
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let nb = b.register(format!("r{i}")).delay(d);
                if i == 0 {
                    nb.marked().build()
                } else {
                    nb.build()
                }
            })
            .collect();
        for i in 0..regs.len() {
            b.connect(regs[i], regs[(i + 1) % regs.len()]);
        }
        let dfs = b.finish().unwrap();
        assert_agreement(&dfs, regs[0], &format!("ring {delays:?}"));
        assert_exact_period(&dfs, regs[0], &format!("ring {delays:?}"));
    }
}

/// The 1-way wagged pipeline (guarded push/pop, rotating control rings,
/// marked environment buffers) is the wagging baseline. With the exact
/// steady-state oracle, depth ≥ 3 no longer needs an asymptotic carve-out:
/// every depth agrees strictly.
#[test]
fn wagging_baseline_is_exact() {
    for (depth, delay) in [(1usize, 1.0), (2, 1.0), (2, 2.0), (3, 1.0), (3, 4.0)] {
        let w = wagged_pipeline(1, depth, delay).unwrap();
        assert_exact_period(
            &w.dfs,
            w.output,
            &format!("wagging depth={depth} delay={delay}"),
        );
    }
}

/// Multi-way wagging: the phase-unfolded event graph makes `analyse` exact
/// — strict equality against the simulator's steady-state period for
/// k ∈ {2, 3, 4} ways and replica depth ∈ {1, 2, 3}, replacing the former
/// certified-lower-bound contract.
#[test]
fn multiway_wagging_is_exact() {
    for ways in [2usize, 3, 4] {
        for depth in [1usize, 2, 3] {
            let w = wagged_pipeline(ways, depth, 3.0).unwrap();
            let label = format!("ways={ways} depth={depth}");
            let report = analyse(&w.dfs).unwrap();
            assert_eq!(
                report.construction,
                Construction::PhaseUnfolded {
                    phases: ways as u32
                },
                "{label}: k-way wagging must unfold over k phases"
            );
            assert_exact_period(&w.dfs, w.output, &label);
        }
    }
}

/// The heavy-bottleneck configuration of the paper's wagging pitch (slow
/// replicated stage, delay 8): exactness must also hold where wagging
/// actually pays off.
#[test]
fn multiway_wagging_with_slow_stage_is_exact() {
    for ways in [2usize, 3, 4] {
        let w = wagged_pipeline(ways, 1, 8.0).unwrap();
        assert_exact_period(&w.dfs, w.output, &format!("slow-stage ways={ways}"));
    }
}

#[test]
fn built_pipeline_specs_agree() {
    for (label, spec) in [
        ("fully_static(3)", PipelineSpec::fully_static(3)),
        ("fully_static(5)", PipelineSpec::fully_static(5)),
        // all stages included
        (
            "reconfigurable(3,3)",
            PipelineSpec::reconfigurable_depth(3, 3).unwrap(),
        ),
        // excluded tail stages: the unfolding analyses the *configured*
        // schedule instead of pretending every stage is included
        (
            "reconfigurable(3,1)",
            PipelineSpec::reconfigurable_depth(3, 1).unwrap(),
        ),
        (
            "reconfigurable(4,2)",
            PipelineSpec::reconfigurable_depth(4, 2).unwrap(),
        ),
    ] {
        let p = build_pipeline(&spec).unwrap();
        assert_exact_period(&p.dfs, p.output, label);
    }
}

/// The OPE delays of the paper's design space (`f` 1, `g` 2, register 1,
/// control 0.5), each multiplied by `scale`, with the datapath logic
/// (`f`, `g`) further multiplied by `sizing`.
fn ope_delays(sizing: f64, scale: f64) -> StageDelays {
    StageDelays {
        f: sizing * scale,
        g: 2.0 * sizing * scale,
        register: scale,
        control: 0.5 * scale,
    }
}

fn analyse_spec(spec: &PipelineSpec, label: &str) -> PerfReport {
    let p = build_pipeline(spec).unwrap_or_else(|e| panic!("{label}: build failed: {e:?}"));
    analyse(&p.dfs).unwrap_or_else(|e| panic!("{label}: analysis failed: {e:?}"))
}

/// Every period of the reconfigurable paper space is exact: it is the
/// critical cycle's `W / T` over the unfolding's phases bit for bit, the
/// shared-control and separate-control twins of one configuration tie bit
/// for bit, and the paper's OPE(6,4) design point is exactly 19.
#[test]
fn paper_space_periods_are_exact() {
    for sizing in [0.75, 1.0, 1.5, 2.0] {
        for depth in 1..=6 {
            let period = |share: bool| {
                let label = format!("reconfigurable(6,{depth}) s{sizing} share={share}");
                let mut spec = PipelineSpec::reconfigurable_depth(6, depth)
                    .unwrap()
                    .with_delays(ope_delays(sizing, 1.0));
                spec.share_ctrl_after_static = share;
                let report = analyse_spec(&spec, &label);
                let phases = match report.construction {
                    Construction::PhaseUnfolded { phases } => phases,
                    Construction::Direct => 1,
                };
                assert_eq!(
                    (report.critical.period() / f64::from(phases)).to_bits(),
                    report.period.to_bits(),
                    "{label}: critical {} over {phases} phases vs period {}",
                    report.critical.period(),
                    report.period
                );
                report.period
            };
            let (shared, separate) = (period(true), period(false));
            assert_eq!(
                shared.to_bits(),
                separate.to_bits(),
                "depth {depth} sizing {sizing}: shared {shared} vs separate {separate}"
            );
            if depth == 4 && sizing == 1.0 {
                assert_eq!(shared, 19.0, "OPE(6,4) period");
            }
        }
    }
}

/// The period is scale-free: multiplying every delay of static(6) and
/// OPE(6,4) by `2^k` multiplies the period and the critical cycle's delay
/// by exactly `2^k` and keeps the same bottleneck.
#[test]
fn periods_scale_exactly_with_the_delays() {
    for (label, spec) in [
        ("static(6)", PipelineSpec::fully_static(6)),
        (
            "OPE(6,4)",
            PipelineSpec::reconfigurable_depth(6, 4).unwrap(),
        ),
    ] {
        let at =
            |scale: f64| analyse_spec(&spec.clone().with_delays(ope_delays(1.0, scale)), label);
        let base = at(1.0);
        for k in [-40, -30, -20, 0, 20] {
            let scale = 2f64.powi(k);
            let scaled = at(scale);
            assert_eq!(
                scaled.period,
                base.period * scale,
                "{label} × 2^{k}: period"
            );
            assert_eq!(
                scaled.critical.delay,
                base.critical.delay * scale,
                "{label} × 2^{k}: critical delay"
            );
            assert_eq!(
                scaled.critical.tokens, base.critical.tokens,
                "{label} × 2^{k}: critical tokens"
            );
            assert_eq!(
                scaled.critical.bottleneck, base.critical.bottleneck,
                "{label} × 2^{k}: bottleneck"
            );
        }
    }
}

/// Timing twins share one event schedule: over the paper sweep's 16
/// untimed structures, each sizing's analysis on the schedule another
/// sizing built is bit-identical to its own `analyse_with_activity`, and
/// its period equals, bit for bit, the cycle ratio of the event graph
/// built from its own model (`EventGraph::build` or `unfold`) — the
/// replay the benchmark pins the sweep's periods against.
#[cfg(feature = "dse")]
#[test]
fn timing_twins_share_one_event_schedule() {
    use rap::dfs::perf::mcr::maximum_cycle_ratio;
    use rap::dfs::perf::unfold::unfold;
    use rap::dfs::perf::{analyse_schedule, analyse_with_activity, EventGraph, EventSchedule};
    use rap::dse::{Config, Hardware};
    let hardware = [
        Hardware::Static { stages: 6 },
        Hardware::Reconfigurable {
            stages: 6,
            share_ctrl: true,
        },
        Hardware::Reconfigurable {
            stages: 6,
            share_ctrl: false,
        },
        Hardware::Wagged { ways: 1, stages: 6 },
        Hardware::Wagged { ways: 2, stages: 6 },
        Hardware::Wagged { ways: 3, stages: 6 },
    ];
    let config = |hardware, workload, sizing| Config {
        hardware,
        workload,
        sizing,
        voltage: 1.2,
        delays: ope_delays(1.0, 1.0),
    };
    for hw in hardware {
        let depths = match hw {
            Hardware::Reconfigurable { .. } => 1..=6,
            _ => 6..=6,
        };
        for depth in depths {
            let shared = EventSchedule::build(&config(hw, depth, 0.75).build().unwrap()).unwrap();
            for sizing in [0.75, 1.0, 1.5, 2.0] {
                let label = format!("{} d{depth} s{sizing}", hw.label());
                let dfs = config(hw, depth, sizing).build().unwrap();
                let own = analyse_with_activity(&dfs).unwrap();
                let twin = analyse_schedule(&dfs, &shared).unwrap();
                assert_eq!(
                    twin.report.period.to_bits(),
                    own.report.period.to_bits(),
                    "{label}"
                );
                assert_eq!(
                    twin.report.critical.delay.to_bits(),
                    own.report.critical.delay.to_bits(),
                    "{label}"
                );
                assert_eq!(twin.report.critical.nodes, own.report.critical.nodes);
                assert_eq!(twin.report.construction, own.report.construction);
                let bits = |a: &[f64]| a.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&twin.activity_per_item), bits(&own.activity_per_item));
                let (graph, items) = match own.report.construction {
                    Construction::Direct => (EventGraph::build(&dfs), 1),
                    Construction::PhaseUnfolded { .. } => {
                        let u = unfold(&dfs).unwrap();
                        (u.graph, u.items_per_period)
                    }
                };
                let direct = maximum_cycle_ratio(&graph).unwrap().ratio / f64::from(items.max(1));
                assert_eq!(twin.report.period.to_bits(), direct.to_bits(), "{label}");
            }
        }
    }
}

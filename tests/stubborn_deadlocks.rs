//! Deadlock preservation of the stubborn-set reduction on the paper's
//! models, and the design screen that rests on it.
//!
//! The reduction (`ExploreConfig::stubborn`) expands only a stubborn subset
//! of each state's enabled transitions, which keeps every reachable dead
//! state and nothing else. On every model below whose full space fits the
//! default budget, the reduced exploration must reach exactly the full
//! exploration's dead markings — plain, and on the rotation quotient where
//! the model has one, where the dead representatives must be the canonical
//! image of the full dead set. Then the 16 Petri nets of the paper sweep
//! must all be decided at the sweep's 20k budget: deadlock-free and safe,
//! with the reduced state counts pinned.

use rap::dfs::examples::{conditional_dfs, conditional_dfs_buffered, conditional_sdfs};
use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{to_petri, Dfs, DfsBuilder};
use rap::petri::analysis::{check, CheckReport, Properties, QuickVerdict};
use rap::petri::engine::StateSymmetry;
use rap::petri::reachability::{
    explore_quotient_truncated, explore_truncated, ExploreConfig, StateSpace,
};
use rap::petri::symmetry::Symmetry;
use rap::petri::{PetriNet, PlaceId};
use std::collections::BTreeSet;

fn config(stubborn: bool) -> ExploreConfig {
    ExploreConfig {
        stubborn,
        ..ExploreConfig::default()
    }
}

/// The design sweep's screen: the check of deadlock-freedom and 1-safety
/// over `pairs` on a stubborn-set reduced exploration.
fn screen(
    net: &PetriNet,
    pairs: &[(PlaceId, PlaceId)],
    max_states: usize,
    sym: Option<&Symmetry>,
) -> CheckReport {
    let props = Properties {
        pairs,
        ..Properties::default()
    };
    let cfg = ExploreConfig {
        max_states,
        ..config(true)
    };
    check(net, &props, &cfg, sym)
}

fn dead_markings(space: &StateSpace) -> BTreeSet<Vec<u64>> {
    space
        .deadlocks()
        .iter()
        .map(|&s| space.words(s).to_vec())
        .collect()
}

fn canonical(sym: &StateSymmetry, raw: &[u64]) -> Vec<u64> {
    let mut canon = vec![0u64; raw.len()];
    let mut tmp = vec![0u64; raw.len()];
    sym.canonicalize(raw, &mut canon, &mut tmp);
    canon
}

/// Explores `dfs`'s Petri image fully and reduced (and reduced on the
/// quotient under `rotation`), asserts the dead sets agree and that the
/// screen's deadlock verdict is the full space's, and returns the full and
/// the reduced state counts.
fn assert_dead_states_kept(label: &str, dfs: &Dfs, rotation: Option<&[u32]>) -> (usize, usize) {
    let img = to_petri(dfs);
    let full = explore_truncated(&img.net, config(false));
    let reduced = explore_truncated(&img.net, config(true));
    assert!(!full.is_truncated(), "{label}: the full space must fit");
    assert!(!reduced.is_truncated(), "{label}");
    let dead = dead_markings(&full);
    assert_eq!(dead_markings(&reduced), dead, "{label}: dead markings");
    assert!(reduced.len() <= full.len(), "{label}");

    let sym = rotation.map(|r| img.induced_symmetry(r).expect("an automorphism"));
    if let Some(sym) = &sym {
        let ssym = sym.state_symmetry();
        let quotient = explore_quotient_truncated(&img.net, config(true), &ssym);
        assert!(!quotient.is_truncated(), "{label}");
        let image: BTreeSet<Vec<u64>> = dead.iter().map(|d| canonical(&ssym, d)).collect();
        assert_eq!(
            dead_markings(&quotient),
            image,
            "{label}: dead representatives"
        );
    }

    let check = screen(
        &img.net,
        &img.complementary_pairs(),
        2_000_000,
        sym.as_ref(),
    );
    let want = if dead.is_empty() {
        QuickVerdict::Holds
    } else {
        QuickVerdict::Violated
    };
    assert_eq!(check.deadlock_free, want, "{label}");
    assert_eq!(check.safe, QuickVerdict::Holds, "{label}: certified pairs");
    (full.len(), reduced.len())
}

/// A closed ring of six registers holding three tokens, two places apart:
/// too few bubbles to circulate, so it deadlocks. Rotating by two
/// registers is an automorphism of order 3.
fn deadlocking_ring() -> (Dfs, Vec<u32>) {
    let mut b = DfsBuilder::new();
    let regs: Vec<_> = (0..6)
        .map(|i| {
            let r = b.register(format!("r{i}"));
            if i % 2 == 0 { r.marked() } else { r }.build()
        })
        .collect();
    for i in 0..6 {
        b.connect(regs[i], regs[(i + 1) % 6]);
    }
    let dfs = b.finish().unwrap();
    let rotation = (0..6u32).map(|i| (i + 2) % 6).collect();
    (dfs, rotation)
}

#[test]
fn reduced_dead_states_equal_the_full_ones_on_the_paper_models() {
    for depth in 1..=3 {
        for (name, model) in [
            ("conditional_dfs", conditional_dfs(depth, 2.0)),
            ("conditional_sdfs", conditional_sdfs(depth, 2.0)),
            (
                "conditional_dfs_buffered",
                conditional_dfs_buffered(depth, 2.0),
            ),
        ] {
            let dfs = model.unwrap().dfs;
            assert_dead_states_kept(&format!("{name}({depth})"), &dfs, None);
        }
    }
    for (n, depth) in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1)] {
        let spec = PipelineSpec::reconfigurable_depth(n, depth).unwrap();
        let dfs = build_pipeline(&spec).unwrap().dfs;
        let label = format!("reconfigurable_depth({n},{depth})");
        let (full, reduced) = assert_dead_states_kept(&label, &dfs, None);
        if (n, depth) == (4, 1) {
            assert_eq!(full, 1_001_376, "{label}");
            assert!(reduced < 100, "{label}: {reduced} reduced states");
        }
    }
    for n in 2..=4 {
        let dfs = build_pipeline(&PipelineSpec::fully_static(n)).unwrap().dfs;
        assert_dead_states_kept(&format!("fully_static({n})"), &dfs, None);
    }
}

#[test]
fn reduced_dead_states_equal_the_full_ones_on_a_deadlocking_ring() {
    let (dfs, rotation) = deadlocking_ring();
    let img = to_petri(&dfs);
    let full = explore_truncated(&img.net, config(false));
    assert!(!full.deadlocks().is_empty(), "the ring must deadlock");
    assert_dead_states_kept("ring(6, 3 tokens)", &dfs, Some(&rotation));
}

#[test]
fn reduced_dead_states_equal_the_full_ones_on_the_two_way_wagging() {
    let w = wagged_pipeline(2, 1, 1.0).unwrap();
    let (full, reduced) =
        assert_dead_states_kept("wagged_pipeline(2,1)", &w.dfs, Some(&w.way_rotation));
    assert_eq!(full, 1_476_774);
    assert!(reduced < full / 10, "{reduced} reduced states");
}

/// The 16 distinct Petri nets of the paper sweep (static, reconfigurable
/// with and without the shared loop at depths 1–6, and 1–3-way wagging,
/// six stages each), screened as the sweep screens them: all complete at
/// the 20k budget, deadlock-free and safe. The reduced state counts are
/// pinned.
#[test]
fn every_paper_net_is_decided_inside_the_screen_budget() {
    use rap::dse::{Config, Hardware};
    let nets: [(Hardware, &[usize], &[usize]); 6] = [
        (Hardware::Static { stages: 6 }, &[6], &[444]),
        (
            Hardware::Reconfigurable {
                stages: 6,
                share_ctrl: true,
            },
            &[1, 2, 3, 4, 5, 6],
            &[86, 179, 351, 592, 886, 1_187],
        ),
        (
            Hardware::Reconfigurable {
                stages: 6,
                share_ctrl: false,
            },
            &[1, 2, 3, 4, 5, 6],
            &[92, 195, 386, 632, 932, 1_236],
        ),
        (Hardware::Wagged { ways: 1, stages: 6 }, &[6], &[612]),
        (Hardware::Wagged { ways: 2, stages: 6 }, &[6], &[7_945]),
        (Hardware::Wagged { ways: 3, stages: 6 }, &[6], &[5_932]),
    ];
    for (hardware, depths, pinned) in nets {
        for (&workload, &states) in depths.iter().zip(pinned) {
            let config = Config {
                hardware,
                workload,
                sizing: 1.0,
                voltage: 1.2,
                delays: rap::ope::dfs_model::ope_stage_delays(),
            };
            let label = config.label();
            let (dfs, rotation) = config.build_with_rotation().unwrap();
            let img = to_petri(&dfs);
            let sym = rotation.map(|r| img.induced_symmetry(&r).unwrap());
            let check = screen(&img.net, &img.complementary_pairs(), 20_000, sym.as_ref());
            assert!(!check.truncated, "{label}");
            assert_eq!(check.deadlock_free, QuickVerdict::Holds, "{label}");
            assert_eq!(check.safe, QuickVerdict::Holds, "{label}");
            assert_eq!(check.states, states, "{label}");
        }
    }
}

//! Successor lists and traces of the reduced and quotient spaces, pinned
//! edge for edge and step for step.
//!
//! The oracle suites compare successor lists and traces against the seed
//! explorers only on plain spaces; stubborn-set and quotient spaces are
//! otherwise compared with other engine runs. This suite digests every
//! state's successor list, in order, and every state's concrete trace for
//! those spaces — complete and cut by the budget — so any change to how
//! the engine answers `successors` or re-derives a trace must reproduce
//! the recorded digests exactly. The successor digests were recorded from
//! the engine that kept its edge list, the trace digests from the engine
//! that stored each state's discovering action.

use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{node_rotation_symmetry, to_petri, Dfs, Lts};
use rap::dse::{Config, Hardware};
use rap::petri::engine::StateSymmetry;
use rap::petri::reachability::{
    explore_quotient_truncated, explore_truncated, ExploreConfig, StateSpace,
};
use rap::petri::PetriNet;

/// FNV-1a, 64-bit: a digest that does not depend on the standard
/// library's hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn num(&mut self, x: usize) {
        self.eat(&(x as u64).to_le_bytes());
    }
}

/// The digest of a space's successor lists: the state count, then per
/// state its edge count and each edge's action and target. Also checks
/// that `is_empty` agrees with the listed edges.
fn digest<A: std::fmt::Debug + Copy + PartialEq>(space: &StateSpace<A>, label: &str) -> u64 {
    let mut h = Fnv::new();
    h.num(space.len());
    for s in space.states() {
        let succ = space.successors(s);
        assert_eq!(
            succ.is_empty(),
            succ.iter().next().is_none(),
            "{label}: is_empty of state {}",
            s.index()
        );
        h.num(succ.len());
        for (action, target) in succ.iter() {
            h.eat(format!("{action:?}").as_bytes());
            h.num(target.index());
        }
    }
    h.0
}

/// The digest of every state's concrete trace, built as one batch: the
/// state count, then per state its trace's length and actions.
fn trace_digest<A: std::fmt::Debug + Copy>(space: &StateSpace<A>) -> u64 {
    let states: Vec<_> = space.states().collect();
    let mut h = Fnv::new();
    h.num(space.len());
    for trace in space.concrete_traces_to(&states) {
        h.num(trace.len());
        for action in trace {
            h.eat(format!("{action:?}").as_bytes());
        }
    }
    h.0
}

fn budget(max_states: usize, stubborn: bool) -> ExploreConfig {
    ExploreConfig {
        max_states,
        stubborn,
        ..ExploreConfig::default()
    }
}

/// A paper net as the sweep builds it, with the symmetry its way rotation
/// induces if wagged.
fn paper_net(hardware: Hardware, workload: usize) -> (String, PetriNet, Option<StateSymmetry>) {
    let config = Config {
        hardware,
        workload,
        sizing: 1.0,
        voltage: 1.2,
        delays: rap::ope::dfs_model::ope_stage_delays(),
    };
    let (dfs, rotation) = config.build_with_rotation().unwrap();
    let img = to_petri(&dfs);
    let sym = rotation.map(|r| img.induced_symmetry(&r).unwrap().state_symmetry());
    (config.label(), img.net, sym)
}

/// `net`'s space under `cfg`, on the quotient under `sym` when given.
fn space_of(net: &PetriNet, cfg: &ExploreConfig, sym: Option<&StateSymmetry>) -> StateSpace {
    match sym {
        Some(sym) => explore_quotient_truncated(net, cfg.clone(), sym),
        None => explore_truncated(net, cfg.clone()),
    }
}

/// Per depth: the successor digest and the trace digest.
type Digests = [(u64, u64)];

/// The 16 paper nets, screened as the sweep screens them: the stubborn-set
/// reduction at the 20k budget, on the way-rotation quotient where the
/// hardware is wagged.
#[test]
fn paper_screens_keep_their_successor_lists() {
    let nets: [(Hardware, &[usize], &Digests); 6] = [
        (
            Hardware::Static { stages: 6 },
            &[6],
            &[(0x89aa_1d60_6faf_3659, 0x4fe1_c998_98a5_cee2)],
        ),
        (
            Hardware::Reconfigurable {
                stages: 6,
                share_ctrl: true,
            },
            &[1, 2, 3, 4, 5, 6],
            &[
                (0x18d7_b17d_ab7a_b888, 0x42ef_d735_62cb_485a),
                (0x636f_5fe0_6c24_7054, 0xdbfe_7c54_a139_35b5),
                (0x6b60_8d70_52c9_1370, 0x9080_0d80_2e46_e73d),
                (0x524a_701a_ac15_d7e8, 0xb7a4_d88a_4b40_abf5),
                (0xf5e9_8681_4398_72ed, 0x3bda_a3dc_8a44_1fd8),
                (0xac7b_a19a_66ba_4676, 0x470d_14d2_933c_dca7),
            ],
        ),
        (
            Hardware::Reconfigurable {
                stages: 6,
                share_ctrl: false,
            },
            &[1, 2, 3, 4, 5, 6],
            &[
                (0xc5a8_801b_9c46_89bf, 0x0793_51bd_0d4e_a20c),
                (0x647b_1a1e_ac7d_0b5b, 0x601b_1265_22ef_43bb),
                (0x0a9a_1bd3_be77_2e96, 0x0681_d3ec_9c25_a866),
                (0x51af_271b_4870_1f3e, 0xddc7_d8bb_bacd_b2c2),
                (0x1283_96b9_e02f_12a9, 0xb8e4_4efa_e1ec_5ce5),
                (0x045f_ec9a_b513_8876, 0x92dd_ce82_34b4_7543),
            ],
        ),
        (
            Hardware::Wagged { ways: 1, stages: 6 },
            &[6],
            &[(0x0723_bc4e_244b_29c2, 0x53ec_3b30_7493_3bb4)],
        ),
        (
            Hardware::Wagged { ways: 2, stages: 6 },
            &[6],
            &[(0x9db7_c159_90b8_6113, 0xea9b_d622_0635_a9d7)],
        ),
        (
            Hardware::Wagged { ways: 3, stages: 6 },
            &[6],
            &[(0x202f_2300_083d_defc, 0xc3db_5856_aa69_1048)],
        ),
    ];
    let cfg = budget(20_000, true);
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (hardware, depths, pinned) in nets {
        for (&workload, &pins) in depths.iter().zip(pinned) {
            let (label, net, sym) = paper_net(hardware, workload);
            let space = space_of(&net, &cfg, sym.as_ref());
            assert!(!space.is_truncated(), "{label}");
            got.push((label.clone(), digest(&space, &label), trace_digest(&space)));
            want.push((label, pins.0, pins.1));
        }
    }
    assert_eq!(got, want);
}

/// The 2- and 3-way wagged pipelines' quotients, cut by the 20k budget,
/// on the Petri net and on the direct semantics.
#[test]
fn wagged_quotients_keep_their_successor_lists() {
    let cfg = budget(20_000, false);
    let mut got = Vec::new();
    for ways in [2, 3] {
        let w = wagged_pipeline(ways, 1, 1.0).unwrap();
        let img = to_petri(&w.dfs);
        let sym = img.induced_symmetry(&w.way_rotation).unwrap();
        let space = space_of(&img.net, &cfg, Some(&sym.state_symmetry()));
        assert!(space.is_truncated(), "{ways}-way quotient");
        let petri = (digest(&space, "petri"), trace_digest(&space));
        got.push((format!("petri {ways}-way"), petri.0, petri.1));
        let lts = lts_quotient(&w.dfs, &w.way_rotation, &cfg);
        assert!(lts.is_truncated(), "{ways}-way LTS quotient");
        got.push((
            format!("lts {ways}-way"),
            digest(&lts, "lts"),
            trace_digest(&lts),
        ));
    }
    let want: Vec<(String, u64, u64)> = vec![
        (
            "petri 2-way".into(),
            0xca37_e086_aac7_7571,
            0xb3a8_d38f_2481_ad7b,
        ),
        (
            "lts 2-way".into(),
            0xf521_412a_caf9_4814,
            0x3ac3_6d0c_6f2c_36bc,
        ),
        (
            "petri 3-way".into(),
            0x5ae0_48a2_2c2d_fcb9,
            0x7365_188a_6327_fb6a,
        ),
        (
            "lts 3-way".into(),
            0xbe8a_c791_0aba_2a43,
            0x1ac0_a43f_fb1e_7385,
        ),
    ];
    assert_eq!(got, want);
}

fn lts_quotient(dfs: &Dfs, rotation: &[u32], cfg: &ExploreConfig) -> Lts {
    let sym = node_rotation_symmetry(dfs, rotation).unwrap();
    Lts::explore_with(dfs, cfg, Some(&sym))
}

/// Reduced spaces cut by the budget, plain and on the quotient: the state
/// the cut interrupted keeps the prefix of its list it had.
#[test]
fn budget_cut_reduced_spaces_keep_their_successor_lists() {
    let (_, net, sym) = paper_net(Hardware::Wagged { ways: 2, stages: 6 }, 6);
    let mut got = Vec::new();
    for (name, max_states, quotient) in [
        ("stubborn", 5_000, false),
        ("stubborn quotient", 3_000, true),
    ] {
        let space = space_of(
            &net,
            &budget(max_states, true),
            sym.as_ref().filter(|_| quotient),
        );
        assert!(space.is_truncated(), "{name}");
        got.push((name.to_string(), digest(&space, name), trace_digest(&space)));
    }
    let want: Vec<(String, u64, u64)> = vec![
        (
            "stubborn".into(),
            0x458b_d003_5ac1_61cd,
            0x1f16_0cf6_4ef6_3283,
        ),
        (
            "stubborn quotient".into(),
            0xa327_ae0c_791a_a5fb,
            0x849b_bedb_6743_e684,
        ),
    ];
    assert_eq!(got, want);
}

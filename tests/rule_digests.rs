//! The Petri image (Fig. 3) and the phase unfolding (§II-D) of a fixed
//! corpus, pinned bit for bit.
//!
//! Both are read off the enabling conditions of eqs. (1)–(5). This suite
//! digests, per model, every place of the image (name, order, initial
//! marking), every transition (name, label, order, and its consume,
//! produce and read sets) and every vertex and arc of the unfolded event
//! graph (in order, with weight bits, token offsets and the items per
//! period), so a change to how the rule is stated or read must reproduce
//! the recorded digests exactly. The corpus: the 16 nets of the paper
//! sweep, fig7's models, `reconfigurable_depth(n,k)` for n ≤ 4,
//! `fully_static(2..=6)`, wagged pipelines up to 3 ways and depth 2, the
//! conditional-computation examples, both OPE builders and the hand-built
//! models of the bisimulation suite.

#[path = "../crates/core/tests/common/models.rs"]
mod models;

use rap::dfs::examples::{conditional_dfs, conditional_sdfs};
use rap::dfs::perf::unfold::unfold;
use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{to_petri, Dfs, DfsBuilder, GuardMode, PetriImage, TokenValue};
use rap::dse::{Config, Hardware};
use rap::ope::dfs_model::{ope_stage_delays, reconfigurable_ope_dfs, static_ope_dfs};

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

    fn text(&mut self, s: &str) {
        self.num(s.len());
        self.eat(s.as_bytes());
    }
}

/// The digest of a Petri image: its places in order with their initial
/// marking, then its transitions in order with their labels and arc sets,
/// then the complementary pairs.
fn net_digest(img: &PetriImage) -> u64 {
    let net = &img.net;
    let m0 = net.initial_marking();
    let mut h = Fnv::new();
    h.num(net.place_count());
    for p in net.places() {
        h.text(&net.place(p).name);
        h.num(usize::from(m0.is_marked(p)));
    }
    h.num(net.transition_count());
    for t in net.transitions() {
        let tr = net.transition(t);
        h.text(&tr.name);
        h.text(img.label(t));
        for arcs in [tr.consumes(), tr.produces(), tr.reads()] {
            h.num(arcs.len());
            for p in arcs {
                h.num(p.index());
            }
        }
    }
    for (p0, p1) in img.complementary_pairs() {
        h.num(p0.index());
        h.num(p1.index());
    }
    h.0
}

/// The digest of a model's phase unfolding: its vertices, its arcs in
/// order (weights by their bits), items and steps per period; or the
/// error that stopped the replay.
fn unfold_digest(dfs: &Dfs) -> u64 {
    let mut h = Fnv::new();
    match unfold(dfs) {
        Ok(u) => {
            h.num(u.graph.vertices.len());
            for v in &u.graph.vertices {
                h.num(v.node.index());
                h.num(usize::from(v.plus));
            }
            h.num(u.graph.arcs.len());
            for a in &u.graph.arcs {
                h.num(a.from);
                h.num(a.to);
                h.eat(&a.weight.to_bits().to_le_bytes());
                h.num(a.tokens as usize);
            }
            h.num(u.items_per_period as usize);
            h.num(u.steps_per_period);
        }
        Err(e) => h.text(&format!("{e:?}")),
    }
    h.0
}

/// The corpus, each model with its label.
fn corpus() -> Vec<(String, Dfs)> {
    let mut out: Vec<(String, Dfs)> = Vec::new();
    // the 16 nets of the paper sweep, as the sweep builds them
    let paper: [(Hardware, &[usize]); 6] = [
        (Hardware::Static { stages: 6 }, &[6]),
        (
            Hardware::Reconfigurable {
                stages: 6,
                share_ctrl: true,
            },
            &[1, 2, 3, 4, 5, 6],
        ),
        (
            Hardware::Reconfigurable {
                stages: 6,
                share_ctrl: false,
            },
            &[1, 2, 3, 4, 5, 6],
        ),
        (Hardware::Wagged { ways: 1, stages: 6 }, &[6]),
        (Hardware::Wagged { ways: 2, stages: 6 }, &[6]),
        (Hardware::Wagged { ways: 3, stages: 6 }, &[6]),
    ];
    for (hardware, depths) in paper {
        for &workload in depths {
            let config = Config {
                hardware,
                workload,
                sizing: 1.0,
                voltage: 1.2,
                delays: ope_stage_delays(),
            };
            out.push((config.label(), config.build().unwrap()));
        }
    }
    // fig7: the 3-stage pipelines are among `reconfigurable_depth` below;
    // its two broken initialisations
    let mut b = DfsBuilder::new();
    let input = b.register("in").marked().build();
    let lc = b
        .control("local_ctrl")
        .marked_with(TokenValue::True)
        .build();
    let gc = b
        .control("global_ctrl")
        .marked_with(TokenValue::False)
        .build();
    let filt = b.push("local_in").build();
    let o = b.register("local_out").build();
    b.connect(input, filt);
    b.connect(lc, filt);
    b.connect(gc, filt);
    b.connect(filt, o);
    out.push(("fig7 mis-initialised stage".into(), b.finish().unwrap()));
    let mut b = DfsBuilder::new();
    let c0 = b.control("c0").build();
    let c1 = b.control("c1").build();
    let c2 = b.control("c2").build();
    b.connect(c0, c1);
    b.connect(c1, c2);
    b.connect(c2, c0);
    out.push(("fig7 token-free control loop".into(), b.finish().unwrap()));
    for n in 1..=4 {
        for k in 1..=n {
            let spec = PipelineSpec::reconfigurable_depth(n, k).unwrap();
            out.push((
                format!("reconfigurable_depth({n},{k})"),
                build_pipeline(&spec).unwrap().dfs,
            ));
        }
    }
    for n in 2..=6 {
        out.push((
            format!("fully_static({n})"),
            build_pipeline(&PipelineSpec::fully_static(n)).unwrap().dfs,
        ));
    }
    for ways in 1..=3 {
        for depth in 1..=2 {
            out.push((
                format!("wagged_pipeline({ways},{depth})"),
                wagged_pipeline(ways, depth, 2.0).unwrap().dfs,
            ));
        }
    }
    for depth in 1..=3 {
        out.push((
            format!("conditional_sdfs({depth})"),
            conditional_sdfs(depth, 3.0).unwrap().dfs,
        ));
        out.push((
            format!("conditional_dfs({depth})"),
            conditional_dfs(depth, 3.0).unwrap().dfs,
        ));
    }
    for n in 1..=4 {
        out.push((
            format!("static_ope_dfs({n})"),
            static_ope_dfs(n).unwrap().dfs,
        ));
        for depth in 1..=n {
            out.push((
                format!("reconfigurable_ope_dfs({n},{depth})"),
                reconfigurable_ope_dfs(n, depth).unwrap().dfs,
            ));
        }
    }
    out.push(("plain ring".into(), models::plain_ring()));
    out.push(("control loop".into(), models::control_loop()));
    out.push(("mismatched guards".into(), models::mismatched_guards()));
    for mode in [GuardMode::And, GuardMode::Or] {
        out.push((format!("{mode:?} guards"), models::combined_guards(mode)));
    }
    out.push(("inverted guard".into(), models::inverted_guard()));
    out
}

/// Every model's image digest and unfolding digest, in corpus order.
#[test]
fn images_and_unfoldings_keep_their_digests() {
    let got: Vec<(String, u64, u64)> = corpus()
        .into_iter()
        .map(|(label, dfs)| {
            let net = net_digest(&to_petri(&dfs));
            (label, net, unfold_digest(&dfs))
        })
        .collect();
    let want: &[(&str, u64, u64)] = &[
        (
            "static(6)@d6 s1 1.2V",
            0x67ba_2f72_a04c_0b69,
            0x2065_c49e_b5ac_a08a,
        ),
        (
            "reconfigurable(6)@d1 s1 1.2V",
            0x1933_0263_e655_571b,
            0x5c7d_1bf9_e574_b294,
        ),
        (
            "reconfigurable(6)@d2 s1 1.2V",
            0x94b1_84d8_feb4_c6af,
            0x51e0_9245_ac6f_2868,
        ),
        (
            "reconfigurable(6)@d3 s1 1.2V",
            0x7118_0105_eb3c_9567,
            0xbfde_e98f_73d9_8680,
        ),
        (
            "reconfigurable(6)@d4 s1 1.2V",
            0x413d_fb95_7d3d_c2d7,
            0x6d6d_d1d0_79b4_7f00,
        ),
        (
            "reconfigurable(6)@d5 s1 1.2V",
            0x3291_684b_e877_4f2f,
            0x626f_1f93_f892_4824,
        ),
        (
            "reconfigurable(6)@d6 s1 1.2V",
            0x0476_88b2_9973_832f,
            0x5ec8_e056_968e_7405,
        ),
        (
            "reconfigurable(6,noshare)@d1 s1 1.2V",
            0x3b0a_aa44_71cb_d2bb,
            0x473a_a7e5_3f2e_e6d3,
        ),
        (
            "reconfigurable(6,noshare)@d2 s1 1.2V",
            0x3027_67d6_902b_38fb,
            0x1ebf_df1b_9a20_14af,
        ),
        (
            "reconfigurable(6,noshare)@d3 s1 1.2V",
            0xec17_51db_cef7_daa3,
            0x8f58_1884_a96f_3d13,
        ),
        (
            "reconfigurable(6,noshare)@d4 s1 1.2V",
            0x09af_1320_f7d1_a993,
            0xf6b7_f957_8c22_1183,
        ),
        (
            "reconfigurable(6,noshare)@d5 s1 1.2V",
            0xa887_400e_b440_6d7b,
            0x0480_f7ea_76c1_a91e,
        ),
        (
            "reconfigurable(6,noshare)@d6 s1 1.2V",
            0xdfab_e5a6_8f61_887b,
            0xaeba_7f4a_ea41_fc7a,
        ),
        (
            "wagged(1x6)@d6 s1 1.2V",
            0x45c8_eca5_c60a_21a2,
            0xe2f6_48d7_5978_d4ec,
        ),
        (
            "wagged(2x6)@d6 s1 1.2V",
            0xc3bd_42a6_5922_3bf4,
            0x98c8_06f5_8a0e_9ea3,
        ),
        (
            "wagged(3x6)@d6 s1 1.2V",
            0x3c17_6010_103d_ffa8,
            0xc8fb_6ab8_08cf_1bb0,
        ),
        (
            "fig7 mis-initialised stage",
            0x5937_77ed_f71d_f323,
            0x2a9e_bdaa_ff49_e768,
        ),
        (
            "fig7 token-free control loop",
            0x1c9e_46ef_e734_503e,
            0x2a9e_bdaa_ff49_e768,
        ),
        (
            "reconfigurable_depth(1,1)",
            0xc8b6_3137_451f_3f07,
            0x453f_cd12_f480_3088,
        ),
        (
            "reconfigurable_depth(2,1)",
            0x1169_9665_f032_7597,
            0x575c_a36b_a270_f56f,
        ),
        (
            "reconfigurable_depth(2,2)",
            0x1c45_13e3_e759_968b,
            0x3b4d_33f8_a331_7a16,
        ),
        (
            "reconfigurable_depth(3,1)",
            0x2561_f0bf_d1f3_bfec,
            0x0dc9_9116_25f3_37f7,
        ),
        (
            "reconfigurable_depth(3,2)",
            0x72c8_c99d_b118_72f8,
            0x9741_8b8c_e79b_59d7,
        ),
        (
            "reconfigurable_depth(3,3)",
            0xe92d_f6da_2318_f140,
            0x3993_0288_b84b_9dbf,
        ),
        (
            "reconfigurable_depth(4,1)",
            0x8399_9175_5350_df8b,
            0xb3b7_ce7b_60bf_1d7b,
        ),
        (
            "reconfigurable_depth(4,2)",
            0x7dbe_a844_821b_f847,
            0x2ebc_b5df_6c4b_26df,
        ),
        (
            "reconfigurable_depth(4,3)",
            0xd2c9_1316_5090_7b9f,
            0xeed2_69d9_18f1_546c,
        ),
        (
            "reconfigurable_depth(4,4)",
            0x7b94_0011_f14b_b77f,
            0xe27c_0418_f794_b9f4,
        ),
        (
            "fully_static(2)",
            0xc3c5_be41_76d7_8269,
            0x942a_762a_b58f_a521,
        ),
        (
            "fully_static(3)",
            0x8ad2_3037_d8d9_469f,
            0xf1f4_81d0_dd05_13f8,
        ),
        (
            "fully_static(4)",
            0x5f98_458e_0646_8fc5,
            0x9527_d4df_dfd1_0331,
        ),
        (
            "fully_static(5)",
            0xc5d2_2302_1a95_e8e7,
            0x4d54_56bb_8433_86c8,
        ),
        (
            "fully_static(6)",
            0x67ba_2f72_a04c_0b69,
            0xd245_2ab2_7190_3356,
        ),
        (
            "wagged_pipeline(1,1)",
            0x3423_71c5_9f3c_f309,
            0x7367_1eea_ff64_85dd,
        ),
        (
            "wagged_pipeline(1,2)",
            0x83ef_cc5f_d7e4_f479,
            0xb96e_2c31_95c1_57b1,
        ),
        (
            "wagged_pipeline(2,1)",
            0xe9c3_480c_2dfa_8f7c,
            0x45ea_c79a_ba94_2bf5,
        ),
        (
            "wagged_pipeline(2,2)",
            0x0cdf_8c7e_f893_efb8,
            0xeae5_15b2_f28e_3599,
        ),
        (
            "wagged_pipeline(3,1)",
            0x0d85_2526_57d3_f03f,
            0xed83_ced0_2e67_e444,
        ),
        (
            "wagged_pipeline(3,2)",
            0x132a_ff79_039f_4d8b,
            0x4e78_8678_d961_75d9,
        ),
        (
            "conditional_sdfs(1)",
            0x318e_79e6_8a20_3da1,
            0x02e0_c3f9_ff41_8bb5,
        ),
        (
            "conditional_dfs(1)",
            0xb535_7fa3_aef5_83ac,
            0x2fa7_f3b0_3035_2786,
        ),
        (
            "conditional_sdfs(2)",
            0xe48b_fde0_30ae_b84d,
            0x3436_ba0b_f6b2_e0f8,
        ),
        (
            "conditional_dfs(2)",
            0x6c78_95b4_6637_e088,
            0x964d_a502_a98a_159b,
        ),
        (
            "conditional_sdfs(3)",
            0x3e3c_a967_84b0_7fb1,
            0x40a8_955c_d661_838d,
        ),
        (
            "conditional_dfs(3)",
            0xa737_58d1_f7fb_290c,
            0x0641_63b7_6363_9abe,
        ),
        (
            "static_ope_dfs(1)",
            0xc8b6_3137_451f_3f07,
            0x1053_c593_0379_1498,
        ),
        (
            "reconfigurable_ope_dfs(1,1)",
            0xc8b6_3137_451f_3f07,
            0x1053_c593_0379_1498,
        ),
        (
            "static_ope_dfs(2)",
            0xc3c5_be41_76d7_8269,
            0xa9b9_aab1_9088_6fdd,
        ),
        (
            "reconfigurable_ope_dfs(2,1)",
            0x1169_9665_f032_7597,
            0x4ca1_a8bd_420a_2eef,
        ),
        (
            "reconfigurable_ope_dfs(2,2)",
            0x1c45_13e3_e759_968b,
            0x3004_6147_4cd4_deae,
        ),
        (
            "static_ope_dfs(3)",
            0x8ad2_3037_d8d9_469f,
            0x4762_1e33_9f38_1b60,
        ),
        (
            "reconfigurable_ope_dfs(3,1)",
            0x2561_f0bf_d1f3_bfec,
            0x82bb_9cca_958b_3ed3,
        ),
        (
            "reconfigurable_ope_dfs(3,2)",
            0x72c8_c99d_b118_72f8,
            0x76b7_c1b7_620f_3b5f,
        ),
        (
            "reconfigurable_ope_dfs(3,3)",
            0xe92d_f6da_2318_f140,
            0xc570_6b0a_4dff_6857,
        ),
        (
            "static_ope_dfs(4)",
            0x5f98_458e_0646_8fc5,
            0x2c3a_76f4_07c0_257d,
        ),
        (
            "reconfigurable_ope_dfs(4,1)",
            0x8399_9175_5350_df8b,
            0x77b6_6521_cfc7_d58b,
        ),
        (
            "reconfigurable_ope_dfs(4,2)",
            0x7dbe_a844_821b_f847,
            0x308c_147b_5a2a_1963,
        ),
        (
            "reconfigurable_ope_dfs(4,3)",
            0xd2c9_1316_5090_7b9f,
            0x2052_900a_5a1e_c93c,
        ),
        (
            "reconfigurable_ope_dfs(4,4)",
            0x7b94_0011_f14b_b77f,
            0x2661_7c07_0eb4_6d54,
        ),
        ("plain ring", 0x1fa7_aa44_bfaa_8d53, 0x841e_de01_fc31_46bc),
        ("control loop", 0xaa7b_4185_da4f_acf8, 0xe712_bd63_ea25_8297),
        (
            "mismatched guards",
            0xaddb_6ce6_9a3b_9899,
            0x2a9e_bdaa_ff49_e768,
        ),
        ("And guards", 0x4788_4091_f04b_3313, 0x2a9e_bdaa_ff49_e768),
        ("Or guards", 0x54a3_f194_2bcb_738c, 0xf8a0_1cd9_05cf_f82b),
        (
            "inverted guard",
            0x0873_a874_2183_0a56,
            0x2a9e_bdaa_ff49_e768,
        ),
    ];
    let want: Vec<(String, u64, u64)> = want
        .iter()
        .map(|&(label, net, unfolded)| (label.to_string(), net, unfolded))
        .collect();
    assert_eq!(got, want);
}

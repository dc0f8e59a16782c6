//! FIG9A — Computation time and energy consumption at different voltages
//! (Fig. 9a of the paper).
//!
//! Reproduces the voltage sweep 0.5–1.6 V for the 18-stage static pipeline
//! and the reconfigurable pipeline at full depth, normalised to the static
//! pipeline at the nominal 1.2 V (reference values 1.22 s and 2.74 mJ for
//! 16M LFSR-generated items). Also prints the tree-synchronisation variant
//! — the paper's "<10% in a future prototype" estimate.

use rap_bench::cli::BenchCli;
use rap_bench::{banner, num, row, ITEMS, REF_ENERGY_J, REF_TIME_S, V_NOMINAL};
use rap_ope::{ChipTimingModel, PipelineKind, SyncStyle};

fn main() {
    let cli = BenchCli::parse("fig9a_voltage_sweep", None);
    rap_bench::trace::with_trace(&cli, || run(&cli));
}

fn run(cli: &BenchCli) {
    banner("Fig. 9a — computation time and energy vs supply voltage (16M items)");
    let m = ChipTimingModel::paper_calibrated();
    let static_k = PipelineKind::Static;
    let chain_k = PipelineKind::Reconfigurable {
        depth: 18,
        sync: SyncStyle::DaisyChain,
    };
    let tree_k = PipelineKind::Reconfigurable {
        depth: 18,
        sync: SyncStyle::Tree,
    };

    let t_ref = m.computation_time(static_k, V_NOMINAL, ITEMS);
    let e_ref = m.energy(static_k, V_NOMINAL, ITEMS);
    println!(
        "reference (static @ {V_NOMINAL} V): {} s, {} mJ  (paper: {REF_TIME_S} s, {} mJ)\n",
        num(t_ref, 3),
        num(e_ref * 1e3, 3),
        REF_ENERGY_J * 1e3,
    );

    let widths = [7usize, 12, 12, 12, 12, 12, 12];
    println!(
        "{}",
        row(
            &[
                "V".into(),
                "t_stat/ref".into(),
                "t_rec/ref".into(),
                "t_tree/ref".into(),
                "E_stat/ref".into(),
                "E_rec/ref".into(),
                "E_tree/ref".into(),
            ],
            &widths
        )
    );
    let voltages: &[f64] = if cli.quick {
        &[0.5, 0.9, 1.2, 1.6]
    } else {
        &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6]
    };
    for &v in voltages {
        let cells = vec![
            format!("{v:.1}"),
            num(m.computation_time(static_k, v, ITEMS) / t_ref, 3),
            num(m.computation_time(chain_k, v, ITEMS) / t_ref, 3),
            num(m.computation_time(tree_k, v, ITEMS) / t_ref, 3),
            num(m.energy(static_k, v, ITEMS) / e_ref, 3),
            num(m.energy(chain_k, v, ITEMS) / e_ref, 3),
            num(m.energy(tree_k, v, ITEMS) / e_ref, 3),
        ];
        println!("{}", row(&cells, &widths));
    }

    let t_overhead = m.computation_time(chain_k, V_NOMINAL, ITEMS) / t_ref - 1.0;
    let e_overhead = m.energy(chain_k, V_NOMINAL, ITEMS) / e_ref - 1.0;
    let tree_overhead = m.computation_time(tree_k, V_NOMINAL, ITEMS) / t_ref - 1.0;
    println!("\nreconfigurability cost at nominal voltage:");
    println!(
        "  time  : {:+.1}%  (paper: +36% via daisy-chain C-elements)",
        t_overhead * 100.0
    );
    println!(
        "  energy: {:+.1}%  (paper: +5% control logic)",
        e_overhead * 100.0
    );
    println!(
        "  tree estimate: {:+.1}%  (paper: below +10%)",
        tree_overhead * 100.0
    );
}

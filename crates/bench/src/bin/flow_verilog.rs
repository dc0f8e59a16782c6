//! FLOW — The backend hand-off (§II-D): map a verified DFS model to an
//! NCL-D gate netlist and export structural Verilog for a conventional
//! EDA flow, reporting the area cost of the chain-vs-tree completion
//! choice (the §IV discussion item).

use dfs_core::DfsBuilder;
use rap_bench::banner;
use rap_bench::cli::BenchCli;
use rap_silicon::components::CompletionStyle;
use rap_silicon::map::{map_dfs, BlockFunction, MapConfig};
use rap_silicon::verilog::to_verilog;

fn main() {
    let cli = BenchCli::parse("flow_verilog", None);
    rap_bench::trace::with_trace(&cli, || run(&cli));
}

fn run(cli: &BenchCli) {
    banner("Flow — DFS -> NCL-D netlist -> Verilog export");

    // a small OPE-style stage: window register + comparator + rank adder
    let mut b = DfsBuilder::new();
    let win = b.register("window").marked().build();
    let item = b.register("item").build();
    let cmp = b.logic("cmp").build();
    let rank = b.register("rank").marked().build();
    let add = b.logic("add").build();
    let out = b.register("out").build();
    b.connect(win, cmp);
    b.connect(item, cmp);
    b.connect(cmp, add);
    b.connect(rank, add);
    b.connect(add, out);
    let dfs = b.finish().unwrap();

    for (name, style) in [
        ("tree", CompletionStyle::Tree { fan_in: 2 }),
        ("daisy-chain", CompletionStyle::Chain),
    ] {
        let mut cfg = MapConfig::with_width(16);
        cfg.completion = style;
        cfg.functions.insert("cmp".into(), BlockFunction::CompareGt);
        cfg.functions.insert("add".into(), BlockFunction::Add);
        let mapped = map_dfs(&dfs, &cfg).unwrap();
        println!(
            "{name:>12} completion: {} cells, {} nets, area {:.1} NAND-eq",
            mapped.netlist.cell_count(),
            mapped.netlist.net_count(),
            mapped.netlist.area()
        );
    }

    let mut cfg = MapConfig::with_width(16);
    cfg.functions.insert("cmp".into(), BlockFunction::CompareGt);
    cfg.functions.insert("add".into(), BlockFunction::Add);
    let mapped = map_dfs(&dfs, &cfg).unwrap();
    let verilog = to_verilog(&mapped.netlist, "ope_stage");
    let lines: Vec<&str> = verilog.lines().collect();
    let shown = if cli.quick { 10 } else { 40 };
    println!("\nVerilog ({} lines); first {shown}:", lines.len());
    for l in lines.iter().take(shown) {
        println!("  {l}");
    }
}

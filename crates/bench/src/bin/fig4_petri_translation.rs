//! FIG3/FIG4 — Petri-net semantics of DFS nodes and of the Fig. 1b model.
//!
//! Prints the structural statistics of the translation of the motivating
//! example (the net the paper draws in Fig. 4), checks the properties the
//! paper calls out in prose — `Mt_ctrl+` and `Mf_ctrl+` form a
//! non-deterministic choice while `Mt_filt+`/`Mf_filt+` are determined by
//! the control value — and emits the DOT rendering.

use dfs_core::examples::conditional_dfs;
use dfs_core::to_petri;
use rap_bench::banner;
use rap_bench::cli::BenchCli;
use rap_petri::reachability::{explore, ExploreConfig};

fn main() {
    let cli = BenchCli::parse("fig4_petri_translation", None);
    rap_bench::trace::with_trace(&cli, || run(&cli));
}

fn run(cli: &BenchCli) {
    banner("Fig. 4 — Petri-net image of the Fig. 1b DFS model");
    let model = conditional_dfs(1, 3.0).unwrap();
    let img = to_petri(&model.dfs);

    println!(
        "DFS: {} nodes, {} arcs  ->  PN: {} places, {} transitions",
        model.dfs.node_count(),
        model.dfs.edge_count(),
        img.net.place_count(),
        img.net.transition_count()
    );

    let m0 = img.net.initial_marking();
    println!("\ninitially marked places:");
    for p in m0.iter_marked() {
        println!("  {}", img.net.place(p).name);
    }

    // the paper's observation about the choice structure
    let space = explore(&img.net, ExploreConfig::default()).unwrap();
    let mt = img.net.transition_by_name("Mt_ctrl+").unwrap();
    let mf = img.net.transition_by_name("Mf_ctrl+").unwrap();
    // word-level enabledness probes on the state arena: no per-state
    // Marking materialisation
    let inc = rap_petri::engine::Incidence::from_net(&img.net);
    let both = space.states().find(|&s| {
        let w = space.words(s);
        inc.is_enabled(mt, w) && inc.is_enabled(mf, w)
    });
    println!(
        "\nMt_ctrl+ and Mf_ctrl+ simultaneously enabled in some reachable state: {}",
        both.is_some()
    );
    let ft = img.net.transition_by_name("Mt_filt+").unwrap();
    let ff = img.net.transition_by_name("Mf_filt+").unwrap();
    let filt_conflict = space.states().find(|&s| {
        let w = space.words(s);
        inc.is_enabled(ft, w) && inc.is_enabled(ff, w)
    });
    println!(
        "Mt_filt+ and Mf_filt+ ever in conflict (must be false — the control\n\
         value determines the choice): {}",
        filt_conflict.is_some()
    );
    println!("\nreachable markings: {}", space.len());

    if cli.quick {
        println!("\n--- DOT (skipped under --quick) ---");
    } else {
        println!("\n--- DOT ---");
        println!("{}", rap_petri::dot::to_dot(&img.net));
    }
}

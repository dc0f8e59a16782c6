//! FIG7 — Design-time verification of the reconfigurable OPE pipeline.
//!
//! "Several cases of deadlock and non-persistent behaviour (mostly due to
//! incorrect initialisation of control registers) were identified, analysed
//! and corrected during the design process" (§III-A). This experiment
//! reproduces that flow: correct configurations verify clean; a control
//! loop initialised inconsistently yields a control-mismatch witness and a
//! deadlock trace.

use dfs_core::pipelines::{build_pipeline, PipelineSpec};
use dfs_core::verify::{verify, VerifyConfig};
use dfs_core::{DfsBuilder, TokenValue};
use rap_bench::banner;
use rap_bench::cli::BenchCli;

fn main() {
    let cli = BenchCli::parse("fig7_verification", None);
    rap_bench::trace::with_trace(&cli, || run(&cli));
}

fn run(cli: &BenchCli) {
    banner("Fig. 7 — verification of reconfigurable OPE configurations");
    let cfg = VerifyConfig {
        max_states: 10_000_000,
    };

    println!("## correct initialisations (3-stage model, every depth)\n");
    println!("depth  states   deadlocks  mismatch  hazards");
    let max_depth = if cli.quick { 2 } else { 3 };
    for depth in 1..=max_depth {
        let p = build_pipeline(&PipelineSpec::reconfigurable_depth(3, depth).unwrap()).unwrap();
        let report = verify(&p.dfs, &cfg).unwrap();
        println!(
            "{depth:>5}  {:>7}  {:>9}  {:>8}  {:>7}",
            report.states,
            report.deadlocks.len(),
            report.control_mismatch.is_some(),
            report.hazards.len()
        );
    }

    println!("\n## an incorrectly initialised stage (the §III-A bug class)\n");
    // a stage whose two control guards disagree: True local, False global
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
    let out = b.register("local_out").build();
    b.connect(input, filt);
    b.connect(lc, filt);
    b.connect(gc, filt);
    b.connect(filt, out);
    let dfs = b.finish().unwrap();
    let report = verify(&dfs, &cfg).unwrap();
    match &report.control_mismatch {
        Some(cm) => println!(
            "control mismatch found ({}): trace = {:?}",
            cm.reason, cm.trace
        ),
        None => println!("control mismatch NOT found (unexpected)"),
    }
    match report.deadlocks.first() {
        Some(d) => println!(
            "deadlock found after {} events: {:?}",
            d.trace.len(),
            d.trace
        ),
        None => println!("no deadlock (unexpected)"),
    }

    println!("\n## token-free control loop (another init error)\n");
    let mut b = DfsBuilder::new();
    let c0 = b.control("c0").build(); // forgot the token!
    let c1 = b.control("c1").build();
    let c2 = b.control("c2").build();
    b.connect(c0, c1);
    b.connect(c1, c2);
    b.connect(c2, c0);
    let dfs = b.finish().unwrap();
    let report = verify(&dfs, &VerifyConfig { max_states: 1000 }).unwrap();
    println!(
        "empty 3-register control loop: {} reachable state(s), {} deadlock(s)",
        report.states,
        report.deadlocks.len()
    );
}

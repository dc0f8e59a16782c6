//! PERF — state-space exploration across pipeline shapes.
//!
//! Times the retained naive explorers (the seed implementations) and the
//! state-space engine on both backends — Petri-net reachability and the
//! direct-semantics LTS — over `reconfigurable_depth(n,k)` pipelines and
//! wagged pipelines. Wagged shapes additionally record the
//! symmetry-quotient state count. Prints a table and persists the
//! measurements to `BENCH_state_space.json` (schema v3) at the repository
//! root (the recorded perf trajectory of the verification hot path).
//!
//! Usage: `state_space_scaling [--quick] [--out PATH] [--trace-out PATH]`
//!
//! `--quick` restricts the sweep to sub-second shapes (the CI smoke
//! configuration); `--out` overrides the output path. The emitted JSON is
//! schema-validated before the process exits. `--trace-out` attaches a
//! live collector and writes the run's `rap/trace/v1` profile — per-case
//! spans with the engine's `engine.explore` spans under them — and
//! embeds its summary into the BENCH json; recording is observation-only,
//! so every measured number is unchanged.

use rap_bench::cli::BenchCli;
use rap_bench::state_space::{render_json_with_trace, run_sweep, validate};
use rap_bench::trace::TraceSink;
use rap_bench::{banner, num, row};

fn main() {
    let cli = BenchCli::parse("state_space_scaling", Some("BENCH_state_space.json"));
    let quick = cli.quick;
    let out = cli.out_path();
    let sink = TraceSink::from_cli(&cli);

    banner(if quick {
        "State-space scaling (quick sweep): naive explorer vs engine"
    } else {
        "State-space scaling: naive explorer vs engine"
    });
    let cases = run_sweep(quick, &sink.obs());

    let widths = [27usize, 6, 9, 11, 11, 8, 10];
    println!(
        "{}",
        row(
            &[
                "shape".into(),
                "backend".into(),
                "states".into(),
                "naive[ms]".into(),
                "engine[ms]".into(),
                "speedup".into(),
                "quotient".into(),
            ],
            &widths
        )
    );
    for c in &cases {
        let quotient = match c.quotient_states {
            Some(q) => format!("{q}"),
            None => "-".into(),
        };
        println!(
            "{}",
            row(
                &[
                    c.name.clone(),
                    c.backend.into(),
                    format!("{}", c.states),
                    num(c.naive_ms, 2),
                    num(c.engine_ms, 2),
                    format!("{}x", num(c.speedup(), 2)),
                    quotient,
                ],
                &widths
            )
        );
    }

    let trace = sink.finish();
    let json = render_json_with_trace(&cases, quick, trace.as_ref());
    let summary = validate(&json).unwrap_or_else(|e| {
        eprintln!("emitted JSON failed its own schema validation: {e}");
        std::process::exit(1);
    });
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    });
    println!(
        "\n{} cases, min speedup {}x, geomean {}x, max quotient reduction {}x — written to {}",
        summary.cases,
        num(summary.min_speedup, 2),
        num(summary.geomean_speedup, 2),
        num(summary.max_quotient_reduction, 2),
        out.display()
    );
}

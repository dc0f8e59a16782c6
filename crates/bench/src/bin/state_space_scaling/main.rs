//! PERF — state-space exploration across pipeline shapes.
//!
//! Times the state-space engine on both backends — Petri-net reachability
//! and the direct-semantics LTS — over `reconfigurable_depth(n,k)`
//! pipelines and wagged pipelines, asserting every state count against its
//! pinned value, and records the heap each explored space retains and the
//! most heap live while it was explored, counted by this bin's global
//! allocator ([`peak_heap::Counting`]). Wagged shapes additionally record
//! the symmetry-quotient state count. Prints a table and persists the
//! measurements to `BENCH_state_space.json` (schema v6) at the repository
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

mod peak_heap;

use rap_bench::cli::BenchCli;
use rap_bench::state_space::{render_json_with_trace, run_sweep, validate};
use rap_bench::trace::TraceSink;
use rap_bench::{banner, num, row};

#[global_allocator]
static HEAP: peak_heap::Counting = peak_heap::Counting;

fn main() {
    let cli = BenchCli::parse("state_space_scaling", Some("BENCH_state_space.json"));
    let quick = cli.quick;
    let out = cli.out_path();
    let sink = TraceSink::from_cli(&cli);

    banner(if quick {
        "State-space scaling (quick sweep): engine"
    } else {
        "State-space scaling: engine"
    });
    let cases = run_sweep(quick, &sink.obs(), peak_heap::peak_during);

    let widths = [27usize, 6, 9, 11, 10, 9, 10, 13];
    println!(
        "{}",
        row(
            &[
                "shape".into(),
                "backend".into(),
                "states".into(),
                "engine[ms]".into(),
                "space[MB]".into(),
                "peak[MB]".into(),
                "quotient".into(),
                "quotient[ms]".into(),
            ],
            &widths
        )
    );
    for c in &cases {
        let (quotient, quotient_ms) = match (c.quotient_states, c.quotient_ms) {
            (Some(q), Some(ms)) => (format!("{q}"), num(ms, 2)),
            _ => ("-".into(), "-".into()),
        };
        println!(
            "{}",
            row(
                &[
                    c.name.clone(),
                    c.backend.into(),
                    format!("{}", c.states),
                    num(c.engine_ms, 2),
                    num(c.space_mb, 1),
                    num(c.peak_mb, 1),
                    quotient,
                    quotient_ms,
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
        "\n{} cases, all at their pinned state counts, max quotient reduction {}x — written to {}",
        summary.cases,
        num(summary.max_quotient_reduction, 2),
        out.display()
    );
}

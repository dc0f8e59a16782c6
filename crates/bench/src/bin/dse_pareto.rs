//! DSE — design-space exploration over the paper's configuration space.
//!
//! Sweeps 576 configurations (static / reconfigurable / wagged OPE
//! hardware × workload window demands × datapath sizing × supply voltage)
//! through the `rap-dse` engine and prints the exact Pareto front over
//! (throughput, energy per item, area) for every demand, persisting the
//! measurements to `BENCH_dse.json` at the repository root. The paper's
//! OPE(6,4) design point — reconfigurable, 6 stages, operating depth 4,
//! nominal sizing and supply — must appear on the demand-4 front, with
//! its exact period-19 row from `fig5_performance`.
//!
//! Usage: `dse_pareto [--quick] [--out PATH] [--cache DIR] [--trace-out PATH]`
//!
//! `--quick` sweeps the 48-point smoke space over 3-stage hardware (the
//! CI configuration) and additionally cross-checks the parallel driver
//! against a single-threaded run; `--out` overrides the output path;
//! `--cache DIR` keeps the persistent artifact store at `DIR`, so a
//! re-invocation over the same directory starts disk-warm and its cold
//! pass performs zero full evaluations (the CI warm-restart job). The
//! sweep always ends with an in-process restart pass — a fresh session
//! over the store — that must reproduce the fronts bit-identically with
//! zero full evaluations. The emitted JSON is schema-validated before the
//! process exits. `--trace-out` attaches a live collector and writes the
//! run's `rap/trace/v1` profile (pass/sweep/eval spans, session and store
//! counters, disk-latency histograms) — observation-only, the fronts and
//! the `BENCH_dse.json` numbers are unchanged by it.

use rap_bench::cli::BenchCli;
use rap_bench::dse::{design_point, render_json_with_trace, run_sweep, validate};
use rap_bench::trace::TraceSink;
use rap_bench::{banner, num, row};
use rap_dse::{explore, DseConfig};
use rap_silicon::cost::CostModel;

fn main() {
    let cli = BenchCli::parse_with_cache("dse_pareto", Some("BENCH_dse.json"));
    let quick = cli.quick;
    let out = cli.out_path();
    let sink = TraceSink::from_cli(&cli);

    banner(if quick {
        "Design-space exploration (quick smoke space)"
    } else {
        "Design-space exploration: which pipeline should I build?"
    });

    let run = run_sweep(quick, cli.cache.as_deref(), &sink.obs());
    let stats = run.outcome.stats;
    println!(
        "{} configurations in {} ms on {} threads: {} full evaluations \
         ({} Petri screens), {} memo hits, {} pruned as provably dominated",
        stats.enumerated,
        num(run.elapsed_ms, 0),
        run.threads,
        stats.full_evaluations,
        run.screens[0],
        stats.memo_hits,
        stats.pruned,
    );
    println!(
        "warm re-sweep against the same session: {} ms, {} full evaluations \
         ({} served from the artifact cache) — fronts bit-identical",
        num(run.warm_elapsed_ms, 0),
        run.warm_stats.full_evaluations,
        run.warm_stats.memo_hits,
    );
    println!(
        "restarted sweep over the persistent store: {} ms, {} full \
         evaluations ({} disk hits, {} bytes read) — fronts bit-identical\n",
        num(run.restart_elapsed_ms, 0),
        run.restart_stats.full_evaluations,
        run.restart_store.disk_hits,
        run.restart_store.bytes_read,
    );

    let widths = [34usize, 13, 13, 9, 8];
    for (workload, front) in &run.outcome.fronts {
        println!(
            "## demand: window depth {workload} — {} Pareto points",
            front.len()
        );
        println!(
            "{}",
            row(
                &[
                    "configuration".into(),
                    "items/s".into(),
                    "energy/item[J]".into(),
                    "area[GE]".into(),
                    "period".into(),
                ],
                &widths
            )
        );
        for e in front {
            println!(
                "{}",
                row(
                    &[
                        e.label.clone(),
                        format!("{:.3e}", e.objectives.throughput),
                        format!("{:.3e}", e.objectives.energy_per_item),
                        format!("{:.0}", e.objectives.area),
                        num(e.period_units, 2),
                    ],
                    &widths
                )
            );
        }
        println!();
    }

    let (dp_label, dp_workload) = design_point(quick);
    let on_front = run
        .outcome
        .front(dp_workload)
        .iter()
        .any(|e| e.label == dp_label);
    println!("design point `{dp_label}` on the demand-{dp_workload} front: {on_front}");
    if !on_front {
        eprintln!("ACCEPTANCE FAILURE: the design point fell off its front");
        std::process::exit(1);
    }

    if quick {
        // cross-check the parallel driver against a single-threaded sweep
        // (spanned so a traced run's coverage accounts for this time too)
        let crosscheck_span = sink.obs().span("bench.crosscheck");
        let serial = explore(
            &rap_bench::dse::paper_space(true),
            &CostModel::default(),
            &DseConfig {
                threads: 1,
                ..DseConfig::default()
            },
        );
        drop(crosscheck_span);
        let same = serial.fronts.len() == run.outcome.fronts.len()
            && serial.fronts.iter().all(|(w, f)| {
                run.outcome.front(*w).len() == f.len()
                    && run
                        .outcome
                        .front(*w)
                        .iter()
                        .zip(f)
                        .all(|(a, b)| a.label == b.label)
            });
        println!("single-threaded cross-check: fronts identical = {same}");
        if !same {
            eprintln!("ACCEPTANCE FAILURE: parallel and serial fronts differ");
            std::process::exit(1);
        }
    }

    // the trace (if any) is snapshotted after every pass has closed its
    // spans, written to --trace-out, and self-validated against the
    // rap/trace/v1 schema; its summary is embedded into the BENCH json
    let trace = sink.finish();
    let json = render_json_with_trace(&run, trace.as_ref());
    let summary = validate(&json).unwrap_or_else(|e| {
        eprintln!("emitted JSON failed its own schema validation: {e}");
        std::process::exit(1);
    });
    std::fs::write(&out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", out.display());
        std::process::exit(1);
    });
    println!(
        "\n{} configurations ({} full, {} memoized, {} pruned) — written to {}",
        summary.configurations,
        summary.full_evaluations,
        summary.memo_hits,
        summary.pruned,
        out.display()
    );
}

//! `perfbench` — the repository's benchmark: seeded closed-loop workloads
//! over the rap flow, driven through the public API with the program's
//! defaults.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dse_cold|verify> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client sends requests in a closed loop: the next request goes out
//! only when the previous one has returned. Requests come in rounds (see
//! each workload's generator); the timed phase runs whole rounds until the
//! requests have taken at least `--seconds` and the run holds enough of
//! them for a p90 with ten requests beyond it.
//!
//! * `--trace 0` prints the end-to-end metrics: set-up time (per set-up,
//!   over slices of set-ups timed across the run), latency p50/p90, work
//!   per timed second, and the resident high-water mark of the timed phase.
//! * `--trace 1` sends a fixed number of whole rounds, and after each
//!   request replays its work layer by layer through the layers' public
//!   calls, each call inside one of the benchmark's own spans. It then
//!   sends and replays the first round once more and fails if a
//!   deterministic count differs. It prints the per-layer metrics and
//!   writes the spans to `.perfbench/trace-<workload>-<seed>.jsonl`.
//!
//! Every answer is checked, outside the timed region, against a reference
//! the code under test did not produce (the timed simulator, the O(n²)
//! Pareto filter, pinned state counts and periods). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Scratch files live under `.perfbench/` in the working
//! directory.

mod dse;
mod rng;
mod stats;
mod trace;
mod verify;

use stats::{quantile, Metric};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// One workload: its requests, how to send one, and how to check and
/// replay the answer.
pub trait Workload {
    type Req;
    type Out;

    fn name(&self) -> &'static str;
    /// The `i`-th request of the seeded sequence.
    fn request(&self, i: usize) -> Self::Req;
    /// Requests per round of the generator.
    fn round(&self) -> usize;
    /// Sends one request (the timed part).
    fn run(&self, req: &Self::Req, i: usize) -> Result<Self::Out, String>;
    /// Frees what the request left behind, outside the timed region.
    fn release(&self, _out: &Self::Out) {}
    /// Work answered by the request, in the workload's unit.
    fn work(&self, req: &Self::Req, out: &Self::Out) -> f64;
    /// Verification screens the request ran, and how many of them
    /// decided both the deadlock and the safety verdict.
    fn screens(&self, out: &Self::Out) -> (usize, usize);
    /// Compares the answer with an independent reference.
    fn check(&mut self, req: &Self::Req, out: &Self::Out) -> Result<(), String>;
    /// Replays the request's work layer by layer into `tr`.
    fn replay(
        &self,
        req: &Self::Req,
        out: &Self::Out,
        wall_ms: f64,
        tr: &mut Tracer,
    ) -> Result<(), String>;
}

const USAGE: &str =
    "usage: perfbench --workload <dse_cold|verify> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["dse_cold", "verify"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let base = root.join(format!("{}-{}", args.workload, std::process::id()));
    let result = match args.workload.as_str() {
        "dse_cold" => drive(&args, &root, &base, dse::Dse::setup, dse::SETUP_SLICE),
        _ => drive(
            &args,
            &root,
            &base,
            verify::Verify::setup,
            verify::SETUP_SLICE,
        ),
    };
    let _ = std::fs::remove_dir_all(&base);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A run that cannot finish its rounds within this many seconds of timed
/// phase stops and fails.
const TIMED_CAP_S: f64 = 120.0;
/// Seconds between two timed slices of set-ups in a run.
const SETUP_EVERY_S: f64 = 0.25;

/// Sets the workload up, then runs it timed or traced.
///
/// `setup_s` is the time per set-up over all the run's timed set-ups. They
/// come in slices of `slice` set-ups in a row (tens of milliseconds in
/// all), each set-up freed outside the timing before the next starts. One
/// untimed slice warms up; then one slice is timed before the first
/// request, and another between requests once a second has passed since
/// the last. A sub-millisecond set-up runs at one of two speeds, set by
/// the host and by what the process did just before, and keeps it for a
/// whole slice; spread over the run and summed, the slices see the same
/// mix as the requests do.
fn drive<W: Workload>(
    args: &Args,
    root: &Path,
    base: &Path,
    setup: impl Fn(u64, &Path) -> Result<W, String>,
    slice: usize,
) -> Result<String, String> {
    std::fs::create_dir_all(base).map_err(|e| format!("{}: {e}", base.display()))?;
    let mut w = setup(args.seed, base)?;
    if args.trace {
        // a traced run reports no set-up time
        return traced_run(&mut w, args, root);
    }
    let setup_slice = || -> Result<f64, String> {
        let mut s = 0.0;
        for _ in 0..slice {
            let t0 = Instant::now();
            let fresh = setup(args.seed, base)?;
            s += t0.elapsed().as_secs_f64();
            drop(fresh);
        }
        Ok(s)
    };
    setup_slice()?;
    timed_run(&mut w, args, setup_slice, slice)
}

/// Whether `n` latencies hold at least ten beyond the p90 position.
fn p90_ok(n: usize) -> bool {
    n > 0 && n - 1 - (0.9 * (n - 1) as f64).floor() as usize >= 10
}

fn send<W: Workload>(w: &W, req: &W::Req, i: usize) -> (Result<W::Out, String>, f64) {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| w.run(req, i)))
        .unwrap_or_else(|_| Err("request panicked".to_string()));
    (out, t0.elapsed().as_secs_f64())
}

/// Per-run accounting of answers.
#[derive(Default)]
struct Tally {
    failed: usize,
    work: f64,
    screens: usize,
    decided: usize,
}

impl Tally {
    /// Counts one request: its work and screens if `verdict` (the outcome
    /// of its answer check) passed, a failure otherwise.
    fn record<W: Workload>(
        &mut self,
        w: &W,
        req: &W::Req,
        out: &Result<W::Out, String>,
        verdict: Result<(), String>,
    ) {
        match verdict.and_then(|()| out.as_ref().map_err(Clone::clone)) {
            Ok(o) => {
                self.work += w.work(req, o);
                let (s, d) = w.screens(o);
                self.screens += s;
                self.decided += d;
            }
            Err(e) => {
                if self.failed < 5 {
                    eprintln!("perfbench: failed request: {e}");
                }
                self.failed += 1;
            }
        }
    }

    fn decided_ratio(&self) -> f64 {
        ratio(self.decided as f64, self.screens as f64)
    }
}

fn timed_run<W: Workload>(
    w: &mut W,
    args: &Args,
    setup_slice: impl Fn() -> Result<f64, String>,
    slice: usize,
) -> Result<String, String> {
    let (mut setup_total_s, mut setups) = (0.0, 0);
    let mut latencies_ms = Vec::new();
    let mut tally = Tally::default();
    let mut peak_rss: f64 = 0.0;
    let mut rss_reset = true;
    let mut timed_s = 0.0;
    let start = Instant::now();
    let mut last_setup = start;
    let mut i = 0;
    loop {
        if i == 0 || last_setup.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            setup_total_s += setup_slice()?;
            setups += slice;
            last_setup = Instant::now();
        }
        let req = w.request(i);
        // the high-water mark restarts at the current resident size before
        // every request, so the answer checks in between never count
        rss_reset &= stats::reset_peak_rss();
        let (out, dt) = send(w, &req, i);
        peak_rss = peak_rss.max(stats::peak_rss_mb().ok_or("cannot read VmHWM")?);
        timed_s += dt;
        latencies_ms.push(dt * 1e3);
        if let Ok(o) = &out {
            w.release(o);
        }
        let verdict = out
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|o| w.check(&req, o));
        tally.record(w, &req, &out, verdict);
        i += 1;
        if i % w.round() == 0 && timed_s >= args.seconds && p90_ok(i) {
            break;
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed > TIMED_CAP_S {
            return Err(format!("only {i} requests in {elapsed:.0} s"));
        }
    }
    println!(
        "{} seed {}: {i} requests ({} rounds) in {timed_s:.3} timed s; latency samples {i}; \
         failed_ratio {} ({}/{i}); decided_ratio {} ({}/{} screens); \
         setup_s over {setups} timed set-ups in {} slices; peak RSS {}",
        w.name(),
        args.seed,
        i / w.round(),
        tally.failed as f64 / i as f64,
        tally.failed,
        tally.decided_ratio(),
        tally.decided,
        tally.screens,
        setups / slice,
        if rss_reset {
            "per request"
        } else {
            "of the whole process (reset refused)"
        },
    );
    let metrics = vec![
        Metric::new("setup_s", setup_total_s / setups as f64, "s"),
        Metric::new("latency_ms_p50", quantile(&latencies_ms, 0.5), "ms"),
        Metric::new("latency_ms_p90", quantile(&latencies_ms, 0.9), "ms"),
        Metric::new("work_per_s", tally.work / timed_s, "1/s"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];
    Ok(finish(i, tally.failed, &metrics))
}

fn finish(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    stats::result_line(failed == 0 && finite, attempted, failed, metrics)
}

/// Whole rounds the traced run sends, per workload: sized so the run
/// (requests plus replay) takes about as long as a timed run.
fn traced_rounds(workload: &str) -> usize {
    match workload {
        "dse_cold" => 4,
        _ => 3,
    }
}

/// The spans of layers that duplicate or shadow a DSE request's own work
/// (the separate hash, the separate exploration beside `quick_check`,
/// and Howard's solver as an off-path reference) do not count towards
/// the replayed serial time.
const OFF_PATH: [&str; 3] = ["core.hash", "petri.explore", "core.howard"];

/// Sends request `i`, checks its answer and replays its work into `tr`.
fn send_and_replay<W: Workload>(w: &mut W, i: usize, tr: &mut Tracer, tally: &mut Tally) {
    let req = w.request(i);
    let (out, dt) = send(w, &req, i);
    let verdict = out.as_ref().map_err(Clone::clone).and_then(|o| {
        w.check(&req, o)?;
        tr.begin_request(i as u32);
        w.replay(&req, o, dt * 1e3, tr)
    });
    if let Ok(o) = &out {
        w.release(o);
    }
    tally.record(w, &req, &out, verdict);
}

fn traced_run<W: Workload>(w: &mut W, args: &Args, root: &Path) -> Result<String, String> {
    let mut tr = Tracer::new();
    let n = traced_rounds(&args.workload) * w.round();
    let mut tally = Tally::default();
    for i in 0..n {
        send_and_replay(w, i, &mut tr, &mut tally);
    }
    // the first round once more, as a second traced run on the same seed
    // would send it: its deterministic counts must repeat exactly, its
    // spans are not counted
    let mut again = Tracer::new();
    for i in 0..w.round() {
        send_and_replay(w, i, &mut again, &mut tally);
    }
    tr.repin(&again);
    for m in tr.mismatches() {
        eprintln!("perfbench: deterministic count changed: {m}");
    }
    std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
    let span_path = root.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    tr.write_spans(&span_path)
        .map_err(|e| format!("{}: {e}", span_path.display()))?;
    let metrics = layer_metrics(&tr, tally.decided_ratio(), n);
    let attempted = n + w.round();
    println!(
        "{} seed {}: traced {n} requests and repeated the first {}, {} spans written to {}",
        w.name(),
        args.seed,
        w.round(),
        tr.span_count(),
        span_path.display()
    );
    let failed_total = tally.failed + usize::from(!tr.mismatches().is_empty());
    Ok(finish(attempted, failed_total.min(attempted), &metrics))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(tr: &Tracer, decided_ratio: f64, requests: usize) -> Vec<Metric> {
    let own = tr.self_ms();
    let ms = |layer: &str| own.get(layer).copied().unwrap_or(0.0);
    let t = |name: &str| tr.total(name);
    let replay_ms = tr.total_ms("request");
    let serial_ms = replay_ms - OFF_PATH.iter().map(|l| ms(l)).sum::<f64>();
    let overhead_ns = trace::span_cost_ns(100_000) * tr.span_count() as f64;
    let explore_ms = ms("petri.explore");
    vec![
        Metric::new("dse.configs", t("dse.configs"), "count"),
        Metric::new("dse.full", t("dse.full"), "count"),
        Metric::new("dse.memo", t("dse.memo"), "count"),
        Metric::new("dse.pruned", t("dse.pruned"), "count"),
        Metric::new(
            "dse.full_ratio",
            ratio(t("dse.full"), t("dse.configs")),
            "fraction",
        ),
        Metric::new(
            "dse.front_yield",
            ratio(t("dse.front_full"), t("dse.full")),
            "fraction",
        ),
        Metric::new("dse.pareto.ms", ms("dse.pareto"), "ms"),
        Metric::new(
            "dse.parallel_speedup",
            if t("dse.requests") > 0.0 {
                ratio(serial_ms, t("dse.request_wall_ms"))
            } else {
                0.0
            },
            "ratio",
        ),
        Metric::new("model.build.ms", ms("model.build"), "ms"),
        Metric::new("model.build.calls", t("model.build.calls"), "count"),
        Metric::new("core.hash.ms", ms("core.hash"), "ms"),
        Metric::new("session.compile.ms", ms("session.compile"), "ms"),
        Metric::new(
            "session.compile.hit_ratio",
            ratio(t("session.compile_hits"), t("session.compiles")),
            "fraction",
        ),
        Metric::new("store.open.ms", ms("store.open"), "ms"),
        Metric::new("store.load.ms", ms("store.load"), "ms"),
        Metric::new("store.save.ms", ms("store.save"), "ms"),
        Metric::new("store.frames_read", t("store.frames_read"), "count"),
        Metric::new("store.frames_written", t("store.frames_written"), "count"),
        Metric::new("store.bytes_read", t("store.bytes_read"), "bytes"),
        Metric::new("store.bytes_written", t("store.bytes_written"), "bytes"),
        Metric::new(
            "store.hit_ratio",
            ratio(t("store.frames_read"), t("store.loads")),
            "fraction",
        ),
        Metric::new("core.to_petri.ms", ms("core.to_petri"), "ms"),
        Metric::new("core.to_petri.places", t("core.to_petri.places"), "count"),
        Metric::new("petri.explore.ms", explore_ms, "ms"),
        Metric::new("petri.explore.states", t("petri.explore.states"), "count"),
        Metric::new(
            "petri.explore.states_per_s",
            ratio(t("petri.explore.states"), explore_ms / 1e3),
            "1/s",
        ),
        Metric::new("petri.quotient.ms", ms("petri.quotient"), "ms"),
        Metric::new("petri.quotient.states", t("petri.quotient.states"), "count"),
        Metric::new("core.lts.ms", ms("core.lts"), "ms"),
        Metric::new("core.lts.states", t("core.lts.states"), "count"),
        Metric::new(
            "petri.verdict.ms",
            ms("petri.quick_check") - explore_ms + ms("petri.quick_check_quotient")
                - ms("petri.quotient"),
            "ms",
        ),
        Metric::new(
            "petri.verdict.rechecked",
            t("petri.verdict.rechecked"),
            "count",
        ),
        Metric::new("core.unfold.ms", ms("core.unfold"), "ms"),
        Metric::new("core.unfold.phases", t("core.unfold.phases"), "count"),
        Metric::new("core.unfold.vertices", t("core.unfold.vertices"), "count"),
        Metric::new("core.mcr.ms", ms("core.mcr"), "ms"),
        Metric::new("core.mcr.arcs", t("core.mcr.arcs"), "count"),
        Metric::new("core.howard.ms", ms("core.howard"), "ms"),
        Metric::new("silicon.cost.ms", ms("silicon.cost"), "ms"),
        Metric::new(
            "obs.overhead_ratio",
            ratio(overhead_ns / 1e6, replay_ms),
            "fraction",
        ),
        Metric::new("decided_ratio", decided_ratio, "fraction"),
        Metric::new("trace.requests", requests as f64, "count"),
    ]
}

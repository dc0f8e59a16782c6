//! The `dse_pareto` sweep: the paper's design space explored end to end,
//! persisted as `BENCH_dse.json`.
//!
//! The full space is the OPE product requirement of §III/§IV — hardware
//! that can serve window demands up to 6 — crossed with the operating
//! conditions the paper measures: static, reconfigurable (with and
//! without the shared-loop optimisation) and 1–3-way wagged-replicated
//! pipelines, a 4-point datapath sizing grid and a 4-point supply grid,
//! evaluated at every demanded depth 1–6. That is 576 distinct
//! configurations, of which only the distinct *structures* (64) pay for a
//! full evaluation, each exactly once, and only the distinct *untimed*
//! structures (16: sizing changes delays, never the Petri net) for a Petri
//! screen — the memo and screen counters in the emitted JSON record
//! exactly how much work the driver avoided.
//!
//! The acceptance anchor is the paper's design point: the reconfigurable
//! OPE pipeline, 6 stages, operating at depth 4, nominal sizing and
//! supply — `fig5_performance`'s exact period-19 row — must appear on the
//! demand-4 Pareto front.

use crate::json::{escape, Json};
use rap_dse::pareto::Objectives;
use rap_dse::{explore_with_session, DesignSpace, DseConfig, DseOutcome, Hardware};
use rap_obs::{Obs, Snapshot};
use rap_ope::dfs_model::ope_stage_delays;
use rap_silicon::cost::CostModel;
use std::time::Instant;

/// Schema tag embedded in (and required from) the emitted JSON. `v2`
/// added the `warm` object: the same sweep re-run against the warm
/// session, recording what the cross-sweep artifact cache saves. `v3`
/// added the `restart` object and store counters: the sweep now runs over
/// a persistent artifact store, and a *fresh* session over the same
/// directory — a simulated process restart — must perform zero full
/// evaluations, every structure served from disk. `v4` added `screens` to
/// the cold, warm and restart blocks: the Petri screens each pass ran (the
/// session's `check_runs`), one per untimed structure in a cold pass,
/// because timing twins share theirs.
pub const SCHEMA: &str = "rap/dse-pareto/v4";

/// The label of the paper's design point in the full sweep.
pub const PAPER_DESIGN_POINT: &str = "reconfigurable(6)@d4 s1 1.2V";

/// The exact period of the paper's design point (model time units; the
/// `fig5_performance` row pinned in `tests/experiments_hold.rs`).
pub const PAPER_DESIGN_PERIOD: f64 = 19.0;

/// The demand class whose front anchors the acceptance check.
pub const PAPER_WORKLOAD: usize = 4;

/// The full paper space (576 configurations) or the CI smoke space
/// (`quick`, 48 configurations over 3-stage hardware).
#[must_use]
pub fn paper_space(quick: bool) -> DesignSpace {
    if quick {
        DesignSpace {
            hardware: vec![
                Hardware::Static { stages: 3 },
                Hardware::Reconfigurable {
                    stages: 3,
                    share_ctrl: true,
                },
                Hardware::Wagged { ways: 1, stages: 3 },
                Hardware::Wagged { ways: 2, stages: 3 },
            ],
            workloads: vec![1, 2, 3],
            sizings: vec![1.0, 1.5],
            voltages: vec![0.9, 1.2],
            delays: ope_stage_delays(),
        }
    } else {
        DesignSpace {
            hardware: vec![
                Hardware::Static { stages: 6 },
                Hardware::Reconfigurable {
                    stages: 6,
                    share_ctrl: true,
                },
                Hardware::Reconfigurable {
                    stages: 6,
                    share_ctrl: false,
                },
                Hardware::Wagged { ways: 1, stages: 6 },
                Hardware::Wagged { ways: 2, stages: 6 },
                Hardware::Wagged { ways: 3, stages: 6 },
            ],
            workloads: (1..=6).collect(),
            sizings: vec![0.75, 1.0, 1.5, 2.0],
            voltages: vec![0.7, 0.9, 1.2, 1.6],
            delays: ope_stage_delays(),
        }
    }
}

/// A completed sweep with its timing: the cold pass (store-backed
/// session), a warm pass of the identical space against the now-populated
/// session, and a *restart* pass — a fresh session over the same store
/// directory, simulating a process restart served entirely from disk.
#[derive(Debug)]
pub struct SweepRun {
    /// The cold-pass outcome.
    pub outcome: DseOutcome,
    /// Wall-clock of the cold pass (ms).
    pub elapsed_ms: f64,
    /// Petri screens run per pass (cold, warm, restart): the session's
    /// `check_runs` delta over the pass.
    pub screens: [u64; 3],
    /// Wall-clock of the warm pass (ms).
    pub warm_elapsed_ms: f64,
    /// Counters of the warm pass (full evaluations = 0: every structure
    /// is served from the session cache).
    pub warm_stats: rap_dse::SweepStats,
    /// Wall-clock of the restart pass (ms).
    pub restart_elapsed_ms: f64,
    /// Counters of the restart pass (full evaluations = 0: every
    /// structure is served from the persistent store).
    pub restart_stats: rap_dse::SweepStats,
    /// Store counters of the restart session (disk hits, bytes read…).
    pub restart_store: rap_session::StoreStats,
    /// Threads used.
    pub threads: usize,
    /// Quick space?
    pub quick: bool,
}

/// Runs the sweep with the default driver configuration, recording into
/// `obs`.
///
/// `cache` names the persistent artifact-store directory. `None` uses a
/// scratch directory removed before returning; passing a real path makes
/// the sweep's artifacts survive the process, so a *re-invocation* over
/// the same path starts disk-warm (the CI warm-restart job drives this
/// through `dse_pareto --cache`). Either way the run includes an
/// in-process restart pass: a fresh session over the store directory that
/// must reproduce the fronts bit-identically with **zero** full
/// evaluations.
///
/// The three passes open `dse.pass.cold` / `dse.pass.warm` /
/// `dse.pass.restart` spans in `obs`, and the sessions and stores record
/// into `obs` too, so each sweep's spans and events, the query lifecycle
/// (`session.*`, under the `dse.eval` that asked) and the disk latencies
/// (`store.*_ns`) land in the same collector, inside their pass. Recording
/// is observation-only: the returned fronts are bit-identical to a run
/// over [`Obs::none`] (this very function asserts front equality across
/// its own passes either way, and `tests/trace_schema.rs` asserts it
/// across traced/untraced runs).
///
/// # Panics
///
/// Panics if the store directory cannot be opened (locked or unwritable),
/// if the sweep hits evaluation errors, if any pass drifts from the cold
/// fronts, if the warm or restart pass recomputes anything, or if a
/// reconfigurable point of the recorded evaluations runs faster at a
/// deeper operating depth (a property of the paper's reconfigurable
/// models; the front-equivalence property is tested in `rap-dse`'s
/// test-suite, against evaluating every configuration on its own).
#[must_use]
pub fn run_sweep(quick: bool, cache: Option<&std::path::Path>, obs: &Obs) -> SweepRun {
    let space = paper_space(quick);
    let cost = CostModel::default();
    let cfg = DseConfig::default();
    let (store_dir, scratch) = match cache {
        Some(dir) => (dir.to_path_buf(), false),
        None => {
            use std::sync::atomic::{AtomicU64, Ordering};
            static N: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "rap-dse-store-{}-{}",
                std::process::id(),
                N.fetch_add(1, Ordering::Relaxed)
            ));
            (dir, true)
        }
    };
    // a store open does real I/O (dir creation, the lock file, one read
    // of the frame log, and a compaction when superseded records outweigh
    // live ones), and a store's drop syncs the log its tenancy appended
    // to: keep both inside spans so cold-cache runs stay fully accounted
    let open = || {
        let _span = obs.span("session.open");
        rap_session::Store::open(&store_dir)
            .map(|store| rap_session::Session::with(Some(store), obs.clone()))
    };
    let close = |session: rap_session::Session| {
        let _span = obs.span("session.close");
        drop(session);
    };
    let session = open()
        .unwrap_or_else(|e| panic!("cannot open artifact store {}: {e:?}", store_dir.display()));
    let check_runs = |session: &rap_session::Session| session.stats().queries.check_runs;
    let t0 = Instant::now();
    let outcome = {
        let _pass = obs.span("dse.pass.cold");
        explore_with_session(&space, &cost, &cfg, &session)
    };
    let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cold_screens = check_runs(&session);
    // warm pass: the identical space against the populated session — the
    // cross-sweep artifact cache serves every structure, so the fronts
    // must be identical and no full evaluation happens
    let t1 = Instant::now();
    let warm = {
        let _pass = obs.span("dse.pass.warm");
        explore_with_session(&space, &cost, &cfg, &session)
    };
    let warm_elapsed_ms = t1.elapsed().as_secs_f64() * 1e3;
    let warm_screens = check_runs(&session) - cold_screens;
    assert_fronts_identical(&outcome, &warm);
    assert_eq!(
        warm.stats.full_evaluations, 0,
        "a warm re-sweep over the same session must recompute nothing"
    );
    // restart pass: close the session (syncing the log and releasing the
    // store lock), open a fresh one over the same directory and re-sweep —
    // every structure is served from disk, so the fronts are bit-identical
    // at zero full evaluations: the crash-safety contract, measured
    close(session);
    let session = open().unwrap_or_else(|e| panic!("cannot reopen artifact store: {e:?}"));
    let t2 = Instant::now();
    let restart = {
        let _pass = obs.span("dse.pass.restart");
        explore_with_session(&space, &cost, &cfg, &session)
    };
    let restart_elapsed_ms = t2.elapsed().as_secs_f64() * 1e3;
    let restart_screens = check_runs(&session);
    assert_fronts_identical(&outcome, &restart);
    assert_eq!(
        restart.stats.full_evaluations, 0,
        "a restarted sweep over an intact store must recompute nothing"
    );
    let restart_store = session.stats().store;
    assert!(
        restart_store.disk_hits > 0,
        "the restart pass never touched the store"
    );
    close(session);
    if scratch {
        let _span = obs.span("bench.cleanup");
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    assert_eq!(outcome.stats.errors, 0, "sweep produced evaluation errors");
    assert_eq!(outcome.stats.panics, 0, "a sweep worker panicked");
    assert_eq!(
        outcome.stats.check_violations, 0,
        "a swept configuration failed its verification screen"
    );
    // depth monotonicity, a property of the paper's reconfigurable models
    // that no driver assumption rests on: among the recorded evaluations,
    // a reconfigurable point never gets faster when operating deeper (same
    // hardware and sizing)
    for a in &outcome.evaluations {
        for b in &outcome.evaluations {
            if a.config.hardware == b.config.hardware
                && matches!(a.config.hardware, Hardware::Reconfigurable { .. })
                && a.config.sizing == b.config.sizing
                && a.config.workload < b.config.workload
            {
                assert!(
                    a.period_units <= b.period_units + 1e-9,
                    "depth monotonicity violated: {} ({}) vs {} ({})",
                    a.label,
                    a.period_units,
                    b.label,
                    b.period_units
                );
            }
        }
    }
    SweepRun {
        outcome,
        elapsed_ms,
        screens: [cold_screens, warm_screens, restart_screens],
        warm_elapsed_ms,
        warm_stats: warm.stats,
        restart_elapsed_ms,
        restart_stats: restart.stats,
        restart_store,
        threads: cfg.threads,
        quick,
    }
}

/// Bitwise front equality between two sweeps of the same space (labels,
/// objectives, periods): what "the cache changes the cost, never the
/// answer" means operationally — and, since tracing is observation-only,
/// also what "a recorder changes nothing" means (`tests/trace_schema.rs`
/// pins a traced sweep against an untraced one with this).
///
/// # Panics
///
/// On the first differing front entry.
pub fn assert_fronts_identical(a: &DseOutcome, b: &DseOutcome) {
    assert_eq!(a.fronts.len(), b.fronts.len(), "front count differs");
    for (workload, fa) in &a.fronts {
        let fb = b.front(*workload);
        assert_eq!(
            fa.len(),
            fb.len(),
            "front size differs at demand {workload}"
        );
        for (x, y) in fa.iter().zip(fb) {
            assert_eq!(x.label, y.label);
            assert_eq!(
                x.objectives.throughput.to_bits(),
                y.objectives.throughput.to_bits()
            );
            assert_eq!(
                x.objectives.energy_per_item.to_bits(),
                y.objectives.energy_per_item.to_bits()
            );
            assert_eq!(x.objectives.area.to_bits(), y.objectives.area.to_bits());
            assert_eq!(x.period_units.to_bits(), y.period_units.to_bits());
        }
    }
}

fn check_tag(truncated: bool) -> &'static str {
    if truncated {
        "inconclusive"
    } else {
        "clean"
    }
}

/// Renders a sweep as the `BENCH_dse.json` document.
#[must_use]
pub fn render_json(run: &SweepRun) -> String {
    render_json_with_trace(run, None)
}

/// [`render_json`] with an optional `trace_summary` block (wall-clock,
/// span coverage, top-5 spans by self-time) from a traced run's
/// [`Snapshot`]. The block is additive: the document stays schema-valid
/// with or without it, and every measured number is unchanged.
#[must_use]
pub fn render_json_with_trace(run: &SweepRun, trace: Option<&Snapshot>) -> String {
    let stats = run.outcome.stats;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {},\n", escape(SCHEMA)));
    out.push_str(&format!("  \"quick\": {},\n", run.quick));
    out.push_str(&format!("  \"threads\": {},\n", run.threads));
    out.push_str(&format!("  \"elapsed_ms\": {:.3},\n", run.elapsed_ms));
    if let Some(snap) = trace {
        out.push_str(&format!(
            "  \"trace_summary\": {},\n",
            crate::trace::summary_block(snap, "  ")
        ));
    }
    out.push_str("  \"stats\": {\n");
    out.push_str(&format!("    \"configurations\": {},\n", stats.enumerated));
    out.push_str(&format!(
        "    \"full_evaluations\": {},\n",
        stats.full_evaluations
    ));
    out.push_str(&format!("    \"memo_hits\": {},\n", stats.memo_hits));
    out.push_str(&format!("    \"pruned\": {},\n", stats.pruned));
    out.push_str(&format!(
        "    \"check_inconclusive\": {},\n",
        stats.check_inconclusive
    ));
    out.push_str(&format!("    \"screens\": {}\n", run.screens[0]));
    out.push_str("  },\n");
    out.push_str("  \"warm\": {\n");
    out.push_str(&format!(
        "    \"elapsed_ms\": {:.3},\n",
        run.warm_elapsed_ms
    ));
    out.push_str(&format!(
        "    \"full_evaluations\": {},\n",
        run.warm_stats.full_evaluations
    ));
    out.push_str(&format!(
        "    \"memo_hits\": {},\n",
        run.warm_stats.memo_hits
    ));
    out.push_str(&format!("    \"pruned\": {},\n", run.warm_stats.pruned));
    out.push_str(&format!("    \"screens\": {}\n", run.screens[1]));
    out.push_str("  },\n");
    out.push_str("  \"restart\": {\n");
    out.push_str(&format!(
        "    \"elapsed_ms\": {:.3},\n",
        run.restart_elapsed_ms
    ));
    out.push_str(&format!(
        "    \"full_evaluations\": {},\n",
        run.restart_stats.full_evaluations
    ));
    out.push_str(&format!(
        "    \"memo_hits\": {},\n",
        run.restart_stats.memo_hits
    ));
    out.push_str(&format!("    \"pruned\": {},\n", run.restart_stats.pruned));
    out.push_str(&format!("    \"screens\": {},\n", run.screens[2]));
    out.push_str("    \"store\": {\n");
    out.push_str(&format!(
        "      \"disk_hits\": {},\n",
        run.restart_store.disk_hits
    ));
    out.push_str(&format!(
        "      \"disk_misses\": {},\n",
        run.restart_store.disk_misses
    ));
    out.push_str(&format!(
        "      \"bytes_read\": {},\n",
        run.restart_store.bytes_read
    ));
    out.push_str(&format!(
        "      \"bytes_written\": {},\n",
        run.restart_store.bytes_written
    ));
    out.push_str(&format!(
        "      \"corrupt_recovered\": {},\n",
        run.restart_store.corrupt_recovered
    ));
    out.push_str(&format!(
        "      \"write_errors\": {}\n",
        run.restart_store.write_errors
    ));
    out.push_str("    }\n");
    out.push_str("  },\n");

    let (dp_label, dp_workload) = design_point(run.quick);
    let dp = run
        .outcome
        .front(dp_workload)
        .iter()
        .find(|e| e.label == dp_label);
    out.push_str("  \"design_point\": {\n");
    out.push_str(&format!("    \"label\": {},\n", escape(dp_label)));
    out.push_str(&format!("    \"workload\": {dp_workload},\n"));
    out.push_str(&format!("    \"on_front\": {},\n", dp.is_some()));
    out.push_str(&format!(
        "    \"period_units\": {}\n",
        dp.map_or_else(|| "null".to_string(), |e| format!("{:.6}", e.period_units))
    ));
    out.push_str("  },\n");

    out.push_str("  \"fronts\": [\n");
    let fronts: Vec<_> = run.outcome.fronts.iter().collect();
    for (fi, (workload, front)) in fronts.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"workload\": {workload},\n"));
        out.push_str("      \"points\": [\n");
        for (pi, e) in front.iter().enumerate() {
            out.push_str("        {\n");
            out.push_str(&format!("          \"label\": {},\n", escape(&e.label)));
            // lossless emission: near-ties (e.g. the shared- vs
            // separate-loop variants at the same period) must not collapse
            // into exact ties, or the validator's dominance re-check would
            // disagree with the full-precision kernel
            out.push_str(&format!(
                "          \"throughput\": {:e},\n",
                e.objectives.throughput
            ));
            out.push_str(&format!(
                "          \"energy_per_item\": {:e},\n",
                e.objectives.energy_per_item
            ));
            out.push_str(&format!("          \"area\": {:e},\n", e.objectives.area));
            out.push_str(&format!(
                "          \"period_units\": {:.6},\n",
                e.period_units
            ));
            out.push_str(&format!("          \"phases\": {},\n", e.phases));
            out.push_str(&format!("          \"memoized\": {},\n", e.memoized));
            out.push_str(&format!(
                "          \"check\": {}\n",
                escape(check_tag(e.check_truncated))
            ));
            out.push_str(if pi + 1 == front.len() {
                "        }\n"
            } else {
                "        },\n"
            });
        }
        out.push_str("      ]\n");
        out.push_str(if fi + 1 == fronts.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// The acceptance design point per mode: the paper's OPE(6,4) row in the
/// full space, its 3-stage analogue in the quick space.
#[must_use]
pub fn design_point(quick: bool) -> (&'static str, usize) {
    if quick {
        ("reconfigurable(3)@d2 s1 1.2V", 2)
    } else {
        (PAPER_DESIGN_POINT, PAPER_WORKLOAD)
    }
}

/// Summary extracted from a valid `BENCH_dse.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Enumerated configurations.
    pub configurations: usize,
    /// Full structural evaluations performed.
    pub full_evaluations: usize,
    /// Memo-table hits.
    pub memo_hits: usize,
    /// Petri screens run by the cold pass.
    pub screens: usize,
    /// Per workload: front size.
    pub front_sizes: Vec<(usize, usize)>,
    /// Was the mode's design point on its front?
    pub design_point_on_front: bool,
}

/// Validates a `BENCH_dse.json` document against the [`SCHEMA`] and the
/// semantic invariants of the sweep, returning its summary.
///
/// Beyond shape checks, this re-verifies that every emitted front is
/// mutually non-dominated and sorted by descending throughput, that the
/// work accounting adds up (`full + memo + pruned = configurations`), that
/// the cold pass ran at most one screen per full evaluation and the warm
/// and restart passes none, and
/// — for full (non-quick) documents — that the sweep covered ≥ 500
/// configurations, that memoization measurably reduced full
/// evaluations, that no screen left a verdict inconclusive
/// (`check_inconclusive` 0), and that the paper's OPE(6,4) design point
/// sits on the demand-4 front with its pinned period.
///
/// # Errors
///
/// A description of the first violation found.
pub fn validate(src: &str) -> Result<Summary, String> {
    let doc = Json::parse(src)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    let quick = doc
        .get("quick")
        .and_then(Json::as_bool)
        .ok_or("missing boolean \"quick\"")?;
    doc.get("elapsed_ms")
        .and_then(Json::as_f64)
        .filter(|x| x.is_finite() && *x >= 0.0)
        .ok_or("missing non-negative \"elapsed_ms\"")?;
    // optional (only present when the run was traced), but well-formed
    // when it is there
    if let Some(ts) = doc.get("trace_summary") {
        ts.get("wall_ns")
            .and_then(Json::as_f64)
            .filter(|x| *x >= 1.0)
            .ok_or("trace_summary: missing positive \"wall_ns\"")?;
        ts.get("coverage")
            .and_then(Json::as_f64)
            .filter(|x| (0.0..=1.0).contains(x))
            .ok_or("trace_summary: missing \"coverage\" in [0, 1]")?;
        let top = ts
            .get("top_self")
            .and_then(Json::as_arr)
            .ok_or("trace_summary: missing \"top_self\" array")?;
        if top.len() > 5 {
            return Err(format!(
                "trace_summary: top_self has {} entries (max 5)",
                top.len()
            ));
        }
    }

    let stats = doc.get("stats").ok_or("missing \"stats\"")?;
    let stat = |k: &str| -> Result<usize, String> {
        stats
            .get(k)
            .and_then(Json::as_f64)
            .filter(|x| x.is_finite() && *x >= 0.0 && x.fract() == 0.0)
            .map(|x| x as usize)
            .ok_or(format!("stats: missing count \"{k}\""))
    };
    let configurations = stat("configurations")?;
    let full_evaluations = stat("full_evaluations")?;
    let memo_hits = stat("memo_hits")?;
    let pruned = stat("pruned")?;
    if full_evaluations + memo_hits + pruned != configurations {
        return Err(format!(
            "work accounting broken: {full_evaluations} + {memo_hits} + {pruned} != {configurations}"
        ));
    }
    // (v4) every screen belongs to a full evaluation, and a cold pass that
    // evaluated anything screened something; a re-invocation over a
    // populated --cache directory evaluates and screens nothing
    let screens = stat("screens")?;
    if screens > full_evaluations || (full_evaluations > 0 && screens == 0) {
        return Err(format!(
            "cold pass ran {screens} screens for {full_evaluations} full evaluations \
             (need 1 <= screens <= full_evaluations)"
        ));
    }

    // the warm pass: same accounting, and the session cache must not
    // *increase* the number of full evaluations
    let warm = doc.get("warm").ok_or("missing \"warm\" object (v2)")?;
    let warm_stat = |k: &str| -> Result<usize, String> {
        warm.get(k)
            .and_then(Json::as_f64)
            .filter(|x| x.is_finite() && *x >= 0.0 && x.fract() == 0.0)
            .map(|x| x as usize)
            .ok_or(format!("warm: missing count \"{k}\""))
    };
    warm.get("elapsed_ms")
        .and_then(Json::as_f64)
        .filter(|x| x.is_finite() && *x >= 0.0)
        .ok_or("warm: missing non-negative \"elapsed_ms\"")?;
    let warm_full = warm_stat("full_evaluations")?;
    let warm_memo = warm_stat("memo_hits")?;
    let warm_pruned = warm_stat("pruned")?;
    if warm_full + warm_memo + warm_pruned != configurations {
        return Err(format!(
            "warm work accounting broken: {warm_full} + {warm_memo} + {warm_pruned} != {configurations}"
        ));
    }
    if warm_full > full_evaluations {
        return Err(format!(
            "warm pass performed more full evaluations ({warm_full}) than the cold pass ({full_evaluations})"
        ));
    }
    if warm_stat("screens")? != 0 {
        return Err("warm pass re-ran a screen the session had cached".to_string());
    }

    // the restart pass (v3): the crash-safety acceptance — a fresh session
    // over the same store directory performs zero full evaluations, and it
    // actually read the store (a restart that silently recomputed in
    // memory would also report zero disk hits)
    let restart = doc
        .get("restart")
        .ok_or("missing \"restart\" object (v3)")?;
    let restart_stat = |k: &str| -> Result<usize, String> {
        restart
            .get(k)
            .and_then(Json::as_f64)
            .filter(|x| x.is_finite() && *x >= 0.0 && x.fract() == 0.0)
            .map(|x| x as usize)
            .ok_or(format!("restart: missing count \"{k}\""))
    };
    restart
        .get("elapsed_ms")
        .and_then(Json::as_f64)
        .filter(|x| x.is_finite() && *x >= 0.0)
        .ok_or("restart: missing non-negative \"elapsed_ms\"")?;
    let restart_full = restart_stat("full_evaluations")?;
    let restart_memo = restart_stat("memo_hits")?;
    let restart_pruned = restart_stat("pruned")?;
    if restart_full + restart_memo + restart_pruned != configurations {
        return Err(format!(
            "restart work accounting broken: {restart_full} + {restart_memo} + {restart_pruned} != {configurations}"
        ));
    }
    if restart_full != 0 {
        return Err(format!(
            "restarted sweep performed {restart_full} full evaluations (must be 0: \
             every structure is served from the persistent store)"
        ));
    }
    if restart_stat("screens")? != 0 {
        return Err("restarted sweep re-ran a screen the store holds".to_string());
    }
    let store = restart
        .get("store")
        .ok_or("restart: missing \"store\" counters")?;
    let store_stat = |k: &str| -> Result<usize, String> {
        store
            .get(k)
            .and_then(Json::as_f64)
            .filter(|x| x.is_finite() && *x >= 0.0 && x.fract() == 0.0)
            .map(|x| x as usize)
            .ok_or(format!("restart.store: missing count \"{k}\""))
    };
    if store_stat("disk_hits")? == 0 {
        return Err("restarted sweep never read the store".to_string());
    }
    if store_stat("bytes_read")? == 0 {
        return Err("restarted sweep read zero bytes".to_string());
    }
    // deliberately NOT required: bytes_written > 0 — a re-invocation over
    // an already-populated --cache directory writes nothing anywhere
    store_stat("bytes_written")?;
    store_stat("disk_misses")?;
    store_stat("corrupt_recovered")?;
    store_stat("write_errors")?;

    let fronts = doc
        .get("fronts")
        .and_then(Json::as_arr)
        .ok_or("missing \"fronts\" array")?;
    if fronts.is_empty() {
        return Err("\"fronts\" is empty".to_string());
    }
    let mut front_sizes = Vec::new();
    for f in fronts {
        let workload = f
            .get("workload")
            .and_then(Json::as_f64)
            .ok_or("front: missing \"workload\"")? as usize;
        let points = f
            .get("points")
            .and_then(Json::as_arr)
            .ok_or("front: missing \"points\"")?;
        if points.is_empty() {
            return Err(format!("front for workload {workload} is empty"));
        }
        let mut objs: Vec<Objectives> = Vec::new();
        for (i, p) in points.iter().enumerate() {
            let num = |k: &str| -> Result<f64, String> {
                p.get(k)
                    .and_then(Json::as_f64)
                    .filter(|x| x.is_finite() && *x > 0.0)
                    .ok_or(format!(
                        "workload {workload} point {i}: \"{k}\" not a positive number"
                    ))
            };
            p.get("label")
                .and_then(Json::as_str)
                .ok_or(format!("workload {workload} point {i}: missing label"))?;
            objs.push(Objectives {
                throughput: num("throughput")?,
                energy_per_item: num("energy_per_item")?,
                area: num("area")?,
            });
            num("period_units")?;
        }
        for (i, a) in objs.iter().enumerate() {
            if i + 1 < objs.len() && a.throughput < objs[i + 1].throughput {
                return Err(format!(
                    "workload {workload}: front not sorted by descending throughput at {i}"
                ));
            }
            for (j, b) in objs.iter().enumerate() {
                if i != j && a.dominates(b) {
                    return Err(format!(
                        "workload {workload}: front point {i} dominates point {j}"
                    ));
                }
            }
        }
        front_sizes.push((workload, points.len()));
    }

    let dp = doc.get("design_point").ok_or("missing \"design_point\"")?;
    let on_front = dp
        .get("on_front")
        .and_then(Json::as_bool)
        .ok_or("design_point: missing \"on_front\"")?;
    if !on_front {
        return Err("the design point is not on its Pareto front".to_string());
    }
    let dp_label = dp
        .get("label")
        .and_then(Json::as_str)
        .ok_or("design_point: missing \"label\"")?;

    if !quick {
        if configurations < 500 {
            return Err(format!(
                "full sweep covered only {configurations} configurations (need >= 500)"
            ));
        }
        if memo_hits == 0 || full_evaluations >= configurations {
            return Err("memoization did not reduce full evaluations".to_string());
        }
        // the screen decides every paper structure inside its budget
        let inconclusive = stat("check_inconclusive")?;
        if inconclusive != 0 {
            return Err(format!(
                "check_inconclusive is {inconclusive}: every full evaluation's screen \
                 must decide both verdicts"
            ));
        }
        if dp_label != PAPER_DESIGN_POINT {
            return Err(format!(
                "full-sweep design point is {dp_label:?}, expected {PAPER_DESIGN_POINT:?}"
            ));
        }
        let period = dp
            .get("period_units")
            .and_then(Json::as_f64)
            .ok_or("design_point: missing \"period_units\"")?;
        if (period - PAPER_DESIGN_PERIOD).abs() > 1e-6 {
            return Err(format!(
                "design-point period {period} drifted from the pinned {PAPER_DESIGN_PERIOD}"
            ));
        }
    }

    Ok(Summary {
        configurations,
        full_evaluations,
        memo_hits,
        screens,
        front_sizes,
        design_point_on_front: on_front,
    })
}

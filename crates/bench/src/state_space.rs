//! The `state_space_scaling` sweep: engine timings over the paper's
//! pipeline shapes, persisted as `BENCH_state_space.json` (schema v6).
//!
//! The sweep drives both state-space backends — Petri-net reachability and
//! the direct-semantics LTS — over `PipelineSpec::reconfigurable_depth`
//! instances and wagged pipelines. Per case it times:
//!
//! * the state-space engine, asserting its state count and truncation
//!   against the values pinned in `PINNED`, and records what the explored
//!   space retains on the heap (`space_mb`, from
//!   `StateSpace::heap_bytes`) and the most heap live during the
//!   exploration (`peak_mb`, from a [`HeapProbe`]);
//! * for wagged shapes, the symmetry **quotient** (one state per way-rotation
//!   orbit), recording the reduced state count — the `quotient_states` axis,
//!   pinned too.
//!
//! The seed explorers the engine replaced are test oracles now (the
//! dev-only `rap-oracle` crate) and are not timed here; the headline is
//! the engine's time against the previous recording of this file.
//!
//! The emitted JSON is this repo's recorded perf trajectory; its schema is
//! validated by [`validate`], which both the binary and the smoke tests run.

use crate::json::{escape, Json};
use dfs_core::pipelines::{build_pipeline, PipelineSpec};
use dfs_core::wagging::wagged_pipeline;
use dfs_core::{node_rotation_symmetry, to_petri, Dfs, Lts};
use rap_obs::{Obs, Snapshot};
use rap_petri::reachability::{explore_quotient_truncated, explore_truncated, ExploreConfig};
use std::time::Instant;

/// Schema tag embedded in (and required from) the emitted JSON.
pub const SCHEMA: &str = "rap/state-space-scaling/v6";

/// State budget for every sweep case (none of the swept shapes truncate).
pub const MAX_STATES: usize = 16_000_000;

/// What every sweep case must reproduce: `(name, backend, states,
/// quotient_states)`, none of them truncated. These are the counts of the
/// last recording that still cross-checked the engine against the seed
/// explorers, so a drift means the engine or a model generator changed
/// behaviour.
const PINNED: &[(&str, &str, usize, Option<usize>)] = &[
    ("reconfigurable_depth(2,2)", "petri", 1_536, None),
    ("reconfigurable_depth(2,2)", "lts", 1_536, None),
    ("wagging(ways=1,depth=1)", "petri", 11_160, None),
    ("reconfigurable_depth(3,2)", "petri", 238_896, None),
    ("reconfigurable_depth(3,3)", "petri", 173_340, None),
    ("reconfigurable_depth(3,3)", "lts", 173_340, None),
    ("wagging(ways=1,depth=1)", "lts", 11_160, None),
    ("wagging(ways=2,depth=1)", "petri", 1_476_774, Some(738_387)),
];

/// `Err` naming the difference when a case's counts are not its
/// `PINNED` entry (or it has none).
fn check_pinned(
    name: &str,
    backend: &str,
    states: usize,
    truncated: bool,
    quotient_states: Option<usize>,
) -> Result<(), String> {
    let &(_, _, want, want_quotient) = PINNED
        .iter()
        .find(|p| p.0 == name && p.1 == backend)
        .ok_or(format!("{name} [{backend}]: not a pinned case"))?;
    if (states, truncated, quotient_states) != (want, false, want_quotient) {
        return Err(format!(
            "{name} [{backend}]: {states} states (truncated {truncated}, quotient \
             {quotient_states:?}), pinned {want} (not truncated, quotient {want_quotient:?})"
        ));
    }
    Ok(())
}

/// One measured sweep case.
#[derive(Debug, Clone)]
pub struct Case {
    /// Model shape, e.g. `reconfigurable_depth(3,3)`.
    pub name: String,
    /// `"petri"` (PN reachability) or `"lts"` (direct semantics).
    pub backend: &'static str,
    /// States discovered.
    pub states: usize,
    /// Whether the budget truncated exploration.
    pub truncated: bool,
    /// Best-of-N wall-clock of the state-space engine, milliseconds.
    pub engine_ms: f64,
    /// Heap the explored space retains (`StateSpace::heap_bytes`), in MB
    /// (10^6 bytes).
    pub space_mb: f64,
    /// Peak live heap during the exploration, above what was live before
    /// it, in MB: at least `space_mb`, since the space is live when the
    /// exploration returns.
    pub peak_mb: f64,
    /// Orbit representatives of the symmetry quotient (wagged shapes only).
    pub quotient_states: Option<usize>,
    /// Best-of-N wall-clock of the quotient exploration, milliseconds.
    pub quotient_ms: Option<f64>,
}

impl Case {
    /// Full-over-quotient state-count ratio (≈ the symmetry group order).
    #[must_use]
    pub fn quotient_reduction(&self) -> Option<f64> {
        self.quotient_states
            .map(|q| self.states as f64 / q.max(1) as f64)
    }
}

/// Best-of-`reps` wall-clock of `f`, in milliseconds, with `f`'s last result.
fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        last = Some(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (last.expect("reps >= 1"), best)
}

/// `bytes` in MB (10^6 bytes).
fn megabytes(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Runs a call and returns the most heap live during it above what was
/// live when it began, in bytes. The measurement needs a counting global
/// allocator, which the `state_space_scaling` bin installs (the library
/// forbids the unsafe code one takes).
pub type HeapProbe = fn(&mut dyn FnMut()) -> usize;

/// `f`'s result and the peak heap `heap` measured during it.
fn with_peak<R>(heap: HeapProbe, f: impl FnOnce() -> R) -> (R, usize) {
    let mut f = Some(f);
    let mut out = None;
    let peak = heap(&mut || out = f.take().map(|f| f()));
    (out.expect("the probe runs the call"), peak)
}

/// The sweep's exploration config, recording into `obs`.
fn cfg(obs: &Obs) -> ExploreConfig {
    ExploreConfig {
        max_states: MAX_STATES,
        obs: obs.clone(),
        ..ExploreConfig::default()
    }
}

fn petri_case(
    name: &str,
    dfs: &Dfs,
    reps: usize,
    way_rotation: Option<&[u32]>,
    obs: &Obs,
    heap: HeapProbe,
) -> Case {
    // one span per case; the engine and quotient explorations below feed
    // their `engine.explore` spans into it, so a traced
    // BENCH_state_space.json can attribute each case's time to the engine
    let _case = obs.span("bench.case.petri");
    let img = to_petri(dfs);
    let ((engine, peak), engine_ms) = best_of(reps, || {
        with_peak(heap, || explore_truncated(&img.net, cfg(obs)))
    });
    let (quotient_states, quotient_ms) = match way_rotation {
        Some(perm) => {
            let sym = img
                .induced_symmetry(perm)
                .expect("way rotation induces a net automorphism")
                .state_symmetry();
            let (quo, ms) = best_of(reps, || {
                explore_quotient_truncated(&img.net, cfg(obs), &sym)
            });
            assert!(!quo.is_truncated(), "{name}: quotient truncated");
            (Some(quo.len()), Some(ms))
        }
        None => (None, None),
    };
    Case {
        name: name.to_string(),
        backend: "petri",
        states: engine.len(),
        truncated: engine.is_truncated(),
        engine_ms,
        space_mb: megabytes(engine.heap_bytes()),
        peak_mb: megabytes(peak),
        quotient_states,
        quotient_ms,
    }
}

fn lts_case(
    name: &str,
    dfs: &Dfs,
    reps: usize,
    way_rotation: Option<&[u32]>,
    obs: &Obs,
    heap: HeapProbe,
) -> Case {
    let _case = obs.span("bench.case.lts");
    let ((engine, peak), engine_ms) = best_of(reps, || {
        with_peak(heap, || Lts::explore_with(dfs, &cfg(obs), None))
    });
    let (quotient_states, quotient_ms) = match way_rotation {
        Some(perm) => {
            let sym = node_rotation_symmetry(dfs, perm)
                .expect("way rotation is a structural automorphism");
            let (quo, ms) = best_of(reps, || Lts::explore_with(dfs, &cfg(obs), Some(&sym)));
            assert!(!quo.is_truncated(), "{name}: quotient truncated");
            (Some(quo.len()), Some(ms))
        }
        None => (None, None),
    };
    Case {
        name: name.to_string(),
        backend: "lts",
        states: engine.len(),
        truncated: engine.is_truncated(),
        engine_ms,
        space_mb: megabytes(engine.heap_bytes()),
        peak_mb: megabytes(peak),
        quotient_states,
        quotient_ms,
    }
}

/// Runs the sweep, recording into `obs`. `quick` restricts it to
/// sub-second shapes (CI smoke); the full sweep covers the acceptance shape
/// `reconfigurable_depth(3,3)` and the 2-way wagged pipeline (~1.5M
/// states).
///
/// Each case opens a `bench.case.petri` / `bench.case.lts` span in `obs`,
/// and the engine and quotient explorations inside it emit one
/// `engine.explore` span each plus the `engine.*` counters — so a traced
/// `BENCH_state_space.json` can attribute each case's wall-clock to the
/// engine. Recording is observation-only: states, truncation and every
/// assertion are unchanged. `heap` measures each case's `peak_mb`.
///
/// # Panics
///
/// When a case's counts differ from its `PINNED` entry.
#[must_use]
pub fn run_sweep(quick: bool, obs: &Obs, heap: HeapProbe) -> Vec<Case> {
    let reconfig = |n: usize, k: usize| {
        build_pipeline(&PipelineSpec::reconfigurable_depth(n, k).expect("valid sweep shape"))
            .expect("pipeline builds")
            .dfs
    };
    let wagged = |ways: usize| wagged_pipeline(ways, 1, 1.0).expect("wagging builds");

    let mut cases = Vec::new();
    cases.push(petri_case(
        "reconfigurable_depth(2,2)",
        &reconfig(2, 2),
        5,
        None,
        obs,
        heap,
    ));
    cases.push(lts_case(
        "reconfigurable_depth(2,2)",
        &reconfig(2, 2),
        5,
        None,
        obs,
        heap,
    ));
    let w1 = wagged(1);
    cases.push(petri_case(
        "wagging(ways=1,depth=1)",
        &w1.dfs,
        3,
        None,
        obs,
        heap,
    ));
    if !quick {
        cases.push(petri_case(
            "reconfigurable_depth(3,2)",
            &reconfig(3, 2),
            2,
            None,
            obs,
            heap,
        ));
        cases.push(petri_case(
            "reconfigurable_depth(3,3)",
            &reconfig(3, 3),
            3,
            None,
            obs,
            heap,
        ));
        cases.push(lts_case(
            "reconfigurable_depth(3,3)",
            &reconfig(3, 3),
            2,
            None,
            obs,
            heap,
        ));
        cases.push(lts_case(
            "wagging(ways=1,depth=1)",
            &w1.dfs,
            3,
            None,
            obs,
            heap,
        ));
        let w2 = wagged(2);
        cases.push(petri_case(
            "wagging(ways=2,depth=1)",
            &w2.dfs,
            1,
            Some(&w2.way_rotation),
            obs,
            heap,
        ));
    }
    for c in &cases {
        check_pinned(&c.name, c.backend, c.states, c.truncated, c.quotient_states)
            .unwrap_or_else(|e| panic!("{e}"));
    }
    cases
}

/// Renders the sweep as the `BENCH_state_space.json` document.
#[must_use]
pub fn render_json(cases: &[Case], quick: bool) -> String {
    render_json_with_trace(cases, quick, None)
}

/// [`render_json`] with an optional `trace_summary` block from a traced
/// run's [`Snapshot`] — the engine spans let the document say how much of
/// the sweep's wall-clock the engine takes. The block is additive: the document stays schema-valid without it and
/// every measured number is unchanged.
#[must_use]
pub fn render_json_with_trace(cases: &[Case], quick: bool, trace: Option<&Snapshot>) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {},\n", escape(SCHEMA)));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"max_states\": {MAX_STATES},\n"));
    if let Some(snap) = trace {
        out.push_str(&format!(
            "  \"trace_summary\": {},\n",
            crate::trace::summary_block(snap, "  ")
        ));
    }
    out.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": {},\n", escape(&c.name)));
        out.push_str(&format!("      \"backend\": {},\n", escape(c.backend)));
        out.push_str(&format!("      \"states\": {},\n", c.states));
        out.push_str(&format!("      \"truncated\": {},\n", c.truncated));
        out.push_str(&format!("      \"engine_ms\": {:.3},\n", c.engine_ms));
        out.push_str(&format!("      \"space_mb\": {:.3},\n", c.space_mb));
        out.push_str(&format!("      \"peak_mb\": {:.3},\n", c.peak_mb));
        match (c.quotient_states, c.quotient_ms) {
            (Some(q), Some(ms)) => {
                out.push_str(&format!("      \"quotient_states\": {q},\n"));
                out.push_str(&format!("      \"quotient_ms\": {ms:.3}\n"));
            }
            _ => {
                out.push_str("      \"quotient_states\": null,\n");
                out.push_str("      \"quotient_ms\": null\n");
            }
        }
        out.push_str(if i + 1 == cases.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    let max_quot = cases
        .iter()
        .filter_map(Case::quotient_reduction)
        .fold(1.0f64, f64::max);
    out.push_str("  \"summary\": {\n");
    out.push_str(&format!("    \"cases\": {},\n", cases.len()));
    out.push_str(&format!("    \"max_quotient_reduction\": {max_quot:.3}\n"));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Summary extracted from a valid `BENCH_state_space.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of sweep cases.
    pub cases: usize,
    /// Largest full/quotient state-count ratio across cases (1.0 when no
    /// case has a quotient axis).
    pub max_quotient_reduction: f64,
}

/// Validates a `BENCH_state_space.json` document against the v6 schema —
/// every case's counts included, against `PINNED`, a positive `space_mb`
/// and a `peak_mb` of at least `space_mb` — and returns its summary.
///
/// # Errors
///
/// A description of the first schema violation found.
pub fn validate(src: &str) -> Result<Summary, String> {
    let doc = Json::parse(src)?;
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing \"schema\"")?;
    if schema != SCHEMA {
        return Err(format!("schema is {schema:?}, expected {SCHEMA:?}"));
    }
    doc.get("quick")
        .and_then(Json::as_bool)
        .ok_or("missing boolean \"quick\"")?;
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
        ts.get("top_self")
            .and_then(Json::as_arr)
            .ok_or("trace_summary: missing \"top_self\" array")?;
    }
    let cases = doc
        .get("cases")
        .and_then(Json::as_arr)
        .ok_or("missing \"cases\" array")?;
    if cases.is_empty() {
        return Err("\"cases\" is empty".to_string());
    }
    for (i, c) in cases.iter().enumerate() {
        let field = |k: &str| c.get(k).ok_or(format!("case {i}: missing \"{k}\""));
        let backend = field("backend")?
            .as_str()
            .ok_or(format!("case {i}: \"backend\" not a string"))?;
        if backend != "petri" && backend != "lts" {
            return Err(format!("case {i}: unknown backend {backend:?}"));
        }
        let name = field("name")?
            .as_str()
            .ok_or(format!("case {i}: \"name\" not a string"))?;
        let truncated = field("truncated")?
            .as_bool()
            .ok_or(format!("case {i}: \"truncated\" not a bool"))?;
        let num = |k: &str| -> Result<f64, String> {
            field(k)?
                .as_f64()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or(format!("case {i}: \"{k}\" not a non-negative number"))
        };
        num("engine_ms")?;
        let space_mb = num("space_mb")?;
        if space_mb <= 0.0 {
            return Err(format!("case {i}: \"space_mb\" not positive"));
        }
        if num("peak_mb")? < space_mb {
            return Err(format!("case {i}: \"peak_mb\" below \"space_mb\""));
        }
        let states = num("states")?;
        if states < 1.0 {
            return Err(format!("case {i}: zero states"));
        }
        let qs = field("quotient_states")?;
        let quotient_states = match qs.as_f64() {
            Some(q) => {
                if !(1.0..=states).contains(&q) {
                    return Err(format!("case {i}: quotient_states outside [1, states]"));
                }
                field("quotient_ms")?
                    .as_f64()
                    .filter(|x| x.is_finite() && *x >= 0.0)
                    .ok_or(format!("case {i}: quotient without \"quotient_ms\""))?;
                Some(q as usize)
            }
            None => {
                if *qs != Json::Null {
                    return Err(format!("case {i}: \"quotient_states\" not number or null"));
                }
                None
            }
        };
        check_pinned(name, backend, states as usize, truncated, quotient_states)
            .map_err(|e| format!("case {i}: {e}"))?;
    }
    let summary = doc.get("summary").ok_or("missing \"summary\"")?;
    let get_num = |k: &str| -> Result<f64, String> {
        summary
            .get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("summary: missing number \"{k}\""))
    };
    let n = get_num("cases")?;
    if n as usize != cases.len() {
        return Err("summary case count disagrees with \"cases\"".to_string());
    }
    Ok(Summary {
        cases: cases.len(),
        max_quotient_reduction: get_num("max_quotient_reduction")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_cases() -> Vec<Case> {
        vec![
            Case {
                name: "reconfigurable_depth(2,2)".into(),
                backend: "petri",
                states: 1_536,
                truncated: false,
                engine_ms: 0.4,
                space_mb: 0.05,
                peak_mb: 0.08,
                quotient_states: None,
                quotient_ms: None,
            },
            Case {
                name: "wagging(ways=2,depth=1)".into(),
                backend: "petri",
                states: 1_476_774,
                truncated: false,
                engine_ms: 1_500.0,
                space_mb: 45.0,
                peak_mb: 55.0,
                quotient_states: Some(738_387),
                quotient_ms: Some(900.0),
            },
        ]
    }

    #[test]
    fn render_validate_roundtrip() {
        let json = render_json(&fake_cases(), true);
        let summary = validate(&json).unwrap();
        assert_eq!(summary.cases, 2);
        assert!((summary.max_quotient_reduction - 2.0).abs() < 0.001);
    }

    #[test]
    fn validation_rejects_broken_documents() {
        let good = render_json(&fake_cases(), true);
        assert!(validate(&good.replace(SCHEMA, "rap/state-space-scaling/v5")).is_err());
        assert!(validate(&good.replace("\"cases\"", "\"cazes\"")).is_err());
        assert!(validate(&good.replace("\"engine_ms\": 0.400", "\"engine_ms\": -1")).is_err());
        // the retained heap is required, and positive
        assert!(validate(&good.replace("\"space_mb\"", "\"space\"")).is_err());
        assert!(validate(&good.replace("\"space_mb\": 0.050", "\"space_mb\": 0")).is_err());
        // so is the peak heap, and it covers the retained heap
        assert!(validate(&good.replace("\"peak_mb\"", "\"peak\"")).is_err());
        assert!(validate(&good.replace("\"peak_mb\": 0.080", "\"peak_mb\": 0.049")).is_err());
        assert!(validate(&good.replace("\"peak_mb\": 0.080", "\"peak_mb\": 0.050")).is_ok());
        assert!(
            validate(&good.replace("\"quotient_states\": 738387", "\"quotient_states\": 0"))
                .is_err()
        );
        assert!(validate("{}").is_err());
        assert!(validate("not json").is_err());
        // a case whose counts drift from its pin, or that has no pin
        assert!(validate(&good.replace("\"states\": 1536", "\"states\": 1537")).is_err());
        assert!(validate(
            &good.replace("\"quotient_states\": 738387", "\"quotient_states\": 738388")
        )
        .is_err());
        assert!(
            validate(&good.replacen("\"truncated\": false", "\"truncated\": true", 1)).is_err()
        );
        assert!(
            validate(&good.replace("reconfigurable_depth(2,2)", "reconfigurable_depth(9,9)"))
                .is_err()
        );
    }
}

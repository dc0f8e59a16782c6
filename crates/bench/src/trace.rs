//! The `rap/trace/v1` exporter and validator for `--trace-out`.
//!
//! Every experiment binary accepts `--trace-out PATH`: it attaches a live
//! [`rap_obs::Collector`] to the run and, on exit, renders the collector's
//! [`Snapshot`] as a small schema-stable JSON document. The document is an
//! offline artifact in the same spirit as `BENCH_*.json` — reusing this
//! crate's [`json`](crate::json) emitter/parser — so traces can be
//! archived, diffed and validated without any external tooling.
//!
//! # Document shape (`rap/trace/v1`)
//!
//! ```json
//! {
//!   "schema": "rap/trace/v1",
//!   "wall_ns": 1234567,
//!   "coverage": 0.97,
//!   "spans": [
//!     {"id": 0, "name": "root", "parent": null, "count": 0,
//!      "total_ns": 1234567, "self_ns": 0},
//!     {"id": 1, "name": "dse.sweep", "parent": 0, "count": 3,
//!      "total_ns": 1200000, "self_ns": 400000}
//!   ],
//!   "counters": {"dse.eval.full": 12},
//!   "gauges": {"engine.frontier.peak": 96.0},
//!   "histograms": [
//!     {"name": "store.read_ns", "count": 4, "total_ns": 80000,
//!      "buckets": [{"pow2": 15, "count": 4}]}
//!   ],
//!   "events": [{"kind": "dse.full", "label": "static/d4", "value": "0x00baf00d"}],
//!   "dropped_events": 0,
//!   "summary": {"top_self": [{"name": "session.compute", "self_ns": 700000}]}
//! }
//! ```
//!
//! Spans are the *aggregated* tree of [`rap_obs`]: one node per
//! (parent, name) pair with entry counts and total/self nanoseconds —
//! bounded in size and directly chartable, rather than an unbounded event
//! log. `parent` is an index into the same array (`null` only for the
//! root at index 0), and parents always precede children, so a single
//! forward pass can rebuild the tree. Event `value`s are rendered as hex
//! strings because they carry full 64-bit payloads (structural hashes)
//! that a float-typed JSON number would corrupt.
//!
//! [`validate`] checks all of this plus the headline acceptance property:
//! when the root has children at all (i.e. the binary actually recorded
//! spans), they must account for **at least 90%** of the collector's
//! wall-clock — a trace that cannot say where the time went is rejected
//! rather than silently archived. A small absolute slack
//! ([`COVERAGE_SLACK_NS`]) keeps the floor about untraced *work*: a
//! near-instant run whose only uncovered time is the fixed
//! collector-setup/teardown overhead still passes.

use crate::cli::BenchCli;
use crate::json::{escape, Json};
use rap_obs::{Collector, Obs, Snapshot};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// The schema tag of the emitted document.
pub const SCHEMA: &str = "rap/trace/v1";

/// Minimum fraction of wall-clock the root's children must account for
/// (only enforced when the root has children; see [`validate`]).
pub const MIN_COVERAGE: f64 = 0.9;

/// Absolute uncovered-time slack for the coverage floor: a trace whose
/// uncovered wall-clock — `wall_ns × (1 − coverage)` — is below this is
/// accepted even under [`MIN_COVERAGE`]. The floor exists to reject
/// traces that cannot account for real *work*; on a run measured in
/// microseconds the collector's own fixed setup/snapshot overhead would
/// otherwise dominate the ratio.
pub const COVERAGE_SLACK_NS: u64 = 5_000_000;

/// Renders a [`Snapshot`] as a `rap/trace/v1` JSON document.
#[must_use]
pub fn render(snap: &Snapshot) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": {},", escape(SCHEMA));
    let _ = writeln!(s, "  \"wall_ns\": {},", snap.wall_ns);
    let _ = writeln!(s, "  \"coverage\": {:.6},", snap.coverage());

    s.push_str("  \"spans\": [\n");
    for (i, node) in snap.spans.iter().enumerate() {
        let parent = node
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "    {{\"id\": {i}, \"name\": {}, \"parent\": {parent}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            escape(node.name),
            node.count,
            node.total_ns,
            snap.self_ns(i)
        );
        s.push_str(if i + 1 < snap.spans.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n");

    s.push_str("  \"counters\": {");
    for (i, (name, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\n    {}: {value}", escape(name));
    }
    s.push_str(if snap.counters.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    s.push_str("  \"gauges\": {");
    for (i, (name, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\n    {}: {value:.6}", escape(name));
    }
    s.push_str(if snap.gauges.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });

    s.push_str("  \"histograms\": [");
    for (i, h) in snap.hists.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let buckets: Vec<String> = h
            .buckets
            .iter()
            .map(|&(pow2, count)| format!("{{\"pow2\": {pow2}, \"count\": {count}}}"))
            .collect();
        let _ = write!(
            s,
            "\n    {{\"name\": {}, \"count\": {}, \"total_ns\": {}, \"buckets\": [{}]}}",
            escape(h.name),
            h.count,
            h.total_ns,
            buckets.join(", ")
        );
    }
    s.push_str(if snap.hists.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    s.push_str("  \"events\": [");
    for (i, e) in snap.events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"kind\": {}, \"label\": {}, \"value\": \"{:#018x}\"}}",
            escape(e.kind),
            escape(&e.label),
            e.value
        );
    }
    s.push_str(if snap.events.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    let _ = writeln!(s, "  \"dropped_events\": {},", snap.dropped_events);

    s.push_str("  \"summary\": {\"top_self\": [");
    for (i, (name, self_ns)) in snap.top_self(5).iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{{\"name\": {}, \"self_ns\": {self_ns}}}", escape(name));
    }
    s.push_str("]}\n}\n");
    s
}

/// The `trace_summary` member embedded into `BENCH_*.json` documents when
/// a run was traced: wall-clock, coverage and the top-5 spans by
/// self-time. `indent` prefixes every emitted line (the caller controls
/// nesting depth).
#[must_use]
pub fn summary_block(snap: &Snapshot, indent: &str) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "{indent}  \"wall_ns\": {},", snap.wall_ns);
    let _ = writeln!(s, "{indent}  \"coverage\": {:.6},", snap.coverage());
    let _ = write!(s, "{indent}  \"top_self\": [");
    for (i, (name, self_ns)) in snap.top_self(5).iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{{\"name\": {}, \"self_ns\": {self_ns}}}", escape(name));
    }
    s.push_str("]\n");
    let _ = write!(s, "{indent}}}");
    s
}

fn req<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key).ok_or_else(|| format!("missing `{key}`"))
}

fn req_u64(doc: &Json, key: &str) -> Result<u64, String> {
    let x = req(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))?;
    if x < 0.0 || x.fract() != 0.0 {
        return Err(format!("`{key}` is not a non-negative integer"));
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Ok(x as u64)
}

/// Validates `src` as a `rap/trace/v1` document.
///
/// Structural checks: the schema tag, a well-formed span array (ids equal
/// indices, the root at index 0 with `parent: null`, every other parent a
/// smaller index), number-valued counters/gauges, histograms whose bucket
/// counts sum to the histogram count, hex-string event values, and a
/// `summary.top_self` of at most five entries. Semantic check: when the
/// root has children, `coverage` must be at least [`MIN_COVERAGE`] —
/// unless the uncovered wall-clock is under [`COVERAGE_SLACK_NS`], which
/// exempts near-instant runs whose only unaccounted time is the
/// collector's own fixed overhead.
///
/// # Errors
///
/// A human-readable message naming the first violated rule.
pub fn validate(src: &str) -> Result<(), String> {
    let doc = Json::parse(src)?;
    if req(&doc, "schema")?.as_str() != Some(SCHEMA) {
        return Err(format!("`schema` is not {SCHEMA:?}"));
    }
    let wall_ns = req_u64(&doc, "wall_ns")?;
    if wall_ns == 0 {
        return Err("`wall_ns` is zero".to_string());
    }
    let coverage = req(&doc, "coverage")?
        .as_f64()
        .ok_or("`coverage` is not a number")?;
    if !(0.0..=1.0).contains(&coverage) {
        return Err(format!("`coverage` {coverage} outside [0, 1]"));
    }

    let spans = req(&doc, "spans")?
        .as_arr()
        .ok_or("`spans` is not an array")?;
    if spans.is_empty() {
        return Err("`spans` is empty (no root)".to_string());
    }
    let mut root_has_children = false;
    for (i, span) in spans.iter().enumerate() {
        let id = req_u64(span, "id")?;
        if id != i as u64 {
            return Err(format!("span {i} has id {id} (ids must equal indices)"));
        }
        let name = req(span, "name")?
            .as_str()
            .ok_or_else(|| format!("span {i} name is not a string"))?;
        if name.is_empty() {
            return Err(format!("span {i} has an empty name"));
        }
        req_u64(span, "count")?;
        req_u64(span, "total_ns")?;
        req_u64(span, "self_ns")?;
        match (i, req(span, "parent")?) {
            (0, Json::Null) => {}
            (0, _) => return Err("root span parent is not null".to_string()),
            (_, Json::Null) => return Err(format!("span {i} has a null parent")),
            (_, p) => {
                let parent = p
                    .as_f64()
                    .ok_or_else(|| format!("span {i} parent is not a number"))?;
                #[allow(clippy::cast_precision_loss)]
                if !(0.0..i as f64).contains(&parent) || parent.fract() != 0.0 {
                    return Err(format!(
                        "span {i} parent {parent} is not an earlier span index"
                    ));
                }
                if parent == 0.0 {
                    root_has_children = true;
                }
            }
        }
    }
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    let uncovered_ns = (wall_ns as f64 * (1.0 - coverage)) as u64;
    if root_has_children && coverage < MIN_COVERAGE && uncovered_ns > COVERAGE_SLACK_NS {
        return Err(format!(
            "coverage {coverage:.3} below the {MIN_COVERAGE} floor with {uncovered_ns} ns \
             unaccounted: the span tree cannot account for the run's wall-clock"
        ));
    }

    match req(&doc, "counters")? {
        Json::Obj(m) => {
            for (name, v) in m {
                let x = v
                    .as_f64()
                    .ok_or(format!("counter `{name}` is not a number"))?;
                if x < 0.0 || x.fract() != 0.0 {
                    return Err(format!("counter `{name}` is not a non-negative integer"));
                }
            }
        }
        _ => return Err("`counters` is not an object".to_string()),
    }
    match req(&doc, "gauges")? {
        Json::Obj(m) => {
            for (name, v) in m {
                v.as_f64()
                    .ok_or(format!("gauge `{name}` is not a number"))?;
            }
        }
        _ => return Err("`gauges` is not an object".to_string()),
    }

    for h in req(&doc, "histograms")?
        .as_arr()
        .ok_or("`histograms` is not an array")?
    {
        let name = req(h, "name")?
            .as_str()
            .ok_or("histogram name not a string")?;
        let count = req_u64(h, "count")?;
        req_u64(h, "total_ns")?;
        let mut bucket_sum = 0u64;
        for b in req(h, "buckets")?
            .as_arr()
            .ok_or_else(|| format!("histogram `{name}` buckets is not an array"))?
        {
            let pow2 = req_u64(b, "pow2")?;
            if pow2 > 64 {
                return Err(format!("histogram `{name}` bucket pow2 {pow2} > 64"));
            }
            bucket_sum += req_u64(b, "count")?;
        }
        if bucket_sum != count {
            return Err(format!(
                "histogram `{name}` buckets sum to {bucket_sum}, count says {count}"
            ));
        }
    }

    for (i, e) in req(&doc, "events")?
        .as_arr()
        .ok_or("`events` is not an array")?
        .iter()
        .enumerate()
    {
        req(e, "kind")?
            .as_str()
            .ok_or_else(|| format!("event {i} kind is not a string"))?;
        req(e, "label")?
            .as_str()
            .ok_or_else(|| format!("event {i} label is not a string"))?;
        let value = req(e, "value")?
            .as_str()
            .ok_or_else(|| format!("event {i} value is not a string"))?;
        let hex = value
            .strip_prefix("0x")
            .ok_or_else(|| format!("event {i} value {value:?} lacks the 0x prefix"))?;
        if hex.is_empty() || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("event {i} value {value:?} is not a hex literal"));
        }
    }
    req_u64(&doc, "dropped_events")?;

    let top = req(req(&doc, "summary")?, "top_self")?
        .as_arr()
        .ok_or("`summary.top_self` is not an array")?;
    if top.len() > 5 {
        return Err(format!(
            "`summary.top_self` has {} entries (max 5)",
            top.len()
        ));
    }
    for (i, row) in top.iter().enumerate() {
        req(row, "name")?
            .as_str()
            .ok_or_else(|| format!("top_self {i} name is not a string"))?;
        req_u64(row, "self_ns")?;
    }
    Ok(())
}

/// A binary's `--trace-out` plumbing: a live [`Collector`] when the flag
/// was given, nothing (and zero recording overhead) otherwise.
#[derive(Debug, Default)]
pub struct TraceSink {
    collector: Option<Arc<Collector>>,
    path: Option<PathBuf>,
}

impl TraceSink {
    /// Builds the sink from the parsed CLI: live iff `--trace-out` was
    /// passed. Construct this *before* the timed work so the collector's
    /// wall-clock covers the whole run.
    #[must_use]
    pub fn from_cli(cli: &BenchCli) -> TraceSink {
        match &cli.trace_out {
            Some(path) => TraceSink {
                collector: Some(Arc::new(Collector::new())),
                path: Some(path.clone()),
            },
            None => TraceSink::default(),
        }
    }

    /// The recorder handle to thread into the run ([`Obs::none`] when not
    /// tracing — every downstream `span`/`add` is then a no-op).
    #[must_use]
    pub fn obs(&self) -> Obs {
        self.collector
            .as_ref()
            .map_or_else(Obs::none, Obs::collecting)
    }

    /// Whether a collector is attached.
    #[must_use]
    pub fn is_live(&self) -> bool {
        self.collector.is_some()
    }

    /// A point-in-time snapshot, when live. Take it only after the spans
    /// of interest have closed — open spans are not in the aggregate.
    #[must_use]
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.collector.as_ref().map(|c| c.snapshot())
    }

    /// Snapshots, renders, **self-validates** and writes the trace, then
    /// prints where it went. Returns the snapshot so callers can also
    /// embed a [`summary_block`] into their `BENCH_*.json`. No-op
    /// (returning `None`) when not tracing.
    ///
    /// # Panics
    ///
    /// When the rendered document fails its own schema validation (an
    /// emitter bug, never a user error) or the file cannot be written.
    pub fn finish(&self) -> Option<Snapshot> {
        let snap = self.snapshot()?;
        let path = self.path.as_ref().expect("trace path");
        let doc = render(&snap);
        if let Err(err) = validate(&doc) {
            panic!("emitted trace failed self-validation: {err}");
        }
        std::fs::write(path, &doc)
            .unwrap_or_else(|err| panic!("writing trace to {}: {err}", path.display()));
        println!(
            "\ntrace: wrote {} ({} spans, coverage {:.1}%)",
            path.display(),
            snap.spans.len(),
            snap.coverage() * 100.0
        );
        Some(snap)
    }
}

/// Runs `body` under a single `bench.main` span, honouring the CLI's
/// `--trace-out`. Most experiment binaries are one phase end to end, so
/// this is their entire tracing story: the span accounts for the whole
/// run (keeping [`validate`]'s coverage floor trivially satisfied), and
/// the trace is rendered, self-validated and written after `body`
/// returns. Without `--trace-out` nothing is recorded.
pub fn with_trace(cli: &BenchCli, body: impl FnOnce()) {
    let sink = TraceSink::from_cli(cli);
    sink.obs().time("bench.main", body);
    sink.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collected() -> Snapshot {
        let collector = Arc::new(Collector::new());
        let obs = Obs::collecting(&collector);
        {
            let _outer = obs.span("bench.main");
            obs.time("session.compute", || {
                obs.add("session.petri.compute", 1);
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
            obs.observe_ns("store.read_ns", 4096);
            obs.note("dse.full", "static/d4", 0xbaf0_0d11);
            obs.gauge("engine.frontier.peak", 96.0);
        }
        collector.snapshot()
    }

    #[test]
    fn rendered_trace_validates() {
        let snap = collected();
        let doc = render(&snap);
        validate(&doc).unwrap();
        // and the parse agrees with the snapshot on the headline numbers
        let parsed = Json::parse(&doc).unwrap();
        assert_eq!(parsed.get("schema").unwrap().as_str(), Some(SCHEMA));
        assert_eq!(
            parsed.get("spans").unwrap().as_arr().unwrap().len(),
            snap.spans.len()
        );
        let cov = parsed.get("coverage").unwrap().as_f64().unwrap();
        assert!((cov - snap.coverage()).abs() < 1e-5);
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let snap = collected();
        let good = render(&snap);
        // wrong schema tag
        let bad = good.replace("rap/trace/v1", "rap/trace/v0");
        assert!(validate(&bad).unwrap_err().contains("schema"));
        // root span must exist
        assert!(validate(
            r#"{"schema": "rap/trace/v1", "wall_ns": 1, "coverage": 0.0, "spans": []}"#
        )
        .unwrap_err()
        .contains("root"));
        // low coverage with a populated tree is rejected — once the
        // unaccounted time exceeds the absolute slack (inflate wall_ns so
        // the 90% miss is real work, not fixed collector overhead)
        let lazy = good
            .replace(
                &format!("\"coverage\": {:.6}", snap.coverage()),
                "\"coverage\": 0.100000",
            )
            .replace(
                &format!("\"wall_ns\": {}", snap.wall_ns),
                "\"wall_ns\": 1000000000",
            );
        assert!(validate(&lazy).unwrap_err().contains("coverage"));
        // ...while the same miss on a near-instant run is within slack
        let tiny = good.replace(
            &format!("\"coverage\": {:.6}", snap.coverage()),
            "\"coverage\": 0.100000",
        );
        assert!(snap.wall_ns < COVERAGE_SLACK_NS, "fixture ran too long");
        validate(&tiny).expect("slack exempts near-instant runs");
        // event values must stay 64-bit-exact hex strings
        let bad = good.replace("\"0x00000000baf00d11\"", "12345");
        assert!(validate(&bad).unwrap_err().contains("value"));
    }

    #[test]
    fn summary_block_is_embeddable() {
        let snap = collected();
        let block = summary_block(&snap, "  ");
        let wrapped = format!("{{\"trace_summary\": {block}}}");
        let parsed = Json::parse(&wrapped).unwrap();
        let summary = parsed.get("trace_summary").unwrap();
        assert!(summary.get("wall_ns").unwrap().as_f64().unwrap() >= 1.0);
        let top = summary.get("top_self").unwrap().as_arr().unwrap();
        assert!(!top.is_empty() && top.len() <= 5);
    }
}

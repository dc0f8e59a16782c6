//! # rap-obs — tracing, metrics and profiling for the rap workspace
//!
//! A zero-dependency observability layer shared by the state-space engine
//! (`rap-petri`), the query cache (`rap-session`), the design-space driver
//! (`rap-dse`) and the persistent artifact store (`rap-store`).
//!
//! Two pieces:
//!
//! * [`Collector`] — the thread-safe sink. It aggregates spans into a tree
//!   keyed by `(parent, name)` (bounded memory however many times a span
//!   is entered), keeps named counters and gauges under a single lock (so
//!   a [`Collector::snapshot`] is coherent, not torn), fixed 64-bucket log2
//!   latency histograms, and a bounded provenance event list.
//! * [`Obs`] — the cheap cloneable handle threaded through APIs: a
//!   collector, or nothing ([`Obs::none`]).
//!
//! The JSON exporter for `rap/trace/v1` lives in `rap_bench::trace` (it
//! reuses the workspace's schema-validation JSON parser); this crate only
//! produces the plain-data [`Snapshot`].
//!
//! ## Nesting
//!
//! A span's parent is the span the calling thread has open in the same
//! collector (the root if none), as in Dapper's context propagation: a
//! session query opened inside a sweep's `dse.eval` nests under it with no
//! parent passed down. A pool worker continues its spawner's span with
//! [`Obs::enter`].
//!
//! ## Overhead
//!
//! `Obs::none()` carries no collector. Every instrumentation method begins
//! with an `#[inline]` check of that `Option` and returns immediately when
//! it is `None` — no clock read, no thread-local access, no allocation, no
//! locking. The `benches/noop_overhead.rs` benchmark pins this, and the
//! bench-suite test `trace_schema.rs` bounds the end-to-end cost of an
//! untraced handle on a real sweep.
//!
//! ## Determinism
//!
//! Recording is observation-only. No instrumented subsystem ever keys
//! dedup, state numbering, or scheduling decisions on recorder state; the
//! engine's equivalence proptests run it with a live [`Collector`]
//! attached and without, and pin both runs to each other and to the seed
//! explorers of the dev-only `rap-oracle` crate.
//!
//! ## Span and counter taxonomy
//!
//! Names are `&'static str`, dot-separated, lowercase. Reuse these instead
//! of inventing new ones:
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `engine.explore` | span | one state-space exploration, start to finish |
//! | `engine.levels` / `engine.states` / `engine.edges` | counter | BFS totals |
//! | `engine.dedup.known` | counter | edges whose target was committed in an earlier BFS level |
//! | `engine.frontier.peak` | gauge | widest BFS frontier seen |
//! | `petri.incidence` | span | building a net's incidence index for one `analysis::check`, beside its `engine.explore` |
//! | `session.compile` / `session.compile.hit` | span + counter / counter | model compilations / intern-table hits |
//! | `session.query.<kind>` | span | whole query (`petri`, `perf`, `lts`, `check`, `cost`, `steady`) |
//! | `session.load` / `session.compute` / `session.commit` | span | store probe / actual analysis / persist-on-commit inside a query |
//! | `session.wait` | span | a query blocked on another thread's in-flight computation of the same artifact, inside the query |
//! | `session.<kind>.query` / `.compute` / `.disk_hit` | counter | per-kind lifecycle outcomes (memo hits = query − compute − disk_hit) |
//! | `session.<kind>.wait` | counter | queries that blocked on another thread's in-flight computation of the same artifact |
//! | `session.wait_ns` | histogram | time those queries spent blocked |
//! | `dse.sweep` | span | one `explore_with_session` call |
//! | `dse.eval` | span | one candidate evaluation task |
//! | `dse.build` | span | building one candidate's model, inside its `dse.eval` |
//! | `dse.enumerated`, `dse.eval.full` / `.memo` / `.error` / `.panic` | counter | sweep work accounting |
//! | `dse.check.violation` / `dse.check.inconclusive` | counter | verification outcomes across full evaluations |
//! | `dse.full` / `dse.memo` / `dse.error` | event | per-candidate provenance; label = config label, value = structural hash |
//! | `store.read_ns` / `store.write_ns` | histogram | artifact read / write+fsync+rename latency |
//! | `store.read.hit` / `.miss` / `.error` / `.bytes` | counter | load outcomes |
//! | `store.write.bytes` / `store.write.error` | counter | save outcomes |
//! | `store.quarantine` | counter + event | corrupt artifacts moved aside (label = file name) |
//! | `store.lock.stale_broken` | counter | stale lock files broken at open |
//! | `bench.main` | span | whole-bin umbrella span in simple `rap-bench` bins |
//! | `dse.pass.cold` / `.warm` / `.restart` | span | the three passes of the `dse_pareto` sweep |
//! | `bench.case.petri` / `bench.case.lts` | span | per-backend cases in `state_space_scaling` |
//!
//! **Counter aliasing — read this before summing anything.** The DSE driver
//! counts every evaluation that did not run the analysis *here* as
//! `dse.eval.memo`, including evaluations served from the on-disk store; the
//! store independently counts those as `store.read.hit`. The two views
//! deliberately overlap — `dse.eval.memo` answers "how much work did the
//! sweep skip", `store.read.hit` answers "how often did disk serve an
//! artifact" — so adding them double-counts disk-served evaluations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Upper bound on retained provenance events; later events are counted in
/// [`Snapshot::dropped_events`] instead of stored.
pub const EVENT_CAP: usize = 16_384;

/// Lock helper that survives poisoning: observability must never take the
/// process down because some unrelated task panicked mid-record.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Identifier of an aggregated span-tree node inside a collector.
///
/// `SpanId` is only meaningful to the collector that issued it. The root
/// of every tree is [`SpanId::ROOT`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

impl SpanId {
    /// The implicit root every top-level span is parented under.
    pub const ROOT: SpanId = SpanId(0);
}

thread_local! {
    /// The spans this thread has open, innermost last, with their collector
    /// (an address, never dereferenced: each entry's guard keeps it alive).
    static OPEN: RefCell<Vec<(*const Collector, SpanId)>> = const { RefCell::new(Vec::new()) };
}

/// The span the calling thread has open in `rec`, or the root.
fn current(rec: &Arc<Collector>) -> SpanId {
    let me = Arc::as_ptr(rec);
    OPEN.with(|open| {
        open.borrow()
            .iter()
            .rev()
            .find(|(c, _)| *c == me)
            .map_or(SpanId::ROOT, |&(_, id)| id)
    })
}

// ---------------------------------------------------------------------------
// Obs handle
// ---------------------------------------------------------------------------

/// Cheap cloneable handle instrumented code records through.
///
/// An `Obs` is either *detached* ([`Obs::none`], the [`Default`]) or
/// carries a shared [`Collector`]. All methods are `#[inline]` and return
/// immediately when detached — no clock reads, no thread-local access, no
/// locks, no allocation.
#[derive(Clone, Default)]
pub struct Obs {
    rec: Option<Arc<Collector>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.rec.is_some())
            .finish()
    }
}

impl Obs {
    /// The detached handle: every operation is free.
    #[must_use]
    pub fn none() -> Obs {
        Obs { rec: None }
    }

    /// Handle recording into a shared [`Collector`].
    #[must_use]
    pub fn collecting(collector: &Arc<Collector>) -> Obs {
        Obs {
            rec: Some(Arc::clone(collector)),
        }
    }

    /// Whether a collector is attached (the fast-path test every method
    /// uses).
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.rec.is_some()
    }

    /// Open the span `name` under the calling thread's current span in this
    /// handle's collector (the root if none). The guard is the thread's
    /// current span until it drops, then records the span's wall-clock.
    /// When detached this reads neither the clock nor the thread's context.
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanTimer {
        match &self.rec {
            None => SpanTimer(None, PhantomData),
            Some(rec) => {
                let id = rec.span_open(current(rec), name);
                SpanTimer::push(rec, id, Some(Instant::now()))
            }
        }
    }

    /// Make `span` (a [`SpanTimer::id`] of this handle's collector, open on
    /// another thread) the calling thread's current span until the guard
    /// drops, without timing it: how a pool worker continues its spawner's.
    #[inline]
    pub fn enter(&self, span: SpanId) -> SpanTimer {
        match &self.rec {
            None => SpanTimer(None, PhantomData),
            Some(rec) => SpanTimer::push(rec, span, None),
        }
    }

    /// Record one completion of the span `name`, already measured as
    /// `nanos`, under the calling thread's current span.
    #[inline]
    pub fn record_span(&self, name: &'static str, nanos: u64) {
        if let Some(rec) = &self.rec {
            let id = rec.span_open(current(rec), name);
            rec.span_close(id, nanos);
        }
    }

    /// Run `f` inside the span `name`.
    #[inline]
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Add `delta` to the named counter.
    #[inline]
    pub fn add(&self, counter: &'static str, delta: u64) {
        if let Some(rec) = &self.rec {
            rec.add(counter, delta);
        }
    }

    /// Set the named gauge.
    #[inline]
    pub fn gauge(&self, gauge: &'static str, value: f64) {
        if let Some(rec) = &self.rec {
            rec.gauge(gauge, value);
        }
    }

    /// Record a latency observation in nanoseconds.
    #[inline]
    pub fn observe_ns(&self, hist: &'static str, nanos: u64) {
        if let Some(rec) = &self.rec {
            rec.observe(hist, nanos);
        }
    }

    /// Record a provenance event (`kind`, a free-form `label`, a 64-bit
    /// `value`). The `label` is only rendered to an owned string when a
    /// collector is attached, so callers may pass borrowed data from hot
    /// paths.
    #[inline]
    pub fn note(&self, kind: &'static str, label: &str, value: u64) {
        if let Some(rec) = &self.rec {
            rec.note(kind, label, value);
        }
    }
}

/// Guard returned by [`Obs::span`] and [`Obs::enter`]: the calling
/// thread's current span in its collector until it drops (a guard from
/// [`Obs::span`] then records the span's wall-clock). The marker makes it
/// `!Send`: it must drop on the thread whose context it changed.
pub struct SpanTimer(
    Option<(Arc<Collector>, SpanId, Option<Instant>)>,
    PhantomData<*const ()>,
);

impl SpanTimer {
    fn push(rec: &Arc<Collector>, id: SpanId, start: Option<Instant>) -> SpanTimer {
        OPEN.with(|open| open.borrow_mut().push((Arc::as_ptr(rec), id)));
        SpanTimer(Some((Arc::clone(rec), id, start)), PhantomData)
    }

    /// The span's id in its collector ([`SpanId::ROOT`] when detached),
    /// for [`Obs::enter`] on another thread.
    #[inline]
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.0.as_ref().map_or(SpanId::ROOT, |(_, id, _)| *id)
    }

    /// Whether this guard will record anything on drop.
    #[inline]
    #[must_use]
    pub fn is_recording(&self) -> bool {
        matches!(self.0, Some((_, _, Some(_))))
    }
}

impl Drop for SpanTimer {
    #[inline]
    fn drop(&mut self) {
        if let Some((rec, id, start)) = self.0.take() {
            rec.leave(id, start);
        }
    }
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

struct Node {
    name: &'static str,
    parent: u32,
    children: Vec<u32>,
    count: u64,
    total_ns: u64,
}

/// 65 log2 buckets: index 0 holds zero-valued observations, index `k ≥ 1`
/// holds values in `[2^(k-1), 2^k)`.
const HIST_BUCKETS: usize = 65;

struct Hist {
    count: u64,
    total_ns: u64,
    buckets: [u64; HIST_BUCKETS],
}

struct EventBuf {
    list: Vec<Event>,
    dropped: u64,
}

/// The thread-safe sink every [`Obs`] records into.
///
/// Spans aggregate into a tree keyed by `(parent, name)` — re-entering a
/// span merges into the existing node, so a million-level BFS produces a
/// handful of nodes, not a million. Counters and gauges live in single-lock
/// maps, which is what makes [`Collector::snapshot`] coherent: one lock
/// acquisition per category, never a field-by-field torn read.
pub struct Collector {
    epoch: Instant,
    tree: Mutex<Vec<Node>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
    hists: Mutex<BTreeMap<&'static str, Hist>>,
    events: Mutex<EventBuf>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("wall_ns", &self.wall_ns())
            .finish_non_exhaustive()
    }
}

impl Collector {
    /// Fresh collector; its wall-clock epoch starts now.
    #[must_use]
    pub fn new() -> Collector {
        Collector {
            epoch: Instant::now(),
            tree: Mutex::new(vec![Node {
                name: "root",
                parent: 0,
                children: Vec::new(),
                count: 0,
                total_ns: 0,
            }]),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            events: Mutex::new(EventBuf {
                list: Vec::new(),
                dropped: 0,
            }),
        }
    }

    /// Nanoseconds since this collector was created.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Coherent point-in-time copy of everything recorded so far.
    ///
    /// The root span's `total_ns` is set to the collector's wall-clock so
    /// self-time and coverage arithmetic are well-defined.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let wall_ns = self.wall_ns().max(1);
        let spans: Vec<SpanNode> = lock(&self.tree)
            .iter()
            .enumerate()
            .map(|(i, n)| SpanNode {
                name: n.name,
                parent: if i == 0 { None } else { Some(n.parent) },
                count: if i == 0 { 1 } else { n.count },
                total_ns: if i == 0 { wall_ns } else { n.total_ns },
                children: n.children.clone(),
            })
            .collect();
        let counters = CounterSnapshot {
            entries: lock(&self.counters).clone(),
        };
        let gauges: Vec<(&'static str, f64)> =
            lock(&self.gauges).iter().map(|(k, v)| (*k, *v)).collect();
        let hists: Vec<HistSnapshot> = lock(&self.hists)
            .iter()
            .map(|(name, h)| HistSnapshot {
                name,
                count: h.count,
                total_ns: h.total_ns,
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| **c > 0)
                    .map(|(i, c)| (u32::try_from(i).unwrap_or(u32::MAX), *c))
                    .collect(),
            })
            .collect();
        let ev = lock(&self.events);
        Snapshot {
            wall_ns,
            spans,
            counters,
            gauges,
            hists,
            events: ev.list.clone(),
            dropped_events: ev.dropped,
        }
    }

    /// Open (or re-enter) the span `name` under `parent`, returning its id.
    /// Spans are aggregated: opening the same `(parent, name)` twice yields
    /// the same id.
    fn span_open(&self, parent: SpanId, name: &'static str) -> SpanId {
        let mut tree = lock(&self.tree);
        let pid = (parent.0 as usize).min(tree.len().saturating_sub(1));
        if let Some(&child) = tree[pid]
            .children
            .iter()
            .find(|&&c| tree[c as usize].name == name)
        {
            return SpanId(child);
        }
        let id = u32::try_from(tree.len()).unwrap_or(u32::MAX);
        let pidx = u32::try_from(pid).unwrap_or(0);
        tree.push(Node {
            name,
            parent: pidx,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
        });
        tree[pid].children.push(id);
        SpanId(id)
    }

    /// Close a guard of `span`: record its wall-clock since `start`, if any,
    /// and take it off the thread's open spans. Out of line, so that the
    /// guard's inlined drop stays one call.
    fn leave(&self, span: SpanId, start: Option<Instant>) {
        if let Some(start) = start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.span_close(span, nanos);
        }
        let entry = (self as *const Collector, span);
        // a guard dropped while the thread tears down has no context
        let _ = OPEN.try_with(|open| {
            let mut open = open.borrow_mut();
            if let Some(i) = open.iter().rposition(|e| *e == entry) {
                open.remove(i);
            }
        });
    }

    /// Record one completion of `span` that took `nanos` wall-clock.
    fn span_close(&self, span: SpanId, nanos: u64) {
        let mut tree = lock(&self.tree);
        if let Some(node) = tree.get_mut(span.0 as usize) {
            node.count += 1;
            node.total_ns = node.total_ns.saturating_add(nanos);
        }
    }

    fn add(&self, counter: &'static str, delta: u64) {
        let mut c = lock(&self.counters);
        let slot = c.entry(counter).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    fn gauge(&self, gauge: &'static str, value: f64) {
        lock(&self.gauges).insert(gauge, value);
    }

    fn observe(&self, hist: &'static str, nanos: u64) {
        let mut h = lock(&self.hists);
        let entry = h.entry(hist).or_insert_with(|| Hist {
            count: 0,
            total_ns: 0,
            buckets: [0; HIST_BUCKETS],
        });
        entry.count += 1;
        entry.total_ns = entry.total_ns.saturating_add(nanos);
        let bucket = (64 - nanos.leading_zeros()) as usize;
        entry.buckets[bucket] += 1;
    }

    fn note(&self, kind: &'static str, label: &str, value: u64) {
        let mut ev = lock(&self.events);
        if ev.list.len() >= EVENT_CAP {
            ev.dropped += 1;
        } else {
            ev.list.push(Event {
                kind,
                label: label.to_owned(),
                value,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// One aggregated span-tree node in a [`Snapshot`]. Index 0 is the root.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Taxonomy name (`"root"` for index 0).
    pub name: &'static str,
    /// Parent index; `None` only for the root.
    pub parent: Option<u32>,
    /// Completed entries merged into this node.
    pub count: u64,
    /// Total wall-clock across all entries, in nanoseconds.
    pub total_ns: u64,
    /// Child node indices, in creation order.
    pub children: Vec<u32>,
}

/// Snapshot of one log2 latency histogram.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    /// Taxonomy name.
    pub name: &'static str,
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations, in nanoseconds.
    pub total_ns: u64,
    /// Non-empty buckets as `(pow2 exponent, count)`: exponent 0 holds
    /// zero-valued observations, exponent `k ≥ 1` values in `[2^(k-1), 2^k)`.
    pub buckets: Vec<(u32, u64)>,
}

/// One provenance event (see [`Obs::note`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Taxonomy kind, e.g. `"dse.memo"`.
    pub kind: &'static str,
    /// Free-form subject, e.g. a DSE configuration label.
    pub label: String,
    /// 64-bit payload, e.g. a structural hash.
    pub value: u64,
}

/// Coherent point-in-time copy of a [`Collector`]'s state.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Nanoseconds between collector creation and this snapshot (≥ 1).
    pub wall_ns: u64,
    /// Aggregated span tree; index 0 is the root.
    pub spans: Vec<SpanNode>,
    /// All named counters.
    pub counters: CounterSnapshot,
    /// All named gauges (sorted by name).
    pub gauges: Vec<(&'static str, f64)>,
    /// All latency histograms (sorted by name).
    pub hists: Vec<HistSnapshot>,
    /// Retained provenance events, oldest first.
    pub events: Vec<Event>,
    /// Events discarded after [`EVENT_CAP`] was reached.
    pub dropped_events: u64,
}

impl Snapshot {
    /// Self-time of span `i`: its total minus its children's totals,
    /// saturating at zero.
    #[must_use]
    pub fn self_ns(&self, i: usize) -> u64 {
        let Some(node) = self.spans.get(i) else {
            return 0;
        };
        let child_total: u64 = node
            .children
            .iter()
            .filter_map(|&c| self.spans.get(c as usize))
            .map(|c| c.total_ns)
            .sum();
        node.total_ns.saturating_sub(child_total)
    }

    /// Fraction of wall-clock accounted for by the root's direct children,
    /// capped at 1.0 (concurrent top-level spans can overlap).
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.spans.is_empty() || self.spans[0].children.is_empty() {
            return 0.0;
        }
        let covered: u64 = self.spans[0]
            .children
            .iter()
            .filter_map(|&c| self.spans.get(c as usize))
            .map(|c| c.total_ns)
            .sum();
        #[allow(clippy::cast_precision_loss)]
        let frac = covered as f64 / self.wall_ns.max(1) as f64;
        frac.min(1.0)
    }

    /// The `n` non-root spans with the largest self-time, descending.
    #[must_use]
    pub fn top_self(&self, n: usize) -> Vec<(&'static str, u64)> {
        let mut rows: Vec<(&'static str, u64)> = (1..self.spans.len())
            .map(|i| (self.spans[i].name, self.self_ns(i)))
            .collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        rows.truncate(n);
        rows
    }

    /// Convenience: the named counter's value, 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name)
    }
}

/// Coherent copy of a named-counter set, taken under a single lock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    entries: BTreeMap<&'static str, u64>,
}

impl CounterSnapshot {
    /// Value of `name`, 0 when never incremented.
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.entries.get(name).copied().unwrap_or(0)
    }

    /// Iterate `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, *v))
    }

    /// Number of distinct counters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no counter was ever incremented.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Add every counter of `other` into `self` (saturating).
    pub fn merge(&mut self, other: &CounterSnapshot) {
        for (k, v) in &other.entries {
            let slot = self.entries.entry(k).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
    }
}

// ---------------------------------------------------------------------------
// Meter
// ---------------------------------------------------------------------------

/// A subsystem's named-counter set with a coherent snapshot, optionally
/// mirrored into a collector.
///
/// This is what the legacy per-crate stats structs (`SessionStats`,
/// `StoreStats`, `SweepStats`, …) are views over: the subsystem increments a
/// `Meter`, `snapshot()` takes **one** lock (so related counters can never
/// tear apart), and the stats struct is built from the resulting
/// [`CounterSnapshot`]. When an [`Obs`] is attached, every increment is also
/// forwarded to its collector so the same names appear in exported traces.
#[derive(Default)]
pub struct Meter {
    map: Mutex<BTreeMap<&'static str, u64>>,
    obs: Obs,
}

impl std::fmt::Debug for Meter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Meter")
            .field("mirrored", &self.obs.is_enabled())
            .finish()
    }
}

impl Meter {
    /// Fresh meter with no collector mirror.
    #[must_use]
    pub fn new() -> Meter {
        Meter::default()
    }

    /// Fresh meter mirroring every increment into `obs`.
    #[must_use]
    pub fn with_obs(obs: Obs) -> Meter {
        Meter {
            map: Mutex::new(BTreeMap::new()),
            obs,
        }
    }

    /// Attach (or replace) the collector mirror. Requires exclusive access,
    /// so it is only possible before the meter is shared.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The collector mirror handle (detached if none was attached).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Add `delta` to `name`.
    pub fn add(&self, name: &'static str, delta: u64) {
        {
            let mut m = lock(&self.map);
            let slot = m.entry(name).or_insert(0);
            *slot = slot.saturating_add(delta);
        }
        self.obs.add(name, delta);
    }

    /// Increment `first`, and — under the same lock acquisition, so a
    /// snapshot can never observe one without the other — increment `second`
    /// when `both`. This is the query/compute pairing the session cache
    /// uses: `queries ≥ computations` holds in every snapshot.
    pub fn bump2(&self, first: &'static str, second: &'static str, both: bool) {
        {
            let mut m = lock(&self.map);
            *m.entry(first).or_insert(0) += 1;
            if both {
                *m.entry(second).or_insert(0) += 1;
            }
        }
        self.obs.add(first, 1);
        if both {
            self.obs.add(second, 1);
        }
    }

    /// Coherent copy of all counters (single lock acquisition).
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            entries: lock(&self.map).clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn detached_handle_records_nothing_and_is_free_of_clock_reads() {
        let obs = Obs::none();
        assert!(!obs.is_enabled());
        let t = obs.span("engine.explore");
        assert!(!t.is_recording());
        assert_eq!(t.id(), SpanId::ROOT);
        drop(obs.enter(t.id()));
        obs.record_span("session.wait", 5);
        obs.add("engine.states", 5);
        obs.gauge("engine.frontier.peak", 3.0);
        obs.observe_ns("store.read_ns", 100);
        obs.note("dse.full", "cfg", 42);
    }

    #[test]
    fn spans_aggregate_by_parent_and_name() {
        let c = Arc::new(Collector::new());
        let obs = Obs::collecting(&c);
        for _ in 0..3 {
            let outer = obs.span("dse.sweep");
            let inner = obs.span("dse.eval");
            drop(inner);
            drop(outer);
        }
        let snap = c.snapshot();
        // root + dse.sweep + dse.eval
        assert_eq!(snap.spans.len(), 3);
        let sweep = &snap.spans[1];
        assert_eq!(sweep.name, "dse.sweep");
        assert_eq!(sweep.count, 3);
        assert_eq!(sweep.parent, Some(0));
        let eval = &snap.spans[2];
        assert_eq!(eval.name, "dse.eval");
        assert_eq!(eval.count, 3);
        assert_eq!(eval.parent, Some(1));
        assert!(sweep.total_ns >= eval.total_ns);
        assert!(snap.coverage() > 0.0);
    }

    #[test]
    fn same_name_under_different_parents_is_distinct() {
        let c = Arc::new(Collector::new());
        let obs = Obs::collecting(&c);
        let a = obs.span("dse.pass.cold");
        drop(obs.span("dse.sweep"));
        drop(a);
        let b = obs.span("dse.pass.warm");
        drop(obs.span("dse.sweep"));
        drop(b);
        let snap = c.snapshot();
        let sweeps = snap.spans.iter().filter(|s| s.name == "dse.sweep").count();
        assert_eq!(sweeps, 2);
    }

    /// The parent of span `name` in `snap`, by name.
    fn parent_of(snap: &Snapshot, name: &str) -> &'static str {
        let node = snap.spans.iter().find(|s| s.name == name).unwrap();
        snap.spans[node.parent.unwrap() as usize].name
    }

    #[test]
    fn a_span_opened_while_nothing_is_open_hangs_off_root() {
        let c = Arc::new(Collector::new());
        let obs = Obs::collecting(&c);
        drop(obs.span("first"));
        let outer = obs.span("outer");
        drop(obs.span("inner"));
        drop(outer);
        // the closed guards restored the thread's context
        drop(obs.span("after"));
        let snap = c.snapshot();
        assert_eq!(parent_of(&snap, "first"), "root");
        assert_eq!(parent_of(&snap, "inner"), "outer");
        assert_eq!(parent_of(&snap, "after"), "root");
    }

    #[test]
    fn a_worker_that_enters_its_spawners_span_nests_under_it() {
        let c = Arc::new(Collector::new());
        let obs = Obs::collecting(&c);
        let sweep = obs.span("dse.sweep");
        let id = sweep.id();
        thread::scope(|scope| {
            scope.spawn(|| {
                let _sweep = obs.enter(id);
                drop(obs.span("dse.eval"));
            });
            // a thread that enters nothing has nothing open
            scope.spawn(|| drop(obs.span("stray")));
        });
        drop(sweep);
        let snap = c.snapshot();
        assert_eq!(parent_of(&snap, "dse.eval"), "dse.sweep");
        assert_eq!(parent_of(&snap, "stray"), "root");
        let sweep = snap.spans.iter().find(|s| s.name == "dse.sweep").unwrap();
        assert_eq!(sweep.count, 1, "entering a span does not time it again");
    }

    #[test]
    fn spans_of_each_collector_nest_under_its_own_current_span() {
        let (a, b) = (Arc::new(Collector::new()), Arc::new(Collector::new()));
        let (oa, ob) = (Obs::collecting(&a), Obs::collecting(&b));
        let outer_a = oa.span("a.outer");
        let outer_b = ob.span("b.outer");
        // B's span is the innermost open one, but A's go under A's
        drop(oa.span("a.inner"));
        oa.record_span("a.measured", 700);
        drop(ob.span("b.inner"));
        // guards may close out of order
        drop(outer_a);
        drop(ob.span("b.after"));
        drop(outer_b);
        drop(oa.span("a.after"));
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(parent_of(&sa, "a.inner"), "a.outer");
        assert_eq!(parent_of(&sa, "a.measured"), "a.outer");
        assert_eq!(parent_of(&sa, "a.after"), "root");
        assert_eq!(parent_of(&sb, "b.inner"), "b.outer");
        assert_eq!(parent_of(&sb, "b.after"), "b.outer");
        assert!(sa.spans.iter().all(|s| !s.name.starts_with("b.")));
        assert!(sb.spans.iter().all(|s| !s.name.starts_with("a.")));
        let measured = sa.spans.iter().find(|s| s.name == "a.measured").unwrap();
        assert_eq!((measured.count, measured.total_ns), (1, 700));
    }

    #[test]
    fn top_self_subtracts_children() {
        let c = Arc::new(Collector::new());
        // Build the tree directly so timings are deterministic.
        let outer = c.span_open(SpanId::ROOT, "outer");
        let inner = c.span_open(outer, "inner");
        c.span_close(inner, 300);
        c.span_close(outer, 1000);
        let snap = c.snapshot();
        let top = snap.top_self(5);
        assert_eq!(top[0], ("outer", 700));
        assert_eq!(top[1], ("inner", 300));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let c = Arc::new(Collector::new());
        c.observe("store.read_ns", 0);
        c.observe("store.read_ns", 1);
        c.observe("store.read_ns", 2);
        c.observe("store.read_ns", 3);
        c.observe("store.read_ns", 1024);
        let snap = c.snapshot();
        assert_eq!(snap.hists.len(), 1);
        let h = &snap.hists[0];
        assert_eq!(h.count, 5);
        assert_eq!(h.total_ns, 1030);
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 1024 → bucket 11.
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
    }

    #[test]
    fn events_are_capped_not_unbounded() {
        let c = Arc::new(Collector::new());
        for i in 0..(EVENT_CAP + 10) {
            c.note("dse.memo", "cfg", i as u64);
        }
        let snap = c.snapshot();
        assert_eq!(snap.events.len(), EVENT_CAP);
        assert_eq!(snap.dropped_events, 10);
    }

    #[test]
    fn meter_bump2_is_coherent_under_contention() {
        let meter = Arc::new(Meter::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|_| {
                let m = meter.clone();
                let s = stop.clone();
                thread::spawn(move || {
                    let mut i = 0u64;
                    while !s.load(std::sync::atomic::Ordering::Relaxed) {
                        m.bump2("q", "c", i.is_multiple_of(3));
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..2_000 {
            let snap = meter.snapshot();
            assert!(
                snap.get("c") <= snap.get("q"),
                "torn snapshot: computes {} > queries {}",
                snap.get("c"),
                snap.get("q")
            );
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn counter_snapshot_merge_sums() {
        let a = Meter::new();
        a.add("x", 2);
        a.add("y", 1);
        let b = Meter::new();
        b.add("x", 3);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.get("x"), 5);
        assert_eq!(s.get("y"), 1);
        assert_eq!(s.get("z"), 0);
    }

    #[test]
    fn concurrent_span_recording_is_safe() {
        let c = Arc::new(Collector::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let obs = Obs::collecting(&c);
                thread::spawn(move || {
                    for _ in 0..100 {
                        let t = obs.span("engine.explore");
                        obs.add("engine.states", 1);
                        drop(t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = c.snapshot();
        assert_eq!(snap.counter("engine.states"), 800);
        let explore = snap
            .spans
            .iter()
            .find(|s| s.name == "engine.explore")
            .unwrap();
        assert_eq!(explore.count, 800);
    }
}

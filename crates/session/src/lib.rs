//! **rap-session** — the compiled-model query API: one entry point for the
//! whole paper flow, with cross-query artifact caching.
//!
//! The tool flow is one pipeline — model → Petri translation →
//! verification → event graph / phase unfolding → performance → silicon
//! cost — but the per-stage free functions ([`dfs_core::to_petri()`],
//! [`dfs_core::Lts::explore`], [`dfs_core::perf::analyse`],
//! [`rap_petri::analysis::check`], the [`rap_silicon::cost`] model)
//! make every caller re-derive the same intermediates. A [`Session`] turns
//! the flow into *queries over compiled models*, the
//! incremental-compilation shape:
//!
//! * [`Session::compile`] **interns** a model: identical models (equal
//!   [`Dfs::structural_hash`], equal identity digest, and a field-exact
//!   comparison on every intern hit — sharing is verified, never assumed
//!   from hashes) map to the same [`CompiledModel`], shared via `Arc`
//!   across threads;
//! * each [`CompiledModel`] query — [`petri`](CompiledModel::petri),
//!   [`lts`](CompiledModel::lts), [`perf`](CompiledModel::perf),
//!   [`perf_detail`](CompiledModel::perf_detail),
//!   [`quick_check`](CompiledModel::quick_check),
//!   [`screen`](CompiledModel::screen),
//!   [`cost`](CompiledModel::cost),
//!   [`steady_period`](CompiledModel::steady_period) — is **demand
//!   computed and memoized**: the first call computes, every later call
//!   (same key) returns the cached artifact;
//! * queries compose through the cache: `quick_check` demands the Petri
//!   image, `cost` demands the throughput analysis — so a model queried
//!   for performance, verification *and* silicon cost still performs
//!   exactly one Petri translation and one phase unfolding
//!   (observable via [`Session::stats`] / [`CompiledModel::stats`]);
//! * the unified [`Error`] is the single `?`-target over every per-crate
//!   error enum, with `From` conversions and `source()` chains.
//!
//! # Caching and coherence contract
//!
//! 1. **Read-only queries.** A [`CompiledModel`] is immutable; every query
//!    takes `&self`. There is no invalidation because there is no
//!    mutation: to analyse a changed model, build the new [`Dfs`] and
//!    [`compile`](Session::compile) it (**mutation = recompile**). Models
//!    that merely *rename* or *reorder* nodes compile to distinct entries
//!    (interning requires byte-exact identity, not just structural-hash
//!    equality), so cached answers never leak another model's node names.
//! 2. **Bit-identical answers.** Every cached artifact equals — bit for
//!    bit, including every `f64` — what the corresponding direct free
//!    function returns on the same model. Cached *errors* are equally
//!    faithful: a failing analysis fails identically, once. This is
//!    pinned by the `session_coherence` property tests in the facade.
//! 3. **Thread-safe, never-duplicated work.** Cache slots are in-flight
//!    reservations (`OnceLock` per key, the same discipline as the DSE
//!    memo): under concurrent queries from any number of threads, each
//!    artifact is computed at most once and every other caller blocks on
//!    that computation instead of repeating it. Such blocking is counted
//!    (`session.<kind>.wait`, with the blocked time in the
//!    `session.wait_ns` histogram of the `rap-obs` taxonomy). Results are
//!    shareable across threads (`&`-references tied to the model, or
//!    `Arc`s for the budget-keyed artifacts).
//! 4. **Delay-free artifacts are shared by timing twins.** Models equal in
//!    everything but node delays — verified field by field, like interning
//!    — are *timing twins*. Neither the Fig. 3 translation, the
//!    direct-semantics LTS nor the shape of the event graph reads a delay,
//!    so twins share one Petri image, one LTS per budget, one check and
//!    one screen per budget, and one event schedule, computed by whichever
//!    twin asks first. Each twin solves the throughput analysis on the
//!    shared schedule with its own delays; cost and steady-state queries
//!    stay per model. In a persistent session every twin still files its
//!    checks under its own keys, and looks for its own frame before it
//!    uses the shared one.
//! 5. **Observability.** [`Session::stats`] aggregates per-model counters
//!    of queries vs actual computations, so cache behaviour is testable
//!    and sweeps can do exact work accounting. A computation is counted on
//!    the model whose query ran it, so summed over a twin group the Petri,
//!    LTS and check counters count each shared artifact once.
//!
//! # Quick start
//!
//! ```
//! use dfs_core::DfsBuilder;
//! use rap_session::Session;
//!
//! let mut b = DfsBuilder::new();
//! let a = b.register("a").marked().build();
//! let f = b.logic("f").build();
//! let c = b.register("b").build();
//! let d = b.register("c").build();
//! b.connect(a, f);
//! b.connect(f, c);
//! b.connect(c, d);
//! b.connect(d, a);
//! let dfs = b.finish()?;
//!
//! let session = Session::new();
//! let model = session.compile(&dfs);
//! let perf = model.perf()?; // throughput analysis, computed once
//! assert!(perf.period > 0.0);
//! let lts = model.lts(10_000)?; // state space, computed once per budget
//! assert!(lts.deadlocks().is_empty());
//! assert!(model.quick_check(10_000).is_clean());
//! // one Petri translation serves the quick_check; perf shares nothing
//! // with it but is itself cached for later perf/cost queries
//! assert_eq!(session.stats().queries.petri_translations, 1);
//! # Ok::<(), rap_session::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod model;
mod persist;

pub use error::Error;
pub use model::{CompiledModel, CostSummary, ModelStats};
// the cost query's parameter type, re-exported so session users need no
// direct rap-silicon dependency (and facade users no `silicon` feature)
pub use rap_silicon::cost::CostModel;
// the persistence layer, re-exported whole (as `store`) plus the three
// types session users handle directly, so persistent sessions need no
// rap-store dependency of their own
pub use rap_store as store;
pub use rap_store::{Store, StoreError, StoreStats};

use dfs_core::Dfs;
use rap_obs::{CounterSnapshot, Meter, Obs};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Session-wide counters: compiles and the aggregated per-model query
/// statistics ([`Session::stats`]).
///
/// The snapshot is *coherent*: the compile counters are written and read
/// under the session's intern lock, and each model's query counters are
/// copied under a single per-model lock — a query/computation pair (or a
/// compile/compile-hit pair) can never tear apart, even while other
/// threads are mid-query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Calls to [`Session::compile`].
    pub compiles: u64,
    /// Compiles served from the intern table (an identical model was
    /// already compiled in this session).
    pub compile_hits: u64,
    /// Distinct compiled models held by the session.
    pub models: u64,
    /// Query/computation counters summed over every compiled model.
    pub queries: ModelStats,
    /// Artifact-store counters (all zero for a memory-only session):
    /// disk hits/misses, corrupt frames recovered, bytes moved — the
    /// observability half of the graceful-degradation contract.
    pub store: StoreStats,
}

/// A byte-exact digest of a model's identity: names, node order, kinds,
/// markings, delays, guard modes and the ordered (inversion-flagged) edge
/// lists — everything a query result can observe (names appear in perf
/// reports, Petri place names, witnesses…). The digest is the intern
/// *bucket* key; actual sharing additionally requires [`same_model`] to
/// hold, so a hash collision can cost a duplicate compilation but never
/// serve another model's cache.
///
/// With `timed == false` the delays are left out: the digest is then the
/// bucket key of the model's timing-twin group (see [`same_model`]).
fn exact_digest(dfs: &Dfs, timed: bool) -> u64 {
    use dfs_core::hash::mix64 as mix;
    let mut h = mix(0x5e55_1055 ^ dfs.node_count() as u64);
    let mut fold = |v: u64| h = mix(h ^ mix(v));
    for id in dfs.nodes() {
        let node = dfs.node(id);
        for b in node.name.as_bytes() {
            fold(u64::from(*b));
        }
        fold(0xff); // name terminator: ("ab","c") must differ from ("a","bc")
        fold(node.kind as u64);
        fold(node.initial.is_marked() as u64);
        fold(match node.initial.value() {
            None => 0,
            Some(dfs_core::TokenValue::True) => 1,
            Some(dfs_core::TokenValue::False) => 2,
        });
        if timed {
            fold(node.delay.to_bits());
        }
        fold(dfs.guard_mode(id) as u64);
        for e in dfs.preds(id) {
            fold((e.node.index() as u64) << 1 | u64::from(e.inverted));
        }
        fold(0xfe); // edge-list terminator
    }
    h
}

/// The session's two intern tables. Entries within a bucket are verified
/// by [`same_model`], so the bit-identity contract does not rest on hash
/// bits (a collision merely makes the bucket grow).
#[derive(Default)]
struct InternTable {
    /// Models, bucketed by `(structural_hash, exact_digest(_, true))`.
    models: HashMap<(u64, u64), Vec<Arc<CompiledModel>>>,
    /// Timing-twin groups, bucketed by the delay-free identity digest;
    /// each entry is the first model compiled into its group.
    twins: HashMap<u64, Vec<Arc<CompiledModel>>>,
}

/// The query-driven entry point: compiles (interns) models and hands out
/// [`CompiledModel`]s whose derived artifacts are demand-computed and
/// cached — see the [crate docs](crate) for the contract.
///
/// A `Session` is cheap to create and safe to share (`&Session` across
/// threads, or wrap it in an `Arc`). Artifacts live as long as the session
/// keeps the model interned (sessions never evict; drop the session to
/// drop every cache).
#[derive(Default)]
pub struct Session {
    interned: Mutex<InternTable>,
    /// Compile/intern counters. Only written while the intern lock is
    /// held, and read under it too ([`Session::stats`]), so the
    /// compiles/hits/models triple is always mutually consistent.
    meter: Meter,
    /// The recorder handle every compiled model and the store record into
    /// ([`Session::with`]). Detached by default; recording is
    /// observation-only and never changes a result.
    obs: Obs,
    /// Persistent artifact store; `None` = memory-only session.
    store: Option<Arc<Store>>,
}

/// Field-exact model equality: the verification step behind intern hits.
/// With `timed == false` delays are ignored: the models are then *timing
/// twins*, which share every delay-free artifact.
fn same_model(a: &Dfs, b: &Dfs, timed: bool) -> bool {
    a.node_count() == b.node_count()
        && a.nodes().all(|id| {
            let (na, nb) = (a.node(id), b.node(id));
            na.name == nb.name
                && na.kind == nb.kind
                && na.initial == nb.initial
                && (!timed || na.delay.to_bits() == nb.delay.to_bits())
                && a.guard_mode(id) == b.guard_mode(id)
                && a.preds(id) == b.preds(id)
                && a.succs(id) == b.succs(id)
        })
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Session {
    /// An empty, memory-only session: every artifact dies with it.
    #[must_use]
    pub fn new() -> Self {
        Session::default()
    }

    /// A session over an optional artifact `store`, recording into `obs`.
    ///
    /// With a store, every successful perf / check / cost / steady-state
    /// artifact is appended to its frame log, and every such query
    /// consults the store's index before computing, so warm-sweep
    /// guarantees extend across process restarts: a restarted sweep over an
    /// intact store performs zero full evaluations. The store syncs once,
    /// when the session drops its last handle to it: a process crash loses
    /// no frame, and a machine crash at most the frames of the tenancy's
    /// last, unsynced stretch, which recompute. Store degradation (corrupt frames, full disk, I/O
    /// errors) never changes an answer — only whether it was recomputed —
    /// and is observable via [`SessionStats::store`]. `None` is a
    /// memory-only session.
    ///
    /// With a live `obs`, every query of every compiled model wraps itself
    /// in a `session.query.<kind>` span under the span the calling thread
    /// has open (a sweep's `dse.eval`, say), mirrors its counters into the
    /// collector (see the `rap-obs` crate docs for the taxonomy) and runs
    /// the engine under its `session.compute` span, and the store records
    /// read/write latency histograms and quarantine events into the same
    /// collector. Recording is observation-only — results, caching and
    /// scheduling are bit-identical to a session over [`Obs::none`].
    #[must_use]
    pub fn with(store: Option<Store>, obs: Obs) -> Self {
        let store = store.map(|mut store| {
            store.set_recorder(obs.clone());
            Arc::new(store)
        });
        Session {
            meter: Meter::with_obs(obs.clone()),
            obs,
            store,
            ..Session::default()
        }
    }

    /// The recorder handle this session records into (detached unless the
    /// session was built by [`Session::with`] with a live one).
    #[must_use]
    pub fn recorder(&self) -> &Obs {
        &self.obs
    }

    /// Opens (creating if necessary) the artifact store at `dir` and
    /// builds a persistent, untraced session over it — shorthand for
    /// [`Store::open`] + [`Session::with`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when a live process holds the directory,
    /// [`StoreError::Io`] when it cannot be prepared. Callers that prefer
    /// degradation over failure fall back to [`Session::new`], which keeps
    /// every answer and only loses persistence.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Ok(Session::with(Some(Store::open(dir)?), Obs::none()))
    }

    /// The persistent store backing this session, if any.
    #[must_use]
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Compiles `dfs`, interning by identity: if an identical model (equal
    /// [`Dfs::structural_hash`] *and* byte-exact names/order/attributes)
    /// was compiled before, its [`CompiledModel`] — with every artifact
    /// already cached on it — is returned instead of a fresh one.
    ///
    /// A new model also joins its *timing-twin group*: the models compiled
    /// so far that equal it in everything but node delays (verified field
    /// by field, like interning). Twins share the delay-free artifacts —
    /// the Petri image, the LTS and the screen — see the [crate
    /// docs](crate).
    ///
    /// Compilation itself derives nothing: artifacts are computed on first
    /// query. The returned `Arc` is shareable across threads and stays
    /// valid after the session is dropped (caches and all).
    #[must_use]
    pub fn compile(&self, dfs: &Dfs) -> Arc<CompiledModel> {
        let _span = self.obs.span("session.compile");
        let structural = dfs.structural_hash();
        let key = (structural, exact_digest(dfs, true));
        let mut guard = self.interned.lock().expect("session intern table");
        let table = &mut *guard;
        if let Some(model) = table
            .models
            .entry(key)
            .or_default()
            .iter()
            .find(|m| same_model(m.dfs(), dfs, true))
        {
            let model = Arc::clone(model);
            self.meter
                .bump2("session.compile", "session.compile.hit", true);
            return model;
        }
        let persist = self
            .store
            .as_ref()
            .map(|s| persist::Persist::new(Arc::clone(s), structural, key.1));
        let twins = table.twins.entry(exact_digest(dfs, false)).or_default();
        let twin = twins.iter().find(|m| same_model(m.dfs(), dfs, false));
        let model = Arc::new(CompiledModel::new(
            dfs.clone(),
            structural,
            key.1,
            twin.map(|m| m.untimed()),
            persist,
            self.obs.clone(),
        ));
        if twin.is_none() {
            twins.push(Arc::clone(&model));
        }
        table
            .models
            .entry(key)
            .or_default()
            .push(Arc::clone(&model));
        self.meter
            .bump2("session.compile", "session.compile.hit", false);
        model
    }

    /// Session-wide statistics: compile/intern counters plus the
    /// per-model query counters summed over every compiled model — one
    /// coherent snapshot (the compile counters and model count are read
    /// under the intern lock they are written under, and each model's
    /// counters are copied under a single lock).
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        let table = self.interned.lock().expect("session intern table");
        let mut agg = CounterSnapshot::default();
        let mut count = 0u64;
        for m in table.models.values().flatten() {
            agg.merge(&m.counter_snapshot());
            count += 1;
        }
        let compile = self.meter.snapshot();
        SessionStats {
            compiles: compile.get("session.compile"),
            compile_hits: compile.get("session.compile.hit"),
            models: count,
            queries: ModelStats::from_counters(&agg),
            store: self.store.as_ref().map(|s| s.stats()).unwrap_or_default(),
        }
    }
}

// The whole point of the session layer is cross-thread sharing; regress
// loudly if a field ever breaks it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Session>();
    assert_send_sync::<CompiledModel>();
    assert_send_sync::<Error>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dfs_core::DfsBuilder;

    fn ring(names: &[&str]) -> Dfs {
        let mut b = DfsBuilder::new();
        let ids: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let nb = b.register(*n);
                if i == 0 {
                    nb.marked().build()
                } else {
                    nb.build()
                }
            })
            .collect();
        for i in 0..ids.len() {
            b.connect(ids[i], ids[(i + 1) % ids.len()]);
        }
        b.finish().unwrap()
    }

    #[test]
    fn interning_requires_byte_exact_identity() {
        let session = Session::new();
        let a = session.compile(&ring(&["r0", "r1", "r2"]));
        let same = session.compile(&ring(&["r0", "r1", "r2"]));
        assert!(Arc::ptr_eq(&a, &same), "identical models intern");
        // renamed: structurally isomorphic (equal structural hash), but the
        // node names differ — results would differ, so no sharing
        let renamed = session.compile(&ring(&["x0", "x1", "x2"]));
        assert_eq!(a.structural_hash(), renamed.structural_hash());
        assert!(!Arc::ptr_eq(&a, &renamed));
        let stats = session.stats();
        assert_eq!(stats.compiles, 3);
        assert_eq!(stats.compile_hits, 1);
        assert_eq!(stats.models, 2);
    }

    #[test]
    fn queries_compute_once_and_compose_through_the_cache() {
        let session = Session::new();
        let model = session.compile(&ring(&["a", "b", "c", "d"]));
        let p1 = model.perf().unwrap().period;
        let p2 = model.perf().unwrap().period;
        assert_eq!(p1.to_bits(), p2.to_bits());
        // quick_check twice at two budgets: two runs, one translation
        let c1 = model.quick_check(10_000);
        let c2 = model.quick_check(10_000);
        assert!(Arc::ptr_eq(&c1, &c2), "same budget returns the same Arc");
        let _c3 = model.quick_check(20_000);
        let stats = model.stats();
        assert_eq!(stats.perf_queries, 2);
        assert_eq!(stats.perf_analyses, 1);
        assert_eq!(stats.check_queries, 3);
        assert_eq!(stats.check_runs, 2);
        assert_eq!(stats.petri_translations, 1, "both check runs share it");
        // one hit each: perf (2nd query), check (same budget), petri (the
        // second check run re-demanding the translation)
        assert_eq!(stats.cache_hits(), 3);
    }

    #[test]
    fn errors_are_cached_faithfully() {
        // an unmarked ring has a token-free cycle: analysis fails
        let mut b = DfsBuilder::new();
        let r0 = b.register("r0").build();
        let r1 = b.register("r1").build();
        b.connect(r0, r1);
        b.connect(r1, r0);
        let dfs = b.finish().unwrap();
        let session = Session::new();
        let model = session.compile(&dfs);
        let e1 = model.perf().unwrap_err();
        let e2 = model.perf().unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(model.stats().perf_analyses, 1, "failure analysed once");
        assert!(matches!(
            e1,
            Error::Dfs(dfs_core::DfsError::TokenFreeCycle { .. })
        ));
        // the cost query propagates the same cached error
        let cost = rap_silicon::cost::CostModel::default();
        assert_eq!(model.cost(&cost).unwrap_err(), e1);
        assert_eq!(model.stats().perf_analyses, 1);
    }
}

//! [`CompiledModel`]: one interned DFS model with demand-computed, memoized
//! derived artifacts.

use crate::persist::{CheckDerivation, Persist};
use crate::Error;
use dfs_core::perf::{analyse_schedule, EventSchedule, PerfDetail, PerfReport};
use dfs_core::timed::{measure_steady_period, ChoicePolicy, SteadyStatePeriod};
use dfs_core::{to_petri, Dfs, DfsError, Lts, NodeId, PetriImage};
use rap_obs::{CounterSnapshot, Meter, Obs};
use rap_petri::analysis::{quick_check_with, screen, QuickCheck};
use rap_petri::reachability::ExploreConfig;
use rap_silicon::cost::CostModel;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// A keyed cache slot. The `Arc` lets a query hold the slot outside the
/// map lock while it computes; the `OnceLock` is the in-flight
/// reservation — the first caller to reach `get_or_init` computes, every
/// concurrent caller blocks on that one computation instead of
/// duplicating it.
type Slot<T> = Arc<OnceLock<T>>;
type SlotMap<K, T> = Mutex<HashMap<K, Slot<T>>>;

fn keyed_slot<K, T>(map: &SlotMap<K, T>, key: K) -> Slot<T>
where
    K: std::hash::Hash + Eq,
{
    Arc::clone(map.lock().expect("slot map").entry(key).or_default())
}

/// Runs `f` through `slot` exactly once; the returned flag is `true` iff
/// *this* call performed the computation (it won the reservation).
///
/// A call that finds the slot empty and still does not run `f` has blocked
/// on another thread's in-flight computation: it counts as `wait` in
/// `meter`, and its blocked time lands in the `session.wait_ns` histogram
/// and in a `session.wait` span under the calling thread's current span.
fn traced_once<'a, T>(
    slot: &'a OnceLock<T>,
    meter: &Meter,
    wait: &'static str,
    f: impl FnOnce() -> T,
) -> (&'a T, bool) {
    if let Some(v) = slot.get() {
        return (v, false);
    }
    let start = Instant::now();
    let mut ran = false;
    let v = slot.get_or_init(|| {
        ran = true;
        f()
    });
    if !ran {
        meter.add(wait, 1);
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        meter.obs().observe_ns("session.wait_ns", nanos);
        meter.obs().record_span("session.wait", nanos);
    }
    (v, ran)
}

/// The delay-free artifacts of one timing-twin group: models equal in
/// everything but node delays. Neither the Fig. 3 translation, the
/// direct-semantics LTS nor the shape of the event graph reads a delay, so
/// the twins share one Petri image, one LTS per budget, one full check and
/// one screen per budget, and one event schedule, whichever twin computes
/// them first.
#[derive(Default)]
pub(crate) struct Untimed {
    petri: OnceLock<PetriImage>,
    lts: SlotMap<usize, Result<Arc<Lts>, Error>>,
    checks: SlotMap<CheckKey, Result<Arc<QuickCheck>, Error>>,
    schedule: OnceLock<Result<EventSchedule, Error>>,
}

/// The cache key of a verification query: the full check per budget, the
/// screen per budget and rotation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum CheckKey {
    Full(usize),
    Screen(usize, Option<Vec<u32>>),
}

impl CheckKey {
    fn budget(&self) -> usize {
        match *self {
            CheckKey::Full(budget) | CheckKey::Screen(budget, _) => budget,
        }
    }

    fn derivation(&self) -> CheckDerivation {
        match self {
            CheckKey::Full(_) => CheckDerivation::Full,
            CheckKey::Screen(_, rotation) => CheckDerivation::reduced(rotation.as_deref()),
        }
    }
}

/// The exploration config of a session query: the state budget, every
/// other knob at its default, recording into `obs` (under the query's
/// `session.compute` span, the one open on the calling thread).
fn explore_config(max_states: usize, obs: &Obs) -> ExploreConfig {
    ExploreConfig {
        max_states,
        obs: obs.clone(),
        ..ExploreConfig::default()
    }
}

/// Per-query-kind counters of one [`CompiledModel`] (also the aggregate
/// shape of [`SessionStats::queries`](crate::SessionStats)).
///
/// For every query kind, `*_queries` counts calls and the second field
/// counts actual computations; the difference is the number of calls
/// served from cache. The `check` pair counts both verification queries,
/// [`quick_check`](CompiledModel::quick_check) and
/// [`screen`](CompiledModel::screen). Because every computation runs
/// under an in-flight reservation, each computation counter is bounded by
/// the number of distinct cache keys of its query: `perf_analyses` never
/// exceeds 1 per model, and `petri_translations` never exceeds 1 per
/// timing-twin group (the delay-free artifacts are shared, so a twin's
/// Petri, LTS and check queries may be served by another twin's
/// computation — summed over the twins, `lts_explorations` is at most 1
/// per budget, and `check_runs` 1 per budget for each of the two checks
/// and each rotation).
///
/// `ModelStats` is a *view* over the model's `rap-obs` counter set (see
/// [`ModelStats::from_counters`]); each model's counters are copied under
/// a single lock, so a query/computation pair can never tear apart. Note
/// the aliasing: a query served by a verified on-disk frame counts as a
/// cache hit here (it did not compute) *and* as a `store.read.hit` in
/// [`rap_store::StoreStats`] — the session-level and store-level views
/// deliberately overlap, so never sum them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field names are the documentation (pattern above)
pub struct ModelStats {
    pub petri_queries: u64,
    pub petri_translations: u64,
    pub perf_queries: u64,
    pub perf_analyses: u64,
    pub lts_queries: u64,
    pub lts_explorations: u64,
    pub check_queries: u64,
    pub check_runs: u64,
    pub cost_queries: u64,
    pub cost_evaluations: u64,
    pub steady_queries: u64,
    pub steady_measurements: u64,
}

impl ModelStats {
    /// Total queries of every kind.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.petri_queries
            + self.perf_queries
            + self.lts_queries
            + self.check_queries
            + self.cost_queries
            + self.steady_queries
    }

    /// Total computations actually performed.
    #[must_use]
    pub fn computations(&self) -> u64 {
        self.petri_translations
            + self.perf_analyses
            + self.lts_explorations
            + self.check_runs
            + self.cost_evaluations
            + self.steady_measurements
    }

    /// Queries served from cache: [`queries`](Self::queries) −
    /// [`computations`](Self::computations).
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.queries() - self.computations()
    }

    /// Builds the view from a coherent counter snapshot, using the
    /// `session.<kind>.query` / `session.<kind>.compute` taxonomy names
    /// (see the `rap-obs` crate docs).
    #[must_use]
    pub fn from_counters(c: &CounterSnapshot) -> ModelStats {
        ModelStats {
            petri_queries: c.get("session.petri.query"),
            petri_translations: c.get("session.petri.compute"),
            perf_queries: c.get("session.perf.query"),
            perf_analyses: c.get("session.perf.compute"),
            lts_queries: c.get("session.lts.query"),
            lts_explorations: c.get("session.lts.compute"),
            check_queries: c.get("session.check.query"),
            check_runs: c.get("session.check.compute"),
            cost_queries: c.get("session.cost.query"),
            cost_evaluations: c.get("session.cost.compute"),
            steady_queries: c.get("session.steady.query"),
            steady_measurements: c.get("session.steady.compute"),
        }
    }
}

/// The silicon-cost summary of a model under one [`CostModel`]: the two
/// voltage-independent quantities every energy/area objective builds on.
/// Bit-identical to calling [`CostModel::area`] and
/// [`CostModel::switched_ge_per_item`] (with the exact activity from
/// [`analyse_with_activity`](dfs_core::perf::analyse_with_activity))
/// directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSummary {
    /// Total gate-equivalent area (excluded stages included: silicon is
    /// committed at tape-out).
    pub area: f64,
    /// Gate equivalents switched per item, weighted by the exact per-node
    /// steady-state activity.
    pub switched_ge_per_item: f64,
}

impl CostSummary {
    /// Energy per item at supply `v` under `cost` — delegates to the
    /// single [`CostModel::energy_from_parts`] formula.
    #[must_use]
    pub fn energy_per_item(&self, cost: &CostModel, period_units: f64, v: f64) -> f64 {
        self.switching_and_leakage(cost, cost.period_seconds(period_units, v), v)
    }

    fn switching_and_leakage(&self, cost: &CostModel, period_s: f64, v: f64) -> f64 {
        cost.energy_from_parts(self.switched_ge_per_item, self.area, period_s, v)
    }
}

/// A compiled (interned) DFS model: an immutable [`Dfs`] plus a cache of
/// every derived artifact, each computed on first demand and shared by all
/// later queries — from any thread.
///
/// Obtained from [`Session::compile`](crate::Session::compile); see the
/// [crate docs](crate) for the caching and coherence contract. All queries
/// take `&self`: a compiled model is never mutated, and the underlying
/// [`Dfs`] is immutable by construction — to analyse a modified model,
/// build the new [`Dfs`] and compile it (**mutation = recompile**).
pub struct CompiledModel {
    dfs: Dfs,
    structural_hash: u64,
    identity_digest: u64,
    /// Store context of a persistent session; `None` = memory-only. The
    /// persisted queries (perf, check, cost, steady) consult the store
    /// before they compute: a verified disk frame fills the slot *without*
    /// counting as a computation, so restart-warm sweeps do zero full
    /// evaluations. The Petri image and LTS are recomputed, not persisted
    /// — see [`crate::persist`].
    persist: Option<Persist>,
    /// The Petri image, LTS and screen slots, shared with every timing
    /// twin compiled into the same session.
    untimed: Arc<Untimed>,
    perf: OnceLock<Result<PerfDetail, Error>>,
    costs: SlotMap<u64, Result<CostSummary, Error>>,
    steady: SlotMap<(NodeId, u64), Result<SteadyStatePeriod, Error>>,
    /// Query/computation counters, mirrored into the session's recorder
    /// (if any) under the `session.*` taxonomy names.
    meter: Meter,
    /// The session's recorder handle; every query wraps itself in a
    /// `session.query.<kind>` span, under the span the calling thread has
    /// open, with `session.load` / `session.compute` / `session.commit`
    /// children, and the engine's `engine.explore` span nests under
    /// `session.compute`. Recording is observation-only — it never changes
    /// what is computed or cached.
    obs: Obs,
}

impl std::fmt::Debug for CompiledModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledModel")
            .field("nodes", &self.dfs.node_count())
            .field("edges", &self.dfs.edge_count())
            .field(
                "structural_hash",
                &format_args!("{:#018x}", self.structural_hash),
            )
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl CompiledModel {
    /// A fresh model joining `twins`' group, or starting its own.
    pub(crate) fn new(
        dfs: Dfs,
        structural_hash: u64,
        identity_digest: u64,
        twins: Option<Arc<Untimed>>,
        persist: Option<Persist>,
        obs: Obs,
    ) -> Self {
        CompiledModel {
            dfs,
            structural_hash,
            identity_digest,
            persist,
            untimed: twins.unwrap_or_default(),
            perf: OnceLock::new(),
            costs: Mutex::new(HashMap::new()),
            steady: Mutex::new(HashMap::new()),
            meter: Meter::with_obs(obs.clone()),
            obs,
        }
    }

    /// The compiled model itself.
    #[must_use]
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// The model's timing-twin group, for a twin compiled after it.
    pub(crate) fn untimed(&self) -> Arc<Untimed> {
        Arc::clone(&self.untimed)
    }

    /// The canonical structural hash the model was interned under
    /// (see [`Dfs::structural_hash`]).
    #[must_use]
    pub fn structural_hash(&self) -> u64 {
        self.structural_hash
    }

    /// The byte-exact identity digest the model was interned under — the
    /// second half of the intern key, and of every persistent artifact's
    /// [`rap_store::ArtifactKey`].
    #[must_use]
    pub fn identity_digest(&self) -> u64 {
        self.identity_digest
    }

    /// Per-model query/computation counters — one coherent snapshot (a
    /// single lock acquisition; the query/compute pair of a kind can never
    /// tear apart).
    #[must_use]
    pub fn stats(&self) -> ModelStats {
        ModelStats::from_counters(&self.counter_snapshot())
    }

    /// The raw coherent counter snapshot [`stats`](Self::stats) is a view
    /// over (taxonomy-named; includes the `session.<kind>.disk_hit`
    /// counters the legacy struct does not surface).
    #[must_use]
    pub fn counter_snapshot(&self) -> CounterSnapshot {
        self.meter.snapshot()
    }

    /// The Petri-net image (Fig. 3 translation) — computed once per
    /// timing-twin group, equal to [`to_petri()`]`(self.dfs())`.
    pub fn petri(&self) -> &PetriImage {
        let _span = self.obs.span("session.query.petri");
        let (img, ran) = traced_once(
            &self.untimed.petri,
            &self.meter,
            "session.petri.wait",
            || self.obs.time("session.compute", || to_petri(&self.dfs)),
        );
        self.meter
            .bump2("session.petri.query", "session.petri.compute", ran);
        img
    }

    /// The exact throughput analysis with per-node activity — computed
    /// once, equal to
    /// [`analyse_with_activity`](dfs_core::perf::analyse_with_activity)`(self.dfs())`.
    /// The delay-free [`EventSchedule`] (for models with dynamic registers,
    /// the phase unfolding) is built once per timing-twin group; each twin
    /// re-weights it with its own delays and solves the cycle ratio.
    ///
    /// # Errors
    ///
    /// The cached [`DfsError`](dfs_core::DfsError) of the analysis (e.g. a
    /// token-free cycle); errors are cached like results, so a failing
    /// model is analysed once, not once per query.
    pub fn perf_detail(&self) -> Result<&PerfDetail, Error> {
        self.perf_detail_computed().0
    }

    /// [`perf_detail`](Self::perf_detail), also reporting whether *this*
    /// call performed the analysis (`true`) or was served from a cache —
    /// in-memory, in-flight (blocked on a concurrent caller's computation),
    /// or a verified on-disk frame of a persistent session — (`false`).
    /// Sweep drivers use this for exact work accounting; a restart-warm
    /// sweep over an intact store reports `false` throughout.
    pub fn perf_detail_computed(&self) -> (Result<&PerfDetail, Error>, bool) {
        let _span = self.obs.span("session.query.perf");
        let mut analysed = false;
        let mut disk_hit = false;
        let (res, _filled) = traced_once(&self.perf, &self.meter, "session.perf.wait", || {
            if let Some(p) = &self.persist {
                if let Some(detail) = self.obs.time("session.load", || p.load_perf()) {
                    disk_hit = true;
                    return Ok(detail);
                }
            }
            analysed = true;
            let r = self.obs.time("session.compute", || {
                let (schedule, _) = traced_once(
                    &self.untimed.schedule,
                    &self.meter,
                    "session.perf.wait",
                    || EventSchedule::build(&self.dfs).map_err(Error::from),
                );
                analyse_schedule(&self.dfs, schedule.as_ref().map_err(Clone::clone)?)
                    .map_err(Error::from)
            });
            if let (Some(p), Ok(detail)) = (&self.persist, &r) {
                self.obs.time("session.commit", || p.save_perf(detail));
            }
            r
        });
        self.meter
            .bump2("session.perf.query", "session.perf.compute", analysed);
        if disk_hit {
            self.meter.add("session.perf.disk_hit", 1);
        }
        (res.as_ref().map_err(Clone::clone), analysed)
    }

    /// The throughput report — the `report` half of
    /// [`perf_detail`](Self::perf_detail), equal to
    /// [`dfs_core::perf::analyse`]`(self.dfs())`.
    ///
    /// # Errors
    ///
    /// Same as [`perf_detail`](Self::perf_detail).
    pub fn perf(&self) -> Result<&PerfReport, Error> {
        self.perf_detail().map(|d| &d.report)
    }

    /// The reachable LTS of the direct semantics under `budget` —
    /// computed once per distinct budget and timing-twin group, equal to
    /// [`Lts::explore`]`(self.dfs(), budget)`.
    ///
    /// # Errors
    ///
    /// The cached [`DfsError::StateBudgetExceeded`] when the state space
    /// exceeds `budget`.
    pub fn lts(&self, budget: usize) -> Result<Arc<Lts>, Error> {
        let _span = self.obs.span("session.query.lts");
        let slot = keyed_slot(&self.untimed.lts, budget);
        let (res, ran) = traced_once(&slot, &self.meter, "session.lts.wait", || {
            self.obs.time("session.compute", || {
                let lts = Lts::explore_with(&self.dfs, &explore_config(budget, &self.obs), None);
                if lts.is_truncated() {
                    return Err(DfsError::StateBudgetExceeded { budget }.into());
                }
                Ok(Arc::new(lts))
            })
        });
        self.meter
            .bump2("session.lts.query", "session.lts.compute", ran);
        res.clone()
    }

    /// The budgeted deadlock/1-safety check over the Petri image's *full*
    /// state space — computed once per distinct budget and timing-twin
    /// group, equal to
    /// [`quick_check`](rap_petri::analysis::quick_check)`(&img.net,
    /// &img.complementary_pairs(), budget)`, so its `states` count the
    /// whole reachable set. Demands [`petri`](Self::petri), so the
    /// translation is still performed at most once per group. The design
    /// sweep's cheaper screen is [`screen`](Self::screen).
    ///
    /// In a persistent session every model keeps its own frame per budget
    /// (kind [`FullCheck`](rap_store::QueryKind::FullCheck)): its first
    /// query loads that frame if it is on disk, and otherwise commits the
    /// check under the model's own key, also when a twin computed it.
    #[must_use]
    pub fn quick_check(&self, budget: usize) -> Arc<QuickCheck> {
        let check = self.check_query(CheckKey::Full(budget), |img, cfg| {
            Ok(quick_check_with(&img.net, &img.complementary_pairs(), cfg))
        });
        check.expect("the full check has no error path")
    }

    /// The design-space screen: deadlock-freedom from a stubborn-set
    /// reduced exploration of the Petri image, on the rotation quotient
    /// when `rotation` (a node permutation, like
    /// [`Wagged::way_rotation`](dfs_core::wagging::Wagged::way_rotation))
    /// is given, and 1-safety from the structural certificate — equal to
    /// [`screen`](rap_petri::analysis::screen)`(&img.net,
    /// &img.complementary_pairs(), cfg, sym)` with `sym` =
    /// [`img.induced_symmetry(rotation)`](PetriImage::induced_symmetry)
    /// (see there for what each verdict means on a reduced space). Computed
    /// once per distinct budget and rotation per timing-twin group.
    ///
    /// In a persistent session each model files the screen under its own
    /// `(Check, budget)` key, exactly as [`quick_check`](Self::quick_check)
    /// files its frames; the frame records how it was derived (reduced,
    /// and under which rotation) and is served only to the same query.
    ///
    /// # Errors
    ///
    /// [`PetriError::InvalidSymmetry`](rap_petri::PetriError::InvalidSymmetry)
    /// (cached like a result) when `rotation` does not induce a net
    /// automorphism, or the complementary pairs are not closed under it.
    /// An invalid rotation is never replaced by an unreduced run.
    pub fn screen(
        &self,
        budget: usize,
        rotation: Option<&[u32]>,
    ) -> Result<Arc<QuickCheck>, Error> {
        let key = CheckKey::Screen(budget, rotation.map(<[u32]>::to_vec));
        self.check_query(key, |img, cfg| {
            let sym = rotation
                .map(|r| img.induced_symmetry(r))
                .transpose()
                .map_err(|reason| rap_petri::PetriError::InvalidSymmetry { reason })?;
            Ok(screen(
                &img.net,
                &img.complementary_pairs(),
                cfg,
                sym.as_ref(),
            )?)
        })
    }

    /// The shared body of [`quick_check`](Self::quick_check) and
    /// [`screen`](Self::screen): one `session.query.check` span, the
    /// model's own frame loaded or committed once per budget and
    /// derivation, and `run` computing on the Petri image otherwise.
    fn check_query(
        &self,
        key: CheckKey,
        run: impl FnOnce(&PetriImage, &ExploreConfig) -> Result<QuickCheck, Error>,
    ) -> Result<Arc<QuickCheck>, Error> {
        let (budget, derivation) = (key.budget(), key.derivation());
        let slot = keyed_slot(&self.untimed.checks, key);
        let _span = self.obs.span("session.query.check");
        let own_frame = self
            .persist
            .as_ref()
            .filter(|p| p.claim_check(budget, derivation));
        // a disk hit skips the whole pipeline, including the Petri
        // translation the in-memory path would demand
        let loaded = own_frame.and_then(|p| {
            self.obs
                .time("session.load", || p.load_check(budget, derivation))
        });
        let disk_hit = loaded.is_some();
        let mut ran = false;
        let (check, _filled) = traced_once(&slot, &self.meter, "session.check.wait", || {
            if let Some(check) = loaded {
                return Ok(Arc::new(check));
            }
            ran = true;
            let img = self.petri();
            self.obs.time("session.compute", || {
                run(img, &explore_config(budget, &self.obs)).map(Arc::new)
            })
        });
        if let (Some(p), false, Ok(check)) = (own_frame, disk_hit, check) {
            self.obs
                .time("session.commit", || p.save_check(budget, derivation, check));
        }
        self.meter
            .bump2("session.check.query", "session.check.compute", ran);
        if disk_hit {
            self.meter.add("session.check.disk_hit", 1);
        }
        check.clone()
    }

    /// Area and switched-GE of the model under `cost` — computed once per
    /// distinct cost model (keyed by [`CostModel::cache_key`]). Demands
    /// [`perf_detail`](Self::perf_detail) for the exact activity, so the
    /// phase unfolding is still performed at most once per model.
    ///
    /// # Errors
    ///
    /// Propagates the cached error of the throughput analysis.
    pub fn cost(&self, cost: &CostModel) -> Result<CostSummary, Error> {
        let _span = self.obs.span("session.query.cost");
        let cache_key = cost.cache_key();
        let slot = keyed_slot(&self.costs, cache_key);
        let mut ran = false;
        let mut disk_hit = false;
        let (res, _filled) = traced_once(&slot, &self.meter, "session.cost.wait", || {
            if let Some(p) = &self.persist {
                if let Some(summary) = self.obs.time("session.load", || p.load_cost(cache_key)) {
                    disk_hit = true;
                    return Ok(summary);
                }
            }
            ran = true;
            let detail = self.perf_detail()?;
            let summary = self.obs.time("session.compute", || CostSummary {
                area: cost.area(&self.dfs),
                switched_ge_per_item: cost
                    .switched_ge_per_item(&self.dfs, &detail.activity_per_item),
            });
            if let Some(p) = &self.persist {
                self.obs
                    .time("session.commit", || p.save_cost(cache_key, &summary));
            }
            Ok(summary)
        });
        self.meter
            .bump2("session.cost.query", "session.cost.compute", ran);
        if disk_hit {
            self.meter.add("session.cost.disk_hit", 1);
        }
        res.clone()
    }

    /// The timed simulator's exact steady-state recurrence at `output`
    /// under the `AlwaysTrue` choice policy (the policy the analysis is
    /// certified against) — computed once per distinct `(output,
    /// max_marks)`, equal to
    /// [`measure_steady_period`]`(self.dfs(), output, max_marks,
    /// ChoicePolicy::AlwaysTrue)`.
    ///
    /// # Errors
    ///
    /// The cached simulation error
    /// ([`SimulationStalled`](dfs_core::DfsError::SimulationStalled) /
    /// [`NoSteadyState`](dfs_core::DfsError::NoSteadyState)).
    pub fn steady_period(
        &self,
        output: NodeId,
        max_marks: u64,
    ) -> Result<SteadyStatePeriod, Error> {
        let _span = self.obs.span("session.query.steady");
        let slot = keyed_slot(&self.steady, (output, max_marks));
        let mut ran = false;
        let mut disk_hit = false;
        let (res, _filled) = traced_once(&slot, &self.meter, "session.steady.wait", || {
            if let Some(p) = &self.persist {
                if let Some(sp) = self
                    .obs
                    .time("session.load", || p.load_steady(output, max_marks))
                {
                    disk_hit = true;
                    return Ok(sp);
                }
            }
            ran = true;
            let r = self.obs.time("session.compute", || {
                measure_steady_period(&self.dfs, output, max_marks, ChoicePolicy::AlwaysTrue)
                    .map_err(Error::from)
            });
            if let (Some(p), Ok(sp)) = (&self.persist, &r) {
                self.obs
                    .time("session.commit", || p.save_steady(output, max_marks, sp));
            }
            r
        });
        self.meter
            .bump2("session.steady.query", "session.steady.compute", ran);
        if disk_hit {
            self.meter.add("session.steady.disk_hit", 1);
        }
        res.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rap_obs::Collector;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A second caller that overlaps an in-flight computation blocks on it
    /// and counts one wait, with its blocked time in `session.wait_ns` and
    /// in one `session.wait` span; a caller that arrives after the
    /// computation finished counts none.
    #[test]
    fn a_caller_blocked_on_an_in_flight_computation_counts_one_wait() {
        let collector = Arc::new(Collector::new());
        let meter = Meter::with_obs(Obs::collecting(&collector));
        let (slot, meter) = (&OnceLock::new(), &meter);
        let (started, first_started) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let (calling, second_calling) = mpsc::channel();
        std::thread::scope(|scope| {
            let first = scope.spawn(move || {
                traced_once(slot, meter, "session.check.wait", || {
                    started.send(()).unwrap();
                    released.recv().unwrap();
                    1
                })
                .1
            });
            first_started.recv().unwrap();
            let second = scope.spawn(move || {
                calling.send(()).unwrap();
                *traced_once(slot, meter, "session.check.wait", || 2).0
            });
            // the second caller checks the slot inside `traced_once`, out
            // of any channel's reach: the 50 ms hold lets it find the slot
            // empty before the reservation is released
            second_calling.recv().unwrap();
            std::thread::sleep(Duration::from_millis(50));
            release.send(()).unwrap();
            assert!(first.join().unwrap(), "the first caller computes");
            assert_eq!(second.join().unwrap(), 1, "the second is served");
        });
        let (v, ran) = traced_once(slot, meter, "session.check.wait", || 3);
        assert_eq!((*v, ran), (1, false));
        assert_eq!(meter.snapshot().get("session.check.wait"), 1);
        let snap = collector.snapshot();
        assert_eq!(snap.counters.get("session.check.wait"), 1);
        let waits = snap
            .hists
            .iter()
            .find(|h| h.name == "session.wait_ns")
            .expect("the blocked time is recorded");
        assert_eq!(waits.count, 1);
        assert!(waits.total_ns >= 1_000_000, "blocked for the 50 ms hold");
        let spans: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "session.wait")
            .collect();
        assert_eq!(spans.len(), 1, "one session.wait span node");
        assert_eq!(spans[0].count, 1, "recording one blocked interval");
        assert_eq!(spans[0].total_ns, waits.total_ns);
    }
}

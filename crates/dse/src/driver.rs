//! The parallel sweep driver: a work-stealing evaluation pool with
//! sharded result collection, session-backed memoization and admissible
//! pruning.
//!
//! * **Work stealing** — tasks are dealt round-robin into per-worker
//!   deques ([`rap_pool::StealQueues`], extracted from this driver); each
//!   candidate's state-space exploration runs serially on the worker that
//!   evaluates it, so this pool is the only parallelism of a sweep. A
//!   worker pops its own deque from the front and, when empty, steals from
//!   the back of the others. No global queue lock on the hot path, and
//!   stragglers (the big wagged models) end up shared.
//! * **Scheduling** — a task is not one configuration but one *structure
//!   group*: the configurations with equal [`Config::untimed_key`]
//!   (hardware and operating depth), which build timing twins that share
//!   one Petri image and one screen in the session. Groups keep their
//!   first-appearance order and their configurations keep enumeration
//!   order, so on one thread the sweep evaluates in enumeration order.
//!   A worker runs a whole group in sequence, so twins never race: no
//!   query blocks on a twin's in-flight computation (the session counts
//!   such blocking as `session.<kind>.wait`). A sweep uses at most one
//!   worker per group, and a one-group sweep runs inline. A key that split
//!   twins would cost time, never correctness, because the session does
//!   the sharing.
//! * **Sharded collection** — each worker appends to its own result
//!   vector; vectors are concatenated after the pool joins, then sorted
//!   canonically, so the output is deterministic regardless of schedule.
//! * **Memoization** — every configuration is compiled into a shared
//!   [`rap_session::Session`], which interns models by identity
//!   (structural hash + byte-exact digest). Configurations that differ
//!   only in supply voltage — or in demanded depth, for hardware that
//!   cannot reconfigure — build identical models and share one
//!   [`CompiledModel`], whose query slots are in-flight reservations (a
//!   `OnceLock` per artifact), so each distinct structure is fully
//!   evaluated at most once per sweep regardless of thread count.
//!   Configurations that differ in sizing as well are timing twins: each
//!   has its own throughput analysis and cost, but the session runs their
//!   shared Petri screen once, so a sweep screens each untimed structure
//!   once. (The exact full/memo/pruned *split* can still shift marginally
//!   under parallel scheduling, because pruning races the arrival of
//!   dominators; the fronts and every per-point value are
//!   schedule-invariant.) Passing an external session to
//!   [`explore_with_session`] extends the sharing across sweeps: a warm
//!   session serves every previously-analysed structure from cache.
//! * **Pruning** — before paying for a full evaluation (phase unfolding +
//!   Petri screen), a candidate's admissible optimistic bound
//!   ([`crate::eval::optimistic_bound`]) is tested against the
//!   exactly-evaluated points of its workload class; if some exact point
//!   dominates the bound, the candidate provably cannot reach the front
//!   and is skipped. The period lower bound feeding that test is the best
//!   of (a) the single-cycle bound
//!   ([`crate::eval::period_lower_bound_units`]) and (b) for
//!   reconfigurable hardware, the exact period of an already-evaluated
//!   shallower depth of the same hardware/sizing (periods are
//!   non-decreasing in depth).
//!
//! The front is invariant under all of this: pruning only ever discards
//! provably-dominated points, and memoization returns bit-identical
//! structural results, so the fronts equal those of evaluating every
//! configuration on its own, each in a fresh session (asserted against
//! exactly that oracle in `tests/driver_equivalence.rs`).

use crate::eval::{evaluate_structural, optimistic_bound, period_lower_bound_units};
use crate::pareto::{pareto_front_indices, Objectives};
use crate::space::{Config, DesignSpace, Hardware};
use dfs_core::Dfs;
use rap_obs::{CounterSnapshot, Meter, Obs};
use rap_pool::StealQueues;
use rap_session::{CompiledModel, Session};
use rap_silicon::cost::CostModel;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Driver knobs.
#[derive(Debug, Clone, Copy)]
pub struct DseConfig {
    /// Worker threads (1 = run inline, still through the same code path).
    pub threads: usize,
    /// State budget of the per-configuration Petri screen.
    pub check_budget: usize,
}

impl Default for DseConfig {
    fn default() -> Self {
        DseConfig {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            check_budget: 20_000,
        }
    }
}

/// One evaluated configuration.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The configuration.
    pub config: Config,
    /// Its stable label ([`Config::label`]).
    pub label: String,
    /// The objective vector at the configuration's supply voltage.
    pub objectives: Objectives,
    /// Steady-state period (model time units, nominal supply).
    pub period_units: f64,
    /// Phases of the analysed schedule.
    pub phases: u32,
    /// Whether the Petri screen was truncated by its budget.
    pub check_truncated: bool,
    /// Whether the screen found a real violation (excluded from fronts).
    pub check_violated: bool,
    /// Whether this evaluation was served from the session cache (another
    /// task had already analysed the same structure).
    pub memoized: bool,
}

/// Sweep counters.
///
/// A *view* over the sweep's [`rap-obs`](rap_obs) counters (the
/// `dse.*` names in the `rap_obs` taxonomy table), materialised once
/// from a single [`Meter`] snapshot so the fields are mutually
/// coherent.
///
/// **Aliasing note:** [`memo_hits`](SweepStats::memo_hits) counts every
/// evaluation this sweep did *not* pay for itself — including those the
/// session served from **disk**, which the store layer counts again as
/// `store.read.hit` (`StoreStats::disk_hits`) and the session splits
/// out as `session.*.disk_hit`. These are deliberately
/// overlapping views of the same events; never sum them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Configurations enumerated by the space.
    pub enumerated: usize,
    /// Full structural evaluations actually performed.
    pub full_evaluations: usize,
    /// Configurations served from the memo table.
    pub memo_hits: usize,
    /// Configurations skipped by admissible pruning.
    pub pruned: usize,
    /// Configurations whose evaluation errored (structurally dead models).
    pub errors: usize,
    /// Evaluations lost to a panicking task. Panic isolation keeps the
    /// sweep alive — a panic poisons exactly one design point's result —
    /// so any non-zero value here flags an internal bug without costing
    /// the rest of the sweep.
    pub panics: usize,
    /// Full evaluations whose Petri screen was truncated (inconclusive).
    pub check_inconclusive: usize,
    /// Full evaluations whose Petri screen found a violation.
    pub check_violations: usize,
}

impl SweepStats {
    /// Materialises the view from one coherent counter snapshot.
    #[must_use]
    pub fn from_counters(c: &CounterSnapshot) -> SweepStats {
        let n = |name| c.get(name) as usize;
        SweepStats {
            enumerated: n("dse.enumerated"),
            full_evaluations: n("dse.eval.full"),
            memo_hits: n("dse.eval.memo"),
            pruned: n("dse.eval.pruned"),
            errors: n("dse.eval.error"),
            panics: n("dse.eval.panic"),
            check_inconclusive: n("dse.check.inconclusive"),
            check_violations: n("dse.check.violation"),
        }
    }
}

/// The sweep result.
#[derive(Debug, Clone)]
pub struct DseOutcome {
    /// Every non-pruned configuration's evaluation, sorted by
    /// (workload, label).
    pub evaluations: Vec<Evaluation>,
    /// Per workload demand: the exact Pareto front over the evaluated,
    /// violation-free configurations, canonically sorted.
    pub fronts: BTreeMap<usize, Vec<Evaluation>>,
    /// Counters.
    pub stats: SweepStats,
}

impl DseOutcome {
    /// The front for `workload`, empty if none.
    #[must_use]
    pub fn front(&self, workload: usize) -> &[Evaluation] {
        self.fronts.get(&workload).map_or(&[], Vec::as_slice)
    }
}

type SiblingKey = (String, u64);

struct Shared<'a> {
    space: &'a DesignSpace,
    cost: &'a CostModel,
    cfg: &'a DseConfig,
    session: &'a Session,
    /// The enumerated configurations in structure groups (see
    /// [`structure_groups`]); the queues deal group indices.
    groups: Vec<Vec<Config>>,
    queues: StealQueues<usize>,
    /// Exact periods of evaluated reconfigurable points, for the
    /// depth-monotonicity bound: (hardware label, sizing bits) → [(depth,
    /// period)].
    siblings: Mutex<HashMap<SiblingKey, Vec<(usize, f64)>>>,
    /// Exact, violation-free objective vectors per workload class.
    dominators: Mutex<HashMap<usize, Vec<Objectives>>>,
    /// Sweep counters, mirrored into the attached recorder (if any).
    /// Observation-only: never consulted by pruning or memoization, so a
    /// live recorder cannot perturb the fronts.
    meter: Meter,
    /// Recorder handle parented under the `dse.sweep` span; per-candidate
    /// `dse.eval` spans and provenance events hang off it.
    obs: Obs,
}

impl Shared<'_> {
    /// The best available admissible period lower bound for `config`.
    ///
    /// Note on a bound deliberately *not* used: the direct (single-phase)
    /// event-graph MCR is **not** admissible here. Its all-true
    /// abstraction under-approximates the period when a replicated column
    /// is the bottleneck, but *over*-approximates it when the shared
    /// steering environment is (every way accepting every item adds
    /// serialisation on the broadcast register) — `wagged(2×2)` direct
    /// 11.0 vs exact 10.5, pinned in `tests/driver_equivalence.rs`.
    fn period_lower_bound(&self, config: &Config, dfs: &Dfs) -> f64 {
        let mut lb = period_lower_bound_units(config, dfs);
        if let Hardware::Reconfigurable { .. } = config.hardware {
            let key = (config.hardware.label(), config.sizing.to_bits());
            if let Some(entries) = self.siblings.lock().expect("siblings").get(&key) {
                for &(depth, period) in entries {
                    // periods are non-decreasing in operating depth
                    if depth <= config.operating_depth() {
                        lb = lb.max(period);
                    }
                }
            }
        }
        lb
    }

    fn record_sibling(&self, config: &Config, period: f64) {
        if matches!(config.hardware, Hardware::Reconfigurable { .. }) {
            let key = (config.hardware.label(), config.sizing.to_bits());
            self.siblings
                .lock()
                .expect("siblings")
                .entry(key)
                .or_default()
                .push((config.operating_depth(), period));
        }
    }

    fn is_dominated(&self, workload: usize, bound: &Objectives) -> bool {
        self.dominators
            .lock()
            .expect("dominators")
            .get(&workload)
            .is_some_and(|ds| ds.iter().any(|d| d.dominates(bound)))
    }

    fn record_dominator(&self, workload: usize, objectives: Objectives) {
        self.dominators
            .lock()
            .expect("dominators")
            .entry(workload)
            .or_default()
            .push(objectives);
    }

    fn run_worker(&self, me: usize, out: &mut Vec<Evaluation>) {
        while let Some(group) = self.queues.next(me) {
            for &config in &self.groups[group] {
                // panic isolation: a panicking evaluation poisons only its
                // own result (the point is recorded in `panics` and missing
                // from the sweep), the worker and the rest of the batch
                // continue. The shared-state sections (siblings/dominators
                // mutexes, session slots) only hold locks around plain
                // inserts, so a panic inside an evaluation cannot poison
                // them mid-update.
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    self.eval_task(config)
                })) {
                    Ok(Some(eval)) => out.push(eval),
                    Ok(None) => {}
                    Err(_) => {
                        self.meter.add("dse.eval.panic", 1);
                    }
                }
            }
        }
    }

    fn eval_task(&self, config: Config) -> Option<Evaluation> {
        let _eval_span = self.obs.span("dse.eval");
        {
            let (dfs, way_rotation) = match config.build_with_rotation() {
                Ok(built) => built,
                Err(_) => {
                    self.meter.add("dse.eval.error", 1);
                    self.obs.note("dse.error", &config.label(), 0);
                    return None;
                }
            };
            // identical configurations intern to one CompiledModel in the
            // shared session
            let model: Arc<CompiledModel> = self.session.compile(&dfs);
            if !model.analysed() {
                // not analysed yet (though another caller of the session
                // may have it in flight): this task may still be pruned on
                // its own merits
                let lb = self.period_lower_bound(&config, &dfs);
                let bound = optimistic_bound(&config, &dfs, self.cost, lb);
                if self.is_dominated(config.workload, &bound) {
                    self.meter.add("dse.eval.pruned", 1);
                    self.obs
                        .note("dse.pruned", &config.label(), model.structural_hash());
                    return None;
                }
            }
            // whoever wins the session's in-flight reservation for the
            // throughput analysis is the task that paid for the structure:
            // exact work accounting even under concurrent callers
            let (detail, ran_here) = model.perf_detail_computed();
            if detail.is_err() {
                self.meter.add("dse.eval.error", 1);
                self.obs
                    .note("dse.error", &config.label(), model.structural_hash());
                return None;
            }
            let eval = match evaluate_structural(
                &model,
                self.cost,
                self.cfg.check_budget,
                way_rotation.as_deref(),
            ) {
                Ok(eval) => eval,
                Err(_) => {
                    self.meter.add("dse.eval.error", 1);
                    self.obs
                        .note("dse.error", &config.label(), model.structural_hash());
                    return None;
                }
            };
            if ran_here {
                self.meter.add("dse.eval.full", 1);
                self.obs
                    .note("dse.full", &config.label(), model.structural_hash());
                if eval.check_violated {
                    self.meter.add("dse.check.violation", 1);
                } else if eval.check_truncated {
                    self.meter.add("dse.check.inconclusive", 1);
                }
            } else {
                self.meter.add("dse.eval.memo", 1);
                self.obs
                    .note("dse.memo", &config.label(), model.structural_hash());
            }
            // record the sibling period on cache hits too: against a warm
            // session nothing is freshly analysed, and without this the
            // depth-monotonicity refinement of the pruning bound would be
            // lost on re-sweeps (duplicates are harmless — the bound maxes
            // over the list)
            self.record_sibling(&config, eval.period_units);
            let memoized = !ran_here;
            let objectives = eval.objectives(self.cost, config.voltage);
            if !eval.check_violated {
                self.record_dominator(config.workload, objectives);
            }
            Some(Evaluation {
                config,
                label: config.label(),
                objectives,
                period_units: eval.period_units,
                phases: eval.phases,
                check_truncated: eval.check_truncated,
                check_violated: eval.check_violated,
                memoized,
            })
        }
    }
}

/// Splits `tasks` into structure groups by [`Config::untimed_key`]:
/// groups in first-appearance order, each group's configurations in
/// `tasks` order. Enumeration is hardware-major, then demand-major, so
/// every group is a contiguous run of the enumeration.
fn structure_groups(tasks: Vec<Config>) -> Vec<Vec<Config>> {
    let mut index: HashMap<(Hardware, usize), usize> = HashMap::new();
    let mut groups: Vec<Vec<Config>> = Vec::new();
    for config in tasks {
        let g = *index.entry(config.untimed_key()).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(config);
    }
    groups
}

/// Runs the sweep over `space` with the given cost model and driver
/// configuration, in a fresh private session.
#[must_use]
pub fn explore(space: &DesignSpace, cost: &CostModel, cfg: &DseConfig) -> DseOutcome {
    explore_with_session(space, cost, cfg, &Session::new())
}

/// [`explore`] through a caller-supplied [`Session`]: every artifact the
/// sweep derives (Petri images, phase unfoldings, verification screens,
/// cost summaries) is interned there and reused by later sweeps or other
/// queries against the same session. Re-running a sweep against a warm
/// session performs **zero** new structural analyses — only the Pareto
/// assembly and (cheap) pruning bounds are recomputed — which is what the
/// recorded `BENCH_dse.json` cold/warm split measures.
#[must_use]
pub fn explore_with_session(
    space: &DesignSpace,
    cost: &CostModel,
    cfg: &DseConfig,
    session: &Session,
) -> DseOutcome {
    explore_traced(space, cost, cfg, session, &session.recorder().clone())
}

/// [`explore_with_session`] with an explicit recorder handle: the sweep
/// opens a `dse.sweep` span under `obs`'s parent (letting callers nest
/// sweeps under their own pass spans), every candidate gets a `dse.eval`
/// span plus a provenance event (`dse.full` / `dse.memo` / `dse.pruned` /
/// `dse.error`, labelled with the configuration and its structural hash),
/// and the `dse.*` counters of [`SweepStats`] are mirrored live.
///
/// Recording is observation-only — it is never consulted by pruning,
/// memoization or scheduling — so the emitted evaluations and fronts are
/// bit-identical to an untraced run.
#[must_use]
pub fn explore_traced(
    space: &DesignSpace,
    cost: &CostModel,
    cfg: &DseConfig,
    session: &Session,
    obs: &Obs,
) -> DseOutcome {
    let sweep_span = obs.span("dse.sweep");
    let sweep_obs = sweep_span.obs();
    let tasks = space.enumerate();
    let enumerated = tasks.len();
    let groups = structure_groups(tasks);
    let threads = cfg.threads.max(1).min(groups.len().max(1));
    let queues = StealQueues::new(threads);
    queues.deal(0..groups.len());
    let meter = Meter::with_obs(sweep_obs.clone());
    meter.add("dse.enumerated", enumerated as u64);
    let shared = Shared {
        space,
        cost,
        cfg,
        session,
        groups,
        queues,
        siblings: Mutex::new(HashMap::new()),
        dominators: Mutex::new(HashMap::new()),
        meter,
        obs: sweep_obs,
    };

    let mut evaluations: Vec<Evaluation> = Vec::new();
    for result in rap_pool::run_workers(threads, |me| {
        let mut out = Vec::new();
        shared.run_worker(me, &mut out);
        out
    }) {
        match result {
            Ok(out) => evaluations.extend(out),
            // per-task catch_unwind means a worker-level death can only
            // come from outside an evaluation (e.g. drop glue); its
            // completed results are lost but the sweep still reports
            Err(_) => {
                shared.meter.add("dse.eval.panic", 1);
            }
        }
    }

    evaluations.sort_by(|a, b| (a.config.workload, &a.label).cmp(&(b.config.workload, &b.label)));

    let mut fronts = BTreeMap::new();
    for &workload in shared.space.workloads.iter() {
        let class: Vec<Evaluation> = evaluations
            .iter()
            .filter(|e| e.config.workload == workload && !e.check_violated)
            .cloned()
            .collect();
        if class.is_empty() {
            continue;
        }
        let front = pareto_front_indices(&class, |e| e.objectives);
        fronts.insert(
            workload,
            front.into_iter().map(|i| class[i].clone()).collect(),
        );
    }

    let stats = SweepStats::from_counters(&shared.meter.snapshot());
    DseOutcome {
        evaluations,
        fronts,
        stats,
    }
}

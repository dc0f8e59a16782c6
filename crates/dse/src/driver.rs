//! The parallel sweep driver: structure groups dealt from one shared
//! cursor, with sharded result collection and session-backed memoization.
//!
//! * **Scheduling** — a task is not one configuration but one *structure
//!   group*: the configurations with equal [`Config::untimed_key`]
//!   (hardware and operating depth), which build timing twins that share
//!   one Petri image and one screen in the session. Groups keep their
//!   first-appearance order and their configurations keep enumeration
//!   order. Each worker takes the next group from one shared cursor (an
//!   atomic counter over the frozen group list, the self-scheduling of a
//!   flat parallel loop), so on one thread, which runs inline, the sweep
//!   evaluates in enumeration order. Each candidate's state-space
//!   exploration runs serially on the worker that evaluates it, so this
//!   pool is the only parallelism of a sweep. A worker runs a whole group
//!   in sequence, so twins never race: no query blocks on a twin's
//!   in-flight computation (the session counts such blocking as
//!   `session.<kind>.wait`). A sweep uses at most one worker per group, so
//!   a one-group sweep runs inline. A key that split twins would cost
//!   time, never correctness, because the session does the sharing.
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
//!   evaluated exactly once per sweep, whatever the thread count: the
//!   full/memo split, like every [`SweepStats`] counter, is a function of
//!   the space alone. Configurations that differ in sizing as well are
//!   timing twins: each has its own throughput analysis and cost, but the
//!   session runs their shared Petri screen once, so a sweep screens each
//!   untimed structure once. Passing an external session to
//!   [`explore_with_session`] extends the sharing across sweeps: a warm
//!   session serves every previously-analysed structure from cache.
//!
//! Every configuration is evaluated exactly, and memoization returns
//! bit-identical structural results, so the fronts equal those of
//! evaluating every configuration on its own, each in a fresh session
//! (asserted against exactly that oracle in
//! `tests/driver_equivalence.rs`).

use crate::eval::evaluate_structural;
use crate::pareto::{pareto_front_indices, Objectives};
use crate::space::{Config, DesignSpace, Hardware};
use rap_obs::{CounterSnapshot, Meter, Obs};
use rap_session::{CompiledModel, Session};
use rap_silicon::cost::CostModel;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
    /// Whether this evaluation was served from the session cache: another
    /// configuration of the sweep, an earlier sweep over the same session,
    /// or the session's store had already analysed the same structure.
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
    /// Always 0: the driver evaluates every configuration. Kept because
    /// the benchmark reads it.
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
            pruned: 0,
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
    /// Every configuration's evaluation but those that errored or
    /// panicked, sorted by (workload, label).
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

struct Shared<'a> {
    space: &'a DesignSpace,
    cost: &'a CostModel,
    cfg: &'a DseConfig,
    session: &'a Session,
    /// The enumerated configurations in structure groups (see
    /// [`structure_groups`]).
    groups: Vec<Vec<Config>>,
    /// The index of the next group a worker takes. `Relaxed` suffices:
    /// the cursor publishes no data (the groups are frozen before the
    /// workers start, and results come back through the join), and each
    /// `fetch_add` hands out its index exactly once.
    next: AtomicUsize,
    /// Sweep counters, mirrored into the session's collector (if any).
    /// Observation-only: never consulted by memoization or scheduling, so
    /// a live collector cannot perturb the fronts.
    meter: Meter,
    /// The session's recorder handle: per-candidate `dse.eval` spans and
    /// provenance events.
    obs: Obs,
}

impl Shared<'_> {
    fn run_worker(&self, out: &mut Vec<Evaluation>) {
        while let Some(group) = self.groups.get(self.next.fetch_add(1, Ordering::Relaxed)) {
            for &config in group {
                // panic isolation: a panicking evaluation poisons only its
                // own result (the point is recorded in `panics` and missing
                // from the sweep), the worker and the rest of the batch
                // continue. The session's slots only hold locks around
                // plain inserts, so a panic inside an evaluation cannot
                // poison them mid-update.
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
        let built = self.obs.time("dse.build", || config.build_with_rotation());
        let (dfs, way_rotation) = match built {
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
        Some(Evaluation {
            config,
            label: config.label(),
            objectives: eval.objectives(self.cost, config.voltage),
            period_units: eval.period_units,
            phases: eval.phases,
            check_truncated: eval.check_truncated,
            check_violated: eval.check_violated,
            memoized: !ran_here,
        })
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
/// session performs **zero** new structural analyses — only model
/// construction and the Pareto assembly are repeated — which is what the
/// recorded `BENCH_dse.json` cold/warm split measures.
///
/// The sweep records into the session's recorder
/// ([`Session::recorder`]): a `dse.sweep` span under the span the calling
/// thread has open (a caller's pass span, say), which every worker enters,
/// a `dse.eval` span per candidate, with its model construction in a
/// `dse.build` span and its session queries nested inside, a provenance
/// event per candidate (`dse.full` / `dse.memo` / `dse.error`, labelled
/// with the configuration and its structural hash), and the `dse.*`
/// counters of [`SweepStats`], mirrored live. Recording is
/// observation-only — it is never consulted by memoization or scheduling
/// — so the emitted evaluations and fronts are bit-identical to an
/// untraced run.
#[must_use]
pub fn explore_with_session(
    space: &DesignSpace,
    cost: &CostModel,
    cfg: &DseConfig,
    session: &Session,
) -> DseOutcome {
    let obs = session.recorder();
    let sweep_span = obs.span("dse.sweep");
    let tasks = space.enumerate();
    let enumerated = tasks.len();
    let groups = structure_groups(tasks);
    let threads = cfg.threads.max(1).min(groups.len().max(1));
    let meter = Meter::with_obs(obs.clone());
    meter.add("dse.enumerated", enumerated as u64);
    let shared = Shared {
        space,
        cost,
        cfg,
        session,
        groups,
        next: AtomicUsize::new(0),
        meter,
        obs: obs.clone(),
    };

    let mut evaluations: Vec<Evaluation> = Vec::new();
    let sweep = sweep_span.id();
    for result in rap_pool::run_workers(threads, |_| {
        // a worker thread nests its `dse.eval` spans under the sweep span
        let _sweep = obs.enter(sweep);
        let mut out = Vec::new();
        shared.run_worker(&mut out);
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

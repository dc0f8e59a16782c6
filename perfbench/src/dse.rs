//! The `dse_cold` workload: the designer's "which pipeline should I
//! build" question over sub-spaces of the paper axes, asked from nothing.
//!
//! Each request sweeps its sub-space through a fresh store-backed
//! `Session` on an empty directory: the budgeted Petri screen does most
//! of the work, and every evaluated structure goes down the store's
//! write path.

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Workload;
use dfs_core::perf::mcr::maximum_cycle_ratio;
use dfs_core::perf::{howard::howard_mcr, unfold::unfold, EventGraph};
use dfs_core::timed::{measure_steady_period, ChoicePolicy};
use dfs_core::{to_petri, Dfs, NodeKind};
use rap_dse::{
    explore_with_session, naive_front_indices, pareto_front_indices, Config, DesignSpace,
    DseConfig, DseOutcome, Evaluation, Hardware,
};
use rap_petri::analysis::quick_check;
use rap_petri::reachability::{explore_truncated, ExploreConfig};
use rap_session::store::{ArtifactKey, QueryKind};
use rap_session::{CostModel, Session, Store};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The paper's hardware candidates: static, reconfigurable with and
/// without the shared control loop, and 1–3-way wagged replication, all
/// serving window demands up to 6.
pub const HARDWARE: [Hardware; 6] = [
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
];
/// Demanded window depths of the paper axes: `1..=DEMANDS`.
pub const DEMANDS: usize = 6;
/// Datapath sizing grid of the paper axes.
pub const SIZINGS: [f64; 4] = [0.75, 1.0, 1.5, 2.0];
/// Supply grid of the paper axes (V).
pub const VOLTAGES: [f64; 4] = [0.7, 0.9, 1.2, 1.6];

/// Requests per round of the generator.
const ROUND: usize = 12;

/// The seeded request sequence.
///
/// Requests come in rounds of twelve sub-spaces. Every round asks about
/// each hardware candidate twice: once alone (two demands for the
/// reconfigurable families, three for the others, one sizing, two
/// voltages) and once paired with the candidate three places further
/// along [`HARDWARE`] (one demand, two sizings, one voltage). The seed
/// draws the order within the round and which demands, sizings and
/// voltages each request names. So every run meets the same mix of model
/// families and sub-space sizes, which keeps the latency percentiles of
/// one run comparable with those of another seed.
pub fn requests(seed: u64, rounds: usize) -> Vec<DesignSpace> {
    let mut rng = Rng::new(seed, 0xD5E);
    let mut out = Vec::with_capacity(rounds * ROUND);
    for _ in 0..rounds {
        let mut slots: Vec<(usize, bool)> = (0..HARDWARE.len())
            .flat_map(|h| [(h, false), (h, true)])
            .collect();
        rng.shuffle(&mut slots);
        for (h, paired) in slots {
            let reconf = matches!(HARDWARE[h], Hardware::Reconfigurable { .. });
            let (hardware, demands, sizings, voltages) = if paired {
                let mut pair = vec![h, (h + 3) % HARDWARE.len()];
                pair.sort_unstable();
                (pair, 1, 2, 1)
            } else {
                (vec![h], if reconf { 2 } else { 3 }, 1, 2)
            };
            out.push(DesignSpace {
                hardware: hardware.into_iter().map(|i| HARDWARE[i]).collect(),
                workloads: rng
                    .subset(DEMANDS, demands)
                    .into_iter()
                    .map(|d| d + 1)
                    .collect(),
                sizings: rng
                    .subset(SIZINGS.len(), sizings)
                    .into_iter()
                    .map(|i| SIZINGS[i])
                    .collect(),
                voltages: rng
                    .subset(VOLTAGES.len(), voltages)
                    .into_iter()
                    .map(|i| VOLTAGES[i])
                    .collect(),
                delays: rap_ope::dfs_model::ope_stage_delays(),
            });
        }
    }
    out
}

/// What one DSE request returns.
pub struct DseOut {
    outcome: DseOutcome,
    /// The request's own store directory.
    dir: PathBuf,
}

pub struct Dse {
    requests: Vec<DesignSpace>,
    cost: CostModel,
    cfg: DseConfig,
    /// Scratch directory of this run.
    dir: PathBuf,
    /// Reference periods from the timed simulator, per structure.
    reference: HashMap<(String, usize, u64), f64>,
}

/// Rounds of requests generated up front, more than a run sends; a run
/// cycles through them.
const ROUNDS: usize = 64;
/// Set-ups per timed slice (a set-up takes about 0.2 ms).
pub const SETUP_SLICE: usize = 100;

impl Dse {
    pub fn setup(seed: u64, dir: &Path) -> Result<Dse, String> {
        Ok(Dse {
            requests: requests(seed, ROUNDS),
            cost: CostModel::default(),
            cfg: DseConfig::default(),
            dir: dir.to_path_buf(),
            reference: HashMap::new(),
        })
    }

    /// The timed simulator's steady-state period of `config`'s structure.
    fn reference_period(&mut self, config: &Config) -> Result<f64, String> {
        let key = (
            config.hardware.label(),
            config.operating_depth(),
            config.sizing.to_bits(),
        );
        if let Some(&p) = self.reference.get(&key) {
            return Ok(p);
        }
        let dfs = config.build().map_err(|e| e.to_string())?;
        let out = dfs
            .node_by_name("out")
            .ok_or("model has no `out` register")?;
        let p = measure_steady_period(&dfs, out, 200, ChoicePolicy::AlwaysTrue)
            .map_err(|e| format!("{}: simulator: {e}", config.label()))?
            .period;
        self.reference.insert(key, p);
        Ok(p)
    }
}

/// The frames a full evaluation leaves in the request's store: the
/// throughput detail, the budgeted screen and the cost summary, under the
/// keys `rap-session` files them by. Should that filing change, the
/// replay fails with "frame missing" rather than timing the wrong frames.
fn frame_keys(structural: u64, identity: u64, budget: usize, cost: &CostModel) -> [ArtifactKey; 3] {
    let key = |kind, subkey| ArtifactKey {
        structural,
        identity,
        kind,
        subkey,
    };
    [
        key(QueryKind::Perf, 0),
        key(QueryKind::Check, budget as u64),
        key(QueryKind::Cost, cost.cache_key()),
    ]
}

fn is_choice_free(dfs: &Dfs) -> bool {
    dfs.nodes()
        .all(|n| matches!(dfs.kind(n), NodeKind::Logic | NodeKind::Register))
}

/// Replays the throughput layer on one model, as `perf::analyse` runs
/// it: the event graph (direct, or phase-unfolded for models with
/// choice), the MCR, and Howard's solver as an off-path reference.
/// Returns the period and the per-node activity.
fn replay_perf(dfs: &Dfs, key: &str, tr: &mut Tracer) -> Result<(f64, Vec<f64>), String> {
    let choice_free = is_choice_free(dfs);
    let (graph, items) = tr
        .time("core.unfold", || {
            if choice_free {
                Ok((EventGraph::build(dfs), 1))
            } else {
                unfold(dfs).map(|u| (u.graph, u.items_per_period))
            }
        })
        .map_err(|e| e.to_string())?;
    tr.pin(format!("{key}/core.unfold.phases"), u64::from(items));
    tr.pin(
        format!("{key}/core.unfold.vertices"),
        graph.vertices.len() as u64,
    );
    tr.pin(format!("{key}/core.mcr.arcs"), graph.arcs.len() as u64);
    tr.add("core.unfold.phases", f64::from(items));
    tr.add("core.unfold.vertices", graph.vertices.len() as f64);
    tr.add("core.mcr.arcs", graph.arcs.len() as f64);
    let sol = tr
        .time("core.mcr", || maximum_cycle_ratio(&graph))
        .map_err(|e| e.to_string())?;
    tr.time("core.howard", || howard_mcr(&graph))
        .map_err(|e| e.to_string())?;
    let items = f64::from(items.max(1));
    let activity = if choice_free {
        vec![1.0; dfs.node_count()]
    } else {
        let mut a = vec![0.0; dfs.node_count()];
        for v in graph.vertices.iter().filter(|v| v.plus) {
            a[v.node.index()] += 1.0 / items;
        }
        a
    };
    Ok((sol.ratio / items, activity))
}

/// Replays the budgeted Petri screen: translation, the exploration on its
/// own, then the whole `quick_check` on the same net and budget (its time
/// minus the exploration's is the verdict pass).
pub fn replay_screen(dfs: &Dfs, key: &str, budget: usize, tr: &mut Tracer) -> Result<(), String> {
    let img = tr.time("core.to_petri", || to_petri(dfs));
    tr.pin(
        format!("{key}/core.to_petri.places"),
        img.net.place_count() as u64,
    );
    tr.add("core.to_petri.places", img.net.place_count() as f64);
    let cfg = ExploreConfig {
        max_states: budget,
        ..ExploreConfig::default()
    };
    let space = tr.time("petri.explore", || explore_truncated(&img.net, cfg));
    let rechecked = space
        .states()
        .filter(|&s| space.successors(s).is_empty())
        .count();
    tr.pin(format!("{key}/petri.explore.states"), space.len() as u64);
    tr.pin(format!("{key}/petri.verdict.rechecked"), rechecked as u64);
    tr.add("petri.explore.states", space.len() as f64);
    tr.add("petri.verdict.rechecked", rechecked as f64);
    let states = space.len();
    drop(space);
    let qc = tr.time("petri.quick_check", || {
        quick_check(&img.net, &img.complementary_pairs(), budget)
    });
    if qc.states != states {
        return Err(format!(
            "{key}: quick_check explored {} states, the exploration {states}",
            qc.states
        ));
    }
    Ok(())
}

impl Workload for Dse {
    type Req = usize;
    type Out = DseOut;

    fn name(&self) -> &'static str {
        "dse_cold"
    }

    fn request(&self, i: usize) -> usize {
        i % self.requests.len()
    }

    fn round(&self) -> usize {
        ROUND
    }

    fn run(&self, &r: &usize, i: usize) -> Result<DseOut, String> {
        let dir = self.dir.join(format!("cold-{i}"));
        let session = Session::open(&dir).map_err(|e| e.to_string())?;
        let outcome = explore_with_session(&self.requests[r], &self.cost, &self.cfg, &session);
        drop(session);
        Ok(DseOut { outcome, dir })
    }

    fn release(&self, out: &DseOut) {
        let _ = std::fs::remove_dir_all(&out.dir);
    }

    fn work(&self, _req: &usize, out: &DseOut) -> f64 {
        out.outcome.stats.enumerated as f64
    }

    fn screens(&self, out: &DseOut) -> (usize, usize) {
        let full: Vec<&Evaluation> = out
            .outcome
            .evaluations
            .iter()
            .filter(|e| !e.memoized)
            .collect();
        let decided = full
            .iter()
            .filter(|e| !e.check_truncated || e.check_violated)
            .count();
        (full.len(), decided)
    }

    fn check(&mut self, &r: &usize, out: &DseOut) -> Result<(), String> {
        let space = self.requests[r].clone();
        let o = &out.outcome;
        let s = o.stats;
        if s.errors + s.panics != 0 {
            return Err(format!("sweep errors: {s:?}"));
        }
        if s.full_evaluations + s.memo_hits + s.pruned != s.enumerated
            || s.enumerated != space.enumerate().len()
        {
            return Err(format!("work accounting broken: {s:?}"));
        }
        if s.full_evaluations == 0 {
            return Err("a cold sweep evaluated nothing".into());
        }
        for e in &o.evaluations {
            if e.check_violated {
                return Err(format!("{}: screen reports a violation", e.label));
            }
            let want = self.reference_period(&e.config)?;
            if (e.period_units - want).abs() > 1e-9 * want {
                return Err(format!(
                    "{}: period {} but the simulator says {want}",
                    e.label, e.period_units
                ));
            }
            let paper_point = e.config.hardware
                == (Hardware::Reconfigurable {
                    stages: 6,
                    share_ctrl: true,
                })
                && e.config.workload == 4
                && e.config.sizing == 1.0;
            if paper_point && (e.period_units - 19.0).abs() > 1e-9 {
                return Err(format!("OPE(6,4) period {} is not 19", e.period_units));
            }
        }
        for &w in &space.workloads {
            let class: Vec<&Evaluation> = o
                .evaluations
                .iter()
                .filter(|e| e.config.workload == w && !e.check_violated)
                .collect();
            let want: Vec<&str> = naive_front_indices(&class, |e| e.objectives)
                .into_iter()
                .map(|i| class[i].label.as_str())
                .collect();
            let got: Vec<&str> = o.front(w).iter().map(|e| e.label.as_str()).collect();
            if want != got {
                return Err(format!("demand {w}: front {got:?}, reference {want:?}"));
            }
        }
        Ok(())
    }

    fn replay(
        &self,
        &r: &usize,
        out: &DseOut,
        wall_ms: f64,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let space = &self.requests[r];
        let o = &out.outcome;
        let budget = self.cfg.check_budget;
        tr.add("dse.requests", 1.0);
        tr.add("dse.request_wall_ms", wall_ms);
        tr.add("dse.configs", o.stats.enumerated as f64);
        tr.add("dse.full", o.stats.full_evaluations as f64);
        tr.add("dse.memo", o.stats.memo_hits as f64);
        tr.add("dse.pruned", o.stats.pruned as f64);
        let front_full: usize = o.fronts.values().flatten().filter(|e| !e.memoized).count();
        tr.add("dse.front_full", front_full as f64);
        tr.pin(
            format!("request {r}/dse.configs"),
            o.stats.enumerated as u64,
        );
        // the replay writes the request's frames again, into a store of its
        // own opened outside the spans
        let replay_dir = self.dir.join("replay-store");
        let _ = std::fs::remove_dir_all(&replay_dir);
        let store = Store::open(&replay_dir).map_err(|e| e.to_string())?;

        let root = tr.open("request");
        // 1. every configuration's build and compile
        let session = Session::new();
        let mut models: BTreeMap<String, Arc<rap_session::CompiledModel>> = BTreeMap::new();
        for config in space.enumerate() {
            let dfs = tr
                .time("model.build", || config.build())
                .map_err(|e| e.to_string())?;
            tr.add("model.build.calls", 1.0);
            tr.time("core.hash", || std::hint::black_box(dfs.structural_hash()));
            let model = tr.time("session.compile", || session.compile(&dfs));
            models.insert(config.label(), model);
        }
        let stats = session.stats();
        tr.add("session.compiles", stats.compiles as f64);
        tr.add("session.compile_hits", stats.compile_hits as f64);

        // 2. every fully evaluated structure: screen, throughput, cost, and
        // its frames, read from the request's own store and written again
        let source = tr
            .time("store.open", || Store::open(&out.dir))
            .map_err(|e| e.to_string())?;
        for e in o.evaluations.iter().filter(|e| !e.memoized) {
            let model = &models[&e.label];
            let ids = (model.structural_hash(), model.identity_digest());
            let dfs = model.dfs();
            let key = format!("{:016x}{:016x}", ids.0, ids.1);
            replay_screen(dfs, &key, budget, tr)?;
            let (period, activity) = replay_perf(dfs, &key, tr)?;
            if period.to_bits() != e.period_units.to_bits() {
                return Err(format!(
                    "{}: replayed period {period} differs from the sweep's {}",
                    e.label, e.period_units
                ));
            }
            tr.time("silicon.cost", || {
                std::hint::black_box((
                    self.cost.area(dfs),
                    self.cost.switched_ge_per_item(dfs, &activity),
                ))
            });
            for key in &frame_keys(ids.0, ids.1, budget, &self.cost) {
                let payload = tr.time("store.load", || source.load(key)).ok_or_else(|| {
                    format!("{}: frame missing from the request's store", e.label)
                })?;
                if tr.time("store.save", || store.save(key, &payload)) {
                    tr.add("store.frames_written", 1.0);
                }
            }
        }
        // 3. the fronts
        for &w in &space.workloads {
            let class: Vec<&Evaluation> = o
                .evaluations
                .iter()
                .filter(|e| e.config.workload == w && !e.check_violated)
                .collect();
            tr.time("dse.pareto", || {
                std::hint::black_box(pareto_front_indices(&class, |e| e.objectives))
            });
        }
        tr.close(root);
        let (read, written) = (source.stats(), store.stats());
        drop((source, store));
        let _ = std::fs::remove_dir_all(&replay_dir);
        tr.add("store.frames_read", read.disk_hits as f64);
        tr.add("store.loads", (read.disk_hits + read.disk_misses) as f64);
        tr.add("store.bytes_read", read.bytes_read as f64);
        tr.add("store.bytes_written", written.bytes_written as f64);
        Ok(())
    }
}

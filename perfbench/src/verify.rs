//! The `verify` workload: exhaustive checks at the default 2M-state
//! budget on the paper's shapes whose full space fits it.
//!
//! The same engine and verdict pass as the DSE screen, used the other
//! way round: a few exhaustive explorations, from cache-resident spaces
//! up to the 1.48M-state two-way wagging, instead of many small
//! truncated ones. The one workload where the peak resident set is the
//! engine's state arena.

use crate::dse::replay_screen;
use crate::rng::Rng;
use crate::trace::Tracer;
use crate::Workload;
use dfs_core::pipelines::{build_pipeline, PipelineSpec};
use dfs_core::wagging::wagged_pipeline;
use dfs_core::{to_petri, Dfs, Lts};
use rap_petri::analysis::{quick_check_quotient, QuickVerdict};
use rap_petri::reachability::{explore_quotient_truncated, ExploreConfig};
use rap_session::Session;

/// How a request checks its model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// `CompiledModel::quick_check`: Petri reachability plus verdicts.
    Check,
    /// `CompiledModel::lts`: the direct-semantics state space.
    Lts,
    /// `quick_check_quotient` under the way rotation.
    Quotient,
}

struct Shape {
    name: &'static str,
    dfs: Dfs,
    rotation: Option<Vec<u32>>,
    /// Reachable states of the full space, pinned.
    states: usize,
    /// Orbit representatives under the way rotation, pinned.
    quotient_states: Option<usize>,
}

fn reconfigurable(
    name: &'static str,
    n: usize,
    depth: usize,
    states: usize,
) -> Result<Shape, String> {
    let spec = PipelineSpec::reconfigurable_depth(n, depth).map_err(|e| e.to_string())?;
    Ok(Shape {
        name,
        dfs: build_pipeline(&spec).map_err(|e| e.to_string())?.dfs,
        rotation: None,
        states,
        quotient_states: None,
    })
}

fn wagging(name: &'static str, ways: usize, depth: usize, states: usize) -> Result<Shape, String> {
    let w = wagged_pipeline(ways, depth, 1.0).map_err(|e| e.to_string())?;
    Ok(Shape {
        name,
        dfs: w.dfs,
        rotation: (ways > 1).then_some(w.way_rotation),
        states,
        quotient_states: (ways == 2).then_some(states / 2),
    })
}

/// One round of requests: (shape index, how many times per round). The
/// small shapes come often and the large ones once, so a run of a few
/// seconds holds enough requests for a p90, the median falls among the
/// 26k-state wagging checks and the p90 among the 239k-state ones.
const ROUND: [(usize, usize); 8] = [
    (0, 6), // fully_static(4)
    (1, 6), // wagged_pipeline(1,1)
    (2, 6), // wagged_pipeline(1,2)
    (3, 4), // reconfigurable_depth(3,1)
    (4, 2), // reconfigurable_depth(3,3)
    (5, 4), // reconfigurable_depth(3,2)
    (6, 1), // reconfigurable_depth(4,1)
    (7, 1), // wagged_pipeline(2,1)
];

pub struct VerifyOut {
    states: usize,
    deadlock_free: QuickVerdict,
    /// `None` on the LTS path, which has no 1-safety verdict.
    safe: Option<QuickVerdict>,
}

pub struct Verify {
    shapes: Vec<Shape>,
    requests: Vec<(usize, Path)>,
    budget: usize,
}

/// Rounds of requests generated up front; a run cycles through them.
const ROUNDS: usize = 64;
/// Set-ups per timed slice (a set-up takes about 0.2 ms).
pub const SETUP_SLICE: usize = 100;

impl Verify {
    pub fn setup(seed: u64, _dir: &std::path::Path) -> Result<Verify, String> {
        let static4 = build_pipeline(&PipelineSpec::fully_static(4)).map_err(|e| e.to_string())?;
        let shapes = vec![
            Shape {
                name: "fully_static(4)",
                dfs: static4.dfs,
                rotation: None,
                states: 10_658,
                quotient_states: None,
            },
            wagging("wagged_pipeline(1,1)", 1, 1, 11_160)?,
            wagging("wagged_pipeline(1,2)", 1, 2, 26_136)?,
            reconfigurable("reconfigurable_depth(3,1)", 3, 1, 34_704)?,
            reconfigurable("reconfigurable_depth(3,3)", 3, 3, 173_340)?,
            reconfigurable("reconfigurable_depth(3,2)", 3, 2, 238_896)?,
            reconfigurable("reconfigurable_depth(4,1)", 4, 1, 1_001_376)?,
            wagging("wagged_pipeline(2,1)", 2, 1, 1_476_774)?,
        ];
        Ok(Verify {
            shapes,
            requests: requests(seed),
            budget: ExploreConfig::default().max_states,
        })
    }
}

/// The seeded request sequence: every round holds [`ROUND`]'s shapes,
/// in an order the seed draws. Shapes sent several times per round
/// alternate between the Petri and the LTS path; the two large shapes
/// take one path per round, cycling from a phase the seed draws (the
/// two-way wagging cycles through all three paths).
fn requests(seed: u64) -> Vec<(usize, Path)> {
    let mut rng = Rng::new(seed, 0x7E1F);
    let phase = rng.below(6);
    let mut out = Vec::new();
    for round in 0..ROUNDS {
        let mut batch = Vec::new();
        for &(shape, times) in &ROUND {
            for k in 0..times {
                let path = match shape {
                    6 => [Path::Check, Path::Lts][(round + phase) % 2],
                    7 => [Path::Check, Path::Lts, Path::Quotient][(round + phase) % 3],
                    _ if k % 2 == 0 => Path::Check,
                    _ => Path::Lts,
                };
                batch.push((shape, path));
            }
        }
        rng.shuffle(&mut batch);
        out.extend(batch);
    }
    out
}

fn verdict_of(deadlock_free: bool) -> QuickVerdict {
    if deadlock_free {
        QuickVerdict::Holds
    } else {
        QuickVerdict::Violated
    }
}

impl Workload for Verify {
    type Req = (usize, Path);
    type Out = VerifyOut;

    fn name(&self) -> &'static str {
        "verify"
    }

    fn request(&self, i: usize) -> (usize, Path) {
        self.requests[i % self.requests.len()]
    }

    fn round(&self) -> usize {
        ROUND.iter().map(|&(_, n)| n).sum()
    }

    fn run(&self, &(s, path): &(usize, Path), _i: usize) -> Result<VerifyOut, String> {
        let shape = &self.shapes[s];
        let session = Session::new();
        let model = session.compile(&shape.dfs);
        Ok(match path {
            Path::Check => {
                let qc = model.quick_check(self.budget);
                VerifyOut {
                    states: qc.states,
                    deadlock_free: qc.deadlock_free,
                    safe: Some(qc.safe),
                }
            }
            Path::Lts => {
                let lts = model.lts(self.budget).map_err(|e| e.to_string())?;
                VerifyOut {
                    states: lts.len(),
                    deadlock_free: verdict_of(lts.deadlocks().is_empty()),
                    safe: None,
                }
            }
            Path::Quotient => {
                let img = model.petri();
                let rotation = shape.rotation.as_ref().ok_or("no way rotation")?;
                let sym = img.induced_symmetry(rotation)?;
                let qc =
                    quick_check_quotient(&img.net, &img.complementary_pairs(), self.budget, &sym);
                VerifyOut {
                    states: qc.states,
                    deadlock_free: qc.deadlock_free,
                    safe: Some(qc.safe),
                }
            }
        })
    }

    fn work(&self, &(s, _): &(usize, Path), _out: &VerifyOut) -> f64 {
        self.shapes[s].states as f64
    }

    fn screens(&self, out: &VerifyOut) -> (usize, usize) {
        match out.safe {
            None => (0, 0),
            Some(safe) => {
                let decided = |v| !matches!(v, QuickVerdict::Inconclusive { .. });
                (1, usize::from(decided(out.deadlock_free) && decided(safe)))
            }
        }
    }

    fn check(&mut self, &(s, path): &(usize, Path), out: &VerifyOut) -> Result<(), String> {
        let shape = &self.shapes[s];
        let want = match path {
            Path::Quotient => shape.quotient_states.ok_or("no pinned quotient")?,
            _ => shape.states,
        };
        if out.states != want {
            return Err(format!(
                "{} via {path:?}: {} states, pinned {want}",
                shape.name, out.states
            ));
        }
        if out.deadlock_free != QuickVerdict::Holds
            || out.safe.is_some_and(|v| v != QuickVerdict::Holds)
        {
            return Err(format!(
                "{} via {path:?}: deadlock {:?}, safety {:?}",
                shape.name, out.deadlock_free, out.safe
            ));
        }
        Ok(())
    }

    fn replay(
        &self,
        &(s, path): &(usize, Path),
        _out: &VerifyOut,
        _wall_ms: f64,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let shape = &self.shapes[s];
        let dfs = &shape.dfs;
        let key = shape.name;
        let root = tr.open("request");
        tr.time("core.hash", || std::hint::black_box(dfs.structural_hash()));
        let session = Session::new();
        tr.time("session.compile", || session.compile(dfs));
        let stats = session.stats();
        tr.add("session.compiles", stats.compiles as f64);
        tr.add("session.compile_hits", stats.compile_hits as f64);
        match path {
            Path::Check => replay_screen(dfs, key, self.budget, tr)?,
            Path::Lts => {
                let lts = tr
                    .time("core.lts", || Lts::explore(dfs, self.budget))
                    .map_err(|e| e.to_string())?;
                tr.pin(format!("{key}/core.lts.states"), lts.len() as u64);
                tr.add("core.lts.states", lts.len() as f64);
            }
            Path::Quotient => {
                let img = tr.time("core.to_petri", || to_petri(dfs));
                tr.add("core.to_petri.places", img.net.place_count() as f64);
                let rotation = shape.rotation.as_ref().ok_or("no way rotation")?;
                let sym = img.induced_symmetry(rotation)?;
                let cfg = ExploreConfig {
                    max_states: self.budget,
                    ..ExploreConfig::default()
                };
                let ssym = sym.state_symmetry();
                let space = tr.time("petri.quotient", || {
                    explore_quotient_truncated(&img.net, cfg, &ssym)
                });
                let rechecked = space
                    .states()
                    .filter(|&st| space.successors(st).is_empty())
                    .count();
                tr.pin(format!("{key}/petri.quotient.states"), space.len() as u64);
                tr.pin(format!("{key}/petri.quotient.rechecked"), rechecked as u64);
                tr.add("petri.quotient.states", space.len() as f64);
                tr.add("petri.verdict.rechecked", rechecked as f64);
                drop(space);
                tr.time("petri.quick_check_quotient", || {
                    quick_check_quotient(&img.net, &img.complementary_pairs(), self.budget, &sym)
                });
            }
        }
        tr.close(root);
        Ok(())
    }
}

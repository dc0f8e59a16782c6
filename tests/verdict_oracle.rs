//! The one check against the passes it replaced.
//!
//! `rap_petri::analysis::check` decides deadlock-freedom, 1-safety,
//! unreachable markings and persistence during its one exploration. The
//! oracles below are the former post-hoc passes, kept here as test-only
//! references over the public API: the former verdict pass (every state
//! without recorded successors re-checked against the net for enabled
//! transitions, then every state scanned for a broken pair), the former
//! persistence pass (each state's listed actions fired again from its
//! bits), the former control-mismatch scan (a Reach predicate searched
//! over every state), and the former `verify`, which explored and then ran
//! those passes. They must agree with the check on every field — state
//! count, truncation, every verdict and every witness:
//!
//! * `quick_check` and `quick_check_quotient` on random nets (whose random
//!   pairs mostly fail the certificate and take the scan), on random paper
//!   pipelines and wagged shapes (whose pairs certify), under tiny budgets
//!   and in quotient mode;
//! * `check` with random pairs, random unreachable sets and a random
//!   exemption, on random nets and on two swapped copies of one (full and
//!   quotient) at every budget; on stubborn and truncated runs, where the
//!   passes saw less, every violation it reports must replay;
//! * `verify` on random paper pipelines and on mutants whose control
//!   registers start with random values.

use proptest::prelude::*;
use rap::dfs::pipelines::{build_pipeline, PipelineSpec};
use rap::dfs::verify::{verify, Counterexample, VerificationReport, VerifyConfig};
use rap::dfs::wagging::wagged_pipeline;
use rap::dfs::{
    to_petri, Dfs, DfsBuilder, DfsError, GuardMode, NodeId, PetriImage, RRef, TokenValue,
};
use rap::petri::analysis::{
    check, check_complementary_pairs, quick_check, quick_check_quotient, CheckReport, Deadlock,
    PersistenceViolation, Properties, QuickCheck, QuickVerdict,
};
use rap::petri::engine::Incidence;
use rap::petri::reachability::{
    explore, explore_quotient_truncated, explore_truncated, ExploreConfig, StateSpace,
};
use rap::petri::symmetry::Symmetry;
use rap::petri::{Marking, PetriNet, PlaceId, TransitionId};
use rap::reach::{Expr, NameRef, Predicate};

/// Budgets from "stops inside the first expansion" up to exhaustive for
/// the small inputs.
const BUDGETS: [usize; 6] = [1, 2, 7, 40, 500, 3_000];

/// The dead-state scan of the former verdict pass of `quick_check`, over
/// the public API, collecting every dead state: each explored state
/// without recorded successors, re-checked against the net.
fn posthoc_deadlocks(net: &PetriNet, space: &StateSpace) -> Vec<Deadlock> {
    let mut deadlocks = Vec::new();
    let mut marking = Marking::empty(net.place_count());
    let mut enabled = Vec::new();
    for s in space.states() {
        if !space.successors(s).is_empty() {
            continue;
        }
        space.fill_marking(s, &mut marking);
        net.enabled_transitions_into(&marking, &mut enabled);
        if enabled.is_empty() {
            deadlocks.push(Deadlock {
                state: s,
                marking: space.concrete_marking(s),
                trace: space.concrete_trace_to(s),
            });
        }
    }
    deadlocks
}

/// The former verdict pass of `quick_check`, verbatim over the public API.
fn posthoc_verdicts(
    net: &PetriNet,
    space: &StateSpace,
    pairs: &[(PlaceId, PlaceId)],
    max_states: usize,
) -> QuickCheck {
    let truncated = space.is_truncated();
    let deadlock = posthoc_deadlocks(net, space).into_iter().next();
    let verdict = |violated: bool| match (violated, truncated) {
        (true, _) => QuickVerdict::Violated,
        (false, false) => QuickVerdict::Holds,
        (false, true) => QuickVerdict::Inconclusive { budget: max_states },
    };
    let unsafe_witness = check_complementary_pairs(space, pairs);
    QuickCheck {
        states: space.len(),
        truncated,
        deadlock_free: verdict(deadlock.is_some()),
        deadlock,
        safe: verdict(unsafe_witness.is_some()),
        unsafe_witness,
    }
}

fn cfg(max_states: usize) -> ExploreConfig {
    ExploreConfig {
        max_states,
        ..ExploreConfig::default()
    }
}

fn assert_matches_oracle(
    net: &PetriNet,
    pairs: &[(PlaceId, PlaceId)],
    budget: usize,
) -> Result<(), TestCaseError> {
    let want = posthoc_verdicts(net, &explore_truncated(net, cfg(budget)), pairs, budget);
    prop_assert_eq!(quick_check(net, pairs, budget), want, "budget={}", budget);
    Ok(())
}

fn assert_quotient_matches_oracle(
    net: &PetriNet,
    pairs: &[(PlaceId, PlaceId)],
    budget: usize,
    sym: &Symmetry,
) -> Result<(), TestCaseError> {
    let space = explore_quotient_truncated(net, cfg(budget), &sym.state_symmetry());
    let want = posthoc_verdicts(net, &space, pairs, budget);
    prop_assert_eq!(
        quick_check_quotient(net, pairs, budget, sym),
        want,
        "quotient budget={}",
        budget
    );
    Ok(())
}

/// Random net over `np` places and `nt` transitions with small arc lists.
fn arb_net(np: usize, nt: usize) -> impl Strategy<Value = PetriNet> {
    let place_marks = proptest::collection::vec(any::<bool>(), np);
    let arcs = proptest::collection::vec(
        (
            proptest::collection::vec(0..np, 0..3), // consumes
            proptest::collection::vec(0..np, 0..3), // produces
            proptest::collection::vec(0..np, 0..2), // reads
        ),
        nt,
    );
    (place_marks, arcs).prop_map(move |(marks, arcs)| {
        let mut net = PetriNet::new();
        let places: Vec<PlaceId> = marks
            .iter()
            .enumerate()
            .map(|(i, &m)| net.add_place(format!("p{i}"), m))
            .collect();
        for (i, (cons, prod, reads)) in arcs.into_iter().enumerate() {
            let t = net.add_transition(format!("t{i}"));
            for c in cons {
                net.consume(t, places[c]);
            }
            for p in prod {
                net.produce(t, places[p]);
            }
            for r in reads {
                net.read(t, places[r]);
            }
        }
        net
    })
}

/// Random paper-flow pipeline: 2–3 stages, random reconfigurability pattern
/// and inclusion depth.
fn arb_pipeline() -> impl Strategy<Value = Dfs> {
    (
        2usize..=3,
        proptest::collection::vec(any::<bool>(), 3),
        0usize..=3,
    )
        .prop_map(|(stages, reconf, depth)| {
            let mut spec =
                PipelineSpec::reconfigurable_depth(stages, depth.clamp(1, stages)).unwrap();
            for (i, flag) in reconf.iter().take(stages).enumerate().skip(1) {
                spec.reconfigurable[i] = *flag;
            }
            build_pipeline(&spec).expect("spec builds").dfs
        })
}

/// `copies` copies of the read-produce net `y_0 --read--> oops --> y_1`,
/// whose pair `(y_0, y_1)` fails the certificate (firing `oops` marks
/// both), with the rotation of the copies and the closed pair set.
fn oops_copies(copies: usize) -> (PetriNet, Vec<(PlaceId, PlaceId)>, Symmetry) {
    let mut net = PetriNet::new();
    let mut pairs = Vec::new();
    for c in 0..copies {
        let y0 = net.add_place(format!("y{c}_0"), true);
        let y1 = net.add_place(format!("y{c}_1"), false);
        let t = net.add_transition(format!("oops{c}"));
        net.read(t, y0);
        net.produce(t, y1);
        pairs.push((y0, y1));
    }
    let rotate = |n: usize| -> Vec<u32> {
        (0..copies * n)
            .map(|i| ((i + n) % (copies * n)) as u32)
            .collect()
    };
    let sym = Symmetry::new(&net, rotate(2)).expect("copy rotation");
    (net, pairs, sym)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random nets with random pairs: deadlocks inside truncated prefixes,
    /// frontier states that are not dead, and pairs that fail the
    /// certificate, so the fallback scan must find the same witness.
    #[test]
    fn random_nets_match_the_posthoc_pass(
        net in arb_net(9, 8),
        raw_pairs in proptest::collection::vec((0usize..9, 0usize..9), 0..4),
    ) {
        let pairs: Vec<(PlaceId, PlaceId)> = raw_pairs
            .into_iter()
            .map(|(a, b)| (PlaceId::from_index(a), PlaceId::from_index(b)))
            .collect();
        for budget in BUDGETS {
            assert_matches_oracle(&net, &pairs, budget)?;
        }
    }

    /// Random paper pipelines with their translation's pairs, which the
    /// certificate proves, so no scan runs.
    #[test]
    fn random_pipelines_match_the_posthoc_pass(dfs in arb_pipeline()) {
        let img = to_petri(&dfs);
        let pairs = img.complementary_pairs();
        prop_assert!(rap::petri::invariants::certify_complementary_pairs(&img.net, &pairs).is_none());
        for budget in BUDGETS {
            assert_matches_oracle(&img.net, &pairs, budget)?;
        }
    }
}

/// Wagged shapes, full and quotient under the way rotation.
#[test]
fn wagged_shapes_match_the_posthoc_pass() {
    for ways in 1usize..=3 {
        let w = wagged_pipeline(ways, 1, 1.0).unwrap();
        let img = to_petri(&w.dfs);
        let pairs = img.complementary_pairs();
        let sym = img.induced_symmetry(&w.way_rotation).unwrap();
        for budget in BUDGETS {
            assert_matches_oracle(&img.net, &pairs, budget).unwrap();
            assert_quotient_matches_oracle(&img.net, &pairs, budget, &sym).unwrap();
        }
    }
}

/// The read-produce `oops` net keeps its 1-safety witness through the
/// fallback scan, alone, in copies, and in quotient mode.
#[test]
fn uncertified_pairs_keep_their_witness() {
    for copies in 1usize..=3 {
        let (net, pairs, sym) = oops_copies(copies);
        assert!(rap::petri::invariants::certify_complementary_pairs(&net, &pairs).is_some());
        for budget in BUDGETS {
            assert_matches_oracle(&net, &pairs, budget).unwrap();
            assert_quotient_matches_oracle(&net, &pairs, budget, &sym).unwrap();
        }
        // from the second state on, the first `oops` firing is explored
        for budget in &BUDGETS[1..] {
            let qc = quick_check(&net, &pairs, *budget);
            assert_eq!(
                qc.safe,
                QuickVerdict::Violated,
                "copies={copies} budget={budget}"
            );
            assert!(qc.unsafe_witness.is_some());
        }
    }
}

// ---- the former post-passes, moved here from the library -----------------

/// The former `find_persistence_violations`, verbatim over the public API:
/// each state's listed actions (its successors, re-expanded) fired again
/// from its bits, every other listed action checked in the result, and on
/// a quotient each pair un-rotated to the concrete state before the
/// exemption sees it.
fn find_persistence_violations(
    net: &PetriNet,
    space: &StateSpace,
    mut allowed_conflicts: impl FnMut(TransitionId, TransitionId) -> bool,
) -> Vec<PersistenceViolation> {
    let inc = Incidence::from_net(net);
    let mut after = vec![0u64; space.words(space.initial()).len()];
    let mut out = Vec::new();
    for s in space.states() {
        let fired: Vec<TransitionId> = space
            .successors(s)
            .to_vec()
            .into_iter()
            .map(|(a, _)| a)
            .collect();
        if fired.len() < 2 {
            continue;
        }
        let words = space.words(s);
        // the un-rotation into the concrete frame, found on first use
        let mut rotation = None;
        for &disabler in &fired {
            inc.fire_into(disabler, words, &mut after);
            for &enabled in &fired {
                if enabled == disabler || inc.is_enabled(enabled, &after) {
                    continue;
                }
                let (enabled, disabler) = match space.symmetry() {
                    Some(sym) => {
                        let r = *rotation.get_or_insert_with(|| space.path_rotation(s));
                        let concrete = |t: TransitionId| {
                            TransitionId::from_index(
                                sym.unrotate_action(r, t.index() as u32) as usize
                            )
                        };
                        (concrete(enabled), concrete(disabler))
                    }
                    None => (enabled, disabler),
                };
                if allowed_conflicts(enabled, disabler) {
                    continue;
                }
                out.push(PersistenceViolation {
                    state: s,
                    enabled,
                    disabler,
                    trace: space.concrete_trace_to(s),
                });
            }
        }
    }
    out
}

/// The former `dfs::verify::verify`: explore, then the three post-passes.
fn former_verify(dfs: &Dfs, config: &VerifyConfig) -> Result<VerificationReport, DfsError> {
    let img = to_petri(dfs);
    let space = explore(
        &img.net,
        ExploreConfig {
            max_states: config.max_states,
            ..ExploreConfig::default()
        },
    )?;
    Ok(VerificationReport {
        states: space.len(),
        deadlocks: former_deadlocks(&img, &space),
        control_mismatch: former_control_mismatch(dfs, &img, &space)?,
        hazards: former_hazards(&img, &space),
    })
}

fn trace_labels(img: &PetriImage, trace: &[TransitionId]) -> Vec<String> {
    trace.iter().map(|&t| img.label(t).to_string()).collect()
}

fn former_deadlocks(img: &PetriImage, space: &StateSpace) -> Vec<Counterexample> {
    posthoc_deadlocks(&img.net, space)
        .into_iter()
        .map(|d| Counterexample {
            trace: trace_labels(img, &d.trace),
            reason: "deadlock: no event enabled".to_string(),
        })
        .collect()
}

/// Builds the Reach predicate "some node has marked guards with both
/// values" and searches for a witness.
fn former_control_mismatch(
    dfs: &Dfs,
    img: &PetriImage,
    space: &StateSpace,
) -> Result<Option<Counterexample>, DfsError> {
    // Generate the disjunction over all guard pairs of all nodes. Inverted
    // guards contribute their flipped value places.
    let marked = |place: String| Expr::Marked(NameRef::Literal(place));
    let both = |a: String, b: String| Expr::And(Box::new(marked(a)), Box::new(marked(b)));
    let mut clauses = Vec::new();
    for n in dfs.nodes() {
        if dfs.guard_mode(n) != GuardMode::Unanimous {
            continue;
        }
        let guards = dfs.guards(n);
        for (i, a) in guards.iter().enumerate() {
            for b in guards.iter().skip(i + 1) {
                if a.node == b.node && a.inverted != b.inverted {
                    // same register read with both parities: any marking of
                    // it is a mismatch
                    clauses.push(marked(format!("M_{}_1", dfs.node(a.node).name)));
                    continue;
                }
                clauses.push(Expr::Or(
                    Box::new(both(place_name(dfs, a, true), place_name(dfs, b, false))),
                    Box::new(both(place_name(dfs, a, false), place_name(dfs, b, true))),
                ));
            }
        }
    }
    if clauses.is_empty() {
        return Ok(None);
    }
    // every literal names a place `to_petri` created
    let compiled = Predicate::from(any_of(clauses))
        .compile(&img.net)
        .expect("control-mismatch predicate");
    let witness = rap::reach::find_witness(&img.net, space, &compiled);
    Ok(witness.map(|w| Counterexample {
        trace: trace_labels(img, &w.trace),
        reason: "control mismatch: True and False guard tokens visible simultaneously".to_string(),
    }))
}

/// The disjunction of `clauses`, split into halves: its tree grows with the
/// log of the clause count, so a model with thousands of guard pairs stays
/// shallow, which a flat left-deep `a | b | …` chain would not.
fn any_of(mut clauses: Vec<Expr>) -> Expr {
    let right = clauses.split_off(clauses.len() / 2);
    if clauses.is_empty() {
        // at most one clause: itself, or the empty disjunction
        return right.into_iter().next().unwrap_or(Expr::Const(false));
    }
    Expr::Or(Box::new(any_of(clauses)), Box::new(any_of(right)))
}

/// The value-place name asserting guard `g` effectively reads `want`.
fn place_name(dfs: &Dfs, g: &RRef, want: bool) -> String {
    let eff = want ^ g.inverted;
    let prefix = if eff { "Mt" } else { "Mf" };
    format!("{prefix}_{}_1", dfs.node(g.node).name)
}

fn former_hazards(img: &PetriImage, space: &StateSpace) -> Vec<Counterexample> {
    // Intended choices: the Mt_x+/Mf_x+ pair of one dynamic register x.
    let is_choice_pair = |a: &str, b: &str| -> bool {
        let pair = |t: &str, f: &str| {
            (t.strip_prefix("Mt_").zip(f.strip_prefix("Mf_"))).is_some_and(|(x, y)| x == y)
        };
        a.ends_with('+') && b.ends_with('+') && (pair(a, b) || pair(b, a))
    };
    find_persistence_violations(&img.net, space, |en, dis| {
        is_choice_pair(img.label(en), img.label(dis))
    })
    .into_iter()
    .map(|v| Counterexample {
        trace: trace_labels(img, &v.trace),
        reason: format!(
            "non-persistence: {} disabled by {}",
            img.label(v.enabled),
            img.label(v.disabler)
        ),
    })
    .collect()
}

// ---- check against the former passes -------------------------------------

/// `copies` disjoint copies of `base` and the rotation that maps copy `c`
/// onto copy `c + 1`, or `None` when two transitions share an arc
/// signature (the induced transition map is then ambiguous).
fn copies_of(base: &PetriNet, copies: usize) -> Option<(PetriNet, Symmetry)> {
    let np = base.place_count();
    let mut net = PetriNet::new();
    for c in 0..copies {
        for p in base.places() {
            net.add_place(
                format!("c{c}_{}", base.place(p).name),
                base.place(p).initially_marked,
            );
        }
    }
    for c in 0..copies {
        let at = |p: &PlaceId| PlaceId::from_index(c * np + p.index());
        for t in base.transitions() {
            let tr = base.transition(t);
            let u = net.add_transition(format!("c{c}_{}", tr.name));
            tr.consumes().iter().for_each(|p| net.consume(u, at(p)));
            tr.produces().iter().for_each(|p| net.produce(u, at(p)));
            tr.reads().iter().for_each(|p| net.read(u, at(p)));
        }
    }
    let perm = (0..copies * np)
        .map(|i| ((i + np) % (copies * np)) as u32)
        .collect();
    let sym = Symmetry::new(&net, perm).ok()?;
    Some((net, sym))
}

/// Violated when found, Holds when decided, Inconclusive otherwise.
fn verdict(found: bool, decided: bool, budget: usize) -> QuickVerdict {
    match (found, decided) {
        (true, _) => QuickVerdict::Violated,
        (false, true) => QuickVerdict::Holds,
        (false, false) => QuickVerdict::Inconclusive { budget },
    }
}

/// The first state in BFS order that marks a whole set, found as the former
/// control-mismatch scan found it: a Reach predicate over place names,
/// searched over every state. Returns the state, the first set it marks
/// and the witness trace.
fn former_reached(
    net: &PetriNet,
    space: &StateSpace,
    sets: &[Vec<PlaceId>],
) -> Option<(rap::petri::reachability::StateId, usize, Vec<TransitionId>)> {
    let marked = |p: &PlaceId| Expr::Marked(NameRef::Literal(net.place(*p).name.clone()));
    let all = |set: &Vec<PlaceId>| {
        set.iter()
            .map(marked)
            .reduce(|a, b| Expr::And(Box::new(a), Box::new(b)))
    };
    let any = sets
        .iter()
        .filter_map(all)
        .reduce(|a, b| Expr::Or(Box::new(a), Box::new(b)))?;
    let pred = Predicate::from(any)
        .compile(net)
        .expect("every place exists");
    let w = rap::reach::find_witness(net, space, &pred)?;
    let m = space.marking(w.state);
    let set = sets
        .iter()
        .position(|set| set.iter().all(|&p| m.is_marked(p)))
        .expect("the witness marks a set");
    Some((w.state, set, w.trace))
}

/// Every violation `report` carries replays on `net`: dead witnesses into
/// a dead marking, the reached state into a marking that marks its set,
/// each conflict into a marking where firing its disabler disables the
/// other, and the unsafe state (read in `space`, the same run) breaks its
/// pair.
fn assert_violations_replay(
    net: &PetriNet,
    space: &StateSpace,
    props: &Properties<'_>,
    report: &CheckReport,
) -> Result<(), TestCaseError> {
    let replay = |trace: &[TransitionId]| -> Result<Marking, TestCaseError> {
        let mut m = net.initial_marking();
        for &t in trace {
            prop_assert!(net.is_enabled(t, &m), "trace step {:?} not enabled", t);
            m = net.fire(t, &m).unwrap();
        }
        Ok(m)
    };
    for d in &report.deadlocks {
        let m = replay(&d.trace)?;
        prop_assert_eq!(&m, &d.marking);
        prop_assert!(net.enabled_transitions(&m).is_empty());
    }
    if let Some(r) = &report.reached {
        let m = replay(&r.trace)?;
        prop_assert!(props.unreachable[r.set].iter().all(|&p| m.is_marked(p)));
    }
    for v in &report.conflicts {
        let m = replay(&v.trace)?;
        prop_assert!(net.is_enabled(v.enabled, &m) && net.is_enabled(v.disabler, &m));
        let after = net.fire(v.disabler, &m).unwrap();
        prop_assert!(!net.is_enabled(v.enabled, &after));
        prop_assert!(!(props.persistence.unwrap())(v.enabled, v.disabler));
    }
    if let Some((s, i)) = report.unsafe_witness {
        let m = space.concrete_marking(s);
        let (a, b) = props.pairs[i];
        prop_assert_eq!(m.is_marked(a), m.is_marked(b));
    }
    Ok(())
}

/// `check` on the full space under `budget` against the former passes:
/// equal in everything, except the conflicts of a truncated run, which
/// need only replay (the state the budget interrupted listed only some of
/// its edges to the former pass).
fn assert_check_matches_oracle(
    net: &PetriNet,
    props: &Properties<'_>,
    budget: usize,
) -> Result<(), TestCaseError> {
    let got = check(net, props, &cfg(budget), None);
    let space = explore_truncated(net, cfg(budget));
    let complete = !space.is_truncated();
    prop_assert_eq!(got.deadlocks.clone(), posthoc_deadlocks(net, &space));
    prop_assert_eq!(
        QuickCheck::from(got.clone()),
        posthoc_verdicts(net, &space, props.pairs, budget),
        "budget={}",
        budget
    );
    let reached = former_reached(net, &space, props.unreachable);
    prop_assert_eq!(
        got.reached
            .as_ref()
            .map(|r| (r.state, r.set, r.trace.clone())),
        reached.clone()
    );
    prop_assert_eq!(
        got.unreachable,
        verdict(reached.is_some(), complete, budget)
    );
    let exempt = props.persistence.unwrap();
    let conflicts = find_persistence_violations(net, &space, exempt);
    if complete {
        prop_assert_eq!(&got.conflicts, &conflicts);
    }
    for c in &conflicts {
        prop_assert!(got.conflicts.contains(c), "{:?} missed", c);
    }
    prop_assert_eq!(
        got.persistent,
        Some(verdict(!got.conflicts.is_empty(), complete, budget))
    );
    assert_violations_replay(net, &space, props, &got)
}

/// `check` on a stubborn-set reduced run: every violation replays, dead
/// states are the full run's when both complete, and nothing but
/// deadlock-freedom and certified 1-safety is claimed to hold.
fn assert_stubborn_check_replays(
    net: &PetriNet,
    props: &Properties<'_>,
    budget: usize,
) -> Result<(), TestCaseError> {
    let reduced = ExploreConfig {
        stubborn: true,
        ..cfg(budget)
    };
    let got = check(net, props, &reduced, None);
    let space = explore_truncated(net, reduced);
    assert_violations_replay(net, &space, props, &got)?;
    prop_assert_ne!(got.unreachable, QuickVerdict::Holds);
    prop_assert_ne!(got.persistent, Some(QuickVerdict::Holds));
    let full = check(net, props, &cfg(budget), None);
    if !got.truncated && !full.truncated {
        let dead = |r: &CheckReport| -> Vec<Marking> {
            let mut m: Vec<Marking> = r.deadlocks.iter().map(|d| d.marking.clone()).collect();
            m.sort_by_key(|m| format!("{m:?}"));
            m
        };
        prop_assert_eq!(dead(&got), dead(&full));
        prop_assert_eq!(got.deadlock_free, full.deadlock_free);
    }
    Ok(())
}

/// `check` on the quotient against the former passes over the same
/// quotient: equal dead witnesses (concrete), unsafe witness and conflicts
/// (when complete), the pairs decided only when closed, the sets never.
fn assert_quotient_check_matches_oracle(
    net: &PetriNet,
    props: &Properties<'_>,
    budget: usize,
    sym: &Symmetry,
) -> Result<(), TestCaseError> {
    let got = check(net, props, &cfg(budget), Some(sym));
    let space = explore_quotient_truncated(net, cfg(budget), &sym.state_symmetry());
    let complete = !space.is_truncated();
    prop_assert_eq!((got.states, got.truncated), (space.len(), !complete));
    prop_assert_eq!(got.deadlocks.clone(), posthoc_deadlocks(net, &space));
    let want = posthoc_verdicts(net, &space, props.pairs, budget);
    prop_assert_eq!(got.unsafe_witness, want.unsafe_witness);
    if sym.pairs_closed(props.pairs) {
        prop_assert_eq!(got.safe, want.safe);
    }
    prop_assert_eq!(got.unreachable, QuickVerdict::Inconclusive { budget });
    prop_assert!(got.reached.is_none());
    let conflicts = find_persistence_violations(net, &space, props.persistence.unwrap());
    if complete {
        prop_assert_eq!(&got.conflicts, &conflicts);
    }
    prop_assert_eq!(
        got.persistent,
        Some(verdict(!got.conflicts.is_empty(), complete, budget))
    );
    assert_violations_replay(net, &space, props, &got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `check` on random nets, asked every question at once, agrees with
    /// the former passes at every budget; so does its quotient on two
    /// swapped copies of the net, under an exemption the swap preserves.
    #[test]
    fn check_matches_the_former_passes(
        net in arb_net(9, 8),
        raw_pairs in proptest::collection::vec((0usize..9, 0usize..9), 0..4),
        raw_sets in proptest::collection::vec(proptest::collection::vec(0usize..9, 1..3), 0..4),
        exempt in proptest::collection::vec((0usize..8, 0usize..8), 0..6),
        closed in any::<bool>(),
    ) {
        let p = PlaceId::from_index;
        let pairs: Vec<(PlaceId, PlaceId)> = raw_pairs.iter().map(|&(a, b)| (p(a), p(b))).collect();
        let sets: Vec<Vec<PlaceId>> =
            raw_sets.iter().map(|set| set.iter().map(|&i| p(i)).collect()).collect();
        // exempt `(e, d)` when their indices in their copy are listed: the
        // rotation of copies preserves it
        let exemption = |e: TransitionId, d: TransitionId| {
            exempt.contains(&(e.index() % 8, d.index() % 8))
        };
        let props = Properties {
            pairs: &pairs,
            unreachable: &sets,
            persistence: Some(&exemption),
        };
        for budget in BUDGETS {
            assert_check_matches_oracle(&net, &props, budget)?;
            assert_stubborn_check_replays(&net, &props, budget)?;
        }

        if let Some((twice, sym)) = copies_of(&net, 2) {
            // the pairs of copy 0, and with `closed` their images in copy 1
            let mut pairs2 = pairs.clone();
            if closed {
                pairs2.extend(pairs.iter().map(|&(a, b)| (p(a.index() + 9), p(b.index() + 9))));
            }
            let props2 = Properties { pairs: &pairs2, ..props };
            for budget in BUDGETS {
                assert_quotient_check_matches_oracle(&twice, &props2, budget, &sym)?;
            }
        }
    }
}

/// A mutant of `dfs`: its control registers start with the given values
/// (0 = unmarked, 1 = True, 2 = False), cycled over them in node order;
/// `None` when the mutant does not build.
fn mutant(dfs: &Dfs, values: &[u8]) -> Option<Dfs> {
    let mut next = values.iter().cycle();
    let text: String = rap::dfs::dsl::to_text(dfs)
        .lines()
        .map(|line| {
            let mut words: Vec<&str> = line.split_whitespace().collect();
            if words.first() == Some(&"control") {
                words.retain(|w| !w.starts_with("marked"));
                match next.next() {
                    Some(1) => words.insert(2, "marked=true"),
                    Some(2) => words.insert(2, "marked=false"),
                    _ => {}
                }
            }
            words.join(" ") + "\n"
        })
        .collect();
    rap::dfs::dsl::parse(&text).ok()
}

/// A counterexample's trace and reason.
type Cx = (Vec<String>, String);

/// A report, field by field and trace by trace.
fn report_key(r: &VerificationReport) -> (usize, Vec<Cx>, Option<Cx>, Vec<Cx>) {
    let cx = |c: &Counterexample| (c.trace.clone(), c.reason.clone());
    (
        r.states,
        r.deadlocks.iter().map(cx).collect(),
        r.control_mismatch.as_ref().map(cx),
        r.hazards.iter().map(cx).collect(),
    )
}

fn assert_verify_matches_the_former_flow(dfs: &Dfs) -> Result<(), TestCaseError> {
    let config = VerifyConfig {
        max_states: 200_000,
    };
    match (verify(dfs, &config), former_verify(dfs, &config)) {
        (Ok(got), Ok(want)) => prop_assert_eq!(report_key(&got), report_key(&want)),
        (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
        (got, want) => prop_assert!(
            false,
            "{:?} vs {:?}",
            got.map(|r| r.states),
            want.map(|r| r.states)
        ),
    }
    Ok(())
}

/// Random small models: 3–6 nodes of random kinds, each register empty or
/// marked and each control register, push and pop empty or holding a
/// random value, joined by random (sometimes inverting) edges; `None` when
/// the builder rejects the model.
fn arb_dfs() -> impl Strategy<Value = Option<Dfs>> {
    (
        proptest::collection::vec((0u8..5, 0u8..3), 3..7),
        proptest::collection::vec((0usize..6, 0usize..6, 0u8..4), 0..12),
    )
        .prop_map(|(nodes, edges)| {
            let mut b = DfsBuilder::new();
            let ids: Vec<NodeId> = nodes
                .iter()
                .enumerate()
                .map(|(i, &(kind, mark))| {
                    let name = format!("n{i}");
                    let node = match kind {
                        0 => b.register(name),
                        1 => b.control(name),
                        2 => b.push(name),
                        3 => b.pop(name),
                        _ => b.logic(name),
                    };
                    match (kind, mark) {
                        (0, 1) => node.marked(),
                        (1..=3, 1) => node.marked_with(TokenValue::True),
                        (1..=3, 2) => node.marked_with(TokenValue::False),
                        _ => node,
                    }
                    .build()
                })
                .collect();
            for (from, to, how) in edges {
                let (from, to) = (ids[from % ids.len()], ids[to % ids.len()]);
                if from == to {
                    continue;
                }
                if how == 0 {
                    b.connect_inverted(from, to);
                } else {
                    b.connect(from, to);
                }
            }
            b.finish().ok()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `verify` equals the former flow on random paper pipelines and on
    /// mutants whose control registers start with random values (the
    /// mutants deadlock; a pipeline's nodes read one guard each, so they
    /// cannot mismatch).
    #[test]
    fn verify_matches_the_former_flow(
        dfs in arb_pipeline(),
        values in proptest::collection::vec(0u8..3, 1..6),
    ) {
        assert_verify_matches_the_former_flow(&dfs)?;
        if let Some(m) = mutant(&dfs, &values) {
            assert_verify_matches_the_former_flow(&m)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// `verify` equals the former flow on random small models, where
    /// deadlocks, control mismatches and hazards all occur.
    #[test]
    fn verify_matches_the_former_flow_on_random_models(dfs in arb_dfs()) {
        if let Some(dfs) = dfs {
            assert_verify_matches_the_former_flow(&dfs)?;
        }
    }
}

//! Property-based tests for the firing rule and reachability explorer.

use proptest::prelude::*;
use rap_obs::{Collector, Obs};
use rap_petri::analysis::{check, Properties};
use rap_petri::engine::{self, Incidence, NetSystem, StateId, StateSpace, StateSymmetry};
use rap_petri::reachability::{explore_quotient_truncated, explore_truncated, ExploreConfig};
use rap_petri::symmetry::Symmetry;
use rap_petri::{Marking, PetriNet, PlaceId, TransitionId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Strategy: a random net over `np` places and `nt` transitions with small
/// arc lists. Initial marking is random.
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

fn token_count(m: &Marking) -> usize {
    m.count()
}

fn cfg(max_states: usize) -> ExploreConfig {
    ExploreConfig {
        max_states,
        ..ExploreConfig::default()
    }
}

/// Full observational equality through the public accessors: counts,
/// outcome, dead states, and per state its vector, its edges in order, its
/// trace (which fixes the parent attribution) and its rotation.
fn assert_identical(a: &StateSpace, b: &StateSpace, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: state count");
    assert_eq!(a.outcome(), b.outcome(), "{ctx}: outcome");
    assert_eq!(a.deadlocks(), b.deadlocks(), "{ctx}: dead states");
    for s in a.states() {
        let i = s.index();
        assert_eq!(a.words(s), b.words(s), "{ctx}: state {i}");
        assert_eq!(a.successors(s), b.successors(s), "{ctx}: edges of {i}");
        assert_eq!(a.trace_to(s), b.trace_to(s), "{ctx}: trace to {i}");
        assert_eq!(a.rotation(s), b.rotation(s), "{ctx}: rotation {i}");
    }
}

/// The dead states of `g` by a full scan: every state whose marking
/// enables no transition of `net`.
fn scanned_dead(net: &PetriNet, g: &StateSpace) -> Vec<StateId> {
    let inc = Incidence::from_net(net);
    g.states()
        .filter(|&s| net.transitions().all(|t| !inc.is_enabled(t, g.words(s))))
        .collect()
}

/// Explores `net` untraced and traced (live collector) under `budget`,
/// checks the two spaces are identical and the collector counted every
/// state, and returns the untraced space.
fn explore_both_ways(
    net: &PetriNet,
    budget: usize,
    symmetry: Option<&StateSymmetry>,
) -> StateSpace {
    let plain = engine::explore(NetSystem::new(net), &cfg(budget), symmetry, &mut ());
    let collector = Arc::new(Collector::new());
    let recording = ExploreConfig {
        obs: Obs::collecting(&collector),
        ..cfg(budget)
    };
    let traced = engine::explore(NetSystem::new(net), &recording, symmetry, &mut ());
    assert_identical(&plain, &traced, &format!("traced, budget={budget}"));
    let snap = collector.snapshot();
    assert_eq!(
        snap.counter("engine.states"),
        traced.len() as u64,
        "budget={budget}"
    );
    assert!(
        snap.counter("engine.levels") > 0,
        "budget={budget}: no levels recorded"
    );
    plain
}

/// `copies` disjoint copies of `base`, with the rotation that maps copy
/// `c` onto copy `c + 1` (places and transitions alike).
fn replicated(base: &PetriNet, copies: usize) -> (PetriNet, StateSymmetry) {
    let (np, nt) = (base.place_count(), base.transition_count());
    let mut net = PetriNet::new();
    for c in 0..copies {
        for p in base.places() {
            net.add_place(
                format!("c{c}_p{}", p.index()),
                base.place(p).initially_marked,
            );
        }
    }
    for c in 0..copies {
        for t in base.transitions() {
            let nt_id = net.add_transition(format!("c{c}_t{}", t.index()));
            let tr = base.transition(t);
            let at = |p: PlaceId| PlaceId::from_index(c * np + p.index());
            for &p in tr.consumes() {
                net.consume(nt_id, at(p));
            }
            for &p in tr.produces() {
                net.produce(nt_id, at(p));
            }
            for &p in tr.reads() {
                net.read(nt_id, at(p));
            }
        }
    }
    let rotate = |n: usize| -> Vec<u32> {
        (0..copies * n)
            .map(|i| ((i + n) % (copies * n)) as u32)
            .collect()
    };
    let sym = StateSymmetry::new(rotate(np), rotate(nt)).expect("rotation is a permutation");
    (net, sym)
}

/// Per base transition: the `(consumes, produces, reads)` place indices of
/// the next copy it also has arcs to.
type Links = Vec<(Vec<usize>, Vec<usize>, Vec<usize>)>;

/// Strategy: a base net over `np` places and `nt` transitions, with
/// [`Links`] from each transition into the *next* copy's places.
fn arb_linked_net(np: usize, nt: usize) -> impl Strategy<Value = (PetriNet, Links)> {
    let links = proptest::collection::vec(
        (
            proptest::collection::vec(0..np, 0..2),
            proptest::collection::vec(0..np, 0..2),
            proptest::collection::vec(0..np, 0..2),
        ),
        nt,
    );
    (arb_net(np, nt), links)
}

/// [`replicated`] with cross-copy arcs: transition `t` of copy `c` also
/// consumes, produces and reads `links[t]`'s places of copy `c + 1`. The
/// rotation stays an automorphism.
fn linked(base: &PetriNet, links: &Links, copies: usize) -> (PetriNet, StateSymmetry) {
    let (plain, sym) = replicated(base, copies);
    let np = base.place_count();
    let mut net = PetriNet::new();
    for p in plain.places() {
        net.add_place(plain.place(p).name.clone(), plain.place(p).initially_marked);
    }
    for t in plain.transitions() {
        let tr = plain.transition(t);
        let nt_id = net.add_transition(tr.name.clone());
        for &p in tr.consumes() {
            net.consume(nt_id, p);
        }
        for &p in tr.produces() {
            net.produce(nt_id, p);
        }
        for &p in tr.reads() {
            net.read(nt_id, p);
        }
        let c = t.index() / base.transition_count();
        let next = |p: usize| PlaceId::from_index((c + 1) % copies * np + p);
        let (cons, prod, reads) = &links[t.index() % base.transition_count()];
        for &p in cons {
            net.consume(nt_id, next(p));
        }
        for &p in prod {
            net.produce(nt_id, next(p));
        }
        for &p in reads {
            net.read(nt_id, next(p));
        }
    }
    (net, sym)
}

fn stubborn(max_states: usize) -> ExploreConfig {
    ExploreConfig {
        stubborn: true,
        ..cfg(max_states)
    }
}

/// The lexicographically-least rotation of `raw` under `sym`.
fn canonical(sym: &StateSymmetry, raw: &[u64]) -> Vec<u64> {
    let mut canon = vec![0u64; raw.len()];
    let mut tmp = vec![0u64; raw.len()];
    sym.canonicalize(raw, &mut canon, &mut tmp);
    canon
}

/// `m` packed into `width` words through its public accessors, one bit per
/// marked place.
fn packed(m: &Marking, width: usize) -> Vec<u64> {
    let mut words = vec![0u64; width];
    for p in m.iter_marked() {
        engine::set_bit(&mut words, p.index(), true);
    }
    words
}

/// Strategy: a net over `np` places whose transitions either flip one of
/// the random `pairs` (consume one side, produce the other, plus reads) or
/// carry random arcs — so pair certificates both hold and fail.
fn arb_paired_net(np: usize) -> impl Strategy<Value = (PetriNet, Vec<(PlaceId, PlaceId)>)> {
    let marks = proptest::collection::vec(any::<bool>(), np);
    let pairs = proptest::collection::vec((0..np, 0..np), 1..5);
    let transitions = proptest::collection::vec(
        (
            any::<bool>(), // flip a pair, or random arcs
            0usize..8,     // which pair
            any::<bool>(), // flip direction
            proptest::collection::vec(0..np, 0..3),
            proptest::collection::vec(0..np, 0..3),
            proptest::collection::vec(0..np, 0..2),
        ),
        0..8,
    );
    (marks, pairs, transitions).prop_map(move |(marks, pairs, transitions)| {
        let mut net = PetriNet::new();
        let places: Vec<PlaceId> = marks
            .iter()
            .enumerate()
            .map(|(i, &m)| net.add_place(format!("p{i}"), m))
            .collect();
        let pairs: Vec<(PlaceId, PlaceId)> = pairs
            .into_iter()
            .map(|(a, b)| (places[a], places[b]))
            .collect();
        for (i, (flip, j, dir, cons, prod, reads)) in transitions.into_iter().enumerate() {
            let t = net.add_transition(format!("t{i}"));
            if flip {
                let (a, b) = pairs[j % pairs.len()];
                let (from, to) = if dir { (a, b) } else { (b, a) };
                net.consume(t, from);
                net.produce(t, to);
            } else {
                for c in cons {
                    net.consume(t, places[c]);
                }
                for p in prod {
                    net.produce(t, places[p]);
                }
            }
            for r in reads {
                net.read(t, places[r]);
            }
        }
        (net, pairs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Firing an enabled transition always yields a 1-safe marking, and read
    /// arcs never change the marking of the read place.
    #[test]
    fn firing_preserves_safety(net in arb_net(12, 10)) {
        let m0 = net.initial_marking();
        for t in net.transitions() {
            if net.is_enabled(t, &m0) {
                let m1 = net.fire(t, &m0).unwrap();
                prop_assert!(m1.len() == m0.len());
                for &p in net.transition(t).reads() {
                    // read arcs are non-destructive unless also consumed
                    if net.transition(t).consumes().binary_search(&p).is_err() {
                        prop_assert!(m1.is_marked(p));
                    }
                }
            } else {
                prop_assert!(net.fire(t, &m0).is_err());
            }
        }
    }

    /// Every state in the explored space is reachable by replaying its trace.
    #[test]
    fn traces_replay(net in arb_net(10, 8)) {
        let space = explore_truncated(&net, ExploreConfig { max_states: 5_000, ..ExploreConfig::default() });
        for s in space.states() {
            let mut m = net.initial_marking();
            for t in space.trace_to(s) {
                m = net.fire(t, &m).unwrap();
            }
            prop_assert_eq!(&m, &space.marking(s));
        }
    }

    /// In a conservative net (every transition consumes exactly as many
    /// tokens as it produces and never reads), the token count is invariant
    /// over the whole reachable space.
    #[test]
    fn token_conservation_in_conservative_nets(
        marks in proptest::collection::vec(any::<bool>(), 8),
        pairs in proptest::collection::vec((0usize..8, 0usize..8), 1..8,)
    ) {
        let mut net = PetriNet::new();
        let places: Vec<PlaceId> = marks
            .iter()
            .enumerate()
            .map(|(i, &m)| net.add_place(format!("p{i}"), m))
            .collect();
        for (i, (from, to)) in pairs.into_iter().enumerate() {
            if from == to {
                continue;
            }
            let t = net.add_transition(format!("t{i}"));
            net.consume(t, places[from]);
            net.produce(t, places[to]);
        }
        let space = explore_truncated(&net, ExploreConfig { max_states: 5_000, ..ExploreConfig::default() });
        prop_assume!(!space.is_truncated());
        let n0 = token_count(&space.marking(space.initial()));
        for s in space.states() {
            prop_assert_eq!(token_count(&space.marking(s)), n0);
        }
    }

    /// Exploration is deterministic: two runs discover identical spaces.
    #[test]
    fn exploration_is_deterministic(net in arb_net(9, 9)) {
        let a = explore_truncated(&net, ExploreConfig { max_states: 2_000, ..ExploreConfig::default() });
        let b = explore_truncated(&net, ExploreConfig { max_states: 2_000, ..ExploreConfig::default() });
        prop_assert_eq!(a.len(), b.len());
        for (sa, sb) in a.states().zip(b.states()) {
            prop_assert_eq!(a.marking(sa), b.marking(sb));
            prop_assert_eq!(a.successors(sa), b.successors(sb));
        }
    }

    /// The explorer preserves 1-safety on every reachable marking: a marking
    /// never carries more tokens than places, and no enabled transition may
    /// produce a second token into a place it does not also consume from
    /// (the complementary-place firing discipline).
    #[test]
    fn explorer_preserves_one_safety(net in arb_net(10, 9)) {
        let space = explore_truncated(&net, ExploreConfig { max_states: 4_000, ..ExploreConfig::default() });
        for s in space.states() {
            let m = space.marking(s);
            prop_assert_eq!(m.len(), net.place_count());
            prop_assert!(m.count() <= net.place_count());
            for t in net.transitions() {
                if net.is_enabled(t, &m) {
                    let tr = net.transition(t);
                    for &p in tr.produces() {
                        prop_assert!(
                            !m.is_marked(p) || tr.consumes().contains(&p),
                            "enabled transition would double-mark a place"
                        );
                    }
                    // firing an enabled transition keeps the image 1-safe
                    prop_assert!(net.fire(t, &m).unwrap().count() <= net.place_count());
                } else {
                    prop_assert!(net.fire(t, &m).is_err());
                }
            }
        }
    }

    /// The one-pass pair certificate agrees with its definition: pair
    /// `(a, b)` is certified iff its weight vector (1 on `a` and `b`, 2 when
    /// they coincide) is a P-invariant and the initial token sum is 1, and
    /// the first failing pair is the one reported.
    #[test]
    fn pair_certificate_matches_the_invariant_definition((net, pairs) in arb_paired_net(8)) {
        let m0 = net.initial_marking();
        let want = pairs.iter().position(|&(a, b)| {
            let mut w = vec![0i64; net.place_count()];
            w[a.index()] += 1;
            w[b.index()] += 1;
            let sum = u8::from(m0.is_marked(a)) + u8::from(m0.is_marked(b));
            !rap_petri::invariants::is_invariant(&net, &w) || sum != 1
        });
        prop_assert_eq!(rap_petri::invariants::certify_complementary_pairs(&net, &pairs), want);
    }

    /// A live collector never perturbs the result, and the dead list the
    /// engine records on discovery equals a full enabledness scan — under
    /// tiny budgets too, where the truncated frontier must not be mistaken
    /// for deadlocks.
    #[test]
    fn traced_equals_untraced_and_dead_states_match_a_full_scan(net in arb_net(10, 8)) {
        for budget in [2_000usize, 40, 7, 2, 1] {
            let g = explore_both_ways(&net, budget, None);
            prop_assert_eq!(g.deadlocks(), scanned_dead(&net, &g).as_slice(), "budget={}", budget);
        }
    }

    /// Quotient mode: on two or three rotated copies of a random net, the
    /// traced and untraced quotients agree, and the dead list equals a full
    /// enabledness scan of the representatives.
    #[test]
    fn quotient_dead_states_match_a_full_scan(base in arb_net(5, 4), copies in 2usize..=3) {
        let (net, sym) = replicated(&base, copies);
        for budget in [2_000usize, 40, 7, 2, 1] {
            let g = explore_both_ways(&net, budget, Some(&sym));
            prop_assert_eq!(g.deadlocks(), scanned_dead(&net, &g).as_slice(), "budget={}", budget);
        }
    }

    /// The quotient against an independent oracle: the seed explorer of
    /// `rap-oracle` over the full net. The quotient's states are exactly
    /// the canonical forms of the reachable markings, each stored canonical
    /// and once; its dead representatives are the canonical forms of the
    /// dead markings; and every concrete trace fires step by step in the
    /// net, from the real initial marking to the state's concrete marking.
    #[test]
    fn quotient_is_the_canonical_image_of_the_full_space(
        base in arb_net(5, 4),
        copies in 2usize..=3,
    ) {
        let (net, sym) = replicated(&base, copies);
        let full = rap_oracle::explore_net(&net, usize::MAX);
        let quo = explore_quotient_truncated(&net, cfg(usize::MAX), &sym);
        prop_assert!(!full.truncated && !quo.is_truncated());

        let width = quo.words(quo.initial()).len();
        let image: BTreeSet<Vec<u64>> = full
            .states
            .iter()
            .map(|m| canonical(&sym, &packed(m, width)))
            .collect();
        let dead_image: BTreeSet<Vec<u64>> = full
            .dead
            .iter()
            .map(|&i| canonical(&sym, &packed(&full.states[i], width)))
            .collect();

        let mut reps = BTreeSet::new();
        for s in quo.states() {
            let words = quo.words(s);
            prop_assert_eq!(canonical(&sym, words).as_slice(), words, "stored marking not canonical");
            prop_assert!(reps.insert(words.to_vec()), "orbit stored twice");
        }
        prop_assert_eq!(&reps, &image, "quotient states vs canonical image");
        let dead_reps: BTreeSet<Vec<u64>> = quo
            .deadlocks()
            .iter()
            .map(|&s| quo.words(s).to_vec())
            .collect();
        prop_assert_eq!(&dead_reps, &dead_image, "dead representatives");

        for s in quo.states() {
            let mut m = net.initial_marking();
            for t in quo.concrete_trace_to(s) {
                prop_assert!(net.is_enabled(t, &m), "concrete trace step not enabled");
                m = net.fire(t, &m).unwrap();
            }
            prop_assert_eq!(&m, &quo.concrete_marking(s));
        }
    }

    /// Counterexample traces reconstructed by the explorer replay from the
    /// initial marking to exactly the offending state: every deadlock's
    /// trace reaches its dead marking, in which nothing is enabled.
    #[test]
    fn counterexample_traces_replay_to_offending_state(net in arb_net(9, 8)) {
        let space = explore_truncated(&net, cfg(4_000));
        for dead in check(&net, &Properties::default(), &cfg(4_000), None).deadlocks {
            let mut m = net.initial_marking();
            for t in &dead.trace {
                prop_assert!(net.is_enabled(*t, &m), "trace step must be enabled");
                m = net.fire(*t, &m).unwrap();
            }
            prop_assert_eq!(&m, &dead.marking);
            prop_assert_eq!(&m, &space.marking(dead.state));
            prop_assert!(
                net.enabled_transitions(&m).is_empty(),
                "replayed trace must land in the dead state"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Canonicalization picks the least rotation, the first one on ties,
    /// exactly as applying every power of the generator and comparing
    /// whole states does — on block rotations spanning several words.
    #[test]
    fn canonicalize_matches_a_scan_of_every_rotation(
        block in 1usize..70,
        copies in 2usize..=4,
        seed in proptest::collection::vec(any::<u64>(), 5),
    ) {
        let n = block * copies;
        let perm: Vec<u32> = (0..n).map(|i| ((i + block) % n) as u32).collect();
        let sym = StateSymmetry::new(perm, vec![0]).unwrap();
        let words = n.div_ceil(64);
        let mut raw: Vec<u64> = seed[..words].to_vec();
        if !n.is_multiple_of(64) {
            raw[words - 1] &= (1u64 << (n % 64)) - 1;
        }
        let (mut canon, mut tmp) = (vec![0u64; words], vec![0u64; words]);
        let j = sym.canonicalize(&raw, &mut canon, &mut tmp);
        let (mut best, mut best_j) = (raw.clone(), 0);
        let mut rotated = vec![0u64; words];
        for k in 1..sym.order() as u32 {
            sym.apply_state(k, &raw, &mut rotated);
            if rotated < best {
                (best, best_j) = (rotated.clone(), k);
            }
        }
        prop_assert_eq!(&canon, &best);
        prop_assert_eq!(j, best_j);
    }

    /// Stubborn sets preserve deadlocks: on random nets with read arcs the
    /// reduced exploration reaches exactly the full exploration's dead
    /// markings, visits only reachable markings, and every dead state's
    /// trace replays to its dead marking.
    #[test]
    fn stubborn_dead_set_equals_the_full_dead_set(net in arb_net(10, 9)) {
        let full = explore_truncated(&net, cfg(usize::MAX));
        let reduced = explore_truncated(&net, stubborn(usize::MAX));
        prop_assert!(!full.is_truncated() && !reduced.is_truncated());
        let markings = |g: &StateSpace, ids: &mut dyn Iterator<Item = StateId>| -> BTreeSet<Vec<u64>> {
            ids.map(|s| g.words(s).to_vec()).collect()
        };
        let reachable = markings(&full, &mut full.states());
        prop_assert!(markings(&reduced, &mut reduced.states()).is_subset(&reachable));
        prop_assert_eq!(
            markings(&reduced, &mut reduced.deadlocks().iter().copied()),
            markings(&full, &mut full.deadlocks().iter().copied()),
            "dead markings"
        );
        for dead in check(&net, &Properties::default(), &stubborn(usize::MAX), None).deadlocks {
            let mut m = net.initial_marking();
            for t in &dead.trace {
                prop_assert!(net.is_enabled(*t, &m), "trace step not enabled");
                m = net.fire(*t, &m).unwrap();
            }
            prop_assert_eq!(&m, &dead.marking);
            prop_assert!(net.enabled_transitions(&m).is_empty());
        }
    }

    /// Stubborn sets on the quotient: on rotated copies with cross-copy
    /// arcs, the reduced quotient's dead representatives are exactly the
    /// canonical image of the full space's dead markings, and every
    /// concrete witness trace fires in the net from the real initial
    /// marking into a dead marking.
    #[test]
    fn stubborn_quotient_dead_representatives_are_the_canonical_dead_image(
        (base, links) in arb_linked_net(4, 4),
        copies in 2usize..=3,
    ) {
        let (net, sym) = linked(&base, &links, copies);
        let full = explore_truncated(&net, cfg(usize::MAX));
        let reduced = explore_quotient_truncated(&net, stubborn(usize::MAX), &sym);
        prop_assert!(!full.is_truncated() && !reduced.is_truncated());
        let dead_image: BTreeSet<Vec<u64>> = full
            .deadlocks()
            .iter()
            .map(|&s| canonical(&sym, full.words(s)))
            .collect();
        let dead_reps: BTreeSet<Vec<u64>> = reduced
            .deadlocks()
            .iter()
            .map(|&s| reduced.words(s).to_vec())
            .collect();
        prop_assert_eq!(&dead_reps, &dead_image, "dead representatives");
        for &s in reduced.deadlocks() {
            let mut m = net.initial_marking();
            for t in reduced.concrete_trace_to(s) {
                prop_assert!(net.is_enabled(t, &m), "concrete trace step not enabled");
                m = net.fire(t, &m).unwrap();
            }
            prop_assert_eq!(&m, &reduced.concrete_marking(s));
            prop_assert!(net.enabled_transitions(&m).is_empty(), "witness is not dead");
        }
    }

    /// Persistence on the quotient: on rotated copies, with or without
    /// cross-copy arcs, the representatives the quotient reports are
    /// exactly the canonical forms of the markings the full space reports,
    /// so it finds a violation exactly when the full space does. Every
    /// report replays: its trace fires from the real initial marking into
    /// a marking that enables both transitions, and firing the disabler
    /// there disables the other.
    #[test]
    fn quotient_persistence_violations_are_the_full_ones(
        (base, links) in arb_linked_net(4, 4),
        copies in 2usize..=3,
        cross in any::<bool>(),
    ) {
        let (net, sym) = if cross {
            linked(&base, &links, copies)
        } else {
            replicated(&base, copies)
        };
        // the net-level symmetry `check` takes: the same copy rotation, its
        // transition map induced from the places
        let places = net.place_count();
        let step = places / copies;
        let perm = (0..places).map(|i| ((i + step) % places) as u32).collect();
        let net_sym = Symmetry::new(&net, perm);
        // identical arc signatures make the induced transition map ambiguous
        prop_assume!(net_sym.is_ok());
        let net_sym = net_sym.unwrap();
        let full = explore_truncated(&net, cfg(usize::MAX));
        let quo = explore_quotient_truncated(&net, cfg(usize::MAX), &sym);
        prop_assert!(!full.is_truncated() && !quo.is_truncated());
        let hazard = |_: TransitionId, _: TransitionId| false;
        let props = Properties { persistence: Some(&hazard), ..Properties::default() };
        let full_check = check(&net, &props, &cfg(usize::MAX), None);
        let quo_check = check(&net, &props, &cfg(usize::MAX), Some(&net_sym));
        prop_assert_eq!(full_check.persistent, quo_check.persistent);
        let (in_full, in_quo) = (full_check.conflicts, quo_check.conflicts);
        let full_states: BTreeSet<Vec<u64>> = in_full
            .iter()
            .map(|v| canonical(&sym, full.words(v.state)))
            .collect();
        let quo_states: BTreeSet<Vec<u64>> =
            in_quo.iter().map(|v| quo.words(v.state).to_vec()).collect();
        prop_assert_eq!(&quo_states, &full_states, "violating states");
        prop_assert_eq!(in_quo.is_empty(), in_full.is_empty());
        for (space, found) in [(&full, &in_full), (&quo, &in_quo)] {
            for v in found {
                let mut m = net.initial_marking();
                for &t in &v.trace {
                    prop_assert!(net.is_enabled(t, &m), "trace step not enabled");
                    m = net.fire(t, &m).unwrap();
                }
                prop_assert_eq!(&m, &space.concrete_marking(v.state));
                prop_assert!(net.is_enabled(v.enabled, &m) && net.is_enabled(v.disabler, &m));
                let after = net.fire(v.disabler, &m).unwrap();
                prop_assert!(!net.is_enabled(v.enabled, &after), "{:?} stays enabled", v.enabled);
            }
        }
    }
}

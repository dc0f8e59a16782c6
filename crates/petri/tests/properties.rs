//! Property-based tests for the firing rule and reachability explorer.

use proptest::prelude::*;
use rap_petri::reachability::{explore_truncated, ExploreConfig};
use rap_petri::{Marking, PetriNet, PlaceId};

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

    /// Counterexample traces reconstructed by the explorer replay from the
    /// initial marking to exactly the offending state: every deadlock's
    /// trace reaches its dead marking, in which nothing is enabled.
    #[test]
    fn counterexample_traces_replay_to_offending_state(net in arb_net(9, 8)) {
        let space = explore_truncated(&net, ExploreConfig { max_states: 4_000, ..ExploreConfig::default() });
        for dead in rap_petri::analysis::find_deadlocks(&space) {
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

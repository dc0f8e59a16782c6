//! Structural analysis: place invariants (P-invariants).
//!
//! A weighting `y` of places is a *P-invariant* when `yᵀ·C = 0` for the
//! incidence matrix `C` — the weighted token sum is then constant over
//! **every** reachable marking, without exploring any of them. The DFS
//! translation's complementary place pairs (`x_0 + x_1 = 1`) are structural
//! P-invariants, so 1-safety of those pairs is certified purely
//! structurally.
//!
//! Read arcs do not contribute to the incidence matrix (they never move
//! tokens), which is exactly why the read-arc-heavy DFS image stays so
//! well-behaved structurally.

use crate::{Marking, PetriNet, PlaceId};

/// The incidence matrix entry for (place, transition):
/// `produce − consume` (read arcs contribute 0; a self-loop
/// consume+produce also nets 0).
#[must_use]
pub fn incidence(net: &PetriNet, p: PlaceId, t: crate::TransitionId) -> i64 {
    let tr = net.transition(t);
    let produced = i64::from(tr.produces().contains(&p));
    let consumed = i64::from(tr.consumes().contains(&p));
    produced - consumed
}

/// Is `weights` (indexed by place) a P-invariant of `net`?
///
/// # Panics
///
/// Panics when `weights.len()` differs from the place count.
#[must_use]
pub fn is_invariant(net: &PetriNet, weights: &[i64]) -> bool {
    assert_eq!(weights.len(), net.place_count(), "weight vector length");
    net.transitions().all(|t| {
        net.places()
            .map(|p| weights[p.index()] * incidence(net, p, t))
            .sum::<i64>()
            == 0
    })
}

/// The invariant's token sum in a marking (for 1-safe markings: the number
/// of marked places weighted by `weights`).
#[must_use]
pub fn invariant_value(weights: &[i64], marking: &Marking) -> i64 {
    marking
        .iter_marked()
        .map(|p| weights[p.index()])
        .sum::<i64>()
}

/// Certifies that every place in `pairs` is 1-bounded structurally: each
/// pair must be a P-invariant with initial token sum 1. Returns the index
/// of the first failing pair; a pair naming a place the net does not have
/// fails.
///
/// The weight vector of pair `(a, b)` is zero outside `{a, b}`, so it is
/// an invariant iff every transition that moves a token in `a` moves the
/// opposite token in `b`, and vice versa. One pass over each transition's
/// arcs records every place's net effect, counts the transitions that move
/// each place, and counts per pair the transitions where the two effects
/// cancel; the pair then holds iff all three counts agree — O(arcs +
/// pairs) in place of a scan per pair and transition.
#[must_use]
pub fn certify_complementary_pairs(net: &PetriNet, pairs: &[(PlaceId, PlaceId)]) -> Option<usize> {
    let np = net.place_count();
    let in_net = |&(a, b): &(PlaceId, PlaceId)| a.index() < np && b.index() < np;
    // pair indices grouped by first place
    let mut by_first: Vec<usize> = (0..pairs.len()).filter(|&i| in_net(&pairs[i])).collect();
    by_first.sort_by_key(|&i| pairs[i].0);

    let mut effect = vec![0i8; np];
    let mut moves = vec![0u32; np];
    let mut cancels = vec![0u32; pairs.len()];
    for t in net.transitions() {
        let tr = net.transition(t);
        let arcs = || tr.consumes().iter().chain(tr.produces());
        for &p in tr.consumes() {
            effect[p.index()] -= 1;
        }
        for &p in tr.produces() {
            effect[p.index()] += 1;
        }
        // a place both consumed and produced nets 0, so each place that
        // moves passes this test exactly once
        for &p in arcs() {
            let e = effect[p.index()];
            if e == 0 {
                continue;
            }
            moves[p.index()] += 1;
            let first = by_first.partition_point(|&i| pairs[i].0 < p);
            for &i in by_first[first..].iter().take_while(|&&i| pairs[i].0 == p) {
                if effect[pairs[i].1.index()] == -e {
                    cancels[i] += 1;
                }
            }
        }
        for &p in arcs() {
            effect[p.index()] = 0;
        }
    }

    let m0 = net.initial_marking();
    pairs.iter().enumerate().position(|(i, pair @ &(a, b))| {
        !in_net(pair)
            || moves[a.index()] != cancels[i]
            || moves[b.index()] != cancels[i]
            || u8::from(m0.is_marked(a)) + u8::from(m0.is_marked(b)) != 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PetriNet;

    fn ring(n: usize) -> PetriNet {
        let mut net = PetriNet::new();
        let places: Vec<PlaceId> = (0..n)
            .map(|i| net.add_place(format!("p{i}"), i == 0))
            .collect();
        for i in 0..n {
            let t = net.add_transition(format!("t{i}"));
            net.consume(t, places[i]);
            net.produce(t, places[(i + 1) % n]);
        }
        net
    }

    #[test]
    fn ring_token_count_is_invariant() {
        let net = ring(4);
        let all_ones = vec![1i64; 4];
        assert!(is_invariant(&net, &all_ones));
        assert_eq!(invariant_value(&all_ones, &net.initial_marking()), 1);
        // a skewed weighting is not invariant
        let skew = vec![2, 1, 1, 1];
        assert!(!is_invariant(&net, &skew));
    }

    #[test]
    fn read_arcs_do_not_affect_invariants() {
        let mut net = ring(3);
        let g = net.add_place("guard", true);
        let t0 = net.transition_by_name("t0").unwrap();
        net.read(t0, g);
        let mut w = vec![1i64; net.place_count()];
        w[g.index()] = 0;
        assert!(is_invariant(&net, &w));
        // the guard alone is also invariant (nothing consumes it)
        let mut wg = vec![0i64; net.place_count()];
        wg[g.index()] = 1;
        assert!(is_invariant(&net, &wg));
    }

    #[test]
    fn complementary_pair_certification() {
        let mut net = PetriNet::new();
        let x0 = net.add_place("x0", true);
        let x1 = net.add_place("x1", false);
        let up = net.add_transition("x+");
        net.consume(up, x0);
        net.produce(up, x1);
        let dn = net.add_transition("x-");
        net.consume(dn, x1);
        net.produce(dn, x0);
        assert_eq!(certify_complementary_pairs(&net, &[(x0, x1)]), None);

        // a net that can double-mark the pair fails certification
        let mut bad = PetriNet::new();
        let y0 = bad.add_place("y0", true);
        let y1 = bad.add_place("y1", false);
        let t = bad.add_transition("oops");
        bad.read(t, y0);
        bad.produce(t, y1);
        assert_eq!(certify_complementary_pairs(&bad, &[(y0, y1)]), Some(0));
    }

    #[test]
    fn pairs_outside_the_net_fail_certification() {
        let net = ring(2);
        let (p0, p1, far) = (
            PlaceId::from_index(0),
            PlaceId::from_index(1),
            PlaceId::from_index(7),
        );
        assert_eq!(certify_complementary_pairs(&net, &[(p0, p1)]), None);
        assert_eq!(
            certify_complementary_pairs(&net, &[(p0, p1), (p0, far)]),
            Some(1)
        );
        assert_eq!(certify_complementary_pairs(&net, &[(far, p1)]), Some(0));
    }
}

//! Net-level symmetries: cyclic automorphisms given by a place permutation.
//!
//! Wagged DFS pipelines replicate one structure `k` ways, and the rotation
//! mapping way `w` to `w+1 (mod k)` is an automorphism of the translated
//! net. [`Symmetry::new`] takes only the *place* permutation and derives
//! the matching transition permutation by arc-signature matching: the image
//! of a transition is the unique transition whose consume/produce/read sets
//! are exactly the permuted sets. If any transition has no such image the
//! map is not an automorphism and construction fails — so a successfully
//! built [`Symmetry`] is structure-preserving by construction.
//!
//! Note that the *initial marking* is deliberately **not** required to be
//! preserved: the quotient exploration of [`crate::engine`] is sound for an
//! asymmetric initial state (it canonicalizes it first and explores
//! `canon(Reach(s0))` — see the engine docs), which matters because a
//! wagged pipeline's control tokens start in way 0 only.

use crate::engine::StateSymmetry;
use crate::{PetriNet, PlaceId, TransitionId};
use std::collections::HashMap;

/// A cyclic automorphism of a [`PetriNet`], generated by one place
/// permutation and the transition permutation it induces.
#[derive(Debug, Clone)]
pub struct Symmetry {
    place_perm: Vec<u32>,
    transition_perm: Vec<u32>,
    /// The engine-level generator, built once at construction.
    state: StateSymmetry,
}

impl Symmetry {
    /// Builds the symmetry of `net` generated by `place_perm` (indexed by
    /// place, `place_perm[p]` = image of place `p`).
    ///
    /// # Errors
    ///
    /// When `place_perm` is not a permutation of the net's places, the
    /// induced map fails to be a net automorphism (some transition's
    /// permuted arc signature matches no transition, or two transitions
    /// collide on one image), or the generator's order is out of the
    /// engine's range ([`StateSymmetry::new`]).
    pub fn new(net: &PetriNet, place_perm: Vec<u32>) -> Result<Self, String> {
        if place_perm.len() != net.place_count() {
            return Err(format!(
                "place permutation covers {} of {} places",
                place_perm.len(),
                net.place_count()
            ));
        }
        let mut seen = vec![false; place_perm.len()];
        for &p in &place_perm {
            let i = p as usize;
            if i >= place_perm.len() || seen[i] {
                return Err(format!(
                    "not a permutation: place image {p} repeated or out of range"
                ));
            }
            seen[i] = true;
        }

        // arc signature (sorted consume/produce/read place sets) -> transition
        type ArcSignature = (Vec<PlaceId>, Vec<PlaceId>, Vec<PlaceId>);
        let signature = |t: TransitionId| -> ArcSignature {
            let tr = net.transition(t);
            (
                tr.consumes().to_vec(),
                tr.produces().to_vec(),
                tr.reads().to_vec(),
            )
        };
        let mut by_sig: HashMap<ArcSignature, u32> = HashMap::new();
        for t in net.transitions() {
            if by_sig.insert(signature(t), t.index() as u32).is_some() {
                return Err(format!(
                    "transitions with identical arc signatures (e.g. {}) make the induced map ambiguous",
                    net.transition(t).name
                ));
            }
        }

        let map_places = |ps: &[PlaceId]| -> Vec<PlaceId> {
            let mut out: Vec<PlaceId> = ps
                .iter()
                .map(|p| PlaceId::from_index(place_perm[p.index()] as usize))
                .collect();
            out.sort_unstable();
            out
        };
        let mut transition_perm = vec![0u32; net.transition_count()];
        let mut hit = vec![false; net.transition_count()];
        for t in net.transitions() {
            let tr = net.transition(t);
            let key = (
                map_places(tr.consumes()),
                map_places(tr.produces()),
                map_places(tr.reads()),
            );
            let Some(&img) = by_sig.get(&key) else {
                return Err(format!(
                    "not an automorphism: no transition matches the image of {}",
                    tr.name
                ));
            };
            if hit[img as usize] {
                return Err(format!(
                    "not an automorphism: two transitions map onto {}",
                    net.transition(TransitionId::from_index(img as usize)).name
                ));
            }
            hit[img as usize] = true;
            transition_perm[t.index()] = img;
        }

        let state = StateSymmetry::new(place_perm.clone(), transition_perm.clone())?;
        Ok(Symmetry {
            place_perm,
            transition_perm,
            state,
        })
    }

    /// Group order of the generator.
    #[must_use]
    pub fn order(&self) -> usize {
        self.state.order()
    }

    /// Image of a place under the generator.
    #[must_use]
    pub fn map_place(&self, p: PlaceId) -> PlaceId {
        PlaceId::from_index(self.place_perm[p.index()] as usize)
    }

    /// Image of a transition under the generator.
    #[must_use]
    pub fn map_transition(&self, t: TransitionId) -> TransitionId {
        TransitionId::from_index(self.transition_perm[t.index()] as usize)
    }

    /// The engine-level symmetry (marking-bit and transition-bit
    /// permutations) driving quotient exploration.
    #[must_use]
    pub fn state_symmetry(&self) -> StateSymmetry {
        self.state.clone()
    }

    /// Is `pairs` closed under the generator? (For each `(a, b)` the pair
    /// `(σa, σb)` — in either order — is also present.) Closure is the
    /// side-condition that makes a quotient 1-safety verdict over the pairs
    /// transfer to the full space; see
    /// [`crate::analysis::check`].
    #[must_use]
    pub fn pairs_closed(&self, pairs: &[(PlaceId, PlaceId)]) -> bool {
        use std::collections::HashSet;
        let norm = |a: PlaceId, b: PlaceId| -> (PlaceId, PlaceId) { (a.min(b), a.max(b)) };
        let set: HashSet<(PlaceId, PlaceId)> = pairs.iter().map(|&(a, b)| norm(a, b)).collect();
        pairs
            .iter()
            .all(|&(a, b)| set.contains(&norm(self.map_place(a), self.map_place(b))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring of `n` places, rotation-symmetric by construction.
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
    fn ring_rotation_is_an_automorphism() {
        let n = 6;
        let net = ring(n);
        let perm: Vec<u32> = (0..n as u32).map(|i| (i + 1) % n as u32).collect();
        let sym = Symmetry::new(&net, perm).unwrap();
        assert_eq!(sym.order(), n);
        // the induced transition map is the matching rotation
        for t in net.transitions() {
            assert_eq!(
                sym.map_transition(t).index(),
                (t.index() + 1) % n,
                "t{} mapped wrong",
                t.index()
            );
        }
    }

    #[test]
    fn broken_permutation_is_rejected() {
        let net = ring(4);
        // not a permutation
        assert!(Symmetry::new(&net, vec![0, 0, 1, 2]).is_err());
        // wrong width
        assert!(Symmetry::new(&net, vec![0, 1, 2]).is_err());
        // a permutation that is not an automorphism (swap two places of a
        // ring: arc structure is not preserved)
        assert!(Symmetry::new(&net, vec![1, 0, 2, 3]).is_err());
    }

    #[test]
    fn pair_closure_detects_open_sets() {
        let n = 4;
        let net = ring(n);
        let perm: Vec<u32> = (0..n as u32).map(|i| (i + 1) % n as u32).collect();
        let sym = Symmetry::new(&net, perm).unwrap();
        let p = |i: usize| PlaceId::from_index(i);
        // the full orbit of (p0, p1) is closed
        let closed = vec![(p(0), p(1)), (p(1), p(2)), (p(2), p(3)), (p(3), p(0))];
        assert!(sym.pairs_closed(&closed));
        // a lone pair is not
        assert!(!sym.pairs_closed(&closed[..1]));
        assert!(sym.pairs_closed(&[]));
    }

    /// Six disjoint one-token rings of prime lengths, each rotated by one
    /// place: a genuine automorphism whose order, 2·3·5·7·11·13 = 30030,
    /// is beyond the engine's bound. Construction must refuse it, not
    /// leave the panic to the first quotient exploration.
    #[test]
    fn out_of_range_order_is_rejected_at_construction() {
        let mut net = PetriNet::new();
        let mut perm = Vec::new();
        for len in [2usize, 3, 5, 7, 11, 13] {
            let base = net.place_count();
            let places: Vec<PlaceId> = (0..len)
                .map(|i| net.add_place(format!("r{len}_p{i}"), i == 0))
                .collect();
            for i in 0..len {
                let t = net.add_transition(format!("r{len}_t{i}"));
                net.consume(t, places[i]);
                net.produce(t, places[(i + 1) % len]);
                perm.push((base + (i + 1) % len) as u32);
            }
        }
        assert_eq!(net.place_count(), 41);
        let err = Symmetry::new(&net, perm).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }
}

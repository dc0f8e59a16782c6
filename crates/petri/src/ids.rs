//! Index newtypes for places and transitions.

use std::fmt;

/// Identifier of a place within a [`crate::PetriNet`].
///
/// `PlaceId`s are dense indices assigned in insertion order; they are only
/// meaningful for the net that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlaceId(pub(crate) u32);

/// Identifier of a transition within a [`crate::PetriNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TransitionId(pub(crate) u32);

impl PlaceId {
    /// The dense index of this place.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `PlaceId` from a raw index.
    ///
    /// Intended for tables that were themselves keyed by [`PlaceId::index`];
    /// passing an index not issued by the same net yields an id that panics
    /// or returns arbitrary places when used.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        PlaceId(u32::try_from(index).expect("place index exceeds u32"))
    }
}

impl TransitionId {
    /// The dense index of this transition.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `TransitionId` from a raw index (see [`PlaceId::from_index`]).
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        TransitionId(u32::try_from(index).expect("transition index exceeds u32"))
    }
}

impl fmt::Display for PlaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for TransitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_indices() {
        let p = PlaceId::from_index(7);
        assert_eq!(p.index(), 7);
        let t = TransitionId::from_index(9);
        assert_eq!(t.index(), 9);
    }

    #[test]
    fn display_forms() {
        assert_eq!(PlaceId::from_index(3).to_string(), "p3");
        assert_eq!(TransitionId::from_index(4).to_string(), "t4");
    }
}

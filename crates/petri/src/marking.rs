//! Markings of 1-safe nets, stored as fixed-width bitsets.

use crate::PlaceId;
use std::fmt;

/// A marking of a 1-safe net: the set of marked places.
///
/// Stored as a `u64` bitset so that markings hash and compare quickly during
/// state-space exploration. Cloning a marking is a small `Vec` copy.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Marking {
    words: Vec<u64>,
    /// Number of places this marking covers (bits above this are zero).
    len: u32,
}

impl Marking {
    /// Creates an empty (all-unmarked) marking over `places` places.
    #[must_use]
    pub fn empty(places: usize) -> Self {
        Marking {
            words: vec![0; places.div_ceil(64)],
            len: u32::try_from(places).expect("too many places"),
        }
    }

    /// Number of places covered by this marking.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` if the marking covers no places at all (a net with no places).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is `place` marked?
    ///
    /// # Panics
    ///
    /// Panics if `place` does not belong to a net with as many places.
    #[must_use]
    pub fn is_marked(&self, place: PlaceId) -> bool {
        let i = place.index();
        assert!(i < self.len(), "place {place} out of range");
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets the token count of `place` (true = one token, false = none).
    pub fn set(&mut self, place: PlaceId, marked: bool) {
        let i = place.index();
        assert!(i < self.len(), "place {place} out of range");
        let mask = 1u64 << (i % 64);
        if marked {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Builds a marking over `places` places from word-packed bits (as used
    /// by the [`crate::engine`] arena). Bits above `places` must be zero.
    pub(crate) fn from_words(words: Vec<u64>, places: usize) -> Self {
        debug_assert_eq!(words.len(), places.div_ceil(64));
        Marking {
            words,
            len: u32::try_from(places).expect("too many places"),
        }
    }

    /// Overwrites this marking's bits from a word slice of at least
    /// `len().div_ceil(64)` words (extra high words are ignored).
    pub(crate) fn copy_from_words(&mut self, words: &[u64]) {
        let n = self.words.len();
        self.words.copy_from_slice(&words[..n]);
    }

    /// Number of marked places.
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the marked places in increasing index order.
    pub fn iter_marked(&self) -> impl Iterator<Item = PlaceId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(PlaceId::from_index(wi * 64 + b))
            })
        })
    }
}

impl fmt::Debug for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Marking{{")?;
        for (i, p) in self.iter_marked().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_query() {
        let mut m = Marking::empty(130);
        assert_eq!(m.len(), 130);
        assert!(!m.is_empty());
        let p = PlaceId::from_index(129);
        assert!(!m.is_marked(p));
        m.set(p, true);
        assert!(m.is_marked(p));
        assert_eq!(m.count(), 1);
        m.set(p, false);
        assert!(!m.is_marked(p));
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn iter_marked_in_order() {
        let mut m = Marking::empty(200);
        for i in [0usize, 63, 64, 65, 128, 199] {
            m.set(PlaceId::from_index(i), true);
        }
        let got: Vec<usize> = m.iter_marked().map(PlaceId::index).collect();
        assert_eq!(got, vec![0, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn equality_and_hash_are_content_based() {
        use std::collections::HashSet;
        let mut a = Marking::empty(70);
        let mut b = Marking::empty(70);
        a.set(PlaceId::from_index(5), true);
        b.set(PlaceId::from_index(5), true);
        assert_eq!(a, b);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let m = Marking::empty(10);
        let _ = m.is_marked(PlaceId::from_index(10));
    }

    #[test]
    fn debug_is_never_empty() {
        let m = Marking::empty(4);
        assert_eq!(format!("{m:?}"), "Marking{}");
    }
}

//! The chip's linear-feedback shift register (Fig. 8a).
//!
//! "In the random mode, a series of `count` random numbers is generated
//! using a linear-feedback shift register (LFSR) based on a user-defined
//! seed" (§IV). We use a 32-bit Galois LFSR with the maximal-length tap
//! polynomial `x³² + x²² + x² + x + 1` (mask `0x8020_0003`), emitting
//! 16-bit data items from the low half of the state.

/// Maximal-length 32-bit Galois LFSR.
#[derive(Debug, Clone)]
pub struct Lfsr {
    state: u32,
}

/// Tap mask for `x³² + x²² + x² + x + 1`.
pub const TAPS: u32 = 0x8020_0003;

impl Lfsr {
    /// Creates an LFSR from a seed (0 is remapped to 1 — the all-zero
    /// state is the lock-up state of a Galois LFSR).
    #[must_use]
    pub fn new(seed: u32) -> Self {
        Lfsr {
            state: if seed == 0 { 1 } else { seed },
        }
    }

    /// Advances one step, returning the new 32-bit state.
    pub fn next_u32(&mut self) -> u32 {
        let lsb = self.state & 1;
        self.state >>= 1;
        if lsb == 1 {
            self.state ^= TAPS;
        }
        self.state
    }

    /// The next 16-bit data item (low half of the state).
    pub fn next_item(&mut self) -> u16 {
        (self.next_u32() & 0xFFFF) as u16
    }

    /// Generates `count` items.
    pub fn items(&mut self, count: usize) -> Vec<u16> {
        (0..count).map(|_| self.next_item()).collect()
    }
}

impl Iterator for Lfsr {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        Some(self.next_item())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u16> = Lfsr::new(0xCAFE).items(64);
        let b: Vec<u16> = Lfsr::new(0xCAFE).items(64);
        let c: Vec<u16> = Lfsr::new(0xBEEF).items(64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut z = Lfsr::new(0);
        let mut one = Lfsr::new(1);
        assert_eq!(z.next_u32(), one.next_u32());
        assert_ne!(z.next_u32(), 0, "never locks up");
    }

    #[test]
    fn state_never_repeats_early() {
        // maximal-length: no 32-bit state repetition within a short run
        let mut l = Lfsr::new(42);
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(l.next_u32()), "early cycle");
        }
    }

    #[test]
    fn items_cover_the_range_roughly() {
        let items = Lfsr::new(7).items(4_096);
        let low = items.iter().filter(|&&x| x < 0x8000).count();
        // crude uniformity check
        assert!((1_500..=2_600).contains(&low), "low half count {low}");
    }
}

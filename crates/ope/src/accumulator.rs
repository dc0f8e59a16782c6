//! The chip's checksum accumulator (Fig. 8a).
//!
//! "A checksum of the output stream is calculated in the accumulator and a
//! single data item is produced after all generated data is processed"
//! (§IV) — this removes the testbench interface from the measurement loop.
//! "The produced checksum is validated against the output of the OPE
//! behavioural model initialised with the same seed and count parameters."
//!
//! We use a 64-bit multiply-accumulate mix (order-sensitive, so any
//! reordering or dropped output is detected).

/// Order-sensitive checksum accumulator.
#[derive(Debug, Clone, Default)]
pub struct Accumulator {
    state: u64,
    count: u64,
}

/// Multiplier of the mixing step (a large odd constant).
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl Accumulator {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Accumulator::default()
    }

    /// Absorbs one output item.
    pub fn push(&mut self, item: u16) {
        self.state = self
            .state
            .wrapping_mul(MIX)
            .wrapping_add(u64::from(item))
            .rotate_left(7);
        self.count += 1;
    }

    /// The final checksum (includes the item count, so truncated runs
    /// differ).
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state.wrapping_mul(MIX) ^ self.count
    }

    /// Items absorbed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
}

/// Checksums a whole stream.
#[must_use]
pub fn checksum(items: impl IntoIterator<Item = u16>) -> u64 {
    let mut acc = Accumulator::new();
    for x in items {
        acc.push(x);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(checksum([1, 2, 3]), checksum([1, 2, 3]));
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(checksum([1, 2, 3]), checksum([3, 2, 1]));
    }

    #[test]
    fn length_sensitive() {
        assert_ne!(checksum([1, 2]), checksum([1, 2, 0]));
        assert_ne!(checksum([]), checksum([0]));
    }

    #[test]
    fn count_is_tracked() {
        let mut acc = Accumulator::new();
        acc.push(9);
        acc.push(9);
        assert_eq!(acc.count(), 2);
    }
}

//! Persistence glue between [`CompiledModel`](crate::CompiledModel) and
//! [`rap_store::Store`]: one hand-rolled, bit-exact byte codec per
//! artifact kind.
//!
//! Every encoder/decoder pair round-trips the artifact **bit for bit**
//! (floats travel as [`f64::to_bits`] patterns), which is what lets a
//! store-backed session honour the session coherence contract across
//! process restarts. Decoders are total: any defect — truncation,
//! trailing bytes, an impossible tag — yields `None`, the caller
//! quarantines the frame and recomputes. A decode failure therefore never
//! changes an answer, only its cost.
//!
//! Artifacts whose store subkey is a *digest* rather than the raw query
//! parameter (the steady-state query digests `(output, max_marks)`) echo
//! the raw parameters in their payload and verify them on decode, so even
//! a 64-bit subkey collision degrades to a recompute, never to a wrong
//! answer. The LTS query is deliberately **not** persisted: a state space
//! is the one artifact routinely larger than the model that produced it,
//! and re-exploring is exactly the cheap-and-safe degradation this layer
//! promises (the checks, which callers actually persist, capture the
//! verdicts).

use crate::model::CostSummary;
use dfs_core::perf::{Construction, CriticalCycle, PerfDetail, PerfReport};
use dfs_core::timed::SteadyStatePeriod;
use dfs_core::NodeId;
use rap_petri::analysis::{Deadlock, QuickCheck, QuickVerdict};
use rap_petri::reachability::StateId;
use rap_petri::{Marking, PlaceId, TransitionId};
use rap_store::codec::{Reader, Writer};
use rap_store::{ArtifactKey, QueryKind, Store};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// The store context a [`CompiledModel`](crate::CompiledModel) persists
/// through: the shared store plus the model's two identity digests, fixed
/// at compile (intern) time.
pub(crate) struct Persist {
    pub store: Arc<Store>,
    pub structural: u64,
    pub identity: u64,
    /// The check frames this model has claimed, by kind and budget:
    /// loaded, or committed. Checks are shared by timing twins, but every
    /// twin files them under its own key, exactly once per budget.
    check_frames: Mutex<HashSet<(QueryKind, usize)>>,
}

/// How a persisted check was derived. A check payload starts with it and
/// [`decode_check`] serves a frame only to a query of the same derivation,
/// so a frame never answers for another exploration (or for a parent
/// build's full-space frame under the screen's key, which carries no
/// derivation at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CheckDerivation {
    /// `quick_check`: the full state space.
    Full,
    /// `screen`: stubborn sets, on the quotient under the rotation whose
    /// digest this is, if any.
    Reduced { rotation: Option<u64> },
}

impl CheckDerivation {
    /// The screen's derivation under `rotation`.
    pub fn reduced(rotation: Option<&[u32]>) -> Self {
        use dfs_core::hash::mix64;
        CheckDerivation::Reduced {
            rotation: rotation.map(|r| {
                r.iter().fold(mix64(0x5c4e_e11d ^ r.len() as u64), |h, &i| {
                    mix64(h ^ u64::from(i))
                })
            }),
        }
    }

    /// The store kind the derivation files under.
    fn kind(self) -> QueryKind {
        match self {
            CheckDerivation::Full => QueryKind::FullCheck,
            CheckDerivation::Reduced { .. } => QueryKind::Check,
        }
    }
}

impl Persist {
    pub fn new(store: Arc<Store>, structural: u64, identity: u64) -> Self {
        Persist {
            store,
            structural,
            identity,
            check_frames: Mutex::default(),
        }
    }

    /// `true` for the first caller per kind and `budget`: the one that
    /// settles this model's own check frame.
    pub fn claim_check(&self, budget: usize, derivation: CheckDerivation) -> bool {
        self.check_frames
            .lock()
            .expect("check frames")
            .insert((derivation.kind(), budget))
    }

    fn key(&self, kind: QueryKind, subkey: u64) -> ArtifactKey {
        ArtifactKey {
            structural: self.structural,
            identity: self.identity,
            kind,
            subkey,
        }
    }

    /// Loads + decodes, quarantining a frame whose checksum verified but
    /// whose payload fails schema decoding (equally corrupt to a caller).
    fn load_with<T>(&self, key: &ArtifactKey, decode: impl Fn(&[u8]) -> Option<T>) -> Option<T> {
        let payload = self.store.load(key)?;
        match decode(&payload) {
            Some(v) => Some(v),
            None => {
                self.store.quarantine(key);
                None
            }
        }
    }

    pub fn load_perf(&self) -> Option<PerfDetail> {
        self.load_with(&self.key(QueryKind::Perf, 0), decode_perf)
    }

    pub fn save_perf(&self, detail: &PerfDetail) {
        self.store
            .save(&self.key(QueryKind::Perf, 0), &encode_perf(detail));
    }

    pub fn load_check(&self, budget: usize, derivation: CheckDerivation) -> Option<QuickCheck> {
        self.load_with(&self.key(derivation.kind(), budget as u64), |b| {
            decode_check(b, derivation)
        })
    }

    pub fn save_check(&self, budget: usize, derivation: CheckDerivation, check: &QuickCheck) {
        self.store.save(
            &self.key(derivation.kind(), budget as u64),
            &encode_check(check, derivation),
        );
    }

    pub fn load_cost(&self, cache_key: u64) -> Option<CostSummary> {
        self.load_with(&self.key(QueryKind::Cost, cache_key), decode_cost)
    }

    pub fn save_cost(&self, cache_key: u64, summary: &CostSummary) {
        self.store
            .save(&self.key(QueryKind::Cost, cache_key), &encode_cost(summary));
    }

    pub fn load_steady(&self, output: NodeId, max_marks: u64) -> Option<SteadyStatePeriod> {
        self.load_with(
            &self.key(QueryKind::Steady, steady_subkey(output, max_marks)),
            |b| decode_steady(b, output, max_marks),
        )
    }

    pub fn save_steady(&self, output: NodeId, max_marks: u64, sp: &SteadyStatePeriod) {
        self.store.save(
            &self.key(QueryKind::Steady, steady_subkey(output, max_marks)),
            &encode_steady(output, max_marks, sp),
        );
    }
}

/// The steady query's two raw parameters folded into one subkey — the
/// payload echoes both, so a fold collision is caught on decode.
pub(crate) fn steady_subkey(output: NodeId, max_marks: u64) -> u64 {
    use dfs_core::hash::mix64;
    mix64(mix64(0x0057_ead7 ^ output.index() as u64) ^ max_marks)
}

// ---- PerfDetail ----------------------------------------------------------

pub(crate) fn encode_perf(detail: &PerfDetail) -> Vec<u8> {
    let mut w = Writer::new();
    let r = &detail.report;
    w.f64(r.period);
    w.f64(r.throughput);
    w.u64(r.critical.nodes.len() as u64);
    for n in &r.critical.nodes {
        w.str(n);
    }
    w.f64(r.critical.delay);
    w.u32(r.critical.tokens);
    w.str(&r.critical.bottleneck);
    match r.construction {
        Construction::Direct => w.u8(0),
        Construction::PhaseUnfolded { phases } => {
            w.u8(1);
            w.u32(phases);
        }
    }
    w.u64(detail.activity_per_item.len() as u64);
    for &a in &detail.activity_per_item {
        w.f64(a);
    }
    w.into_bytes()
}

pub(crate) fn decode_perf(bytes: &[u8]) -> Option<PerfDetail> {
    let mut r = Reader::new(bytes);
    let period = r.f64()?;
    let throughput = r.f64()?;
    let n_nodes = usize::try_from(r.u64()?).ok()?;
    let mut nodes = Vec::with_capacity(n_nodes.min(bytes.len()));
    for _ in 0..n_nodes {
        nodes.push(r.str()?);
    }
    let delay = r.f64()?;
    let tokens = r.u32()?;
    let bottleneck = r.str()?;
    let construction = match r.u8()? {
        0 => Construction::Direct,
        1 => Construction::PhaseUnfolded { phases: r.u32()? },
        _ => return None,
    };
    let n_act = usize::try_from(r.u64()?).ok()?;
    let mut activity_per_item = Vec::with_capacity(n_act.min(bytes.len()));
    for _ in 0..n_act {
        activity_per_item.push(r.f64()?);
    }
    r.finish()?;
    Some(PerfDetail {
        report: PerfReport {
            period,
            throughput,
            critical: CriticalCycle {
                nodes,
                delay,
                tokens,
                bottleneck,
            },
            construction,
        },
        activity_per_item,
    })
}

// ---- QuickCheck ----------------------------------------------------------

fn encode_verdict(w: &mut Writer, v: QuickVerdict) {
    match v {
        QuickVerdict::Holds => w.u8(0),
        QuickVerdict::Violated => w.u8(1),
        QuickVerdict::Inconclusive { budget } => {
            w.u8(2);
            w.u64(budget as u64);
        }
    }
}

fn decode_verdict(r: &mut Reader<'_>) -> Option<QuickVerdict> {
    Some(match r.u8()? {
        0 => QuickVerdict::Holds,
        1 => QuickVerdict::Violated,
        2 => QuickVerdict::Inconclusive {
            budget: usize::try_from(r.u64()?).ok()?,
        },
        _ => return None,
    })
}

fn encode_marking(w: &mut Writer, m: &Marking) {
    w.u64(m.len() as u64);
    let mut byte = 0u8;
    for i in 0..m.len() {
        if m.is_marked(PlaceId::from_index(i)) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            w.u8(byte);
            byte = 0;
        }
    }
    if !m.len().is_multiple_of(8) {
        w.u8(byte);
    }
}

fn decode_marking(r: &mut Reader<'_>) -> Option<Marking> {
    let len = usize::try_from(r.u64()?).ok()?;
    // refuse absurd lengths before allocating (a corrupt length would
    // otherwise ask for gigabytes)
    if len > u32::MAX as usize {
        return None;
    }
    let mut m = Marking::empty(len);
    let mut byte = 0u8;
    for i in 0..len {
        if i % 8 == 0 {
            byte = r.u8()?;
        }
        if byte & (1 << (i % 8)) != 0 {
            m.set(PlaceId::from_index(i), true);
        }
    }
    Some(m)
}

/// Opens every check payload: a payload without it predates derivation
/// records.
const CHECK_MAGIC: u32 = 0x4b43_4852;

fn encode_derivation(w: &mut Writer, d: CheckDerivation) {
    w.u32(CHECK_MAGIC);
    match d {
        CheckDerivation::Full => w.u8(0),
        CheckDerivation::Reduced { rotation: None } => w.u8(1),
        CheckDerivation::Reduced {
            rotation: Some(digest),
        } => {
            w.u8(2);
            w.u64(digest);
        }
    }
}

fn decode_derivation(r: &mut Reader<'_>) -> Option<CheckDerivation> {
    if r.u32()? != CHECK_MAGIC {
        return None;
    }
    Some(match r.u8()? {
        0 => CheckDerivation::Full,
        1 => CheckDerivation::Reduced { rotation: None },
        2 => CheckDerivation::Reduced {
            rotation: Some(r.u64()?),
        },
        _ => return None,
    })
}

pub(crate) fn encode_check(c: &QuickCheck, derivation: CheckDerivation) -> Vec<u8> {
    let mut w = Writer::new();
    encode_derivation(&mut w, derivation);
    w.u64(c.states as u64);
    w.u8(u8::from(c.truncated));
    encode_verdict(&mut w, c.deadlock_free);
    match &c.deadlock {
        None => w.u8(0),
        Some(d) => {
            w.u8(1);
            w.u64(d.state.index() as u64);
            encode_marking(&mut w, &d.marking);
            w.u64(d.trace.len() as u64);
            for t in &d.trace {
                w.u32(u32::try_from(t.index()).expect("transition index fits u32"));
            }
        }
    }
    encode_verdict(&mut w, c.safe);
    match c.unsafe_witness {
        None => w.u8(0),
        Some((state, pair)) => {
            w.u8(1);
            w.u64(state.index() as u64);
            w.u64(pair as u64);
        }
    }
    w.into_bytes()
}

/// A witness state index; `None` past `u32`, where [`StateId::from_index`]
/// would panic.
fn decode_state(r: &mut Reader<'_>) -> Option<StateId> {
    let index = u32::try_from(r.u64()?).ok()?;
    Some(StateId::from_index(index as usize))
}

/// Decodes a check payload of exactly `derivation`; `None` for any other
/// derivation, and for a payload that records none.
pub(crate) fn decode_check(bytes: &[u8], derivation: CheckDerivation) -> Option<QuickCheck> {
    let mut r = Reader::new(bytes);
    if decode_derivation(&mut r)? != derivation {
        return None;
    }
    let states = usize::try_from(r.u64()?).ok()?;
    let truncated = match r.u8()? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let deadlock_free = decode_verdict(&mut r)?;
    let deadlock = match r.u8()? {
        0 => None,
        1 => {
            let state = decode_state(&mut r)?;
            let marking = decode_marking(&mut r)?;
            let n = usize::try_from(r.u64()?).ok()?;
            let mut trace = Vec::with_capacity(n.min(bytes.len()));
            for _ in 0..n {
                trace.push(TransitionId::from_index(r.u32()? as usize));
            }
            Some(Deadlock {
                state,
                marking,
                trace,
            })
        }
        _ => return None,
    };
    let safe = decode_verdict(&mut r)?;
    let unsafe_witness = match r.u8()? {
        0 => None,
        1 => {
            let state = decode_state(&mut r)?;
            let pair = usize::try_from(r.u64()?).ok()?;
            Some((state, pair))
        }
        _ => return None,
    };
    r.finish()?;
    Some(QuickCheck {
        states,
        truncated,
        deadlock_free,
        deadlock,
        safe,
        unsafe_witness,
    })
}

// ---- CostSummary ---------------------------------------------------------

pub(crate) fn encode_cost(s: &CostSummary) -> Vec<u8> {
    let mut w = Writer::new();
    w.f64(s.area);
    w.f64(s.switched_ge_per_item);
    w.into_bytes()
}

pub(crate) fn decode_cost(bytes: &[u8]) -> Option<CostSummary> {
    let mut r = Reader::new(bytes);
    let area = r.f64()?;
    let switched_ge_per_item = r.f64()?;
    r.finish()?;
    Some(CostSummary {
        area,
        switched_ge_per_item,
    })
}

// ---- SteadyStatePeriod ---------------------------------------------------

pub(crate) fn encode_steady(output: NodeId, max_marks: u64, sp: &SteadyStatePeriod) -> Vec<u8> {
    let mut w = Writer::new();
    // echo the raw query parameters: the subkey is a digest of them
    w.u64(output.index() as u64);
    w.u64(max_marks);
    w.f64(sp.period);
    w.u64(sp.cycle_marks);
    w.u64(sp.transient_marks);
    w.into_bytes()
}

pub(crate) fn decode_steady(
    bytes: &[u8],
    output: NodeId,
    max_marks: u64,
) -> Option<SteadyStatePeriod> {
    let mut r = Reader::new(bytes);
    if r.u64()? != output.index() as u64 || r.u64()? != max_marks {
        return None; // subkey digest collision: alien parameters
    }
    let period = r.f64()?;
    let cycle_marks = r.u64()?;
    let transient_marks = r.u64()?;
    r.finish()?;
    Some(SteadyStatePeriod {
        period,
        cycle_marks,
        transient_marks,
    })
}

// Bit-exact round-trip proptests over *arbitrary* artifacts of every
// persisted kind — including NaNs, infinities and signed zeros, which is
// why every float comparison below is on `to_bits`. Truncation totality
// is pinned too: decoders must answer `None`, never panic, on any prefix.
#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_f64() -> impl Strategy<Value = f64> {
        any::<u64>().prop_map(f64::from_bits)
    }

    fn arb_name() -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<u8>(), 0..12).prop_map(|v| {
            // arbitrary bytes folded into valid UTF-8 (multi-byte included)
            v.into_iter()
                .map(|b| char::from_u32(u32::from(b) + 1).unwrap_or('·'))
                .collect()
        })
    }

    fn arb_perf() -> impl Strategy<Value = PerfDetail> {
        (
            (arb_f64(), arb_f64(), arb_f64(), any::<u32>()),
            proptest::collection::vec(arb_name(), 0..6),
            arb_name(),
            (any::<bool>(), any::<u32>()),
            proptest::collection::vec(arb_f64(), 0..20),
        )
            .prop_map(
                |(
                    (period, throughput, delay, tokens),
                    nodes,
                    bottleneck,
                    (direct, phases),
                    act,
                )| {
                    PerfDetail {
                        report: PerfReport {
                            period,
                            throughput,
                            critical: CriticalCycle {
                                nodes,
                                delay,
                                tokens,
                                bottleneck,
                            },
                            construction: if direct {
                                Construction::Direct
                            } else {
                                Construction::PhaseUnfolded { phases }
                            },
                        },
                        activity_per_item: act,
                    }
                },
            )
    }

    fn verdict_from(tag: u8, budget: u64) -> QuickVerdict {
        match tag % 3 {
            0 => QuickVerdict::Holds,
            1 => QuickVerdict::Violated,
            _ => QuickVerdict::Inconclusive {
                budget: budget as usize,
            },
        }
    }

    fn arb_check() -> impl Strategy<Value = QuickCheck> {
        (
            (any::<u32>(), any::<bool>()),
            (any::<u8>(), any::<u32>(), any::<u8>(), any::<u32>()),
            (
                any::<bool>(),
                any::<u32>(),
                proptest::collection::vec(any::<bool>(), 0..40),
                proptest::collection::vec(any::<u32>(), 0..10),
            ),
            (any::<bool>(), any::<u32>(), any::<u32>()),
        )
            .prop_map(
                |(
                    (states, truncated),
                    (v1, b1, v2, b2),
                    (has_deadlock, dstate, places, trace),
                    (has_witness, wstate, pair),
                )| {
                    let deadlock = has_deadlock.then(|| {
                        let mut marking = Marking::empty(places.len());
                        for (i, &m) in places.iter().enumerate() {
                            marking.set(PlaceId::from_index(i), m);
                        }
                        Deadlock {
                            state: StateId::from_index(dstate as usize),
                            marking,
                            trace: trace
                                .iter()
                                .map(|&t| TransitionId::from_index(t as usize))
                                .collect(),
                        }
                    });
                    QuickCheck {
                        states: states as usize,
                        truncated,
                        deadlock_free: verdict_from(v1, u64::from(b1)),
                        deadlock,
                        safe: verdict_from(v2, u64::from(b2)),
                        unsafe_witness: has_witness
                            .then(|| (StateId::from_index(wstate as usize), pair as usize)),
                    }
                },
            )
    }

    fn perf_bits_equal(a: &PerfDetail, b: &PerfDetail) -> bool {
        let (ra, rb) = (&a.report, &b.report);
        ra.period.to_bits() == rb.period.to_bits()
            && ra.throughput.to_bits() == rb.throughput.to_bits()
            && ra.critical.nodes == rb.critical.nodes
            && ra.critical.delay.to_bits() == rb.critical.delay.to_bits()
            && ra.critical.tokens == rb.critical.tokens
            && ra.critical.bottleneck == rb.critical.bottleneck
            && ra.construction == rb.construction
            && a.activity_per_item.len() == b.activity_per_item.len()
            && a.activity_per_item
                .iter()
                .zip(&b.activity_per_item)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn perf_round_trips_bit_exact(detail in arb_perf()) {
            let bytes = encode_perf(&detail);
            let back = decode_perf(&bytes).expect("round trip");
            prop_assert!(perf_bits_equal(&detail, &back));
        }

        #[test]
        fn perf_decode_is_total_on_truncation(detail in arb_perf(), cut in any::<u32>()) {
            let bytes = encode_perf(&detail);
            let cut = cut as usize % (bytes.len() + 1);
            if cut < bytes.len() {
                prop_assert!(decode_perf(&bytes[..cut]).is_none());
            }
        }

        #[test]
        fn check_round_trips_bit_exact_and_only_to_its_derivation(
            check in arb_check(),
            (kind, digest, other) in (0u8..3, any::<u64>(), 0u8..2),
        ) {
            let derivation = derivation_of(kind, digest);
            let bytes = encode_check(&check, derivation);
            let back = decode_check(&bytes, derivation).expect("round trip");
            prop_assert_eq!(check, back);
            // another kind, or the same quotient under another rotation
            let other = derivation_of((kind + 1 + other) % 3, digest);
            prop_assert!(decode_check(&bytes, other).is_none());
            if kind == 2 {
                prop_assert!(decode_check(&bytes, derivation_of(2, digest ^ 1)).is_none());
            }
        }

        #[test]
        fn check_decode_is_total_on_truncation(check in arb_check(), cut in any::<u32>()) {
            let derivation = CheckDerivation::reduced(Some(&[1, 0]));
            let bytes = encode_check(&check, derivation);
            let cut = cut as usize % (bytes.len() + 1);
            if cut < bytes.len() {
                prop_assert!(decode_check(&bytes[..cut], derivation).is_none());
            }
        }

        #[test]
        fn cost_round_trips_bit_exact(area in arb_f64(), switched in arb_f64()) {
            let summary = CostSummary { area, switched_ge_per_item: switched };
            let back = decode_cost(&encode_cost(&summary)).expect("round trip");
            prop_assert_eq!(summary.area.to_bits(), back.area.to_bits());
            prop_assert_eq!(
                summary.switched_ge_per_item.to_bits(),
                back.switched_ge_per_item.to_bits()
            );
        }

        #[test]
        fn steady_round_trips_and_verifies_parameters(
            node in 0u32..1000,
            marks in any::<u64>(),
            period in arb_f64(),
            cycle in any::<u64>(),
            transient in any::<u64>(),
        ) {
            let sp = SteadyStatePeriod {
                period,
                cycle_marks: cycle,
                transient_marks: transient,
            };
            let output = node_id(node as usize);
            let bytes = encode_steady(output, marks, &sp);
            let back = decode_steady(&bytes, output, marks).expect("round trip");
            prop_assert_eq!(sp.period.to_bits(), back.period.to_bits());
            prop_assert_eq!(sp.cycle_marks, back.cycle_marks);
            prop_assert_eq!(sp.transient_marks, back.transient_marks);
            // an echoed-parameter mismatch (digest collision stand-in) is
            // rejected even though the bytes are pristine
            prop_assert!(decode_steady(&bytes, output, marks ^ 1).is_none());
            prop_assert!(decode_steady(&bytes, node_id(node as usize + 1), marks).is_none());
        }
    }

    /// A check payload with `index` in the deadlock or the unsafe witness
    /// slot, well-formed otherwise.
    fn check_with_witness_index(deadlock_slot: bool, index: u64) -> Vec<u8> {
        let mut w = Writer::new();
        encode_derivation(&mut w, CheckDerivation::Full);
        w.u64(10);
        w.u8(0);
        encode_verdict(&mut w, QuickVerdict::Violated);
        if deadlock_slot {
            w.u8(1);
            w.u64(index);
            encode_marking(&mut w, &Marking::empty(3));
            w.u64(0);
        } else {
            w.u8(0);
        }
        encode_verdict(&mut w, QuickVerdict::Violated);
        if deadlock_slot {
            w.u8(0);
        } else {
            w.u8(1);
            w.u64(index);
            w.u64(0);
        }
        w.into_bytes()
    }

    /// A frame whose checksum verifies but whose witness names a state past
    /// `u32` decodes to `None`, so the caller quarantines and recomputes it
    /// instead of panicking in `StateId::from_index`.
    #[test]
    fn check_decode_rejects_witness_states_past_u32() {
        for deadlock_slot in [true, false] {
            let fits = check_with_witness_index(deadlock_slot, u64::from(u32::MAX));
            assert!(
                decode_check(&fits, CheckDerivation::Full).is_some(),
                "deadlock slot {deadlock_slot}"
            );
            let past = check_with_witness_index(deadlock_slot, u64::from(u32::MAX) + 7);
            assert_eq!(
                decode_check(&past, CheckDerivation::Full),
                None,
                "deadlock slot {deadlock_slot}"
            );
        }
    }

    /// The derivation `kind` (0 full, 1 reduced, 2 reduced on a quotient
    /// whose rotation digests to `digest`).
    fn derivation_of(kind: u8, digest: u64) -> CheckDerivation {
        match kind {
            0 => CheckDerivation::Full,
            1 => CheckDerivation::Reduced { rotation: None },
            _ => CheckDerivation::Reduced {
                rotation: Some(digest),
            },
        }
    }

    /// A payload written before checks recorded their derivation — the
    /// parent layout, states first — is served to no derivation, so an
    /// old full-space frame under the screen's key is recomputed.
    #[test]
    fn a_payload_without_a_derivation_is_not_served() {
        let check = QuickCheck {
            states: 20_000,
            truncated: true,
            deadlock_free: QuickVerdict::Inconclusive { budget: 20_000 },
            deadlock: None,
            safe: QuickVerdict::Inconclusive { budget: 20_000 },
            unsafe_witness: None,
        };
        let current = encode_check(&check, CheckDerivation::Full);
        let old = &current[5..];
        for kind in 0..3 {
            assert_eq!(decode_check(old, derivation_of(kind, 7)), None);
        }
    }

    /// Builds a NodeId from a raw index for the tests.
    fn node_id(index: usize) -> NodeId {
        NodeId::from_index(index)
    }
}

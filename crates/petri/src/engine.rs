//! Shared state-space engine: one breadth-first driver with event-driven
//! enabledness, dead-state recording and symmetry reduction.
//!
//! Both explicit-state explorers of the workspace — Petri-net reachability
//! ([`crate::reachability`]) and the direct DFS semantics (`dfs-core::Lts`)
//! — are breadth-first fixpoints over a successor relation on *word-packed*
//! states ([`TransitionSystem`]). [`explore`] is the one driver over that
//! abstraction: arena-interned states, an open-addressing dedup table,
//! event-driven enabledness, and optional symmetry reduction
//! ([`StateSymmetry`]). One [`ExploreConfig`] carries its state budget,
//! wall-clock deadline and the `rap-obs` handle it records into. It is
//! pinned state-for-state against the seed explorers of the dev-only
//! `rap-oracle` crate, which return plain vectors and share none of this
//! module's code.
//!
//! Its result is the one state-space type of the workspace,
//! [`StateSpace<A>`](StateSpace), generic over the edge label (the system's
//! [`TransitionSystem::Action`]), and every accessor the two backends share
//! — counts, successors, dead list, raw state words, traces and rotations —
//! is defined on it once. Marking accessors are added for nets in
//! [`crate::reachability`]; `dfs-core`'s `Lts` wraps a `StateSpace<Event>`
//! with DFS-state decoding.
//!
//! The driver is serial. Parallelism lives one level up, in the design-space
//! driver (`rap-dse`), whose workers evaluate independent candidates and so
//! need no determinism machinery.
//!
//! # States, not edges
//!
//! A space stores its states — the arena, each state's parent, the dead
//! list — and the dedup index over them, but
//! no edge: the largest spaces hold several times more edges than states
//! (8.5M edges for the 1.48M states of the 2-way wagged pipeline), and
//! nearly every query reads states only. Like explicit-state checkers that
//! store states and regenerate transitions on demand (Murφ, SPIN), the
//! space keeps the system it was explored from, and
//! [`StateSpace::successors`] re-expands a state from its bits when asked:
//! its enabled set (or, on a reduced space, the stubborn subset chosen
//! again from the state and the parent that discovered it), each action
//! fired, canonicalized on a quotient and looked up in the index. Each
//! listing pays one expansion, with the enabled set computed from scratch
//! (the driver updates it incrementally), and answers exactly what the
//! driver explored, truncated runs included (see
//! [`StateSpace::successors`]). Listing every state's successors of the
//! 1.48M-state wagged space takes 2.4 s on the Petri net and 2.8 s on the
//! LTS (release build, 2-core container). `engine.edges` still counts the
//! edges the run expanded.
//!
//! Nor does a space store the action that discovered each state, which
//! only witness traces read. A trace re-derives each step from the
//! stored states (Holzmann, "The model checker SPIN", 1997): the step's
//! action is the first one its parent fires, in firing order, whose
//! target is the step's state — by construction the one that discovered
//! it ([`StateSpace::trace_to`]). [`StateSpace::concrete_traces_to`]
//! derives each path state's action once for a whole batch of traces,
//! which is how [`crate::analysis::check`] builds its witnesses.
//!
//! # What a state costs
//!
//! A stored state costs its words (`stride` × 8 bytes: 16 for a net of up
//! to 128 places), a 4-byte parent id, 2 to 4 bytes of discovery rotation
//! on a quotient (a vector that doubles), and 6.7 to 13.3 bytes of dedup
//! index, whose 5-byte slots (a state id and a one-byte hash tag) double
//! past 3/4 load. Nothing else grows with the space: [`explore`]
//! holds enabled sets for three BFS levels only — the level it expands,
//! its parents' level (which the stubborn choice reads) and the level it
//! discovers — and drops them when the run ends. The words and the
//! parent ids live in blocks of [`BLOCK_STATES`] states that are
//! appended and never moved, so the space keeps at most one block of
//! slack and growing it copies nothing; only the first block grows like
//! a vector, so a small screen reserves no more than it holds up to
//! doubling. The 1.48M-state Petri space of the 2-way wagged pipeline
//! thus retains 40.3 MB ([`StateSpace::heap_bytes`]): 23.9 MB of words,
//! 6.0 MB of parent ids and 10.5 MB of index (2^21 slots).
//!
//! # Determinism
//!
//! State ids are BFS discovery order (0 = initial state), a state's parent
//! is the state whose expansion discovered it, edges are listed in firing
//! (action) order, and a state budget stops exploration at the first state
//! that would exceed it. Witness traces, dead lists and truncation points
//! are therefore a function of the system and the budget alone.
//!
//! # Dead states
//!
//! The driver computes each state's enabled set when it commits the state
//! and keeps it only until the level after the state's own has been
//! expanded (see [What a state costs](self#what-a-state-costs)), so it
//! records at the commit, once, whether that set is empty.
//! [`StateSpace::deadlocks`] is the resulting ascending list of dead states.
//! It covers *every* committed state, frontier states of a truncated run
//! included, so "dead" never has to be re-derived from the successors, where
//! an unexpanded frontier state and a deadlock look alike. In a quotient the
//! recorded set is the representative's, and deadness is orbit-invariant.
//!
//! # Watching the run
//!
//! A caller that decides properties as the states stream past passes a
//! [`Watch`] to [`explore`], which shows it each state as it commits and
//! each edge as it is listed, with the enabled set of the state expanded.
//! A watch only observes. The no-op `()` compiles to the plain loop.
//!
//! # Symmetry reduction
//!
//! Wagged pipelines replicate one structure `k` ways; the rotation mapping
//! way `w` to `w+1 (mod k)` generates a cyclic automorphism group of the
//! model. [`StateSymmetry`] holds that generator as a state-bit and an
//! action permutation; the engine then canonicalizes every successor to the
//! lexicographically-least state in its rotation orbit before dedup and
//! explores the quotient. Soundness does *not* require the initial state to
//! be symmetric: starting from `canon(s0)`, equivariance of the firing rule
//! (`fire(σa, σs) = σ fire(a, s)`) makes the discovered set exactly
//! `canon(Reach(s0))`, so orbit-invariant properties — deadlock-freedom,
//! 1-safety over a pair set closed under the permutation — hold in the
//! quotient iff they hold in the full space. Each state records the
//! rotation applied at its discovery, so concrete (replayable) witness
//! traces are reconstructed by un-rotating each step's action
//! ([`StateSymmetry::unrotate_action`], [`StateSpace::concrete_trace_to`]).
//!
//! # Stubborn sets
//!
//! With [`ExploreConfig::stubborn`] the driver expands, in each state, only
//! the enabled members of a *strong stubborn set*
//! ([`TransitionSystem::write_stubborn`]; Valmari, "Stubborn sets for
//! reduced state space generation", 1990). For a net it is built from the
//! [`Incidence`] masks, starting from one enabled seed and closing under
//! two conditions:
//!
//! - an **enabled** member `t` brings in every transition that can disable
//!   it (unmarks one of `t`'s `need` places or marks one of its `forbid`
//!   places) and every transition `t` can disable. Whatever fires outside
//!   the set then neither disables `t` nor fails to commute with it;
//! - a **disabled** member brings in every transition that can repair one
//!   of its failing conditions (empty a marked `forbid` place, or mark an
//!   empty `need` place), choosing the condition with the fewest such
//!   transitions not yet in the set — the first such condition, with the
//!   `forbid` places before the `need` places, each in place order.
//!   Nothing outside the set can then enable it.
//!
//! Seeds are tried in a fixed order — first the transitions the
//! discovering firing newly enabled, then the rest, in index order — and
//! the set with the fewest enabled members wins, the search stopping at
//! the first singleton. Such a set preserves every reachable dead state:
//! from any state, some path to each reachable deadlock starts with a
//! member of the set. It does **not** preserve state properties, so a
//! reduced space answers "which dead states are reachable" and nothing
//! else. Dead states stay exact because they are still recorded from each
//! committed state's *full* enabled set; only the expansion is reduced.
//!
//! The reduction composes with the quotient (Emerson, Jha & Peled,
//! "Combining partial order and symmetry reductions", 1997): the set is
//! computed on the representative, whose own enabled set the driver
//! keeps, and the rotation is a net automorphism, so the image of a
//! reduced path is again a path. Every representative's stubborn set is
//! a valid stubborn set of a state reachable up to rotation, and the dead
//! representatives are exactly the canonical images of the reachable dead
//! states.

use crate::{PetriNet, TransitionId};
use rap_obs::Obs;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Sentinel parent id of the initial state.
const NO_PARENT: u32 = u32::MAX;

/// Is the word-packed enabled set `en` empty?
#[inline]
fn none_enabled(en: &[u64]) -> bool {
    en.iter().all(|&w| w == 0)
}

/// Reads bit `i` of a word-packed bitset.
#[must_use]
#[inline]
pub fn get_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

/// Writes bit `i` of a word-packed bitset.
#[inline]
pub fn set_bit(words: &mut [u64], i: usize, v: bool) {
    let mask = 1u64 << (i % 64);
    if v {
        words[i / 64] |= mask;
    } else {
        words[i / 64] &= !mask;
    }
}

/// A transition system whose states are fixed-width `u64` bitset slices.
///
/// All slices handed to the methods have length
/// `state_bits().div_ceil(64).max(1)` (states) or
/// `actions().len().div_ceil(64).max(1)` (enabled sets); unused high bits
/// are zero and must stay zero.
///
/// Methods take `&mut self` so implementations can keep decode/scratch
/// buffers without interior mutability; [`explore`] takes the instance
/// and the space it returns keeps it, to re-expand states for
/// [`StateSpace::successors`].
pub trait TransitionSystem {
    /// The edge label of the explored [`StateSpace`].
    type Action: Copy;

    /// Number of bits a state occupies.
    fn state_bits(&self) -> usize;

    /// The action table: action `a` of the methods below is labelled
    /// `actions()[a]` (its length is the enabled-set width in bits).
    fn actions(&self) -> &[Self::Action];

    /// Writes the initial state into `out` (pre-zeroed).
    fn write_initial(&mut self, out: &mut [u64]);

    /// Computes the enabled set of `state` from scratch (pre-zeroed `out`).
    /// The driver calls it for the initial state only;
    /// [`StateSpace::successors`] calls it to re-expand a state.
    fn write_enabled_full(&mut self, state: &[u64], out: &mut [u64]);

    /// Applies the (enabled) action `a` to `state`, writing the successor
    /// into `out`. `out` holds arbitrary garbage on entry.
    fn apply(&mut self, a: usize, state: &[u64], out: &mut [u64]);

    /// Incrementally fixes up `enabled` — pre-seeded with the predecessor's
    /// enabled set — after action `a` produced `state`. Only actions whose
    /// conditions intersect the variables changed by `a` need re-checking.
    fn update_enabled(&mut self, a: usize, state: &[u64], enabled: &mut [u64]);

    /// Writes into `out` the actions to expand in `state` under
    /// [`ExploreConfig::stubborn`]: the enabled members of a
    /// deadlock-preserving stubborn set, at least one of them whenever
    /// `enabled` is non-empty. `first` (a subset of `enabled`) holds the
    /// actions to try first as seeds. The default expands all of
    /// `enabled`, which is always such a set.
    fn write_stubborn(&mut self, state: &[u64], enabled: &[u64], first: &[u64], out: &mut [u64]) {
        let _ = (state, first);
        out.copy_from_slice(enabled);
    }
}

/// How an exploration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreOutcome {
    /// The full reachable set was enumerated.
    Complete,
    /// The state budget stopped the exploration early; `limit` is the
    /// budget that was hit, so callers can propagate *which* bound made a
    /// verdict inconclusive instead of a bare flag.
    Truncated {
        /// The `max_states` budget in force.
        limit: usize,
    },
    /// The wall-clock deadline stopped the exploration between two BFS
    /// levels (see [`ExploreConfig::deadline`]).
    DeadlineExpired {
        /// The deadline in force.
        deadline: Duration,
    },
}

impl ExploreOutcome {
    /// Did exploration stop early, on the state budget or the deadline?
    #[must_use]
    pub fn is_truncated(self) -> bool {
        self != ExploreOutcome::Complete
    }
}

/// Exploration knobs of the engine, shared by every exploring entry point
/// of the workspace.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum number of distinct states to store before truncating.
    pub max_states: usize,
    /// Wall-clock budget; `None` = unbounded (the state cap is then the
    /// only stop). A runaway exploration ends with the typed
    /// [`ExploreOutcome::DeadlineExpired`] outcome instead of running to
    /// the cap.
    ///
    /// **Deterministic cut semantics:** the clock is consulted *only once a
    /// BFS level has been fully expanded*, never mid-level. The explored
    /// prefix is therefore always a complete-level prefix of the BFS order,
    /// bit-identical to the first levels of an uncut run; wall-clock
    /// variance can only move the cut to a different level boundary, never
    /// produce a state set no uncut exploration passes through.
    /// Deadline-cut artifacts count as truncated
    /// ([`ExploreOutcome::is_truncated`]), so downstream layers treat them
    /// like budget-truncated ones (`Inconclusive` verdicts) — and the
    /// session's persistent store never caches them under a deadline-free
    /// key.
    pub deadline: Option<Duration>,
    /// Recorder the exploration reports into: one `engine.explore` span
    /// around the run, and after it the `engine.levels`, `engine.states`,
    /// `engine.edges` and `engine.dedup.known` counters and the
    /// `engine.frontier.peak` gauge. Detached by default. Recording is
    /// observation-only: the explored space is bit-identical with or
    /// without a recorder.
    pub obs: Obs,
    /// Expand only a deadlock-preserving stubborn subset of each state's
    /// enabled set (see [Stubborn sets](crate::engine#stubborn-sets)). Off by
    /// default. The reduced space keeps every reachable dead state and
    /// nothing else: state counts, edges and any state property other than
    /// deadness are those of the reduced graph, not of the system.
    pub stubborn: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_states: 2_000_000,
            deadline: None,
            obs: Obs::none(),
            stubborn: false,
        }
    }
}

/// Dense id of a state discovered during exploration, in BFS discovery
/// order (0 = initial state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(u32);

impl StateId {
    /// Dense index of the state (0 = initial state).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `StateId` from a raw index (see [`PlaceId::from_index`]
    /// for the caveats: only meaningful against the space that issued the
    /// index — used by persistence layers that round-trip witnesses).
    ///
    /// [`PlaceId::from_index`]: crate::PlaceId::from_index
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        StateId(u32::try_from(index).expect("state index exceeds u32"))
    }
}

/// The reachable state space produced by [`explore`], its edges labelled
/// with the system's actions `A` ([`TransitionSystem::Action`]):
/// [`TransitionId`]s for a net, `Event`s for the DFS semantics.
///
/// The states' words and parent ids (in blocks that never move), the dead
/// list and the dedup index, all keyed by [`StateId`]s in BFS discovery
/// order. It stores no edges and no discovering actions: it keeps the
/// system it was explored from, [`StateSpace::successors`] re-expands a
/// state on each call, and each step of a trace re-expands its parent
/// ([`StateSpace::trace_to`]; [`StateSpace::concrete_traces_to`] shares
/// those expansions across a batch, as the net check's witnesses do; see
/// [States, not edges](crate::engine#states-not-edges)). A quotient space
/// also keeps the symmetry it was explored under and each state's discovery
/// rotation, so its traces can be made concrete
/// ([`StateSpace::concrete_trace_to`]). The Petri-only accessors (markings)
/// live in [`crate::reachability`]; `dfs-core`'s `Lts` adds DFS-state
/// decoding on top of a `StateSpace<Event>`.
pub struct StateSpace<A = TransitionId> {
    /// Bits per state as the system declared them
    /// ([`TransitionSystem::state_bits`]) — a net's place count.
    pub(crate) bits: usize,
    /// Words per state (≥ 1 even for zero-width states).
    stride: usize,
    /// Per state: its `stride` words.
    arena: Rows<u64>,
    /// Per state: the id of the state whose expansion discovered it; the
    /// initial state has `NO_PARENT`. The discovering action is re-derived
    /// ([`StateSpace::trace_to`]).
    parents: Rows<u32>,
    /// Per state: the symmetry rotation applied at discovery (empty when
    /// exploring without symmetry — all rotations are then 0).
    rotations: Vec<u16>,
    /// The dedup index over `arena`, where re-expanded targets are looked
    /// up.
    index: DedupTable,
    /// The states below this id were expanded (the last of them only in
    /// part when the budget cut the run); the rest have no successors. The
    /// state the budget interrupted counts only if it had listed an edge.
    expanded: usize,
    /// Ascending ids of the states with an empty enabled set.
    dead: Vec<StateId>,
    /// How exploration ended.
    outcome: ExploreOutcome,
    /// The system's action table: raw action `a` is labelled `actions[a]`.
    actions: Vec<A>,
    /// The symmetry this space is a quotient under, if any.
    symmetry: Option<StateSymmetry>,
    /// Whether the run expanded stubborn subsets ([`ExploreConfig::stubborn`]).
    stubborn: bool,
    /// The system the space was explored from, which re-expands states.
    /// Behind a lock because spaces are shared across threads and the
    /// system's methods keep scratch buffers.
    system: Mutex<Box<DynSystem<A>>>,
}

/// The system a [`StateSpace`] keeps, to re-expand its states.
type DynSystem<A> = dyn TransitionSystem<Action = A> + Send;

impl<A> fmt::Debug for StateSpace<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateSpace")
            .field("states", &self.parents.len())
            .field("outcome", &self.outcome)
            .finish_non_exhaustive()
    }
}

impl<A: Copy> StateSpace<A> {
    /// Number of states discovered (orbit representatives for a quotient
    /// space).
    #[must_use]
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// `true` when no state was stored (never happens: the initial state
    /// always exists); kept for `len`/`is_empty` pairing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Did exploration stop early, on [`ExploreConfig::max_states`] or
    /// [`ExploreConfig::deadline`]?
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.outcome.is_truncated()
    }

    /// How exploration ended (carries the budget or deadline that cut it).
    #[must_use]
    pub fn outcome(&self) -> ExploreOutcome {
        self.outcome
    }

    /// The symmetry this space is a quotient under, if any.
    #[must_use]
    pub fn symmetry(&self) -> Option<&StateSymmetry> {
        self.symmetry.as_ref()
    }

    /// The initial state.
    #[must_use]
    pub fn initial(&self) -> StateId {
        StateId(0)
    }

    /// Iterates over all states, in BFS discovery order.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.parents.len() as u32).map(StateId)
    }

    /// Outgoing edges `(action, successor)` of `state`, in firing order:
    /// the edges the exploration expanded, re-expanded from the state's
    /// bits each time they are listed (see
    /// [States, not edges](crate::engine#states-not-edges)). Each listing
    /// computes the state's enabled set from scratch (on a reduced space
    /// its parent's too, to choose the stubborn set again), then fires
    /// each listed action once and looks its target up;
    /// [`Successors::is_empty`] fires nothing.
    ///
    /// A truncated space answers what the run explored: a state it never
    /// expanded — the frontier a deadline left, or everything after the
    /// state the budget interrupted — has no successors, and the
    /// interrupted state keeps the edges it had listed, up to the first
    /// target the budget kept out of the index.
    #[must_use]
    pub fn successors(&self, state: StateId) -> Successors<'_, A> {
        Successors { space: self, state }
    }

    /// Heap bytes the space retains: the capacities of its blocks of state
    /// words and parent ids, its rotations, dead list and dedup index (a
    /// 4-byte id and a 1-byte tag a slot), but not the block tables, 24
    /// bytes a block, nor the system it keeps for re-expansion, whose size
    /// does not grow with the states. No discovering action is stored:
    /// traces re-derive them (see [`StateSpace::trace_to`]).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.capacity_bytes()
            + self.parents.capacity_bytes()
            + self.rotations.capacity() * size_of::<u16>()
            + self.dead.capacity() * size_of::<StateId>()
            + self.index.capacity_bytes()
    }

    /// Does `state` have outgoing edges? Read from the expansion frontier
    /// and the dead list, without firing: every expanded state that is not
    /// dead lists at least one edge.
    fn has_successors(&self, state: StateId) -> bool {
        state.index() < self.expanded && self.dead.binary_search(&state).is_err()
    }

    /// The system, to re-expand a state with.
    fn system(&self) -> MutexGuard<'_, Box<DynSystem<A>>> {
        // a system method that panicked may have left its scratch (a
        // half-built stubborn set) dirty, so a poisoned lock is a bug
        self.system
            .lock()
            .expect("no earlier re-expansion panicked")
    }

    /// Re-expands `state` (see [`StateSpace::successors`]).
    fn expand(&self, state: StateId) -> Vec<(A, StateId)> {
        let mut edges = Vec::new();
        if !self.has_successors(state) {
            return edges;
        }
        self.refire(&mut **self.system(), state, |a, target| {
            // a target the budget kept out ends the interrupted state's list
            let found = self.index.find(hash_words(target), target, &self.arena);
            if let Some(id) = found {
                edges.push((self.actions[a], StateId(id)));
            }
            found.is_some()
        });
        edges
    }

    /// Fires what the run fired in `state` — its enabled set, or on a
    /// reduced space the stubborn subset chosen again from the state and
    /// the enabled set of the parent that discovered it — in firing order,
    /// showing `each` every action and its target (canonical, on a
    /// quotient) until `each` returns `false`.
    fn refire(
        &self,
        sys: &mut DynSystem<A>,
        state: StateId,
        mut each: impl FnMut(usize, &[u64]) -> bool,
    ) {
        let astride = self.actions.len().div_ceil(64).max(1);
        let enabled = |sys: &mut DynSystem<A>, s: StateId| {
            let mut en = vec![0u64; astride];
            sys.write_enabled_full(self.words(s), &mut en);
            en
        };
        let mut fire = enabled(sys, state);
        let sym = self.symmetry.as_ref().filter(|s| s.order() > 1);
        if self.stubborn {
            let parent = self.parents.row(state.index());
            let before = (parent != NO_PARENT).then(|| enabled(sys, StateId(parent)));
            let mut choice = Expansion::new(astride);
            let rotation = sym.map(|sy| (sy, self.rotation(state)));
            choice.choose(sys, self.words(state), &fire, before.as_deref(), rotation);
            fire = choice.actions;
        }
        let words = self.words(state);
        let (mut raw, mut canon, mut tmp) = (
            vec![0; self.stride],
            vec![0; self.stride],
            vec![0; self.stride],
        );
        for a in places_of(fire.iter().enumerate().map(|(w, &m)| (w as u32, m))) {
            sys.apply(a, words, &mut raw);
            let target = match sym {
                Some(sy) => {
                    sy.canonicalize(&raw, &mut canon, &mut tmp);
                    &canon
                }
                None => &raw,
            };
            if !each(a, target) {
                break;
            }
        }
    }

    /// The raw action whose firing discovered `state` (not the initial
    /// state): the first action its parent fired, in firing order, whose
    /// target is `state`. Any earlier one would have discovered it.
    fn discovering_action(&self, sys: &mut DynSystem<A>, state: StateId) -> u32 {
        let parent = StateId(self.parents.row(state.index()));
        let words = self.words(state);
        let mut found = None;
        self.refire(sys, parent, |a, target| {
            found = (target == words).then_some(a as u32);
            found.is_none()
        });
        found.expect("a state's parent fires an action that reaches it")
    }

    /// The word-packed bits of `state` (the same width for every state).
    #[must_use]
    pub fn words(&self, state: StateId) -> &[u64] {
        self.arena.get(state.index())
    }

    /// The dead states — no action enabled — in ascending order, recorded
    /// as each state was committed (see the [module docs](self)). Exact on
    /// truncated spaces too: an unexpanded frontier state has no
    /// successors but is listed only if it is really dead. For a quotient
    /// space these are dead representatives (deadness is orbit-invariant).
    #[must_use]
    pub fn deadlocks(&self) -> &[StateId] {
        &self.dead
    }

    /// The symmetry rotation applied when `state` was canonicalized at
    /// discovery (always 0 outside quotient spaces).
    #[must_use]
    pub fn rotation(&self, state: StateId) -> u32 {
        self.rotations
            .get(state.index())
            .copied()
            .map_or(0, u32::from)
    }

    /// Action sequence from the initial state to `state`, along its
    /// discovery path.
    ///
    /// The space stores each state's parent, not the action that
    /// discovered it, so each step re-expands its parent (as
    /// [`StateSpace::successors`] does) up to the first action whose
    /// target is the step's state, which is the discovering one. A path of
    /// `n` steps costs `n` expansions; [`StateSpace::concrete_traces_to`]
    /// shares them across a batch of traces.
    ///
    /// For a quotient space this trace is over orbit *representatives* — it
    /// replays in the quotient, not necessarily from the system's concrete
    /// initial state. Use [`StateSpace::concrete_trace_to`] for a sequence
    /// of the original system.
    #[must_use]
    pub fn trace_to(&self, state: StateId) -> Vec<A> {
        self.traces(&[state], false).swap_remove(0)
    }

    /// An action sequence of the *original* system from its concrete
    /// initial state to a concrete member of `state`'s orbit. Equals
    /// [`StateSpace::trace_to`] when this is not a quotient space, and
    /// re-derives its steps as that does.
    ///
    /// Each quotient step fires action `a` in the representative's frame;
    /// un-rotating by the cumulative rotation `R` accumulated along the
    /// path (`b = g^-R(a)`, then `R +=` the step's canonicalization
    /// rotation) yields the concrete action — see the soundness argument in
    /// the [module docs](self).
    #[must_use]
    pub fn concrete_trace_to(&self, state: StateId) -> Vec<A> {
        self.concrete_traces_to(&[state]).swap_remove(0)
    }

    /// [`StateSpace::concrete_trace_to`] of each of `states`, in order, as
    /// one batch: each state on any of their paths has its discovering
    /// action derived once, however many paths share it. Witness traces
    /// share long prefixes, so a batch of them costs about one expansion
    /// per distinct path state instead of one per step.
    #[must_use]
    pub fn concrete_traces_to(&self, states: &[StateId]) -> Vec<Vec<A>> {
        self.traces(states, true)
    }

    /// The traces to `states` from one memo of discovering actions:
    /// concrete when `concrete` is set and this is a quotient space, over
    /// representatives otherwise.
    fn traces(&self, states: &[StateId], concrete: bool) -> Vec<Vec<A>> {
        let sym = self.symmetry.as_ref().filter(|_| concrete);
        let mut sys = self.system();
        let mut memo: HashMap<StateId, u32> = HashMap::new();
        states
            .iter()
            .map(|&state| {
                let path = self.path(state);
                let mut rot = self.rotation(path[0]);
                path[1..]
                    .iter()
                    .map(|&s| {
                        let mut a = *memo
                            .entry(s)
                            .or_insert_with(|| self.discovering_action(&mut **sys, s));
                        if let Some(sym) = sym {
                            a = sym.unrotate_action(rot, a);
                            rot = (rot + self.rotation(s)) % sym.order() as u32;
                        }
                        self.actions[a as usize]
                    })
                    .collect()
            })
            .collect()
    }

    /// The bits of the concrete state [`StateSpace::concrete_trace_to`]
    /// reaches: `state`'s representative un-rotated by the cumulative
    /// rotation along its discovery path (a plain copy outside quotient
    /// spaces).
    pub(crate) fn concrete_words(&self, state: StateId) -> Vec<u64> {
        let words = self.words(state);
        let Some(sym) = &self.symmetry else {
            return words.to_vec();
        };
        let mut out = vec![0u64; words.len()];
        sym.unapply_state(self.path_rotation(state), words, &mut out);
        out
    }

    /// The cumulative rotation along `state`'s discovery path: un-rotating
    /// by it ([`StateSymmetry::unrotate_action`]) maps `state`'s
    /// representative, and the actions fired from it, to the concrete
    /// state [`StateSpace::concrete_trace_to`] reaches (0 outside quotient
    /// spaces).
    #[must_use]
    pub fn path_rotation(&self, state: StateId) -> u32 {
        let Some(sym) = &self.symmetry else {
            return 0;
        };
        let order = sym.order() as u32;
        self.path(state)
            .into_iter()
            .fold(0, |rot, s| (rot + self.rotation(s)) % order)
    }

    /// The discovery path of `state`: the states from the initial state to
    /// `state`, each the parent of the next.
    fn path(&self, state: StateId) -> Vec<StateId> {
        let mut path = vec![state];
        loop {
            let parent = self.parents.row(path[path.len() - 1].index());
            if parent == NO_PARENT {
                break;
            }
            path.push(StateId(parent));
        }
        path.reverse();
        path
    }
}

/// The outgoing edges of one state, as [`StateSpace::successors`] lists
/// them: a small handle that re-expands the state whenever the edges are
/// read, and answers [`Successors::is_empty`] without firing.
pub struct Successors<'a, A> {
    space: &'a StateSpace<A>,
    state: StateId,
}

impl<A: Copy> Successors<'_, A> {
    /// Does the state have no outgoing edges? Answered from the expansion
    /// frontier and the dead list, without re-expanding the state.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.space.has_successors(self.state)
    }

    /// Number of outgoing edges (re-expands the state).
    #[must_use]
    pub fn len(&self) -> usize {
        self.to_vec().len()
    }

    /// The edges `(action, successor)` in firing order (re-expands the
    /// state).
    #[must_use]
    pub fn to_vec(&self) -> Vec<(A, StateId)> {
        self.space.expand(self.state)
    }

    /// Iterates over the edges in firing order (re-expands the state).
    pub fn iter(&self) -> std::vec::IntoIter<(A, StateId)> {
        self.to_vec().into_iter()
    }
}

impl<A: Copy> IntoIterator for Successors<'_, A> {
    type Item = (A, StateId);
    type IntoIter = std::vec::IntoIter<(A, StateId)>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<A: Copy + PartialEq> PartialEq for Successors<'_, A> {
    fn eq(&self, other: &Self) -> bool {
        self.to_vec() == other.to_vec()
    }
}

impl<A: Copy + fmt::Debug> fmt::Debug for Successors<'_, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Multiplicative word mixer (splitmix-style) over a state slice.
#[inline]
fn hash_words(words: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for &w in words {
        h ^= w.wrapping_mul(0xA24B_AED4_963E_E407);
        h = h.rotate_left(29).wrapping_mul(0x9FB2_1C65_1E98_DF25);
    }
    h ^ (h >> 32)
}

/// States per storage block: a space's state words and parent ids grow
/// a block at a time, and a block, once reserved, never moves (see
/// [What a state costs](self#what-a-state-costs)).
pub const BLOCK_STATES: usize = 1 << 14;

/// Fixed-width per-state rows in blocks of [`BLOCK_STATES`] rows, appended
/// and never moved. The first block grows like a vector, up to a block;
/// every later block is reserved whole.
struct Rows<T> {
    /// Elements per row.
    width: usize,
    blocks: Vec<Vec<T>>,
    len: usize,
}

impl<T: Copy> Rows<T> {
    fn new(width: usize) -> Self {
        Rows {
            width,
            blocks: vec![Vec::new()],
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Row `i`.
    #[inline]
    fn get(&self, i: usize) -> &[T] {
        let start = (i % BLOCK_STATES) * self.width;
        &self.blocks[i / BLOCK_STATES][start..start + self.width]
    }

    /// Row `i` of one-element rows.
    #[inline]
    fn row(&self, i: usize) -> T {
        self.get(i)[0]
    }

    fn push(&mut self, row: &[T]) {
        let full = BLOCK_STATES * self.width;
        let last = self
            .blocks
            .last_mut()
            .expect("the first block always exists");
        if last.len() == full {
            let mut block = Vec::with_capacity(full);
            block.extend_from_slice(row);
            self.blocks.push(block);
        } else {
            if last.len() == last.capacity() {
                // only the first block is short: double it, up to a block
                let grown = (2 * last.capacity()).clamp(self.width, full);
                last.reserve_exact(grown - last.len());
            }
            last.extend_from_slice(row);
        }
        self.len += 1;
    }

    /// Bytes the blocks reserve.
    fn capacity_bytes(&self) -> usize {
        let rows: usize = self.blocks.iter().map(Vec::capacity).sum();
        rows * std::mem::size_of::<T>()
    }
}

/// The tag of an empty slot.
const EMPTY_TAG: u8 = 0;

/// The one-byte tag a state's hash leaves beside its slot: the hash's top
/// byte, which no slot position reaches, moved off [`EMPTY_TAG`].
#[inline]
fn tag_of(hash: u64) -> u8 {
    ((hash >> 56) as u8).max(1)
}

/// Open-addressing dedup table over the stored states. Each slot holds a
/// state id and a one-byte tag of the state's hash (Laarman, van de Pol &
/// Weber, "Boosting multi-core reachability performance with shared hash
/// tables", 2010): a probe reads a state's words only where the tags
/// match, and compares them there, so the compact hash never
/// mis-identifies a state and the table can run at 3/4 load.
struct DedupTable {
    /// Per slot: the tag of the state it holds, or [`EMPTY_TAG`].
    tags: Vec<u8>,
    /// Per slot: the id of the state it holds (unread where the slot is
    /// empty).
    ids: Vec<u32>,
    mask: usize,
    len: usize,
}

impl DedupTable {
    fn new() -> Self {
        Self::with_slots(1024)
    }

    fn with_slots(cap: usize) -> Self {
        DedupTable {
            tags: vec![EMPTY_TAG; cap],
            ids: vec![0; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    fn find(&self, hash: u64, cand: &[u64], states: &Rows<u64>) -> Option<u32> {
        let tag = tag_of(hash);
        let mut i = (hash as usize) & self.mask;
        loop {
            match self.tags[i] {
                EMPTY_TAG => return None,
                t if t == tag && states.get(self.ids[i] as usize) == cand => {
                    return Some(self.ids[i]);
                }
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    fn insert_raw(&mut self, hash: u64, id: u32) {
        let mut i = (hash as usize) & self.mask;
        while self.tags[i] != EMPTY_TAG {
            i = (i + 1) & self.mask;
        }
        self.tags[i] = tag_of(hash);
        self.ids[i] = id;
    }

    /// Inserts a freshly appended state, doubling the table past 3/4 load.
    /// State ids are dense, so growth rehashes by re-reading the stored
    /// states.
    fn insert(&mut self, hash: u64, id: u32, states: &Rows<u64>) {
        if (self.len + 1) * 4 > self.tags.len() * 3 {
            let len = self.len;
            *self = Self::with_slots(self.tags.len() * 2);
            for prev in 0..len {
                self.insert_raw(hash_words(states.get(prev)), prev as u32);
            }
            self.len = len;
        }
        self.insert_raw(hash, id);
        self.len += 1;
    }

    /// Bytes the slots reserve.
    fn capacity_bytes(&self) -> usize {
        self.tags.capacity() + self.ids.capacity() * std::mem::size_of::<u32>()
    }
}

/// What [`explore`] shows its caller while it runs (see
/// [Watching the run](crate::engine#watching-the-run)).
pub trait Watch {
    /// The driver committed `state`, whose bits are `words` (the
    /// representative, on a quotient), in id order.
    #[inline]
    fn commit(&mut self, state: StateId, words: &[u64]) {
        let _ = (state, words);
    }

    /// Expanding `state`, whose enabled set is `enabled`, the driver listed
    /// the edge of raw action `a`, in listing order; the edge a budget cut
    /// keeps out is not shown.
    #[inline]
    fn fire(&mut self, state: StateId, enabled: &[u64], a: usize) {
        let _ = (state, enabled, a);
    }
}

/// Watches nothing.
impl Watch for () {}

/// Breadth-first exploration of `sys` under `cfg` — the engine's one
/// driver. The returned space keeps `sys`, to re-expand states for
/// [`StateSpace::successors`]. `watch` sees each state and edge as the
/// run lists it (see [`Watch`]); pass `&mut ()` to watch nothing.
///
/// Truncation: when storing state number `cfg.max_states` would be
/// required, exploration stops immediately — successors of the state being
/// expanded that were found *before* the overflow stay listed, the
/// overflowing edge does not. The deadline is consulted once each BFS level
/// is fully expanded (see [`ExploreConfig::deadline`]). With `symmetry`,
/// explores the rotation quotient instead, canonicalizing the initial state
/// and every successor before dedup; the result is then the quotient graph
/// over orbit representatives, with per-state discovery rotations for
/// concrete trace reconstruction. Records into `cfg.obs` (see
/// [`ExploreConfig::obs`]).
///
/// # Panics
///
/// Panics when `symmetry` does not cover the system's state/action bits.
pub fn explore<S: TransitionSystem + Send + 'static, W: Watch + ?Sized>(
    mut sys: S,
    cfg: &ExploreConfig,
    symmetry: Option<&StateSymmetry>,
    watch: &mut W,
) -> StateSpace<S::Action> {
    let _span = cfg.obs.span("engine.explore");
    let started = Instant::now();
    let max_states = cfg.max_states;
    let bits = sys.state_bits();
    let stride = bits.div_ceil(64).max(1);
    let actions = sys.actions().to_vec();
    let astride = actions.len().div_ceil(64).max(1);
    let sym = symmetry.filter(|s| s.order() > 1);
    if let Some(sy) = sym {
        assert!(
            sy.state_bits() <= stride * 64,
            "symmetry permutes more bits than the state holds"
        );
        assert!(
            sy.action_bits() >= actions.len() && sy.action_bits() <= astride * 64,
            "symmetry must cover every action"
        );
    }

    let mut scratch = vec![0u64; stride];
    let mut canon = vec![0u64; stride];
    let mut tmp = vec![0u64; stride];
    let mut en_scratch = vec![0u64; astride];
    let mut en_rotated = vec![0u64; astride];
    let mut stubborn = Expansion::new(astride);

    // the initial state, canonicalized under symmetry; its enabled set is
    // computed from scratch directly on the representative
    let mut initial = vec![0u64; stride];
    sys.write_initial(&mut initial);
    let mut rotations: Vec<u16> = Vec::new();
    if let Some(sy) = sym {
        scratch.copy_from_slice(&initial);
        let r = sy.canonicalize(&scratch, &mut initial, &mut tmp);
        rotations.push(r as u16);
    }
    let mut arena = Rows::new(stride);
    arena.push(&initial);
    let mut parents = Rows::new(1);
    parents.push(&[NO_PARENT]);
    let mut table = DedupTable::new();
    table.insert(hash_words(&initial), 0, &arena);
    watch.commit(StateId(0), &initial);

    // Enabled sets of three levels, each indexed from its level's first
    // id: the level being expanded, its parents' level (the stubborn
    // choice reads a state's parent), and the level being discovered.
    let mut en_level = vec![0u64; astride];
    sys.write_enabled_full(&initial, &mut en_level);
    let mut en_parents: Vec<u64> = Vec::new();
    let mut en_next: Vec<u64> = Vec::new();

    let mut outcome = ExploreOutcome::Complete;
    let mut dead: Vec<StateId> = Vec::new();
    if none_enabled(&en_level) {
        dead.push(StateId(0));
    }
    // observability tallies, flushed to the recorder once after the run
    let mut levels = 0u64;
    let mut peak_frontier = 0usize;
    let mut dedup_known = 0u64;
    let mut edges = 0u64;
    // the states below this id were expanded (see `StateSpace::expanded`)
    let mut expanded = 0usize;

    // States are discovered in BFS order, so each level is the id range
    // the previous one appended: everything below `level_start` is
    // expanded, everything from `level_end` on is the next frontier, and
    // the parents of the level are the ids from `parents_start`.
    let mut level_start = 0usize;
    let mut parents_start = 0usize;
    'bfs: loop {
        let level_end = parents.len();
        if level_end == level_start {
            break;
        }
        levels += 1;
        peak_frontier = peak_frontier.max(level_end - level_start);
        for s in level_start..level_end {
            let en_base = (s - level_start) * astride;
            let enabled = &en_level[en_base..en_base + astride];
            let edges_before = edges;
            if cfg.stubborn {
                let parent = parents.row(s);
                let before = (parent != NO_PARENT).then(|| {
                    let p = (parent as usize - parents_start) * astride;
                    &en_parents[p..p + astride]
                });
                stubborn.choose(
                    &mut sys,
                    arena.get(s),
                    enabled,
                    before,
                    sym.map(|sy| (sy, u32::from(rotations[s]))),
                );
            }
            for wi in 0..astride {
                let mut bits = if cfg.stubborn {
                    stubborn.actions[wi]
                } else {
                    enabled[wi]
                };
                while bits != 0 {
                    let a = wi * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    sys.apply(a, arena.get(s), &mut scratch);
                    let (cand, rotation): (&[u64], u32) = match sym {
                        Some(sy) => {
                            let r = sy.canonicalize(&scratch, &mut canon, &mut tmp);
                            (&canon, r)
                        }
                        None => (&scratch, 0),
                    };
                    let hash = hash_words(cand);
                    match table.find(hash, cand, &arena) {
                        Some(id) => {
                            if (id as usize) < level_end {
                                dedup_known += 1;
                            }
                        }
                        None => {
                            if parents.len() >= max_states {
                                outcome = ExploreOutcome::Truncated { limit: max_states };
                                // the interrupted state keeps the edges it
                                // listed, if any
                                expanded = s + usize::from(edges > edges_before);
                                break 'bfs;
                            }
                            let id = parents.len() as u32;
                            arena.push(cand);
                            // the incremental update is valid for the raw
                            // successor; rotate the result into the
                            // representative's frame
                            en_scratch.copy_from_slice(enabled);
                            sys.update_enabled(a, &scratch, &mut en_scratch);
                            let en = match sym {
                                Some(sy) if rotation > 0 => {
                                    sy.apply_enabled(rotation, &en_scratch, &mut en_rotated);
                                    &en_rotated
                                }
                                _ => &en_scratch,
                            };
                            en_next.extend_from_slice(en);
                            if none_enabled(en) {
                                dead.push(StateId(id));
                            }
                            parents.push(&[s as u32]);
                            if sym.is_some() {
                                // lossless: rotations are below the order,
                                // which is at most `MAX_SYMMETRY_ORDER`
                                rotations.push(rotation as u16);
                            }
                            table.insert(hash, id, &arena);
                            watch.commit(StateId(id), cand);
                        }
                    }
                    watch.fire(StateId(s as u32), enabled, a);
                    edges += 1;
                }
            }
        }
        expanded = level_end;
        // wall-clock deadline, consulted only here — between levels — so
        // the explored prefix is always a complete-level prefix of the BFS
        // order (see `ExploreConfig::deadline`)
        if let Some(deadline) = cfg.deadline.filter(|&d| started.elapsed() >= d) {
            outcome = ExploreOutcome::DeadlineExpired { deadline };
            break;
        }
        // the expanded level becomes the parents' level, the discovered one
        // the level to expand, and the oldest buffer is reused
        std::mem::swap(&mut en_parents, &mut en_level);
        std::mem::swap(&mut en_level, &mut en_next);
        en_next.clear();
        parents_start = level_start;
        level_start = level_end;
    }
    let obs = &cfg.obs;
    if obs.is_enabled() {
        obs.add("engine.levels", levels);
        obs.add("engine.states", parents.len() as u64);
        obs.add("engine.edges", edges);
        obs.add("engine.dedup.known", dedup_known);
        #[allow(clippy::cast_precision_loss)]
        obs.gauge("engine.frontier.peak", peak_frontier as f64);
    }
    StateSpace {
        bits,
        stride,
        arena,
        parents,
        rotations,
        index: table,
        expanded,
        dead,
        outcome,
        actions,
        symmetry: symmetry.cloned(),
        stubborn: cfg.stubborn,
        system: Mutex::new(Box::new(sys)),
    }
}

/// The stubborn-set expansion of one state, and its scratch (see
/// [Stubborn sets](crate::engine#stubborn-sets)). Kept out of line, so the
/// driver's loop stays as small as it is without the reduction.
struct Expansion {
    /// The seeds to try first: what the discovering firing newly enabled.
    first: Vec<u64>,
    /// The parent's enabled set, rotated into the representative's frame.
    before: Vec<u64>,
    /// The actions to expand.
    actions: Vec<u64>,
}

impl Expansion {
    fn new(astride: usize) -> Self {
        Expansion {
            first: vec![0u64; astride],
            before: vec![0u64; astride],
            actions: vec![0u64; astride],
        }
    }

    /// Chooses the actions to expand in `state`, whose enabled set is
    /// `enabled`. `parent` is the enabled set of the state whose expansion
    /// discovered it (none for the initial state), in the frame of the raw
    /// successor, and `rotation` the symmetry and the rotation that
    /// canonicalized that successor.
    #[inline(never)]
    fn choose<S: TransitionSystem + ?Sized>(
        &mut self,
        sys: &mut S,
        state: &[u64],
        enabled: &[u64],
        parent: Option<&[u64]>,
        rotation: Option<(&StateSymmetry, u32)>,
    ) {
        self.first.fill(0);
        if let Some(parent) = parent {
            let before = match rotation {
                Some((sym, r)) if r > 0 => {
                    sym.apply_enabled(r, parent, &mut self.before);
                    &self.before[..]
                }
                _ => parent,
            };
            for (f, (&now, &was)) in self.first.iter_mut().zip(enabled.iter().zip(before)) {
                *f = now & !was;
            }
        }
        sys.write_stubborn(state, enabled, &self.first, &mut self.actions);
    }
}

/// A cyclic symmetry of a [`TransitionSystem`], given by one generator: a
/// permutation of the state bits and the matching permutation of the
/// actions. Powers up to the generator's order are precomputed, so
/// canonicalization is `order - 1` sparse bit-permutes plus lexicographic
/// compares.
#[derive(Debug, Clone)]
pub struct StateSymmetry {
    order: usize,
    /// `bit_pow[j-1]` maps each state bit to its position under the j-th
    /// power of the generator.
    bit_pow: Vec<Vec<u32>>,
    /// Same for action bits.
    act_pow: Vec<Vec<u32>>,
}

fn check_permutation(perm: &[u32]) -> Result<(), String> {
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        let i = p as usize;
        if i >= perm.len() || seen[i] {
            return Err(format!(
                "not a permutation: image {p} repeated or out of range"
            ));
        }
        seen[i] = true;
    }
    Ok(())
}

/// Largest generator order [`StateSymmetry::new`] accepts: no hardware
/// replicates that many ways, and the bound keeps the precomputed powers
/// small and every rotation within a `u16`.
const MAX_SYMMETRY_ORDER: usize = 4096;

/// The order of `perm` as a generator, or `None` once it exceeds
/// `MAX_SYMMETRY_ORDER`.
fn perm_order(perm: &[u32]) -> Option<usize> {
    let mut seen = vec![false; perm.len()];
    let mut order = 1usize;
    for start in 0..perm.len() {
        if seen[start] {
            continue;
        }
        let mut len = 0usize;
        let mut cur = start;
        while !seen[cur] {
            seen[cur] = true;
            cur = perm[cur] as usize;
            len += 1;
        }
        order = bounded_lcm(order, len)?;
    }
    Some(order)
}

/// `lcm(a, b)` for positive `a` and `b`, or `None` when it exceeds
/// `MAX_SYMMETRY_ORDER` (checked, so huge cycle structures cannot
/// overflow on the way there).
fn bounded_lcm(a: usize, b: usize) -> Option<usize> {
    (a / gcd(a, b))
        .checked_mul(b)
        .filter(|&l| l <= MAX_SYMMETRY_ORDER)
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Permutes the low `perm.len()` bits of `src` into the pre-zeroed `dst`.
fn permute_bits(perm: &[u32], src: &[u64], dst: &mut [u64]) {
    for (wi, &w) in src.iter().enumerate() {
        let mut bits = w;
        while bits != 0 {
            let b = wi * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let t = perm[b] as usize;
            dst[t / 64] |= 1u64 << (t % 64);
        }
    }
}

impl StateSymmetry {
    /// Builds the symmetry from one generator. `bit_perm[i]` is the state
    /// bit that bit `i` maps to, `action_perm[a]` the action `a` maps to;
    /// both must be permutations covering *all* bits the system uses (the
    /// engine checks the widths at exploration time).
    ///
    /// # Errors
    ///
    /// When either map is not a permutation, or the generator's order
    /// exceeds 4096 (no hardware replicates that many ways).
    pub fn new(bit_perm: Vec<u32>, action_perm: Vec<u32>) -> Result<Self, String> {
        check_permutation(&bit_perm)?;
        check_permutation(&action_perm)?;
        let order = perm_order(&bit_perm)
            .zip(perm_order(&action_perm))
            .and_then(|(b, a)| bounded_lcm(b, a))
            .ok_or_else(|| format!("symmetry order out of range (above {MAX_SYMMETRY_ORDER})"))?;
        let mut bit_pow = vec![bit_perm.clone()];
        let mut act_pow = vec![action_perm.clone()];
        for j in 1..order.saturating_sub(1) {
            let prev = &bit_pow[j - 1];
            bit_pow.push(prev.iter().map(|&i| bit_perm[i as usize]).collect());
            let prev = &act_pow[j - 1];
            act_pow.push(prev.iter().map(|&a| action_perm[a as usize]).collect());
        }
        Ok(StateSymmetry {
            order,
            bit_pow,
            act_pow,
        })
    }

    /// Group order of the generator (1 = trivial symmetry).
    #[must_use]
    pub fn order(&self) -> usize {
        self.order
    }

    /// Number of state bits the permutation covers.
    #[must_use]
    pub fn state_bits(&self) -> usize {
        self.bit_pow.first().map_or(0, Vec::len)
    }

    /// Number of action bits the permutation covers.
    #[must_use]
    pub fn action_bits(&self) -> usize {
        self.act_pow.first().map_or(0, Vec::len)
    }

    /// Writes the lexicographically-least rotation of `raw` into `canon`
    /// and returns the rotation amount `j` with `canon = g^j(raw)`. `tmp`
    /// is scratch of the same width.
    pub fn canonicalize(&self, raw: &[u64], canon: &mut [u64], tmp: &mut [u64]) -> u32 {
        canon.copy_from_slice(raw);
        let bits = self.state_bits();
        let mut best = 0u32;
        for j in 1..self.order {
            // g^j(raw) a word at a time, each bit gathered from its preimage
            // under g^-j = g^(order-j), abandoned at the first word that
            // compares greater than the best rotation so far
            let preimage = &self.bit_pow[self.order - j - 1];
            let mut ord = Ordering::Equal;
            for (wi, out) in tmp.iter_mut().enumerate() {
                let lo = (wi * 64).min(bits);
                let mut w = 0u64;
                for (b, &src) in preimage[lo..(lo + 64).min(bits)].iter().enumerate() {
                    w |= (raw[src as usize / 64] >> (src % 64) & 1) << b;
                }
                *out = w;
                if ord == Ordering::Equal {
                    ord = w.cmp(&canon[wi]);
                    if ord == Ordering::Greater {
                        break;
                    }
                }
            }
            if ord == Ordering::Less {
                canon.copy_from_slice(tmp);
                best = j as u32;
            }
        }
        best
    }

    /// Applies the j-th power of the generator to a state (pre-existing
    /// contents of `dst` are overwritten).
    pub fn apply_state(&self, j: u32, src: &[u64], dst: &mut [u64]) {
        dst.fill(0);
        if j == 0 {
            dst.copy_from_slice(src);
        } else {
            permute_bits(&self.bit_pow[j as usize - 1], src, dst);
        }
    }

    /// Applies the j-th power of the generator to an enabled set.
    pub fn apply_enabled(&self, j: u32, src: &[u64], dst: &mut [u64]) {
        dst.fill(0);
        if j == 0 {
            dst.copy_from_slice(src);
        } else {
            permute_bits(&self.act_pow[j as usize - 1], src, dst);
        }
    }

    /// The image of action `a` under the j-th power of the generator.
    #[must_use]
    pub fn rotate_action(&self, j: u32, a: u32) -> u32 {
        if j == 0 {
            a
        } else {
            self.act_pow[j as usize - 1][a as usize]
        }
    }

    /// The image of action `a` under the *inverse* j-th power — the step
    /// that turns a quotient trace concrete (see the module docs).
    #[must_use]
    pub fn unrotate_action(&self, j: u32, a: u32) -> u32 {
        let inv = (self.order as u32 - j % self.order as u32) % self.order as u32;
        self.rotate_action(inv, a)
    }

    /// The inverse j-th power applied to a state.
    pub fn unapply_state(&self, j: u32, src: &[u64], dst: &mut [u64]) {
        let inv = (self.order as u32 - j % self.order as u32) % self.order as u32;
        self.apply_state(inv, src, dst);
    }
}

/// Sparse masks per transition, CSR-packed: `data[off[t]..off[t+1]]` holds
/// `(word index, bit mask)` pairs.
#[derive(Debug, Clone)]
struct MaskCsr {
    off: Vec<u32>,
    data: Vec<(u32, u64)>,
}

impl MaskCsr {
    fn builder(rows: usize) -> MaskCsrBuilder {
        MaskCsrBuilder {
            rows: vec![Vec::new(); rows],
        }
    }

    #[inline]
    fn row(&self, t: usize) -> &[(u32, u64)] {
        &self.data[self.off[t] as usize..self.off[t + 1] as usize]
    }
}

struct MaskCsrBuilder {
    rows: Vec<Vec<(u32, u64)>>,
}

impl MaskCsrBuilder {
    /// Adds place index `p` to row `t`, merging into an existing word mask.
    fn add(&mut self, t: usize, p: usize) {
        let (w, m) = ((p / 64) as u32, 1u64 << (p % 64));
        let row = &mut self.rows[t];
        match row.iter_mut().find(|(rw, _)| *rw == w) {
            Some((_, rm)) => *rm |= m,
            None => row.push((w, m)),
        }
    }

    fn finish(self) -> MaskCsr {
        let mut off = Vec::with_capacity(self.rows.len() + 1);
        let mut data = Vec::new();
        off.push(0);
        for mut row in self.rows {
            row.sort_unstable_by_key(|&(w, _)| w);
            data.extend_from_slice(&row);
            off.push(data.len() as u32);
        }
        MaskCsr { off, data }
    }
}

/// Precomputed place→transition incidence of a [`PetriNet`], specialised for
/// word-packed markings.
///
/// Per transition it stores the enabledness condition as word masks —
/// `need` (consumed ∪ read places, must all be marked) and `forbid`
/// (produced-but-not-consumed places, must all be empty, the 1-safety rule)
/// — the firing effect (`clear`/`set` masks), and the *affected set*: the
/// transitions whose enabledness can change when this transition fires,
/// i.e. those whose `need`/`forbid` places intersect this transition's
/// changed places. The affected sets are what makes exploration
/// event-driven.
#[derive(Debug, Clone)]
pub struct Incidence {
    words: usize,
    transitions: usize,
    need: MaskCsr,
    forbid: MaskCsr,
    clear: MaskCsr,
    set: MaskCsr,
    affected_off: Vec<u32>,
    affected: Vec<u32>,
}

impl Incidence {
    /// Builds the incidence index of `net`.
    #[must_use]
    pub fn from_net(net: &PetriNet) -> Self {
        let np = net.place_count();
        let nt = net.transition_count();
        let mut need = MaskCsr::builder(nt);
        let mut forbid = MaskCsr::builder(nt);
        let mut clear = MaskCsr::builder(nt);
        let mut set = MaskCsr::builder(nt);
        // place -> transitions whose enabledness depends on it
        let mut watchers: Vec<Vec<u32>> = vec![Vec::new(); np];
        // per transition: places toggled by firing (consumes Δ produces)
        let mut changed: Vec<Vec<usize>> = vec![Vec::new(); nt];

        for t in net.transitions() {
            let ti = t.index();
            let tr = net.transition(t);
            for &p in tr.consumes() {
                need.add(ti, p.index());
                clear.add(ti, p.index());
                watchers[p.index()].push(ti as u32);
                if tr.produces().binary_search(&p).is_err() {
                    changed[ti].push(p.index());
                }
            }
            for &p in tr.reads() {
                if tr.consumes().binary_search(&p).is_err() {
                    watchers[p.index()].push(ti as u32);
                }
                need.add(ti, p.index());
            }
            for &p in tr.produces() {
                set.add(ti, p.index());
                if tr.consumes().binary_search(&p).is_err() {
                    forbid.add(ti, p.index());
                    watchers[p.index()].push(ti as u32);
                    changed[ti].push(p.index());
                }
            }
        }

        let mut affected_off = Vec::with_capacity(nt + 1);
        let mut affected = Vec::new();
        affected_off.push(0);
        let mut row: Vec<u32> = Vec::new();
        for changed_places in &changed {
            row.clear();
            for &p in changed_places {
                row.extend_from_slice(&watchers[p]);
            }
            row.sort_unstable();
            row.dedup();
            affected.extend_from_slice(&row);
            affected_off.push(affected.len() as u32);
        }

        Incidence {
            words: np.div_ceil(64),
            transitions: nt,
            need: need.finish(),
            forbid: forbid.finish(),
            clear: clear.finish(),
            set: set.finish(),
            affected_off,
            affected,
        }
    }

    /// Words per packed marking.
    #[must_use]
    pub fn marking_words(&self) -> usize {
        self.words
    }

    /// Number of transitions indexed.
    #[must_use]
    pub fn transition_count(&self) -> usize {
        self.transitions
    }

    /// Is `t` enabled in the word-packed marking `state`? Equivalent to
    /// [`PetriNet::is_enabled`] on the corresponding [`crate::Marking`].
    #[must_use]
    #[inline]
    pub fn is_enabled(&self, t: TransitionId, state: &[u64]) -> bool {
        let ti = t.index();
        self.need
            .row(ti)
            .iter()
            .all(|&(w, m)| state[w as usize] & m == m)
            && self
                .forbid
                .row(ti)
                .iter()
                .all(|&(w, m)| state[w as usize] & m == 0)
    }

    /// Fires `t` (assumed enabled) on `src`, writing the successor marking
    /// into `dst`.
    #[inline]
    pub fn fire_into(&self, t: TransitionId, src: &[u64], dst: &mut [u64]) {
        dst.copy_from_slice(src);
        for &(w, m) in self.clear.row(t.index()) {
            dst[w as usize] &= !m;
        }
        for &(w, m) in self.set.row(t.index()) {
            dst[w as usize] |= m;
        }
    }

    /// The transitions whose enabledness must be re-checked after `t` fires.
    #[must_use]
    #[inline]
    pub fn affected(&self, t: TransitionId) -> &[u32] {
        let ti = t.index();
        &self.affected[self.affected_off[ti] as usize..self.affected_off[ti + 1] as usize]
    }

    /// Per transition `a`, the word-packed set of the transitions firing
    /// `a` disables wherever it fires: among its affected transitions,
    /// those that need a place `a` empties (consumes without producing) or
    /// forbid a place `a` marks (produces without consuming). Wherever `a`
    /// fires, an enabled transition loses its enabledness exactly when it
    /// is in row `a`, the `a`-th run of `transition_count().div_ceil(64)
    /// .max(1)` words.
    #[must_use]
    pub fn disabling_masks(&self) -> Vec<u64> {
        let stride = self.transitions.div_ceil(64).max(1);
        let mut masks = vec![0u64; self.transitions * stride];
        let dense = |rows: &MaskCsr, a: usize| {
            let mut out = vec![0u64; self.words];
            rows.row(a).iter().for_each(|&(w, m)| out[w as usize] |= m);
            out
        };
        for a in 0..self.transitions {
            let (clear, set) = (dense(&self.clear, a), dense(&self.set, a));
            let meets = |rows: &MaskCsr, t: usize, on: &[u64], off: &[u64]| {
                rows.row(t).iter().any(|&(w, m)| {
                    let w = w as usize;
                    m & on[w] & !off[w] != 0
                })
            };
            for &t in self.affected(TransitionId::from_index(a)) {
                let t = t as usize;
                if meets(&self.need, t, &clear, &set) || meets(&self.forbid, t, &set, &clear) {
                    set_bit(&mut masks[a * stride..(a + 1) * stride], t, true);
                }
            }
        }
        masks
    }
}

/// The set bits (places, or actions) of `(word, mask)` pairs, in ascending
/// order.
fn places_of(row: impl Iterator<Item = (u32, u64)>) -> impl Iterator<Item = usize> {
    row.flat_map(|(w, m)| {
        std::iter::successors((m != 0).then_some(m), |&b| {
            let rest = b & (b - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |b| w as usize * 64 + b.trailing_zeros() as usize)
    })
}

/// The places of mask row `t` of `csr`, in ascending order.
fn row(csr: &MaskCsr, t: usize) -> impl Iterator<Item = usize> + '_ {
    places_of(csr.row(t).iter().copied())
}

/// A list per row, CSR-packed: `data[off[i]..off[i+1]]`.
#[derive(Debug, Clone)]
struct Lists {
    off: Vec<u32>,
    data: Vec<u32>,
}

impl Lists {
    fn from_rows(rows: Vec<Vec<u32>>) -> Self {
        let mut off = Vec::with_capacity(rows.len() + 1);
        let mut data = Vec::new();
        off.push(0);
        for row in rows {
            data.extend_from_slice(&row);
            off.push(data.len() as u32);
        }
        Lists { off, data }
    }

    #[inline]
    fn row(&self, i: usize) -> &[u32] {
        &self.data[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// A transition set under construction: its bits, its members (to clear
/// it fast) and the members still to process.
#[derive(Debug, Clone)]
struct Members {
    bits: Vec<u64>,
    list: Vec<u32>,
    stack: Vec<u32>,
}

impl Members {
    fn add(&mut self, t: u32) {
        if !get_bit(&self.bits, t as usize) {
            set_bit(&mut self.bits, t as usize, true);
            self.list.push(t);
            self.stack.push(t);
        }
    }

    fn add_all(&mut self, ts: &[u32]) {
        for &t in ts {
            self.add(t);
        }
    }

    /// How many of `ts` are not members yet.
    fn outside(&self, ts: &[u32]) -> usize {
        ts.iter()
            .filter(|&&t| !get_bit(&self.bits, t as usize))
            .count()
    }

    fn clear(&mut self) {
        for &t in &self.list {
            set_bit(&mut self.bits, t as usize, false);
        }
        self.list.clear();
        self.stack.clear();
    }
}

/// The static relations behind a net's stubborn sets (see the
/// [module docs](crate::engine#stubborn-sets)), plus the set under construction.
#[derive(Debug, Clone)]
struct StubbornIndex {
    /// Per place: the transitions that mark it (produce it without
    /// consuming it) — the repairs of an empty `need` place.
    markers: Lists,
    /// Per place: the transitions that empty it (consume it without
    /// producing it) — the repairs of a marked `forbid` place.
    unmarkers: Lists,
    /// Per transition: every other transition that can disable it or that
    /// it can disable.
    dependent: Lists,
    set: Members,
}

impl StubbornIndex {
    fn new(inc: &Incidence, places: usize) -> Self {
        let nt = inc.transitions;
        let empties = |t: usize| {
            let set = inc.set.row(t);
            places_of(inc.clear.row(t).iter().map(move |&(w, m)| {
                let produced = set
                    .iter()
                    .find(|&&(sw, _)| sw == w)
                    .map_or(0, |&(_, sm)| sm);
                (w, m & !produced)
            }))
        };
        let mut markers = vec![Vec::new(); places];
        let mut unmarkers = vec![Vec::new(); places];
        let mut needers = vec![Vec::new(); places];
        for t in 0..nt {
            // `forbid` is exactly "produced, not consumed": the places t marks
            for p in row(&inc.forbid, t) {
                markers[p].push(t as u32);
            }
            for p in row(&inc.need, t) {
                needers[p].push(t as u32);
            }
            for p in empties(t) {
                unmarkers[p].push(t as u32);
            }
        }
        let dependent = (0..nt)
            .map(|t| {
                let mut deps: Vec<u32> = Vec::new();
                // who can disable t: empties a place t needs, or marks a
                // place t forbids (t marks it too, so this also covers the
                // transitions t disables by marking a place they forbid)
                for p in row(&inc.need, t) {
                    deps.extend_from_slice(&unmarkers[p]);
                }
                for p in row(&inc.forbid, t) {
                    deps.extend_from_slice(&markers[p]);
                }
                // whom t can disable by emptying a place they need
                for p in empties(t) {
                    deps.extend_from_slice(&needers[p]);
                }
                deps.sort_unstable();
                deps.dedup();
                deps.retain(|&u| u as usize != t);
                deps
            })
            .collect();
        StubbornIndex {
            markers: Lists::from_rows(markers),
            unmarkers: Lists::from_rows(unmarkers),
            dependent: Lists::from_rows(dependent),
            set: Members {
                bits: vec![0; nt.div_ceil(64).max(1)],
                list: Vec::new(),
                stack: Vec::new(),
            },
        }
    }

    /// Closes the set around `seed`: the number of its enabled members, or
    /// `None` as soon as that reaches `bound`.
    fn close(
        &mut self,
        inc: &Incidence,
        state: &[u64],
        enabled: &[u64],
        seed: usize,
        bound: usize,
    ) -> Option<usize> {
        let StubbornIndex {
            markers,
            unmarkers,
            dependent,
            set,
        } = self;
        set.add(seed as u32);
        let mut count = 0usize;
        while let Some(t) = set.stack.pop() {
            let t = t as usize;
            if get_bit(enabled, t) {
                count += 1;
                if count >= bound {
                    return None;
                }
                set.add_all(dependent.row(t));
                continue;
            }
            // a disabled member: the failing condition with the fewest
            // repairs outside the set — a marked `forbid` place, repaired
            // by its unmarkers, or an empty `need` place, by its markers
            let empty_needs = places_of(
                inc.need
                    .row(t)
                    .iter()
                    .map(|&(w, m)| (w, m & !state[w as usize])),
            )
            .map(|p| markers.row(p));
            let marked_forbids = places_of(
                inc.forbid
                    .row(t)
                    .iter()
                    .map(|&(w, m)| (w, m & state[w as usize])),
            )
            .map(|p| unmarkers.row(p));
            let mut best: &[u32] = &[];
            let mut best_n = usize::MAX;
            for repairs in marked_forbids.chain(empty_needs) {
                let n = set.outside(repairs);
                if n < best_n {
                    (best, best_n) = (repairs, n);
                    if n == 0 {
                        break;
                    }
                }
            }
            set.add_all(best);
        }
        Some(count)
    }

    /// The enabled members of the smallest set the seed search finds (see
    /// the [module docs](crate::engine#stubborn-sets)), into `out`.
    fn write(
        &mut self,
        inc: &Incidence,
        state: &[u64],
        enabled: &[u64],
        first: &[u64],
        out: &mut [u64],
    ) {
        let mut best = usize::MAX;
        for pass in 0..2 {
            for wi in 0..enabled.len() {
                let mut seeds = if pass == 0 {
                    first[wi]
                } else {
                    enabled[wi] & !first[wi]
                };
                while seeds != 0 {
                    let seed = wi * 64 + seeds.trailing_zeros() as usize;
                    seeds &= seeds - 1;
                    if let Some(n) = self.close(inc, state, enabled, seed, best) {
                        best = n;
                        for (o, (&e, &m)) in out.iter_mut().zip(enabled.iter().zip(&self.set.bits))
                        {
                            *o = e & m;
                        }
                    }
                    self.set.clear();
                    if best == 1 {
                        return;
                    }
                }
            }
        }
        if best == usize::MAX {
            // nothing enabled: nothing to expand
            out.fill(0);
        }
    }
}

/// [`TransitionSystem`] view of a [`PetriNet`]: actions are transitions,
/// states are word-packed markings.
pub struct NetSystem {
    inc: Incidence,
    initial: Vec<u64>,
    places: usize,
    transitions: Vec<TransitionId>,
    /// Built on the first stubborn-set request.
    stubborn: Option<StubbornIndex>,
}

impl NetSystem {
    /// Builds the system (and its [`Incidence`] index) for `net`.
    #[must_use]
    pub fn new(net: &PetriNet) -> Self {
        let inc = Incidence::from_net(net);
        let mut initial = vec![0u64; inc.marking_words().max(1)];
        for p in net.places() {
            if net.place(p).initially_marked {
                set_bit(&mut initial, p.index(), true);
            }
        }
        NetSystem {
            inc,
            initial,
            places: net.place_count(),
            transitions: net.transitions().collect(),
            stubborn: None,
        }
    }

    /// The underlying incidence index.
    #[must_use]
    pub fn incidence(&self) -> &Incidence {
        &self.inc
    }
}

impl TransitionSystem for NetSystem {
    type Action = TransitionId;

    fn state_bits(&self) -> usize {
        self.places
    }

    fn actions(&self) -> &[TransitionId] {
        &self.transitions
    }

    fn write_initial(&mut self, out: &mut [u64]) {
        out.copy_from_slice(&self.initial);
    }

    fn write_enabled_full(&mut self, state: &[u64], out: &mut [u64]) {
        for ti in 0..self.inc.transition_count() {
            set_bit(
                out,
                ti,
                self.inc.is_enabled(TransitionId::from_index(ti), state),
            );
        }
    }

    fn apply(&mut self, a: usize, state: &[u64], out: &mut [u64]) {
        self.inc.fire_into(TransitionId::from_index(a), state, out);
    }

    fn update_enabled(&mut self, a: usize, state: &[u64], enabled: &mut [u64]) {
        for &t2 in self.inc.affected(TransitionId::from_index(a)) {
            set_bit(
                enabled,
                t2 as usize,
                self.inc
                    .is_enabled(TransitionId::from_index(t2 as usize), state),
            );
        }
    }

    fn write_stubborn(&mut self, state: &[u64], enabled: &[u64], first: &[u64], out: &mut [u64]) {
        let inc = &self.inc;
        self.stubborn
            .get_or_insert_with(|| StubbornIndex::new(inc, self.places))
            .write(inc, state, enabled, first, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Marking;

    fn ring(n: usize) -> PetriNet {
        let mut net = PetriNet::new();
        let places: Vec<_> = (0..n)
            .map(|i| net.add_place(format!("p{i}"), i == 0))
            .collect();
        for i in 0..n {
            let t = net.add_transition(format!("t{i}"));
            net.consume(t, places[i]);
            net.produce(t, places[(i + 1) % n]);
        }
        net
    }

    fn marking_of(net: &PetriNet, words: &[u64]) -> Marking {
        let mut m = Marking::empty(net.place_count());
        for p in net.places() {
            m.set(p, get_bit(words, p.index()));
        }
        m
    }

    #[test]
    fn incidence_agrees_with_net_enabledness() {
        let net = ring(5);
        let inc = Incidence::from_net(&net);
        let g = explore(NetSystem::new(&net), &cfg(1_000), None, &mut ());
        for s in g.states() {
            let words = g.words(s);
            let m = marking_of(&net, words);
            for t in net.transitions() {
                assert_eq!(inc.is_enabled(t, words), net.is_enabled(t, &m));
            }
        }
    }

    #[test]
    fn fire_into_matches_net_fire() {
        let net = ring(4);
        let inc = Incidence::from_net(&net);
        let g = explore(NetSystem::new(&net), &cfg(1_000), None, &mut ());
        let mut dst = vec![0u64; g.words(g.initial()).len()];
        for s in g.states() {
            let words = g.words(s);
            let m = marking_of(&net, words);
            for t in net.transitions() {
                if inc.is_enabled(t, words) {
                    inc.fire_into(t, words, &mut dst);
                    assert_eq!(marking_of(&net, &dst), net.fire(t, &m).unwrap());
                }
            }
        }
    }

    #[test]
    fn affected_sets_cover_every_status_flip() {
        // brute-force cross-check: firing t in any reachable marking only
        // changes the enabledness of transitions in affected(t)
        let net = ring(6);
        let inc = Incidence::from_net(&net);
        let g = explore(NetSystem::new(&net), &cfg(1_000), None, &mut ());
        let mut dst = vec![0u64; g.words(g.initial()).len()];
        for s in g.states() {
            let words = g.words(s);
            for t in net.transitions() {
                if !inc.is_enabled(t, words) {
                    continue;
                }
                inc.fire_into(t, words, &mut dst);
                for t2 in net.transitions() {
                    let flipped = inc.is_enabled(t2, words) != inc.is_enabled(t2, &dst);
                    if flipped {
                        assert!(
                            inc.affected(t).contains(&(t2.index() as u32)),
                            "{t2:?} flipped but is not in affected({t:?})"
                        );
                    }
                }
            }
        }
    }

    /// Brute-force cross-check: among the transitions enabled in a
    /// reachable marking, firing `t` disables exactly those in `t`'s row of
    /// the disabling masks — on a ring and on a choice with a read arc and
    /// a contact (a transition marking a place another forbids).
    #[test]
    fn disabling_masks_are_exact() {
        let mut choice = PetriNet::new();
        let (a, b, c) = (
            choice.add_place("a", true),
            choice.add_place("b", false),
            choice.add_place("c", false),
        );
        for (name, from, to) in [("ab", a, b), ("ac", a, c)] {
            let t = choice.add_transition(name);
            choice.consume(t, from);
            choice.produce(t, to);
        }
        let reader = choice.add_transition("read_a");
        choice.read(reader, a);
        choice.produce(reader, c);
        for net in [ring(6), choice] {
            let inc = Incidence::from_net(&net);
            let masks = inc.disabling_masks();
            let stride = net.transition_count().div_ceil(64).max(1);
            let g = explore(NetSystem::new(&net), &cfg(1_000), None, &mut ());
            let mut dst = vec![0u64; g.words(g.initial()).len()];
            for s in g.states() {
                let words = g.words(s);
                for t in net.transitions().filter(|&t| inc.is_enabled(t, words)) {
                    inc.fire_into(t, words, &mut dst);
                    let row = &masks[t.index() * stride..(t.index() + 1) * stride];
                    for u in net.transitions().filter(|&u| inc.is_enabled(u, words)) {
                        let disabled = !inc.is_enabled(u, &dst);
                        assert_eq!(get_bit(row, u.index()), disabled, "{t:?} on {u:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn dedup_table_grows_correctly() {
        // a ring large enough to force several table growths
        let net = ring(3000);
        let g = explore(NetSystem::new(&net), &cfg(10_000), None, &mut ());
        assert_eq!(g.len(), 3000);
        assert!(!g.is_truncated());
    }

    /// The index where every tag collides: one-word states chosen so that
    /// all their hashes carry the same tag, inserted through three growths
    /// at the 3/4 threshold, with `find` checked against a `HashMap` after
    /// every insertion that crosses it, for every stored state and for
    /// absent states of the same tag. Only the words can tell these states
    /// apart.
    #[test]
    fn dedup_table_compares_words_where_tags_collide() {
        let tag = tag_of(hash_words(&[0]));
        let mut same_tag = (1u64..).filter(|&w| tag_of(hash_words(&[w])) == tag);
        let absent: Vec<u64> = same_tag.by_ref().take(64).collect();
        let mut states = Rows::new(1);
        let mut table = DedupTable::new();
        let mut reference: HashMap<u64, u32> = HashMap::new();
        let check = |table: &DedupTable, states: &Rows<u64>, reference: &HashMap<u64, u32>| {
            for (&w, &id) in reference {
                assert_eq!(table.find(hash_words(&[w]), &[w], states), Some(id));
            }
            for &w in &absent {
                assert_eq!(table.find(hash_words(&[w]), &[w], states), None);
            }
        };
        let mut growths = 0;
        for (id, w) in same_tag.take(5_000).enumerate() {
            let (hash, id) = (hash_words(&[w]), id as u32);
            assert_eq!(tag_of(hash), tag);
            assert_eq!(table.find(hash, &[w], &states), None);
            let slots = table.tags.len();
            states.push(&[w]);
            table.insert(hash, id, &states);
            reference.insert(w, id);
            if table.tags.len() != slots {
                // the state that would fill the table past 3/4 doubles it
                assert_eq!((reference.len() - 1) * 4, slots * 3);
                assert_eq!(table.tags.len(), 2 * slots);
                growths += 1;
                check(&table, &states, &reference);
            }
        }
        assert_eq!(growths, 3);
        check(&table, &states, &reference);
    }

    #[test]
    fn zero_place_net_has_single_state() {
        let mut net = PetriNet::new();
        net.add_transition("noop");
        let g = explore(NetSystem::new(&net), &cfg(10), None, &mut ());
        // `noop` has no arcs: it is enabled and loops on the only state
        assert_eq!(g.len(), 1);
        assert_eq!(
            g.successors(g.initial()).to_vec(),
            [(TransitionId::from_index(0), g.initial())]
        );
        assert!(!g.is_truncated());
    }

    #[test]
    fn truncation_reports_the_limit() {
        let net = ring(10);
        let g = explore(NetSystem::new(&net), &cfg(4), None, &mut ());
        assert_eq!(g.outcome(), ExploreOutcome::Truncated { limit: 4 });
        assert_eq!(g.len(), 4);
    }

    /// Three independent one-shot transitions: the initial state has three
    /// successors, each a new state.
    fn fan() -> PetriNet {
        let mut net = PetriNet::new();
        for i in 0..3 {
            let p = net.add_place(format!("p{i}"), true);
            let t = net.add_transition(format!("t{i}"));
            net.consume(t, p);
        }
        net
    }

    /// The state the budget interrupts keeps the edges it listed before
    /// the overflow, re-expanded up to the first target the budget kept
    /// out; the states after it were never expanded and list nothing,
    /// though none of them is dead.
    #[test]
    fn budget_cut_keeps_the_interrupted_prefix() {
        let t = TransitionId::from_index;
        let full = explore(NetSystem::new(&fan()), &cfg(100), None, &mut ());
        assert_eq!(full.len(), 8);
        let s = StateId::from_index;
        assert_eq!(
            full.successors(s(0)).to_vec(),
            [(t(0), s(1)), (t(1), s(2)), (t(2), s(3))]
        );

        let cut = explore(NetSystem::new(&fan()), &cfg(3), None, &mut ());
        assert_eq!(cut.len(), 3);
        assert_eq!(cut.successors(s(0)).to_vec(), [(t(0), s(1)), (t(1), s(2))]);
        assert_eq!(cut.successors(s(0)).len(), 2);
        for later in [s(1), s(2)] {
            assert!(cut.successors(later).is_empty());
            assert_eq!(cut.successors(later).to_vec(), []);
        }
        assert!(cut.deadlocks().is_empty());

        // the overflow at the first target: the initial state lists nothing
        let first = explore(NetSystem::new(&fan()), &cfg(1), None, &mut ());
        assert!(first.successors(s(0)).is_empty());
        assert_eq!(first.successors(s(0)).to_vec(), []);
        assert!(first.deadlocks().is_empty());
    }

    /// What a space retains: its states' own rows (words and parent ids)
    /// and the index, and past them at most one block of slack, where
    /// doubling would leave up to as much again as the space holds. The net
    /// is `fan` widened to 15 one-shot transitions beside a 3-place ring:
    /// 3 × 2^15 states, six blocks, which doubling would round up to eight.
    #[test]
    fn heap_bytes_keeps_at_most_one_block_of_slack() {
        let mut net = ring(3);
        for i in 0..15 {
            let p = net.add_place(format!("q{i}"), true);
            let t = net.add_transition(format!("u{i}"));
            net.consume(t, p);
        }
        // a state's row: its words and its 4-byte parent id; an index slot:
        // a 4-byte id and a 1-byte tag
        let held = |g: &StateSpace| {
            let row = g.stride * 8 + 4;
            (g.len() * row + g.index.tags.len() * 5, row)
        };
        let g = explore(NetSystem::new(&net), &cfg(usize::MAX), None, &mut ());
        assert_eq!(g.len(), 3 << 15);
        let (rows, row) = held(&g);
        assert!(g.heap_bytes() >= rows);
        assert!(g.heap_bytes() - rows <= BLOCK_STATES * row);
        // a small space reserves no whole block
        let small = explore(NetSystem::new(&ring(100)), &cfg(1_000), None, &mut ());
        let (rows, row) = held(&small);
        assert!(small.heap_bytes() >= rows);
        assert!(small.heap_bytes() - rows <= small.len() * row);
    }

    fn cfg(max_states: usize) -> ExploreConfig {
        ExploreConfig {
            max_states,
            ..ExploreConfig::default()
        }
    }

    /// A ring is rotation-symmetric: the quotient under the full cyclic
    /// group collapses all n token positions into one orbit.
    #[test]
    fn ring_quotient_collapses_rotations() {
        let n = 8usize;
        let net = ring(n);
        // generator: place i -> i+1, transition i -> i+1 (mod n)
        let bit_perm: Vec<u32> = (0..n as u32).map(|i| (i + 1) % n as u32).collect();
        let act_perm = bit_perm.clone();
        let sym = StateSymmetry::new(bit_perm, act_perm).unwrap();
        assert_eq!(sym.order(), n);
        let full = explore(NetSystem::new(&net), &cfg(1_000), None, &mut ());
        let quo = explore(NetSystem::new(&net), &cfg(1_000), Some(&sym), &mut ());
        assert_eq!(full.len(), n);
        assert_eq!(quo.len(), 1);
        // concrete trace reconstruction: the quotient self-loop unrotates to
        // a concretely firable transition from the concrete initial state
        let s0 = quo.initial();
        let mut concrete = vec![0u64; quo.words(s0).len()];
        sym.unapply_state(quo.rotation(s0), quo.words(s0), &mut concrete);
        assert_eq!(concrete, full.words(full.initial()));
    }

    #[test]
    fn symmetry_rejects_non_permutations() {
        assert!(StateSymmetry::new(vec![0, 0], vec![0, 1]).is_err());
        assert!(StateSymmetry::new(vec![0, 2], vec![0, 1]).is_err());
        let id = StateSymmetry::new(vec![0, 1], vec![0]).unwrap();
        assert_eq!(id.order(), 1);
    }

    /// Cycle lengths of the 25 primes up to 97 (1,060 bits) give an order
    /// near 2.3e36: the bounded lcm must report it as out of range instead
    /// of overflowing on the way.
    #[test]
    fn huge_symmetry_order_is_an_error_not_an_overflow() {
        let primes = [
            2u32, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
            83, 89, 97,
        ];
        let mut perm = Vec::new();
        for p in primes {
            let base = perm.len() as u32;
            perm.extend((0..p).map(|i| base + (i + 1) % p));
        }
        assert_eq!(perm.len(), 1_060);
        let err = StateSymmetry::new(perm, vec![0]).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
    }

    #[test]
    fn canonicalize_picks_least_rotation_and_reports_it() {
        // 4-bit cyclic shift: states 0b0010 -> canon 0b0001 at some power
        let perm: Vec<u32> = (0..4).map(|i| (i + 1) % 4).collect();
        let sym = StateSymmetry::new(perm, vec![0]).unwrap();
        let raw = [0b0100u64];
        let mut canon = [0u64];
        let mut tmp = [0u64];
        let j = sym.canonicalize(&raw, &mut canon, &mut tmp);
        assert_eq!(canon[0], 0b0001);
        // applying g^j to raw reproduces the canon, and the inverse returns
        let mut back = [0u64];
        sym.apply_state(j, &raw, &mut back);
        assert_eq!(back, canon);
        sym.unapply_state(j, &canon, &mut back);
        assert_eq!(back, raw);
    }
}

//! Operational semantics of DFS models — equations (1)–(5) of the paper.
//!
//! The paper defines node behaviour through set/reset functions refined for
//! dynamic registers; this module implements them as an interleaving
//! event semantics: at each step one state variable changes (a logic node
//! evaluates or resets, a register accepts or releases a token).
//!
//! The enabling conditions are stated once, as data: the firing rule of a
//! model, derived on first use and kept with it. Per node it lists the
//! node's events in a fixed order (the LTS backend's action order), and per
//! event the *clauses* that enable it. A clause is a conjunction of literals
//! `(node, Pred)` over the state variables `C`, `M`, `Mt` and `Mf`; its
//! first literal tests the event's own node. An event is enabled when one
//! of its clauses holds. Four readers share the rule:
//!
//! * [`Dfs::enabled_events`] evaluates the literals on a [`DfsState`];
//! * [`mod@crate::to_petri`] emits one transition per clause (Fig. 3): the
//!   own literal becomes the flip of the node's places, every other literal
//!   one read arc;
//! * the phase unfolding ([`crate::perf::unfold`]) takes the causal
//!   literals of the clause that holds as the event's causes;
//! * the LTS backend re-checks, after an event of node `n`, the events of
//!   the nodes whose literals name `n`.
//!
//! The net and the direct semantics are checked to be bisimilar in the
//! integration tests, and the dev-only `rap-oracle` crate keeps an
//! independent, hand-written statement of the same conditions that the
//! engine-equivalence tests compare against.
//!
//! # What the preprint leaves open
//!
//! * **Guard-edge synchronisation.** A node's guards are the control
//!   registers in its R-preset, and they take part in its `M↑` handshake
//!   like any R-preset register: a push or pop takes a token only while
//!   every guard holds one, and reads their values, through the inversion
//!   parity of the path, in that step. Under [`GuardMode::Unanimous`] a
//!   mismatch disables the node (§II-B); under `And` and `Or` the value
//!   that needs only one witness guard gets one clause per guard. A guard
//!   releases its token like any register, once its R-postset has taken
//!   theirs, so one control token steers one item.
//! * **The pop-`Mt` exemption for control registers.** A register's `M↓`
//!   waits for a pop in its R-postset to hold a *true* token (eq. (4)),
//!   unless the register is a control register: a control register guarding
//!   a pop must move on when the pop produced an empty (false) token, or an
//!   excluded stage's control loop would deadlock.
//! * **The false-push reading.** A push holding a false token is invisible
//!   downstream (eq. (3)): every test a node makes of a push in its preset
//!   or R-preset goes through `Mt`. Such a push neither enables an
//!   evaluation or a mark nor blocks a reset or a release — the release of
//!   a false-marked push included, which waits for its preset to withdraw.

use crate::graph::{Dfs, GuardMode, RRef};
use crate::node::{NodeId, NodeKind, TokenValue};
use crate::state::DfsState;

/// An atomic state change of a DFS model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Event {
    /// Logic node evaluates (`C↑`).
    Eval(NodeId),
    /// Logic node resets (`C↓`).
    Reset(NodeId),
    /// Register accepts a token with the given value (`M↑` / `Mt↑` / `Mf↑`).
    Mark(NodeId, TokenValue),
    /// Register releases its token (`M↓`).
    Unmark(NodeId),
}

impl Event {
    /// The node this event belongs to.
    #[must_use]
    pub fn node(self) -> NodeId {
        match self {
            Event::Eval(n) | Event::Reset(n) | Event::Mark(n, _) | Event::Unmark(n) => n,
        }
    }

    /// Is this a `+` event (evaluate or mark)?
    pub(crate) fn is_plus(self) -> bool {
        matches!(self, Event::Eval(_) | Event::Mark(..))
    }
}

/// A state predicate of one node, as a literal of the firing rule tests it.
/// Each is established by one event family of its node: `Active`,
/// `Marked`, `TrueMarked` and `FalseMarked` by the `+` event (eval/mark),
/// the others by the `-` event (reset/unmark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pred {
    /// `C(l)` — logic evaluated.
    Active,
    /// `!C(l)` — logic reset.
    Inactive,
    /// `M(r)` — register marked (any value).
    Marked,
    /// `!M(r)` — register empty.
    Unmarked,
    /// `Mt(r)` — marked with a true token.
    TrueMarked,
    /// `!Mt(r)` — not holding a true token (established by the unmark that
    /// releases a true token; a false mark keeps it true without
    /// re-establishing it).
    NotTrueMarked,
    /// `Mf(r)` — marked with a false token.
    FalseMarked,
}

impl Pred {
    /// Number of predicates.
    pub(crate) const COUNT: usize = 7;

    /// Does node `n` satisfy the predicate in `s`?
    #[inline]
    fn holds(self, s: &impl NodeBits, n: NodeId) -> bool {
        match self {
            Pred::Active | Pred::Marked => s.active(n),
            Pred::Inactive | Pred::Unmarked => !s.active(n),
            Pred::TrueMarked => s.active(n) && !s.is_false(n),
            Pred::NotTrueMarked => !s.active(n) || s.is_false(n),
            Pred::FalseMarked => s.active(n) && s.is_false(n),
        }
    }

    /// Is the predicate established by its node's `+` event?
    pub(crate) fn established_by_plus(self) -> bool {
        matches!(
            self,
            Pred::Active | Pred::Marked | Pred::TrueMarked | Pred::FalseMarked
        )
    }
}

/// A state the rule's literals are evaluated on: per node, whether it is
/// active (`C`/`M`) and whether it holds a false token. The LTS backend
/// reads both from its packed state words, without decoding a
/// [`DfsState`].
pub(crate) trait NodeBits {
    /// Is node `n` active (`C`/`M`)?
    fn active(&self, n: NodeId) -> bool;
    /// Does node `n` hold a false token?
    fn is_false(&self, n: NodeId) -> bool;
}

impl NodeBits for DfsState {
    #[inline]
    fn active(&self, n: NodeId) -> bool {
        self.active[n.index()]
    }

    #[inline]
    fn is_false(&self, n: NodeId) -> bool {
        self.is_false_marked(n)
    }
}

/// One literal of a clause: node `node` satisfies `pred`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lit {
    pub(crate) node: NodeId,
    pub(crate) pred: Pred,
}

/// Where one clause's literals lie in [`Rule::lits`]: `start..end`, the
/// causal ones `start..causes`.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    causes: u32,
    end: u32,
}

/// One clause of an event: a conjunction of literals, the first on the
/// event's own node. The literals after the causal ones read guard values;
/// each names a register a causal literal already requires to be marked.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Clause<'a> {
    lits: &'a [Lit],
    causes: usize,
}

impl<'a> Clause<'a> {
    /// The literal on the event's own node: the state it leaves.
    pub(crate) fn own(self) -> Lit {
        self.lits[0]
    }

    /// Every literal but the own one.
    pub(crate) fn reads(self) -> &'a [Lit] {
        &self.lits[1..]
    }

    /// The causal literals, the own one first: what the event waits for.
    pub(crate) fn causes(self) -> &'a [Lit] {
        &self.lits[..self.causes]
    }

    /// Does every literal hold in `s`?
    #[inline]
    pub(crate) fn holds(self, s: &impl NodeBits) -> bool {
        self.lits.iter().all(|l| l.pred.holds(s, l.node))
    }
}

/// One event of the rule with the range of its clauses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventRule {
    pub(crate) event: Event,
    /// The clauses are one per witness guard (the value of an `And` or
    /// `Or` node that one guard decides); the net names their transitions
    /// with a `~k` suffix.
    pub(crate) witnessed: bool,
    clauses: (u32, u32),
}

/// The firing rule of a model: eqs. (1)–(5) stated per node as clauses
/// (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub(crate) struct Rule {
    /// Node `n`'s events are `events[first[n]..first[n + 1]]`.
    first: Vec<u32>,
    events: Vec<EventRule>,
    spans: Vec<Span>,
    lits: Vec<Lit>,
}

impl Rule {
    /// Every event of the model, by node and in each node's event order:
    /// the LTS backend's action table.
    pub(crate) fn events(&self) -> &[EventRule] {
        &self.events
    }

    /// Index in [`Rule::events`] of node `n`'s first event.
    pub(crate) fn first_event(&self, n: NodeId) -> usize {
        self.first[n.index()] as usize
    }

    /// The events of node `n`, in order.
    pub(crate) fn node_events(&self, n: NodeId) -> &[EventRule] {
        &self.events[self.first[n.index()] as usize..self.first[n.index() + 1] as usize]
    }

    /// The clauses of `e`, in order.
    pub(crate) fn clauses(&self, e: &EventRule) -> impl Iterator<Item = Clause<'_>> + '_ {
        self.spans[e.clauses.0 as usize..e.clauses.1 as usize]
            .iter()
            .map(|sp| Clause {
                lits: &self.lits[sp.start as usize..sp.end as usize],
                causes: (sp.causes - sp.start) as usize,
            })
    }

    /// Is `e` enabled in `s` (does one of its clauses hold)?
    #[inline]
    pub(crate) fn is_enabled(&self, e: &EventRule, s: &impl NodeBits) -> bool {
        self.clauses(e).any(|c| c.holds(s))
    }

    /// States eqs. (1)–(5) for every node of `dfs`.
    fn derive(dfs: &Dfs) -> Rule {
        let mut rule = Rule::default();
        // scratch: the causal literals of `M↑`, of `M↓` and of a false
        // variant
        let (mut ready, mut release, mut other) = (Vec::new(), Vec::new(), Vec::new());
        for n in dfs.nodes() {
            rule.first.push(rule.events.len() as u32);
            let own = |pred| Lit { node: n, pred };
            let kind = dfs.kind(n);
            if kind == NodeKind::Logic {
                // eqs. (1), (3): evaluate once the preset has, reset once
                // it has withdrawn
                ready.clear();
                ready.extend(dfs.preds(n).iter().map(|e| present(dfs, e.node)));
                release.clear();
                release.extend(dfs.preds(n).iter().map(|e| absent(dfs, e.node)));
                rule.event(Event::Eval(n), false);
                rule.clause(own(Pred::Inactive), &ready, []);
                rule.event(Event::Reset(n), false);
                rule.clause(own(Pred::Active), &release, []);
                continue;
            }
            // eqs. (2), (4): take a token once the preset is ready and the
            // R-postset empty, release it once the preset has withdrawn and
            // the R-postset has taken it
            ready.clear();
            preset_ready(dfs, n, &mut ready);
            postset_empty(dfs, n, &mut ready);
            release.clear();
            preset_withdrawn(dfs, n, &mut release);
            postset_taken(dfs, n, &mut release);
            let mode = dfs.guard_mode(n);
            match kind {
                NodeKind::Register => {
                    rule.event(Event::Mark(n, TokenValue::True), false);
                    rule.clause(own(Pred::Unmarked), &ready, []);
                    rule.event(Event::Unmark(n), false);
                    rule.clause(own(Pred::Marked), &release, []);
                }
                NodeKind::Control => {
                    // eq. (5): the value is that of the control registers
                    // in `?c`; without any, a free (data-dependent) choice
                    let sources: Vec<RRef> = dfs
                        .r_preset(n)
                        .iter()
                        .copied()
                        .filter(|r| dfs.kind(r.node) == NodeKind::Control)
                        .collect();
                    for v in [TokenValue::True, TokenValue::False] {
                        rule.guarded(own(Pred::Unmarked), v, &sources, mode, &ready);
                    }
                    rule.event(Event::Unmark(n), false);
                    rule.clause(own(Pred::TrueMarked), &release, []);
                    rule.clause(own(Pred::FalseMarked), &release, []);
                }
                _ => {
                    // push or pop: true-controlled, it behaves as a register
                    let guards = dfs.guards(n);
                    rule.guarded(own(Pred::Unmarked), TokenValue::True, guards, mode, &ready);
                    other.clear();
                    if kind == NodeKind::Push {
                        // consume-and-destroy: the R-postset never sees the
                        // token
                        preset_ready(dfs, n, &mut other);
                    } else {
                        // an empty token: the data preset is not consulted
                        other.extend(distinct(guards).map(|g| Lit {
                            node: g,
                            pred: Pred::Marked,
                        }));
                        postset_empty(dfs, n, &mut other);
                    }
                    if guards.is_empty() {
                        // an unguarded node is true-controlled
                        rule.event(Event::Mark(n, TokenValue::False), false);
                    } else {
                        rule.guarded(own(Pred::Unmarked), TokenValue::False, guards, mode, &other);
                    }
                    rule.event(Event::Unmark(n), false);
                    rule.clause(own(Pred::TrueMarked), &release, []);
                    other.clear();
                    if kind == NodeKind::Push {
                        // a false token is destroyed once the preset has
                        // withdrawn
                        preset_withdrawn(dfs, n, &mut other);
                    } else {
                        // an empty token moves on once the guards have
                        // released and the R-postset has taken it
                        other.extend(distinct(guards).map(|g| Lit {
                            node: g,
                            pred: Pred::Unmarked,
                        }));
                        postset_taken(dfs, n, &mut other);
                    }
                    rule.clause(own(Pred::FalseMarked), &other, []);
                }
            }
        }
        rule.first.push(rule.events.len() as u32);
        rule
    }

    /// Opens the next event of the node being stated.
    fn event(&mut self, event: Event, witnessed: bool) {
        let at = self.spans.len() as u32;
        self.events.push(EventRule {
            event,
            witnessed,
            clauses: (at, at),
        });
    }

    /// Adds a clause to the open event: `own`, the causal literals
    /// `causes`, then the guard-value literals `values`.
    fn clause(&mut self, own: Lit, causes: &[Lit], values: impl IntoIterator<Item = Lit>) {
        let start = self.lits.len() as u32;
        self.lits.push(own);
        self.lits.extend_from_slice(causes);
        let causes = self.lits.len() as u32;
        self.lits.extend(values);
        self.spans.push(Span {
            start,
            causes,
            end: self.lits.len() as u32,
        });
        if let Some(open) = self.events.last_mut() {
            open.clauses.1 = self.spans.len() as u32;
        }
    }

    /// The event `Mark(n, v)` of `own`'s node `n` under its value sources,
    /// with causal literals `core`: one clause reading every source's
    /// value, or, for the value one witness decides (`False` under `And`,
    /// `True` under `Or`), one clause per witness.
    fn guarded(
        &mut self,
        own: Lit,
        v: TokenValue,
        sources: &[RRef],
        mode: GuardMode,
        core: &[Lit],
    ) {
        let value = move |g: &RRef| Lit {
            node: g.node,
            pred: if (v == TokenValue::True) != g.inverted {
                Pred::TrueMarked
            } else {
                Pred::FalseMarked
            },
        };
        let witnessed = !sources.is_empty()
            && matches!(
                (mode, v),
                (GuardMode::And, TokenValue::False) | (GuardMode::Or, TokenValue::True)
            );
        self.event(Event::Mark(own.node, v), witnessed);
        if witnessed {
            for g in sources {
                self.clause(own, core, [value(g)]);
            }
        } else {
            self.clause(own, core, sources.iter().map(value));
        }
    }
}

/// "`q` holds a token downstream nodes see": `C` for logic, `Mt` for a push
/// (a false-marked push is invisible downstream, eq. (3)), `M` otherwise.
fn present(dfs: &Dfs, q: NodeId) -> Lit {
    let pred = match dfs.kind(q) {
        NodeKind::Logic => Pred::Active,
        NodeKind::Push => Pred::TrueMarked,
        _ => Pred::Marked,
    };
    Lit { node: q, pred }
}

/// The negation of [`present`].
fn absent(dfs: &Dfs, q: NodeId) -> Lit {
    let pred = match dfs.kind(q) {
        NodeKind::Logic => Pred::Inactive,
        NodeKind::Push => Pred::NotTrueMarked,
        _ => Pred::Unmarked,
    };
    Lit { node: q, pred }
}

/// The registers of a sorted R-set, each once (a register reached along
/// paths of both parities is listed twice).
fn distinct(rs: &[RRef]) -> impl Iterator<Item = NodeId> + '_ {
    rs.iter()
        .enumerate()
        .filter(move |&(i, r)| i == 0 || rs[i - 1].node != r.node)
        .map(|(_, r)| r.node)
}

/// The preset half of `M↑`: preset logic evaluated, `?r` present.
fn preset_ready(dfs: &Dfs, r: NodeId, out: &mut Vec<Lit>) {
    let logic = dfs
        .preds(r)
        .iter()
        .filter(|e| dfs.kind(e.node) == NodeKind::Logic);
    out.extend(logic.map(|e| present(dfs, e.node)));
    out.extend(distinct(dfs.r_preset(r)).map(|q| present(dfs, q)));
}

/// The postset half of `M↑`: `r?` empty.
fn postset_empty(dfs: &Dfs, r: NodeId, out: &mut Vec<Lit>) {
    out.extend(distinct(dfs.r_postset(r)).map(|q| Lit {
        node: q,
        pred: Pred::Unmarked,
    }));
}

/// The preset half of `M↓`: preset logic reset, `?r` absent.
fn preset_withdrawn(dfs: &Dfs, r: NodeId, out: &mut Vec<Lit>) {
    let logic = dfs
        .preds(r)
        .iter()
        .filter(|e| dfs.kind(e.node) == NodeKind::Logic);
    out.extend(logic.map(|e| absent(dfs, e.node)));
    out.extend(distinct(dfs.r_preset(r)).map(|q| absent(dfs, q)));
}

/// The postset half of `M↓`: `r?` marked, a pop with a true token unless
/// `r` is a control register (the pop-`Mt` exemption).
fn postset_taken(dfs: &Dfs, r: NodeId, out: &mut Vec<Lit>) {
    let exempt_pops = dfs.kind(r) == NodeKind::Control;
    out.extend(distinct(dfs.r_postset(r)).map(|q| Lit {
        node: q,
        pred: if dfs.kind(q) == NodeKind::Pop && !exempt_pops {
            Pred::TrueMarked
        } else {
            Pred::Marked
        },
    }));
}

impl Dfs {
    /// The firing rule of this model, derived on first use.
    pub(crate) fn rule(&self) -> &Rule {
        self.rule.get_or_init(|| Rule::derive(self))
    }

    /// All events enabled in `s`, in deterministic (node, kind) order.
    #[must_use]
    pub fn enabled_events(&self, s: &DfsState) -> Vec<Event> {
        let rule = self.rule();
        rule.events()
            .iter()
            .filter(|e| rule.is_enabled(e, s))
            .map(|e| e.event)
            .collect()
    }

    /// Is a specific event enabled in `s`?
    #[must_use]
    pub fn is_event_enabled(&self, s: &DfsState, event: Event) -> bool {
        let rule = self.rule();
        rule.node_events(event.node())
            .iter()
            .any(|e| e.event == event && rule.is_enabled(e, s))
    }

    /// Applies `event` to `s`, returning the successor state.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when the event is not enabled — callers are
    /// expected to pick from [`Dfs::enabled_events`].
    #[must_use]
    pub fn apply(&self, s: &DfsState, event: Event) -> DfsState {
        debug_assert!(
            self.is_event_enabled(s, event),
            "applying disabled event {:?} in state {}",
            event,
            s.describe(self)
        );
        let mut next = s.clone();
        match event {
            Event::Eval(n) => next.set_marked(n, TokenValue::True),
            Event::Reset(n) | Event::Unmark(n) => next.clear(n),
            Event::Mark(n, v) => next.set_marked(n, v),
        }
        next
    }

    /// The PN-compatible label of `event` in state `s` (matching the
    /// transition names generated by [`mod@crate::to_petri`]), e.g. `C_f+`,
    /// `M_out-`, `Mt_ctrl+`, `Mf_filt-`.
    #[must_use]
    pub fn event_label(&self, s: &DfsState, event: Event) -> String {
        let value = match event {
            Event::Mark(_, v) => v,
            _ => s.token_value(event.node()).unwrap_or(TokenValue::True),
        };
        self.label(event, value)
    }

    /// The label of `event` moving a token of value `value`; the value
    /// names only a dynamic register's events.
    pub(crate) fn label(&self, event: Event, value: TokenValue) -> String {
        let n = event.node();
        let variable = match self.kind(n) {
            NodeKind::Logic => "C",
            NodeKind::Register => "M",
            _ if value == TokenValue::True => "Mt",
            _ => "Mf",
        };
        let sign = if event.is_plus() { '+' } else { '-' };
        format!("{variable}_{}{sign}", self.node(n).name)
    }

    /// Do two marked guards of some node currently disagree? This is the
    /// *control mismatch* error condition of §II-B.
    #[must_use]
    pub fn has_control_mismatch(&self, s: &DfsState) -> bool {
        self.nodes().any(|n| {
            let guards = self.guards(n);
            if guards.len() < 2 || self.guard_mode(n) != GuardMode::Unanimous {
                return false;
            }
            let values: Vec<TokenValue> = guards
                .iter()
                .filter(|g| s.is_marked(g.node))
                .map(|g| effective(s, g))
                .collect();
            values.windows(2).any(|w| w[0] != w[1])
        })
    }
}

/// Effective value of a marked guard, accounting for arc inversion.
fn effective(s: &DfsState, g: &RRef) -> TokenValue {
    let v = s.token_value(g.node).unwrap_or(TokenValue::True);
    if g.inverted {
        v.negate()
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfsBuilder;

    /// in(marked) -> f(logic) -> out : the smallest SDFS pipeline.
    fn linear() -> Dfs {
        let mut b = DfsBuilder::new();
        let i = b.register("in").marked().build();
        let f = b.logic("f").build();
        let o = b.register("out").build();
        b.connect(i, f);
        b.connect(f, o);
        b.finish().unwrap()
    }

    #[test]
    fn spread_token_sequence_on_linear_pipeline() {
        let dfs = linear();
        let (i, f, o) = (
            dfs.node_by_name("in").unwrap(),
            dfs.node_by_name("f").unwrap(),
            dfs.node_by_name("out").unwrap(),
        );
        let s0 = DfsState::initial(&dfs);
        // only f can evaluate
        assert_eq!(dfs.enabled_events(&s0), vec![Event::Eval(f)]);
        let s1 = dfs.apply(&s0, Event::Eval(f));
        // now out can accept the token (in cannot release yet: out unmarked)
        assert_eq!(
            dfs.enabled_events(&s1),
            vec![Event::Mark(o, TokenValue::True)]
        );
        let s2 = dfs.apply(&s1, Event::Mark(o, TokenValue::True));
        // in releases (its R-postset out is marked)
        assert!(dfs.enabled_events(&s2).contains(&Event::Unmark(i)));
        let s3 = dfs.apply(&s2, Event::Unmark(i));
        // f resets, then out can release
        let s4 = dfs.apply(&s3, Event::Reset(f));
        assert!(dfs.enabled_events(&s4).contains(&Event::Unmark(o)));
    }

    #[test]
    fn control_without_sources_has_free_choice() {
        let mut b = DfsBuilder::new();
        let i = b.register("in").marked().build();
        let cond = b.logic("cond").build();
        let c = b.control("ctrl").build();
        b.connect(i, cond);
        b.connect(cond, c);
        let dfs = b.finish().unwrap();
        let s0 = DfsState::initial(&dfs);
        let s1 = dfs.apply(&s0, Event::Eval(cond));
        let events = dfs.enabled_events(&s1);
        assert!(events.contains(&Event::Mark(c, TokenValue::True)));
        assert!(events.contains(&Event::Mark(c, TokenValue::False)));
    }

    #[test]
    fn control_loop_copies_values() {
        // c0(True) -> c1 -> c2 -> c0 : the 3-register control loop of Fig. 6c
        let mut b = DfsBuilder::new();
        let c0 = b.control("c0").marked_with(TokenValue::False).build();
        let c1 = b.control("c1").build();
        let c2 = b.control("c2").build();
        b.connect(c0, c1);
        b.connect(c1, c2);
        b.connect(c2, c0);
        let dfs = b.finish().unwrap();
        let s0 = DfsState::initial(&dfs);
        // only c1 can accept, and only with the copied False value
        assert_eq!(
            dfs.enabled_events(&s0),
            vec![Event::Mark(c1, TokenValue::False)]
        );
        let s1 = dfs.apply(&s0, Event::Mark(c1, TokenValue::False));
        assert!(s1.is_false_marked(c1));
        // now c0 releases, then c2 copies False, and so on around the loop
        let s2 = dfs.apply(&s1, Event::Unmark(c0));
        assert_eq!(
            dfs.enabled_events(&s2),
            vec![Event::Mark(c2, TokenValue::False)]
        );
    }

    #[test]
    fn push_destroys_false_tokens() {
        // in -> filt(push), guarded by ctrl(False); filt -> comp(register)
        let mut b = DfsBuilder::new();
        let i = b.register("in").marked().build();
        let c = b.control("ctrl").marked_with(TokenValue::False).build();
        let p = b.push("filt").build();
        let comp = b.register("comp").build();
        b.connect(i, p);
        b.connect(c, p);
        b.connect(p, comp);
        let dfs = b.finish().unwrap();
        let s0 = DfsState::initial(&dfs);
        // filt accepts a false token
        assert!(dfs
            .enabled_events(&s0)
            .contains(&Event::Mark(p, TokenValue::False)));
        let s1 = dfs.apply(&s0, Event::Mark(p, TokenValue::False));
        assert!(s1.is_false_marked(p));
        // comp must NOT be able to accept (the token is being destroyed)
        assert!(!dfs
            .enabled_events(&s1)
            .contains(&Event::Mark(comp, TokenValue::True)));
        // upstream `in` releases (its successor filt is marked), ctrl
        // releases (its guarded successor is marked), then filt destroys
        let s2 = dfs.apply(&s1, Event::Unmark(i));
        let s3 = dfs.apply(&s2, Event::Unmark(c));
        assert!(dfs.enabled_events(&s3).contains(&Event::Unmark(p)));
        let s4 = dfs.apply(&s3, Event::Unmark(p));
        assert!(!s4.is_marked(comp), "token was destroyed, not propagated");
    }

    #[test]
    fn a_false_push_upstream_does_not_hold_back_a_false_push() {
        // p1(False) -> p2(False): p2 destroys its token while p1 still
        // holds one, which is invisible downstream (eq. (3))
        let mut b = DfsBuilder::new();
        let p1 = b.push("p1").marked_with(TokenValue::False).build();
        let p2 = b.push("p2").marked_with(TokenValue::False).build();
        b.connect(p1, p2);
        let dfs = b.finish().unwrap();
        let s0 = DfsState::initial(&dfs);
        assert!(dfs.is_event_enabled(&s0, Event::Unmark(p2)));
    }

    #[test]
    fn pop_produces_empty_tokens_when_false_controlled() {
        // comp(register, empty) -> out(pop) guarded by ctrl(False); out -> sink
        let mut b = DfsBuilder::new();
        let comp = b.register("comp").build();
        let c = b.control("ctrl").marked_with(TokenValue::False).build();
        let o = b.pop("out").build();
        let sink = b.register("sink").build();
        b.connect(comp, o);
        b.connect(c, o);
        b.connect(o, sink);
        let dfs = b.finish().unwrap();
        let s0 = DfsState::initial(&dfs);
        // out produces an empty token even though comp is unmarked
        assert!(dfs
            .enabled_events(&s0)
            .contains(&Event::Mark(o, TokenValue::False)));
        let s1 = dfs.apply(&s0, Event::Mark(o, TokenValue::False));
        // the empty token propagates downstream as an ordinary token
        assert!(dfs
            .enabled_events(&s1)
            .contains(&Event::Mark(sink, TokenValue::True)));
        // and comp's (absent) token was not consumed: comp still unmarked
        assert!(!s1.is_marked(comp));
    }

    #[test]
    fn mismatch_disables_node_and_is_detectable() {
        let mut b = DfsBuilder::new();
        let i = b.register("in").marked().build();
        let c1 = b.control("c1").marked_with(TokenValue::True).build();
        let c2 = b.control("c2").marked_with(TokenValue::False).build();
        let p = b.push("p").build();
        b.connect(i, p);
        b.connect(c1, p);
        b.connect(c2, p);
        let dfs = b.finish().unwrap();
        let s0 = DfsState::initial(&dfs);
        assert!(dfs.has_control_mismatch(&s0));
        assert!(!dfs.enabled_events(&s0).iter().any(|e| e.node() == p));
    }

    #[test]
    fn and_or_guard_modes_resolve_mismatch() {
        use crate::graph::GuardMode;
        for (mode, expect) in [
            (GuardMode::And, TokenValue::False),
            (GuardMode::Or, TokenValue::True),
        ] {
            let mut b = DfsBuilder::new();
            let i = b.register("in").marked().build();
            let c1 = b.control("c1").marked_with(TokenValue::True).build();
            let c2 = b.control("c2").marked_with(TokenValue::False).build();
            let p = b.push("p").guard_mode(mode).build();
            b.connect(i, p);
            b.connect(c1, p);
            b.connect(c2, p);
            let dfs = b.finish().unwrap();
            let s0 = DfsState::initial(&dfs);
            let marks: Vec<Event> = dfs
                .enabled_events(&s0)
                .into_iter()
                .filter(|e| e.node() == p)
                .collect();
            assert_eq!(marks, vec![Event::Mark(p, expect)]);
        }
    }

    #[test]
    fn inverted_guard_flips_value() {
        let mut b = DfsBuilder::new();
        let i = b.register("in").marked().build();
        let c = b.control("c").marked_with(TokenValue::False).build();
        let p = b.push("p").build();
        b.connect(i, p);
        b.connect_inverted(c, p);
        let dfs = b.finish().unwrap();
        let s0 = DfsState::initial(&dfs);
        assert!(dfs.is_event_enabled(&s0, Event::Mark(p, TokenValue::True)));
        assert!(!dfs.is_event_enabled(&s0, Event::Mark(p, TokenValue::False)));
    }

    #[test]
    fn event_labels_match_pn_convention() {
        let dfs = linear();
        let f = dfs.node_by_name("f").unwrap();
        let o = dfs.node_by_name("out").unwrap();
        let s0 = DfsState::initial(&dfs);
        assert_eq!(dfs.event_label(&s0, Event::Eval(f)), "C_f+");
        assert_eq!(
            dfs.event_label(&s0, Event::Mark(o, TokenValue::True)),
            "M_out+"
        );
    }
}

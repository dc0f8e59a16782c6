//! **rap-dse** — parallel design-space exploration for reconfigurable
//! asynchronous pipelines.
//!
//! The paper's configurations trade throughput against power and area
//! (Fig. 5 performance rows, Fig. 9 voltage/power sweeps); this crate
//! answers the question those trade-offs pose — *which design should I
//! build?* — by sweeping a declarative configuration space and emitting
//! the exact Pareto front over **(throughput, energy per item, area)** for
//! every workload demand:
//!
//! * [`space`] — the space: hardware candidates (static, reconfigurable,
//!   wagged-replicated pipelines) × workload window demands × datapath
//!   sizing × supply voltage;
//! * [`models`] — the wagged-OPE topology (full-pipeline replication
//!   behind round-robin steering);
//! * [`eval`] — exact per-point evaluation: period from
//!   `dfs_core::perf::analyse` (phase-unfolded where the schedule has
//!   choice), switching energy from the exact per-node activity, area
//!   from the `rap_silicon::cost` gate-equivalent model, and a budgeted
//!   deadlock/1-safety screen through `rap_petri`;
//! * [`pareto`] — the dominance kernel (deterministic, order-independent,
//!   property-tested against an O(n²) oracle);
//! * [`driver`] — the work-stealing thread pool (dealing structure groups)
//!   with sharded result collection, structural memoization and pruning.
//!
//! # Guarantees
//!
//! **Memoization is exact.** Configurations compile into a shared
//! `rap_session::Session`, which interns models by the canonical
//! `Dfs::structural_hash` plus a byte-exact identity digest: two points
//! that build identical timing models — e.g. the same silicon at two
//! supply voltages, or non-reconfigurable hardware under two workload
//! demands — share one `CompiledModel` and therefore one evaluation, and
//! voltage is applied analytically (`period(V) = period(V₀)·factor(V)`
//! under the uniform alpha-power scaling). Points that differ in sizing as
//! well build timing twins, which the session lets share one Petri image
//! and one screen, and the driver runs each group of twins on one worker,
//! so a sweep screens each untimed structure once and twins never race.
//! Supplying an external session ([`explore_with_session`]) extends the
//! sharing across sweeps.
//!
//! **Pruning is admissible: it never drops a true Pareto point.** A
//! candidate is skipped only when an *optimistic* bound on its objectives
//! — throughput bounded above via a certified period **lower** bound,
//! energy bounded below via the family's activity lower bound and the
//! same period bound, area exact — is dominated by an already-evaluated
//! exact point of the same workload class. Since the bound is at least as
//! good as the candidate's true objectives on every axis, and dominance
//! against the bound is required to be strict on an axis where the bound
//! does not understate (see `Objectives::dominates` and the derivation in
//! [`eval::optimistic_bound`]), the dominating exact point also strictly
//! dominates the candidate's true objectives — so the skipped point was
//! not on the front. Consequently the emitted front is **identical** to
//! the front of evaluating every configuration on its own, in its own
//! session, at any thread count; the test-suite asserts this against
//! exactly that oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod eval;
pub mod models;
pub mod pareto;
pub mod space;

pub use driver::{
    explore, explore_traced, explore_with_session, DseConfig, DseOutcome, Evaluation, SweepStats,
};
pub use eval::{evaluate_structural, StructuralEval};
pub use models::{wagged_ope, WaggedOpe};
pub use pareto::{naive_front_indices, pareto_front_indices, Objectives};
pub use space::{Config, DesignSpace, Hardware};

//! **rap** — Reconfigurable Asynchronous Pipelines: from formal models to
//! (simulated) silicon.
//!
//! A Rust reproduction of Sokolov, de Gennaro & Mokhov, *"Reconfigurable
//! Asynchronous Pipelines: from Formal Models to Silicon"*, DATE 2018.
//! This facade crate re-exports the workspace:
//!
//! * [`dfs`] (`dfs-core`) — the Dataflow Structures formalism: five node
//!   kinds, executable semantics, Petri-net translation, verification,
//!   timed simulation, max-cycle-ratio performance analysis, pipeline
//!   builders, wagging, a DSL and DOT export;
//! * [`petri`] (`rap-petri`) — 1-safe Petri nets with read arcs and the
//!   explicit-state reachability backend;
//! * [`reach`] (`rap-reach`) — the Reach-style property language;
//! * [`obs`] (`rap-obs`) — the tracing/metrics layer: attach a
//!   [`obs::Collector`] to a session with [`Session::with`], or to a single
//!   exploration through [`petri::reachability::ExploreConfig::obs`], to
//!   profile where a sweep spends its time (see the crate docs for the span
//!   taxonomy);
//! * [`session`] (`rap-session`) — **the recommended entry point**: compile
//!   models once, run typed queries (Petri image, LTS, throughput,
//!   verification screen, silicon cost) with cross-query artifact caching
//!   and the unified [`Error`] type — [`Session`] and [`CompiledModel`]
//!   are re-exported at the crate root;
//! * [`silicon`] (`rap-silicon`) — NCL-D dual-rail gates, netlists,
//!   Verilog export and a voltage-aware event-driven simulator;
//! * [`ope`] (`rap-ope`) — the ordinal-pattern-encoding accelerator case
//!   study and the evaluation-chip model;
//! * [`dse`] (`rap-dse`) — parallel design-space exploration: Pareto
//!   fronts over throughput, energy per item and area, driven through a
//!   shared [`Session`] so replicated configurations share their
//!   artifacts.
//!
//! # Quick start
//!
//! Build a model once, compile it into a [`Session`], and query — every
//! derived artifact (Petri translation, state space, phase-unfolded event
//! graph) is computed on first demand and cached for every later query:
//!
//! ```
//! use rap::dfs::DfsBuilder;
//! use rap::Session;
//!
//! // Fig. 1b in five lines: a control register guarding a push and a pop
//! let mut b = DfsBuilder::new();
//! let input = b.register("in").marked().build();
//! let cond = b.logic("cond").build();
//! let ctrl = b.control("ctrl").build();
//! let filt = b.push("filt").build();
//! let comp = b.register("comp").build();
//! let out = b.pop("out").build();
//! b.connect_chain(&[input, cond, ctrl]);
//! b.connect(input, filt);
//! b.connect(ctrl, filt);
//! b.connect_chain(&[filt, comp, out]);
//! b.connect(ctrl, out);
//! b.connect(out, input); // environment
//! let dfs = b.finish()?;
//!
//! let session = Session::new();
//! let model = session.compile(&dfs);
//!
//! // verify: no deadlocks in the reachable state space
//! let lts = model.lts(100_000)?;
//! assert!(lts.deadlocks().is_empty());
//! // analyse: exact steady-state throughput (phase-unfolded — has choice)
//! let perf = model.perf()?;
//! assert!(perf.throughput > 0.0);
//! // screen: budgeted deadlock/1-safety check over the Petri image
//! assert!(model.quick_check(100_000).is_clean());
//!
//! // the three queries shared one compiled model: exactly one Petri
//! // translation and one throughput analysis happened
//! let stats = session.stats();
//! assert_eq!(stats.queries.petri_translations, 1);
//! assert_eq!(stats.queries.perf_analyses, 1);
//! # Ok::<(), rap::Error>(())
//! ```
//!
//! The per-stage free functions (`dfs::to_petri`, `dfs::Lts::explore`,
//! `dfs::perf::analyse`, …) remain available — a [`Session`] returns
//! bit-identical results and is preferable whenever more than one question
//! is asked of the same model.
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the binaries regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dfs_core as dfs;
#[cfg(feature = "dse")]
pub use rap_dse as dse;
pub use rap_obs as obs;
#[cfg(feature = "ope")]
pub use rap_ope as ope;
pub use rap_petri as petri;
pub use rap_reach as reach;
pub use rap_session as session;
#[cfg(feature = "silicon")]
pub use rap_silicon as silicon;

pub use rap_session::{CompiledModel, Error, Session};

//! Dataflow Structures (DFS): a formal model for reconfigurable
//! asynchronous pipelines.
//!
//! This crate implements the primary contribution of *Reconfigurable
//! Asynchronous Pipelines: from Formal Models to Silicon* (Sokolov, de
//! Gennaro, Mokhov — DATE 2018): the DFS formalism extending Static Dataflow
//! Structures with **control**, **push** and **pop** register kinds for
//! modelling dynamic pipeline reconfiguration, together with
//!
//! * an executable operational semantics (eqs. (1)–(5)) — [`mod@semantics`],
//! * a translation to 1-safe Petri nets with read arcs (Fig. 3) —
//!   [`mod@to_petri`],
//! * formal verification (deadlock, control mismatch, persistence) through
//!   the one `rap-petri` check, decided in one exploration — [`verify`],
//! * interactive and timed simulation — [`sim`], [`timed`],
//! * performance analysis: maximum-cycle-ratio throughput bounds and
//!   bottleneck cycles (Fig. 5) — [`perf`], with automatic buffer
//!   insertion — [`optimize`],
//! * the pipeline design methodology of §III (generic, static and
//!   reconfigurable stages, Fig. 6) — [`pipelines`],
//! * a textual DSL and DOT export — [`dsl`], [`mod@dot`],
//! * the wagging transformation (\[15\] in the paper) — [`wagging`].
//!
//! # Quick start
//!
//! ```
//! use dfs_core::{DfsBuilder, Lts};
//!
//! // A three-register ring: the smallest live asynchronous pipeline loop
//! // (the paper notes three registers are the minimum for oscillation).
//! let mut b = DfsBuilder::new();
//! let a = b.register("a").marked().build();
//! let f = b.logic("f").build();
//! let c = b.register("b").build();
//! let d = b.register("c").build();
//! b.connect(a, f);
//! b.connect(f, c);
//! b.connect(c, d);
//! b.connect(d, a);
//! let dfs = b.finish()?;
//!
//! let lts = Lts::explore(&dfs, 10_000)?;
//! assert!(lts.deadlocks().is_empty());
//! # Ok::<(), dfs_core::DfsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod error;
mod graph;
mod lts;
mod node;
mod state;

pub mod dot;
pub mod dsl;
pub mod examples;
pub mod hash;
pub mod optimize;
pub mod perf;
pub mod pipelines;
pub mod semantics;
pub mod sim;
pub mod timed;
pub mod to_petri;
pub mod verify;
pub mod wagging;

pub use builder::{DfsBuilder, NodeBuilder};
pub use error::DfsError;
pub use graph::{Dfs, EdgeRef, GuardMode, RRef};
pub use lts::{node_rotation_symmetry, Lts};
pub use node::{InitialMarking, Node, NodeId, NodeKind, TokenValue};
pub use semantics::Event;
pub use state::DfsState;
pub use to_petri::{to_petri, PetriImage};

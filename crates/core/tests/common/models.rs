//! Hand-built models, each a small corner of the firing rule: a plain
//! ring, a control loop, mismatched guards, AND/OR-combined guards and an
//! inverted guard. The bisimulation suite checks each of them; the
//! workspace's rule digests pin their Petri images and unfoldings.

use dfs_core::{Dfs, DfsBuilder, GuardMode, TokenValue};

/// `r0 → f → r1 → r2 → r0` with one token: a ring through a logic node.
pub fn plain_ring() -> Dfs {
    let mut b = DfsBuilder::new();
    let r0 = b.register("r0").marked().build();
    let f = b.logic("f").build();
    let r1 = b.register("r1").build();
    let r2 = b.register("r2").build();
    b.connect(r0, f);
    b.connect(f, r1);
    b.connect(r1, r2);
    b.connect(r2, r0);
    b.finish().unwrap()
}

/// A three-register control loop carrying one False token.
pub fn control_loop() -> Dfs {
    let mut b = DfsBuilder::new();
    let c0 = b.control("c0").marked_with(TokenValue::False).build();
    let c1 = b.control("c1").build();
    let c2 = b.control("c2").build();
    b.connect(c0, c1);
    b.connect(c1, c2);
    b.connect(c2, c0);
    b.finish().unwrap()
}

/// A push guarded by two controls initialised True and False: under
/// unanimity the push is disabled for good.
pub fn mismatched_guards() -> Dfs {
    let mut b = DfsBuilder::new();
    let i = b.register("in").marked().build();
    let c1 = b.control("c1").marked_with(TokenValue::True).build();
    let c2 = b.control("c2").marked_with(TokenValue::False).build();
    let p = b.push("p").build();
    let o = b.register("out").build();
    b.connect(i, p);
    b.connect(c1, p);
    b.connect(c2, p);
    b.connect(p, o);
    b.finish().unwrap()
}

/// The mismatched guards of [`mismatched_guards`], combined under `mode`,
/// in a ring through `out` back to `in`.
pub fn combined_guards(mode: GuardMode) -> Dfs {
    let mut b = DfsBuilder::new();
    let i = b.register("in").marked().build();
    let c1 = b.control("c1").marked_with(TokenValue::True).build();
    let c2 = b.control("c2").marked_with(TokenValue::False).build();
    let p = b.push("p").guard_mode(mode).build();
    let o = b.register("out").build();
    b.connect(i, p);
    b.connect(c1, p);
    b.connect(c2, p);
    b.connect(p, o);
    b.connect(o, i);
    b.finish().unwrap()
}

/// A push guarded through an inverting arc by a False control, in a ring
/// through `out` back to `in`.
pub fn inverted_guard() -> Dfs {
    let mut b = DfsBuilder::new();
    let i = b.register("in").marked().build();
    let c = b.control("c").marked_with(TokenValue::False).build();
    let p = b.push("p").build();
    let o = b.register("out").build();
    b.connect(i, p);
    b.connect_inverted(c, p);
    b.connect(p, o);
    b.connect(o, i);
    b.finish().unwrap()
}

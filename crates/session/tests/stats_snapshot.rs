//! [`Session::stats`] returns a *coherent* snapshot: counters read while
//! other threads are mid-query must never tear. The invariants below are
//! maintained transactionally by the session (query and computation
//! counters for one query are bumped under a single meter lock, and the
//! per-model snapshots are merged under the intern lock), so they hold in
//! every observable snapshot, not just at quiescence.

use dfs_core::{Dfs, DfsBuilder};
use rap_session::{Session, SessionStats};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

/// A small marked ring, distinguishable by `tag` (node names are part of
/// the model identity, so each tag compiles to a distinct model).
fn model(tag: usize) -> Dfs {
    let mut b = DfsBuilder::new();
    let a = b.register(format!("a{tag}")).marked().build();
    let f = b.logic(format!("f{tag}")).build();
    let c = b.register(format!("c{tag}")).build();
    b.connect(a, f);
    b.connect(f, c);
    b.connect(c, a);
    b.finish().unwrap()
}

/// Every invariant that a torn read could violate.
fn assert_coherent(s: &SessionStats) {
    assert!(
        s.compile_hits <= s.compiles,
        "more intern hits than compile calls: {s:?}"
    );
    assert!(
        s.models <= s.compiles,
        "more distinct models than compile calls: {s:?}"
    );
    let q = &s.queries;
    // per kind: a computation is only ever recorded together with its
    // query, under one lock — a snapshot can never show the computation
    // without the query that caused it
    assert!(q.petri_translations <= q.petri_queries, "petri tore: {s:?}");
    assert!(q.perf_analyses <= q.perf_queries, "perf tore: {s:?}");
    assert!(q.lts_explorations <= q.lts_queries, "lts tore: {s:?}");
    assert!(q.check_runs <= q.check_queries, "check tore: {s:?}");
    assert!(q.cost_evaluations <= q.cost_queries, "cost tore: {s:?}");
    assert!(
        q.steady_measurements <= q.steady_queries,
        "steady tore: {s:?}"
    );
    assert!(q.computations() <= q.queries(), "totals tore: {s:?}");
}

#[test]
fn stats_snapshots_never_tear_under_concurrent_queries() {
    const WORKERS: usize = 4;
    const ROUNDS: usize = 40;
    let session = Session::new();
    let done = AtomicBool::new(false);
    // the workers start only once the reader has taken its first
    // snapshot, so the reader can never miss the whole run
    let reader_running = Barrier::new(WORKERS + 1);

    std::thread::scope(|scope| {
        let session = &session;
        let done = &done;
        let reader_running = &reader_running;
        let reader = scope.spawn(move || {
            assert_coherent(&session.stats());
            let mut seen = 1u32;
            reader_running.wait();
            while !done.load(Ordering::Relaxed) {
                assert_coherent(&session.stats());
                seen += 1;
            }
            seen
        });

        for w in 0..WORKERS {
            scope.spawn(move || {
                reader_running.wait();
                for r in 0..ROUNDS {
                    // mix fresh compiles with intern hits and repeat
                    // queries so every counter pair moves concurrently
                    let dfs = model((w * ROUNDS + r) % 7);
                    let m = session.compile(&dfs);
                    let _ = m.quick_check(2_000);
                    let _ = m.cost(&rap_session::CostModel::default());
                    let _ = m.perf();
                }
            });
        }

        // wait until every worker's last compile has landed, then flag
        // the reader down (the scope would deadlock joining the reader
        // if we never set `done`)
        loop {
            let s = session.stats();
            if s.compiles >= (WORKERS * ROUNDS) as u64 {
                break;
            }
            std::thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);
        let reads = reader.join().expect("reader thread");
        assert!(reads > 0, "reader never observed a snapshot");
    });

    // quiescent cross-check: the final snapshot adds up exactly
    let s = session.stats();
    assert_eq!(s.compiles, (WORKERS * ROUNDS) as u64);
    assert_eq!(s.models, 7);
    assert_eq!(s.compile_hits, s.compiles - 7);
    assert_coherent(&s);
    assert_eq!(s.queries.check_queries, (WORKERS * ROUNDS) as u64);
    // 7 distinct models -> exactly 7 state-space runs, everything else is
    // served from the per-model artifact cache
    assert_eq!(s.queries.check_runs, 7);
}

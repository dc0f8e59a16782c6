//! Store-backed sessions: cold / warm / restart coherence.
//!
//! The contract under test: a persistent session returns bit-identical
//! artifacts to a memory-only session in every generation, and the
//! [`SessionStats`] counters (query, computation and store counters) add
//! up exactly across a cold run, a warm re-query, and a process-restart
//! re-run over the same store directory.

use dfs_core::{Dfs, DfsBuilder, NodeId};
use rap_session::store::{ArtifactKey, QueryKind};
use rap_session::{CompiledModel, Session};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rap-session-test-{}-{}", std::process::id(), tag))
}

struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A marked ring with a logic stage — all four persisted queries succeed.
fn model() -> (Dfs, NodeId) {
    let mut b = DfsBuilder::new();
    let a = b.register("a").marked().build();
    let f = b.logic("f").build();
    let c = b.register("b").build();
    let d = b.register("c").build();
    b.connect(a, f);
    b.connect(f, c);
    b.connect(c, d);
    b.connect(d, a);
    (b.finish().unwrap(), a)
}

const BUDGET: usize = 10_000;
const MARKS: u64 = 64;

struct Answers {
    period_bits: u64,
    activity_bits: Vec<u64>,
    check: rap_petri::analysis::QuickCheck,
    area_bits: u64,
    switched_bits: u64,
    steady_bits: u64,
}

fn query_all(session: &Session, dfs: &Dfs, out: NodeId) -> Answers {
    let m = session.compile(dfs);
    let detail = m.perf_detail().unwrap();
    let cost = m.cost(&rap_session::CostModel::default()).unwrap();
    let steady = m.steady_period(out, MARKS).unwrap();
    Answers {
        period_bits: detail.report.period.to_bits(),
        activity_bits: detail
            .activity_per_item
            .iter()
            .map(|a| a.to_bits())
            .collect(),
        check: (*m.screen(BUDGET, None).unwrap()).clone(),
        area_bits: cost.area.to_bits(),
        switched_bits: cost.switched_ge_per_item.to_bits(),
        steady_bits: steady.period.to_bits(),
    }
}

fn assert_same(a: &Answers, b: &Answers) {
    assert_eq!(a.period_bits, b.period_bits);
    assert_eq!(a.activity_bits, b.activity_bits);
    assert_eq!(a.check, b.check);
    assert_eq!(a.area_bits, b.area_bits);
    assert_eq!(a.switched_bits, b.switched_bits);
    assert_eq!(a.steady_bits, b.steady_bits);
}

#[test]
fn cold_warm_restart_counters_add_up_and_answers_are_bit_identical() {
    let dir = TempDir(temp_dir("coldwarmrestart"));
    let (dfs, out) = model();

    // the reference: a fresh memory-only session
    let reference = query_all(&Session::new(), &dfs, out);

    // ---- cold: empty store — every query misses disk, computes, persists
    let cold_answers;
    let warm_answers;
    {
        let session = Session::open(&dir.0).unwrap();
        cold_answers = query_all(&session, &dfs, out);
        let cold = session.stats();
        // perf, check, cost, steady: one disk miss each, then a commit each
        assert_eq!(cold.store.disk_misses, 4);
        assert_eq!(cold.store.disk_hits, 0);
        assert_eq!(cold.store.corrupt_recovered, 0);
        assert_eq!(cold.store.write_errors, 0);
        assert!(cold.store.bytes_written > 0);
        assert_eq!(cold.store.bytes_read, 0);
        assert_eq!(cold.queries.perf_analyses, 1);
        assert_eq!(cold.queries.check_runs, 1);
        assert_eq!(cold.queries.cost_evaluations, 1);
        assert_eq!(cold.queries.steady_measurements, 1);

        // ---- warm: same session — memory cache serves, store untouched
        warm_answers = query_all(&session, &dfs, out);
        let warm = session.stats();
        assert_eq!(warm.store, cold.store, "warm queries never touch disk");
        assert_eq!(warm.queries.computations(), cold.queries.computations());
        assert_eq!(
            warm.queries.queries(),
            cold.queries.queries() + 4,
            "warm re-queries the four top-level artifacts; the cached slots \
             demand nothing further (no petri, no nested perf)"
        );
    }

    // ---- restart: new session over the same directory — zero computations
    let session = Session::open(&dir.0).unwrap();
    let restart_answers = query_all(&session, &dfs, out);
    let restart = session.stats();
    assert_eq!(restart.store.disk_hits, 4, "every artifact loads from disk");
    assert_eq!(restart.store.disk_misses, 0);
    assert_eq!(
        restart.store.bytes_written, 0,
        "nothing recomputed, nothing rewritten"
    );
    assert!(restart.store.bytes_read > 0);
    assert_eq!(
        restart.queries.computations(),
        0,
        "restart performs zero computations"
    );
    assert_eq!(restart.queries.perf_analyses, 0);
    assert_eq!(restart.queries.check_runs, 0);
    assert_eq!(
        restart.queries.petri_queries, 0,
        "a disk-served check never demands the translation"
    );

    assert_same(&reference, &cold_answers);
    assert_same(&reference, &warm_answers);
    assert_same(&reference, &restart_answers);
}

#[test]
fn locked_store_degrades_to_a_memory_session() {
    let dir = TempDir(temp_dir("degrade"));
    let holder = Session::open(&dir.0).unwrap();
    // second opener: the directory is locked by a live process (us)
    assert!(matches!(
        Session::open(&dir.0),
        Err(rap_session::StoreError::Locked { .. })
    ));
    let degraded = Session::open(&dir.0).unwrap_or_else(|_| Session::new());
    assert!(degraded.store().is_none(), "fell back to memory-only");
    // degradation changes cost, never answers
    let (dfs, out) = model();
    assert_same(
        &query_all(&holder, &dfs, out),
        &query_all(&degraded, &dfs, out),
    );
    assert_eq!(degraded.stats().store, rap_session::StoreStats::default());
}

#[test]
fn distinct_budgets_and_models_get_distinct_frames() {
    let dir = TempDir(temp_dir("distinct"));
    let (dfs, _) = model();
    {
        let session = Session::open(&dir.0).unwrap();
        let m = session.compile(&dfs);
        let c1 = m.screen(1_000, None).unwrap();
        let c2 = m.screen(2_000, None).unwrap();
        // budgets are part of the artifact key, so both persist
        assert_eq!(session.stats().store.disk_misses, 2);
        drop((c1, c2));
    }
    let session = Session::open(&dir.0).unwrap();
    let m = session.compile(&dfs);
    let _ = m.screen(1_000, None).unwrap();
    let _ = m.screen(2_000, None).unwrap();
    let stats = session.stats();
    assert_eq!(stats.store.disk_hits, 2);
    assert_eq!(stats.queries.check_runs, 0);
}

/// The full-space `quick_check` and the screen file separate frames
/// (`FullCheck` and `Check`), so neither is ever served as the other, and
/// a restart serves each from its own.
#[test]
fn the_full_check_and_the_screen_keep_separate_frames() {
    let dir = TempDir(temp_dir("full-and-screen"));
    let (dfs, _) = model();
    let full = (*Session::new().compile(&dfs).quick_check(BUDGET)).clone();
    let reduced = (*Session::new().compile(&dfs).screen(BUDGET, None).unwrap()).clone();
    {
        let session = Session::open(&dir.0).unwrap();
        let m = session.compile(&dfs);
        assert_eq!(*m.quick_check(BUDGET), full);
        assert_eq!(*m.screen(BUDGET, None).unwrap(), reduced);
        let stats = session.stats();
        assert_eq!((stats.queries.check_runs, stats.store.disk_misses), (2, 2));
        let store = session.store().unwrap();
        for kind in [QueryKind::Check, QueryKind::FullCheck] {
            let key = ArtifactKey {
                kind,
                ..check_key(&m)
            };
            assert!(store.load(&key).is_some(), "{kind:?}");
        }
    }
    let session = Session::open(&dir.0).unwrap();
    let m = session.compile(&dfs);
    assert_eq!(*m.screen(BUDGET, None).unwrap(), reduced);
    assert_eq!(*m.quick_check(BUDGET), full);
    let stats = session.stats();
    assert_eq!((stats.queries.check_runs, stats.store.disk_hits), (0, 2));
}

/// A `Check` frame written before checks recorded their derivation — a
/// full-space `quick_check` in the old payload layout, states first — is
/// never served as a screen: it is quarantined, the screen is recomputed
/// and its own frame takes the key.
#[test]
fn an_old_full_check_frame_is_not_served_as_a_screen() {
    use rap_session::store::codec::Writer;
    let dir = TempDir(temp_dir("old-frame"));
    let (dfs, _) = model();
    let reference = (*Session::new().compile(&dfs).screen(BUDGET, None).unwrap()).clone();
    {
        let session = Session::open(&dir.0).unwrap();
        let key = check_key(&session.compile(&dfs));
        // the old layout of a clean, exhaustive check of 5 states
        let mut w = Writer::new();
        w.u64(5);
        w.u8(0); // not truncated
        w.u8(0); // deadlock-free: holds
        w.u8(0); // no deadlock witness
        w.u8(0); // safe: holds
        w.u8(0); // no unsafe witness
        assert!(session.store().unwrap().save(&key, &w.into_bytes()));
    }
    let session = Session::open(&dir.0).unwrap();
    let m = session.compile(&dfs);
    assert_eq!(*m.screen(BUDGET, None).unwrap(), reference);
    let stats = session.stats();
    assert_eq!(stats.queries.check_runs, 1, "the old frame was not served");
    assert_eq!(m.counter_snapshot().get("session.check.disk_hit"), 0);
    assert_eq!(stats.store.corrupt_recovered, 1, "it was quarantined");
    drop((m, session));
    // the recomputed screen now owns the key
    let session = Session::open(&dir.0).unwrap();
    assert_eq!(
        *session.compile(&dfs).screen(BUDGET, None).unwrap(),
        reference
    );
    assert_eq!(session.stats().queries.check_runs, 0);
}

/// The ring of [`model`] with every latency set to `delay`: rings of two
/// delays are timing twins.
fn timed_ring(delay: f64) -> Dfs {
    let mut b = DfsBuilder::new();
    let a = b.register("a").marked().delay(delay).build();
    let f = b.logic("f").delay(delay).build();
    let c = b.register("b").delay(delay).build();
    let d = b.register("c").delay(delay).build();
    b.connect(a, f);
    b.connect(f, c);
    b.connect(c, d);
    b.connect(d, a);
    b.finish().unwrap()
}

fn check_key(model: &CompiledModel) -> ArtifactKey {
    ArtifactKey {
        structural: model.structural_hash(),
        identity: model.identity_digest(),
        kind: QueryKind::Check,
        subkey: BUDGET as u64,
    }
}

#[test]
fn timing_twins_commit_their_own_check_frames() {
    let dir = TempDir(temp_dir("twins"));
    let (fast, slow) = (timed_ring(1.0), timed_ring(3.0));
    let reference = (*Session::new().compile(&fast).screen(BUDGET, None).unwrap()).clone();
    {
        let session = Session::open(&dir.0).unwrap();
        let (a, b) = (session.compile(&fast), session.compile(&slow));
        assert_ne!(check_key(&a), check_key(&b));
        assert_eq!(*a.screen(BUDGET, None).unwrap(), reference);
        assert_eq!(*b.screen(BUDGET, None).unwrap(), reference);
        let stats = session.stats();
        assert_eq!(stats.queries.check_runs, 1, "the twins share one screen");
        assert_eq!(stats.queries.petri_translations, 1);
        assert_eq!(stats.store.disk_misses, 2, "each twin probed its own frame");
        // warm re-queries touch neither the screen nor the disk
        let _ = (a.screen(BUDGET, None), b.screen(BUDGET, None));
        assert_eq!(session.stats().store, stats.store);
        // each twin filed the screen under its own key
        let store = session.store().unwrap();
        for m in [&a, &b] {
            assert!(store.load(&check_key(m)).is_some());
        }
    }
    // restart: each twin is served from its own frame, whichever comes
    // first, and nothing is screened
    let session = Session::open(&dir.0).unwrap();
    assert_eq!(
        *session.compile(&slow).screen(BUDGET, None).unwrap(),
        reference
    );
    assert_eq!(
        *session.compile(&fast).screen(BUDGET, None).unwrap(),
        reference
    );
    let stats = session.stats();
    assert_eq!(stats.queries.check_runs, 0);
    assert_eq!(stats.queries.petri_queries, 0);
    assert_eq!(stats.store.disk_hits, 2);
    assert_eq!(stats.store.disk_misses, 0);
    assert_eq!(stats.store.bytes_written, 0);
}

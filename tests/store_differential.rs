//! Fault-matrix differential suite: a persistent session under injected
//! storage faults returns **bit-identical** answers to a fresh memory-only
//! session — graceful degradation may change what a query *costs*, never
//! what it *returns*.
//!
//! Each scenario scripts a fault schedule on [`FaultyStorage`] (torn
//! writes, ENOSPC, EIO reads, crash-before/after-rename, stale locks),
//! runs a cold store-backed sweep and a restart over the surviving
//! directory, and compares every artifact — all `f64`s by bit pattern —
//! against the in-memory reference. A scenario whose faults never fire is
//! a test bug, so every script also asserts its expected fire count.

use rap::dfs::{Dfs, DfsBuilder, NodeId};
use rap::obs::Obs;
use rap::petri::analysis::QuickCheck;
use rap::session::store::{DiskStorage, FaultyStorage, Store};
use rap::session::CostModel;
use rap::Session;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "rap-differential-{}-{}-{}",
        std::process::id(),
        tag,
        N.fetch_add(1, Ordering::Relaxed)
    ))
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

#[derive(PartialEq, Debug)]
struct Answers {
    period_bits: u64,
    activity_bits: Vec<u64>,
    check: QuickCheck,
    area_bits: u64,
    switched_bits: u64,
    steady_bits: u64,
}

fn query_all(session: &Session, dfs: &Dfs, out: NodeId) -> Answers {
    let m = session.compile(dfs);
    let detail = m.perf_detail().unwrap();
    let cost = m.cost(&CostModel::default()).unwrap();
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

/// One entry of the fault matrix: faults armed before the cold run and
/// before the restart, plus the exact number of fires both runs must
/// produce together.
struct Scenario {
    name: &'static str,
    arm_cold: fn(&FaultyStorage),
    arm_restart: fn(&FaultyStorage),
    expected_fires: u64,
}

fn no_faults(_: &FaultyStorage) {}

const MATRIX: &[Scenario] = &[
    Scenario {
        // the first commit silently keeps only its header prefix; the
        // restart must catch the checksum, quarantine, recompute
        name: "torn first write",
        arm_cold: |f| f.arm_torn_write(40),
        arm_restart: no_faults,
        expected_fires: 1,
    },
    Scenario {
        // the disk is full for the whole cold sweep: nothing persists,
        // the restart recomputes everything from scratch
        name: "ENOSPC on every cold write",
        arm_cold: |f| f.arm_enospc_writes(4),
        arm_restart: no_faults,
        expected_fires: 4,
    },
    Scenario {
        // a clean cold sweep, then every artifact read dies with EIO on
        // restart: each frame is quarantined and recomputed
        name: "EIO on every restart read",
        arm_cold: no_faults,
        arm_restart: |f| f.arm_eio_reads(4),
        expected_fires: 4,
    },
    Scenario {
        // the process dies before the first commit's rename: the artifact
        // never becomes visible, its temp file is swept on reopen
        name: "crash before first rename",
        arm_cold: |f| f.arm_crash_before_rename(),
        arm_restart: no_faults,
        expected_fires: 1,
    },
    Scenario {
        // the process dies just after the rename: the artifact landed, the
        // writer never learned it — the restart serves it from disk
        name: "crash after first rename",
        arm_cold: |f| f.arm_crash_after_rename(),
        arm_restart: no_faults,
        expected_fires: 1,
    },
    Scenario {
        // compound schedule: a torn commit plus a full disk in the cold
        // run, then an EIO on restart — degradation stacks, answers don't
        name: "torn + ENOSPC cold, EIO restart",
        arm_cold: |f| {
            f.arm_torn_write(40);
            f.arm_enospc_writes(2);
        },
        arm_restart: |f| f.arm_eio_reads(1),
        expected_fires: 4,
    },
];

#[test]
fn fault_matrix_answers_are_bit_identical_to_memory() {
    let (dfs, out) = model();
    let reference = query_all(&Session::new(), &dfs, out);

    for scenario in MATRIX {
        let dir = TempDir(temp_dir("matrix"));
        let faulty = FaultyStorage::new(Arc::new(DiskStorage));

        let cold_answers = {
            let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
            let session = Session::with(Some(store), Obs::none());
            (scenario.arm_cold)(&faulty);
            query_all(&session, &dfs, out)
        };
        assert_eq!(
            cold_answers, reference,
            "[{}] cold answers drifted from memory",
            scenario.name
        );

        (scenario.arm_restart)(&faulty);
        let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
        let session = Session::with(Some(store), Obs::none());
        let restart_answers = query_all(&session, &dfs, out);
        assert_eq!(
            restart_answers, reference,
            "[{}] restart answers drifted from memory",
            scenario.name
        );

        assert_eq!(
            faulty.faults_fired(),
            scenario.expected_fires,
            "[{}] fault schedule did not fire as scripted",
            scenario.name
        );
    }
}

#[test]
fn torn_write_is_quarantined_and_recomputed_exactly_once() {
    let dir = TempDir(temp_dir("torn"));
    let (dfs, out) = model();
    let faulty = FaultyStorage::new(Arc::new(DiskStorage));
    {
        let session = Session::with(
            Some(Store::open_with(&dir.0, faulty.clone()).unwrap()),
            Obs::none(),
        );
        faulty.arm_torn_write(40); // inside the header: checksum cannot hold
        query_all(&session, &dfs, out);
        // the tear is silent: the cold run believes all four commits landed
        assert_eq!(session.stats().store.write_errors, 0);
    }
    let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
    let session = Session::with(Some(store), Obs::none());
    query_all(&session, &dfs, out);
    let stats = session.stats();
    assert_eq!(
        stats.store.corrupt_recovered, 1,
        "the torn frame quarantined"
    );
    assert_eq!(stats.store.disk_hits, 3, "the other three frames verify");
    assert_eq!(stats.store.disk_misses, 1);
    assert_eq!(
        stats.queries.computations(),
        1,
        "exactly the torn artifact is recomputed"
    );
    assert_eq!(session.store().unwrap().quarantined_frames(), 1);
    // the recompute re-committed the artifact: a second restart is clean
    drop(session);
    let session = Session::with(Some(Store::open_with(&dir.0, faulty).unwrap()), Obs::none());
    query_all(&session, &dfs, out);
    assert_eq!(session.stats().store.disk_hits, 4);
    assert_eq!(session.stats().queries.computations(), 0);
}

#[test]
fn crash_after_rename_artifact_survives_and_serves_the_restart() {
    let dir = TempDir(temp_dir("crashafter"));
    let (dfs, out) = model();
    let faulty = FaultyStorage::new(Arc::new(DiskStorage));
    {
        let session = Session::with(
            Some(Store::open_with(&dir.0, faulty.clone()).unwrap()),
            Obs::none(),
        );
        faulty.arm_crash_after_rename();
        query_all(&session, &dfs, out);
        // the writer saw a failure it cannot distinguish from a lost commit
        assert_eq!(session.stats().store.write_errors, 1);
    }
    let session = Session::with(Some(Store::open_with(&dir.0, faulty).unwrap()), Obs::none());
    query_all(&session, &dfs, out);
    let stats = session.stats();
    assert_eq!(
        stats.store.disk_hits, 4,
        "the rename landed before the crash"
    );
    assert_eq!(stats.queries.computations(), 0);
}

#[test]
fn stale_lock_from_a_dead_process_is_broken_and_the_run_proceeds() {
    let dir = TempDir(temp_dir("stale"));
    let (dfs, out) = model();
    std::fs::create_dir_all(&dir.0).unwrap();
    // a plausible-but-dead holder: pids this large never exist on linux
    let dead_pid: u32 = 4_000_000_000;
    std::fs::write(dir.0.join("writer.lock"), dead_pid.to_string()).unwrap();
    let faulty = FaultyStorage::new(Arc::new(DiskStorage));
    faulty.set_pid_alive(dead_pid, false);
    let store = Store::open_with(&dir.0, faulty).unwrap();
    assert_eq!(store.stats().stale_locks_broken, 1);
    let session = Session::with(Some(store), Obs::none());
    assert_eq!(
        query_all(&session, &dfs, out),
        query_all(&Session::new(), &dfs, out)
    );
}

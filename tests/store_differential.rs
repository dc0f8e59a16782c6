//! Fault-matrix differential suite: a persistent session under injected
//! storage faults returns **bit-identical** answers to a fresh memory-only
//! session — graceful degradation may change what a query *costs*, never
//! what it *returns*.
//!
//! Each scenario scripts a fault schedule on [`FaultyStorage`] (torn
//! appends, ENOSPC, EIO reads, crashes around compaction's rename, a
//! machine crash that loses every unsynced append, stale locks), runs a
//! cold store-backed sweep and a restart over the surviving directory, and
//! compares every artifact — all `f64`s by bit pattern — against the
//! in-memory reference. A scenario whose faults never fire is a test bug,
//! so every script also asserts its expected fire count.

use rap::dfs::{Dfs, DfsBuilder, NodeId};
use rap::obs::Obs;
use rap::petri::analysis::QuickCheck;
use rap::session::store::{DiskStorage, FaultyStorage, Store};
use rap::session::CostModel;
use rap::Session;
use std::path::Path;
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
/// before the restart, what happens to the log between the two, and the
/// exact number of fires both runs must produce together.
struct Scenario {
    name: &'static str,
    arm_cold: fn(&FaultyStorage),
    between: fn(&Path),
    arm_restart: fn(&FaultyStorage),
    expected_fires: u64,
}

fn no_faults(_: &FaultyStorage) {}

fn log_untouched(_: &Path) {}

/// Appends the log to itself twice: every record now has two superseded
/// copies, so dead bytes outweigh live ones and the next open compacts.
fn triple_the_log(log: &Path) {
    let bytes = std::fs::read(log).unwrap();
    std::fs::write(log, bytes.repeat(3)).unwrap();
}

const MATRIX: &[Scenario] = &[
    Scenario {
        // the first append silently keeps only its header prefix; the
        // restart's scan must stop there, quarantine the tail, recompute
        name: "torn first append",
        arm_cold: |f| f.arm_torn_append(40),
        between: log_untouched,
        arm_restart: no_faults,
        expected_fires: 1,
    },
    Scenario {
        // the disk is full for the whole cold sweep: nothing persists,
        // the restart recomputes everything from scratch
        name: "ENOSPC on every cold append",
        arm_cold: |f| f.arm_enospc_appends(4),
        between: log_untouched,
        arm_restart: no_faults,
        expected_fires: 4,
    },
    Scenario {
        // a clean cold sweep, then every record read dies with EIO on
        // restart: each record leaves the index and is recomputed
        name: "EIO on every restart read",
        arm_cold: no_faults,
        between: log_untouched,
        arm_restart: |f| f.arm_eio_reads(4),
        expected_fires: 4,
    },
    Scenario {
        // the restart's compaction dies before its rename: the old log
        // stays in place and serves the restart
        name: "crash before compaction's rename",
        arm_cold: no_faults,
        between: triple_the_log,
        arm_restart: |f| f.arm_crash_before_rename(),
        expected_fires: 1,
    },
    Scenario {
        // the compaction dies just after its rename: the compacted log
        // landed, the store never learned it — the restart serves it
        name: "crash after compaction's rename",
        arm_cold: no_faults,
        between: triple_the_log,
        arm_restart: |f| f.arm_crash_after_rename(),
        expected_fires: 1,
    },
    Scenario {
        // the machine dies where the cold tenancy syncs: every append of
        // the cold sweep is lost with the OS cache, the restart recomputes
        name: "machine crash at the cold sync",
        arm_cold: |f| f.arm_machine_crash(),
        between: log_untouched,
        arm_restart: no_faults,
        expected_fires: 1,
    },
    Scenario {
        // compound schedule: a full disk in the cold run, then an EIO and
        // a torn append on restart — degradation stacks, answers don't
        name: "ENOSPC cold, EIO + torn restart",
        arm_cold: |f| f.arm_enospc_appends(2),
        between: log_untouched,
        arm_restart: |f| {
            f.arm_eio_reads(1);
            f.arm_torn_append(40);
        },
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

        let (cold_answers, log) = {
            let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
            let log = store.log_path().to_path_buf();
            let session = Session::with(Some(store), Obs::none());
            (scenario.arm_cold)(&faulty);
            (query_all(&session, &dfs, out), log)
        };
        assert_eq!(
            cold_answers, reference,
            "[{}] cold answers drifted from memory",
            scenario.name
        );

        (scenario.between)(&log);
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
        // the perf frame lands whole; the next append, the cost frame's,
        // tears inside the header, where no checksum can hold
        session.compile(&dfs).perf_detail().unwrap();
        faulty.arm_torn_append(40);
        query_all(&session, &dfs, out);
        // the tear is silent: the cold run believes all four appends landed
        assert_eq!(session.stats().store.write_errors, 0);
    }
    let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
    let session = Session::with(Some(store), Obs::none());
    query_all(&session, &dfs, out);
    let stats = session.stats();
    assert_eq!(
        stats.store.corrupt_recovered, 1,
        "the scan cut the torn record and everything after it as one tail"
    );
    assert_eq!(
        stats.store.disk_hits, 1,
        "the record before the tear verifies"
    );
    assert_eq!(stats.store.disk_misses, 3);
    // the torn record and every record after it recompute, each once
    assert_eq!(stats.queries.perf_analyses, 0);
    assert_eq!(stats.queries.cost_evaluations, 1);
    assert_eq!(stats.queries.steady_measurements, 1);
    assert_eq!(stats.queries.check_runs, 1);
    assert_eq!(session.store().unwrap().quarantined_frames(), 1);
    // the recomputes re-appended their artifacts: a second restart is clean
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
    let log = {
        let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
        let log = store.log_path().to_path_buf();
        query_all(&Session::with(Some(store), Obs::none()), &dfs, out);
        log
    };
    let live = std::fs::metadata(&log).unwrap().len();
    triple_the_log(&log);
    faulty.arm_crash_after_rename();
    let session = Session::with(Some(Store::open_with(&dir.0, faulty).unwrap()), Obs::none());
    // the compaction saw a failure it cannot tell from a rename that never
    // happened
    assert_eq!(session.stats().store.write_errors, 1);
    assert_eq!(std::fs::metadata(&log).unwrap().len(), live);
    query_all(&session, &dfs, out);
    let stats = session.stats();
    assert_eq!(
        stats.store.disk_hits, 4,
        "the compacted log landed before the crash"
    );
    assert_eq!(stats.queries.computations(), 0);
}

/// A machine crash loses what the tenancy appended since its last sync,
/// and nothing before it: the frames a clean tenancy synced at its drop
/// are disk hits after the crash, and the rest recompute.
#[test]
fn a_machine_crash_loses_only_the_unsynced_frames() {
    let dir = TempDir(temp_dir("machine"));
    let (dfs, out) = model();
    let reference = query_all(&Session::new(), &dfs, out);
    let faulty = FaultyStorage::new(Arc::new(DiskStorage));
    let open = || {
        Session::with(
            Some(Store::open_with(&dir.0, faulty.clone()).unwrap()),
            Obs::none(),
        )
    };
    {
        // a tenancy that persists the throughput and cost frames and syncs
        let session = open();
        let m = session.compile(&dfs);
        m.perf_detail().unwrap();
        m.cost(&CostModel::default()).unwrap();
    }
    {
        // a tenancy that appends the other two, then loses power where it
        // would have synced them
        let session = open();
        assert_eq!(query_all(&session, &dfs, out), reference);
        assert_eq!(session.stats().store.disk_hits, 2);
        faulty.arm_machine_crash();
    }
    assert_eq!(faulty.faults_fired(), 1);
    let session = open();
    assert_eq!(query_all(&session, &dfs, out), reference);
    let stats = session.stats();
    assert_eq!(stats.store.disk_hits, 2, "the synced frames survive");
    assert_eq!(stats.store.disk_misses, 2, "the unsynced ones are lost");
    assert_eq!(stats.store.corrupt_recovered, 0, "and nothing is torn");
    assert_eq!(stats.queries.perf_analyses, 0);
    assert_eq!(stats.queries.cost_evaluations, 0);
    assert_eq!(stats.queries.steady_measurements, 1);
    assert_eq!(stats.queries.check_runs, 1);
}

/// Group commit, counted: a cold tenancy that appends N frames syncs
/// twice — the log's data once, and the directory once because it created
/// the log — where a sync per frame file, its directory entry per rename
/// and the lock made 2N + 1. A tenancy that appends to an existing log
/// syncs the log alone, and one that appends nothing syncs nothing.
#[test]
fn a_cold_session_syncs_once_on_the_log_and_once_on_the_directory() {
    let (dfs, out) = model();
    for run in 0..2 {
        let dir = TempDir(temp_dir(&format!("syncs{run}")));
        let faulty = FaultyStorage::new(Arc::new(DiskStorage));
        let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
        let log = store.log_path().to_path_buf();
        let session = Session::with(Some(store), Obs::none());
        query_all(&session, &dfs, out);
        assert!(session.stats().store.bytes_written > 0);
        assert!(faulty.syncs().is_empty(), "no sync before the drop");
        drop(session);
        assert_eq!(
            faulty.syncs(),
            vec![log.clone(), dir.0.clone()],
            "run {run}"
        );

        // a restart that only reads syncs nothing
        query_all(
            &Session::with(
                Some(Store::open_with(&dir.0, faulty.clone()).unwrap()),
                Obs::none(),
            ),
            &dfs,
            out,
        );
        assert_eq!(faulty.syncs().len(), 2, "run {run}");

        // a tenancy that appends to the existing log syncs the log alone
        let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
        let session = Session::with(Some(store), Obs::none());
        session.compile(&dfs).screen(BUDGET + 1, None).unwrap();
        drop(session);
        assert_eq!(faulty.syncs()[2..], [log], "run {run}");
    }
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

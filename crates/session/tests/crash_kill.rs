//! Real-process crash smoke: a child process holding the store lock is
//! SIGKILLed with a torn record at the end of its frame log, and a fresh
//! session over the directory must recover everything — break the dead
//! holder's lock, cut and quarantine the torn record, recompute exactly
//! that artifact, and return bit-identical answers.
//!
//! The child is this same test binary re-invoked with `RAP_CRASH_CHILD_DIR`
//! set: it runs a full store-backed sweep (the real commit path — one
//! append per frame, no sync until the store drops), then tears the log's
//! last record, the only record a crash mid-append can tear, at a seeded
//! byte offset (`RAP_CRASH_SEED`), drops a `ready` marker file, and sleeps
//! holding the lock until the parent kills it — SIGKILL, so no destructor
//! ever syncs the log or releases the lock, and the reopen shows that a
//! process crash loses nothing else. (A marker file, not stdout: the
//! child's test harness captures its output.)

use dfs_core::{Dfs, DfsBuilder, NodeId};
use rap_session::store::frame::split_frame;
use rap_session::Session;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rap-crash-kill-{}-{}", std::process::id(), tag))
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

fn query_bits(session: &Session, dfs: &Dfs, out: NodeId) -> Vec<u64> {
    let m = session.compile(dfs);
    let detail = m.perf_detail().unwrap();
    let cost = m.cost(&rap_session::CostModel::default()).unwrap();
    let steady = m.steady_period(out, MARKS).unwrap();
    let check = m.screen(BUDGET, None).expect("screen");
    vec![
        detail.report.period.to_bits(),
        cost.area.to_bits(),
        cost.switched_ge_per_item.to_bits(),
        steady.period.to_bits(),
        check.states as u64,
        u64::from(check.is_clean()),
    ]
}

/// The child half: sweep, tear the last record, announce, hold the lock.
fn child_main(dir: &std::path::Path, seed: u64) -> ! {
    let session = Session::open(dir).expect("child takes the lock");
    let (dfs, out) = model();
    query_bits(&session, &dfs, out);

    // find the last record of the log, and cut it at a seeded offset that
    // keeps a proper, nonempty prefix of it: every such prefix must fail
    // verification on reload
    let log = session.store().unwrap().log_path().to_path_buf();
    let bytes = std::fs::read(&log).unwrap();
    let (mut start, mut last) = (0, 0);
    while let Some((_, _, len)) = split_frame(&bytes[start..]) {
        last = start;
        start += len;
    }
    assert_eq!(start, bytes.len(), "the cold sweep left a clean log");
    let len = (start - last) as u64;
    let cut = last as u64 + 1 + seed % (len - 1);
    let f = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    f.set_len(cut).unwrap();

    std::fs::write(dir.join("ready"), b"").unwrap();
    // hold the lock until SIGKILL — the Store must never drop cleanly
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

#[test]
fn sigkill_mid_commit_recovers_on_reopen() {
    if let Ok(dir) = std::env::var("RAP_CRASH_CHILD_DIR") {
        let seed = std::env::var("RAP_CRASH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(17);
        child_main(std::path::Path::new(&dir), seed);
    }

    let (dfs, out) = model();
    let reference = query_bits(&Session::new(), &dfs, out);

    // a few seeded tear offsets: inside the header, inside the payload,
    // and just short of the checksum
    for seed in [0u64, 17, 1_000_003] {
        let dir = TempDir(temp_dir(&format!("s{seed}")));

        let mut child = std::process::Command::new(std::env::current_exe().unwrap())
            .arg("--exact")
            .arg("sigkill_mid_commit_recovers_on_reopen")
            .env("RAP_CRASH_CHILD_DIR", &dir.0)
            .env("RAP_CRASH_SEED", seed.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn child");
        let ready = dir.0.join("ready");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while !ready.exists() {
            assert!(
                std::time::Instant::now() < deadline,
                "seed {seed}: child never reported ready"
            );
            if let Some(status) = child.try_wait().expect("poll child") {
                panic!("seed {seed}: child died before tearing the record: {status}");
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        child.kill().expect("SIGKILL the lock holder");
        child.wait().expect("reap the child");
        std::fs::remove_file(&ready).unwrap();

        // the lock file still names the (now dead) child
        let lock = std::fs::read_to_string(dir.0.join("writer.lock")).unwrap();
        assert_eq!(lock.trim().parse::<u32>().unwrap(), child.id());

        // recovery: stale lock broken, torn record cut and quarantined,
        // exactly the torn artifact (the screen, the sweep's last commit)
        // recomputed, answers bit-identical
        let session =
            Session::open(&dir.0).unwrap_or_else(|e| panic!("seed {seed}: reopen failed: {e:?}"));
        assert_eq!(query_bits(&session, &dfs, out), reference, "seed {seed}");
        let stats = session.stats();
        assert_eq!(stats.store.stale_locks_broken, 1, "seed {seed}");
        assert_eq!(stats.store.corrupt_recovered, 1, "seed {seed}");
        assert_eq!(stats.store.disk_hits, 3, "seed {seed}");
        assert_eq!(stats.store.disk_misses, 1, "seed {seed}");
        assert_eq!(stats.queries.check_runs, 1, "seed {seed}");
        // the screen runs on the model's Petri image, which is never
        // persisted: its recompute translates the model again
        assert_eq!(stats.queries.petri_translations, 1, "seed {seed}");
        assert_eq!(stats.queries.computations(), 2, "seed {seed}");
        assert_eq!(session.store().unwrap().quarantined_frames(), 1);
    }
}

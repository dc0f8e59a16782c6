//! Store-level behavior: append/load round-trips, quarantine of every
//! corruption class, supersession and compaction of the frame log, lock
//! discipline, the `FaultyStorage` matrix at the raw store layer (the
//! session-level differential suite lives in the facade tests), and a
//! property test of the log scan over corrupted logs.

use rap_store::frame::{encode_frame, HEADER_LEN};
use rap_store::{ArtifactKey, DiskStorage, FaultyStorage, QueryKind, Store};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rap-store-test-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        TempDir(temp_dir(tag))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn key(subkey: u64) -> ArtifactKey {
    ArtifactKey {
        structural: 0xABCD_EF01_2345_6789,
        identity: 0x1357_9BDF_0246_8ACE,
        kind: QueryKind::Check,
        subkey,
    }
}

#[test]
fn save_load_round_trip_and_counters() {
    let dir = TempDir::new("roundtrip");
    let store = Store::open(&dir.0).unwrap();
    let payload = b"deadlock_free: holds @ 4096 states".to_vec();

    assert_eq!(store.load(&key(4096)), None);
    assert!(store.save(&key(4096), &payload));
    assert_eq!(store.load(&key(4096)), Some(payload.clone()));

    let s = store.stats();
    assert_eq!(s.disk_hits, 1);
    assert_eq!(s.disk_misses, 1);
    assert_eq!(s.corrupt_recovered, 0);
    assert!(s.bytes_written > payload.len() as u64);
    assert_eq!(s.bytes_read, s.bytes_written);
}

#[test]
fn artifacts_survive_reopen() {
    let dir = TempDir::new("reopen");
    {
        let store = Store::open(&dir.0).unwrap();
        assert!(store.save(&key(1), b"one"));
        assert!(store.save(&key(2), b"two"));
    }
    let store = Store::open(&dir.0).unwrap();
    assert_eq!(store.load(&key(1)), Some(b"one".to_vec()));
    assert_eq!(store.load(&key(2)), Some(b"two".to_vec()));
    assert_eq!(store.stats().disk_hits, 2);
}

#[test]
fn truncated_record_is_quarantined_and_recomputed() {
    let dir = TempDir::new("truncate");
    let store = Store::open(&dir.0).unwrap();
    assert!(store.save(&key(7), b"whole frame"));
    // cut the log inside the record's payload: header intact, checksum
    // unverifiable
    let log = store.log_path().to_path_buf();
    truncate(&log, HEADER_LEN + 3);

    assert_eq!(store.load(&key(7)), None);
    assert_eq!(store.quarantined_frames(), 1);
    let s = store.stats();
    assert_eq!(s.corrupt_recovered, 1);
    assert_eq!(s.disk_misses, 1);
    // the record left the index: the next load misses without reading it
    assert_eq!(store.load(&key(7)), None);
    assert_eq!(store.stats().corrupt_recovered, 1);

    // the recompute path appends and the store is healthy again
    assert!(store.save(&key(7), b"whole frame"));
    assert_eq!(store.load(&key(7)), Some(b"whole frame".to_vec()));
    drop(store);

    // the reopen's scan ends at the torn record and cuts it off, with the
    // record appended after it: both recompute
    let store = Store::open(&dir.0).unwrap();
    assert_eq!(store.stats().corrupt_recovered, 1);
    assert_eq!(std::fs::metadata(&log).unwrap().len(), 0);
    assert_eq!(store.load(&key(7)), None);
    assert_eq!(store.quarantined_frames(), 2);
}

#[test]
fn a_later_record_of_a_key_supersedes_an_earlier_one() {
    let dir = TempDir::new("supersede");
    let log = {
        let store = Store::open(&dir.0).unwrap();
        assert!(store.save(&key(3), b"first"));
        assert!(store.save(&key(4), b"other"));
        assert!(store.save(&key(3), b"second"));
        assert_eq!(store.load(&key(3)), Some(b"second".to_vec()));
        store.log_path().to_path_buf()
    };
    let store = Store::open(&dir.0).unwrap();
    assert_eq!(store.load(&key(3)), Some(b"second".to_vec()));
    assert_eq!(store.load(&key(4)), Some(b"other".to_vec()));
    drop(store);
    // a record appended behind the store's back is read like any other:
    // the key comes from the record, not from where it lies
    append(&log, &encode_frame(&key(3), b"third"));
    let store = Store::open(&dir.0).unwrap();
    assert_eq!(store.load(&key(3)), Some(b"third".to_vec()));
    assert_eq!(store.load(&key(4)), Some(b"other".to_vec()));
    assert_eq!(store.stats().corrupt_recovered, 0);
}

#[test]
fn bit_flip_anywhere_is_rejected() {
    let dir = TempDir::new("bitflip");
    let good = encode_frame(&key(5), b"sensitive");
    let log = dir.0.join("frames.log");
    for i in (0..good.len()).step_by(7) {
        let mut bad = good.clone();
        bad[i] ^= 0x40;
        // caught by the open's scan…
        std::fs::create_dir_all(&dir.0).unwrap();
        std::fs::write(&log, &bad).unwrap();
        let store = Store::open(&dir.0).unwrap();
        assert_eq!(store.load(&key(5)), None, "flip at byte {i} accepted");
        assert_eq!(store.stats().corrupt_recovered, 1, "flip at byte {i}");
        // …and by the load's re-verification
        assert!(store.save(&key(5), b"sensitive"));
        let log_len = std::fs::metadata(&log).unwrap().len();
        assert_eq!(log_len, good.len() as u64, "the scan cut the bad record");
        flip(&log, i, 0x40);
        assert_eq!(store.load(&key(5)), None, "flip at byte {i} accepted");
        assert_eq!(store.stats().corrupt_recovered, 2, "flip at byte {i}");
    }
    std::fs::write(&log, &good).unwrap();
    let store = Store::open(&dir.0).unwrap();
    assert_eq!(store.load(&key(5)), Some(b"sensitive".to_vec()));
}

#[test]
fn files_of_the_per_frame_layout_are_ignored() {
    let dir = TempDir::new("oldlayout");
    std::fs::create_dir_all(&dir.0).unwrap();
    let k = key(6);
    let old_name = format!(
        "a{:02x}-{:016x}-{:016x}-{:016x}.rap",
        k.kind as u8, k.structural, k.identity, k.subkey
    );
    std::fs::write(dir.0.join(old_name), encode_frame(&k, b"old layout")).unwrap();
    let store = Store::open(&dir.0).unwrap();
    assert_eq!(store.load(&k), None);
    let s = store.stats();
    assert_eq!(
        (s.disk_misses, s.corrupt_recovered, s.read_errors),
        (1, 0, 0)
    );
}

#[test]
fn live_lock_refuses_second_opener() {
    let dir = TempDir::new("livelock");
    let _first = Store::open(&dir.0).unwrap();
    match Store::open(&dir.0) {
        Err(rap_store::StoreError::Locked { holder }) => {
            assert_eq!(holder, std::process::id());
        }
        other => panic!("expected Locked, got {other:?}"),
    }
}

#[test]
fn stale_lock_of_dead_process_is_broken() {
    let dir = TempDir::new("stalelock");
    std::fs::create_dir_all(&dir.0).unwrap();
    // a pid that cannot be alive: our own pid is alive, so fake one via
    // FaultyStorage's liveness override
    let dead_pid = 4_000_000_000u32;
    std::fs::write(dir.0.join("writer.lock"), dead_pid.to_string()).unwrap();
    let faulty = FaultyStorage::new(Arc::new(DiskStorage));
    faulty.set_pid_alive(dead_pid, false);
    let store = Store::open_with(&dir.0, faulty).unwrap();
    assert_eq!(store.stats().stale_locks_broken, 1);
    assert!(store.save(&key(1), b"after takeover"));
    assert_eq!(store.load(&key(1)), Some(b"after takeover".to_vec()));
}

#[test]
fn live_foreign_lock_is_respected() {
    let dir = TempDir::new("foreignlock");
    std::fs::create_dir_all(&dir.0).unwrap();
    let foreign_pid = 4_000_000_001u32;
    std::fs::write(dir.0.join("writer.lock"), foreign_pid.to_string()).unwrap();
    let faulty = FaultyStorage::new(Arc::new(DiskStorage));
    faulty.set_pid_alive(foreign_pid, true);
    match Store::open_with(&dir.0, faulty) {
        Err(rap_store::StoreError::Locked { holder }) => assert_eq!(holder, foreign_pid),
        other => panic!("expected Locked, got {other:?}"),
    }
}

#[test]
fn garbage_lock_file_is_treated_as_stale() {
    let dir = TempDir::new("garbagelock");
    std::fs::create_dir_all(&dir.0).unwrap();
    std::fs::write(dir.0.join("writer.lock"), "not a pid at all").unwrap();
    let store = Store::open(&dir.0).unwrap();
    assert_eq!(store.stats().stale_locks_broken, 1);
    drop(store);
    assert!(!dir.0.join("writer.lock").exists());
}

#[test]
fn drop_releases_lock_for_next_opener() {
    let dir = TempDir::new("relock");
    {
        let _s = Store::open(&dir.0).unwrap();
    }
    let _s2 = Store::open(&dir.0).unwrap();
}

#[test]
fn torn_append_is_silent_then_caught_on_read() {
    let dir = TempDir::new("torn");
    let faulty = FaultyStorage::new(Arc::new(DiskStorage));
    let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
    faulty.arm_torn_append(HEADER_LEN + 2);
    // the torn append reports success — silent corruption
    assert!(store.save(&key(11), b"will be torn"));
    assert_eq!(faulty.faults_fired(), 1);
    assert_eq!(store.load(&key(11)), None);
    assert_eq!(store.stats().corrupt_recovered, 1);
    // recompute-and-append heals it
    assert!(store.save(&key(11), b"will be torn"));
    assert_eq!(store.load(&key(11)), Some(b"will be torn".to_vec()));
}

#[test]
fn enospc_drops_the_append_but_never_errors_the_caller() {
    let dir = TempDir::new("enospc");
    let faulty = FaultyStorage::new(Arc::new(DiskStorage));
    let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
    faulty.arm_enospc_appends(1);
    assert!(!store.save(&key(12), b"no space"));
    assert_eq!(store.stats().write_errors, 1);
    assert_eq!(store.load(&key(12)), None);
    // disk recovered: next save lands
    assert!(store.save(&key(12), b"no space"));
    assert_eq!(store.load(&key(12)), Some(b"no space".to_vec()));
}

#[test]
fn eio_read_is_a_miss_not_a_failure() {
    let dir = TempDir::new("eio");
    let faulty = FaultyStorage::new(Arc::new(DiskStorage));
    let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
    assert!(store.save(&key(13), b"readable later"));
    faulty.arm_eio_reads(1);
    assert_eq!(store.load(&key(13)), None);
    let s = store.stats();
    assert_eq!(s.read_errors, 1);
    // the unreadable record left the index; an append + read succeeds
    assert!(store.save(&key(13), b"readable later"));
    assert_eq!(store.load(&key(13)), Some(b"readable later".to_vec()));
}

/// A log of three records of `key(14)`: two superseded, one live, so the
/// next open compacts it.
fn bloated_log(dir: &Path) -> PathBuf {
    let store = Store::open(dir).unwrap();
    for payload in [&b"v1"[..], b"v2", b"v3"] {
        assert!(store.save(&key(14), payload));
    }
    store.log_path().to_path_buf()
}

#[test]
fn compaction_keeps_only_the_live_records() {
    let dir = TempDir::new("compact");
    let log = bloated_log(&dir.0);
    assert!(Store::open(&dir.0).unwrap().save(&key(15), b"kept"));
    let store = Store::open(&dir.0).unwrap();
    let live = encode_frame(&key(14), b"v3").len() + encode_frame(&key(15), b"kept").len();
    assert_eq!(std::fs::metadata(&log).unwrap().len(), live as u64);
    assert_eq!(store.load(&key(14)), Some(b"v3".to_vec()));
    assert_eq!(store.load(&key(15)), Some(b"kept".to_vec()));
    assert!(!dir.0.join("frames.log.compact").exists());
}

#[test]
fn crash_before_compaction_rename_keeps_the_log() {
    let dir = TempDir::new("crashbefore");
    let log = bloated_log(&dir.0);
    let bloated = std::fs::read(&log).unwrap();
    let faulty = FaultyStorage::new(Arc::new(DiskStorage));
    faulty.arm_crash_before_rename();
    let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
    assert_eq!(faulty.faults_fired(), 1);
    assert_eq!(store.stats().write_errors, 1);
    // nothing moved: the old log serves, and no temp file is left over
    assert_eq!(std::fs::read(&log).unwrap(), bloated);
    assert!(!dir.0.join("frames.log.compact").exists());
    assert_eq!(store.load(&key(14)), Some(b"v3".to_vec()));
    drop(store);
    // the next open compacts
    let store = Store::open(&dir.0).unwrap();
    let live = encode_frame(&key(14), b"v3").len();
    assert_eq!(std::fs::metadata(&log).unwrap().len(), live as u64);
    assert_eq!(store.load(&key(14)), Some(b"v3".to_vec()));
}

#[test]
fn crash_after_compaction_rename_serves_the_compacted_log() {
    let dir = TempDir::new("crashafter");
    let log = bloated_log(&dir.0);
    let faulty = FaultyStorage::new(Arc::new(DiskStorage));
    faulty.arm_crash_after_rename();
    // the store believes the compaction failed…
    let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
    assert_eq!(faulty.faults_fired(), 1);
    assert_eq!(store.stats().write_errors, 1);
    // …but the compacted log landed, and the store reads what it holds
    let live = encode_frame(&key(14), b"v3").len();
    assert_eq!(std::fs::metadata(&log).unwrap().len(), live as u64);
    assert_eq!(store.load(&key(14)), Some(b"v3".to_vec()));
    assert_eq!(store.stats().corrupt_recovered, 0);
}

#[test]
fn machine_crash_loses_only_what_was_appended_since_the_last_sync() {
    let dir = TempDir::new("machinecrash");
    let faulty = FaultyStorage::new(Arc::new(DiskStorage));
    {
        let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
        assert!(store.save(&key(16), b"synced at drop"));
    }
    {
        let store = Store::open_with(&dir.0, faulty.clone()).unwrap();
        assert!(store.save(&key(17), b"lost with the cache"));
        // the machine dies where this tenancy would have synced
        faulty.arm_machine_crash();
    }
    assert_eq!(faulty.faults_fired(), 1);
    let store = Store::open(&dir.0).unwrap();
    assert_eq!(store.load(&key(16)), Some(b"synced at drop".to_vec()));
    assert_eq!(store.load(&key(17)), None);
    assert_eq!(store.stats().corrupt_recovered, 0);
}

fn truncate(path: &Path, len: usize) {
    let f = std::fs::OpenOptions::new().write(true).open(path).unwrap();
    f.set_len(len as u64).unwrap();
}

fn append(path: &Path, bytes: &[u8]) {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new().append(true).open(path).unwrap();
    f.write_all(bytes).unwrap();
}

fn flip(path: &Path, at: usize, mask: u8) {
    let mut bytes = std::fs::read(path).unwrap();
    bytes[at] ^= mask;
    std::fs::write(path, bytes).unwrap();
}

/// One way a log goes bad.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Random bytes after the last record.
    Garbage,
    /// Cut at an offset.
    Cut,
    /// One bit flipped in a record.
    Flip,
    /// A copy of a record inserted between two records.
    Duplicate,
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

    /// The open's scan over a log of valid records with one kind of
    /// damage: it never panics, every key loads the payload of its last
    /// record before the first bad one (and nothing else), and the log is
    /// left as exactly that prefix — or as the prefix's live records when
    /// superseded bytes outweigh them and the open compacted.
    #[test]
    fn the_log_scan_keeps_exactly_the_valid_prefix(
        records in proptest::collection::vec(
            (0u64..4, proptest::collection::vec(proptest::prelude::any::<u8>(), 0..40)),
            1..10,
        ),
        damage in proptest::prop_oneof![
            proptest::strategy::Just(Damage::Garbage),
            proptest::strategy::Just(Damage::Cut),
            proptest::strategy::Just(Damage::Flip),
            proptest::strategy::Just(Damage::Duplicate),
        ],
        pick in proptest::prelude::any::<u64>(),
        place in proptest::prelude::any::<u64>(),
        garbage in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..48),
    ) {
        let mut frames: Vec<(u64, Vec<u8>, Vec<u8>)> = records
            .into_iter()
            .map(|(k, payload)| (k, encode_frame(&key(k), &payload), payload))
            .collect();
        // the records that must survive, in log order, and the damaged log
        let n = frames.len();
        let (valid, log): (usize, Vec<u8>) = match damage {
            Damage::Garbage => {
                let mut log: Vec<u8> = frames.iter().flat_map(|f| f.1.clone()).collect();
                log.extend_from_slice(&garbage);
                (n, log)
            }
            Damage::Cut => {
                let log: Vec<u8> = frames.iter().flat_map(|f| f.1.clone()).collect();
                let cut = (pick % (log.len() as u64 + 1)) as usize;
                let mut end = 0;
                let whole = frames
                    .iter()
                    .take_while(|f| {
                        end += f.1.len();
                        end <= cut
                    })
                    .count();
                (whole, log[..cut].to_vec())
            }
            Damage::Flip => {
                let i = (pick % n as u64) as usize;
                let at = (place % frames[i].1.len() as u64) as usize;
                let mut log = Vec::new();
                for (j, f) in frames.iter().enumerate() {
                    let start = log.len();
                    log.extend_from_slice(&f.1);
                    if j == i {
                        log[start + at] ^= 1 << (place % 8);
                    }
                }
                (i, log)
            }
            Damage::Duplicate => {
                let copy = frames[(pick % n as u64) as usize].clone();
                frames.insert((place % (n as u64 + 1)) as usize, copy);
                (n + 1, frames.iter().flat_map(|f| f.1.clone()).collect())
            }
        };
        let prefix = &frames[..valid];

        let dir = TempDir::new("scan");
        std::fs::create_dir_all(&dir.0).unwrap();
        let path = dir.0.join("frames.log");
        std::fs::write(&path, &log).unwrap();
        let store = Store::open(&dir.0).unwrap();

        // the live record of each key: the last one in the prefix
        let mut live: Vec<usize> = (0..4)
            .filter_map(|k| prefix.iter().rposition(|f| f.0 == k))
            .collect();
        live.sort_unstable();
        for k in 0..4 {
            let want = prefix.iter().rev().find(|f| f.0 == k).map(|f| f.2.clone());
            proptest::prop_assert_eq!(store.load(&key(k)), want, "key {}", k);
        }
        let prefix_bytes: Vec<u8> = prefix.iter().flat_map(|f| f.1.clone()).collect();
        // a cut tail is set aside as one quarantined file
        let cut = u64::from(prefix_bytes.len() < log.len());
        let live_bytes: Vec<u8> = live.iter().flat_map(|&i| prefix[i].1.clone()).collect();
        let dead = prefix_bytes.len() - live_bytes.len();
        let want_log = if dead > live_bytes.len() { live_bytes } else { prefix_bytes };
        proptest::prop_assert!(std::fs::read(&path).unwrap() == want_log, "log after open");
        proptest::prop_assert_eq!(store.stats().corrupt_recovered, cut);
        proptest::prop_assert_eq!(store.quarantined_frames() as u64, cut);
    }
}

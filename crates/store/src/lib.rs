//! **rap-store** — a crash-safe, content-addressed on-disk artifact cache.
//!
//! `rap-session` memoizes every derived artifact (throughput analysis,
//! verification screen, silicon cost, …) in memory; this crate makes those
//! artifacts survive process restarts. A [`Store`] is a directory holding
//! one append-only log, `frames.log`, of checksummed, versioned **frames**,
//! one per artifact, keyed by the same identity the session caches under:
//! the model's structural hash, its byte-exact identity digest, the query
//! kind, and the query's own cache key (state budget, cost-model key, …) —
//! see [`ArtifactKey`]. [`Store::open`] reads the log once into an
//! in-memory index from key to record (a Bitcask-style keydir), so a miss
//! costs no I/O and a hit one positioned read.
//!
//! # Durability contract
//!
//! 1. **One log, one sync per tenancy.** A save appends its frame to the
//!    log with one write and nothing else: no temp file, no rename, no
//!    fsync. When the [`Store`] drops, before it releases the lock, it
//!    fdatasyncs the log once if this tenancy appended to it, and fsyncs
//!    the directory once if this tenancy created the log (group commit).
//!    - A process crash, SIGKILL included, loses nothing: appended bytes
//!      are in the OS cache, and the next open reads them.
//!    - A machine crash can lose what the tenancy appended since its last
//!      sync. Contract 4 makes a lost frame a recompute, and the next open
//!      cuts a torn tail (contract 2).
//! 2. **Verify on read.** Open verifies every record as a load verifies
//!    it: the magic, the schema version, the full checksum, and the key the
//!    frame embeds. The first record that fails, or is cut short, ends the
//!    scan; the log is truncated there and the cut bytes are set aside as
//!    one file in `quarantine/` (created on first use). A later record of a
//!    key supersedes an earlier one, and when superseded bytes outweigh
//!    live ones the open compacts the log: the live records go to a temp
//!    file with one write and one fsync, which is renamed over the log
//!    before the directory is fsynced. Every load reads its record again
//!    and re-verifies it; a record that fails is dropped from the index,
//!    **quarantined** (its bytes set aside in `quarantine/`) and reported
//!    as a miss, so the caller transparently recomputes and re-appends it.
//!    Files of the per-frame layout that preceded the log (`a*.rap`) are
//!    ignored: a miss costs a recompute.
//! 3. **Single writer.** A pid-stamped `writer.lock` file guards the
//!    directory. Locks left behind by dead processes (SIGKILL mid-sweep)
//!    are detected by a liveness probe and broken; a lock held by a live
//!    process makes [`Store::open`] fail with [`StoreError::Locked`]. The
//!    lock file is never synced: it names a live process, and after a
//!    machine crash every holder is dead, so whether the file survived
//!    changes nothing.
//! 4. **Graceful degradation.** No I/O failure is ever allowed to change
//!    an answer — only its cost. Failed appends (ENOSPC, EIO) are counted
//!    and dropped; failed or corrupt reads are counted and recomputed; a
//!    failed compaction leaves the log as the rename left it. The
//!    differential fault-injection suite in the facade pins this: a
//!    session over an arbitrarily faulted store returns bit-identical
//!    artifacts to a fresh in-memory session.
//!
//! All I/O goes through the [`Storage`] trait. Production uses
//! [`DiskStorage`]; tests wrap it in [`FaultyStorage`], which injects torn
//! appends (kill-at-byte-k), ENOSPC, read EIO, crashes around compaction's
//! rename, machine crashes that lose every unsynced append, and stale/live
//! lock scenarios on demand.
//!
//! The frame format and checksum live in [`frame`]; the little-endian
//! byte codec shared with the payload encoders lives in [`codec`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod faults;
pub mod frame;
mod storage;

pub use faults::FaultyStorage;
pub use storage::{DiskStorage, Storage};

use frame::{decode_frame, encode_frame, split_frame};
use rap_obs::{CounterSnapshot, Meter, Obs};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// The query kinds a store distinguishes. The discriminants are part of
/// the on-disk format (they appear in frame headers), so they are assigned
/// explicitly and must never be reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum QueryKind {
    /// Throughput analysis with per-node activity (`perf_detail`).
    Perf = 1,
    /// The design sweep's budgeted deadlock/1-safety screen (`screen`); the
    /// subkey is the state budget. Until the screen was reduced this kind
    /// held `quick_check`'s full-space frames; a payload records how it was
    /// derived, so such an old frame is never served as a screen.
    Check = 2,
    /// Silicon cost summary (`cost`); the subkey is the cost model's
    /// cache key.
    Cost = 3,
    /// Timed-simulator steady-state recurrence (`steady_period`); the
    /// subkey digests the watched node and mark budget.
    Steady = 4,
    /// Budgeted deadlock/1-safety check over the full state space
    /// (`quick_check`); the subkey is the state budget.
    FullCheck = 5,
}

impl QueryKind {
    pub(crate) fn from_tag(tag: u8) -> Option<QueryKind> {
        match tag {
            1 => Some(QueryKind::Perf),
            2 => Some(QueryKind::Check),
            3 => Some(QueryKind::Cost),
            4 => Some(QueryKind::Steady),
            5 => Some(QueryKind::FullCheck),
            _ => None,
        }
    }
}

/// The full identity of one cached artifact.
///
/// `structural` and `identity` are the model's two interning digests (the
/// same pair `rap-session` interns compiled models under), `kind` is the
/// query, and `subkey` is the query's own cache key — the state budget for
/// checks, the cost-model key for costs, zero for the (unkeyed) throughput
/// analysis. Payload decoders additionally echo their raw key parameters
/// inside the payload where the subkey is a digest, so a digest collision
/// degrades to a recompute, never to a wrong answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Canonical structural hash of the model.
    pub structural: u64,
    /// Byte-exact identity digest (names, order, attributes).
    pub identity: u64,
    /// Which query produced the artifact.
    pub kind: QueryKind,
    /// The query's own cache key (0 when the query is unkeyed).
    pub subkey: u64,
}

/// Why a store could not be opened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The directory is locked by a live writer process.
    Locked {
        /// Pid recorded in the lock file.
        holder: u32,
    },
    /// An I/O error while preparing the directory or taking the lock.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Locked { holder } => {
                write!(f, "artifact store is locked by live process {holder}")
            }
            StoreError::Io(msg) => write!(f, "artifact store I/O error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Store counters: every read/write outcome, so degradation is observable.
///
/// The counters are cumulative over the lifetime of the [`Store`] value
/// (i.e. one process's tenancy of the directory, not the directory's
/// history). `StoreStats` is a *view* over the store's `rap-obs` counter
/// set — see [`StoreStats::from_counters`] for the name mapping — taken as
/// one coherent snapshot, never a field-by-field read.
///
/// **Aliasing note:** a [`disk_hits`](StoreStats::disk_hits) that served a
/// DSE evaluation is *also* counted as a memo hit by the DSE driver (which
/// only distinguishes "ran the analysis here" from "did not"); never sum
/// the two counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Loads served from a verified record of the log.
    pub disk_hits: u64,
    /// Loads that found no record (the artifact was never persisted, was
    /// lost in a machine crash, or a corrupt predecessor was quarantined).
    pub disk_misses: u64,
    /// Corrupt / torn / stale-versioned records set aside in `quarantine/`:
    /// a log tail cut at open, or a record that failed verification on
    /// load. Each one is transparently recomputed by the caller, so this is
    /// the count of *recovered* records.
    pub corrupt_recovered: u64,
    /// Reads that failed with an I/O error (treated as misses).
    pub read_errors: u64,
    /// Frame bytes successfully appended.
    pub bytes_written: u64,
    /// Frame bytes of verified loads.
    pub bytes_read: u64,
    /// Appends dropped, and compactions abandoned, because of an I/O error
    /// (ENOSPC, an injected crash…).
    pub write_errors: u64,
    /// Stale locks of dead writers broken during [`Store::open`].
    pub stale_locks_broken: u64,
}

impl StoreStats {
    /// Builds the view from a coherent counter snapshot. The taxonomy
    /// names (see the `rap-obs` crate docs) map as:
    /// `store.read.hit` → `disk_hits`, `store.read.miss` → `disk_misses`,
    /// `store.quarantine` → `corrupt_recovered`, `store.read.error` →
    /// `read_errors`, `store.write.bytes` → `bytes_written`,
    /// `store.read.bytes` → `bytes_read`, `store.write.error` →
    /// `write_errors`, `store.lock.stale_broken` → `stale_locks_broken`.
    #[must_use]
    pub fn from_counters(c: &CounterSnapshot) -> StoreStats {
        StoreStats {
            disk_hits: c.get("store.read.hit"),
            disk_misses: c.get("store.read.miss"),
            corrupt_recovered: c.get("store.quarantine"),
            read_errors: c.get("store.read.error"),
            bytes_written: c.get("store.write.bytes"),
            bytes_read: c.get("store.read.bytes"),
            write_errors: c.get("store.write.error"),
            stale_locks_broken: c.get("store.lock.stale_broken"),
        }
    }
}

const LOCK_FILE: &str = "writer.lock";
const LOG_FILE: &str = "frames.log";
/// Where a compaction writes the live records before renaming them over
/// the log; a crash can leave it behind, and the next compaction
/// overwrites it.
const COMPACT_FILE: &str = "frames.log.compact";
const QUARANTINE_DIR: &str = "quarantine";

/// Where a key's live record sits in the log: its offset and length.
type Record = (u64, usize);

/// The in-memory index of the log, and whether this tenancy has appended.
#[derive(Default)]
struct Log {
    index: HashMap<ArtifactKey, Record>,
    appended: bool,
}

/// Indexes the valid records at the start of `bytes`, a later record of a
/// key superseding an earlier one. Returns the index and where the first
/// record that fails verification, or is cut short, begins (`bytes.len()`
/// when every record verifies).
fn scan(bytes: &[u8]) -> (HashMap<ArtifactKey, Record>, usize) {
    let mut index = HashMap::new();
    let mut at = 0;
    while let Some((key, _, len)) = split_frame(&bytes[at..]) {
        index.insert(key, (at as u64, len));
        at += len;
    }
    (index, at)
}

/// A content-addressed artifact cache over one directory — see the
/// [crate docs](crate) for the durability contract.
///
/// A `Store` holds the directory's single-writer lock from
/// [`open`](Store::open) until it is dropped, and syncs what it appended
/// as it drops. It is `Send + Sync`; the session layer shares one store
/// across all compiled models via `Arc`, and appends from many threads
/// take one mutex, which also guards the index.
pub struct Store {
    dir: PathBuf,
    log_path: PathBuf,
    storage: Arc<dyn Storage>,
    meter: Meter,
    /// The pid written into the lock file — removed again on drop.
    lock_pid: u32,
    /// No log existed at open: a tenancy that appends creates it, and
    /// then syncs the directory too.
    fresh_log: bool,
    /// How long the open's compaction took, until a recorder is attached
    /// to receive it as a `store.compact` span.
    compact_ns: Option<u64>,
    log: Mutex<Log>,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl Store {
    /// Opens (creating if necessary) the store at `dir` on the real
    /// filesystem, and reads its log into the index.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when a live process holds the directory;
    /// [`StoreError::Io`] when the directory or lock cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        Store::open_with(dir, Arc::new(DiskStorage))
    }

    /// [`open`](Store::open) over an arbitrary [`Storage`] backend — the
    /// fault-injection hook ([`FaultyStorage`]) and the seam any future
    /// remote/mmap backend slots into.
    ///
    /// # Errors
    ///
    /// See [`open`](Store::open).
    pub fn open_with(
        dir: impl AsRef<Path>,
        storage: Arc<dyn Storage>,
    ) -> Result<Store, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let io_err = |op: &str, e: io::Error| StoreError::Io(format!("{op}: {e}"));
        storage
            .create_dir_all(&dir)
            .map_err(|e| io_err("create store dir", e))?;

        let lock_pid = std::process::id();
        let lock_path = dir.join(LOCK_FILE);
        let mut stale_broken = 0u64;
        // two attempts: the first may break one stale lock, the second must
        // then succeed (or lose a race to a concurrent live opener, which
        // is correctly reported as Locked)
        let mut attempts = 0;
        loop {
            match storage.create_exclusive(&lock_path, lock_pid.to_string().as_bytes()) {
                Ok(()) => break,
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    attempts += 1;
                    if attempts > 2 {
                        return Err(StoreError::Io(
                            "lock keeps reappearing while being broken".into(),
                        ));
                    }
                    let holder = storage
                        .read(&lock_path)
                        .ok()
                        .and_then(|b| String::from_utf8(b).ok())
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match holder {
                        // a live holder — including this very process via
                        // another Store value — keeps the directory locked
                        Some(pid) if storage.process_alive(pid) => {
                            return Err(StoreError::Locked { holder: pid });
                        }
                        // dead holder or unreadable garbage: the lock is
                        // stale — break it and retry
                        _ => {
                            storage
                                .remove(&lock_path)
                                .map_err(|e| io_err("break stale lock", e))?;
                            stale_broken += 1;
                        }
                    }
                }
                Err(e) => return Err(io_err("take lock", e)),
            }
        }

        let mut store = Store {
            log_path: dir.join(LOG_FILE),
            dir,
            storage,
            meter: Meter::new(),
            lock_pid,
            fresh_log: false,
            compact_ns: None,
            log: Mutex::default(),
        };
        if stale_broken > 0 {
            store.meter.add("store.lock.stale_broken", stale_broken);
        }
        store.read_log(true);
        Ok(store)
    }

    /// Reads the log into the index: cuts a torn or corrupt tail off, and
    /// compacts when `may_compact` and superseded bytes outweigh live ones.
    /// An unreadable log leaves the index empty — every load a miss.
    fn read_log(&mut self, may_compact: bool) {
        let bytes = match self.storage.read(&self.log_path) {
            Ok(bytes) => bytes,
            Err(e) => {
                self.fresh_log = e.kind() == io::ErrorKind::NotFound;
                if !self.fresh_log {
                    self.meter.add("store.read.error", 1);
                }
                return;
            }
        };
        let (index, end) = scan(&bytes);
        if end < bytes.len() {
            self.set_aside(Some(&bytes[end..]), end as u64);
            let _ = self.storage.truncate(&self.log_path, end as u64);
        }
        let live: usize = index.values().map(|&(_, len)| len).sum();
        self.log_mut().index = index;
        if may_compact && end - live > live {
            let t0 = Instant::now();
            self.compact(&bytes);
            self.compact_ns = Some(elapsed_ns(t0));
        }
    }

    /// Rewrites the log as its live records alone, in log order.
    fn compact(&mut self, bytes: &[u8]) {
        let mut live: Vec<(ArtifactKey, Record)> =
            self.log_mut().index.iter().map(|(k, &r)| (*k, r)).collect();
        live.sort_unstable_by_key(|&(_, (offset, _))| offset);
        let mut out = Vec::with_capacity(live.iter().map(|&(_, (_, len))| len).sum());
        let mut index = HashMap::with_capacity(live.len());
        for (key, (offset, len)) in live {
            index.insert(key, (out.len() as u64, len));
            let at = offset as usize;
            out.extend_from_slice(&bytes[at..at + len]);
        }
        let tmp = self.dir.join(COMPACT_FILE);
        let written = self
            .storage
            .write(&tmp, &out)
            .and_then(|()| self.storage.sync(&tmp));
        if written.is_err() {
            // the log is untouched, and so is its index
            self.meter.add("store.write.error", 1);
            let _ = self.storage.remove(&tmp);
            return;
        }
        if self.storage.rename(&tmp, &self.log_path).is_err() {
            // the rename may or may not have landed: trust only what the
            // log now holds
            self.meter.add("store.write.error", 1);
            let _ = self.storage.remove(&tmp);
            self.read_log(false);
            return;
        }
        let _ = self.storage.sync(&self.dir);
        self.log_mut().index = index;
    }

    fn log(&self) -> MutexGuard<'_, Log> {
        self.log.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn log_mut(&mut self) -> &mut Log {
        self.log.get_mut().unwrap_or_else(PoisonError::into_inner)
    }

    /// Attaches a recorder: I/O counters are mirrored into it (under the
    /// same `store.*` taxonomy names), read/append latency is observed in
    /// the `store.read_ns` / `store.write_ns` log2 histograms, every
    /// quarantined record emits a `store.quarantine` event naming the file
    /// it was set aside in, the drop-time sync is a `store.sync` span, and
    /// a compaction the open ran is recorded as a `store.compact` span
    /// under the span the calling thread has open.
    ///
    /// Must be called before the store is shared (it takes `&mut self`).
    /// `Session::with(Some(store), obs)` calls it with the session's own
    /// handle, so a session and its store record into one recorder.
    pub fn set_recorder(&mut self, obs: Obs) {
        if let Some(ns) = self.compact_ns.take() {
            obs.record_span("store.compact", ns);
        }
        self.meter.set_obs(obs);
    }

    /// The directory this store manages.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The path of the frame log (diagnostics and the crash harness; the
    /// file need not exist yet).
    #[must_use]
    pub fn log_path(&self) -> &Path {
        &self.log_path
    }

    /// Loads and verifies the payload stored under `key`.
    ///
    /// Returns `None` on a miss — including every failure mode: no record
    /// (answered from the index, with no I/O), an unreadable record (I/O
    /// error), or a record that fails verification (bad magic, version or
    /// checksum, or a key mismatch), which is quarantined first. A `None`
    /// therefore always means "recompute (and [`save`](Store::save)) this
    /// artifact".
    #[must_use]
    pub fn load(&self, key: &ArtifactKey) -> Option<Vec<u8>> {
        let start = self.meter.obs().is_enabled().then(Instant::now);
        let result = self.load_inner(key);
        if let Some(t0) = start {
            self.meter.obs().observe_ns("store.read_ns", elapsed_ns(t0));
        }
        result
    }

    fn load_inner(&self, key: &ArtifactKey) -> Option<Vec<u8>> {
        let found = self.log().index.get(key).copied();
        let Some(at @ (offset, len)) = found else {
            self.meter.add("store.read.miss", 1);
            return None;
        };
        // appends never move a record, so the read needs no lock
        let payload = match self.storage.read_at(&self.log_path, offset, len) {
            Ok(bytes) => {
                let payload = decode_frame(&bytes, key);
                if payload.is_none() {
                    self.forget(key, at);
                    self.set_aside(Some(&bytes), offset);
                } else {
                    self.meter.add("store.read.bytes", len as u64);
                }
                payload
            }
            Err(_) => {
                // unreadable (EIO…): count it and stop serving the record,
                // so the recompute's append takes the key
                self.meter.add("store.read.error", 1);
                self.forget(key, at);
                None
            }
        };
        let outcome = if payload.is_some() {
            "store.read.hit"
        } else {
            "store.read.miss"
        };
        self.meter.add(outcome, 1);
        payload
    }

    /// Drops `key` from the index if it still names the record `at` (a
    /// concurrent save may have appended a newer one).
    fn forget(&self, key: &ArtifactKey, at: Record) {
        let mut log = self.log();
        if log.index.get(key) == Some(&at) {
            log.index.remove(key);
        }
    }

    /// Appends `payload` under `key` to the log, with one write and no
    /// sync: the store syncs once, when it drops. Best-effort — a failed
    /// append is counted ([`StoreStats::write_errors`]) and dropped, never
    /// surfaced to the query that computed the artifact. Returns whether
    /// the append succeeded.
    pub fn save(&self, key: &ArtifactKey, payload: &[u8]) -> bool {
        let start = self.meter.obs().is_enabled().then(Instant::now);
        let frame = encode_frame(key, payload);
        let appended = {
            let mut log = self.log();
            let appended = self.storage.append(&self.log_path, &frame);
            if let Ok(offset) = appended {
                log.index.insert(*key, (offset, frame.len()));
                log.appended = true;
            }
            appended.is_ok()
        };
        if appended {
            self.meter.add("store.write.bytes", frame.len() as u64);
        } else {
            self.meter.add("store.write.error", 1);
        }
        if let Some(t0) = start {
            self.meter
                .obs()
                .observe_ns("store.write_ns", elapsed_ns(t0));
        }
        appended
    }

    /// Drops `key`'s record from the index, sets its bytes aside in
    /// `quarantine/` and counts it as a recovered corrupt record. Exposed
    /// for payload decoders: a record whose *checksum* verifies but whose
    /// payload fails schema decoding is equally corrupt from the caller's
    /// point of view.
    pub fn quarantine(&self, key: &ArtifactKey) {
        let Some(at @ (offset, len)) = self.log().index.get(key).copied() else {
            return;
        };
        let bytes = self.storage.read_at(&self.log_path, offset, len).ok();
        self.forget(key, at);
        self.set_aside(bytes.as_deref(), offset);
    }

    /// Keeps `bytes`, cut from the log at `offset`, as a new file in
    /// `quarantine/` for post-mortems (nothing is kept when they could not
    /// be read), and counts one quarantined record.
    fn set_aside(&self, bytes: Option<&[u8]>, offset: u64) {
        let dir = self.dir.join(QUARANTINE_DIR);
        let kept = bytes.and_then(|bytes| {
            self.storage.create_dir_all(&dir).ok()?;
            let mut n = self.quarantined_frames();
            loop {
                let name = format!("{n:06}.rap");
                match self.storage.create_exclusive(&dir.join(&name), bytes) {
                    Ok(()) => return Some(name),
                    Err(e) if e.kind() == io::ErrorKind::AlreadyExists => n += 1,
                    Err(_) => return None,
                }
            }
        });
        self.meter.add("store.quarantine", 1);
        self.meter
            .obs()
            .note("store.quarantine", kept.as_deref().unwrap_or("-"), offset);
    }

    /// Number of records and log tails currently set aside in this store's
    /// `quarantine/` directory.
    #[must_use]
    pub fn quarantined_frames(&self) -> usize {
        self.storage
            .list(&self.dir.join(QUARANTINE_DIR))
            .map(|v| v.len())
            .unwrap_or(0)
    }

    /// Coherent counter snapshot (one lock acquisition — related counters
    /// can never tear apart).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats::from_counters(&self.meter.snapshot())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // the tenancy's one sync, while the lock still keeps other
        // writers out
        if self.log_mut().appended {
            let _span = self.meter.obs().span("store.sync");
            let _ = self.storage.sync(&self.log_path);
            if self.fresh_log {
                let _ = self.storage.sync(&self.dir);
            }
        }
        // release the single-writer lock, but only if it is still ours —
        // never clobber a successor that legitimately broke a stale lock
        let lock_path = self.dir.join(LOCK_FILE);
        if let Ok(bytes) = self.storage.read(&lock_path) {
            if String::from_utf8_lossy(&bytes).trim() == self.lock_pid.to_string() {
                let _ = self.storage.remove(&lock_path);
            }
        }
    }
}

// The session layer shares one store across threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Store>();
};

//! **rap-store** — a crash-safe, content-addressed on-disk artifact cache.
//!
//! `rap-session` memoizes every derived artifact (throughput analysis,
//! verification screen, silicon cost, …) in memory; this crate makes those
//! artifacts survive process restarts. A [`Store`] is a directory of
//! checksummed, versioned **frames**, one per artifact, keyed by the same
//! identity the session caches under: the model's structural hash, its
//! byte-exact identity digest, the query kind, and the query's own cache
//! key (state budget, cost-model key, …) — see [`ArtifactKey`].
//!
//! # Durability contract
//!
//! 1. **Atomic commits.** An artifact is written as a complete frame to a
//!    temporary file, fsynced, then atomically renamed into place (and the
//!    directory fsynced). Readers never observe a half-written frame at
//!    the final path under a crash of the *writer process*; a torn frame
//!    can still appear if the machine itself dies with dirty page cache,
//!    which is why reads verify, not trust.
//! 2. **Verify on read.** Every load re-checks the magic, the schema
//!    version, the full checksum, and that the frame's embedded key equals
//!    the requested key. A corrupt, truncated, stale-versioned or alien
//!    frame is **quarantined** (moved to `quarantine/`) and reported as a
//!    miss, so the caller transparently recomputes and rewrites it.
//! 3. **Single writer.** A pid-stamped `writer.lock` file guards the
//!    directory. Locks left behind by dead processes (SIGKILL mid-commit)
//!    are detected by a liveness probe and broken; a lock held by a live
//!    process makes [`Store::open`] fail with [`StoreError::Locked`].
//! 4. **Graceful degradation.** No I/O failure is ever allowed to change
//!    an answer — only its cost. Failed writes (ENOSPC, crash injection)
//!    are counted and dropped; failed or corrupt reads are counted and
//!    recomputed. The differential fault-injection suite in the facade
//!    pins this: a session over an arbitrarily faulted store returns
//!    bit-identical artifacts to a fresh in-memory session.
//!
//! All I/O goes through the [`Storage`] trait. Production uses
//! [`DiskStorage`]; tests wrap it in [`FaultyStorage`], which injects torn
//! writes (kill-at-byte-k), ENOSPC, read EIO, crash-before/after-rename
//! and stale/live lock scenarios on demand.
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

use frame::{decode_frame, encode_frame};
use rap_obs::{CounterSnapshot, Meter, Obs};
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The query kinds a store distinguishes. The discriminants are part of
/// the on-disk format (they appear in file names and frame headers), so
/// they are assigned explicitly and must never be reused.
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

impl ArtifactKey {
    fn file_name(&self) -> String {
        format!(
            "a{:02x}-{:016x}-{:016x}-{:016x}.rap",
            self.kind as u8, self.structural, self.identity, self.subkey
        )
    }
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
    /// Loads served from a verified on-disk frame.
    pub disk_hits: u64,
    /// Loads that found no frame (the artifact was never persisted, or a
    /// corrupt predecessor was quarantined earlier).
    pub disk_misses: u64,
    /// Corrupt / truncated / stale-versioned / alien frames quarantined
    /// and reported as misses — each one is transparently recomputed by
    /// the caller, so this is the count of *recovered* frames.
    pub corrupt_recovered: u64,
    /// Reads that failed with an I/O error (treated as misses).
    pub read_errors: u64,
    /// Frame bytes successfully committed.
    pub bytes_written: u64,
    /// Frame bytes of verified loads.
    pub bytes_read: u64,
    /// Writes dropped because of an I/O error (ENOSPC, injected crash…).
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
const QUARANTINE_DIR: &str = "quarantine";
const TMP_SUFFIX: &str = ".tmp";

/// A content-addressed artifact cache over one directory — see the
/// [crate docs](crate) for the durability contract.
///
/// A `Store` holds the directory's single-writer lock from
/// [`open`](Store::open) until it is dropped. It is `Send + Sync`; the
/// session layer shares one store across all compiled models via `Arc`.
pub struct Store {
    dir: PathBuf,
    storage: Arc<dyn Storage>,
    meter: Meter,
    /// The pid written into the lock file — removed again on drop.
    lock_pid: u32,
}

impl fmt::Debug for Store {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Store")
            .field("dir", &self.dir)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Store {
    /// Opens (creating if necessary) the store at `dir` on the real
    /// filesystem.
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
        storage
            .create_dir_all(&dir.join(QUARANTINE_DIR))
            .map_err(|e| io_err("create quarantine dir", e))?;

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

        let store = Store {
            dir,
            storage,
            meter: Meter::new(),
            lock_pid,
        };
        if stale_broken > 0 {
            store.meter.add("store.lock.stale_broken", stale_broken);
        }
        store.sweep_orphan_temps();
        Ok(store)
    }

    /// Attaches a recorder: I/O counters are mirrored into it (under the
    /// same `store.*` taxonomy names), read/write latency is observed in
    /// the `store.read_ns` / `store.write_ns` log2 histograms, and every
    /// quarantined frame emits a `store.quarantine` event naming the file.
    ///
    /// Must be called before the store is shared (it takes `&mut self`).
    /// `Session::with(Some(store), obs)` calls it with the session's own
    /// handle, so a session and its store record into one recorder.
    pub fn set_recorder(&mut self, obs: Obs) {
        self.meter.set_obs(obs);
    }

    /// The attached recorder handle (detached unless
    /// [`set_recorder`](Store::set_recorder) was called).
    #[must_use]
    pub fn recorder(&self) -> &Obs {
        self.meter.obs()
    }

    /// Removes `*.tmp` leftovers of commits that died before their rename
    /// — they were never visible as artifacts, so this is pure hygiene.
    fn sweep_orphan_temps(&self) {
        if let Ok(entries) = self.storage.list(&self.dir) {
            for p in entries {
                if p.to_string_lossy().ends_with(TMP_SUFFIX) {
                    let _ = self.storage.remove(&p);
                }
            }
        }
    }

    /// The directory this store manages.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The final on-disk path of `key`'s frame (diagnostics and the crash
    /// harness; the file need not exist).
    #[must_use]
    pub fn artifact_path(&self, key: &ArtifactKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Loads and verifies the payload stored under `key`.
    ///
    /// Returns `None` on a miss — including every failure mode: no frame,
    /// unreadable frame (I/O error), or a frame that fails verification
    /// (bad magic/version/checksum or a key mismatch), in which case the
    /// frame is quarantined first. A `None` therefore always means
    /// "recompute (and [`save`](Store::save)) this artifact".
    #[must_use]
    pub fn load(&self, key: &ArtifactKey) -> Option<Vec<u8>> {
        let start = self.meter.obs().is_enabled().then(Instant::now);
        let result = self.load_inner(key);
        if let Some(t0) = start {
            self.meter.obs().observe_ns(
                "store.read_ns",
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        result
    }

    fn load_inner(&self, key: &ArtifactKey) -> Option<Vec<u8>> {
        let path = self.artifact_path(key);
        let bytes = match self.storage.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.meter.add("store.read.miss", 1);
                return None;
            }
            Err(_) => {
                // unreadable (EIO…): count, try to get the bad frame out of
                // the way so the rewrite is not blocked, report a miss
                self.meter.add("store.read.error", 1);
                self.meter.add("store.read.miss", 1);
                self.quarantine_path(&path);
                return None;
            }
        };
        match decode_frame(&bytes, key) {
            Some(payload) => {
                self.meter.add("store.read.hit", 1);
                self.meter.add("store.read.bytes", bytes.len() as u64);
                Some(payload)
            }
            None => {
                self.quarantine(key);
                self.meter.add("store.read.miss", 1);
                None
            }
        }
    }

    /// Commits `payload` under `key`: frame to a temp file, fsync, atomic
    /// rename. Best-effort — a failed write is counted
    /// ([`StoreStats::write_errors`]) and dropped, never surfaced to the
    /// query that computed the artifact. Returns whether the commit
    /// succeeded.
    pub fn save(&self, key: &ArtifactKey, payload: &[u8]) -> bool {
        let start = self.meter.obs().is_enabled().then(Instant::now);
        let frame = encode_frame(key, payload);
        let final_path = self.artifact_path(key);
        let tmp_path = self.dir.join(format!("{}{}", key.file_name(), TMP_SUFFIX));
        let committed = self
            .storage
            .write(&tmp_path, &frame)
            .and_then(|()| self.storage.rename(&tmp_path, &final_path));
        let ok = match committed {
            Ok(()) => {
                self.meter.add("store.write.bytes", frame.len() as u64);
                true
            }
            Err(_) => {
                self.meter.add("store.write.error", 1);
                let _ = self.storage.remove(&tmp_path);
                false
            }
        };
        if let Some(t0) = start {
            self.meter.obs().observe_ns(
                "store.write_ns",
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        ok
    }

    /// Moves `key`'s frame into `quarantine/` (falling back to deletion)
    /// and counts it as a recovered corrupt frame. Exposed for payload
    /// decoders: a frame whose *checksum* verifies but whose payload fails
    /// schema decoding is equally corrupt from the caller's point of view.
    pub fn quarantine(&self, key: &ArtifactKey) {
        self.quarantine_path(&self.artifact_path(key));
    }

    fn quarantine_path(&self, path: &Path) {
        let Some(name) = path.file_name() else {
            return;
        };
        let dest = self.dir.join(QUARANTINE_DIR).join(name);
        if self.storage.rename(path, &dest).is_err() {
            // a frame we cannot move must not keep serving corrupt bytes
            let _ = self.storage.remove(path);
        }
        self.meter.add("store.quarantine", 1);
        self.meter
            .obs()
            .note("store.quarantine", &name.to_string_lossy(), 0);
    }

    /// Number of frames currently quarantined in this store's directory.
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

//! [`FaultyStorage`] — deterministic fault injection over any [`Storage`].
//!
//! Each fault is armed explicitly and fires on the next matching
//! operation (one-shot or counted), so tests script exact failure
//! schedules: "tear the third append at byte 17", "fail the next two
//! reads with EIO", "crash after the rename", "lose power at the next
//! sync". Fired faults are counted so a test can assert its fault actually
//! triggered — a fault plan that never fires is a test bug, not a pass.

use crate::storage::Storage;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How much of an appended-to file is on stable storage, and how much is
/// only in the OS cache.
#[derive(Debug, Clone, Copy)]
struct Tail {
    durable: u64,
    end: u64,
}

#[derive(Debug, Default)]
struct FaultPlan {
    /// `Some(k)`: the next append stores only the first `k` bytes and
    /// *reports success* — a torn append / kill-at-byte-k.
    torn_append_at: Option<usize>,
    /// Fail the next `n` appends with ENOSPC.
    enospc_appends: u64,
    /// Fail the next `n` positioned reads with EIO.
    eio_reads: u64,
    /// The next rename is skipped entirely and reported as failed — the
    /// process "crashed" before the rename.
    crash_before_rename: bool,
    /// The next rename happens but is reported as failed — the process
    /// "crashed" after the rename landed.
    crash_after_rename: bool,
    /// The machine dies at the next sync: every byte appended since the
    /// last sync is lost and the sync fails.
    machine_crash: bool,
    /// Per appended-to file, what a machine crash would keep.
    tails: HashMap<PathBuf, Tail>,
    /// Every path handed to [`Storage::sync`], in call order.
    syncs: Vec<PathBuf>,
    /// Liveness overrides for [`Storage::process_alive`].
    pid_alive: HashMap<u32, bool>,
}

/// A [`Storage`] decorator injecting scripted faults: torn appends,
/// `ENOSPC`, `EIO` reads, crashes around a rename, a machine crash that
/// loses every unsynced append, and pid liveness overrides for stale-lock
/// scenarios. It also records every [`sync`](Storage::sync) it passes on.
pub struct FaultyStorage {
    inner: Arc<dyn Storage>,
    plan: Mutex<FaultPlan>,
    fired: AtomicU64,
}

impl std::fmt::Debug for FaultyStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyStorage")
            .field("faults_fired", &self.faults_fired())
            .finish()
    }
}

impl FaultyStorage {
    /// Wraps `inner` with an empty fault plan (fully transparent until a
    /// fault is armed).
    #[must_use]
    pub fn new(inner: Arc<dyn Storage>) -> Arc<FaultyStorage> {
        Arc::new(FaultyStorage {
            inner,
            plan: Mutex::new(FaultPlan::default()),
            fired: AtomicU64::new(0),
        })
    }

    fn plan(&self) -> std::sync::MutexGuard<'_, FaultPlan> {
        self.plan.lock().expect("fault plan")
    }

    fn fire(&self) {
        self.fired.fetch_add(1, Ordering::Relaxed);
    }

    /// How many injected faults have actually triggered.
    #[must_use]
    pub fn faults_fired(&self) -> u64 {
        self.fired.load(Ordering::Relaxed)
    }

    /// Every path passed to [`Storage::sync`] so far, in call order.
    #[must_use]
    pub fn syncs(&self) -> Vec<PathBuf> {
        self.plan().syncs.clone()
    }

    /// Arms a one-shot torn append: the next append persists only its
    /// first `k` bytes yet reports success (silent corruption — the worst
    /// case).
    pub fn arm_torn_append(&self, k: usize) {
        self.plan().torn_append_at = Some(k);
    }

    /// Arms ENOSPC on the next `n` appends.
    pub fn arm_enospc_appends(&self, n: u64) {
        self.plan().enospc_appends = n;
    }

    /// Arms EIO on the next `n` positioned reads ([`Storage::read_at`]).
    pub fn arm_eio_reads(&self, n: u64) {
        self.plan().eio_reads = n;
    }

    /// Arms a crash *before* the next rename: nothing moves and the rename
    /// fails.
    pub fn arm_crash_before_rename(&self) {
        self.plan().crash_before_rename = true;
    }

    /// Arms a crash *after* the next rename: the file lands but the caller
    /// never learns it.
    pub fn arm_crash_after_rename(&self) {
        self.plan().crash_after_rename = true;
    }

    /// Arms a machine crash at the next sync: instead of flushing, every
    /// byte appended through this storage since its file's last sync is
    /// discarded, as a power cut discards the OS cache, and the sync fails.
    pub fn arm_machine_crash(&self) {
        self.plan().machine_crash = true;
    }

    /// Overrides the liveness answer for `pid` (stale-lock and live-lock
    /// scenarios without real processes).
    pub fn set_pid_alive(&self, pid: u32, alive: bool) {
        self.plan().pid_alive.insert(pid, alive);
    }
}

impl Storage for FaultyStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        {
            let mut plan = self.plan();
            if plan.eio_reads > 0 {
                plan.eio_reads -= 1;
                drop(plan);
                self.fire();
                return Err(io::Error::other("injected EIO"));
            }
        }
        self.inner.read_at(path, offset, len)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<u64> {
        let mut plan = self.plan();
        if plan.enospc_appends > 0 {
            plan.enospc_appends -= 1;
            drop(plan);
            self.fire();
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC",
            ));
        }
        // the torn prefix is appended and success reported — the caller
        // believes the whole record went through
        let kept = match plan.torn_append_at.take() {
            Some(k) => {
                self.fire();
                &bytes[..k.min(bytes.len())]
            }
            None => bytes,
        };
        let offset = self.inner.append(path, kept)?;
        let tail = plan.tails.entry(path.to_path_buf()).or_insert(Tail {
            durable: offset,
            end: offset,
        });
        tail.end = offset + kept.len() as u64;
        Ok(offset)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.write(path, bytes)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        if let Some(tail) = self.plan().tails.get_mut(path) {
            tail.end = len;
            tail.durable = tail.durable.min(len);
        }
        self.inner.truncate(path, len)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut plan = self.plan();
        plan.syncs.push(path.to_path_buf());
        if plan.machine_crash {
            plan.machine_crash = false;
            self.fire();
            for (lost, tail) in &mut plan.tails {
                if tail.end > tail.durable {
                    self.inner.truncate(lost, tail.durable)?;
                    tail.end = tail.durable;
                }
            }
            return Err(io::Error::other("injected machine crash"));
        }
        self.inner.sync(path)?;
        if let Some(tail) = plan.tails.get_mut(path) {
            tail.durable = tail.end;
        }
        Ok(())
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.inner.create_exclusive(path, bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut plan = self.plan();
        if plan.crash_before_rename {
            plan.crash_before_rename = false;
            drop(plan);
            self.fire();
            return Err(io::Error::other("injected crash before rename"));
        }
        // whatever replaces `to` was written whole, not appended
        plan.tails.remove(to);
        if plan.crash_after_rename {
            plan.crash_after_rename = false;
            drop(plan);
            self.fire();
            self.inner.rename(from, to)?;
            return Err(io::Error::other("injected crash after rename"));
        }
        drop(plan);
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.inner.list(dir)
    }

    fn process_alive(&self, pid: u32) -> bool {
        if let Some(&alive) = self.plan().pid_alive.get(&pid) {
            return alive;
        }
        self.inner.process_alive(pid)
    }
}

//! The [`Storage`] trait — the I/O seam everything in the store goes
//! through — and its production implementation, [`DiskStorage`].

use std::fs;
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Every filesystem operation the store performs, as a trait, so tests can
/// substitute [`FaultyStorage`](crate::FaultyStorage) and inject torn
/// appends, ENOSPC, read EIO, rename crashes, machine crashes and
/// lock-liveness lies without touching a real disk's failure modes.
///
/// Nothing here is durable until [`sync`](Storage::sync) says so: the store
/// decides when to pay for durability, and a test can count what it pays.
pub trait Storage: Send + Sync {
    /// Reads the entire file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error; `NotFound` means there is no
    /// such file yet.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Reads `len` bytes of `path` starting at byte `offset`, or fewer
    /// where the file ends first.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>>;

    /// Appends `bytes` to `path` (creating it if absent) and returns the
    /// offset at which they start. A failed append leaves the file as it
    /// was, as far as the backend can restore it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error (ENOSPC, EIO, …).
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<u64>;

    /// Creates/truncates `path` and writes `bytes` to it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error (ENOSPC, EIO, …).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Cuts the file at `path` down to its first `len` bytes.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Flushes `path` to stable storage: a file's data (fdatasync), or a
    /// directory's entries (fsync).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn sync(&self, path: &Path) -> io::Result<()>;

    /// Atomically creates `path` with `bytes`, failing with
    /// `AlreadyExists` if it is present — the lock-file primitive.
    ///
    /// # Errors
    ///
    /// `AlreadyExists` when the file is already there; otherwise the
    /// underlying I/O error.
    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` to `to` (replacing `to`).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Lists the file paths directly inside `dir`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Whether the process `pid` is currently alive — the stale-lock
    /// probe. Implementations that cannot tell must answer `true` (never
    /// break a lock you cannot prove stale).
    fn process_alive(&self, pid: u32) -> bool;
}

/// The real filesystem. Only [`sync`](Storage::sync) flushes anything to
/// stable storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStorage;

impl Storage for DiskStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut f = fs::File::open(path)?;
        f.seek(SeekFrom::Start(offset))?;
        let mut buf = Vec::with_capacity(len);
        f.take(len as u64).read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<u64> {
        let mut f = fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)?;
        let start = f.seek(SeekFrom::End(0))?;
        if let Err(e) = f.write_all(bytes) {
            // take back a partial append, so the next one starts clean
            let _ = f.set_len(start);
            return Err(e);
        }
        Ok(start)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::write(path, bytes)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        fs::OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let f = fs::File::open(path)?;
        if f.metadata()?.is_dir() {
            f.sync_all()
        } else {
            f.sync_data()
        }
    }

    fn create_exclusive(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)?
            .write_all(bytes)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        Ok(out)
    }

    #[cfg(target_os = "linux")]
    fn process_alive(&self, pid: u32) -> bool {
        Path::new(&format!("/proc/{pid}")).exists()
    }

    #[cfg(not(target_os = "linux"))]
    fn process_alive(&self, _pid: u32) -> bool {
        // cannot probe: claim alive, so locks are never broken wrongly
        true
    }
}

//! Pluggable I/O backend for every durability-critical syscall.
//!
//! The WAL, checkpoint, and atomic-save paths are exactly the code that
//! only runs on a bad day — a failed `fdatasync`, ENOSPC mid-checkpoint,
//! a rename that never lands. [`Vfs`]/[`VfsFile`] abstract those
//! syscalls so the bad day can be *simulated deterministically*:
//! [`StdVfs`] passes straight through to `std::fs`, while [`FaultVfs`]
//! counts every durability-relevant operation (write, fsync, truncate,
//! rename, directory sync) and injects one failure from a seeded
//! schedule — fail the Nth op with ENOSPC or EIO, or tear a write in
//! half.
//!
//! The op counter is the contract with the fault-sweep harness: a
//! counting run enumerates every fault point of a workload, then one run
//! per index fails exactly that op and asserts the engine either returns
//! a clean typed error (still serving reads) or recovers with every
//! acknowledged write present.
//!
//! Opens, reads, `flock`, and `create_dir_all` deliberately do not
//! count: the sweep targets the durability ops whose failure can lose
//! acknowledged data, and keeping the op space small keeps the sweep
//! deterministic and fast.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering from poisoning — the journal is append-only
/// metadata, never left torn by a panicking writer.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An open file handle behind the VFS: the mutation surface the WAL and
/// checkpoint writer need, nothing more.
pub trait VfsFile: Send + Sync {
    /// Appends/writes the whole buffer at the current cursor.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// `fdatasync` — data durable, metadata maybe not.
    fn sync_data(&self) -> io::Result<()>;
    /// `fsync` — data and metadata durable.
    fn sync_all(&self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// A second handle to the same file description (the group-commit
    /// leader syncs through a clone so the inner lock stays free).
    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>>;
    /// Non-blocking `flock`: `Ok(true)` when the exclusive lock was
    /// acquired, `Ok(false)` when another process holds it.
    fn try_lock(&self) -> io::Result<bool>;
}

/// A filesystem namespace: opens, renames, directory syncs. Implementors
/// are shared across threads behind `Arc<dyn Vfs>`.
pub trait Vfs: Send + Sync {
    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Opens an existing file for appending.
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file for in-place writes (no truncation) — the
    /// torn-tail repair path truncates via [`VfsFile::set_len`].
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Creates (or truncates) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens (creating, never truncating) a file to hold an `flock` —
    /// the directory-lock file.
    fn open_lock(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically replaces `to` with `from`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file (temp-file cleanup; failures there are benign).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs the directory itself, making a completed rename/create
    /// durable. Platforms that refuse to open directories report `Ok`.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Creates a directory and its ancestors.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Whether a path exists.
    fn exists(&self, path: &Path) -> bool;
}

// ---------------------------------------------------------------------
// StdVfs — the passthrough backend production runs on.
// ---------------------------------------------------------------------

/// The real filesystem: every call forwards to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct StdVfs;

impl StdVfs {
    /// The shared handle durable opens default to.
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }
}

struct StdFile(std::fs::File);

impl VfsFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync_data(&self) -> io::Result<()> {
        self.0.sync_data()
    }

    fn sync_all(&self) -> io::Result<()> {
        self.0.sync_all()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }

    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(self.0.try_clone()?)))
    }

    fn try_lock(&self) -> io::Result<bool> {
        match self.0.try_lock() {
            Ok(()) => Ok(true),
            Err(std::fs::TryLockError::WouldBlock) => Ok(false),
            Err(std::fs::TryLockError::Error(e)) => Err(e),
        }
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut raw = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut raw)?;
        Ok(raw)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new().append(true).open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(std::fs::File::create(path)?)))
    }

    fn open_lock(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        Ok(Box::new(StdFile(file)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match std::fs::File::open(dir) {
            Ok(f) => f.sync_all(),
            // Some platforms refuse opening directories; the rename is
            // still ordered after the file fsync, the critical part.
            Err(_) => Ok(()),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------
// FaultVfs — deterministic failure injection with op counting.
// ---------------------------------------------------------------------

/// What the injected failure looks like to the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `ErrorKind::StorageFull` — the disk filled up.
    Enospc,
    /// A generic I/O error — the device misbehaved.
    Eio,
    /// A torn write: half the buffer reaches the file, then the error.
    /// On non-write ops this degrades to [`FaultKind::Eio`].
    Torn,
}

/// The durability-relevant operation classes the fault counter covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOpKind {
    /// A file write.
    Write,
    /// `fdatasync`.
    SyncData,
    /// `fsync`.
    SyncAll,
    /// A truncation.
    SetLen,
    /// An atomic rename.
    Rename,
    /// A directory fsync.
    DirSync,
}

impl std::fmt::Display for FaultOpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultOpKind::Write => "write",
            FaultOpKind::SyncData => "fdatasync",
            FaultOpKind::SyncAll => "fsync",
            FaultOpKind::SetLen => "truncate",
            FaultOpKind::Rename => "rename",
            FaultOpKind::DirSync => "dirsync",
        };
        f.write_str(s)
    }
}

/// One counted operation, as recorded by the enumeration journal.
#[derive(Clone, Debug)]
pub struct FaultOp {
    /// 1-based global op index (the value to pass as `fail_at`).
    pub index: u64,
    /// Operation class.
    pub op: FaultOpKind,
    /// Path the operation targeted.
    pub path: PathBuf,
}

struct FaultState {
    counter: AtomicU64,
    /// 1-based op index to fail; 0 = count only.
    fail_at: u64,
    kind: FaultKind,
    fired: AtomicBool,
    journal: Mutex<Vec<FaultOp>>,
}

impl FaultState {
    /// Counts one op; `Some(kind)` means this is the op to fail.
    fn tick(&self, op: FaultOpKind, path: &Path) -> Option<FaultKind> {
        let index = self.counter.fetch_add(1, Ordering::SeqCst) + 1;
        lock_recover(&self.journal).push(FaultOp {
            index,
            op,
            path: path.to_path_buf(),
        });
        if self.fail_at != 0 && index == self.fail_at {
            self.fired.store(true, Ordering::SeqCst);
            return Some(self.kind);
        }
        None
    }

    fn error(kind: FaultKind, op: FaultOpKind, path: &Path) -> io::Error {
        let msg = format!("injected fault: {op} on {}", path.display());
        match kind {
            FaultKind::Enospc => io::Error::new(io::ErrorKind::StorageFull, msg),
            FaultKind::Eio | FaultKind::Torn => io::Error::other(msg),
        }
    }
}

/// A [`Vfs`] that wraps [`StdVfs`], counts every durability op, and
/// fails exactly one of them. Clones share the counter and journal, so
/// a test keeps a handle while the engine owns another.
///
/// Faults are one-shot: after the scheduled op fails, the "disk" heals
/// and later ops pass through — which is what lets a single run observe
/// both the failure and the subsequent recovery.
#[derive(Clone)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    state: Arc<FaultState>,
}

impl FaultVfs {
    /// Count-only mode: no failures, the journal enumerates every fault
    /// point of the workload.
    pub fn counting() -> FaultVfs {
        FaultVfs::failing(0, FaultKind::Eio)
    }

    /// Fails the `fail_at`-th counted op (1-based) with `kind`; all
    /// other ops pass through.
    pub fn failing(fail_at: u64, kind: FaultKind) -> FaultVfs {
        FaultVfs {
            inner: Arc::new(StdVfs),
            state: Arc::new(FaultState {
                counter: AtomicU64::new(0),
                fail_at,
                kind,
                fired: AtomicBool::new(false),
                journal: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Total ops counted so far.
    pub fn op_count(&self) -> u64 {
        self.state.counter.load(Ordering::SeqCst)
    }

    /// Whether the scheduled fault has fired.
    pub fn fired(&self) -> bool {
        self.state.fired.load(Ordering::SeqCst)
    }

    /// Snapshot of the enumeration journal, in op order.
    pub fn ops(&self) -> Vec<FaultOp> {
        lock_recover(&self.state.journal).clone()
    }
}

struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<FaultState>,
    path: PathBuf,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.state.tick(FaultOpKind::Write, &self.path) {
            Some(FaultKind::Torn) => {
                // Half the frame lands — the shape a crash mid-write
                // leaves behind, which recovery must truncate away.
                let half = buf.len() / 2;
                self.inner.write_all(buf.get(..half).unwrap_or(buf))?;
                Err(FaultState::error(
                    FaultKind::Torn,
                    FaultOpKind::Write,
                    &self.path,
                ))
            }
            Some(kind) => Err(FaultState::error(kind, FaultOpKind::Write, &self.path)),
            None => self.inner.write_all(buf),
        }
    }

    fn sync_data(&self) -> io::Result<()> {
        match self.state.tick(FaultOpKind::SyncData, &self.path) {
            Some(kind) => Err(FaultState::error(kind, FaultOpKind::SyncData, &self.path)),
            None => self.inner.sync_data(),
        }
    }

    fn sync_all(&self) -> io::Result<()> {
        match self.state.tick(FaultOpKind::SyncAll, &self.path) {
            Some(kind) => Err(FaultState::error(kind, FaultOpKind::SyncAll, &self.path)),
            None => self.inner.sync_all(),
        }
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        match self.state.tick(FaultOpKind::SetLen, &self.path) {
            Some(kind) => Err(FaultState::error(kind, FaultOpKind::SetLen, &self.path)),
            None => self.inner.set_len(len),
        }
    }

    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FaultFile {
            inner: self.inner.try_clone()?,
            state: self.state.clone(),
            path: self.path.clone(),
        }))
    }

    fn try_lock(&self) -> io::Result<bool> {
        self.inner.try_lock()
    }
}

impl FaultVfs {
    fn wrap(&self, path: &Path, inner: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(FaultFile {
            inner,
            state: self.state.clone(),
            path: path.to_path_buf(),
        })
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.open_append(path)?))
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.open_rw(path)?))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(self.wrap(path, self.inner.create(path)?))
    }

    fn open_lock(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        // Locks pass through uncounted: flock failure is a config error
        // (second process on the directory), not a durability fault.
        self.inner.open_lock(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.state.tick(FaultOpKind::Rename, to) {
            Some(kind) => Err(FaultState::error(kind, FaultOpKind::Rename, to)),
            None => self.inner.rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.state.tick(FaultOpKind::DirSync, dir) {
            Some(kind) => Err(FaultState::error(kind, FaultOpKind::DirSync, dir)),
            None => self.inner.sync_dir(dir),
        }
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hopi_vfs_{name}_{}", std::process::id()))
    }

    #[test]
    fn std_vfs_round_trips() {
        let vfs = StdVfs;
        let path = tmp("std");
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync_all().unwrap();
        drop(f);
        let mut f = vfs.open_append(&path).unwrap();
        f.write_all(b" world").unwrap();
        f.sync_data().unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        let f = vfs.open_rw(&path).unwrap();
        f.set_len(5).unwrap();
        drop(f);
        assert_eq!(vfs.read(&path).unwrap(), b"hello");
        assert!(vfs.exists(&path));
        let dest = tmp("std_renamed");
        vfs.rename(&path, &dest).unwrap();
        assert!(!vfs.exists(&path));
        vfs.sync_dir(dest.parent().unwrap()).unwrap();
        vfs.remove_file(&dest).unwrap();
    }

    #[test]
    fn flock_excludes_second_handle() {
        let vfs = StdVfs;
        let path = tmp("lock");
        let a = vfs.open_lock(&path).unwrap();
        assert!(a.try_lock().unwrap());
        let b = vfs.open_lock(&path).unwrap();
        // Same process: platforms differ on re-acquisition through a
        // second descriptor, so only assert the call is clean.
        let _ = b.try_lock().unwrap();
        drop(a);
        drop(b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn counting_enumerates_ops_in_order() {
        let fault = FaultVfs::counting();
        let path = tmp("count");
        let mut f = fault.create(&path).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_all().unwrap();
        drop(f);
        let dest = tmp("count_renamed");
        fault.rename(&path, &dest).unwrap();
        fault.sync_dir(dest.parent().unwrap()).unwrap();
        assert_eq!(fault.op_count(), 4);
        let ops: Vec<FaultOpKind> = fault.ops().iter().map(|o| o.op).collect();
        assert_eq!(
            ops,
            vec![
                FaultOpKind::Write,
                FaultOpKind::SyncAll,
                FaultOpKind::Rename,
                FaultOpKind::DirSync,
            ]
        );
        assert!(!fault.fired());
        std::fs::remove_file(&dest).ok();
    }

    #[test]
    fn scheduled_fault_fires_once_then_heals() {
        let fault = FaultVfs::failing(2, FaultKind::Enospc);
        let path = tmp("fire");
        let mut f = fault.create(&path).unwrap();
        f.write_all(b"one").unwrap(); // op 1: passes
        let err = f.sync_all().unwrap_err(); // op 2: injected
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(fault.fired());
        f.sync_all().unwrap(); // op 3: healed
        drop(f);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_write_leaves_half_the_buffer() {
        let fault = FaultVfs::failing(1, FaultKind::Torn);
        let path = tmp("torn");
        let mut f = fault.create(&path).unwrap();
        assert!(f.write_all(b"0123456789").is_err());
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"01234");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clones_share_the_counter() {
        let fault = FaultVfs::counting();
        let clone = fault.clone();
        let path = tmp("share");
        let mut f = clone.create(&path).unwrap();
        f.write_all(b"x").unwrap();
        // try_clone'd handles keep injecting through the same state.
        let g = f.try_clone().unwrap();
        g.sync_data().unwrap();
        drop((f, g));
        assert_eq!(fault.op_count(), 2);
        std::fs::remove_file(&path).ok();
    }
}

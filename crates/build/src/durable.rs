//! Durable operation: checkpoints + write-ahead log for the serving
//! engine.
//!
//! The paper's §1.1 index runs 24×7 and absorbs updates without
//! interrupting query service — which also means a crash must not lose
//! mutations the service acknowledged. This module supplies the
//! machinery [`crate::OnlineHopi`] uses in durable mode:
//!
//! * every mutation is appended to a [`Wal`] (as a
//!   [`hopi_store::WalRecord`], the engine's one mutation vocabulary)
//!   **while the engine write lock is held**, so log order always equals
//!   apply order, and is acknowledged only after the record is fsynced —
//!   by default through the WAL's *group commit*, where one fsync covers
//!   every record queued behind it;
//! * a **checkpoint** atomically persists collection + frozen cover +
//!   the covered WAL sequence number in one file
//!   ([`hopi_store::save_checkpoint`]) and rotates the log;
//! * **recovery** ([`recover_dir`]) loads the last checkpoint and
//!   replays the WAL tail past it through `Hopi::replay_record` — the
//!   same dispatcher a background rebuild's catch-up uses — tolerating a
//!   torn final record (the WAL truncates it — such a record was never
//!   durable, hence never acknowledged).
//!
//! Crash-ordering argument: a mutation is acknowledged only after its
//! record is durable, records are applied at recovery in log order, and
//! the checkpoint file names the exact sequence number its state covers
//! (so a crash *between* checkpoint rename and log rotation merely
//! replays records the checkpoint already contains — replay skips them
//! by sequence number). At every instant the directory holds a complete
//! old state or a complete new state.

use crate::error::HopiError;
use crate::facade::{Hopi, HopiBuilder};
use hopi_store::{load_checkpoint, save_checkpoint, PersistError, SyncPolicy, Wal};
use hopi_store::{StdVfs, Vfs, VfsFile, WalRecord};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// File holding the last checkpoint (collection + frozen cover + seq).
pub const CHECKPOINT_FILE: &str = "checkpoint.hopi";
/// The write-ahead log of mutations since the last checkpoint.
pub const WAL_FILE: &str = "wal.log";
/// Lock file (held via an OS advisory lock) preventing two engines from
/// sharing a state directory — rotation by one would strand the other's
/// acked writes on an unlinked inode.
pub const LOCK_FILE: &str = "lock";

/// Exclusive ownership of a durable state directory for as long as the
/// value lives: an OS advisory lock (`flock`) held on the open `lock`
/// file. The kernel releases it when the holding process dies — even on
/// kill -9 — so there is no stale-lock state, no pid bookkeeping, and no
/// steal race; a live holder (in any pid namespace) makes acquisition
/// fail. The file itself is never removed; only the held lock matters.
pub(crate) struct DirLock {
    /// Held open for the lock's lifetime; dropping releases the lock.
    _file: Box<dyn VfsFile>,
}

impl DirLock {
    pub(crate) fn acquire(vfs: &dyn Vfs, dir: &Path) -> Result<DirLock, HopiError> {
        let path = dir.join(LOCK_FILE);
        let mut file = vfs.open_lock(&path).map_err(PersistError::Io)?;
        match file.try_lock() {
            Ok(true) => {
                // The pid is written for `ls`-level diagnostics only.
                let _ = file.set_len(0);
                let _ = file.write_all(std::process::id().to_string().as_bytes());
                Ok(DirLock { _file: file })
            }
            Ok(false) => {
                let holder = vfs
                    .read(&path)
                    .map(|b| String::from_utf8_lossy(&b).trim().to_string())
                    .unwrap_or_default();
                Err(HopiError::Persist(PersistError::Format(format!(
                    "state directory is locked by a live engine (pid {holder}); two engines \
                     sharing one WAL would lose acknowledged writes ({})",
                    path.display()
                ))))
            }
            Err(e) => Err(HopiError::Persist(PersistError::Io(e))),
        }
    }
}

/// How a durable engine is opened (see
/// [`crate::OnlineHopi::open_durable`]).
#[derive(Clone)]
pub struct DurableConfig {
    /// Directory holding `checkpoint.hopi` and `wal.log`.
    pub dir: PathBuf,
    /// When appended records reach disk. [`SyncPolicy::GroupCommit`] is
    /// the durable default; [`SyncPolicy::PerOp`] is the naive baseline;
    /// [`SyncPolicy::Never`] trades durability for bulk-load speed.
    pub policy: SyncPolicy,
    /// The I/O backend every durability syscall goes through:
    /// [`hopi_store::StdVfs`] in production, [`hopi_store::FaultVfs`]
    /// under fault injection.
    pub vfs: Arc<dyn Vfs>,
}

impl std::fmt::Debug for DurableConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableConfig")
            .field("dir", &self.dir)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl DurableConfig {
    /// Group-commit durability in `dir` on the real filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableConfig {
            dir: dir.into(),
            policy: SyncPolicy::GroupCommit,
            vfs: StdVfs::arc(),
        }
    }

    /// Overrides the sync policy.
    pub fn policy(mut self, policy: SyncPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the I/O backend (fault injection in tests).
    pub fn vfs(mut self, vfs: Arc<dyn Vfs>) -> Self {
        self.vfs = vfs;
        self
    }

    pub(crate) fn checkpoint_path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }

    pub(crate) fn wal_path(&self) -> PathBuf {
        self.dir.join(WAL_FILE)
    }
}

/// Observability snapshot of the durability state (surfaced at
/// `GET /stats` and `hopi serve --wal`).
#[derive(Clone, Copy, Debug)]
pub struct WalStats {
    /// WAL sequence number covered by the last checkpoint.
    pub last_checkpoint_seq: u64,
    /// Serving epoch at which the last checkpoint was taken (0 when no
    /// checkpoint has been taken in this process yet).
    pub last_checkpoint_epoch: u64,
    /// Sequence number of the last appended record.
    pub appended_seq: u64,
    /// Sequence number through which records are fsynced.
    pub durable_seq: u64,
    /// Records appended since the last checkpoint.
    pub records_since_checkpoint: u64,
    /// Current WAL file length in bytes.
    pub wal_bytes: u64,
    /// `false` after a WAL append/fsync failure: the in-memory state may
    /// be ahead of the log, and mutations are refused until a checkpoint
    /// re-establishes a durable baseline.
    pub healthy: bool,
}

/// Point-in-time copies of the WAL's durability histograms: the fsync
/// wall-time distribution and the records-per-group-commit batch sizes
/// (see [`hopi_store::WalMetrics`]). The distributions — not means —
/// are what show whether group commit amortizes under load; surfaced at
/// `GET /stats` and `/metrics`.
#[derive(Clone, Debug)]
pub struct WalHistograms {
    /// fsync (`sync_data`) wall time, microsecond buckets.
    pub fsync: hopi_obs::HistogramSnapshot,
    /// Records made durable per fsync.
    pub batch: hopi_obs::HistogramSnapshot,
}

/// Outcome of a checkpoint (see [`crate::OnlineHopi::checkpoint`]).
#[derive(Clone, Copy, Debug)]
pub struct CheckpointStats {
    /// WAL sequence number the checkpoint covers.
    pub seq: u64,
    /// WAL bytes truncated away by the rotation.
    pub wal_bytes_truncated: u64,
}

/// The durability state attached to a durable [`crate::OnlineHopi`].
pub(crate) struct Durability {
    wal: Wal,
    checkpoint_path: PathBuf,
    policy: SyncPolicy,
    last_checkpoint_seq: AtomicU64,
    last_checkpoint_epoch: AtomicU64,
    /// Set when an append or fsync failed: memory may be ahead of the
    /// log, so further mutations are refused until a checkpoint succeeds.
    failed: AtomicBool,
    /// Serializes whole checkpoints (save + rotate): two concurrent
    /// `/admin/checkpoint` calls must not interleave their file writes.
    checkpoint_lock: std::sync::Mutex<()>,
    /// The I/O backend checkpoints are written through.
    vfs: Arc<dyn Vfs>,
    /// Exclusive ownership of the state directory, released on drop.
    _lock: DirLock,
}

impl Durability {
    pub(crate) fn new(
        wal: Wal,
        checkpoint_path: PathBuf,
        policy: SyncPolicy,
        seq: u64,
        vfs: Arc<dyn Vfs>,
        lock: DirLock,
    ) -> Self {
        Durability {
            wal,
            checkpoint_path,
            policy,
            last_checkpoint_seq: AtomicU64::new(seq),
            last_checkpoint_epoch: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            checkpoint_lock: std::sync::Mutex::new(()),
            vfs,
            _lock: lock,
        }
    }

    /// Refuses mutations after a WAL failure (memory ahead of the log).
    pub(crate) fn check_healthy(&self) -> Result<(), HopiError> {
        if self.failed.load(Ordering::Acquire) {
            return Err(HopiError::Degraded(
                "write-ahead log failed; serving reads only until a checkpoint succeeds".into(),
            ));
        }
        Ok(())
    }

    /// Appends (no fsync yet unless the policy is per-op). Call while
    /// holding the engine write lock.
    pub(crate) fn append(&self, rec: &WalRecord) -> Result<u64, HopiError> {
        self.wal.append(rec, self.policy).map_err(|e| {
            self.failed.store(true, Ordering::Release);
            HopiError::Persist(PersistError::Io(e))
        })
    }

    /// Group-commits through `seq` (no-op for per-op/never policies).
    pub(crate) fn commit(&self, seq: u64) -> Result<(), HopiError> {
        if self.policy != SyncPolicy::GroupCommit {
            return Ok(());
        }
        self.wal.commit(seq).map_err(|e| {
            self.failed.store(true, Ordering::Release);
            HopiError::Persist(PersistError::Io(e))
        })
    }

    /// Atomically persists the engine's state and rotates the log. The
    /// caller must hold the engine lock (read suffices: appends happen
    /// under the write lock) so the WAL sequence cannot move under us.
    ///
    /// A *failed* checkpoint poisons the durability layer: the on-disk
    /// state may no longer line up with memory (e.g. the checkpoint
    /// renamed but the rotation failed), so mutations are refused until
    /// a later checkpoint succeeds and re-establishes the baseline.
    pub(crate) fn checkpoint(
        &self,
        engine: &Hopi,
        epoch: u64,
    ) -> Result<CheckpointStats, HopiError> {
        // Poison recovery: the lock only serializes checkpoints, and the
        // `failed` flag already records a checkpoint that died mid-write.
        let _serialize = self
            .checkpoint_lock
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let seq = self.wal.appended_seq();
        let bytes_before = self.wal.len_bytes();
        // lint: allow(blocking-under-lock): sanctioned — the checkpoint write is exactly what checkpoint_lock serializes
        let result = save_checkpoint(
            &*self.vfs,
            &self.checkpoint_path,
            engine.collection(),
            &engine.freeze(),
            seq,
            engine.saved_baseline(),
        )
        // lint: allow(blocking-under-lock): sanctioned — WAL rotation must stay inside the same checkpoint critical section
        .and_then(|()| self.wal.rotate(seq));
        if let Err(e) = result {
            self.failed.store(true, Ordering::Release);
            return Err(e.into());
        }
        self.last_checkpoint_seq.store(seq, Ordering::Release);
        self.last_checkpoint_epoch.store(epoch, Ordering::Release);
        // A fresh checkpoint covers everything, including mutations a
        // failed WAL could not log.
        self.failed.store(false, Ordering::Release);
        Ok(CheckpointStats {
            seq,
            wal_bytes_truncated: bytes_before.saturating_sub(self.wal.len_bytes()),
        })
    }

    pub(crate) fn histograms(&self) -> WalHistograms {
        WalHistograms {
            fsync: self.wal.metrics().fsync.snapshot(),
            batch: self.wal.metrics().batch.snapshot(),
        }
    }

    pub(crate) fn stats(&self) -> WalStats {
        let last = self.last_checkpoint_seq.load(Ordering::Acquire);
        let appended = self.wal.appended_seq();
        WalStats {
            last_checkpoint_seq: last,
            last_checkpoint_epoch: self.last_checkpoint_epoch.load(Ordering::Acquire),
            appended_seq: appended,
            durable_seq: self.wal.durable_seq(),
            records_since_checkpoint: appended.saturating_sub(last),
            wal_bytes: self.wal.len_bytes(),
            healthy: !self.failed.load(Ordering::Acquire),
        }
    }
}

/// Recovers an engine from a durable directory: loads the last
/// checkpoint, replays the WAL tail past its sequence number (a torn
/// final record is truncated, not an error), and returns the engine, the
/// reopened log, and the checkpoint sequence.
///
/// Only records with `seq > checkpoint.seq` are applied, so a crash
/// between checkpoint write and log rotation cannot double-apply.
pub(crate) fn recover_dir(
    config: &DurableConfig,
    builder: HopiBuilder,
) -> Result<(Hopi, Wal, u64), HopiError> {
    let ckpt = load_checkpoint(&*config.vfs, &config.checkpoint_path())?;
    let mut engine = builder.open_frozen(ckpt.collection, ckpt.frozen, ckpt.baseline);
    // A missing log (e.g. a checkpoint-only restore from backup) is
    // recreated at the *checkpoint's* sequence — a base of 0 would make
    // the next recovery skip every new record as "already inside the
    // checkpoint" and silently drop acknowledged mutations.
    let wal_path = config.wal_path();
    let (wal, records) = if config.vfs.exists(&wal_path) {
        Wal::open(config.vfs.clone(), &wal_path)?
    } else {
        (
            Wal::create(config.vfs.clone(), &wal_path, ckpt.seq)?,
            Vec::new(),
        )
    };
    if wal.base_seq() > ckpt.seq {
        return Err(HopiError::Persist(PersistError::Format(format!(
            "WAL starts after sequence {} but the checkpoint covers only {}: records are missing",
            wal.base_seq(),
            ckpt.seq
        ))));
    }
    for (seq, rec) in records {
        if seq <= ckpt.seq {
            continue; // already inside the checkpoint
        }
        engine.replay_record(rec).map_err(|e| {
            HopiError::Persist(PersistError::Format(format!(
                "WAL record {seq} does not apply to the recovered state: {e}"
            )))
        })?;
    }
    Ok((engine, wal, ckpt.seq))
}

/// Initializes a fresh durable directory around an already-built engine:
/// writes the initial checkpoint (sequence 0) and creates an empty log.
pub(crate) fn init_dir(config: &DurableConfig, engine: &Hopi) -> Result<(Wal, u64), HopiError> {
    config
        .vfs
        .create_dir_all(&config.dir)
        .map_err(PersistError::Io)?;
    let wal_path = config.wal_path();
    if config.vfs.exists(&wal_path) && !config.vfs.exists(&config.checkpoint_path()) {
        // Our ordering always makes the checkpoint durable before the log
        // exists, so this state indicates tampering or corruption; refuse
        // to silently discard whatever the log holds.
        return Err(HopiError::Persist(PersistError::Format(
            "found a WAL without a checkpoint; remove wal.log to re-initialize".into(),
        )));
    }
    save_checkpoint(
        &*config.vfs,
        &config.checkpoint_path(),
        engine.collection(),
        &engine.freeze(),
        0,
        engine.saved_baseline(),
    )?;
    let wal = Wal::create(config.vfs.clone(), &wal_path, 0)?;
    wal.sync_dir().map_err(PersistError::Io)?;
    Ok((wal, 0))
}

/// Is `dir` an initialized durable directory (has a checkpoint)?
pub fn is_durable_dir(dir: &Path) -> bool {
    dir.join(CHECKPOINT_FILE).exists()
}

//! [`OnlineHopi`]: the [`Hopi`] surface lifted into the 24×7 serving mode
//! of paper §1.1 — with **lock-free query serving**.
//!
//! The engine itself lives behind a reader/writer lock, but queries never
//! touch it: they run against an immutable [`HopiSnapshot`] (the cover
//! frozen into flat CSR arrays) published through an `Arc` that readers
//! clone in O(1). Mutations take the write lock briefly, apply the
//! incremental §6 algorithms, and publish a fresh snapshot before
//! releasing it (epoch style: in-flight queries finish on the epoch they
//! started with; new queries see the new one). A published snapshot is
//! captured as the *successor* of the one it replaces — frozen cover
//! patched from the cover's row journal, unchanged documents and derived
//! indexes shared — so a publish costs what the mutation touched, not
//! what the index holds. Background rebuilds
//! ([`OnlineHopi::rebuild_in_background`]) build on a collection snapshot
//! outside any lock, replay the updates that arrived mid-build, swap the
//! fresh engine in atomically, and publish its snapshot.
//!
//! Consequences:
//!
//! * readers never block on writers or rebuilds — "indexes need to be
//!   built without interrupting the service of queries";
//! * every query runs on the cache-friendly frozen layout, not the
//!   pointer-chasing mutable cover;
//! * a reader holding an `Arc<HopiSnapshot>` (via [`OnlineHopi::snapshot`])
//!   gets repeatable reads across many calls for free.

use crate::durable::{recover_dir, DirLock, Durability, DurableConfig};
use crate::error::HopiError;
use crate::facade::{Hopi, HopiBuilder};
use crate::snapshot::{HopiSnapshot, PublishStats, SnapshotStats};
use crate::{CheckpointStats, WalStats};
use hopi_maintenance::{
    collection_delta, delta_replays_exactly, CollectionUpdate, DeletionOutcome, DocumentLinks,
};
use hopi_obs::{Histogram, HistogramSnapshot};
use hopi_partition::BuildReport;
use hopi_query::RankedMatch;
use hopi_store::WalRecord;
use hopi_xml::{Collection, DocId, ElemId, XmlDocument};
use parking_lot::RwLock;
use rustc_hash::FxHashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What publishing has cost since the engine was wrapped: one histogram
/// sample and one counter tick per published snapshot (see
/// [`OnlineHopi::publish_totals`]).
#[derive(Debug, Default)]
struct PublishMetrics {
    duration: Histogram,
    patched: AtomicU64,
    full: AtomicU64,
    rows_patched: AtomicU64,
}

impl PublishMetrics {
    fn record(&self, publish: &PublishStats) {
        self.duration.record_micros(publish.micros);
        let kind = if publish.patched {
            &self.patched
        } else {
            &self.full
        };
        kind.fetch_add(1, Ordering::Relaxed);
        self.rows_patched
            .fetch_add(publish.rows_patched as u64, Ordering::Relaxed);
    }
}

/// Point-in-time copy of an engine's publish metrics (surfaced at
/// `/metrics`; the last publish alone is [`SnapshotStats::publish`]).
#[derive(Clone, Debug)]
pub struct PublishTotals {
    /// Capture wall time of every published snapshot, microsecond buckets.
    pub duration: HistogramSnapshot,
    /// Snapshots whose frozen cover was patched from the previous epoch's.
    pub patched: u64,
    /// Snapshots frozen in full.
    pub full: u64,
    /// Rows the patches took from the mutable cover, in total.
    pub rows_patched: u64,
}

/// A concurrently queryable HOPI engine: lock-free snapshot reads,
/// non-blocking rebuilds.
///
/// ```
/// use hopi_build::{Hopi, OnlineHopi};
///
/// let online = OnlineHopi::new(Hopi::builder().parse([
///     ("a", r#"<r><cite xlink:href="b"/></r>"#),
///     ("b", "<r><sec/></r>"),
/// ])?);
///
/// let snap = online.snapshot(); // Arc — no lock held while querying
/// let (a, b_sec) = (snap.resolve("a", "")?, snap.query("//r//sec")?[0]);
/// assert!(online.connected(a, b_sec));
/// # Ok::<(), hopi_build::HopiError>(())
/// ```
#[derive(Clone)]
pub struct OnlineHopi {
    /// The mutable engine; only maintenance takes this lock.
    engine: Arc<RwLock<Hopi>>,
    /// The published serving epoch. Readers hold this lock only long
    /// enough to clone the `Arc`; query evaluation runs lock-free.
    serving: Arc<RwLock<Arc<HopiSnapshot>>>,
    /// Monotonic epoch counter; bumped on every publish, so each published
    /// snapshot carries a strictly larger [`HopiSnapshot::epoch`] than the
    /// one it replaces (publishes are serialized by the engine write lock).
    epoch: Arc<AtomicU64>,
    /// Durable mode (write-ahead log + checkpoints); `None` for plain
    /// in-memory serving.
    durability: Option<Arc<Durability>>,
    publishes: Arc<PublishMetrics>,
}

impl OnlineHopi {
    /// Wraps a built engine for concurrent use, publishing its first
    /// snapshot (a full freeze; it starts the cover's journal, so later
    /// publishes patch).
    pub fn new(mut hopi: Hopi) -> Self {
        let snapshot = hopi.snapshot_after(None, 0);
        let publishes = PublishMetrics::default();
        publishes.record(&snapshot.publish);
        OnlineHopi {
            engine: Arc::new(RwLock::new(hopi)),
            serving: Arc::new(RwLock::new(snapshot)),
            epoch: Arc::new(AtomicU64::new(0)),
            durability: None,
            publishes: Arc::new(publishes),
        }
    }

    /// Opens a **durable** engine over a state directory holding
    /// `checkpoint.hopi` + `wal.log`.
    ///
    /// * If the directory has a checkpoint, the engine is recovered from
    ///   it and the WAL tail past it is replayed (a torn final record is
    ///   truncated, never an error) — `bootstrap` is ignored.
    /// * Otherwise a fresh engine is built from `bootstrap` (empty when
    ///   `None`), an initial checkpoint is written, and an empty log is
    ///   created.
    ///
    /// From then on every mutation is appended to the WAL under the
    /// engine write lock (log order = apply order) and acknowledged only
    /// once durable under the configured [`hopi_store::SyncPolicy`] —
    /// group commit by default, where one fsync covers every mutation
    /// queued behind it. [`OnlineHopi::checkpoint`] persists the full
    /// state atomically and truncates the log.
    ///
    /// ```no_run
    /// use hopi_build::{DurableConfig, Hopi, OnlineHopi};
    ///
    /// let config = DurableConfig::new("/var/lib/hopi");
    /// let online = OnlineHopi::open_durable(&config, Hopi::builder(), None)?;
    /// online.insert_xml("note", "<r/>")?; // durable once this returns
    /// # Ok::<(), hopi_build::HopiError>(())
    /// ```
    pub fn open_durable(
        config: &DurableConfig,
        builder: HopiBuilder,
        bootstrap: Option<Collection>,
    ) -> Result<Self, HopiError> {
        if crate::durable::is_durable_dir(&config.dir) {
            let lock = DirLock::acquire(&*config.vfs, &config.dir)?;
            let (engine, wal, seq) = recover_dir(config, builder)?;
            Ok(Self::with_durability(engine, wal, config, seq, lock))
        } else {
            Self::bootstrap_durable(config, builder.build(bootstrap.unwrap_or_default())?)
        }
    }

    /// Initializes a fresh durable state directory around an
    /// already-built engine (e.g. one opened from a prebuilt index file)
    /// and serves it durably. Refuses a directory that already holds a
    /// checkpoint — recover that with [`OnlineHopi::open_durable`]
    /// instead, so an existing durable state can never be silently
    /// overwritten.
    pub fn bootstrap_durable(config: &DurableConfig, engine: Hopi) -> Result<Self, HopiError> {
        if crate::durable::is_durable_dir(&config.dir) {
            return Err(HopiError::Persist(hopi_store::PersistError::Format(
                format!(
                    "{} already holds a durable checkpoint; open_durable recovers it",
                    config.dir.display()
                ),
            )));
        }
        config
            .vfs
            .create_dir_all(&config.dir)
            .map_err(|e| HopiError::Persist(hopi_store::PersistError::Io(e)))?;
        let lock = DirLock::acquire(&*config.vfs, &config.dir)?;
        let (wal, seq) = crate::durable::init_dir(config, &engine)?;
        Ok(Self::with_durability(engine, wal, config, seq, lock))
    }

    fn with_durability(
        engine: Hopi,
        wal: hopi_store::Wal,
        config: &DurableConfig,
        seq: u64,
        lock: DirLock,
    ) -> Self {
        let mut online = OnlineHopi::new(engine);
        online.durability = Some(Arc::new(Durability::new(
            wal,
            config.checkpoint_path(),
            config.policy,
            seq,
            config.vfs.clone(),
            lock,
        )));
        online
    }

    /// Is this engine running with a write-ahead log?
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Durability observability (WAL length, last checkpoint, fsync
    /// horizon); `None` for a non-durable engine.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durability.as_ref().map(|d| d.stats())
    }

    /// Point-in-time copies of the WAL's fsync-latency and group-commit
    /// batch-size histograms; `None` for a non-durable engine.
    pub fn wal_histograms(&self) -> Option<crate::durable::WalHistograms> {
        self.durability.as_ref().map(|d| d.histograms())
    }

    /// What publishing snapshots has cost so far: the capture-time
    /// distribution, how many covers were patched and how many frozen in
    /// full, and the rows the patches rewrote.
    pub fn publish_totals(&self) -> PublishTotals {
        PublishTotals {
            duration: self.publishes.duration.snapshot(),
            patched: self.publishes.patched.load(Ordering::Relaxed),
            full: self.publishes.full.load(Ordering::Relaxed),
            rows_patched: self.publishes.rows_patched.load(Ordering::Relaxed),
        }
    }

    /// Atomically persists the current state (collection + frozen cover +
    /// WAL sequence) and truncates the log. Blocks mutations for the
    /// duration (queries keep running on snapshots). Errors with
    /// [`HopiError::DurabilityDisabled`] on a non-durable engine.
    pub fn checkpoint(&self) -> Result<CheckpointStats, HopiError> {
        let durability = self
            .durability
            .as_ref()
            .ok_or(HopiError::DurabilityDisabled)?;
        // The read lock excludes writers (appends happen under the write
        // lock), freezing engine state and WAL sequence together.
        let guard = self.engine.read();
        // lint: allow(blocking-under-lock): sanctioned — an explicit checkpoint must write under the read lock to freeze state + WAL seq together
        durability.checkpoint(&guard, self.epoch.load(Ordering::Relaxed))
    }

    /// The current serving snapshot (O(1): one `Arc` clone under a
    /// momentary lock). Hold it for repeatable reads across calls; drop it
    /// to pick up newer epochs via the convenience methods below.
    pub fn snapshot(&self) -> Arc<HopiSnapshot> {
        self.serving.read().clone()
    }

    /// Lock-free reachability query (current snapshot).
    pub fn connected(&self, u: ElemId, v: ElemId) -> bool {
        self.snapshot().connected(u, v)
    }

    /// Lock-free batched reachability probes (current snapshot): `out[i]`
    /// answers `pairs[i]` via the frozen §3.4-style join kernel, all on one
    /// epoch, reusing the caller's buffer across batches.
    pub fn connected_many(&self, pairs: &[(ElemId, ElemId)], out: &mut Vec<bool>) {
        self.snapshot().connected_many(pairs, out)
    }

    /// Lock-free shortest-link-distance query (current snapshot).
    pub fn distance(&self, u: ElemId, v: ElemId) -> Result<Option<u32>, HopiError> {
        self.snapshot().distance(u, v)
    }

    /// Lock-free descendant enumeration (current snapshot).
    pub fn descendants(&self, u: ElemId) -> Vec<ElemId> {
        self.snapshot().descendants(u)
    }

    /// Lock-free path-expression evaluation (current snapshot).
    pub fn query(&self, expr: &str) -> Result<Vec<ElemId>, HopiError> {
        self.snapshot().query(expr)
    }

    /// Lock-free distance-ranked evaluation (current snapshot).
    pub fn query_ranked(&self, expr: &str) -> Result<Vec<RankedMatch>, HopiError> {
        self.snapshot().query_ranked(expr)
    }

    /// Current cover size (of the serving snapshot).
    pub fn size(&self) -> usize {
        self.snapshot().cover_entries()
    }

    /// The epoch of the current serving snapshot. Strictly increases with
    /// every published snapshot (mutation, `update_batch`, rebuild).
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch()
    }

    /// Summary of the current serving snapshot (epoch, cover size, node
    /// count, distance-awareness) for observability endpoints.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.snapshot().stats()
    }

    /// Runs a closure against the live engine under the read lock — the
    /// escape hatch for reads that need the *mutable-layer* state (build
    /// reports, degradation, expert accessors). Plain queries should
    /// prefer [`OnlineHopi::snapshot`], which never blocks on writers.
    pub fn read<R>(&self, f: impl FnOnce(&Hopi) -> R) -> R {
        f(&self.engine.read())
    }

    /// Applies a batch of mutations under one write lock and publishes
    /// **one** fresh snapshot afterwards — cheaper than a snapshot refresh
    /// per call when loading many documents or links.
    ///
    /// In durable mode the closure's mutations cannot be logged
    /// individually (they are arbitrary), so the batch is made durable
    /// wholesale: a checkpoint is taken before this returns. A
    /// successful checkpoint also cures an earlier WAL failure (it
    /// captures the whole state). A failed one comes back as `Err` —
    /// the batch is applied in memory and published, but **not durable**
    /// — and leaves the durability layer poisoned, so subsequent
    /// mutations are refused until a checkpoint succeeds. On a
    /// non-durable engine this never errors.
    pub fn update_batch<R>(&self, f: impl FnOnce(&mut Hopi) -> R) -> Result<R, HopiError> {
        let mut guard = self.engine.write();
        let out = f(&mut guard);
        let checkpointed = match &self.durability {
            Some(d) => d
                // lint: allow(blocking-under-lock): sanctioned — a batch is durable-by-checkpoint, which must capture the engine it just mutated
                .checkpoint(&guard, self.epoch.load(Ordering::Relaxed))
                .map(|_| ()),
            None => Ok(()),
        };
        self.publish(&mut guard);
        checkpointed.map(|()| out)
    }

    /// Incremental document insertion (brief write lock + snapshot
    /// refresh).
    pub fn insert_document(
        &self,
        doc: XmlDocument,
        links: &DocumentLinks,
    ) -> Result<DocId, HopiError> {
        // Record built from the caller's inputs *before* taking the write
        // lock, so the clone does not lengthen the critical section.
        let rec = self
            .durability
            .is_some()
            .then(|| WalRecord::InsertDocument {
                doc: doc.clone(),
                outgoing: links.outgoing.clone(),
                incoming: links.incoming.clone(),
            });
        self.mutate(|h| {
            let id = h.insert_document(doc, links)?;
            Ok((id, rec))
        })
    }

    /// Parses and inserts one XML document (brief write lock + snapshot
    /// refresh).
    pub fn insert_xml(&self, name: &str, xml: &str) -> Result<DocId, HopiError> {
        let log = self.durability.is_some();
        self.mutate(|h| {
            let (doc, links) = h.prepare_xml(name, xml)?;
            let rec = log.then(|| WalRecord::InsertDocument {
                doc: doc.clone(),
                outgoing: links.outgoing.clone(),
                incoming: links.incoming.clone(),
            });
            let id = h.insert_document(doc, &links)?;
            Ok((id, rec))
        })
    }

    /// Incremental link insertion (brief write lock + snapshot refresh).
    /// Duplicates are a no-op returning `Ok(0)` — and append no WAL
    /// record, so a durable engine pays no fsync for them.
    pub fn insert_link(&self, from: ElemId, to: ElemId) -> Result<usize, HopiError> {
        self.mutate(|h| {
            let duplicate = h.collection().has_link(from, to);
            let out = h.insert_link(from, to)?;
            Ok((
                out,
                (!duplicate).then_some(WalRecord::InsertLink { from, to }),
            ))
        })
    }

    /// Incremental document deletion (brief write lock + snapshot
    /// refresh).
    pub fn delete_document(&self, d: DocId) -> Result<DeletionOutcome, HopiError> {
        self.mutate(|h| {
            let out = h.delete_document(d)?;
            Ok((out, Some(WalRecord::DeleteDocument { doc: d })))
        })
    }

    /// Incremental link deletion (brief write lock + snapshot refresh).
    pub fn delete_link(&self, from: ElemId, to: ElemId) -> Result<DeletionOutcome, HopiError> {
        self.mutate(|h| {
            let out = h.delete_link(from, to)?;
            Ok((out, Some(WalRecord::DeleteLink { from, to })))
        })
    }

    /// Replaces a document with a new version (drop + reinsert, paper
    /// §6.3; brief write lock + snapshot refresh). Returns the new
    /// document id.
    pub fn modify_document(
        &self,
        d: DocId,
        new_doc: XmlDocument,
        links: &DocumentLinks,
    ) -> Result<DocId, HopiError> {
        // Clone outside the write lock, as in `insert_document`.
        let rec = self
            .durability
            .is_some()
            .then(|| WalRecord::ModifyDocument {
                doc: d,
                new_doc: new_doc.clone(),
                outgoing: links.outgoing.clone(),
                incoming: links.incoming.clone(),
            });
        self.mutate(|h| {
            let id = h.modify_document(d, new_doc, links)?;
            Ok((id, rec))
        })
    }

    /// Rebuilds in a background thread from a snapshot, then swaps the
    /// fresh engine in atomically. Queries are served from the old
    /// snapshot for the entire build; updates arriving mid-build are
    /// replayed onto the fresh engine before the swap. Returns a handle
    /// yielding the fresh build's report.
    pub fn rebuild_in_background(&self) -> std::thread::JoinHandle<BuildReport> {
        let this = self.clone();
        std::thread::spawn(move || this.rebuild_blocking())
    }

    /// The rebuild body (also callable synchronously): snapshot → build
    /// outside the lock → catch up on concurrent updates → swap + publish.
    pub fn rebuild_blocking(&self) -> BuildReport {
        // 1. Snapshot under the read lock.
        let (snapshot, builder) = {
            let guard = self.engine.read();
            let builder = Hopi::builder()
                .config(guard.config().clone())
                .query_options(*guard.query_options())
                .distance_aware(guard.stats().distance_entries.is_some());
            (guard.collection().clone(), builder)
        };
        let snapshot_docs: Vec<DocId> = snapshot.doc_ids().collect();
        let snapshot_links: FxHashSet<(ElemId, ElemId)> =
            snapshot.links().iter().map(|l| (l.from, l.to)).collect();

        // 2. Build outside any lock. A failed build of the snapshot (it
        // was valid when captured) falls back to rebuilding from the
        // live collection under the lock rather than panicking the
        // rebuild thread.
        let mut fresh = match builder.clone().build(snapshot.clone()) {
            Ok(fresh) => fresh,
            Err(_) => {
                let mut guard = self.engine.write();
                return self.swap_fallback_rebuild(&mut guard, builder);
            }
        };

        // 3. Swap under the write lock, replaying the delta between the
        // snapshot and the live collection onto the fresh engine. The
        // plan-strategy counters survive the swap: a rebuild changes the
        // cover, not the observability history.
        let mut guard = self.engine.write();
        let delta = collection_delta(&snapshot_docs, &snapshot_links, guard.collection());
        if !delta_replays_exactly(&snapshot, guard.collection(), &delta) {
            // Rare: the window contained updates whose replay would not
            // reproduce the live id assignment (a document created *and*
            // deleted mid-build, or a link between two mid-build
            // documents). Rebuild from the live collection — still a
            // consistent swap, just under the lock.
            return self.swap_fallback_rebuild(&mut guard, builder);
        }
        fresh.plan_counters = guard.plan_counters.clone();
        let report = fresh.report().clone();
        for update in delta {
            // The replay target `fresh` is the in-memory `Hopi` being
            // built — it has no durability layer and no locks. The
            // name-approximate call graph aliases these methods with the
            // `OnlineHopi` wrappers of the same name, so each arm is
            // individually sanctioned.
            let replayed = match update {
                // lint: allow(blocking-under-lock, lock-order): replay onto the detached in-memory engine, not the online wrapper
                CollectionUpdate::InsertLink(f, t) => fresh.insert_link(f, t).map(|_| ()),
                // lint: allow(blocking-under-lock): replay onto the detached in-memory engine, not the online wrapper
                CollectionUpdate::DeleteLink(f, t) => fresh.delete_link(f, t).map(|_| ()),
                CollectionUpdate::InsertDocument(doc, links) => {
                    // lint: allow(blocking-under-lock): replay onto the detached in-memory engine, not the online wrapper
                    fresh.insert_document(doc, &links).map(|_| ())
                }
                // lint: allow(blocking-under-lock): replay onto the detached in-memory engine, not the online wrapper
                CollectionUpdate::DeleteDocument(d) => fresh.delete_document(d).map(|_| ()),
                CollectionUpdate::ModifyDocument(d, doc, links) => {
                    // lint: allow(blocking-under-lock): replay onto the detached in-memory engine, not the online wrapper
                    fresh.modify_document(d, doc, &links).map(|_| ())
                }
            };
            if replayed.is_err() {
                // A surprising delta must never panic the rebuild thread:
                // fall back to rebuilding from the live collection under
                // the lock (always consistent, just slower).
                return self.swap_fallback_rebuild(&mut guard, builder);
            }
        }
        *guard = fresh;
        self.publish(&mut guard);
        report
    }

    /// The in-lock fallback rebuild: build from the live collection,
    /// carry the plan counters over, swap, publish. If even the live
    /// collection fails to build, the engine keeps serving its current
    /// (consistent) index and the stale report says so — a rebuild is an
    /// optimization, never worth a panic.
    fn swap_fallback_rebuild(
        &self,
        guard: &mut parking_lot::RwLockWriteGuard<'_, Hopi>,
        builder: HopiBuilder,
    ) -> BuildReport {
        let Ok(mut fallback) = builder.build(guard.collection().clone()) else {
            return guard.report().clone();
        };
        fallback.plan_counters = guard.plan_counters.clone();
        let report = fallback.report().clone();
        **guard = fallback;
        self.publish(guard);
        report
    }

    /// Runs one mutation under the write lock; on success publishes a
    /// fresh snapshot before releasing it (so no query epoch can observe
    /// the mutation without its index updates).
    ///
    /// The durable write path threads through here: the closure returns
    /// the WAL record describing the mutation it applied, the record is
    /// appended **while the write lock is held** (log order = apply
    /// order), and after the lock is released the record is
    /// group-committed — this call does not return success until the
    /// mutation is durable, but the fsync it waits on is shared with
    /// every mutation queued behind it.
    fn mutate<R>(
        &self,
        f: impl FnOnce(&mut Hopi) -> Result<(R, Option<WalRecord>), HopiError>,
    ) -> Result<R, HopiError> {
        let mut guard = self.engine.write();
        if let Some(d) = &self.durability {
            d.check_healthy()?;
        }
        let (out, rec) = f(&mut guard)?;
        let committed_seq = match (&self.durability, rec) {
            (Some(d), Some(rec)) => {
                // lint: allow(blocking-under-lock): sanctioned — the WAL append must happen under the write lock so log order equals apply order; the fsync waits outside it
                let seq = match d.append(&rec) {
                    Ok(seq) => seq,
                    Err(e) => {
                        // The mutation is applied in memory but not
                        // logged; publish (readers may as well see it) and
                        // report the durability failure. `append` poisoned
                        // the layer, so no later ack can outrun this hole.
                        self.publish(&mut guard);
                        return Err(e);
                    }
                };
                Some(seq)
            }
            _ => None,
        };
        self.publish(&mut guard);
        drop(guard);
        if let (Some(d), Some(seq)) = (&self.durability, committed_seq) {
            d.commit(seq)?;
        }
        Ok(out)
    }

    /// Publishes the engine's current state as the serving epoch, captured
    /// as the successor of the epoch it replaces. Caller holds the engine
    /// write lock, so the capture is consistent, the journal it takes is
    /// the one the serving snapshot started, and epoch numbers are
    /// published in order; lock order is always engine → serving.
    fn publish(&self, engine: &mut Hopi) {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let prev = self.snapshot();
        let snapshot = engine.snapshot_after(Some(&prev), epoch);
        self.publishes.record(&snapshot.publish);
        // Readers queue on `serving` for their `Arc` clone: swap under
        // the lock, run the replaced snapshot's destructor after it.
        let replaced = std::mem::replace(&mut *self.serving.write(), snapshot);
        drop((prev, replaced));
    }
}

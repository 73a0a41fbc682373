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
//! ([`OnlineHopi::rebuild_in_background`]) build on a copy of the
//! collection outside any lock, replay the records of the mutations
//! applied mid-build, swap the fresh engine in atomically, and publish its
//! snapshot.
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
use hopi_maintenance::{DeletionOutcome, DocumentLinks};
use hopi_obs::{Histogram, HistogramSnapshot};
use hopi_partition::BuildReport;
use hopi_query::RankedMatch;
use hopi_store::WalRecord;
use hopi_xml::{Collection, DocId, ElemId, XmlDocument};
use parking_lot::RwLock;
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
    bytes: AtomicU64,
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
        self.bytes
            .fetch_add(publish.bytes as u64, Ordering::Relaxed);
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
    /// Bytes of frozen blocks the captures wrote, in total (see
    /// [`PublishStats::bytes`]).
    pub bytes: u64,
}

/// What the engine lock guards: the engine, and beside it the catch-up
/// log of the rebuilds in flight — beside, not inside, so a clone of the
/// engine never inherits an open window.
struct Engine {
    hopi: Hopi,
    catch_up: CatchUp,
}

/// The records a background rebuild replays at its swap. Capturing the
/// rebuild's collection opens a *window*; every mutation applied while a
/// window is open pushes its record, in apply order, onto one shared log,
/// and each window replays the log from its own start. Replaying a
/// collection's mutations in order onto a copy of it reproduces it
/// exactly (the copy keeps tombstoned slots, so inserted documents get
/// the same ids) — the argument WAL recovery rests on too.
#[derive(Default)]
struct CatchUp {
    /// Records since the oldest open window's capture; empty when no
    /// rebuild is in flight.
    log: Vec<WalRecord>,
    /// The open windows.
    windows: Vec<Window>,
    next_id: u64,
}

struct Window {
    id: u64,
    /// Index into [`CatchUp::log`] of the first record its rebuild did not
    /// see.
    start: usize,
}

impl CatchUp {
    fn open_window(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.windows.push(Window {
            id,
            start: self.log.len(),
        });
        id
    }

    fn push(&mut self, rec: WalRecord) {
        if !self.windows.is_empty() {
            self.log.push(rec);
        }
    }

    /// Closes window `id`: the records its rebuild must replay (`None` for
    /// a window that is not open). Drops the records no open window needs
    /// any more.
    fn close_window(&mut self, id: u64) -> Option<Vec<WalRecord>> {
        let at = self.windows.iter().position(|w| w.id == id)?;
        let window = self.windows.remove(at);
        let seen = self.log.get(window.start..).unwrap_or_default().to_vec();
        let needed = self.windows.iter().map(|w| w.start).min();
        let needed = needed.unwrap_or(self.log.len());
        self.log.drain(..needed);
        for w in &mut self.windows {
            w.start -= needed;
        }
        Some(seen)
    }
}

/// A rebuild's capture: the collection to build from, how to build it,
/// and the catch-up window the capture opened.
struct Capture {
    collection: Collection,
    builder: HopiBuilder,
    window: u64,
}

/// The record of a document insertion.
fn insert_record(doc: &XmlDocument, links: &DocumentLinks) -> WalRecord {
    WalRecord::InsertDocument {
        doc: doc.clone(),
        outgoing: links.outgoing.clone(),
        incoming: links.incoming.clone(),
    }
}

/// Where [`OnlineHopi::mutate`] takes the record of each mutation applied:
/// to the WAL and to the catch-up log of any rebuild in flight.
type Log<'a> = dyn FnMut(WalRecord) -> Result<(), HopiError> + 'a;

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
    /// The mutable engine and its rebuild catch-up log; only maintenance
    /// takes this lock.
    engine: Arc<RwLock<Engine>>,
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
            engine: Arc::new(RwLock::new(Engine {
                hopi,
                catch_up: CatchUp::default(),
            })),
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
    /// full, and the rows and bytes the captures rewrote.
    pub fn publish_totals(&self) -> PublishTotals {
        PublishTotals {
            duration: self.publishes.duration.snapshot(),
            patched: self.publishes.patched.load(Ordering::Relaxed),
            full: self.publishes.full.load(Ordering::Relaxed),
            rows_patched: self.publishes.rows_patched.load(Ordering::Relaxed),
            bytes: self.publishes.bytes.load(Ordering::Relaxed),
        }
    }

    /// Point-in-time copies of the §6 maintenance-call latency histograms,
    /// `(op label, distribution)` in exposition order. Read through the
    /// serving snapshot, so a scrape never waits on a writer.
    pub fn maintenance_durations(&self) -> [(&'static str, HistogramSnapshot); 4] {
        self.snapshot().maintenance_durations.as_labeled()
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
        durability.checkpoint(&guard.hopi, self.epoch.load(Ordering::Relaxed))
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
    /// every published snapshot (mutation, batch, rebuild).
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
        f(&self.engine.read().hopi)
    }

    /// Applies a batch of mutation records in order under one write lock
    /// and publishes **one** fresh snapshot for all of them — cheaper than
    /// a publish per call when loading many documents or links.
    ///
    /// A batch answers exactly as if its records were applied one at a
    /// time, stopping at the first error: the records before a rejected
    /// one stay applied, logged and published, and its error is returned.
    /// Each record is logged as its own WAL record and replayed by a
    /// rebuild in flight like any single mutation; a durable engine
    /// returns once the whole batch is durable (one group commit), and a
    /// crash before that recovers a prefix of it.
    ///
    /// Records name document and element ids, so build them against the
    /// live collection — e.g. with [`Hopi::prepare_xml`] through
    /// [`OnlineHopi::read`].
    pub fn apply(&self, records: Vec<WalRecord>) -> Result<(), HopiError> {
        self.mutate(|h, log| {
            records.into_iter().try_for_each(|rec| {
                h.replay_record(rec.clone())?;
                log(rec)
            })
        })
    }

    /// Incremental document insertion (brief write lock + snapshot
    /// refresh).
    pub fn insert_document(
        &self,
        doc: XmlDocument,
        links: &DocumentLinks,
    ) -> Result<DocId, HopiError> {
        // The record is built *before* taking the write lock, so the clone
        // does not lengthen the critical section.
        let rec = insert_record(&doc, links);
        self.mutate(|h, log| {
            let id = h.insert_document(doc, links)?;
            log(rec)?;
            Ok(id)
        })
    }

    /// Parses and inserts one XML document (brief write lock + snapshot
    /// refresh).
    pub fn insert_xml(&self, name: &str, xml: &str) -> Result<DocId, HopiError> {
        self.mutate(|h, log| {
            let (doc, links) = h.prepare_xml(name, xml)?;
            let rec = insert_record(&doc, &links);
            let id = h.insert_document(doc, &links)?;
            log(rec)?;
            Ok(id)
        })
    }

    /// Incremental link insertion (brief write lock + snapshot refresh).
    /// Duplicates are a no-op returning `Ok(0)` — and append no WAL
    /// record, so a durable engine pays no fsync for them.
    pub fn insert_link(&self, from: ElemId, to: ElemId) -> Result<usize, HopiError> {
        self.mutate(|h, log| {
            let duplicate = h.collection().has_link(from, to);
            let out = h.insert_link(from, to)?;
            if !duplicate {
                log(WalRecord::InsertLink { from, to })?;
            }
            Ok(out)
        })
    }

    /// Incremental document deletion (brief write lock + snapshot
    /// refresh).
    pub fn delete_document(&self, d: DocId) -> Result<DeletionOutcome, HopiError> {
        self.mutate(|h, log| {
            let out = h.delete_document(d)?;
            log(WalRecord::DeleteDocument { doc: d })?;
            Ok(out)
        })
    }

    /// Incremental link deletion (brief write lock + snapshot refresh).
    pub fn delete_link(&self, from: ElemId, to: ElemId) -> Result<DeletionOutcome, HopiError> {
        self.mutate(|h, log| {
            let out = h.delete_link(from, to)?;
            log(WalRecord::DeleteLink { from, to })?;
            Ok(out)
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
        let rec = WalRecord::ModifyDocument {
            doc: d,
            new_doc: new_doc.clone(),
            outgoing: links.outgoing.clone(),
            incoming: links.incoming.clone(),
        };
        self.mutate(|h, log| {
            let id = h.modify_document(d, new_doc, links)?;
            log(rec)?;
            Ok(id)
        })
    }

    /// Rebuilds in a background thread from a copy of the collection,
    /// then swaps the fresh engine in atomically. Queries are served from
    /// the old snapshot for the entire build; mutations applied mid-build
    /// are replayed onto the fresh engine before the swap. Returns a handle
    /// yielding the fresh build's report.
    pub fn rebuild_in_background(&self) -> std::thread::JoinHandle<BuildReport> {
        let this = self.clone();
        std::thread::spawn(move || this.rebuild_blocking())
    }

    /// The rebuild body (also callable synchronously): capture → build
    /// outside the lock → catch up on concurrent mutations → swap +
    /// publish.
    pub fn rebuild_blocking(&self) -> BuildReport {
        let Capture {
            collection,
            builder,
            window,
        } = self.begin_rebuild();
        let built = builder.clone().build(collection);
        self.finish_rebuild(window, builder, built).0
    }

    /// Copies the collection and build settings under the write lock and
    /// opens the rebuild's catch-up window.
    fn begin_rebuild(&self) -> Capture {
        let mut guard = self.engine.write();
        let hopi = &guard.hopi;
        let builder = Hopi::builder()
            .config(hopi.config().clone())
            .query_options(*hopi.query_options())
            .distance_aware(hopi.stats().distance_entries.is_some());
        let collection = hopi.collection().clone();
        Capture {
            collection,
            builder,
            window: guard.catch_up.open_window(),
        }
    }

    /// Closes the rebuild's window and swaps the fresh engine in under the
    /// write lock, after replaying the window's records onto it; also
    /// returns how many it replayed. The one fallback (`None`) — a failed
    /// build or a replay error — rebuilds from the live collection under
    /// the lock. If even that fails, the engine keeps serving its current
    /// (consistent) index and the stale report says so: a rebuild is an
    /// optimization, never worth a panic.
    fn finish_rebuild(
        &self,
        window: u64,
        builder: HopiBuilder,
        built: Result<Hopi, HopiError>,
    ) -> (BuildReport, Option<usize>) {
        let mut guard = self.engine.write();
        let Engine { hopi, catch_up } = &mut *guard;
        let caught_up = match (built, catch_up.close_window(window)) {
            (Ok(mut fresh), Some(records)) => {
                let n = records.len();
                let replay = records
                    .into_iter()
                    // lint: allow(blocking-under-lock, lock-order): `fresh` is the detached in-memory engine, not the online wrapper whose same-named methods the call graph aliases
                    .try_for_each(|rec| fresh.replay_record(rec));
                replay.is_ok().then_some((fresh, Some(n)))
            }
            _ => None,
        };
        let fresh = match caught_up {
            Some(fresh) => Some(fresh),
            None => builder
                .build(hopi.collection().clone())
                .ok()
                .map(|f| (f, None)),
        };
        let Some((mut fresh, replayed)) = fresh else {
            return (hopi.report().clone(), None);
        };
        // The plan-strategy and §6 counters survive the swap: a rebuild
        // changes the cover, not the observability history (and the live
        // engine has already counted the mutations just replayed).
        fresh.inherit_history(hopi);
        let report = fresh.report().clone();
        *hopi = fresh;
        self.publish(hopi);
        (report, replayed)
    }

    /// Runs mutations under the write lock and publishes a fresh snapshot
    /// before releasing it (so no query epoch can observe a mutation
    /// without its index updates).
    ///
    /// The closure applies its mutations in order, handing the record of
    /// each one applied to `log`, which appends it to the WAL **while the
    /// write lock is held** (log order = apply order) and pushes it onto
    /// the catch-up log of any rebuild in flight. One snapshot is
    /// published when the closure returns — also when it failed after
    /// applying something. After the lock is released the last record is
    /// group-committed: this call does not return success until its
    /// mutations are durable, but the fsync it waits on is shared with
    /// every mutation queued behind it.
    fn mutate<R>(
        &self,
        f: impl FnOnce(&mut Hopi, &mut Log<'_>) -> Result<R, HopiError>,
    ) -> Result<R, HopiError> {
        let mut guard = self.engine.write();
        if let Some(d) = &self.durability {
            d.check_healthy()?;
        }
        let Engine { hopi, catch_up } = &mut *guard;
        let (mut applied, mut appended) = (false, None);
        let out = f(hopi, &mut |rec| {
            applied = true;
            // lint: allow(blocking-under-lock): sanctioned — the WAL append must happen under the write lock so log order equals apply order; the fsync waits outside it
            let seq = self.durability.as_ref().map(|d| d.append(&rec));
            // The mutation is applied in memory even when its append
            // failed, so a rebuild in flight must replay it either way.
            catch_up.push(rec);
            appended = seq.transpose()?;
            Ok(())
        });
        // A failed append still publishes (readers may as well see the
        // mutation) and then reports the durability failure. `append`
        // poisoned the layer, so no later ack can outrun this hole.
        if out.is_ok() || applied {
            self.publish(hopi);
        }
        drop(guard);
        if let (Some(d), Some(seq)) = (&self.durability, appended) {
            d.commit(seq)?;
        }
        out
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

#[cfg(test)]
mod tests {
    //! The rebuild's capture and swap phases driven directly, so each test
    //! places its mutations inside the catch-up window deterministically.

    use super::*;
    use crate::durable::DurableConfig;
    use hopi_core::FrozenCover;
    use hopi_graph::TransitiveClosure;
    use hopi_query::TagIndex;
    use hopi_store::{FaultKind, FaultOpKind, FaultVfs};
    use hopi_text::{FrozenTextIndex, TextIndex};

    fn fixture() -> Hopi {
        Hopi::builder()
            .parse([
                ("a", r#"<r><s>hop cover</s><cite xlink:href="b"/></r>"#),
                (
                    "b",
                    r#"<r><sec id="x"><p>xml index</p></sec><cite xlink:href="c"/></r>"#,
                ),
                ("c", "<r><t>two hop</t></r>"),
                ("d", r#"<r><u/><cite xlink:href="a"/></r>"#),
            ])
            .expect("valid fixture")
    }

    #[test]
    fn a_leaf_link_write_shares_all_but_a_few_blocks() {
        // 300 unlinked seven-element chains: ~2,100 nodes, nine blocks a
        // section.
        let docs: Vec<(String, String)> = (0..300)
            .map(|i| {
                (
                    format!("d{i}"),
                    "<r><a><b><c><d><e><f/></e></d></c></b></a></r>".into(),
                )
            })
            .collect();
        let hopi = Hopi::builder()
            .parse(docs.iter().map(|(n, x)| (n.as_str(), x.as_str())))
            .expect("valid collection");
        let online = OnlineHopi::new(hopi);
        let first = online.snapshot();
        let total = first.frozen().sharing(&FrozenCover::default()).fresh_bytes;
        assert_eq!(
            first.stats().publish.bytes,
            total,
            "a full freeze writes every block"
        );
        online
            .insert_link(elem(&online, "d10", 6), elem(&online, "d250", 6))
            .unwrap();
        let second = online.snapshot();
        let publish = second.stats().publish;
        assert!(publish.patched);
        let sharing = second.frozen().sharing(first.frozen());
        let blocks = sharing.shared.iter().map(Vec::len).sum::<usize>();
        let rebuilt = sharing.shared.iter().flatten().filter(|&&s| !s).count();
        assert!(
            blocks >= 32 && rebuilt <= 4,
            "{rebuilt} of {blocks} blocks rebuilt"
        );
        assert_eq!(publish.bytes, sharing.fresh_bytes);
        assert!(
            publish.bytes > 0 && publish.bytes * 8 <= total,
            "{} of {total} bytes",
            publish.bytes
        );
        assert_eq!(
            online.publish_totals().bytes,
            (total + publish.bytes) as u64
        );
    }

    fn doc_id(online: &OnlineHopi, name: &str) -> DocId {
        online.read(|h| {
            let c = h.collection();
            c.doc_ids()
                .find(|&d| c.document(d).is_some_and(|doc| doc.name == name))
                .expect("live document")
        })
    }

    /// Element `local` of the live document `name`.
    fn elem(online: &OnlineHopi, name: &str, local: u32) -> ElemId {
        let d = doc_id(online, name);
        online.read(|h| h.collection().global_id(d, local))
    }

    /// `(records, open windows)` of the catch-up log.
    fn catch_up_len(online: &OnlineHopi) -> (usize, usize) {
        let guard = online.engine.read();
        (guard.catch_up.log.len(), guard.catch_up.windows.len())
    }

    /// Builds from `capture`, swaps, and checks the swapped engine against
    /// the live engine it replaced. Returns the records replayed (`None`:
    /// the fallback ran).
    fn swap_checked(online: &OnlineHopi, capture: Capture) -> Option<usize> {
        let built = capture.builder.clone().build(capture.collection);
        swap_checked_with(online, capture.window, capture.builder, built)
    }

    fn swap_checked_with(
        online: &OnlineHopi,
        window: u64,
        builder: HopiBuilder,
        built: Result<Hopi, HopiError>,
    ) -> Option<usize> {
        let live = online.read(|h| h.collection().clone());
        let (_, replayed) = online.finish_rebuild(window, builder, built);
        assert_exact(online, &live);
        replayed
    }

    /// Runs `mid` inside a rebuild's catch-up window, then swaps.
    fn rebuild_around(online: &OnlineHopi, mid: impl FnOnce(&OnlineHopi)) -> Option<usize> {
        let capture = online.begin_rebuild();
        mid(online);
        swap_checked(online, capture)
    }

    /// The engine holds exactly the collection `live` (id bounds, links,
    /// documents), answers `connected` like a BFS closure, and publishes
    /// what a from-scratch capture would.
    fn assert_exact(online: &OnlineHopi, live: &Collection) {
        online.read(|h| {
            let c = h.collection();
            assert_eq!(c.doc_id_bound(), live.doc_id_bound());
            assert_eq!(c.elem_id_bound(), live.elem_id_bound());
            assert_eq!(c.links(), live.links());
            for d in 0..live.doc_id_bound() as DocId {
                assert_eq!(c.document(d), live.document(d), "document {d}");
                if live.document(d).is_some() {
                    assert_eq!(c.global_id(d, 0), live.global_id(d, 0), "base of {d}");
                }
            }
            let tc = TransitiveClosure::from_graph(&c.element_graph());
            let alive: Vec<ElemId> = (0..c.elem_id_bound() as ElemId)
                .filter(|&e| c.doc_of(e).is_some())
                .collect();
            for &u in &alive {
                for &v in &alive {
                    assert_eq!(h.connected(u, v), tc.contains(u, v), "({u},{v})");
                }
            }
            let snap = online.snapshot();
            assert_eq!(snap.frozen(), &FrozenCover::from_cover(h.index().cover()));
            assert_eq!(snap.tags(), &TagIndex::build(c));
            let text = FrozenTextIndex::from_index(&TextIndex::build(c));
            assert_eq!(snap.text().as_ref(), &text);
        });
    }

    #[test]
    fn every_mutation_kind_replays() {
        let online = OnlineHopi::new(fixture());
        let replayed = rebuild_around(&online, |o| {
            o.insert_link(elem(o, "c", 1), elem(o, "d", 0)).unwrap();
            let l = o.read(|h| h.collection().links()[0]);
            o.delete_link(l.from, l.to).unwrap();
            o.insert_xml("e", r#"<r><v>fresh hop</v><cite xlink:href="a"/></r>"#)
                .unwrap();
            let mut doc = XmlDocument::new("f", "r");
            let w = doc.add_element(0, "w");
            doc.set_text(w, "xml cover");
            let links = DocumentLinks {
                outgoing: vec![(w, elem(o, "b", 1))],
                incoming: vec![(elem(o, "c", 0), 0)],
            };
            o.insert_document(doc, &links).unwrap();
            o.delete_document(doc_id(o, "d")).unwrap();
            let links = DocumentLinks {
                outgoing: vec![(0, elem(o, "a", 1))],
                incoming: vec![],
            };
            o.modify_document(doc_id(o, "e"), XmlDocument::new("e2", "r"), &links)
                .unwrap();
        });
        assert_eq!(replayed, Some(6));
        assert_eq!(catch_up_len(&online), (0, 0));
    }

    #[test]
    fn document_inserted_and_deleted_mid_build_replays() {
        // The id hole a diff of two collections cannot reproduce.
        let online = OnlineHopi::new(fixture());
        let replayed = rebuild_around(&online, |o| {
            let ghost = o.insert_xml("ghost", "<r><g/></r>").unwrap();
            o.insert_xml("keeper", r#"<r><k/><cite xlink:href="a"/></r>"#)
                .unwrap();
            o.delete_document(ghost).unwrap();
        });
        assert_eq!(replayed, Some(3));
    }

    #[test]
    fn link_from_a_new_document_to_a_later_one_replays() {
        let online = OnlineHopi::new(fixture());
        let replayed = rebuild_around(&online, |o| {
            o.insert_xml("x", "<r><s/></r>").unwrap();
            o.insert_xml("y", "<r><s>late hop</s></r>").unwrap();
            o.insert_link(elem(o, "x", 1), elem(o, "y", 1)).unwrap();
        });
        assert_eq!(replayed, Some(3));
    }

    #[test]
    fn modified_documents_replay_with_links_both_ways() {
        let online = OnlineHopi::new(fixture());
        let replayed = rebuild_around(&online, |o| {
            let mut doc = XmlDocument::new("b2", "r");
            let s = doc.add_element(0, "sec");
            doc.set_text(s, "modified hop");
            let links = DocumentLinks {
                outgoing: vec![(s, elem(o, "c", 1))],
                incoming: vec![(elem(o, "a", 1), 0)],
            };
            o.modify_document(doc_id(o, "b"), doc, &links).unwrap();
            // A replacement of the replacement: its id came from the window.
            let links = DocumentLinks {
                outgoing: vec![],
                incoming: vec![(elem(o, "d", 1), 0)],
            };
            o.modify_document(doc_id(o, "b2"), XmlDocument::new("b3", "r"), &links)
                .unwrap();
        });
        assert_eq!(replayed, Some(2));
    }

    #[test]
    fn rejected_mutations_are_not_replayed() {
        let online = OnlineHopi::new(fixture());
        let replayed = rebuild_around(&online, |o| {
            assert!(o.delete_link(elem(o, "a", 0), elem(o, "c", 0)).is_err());
            assert!(o.delete_document(99).is_err());
            assert!(o.insert_xml("a", "<r/>").is_err(), "duplicate name");
            let dead = XmlDocument::new("z", "r");
            assert!(o
                .modify_document(99, dead, &DocumentLinks::default())
                .is_err());
            // A duplicate link is a no-op that leaves no record.
            let l = o.read(|h| h.collection().links()[0]);
            assert_eq!(o.insert_link(l.from, l.to).unwrap(), 0);
            o.insert_link(elem(o, "c", 1), elem(o, "a", 0)).unwrap();
        });
        assert_eq!(replayed, Some(1));
    }

    /// A batch of four records against the fixture: a link, a document
    /// citing `a`, a modification and a deletion.
    fn batch(online: &OnlineHopi) -> Vec<WalRecord> {
        let xml = r#"<r><s>batched hop</s><cite xlink:href="a"/></r>"#;
        let (doc, links) = online.read(|h| h.prepare_xml("batched", xml)).unwrap();
        let (c1, a0, d1) = (
            elem(online, "c", 1),
            elem(online, "a", 0),
            elem(online, "d", 1),
        );
        vec![
            WalRecord::InsertLink { from: c1, to: a0 },
            insert_record(&doc, &links),
            WalRecord::ModifyDocument {
                doc: doc_id(online, "b"),
                new_doc: XmlDocument::new("b2", "r"),
                outgoing: vec![(0, a0)],
                incoming: vec![(d1, 0)],
            },
            WalRecord::DeleteDocument {
                doc: doc_id(online, "d"),
            },
        ]
    }

    /// `fixture()` with `records` applied one at a time.
    fn one_at_a_time(records: &[WalRecord]) -> Hopi {
        let mut model = fixture();
        for rec in records {
            model.replay_record(rec.clone()).unwrap();
        }
        model
    }

    #[test]
    fn batch_replays_like_single_mutations() {
        let online = OnlineHopi::new(fixture());
        let records = batch(&online);
        let replayed = rebuild_around(&online, |o| {
            let epoch = o.epoch();
            o.apply(records.clone()).unwrap();
            assert_eq!(o.epoch(), epoch + 1, "one publish per batch");
            assert_exact(o, one_at_a_time(&records).collection());
            o.insert_xml("after", "<r><s/></r>").unwrap();
        });
        assert_eq!(replayed, Some(records.len() + 1));
        assert_eq!(catch_up_len(&online), (0, 0));
    }

    #[test]
    fn batch_stops_at_its_first_rejected_record() {
        let online = OnlineHopi::new(fixture());
        let mut records = batch(&online);
        let (a0, c0) = (elem(&online, "a", 0), elem(&online, "c", 0));
        let rejected = WalRecord::DeleteLink { from: a0, to: c0 };
        // Record k = 3 names a link that does not exist.
        records.insert(2, rejected.clone());
        let replayed = rebuild_around(&online, |o| {
            let epoch = o.epoch();
            let err = o.apply(records.clone()).unwrap_err();
            assert!(matches!(err, HopiError::UnknownLink { .. }), "{err}");
            assert_eq!(o.epoch(), epoch + 1, "the applied prefix is published once");
            assert_exact(o, one_at_a_time(&records[..2]).collection());
            // Rejected at k = 1: nothing applied, nothing published.
            assert!(o.apply(vec![rejected]).is_err());
            assert_eq!(o.epoch(), epoch + 1);
        });
        assert_eq!(replayed, Some(2));
    }

    #[test]
    fn overlapping_windows_each_replay_their_own_records() {
        let online = OnlineHopi::new(fixture());
        let first = online.begin_rebuild();
        online
            .insert_xml("one", r#"<r><cite xlink:href="a"/></r>"#)
            .unwrap();
        let second = online.begin_rebuild();
        online
            .insert_xml("two", r#"<r><cite xlink:href="one"/></r>"#)
            .unwrap();
        // The first rebuild swaps while the second is still building.
        assert_eq!(swap_checked(&online, first), Some(2));
        assert_eq!(catch_up_len(&online), (1, 1));
        let (from, to) = (elem(&online, "c", 1), elem(&online, "two", 0));
        online.insert_link(from, to).unwrap();
        assert_eq!(swap_checked(&online, second), Some(2));
        assert_eq!(catch_up_len(&online), (0, 0));
    }

    #[test]
    fn overlapping_windows_may_swap_out_of_order() {
        let online = OnlineHopi::new(fixture());
        let first = online.begin_rebuild();
        online
            .insert_xml("one", r#"<r><cite xlink:href="a"/></r>"#)
            .unwrap();
        let second = online.begin_rebuild();
        online
            .insert_xml("two", r#"<r><cite xlink:href="one"/></r>"#)
            .unwrap();
        assert_eq!(swap_checked(&online, second), Some(1));
        assert_eq!(catch_up_len(&online), (2, 1));
        online.delete_document(doc_id(&online, "one")).unwrap();
        assert_eq!(swap_checked(&online, first), Some(3));
        assert_eq!(catch_up_len(&online), (0, 0));
    }

    #[test]
    fn failed_build_falls_back_and_empties_the_log() {
        let online = OnlineHopi::new(fixture());
        let Capture {
            builder, window, ..
        } = online.begin_rebuild();
        online
            .insert_xml("late", r#"<r><cite xlink:href="b"/></r>"#)
            .unwrap();
        let failed = Err(HopiError::DistanceDisabled);
        let replayed = swap_checked_with(&online, window, builder, failed);
        assert_eq!(replayed, None);
        assert_eq!(catch_up_len(&online), (0, 0));
    }

    #[test]
    fn mutation_whose_append_failed_is_replayed() {
        let dir =
            std::env::temp_dir().join(format!("hopi_online_failed_append_{}", std::process::id()));
        let bootstrap = |vfs: &FaultVfs| {
            std::fs::remove_dir_all(&dir).ok();
            let config = DurableConfig::new(&dir).vfs(Arc::new(vfs.clone()));
            OnlineHopi::bootstrap_durable(&config, fixture()).unwrap()
        };
        // The op after a bootstrap's last one is the first WAL append.
        let counting = FaultVfs::counting();
        drop(bootstrap(&counting));
        let vfs = FaultVfs::failing(counting.op_count() + 1, FaultKind::Eio);
        let online = bootstrap(&vfs);
        let (from, to) = (elem(&online, "c", 1), elem(&online, "a", 0));
        let replayed = rebuild_around(&online, |o| {
            let err = o.insert_link(from, to).unwrap_err();
            assert!(matches!(err, HopiError::Persist(_)), "{err}");
            let failed = vfs.ops().pop().expect("the failed op");
            assert!(vfs.fired() && failed.op == FaultOpKind::Write);
            assert!(failed.path.ends_with(crate::WAL_FILE));
            assert!(o.read(|h| h.collection().has_link(from, to)));
        });
        assert_eq!(replayed, Some(1));
        assert!(online.read(|h| h.collection().has_link(from, to)));
        assert!(online.connected(from, to));
        drop(online);
        std::fs::remove_dir_all(&dir).ok();
    }
}

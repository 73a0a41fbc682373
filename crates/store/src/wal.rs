//! Write-ahead logging for the HOPI index: length-prefixed, checksummed
//! mutation records with group commit.
//!
//! The paper's §1.1 deployment serves queries 24×7 while absorbing
//! updates; a crash must not lose acknowledged mutations. The WAL makes
//! the write path durable: every collection-level mutation is appended
//! here as a [`WalRecord`] and acknowledged only once the record has
//! reached disk. Recovery replays the log tail on top of the last
//! checkpoint. `WalRecord` is the engine's one mutation vocabulary: a
//! background rebuild catches up by replaying the same records.
//!
//! ## File format
//!
//! ```text
//! magic     4 bytes  "HOPW"
//! version   u32      2 (1 accepted: document blobs carry no element text)
//! base_seq  u64      sequence number the file starts after
//! records   (len: u32, crc32: u32, payload: len bytes) ×
//! ```
//!
//! Record `i` (zero-based) carries sequence number `base_seq + i + 1`.
//! A checkpoint at sequence `S` rotates the log: a fresh file with
//! `base_seq = S` atomically replaces the old one, so records covered by
//! the checkpoint vanish and later records keep their sequence numbers.
//!
//! ## Torn tails
//!
//! Appends are not atomic; a crash can leave a half-written final record.
//! [`Wal::open`] validates each frame (length bound, CRC-32, payload
//! decode) and, at the first bad frame, truncates the file to the last
//! good record boundary instead of erroring — exactly the records that
//! were never durable (and therefore never acknowledged) are dropped.
//!
//! ## Group commit
//!
//! [`Wal::append`] under [`SyncPolicy::GroupCommit`] only buffers the
//! record; [`Wal::commit`] makes it durable with a *shared* fsync: the
//! first committer becomes the leader and syncs everything appended so
//! far, concurrent committers wait on the same sync — one fsync
//! acknowledges a whole batch, turning per-operation fsync latency into
//! amortized batch latency.

use crate::persist::{atomic_write_file, sync_parent_dir, PersistError};
use crate::vfs::{Vfs, VfsFile};
use hopi_obs::{Histogram, Span};
use hopi_xml::{codec, XmlDocument};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `m`, recovering the guard from a poisoned lock instead of
/// panicking. Sound here because every WAL critical section mutates
/// [`WalInner`] in panic-free steps (file writes surface as `Err`, the
/// counters update by plain arithmetic afterwards), so a panic elsewhere
/// on a lock-holding thread cannot leave the inner state torn.
/// Recovering keeps one crashed worker from taking the whole log — and
/// with it every serve-path mutation — down with it.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Little-endian `u32` at `bytes[at..at + 4]`, typed error on truncation.
fn le_u32(bytes: &[u8], at: usize) -> Result<u32, PersistError> {
    bytes
        .get(at..at + 4)
        .and_then(|b| <[u8; 4]>::try_from(b).ok())
        .map(u32::from_le_bytes)
        .ok_or_else(|| PersistError::Format("truncated WAL frame".into()))
}

/// Little-endian `u64` at `bytes[at..at + 8]`, typed error on truncation.
fn le_u64(bytes: &[u8], at: usize) -> Result<u64, PersistError> {
    bytes
        .get(at..at + 8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .map(u64::from_le_bytes)
        .ok_or_else(|| PersistError::Format("truncated WAL header".into()))
}

const MAGIC: &[u8; 4] = b"HOPW";
const VERSION: u32 = 2;
/// The last version whose document blobs carry no element text section.
const VERSION_NO_TEXT: u32 = 1;
const HEADER_LEN: u64 = 16;

/// Distinguishes concurrent rotations' temp files within one process.
static ROTATE_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// When an appended record must reach disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Buffer on append; [`Wal::commit`] group-fsyncs (the durable
    /// default: one fsync acknowledges every record queued behind it).
    GroupCommit,
    /// fsync inside every append, serialized — the naive durable write
    /// path, kept as the baseline the group-commit speedup is measured
    /// against.
    PerOp,
    /// Never fsync (crash durability limited to what the OS flushes on
    /// its own). For bulk loads and benchmarks.
    Never,
}

/// One collection-level mutation: what the WAL persists, what recovery
/// replays, and what a background rebuild replays to catch up.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// A link was inserted between two live elements.
    InsertLink {
        /// Global source element id.
        from: u32,
        /// Global target element id.
        to: u32,
    },
    /// An inter-document link was deleted.
    DeleteLink {
        /// Global source element id.
        from: u32,
        /// Global target element id.
        to: u32,
    },
    /// A document was inserted with its links (`outgoing`: local source →
    /// global target; `incoming`: global source → local target).
    InsertDocument {
        /// The inserted document.
        doc: XmlDocument,
        /// Outgoing links `(local element, global target)`.
        outgoing: Vec<(u32, u32)>,
        /// Incoming links `(global source, local element)`.
        incoming: Vec<(u32, u32)>,
    },
    /// A document was deleted.
    DeleteDocument {
        /// The deleted document id.
        doc: u32,
    },
    /// A document was replaced (drop + reinsert, paper §6.3).
    ModifyDocument {
        /// The replaced document id.
        doc: u32,
        /// The replacement document.
        new_doc: XmlDocument,
        /// Outgoing links of the replacement.
        outgoing: Vec<(u32, u32)>,
        /// Incoming links of the replacement.
        incoming: Vec<(u32, u32)>,
    },
}

const TAG_INSERT_LINK: u8 = 1;
const TAG_DELETE_LINK: u8 = 2;
const TAG_INSERT_DOC: u8 = 3;
const TAG_DELETE_DOC: u8 = 4;
const TAG_MODIFY_DOC: u8 = 5;

fn put_pairs(out: &mut Vec<u8>, pairs: &[(u32, u32)]) {
    out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
    for &(a, b) in pairs {
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
}

fn put_doc(out: &mut Vec<u8>, doc: &XmlDocument) {
    let mut bytes = Vec::new();
    codec::encode_document(doc, &mut bytes);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(&bytes);
}

/// Minimal cursor for record payloads (the document blob inside is
/// length-prefixed and handed to `hopi_xml::codec`).
struct Take<'a>(&'a [u8]);

impl<'a> Take<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.0.len() < n {
            return Err(PersistError::Format("truncated WAL record".into()));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        le_u32(self.bytes(4)?, 0)
    }

    fn pairs(&mut self) -> Result<Vec<(u32, u32)>, PersistError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(8) > self.0.len() {
            return Err(PersistError::Format("WAL pair count exceeds record".into()));
        }
        (0..n).map(|_| Ok((self.u32()?, self.u32()?))).collect()
    }

    fn doc(&mut self, with_text: bool) -> Result<XmlDocument, PersistError> {
        let n = self.u32()? as usize;
        codec::decode_document_versioned(self.bytes(n)?, with_text)
            .map_err(|e| PersistError::Format(format!("WAL document blob: {e}")))
    }

    fn finish(self) -> Result<(), PersistError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(PersistError::Format(format!(
                "{} trailing bytes in WAL record",
                self.0.len()
            )))
        }
    }
}

impl WalRecord {
    /// Serializes the record payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::InsertLink { from, to } => {
                out.push(TAG_INSERT_LINK);
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&to.to_le_bytes());
            }
            WalRecord::DeleteLink { from, to } => {
                out.push(TAG_DELETE_LINK);
                out.extend_from_slice(&from.to_le_bytes());
                out.extend_from_slice(&to.to_le_bytes());
            }
            WalRecord::InsertDocument {
                doc,
                outgoing,
                incoming,
            } => {
                out.push(TAG_INSERT_DOC);
                put_doc(&mut out, doc);
                put_pairs(&mut out, outgoing);
                put_pairs(&mut out, incoming);
            }
            WalRecord::DeleteDocument { doc } => {
                out.push(TAG_DELETE_DOC);
                out.extend_from_slice(&doc.to_le_bytes());
            }
            WalRecord::ModifyDocument {
                doc,
                new_doc,
                outgoing,
                incoming,
            } => {
                out.push(TAG_MODIFY_DOC);
                out.extend_from_slice(&doc.to_le_bytes());
                put_doc(&mut out, new_doc);
                put_pairs(&mut out, outgoing);
                put_pairs(&mut out, incoming);
            }
        }
        out
    }

    /// Deserializes a record payload written by [`WalRecord::encode`].
    /// `with_text` reflects the log file's version: pre-text logs
    /// (version 1) framed document blobs without the text section.
    pub fn decode(payload: &[u8], with_text: bool) -> Result<WalRecord, PersistError> {
        let mut t = Take(payload);
        let tag = t.bytes(1)?[0];
        let rec = match tag {
            TAG_INSERT_LINK => WalRecord::InsertLink {
                from: t.u32()?,
                to: t.u32()?,
            },
            TAG_DELETE_LINK => WalRecord::DeleteLink {
                from: t.u32()?,
                to: t.u32()?,
            },
            TAG_INSERT_DOC => WalRecord::InsertDocument {
                doc: t.doc(with_text)?,
                outgoing: t.pairs()?,
                incoming: t.pairs()?,
            },
            TAG_DELETE_DOC => WalRecord::DeleteDocument { doc: t.u32()? },
            TAG_MODIFY_DOC => WalRecord::ModifyDocument {
                doc: t.u32()?,
                new_doc: t.doc(with_text)?,
                outgoing: t.pairs()?,
                incoming: t.pairs()?,
            },
            other => {
                return Err(PersistError::Format(format!(
                    "unknown WAL record tag {other}"
                )))
            }
        };
        t.finish()?;
        Ok(rec)
    }
}

/// CRC-32 (IEEE 802.3, reflected) over a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Table built on first use; the polynomial is the ubiquitous
    // 0xEDB88320 (zlib/gzip), so external tooling can verify frames.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

struct WalInner {
    file: Box<dyn VfsFile>,
    /// Sequence number of the last appended record.
    appended: u64,
    /// Sequence number through which records are known durable.
    durable: u64,
    /// File length in bytes (header + frames).
    bytes: u64,
    /// A group-commit leader is currently fsyncing outside the lock.
    syncing: bool,
}

/// Latency and batching distributions of the log's durability
/// machinery. The *distribution* (not the mean) is what shows whether
/// group commit actually amortizes fsyncs under load.
#[derive(Debug, Default)]
pub struct WalMetrics {
    /// Wall time of each fsync (`sync_data`) the log issued.
    pub fsync: Histogram,
    /// Records made durable per group-commit fsync (the batch size).
    pub batch: Histogram,
}

/// An append-only, checksummed mutation log with group commit. All
/// methods take `&self`; the log is safe to share across threads.
pub struct Wal {
    inner: Mutex<WalInner>,
    synced: Condvar,
    path: PathBuf,
    base_seq: Mutex<u64>,
    metrics: WalMetrics,
    vfs: Arc<dyn Vfs>,
}

fn header(base_seq: u64) -> [u8; 16] {
    let mut h = [0u8; 16];
    h[..4].copy_from_slice(MAGIC);
    h[4..8].copy_from_slice(&VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&base_seq.to_le_bytes());
    h
}

impl Wal {
    /// Creates a fresh, empty log whose first record will carry sequence
    /// `base_seq + 1`, atomically replacing anything at `path`. Every
    /// later syscall on the log goes through `vfs`.
    pub fn create(vfs: Arc<dyn Vfs>, path: &Path, base_seq: u64) -> Result<Wal, PersistError> {
        atomic_write_file(&*vfs, path, &header(base_seq))?;
        let file = vfs.open_append(path)?;
        Ok(Wal {
            inner: Mutex::new(WalInner {
                file,
                appended: base_seq,
                durable: base_seq,
                bytes: HEADER_LEN,
                syncing: false,
            }),
            synced: Condvar::new(),
            path: path.to_path_buf(),
            base_seq: Mutex::new(base_seq),
            metrics: WalMetrics::default(),
            vfs,
        })
    }

    /// Opens an existing log, returning the valid `(seq, record)` tail in
    /// order. A torn or corrupt final frame is truncated away (with an
    /// fsync), never reported as an error — those records were not durable
    /// and so were never acknowledged.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        path: &Path,
    ) -> Result<(Wal, Vec<(u64, WalRecord)>), PersistError> {
        let raw = vfs.read(path)?;
        if raw.len() < HEADER_LEN as usize || !raw.starts_with(MAGIC) {
            return Err(PersistError::Format("not a HOPI WAL file".into()));
        }
        let version = le_u32(&raw, 4)?;
        if version != VERSION && version != VERSION_NO_TEXT {
            return Err(PersistError::Version(version));
        }
        let with_text = version >= VERSION;
        let base_seq = le_u64(&raw, 8)?;

        let mut records = Vec::new();
        let mut pos = HEADER_LEN as usize;
        let mut seq = base_seq;
        while let Some(rest) = raw.get(pos..) {
            if rest.len() < 8 {
                break; // torn frame header (or clean EOF)
            }
            let (Ok(len), Ok(crc)) = (le_u32(rest, 0), le_u32(rest, 4)) else {
                break; // unreachable given the length check, but typed
            };
            let len = len as usize;
            if len == 0 || len > rest.len() - 8 {
                break; // torn payload
            }
            let Some(payload) = rest.get(8..8 + len) else {
                break; // torn payload
            };
            if crc32(payload) != crc {
                break; // corrupt payload
            }
            let Ok(rec) = WalRecord::decode(payload, with_text) else {
                break; // frame intact but payload undecodable: treat as tail
            };
            seq += 1;
            records.push((seq, rec));
            pos += 8 + len;
        }
        if pos != raw.len() {
            // Drop the torn tail on disk so later appends start at a clean
            // record boundary.
            let file = vfs.open_rw(path)?;
            file.set_len(pos as u64)?;
            file.sync_all()?;
        }

        let file = vfs.open_append(path)?;
        Ok((
            Wal {
                inner: Mutex::new(WalInner {
                    file,
                    appended: seq,
                    durable: seq,
                    bytes: pos as u64,
                    syncing: false,
                }),
                synced: Condvar::new(),
                path: path.to_path_buf(),
                base_seq: Mutex::new(base_seq),
                metrics: WalMetrics::default(),
                vfs,
            },
            records,
        ))
    }

    /// The log's fsync-latency and batch-size histograms.
    pub fn metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// The sequence number the current file starts after (= the sequence
    /// of the checkpoint that last rotated it).
    pub fn base_seq(&self) -> u64 {
        *lock_recover(&self.base_seq)
    }

    /// Sequence number of the last appended record.
    pub fn appended_seq(&self) -> u64 {
        lock_recover(&self.inner).appended
    }

    /// Sequence number through which records are fsynced.
    pub fn durable_seq(&self) -> u64 {
        lock_recover(&self.inner).durable
    }

    /// Current file length in bytes.
    pub fn len_bytes(&self) -> u64 {
        lock_recover(&self.inner).bytes
    }

    /// Appends one record and returns its sequence number. Under
    /// [`SyncPolicy::PerOp`] the record is fsynced before returning
    /// (serialized — the baseline); under the other policies it is only
    /// buffered, and [`Wal::commit`] (group commit) or the OS makes it
    /// durable.
    ///
    /// Callers that need WAL order to match apply order (the engine does)
    /// append while holding their own apply lock.
    pub fn append(&self, rec: &WalRecord, policy: SyncPolicy) -> std::io::Result<u64> {
        let payload = rec.encode();
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);

        let mut g = lock_recover(&self.inner);
        // lint: allow(blocking-under-lock): sanctioned — the frame write must happen under Wal.inner so log order is append order; it is buffered, the fsync is elsewhere
        g.file.write_all(&frame)?;
        g.appended += 1;
        g.bytes += frame.len() as u64;
        let seq = g.appended;
        if policy == SyncPolicy::PerOp {
            let advanced = seq.saturating_sub(g.durable);
            let span = Span::enter(&self.metrics.fsync);
            g.file.sync_data()?;
            span.finish();
            g.durable = g.durable.max(seq);
            self.metrics.batch.record_micros(advanced);
        }
        Ok(seq)
    }

    /// Blocks until record `seq` is durable, fsyncing at most once per
    /// batch: the first arriving committer leads and syncs everything
    /// appended so far; committers of records covered by an in-flight or
    /// completed sync just wait for it.
    pub fn commit(&self, seq: u64) -> std::io::Result<()> {
        let mut g = lock_recover(&self.inner);
        loop {
            if g.durable >= seq {
                return Ok(());
            }
            if g.syncing {
                g = self.synced.wait(g).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            // Become the leader: sync everything appended so far, with the
            // lock released so followers keep appending behind us.
            g.syncing = true;
            let target = g.appended;
            let durable_before = g.durable;
            let file = g.file.try_clone()?;
            drop(g);
            let span = Span::enter(&self.metrics.fsync);
            let res = file.sync_data();
            span.finish();
            g = lock_recover(&self.inner);
            g.syncing = false;
            if res.is_ok() {
                g.durable = g.durable.max(target);
                // One fsync just covered this many records — the batch
                // whose distribution shows whether group commit amortizes.
                self.metrics
                    .batch
                    .record_micros(target.saturating_sub(durable_before));
            }
            let done = g.durable >= seq;
            // Notify with the lock released, so woken followers do not
            // immediately collide with it.
            drop(g);
            self.synced.notify_all();
            res?;
            if done {
                return Ok(());
            }
            g = lock_recover(&self.inner);
        }
    }

    /// Rotates the log after a checkpoint at sequence `checkpoint_seq`: a
    /// fresh empty file with that base atomically replaces the current
    /// one. Must not race appends — callers hold their apply lock (the
    /// engine write lock) across checkpoint + rotate.
    ///
    /// All-or-nothing in memory too: the handle to the replacement file
    /// is opened *before* the rename, so an error leaves the old log, its
    /// handle, and every counter untouched — a failed rotate can never
    /// strand later appends on an unlinked inode.
    pub fn rotate(&self, checkpoint_seq: u64) -> Result<(), PersistError> {
        let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
        let tmp_name = format!(
            ".wal.rotate.{}.{}",
            std::process::id(),
            ROTATE_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        );
        let tmp = match dir {
            Some(d) => d.join(&tmp_name),
            None => PathBuf::from(&tmp_name),
        };
        // Build and fsync the replacement *before* taking the inner lock:
        // fsync latency is never paid under a lock (the lock-across-sync
        // lint rule exists for exactly this shape), and readers of the
        // sequence counters stay unblocked during the sync. Callers
        // already serialize rotation against appends via their apply
        // lock, so the pre-built file cannot go stale while we wait.
        let build = || -> std::io::Result<Box<dyn VfsFile>> {
            let mut file = self.vfs.create(&tmp)?;
            file.write_all(&header(checkpoint_seq))?;
            file.sync_all()?;
            Ok(file)
        };
        let built = match build() {
            Ok(f) => f,
            Err(e) => {
                self.vfs.remove_file(&tmp).ok();
                return Err(e.into());
            }
        };
        let mut g = lock_recover(&self.inner);
        if checkpoint_seq != g.appended {
            drop(g);
            self.vfs.remove_file(&tmp).ok();
            return Err(PersistError::Format(format!(
                "rotate at seq {checkpoint_seq} but records are appended past it"
            )));
        }
        // The handle's cursor sits right after the header; appends keep
        // writing sequentially through it after the swap. The rename is
        // the commit point: an error before it leaves the old log, its
        // handle, and every counter untouched — a failed rotate can never
        // strand later appends on an unlinked inode.
        if let Err(e) = self.vfs.rename(&tmp, &self.path) {
            drop(g);
            self.vfs.remove_file(&tmp).ok();
            return Err(e.into());
        }
        g.file = built;
        g.appended = checkpoint_seq;
        g.durable = checkpoint_seq;
        g.bytes = HEADER_LEN;
        drop(g);
        *lock_recover(&self.base_seq) = checkpoint_seq;
        // Make the swap itself durable. If this fails (or we crash before
        // it lands), the *old* log may reappear after a restart — benign:
        // recovery skips its records by sequence number.
        sync_parent_dir(&*self.vfs, &self.path)?;
        Ok(())
    }

    /// Fsyncs the directory holding the log (call once after creating it
    /// so the file's existence itself is durable).
    pub fn sync_dir(&self) -> std::io::Result<()> {
        sync_parent_dir(&*self.vfs, &self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hopi_wal_{name}_{}", std::process::id()))
    }

    fn sample_records() -> Vec<WalRecord> {
        let mut doc = XmlDocument::new("fresh", "r");
        let s = doc.add_element(0, "sec");
        doc.set_anchor("s", s);
        doc.add_intra_link(s, 0);
        doc.set_text(s, "two hop cover");
        vec![
            WalRecord::InsertLink { from: 3, to: 9 },
            WalRecord::InsertDocument {
                doc: doc.clone(),
                outgoing: vec![(1, 4)],
                incoming: vec![(2, 0)],
            },
            WalRecord::DeleteLink { from: 3, to: 9 },
            WalRecord::ModifyDocument {
                doc: 2,
                new_doc: doc,
                outgoing: vec![],
                incoming: vec![(0, 1)],
            },
            WalRecord::DeleteDocument { doc: 1 },
        ]
    }

    #[test]
    fn fsync_and_batch_histograms_track_durability() {
        let path = tmp("metrics");
        let wal = Wal::create(StdVfs::arc(), &path, 0).unwrap();
        // Per-op: every append fsyncs a batch of exactly one record.
        for rec in sample_records().iter().take(2) {
            wal.append(rec, SyncPolicy::PerOp).unwrap();
        }
        let fsync = wal.metrics().fsync.snapshot();
        let batch = wal.metrics().batch.snapshot();
        assert_eq!(fsync.count(), 2);
        assert_eq!(batch.count(), 2);
        assert_eq!(batch.quantile_micros(1.0), 1);
        // Group commit: three buffered appends covered by one commit —
        // a single fsync whose batch is all three records.
        for rec in sample_records().iter().take(3) {
            wal.append(rec, SyncPolicy::GroupCommit).unwrap();
        }
        wal.commit(wal.appended_seq()).unwrap();
        let fsync = wal.metrics().fsync.snapshot();
        let batch = wal.metrics().batch.snapshot();
        assert_eq!(fsync.count(), 3);
        assert_eq!(batch.count(), 3);
        assert_eq!(batch.quantile_micros(1.0), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_roundtrip() {
        for rec in sample_records() {
            let payload = rec.encode();
            assert_eq!(WalRecord::decode(&payload, true).unwrap(), rec);
        }
    }

    #[test]
    fn crc32_known_value() {
        // The zlib polynomial's canonical check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let path = tmp("replay");
        let wal = Wal::create(StdVfs::arc(), &path, 0).unwrap();
        for rec in sample_records() {
            wal.append(&rec, SyncPolicy::PerOp).unwrap();
        }
        assert_eq!(wal.appended_seq(), 5);
        drop(wal);
        let (wal, records) = Wal::open(StdVfs::arc(), &path).unwrap();
        assert_eq!(wal.appended_seq(), 5);
        assert_eq!(wal.durable_seq(), 5);
        let seqs: Vec<u64> = records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5]);
        let recs: Vec<WalRecord> = records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(recs, sample_records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut() {
        let path = tmp("torn");
        let wal = Wal::create(StdVfs::arc(), &path, 0).unwrap();
        for rec in sample_records() {
            wal.append(&rec, SyncPolicy::Never).unwrap();
        }
        wal.commit(wal.appended_seq()).unwrap();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        // Record boundaries, for asserting the recovered prefix length.
        let mut boundaries = vec![HEADER_LEN as usize];
        let mut pos = HEADER_LEN as usize;
        while pos < full.len() {
            let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 8 + len;
            boundaries.push(pos);
        }
        for cut in HEADER_LEN as usize..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (wal, records) = Wal::open(StdVfs::arc(), &path).expect("torn tail must not error");
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(records.len(), complete, "cut at {cut}");
            assert_eq!(wal.appended_seq(), complete as u64);
            // The torn bytes are gone from disk.
            assert_eq!(
                std::fs::metadata(&path).unwrap().len() as usize,
                boundaries[complete]
            );
            drop(wal);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_payload_ends_the_tail() {
        let path = tmp("corrupt");
        let wal = Wal::create(StdVfs::arc(), &path, 0).unwrap();
        for rec in sample_records() {
            wal.append(&rec, SyncPolicy::PerOp).unwrap();
        }
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte of record 2 (frames start after the
        // header; record 1 is InsertLink with a 9-byte payload).
        let rec2_payload = HEADER_LEN as usize + 8 + 9 + 8 + 3;
        bytes[rec2_payload] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, records) = Wal::open(StdVfs::arc(), &path).unwrap();
        assert_eq!(records.len(), 1, "only the record before the corruption");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rotate_resets_base_and_drops_records() {
        let path = tmp("rotate");
        let wal = Wal::create(StdVfs::arc(), &path, 0).unwrap();
        for rec in sample_records() {
            wal.append(&rec, SyncPolicy::PerOp).unwrap();
        }
        wal.rotate(5).unwrap();
        assert_eq!(wal.base_seq(), 5);
        assert_eq!(wal.len_bytes(), HEADER_LEN);
        wal.append(&WalRecord::DeleteDocument { doc: 0 }, SyncPolicy::PerOp)
            .unwrap();
        drop(wal);
        let (wal, records) = Wal::open(StdVfs::arc(), &path).unwrap();
        assert_eq!(wal.base_seq(), 5);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0, 6);
        // Rotating at the wrong sequence is refused.
        assert!(wal.rotate(99).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_is_shared_across_threads() {
        let path = tmp("group");
        let wal = std::sync::Arc::new(Wal::create(StdVfs::arc(), &path, 0).unwrap());
        let n_threads = 8;
        let per_thread = 25;
        std::thread::scope(|scope| {
            for t in 0..n_threads {
                let wal = wal.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let seq = wal
                            .append(
                                &WalRecord::InsertLink {
                                    from: t,
                                    to: i as u32,
                                },
                                SyncPolicy::GroupCommit,
                            )
                            .unwrap();
                        wal.commit(seq).unwrap();
                        assert!(wal.durable_seq() >= seq);
                    }
                });
            }
        });
        assert_eq!(wal.appended_seq(), (n_threads as usize * per_thread) as u64);
        assert_eq!(wal.durable_seq(), wal.appended_seq());
        drop(wal);
        let (_, records) = Wal::open(StdVfs::arc(), &path).unwrap();
        assert_eq!(records.len(), n_threads as usize * per_thread);
        std::fs::remove_file(&path).ok();
    }
}

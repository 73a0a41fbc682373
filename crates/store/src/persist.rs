//! Binary persistence of the LIN/LOUT tables and of frozen CSR covers.
//!
//! Row format (little-endian; written by [`save_store`]):
//!
//! ```text
//! magic   4 bytes  "HOPI"
//! version u32      4 (3, 2 and 1 accepted on load)
//! flags   u32      bit 0: DIST column present; bit 1 clear (row layout);
//!                  bit 3: BASELINE section present
//! baseline 2 × u64 only when flags bit 3 is set (see below)
//! lin_len u64      row count of LIN
//! lout_len u64     row count of LOUT
//! rows             (id: u32, other: u32 [, dist: u32]) × (lin_len + lout_len)
//! ```
//!
//! The baseline section (introduced in version 4) is a [`CoverBaseline`]:
//! the cover's entry count and the collection's live element count right
//! after the build the saved cover was maintained from, `entries` then
//! `live_elements`. It lets a reopened engine keep measuring drift against
//! that build rather than against whatever it opened.
//!
//! Frozen format (introduced in version 2; written by [`save_frozen`],
//! flags bit 1 set): the same 12-byte `magic`/`version`/`flags` prefix and
//! optional baseline section, followed by one length-prefixed CSR blob —
//!
//! ```text
//! n        u64     node slots
//! data_len u64     label entries (|Lin| + |Lout|)
//! lin_off  u32 × (n + 1)   absolute offsets into data (lin_off[0] = 0)
//! lout_off u32 × (n + 1)   absolute offsets (lout_off[n] = data_len)
//! data     u32 × data_len  label centers, rows sorted
//! dist     u32 × data_len  only when flags bit 0 (DIST) is set
//! ```
//!
//! Backward/inverted indexes are rebuilt on load in both formats — they
//! are derived data, and rebuilding keeps the file at half the in-memory
//! footprint (mirroring the paper's observation that the backward index
//! doubles the stored size). Loading a frozen blob never sorts: rows are
//! stored sorted and the inverted sections are reconstructed by counting,
//! so [`load_frozen`] is ready to serve straight away.

use crate::engine::LinLoutStore;
use crate::table::{IndexOrganizedTable, Row};
use crate::vfs::Vfs;
use hopi_core::FrozenCover;
use std::path::Path;

/// Little-endian read cursor over a byte buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn copy_to_slice(&mut self, out: &mut [u8]) {
        out.copy_from_slice(&self.buf[self.pos..self.pos + out.len()]);
        self.pos += out.len();
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }
}

const MAGIC: &[u8; 4] = b"HOPI";
const VERSION: u32 = 4;
/// The on-disk format version currently written (`hopi_build_info`'s
/// `store_format` label at `/metrics` reports this).
pub const STORE_FORMAT_VERSION: u32 = VERSION;
/// The last version whose checkpoint collection blobs carry no element
/// text section (still loadable; text decodes as empty).
const VERSION_NO_TEXT: u32 = 2;
/// The last version writing the row layout only (still loadable).
const VERSION_ROWS_ONLY: u32 = 1;
/// Flags bit 0: DIST column present.
const FLAG_DIST: u32 = 1;
/// Flags bit 1: the payload is a frozen CSR blob, not rows.
const FLAG_FROZEN: u32 = 2;
/// Flags bit 2: the file is a checkpoint (collection + frozen cover +
/// WAL sequence number; see [`save_checkpoint`]).
const FLAG_CHECKPOINT: u32 = 4;
/// Flags bit 3: a [`CoverBaseline`] section follows the header.
const FLAG_BASELINE: u32 = 8;

/// Is `version` readable by this build, for a layout introduced in
/// version `first`?
fn readable(version: u32, first: u32) -> bool {
    (first..=VERSION).contains(&version)
}

/// The yardstick a saved cover's drift is measured against: its entry
/// count and the collection's live element count right after the build
/// (or rebuild) it was maintained from — `hopi_maintenance::BuildBaseline`
/// on disk. Files of version 3 and older carry none.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoverBaseline {
    /// Cover entries right after the build.
    pub entries: u64,
    /// Live elements at the build.
    pub live_elements: u64,
}

/// The flags bit announcing `baseline`'s section.
fn baseline_flag(baseline: Option<CoverBaseline>) -> u32 {
    if baseline.is_some() {
        FLAG_BASELINE
    } else {
        0
    }
}

/// Appends the baseline section, if there is one.
fn encode_baseline(baseline: Option<CoverBaseline>, buf: &mut Vec<u8>) {
    if let Some(b) = baseline {
        buf.extend_from_slice(&b.entries.to_le_bytes());
        buf.extend_from_slice(&b.live_elements.to_le_bytes());
    }
}

/// Reads the baseline section when `flags` announces one.
fn decode_baseline(
    buf: &mut Cursor<'_>,
    flags: u32,
) -> Result<Option<CoverBaseline>, PersistError> {
    if flags & FLAG_BASELINE == 0 {
        return Ok(None);
    }
    if buf.remaining() < 16 {
        return Err(PersistError::Format("truncated baseline section".into()));
    }
    Ok(Some(CoverBaseline {
        entries: buf.get_u64_le(),
        live_elements: buf.get_u64_le(),
    }))
}

/// Writes `bytes` to `path` crash-atomically: the bytes go to a temporary
/// file in the same directory, are fsynced, renamed over the target, and
/// the directory is fsynced — at every instant `path` holds either the
/// old complete file or the new complete file, never a torn mix.
/// Every step (temp write, fsync, rename, directory fsync) goes through
/// `vfs`, so fault injection covers all of them.
pub fn atomic_write_file(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    // Unique per call, not just per process: two threads writing the same
    // target concurrently must not truncate each other's temp file.
    static WRITE_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("hopi-file");
    let tmp_name = format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        WRITE_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    );
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };
    let install = || -> std::io::Result<()> {
        let mut file = vfs.create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        vfs.rename(&tmp, path)
    };
    if let Err(e) = install() {
        // Leave nothing behind on failure (e.g. ENOSPC mid-write).
        vfs.remove_file(&tmp).ok();
        return Err(e);
    }
    sync_parent_dir(vfs, path)
}

/// Fsyncs the directory containing `path`, making a just-completed rename
/// or create durable. A no-op error-swallow is deliberate on platforms
/// where directories cannot be opened for sync.
pub fn sync_parent_dir(vfs: &dyn Vfs, path: &Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    vfs.sync_dir(dir)
}

/// Errors raised by save/load.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a HOPI store file, or truncated.
    Format(String),
    /// Unsupported version.
    Version(u32),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Format(m) => write!(f, "format error: {m}"),
            PersistError::Version(v) => write!(f, "unsupported version {v}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// Serializes a store to `path`, with the build baseline its cover was
/// maintained from when there is one.
pub fn save_store(
    vfs: &dyn Vfs,
    store: &LinLoutStore,
    path: &Path,
    baseline: Option<CoverBaseline>,
) -> Result<(), PersistError> {
    let with_dist = store.lin().with_dist() || store.lout().with_dist();
    let per_row = if with_dist { 12 } else { 8 };
    let flags = u32::from(with_dist) | baseline_flag(baseline);
    let mut buf: Vec<u8> = Vec::with_capacity(44 + per_row * store.entry_count());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&flags.to_le_bytes());
    encode_baseline(baseline, &mut buf);
    buf.extend_from_slice(&(store.lin().len() as u64).to_le_bytes());
    buf.extend_from_slice(&(store.lout().len() as u64).to_le_bytes());
    for table in [store.lin(), store.lout()] {
        for r in table.rows() {
            buf.extend_from_slice(&r.id.to_le_bytes());
            buf.extend_from_slice(&r.other.to_le_bytes());
            if with_dist {
                buf.extend_from_slice(&r.dist.to_le_bytes());
            }
        }
    }
    atomic_write_file(vfs, path, &buf)?;
    Ok(())
}

/// A loaded index file: either the LIN/LOUT row tables or a frozen CSR
/// cover (see [`load_index`]).
pub enum StoredIndex {
    /// Row layout ([`save_store`]).
    Rows(LinLoutStore),
    /// Frozen CSR layout ([`save_frozen`]).
    Frozen(FrozenCover),
}

/// Loads either index layout, detecting the format from the header, with
/// the build baseline saved beside it (if any). Use this when the caller
/// accepts both layouts (e.g. `Hopi::open`).
pub fn load_index(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<(StoredIndex, Option<CoverBaseline>), PersistError> {
    let raw = vfs.read(path)?;
    if raw.len() >= 12 && &raw[..4] == MAGIC {
        let flags = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]);
        if flags & FLAG_CHECKPOINT != 0 {
            return Err(PersistError::Format(
                "file is a durable checkpoint; load it with load_checkpoint".into(),
            ));
        }
        if flags & FLAG_FROZEN != 0 {
            let (frozen, baseline) = decode_frozen(&raw)?;
            return Ok((StoredIndex::Frozen(frozen), baseline));
        }
    }
    let (store, baseline) = decode_store(&raw)?;
    Ok((StoredIndex::Rows(store), baseline))
}

/// Loads a store from `path`, rebuilding the backward indexes.
pub fn load_store(vfs: &dyn Vfs, path: &Path) -> Result<LinLoutStore, PersistError> {
    decode_store(&vfs.read(path)?).map(|(store, _)| store)
}

fn decode_store(raw: &[u8]) -> Result<(LinLoutStore, Option<CoverBaseline>), PersistError> {
    let mut buf = Cursor::new(raw);
    if buf.remaining() < 28 {
        return Err(PersistError::Format("truncated header".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::Format("bad magic".into()));
    }
    let version = buf.get_u32_le();
    if !readable(version, VERSION_ROWS_ONLY) {
        return Err(PersistError::Version(version));
    }
    let flags = buf.get_u32_le();
    if flags & FLAG_CHECKPOINT != 0 {
        return Err(PersistError::Format(
            "file is a durable checkpoint; load it with load_checkpoint".into(),
        ));
    }
    if flags & FLAG_FROZEN != 0 {
        return Err(PersistError::Format(
            "file holds a frozen CSR cover; load it with load_frozen / load_index".into(),
        ));
    }
    let with_dist = flags & FLAG_DIST != 0;
    let baseline = decode_baseline(&mut buf, flags)?;
    if buf.remaining() < 16 {
        return Err(PersistError::Format("truncated header".into()));
    }
    let lin_len = buf.get_u64_le() as usize;
    let lout_len = buf.get_u64_le() as usize;
    let per_row = if with_dist { 12 } else { 8 };
    let expected = lin_len
        .checked_add(lout_len)
        .and_then(|rows| rows.checked_mul(per_row))
        .ok_or_else(|| PersistError::Format("row count overflows".into()))?;
    if buf.remaining() != expected {
        return Err(PersistError::Format(format!(
            "expected {expected} row bytes, found {}",
            buf.remaining()
        )));
    }
    let read_rows = |n: usize, buf: &mut Cursor<'_>| -> Vec<Row> {
        (0..n)
            .map(|_| Row {
                id: buf.get_u32_le(),
                other: buf.get_u32_le(),
                dist: if with_dist { buf.get_u32_le() } else { 0 },
            })
            .collect()
    };
    let lin_rows = read_rows(lin_len, &mut buf);
    let lout_rows = read_rows(lout_len, &mut buf);
    let store = LinLoutStore::from_tables(
        IndexOrganizedTable::new(lin_rows, with_dist),
        IndexOrganizedTable::new(lout_rows, with_dist),
    );
    Ok((store, baseline))
}

/// Serializes a frozen cover to `path` as a single length-prefixed CSR
/// blob (header flags bit 1 set; bit 0 when distance annotations are
/// stored), with the build baseline it was maintained from when there is
/// one. Loading it back with [`load_frozen`] involves no sorting.
pub fn save_frozen(
    vfs: &dyn Vfs,
    frozen: &FrozenCover,
    path: &Path,
    baseline: Option<CoverBaseline>,
) -> Result<(), PersistError> {
    let dists = frozen.label_dists();
    let flags = FLAG_FROZEN | if dists.is_some() { FLAG_DIST } else { 0 } | baseline_flag(baseline);
    let mut buf: Vec<u8> = Vec::with_capacity(44);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&flags.to_le_bytes());
    encode_baseline(baseline, &mut buf);
    encode_frozen_payload(frozen, &mut buf);
    atomic_write_file(vfs, path, &buf)?;
    Ok(())
}

/// Appends the frozen cover's CSR payload (`n`, `data_len`, offset tables,
/// data, optional dist column) to `buf` — the section shared by frozen
/// index files and checkpoints.
fn encode_frozen_payload(frozen: &FrozenCover, buf: &mut Vec<u8>) {
    let n = frozen.num_nodes();
    let data = frozen.label_data();
    let dists = frozen.label_dists();
    let words = 2 * (n + 1) + data.len() * if dists.is_some() { 2 } else { 1 };
    buf.reserve(16 + 4 * words);
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
    for section in [frozen.lin_offsets(), frozen.lout_offsets()] {
        for &off in section {
            buf.extend_from_slice(&off.to_le_bytes());
        }
    }
    for &c in data {
        buf.extend_from_slice(&c.to_le_bytes());
    }
    for &d in dists.unwrap_or(&[]) {
        buf.extend_from_slice(&d.to_le_bytes());
    }
}

/// Loads a frozen cover persisted with [`save_frozen`], rebuilding the
/// inverted sections by counting (no sorting anywhere on the load path).
pub fn load_frozen(vfs: &dyn Vfs, path: &Path) -> Result<FrozenCover, PersistError> {
    decode_frozen(&vfs.read(path)?).map(|(frozen, _)| frozen)
}

fn decode_frozen(raw: &[u8]) -> Result<(FrozenCover, Option<CoverBaseline>), PersistError> {
    let mut buf = Cursor::new(raw);
    if buf.remaining() < 28 {
        return Err(PersistError::Format("truncated header".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::Format("bad magic".into()));
    }
    let version = buf.get_u32_le();
    if !readable(version, VERSION_NO_TEXT) {
        return Err(PersistError::Version(version));
    }
    let flags = buf.get_u32_le();
    if flags & FLAG_CHECKPOINT != 0 {
        return Err(PersistError::Format(
            "file is a durable checkpoint; load it with load_checkpoint".into(),
        ));
    }
    if flags & FLAG_FROZEN == 0 {
        return Err(PersistError::Format(
            "file holds LIN/LOUT rows; load it with load_store / load_index".into(),
        ));
    }
    let baseline = decode_baseline(&mut buf, flags)?;
    let frozen = decode_frozen_payload(&mut buf, flags & FLAG_DIST != 0)?;
    Ok((frozen, baseline))
}

/// Reads the frozen CSR payload section, which must consume the rest of
/// the buffer exactly.
fn decode_frozen_payload(
    buf: &mut Cursor<'_>,
    with_dist: bool,
) -> Result<FrozenCover, PersistError> {
    if buf.remaining() < 16 {
        return Err(PersistError::Format("truncated CSR section".into()));
    }
    let n = buf.get_u64_le() as usize;
    let data_len = buf.get_u64_le() as usize;
    let dist_words = if with_dist { data_len } else { 0 };
    let expected = n
        .checked_add(1)
        .and_then(|o| o.checked_mul(2))
        .and_then(|o| o.checked_add(data_len))
        .and_then(|w| w.checked_add(dist_words))
        .and_then(|w| w.checked_mul(4))
        .ok_or_else(|| PersistError::Format("section sizes overflow".into()))?;
    if buf.remaining() != expected {
        return Err(PersistError::Format(format!(
            "expected {expected} payload bytes, found {}",
            buf.remaining()
        )));
    }
    let read_words =
        |k: usize, buf: &mut Cursor<'_>| -> Vec<u32> { (0..k).map(|_| buf.get_u32_le()).collect() };
    let lin_off = read_words(n + 1, buf);
    let lout_off = read_words(n + 1, buf);
    let data = read_words(data_len, buf);
    let dist = with_dist.then(|| read_words(data_len, buf));
    FrozenCover::from_label_csr(lin_off, lout_off, data, dist)
        .map_err(|e| PersistError::Format(format!("invalid CSR blob: {e}")))
}

/// A loaded durable checkpoint: the collection and frozen cover as of WAL
/// sequence number [`Checkpoint::seq`]. Recovery replays the WAL records
/// with sequence numbers greater than `seq` on top of this state.
pub struct Checkpoint {
    /// The collection at checkpoint time (ids reconstructed exactly,
    /// tombstones included).
    pub collection: hopi_xml::Collection,
    /// The cover at checkpoint time, in the frozen serving layout
    /// (distance-annotated when the engine was distance-aware).
    pub frozen: FrozenCover,
    /// WAL sequence number covered by this checkpoint.
    pub seq: u64,
    /// The build baseline the cover was maintained from, when the
    /// checkpoint carries one (version 4 and later).
    pub baseline: Option<CoverBaseline>,
}

/// Persists a checkpoint crash-atomically (temp file + fsync + rename +
/// directory fsync): collection, frozen cover, and the WAL sequence
/// number the pair is consistent with, in one file — a crash can never
/// leave a collection from one checkpoint next to an index from another.
///
/// ```text
/// magic    4 bytes  "HOPI"
/// version  u32      4 (3 and 2 accepted on load; 2: collection blob has no text)
/// flags    u32      bit 2 (CHECKPOINT) | bit 1 (FROZEN) [| bit 0 DIST] [| bit 3 BASELINE]
/// seq      u64      WAL sequence number covered
/// baseline 2 × u64  only when flags bit 3 is set (see the module docs)
/// coll_len u64      collection blob length
/// coll     bytes    hopi_xml::codec::encode_collection
/// csr      …        frozen CSR payload (same section as save_frozen)
/// ```
pub fn save_checkpoint(
    vfs: &dyn Vfs,
    path: &Path,
    collection: &hopi_xml::Collection,
    frozen: &FrozenCover,
    seq: u64,
    baseline: Option<CoverBaseline>,
) -> Result<(), PersistError> {
    let coll = hopi_xml::codec::encode_collection(collection);
    let flags = FLAG_CHECKPOINT
        | FLAG_FROZEN
        | if frozen.label_dists().is_some() {
            FLAG_DIST
        } else {
            0
        }
        | baseline_flag(baseline);
    let mut buf: Vec<u8> = Vec::with_capacity(44 + coll.len());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&flags.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    encode_baseline(baseline, &mut buf);
    buf.extend_from_slice(&(coll.len() as u64).to_le_bytes());
    buf.extend_from_slice(&coll);
    encode_frozen_payload(frozen, &mut buf);
    atomic_write_file(vfs, path, &buf)?;
    Ok(())
}

/// Loads a checkpoint written by [`save_checkpoint`].
pub fn load_checkpoint(vfs: &dyn Vfs, path: &Path) -> Result<Checkpoint, PersistError> {
    let raw = vfs.read(path)?;
    let mut buf = Cursor::new(&raw);
    if buf.remaining() < 28 {
        return Err(PersistError::Format("truncated checkpoint header".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(PersistError::Format("bad magic".into()));
    }
    let version = buf.get_u32_le();
    if !readable(version, VERSION_NO_TEXT) {
        return Err(PersistError::Version(version));
    }
    let flags = buf.get_u32_le();
    if flags & FLAG_CHECKPOINT == 0 {
        return Err(PersistError::Format(
            "file is not a checkpoint; load it with load_index".into(),
        ));
    }
    let seq = buf.get_u64_le();
    let baseline = decode_baseline(&mut buf, flags)?;
    if buf.remaining() < 8 {
        return Err(PersistError::Format("truncated checkpoint header".into()));
    }
    let coll_len = buf.get_u64_le() as usize;
    if buf.remaining() < coll_len {
        return Err(PersistError::Format(format!(
            "collection blob of {coll_len} bytes exceeds file"
        )));
    }
    let mut coll_bytes = vec![0u8; coll_len];
    buf.copy_to_slice(&mut coll_bytes);
    // Pre-text checkpoints (version 2) carry collection blobs without the
    // element-text section; text decodes as empty there.
    let collection =
        hopi_xml::codec::decode_collection_versioned(&coll_bytes, version > VERSION_NO_TEXT)
            .map_err(|e| PersistError::Format(e.to_string()))?;
    let frozen = decode_frozen_payload(&mut buf, flags & FLAG_DIST != 0)?;
    Ok(Checkpoint {
        collection,
        frozen,
        seq,
        baseline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;
    use hopi_core::{CoverBuilder, DistanceCoverBuilder};
    use hopi_graph::{DiGraph, DistanceClosure, TransitiveClosure};

    fn sample_graph() -> DiGraph {
        let mut g = DiGraph::new();
        for (u, v) in [(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)] {
            g.add_edge(u, v);
        }
        g
    }

    #[test]
    fn roundtrip_plain() {
        let g = sample_graph();
        let tc = TransitiveClosure::from_graph(&g);
        let cover = CoverBuilder::new(&tc).build();
        let store = LinLoutStore::from_cover(&cover);
        let dir = std::env::temp_dir().join("hopi_persist_plain.idx");
        save_store(&StdVfs, &store, &dir, None).unwrap();
        let loaded = load_store(&StdVfs, &dir).unwrap();
        assert_eq!(loaded.entry_count(), store.entry_count());
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(loaded.connected(u, v), store.connected(u, v));
            }
        }
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn roundtrip_distance() {
        let g = sample_graph();
        let dc = DistanceClosure::from_graph(&g);
        let cover = DistanceCoverBuilder::new(&dc).build();
        let store = LinLoutStore::from_distance_cover(&cover);
        let dir = std::env::temp_dir().join("hopi_persist_dist.idx");
        save_store(&StdVfs, &store, &dir, None).unwrap();
        let loaded = load_store(&StdVfs, &dir).unwrap();
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(loaded.distance(u, v), store.distance(u, v));
            }
        }
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn roundtrip_frozen() {
        let g = sample_graph();
        let tc = TransitiveClosure::from_graph(&g);
        let cover = CoverBuilder::new(&tc).build();
        let frozen = FrozenCover::from_cover(&cover);
        let dir = std::env::temp_dir().join("hopi_persist_frozen.idx");
        save_frozen(&StdVfs, &frozen, &dir, None).unwrap();
        let loaded = load_frozen(&StdVfs, &dir).unwrap();
        assert_eq!(loaded.size(), frozen.size());
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(loaded.connected(u, v), cover.connected(u, v), "({u},{v})");
            }
            assert_eq!(loaded.descendants(u), cover.descendants(u));
        }
        // Auto-detection picks the frozen branch.
        assert!(matches!(
            load_index(&StdVfs, &dir),
            Ok((StoredIndex::Frozen(_), None))
        ));
        // The row loader refuses it with a pointer to the right entry.
        assert!(matches!(
            load_store(&StdVfs, &dir),
            Err(PersistError::Format(_))
        ));
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn roundtrip_frozen_distance() {
        let g = sample_graph();
        let dc = DistanceClosure::from_graph(&g);
        let cover = DistanceCoverBuilder::new(&dc).build();
        let frozen = FrozenCover::from_distance_cover(&cover);
        let dir = std::env::temp_dir().join("hopi_persist_frozen_dist.idx");
        save_frozen(&StdVfs, &frozen, &dir, None).unwrap();
        let loaded = load_frozen(&StdVfs, &dir).unwrap();
        assert!(loaded.with_dist());
        for u in 0..5 {
            for v in 0..5 {
                assert_eq!(loaded.distance(u, v), cover.distance(u, v), "({u},{v})");
            }
        }
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn frozen_loader_rejects_row_files_and_truncation() {
        let g = sample_graph();
        let tc = TransitiveClosure::from_graph(&g);
        let cover = CoverBuilder::new(&tc).build();
        let dir = std::env::temp_dir().join("hopi_persist_frozen_neg.idx");
        save_store(&StdVfs, &LinLoutStore::from_cover(&cover), &dir, None).unwrap();
        assert!(matches!(
            load_frozen(&StdVfs, &dir),
            Err(PersistError::Format(_))
        ));
        assert!(matches!(
            load_index(&StdVfs, &dir),
            Ok((StoredIndex::Rows(_), None))
        ));
        save_frozen(&StdVfs, &FrozenCover::from_cover(&cover), &dir, None).unwrap();
        let bytes = std::fs::read(&dir).unwrap();
        std::fs::write(&dir, &bytes[..bytes.len() - 5]).unwrap();
        assert!(load_frozen(&StdVfs, &dir).is_err());
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn loads_version1_row_files() {
        // Files written before the frozen format (version 1) keep loading.
        let g = sample_graph();
        let tc = TransitiveClosure::from_graph(&g);
        let cover = CoverBuilder::new(&tc).build();
        let store = LinLoutStore::from_cover(&cover);
        let dir = std::env::temp_dir().join("hopi_persist_v1.idx");
        save_store(&StdVfs, &store, &dir, None).unwrap();
        let mut bytes = std::fs::read(&dir).unwrap();
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes()); // rewrite version
        std::fs::write(&dir, &bytes).unwrap();
        let loaded = load_store(&StdVfs, &dir).unwrap();
        assert_eq!(loaded.entry_count(), store.entry_count());
        assert!(matches!(
            load_index(&StdVfs, &dir),
            Ok((StoredIndex::Rows(_), None))
        ));
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn checkpoint_roundtrip_and_type_confusion() {
        use hopi_xml::{Collection, XmlDocument};
        let mut c = Collection::new();
        let mut d = XmlDocument::new("a", "r");
        d.add_element(0, "s");
        c.add_document(d);
        c.add_document(XmlDocument::new("b", "r"));
        c.add_link(1, 2);
        let ghost = c.add_document(XmlDocument::new("ghost", "r"));
        c.remove_document(ghost);
        let tc = TransitiveClosure::from_graph(&c.element_graph());
        let cover = CoverBuilder::new(&tc).build();
        let frozen = FrozenCover::from_cover(&cover);
        let path = std::env::temp_dir().join("hopi_persist_ckpt.idx");
        save_checkpoint(&StdVfs, &path, &c, &frozen, 42, None).unwrap();
        let ckpt = load_checkpoint(&StdVfs, &path).unwrap();
        assert_eq!(ckpt.seq, 42);
        assert_eq!(ckpt.baseline, None);
        assert_eq!(ckpt.collection.doc_id_bound(), c.doc_id_bound());
        assert_eq!(ckpt.collection.elem_id_bound(), c.elem_id_bound());
        assert_eq!(ckpt.collection.links(), c.links());
        assert_eq!(ckpt.frozen.size(), frozen.size());
        assert!(ckpt.frozen.connected(0, 2));
        // Every other loader refuses a checkpoint with a pointer to the
        // right entry, and vice versa.
        assert!(matches!(
            load_index(&StdVfs, &path),
            Err(PersistError::Format(_))
        ));
        assert!(matches!(
            load_store(&StdVfs, &path),
            Err(PersistError::Format(_))
        ));
        assert!(matches!(
            load_frozen(&StdVfs, &path),
            Err(PersistError::Format(_))
        ));
        save_frozen(&StdVfs, &frozen, &path, None).unwrap();
        assert!(matches!(
            load_checkpoint(&StdVfs, &path),
            Err(PersistError::Format(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn loads_version3_checkpoints_with_text() {
        // A version 3 checkpoint is a version 4 one without the baseline
        // section, and its collection blob carries element text.
        use hopi_xml::{Collection, XmlDocument};
        let mut d = XmlDocument::new("a", "r");
        let s = d.add_element(0, "s");
        d.set_text(s, "kept");
        let mut c = Collection::new();
        c.add_document(d);
        let cover = CoverBuilder::new(&TransitiveClosure::from_graph(&c.element_graph())).build();
        let path = std::env::temp_dir().join(format!("hopi_persist_v3_{}", std::process::id()));
        save_checkpoint(
            &StdVfs,
            &path,
            &c,
            &FrozenCover::from_cover(&cover),
            9,
            None,
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let ckpt = load_checkpoint(&StdVfs, &path).unwrap();
        assert_eq!((ckpt.seq, ckpt.baseline), (9, None));
        assert_eq!(ckpt.collection.document(0).unwrap().text(s), "kept");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn baseline_round_trips_in_every_layout() {
        use hopi_xml::{Collection, XmlDocument};
        let cover = CoverBuilder::new(&TransitiveClosure::from_graph(&sample_graph())).build();
        let frozen = FrozenCover::from_cover(&cover);
        let baseline = Some(CoverBaseline {
            entries: 7,
            live_elements: 5,
        });
        let path = std::env::temp_dir().join(format!("hopi_persist_base_{}", std::process::id()));
        // Cuts into the baseline section must fail cleanly, not panic.
        let truncated_at = |cut: usize| {
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..cut]).unwrap();
        };

        save_store(&StdVfs, &LinLoutStore::from_cover(&cover), &path, baseline).unwrap();
        let (stored, loaded) = load_index(&StdVfs, &path).unwrap();
        assert!(matches!(stored, StoredIndex::Rows(_)));
        assert_eq!(loaded, baseline);
        assert_eq!(
            load_store(&StdVfs, &path).unwrap().entry_count(),
            cover.size()
        );
        truncated_at(30);
        assert!(matches!(
            load_store(&StdVfs, &path),
            Err(PersistError::Format(_))
        ));

        save_frozen(&StdVfs, &frozen, &path, baseline).unwrap();
        let (stored, loaded) = load_index(&StdVfs, &path).unwrap();
        assert!(matches!(stored, StoredIndex::Frozen(_)));
        assert_eq!(loaded, baseline);
        assert_eq!(load_frozen(&StdVfs, &path).unwrap().size(), frozen.size());
        truncated_at(30);
        assert!(matches!(
            load_frozen(&StdVfs, &path),
            Err(PersistError::Format(_))
        ));

        let mut c = Collection::new();
        c.add_document(XmlDocument::new("a", "r"));
        save_checkpoint(&StdVfs, &path, &c, &frozen, 3, baseline).unwrap();
        let ckpt = load_checkpoint(&StdVfs, &path).unwrap();
        assert_eq!((ckpt.seq, ckpt.baseline), (3, baseline));
        assert_eq!(ckpt.frozen.size(), frozen.size());
        for cut in [30, 36] {
            save_checkpoint(&StdVfs, &path, &c, &frozen, 3, baseline).unwrap();
            truncated_at(cut);
            assert!(matches!(
                load_checkpoint(&StdVfs, &path),
                Err(PersistError::Format(_))
            ));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("hopi_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("file.bin");
        atomic_write_file(&StdVfs, &target, b"first").unwrap();
        atomic_write_file(&StdVfs, &target, b"second").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second");
        let stray = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(stray, 1, "temp files must not survive a write");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_garbage() {
        let dir = std::env::temp_dir().join("hopi_persist_garbage.idx");
        std::fs::write(&dir, b"not a hopi file at all........").unwrap();
        assert!(matches!(
            load_store(&StdVfs, &dir),
            Err(PersistError::Format(_))
        ));
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn rejects_truncation() {
        let g = sample_graph();
        let tc = TransitiveClosure::from_graph(&g);
        let cover = CoverBuilder::new(&tc).build();
        let store = LinLoutStore::from_cover(&cover);
        let dir = std::env::temp_dir().join("hopi_persist_trunc.idx");
        save_store(&StdVfs, &store, &dir, None).unwrap();
        let bytes = std::fs::read(&dir).unwrap();
        std::fs::write(&dir, &bytes[..bytes.len() - 3]).unwrap();
        assert!(load_store(&StdVfs, &dir).is_err());
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn rejects_overflowing_row_counts() {
        // Row counts whose byte size wraps usize must fail cleanly, not
        // panic on an out-of-bounds read.
        let dir = std::env::temp_dir().join("hopi_persist_overflow.idx");
        let mut buf = Vec::new();
        buf.extend_from_slice(b"HOPI");
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // no DIST
        buf.extend_from_slice(&(1u64 << 61).to_le_bytes()); // lin_len
        buf.extend_from_slice(&(1u64 << 61).to_le_bytes()); // lout_len
        std::fs::write(&dir, &buf).unwrap();
        assert!(matches!(
            load_store(&StdVfs, &dir),
            Err(PersistError::Format(_))
        ));
        std::fs::remove_file(dir).ok();
    }

    #[test]
    fn rejects_future_version() {
        let dir = std::env::temp_dir().join("hopi_persist_ver.idx");
        let mut buf = Vec::new();
        buf.extend_from_slice(b"HOPI");
        buf.extend_from_slice(&99u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 20]);
        std::fs::write(&dir, &buf).unwrap();
        assert!(matches!(
            load_store(&StdVfs, &dir),
            Err(PersistError::Version(99))
        ));
        std::fs::remove_file(dir).ok();
    }
}

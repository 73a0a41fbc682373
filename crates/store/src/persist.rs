//! Binary persistence of frozen CSR covers and durable checkpoints.
//!
//! Index file (little-endian; written by [`save_frozen`]):
//!
//! ```text
//! magic    4 bytes  "HOPI"
//! version  u32      4 (3, 2 and 1 accepted on load)
//! flags    u32      bit 0: DIST column present; bit 1: frozen CSR layout;
//!                   bit 3: BASELINE section present
//! baseline 2 × u64  only when flags bit 3 is set (see below)
//! n        u64      node slots
//! data_len u64      label entries (|Lin| + |Lout|)
//! lin_off  u32 × (n + 1)   absolute offsets into data (lin_off[0] = 0)
//! lout_off u32 × (n + 1)   absolute offsets (lout_off[n] = data_len)
//! data     u32 × data_len  label centers, rows sorted
//! dist     u32 × data_len  only when flags bit 0 (DIST) is set
//! ```
//!
//! The baseline section (introduced in version 4) is a [`CoverBaseline`]:
//! the cover's entry count and the collection's live element count right
//! after the build the saved cover was maintained from, `entries` then
//! `live_elements`. It lets a reopened engine keep measuring drift against
//! that build rather than against whatever it opened.
//!
//! Loading is one read and one bulk little-endian conversion per section:
//! rows are stored sorted and the inverted sections are rebuilt by
//! counting, so [`load_index`] never sorts and is ready to serve straight
//! away. The inverted sections are derived data; leaving them out keeps
//! the file at half the in-memory footprint (the paper's observation that
//! the backward index doubles the stored size).
//!
//! **Legacy row files.** Versions 1–4 could also hold the paper's LIN/LOUT
//! row tables (flags bit 1 clear): after the baseline section come
//! `lin_len: u64`, `lout_len: u64` and `(id, other [, dist])` rows.
//! Nothing writes that layout any more; [`load_index`] converts such a
//! file one way into the same frozen form.
//!
//! Every file is written crash-atomically (temp file + fsync + rename +
//! directory fsync), and every read past the end of a file is a
//! [`PersistError::Format`], never a panic.

use crate::vfs::Vfs;
use hopi_core::{FrozenCover, TwoHopCover};
use std::path::Path;

/// Little-endian read cursor over a byte buffer. Reads past the end fail
/// with a [`PersistError::Format`] naming the section being read.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn bytes(&mut self, k: usize, section: &str) -> Result<&'a [u8], PersistError> {
        let (head, tail) = self
            .rest
            .split_at_checked(k)
            .ok_or_else(|| PersistError::Format(format!("truncated {section}")))?;
        self.rest = tail;
        Ok(head)
    }

    fn u32(&mut self, section: &str) -> Result<u32, PersistError> {
        let b = self.bytes(4, section)?;
        Ok(b.try_into().map_or(0, u32::from_le_bytes))
    }

    fn u64(&mut self, section: &str) -> Result<u64, PersistError> {
        let b = self.bytes(8, section)?;
        Ok(b.try_into().map_or(0, u64::from_le_bytes))
    }

    /// A length field, which must fit in memory.
    fn len(&mut self, section: &str) -> Result<usize, PersistError> {
        usize::try_from(self.u64(section)?)
            .map_err(|_| PersistError::Format(format!("{section} length overflows")))
    }

    /// The next `k` little-endian words, converted in one pass.
    fn words(&mut self, k: usize, section: &str) -> Result<Vec<u32>, PersistError> {
        let n_bytes = k
            .checked_mul(4)
            .ok_or_else(|| PersistError::Format(format!("{section} length overflows")))?;
        let raw = self.bytes(n_bytes, section)?;
        Ok(raw
            .chunks_exact(4)
            .map(|w| w.try_into().map_or(0, u32::from_le_bytes))
            .collect())
    }

    /// Succeeds only when the whole buffer has been read.
    fn end(&self) -> Result<(), PersistError> {
        match self.rest.len() {
            0 => Ok(()),
            extra => Err(PersistError::Format(format!("{extra} trailing bytes"))),
        }
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
/// The oldest readable version (row layout only).
const VERSION_FIRST: u32 = 1;
/// Flags bit 0: DIST column present.
const FLAG_DIST: u32 = 1;
/// Flags bit 1: the payload is a frozen CSR blob, not legacy rows.
const FLAG_FROZEN: u32 = 2;
/// Flags bit 2: the file is a checkpoint (collection + frozen cover +
/// WAL sequence number; see [`save_checkpoint`]).
const FLAG_CHECKPOINT: u32 = 4;
/// Flags bit 3: a [`CoverBaseline`] section follows the header.
const FLAG_BASELINE: u32 = 8;

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

/// The 12-byte `magic`/`version`/`flags` prefix every file starts with,
/// for a cover frozen as `frozen`, plus the baseline flag and `extra`.
fn encode_header(frozen: &FrozenCover, baseline: Option<CoverBaseline>, extra: u32) -> Vec<u8> {
    let dist = if frozen.with_dist() { FLAG_DIST } else { 0 };
    let base = if baseline.is_some() { FLAG_BASELINE } else { 0 };
    let mut buf = MAGIC.to_vec();
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(FLAG_FROZEN | dist | base | extra).to_le_bytes());
    buf
}

/// Reads the shared prefix: checks magic and version, returns the cursor
/// past it with the version and flags.
fn decode_header(raw: &[u8]) -> Result<(Cursor<'_>, u32, u32), PersistError> {
    let mut buf = Cursor { rest: raw };
    if buf.bytes(4, "header")? != MAGIC {
        return Err(PersistError::Format("bad magic".into()));
    }
    let version = buf.u32("header")?;
    if !(VERSION_FIRST..=VERSION).contains(&version) {
        return Err(PersistError::Version(version));
    }
    let flags = buf.u32("header")?;
    Ok((buf, version, flags))
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
    Ok(Some(CoverBaseline {
        entries: buf.u64("baseline section")?,
        live_elements: buf.u64("baseline section")?,
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

/// Serializes a frozen cover to `path` as a single length-prefixed CSR
/// blob — the one index file layout — with the build baseline it was
/// maintained from when there is one. A distance-annotated cover keeps
/// its DIST column. Loading it back with [`load_index`] involves no
/// sorting.
pub fn save_frozen(
    vfs: &dyn Vfs,
    frozen: &FrozenCover,
    path: &Path,
    baseline: Option<CoverBaseline>,
) -> Result<(), PersistError> {
    atomic_write_file(vfs, path, &encode_index(frozen, baseline))?;
    Ok(())
}

/// The bytes of the index file [`save_frozen`] writes.
fn encode_index(frozen: &FrozenCover, baseline: Option<CoverBaseline>) -> Vec<u8> {
    let mut buf = encode_header(frozen, baseline, 0);
    encode_baseline(baseline, &mut buf);
    encode_frozen_payload(frozen, &mut buf);
    buf
}

/// Appends the frozen cover's CSR payload (`n`, `data_len`, offset tables,
/// data, optional dist column) to `buf` — the section shared by index
/// files and checkpoints. The cover's row blocks are concatenated as
/// [`FrozenCover::write_label_csr`] streams them, so the bytes are those
/// of one contiguous CSR buffer.
fn encode_frozen_payload(frozen: &FrozenCover, buf: &mut Vec<u8>) {
    let (n, entries) = (frozen.num_nodes(), frozen.size());
    let words = 2 * (n + 1) + entries * if frozen.with_dist() { 2 } else { 1 };
    buf.reserve(16 + 4 * words);
    buf.extend_from_slice(&(n as u64).to_le_bytes());
    buf.extend_from_slice(&(entries as u64).to_le_bytes());
    frozen.write_label_csr(|run| {
        for word in run {
            buf.extend_from_slice(&word.to_le_bytes());
        }
    });
}

/// Loads an index file with the build baseline saved beside it (if any).
/// A frozen CSR blob ([`save_frozen`]) loads as is, with no sorting: the
/// inverted sections are rebuilt by counting. A legacy row file (store
/// versions 1–4) converts one way into the same frozen form.
pub fn load_index(
    vfs: &dyn Vfs,
    path: &Path,
) -> Result<(FrozenCover, Option<CoverBaseline>), PersistError> {
    decode_index(&vfs.read(path)?)
}

/// [`load_index`] on the bytes of the file.
fn decode_index(raw: &[u8]) -> Result<(FrozenCover, Option<CoverBaseline>), PersistError> {
    let (mut buf, _, flags) = decode_header(raw)?;
    if flags & FLAG_CHECKPOINT != 0 {
        return Err(PersistError::Format(
            "file is a durable checkpoint; load it with load_checkpoint".into(),
        ));
    }
    let baseline = decode_baseline(&mut buf, flags)?;
    let with_dist = flags & FLAG_DIST != 0;
    let frozen = if flags & FLAG_FROZEN != 0 {
        decode_frozen_payload(&mut buf, with_dist)?
    } else {
        decode_rows(&mut buf, with_dist, raw.len())?
    };
    Ok((frozen, baseline))
}

/// Reads the frozen CSR payload section, which must consume the rest of
/// the buffer exactly.
fn decode_frozen_payload(
    buf: &mut Cursor<'_>,
    with_dist: bool,
) -> Result<FrozenCover, PersistError> {
    let n = buf.len("CSR section")?;
    let data_len = buf.len("CSR section")?;
    let slots = n
        .checked_add(1)
        .ok_or_else(|| PersistError::Format("CSR section length overflows".into()))?;
    let lin_off = buf.words(slots, "CSR section")?;
    let lout_off = buf.words(slots, "CSR section")?;
    let data = buf.words(data_len, "CSR section")?;
    let dist = if with_dist {
        Some(buf.words(data_len, "CSR section")?)
    } else {
        None
    };
    buf.end()?;
    FrozenCover::from_label_csr(lin_off, lout_off, data, dist)
        .map_err(|e| PersistError::Format(format!("invalid CSR blob: {e}")))
}

/// Converts the legacy row layout — a `LIN` then a `LOUT` table of
/// `(id, other [, dist])` rows — into the frozen form, one way: the rows
/// go into a mutable cover, which is then frozen, or, when the file has a
/// DIST column, into the distance-annotated frozen cover directly.
///
/// A row file stores no node count; the largest node a row names stands
/// in for one. So that a corrupt id cannot make the conversion allocate
/// without bound, a file naming a node at or past its own length in
/// bytes is refused. Every labelled node of a real cover appears in some
/// row, and a row of at least 8 bytes names two nodes, so only a cover
/// whose nodes are more than three quarters unlabelled could be refused.
fn decode_rows(
    buf: &mut Cursor<'_>,
    with_dist: bool,
    file_len: usize,
) -> Result<FrozenCover, PersistError> {
    let width = if with_dist { 3 } else { 2 };
    let lin_len = buf.len("row header")?;
    let lout_len = buf.len("row header")?;
    let overflow = || PersistError::Format("row count overflows".into());
    if lin_len.checked_add(lout_len).ok_or_else(overflow)? > FrozenCover::MAX_LABEL_ENTRIES {
        return Err(overflow());
    }
    let lin = buf.words(lin_len.checked_mul(width).ok_or_else(overflow)?, "LIN rows")?;
    let lout = buf.words(
        lout_len.checked_mul(width).ok_or_else(overflow)?,
        "LOUT rows",
    )?;
    buf.end()?;
    let (lin, lout) = (lin.chunks_exact(width), lout.chunks_exact(width));
    let largest = lin
        .clone()
        .chain(lout.clone())
        .flat_map(|row| row.iter().take(2));
    if let Some(node) = largest.max().filter(|&&node| node as usize >= file_len) {
        return Err(PersistError::Format(format!(
            "node {node} lies past the file's {file_len} bytes"
        )));
    }
    Ok(if with_dist {
        let entries = |rows: std::slice::ChunksExact<'_, u32>| {
            rows.filter_map(|row| match *row {
                [id, center, dist] => Some((id, center, dist)),
                _ => None,
            })
            .collect()
        };
        FrozenCover::default().successor(0, entries(lin), entries(lout))
    } else {
        let mut cover = TwoHopCover::new();
        for row in lin {
            if let [id, center] = *row {
                cover.add_in(id, center);
            }
        }
        for row in lout {
            if let [id, center] = *row {
                cover.add_out(id, center);
            }
        }
        FrozenCover::from_cover(&cover)
    })
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
    let mut buf = encode_header(frozen, baseline, FLAG_CHECKPOINT);
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
    decode_checkpoint(&vfs.read(path)?)
}

/// [`load_checkpoint`] on the bytes of the file.
fn decode_checkpoint(raw: &[u8]) -> Result<Checkpoint, PersistError> {
    let (mut buf, version, flags) = decode_header(raw)?;
    if flags & FLAG_CHECKPOINT == 0 {
        return Err(PersistError::Format(
            "file is not a checkpoint; load it with load_index".into(),
        ));
    }
    let seq = buf.u64("checkpoint header")?;
    let baseline = decode_baseline(&mut buf, flags)?;
    let coll_len = buf.len("checkpoint header")?;
    let coll_bytes = buf.bytes(coll_len, "collection blob")?;
    // Pre-text checkpoints (version 2) carry collection blobs without the
    // element-text section; text decodes as empty there.
    let collection =
        hopi_xml::codec::decode_collection_versioned(coll_bytes, version > VERSION_NO_TEXT)
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
    use rand::prelude::*;

    fn sample_graph() -> DiGraph {
        let mut g = DiGraph::new();
        for (u, v) in [(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)] {
            g.add_edge(u, v);
        }
        g
    }

    fn random_graph(seed: u64, n: u32, m: usize) -> DiGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DiGraph::new();
        g.ensure_node(n - 1);
        for _ in 0..m {
            g.add_edge(rng.gen_range(0..n), rng.gen_range(0..n));
        }
        g
    }

    fn plain(g: &DiGraph) -> FrozenCover {
        FrozenCover::from_cover(&CoverBuilder::new(&TransitiveClosure::from_graph(g)).build())
    }

    fn annotated(g: &DiGraph) -> FrozenCover {
        DistanceCoverBuilder::new(&DistanceClosure::from_graph(g)).build()
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hopi_persist_{name}_{}", std::process::id()))
    }

    /// One row of a legacy table: `(id, other, dist)`.
    type Row = (u32, u32, u32);

    /// The rows of `frozen`'s `LIN` and `LOUT` tables in `(id, other)`
    /// order, as every row writer stored them (dist 0 without DIST).
    fn table_rows(frozen: &FrozenCover) -> [Vec<Row>; 2] {
        let mut words = Vec::new();
        frozen.write_label_csr(|run| words.extend_from_slice(run));
        let (n, len) = (frozen.num_nodes(), frozen.size());
        let (offsets, rest) = words.split_at(2 * (n + 1));
        let (data, dists) = rest.split_at(len);
        let dists = frozen.with_dist().then_some(dists);
        let (lin, lout) = offsets.split_at(n + 1);
        [lin, lout].map(|off| {
            let mut rows = Vec::new();
            for (id, w) in off.windows(2).enumerate() {
                for i in w[0] as usize..w[1] as usize {
                    rows.push((id as u32, data[i], dists.map_or(0, |d| d[i])));
                }
            }
            rows
        })
    }

    /// A row file in the layout older builds wrote (store versions 1–4):
    /// header, baseline section, the two row counts, then the `LIN` and
    /// `LOUT` rows — with their DIST column when `dist` is set.
    fn row_file(
        version: u32,
        baseline: Option<CoverBaseline>,
        dist: bool,
        lin: &[Row],
        lout: &[Row],
    ) -> Vec<u8> {
        let flags = u32::from(dist) | if baseline.is_some() { FLAG_BASELINE } else { 0 };
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&version.to_le_bytes());
        buf.extend_from_slice(&flags.to_le_bytes());
        encode_baseline(baseline, &mut buf);
        for table in [lin, lout] {
            buf.extend_from_slice(&(table.len() as u64).to_le_bytes());
        }
        for &(id, other, d) in lin.iter().chain(lout) {
            buf.extend_from_slice(&id.to_le_bytes());
            buf.extend_from_slice(&other.to_le_bytes());
            if dist {
                buf.extend_from_slice(&d.to_le_bytes());
            }
        }
        buf
    }

    /// The row file holding `frozen`'s labels.
    fn row_file_of(frozen: &FrozenCover, version: u32, baseline: Option<CoverBaseline>) -> Vec<u8> {
        let [lin, lout] = table_rows(frozen);
        row_file(version, baseline, frozen.with_dist(), &lin, &lout)
    }

    fn assert_answers_like(loaded: &FrozenCover, expected: &FrozenCover, n: u32) {
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    loaded.connected(u, v),
                    expected.connected(u, v),
                    "({u},{v})"
                );
                assert_eq!(loaded.distance(u, v), expected.distance(u, v), "({u},{v})");
            }
            assert_eq!(loaded.descendants(u), expected.descendants(u));
            assert_eq!(loaded.ancestors(u), expected.ancestors(u));
        }
    }

    fn is_format_error<T>(r: Result<T, PersistError>) -> bool {
        matches!(r, Err(PersistError::Format(_)))
    }

    #[test]
    fn roundtrip_frozen() {
        let frozen = plain(&sample_graph());
        let path = temp("frozen");
        save_frozen(&StdVfs, &frozen, &path, None).unwrap();
        let (loaded, baseline) = load_index(&StdVfs, &path).unwrap();
        assert_eq!(loaded, frozen);
        assert_eq!(baseline, None);
        assert_answers_like(&loaded, &frozen, 5);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn roundtrip_frozen_distance() {
        let frozen = annotated(&sample_graph());
        let path = temp("frozen_dist");
        save_frozen(&StdVfs, &frozen, &path, None).unwrap();
        let (loaded, _) = load_index(&StdVfs, &path).unwrap();
        assert!(loaded.with_dist());
        assert_eq!(loaded, frozen);
        assert_answers_like(&loaded, &frozen, 5);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn row_files_of_every_version_load_into_the_frozen_cover() {
        // A row file loads into the frozen cover of the same labels, with
        // or without DIST, whatever its version.
        let mut identical = 0;
        for seed in 0..8 {
            let g = random_graph(seed, 24, 50);
            for frozen in [plain(&g), annotated(&g)] {
                for version in 1..=VERSION {
                    let baseline = (version == VERSION).then_some(CoverBaseline {
                        entries: frozen.size() as u64,
                        live_elements: 24,
                    });
                    let (loaded, read) =
                        decode_index(&row_file_of(&frozen, version, baseline)).unwrap();
                    assert_eq!(read, baseline, "seed {seed} v{version}");
                    assert_eq!(loaded.with_dist(), frozen.with_dist());
                    assert_answers_like(&loaded, &frozen, 24);
                    // Equal field for field whenever the top node slot
                    // holds a label (a row file does not store `n`).
                    if loaded.num_nodes() == frozen.num_nodes() {
                        assert_eq!(loaded, frozen, "seed {seed} v{version}");
                        identical += 1;
                    }
                }
            }
        }
        assert!(identical > 0);
    }

    #[test]
    fn row_tables_load_in_any_order() {
        // Rows out of order, repeated or naming their own node load into
        // the cover the sorted tables give.
        let frozen = annotated(&sample_graph());
        let [mut lin, mut lout] = table_rows(&frozen);
        lin.reverse();
        lin.push((3, 3, 0));
        lout.reverse();
        lout.extend(lout.clone());
        let (loaded, _) = decode_index(&row_file(1, None, true, &lin, &lout)).unwrap();
        assert_eq!(loaded, frozen);
        // Node 1 appears only as a center; it still gets a slot.
        let (one_link, _) = decode_index(&row_file(2, None, false, &[], &[(0, 1, 0)])).unwrap();
        assert_eq!(one_link.num_nodes(), 2);
        assert!(one_link.connected(0, 1) && !one_link.connected(1, 0));
    }

    #[test]
    fn rejects_truncation() {
        let g = sample_graph();
        let baseline = Some(CoverBaseline {
            entries: 7,
            live_elements: 5,
        });
        let files = [
            ("frozen", encode_index(&plain(&g), baseline)),
            ("frozen+dist", encode_index(&annotated(&g), None)),
            ("rows", row_file_of(&plain(&g), 4, baseline)),
            ("rows+dist", row_file_of(&annotated(&g), 2, None)),
            ("rows v1", row_file_of(&plain(&g), 1, None)),
        ];
        for (name, bytes) in &files {
            assert!(decode_index(bytes).is_ok(), "{name}");
            for cut in 0..bytes.len() {
                assert!(
                    is_format_error(decode_index(&bytes[..cut])),
                    "{name} cut at {cut}"
                );
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(
                is_format_error(decode_index(&longer)),
                "{name} trailing byte"
            );
        }
        let mut c = hopi_xml::Collection::new();
        c.add_document(hopi_xml::XmlDocument::new("a", "r"));
        let path = temp("ckpt_cuts");
        save_checkpoint(&StdVfs, &path, &c, &plain(&g), 5, baseline).unwrap();
        let ckpt = std::fs::read(&path).unwrap();
        std::fs::remove_file(path).ok();
        assert!(decode_checkpoint(&ckpt).is_ok());
        for cut in 0..ckpt.len() {
            assert!(
                is_format_error(decode_checkpoint(&ckpt[..cut])),
                "checkpoint cut at {cut}"
            );
        }
    }

    #[test]
    fn rejects_overflowing_row_counts() {
        // Row counts whose sum or byte size wraps must fail cleanly, not
        // panic or allocate.
        let header = &row_file(2, None, false, &[], &[])[..12];
        for counts in [
            [1u64 << 61, 1 << 61],
            [u64::MAX, 1],
            [1 << 62, 0],
            [0, 1 << 40],
        ] {
            let mut bytes = header.to_vec();
            for c in counts {
                bytes.extend_from_slice(&c.to_le_bytes());
            }
            bytes.extend_from_slice(&[0; 16]);
            assert!(is_format_error(decode_index(&bytes)), "{counts:?}");
        }
    }

    #[test]
    fn rejects_nodes_past_the_file() {
        // A row file names its node count only through its largest node,
        // which must lie inside the file's length in bytes.
        let far = row_file(2, None, false, &[(0, 1 << 30, 0)], &[]);
        assert!(is_format_error(decode_index(&far)));
        let near = row_file(2, None, false, &[(0, 35, 0)], &[]);
        assert_eq!(near.len(), 36);
        assert_eq!(decode_index(&near).unwrap().0.num_nodes(), 36);
        let past = row_file(2, None, false, &[(36, 0, 0)], &[]);
        assert!(is_format_error(decode_index(&past)));
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
        let frozen = plain(&c.element_graph());
        let path = temp("ckpt");
        save_checkpoint(&StdVfs, &path, &c, &frozen, 42, None).unwrap();
        let ckpt = load_checkpoint(&StdVfs, &path).unwrap();
        assert_eq!(ckpt.seq, 42);
        assert_eq!(ckpt.baseline, None);
        assert_eq!(ckpt.collection.doc_id_bound(), c.doc_id_bound());
        assert_eq!(ckpt.collection.elem_id_bound(), c.elem_id_bound());
        assert_eq!(ckpt.collection.links(), c.links());
        assert_eq!(ckpt.frozen, frozen);
        assert!(ckpt.frozen.connected(0, 2));
        // The index loader refuses a checkpoint with a pointer to the right
        // entry, and vice versa.
        assert!(is_format_error(load_index(&StdVfs, &path)));
        save_frozen(&StdVfs, &frozen, &path, None).unwrap();
        assert!(is_format_error(load_checkpoint(&StdVfs, &path)));
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
        let path = temp("v3");
        save_checkpoint(&StdVfs, &path, &c, &plain(&c.element_graph()), 9, None).unwrap();
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
        let frozen = plain(&sample_graph());
        let baseline = Some(CoverBaseline {
            entries: 7,
            live_elements: 5,
        });
        // Cuts into the baseline section (bytes 12..28) fail cleanly.
        for bytes in [
            encode_index(&frozen, baseline),
            row_file_of(&frozen, 4, baseline),
        ] {
            let (loaded, read) = decode_index(&bytes).unwrap();
            assert_eq!(read, baseline);
            assert_eq!(loaded.size(), frozen.size());
            assert!(is_format_error(decode_index(&bytes[..20])));
        }

        let path = temp("base");
        let mut c = Collection::new();
        c.add_document(XmlDocument::new("a", "r"));
        save_checkpoint(&StdVfs, &path, &c, &frozen, 3, baseline).unwrap();
        let ckpt = load_checkpoint(&StdVfs, &path).unwrap();
        assert_eq!((ckpt.seq, ckpt.baseline), (3, baseline));
        assert_eq!(ckpt.frozen.size(), frozen.size());
        let bytes = std::fs::read(&path).unwrap();
        for cut in [30, 36] {
            assert!(is_format_error(decode_checkpoint(&bytes[..cut])));
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = temp("atomic");
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
        let path = temp("garbage");
        std::fs::write(&path, b"not a hopi file at all........").unwrap();
        assert!(is_format_error(load_index(&StdVfs, &path)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rejects_future_version() {
        let mut bytes = row_file(99, None, false, &[], &[]);
        assert!(matches!(
            decode_index(&bytes),
            Err(PersistError::Version(99))
        ));
        bytes[4..8].copy_from_slice(&(VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(PersistError::Version(v)) if v == VERSION + 1
        ));
    }
}

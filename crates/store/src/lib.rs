//! # hopi-store — database-backed storage for the HOPI index
//!
//! The paper stores the 2-hop cover "in database tables and [runs] SQL
//! queries against these tables" (§3.4): two index-organized tables
//!
//! ```sql
//! CREATE TABLE LIN (ID NUMBER(10), INID  NUMBER(10) [, DIST NUMBER(10)]);
//! CREATE TABLE LOUT(ID NUMBER(10), OUTID NUMBER(10) [, DIST NUMBER(10)]);
//! ```
//!
//! each with a *forward* index on `(ID, INID/OUTID)` and a *backward* index
//! on `(INID/OUTID, ID)`. A connection test is the join
//!
//! ```sql
//! SELECT COUNT(*) FROM LIN, LOUT
//!  WHERE LOUT.ID = :u AND LIN.ID = :v AND LOUT.OUTID = LIN.INID
//! ```
//!
//! and the distance lookup replaces `COUNT(*)` with
//! `MIN(LOUT.DIST + LIN.DIST)` (§5.1). This crate reproduces the same
//! physical design in an embedded engine: [`table::IndexOrganizedTable`]
//! keeps rows clustered in forward-index order with a backward permutation
//! index (doubling storage exactly as the paper notes), and
//! [`engine::LinLoutStore`] executes the paper's queries — including the
//! "simple additional queries" that compensate for the unstored self
//! labels. [`persist`] serializes the tables to a compact binary file —
//! either as rows ([`save_store`]) or as a single length-prefixed CSR blob
//! of a frozen cover ([`save_frozen`]), the serving layout that loads with
//! no re-sorting; [`load_index`] auto-detects the layout. Either layout,
//! and a checkpoint, can carry the [`CoverBaseline`] its cover's drift is
//! measured against. All index files
//! are written crash-atomically (temp file + fsync + rename + directory
//! fsync). [`wal`] adds the durable write path: a length-prefixed,
//! checksummed write-ahead log of collection mutations with group commit,
//! paired with atomic checkpoints ([`save_checkpoint`]) that snapshot
//! collection + frozen cover at a WAL sequence number. Every file
//! operation takes its [`vfs`] backend as an argument: [`StdVfs`] in
//! production and [`FaultVfs`] — deterministic fault injection with op
//! counting — under the chaos test suites.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod persist;
pub mod table;
pub mod vfs;
pub mod wal;

pub use engine::LinLoutStore;
pub use persist::{
    atomic_write_file, load_checkpoint, load_frozen, load_index, load_store, save_checkpoint,
    save_frozen, save_store, sync_parent_dir, Checkpoint, CoverBaseline, PersistError, StoredIndex,
    STORE_FORMAT_VERSION,
};
pub use table::IndexOrganizedTable;
pub use vfs::{FaultKind, FaultOp, FaultOpKind, FaultVfs, StdVfs, Vfs, VfsFile};
pub use wal::{SyncPolicy, Wal, WalMetrics, WalRecord};

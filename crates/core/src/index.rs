//! The HOPI index handle: a [`TwoHopCover`] behind the query interface the
//! rest of the system (query evaluation, incremental maintenance, stores)
//! talks to.
//!
//! Construction lives in the build pipeline (`hopi_partition::pipeline`) and
//! the engine facade (`hopi_build::Hopi`); this type is the shared artifact
//! they all exchange.

use crate::cover::TwoHopCover;

/// Node identifier (collection-global element id).
pub type NodeId = u32;

/// A built HOPI index: the 2-hop cover of a collection's element-level
/// connection relation.
///
/// ```
/// use hopi_core::{HopiIndex, TwoHopCover};
///
/// // Cover for the path 0 → 1 → 2 with node 1 as the center.
/// let mut cover = TwoHopCover::with_nodes(3);
/// cover.add_out(0, 1);
/// cover.add_in(2, 1);
/// let index = HopiIndex::from_cover(cover);
///
/// assert!(index.connected(0, 2));
/// assert!(!index.connected(2, 0));
/// assert_eq!(index.descendants(0), vec![0, 1, 2]);
/// assert_eq!(index.size(), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct HopiIndex {
    cover: TwoHopCover,
}

impl HopiIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing cover (e.g. thawed from a persisted frozen
    /// cover).
    pub fn from_cover(cover: TwoHopCover) -> Self {
        HopiIndex { cover }
    }

    /// The reachability test `u →* v` (reflexive).
    pub fn connected(&self, u: NodeId, v: NodeId) -> bool {
        self.cover.connected(u, v)
    }

    /// All descendants of `u` (including `u`), sorted.
    pub fn descendants(&self, u: NodeId) -> Vec<NodeId> {
        self.cover.descendants(u)
    }

    /// All ancestors of `u` (including `u`), sorted.
    pub fn ancestors(&self, u: NodeId) -> Vec<NodeId> {
        self.cover.ancestors(u)
    }

    /// Cover size `|L|` — the paper's index-size metric (stored label
    /// entries).
    pub fn size(&self) -> usize {
        self.cover.size()
    }

    /// Read access to the underlying cover.
    pub fn cover(&self) -> &TwoHopCover {
        &self.cover
    }

    /// Mutable access to the underlying cover (incremental maintenance
    /// edits labels in place).
    pub fn cover_mut(&mut self) -> &mut TwoHopCover {
        &mut self.cover
    }
}

impl From<TwoHopCover> for HopiIndex {
    fn from(cover: TwoHopCover) -> Self {
        HopiIndex::from_cover(cover)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_cover_queries() {
        let mut cover = TwoHopCover::with_nodes(4);
        cover.add_out(0, 2);
        cover.add_in(3, 2);
        let mut index = HopiIndex::from_cover(cover);
        assert!(index.connected(0, 3));
        assert!(index.connected(1, 1));
        assert!(!index.connected(3, 0));
        assert_eq!(index.ancestors(3), vec![0, 2, 3]);
        assert_eq!(index.size(), 2);
        index.cover_mut().add_out(1, 2);
        assert!(index.connected(1, 3));
        assert_eq!(index.size(), 3);
    }
}

//! Document modification (paper §6.3): "HOPI can simply drop the complete
//! document and reinsert the modified version using the algorithms of the
//! previous subsections."

use crate::delete::delete_document;
use crate::insert::{insert_document, DocumentLinks};
use hopi_core::HopiIndex;
use hopi_xml::{Collection, DocId, XmlDocument};

/// Replaces document `di` with `new_doc` (drop + reinsert). `links`
/// describes the modified document's connections to the rest of the
/// collection. Returns the *new* document id (ids are never reused).
pub fn modify_document(
    collection: &mut Collection,
    index: &mut HopiIndex,
    di: DocId,
    new_doc: XmlDocument,
    links: &DocumentLinks,
) -> DocId {
    delete_document(collection, index, di);
    insert_document(collection, index, new_doc, links).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_graph::TransitiveClosure;
    use hopi_partition::{build_index, BuildConfig};

    fn assert_exact(c: &Collection, index: &HopiIndex) {
        let g = c.element_graph();
        let tc = TransitiveClosure::from_graph(&g);
        // Dead id slots are skipped: reflexive queries on deleted elements
        // are vacuously true in the cover (`u == v`), and the index contract
        // only covers live elements.
        for u in (0..g.id_bound() as u32).filter(|&u| g.is_alive(u)) {
            for v in (0..g.id_bound() as u32).filter(|&v| g.is_alive(v)) {
                assert_eq!(index.connected(u, v), tc.contains(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn modify_restructures_document() {
        let mut c = Collection::new();
        let mut d0 = XmlDocument::new("d0", "r");
        d0.add_element(0, "s");
        c.add_document(d0);
        let mut d1 = XmlDocument::new("d1", "r");
        d1.add_element(0, "s");
        c.add_document(d1);
        c.add_link(c.global_id(0, 1), c.global_id(1, 0));
        let (mut index, _) = build_index(&c, &BuildConfig::default());

        // Restructure d1: deeper tree, now linking back to d0.
        let mut new_d1 = XmlDocument::new("d1v2", "r");
        let a = new_d1.add_element(0, "a");
        let b = new_d1.add_element(a, "b");
        let d0_s = c.global_id(0, 1);
        let new_id = modify_document(
            &mut c,
            &mut index,
            1,
            new_d1,
            &DocumentLinks {
                outgoing: vec![(b, 0)], // back link to d0 root
                incoming: vec![(d0_s, 0)],
            },
        );
        assert_eq!(new_id, 2);
        assert_eq!(c.doc_count(), 2);
        assert_exact(&c, &index);
        // The back link closed a cycle: d0 root reaches itself via d1v2.
        assert!(index.connected(c.global_id(new_id, 0), 0));
        index.cover().check_invariants();
    }

    #[test]
    fn modify_isolated_document() {
        let mut c = Collection::new();
        c.add_document(XmlDocument::new("solo", "r"));
        let (mut index, _) = build_index(&c, &BuildConfig::default());
        let mut v2 = XmlDocument::new("solo-v2", "r");
        v2.add_element(0, "extra");
        let new_id = modify_document(&mut c, &mut index, 0, v2, &DocumentLinks::default());
        assert_eq!(c.doc_count(), 1);
        assert!(index.connected(c.global_id(new_id, 0), c.global_id(new_id, 1)));
        assert_exact(&c, &index);
    }
}

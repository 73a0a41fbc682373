//! Theorem 3 (paper §6.2) through the engine: document and link deletions
//! on random cyclic collections with intra-document links, each followed by
//! an all-pairs check against BFS over the surviving element graph. The
//! covers are built ones and ones §6.1 insertions have grown, whose label
//! copies leave entries a build would not make.

use hopi::graph::traversal::reachable_from;
use hopi::prelude::*;
use hopi::xml::generator::{random_collection, RandomConfig};

fn bfs_check(h: &Hopi) {
    let g = h.collection().element_graph();
    let live: Vec<ElemId> = g.nodes().collect();
    for &u in &live {
        let reach = reachable_from(&g, u);
        for &v in &live {
            assert_eq!(h.connected(u, v), reach.contains(v), "pair ({u},{v})");
        }
    }
}

fn cyclic(seed: u64) -> Collection {
    random_collection(&RandomConfig {
        num_docs: 16,
        elements_range: (2, 7),
        num_links: 34,
        num_intra_links: 6,
        allow_cycles: true,
        seed,
        text: Default::default(),
    })
}

/// Two builds per collection: one partition, and several joined by the
/// PSG — the splice must hold on either cover.
fn builders() -> [HopiBuilder; 2] {
    [
        Hopi::builder(),
        Hopi::builder()
            .partitioner(PartitionerChoice::Tc(TcPartitionerConfig {
                max_connections_per_partition: 150,
                ..Default::default()
            }))
            .join(JoinAlgorithm::Psg),
    ]
}

#[test]
fn general_deletions_match_bfs() {
    let (mut general_docs, mut general_links) = (0, 0);
    for seed in 0..4 {
        for builder in builders() {
            let mut h = builder.build(cyclic(seed)).unwrap();
            for step in 0..6usize {
                let links = h.collection().links();
                if step % 2 == 0 && !links.is_empty() {
                    let link = links[(step * 7 + seed as usize) % links.len()];
                    let outcome = h.delete_link(link.from, link.to).unwrap();
                    assert_eq!(outcome.algorithm, DeletionAlgorithm::General);
                    general_links += 1;
                } else {
                    let docs: Vec<DocId> = h.collection().doc_ids().collect();
                    let d = docs[(step * 5 + seed as usize) % docs.len()];
                    let outcome = h.delete_document(d).unwrap();
                    if outcome.algorithm == DeletionAlgorithm::General {
                        assert!(outcome.recompute_seeds > 0);
                        general_docs += 1;
                    }
                }
                bfs_check(&h);
                h.index().cover().check_invariants();
            }
        }
    }
    assert!(general_docs > 0, "no document took the Theorem 3 path");
    assert!(general_links > 0);
}

#[test]
fn link_deletion_inside_a_cycle_matches_bfs() {
    let mut on_cycle = 0;
    for seed in 0..6 {
        for builder in builders() {
            let mut h = builder.build(cyclic(seed)).unwrap();
            // A link whose target reaches its source closes a cycle.
            let Some(link) = h
                .collection()
                .links()
                .iter()
                .copied()
                .find(|l| h.connected(l.to, l.from))
            else {
                continue;
            };
            let outcome = h.delete_link(link.from, link.to).unwrap();
            assert_eq!(outcome.algorithm, DeletionAlgorithm::General);
            bfs_check(&h);
            on_cycle += 1;
        }
    }
    assert!(on_cycle > 0, "no collection had a link on a cycle");
}

#[test]
fn inserted_links_delete_exactly() {
    let mut lin_copies = 0;
    for seed in 0..4 {
        let mut h = Hopi::build(cyclic(seed)).unwrap();
        let docs: Vec<DocId> = h.collection().doc_ids().collect();
        let last = |h: &Hopi, d: DocId| {
            let len = h.collection().document(d).unwrap().len() as u32;
            h.collection().global_id(d, len - 1)
        };
        // Links from one document's last element to another's last
        // element or root, integrated by whichever of the three §6.1
        // updates is cheapest, then deleted again.
        let mut inserted = Vec::new();
        for i in 0..8 {
            let (a, b) = (
                docs[(i * 3 + 1) % docs.len()],
                docs[(i * 5 + 2) % docs.len()],
            );
            let to = match i % 2 {
                0 => last(&h, b),
                _ => h.collection().global_id(b, 0),
            };
            let from = last(&h, a);
            if a != b && !h.collection().has_link(from, to) {
                h.insert_link(from, to).unwrap();
                inserted.push((from, to));
            }
        }
        assert!(!inserted.is_empty());
        lin_copies += h.maintenance_stats().integrations.lin_copy;
        for (from, to) in inserted {
            h.delete_link(from, to).unwrap();
            bfs_check(&h);
        }
    }
    // A `Lin` copy puts ancestors of the link source into the `Lin` rows
    // of its descendants, the entries the splice must drop.
    assert!(lin_copies > 0);
}

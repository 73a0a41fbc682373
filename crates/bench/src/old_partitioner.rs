//! The original HOPI partitioner from [26] (paper §3.3): grow partitions on
//! the weighted document-level graph under a **conservative node-count
//! cap**, "limiting the sum of node weights within a single partition and
//! minimizing the weight of cross-partition edges".
//!
//! Growth is greedy: a random unassigned seed document starts a partition;
//! the neighbor (in the undirected document graph) connected to the
//! partition by the highest accumulated edge weight is absorbed next, until
//! the node-weight cap would be exceeded. This keeps heavily linked
//! documents together, which minimizes `L_P` — exactly the heuristic the
//! original paper describes. The `Px` rows of Table 2 use caps of `x·10⁴`
//! elements.

use hopi_partition::{DocEdgeWeights, EdgeWeightStrategy, Partitioning};
use hopi_xml::{Collection, DocId};
use rand::prelude::*;
use rand::rngs::StdRng;
use rustc_hash::FxHashMap;

/// Configuration of the original (node-weight-capped) partitioner.
#[derive(Clone, Debug)]
pub struct OldPartitionerConfig {
    /// Maximum sum of document node weights (element counts) per partition.
    /// A single document heavier than the cap still gets its own partition.
    pub max_nodes_per_partition: u64,
    /// Edge-weight strategy steering the greedy growth.
    pub strategy: EdgeWeightStrategy,
    /// Seed for the randomized seed-document order.
    pub seed: u64,
}

impl Default for OldPartitionerConfig {
    fn default() -> Self {
        OldPartitionerConfig {
            max_nodes_per_partition: 50_000, // P5 at paper scale
            strategy: EdgeWeightStrategy::LinkCount,
            seed: 0x01d,
        }
    }
}

/// Runs the original partitioner.
pub fn partition(collection: &Collection, config: &OldPartitionerConfig) -> Partitioning {
    let weights = DocEdgeWeights::compute(collection, config.strategy);
    let (doc_graph, _) = collection.document_graph();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<DocId> = collection.doc_ids().collect();
    order.shuffle(&mut rng);

    let mut part_of = vec![u32::MAX; collection.doc_id_bound()];
    let mut next_partition = 0u32;

    let absorb_neighbors = |d: DocId, part_of: &[u32], frontier: &mut FxHashMap<DocId, u64>| {
        for &nb in doc_graph
            .successors(d)
            .iter()
            .chain(doc_graph.predecessors(d))
        {
            if part_of[nb as usize] == u32::MAX {
                *frontier.entry(nb).or_insert(0) += weights.undirected(d, nb).max(1);
            }
        }
    };

    // Fill partitions up to the node cap: greedy growth along weighted
    // document edges, refilling from fresh seeds when a connected region is
    // exhausted (the original partitioner packs documents to the size limit
    // regardless of connectivity).
    let mut cursor = 0usize;
    while cursor < order.len() {
        while cursor < order.len() && part_of[order[cursor] as usize] != u32::MAX {
            cursor += 1;
        }
        if cursor == order.len() {
            break;
        }
        let p = next_partition;
        next_partition += 1;
        let mut weight = 0u64;
        let mut frontier: FxHashMap<DocId, u64> = FxHashMap::default();
        let mut seed_cursor = cursor;
        let mut first = true;

        while weight < config.max_nodes_per_partition {
            // Highest-weight candidate that still fits, or a fresh seed.
            let candidate = match frontier
                .iter()
                .filter(|(&d, _)| {
                    weight + collection.doc_weight(d) as u64 <= config.max_nodes_per_partition
                })
                .max_by_key(|(&d, &w)| (w, std::cmp::Reverse(d)))
            {
                Some((&best, _)) => {
                    frontier.remove(&best);
                    Some(best)
                }
                None => {
                    let mut found = None;
                    while seed_cursor < order.len() {
                        let d = order[seed_cursor];
                        if part_of[d as usize] == u32::MAX
                            && (first
                                || weight + collection.doc_weight(d) as u64
                                    <= config.max_nodes_per_partition)
                        {
                            found = Some(d);
                            break;
                        }
                        seed_cursor += 1;
                    }
                    found
                }
            };
            let Some(best) = candidate else { break };
            part_of[best as usize] = p;
            weight += collection.doc_weight(best) as u64;
            first = false;
            absorb_neighbors(best, &part_of, &mut frontier);
        }
    }
    Partitioning::from_assignment(collection, next_partition as usize, part_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_xml::generator::{dblp, random_collection, DblpConfig, RandomConfig};

    #[test]
    fn respects_node_cap() {
        let c = dblp(&DblpConfig::scaled(0.02));
        let cfg = OldPartitionerConfig {
            max_nodes_per_partition: 200,
            ..Default::default()
        };
        let p = partition(&c, &cfg);
        p.check_invariants(&c);
        for part in &p.partitions {
            assert!(
                part.node_weight <= 200 || part.docs.len() == 1,
                "partition weight {} with {} docs",
                part.node_weight,
                part.docs.len()
            );
        }
    }

    #[test]
    fn covers_all_documents() {
        let c = random_collection(&RandomConfig::default());
        let p = partition(&c, &OldPartitionerConfig::default());
        p.check_invariants(&c);
        let total: usize = p.partitions.iter().map(|q| q.docs.len()).sum();
        assert_eq!(total, c.doc_count());
    }

    #[test]
    fn larger_cap_fewer_partitions() {
        let c = dblp(&DblpConfig::scaled(0.02));
        let small = partition(
            &c,
            &OldPartitionerConfig {
                max_nodes_per_partition: 100,
                ..Default::default()
            },
        );
        let large = partition(
            &c,
            &OldPartitionerConfig {
                max_nodes_per_partition: 2000,
                ..Default::default()
            },
        );
        assert!(large.len() < small.len());
    }

    #[test]
    fn greedy_growth_reduces_cross_links() {
        // Compared with per-document partitioning, greedy growth must
        // strictly reduce the number of cross-partition links on a linked
        // collection.
        let c = dblp(&DblpConfig::scaled(0.02));
        let naive = Partitioning::per_document(&c);
        let grown = partition(
            &c,
            &OldPartitionerConfig {
                max_nodes_per_partition: 1_000,
                ..Default::default()
            },
        );
        assert!(
            grown.cross_links.len() < naive.cross_links.len(),
            "greedy {} !< naive {}",
            grown.cross_links.len(),
            naive.cross_links.len()
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let c = dblp(&DblpConfig::scaled(0.01));
        let cfg = OldPartitionerConfig {
            max_nodes_per_partition: 300,
            ..Default::default()
        };
        let a = partition(&c, &cfg);
        let b = partition(&c, &cfg);
        assert_eq!(a.part_of, b.part_of);
    }

    #[test]
    fn oversized_document_gets_own_partition() {
        use hopi_xml::XmlDocument;
        let mut c = Collection::new();
        let mut big = XmlDocument::new("big", "r");
        for _ in 0..50 {
            big.add_element(0, "x");
        }
        c.add_document(big);
        c.add_document(XmlDocument::new("small", "r"));
        let p = partition(
            &c,
            &OldPartitionerConfig {
                max_nodes_per_partition: 10,
                ..Default::default()
            },
        );
        p.check_invariants(&c);
        assert_eq!(p.len(), 2);
    }
}

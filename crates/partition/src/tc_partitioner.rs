//! The new transitive-closure-size-aware partitioner (paper §4.3).
//!
//! The old partitioner caps the *node count* per partition, a conservative
//! proxy for closure size that "misses opportunities as it completely
//! ignores the structure of the graph, yielding partitions that are too
//! small most of the time". The new algorithm "computes, while incrementally
//! building the partition, the transitive closure of the partition and
//! continues with the next partition when the transitive closure is as
//! large as the available memory" — partitions are closed by *measured*
//! closure size, not by a node-count guess. The `Nx` rows of Table 2 use
//! budgets of `x·10⁵` connections.

use crate::edge_weights::{DocEdgeWeights, EdgeWeightStrategy};
use crate::partitioning::Partitioning;
use hopi_graph::{DiGraph, TransitiveClosure};
use hopi_xml::{Collection, DocId, ElemId, LinkIndex};
use rand::prelude::*;
use rand::rngs::StdRng;
use rustc_hash::FxHashMap;

/// Configuration of the closure-size-aware partitioner.
#[derive(Clone, Debug)]
pub struct TcPartitionerConfig {
    /// Maximum number of closure connections per partition ("as large as
    /// the available memory"). A single document whose own closure exceeds
    /// the budget still forms a partition by itself.
    pub max_connections_per_partition: u64,
    /// Edge-weight strategy steering the greedy growth. Paper §7.2: "the
    /// new partitioning algorithm in combination with edge weights set to
    /// A*D gave similar results to the old partitioning algorithm".
    pub strategy: EdgeWeightStrategy,
    /// Seed for the randomized seed-document order.
    pub seed: u64,
}

impl Default for TcPartitionerConfig {
    fn default() -> Self {
        TcPartitionerConfig {
            max_connections_per_partition: 1_000_000, // N10 at paper scale
            strategy: EdgeWeightStrategy::AncTimesDesc,
            seed: 0x7c,
        }
    }
}

/// Adds document `d` to `closure`, the incremental closure of a growing
/// partition: its tree, its intra-document links, and its links to and
/// from the documents already in the partition, which `member` admits.
/// Each document's elements are numbered from its offset, the element
/// count of the documents that joined before it, and `offset` records it.
/// Links come from `links` by source: `d`'s own, and those of the members
/// that `doc_graph` lists as linking into `d`. Returns the new connection
/// count.
fn add_doc(
    closure: &mut TransitiveClosure,
    collection: &Collection,
    links: &LinkIndex,
    doc_graph: &DiGraph,
    d: DocId,
    offset: &mut [u32],
    member: impl Fn(DocId) -> bool,
) -> u64 {
    let doc = collection.document(d).expect("live doc");
    let (base, len) = (collection.global_id(d, 0), doc.len() as u32);
    let first = closure.num_nodes() as u32;
    offset[d as usize] = first;
    for _ in 0..len {
        closure.add_node();
    }
    for (p, c) in doc.tree_edges() {
        closure.insert_edge(first + p, first + c);
    }
    let local = |e: ElemId| match collection.to_local(e) {
        Some((q, l)) if q == d || member(q) => Some(offset[q as usize] + l),
        _ => None,
    };
    for l in 0..len {
        for lt in links.links(base + l).iter().filter_map(|&t| local(t)) {
            closure.insert_edge(first + l, lt);
        }
    }
    for &q in doc_graph.predecessors(d).iter().filter(|&&q| member(q)) {
        let q_base = collection.global_id(q, 0);
        for l in 0..collection.doc_weight(q) {
            for &t in links.links(q_base + l) {
                if t.wrapping_sub(base) < len {
                    closure.insert_edge(offset[q as usize] + l, first + t - base);
                }
            }
        }
    }
    closure.connection_count() as u64
}

/// Runs the closure-size-aware partitioner.
pub fn partition(collection: &Collection, config: &TcPartitionerConfig) -> Partitioning {
    let weights = DocEdgeWeights::compute(collection, config.strategy);
    let (doc_graph, _) = collection.document_graph();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<DocId> = collection.doc_ids().collect();
    order.shuffle(&mut rng);

    let links = LinkIndex::new(collection);
    let mut part_of = vec![u32::MAX; collection.doc_id_bound()];
    let mut offset = vec![0u32; collection.doc_id_bound()];
    let mut tc_sizes: Vec<u64> = Vec::new();
    let mut next_partition = 0u32;

    let absorb = |d: DocId, part_of: &[u32], frontier: &mut FxHashMap<DocId, u64>| {
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

    // Partitions are filled until the closure budget is reached: greedy
    // growth along weighted document edges, and when a connected region is
    // exhausted the partition keeps filling from the next unassigned seed
    // ("continues with the next partition when the transitive closure is as
    // large as the available memory").
    let mut cursor = 0usize;
    while cursor < order.len() {
        // Next unassigned seed.
        while cursor < order.len() && part_of[order[cursor] as usize] != u32::MAX {
            cursor += 1;
        }
        if cursor == order.len() {
            break;
        }
        let p = next_partition;
        next_partition += 1;
        let mut closure = TransitiveClosure::new();
        let mut size = 0u64;
        let mut frontier: FxHashMap<DocId, u64> = FxHashMap::default();
        let mut seed_cursor = cursor;

        'fill: while size < config.max_connections_per_partition {
            // Pick the heaviest frontier doc, or a fresh seed when the
            // frontier is exhausted.
            let candidate = match frontier
                .iter()
                .max_by_key(|(&d, &w)| (w, std::cmp::Reverse(d)))
            {
                Some((&best, _)) => {
                    frontier.remove(&best);
                    best
                }
                None => {
                    while seed_cursor < order.len()
                        && part_of[order[seed_cursor] as usize] != u32::MAX
                    {
                        seed_cursor += 1;
                    }
                    match order.get(seed_cursor) {
                        Some(&d) => d,
                        None => break 'fill, // no documents left anywhere
                    }
                }
            };
            let member = |q: DocId| part_of[q as usize] == p;
            let grown = add_doc(
                &mut closure,
                collection,
                &links,
                &doc_graph,
                candidate,
                &mut offset,
                member,
            );
            // `size` is 0 until a first document joins, which stays even
            // when it alone is over budget.
            if grown > config.max_connections_per_partition && size > 0 {
                // Over budget: close with the previous size; `candidate`
                // stays unassigned (the closure is discarded anyway).
                break 'fill;
            }
            size = grown;
            part_of[candidate as usize] = p;
            absorb(candidate, &part_of, &mut frontier);
        }
        tc_sizes.push(size);
    }

    let mut partitioning =
        Partitioning::from_assignment(collection, next_partition as usize, part_of);
    for (p, s) in partitioning.partitions.iter_mut().zip(tc_sizes) {
        p.tc_size = Some(s);
    }
    partitioning
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::tests::reference_graph;
    use hopi_xml::generator::{dblp, random_collection, DblpConfig, RandomConfig};

    #[test]
    fn tracked_tc_size_matches_actual() {
        let c = dblp(&DblpConfig::scaled(0.01));
        let cfg = TcPartitionerConfig {
            max_connections_per_partition: 2_000,
            ..Default::default()
        };
        let p = partition(&c, &cfg);
        p.check_invariants(&c);
        for (pi, part) in p.partitions.iter().enumerate() {
            let g = reference_graph(&c, &part.docs);
            let actual = TransitiveClosure::from_graph(&g).connection_count() as u64;
            assert_eq!(part.tc_size, Some(actual), "partition {pi}");
        }
    }

    #[test]
    fn respects_connection_budget() {
        let c = dblp(&DblpConfig::scaled(0.02));
        let budget = 1_500;
        let p = partition(
            &c,
            &TcPartitionerConfig {
                max_connections_per_partition: budget,
                ..Default::default()
            },
        );
        for part in &p.partitions {
            assert!(
                part.tc_size.unwrap() <= budget || part.docs.len() == 1,
                "partition closure {} over budget with {} docs",
                part.tc_size.unwrap(),
                part.docs.len()
            );
        }
    }

    #[test]
    fn balanced_closure_sizes() {
        // Paper §7.2: "the new algorithm creates partitions with a similar
        // size of the transitive closures". Most partitions (excluding the
        // leftovers) should be within an order of magnitude of each other.
        let c = dblp(&DblpConfig::scaled(0.05));
        let budget = 3_000u64;
        let p = partition(
            &c,
            &TcPartitionerConfig {
                max_connections_per_partition: budget,
                ..Default::default()
            },
        );
        let filled = p
            .partitions
            .iter()
            .filter(|q| q.tc_size.unwrap() > budget / 2)
            .count();
        assert!(
            filled * 2 >= p.len().saturating_sub(2),
            "most partitions should be filled near budget ({} of {})",
            filled,
            p.len()
        );
    }

    #[test]
    fn covers_all_documents() {
        let c = random_collection(&RandomConfig::default());
        let p = partition(&c, &TcPartitionerConfig::default());
        p.check_invariants(&c);
    }

    #[test]
    fn bigger_budget_fewer_partitions() {
        let c = dblp(&DblpConfig::scaled(0.02));
        let small = partition(
            &c,
            &TcPartitionerConfig {
                max_connections_per_partition: 800,
                ..Default::default()
            },
        );
        let large = partition(
            &c,
            &TcPartitionerConfig {
                max_connections_per_partition: 20_000,
                ..Default::default()
            },
        );
        assert!(large.len() < small.len());
    }

    #[test]
    fn all_weight_strategies_work() {
        let c = dblp(&DblpConfig::scaled(0.01));
        for strategy in [
            EdgeWeightStrategy::LinkCount,
            EdgeWeightStrategy::AncTimesDesc,
            EdgeWeightStrategy::AncPlusDesc,
        ] {
            let p = partition(
                &c,
                &TcPartitionerConfig {
                    max_connections_per_partition: 2_000,
                    strategy,
                    ..Default::default()
                },
            );
            p.check_invariants(&c);
        }
    }
}

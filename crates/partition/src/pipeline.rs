//! The partitioned HOPI build pipeline (paper §3.3 and §4).
//!
//! Construction proceeds in three stages:
//!
//! 1. **Partition** the document-level graph with one of the
//!    [`PartitionerChoice`] strategies (no partitioning, per-document, the
//!    node-capped partitioner of [26], or the closure-budget partitioner of
//!    §4.3).
//! 2. **Cover each partition**: materialize the partition's element graph,
//!    compute its transitive closure, and run the greedy 2-hop cover
//!    builder — optionally preselecting cross-partition link targets as
//!    centers (§4.2). Partitions are processed concurrently (the paper
//!    computes partition covers independently); covers are merged into the
//!    global cover in partition order, so the result is identical for any
//!    worker count.
//! 3. **Join the covers** across the cross-partition links `L_P`, either
//!    incrementally one link at a time (§3.3, [`JoinAlgorithm::Incremental`])
//!    or with the partition-skeleton-graph batch join of §4.1
//!    ([`JoinAlgorithm::Psg`]).

use crate::old_partitioner;
use crate::partitioning::Partitioning;
use crate::psg::PartitionSkeletonGraph;
use crate::tc_partitioner;
use crate::{OldPartitionerConfig, TcPartitionerConfig};
use hopi_core::{old_join, BuildStats, CoverBuilder, HopiIndex, TwoHopCover};
use hopi_graph::{traversal, FixedBitSet, TransitiveClosure};
use hopi_xml::{Collection, ElemId};
use rustc_hash::FxHashMap;
use std::time::Instant;

/// Which partitioner splits the document-level graph.
#[derive(Clone, Debug)]
pub enum PartitionerChoice {
    /// No partitioning: one partition holding the whole collection (the
    /// paper's §7.2 baseline — smallest covers, slowest builds).
    Flat,
    /// One partition per document (the `single` configuration of Table 2).
    PerDocument,
    /// The original node-count-capped partitioner of [26] (`Px` rows).
    Old(OldPartitionerConfig),
    /// The closure-budget partitioner of §4.3 (`Nx` rows).
    Tc(TcPartitionerConfig),
}

/// How per-partition covers are joined across cross-partition links.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JoinAlgorithm {
    /// §3.3: integrate `L_P` one link at a time into the merged cover.
    Incremental,
    /// §4.1: batch join over the partition skeleton graph.
    Psg,
}

/// Configuration of one index build.
#[derive(Clone, Debug)]
pub struct BuildConfig {
    /// Document-graph partitioner.
    pub partitioner: PartitionerChoice,
    /// Cover-join algorithm.
    pub join: JoinAlgorithm,
    /// Preselect cross-partition link targets as centers inside each
    /// partition cover (paper §4.2).
    pub preselect_link_targets: bool,
    /// PSG-join recursion threshold: above this many PSG nodes, skeleton
    /// reachability rows are computed by per-node BFS instead of the
    /// SCC-condensation closure algorithm (slower, but without the
    /// condensation's transient per-component state). The produced cover
    /// is identical either way.
    pub psg_direct_threshold: usize,
    /// Worker threads for per-partition cover construction (`0` = one per
    /// available CPU). The built cover is independent of this value.
    pub threads: usize,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            // The paper's best configuration: closure-budget partitioner
            // (§4.3) + PSG join (§4.1).
            partitioner: PartitionerChoice::Tc(TcPartitionerConfig::default()),
            join: JoinAlgorithm::Psg,
            preselect_link_targets: false,
            psg_direct_threshold: usize::MAX,
            threads: 0,
        }
    }
}

/// Shape of the PSG join of one build.
#[derive(Clone, Debug, Default)]
pub struct PsgJoinReport {
    /// PSG nodes (distinct cross-link endpoints).
    pub nodes: usize,
    /// PSG edges (cross links + intra-partition connection edges).
    pub edges: usize,
    /// Reachability chunks processed (1 = direct, single closure).
    pub chunks: usize,
}

/// Statistics of one index build.
#[derive(Clone, Debug, Default)]
pub struct BuildReport {
    /// Number of partitions.
    pub partitions: usize,
    /// Cross-partition links `|L_P|`.
    pub cross_links: usize,
    /// Final cover size `|L|` (stored label entries).
    pub cover_size: usize,
    /// Label entries added by the cover join.
    pub join_entries: usize,
    /// Milliseconds spent partitioning the collection graph.
    pub partition_ms: u64,
    /// Milliseconds spent building per-partition covers.
    pub covers_ms: u64,
    /// Milliseconds spent joining covers.
    pub join_ms: u64,
    /// Total build milliseconds.
    pub total_ms: u64,
    /// PSG-join shape, when the PSG join ran.
    pub psg: Option<PsgJoinReport>,
    /// Greedy-kernel counters (§3.2) summed over every cover the build
    /// constructed: the partition covers and the PSG skeleton cover.
    pub greedy: BuildStats,
}

impl BuildReport {
    /// Compression ratio versus a materialized transitive closure with
    /// `closure_connections` connections (the paper's headline metric).
    pub fn compression_vs(&self, closure_connections: u64) -> f64 {
        closure_connections as f64 / self.cover_size.max(1) as f64
    }
}

/// Builds the HOPI index for a collection (paper §3.3 / §4).
pub fn build_index(collection: &Collection, config: &BuildConfig) -> (HopiIndex, BuildReport) {
    let t_total = Instant::now();
    let partitioning = match &config.partitioner {
        PartitionerChoice::Flat => Partitioning::single_partition(collection),
        PartitionerChoice::PerDocument => Partitioning::per_document(collection),
        PartitionerChoice::Old(cfg) => old_partitioner::partition(collection, cfg),
        PartitionerChoice::Tc(cfg) => tc_partitioner::partition(collection, cfg),
    };
    let partition_ms = t_total.elapsed().as_millis() as u64;

    // Cross-link targets per partition, for §4.2 center preselection.
    let mut preselect: FxHashMap<u32, Vec<ElemId>> = FxHashMap::default();
    if config.preselect_link_targets {
        for l in &partitioning.cross_links {
            if let Some(p) = partitioning.partition_of_elem(collection, l.to) {
                preselect.entry(p).or_default().push(l.to);
            }
        }
    }

    let t_covers = Instant::now();
    let partition_covers = build_partition_covers(collection, &partitioning, &preselect, config);
    let mut cover = TwoHopCover::new();
    if collection.elem_id_bound() > 0 {
        cover.ensure_node(collection.elem_id_bound() as u32 - 1);
    }
    let mut greedy = BuildStats::default();
    for (local_cover, map, stats) in &partition_covers {
        cover.merge_remapped(local_cover, map);
        greedy += stats;
    }
    let covers_ms = t_covers.elapsed().as_millis() as u64;

    let t_join = Instant::now();
    let mut join_entries = 0usize;
    let mut psg_report = None;
    if !partitioning.cross_links.is_empty() {
        match config.join {
            JoinAlgorithm::Incremental => {
                for l in &partitioning.cross_links {
                    join_entries += old_join::integrate_link(&mut cover, l.from, l.to);
                }
            }
            JoinAlgorithm::Psg => {
                let (entries, report, skeleton_stats) = psg_join(
                    collection,
                    &partitioning,
                    &mut cover,
                    config.psg_direct_threshold,
                );
                join_entries = entries;
                psg_report = Some(report);
                greedy += &skeleton_stats;
            }
        }
    }
    let join_ms = t_join.elapsed().as_millis() as u64;

    let report = BuildReport {
        partitions: partitioning.len(),
        cross_links: partitioning.cross_links.len(),
        cover_size: cover.size(),
        join_entries,
        partition_ms,
        covers_ms,
        join_ms,
        total_ms: t_total.elapsed().as_millis() as u64,
        psg: psg_report,
        greedy,
    };
    (HopiIndex::from_cover(cover), report)
}

/// One partition's cover, its local → global id map and the greedy
/// kernel's counters.
type PartitionCover = (TwoHopCover, Vec<ElemId>, BuildStats);

/// Computes all per-partition covers (possibly concurrently) together with
/// their local → global id maps, in partition order.
fn build_partition_covers(
    collection: &Collection,
    partitioning: &Partitioning,
    preselect: &FxHashMap<u32, Vec<ElemId>>,
    config: &BuildConfig,
) -> Vec<PartitionCover> {
    let m = partitioning.len();
    let workers = match config.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(m.max(1));

    let build_one = |p: usize| -> PartitionCover {
        let (graph, local_to_global, global_to_local) =
            partitioning.partition_element_graph(collection, p as u32);
        let tc = TransitiveClosure::from_graph(&graph);
        let builder = CoverBuilder::new(&tc);
        let (cover, stats) = match preselect.get(&(p as u32)) {
            Some(targets) => {
                let locals: Vec<u32> = targets
                    .iter()
                    .filter_map(|t| global_to_local.get(t).copied())
                    .collect();
                builder.build_with_preselected(&locals)
            }
            None => builder.build_with_stats(),
        };
        (cover, local_to_global, stats)
    };

    if workers <= 1 || m <= 1 {
        return (0..m).map(build_one).collect();
    }

    // Work-stealing over partition indices; results land in their slot, so
    // the merged cover is independent of scheduling.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<PartitionCover>>> =
        (0..m).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let p = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if p >= m {
                    break;
                }
                let built = build_one(p);
                *slots[p].lock().expect("result slot") = Some(built);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot")
                .expect("partition built")
        })
        .collect()
}

/// The §4.1 batch join: computes the transitive closure `H̄` of the
/// partition skeleton graph `S(P)` (whose nodes are just the cross-link
/// endpoints), builds a 2-hop cover *of the skeleton*, and lifts its labels
/// into the global cover — every skeleton label `w ∈ L̄out(x)` fans out to
/// the intra-partition ancestors of `x`, every `w ∈ L̄in(y)` to the
/// intra-partition descendants of `y`. Compressing the skeleton first is
/// what keeps the join's output near the size of a fresh flat cover
/// instead of materializing per-link reachability sets.
///
/// Correctness: a cross-partition connection `u →* v` decomposes as
/// `u →* s` (intra-partition, `s` a link source), `s →̄* t` (skeleton), and
/// `t →* v` (intra-partition). The skeleton cover witnesses `s →̄* t` with
/// some center `w` — stored, or one of the implicit self labels, which the
/// lift materializes by augmenting `L̄out(x)`/`L̄in(x)` with `x` itself — so
/// `w` lands in `Lout(u)` and `Lin(v)`.
fn psg_join(
    collection: &Collection,
    partitioning: &Partitioning,
    cover: &mut TwoHopCover,
    direct_threshold: usize,
) -> (usize, PsgJoinReport, BuildStats) {
    // All skeleton inputs are computed against the pre-join cover, which is
    // exact for intra-partition connections and empty across partitions.
    let psg = PartitionSkeletonGraph::build(collection, partitioning, |_, from, to| {
        cover.connected(from, to)
    });
    let n = psg.len();

    // Intra-partition ancestor/descendant sets of every skeleton node.
    let anc_of: Vec<Vec<ElemId>> = psg.nodes.iter().map(|&e| cover.ancestors(e)).collect();
    let desc_of: Vec<Vec<ElemId>> = psg.nodes.iter().map(|&e| cover.descendants(e)).collect();

    // Skeleton closure H̄. Below the threshold it is computed with the
    // SCC-condensation closure algorithm (fastest, but its per-component
    // row unioning holds extra transient state); above it, rows come from
    // plain per-node BFS — slower, no transient duplication, identical
    // rows either way (the `ablations` binary asserts the covers match).
    // The final row table is needed in full by the skeleton cover builder,
    // so `chunks` reports BFS batches, not peak row storage.
    let (skeleton_tc, chunks) = if n <= direct_threshold {
        (TransitiveClosure::from_graph(&psg.graph), 1)
    } else {
        let rows: Vec<FixedBitSet> = (0..n as u32)
            .map(|x| traversal::reachable_from(&psg.graph, x))
            .collect();
        (
            TransitiveClosure::from_desc_rows(rows, vec![true; n], None),
            n.div_ceil(direct_threshold.max(1)),
        )
    };

    // The 2-hop cover of the skeleton, then the lift. Stored labels fan
    // out to the intra-partition ancestor/descendant sets; the skeleton
    // cover's *implicit self labels* are materialized only for nodes that
    // actually serve as centers (a connection witnessed as `y ∈ L̄out(x)`
    // needs `y` present on the Lin side too, and vice versa). Connections
    // whose source and target skeleton node coincide are already covered
    // by that partition's own cover and need no join entries at all.
    let (skeleton_cover, skeleton_stats) = CoverBuilder::new(&skeleton_tc).build_with_stats();
    let mut entries = 0usize;
    for x in 0..n as u32 {
        for &w in skeleton_cover.lout(x) {
            let w_global = psg.nodes[w as usize];
            for &a in &anc_of[x as usize] {
                entries += usize::from(cover.add_out(a, w_global));
            }
        }
        for &w in skeleton_cover.lin(x) {
            let w_global = psg.nodes[w as usize];
            for &d in &desc_of[x as usize] {
                entries += usize::from(cover.add_in(d, w_global));
            }
        }
        let x_global = psg.nodes[x as usize];
        if !skeleton_cover.holders_in(x).is_empty() {
            // `x` witnesses connections as an Lin center: complete its
            // implicit `x ∈ L̄out(x)` side.
            for &a in &anc_of[x as usize] {
                entries += usize::from(cover.add_out(a, x_global));
            }
        }
        if !skeleton_cover.holders_out(x).is_empty() {
            // Symmetric completion of the implicit `x ∈ L̄in(x)`.
            for &d in &desc_of[x as usize] {
                entries += usize::from(cover.add_in(d, x_global));
            }
        }
    }

    let report = PsgJoinReport {
        nodes: n,
        edges: psg.graph.edge_count(),
        chunks,
    };
    (entries, report, skeleton_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_xml::XmlDocument;

    fn linked_collection() -> Collection {
        let mut c = Collection::new();
        for name in ["a", "b", "c"] {
            let mut d = XmlDocument::new(name, "r");
            d.add_element(0, "s");
            d.add_element(0, "t");
            c.add_document(d);
        }
        // a/s -> b, b/t -> c, c/s -> a (a cycle through all documents).
        c.add_link(c.global_id(0, 1), c.global_id(1, 0));
        c.add_link(c.global_id(1, 2), c.global_id(2, 0));
        c.add_link(c.global_id(2, 1), c.global_id(0, 0));
        c
    }

    fn assert_exact(c: &Collection, index: &HopiIndex) {
        let g = c.element_graph();
        let tc = TransitiveClosure::from_graph(&g);
        for u in 0..g.id_bound() as u32 {
            for v in 0..g.id_bound() as u32 {
                assert_eq!(index.connected(u, v), tc.contains(u, v), "({u},{v})");
            }
        }
    }

    #[test]
    fn all_configurations_exact() {
        let c = linked_collection();
        for partitioner in [
            PartitionerChoice::Flat,
            PartitionerChoice::PerDocument,
            PartitionerChoice::Old(OldPartitionerConfig::default()),
            PartitionerChoice::Tc(TcPartitionerConfig {
                max_connections_per_partition: 16,
                ..Default::default()
            }),
        ] {
            for join in [JoinAlgorithm::Incremental, JoinAlgorithm::Psg] {
                let (index, report) = build_index(
                    &c,
                    &BuildConfig {
                        partitioner: partitioner.clone(),
                        join,
                        ..Default::default()
                    },
                );
                assert_exact(&c, &index);
                assert_eq!(report.cover_size, index.size());
                index.cover().check_invariants();
            }
        }
    }

    #[test]
    fn flat_build_has_no_join() {
        let c = linked_collection();
        let (index, report) = build_index(
            &c,
            &BuildConfig {
                partitioner: PartitionerChoice::Flat,
                ..Default::default()
            },
        );
        assert_eq!(report.partitions, 1);
        assert_eq!(report.cross_links, 0);
        assert_eq!(report.join_entries, 0);
        assert!(report.psg.is_none());
        assert_exact(&c, &index);
    }

    #[test]
    fn greedy_counters_are_summed_over_all_covers() {
        let c = linked_collection();
        let flat = BuildConfig {
            partitioner: PartitionerChoice::Flat,
            ..Default::default()
        };
        let tc = TransitiveClosure::from_graph(&c.element_graph());
        let (_, direct) = CoverBuilder::new(&tc).build_with_stats();
        assert_eq!(build_index(&c, &flat).1.greedy, direct);

        // Three one-document covers plus the skeleton cover of the join.
        let per_document = BuildConfig {
            partitioner: PartitionerChoice::PerDocument,
            join: JoinAlgorithm::Psg,
            ..Default::default()
        };
        let greedy = build_index(&c, &per_document).1.greedy;
        let one_document = {
            let (graph, ..) = Partitioning::per_document(&c).partition_element_graph(&c, 0);
            let tc = TransitiveClosure::from_graph(&graph);
            CoverBuilder::new(&tc).build_with_stats().1
        };
        assert!(greedy.centers > 3 * one_document.centers);
        assert!(greedy.densest_evals > 3 * one_document.densest_evals);
        assert!(greedy.peel_offered > 3 * one_document.peel_offered);
        assert!(greedy.peel_removed <= greedy.peel_offered);
    }

    #[test]
    fn chunked_psg_join_matches_direct() {
        let c = linked_collection();
        let base = BuildConfig {
            partitioner: PartitionerChoice::PerDocument,
            join: JoinAlgorithm::Psg,
            ..Default::default()
        };
        let (direct, dr) = build_index(&c, &base);
        assert_eq!(dr.psg.as_ref().map(|p| p.chunks), Some(1));
        for threshold in [4, 2, 1] {
            let (chunked, cr) = build_index(
                &c,
                &BuildConfig {
                    psg_direct_threshold: threshold,
                    ..base.clone()
                },
            );
            assert!(cr.psg.as_ref().is_some_and(|p| p.chunks >= 1));
            assert_eq!(chunked.size(), direct.size(), "threshold {threshold}");
            let n = c.elem_id_bound() as u32;
            for u in 0..n {
                assert_eq!(chunked.cover().lin(u), direct.cover().lin(u));
                assert_eq!(chunked.cover().lout(u), direct.cover().lout(u));
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_cover() {
        let c = linked_collection();
        let base = BuildConfig {
            partitioner: PartitionerChoice::PerDocument,
            threads: 1,
            ..Default::default()
        };
        let (one, _) = build_index(&c, &base);
        let (four, _) = build_index(&c, &BuildConfig { threads: 4, ..base });
        assert_eq!(one.size(), four.size());
        let n = c.elem_id_bound() as u32;
        for u in 0..n {
            assert_eq!(one.cover().lin(u), four.cover().lin(u));
            assert_eq!(one.cover().lout(u), four.cover().lout(u));
        }
    }

    #[test]
    fn preselection_stays_exact() {
        let c = linked_collection();
        let (index, _) = build_index(
            &c,
            &BuildConfig {
                partitioner: PartitionerChoice::PerDocument,
                preselect_link_targets: true,
                ..Default::default()
            },
        );
        assert_exact(&c, &index);
    }

    #[test]
    fn empty_collection_builds() {
        let c = Collection::new();
        let (index, report) = build_index(&c, &BuildConfig::default());
        assert_eq!(index.size(), 0);
        assert_eq!(report.cover_size, 0);
    }

    #[test]
    fn compression_reported() {
        let c = linked_collection();
        let g = c.element_graph();
        let connections = TransitiveClosure::from_graph(&g).connection_count() as u64;
        let (_, report) = build_index(&c, &BuildConfig::default());
        assert!(report.compression_vs(connections) > 0.0);
    }
}

//! The partitioned HOPI build pipeline (paper §4).
//!
//! Construction proceeds in three stages:
//!
//! 1. **Partition** the document-level graph with one of the
//!    [`PartitionerChoice`] strategies (no partitioning, per-document, or
//!    the closure-budget partitioner of §4.3).
//! 2. **Cover each partition** ([`build_partition_covers`]): compute the
//!    partition's transitive closure by a walk that stays inside its
//!    documents ([`hopi_xml::DocSet`], over one [`hopi_xml::LinkIndex`]
//!    the partitions share; no element graph is built), and run the
//!    greedy 2-hop cover builder — optionally preselecting
//!    cross-partition link targets as centers (§4.2). Partitions are
//!    processed concurrently (the paper computes partition covers
//!    independently); covers are merged into the global cover in partition
//!    order, so the result is identical for any worker count.
//! 3. **Join the covers** across the cross-partition links `L_P` with the
//!    partition-skeleton-graph batch join of §4.1 ([`psg_join`]).

use crate::partitioning::Partitioning;
use crate::psg::PartitionSkeletonGraph;
use crate::tc_partitioner;
use crate::TcPartitionerConfig;
use hopi_core::{BuildStats, CoverBuilder, HopiIndex, TwoHopCover};
use hopi_graph::TransitiveClosure;
use hopi_xml::{Collection, DocSet, ElemId, LinkIndex};
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
    /// The closure-budget partitioner of §4.3 (`Nx` rows).
    Tc(TcPartitionerConfig),
}

/// Configuration of one index build.
#[derive(Clone, Debug)]
pub struct BuildConfig {
    /// Document-graph partitioner.
    pub partitioner: PartitionerChoice,
    /// Preselect cross-partition link targets as centers inside each
    /// partition cover (paper §4.2).
    pub preselect_link_targets: bool,
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
            preselect_link_targets: false,
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

/// Builds the HOPI index for a collection (paper §4).
pub fn build_index(collection: &Collection, config: &BuildConfig) -> (HopiIndex, BuildReport) {
    let t_total = Instant::now();
    let partitioning = match &config.partitioner {
        PartitionerChoice::Flat => Partitioning::single_partition(collection),
        PartitionerChoice::PerDocument => Partitioning::per_document(collection),
        PartitionerChoice::Tc(cfg) => tc_partitioner::partition(collection, cfg),
    };
    let partition_ms = t_total.elapsed().as_millis() as u64;

    let t_covers = Instant::now();
    let (mut cover, mut greedy) = build_partition_covers(collection, &partitioning, config);
    let covers_ms = t_covers.elapsed().as_millis() as u64;

    let t_join = Instant::now();
    let mut join_entries = 0usize;
    let mut psg_report = None;
    if !partitioning.cross_links.is_empty() {
        let (entries, report, skeleton_stats) = psg_join(collection, &partitioning, &mut cover);
        join_entries = entries;
        psg_report = Some(report);
        greedy += &skeleton_stats;
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

/// Builds the cover of every partition (concurrently, with
/// `config.threads` workers) and merges them in partition order, so the
/// result is independent of scheduling: exact inside each partition, empty
/// across partitions. `config.preselect_link_targets` preselects each
/// partition's cross-link targets as centers (§4.2); `config.partitioner`
/// is not read. Returns the cover and the summed greedy counters.
pub fn build_partition_covers(
    collection: &Collection,
    partitioning: &Partitioning,
    config: &BuildConfig,
) -> (TwoHopCover, BuildStats) {
    // Cross-link targets per partition, for §4.2 center preselection.
    let mut preselect: FxHashMap<u32, Vec<ElemId>> = FxHashMap::default();
    if config.preselect_link_targets {
        for l in &partitioning.cross_links {
            if let Some(p) = partitioning.partition_of_elem(collection, l.to) {
                preselect.entry(p).or_default().push(l.to);
            }
        }
    }

    let m = partitioning.len();
    let workers = match config.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(m.max(1));

    // One link index for every partition's walk, read-only.
    let links = LinkIndex::new(collection);
    let build_one = |p: usize| -> PartitionCover {
        let docs = DocSet::new(collection, partitioning.partitions[p].docs.iter().copied());
        let tc = docs.closure(&links);
        let builder = CoverBuilder::new(&tc);
        let (cover, stats) = match preselect.get(&(p as u32)) {
            Some(targets) => {
                let locals: Vec<u32> = targets.iter().filter_map(|&t| docs.local(t)).collect();
                builder.build_with_preselected(&locals)
            }
            None => builder.build_with_stats(),
        };
        (cover, docs.globals(), stats)
    };

    let built: Vec<PartitionCover> = if workers <= 1 || m <= 1 {
        (0..m).map(build_one).collect()
    } else {
        // Work-stealing over partition indices; results land in their slot.
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
    };

    let mut cover = TwoHopCover::new();
    if collection.elem_id_bound() > 0 {
        cover.ensure_node(collection.elem_id_bound() as u32 - 1);
    }
    let mut greedy = BuildStats::default();
    for (local_cover, map, stats) in &built {
        cover.merge_remapped(local_cover, map);
        greedy += stats;
    }
    (cover, greedy)
}

/// The §4.1 batch join: computes the transitive closure `H̄` of the
/// partition skeleton graph `S(P)` (whose nodes are just the cross-link
/// endpoints, with an edge for every intra-partition reach between two of
/// them), builds a 2-hop cover *of the skeleton*, and lifts its labels into
/// the global cover. Each skeleton label is lifted only from a nearest
/// skeleton node: `w ∈ L̄out(x)` goes to `Lout(a)` for an intra-partition
/// ancestor `a` of `x` only when no other skeleton node `x'` of the
/// partition has `a →* x' →* x`, and `w ∈ L̄in(y)` to `Lin(d)` only when no
/// other `y'` has `y →* y' →* d` (inside a strongly connected group of
/// skeleton nodes the smallest index is the nearest). Compressing the
/// skeleton first, and lifting each label once per element, is what keeps
/// the join's output near the size of a fresh flat cover.
///
/// Correctness: a cross-partition connection `a →* d` decomposes as
/// `a →* s` (intra-partition, `s` a link source), `s →̄* t` (skeleton) and
/// `t →* d` (intra-partition). Following nearer skeleton nodes from `s`
/// up and from `t` down ends at a nearest `x` with `a →* x →* s` and a
/// nearest `y` with `t →* y →* d`, both inside their partitions, so the
/// skeleton holds `x →̄* y`. If `x = y`, `a →* d` runs inside one
/// partition and that partition's cover holds it. Otherwise the skeleton
/// cover witnesses `x →̄* y` with some center `w` — stored, or one of the
/// implicit self labels, which the lift materializes for the nodes that
/// serve as centers — and `w` lands in `Lout(a)` and `Lin(d)`.
///
/// `cover` must be the output of [`build_partition_covers`] for the same
/// `partitioning`. Returns the label entries the join added, the skeleton's
/// shape and the skeleton cover's greedy counters.
pub fn psg_join(
    collection: &Collection,
    partitioning: &Partitioning,
    cover: &mut TwoHopCover,
) -> (usize, PsgJoinReport, BuildStats) {
    // The skeleton and its intra-partition rows come from the pre-join
    // cover, which is exact inside partitions and empty across them.
    let psg = PartitionSkeletonGraph::build(collection, partitioning, cover);
    let skeleton_tc = TransitiveClosure::from_graph(&psg.graph);
    let (skeleton_cover, skeleton_stats) = CoverBuilder::new(&skeleton_tc).build_with_stats();

    // The implicit self label `x ∈ L̄out(x)` is materialized only when `x`
    // witnesses connections as an `Lin` center, and `x ∈ L̄in(x)` only when
    // it does as an `Lout` center.
    let mut nearest = Nearest::new(psg.len(), collection.elem_id_bound());
    let (mut fan, mut rows) = (Vec::new(), Vec::new());
    let mut entries = 0usize;
    for x in 0..psg.len() as u32 {
        let self_label = |holders: &[u32]| (!holders.is_empty()).then_some(psg.nodes[x as usize]);
        fan.clear();
        fan.extend(
            skeleton_cover
                .lout(x)
                .iter()
                .map(|&w| psg.nodes[w as usize]),
        );
        fan.extend(self_label(skeleton_cover.holders_in(x)));
        if !fan.is_empty() {
            nearest.rows(
                &psg.nodes,
                &psg.anc,
                x,
                psg.above(x),
                psg.below(x),
                &mut rows,
            );
            for &a in &rows {
                for &w in &fan {
                    entries += usize::from(cover.add_out(a, w));
                }
            }
        }
        fan.clear();
        fan.extend(skeleton_cover.lin(x).iter().map(|&w| psg.nodes[w as usize]));
        fan.extend(self_label(skeleton_cover.holders_out(x)));
        if !fan.is_empty() {
            nearest.rows(
                &psg.nodes,
                &psg.desc,
                x,
                psg.below(x),
                psg.above(x),
                &mut rows,
            );
            for &d in &rows {
                for &w in &fan {
                    entries += usize::from(cover.add_in(d, w));
                }
            }
        }
    }

    let report = PsgJoinReport {
        nodes: psg.len(),
        edges: psg.graph.edge_count(),
    };
    (entries, report, skeleton_stats)
}

/// Reusable stamps for the nearest-node test of the PSG lift.
struct Nearest {
    /// Per element: the last pass that covered it from a nearer node.
    elem: Vec<u32>,
    /// Per skeleton node: the last pass that found it on the far side.
    node: Vec<u32>,
    pass: u32,
    nearer: Vec<u32>,
}

impl Nearest {
    fn new(nodes: usize, elements: usize) -> Self {
        Nearest {
            elem: vec![0; elements],
            node: vec![0; nodes],
            pass: 0,
            nearer: Vec::new(),
        }
    }

    /// Collects into `out` the elements of `rows[x]` for which `x` is a
    /// nearest skeleton node. `nodes` are the skeleton nodes' element ids
    /// and `rows` their intra-partition rows on one side (ancestors for the
    /// `Lout` lift, descendants for the `Lin` lift); `toward` are the
    /// skeleton nodes on that side of `x` and `away` those on the other. A
    /// node `x'` on `x`'s side is nearer for every element of `rows[x']`,
    /// unless it lies on both sides of `x` (one strongly connected group)
    /// with a larger index.
    fn rows(
        &mut self,
        nodes: &[ElemId],
        rows: &[Vec<ElemId>],
        x: u32,
        toward: impl Iterator<Item = u32>,
        away: impl Iterator<Item = u32>,
        out: &mut Vec<ElemId>,
    ) {
        out.clear();
        self.nearer.clear();
        self.nearer.extend(toward);
        if self.nearer.is_empty() {
            out.extend_from_slice(&rows[x as usize]);
            return;
        }
        self.pass += 1;
        let pass = self.pass;
        for y in away {
            self.node[y as usize] = pass;
        }
        let node = &self.node;
        self.nearer.retain(|&y| y < x || node[y as usize] != pass);
        // Widest rows first: a node inside an already stamped row has its
        // whole row inside it, so its row is skipped.
        self.nearer
            .sort_unstable_by_key(|&y| std::cmp::Reverse(rows[y as usize].len()));
        for &y in &self.nearer {
            if self.elem[nodes[y as usize] as usize] != pass {
                for &e in &rows[y as usize] {
                    self.elem[e as usize] = pass;
                }
            }
        }
        let elem = &self.elem;
        out.extend(
            rows[x as usize]
                .iter()
                .filter(|&&e| elem[e as usize] != pass),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioning::tests::reference_graph;
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
    fn labels_are_lifted_from_the_nearest_skeleton_node_only() {
        // P0 = {A, B} with the link A/s → B; P1 = {C}, whose two children
        // link to both roots. A's root reaches all of B inside P0, but B's
        // root is nearer to every element of B.
        let mut c = Collection::new();
        for name in ["A", "B", "C"] {
            let mut d = XmlDocument::new(name, "r");
            d.add_element(0, "s");
            d.add_element(0, "t");
            c.add_document(d);
        }
        let (a_root, a_s, b_root, b_leaf) = (0, 1, 3, 5);
        c.add_link(a_s, b_root);
        c.add_link(7, a_root);
        c.add_link(8, b_root);
        let p = Partitioning::from_assignment(&c, 2, vec![0, 0, 1]);
        let (mut cover, _) = build_partition_covers(&c, &p, &BuildConfig::default());
        let before = cover.clone();
        psg_join(&c, &p, &mut cover);

        // What each root fans out to `Lin` on the lift: its skeleton `Lin`
        // row and, when it serves as an `Lout` center, itself.
        let psg = PartitionSkeletonGraph::build(&c, &p, &before);
        let skeleton = CoverBuilder::new(&TransitiveClosure::from_graph(&psg.graph)).build();
        let fan = |e: ElemId| -> Vec<ElemId> {
            let x = psg.index[&e];
            let mut fan: Vec<ElemId> = skeleton
                .lin(x)
                .iter()
                .map(|&w| psg.nodes[w as usize])
                .collect();
            if !skeleton.holders_out(x).is_empty() {
                fan.push(e);
            }
            fan.sort_unstable();
            fan
        };
        // The row a label set leaves after the join: the partition cover's
        // row plus the fan.
        let joined = |e: ElemId, fan: &[ElemId]| -> Vec<ElemId> {
            let mut row: Vec<ElemId> = before.lin(e).iter().chain(fan).copied().collect();
            row.retain(|&w| w != e);
            row.sort_unstable();
            row.dedup();
            row
        };
        let (a_fan, b_fan) = (fan(a_root), fan(b_root));
        assert!(a_fan.iter().any(|w| !b_fan.contains(w)), "the fans differ");
        assert_eq!(
            cover.lin(b_leaf),
            joined(b_leaf, &b_fan),
            "B's root fan only"
        );
        assert_eq!(cover.lin(a_s), joined(a_s, &a_fan), "A's root fan");

        let index = HopiIndex::from_cover(cover);
        assert_exact(&c, &index);
    }

    #[test]
    fn all_configurations_exact() {
        let c = linked_collection();
        for partitioner in [
            PartitionerChoice::Flat,
            PartitionerChoice::PerDocument,
            PartitionerChoice::Tc(TcPartitionerConfig {
                max_connections_per_partition: 16,
                ..Default::default()
            }),
        ] {
            let (index, report) = build_index(
                &c,
                &BuildConfig {
                    partitioner,
                    ..Default::default()
                },
            );
            assert_exact(&c, &index);
            assert_eq!(report.cover_size, index.size());
            index.cover().check_invariants();
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
            ..Default::default()
        };
        let greedy = build_index(&c, &per_document).1.greedy;
        let one_document = {
            let partitioning = Partitioning::per_document(&c);
            let graph = reference_graph(&c, &partitioning.partitions[0].docs);
            let tc = TransitiveClosure::from_graph(&graph);
            CoverBuilder::new(&tc).build_with_stats().1
        };
        assert!(greedy.centers > 3 * one_document.centers);
        assert!(greedy.densest_evals > 3 * one_document.densest_evals);
        assert!(greedy.peel_offered > 3 * one_document.peel_offered);
        assert!(greedy.peel_removed <= greedy.peel_offered);
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

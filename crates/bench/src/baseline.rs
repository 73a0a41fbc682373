//! The §3.3 baselines of Table 2 from the engine's two pipeline stages: a
//! partitioning — the node-capped partitioner of [26]
//! ([`crate::old_partitioner`]) or one of the engine's — the merged
//! per-partition covers, then the §3.3 join ([`crate::old_join`]) or the
//! engine's PSG join. `table2`'s `baseline` row is the node-capped
//! partitioner under the §3.3 join, its `Px` rows under the PSG join.

use crate::old_join::integrate_link;
use hopi_build::{BuildConfig, BuildReport, HopiIndex};
use hopi_partition::{build_partition_covers, psg_join, Partitioning};
use hopi_xml::Collection;
use std::time::Instant;

/// How a baseline build joins the partition covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Join {
    /// §3.3: integrate `L_P` one link at a time into the merged cover.
    Incremental,
    /// §4.1: the engine's batch join over the partition skeleton graph.
    Psg,
}

/// Builds the index of `collection` over the partitioning `partition`
/// computes, with the covers joined by `join`, and reports it as
/// [`hopi_build::build_index`] does. `config` supplies the center
/// preselection and the worker count; its partitioner is not read.
pub fn build(
    collection: &Collection,
    partition: impl FnOnce(&Collection) -> Partitioning,
    join: Join,
    config: &BuildConfig,
) -> (HopiIndex, BuildReport) {
    let t_total = Instant::now();
    let partitioning = partition(collection);
    let partition_ms = t_total.elapsed().as_millis() as u64;

    let t_covers = Instant::now();
    let (mut cover, mut greedy) = build_partition_covers(collection, &partitioning, config);
    let covers_ms = t_covers.elapsed().as_millis() as u64;

    let t_join = Instant::now();
    let (mut join_entries, mut psg) = (0usize, None);
    match join {
        _ if partitioning.cross_links.is_empty() => {}
        Join::Incremental => {
            for l in &partitioning.cross_links {
                join_entries += integrate_link(&mut cover, l.from, l.to);
            }
        }
        Join::Psg => {
            let (entries, report, skeleton_stats) = psg_join(collection, &partitioning, &mut cover);
            join_entries = entries;
            psg = Some(report);
            greedy += &skeleton_stats;
        }
    }

    let report = BuildReport {
        partitions: partitioning.len(),
        cross_links: partitioning.cross_links.len(),
        cover_size: cover.size(),
        join_entries,
        partition_ms,
        covers_ms,
        join_ms: t_join.elapsed().as_millis() as u64,
        total_ms: t_total.elapsed().as_millis() as u64,
        psg,
        greedy,
    };
    (HopiIndex::from_cover(cover), report)
}

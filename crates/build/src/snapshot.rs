//! [`HopiSnapshot`]: an immutable, self-contained serving view of a
//! [`Hopi`](crate::Hopi) engine.
//!
//! The paper's 24×7 scenario (§1.1) is read-dominated: millions of probes
//! against an index that changes comparatively rarely. A snapshot packages
//! everything query evaluation needs — the cover frozen into CSR form
//! ([`hopi_core::FrozenCover`]), the tag index, and the collection metadata
//! — behind an `Arc`, so any number of reader threads share one immutable
//! structure with **no lock held during query evaluation**.
//! [`crate::OnlineHopi`] swaps a fresh snapshot in after each mutation
//! batch or background rebuild (epoch style): in-flight readers keep the
//! epoch they started with, new readers pick up the new one.
//!
//! Consecutive epochs share what the mutation between them left alone:
//! the document table (behind one `Arc` inside [`Collection`]), the tag
//! index and the frozen term index; and the frozen cover of an epoch is
//! patched from its predecessor's, sharing every row block the mutation
//! did not dirty (see [`FrozenCover::patched`]).

use crate::error::HopiError;
use crate::facade::QueryOptions;
use hopi_core::{BuildStats, DistanceCover, FrozenCover};
use hopi_maintenance::{
    BuildBaseline, Degradation, DeletionAlgorithm, DeletionCounts, EntriesAdded, IntegrationCounts,
};
use hopi_obs::{Histogram, HistogramSnapshot};
use hopi_partition::BuildReport;
use hopi_query::{
    evaluate_ranked_with_text, parse_path, PlanCounters, PlanCounts, QueryPlanReport, RankedMatch,
    TagIndex,
};
use hopi_text::{FrozenTextIndex, TextSource};
use hopi_xml::{Collection, ElemId};
use std::sync::Arc;

/// Wall-clock milliseconds of each phase that produced the snapshot's
/// index: the paper's §4 partition → per-partition covers → cover join
/// pipeline, plus the CSR freeze performed at capture time. Rebuilds
/// (`POST /admin/rebuild`) refresh these; `/stats` exposes them so the
/// cost balance between phases is observable in production, not just in
/// the bench harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildPhaseTimings {
    /// Partitioning the collection graph (§4.3 partitioner).
    pub partition_ms: u64,
    /// Building per-partition covers (§3.3).
    pub covers_ms: u64,
    /// Joining covers across partitions (§4.1).
    pub join_ms: u64,
    /// Freezing the cover into serving CSR form — the last *full* freeze;
    /// the patches that publish most epochs leave it standing (their cost
    /// is [`SnapshotStats::publish`]).
    pub freeze_ms: u64,
    /// Build total (partition + covers + join) plus the freeze.
    pub total_ms: u64,
}

impl BuildPhaseTimings {
    pub(crate) fn from_report(report: &BuildReport, freeze_ms: u64) -> Self {
        BuildPhaseTimings {
            partition_ms: report.partition_ms,
            covers_ms: report.covers_ms,
            join_ms: report.join_ms,
            freeze_ms,
            total_ms: report.total_ms + freeze_ms,
        }
    }
}

/// How a snapshot came to be (see [`SnapshotStats::publish`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// Wall time of the capture, microseconds.
    pub micros: u64,
    /// Was the frozen cover patched from the previous epoch's (`true`) or
    /// frozen in full (`false`: first capture of an engine, after a
    /// rebuild, or a mutation that touched more rows than the cover has)?
    pub patched: bool,
    /// Label and holder rows the patch took from the mutable cover (0 for
    /// a full freeze).
    pub rows_patched: usize,
    /// Bytes of the frozen blocks the capture wrote: the blocks a patch
    /// rebuilt, or every block of a full freeze — plus, on a
    /// distance-aware engine, the distance cover it re-froze. Blocks shared
    /// with the previous epoch cost nothing here.
    pub bytes: usize,
}

impl PublishStats {
    /// `"patched"` or `"full"` — the `kind` label of
    /// `hopi_publish_total`.
    pub fn kind(&self) -> &'static str {
        if self.patched {
            "patched"
        } else {
            "full"
        }
    }
}

/// What §6 maintenance has done to an engine's cover (see
/// [`SnapshotStats::maintenance`] and [`crate::Hopi::maintenance_stats`]).
/// The drift baseline is reset by every build and rebuild, and saved with
/// the cover so it survives a reopen or a crash recovery; the counters run
/// for the engine's lifetime, across rebuilds, and start at zero when an
/// engine is opened or recovered.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// The cover and the collection as the last build or rebuild left them.
    pub at_build: BuildBaseline,
    /// §6.1 link integrations (standalone and document links) by choice.
    pub integrations: IntegrationCounts,
    /// §6.2 deletions by algorithm, and the connections Theorem 3
    /// re-covered.
    pub deletions: DeletionCounts,
    /// Net change in cover entries per operation kind.
    pub entries_added: EntriesAdded,
}

impl MaintenanceStats {
    /// No maintenance yet, on a cover just built to `at_build`.
    pub(crate) fn since(at_build: BuildBaseline) -> Self {
        MaintenanceStats {
            at_build,
            ..Self::default()
        }
    }
}

/// Wall time of the §6 maintenance calls per operation kind
/// ([`EntriesAdded::OPS`]), behind `hopi_maintenance_duration_seconds`.
/// A sample times the `hopi_maintenance` call alone, not the WAL append,
/// the tag and text indexes or the snapshot publish around it. An engine
/// shares these with its snapshots and hands them on to the engine a
/// rebuild swaps in, like the plan counters.
#[derive(Debug, Default)]
pub(crate) struct MaintenanceDurations {
    pub(crate) insert_link: Histogram,
    pub(crate) insert_document: Histogram,
    delete_separator: Histogram,
    delete_general: Histogram,
}

impl MaintenanceDurations {
    /// The histogram a deletion by `algorithm` records into.
    pub(crate) fn deletion(&self, algorithm: DeletionAlgorithm) -> &Histogram {
        match algorithm {
            DeletionAlgorithm::FastSeparator => &self.delete_separator,
            DeletionAlgorithm::General => &self.delete_general,
        }
    }

    /// `(op label, duration distribution)` pairs, in exposition order.
    pub(crate) fn as_labeled(&self) -> [(&'static str, HistogramSnapshot); 4] {
        let [link, document, separator, general] = EntriesAdded::OPS;
        [
            (link, self.insert_link.snapshot()),
            (document, self.insert_document.snapshot()),
            (separator, self.delete_separator.snapshot()),
            (general, self.delete_general.snapshot()),
        ]
    }
}

/// A point-in-time summary of a serving snapshot (see
/// [`HopiSnapshot::stats`] / [`crate::OnlineHopi::snapshot_stats`]): the
/// epoch it was published at plus the sizes a monitoring endpoint wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotStats {
    /// The serving epoch this snapshot was published at. Epochs are
    /// assigned by [`crate::OnlineHopi`] and strictly increase with every
    /// published snapshot; direct [`crate::Hopi::snapshot`] captures are
    /// epoch 0.
    pub epoch: u64,
    /// Live documents at capture time.
    pub documents: usize,
    /// Live elements at capture time.
    pub elements: usize,
    /// Inter-document links at capture time.
    pub links: usize,
    /// Nodes covered by the frozen cover (element-id bound).
    pub nodes: usize,
    /// Cover size `|L|` of the frozen cover.
    pub cover_entries: usize,
    /// Whether the snapshot answers [`HopiSnapshot::distance`] /
    /// [`HopiSnapshot::query_ranked`].
    pub distance_aware: bool,
    /// Per-strategy `//`-step execution totals of the engine this snapshot
    /// was captured from (shared counters: queries against *any* snapshot
    /// of the engine tally here, so `/stats` scrapes see plan choices
    /// move).
    pub plan: PlanCounts,
    /// Distinct terms in the frozen term index.
    pub text_vocabulary: usize,
    /// Postings (term, element) entries in the frozen term index.
    pub text_postings: usize,
    /// Bytes of the frozen posting buffers (ids + frequencies).
    pub text_postings_bytes: usize,
    /// Elements carrying text at capture time.
    pub text_indexed_elements: usize,
    /// Per-phase wall times of the build that produced this snapshot's
    /// index (partition / covers / join / freeze).
    pub build: BuildPhaseTimings,
    /// Greedy-kernel counters of that build (centers committed, center
    /// graphs evaluated, vertices offered to / removed by the peels).
    pub greedy: BuildStats,
    /// What capturing this snapshot cost, and how its cover was frozen.
    pub publish: PublishStats,
    /// §6 drift baseline and counters of the engine at capture time.
    pub maintenance: MaintenanceStats,
}

impl SnapshotStats {
    /// The snapshot's cover measured against the last build: the drift
    /// ratio behind `hopi_cover_drift_ratio`.
    pub fn degradation(&self) -> Degradation {
        Degradation::measure(self.cover_entries, self.elements, self.maintenance.at_build)
    }
}

/// A point-in-time, immutable serving view of an engine: frozen cover +
/// tag index + collection. Obtained from [`crate::Hopi::snapshot`] (or
/// continuously refreshed by [`crate::OnlineHopi`]).
///
/// ```
/// use hopi_build::Hopi;
///
/// let hopi = Hopi::builder().parse([
///     ("a", r#"<r><cite xlink:href="b"/></r>"#),
///     ("b", "<r><sec/></r>"),
/// ])?;
/// let snap = hopi.snapshot();
///
/// // Same answers as the live engine, from flat CSR arrays.
/// let a = snap.resolve("a", "")?;
/// assert_eq!(snap.query("//r//sec")?, hopi.query("//r//sec")?);
/// assert!(snap.connected(a, snap.query("//sec")?[0]));
/// # Ok::<(), hopi_build::HopiError>(())
/// ```
#[derive(Clone, Debug)]
pub struct HopiSnapshot {
    pub(crate) collection: Collection,
    pub(crate) frozen: FrozenCover,
    /// Distance-annotated frozen cover, when the engine is distance-aware.
    pub(crate) frozen_distance: Option<FrozenCover>,
    /// The mutable-form distance cover, kept for ranked evaluation.
    pub(crate) ranked: Option<DistanceCover>,
    /// Shared with the engine and the neighbouring epochs until a
    /// document comes or goes.
    pub(crate) tags: Arc<TagIndex>,
    /// Frozen term-level inverted index, shared likewise until a mutation
    /// changes text (content predicates consult it).
    pub(crate) text: Arc<FrozenTextIndex>,
    pub(crate) options: QueryOptions,
    /// The serving epoch this snapshot was published at (see
    /// [`SnapshotStats::epoch`]).
    pub(crate) epoch: u64,
    /// Engine-shared per-strategy execution counters (every query against
    /// this snapshot tallies its `//`-step plans here).
    pub(crate) plan_counters: Arc<PlanCounters>,
    /// Phase timings of the build behind this snapshot (see
    /// [`BuildPhaseTimings`]).
    pub(crate) build: BuildPhaseTimings,
    /// Greedy-kernel counters of that build.
    pub(crate) greedy: BuildStats,
    /// How this snapshot was captured (see [`PublishStats`]).
    pub(crate) publish: PublishStats,
    /// The engine's §6 drift baseline and counters at capture time.
    pub(crate) maintenance: MaintenanceStats,
    /// Engine-shared §6 call latencies (live, not as of capture).
    pub(crate) maintenance_durations: Arc<MaintenanceDurations>,
}

impl HopiSnapshot {
    /// The connection test `u →* v` (reflexive), allocation-free.
    pub fn connected(&self, u: ElemId, v: ElemId) -> bool {
        self.frozen.connected(u, v)
    }

    /// Batched connection probes (§3.4-style join kernel): `out[i]` answers
    /// `pairs[i]`, reusing the caller's buffer across batches.
    pub fn connected_many(&self, pairs: &[(ElemId, ElemId)], out: &mut Vec<bool>) {
        self.frozen.connected_many(pairs, out);
    }

    /// Shortest link distance `u →* v` (`None` = unreachable). Needs a
    /// snapshot of a distance-aware engine.
    pub fn distance(&self, u: ElemId, v: ElemId) -> Result<Option<u32>, HopiError> {
        let frozen = self
            .frozen_distance
            .as_ref()
            .ok_or(HopiError::DistanceDisabled)?;
        Ok(frozen.distance(u, v))
    }

    /// Everything `u` reaches (descendants-or-self), sorted.
    pub fn descendants(&self, u: ElemId) -> Vec<ElemId> {
        self.frozen.descendants(u)
    }

    /// Everything reaching `u` (ancestors-or-self), sorted.
    pub fn ancestors(&self, u: ElemId) -> Vec<ElemId> {
        self.frozen.ancestors(u)
    }

    /// Evaluates a path expression against the frozen cover. Same answers
    /// as [`crate::Hopi::query`] on the engine the snapshot was taken
    /// from. Runs on the calling thread's reusable evaluator, so
    /// steady-state serving evaluates `//` steps without allocating; the
    /// planner's strategy choices are tallied into the engine-shared plan
    /// counters.
    pub fn query(&self, expr: &str) -> Result<Vec<ElemId>, HopiError> {
        crate::facade::run_query(
            &self.collection,
            &self.frozen,
            &self.tags,
            &self.options,
            &self.plan_counters,
            Some(self.text.as_ref()),
            expr,
        )
    }

    /// Like [`HopiSnapshot::query`], but also returns the EXPLAIN-style
    /// per-step plan report.
    pub fn query_explained(&self, expr: &str) -> Result<(Vec<ElemId>, QueryPlanReport), HopiError> {
        crate::facade::run_query_explained(
            &self.collection,
            &self.frozen,
            &self.tags,
            &self.options,
            &self.plan_counters,
            Some(self.text.as_ref()),
            expr,
        )
    }

    /// Distance-ranked path evaluation (paper §5.1), with BM25 content
    /// fusion from the final step's predicate. Needs a snapshot of a
    /// distance-aware engine.
    pub fn query_ranked(&self, expr: &str) -> Result<Vec<RankedMatch>, HopiError> {
        let cover = self.ranked.as_ref().ok_or(HopiError::DistanceDisabled)?;
        let parsed = parse_path(expr)?;
        let mut matches = evaluate_ranked_with_text(
            &self.collection,
            cover,
            &self.tags,
            &parsed,
            Some(self.text.as_ref()),
        );
        if let Some(k) = self.options.top_k {
            matches.truncate(k);
        }
        Ok(matches)
    }

    /// Resolves a `docname` / `docname#anchor` reference to an element id.
    pub fn resolve(&self, doc: &str, anchor: &str) -> Result<ElemId, HopiError> {
        self.collection
            .resolve_ref(doc, anchor)
            .ok_or_else(|| HopiError::UnresolvedRef {
                doc: doc.to_string(),
                anchor: anchor.to_string(),
            })
    }

    /// The snapshotted collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// The frozen cover (expert escape hatch — e.g. for
    /// [`hopi_store::save_frozen`] or custom probe loops).
    pub fn frozen(&self) -> &FrozenCover {
        &self.frozen
    }

    /// The distance-annotated frozen cover, when distance-aware.
    pub fn frozen_distance(&self) -> Option<&FrozenCover> {
        self.frozen_distance.as_ref()
    }

    /// The snapshotted tag index.
    pub fn tags(&self) -> &TagIndex {
        &self.tags
    }

    /// The frozen term-level inverted index (shared across snapshot
    /// epochs; expert escape hatch).
    pub fn text(&self) -> &Arc<FrozenTextIndex> {
        &self.text
    }

    /// Cover size `|L|` of the frozen cover (matches the engine's
    /// [`crate::Stats::cover_entries`] at capture time).
    pub fn cover_entries(&self) -> usize {
        self.frozen.size()
    }

    /// The serving epoch this snapshot was published at.
    /// [`crate::OnlineHopi`] assigns strictly increasing epochs with every
    /// published snapshot; direct [`crate::Hopi::snapshot`] captures are
    /// epoch 0.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Summary of this snapshot for observability endpoints.
    pub fn stats(&self) -> SnapshotStats {
        SnapshotStats {
            epoch: self.epoch,
            documents: self.collection.doc_count(),
            elements: self.collection.element_count(),
            links: self.collection.links().len(),
            nodes: self.frozen.num_nodes(),
            cover_entries: self.frozen.size(),
            distance_aware: self.frozen_distance.is_some(),
            plan: self.plan_counters.counts(),
            text_vocabulary: self.text.vocab_len(),
            text_postings: self.text.stats().postings,
            text_postings_bytes: self.text.postings_bytes(),
            text_indexed_elements: self.text.indexed_elements(),
            build: self.build,
            greedy: self.greedy,
            publish: self.publish,
            maintenance: self.maintenance,
        }
    }

    /// The query tunables captured with the snapshot.
    pub fn query_options(&self) -> &QueryOptions {
        &self.options
    }
}

//! The [`Hopi`] engine: one handle over the whole index lifecycle.
//!
//! The expert layer splits HOPI into free functions across eight crates
//! (build in `hopi_partition::pipeline`, queries in `hopi_query`,
//! maintenance in `hopi_maintenance`, …), each moving bare tuples of
//! collection/index/tag-index state. `Hopi` owns that state as one engine:
//! build it with [`Hopi::builder`], then query and maintain it through
//! inherent methods, with [`HopiError`] as the single error type.

use crate::error::HopiError;
use crate::snapshot::{MaintenanceDurations, MaintenanceStats};
use hopi_core::{DistanceCover, DistanceCoverBuilder, FrozenCover, HopiIndex};
use hopi_graph::DistanceClosure;
use hopi_maintenance::{
    degradation, delete_document, delete_link, insert_document, insert_link, should_rebuild,
    BuildBaseline, Degradation, DeletionAlgorithm, DeletionOutcome, DocumentLinks, RebuildPolicy,
};
use hopi_obs::Stopwatch;
use hopi_partition::{build_index, BuildConfig, BuildReport, JoinAlgorithm, PartitionerChoice};
use hopi_query::{
    evaluate_ranked_with_text, parse_path, with_thread_evaluator, EvalOptions, PlanCounters,
    QueryPlanReport, RankedMatch, TagIndex,
};
use hopi_store::{load_index, save_frozen, CoverBaseline, StdVfs, WalRecord};
use hopi_text::{FrozenTextIndex, TextIndex, TextSource, TextStats};
use hopi_xml::parser::{parse_collection, parse_document};
use hopi_xml::{Collection, DocId, ElemId, XmlDocument};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// Tunables of the facade's query methods.
#[derive(Clone, Copy, Debug)]
pub struct QueryOptions {
    /// Planner shortcut for `//` steps: at or under this many candidate
    /// probes (`|context| × |candidates|`) a step stays on pairwise
    /// reachability probes; above it the step is planned cost-based
    /// across probes and the two hop joins (see
    /// [`hopi_query::EvalOptions`]).
    pub probe_budget: usize,
    /// Keep only the best `k` results of [`Hopi::query_ranked`]
    /// (`None` = all).
    pub top_k: Option<usize>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            probe_budget: EvalOptions::default().probe_budget,
            top_k: None,
        }
    }
}

impl QueryOptions {
    pub(crate) fn eval_options(&self) -> EvalOptions {
        EvalOptions {
            probe_budget: self.probe_budget,
            ..EvalOptions::default()
        }
    }
}

/// The query-execution path shared by [`Hopi`] and
/// [`crate::HopiSnapshot`]: parse, evaluate on the calling thread's
/// reusable evaluator against any label source, and fold the run's
/// strategy tally into the engine-shared counters.
pub(crate) fn run_query<S: hopi_core::LabelSource>(
    collection: &Collection,
    source: &S,
    tags: &TagIndex,
    options: &QueryOptions,
    counters: &PlanCounters,
    text: Option<&dyn TextSource>,
    expr: &str,
) -> Result<Vec<ElemId>, HopiError> {
    let parsed = parse_path(expr)?;
    let options = options.eval_options();
    Ok(with_thread_evaluator(|ev| {
        let result = ev.evaluate_with_text(collection, source, tags, &parsed, &options, text);
        counters.add(ev.strategy_counts());
        result
    }))
}

/// [`run_query`] with the EXPLAIN-style per-step plan report alongside.
pub(crate) fn run_query_explained<S: hopi_core::LabelSource>(
    collection: &Collection,
    source: &S,
    tags: &TagIndex,
    options: &QueryOptions,
    counters: &PlanCounters,
    text: Option<&dyn TextSource>,
    expr: &str,
) -> Result<(Vec<ElemId>, QueryPlanReport), HopiError> {
    let parsed = parse_path(expr)?;
    let options = options.eval_options();
    Ok(with_thread_evaluator(|ev| {
        let out =
            ev.evaluate_explained_with_text(collection, source, tags, &parsed, &options, text);
        counters.add(ev.strategy_counts());
        out
    }))
}

/// A point-in-time summary of an engine (see [`Hopi::stats`]).
#[derive(Clone, Debug)]
pub struct Stats {
    /// Live documents.
    pub documents: usize,
    /// Live elements.
    pub elements: usize,
    /// Inter-document links.
    pub links: usize,
    /// Cover size `|L|` (stored label entries).
    pub cover_entries: usize,
    /// Cover entries per live element (the paper's INEX yardstick).
    pub entries_per_element: f64,
    /// Entries of the distance cover, when distance queries are enabled.
    pub distance_entries: Option<usize>,
    /// Term-index summary: vocabulary size, posting counts and bytes.
    pub text: TextStats,
}

/// Configures and builds a [`Hopi`] engine (see [`Hopi::builder`]).
#[derive(Clone, Debug, Default)]
pub struct HopiBuilder {
    config: BuildConfig,
    options: QueryOptions,
    distance_aware: bool,
}

impl HopiBuilder {
    /// Chooses the document-graph partitioner (default: the closure-budget
    /// partitioner of paper §4.3).
    pub fn partitioner(mut self, partitioner: PartitionerChoice) -> Self {
        self.config.partitioner = partitioner;
        self
    }

    /// Chooses the cover-join algorithm (default: the PSG join of §4.1).
    pub fn join(mut self, join: JoinAlgorithm) -> Self {
        self.config.join = join;
        self
    }

    /// Preselects cross-partition link targets as centers (paper §4.2).
    pub fn preselect_link_targets(mut self, on: bool) -> Self {
        self.config.preselect_link_targets = on;
        self
    }

    /// PSG-join recursion threshold (see
    /// [`BuildConfig::psg_direct_threshold`]).
    pub fn psg_direct_threshold(mut self, threshold: usize) -> Self {
        self.config.psg_direct_threshold = threshold;
        self
    }

    /// Worker threads for per-partition cover construction (`0` = one per
    /// CPU). The built cover is identical for any value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Additionally maintains the distance-aware cover of paper §5,
    /// enabling [`Hopi::distance`] and [`Hopi::query_ranked`].
    pub fn distance_aware(mut self, on: bool) -> Self {
        self.distance_aware = on;
        self
    }

    /// Sets the whole build configuration at once (expert escape hatch).
    pub fn config(mut self, config: BuildConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the query tunables.
    pub fn query_options(mut self, options: QueryOptions) -> Self {
        self.options = options;
        self
    }

    /// Probe-vs-enumerate budget of `//` steps (see [`QueryOptions`]).
    pub fn probe_budget(mut self, probe_budget: usize) -> Self {
        self.options.probe_budget = probe_budget;
        self
    }

    /// Builds the engine over a collection.
    pub fn build(self, collection: Collection) -> Result<Hopi, HopiError> {
        let (index, report) = build_index(&collection, &self.config);
        let tags = TagIndex::build(&collection);
        let distance = self
            .distance_aware
            .then(|| build_distance_cover(&collection));
        let text = TextIndex::build(&collection);
        let maintenance = MaintenanceStats::since(BuildBaseline::measure(&collection, &index));
        Ok(Hopi {
            collection,
            index,
            tags: Arc::new(tags),
            distance,
            text,
            frozen_text: OnceLock::new(),
            config: self.config,
            options: self.options,
            report,
            plan_counters: Arc::new(PlanCounters::new()),
            maintenance,
            maintenance_durations: Arc::default(),
        })
    }

    /// Parses `(name, xml)` documents into a collection and builds the
    /// engine over it.
    pub fn parse<'a>(
        self,
        docs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> Result<Hopi, HopiError> {
        self.build(parse_collection(docs)?)
    }

    /// Reconstructs an engine from an index persisted with
    /// [`Hopi::save_frozen`] (or a row-table file of an older build, which
    /// loads one way into the same form), skipping the build but keeping
    /// this builder's configuration for future [`Hopi::rebuild`]s and
    /// queries. The distance cover is restored from the file's DIST data
    /// when present, or built fresh when the builder asked for
    /// [`distance_aware`](Self::distance_aware). The file thaws with no
    /// re-sorting — rows are stored sorted — so opening for serving is
    /// cheap.
    ///
    /// Drift ([`Hopi::degradation`]) keeps being measured against the
    /// build the saved cover was maintained from, whose baseline the file
    /// carries. Files without one — written before store format 4, or by
    /// a distance-aware engine, whose plain index reopens from the
    /// distance labels — count the opened cover as freshly built.
    pub fn open(self, collection: Collection, path: &Path) -> Result<Hopi, HopiError> {
        let (frozen, baseline) = load_index(&StdVfs, path)?;
        Ok(self.open_frozen(collection, &frozen, baseline))
    }

    /// Assembles an engine from a loaded frozen cover and the build
    /// baseline saved with it (the shared tail of [`HopiBuilder::open`]
    /// and durable-checkpoint recovery).
    pub(crate) fn open_frozen(
        self,
        collection: Collection,
        frozen: &FrozenCover,
        baseline: Option<CoverBaseline>,
    ) -> Hopi {
        let distance = frozen.thaw_distance().or_else(|| {
            self.distance_aware
                .then(|| build_distance_cover(&collection))
        });
        // A distance-annotated file carries the *distance* cover's labels;
        // they are exact for reachability too, so the plain index thaws
        // from the same rows.
        let index = HopiIndex::from_cover(frozen.thaw());
        let tags = TagIndex::build(&collection);
        let text = TextIndex::build(&collection);
        let report = BuildReport {
            cover_size: index.size(),
            ..Default::default()
        };
        let at_build = match baseline {
            Some(b) => BuildBaseline {
                entries: b.entries as usize,
                live_elements: b.live_elements as usize,
            },
            // Nothing saved: the opened cover stands in for a build.
            None => BuildBaseline::measure(&collection, &index),
        };
        let maintenance = MaintenanceStats::since(at_build);
        Hopi {
            collection,
            index,
            tags: Arc::new(tags),
            distance,
            text,
            frozen_text: OnceLock::new(),
            config: self.config,
            options: self.options,
            report,
            plan_counters: Arc::new(PlanCounters::new()),
            maintenance,
            maintenance_durations: Arc::default(),
        }
    }
}

impl HopiBuilder {
    /// Recovers an engine from a durable state directory written by
    /// [`crate::OnlineHopi::open_durable`]: loads `checkpoint.hopi` and
    /// replays the `wal.log` tail past the checkpoint's sequence number.
    /// A torn final WAL record (crash mid-append) is truncated, not an
    /// error — such a record was never durable, hence never acknowledged.
    pub fn recover(self, dir: &Path) -> Result<Hopi, HopiError> {
        let config = crate::durable::DurableConfig::new(dir);
        // Held only for the recovery itself (which may truncate a torn
        // WAL tail); the returned engine is detached from the directory.
        let _lock = crate::durable::DirLock::acquire(&*config.vfs, dir)?;
        let (engine, _wal, _seq) = crate::durable::recover_dir(&config, self)?;
        Ok(engine)
    }
}

/// The HOPI engine: an XML collection, its 2-hop connection index, and the
/// query/maintenance machinery behind one handle.
///
/// ```
/// use hopi_build::Hopi;
///
/// let mut hopi = Hopi::builder().parse([
///     ("survey", r#"<article><cite xlink:href="paper"/></article>"#),
///     ("paper", r#"<article><sec id="s1"><p/></sec></article>"#),
/// ])?;
///
/// // Reachability across the citation link…
/// let survey = hopi.resolve("survey", "")?;
/// let sec = hopi.resolve("paper", "s1")?;
/// assert!(hopi.connected(survey, sec));
///
/// // …and path queries with wildcards over the same engine.
/// assert_eq!(hopi.query("//article//p")?.len(), 1);
/// assert!(hopi.query("//survey//nothing")?.is_empty());
/// # Ok::<(), hopi_build::HopiError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Hopi {
    collection: Collection,
    index: HopiIndex,
    /// Shared with the snapshots captured since a document last came or
    /// went; such a change copies it first (`Arc::make_mut`).
    tags: Arc<TagIndex>,
    distance: Option<DistanceCover>,
    /// Term-level inverted index over element text, kept in lockstep with
    /// the collection (content predicates consult it).
    text: TextIndex,
    /// The frozen form of `text`: built by the first capture that needs
    /// it, shared by every snapshot until a mutation changes text.
    frozen_text: OnceLock<Arc<FrozenTextIndex>>,
    config: BuildConfig,
    options: QueryOptions,
    report: BuildReport,
    /// Per-strategy `//`-step execution counters, shared with every
    /// snapshot captured from this engine (and with clones of it), so the
    /// serving layer can expose which physical plans actually ran.
    pub(crate) plan_counters: Arc<PlanCounters>,
    /// Drift baseline of the last build, and what §6 maintenance has done
    /// to the cover since the engine was built, opened or recovered.
    maintenance: MaintenanceStats,
    /// Latency of those §6 calls, shared with every snapshot captured from
    /// this engine (and with clones of it), like `plan_counters`.
    maintenance_durations: Arc<MaintenanceDurations>,
}

/// The signed change of a cover's entry count from `before` to `after`.
fn net_entries(before: usize, after: usize) -> i64 {
    after as i64 - before as i64
}

fn build_distance_cover(collection: &Collection) -> DistanceCover {
    let closure = DistanceClosure::from_graph(&collection.element_graph());
    DistanceCoverBuilder::new(&closure).build()
}

impl Hopi {
    /// Starts configuring an engine.
    ///
    /// ```
    /// use hopi_build::{Hopi, JoinAlgorithm, PartitionerChoice};
    /// use hopi_xml::{Collection, XmlDocument};
    ///
    /// let mut collection = Collection::new();
    /// collection.add_document(XmlDocument::new("doc", "root"));
    ///
    /// let hopi = Hopi::builder()
    ///     .partitioner(PartitionerChoice::PerDocument)
    ///     .join(JoinAlgorithm::Psg)
    ///     .distance_aware(true)
    ///     .build(collection)?;
    /// assert_eq!(hopi.stats().documents, 1);
    /// # Ok::<(), hopi_build::HopiError>(())
    /// ```
    pub fn builder() -> HopiBuilder {
        HopiBuilder::default()
    }

    /// Builds an engine over a collection with the default configuration.
    pub fn build(collection: Collection) -> Result<Hopi, HopiError> {
        Hopi::builder().build(collection)
    }

    /// Reconstructs an engine from a collection and an index persisted with
    /// [`Hopi::save_frozen`], skipping the build. A distance-aware save
    /// restores a distance-aware engine. Future [`Hopi::rebuild`]s use the
    /// *default* build configuration; open through
    /// [`HopiBuilder::open`](HopiBuilder::open) to choose a different one.
    pub fn open(collection: Collection, path: &Path) -> Result<Hopi, HopiError> {
        Hopi::builder().open(collection, path)
    }

    /// Recovers an engine from a durable state directory: the last
    /// checkpoint plus a replay of any WAL tail past it (see
    /// [`HopiBuilder::recover`]). Every mutation that was acknowledged
    /// durably before a crash is present in the recovered engine.
    pub fn recover(dir: &Path) -> Result<Hopi, HopiError> {
        Hopi::builder().recover(dir)
    }

    /// Persists the index as a frozen CSR blob — the serving layout and
    /// the one index file format. [`Hopi::open`] (and the builder's `open`)
    /// thaw it without re-sorting; [`hopi_store::load_index`] loads it
    /// straight into a [`hopi_core::FrozenCover`] for pure read-only
    /// serving. A distance-aware engine freezes the distance cover
    /// (annotations included), so distance queries survive the round trip.
    pub fn save_frozen(&self, path: &Path) -> Result<(), HopiError> {
        save_frozen(&StdVfs, &self.freeze(), path, self.saved_baseline())?;
        Ok(())
    }

    /// The drift baseline saved beside the cover, so a reopened or
    /// recovered engine keeps measuring drift against the last build.
    /// `None` for a distance-aware engine: it saves the distance cover's
    /// labels and reopens its plain index from them, a different cover
    /// from the one the baseline measured.
    pub(crate) fn saved_baseline(&self) -> Option<CoverBaseline> {
        let b = self.maintenance.at_build;
        self.distance.is_none().then_some(CoverBaseline {
            entries: b.entries as u64,
            live_elements: b.live_elements as u64,
        })
    }

    /// The engine's cover in the frozen serving layout (distance
    /// annotations included for a distance-aware engine) — what
    /// [`Hopi::save_frozen`] persists and what a durable checkpoint
    /// stores.
    pub(crate) fn freeze(&self) -> FrozenCover {
        match &self.distance {
            Some(cover) => FrozenCover::from_distance_cover(cover),
            None => FrozenCover::from_cover(self.index.cover()),
        }
    }

    // ------------------------------------------------------------------
    // Queries.
    // ------------------------------------------------------------------

    /// The connection test: is `u` an ancestor of `v` along parent/child
    /// and link axes (reflexive)?
    pub fn connected(&self, u: ElemId, v: ElemId) -> bool {
        self.index.connected(u, v)
    }

    /// Batched connection probes: `out[i]` answers `pairs[i]`, reusing the
    /// caller's buffer across batches. Same contract as
    /// [`HopiSnapshot::connected_many`](crate::HopiSnapshot::connected_many)
    /// (which runs the frozen §3.4-style join kernel); this form probes the
    /// live mutable cover.
    pub fn connected_many(&self, pairs: &[(ElemId, ElemId)], out: &mut Vec<bool>) {
        out.clear();
        out.reserve(pairs.len());
        out.extend(pairs.iter().map(|&(u, v)| self.index.connected(u, v)));
    }

    /// Shortest link distance `u →* v` (`None` = unreachable). Needs
    /// [`HopiBuilder::distance_aware`].
    pub fn distance(&self, u: ElemId, v: ElemId) -> Result<Option<u32>, HopiError> {
        Ok(self.distance_cover()?.distance(u, v))
    }

    /// Everything `u` reaches (descendants-or-self), sorted.
    pub fn descendants(&self, u: ElemId) -> Vec<ElemId> {
        self.index.descendants(u)
    }

    /// Everything reaching `u` (ancestors-or-self), sorted.
    pub fn ancestors(&self, u: ElemId) -> Vec<ElemId> {
        self.index.ancestors(u)
    }

    /// Evaluates a path expression (`/site/nav//book`, `//article//sec`,
    /// wildcards with `*`). Returns matching element ids, sorted. Each
    /// `//` step runs the strategy the cost-based planner picks; the
    /// choices are tallied into the engine's shared plan counters.
    pub fn query(&self, expr: &str) -> Result<Vec<ElemId>, HopiError> {
        run_query(
            &self.collection,
            &self.index,
            &self.tags,
            &self.options,
            &self.plan_counters,
            Some(&self.text),
            expr,
        )
    }

    /// Like [`Hopi::query`], but also returns the EXPLAIN-style per-step
    /// plan report (strategy chosen, set sizes, cost estimates — the
    /// `hopi query --explain` output).
    pub fn query_explained(&self, expr: &str) -> Result<(Vec<ElemId>, QueryPlanReport), HopiError> {
        run_query_explained(
            &self.collection,
            &self.index,
            &self.tags,
            &self.options,
            &self.plan_counters,
            Some(&self.text),
            expr,
        )
    }

    /// Evaluates a path expression with distance-ranked results (paper
    /// §5.1; best-ranked first, truncated to [`QueryOptions::top_k`]).
    /// Content predicates filter membership, and the final step's
    /// predicate fuses a BM25 text score into each match's score.
    /// Needs [`HopiBuilder::distance_aware`].
    pub fn query_ranked(&self, expr: &str) -> Result<Vec<RankedMatch>, HopiError> {
        let cover = self.distance_cover()?;
        let parsed = parse_path(expr)?;
        let mut matches = evaluate_ranked_with_text(
            &self.collection,
            cover,
            &self.tags,
            &parsed,
            Some(&self.text),
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

    // ------------------------------------------------------------------
    // Incremental maintenance (paper §6).
    // ------------------------------------------------------------------

    /// Inserts a document plus its links incrementally (paper §6.1).
    /// Returns the assigned document id.
    pub fn insert_document(
        &mut self,
        doc: XmlDocument,
        links: &DocumentLinks,
    ) -> Result<DocId, HopiError> {
        self.validate_document_links(&doc, links)?;
        let d = self.insert_counted(doc, links);
        self.index_document(d);
        if let Some(cover) = self.distance.as_mut() {
            // Insertions update the distance cover incrementally (§6); only
            // deletions fall back to a recompute.
            hopi_maintenance::integrate_document_distance(&self.collection, cover, d, links);
        }
        Ok(d)
    }

    /// Parses one XML document and inserts it, resolving its `href`
    /// references against the collection. Unlike bulk parsing (where
    /// dangling web links are dropped), an unresolvable reference is an
    /// error here — the caller named a specific target.
    pub fn insert_xml(&mut self, name: &str, xml: &str) -> Result<DocId, HopiError> {
        let (doc, links) = self.prepare_xml(name, xml)?;
        self.insert_document(doc, &links)
    }

    /// Parses one XML document and resolves its `href` references against
    /// the collection, without inserting anything — the validation half of
    /// [`Hopi::insert_xml`] — how a record for
    /// [`crate::OnlineHopi::apply`] is built from XML text.
    pub fn prepare_xml(
        &self,
        name: &str,
        xml: &str,
    ) -> Result<(XmlDocument, DocumentLinks), HopiError> {
        if self.collection.doc_ids().any(|d| {
            self.collection
                .document(d)
                .is_some_and(|doc| doc.name == name)
        }) {
            return Err(HopiError::DuplicateDocumentName(name.to_string()));
        }
        let parsed = parse_document(name, xml)?;
        let mut links = DocumentLinks::default();
        for p in &parsed.pending {
            let doc = p.doc.clone().unwrap_or_default();
            let anchor = p.anchor.clone().unwrap_or_default();
            let target = self.resolve(&doc, &anchor)?;
            links.outgoing.push((p.from, target));
        }
        Ok((parsed.doc, links))
    }

    /// Inserts an inter-document link incrementally (§6.1). Returns the
    /// number of label entries added. Re-inserting an existing link is a
    /// no-op (`L` is a set, paper §2): it returns `Ok(0)` without touching
    /// the cover or re-relaxing the distance cover.
    pub fn insert_link(&mut self, from: ElemId, to: ElemId) -> Result<usize, HopiError> {
        // The expert layer validates endpoints; duplicates short-circuit
        // here so the distance cover is not re-relaxed either.
        if self.collection.has_link(from, to) {
            return Ok(0);
        }
        let sw = Stopwatch::start();
        let integrated = insert_link(&mut self.collection, &mut self.index, from, to)?;
        self.maintenance_durations.insert_link.record(sw.elapsed());
        self.maintenance.integrations.record(integrated.choice);
        self.maintenance.entries_added.insert_link += integrated.added as i64;
        if let Some(cover) = self.distance.as_mut() {
            // Insertions update the distance cover incrementally (§6); only
            // deletions fall back to a recompute.
            hopi_maintenance::insert_edge_distance(cover, from, to);
        }
        Ok(integrated.added)
    }

    /// Deletes a document (Theorem 2 fast path when it separates the
    /// document graph, Theorem 3 otherwise — paper §6.2).
    pub fn delete_document(&mut self, d: DocId) -> Result<DeletionOutcome, HopiError> {
        self.unindex_document(d)?;
        let outcome = self.delete_counted(d);
        self.refresh_distance();
        Ok(outcome)
    }

    /// Deletes an inter-document link (§6.2's single-edge deletion).
    pub fn delete_link(&mut self, from: ElemId, to: ElemId) -> Result<DeletionOutcome, HopiError> {
        if !self.collection.has_link(from, to) {
            return Err(HopiError::UnknownLink { from, to });
        }
        let before = self.index.size();
        let sw = Stopwatch::start();
        let outcome = delete_link(&mut self.collection, &mut self.index, from, to);
        self.book_deletion(&outcome, before, sw);
        self.refresh_distance();
        Ok(outcome)
    }

    /// Replaces a document with a new version (drop + reinsert, §6.3).
    /// Returns the new document id.
    pub fn modify_document(
        &mut self,
        d: DocId,
        new_doc: XmlDocument,
        links: &DocumentLinks,
    ) -> Result<DocId, HopiError> {
        if self.collection.document(d).is_none() {
            return Err(HopiError::UnknownDocument(d));
        }
        self.validate_modify_links(d, &new_doc, links)?;
        self.unindex_document(d)?;
        // Drop + reinsert (§6.3), each half booked to its own kind.
        self.delete_counted(d);
        let new_id = self.insert_counted(new_doc, links);
        self.index_document(new_id);
        self.refresh_distance();
        Ok(new_id)
    }

    /// Applies one mutation record through the same method the original
    /// mutation ran — the one replay path, shared by WAL recovery, a
    /// background rebuild's catch-up and `OnlineHopi::apply`. Replaying
    /// the records of a collection's mutations in order onto a copy of
    /// that collection reproduces it exactly: tombstoned slots are kept,
    /// so every inserted document gets the document and element ids it
    /// got the first time.
    pub(crate) fn replay_record(&mut self, rec: WalRecord) -> Result<(), HopiError> {
        match rec {
            WalRecord::InsertLink { from, to } => self.insert_link(from, to).map(|_| ()),
            WalRecord::DeleteLink { from, to } => self.delete_link(from, to).map(|_| ()),
            WalRecord::InsertDocument {
                doc,
                outgoing,
                incoming,
            } => self
                .insert_document(doc, &DocumentLinks { outgoing, incoming })
                .map(|_| ()),
            WalRecord::DeleteDocument { doc } => self.delete_document(doc).map(|_| ()),
            WalRecord::ModifyDocument {
                doc,
                new_doc,
                outgoing,
                incoming,
            } => self
                .modify_document(doc, new_doc, &DocumentLinks { outgoing, incoming })
                .map(|_| ()),
        }
    }

    /// Rebuilds the index from scratch with the configured §4 pipeline
    /// ("over time, the space efficiency … may degrade"). Returns the
    /// fresh build's report; [`Hopi::report`] is updated too.
    pub fn rebuild(&mut self) -> &BuildReport {
        let (index, report) = build_index(&self.collection, &self.config);
        self.index = index;
        self.report = report;
        self.maintenance.at_build = BuildBaseline::measure(&self.collection, &self.index);
        self.refresh_distance();
        self.report()
    }

    /// Current degradation of the maintained cover against the last build
    /// or rebuild — across saves, reopens and crash recoveries, whose files
    /// carry that build's baseline (see [`HopiBuilder::open`] for the
    /// files that do not).
    pub fn degradation(&self) -> Degradation {
        degradation(&self.collection, &self.index, self.maintenance.at_build)
    }

    /// Should the index be rebuilt under `policy`?
    pub fn should_rebuild(&self, policy: &RebuildPolicy) -> bool {
        should_rebuild(&self.degradation(), policy)
    }

    /// The drift baseline of the last build, and the §6 counters since the
    /// engine was built, opened or recovered: link integrations by choice,
    /// deletions by algorithm, net entries per operation kind.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.maintenance
    }

    /// Carries the engine-lifetime observability of `old` — plan counters
    /// and §6 counters — over to this engine, which replaces it. The drift
    /// baseline stays this engine's own.
    pub(crate) fn inherit_history(&mut self, old: &Hopi) {
        self.plan_counters = old.plan_counters.clone();
        self.maintenance_durations = old.maintenance_durations.clone();
        self.maintenance = MaintenanceStats {
            at_build: self.maintenance.at_build,
            ..old.maintenance
        };
    }

    // ------------------------------------------------------------------
    // Serving snapshots.
    // ------------------------------------------------------------------

    /// Captures an immutable serving snapshot: the cover frozen into flat
    /// CSR arrays plus the tag index and collection, behind an `Arc` any
    /// number of reader threads can share without locking (see
    /// [`HopiSnapshot`](crate::HopiSnapshot)). The snapshot answers
    /// queries identically to this engine at capture time and is unaffected
    /// by later mutations.
    pub fn snapshot(&self) -> Arc<crate::HopiSnapshot> {
        let sw = Stopwatch::start();
        let frozen = FrozenCover::from_cover(self.index.cover());
        Arc::new(self.capture(frozen, None, 0, sw))
    }

    /// Captures the snapshot that succeeds `prev` at serving epoch `epoch`
    /// (what [`crate::OnlineHopi`] publishes): takes the cover's journal
    /// and patches `prev`'s frozen cover with it, so the capture costs what
    /// the mutations since `prev` touched. A journal that is not relative
    /// to `prev` — the first capture of an engine, a rebuilt or thawed
    /// cover, an overflow — freezes in full.
    pub(crate) fn snapshot_after(
        &mut self,
        prev: Option<&crate::HopiSnapshot>,
        epoch: u64,
    ) -> Arc<crate::HopiSnapshot> {
        let sw = Stopwatch::start();
        let dirty = self.index.cover_mut().take_journal();
        let unstamped = FrozenCover::default();
        let base = prev.map_or(&unstamped, |p| p.frozen());
        let frozen = FrozenCover::patched(base, self.index.cover(), &dirty);
        debug_assert!(
            frozen == FrozenCover::from_cover(self.index.cover()),
            "a patched cover equals a full freeze"
        );
        let patch = prev.filter(|_| dirty.applies_to(base));
        Arc::new(self.capture(frozen, patch.map(|p| (p, dirty.len())), epoch, sw))
    }

    /// Assembles a snapshot around an already frozen cover. `patched`
    /// names the snapshot the cover was patched from and the rows the
    /// patch took from the mutable cover; `None` is a full freeze.
    fn capture(
        &self,
        frozen: FrozenCover,
        patched: Option<(&crate::HopiSnapshot, usize)>,
        epoch: u64,
        sw: Stopwatch,
    ) -> crate::HopiSnapshot {
        let frozen_distance = self.distance.as_ref().map(FrozenCover::from_distance_cover);
        let unstamped = FrozenCover::default();
        let prev = patched.map_or(&unstamped, |(prev, _)| prev.frozen());
        let bytes = frozen.sharing(prev).fresh_bytes
            + frozen_distance
                .as_ref()
                .map_or(0, |d| d.sharing(&unstamped).fresh_bytes);
        // Of interest beside the build phases is what a *full* freeze
        // costs; a patch keeps the last one's reading.
        let freeze_ms = match patched {
            Some((prev, _)) => prev.build.freeze_ms,
            None => sw.elapsed().as_millis() as u64,
        };
        let text = self
            .frozen_text
            .get_or_init(|| Arc::new(FrozenTextIndex::from_index(&self.text)));
        crate::HopiSnapshot {
            collection: self.collection.clone(),
            frozen,
            frozen_distance,
            ranked: self.distance.clone(),
            tags: self.tags.clone(),
            text: text.clone(),
            options: self.options,
            epoch,
            plan_counters: self.plan_counters.clone(),
            build: crate::BuildPhaseTimings::from_report(&self.report, freeze_ms),
            greedy: self.report.greedy,
            maintenance: self.maintenance,
            maintenance_durations: self.maintenance_durations.clone(),
            publish: crate::PublishStats {
                micros: sw.elapsed_micros(),
                patched: patched.is_some(),
                rows_patched: patched.map_or(0, |(_, rows)| rows),
                bytes,
            },
        }
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// Collection/index summary.
    pub fn stats(&self) -> Stats {
        let elements = self.collection.element_count();
        let entries = self.index.size();
        Stats {
            documents: self.collection.doc_count(),
            elements,
            links: self.collection.links().len(),
            cover_entries: entries,
            entries_per_element: entries as f64 / elements.max(1) as f64,
            distance_entries: self.distance.as_ref().map(DistanceCover::size),
            text: self.text.stats(),
        }
    }

    /// Report of the most recent full build (initial build or
    /// [`Hopi::rebuild`]).
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// The collection (expert escape hatch; read-only so the engine's
    /// index always matches it).
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// The underlying index (expert escape hatch).
    pub fn index(&self) -> &HopiIndex {
        &self.index
    }

    /// The tag index (expert escape hatch — e.g. for driving
    /// `hopi_query::evaluate_with` with custom [`EvalOptions`]).
    pub fn tags(&self) -> &TagIndex {
        &self.tags
    }

    /// The term-level inverted text index (expert escape hatch — e.g. for
    /// driving `hopi_query::evaluate_with_text` directly or inspecting
    /// posting lists).
    pub fn text(&self) -> &TextIndex {
        &self.text
    }

    /// Per-strategy `//`-step execution totals since this engine (or the
    /// engine it was cloned from) was built, across direct queries and
    /// every snapshot's queries.
    pub fn plan_counts(&self) -> hopi_query::PlanCounts {
        self.plan_counters.counts()
    }

    /// The build configuration this engine (re)builds with.
    pub fn config(&self) -> &BuildConfig {
        &self.config
    }

    /// The query tunables.
    pub fn query_options(&self) -> &QueryOptions {
        &self.options
    }

    /// Updates the query tunables.
    pub fn set_query_options(&mut self, options: QueryOptions) {
        self.options = options;
    }

    // ------------------------------------------------------------------
    // Internals.
    // ------------------------------------------------------------------

    fn distance_cover(&self) -> Result<&DistanceCover, HopiError> {
        self.distance.as_ref().ok_or(HopiError::DistanceDisabled)
    }

    /// The §6.1 document insertion on collection and cover, counted.
    fn insert_counted(&mut self, doc: XmlDocument, links: &DocumentLinks) -> DocId {
        let before = self.index.size();
        let sw = Stopwatch::start();
        let (d, integrations) = insert_document(&mut self.collection, &mut self.index, doc, links);
        self.maintenance_durations
            .insert_document
            .record(sw.elapsed());
        self.maintenance.integrations.absorb(&integrations);
        self.maintenance.entries_added.insert_document += net_entries(before, self.index.size());
        d
    }

    /// The §6.2 document deletion on collection and cover, counted.
    fn delete_counted(&mut self, d: DocId) -> DeletionOutcome {
        let before = self.index.size();
        let sw = Stopwatch::start();
        let outcome = delete_document(&mut self.collection, &mut self.index, d);
        self.book_deletion(&outcome, before, sw);
        outcome
    }

    /// Counts a deletion, times it from `sw` and books its net entry change
    /// to the theorem that ran it.
    fn book_deletion(&mut self, outcome: &DeletionOutcome, before: usize, sw: Stopwatch) {
        let durations = &self.maintenance_durations;
        durations.deletion(outcome.algorithm).record(sw.elapsed());
        self.maintenance.deletions.record(outcome);
        let added = &mut self.maintenance.entries_added;
        let slot = match outcome.algorithm {
            DeletionAlgorithm::FastSeparator => &mut added.delete_separator,
            DeletionAlgorithm::General => &mut added.delete_general,
        };
        *slot += net_entries(before, self.index.size());
    }

    /// Adds document `d`, just inserted into the collection, to the tag
    /// and term indexes. Its ids exceed all indexed ones, so both append.
    fn index_document(&mut self, d: DocId) {
        let Some(doc) = self.collection.document(d) else {
            return;
        };
        let base = self.collection.global_id(d, 0);
        Arc::make_mut(&mut self.tags).index_document(base, doc);
        if doc.texts().next().is_some() {
            self.text.index_document(base, doc);
            self.frozen_text.take();
        }
    }

    /// Drops document `d` from the tag and term indexes. Runs **before**
    /// the document leaves the collection: its tags and text say which
    /// rows to drain.
    fn unindex_document(&mut self, d: DocId) -> Result<(), HopiError> {
        let doc = self
            .collection
            .document(d)
            .ok_or(HopiError::UnknownDocument(d))?;
        let base = self.collection.global_id(d, 0);
        Arc::make_mut(&mut self.tags).remove_document(base, doc);
        if doc.texts().next().is_some() {
            self.text.remove_document(base, doc);
            self.frozen_text.take();
        }
        Ok(())
    }

    /// Recomputes the distance cover, when enabled, after a deletion (the
    /// paper gives incremental distance maintenance for insertions only).
    fn refresh_distance(&mut self) {
        if self.distance.is_some() {
            self.distance = Some(build_distance_cover(&self.collection));
        }
    }

    fn validate_document_links(
        &self,
        doc: &XmlDocument,
        links: &DocumentLinks,
    ) -> Result<(), HopiError> {
        for &(local, target) in &links.outgoing {
            if (local as usize) >= doc.len() {
                return Err(HopiError::InvalidLocalElement {
                    local,
                    len: doc.len(),
                });
            }
            if self.collection.doc_of(target).is_none() {
                return Err(HopiError::UnknownElement(target));
            }
        }
        for &(source, local) in &links.incoming {
            if self.collection.doc_of(source).is_none() {
                return Err(HopiError::UnknownElement(source));
            }
            if (local as usize) >= doc.len() {
                return Err(HopiError::InvalidLocalElement {
                    local,
                    len: doc.len(),
                });
            }
        }
        Ok(())
    }

    /// Like [`Hopi::validate_document_links`], but for a modification:
    /// links touching the document being replaced are legal only insofar as
    /// they do not survive it, so endpoints inside `d` are rejected.
    fn validate_modify_links(
        &self,
        d: DocId,
        doc: &XmlDocument,
        links: &DocumentLinks,
    ) -> Result<(), HopiError> {
        self.validate_document_links(doc, links)?;
        for &(_, target) in &links.outgoing {
            if self.collection.doc_of(target) == Some(d) {
                return Err(HopiError::UnknownElement(target));
            }
        }
        for &(source, _) in &links.incoming {
            if self.collection.doc_of(source) == Some(d) {
                return Err(HopiError::UnknownElement(source));
            }
        }
        Ok(())
    }
}

//! [`Reads`]: the one read path of [`Hopi`](crate::Hopi) and
//! [`HopiSnapshot`](crate::HopiSnapshot).
//!
//! An engine and a snapshot hold the same read parts — collection,
//! connection cover, optional distance cover, tag index, term index and
//! the engine-shared plan counters. The connection cover
//! comes in two representations: the engine's mutable cover and a
//! snapshot's frozen form. The distance cover has one: the
//! distance-annotated [`FrozenCover`], which answers paper §5.1's
//! `MIN(LOUT.DIST + LIN.DIST)` from its per-entry distances. It, the tag
//! index and the term index are one value each, shared by the engine and
//! its snapshots until a write replaces them. Each read is written once
//! here, generic over [`LabelSource`]; both holders dereference to their
//! parts, so `hopi.query(…)` and `snapshot.query(…)` run the same code,
//! monomorphized per representation.

use crate::error::HopiError;
use hopi_core::{FrozenCover, LabelSource};
use hopi_query::{
    parse_path, rank, with_thread_evaluator, Corpus, EvalOptions, PlanCounters, QueryPlanReport,
    RankedMatch, TagIndex,
};
use hopi_text::TextIndex;
use hopi_xml::{Collection, ElemId};
use std::sync::Arc;

/// The read parts of an engine or a snapshot (see the module docs): `C`
/// answers reachability. [`Hopi`](crate::Hopi) and
/// [`HopiSnapshot`](crate::HopiSnapshot) dereference to it.
#[derive(Clone, Debug)]
pub struct Reads<C> {
    pub(crate) collection: Collection,
    pub(crate) cover: C,
    /// Present on a distance-aware engine and its snapshots, which share
    /// it until the next distance write swaps in its successor.
    pub(crate) distance: Option<Arc<FrozenCover>>,
    /// Shared between an engine and its snapshots until a document comes
    /// or goes; such a change copies it first (`Arc::make_mut`).
    pub(crate) tags: Arc<TagIndex>,
    /// Shared by an engine, its clones and its snapshots until a document
    /// with text comes or goes; such a write swaps in the successor index.
    pub(crate) text: Arc<TextIndex>,
    /// Per-strategy `//`-step execution counters, shared by an engine, its
    /// clones and every snapshot captured from them: each query tallies
    /// its plans here, so the serving layer can expose which physical
    /// plans actually ran.
    pub(crate) plan_counters: Arc<PlanCounters>,
}

impl<C: LabelSource> Reads<C> {
    /// The connection test `u →* v`: is `u` an ancestor of `v` along
    /// parent/child and link axes (reflexive)?
    pub fn connected(&self, u: ElemId, v: ElemId) -> bool {
        self.cover.connected(u, v)
    }

    /// Batched connection probes: `out[i]` answers `pairs[i]`, reusing the
    /// caller's buffer across batches.
    pub fn connected_many(&self, pairs: &[(ElemId, ElemId)], out: &mut Vec<bool>) {
        out.clear();
        out.reserve(pairs.len());
        out.extend(pairs.iter().map(|&(u, v)| self.cover.connected(u, v)));
    }

    /// Shortest link distance `u →* v` (`None` = unreachable). Needs
    /// [`HopiBuilder::distance_aware`](crate::HopiBuilder::distance_aware).
    pub fn distance(&self, u: ElemId, v: ElemId) -> Result<Option<u32>, HopiError> {
        Ok(self.distance_source()?.distance(u, v))
    }

    /// Everything `u` reaches (descendants-or-self), sorted.
    pub fn descendants(&self, u: ElemId) -> Vec<ElemId> {
        self.cover.descendants(u)
    }

    /// Everything reaching `u` (ancestors-or-self), sorted.
    pub fn ancestors(&self, u: ElemId) -> Vec<ElemId> {
        self.cover.ancestors(u)
    }

    /// Evaluates a path expression (`/site/nav//book`, `//article//sec`,
    /// wildcards with `*`, content predicates). Returns matching element
    /// ids, sorted. Runs on the calling thread's reusable evaluator, so
    /// steady-state serving evaluates `//` steps without allocating; each
    /// `//` step runs the strategy the cost-based planner picks, and the
    /// choices are tallied into the engine-shared plan counters.
    pub fn query(&self, expr: &str) -> Result<Vec<ElemId>, HopiError> {
        self.evaluate(expr, None)
    }

    /// Like [`Reads::query`], but also returns the EXPLAIN-style per-step
    /// plan report (strategy chosen, set sizes, cost estimates — the
    /// `hopi query --explain` output).
    pub fn query_explained(&self, expr: &str) -> Result<(Vec<ElemId>, QueryPlanReport), HopiError> {
        let mut report = QueryPlanReport::default();
        let rows = self.evaluate(expr, Some(&mut report))?;
        Ok((rows, report))
    }

    /// Evaluates a path expression with distance-ranked results (paper
    /// §5.1; every match, best-ranked first).
    /// Content predicates filter membership, and the final step's
    /// predicate fuses a BM25 text score into each match's score. Needs
    /// [`HopiBuilder::distance_aware`](crate::HopiBuilder::distance_aware).
    pub fn query_ranked(&self, expr: &str) -> Result<Vec<RankedMatch>, HopiError> {
        let distances = self.distance_source()?;
        Ok(rank(self.corpus(distances), &parse_path(expr)?))
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

    /// The collection (read-only, so the index always matches it).
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// The tag index (expert escape hatch — e.g. for driving
    /// [`hopi_query::evaluate_with`] with custom
    /// [`EvalOptions`](hopi_query::EvalOptions)).
    pub fn tags(&self) -> &TagIndex {
        &self.tags
    }

    /// The term-level inverted index content predicates consult (expert
    /// escape hatch — e.g. for inspecting posting lists).
    pub fn text(&self) -> &Arc<TextIndex> {
        &self.text
    }

    /// The distance-annotated cover, when distance-aware (expert escape
    /// hatch — e.g. for [`hopi_store::save_frozen`]). An engine and the
    /// snapshots captured from it hold the same one until a distance
    /// write replaces the engine's.
    pub fn distance_cover(&self) -> Option<&Arc<FrozenCover>> {
        self.distance.as_ref()
    }

    fn distance_source(&self) -> Result<&FrozenCover, HopiError> {
        self.distance.as_deref().ok_or(HopiError::DistanceDisabled)
    }

    /// This holder's collection, tag and term index around `index`.
    fn corpus<'a, S>(&'a self, index: &'a S) -> Corpus<'a, S> {
        Corpus {
            collection: &self.collection,
            index,
            tags: &self.tags,
            text: Some(self.text.as_ref()),
        }
    }

    /// Parses and evaluates `expr` on this thread's evaluator and folds
    /// the run's strategy tally into the shared plan counters.
    fn evaluate(
        &self,
        expr: &str,
        report: Option<&mut QueryPlanReport>,
    ) -> Result<Vec<ElemId>, HopiError> {
        let parsed = parse_path(expr)?;
        Ok(with_thread_evaluator(|ev| {
            let rows = ev.run(
                self.corpus(&self.cover),
                &parsed,
                &EvalOptions::default(),
                report,
            );
            self.plan_counters.add(ev.strategy_counts());
            rows
        }))
    }
}

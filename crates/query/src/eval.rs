//! Set-at-a-time evaluation of path expressions against the HOPI index.
//!
//! * `/tag` steps follow the element-level **tree** (XPath child axis):
//!   one pass over the tag's row in the [`TagIndex`], keeping the elements
//!   whose parent is in the context; only `/*` walks the documents.
//! * `//tag` steps use the **connection axis**: all elements reachable over
//!   one or more tree or link edges — the query class HOPI exists for. Each
//!   `//` step is answered from the 2-hop cover by one of four physical
//!   strategies (pairwise probes, per-node enumeration, or a forward /
//!   backward set-at-a-time **hop join** over the inverted center rows),
//!   chosen per step by the cost-based planner in [`crate::plan`]; a
//!   planned backward join runs under a touch budget and falls back to
//!   the forward join when it runs out. All strategies return the same
//!   sorted, deduplicated answer.
//!
//! Evaluation threads reusable scratch (generation-stamped mark tables,
//! center sets, enumeration buffers) through an [`Evaluator`], so
//! steady-state `//` steps allocate nothing; [`with_thread_evaluator`]
//! lends a per-thread evaluator, which is what the serving path and
//! [`evaluate_with`] use.
//!
//! Following XPath, `a//b` never returns the context node itself for
//! `a == b` (the 2-hop cover cannot distinguish a reflexive hit from a
//! cyclic path back to the node, and self-cycles are a degenerate case for
//! document data).

use crate::expr::{Axis, ContentOp, ContentPredicate, PathExpr, Step};
use crate::plan::{
    plan_connection_step, plan_connection_step_bounded, plan_content_predicate, ContentPlacement,
    PlanCounts, QueryPlanReport, StepPlan, StepReport, Strategy,
};
use crate::tag_index::TagIndex;
use hopi_core::LabelSource;
use hopi_obs::Stopwatch;
use hopi_text::TextIndex;
use hopi_xml::{Collection, ElemId};
use std::cell::RefCell;

/// Tunables of set-at-a-time evaluation. Neither knob changes answers —
/// they pick execution plans.
#[derive(Clone, Copy, Debug)]
pub struct EvalOptions {
    /// Planner shortcut: at or under this many candidate probes
    /// (`|context| × |candidates|`) a `//` step stays on pairwise
    /// reachability probes without pricing the alternatives. Above it the
    /// step is planned cost-based across probes and the two hop joins
    /// (`usize::MAX` therefore pins pairwise probes everywhere).
    pub probe_budget: usize,
    /// Pins one strategy on every `//` step (`None` = cost-based
    /// planning). Test and diagnostics hook.
    pub force_strategy: Option<Strategy>,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            probe_budget: 4_096,
            force_strategy: None,
        }
    }
}

/// What a path expression is evaluated against: a collection, a
/// connection index over it — any [`LabelSource`] for [`Evaluator::run`],
/// the distance-annotated [`hopi_core::FrozenCover`] for
/// [`rank`](crate::rank) — its tag index, and the term index content
/// predicates resolve against.
pub struct Corpus<'a, S> {
    /// The documents and their links.
    pub collection: &'a Collection,
    /// The connection index: the live [`hopi_core::HopiIndex`], a frozen
    /// [`hopi_core::FrozenCover`] snapshot, …; answers are identical.
    pub index: &'a S,
    /// The element-by-tag index.
    pub tags: &'a TagIndex,
    /// The term index of the collection's live documents; with `None` a
    /// content predicate matches nothing (there is no text to search).
    pub text: Option<&'a TextIndex>,
}

/// Evaluates a parsed path expression under explicit options, with no
/// term index, on this thread's reusable [`Evaluator`]. Returns matching
/// element ids, sorted and deduplicated.
pub fn evaluate_with<S: LabelSource>(
    collection: &Collection,
    index: &S,
    tags: &TagIndex,
    expr: &PathExpr,
    options: &EvalOptions,
) -> Vec<ElemId> {
    let corpus = Corpus {
        collection,
        index,
        tags,
        text: None,
    };
    with_thread_evaluator(|ev| ev.run(corpus, expr, options, None))
}

thread_local! {
    static THREAD_EVALUATOR: RefCell<Evaluator> = RefCell::new(Evaluator::new());
}

/// Runs `f` with this thread's reusable [`Evaluator`]. Scratch buffers
/// persist across calls, so steady-state serving (one evaluator per
/// worker thread) evaluates `//` steps without allocating. Re-entrant
/// calls (evaluating from inside the closure) fall back to a fresh
/// evaluator instead of panicking on the thread-local borrow.
pub fn with_thread_evaluator<R>(f: impl FnOnce(&mut Evaluator) -> R) -> R {
    THREAD_EVALUATOR.with(|ev| match ev.try_borrow_mut() {
        Ok(mut ev) => f(&mut ev),
        Err(_) => f(&mut Evaluator::new()),
    })
}

/// Sentinel owner meaning "two or more distinct context nodes contributed
/// this center" (a real contributor id never reaches `u32::MAX`: covers
/// are capped far below it).
const MANY: ElemId = ElemId::MAX;

/// A generation-stamped node set: `O(1)` clear (bump the generation),
/// `O(1)` insert/lookup, no per-step allocation once grown.
#[derive(Default)]
struct StampSet {
    stamp: Vec<u32>,
    gen: u32,
}

impl StampSet {
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
        if self.gen == u32::MAX {
            self.stamp.fill(0);
            self.gen = 0;
        }
        self.gen += 1;
    }

    #[inline]
    fn mark(&mut self, v: ElemId) {
        if let Some(slot) = self.stamp.get_mut(v as usize) {
            *slot = self.gen;
        }
    }

    #[inline]
    fn is_marked(&self, v: ElemId) -> bool {
        self.stamp.get(v as usize).is_some_and(|&s| s == self.gen)
    }
}

/// Reusable per-step scratch: mark tables, the center set with
/// contribution ownership, and the enumeration buffer.
#[derive(Default)]
struct Scratch {
    /// The stamp tables span ids below this bound; set per run to cover
    /// every id either side of a step can produce.
    bound: usize,
    /// Result-side marks (reached nodes / context membership).
    mark: StampSet,
    /// Center-set membership for the forward hop join.
    center: StampSet,
    /// Parallel to `center`: the single contributing context node, or
    /// [`MANY`]. Lets a context node inside the candidate set exclude the
    /// centers only it contributed (the `u != t` XPath rule) without
    /// falling back to pairwise probes.
    center_owner: Vec<ElemId>,
    /// The distinct centers of the current step, in discovery order.
    centers: Vec<ElemId>,
    /// `descendants_into` buffer for the enumeration strategy.
    desc_buf: Vec<ElemId>,
}

impl Scratch {
    fn begin_marks(&mut self) {
        self.mark.begin(self.bound);
    }

    fn begin_centers(&mut self) {
        self.center.begin(self.bound);
        if self.center_owner.len() < self.bound {
            self.center_owner.resize(self.bound, 0);
        }
        self.centers.clear();
    }

    #[inline]
    fn add_center(&mut self, c: ElemId, source: ElemId) {
        let Some(slot) = self.center.stamp.get_mut(c as usize) else {
            return;
        };
        if *slot == self.center.gen {
            if self.center_owner[c as usize] != source {
                self.center_owner[c as usize] = MANY;
            }
        } else {
            *slot = self.center.gen;
            self.center_owner[c as usize] = source;
            self.centers.push(c);
        }
    }

    /// Is `c` a center contributed by some context node other than `t`?
    #[inline]
    fn center_witness(&self, c: ElemId, t: ElemId) -> bool {
        self.center.is_marked(c) && self.center_owner[c as usize] != t
    }
}

/// Reusable evaluation state: scratch buffers plus the per-run strategy
/// tally. One evaluator per thread keeps steady-state `//` steps
/// allocation-free; [`with_thread_evaluator`] manages that for you.
#[derive(Default)]
pub struct Evaluator {
    scratch: Scratch,
    /// Wildcard candidate buffer (kept apart from `scratch` so a borrowed
    /// candidate slice can coexist with mutable scratch access).
    cand_buf: Vec<ElemId>,
    /// Elements matching the current step's content predicate (sorted).
    pred_matches: Vec<ElemId>,
    /// The other half of an `about` predicate's union merges.
    union_buf: Vec<ElemId>,
    /// Candidates surviving a pre-filtering content predicate.
    pred_buf: Vec<ElemId>,
    /// Double-buffer for the step pipeline.
    next_buf: Vec<ElemId>,
    /// Strategy executions and fallbacks of the most recent run.
    counts: PlanCounts,
}

impl Evaluator {
    /// A fresh evaluator with empty scratch.
    pub fn new() -> Self {
        Evaluator::default()
    }

    /// Per-strategy `//`-step executions of the most recent run — what the
    /// serving layer folds into its shared
    /// [`PlanCounters`](crate::plan::PlanCounters).
    pub fn strategy_counts(&self) -> PlanCounts {
        self.counts
    }

    /// Evaluates a parsed expression against `corpus`: matching element
    /// ids, sorted and deduplicated. With a `report`, each step's plan,
    /// set sizes, content placement and wall time are recorded into it
    /// (EXPLAIN ANALYZE); without one, evaluation takes no measurements.
    pub fn run<S: LabelSource>(
        &mut self,
        corpus: Corpus<'_, S>,
        expr: &PathExpr,
        options: &EvalOptions,
        mut report: Option<&mut QueryPlanReport>,
    ) -> Vec<ElemId> {
        let Corpus {
            collection,
            index,
            tags,
            text,
        } = corpus;
        self.counts = PlanCounts::default();
        let Some(first) = expr.steps.first() else {
            return Vec::new();
        };
        // Stamp tables must span every id either side can produce.
        self.scratch.bound = collection.elem_id_bound().max(index.num_nodes());
        let stats = index.cover_stats();
        // EXPLAIN ANALYZE: time each step only when a report is being
        // built, so the plain path stays measurement-free.
        let sw = report.as_ref().map(|_| Stopwatch::start());
        let mut current = self.seed(collection, tags, text, first);
        if let Some(rep) = report.as_deref_mut() {
            rep.steps.push(StepReport {
                step: 0,
                axis: first.axis,
                input: 0,
                candidates: 0,
                output: current.len(),
                plan: None,
                // The seed applies its predicate to the set it seeds.
                content: first
                    .predicate
                    .as_ref()
                    .map(|_| ContentPlacement::PostFilter),
                elapsed_us: sw.map(|w| w.elapsed_micros()).unwrap_or(0),
            });
        }
        for (step_idx, step) in expr.steps.iter().enumerate().skip(1) {
            if current.is_empty() {
                break;
            }
            let sw = report.as_ref().map(|_| Stopwatch::start());
            let input = current.len();
            let mut next = std::mem::take(&mut self.next_buf);
            next.clear();
            let mut cand_len = 0;
            let mut content = None;
            let plan = match step.axis {
                Axis::Child => {
                    match step.tag.as_deref() {
                        Some(t) => {
                            cand_len = tags.elements(t).len();
                            child_step(tags, &mut self.scratch, &current, t, &mut next);
                        }
                        None => wildcard_child_step(collection, &current, &mut next),
                    }
                    if let Some(pred) = &step.predicate {
                        // Child steps materialize their output directly;
                        // the predicate filters it afterwards.
                        content = Some(ContentPlacement::PostFilter);
                        match text {
                            Some(src) => predicate_matches(
                                src,
                                pred,
                                &mut self.pred_matches,
                                &mut self.union_buf,
                            ),
                            None => self.pred_matches.clear(),
                        }
                    }
                    None
                }
                Axis::Connection => {
                    let tag = step.tag.as_deref();
                    let mut filtered = None;
                    if let Some(pred) = &step.predicate {
                        // Without a text index the predicate matches
                        // nothing, after the join.
                        let mut placement = ContentPlacement::PostFilter;
                        self.pred_matches.clear();
                        if let Some(src) = text {
                            // Order content vs. structure by selectivity:
                            // posting-length bound against the tag test's
                            // candidate count.
                            let row_len = tag.map_or_else(
                                || collection.element_count(),
                                |t| tags.elements(t).len(),
                            );
                            placement =
                                plan_content_predicate(predicate_estimate(src, pred), row_len);
                            predicate_matches(
                                src,
                                pred,
                                &mut self.pred_matches,
                                &mut self.union_buf,
                            );
                        }
                        if placement == ContentPlacement::PreFilter {
                            // The postings drive the step: filtered through
                            // the tag column, never merged with the row. A
                            // wildcard keeps them all — the term index
                            // holds live elements only.
                            filtered = Some(match tag {
                                Some(t) => {
                                    tags.filter_by_tag(t, &self.pred_matches, &mut self.pred_buf);
                                    self.pred_buf.as_slice()
                                }
                                None => self.pred_matches.as_slice(),
                            });
                        }
                        content = Some(placement);
                    }
                    let cands = filtered
                        .unwrap_or_else(|| candidates(collection, tags, tag, &mut self.cand_buf));
                    cand_len = cands.len();
                    if cands.is_empty() {
                        None
                    } else {
                        let price = |lout_total| {
                            plan_connection_step(
                                &stats,
                                current.len(),
                                lout_total,
                                cands.len(),
                                options.probe_budget,
                                options.force_strategy,
                            )
                        };
                        let lout_total = || current.iter().map(|&u| index.lout_row(u).len()).sum();
                        // EXPLAIN prints the exact costs; a plain run sums
                        // the context's `Lout` rows only when the sum's
                        // bounds disagree on the strategy.
                        let bounded = if report.is_some() {
                            None
                        } else {
                            plan_connection_step_bounded(
                                &stats,
                                current.len(),
                                cands.len(),
                                options.probe_budget,
                                options.force_strategy,
                            )
                        };
                        let (mut plan, exact_budget) = match bounded {
                            Some(plan) => (plan, None),
                            None => {
                                let plan = price(lout_total());
                                (plan, Some(plan.backward_budget()))
                            }
                        };
                        // A bounded plan's backward budget is a lower
                        // bound; the join settles the exact one only if
                        // its touches pass it.
                        let settle = || {
                            exact_budget.unwrap_or_else(|| price(lout_total()).backward_budget())
                        };
                        let sc = &mut self.scratch;
                        connection_step(index, sc, &mut plan, settle, &current, cands, &mut next);
                        self.counts.record(&plan);
                        Some(plan)
                    }
                }
            };
            if content == Some(ContentPlacement::PostFilter) {
                intersect_in_place(&mut next, &self.pred_matches);
            }
            debug_assert!(next.is_sorted_by(|a, b| a < b), "sorted+deduped");
            if let Some(rep) = report.as_deref_mut() {
                rep.steps.push(StepReport {
                    step: step_idx,
                    axis: step.axis,
                    input,
                    candidates: cand_len,
                    output: next.len(),
                    plan,
                    content,
                    elapsed_us: sw.map(|w| w.elapsed_micros()).unwrap_or(0),
                });
            }
            // Keep the outgoing buffer for the next step / next query.
            self.next_buf = std::mem::replace(&mut current, next);
        }
        current
    }

    /// Seeds the first step: document roots for `/`, anywhere for `//`,
    /// with the step's content predicate applied. A `//tag[pred]` seed is
    /// the predicate's postings filtered through the tag column, never
    /// the tag's whole row; a `//*[pred]` seed is the postings themselves.
    fn seed(
        &mut self,
        collection: &Collection,
        tags: &TagIndex,
        text: Option<&TextIndex>,
        first: &Step,
    ) -> Vec<ElemId> {
        let tag = first.tag.as_deref();
        let Some(pred) = &first.predicate else {
            return match (first.axis, tag) {
                (Axis::Child, _) => roots(collection, tags, tag),
                (Axis::Connection, Some(t)) => tags.elements(t).to_vec(),
                (Axis::Connection, None) => {
                    let mut out = Vec::new();
                    wildcard_candidates(collection, &mut out);
                    out
                }
            };
        };
        // Without a text index the predicate matches nothing.
        let Some(src) = text else {
            return Vec::new();
        };
        predicate_matches(src, pred, &mut self.pred_matches, &mut self.union_buf);
        match (first.axis, tag) {
            (Axis::Child, _) => {
                let mut out = roots(collection, tags, tag);
                intersect_in_place(&mut out, &self.pred_matches);
                out
            }
            (Axis::Connection, Some(t)) => {
                let mut out = Vec::new();
                tags.filter_by_tag(t, &self.pred_matches, &mut out);
                out
            }
            (Axis::Connection, None) => self.pred_matches.clone(),
        }
    }
}

/// The document roots matching a root step `/tag` (`None` = `/*`),
/// sorted. A tag is one pass over its row; the wildcard visits the live
/// documents, whose ids — never reused, with monotonically growing id
/// ranges — emit sorted root ids.
pub(crate) fn roots(collection: &Collection, tags: &TagIndex, tag: Option<&str>) -> Vec<ElemId> {
    match tag {
        Some(t) => tags.roots(t).collect(),
        None => collection
            .doc_ids()
            .map(|d| collection.global_id(d, 0))
            .collect(),
    }
}

/// The candidates of a `//tag` step, sorted: the tag's row, or every live
/// element (written into `buf`) for the wildcard.
pub(crate) fn candidates<'a>(
    collection: &Collection,
    tags: &'a TagIndex,
    tag: Option<&str>,
    buf: &'a mut Vec<ElemId>,
) -> &'a [ElemId] {
    match tag {
        Some(t) => tags.elements(t),
        None => {
            wildcard_candidates(collection, buf);
            buf
        }
    }
}

/// All live element ids, sorted, into a reused buffer. Document id ranges
/// are allocated in ascending order and never reused, so per-doc ranges
/// concatenate already sorted — no sort pass.
fn wildcard_candidates(collection: &Collection, out: &mut Vec<ElemId>) {
    out.clear();
    out.reserve(collection.element_count());
    for d in collection.doc_ids() {
        let base = collection.global_id(d, 0);
        let len = collection.document(d).map_or(0, |doc| doc.len() as u32);
        out.extend(base..base + len);
    }
    debug_assert!(out.is_sorted_by(|a, b| a < b));
}

/// Upper bound on a predicate's matching-element count, from posting-list
/// lengths alone: a conjunction can match at most its rarest term's df, a
/// disjunction at most the sum of dfs.
pub(crate) fn predicate_estimate(src: &TextIndex, pred: &ContentPredicate) -> usize {
    match pred.op {
        ContentOp::Contains => pred.terms.iter().map(|t| src.df(t)).min().unwrap_or(0),
        ContentOp::About => pred.terms.iter().map(|t| src.df(t)).sum(),
    }
}

/// Materializes the sorted element set matching a predicate into `out`:
/// intersection of the term posting lists for `contains`, union for
/// `about` (merged through the caller's `scratch`).
pub(crate) fn predicate_matches(
    src: &TextIndex,
    pred: &ContentPredicate,
    out: &mut Vec<ElemId>,
    scratch: &mut Vec<ElemId>,
) {
    out.clear();
    match pred.op {
        ContentOp::Contains => {
            let mut lists = Vec::with_capacity(pred.terms.len());
            for t in &pred.terms {
                match src.lookup(t) {
                    Some(p) => lists.push(p),
                    // An out-of-vocabulary term empties the conjunction.
                    None => return,
                }
            }
            // Smallest list first keeps every later pass cheap.
            lists.sort_by_key(|p| p.len());
            let Some((rarest, rest)) = lists.split_first() else {
                return;
            };
            out.extend_from_slice(rarest.elems);
            for p in rest {
                intersect_in_place(out, p.elems);
                if out.is_empty() {
                    return;
                }
            }
        }
        ContentOp::About => {
            // Posting lists are sorted, so merging them in one by one
            // builds the union without a sort pass.
            for p in pred.terms.iter().filter_map(|t| src.lookup(t)) {
                union_into(out, p.elems, scratch);
                std::mem::swap(out, scratch);
            }
        }
    }
}

/// Writes `a ∪ b` (both sorted and deduplicated) into `out`.
fn union_into(a: &[ElemId], b: &[ElemId], out: &mut Vec<ElemId>) {
    out.clear();
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => {
                out.push(x);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(y);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(a.get(i..).unwrap_or_default());
    out.extend_from_slice(b.get(j..).unwrap_or_default());
}

/// Keeps only the elements of `v` present in the sorted slice `other`.
/// The shorter list drives: each of its elements gallops through what is
/// left of the longer one, so a short posting list costs
/// `O(short · log(long / short))`, not a walk of the long one.
pub(crate) fn intersect_in_place(v: &mut Vec<ElemId>, other: &[ElemId]) {
    if v.len() <= other.len() {
        let mut rest = other;
        v.retain(|&e| {
            rest = rest.get(gallop(rest, e)..).unwrap_or_default();
            rest.first() == Some(&e)
        });
    } else {
        // `other` drives; survivors are written over the front of `v`,
        // behind the galloping read position.
        let mut kept = 0;
        let mut from = 0;
        for &e in other {
            let at = from + gallop(v.get(from..).unwrap_or_default(), e);
            if v.get(at) == Some(&e) {
                if let Some(slot) = v.get_mut(kept) {
                    *slot = e;
                }
                kept += 1;
                from = at + 1;
            } else {
                from = at;
            }
        }
        v.truncate(kept);
    }
}

/// The number of elements of the sorted `list` below `x`: an exponential
/// probe from the front, then a binary search of the bracketed run.
#[inline]
fn gallop(list: &[ElemId], x: ElemId) -> usize {
    let mut lo = 0;
    let mut step = 1;
    while list.get(lo + step - 1).is_some_and(|&y| y < x) {
        lo += step;
        step *= 2;
    }
    // Everything below `lo` is `< x`; the first `>= x` lies in the next
    // `step` entries.
    let run = list
        .get(lo..(lo + step).min(list.len()))
        .unwrap_or_default();
    lo + run.partition_point(|&y| y < x)
}

/// `/tag`: mark the context, then keep the elements of the tag's row whose
/// parent is marked — O(|context| + |row|) over dense arrays, and sorted
/// because the row is.
fn child_step(
    tags: &TagIndex,
    sc: &mut Scratch,
    current: &[ElemId],
    tag: &str,
    out: &mut Vec<ElemId>,
) {
    sc.begin_marks();
    for &u in current {
        sc.mark.mark(u);
    }
    let mark = &sc.mark;
    out.extend(tags.children(tag, |p| mark.is_marked(p)));
}

/// The tree children of `u` (none for a dead id), in document order.
pub(crate) fn tree_children(
    collection: &Collection,
    u: ElemId,
) -> impl Iterator<Item = ElemId> + '_ {
    let found = collection
        .to_local(u)
        .and_then(|(d, local)| Some((collection.document(d)?, collection.global_id(d, 0), local)));
    found
        .into_iter()
        .flat_map(|(doc, base, local)| doc.element(local).children.iter().map(move |&c| base + c))
}

/// `/*`: every tree child of the context, the one child step without a row
/// to scan, so it walks the documents. Children of distinct parents are
/// distinct, but parents are visited in global-id order while children
/// land at per-document offsets, so the output needs a sort.
fn wildcard_child_step(collection: &Collection, current: &[ElemId], out: &mut Vec<ElemId>) {
    for &u in current {
        out.extend(tree_children(collection, u));
    }
    out.sort_unstable();
}

/// Runs one planned `//` step into `out`. A backward join that runs out
/// of its touch budget drops its partial rows and the forward join
/// answers the step; `plan` then records the forward join and the
/// fallback. `plan`'s backward budget may be a lower bound (a plan priced
/// from bounds, see [`plan_connection_step_bounded`]): `exact_budget`
/// gives the budget itself, and is called only when the touches pass it.
fn connection_step<S: LabelSource>(
    index: &S,
    sc: &mut Scratch,
    plan: &mut StepPlan,
    exact_budget: impl FnOnce() -> usize,
    current: &[ElemId],
    cands: &[ElemId],
    out: &mut Vec<ElemId>,
) {
    match plan.strategy {
        Strategy::PairwiseProbe => step_pairwise(index, current, cands, out),
        Strategy::Enumerate => step_enumerate(index, sc, current, cands, out),
        Strategy::ForwardHopJoin => step_forward_hop_join(index, sc, current, cands, out),
        Strategy::BackwardHopJoin => {
            let start = out.len();
            let budget = plan.backward_budget();
            if !step_backward_hop_join(index, sc, current, cands, budget, exact_budget, out) {
                out.truncate(start);
                step_forward_hop_join(index, sc, current, cands, out);
                plan.strategy = Strategy::ForwardHopJoin;
                plan.fell_back = true;
            }
        }
    }
}

/// Pairwise probes (the paper's per-pair `LIN ⋈ LOUT` query): each
/// candidate is tested against the context set; `connected_from_any`
/// already excludes the reflexive `u == t` probe.
fn step_pairwise<S: LabelSource>(
    index: &S,
    current: &[ElemId],
    cands: &[ElemId],
    out: &mut Vec<ElemId>,
) {
    out.extend(
        cands
            .iter()
            .copied()
            .filter(|&t| index.connected_from_any(current, t)),
    );
}

/// Descendant-set enumeration: mark the closure of every context node
/// (buffer-reusing `descendants_into`, no hashing), then filter the
/// candidates through the marks.
fn step_enumerate<S: LabelSource>(
    index: &S,
    sc: &mut Scratch,
    current: &[ElemId],
    cands: &[ElemId],
    out: &mut Vec<ElemId>,
) {
    sc.begin_marks();
    for &u in current {
        index.descendants_into(u, &mut sc.desc_buf);
        for &v in &sc.desc_buf {
            if v != u {
                sc.mark.mark(v);
            }
        }
    }
    out.extend(cands.iter().copied().filter(|&t| sc.mark.is_marked(t)));
}

/// Forward (descendant-side) hop join, center-at-a-time: build the
/// deduplicated center set `C = ⋃_u ({u} ∪ Lout(u))` over the context
/// set, mark `⋃_{c ∈ C} ({c} ∪ inv_in(c))` — every node some context node
/// reaches — then filter the candidates through the marks. Linear in
/// total label size instead of quadratic in set sizes.
///
/// Context nodes that are themselves candidates need the XPath `u != t`
/// exclusion: for those, the centers are checked with contribution
/// ownership (a center contributed *only* by `t` cannot witness `t`).
fn step_forward_hop_join<S: LabelSource>(
    index: &S,
    sc: &mut Scratch,
    current: &[ElemId],
    cands: &[ElemId],
    out: &mut Vec<ElemId>,
) {
    sc.begin_centers();
    for &u in current {
        sc.add_center(u, u);
        for &c in index.lout_row(u) {
            sc.add_center(c, u);
        }
    }
    sc.begin_marks();
    for &c in &sc.centers {
        sc.mark.mark(c);
        for &v in index.holders_in_row(c) {
            sc.mark.mark(v);
        }
    }
    // Both sets are sorted: a merge walk finds the candidates that are
    // also context nodes.
    let mut ci = 0usize;
    for &t in cands {
        while ci < current.len() && current[ci] < t {
            ci += 1;
        }
        let hit = if ci < current.len() && current[ci] == t {
            sc.center_witness(t, t) || index.lin_row(t).iter().any(|&c| sc.center_witness(c, t))
        } else {
            sc.mark.is_marked(t)
        };
        if hit {
            out.push(t);
        }
    }
}

/// Backward (ancestor-side) hop join: stamp the context set, then scan
/// each candidate's ancestor rows — `inv_out(t)`, and `{d} ∪ inv_out(d)`
/// for `d ∈ Lin(t)` — for a stamped node, with early exit. Wins when the
/// candidate side is much smaller than the forward expansion.
///
/// Every candidate costs one touch, plus one per holder or `Lin` entry
/// scanned. Returns `false`, with partial rows in `out`, after the first
/// candidate that takes the touches over the budget; `true` once every
/// candidate is decided. `budget` is the budget or a lower bound on it:
/// the first time the touches pass it, `exact_budget` settles the budget
/// itself, so the join stops at the same candidate either way.
fn step_backward_hop_join<S: LabelSource>(
    index: &S,
    sc: &mut Scratch,
    current: &[ElemId],
    cands: &[ElemId],
    mut budget: usize,
    exact_budget: impl FnOnce() -> usize,
    out: &mut Vec<ElemId>,
) -> bool {
    let mut exact_budget = Some(exact_budget);
    sc.begin_marks();
    for &u in current {
        sc.mark.mark(u);
    }
    let mark = &sc.mark;
    let mut touches = 0usize;
    for &t in cands {
        touches += 1;
        // Label rows never contain self entries, so holders of `t` and
        // centers in `Lin(t)` are `!= t` by construction; only the inner
        // holder lists can surface `t` itself.
        let mut hit = scan(index.holders_out_row(t), &mut touches, |u| {
            mark.is_marked(u)
        });
        if !hit {
            for &d in index.lin_row(t) {
                touches += 1;
                if mark.is_marked(d)
                    || scan(index.holders_out_row(d), &mut touches, |u| {
                        u != t && mark.is_marked(u)
                    })
                {
                    hit = true;
                    break;
                }
            }
        }
        // Checked per candidate: a check per scanned row costs the
        // unbudgeted (forced) join ~10% on the INEX script.
        if touches > budget {
            if let Some(exact) = exact_budget.take() {
                budget = exact();
            }
            if touches > budget {
                return false;
            }
        }
        if hit {
            out.push(t);
        }
    }
    true
}

/// Does some entry of `row` satisfy `hit`? Adds the entries looked at —
/// up to the first hit, or the whole row — to `touches`.
#[inline]
fn scan(row: &[ElemId], touches: &mut usize, hit: impl Fn(ElemId) -> bool) -> bool {
    match row.iter().position(|&u| hit(u)) {
        Some(i) => {
            *touches += i + 1;
            true
        }
        None => {
            *touches += row.len();
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::parse_path;
    use hopi_core::{FrozenCover, HopiIndex};
    use hopi_partition::{build_index, BuildConfig};
    use hopi_xml::generator::{random_collection, RandomConfig};
    use hopi_xml::parser::parse_collection;

    fn fixture() -> (Collection, HopiIndex, TagIndex) {
        let c = parse_collection([
            (
                "lib",
                r#"<library>
                     <shelf>
                       <book><title/><author/></book>
                       <book><title/></book>
                     </shelf>
                     <link xlink:href="annex"/>
                   </library>"#,
            ),
            (
                "annex",
                r#"<annex>
                     <box><book><author/></book></box>
                   </annex>"#,
            ),
        ])
        .unwrap();
        let (index, _) = build_index(&c, &BuildConfig::default());
        let tags = TagIndex::build(&c);
        (c, index, tags)
    }

    fn corpus<'a, S>(
        c: &'a Collection,
        i: &'a S,
        t: &'a TagIndex,
        text: Option<&'a TextIndex>,
    ) -> Corpus<'a, S> {
        Corpus {
            collection: c,
            index: i,
            tags: t,
            text,
        }
    }

    /// Parses and evaluates `expr` with default options and no term index.
    fn eval<S: LabelSource>(c: &Collection, i: &S, t: &TagIndex, expr: &str) -> Vec<ElemId> {
        let expr = parse_path(expr).unwrap();
        evaluate_with(c, i, t, &expr, &EvalOptions::default())
    }

    /// Evaluates against a term index.
    fn eval_text<S: LabelSource>(
        c: &Collection,
        i: &S,
        t: &TagIndex,
        expr: &PathExpr,
        options: &EvalOptions,
        text: Option<&TextIndex>,
    ) -> Vec<ElemId> {
        Evaluator::new().run(corpus(c, i, t, text), expr, options, None)
    }

    /// [`eval_text`] with the EXPLAIN report alongside.
    fn explain<S: LabelSource>(
        c: &Collection,
        i: &S,
        t: &TagIndex,
        expr: &PathExpr,
        options: &EvalOptions,
        text: Option<&TextIndex>,
    ) -> (Vec<ElemId>, QueryPlanReport) {
        let mut report = QueryPlanReport::default();
        let rows = Evaluator::new().run(corpus(c, i, t, text), expr, options, Some(&mut report));
        (rows, report)
    }

    fn names(c: &Collection, ids: &[ElemId]) -> Vec<String> {
        ids.iter()
            .map(|&e| {
                let (d, l) = c.to_local(e).unwrap();
                format!("{}:{}", c.document(d).unwrap().name, l)
            })
            .collect()
    }

    /// Options pinning one strategy on every `//` step.
    fn forced(strategy: Strategy) -> EvalOptions {
        EvalOptions {
            force_strategy: Some(strategy),
            ..EvalOptions::default()
        }
    }

    #[test]
    fn child_axis_is_tree_only() {
        let (c, i, t) = fixture();
        let r = eval(&c, &i, &t, "/library/shelf/book");
        assert_eq!(r.len(), 2);
        // The annex book is NOT a tree child of shelf.
        assert!(names(&c, &r).iter().all(|n| n.starts_with("lib")));
    }

    #[test]
    fn connection_axis_crosses_links() {
        let (c, i, t) = fixture();
        // //library//author: the annex author is reachable via the link.
        let r = eval(&c, &i, &t, "/library//author");
        assert_eq!(r.len(), 2, "{:?}", names(&c, &r));
    }

    #[test]
    fn leading_connection_matches_anywhere() {
        let (c, i, t) = fixture();
        let r = eval(&c, &i, &t, "//book");
        assert_eq!(r.len(), 3);
        let r = eval(&c, &i, &t, "//book//author");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn wildcards() {
        let (c, i, t) = fixture();
        let r = eval(&c, &i, &t, "/library/*");
        assert_eq!(r.len(), 2); // shelf + link
        let r = eval(&c, &i, &t, "//box//*");
        assert_eq!(r.len(), 2); // book + author
    }

    #[test]
    fn root_anchored_tag_mismatch_is_empty() {
        let (c, i, t) = fixture();
        assert!(eval(&c, &i, &t, "/annex/shelf").is_empty());
        assert!(eval(&c, &i, &t, "//nothing").is_empty());
    }

    #[test]
    fn connection_excludes_self() {
        let (c, i, t) = fixture();
        // //book//book: no book reaches another book here except via…
        // lib books don't reach annex book (link hangs off library, not
        // book), so the result is empty — under every strategy.
        for strategy in Strategy::ALL {
            let expr = parse_path("//book//book").unwrap();
            let r = evaluate_with(&c, &i, &t, &expr, &forced(strategy));
            assert!(r.is_empty(), "{strategy}: {:?}", names(&c, &r));
        }
    }

    #[test]
    fn probe_budget_does_not_change_answers() {
        let (c, i, t) = fixture();
        for query in ["/library//author", "//book//author", "//box//*"] {
            let expr = parse_path(query).unwrap();
            let default = evaluate_with(&c, &i, &t, &expr, &EvalOptions::default());
            for probe_budget in [0, 1, usize::MAX] {
                let tuned = evaluate_with(
                    &c,
                    &i,
                    &t,
                    &expr,
                    &EvalOptions {
                        probe_budget,
                        ..EvalOptions::default()
                    },
                );
                assert_eq!(tuned, default, "budget {probe_budget} on {query}");
            }
        }
    }

    /// Seeds of [`cyclic_collection`] the oracle tests run on.
    const CYCLIC_SEEDS: [u64; 6] = [1, 2, 5, 9, 13, 21];

    fn cyclic_collection(seed: u64) -> Collection {
        random_collection(&RandomConfig {
            num_docs: 10,
            elements_range: (4, 9),
            num_links: 15,
            num_intra_links: 5,
            allow_cycles: true,
            text: Default::default(),
            seed,
        })
    }

    /// All four forced strategies, the planner default, and the BFS
    /// oracle agree on random cyclic collections — mutable and frozen.
    #[test]
    fn all_strategies_agree_with_oracle_on_cyclic_collections() {
        use hopi_graph::traversal::is_reachable;
        for seed in CYCLIC_SEEDS {
            let c = cyclic_collection(seed);
            let (index, _) = build_index(&c, &BuildConfig::default());
            let frozen = FrozenCover::from_cover(index.cover());
            let tags = TagIndex::build(&c);
            let g = c.element_graph();
            for query in [
                "//root//e2",
                "//e1//e4//e0",
                "//root//*",
                "//e3//e3",
                "//*//e1",
            ] {
                let expr = parse_path(query).unwrap();
                let baseline = evaluate_with(&c, &index, &tags, &expr, &EvalOptions::default());
                // Oracle for the last step of two-step expressions; deeper
                // expressions are cross-checked between strategies only.
                for strategy in Strategy::ALL {
                    let options = forced(strategy);
                    let mutable = evaluate_with(&c, &index, &tags, &expr, &options);
                    let frozen_r = evaluate_with(&c, &frozen, &tags, &expr, &options);
                    assert_eq!(mutable, baseline, "seed {seed} {query} {strategy} mutable");
                    assert_eq!(frozen_r, baseline, "seed {seed} {query} {strategy} frozen");
                    let mut sorted = mutable.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(mutable, sorted, "seed {seed} {query} {strategy} not sorted");
                }
            }
            // Direct oracle check on //root//TAG shapes.
            for target_tag in ["e0", "e3", "e7"] {
                let expr = parse_path(&format!("//root//{target_tag}")).unwrap();
                let roots = tags.elements("root");
                let mut expect: Vec<ElemId> = tags
                    .elements(target_tag)
                    .iter()
                    .copied()
                    .filter(|&t| roots.iter().any(|&r| r != t && is_reachable(&g, r, t)))
                    .collect();
                expect.sort_unstable();
                for strategy in Strategy::ALL {
                    let got = evaluate_with(&c, &index, &tags, &expr, &forced(strategy));
                    assert_eq!(got, expect, "seed {seed} tag {target_tag} {strategy}");
                }
            }
        }
    }

    /// The budgeted backward join, driven with every budget from 0 up to
    /// the first that completes: each run either finishes with the forward
    /// join's rows or reports an overrun, and the planned step answers
    /// like BFS either way — on the mutable and the frozen cover. Each
    /// budget also runs from lower bounds on it (half of it, and 0), which
    /// the join refines on demand: same rows, same overrun, same fallback.
    #[test]
    fn budgeted_backward_join_falls_back_to_exact_rows() {
        use hopi_graph::traversal::is_reachable;
        let mut fallbacks = 0;
        for seed in CYCLIC_SEEDS {
            let c = cyclic_collection(seed);
            let (index, _) = build_index(&c, &BuildConfig::default());
            let frozen = FrozenCover::from_cover(index.cover());
            let tags = TagIndex::build(&c);
            let g = c.element_graph();
            for (from, to) in [("root", "e2"), ("e3", "e3"), ("e1", "e4"), ("*", "e1")] {
                let mut current = Vec::new();
                match from {
                    "*" => wildcard_candidates(&c, &mut current),
                    tag => current.extend_from_slice(tags.elements(tag)),
                }
                let cands = tags.elements(to);
                let bfs: Vec<ElemId> = cands
                    .iter()
                    .copied()
                    .filter(|&t| current.iter().any(|&u| u != t && is_reachable(&g, u, t)))
                    .collect();
                let what = format!("seed {seed} //{from}//{to}");
                fallbacks += budget_sweep(&c, &index, &current, cands, &bfs, &what);
                fallbacks += budget_sweep(&c, &frozen, &current, cands, &bfs, &what);
            }
        }
        assert!(fallbacks > 0, "no budget ran out");
    }

    /// One [`budgeted_backward_join_falls_back_to_exact_rows`] sweep;
    /// returns how many budgets ran out.
    fn budget_sweep<S: LabelSource>(
        c: &Collection,
        index: &S,
        current: &[ElemId],
        cands: &[ElemId],
        bfs: &[ElemId],
        what: &str,
    ) -> usize {
        let mut sc = Scratch {
            bound: c.elem_id_bound().max(index.num_nodes()),
            ..Scratch::default()
        };
        let mut forward = Vec::new();
        step_forward_hop_join(index, &mut sc, current, cands, &mut forward);
        assert_eq!(forward, bfs, "{what}: forward join");
        for budget in 0.. {
            let mut rows = Vec::new();
            let finished = step_backward_hop_join(
                index,
                &mut sc,
                current,
                cands,
                budget,
                || budget,
                &mut rows,
            );
            if finished {
                assert_eq!(rows, forward, "{what}: backward join at budget {budget}");
            }
            for lower in [budget, budget / 2, 0] {
                let what = format!("{what}: budget {budget} from {lower}");
                // The join refines the lower bound once, on demand.
                let settled = std::cell::Cell::new(0);
                let exact = || {
                    settled.set(settled.get() + 1);
                    budget
                };
                let mut lazy = Vec::new();
                let lazy_finished =
                    step_backward_hop_join(index, &mut sc, current, cands, lower, exact, &mut lazy);
                assert_eq!((lazy_finished, &lazy), (finished, &rows), "{what}");
                assert!(settled.get() <= 1, "{what}");
                // The planned step, its plan priced at the lower bound.
                let mut plan = StepPlan {
                    strategy: Strategy::BackwardHopJoin,
                    costs: crate::plan::StepCosts {
                        forward: lower as f64,
                        ..Default::default()
                    },
                    forced: false,
                    budget_shortcut: false,
                    fell_back: false,
                };
                assert_eq!(plan.backward_budget(), lower);
                let mut step = Vec::new();
                connection_step(
                    index,
                    &mut sc,
                    &mut plan,
                    || budget,
                    current,
                    cands,
                    &mut step,
                );
                assert_eq!(step, bfs, "{what}: step");
                assert_eq!(plan.fell_back, !finished, "{what}");
                let answered = match finished {
                    true => Strategy::BackwardHopJoin,
                    false => Strategy::ForwardHopJoin,
                };
                assert_eq!(plan.strategy, answered, "{what}");
            }
            if finished {
                return budget;
            }
        }
        unreachable!("the unbounded budget finishes")
    }

    /// A plain run plans from the bounds of `Σ|Lout(u)|` where they agree;
    /// an EXPLAIN run always reads the sum. Both run the same strategies,
    /// fall back on the same steps and return the same rows.
    #[test]
    fn bounded_plans_run_like_exact_plans() {
        for seed in CYCLIC_SEEDS {
            let c = cyclic_collection(seed);
            let (index, _) = build_index(&c, &BuildConfig::default());
            let frozen = FrozenCover::from_cover(index.cover());
            let tags = TagIndex::build(&c);
            for query in [
                "//root//e2",
                "//e1//e4//e0",
                "//*//e1",
                "//e3//e3",
                "//e2//*",
            ] {
                let expr = parse_path(query).unwrap();
                for probe_budget in [0, 16, 4_096] {
                    let options = EvalOptions {
                        probe_budget,
                        ..EvalOptions::default()
                    };
                    let mut ev = Evaluator::new();
                    let rows = ev.run(corpus(&c, &frozen, &tags, None), &expr, &options, None);
                    let (explained, report) = explain(&c, &frozen, &tags, &expr, &options, None);
                    let what = format!("seed {seed} {query} budget {probe_budget}");
                    assert_eq!(rows, explained, "{what}");
                    assert_eq!(ev.strategy_counts(), report.strategy_counts(), "{what}");
                }
            }
        }
    }

    proptest::proptest! {
        /// The galloping intersection and the union merge against a
        /// filter and a sort over random sorted lists of any lengths.
        #[test]
        fn set_operations_match_naive_ones(
            a in proptest::collection::vec(0u32..400, 0..200),
            b in proptest::collection::vec(0u32..400, 0..30),
        ) {
            let sorted = |mut v: Vec<ElemId>| {
                v.sort_unstable();
                v.dedup();
                v
            };
            let (a, b) = (sorted(a), sorted(b));
            for (x, y) in [(&a, &b), (&b, &a)] {
                let mut meet = x.clone();
                intersect_in_place(&mut meet, y);
                let expect: Vec<ElemId> = x.iter().copied().filter(|e| y.contains(e)).collect();
                proptest::prop_assert_eq!(&meet, &expect);
                let mut join = Vec::new();
                union_into(x, y, &mut join);
                proptest::prop_assert_eq!(join, sorted([x.as_slice(), y].concat()));
            }
        }
    }

    #[test]
    fn self_reaching_context_nodes_need_a_foreign_witness() {
        // Two docs with the same root tag, one linking into the other:
        // //r//r must return the linked-to root (reached by the *other*
        // root) but not the linking root (reached by nobody) — the owner
        // tracking of the forward join, under every strategy.
        let c = parse_collection([
            ("a", r#"<r><cite xlink:href="b"/></r>"#),
            ("b", r#"<r><s/></r>"#),
        ])
        .unwrap();
        let (index, _) = build_index(&c, &BuildConfig::default());
        let tags = TagIndex::build(&c);
        let b_root = c.resolve_ref("b", "").unwrap();
        let expr = parse_path("//r//r").unwrap();
        for strategy in Strategy::ALL {
            let r = evaluate_with(&c, &index, &tags, &expr, &forced(strategy));
            assert_eq!(r, vec![b_root], "{strategy}");
        }
    }

    #[test]
    fn frozen_cover_answers_match_live_index() {
        let (c, i, t) = fixture();
        let frozen = FrozenCover::from_cover(i.cover());
        for query in [
            "/library//author",
            "//book//author",
            "//box//*",
            "//book//book",
            "/library/shelf/book",
        ] {
            let expr = parse_path(query).unwrap();
            for strategy in Strategy::ALL {
                let options = forced(strategy);
                assert_eq!(
                    evaluate_with(&c, &frozen, &t, &expr, &options),
                    evaluate_with(&c, &i, &t, &expr, &options),
                    "{strategy} on {query}"
                );
            }
        }
    }

    #[test]
    fn evaluator_reuse_matches_fresh_evaluation() {
        // One evaluator across many queries (the serving pattern) gives
        // the same answers as fresh state per query.
        let (c, i, t) = fixture();
        let mut ev = Evaluator::new();
        for _ in 0..3 {
            for query in ["/library//author", "//book//author", "//box//*", "//book"] {
                let expr = parse_path(query).unwrap();
                let reused = ev.run(
                    corpus(&c, &i, &t, None),
                    &expr,
                    &EvalOptions::default(),
                    None,
                );
                let fresh = Evaluator::new().run(
                    corpus(&c, &i, &t, None),
                    &expr,
                    &EvalOptions::default(),
                    None,
                );
                assert_eq!(reused, fresh, "{query}");
            }
        }
    }

    #[test]
    fn explain_reports_steps_and_counts() {
        let (c, i, t) = fixture();
        let expr = parse_path("//book//author").unwrap();
        let options = EvalOptions {
            probe_budget: 0,
            ..EvalOptions::default()
        };
        let (result, report) = explain(&c, &i, &t, &expr, &options, None);
        assert_eq!(result, evaluate_with(&c, &i, &t, &expr, &options));
        assert_eq!(report.steps.len(), 2);
        assert!(report.steps[0].plan.is_none(), "seed has no plan");
        let step = &report.steps[1];
        assert_eq!(step.input, 3);
        assert_eq!(step.output, result.len());
        assert!(step.plan.is_some());
        assert_eq!(report.strategy_counts().total(), 1);
        let text = report.render(&expr);
        assert!(text.contains("strategy="), "{text}");
        assert!(text.contains("//author"), "{text}");
        // EXPLAIN ANALYZE: every executed step carries a measured wall
        // time (possibly 0µs on a coarse clock) and rendered rows/time.
        assert!(text.contains("time="), "{text}");
        assert!(
            text.contains(&format!("rows: 3 -> {}", result.len())),
            "{text}"
        );
        assert!(report.total_elapsed_us() >= report.steps[1].elapsed_us);
    }

    #[test]
    fn explain_reports_the_row_a_child_step_scans() {
        let (c, i, t) = fixture();
        let expr = parse_path("/library/shelf/book").unwrap();
        let (result, report) = explain(&c, &i, &t, &expr, &EvalOptions::default(), None);
        assert_eq!(result.len(), 2);
        // Two of the three books hang under the one shelf.
        let step = &report.steps[2];
        assert_eq!((step.input, step.candidates, step.output), (1, 3, 2));
        let text = report.render(&expr);
        assert!(
            text.contains("tree-child  context=1 candidates=3"),
            "{text}"
        );
    }

    fn text_fixture() -> (Collection, HopiIndex, TagIndex, hopi_text::TextIndex) {
        let c = parse_collection([
            (
                "lib",
                r#"<library>
                     <shelf>
                       <book><title>XML indexing with HOPI</title><author/></book>
                       <book><title>cooking for crowds</title></book>
                     </shelf>
                     <link xlink:href="annex"/>
                   </library>"#,
            ),
            (
                "annex",
                r#"<annex>
                     <box><book><title>two hop indexing</title><author/></book></box>
                   </annex>"#,
            ),
        ])
        .unwrap();
        let (index, _) = build_index(&c, &BuildConfig::default());
        let tags = TagIndex::build(&c);
        let text = hopi_text::TextIndex::build(&c);
        (c, index, tags, text)
    }

    #[test]
    fn content_predicates_filter_matches() {
        let (c, i, t, text) = text_fixture();
        let expr = parse_path("//library//title[contains(., \"indexing\")]").unwrap();
        let r = eval_text(&c, &i, &t, &expr, &EvalOptions::default(), Some(&text));
        // Both indexing titles are reachable from library (annex via link);
        // the cooking title is filtered out.
        assert_eq!(r.len(), 2, "{:?}", names(&c, &r));
        // Conjunction: both terms must occur in the same element.
        let expr = parse_path("//title[contains(., \"hop indexing\")]").unwrap();
        let r = eval_text(&c, &i, &t, &expr, &EvalOptions::default(), Some(&text));
        assert_eq!(r.len(), 1);
        // Disjunction: either term qualifies.
        let expr = parse_path("//title[about(., \"cooking hop\")]").unwrap();
        let r = eval_text(&c, &i, &t, &expr, &EvalOptions::default(), Some(&text));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn content_predicate_without_text_index_matches_nothing() {
        let (c, i, t, _) = text_fixture();
        let expr = parse_path("//title[contains(., \"indexing\")]").unwrap();
        assert!(eval_text(&c, &i, &t, &expr, &EvalOptions::default(), None).is_empty());
        // Structure-only expressions are unaffected by the missing index.
        let expr = parse_path("//library//title").unwrap();
        let r = eval_text(&c, &i, &t, &expr, &EvalOptions::default(), None);
        assert_eq!(r, evaluate_with(&c, &i, &t, &expr, &EvalOptions::default()));
    }

    #[test]
    fn content_placement_does_not_change_answers() {
        let (c, i, t, text) = text_fixture();
        for query in [
            "//library//title[contains(., \"indexing\")]",
            "//book[about(., \"xml cooking\")]",
            "//shelf//*[contains(., \"crowds\")]",
            "/library//title[about(., \"hop\")]",
            "//title[contains(., \"absent-term\")]",
        ] {
            let expr = parse_path(query).unwrap();
            let planned = eval_text(&c, &i, &t, &expr, &EvalOptions::default(), Some(&text));
            for strategy in Strategy::ALL {
                let forced_r = eval_text(&c, &i, &t, &expr, &forced(strategy), Some(&text));
                assert_eq!(forced_r, planned, "{strategy} on {query}");
            }
        }
    }

    #[test]
    fn explain_records_content_placement() {
        let (c, i, t, text) = text_fixture();
        let expr = parse_path("//library//title[contains(., \"indexing\")]").unwrap();
        let (r, report) = explain(&c, &i, &t, &expr, &EvalOptions::default(), Some(&text));
        assert_eq!(r.len(), 2);
        assert!(report.steps[1].content.is_some());
        let rendered = report.render(&expr);
        assert!(rendered.contains("content="), "{rendered}");
        // Seed-step predicates are recorded too.
        let expr = parse_path("//title[about(., \"cooking\")]").unwrap();
        let (_, report) = explain(&c, &i, &t, &expr, &EvalOptions::default(), Some(&text));
        assert_eq!(
            report.steps[0].content,
            Some(crate::plan::ContentPlacement::PostFilter)
        );
    }

    #[test]
    fn strategy_counts_tally_connection_steps() {
        let (c, i, t) = fixture();
        let expr = parse_path("//library//book//author").unwrap();
        let mut ev = Evaluator::new();
        ev.run(
            corpus(&c, &i, &t, None),
            &expr,
            &forced(Strategy::ForwardHopJoin),
            None,
        );
        let counts = ev.strategy_counts();
        assert_eq!(counts.forward_hop_join, 2);
        assert_eq!(counts.total(), 2);
        // The tally resets per run.
        ev.run(
            corpus(&c, &i, &t, None),
            &expr,
            &forced(Strategy::BackwardHopJoin),
            None,
        );
        assert_eq!(ev.strategy_counts().forward_hop_join, 0);
        assert_eq!(ev.strategy_counts().backward_hop_join, 2);
    }
}

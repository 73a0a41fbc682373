//! Set-at-a-time evaluation of path expressions against the HOPI index.
//!
//! * `/tag` steps walk the element-level **tree** (XPath child axis).
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
//! steady-state `//` steps allocate nothing; [`evaluate_with`] runs on a
//! per-thread evaluator, which is what the frozen serving path uses.
//!
//! Following XPath, `a//b` never returns the context node itself for
//! `a == b` (the 2-hop cover cannot distinguish a reflexive hit from a
//! cyclic path back to the node, and self-cycles are a degenerate case for
//! document data).

use crate::expr::{parse_path, Axis, ContentOp, ContentPredicate, ParseError, PathExpr};
use crate::plan::{
    plan_connection_step, plan_content_predicate, ContentPlacement, PlanCounts, QueryPlanReport,
    StepPlan, StepReport, Strategy,
};
use crate::tag_index::TagIndex;
use hopi_core::{HopiIndex, LabelSource};
use hopi_obs::Stopwatch;
use hopi_text::TextSource;
use hopi_xml::{Collection, ElemId};
use std::cell::RefCell;

/// Evaluation error (currently only malformed expressions via
/// [`evaluate_str`]).
#[derive(Debug)]
pub enum EvalError {
    /// The expression failed to parse.
    Parse(ParseError),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ParseError> for EvalError {
    fn from(e: ParseError) -> Self {
        EvalError::Parse(e)
    }
}

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

/// Parses and evaluates a path expression. Returns matching element ids,
/// sorted and deduplicated.
pub fn evaluate_str(
    collection: &Collection,
    index: &HopiIndex,
    tags: &TagIndex,
    expr: &str,
) -> Result<Vec<ElemId>, EvalError> {
    Ok(evaluate(collection, index, tags, &parse_path(expr)?))
}

/// Evaluates a parsed path expression with default [`EvalOptions`].
///
/// The index is any [`LabelSource`] — the live [`HopiIndex`] or a frozen
/// [`hopi_core::FrozenCover`] snapshot; answers are identical.
pub fn evaluate<S: LabelSource>(
    collection: &Collection,
    index: &S,
    tags: &TagIndex,
    expr: &PathExpr,
) -> Vec<ElemId> {
    evaluate_with(collection, index, tags, expr, &EvalOptions::default())
}

/// Evaluates a parsed path expression under explicit options, on this
/// thread's reusable [`Evaluator`] (see [`evaluate`] for the index
/// abstraction).
pub fn evaluate_with<S: LabelSource>(
    collection: &Collection,
    index: &S,
    tags: &TagIndex,
    expr: &PathExpr,
    options: &EvalOptions,
) -> Vec<ElemId> {
    with_thread_evaluator(|ev| ev.evaluate(collection, index, tags, expr, options))
}

/// Evaluates with an EXPLAIN-style per-step plan report alongside the
/// answer (same answer as [`evaluate_with`]).
pub fn evaluate_explained<S: LabelSource>(
    collection: &Collection,
    index: &S,
    tags: &TagIndex,
    expr: &PathExpr,
    options: &EvalOptions,
) -> (Vec<ElemId>, QueryPlanReport) {
    with_thread_evaluator(|ev| ev.evaluate_explained(collection, index, tags, expr, options))
}

/// Like [`evaluate_with`], resolving content predicates against a term
/// index. With `text = None` a content predicate matches nothing (there
/// is no text to search).
pub fn evaluate_with_text<S: LabelSource>(
    collection: &Collection,
    index: &S,
    tags: &TagIndex,
    expr: &PathExpr,
    options: &EvalOptions,
    text: Option<&dyn TextSource>,
) -> Vec<ElemId> {
    with_thread_evaluator(|ev| ev.evaluate_with_text(collection, index, tags, expr, options, text))
}

/// [`evaluate_with_text`] plus the EXPLAIN-style plan report (which
/// records where each content predicate was placed).
pub fn evaluate_explained_with_text<S: LabelSource>(
    collection: &Collection,
    index: &S,
    tags: &TagIndex,
    expr: &PathExpr,
    options: &EvalOptions,
    text: Option<&dyn TextSource>,
) -> (Vec<ElemId>, QueryPlanReport) {
    with_thread_evaluator(|ev| {
        ev.evaluate_explained_with_text(collection, index, tags, expr, options, text)
    })
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
    fn begin_centers(&mut self, n: usize) {
        self.center.begin(n);
        if self.center_owner.len() < n {
            self.center_owner.resize(n, 0);
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

    /// Evaluates a parsed expression. Same contract as the free
    /// [`evaluate_with`], but scratch lives in `self`.
    pub fn evaluate<S: LabelSource>(
        &mut self,
        collection: &Collection,
        index: &S,
        tags: &TagIndex,
        expr: &PathExpr,
        options: &EvalOptions,
    ) -> Vec<ElemId> {
        self.run(collection, index, tags, expr, options, None, None)
    }

    /// Evaluates with an EXPLAIN-style per-step plan report.
    pub fn evaluate_explained<S: LabelSource>(
        &mut self,
        collection: &Collection,
        index: &S,
        tags: &TagIndex,
        expr: &PathExpr,
        options: &EvalOptions,
    ) -> (Vec<ElemId>, QueryPlanReport) {
        let mut report = QueryPlanReport::default();
        let out = self.run(
            collection,
            index,
            tags,
            expr,
            options,
            None,
            Some(&mut report),
        );
        (out, report)
    }

    /// Evaluates with content predicates resolved against `text` (see the
    /// free [`evaluate_with_text`]).
    pub fn evaluate_with_text<S: LabelSource>(
        &mut self,
        collection: &Collection,
        index: &S,
        tags: &TagIndex,
        expr: &PathExpr,
        options: &EvalOptions,
        text: Option<&dyn TextSource>,
    ) -> Vec<ElemId> {
        self.run(collection, index, tags, expr, options, text, None)
    }

    /// [`Evaluator::evaluate_with_text`] plus the plan report.
    pub fn evaluate_explained_with_text<S: LabelSource>(
        &mut self,
        collection: &Collection,
        index: &S,
        tags: &TagIndex,
        expr: &PathExpr,
        options: &EvalOptions,
        text: Option<&dyn TextSource>,
    ) -> (Vec<ElemId>, QueryPlanReport) {
        let mut report = QueryPlanReport::default();
        let out = self.run(
            collection,
            index,
            tags,
            expr,
            options,
            text,
            Some(&mut report),
        );
        (out, report)
    }

    /// Per-strategy `//`-step executions of the most recent run — what the
    /// serving layer folds into its shared
    /// [`PlanCounters`](crate::plan::PlanCounters).
    pub fn strategy_counts(&self) -> PlanCounts {
        self.counts
    }

    #[allow(clippy::too_many_arguments)]
    fn run<S: LabelSource>(
        &mut self,
        collection: &Collection,
        index: &S,
        tags: &TagIndex,
        expr: &PathExpr,
        options: &EvalOptions,
        text: Option<&dyn TextSource>,
        mut report: Option<&mut QueryPlanReport>,
    ) -> Vec<ElemId> {
        self.counts = PlanCounts::default();
        // Stamp tables must span every id either side can produce.
        let bound = collection.elem_id_bound().max(index.num_nodes());
        let stats = index.cover_stats();
        // EXPLAIN ANALYZE: time each step only when a report is being
        // built, so the plain path stays measurement-free.
        let sw = report.as_ref().map(|_| Stopwatch::start());
        let mut current = seed(collection, tags, expr);
        let mut seed_content = None;
        if let Some(pred) = &expr.steps[0].predicate {
            // The seed set is already materialized, so the predicate can
            // only run as a post-filter over it.
            seed_content = Some(ContentPlacement::PostFilter);
            match text {
                Some(src) => {
                    predicate_matches(src, pred, &mut self.pred_matches);
                    intersect_in_place(&mut current, &self.pred_matches);
                }
                None => current.clear(),
            }
        }
        if let Some(rep) = report.as_deref_mut() {
            rep.steps.push(StepReport {
                step: 0,
                axis: expr.steps[0].axis,
                input: 0,
                candidates: 0,
                output: current.len(),
                plan: None,
                content: seed_content,
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
                    child_step(collection, &current, step.tag.as_deref(), &mut next);
                    if let Some(pred) = &step.predicate {
                        // Child steps materialize their output directly;
                        // the predicate filters it afterwards.
                        content = Some(ContentPlacement::PostFilter);
                        if let Some(src) = text {
                            predicate_matches(src, pred, &mut self.pred_matches);
                        } else {
                            self.pred_matches.clear();
                        }
                    }
                    None
                }
                Axis::Connection => {
                    let mut cands: &[ElemId] = match step.tag.as_deref() {
                        Some(t) => tags.elements(t),
                        None => {
                            wildcard_candidates(collection, &mut self.cand_buf);
                            &self.cand_buf
                        }
                    };
                    if let Some(pred) = &step.predicate {
                        match text {
                            Some(src) => {
                                // Order content vs. structure by selectivity:
                                // posting-length bound against the tag test's
                                // candidate count.
                                let placement = plan_content_predicate(
                                    predicate_estimate(src, pred),
                                    cands.len(),
                                );
                                content = Some(placement);
                                predicate_matches(src, pred, &mut self.pred_matches);
                                if placement == ContentPlacement::PreFilter {
                                    intersect_into(cands, &self.pred_matches, &mut self.pred_buf);
                                    cands = &self.pred_buf;
                                }
                            }
                            None => {
                                // No text index: the predicate matches nothing.
                                content = Some(ContentPlacement::PostFilter);
                                self.pred_matches.clear();
                            }
                        }
                    }
                    cand_len = cands.len();
                    if cands.is_empty() {
                        None
                    } else {
                        let lout_total: usize =
                            current.iter().map(|&u| index.lout_row(u).len()).sum();
                        let mut plan = plan_connection_step(
                            &stats,
                            current.len(),
                            lout_total,
                            cands.len(),
                            options.probe_budget,
                            options.force_strategy,
                        );
                        let sc = &mut self.scratch;
                        connection_step(index, sc, bound, &mut plan, &current, cands, &mut next);
                        self.counts.record(&plan);
                        Some(plan)
                    }
                }
            };
            if content == Some(ContentPlacement::PostFilter) {
                intersect_in_place(&mut next, &self.pred_matches);
            }
            debug_assert!(next.windows(2).all(|w| w[0] < w[1]), "sorted+deduped");
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
}

/// Seeds the first step: document roots for `/`, anywhere for `//`.
fn seed(collection: &Collection, tags: &TagIndex, expr: &PathExpr) -> Vec<ElemId> {
    let first = &expr.steps[0];
    match first.axis {
        Axis::Child => {
            // Document ids are never reused and id ranges grow
            // monotonically, so visiting live docs in order emits sorted
            // root ids.
            let out: Vec<ElemId> = collection
                .doc_ids()
                .map(|d| collection.global_id(d, 0))
                .filter(|&root| matches_tag(collection, tags, root, first.tag.as_deref()))
                .collect();
            debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
            out
        }
        Axis::Connection => match first.tag.as_deref() {
            Some(t) => tags.elements(t).to_vec(),
            None => {
                let mut out = Vec::new();
                wildcard_candidates(collection, &mut out);
                out
            }
        },
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
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
}

/// Upper bound on a predicate's matching-element count, from posting-list
/// lengths alone: a conjunction can match at most its rarest term's df, a
/// disjunction at most the sum of dfs.
pub(crate) fn predicate_estimate(src: &dyn TextSource, pred: &ContentPredicate) -> usize {
    match pred.op {
        ContentOp::Contains => pred.terms.iter().map(|t| src.df(t)).min().unwrap_or(0),
        ContentOp::About => pred.terms.iter().map(|t| src.df(t)).sum(),
    }
}

/// Materializes the sorted element set matching a predicate:
/// intersection of the term posting lists for `contains`, union for
/// `about`.
pub(crate) fn predicate_matches(
    src: &dyn TextSource,
    pred: &ContentPredicate,
    out: &mut Vec<ElemId>,
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
            out.extend_from_slice(lists[0].elems);
            for p in &lists[1..] {
                intersect_in_place(out, p.elems);
                if out.is_empty() {
                    return;
                }
            }
        }
        ContentOp::About => {
            // Posting lists are sorted, so merging them in one by one
            // builds the union without a sort pass.
            let mut merged = Vec::new();
            for p in pred.terms.iter().filter_map(|t| src.lookup(t)) {
                union_into(out, p.elems, &mut merged);
                std::mem::swap(out, &mut merged);
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

/// Keeps only the elements of `v` present in the sorted slice `other`
/// (one merge walk; both inputs sorted).
pub(crate) fn intersect_in_place(v: &mut Vec<ElemId>, other: &[ElemId]) {
    let mut i = 0usize;
    v.retain(|&e| {
        while i < other.len() && other[i] < e {
            i += 1;
        }
        i < other.len() && other[i] == e
    });
}

/// Writes `a ∩ b` (both sorted) into `out`.
fn intersect_into(a: &[ElemId], b: &[ElemId], out: &mut Vec<ElemId>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

fn matches_tag(collection: &Collection, tags: &TagIndex, e: ElemId, tag: Option<&str>) -> bool {
    match tag {
        None => true,
        Some(t) => {
            // Tag index membership is cheaper than materializing the doc.
            let _ = collection;
            tags.has_tag(e, t)
        }
    }
}

/// `/tag`: tree children of the current set, sorted + deduped into the
/// reused output buffer (children of distinct parents are distinct, but a
/// sort is still needed: parents are visited in global-id order while
/// children land at per-document offsets).
fn child_step(
    collection: &Collection,
    current: &[ElemId],
    tag: Option<&str>,
    out: &mut Vec<ElemId>,
) {
    for &u in current {
        let Some((d, local)) = collection.to_local(u) else {
            continue;
        };
        let Some(doc) = collection.document(d) else {
            continue;
        };
        let base = collection.global_id(d, 0);
        for &c in &doc.element(local).children {
            if tag.is_none_or(|t| doc.element(c).tag == t) {
                out.push(base + c);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// Runs one planned `//` step into `out`. A backward join that runs out
/// of its touch budget drops its partial rows and the forward join
/// answers the step; `plan` then records the forward join and the
/// fallback.
fn connection_step<S: LabelSource>(
    index: &S,
    sc: &mut Scratch,
    bound: usize,
    plan: &mut StepPlan,
    current: &[ElemId],
    cands: &[ElemId],
    out: &mut Vec<ElemId>,
) {
    match plan.strategy {
        Strategy::PairwiseProbe => step_pairwise(index, current, cands, out),
        Strategy::Enumerate => step_enumerate(index, sc, bound, current, cands, out),
        Strategy::ForwardHopJoin => step_forward_hop_join(index, sc, bound, current, cands, out),
        Strategy::BackwardHopJoin => {
            let start = out.len();
            let budget = plan.backward_budget();
            if !step_backward_hop_join(index, sc, bound, current, cands, budget, out) {
                out.truncate(start);
                step_forward_hop_join(index, sc, bound, current, cands, out);
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
    bound: usize,
    current: &[ElemId],
    cands: &[ElemId],
    out: &mut Vec<ElemId>,
) {
    sc.mark.begin(bound);
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
    bound: usize,
    current: &[ElemId],
    cands: &[ElemId],
    out: &mut Vec<ElemId>,
) {
    sc.begin_centers(bound);
    for &u in current {
        sc.add_center(u, u);
        for &c in index.lout_row(u) {
            sc.add_center(c, u);
        }
    }
    sc.mark.begin(bound);
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
/// candidate that takes the touches over `budget`; `true` once every
/// candidate is decided.
fn step_backward_hop_join<S: LabelSource>(
    index: &S,
    sc: &mut Scratch,
    bound: usize,
    current: &[ElemId],
    cands: &[ElemId],
    budget: usize,
    out: &mut Vec<ElemId>,
) -> bool {
    sc.mark.begin(bound);
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
            return false;
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
    use hopi_core::FrozenCover;
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
        let r = evaluate_str(&c, &i, &t, "/library/shelf/book").unwrap();
        assert_eq!(r.len(), 2);
        // The annex book is NOT a tree child of shelf.
        assert!(names(&c, &r).iter().all(|n| n.starts_with("lib")));
    }

    #[test]
    fn connection_axis_crosses_links() {
        let (c, i, t) = fixture();
        // //library//author: the annex author is reachable via the link.
        let r = evaluate_str(&c, &i, &t, "/library//author").unwrap();
        assert_eq!(r.len(), 2, "{:?}", names(&c, &r));
    }

    #[test]
    fn leading_connection_matches_anywhere() {
        let (c, i, t) = fixture();
        let r = evaluate_str(&c, &i, &t, "//book").unwrap();
        assert_eq!(r.len(), 3);
        let r = evaluate_str(&c, &i, &t, "//book//author").unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn wildcards() {
        let (c, i, t) = fixture();
        let r = evaluate_str(&c, &i, &t, "/library/*").unwrap();
        assert_eq!(r.len(), 2); // shelf + link
        let r = evaluate_str(&c, &i, &t, "//box//*").unwrap();
        assert_eq!(r.len(), 2); // book + author
    }

    #[test]
    fn root_anchored_tag_mismatch_is_empty() {
        let (c, i, t) = fixture();
        assert!(evaluate_str(&c, &i, &t, "/annex/shelf").unwrap().is_empty());
        assert!(evaluate_str(&c, &i, &t, "//nothing").unwrap().is_empty());
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
            let default = evaluate(&c, &i, &t, &expr);
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
                let baseline = evaluate(&c, &index, &tags, &expr);
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
    /// like BFS either way — on the mutable and the frozen cover.
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
        let bound = c.elem_id_bound().max(index.num_nodes());
        let mut sc = Scratch::default();
        let mut forward = Vec::new();
        step_forward_hop_join(index, &mut sc, bound, current, cands, &mut forward);
        assert_eq!(forward, bfs, "{what}: forward join");
        for budget in 0.. {
            let mut rows = Vec::new();
            let finished =
                step_backward_hop_join(index, &mut sc, bound, current, cands, budget, &mut rows);
            if finished {
                assert_eq!(rows, forward, "{what}: backward join at budget {budget}");
            }
            // The planned step under the same budget.
            let mut plan = StepPlan {
                strategy: Strategy::BackwardHopJoin,
                costs: crate::plan::StepCosts {
                    forward: budget as f64,
                    ..Default::default()
                },
                forced: false,
                budget_shortcut: false,
                fell_back: false,
            };
            assert_eq!(plan.backward_budget(), budget);
            let mut step = Vec::new();
            connection_step(index, &mut sc, bound, &mut plan, current, cands, &mut step);
            assert_eq!(step, bfs, "{what}: step at budget {budget}");
            assert_eq!(plan.fell_back, !finished, "{what}: budget {budget}");
            if finished {
                assert_eq!(plan.strategy, Strategy::BackwardHopJoin);
                return budget;
            }
            assert_eq!(plan.strategy, Strategy::ForwardHopJoin);
        }
        unreachable!("the unbounded budget finishes")
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
    fn parse_errors_propagate() {
        let (c, i, t) = fixture();
        assert!(matches!(
            evaluate_str(&c, &i, &t, "book"),
            Err(EvalError::Parse(_))
        ));
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
                let reused = ev.evaluate(&c, &i, &t, &expr, &EvalOptions::default());
                let fresh = Evaluator::new().evaluate(&c, &i, &t, &expr, &EvalOptions::default());
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
        let (result, report) = evaluate_explained(&c, &i, &t, &expr, &options);
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
        let r = evaluate_with_text(&c, &i, &t, &expr, &EvalOptions::default(), Some(&text));
        // Both indexing titles are reachable from library (annex via link);
        // the cooking title is filtered out.
        assert_eq!(r.len(), 2, "{:?}", names(&c, &r));
        // Conjunction: both terms must occur in the same element.
        let expr = parse_path("//title[contains(., \"hop indexing\")]").unwrap();
        let r = evaluate_with_text(&c, &i, &t, &expr, &EvalOptions::default(), Some(&text));
        assert_eq!(r.len(), 1);
        // Disjunction: either term qualifies.
        let expr = parse_path("//title[about(., \"cooking hop\")]").unwrap();
        let r = evaluate_with_text(&c, &i, &t, &expr, &EvalOptions::default(), Some(&text));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn content_predicate_without_text_index_matches_nothing() {
        let (c, i, t, _) = text_fixture();
        let expr = parse_path("//title[contains(., \"indexing\")]").unwrap();
        assert!(evaluate_with_text(&c, &i, &t, &expr, &EvalOptions::default(), None).is_empty());
        // Structure-only expressions are unaffected by the missing index.
        let expr = parse_path("//library//title").unwrap();
        let r = evaluate_with_text(&c, &i, &t, &expr, &EvalOptions::default(), None);
        assert_eq!(r, evaluate(&c, &i, &t, &expr));
    }

    #[test]
    fn content_placement_does_not_change_answers() {
        let (c, i, t, text) = text_fixture();
        let frozen_text = hopi_text::FrozenTextIndex::from_index(&text);
        for query in [
            "//library//title[contains(., \"indexing\")]",
            "//book[about(., \"xml cooking\")]",
            "//shelf//*[contains(., \"crowds\")]",
            "/library//title[about(., \"hop\")]",
            "//title[contains(., \"absent-term\")]",
        ] {
            let expr = parse_path(query).unwrap();
            let mutable =
                evaluate_with_text(&c, &i, &t, &expr, &EvalOptions::default(), Some(&text));
            let frozen = evaluate_with_text(
                &c,
                &i,
                &t,
                &expr,
                &EvalOptions::default(),
                Some(&frozen_text),
            );
            assert_eq!(mutable, frozen, "mutable vs frozen text on {query}");
            for strategy in Strategy::ALL {
                let forced_r =
                    evaluate_with_text(&c, &i, &t, &expr, &forced(strategy), Some(&text));
                assert_eq!(forced_r, mutable, "{strategy} on {query}");
            }
        }
    }

    #[test]
    fn explain_records_content_placement() {
        let (c, i, t, text) = text_fixture();
        let expr = parse_path("//library//title[contains(., \"indexing\")]").unwrap();
        let (r, report) =
            evaluate_explained_with_text(&c, &i, &t, &expr, &EvalOptions::default(), Some(&text));
        assert_eq!(r.len(), 2);
        assert!(report.steps[1].content.is_some());
        let rendered = report.render(&expr);
        assert!(rendered.contains("content="), "{rendered}");
        // Seed-step predicates are recorded too.
        let expr = parse_path("//title[about(., \"cooking\")]").unwrap();
        let (_, report) =
            evaluate_explained_with_text(&c, &i, &t, &expr, &EvalOptions::default(), Some(&text));
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
        ev.evaluate(&c, &i, &t, &expr, &forced(Strategy::ForwardHopJoin));
        let counts = ev.strategy_counts();
        assert_eq!(counts.forward_hop_join, 2);
        assert_eq!(counts.total(), 2);
        // The tally resets per run.
        ev.evaluate(&c, &i, &t, &expr, &forced(Strategy::BackwardHopJoin));
        assert_eq!(ev.strategy_counts().forward_hop_join, 0);
        assert_eq!(ev.strategy_counts().backward_hop_join, 2);
    }
}

//! Cost-based planning of `//` connection steps.
//!
//! A `//` step maps a sorted context set onto the candidate elements
//! reachable from it. Four physical strategies produce the same answer
//! (see `eval`):
//!
//! * **pairwise probe** — the paper's per-pair `LIN ⋈ LOUT` probe
//!   (§3.4), O(|context| × |candidates|) probes; unbeatable when both
//!   sides are tiny.
//! * **enumerate** — per-context-node descendant enumeration through the
//!   inverted lists, marking reached nodes; revisits shared centers once
//!   per holder. It is the forward join without center dedup, so it is
//!   forced only, never planned.
//! * **forward hop join** — Cohen-style center-at-a-time evaluation: the
//!   deduplicated center set `C = ⋃_u ({u} ∪ Lout(u))` is expanded once
//!   through the `inv_in` holder lists, so the step is linear in total
//!   label size instead of quadratic in set sizes.
//! * **backward hop join** — the symmetric ancestor-side join: the
//!   context set is stamped, then each candidate's `{v} ∪ Lin(v)` is
//!   checked against `inv_out` holder lists with early exit; wins when
//!   the candidate side is much smaller than the forward expansion.
//!
//! [`plan_connection_step`] prices pairwise probes and the two hop joins
//! from [`CoverStats`] averages plus the exact `Σ |Lout(u)|` of the
//! context set (O(1) per node via the CSR row lengths). Costs are
//! abstract row-entry-touch counts. Averages cannot see hub rows, so the
//! backward join's price is a guess in either direction; the planner
//! bounds what a wrong guess costs instead of trusting it. Unless probes
//! are cheapest, the backward join runs under a touch budget equal to the
//! forward estimate `F` and hands the step to the forward join when it
//! runs out. It is skipped outright only when its price exceeds `2F`,
//! the most a budgeted attempt can cost.
//!
//! Execution is observable end to end: every evaluation tallies the
//! strategies whose rows the steps returned and the budget overruns
//! ([`PlanCounts`], aggregated into shared [`PlanCounters`] by the
//! serving layer, surfaced via `GET /stats` and `/metrics`), and explain
//! mode ([`QueryPlanReport`]) records sizes, estimates, fallbacks and the
//! strategy that answered per step.

use crate::expr::{Axis, PathExpr};
use hopi_core::CoverStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// How one `//` connection step is executed. All strategies return the
/// same sorted, deduplicated answer — the planner picks a physical plan,
/// never an answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Per-candidate `Lout(u) ∩ Lin(v)` probes against the context set.
    PairwiseProbe,
    /// Per-context-node descendant-set enumeration.
    Enumerate,
    /// Set-at-a-time descendant-side hop join over `inv_in`.
    ForwardHopJoin,
    /// Set-at-a-time ancestor-side hop join over `inv_out`.
    BackwardHopJoin,
}

impl Strategy {
    /// All strategies, in counter/exposition order.
    pub const ALL: [Strategy; 4] = [
        Strategy::PairwiseProbe,
        Strategy::Enumerate,
        Strategy::ForwardHopJoin,
        Strategy::BackwardHopJoin,
    ];

    /// Stable label used in metrics expositions and explain output.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::PairwiseProbe => "pairwise_probe",
            Strategy::Enumerate => "enumerate",
            Strategy::ForwardHopJoin => "forward_hop_join",
            Strategy::BackwardHopJoin => "backward_hop_join",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            Strategy::PairwiseProbe => 0,
            Strategy::Enumerate => 1,
            Strategy::ForwardHopJoin => 2,
            Strategy::BackwardHopJoin => 3,
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A budgeted backward join wastes at most the forward estimate `F`
/// before it falls back, so a wrong guess costs at most `2F`. A backward
/// join priced at or under this many times `F` therefore stays within
/// that worst case even when it scans everything it was priced for, and
/// is worth trying; one priced above it runs the forward join directly.
const BACKWARD_FACTOR: f64 = 2.0;

/// Estimated cost of the planned strategies for one step (abstract
/// row-entry touches; comparable within a step only).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepCosts {
    /// Pairwise-probe estimate.
    pub pairwise: f64,
    /// Forward-hop-join estimate; also the backward join's touch budget.
    pub forward: f64,
    /// Backward-hop-join bound (early exit ignored).
    pub backward: f64,
}

/// Where a step's content predicate runs relative to its structural
/// join. Placement never changes answers — both orders compute the same
/// intersection of structural matches and term matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContentPlacement {
    /// Filter the candidate set through the posting lists *before* the
    /// structural join — the content side is the more selective one.
    PreFilter,
    /// Run the structural join first and filter its output — the
    /// structure side is the more selective one.
    PostFilter,
}

impl ContentPlacement {
    /// Stable label used in explain output.
    pub fn label(self) -> &'static str {
        match self {
            ContentPlacement::PreFilter => "pre_filter",
            ContentPlacement::PostFilter => "post_filter",
        }
    }
}

/// Orders a step's content predicate against its structural join by
/// selectivity: the predicate's posting-length bound (min df over terms
/// for conjunctive `contains`, Σ df for disjunctive `about`) against the
/// structural candidate count. A predicate expected to match fewer
/// elements than the tag test shrinks the join's candidate side first.
pub fn plan_content_predicate(posting_estimate: usize, cand_len: usize) -> ContentPlacement {
    if posting_estimate < cand_len {
        ContentPlacement::PreFilter
    } else {
        ContentPlacement::PostFilter
    }
}

/// The plan chosen for one `//` step, with the inputs that led to it.
#[derive(Clone, Copy, Debug)]
pub struct StepPlan {
    /// The strategy to run; once the step ran, the strategy whose rows it
    /// returned (the forward join after a fallback).
    pub strategy: Strategy,
    /// Per-strategy estimates (meaningless when `forced`).
    pub costs: StepCosts,
    /// `EvalOptions::force_strategy` override was in effect.
    pub forced: bool,
    /// The `probe_budget` shortcut fired (`|context| × |candidates|` under
    /// budget picks pairwise probes without pricing the alternatives).
    pub budget_shortcut: bool,
    /// The backward join ran out of its touch budget and the forward join
    /// answered the step.
    pub fell_back: bool,
}

impl StepPlan {
    /// Touches the backward join may spend before it gives the step to
    /// the forward join: the forward estimate when planned, unbounded
    /// when forced.
    pub(crate) fn backward_budget(&self) -> usize {
        if self.forced {
            usize::MAX
        } else {
            // Float-to-int `as` saturates, so a huge estimate stays huge.
            self.costs.forward.ceil() as usize
        }
    }
}

/// Picks the strategy for one `//` step: pairwise probes when they are
/// cheapest, otherwise a budgeted backward join, or the forward join when
/// the backward join is priced above `2F` (see the module docs).
/// Enumeration is never planned; only `force` selects it.
///
/// * `stats` — O(1) aggregate row statistics of the cover.
/// * `current_len` / `cand_len` — the materialized set sizes.
/// * `lout_total` — exact `Σ_{u ∈ context} |Lout(u)|` (the caller reads
///   row lengths while it has the context set in hand).
/// * `probe_budget` — compatibility shortcut: at or under this many
///   candidate probes the step stays on pairwise probes unpriced.
/// * `force` — test/CLI hook pinning one strategy.
pub fn plan_connection_step(
    stats: &CoverStats,
    current_len: usize,
    lout_total: usize,
    cand_len: usize,
    probe_budget: usize,
    force: Option<Strategy>,
) -> StepPlan {
    let cur = current_len as f64;
    let cand = cand_len as f64;
    let avg_inv_in = stats.avg_inv_in();
    let avg_inv_out = stats.avg_inv_out();
    let avg_lin = stats.avg_lin();
    let avg_lout = stats.avg_lout();

    // One probe costs a signature check plus (on hits or filter misses) a
    // bounded merge of two label rows.
    let pairwise = cur * cand * (2.0 + (avg_lin + avg_lout) / 2.0);
    // The forward join expands each distinct center once; the center set
    // is at most the summed Lout rows and at most every node.
    let centers = ((current_len + lout_total) as f64).min(stats.nodes as f64);
    let forward = cur + centers * (1.0 + avg_inv_in) + cand;
    // The backward join stamps the context set, then walks each
    // candidate's ancestor rows (early exit ignored).
    let backward = cur + cand * (2.0 + avg_lin * (1.0 + avg_inv_out) + avg_inv_out);

    let costs = StepCosts {
        pairwise,
        forward,
        backward,
    };
    let (strategy, forced, budget_shortcut) = if let Some(strategy) = force {
        (strategy, true, false)
    } else if current_len.saturating_mul(cand_len) <= probe_budget {
        (Strategy::PairwiseProbe, false, true)
    } else if pairwise <= forward.min(backward) {
        (Strategy::PairwiseProbe, false, false)
    } else if backward > BACKWARD_FACTOR * forward {
        (Strategy::ForwardHopJoin, false, false)
    } else {
        (Strategy::BackwardHopJoin, false, false)
    };
    StepPlan {
        strategy,
        costs,
        forced,
        budget_shortcut,
        fell_back: false,
    }
}

/// Point-in-time per-strategy execution totals (one cell per
/// [`Strategy`], in [`Strategy::ALL`] order semantics). A step counts
/// under the strategy whose rows it returned.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCounts {
    /// `//` steps executed as pairwise probes.
    pub pairwise_probe: u64,
    /// Steps executed as per-node enumeration.
    pub enumerate: u64,
    /// Steps executed as forward hop joins.
    pub forward_hop_join: u64,
    /// Steps executed as backward hop joins.
    pub backward_hop_join: u64,
    /// Budgeted backward joins that ran out of touches and handed their
    /// step to the forward join (counted there as well).
    pub backward_fallbacks: u64,
}

impl PlanCounts {
    /// Total `//` steps executed.
    pub fn total(&self) -> u64 {
        self.pairwise_probe + self.enumerate + self.forward_hop_join + self.backward_hop_join
    }

    /// The count for one strategy.
    pub fn get(&self, strategy: Strategy) -> u64 {
        self.cells()[strategy.index()]
    }

    /// Tallies one executed step.
    pub(crate) fn record(&mut self, plan: &StepPlan) {
        let mut cells = self.cells();
        cells[plan.strategy.index()] += 1;
        cells[FALLBACKS] += u64::from(plan.fell_back);
        *self = PlanCounts::from_cells(cells);
    }

    /// `(label, count)` pairs in exposition order, for metrics renderers.
    pub fn as_labeled(&self) -> [(&'static str, u64); 4] {
        [
            (Strategy::PairwiseProbe.label(), self.pairwise_probe),
            (Strategy::Enumerate.label(), self.enumerate),
            (Strategy::ForwardHopJoin.label(), self.forward_hop_join),
            (Strategy::BackwardHopJoin.label(), self.backward_hop_join),
        ]
    }

    /// The strategy cells in [`Strategy::index`] order, then the fallbacks.
    fn cells(&self) -> [u64; 5] {
        [
            self.pairwise_probe,
            self.enumerate,
            self.forward_hop_join,
            self.backward_hop_join,
            self.backward_fallbacks,
        ]
    }

    fn from_cells(cells: [u64; 5]) -> Self {
        PlanCounts {
            pairwise_probe: cells[0],
            enumerate: cells[1],
            forward_hop_join: cells[2],
            backward_hop_join: cells[3],
            backward_fallbacks: cells[FALLBACKS],
        }
    }
}

/// Index of the fallback tally after the four strategy cells.
const FALLBACKS: usize = 4;

/// Shared, thread-safe per-strategy execution counters — the serving
/// layer hangs one of these off the engine (behind an `Arc`) and folds
/// every query's [`PlanCounts`] into it, so plan regressions show up in
/// `GET /stats` and Prometheus `/metrics` instead of only in latency.
#[derive(Debug, Default)]
pub struct PlanCounters {
    cells: [AtomicU64; 5],
}

impl PlanCounters {
    /// A zeroed registry.
    pub fn new() -> Self {
        PlanCounters::default()
    }

    /// Records one executed step.
    pub fn record(&self, strategy: Strategy) {
        self.cells[strategy.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one query's tallies in (relaxed atomics; scrapes may be a
    /// hair stale but never torn).
    pub fn add(&self, counts: PlanCounts) {
        for (cell, n) in self.cells.iter().zip(counts.cells()) {
            if n != 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Point-in-time totals.
    pub fn counts(&self) -> PlanCounts {
        PlanCounts::from_cells(self.cells.each_ref().map(|c| c.load(Ordering::Relaxed)))
    }
}

/// One step's record in an explained evaluation.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Step index within the expression (0 = the seed step).
    pub step: usize,
    /// The step's axis.
    pub axis: Axis,
    /// Context-set size going in (0 for the seed step).
    pub input: usize,
    /// Candidate-set size (connection steps only).
    pub candidates: usize,
    /// Result-set size coming out.
    pub output: usize,
    /// The chosen plan (connection steps only; `None` for seed and child
    /// steps, which have a single implementation).
    pub plan: Option<StepPlan>,
    /// Content-predicate placement (`None` = structure-only step).
    pub content: Option<ContentPlacement>,
    /// Wall time the step took, in microseconds (EXPLAIN ANALYZE: the
    /// step actually ran; this is measured, not estimated).
    pub elapsed_us: u64,
}

/// EXPLAIN output of one evaluation: per-step sizes, estimates, and the
/// strategy that ran. Render it against the expression it came from with
/// [`QueryPlanReport::render`].
#[derive(Clone, Debug, Default)]
pub struct QueryPlanReport {
    /// One record per executed step, in order. Evaluation short-circuits
    /// on an empty context set, so this may be shorter than the
    /// expression.
    pub steps: Vec<StepReport>,
}

impl QueryPlanReport {
    /// Tallies the executed strategies (what serving folds into
    /// [`PlanCounters`]).
    pub fn strategy_counts(&self) -> PlanCounts {
        let mut counts = PlanCounts::default();
        for plan in self.steps.iter().filter_map(|s| s.plan.as_ref()) {
            counts.record(plan);
        }
        counts
    }

    /// Total measured wall time across all executed steps, in
    /// microseconds.
    pub fn total_elapsed_us(&self) -> u64 {
        self.steps.iter().map(|s| s.elapsed_us).sum()
    }

    /// Renders a human-readable plan, one line per step, labeling steps
    /// with the expression they came from.
    pub fn render(&self, expr: &PathExpr) -> String {
        let mut out = String::new();
        for report in &self.steps {
            let step_src = expr
                .steps
                .get(report.step)
                .map(|s| {
                    format!(
                        "{}{}",
                        match s.axis {
                            Axis::Child => "/",
                            Axis::Connection => "//",
                        },
                        s.tag.as_deref().unwrap_or("*")
                    )
                })
                .unwrap_or_default();
            out.push_str(&format!("step {}  {:<16}", report.step, step_src));
            if let Some(placement) = report.content {
                out.push_str(&format!("content={}  ", placement.label()));
            }
            match &report.plan {
                Some(plan) => {
                    let how = if plan.forced {
                        " (forced)"
                    } else if plan.budget_shortcut {
                        " (budget)"
                    } else if plan.fell_back {
                        " (backward over budget)"
                    } else {
                        ""
                    };
                    out.push_str(&format!(
                        "strategy={}{how}  context={} candidates={}  est: pairwise={:.0} forward={:.0} backward={:.0}",
                        plan.strategy,
                        report.input,
                        report.candidates,
                        plan.costs.pairwise,
                        plan.costs.forward,
                        plan.costs.backward,
                    ));
                }
                None if report.step == 0 => out.push_str("seed"),
                None if report.axis == Axis::Child => {
                    out.push_str(&format!("tree-child  context={}", report.input))
                }
                None => out.push_str(&format!(
                    "no candidates  context={} candidates=0",
                    report.input
                )),
            }
            out.push_str(&format!(
                "  rows: {} -> {}  time={}µs\n",
                report.input, report.output, report.elapsed_us
            ));
        }
        out.push_str(&format!("total time={}µs\n", self.total_elapsed_us()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> CoverStats {
        CoverStats {
            nodes: 1_000,
            lin_entries: 4_000,
            lout_entries: 2_000,
        }
    }

    #[test]
    fn budget_shortcut_keeps_tiny_steps_on_probes() {
        let plan = plan_connection_step(&stats(), 4, 12, 100, 4_096, None);
        assert_eq!(plan.strategy, Strategy::PairwiseProbe);
        assert!(plan.budget_shortcut);
    }

    #[test]
    fn large_steps_leave_pairwise() {
        // 1k × 1k probes is priced far above a linear hop join.
        let plan = plan_connection_step(&stats(), 1_000, 3_000, 1_000, 4_096, None);
        assert!(!plan.budget_shortcut);
        assert_ne!(plan.strategy, Strategy::PairwiseProbe);
        assert!(plan.costs.forward.min(plan.costs.backward) <= plan.costs.pairwise);
    }

    #[test]
    fn tiny_candidate_side_prefers_the_backward_join() {
        // Huge context, two candidates: the ancestor-side join touches a
        // couple of rows; the forward expansion touches the world.
        let plan = plan_connection_step(&stats(), 900, 5_000, 2, 0, None);
        assert_eq!(plan.strategy, Strategy::BackwardHopJoin);
        assert_eq!(plan.backward_budget(), plan.costs.forward.ceil() as usize);
    }

    #[test]
    fn backward_is_skipped_only_above_twice_the_forward_estimate() {
        // Small context, many candidates: the backward bound is far above
        // 2F, so the forward join runs without a budgeted attempt.
        let plan = plan_connection_step(&stats(), 500, 1_000, 5_000, 0, None);
        assert!(plan.costs.backward > BACKWARD_FACTOR * plan.costs.forward);
        assert_eq!(plan.strategy, Strategy::ForwardHopJoin);
        // A backward bound above F but within 2F still gets its try.
        let plan = plan_connection_step(&stats(), 200, 100, 110, 0, None);
        assert!(plan.costs.backward > plan.costs.forward);
        assert!(plan.costs.backward <= BACKWARD_FACTOR * plan.costs.forward);
        assert_eq!(plan.strategy, Strategy::BackwardHopJoin);
    }

    #[test]
    fn fig_article_on_the_inex_cover_runs_a_hop_join() {
        // `//fig//article` on the benchmark's INEX snapshot: enumeration
        // was priced just under the forward join here and ran ~100× slower.
        let inex = CoverStats {
            nodes: 12_218,
            lin_entries: 39_294,
            lout_entries: 15_305,
        };
        let plan = plan_connection_step(&inex, 249, 100, 387, 4_096, None);
        assert!(
            matches!(
                plan.strategy,
                Strategy::ForwardHopJoin | Strategy::BackwardHopJoin
            ),
            "{plan:?}"
        );
    }

    proptest::proptest! {
        #[test]
        fn no_unforced_plan_enumerates(
            (nodes, lin, lout) in (1usize..20_000, 0usize..80_000, 0usize..80_000),
            (current, lout_total, cand, probe_budget) in
                (1usize..20_000, 0usize..80_000, 1usize..20_000, 0usize..10_000),
        ) {
            let stats = CoverStats { nodes, lin_entries: lin, lout_entries: lout };
            let plan = plan_connection_step(&stats, current, lout_total, cand, probe_budget, None);
            proptest::prop_assert_ne!(plan.strategy, Strategy::Enumerate);
            proptest::prop_assert!(!plan.forced && !plan.fell_back);
        }
    }

    #[test]
    fn force_overrides_everything() {
        let plan = plan_connection_step(&stats(), 1, 0, 1, 4_096, Some(Strategy::Enumerate));
        assert_eq!(plan.strategy, Strategy::Enumerate);
        assert!(plan.forced);
    }

    #[test]
    fn counters_fold_counts() {
        let counters = PlanCounters::new();
        counters.record(Strategy::ForwardHopJoin);
        counters.add(PlanCounts {
            pairwise_probe: 2,
            enumerate: 0,
            forward_hop_join: 1,
            backward_hop_join: 3,
            backward_fallbacks: 1,
        });
        let counts = counters.counts();
        assert_eq!(counts.pairwise_probe, 2);
        assert_eq!(counts.forward_hop_join, 2);
        assert_eq!(counts.backward_hop_join, 3);
        assert_eq!(counts.backward_fallbacks, 1);
        assert_eq!(counts.total(), 7);
        assert_eq!(counts.as_labeled()[2], ("forward_hop_join", 2));
    }

    #[test]
    fn report_renders_step_lines() {
        let expr = crate::parse_path("//a//b").unwrap();
        let report = QueryPlanReport {
            steps: vec![
                StepReport {
                    step: 0,
                    axis: Axis::Connection,
                    input: 0,
                    candidates: 0,
                    output: 3,
                    plan: None,
                    content: None,
                    elapsed_us: 12,
                },
                StepReport {
                    step: 1,
                    axis: Axis::Connection,
                    input: 3,
                    candidates: 9,
                    output: 2,
                    plan: Some(StepPlan {
                        strategy: Strategy::ForwardHopJoin,
                        fell_back: true,
                        ..plan_connection_step(&stats(), 3, 4, 9, 0, None)
                    }),
                    content: Some(ContentPlacement::PreFilter),
                    elapsed_us: 30,
                },
            ],
        };
        let text = report.render(&expr);
        assert!(text.contains("step 0"), "{text}");
        assert!(text.contains("//b"), "{text}");
        assert!(
            text.contains("strategy=forward_hop_join (backward over budget)"),
            "{text}"
        );
        assert!(!text.contains("enumerate="), "{text}");
        assert!(text.contains("content=pre_filter"), "{text}");
        assert!(text.contains("rows: 3 -> 2"), "{text}");
        assert!(text.contains("time=30µs"), "{text}");
        assert!(text.contains("total time=42µs"), "{text}");
        let counts = report.strategy_counts();
        assert_eq!((counts.total(), counts.forward_hop_join), (1, 1));
        assert_eq!(counts.backward_fallbacks, 1);
        assert_eq!(report.total_elapsed_us(), 42);
    }

    #[test]
    fn content_placement_follows_selectivity() {
        assert_eq!(
            plan_content_predicate(10, 1_000),
            ContentPlacement::PreFilter
        );
        assert_eq!(
            plan_content_predicate(1_000, 10),
            ContentPlacement::PostFilter
        );
        // Ties keep the structural join first (its output is exact).
        assert_eq!(plan_content_predicate(5, 5), ContentPlacement::PostFilter);
    }
}

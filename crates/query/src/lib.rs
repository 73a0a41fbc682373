//! # hopi-query — path expressions with wildcards over the HOPI index
//!
//! The paper's motivation (§1.1): "the HOPI index … has been judiciously
//! designed to handle path expressions over arbitrary graphs and to support
//! the efficient evaluation of path queries with wildcards." This crate
//! provides that evaluation layer:
//!
//! * [`expr`] — a small path-expression language:
//!   `//article//author`, `/site/nav//book/title`, `//*//sec` — child axis
//!   (`/`), connection axis (`//`, parent/child *and* link edges, across
//!   documents), tag tests, `*` wildcards, and INEX-style content
//!   predicates: `//sec[contains(., "xml indexing")]` (all terms) and
//!   `//sec[about(., "…")]` (any term, the ranked-retrieval form).
//! * [`tag_index`] — an inverted element-by-tag index used to seed and
//!   filter step candidates.
//! * [`eval`] — set-at-a-time evaluation against any
//!   [`hopi_core::LabelSource`]: each `//` step runs one of four physical
//!   strategies (pairwise probes, per-node enumeration, forward/backward
//!   hop joins over the inverted center rows), with reusable scratch so
//!   steady-state steps allocate nothing.
//! * [`plan`] — the cost-based per-step planner behind those strategies,
//!   plus EXPLAIN reports and the shared per-strategy execution counters
//!   the serving layer exposes.
//! * [`ranking`] — distance-ranked evaluation against the
//!   distance-annotated [`hopi_core::FrozenCover`] (one distance per label
//!   entry), scoring results XXL-style by link
//!   distance (paper §5.1: "a path where an author element is found far
//!   away from a book element should be ranked lower"), fused with BM25
//!   text scores from the final step's content predicate.
//!
//! Both evaluations read a [`Corpus`] — collection, connection index, tag
//! index, optional term index — through one entry each:
//! [`Evaluator::run`] (with an optional EXPLAIN report; [`evaluate_with`]
//! runs it on this thread's evaluator without text) and [`rank`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod expr;
pub mod plan;
pub mod ranking;
pub mod tag_index;

pub use eval::{evaluate_with, with_thread_evaluator, Corpus, EvalOptions, Evaluator};
pub use expr::{parse_path, Axis, ContentOp, ContentPredicate, ParseError, PathExpr, Step};
pub use plan::{
    plan_content_predicate, ContentPlacement, PlanCounters, PlanCounts, QueryPlanReport, StepPlan,
    StepReport, Strategy,
};
pub use ranking::{rank, RankedMatch};
pub use tag_index::TagIndex;

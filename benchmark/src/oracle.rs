//! Independent reference answers, and the tally that counts every checked
//! output against them.
//!
//! Reachability is a plain BFS over `Collection::element_graph()` — never
//! the cover, never `TransitiveClosure`. Path expressions are evaluated by
//! a port of the brute-force evaluator of
//! `crates/query/tests/proptest_query.rs` (`oracle` + `pred_holds`, with
//! its exact `u ≠ t` rule on `//` steps), made multi-source: one BFS per
//! `//` step instead of one per (context, candidate) pair, so it runs on
//! collections of tens of thousands of elements.

use hopi_graph::{traversal, DiGraph, FixedBitSet};
use hopi_query::{Axis, ContentOp, ContentPredicate, PathExpr};
use hopi_xml::{Collection, ElemId};
use std::collections::HashSet;

/// The reference model: the collection (tags, tree edges, text) plus its
/// element graph. Link insertions that a workload acknowledges are
/// mirrored with [`Oracle::add_link`]; structural deletions rebuild it
/// with [`Oracle::new`].
pub struct Oracle<'a> {
    collection: &'a Collection,
    graph: DiGraph,
}

impl<'a> Oracle<'a> {
    pub fn new(collection: &'a Collection) -> Self {
        Oracle {
            collection,
            graph: collection.element_graph(),
        }
    }

    /// Mirrors an acknowledged `insert_link` that the borrowed collection
    /// does not contain (the HTTP workload verifies reads at past epochs).
    pub fn add_link(&mut self, from: ElemId, to: ElemId) {
        self.graph.add_edge(from, to);
    }

    pub fn is_live(&self, e: ElemId) -> bool {
        (e as usize) < self.graph.id_bound() && self.graph.is_alive(e)
    }

    /// Live element ids, ascending.
    pub fn live(&self) -> Vec<ElemId> {
        self.graph.nodes().collect()
    }

    pub fn connected(&self, u: ElemId, v: ElemId) -> bool {
        traversal::is_reachable(&self.graph, u, v)
    }

    /// Everything `u` reaches, itself included, ascending.
    pub fn descendants(&self, u: ElemId) -> Vec<ElemId> {
        traversal::reachable_from(&self.graph, u).to_vec()
    }

    /// Everything that reaches `u`, itself included, ascending.
    pub fn ancestors(&self, u: ElemId) -> Vec<ElemId> {
        traversal::reaching_to(&self.graph, u).to_vec()
    }

    fn tag_matches(&self, e: ElemId, tag: &Option<String>) -> bool {
        let Some(want) = tag else { return true };
        let (d, l) = self.collection.to_local(e).expect("live element");
        &self
            .collection
            .document(d)
            .expect("live doc")
            .element(l)
            .tag
            == want
    }

    fn pred_holds(&self, e: ElemId, pred: &ContentPredicate) -> bool {
        let text = self.collection.element_text(e).unwrap_or_default();
        let tokens: HashSet<String> = hopi_text::tokenize(text).collect();
        match pred.op {
            ContentOp::Contains => pred.terms.iter().all(|t| tokens.contains(t)),
            ContentOp::About => pred.terms.iter().any(|t| tokens.contains(t)),
        }
    }

    /// Nodes reachable from any of `sources` over at least one edge.
    fn reached_over_an_edge(&self, sources: &[ElemId]) -> FixedBitSet {
        let mut seen = FixedBitSet::new(self.graph.id_bound());
        let mut queue: Vec<ElemId> = Vec::new();
        for &s in sources {
            for &n in self.graph.successors(s) {
                if seen.insert(n) {
                    queue.push(n);
                }
            }
        }
        while let Some(u) = queue.pop() {
            for &n in self.graph.successors(u) {
                if seen.insert(n) {
                    queue.push(n);
                }
            }
        }
        seen
    }

    /// Brute-force evaluation of a path expression; sorted, deduplicated.
    pub fn query(&self, expr: &PathExpr) -> Vec<ElemId> {
        let all = self.live();
        let first = &expr.steps[0];
        let mut current: Vec<ElemId> = match first.axis {
            Axis::Child => self
                .collection
                .doc_ids()
                .map(|d| self.collection.global_id(d, 0))
                .filter(|&r| self.tag_matches(r, &first.tag))
                .collect(),
            Axis::Connection => all
                .iter()
                .copied()
                .filter(|&e| self.tag_matches(e, &first.tag))
                .collect(),
        };
        if let Some(pred) = &first.predicate {
            current.retain(|&e| self.pred_holds(e, pred));
        }
        for step in &expr.steps[1..] {
            let mut next: Vec<ElemId> = Vec::new();
            match step.axis {
                Axis::Child => {
                    for &u in &current {
                        let (d, l) = self.collection.to_local(u).expect("live element");
                        let doc = self.collection.document(d).expect("live doc");
                        let base = self.collection.global_id(d, 0);
                        for &ch in &doc.element(l).children {
                            if self.tag_matches(base + ch, &step.tag) {
                                next.push(base + ch);
                            }
                        }
                    }
                }
                Axis::Connection => {
                    // t qualifies iff some u ∈ current with u ≠ t reaches t.
                    // For t ∉ current any path from a context node has an
                    // edge, so one multi-source BFS decides it. For
                    // t ∈ current a path from t itself (a cycle) does not
                    // count, so those few are decided by a reverse BFS.
                    let reached = self.reached_over_an_edge(&current);
                    let in_context: HashSet<ElemId> = current.iter().copied().collect();
                    for t in reached.iter() {
                        if !self.is_live(t) || !self.tag_matches(t, &step.tag) {
                            continue;
                        }
                        let qualifies = !in_context.contains(&t)
                            || self
                                .ancestors(t)
                                .into_iter()
                                .any(|a| a != t && in_context.contains(&a));
                        if qualifies {
                            next.push(t);
                        }
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            if let Some(pred) = &step.predicate {
                next.retain(|&e| self.pred_holds(e, pred));
            }
            current = next;
        }
        current.sort_unstable();
        current.dedup();
        current
    }
}

/// Counts operations and wrong outputs. An `Err`, a non-200 or an answer
/// that differs from the oracle is a failed operation.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub examples: Vec<String>,
}

impl Tally {
    /// Counts operations that ran in a timed region and returned without
    /// error (their outputs are checked separately, outside it).
    pub fn ran(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Counts one operation that failed outright.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.record_failure(what);
    }

    /// Counts one checked output.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.record_failure(what);
        }
    }

    fn record_failure(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.examples.len() < 8 {
            self.examples.push(what());
        }
    }

    /// Checks one `connected(u, v)` answer.
    pub fn check_connected(
        &mut self,
        oracle: &Oracle,
        what: &str,
        u: ElemId,
        v: ElemId,
        got: bool,
    ) {
        let want = oracle.connected(u, v);
        self.check(got == want, || {
            format!("{what}: connected({u},{v}) = {got}, BFS says {want}")
        });
    }

    /// Checks `connected(u, ·)` answers of one source against one BFS.
    pub fn check_connected_row(
        &mut self,
        oracle: &Oracle,
        what: &str,
        u: ElemId,
        answers: impl IntoIterator<Item = (ElemId, bool)>,
    ) {
        let reach: HashSet<ElemId> = oracle.descendants(u).into_iter().collect();
        for (v, got) in answers {
            let want = reach.contains(&v);
            self.check(got == want, || {
                format!("{what}: connected({u},{v}) = {got}, BFS says {want}")
            });
        }
    }

    /// Checks one enumeration (compared as sets of live elements: the
    /// cover may keep purged ids of deleted elements out, never in).
    pub fn check_enumeration(
        &mut self,
        oracle: &Oracle,
        what: &str,
        u: ElemId,
        ancestors: bool,
        got: &[ElemId],
    ) {
        let want = if ancestors {
            oracle.ancestors(u)
        } else {
            oracle.descendants(u)
        };
        let mut got = got.to_vec();
        got.sort_unstable();
        got.dedup();
        self.check(got == want, || {
            let dir = if ancestors {
                "ancestors"
            } else {
                "descendants"
            };
            format!(
                "{what}: {dir}({u}) has {} elements, BFS says {}",
                got.len(),
                want.len()
            )
        });
    }

    /// Checks one query result against an expected row set.
    pub fn check_rows(&mut self, what: &str, expr: &str, got: &[ElemId], want: &[ElemId]) {
        self.check(got == want, || {
            format!(
                "{what}: {expr} returned {} rows, expected {}",
                got.len(),
                want.len()
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopi_query::parse_path;
    use hopi_xml::generator::{random_collection, RandomConfig};
    use hopi_xml::XmlDocument;

    /// The evaluator this module ports, verbatim in its `//` rule: one
    /// `is_reachable` per (context, candidate) pair.
    fn pairwise_reference(o: &Oracle, expr: &PathExpr) -> Vec<ElemId> {
        let all = o.live();
        let first = &expr.steps[0];
        let mut current: Vec<ElemId> = match first.axis {
            Axis::Child => o
                .collection
                .doc_ids()
                .map(|d| o.collection.global_id(d, 0))
                .filter(|&r| o.tag_matches(r, &first.tag))
                .collect(),
            Axis::Connection => all
                .iter()
                .copied()
                .filter(|&e| o.tag_matches(e, &first.tag))
                .collect(),
        };
        if let Some(p) = &first.predicate {
            current.retain(|&e| o.pred_holds(e, p));
        }
        for step in &expr.steps[1..] {
            let mut next: Vec<ElemId> = Vec::new();
            match step.axis {
                Axis::Child => {
                    for &u in &current {
                        let (d, l) = o.collection.to_local(u).unwrap();
                        let base = o.collection.global_id(d, 0);
                        for &ch in &o.collection.document(d).unwrap().element(l).children {
                            if o.tag_matches(base + ch, &step.tag) {
                                next.push(base + ch);
                            }
                        }
                    }
                }
                Axis::Connection => {
                    for &t in &all {
                        if o.tag_matches(t, &step.tag)
                            && current.iter().any(|&u| u != t && o.connected(u, t))
                        {
                            next.push(t);
                        }
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            if let Some(p) = &step.predicate {
                next.retain(|&e| o.pred_holds(e, p));
            }
            current = next;
        }
        current
    }

    #[test]
    fn multi_source_evaluator_equals_the_pairwise_one() {
        // Cyclic random collections, including same-tag `//e1//e1` steps
        // where the `u ≠ t` rule bites.
        for seed in 1..=6 {
            let c = random_collection(&RandomConfig {
                num_docs: 12,
                num_links: 24,
                seed,
                ..RandomConfig::default()
            });
            let o = Oracle::new(&c);
            for expr in [
                "//e1//e1",
                "//root//e2",
                "/root/e3//e1",
                "//*//e4",
                "//e1//*//e2",
                "//e2[about(., \"term0 term1 term2\")]//e3",
                "//root//e1[contains(., \"term0\")]",
            ] {
                let parsed = parse_path(expr).unwrap();
                assert_eq!(
                    o.query(&parsed),
                    pairwise_reference(&o, &parsed),
                    "seed {seed} {expr}"
                );
            }
        }
    }

    #[test]
    fn a_cycle_through_itself_does_not_qualify_a_context_node() {
        // a0 -> b -> a0 is a cycle; a1 is isolated. `//a//a`: a0 reaches
        // itself only through its own cycle, so nothing qualifies.
        let mut c = Collection::new();
        let mut d0 = XmlDocument::new("d0", "a");
        d0.add_element(0, "b");
        d0.add_intra_link(1, 0);
        c.add_document(d0);
        c.add_document(XmlDocument::new("d1", "a"));
        let o = Oracle::new(&c);
        assert!(o.query(&parse_path("//a//a").unwrap()).is_empty());
        assert_eq!(o.query(&parse_path("//a//b").unwrap()), vec![1]);
        assert_eq!(o.query(&parse_path("//b//a").unwrap()), vec![0]);
    }

    #[test]
    fn the_checker_reports_a_flipped_answer() {
        let c = random_collection(&RandomConfig::default());
        let o = Oracle::new(&c);
        let live = o.live();
        let (u, v) = (live[0], live[live.len() - 1]);
        let truth = o.connected(u, v);

        let mut tally = Tally::default();
        tally.check_connected(&o, "test", u, v, truth);
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        tally.check_connected(&o, "test", u, v, !truth);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.examples[0].contains("BFS says"));

        // Row form: flip exactly one of the answers of one source.
        let mut row: Vec<(ElemId, bool)> = live.iter().map(|&t| (t, o.connected(u, t))).collect();
        let mut tally = Tally::default();
        tally.check_connected_row(&o, "test", u, row.clone());
        assert_eq!(tally.failed, 0);
        row[3].1 = !row[3].1;
        tally.check_connected_row(&o, "test", u, row);
        assert_eq!(tally.failed, 1);

        // Enumerations and query rows: one element too many is caught.
        let mut desc = o.descendants(u);
        let mut tally = Tally::default();
        tally.check_enumeration(&o, "test", u, false, &desc);
        assert_eq!(tally.failed, 0);
        desc.pop();
        tally.check_enumeration(&o, "test", u, false, &desc);
        tally.check_rows("test", "//x", &[1, 2], &[1, 2, 3]);
        assert_eq!(tally.failed, 2);
    }
}

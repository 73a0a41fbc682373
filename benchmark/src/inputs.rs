//! The benchmark's inputs.
//!
//! **What the seed drives, and what it does not.** The collections are the
//! repository's canonical generator collections (the generators' default
//! seeds, the same ones `table2` and the serving benches use), and the
//! maintenance script of `maintain-dblp` is drawn from a fixed script seed;
//! `--seed` drives everything else a workload does: probe pairs,
//! enumeration sources, the links that are written, and which answers the
//! checks sample. Feeding the seed into the structure was tried and
//! rejected, because cover construction and §6.2 deletion are chaotic in
//! the link structure. At a fixed scale, eight seeds of the DBLP generator
//! build in 0.2 s to 4.0 s with 12 k to 72 k cover entries; the same INEX
//! trees under eight seeds of cross links answer the path script at 2.9 k
//! to 14.7 k queries/s; six seeds of the maintenance script cost 64 ms to
//! 144 ms per mutation and leave covers of 28 k to 48 k entries. A ruler
//! drawn from them would read a different length on every run, and the
//! driver bounds the spread over runs with different seeds at 25%.

use hopi_bench::add_cross_links;
use hopi_build::{BuildConfig, PartitionerChoice};
use hopi_partition::TcPartitionerConfig;
use hopi_xml::generator::{dblp, inex, DblpConfig, InexConfig};
use hopi_xml::{Collection, DocId, ElemId};
use rand::prelude::*;

/// Collection sizes: the measured tier and the `--smoke` tier (seconds per
/// workload, all checks on, numbers never compared).
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// DBLP scale of `build-dblp`.
    pub build_dblp_scale: f64,
    /// Closure budget per partition of `build-dblp` (see
    /// [`build_config`]).
    pub build_dblp_budget: u64,
    /// INEX scale of `query-inex` and `serve-http`.
    pub inex_scale: f64,
    /// Closure budget per partition of the INEX builds.
    pub inex_budget: u64,
    /// DBLP scale of `maintain-dblp`.
    pub maintain_dblp_scale: f64,
    /// Seeded `u ≠ v` probe pairs.
    pub pairs: usize,
    /// Enumeration sources of the per-layer kernels and the checks: a
    /// prefix of the seeded order in which the timed reads enumerate every
    /// live element.
    pub sources: usize,
    /// How many times a run sets up (its `setup_s` is their median).
    pub setups: usize,
    /// Row counts of the scripts (paths, then texts) on the three
    /// canonical collections before anything is written, pinned for the
    /// measured tier.
    pub build_dblp_rows: Option<&'static [usize]>,
    pub inex_rows: Option<&'static [usize]>,
    pub maintain_dblp_rows: Option<&'static [usize]>,
}

pub const FULL: Sizes = Sizes {
    build_dblp_scale: 0.06,
    build_dblp_budget: 100_000,
    inex_scale: 0.001,
    inex_budget: 100_000,
    maintain_dblp_scale: 0.03,
    pairs: 65_536,
    sources: 1024,
    setups: 5,
    build_dblp_rows: Some(&[
        927, 275, 275, 927, 1567, 927, 275, 373, 9547, 7524, 26, 37, 5, 0, 23,
    ]),
    inex_rows: Some(&[
        249, 2515, 1048, 493, 2617, 249, 310, 1236, 387, 249, 165, 26, 14, 110, 0, 193, 58,
    ]),
    maintain_dblp_rows: Some(&[
        440, 139, 139, 440, 813, 440, 139, 186, 4759, 3771, 12, 16, 2, 0, 11,
    ]),
};

pub const SMOKE: Sizes = Sizes {
    build_dblp_scale: 0.02,
    build_dblp_budget: 100_000,
    inex_scale: 0.0006,
    inex_budget: 100_000,
    maintain_dblp_scale: 0.02,
    pairs: 4_096,
    sources: 32,
    setups: 1,
    build_dblp_rows: None,
    inex_rows: None,
    maintain_dblp_rows: None,
};

/// The canonical DBLP-like citation collection at `scale`.
pub fn dblp_collection(scale: f64) -> Collection {
    dblp(&DblpConfig::scaled(scale))
}

/// The canonical INEX-like tree collection at `scale` with the serving
/// benches' two cross links per document.
pub fn inex_linked_collection(scale: f64) -> Collection {
    let mut c = inex(&InexConfig::scaled(scale));
    add_cross_links(&mut c);
    c
}

/// The default pipeline (closure-budget partitioner + PSG join, one cover
/// thread per CPU) with the partitioner's closure budget scaled down to
/// the collection. The default budget of 10⁶ connections is the paper's
/// N10 row for a 169 k-element collection; at the sizes that fit a run
/// here it yields one or two partitions and a join that does nothing, so
/// only half of the pipeline would be measured.
pub fn build_config(budget: u64) -> BuildConfig {
    BuildConfig {
        partitioner: PartitionerChoice::Tc(TcPartitionerConfig {
            max_connections_per_partition: budget,
            ..TcPartitionerConfig::default()
        }),
        ..BuildConfig::default()
    }
}

/// Path script P of the INEX collections (ten expressions). The generator
/// names elements by depth — `article`, `fm`/`bdy`, then `ss1`, `ss2`,
/// `p`, `ip1`, `it`, `b`, `fig` — and never emits `sec`.
pub const INEX_PATHS: [&str; 10] = [
    "//article//fig",
    "/article/bdy//ss2",
    "//bdy//it",
    "//ss1//b",
    "//article//ss2//p",
    "/article/bdy/ss1//fig",
    "//fig//article",
    "//p//ss1",
    "//article//au",
    "//ss2//ip1//fig",
];

/// Text script T of the INEX collections (seven expressions, the fifth
/// deliberately empty).
pub const INEX_TEXTS: [&str; 7] = [
    "//article//p[contains(., \"term0\")]",
    "//ss1//p[contains(., \"term7\")]",
    "//article//ss2[contains(., \"term0 term1\")]",
    "//ss1//p[about(., \"term2 term5 term9\")]",
    "//article//p[contains(., \"zzz_out_of_vocab\")]",
    "//article//p[about(., \"term0 term3\")]",
    "//ss2//ip1[about(., \"term4 term8\")]",
];

/// Path script of the DBLP collections: citation-following `//` steps
/// only. The last two are the paper's connection query itself —
/// everything an article, or a citation, reaches — and carry two thirds
/// of a pass: hop joins over thousands of candidates. A first script had
/// eight expressions of tens of microseconds each, two of them with
/// child-axis prefixes (`/article/citations/cite//title`), and its passes
/// were mostly parse, plan, allocate and walk element structs. That work
/// reacts to what the neighbours of a shared host do to the core far more
/// than hop joins or the reference kernel do (1.3 against 1.1 times the
/// quiet-machine time, reference-normalised, in the worst state seen), and
/// `path_qps` spread by 10–20% over ten runs on `build-dblp`. Child-axis
/// steps are measured on the INEX script.
pub const DBLP_PATHS: [&str; 10] = [
    "//article//author",
    "//article//cite//title",
    "//cite//article",
    "//author//name",
    "//article//cite//label",
    "//article//authors//affiliation",
    "//citations//booktitle",
    "//venue//booktitle",
    "//article//*",
    "//cite//*",
];

/// Text script of the DBLP collections (the fourth deliberately empty).
pub const DBLP_TEXTS: [&str; 5] = [
    "//article//title[contains(., \"term0\")]",
    "//cite//name[about(., \"term1 term4\")]",
    "//article//label[contains(., \"term0 term2\")]",
    "//article//title[contains(., \"zzz_out_of_vocab\")]",
    "//citations//affiliation[about(., \"term3 term6 term9\")]",
];

/// Is this the script's deliberately empty expression?
pub fn is_out_of_vocabulary(expr: &str) -> bool {
    expr.contains("zzz_out_of_vocab")
}

/// Strips `[...]` predicates: the structural skeleton of a text
/// expression (for `text.predicate_cost_ratio`).
pub fn strip_predicates(expr: &str) -> String {
    let mut out = String::with_capacity(expr.len());
    let mut depth = 0usize;
    for c in expr.chars() {
        match c {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// The read inputs of one run.
pub struct ReadInputs {
    pub pairs: Vec<(ElemId, ElemId)>,
    /// Every live element, in seeded order. The timed reads enumerate
    /// through all of them in chunks: a source reaches either a handful of
    /// elements or thousands, so a sample of a thousand sources costs ±6%
    /// by the draw alone, and the seed must not decide the work.
    pub sources: Vec<ElemId>,
    /// How many of them [`ReadInputs::sample`] returns.
    sample: usize,
    pub paths: &'static [&'static str],
    pub texts: &'static [&'static str],
}

impl ReadInputs {
    /// The seeded sample of sources the per-layer kernels enumerate.
    pub fn sample(&self) -> &[ElemId] {
        &self.sources[..self.sample.min(self.sources.len())]
    }
}

/// Live element ids of a collection, ascending.
pub fn live_elements(c: &Collection) -> Vec<ElemId> {
    let mut out = Vec::with_capacity(c.element_count());
    for d in c.doc_ids() {
        let base = c.global_id(d, 0);
        let len = c.document(d).expect("live doc").len() as u32;
        out.extend(base..base + len);
    }
    out
}

pub fn read_inputs(
    rng: &mut StdRng,
    c: &Collection,
    sizes: &Sizes,
    paths: &'static [&'static str],
    texts: &'static [&'static str],
) -> ReadInputs {
    let live = live_elements(c);
    assert!(live.len() >= 2, "collection too small to probe");
    let pick = |rng: &mut StdRng| live[rng.gen_range(0..live.len())];
    let pairs = (0..sizes.pairs)
        .map(|_| loop {
            let (u, v) = (pick(rng), pick(rng));
            if u != v {
                break (u, v);
            }
        })
        .collect();
    let mut sources = live;
    sources.shuffle(rng);
    ReadInputs {
        pairs,
        sources,
        sample: sizes.sources,
        paths,
        texts,
    }
}

/// Draws a link that is not in the collection yet, from a random element
/// of a document to the root of a document with a lower id — the direction
/// of the generator's citations, so a DAG stays a DAG. (Uniformly random
/// links weld a giant strongly connected component, after which every
/// deletion recomputes most of the cover.)
pub fn forward_link(rng: &mut StdRng, c: &Collection) -> (ElemId, ElemId) {
    let docs: Vec<DocId> = c.doc_ids().collect();
    assert!(docs.len() >= 2, "need two documents to link");
    loop {
        let hi = rng.gen_range(1..docs.len());
        let lo = rng.gen_range(0..hi);
        let len = c.document(docs[hi]).expect("live doc").len() as u32;
        let from = c.global_id(docs[hi], rng.gen_range(0..len));
        let to = c.global_id(docs[lo], 0);
        if !c.has_link(from, to) {
            return (from, to);
        }
    }
}

/// `n` distinct links, none in the collection, drawn like
/// [`forward_link`].
pub fn forward_links(rng: &mut StdRng, c: &Collection, n: usize) -> Vec<(ElemId, ElemId)> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let l = forward_link(rng, c);
        if seen.insert(l) {
            out.push(l);
        }
    }
    out
}

/// `n` distinct links that touch few labels: from a random element of a
/// document nothing links into (its ancestors are its tree ancestors) to a
/// random childless, linkless element of another document (its only
/// descendant is itself). §6.1 integrates such a link by adding a handful
/// of label entries, so the index a serving workload reads stays the same
/// size while it is written to, and a write's cost is the write path's —
/// publish, WAL, HTTP — not the cover's growth. (A link between two
/// arbitrary elements of the cross-linked INEX collection joins its giant
/// strongly connected component and adds ~7 k entries: 120 of them grow
/// the cover from 55 k to 930 k entries within one run.)
pub fn leaf_links(rng: &mut StdRng, c: &Collection, n: usize) -> Vec<(ElemId, ElemId)> {
    let mut linked_into = std::collections::HashSet::new();
    let mut links_out = std::collections::HashSet::new();
    for l in c.links() {
        linked_into.insert(c.doc_of(l.to).expect("live link target"));
        links_out.insert(l.from);
    }
    let docs: Vec<DocId> = c.doc_ids().collect();
    let sources: Vec<DocId> = docs
        .iter()
        .copied()
        .filter(|d| !linked_into.contains(d))
        .collect();
    assert!(!sources.is_empty(), "every document is a link target");
    let element = |rng: &mut StdRng, among: &[DocId]| {
        let d = among[rng.gen_range(0..among.len())];
        let len = c.document(d).expect("live doc").len() as u32;
        (d, rng.gen_range(0..len))
    };
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let (sd, sl) = element(rng, &sources);
        let (td, tl) = element(rng, &docs);
        let (from, to) = (c.global_id(sd, sl), c.global_id(td, tl));
        let target = c.document(td).expect("live doc");
        let is_leaf = target.element(tl).children.is_empty()
            && !links_out.contains(&to)
            && target.intra_links().iter().all(|&(f, _)| f != tl);
        // A target in a source document would make that document a link
        // target for the links drawn after it.
        if sd != td && is_leaf && !sources.contains(&td) && seen.insert((from, to)) {
            out.push((from, to));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_links_touch_few_labels() {
        let c = inex_linked_collection(0.0006);
        let g = c.element_graph();
        let mut rng = StdRng::seed_from_u64(9);
        let links = leaf_links(&mut rng, &c, 32);
        assert_eq!(links.len(), 32);
        for &(from, to) in &links {
            assert!(!c.has_link(from, to));
            let ancestors = hopi_graph::traversal::reaching_to(&g, from).count();
            let descendants = hopi_graph::traversal::reachable_from(&g, to).count();
            assert!(
                ancestors <= 16 && descendants == 1,
                "{ancestors} x {descendants}"
            );
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let c = dblp_collection(0.01);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let r = read_inputs(&mut rng, &c, &SMOKE, &DBLP_PATHS, &DBLP_TEXTS);
            (r.pairs, r.sources, forward_links(&mut rng, &c, 16))
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }

    #[test]
    fn pairs_are_distinct_live_elements_and_links_are_new() {
        let c = inex_linked_collection(0.0003);
        let mut rng = StdRng::seed_from_u64(3);
        let r = read_inputs(&mut rng, &c, &SMOKE, &INEX_PATHS, &INEX_TEXTS);
        assert!(r
            .pairs
            .iter()
            .all(|&(u, v)| u != v && c.doc_of(u).is_some() && c.doc_of(v).is_some()));
        for (from, to) in forward_links(&mut rng, &c, 32) {
            assert!(!c.has_link(from, to));
            assert!(c.doc_of(from).unwrap() > c.doc_of(to).unwrap());
        }
    }

    #[test]
    fn predicates_strip_to_the_structural_skeleton() {
        assert_eq!(strip_predicates(INEX_TEXTS[0]), "//article//p");
        assert_eq!(strip_predicates("//a[about(., \"x\")]//b"), "//a//b");
        assert!(is_out_of_vocabulary(INEX_TEXTS[4]));
    }
}

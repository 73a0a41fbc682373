//! Regenerates the **§7.3 index-maintenance experiments**:
//!
//! * fraction of documents that *separate* the document-level graph
//!   (paper: "about 60%" of the DBLP subset; 100% of INEX);
//! * average separator-test time (paper: ≈ 2 s on Java/Oracle full scale);
//! * average fast (Theorem 2) deletion time (paper: ≈ 13 s);
//! * general (Theorem 3) deletion time for non-separating documents
//!   (paper: can approach cover-rebuild cost for hub documents);
//! * §6.1 insertion timings (documents and links), supporting the
//!   abstract's "efficient updates" claim;
//! * the maintained cover's size beside what the redundancy ruler
//!   ([`hopi_bench::redundancy`]) leaves of it, after the deletions and
//!   again after the insertions.
//!
//! ```sh
//! cargo run -p hopi-bench --release --bin maintenance [--scale 0.03]
//! ```

use hopi_bench::{dblp_collection, inex_collection, redundancy, scale_arg, TablePrinter};
use hopi_build::{build_index, BuildConfig};
use hopi_core::HopiIndex;
use hopi_maintenance::{
    delete_document, insert_document, insert_link, separates, DeletionAlgorithm, DocumentLinks,
};
use hopi_xml::{CollectionStats, DocId, XmlDocument};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Instant;

fn main() {
    let scale = scale_arg(0.03);
    let mut collection = dblp_collection(scale);
    let stats = CollectionStats::of(&collection);
    println!("maintenance experiments — DBLP-like @ scale {scale}: {stats}\n");

    // --- Separator fraction + test timing over all documents.
    let docs: Vec<DocId> = collection.doc_ids().collect();
    let t0 = Instant::now();
    let separating: Vec<bool> = docs.iter().map(|&d| separates(&collection, d)).collect();
    let test_time = t0.elapsed();
    let frac = separating.iter().filter(|&&s| s).count() as f64 / docs.len() as f64;
    println!(
        "separator fraction: {:.1}% of {} documents (paper: ~60%)",
        frac * 100.0,
        docs.len()
    );
    println!(
        "separator test: {:.3} ms/doc average (paper: ~2 s on 2004 Java+Oracle)",
        test_time.as_secs_f64() * 1000.0 / docs.len() as f64
    );

    // --- Deletion timings.
    let (mut index, report) = build_index(&collection, &BuildConfig::default());
    println!(
        "\nindex built: {} entries in {:.1}s; deleting documents…\n",
        report.cover_size,
        report.total_ms as f64 / 1000.0
    );

    let mut rng = StdRng::seed_from_u64(0xde1);
    let mut sep_docs: Vec<DocId> = docs
        .iter()
        .zip(&separating)
        .filter(|(_, &s)| s)
        .map(|(&d, _)| d)
        .collect();
    let mut nonsep_docs: Vec<DocId> = docs
        .iter()
        .zip(&separating)
        .filter(|(_, &s)| !s)
        .map(|(&d, _)| d)
        .collect();
    sep_docs.shuffle(&mut rng);
    nonsep_docs.shuffle(&mut rng);

    let t = TablePrinter::new(&[("operation", 26), ("count", 6), ("mean", 12), ("max", 12)]);

    // Fast deletions (Theorem 2).
    let mut fast_times = Vec::new();
    for &d in sep_docs.iter().take(20) {
        let t0 = Instant::now();
        let outcome = delete_document(&mut collection, &mut index, d);
        fast_times.push(t0.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(outcome.algorithm, DeletionAlgorithm::FastSeparator);
    }
    report_times(&t, "fast delete (Thm 2)", &fast_times);

    // General deletions (Theorem 3). Re-test separation: earlier deletions
    // may have changed the document graph.
    let mut general_times = Vec::new();
    let mut seeds_used = Vec::new();
    for &d in nonsep_docs.iter().take(10) {
        if collection.document(d).is_none() || separates(&collection, d) {
            continue;
        }
        let t0 = Instant::now();
        let outcome = delete_document(&mut collection, &mut index, d);
        general_times.push(t0.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(outcome.algorithm, DeletionAlgorithm::General);
        seeds_used.push(outcome.recompute_seeds);
    }
    report_times(&t, "general delete (Thm 3)", &general_times);
    if !seeds_used.is_empty() {
        println!(
            "  (partial recomputation seeds: mean {:.0}, max {})",
            seeds_used.iter().sum::<usize>() as f64 / seeds_used.len() as f64,
            seeds_used.iter().max().unwrap()
        );
    }
    report_ruler("the deletions", &index);

    // --- Insertions (§6.1).
    let mut doc_insert_times = Vec::new();
    let live: Vec<DocId> = collection.doc_ids().collect();
    for i in 0..20 {
        let mut doc = XmlDocument::new(format!("ins{i}"), "article");
        doc.add_element(0, "title");
        let cites = doc.add_element(0, "citations");
        let c1 = doc.add_element(cites, "cite");
        let c2 = doc.add_element(cites, "cite");
        let t1 = live[rng.gen_range(0..live.len())];
        let t2 = live[rng.gen_range(0..live.len())];
        let links = DocumentLinks {
            outgoing: vec![
                (c1, collection.global_id(t1, 0)),
                (c2, collection.global_id(t2, 0)),
            ],
            incoming: vec![],
        };
        let t0 = Instant::now();
        insert_document(&mut collection, &mut index, doc, &links);
        doc_insert_times.push(t0.elapsed().as_secs_f64() * 1000.0);
    }
    report_times(&t, "insert document + 2 links", &doc_insert_times);

    let mut link_insert_times = Vec::new();
    let live: Vec<DocId> = collection.doc_ids().collect();
    for _ in 0..30 {
        let a = live[rng.gen_range(0..live.len())];
        let b = live[rng.gen_range(0..live.len())];
        if a == b {
            continue;
        }
        let from = collection.global_id(a, 0);
        let to = collection.global_id(b, 0);
        let t0 = Instant::now();
        insert_link(&mut collection, &mut index, from, to).expect("live endpoints");
        link_insert_times.push(t0.elapsed().as_secs_f64() * 1000.0);
    }
    report_times(&t, "insert link", &link_insert_times);
    report_ruler("the insertions", &index);

    // --- INEX: no links ⇒ every document separates (paper §7.3).
    let inex = inex_collection(scale * 0.02);
    let all_separate = inex.doc_ids().all(|d| separates(&inex, d));
    println!(
        "\nINEX-like ({} docs, {} links): all documents separate = {} (paper: every document separates)",
        inex.doc_count(),
        inex.links().len(),
        all_separate
    );
    assert!(all_separate);
}

/// The cover's size beside what the redundancy ruler leaves of it.
fn report_ruler(phase: &str, index: &HopiIndex) {
    let pruned = redundancy::prune(index.cover()).size();
    println!(
        "  cover after {phase}: {} entries, {pruned} after the redundancy ruler",
        index.size()
    );
}

fn report_times(t: &TablePrinter, name: &str, times_ms: &[f64]) {
    if times_ms.is_empty() {
        t.row(&[name.into(), "0".into(), "-".into(), "-".into()]);
        return;
    }
    let mean = times_ms.iter().sum::<f64>() / times_ms.len() as f64;
    let max = times_ms.iter().fold(0.0f64, |a, &b| a.max(b));
    t.row(&[
        name.into(),
        times_ms.len().to_string(),
        format!("{mean:.2} ms"),
        format!("{max:.2} ms"),
    ]);
}

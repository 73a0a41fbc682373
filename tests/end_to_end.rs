//! End-to-end integration tests: generate or parse a collection, build the
//! engine under every configuration, query it through the facade *and* a
//! persisted-store round trip, maintain it incrementally — always checked
//! against a freshly computed transitive-closure oracle.

use hopi::graph::traversal::{reachable_from, reaching_to};
use hopi::graph::TransitiveClosure;
use hopi::prelude::*;
use hopi::query::{parse_path, Corpus, Evaluator};
use hopi::xml::generator::{dblp, inex, random_collection, DblpConfig, InexConfig, RandomConfig};
use hopi::xml::parser::parse_collection;

fn oracle_check(hopi: &Hopi) {
    let g = hopi.collection().element_graph();
    let tc = TransitiveClosure::from_graph(&g);
    for u in (0..g.id_bound() as u32).filter(|&u| g.is_alive(u)) {
        for v in (0..g.id_bound() as u32).filter(|&v| g.is_alive(v)) {
            assert_eq!(hopi.connected(u, v), tc.contains(u, v), "pair ({u},{v})");
        }
    }
}

/// The engine's partitioners; preselection rides on the closure-budget
/// one. The baselines of Table 2 are checked in `hopi-bench`.
fn configurations() -> Vec<HopiBuilder> {
    vec![
        Hopi::builder().partitioner(PartitionerChoice::Flat),
        Hopi::builder().partitioner(PartitionerChoice::PerDocument),
        Hopi::builder()
            .partitioner(PartitionerChoice::Tc(TcPartitionerConfig {
                max_connections_per_partition: 300,
                ..Default::default()
            }))
            .preselect_link_targets(true),
    ]
}

#[test]
fn dblp_like_collection_all_configs() {
    let c = dblp(&DblpConfig::scaled(0.003)); // ~19 docs
    for builder in configurations() {
        let hopi = builder.build(c.clone()).unwrap();
        oracle_check(&hopi);
    }
}

#[test]
fn random_cyclic_collections_all_configs() {
    for seed in [3u64, 11, 29] {
        let c = random_collection(&RandomConfig {
            num_docs: 10,
            elements_range: (2, 7),
            num_links: 18,
            num_intra_links: 6,
            allow_cycles: true,
            seed,
            text: Default::default(),
        });
        for builder in configurations() {
            let hopi = builder.build(c.clone()).unwrap();
            oracle_check(&hopi);
        }
    }
}

/// Every live element's descendant and ancestor sets, from the live cover
/// and from a frozen snapshot, against BFS over the element graph.
fn enumeration_check(hopi: &Hopi) {
    let g = hopi.collection().element_graph();
    let snap = hopi.snapshot();
    for u in g.nodes() {
        let desc: Vec<ElemId> = reachable_from(&g, u).iter().collect();
        let anc: Vec<ElemId> = reaching_to(&g, u).iter().collect();
        assert_eq!(hopi.descendants(u), desc, "descendants of {u}");
        assert_eq!(snap.descendants(u), desc, "frozen descendants of {u}");
        assert_eq!(hopi.ancestors(u), anc, "ancestors of {u}");
        assert_eq!(snap.ancestors(u), anc, "frozen ancestors of {u}");
    }
}

#[test]
fn enumerations_match_bfs_before_and_after_a_theorem3_delete() {
    let mut general = 0;
    for seed in [5u64, 17] {
        // ~180 elements: 6 bitmap words, so short unions take the sort
        // side of the enumeration kernel and long ones the bitmap.
        let c = random_collection(&RandomConfig {
            num_docs: 40,
            elements_range: (2, 7),
            num_links: 70,
            num_intra_links: 10,
            allow_cycles: true,
            seed,
            text: Default::default(),
        });
        let mut hopi = Hopi::builder().build(c).unwrap();
        enumeration_check(&hopi);
        let docs: Vec<DocId> = hopi.collection().doc_ids().collect();
        for d in docs.into_iter().step_by(7) {
            let outcome = hopi.delete_document(d).unwrap();
            if outcome.algorithm == DeletionAlgorithm::General {
                general += 1;
                enumeration_check(&hopi);
            }
        }
    }
    assert!(general > 0, "no document took the Theorem 3 path");
}

/// `//`-only path expressions evaluated by brute force over the closure:
/// each step keeps the candidates some *other* context node reaches.
fn bfs_path(c: &Collection, tc: &TransitiveClosure, expr: &str) -> Vec<ElemId> {
    let tagged = |tag: &str| -> Vec<ElemId> {
        let mut out = Vec::new();
        for d in c.doc_ids() {
            let doc = c.document(d).expect("live document");
            for (local, e) in doc.elements() {
                if tag == "*" || e.tag == tag {
                    out.push(c.global_id(d, local));
                }
            }
        }
        out.sort_unstable();
        out
    };
    let mut tags = expr.split("//").skip(1);
    let mut current = tagged(tags.next().expect("a seed step"));
    for tag in tags {
        current = tagged(tag)
            .into_iter()
            .filter(|&t| current.iter().any(|&u| u != t && tc.contains(u, t)))
            .collect();
    }
    current
}

#[test]
fn planner_default_queries_match_bfs_and_fall_back_on_a_hub() {
    let mut fallbacks = 0;
    for seed in [3u64, 11, 29] {
        let mut c = random_collection(&RandomConfig {
            num_docs: 10,
            elements_range: (2, 7),
            num_links: 18,
            num_intra_links: 6,
            allow_cycles: true,
            seed,
            text: Default::default(),
        });
        // Every random element links into a hub document, so the hub's
        // leaves have long ancestor rows. A document of `lonely` elements
        // reaches nothing beyond itself: `//lonely//leaf` prices the
        // backward join from averages, but every leaf misses and scans
        // its whole ancestor rows, which overruns the budget.
        let mut hub = XmlDocument::new("hub", "hub");
        for _ in 0..8 {
            hub.add_element(0, "leaf");
        }
        let random_docs: Vec<DocId> = c.doc_ids().collect();
        let hub_id = c.add_document(hub);
        let hub_root = c.global_id(hub_id, 0);
        for d in random_docs {
            let len = c.document(d).expect("live document").len() as u32;
            for local in 0..len {
                c.add_link(c.global_id(d, local), hub_root);
            }
        }
        let mut lonely = XmlDocument::new("lonely", "lonely");
        for _ in 0..40 {
            lonely.add_element(0, "lonely");
        }
        c.add_document(lonely);

        let tc = TransitiveClosure::from_graph(&c.element_graph());
        let hopi = Hopi::builder().build(c).unwrap();
        // Probe budget 0: every step is planned, none shortcut to probes.
        let options = EvalOptions {
            probe_budget: 0,
            ..EvalOptions::default()
        };
        let mut ev = Evaluator::new();
        for expr in [
            "//lonely//leaf",
            "//lonely//*",
            "//root//leaf",
            "//*//leaf",
            "//e1//e4",
            "//e3//e3",
            "//root//e2//leaf",
            "//*//e1//*",
        ] {
            let want = bfs_path(hopi.collection(), &tc, expr);
            let corpus = Corpus {
                collection: hopi.collection(),
                index: hopi.index(),
                tags: hopi.tags(),
                text: None,
            };
            let rows = ev.run(corpus, &parse_path(expr).unwrap(), &options, None);
            assert_eq!(rows, want, "seed {seed} {expr}");
            fallbacks += ev.strategy_counts().backward_fallbacks;
        }
    }
    assert!(fallbacks > 0, "no backward join ran out of budget");
}

#[test]
fn inex_like_tree_collection() {
    // No links: every configuration degenerates to per-partition covers.
    let c = inex(&InexConfig {
        num_docs: 6,
        mean_elements: 40,
        max_depth: 7,
        seed: 5,
        text: Default::default(),
    });
    for builder in configurations() {
        let hopi = builder.build(c.clone()).unwrap();
        assert_eq!(hopi.report().cross_links, 0);
        assert_eq!(hopi.report().join_entries, 0);
        oracle_check(&hopi);
    }
}

#[test]
fn parsed_collection_roundtrip_through_store() {
    let c = parse_collection([
        ("a", r#"<r><x id="i1"/><l xlink:href="b#t"/></r>"#),
        ("b", r#"<r><y id="t"><z/></y></r>"#),
        ("c", r#"<r><l href="a"/><m idref="nothing"/></r>"#),
    ])
    .unwrap();
    let hopi = Hopi::build(c).unwrap();
    oracle_check(&hopi);

    // Persistence round trip: a reopened engine answers identically.
    let path = std::env::temp_dir().join("hopi_e2e_store.idx");
    hopi.save_frozen(&path).unwrap();
    let reloaded = Hopi::open(hopi.collection().clone(), &path).unwrap();
    assert_eq!(reloaded.stats().cover_entries, hopi.stats().cover_entries);
    let n = hopi.collection().elem_id_bound() as u32;
    for u in 0..n {
        for v in 0..n {
            assert_eq!(reloaded.connected(u, v), hopi.connected(u, v));
        }
        assert_eq!(reloaded.descendants(u), hopi.descendants(u));
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn full_lifecycle_build_maintain_query() {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(1234);
    let c = random_collection(&RandomConfig {
        num_docs: 8,
        elements_range: (2, 6),
        num_links: 10,
        num_intra_links: 4,
        allow_cycles: true,
        seed: 9,
        text: Default::default(),
    });
    let mut hopi = Hopi::build(c).unwrap();
    oracle_check(&hopi);

    // Mixed workload: inserts, link churn, deletions, modification.
    let mut live: Vec<DocId> = hopi.collection().doc_ids().collect();
    for round in 0..12 {
        match round % 4 {
            0 => {
                let mut doc = XmlDocument::new(format!("new{round}"), "r");
                doc.add_element(0, "s");
                let target = live[rng.gen_range(0..live.len())];
                let to = hopi.collection().global_id(target, 0);
                let d = hopi
                    .insert_document(
                        doc,
                        &DocumentLinks {
                            outgoing: vec![(1, to)],
                            incoming: vec![],
                        },
                    )
                    .unwrap();
                live.push(d);
            }
            1 => {
                let a = live[rng.gen_range(0..live.len())];
                let b = live[rng.gen_range(0..live.len())];
                if a != b {
                    let from = hopi.collection().global_id(a, 0);
                    let to = hopi.collection().global_id(b, 0);
                    hopi.insert_link(from, to).unwrap();
                }
            }
            2 => {
                if let Some(&l) = hopi.collection().links().first() {
                    hopi.delete_link(l.from, l.to).unwrap();
                }
            }
            _ => {
                if live.len() > 3 {
                    let victim = live.remove(rng.gen_range(0..live.len()));
                    hopi.delete_document(victim).unwrap();
                }
            }
        }
        oracle_check(&hopi);
        hopi.index().cover().check_invariants();
    }

    // Finish with a modification.
    let victim = live[0];
    let mut v2 = XmlDocument::new("rebuilt", "r");
    v2.add_element(0, "fresh");
    let new_id = hopi
        .modify_document(victim, v2, &DocumentLinks::default())
        .unwrap();
    assert!(hopi.collection().document(new_id).is_some());
    oracle_check(&hopi);
}

#[test]
fn compression_beats_closure_on_dblp() {
    // The headline claim: the cover is far smaller than the materialized
    // transitive closure.
    let c = dblp(&DblpConfig::scaled(0.02));
    let closure = TransitiveClosure::from_graph(&c.element_graph());
    let hopi = Hopi::builder()
        .partitioner(PartitionerChoice::Flat)
        .build(c)
        .unwrap();
    let ratio = hopi
        .report()
        .compression_vs(closure.connection_count() as u64);
    assert!(
        ratio > 5.0,
        "flat cover should compress the closure well, got {ratio:.1}x"
    );
    assert_eq!(hopi.index().size(), hopi.report().cover_size);
}

#[test]
fn distance_index_end_to_end() {
    let c = dblp(&DblpConfig::scaled(0.002));
    let g = c.element_graph();
    let dc = hopi::graph::DistanceClosure::from_graph(&g);
    let hopi = Hopi::builder().distance_aware(true).build(c).unwrap();
    for u in (0..g.id_bound() as u32).step_by(3) {
        for v in (0..g.id_bound() as u32).step_by(3) {
            assert_eq!(hopi.distance(u, v).unwrap(), dc.dist(u, v));
        }
    }
    // The distance augmentation must not blow up entry counts (paper
    // abstract: "low space overhead for including distance information").
    let stats = hopi.stats();
    let distance_entries = stats.distance_entries.expect("distance enabled");
    assert!(
        distance_entries <= stats.cover_entries * 3,
        "distance cover {} vs plain {}",
        distance_entries,
        stats.cover_entries
    );
}

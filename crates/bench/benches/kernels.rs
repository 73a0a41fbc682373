//! Criterion microbenches for the algorithmic kernels behind index
//! construction and maintenance: densest-subgraph peeling, the greedy
//! cover builder on the benchmark collections' closures, transitive
//! closure materialization, incremental closure edge insertion, the
//! separator test, and single-link cover integration — the §3.3 primitive
//! that centers every new connection on the link target, beside the §6.1
//! integration that picks the cheapest of centering and the two label
//! copies.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hopi_bench::{add_cross_links, dblp_collection, inex_collection, old_join};
use hopi_build::{build_index, BuildConfig};
use hopi_core::densest::{densest_subgraph, BipartiteCenterGraph};
use hopi_core::CoverBuilder;
use hopi_graph::traversal::reachable_from_many;
use hopi_graph::{FixedBitSet, TransitiveClosure};
use hopi_maintenance::{integrate_link, separates};
use hopi_partition::{tc_partitioner, TcPartitionerConfig};
use hopi_xml::{Collection, DocSet, LinkIndex};
use rand::prelude::*;
use rand::rngs::StdRng;

fn center_graph(nl: usize, nr: usize, density: f64, seed: u64) -> BipartiteCenterGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj = vec![FixedBitSet::new(nr); nl];
    for row in adj.iter_mut() {
        for j in 0..nr as u32 {
            if rng.gen_bool(density) {
                row.insert(j);
            }
        }
    }
    BipartiteCenterGraph {
        left: (0..nl as u32).collect(),
        right: (0..nr as u32).collect(),
        adj,
    }
}

/// The closure of the first partition the closure-budget partitioner cuts
/// from `collection` under `budget` connections per partition (the
/// benchmark's `build_config`).
fn partition_closure(collection: &Collection, budget: u64) -> TransitiveClosure {
    let config = TcPartitionerConfig {
        max_connections_per_partition: budget,
        ..TcPartitionerConfig::default()
    };
    let partitioning = tc_partitioner::partition(collection, &config);
    let docs = DocSet::new(collection, partitioning.partitions[0].docs.iter().copied());
    docs.closure(&LinkIndex::new(collection))
}

/// The partial closure a Theorem-3 deletion of the document with the most
/// ancestors re-covers (`hopi_maintenance::delete`): the document removed,
/// the region of its ancestors `A` and descendants `D` in local ids, a row
/// into `D` for every live region element, and the live ancestors as the
/// seeds.
fn theorem3_closure(collection: &Collection) -> (TransitiveClosure, FixedBitSet) {
    let g = collection.element_graph();
    let reversed = g.reversed();
    let elements = |d| (0..g.id_bound() as u32).filter(move |&e| collection.doc_of(e) == Some(d));
    let hub = collection
        .doc_ids()
        .max_by_key(|&d| (reachable_from_many(&reversed, elements(d)).count(), d))
        .expect("a document");
    let a = reachable_from_many(&reversed, elements(hub));
    let d = reachable_from_many(&g, elements(hub));
    let mut after = collection.clone();
    after.remove_document(hub);
    let mut region = a.clone();
    region.union_with(&d);
    let live: Vec<u32> = region
        .iter()
        .filter(|&e| after.doc_of(e).is_some())
        .collect();
    let mut seeds = FixedBitSet::new(live.len());
    for (i, &e) in live.iter().enumerate() {
        if a.contains(e) {
            seeds.insert(i as u32);
        }
    }
    let rows = DocSet::new(&after, after.doc_ids()).region_rows(&LinkIndex::new(&after), &live, &d);
    let alive = vec![true; live.len()];
    (
        TransitiveClosure::from_desc_rows(rows, alive, Some(&seeds)),
        seeds,
    )
}

/// `CoverBuilder` alone, on one partition closure of each benchmark
/// collection (sizes and budgets of `benchmark/src/inputs.rs`) and on the
/// Theorem-3 closure of a hub-document deletion on `maintain-dblp`'s.
fn bench_cover_builder(c: &mut Criterion) {
    let mut inex = inex_collection(0.001);
    add_cross_links(&mut inex);
    let maintain = dblp_collection(0.03);
    let closures = [
        (
            "build_dblp",
            partition_closure(&dblp_collection(0.06), 100_000),
        ),
        ("query_inex", partition_closure(&inex, 100_000)),
        ("maintain_dblp", partition_closure(&maintain, 1_000_000)),
    ];
    let mut group = c.benchmark_group("cover_builder");
    group.sample_size(10);
    for (name, tc) in &closures {
        group.bench_function(format!("{name}_{}_nodes", tc.num_nodes()), |b| {
            b.iter(|| std::hint::black_box(CoverBuilder::new(tc).build_with_stats().1))
        });
    }
    let (partial, seeds) = theorem3_closure(&maintain);
    group.bench_function(format!("theorem3_{}_nodes", partial.num_nodes()), |b| {
        b.iter(|| {
            let builder = CoverBuilder::only_from(&partial, &seeds);
            std::hint::black_box(builder.build_with_stats().1)
        })
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("densest_subgraph");
    for (nl, nr, d) in [(100, 100, 0.5), (400, 400, 0.1), (50, 800, 0.3)] {
        let g = center_graph(nl, nr, d, 42);
        group.bench_function(format!("peel_{nl}x{nr}_d{d}"), |b| {
            b.iter(|| std::hint::black_box(densest_subgraph(&g)))
        });
    }
    group.finish();

    let collection = dblp_collection(0.02);
    let graph = collection.element_graph();

    let mut group = c.benchmark_group("closure");
    group.sample_size(20);
    group.bench_function("materialize_dblp_0.02", |b| {
        b.iter(|| std::hint::black_box(TransitiveClosure::from_graph(&graph).connection_count()))
    });
    group.bench_function("incremental_edge_insert", |b| {
        let tc = TransitiveClosure::from_graph(&graph);
        let mut rng = StdRng::seed_from_u64(3);
        let n = graph.id_bound() as u32;
        b.iter_batched(
            || (tc.clone(), rng.gen_range(0..n), rng.gen_range(0..n)),
            |(mut tc, u, v)| std::hint::black_box(tc.insert_edge(u, v)),
            BatchSize::LargeInput,
        )
    });
    group.finish();

    let mut group = c.benchmark_group("maintenance_kernels");
    let docs: Vec<u32> = collection.doc_ids().collect();
    let mut i = 0usize;
    group.bench_function("separator_test", |b| {
        b.iter(|| {
            i = (i + 1) % docs.len();
            std::hint::black_box(separates(&collection, docs[i]))
        })
    });
    let (index, _) = build_index(&collection, &BuildConfig::default());
    let n = collection.elem_id_bound() as u32;
    let mut rng = StdRng::seed_from_u64(11);
    group.sample_size(20);
    group.bench_function("integrate_link", |b| {
        b.iter_batched(
            || {
                (
                    index.cover().clone(),
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                )
            },
            |(mut cover, u, v)| std::hint::black_box(old_join::integrate_link(&mut cover, u, v)),
            BatchSize::LargeInput,
        )
    });
    // The same link draws, integrated the §6.1 way.
    let mut rng = StdRng::seed_from_u64(11);
    group.bench_function("integrate_link_cheapest", |b| {
        b.iter_batched(
            || {
                (
                    index.cover().clone(),
                    rng.gen_range(0..n),
                    rng.gen_range(0..n),
                )
            },
            |(mut cover, u, v)| std::hint::black_box(integrate_link(&mut cover, u, v)),
            BatchSize::LargeInput,
        )
    });
    group.finish();

    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    group.bench_function("full_build_dblp_0.02_default", |b| {
        b.iter(|| {
            std::hint::black_box(
                build_index(&collection, &BuildConfig::default())
                    .1
                    .cover_size,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_cover_builder, bench_kernels);
criterion_main!(benches);

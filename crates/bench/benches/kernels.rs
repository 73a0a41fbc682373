//! Criterion microbenches for the algorithmic kernels behind index
//! construction and maintenance: densest-subgraph peeling, transitive
//! closure materialization, incremental closure edge insertion, the
//! separator test, and single-link cover integration — the §3.3 primitive
//! that centers every new connection on the link target, beside the §6.1
//! integration that picks the cheapest of centering and the two label
//! copies.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hopi_bench::dblp_collection;
use hopi_build::{build_index, old_join, BuildConfig};
use hopi_core::densest::{densest_subgraph, BipartiteCenterGraph};
use hopi_graph::{FixedBitSet, TransitiveClosure};
use hopi_maintenance::{integrate_link, separates};
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

criterion_group!(benches, bench_kernels);
criterion_main!(benches);

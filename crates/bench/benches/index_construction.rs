//! Criterion bench: CP-tree index construction (Fig. 13 companion).
//!
//! Measures sequential and parallel CP-tree builds on the ACMDL-like
//! dataset at vertex fractions 20/60/100 %, plus the underlying CL-tree
//! build of the full graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pcs_datasets::scale::subsample_vertices;
use pcs_datasets::suite::{build, SuiteConfig};
use pcs_datasets::ProfiledDataset;
use pcs_datasets::SuiteDataset;
use pcs_index::{ClTree, ShardedCpIndex};
use std::sync::Arc;

/// The full CP-tree build: facade pass plus every shard, on `threads`
/// workers. Inputs are shared, not copied, inside the timed closure.
fn build_all(
    g: &Arc<pcs_graph::Graph>,
    ds: &ProfiledDataset,
    p: &Arc<Vec<pcs_ptree::PTree>>,
    threads: usize,
) {
    let idx = ShardedCpIndex::build(Arc::clone(g), &ds.tax, Arc::clone(p)).unwrap();
    idx.materialize_all(threads);
    criterion::black_box(idx);
}

fn bench_index_construction(c: &mut Criterion) {
    let cfg = SuiteConfig { scale: 0.01, ..SuiteConfig::default() };
    let ds = build(SuiteDataset::Acmdl, cfg);

    let mut group = c.benchmark_group("fig13_index_construction");
    group.sample_size(10);
    for frac in [0.2f64, 0.6, 1.0] {
        let sub = subsample_vertices(&ds, frac, 13);
        group.bench_with_input(
            BenchmarkId::new("cptree_seq", format!("{:.0}%", frac * 100.0)),
            &sub,
            |b, sub| {
                let (g, p) = (Arc::new(sub.graph.clone()), Arc::new(sub.profiles.clone()));
                b.iter(|| build_all(&g, sub, &p, 1));
            },
        );
    }
    let full = subsample_vertices(&ds, 1.0, 13);
    let (g, p) = (Arc::new(full.graph.clone()), Arc::new(full.profiles.clone()));
    group.bench_function("cptree_par8/100%", |b| {
        b.iter(|| build_all(&g, &full, &p, 8));
    });
    group.bench_function("cltree_full_graph", |b| {
        b.iter(|| ClTree::build(&full.graph));
    });
    group.finish();
}

criterion_group!(benches, bench_index_construction);
criterion_main!(benches);

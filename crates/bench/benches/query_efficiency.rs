//! Criterion bench: PCS query algorithms (Fig. 14(a-d) companion).
//!
//! Per-query latency of all five algorithms on the ACMDL-like dataset
//! at k = 6, over a fixed batch of query vertices. The expected shape
//! matches the paper: `basic` orders of magnitude slower than `incre`,
//! `adv-D`/`adv-P` fastest.

use criterion::{criterion_group, criterion_main, Criterion};
use pcs_core::{Algorithm, QueryContext};
use pcs_datasets::suite::{build, SuiteConfig};
use pcs_datasets::{sample_query_vertices, SuiteDataset};
use pcs_index::ShardedCpIndex;

fn bench_query_efficiency(c: &mut Criterion) {
    let cfg = SuiteConfig { scale: 0.01, ..SuiteConfig::default() };
    let ds = build(SuiteDataset::Acmdl, cfg);
    let index = ShardedCpIndex::build_resident(&ds.graph, &ds.tax, &ds.profiles).unwrap();
    let ctx = QueryContext::new(&ds.graph, &ds.tax, &ds.profiles).unwrap().with_index(&index);
    let (queries, _) = sample_query_vertices(&ds, 6, 10, 0x14);

    let mut group = c.benchmark_group("fig14_query_efficiency");
    group.sample_size(10);
    for algo in Algorithm::ALL {
        group.bench_function(algo.name(), |b| {
            b.iter(|| {
                for &q in &queries {
                    let out = ctx.query(q, 6, algo).unwrap();
                    criterion::black_box(out.communities.len());
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_query_efficiency);
criterion_main!(benches);

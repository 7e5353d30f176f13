//! Criterion bench: initial-cut strategies (Fig. 14(q-t) companion).
//!
//! Isolates the `find-I` / `find-D` / `find-P` seeding step of the
//! advanced methods; the paper reports `find-P`/`find-D` 10-100x faster
//! than `find-I`.

use criterion::{criterion_group, criterion_main, Criterion};
use pcs_core::advanced::{find_cut, FindStrategy};
use pcs_core::{QueryContext, Verifier};
use pcs_datasets::suite::{build, SuiteConfig};
use pcs_datasets::{sample_query_vertices, SuiteDataset};
use pcs_index::ShardedCpIndex;

fn bench_find_functions(c: &mut Criterion) {
    let cfg = SuiteConfig { scale: 0.01, ..SuiteConfig::default() };
    let ds = build(SuiteDataset::Acmdl, cfg);
    let index = ShardedCpIndex::build_resident(&ds.graph, &ds.tax, &ds.profiles).unwrap();
    let ctx = QueryContext::new(&ds.graph, &ds.tax, &ds.profiles).unwrap().with_index(&index);
    let (queries, _) = sample_query_vertices(&ds, 6, 10, 0x14f);

    let mut group = c.benchmark_group("fig14_find_functions");
    group.sample_size(10);
    for strategy in FindStrategy::ALL {
        group.bench_function(strategy.name(), |b| {
            b.iter(|| {
                for &q in &queries {
                    let space = ctx.space_for(q).unwrap();
                    let mut ver = Verifier::new(&ctx, &space, q, 6);
                    if ver.gk().is_some() {
                        let cut = find_cut(&mut ver, strategy);
                        criterion::black_box(ver.ids().count(cut.feasible));
                    }
                }
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_find_functions);
criterion_main!(benches);

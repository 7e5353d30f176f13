//! End-to-end smoke of the full pipeline: datasets → index → queries →
//! baselines → metrics, exactly the path every figure harness takes.

use pcs::baselines::variants::CohesivenessMetric;
use pcs::datasets::ego::EgoNetwork;
use pcs::datasets::scale::{subsample_gptree, subsample_ptrees, subsample_vertices};
use pcs::datasets::suite::{build, SuiteConfig};
use pcs::prelude::*;

fn tiny_cfg() -> SuiteConfig {
    SuiteConfig { scale: 0.004, ..SuiteConfig::default() }
}

#[test]
fn suite_dataset_full_query_pipeline() {
    let ds = build(SuiteDataset::Acmdl, tiny_cfg());
    let index = ShardedCpIndex::build_resident(&ds.graph, &ds.tax, &ds.profiles).unwrap();
    let ctx = QueryContext::new(&ds.graph, &ds.tax, &ds.profiles).unwrap().with_index(&index);
    let (queries, level) = pcs::datasets::sample_query_vertices(&ds, 6, 10, 1);
    assert_eq!(queries.len(), 10);

    let mut total_communities = 0usize;
    for &q in &queries {
        let out = ctx.query(q, level, Algorithm::AdvP).unwrap();
        total_communities += out.communities.len();
        // Metrics are computable on every outcome.
        let tq = &ds.profiles[q as usize];
        let c = cps(&ds.tax, &ds.profiles, &out.communities);
        assert!((0.0..=1.0).contains(&c), "cps {c}");
        let p = cpf(tq, &ds.profiles, &out.communities);
        assert!((0.0..=1.0).contains(&p), "cpf {p}");
        let l = ldr(&ds.tax, tq, &out.communities, &out.communities);
        assert!(out.communities.is_empty() || (l - 1.0).abs() < 1e-9, "self-LDR {l}");
    }
    assert!(total_communities > 0, "query workload found nothing at level {level}");
}

#[test]
fn baselines_run_on_suite_dataset() {
    let ds = build(SuiteDataset::Acmdl, tiny_cfg());
    let index = ShardedCpIndex::build_resident(&ds.graph, &ds.tax, &ds.profiles).unwrap();
    let ctx = QueryContext::new(&ds.graph, &ds.tax, &ds.profiles).unwrap().with_index(&index);
    let (queries, level) = pcs::datasets::sample_query_vertices(&ds, 6, 5, 2);
    for &q in &queries {
        let acq = acq_query(&ds.graph, &ds.tax, &ds.profiles, q, level);
        let global = global_query(&ds.graph, &ds.profiles, q, level);
        let local = local_query(&ds.graph, &ds.profiles, q, level, usize::MAX);
        assert!(global.is_some(), "queries are sampled from the {level}-core");
        assert!(local.is_some());
        // ACQ communities are k-cores containing q.
        for c in &acq.communities {
            assert!(c.community.vertices.binary_search(&q).is_ok());
        }
        // All four §5.3 metric variants answer.
        for metric in [
            CohesivenessMetric::CommonNodes,
            CohesivenessMetric::CommonPaths,
            CohesivenessMetric::CommonSubtree,
            CohesivenessMetric::Similarity { beta: 0.5 },
        ] {
            let comms = variant_query(&ctx, q, level, metric);
            for c in &comms {
                assert!(c.vertices.binary_search(&q).is_ok(), "{}", metric.name());
            }
        }
    }
}

#[test]
fn ego_networks_support_f1_workload() {
    let ds = pcs::datasets::ego::build(EgoNetwork::Fb3, 7);
    let index = ShardedCpIndex::build_resident(&ds.graph, &ds.tax, &ds.profiles).unwrap();
    let ctx = QueryContext::new(&ds.graph, &ds.tax, &ds.profiles).unwrap().with_index(&index);
    let (queries, level) = pcs::datasets::sample_query_vertices(&ds, 4, 10, 3);
    let mut scored = 0usize;
    let mut pcs_total = 0.0;
    for &q in &queries {
        let truths: Vec<Vec<VertexId>> =
            ds.groups.iter().filter(|g| g.binary_search(&q).is_ok()).cloned().collect();
        if truths.is_empty() {
            continue;
        }
        let found: Vec<Vec<VertexId>> = ctx
            .query(q, level, Algorithm::AdvP)
            .map(|o| o.communities.into_iter().map(|c| c.vertices).collect())
            .unwrap_or_default();
        let s = best_f1(&found, &truths);
        assert!((0.0..=1.0).contains(&s));
        pcs_total += s;
        scored += 1;
    }
    assert!(scored >= 5, "too few scoreable queries");
    assert!(
        pcs_total / scored as f64 > 0.2,
        "PCS should partially recover planted circles, got {}",
        pcs_total / scored as f64
    );
}

#[test]
fn scalability_axes_compose() {
    let ds = build(SuiteDataset::Acmdl, tiny_cfg());
    // All three axes can be applied and still answer queries.
    let v = subsample_vertices(&ds, 0.6, 1);
    let p = subsample_ptrees(&v, 0.6, 2);
    let gpt = subsample_gptree(&p, 0.6, 3);
    let index = ShardedCpIndex::build_resident(&gpt.graph, &gpt.tax, &gpt.profiles).unwrap();
    let ctx = QueryContext::new(&gpt.graph, &gpt.tax, &gpt.profiles).unwrap().with_index(&index);
    let (queries, level) = pcs::datasets::sample_query_vertices(&gpt, 6, 5, 4);
    for &q in &queries {
        let out = ctx.query(q, level, Algorithm::AdvD).unwrap();
        for c in &out.communities {
            assert!(c.vertices.binary_search(&q).is_ok());
        }
    }
}

#[test]
fn index_restores_profiles_on_generated_data() {
    let ds = build(SuiteDataset::Acmdl, tiny_cfg());
    let index = ShardedCpIndex::build_resident(&ds.graph, &ds.tax, &ds.profiles).unwrap();
    for v in 0..ds.graph.num_vertices() as u32 {
        assert_eq!(index.restore_ptree(v), ds.profiles[v as usize], "vertex {v}");
    }
}

#[test]
fn parallel_index_identical_on_generated_data() {
    let ds = build(SuiteDataset::Acmdl, tiny_cfg());
    let seq = ShardedCpIndex::build_resident(&ds.graph, &ds.tax, &ds.profiles).unwrap();
    let par = ShardedCpIndex::build(
        std::sync::Arc::new(ds.graph.clone()),
        &ds.tax,
        std::sync::Arc::new(ds.profiles.clone()),
    )
    .unwrap();
    par.materialize_all(4);
    assert_eq!(seq.resident_shards(), par.resident_shards());
    let (queries, level) = pcs::datasets::sample_query_vertices(&ds, 6, 5, 5);
    let sorted = |idx: &ShardedCpIndex, q: u32, label: u32| {
        idx.get_ref(level, q, label).map(|s| {
            let mut v = s.to_vec();
            v.sort_unstable();
            v
        })
    };
    for &q in &queries {
        for label in ds.profiles[q as usize].nodes() {
            assert_eq!(sorted(&seq, q, *label), sorted(&par, q, *label));
        }
    }
}

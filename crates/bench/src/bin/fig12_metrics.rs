//! Fig. 12: comparison of the four profile-cohesiveness definitions
//! (Section 5.3) on the ACMDL-like and PubMed-like datasets.
//!
//! For metrics (a) common-nodes, (b) common-paths, (c) common-subtree
//! (the PCS definition), and (d) similarity-threshold, report CPS, LDR
//! (vs the common-subtree answers), community count, and CPF.

use pcs_baselines::{variant_query, CohesivenessMetric};
use pcs_bench::{engine_owning, f, header, parse_args, row};
use pcs_core::{ProfiledCommunity, QueryContext};
use pcs_datasets::suite::{build, SuiteConfig};
use pcs_datasets::{sample_query_vertices, SuiteDataset};
use pcs_metrics::{cpf, cps, ldr};

fn main() {
    let args = parse_args();
    let cfg = SuiteConfig { scale: args.scale, seed: args.seed };
    let metrics = [
        CohesivenessMetric::CommonNodes,
        CohesivenessMetric::CommonPaths,
        CohesivenessMetric::CommonSubtree,
        CohesivenessMetric::Similarity { beta: 0.3 },
    ];

    for which in [SuiteDataset::Acmdl, SuiteDataset::Pubmed] {
        let ds = build(which, cfg);
        let name = ds.name.clone();
        let (queries, _) = sample_query_vertices(&ds, args.k, args.queries, args.seed ^ 0x12);
        // The dataset is fully sampled; move it into the owned engine.
        let engine = engine_owning(ds);
        let snap = engine.snapshot();
        let (tax, profiles) = (engine.taxonomy(), snap.profiles());

        // Per metric, per query: the returned communities. The §5.3
        // variants speak the borrowed paper layer, so borrow a context
        // from the engine's snapshot for the sweep.
        let ctx = QueryContext::from_parts(snap.graph(), tax, profiles, snap.index(), snap.cores())
            .expect("engine state is consistent");
        let per_metric: Vec<Vec<Vec<ProfiledCommunity>>> = metrics
            .iter()
            .map(|&m| queries.iter().map(|&q| variant_query(&ctx, q, args.k, m)).collect())
            .collect();
        let pcs_idx = 2; // CommonSubtree's position in `metrics`

        println!("\nFig. 12 — {} ({} queries, k = {})\n", name, args.queries, args.k);
        header(&["metric", "CPS", "LDR", "#comm", "CPF"]);
        for (mi, m) in metrics.iter().enumerate() {
            let results = &per_metric[mi];
            let all: Vec<ProfiledCommunity> = results.iter().flatten().cloned().collect();
            let cps_v = cps(tax, profiles, &all);
            let mut ldr_acc = 0.0;
            let mut cpf_acc = 0.0;
            let mut counted = 0usize;
            for (qi, comms) in results.iter().enumerate() {
                let pcs_comms = &per_metric[pcs_idx][qi];
                if pcs_comms.is_empty() {
                    continue;
                }
                let tq = &profiles[queries[qi] as usize];
                ldr_acc += ldr(tax, tq, comms, pcs_comms);
                if !comms.is_empty() {
                    cpf_acc += cpf(tq, profiles, comms);
                }
                counted += 1;
            }
            let n = counted.max(1) as f64;
            let avg_count =
                results.iter().map(|c| c.len()).sum::<usize>() as f64 / results.len().max(1) as f64;
            row(&[m.name().to_string(), f(cps_v), f(ldr_acc / n), f(avg_count), f(cpf_acc / n)]);
        }
    }
    println!("\nPaper: metric (c), the common subtree, scores highest across all four indices.");
}

//! Fig. 11 / Table 4: F1 accuracy on the FB ego networks.
//!
//! Queries ground-truth circle members and scores each method's best
//! community match against the circles containing the query vertex.

use pcs_baselines::{acq_query, global_query, local_query};
use pcs_bench::{engine_owning, f, header, parse_args, row};
use pcs_datasets::ego::{build, EgoNetwork};
use pcs_datasets::sample_query_vertices;
use pcs_engine::QueryRequest;
use pcs_graph::VertexId;
use pcs_metrics::best_f1;

fn main() {
    let args = parse_args();
    let k = if args.k == 6 { 4 } else { args.k }; // ego circles are small; default to 4

    println!("Table 4 — ego networks\n");
    header(&["dataset", "vertices", "edges", "d̂", "P̂", "circles"]);
    let mut datasets = Vec::new();
    for which in EgoNetwork::ALL {
        let ds = build(which, args.seed);
        row(&[
            ds.name.clone(),
            ds.graph.num_vertices().to_string(),
            ds.graph.num_edges().to_string(),
            format!("{:.2}", ds.graph.avg_degree()),
            format!("{:.2}", ds.avg_ptree_size()),
            ds.groups.len().to_string(),
        ]);
        datasets.push(ds);
    }

    println!("\nFig. 11 — F1 scores ({} queries per network, k = {k})\n", args.queries);
    header(&["dataset", "PCS", "ACQ", "Global", "Local"]);
    for ds in datasets {
        let name = ds.name.clone();
        let (pool, _) = sample_query_vertices(&ds, k, args.queries * 3, args.seed ^ 0xf1);
        let queries: Vec<VertexId> = pool
            .into_iter()
            .filter(|q| ds.groups.iter().any(|g| g.binary_search(q).is_ok()))
            .take(args.queries)
            .collect();
        // The dataset is fully sampled; move it into the owned engine,
        // keeping only the ground-truth circles behind for scoring.
        let mut ds = ds;
        let groups = std::mem::take(&mut ds.groups);
        let engine = engine_owning(ds);
        let requests: Vec<QueryRequest> =
            queries.iter().map(|&q| QueryRequest::vertex(q).k(k)).collect();
        let batch = engine.query_batch(&requests);

        let snap = engine.snapshot();
        let (g, tax, profiles) = (snap.graph(), engine.taxonomy(), snap.profiles());
        let mut scores = [0.0f64; 4];
        for (&q, pcs_result) in queries.iter().zip(batch) {
            let truths: Vec<Vec<VertexId>> =
                groups.iter().filter(|g| g.binary_search(&q).is_ok()).cloned().collect();
            let pcs: Vec<Vec<VertexId>> = pcs_result
                .map(|r| r.communities().iter().map(|c| c.vertices.clone()).collect())
                .unwrap_or_default();
            scores[0] += best_f1(&pcs, &truths);
            let acq: Vec<Vec<VertexId>> = acq_query(g, tax, profiles, q, k)
                .communities
                .into_iter()
                .map(|c| c.community.vertices)
                .collect();
            scores[1] += best_f1(&acq, &truths);
            let global: Vec<Vec<VertexId>> =
                global_query(g, profiles, q, k).map(|c| vec![c.vertices]).unwrap_or_default();
            scores[2] += best_f1(&global, &truths);
            let local: Vec<Vec<VertexId>> = local_query(g, profiles, q, k, usize::MAX)
                .map(|c| vec![c.vertices])
                .unwrap_or_default();
            scores[3] += best_f1(&local, &truths);
        }
        let n = queries.len().max(1) as f64;
        row(&[name, f(scores[0] / n), f(scores[1] / n), f(scores[2] / n), f(scores[3] / n)]);
    }
    println!("\nPaper: PCS stably extracts the most accurate circles across all three networks.");
}

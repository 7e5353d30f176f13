//! Recovering friendship circles in ego networks (Fig. 11 / Table 4).
//!
//! Builds the three FB-like ego networks with planted ground-truth
//! circles, queries members with PCS and the baselines, and scores
//! every method's best-match F1 against the circles containing the
//! query — the accuracy experiment of the paper's Section 5.2.
//!
//! Run with: `cargo run --release --example ego_circles`

use pcs::prelude::*;

fn main() {
    let k = 4;
    let queries_per_net = 30;
    println!("{:<10} {:>8} {:>8} {:>8} {:>8}", "network", "PCS", "ACQ", "Global", "Local");

    for which in pcs::datasets::ego::EgoNetwork::ALL {
        let ds = pcs::datasets::ego::build(which, 11);

        // Query vertices drawn from ground-truth circles (as the paper
        // does), restricted to the k-core so every method can answer.
        let (pool, _) = pcs::datasets::sample_query_vertices(&ds, k, queries_per_net * 3, 23);
        let queries: Vec<VertexId> = pool
            .into_iter()
            .filter(|q| ds.groups.iter().any(|g| g.binary_search(q).is_ok()))
            .take(queries_per_net)
            .collect();

        // The engine takes ownership of the profiled graph; the
        // ground-truth circles stay behind for scoring.
        let groups = ds.groups;
        let engine = PcsEngine::builder()
            .graph(ds.graph)
            .taxonomy(ds.tax)
            .profiles(ds.profiles)
            .index_mode(IndexMode::Eager)
            .build()
            .expect("consistent dataset");

        // PCS answers the whole workload in one order-preserving batch;
        // the baselines borrow the same snapshot the batch ran against.
        let snap = engine.snapshot();
        let requests: Vec<QueryRequest> =
            queries.iter().map(|&q| QueryRequest::vertex(q).k(k)).collect();
        let batch = engine.query_batch(&requests);

        let mut scores = [0.0f64; 4]; // PCS, ACQ, Global, Local
        for (&q, pcs_result) in queries.iter().zip(batch) {
            let truths: Vec<&Vec<VertexId>> =
                groups.iter().filter(|g| g.binary_search(&q).is_ok()).collect();
            let truth_sets: Vec<Vec<VertexId>> = truths.iter().map(|t| (*t).clone()).collect();

            let pcs_found: Vec<Vec<VertexId>> = pcs_result
                .map(|r| r.communities().iter().map(|c| c.vertices.clone()).collect())
                .unwrap_or_default();
            scores[0] += best_f1(&pcs_found, &truth_sets);

            let acq_found: Vec<Vec<VertexId>> =
                acq_query(snap.graph(), engine.taxonomy(), snap.profiles(), q, k)
                    .communities
                    .into_iter()
                    .map(|c| c.community.vertices)
                    .collect();
            scores[1] += best_f1(&acq_found, &truth_sets);

            let global_found: Vec<Vec<VertexId>> =
                global_query(snap.graph(), snap.profiles(), q, k)
                    .map(|c| vec![c.vertices])
                    .unwrap_or_default();
            scores[2] += best_f1(&global_found, &truth_sets);

            let local_found: Vec<Vec<VertexId>> =
                local_query(snap.graph(), snap.profiles(), q, k, usize::MAX)
                    .map(|c| vec![c.vertices])
                    .unwrap_or_default();
            scores[3] += best_f1(&local_found, &truth_sets);
        }
        let n = queries.len().max(1) as f64;
        println!(
            "{:<10} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            which.name(),
            scores[0] / n,
            scores[1] / n,
            scores[2] / n,
            scores[3] / n
        );
    }
    println!("\nExpected (paper Fig. 11): PCS stably highest; Global lowest (its");
    println!("structure-only communities overshoot the circles).");
}

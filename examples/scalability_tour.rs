//! Scalability tour: index once, query six ways.
//!
//! Generates an ACMDL-like profiled graph, builds the CP-tree index
//! (timed, sequential vs parallel), then runs the same PCS queries with
//! the paper's five algorithms and the closed-subtree search, next to
//! the speed hierarchy the paper's Fig. 14 reports
//! (`basic ≪ incre < adv-I < adv-D ≈ adv-P`).
//!
//! Run with: `cargo run --release --example scalability_tour`

use std::time::Instant;

use pcs::prelude::*;

fn main() {
    let cfg = SuiteConfig { scale: 0.03, ..SuiteConfig::default() };
    let ds = pcs::datasets::suite::build(SuiteDataset::Acmdl, cfg);
    println!(
        "dataset: {} — {} vertices, {} edges",
        ds.name,
        ds.graph.num_vertices(),
        ds.graph.num_edges()
    );

    // --- Engine + index construction ---------------------------------------
    let (queries, level) = pcs::datasets::sample_query_vertices(&ds, 6, 20, 7);
    let t0 = Instant::now();
    let engine = PcsEngine::builder()
        .graph(ds.graph)
        .taxonomy(ds.tax)
        .profiles(ds.profiles)
        .index_mode(IndexMode::Eager)
        .build()
        .expect("consistent dataset");
    let built = t0.elapsed();
    let snap = engine.snapshot();
    let index = snap.index().expect("eager mode builds the index");
    println!(
        "engine warm-up (CP-tree + core decomposition): {:.1} ms ({} labels populated, ~{:.1} MiB)",
        built.as_secs_f64() * 1e3,
        index.num_populated_labels(),
        index.memory_bytes() as f64 / (1024.0 * 1024.0)
    );

    // --- Queries -----------------------------------------------------------
    println!("\n{} query vertices from the {}-core; k = 6\n", queries.len(), level);

    println!(
        "{:<8} {:>12} {:>14} {:>14} {:>12}",
        "method", "total (ms)", "verifications", "candidates", "communities"
    );
    for algo in Algorithm::ALL {
        let requests: Vec<QueryRequest> = queries
            .iter()
            .map(|&q| QueryRequest::vertex(q).k(6).algorithm(algo).collect_stats(true))
            .collect();
        // Wall-clock around the whole batch: per-query elapsed times
        // overlap under the batch fan-out, so summing them would
        // overstate the cost on multicore machines.
        let t0 = Instant::now();
        let responses = engine.query_batch(&requests);
        let total_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut verifications = 0u64;
        let mut generated = 0u64;
        let mut communities = 0usize;
        for result in responses {
            let resp = result.expect("query in range");
            let stats = resp.stats.expect("requested via collect_stats");
            verifications += stats.verifications;
            generated += stats.subtrees_generated;
            communities += resp.communities().len();
        }
        println!(
            "{:<8} {:>12.2} {:>14} {:>14} {:>12}",
            algo.name(),
            total_ms,
            verifications,
            generated,
            communities
        );
    }
    println!("\nExpected ordering (paper Fig. 14): basic slowest by orders of magnitude,");
    println!("incre in the middle, adv-D / adv-P fastest; `closed` (what Auto runs) is not");
    println!("in the paper and verifies the fewest subtrees.");
}

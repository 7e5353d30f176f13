//! Table 3: locations of maximal feasible subtrees in the search space.
//!
//! For each dataset, run PCS on the query workload and bucket the
//! lattice level of every returned community's theme subtree into five
//! bands of the search-space depth. The paper's observation — most
//! themes sit in the *middle* bands, motivating the boundary-walking
//! advanced methods — should reproduce.

use pcs_bench::{engine_owning, header, parse_args, pct, row};
use pcs_core::stats::LevelHistogram;
use pcs_datasets::suite::{build, SuiteConfig};
use pcs_datasets::{sample_query_vertices, SuiteDataset};
use pcs_engine::QueryRequest;

fn main() {
    let args = parse_args();
    let cfg = SuiteConfig { scale: args.scale, seed: args.seed };
    println!(
        "Table 3 — locations of maximal feasible subtrees ({} queries, k = {})\n",
        args.queries, args.k
    );
    header(&["dataset", "level 1", "level 2", "level 3", "level 4", "level 5", "themes"]);
    for which in SuiteDataset::ALL {
        let ds = build(which, cfg);
        let name = ds.name.clone();
        let (queries, _) = sample_query_vertices(&ds, args.k, args.queries, args.seed ^ 0x717);
        // The dataset is fully sampled; move it into the owned engine.
        let engine = engine_owning(ds);
        let requests: Vec<QueryRequest> =
            queries.iter().map(|&q| QueryRequest::vertex(q).k(args.k)).collect();
        let mut hist = LevelHistogram::new();
        for result in engine.query_batch(&requests) {
            let resp = result.expect("query in range");
            hist.add_outcome(&resp.outcome);
        }
        let fr = hist.fractions();
        row(&[
            name,
            pct(fr[0]),
            pct(fr[1]),
            pct(fr[2]),
            pct(fr[3]),
            pct(fr[4]),
            hist.total().to_string(),
        ]);
    }
    println!("\nPaper (Table 3): levels 3-4 dominate, e.g. PubMed 43% at level 3.");
}

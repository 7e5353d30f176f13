//! Fig. 13: scalability of CP-tree index construction.
//!
//! Build time at 20/40/60/80/100 % of (a) the vertices, (b) each
//! vertex's P-tree, and (c) the GP-tree, for every dataset. The paper's
//! claim: build time is linear along all three axes.

use pcs_bench::{header, parse_args, row, time};
use pcs_datasets::scale::{subsample_gptree, subsample_ptrees, subsample_vertices};
use pcs_datasets::suite::{build, SuiteConfig};
use pcs_datasets::SuiteDataset;
use pcs_index::ShardedCpIndex;
use std::sync::Arc;

const FRACTIONS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

fn main() {
    let args = parse_args();
    let cfg = SuiteConfig { scale: args.scale, seed: args.seed };
    let datasets: Vec<_> = SuiteDataset::ALL.iter().map(|&w| build(w, cfg)).collect();

    for (axis, label) in [
        ("vertex", "Fig. 13(a) — % of vertices"),
        ("ptree", "Fig. 13(b) — % of each P-tree"),
        ("gptree", "Fig. 13(c) — % of the GP-tree"),
    ] {
        println!("\n{label} (build time, ms)\n");
        header(&["dataset", "20%", "40%", "60%", "80%", "100%"]);
        for ds in &datasets {
            let mut cells = vec![ds.name.clone()];
            for &frac in &FRACTIONS {
                let sub = match axis {
                    "vertex" => subsample_vertices(ds, frac, args.seed ^ 0x13),
                    "ptree" => subsample_ptrees(ds, frac, args.seed ^ 0x13),
                    _ => subsample_gptree(ds, frac, args.seed ^ 0x13),
                };
                // Shared inputs are prepared outside the timed region: the
                // build itself is the facade pass plus every shard.
                let (g, p) = (Arc::new(sub.graph.clone()), Arc::new(sub.profiles.clone()));
                let (_, took) = time(|| {
                    let idx = ShardedCpIndex::build(Arc::clone(&g), &sub.tax, Arc::clone(&p))
                        .expect("consistent dataset");
                    idx.materialize_all(1);
                    idx
                });
                cells.push(format!("{:.1}", took.as_secs_f64() * 1e3));
            }
            row(&cells);
        }
    }
    println!("\nPaper: construction time grows linearly along each axis.");
}

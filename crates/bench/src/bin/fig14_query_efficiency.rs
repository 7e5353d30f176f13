//! Fig. 14: query efficiency and scalability of the five PCS
//! algorithms, plus the find-function comparison.
//!
//! Sections (select with `--section`):
//! * `k`      — (a-d)  total query time while k varies 4..8, with the
//!   closed-subtree search (`Algorithm::Auto`'s choice) as a sixth
//!   column and the search effort behind the k = 6 row;
//! * `vertex` — (e-h)  20-100 % of the vertices (k fixed), with a
//!   `closed` column here and in the next two sections;
//! * `ptree`  — (i-l)  20-100 % of each P-tree;
//! * `gptree` — (m-p)  20-100 % of the GP-tree;
//! * `find`   — (q-t)  find-I vs find-D vs find-P initial-cut time;
//! * `all`    — everything.
//!
//! `basic` only participates in the `k` section (as in the paper, which
//! drops it afterwards for being orders of magnitude slower) and runs
//! on a reduced query count to keep the harness fast.
//!
//! `closed` runs with the index's community table warmed by the earlier
//! queries of its own cell: what one query proves, later queries inside
//! the same community reuse. The paper's algorithms do not read it.
//!
//! Queries run through the owned [`PcsEngine`] facade (the serving
//! path); only the find-function section builds a paper-layer
//! [`QueryContext`] from the engine's snapshot to reach the internals.

use std::time::{Duration, Instant};

use pcs_bench::{engine_for, engine_owning, header, parse_args, row, HarnessArgs};
use pcs_core::advanced::{find_cut, FindStrategy};
use pcs_core::{Algorithm, IndexVerifier, QueryContext, QueryScratch};
use pcs_datasets::scale::{subsample_gptree, subsample_ptrees, subsample_vertices};
use pcs_datasets::suite::{build, SuiteConfig};
use pcs_datasets::{gen::ProfiledDataset, sample_query_vertices, SuiteDataset};
use pcs_engine::{PcsEngine, QueryRequest};
use pcs_graph::VertexId;

const FRACTIONS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];
const KS: [u32; 5] = [4, 5, 6, 7, 8];
/// The `k` whose search effort the `k` section prints (the paper's
/// default degree bound).
const EFFORT_K: u32 = 6;
/// The index-based columns of every timing section, in print order.
const INDEXED: [Algorithm; 5] =
    [Algorithm::Incre, Algorithm::AdvI, Algorithm::AdvD, Algorithm::AdvP, Algorithm::Closed];

fn main() {
    let args = parse_args();
    let cfg = SuiteConfig { scale: args.scale, seed: args.seed };
    let datasets: Vec<_> = SuiteDataset::ALL.iter().map(|&w| build(w, cfg)).collect();

    let section = args.section.as_str();
    if section == "k" || section == "all" {
        section_vary_k(&datasets, &args);
    }
    if section == "vertex" || section == "all" {
        section_fraction(&datasets, &args, "vertex", "Fig. 14(e-h) — % of vertices");
    }
    if section == "ptree" || section == "all" {
        section_fraction(&datasets, &args, "ptree", "Fig. 14(i-l) — % of each P-tree");
    }
    if section == "gptree" || section == "all" {
        section_fraction(&datasets, &args, "gptree", "Fig. 14(m-p) — % of the GP-tree");
    }
    if section == "find" || section == "all" {
        section_find(&datasets, &args);
    }
}

/// What answering a query set with one algorithm cost.
#[derive(Clone, Copy, Default)]
struct Run {
    time: Duration,
    verifications: u64,
    generated: u64,
}

/// Total time and search effort to answer `queries` with `algo`
/// (sequential, one request at a time — per-query latency is what
/// Fig. 14 reports).
fn run_algo(engine: &PcsEngine, queries: &[VertexId], k: u32, algo: Algorithm) -> Run {
    let mut run = Run::default();
    let start = Instant::now();
    for &q in queries {
        let resp =
            engine.query(&QueryRequest::vertex(q).k(k).algorithm(algo)).expect("query in range");
        run.verifications += resp.outcome.stats.verifications;
        run.generated += resp.outcome.stats.subtrees_generated;
    }
    run.time = start.elapsed();
    run
}

fn section_vary_k(datasets: &[ProfiledDataset], args: &HarnessArgs) {
    println!("\nFig. 14(a-d) — query time (ms) while k varies\n");
    // Time per INDEXED column over every dataset and k, for the
    // closing ratios.
    let mut totals = [Duration::ZERO; INDEXED.len()];
    for ds in datasets {
        println!("dataset: {} ({} queries; basic limited to 2)\n", ds.name, args.queries);
        header(&["k", "basic", "incre", "adv-I", "adv-D", "adv-P", "closed"]);
        let engine = engine_for(ds);
        let mut effort = String::new();
        for k in KS {
            let (queries, _) = sample_query_vertices(ds, k, args.queries, args.seed ^ 0x14);
            let basic_queries = &queries[..queries.len().min(2)];
            let mut cells = vec![k.to_string()];
            // basic gets a reduced workload, normalized back up so
            // the magnitudes stay comparable.
            let basic = run_algo(&engine, basic_queries, k, Algorithm::Basic);
            let scale = queries.len() as f64 / basic_queries.len().max(1) as f64;
            cells.push(format!("{:.1}", basic.time.as_secs_f64() * 1e3 * scale));
            let runs = INDEXED.map(|algo| run_algo(&engine, &queries, k, algo));
            for (total, run) in totals.iter_mut().zip(&runs) {
                *total += run.time;
                cells.push(format!("{:.1}", run.time.as_secs_f64() * 1e3));
            }
            row(&cells);
            if k == EFFORT_K {
                let per_query = |total: u64| total as f64 / queries.len().max(1) as f64;
                let line = |of: fn(&Run) -> u64| {
                    let cells: Vec<String> = INDEXED
                        .iter()
                        .zip(&runs)
                        .map(|(a, r)| format!("{} {:.0}", a.name(), per_query(of(r))))
                        .collect();
                    cells.join(", ")
                };
                effort = format!(
                    "k = {EFFORT_K}, mean per query — verifications: {}\n\
                     k = {EFFORT_K}, mean per query — subtrees generated: {}",
                    line(|r| r.verifications),
                    line(|r| r.generated)
                );
            }
        }
        println!("\n{effort}\n");
    }
    println!("closed reuses the communities earlier queries in its row proved.");
    let total = |algo: Algorithm| {
        let at = INDEXED.iter().position(|&a| a == algo);
        at.and_then(|i| totals.get(i)).map_or(0.0, Duration::as_secs_f64)
    };
    let over_incre = |algo: Algorithm| total(algo) / total(Algorithm::Incre).max(f64::MIN_POSITIVE);
    println!(
        "Paper: basic is 100x+ slower than incre; adv-D/adv-P are ~10x faster than incre \
         (adv-P / incre ≈ 0.1)."
    );
    println!(
        "Here (total time over the tables above): adv-P / incre = {:.2}, closed / incre = {:.2}.",
        over_incre(Algorithm::AdvP),
        over_incre(Algorithm::Closed)
    );
}

fn section_fraction(datasets: &[ProfiledDataset], args: &HarnessArgs, axis: &str, title: &str) {
    println!("\n{title} — query time (ms), k = {}\n", args.k);
    for ds in datasets {
        println!("dataset: {}\n", ds.name);
        header(&["fraction", "incre", "adv-I", "adv-D", "adv-P", "closed"]);
        for &frac in &FRACTIONS {
            let sub = match axis {
                "vertex" => subsample_vertices(ds, frac, args.seed ^ 0x14e),
                "ptree" => subsample_ptrees(ds, frac, args.seed ^ 0x14e),
                _ => subsample_gptree(ds, frac, args.seed ^ 0x14e),
            };
            let (queries, _) = sample_query_vertices(&sub, args.k, args.queries, args.seed ^ 7);
            let mut cells = vec![format!("{:.0}%", frac * 100.0)];
            // The subsample is dead after sampling; move it into the
            // engine instead of cloning a second copy.
            let engine = engine_owning(sub);
            for algo in INDEXED {
                let took = run_algo(&engine, &queries, args.k, algo).time;
                cells.push(format!("{:.1}", took.as_secs_f64() * 1e3));
            }
            row(&cells);
        }
        println!();
    }
}

fn section_find(datasets: &[ProfiledDataset], args: &HarnessArgs) {
    println!("\nFig. 14(q-t) — initial-cut time (ms) while k varies\n");
    for ds in datasets {
        println!("dataset: {}\n", ds.name);
        header(&["k", "find-I", "find-D", "find-P"]);
        let engine = engine_for(ds);
        let snap = engine.snapshot();
        let index = snap.index().expect("engine_for builds the index eagerly");
        let ctx = QueryContext::from_parts(
            snap.graph(),
            engine.taxonomy(),
            snap.profiles(),
            Some(index),
            snap.cores(),
        )
        .expect("engine state is consistent");
        for k in KS {
            let (queries, _) = sample_query_vertices(ds, k, args.queries, args.seed ^ 0x14f);
            let mut cells = vec![k.to_string()];
            for strategy in FindStrategy::ALL {
                let start = Instant::now();
                for &q in &queries {
                    let space = ctx.space_for(q).expect("query in range");
                    let mut scratch = QueryScratch::new(ctx.graph.num_vertices());
                    let mut ver = IndexVerifier::new(&ctx, index, &space, q, k, &mut scratch);
                    if ver.gk().is_some() {
                        let _ = find_cut(&mut ver, strategy);
                    }
                }
                cells.push(format!("{:.1}", start.elapsed().as_secs_f64() * 1e3));
            }
            row(&cells);
        }
        println!();
    }
    println!("Paper: find-P and find-D are 10-100x faster than find-I.");
}

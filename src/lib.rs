//! # pcs — profiled community search
//!
//! A from-scratch Rust implementation of **"Exploring Communities in
//! Large Profiled Graphs"** (Chen, Fang, Cheng, Li, Chen, Zhang — ICDE
//! 2019): community search over graphs whose vertices carry
//! hierarchical attribute trees (P-trees) drawn from a global taxonomy
//! (GP-tree, e.g. ACM CCS or MeSH).
//!
//! Given a query vertex `q` and a degree bound `k`, a **profiled
//! community** is a connected subgraph containing `q` in which every
//! vertex has internal degree ≥ `k` and whose members share a *maximal*
//! common subtree — the community's interpretable "theme".
//!
//! ## Crates
//!
//! | module | backing crate | contents |
//! |---|---|---|
//! | [`engine`] | `pcs-engine` | owned, `Send + Sync` serving facade: `PcsEngine`, request/response API |
//! | [`graph`] | `pcs-graph` | CSR graph, k-core decomposition, localized peeling |
//! | [`ptree`] | `pcs-ptree` | taxonomy, P-trees, subtree lattice, tree edit distance |
//! | [`index`] | `pcs-index` | CL-tree and CP-tree indexes |
//! | [`core`]  | `pcs-core`  | `basic`, `incre`, `adv-I/D/P` query algorithms |
//! | [`baselines`] | `pcs-baselines` | Global, Local, ACQ, §5.3 metric variants |
//! | [`metrics`] | `pcs-metrics` | CPS, LDR, CPF, F1 |
//! | [`datasets`] | `pcs-datasets` | paper-calibrated synthetic datasets |
//! | [`store`] | `pcs-store` | versioned, checksummed on-disk engine snapshots |
//! | [`serve`] | `pcs-serve` | std-only HTTP/1.1 serving layer |
//!
//! ## Quickstart
//!
//! Load (or generate) a profiled graph once, hand it to the engine,
//! then serve queries — the CP-tree index and the core decomposition
//! are built lazily and cached; `Algorithm::Auto` routes each query to
//! the closed-subtree search when the index is available and `basic`
//! otherwise.
//!
//! ```
//! use pcs::prelude::*;
//!
//! // A tiny collaboration triangle where everyone works on ML and AI.
//! let mut tax = Taxonomy::new("r");
//! let cm = tax.add_child(Taxonomy::ROOT, "CM").unwrap();
//! let ml = tax.add_child(cm, "ML").unwrap();
//! let ai = tax.add_child(cm, "AI").unwrap();
//! let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
//! let profiles: Vec<PTree> = (0..3)
//!     .map(|_| PTree::from_labels(&tax, [ml, ai]).unwrap())
//!     .collect();
//!
//! // Build once (ownership moves in; validation happens here)...
//! let engine = PcsEngine::builder()
//!     .graph(g)
//!     .taxonomy(tax)
//!     .profiles(profiles)
//!     .build()
//!     .unwrap();
//!
//! // ...query online, as often as you like, from any thread.
//! let resp = engine.query(&QueryRequest::vertex(0).k(2)).unwrap();
//! assert_eq!(resp.communities().len(), 1);
//! assert_eq!(resp.communities()[0].vertices, vec![0, 1, 2]);
//!
//! // Batches run on one snapshot, fan out across threads and preserve
//! // order.
//! let reqs: Vec<QueryRequest> =
//!     (0..3).map(|v| QueryRequest::vertex(v).k(2)).collect();
//! for result in engine.query_batch(&reqs) {
//!     assert_eq!(result.unwrap().communities().len(), 1);
//! }
//! ```
//!
//! ## Migrating from `QueryContext`
//!
//! [`QueryContext`](pcs_core::QueryContext) remains public as the
//! borrowed reproduction layer (the engine delegates to it), but
//! application code should move to the facade:
//!
//! | before (borrowed) | after (owned) |
//! |---|---|
//! | `QueryContext::new(&g, &tax, &profiles)?` | `PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).build()?` |
//! | `let idx = ShardedCpIndex::build_resident(..)?; ctx.with_index(&idx)` | automatic — lazy by default; `.index_mode(IndexMode::Eager)` to prebuild |
//! | `ctx.query(q, k, Algorithm::AdvP)?` | `engine.query(&QueryRequest::vertex(q).k(k))?` |
//! | `out.communities` | `resp.communities()` (plus `resp.elapsed`, `resp.index_used`, `resp.stats`) |
//! | `PcsError` / `IndexError` per call site | one `pcs_engine::Error` |
//!
//! The engine is `Send + Sync`, so one instance serves every thread:
//! wrap it in `Arc` (or keep it in `std::thread::scope`) and call
//! [`query`](pcs_engine::PcsEngine::query) concurrently, or hand a
//! whole slice of requests to
//! [`query_batch`](pcs_engine::PcsEngine::query_batch). `query_batch`
//! is the one read path through the result cache: on an engine built
//! with `.result_cache(..)` it answers hits from one snapshot's cache
//! and computes and fills only the misses;
//! [`query_cached`](pcs_engine::PcsEngine::query_cached) is its
//! one-request form, and `query` never touches the cache.

#![deny(unsafe_code)]

pub use pcs_baselines as baselines;
pub use pcs_core as core;
pub use pcs_datasets as datasets;
pub use pcs_engine as engine;
pub use pcs_graph as graph;
pub use pcs_index as index;
pub use pcs_metrics as metrics;
pub use pcs_ptree as ptree;
pub use pcs_serve as serve;
pub use pcs_store as store;

/// One-stop imports for applications.
pub mod prelude {
    pub use pcs_baselines::{
        acq_query, global_query, local_query, variant_query, CohesivenessMetric,
    };
    pub use pcs_core::{
        Algorithm, FindStrategy, PcsError, PcsOutcome, ProfiledCommunity, QueryContext,
    };
    pub use pcs_datasets::{
        update_stream, DatasetSpec, ProfiledDataset, StreamOp, SuiteConfig, SuiteDataset, TimedOp,
        UpdateStreamSpec,
    };
    pub use pcs_engine::{
        CacheMode, EngineBuilder, EngineSnapshot, Error as EngineError, IndexMode, PcsEngine,
        QueryRequest, QueryResponse, Update, UpdateBatch, UpdateReport,
    };
    pub use pcs_graph::{DynamicGraph, Graph, GraphBuilder, VertexId};
    pub use pcs_index::{ClTree, IndexShard, ShardedCpIndex};
    pub use pcs_metrics::{best_f1, cpf, cps, f1_score, ldr};
    pub use pcs_ptree::{LabelId, PTree, Taxonomy};
    pub use pcs_serve::{HttpFollower, PcsServer, ReplicaConfig, ServeConfig, StatsSnapshot};
    pub use pcs_store::{StoreError, WalOptions};
}

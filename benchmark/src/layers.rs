//! The adapter: the only file of the benchmark that calls into the
//! workspace crates. Every other file sees the newtypes below, so a
//! change that collapses or renames a public API of the program is
//! followed by a correction to this one file.
//!
//! Public functions of the program used here, by layer:
//!
//! * `graph`  — `CoreDecomposition::{new, core_numbers, kcore_component}`,
//!   `Graph::{from_edges, num_vertices, num_edges, edges}`
//! * `ptree`  — `QuerySpace::{new, len}`, `count_rooted_subtrees`,
//!   `PTree::{from_labels, nodes, len}`
//! * `index`  — `ShardedCpIndex::{build, shard, get_ref, materialize_all,
//!   memory_bytes}`
//! * `core`   — `QueryContext::{new, query}`, `Algorithm`, `QueryStats`
//! * `engine` — `PcsEngine::{builder, query, query_cached, apply, save,
//!   snapshot_io, cache_stats, epoch, resident_shards, taxonomy}`,
//!   `EngineBuilder::{graph, taxonomy, profiles, index_mode, result_cache,
//!   build, load, durable, open}`, `encode_update_batch`
//! * `store`  — `Wal::{open, append_durable}`, `WalOptions::default`
//! * `serve`  — `PcsServer::{start, local_addr, stats, shutdown}`,
//!   `ServeConfig::default`, `protocol::{route, render_query_response}`
//!
//! `pcs-datasets` (`suite::build`, `update_stream`) only generates
//! inputs; the program under test sees graphs, op lists and bytes on a
//! socket.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use pcs_core::{Algorithm, QueryContext};
use pcs_datasets::suite::{build, SuiteConfig};
use pcs_datasets::{update_stream, ProfiledDataset, StreamOp, SuiteDataset, UpdateStreamSpec};
use pcs_engine::{
    encode_update_batch, CacheMode, IndexMaintenance, IndexMode, PcsEngine, QueryRequest,
    QueryResponse, UpdateBatch,
};
use pcs_graph::core::CoreDecomposition;
use pcs_graph::Graph;
use pcs_index::ShardedCpIndex;
use pcs_ptree::enumerate::count_rooted_subtrees;
use pcs_ptree::{PTree, QuerySpace, Taxonomy};
use pcs_serve::http::{Method, Request};
use pcs_serve::{protocol, PcsServer, ServeConfig};
use pcs_store::wal::Wal;
use pcs_store::WalOptions;

pub type VertexId = u32;

/// Degree bound of every query (the paper's evaluation default).
pub const K: u32 = 6;

/// One community as the harness compares it: theme labels and member
/// vertices, both ascending.
pub type Community = (Vec<u32>, Vec<u32>);
/// All communities of one query, sorted.
pub type Answer = Vec<Community>;

pub fn sorted_answer(mut a: Answer) -> Answer {
    for (labels, vertices) in &mut a {
        labels.sort_unstable();
        vertices.sort_unstable();
    }
    a.sort();
    a
}

// ---------------------------------------------------------------- inputs

/// One write of the mixed workload, in the harness's own terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteOp {
    Add(VertexId, VertexId),
    Remove(VertexId, VertexId),
    Profile(VertexId, Vec<u32>),
}

impl WriteOp {
    /// The `/apply` body line of this op.
    pub fn wire(&self) -> String {
        match self {
            WriteOp::Add(a, b) => format!("add {a} {b}\n"),
            WriteOp::Remove(a, b) => format!("remove {a} {b}\n"),
            WriteOp::Profile(v, labels) => {
                let mut line = format!("profile {v}");
                for l in labels {
                    line.push_str(&format!(" {l}"));
                }
                line.push('\n');
                line
            }
        }
    }
}

/// The generated DBLP-like suite dataset at one scale.
pub struct Corpus {
    ds: ProfiledDataset,
    cores: Vec<u32>,
}

impl Corpus {
    pub fn generate(scale: f64, seed: u64) -> Corpus {
        let ds = build(SuiteDataset::Dblp, SuiteConfig { scale, seed });
        let cores = CoreDecomposition::new(&ds.graph).core_numbers().to_vec();
        Corpus { ds, cores }
    }

    pub fn num_vertices(&self) -> usize {
        self.ds.graph.num_vertices()
    }

    pub fn num_edges(&self) -> usize {
        self.ds.graph.num_edges()
    }

    pub fn core_numbers(&self) -> &[u32] {
        &self.cores
    }

    /// `|T(v)|`.
    pub fn profile_len(&self, v: VertexId) -> usize {
        self.ds.profiles[v as usize].len()
    }

    pub fn profile_labels(&self, v: VertexId) -> &[u32] {
        self.ds.profiles[v as usize].nodes()
    }

    pub fn edges(&self) -> Vec<(VertexId, VertexId)> {
        self.ds.graph.edges().collect()
    }

    /// `n` single-op writes from the update-stream generator (edge
    /// adds and removes, profile rewrites, a dose of no-ops).
    pub fn write_stream(&self, n: usize, seed: u64) -> Vec<WriteOp> {
        update_stream(&self.ds, &UpdateStreamSpec::new(n, seed))
            .into_iter()
            .map(|t| match t.op {
                StreamOp::AddEdge(a, b) => WriteOp::Add(a, b),
                StreamOp::RemoveEdge(a, b) => WriteOp::Remove(a, b),
                StreamOp::SetProfile(v, p) => WriteOp::Profile(v, p.nodes().to_vec()),
            })
            .collect()
    }
}

// ---------------------------------------------------------------- oracle

/// `basic` on a from-scratch `QueryContext` over one epoch's graph and
/// profiles: what every answer of every path must equal.
pub struct Oracle {
    graph: Graph,
    tax: Taxonomy,
    profiles: Vec<PTree>,
}

impl Oracle {
    pub fn from_corpus(c: &Corpus) -> Oracle {
        Oracle { graph: c.ds.graph.clone(), tax: c.ds.tax.clone(), profiles: c.ds.profiles.clone() }
    }

    /// The oracle of a state the harness tracked itself: the corpus's
    /// taxonomy, with these edges and these per-vertex label sets.
    pub fn from_state(c: &Corpus, edges: &[(VertexId, VertexId)], profiles: &[Vec<u32>]) -> Oracle {
        let tax = c.ds.tax.clone();
        let graph = Graph::from_edges(c.num_vertices(), edges).expect("tracked edges are valid");
        let profiles = profiles
            .iter()
            .map(|l| PTree::from_labels(&tax, l.iter().copied()).expect("tracked labels are valid"))
            .collect();
        Oracle { graph, tax, profiles }
    }

    pub fn answers(&self, vertices: &[VertexId]) -> Vec<Answer> {
        let ctx = QueryContext::new(&self.graph, &self.tax, &self.profiles)
            .expect("oracle inputs are consistent");
        vertices
            .iter()
            .map(|&v| {
                let out = ctx.query(v, K, Algorithm::Basic).expect("oracle query");
                sorted_answer(
                    out.communities
                        .into_iter()
                        .map(|c| (c.subtree.nodes().to_vec(), c.vertices))
                        .collect(),
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------- engine

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cache {
    Off,
    Wholesale,
    Surgical,
}

impl Cache {
    fn mode(self) -> CacheMode {
        match self {
            Cache::Off => CacheMode::Off,
            Cache::Wholesale => CacheMode::Wholesale,
            Cache::Surgical => CacheMode::Surgical,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    Auto,
    Basic,
    Incre,
    AdvI,
    AdvD,
    AdvP,
}

impl Algo {
    fn pcs(self) -> Algorithm {
        match self {
            Algo::Auto => Algorithm::Auto,
            Algo::Basic => Algorithm::Basic,
            Algo::Incre => Algorithm::Incre,
            Algo::AdvI => Algorithm::AdvI,
            Algo::AdvD => Algorithm::AdvD,
            Algo::AdvP => Algorithm::AdvP,
        }
    }
}

/// One engine answer, kept opaque so converting it for comparison can
/// happen after the clock stops.
pub struct Reply(Arc<QueryResponse>);

/// The engine's own effort counters of one query (exact).
#[derive(Clone, Copy, Debug, Default)]
pub struct Effort {
    pub subtrees_generated: u64,
    pub verifications: u64,
    pub memo_hits: u64,
    pub seed_scanned: u64,
    pub peel_candidates: u64,
    /// Member vertices summed over the answer's communities.
    pub members: u64,
}

impl Reply {
    pub fn answer(&self) -> Answer {
        sorted_answer(
            self.0
                .communities()
                .iter()
                .map(|c| (c.subtree.nodes().to_vec(), c.vertices.clone()))
                .collect(),
        )
    }

    /// The engine-reported wall time of the algorithm run.
    pub fn elapsed_us(&self) -> f64 {
        self.0.elapsed.as_secs_f64() * 1e6
    }

    pub fn effort(&self) -> Effort {
        let s = &self.0.outcome.stats;
        Effort {
            subtrees_generated: s.subtrees_generated,
            verifications: s.verifications,
            memo_hits: s.memo_hits,
            seed_scanned: s.seed_scanned,
            peel_candidates: s.peel_candidates,
            members: self.0.communities().iter().map(|c| c.vertices.len() as u64).sum(),
        }
    }

    /// `protocol::render_query_response`: the HTTP body of this answer.
    pub fn render(&self) -> String {
        protocol::render_query_response(&self.0)
    }
}

/// What one applied write did.
#[derive(Clone, Copy, Debug)]
pub struct Applied {
    pub cores_changed: u64,
    pub labels_rebuilt: u64,
}

#[derive(Clone)]
pub struct Engine(Arc<PcsEngine>);

fn data_builder(c: &Corpus, cache: Cache) -> pcs_engine::EngineBuilder {
    PcsEngine::builder()
        .graph(c.ds.graph.clone())
        .taxonomy(c.ds.tax.clone())
        .profiles(c.ds.profiles.clone())
        .index_mode(IndexMode::Eager)
        .result_cache(cache.mode())
}

impl Engine {
    /// In-memory engine, eager index (every shard built here).
    pub fn build(c: &Corpus, cache: Cache) -> Engine {
        Engine(Arc::new(data_builder(c, cache).build().expect("suite dataset builds")))
    }

    /// Durable engine over an empty `dir`: epoch-0 checkpoint, empty
    /// WAL, default `WalOptions` (fsync before every publish).
    pub fn build_durable(c: &Corpus, dir: &Path, cache: Cache) -> Engine {
        Engine(Arc::new(data_builder(c, cache).durable(dir).build().expect("durable build")))
    }

    /// Recovery: checkpoint plus WAL tail, to the exact last epoch.
    pub fn open_durable(dir: &Path, cache: Cache) -> Engine {
        Engine(Arc::new(
            PcsEngine::builder()
                .index_mode(IndexMode::Eager)
                .result_cache(cache.mode())
                .durable(dir)
                .open()
                .expect("durable open"),
        ))
    }

    /// Opens a snapshot lazily: directories only; graph, profile
    /// chunks and shards fault in on first touch.
    pub fn load_lazy(path: &Path) -> Engine {
        Engine(Arc::new(
            PcsEngine::builder().index_mode(IndexMode::Lazy).load(path).expect("lazy load"),
        ))
    }

    pub fn load_eager(path: &Path) -> Engine {
        Engine(Arc::new(
            PcsEngine::builder().index_mode(IndexMode::Eager).load(path).expect("eager load"),
        ))
    }

    pub fn query(&self, v: VertexId, algo: Algo) -> Reply {
        let req = QueryRequest::vertex(v).k(K).algorithm(algo.pcs());
        Reply(Arc::new(self.0.query(&req).expect("query on a valid vertex")))
    }

    pub fn query_cached(&self, v: VertexId) -> Reply {
        Reply(self.0.query_cached(&QueryRequest::vertex(v).k(K)).expect("cached query"))
    }

    /// One single-op batch through `PcsEngine::apply`.
    pub fn apply(&self, op: &WriteOp) -> Applied {
        let report = self.0.apply(&self.batch(op)).expect("generated writes are valid");
        let labels_rebuilt = match report.index {
            IndexMaintenance::Patched(s) => s.labels_rebuilt as u64,
            _ => 0,
        };
        Applied { cores_changed: report.cores_changed as u64, labels_rebuilt }
    }

    fn batch(&self, op: &WriteOp) -> UpdateBatch {
        match op {
            WriteOp::Add(a, b) => UpdateBatch::new().add_edge(*a, *b),
            WriteOp::Remove(a, b) => UpdateBatch::new().remove_edge(*a, *b),
            WriteOp::Profile(v, labels) => UpdateBatch::new().set_profile(
                *v,
                PTree::from_labels(self.0.taxonomy(), labels.iter().copied())
                    .expect("generated labels are valid"),
            ),
        }
    }

    /// The WAL payload `apply` would log for `op`.
    pub fn wal_payload(&self, op: &WriteOp) -> Vec<u8> {
        encode_update_batch(&self.batch(op)).expect("batch encodes")
    }

    pub fn save(&self, path: &Path) {
        self.0.save(path).expect("snapshot save");
    }

    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }

    /// `(bytes read, file length)` of the backing snapshot, for lazily
    /// loaded engines.
    pub fn snapshot_io(&self) -> Option<(u64, u64)> {
        self.0.snapshot_io().map(|io| (io.bytes_read, io.file_len))
    }

    /// `(hits, misses)` of the result cache.
    pub fn cache_counts(&self) -> (u64, u64) {
        let s = self.0.cache_stats();
        (s.hits, s.misses)
    }

    pub fn resident_shards(&self) -> usize {
        self.0.resident_shards()
    }

    /// `protocol::route` on `GET /query?v=..&k=..`, as a worker would
    /// call it; true when it validates to a query route.
    pub fn route_query(&self, v: VertexId, n: usize) -> bool {
        let req = Request {
            method: Method::Get,
            path: "/query".to_string(),
            query: format!("v={v}&k={K}"),
            body: Vec::new(),
            keep_alive: true,
        };
        matches!(protocol::route(&req, n, self.0.taxonomy()), Ok(protocol::Route::Query(_)))
    }
}

// ---------------------------------------------------------------- serve

/// The server's own counters (`/stats`), as the harness uses them.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerCounters {
    pub queries: u64,
    pub batches: u64,
    pub batched_requests: u64,
    pub dedup_saved: u64,
    pub cache_answered: u64,
}

pub struct Server(PcsServer);

impl Server {
    /// A real `PcsServer` on loopback: 2 workers, default windows.
    pub fn start(engine: &Engine) -> Server {
        let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
        Server(PcsServer::start(Arc::clone(&engine.0), "127.0.0.1:0", cfg).expect("server starts"))
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    pub fn counters(&self) -> ServerCounters {
        let s = self.0.stats();
        ServerCounters {
            queries: s.queries,
            batches: s.batches,
            batched_requests: s.batched_requests,
            dedup_saved: s.dedup_saved,
            cache_answered: s.cache_answered,
        }
    }

    /// Graceful shutdown: drains, then joins every server thread.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

// ---------------------------------------------------------------- graph, ptree, index, store probes

pub struct Cores(CoreDecomposition);

impl Cores {
    /// `CoreDecomposition::new` over the corpus graph.
    pub fn new(c: &Corpus) -> Cores {
        Cores(CoreDecomposition::new(&c.ds.graph))
    }

    /// `kcore_component(g, q, k)`: the size of `Gk`'s component of `q`.
    pub fn component_size(&self, c: &Corpus, q: VertexId) -> usize {
        self.0.kcore_component(&c.ds.graph, q, K).map_or(0, |v| v.len())
    }
}

pub struct Space(QuerySpace);

impl Space {
    /// `QuerySpace::new` on `T(q)`.
    pub fn new(c: &Corpus, q: VertexId) -> Space {
        Space(QuerySpace::new(&c.ds.tax, &c.ds.profiles[q as usize]).expect("profile is valid"))
    }

    /// `|T(q)|`.
    pub fn nodes(&self) -> usize {
        self.0.len()
    }

    /// log2 of `count_rooted_subtrees`: the size of the search lattice.
    pub fn lattice_log2(&self) -> f64 {
        (count_rooted_subtrees(&self.0) as f64).log2()
    }
}

pub struct Index(ShardedCpIndex);

impl Index {
    /// `ShardedCpIndex::build`: the facade only, no shard.
    pub fn facade(c: &Corpus) -> Index {
        Index(
            ShardedCpIndex::build(
                Arc::new(c.ds.graph.clone()),
                &c.ds.tax,
                Arc::new(c.ds.profiles.clone()),
            )
            .expect("facade builds"),
        )
    }

    /// `shard(label)`: materializes on first touch.
    pub fn shard(&self, label: u32) -> bool {
        self.0.shard(label).is_some()
    }

    pub fn materialize_all(&self) {
        self.0.materialize_all(2);
    }

    /// `get_ref(k, q, label)`: the size of the label's k-ĉore of `q`.
    pub fn get(&self, q: VertexId, label: u32) -> usize {
        self.0.get_ref(K, q, label).map_or(0, <[VertexId]>::len)
    }

    pub fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }
}

pub struct WalProbe {
    wal: Wal,
    epoch: u64,
}

impl WalProbe {
    /// `Wal::open` on an empty directory, default options.
    pub fn open(dir: &Path) -> WalProbe {
        let (wal, _) = Wal::open(dir, WalOptions::default(), 0).expect("wal opens");
        WalProbe { wal, epoch: 0 }
    }

    /// `append_durable`: append one record and fsync it.
    pub fn append_durable(&mut self, payload: &[u8]) {
        self.epoch += 1;
        self.wal.append_durable(self.epoch, payload).expect("wal append");
    }
}

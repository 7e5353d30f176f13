//! The owned engine, its builder, and the update path.

use pcs_core::{Algorithm, QueryContext, QueryScratch};
use pcs_graph::core::CoreDecomposition;
use pcs_graph::FxHashSet;
use pcs_graph::{DynamicGraph, FxHashMap, Graph, GraphHandle, IncrementalCores, VertexId};
use pcs_index::{GraphDelta, IndexError, ShardedCpIndex};
use pcs_ptree::{PTree, ProfilesHandle, Taxonomy};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::cache::{CacheKey, CacheMode, CacheStats, CacheStatsSnapshot, QueryCache};
use crate::error::{BuildError, Error, Result};
use crate::request::{QueryRequest, QueryResponse};
use crate::snapshot::{EngineSnapshot, SnapshotInner};
use crate::update::{IndexMaintenance, Update, UpdateBatch, UpdateError, UpdateReport};

/// When the engine constructs its CP-tree index.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[expect(clippy::exhaustive_enums, reason = "callers match every index mode")]
pub enum IndexMode {
    /// Lazy **per shard** (default): the first query that needs the
    /// index creates only the cheap facade (per-label member lists over
    /// the shared profiles), and each label's CL-tree shard materializes on its
    /// first probe — concurrent readers materialize distinct shards
    /// independently behind per-label `OnceLock` slots. Time to first
    /// query tracks the queried labels' shards, not the taxonomy.
    #[default]
    Lazy,
    /// Build every shard inside [`EngineBuilder::build`] and keep the
    /// index fully resident across updates (every write patches it and
    /// re-materializes whatever the patch left cold), trading update
    /// latency for predictable query latency.
    Eager,
}

/// Fluent constructor for [`PcsEngine`]; validates everything once so
/// queries never re-validate.
///
/// ```
/// use pcs_engine::PcsEngine;
/// use pcs_graph::Graph;
/// use pcs_ptree::{PTree, Taxonomy};
///
/// let mut tax = Taxonomy::new("r");
/// let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
/// let profiles: Vec<PTree> =
///     (0..3).map(|_| PTree::from_labels(&tax, [a]).unwrap()).collect();
/// let engine = PcsEngine::builder()
///     .graph(g)
///     .taxonomy(tax)
///     .profiles(profiles)
///     .build()
///     .unwrap();
/// ```
#[derive(Debug, Default)]
pub struct EngineBuilder {
    pub(crate) graph: Option<Graph>,
    pub(crate) tax: Option<Taxonomy>,
    pub(crate) profiles: Vec<PTree>,
    pub(crate) index_mode: IndexMode,
    pub(crate) cache_mode: CacheMode,
    pub(crate) durable_dir: Option<std::path::PathBuf>,
    pub(crate) wal_opts: pcs_store::WalOptions,
}

impl EngineBuilder {
    /// Starts an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes ownership of the host graph.
    pub fn graph(mut self, graph: Graph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Takes ownership of the GP-tree.
    pub fn taxonomy(mut self, tax: Taxonomy) -> Self {
        self.tax = Some(tax);
        self
    }

    /// Takes ownership of the per-vertex P-trees
    /// (`profiles[v] = T(v)`).
    pub fn profiles(mut self, profiles: Vec<PTree>) -> Self {
        self.profiles = profiles;
        self
    }

    /// Chooses the index construction policy (default
    /// [`IndexMode::Lazy`]).
    pub fn index_mode(mut self, mode: IndexMode) -> Self {
        self.index_mode = mode;
        self
    }

    /// Chooses the result-cache invalidation policy (default
    /// [`CacheMode::Off`]). With a cache enabled, every published
    /// snapshot carries an epoch-keyed map of recently computed
    /// answers; see [`PcsEngine::query_cached`] and the
    /// [`cache`](crate::cache) module docs.
    pub fn result_cache(mut self, mode: CacheMode) -> Self {
        self.cache_mode = mode;
        self
    }

    /// Validates the inputs and produces the engine. With
    /// [`IndexMode::Eager`] this also builds the CP-tree index and the
    /// core decomposition. With [`durable`](EngineBuilder::durable)
    /// configured, the target directory must be empty: the engine
    /// writes its epoch-0 snapshot and starts an empty WAL there (use
    /// [`open`](EngineBuilder::open) to recover an existing one).
    pub fn build(mut self) -> Result<PcsEngine> {
        let durable_dir = self.durable_dir.take();
        let wal_opts = std::mem::take(&mut self.wal_opts);
        let graph = self.graph.take().ok_or(BuildError::MissingGraph)?;
        let tax = self.tax.take().ok_or(BuildError::MissingTaxonomy)?;
        let profiles = std::mem::take(&mut self.profiles);
        // Defense in depth: graphs built through `Graph::from_edges` are
        // canonical by construction, but foreign CSR layouts (mmap'd
        // files, wire formats) may not be — reject self-loops, duplicate
        // edges, and asymmetry instead of silently indexing them.
        graph.validate().map_err(|e| BuildError::MalformedGraph { detail: e.to_string() })?;
        if graph.num_vertices() != profiles.len() {
            return Err(BuildError::ProfileCountMismatch {
                vertices: graph.num_vertices(),
                profiles: profiles.len(),
            }
            .into());
        }
        for (v, p) in profiles.iter().enumerate() {
            if !profile_is_valid(&tax, p) {
                return Err(BuildError::InvalidProfile { vertex: v as u32 }.into());
            }
        }
        let snapshot = Arc::new(SnapshotInner {
            graph: GraphHandle::ready(Arc::new(graph)),
            profiles: ProfilesHandle::dense(Arc::new(profiles)),
            cores: Arc::new(OnceLock::new()),
            index: OnceLock::new(),
            cache: None,
            fault: None,
            epoch: 0,
        });
        let mut engine = self.assemble(tax, snapshot)?;
        if let Some(dir) = durable_dir {
            crate::durable::init_fresh(&mut engine, dir, wal_opts)?;
        }
        Ok(engine)
    }

    /// The shared assembly tail of [`build`](EngineBuilder::build) and
    /// [`load`](EngineBuilder::load): resolves configuration defaults,
    /// wraps the initial snapshot, and warms eagerly-indexed engines —
    /// kept in one place so a loaded engine can never drift from a
    /// built one.
    pub(crate) fn assemble(self, tax: Taxonomy, snapshot: Arc<SnapshotInner>) -> Result<PcsEngine> {
        let batch_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cache_stats = Arc::new(CacheStats::default());
        // Attach the epoch-0 cache here, on the shared tail of `build`
        // and `load`, so built and loaded engines cache identically.
        let snapshot = if self.cache_mode == CacheMode::Off {
            snapshot
        } else {
            let cache = QueryCache::new(CACHE_CAPACITY, Arc::clone(&cache_stats));
            Arc::new(snapshot.as_ref().clone_with_cache(Some(cache)))
        };
        let engine = PcsEngine {
            tax,
            index_mode: self.index_mode,
            batch_threads,
            scratch_pool_cap: (batch_threads * 2).clamp(4, 64),
            cache_mode: self.cache_mode,
            cache_stats,
            state: RwLock::new(snapshot),
            writer: Mutex::new(None),
            durable: None,
            snapshot_source: None,
            scratch_pool: Mutex::new(Vec::new()),
            #[cfg(feature = "debug-invariants")]
            verify_epoch_hwm: std::sync::atomic::AtomicU64::new(0),
        };
        if self.index_mode == IndexMode::Eager {
            engine.warm()?;
        }
        Ok(engine)
    }
}

fn profile_is_valid(tax: &Taxonomy, p: &PTree) -> bool {
    p.nodes().iter().all(|&l| (l as usize) < tax.len()) && tax.is_ancestor_closed(p.nodes())
}

/// The writer's mutable master copy of the data. Materialized on the
/// first write (`apply` or replay) so read-only engines pay nothing.
///
/// The writer lock is held from the first mutation through the
/// snapshot swap (and, on a durable engine, the WAL fsync in between),
/// so whenever the lock is free the master state equals the published
/// snapshot. If an applier fails after mutating the master (damaged
/// lazy read, failed append or fsync), the whole `WriterState` is
/// discarded (`writer = None`) so the next `apply` rebuilds it from
/// the snapshot readers actually see.
pub(crate) struct WriterState {
    graph: DynamicGraph,
    cores: IncrementalCores,
    profiles: Vec<PTree>,
}

impl WriterState {
    /// The master state behind `guard`, materialized from `base` (the
    /// published snapshot) on first use. It needs full residency, so a
    /// lazily loaded engine densifies here, on its first update, with
    /// typed errors if the backing file is damaged.
    pub(crate) fn ensure<'a>(
        guard: &'a mut Option<WriterState>,
        base: &SnapshotInner,
    ) -> Result<&'a mut WriterState> {
        let ws = match guard.take() {
            Some(ws) => ws,
            None => WriterState {
                graph: DynamicGraph::from_graph(base.materialized_graph()?),
                cores: IncrementalCores::new(base.cores().core_numbers().to_vec()),
                profiles: base.dense_profiles()?.as_ref().clone(),
            },
        };
        Ok(guard.insert(ws))
    }
}

/// What the batches staged since the last publish changed in the master
/// state: edge deltas concatenate, and each reprofiled vertex keeps its
/// profile from before its first staged write, so the profile deltas a
/// publish derives are net per vertex.
#[derive(Default)]
pub(crate) struct Staged {
    edge_deltas: Vec<GraphDelta>,
    original_profiles: FxHashMap<VertexId, PTree>,
    noops: usize,
    cores_changed: usize,
}

/// Maximum resident entries in each snapshot's result cache (only
/// allocated with [`EngineBuilder::result_cache`] enabled).
const CACHE_CAPACITY: usize = 4096;

/// A point-in-time reading of the backing snapshot file's positioned-
/// read counter (see [`PcsEngine::snapshot_io`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotIo {
    /// Bytes served by positioned reads since the file was opened.
    pub bytes_read: u64,
    /// Total file length.
    pub file_len: u64,
}

/// An owned, `Send + Sync` profiled-community-search engine: the
/// serving-ready facade over the paper's algorithms.
///
/// Owns the graph, taxonomy, and profiles (so it can live in server
/// state and cross threads), answers [`QueryRequest`]s — one at a time
/// and uncached with [`query`](Self::query), or through the result
/// cache with [`query_batch`](Self::query_batch), which fans its misses
/// out over scoped threads — and absorbs live mutations through
/// [`apply`](Self::apply).
///
/// # Snapshot semantics
///
/// All data lives in immutable epoch snapshots behind one
/// atomically-swapped `Arc`. The read path takes no lock for the
/// duration of a query: it clones the current `Arc` once and computes
/// against that version even while a writer publishes the next one.
/// Writers are serialized among themselves and maintain the core
/// decomposition and CP-tree *incrementally*: bounded subcore
/// traversals repair the core numbers, and the shard of every label
/// the update touches is dropped, however large the delta. An `Eager`
/// engine rebuilds the dropped shards on all cores before it publishes;
/// a `Lazy` one rebuilds each on its next probe. Rebuilding outright
/// beats first proving a shard unchanged, which measured 6× the cost
/// of the rebuilds it saved.
///
/// Internally each query still runs through the borrowed
/// [`QueryContext`] layer, assembled per call via
/// [`QueryContext::from_parts`] at zero recomputation cost.
pub struct PcsEngine {
    tax: Taxonomy,
    index_mode: IndexMode,
    batch_threads: usize,
    /// Upper bound on `scratch_pool.len()`: scratches returned to a
    /// full pool are dropped, so a transient concurrency spike cannot
    /// permanently pin `spike × O(n)` working memory.
    scratch_pool_cap: usize,
    /// The current snapshot. Readers hold the read lock only long
    /// enough to clone the `Arc`; writers only to swap it.
    state: RwLock<Arc<SnapshotInner>>,
    /// Result-cache policy and sizing (see
    /// [`EngineBuilder::result_cache`]); the stats live here so the
    /// counters survive each epoch's cache replacement.
    cache_mode: CacheMode,
    cache_stats: Arc<CacheStats>,
    /// Serializes writers and owns the mutable master state.
    writer: Mutex<Option<WriterState>>,
    /// The WAL attachment (durable engines only): set once during
    /// `build`/`open`, before the engine is shared, and immutable
    /// afterwards.
    pub(crate) durable: Option<crate::durable::DurableState>,
    /// The backing snapshot file of a lazily loaded engine (see
    /// [`EngineBuilder::load`]): kept for IO observability
    /// ([`snapshot_io`](Self::snapshot_io)) — the lazy sources inside
    /// the snapshot hold their own `Arc`s to the same file.
    pub(crate) snapshot_source: Option<Arc<pcs_store::FileSnapshot>>,
    /// Reusable per-query working memory ([`QueryScratch`]): each query
    /// checks one out, runs allocation-free, and returns it. Pooled so
    /// concurrent `query_batch` workers each get their own.
    scratch_pool: Mutex<Vec<QueryScratch>>,
    /// Highest epoch [`verify_deep`](PcsEngine::verify_deep) has seen:
    /// published epochs must never regress, and the verifier is the
    /// witness.
    #[cfg(feature = "debug-invariants")]
    verify_epoch_hwm: std::sync::atomic::AtomicU64,
}

impl PcsEngine {
    /// Starts a builder.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The GP-tree (immutable across updates).
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.tax
    }

    /// The configured index policy.
    pub fn index_mode(&self) -> IndexMode {
        self.index_mode
    }

    pub(crate) fn snapshot_arc(&self) -> Arc<SnapshotInner> {
        self.state.read().expect("engine state lock poisoned").clone()
    }

    /// A consistent view of the engine at the current epoch. Cheap (one
    /// `Arc` clone); never blocks writers beyond the pointer swap.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot { inner: self.snapshot_arc() }
    }

    /// The current epoch: 0 as built, +1 per published update batch.
    pub fn epoch(&self) -> u64 {
        self.snapshot_arc().epoch
    }

    /// True when the current snapshot holds a built CP-tree index.
    /// Never triggers construction.
    pub fn index_built(&self) -> bool {
        self.snapshot_arc().index_if_built().is_some()
    }

    /// Forces construction of the index facade **and every shard**
    /// plus the core decomposition on the current snapshot, so the
    /// next query pays no warm-up cost regardless of which labels it
    /// touches. The shards are built on one thread per available core.
    /// Idempotent; cheap once everything is cached.
    pub fn warm(&self) -> Result<()> {
        let snap = self.snapshot_arc();
        snap.cores();
        self.ensure_index(&snap)?.materialize_all(self.batch_threads);
        Ok(())
    }

    /// The sharded-index facade of `snap`, created on first need: one
    /// pass over the profiles (member lists), no CL-trees.
    /// Shards materialize later, on their first probe.
    fn ensure_index<'a>(&self, snap: &'a SnapshotInner) -> Result<&'a ShardedCpIndex> {
        // A lazily loaded snapshot arrives with the cell pre-seeded
        // (`from_lazy_parts`), so this fast path never forces the
        // graph or profiles resident just to reach the facade.
        if snap.index.get().is_none() {
            // Materialize outside the cell so a damaged backing file
            // surfaces as the typed store error instead of wedging an
            // `IndexError` into the cell. A concurrent racer may win
            // the `set`; both built the same facade, the loser's drops.
            let graph = Arc::clone(snap.materialized_graph()?);
            let profiles = snap.dense_profiles()?;
            let _ =
                snap.index.set(ShardedCpIndex::build(graph, &self.tax, profiles).map(|mut idx| {
                    idx.set_global_cores(Arc::clone(&snap.cores));
                    idx
                }));
        }
        let built = snap.index.get().ok_or_else(|| Error::Internal {
            component: "index",
            detail: "index cell empty after ensure".into(),
        })?;
        built.as_ref().map_err(|e| Error::Index(e.clone()))
    }

    /// Number of materialized index shards in the current snapshot —
    /// the per-label laziness observability metric. Never triggers
    /// construction.
    pub fn resident_shards(&self) -> usize {
        self.snapshot_arc().index_if_built().map_or(0, ShardedCpIndex::resident_shards)
    }

    /// Bytes read from the backing snapshot file so far and the file's
    /// total length, for engines lazily loaded from disk (`None` for
    /// engines built in memory or loaded through the eager path). The
    /// ratio is the laziness metric: a freshly loaded engine sits at a
    /// few percent, and the first query moves it by exactly the ranges
    /// it touched.
    pub fn snapshot_io(&self) -> Option<SnapshotIo> {
        self.snapshot_source
            .as_ref()
            .map(|src| SnapshotIo { bytes_read: src.bytes_read(), file_len: src.file_len() })
    }

    /// Locks the scratch pool, **recovering** from poisoning instead of
    /// propagating it: a reader that panicked while holding this lock
    /// (e.g. an algorithm bug on one pathological query) must not turn
    /// into a permanent denial of service for every later query. The
    /// pool only caches reusable buffers, so recovery is trivial —
    /// discard whatever the panicking thread left behind and continue
    /// with an empty pool; subsequent queries re-allocate on demand.
    fn lock_scratch_pool(&self) -> std::sync::MutexGuard<'_, Vec<QueryScratch>> {
        match self.scratch_pool.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.clear();
                self.scratch_pool.clear_poison();
                guard
            }
        }
    }

    /// Number of [`QueryScratch`] buffers currently pooled — the
    /// serving-memory observability companion to
    /// [`resident_shards`](Self::resident_shards). Never exceeds
    /// [`pooled_scratch_cap`](Self::pooled_scratch_cap).
    pub fn pooled_scratches(&self) -> usize {
        self.lock_scratch_pool().len()
    }

    /// The retention cap on the scratch pool: twice the machine's
    /// available parallelism, clamped to `4..=64`. Each scratch holds
    /// O(n) working memory, so the pool tracks the real concurrency
    /// level, not the worst spike ever seen.
    pub fn pooled_scratch_cap(&self) -> usize {
        self.scratch_pool_cap
    }

    /// Test-only: poisons the scratch pool mutex by panicking while the
    /// lock is held (the panic is caught here). Exercises the recovery
    /// path in [`lock_scratch_pool`](Self::lock_scratch_pool); real
    /// code has no reason to call this.
    #[doc(hidden)]
    pub fn poison_scratch_pool_for_test(&self) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = self.scratch_pool.lock();
            panic!("deliberate scratch-pool poisoning (test hook)");
        }));
        assert!(result.is_err(), "the poisoning closure must panic");
    }

    /// Resolves [`Algorithm::Auto`] for this engine: `Closed`, since
    /// every engine holds an index or builds one on first need.
    pub fn resolve_algorithm(&self, algorithm: Algorithm) -> Algorithm {
        algorithm.resolve(true)
    }

    /// Answers one request against the current snapshot.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse> {
        let snap = self.snapshot_arc();
        self.query_on(&snap, request)
    }

    /// The configured result-cache policy.
    pub fn cache_mode(&self) -> CacheMode {
        self.cache_mode
    }

    /// Engine-lifetime result-cache counters (all zero with
    /// [`CacheMode::Off`]).
    pub fn cache_stats(&self) -> CacheStatsSnapshot {
        self.cache_stats.snapshot()
    }

    /// Answers one request through the result cache: a one-request
    /// [`query_batch`](Self::query_batch). A hit returns the
    /// `Arc`-shared response computed earlier **at the current epoch**
    /// (or carried over by [`CacheMode::Surgical`]), a miss computes,
    /// fills the cache, and returns the fresh answer. Equivalent to
    /// [`query`](Self::query) in every observable way except
    /// `elapsed`, which on a hit reports the original computation's
    /// wall time. With [`CacheMode::Off`] or a bypassing request this
    /// is `query` plus one `Arc` and the one-request batch's vectors.
    pub fn query_cached(&self, request: &QueryRequest) -> Result<Arc<QueryResponse>> {
        self.query_batch(std::slice::from_ref(request))
            .pop()
            .expect("query_batch answers every request")
    }

    fn query_on(&self, snap: &SnapshotInner, request: &QueryRequest) -> Result<QueryResponse> {
        let algorithm = self.resolve_algorithm(request.requested_algorithm());
        let index = if algorithm.needs_index() {
            // Only the facade is ensured here; the query materializes
            // exactly the shards its subtree lattice probes.
            Some(self.ensure_index(snap)?)
        } else {
            None
        };
        // Materialize the graph first (lazy loads decode the GRAPH
        // section here, on the first query), so `cores()` below never
        // takes its poisoned-fallback path.
        let graph = snap.materialized_graph()?;
        let cores = snap.cores();
        // Profiles stay behind the handle: a lazily loaded snapshot
        // serves `profiles[v]` chunk-by-chunk, so the query faults in
        // only the ranges it actually reads.
        let ctx = QueryContext::from_parts(graph, &self.tax, &snap.profiles, index, cores)?;
        // Check out pooled scratch so the query's working buffers (peel
        // state, profile masks, candidate seeds) are reused instead of
        // reallocated per request.
        let mut scratch = {
            let mut pool = self.lock_scratch_pool();
            pool.pop().unwrap_or_else(|| QueryScratch::new(snap.graph.num_vertices()))
        };
        #[expect(clippy::disallowed_methods, reason = "one clock read per query")]
        let start = Instant::now();
        let result = ctx.query_with_scratch(
            request.vertex_id(),
            request.degree_bound(),
            algorithm,
            &mut scratch,
        );
        let elapsed = start.elapsed();
        {
            // Return the scratch unless the pool is at its retention
            // cap: a spike of concurrent callers beyond the cap pays a
            // transient allocation instead of growing the pool forever.
            let mut pool = self.lock_scratch_pool();
            if pool.len() < self.scratch_pool_cap {
                pool.push(scratch);
            }
        }
        // Fail-stop before the answer escapes: if any lazy read hit
        // damaged bytes mid-query, the per-vertex profile view returned
        // absent trees instead of wrong ones and recorded the typed
        // fault — surface it now rather than a silently partial answer.
        if let Some(e) = snap.store_fault() {
            return Err(Error::Store(e));
        }
        let mut outcome = result?;
        let total_communities = outcome.communities.len();
        if let Some(cap) = request.community_cap() {
            outcome.communities.truncate(cap);
        }
        let stats = request.wants_stats().then_some(outcome.stats);
        Ok(QueryResponse {
            outcome,
            algorithm,
            index_used: index.is_some(),
            elapsed,
            stats,
            total_communities,
            epoch: snap.epoch,
        })
    }

    /// Answers a batch of requests against **one** snapshot, in
    /// request order: `out[i]` answers `requests[i]`. This is the one
    /// place the result cache is read and written. Each request the
    /// snapshot's cache holds is answered from it on the calling
    /// thread. The rest fan out over scoped threads, as many as the
    /// machine's available parallelism but never more than there are
    /// misses, and each fresh answer is offered back to the cache. A
    /// batch that hits throughout spawns no thread.
    ///
    /// A cache lookup counts one hit or one miss; a bypassing request
    /// or a cache-less engine counts neither. Twins inside one batch
    /// are not merged: each one looks up and, on a miss, computes.
    ///
    /// Every response carries the snapshot's epoch even when updates
    /// land mid-batch, except a hit [`CacheMode::Surgical`] carried
    /// over from an earlier epoch, which reports the epoch it was
    /// computed at.
    pub fn query_batch(&self, requests: &[QueryRequest]) -> Vec<Result<Arc<QueryResponse>>> {
        let snap = self.snapshot_arc();
        let key = |r: &QueryRequest| {
            CacheKey::for_request(r, self.resolve_algorithm(r.requested_algorithm()))
        };
        let cache = |r: &QueryRequest| snap.cache.as_ref().filter(|_| !r.bypasses_cache());
        let mut out: Vec<Option<Result<Arc<QueryResponse>>>> =
            requests.iter().map(|r| cache(r)?.lookup(&key(r)).map(Ok)).collect();
        let misses: Vec<usize> = (0..requests.len()).filter(|&i| out[i].is_none()).collect();
        if misses.is_empty() {
            return out.into_iter().map(|hit| hit.expect("no miss")).collect();
        }

        // Warm shared state up front so workers never race a build
        // (OnceLock would serialize them anyway; this keeps the
        // per-request timings honest).
        if misses
            .iter()
            .any(|&i| self.resolve_algorithm(requests[i].requested_algorithm()).needs_index())
        {
            let _ = self.ensure_index(&snap);
        }
        snap.cores();
        let threads = self.batch_threads.min(misses.len());
        let computed: Vec<(usize, Result<QueryResponse>)> = if threads <= 1 {
            misses.iter().map(|&i| (i, self.query_on(&snap, &requests[i]))).collect()
        } else {
            // Workers pull the next unclaimed miss from a shared
            // counter, so one expensive cluster of queries cannot
            // strand the work on a single thread the way static
            // chunking would.
            let next = std::sync::atomic::AtomicUsize::new(0);
            let snap = &snap;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        s.spawn(|| {
                            let mut answered = Vec::new();
                            while let Some(&i) =
                                misses.get(next.fetch_add(1, std::sync::atomic::Ordering::Relaxed))
                            {
                                answered.push((i, self.query_on(snap, &requests[i])));
                            }
                            answered
                        })
                    })
                    .collect();
                handles.into_iter().flat_map(|h| h.join().expect("batch worker panicked")).collect()
            })
        };
        for (i, result) in computed {
            let result = result.map(Arc::new);
            if let (Ok(response), Some(cache)) = (&result, cache(&requests[i])) {
                cache.insert(key(&requests[i]), Arc::clone(response));
            }
            out[i] = Some(result);
        }
        out.into_iter().map(|slot| slot.expect("every miss was computed")).collect()
    }

    // ------------------------------------------------------------------
    // Update path
    // ------------------------------------------------------------------

    /// Inserts one edge; shorthand for a singleton [`apply`](Self::apply).
    pub fn add_edge(&self, u: VertexId, v: VertexId) -> Result<UpdateReport> {
        self.apply(&UpdateBatch::new().add_edge(u, v))
    }

    /// Removes one edge; shorthand for a singleton [`apply`](Self::apply).
    pub fn remove_edge(&self, u: VertexId, v: VertexId) -> Result<UpdateReport> {
        self.apply(&UpdateBatch::new().remove_edge(u, v))
    }

    /// Replaces one vertex profile; shorthand for a singleton
    /// [`apply`](Self::apply).
    pub fn update_profile(&self, vertex: VertexId, profile: PTree) -> Result<UpdateReport> {
        self.apply(&UpdateBatch::new().set_profile(vertex, profile))
    }

    /// Applies a batch of mutations atomically and publishes it as the
    /// next epoch. The one write entry: it takes the writer lock, so
    /// concurrent callers go one at a time, and each effective batch
    /// publishes its own epoch and gets its own [`UpdateReport`].
    ///
    /// The whole batch is validated before anything is touched (any
    /// rejection leaves the engine untouched and returns a typed
    /// error). Core numbers are maintained incrementally (bounded
    /// subcore traversals per edge, never a full re-decomposition).
    /// Concurrent queries keep reading the previous epoch until the
    /// swap.
    ///
    /// A built index is cloned and patched label by label, whatever the
    /// size of the batch; an index no query has built yet stays unbuilt.
    /// See [`IndexMaintenance`].
    ///
    /// No-op operations (duplicate edge inserts, absent removals,
    /// identical profiles) are counted in the report, not errors. A
    /// batch of only no-ops publishes nothing and keeps the epoch.
    ///
    /// # Durability
    ///
    /// On an engine opened with
    /// [`EngineBuilder::durable`](crate::EngineBuilder::durable) the
    /// batch's record is appended to the WAL and **fsynced before its
    /// epoch is published**, all under the writer lock: once `apply`
    /// returns `Ok`, the batch survives a crash, and a reader can never
    /// observe an epoch the engine could still lose. Any failure on
    /// that pipeline (I/O error, injected kill point) fail-stops the
    /// log — this and every later `apply` return typed errors,
    /// already-published epochs keep serving reads, and reopening the
    /// directory recovers the fsynced prefix.
    pub fn apply(&self, batch: &UpdateBatch) -> Result<UpdateReport> {
        #[expect(clippy::disallowed_methods, reason = "one clock read per write")]
        let start = Instant::now();
        let mut guard = self.lock_writer();
        // Only a writer swaps the published snapshot, and the lock is
        // held through the swap: this is the state the master equals.
        let base = self.snapshot_arc();
        let ws = WriterState::ensure(&mut guard, &base)?;
        let mut staged = Staged::default();
        if !self.stage(ws, batch, &mut staged)? {
            return Ok(UpdateReport {
                epoch: base.epoch,
                edges_added: 0,
                edges_removed: 0,
                profiles_changed: 0,
                // Every reprofiled vertex ended where it started.
                noops: staged.noops + staged.original_profiles.len(),
                cores_changed: 0,
                index: IndexMaintenance::Unchanged,
                durable_epoch: self.durable_epoch(),
                elapsed: start.elapsed(),
            });
        }
        let epoch = base.epoch + 1;
        self.publish(&mut guard, &base, staged, epoch, start, |wal| {
            crate::durable::encode_update_batch(batch)
                .and_then(|payload| wal.append_durable(epoch, &payload))
        })
    }

    /// Validates every op of `batch` against the vertex count `n` and
    /// this engine's (immutable) taxonomy, touching nothing.
    fn validate_ops(&self, batch: &UpdateBatch, n: usize) -> Result<()> {
        for op in batch.ops() {
            match op {
                Update::AddEdge { u, v } | Update::RemoveEdge { u, v } => {
                    for &w in [u, v] {
                        if w as usize >= n {
                            return Err(UpdateError::VertexOutOfRange { vertex: w, n }.into());
                        }
                    }
                    // Only an *insertion* can create a self-loop; a
                    // self-loop removal names an edge that cannot exist
                    // and falls through to the counted-no-op path, like
                    // any other absent removal.
                    if u == v && matches!(op, Update::AddEdge { .. }) {
                        return Err(UpdateError::SelfLoop { vertex: *u }.into());
                    }
                }
                Update::SetProfile { vertex, profile } => {
                    if *vertex as usize >= n {
                        return Err(UpdateError::VertexOutOfRange { vertex: *vertex, n }.into());
                    }
                    if !profile_is_valid(&self.tax, profile) {
                        return Err(UpdateError::InvalidProfile { vertex: *vertex }.into());
                    }
                }
            }
        }
        Ok(())
    }

    /// Locks the writer path: the master state and the right to swap
    /// the published snapshot.
    pub(crate) fn lock_writer(&self) -> std::sync::MutexGuard<'_, Option<WriterState>> {
        // A poisoned lock means a writer panicked mid-mutation: going
        // on from that half-applied state could publish or persist it.
        self.writer.lock().expect("engine writer lock poisoned")
    }

    /// Applies `batch` to the master state, adds what it changed to
    /// `staged`, and returns whether it changed anything: an edge
    /// flipped, or a profile ends elsewhere than it began. The whole
    /// batch is validated first, so an error touches nothing.
    pub(crate) fn stage(
        &self,
        ws: &mut WriterState,
        batch: &UpdateBatch,
        staged: &mut Staged,
    ) -> Result<bool> {
        self.validate_ops(batch, ws.graph.num_vertices())?;
        let edges_before = staged.edge_deltas.len();
        let mut originals: FxHashMap<VertexId, PTree> = FxHashMap::default();
        for op in batch.ops() {
            match op {
                Update::AddEdge { u, v } => {
                    if ws.graph.add_edge(*u, *v).expect("endpoints validated above") {
                        staged.cores_changed += ws.cores.on_edge_inserted(&ws.graph, *u, *v);
                        staged.edge_deltas.push(GraphDelta::EdgeAdded { u: *u, v: *v });
                    } else {
                        staged.noops += 1;
                    }
                }
                Update::RemoveEdge { u, v } => {
                    if ws.graph.remove_edge(*u, *v).expect("endpoints validated above") {
                        staged.cores_changed += ws.cores.on_edge_removed(&ws.graph, *u, *v);
                        staged.edge_deltas.push(GraphDelta::EdgeRemoved { u: *u, v: *v });
                    } else {
                        staged.noops += 1;
                    }
                }
                Update::SetProfile { vertex, profile } => {
                    originals
                        .entry(*vertex)
                        .or_insert_with(|| ws.profiles[*vertex as usize].clone());
                    ws.profiles[*vertex as usize] = profile.clone();
                }
            }
        }
        let changed = staged.edge_deltas.len() > edges_before
            || originals.iter().any(|(&v, p)| *p != ws.profiles[v as usize]);
        for (v, p) in originals {
            staged.original_profiles.entry(v).or_insert(p);
        }
        Ok(changed)
    }

    /// Publishes everything staged since the last publish as `epoch`:
    /// one CSR export, one core copy, one index patch over the union of
    /// the deltas, one cache, then `log` (the WAL appends, run only on
    /// a durable engine) and the swap. A lazy-load fault or a failed
    /// append discards the writer state and publishes nothing.
    pub(crate) fn publish(
        &self,
        guard: &mut Option<WriterState>,
        base: &SnapshotInner,
        staged: Staged,
        epoch: u64,
        start: Instant,
        log: impl FnOnce(&pcs_store::wal::Wal) -> std::result::Result<(), pcs_store::StoreError>,
    ) -> Result<UpdateReport> {
        let ws = guard.as_mut().expect("staging initialized the writer state");
        let Staged { edge_deltas: mut deltas, original_profiles, mut noops, cores_changed } =
            staged;
        let edges_added =
            deltas.iter().filter(|d| matches!(d, GraphDelta::EdgeAdded { .. })).count();
        let edges_removed = deltas.len() - edges_added;
        // One net ProfileChanged delta per vertex: a sequence of writes
        // ending where it started is a no-op.
        let mut changed_profiles: Vec<VertexId> = Vec::new();
        let mut reprofiled: Vec<VertexId> = original_profiles.keys().copied().collect();
        reprofiled.sort_unstable();
        for v in reprofiled {
            if original_profiles[&v] != ws.profiles[v as usize] {
                deltas.push(GraphDelta::ProfileChanged { v });
                changed_profiles.push(v);
            } else {
                noops += 1;
            }
        }
        // Build the next snapshot from the master state. Only the
        // components the deltas touch are copied: an edge-only publish
        // shares the previous epoch's profiles `Arc`, a profile-only
        // one shares its graph and cores. (Edge changes still pay an
        // O(n + m) CSR export — the price of handing readers a flat
        // immutable layout; the derived-state maintenance above it is
        // what stays bounded.)
        let edges_changed = edges_added + edges_removed > 0;
        // The base is materialized (writer-state init forced it), so
        // these borrows are cache hits even on a lazily loaded engine.
        let graph = if edges_changed {
            Arc::new(ws.graph.to_graph())
        } else {
            Arc::clone(base.materialized_graph()?)
        };
        let profiles = if !changed_profiles.is_empty() {
            Arc::new(ws.profiles.clone())
        } else {
            base.dense_profiles()?
        };
        let cores = if edges_changed {
            let cell = OnceLock::new();
            let _ =
                cell.set(CoreDecomposition::from_core_numbers(ws.cores.core_numbers().to_vec()));
            Arc::new(cell)
        } else {
            Arc::clone(&base.cores)
        };
        let index_cell: OnceLock<std::result::Result<ShardedCpIndex, IndexError>> = OnceLock::new();
        // An Eager base always holds a built index: `assemble` warms it
        // on build, load and open, and every publish below carries a
        // patched clone forward.
        let maintenance = match base.index.get() {
            Some(Ok(old)) => {
                // The clone shares resident shards (`Arc`) and copies
                // only the facade tables; the patch then empties the
                // slot of every touched label and builds nothing.
                let mut patched = old.clone();
                let stats =
                    patched.apply_batch(&graph, &profiles, &deltas, Some(Arc::clone(&cores)));
                // Eager mode promises a fully resident index: rebuild
                // every slot the patch emptied (and any label the batch
                // newly populated) on all cores before publishing.
                if self.index_mode == IndexMode::Eager {
                    patched.materialize_all(self.batch_threads);
                }
                let _ = index_cell.set(Ok(patched));
                IndexMaintenance::Patched(stats)
            }
            _ => IndexMaintenance::NotBuilt,
        };
        // Fail-stop before publishing: incremental index maintenance on
        // a lazily loaded engine materializes touched member lists from
        // the backing file, and a damaged run poisons the fault cell —
        // the patched facade cannot be trusted, so discard the writer
        // state (the next apply re-materializes from the published
        // snapshot) and surface the typed fault.
        if let Some(e) = base.fault.as_ref().and_then(pcs_store::FaultCell::get) {
            *guard = None;
            return Err(Error::Store(e));
        }
        let cache =
            self.next_cache(base, edges_changed, &changed_profiles, &original_profiles, &profiles);
        // The published components are resident `Arc`s, but the fault
        // cell carries over: a patched index clone may still fault
        // untouched member lists in from the backing file.
        let next = Arc::new(SnapshotInner {
            graph: GraphHandle::ready(graph),
            profiles: ProfilesHandle::dense(profiles),
            cores,
            index: index_cell,
            cache,
            fault: base.fault.clone(),
            epoch,
        });
        // Recovery replay runs before `durable` is attached, so a
        // recovered record is never re-logged.
        if let Some(ds) = self.durable.as_ref() {
            // Log → fsync → publish, all under the writer lock. The
            // master state is already mutated, so a failure here must
            // discard the writer state (the next `apply` re-materializes
            // it from the published snapshot) and fail-stop the log —
            // otherwise an unlogged mutation could leak into a later
            // epoch's base.
            let logged =
                log(&ds.wal).and_then(|()| pcs_store::faults::hit("engine.before_publish"));
            if let Err(e) = logged {
                *guard = None;
                ds.wal.fail_stop();
                return Err(e.into());
            }
        }
        *self.state.write().expect("engine state lock poisoned") = next;
        Ok(UpdateReport {
            epoch,
            edges_added,
            edges_removed,
            profiles_changed: changed_profiles.len(),
            noops,
            cores_changed,
            index: maintenance,
            durable_epoch: self.durable_epoch(),
            elapsed: start.elapsed(),
        })
    }

    /// The result cache the next epoch's snapshot publishes with.
    ///
    /// `Wholesale` always starts empty — trivially sound. `Surgical`
    /// carries over the entries the batch provably cannot have
    /// changed, by the same label-lattice reasoning the CP-tree
    /// patcher uses: a query for vertex `q` only ever examines
    /// induced subgraphs `G_T` for subtrees `T ⊆ T(q)`, and a
    /// profile-only batch changes `G_T` membership only for subtrees
    /// containing a label in some reprofiled vertex's pre/post
    /// symmetric difference. So an entry survives iff its query
    /// vertex was not reprofiled and its (unchanged) profile shares
    /// no label with that difference. Edge batches invalidate
    /// everything: every query considers the root-level candidate
    /// (the global k-core), which any edge flip can change.
    fn next_cache(
        &self,
        base: &SnapshotInner,
        edges_changed: bool,
        changed_profiles: &[VertexId],
        original_profiles: &FxHashMap<VertexId, PTree>,
        profiles_after: &Arc<Vec<PTree>>,
    ) -> Option<QueryCache> {
        let fresh = || QueryCache::new(CACHE_CAPACITY, Arc::clone(&self.cache_stats));
        match self.cache_mode {
            CacheMode::Off => None,
            CacheMode::Wholesale => Some(fresh()),
            CacheMode::Surgical => {
                let Some(prev) = base.cache.as_ref() else { return Some(fresh()) };
                if edges_changed {
                    return Some(fresh());
                }
                let mut touched: FxHashSet<u32> = FxHashSet::default();
                let mut reprofiled: FxHashSet<VertexId> = FxHashSet::default();
                for &v in changed_profiles {
                    reprofiled.insert(v);
                    let (Some(pre), Some(post)) =
                        (original_profiles.get(&v), profiles_after.get(v as usize))
                    else {
                        return Some(fresh());
                    };
                    let pre_set: FxHashSet<u32> = pre.nodes().iter().copied().collect();
                    let post_set: FxHashSet<u32> = post.nodes().iter().copied().collect();
                    touched.extend(pre_set.symmetric_difference(&post_set).copied());
                }
                Some(prev.carry_surviving(CACHE_CAPACITY, |key| {
                    !reprofiled.contains(&key.vertex())
                        && profiles_after
                            .get(key.vertex() as usize)
                            .is_some_and(|p| p.nodes().iter().all(|l| !touched.contains(l)))
                }))
            }
        }
    }
}

/// The deep invariant verifier and the corruption hooks its mutation
/// tests seed state through. Compiled only under `debug-invariants`;
/// release builds and the bench harness carry none of this code.
#[cfg(feature = "debug-invariants")]
impl PcsEngine {
    /// Cross-checks every invariant the current snapshot must satisfy
    /// — CSR symmetry/sortedness/no-self-loops, `core(v) ≤ deg(v)`
    /// plus the k-core closure spot-check, profile ancestor-closure,
    /// index member-table ⇄ profile consistency, and resident-shard
    /// CL-tree arena geometry (see
    /// [`EngineSnapshot::verify_deep`](crate::EngineSnapshot::verify_deep))
    /// — and additionally that the published epoch never regresses
    /// below one this engine has already verified.
    ///
    /// Returns the first violated invariant as a human-readable
    /// description; `Ok(())` means the snapshot is internally
    /// consistent at full depth.
    pub fn verify_deep(&self) -> std::result::Result<(), String> {
        use std::sync::atomic::Ordering;
        let snap = self.snapshot_arc();
        let seen = self.verify_epoch_hwm.fetch_max(snap.epoch, Ordering::AcqRel);
        if seen > snap.epoch {
            return Err(format!(
                "epoch regression: previously verified epoch {seen}, \
                 current snapshot is epoch {}",
                snap.epoch
            ));
        }
        snap.verify_deep(&self.tax)
    }

    /// Republishes the current snapshot with `parts` swapped in.
    /// Shared tail of the corruption hooks below.
    fn publish_for_test(&self, next: SnapshotInner) {
        *self.state.write().expect("engine state lock poisoned") = Arc::new(next);
    }

    /// A copy of the current snapshot's index cell ([`ShardedCpIndex`]
    /// clones share resident shards, so this is cheap).
    fn index_cell_for_test(
        snap: &SnapshotInner,
    ) -> OnceLock<std::result::Result<ShardedCpIndex, IndexError>> {
        let cell = OnceLock::new();
        if let Some(r) = snap.index.get() {
            let _ = cell.set(r.clone());
        }
        cell
    }

    /// Test-only corruption hook: swaps in a replacement graph with no
    /// validation (pair with
    /// `Graph::from_csr_unvalidated_for_test`). Derived state (cores,
    /// index) is dropped so the graph check fires first.
    pub fn corrupt_graph_for_test(&self, graph: Graph) {
        let snap = self.snapshot_arc();
        self.publish_for_test(SnapshotInner {
            graph: GraphHandle::ready(Arc::new(graph)),
            profiles: snap.profiles.clone(),
            cores: Arc::new(OnceLock::new()),
            index: OnceLock::new(),
            cache: None,
            fault: snap.fault.clone(),
            epoch: snap.epoch,
        });
    }

    /// Test-only corruption hook: replaces the snapshot's core
    /// decomposition with forged per-vertex numbers.
    pub fn corrupt_cores_for_test(&self, core_numbers: Vec<u32>) {
        let snap = self.snapshot_arc();
        let cell = OnceLock::new();
        let _ = cell.set(CoreDecomposition::from_core_numbers(core_numbers));
        self.publish_for_test(SnapshotInner {
            graph: snap.graph.clone(),
            profiles: snap.profiles.clone(),
            cores: Arc::new(cell),
            index: Self::index_cell_for_test(&snap),
            cache: None,
            fault: snap.fault.clone(),
            epoch: snap.epoch,
        });
    }

    /// Test-only corruption hook: replaces the snapshot's profiles
    /// with no validation, **keeping** the built index — the way to
    /// desynchronize the index's member table from the published
    /// profiles without touching the index itself.
    pub fn corrupt_profiles_for_test(&self, profiles: Vec<PTree>) {
        let snap = self.snapshot_arc();
        self.publish_for_test(SnapshotInner {
            graph: snap.graph.clone(),
            profiles: ProfilesHandle::dense(Arc::new(profiles)),
            cores: Arc::clone(&snap.cores),
            index: Self::index_cell_for_test(&snap),
            cache: None,
            fault: snap.fault.clone(),
            epoch: snap.epoch,
        });
    }

    /// Test-only corruption hook: clones the built index, lets the
    /// caller mutate the clone (e.g.
    /// `ShardedCpIndex::tamper_member_table_for_test`), and republishes
    /// it. Returns `false` (and publishes nothing) when no index is
    /// built on the current snapshot.
    pub fn corrupt_index_for_test(&self, mutate: impl FnOnce(&mut ShardedCpIndex)) -> bool {
        let snap = self.snapshot_arc();
        let Some(idx) = snap.index_if_built() else { return false };
        let mut tampered = idx.clone();
        mutate(&mut tampered);
        let cell = OnceLock::new();
        let _ = cell.set(Ok(tampered));
        self.publish_for_test(SnapshotInner {
            graph: snap.graph.clone(),
            profiles: snap.profiles.clone(),
            cores: Arc::clone(&snap.cores),
            index: cell,
            cache: None,
            fault: snap.fault.clone(),
            epoch: snap.epoch,
        });
        true
    }

    /// Test-only corruption hook: republishes the current state under
    /// an arbitrary epoch number, so mutation tests can stage an epoch
    /// regression.
    pub fn corrupt_epoch_for_test(&self, epoch: u64) {
        let snap = self.snapshot_arc();
        self.publish_for_test(SnapshotInner {
            graph: snap.graph.clone(),
            profiles: snap.profiles.clone(),
            cores: Arc::clone(&snap.cores),
            index: Self::index_cell_for_test(&snap),
            cache: None,
            fault: snap.fault.clone(),
            epoch,
        });
    }
}

impl std::fmt::Debug for PcsEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot_arc();
        f.debug_struct("PcsEngine")
            .field("epoch", &snap.epoch)
            .field("vertices", &snap.graph.num_vertices())
            .field("edges", &snap.graph.num_edges())
            .field("labels", &self.tax.len())
            .field("index_mode", &self.index_mode)
            .field("index_built", &snap.index.get().is_some())
            .field("batch_threads", &self.batch_threads)
            .finish()
    }
}

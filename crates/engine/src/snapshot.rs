//! Epoch snapshots: the engine's lock-free read path.
//!
//! Every mutation publishes a fresh immutable [`SnapshotInner`] behind
//! an `Arc`; queries clone the current `Arc` once and then read without
//! any synchronization. In-flight queries keep the snapshot they
//! started on alive until they finish, so a writer can never yank state
//! out from under a reader — the epoch number stamped on every
//! [`QueryResponse`](crate::QueryResponse) says exactly which graph
//! version answered.
//!
//! The graph and profiles sit behind **handles** ([`GraphHandle`],
//! [`ProfilesHandle`]): for engines built in memory and for every
//! post-update epoch they are plain resident `Arc`s, but an engine
//! lazily loaded from a snapshot file starts with file-backed handles
//! that decode on first touch. A lazy read that hits damaged bytes
//! records the typed [`StoreError`](pcs_store::StoreError) in the
//! snapshot's shared fault cell; the query path checks the cell after
//! computing and returns the error instead of the answer — damage in a
//! range no query touches costs nothing, damage in a touched range is
//! fail-stop, never a silently wrong community.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::cache::QueryCache;
use crate::error::{Error, Result};
use pcs_graph::core::CoreDecomposition;
use pcs_graph::{Graph, GraphHandle};
use pcs_index::{IndexError, ShardedCpIndex};
use pcs_ptree::{PTree, ProfilesHandle};
use pcs_store::FaultCell;
use std::sync::{Arc, OnceLock};

/// One immutable version of the engine's data: graph, profiles, and the
/// lazily materialized derived state (core decomposition, CP-tree).
///
/// The big components sit behind their own `Arc`s so publication cost
/// tracks what a batch actually changed: an edge-only batch shares the
/// previous epoch's profiles, a profile-only batch shares its graph
/// *and* cores, and only the touched component is deep-copied.
pub(crate) struct SnapshotInner {
    pub(crate) graph: GraphHandle,
    pub(crate) profiles: ProfilesHandle,
    /// Computed on first use; update batches with edge changes publish
    /// it pre-seeded from the incrementally maintained master copy,
    /// profile-only batches share the previous epoch's cell, and lazy
    /// loads pre-seed it from the file's `CORES` section.
    pub(crate) cores: Arc<OnceLock<CoreDecomposition>>,
    /// The sharded index facade, created lazily (policy permitting);
    /// update batches publish it pre-seeded when incremental patching
    /// or an eager rebuild ran. Individual shards inside materialize
    /// on their own per-label `OnceLock`s.
    pub(crate) index: OnceLock<std::result::Result<ShardedCpIndex, IndexError>>,
    /// The epoch-keyed result cache, present when the engine was built
    /// with a [`CacheMode`](crate::CacheMode) other than `Off`. Bound
    /// to this snapshot's version: a hit can only return an answer
    /// computed against exactly this graph and these profiles.
    pub(crate) cache: Option<QueryCache>,
    /// The shared first-fault register of a lazily loaded snapshot
    /// (`None` for engines built in memory). Checked after every query
    /// and apply; carried across epochs because a patched index may
    /// still fault untouched labels in from the file.
    pub(crate) fault: Option<FaultCell>,
    pub(crate) epoch: u64,
}

impl SnapshotInner {
    /// The first typed store fault any lazy read of this snapshot hit.
    pub(crate) fn store_fault(&self) -> Option<pcs_store::StoreError> {
        self.fault.as_ref().and_then(FaultCell::get)
    }

    /// Maps a lazy-materialization failure to the typed error the
    /// caller should surface: the recorded store fault when there is
    /// one, an internal error otherwise.
    pub(crate) fn lazy_error(&self, detail: String) -> Error {
        match self.store_fault() {
            Some(e) => Error::Store(e),
            None => Error::Internal { component: "lazy-load", detail },
        }
    }

    /// The materialized graph, decoding it from the backing file on
    /// first call for lazily loaded snapshots. Fails with the typed
    /// store error when the file's `GRAPH` range is damaged.
    pub(crate) fn materialized_graph(&self) -> Result<&Arc<Graph>> {
        self.graph.get().map_err(|e| self.lazy_error(e.to_string()))
    }

    /// The dense profile array, faulting in every remaining chunk on
    /// first call for lazily loaded snapshots.
    pub(crate) fn dense_profiles(&self) -> Result<Arc<Vec<PTree>>> {
        self.profiles.to_dense().map_err(|detail| self.lazy_error(detail))
    }

    /// The core decomposition of this snapshot's graph.
    ///
    /// Lazy loads pre-seed the cell from the file, so this computes
    /// only when no `CORES` section was persisted; if the graph itself
    /// cannot materialize, an all-zero stand-in fills the cell — the
    /// poisoned fault cell already forces every query to a typed error,
    /// so the stand-in is never served as an answer.
    pub(crate) fn cores(&self) -> &CoreDecomposition {
        self.cores.get_or_init(|| match self.graph.get() {
            Ok(g) => CoreDecomposition::new(g),
            Err(_) => CoreDecomposition::from_core_numbers(vec![0; self.graph.num_vertices()]),
        })
    }

    /// The sharded index, if this snapshot has its facade built
    /// already (individual shards may still be cold).
    pub(crate) fn index_if_built(&self) -> Option<&ShardedCpIndex> {
        self.index.get().and_then(|r| r.as_ref().ok())
    }

    /// A structural copy of this snapshot — sharing every `Arc`'d
    /// component and whatever the index cell holds (index clones share
    /// resident shards, so this is cheap) — with `cache` swapped in.
    pub(crate) fn clone_with_cache(&self, cache: Option<QueryCache>) -> SnapshotInner {
        let index = OnceLock::new();
        if let Some(r) = self.index.get() {
            let _ = index.set(r.clone());
        }
        SnapshotInner {
            graph: self.graph.clone(),
            profiles: self.profiles.clone(),
            cores: Arc::clone(&self.cores),
            index,
            cache,
            fault: self.fault.clone(),
            epoch: self.epoch,
        }
    }
}

/// The deep invariant verifier. Compiled only under `debug-invariants`;
/// release builds carry none of this code.
#[cfg(feature = "debug-invariants")]
impl SnapshotInner {
    /// Cross-checks every invariant one epoch's published state must
    /// satisfy:
    ///
    /// * **CSR structure** via [`Graph::validate`]: monotone offsets,
    ///   sorted duplicate-free adjacency, no self-loops, symmetric
    ///   half-edges;
    /// * **profiles**: one per vertex, every label in range, every
    ///   node set ancestor-closed in the taxonomy;
    /// * **cores** (when computed): one per vertex, `core(v) ≤ deg(v)`,
    ///   and the k-core closure spot-check at every vertex —
    ///   `|{u ∈ N(v) : core(u) ≥ core(v)}| ≥ core(v)` (a forged
    ///   decomposition that claims a deeper ĉore than the graph
    ///   supports fails here);
    /// * **index** (when built): the full
    ///   [`ShardedCpIndex::verify_deep`] pass against this snapshot's
    ///   authoritative graph and profiles.
    ///
    /// On a lazily loaded snapshot this **materializes everything**
    /// first (an unreadable range is itself a reported violation) —
    /// full-depth verification is exactly the moment to pay for full
    /// residency.
    ///
    /// Epoch monotonicity is checked one level up, in
    /// [`PcsEngine::verify_deep`](crate::PcsEngine::verify_deep),
    /// which owns the high-water mark.
    pub(crate) fn verify_deep(&self, tax: &pcs_ptree::Taxonomy) -> std::result::Result<(), String> {
        let at = |detail: String| format!("epoch {}: {detail}", self.epoch);
        let graph = self.graph.get().map_err(|e| at(format!("graph unavailable: {e}")))?;
        let profiles =
            self.profiles.to_dense().map_err(|e| at(format!("profiles unavailable: {e}")))?;
        let n = graph.num_vertices();
        graph.validate().map_err(|e| at(format!("CSR invariant broken: {e}")))?;
        if profiles.len() != n {
            return Err(at(format!("{} profiles for {n} vertices", profiles.len())));
        }
        for (v, p) in profiles.iter().enumerate() {
            if let Some(&l) = p.nodes().iter().find(|&&l| l as usize >= tax.len()) {
                return Err(at(format!("profile of vertex {v} names unknown label {l}")));
            }
            if !tax.is_ancestor_closed(p.nodes()) {
                return Err(at(format!("profile of vertex {v} is not ancestor-closed")));
            }
        }
        if let Some(cores) = self.cores.get() {
            let core = cores.core_numbers();
            if core.len() != n {
                return Err(at(format!("{} core numbers for {n} vertices", core.len())));
            }
            for (v, &c) in core.iter().enumerate() {
                let nbrs = graph.neighbors(v as u32);
                if c as usize > nbrs.len() {
                    return Err(at(format!(
                        "core number {c} of vertex {v} exceeds its degree {}",
                        nbrs.len()
                    )));
                }
                let support = nbrs
                    .iter()
                    .filter(|&&u| core.get(u as usize).is_some_and(|&cu| cu >= c))
                    .count();
                if support < c as usize {
                    return Err(at(format!(
                        "k-core closure violated at vertex {v}: core {c} but only \
                         {support} neighbors at that level"
                    )));
                }
            }
        }
        if let Some(idx) = self.index_if_built() {
            idx.verify_deep(tax, graph, &profiles).map_err(|e| at(format!("index: {e}")))?;
        }
        if let Some(e) = self.store_fault() {
            return Err(at(format!("lazy load recorded a store fault: {e}")));
        }
        Ok(())
    }
}

/// A consistent, immutable view of the engine at one epoch.
///
/// Obtained from [`PcsEngine::snapshot`](crate::PcsEngine::snapshot);
/// cheap to clone (one `Arc`). All accessors borrow from the same
/// version: a concurrent [`apply`](crate::PcsEngine::apply) can never
/// make `graph()` and `profiles()` disagree. Holding a snapshot only
/// pins memory — it never blocks writers.
#[derive(Clone)]
pub struct EngineSnapshot {
    pub(crate) inner: Arc<SnapshotInner>,
}

impl EngineSnapshot {
    /// The graph at this epoch.
    ///
    /// On a lazily loaded snapshot the first call decodes the `GRAPH`
    /// section from the backing file (use [`try_graph`][Self::try_graph]
    /// to observe residency without forcing it, and to get a typed
    /// error instead of the panic this accessor raises when the backing
    /// range is damaged).
    pub fn graph(&self) -> &Graph {
        match self.inner.graph.get() {
            Ok(g) => g,
            #[expect(
                clippy::panic,
                reason = "documented compat surface — callers who need a typed error use try_graph"
            )]
            Err(e) => panic!("snapshot graph unavailable: {e}"),
        }
    }

    /// The graph at this epoch, materializing on first call; damage in
    /// the backing file surfaces as the typed store error.
    pub fn try_graph(&self) -> Result<&Graph> {
        self.inner.materialized_graph().map(|g| g.as_ref())
    }

    /// The per-vertex P-trees at this epoch.
    ///
    /// On a lazily loaded snapshot the first call faults in **every**
    /// profile chunk (use [`try_profiles`][Self::try_profiles] for the
    /// typed-error variant; per-vertex reads inside queries stay
    /// chunk-granular — this dense accessor is the compatibility
    /// surface for tooling that wants a slice).
    pub fn profiles(&self) -> &[PTree] {
        if let Some(s) = self.inner.profiles.as_ref().as_slice() {
            return s;
        }
        match self.inner.dense_profiles() {
            // Serve the borrow from the source's dense cache, which
            // `to_dense` just populated.
            #[expect(
                clippy::panic,
                reason = "dense_profiles() just populated the cache on this path"
            )]
            Ok(_) => self
                .inner
                .profiles
                .as_ref()
                .as_slice()
                .unwrap_or_else(|| panic!("profiles dense cache empty after materialization")),
            #[expect(
                clippy::panic,
                reason = "documented compat surface — callers who need a typed error use try_profiles"
            )]
            Err(e) => panic!("snapshot profiles unavailable: {e}"),
        }
    }

    /// The per-vertex P-trees at this epoch, materializing the dense
    /// array on first call; damage surfaces as the typed store error.
    pub fn try_profiles(&self) -> Result<Arc<Vec<PTree>>> {
        self.inner.dense_profiles()
    }

    /// The core decomposition at this epoch (computed on first call if
    /// no query has needed it yet).
    pub fn cores(&self) -> &CoreDecomposition {
        self.inner.cores()
    }

    /// The sharded CP-tree index at this epoch, if its facade is
    /// built. Never triggers facade construction (probing the returned
    /// index can still materialize individual shards — that is its
    /// contract).
    pub fn index(&self) -> Option<&ShardedCpIndex> {
        self.inner.index_if_built()
    }

    /// Number of materialized index shards at this epoch (0 when no
    /// facade is built). Never triggers any construction — the serving
    /// observability companion to [`EngineSnapshot::index`].
    pub fn resident_shards(&self) -> usize {
        self.inner.index_if_built().map_or(0, ShardedCpIndex::resident_shards)
    }

    /// The epoch counter: 0 for the engine as built, +1 per published
    /// update batch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// The first typed store fault a lazy read of this snapshot hit,
    /// if any. `None` for engines built in memory.
    pub fn store_fault(&self) -> Option<pcs_store::StoreError> {
        self.inner.store_fault()
    }

    /// True once the graph is resident (always, for engines built in
    /// memory; after the first adjacency touch for lazy loads).
    pub fn graph_resident(&self) -> bool {
        self.inner.graph.is_materialized()
    }

    /// Runs the deep invariant verifier on this snapshot alone (no
    /// epoch-monotonicity check — that needs the engine's high-water
    /// mark; see [`PcsEngine::verify_deep`](crate::PcsEngine::verify_deep)).
    /// `tax` must be the owning engine's taxonomy.
    #[cfg(feature = "debug-invariants")]
    pub fn verify_deep(&self, tax: &pcs_ptree::Taxonomy) -> std::result::Result<(), String> {
        self.inner.verify_deep(tax)
    }
}

impl std::fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("epoch", &self.inner.epoch)
            .field("vertices", &self.inner.graph.num_vertices())
            .field("edges", &self.inner.graph.num_edges())
            .field("index_built", &self.inner.index.get().is_some())
            .finish()
    }
}

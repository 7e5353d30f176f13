//! The CP-tree index (Section 4.2 / Algorithm 2 of the paper), sharded
//! by label: per-label shards materialized on demand.
//!
//! One node per GP-tree label; each node stores the CL-tree of the
//! subgraph induced by the vertices whose P-trees contain that label.
//! The per-label CL-trees are independent, so nothing forces all of
//! them to exist at once: the index is one [`IndexShard`] per populated
//! label behind a [`ShardedCpIndex`] facade. Fully materialized, build
//! cost is `O(|P| · m · α(n))` and space `O(|P| · n)` as analyzed in
//! the paper.
//!
//! * the **facade** (per-label member lists over the epoch's shared
//!   profile `Arc`) is built eagerly — one bucketing pass, no
//!   CL-trees, milliseconds where a full build takes hundreds;
//! * each **shard** (a label's CL-tree) materializes on first probe
//!   through a per-label [`OnceLock`] slot, so concurrent readers
//!   materialize *distinct* shards independently and race on the same
//!   shard at most once;
//! * a query only ever touches the labels in its subtree lattice
//!   (`T(q)`'s closure), so time-to-first-query tracks the queried
//!   labels' shard sizes, not the whole taxonomy;
//! * the incremental-update path **patches resident shards and merely
//!   invalidates absent ones** — a shard nobody queried is never built
//!   just to be patched;
//! * shards can be rehydrated from a snapshot through a [`ShardSource`]
//!   (the store's lazy load) instead of rebuilt from the graph,
//!   falling back to a from-graph build whenever the source cannot
//!   produce a structurally valid shard for the current members.

use std::sync::{Arc, OnceLock, RwLock};

use pcs_graph::core::CoreDecomposition;
use pcs_graph::{Graph, GraphBuilder, GraphHandle, VertexId};
use pcs_ptree::{LabelId, PTree, ProfilesHandle, Taxonomy};

use crate::cltree::ClTree;
use crate::communities::{CommunityTable, Proof};
use crate::cptree::{classify_batch, CpPatchStats, GraphDelta};
use crate::{IndexError, Result};

/// One materialized shard: a label and the CL-tree of the subgraph
/// induced by its carriers. The label's sorted member list is the
/// CL-tree's member array.
#[derive(Clone, Debug)]
pub struct IndexShard {
    /// The label this shard indexes.
    pub label: LabelId,
    /// The per-label CL-tree.
    pub cl: ClTree,
}

/// A pluggable shard supplier: given a label, produce its CL-tree from
/// somewhere cheaper than a from-graph build (in practice, the
/// snapshot store's lazily decoded per-shard payloads).
///
/// A source is advisory: the index cross-checks every supplied tree's
/// member list against its own bookkeeping and falls back to building
/// from the graph on any mismatch or failure — a source can make
/// materialization faster, never wrong.
pub trait ShardSource: Send + Sync {
    /// The CL-tree of `label`, if this source can produce one.
    fn load_shard(&self, label: LabelId) -> Option<ClTree>;
}

/// A pluggable member-table supplier for lazily loaded facades: given a
/// label, produce its sorted member list from storage.
///
/// Unlike [`ShardSource`], a member source is **authoritative** — the
/// facade has no other way to learn a label's members, only their count
/// (the eager length hints). A source therefore must validate what it
/// returns (checksums, sortedness, vertex range) and, per the storage
/// layer's discipline, record a typed fault *before* returning `None`
/// on damage; the facade then answers that label as empty and the
/// owning engine converts the recorded fault into a typed error rather
/// than serving the hole.
pub trait MemberSource: Send + Sync {
    /// The sorted members of `label`, or `None` on failure (fault
    /// recorded by the source).
    fn load_members(&self, label: LabelId) -> Option<Vec<VertexId>>;
}

/// One label's member list: the authoritative count is always resident
/// (it comes from the snapshot's length table, or from the list
/// itself), the list materializes on first touch when the facade was
/// loaded lazily.
struct MemberSlot {
    /// Number of members, known without materializing.
    len: usize,
    /// The sorted list; per-label `Arc` so the writer's clone shares
    /// every untouched list (copy-on-write via `Arc::make_mut`).
    cell: OnceLock<Arc<Vec<VertexId>>>,
}

impl MemberSlot {
    fn resident(list: Vec<VertexId>) -> MemberSlot {
        MemberSlot { len: list.len(), cell: OnceLock::from(Arc::new(list)) }
    }

    fn pending(len: usize) -> MemberSlot {
        MemberSlot { len, cell: OnceLock::new() }
    }
}

impl Clone for MemberSlot {
    fn clone(&self) -> MemberSlot {
        let cell = match self.cell.get() {
            Some(arc) => OnceLock::from(Arc::clone(arc)),
            None => OnceLock::new(),
        };
        MemberSlot { len: self.len, cell }
    }
}

/// The label-sharded CP-tree index. See the [module docs](self).
///
/// Shared references materialize shards on demand (`&self`, via
/// per-label `OnceLock`s); the engine's writer patches a cloned index
/// through [`ShardedCpIndex::apply_batch`]. Cloning shares resident
/// shards (`Arc`) instead of deep-copying them, so the writer's
/// clone-and-patch cost tracks the invalidation set, not the index
/// size.
pub struct ShardedCpIndex {
    /// The graph shards are built against (the epoch's graph) — ready
    /// for built facades, file-backed for lazily loaded replicas (the
    /// first from-graph shard build faults the whole section in).
    graph: GraphHandle,
    /// Per label: the sorted vertices carrying it (`len == 0` ⇔
    /// unpopulated). Lengths are eager and authoritative: a shard's
    /// member list always equals this table's. Lists are per-label
    /// `Arc`s so the writer's clone shares every untouched list and
    /// copies only the lists its batch actually patches; lazily loaded
    /// facades materialize each list on first touch through
    /// [`MemberSource`].
    members_of: Vec<MemberSlot>,
    /// Per label: the materialization slot.
    slots: Vec<OnceLock<Arc<IndexShard>>>,
    /// The epoch's per-vertex P-trees, shared with the owning snapshot
    /// (the facade stores no copy). Stands in for the paper's
    /// `headMap`: `T(v)` restoration is a profile clone, and the update
    /// classifier reads label sets straight from here.
    profiles: ProfilesHandle,
    /// Optional member-table supplier (file-backed lazy load).
    member_source: Option<Arc<dyn MemberSource>>,
    /// Optional shard supplier (snapshot lazy load).
    source: Option<Arc<dyn ShardSource>>,
    /// `source_live[l]` — the source's payload for `l` still describes
    /// the current epoch. Cleared per label by `apply_batch` the moment
    /// a delta invalidates it.
    source_live: Vec<bool>,
    /// The epoch's global core decomposition, when the owner shares
    /// one: the root label's shard covers every vertex, so its CL-tree
    /// is built straight from these cores with no induced-subgraph
    /// copy and no re-peel.
    global_cores: Option<Arc<OnceLock<CoreDecomposition>>>,
    /// The closed-community table ([`crate::communities`]), filled by
    /// queries. A clone shares it; every `&mut self` method swaps in an
    /// empty one before it mutates, so no entry outlives its epoch.
    communities: Arc<RwLock<CommunityTable>>,
    n: usize,
}

impl ShardedCpIndex {
    /// Builds the facade only: one bucketing pass over the (shared)
    /// profiles into per-label member lists. O(Σ|T(v)|), allocation
    /// per populated label only — no CL-tree is constructed and no
    /// profile is copied; shards materialize on first probe.
    pub fn build(
        graph: Arc<Graph>,
        tax: &Taxonomy,
        profiles: Arc<Vec<PTree>>,
    ) -> Result<ShardedCpIndex> {
        if graph.num_vertices() != profiles.len() {
            return Err(IndexError::ProfileCountMismatch {
                vertices: graph.num_vertices(),
                profiles: profiles.len(),
            });
        }
        let mut members_of: Vec<Vec<VertexId>> = vec![Vec::new(); tax.len()];
        for (v, p) in profiles.iter().enumerate() {
            for &l in p.nodes() {
                match members_of.get_mut(l as usize) {
                    Some(list) => list.push(v as VertexId),
                    None => return Err(IndexError::UnknownLabel(l)),
                }
            }
        }
        let n = graph.num_vertices();
        Ok(ShardedCpIndex {
            graph: GraphHandle::ready(graph),
            slots: (0..members_of.len()).map(|_| OnceLock::new()).collect(),
            source_live: vec![false; members_of.len()],
            members_of: members_of.into_iter().map(MemberSlot::resident).collect(),
            profiles: ProfilesHandle::dense(profiles),
            member_source: None,
            source: None,
            global_cores: None,
            communities: Arc::default(),
            n,
        })
    }

    /// [`build`](Self::build) over copies of borrowed inputs, with every
    /// shard materialized (sequentially) before returning — the
    /// one-call form for reproduction harnesses and tests that hold
    /// plain `&Graph` / `&[PTree]`.
    pub fn build_resident(
        graph: &Graph,
        tax: &Taxonomy,
        profiles: &[PTree],
    ) -> Result<ShardedCpIndex> {
        let idx = Self::build(Arc::new(graph.clone()), tax, Arc::new(profiles.to_vec()))?;
        idx.materialize_all(1);
        Ok(idx)
    }

    /// Assembles an index from eagerly loaded (snapshot) parts: the
    /// facade arrays and the already-decoded resident shards.
    /// Re-validates the cheap structural invariants the query paths
    /// rely on; the supplied `ClTree`s are assumed structurally
    /// validated by their own `from_flat`.
    pub fn from_loaded(
        graph: Arc<Graph>,
        profiles: Arc<Vec<PTree>>,
        members_of: Vec<Vec<VertexId>>,
        resident: Vec<(LabelId, ClTree)>,
    ) -> Result<ShardedCpIndex> {
        let corrupt = |detail: String| IndexError::CorruptIndex { detail };
        let n = graph.num_vertices();
        let num_labels = members_of.len();
        if profiles.len() != n {
            return Err(corrupt(format!(
                "profiles cover {} vertices, graph has {n}",
                profiles.len()
            )));
        }
        for (label, members) in members_of.iter().enumerate() {
            if members.windows(2).any(|w| w.first() >= w.last()) {
                return Err(corrupt(format!("members of label {label} unsorted or duplicated")));
            }
            if members.last().is_some_and(|&v| v as usize >= n) {
                return Err(corrupt(format!("label {label} indexes out-of-range vertices")));
            }
        }
        let mut slots: Vec<OnceLock<Arc<IndexShard>>> =
            (0..num_labels).map(|_| OnceLock::new()).collect();
        let mut prev: Option<LabelId> = None;
        for (label, cl) in resident {
            if label as usize >= num_labels {
                return Err(corrupt(format!("resident shard label {label} out of range")));
            }
            if prev.is_some_and(|p| p >= label) {
                return Err(corrupt("resident shard labels not strictly ascending".into()));
            }
            prev = Some(label);
            if members_of.get(label as usize).map(Vec::as_slice) != Some(cl.members()) {
                return Err(corrupt(format!(
                    "shard {label} member list disagrees with the member table"
                )));
            }
            if cl.members().is_empty() {
                return Err(corrupt(format!("label {label} has a shard but no members")));
            }
            if let Some(slot) = slots.get_mut(label as usize) {
                *slot = OnceLock::from(Arc::new(IndexShard { label, cl }));
            }
        }
        Ok(ShardedCpIndex {
            graph: GraphHandle::ready(graph),
            source_live: vec![false; num_labels],
            members_of: members_of.into_iter().map(MemberSlot::resident).collect(),
            slots,
            profiles: ProfilesHandle::dense(profiles),
            member_source: None,
            source: None,
            global_cores: None,
            communities: Arc::default(),
            n,
        })
    }

    /// Assembles a facade over **lazily loaded** parts: a file-backed
    /// graph handle, file-backed profiles, the eager per-label member
    /// counts, and sources that fault in each member list and shard
    /// payload on first touch. This is the scale load path — nothing
    /// beyond the supplied counts is read here, so time-to-first-query
    /// tracks the labels the query touches, not the file size.
    ///
    /// The counts are authoritative (`member_lens[l] == 0` means
    /// unpopulated and is answered without ever consulting the
    /// source); the member lists a source later supplies must be
    /// validated by that source (checksums, sortedness, vertex range),
    /// with failures recorded in the storage layer's fault cell before
    /// it returns `None`.
    pub fn from_lazy_parts(
        graph: GraphHandle,
        profiles: ProfilesHandle,
        member_lens: Vec<usize>,
        members: Arc<dyn MemberSource>,
        shards: Option<Arc<dyn ShardSource>>,
    ) -> Result<ShardedCpIndex> {
        let n = graph.num_vertices();
        if profiles.len() != n {
            return Err(IndexError::ProfileCountMismatch { vertices: n, profiles: profiles.len() });
        }
        let num_labels = member_lens.len();
        Ok(ShardedCpIndex {
            graph,
            slots: (0..num_labels).map(|_| OnceLock::new()).collect(),
            source_live: vec![shards.is_some(); num_labels],
            members_of: member_lens.into_iter().map(MemberSlot::pending).collect(),
            profiles,
            member_source: Some(members),
            source: shards,
            global_cores: None,
            communities: Arc::default(),
            n,
        })
    }

    /// Shares the owner's per-epoch global core decomposition, so any
    /// shard covering every vertex (the root label) is assembled from
    /// it directly instead of re-peeling the whole graph. The cell
    /// must describe [`ShardedCpIndex`]'s current graph; a later
    /// [`apply_batch`](ShardedCpIndex::apply_batch) that changes the
    /// graph **drops** the cell defensively, so a caller who forgets
    /// to re-set it falls back to a correct from-graph peel rather
    /// than building the root shard on stale cores.
    pub fn set_global_cores(&mut self, cores: Arc<OnceLock<CoreDecomposition>>) {
        self.communities = Arc::default();
        self.global_cores = Some(cores);
    }

    /// The community an earlier query proved under `(k, labels)` that
    /// contains `q`, with its closed label set (see
    /// [`remember_community`](Self::remember_community)). `None` says
    /// nothing about feasibility. A poisoned table reads as empty.
    pub fn proven_community(&self, k: u32, labels: &[LabelId], q: VertexId) -> Option<Proof> {
        self.communities.read().ok()?.get(k, labels, q)
    }

    /// Records that `community` (sorted) is, at `k`, the connected
    /// k-core containing each of its members among the carriers of
    /// `labels` (sorted), and that `closed` (sorted) is every label all
    /// its members carry. Stored under both label sets.
    pub fn remember_community(
        &self,
        k: u32,
        labels: &[LabelId],
        closed: &[LabelId],
        community: &Arc<Vec<VertexId>>,
    ) {
        if let Ok(mut table) = self.communities.write() {
            table.insert(self.n, k, labels, closed, community);
        }
    }

    /// Number of vertices the index covers.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Total number of taxonomy labels (populated or not).
    pub fn num_labels(&self) -> usize {
        self.members_of.len()
    }

    /// Number of populated labels (carried by at least one vertex) —
    /// resident or not. Answered from the eager counts; never
    /// materializes a member list.
    pub fn num_populated_labels(&self) -> usize {
        self.members_of.iter().filter(|m| m.len > 0).count()
    }

    /// Member count of label `i` — always known without materializing.
    fn member_len(&self, i: usize) -> usize {
        self.members_of.get(i).map_or(0, |m| m.len)
    }

    /// The sorted member list of label `i`, materializing it through
    /// the [`MemberSource`] on first touch when the facade was loaded
    /// lazily. An unpopulated label (`len == 0`) never consults the
    /// source; a source failure materializes as empty — the source has
    /// recorded its typed fault, which the owner surfaces instead of
    /// any answer derived from the hole.
    fn members(&self, i: usize) -> &[VertexId] {
        let Some(slot) = self.members_of.get(i) else { return &[] };
        if slot.len == 0 {
            return &[];
        }
        if let Some(list) = slot.cell.get() {
            return list;
        }
        let Some(source) = &self.member_source else {
            // Unreachable by construction: eager facades materialize
            // every list at build time. Empty is the non-panicking
            // answer.
            return &[];
        };
        slot.cell.get_or_init(|| Arc::new(source.load_members(i as LabelId).unwrap_or_default()))
    }

    /// Number of currently materialized shards. Never triggers
    /// materialization (the serving observability metric).
    pub fn resident_shards(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// The shard of `label` **if already materialized** — never builds.
    pub fn shard_if_resident(&self, label: LabelId) -> Option<&IndexShard> {
        self.slots.get(label as usize)?.get().map(Arc::as_ref)
    }

    /// The shard of `label`, materializing it on first touch (`None`
    /// for unpopulated labels). Concurrent callers materializing
    /// distinct labels proceed independently; the same label is built
    /// exactly once per epoch.
    pub fn shard(&self, label: LabelId) -> Option<&IndexShard> {
        let i = label as usize;
        if self.member_len(i) == 0 {
            return None;
        }
        Some(self.slots.get(i)?.get_or_init(|| Arc::new(self.build_shard(label))))
    }

    /// Materializes every populated shard, fanning out over up to
    /// `threads` workers (work-stealing over labels: static chunking
    /// would strand the few giant labels — root, top-level areas — on
    /// one worker). Idempotent.
    pub fn materialize_all(&self, threads: usize) {
        let pending: Vec<LabelId> = self
            .members_of
            .iter()
            .zip(&self.slots)
            .enumerate()
            .filter(|(_, (m, slot))| m.len > 0 && slot.get().is_none())
            .map(|(l, _)| l as LabelId)
            .collect();
        if pending.is_empty() {
            return;
        }
        let threads = threads.max(1).min(pending.len());
        if threads == 1 {
            for &label in &pending {
                let _ = self.shard(label);
            }
            return;
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let (pending, next) = (&pending, &next);
            for _ in 0..threads {
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    let Some(&label) = pending.get(i) else { break };
                    let _ = self.shard(label);
                });
            }
        });
    }

    /// Builds (or rehydrates) one shard. Root-sized shards reuse the
    /// shared global core decomposition; everything else peels its
    /// induced subgraph.
    fn build_shard(&self, label: LabelId) -> IndexShard {
        let members: &[VertexId] = self.members(label as usize);
        if self.source_live.get(label as usize).copied().unwrap_or(false) {
            if let Some(source) = &self.source {
                if let Some(cl) = source.load_shard(label) {
                    if cl.members() == members {
                        return IndexShard { label, cl };
                    }
                }
            }
        }
        let Ok(graph) = self.graph.get() else {
            // The graph failed to materialize; its source has recorded
            // the typed fault and the owner refuses answers while it is
            // set. An edgeless stand-in keeps this path infallible —
            // the shard exists, answers nothing, and is never trusted.
            let fallback = GraphBuilder::new(self.n).build();
            return IndexShard { label, cl: ClTree::build_on_subset(&fallback, members) };
        };
        let cl = if members.len() == self.n {
            match &self.global_cores {
                Some(cell) => {
                    ClTree::build_full(graph, cell.get_or_init(|| CoreDecomposition::new(graph)))
                }
                None => ClTree::build_full(graph, &CoreDecomposition::new(graph)),
            }
        } else {
            ClTree::build_on_subset(graph, members)
        };
        IndexShard { label, cl }
    }

    /// Sorted vertices carrying `label` (empty slice when none). Never
    /// materializes a shard; on a lazily loaded facade the first call
    /// for a populated label faults its member run in.
    pub fn vertices_with_label(&self, label: LabelId) -> &[VertexId] {
        self.members(label as usize)
    }

    /// The paper's `I.get(k, q, t)` as a borrowed arena slice (the
    /// query hot path) — materializes `label`'s shard on first touch.
    /// Distinct but unsorted; `None` when the ĉore does not exist.
    #[inline]
    pub fn get_ref(&self, k: u32, q: VertexId, label: LabelId) -> Option<&[VertexId]> {
        self.shard(label)?.cl.community_ref(q, k)
    }

    /// The epoch's P-tree of `v` — the paper's "restore `T(v)` using
    /// `I.headMap`", served from the shared profiles.
    pub fn restore_ptree(&self, v: VertexId) -> PTree {
        // An out-of-range vertex (impossible for vertices of the
        // indexed graph) restores as the trivial root-only profile.
        self.profiles.get(v as usize).cloned().unwrap_or_else(PTree::root_only)
    }

    /// Applies a batch of effective graph deltas: membership tables and
    /// the profile share are always brought up to date, every touched
    /// **resident** shard is rebuilt, and **absent** shards are merely
    /// invalidated — their slot stays cold and any snapshot source for
    /// them is marked stale, so the cost of a shard nobody queried is
    /// bookkeeping, never a CL-tree build. There is no "provably
    /// unchanged" pre-check: on the benchmark corpus such a check's
    /// subcore traversal cost 6× the rebuilds it saved.
    ///
    /// `g_after` and `profiles_after` describe the graph **after** the
    /// whole batch; `deltas` lists the applied changes (no no-ops, and
    /// at most one [`GraphDelta::ProfileChanged`] per vertex). After
    /// the call the index answers exactly like a from-scratch build on
    /// the post-batch inputs, shard by shard and lazily (the
    /// differential suite in `tests/incremental_vs_rebuild.rs` enforces
    /// this).
    ///
    /// `cores_after` is the post-batch global core decomposition cell,
    /// when the owner maintains one: it replaces the previous epoch's
    /// shared cell *before* any resident full-vertex-set shard is
    /// rebuilt, so the root shard never re-peels the graph. Passing
    /// `None` drops the old cell whenever the graph changed (stale
    /// cores must never build a shard) — correctness is preserved
    /// either way, only the shortcut is lost.
    pub fn apply_batch(
        &mut self,
        g_after: &Arc<Graph>,
        profiles_after: &Arc<Vec<PTree>>,
        deltas: &[GraphDelta],
        cores_after: Option<Arc<OnceLock<CoreDecomposition>>>,
    ) -> CpPatchStats {
        debug_assert_eq!(self.n, g_after.num_vertices(), "vertex set is fixed");
        debug_assert_eq!(self.n, profiles_after.len());
        self.communities = Arc::default();
        let touch = classify_batch(&self.profiles, profiles_after, deltas);
        let mut stats = CpPatchStats::default();
        let mut rebuild: Vec<LabelId> = Vec::new();
        // Every touched label is rebuilt (resident) or invalidated
        // (absent); membership-changed labels first get their member
        // table patched in place.
        let mut touched: Vec<LabelId> =
            touch.profile_touch.union(&touch.edge_touch).copied().collect();
        touched.sort_unstable();
        stats.labels_touched = touched.len();
        let member_source = self.member_source.clone();
        for &label in &touched {
            let i = label as usize;
            // Copy-on-write: only the lists whose membership changed are
            // duplicated; every other label keeps sharing the previous
            // epoch's `Arc`. A lazily loaded list must be resident to
            // be edited, so it is faulted in first (a load failure
            // patches an empty list — the recorded fault fails queries
            // upstream, so the hole is never served).
            let members_changed = touch.profile_touch.contains(&label);
            if let Some(slot) = self.members_of.get_mut(i).filter(|_| members_changed) {
                if slot.cell.get().is_none() {
                    let loaded = if slot.len == 0 {
                        Vec::new()
                    } else {
                        member_source
                            .as_ref()
                            .and_then(|s| s.load_members(label))
                            .unwrap_or_default()
                    };
                    let _ = slot.cell.set(Arc::new(loaded));
                }
                if let Some(arc) = slot.cell.get_mut() {
                    let list = Arc::make_mut(arc);
                    touch.patch_members(label, list);
                    slot.len = list.len();
                }
            }
            if let Some(live) = self.source_live.get_mut(i) {
                *live = false;
            }
            if self.slots.get(i).is_some_and(|s| s.get().is_some()) {
                rebuild.push(label);
            } else {
                stats.labels_invalidated += 1;
            }
        }
        // Rebuild the resident invalidated shards against the new
        // graph. The graph handle must be swapped first: `build_shard`
        // reads it, and future on-demand materializations of the
        // invalidated absent shards must see the post-batch graph too.
        // A shared global-cores cell describes the *old* graph: swap
        // in the post-batch cell, or drop the stale one if the caller
        // maintains none and the graph actually changed.
        match cores_after {
            Some(cell) => self.global_cores = Some(cell),
            None => {
                // Provably the same graph (a materialized handle over
                // the same `Arc`)? Keep the cell; otherwise drop it —
                // stale cores must never build a shard.
                let same_graph = self.graph.is_materialized()
                    && self.graph.get().is_ok_and(|g| Arc::ptr_eq(g, g_after));
                if !same_graph {
                    self.global_cores = None;
                }
            }
        }
        self.graph = GraphHandle::ready(Arc::clone(g_after));
        // A label that lost its last carrier gets a cleared slot;
        // every other one a CL-tree rebuilt on the post-batch graph.
        for &label in &rebuild {
            let i = label as usize;
            stats.labels_rebuilt += 1;
            let slot = if self.member_len(i) == 0 {
                OnceLock::new()
            } else {
                OnceLock::from(Arc::new(self.build_shard(label)))
            };
            if let Some(s) = self.slots.get_mut(i) {
                *s = slot;
            }
        }
        // Swap in the post-batch profile share (one Arc clone — the
        // snapshot the engine is publishing owns the same vector).
        // `member_source` stays: a label no batch has touched still
        // has exactly its on-file member list (touched labels were
        // materialized above and their cells now shadow the source).
        self.profiles = ProfilesHandle::dense(Arc::clone(profiles_after));
        stats
    }

    /// Iterator over the currently resident shards, in ascending label
    /// order (what a snapshot save persists).
    pub fn resident_iter(&self) -> impl Iterator<Item = &IndexShard> + '_ {
        self.slots.iter().filter_map(|s| s.get().map(Arc::as_ref))
    }

    /// Approximate heap footprint in bytes: facade tables plus
    /// **resident** shards (the number that actually bounds a lazy
    /// replica's memory).
    pub fn memory_bytes(&self) -> usize {
        let mut total = 0usize;
        for shard in self.resident_iter() {
            total += shard.cl.memory_bytes();
        }
        for m in &self.members_of {
            if m.cell.get().is_some() {
                total += m.len * std::mem::size_of::<VertexId>();
            }
        }
        // The profile share is owned by the snapshot, not the index;
        // it is deliberately not counted here.
        total
    }
}

/// Deep invariant verification and the corruption hooks its mutation
/// tests seed state through. Compiled only under `debug-invariants`.
#[cfg(feature = "debug-invariants")]
impl ShardedCpIndex {
    /// Cross-checks every structural invariant the query paths rely on
    /// against the **authoritative** epoch state (`graph`, `profiles`
    /// as published by the owning snapshot — not this index's own
    /// copies, so a drifted internal share is itself a finding):
    ///
    /// * facade geometry: vertex count and label count match;
    /// * member-table ⇄ profile consistency: each label's member list
    ///   equals the sorted set of vertices whose profile carries it
    ///   (members ⊆ carrier set and nothing missing);
    /// * every resident shard: label slot agreement, member list equal
    ///   to the facade's (the CL-tree indexes exactly its carriers),
    ///   and full arena-geometry validation by round-tripping the tree
    ///   through [`ClTree::from_flat`] — laminar tiling, topological
    ///   parents, true inverse `arena_pos`, own-range placement.
    pub fn verify_deep(
        &self,
        tax: &Taxonomy,
        graph: &Graph,
        profiles: &[PTree],
    ) -> std::result::Result<(), String> {
        let n = graph.num_vertices();
        if self.n != n {
            return Err(format!("index covers {} vertices, graph has {n}", self.n));
        }
        if self.profiles.len() != n {
            return Err(format!(
                "index profile share covers {} vertices, graph has {n}",
                self.profiles.len()
            ));
        }
        if self.members_of.len() != tax.len() {
            return Err(format!(
                "member table covers {} labels, taxonomy has {}",
                self.members_of.len(),
                tax.len()
            ));
        }
        // Reference bucketing from the authoritative profiles.
        let mut expect: Vec<Vec<VertexId>> = vec![Vec::new(); tax.len()];
        for (v, p) in profiles.iter().enumerate() {
            for &l in p.nodes() {
                match expect.get_mut(l as usize) {
                    Some(list) => list.push(v as VertexId),
                    None => return Err(format!("profile of vertex {v} names unknown label {l}")),
                }
            }
        }
        for (l, want) in expect.iter().enumerate() {
            // `members(l)` materializes a lazily loaded list — the deep
            // verifier deliberately faults everything in, so a damaged
            // run (answered empty, fault recorded) is caught right here
            // as a member-table divergence.
            let mine = self.members(l);
            if mine != want.as_slice() {
                return Err(format!(
                    "member table of label {l} disagrees with the profiles \
                     ({} members recorded, {} carriers exist)",
                    mine.len(),
                    want.len()
                ));
            }
            if self.member_len(l) != want.len() {
                return Err(format!(
                    "member count hint of label {l} disagrees with its list \
                     ({} hinted, {} listed)",
                    self.member_len(l),
                    want.len()
                ));
            }
        }
        for (l, slot) in self.slots.iter().enumerate() {
            let Some(shard) = slot.get() else { continue };
            if shard.label as usize != l {
                return Err(format!("slot {l} holds a shard labelled {}", shard.label));
            }
            let table = self.members(l);
            if shard.cl.members() != table {
                return Err(format!(
                    "resident shard {l} member list diverged from the member table"
                ));
            }
            if shard.cl.members().last().is_some_and(|&v| v as usize >= n) {
                return Err(format!("resident shard {l} indexes out-of-range vertices"));
            }
            ClTree::from_flat(shard.cl.to_flat())
                .map_err(|e| format!("resident shard {l} fails structural validation: {e}"))?;
        }
        Ok(())
    }

    /// Test-only corruption hook: overwrites a label's member table
    /// with no cross-checks, desynchronizing it from the profiles so
    /// mutation tests can assert [`verify_deep`](Self::verify_deep)
    /// catches the mismatch. Never use outside those tests.
    pub fn tamper_member_table_for_test(&mut self, label: LabelId, members: Vec<VertexId>) {
        self.communities = Arc::default();
        if let Some(slot) = self.members_of.get_mut(label as usize) {
            *slot = MemberSlot::resident(members);
        }
    }

    /// Test-only corruption hook: forces a shard into a label's slot
    /// with no validation (pair with
    /// [`ClTree::from_flat_unchecked_for_test`] to plant geometry
    /// lies). Never use outside those tests.
    pub fn replace_shard_for_test(&mut self, label: LabelId, cl: ClTree) {
        self.communities = Arc::default();
        if let Some(slot) = self.slots.get_mut(label as usize) {
            *slot = OnceLock::from(Arc::new(IndexShard { label, cl }));
        }
    }
}

impl Clone for ShardedCpIndex {
    /// Shares resident shards, per-label member lists, the profile
    /// vector, the shard source and the community table (`Arc` clones
    /// throughout); nothing is deep-copied. This is the writer's
    /// clone-and-patch entry point: O(labels) pointer copies, with the
    /// patch then copy-on-writing only the touched member lists (and
    /// starting an empty community table) — cost tracks the
    /// invalidation set, not the index size.
    fn clone(&self) -> Self {
        let slots = self
            .slots
            .iter()
            .map(|slot| match slot.get() {
                Some(arc) => OnceLock::from(Arc::clone(arc)),
                None => OnceLock::new(),
            })
            .collect();
        ShardedCpIndex {
            graph: self.graph.clone(),
            members_of: self.members_of.clone(),
            slots,
            profiles: self.profiles.clone(),
            member_source: self.member_source.clone(),
            source: self.source.clone(),
            source_live: self.source_live.clone(),
            global_cores: self.global_cores.clone(),
            communities: Arc::clone(&self.communities),
            n: self.n,
        }
    }
}

impl std::fmt::Debug for ShardedCpIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCpIndex")
            .field("vertices", &self.n)
            .field("labels", &self.members_of.len())
            .field("populated", &self.num_populated_labels())
            .field("resident", &self.resident_shards())
            .field("has_source", &self.source.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_graph::DynamicGraph;

    fn figure1() -> (Arc<Graph>, Taxonomy, Vec<PTree>) {
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (0, 3),
                (0, 4),
                (1, 3),
                (1, 4),
                (3, 4),
                (1, 2),
                (2, 3),
                (4, 5),
                (5, 6),
                (5, 7),
                (6, 7),
            ],
        )
        .unwrap();
        let mut t = Taxonomy::new("r");
        let cm = t.add_child(0, "CM").unwrap();
        let is = t.add_child(0, "IS").unwrap();
        let hw = t.add_child(0, "HW").unwrap();
        let ml = t.add_child(cm, "ML").unwrap();
        let ai = t.add_child(cm, "AI").unwrap();
        let dms = t.add_child(is, "DMS").unwrap();
        let profiles = vec![
            PTree::from_labels(&t, [dms, hw]).unwrap(),
            PTree::from_labels(&t, [ml, ai]).unwrap(),
            PTree::from_labels(&t, [ml, ai, is]).unwrap(),
            PTree::from_labels(&t, [ml, ai, dms, hw]).unwrap(),
            PTree::from_labels(&t, [dms, hw]).unwrap(),
            PTree::from_labels(&t, [is, hw]).unwrap(),
            PTree::from_labels(&t, [hw, cm]).unwrap(),
            PTree::from_labels(&t, [is, hw]).unwrap(),
        ];
        (Arc::new(g), t, profiles)
    }

    fn sorted_ref(idx: &ShardedCpIndex, k: u32, q: VertexId, label: LabelId) -> Option<Vec<u32>> {
        idx.get_ref(k, q, label).map(|s| {
            let mut v = s.to_vec();
            v.sort_unstable();
            v
        })
    }

    /// The full query surface of `idx` equals that of `fresh`, a
    /// from-scratch [`ShardedCpIndex::build_resident`] on the same
    /// inputs.
    fn assert_matches_fresh(idx: &ShardedCpIndex, fresh: &ShardedCpIndex, tax: &Taxonomy) {
        assert_eq!(idx.num_vertices(), fresh.num_vertices());
        assert_eq!(idx.num_populated_labels(), fresh.num_populated_labels());
        for v in 0..idx.num_vertices() as u32 {
            assert_eq!(idx.restore_ptree(v), fresh.restore_ptree(v), "profile of {v}");
        }
        for label in 0..tax.len() as u32 {
            assert_eq!(idx.vertices_with_label(label), fresh.vertices_with_label(label));
            for q in 0..idx.num_vertices() as u32 {
                for k in 0..6 {
                    assert_eq!(
                        sorted_ref(idx, k, q, label),
                        sorted_ref(fresh, k, q, label),
                        "label={label} q={q} k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn build_validates_inputs() {
        let (g, t, mut profiles) = figure1();
        profiles.pop();
        assert_eq!(
            ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap_err(),
            IndexError::ProfileCountMismatch { vertices: 8, profiles: 7 }
        );
    }

    #[test]
    fn facade_is_cold_until_probed() {
        let (g, t, profiles) = figure1();
        let idx = ShardedCpIndex::build(g, &t, Arc::new(profiles.clone())).unwrap();
        assert_eq!(idx.resident_shards(), 0, "facade build materializes nothing");
        assert_eq!(idx.num_populated_labels(), 7);
        // Membership and profile restoration answer from the facade
        // alone — no shard is ever touched.
        assert_eq!(idx.vertices_with_label(Taxonomy::ROOT).len(), 8);
        for v in 0..8u32 {
            assert_eq!(idx.restore_ptree(v), profiles[v as usize], "vertex {v}");
        }
        assert_eq!(idx.resident_shards(), 0);
        // One probe materializes exactly one shard.
        let hw = t.id_of("HW").unwrap();
        assert!(idx.get_ref(1, 0, hw).is_some());
        assert_eq!(idx.resident_shards(), 1);
        assert!(idx.shard_if_resident(hw).is_some());
        assert!(idx.shard_if_resident(Taxonomy::ROOT).is_none());
    }

    /// Ground truth: every probe of a cold index equals the k-ĉore
    /// computed from scratch on the label's induced subgraph.
    #[test]
    fn lazy_probes_match_bruteforce_everywhere() {
        let (g, t, profiles) = figure1();
        let sharded =
            ShardedCpIndex::build(Arc::clone(&g), &t, Arc::new(profiles.clone())).unwrap();
        for label in 0..t.len() as u32 {
            let with_label: Vec<u32> =
                (0..8u32).filter(|&v| profiles[v as usize].contains(label)).collect();
            assert_eq!(sharded.vertices_with_label(label), &with_label[..]);
            let (sub, ids) = g.induced_subgraph(&with_label);
            let cd = CoreDecomposition::new(&sub);
            for q in 0..8u32 {
                for k in 0..4 {
                    // Vertices without the label are absent.
                    let expect = ids.binary_search(&q).ok().and_then(|q_local| {
                        cd.kcore_component(&sub, q_local as u32, k)
                            .map(|c| c.into_iter().map(|v| ids[v as usize]).collect::<Vec<_>>())
                    });
                    assert_eq!(
                        sorted_ref(&sharded, k, q, label),
                        expect,
                        "label={label} q={q} k={k}"
                    );
                }
            }
        }
        // After the sweep everything is resident, and probing again is
        // stable (same Arc).
        assert_eq!(sharded.resident_shards(), sharded.num_populated_labels());
        let hw = t.id_of("HW").unwrap();
        let a = sharded.get_ref(1, 0, hw).unwrap().as_ptr();
        let b = sharded.get_ref(1, 0, hw).unwrap().as_ptr();
        assert_eq!(a, b, "repeated probes borrow the same arena");
    }

    #[test]
    fn materialize_all_parallel_matches_sequential() {
        let (g, t, profiles) = figure1();
        let seq = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let sharded = ShardedCpIndex::build(g, &t, Arc::new(profiles)).unwrap();
        sharded.materialize_all(4);
        assert_eq!(sharded.resident_shards(), sharded.num_populated_labels());
        assert_matches_fresh(&sharded, &seq, &t);
        sharded.materialize_all(4); // idempotent
        assert_eq!(sharded.resident_shards(), sharded.num_populated_labels());
        assert!(sharded.memory_bytes() > 0);
    }

    #[test]
    fn nested_label_cores_shrink() {
        // I.get(k,q,t) ⊆ I.get(k,q,parent(t)) — the containment the
        // paper's verifyPtree relies on.
        let (g, t, profiles) = figure1();
        let idx = ShardedCpIndex::build(g, &t, Arc::new(profiles)).unwrap();
        for label in 1..t.len() as u32 {
            let parent = t.parent(label);
            for q in 0..8u32 {
                for k in 0..3 {
                    if let Some(child_core) = sorted_ref(&idx, k, q, label) {
                        let parent_core =
                            sorted_ref(&idx, k, q, parent).expect("parent label core must exist");
                        assert!(
                            child_core.iter().all(|v| parent_core.binary_search(v).is_ok()),
                            "label={label} q={q} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unpopulated_label_behaviour() {
        let (g, mut t, mut profiles) = figure1();
        let lonely = t.add_child(Taxonomy::ROOT, "lonely").unwrap();
        // Rebuild profiles against the grown taxonomy (ids unchanged).
        profiles = profiles
            .into_iter()
            .map(|p| PTree::from_labels(&t, p.nodes().iter().copied().skip(1)).unwrap())
            .collect();
        let idx = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        assert!(idx.shard(lonely).is_none());
        assert!(idx.get_ref(0, 0, lonely).is_none());
        assert!(idx.vertices_with_label(lonely).is_empty());
    }

    #[test]
    fn root_shard_reuses_shared_cores() {
        let (g, t, profiles) = figure1();
        let peeled = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let mut sharded = ShardedCpIndex::build(Arc::clone(&g), &t, Arc::new(profiles)).unwrap();
        let cell = Arc::new(OnceLock::new());
        cell.set(CoreDecomposition::new(&g)).unwrap();
        sharded.set_global_cores(Arc::clone(&cell));
        // 2-ĉore of D under the root label = whole graph's 2-ĉore.
        assert_eq!(
            sorted_ref(&sharded, 2, 3, Taxonomy::ROOT).unwrap(),
            vec![0, 1, 2, 3, 4, 5, 6, 7]
        );
        assert_matches_fresh(&sharded, &peeled, &t);
    }

    #[test]
    fn patch_rebuilds_resident_and_invalidates_absent() {
        let (g, t, profiles) = figure1();
        let profiles = Arc::new(profiles);
        let sharded = ShardedCpIndex::build(Arc::clone(&g), &t, Arc::clone(&profiles)).unwrap();
        // Materialize only HW; leave every other shard cold.
        let hw = t.id_of("HW").unwrap();
        assert!(sharded.get_ref(1, 0, hw).is_some());
        let mut patched = sharded.clone();
        // Add A-E: touches r, IS, DMS, HW (their shared labels).
        let mut dyn_g = DynamicGraph::from_graph(&g);
        dyn_g.add_edge(0, 4).unwrap();
        let g_after = Arc::new(dyn_g.to_graph());
        let deltas = [GraphDelta::EdgeAdded { u: 0, v: 4 }];
        let stats = patched.apply_batch(&g_after, &profiles, &deltas, None);
        assert_eq!(stats.labels_touched, 4);
        assert_eq!(stats.labels_rebuilt, 1, "only the resident HW shard was revisited");
        assert_eq!(stats.labels_invalidated, 3, "absent shards invalidated, never built");
        // Cold shards now materialize against the *new* graph; the
        // whole surface equals a from-scratch rebuild.
        let fresh = ShardedCpIndex::build_resident(&g_after, &t, &profiles).unwrap();
        assert_matches_fresh(&patched, &fresh, &t);
        // The original (pre-patch clone source) still answers pre-batch
        // state: resident shard Arcs were shared, not mutated.
        let before = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        assert_eq!(sorted_ref(&sharded, 1, 0, hw), sorted_ref(&before, 1, 0, hw));
    }

    #[test]
    fn redundant_intra_core_edge_is_rebuilt() {
        // A 4-cycle of vertices all sharing one label, plus a pendant:
        // the diagonal 1-3 joins two vertices already in the same
        // 2-ĉore and leaves every core number at 2. Both resident
        // shards it touches are still rebuilt, and match a fresh build.
        let mut t = Taxonomy::new("r");
        let a = t.add_child(Taxonomy::ROOT, "a").unwrap();
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)]).unwrap();
        let profiles: Vec<PTree> = (0..5).map(|_| PTree::from_labels(&t, [a]).unwrap()).collect();
        let mut idx = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let mut dyn_g = DynamicGraph::from_graph(&g);
        dyn_g.add_edge(1, 3).unwrap();
        let g_after = Arc::new(dyn_g.to_graph());
        let deltas = [GraphDelta::EdgeAdded { u: 1, v: 3 }];
        let stats = idx.apply_batch(&g_after, &Arc::new(profiles.clone()), &deltas, None);
        assert_eq!(stats.labels_rebuilt, 2, "root + a are both rebuilt");
        let fresh = ShardedCpIndex::build_resident(&g_after, &t, &profiles).unwrap();
        assert_matches_fresh(&idx, &fresh, &t);
    }

    #[test]
    fn profile_patch_updates_membership_without_building_cold_shards() {
        let (g, t, mut profiles) = figure1();
        let sharded =
            ShardedCpIndex::build(Arc::clone(&g), &t, Arc::new(profiles.clone())).unwrap();
        let mut patched = sharded.clone();
        let dms = t.id_of("DMS").unwrap();
        profiles[6] = PTree::from_labels(&t, [dms]).unwrap();
        let profiles = Arc::new(profiles);
        let stats =
            patched.apply_batch(&g, &profiles, &[GraphDelta::ProfileChanged { v: 6 }], None);
        assert!(stats.labels_touched > 0);
        assert_eq!(stats.labels_rebuilt, 0, "nothing was resident");
        assert_eq!(stats.labels_invalidated, stats.labels_touched);
        assert_eq!(patched.resident_shards(), 0);
        assert!(patched.vertices_with_label(dms).contains(&6));
        let fresh = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        assert_matches_fresh(&patched, &fresh, &t);
    }

    #[test]
    fn randomized_churn_with_interleaved_materialization() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x5a4d);
        for trial in 0..3 {
            let labels = 9 + trial;
            let mut tax = Taxonomy::new("r");
            let mut ids = vec![Taxonomy::ROOT];
            for i in 1..labels {
                let parent = ids[rng.gen_range(0..ids.len())];
                ids.push(tax.add_child(parent, &format!("n{i}")).unwrap());
            }
            let n = 16 + trial * 5;
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.2) {
                        edges.push((a, b));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges).unwrap();
            let mut profiles: Vec<PTree> = (0..n)
                .map(|_| {
                    let count = rng.gen_range(0..=4usize);
                    let picks: Vec<u32> =
                        (0..count).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
                    PTree::from_labels(&tax, picks).unwrap()
                })
                .collect();
            let mut dyn_g = DynamicGraph::from_graph(&g);
            let mut idx =
                ShardedCpIndex::build(Arc::new(g), &tax, Arc::new(profiles.clone())).unwrap();
            for step in 0..40 {
                // Occasionally probe a random (possibly cold) shard —
                // interleaving materialization with churn.
                if step % 3 == 0 {
                    let label = ids[rng.gen_range(0..ids.len())];
                    let q = rng.gen_range(0..n as u32);
                    let _ = idx.get_ref(rng.gen_range(0..3), q, label);
                }
                let mut deltas = Vec::new();
                let mut reprofiled: Vec<u32> = Vec::new();
                for _ in 0..rng.gen_range(1..4) {
                    match rng.gen_range(0..3) {
                        0 => {
                            let a = rng.gen_range(0..n as u32);
                            let b = rng.gen_range(0..n as u32);
                            if a != b && dyn_g.add_edge(a, b).unwrap() {
                                deltas.push(GraphDelta::EdgeAdded { u: a, v: b });
                            }
                        }
                        1 => {
                            let a = rng.gen_range(0..n as u32);
                            let b = rng.gen_range(0..n as u32);
                            if a != b && dyn_g.remove_edge(a, b).unwrap() {
                                deltas.push(GraphDelta::EdgeRemoved { u: a, v: b });
                            }
                        }
                        _ => {
                            let v = rng.gen_range(0..n as u32);
                            if reprofiled.contains(&v) {
                                continue;
                            }
                            let count = rng.gen_range(0..=4usize);
                            let picks: Vec<u32> =
                                (0..count).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
                            let p = PTree::from_labels(&tax, picks).unwrap();
                            if p != profiles[v as usize] {
                                profiles[v as usize] = p;
                                reprofiled.push(v);
                                deltas.push(GraphDelta::ProfileChanged { v });
                            }
                        }
                    }
                }
                if deltas.is_empty() {
                    continue;
                }
                let g_after = Arc::new(dyn_g.to_graph());
                idx.apply_batch(&g_after, &Arc::new(profiles.clone()), &deltas, None);
                let fresh = ShardedCpIndex::build_resident(&g_after, &tax, &profiles).unwrap();
                assert_matches_fresh(&idx, &fresh, &tax);
            }
        }
    }

    /// A `ShardSource` is advisory: valid payloads are adopted, stale
    /// or lying ones are rebuilt from the graph.
    #[test]
    fn shard_source_is_cross_checked() {
        #[derive(Debug)]
        struct FakeSource {
            good: LabelId,
            good_cl: ClTree,
            lying: LabelId,
            lying_cl: ClTree,
        }
        impl ShardSource for FakeSource {
            fn load_shard(&self, label: LabelId) -> Option<ClTree> {
                if label == self.good {
                    Some(self.good_cl.clone())
                } else if label == self.lying {
                    Some(self.lying_cl.clone())
                } else {
                    None
                }
            }
        }
        /// Serves the member table of a built facade.
        struct FakeMembers(Vec<Vec<VertexId>>);
        impl MemberSource for FakeMembers {
            fn load_members(&self, label: LabelId) -> Option<Vec<VertexId>> {
                self.0.get(label as usize).cloned()
            }
        }
        let (g, t, profiles) = figure1();
        let profiles = Arc::new(profiles);
        let full = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let hw = t.id_of("HW").unwrap();
        let dms = t.id_of("DMS").unwrap();
        let hw_cl = full.shard(hw).unwrap().cl.clone();
        let source = FakeSource {
            good: hw,
            good_cl: hw_cl.clone(),
            lying: dms,
            // Wrong member set for DMS: the CL-tree of HW's members.
            lying_cl: hw_cl,
        };
        let members: Vec<Vec<VertexId>> =
            (0..t.len() as u32).map(|l| full.vertices_with_label(l).to_vec()).collect();
        let idx = ShardedCpIndex::from_lazy_parts(
            GraphHandle::ready(Arc::clone(&g)),
            ProfilesHandle::dense(Arc::clone(&profiles)),
            members.iter().map(Vec::len).collect(),
            Arc::new(FakeMembers(members)),
            Some(Arc::new(source)),
        )
        .unwrap();
        // Both shards answer correctly: HW adopted from the source,
        // DMS rejected (member mismatch) and rebuilt from the graph.
        assert_matches_fresh(&idx, &full, &t);
    }

    #[test]
    fn from_loaded_rejects_malformed_parts() {
        let (g, t, profiles) = figure1();
        let profiles = Arc::new(profiles);
        let full = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let cl_of = |label: LabelId| full.shard(label).unwrap().cl.clone();
        let members: Vec<Vec<VertexId>> =
            (0..t.len() as u32).map(|l| full.vertices_with_label(l).to_vec()).collect();
        let corrupt = |profiles: Arc<Vec<PTree>>,
                       members: Vec<Vec<VertexId>>,
                       resident: Vec<(LabelId, ClTree)>| {
            assert!(matches!(
                ShardedCpIndex::from_loaded(Arc::clone(&g), profiles, members, resident),
                Err(IndexError::CorruptIndex { .. })
            ));
        };
        // Short profile vector.
        corrupt(Arc::new(profiles[..7].to_vec()), members.clone(), Vec::new());
        // Unsorted members.
        let mut bad = members.clone();
        bad[0].swap(0, 1);
        corrupt(Arc::clone(&profiles), bad, Vec::new());
        // Out-of-range member.
        let mut bad = members.clone();
        bad[0].push(99);
        corrupt(Arc::clone(&profiles), bad, Vec::new());
        // Resident shard whose members disagree with the table.
        let hw = t.id_of("HW").unwrap();
        let dms = t.id_of("DMS").unwrap();
        corrupt(Arc::clone(&profiles), members.clone(), vec![(dms, cl_of(hw))]);
        // Out-of-order resident labels (dms > hw, so hw-after-dms is
        // a descending pair).
        corrupt(Arc::clone(&profiles), members.clone(), vec![(dms, cl_of(dms)), (hw, cl_of(hw))]);
    }
}

//! The one snapshot reader: decode META + directories eagerly, fault
//! everything else in on first touch — or drain it all before returning.
//!
//! Over a [`FileSnapshot`], [`open_lazy`] decodes only the **small,
//! structural** parts of a file up front — META, TAXONOMY, CORES
//! (structure), the `PROFILES` chunk directory, and the `INDEX` length
//! table + shard directory — and returns handles whose payloads
//! materialize on demand:
//!
//! * the graph decodes (and is count-pinned against META, plus the
//!   deferred `core ≤ degree` pin) on its first adjacency access;
//! * each profile chunk reads, checksums, and parses on the first
//!   `get(v)` that lands in it;
//! * each index member run reads and checksums on the first
//!   `vertices_with_label` for its label;
//! * each shard payload reads, checksums, and decodes on its first
//!   probe.
//!
//! [`load_eager`] is the same readers drained: every container checksum
//! verified, every chunk, member run and shard decoded through the
//! readers' fallible methods, the cross-section pins run on the result,
//! and the file closed — all before it returns.
//!
//! **Fault discipline.** The hot-path traits these handles implement
//! ([`GraphSource`], [`ProfileSource`], [`MemberSource`],
//! [`ShardSource`]) are infallible or stringly-typed by design. Every
//! lazy reader here therefore records the first typed [`StoreError`]
//! in a shared [`FaultCell`] *before* surfacing the failure through
//! the trait; the owning engine checks the cell after every query and
//! returns the typed error instead of the answer. Damage in a range a
//! query never touches costs nothing; damage in a range it does touch
//! yields a typed error — never a silently wrong community. The one
//! deliberate exception is a shard payload: behind [`open_lazy`] a
//! damaged shard is simply "not available" and the index rebuilds it
//! from the graph, which is correct ([`load_eager`] reports it typed).

use crate::codec::{
    decode_cl, decode_cores_payload, decode_meta_payload, decode_taxonomy_payload, member_sum_seed,
    parse_profile_chunk, pin_cores_against_graph, pin_members_against_profiles, section,
    shard_sum_seed, ProfileChunkDir, SnapshotMeta,
};
use crate::format::{xxh64, Result, SectionReader, StoreError};
use crate::source::FileSnapshot;
use pcs_graph::{Graph, GraphHandle, GraphSource, VertexId};
use pcs_index::{ClTree, MemberSource, ShardSource, ShardedCpIndex};
use pcs_ptree::{LabelId, PTree, ProfileSource, ProfilesHandle, Taxonomy};
use std::sync::{Arc, OnceLock};

fn corrupt(section: u32, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt { section, detail: detail.into() }
}

/// The shared first-fault register of one lazy load: every lazy reader
/// of the same snapshot records the first typed [`StoreError`] it hits
/// here, *before* reporting the failure through its infallible trait.
/// Cheap to clone (all clones share the cell); write-once — the first
/// fault is the one that explains everything downstream of it.
#[derive(Clone, Debug, Default)]
pub struct FaultCell {
    cell: Arc<OnceLock<StoreError>>,
}

impl FaultCell {
    /// A fresh, unset cell.
    pub fn new() -> FaultCell {
        FaultCell::default()
    }

    /// Records `err` if no fault is recorded yet.
    pub fn record(&self, err: &StoreError) {
        let _ = self.cell.set(err.clone());
    }

    /// The first recorded fault, if any.
    pub fn get(&self) -> Option<StoreError> {
        self.cell.get().cloned()
    }
}

/// The lazily decodable parts of the `INDEX` section: eager member
/// counts plus on-demand member-run and shard-payload readers.
pub struct LazyIndexParts {
    /// Per label, the member count (from the eagerly validated length
    /// table) — enough for the facade to answer "unpopulated" without
    /// any further read.
    pub member_lens: Vec<usize>,
    /// Faults in one label's (checksummed) member run per call.
    pub members: Arc<dyn MemberSource>,
    /// Faults in one shard's (checksummed) payload per call.
    pub shards: Arc<dyn ShardSource>,
}

impl std::fmt::Debug for LazyIndexParts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyIndexParts")
            .field("labels", &self.member_lens.len())
            .field("populated", &self.member_lens.iter().filter(|&&l| l > 0).count())
            .finish()
    }
}

/// Everything [`open_lazy`] decodes or defers: the eager small parts
/// plus lazy handles over the big ones, all sharing one [`FaultCell`]
/// and one [`FileSnapshot`] (whose
/// [`bytes_read`](FileSnapshot::bytes_read) counter prices the load).
#[derive(Debug)]
pub struct LazySnapshot {
    /// The decoded `META` section.
    pub meta: SnapshotMeta,
    /// The taxonomy (eager — every query needs it).
    pub tax: Taxonomy,
    /// Core numbers, structure-validated; the `core ≤ degree` pin runs
    /// when the graph materializes.
    pub cores: Option<Arc<Vec<u32>>>,
    /// The graph, deferred to first adjacency access.
    pub graph: GraphHandle,
    /// Per-vertex P-trees, deferred per chunk.
    pub profiles: ProfilesHandle,
    /// The index parts, when the file carries an `INDEX` section and
    /// the caller asked for it.
    pub index: Option<LazyIndexParts>,
    /// The shared first-fault register.
    pub fault: FaultCell,
    /// The backing file (shared by every lazy reader above).
    pub source: Arc<FileSnapshot>,
}

/// The concrete readers over one open file, before [`open_lazy`] hides
/// them behind the hot-path traits or [`load_eager`] drains them.
struct Readers {
    meta: SnapshotMeta,
    tax: Taxonomy,
    cores: Option<Arc<Vec<u32>>>,
    graph: LazyGraphSource,
    profiles: LazyProfileStore,
    index: Option<(LazyMemberStore, LazyShardReader)>,
    fault: FaultCell,
}

/// Everything read here is structural: META, TAXONOMY, CORES, the
/// profile chunk directory, and the index length table + shard
/// directory — a few bytes per label/chunk, not per vertex or edge.
fn open_readers(src: &Arc<FileSnapshot>) -> Result<Readers> {
    let require = |id: u32| -> Result<&[u8]> {
        src.section(id)?.ok_or(StoreError::MissingSection { section: id })
    };
    let meta = decode_meta_payload(require(section::META)?)?;
    let tax = decode_taxonomy_payload(require(section::TAXONOMY)?, &meta)?;
    let cores = match src.section(section::CORES)? {
        Some(payload) => Some(Arc::new(decode_cores_payload(payload, meta.n, meta.narrow)?)),
        None => None,
    };
    // The graph and profiles must exist (their absence is corruption,
    // caught now); their payloads stay on disk.
    if src.section_len(section::GRAPH).is_none() {
        return Err(StoreError::MissingSection { section: section::GRAPH });
    }
    let profiles_len = src
        .section_len(section::PROFILES)
        .ok_or(StoreError::MissingSection { section: section::PROFILES })?;

    let fault = FaultCell::new();
    let graph =
        LazyGraphSource { src: Arc::clone(src), meta, cores: cores.clone(), fault: fault.clone() };

    // Profile chunk directory: first the 24-byte header (for the chunk
    // count), then the full prefix through the shared validator.
    let head = src.read_range(section::PROFILES, 0, 24)?;
    let num_chunks = {
        let mut r = SectionReader::new(&head, section::PROFILES);
        let _count = r.u64()?;
        let _chunk_size = r.u64()?;
        r.usize64()?
    };
    let dir_bytes = num_chunks
        .checked_mul(24)
        .and_then(|d| d.checked_add(24))
        .and_then(|d| u64::try_from(d).ok())
        .ok_or_else(|| corrupt(section::PROFILES, "chunk directory length overflows"))?;
    let prefix = src.read_range(section::PROFILES, 0, dir_bytes)?;
    let dir = ProfileChunkDir::parse(&prefix, meta.n, profiles_len)?;
    let chunks = dir.entries.iter().map(|_| OnceLock::new()).collect();
    let profiles = LazyProfileStore {
        src: Arc::clone(src),
        tax: tax.clone(),
        dir,
        narrow: meta.narrow,
        chunks,
        dense: OnceLock::new(),
        fault: fault.clone(),
    };

    let index = match src.section_len(section::INDEX) {
        Some(index_len) => Some(open_lazy_index(src, &meta, &tax, index_len, &fault)?),
        None => None,
    };

    Ok(Readers { meta, tax, cores, graph, profiles, index, fault })
}

/// Opens the lazy view over a validated [`FileSnapshot`] (whose open
/// already rejected any other format version). `index` is `None`
/// exactly when the file carries no `INDEX` section.
pub fn open_lazy(src: Arc<FileSnapshot>) -> Result<LazySnapshot> {
    let Readers { meta, tax, cores, graph, profiles, index, fault } = open_readers(&src)?;
    Ok(LazySnapshot {
        meta,
        tax,
        cores,
        graph: GraphHandle::lazy(Arc::new(graph), meta.n, meta.m),
        profiles: ProfilesHandle::lazy(Arc::new(profiles)),
        index: index.map(|(members, shards)| LazyIndexParts {
            member_lens: members.lens.iter().map(|&l| l as usize).collect(),
            members: Arc::new(members),
            shards: Arc::new(shards),
        }),
        fault,
        source: src,
    })
}

/// A fully decoded snapshot: everything an engine needs to warm-start.
#[derive(Debug)]
pub struct SnapshotContents {
    /// The epoch the source engine was at when saved.
    pub epoch: u64,
    /// The host graph (structurally validated on decode).
    pub graph: Arc<Graph>,
    /// The GP-tree.
    pub tax: Taxonomy,
    /// Per-vertex P-trees.
    pub profiles: Arc<Vec<PTree>>,
    /// Core numbers, when the source snapshot had them computed.
    pub cores: Option<Vec<u32>>,
    /// The sharded index, when the source snapshot had a facade built
    /// (the persisted shards resident; the rest rebuild on demand).
    pub index: Option<ShardedCpIndex>,
}

/// [`open_lazy`] drained: reads, verifies and decodes the whole file
/// before returning, then drops it — the result holds no file handle
/// and no lazy reader.
///
/// Validation layers, cheapest first: every container checksum is
/// verified up front, so any damaged byte names its section (later
/// range reads are served from that verified cache); the readers then
/// prove *structure* (graph CSR invariants, taxonomy shape, P-tree
/// closure, CL-tree arena invariants, the interior per-chunk / per-run
/// / per-shard checksums) and *cross-section agreement* (counts line
/// up, core numbers fit their degrees, the index member table is
/// exactly the carrier sets of the profile section's P-trees, and every
/// shard's member list is its label's row of that table). Anything that
/// fails maps to a typed [`StoreError`] — including a bad shard payload,
/// which the lazy view would silently rebuild — so a decoded snapshot
/// is safe to serve from.
pub fn load_eager(src: Arc<FileSnapshot>) -> Result<SnapshotContents> {
    for id in src.section_ids() {
        src.section(id)?;
    }
    let Readers { meta, tax, cores, graph, profiles: store, index, .. } = open_readers(&src)?;
    let graph = Arc::new(graph.load()?);
    let mut profiles = Vec::with_capacity(meta.n);
    for i in 0..store.dir.entries.len() {
        profiles.extend(store.load_chunk(i)?.into_vec());
    }
    let profiles = Arc::new(profiles);
    let index = match index {
        None => None,
        Some((members, shards)) => {
            let mut members_of = Vec::with_capacity(members.lens.len());
            for label in 0..members.lens.len() {
                let label = LabelId::try_from(label)
                    .map_err(|_| corrupt(section::INDEX, "label count overflows u32"))?;
                members_of.push(members.load(label)?);
            }
            pin_members_against_profiles(&members_of, &profiles)?;
            let mut resident = Vec::with_capacity(shards.entries.len());
            for &entry in &shards.entries {
                resident.push((entry.label, shards.decode(entry)?));
            }
            // `from_loaded` pins every shard's member list to its
            // label's row of the member table.
            let idx = ShardedCpIndex::from_loaded(
                Arc::clone(&graph),
                Arc::clone(&profiles),
                members_of,
                resident,
            );
            Some(idx.map_err(|e| corrupt(section::INDEX, e.to_string()))?)
        }
    };
    Ok(SnapshotContents {
        epoch: meta.epoch,
        graph,
        tax,
        profiles,
        cores: cores.map(Arc::unwrap_or_clone),
        index,
    })
}

/// Eagerly reads and validates the structural prefix of the `INDEX`
/// section — dimensions, member length table (+ per-label checksum
/// list), shard directory — and wires up the member/shard readers.
/// The deferred checks (member run checksums, sortedness, vertex
/// range, shard payload decode) run per label at fault time; the
/// member ⇄ profile carrier pin is [`load_eager`]'s at load time and
/// `verify_deep`'s under [`open_lazy`].
fn open_lazy_index(
    src: &Arc<FileSnapshot>,
    meta: &SnapshotMeta,
    tax: &Taxonomy,
    section_len: u64,
    fault: &FaultCell,
) -> Result<(LazyMemberStore, LazyShardReader)> {
    let bad = |detail: &str| corrupt(section::INDEX, detail);
    let dims = src.read_range(section::INDEX, 0, 16)?;
    let (idx_n, idx_labels) = {
        let mut r = SectionReader::new(&dims, section::INDEX);
        let n = r.usize64()?;
        let labels = r.usize64()?;
        (n, labels)
    };
    if idx_n != meta.n || idx_labels != tax.len() {
        return Err(bad("index dimensions disagree with graph/taxonomy"));
    }
    let num_labels = idx_labels;
    let table_bytes = num_labels
        .checked_mul(12)
        .and_then(|b| b.checked_add(8))
        .and_then(|b| u64::try_from(b).ok())
        .ok_or_else(|| bad("member length table overflows"))?;
    let table = src.read_range(section::INDEX, 16, table_bytes)?;
    let mut r = SectionReader::new(&table, section::INDEX);
    let lens = r.u32_vec(num_labels)?;
    let mut sums = Vec::with_capacity(num_labels);
    for _ in 0..num_labels {
        sums.push(r.u64()?);
    }
    let total = r.u64()?;
    r.finish()?;
    if lens.iter().map(|&l| u64::from(l)).sum::<u64>() != total {
        return Err(bad("member-table lengths disagree with the total"));
    }
    let id_width: u64 = if meta.narrow { 2 } else { 4 };
    let members_base = 16 + table_bytes;
    // Per-label byte offsets of the member runs (prefix sums).
    let mut run_offs = Vec::with_capacity(num_labels);
    let mut off = 0u64;
    for &len in &lens {
        run_offs.push(off);
        off = off
            .checked_add(u64::from(len).wrapping_mul(id_width))
            .ok_or_else(|| bad("member runs overflow"))?;
    }
    let dir_base = members_base.checked_add(off).ok_or_else(|| bad("member runs overflow"))?;
    let count_buf = src.read_range(section::INDEX, dir_base, 8)?;
    let shard_count = {
        let mut r = SectionReader::new(&count_buf, section::INDEX);
        let c = r.usize64()?;
        r.finish()?;
        c
    };
    if shard_count > num_labels {
        return Err(bad("more shards than labels"));
    }
    let dir_bytes = shard_count
        .checked_mul(28)
        .and_then(|b| b.checked_add(8))
        .and_then(|b| u64::try_from(b).ok())
        .ok_or_else(|| bad("shard directory overflows"))?;
    let dir_start = dir_base.checked_add(8).ok_or_else(|| bad("shard directory overflows"))?;
    let dir_buf = src.read_range(section::INDEX, dir_start, dir_bytes)?;
    let mut r = SectionReader::new(&dir_buf, section::INDEX);
    let mut entries: Vec<ShardEntry> = Vec::with_capacity(shard_count);
    let mut prev: Option<LabelId> = None;
    let mut expect_off = 0u64;
    for _ in 0..shard_count {
        let label = r.u32()?;
        let off = r.u64()?;
        let len = r.u64()?;
        let sum = r.u64()?;
        let populated =
            usize::try_from(label).ok().and_then(|i| lens.get(i)).is_some_and(|&l| l > 0);
        if usize::try_from(label).ok().is_none_or(|i| i >= num_labels) {
            return Err(bad("shard label out of range"));
        }
        if prev.is_some_and(|p| p >= label) {
            return Err(bad("shard labels not strictly ascending"));
        }
        prev = Some(label);
        if !populated {
            return Err(bad("shard for an unpopulated label"));
        }
        if off != expect_off {
            return Err(bad("shard payload does not tile"));
        }
        expect_off = off.checked_add(len).ok_or_else(|| bad("shard payload length overflows"))?;
        entries.push(ShardEntry { label, off, len, sum });
    }
    let blob_len = r.u64()?;
    r.finish()?;
    if expect_off != blob_len {
        return Err(bad("shard directory does not cover the blob"));
    }
    let blob_base =
        dir_start.checked_add(dir_bytes).ok_or_else(|| bad("shard directory overflows"))?;
    if blob_base.checked_add(blob_len) != Some(section_len) {
        return Err(bad("shard blob does not end the section"));
    }
    let members = LazyMemberStore {
        src: Arc::clone(src),
        lens,
        sums,
        run_offs,
        members_base,
        narrow: meta.narrow,
        n: meta.n,
        fault: fault.clone(),
    };
    let shards = LazyShardReader { src: Arc::clone(src), entries, blob_base, narrow: meta.narrow };
    Ok((members, shards))
}

/// Decodes the `GRAPH` section on first adjacency access, running the
/// deferred `core ≤ degree` pin against the eagerly decoded cores.
struct LazyGraphSource {
    src: Arc<FileSnapshot>,
    meta: SnapshotMeta,
    cores: Option<Arc<Vec<u32>>>,
    fault: FaultCell,
}

impl LazyGraphSource {
    fn load(&self) -> Result<Graph> {
        let payload = self
            .src
            .section(section::GRAPH)?
            .ok_or(StoreError::MissingSection { section: section::GRAPH })?;
        let graph = crate::codec::decode_graph_payload(payload, &self.meta)?;
        if let Some(cores) = &self.cores {
            pin_cores_against_graph(cores, &graph)?;
        }
        Ok(graph)
    }
}

impl GraphSource for LazyGraphSource {
    fn load_graph(&self) -> std::result::Result<Graph, String> {
        self.load().map_err(|e| {
            self.fault.record(&e);
            e.to_string()
        })
    }
}

/// Per-chunk lazy P-tree storage over the chunked `PROFILES`
/// layout. Each chunk is read with one positioned range read, verified
/// against its directory checksum, parsed, and cached.
pub struct LazyProfileStore {
    src: Arc<FileSnapshot>,
    tax: Taxonomy,
    dir: ProfileChunkDir,
    narrow: bool,
    /// Per chunk: parsed trees, or `None` when the chunk's bytes were
    /// damaged (typed fault recorded first).
    chunks: Vec<OnceLock<Option<Box<[PTree]>>>>,
    dense: OnceLock<Arc<Vec<PTree>>>,
    fault: FaultCell,
}

impl LazyProfileStore {
    fn load_chunk(&self, i: usize) -> Result<Box<[PTree]>> {
        let &(off, len, sum) = self
            .dir
            .entries
            .get(i)
            .ok_or_else(|| corrupt(section::PROFILES, "chunk index out of range"))?;
        let at = self
            .dir
            .data_base
            .checked_add(off)
            .ok_or_else(|| corrupt(section::PROFILES, "chunk offset overflows"))?;
        let bytes = self.src.read_range(section::PROFILES, at, len)?;
        let base = i.saturating_mul(self.dir.chunk_size);
        let chunk_index =
            u64::try_from(i).map_err(|_| corrupt(section::PROFILES, "chunk index overflows"))?;
        let parsed = parse_profile_chunk(
            &bytes,
            chunk_index,
            sum,
            self.dir.chunk_vertices(i),
            base,
            &self.tax,
            self.narrow,
        )?;
        Ok(parsed.into_boxed_slice())
    }

    fn chunk(&self, i: usize) -> Option<&[PTree]> {
        let slot = self.chunks.get(i)?;
        slot.get_or_init(|| match self.load_chunk(i) {
            Ok(chunk) => Some(chunk),
            Err(e) => {
                self.fault.record(&e);
                None
            }
        })
        .as_deref()
    }
}

impl ProfileSource for LazyProfileStore {
    fn len(&self) -> usize {
        self.dir.count
    }

    fn get(&self, v: usize) -> Option<&PTree> {
        if v >= self.dir.count || self.dir.chunk_size == 0 {
            return None;
        }
        let ci = v / self.dir.chunk_size;
        self.chunk(ci)?.get(v % self.dir.chunk_size)
    }

    fn fault(&self) -> Option<String> {
        self.fault.get().map(|e| e.to_string())
    }

    fn materialize(&self) -> std::result::Result<Arc<Vec<PTree>>, String> {
        if let Some(dense) = self.dense.get() {
            return Ok(Arc::clone(dense));
        }
        let mut all = Vec::with_capacity(self.dir.count);
        for i in 0..self.chunks.len() {
            match self.chunk(i) {
                Some(chunk) => all.extend(chunk.iter().cloned()),
                None => {
                    return Err(self
                        .fault
                        .get()
                        .map_or_else(|| "profile chunk unavailable".into(), |e| e.to_string()))
                }
            }
        }
        let arc = self.dense.get_or_init(|| Arc::new(all));
        Ok(Arc::clone(arc))
    }

    fn dense(&self) -> Option<&[PTree]> {
        self.dense.get().map(|d| d.as_slice())
    }
}

impl std::fmt::Debug for LazyProfileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyProfileStore")
            .field("vertices", &self.dir.count)
            .field("chunks", &self.chunks.len())
            .field("resident", &self.chunks.iter().filter(|c| c.get().is_some()).count())
            .finish()
    }
}

/// Per-label lazy member-run reader over the `INDEX` member table.
/// Authoritative (see [`MemberSource`]) — so every run is verified
/// against its per-label checksum and the structural invariants before
/// it is served, and any failure poisons the fault cell.
struct LazyMemberStore {
    src: Arc<FileSnapshot>,
    lens: Vec<u32>,
    sums: Vec<u64>,
    run_offs: Vec<u64>,
    members_base: u64,
    narrow: bool,
    n: usize,
    fault: FaultCell,
}

impl LazyMemberStore {
    fn load(&self, label: LabelId) -> Result<Vec<VertexId>> {
        let bad = |detail: &str| corrupt(section::INDEX, detail);
        let i = usize::try_from(label).map_err(|_| bad("label exceeds address space"))?;
        let len = self.lens.get(i).copied().ok_or_else(|| bad("label out of range"))?;
        let off = self.run_offs.get(i).copied().ok_or_else(|| bad("label out of range"))?;
        let stored = self.sums.get(i).copied().ok_or_else(|| bad("label out of range"))?;
        let id_width: u64 = if self.narrow { 2 } else { 4 };
        let at = self.members_base.checked_add(off).ok_or_else(|| bad("member run overflows"))?;
        let run_len = u64::from(len).wrapping_mul(id_width);
        let bytes = self.src.read_range(section::INDEX, at, run_len)?;
        let actual = xxh64(&bytes, member_sum_seed(label));
        if actual != stored {
            return Err(StoreError::ChecksumMismatch {
                section: section::INDEX,
                expected: stored,
                actual,
            });
        }
        let mut r = SectionReader::new(&bytes, section::INDEX);
        let members = r.id_vec(len as usize, self.narrow)?;
        r.finish()?;
        if members.windows(2).any(|w| w.first() >= w.last()) {
            return Err(bad("member run unsorted"));
        }
        if members.last().is_some_and(|&v| v as usize >= self.n) {
            return Err(bad("member run indexes out-of-range vertices"));
        }
        Ok(members)
    }
}

impl MemberSource for LazyMemberStore {
    fn load_members(&self, label: LabelId) -> Option<Vec<VertexId>> {
        match self.load(label) {
            Ok(members) => Some(members),
            Err(e) => {
                self.fault.record(&e);
                None
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ShardEntry {
    label: LabelId,
    off: u64,
    len: u64,
    sum: u64,
}

/// File-backed shard supplier: one positioned range read + checksum +
/// structural decode per shard. Advisory (see [`ShardSource`]): any
/// failure is "not available" and the index rebuilds from the graph,
/// so a damaged payload costs time, never correctness — no fault is
/// recorded.
struct LazyShardReader {
    src: Arc<FileSnapshot>,
    entries: Vec<ShardEntry>,
    blob_base: u64,
    narrow: bool,
}

impl LazyShardReader {
    fn decode(&self, entry: ShardEntry) -> Result<ClTree> {
        let at = self
            .blob_base
            .checked_add(entry.off)
            .ok_or_else(|| corrupt(section::INDEX, "shard extent overflows"))?;
        let bytes = self.src.read_range(section::INDEX, at, entry.len)?;
        let actual = xxh64(&bytes, shard_sum_seed(entry.label));
        if actual != entry.sum {
            return Err(StoreError::ChecksumMismatch {
                section: section::INDEX,
                expected: entry.sum,
                actual,
            });
        }
        let mut r = SectionReader::new(&bytes, section::INDEX);
        let flat = decode_cl(&mut r, self.narrow)?;
        r.finish()?;
        ClTree::from_flat(flat).map_err(|e| corrupt(section::INDEX, e.to_string()))
    }
}

impl ShardSource for LazyShardReader {
    fn load_shard(&self, label: LabelId) -> Option<ClTree> {
        let i = self.entries.binary_search_by_key(&label, |e| e.label).ok()?;
        self.decode(self.entries.get(i).copied()?).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{section, write_snapshot};
    use pcs_graph::core::CoreDecomposition;
    use pcs_index::ShardedCpIndex;
    use std::path::PathBuf;

    fn fixture() -> (Graph, Taxonomy, Vec<PTree>) {
        let mut tax = Taxonomy::new("r");
        let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
        let b = tax.add_child(a, "b").unwrap();
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]).unwrap();
        let profiles = vec![
            PTree::from_labels(&tax, [a]).unwrap(),
            PTree::from_labels(&tax, [b]).unwrap(),
            PTree::from_labels(&tax, [b]).unwrap(),
            PTree::from_labels(&tax, [a, b]).unwrap(),
            PTree::from_labels(&tax, [a]).unwrap(),
            PTree::root_only(),
        ];
        (g, tax, profiles)
    }

    fn write_fixture(tag: &str) -> (PathBuf, Graph, Taxonomy, Vec<PTree>) {
        let dir = std::env::temp_dir().join(format!("pcs_lazy_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.pcs");
        let (g, tax, profiles) = fixture();
        let cores = CoreDecomposition::new(&g);
        let idx = ShardedCpIndex::build_resident(&g, &tax, &profiles).unwrap();
        write_snapshot(&path, 7, &g, &tax, &profiles, Some(cores.core_numbers()), Some(&idx))
            .unwrap();
        (path, g, tax, profiles)
    }

    /// File offset of section `id`'s payload, from the raw section table.
    fn section_offset(bytes: &[u8], id: u32) -> usize {
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let at = (0..count)
            .map(|i| 24 + 32 * i)
            .find(|&at| bytes[at..at + 4] == id.to_le_bytes())
            .expect("section present");
        u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize
    }

    fn cleanup(path: &std::path::Path) {
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn open_lazy_reads_structure_only_then_faults_in_exactly_what_is_touched() {
        let (path, g, tax, profiles) = write_fixture("structure");
        let src = Arc::new(FileSnapshot::open(&path).unwrap());
        let file_len = src.file_len();
        let snap = open_lazy(Arc::clone(&src)).unwrap();
        assert_eq!(snap.meta.epoch, 7);
        assert_eq!(snap.meta.n, 6);
        assert_eq!(snap.tax.len(), tax.len());
        assert!(!snap.graph.is_materialized());
        // The GRAPH payload stays untouched by open (the fixture is
        // tiny, so the structural prefix dominates the *file*; the
        // scale-proportional <10% pin lives in the bench suite).
        assert!(!src.section_resident(section::GRAPH), "open must not read the graph payload");
        let structural = src.bytes_read();
        assert!(structural < file_len, "structural prefix must not cover the whole file");
        // Graph faults in once, equal to the source, cores pinned.
        let graph = snap.graph.get().unwrap();
        assert_eq!(graph.as_ref(), &g);
        // One profile touch faults one chunk (here: the only chunk).
        assert_eq!(snap.profiles.get(3), profiles.get(3));
        assert_eq!(snap.profiles.len(), 6);
        // Member lens answer populated/unpopulated without reads.
        let idx = snap.index.as_ref().unwrap();
        assert_eq!(idx.member_lens.len(), tax.len());
        assert_eq!(idx.member_lens[0], 6, "root is carried by everyone");
        // Member run loads, sorted and verified.
        let root_members = idx.members.load_members(0).unwrap();
        assert_eq!(root_members, vec![0, 1, 2, 3, 4, 5]);
        // Shard payload decodes to the same members.
        let cl = idx.shards.load_shard(0).unwrap();
        assert_eq!(cl.members(), root_members.as_slice());
        assert!(snap.fault.get().is_none());
        cleanup(&path);
    }

    #[test]
    fn damaged_profile_chunk_poisons_the_fault_cell_on_first_touch() {
        let (path, _g, _tax, _profiles) = write_fixture("chunkdmg");
        // Find the PROFILES payload and flip a byte inside the data
        // area (past the 24-byte header + one 24-byte chunk dir entry).
        let pristine = std::fs::read(&path).unwrap();
        let target = section_offset(&pristine, section::PROFILES) + 48 + 3;
        let mut bytes = pristine.clone();
        bytes[target] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let src = Arc::new(FileSnapshot::open(&path).unwrap());
        let snap = open_lazy(src).unwrap();
        // The damage sits in a deferred range: open succeeded.
        assert!(snap.fault.get().is_none());
        // First touch of the chunk: None + typed fault recorded.
        assert_eq!(snap.profiles.get(0), None);
        assert!(matches!(
            snap.fault.get(),
            Some(StoreError::ChecksumMismatch { section: section::PROFILES, .. })
        ));
        assert!(snap.profiles.fault().is_some());
        cleanup(&path);
    }

    #[test]
    fn damaged_member_run_poisons_and_damaged_shard_rebuilds() {
        let (path, _g, tax, _profiles) = write_fixture("memdmg");
        let pristine = std::fs::read(&path).unwrap();
        let base = section_offset(&pristine, section::INDEX);
        let num_labels = tax.len();
        // Flip one byte inside the root label's member run.
        let members_base = 16 + 12 * num_labels + 8;
        let mut bytes = pristine.clone();
        bytes[base + members_base + 1] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let src = Arc::new(FileSnapshot::open(&path).unwrap());
        let snap = open_lazy(src).unwrap();
        let idx = snap.index.as_ref().unwrap();
        assert_eq!(idx.members.load_members(0), None, "damaged run refuses to load");
        assert!(matches!(
            snap.fault.get(),
            Some(StoreError::ChecksumMismatch { section: section::INDEX, .. })
        ));
        // A damaged *shard payload* is merely unavailable (rebuild
        // path), no poison: flip a blob byte in a fresh copy. The
        // fixture has 6 vertices, so ids are narrow (2 bytes each).
        let total: usize = (0..num_labels)
            .map(|l| {
                let at = base + 16 + 4 * l;
                u32::from_le_bytes(pristine[at..at + 4].try_into().unwrap()) as usize
            })
            .sum();
        let mut bytes = pristine.clone();
        let dir_base = base + members_base + total * 2;
        let shard_count =
            u64::from_le_bytes(bytes[dir_base..dir_base + 8].try_into().unwrap()) as usize;
        let blob_base = dir_base + 8 + 28 * shard_count + 8;
        bytes[blob_base + 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let src3 = Arc::new(FileSnapshot::open(&path).unwrap());
        let snap3 = open_lazy(src3).unwrap();
        let idx3 = snap3.index.as_ref().unwrap();
        assert!(idx3.shards.load_shard(0).is_none(), "damaged shard is unavailable");
        assert!(snap3.fault.get().is_none(), "shard damage does not poison (rebuild is correct)");
        cleanup(&path);
    }
}

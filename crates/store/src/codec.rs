//! Section encodings: engine state ⇄ flat little-endian payloads.
//!
//! Every section is a sequence of length-prefixed flat arrays — the
//! load path is *validate-then-bulk-copy*: checksums prove the bytes
//! are what the writer produced, structural validation (each
//! component's `from_*` constructor) proves the arrays describe a legal
//! value, and the arrays themselves are adopted wholesale rather than
//! decoded element by element. This module holds the encoders behind
//! [`write_snapshot`] and the per-section decoders and cross-section
//! pins; [`crate::lazy`] is the one reader that drives them over a
//! [`FileSnapshot`](crate::FileSnapshot).
//!
//! | id | section | contents |
//! |---|---|---|
//! | 1 | `META` | epoch, vertex/edge/label counts (cross-checked) |
//! | 2 | `GRAPH` | CSR offsets (u64) + neighbor array (u32) |
//! | 3 | `TAXONOMY` | parent array + length-prefixed label names |
//! | 4 | `PROFILES` | per-vertex node counts + flat label array |
//! | 5 | `CORES` | per-vertex core numbers (optional section) |
//! | 6 | `INDEX` | the CP-tree index (optional) |
//!
//! ## The INDEX section
//!
//! No head map (the `PROFILES` section already carries every `T(v)`
//! and the index shares it by `Arc`) — just the full per-label **member
//! table** with per-label checksums, then a **shard directory** (label,
//! offset, length, checksum into a trailing payload blob) holding only
//! the shards that were *resident* when the engine saved. Shards absent
//! from the file (or invalidated later) are rebuilt from the graph on
//! demand; [`crate::lazy`] reads this layout range by range.

use crate::format::{Result, SectionReader, SectionWriter, StoreError};
use pcs_graph::{Graph, VertexId};
use pcs_index::{ClTreeFlat, ShardedCpIndex};
use pcs_ptree::{LabelId, PTree, ProfileLoader, Taxonomy};

/// Vertices per `PROFILES` chunk. Each chunk is
/// independently checksummed, so a lazy loader faults in
/// `PROFILE_CHUNK` profiles per touch; the value trades directory
/// overhead (24 bytes per chunk) against read amplification on
/// scattered access.
pub const PROFILE_CHUNK: usize = 1024;

/// Seed for the `PROFILES` chunk checksums: chunk `i` is hashed
/// under a seed that encodes both the section id and the chunk index,
/// so a chunk can never validate in another chunk's position.
#[inline]
pub fn profile_chunk_seed(chunk: u64) -> u64 {
    (u64::from(section::PROFILES) << 32) ^ chunk
}

/// Seed for the `INDEX` per-label member checksums (hashed over the
/// raw wire bytes of that label's member run).
#[inline]
pub fn member_sum_seed(label: LabelId) -> u64 {
    (u64::from(section::INDEX) << 32) ^ u64::from(label)
}

/// Seed for an `INDEX` shard-payload checksum: distinct from both the
/// section seed and [`member_sum_seed`] (high bit set), and bound to the
/// shard's label so one shard's payload cannot answer for another's.
pub fn shard_sum_seed(label: LabelId) -> u64 {
    (1u64 << 63) | ((u64::from(section::INDEX) << 32) ^ u64::from(label))
}

/// Well-known section ids (see the module table).
pub mod section {
    /// Epoch and cross-checked counts.
    pub const META: u32 = 1;
    /// The CSR graph.
    pub const GRAPH: u32 = 2;
    /// The GP-tree.
    pub const TAXONOMY: u32 = 3;
    /// Per-vertex P-trees.
    pub const PROFILES: u32 = 4;
    /// Core numbers (optional).
    pub const CORES: u32 = 5;
    /// The sharded CP-tree index (optional).
    pub const INDEX: u32 = 6;
}

fn corrupt(section: u32, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt { section, detail: detail.into() }
}

/// Streams one engine snapshot straight to `path` through a
/// [`SnapshotWriter`](crate::format::SnapshotWriter) (which owns the
/// atomicity and durability contract): each section is encoded,
/// written, and dropped before the next is built, so saving never
/// holds more than one section's payload in memory.
///
/// `cores` and `index` are optional: pass whatever the source snapshot
/// has already materialized. Only the index's **resident** shards are
/// persisted — the member table covers every populated label, so a
/// loader can rebuild the rest on demand. The writer guarantees the
/// sections agree with each other — the reader re-checks the cheap
/// consistency subset on the way back in.
pub fn write_snapshot(
    path: impl AsRef<std::path::Path>,
    epoch: u64,
    graph: &Graph,
    tax: &Taxonomy,
    profiles: &[PTree],
    cores: Option<&[u32]>,
    index: Option<&ShardedCpIndex>,
) -> Result<()> {
    let narrow = narrow_width(graph, tax);
    let count = 4 + u32::from(cores.is_some()) + u32::from(index.is_some());
    let mut w = crate::format::SnapshotWriter::create(path, count)?;
    // One section payload alive at a time; each drops before the next
    // is built.
    w.put_section(section::META, &encode_meta(epoch, graph, tax, narrow))?;
    w.put_section(section::GRAPH, &encode_graph(graph, narrow))?;
    w.put_section(section::TAXONOMY, &encode_taxonomy(tax, narrow))?;
    w.put_section(section::PROFILES, &encode_profiles_chunked(profiles, narrow))?;
    if let Some(core) = cores {
        w.put_section(section::CORES, &encode_cores(core, narrow))?;
    }
    if let Some(idx) = index {
        w.put_section(section::INDEX, &encode_index(idx, narrow))?;
    }
    w.finish()
}

/// Narrow (two-byte) id width whenever every id-like value fits:
/// vertex ids, label ids, and everything bounded by them (core levels,
/// arena offsets, CL-node ids). `u16::MAX` stays reserved as the
/// widened `u32::MAX` sentinel.
fn narrow_width(graph: &Graph, tax: &Taxonomy) -> bool {
    graph.num_vertices() < u16::MAX as usize && tax.len() < u16::MAX as usize
}

/// Encode-side checked narrowing to the u32 wire width. Overflow is a
/// writer contract violation (ids and per-entity list lengths are bounded
/// by u32 vertex/label counts); failing loudly beats serializing a
/// checksum-valid lie — the same policy as [`SectionWriter::put_id_slice`].
fn wire_u32(x: usize, what: &str) -> u32 {
    #[expect(
        clippy::panic,
        reason = "writer contract — a wrapped length would serialize a checksum-valid corrupt file"
    )]
    u32::try_from(x).unwrap_or_else(|_| panic!("{what} {x} overflows the u32 wire width"))
}

fn encode_meta(epoch: u64, graph: &Graph, tax: &Taxonomy, narrow: bool) -> Vec<u8> {
    let mut meta = SectionWriter::new();
    meta.put_u64(epoch);
    meta.put_u64(graph.num_vertices() as u64);
    meta.put_u64(graph.num_edges() as u64);
    meta.put_u64(tax.len() as u64);
    meta.put_u64(narrow as u64);
    meta.finish()
}

fn encode_graph(graph: &Graph, narrow: bool) -> Vec<u8> {
    let mut g = SectionWriter::new();
    g.put_u64(graph.num_vertices() as u64);
    g.put_usize_slice_as_u64(graph.csr_offsets());
    g.put_u64(graph.csr_neighbors().len() as u64);
    g.put_id_slice(graph.csr_neighbors(), narrow);
    g.finish()
}

fn encode_taxonomy(tax: &Taxonomy, narrow: bool) -> Vec<u8> {
    let mut t = SectionWriter::new();
    t.put_u64(tax.len() as u64);
    t.put_id_slice(tax.parents(), narrow);
    for name in tax.label_names() {
        t.put_u32(wire_u32(name.len(), "label name length"));
        t.put_bytes(name.as_bytes());
    }
    t.finish()
}

/// The `PROFILES` layout: the vertex range is cut into
/// [`PROFILE_CHUNK`]-sized chunks, each a self-contained
/// lens/total/ids block with its own checksum, listed in a directory
/// up front:
///
/// ```text
/// count u64 | chunk_size u64 | num_chunks u64
/// directory: { data_off u64, data_len u64, xxh64 u64 } × num_chunks
/// data area: chunk 0 bytes, chunk 1 bytes, ...
/// ```
///
/// Offsets are relative to the data area and must tile it exactly. A
/// lazy loader reads the 24-byte header + directory, then faults in
/// (and verifies) one chunk per [`PROFILE_CHUNK`] vertices touched.
fn encode_profiles_chunked(profiles: &[PTree], narrow: bool) -> Vec<u8> {
    let mut p = SectionWriter::new();
    p.put_u64(profiles.len() as u64);
    p.put_u64(PROFILE_CHUNK as u64);
    let num_chunks = profiles.len().div_ceil(PROFILE_CHUNK);
    p.put_u64(num_chunks as u64);
    let mut dir: Vec<(u64, u64, u64)> = Vec::with_capacity(num_chunks);
    let mut data = SectionWriter::new();
    let mut at = 0u64;
    for (i, chunk) in profiles.chunks(PROFILE_CHUNK).enumerate() {
        let mut c = SectionWriter::new();
        for profile in chunk {
            c.put_u32(wire_u32(profile.nodes().len(), "profile length"));
        }
        let total: usize = chunk.iter().map(|pr| pr.nodes().len()).sum();
        c.put_u64(total as u64);
        for profile in chunk {
            c.put_id_slice(profile.nodes(), narrow);
        }
        let bytes = c.finish();
        let sum = crate::format::xxh64(&bytes, profile_chunk_seed(i as u64));
        dir.push((at, bytes.len() as u64, sum));
        at += bytes.len() as u64;
        data.put_bytes(&bytes);
    }
    for (off, len, sum) in dir {
        p.put_u64(off);
        p.put_u64(len);
        p.put_u64(sum);
    }
    p.put_bytes(&data.finish());
    p.finish()
}

fn encode_cores(core: &[u32], narrow: bool) -> Vec<u8> {
    let mut c = SectionWriter::new();
    c.put_u64(core.len() as u64);
    c.put_id_slice(core, narrow);
    c.finish()
}

/// One CL-tree's flat arrays (the per-shard payload).
fn encode_cl(w: &mut SectionWriter, cl: &ClTreeFlat, narrow: bool) {
    w.put_u64(cl.core.len() as u64);
    w.put_id_slice(&cl.core, narrow);
    w.put_id_slice(&cl.parent, narrow);
    w.put_id_slice(&cl.sub_off, narrow);
    w.put_id_slice(&cl.sub_len, narrow);
    w.put_id_slice(&cl.own_len, narrow);
    w.put_u64(cl.arena.len() as u64);
    w.put_id_slice(&cl.arena, narrow);
    w.put_id_slice(&cl.members, narrow);
    w.put_id_slice(&cl.node_of, narrow);
    w.put_id_slice(&cl.arena_pos, narrow);
}

pub(crate) fn decode_cl(r: &mut SectionReader<'_>, narrow: bool) -> Result<ClTreeFlat> {
    let cl_nodes = r.usize64()?;
    let cl = ClTreeFlat {
        core: r.id_vec(cl_nodes, narrow)?,
        parent: r.id_vec(cl_nodes, narrow)?,
        sub_off: r.id_vec(cl_nodes, narrow)?,
        sub_len: r.id_vec(cl_nodes, narrow)?,
        own_len: r.id_vec(cl_nodes, narrow)?,
        arena: Vec::new(),
        members: Vec::new(),
        node_of: Vec::new(),
        arena_pos: Vec::new(),
    };
    let members = r.usize64()?;
    Ok(ClTreeFlat {
        arena: r.id_vec(members, narrow)?,
        members: r.id_vec(members, narrow)?,
        node_of: r.id_vec(members, narrow)?,
        arena_pos: r.id_vec(members, narrow)?,
        ..cl
    })
}

/// `INDEX`: the full member table, then a shard directory over a
/// trailing blob holding only the resident shards' payloads (no head
/// map — `T(v)` lives in the `PROFILES` section). Serialized one
/// shard at a time — saving never holds a second copy of the whole
/// index in memory. A per-label checksum of each label's raw
/// member-run bytes follows the length table, and each directory entry
/// carries a checksum of its shard payload — so a lazy loader can
/// fault in and verify one label's members or one shard without
/// reading the whole section.
fn encode_index(idx: &ShardedCpIndex, narrow: bool) -> Vec<u8> {
    let n = idx.num_vertices();
    let num_labels = wire_u32(idx.num_labels(), "label count");
    let mut w = SectionWriter::new();
    w.put_u64(n as u64);
    w.put_u64(u64::from(num_labels));
    for label in 0..num_labels {
        w.put_u32(wire_u32(idx.vertices_with_label(label).len(), "member list length"));
    }
    for label in 0..num_labels {
        let mut run = SectionWriter::new();
        run.put_id_slice(idx.vertices_with_label(label), narrow);
        w.put_u64(crate::format::xxh64(&run.finish(), member_sum_seed(label)));
    }
    let total: usize = (0..num_labels).map(|l| idx.vertices_with_label(l).len()).sum();
    w.put_u64(total as u64);
    for label in 0..num_labels {
        w.put_id_slice(idx.vertices_with_label(label), narrow);
    }
    // Directory + blob: encode each resident shard once, recording its
    // (offset, len, checksum) run inside the blob.
    let mut blob = SectionWriter::new();
    let mut directory: Vec<(LabelId, u64, u64, u64)> = Vec::new();
    let mut at = 0u64;
    for shard in idx.resident_iter() {
        let mut sw = SectionWriter::new();
        encode_cl(&mut sw, &shard.cl.to_flat(), narrow);
        let payload = sw.finish();
        let sum = crate::format::xxh64(&payload, shard_sum_seed(shard.label));
        directory.push((shard.label, at, payload.len() as u64, sum));
        at += payload.len() as u64;
        blob.put_bytes(&payload);
    }
    let blob = blob.finish();
    w.put_u64(directory.len() as u64);
    for (label, off, len, sum) in directory {
        w.put_u32(label);
        w.put_u64(off);
        w.put_u64(len);
        w.put_u64(sum);
    }
    w.put_u64(blob.len() as u64);
    w.put_bytes(&blob);
    w.finish()
}

/// The decoded `META` section: the counts every other section is
/// checked against, available without touching anything else. The lazy
/// loader reads this first and sizes its handles from it.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotMeta {
    /// Source engine's epoch at save time.
    pub epoch: u64,
    /// Vertex count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Label count.
    pub labels: usize,
    /// Two-byte id width in effect.
    pub narrow: bool,
}

/// Decodes and validates the `META` section payload.
pub fn decode_meta_payload(payload: &[u8]) -> Result<SnapshotMeta> {
    let mut meta = SectionReader::new(payload, section::META);
    let epoch = meta.u64()?;
    let n = meta.usize64()?;
    let m = meta.usize64()?;
    let labels = meta.usize64()?;
    let narrow = match meta.u64()? {
        0 => false,
        1 => true,
        other => return Err(corrupt(section::META, format!("unknown flags {other}"))),
    };
    if narrow && (n >= u16::MAX as usize || labels >= u16::MAX as usize) {
        return Err(corrupt(section::META, "narrow id width cannot hold the declared counts"));
    }
    meta.finish()?;
    Ok(SnapshotMeta { epoch, n, m, labels, narrow })
}

/// Decodes the `GRAPH` section payload into a structurally validated
/// CSR graph, pinned against the META counts.
pub fn decode_graph_payload(payload: &[u8], meta: &SnapshotMeta) -> Result<Graph> {
    let mut g = SectionReader::new(payload, section::GRAPH);
    let n = g.usize64()?;
    if n != meta.n {
        return Err(corrupt(section::GRAPH, "vertex count disagrees with META"));
    }
    let offsets = g.usize_vec_from_u64(
        n.checked_add(1).ok_or_else(|| corrupt(section::GRAPH, "vertex count overflows"))?,
    )?;
    let nbr_len = g.usize64()?;
    let neighbors: Vec<VertexId> = g.id_vec(nbr_len, meta.narrow)?;
    g.finish()?;
    let graph =
        Graph::from_csr(offsets, neighbors).map_err(|e| corrupt(section::GRAPH, e.to_string()))?;
    if graph.num_edges() != meta.m {
        return Err(corrupt(section::GRAPH, "edge count disagrees with META"));
    }
    Ok(graph)
}

/// Decodes the `TAXONOMY` section payload, pinned against META's label
/// count.
pub fn decode_taxonomy_payload(payload: &[u8], meta: &SnapshotMeta) -> Result<Taxonomy> {
    let mut t = SectionReader::new(payload, section::TAXONOMY);
    let labels_len = t.usize64()?;
    if labels_len != meta.labels {
        return Err(corrupt(section::TAXONOMY, "label count disagrees with META"));
    }
    let parents = t.id_vec(labels_len, meta.narrow)?;
    let mut names = Vec::with_capacity(labels_len);
    for _ in 0..labels_len {
        let len = t.u32()? as usize;
        let raw = t.bytes(len)?;
        names.push(
            String::from_utf8(raw.to_vec())
                .map_err(|_| corrupt(section::TAXONOMY, "label name is not UTF-8"))?,
        );
    }
    t.finish()?;
    Taxonomy::from_parts(names, parents).map_err(|e| corrupt(section::TAXONOMY, e.to_string()))
}

/// Decodes the `CORES` section payload (structure only — the
/// `core ≤ degree` pin is [`pin_cores_against_graph`], split out so a
/// lazy loader can defer it to graph materialization).
pub fn decode_cores_payload(payload: &[u8], n: usize, narrow: bool) -> Result<Vec<u32>> {
    let mut c = SectionReader::new(payload, section::CORES);
    let count = c.usize64()?;
    if count != n {
        return Err(corrupt(section::CORES, "core count disagrees with the graph"));
    }
    let core = c.id_vec(count, narrow)?;
    c.finish()?;
    Ok(core)
}

/// A vertex's core number can never exceed its degree — the cheap
/// sanity bound that catches a cores section paired with the wrong
/// graph.
pub fn pin_cores_against_graph(core: &[u32], graph: &Graph) -> Result<()> {
    for (v, &k) in core.iter().enumerate() {
        let vid = VertexId::try_from(v)
            .map_err(|_| corrupt(section::CORES, "vertex count overflows u32"))?;
        if k as usize > graph.degree(vid) {
            return Err(corrupt(
                section::CORES,
                format!("core number {k} of vertex {v} exceeds its degree"),
            ));
        }
    }
    Ok(())
}

/// Parses one lens/flat run into P-trees, appending to `out`.
/// `base` is the id of the run's first vertex (for error messages).
fn parse_profile_run(
    lens: &[u32],
    flat: &[u32],
    tax: &Taxonomy,
    loader: &mut ProfileLoader,
    base: usize,
    out: &mut Vec<PTree>,
) -> Result<()> {
    let mut rest = flat;
    for (i, &len) in lens.iter().enumerate() {
        // The sum-vs-total check upstream makes this splittable by
        // construction; the checked split keeps the decoder
        // structurally panic-free.
        let (nodes, tail) = rest
            .split_at_checked(len as usize)
            .ok_or_else(|| corrupt(section::PROFILES, "per-profile lengths overrun the data"))?;
        rest = tail;
        out.push(loader.ptree(tax, nodes.to_vec()).map_err(|_| {
            corrupt(
                section::PROFILES,
                format!("profile of vertex {} is not a valid P-tree", base + i),
            )
        })?);
    }
    Ok(())
}

/// The parsed header + directory of the chunked `PROFILES` section:
/// everything a lazy loader needs before faulting in any chunk.
/// `data_base` is the byte offset of the data area within the section
/// payload; directory offsets are relative to it and tile it exactly
/// (validated here, so a `read_range` against a directory entry is
/// always in bounds).
#[derive(Debug, Clone)]
pub struct ProfileChunkDir {
    /// Vertex count.
    pub count: usize,
    /// Vertices per chunk (last chunk may be short).
    pub chunk_size: usize,
    /// Per chunk: `(data_off, data_len, xxh64)`.
    pub entries: Vec<(u64, u64, u64)>,
    /// Byte offset of the data area within the section payload.
    pub data_base: u64,
    /// Total data-area length in bytes.
    pub data_len: u64,
}

impl ProfileChunkDir {
    /// Parses and validates the header + directory prefix of a
    /// `PROFILES` payload. `prefix` needs to hold at least the first
    /// `24 + 24 × num_chunks` bytes; `section_len` is the full payload
    /// length (for the tiling check).
    pub fn parse(prefix: &[u8], n: usize, section_len: u64) -> Result<ProfileChunkDir> {
        let mut r = SectionReader::new(prefix, section::PROFILES);
        let count = r.usize64()?;
        if count != n {
            return Err(corrupt(section::PROFILES, "profile count disagrees with the graph"));
        }
        let chunk_size = r.usize64()?;
        // The writer always emits [`PROFILE_CHUNK`]; anything else is
        // damage. Pinning the exact value (not just non-zero) keeps
        // every directory byte observable under the lazy path, where
        // the whole-section checksum is never computed.
        if chunk_size != PROFILE_CHUNK {
            return Err(corrupt(section::PROFILES, "unexpected profile chunk size"));
        }
        let num_chunks = r.usize64()?;
        if num_chunks != count.div_ceil(chunk_size) {
            return Err(corrupt(section::PROFILES, "chunk count disagrees with the vertex count"));
        }
        let data_base = (24u64).wrapping_add(24 * num_chunks as u64);
        let Some(data_len) = section_len.checked_sub(data_base) else {
            return Err(corrupt(section::PROFILES, "chunk directory overruns the section"));
        };
        let mut entries = Vec::with_capacity(num_chunks);
        let mut expect_off = 0u64;
        for _ in 0..num_chunks {
            let off = r.u64()?;
            let len = r.u64()?;
            let sum = r.u64()?;
            if off != expect_off {
                return Err(corrupt(section::PROFILES, "profile chunks do not tile"));
            }
            expect_off = off
                .checked_add(len)
                .ok_or_else(|| corrupt(section::PROFILES, "profile chunk length overflows"))?;
            entries.push((off, len, sum));
        }
        if expect_off != data_len {
            return Err(corrupt(section::PROFILES, "chunk directory does not cover the data area"));
        }
        Ok(ProfileChunkDir { count, chunk_size, entries, data_base, data_len })
    }

    /// The number of vertices chunk `i` holds.
    pub fn chunk_vertices(&self, i: usize) -> usize {
        let start = i.saturating_mul(self.chunk_size);
        self.count.saturating_sub(start).min(self.chunk_size)
    }
}

/// Verifies and parses one profile chunk's bytes into P-trees.
/// `expect` is the vertex count of the chunk, `base` its first vertex.
pub fn parse_profile_chunk(
    bytes: &[u8],
    chunk_index: u64,
    stored_sum: u64,
    expect: usize,
    base: usize,
    tax: &Taxonomy,
    narrow: bool,
) -> Result<Vec<PTree>> {
    let sum = crate::format::xxh64(bytes, profile_chunk_seed(chunk_index));
    if sum != stored_sum {
        return Err(StoreError::ChecksumMismatch {
            section: section::PROFILES,
            expected: stored_sum,
            actual: sum,
        });
    }
    let mut r = SectionReader::new(bytes, section::PROFILES);
    let lens = r.u32_vec(expect)?;
    let total = r.usize64()?;
    if lens.iter().map(|&l| l as u64).sum::<u64>() != total as u64 {
        return Err(corrupt(section::PROFILES, "per-profile lengths disagree with the total"));
    }
    let flat = r.id_vec(total, narrow)?;
    r.finish()?;
    let mut out = Vec::with_capacity(expect);
    let mut loader = ProfileLoader::new(tax);
    parse_profile_run(&lens, &flat, tax, &mut loader, base, &mut out)?;
    Ok(out)
}

/// Cross-section pin: the `INDEX` member table must be exactly the
/// carrier sets of the `PROFILES` section. Every listed member must
/// carry the label, and the grand totals must agree — since member
/// lists are strictly sorted (no duplicates), containment plus equal
/// counts forces equality.
pub(crate) fn pin_members_against_profiles(
    members_of: &[Vec<VertexId>],
    profiles: &[PTree],
) -> Result<()> {
    let total: usize = members_of.iter().map(Vec::len).sum();
    let carried_total: usize = profiles.iter().map(PTree::len).sum();
    if total != carried_total {
        return Err(corrupt(
            section::INDEX,
            format!("member table lists {total} carriers, profiles imply {carried_total}"),
        ));
    }
    for (label, members) in members_of.iter().enumerate() {
        let label = LabelId::try_from(label)
            .map_err(|_| corrupt(section::INDEX, "label count overflows u32"))?;
        for &v in members {
            let carries = profiles.get(v as usize).is_some_and(|p| p.contains(label));
            if !carries {
                return Err(corrupt(
                    section::INDEX,
                    format!("vertex {v} listed under label {label} it does not carry"),
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::SnapshotWriter;
    use crate::lazy::{load_eager, SnapshotContents};
    use crate::FileSnapshot;
    use pcs_graph::core::CoreDecomposition;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pcs_codec_{}_{tag}.pcs", std::process::id()))
    }

    /// Reads `path` through the one reader, fully drained, and removes it.
    fn load(path: &Path) -> Result<SnapshotContents> {
        let contents = FileSnapshot::open(path).and_then(|f| load_eager(Arc::new(f)));
        std::fs::remove_file(path).unwrap();
        contents
    }

    fn tiny() -> (Graph, Taxonomy, Vec<PTree>) {
        let mut tax = Taxonomy::new("r");
        let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
        let b = tax.add_child(a, "b").unwrap();
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let profiles = vec![
            PTree::from_labels(&tax, [a]).unwrap(),
            PTree::from_labels(&tax, [b]).unwrap(),
            PTree::from_labels(&tax, [a, b]).unwrap(),
            PTree::root_only(),
            PTree::root_only(), // isolated vertex 4
        ];
        (g, tax, profiles)
    }

    fn sharded(g: &Graph, tax: &Taxonomy, profiles: &[PTree]) -> ShardedCpIndex {
        ShardedCpIndex::build_resident(g, tax, profiles).unwrap()
    }

    fn assert_index_matches(decoded: &ShardedCpIndex, idx: &ShardedCpIndex, tax: &Taxonomy) {
        for label in 0..tax.len() as u32 {
            assert_eq!(
                decoded.vertices_with_label(label),
                idx.vertices_with_label(label),
                "members of {label}"
            );
        }
        assert_eq!(decoded.resident_shards(), idx.resident_shards());
        for shard in decoded.resident_iter() {
            let want = idx.shard_if_resident(shard.label).expect("persisted shard resident");
            assert_eq!(shard.cl.to_flat(), want.cl.to_flat(), "shard {}", shard.label);
        }
    }

    #[test]
    fn full_round_trip_through_bytes() {
        let (g, tax, profiles) = tiny();
        let cores = CoreDecomposition::new(&g);
        let index = sharded(&g, &tax, &profiles);
        let path = tmp("full");
        write_snapshot(&path, 42, &g, &tax, &profiles, Some(cores.core_numbers()), Some(&index))
            .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[8..12], crate::format::FORMAT_VERSION.to_le_bytes());
        let contents = load(&path).expect("decodes");
        assert_eq!(contents.epoch, 42);
        assert_eq!(contents.graph.as_ref(), &g);
        assert_eq!(contents.tax.label_names(), tax.label_names());
        assert_eq!(contents.tax.parents(), tax.parents());
        assert_eq!(contents.profiles.as_ref(), &profiles);
        assert_eq!(contents.cores.as_deref(), Some(cores.core_numbers()));
        assert_index_matches(&contents.index.expect("index section present"), &index, &tax);
    }

    /// A partially resident index persists only its resident shards;
    /// the member table still covers every populated label.
    #[test]
    fn partial_residency_round_trips() {
        let (g, tax, profiles) = tiny();
        let index =
            ShardedCpIndex::build(Arc::new(g.clone()), &tax, Arc::new(profiles.clone())).unwrap();
        let a = tax.id_of("a").unwrap();
        assert!(index.get_ref(0, 0, a).is_some(), "materialize exactly one shard");
        assert_eq!(index.resident_shards(), 1);
        let path = tmp("partial");
        write_snapshot(&path, 0, &g, &tax, &profiles, None, Some(&index)).unwrap();
        let decoded = load(&path).unwrap().index.unwrap();
        assert_index_matches(&decoded, &index, &tax);
        assert_eq!(decoded.vertices_with_label(0).len(), 5, "root members present without a shard");
    }

    /// Graphs too large for two-byte ids take the wide path; both
    /// widths must round-trip.
    #[test]
    fn wide_mode_round_trips() {
        let n = u16::MAX as usize + 10;
        let mut tax = Taxonomy::new("r");
        let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
        let edges: Vec<(u32, u32)> = (0..200u32).map(|i| (i, u16::MAX as u32 + i % 10)).collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let mut profiles = vec![PTree::root_only(); n];
        profiles[n - 1] = PTree::from_labels(&tax, [a]).unwrap();
        let cores = CoreDecomposition::new(&g);
        let index = sharded(&g, &tax, &profiles);
        let path = tmp("wide");
        write_snapshot(&path, 7, &g, &tax, &profiles, Some(cores.core_numbers()), Some(&index))
            .unwrap();
        let contents = load(&path).unwrap();
        assert_eq!(contents.graph.as_ref(), &g);
        assert_eq!(contents.profiles.as_ref(), &profiles);
        assert_index_matches(&contents.index.unwrap(), &index, &tax);
    }

    #[test]
    fn optional_sections_really_optional() {
        let (g, tax, profiles) = tiny();
        let path = tmp("optional");
        write_snapshot(&path, 0, &g, &tax, &profiles, None, None).unwrap();
        let contents = load(&path).unwrap();
        assert!(contents.cores.is_none());
        assert!(contents.index.is_none());
    }

    #[test]
    fn missing_required_section_is_typed() {
        let (g, tax, profiles) = tiny();
        let full_path = tmp("missing_full");
        write_snapshot(&full_path, 0, &g, &tax, &profiles, None, None).unwrap();
        let full = FileSnapshot::open(&full_path).unwrap();
        for drop_id in [section::META, section::GRAPH, section::TAXONOMY, section::PROFILES] {
            let path = tmp(&format!("missing_{drop_id}"));
            let mut partial = SnapshotWriter::create(&path, 3).unwrap();
            for id in full.section_ids().into_iter().filter(|&id| id != drop_id) {
                partial.put_section(id, full.section(id).unwrap().unwrap()).unwrap();
            }
            partial.finish().unwrap();
            assert_eq!(load(&path).unwrap_err(), StoreError::MissingSection { section: drop_id });
        }
        std::fs::remove_file(&full_path).unwrap();
    }

    #[test]
    fn cross_section_disagreement_is_corrupt() {
        let (g, tax, profiles) = tiny();
        // Cores from a *different* (denser) graph exceed degrees here.
        let other = Graph::from_edges(
            5,
            &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
        )
        .unwrap();
        let wrong_cores = CoreDecomposition::new(&other);
        let path = tmp("wrong_cores");
        write_snapshot(&path, 0, &g, &tax, &profiles, Some(wrong_cores.core_numbers()), None)
            .unwrap();
        assert!(matches!(
            load(&path).unwrap_err(),
            StoreError::Corrupt { section: section::CORES, .. }
        ));
    }
}

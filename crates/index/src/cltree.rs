//! The CL-tree: nested k-ĉores as a forest over a flat DFS arena.
//!
//! Because `j-ĉore ⊆ i-ĉore` whenever `i < j`, all connected ĉores of a
//! graph form a containment forest. Each node carries a core level and
//! the vertices whose core number equals that level inside that ĉore;
//! the full vertex set of a ĉore is the node's subtree. A
//! `vertexNodeMap` (here a sorted-id lookup) places every vertex at the
//! node of its own core level, so locating the k-ĉore of a query vertex
//! is an upward walk of at most `max_core` steps.
//!
//! **Arena layout.** All member vertices live in one contiguous
//! `arena`, ordered by a DFS of the forest in which every node's own
//! vertices precede its children's subtrees. Each node records an
//! `(offset, len)` pair into the arena for its own vertices *and* for
//! its whole subtree — so the k-ĉore of `(q, k)`, which is exactly the
//! subtree of `q`'s `k`-level ancestor, is a **borrowed slice**:
//! [`ClTree::community_ref`] answers in O(depth) with zero allocation
//! and zero copying. The owned [`ClTree::get`] remains as a thin
//! sorted copy for callers that need ownership or sorted order.
//!
//! Construction follows the union-find method of Fang et al.: sweep
//! core levels from deepest to shallowest, union the newly activated
//! vertices with already-active neighbours, and make the merged deeper
//! nodes children of the freshly created level node — O(m·α(n)) total.
//! Levels are one counting-sorted array; the sweep reads only up-edges
//! (neighbours of core ≥ the vertex's), one `find` each; each root's
//! built nodes form an intrusive list; a level groups by sorting its
//! distinct roots only. A subset build costs O(members + their host
//! adjacency), with no term in the host's vertex count.

use pcs_graph::core::CoreDecomposition;
use pcs_graph::{Graph, VertexId};

use crate::{IndexError, Result};

/// Sentinel for "no parent" links inside the forest.
const NONE: u32 = u32::MAX;

/// Fallback node for out-of-range ids (impossible for ids produced by
/// this tree — `from_flat` validates every stored id): empty ranges and
/// no parent, so every derived slice is empty and every walk stops.
const EMPTY_NODE: ClNode =
    ClNode { core: 0, parent: NONE, sub_off: 0, sub_len: 0, own_len: 0, kids_off: 0, kids_len: 0 };

/// The complete persistent state of a [`ClTree`] as parallel flat
/// arrays — the wire form snapshot writers serialize section by
/// section (struct-of-arrays, so every field is one contiguous
/// `memcpy`-shaped blob).
///
/// Produced by [`ClTree::to_flat`]; consumed (and fully re-validated)
/// by [`ClTree::from_flat`]. Per-node children lists are *not* part of
/// the state: they are the inverse of `parent` and are re-derived on
/// import.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClTreeFlat {
    /// Per-node core level.
    pub core: Vec<u32>,
    /// Per-node parent id (`u32::MAX` at forest roots). Always greater
    /// than the child id when present — construction creates deeper
    /// nodes first — which is what makes upward walks cycle-free.
    pub parent: Vec<u32>,
    /// Per-node arena offset of the node's subtree.
    pub sub_off: Vec<u32>,
    /// Per-node arena length of the node's subtree.
    pub sub_len: Vec<u32>,
    /// Per-node count of own vertices at the head of the subtree range.
    pub own_len: Vec<u32>,
    /// All member vertices in DFS order (the zero-copy query arena).
    pub arena: Vec<VertexId>,
    /// Sorted member vertices, parallel with `node_of`/`arena_pos`.
    pub members: Vec<VertexId>,
    /// Forest node holding each sorted member. (Per-member core
    /// numbers are not part of the flat state: a member's core is its
    /// node's level, and [`ClTree::from_flat`] re-derives them.)
    pub node_of: Vec<u32>,
    /// Arena position of each sorted member.
    pub arena_pos: Vec<u32>,
}

/// One forest node: a connected c-ĉore, minus the deeper ĉores nested
/// inside it (those are its children). Member vertices are held by the
/// owning [`ClTree`]'s arena (see [`ClTree::node_members`] and
/// [`ClTree::subtree_members`]); child ids by its `kids` arena (see
/// [`ClTree::children`]) — a node itself is six words, so cloning or
/// loading a tree allocates per *tree*, never per node.
#[derive(Clone, Copy, Debug)]
pub struct ClNode {
    /// Core level of this node.
    pub core: u32,
    /// Parent node id, or `u32::MAX` at a forest root.
    parent: u32,
    /// Arena offset of this node's subtree (own vertices first).
    sub_off: u32,
    /// Arena length of this node's whole subtree.
    sub_len: u32,
    /// How many of the leading `sub_len` entries are this node's own
    /// vertices (those whose core number equals `core`).
    own_len: u32,
    /// Offset of this node's child ids in the owning tree's `kids`.
    kids_off: u32,
    /// Number of child ids.
    kids_len: u32,
}

impl ClNode {
    /// Parent node id, if any.
    pub fn parent(&self) -> Option<u32> {
        (self.parent != NONE).then_some(self.parent)
    }
}

/// The CL-tree of a graph or induced subgraph (a forest when the
/// underlying vertex set is disconnected). Vertex ids are always ids of
/// the *host* graph, also when the tree indexes only a subset.
#[derive(Clone, Debug)]
pub struct ClTree {
    nodes: Vec<ClNode>,
    /// All child ids, one contiguous run per node (`kids_off`/
    /// `kids_len` in [`ClNode`]).
    kids: Vec<u32>,
    /// All member vertices in DFS order: each node's own vertices
    /// (sorted), then its children's subtrees.
    arena: Vec<VertexId>,
    /// Sorted member vertices, parallel with `node_of`.
    members: Vec<VertexId>,
    /// `node_of[i]` = forest node holding `members[i]`.
    node_of: Vec<u32>,
    /// Core number of `members[i]` (within the indexed subgraph).
    core_of: Vec<u32>,
    /// `arena_pos[i]` = index of `members[i]` inside `arena`. Because a
    /// ĉore is one contiguous arena range, "is `v` in this ĉore" is a
    /// range test on `arena_pos` — O(1) after the member lookup.
    arena_pos: Vec<u32>,
}

impl ClTree {
    /// Builds the CL-tree of the whole graph.
    pub fn build(g: &Graph) -> ClTree {
        Self::build_full(g, &CoreDecomposition::new(g))
    }

    /// Builds the CL-tree of the whole graph from an **already
    /// computed** core decomposition: no induced-subgraph copy and no
    /// re-peel. This is the sharded index's fast path for the root
    /// shard (every vertex carries the taxonomy root, so its CL-tree is
    /// exactly the global one, and the serving engine already holds the
    /// epoch's decomposition).
    ///
    /// `cores` must describe `g` — a decomposition of a different graph
    /// is a caller contract violation (wrong answers, not unsafety).
    pub fn build_full(g: &Graph, cores: &CoreDecomposition) -> ClTree {
        if g.num_vertices() == 0 {
            return Self::empty();
        }
        Self::assemble(g, cores, None)
    }

    /// Builds the CL-tree of the subgraph induced by `subset`
    /// (duplicates allowed; original vertex ids are retained).
    pub fn build_on_subset(g: &Graph, subset: &[VertexId]) -> ClTree {
        Self::build_with(g, subset, &mut Vec::new())
    }

    /// [`ClTree::build_on_subset`] over a caller-held relabel map (see
    /// [`Graph::induced_subgraph_sorted`]), which a worker keeps across
    /// its builds: a shard then costs O(members + their host adjacency).
    pub(crate) fn build_with(g: &Graph, subset: &[VertexId], relabel: &mut Vec<u32>) -> ClTree {
        let mut ids = subset.to_vec();
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return Self::empty();
        }
        let sub = g.induced_subgraph_sorted(&ids, relabel);
        let cd = CoreDecomposition::new(&sub);
        Self::assemble(&sub, &cd, Some(ids))
    }

    fn empty() -> ClTree {
        ClTree {
            nodes: Vec::new(),
            kids: Vec::new(),
            arena: Vec::new(),
            members: Vec::new(),
            node_of: Vec::new(),
            core_of: Vec::new(),
            arena_pos: Vec::new(),
        }
    }

    /// The shared construction core: union-find sweep + DFS arena
    /// layout over `sub` with core numbers `cd`. `ids` maps local ids
    /// back to host ids (`None` = identity, the whole-graph path).
    /// Every buffer is sized by `sub`.
    #[expect(
        clippy::indexing_slicing,
        reason = "build-time only (never on the query path); every index is a local vertex id < n, a node id < nodes.len(), a core level ≤ max_core, or a prefix sum of counts of these"
    )]
    fn assemble(sub: &Graph, cd: &CoreDecomposition, ids: Option<Vec<VertexId>>) -> ClTree {
        /// Union-find root of `x`, with path halving; a root or a
        /// root's child (the common case) returns without a store.
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            let p = parent[x as usize];
            if parent[p as usize] == p {
                return p;
            }
            while parent[x as usize] != x {
                let gp = parent[parent[x as usize] as usize];
                parent[x as usize] = gp;
                x = gp;
            }
            x
        }
        let n = sub.num_vertices();
        let core = cd.core_numbers();
        let to_host = |v: u32| ids.as_ref().map_or(v, |ids| ids[v as usize]);
        let levels = cd.max_core() as usize + 1;

        // Vertices bucketed by core level in one counting sort: level
        // `c` is `by_level[level_off[c]..level_off[c + 1]]`, ascending.
        let mut level_off = vec![0u32; levels + 1];
        for &c in core {
            level_off[c as usize + 1] += 1;
        }
        for c in 0..levels {
            level_off[c + 1] += level_off[c];
        }
        let mut by_level = vec![0u32; n];
        let mut cursor = level_off.clone();
        for (v, &c) in core.iter().enumerate() {
            by_level[cursor[c as usize] as usize] = v as u32;
            cursor[c as usize] += 1;
        }

        // Union by size (ties keep the first argument's root).
        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut size = vec![1u32; n];
        // Each component's maximal built nodes, as an intrusive list
        // keyed by the component's current root (`head`/`tail` per
        // root, `next` per node), so a union appends in O(1).
        let (mut head, mut tail, mut next) = (vec![NONE; n], vec![NONE; n], Vec::new());
        let mut nodes: Vec<ClNode> = Vec::new();
        // Child ids, one run per node, appended when the node is made
        // (its children are final then, and ids ascend).
        let mut kids: Vec<u32> = Vec::new();
        // Own vertices (local ids), one run per node in creation order.
        let mut own = vec![0u32; n];
        // Grouping scratch: `count[r]` counts this level's vertices under
        // root `r` (0 between levels), then places them.
        let mut count = vec![0u32; n];
        let (mut level_roots, mut roots) = (Vec::new(), Vec::new());
        let mut filled = 0u32;

        for c in (0..levels as u32).rev() {
            let level =
                &by_level[level_off[c as usize] as usize..level_off[c as usize + 1] as usize];
            // Union each vertex with its up-neighbours (core ≥ its own,
            // so active), its current root in hand: one `find` per edge.
            for &v in level {
                let mut rv = find(&mut parent, v);
                for &u in sub.neighbors(v) {
                    let ru = if core[u as usize] < c { rv } else { find(&mut parent, u) };
                    if ru == rv {
                        continue;
                    }
                    let (big, small) =
                        if size[rv as usize] >= size[ru as usize] { (rv, ru) } else { (ru, rv) };
                    parent[small as usize] = big;
                    size[big as usize] += size[small as usize];
                    let moved = std::mem::replace(&mut head[small as usize], NONE);
                    if moved != NONE {
                        match tail[big as usize] {
                            NONE => head[big as usize] = moved,
                            t => next[t as usize] = moved,
                        }
                        tail[big as usize] = tail[small as usize];
                    }
                    rv = big;
                }
            }
            // One node per distinct final root, in ascending root order,
            // holding its vertices in ascending order: only the distinct
            // roots are sorted; the vertices are placed by counting.
            level_roots.clear();
            roots.clear();
            for &v in level {
                let r = find(&mut parent, v);
                level_roots.push(r);
                if count[r as usize] == 0 {
                    roots.push(r);
                }
                count[r as usize] += 1;
            }
            roots.sort_unstable();
            for &r in &roots {
                let id = nodes.len() as u32;
                let (own_len, kids_off) = (count[r as usize], kids.len() as u32);
                count[r as usize] = filled;
                let mut ch = head[r as usize];
                while ch != NONE {
                    nodes[ch as usize].parent = id;
                    kids.push(ch);
                    ch = next[ch as usize];
                }
                (head[r as usize], tail[r as usize]) = (id, id);
                next.push(NONE);
                filled += own_len;
                let kids_len = kids.len() as u32 - kids_off;
                nodes.push(ClNode { core: c, own_len, kids_off, kids_len, ..EMPTY_NODE });
            }
            for (&v, &r) in level.iter().zip(&level_roots) {
                own[count[r as usize] as usize] = v;
                count[r as usize] += 1;
            }
            for &r in &roots {
                count[r as usize] = 0;
            }
        }

        // The DFS layout (roots in id order; each node's own vertices,
        // then its children's subtrees in `kids` order) without a stack:
        // subtree sizes bottom-up and offsets top-down, since a child's
        // id is below its parent's. Local id `v` is sorted member `v`.
        for id in 0..nodes.len() {
            let node = &mut nodes[id];
            node.sub_len += node.own_len;
            let (p, len) = (node.parent, node.sub_len);
            if p != NONE {
                nodes[p as usize].sub_len += len;
            }
        }
        let mut off = 0;
        for node in nodes.iter_mut().filter(|node| node.parent == NONE) {
            (node.sub_off, off) = (off, off + node.sub_len);
        }
        for id in (0..nodes.len()).rev() {
            let ClNode { sub_off, own_len, kids_off, kids_len, .. } = nodes[id];
            let mut off = sub_off + own_len;
            for &ch in &kids[kids_off as usize..(kids_off + kids_len) as usize] {
                (nodes[ch as usize].sub_off, off) = (off, off + nodes[ch as usize].sub_len);
            }
        }
        let (mut arena, mut arena_pos, mut node_of) = (vec![0; n], vec![0u32; n], vec![NONE; n]);
        let mut run = own.iter();
        for (id, node) in (0..).zip(&nodes) {
            for (pos, &v) in (node.sub_off..).zip(run.by_ref().take(node.own_len as usize)) {
                (arena[pos as usize], arena_pos[v as usize], node_of[v as usize]) =
                    (to_host(v), pos, id);
            }
        }
        debug_assert!(node_of.iter().all(|&x| x != NONE));

        let (core_of, members) = (core.to_vec(), ids.unwrap_or_else(|| (0..n as u32).collect()));
        ClTree { nodes, kids, arena, members, node_of, core_of, arena_pos }
    }

    /// Exports the tree's complete persistent state as flat arrays
    /// (copies; the tree itself is untouched). See [`ClTreeFlat`].
    pub fn to_flat(&self) -> ClTreeFlat {
        ClTreeFlat {
            core: self.nodes.iter().map(|n| n.core).collect(),
            parent: self.nodes.iter().map(|n| n.parent).collect(),
            sub_off: self.nodes.iter().map(|n| n.sub_off).collect(),
            sub_len: self.nodes.iter().map(|n| n.sub_len).collect(),
            own_len: self.nodes.iter().map(|n| n.own_len).collect(),
            arena: self.arena.clone(),
            members: self.members.clone(),
            node_of: self.node_of.clone(),
            arena_pos: self.arena_pos.clone(),
        }
    }

    /// Reconstructs a tree from flat arrays, validating every
    /// structural invariant the query paths rely on — a malformed input
    /// yields [`IndexError::CorruptIndex`], never a tree that could
    /// hang an upward walk or answer wrongly. O(nodes + members).
    ///
    /// Checked invariants: consistent array lengths; strictly sorted
    /// members; parent ids greater than their child's (so ancestor
    /// walks terminate) with strictly decreasing core levels upward;
    /// subtree ranges inside the arena, with `own_len ≤ sub_len`, and
    /// a **laminar arena geometry** — every node's children exactly
    /// tile the tail of its range after the own-vertex prefix, and the
    /// roots exactly tile the whole arena, so no slice a query can
    /// return ever overlaps a sibling ĉore; `arena_pos` a true inverse
    /// (`arena[arena_pos[i]] == members[i]`, hence a permutation);
    /// every member located inside its own node's own-vertex range.
    /// Per-member core numbers are derived (`core[node_of[i]]`), not
    /// trusted.
    #[expect(
        clippy::indexing_slicing,
        reason = "this function IS the validator guarding the query path — all array lengths are cross-checked at entry and every id is range-checked before the first indexed use; a checked rewrite would obscure which line validates which invariant"
    )]
    pub fn from_flat(flat: ClTreeFlat) -> Result<ClTree> {
        let corrupt = |detail: String| IndexError::CorruptIndex { detail };
        let n_nodes = flat.core.len();
        let n_members = flat.members.len();
        if [flat.parent.len(), flat.sub_off.len(), flat.sub_len.len(), flat.own_len.len()]
            .iter()
            .any(|&l| l != n_nodes)
        {
            return Err(corrupt("node arrays disagree on length".into()));
        }
        if [flat.node_of.len(), flat.arena_pos.len(), flat.arena.len()]
            .iter()
            .any(|&l| l != n_members)
        {
            return Err(corrupt("member arrays disagree on length".into()));
        }
        if n_nodes >= NONE as usize {
            return Err(corrupt(format!("{n_nodes} nodes overflow the id space")));
        }
        if flat.members.windows(2).any(|w| w[0] >= w[1]) {
            return Err(corrupt("member list is unsorted or holds duplicates".into()));
        }
        let mut kid_counts: Vec<u32> = vec![0; n_nodes];
        for id in 0..n_nodes {
            let p = flat.parent[id];
            if p != NONE {
                // Deeper ĉores are created first, so a legal parent id is
                // always larger — and that ordering is exactly what rules
                // out parent-link cycles.
                if (p as usize) >= n_nodes || (p as usize) <= id {
                    return Err(corrupt(format!("node {id} has non-topological parent {p}")));
                }
                if flat.core[p as usize] >= flat.core[id] {
                    return Err(corrupt(format!("node {id} does not deepen below parent {p}")));
                }
                kid_counts[p as usize] += 1;
            }
            let (off, len, own) =
                (flat.sub_off[id] as usize, flat.sub_len[id] as usize, flat.own_len[id] as usize);
            if off + len > n_members || own > len {
                return Err(corrupt(format!("node {id} subtree range escapes the arena")));
            }
            if p != NONE {
                // The parent's own range bound is checked on its later
                // iteration; compare in u64 so an adversarial near-MAX
                // offset cannot wrap here first.
                let (poff, plen) =
                    (flat.sub_off[p as usize] as u64, flat.sub_len[p as usize] as u64);
                if (flat.sub_off[id] as u64) < poff || (off + len) as u64 > poff + plen {
                    return Err(corrupt(format!("node {id} range not nested in parent {p}")));
                }
            }
        }
        let mut core_of = Vec::with_capacity(n_members);
        for i in 0..n_members {
            let (node, pos) = (flat.node_of[i], flat.arena_pos[i]);
            if node as usize >= n_nodes {
                return Err(corrupt(format!("member {i} points at missing node {node}")));
            }
            if pos as usize >= n_members || flat.arena[pos as usize] != flat.members[i] {
                return Err(corrupt(format!("arena_pos of member {i} is not an inverse")));
            }
            // Each member sits in the own-vertex prefix of its node's
            // range — the placement `community_ref`'s range tests
            // assume — and inherits that node's core level.
            let id = node as usize;
            if pos < flat.sub_off[id] || pos >= flat.sub_off[id] + flat.own_len[id] {
                return Err(corrupt(format!("member {i} lies outside its node's own range")));
            }
            core_of.push(flat.core[id]);
        }
        // Children are the inverse of `parent`: counting scatter, two
        // allocations total (ids ascending within each parent's run).
        let mut kids_off: Vec<u32> = Vec::with_capacity(n_nodes);
        let mut acc = 0u32;
        for &c in &kid_counts {
            kids_off.push(acc);
            acc += c;
        }
        let mut kids = vec![0u32; acc as usize];
        let mut cursor = kids_off.clone();
        for id in 0..n_nodes {
            let p = flat.parent[id];
            if p != NONE {
                kids[cursor[p as usize] as usize] = id as u32;
                cursor[p as usize] += 1;
            }
        }
        // Laminar geometry: each node's children must exactly tile the
        // tail of its subtree range after the own prefix (and the roots
        // the whole arena) — nesting alone would still admit
        // sibling-overlapping ranges, i.e. communities leaking into
        // each other.
        let tile = |start: u32, end: u32, spans: &mut Vec<(u32, u32)>| -> bool {
            spans.sort_unstable();
            let mut at = start;
            for &(off, len) in spans.iter() {
                if off != at {
                    return false;
                }
                at += len;
            }
            at == end
        };
        let mut spans: Vec<(u32, u32)> = Vec::new();
        for id in 0..n_nodes {
            spans.clear();
            let run = (kids_off[id] as usize)..(kids_off[id] + kid_counts[id]) as usize;
            spans.extend(
                kids[run].iter().map(|&ch| (flat.sub_off[ch as usize], flat.sub_len[ch as usize])),
            );
            let start = flat.sub_off[id] + flat.own_len[id];
            if !tile(start, flat.sub_off[id] + flat.sub_len[id], &mut spans) {
                return Err(corrupt(format!("children of node {id} do not tile its range")));
            }
        }
        spans.clear();
        spans.extend(
            (0..n_nodes)
                .filter(|&id| flat.parent[id] == NONE)
                .map(|id| (flat.sub_off[id], flat.sub_len[id])),
        );
        if !tile(0, n_members as u32, &mut spans) {
            return Err(corrupt("root ranges do not tile the arena".into()));
        }
        let nodes = (0..n_nodes)
            .map(|id| ClNode {
                core: flat.core[id],
                parent: flat.parent[id],
                sub_off: flat.sub_off[id],
                sub_len: flat.sub_len[id],
                own_len: flat.own_len[id],
                kids_off: kids_off[id],
                kids_len: kid_counts[id],
            })
            .collect();
        Ok(ClTree {
            nodes,
            kids,
            arena: flat.arena,
            members: flat.members,
            node_of: flat.node_of,
            core_of,
            arena_pos: flat.arena_pos,
        })
    }

    /// Test-only corruption hook: reassembles a tree from flat arrays
    /// with **none** of [`ClTree::from_flat`]'s validation, so the
    /// `debug-invariants` mutation tests can plant geometry lies
    /// (overlapping subtree ranges, dishonest `own_len`) and assert
    /// that `verify_deep`'s round-trip through the real validator
    /// catches them. Never use outside those tests.
    #[cfg(feature = "debug-invariants")]
    pub fn from_flat_unchecked_for_test(flat: ClTreeFlat) -> ClTree {
        let n_nodes = flat.core.len();
        let mut kid_counts: Vec<u32> = vec![0; n_nodes];
        for &p in &flat.parent {
            if p != NONE {
                if let Some(c) = kid_counts.get_mut(p as usize) {
                    *c += 1;
                }
            }
        }
        let mut kids_off: Vec<u32> = Vec::with_capacity(n_nodes);
        let mut acc = 0u32;
        for &c in &kid_counts {
            kids_off.push(acc);
            acc += c;
        }
        let mut kids = vec![0u32; acc as usize];
        let mut cursor = kids_off.clone();
        for (id, &p) in flat.parent.iter().enumerate() {
            if p != NONE {
                if let Some(cu) = cursor.get_mut(p as usize) {
                    if let Some(slot) = kids.get_mut(*cu as usize) {
                        *slot = id as u32;
                    }
                    *cu += 1;
                }
            }
        }
        let core_of: Vec<u32> = flat
            .node_of
            .iter()
            .map(|&nd| flat.core.get(nd as usize).copied().unwrap_or(0))
            .collect();
        let nodes: Vec<ClNode> = (0..n_nodes)
            .map(|id| ClNode {
                core: flat.core.get(id).copied().unwrap_or(0),
                parent: flat.parent.get(id).copied().unwrap_or(NONE),
                sub_off: flat.sub_off.get(id).copied().unwrap_or(0),
                sub_len: flat.sub_len.get(id).copied().unwrap_or(0),
                own_len: flat.own_len.get(id).copied().unwrap_or(0),
                kids_off: kids_off.get(id).copied().unwrap_or(0),
                kids_len: kid_counts.get(id).copied().unwrap_or(0),
            })
            .collect();
        ClTree {
            nodes,
            kids,
            arena: flat.arena,
            members: flat.members,
            node_of: flat.node_of,
            core_of,
            arena_pos: flat.arena_pos,
        }
    }

    /// Number of forest nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of indexed vertices.
    pub fn num_vertices(&self) -> usize {
        self.members.len()
    }

    /// The sorted vertex ids this tree indexes.
    pub fn members(&self) -> &[VertexId] {
        &self.members
    }

    /// Checked node lookup; out-of-range ids read as [`EMPTY_NODE`].
    #[inline]
    fn nd(&self, id: u32) -> &ClNode {
        self.nodes.get(id as usize).unwrap_or(&EMPTY_NODE)
    }

    /// Forest node by id.
    pub fn node(&self, id: u32) -> &ClNode {
        self.nd(id)
    }

    /// Child node ids of `id` (deeper ĉores merged under it).
    pub fn children(&self, id: u32) -> &[u32] {
        let node = self.nd(id);
        self.kids
            .get(node.kids_off as usize..(node.kids_off + node.kids_len) as usize)
            .unwrap_or(&[])
    }

    /// The vertices whose core number equals `node(id).core` within
    /// this ĉore (sorted).
    pub fn node_members(&self, id: u32) -> &[VertexId] {
        let node = self.nd(id);
        self.arena.get(node.sub_off as usize..(node.sub_off + node.own_len) as usize).unwrap_or(&[])
    }

    /// All vertices of the ĉore rooted at `id` — the node's whole
    /// subtree — as a borrowed arena slice. Distinct but **not
    /// globally sorted** (DFS order); sort a copy if order matters.
    pub fn subtree_members(&self, id: u32) -> &[VertexId] {
        let node = self.nd(id);
        self.arena.get(node.sub_off as usize..(node.sub_off + node.sub_len) as usize).unwrap_or(&[])
    }

    /// The `vertexNodeMap` lookup: the forest node holding `v`.
    pub fn node_of(&self, v: VertexId) -> Option<u32> {
        let i = self.members.binary_search(&v).ok()?;
        self.node_of.get(i).copied()
    }

    /// The forest node whose subtree *is* the k-ĉore of `q`: the
    /// shallowest ancestor of `q`'s node still at core level ≥ `k`.
    /// `None` when `q` is absent or its core number is below `k`.
    ///
    /// Two vertices lie in the same k-ĉore iff they report the same
    /// summit — an O(max_core) containment test without collecting the
    /// ĉore itself; [`ClTree::community_ref`] slices the ĉore from it.
    pub fn summit(&self, q: VertexId, k: u32) -> Option<u32> {
        let i = self.members.binary_search(&q).ok()?;
        if self.core_of.get(i).copied()? < k {
            return None;
        }
        // Parent ids strictly increase upward (validated on import), so
        // the walk terminates; an out-of-range id reads as a root.
        let mut cur = self.node_of.get(i).copied()?;
        loop {
            let p = self.nd(cur).parent;
            if p == NONE || self.nd(p).core < k {
                break;
            }
            cur = p;
        }
        Some(cur)
    }

    /// The k-ĉore containing `q` as a borrowed arena slice, or `None`
    /// when `q` is absent or its core number is below `k`.
    ///
    /// This is the query hot path: O(path-to-ancestor), **zero
    /// allocation, zero copying** — the community of `(q, k)` is
    /// exactly one contiguous arena range. The slice holds distinct
    /// vertices in DFS (not sorted) order.
    #[inline]
    pub fn community_ref(&self, q: VertexId, k: u32) -> Option<&[VertexId]> {
        Some(self.subtree_members(self.summit(q, k)?))
    }

    /// The k-ĉore containing `q` (sorted), or `None` when `q` is absent
    /// or its core number is below `k`.
    ///
    /// Thin owned wrapper over [`ClTree::community_ref`], kept for API
    /// compatibility and for callers needing sorted order. **Prefer
    /// `community_ref` anywhere performance matters** — this copies and
    /// sorts the answer on every call.
    pub fn get(&self, q: VertexId, k: u32) -> Option<Vec<VertexId>> {
        let mut out = self.community_ref(q, k)?.to_vec();
        out.sort_unstable();
        Some(out)
    }

    /// Iterator over forest roots.
    pub fn roots(&self) -> impl Iterator<Item = u32> + '_ {
        self.nodes.iter().enumerate().filter(|(_, n)| n.parent == NONE).map(|(id, _)| id as u32)
    }

    /// Approximate heap footprint in bytes.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.len() * size_of::<VertexId>()
            + self.members.len() * (size_of::<VertexId>() + 3 * size_of::<u32>())
            + self.nodes.len() * size_of::<ClNode>()
            + self.kids.len() * size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_graph::Graph;

    /// The paper's Fig. 4(a) graph: A..H = 0..7.
    fn figure4() -> Graph {
        Graph::from_edges(
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
        .unwrap()
    }

    /// Disjoint-set forest with path halving and union by size (ties
    /// keep the first argument's root) — the reference build's.
    struct UnionFind {
        parent: Vec<u32>,
        size: Vec<u32>,
    }

    impl UnionFind {
        fn new(n: usize) -> Self {
            UnionFind { parent: (0..n as u32).collect(), size: vec![1; n] }
        }

        fn find(&mut self, mut x: u32) -> u32 {
            loop {
                let p = self.parent[x as usize];
                if p == x {
                    return x;
                }
                let gp = self.parent[p as usize];
                self.parent[x as usize] = gp;
                x = gp;
            }
        }

        fn union(&mut self, a: u32, b: u32) -> Option<u32> {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra == rb {
                return None;
            }
            let (big, small) =
                if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
            self.parent[small as usize] = big;
            self.size[big as usize] += self.size[small as usize];
            Some(big)
        }
    }

    /// The reference subset build: the induced subgraph from a filtered
    /// edge list (no relabel map), then [`reference_assemble`].
    fn reference_build_on_subset(g: &Graph, subset: &[VertexId]) -> ClTree {
        let mut ids = subset.to_vec();
        ids.sort_unstable();
        ids.dedup();
        if ids.is_empty() {
            return ClTree::empty();
        }
        let local = |v: VertexId| ids.binary_search(&v).ok().map(|i| i as u32);
        let edges: Vec<(u32, u32)> =
            g.edges().filter_map(|(a, b)| Some((local(a)?, local(b)?))).collect();
        let sub = Graph::from_edges(ids.len(), &edges).unwrap();
        let cd = CoreDecomposition::new(&sub);
        reference_assemble(&sub, &cd, Some(ids))
    }

    /// The straightforward construction the optimized `assemble` must
    /// reproduce byte for byte: per-level `Vec`s, an `active` flag per
    /// vertex with two `find`s per active edge, `Vec` lists of attached
    /// nodes per root, a `(root, vertex)` sort per level, per-node
    /// child lists, and one binary search per member for `arena_pos`.
    fn reference_assemble(
        sub: &Graph,
        cd: &CoreDecomposition,
        ids: Option<Vec<VertexId>>,
    ) -> ClTree {
        let n = sub.num_vertices();
        let to_host = |v: u32| ids.as_ref().map_or(v, |ids| ids[v as usize]);
        let max_core = cd.max_core();
        let mut at_level: Vec<Vec<u32>> = vec![Vec::new(); max_core as usize + 1];
        for v in 0..n as u32 {
            at_level[cd.core_number(v) as usize].push(v);
        }
        let mut uf = UnionFind::new(n);
        let mut active = vec![false; n];
        let mut attached: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut nodes: Vec<ClNode> = Vec::new();
        let mut child_lists: Vec<Vec<u32>> = Vec::new();
        let mut own_flat: Vec<VertexId> = Vec::with_capacity(n);
        let mut own_runs: Vec<(u32, u32)> = Vec::new();
        let mut node_of_local = vec![NONE; n];
        let mut level_buf: Vec<(u32, u32)> = Vec::new();
        for c in (0..=max_core).rev() {
            let level = &at_level[c as usize];
            for &v in level {
                active[v as usize] = true;
            }
            for &v in level {
                for &u in sub.neighbors(v) {
                    if active[u as usize] {
                        let (ra, rb) = (uf.find(v), uf.find(u));
                        if ra != rb {
                            let rnew = uf.union(ra, rb).unwrap();
                            let rold = if rnew == ra { rb } else { ra };
                            let moved = std::mem::take(&mut attached[rold as usize]);
                            attached[rnew as usize].extend(moved);
                        }
                    }
                }
            }
            level_buf.clear();
            level_buf.extend(level.iter().map(|&v| (uf.find(v), v)));
            level_buf.sort_unstable();
            let mut i = 0;
            while i < level_buf.len() {
                let root = level_buf[i].0;
                let mut j = i;
                while j < level_buf.len() && level_buf[j].0 == root {
                    j += 1;
                }
                let id = nodes.len() as u32;
                let children = std::mem::take(&mut attached[root as usize]);
                for &ch in &children {
                    nodes[ch as usize].parent = id;
                }
                for &(_, v) in &level_buf[i..j] {
                    node_of_local[v as usize] = id;
                }
                let off = own_flat.len() as u32;
                own_flat.extend(level_buf[i..j].iter().map(|&(_, v)| to_host(v)));
                own_runs.push((off, (j - i) as u32));
                child_lists.push(children);
                nodes.push(EMPTY_NODE);
                nodes[id as usize].core = c;
                attached[root as usize].push(id);
                i = j;
            }
        }
        let mut arena: Vec<VertexId> = Vec::with_capacity(n);
        enum Step {
            Enter(u32),
            Exit(u32),
        }
        let mut stack: Vec<Step> = (0..nodes.len() as u32)
            .rev()
            .filter(|&id| nodes[id as usize].parent == NONE)
            .map(Step::Enter)
            .collect();
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(id) => {
                    let node = &mut nodes[id as usize];
                    node.sub_off = arena.len() as u32;
                    let (off, len) = own_runs[id as usize];
                    node.own_len = len;
                    arena.extend_from_slice(&own_flat[off as usize..(off + len) as usize]);
                    stack.push(Step::Exit(id));
                    for &ch in child_lists[id as usize].iter().rev() {
                        stack.push(Step::Enter(ch));
                    }
                }
                Step::Exit(id) => {
                    let node = &mut nodes[id as usize];
                    node.sub_len = arena.len() as u32 - node.sub_off;
                }
            }
        }
        let mut kids: Vec<u32> = Vec::new();
        for (id, list) in child_lists.into_iter().enumerate() {
            nodes[id].kids_off = kids.len() as u32;
            nodes[id].kids_len = list.len() as u32;
            kids.extend(list);
        }
        let mut arena_pos = vec![0u32; n];
        for (pos, &v) in arena.iter().enumerate() {
            let i = match &ids {
                Some(ids) => ids.binary_search(&v).unwrap(),
                None => v as usize,
            };
            arena_pos[i] = pos as u32;
        }
        let core_of: Vec<u32> = (0..n as u32).map(|v| cd.core_number(v)).collect();
        let members = ids.unwrap_or_else(|| (0..n as VertexId).collect());
        ClTree { nodes, kids, arena, members, node_of: node_of_local, core_of, arena_pos }
    }

    /// The optimized build lays out exactly the reference's tree — same
    /// node numbering, arena order, children and member positions — on
    /// random graphs and subsets (duplicates, the empty subset, single
    /// vertices, disconnected subsets, isolated vertices) and on the
    /// whole-graph path, with one relabel map reused across all builds.
    #[test]
    fn build_matches_reference_layout() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(45);
        let mut relabel = Vec::new();
        let same = |got: &ClTree, want: &ClTree, what: &str| {
            assert_eq!(got.to_flat(), want.to_flat(), "{what}");
            assert_eq!(got.kids, want.kids, "{what}: kids");
            assert_eq!(got.core_of, want.core_of, "{what}: core_of");
        };
        for trial in 0..120 {
            // Sparse graphs leave isolated vertices and many components;
            // dense ones give deep core hierarchies.
            let n = rng.gen_range(1..90usize);
            let p = [0.02, 0.06, 0.15, 0.35][trial % 4];
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(p) {
                        edges.push((a, b));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges).unwrap();
            let cd = CoreDecomposition::new(&g);
            same(&ClTree::build_full(&g, &cd), &reference_assemble(&g, &cd, None), "full");
            let keep = rng.gen_range(0.0..1.0);
            let mut subset: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(keep)).collect();
            // Duplicates, in any order.
            for _ in 0..rng.gen_range(0..4) {
                if let Some(&v) = subset.get(rng.gen_range(0..subset.len().max(1))) {
                    subset.push(v);
                }
            }
            if trial % 3 == 0 {
                subset.reverse();
            }
            for s in [&subset[..], &[], &[rng.gen_range(0..n as u32)]] {
                let got = ClTree::build_with(&g, s, &mut relabel);
                same(&got, &reference_build_on_subset(&g, s), &format!("subset {s:?}"));
            }
            assert!(relabel.iter().all(|&x| x == 0), "the relabel map is left clear");
        }
    }

    #[test]
    fn figure4_structure() {
        let g = figure4();
        let t = ClTree::build(&g);
        // Fig. 4(b): root 0:# (core 0, no vertices at level 0 here since
        // all vertices have core >= 2 — so the forest root is at core 2).
        // Expected: one core-2 node holding {C} and {F,G,H}... they are
        // a single 2-ĉore (E-F bridge), child = core-3 node {A,B,D,E}.
        assert!(t.num_nodes() >= 2);
        // get checks (the real contract).
        assert_eq!(t.get(3, 3).unwrap(), vec![0, 1, 3, 4]);
        assert_eq!(t.get(2, 2).unwrap(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(t.get(6, 2).unwrap(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(t.get(2, 3).is_none());
        assert!(t.get(0, 4).is_none());
        // k=0/1 return the whole (connected) graph.
        assert_eq!(t.get(0, 0).unwrap().len(), 8);
        assert_eq!(t.get(0, 1).unwrap().len(), 8);
    }

    #[test]
    fn matches_core_decomposition_everywhere() {
        let g = figure4();
        let t = ClTree::build(&g);
        let cd = CoreDecomposition::new(&g);
        for q in g.vertices() {
            let core = cd.core_number(q);
            assert!(t.summit(q, core).is_some() && t.summit(q, core + 1).is_none(), "q={q}");
            for k in 0..=4 {
                assert_eq!(t.get(q, k), cd.kcore_component(&g, q, k), "q={q} k={k}");
            }
        }
    }

    /// `community_ref` must be set-equal to the owned path and truly
    /// borrowed: repeated probes return the identical arena slice.
    #[test]
    fn community_ref_is_borrowed_and_set_equal() {
        let g = figure4();
        let t = ClTree::build(&g);
        for q in g.vertices() {
            for k in 0..=4 {
                match (t.community_ref(q, k), t.get(q, k)) {
                    (None, None) => {}
                    (Some(slice), Some(owned)) => {
                        let mut sorted = slice.to_vec();
                        sorted.sort_unstable();
                        assert_eq!(sorted, owned, "q={q} k={k}");
                        // Zero-copy: the same probe yields the same
                        // pointer into the arena, every time.
                        let again = t.community_ref(q, k).unwrap();
                        assert_eq!(slice.as_ptr(), again.as_ptr());
                        assert_eq!(slice.len(), again.len());
                        let arena_range = t.arena.as_ptr_range();
                        assert!(arena_range.contains(&slice.as_ptr()));
                    }
                    (r, o) => panic!("q={q} k={k}: ref={r:?} owned={o:?}"),
                }
            }
        }
    }

    /// Every node's subtree slice equals its own members plus its
    /// children's subtree slices — the DFS nesting invariant.
    #[test]
    fn arena_ranges_nest() {
        let g = figure4();
        let t = ClTree::build(&g);
        for id in 0..t.num_nodes() as u32 {
            let mut expect: Vec<VertexId> = t.node_members(id).to_vec();
            for &ch in t.children(id) {
                expect.extend_from_slice(t.subtree_members(ch));
            }
            expect.sort_unstable();
            let mut got = t.subtree_members(id).to_vec();
            got.sort_unstable();
            assert_eq!(got, expect, "node {id}");
            // Children ranges are contained in the parent range.
            for &ch in t.children(id) {
                let p = t.node(id);
                let c = t.node(ch);
                assert!(c.sub_off >= p.sub_off);
                assert!(c.sub_off + c.sub_len <= p.sub_off + p.sub_len);
            }
        }
    }

    #[test]
    fn disconnected_graph_is_a_forest() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let t = ClTree::build(&g);
        assert_eq!(t.roots().count(), 3); // two triangles + isolated 6
        assert_eq!(t.get(0, 2).unwrap(), vec![0, 1, 2]);
        assert_eq!(t.get(4, 2).unwrap(), vec![3, 4, 5]);
        assert_eq!(t.get(6, 0).unwrap(), vec![6]);
        assert!(t.get(6, 1).is_none());
        // 0-ĉores are per-component, never merged.
        assert_eq!(t.get(0, 0).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn subset_build_uses_original_ids() {
        let g = figure4();
        // Index only {A,B,D,E,C} (0,1,3,4,2).
        let t = ClTree::build_on_subset(&g, &[0, 1, 2, 3, 4]);
        assert_eq!(t.num_vertices(), 5);
        assert!(t.node_of(0).is_some());
        assert!(t.node_of(5).is_none());
        assert_eq!(t.get(0, 3).unwrap(), vec![0, 1, 3, 4]);
        assert_eq!(t.get(2, 2).unwrap(), vec![0, 1, 2, 3, 4]);
        assert!(t.get(5, 0).is_none());
        assert!(t.summit(2, 2).is_some() && t.summit(2, 3).is_none());
        assert!(t.node_of(7).is_none());
    }

    #[test]
    fn empty_subset() {
        let g = figure4();
        let t = ClTree::build_on_subset(&g, &[]);
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.num_vertices(), 0);
        assert!(t.get(0, 0).is_none());
        assert!(t.community_ref(0, 0).is_none());
    }

    #[test]
    fn randomized_against_decomposition() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..15 {
            let n = 40;
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.12) {
                        edges.push((a, b));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges).unwrap();
            let t = ClTree::build(&g);
            let cd = CoreDecomposition::new(&g);
            for q in 0..n as u32 {
                for k in 0..=cd.max_core() + 1 {
                    assert_eq!(t.get(q, k), cd.kcore_component(&g, q, k), "q={q} k={k}");
                    // The slice view stays set-equal to the owned path.
                    let as_set = t.community_ref(q, k).map(|s| {
                        let mut v = s.to_vec();
                        v.sort_unstable();
                        v
                    });
                    assert_eq!(as_set, t.get(q, k), "q={q} k={k}");
                }
            }
        }
    }

    #[test]
    fn randomized_subset_against_induced() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..15 {
            let n = 30;
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.15) {
                        edges.push((a, b));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges).unwrap();
            let subset: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.6)).collect();
            let t = ClTree::build_on_subset(&g, &subset);
            let (sub, ids) = g.induced_subgraph(&subset);
            let cd = CoreDecomposition::new(&sub);
            for (local, &orig) in ids.iter().enumerate() {
                for k in 0..4 {
                    let expect = cd
                        .kcore_component(&sub, local as u32, k)
                        .map(|c| c.into_iter().map(|v| ids[v as usize]).collect::<Vec<_>>());
                    assert_eq!(t.get(orig, k), expect);
                }
            }
        }
    }

    #[test]
    fn summit_identifies_shared_cores() {
        let g = figure4();
        let t = ClTree::build(&g);
        // A and D share the 3-ĉore {A,B,D,E}; C is outside it.
        assert_eq!(t.summit(0, 3), t.summit(3, 3));
        assert!(t.summit(2, 3).is_none());
        // At k=2 the whole graph is one ĉore.
        assert_eq!(t.summit(2, 2), t.summit(6, 2));
        // Summit's subtree equals get().
        let nid = t.summit(0, 3).unwrap();
        let mut collected = t.subtree_members(nid).to_vec();
        collected.sort_unstable();
        assert_eq!(collected, t.get(0, 3).unwrap());
    }

    /// `to_flat` → `from_flat` reproduces the whole query surface, and
    /// the flat form is byte-stable across the round trip.
    #[test]
    fn flat_round_trip() {
        let g = figure4();
        let t = ClTree::build(&g);
        let flat = t.to_flat();
        let back = ClTree::from_flat(flat.clone()).unwrap();
        assert_eq!(back.to_flat(), flat, "round trip is stable");
        for q in g.vertices() {
            for k in 0..=4 {
                assert_eq!(t.get(q, k), back.get(q, k), "q={q} k={k}");
                assert_eq!(t.summit(q, k), back.summit(q, k), "q={q} k={k}");
                assert_eq!(
                    t.community_ref(q, k).map(<[VertexId]>::to_vec),
                    back.community_ref(q, k).map(<[VertexId]>::to_vec)
                );
            }
            assert_eq!(t.node_of(q), back.node_of(q));
        }
        // Empty tree round-trips too.
        let empty = ClTree::build_on_subset(&g, &[]);
        assert_eq!(ClTree::from_flat(empty.to_flat()).unwrap().num_nodes(), 0);
    }

    /// Every class of malformed flat input is rejected with
    /// `CorruptIndex`, never adopted.
    #[test]
    fn from_flat_rejects_corruption() {
        let g = figure4();
        let good = ClTree::build(&g).to_flat();
        let corrupt = |mutate: &dyn Fn(&mut ClTreeFlat)| {
            let mut f = good.clone();
            mutate(&mut f);
            ClTree::from_flat(f).unwrap_err()
        };
        let is_corrupt = |e: crate::IndexError| matches!(e, crate::IndexError::CorruptIndex { .. });
        assert!(is_corrupt(corrupt(&|f| {
            f.core.pop();
        })));
        assert!(is_corrupt(corrupt(&|f| {
            f.arena.pop();
        })));
        assert!(is_corrupt(corrupt(&|f| f.members.swap(0, 1))));
        assert!(is_corrupt(corrupt(&|f| f.parent[0] = 0))); // self/backward parent
        assert!(is_corrupt(corrupt(&|f| f.sub_len[0] = u32::MAX)));
        assert!(is_corrupt(corrupt(&|f| f.node_of[0] = 99)));
        assert!(is_corrupt(corrupt(&|f| f.arena_pos[0] = 99)));
        assert!(is_corrupt(corrupt(&|f| {
            // Two nodes at the same level on one path.
            if let Some(p) = f.parent.iter().position(|&p| p != super::NONE) {
                f.core[p] = f.core[f.parent[p] as usize];
            } else {
                f.core.pop(); // fallback: still corrupt
            }
        })));
    }

    /// A forged flat tree whose sibling (or root) ranges overlap —
    /// individually nested, cores fine, members placed — must still be
    /// rejected: overlapping ranges would leak one community's
    /// vertices into another.
    #[test]
    fn from_flat_rejects_overlapping_ranges() {
        // Two K4s bridged through a low-core hub: one core-2 root whose
        // two children are the core-3 K4 ĉores.
        let g = Graph::from_edges(
            9,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (4, 5),
                (4, 6),
                (4, 7),
                (5, 6),
                (5, 7),
                (6, 7),
                (8, 0),
                (8, 4),
            ],
        )
        .unwrap();
        let flat = ClTree::build(&g).to_flat();
        let root = (0..flat.parent.len()).position(|i| flat.parent[i] == super::NONE).unwrap();
        let kids: Vec<usize> =
            (0..flat.parent.len()).filter(|&i| flat.parent[i] as usize == root).collect();
        assert_eq!(kids.len(), 2, "root must hold the two K4 ĉores");
        // Extend the earlier child's range over its sibling: still
        // nested in the root, own prefix and member placement intact.
        let (a, b) = if flat.sub_off[kids[0]] < flat.sub_off[kids[1]] {
            (kids[0], kids[1])
        } else {
            (kids[1], kids[0])
        };
        let mut bad = flat.clone();
        bad.sub_len[a] += flat.sub_len[b];
        assert!(
            matches!(ClTree::from_flat(bad), Err(crate::IndexError::CorruptIndex { .. })),
            "sibling overlap must be rejected"
        );
        // Sanity: the untouched flat form still loads.
        assert!(ClTree::from_flat(flat).is_ok());

        // Root-level overlap on a forest (three roots).
        let forest =
            Graph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]).unwrap();
        let flat = ClTree::build(&forest).to_flat();
        let mut roots: Vec<usize> =
            (0..flat.parent.len()).filter(|&i| flat.parent[i] == super::NONE).collect();
        roots.sort_by_key(|&i| flat.sub_off[i]);
        assert!(roots.len() >= 2);
        let mut bad = flat.clone();
        bad.sub_len[roots[0]] += flat.sub_len[roots[1]];
        assert!(
            matches!(ClTree::from_flat(bad), Err(crate::IndexError::CorruptIndex { .. })),
            "root overlap must be rejected"
        );
    }

    #[test]
    fn node_accessors() {
        let g = figure4();
        let t = ClTree::build(&g);
        let nid = t.node_of(2).unwrap();
        let node = t.node(nid);
        assert_eq!(node.core, 2);
        assert!(t.node_members(nid).contains(&2));
        assert!(t.memory_bytes() > 0);
        // The deepest node has a parent chain ending at a root.
        let deep = t.node_of(0).unwrap();
        let mut cur = deep;
        let mut steps = 0;
        while let Some(p) = t.node(cur).parent() {
            cur = p;
            steps += 1;
            assert!(steps < 100, "cycle in parent links");
        }
        assert!(t.roots().any(|r| r == cur));
    }
}

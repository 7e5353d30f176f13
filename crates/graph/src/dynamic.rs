//! Mutable graphs and incremental k-core maintenance.
//!
//! The CSR [`Graph`] is immutable by design — every query algorithm
//! reads it without synchronization. A live serving system, however,
//! must absorb edge insertions and deletions without rebuilding the
//! world. This module supplies the write side:
//!
//! * [`DynamicGraph`] — sorted adjacency lists supporting O(deg) edge
//!   insertion/removal and an O(n + m) conversion back to CSR (no
//!   re-sort: the lists stay sorted under mutation).
//! * [`IncrementalCores`] — a core-number array kept current by the
//!   bounded traversal algorithms of Sariyüce et al. (*Streaming
//!   algorithms for k-core decomposition*, VLDB 2013): after a single
//!   edge change, core numbers move by at most one and only inside the
//!   **subcore** of the touched endpoints (the vertices with the
//!   smaller endpoint core value, reachable through vertices of that
//!   same core value). Each update visits only that region — never
//!   O(n).

use crate::graph::{Graph, VertexId};
use crate::{FxHashMap, FxHashSet, GraphError, Result};

/// A mutable undirected graph: one sorted neighbor list per vertex.
///
/// The vertex set is fixed at construction (dense ids `0..n`, matching
/// [`Graph`]); the edge set changes freely. Self-loops are rejected and
/// duplicate insertions are no-ops, so conversion via
/// [`DynamicGraph::to_graph`] always yields a canonical CSR graph.
///
/// ```
/// use pcs_graph::{DynamicGraph, Graph};
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
/// let mut d = DynamicGraph::from_graph(&g);
/// assert!(d.add_edge(2, 3).unwrap());
/// assert!(!d.add_edge(0, 1).unwrap()); // already present: no-op
/// assert!(d.remove_edge(0, 1).unwrap());
/// let g2 = d.to_graph();
/// assert_eq!(g2.num_edges(), 2);
/// assert!(g2.has_edge(2, 3) && !g2.has_edge(0, 1));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynamicGraph {
    adj: Vec<Vec<VertexId>>,
    m: usize,
}

impl DynamicGraph {
    /// An edgeless graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        DynamicGraph { adj: vec![Vec::new(); n], m: 0 }
    }

    /// Copies a CSR graph into mutable form.
    pub fn from_graph(g: &Graph) -> Self {
        let adj: Vec<Vec<VertexId>> = g.vertices().map(|v| g.neighbors(v).to_vec()).collect();
        DynamicGraph { adj, m: g.num_edges() }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.m
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adj[v as usize]
    }

    /// True when the undirected edge `{a, b}` exists.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        (a as usize) < self.adj.len() && self.adj[a as usize].binary_search(&b).is_ok()
    }

    fn check_endpoints(&self, a: VertexId, b: VertexId) -> Result<()> {
        let n = self.adj.len();
        for v in [a, b] {
            if v as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v as u64, n });
            }
        }
        Ok(())
    }

    /// Inserts the undirected edge `{a, b}`.
    ///
    /// Returns `Ok(true)` when the edge was new, `Ok(false)` when it
    /// already existed (no-op). Self-loops and out-of-range endpoints
    /// are errors.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) -> Result<bool> {
        self.check_endpoints(a, b)?;
        if a == b {
            return Err(GraphError::SelfLoop { vertex: a });
        }
        let pos = match self.adj[a as usize].binary_search(&b) {
            Ok(_) => return Ok(false),
            Err(pos) => pos,
        };
        self.adj[a as usize].insert(pos, b);
        let pos = self.adj[b as usize]
            .binary_search(&a)
            .expect_err("adjacency lists out of sync: half-edge present");
        self.adj[b as usize].insert(pos, a);
        self.m += 1;
        Ok(true)
    }

    /// Removes the undirected edge `{a, b}`.
    ///
    /// Returns `Ok(true)` when the edge existed, `Ok(false)` when it
    /// did not (no-op). Out-of-range endpoints are errors.
    pub fn remove_edge(&mut self, a: VertexId, b: VertexId) -> Result<bool> {
        self.check_endpoints(a, b)?;
        let pos = match self.adj[a as usize].binary_search(&b) {
            Ok(pos) => pos,
            Err(_) => return Ok(false),
        };
        self.adj[a as usize].remove(pos);
        let pos = self.adj[b as usize]
            .binary_search(&a)
            .expect("adjacency lists out of sync: half-edge missing");
        self.adj[b as usize].remove(pos);
        self.m -= 1;
        Ok(true)
    }

    /// Lays the current edge set out as an immutable CSR [`Graph`].
    ///
    /// O(n + m): the per-vertex lists are already sorted, so no global
    /// sort is needed (unlike [`crate::GraphBuilder::build`]).
    pub fn to_graph(&self) -> Graph {
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for list in &self.adj {
            acc += list.len();
            offsets.push(acc);
        }
        let mut neighbors = Vec::with_capacity(acc);
        for list in &self.adj {
            neighbors.extend_from_slice(list);
        }
        Graph::from_csr_unchecked(offsets, neighbors)
    }
}

/// Vertices whose core number **rises by one** after inserting the
/// edge `{u, v}`.
///
/// Contract: `adj` must describe the graph *with* the edge already
/// present, and `core` must return the pre-insertion core numbers.
/// The caller applies the returned delta (`core[w] += 1`).
///
/// Runs the subcore traversal of Sariyüce et al.: visits only vertices
/// with core number `k = min(core(u), core(v))` reachable from the
/// endpoints through same-core vertices, computes each one's count of
/// neighbors at core ≥ k, and peels those that cannot reach degree
/// k + 1; the survivors are promoted. Sorted output.
fn promoted_by_insertion<A, I, C>(u: VertexId, v: VertexId, adj: A, core: C) -> Vec<VertexId>
where
    A: Fn(VertexId) -> I,
    I: IntoIterator<Item = VertexId>,
    C: Fn(VertexId) -> u32,
{
    let k = core(u).min(core(v));
    // Subcore: same-core vertices reachable from the low endpoint(s).
    // When core(u) == core(v) the new edge joins their subcores, and the
    // BFS naturally crosses it because `adj` already contains the edge.
    let mut sub: FxHashSet<VertexId> = FxHashSet::default();
    let mut stack: Vec<VertexId> = Vec::new();
    for r in [u, v] {
        if core(r) == k && sub.insert(r) {
            stack.push(r);
        }
    }
    while let Some(w) = stack.pop() {
        for z in adj(w) {
            if core(z) == k && sub.insert(z) {
                stack.push(z);
            }
        }
    }
    // cd(w): neighbors that could support w inside the (k+1)-core —
    // every neighbor at core ≥ k (same-core neighbors of a subcore
    // member are themselves subcore members, so no further filter).
    let mut cd: FxHashMap<VertexId, u32> = FxHashMap::default();
    for &w in &sub {
        let d = adj(w).into_iter().filter(|&z| core(z) >= k).count() as u32;
        cd.insert(w, d);
    }
    // Peel members that cannot obtain k+1 supporters.
    let mut evicted: FxHashSet<VertexId> = FxHashSet::default();
    stack.extend(sub.iter().copied().filter(|w| cd[w] <= k));
    while let Some(w) = stack.pop() {
        if !evicted.insert(w) {
            continue;
        }
        for z in adj(w) {
            if core(z) == k && sub.contains(&z) && !evicted.contains(&z) {
                let d = cd.get_mut(&z).expect("subcore member has a cd entry");
                *d -= 1;
                if *d <= k {
                    stack.push(z);
                }
            }
        }
    }
    let mut promoted: Vec<VertexId> = sub.into_iter().filter(|w| !evicted.contains(w)).collect();
    promoted.sort_unstable();
    promoted
}

/// Vertices whose core number **drops by one** after deleting the edge
/// `{u, v}`.
///
/// Contract: `adj` must describe the graph *without* the edge, and
/// `core` must return the pre-deletion core numbers. The caller applies
/// the returned delta (`core[w] -= 1`).
///
/// Only vertices with core number `k = min(core(u), core(v))` inside
/// the subcores of the endpoints can change (by exactly one); the peel
/// evicts every member left with fewer than `k` supporters. Sorted
/// output.
fn demoted_by_deletion<A, I, C>(u: VertexId, v: VertexId, adj: A, core: C) -> Vec<VertexId>
where
    A: Fn(VertexId) -> I,
    I: IntoIterator<Item = VertexId>,
    C: Fn(VertexId) -> u32,
{
    let k = core(u).min(core(v));
    if k == 0 {
        return Vec::new(); // core numbers cannot drop below zero
    }
    // Subcores of the low endpoint(s). The edge is already gone, so the
    // two regions may or may not be connected to each other.
    let mut sub: FxHashSet<VertexId> = FxHashSet::default();
    let mut stack: Vec<VertexId> = Vec::new();
    for r in [u, v] {
        if core(r) == k && sub.insert(r) {
            stack.push(r);
        }
    }
    while let Some(w) = stack.pop() {
        for z in adj(w) {
            if core(z) == k && sub.insert(z) {
                stack.push(z);
            }
        }
    }
    // Remaining support: neighbors at core ≥ k in the new graph.
    let mut cd: FxHashMap<VertexId, u32> = FxHashMap::default();
    for &w in &sub {
        let d = adj(w).into_iter().filter(|&z| core(z) >= k).count() as u32;
        cd.insert(w, d);
    }
    let mut demoted: FxHashSet<VertexId> = FxHashSet::default();
    stack.extend(sub.iter().copied().filter(|w| cd[w] < k));
    while let Some(w) = stack.pop() {
        if !demoted.insert(w) {
            continue;
        }
        for z in adj(w) {
            if core(z) == k && sub.contains(&z) && !demoted.contains(&z) {
                let d = cd.get_mut(&z).expect("subcore member has a cd entry");
                *d -= 1;
                if *d < k {
                    stack.push(z);
                }
            }
        }
    }
    let mut out: Vec<VertexId> = demoted.into_iter().collect();
    out.sort_unstable();
    out
}

/// Convenience wrappers binding the traversal algorithms to a
/// [`DynamicGraph`] plus a plain core-number array — the pairing the
/// serving engine maintains for its mutable master state.
#[derive(Clone, Debug)]
pub struct IncrementalCores {
    core: Vec<u32>,
}

impl IncrementalCores {
    /// Seeds the maintained array from a full decomposition.
    pub fn new(core: Vec<u32>) -> Self {
        IncrementalCores { core }
    }

    /// The maintained core numbers, indexed by vertex id.
    pub fn core_numbers(&self) -> &[u32] {
        &self.core
    }

    /// Core number of `v`.
    pub fn core_number(&self, v: VertexId) -> u32 {
        self.core[v as usize]
    }

    /// Updates the array after `g.add_edge(u, v)` succeeded (`g`
    /// already contains the edge). Returns how many vertices changed.
    pub fn on_edge_inserted(&mut self, g: &DynamicGraph, u: VertexId, v: VertexId) -> usize {
        let promoted = promoted_by_insertion(
            u,
            v,
            |w| g.neighbors(w).iter().copied(),
            |w| self.core[w as usize],
        );
        for &w in &promoted {
            self.core[w as usize] += 1;
        }
        promoted.len()
    }

    /// Updates the array after `g.remove_edge(u, v)` succeeded (`g` no
    /// longer contains the edge). Returns how many vertices changed.
    pub fn on_edge_removed(&mut self, g: &DynamicGraph, u: VertexId, v: VertexId) -> usize {
        let demoted = demoted_by_deletion(
            u,
            v,
            |w| g.neighbors(w).iter().copied(),
            |w| self.core[w as usize],
        );
        for &w in &demoted {
            self.core[w as usize] -= 1;
        }
        demoted.len()
    }

    /// Consumes the wrapper, yielding the array.
    pub fn into_inner(self) -> Vec<u32> {
        self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreDecomposition;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dynamic_graph_roundtrips_csr() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (2, 5)]).unwrap();
        let d = DynamicGraph::from_graph(&g);
        assert_eq!(d.num_vertices(), 6);
        assert_eq!(d.num_edges(), 5);
        assert_eq!(d.to_graph(), g);
    }

    #[test]
    fn add_remove_edge_semantics() {
        let mut d = DynamicGraph::new(4);
        assert!(d.add_edge(0, 1).unwrap());
        assert!(!d.add_edge(1, 0).unwrap(), "duplicate (reversed) insert is a no-op");
        assert_eq!(d.num_edges(), 1);
        assert!(d.has_edge(1, 0));
        assert!(!d.remove_edge(2, 3).unwrap(), "absent removal is a no-op");
        assert!(d.remove_edge(0, 1).unwrap());
        assert_eq!(d.num_edges(), 0);
        assert_eq!(d.degree(0), 0);
    }

    #[test]
    fn add_edge_rejects_self_loop_and_range() {
        let mut d = DynamicGraph::new(3);
        assert_eq!(d.add_edge(1, 1).unwrap_err(), GraphError::SelfLoop { vertex: 1 });
        assert_eq!(d.add_edge(0, 3).unwrap_err(), GraphError::VertexOutOfRange { vertex: 3, n: 3 });
        assert_eq!(
            d.remove_edge(5, 0).unwrap_err(),
            GraphError::VertexOutOfRange { vertex: 5, n: 3 }
        );
    }

    #[test]
    fn neighbors_stay_sorted_under_mutation() {
        let mut d = DynamicGraph::new(8);
        for (a, b) in [(3, 7), (3, 1), (3, 5), (3, 0), (3, 6)] {
            d.add_edge(a, b).unwrap();
        }
        assert_eq!(d.neighbors(3), &[0, 1, 5, 6, 7]);
        d.remove_edge(3, 5).unwrap();
        assert_eq!(d.neighbors(3), &[0, 1, 6, 7]);
    }

    /// Promotion on the paper's Fig. 1(a) graph: closing a triangle
    /// around C lifts it into the 3-core.
    #[test]
    fn insertion_promotes_expected_vertices() {
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
        let mut d = DynamicGraph::from_graph(&g);
        let mut cores = IncrementalCores::new(CoreDecomposition::new(&g).core_numbers().to_vec());
        // C (vertex 2) has core 2; adding C-E gives it three neighbors
        // in the {A,B,D,E} clique, promoting it to core 3.
        d.add_edge(2, 4).unwrap();
        let changed = cores.on_edge_inserted(&d, 2, 4);
        assert_eq!(changed, 1);
        assert_eq!(cores.core_number(2), 3);
        let full = CoreDecomposition::new(&d.to_graph());
        assert_eq!(cores.core_numbers(), full.core_numbers());
    }

    #[test]
    fn deletion_demotes_expected_vertices() {
        // A 4-clique: removing one edge drops its endpoints to core 2.
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let mut d = DynamicGraph::from_graph(&g);
        let mut cores = IncrementalCores::new(CoreDecomposition::new(&g).core_numbers().to_vec());
        d.remove_edge(0, 1).unwrap();
        let changed = cores.on_edge_removed(&d, 0, 1);
        // All four drop: 0 and 1 lose a supporter, and that starves 2,3.
        assert_eq!(changed, 4);
        let full = CoreDecomposition::new(&d.to_graph());
        assert_eq!(cores.core_numbers(), full.core_numbers());
    }

    /// The load-bearing test: a long random mutation sequence keeps the
    /// incrementally maintained cores equal to a from-scratch
    /// decomposition at every step.
    #[test]
    fn incremental_cores_match_rebuild_under_random_churn() {
        let mut rng = SmallRng::seed_from_u64(0xd15c0);
        for trial in 0..6 {
            let n = 24 + trial * 7;
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.12) {
                        edges.push((a, b));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges).unwrap();
            let mut d = DynamicGraph::from_graph(&g);
            let mut cores =
                IncrementalCores::new(CoreDecomposition::new(&g).core_numbers().to_vec());
            for step in 0..220 {
                let a = rng.gen_range(0..n as u32);
                let b = rng.gen_range(0..n as u32);
                if a == b {
                    continue;
                }
                if d.has_edge(a, b) {
                    d.remove_edge(a, b).unwrap();
                    cores.on_edge_removed(&d, a, b);
                } else {
                    d.add_edge(a, b).unwrap();
                    cores.on_edge_inserted(&d, a, b);
                }
                let full = CoreDecomposition::new(&d.to_graph());
                assert_eq!(
                    cores.core_numbers(),
                    full.core_numbers(),
                    "trial {trial} step {step} diverged"
                );
            }
        }
    }

    #[test]
    fn traversal_functions_work_on_filtered_subgraphs() {
        // Restrict a graph to a member subset and check the generic
        // closures agree with a decomposition of the induced subgraph.
        let g =
            Graph::from_edges(7, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5), (5, 6)])
                .unwrap();
        let members: Vec<VertexId> = vec![0, 1, 2, 3, 4, 5]; // drop 6
        let in_set = |v: VertexId| members.binary_search(&v).is_ok();
        let (sub, ids) = g.induced_subgraph(&members);
        let cd = CoreDecomposition::new(&sub);
        let core_of = |v: VertexId| {
            let local = ids.binary_search(&v).unwrap();
            cd.core_number(local as u32)
        };
        // Insert 2-4 (present in neither graph): run the promotion scan
        // on a virtual view that includes it.
        let adj = |v: VertexId| {
            let extra: &[VertexId] = match v {
                2 => &[4],
                4 => &[2],
                _ => &[],
            };
            g.neighbors(v).iter().copied().filter(move |&z| in_set(z)).chain(extra.iter().copied())
        };
        let promoted = promoted_by_insertion(2, 4, adj, core_of);
        // Reference: rebuild the induced subgraph with the edge added.
        let mut d = DynamicGraph::from_graph(&sub);
        let lu = ids.binary_search(&2).unwrap() as u32;
        let lv = ids.binary_search(&4).unwrap() as u32;
        d.add_edge(lu, lv).unwrap();
        let after = CoreDecomposition::new(&d.to_graph());
        let expect: Vec<VertexId> = ids
            .iter()
            .enumerate()
            .filter(|&(local, _)| after.core_number(local as u32) > cd.core_number(local as u32))
            .map(|(_, &orig)| orig)
            .collect();
        assert_eq!(promoted, expect);
    }
}

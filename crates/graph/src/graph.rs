//! The CSR undirected graph every PCS algorithm runs against.
//!
//! Vertices are dense `u32` ids in `0..n`. Edges are undirected, stored
//! twice (once per endpoint) in a compressed-sparse-row layout: one
//! `offsets` array of length `n + 1` and one flat `neighbors` array of
//! length `2m`, with each adjacency list sorted. Self-loops and duplicate
//! edges are removed at construction.

use crate::{GraphError, Result};

/// Dense vertex identifier.
pub type VertexId = u32;

/// An immutable undirected graph in CSR form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
}

impl Graph {
    /// Builds a graph with `n` vertices from an edge list.
    ///
    /// Self-loops and duplicate (including reversed-duplicate) edges are
    /// dropped. Returns [`GraphError::VertexOutOfRange`] if an endpoint
    /// is `>= n`.
    ///
    /// ```
    /// use pcs_graph::Graph;
    /// let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 1), (1, 2)]).unwrap();
    /// assert_eq!(g.num_edges(), 2); // duplicate and self-loop removed
    /// assert_eq!(g.neighbors(1), &[0, 2]);
    /// ```
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Result<Self> {
        for &(a, b) in edges {
            for v in [a, b] {
                if v as usize >= n {
                    return Err(GraphError::VertexOutOfRange { vertex: v as u64, n });
                }
            }
        }
        let mut builder = GraphBuilder::new(n);
        for &(a, b) in edges {
            builder.add_edge(a, b);
        }
        Ok(builder.build())
    }

    /// Adopts prebuilt CSR arrays, validating every structural
    /// invariant first (see [`Graph::validate`]).
    ///
    /// Unlike [`Graph::from_edges`], nothing is silently canonicalized:
    /// a self-loop, duplicate edge, unsorted adjacency list, or
    /// asymmetric half-edge is rejected with
    /// [`GraphError::MalformedGraph`]. Use this when ingesting
    /// externally produced layouts (mmap'd files, wire formats) where
    /// silent repair would hide upstream corruption.
    pub fn from_csr(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Result<Self> {
        let g = Graph { offsets, neighbors };
        g.validate()?;
        Ok(g)
    }

    /// Adopts CSR arrays whose invariants are guaranteed by
    /// construction (e.g. [`crate::DynamicGraph::to_graph`]).
    pub(crate) fn from_csr_unchecked(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        let g = Graph { offsets, neighbors };
        debug_assert!(g.validate().is_ok(), "from_csr_unchecked received a malformed layout");
        g
    }

    /// Test-only corruption hook: adopts CSR arrays with **no**
    /// validation and no debug assertion, so the `debug-invariants`
    /// mutation tests can seed deliberately malformed layouts
    /// (asymmetric half-edges, unsorted lists) and assert that
    /// `verify_deep` catches them. Never use outside those tests.
    #[cfg(feature = "debug-invariants")]
    pub fn from_csr_unvalidated_for_test(offsets: Vec<usize>, neighbors: Vec<VertexId>) -> Self {
        Graph { offsets, neighbors }
    }

    /// Checks the CSR structural invariants: a monotone offset array
    /// bounding `neighbors` exactly, in-range endpoints, sorted
    /// duplicate-free adjacency lists, no self-loops, and symmetric
    /// half-edges. O(n + m). Always `Ok` for graphs built through
    /// [`Graph::from_edges`] / [`GraphBuilder`]; exists so adopters of
    /// foreign layouts ([`Graph::from_csr`], engine builders, snapshot
    /// loaders) can reject corrupt input instead of silently indexing
    /// it.
    pub fn validate(&self) -> Result<()> {
        let malformed = |detail: String| GraphError::MalformedGraph { detail };
        if self.offsets.is_empty() {
            return Err(malformed("offsets array is empty".into()));
        }
        if self.offsets[0] != 0 || *self.offsets.last().unwrap() != self.neighbors.len() {
            return Err(malformed(format!(
                "offsets must span [0, {}], got [{}, {}]",
                self.neighbors.len(),
                self.offsets[0],
                self.offsets.last().unwrap()
            )));
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(malformed("offsets array is not monotone".into()));
        }
        let n = self.num_vertices();
        for v in 0..n as VertexId {
            let list = self.neighbors(v);
            for pair in list.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(malformed(format!(
                        "adjacency list of {v} is unsorted or holds a duplicate edge"
                    )));
                }
            }
            for &u in list {
                if u as usize >= n {
                    return Err(GraphError::VertexOutOfRange { vertex: u as u64, n });
                }
                if u == v {
                    return Err(malformed(format!("self-loop at vertex {v}")));
                }
            }
        }
        // Symmetry in one linear sweep: visiting half-edges (v, u) in
        // ascending v (and, within v, ascending u) order means the
        // reverse entries (u, v) of each u's sorted list are consumed
        // in exactly list order — so a per-vertex cursor either matches
        // every reverse half-edge, or the layout is asymmetric. Every
        // entry is consumed exactly once because both sides of the
        // comparison are the same 2m entries.
        let mut cursor: Vec<usize> = self.offsets[..n].to_vec();
        for v in 0..n as VertexId {
            for &u in self.neighbors(v) {
                let cu = cursor[u as usize];
                if cu >= self.offsets[u as usize + 1] || self.neighbors[cu] != v {
                    return Err(malformed(format!("half-edge {v}->{u} has no reverse")));
                }
                cursor[u as usize] = cu + 1;
            }
        }
        Ok(())
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// True when the undirected edge `{a, b}` exists.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over each undirected edge exactly once, as `(a, b)` with
    /// `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |v| {
            self.neighbors(v).iter().copied().filter(move |&u| v < u).map(move |u| (v, u))
        })
    }

    /// Average degree `2m / n` (0.0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        let n = self.num_vertices();
        if n == 0 {
            0.0
        } else {
            self.neighbors.len() as f64 / n as f64
        }
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The raw CSR offset array (`n + 1` entries spanning
    /// [`Graph::csr_neighbors`]). Together with `csr_neighbors` this is
    /// the graph's entire persistent state: a snapshot writer can dump
    /// both arrays verbatim and hand them back to [`Graph::from_csr`],
    /// which re-validates every structural invariant on the way in.
    #[inline]
    pub fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The raw flat neighbor array (`2m` entries, each adjacency list
    /// sorted). See [`Graph::csr_offsets`].
    #[inline]
    pub fn csr_neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Returns the subgraph induced by `keep` together with the mapping
    /// from new ids to original ids.
    ///
    /// `keep` may be in any order and may contain duplicates; the result
    /// relabels the retained vertices densely in sorted-original order.
    pub fn induced_subgraph(&self, keep: &[VertexId]) -> (Graph, Vec<VertexId>) {
        let mut old_ids: Vec<VertexId> = keep.to_vec();
        old_ids.sort_unstable();
        old_ids.dedup();
        let sub = self.induced_subgraph_sorted(&old_ids, &mut Vec::new());
        (sub, old_ids)
    }

    /// The subgraph induced by `keep` (sorted, duplicate-free; new id
    /// `i` is `keep[i]`) over the caller's relabel map, indexed by host
    /// id. The map must be all zero on entry (an empty one is replaced
    /// by a zeroed allocation) and is all zero again on return, so one
    /// map serves any number of calls, each in O(|keep| + Σ host degree
    /// of `keep`): no term in the host's vertex count.
    pub fn induced_subgraph_sorted(&self, keep: &[VertexId], relabel: &mut Vec<u32>) -> Graph {
        debug_assert!(keep.windows(2).all(|w| w[0] < w[1]), "keep must be sorted and unique");
        if relabel.len() < self.num_vertices() {
            *relabel = vec![0; self.num_vertices()];
        }
        for (new, &old) in keep.iter().enumerate() {
            relabel[old as usize] = new as u32 + 1;
        }
        // Direct CSR assembly: kept ids ascend and the host adjacency
        // lists are sorted, so each filtered, relabeled list comes out
        // sorted and symmetry/loop-freedom are inherited — one linear
        // pass over the kept adjacency, no edge-list sort. Branch-free:
        // each entry is stored, and kept (map entry `new id + 1`) only
        // when the cursor moves past it.
        let upper: usize = keep.iter().map(|&old| self.degree(old)).sum();
        let mut offsets = Vec::with_capacity(keep.len() + 1);
        offsets.push(0usize);
        let mut neighbors = vec![0 as VertexId; upper];
        let mut len = 0;
        for &old in keep {
            for &nb in self.neighbors(old) {
                let id = relabel[nb as usize];
                neighbors[len] = id.wrapping_sub(1);
                len += usize::from(id != 0);
            }
            offsets.push(len);
        }
        neighbors.truncate(len);
        for &old in keep {
            relabel[old as usize] = 0;
        }
        Graph::from_csr_unchecked(offsets, neighbors)
    }
}

/// Incremental builder producing a [`Graph`].
///
/// Collects raw edges, then sorts, deduplicates, and lays out CSR arrays
/// in [`GraphBuilder::build`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder { n, edges: Vec::new() }
    }

    /// Number of vertices the graph will have.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Grows the vertex count to at least `n`.
    pub fn grow_to(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    /// Adds the undirected edge `{a, b}`. Self-loops are ignored;
    /// duplicates are removed at build time. Endpoints beyond the current
    /// vertex count grow the graph.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) {
        if a == b {
            return;
        }
        self.grow_to(a.max(b) as usize + 1);
        self.edges.push(if a < b { (a, b) } else { (b, a) });
    }

    /// Number of (possibly duplicate) edges added so far.
    pub fn num_edges_raw(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the CSR layout.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut degree = vec![0usize; self.n];
        for &(a, b) in &self.edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as VertexId; acc];
        for &(a, b) in &self.edges {
            neighbors[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            neighbors[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        // Each adjacency list is sorted because edges were globally
        // sorted by (min, max) and written in order for the `a` side; the
        // `b` side also receives strictly increasing partners.
        debug_assert!((0..self.n).all(|v| {
            let s = &neighbors[offsets[v]..offsets[v + 1]];
            s.windows(2).all(|w| w[0] < w[1])
        }));
        Graph { offsets, neighbors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = Graph::from_edges(5, &[(0, 1)]).unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(4).is_empty());
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let err = Graph::from_edges(2, &[(0, 2)]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 2, n: 2 });
    }

    #[test]
    fn dedup_and_self_loop_removal() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]).unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn adjacency_sorted_and_symmetric() {
        let g = Graph::from_edges(5, &[(3, 1), (3, 0), (3, 4), (1, 0), (4, 0)]).unwrap();
        assert_eq!(g.neighbors(3), &[0, 1, 4]);
        assert_eq!(g.neighbors(0), &[1, 3, 4]);
        for (a, b) in g.edges() {
            assert!(g.has_edge(a, b));
            assert!(g.has_edge(b, a));
        }
    }

    #[test]
    fn edges_iterator_unique() {
        let g = path(4);
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn degrees_and_avg() {
        let g = path(3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert!((g.avg_degree() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn induced_subgraph_relabels() {
        // Triangle 0-1-2 plus pendant 3 on 2.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
        let (sub, ids) = g.induced_subgraph(&[2, 0, 1, 2]);
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert!(sub.has_edge(0, 1) && sub.has_edge(1, 2) && sub.has_edge(0, 2));
    }

    #[test]
    fn induced_subgraph_drops_outside_edges() {
        let g = path(4);
        let (sub, ids) = g.induced_subgraph(&[0, 2, 3]);
        assert_eq!(ids, vec![0, 2, 3]);
        assert_eq!(sub.num_edges(), 1); // only 2-3 survives
        assert!(sub.has_edge(1, 2)); // new ids of old 2,3
    }

    #[test]
    fn from_csr_accepts_canonical_layout() {
        let g = path(4);
        let rebuilt = Graph::from_csr(g.offsets.clone(), g.neighbors.clone()).unwrap();
        assert_eq!(rebuilt, g);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn from_csr_rejects_self_loops_duplicates_and_asymmetry() {
        // Self-loop at vertex 0.
        let err = Graph::from_csr(vec![0, 1, 1], vec![0]).unwrap_err();
        assert!(matches!(err, GraphError::MalformedGraph { .. }), "{err}");
        assert!(err.to_string().contains("self-loop"));
        // Duplicate edge 0-1 stored twice on one side.
        let err = Graph::from_csr(vec![0, 2, 4], vec![1, 1, 0, 0]).unwrap_err();
        assert!(err.to_string().contains("duplicate") || err.to_string().contains("unsorted"));
        // Half-edge without its reverse.
        let err = Graph::from_csr(vec![0, 1, 1], vec![1]).unwrap_err();
        assert!(err.to_string().contains("reverse"));
        // Offsets not spanning the neighbor array.
        assert!(Graph::from_csr(vec![0, 1], vec![]).is_err());
        // Out-of-range endpoint.
        let err = Graph::from_csr(vec![0, 1, 2], vec![5, 0]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: 5, n: 2 }));
    }

    #[test]
    fn builder_grow_and_contains() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(5, 2);
        assert_eq!(b.num_vertices(), 6);
        assert_eq!(b.num_edges_raw(), 1);
        let g = b.build();
        assert_eq!(g.num_vertices(), 6);
        assert!(g.has_edge(5, 2));
    }
}

//! k-core decomposition and localized k-core extraction.
//!
//! Two engines live here:
//!
//! * [`CoreDecomposition`] — the O(m) bucket-peeling algorithm of
//!   Batagelj & Zaversnik computing the *core number* of every vertex of
//!   the whole graph, plus connected k-ĉore extraction (`k-ĉore` is the
//!   paper's notation for a connected component of the k-core).
//! * [`SubsetCore`] — repeated, allocation-free computation of the
//!   connected k-core containing a query vertex **restricted to an
//!   arbitrary candidate vertex subset**. This is the verification
//!   primitive `Gk[T]` that every PCS algorithm calls thousands of times
//!   per query. Its only per-vertex state is one bit and one degree per
//!   vertex; each call clears the bits it set before it returns, so a
//!   verification costs O(candidate edges), never O(n).

use crate::graph::{Graph, VertexId};

/// Core numbers for every vertex of a graph.
///
/// The core number of `v` is the largest `k` such that `v` belongs to
/// the k-core (the largest subgraph with minimum degree ≥ k).
#[derive(Clone, Debug)]
pub struct CoreDecomposition {
    core: Vec<u32>,
    max_core: u32,
}

impl CoreDecomposition {
    /// Runs the Batagelj–Zaversnik bucket-peeling algorithm in O(n + m).
    pub fn new(g: &Graph) -> Self {
        let n = g.num_vertices();
        if n == 0 {
            return CoreDecomposition { core: Vec::new(), max_core: 0 };
        }
        let mut degree: Vec<u32> = (0..n).map(|v| g.degree(v as u32) as u32).collect();
        let max_deg = *degree.iter().max().unwrap() as usize;

        // Bucket sort vertices by degree (`u32` bins and positions).
        let mut bin = vec![0u32; max_deg + 2];
        for &d in &degree {
            bin[d as usize] += 1;
        }
        let mut start = 0u32;
        for b in bin.iter_mut() {
            let count = *b;
            *b = start;
            start += count;
        }
        let mut vert = vec![0 as VertexId; n]; // vertices in degree order
        let mut pos = vec![0u32; n]; // position of each vertex in `vert`
        {
            let mut cursor = bin.clone();
            for v in 0..n {
                let d = degree[v] as usize;
                pos[v] = cursor[d];
                vert[cursor[d] as usize] = v as u32;
                cursor[d] += 1;
            }
        }

        // Peel in non-decreasing degree order, decrementing neighbours.
        // `v`'s degree is final when reached; `u` moves to its bin's
        // head `w` by an unconditional swap (a no-op when `u == w`).
        for i in 0..n {
            let v = vert[i];
            let dv = degree[v as usize];
            for &u in g.neighbors(v) {
                let du = degree[u as usize];
                if du > dv {
                    let pu = pos[u as usize];
                    let pw = bin[du as usize];
                    let w = vert[pw as usize];
                    vert[pu as usize] = w;
                    vert[pw as usize] = u;
                    pos[u as usize] = pw;
                    pos[w as usize] = pu;
                    bin[du as usize] += 1;
                    degree[u as usize] = du - 1;
                }
            }
        }
        let max_core = *degree.iter().max().unwrap();
        CoreDecomposition { core: degree, max_core }
    }

    /// Adopts an externally maintained core-number array (e.g. one kept
    /// up to date by [`crate::IncrementalCores`] across edge updates),
    /// recomputing only the cached maximum. O(n).
    pub fn from_core_numbers(core: Vec<u32>) -> Self {
        let max_core = core.iter().copied().max().unwrap_or(0);
        CoreDecomposition { core, max_core }
    }

    /// Core number of `v`.
    #[inline]
    pub fn core_number(&self, v: VertexId) -> u32 {
        self.core[v as usize]
    }

    /// Slice of all core numbers, indexed by vertex id.
    #[inline]
    pub fn core_numbers(&self) -> &[u32] {
        &self.core
    }

    /// The degeneracy of the graph (largest non-empty core level).
    #[inline]
    pub fn max_core(&self) -> u32 {
        self.max_core
    }

    /// All vertices of the k-core, sorted.
    pub fn kcore_vertices(&self, k: u32) -> Vec<VertexId> {
        (0..self.core.len() as u32).filter(|&v| self.core[v as usize] >= k).collect()
    }

    /// The connected k-ĉore containing `q`: the connected component of
    /// `q` in the subgraph induced by vertices with core number ≥ k.
    /// Returns a sorted vertex list, or `None` when `core(q) < k`.
    pub fn kcore_component(&self, g: &Graph, q: VertexId, k: u32) -> Option<Vec<VertexId>> {
        if (q as usize) >= self.core.len() || self.core[q as usize] < k {
            return None;
        }
        let mut visited = vec![false; self.core.len()];
        let mut queue = vec![q];
        visited[q as usize] = true;
        let mut out = Vec::new();
        while let Some(v) = queue.pop() {
            out.push(v);
            for &u in g.neighbors(v) {
                if !visited[u as usize] && self.core[u as usize] >= k {
                    visited[u as usize] = true;
                    queue.push(u);
                }
            }
        }
        out.sort_unstable();
        Some(out)
    }
}

/// Reusable engine computing `Gk[·]`: the connected k-core containing a
/// query vertex inside an arbitrary candidate subset.
///
/// State is sized once for the host graph: one bit per vertex (set while
/// the vertex is a live, unvisited candidate) and one degree per vertex.
/// Every call leaves all bits clear on return, having cleared only the
/// words its candidates touched, so repeated verification (the PCS hot
/// loop) performs zero allocation beyond the returned community vector.
#[derive(Clone, Debug)]
pub struct SubsetCore {
    /// Bit `v` is set iff `v` is a candidate not yet peeled (during the
    /// peel) or not yet reached (during the BFS).
    live: Vec<u64>,
    deg: Vec<u32>,
    peel: Vec<VertexId>,
    bfs: Vec<VertexId>,
}

/// The word of `v`'s bit, and the bit within it.
#[inline]
fn slot(v: VertexId) -> (usize, u64) {
    (v as usize >> 6, 1 << (v & 63))
}

impl SubsetCore {
    /// Creates scratch state for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        SubsetCore {
            live: vec![0; n.div_ceil(64)],
            deg: vec![0; n],
            peel: Vec::new(),
            bfs: Vec::new(),
        }
    }

    #[inline]
    fn is_live(&self, v: VertexId) -> bool {
        let (w, bit) = slot(v);
        self.live[w] & bit != 0
    }

    /// Clears `v`'s bit; true if it was set.
    #[inline]
    fn take(&mut self, v: VertexId) -> bool {
        let (w, bit) = slot(v);
        let was = self.live[w] & bit != 0;
        self.live[w] &= !bit;
        was
    }

    /// Restores the all-clear invariant: only candidates' words can
    /// hold a set bit.
    fn clear(&mut self, candidates: &[VertexId]) {
        for &v in candidates {
            self.live[slot(v).0] = 0;
        }
    }

    /// Computes the connected k-core containing `q` within `candidates`.
    ///
    /// Semantics: take the subgraph of `g` induced by `candidates`,
    /// repeatedly delete vertices of degree < `k`, then return the
    /// connected component of `q` (sorted), or `None` if `q` was deleted
    /// or absent.
    ///
    /// Cost: O(Σ degree over candidates); independent of `g`'s size.
    pub fn kcore_component_within(
        &mut self,
        g: &Graph,
        candidates: &[VertexId],
        q: VertexId,
        k: u32,
    ) -> Option<Vec<VertexId>> {
        for &v in candidates {
            let (w, bit) = slot(v);
            self.live[w] |= bit;
        }
        let out = self.peel_and_search(g, candidates, q, k);
        self.clear(candidates);
        out
    }

    /// The peel and the BFS of [`Self::kcore_component_within`], over
    /// the candidate bits the caller set and will clear.
    fn peel_and_search(
        &mut self,
        g: &Graph,
        candidates: &[VertexId],
        q: VertexId,
        k: u32,
    ) -> Option<Vec<VertexId>> {
        if !self.is_live(q) {
            return None;
        }
        // `q` survives the peel only if it starts with k candidate
        // neighbours: a cheap screen that many infeasible sets fail.
        // Branch-free on liveness, which a branch would mispredict:
        // it is added or subtracted as an integer, and the queue stores
        // every candidate but advances only past those with `d < k`.
        let live_degree = |sc: &Self, v: VertexId| -> u32 {
            g.neighbors(v).iter().map(|&u| u32::from(sc.is_live(u))).sum()
        };
        if live_degree(self, q) < k {
            return None;
        }
        // Degrees restricted to the candidate set.
        self.peel.clear();
        self.peel.resize(candidates.len(), 0);
        let mut queued = 0;
        for &v in candidates {
            let d = live_degree(self, v);
            self.deg[v as usize] = d;
            self.peel[queued] = v;
            queued += usize::from(d < k);
        }
        self.peel.truncate(queued);
        // Iteratively peel under-degree vertices.
        while let Some(v) = self.peel.pop() {
            if !self.take(v) {
                continue; // candidates may contain duplicates
            }
            if v == q {
                return None;
            }
            for &u in g.neighbors(v) {
                let live = u32::from(self.is_live(u));
                let d = self.deg[u as usize].wrapping_sub(live);
                self.deg[u as usize] = d;
                if (live != 0) & (d == k.wrapping_sub(1)) {
                    self.peel.push(u);
                }
            }
        }
        // BFS for the component of q among survivors; reaching a vertex
        // clears its bit, so the bit doubles as "not visited yet".
        self.take(q);
        self.bfs.clear();
        self.bfs.push(q);
        let mut out = Vec::new();
        while let Some(v) = self.bfs.pop() {
            out.push(v);
            for &u in g.neighbors(v) {
                if self.take(u) {
                    self.bfs.push(u);
                }
            }
        }
        out.sort_unstable();
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Naive reference: repeatedly delete vertices with degree < k.
    fn naive_kcore(g: &Graph, k: u32) -> Vec<bool> {
        let n = g.num_vertices();
        let mut alive = vec![true; n];
        loop {
            let mut changed = false;
            for v in 0..n as u32 {
                if alive[v as usize] {
                    let d = g.neighbors(v).iter().filter(|&&u| alive[u as usize]).count() as u32;
                    if d < k {
                        alive[v as usize] = false;
                        changed = true;
                    }
                }
            }
            if !changed {
                return alive;
            }
        }
    }

    fn figure1_graph() -> Graph {
        // The paper's Fig. 1(a)/Fig. 4(a) topology: vertices A..H = 0..7.
        // {A,B,D,E} is a 3-ĉore; adding C gives a 2-ĉore; {F,G,H} is a
        // separate 2-ĉore bridged to the rest via E-F and D-G... we
        // follow Example 1: {A,B,D,E} 3-ĉore, {A,B,C,D,E} 2-ĉore,
        // {F,G,H} triangle 2-ĉore, bridge E-F.
        Graph::from_edges(
            8,
            &[
                (0, 1), // A-B
                (0, 3), // A-D
                (0, 4), // A-E
                (1, 3), // B-D
                (1, 4), // B-E
                (3, 4), // D-E
                (1, 2), // B-C
                (2, 3), // C-D
                (4, 5), // E-F
                (5, 6), // F-G
                (5, 7), // F-H
                (6, 7), // G-H
            ],
        )
        .unwrap()
    }

    #[test]
    fn example1_core_numbers() {
        let g = figure1_graph();
        let cd = CoreDecomposition::new(&g);
        // A,B,D,E form a clique of 4 => core 3.
        for v in [0u32, 1, 3, 4] {
            assert_eq!(cd.core_number(v), 3, "vertex {v}");
        }
        assert_eq!(cd.core_number(2), 2); // C
        for v in [5u32, 6, 7] {
            assert_eq!(cd.core_number(v), 2, "vertex {v}");
        }
        assert_eq!(cd.max_core(), 3);
    }

    #[test]
    fn example1_kcore_components() {
        let g = figure1_graph();
        let cd = CoreDecomposition::new(&g);
        // 3-ĉore of D = {A,B,D,E}.
        assert_eq!(cd.kcore_component(&g, 3, 3).unwrap(), vec![0, 1, 3, 4]);
        // 2-ĉore of C = {A,B,C,D,E,F,G,H}: E-F bridge keeps them
        // connected at k=2 since every vertex has core >= 2.
        let comp2 = cd.kcore_component(&g, 2, 2).unwrap();
        assert_eq!(comp2, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // 4-ĉore does not exist.
        assert!(cd.kcore_component(&g, 0, 4).is_none());
    }

    #[test]
    fn zero_core_is_connected_component() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        let cd = CoreDecomposition::new(&g);
        assert_eq!(cd.kcore_component(&g, 0, 0).unwrap(), vec![0, 1]);
        assert_eq!(cd.kcore_component(&g, 3, 0).unwrap(), vec![3]);
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        for trial in 0..20 {
            let n = 30 + trial;
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.15) {
                        edges.push((a, b));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges).unwrap();
            let cd = CoreDecomposition::new(&g);
            for k in 0..=cd.max_core() + 1 {
                let alive = naive_kcore(&g, k);
                for v in 0..n as u32 {
                    assert_eq!(cd.core_number(v) >= k, alive[v as usize], "n={n} k={k} v={v}");
                }
            }
        }
    }

    #[test]
    fn empty_graph_decomposition() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let cd = CoreDecomposition::new(&g);
        assert_eq!(cd.max_core(), 0);
        assert!(cd.kcore_vertices(0).is_empty());
        assert!(cd.kcore_component(&g, 0, 0).is_none());
    }

    #[test]
    fn subset_core_full_set_matches_global() {
        let g = figure1_graph();
        let cd = CoreDecomposition::new(&g);
        let mut sc = SubsetCore::new(g.num_vertices());
        let all: Vec<u32> = g.vertices().collect();
        for q in g.vertices() {
            for k in 0..=4 {
                let global = cd.kcore_component(&g, q, k);
                let local = sc.kcore_component_within(&g, &all, q, k);
                assert_eq!(global, local, "q={q} k={k}");
            }
        }
    }

    #[test]
    fn subset_core_restricted() {
        let g = figure1_graph();
        let mut sc = SubsetCore::new(g.num_vertices());
        // Restrict to {A,B,D,E,C}: 3-core survives as {A,B,D,E}.
        let cand = vec![0, 1, 2, 3, 4];
        assert_eq!(sc.kcore_component_within(&g, &cand, 3, 3).unwrap(), vec![0, 1, 3, 4]);
        // C peels off at k=3, so querying from C fails.
        assert!(sc.kcore_component_within(&g, &cand, 2, 3).is_none());
        // q not in candidate set.
        assert!(sc.kcore_component_within(&g, &[0, 1], 5, 0).is_none());
    }

    #[test]
    fn subset_core_disconnected_candidates() {
        let g = figure1_graph();
        let mut sc = SubsetCore::new(g.num_vertices());
        // Two triangles far apart: component of q only.
        let cand = vec![0, 1, 3, 5, 6, 7]; // A,B,D + F,G,H (A-B-D triangle)
        let got = sc.kcore_component_within(&g, &cand, 6, 2).unwrap();
        assert_eq!(got, vec![5, 6, 7]);
        let got = sc.kcore_component_within(&g, &cand, 0, 2).unwrap();
        assert_eq!(got, vec![0, 1, 3]);
    }

    #[test]
    fn subset_core_duplicate_candidates_ok() {
        let g = figure1_graph();
        let mut sc = SubsetCore::new(g.num_vertices());
        let cand = vec![0, 0, 1, 1, 3, 3, 4];
        let got = sc.kcore_component_within(&g, &cand, 0, 3).unwrap();
        assert_eq!(got, vec![0, 1, 3, 4]);
    }

    #[test]
    fn subset_core_k_zero_isolated_query() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let mut sc = SubsetCore::new(3);
        assert_eq!(sc.kcore_component_within(&g, &[2], 2, 0).unwrap(), vec![2]);
        assert!(sc.kcore_component_within(&g, &[2], 2, 1).is_none());
    }

    #[test]
    fn subset_core_randomized_against_naive() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..30 {
            let n = 25;
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.2) {
                        edges.push((a, b));
                    }
                }
            }
            let g = Graph::from_edges(n, &edges).unwrap();
            let cand: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.7)).collect();
            if cand.is_empty() {
                continue;
            }
            let q = cand[rng.gen_range(0..cand.len())];
            let k = rng.gen_range(0..4);
            let (sub, ids) = g.induced_subgraph(&cand);
            let cd = CoreDecomposition::new(&sub);
            let q_new = ids.binary_search(&q).unwrap() as u32;
            let expected = cd
                .kcore_component(&sub, q_new, k)
                .map(|c| c.into_iter().map(|v| ids[v as usize]).collect::<Vec<_>>());
            let mut sc = SubsetCore::new(n);
            let got = sc.kcore_component_within(&g, &cand, q, k);
            assert_eq!(got, expected);
        }
    }
}

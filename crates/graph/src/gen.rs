//! Seeded random-graph primitives.
//!
//! [`connectify`] is the one `pcs-datasets` uses: it links the
//! components of a generated profiled graph so every vertex reaches
//! vertex 0. [`preferential_attachment`] (Barabási–Albert: power-law
//! degrees like co-authorship and follower networks) builds test
//! graphs.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::graph::{Graph, GraphBuilder, VertexId};
use crate::hash::FxHashSet;

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m_attach` existing vertices chosen proportionally to degree.
///
/// Produces the heavy-tailed degree distributions of real collaboration
/// and follower networks, with average degree ≈ `2 · m_attach`.
pub fn preferential_attachment(n: usize, m_attach: usize, seed: u64) -> Graph {
    assert!(m_attach >= 1, "m_attach must be positive");
    assert!(n > m_attach, "need more vertices than attachment count");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(n);
    // `targets` holds one entry per edge endpoint => sampling uniformly
    // from it is degree-proportional sampling.
    let mut targets: Vec<VertexId> = Vec::with_capacity(2 * n * m_attach);
    // Seed clique over the first m_attach + 1 vertices.
    for a in 0..=(m_attach as u32) {
        for b in (a + 1)..=(m_attach as u32) {
            builder.add_edge(a, b);
            targets.push(a);
            targets.push(b);
        }
    }
    for v in (m_attach as u32 + 1)..n as u32 {
        let mut chosen: FxHashSet<VertexId> = FxHashSet::default();
        let mut guard = 0;
        while chosen.len() < m_attach && guard < 50 * m_attach {
            let t = targets[rng.gen_range(0..targets.len())];
            chosen.insert(t);
            guard += 1;
        }
        // Extremely unlikely fallback: fill with arbitrary earlier ids.
        let mut fill = 0u32;
        while chosen.len() < m_attach {
            chosen.insert(fill);
            fill += 1;
        }
        for &t in &chosen {
            builder.add_edge(v, t);
            targets.push(v);
            targets.push(t);
        }
    }
    builder.build()
}

/// Ensures every vertex of `g` reaches vertex 0 by linking component
/// representatives to random already-connected vertices. Returns the
/// (possibly) augmented graph.
pub fn connectify(g: &Graph, seed: u64) -> Graph {
    let (labels, count) = crate::components::connected_components(g);
    if count <= 1 {
        return g.clone();
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::new(g.num_vertices());
    for (a, b) in g.edges() {
        builder.add_edge(a, b);
    }
    let mut reps: Vec<VertexId> = Vec::with_capacity(count);
    let mut seen = vec![false; count];
    for v in 0..g.num_vertices() as u32 {
        let l = labels[v as usize] as usize;
        if !seen[l] {
            seen[l] = true;
            reps.push(v);
        }
    }
    reps.shuffle(&mut rng);
    for w in reps.windows(2) {
        builder.add_edge(w[0], w[1]);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components;

    #[test]
    fn preferential_attachment_shape() {
        let g = preferential_attachment(500, 3, 9);
        assert_eq!(g.num_vertices(), 500);
        // avg degree ~ 2 * m_attach.
        assert!((g.avg_degree() - 6.0).abs() < 1.0, "avg {}", g.avg_degree());
        // Heavy tail: max degree far above average.
        assert!(g.max_degree() > 20, "max {}", g.max_degree());
        // Single connected component by construction.
        let (_, count) = connected_components(&g);
        assert_eq!(count, 1);
    }

    #[test]
    fn connectify_produces_single_component() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]).unwrap();
        let g2 = connectify(&g, 7);
        let (_, count) = connected_components(&g2);
        assert_eq!(count, 1);
        // Existing edges preserved.
        assert!(g2.has_edge(0, 1) && g2.has_edge(2, 3) && g2.has_edge(4, 5));
    }

    #[test]
    fn connectify_noop_when_connected() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(connectify(&g, 1), g);
    }
}

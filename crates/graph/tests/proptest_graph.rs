//! Property tests for the graph substrate.

use pcs_graph::core::{CoreDecomposition, SubsetCore};
use pcs_graph::{connected_components, Graph};
use proptest::prelude::*;

/// Strategy: a random edge list over up to 24 vertices.
fn edges_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4usize..24).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..n * 3))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_is_symmetric_sorted_and_loop_free((n, raw) in edges_strategy()) {
        let g = Graph::from_edges(n, &raw).unwrap();
        for v in g.vertices() {
            let nbrs = g.neighbors(v);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "unsorted adjacency");
            for &u in nbrs {
                prop_assert_ne!(u, v, "self loop survived");
                prop_assert!(g.neighbors(u).binary_search(&v).is_ok(), "asymmetric edge");
            }
        }
        prop_assert_eq!(g.edges().count(), g.num_edges());
        let deg_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(deg_sum, 2 * g.num_edges());
    }

    #[test]
    fn core_numbers_characterize_kcores((n, raw) in edges_strategy()) {
        let g = Graph::from_edges(n, &raw).unwrap();
        let cd = CoreDecomposition::new(&g);
        // Within the k-core, every member has >= k neighbours in it.
        for k in 0..=cd.max_core() {
            let members = cd.kcore_vertices(k);
            for &v in &members {
                let deg = g
                    .neighbors(v)
                    .iter()
                    .filter(|u| members.binary_search(u).is_ok())
                    .count();
                prop_assert!(deg >= k as usize, "v={v} k={k}");
            }
        }
        // max_core+1 is empty.
        prop_assert!(cd.kcore_vertices(cd.max_core() + 1).is_empty());
    }

    #[test]
    fn subset_core_on_component_respects_membership((n, raw) in edges_strategy()) {
        let g = Graph::from_edges(n, &raw).unwrap();
        let mut sc = SubsetCore::new(n);
        let all: Vec<u32> = g.vertices().collect();
        for q in g.vertices().take(5) {
            for k in 0..3u32 {
                if let Some(comm) = sc.kcore_component_within(&g, &all, q, k) {
                    prop_assert!(comm.binary_search(&q).is_ok());
                    prop_assert!(pcs_graph::components::is_connected_subset(&g, &comm));
                    for &v in &comm {
                        let deg = g
                            .neighbors(v)
                            .iter()
                            .filter(|u| comm.binary_search(u).is_ok())
                            .count();
                        prop_assert!(deg >= k as usize);
                    }
                }
            }
        }
    }

    #[test]
    fn components_partition_vertices((n, raw) in edges_strategy()) {
        let g = Graph::from_edges(n, &raw).unwrap();
        let (labels, count) = connected_components(&g);
        prop_assert_eq!(labels.len(), n);
        prop_assert!(labels.iter().all(|&l| (l as usize) < count));
        // Adjacent vertices share a label.
        for (a, b) in g.edges() {
            prop_assert_eq!(labels[a as usize], labels[b as usize]);
        }
    }

    #[test]
    fn induced_subgraph_edge_subset((n, raw) in edges_strategy(), keep_mask in any::<u64>()) {
        let g = Graph::from_edges(n, &raw).unwrap();
        let keep: Vec<u32> = (0..n as u32).filter(|v| keep_mask & (1 << (v % 64)) != 0).collect();
        let (sub, ids) = g.induced_subgraph(&keep);
        prop_assert_eq!(sub.num_vertices(), ids.len());
        for (a, b) in sub.edges() {
            prop_assert!(g.has_edge(ids[a as usize], ids[b as usize]));
        }
        // Every original edge between kept vertices survives.
        for (a, b) in g.edges() {
            if let (Ok(i), Ok(j)) = (ids.binary_search(&a), ids.binary_search(&b)) {
                prop_assert!(sub.has_edge(i as u32, j as u32));
            }
        }
    }
}

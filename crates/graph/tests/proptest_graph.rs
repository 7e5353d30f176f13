//! Property tests for the graph substrate.

use std::collections::VecDeque;

use pcs_graph::core::{CoreDecomposition, SubsetCore};
use pcs_graph::{connected_components, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Strategy: a random edge list over up to 24 vertices.
fn edges_strategy() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (4usize..24).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..n * 3))
    })
}

/// The connected k-core of `q` inside `candidates`, computed the slow
/// way with nothing in common with `SubsetCore`: delete every candidate
/// with fewer than `k` live neighbours until none is left, then walk
/// breadth-first from `q` over the survivors.
fn reference_kcore(g: &Graph, candidates: &[u32], q: u32, k: u32) -> Option<Vec<u32>> {
    let mut alive = vec![false; g.num_vertices()];
    for &v in candidates {
        alive[v as usize] = true;
    }
    let live_degree = |alive: &[bool], v: u32| {
        g.neighbors(v).iter().filter(|&&u| alive[u as usize]).count() as u32
    };
    loop {
        let doomed: Vec<u32> =
            g.vertices().filter(|&v| alive[v as usize] && live_degree(&alive, v) < k).collect();
        if doomed.is_empty() {
            break;
        }
        for v in doomed {
            alive[v as usize] = false;
        }
    }
    if !alive[q as usize] {
        return None;
    }
    let mut seen = vec![false; g.num_vertices()];
    seen[q as usize] = true;
    let mut queue = VecDeque::from([q]);
    let mut out = Vec::new();
    while let Some(v) = queue.pop_front() {
        out.push(v);
        for &u in g.neighbors(v) {
            if alive[u as usize] && !seen[u as usize] {
                seen[u as usize] = true;
                queue.push_back(u);
            }
        }
    }
    out.sort_unstable();
    Some(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One `SubsetCore` answers 60 consecutive calls exactly like the
    /// reference, on graphs spanning several 64-bit words: a bit one call
    /// leaves set, on any of its return paths, shows up as a wrong answer
    /// in a later one.
    #[test]
    fn subset_core_matches_reference_across_reused_calls(
        n in 60usize..300,
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let m = rng.gen_range(n..4 * n);
        let edges: Vec<(u32, u32)> = (0..m)
            .map(|_| (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32)))
            .collect();
        let g = Graph::from_edges(n, &edges).unwrap();
        let mut sc = SubsetCore::new(n);
        for call in 0..60 {
            let keep = rng.gen_range(0.2..1.0);
            let mut candidates: Vec<u32> = g.vertices().filter(|_| rng.gen_bool(keep)).collect();
            let dups: Vec<u32> = (0..rng.gen_range(0..8usize))
                .filter_map(|_| candidates.choose(&mut rng).copied())
                .collect();
            candidates.extend(dups);
            candidates.shuffle(&mut rng);
            // Half the queries start inside the candidates; the rest at
            // any vertex, which may be absent.
            let q = match candidates.choose(&mut rng) {
                Some(&v) if rng.gen_bool(0.5) => v,
                _ => rng.gen_range(0..n as u32),
            };
            let k = rng.gen_range(0..=4u32);
            let want = reference_kcore(&g, &candidates, q, k);
            let got = sc.kcore_component_within(&g, &candidates, q, k);
            prop_assert_eq!(got, want, "call {} (n {}, q {}, k {})", call, n, q, k);
        }
    }

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

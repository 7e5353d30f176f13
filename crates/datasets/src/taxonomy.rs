//! Random GP-tree (taxonomy) generation.
//!
//! The ACM CCS used by ACMDL/Flickr/DBLP has 1 908 labels and MeSH has
//! 10 132 (Table 2); both are shallow, broad hierarchies. The generator
//! grows a tree to an exact label count with a bounded depth and a
//! fanout drawn per node, which reproduces the shape parameters the
//! algorithms are sensitive to (path lengths, branching of candidate
//! subtrees).

use pcs_ptree::Taxonomy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Grows a random taxonomy with exactly `labels` nodes (root included),
/// depth at most `max_depth`, and per-node fanout up to `max_children`.
///
/// Panics if `labels == 0` or the shape cannot hold that many labels.
pub fn random_taxonomy(labels: usize, max_depth: u32, max_children: usize, seed: u64) -> Taxonomy {
    assert!(labels >= 1, "need at least the root");
    assert!(max_children >= 1 && max_depth >= 1 || labels == 1);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut tax = Taxonomy::new("r");
    // Frontier of nodes that can still take children.
    let mut open: Vec<(u32, usize)> = vec![(Taxonomy::ROOT, 0)]; // (id, children so far)
    let mut next = 1usize;
    while next < labels {
        assert!(!open.is_empty(), "taxonomy shape exhausted: raise max_depth or max_children");
        // Pick a random open node, biased toward shallower nodes so the
        // tree stays broad like CCS/MeSH.
        let idx = rng.gen_range(0..open.len());
        let (parent, had) = open[idx];
        let id = tax.add_child(parent, &format!("L{next}")).expect("generated names are unique");
        next += 1;
        if tax.depth(id) < max_depth {
            open.push((id, 0));
        }
        if had + 1 >= max_children {
            open.swap_remove(idx);
        } else {
            open[idx].1 = had + 1;
        }
    }
    tax
}

/// CCS-like taxonomy: 1 908 labels, depth ≤ 5 (matching ACM CCS 2012).
pub fn ccs_like(seed: u64) -> Taxonomy {
    random_taxonomy(1908, 5, 14, seed)
}

/// MeSH-like taxonomy: 10 132 labels, depth ≤ 8.
pub fn mesh_like(seed: u64) -> Taxonomy {
    random_taxonomy(10_132, 8, 20, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_label_count() {
        for n in [1usize, 2, 10, 500] {
            let t = random_taxonomy(n, 6, 8, 42);
            assert_eq!(t.len(), n);
        }
    }

    #[test]
    fn depth_bound_respected() {
        let t = random_taxonomy(300, 3, 10, 7);
        assert!(t.max_depth() <= 3);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = random_taxonomy(100, 5, 6, 1);
        let b = random_taxonomy(100, 5, 6, 1);
        for id in 0..100u32 {
            assert_eq!(a.parent(id), b.parent(id));
        }
    }

    #[test]
    fn ccs_and_mesh_shapes() {
        let ccs = ccs_like(3);
        assert_eq!(ccs.len(), 1908);
        assert!(ccs.max_depth() <= 5);
        let mesh = mesh_like(3);
        assert_eq!(mesh.len(), 10_132);
        assert!(mesh.max_depth() <= 8);
    }

    #[test]
    fn fanout_bound_respected() {
        let t = random_taxonomy(200, 10, 3, 11);
        for id in 0..t.len() as u32 {
            assert!(t.children(id).len() <= 3, "node {id}");
        }
    }

    #[test]
    #[should_panic(expected = "shape exhausted")]
    fn impossible_shape_panics() {
        // Depth 1 with fanout 2 holds at most 3 labels.
        random_taxonomy(10, 1, 2, 0);
    }
}

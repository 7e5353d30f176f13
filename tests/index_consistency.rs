//! Cross-crate property tests for the CP-tree index: `get` on a cold
//! (facade-only) index must agree with a from-scratch computation on
//! arbitrary profiled graphs, and `restore_ptree` must restore every
//! profile exactly.

use pcs::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Test-only sorted-copy shim over the zero-copy `get_ref`.
trait GetSorted {
    fn get(&self, k: u32, q: VertexId, label: LabelId) -> Option<Vec<VertexId>>;
}

impl GetSorted for ShardedCpIndex {
    fn get(&self, k: u32, q: VertexId, label: LabelId) -> Option<Vec<VertexId>> {
        let mut out = self.get_ref(k, q, label)?.to_vec();
        out.sort_unstable();
        Some(out)
    }
}

fn random_instance(seed: u64) -> (Graph, Taxonomy, Vec<PTree>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let labels = rng.gen_range(4..=14usize);
    let mut tax = Taxonomy::new("r");
    let mut ids = vec![Taxonomy::ROOT];
    for i in 1..labels {
        let parent = ids[rng.gen_range(0..ids.len())];
        ids.push(tax.add_child(parent, &format!("n{i}")).unwrap());
    }
    let n = rng.gen_range(6..=22usize);
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            if rng.gen_bool(0.3) {
                edges.push((a, b));
            }
        }
    }
    let g = Graph::from_edges(n, &edges).unwrap();
    let profiles: Vec<PTree> = (0..n)
        .map(|_| {
            let count = rng.gen_range(0..=5usize);
            let picks: Vec<LabelId> =
                (0..count).map(|_| ids[rng.gen_range(0..ids.len())]).collect();
            PTree::from_labels(&tax, picks).unwrap()
        })
        .collect();
    (g, tax, profiles)
}

/// The production index as a query first meets it: facade only, every
/// shard materializing on its first probe.
fn cold_index(g: &Graph, tax: &Taxonomy, profiles: &[PTree]) -> ShardedCpIndex {
    use std::sync::Arc;
    ShardedCpIndex::build(Arc::new(g.clone()), tax, Arc::new(profiles.to_vec())).unwrap()
}

/// Drives a lazily materialized index and a from-scratch rebuild
/// through the same randomized churn, interleaving cold-shard probes
/// with patches, and pins the full query surface set-equal after every
/// effective batch.
fn patched_matches_rebuild_after_churn(seed: u64) -> Result<(), TestCaseError> {
    use std::sync::Arc;
    let (g, tax, mut profiles) = random_instance(seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5a5a);
    let mut dyn_g = DynamicGraph::from_graph(&g);
    let mut idx = ShardedCpIndex::build(Arc::new(g), &tax, Arc::new(profiles.clone()))
        .expect("valid instance");
    let label_ids: Vec<LabelId> = (0..tax.len() as LabelId).collect();
    for step in 0..14 {
        // Cold (or warm) probe between batches: a random label/vertex
        // pair, materializing on demand mid-stream.
        if step % 2 == 0 {
            let label = label_ids[rng.gen_range(0..label_ids.len())];
            let q = rng.gen_range(0..profiles.len() as u32);
            let _ = idx.get_ref(rng.gen_range(0..3), q, label);
        }
        let mut deltas = Vec::new();
        let mut reprofiled: Vec<u32> = Vec::new();
        for _ in 0..rng.gen_range(1..4) {
            let n = profiles.len() as u32;
            match rng.gen_range(0..3) {
                0 => {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if a != b && dyn_g.add_edge(a, b).unwrap() {
                        deltas.push(pcs::index::GraphDelta::EdgeAdded { u: a, v: b });
                    }
                }
                1 => {
                    let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if a != b && dyn_g.remove_edge(a, b).unwrap() {
                        deltas.push(pcs::index::GraphDelta::EdgeRemoved { u: a, v: b });
                    }
                }
                _ => {
                    let v = rng.gen_range(0..n);
                    if reprofiled.contains(&v) {
                        continue;
                    }
                    let count = rng.gen_range(0..=4usize);
                    let picks: Vec<LabelId> =
                        (0..count).map(|_| label_ids[rng.gen_range(0..label_ids.len())]).collect();
                    let p = PTree::from_labels(&tax, picks).unwrap();
                    if p != profiles[v as usize] {
                        profiles[v as usize] = p;
                        reprofiled.push(v);
                        deltas.push(pcs::index::GraphDelta::ProfileChanged { v });
                    }
                }
            }
        }
        if deltas.is_empty() {
            continue;
        }
        let g_after = Arc::new(dyn_g.to_graph());
        let stats = idx.apply_batch(&g_after, &Arc::new(profiles.clone()), &deltas, None);
        prop_assert_eq!(
            stats.labels_rebuilt + stats.labels_invalidated,
            stats.labels_touched,
            "patch accounting must cover every touched label"
        );
        let fresh = ShardedCpIndex::build_resident(&g_after, &tax, &profiles).unwrap();
        let sorted = |s: Option<&[VertexId]>| {
            s.map(|s| {
                let mut v = s.to_vec();
                v.sort_unstable();
                v
            })
        };
        for label in 0..tax.len() as u32 {
            prop_assert_eq!(
                idx.vertices_with_label(label),
                fresh.vertices_with_label(label),
                "members of label {}",
                label
            );
            for q in 0..profiles.len() as u32 {
                for k in 0..3u32 {
                    prop_assert_eq!(
                        sorted(idx.get_ref(k, q, label)),
                        sorted(fresh.get_ref(k, q, label)),
                        "label={} q={} k={}",
                        label,
                        q,
                        k
                    );
                }
            }
        }
        for v in 0..profiles.len() as u32 {
            prop_assert_eq!(&idx.restore_ptree(v), &profiles[v as usize]);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cptree_get_matches_scratch_computation(seed in 0u64..10_000) {
        let (g, tax, profiles) = random_instance(seed);
        let index = cold_index(&g, &tax, &profiles);
        let mut sc = pcs::graph::core::SubsetCore::new(g.num_vertices());
        for label in 0..tax.len() as u32 {
            let with_label: Vec<VertexId> = g
                .vertices()
                .filter(|&v| profiles[v as usize].contains(label))
                .collect();
            prop_assert_eq!(index.vertices_with_label(label), &with_label[..]);
            for q in g.vertices() {
                for k in 0..3u32 {
                    let expect = sc.kcore_component_within(&g, &with_label, q, k);
                    prop_assert_eq!(
                        index.get(k, q, label), expect,
                        "label={} q={} k={}", label, q, k
                    );
                }
            }
        }
    }

    #[test]
    fn headmap_restores_every_profile(seed in 0u64..10_000) {
        let (g, tax, profiles) = random_instance(seed);
        let index = cold_index(&g, &tax, &profiles);
        for v in g.vertices() {
            prop_assert_eq!(&index.restore_ptree(v), &profiles[v as usize]);
        }
    }

    #[test]
    fn lazily_patched_index_stays_set_equal_to_rebuild(seed in 0u64..10_000) {
        patched_matches_rebuild_after_churn(seed)?;
    }

    #[test]
    fn label_cores_nest_along_taxonomy(seed in 0u64..10_000) {
        // I.get(k,q,child) ⊆ I.get(k,q,parent): the containment chain
        // verifyPtree exploits.
        let (g, tax, profiles) = random_instance(seed);
        let index = cold_index(&g, &tax, &profiles);
        for label in 1..tax.len() as u32 {
            let parent = tax.parent(label);
            for q in g.vertices() {
                for k in 0..3u32 {
                    if let Some(child_core) = index.get(k, q, label) {
                        let parent_core = index.get(k, q, parent)
                            .expect("ancestor label held by a superset of vertices");
                        for v in &child_core {
                            prop_assert!(parent_core.binary_search(v).is_ok());
                        }
                    }
                }
            }
        }
    }
}

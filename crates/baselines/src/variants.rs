//! The four profile-cohesiveness definitions compared in Section 5.3.
//!
//! A good PCS definition must pick *what "shared profile" means*. The
//! paper tries four metrics and shows (Fig. 12) that the common-subtree
//! metric (c) dominates on every quality index:
//!
//! | metric | shared structure maximized |
//! |---|---|
//! | (a) common nodes | number of shared P-tree labels (flat, = ACQ) |
//! | (b) common paths | number of shared root-to-leaf paths |
//! | (c) common subtree | the maximal common subtree (= PCS) |
//! | (d) similarity | a TED-similarity threshold to the query profile |

use pcs_core::{Algorithm, ProfiledCommunity, QueryContext};
use pcs_graph::core::SubsetCore;
use pcs_graph::{FxHashSet, VertexId};
use pcs_ptree::{tree_edit_distance, LabelId, OrderedTree};

use crate::acq::acq_query;
use crate::community_from_vertices;

/// Which profile-cohesiveness definition to use.
#[derive(Clone, Copy, Debug, PartialEq)]
#[expect(clippy::exhaustive_enums, reason = "the four definitions of Section 5.3")]
pub enum CohesivenessMetric {
    /// (a) Maximize the number of shared P-tree labels (flat keywords).
    CommonNodes,
    /// (b) Maximize the number of shared root-to-leaf paths.
    CommonPaths,
    /// (c) Maximize the common subtree — the PCS definition.
    CommonSubtree,
    /// (d) Keep vertices whose TED similarity to `T(q)` is ≥ `beta`.
    Similarity {
        /// Similarity threshold in `[0, 1]`.
        beta: f64,
    },
}

impl CohesivenessMetric {
    /// Display name used by the Fig. 12 harness.
    pub fn name(self) -> &'static str {
        match self {
            CohesivenessMetric::CommonNodes => "(a) common-nodes",
            CohesivenessMetric::CommonPaths => "(b) common-paths",
            CohesivenessMetric::CommonSubtree => "(c) common-subtree",
            CohesivenessMetric::Similarity { .. } => "(d) similarity",
        }
    }
}

/// Runs one community query under the chosen metric. `CommonSubtree`
/// is PCS itself, through [`Algorithm::Auto`]: the closed-subtree
/// search when the context carries an index, `basic` otherwise.
pub fn variant_query(
    ctx: &QueryContext<'_>,
    q: VertexId,
    k: u32,
    metric: CohesivenessMetric,
) -> Vec<ProfiledCommunity> {
    match metric {
        CohesivenessMetric::CommonNodes => acq_query(ctx.graph, ctx.tax, ctx.profiles, q, k)
            .communities
            .into_iter()
            .map(|c| c.community)
            .collect(),
        CohesivenessMetric::CommonPaths => common_paths_query(ctx, q, k),
        CohesivenessMetric::CommonSubtree => {
            ctx.query(q, k, Algorithm::Auto).map(|o| o.communities).unwrap_or_default()
        }
        CohesivenessMetric::Similarity { beta } => similarity_query(ctx, q, k, beta),
    }
}

/// Metric (b): maximize how many full root-to-leaf paths of `T(q)` the
/// community shares. Uses the same closed-set DFS as `crate::acq` (a
/// community sharing `t` paths would make all `2^t` path subsets
/// feasible under Apriori), with the leaves of `T(q)` as items: a
/// vertex "has" a path iff its profile contains the leaf (ancestor
/// closure supplies the rest).
fn common_paths_query(ctx: &QueryContext<'_>, q: VertexId, k: u32) -> Vec<ProfiledCommunity> {
    let g = ctx.graph;
    if q as usize >= g.num_vertices() {
        return Vec::new();
    }
    let mut sc = SubsetCore::new(g.num_vertices());
    let all: Vec<VertexId> = g.vertices().collect();
    let Some(gk) = sc.kcore_component_within(g, &all, q, k) else {
        return Vec::new();
    };
    let Some(pq) = ctx.profiles.get(q as usize) else {
        return Vec::new();
    };
    let leaves: Vec<LabelId> = pq.leaves(ctx.tax);
    let has_path =
        |v: VertexId, leaf: LabelId| ctx.profiles.get(v as usize).is_some_and(|p| p.contains(leaf));
    let shared = |community: &[VertexId]| -> Vec<LabelId> {
        leaves
            .iter()
            .copied()
            .filter(|&leaf| community.iter().all(|&v| has_path(v, leaf)))
            .collect()
    };

    let root_set = shared(&gk);
    let mut visited: FxHashSet<Vec<LabelId>> = FxHashSet::default();
    visited.insert(root_set.clone());
    let mut stack: Vec<(Vec<LabelId>, Vec<VertexId>)> = vec![(root_set, gk)];
    let mut closed: Vec<(Vec<LabelId>, Vec<VertexId>)> = Vec::new();
    while let Some((s, community)) = stack.pop() {
        closed.push((s.clone(), community.clone()));
        for &leaf in &leaves {
            if s.binary_search(&leaf).is_ok() {
                continue;
            }
            let cands: Vec<VertexId> =
                community.iter().copied().filter(|&v| has_path(v, leaf)).collect();
            if let Some(next_comm) = sc.kcore_component_within(g, &cands, q, k) {
                let next_set = shared(&next_comm);
                if visited.insert(next_set.clone()) {
                    stack.push((next_set, next_comm));
                }
            }
        }
    }
    let best = closed.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
    let mut out: Vec<ProfiledCommunity> = closed
        .into_iter()
        .filter(|(s, _)| s.len() == best)
        .map(|(_, verts)| community_from_vertices(verts, ctx.profiles))
        .collect();
    out.sort_by(|a, b| a.subtree.cmp(&b.subtree).then(a.vertices.cmp(&b.vertices)));
    out.dedup();
    out
}

/// Metric (d): one community — the k-ĉore of `q` among vertices whose
/// P-tree is TED-similar to `T(q)` (similarity `1 − TED/|Ti ∪ Tq|`
/// ≥ `beta`).
fn similarity_query(
    ctx: &QueryContext<'_>,
    q: VertexId,
    k: u32,
    beta: f64,
) -> Vec<ProfiledCommunity> {
    let g = ctx.graph;
    if q as usize >= g.num_vertices() {
        return Vec::new();
    }
    let Some(tq) = ctx.profiles.get(q as usize) else {
        return Vec::new();
    };
    let tq_ord = OrderedTree::from_ptree(ctx.tax, tq);
    let mut sc = SubsetCore::new(g.num_vertices());
    let all: Vec<VertexId> = g.vertices().collect();
    let Some(gk) = sc.kcore_component_within(g, &all, q, k) else {
        return Vec::new();
    };
    let cands: Vec<VertexId> = gk
        .into_iter()
        .filter(|&v| {
            let Some(tv) = ctx.profiles.get(v as usize) else {
                return false;
            };
            let ted = tree_edit_distance(&OrderedTree::from_ptree(ctx.tax, tv), &tq_ord);
            let denom = tv.union(tq).len().max(1);
            1.0 - (ted as f64 / denom as f64) >= beta
        })
        .collect();
    match sc.kcore_component_within(g, &cands, q, k) {
        Some(verts) => vec![community_from_vertices(verts, ctx.profiles)],
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_graph::Graph;
    use pcs_index::ShardedCpIndex;
    use pcs_ptree::{PTree, Taxonomy};

    fn figure1() -> (Graph, Taxonomy, Vec<PTree>) {
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
        let mut t = Taxonomy::new("r");
        let cm = t.add_child(0, "CM").unwrap();
        let is = t.add_child(0, "IS").unwrap();
        let hw = t.add_child(0, "HW").unwrap();
        let ml = t.add_child(cm, "ML").unwrap();
        let ai = t.add_child(cm, "AI").unwrap();
        let dms = t.add_child(is, "DMS").unwrap();
        let profiles = vec![
            PTree::from_labels(&t, [dms, hw]).unwrap(),
            PTree::from_labels(&t, [ml, ai]).unwrap(),
            PTree::from_labels(&t, [ml, ai, is]).unwrap(),
            PTree::from_labels(&t, [ml, ai, dms, hw]).unwrap(),
            PTree::from_labels(&t, [dms, hw]).unwrap(),
            PTree::from_labels(&t, [is, hw]).unwrap(),
            PTree::from_labels(&t, [hw, cm]).unwrap(),
            PTree::from_labels(&t, [is, hw]).unwrap(),
        ];
        (g, t, profiles)
    }

    #[test]
    fn common_subtree_matches_pcs() {
        let (g, t, profiles) = figure1();
        let index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&index);
        let via_variant = variant_query(&ctx, 3, 2, CohesivenessMetric::CommonSubtree);
        let direct = ctx.query(3, 2, Algorithm::AdvP).unwrap().communities;
        assert_eq!(via_variant, direct);
        assert_eq!(via_variant.len(), 2);
    }

    #[test]
    fn common_nodes_is_acq() {
        let (g, t, profiles) = figure1();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let got = variant_query(&ctx, 3, 2, CohesivenessMetric::CommonNodes);
        let acq = acq_query(&g, &t, &profiles, 3, 2);
        assert_eq!(got.len(), acq.communities.len());
    }

    #[test]
    fn common_paths_maximizes_leaf_paths() {
        let (g, t, profiles) = figure1();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        let got = variant_query(&ctx, 3, 2, CohesivenessMetric::CommonPaths);
        assert!(!got.is_empty());
        for c in &got {
            assert!(c.vertices.binary_search(&3).is_ok());
            // Valid k-core.
            for &v in &c.vertices {
                let deg =
                    g.neighbors(v).iter().filter(|u| c.vertices.binary_search(u).is_ok()).count();
                assert!(deg >= 2);
            }
        }
    }

    #[test]
    fn similarity_threshold_sweeps() {
        let (g, t, profiles) = figure1();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        // beta = 0 accepts everyone: the full 2-ĉore of D.
        let loose = variant_query(&ctx, 3, 2, CohesivenessMetric::Similarity { beta: 0.0 });
        assert_eq!(loose.len(), 1);
        assert_eq!(loose[0].vertices, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // beta = 1 keeps only vertices with identical profiles to D.
        let strict = variant_query(&ctx, 3, 2, CohesivenessMetric::Similarity { beta: 1.0 });
        assert!(strict.is_empty(), "{strict:?}");
        // Monotone: higher beta, no larger community.
        let mid = variant_query(&ctx, 3, 2, CohesivenessMetric::Similarity { beta: 0.4 });
        if let Some(m) = mid.first() {
            assert!(m.vertices.len() <= loose[0].vertices.len());
        }
    }

    #[test]
    fn names_are_stable() {
        assert!(CohesivenessMetric::CommonNodes.name().contains("(a)"));
        assert!(CohesivenessMetric::CommonPaths.name().contains("(b)"));
        assert!(CohesivenessMetric::CommonSubtree.name().contains("(c)"));
        assert!(CohesivenessMetric::Similarity { beta: 0.5 }.name().contains("(d)"));
    }

    #[test]
    fn out_of_range_queries_are_empty() {
        let (g, t, profiles) = figure1();
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap();
        assert!(variant_query(&ctx, 99, 2, CohesivenessMetric::CommonPaths).is_empty());
        assert!(variant_query(&ctx, 99, 2, CohesivenessMetric::Similarity { beta: 0.5 }).is_empty());
    }
}

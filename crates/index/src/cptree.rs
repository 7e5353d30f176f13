//! CP-tree maintenance vocabulary: the delta types an update batch is
//! reported in, and the batch classification
//! [`ShardedCpIndex::apply_batch`](crate::ShardedCpIndex::apply_batch)
//! patches from — run once per batch.
//!
//! An edge `{u, v}` exists in a label's induced subgraph only when
//! *both* endpoints carry the label, so an edge delta touches
//! `T(u) ∩ T(v)`; a profile delta touches the symmetric difference of
//! the old and new label sets. Labels outside that invalidation set
//! keep their CL-trees verbatim — the whole point of the incremental
//! path.

use pcs_graph::{demoted_by_deletion, promoted_by_insertion, FxHashMap, FxHashSet};
use pcs_graph::{Graph, VertexId};
use pcs_ptree::{LabelId, PTree, ProfilesHandle};

use crate::cltree::ClTree;

/// One applied change to the underlying profiled graph, as reported to
/// the index for incremental maintenance. Deltas describe *effective*
/// changes only — no-ops (duplicate insertions, absent removals,
/// identical profile writes) must be filtered out by the caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphDelta {
    /// The undirected edge `{u, v}` was inserted.
    EdgeAdded {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// The undirected edge `{u, v}` was removed.
    EdgeRemoved {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Vertex `v`'s P-tree was replaced (at most one such delta per
    /// vertex per batch, describing the net old → new change).
    ProfileChanged {
        /// The vertex whose profile changed.
        v: VertexId,
    },
}

/// What [`ShardedCpIndex::apply_batch`](crate::ShardedCpIndex::apply_batch)
/// did, label by label.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpPatchStats {
    /// Labels whose induced subgraph was touched by at least one delta
    /// (the invalidation set).
    pub labels_touched: usize,
    /// Touched labels whose CL-tree was actually rebuilt.
    pub labels_rebuilt: usize,
    /// Touched labels proven unchanged by the bounded traversal check
    /// and left as-is.
    pub labels_skipped: usize,
    /// Touched labels whose shard was not resident and was merely
    /// invalidated — membership bookkeeping only, no CL-tree built.
    pub labels_invalidated: usize,
}

/// All labels `T(v)` carried **before** the batch being planned.
fn labels_before(profiles_before: &ProfilesHandle, v: VertexId) -> FxHashSet<LabelId> {
    profiles_before.get(v as usize).map(|p| p.nodes().iter().copied().collect()).unwrap_or_default()
}

/// The per-label classification of one delta batch: which labels were
/// touched by edges (with the delta count and the last edge, so the
/// bounded no-op check only runs when sound), which by membership
/// changes, and the net member additions/removals per label.
pub(crate) struct BatchTouch {
    pub(crate) edge_touch: FxHashMap<LabelId, (usize, (VertexId, VertexId, bool))>,
    pub(crate) profile_touch: FxHashSet<LabelId>,
    pub(crate) member_add: FxHashMap<LabelId, Vec<VertexId>>,
    pub(crate) member_remove: FxHashMap<LabelId, Vec<VertexId>>,
    pub(crate) profile_vertices: Vec<VertexId>,
}

impl BatchTouch {
    /// Applies `label`'s net membership delta to a sorted member list
    /// in place (result stays sorted).
    pub(crate) fn patch_members(&self, label: LabelId, verts: &mut Vec<VertexId>) {
        if let Some(removed) = self.member_remove.get(&label) {
            verts.retain(|v| !removed.contains(v));
        }
        if let Some(added) = self.member_add.get(&label) {
            verts.extend_from_slice(added);
            verts.sort_unstable();
        }
    }
}

/// Pass 1 of every incremental patch: walk the deltas once, bucketing
/// touched labels.
pub(crate) fn classify_batch(
    profiles_before: &ProfilesHandle,
    profiles_after: &[PTree],
    deltas: &[GraphDelta],
) -> BatchTouch {
    let mut touch = BatchTouch {
        edge_touch: FxHashMap::default(),
        profile_touch: FxHashSet::default(),
        member_add: FxHashMap::default(),
        member_remove: FxHashMap::default(),
        profile_vertices: Vec::new(),
    };
    let mut carried_memo: FxHashMap<VertexId, FxHashSet<LabelId>> = FxHashMap::default();
    for delta in deltas {
        match *delta {
            GraphDelta::EdgeAdded { u, v } | GraphDelta::EdgeRemoved { u, v } => {
                let added = matches!(delta, GraphDelta::EdgeAdded { .. });
                for w in [u, v] {
                    carried_memo.entry(w).or_insert_with(|| labels_before(profiles_before, w));
                }
                let (cu, cv) = (&carried_memo[&u], &carried_memo[&v]);
                for &label in cu.intersection(cv) {
                    let entry = touch.edge_touch.entry(label).or_insert((0, (u, v, added)));
                    entry.0 += 1;
                    entry.1 = (u, v, added);
                }
            }
            GraphDelta::ProfileChanged { v } => {
                debug_assert!(
                    !touch.profile_vertices.contains(&v),
                    "one ProfileChanged delta per vertex"
                );
                touch.profile_vertices.push(v);
                let old = labels_before(profiles_before, v);
                let new: FxHashSet<LabelId> =
                    profiles_after[v as usize].nodes().iter().copied().collect();
                for &label in new.difference(&old) {
                    touch.profile_touch.insert(label);
                    touch.member_add.entry(label).or_default().push(v);
                }
                for &label in old.difference(&new) {
                    touch.profile_touch.insert(label);
                    touch.member_remove.entry(label).or_default().push(v);
                }
            }
        }
    }
    touch
}

/// True when the single edge change `{u, v}` (inserted when `added`)
/// provably leaves `cl` — one label's CL-tree — unchanged.
///
/// Both tests are bounded traversals of the label's induced subgraph,
/// never O(n):
///
/// * **Insertion** is a no-op iff no member's subgraph core number
///   rises ([`promoted_by_insertion`] over the label-filtered
///   adjacency returns nothing) *and* the endpoints already shared
///   their `min(core)`-ĉore (same [`ClTree::summit`]), so no ĉores
///   merge at any level.
/// * **Removal** is a no-op iff no member's core number drops *and*
///   the endpoints are still connected within the `min(core)`-level
///   members, so no ĉore splits.
pub(crate) fn edge_change_preserves(
    cl: &ClTree,
    g_after: &Graph,
    u: VertexId,
    v: VertexId,
    added: bool,
) -> bool {
    let (Some(cu), Some(cv)) = (cl.core_of(u), cl.core_of(v)) else {
        return false;
    };
    let k = cu.min(cv);
    let adj = |w: VertexId| g_after.neighbors(w).iter().copied().filter(|&z| cl.contains_vertex(z));
    let core = |w: VertexId| cl.core_of(w).expect("adjacency filtered to members");
    if added {
        if cl.summit(u, k) != cl.summit(v, k) {
            return false; // two ĉores merge at level ≤ k
        }
        promoted_by_insertion(u, v, adj, core).is_empty()
    } else {
        if !demoted_by_deletion(u, v, adj, core).is_empty() {
            return false;
        }
        // Still connected within the k-level members? (Connectivity
        // at level k implies connectivity at every level below it.)
        let mut seen: FxHashSet<VertexId> = FxHashSet::default();
        let mut stack = vec![u];
        seen.insert(u);
        while let Some(w) = stack.pop() {
            if w == v {
                return true;
            }
            for z in adj(w) {
                if core(z) >= k && seen.insert(z) {
                    stack.push(z);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_ptree::Taxonomy;
    use std::sync::Arc;

    #[test]
    fn edge_touch_is_tight() {
        // Fig. 1's A..E: an edge touches exactly the labels both
        // endpoints carry.
        let mut t = Taxonomy::new("r");
        let cm = t.add_child(Taxonomy::ROOT, "CM").unwrap();
        let is = t.add_child(Taxonomy::ROOT, "IS").unwrap();
        let hw = t.add_child(Taxonomy::ROOT, "HW").unwrap();
        let ml = t.add_child(cm, "ML").unwrap();
        let ai = t.add_child(cm, "AI").unwrap();
        let dms = t.add_child(is, "DMS").unwrap();
        let profiles = vec![
            PTree::from_labels(&t, [dms, hw]).unwrap(),
            PTree::from_labels(&t, [ml, ai]).unwrap(),
            PTree::from_labels(&t, [ml, ai, is]).unwrap(),
            PTree::from_labels(&t, [ml, ai, dms, hw]).unwrap(),
            PTree::from_labels(&t, [dms, hw]).unwrap(),
        ];
        let before = ProfilesHandle::dense(Arc::new(profiles.clone()));
        // Edge A-E: both carry {r, IS, DMS, HW}.
        let touch = classify_batch(&before, &profiles, &[GraphDelta::EdgeAdded { u: 0, v: 4 }]);
        let mut touched: Vec<LabelId> = touch.edge_touch.keys().copied().collect();
        touched.sort_unstable();
        let mut expect = vec![Taxonomy::ROOT, is, dms, hw];
        expect.sort_unstable();
        assert_eq!(touched, expect);
        assert!(touch.profile_touch.is_empty());
    }
}

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

use pcs_graph::{BitSet, FxHashMap, FxHashSet, VertexId};
use pcs_ptree::{LabelId, PTree, ProfilesHandle};

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
    /// Touched labels whose shard was resident and was dropped for
    /// rebuild: before publish on an Eager engine, on the next probe on
    /// a Lazy one.
    pub labels_rebuilt: usize,
    /// Touched labels whose shard was not resident and was merely
    /// invalidated — membership bookkeeping only, no CL-tree built.
    /// `labels_rebuilt + labels_invalidated == labels_touched`.
    pub labels_invalidated: usize,
}

/// All labels `T(v)` carried **before** the batch being planned.
fn labels_before(profiles_before: &ProfilesHandle, v: VertexId) -> FxHashSet<LabelId> {
    profiles_before.get(v as usize).map(|p| p.nodes().iter().copied().collect()).unwrap_or_default()
}

/// The per-label classification of one delta batch: which labels were
/// touched by edges, which by membership changes, and the net member
/// additions/removals per label; and, for the community table's carry,
/// the label sets each delta reaches.
#[derive(Default)]
pub(crate) struct BatchTouch {
    pub(crate) edge_touch: FxHashSet<LabelId>,
    pub(crate) profile_touch: FxHashSet<LabelId>,
    pub(crate) member_add: FxHashMap<LabelId, Vec<VertexId>>,
    pub(crate) member_remove: FxHashMap<LabelId, Vec<VertexId>>,
    /// Per reprofiled vertex: its label sets before and after.
    pub(crate) reprofiled: Vec<(VertexId, [BitSet; 2])>,
    /// Per added edge: its endpoints and the labels both carried before.
    pub(crate) added: Vec<(VertexId, VertexId, BitSet)>,
    /// The same for each removed edge.
    pub(crate) removed: Vec<(VertexId, VertexId, BitSet)>,
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
    let mut touch = BatchTouch::default();
    let mut carried_memo: FxHashMap<VertexId, FxHashSet<LabelId>> = FxHashMap::default();
    for delta in deltas {
        match *delta {
            GraphDelta::EdgeAdded { u, v } | GraphDelta::EdgeRemoved { u, v } => {
                for w in [u, v] {
                    carried_memo.entry(w).or_insert_with(|| labels_before(profiles_before, w));
                }
                let (cu, cv) = (&carried_memo[&u], &carried_memo[&v]);
                touch.edge_touch.extend(cu.intersection(cv));
                let shared = cu.intersection(cv).map(|&l| l as usize).collect();
                let edges = match delta {
                    GraphDelta::EdgeAdded { .. } => &mut touch.added,
                    _ => &mut touch.removed,
                };
                edges.push((u, v, shared));
            }
            GraphDelta::ProfileChanged { v } => {
                debug_assert!(
                    touch.reprofiled.iter().all(|r| r.0 != v),
                    "one ProfileChanged delta per vertex"
                );
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
                let bits =
                    |labels: &FxHashSet<LabelId>| labels.iter().map(|&l| l as usize).collect();
                touch.reprofiled.push((v, [bits(&old), bits(&new)]));
            }
        }
    }
    touch
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
        let mut touched: Vec<LabelId> = touch.edge_touch.iter().copied().collect();
        touched.sort_unstable();
        let mut expect = vec![Taxonomy::ROOT, is, dms, hw];
        expect.sort_unstable();
        assert_eq!(touched, expect);
        assert!(touch.profile_touch.is_empty());
    }
}

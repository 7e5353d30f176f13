//! The closed-community table: what one query proved about a label set,
//! kept for every later query inside the same community.
//!
//! Write `comp(S, v)` for the connected k-core, among the carriers of
//! label set `S`, that contains `v`. For fixed `(k, S)` these
//! components are disjoint, and `q ∈ comp(S, v)` implies
//! `comp(S, q) = comp(S, v)`. The closure `cl` (the labels every member
//! carries) is a function of the community alone. So a community proved
//! for one query vertex answers `(k, S)` for each of its members, and a
//! lookup is sound exactly when the asking vertex lies inside the stored
//! community. Negative verdicts never transfer and are never stored.
//!
//! The table is derived state of one index epoch: see
//! [`ShardedCpIndex`](crate::ShardedCpIndex) for its lifetime.

use std::sync::Arc;

use pcs_graph::{FxHashMap, VertexId};
use pcs_ptree::LabelId;

/// Stored vertex ids allowed per vertex of the graph before the table
/// starts over.
const STORED_PER_VERTEX: usize = 64;

/// A stored proof: the closed label set and the community.
pub(crate) type Proof = (Arc<[LabelId]>, Arc<Vec<VertexId>>);

/// `(k, sorted label set)` → the disjoint communities proved under it.
/// A community is stored once, shared by its pre-closure and closed
/// keys.
#[derive(Debug, Default)]
pub(crate) struct CommunityTable {
    by_k: FxHashMap<u32, FxHashMap<Box<[LabelId]>, Vec<Proof>>>,
    /// Vertex ids held, each distinct community counted once.
    stored: usize,
}

impl CommunityTable {
    /// The community under `(k, labels)` that contains `q`, with its
    /// closed label set.
    pub(crate) fn get(&self, k: u32, labels: &[LabelId], q: VertexId) -> Option<Proof> {
        let found = self.by_k.get(&k)?.get(labels)?;
        found.iter().find(|(_, community)| community.binary_search(&q).is_ok()).cloned()
    }

    /// Stores `community` (sorted) under `(k, labels)` and `(k, closed)`.
    /// A community already present under a key is recognised by its
    /// first vertex, since the communities of one key are disjoint. Past
    /// the bound of `n` vertices' worth, the table starts over.
    pub(crate) fn insert(
        &mut self,
        n: usize,
        k: u32,
        labels: &[LabelId],
        closed: &[LabelId],
        community: &Arc<Vec<VertexId>>,
    ) {
        let Some(&first) = community.first() else { return };
        let same = |p: &&Proof| p.1.first() == Some(&first);
        let known = self.by_k.get(&k).and_then(|m| m.get(closed)?.iter().find(same).cloned());
        let proven = match known {
            Some(p) => p,
            None => {
                if self.stored + community.len() > STORED_PER_VERTEX.saturating_mul(n) {
                    *self = CommunityTable::default();
                }
                self.stored += community.len();
                let p: Proof = (closed.into(), Arc::clone(community));
                self.by_k.entry(k).or_default().entry(closed.into()).or_default().push(p.clone());
                p
            }
        };
        if labels != closed {
            let list = self.by_k.entry(k).or_default().entry(labels.into()).or_default();
            if !list.iter().any(|p| same(&p)) {
                list.push(proven);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(vs: &[VertexId]) -> Arc<Vec<VertexId>> {
        Arc::new(vs.to_vec())
    }

    #[test]
    fn hits_only_inside_the_stored_community() {
        let mut t = CommunityTable::default();
        // Two disjoint components of one label set.
        let left = arc(&[0, 1, 2]);
        t.insert(10, 2, &[0, 1], &[0, 1, 3], &left);
        t.insert(10, 2, &[0, 1], &[0, 1, 4], &arc(&[5, 6, 7]));
        let (closed, c) = t.get(2, &[0, 1], 1).unwrap();
        assert_eq!((&*closed, c.as_slice()), (&[0, 1, 3][..], &[0, 1, 2][..]));
        let (closed, c) = t.get(2, &[0, 1], 7).unwrap();
        assert_eq!((&*closed, c.as_slice()), (&[0, 1, 4][..], &[5, 6, 7][..]));
        assert!(t.get(2, &[0, 1], 4).is_none(), "outside both communities");
        assert!(t.get(3, &[0, 1], 1).is_none(), "another k");
        // The closed key answers too, with the same stored community.
        let (_, via_closed) = t.get(2, &[0, 1, 3], 2).unwrap();
        assert!(Arc::ptr_eq(&via_closed, &left));
        assert!(t.get(2, &[0, 1, 3], 6).is_none());
        assert_eq!(t.stored, 6);
    }

    #[test]
    fn a_community_is_stored_once() {
        let mut t = CommunityTable::default();
        let c = arc(&[1, 2, 3]);
        t.insert(10, 1, &[0, 2], &[0, 2, 5], &c);
        t.insert(10, 1, &[0, 5], &[0, 2, 5], &arc(&[1, 2, 3]));
        t.insert(10, 1, &[0, 2], &[0, 2, 5], &c);
        assert_eq!(t.stored, 3);
        let (_, a) = t.get(1, &[0, 2], 1).unwrap();
        let (_, b) = t.get(1, &[0, 5], 3).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.by_k.get(&1).and_then(|m| m.get(&[0, 2][..])).map(Vec::len), Some(1));
    }

    #[test]
    fn starts_over_past_the_bound() {
        let mut t = CommunityTable::default();
        let n = 1;
        let big: Vec<VertexId> = (0..STORED_PER_VERTEX as VertexId).collect();
        t.insert(n, 0, &[0], &[0], &arc(&big));
        assert!(t.get(0, &[0], 3).is_some());
        t.insert(n, 0, &[0, 1], &[0, 1], &arc(&[3]));
        assert!(t.get(0, &[0], 3).is_none(), "the table reset");
        assert!(t.get(0, &[0, 1], 3).is_some());
        assert_eq!(t.stored, 1);
    }
}

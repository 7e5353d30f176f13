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
//! The table is derived state of one index epoch. A write starts the
//! next epoch's table with the entries its batch provably leaves
//! unchanged ([`CommunityTable::carry`]); see
//! [`ShardedCpIndex`](crate::ShardedCpIndex) for its lifetime.

use std::sync::Arc;

use pcs_graph::{BitSet, FxHashMap, VertexId};
use pcs_ptree::LabelId;

use crate::cptree::BatchTouch;

/// Stored vertex ids allowed per vertex of the graph before the table
/// starts over.
const STORED_PER_VERTEX: usize = 64;

/// A stored proof: the closed label set and the community.
pub(crate) type Proof = (Arc<[LabelId]>, Arc<Vec<VertexId>>);

/// One `k`'s sorted label sets → the communities proved under each.
type Keys = FxHashMap<Arc<[LabelId]>, Arc<[Proof]>>;

/// `(k, sorted label set)` → the disjoint communities proved under it.
/// A community is stored once, shared by its pre-closure and closed
/// keys. Keys and lists are shared `Arc`s, so a carried table is one
/// map clone: a list is copied only when it changes.
#[derive(Debug, Default)]
pub(crate) struct CommunityTable {
    by_k: FxHashMap<u32, Keys>,
    /// Vertex ids held, each distinct community counted once: under
    /// its closed key, the one key it is never missing from.
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
                push(self.by_k.entry(k).or_default().entry(Arc::clone(&p.0)).or_default(), &p);
                p
            }
        };
        if labels != closed {
            let list = self.by_k.entry(k).or_default().entry(labels.into()).or_default();
            if !list.iter().any(|p| same(&p)) {
                push(list, &proven);
            }
        }
    }

    /// A new table holding the `(key S, community C)` pairs `touch`'s
    /// batch provably leaves unchanged. A pair is dropped when
    ///
    /// * a reprofiled vertex carries `S` before or after the batch;
    /// * an added edge joins two carriers of `S` not both in `C`;
    /// * a removed edge lies inside `C`.
    ///
    /// A pair the first rule keeps has the same carriers of `S` on both
    /// sides of the batch (so the endpoints' labels before the batch
    /// decide the other two), and no member of `C` was reprofiled, so
    /// `cl(C)` stands. Among the carriers, every added edge then lies
    /// inside `C` and every removed one outside it. So `C` is still
    /// connected with minimum degree `k` and lies in one component `D`
    /// of the new k-core. Every edge `D` gained lies inside `C`, so
    /// before the batch `D` already had minimum degree `k` and was
    /// connected through `C`: `D ⊆ C`.
    ///
    /// Each rule drops a community's closed-key pair whenever it drops
    /// any other pair of it (the closed key is the largest), so a
    /// community leaves the count exactly when its closed-key pair goes.
    pub(crate) fn carry(&self, touch: &BatchTouch) -> CommunityTable {
        let carries = |labels: &BitSet, key: &[LabelId]| {
            key.iter().rev().all(|&l| labels.contains(l as usize))
        };
        let inside = |c: &[VertexId], (u, v, _): &Edge| {
            c.binary_search(u).is_ok() && c.binary_search(v).is_ok()
        };
        let mut by_k = self.by_k.clone();
        let mut stored = self.stored;
        for keys in by_k.values_mut() {
            keys.retain(|key, proofs| {
                let reprofiled =
                    touch.reprofiled.iter().flat_map(|r| &r.1).any(|labels| carries(labels, key));
                let reaches = |e: &&Edge| carries(&e.2, key);
                // Most keys no delta reaches: kept with their lists unread.
                if !reprofiled && !touch.added.iter().chain(&touch.removed).any(|e| reaches(&e)) {
                    return true;
                }
                let keep = |(_, c): &Proof| {
                    !reprofiled
                        && touch.added.iter().filter(reaches).all(|e| inside(c, e))
                        && !touch.removed.iter().filter(reaches).any(|e| inside(c, e))
                };
                if proofs.iter().all(keep) {
                    return true;
                }
                for (closed, c) in proofs.iter().filter(|p| !keep(p)) {
                    if closed == key {
                        stored -= c.len();
                    }
                }
                *proofs = proofs.iter().filter(|p| keep(p)).cloned().collect();
                !proofs.is_empty()
            });
        }
        CommunityTable { by_k, stored }
    }
}

/// An edge of a batch with the labels both endpoints carried before it.
type Edge = (VertexId, VertexId, BitSet);

/// Appends `p` to a shared list, copying the list.
fn push(list: &mut Arc<[Proof]>, p: &Proof) {
    *list = list.iter().chain([p]).cloned().collect();
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
        assert_eq!(t.by_k.get(&1).and_then(|m| m.get(&[0, 2][..])).map(|l| l.len()), Some(1));
    }

    #[test]
    fn carry_drops_only_the_pairs_a_batch_reaches() {
        let mut t = CommunityTable::default();
        t.insert(10, 2, &[0, 1], &[0, 1, 3], &arc(&[0, 1, 2]));
        t.insert(10, 2, &[0, 1], &[0, 1, 4], &arc(&[5, 6, 7]));
        t.insert(10, 2, &[0, 2], &[0, 2], &arc(&[8, 9]));
        let bits = |labels: &[usize]| labels.iter().copied().collect::<BitSet>();
        // 1–2 lies inside {0, 1, 2}: both its keys go, the other
        // community of `[0, 1]` stays.
        let edge = (1, 2, bits(&[0, 1, 3]));
        let carried = t.carry(&BatchTouch { removed: vec![edge], ..BatchTouch::default() });
        assert!(carried.get(2, &[0, 1], 0).is_none());
        assert!(carried.get(2, &[0, 1, 3], 1).is_none());
        assert!(carried.get(2, &[0, 1], 6).is_some());
        assert!(carried.get(2, &[0, 2], 8).is_some());
        assert_eq!(carried.stored, 5);
        assert!(t.get(2, &[0, 1], 0).is_some(), "the source table is untouched");
        // 8–3 joins two carriers of `[0, 2]` not both in {8, 9}.
        let edge = (8, 3, bits(&[0, 2]));
        let carried = carried.carry(&BatchTouch { added: vec![edge], ..BatchTouch::default() });
        assert!(carried.get(2, &[0, 2], 8).is_none());
        assert_eq!(carried.stored, 3);
        // A vertex that comes to carry `[0, 1, 4]` takes every key it
        // carries with it.
        let reprofiled = vec![(3, [bits(&[0]), bits(&[0, 1, 4])])];
        let carried = carried.carry(&BatchTouch { reprofiled, ..BatchTouch::default() });
        assert!(carried.by_k.values().all(|keys| keys.is_empty()));
        assert_eq!(carried.stored, 0);
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

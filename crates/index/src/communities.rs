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
//! A label set's key is the XOR of one fixed 64-bit value per label
//! (Zobrist hashing), so its labels come in any order. An entry keeps
//! its label set and a hit compares it: a key collision costs a miss,
//! never a wrong answer.
//!
//! The table is derived state of one index epoch. A write starts the
//! next epoch's table with the entries its batch provably leaves
//! unchanged ([`CommunityTable::carry`]); see
//! [`ShardedCpIndex`](crate::ShardedCpIndex) for its lifetime.

use std::borrow::Borrow;
use std::sync::Arc;

use pcs_graph::{BitSet, FxHashMap, VertexId};
use pcs_ptree::LabelId;

use crate::cptree::BatchTouch;

/// Stored vertex ids allowed per vertex of the graph before the table
/// starts over.
const STORED_PER_VERTEX: usize = 64;

/// A stored proof: the closed label set and the community.
pub(crate) type Proof = (Arc<[LabelId]>, Arc<Vec<VertexId>>);

/// A proof and the label set (sorted) it is stored under.
type Entry = (Arc<[LabelId]>, Proof);

/// `(k, key)` → the communities proved under the key's label sets. A
/// community is stored once, shared by its pre-closure and closed label
/// sets. Lists are shared `Arc`s, so a carried table is one map clone:
/// a list is copied only when it changes.
#[derive(Debug, Default)]
pub(crate) struct CommunityTable {
    entries: FxHashMap<(u32, u64), Arc<[Entry]>>,
    /// Vertex ids held, each distinct community counted once: under
    /// its closed label set, the one it is never missing from.
    stored: usize,
}

impl CommunityTable {
    /// The community under `(k, labels)` that contains `q`, with its
    /// closed label set. `labels` is a label set in any order: distinct
    /// labels, so equal lengths and every label found mean equal sets.
    pub(crate) fn get<I>(&self, k: u32, labels: I, q: VertexId) -> Option<Proof>
    where
        I: IntoIterator<Item: Borrow<LabelId>> + Clone,
    {
        let same = |set: &[LabelId]| {
            labels.clone().into_iter().count() == set.len()
                && labels.clone().into_iter().all(|l| set.binary_search(l.borrow()).is_ok())
        };
        let list = self.entries.get(&(k, key(labels.clone())))?;
        list.iter()
            .find(|(set, (_, c))| c.binary_search(&q).is_ok() && same(set))
            .map(|e| e.1.clone())
    }

    /// Stores `community` (sorted) under `(k, labels)` and `(k, closed)`.
    /// A community already present under a label set is recognised by
    /// its first vertex, since the communities of one label set are
    /// disjoint. Past the bound of `n` vertices' worth, the table starts
    /// over.
    pub(crate) fn insert(
        &mut self,
        n: usize,
        k: u32,
        labels: impl IntoIterator<Item = LabelId>,
        closed: impl IntoIterator<Item = LabelId>,
        community: &Arc<Vec<VertexId>>,
    ) {
        let Some(&first) = community.first() else { return };
        let (mut labels, mut closed): (Vec<_>, Vec<_>) =
            (labels.into_iter().collect(), closed.into_iter().collect());
        labels.sort_unstable();
        closed.sort_unstable();
        let proof = match self.get(k, &closed, first) {
            Some(proof) => proof,
            None => {
                if self.stored + community.len() > STORED_PER_VERTEX.saturating_mul(n) {
                    *self = CommunityTable::default();
                }
                self.stored += community.len();
                let at = (k, key(&closed));
                let closed: Arc<[LabelId]> = closed.into();
                self.add(at, (Arc::clone(&closed), (closed, Arc::clone(community))))
            }
        };
        if labels[..] != proof.0[..] && self.get(k, &labels, first).is_none() {
            self.add((k, key(&labels)), (labels.into(), proof));
        }
    }

    /// Appends `entry` to the list under `at`, copying the list, and
    /// returns its proof.
    fn add(&mut self, at: (u32, u64), entry: Entry) -> Proof {
        let list = self.entries.entry(at).or_default();
        *list = list.iter().chain([&entry]).cloned().collect();
        entry.1
    }

    /// A new table holding the `(label set S, community C)` pairs
    /// `touch`'s batch provably leaves unchanged. A pair is dropped when
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
    /// Each rule drops a community's closed pair whenever it drops any
    /// other pair of it (the closed label set is the largest), so a
    /// community leaves the count exactly when its closed pair goes.
    pub(crate) fn carry(&self, touch: &BatchTouch) -> CommunityTable {
        let carries =
            |labels: &BitSet, s: &[LabelId]| s.iter().rev().all(|&l| labels.contains(l as usize));
        let inside = |c: &[VertexId], (u, v, _): &Edge| {
            c.binary_search(u).is_ok() && c.binary_search(v).is_ok()
        };
        // Most pairs no delta reaches: kept with their community unread.
        let keep = |(s, (_, c)): &Entry| {
            let reaches = |e: &&Edge| carries(&e.2, s);
            !touch.reprofiled.iter().flat_map(|r| &r.1).any(|labels| carries(labels, s))
                && touch.added.iter().filter(reaches).all(|e| inside(c, e))
                && !touch.removed.iter().filter(reaches).any(|e| inside(c, e))
        };
        let mut entries = self.entries.clone();
        let mut stored = self.stored;
        entries.retain(|_, list| {
            if !list.iter().all(keep) {
                for (s, (closed, c)) in list.iter().filter(|e| !keep(e)) {
                    stored -= if s == closed { c.len() } else { 0 };
                }
                *list = list.iter().filter(|e| keep(e)).cloned().collect();
            }
            !list.is_empty()
        });
        CommunityTable { entries, stored }
    }
}

/// An edge of a batch with the labels both endpoints carried before it.
type Edge = (VertexId, VertexId, BitSet);

/// A label set's key: the XOR of `splitmix64(label)` over its labels.
fn key(labels: impl IntoIterator<Item: Borrow<LabelId>>) -> u64 {
    labels.into_iter().fold(0, |key, l| {
        let mut z = u64::from(*l.borrow()).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        key ^ z ^ (z >> 31)
    })
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
        t.insert(10, 2, [0, 1], [0, 1, 3], &left);
        t.insert(10, 2, [0, 1], [0, 1, 4], &arc(&[5, 6, 7]));
        let (closed, c) = t.get(2, &[0, 1], 1).unwrap();
        assert_eq!((&*closed, c.as_slice()), (&[0, 1, 3][..], &[0, 1, 2][..]));
        let (closed, c) = t.get(2, &[0, 1], 7).unwrap();
        assert_eq!((&*closed, c.as_slice()), (&[0, 1, 4][..], &[5, 6, 7][..]));
        assert!(t.get(2, &[0, 1], 4).is_none(), "outside both communities");
        assert!(t.get(3, &[0, 1], 1).is_none(), "another k");
        // The closed label set answers too, with the same stored community.
        let (_, via_closed) = t.get(2, &[0, 1, 3], 2).unwrap();
        assert!(Arc::ptr_eq(&via_closed, &left));
        assert!(t.get(2, &[0, 1, 3], 6).is_none());
        assert_eq!(t.stored, 6);
    }

    #[test]
    fn a_community_is_stored_once() {
        let mut t = CommunityTable::default();
        let c = arc(&[1, 2, 3]);
        t.insert(10, 1, [0, 2], [0, 2, 5], &c);
        t.insert(10, 1, [0, 5], [0, 2, 5], &arc(&[1, 2, 3]));
        t.insert(10, 1, [0, 2], [0, 2, 5], &c);
        assert_eq!(t.stored, 3);
        let (_, a) = t.get(1, &[0, 2], 1).unwrap();
        let (_, b) = t.get(1, &[0, 5], 3).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.entries.get(&(1, key([0, 2]))).map(|l| l.len()), Some(1));
    }

    #[test]
    fn carry_drops_only_the_pairs_a_batch_reaches() {
        let mut t = CommunityTable::default();
        t.insert(10, 2, [0, 1], [0, 1, 3], &arc(&[0, 1, 2]));
        t.insert(10, 2, [0, 1], [0, 1, 4], &arc(&[5, 6, 7]));
        t.insert(10, 2, [0, 2], [0, 2], &arc(&[8, 9]));
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
        assert!(carried.entries.is_empty());
        assert_eq!(carried.stored, 0);
    }

    #[test]
    fn a_label_set_in_any_order_hits_the_same_entry() {
        let mut t = CommunityTable::default();
        let c = arc(&[2, 4]);
        t.insert(10, 1, [7, 0, 3], [3, 9, 0, 7], &c);
        for order in [[0, 3, 7], [3, 7, 0], [7, 0, 3]] {
            let (closed, got) = t.get(1, order, 4).unwrap();
            assert_eq!((&*closed, Arc::ptr_eq(&got, &c)), (&[0, 3, 7, 9][..], true));
        }
        assert!(t.get(1, [9, 7, 3, 0], 2).is_some(), "the closed set, reordered");
        assert_eq!(t.entries.len(), 2);
    }

    #[test]
    fn label_sets_forced_onto_one_key_never_answer_each_other() {
        let mut t = CommunityTable::default();
        let entry = |labels: &[LabelId], c: &[VertexId]| {
            let labels: Arc<[LabelId]> = labels.into();
            (Arc::clone(&labels), (labels, arc(c)))
        };
        // `[0, 1]`, `[0]` and `[0, 1, 2]` forced onto the key of `[0, 2]`:
        // a lookup of `[0, 2]` misses all three.
        let at = (2, key([0, 2]));
        for other in [&[0, 1][..], &[0], &[0, 1, 2]] {
            t.add(at, entry(other, &[3, 4, 5]));
        }
        assert!(t.get(2, [0, 2], 4).is_none());
        assert!(t.get(2, [2, 0], 5).is_none());
        // Beside them, `[0, 2]` finds its own community only.
        t.add(at, entry(&[0, 2], &[4, 6]));
        assert_eq!(t.get(2, [2, 0], 4).map(|p| p.1.to_vec()), Some(vec![4, 6]));
        assert!(t.get(2, [0, 2], 3).is_none());
    }

    #[test]
    fn starts_over_past_the_bound() {
        let mut t = CommunityTable::default();
        let n = 1;
        let big: Vec<VertexId> = (0..STORED_PER_VERTEX as VertexId).collect();
        t.insert(n, 0, [0], [0], &arc(&big));
        assert!(t.get(0, &[0], 3).is_some());
        t.insert(n, 0, [0, 1], [0, 1], &arc(&[3]));
        assert!(t.get(0, &[0], 3).is_none(), "the table reset");
        assert!(t.get(0, &[0, 1], 3).is_some());
        assert_eq!(t.stored, 1);
    }
}

//! The GP-tree: a global label taxonomy (e.g. ACM CCS, MeSH).
//!
//! Ids are assigned in insertion order, so `parent(id) < id` for every
//! non-root node. Every P-tree in the system is an ancestor-closed subset
//! of one taxonomy, which is what makes subtree tests and intersections
//! cheap (see [`crate::PTree`]).

use pcs_graph::FxHashMap;

use crate::{PTreeError, Result};

/// Identifier of a taxonomy node ("attribute label" in the paper).
pub type LabelId = u32;

/// A rooted label hierarchy — the paper's GP-tree.
#[derive(Debug)]
pub struct Taxonomy {
    labels: Vec<String>,
    parent: Vec<LabelId>,
    children: Vec<Vec<LabelId>>,
    depth: Vec<u32>,
    by_name: FxHashMap<String, LabelId>,
}

/// Process-wide count of [`Taxonomy`] deep copies (see
/// [`Taxonomy::clone_count`]).
static TAXONOMY_CLONES: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

impl Clone for Taxonomy {
    fn clone(&self) -> Self {
        // A taxonomy clone duplicates every label string; hot paths must
        // never do it. The counter is the audit hook regression tests
        // use to pin clone-free paths (one relaxed add per deep copy —
        // noise next to the string allocations it counts).
        TAXONOMY_CLONES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Taxonomy {
            labels: self.labels.clone(),
            parent: self.parent.clone(),
            children: self.children.clone(),
            depth: self.depth.clone(),
            by_name: self.by_name.clone(),
        }
    }
}

impl Taxonomy {
    /// The root node's id — always 0.
    pub const ROOT: LabelId = 0;

    /// Creates a taxonomy containing only the root label.
    pub fn new(root_label: &str) -> Self {
        let mut by_name = FxHashMap::default();
        by_name.insert(root_label.to_owned(), 0);
        Taxonomy {
            labels: vec![root_label.to_owned()],
            parent: vec![0],
            children: vec![Vec::new()],
            depth: vec![0],
            by_name,
        }
    }

    /// Adds a child label under `parent`; returns the new id.
    ///
    /// Label names are globally unique; reuse returns
    /// [`PTreeError::DuplicateLabel`].
    pub fn add_child(&mut self, parent: LabelId, label: &str) -> Result<LabelId> {
        if parent as usize >= self.labels.len() {
            return Err(PTreeError::UnknownLabel(parent));
        }
        if self.by_name.contains_key(label) {
            return Err(PTreeError::DuplicateLabel(label.to_owned()));
        }
        let id = self.labels.len() as LabelId;
        self.labels.push(label.to_owned());
        self.parent.push(parent);
        self.children.push(Vec::new());
        self.depth.push(self.depth[parent as usize] + 1);
        self.children[parent as usize].push(id);
        self.by_name.insert(label.to_owned(), id);
        Ok(id)
    }

    /// Rebuilds a taxonomy from its persistent state: the label names
    /// and the parent array, both in id order (the root first, every
    /// parent id smaller than its child's — the invariant
    /// [`Taxonomy::add_child`] maintains). Children, depths, and the
    /// name lookup are re-derived in O(labels).
    ///
    /// This is the snapshot-loading counterpart of
    /// [`Taxonomy::label_names`] + [`Taxonomy::parents`]. Inputs that
    /// violate the invariants are rejected:
    /// [`PTreeError::TaxonomyMismatch`] for an empty/odd-shaped pair or
    /// a non-topological parent order, [`PTreeError::UnknownLabel`] for
    /// an out-of-range parent id, [`PTreeError::DuplicateLabel`] for a
    /// reused name.
    pub fn from_parts(labels: Vec<String>, parent: Vec<LabelId>) -> Result<Taxonomy> {
        if labels.is_empty() || labels.len() != parent.len() || parent[0] != Self::ROOT {
            return Err(PTreeError::TaxonomyMismatch);
        }
        if labels.len() > u32::MAX as usize {
            return Err(PTreeError::TaxonomyMismatch);
        }
        let mut children: Vec<Vec<LabelId>> = vec![Vec::new(); labels.len()];
        let mut depth = vec![0u32; labels.len()];
        for (id, &p) in parent.iter().enumerate().skip(1) {
            if p as usize >= labels.len() {
                return Err(PTreeError::UnknownLabel(p));
            }
            // `parent(id) < id` is what makes one forward pass enough
            // (and rules out cycles).
            if p as usize >= id {
                return Err(PTreeError::TaxonomyMismatch);
            }
            children[p as usize].push(id as LabelId);
            depth[id] = depth[p as usize] + 1;
        }
        let mut by_name = FxHashMap::default();
        for (id, name) in labels.iter().enumerate() {
            if by_name.insert(name.clone(), id as LabelId).is_some() {
                return Err(PTreeError::DuplicateLabel(name.clone()));
            }
        }
        Ok(Taxonomy { labels, parent, children, depth, by_name })
    }

    /// All label names in id order (the root at index 0). With
    /// [`Taxonomy::parents`] this is the complete persistent state; feed
    /// both to [`Taxonomy::from_parts`] to reconstruct.
    #[inline]
    pub fn label_names(&self) -> &[String] {
        &self.labels
    }

    /// The parent array in id order (the root maps to itself). See
    /// [`Taxonomy::label_names`].
    #[inline]
    pub fn parents(&self) -> &[LabelId] {
        &self.parent
    }

    /// How many [`Taxonomy`] values have been deep-copied in this
    /// process so far (monotone counter). Regression tests snapshot it
    /// around a code path to pin that the path performs zero taxonomy
    /// clones; production code should never need it.
    pub fn clone_count() -> usize {
        TAXONOMY_CLONES.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Number of labels (including the root).
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// A taxonomy always has at least the root.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The label string of `id`.
    pub fn label(&self, id: LabelId) -> &str {
        &self.labels[id as usize]
    }

    /// Looks a label up by name.
    pub fn id_of(&self, name: &str) -> Option<LabelId> {
        self.by_name.get(name).copied()
    }

    /// Parent id of `id` (the root is its own parent).
    #[inline]
    pub fn parent(&self, id: LabelId) -> LabelId {
        self.parent[id as usize]
    }

    /// Children of `id` in insertion order (ascending ids).
    #[inline]
    pub fn children(&self, id: LabelId) -> &[LabelId] {
        &self.children[id as usize]
    }

    /// Depth of `id` (root = 0).
    #[inline]
    pub fn depth(&self, id: LabelId) -> u32 {
        self.depth[id as usize]
    }

    /// Maximum depth over all labels.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Iterator over `id` and all its ancestors up to and including the
    /// root, in leaf-to-root order.
    pub fn ancestors_inclusive(&self, id: LabelId) -> impl Iterator<Item = LabelId> + '_ {
        let mut cur = Some(id);
        std::iter::from_fn(move || {
            let here = cur?;
            cur = if here == Self::ROOT { None } else { Some(self.parent[here as usize]) };
            Some(here)
        })
    }

    /// Validates that `ids` (sorted, deduped) form an ancestor-closed set
    /// containing the root — i.e. a legal P-tree node set.
    pub fn is_ancestor_closed(&self, ids: &[LabelId]) -> bool {
        if ids.first() != Some(&Self::ROOT) {
            return false;
        }
        ids.iter().all(|&id| {
            (id as usize) < self.len()
                && (id == Self::ROOT || ids.binary_search(&self.parent(id)).is_ok())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ccs_fragment() -> (Taxonomy, Vec<LabelId>) {
        // r -> {CM, IS, HW}; CM -> {ML, AI}; IS -> {DMS}.
        let mut t = Taxonomy::new("r");
        let cm = t.add_child(Taxonomy::ROOT, "CM").unwrap();
        let is = t.add_child(Taxonomy::ROOT, "IS").unwrap();
        let hw = t.add_child(Taxonomy::ROOT, "HW").unwrap();
        let ml = t.add_child(cm, "ML").unwrap();
        let ai = t.add_child(cm, "AI").unwrap();
        let dms = t.add_child(is, "DMS").unwrap();
        (t, vec![cm, is, hw, ml, ai, dms])
    }

    #[test]
    fn ids_are_dense_and_parent_smaller() {
        let (t, ids) = ccs_fragment();
        assert_eq!(t.len(), 7);
        for &id in &ids {
            assert!(t.parent(id) < id);
        }
        assert_eq!(t.parent(Taxonomy::ROOT), Taxonomy::ROOT);
    }

    #[test]
    fn lookup_by_name() {
        let (t, _) = ccs_fragment();
        assert_eq!(t.label(t.id_of("ML").unwrap()), "ML");
        assert_eq!(t.id_of("nope"), None);
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut t = Taxonomy::new("r");
        t.add_child(0, "CM").unwrap();
        assert_eq!(t.add_child(0, "CM").unwrap_err(), PTreeError::DuplicateLabel("CM".into()));
        assert_eq!(t.add_child(99, "X").unwrap_err(), PTreeError::UnknownLabel(99));
    }

    #[test]
    fn depths_and_leaves() {
        let (t, ids) = ccs_fragment();
        let [cm, _is, _hw, ml, _ai, _dms] = ids[..] else { unreachable!() };
        assert_eq!(t.depth(Taxonomy::ROOT), 0);
        assert_eq!(t.depth(cm), 1);
        assert_eq!(t.depth(ml), 2);
        assert_eq!(t.max_depth(), 2);
    }

    #[test]
    fn ancestors_walk_to_root() {
        let (t, ids) = ccs_fragment();
        let ml = ids[3];
        let anc: Vec<LabelId> = t.ancestors_inclusive(ml).collect();
        assert_eq!(anc, vec![ml, ids[0], Taxonomy::ROOT]);
        let anc_root: Vec<LabelId> = t.ancestors_inclusive(Taxonomy::ROOT).collect();
        assert_eq!(anc_root, vec![Taxonomy::ROOT]);
    }

    /// `label_names` + `parents` → `from_parts` reproduces the whole
    /// accessor surface (the snapshot persistence path).
    #[test]
    fn from_parts_round_trip() {
        let (t, ids) = ccs_fragment();
        let back = Taxonomy::from_parts(t.label_names().to_vec(), t.parents().to_vec()).unwrap();
        assert_eq!(back.len(), t.len());
        for id in 0..t.len() as LabelId {
            assert_eq!(back.label(id), t.label(id));
            assert_eq!(back.parent(id), t.parent(id));
            assert_eq!(back.children(id), t.children(id));
            assert_eq!(back.depth(id), t.depth(id));
            assert_eq!(back.id_of(t.label(id)), Some(id));
        }
        let _ = ids;
    }

    #[test]
    fn from_parts_rejects_malformed_inputs() {
        let name = |s: &str| s.to_owned();
        // Empty / mismatched lengths / root not its own parent.
        assert_eq!(Taxonomy::from_parts(vec![], vec![]).unwrap_err(), PTreeError::TaxonomyMismatch);
        assert_eq!(
            Taxonomy::from_parts(vec![name("r")], vec![0, 0]).unwrap_err(),
            PTreeError::TaxonomyMismatch
        );
        assert_eq!(
            Taxonomy::from_parts(vec![name("r"), name("a")], vec![1, 0]).unwrap_err(),
            PTreeError::TaxonomyMismatch
        );
        // Non-topological parent (forward reference / self-parent).
        assert_eq!(
            Taxonomy::from_parts(vec![name("r"), name("a"), name("b")], vec![0, 2, 1]).unwrap_err(),
            PTreeError::TaxonomyMismatch
        );
        // Out-of-range parent id.
        assert_eq!(
            Taxonomy::from_parts(vec![name("r"), name("a")], vec![0, 9]).unwrap_err(),
            PTreeError::UnknownLabel(9)
        );
        // Duplicate name.
        assert_eq!(
            Taxonomy::from_parts(vec![name("r"), name("r")], vec![0, 0]).unwrap_err(),
            PTreeError::DuplicateLabel("r".into())
        );
    }

    #[test]
    fn clone_count_is_monotone_and_counts() {
        let (t, _) = ccs_fragment();
        let before = Taxonomy::clone_count();
        let copy = t.clone();
        assert!(Taxonomy::clone_count() > before);
        assert_eq!(copy.len(), t.len());
    }

    #[test]
    fn ancestor_closure_checks() {
        let (t, ids) = ccs_fragment();
        let [cm, is, _hw, ml, _ai, dms] = ids[..] else { unreachable!() };
        assert!(t.is_ancestor_closed(&[0, cm, ml]));
        assert!(t.is_ancestor_closed(&[0]));
        assert!(!t.is_ancestor_closed(&[0, ml])); // missing CM
        assert!(!t.is_ancestor_closed(&[cm, ml])); // missing root
        assert!(t.is_ancestor_closed(&[0, cm, is, ml, dms]));
        assert!(!t.is_ancestor_closed(&[0, 99])); // unknown id
    }
}

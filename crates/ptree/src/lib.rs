//! # pcs-ptree — profile trees and the subtree search space
//!
//! The PCS paper attaches to every vertex a **P-tree**: a rooted tree of
//! attribute labels that is an *induced rooted subtree* of a global
//! taxonomy (the **GP-tree**, e.g. ACM CCS or MeSH). This crate builds
//! that entire substrate:
//!
//! * [`Taxonomy`] — the GP-tree: an interned label hierarchy with dense
//!   `LabelId`s assigned so that `parent(id) < id`;
//! * [`PTree`] — a vertex profile: an ancestor-closed set of taxonomy
//!   nodes containing the root, stored as a sorted id list. Subtree
//!   inclusion is a sorted-subset test, intersection of P-trees is a
//!   sorted merge, and the **maximal common subtree** `M(G)` of a
//!   community is an intersection fold ([`PTree::intersect_all`]);
//! * [`QuerySpace`] / [`Subtree`] — the per-query lattice of candidate
//!   subtrees of `T(q)`, as fixed-width bitsets over DFS positions, with
//!   non-redundant rightmost-path generation (Asai et al.), lattice
//!   parent/child moves (for the MARGIN adaptation), and Lemma 1
//!   counting helpers;
//! * [`ted`] — the Zhang–Shasha tree edit distance used by the CPS
//!   quality metric (Eq. 2 of the paper).
//!
//! ```
//! use pcs_ptree::{Taxonomy, PTree};
//!
//! let mut tax = Taxonomy::new("r");
//! let cm = tax.add_child(Taxonomy::ROOT, "CM").unwrap();
//! let ml = tax.add_child(cm, "ML").unwrap();
//! let ai = tax.add_child(cm, "AI").unwrap();
//! let is = tax.add_child(Taxonomy::ROOT, "IS").unwrap();
//!
//! let b = PTree::from_labels(&tax, [ml, ai]).unwrap(); // closure adds CM and r
//! let c = PTree::from_labels(&tax, [ml, is]).unwrap();
//! let common = b.intersect(&c);
//! assert!(common.contains(ml) && common.contains(cm));
//! assert!(!common.contains(is));
//! ```

#![deny(unsafe_code)]

pub mod enumerate;
pub mod intern;
pub mod profiles;
pub mod ptree;
pub mod query;
pub mod taxonomy;
pub mod ted;

pub use intern::{SubtreeId, SubtreeIdSet, SubtreeInterner};
pub use profiles::{ProfileSource, ProfilesHandle, ProfilesRef};
pub use ptree::{PTree, ProfileLoader};
pub use query::{QuerySpace, Subtree};
pub use taxonomy::{LabelId, Taxonomy};
pub use ted::{tree_edit_distance, OrderedTree};

/// Errors produced by the profile-tree substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PTreeError {
    /// A label name was already used elsewhere in the taxonomy (label
    /// names are globally unique so that `id_of` is unambiguous).
    DuplicateLabel(String),
    /// A label id does not exist in the taxonomy.
    UnknownLabel(LabelId),
    /// A P-tree operation mixed trees from different taxonomies (the ids
    /// were out of range for the taxonomy supplied).
    TaxonomyMismatch,
}

impl std::fmt::Display for PTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PTreeError::DuplicateLabel(l) => write!(f, "duplicate label name {l:?}"),
            PTreeError::UnknownLabel(id) => write!(f, "unknown label id {id}"),
            PTreeError::TaxonomyMismatch => write!(f, "label ids out of range for taxonomy"),
        }
    }
}

impl std::error::Error for PTreeError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PTreeError>;

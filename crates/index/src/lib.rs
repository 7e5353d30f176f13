//! # pcs-index — the CL-tree and CP-tree indexes
//!
//! Index structures from Section 4 of the PCS paper:
//!
//! * [`ClTree`] — the *core label tree* of Fang et al. (adopted by the
//!   paper without labels): all k-ĉores of a graph organized by the
//!   nestedness property `j-ĉore ⊆ i-ĉore (i < j)` into a forest, with
//!   a `vertexNodeMap` locating the ĉore of any query vertex. Built in
//!   O(m·α(n)) with a union-find over descending core numbers; answers
//!   `get(q, k)` in time proportional to the answer.
//! * [`ShardedCpIndex`] — the *core profiled tree* (CP-tree) index
//!   (Section 4.2): one node per taxonomy label holding the CL-tree of
//!   the subgraph induced by the vertices whose P-trees contain that
//!   label. The per-label [`IndexShard`]s are independent, so they
//!   materialize on demand — the first query pays for the labels it
//!   touches rather than the whole taxonomy — and `T(v)` is restored
//!   from the profiles the index shares with its owner (the paper's
//!   `headMap`). Queries also store in it the communities they prove
//!   for label sets, for later queries inside the same community
//!   ([`ShardedCpIndex::proven_community`]).
//!
//! ```
//! use pcs_graph::Graph;
//! use pcs_ptree::{PTree, Taxonomy};
//! use pcs_index::ShardedCpIndex;
//!
//! let mut tax = Taxonomy::new("r");
//! let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
//! let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
//! let profiles = vec![
//!     PTree::from_labels(&tax, [a]).unwrap(),
//!     PTree::from_labels(&tax, [a]).unwrap(),
//!     PTree::root_only(),
//! ];
//! let index = ShardedCpIndex::build_resident(&g, &tax, &profiles).unwrap();
//! // 1-ĉore of vertex 0 among vertices labelled `a`: the edge {0, 1}.
//! // `get_ref` is the zero-copy hot path (borrowed arena slice, set
//! // order) — the only `I.get` the index exposes; sort a copy when
//! // order matters.
//! let mut members = index.get_ref(1, 0, a).unwrap().to_vec();
//! members.sort_unstable();
//! assert_eq!(members, vec![0, 1]);
//! ```

#![deny(unsafe_code)]

pub mod cltree;
mod communities;
pub mod cptree;
pub mod sharded;

pub use cltree::{ClTree, ClTreeFlat};
pub use cptree::{CpPatchStats, GraphDelta};
pub use sharded::{IndexShard, MemberSource, ShardSource, ShardedCpIndex};

/// Errors produced while building or querying indexes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum IndexError {
    /// The number of vertex profiles differs from the graph size.
    ProfileCountMismatch {
        /// Vertices in the graph.
        vertices: usize,
        /// Profiles supplied.
        profiles: usize,
    },
    /// A profile references a label outside the taxonomy.
    UnknownLabel(pcs_ptree::LabelId),
    /// A flat representation handed to [`ClTree::from_flat`] (or a
    /// loaded sharded-index part) violates a structural invariant
    /// (snapshot loaders surface this as a corrupt-section error).
    CorruptIndex {
        /// Description of the violated invariant.
        detail: String,
    },
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::ProfileCountMismatch { vertices, profiles } => {
                write!(f, "graph has {vertices} vertices but {profiles} profiles were supplied")
            }
            IndexError::UnknownLabel(l) => write!(f, "profile references unknown label {l}"),
            IndexError::CorruptIndex { detail } => {
                write!(f, "flat index representation is corrupt: {detail}")
            }
        }
    }
}

impl std::error::Error for IndexError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, IndexError>;

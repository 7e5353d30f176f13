//! # pcs-core — profiled community search algorithms
//!
//! The paper's contribution: given a profiled graph `G`, a query vertex
//! `q`, and a degree bound `k`, find every **profiled community** (PC):
//! a connected subgraph containing `q` in which every vertex has degree
//! ≥ k, whose shared profile — the maximal common subtree `M` of all
//! member P-trees — is maximal (no qualifying supergraph has a strictly
//! larger shared subtree, and the community is the largest subgraph for
//! its subtree).
//!
//! Equivalently: for every **maximal feasible subtree** `T ⊆ T(q)`
//! (feasible ⇔ `Gk[T]`, the k-ĉore of `q` among vertices whose P-trees
//! contain `T`, is non-empty), report `Gk[T]`.
//!
//! Six query algorithms are provided — the five of the paper's
//! evaluation, and the closed-subtree search [`Algorithm::Auto`] runs:
//!
//! | name | paper | strategy |
//! |---|---|---|
//! | [`Algorithm::Basic`] | Alg. 1 | bottom-up rightmost-path enumeration, verification from scratch against `Gk` |
//! | [`Algorithm::Incre`]  | Alg. 3 | same enumeration, but each verification shrinks the parent community with the CP-tree (`Gk[T'] ∩ I.get(k,q,t)`) |
//! | [`Algorithm::AdvI`]  | Alg. 8 + `find-I` | MARGIN-style boundary walking seeded by an incremental initial cut |
//! | [`Algorithm::AdvD`]  | Alg. 8 + `find-D` | … seeded decrementally from `T(q)` |
//! | [`Algorithm::AdvP`]  | Alg. 8 + `find-P` | … seeded by root-to-leaf path probes |
//! | [`Algorithm::Closed`] | — | `incre`'s narrowing over **closed** subtrees only: after each feasible step jump to `cl(T)`, every node of `T(q)` all of `Gk[T]` carries ([`closed`]) |
//!
//! All six provably return the same community set (the workspace's
//! integration tests check this on randomized profiled graphs).
//!
//! ```
//! use pcs_graph::Graph;
//! use pcs_ptree::{PTree, Taxonomy};
//! use pcs_core::{Algorithm, QueryContext};
//!
//! // Triangle where everyone shares label `a`.
//! let mut tax = Taxonomy::new("r");
//! let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
//! let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
//! let profiles: Vec<PTree> =
//!     (0..3).map(|_| PTree::from_labels(&tax, [a]).unwrap()).collect();
//! let ctx = QueryContext::new(&g, &tax, &profiles).unwrap();
//! let out = ctx.query(0, 2, Algorithm::Basic).unwrap();
//! assert_eq!(out.communities.len(), 1);
//! assert_eq!(out.communities[0].vertices, vec![0, 1, 2]);
//! assert!(out.communities[0].subtree.contains(a));
//! ```

#![deny(unsafe_code)]

pub mod advanced;
pub mod basic;
pub mod closed;
pub mod incre;
pub mod problem;
pub mod stats;
pub mod verify;

pub use advanced::FindStrategy;
pub use problem::{Algorithm, PcsError, PcsOutcome, ProfiledCommunity, QueryContext, QueryStats};
pub use verify::{QueryScratch, Verifier};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PcsError>;

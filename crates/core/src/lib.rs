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
//! Each candidate subtree is checked by one of two verifiers, one per
//! seeding regime, over a shared memoized core ([`verify`]):
//! [`Verifier`] seeds from `Gk` by profile masks and has no index —
//! only `basic` runs it, so `basic` is Algorithm 1 even when the
//! context carries an index; [`IndexVerifier`] holds the CP-tree index
//! and seeds from its label ĉores — every other algorithm runs it.
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
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

pub mod advanced;
pub mod basic;
pub mod closed;
pub mod incre;
pub mod indexed;
pub mod problem;
pub mod stats;
pub mod verify;

pub use advanced::FindStrategy;
pub use indexed::IndexVerifier;
pub use problem::{Algorithm, PcsError, PcsOutcome, ProfiledCommunity, QueryContext, QueryStats};
pub use verify::{QueryScratch, Verifier};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, PcsError>;

#[cfg(test)]
pub(crate) mod testkit {
    //! Fixtures shared by the crate's unit tests.

    use pcs_graph::Graph;
    use pcs_ptree::{PTree, Subtree, Taxonomy};

    use crate::indexed::IndexVerifier;
    use crate::verify::{Community, Verifier};

    /// The running example of the paper (Fig. 1 + Fig. 2): eight
    /// authors A–H (vertices 0–7) under a seven-label taxonomy.
    pub(crate) fn figure1() -> (Graph, Taxonomy, Vec<PTree>) {
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
            PTree::from_labels(&t, [dms, hw]).unwrap(),         // A
            PTree::from_labels(&t, [ml, ai]).unwrap(),          // B
            PTree::from_labels(&t, [ml, ai, is]).unwrap(),      // C
            PTree::from_labels(&t, [ml, ai, dms, hw]).unwrap(), // D
            PTree::from_labels(&t, [dms, hw]).unwrap(),         // E
            PTree::from_labels(&t, [is, hw]).unwrap(),          // F
            PTree::from_labels(&t, [hw, cm]).unwrap(),          // G
            PTree::from_labels(&t, [is, hw]).unwrap(),          // H
        ];
        (g, t, profiles)
    }

    /// `Gk[T]` for an owned candidate: interns it, then asks the
    /// id-space verifier.
    pub(crate) trait Probe {
        fn verify(&mut self, s: &Subtree) -> Community;
    }

    impl Probe for Verifier<'_> {
        fn verify(&mut self, s: &Subtree) -> Community {
            let id = self.ids_mut().intern(s);
            self.verify_id(id)
        }
    }

    impl Probe for IndexVerifier<'_> {
        fn verify(&mut self, s: &Subtree) -> Community {
            let id = self.ids_mut().intern(s);
            self.verify_id(id)
        }
    }
}

//! The owned-`Subtree` probes the integration suites use on top of the
//! id-space verifiers: intern the candidate, then ask.

use std::sync::Arc;

use pcs::core::verify::Community;
use pcs::core::{IndexVerifier, Verifier};
use pcs::graph::VertexId;
use pcs::ptree::Subtree;

/// `Gk[T]` for an owned candidate.
pub trait OwnedVerify {
    fn verify(&mut self, s: &Subtree) -> Community;
}

impl OwnedVerify for Verifier<'_> {
    fn verify(&mut self, s: &Subtree) -> Community {
        let id = self.ids_mut().intern(s);
        self.verify_id(id)
    }
}

impl OwnedVerify for IndexVerifier<'_> {
    fn verify(&mut self, s: &Subtree) -> Community {
        let id = self.ids_mut().intern(s);
        self.verify_id(id)
    }
}

/// Lemma-3 narrowing of `base` to an owned candidate `s` that adds
/// position `added_pos` to `base`'s subtree.
#[allow(dead_code)] // every suite compiles this module; one narrows
pub trait OwnedNarrow {
    fn verify_from_base(
        &mut self,
        s: &Subtree,
        base: &Arc<Vec<VertexId>>,
        added_pos: u32,
    ) -> Community;
}

impl OwnedNarrow for IndexVerifier<'_> {
    fn verify_from_base(
        &mut self,
        s: &Subtree,
        base: &Arc<Vec<VertexId>>,
        added_pos: u32,
    ) -> Community {
        let id = self.ids_mut().intern(s);
        self.verify_from_base_id(id, base, added_pos)
    }
}

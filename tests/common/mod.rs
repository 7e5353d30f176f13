//! The owned-`Subtree` probes the integration suites use on top of the
//! id-space verifiers: intern the candidate, then ask.

use pcs::core::verify::Community;
use pcs::core::{IndexVerifier, Verifier};
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

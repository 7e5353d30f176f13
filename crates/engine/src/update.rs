//! The update subsystem: mutation requests and their outcomes.
//!
//! Profiled graphs in the wild — collaboration networks, social graphs
//! — change continuously, so the engine accepts edge and profile
//! mutations at serving time. Updates are expressed as an
//! [`UpdateBatch`] and applied atomically by
//! [`PcsEngine::apply`](crate::PcsEngine::apply): the whole batch is
//! validated first, then applied to the writer's master state, and
//! finally published as one new epoch snapshot. Readers never observe a
//! half-applied batch.

use pcs_graph::VertexId;
use pcs_index::CpPatchStats;
use pcs_ptree::PTree;
use std::fmt;
use std::time::Duration;

/// One mutation of the profiled graph. The vertex set is fixed at
/// build time; updates change edges and profiles.
#[derive(Clone, Debug, PartialEq)]
#[expect(clippy::exhaustive_enums, reason = "the WAL codec matches every update kind")]
pub enum Update {
    /// Insert the undirected edge `{u, v}`. Inserting an existing edge
    /// is a counted no-op, not an error.
    AddEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Remove the undirected edge `{u, v}`. Removing an absent edge —
    /// including a `{v, v}` self-loop, which can never exist — is a
    /// counted no-op, not an error.
    RemoveEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
    },
    /// Replace the P-tree of `vertex`. Writing the identical profile is
    /// a counted no-op.
    SetProfile {
        /// The vertex to re-profile.
        vertex: VertexId,
        /// The new P-tree (validated against the engine's taxonomy).
        profile: PTree,
    },
}

/// An ordered list of mutations applied as one atomic unit, built
/// fluently:
///
/// ```
/// use pcs_engine::UpdateBatch;
/// let batch = UpdateBatch::new().add_edge(0, 1).remove_edge(2, 3);
/// assert_eq!(batch.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateBatch {
    ops: Vec<Update>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an edge insertion.
    pub fn add_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.ops.push(Update::AddEdge { u, v });
        self
    }

    /// Appends an edge removal.
    pub fn remove_edge(mut self, u: VertexId, v: VertexId) -> Self {
        self.ops.push(Update::RemoveEdge { u, v });
        self
    }

    /// Appends a profile replacement.
    pub fn set_profile(mut self, vertex: VertexId, profile: PTree) -> Self {
        self.ops.push(Update::SetProfile { vertex, profile });
        self
    }

    /// Appends one operation in place.
    pub fn push(&mut self, op: Update) {
        self.ops.push(op);
    }

    /// The operations, in application order.
    pub fn ops(&self) -> &[Update] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the batch holds no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl FromIterator<Update> for UpdateBatch {
    fn from_iter<I: IntoIterator<Item = Update>>(iter: I) -> Self {
        UpdateBatch { ops: iter.into_iter().collect() }
    }
}

impl From<Vec<Update>> for UpdateBatch {
    fn from(ops: Vec<Update>) -> Self {
        UpdateBatch { ops }
    }
}

/// How the CP-tree index was maintained across one applied batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[expect(clippy::exhaustive_enums, reason = "callers match every maintenance outcome")]
pub enum IndexMaintenance {
    /// The previous epoch's index was cloned and patched in place —
    /// only the invalidated labels were revisited.
    Patched(CpPatchStats),
    /// No index existed before the batch (a lazy engine no query has
    /// built one on); it stays that way.
    NotBuilt,
    /// The batch was entirely no-ops: no new snapshot was published and
    /// the index is untouched.
    Unchanged,
}

/// The outcome of one applied [`UpdateBatch`].
#[derive(Clone, Debug)]
pub struct UpdateReport {
    /// Epoch of the snapshot holding the batch's effects. Equal to the
    /// pre-batch epoch when the batch was all no-ops (nothing was
    /// published).
    pub epoch: u64,
    /// Edges actually inserted.
    pub edges_added: usize,
    /// Edges actually removed.
    pub edges_removed: usize,
    /// Vertices whose profile actually changed.
    pub profiles_changed: usize,
    /// Operations with no effect (duplicate inserts, absent removals,
    /// identical profiles).
    pub noops: usize,
    /// Vertices whose global core number changed, summed over the
    /// batch's edge operations.
    pub cores_changed: usize,
    /// What happened to the CP-tree index.
    pub index: IndexMaintenance,
    /// Highest epoch covered by a completed WAL fsync at the time the
    /// report was assembled: `Some(e)` on engines opened with
    /// [`EngineBuilder::durable`](crate::EngineBuilder::durable) (where
    /// `e >= epoch` means this batch itself is on stable storage),
    /// `None` on purely in-memory engines. Lets clients distinguish
    /// applied-in-memory from fsynced-to-log.
    pub durable_epoch: Option<u64>,
    /// Wall-clock time of validation + application + publication.
    pub elapsed: Duration,
}

impl UpdateReport {
    /// True when at least one operation had an effect.
    pub fn changed(&self) -> bool {
        self.edges_added + self.edges_removed + self.profiles_changed > 0
    }
}

/// Why an [`UpdateBatch`] was rejected. Validation runs before any
/// mutation, so a rejected batch leaves the engine untouched.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum UpdateError {
    /// An operation referenced a vertex outside `0..n`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: VertexId,
        /// The engine's vertex count.
        n: usize,
    },
    /// An edge *insertion* named the same vertex twice (removals of a
    /// self-loop are counted no-ops instead: the edge cannot exist).
    SelfLoop {
        /// The vertex named by both endpoints.
        vertex: VertexId,
    },
    /// A replacement profile references labels outside the engine's
    /// taxonomy or is not ancestor-closed.
    InvalidProfile {
        /// The vertex whose new profile failed validation.
        vertex: VertexId,
    },
    /// A replayed batch (WAL recovery, follower tailing) was stamped
    /// with an epoch that is not the engine's next epoch — the log and
    /// the engine have diverged, so applying it would corrupt state.
    EpochMismatch {
        /// The epoch the batch was stamped with.
        expected: u64,
        /// The epoch after those the engine has published or staged.
        next: u64,
    },
    /// A replayed batch had no effect. A primary never logs an
    /// all-no-op batch (nothing is published for one), so a replica or
    /// recovery replaying the same prefix must see the same effects;
    /// a no-op replay means the two states have diverged.
    ReplayNoEffect {
        /// The epoch the ineffective batch was stamped with.
        epoch: u64,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::VertexOutOfRange { vertex, n } => {
                write!(f, "update references vertex {vertex}, but the engine has {n} vertices")
            }
            UpdateError::SelfLoop { vertex } => {
                write!(f, "edge update would create a self-loop at vertex {vertex}")
            }
            UpdateError::InvalidProfile { vertex } => {
                write!(f, "replacement profile for vertex {vertex} is not a valid subtree of the taxonomy")
            }
            UpdateError::EpochMismatch { expected, next } => {
                write!(
                    f,
                    "replayed batch is stamped epoch {expected}, but the engine's next \
                     epoch is {next}: log and engine state have diverged"
                )
            }
            UpdateError::ReplayNoEffect { epoch } => {
                write!(
                    f,
                    "replayed batch for epoch {epoch} had no effect; a logged batch is \
                     never a no-op, so replica and primary state have diverged"
                )
            }
        }
    }
}

impl std::error::Error for UpdateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_builder_and_iteration() {
        let p = PTree::root_only();
        let batch = UpdateBatch::new().add_edge(0, 1).remove_edge(1, 2).set_profile(3, p.clone());
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        assert_eq!(batch.ops()[0], Update::AddEdge { u: 0, v: 1 });
        assert_eq!(batch.ops()[2], Update::SetProfile { vertex: 3, profile: p });
        let collected: UpdateBatch = batch.ops().to_vec().into_iter().collect();
        assert_eq!(collected, batch);
    }

    #[test]
    fn error_display() {
        assert!(UpdateError::VertexOutOfRange { vertex: 7, n: 3 }.to_string().contains('7'));
        assert!(UpdateError::SelfLoop { vertex: 2 }.to_string().contains("self-loop"));
        assert!(UpdateError::InvalidProfile { vertex: 1 }.to_string().contains("taxonomy"));
    }
}

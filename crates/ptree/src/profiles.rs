//! Profile collections that may fault in from disk.
//!
//! Algorithms consume per-vertex P-trees through [`ProfilesRef`], a
//! `Copy` view that is either a plain slice (the resident case — zero
//! overhead beyond one enum branch) or a [`ProfileSource`], an object
//! that materializes vertex ranges on first touch. The engine's
//! file-backed snapshot loader (in `pcs-store`) implements
//! [`ProfileSource`] over checksummed on-disk chunks, so a query on a
//! freshly loaded replica reads only the profile ranges it actually
//! inspects.
//!
//! [`ProfilesHandle`] is the owning analogue used by long-lived holders
//! (engine snapshots, the sharded index facade): cheap to clone, and
//! densifiable in one pass when a mutation needs the whole vector.

use crate::ptree::PTree;
use std::sync::Arc;

/// Vertex-indexed P-tree storage that materializes on demand.
///
/// `get` returns `None` for an out-of-range vertex **or** when the
/// backing bytes turn out to be damaged. Implementations must record
/// the typed cause of a damage-induced `None` in their own fault cell
/// *before* returning, and `fault` must report it; callers that
/// tolerate `None` as "no profile" are required to consult `fault`
/// before trusting any answer derived from the collection (the engine
/// does this once per query, so a damaged chunk yields a typed error,
/// never a silently smaller community).
pub trait ProfileSource: Send + Sync {
    /// Number of vertices (always known without materializing).
    fn len(&self) -> usize;

    /// True when there are no vertices.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The profile of vertex `v`, faulting its range in on first touch.
    fn get(&self, v: usize) -> Option<&PTree>;

    /// Human-readable description of the first materialization failure,
    /// if any occurred. (The typed error is kept by the storage layer;
    /// this is the trait-level signal that an answer may be based on
    /// incomplete data and must be discarded.)
    fn fault(&self) -> Option<String>;

    /// Materializes every vertex and returns the dense vector, cached
    /// so repeated calls are one `Arc` clone.
    fn materialize(&self) -> Result<Arc<Vec<PTree>>, String>;

    /// Borrowed dense view; only available once fully materialized.
    fn dense(&self) -> Option<&[PTree]>;
}

/// A borrowed, `Copy` view over either a resident slice or a lazy
/// source. This is what [`QueryContext`](../..) and the algorithm layer
/// read profiles through.
#[derive(Clone, Copy)]
#[expect(clippy::exhaustive_enums, reason = "resident or file-backed, nothing else")]
pub enum ProfilesRef<'a> {
    /// Resident profiles.
    Slice(&'a [PTree]),
    /// File-backed profiles that fault in per range.
    Source(&'a dyn ProfileSource),
}

impl<'a> ProfilesRef<'a> {
    /// Number of vertices.
    pub fn len(self) -> usize {
        match self {
            ProfilesRef::Slice(s) => s.len(),
            ProfilesRef::Source(s) => s.len(),
        }
    }

    /// True when there are no vertices.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The profile of vertex `v` (`None` when out of range, or when a
    /// lazy source failed to fault the range in — see
    /// [`ProfileSource::get`] for the discipline that implies).
    pub fn get(self, v: usize) -> Option<&'a PTree> {
        match self {
            ProfilesRef::Slice(s) => s.get(v),
            ProfilesRef::Source(s) => s.get(v),
        }
    }

    /// First materialization failure of a lazy source (`None` for
    /// slices, which cannot fail).
    pub fn fault(self) -> Option<String> {
        match self {
            ProfilesRef::Slice(_) => None,
            ProfilesRef::Source(s) => s.fault(),
        }
    }

    /// The resident slice, when this view is (or has become) dense.
    pub fn as_slice(self) -> Option<&'a [PTree]> {
        match self {
            ProfilesRef::Slice(s) => Some(s),
            ProfilesRef::Source(s) => s.dense(),
        }
    }
}

impl<'a> From<&'a [PTree]> for ProfilesRef<'a> {
    fn from(s: &'a [PTree]) -> Self {
        ProfilesRef::Slice(s)
    }
}

impl<'a> From<&'a Vec<PTree>> for ProfilesRef<'a> {
    fn from(s: &'a Vec<PTree>) -> Self {
        ProfilesRef::Slice(s.as_slice())
    }
}

impl<'a, const N: usize> From<&'a [PTree; N]> for ProfilesRef<'a> {
    fn from(s: &'a [PTree; N]) -> Self {
        ProfilesRef::Slice(s.as_slice())
    }
}

impl<'a> From<&'a ProfilesHandle> for ProfilesRef<'a> {
    fn from(h: &'a ProfilesHandle) -> Self {
        h.as_ref()
    }
}

impl std::fmt::Debug for ProfilesRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            ProfilesRef::Slice(_) => "slice",
            ProfilesRef::Source(_) => "source",
        };
        f.debug_struct("ProfilesRef").field("kind", &kind).field("len", &self.len()).finish()
    }
}

/// Owning, cheaply clonable profile storage: dense, or backed by a
/// shared lazy source.
#[derive(Clone)]
#[expect(clippy::exhaustive_enums, reason = "resident or file-backed, nothing else")]
pub enum ProfilesHandle {
    /// Resident profiles, shared by `Arc`.
    Dense(Arc<Vec<PTree>>),
    /// A shared lazy source (clones share materialization state).
    Lazy(Arc<dyn ProfileSource>),
}

impl ProfilesHandle {
    /// Wraps a resident vector.
    pub fn dense(profiles: Arc<Vec<PTree>>) -> ProfilesHandle {
        ProfilesHandle::Dense(profiles)
    }

    /// Wraps a lazy source.
    pub fn lazy(source: Arc<dyn ProfileSource>) -> ProfilesHandle {
        ProfilesHandle::Lazy(source)
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        match self {
            ProfilesHandle::Dense(p) => p.len(),
            ProfilesHandle::Lazy(s) => s.len(),
        }
    }

    /// True when there are no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The profile of vertex `v`; see [`ProfileSource::get`] for the
    /// lazy-failure contract.
    pub fn get(&self, v: usize) -> Option<&PTree> {
        match self {
            ProfilesHandle::Dense(p) => p.get(v),
            ProfilesHandle::Lazy(s) => s.get(v),
        }
    }

    /// The borrowed view to hand to the algorithm layer.
    pub fn as_ref(&self) -> ProfilesRef<'_> {
        match self {
            ProfilesHandle::Dense(p) => ProfilesRef::Slice(p),
            ProfilesHandle::Lazy(s) => ProfilesRef::Source(&**s),
        }
    }

    /// First materialization failure, if any (`None` for dense).
    pub fn fault(&self) -> Option<String> {
        match self {
            ProfilesHandle::Dense(_) => None,
            ProfilesHandle::Lazy(s) => s.fault(),
        }
    }

    /// The dense vector, materializing everything on first call. The
    /// mutation path uses this: updates work on the whole vector, so a
    /// lazily loaded replica densifies on its first applied batch.
    pub fn to_dense(&self) -> Result<Arc<Vec<PTree>>, String> {
        match self {
            ProfilesHandle::Dense(p) => Ok(Arc::clone(p)),
            ProfilesHandle::Lazy(s) => s.materialize(),
        }
    }

    /// True when every vertex is resident.
    pub fn is_materialized(&self) -> bool {
        match self {
            ProfilesHandle::Dense(_) => true,
            ProfilesHandle::Lazy(s) => s.dense().is_some(),
        }
    }
}

impl std::fmt::Debug for ProfilesHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self {
            ProfilesHandle::Dense(_) => "dense",
            ProfilesHandle::Lazy(_) => "lazy",
        };
        f.debug_struct("ProfilesHandle")
            .field("kind", &kind)
            .field("len", &self.len())
            .field("materialized", &self.is_materialized())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_view_roundtrips() {
        let profiles = vec![PTree::root_only(), PTree::root_only()];
        let view: ProfilesRef<'_> = (&profiles).into();
        assert_eq!(view.len(), 2);
        assert!(view.get(1).is_some());
        assert!(view.get(2).is_none());
        assert!(view.fault().is_none());
        assert_eq!(view.as_slice().unwrap().len(), 2);
    }

    #[test]
    fn dense_handle_matches_slice_semantics() {
        let h = ProfilesHandle::dense(Arc::new(vec![PTree::root_only(); 3]));
        assert_eq!(h.len(), 3);
        assert!(h.is_materialized());
        assert!(h.get(0).is_some());
        assert_eq!(h.to_dense().unwrap().len(), 3);
        assert_eq!(h.as_ref().len(), 3);
    }
}

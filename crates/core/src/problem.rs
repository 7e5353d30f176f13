//! Problem definition, query context, and result types.

use std::borrow::Cow;

use pcs_graph::core::CoreDecomposition;
use pcs_graph::{Graph, VertexId};
use pcs_index::ShardedCpIndex;
use pcs_ptree::{PTree, ProfilesRef, QuerySpace, Taxonomy};

use crate::advanced::FindStrategy;
use crate::{advanced, basic, closed, incre, Result};

/// Errors surfaced by PCS queries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PcsError {
    /// The query vertex does not exist in the graph.
    QueryVertexOutOfRange {
        /// Offending vertex id.
        vertex: VertexId,
        /// Vertices in the graph.
        n: usize,
    },
    /// The number of profiles differs from the number of vertices.
    ProfileCountMismatch {
        /// Vertices in the graph.
        vertices: usize,
        /// Profiles supplied.
        profiles: usize,
    },
    /// An index-based algorithm was requested but the context holds no
    /// CP-tree (call [`QueryContext::with_index`] first).
    IndexRequired(&'static str),
    /// An index error bubbled up during construction.
    Index(pcs_index::IndexError),
}

impl std::fmt::Display for PcsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcsError::QueryVertexOutOfRange { vertex, n } => {
                write!(f, "query vertex {vertex} out of range for graph with {n} vertices")
            }
            PcsError::ProfileCountMismatch { vertices, profiles } => {
                write!(f, "graph has {vertices} vertices but {profiles} profiles were supplied")
            }
            PcsError::IndexRequired(a) => {
                write!(f, "algorithm {a} requires a CP-tree index; call with_index()")
            }
            PcsError::Index(e) => write!(f, "index error: {e}"),
        }
    }
}

impl std::error::Error for PcsError {}

impl From<pcs_index::IndexError> for PcsError {
    fn from(e: pcs_index::IndexError) -> Self {
        PcsError::Index(e)
    }
}

/// Which PCS algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[expect(clippy::exhaustive_enums, reason = "callers match every algorithm")]
pub enum Algorithm {
    /// Pick the fastest search for what is attached:
    /// [`Algorithm::Closed`] when a CP-tree index is available,
    /// [`Algorithm::Basic`] otherwise. Resolved by
    /// [`Algorithm::resolve`] before dispatch, so it never reaches the
    /// algorithm implementations.
    Auto,
    /// Algorithm 1: index-free bottom-up enumeration.
    Basic,
    /// Algorithm 3: index-based incremental enumeration.
    Incre,
    /// Algorithm 8 seeded by `find-I` (Algorithm 5).
    AdvI,
    /// Algorithm 8 seeded by `find-D` (Algorithm 6).
    AdvD,
    /// Algorithm 8 seeded by `find-P` (Algorithm 7).
    AdvP,
    /// The closed-subtree search ([`crate::closed`]): `incre`'s
    /// narrowing, but over closed subtrees only — one verification per
    /// (distinct community, lattice child) instead of one per feasible
    /// subtree. Not in the paper; index-based.
    Closed,
}

impl Algorithm {
    /// The six concrete algorithms: the paper's five in the paper's
    /// order, then `closed` ([`Algorithm::Auto`] is a dispatch policy,
    /// not an algorithm, so it is deliberately absent).
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Basic,
        Algorithm::Incre,
        Algorithm::AdvI,
        Algorithm::AdvD,
        Algorithm::AdvP,
        Algorithm::Closed,
    ];

    /// The display and wire name (the paper's, where it has one).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Auto => "auto",
            Algorithm::Basic => "basic",
            Algorithm::Incre => "incre",
            Algorithm::AdvI => "adv-I",
            Algorithm::AdvD => "adv-D",
            Algorithm::AdvP => "adv-P",
            Algorithm::Closed => "closed",
        }
    }

    /// True when the algorithm cannot run without a CP-tree index:
    /// every concrete algorithm but `Basic`. `Auto` reports `false`
    /// because it degrades to `Basic` when no index exists.
    pub fn needs_index(self) -> bool {
        !matches!(self, Algorithm::Basic | Algorithm::Auto)
    }

    /// Collapses [`Algorithm::Auto`] onto a concrete algorithm:
    /// `Closed` when `has_index`, `Basic` otherwise. Concrete variants
    /// pass through unchanged.
    pub fn resolve(self, has_index: bool) -> Algorithm {
        match self {
            Algorithm::Auto if has_index => Algorithm::Closed,
            Algorithm::Auto => Algorithm::Basic,
            other => other,
        }
    }
}

/// One profiled community: the paper's `Gk[T]` with its theme subtree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfiledCommunity {
    /// The maximal common subtree `M(Gq)` of all member P-trees.
    pub subtree: PTree,
    /// Sorted member vertices.
    pub vertices: Vec<VertexId>,
}

impl ProfiledCommunity {
    /// Number of member vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Communities always contain at least the query vertex.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }
}

/// Instrumentation collected during a query (drives the paper's
/// search-effort discussion and Table 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Subtree candidates generated.
    pub subtrees_generated: u64,
    /// Community verifications executed (localized k-core peels).
    pub verifications: u64,
    /// Verifications answered without a peel: from the query's memo,
    /// or from the index's community table (a `Gk` or a community an
    /// earlier query proved).
    pub memo_hits: u64,
    /// Candidates found feasible.
    pub feasible: u64,
    /// Vertices scanned while seeding candidate sets (slice filters and
    /// base intersections) — the pre-peel cost.
    pub seed_scanned: u64,
    /// Vertices handed to the localized k-core peel.
    pub peel_candidates: u64,
    /// Size of the query's P-tree, `|T(q)|`.
    pub query_tree_size: u32,
}

/// The result of one PCS query.
#[derive(Clone, Debug)]
pub struct PcsOutcome {
    /// All profiled communities (one per maximal feasible subtree),
    /// sorted by theme subtree for determinism.
    pub communities: Vec<ProfiledCommunity>,
    /// Search-effort instrumentation.
    pub stats: QueryStats,
}

impl PcsOutcome {
    /// Maximal-common-subtree sizes of all communities.
    pub fn subtree_sizes(&self) -> Vec<usize> {
        self.communities.iter().map(|c| c.subtree.len()).collect()
    }
}

/// Everything a query needs: the profiled graph plus (optionally) its
/// CP-tree index and the precomputed global core decomposition.
pub struct QueryContext<'a> {
    /// The host graph.
    pub graph: &'a Graph,
    /// The GP-tree.
    pub tax: &'a Taxonomy,
    /// Per-vertex P-trees (`profiles[v] = T(v)`), behind a view that is
    /// either a resident slice or a file-backed source faulting ranges
    /// in on first touch (see [`pcs_ptree::ProfilesRef`]).
    pub profiles: ProfilesRef<'a>,
    /// Optional CP-tree index (required by every algorithm but
    /// `basic`, which never reads it).
    pub index: Option<&'a ShardedCpIndex>,
    /// Core numbers of the whole graph (every verifier's `Gk`).
    /// Owned when computed by [`QueryContext::new`]; borrowed when an
    /// engine shares one precomputed decomposition across queries.
    pub cores: Cow<'a, CoreDecomposition>,
}

impl<'a> QueryContext<'a> {
    /// Creates a context without an index (only `basic` will run).
    pub fn new(
        graph: &'a Graph,
        tax: &'a Taxonomy,
        profiles: impl Into<ProfilesRef<'a>>,
    ) -> Result<Self> {
        let profiles = profiles.into();
        Self::check_profiles(graph, profiles)?;
        Ok(QueryContext {
            graph,
            tax,
            profiles,
            index: None,
            cores: Cow::Owned(CoreDecomposition::new(graph)),
        })
    }

    /// Assembles a context from already-validated, already-computed
    /// parts without recomputing the core decomposition. This is the
    /// cheap per-query constructor the owned engine facade uses; most
    /// applications want `pcs_engine::PcsEngine` instead of calling it
    /// directly.
    ///
    /// All parts must describe the **same version** of the profiled
    /// graph: the engine guarantees this by borrowing every argument
    /// from one immutable epoch snapshot, so a context assembled here
    /// stays internally consistent even while updates publish newer
    /// epochs concurrently. Hand-assembled mixes of differently-aged
    /// graphs, profiles, cores, or indexes are undefined behaviour of
    /// the algorithm layer (wrong answers, not memory unsafety).
    pub fn from_parts(
        graph: &'a Graph,
        tax: &'a Taxonomy,
        profiles: impl Into<ProfilesRef<'a>>,
        index: Option<&'a ShardedCpIndex>,
        cores: &'a CoreDecomposition,
    ) -> Result<Self> {
        let profiles = profiles.into();
        Self::check_profiles(graph, profiles)?;
        Ok(QueryContext { graph, tax, profiles, index, cores: Cow::Borrowed(cores) })
    }

    fn check_profiles(graph: &Graph, profiles: ProfilesRef<'_>) -> Result<()> {
        if graph.num_vertices() != profiles.len() {
            return Err(PcsError::ProfileCountMismatch {
                vertices: graph.num_vertices(),
                profiles: profiles.len(),
            });
        }
        Ok(())
    }

    /// Attaches a prebuilt index.
    pub fn with_index(mut self, index: &'a ShardedCpIndex) -> Self {
        self.index = Some(index);
        self
    }

    /// Builds the query search space for vertex `q` (its P-tree frozen
    /// in DFS preorder).
    pub fn space_for(&self, q: VertexId) -> Result<QuerySpace> {
        if q as usize >= self.graph.num_vertices() {
            return Err(PcsError::QueryVertexOutOfRange {
                vertex: q,
                n: self.graph.num_vertices(),
            });
        }
        // `incre`/advanced restore T(q) through the index (the paper's
        // line "restore T(q) using I.headMap"); without an index
        // the profile array is borrowed directly (no copy — the
        // path of every `basic` query and of an index-free context).
        // Both yield the same tree.
        let restored;
        let tq = match self.index {
            Some(idx) => {
                restored = idx.restore_ptree(q);
                &restored
            }
            // A lazy source that fails to fault `q`'s range in yields
            // `None`; reporting the vertex as unanswerable here is safe
            // (never a wrong community), and the engine layer replaces
            // this with the source's typed error before the caller
            // sees it.
            None => match self.profiles.get(q as usize) {
                Some(p) => p,
                None => {
                    return Err(PcsError::QueryVertexOutOfRange {
                        vertex: q,
                        n: self.graph.num_vertices(),
                    })
                }
            },
        };
        QuerySpace::new(self.tax, tq).map_err(|_| PcsError::QueryVertexOutOfRange {
            vertex: q,
            n: self.graph.num_vertices(),
        })
    }

    /// Runs one PCS query with the chosen algorithm.
    /// [`Algorithm::Auto`] resolves against the attached index first.
    pub fn query(&self, q: VertexId, k: u32, algorithm: Algorithm) -> Result<PcsOutcome> {
        let mut scratch = crate::verify::QueryScratch::new(self.graph.num_vertices());
        self.query_with_scratch(q, k, algorithm, &mut scratch)
    }

    /// Runs one PCS query on pooled [`crate::verify::QueryScratch`]:
    /// identical answers to [`QueryContext::query`], but every
    /// per-query working buffer (peel state, profile masks, candidate
    /// seeds) is reused across calls. This is the engine's serving hot
    /// path; one-shot callers can stay on `query`.
    pub fn query_with_scratch(
        &self,
        q: VertexId,
        k: u32,
        algorithm: Algorithm,
        scratch: &mut crate::verify::QueryScratch,
    ) -> Result<PcsOutcome> {
        match (algorithm.resolve(self.index.is_some()), self.index) {
            // `basic` never sees the index, even when one is attached.
            (Algorithm::Basic | Algorithm::Auto, _) => basic::query_scratch(self, q, k, scratch),
            (algorithm, None) => Err(PcsError::IndexRequired(algorithm.name())),
            (Algorithm::Incre, Some(index)) => incre::query_scratch(self, index, q, k, scratch),
            (Algorithm::AdvI, Some(index)) => {
                advanced::query_scratch(self, index, q, k, FindStrategy::Incremental, scratch)
            }
            (Algorithm::AdvD, Some(index)) => {
                advanced::query_scratch(self, index, q, k, FindStrategy::Decremental, scratch)
            }
            (Algorithm::AdvP, Some(index)) => {
                advanced::query_scratch(self, index, q, k, FindStrategy::Path, scratch)
            }
            (Algorithm::Closed, Some(index)) => closed::query_scratch(self, index, q, k, scratch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_ptree::Taxonomy;

    #[test]
    fn algorithm_metadata() {
        assert_eq!(Algorithm::ALL.len(), 6);
        assert_eq!(Algorithm::Basic.name(), "basic");
        assert_eq!(Algorithm::Closed.name(), "closed");
        for a in Algorithm::ALL {
            assert_eq!(a.needs_index(), a != Algorithm::Basic);
            assert_eq!(a.resolve(true), a);
        }
        assert_eq!(Algorithm::Auto.resolve(true), Algorithm::Closed);
        assert_eq!(Algorithm::Auto.resolve(false), Algorithm::Basic);
    }

    /// One pooled scratch, reused across every `(q, k, algorithm)` in
    /// sequence, answers exactly like a fresh one-shot query. Each side
    /// has its own index, so both see the same community-table history.
    #[test]
    fn pooled_scratch_matches_one_shot_query() {
        let (g, t, profiles) = crate::testkit::figure1();
        let one_shot_index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let pooled_index = ShardedCpIndex::build_resident(&g, &t, &profiles).unwrap();
        let one_shot_ctx =
            QueryContext::new(&g, &t, &profiles).unwrap().with_index(&one_shot_index);
        let ctx = QueryContext::new(&g, &t, &profiles).unwrap().with_index(&pooled_index);
        let mut scratch = crate::verify::QueryScratch::new(g.num_vertices());
        for q in 0..8u32 {
            for k in 0..=3u32 {
                for algorithm in Algorithm::ALL {
                    let one_shot = one_shot_ctx.query(q, k, algorithm).unwrap();
                    let pooled = ctx.query_with_scratch(q, k, algorithm, &mut scratch).unwrap();
                    assert_eq!(one_shot.communities, pooled.communities, "q={q} k={k}");
                    assert_eq!(one_shot.stats, pooled.stats, "{} q={q} k={k}", algorithm.name());
                }
            }
        }
    }

    #[test]
    fn context_validates_profile_count() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let tax = Taxonomy::new("r");
        let profiles = vec![PTree::root_only()];
        assert!(matches!(
            QueryContext::new(&g, &tax, &profiles),
            Err(PcsError::ProfileCountMismatch { vertices: 2, profiles: 1 })
        ));
    }

    #[test]
    fn index_required_error() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let tax = Taxonomy::new("r");
        let profiles = vec![PTree::root_only(), PTree::root_only()];
        let ctx = QueryContext::new(&g, &tax, &profiles).unwrap();
        assert!(matches!(ctx.query(0, 1, Algorithm::Incre), Err(PcsError::IndexRequired("incre"))));
    }

    #[test]
    fn out_of_range_query_vertex() {
        let g = Graph::from_edges(2, &[(0, 1)]).unwrap();
        let tax = Taxonomy::new("r");
        let profiles = vec![PTree::root_only(), PTree::root_only()];
        let ctx = QueryContext::new(&g, &tax, &profiles).unwrap();
        assert!(matches!(
            ctx.query(9, 1, Algorithm::Basic),
            Err(PcsError::QueryVertexOutOfRange { vertex: 9, n: 2 })
        ));
    }

    #[test]
    fn error_display_strings() {
        let e = PcsError::IndexRequired("adv-P");
        assert!(e.to_string().contains("adv-P"));
        let e = PcsError::QueryVertexOutOfRange { vertex: 3, n: 2 };
        assert!(e.to_string().contains('3'));
    }
}

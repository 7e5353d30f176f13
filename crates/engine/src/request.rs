//! Request/response types for the serving facade.

use pcs_core::{Algorithm, PcsOutcome, ProfiledCommunity, QueryStats};
use pcs_graph::VertexId;
use std::time::Duration;

/// One community-search query, built fluently:
///
/// ```
/// use pcs_engine::QueryRequest;
/// use pcs_core::Algorithm;
///
/// let req = QueryRequest::vertex(7)
///     .k(4)
///     .algorithm(Algorithm::AdvP)
///     .max_communities(10)
///     .collect_stats(true);
/// assert_eq!(req.vertex_id(), 7);
/// ```
///
/// Defaults: `k = 6` (the paper's evaluation default),
/// [`Algorithm::Auto`] (the closed-subtree search when the engine may
/// use an index, `basic` otherwise), no community cap, stats off, cache
/// allowed.
///
/// The struct derives `Hash` + `Eq` so deduplication layers (the
/// serving batcher, caches) can key on the request **itself** instead
/// of mirroring its fields into a hand-maintained tuple that silently
/// drops any field added later.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct QueryRequest {
    vertex: VertexId,
    k: u32,
    algorithm: Algorithm,
    max_communities: Option<usize>,
    collect_stats: bool,
    bypass_cache: bool,
}

impl QueryRequest {
    /// Starts a request for the communities of `vertex`.
    pub fn vertex(vertex: VertexId) -> Self {
        QueryRequest {
            vertex,
            k: 6,
            algorithm: Algorithm::Auto,
            max_communities: None,
            collect_stats: false,
            bypass_cache: false,
        }
    }

    /// Sets the minimum internal degree bound.
    pub fn k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Picks the algorithm (default [`Algorithm::Auto`]: the fastest
    /// search the engine's index policy allows).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Caps how many communities the response carries. The search
    /// itself still enumerates all maximal feasible subtrees (they are
    /// needed to establish maximality); only the response is truncated.
    pub fn max_communities(mut self, max: usize) -> Self {
        self.max_communities = Some(max);
        self
    }

    /// Surfaces search-effort counters on
    /// [`QueryResponse::stats`]. The algorithms always maintain their
    /// counters (they are plain integers, effectively free) and the
    /// raw values stay reachable via `outcome.stats` regardless; this
    /// flag only controls whether the response's serving-level field
    /// is populated, so dashboards can opt in explicitly.
    pub fn collect_stats(mut self, collect: bool) -> Self {
        self.collect_stats = collect;
        self
    }

    /// Opts this request out of the engine's result cache (default:
    /// cache allowed). A bypassing request neither reads a cached
    /// answer nor fills the cache — the knob for freshness-critical
    /// clients and for A/B-measuring the cache itself.
    pub fn bypass_cache(mut self, bypass: bool) -> Self {
        self.bypass_cache = bypass;
        self
    }

    /// The query vertex.
    pub fn vertex_id(&self) -> VertexId {
        self.vertex
    }

    /// The degree bound.
    pub fn degree_bound(&self) -> u32 {
        self.k
    }

    /// The requested (pre-resolution) algorithm.
    pub fn requested_algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The response cap, if any.
    pub fn community_cap(&self) -> Option<usize> {
        self.max_communities
    }

    /// Whether stats were requested.
    pub fn wants_stats(&self) -> bool {
        self.collect_stats
    }

    /// Whether this request opted out of the result cache.
    pub fn bypasses_cache(&self) -> bool {
        self.bypass_cache
    }
}

/// The answer to one [`QueryRequest`]: the paper-layer
/// [`PcsOutcome`] plus serving metadata.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The communities (possibly truncated to the request's cap) and
    /// raw algorithm counters.
    pub outcome: PcsOutcome,
    /// The concrete algorithm that ran ([`Algorithm::Auto`] resolved).
    pub algorithm: Algorithm,
    /// True exactly when a CP-tree index was attached to the context
    /// that answered, which is exactly when the resolved algorithm
    /// needs one: `basic` never gets an index, even on a warm engine.
    pub index_used: bool,
    /// Wall-clock time of the algorithm run. One-time lazy index
    /// construction is excluded; to pay (and measure) that cost up
    /// front, time a call to [`PcsEngine::warm`](crate::PcsEngine::warm)
    /// before querying.
    pub elapsed: Duration,
    /// Search-effort counters, present when the request opted in via
    /// [`QueryRequest::collect_stats`] (a copy of `outcome.stats`,
    /// which is always populated by the algorithms).
    pub stats: Option<QueryStats>,
    /// How many communities the search found before truncation.
    pub total_communities: usize,
    /// Epoch of the snapshot that answered this query. Responses from
    /// one [`query_batch`](crate::PcsEngine::query_batch) call share an
    /// epoch, with one exception: a cache hit that
    /// [`CacheMode::Surgical`](crate::CacheMode::Surgical) carried over
    /// a publish reports the epoch it was computed at, whose answer the
    /// carry rule proves unchanged. Comparing against
    /// [`PcsEngine::epoch`](crate::PcsEngine::epoch) tells whether the
    /// answer is already stale relative to concurrent updates.
    pub epoch: u64,
}

impl QueryResponse {
    /// The communities carried by this response.
    pub fn communities(&self) -> &[ProfiledCommunity] {
        &self.outcome.communities
    }

    /// True when the cap dropped communities from the response.
    pub fn truncated(&self) -> bool {
        self.outcome.communities.len() < self.total_communities
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults() {
        let req = QueryRequest::vertex(3);
        assert_eq!(req.vertex_id(), 3);
        assert_eq!(req.degree_bound(), 6);
        assert_eq!(req.requested_algorithm(), Algorithm::Auto);
        assert_eq!(req.community_cap(), None);
        assert!(!req.wants_stats());
        assert!(!req.bypasses_cache());
    }

    #[test]
    fn builder_chains() {
        let req = QueryRequest::vertex(0)
            .k(2)
            .algorithm(Algorithm::Basic)
            .max_communities(1)
            .collect_stats(true)
            .bypass_cache(true);
        assert_eq!(req.degree_bound(), 2);
        assert_eq!(req.requested_algorithm(), Algorithm::Basic);
        assert_eq!(req.community_cap(), Some(1));
        assert!(req.wants_stats());
        assert!(req.bypasses_cache());
    }
}

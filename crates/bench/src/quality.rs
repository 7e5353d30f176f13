//! Shared machinery for the effectiveness experiments (Figs. 9-12).
//!
//! Runs the full method zoo — PCS, ACQ, Global, Local — over a query
//! workload and keeps each method's communities per query, including
//! the paper's two derived series: `P-ACs` (communities found by both
//! PCS and ACQ) and `PCs*` (communities only PCS finds).

use pcs_baselines::{acq_query, global_query, local_query};
use pcs_core::ProfiledCommunity;
use pcs_engine::{PcsEngine, QueryRequest};
use pcs_graph::VertexId;

/// Method identifiers used in the quality figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Communities only PCS finds (not returned by ACQ).
    PcsOnly,
    /// Communities found by both PCS and ACQ.
    PcsAndAcq,
    /// All PCS communities.
    Pcs,
    /// ACQ communities.
    Acq,
    /// Global (structure-only, maximal).
    Global,
    /// Local (structure-only, expansion).
    Local,
}

impl Method {
    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            Method::PcsOnly => "PCs*",
            Method::PcsAndAcq => "P-ACs",
            Method::Pcs => "PCS",
            Method::Acq => "ACQ",
            Method::Global => "Global",
            Method::Local => "Local",
        }
    }
}

/// All per-query community lists for one query vertex.
#[derive(Clone, Debug, Default)]
pub struct QueryResults {
    /// PCS communities.
    pub pcs: Vec<ProfiledCommunity>,
    /// ACQ communities.
    pub acq: Vec<ProfiledCommunity>,
    /// Global community (0 or 1 entries).
    pub global: Vec<ProfiledCommunity>,
    /// Local community (0 or 1 entries).
    pub local: Vec<ProfiledCommunity>,
}

impl QueryResults {
    /// Communities found by both PCS and ACQ (matched by vertex set).
    pub fn pcs_and_acq(&self) -> Vec<ProfiledCommunity> {
        self.pcs
            .iter()
            .filter(|p| self.acq.iter().any(|a| a.vertices == p.vertices))
            .cloned()
            .collect()
    }

    /// Communities only PCS finds.
    pub fn pcs_only(&self) -> Vec<ProfiledCommunity> {
        self.pcs
            .iter()
            .filter(|p| self.acq.iter().all(|a| a.vertices != p.vertices))
            .cloned()
            .collect()
    }

    /// The community list of a method.
    pub fn of(&self, m: Method) -> Vec<ProfiledCommunity> {
        match m {
            Method::PcsOnly => self.pcs_only(),
            Method::PcsAndAcq => self.pcs_and_acq(),
            Method::Pcs => self.pcs.clone(),
            Method::Acq => self.acq.clone(),
            Method::Global => self.global.clone(),
            Method::Local => self.local.clone(),
        }
    }
}

/// Runs every method for each query vertex. PCS goes through the
/// engine's order-preserving batch path; the baselines borrow the
/// engine's data through its accessors.
pub fn run_all_methods(engine: &PcsEngine, queries: &[VertexId], k: u32) -> Vec<QueryResults> {
    let snap = engine.snapshot();
    let (g, tax, profiles) = (snap.graph(), engine.taxonomy(), snap.profiles());
    let requests: Vec<QueryRequest> =
        queries.iter().map(|&q| QueryRequest::vertex(q).k(k)).collect();
    let batch = engine.query_batch(&requests);
    queries
        .iter()
        .zip(batch)
        .map(|(&q, pcs_result)| {
            let pcs = pcs_result.map(|r| r.communities().to_vec()).unwrap_or_default();
            let acq = acq_query(g, tax, profiles, q, k)
                .communities
                .into_iter()
                .map(|c| c.community)
                .collect();
            let global = global_query(g, profiles, q, k).into_iter().collect();
            let local = local_query(g, profiles, q, k, usize::MAX).into_iter().collect();
            QueryResults { pcs, acq, global, local }
        })
        .collect()
}

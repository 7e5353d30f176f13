//! # pcs-graph — graph substrate for profiled community search
//!
//! This crate provides every piece of graph machinery the PCS paper
//! (Chen et al., *Exploring Communities in Large Profiled Graphs*, ICDE
//! 2019) depends on, implemented from scratch:
//!
//! * [`Graph`] — a compact CSR (compressed sparse row) undirected graph,
//!   the storage format every algorithm in the workspace runs against;
//! * [`core`](crate::core) — the O(m) k-core decomposition of Batagelj &
//!   Zaversnik, connected k-ĉore extraction, and *localized* k-core
//!   peeling restricted to a candidate vertex subset (the inner loop of
//!   community verification);
//! * [`components`] — BFS-based connected components;
//! * [`hash`] — an FxHash-style integer hasher with [`FxHashMap`] /
//!   [`FxHashSet`] aliases (SipHash is needlessly slow for dense integer
//!   keys; see the Rust perf book);
//! * [`bitset`] — a dynamic bitset for P-tree node sets and label sets;
//! * [`gen`] — seeded random-graph primitives (G(n,m), preferential
//!   attachment, planted overlapping groups) backing `pcs-datasets`.
//!
//! ## Quick example
//!
//! ```
//! use pcs_graph::{Graph, core::CoreDecomposition};
//!
//! // A triangle hanging off a pendant vertex.
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap();
//! let cores = CoreDecomposition::new(&g);
//! assert_eq!(cores.core_number(0), 2);
//! assert_eq!(cores.core_number(3), 1);
//! // The connected 2-core containing vertex 0 is the triangle.
//! let comm = cores.kcore_component(&g, 0, 2).unwrap();
//! assert_eq!(comm, vec![0, 1, 2]);
//! ```

#![deny(unsafe_code)]

pub mod bitset;
pub mod components;
pub mod core;
pub mod dynamic;
pub mod gen;
pub mod graph;
pub mod hash;
pub mod lazy;

pub use bitset::BitSet;
pub use components::{component_containing, connected_components};
pub use core::{CoreDecomposition, SubsetCore};
pub use dynamic::{DynamicGraph, IncrementalCores};
pub use graph::{Graph, GraphBuilder, VertexId};
pub use hash::{FxHashMap, FxHashSet};
pub use lazy::{GraphHandle, GraphSource};

/// Errors produced by the graph substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint was `>= n` for a graph declared with `n` vertices.
    VertexOutOfRange {
        /// The offending endpoint.
        vertex: u64,
        /// The declared vertex count.
        n: usize,
    },
    /// A mutation would create a self-loop, which no PCS algorithm
    /// supports.
    SelfLoop {
        /// The vertex named by both endpoints.
        vertex: u32,
    },
    /// A foreign CSR layout violated a structural invariant
    /// (see [`Graph::validate`]).
    MalformedGraph {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, n } => {
                write!(f, "vertex id {vertex} out of range for graph with {n} vertices")
            }
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop at vertex {vertex} is not allowed")
            }
            GraphError::MalformedGraph { detail } => {
                write!(f, "malformed graph: {detail}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;

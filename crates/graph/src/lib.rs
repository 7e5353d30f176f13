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
//! * [`bitset`] — dynamic and epoch-stamped vertex sets used to make the
//!   hot verification path allocation-free;
//! * [`unionfind`] — a union-find with path halving + union by size, used
//!   by the CL-tree construction in `pcs-index`;
//! * [`gen`] — seeded random-graph primitives (G(n,m), preferential
//!   attachment, planted overlapping groups) backing `pcs-datasets`;
//! * [`io`] — a plain-text edge-list reader/writer.
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
pub mod io;
pub mod lazy;
pub mod unionfind;

pub use bitset::{BitSet, EpochSet};
pub use components::{component_containing, connected_components};
pub use core::{CoreDecomposition, SubsetCore};
pub use dynamic::{DynamicGraph, IncrementalCores};
pub use graph::{Graph, GraphBuilder, VertexId};
pub use hash::{FxHashMap, FxHashSet};
pub use lazy::{GraphHandle, GraphSource};
pub use unionfind::UnionFind;

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
    /// A text edge list could not be parsed.
    Parse {
        /// 1-based line number of the malformed record.
        line: usize,
        /// Human-readable cause.
        message: String,
    },
    /// An I/O error surfaced while reading or writing a graph file.
    Io(String),
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
            GraphError::Parse { line, message } => {
                write!(f, "edge list parse error at line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "graph i/o error: {e}"),
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

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GraphError>;

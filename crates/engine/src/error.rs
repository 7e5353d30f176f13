//! The unified error type of the serving facade.

use crate::update::UpdateError;
use pcs_core::PcsError;
use pcs_index::IndexError;
use pcs_store::StoreError;
use std::fmt;

/// Everything that can go wrong building or querying a
/// [`PcsEngine`](crate::PcsEngine), unified under one
/// [`std::error::Error`] so server handlers propagate a single type.
///
/// # Stability
///
/// The enum is `#[non_exhaustive]`: new failure modes (e.g. future
/// persistence or sharding errors) will be added as new variants in
/// minor releases without a semver break. Always keep a `_` arm when
/// matching, and prefer [`std::error::Error::source`] over matching
/// when you only need the causal chain.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The builder's one-time validation rejected the inputs.
    Build(BuildError),
    /// A query failed inside the core algorithm layer.
    Query(PcsError),
    /// CP-tree construction failed.
    Index(IndexError),
    /// An [`UpdateBatch`](crate::UpdateBatch) failed validation; the
    /// engine state is unchanged.
    Update(UpdateError),
    /// Saving or loading an on-disk snapshot failed
    /// ([`PcsEngine::save`](crate::PcsEngine::save) /
    /// [`EngineBuilder::load`](crate::EngineBuilder::load)); the file
    /// was rejected before any engine state was adopted.
    Store(StoreError),
    /// A durability-only operation
    /// ([`PcsEngine::checkpoint`](crate::PcsEngine::checkpoint),
    /// [`PcsEngine::wal_tail_since`](crate::PcsEngine::wal_tail_since))
    /// was called on an engine that was not opened with
    /// [`EngineBuilder::durable`](crate::EngineBuilder::durable).
    NotDurable,
    /// An internal invariant of the serving machinery was violated —
    /// e.g. a batch dispatcher produced fewer results than requests, or
    /// an index cell was empty after it was filled. Never the client's
    /// fault: protocol layers must map this to a 5xx, not a 4xx.
    Internal {
        /// The subsystem that broke its invariant (stable tag, e.g.
        /// `"batch-dispatch"`).
        component: &'static str,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Build(e) => write!(f, "engine build failed: {e}"),
            Error::Query(e) => write!(f, "query failed: {e}"),
            Error::Index(e) => write!(f, "index construction failed: {e}"),
            Error::Update(e) => write!(f, "update rejected: {e}"),
            Error::Store(e) => write!(f, "snapshot store failed: {e}"),
            Error::NotDurable => write!(
                f,
                "this engine has no durable directory; open it with \
                 EngineBuilder::durable(dir) first"
            ),
            Error::Internal { component, detail } => {
                write!(f, "internal error in {component}: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Build(e) => Some(e),
            Error::Query(e) => Some(e),
            Error::Index(e) => Some(e),
            Error::Update(e) => Some(e),
            Error::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for Error {
    fn from(e: StoreError) -> Self {
        Error::Store(e)
    }
}

impl From<PcsError> for Error {
    fn from(e: PcsError) -> Self {
        // An index error surfaced through the query layer is still an
        // index error to callers.
        match e {
            PcsError::Index(inner) => Error::Index(inner),
            other => Error::Query(other),
        }
    }
}

impl From<IndexError> for Error {
    fn from(e: IndexError) -> Self {
        Error::Index(e)
    }
}

impl From<BuildError> for Error {
    fn from(e: BuildError) -> Self {
        Error::Build(e)
    }
}

impl From<UpdateError> for Error {
    fn from(e: UpdateError) -> Self {
        Error::Update(e)
    }
}

/// Validation failures raised by
/// [`EngineBuilder::build`](crate::EngineBuilder::build).
///
/// Also `#[non_exhaustive]`; see [`Error`] for the stability policy.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// No graph was supplied.
    MissingGraph,
    /// No taxonomy was supplied.
    MissingTaxonomy,
    /// The number of profiles differs from the number of vertices.
    ProfileCountMismatch {
        /// Vertices in the graph.
        vertices: usize,
        /// Profiles supplied.
        profiles: usize,
    },
    /// A profile references a label outside the taxonomy or is not
    /// ancestor-closed.
    InvalidProfile {
        /// The vertex whose profile failed validation.
        vertex: u32,
    },
    /// The supplied graph violates a CSR structural invariant
    /// (self-loop, duplicate edge, asymmetric or unsorted adjacency).
    /// Graphs built through [`pcs_graph::Graph::from_edges`] are always
    /// canonical; this guards foreign layouts adopted via
    /// [`pcs_graph::Graph::from_csr`]-style paths so corruption is
    /// rejected at build time instead of being silently indexed.
    MalformedGraph {
        /// Description of the violated invariant.
        detail: String,
    },
    /// [`EngineBuilder::load`](crate::EngineBuilder::load) was called
    /// on a builder that already holds a graph, taxonomy, or profiles —
    /// a snapshot supplies all three, so mixing them is almost
    /// certainly a bug (which inputs did the caller mean?).
    DataWithSnapshot,
    /// [`EngineBuilder::open`](crate::EngineBuilder::open) was called
    /// without [`durable`](crate::EngineBuilder::durable) naming the
    /// directory to recover from.
    MissingDurableDir,
    /// [`EngineBuilder::build`](crate::EngineBuilder::build) with
    /// [`durable`](crate::EngineBuilder::durable) targeted a directory
    /// that already holds a snapshot or WAL segments. A fresh build
    /// would shadow that state; use
    /// [`open`](crate::EngineBuilder::open) to recover it instead (or
    /// point the builder at an empty directory).
    DurableDirNotEmpty {
        /// The conflicting directory.
        dir: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::MissingGraph => write!(f, "no graph supplied (call .graph(..))"),
            BuildError::MissingTaxonomy => {
                write!(f, "no taxonomy supplied (call .taxonomy(..))")
            }
            BuildError::ProfileCountMismatch { vertices, profiles } => {
                write!(f, "graph has {vertices} vertices but {profiles} profiles were supplied")
            }
            BuildError::InvalidProfile { vertex } => {
                write!(f, "profile of vertex {vertex} is not a valid subtree of the taxonomy")
            }
            BuildError::MalformedGraph { detail } => {
                write!(f, "graph failed structural validation: {detail}")
            }
            BuildError::DataWithSnapshot => write!(
                f,
                "builder already holds graph/taxonomy/profiles; a snapshot supplies all \
                 three — use a fresh builder (configuration methods are fine) with .load(..)"
            ),
            BuildError::MissingDurableDir => {
                write!(f, "no durable directory configured (call .durable(dir) before .open())")
            }
            BuildError::DurableDirNotEmpty { dir } => write!(
                f,
                "durable directory {dir} already holds a snapshot or WAL segments; \
                 use .open() to recover it instead of .build()"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

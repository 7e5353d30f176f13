//! # pcs-engine — the owned, serving-ready PCS facade
//!
//! Community search is an *online, repeated-query* workload: one
//! profiled graph is loaded (and indexed) once, then answers many
//! queries. The paper-layer [`QueryContext`](pcs_core::QueryContext)
//! is a borrowed bundle tied to its inputs' lifetimes — perfect for
//! reproduction runs, impossible to store in a server handler. This
//! crate provides the owned counterpart:
//!
//! * [`PcsEngine`] — owns graph + taxonomy + profiles, is
//!   `Send + Sync`, and caches the CP-tree index and core
//!   decomposition per epoch snapshot.
//! * [`EngineBuilder`] — validates everything once at build time.
//! * [`QueryRequest`] / [`QueryResponse`] — an extensible
//!   request/response pair replacing positional arguments, with
//!   wall-clock timing, index-usage, and epoch metadata on every
//!   answer.
//! * [`UpdateBatch`] / [`UpdateReport`] — live mutations
//!   (`add_edge`, `remove_edge`, `update_profile`, batched
//!   [`apply`](PcsEngine::apply)) with **incremental** maintenance of
//!   the core decomposition and CP-tree index: only the vertices and
//!   labels an update can affect are revisited. `apply` is the one
//!   write entry; concurrent callers take the writer lock in turn,
//!   and each effective batch publishes its own epoch.
//! * [`EngineSnapshot`] — a consistent immutable view at one epoch;
//!   queries are lock-free against the snapshot current when they
//!   started, while updates publish the next epoch.
//! * [`CacheMode`] / [`PcsEngine::query_batch`] — an epoch-keyed
//!   result cache for zipfian read traffic, read and filled only by
//!   `query_batch` ([`PcsEngine::query_cached`] is its one-request
//!   form), invalidated wholesale on every publish or surgically via
//!   the same label-lattice reasoning the index patcher uses (see the
//!   [`mod@cache`] docs).
//! * [`PcsEngine::save`] / [`EngineBuilder::load`] — versioned,
//!   checksummed on-disk snapshots (via `pcs-store`): a replica
//!   warm-starts by bulk-loading the persisted graph, cores, and
//!   CP-tree arenas instead of rebuilding them, resuming at the saved
//!   epoch with full mutability.
//! * [`EngineBuilder::durable`] / [`EngineBuilder::open`] — the
//!   WAL-backed lifecycle: every applied batch is fsynced to an
//!   epoch-stamped log *before* its epoch publishes, crash recovery
//!   replays the snapshot + log tail to the exact pre-crash epoch,
//!   [`PcsEngine::checkpoint`] reclaims covered segments, and
//!   [`PcsEngine::wal_tail_since`] / [`PcsEngine::apply_wal_frames`]
//!   carry the durable log tail to a replica — `pcs-serve`'s HTTP
//!   follower, the one replica path (see the [`mod@durable`] module
//!   docs).
//! * [`Error`] — one `#[non_exhaustive]` [`std::error::Error`]
//!   wrapping query, index, update, and validation failures.
//!
//! ```
//! use pcs_engine::{PcsEngine, QueryRequest};
//! use pcs_graph::Graph;
//! use pcs_ptree::{PTree, Taxonomy};
//!
//! let mut tax = Taxonomy::new("r");
//! let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
//! let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
//! let profiles: Vec<PTree> =
//!     (0..3).map(|_| PTree::from_labels(&tax, [a]).unwrap()).collect();
//!
//! let engine = PcsEngine::builder()
//!     .graph(g)
//!     .taxonomy(tax)
//!     .profiles(profiles)
//!     .build()
//!     .unwrap();
//!
//! // Algorithm::Auto picks the closed-subtree search (the index is
//! // built lazily here).
//! let resp = engine.query(&QueryRequest::vertex(0).k(2)).unwrap();
//! assert_eq!(resp.communities().len(), 1);
//! assert_eq!(resp.communities()[0].vertices, vec![0, 1, 2]);
//! assert!(resp.index_used);
//! ```

#![deny(unsafe_code)]

pub mod cache;
pub mod durable;
mod engine;
mod error;
mod persist;
mod request;
mod snapshot;
mod update;

pub use cache::{CacheMode, CacheStatsSnapshot};
pub use durable::{decode_update_batch, encode_update_batch, SNAPSHOT_FILE, WAL_DIR};
pub use engine::{EngineBuilder, IndexMode, PcsEngine, SnapshotIo};
pub use error::{BuildError, Error, Result};
pub use request::{QueryRequest, QueryResponse};
pub use snapshot::EngineSnapshot;
pub use update::{IndexMaintenance, Update, UpdateBatch, UpdateError, UpdateReport};

// The facade re-exports the algorithm selector so callers need only
// this crate for the common path.
pub use pcs_core::Algorithm;
// ...and the snapshot-store error type, which surfaces through
// [`Error::Store`] on the save/load path, plus the WAL tuning knobs
// [`EngineBuilder::wal_options`] accepts.
pub use pcs_store::{StoreError, WalOptions};

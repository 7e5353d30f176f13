//! # pcs-serve — the std-only network serving layer
//!
//! Puts a [`PcsEngine`](pcs_engine::PcsEngine) behind a socket: a
//! hand-rolled HTTP/1.1 server over `std::net` (no async runtime, no
//! external dependencies — the container builds offline).
//!
//! The interesting engineering lives at three points:
//!
//! * **Admission control** ([`server`]) — a bounded live-connection
//!   count checked at the accept gate; excess connections are shed
//!   with an immediate `503` instead of queueing without bound. Under
//!   overload the server degrades by *refusing* work, never by
//!   stalling or panicking.
//! * **Cross-request batching** ([`batch`]) — concurrent queries are
//!   gathered for a short window, deduplicated, and handed to one
//!   `query_batch` call, which pins one epoch and reads and fills the
//!   engine's result cache, so a zipfian hot set collapses to one
//!   search per distinct request per window.
//! * **Total server-side validation** ([`protocol`]) — every
//!   out-of-range vertex, `k = 0`, absurd community cap, or malformed
//!   body is a typed 4xx produced *before* any snapshot or scratch
//!   buffer is touched.
//! * **WAL replication** ([`replica`]) — a durable primary exposes its
//!   write-ahead log at `GET /wal?from=<epoch>`; an [`HttpFollower`]
//!   tails it into a local engine, re-validating every frame, so reads
//!   scale out with the same prefix-consistency guarantee crash
//!   recovery provides.
//!
//! The protocol grammar is documented in `crates/README.md`
//! ("Serving layer").

#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]
#![deny(missing_docs)]

pub mod batch;
pub mod http;
pub mod protocol;
pub mod replica;
pub mod server;

pub use batch::Batcher;
pub use http::{HttpConn, HttpError, Method, Request, Response};
pub use protocol::{ApiError, Route};
pub use replica::{HttpFollower, ReplicaConfig, ReplicaError};
pub use server::{PcsServer, ServeConfig, ServeError, ServerStats, StatsSnapshot};

//! The HTTP follower: a read-only replica that tails a primary's WAL
//! over the `/wal` route. It is the workspace's one replica path:
//! `/wal` → `PcsEngine::wal_tail_since` → `PcsEngine::apply_wal_frames`
//! → the same replay loop crash recovery runs.
//!
//! Replication topology:
//!
//! ```text
//!   primary (durable PcsEngine behind PcsServer)
//!      │  GET /wal?from=<follower epoch>&max=<bytes>
//!      ▼
//!   HttpFollower ── apply_wal_frames ──▶ local PcsEngine (in memory)
//! ```
//!
//! The follower is seeded from a snapshot of the primary (shipped out
//! of band — `PcsEngine::save` / `EngineBuilder::load`), then polls
//! `/wal` with its own epoch as the resume point. Each response is a
//! run of raw WAL frames for durable epochs strictly after `from`;
//! [`PcsEngine::apply_wal_frames`] re-validates every frame (length,
//! checksum, epoch continuity) before applying, so a damaged or
//! truncated transfer is a typed error and the replica stays on its
//! last consistent epoch — exactly the crash-recovery contract, applied
//! to the network.
//!
//! Consistency contract: after a [`poll`](HttpFollower::poll) that
//! returns without error and applies zero epochs, the follower has
//! every epoch the primary had *fsynced* when the request was served.
//! The follower never sees an unsynced (and therefore possibly
//! lost-on-crash) epoch, because the primary's feed stops at its WAL's
//! durable epoch: a frame a failed `apply` left complete on disk before
//! its fsync is never served. A primary crash can only make the
//! follower *wait*, never rewind.
//!
//! If the primary answers `410 Gone`, the requested epochs were
//! reclaimed by a checkpoint — the log no longer reaches back to the
//! follower's epoch. That is [`ReplicaError::SnapshotGap`]: the caller
//! re-seeds from a fresh snapshot and resumes tailing.

use pcs_engine::PcsEngine;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Why a replication poll failed. Every variant leaves the follower's
/// engine on a consistent epoch — a failed poll is always retryable
/// (after re-seeding, for [`SnapshotGap`](ReplicaError::SnapshotGap)).
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplicaError {
    /// The transport failed (connect, write, read, or timeout).
    Io(io::Error),
    /// The primary's response could not be parsed as HTTP.
    Malformed(&'static str),
    /// `410 Gone`: the primary reclaimed the requested epochs — the
    /// follower must re-seed from a newer snapshot.
    SnapshotGap {
        /// The primary's error body.
        detail: String,
    },
    /// Any other non-200 status.
    Status {
        /// The HTTP status.
        status: u16,
        /// The response body (JSON error from the primary).
        detail: String,
    },
    /// The frames arrived but failed validation or application —
    /// damaged in transit, or epoch-discontinuous.
    Engine(pcs_engine::Error),
    /// A re-seed snapshot is older than the epoch the replica already
    /// serves; applying it would rewind reads. The follower keeps its
    /// current engine.
    StaleSeed {
        /// Epoch of the offered snapshot.
        snapshot_epoch: u64,
        /// Epoch the replica currently serves.
        follower_epoch: u64,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Io(e) => write!(f, "replication transport failed: {e}"),
            ReplicaError::Malformed(what) => {
                write!(f, "primary sent an unparsable response: {what}")
            }
            ReplicaError::SnapshotGap { detail } => write!(
                f,
                "primary reclaimed the requested wal epochs (re-seed from a snapshot): {detail}"
            ),
            ReplicaError::Status { status, detail } => {
                write!(f, "primary answered {status}: {detail}")
            }
            ReplicaError::Engine(e) => write!(f, "replication stream rejected: {e}"),
            ReplicaError::StaleSeed { snapshot_epoch, follower_epoch } => write!(
                f,
                "re-seed snapshot is at epoch {snapshot_epoch} but the replica already \
                 serves epoch {follower_epoch} — refusing to rewind"
            ),
        }
    }
}

impl std::error::Error for ReplicaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplicaError::Io(e) => Some(e),
            ReplicaError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReplicaError {
    fn from(e: io::Error) -> Self {
        ReplicaError::Io(e)
    }
}

impl From<pcs_engine::Error> for ReplicaError {
    fn from(e: pcs_engine::Error) -> Self {
        ReplicaError::Engine(e)
    }
}

/// Follower tunables.
#[derive(Clone, Debug)]
pub struct ReplicaConfig {
    /// Per-request byte budget passed as `max=` (the server clamps it
    /// to its own ceiling regardless).
    pub max_bytes: u64,
    /// Socket read timeout per response.
    pub read_timeout: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig { max_bytes: 1 << 20, read_timeout: Duration::from_secs(5) }
    }
}

/// A WAL-tailing replica over HTTP. Owns its engine; queries against
/// it are ordinary [`PcsEngine`] queries at the replicated epoch.
pub struct HttpFollower {
    engine: PcsEngine,
    primary: SocketAddr,
    cfg: ReplicaConfig,
    /// Kept-alive connection to the primary, dropped after any failed
    /// exchange. The primary closes idle connections after its
    /// keep-alive timeout, so an exchange that fails on a reused
    /// connection is retried once on a fresh one.
    stream: Option<TcpStream>,
}

impl HttpFollower {
    /// Wraps an engine (seeded from a snapshot of the primary) as a
    /// follower of `primary`.
    pub fn new(engine: PcsEngine, primary: SocketAddr, cfg: ReplicaConfig) -> HttpFollower {
        HttpFollower { engine, primary, cfg, stream: None }
    }

    /// The local engine, for serving reads at the replicated epoch.
    pub fn engine(&self) -> &PcsEngine {
        &self.engine
    }

    /// The follower's current epoch.
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Polls the primary until caught up with its durable epoch (as of
    /// the final request). Returns the number of epochs applied.
    pub fn poll(&mut self) -> Result<usize, ReplicaError> {
        let mut applied = 0usize;
        loop {
            let from = self.engine.epoch();
            let (status, body) = self.fetch(from)?;
            match status {
                200 => {}
                410 => {
                    return Err(ReplicaError::SnapshotGap {
                        detail: String::from_utf8_lossy(&body).into_owned(),
                    });
                }
                other => {
                    return Err(ReplicaError::Status {
                        status: other,
                        detail: String::from_utf8_lossy(&body).into_owned(),
                    });
                }
            }
            if body.is_empty() {
                return Ok(applied); // caught up
            }
            let got = self.engine.apply_wal_frames(&body)?;
            applied += got;
            if got == 0 {
                // Defensive: a non-empty response whose epochs we
                // already hold must not spin the loop.
                return Ok(applied);
            }
        }
    }

    /// Re-seeds the replica in place from a checkpoint snapshot file
    /// (shipped out of band after a
    /// [`SnapshotGap`](ReplicaError::SnapshotGap)). The snapshot is
    /// loaded **lazily** — structure only; the graph and profiles
    /// fault in on the replica's next query — so a re-seed stays cheap
    /// even against a scale-1.0 snapshot. The new engine keeps the
    /// follower's result-cache mode. A snapshot older than the
    /// epoch already served is refused
    /// ([`StaleSeed`](ReplicaError::StaleSeed)): a follower never
    /// rewinds. Returns the re-seeded epoch; call
    /// [`poll`](Self::poll) afterwards to catch up the WAL tail.
    pub fn reseed_from_snapshot(
        &mut self,
        snapshot: impl AsRef<std::path::Path>,
    ) -> Result<u64, ReplicaError> {
        let engine = pcs_engine::PcsEngine::builder()
            .index_mode(pcs_engine::IndexMode::Lazy)
            .result_cache(self.engine.cache_mode())
            .load(snapshot.as_ref())
            .map_err(ReplicaError::Engine)?;
        if engine.epoch() < self.engine.epoch() {
            return Err(ReplicaError::StaleSeed {
                snapshot_epoch: engine.epoch(),
                follower_epoch: self.engine.epoch(),
            });
        }
        self.engine = engine;
        Ok(self.engine.epoch())
    }

    /// One `GET /wal` exchange: returns `(status, body)`. A failed
    /// exchange drops the connection. `GET /wal` is read-only, so a
    /// failure on a reused connection is retried once on a fresh one;
    /// a failure on a fresh connection is returned.
    fn fetch(&mut self, from: u64) -> Result<(u16, Vec<u8>), ReplicaError> {
        let reused = self.stream.is_some();
        let result = self.try_fetch(from);
        if result.is_err() {
            self.stream = None;
            if reused {
                return self.fetch(from);
            }
        }
        result
    }

    fn try_fetch(&mut self, from: u64) -> Result<(u16, Vec<u8>), ReplicaError> {
        let stream = match self.stream.as_mut() {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(self.primary)?;
                stream.set_read_timeout(Some(self.cfg.read_timeout))?;
                stream.set_nodelay(true)?;
                self.stream.insert(stream)
            }
        };
        let request = format!(
            "GET /wal?from={from}&max={} HTTP/1.1\r\nHost: replica\r\n\
             Connection: keep-alive\r\n\r\n",
            self.cfg.max_bytes
        );
        stream.write_all(request.as_bytes())?;
        stream.flush()?;
        read_http_response(stream)
    }
}

impl std::fmt::Debug for HttpFollower {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpFollower")
            .field("primary", &self.primary)
            .field("epoch", &self.engine.epoch())
            .finish_non_exhaustive()
    }
}

/// Reads one HTTP/1.1 response: status line, headers (only
/// `Content-Length` is interpreted), and exactly that many body bytes.
/// The connection stays positioned at the next response.
fn read_http_response(stream: &mut TcpStream) -> Result<(u16, Vec<u8>), ReplicaError> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if buf.len() > 64 * 1024 {
            return Err(ReplicaError::Malformed("response head exceeds 64 KiB"));
        }
        let got = stream.read(&mut chunk)?;
        if got == 0 {
            return Err(ReplicaError::Malformed("connection closed mid-head"));
        }
        // audit:allow(no-index): `got` is the byte count this read returned, which is at most chunk.len() by the Read contract
        buf.extend_from_slice(&chunk[..got]);
    };
    // audit:allow(no-index): `head_end` is a window position from the loop above, so strictly less than buf.len()
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| ReplicaError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(ReplicaError::Malformed("missing status code"))?;
    let mut content_length: Option<usize> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = Some(
                value.trim().parse().map_err(|_| ReplicaError::Malformed("bad Content-Length"))?,
            );
        }
    }
    let content_length = content_length.ok_or(ReplicaError::Malformed("missing Content-Length"))?;
    let mut body = buf.split_off(head_end + 4);
    while body.len() < content_length {
        let got = stream.read(&mut chunk)?;
        if got == 0 {
            return Err(ReplicaError::Malformed("connection closed mid-body"));
        }
        // audit:allow(no-index): `got` is the byte count this read returned, which is at most chunk.len() by the Read contract
        body.extend_from_slice(&chunk[..got]);
    }
    if body.len() != content_length {
        return Err(ReplicaError::Malformed("body overran Content-Length"));
    }
    Ok((status, body))
}

//! The server: listener, admission control, worker pool, shutdown.
//!
//! Architecture (std only — no async runtime):
//!
//! * **Listener thread** — blocking `accept`. Admission control lives
//!   here: when the number of live connections has reached
//!   [`ServeConfig::max_connections`], the new connection gets a
//!   preformatted `503` and is closed immediately — the server *sheds*
//!   load instead of queueing unboundedly or stalling. Admitted
//!   connections go onto the run queue.
//! * **Worker pool** — `workers` threads multiplex the run queue: pop
//!   a connection, poll it briefly, serve at most one request, requeue
//!   it. This serves `connections ≫ workers` with keep-alive (a
//!   thread-per-connection design would let idle keep-alive clients
//!   starve the pool — on the 1-core CI runner, with *one* default
//!   worker, after the first client). The short blocking poll doubles
//!   as the pacing sleep, so an all-idle queue costs one poll window
//!   per connection per cycle, not a spin.
//! * **Batch dispatcher** — one thread draining the
//!   [`Batcher`](crate::batch::Batcher): queries from all workers are
//!   gathered for `BATCH_WINDOW`, deduplicated, and handed to one
//!   [`PcsEngine::query_batch`] call, which pins one epoch and reads
//!   and fills the result cache. The dispatcher counts `batches`,
//!   `batched_requests` and `dedup_saved` into [`ServerStats`];
//!   `/stats` reads the cache counters from the engine.
//!
//! [`PcsServer::shutdown`] is graceful: stop admitting, let workers
//! drain buffered requests on live connections (answered with
//! `Connection: close`), then retire the batcher. In-flight requests
//! complete; nothing is dropped mid-response.

use crate::batch::Batcher;
use crate::http::{HttpConn, HttpError, Poll, Response, SHED_503};
use crate::protocol::{
    engine_error_status, json_opt_u64, render_api_error, render_engine_error,
    render_query_response, render_update_report, route, Route,
};
use pcs_engine::{Error as EngineError, PcsEngine, StoreError};
use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Server tunables. `Default` is sized for the CI smoke test; a real
/// deployment raises `workers` and `max_connections`.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads. Defaults to `available_parallelism`.
    pub workers: usize,
    /// Admission cap: live connections beyond this are shed with 503.
    pub max_connections: usize,
    /// Per-socket-read timeout while parsing a request.
    pub read_timeout: Duration,
}

/// Max queries per dispatched batch.
const BATCH_MAX: usize = 64;
/// How long the batch dispatcher gathers before executing.
const BATCH_WINDOW: Duration = Duration::from_micros(200);
/// Cap on `/apply` body size, bytes.
const MAX_BODY_BYTES: usize = 64 * 1024;
/// Idle keep-alive connections are closed after this long.
const KEEP_ALIVE_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a worker's readiness poll blocks per popped connection.
const POLL_WINDOW: Duration = Duration::from_millis(2);

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            max_connections: 128,
            read_timeout: Duration::from_secs(2),
        }
    }
}

/// Why the server failed to start.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// Binding the listen address failed.
    Bind(io::Error),
    /// Spawning a thread failed.
    Spawn(io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Bind(e) => write!(f, "failed to bind listen address: {e}"),
            ServeError::Spawn(e) => write!(f, "failed to spawn server thread: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Live server counters (atomics; read at any time).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections admitted.
    pub accepted: AtomicU64,
    /// Connections shed with an immediate 503 at the accept gate.
    pub shed: AtomicU64,
    /// Requests fully served (any status).
    pub requests: AtomicU64,
    /// Query requests executed.
    pub queries: AtomicU64,
    /// Update batches applied.
    pub updates: AtomicU64,
    /// Query batches dispatched.
    pub batches: AtomicU64,
    /// Requests carried by those batches (pre-dedup).
    pub batched_requests: AtomicU64,
    /// Requests answered by a deduplicated twin's execution.
    pub dedup_saved: AtomicU64,
    /// Responses with a 4xx status.
    pub http_4xx: AtomicU64,
    /// Responses with a 5xx status.
    pub http_5xx: AtomicU64,
    /// Server-side faults: `EngineError::Internal` surfaced to a
    /// client, or the batch dispatcher failing to answer at all. These
    /// are bugs or dead threads, never client mistakes — a nonzero
    /// count here deserves a look even when traffic is otherwise
    /// healthy.
    pub internal_errors: AtomicU64,
}

/// A point-in-time copy of every counter, including the batcher's and
/// the engine's result-cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections admitted.
    pub accepted: u64,
    /// Connections shed at the accept gate.
    pub shed: u64,
    /// Requests fully served.
    pub requests: u64,
    /// Query requests executed.
    pub queries: u64,
    /// Update batches applied.
    pub updates: u64,
    /// 4xx responses.
    pub http_4xx: u64,
    /// 5xx responses.
    pub http_5xx: u64,
    /// Query batches dispatched.
    pub batches: u64,
    /// Requests carried by those batches (pre-dedup).
    pub batched_requests: u64,
    /// Requests answered by a deduplicated twin's execution.
    pub dedup_saved: u64,
    /// Requests answered straight from the result cache. Read from the
    /// engine's hit counter, so it equals `cache_hits`; twins deduped
    /// in one window count once.
    pub cache_answered: u64,
    /// Server-side faults surfaced to clients (see
    /// [`ServerStats::internal_errors`]).
    pub internal_errors: u64,
    /// Result-cache hits (engine-wide, including direct
    /// `query_cached` callers).
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Result-cache entries dropped by capacity rotation.
    pub cache_evictions: u64,
    /// Entries carried across an epoch publish by surgical
    /// invalidation.
    pub cache_surgical_survivals: u64,
    /// The engine's published epoch when the snapshot was taken.
    pub epoch: u64,
    /// The engine's durable (fsynced-WAL) epoch; `None` without a
    /// durable directory. The engine fsyncs before it publishes, so
    /// this never lags `epoch` — transiently it may *lead* by the one
    /// write sitting between its fsync and its publication.
    pub durable_epoch: Option<u64>,
}

impl StatsSnapshot {
    /// Renders the `/stats` body. `durable_epoch` is `null` on a
    /// non-durable engine.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"accepted\":{},\"shed\":{},\"requests\":{},\"queries\":{},\"updates\":{},\
             \"http_4xx\":{},\"http_5xx\":{},\"internal_errors\":{},\"batches\":{},\
             \"batched_requests\":{},\"dedup_saved\":{},\"cache_answered\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_evictions\":{},\
             \"cache_surgical_survivals\":{},\"epoch\":{},\"durable_epoch\":{}}}",
            self.accepted,
            self.shed,
            self.requests,
            self.queries,
            self.updates,
            self.http_4xx,
            self.http_5xx,
            self.internal_errors,
            self.batches,
            self.batched_requests,
            self.dedup_saved,
            self.cache_answered,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_surgical_survivals,
            self.epoch,
            json_opt_u64(self.durable_epoch),
        )
    }
}

/// One parked connection.
struct Conn {
    http: HttpConn,
    last_active: Instant,
}

/// State shared by every server thread.
struct Shared {
    engine: Arc<PcsEngine>,
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Conn>>,
    queued: Condvar,
    shutdown: AtomicBool,
    active: AtomicUsize,
    stats: ServerStats,
    batcher: Batcher,
    vertex_count: usize,
}

impl Shared {
    /// Queue lock with poison recovery: a panicking worker cannot tear
    /// a VecDeque of owned connections, so the contents stay usable.
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Conn>> {
        match self.queue.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.queue.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    fn push_conn(&self, conn: Conn) {
        self.lock_queue().push_back(conn);
        self.queued.notify_one();
    }

    /// Pops the next connection; blocks while the queue is empty.
    /// Returns `None` once shutdown is set *and* the queue has
    /// drained.
    fn pop_conn(&self) -> Option<Conn> {
        let mut q = self.lock_queue();
        loop {
            if let Some(c) = q.pop_front() {
                return Some(c);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            q = match self.queued.wait_timeout(q, Duration::from_millis(50)) {
                Ok((g, _)) => g,
                Err(poisoned) => {
                    self.queue.clear_poison();
                    poisoned.into_inner().0
                }
            };
        }
    }

    fn snapshot_stats(&self) -> StatsSnapshot {
        // Read the published epoch *before* the durable epoch: the
        // engine fsyncs before it publishes, so durable ≥ published at
        // every instant — this read order keeps the pair consistent
        // (durable_epoch ≥ epoch) even against a concurrent writer.
        let epoch = self.engine.epoch();
        let durable_epoch = self.engine.durable_epoch();
        let cache = self.engine.cache_stats();
        StatsSnapshot {
            epoch,
            durable_epoch,
            cache_hits: cache.hits,
            cache_answered: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_surgical_survivals: cache.surgical_survivals,
            accepted: self.stats.accepted.load(Ordering::Relaxed),
            shed: self.stats.shed.load(Ordering::Relaxed),
            requests: self.stats.requests.load(Ordering::Relaxed),
            queries: self.stats.queries.load(Ordering::Relaxed),
            updates: self.stats.updates.load(Ordering::Relaxed),
            http_4xx: self.stats.http_4xx.load(Ordering::Relaxed),
            http_5xx: self.stats.http_5xx.load(Ordering::Relaxed),
            batches: self.stats.batches.load(Ordering::Relaxed),
            batched_requests: self.stats.batched_requests.load(Ordering::Relaxed),
            dedup_saved: self.stats.dedup_saved.load(Ordering::Relaxed),
            internal_errors: self.stats.internal_errors.load(Ordering::Relaxed),
        }
    }

    fn count_status(&self, status: u16) {
        if (400..500).contains(&status) {
            self.stats.http_4xx.fetch_add(1, Ordering::Relaxed);
        } else if status >= 500 {
            self.stats.http_5xx.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A running PCS service. Dropping without calling
/// [`shutdown`](PcsServer::shutdown) aborts the threads with the
/// process; call `shutdown` for a graceful drain.
pub struct PcsServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    listener_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    dispatcher_handle: Option<JoinHandle<()>>,
}

impl PcsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts serving
    /// `engine`.
    pub fn start(
        engine: Arc<PcsEngine>,
        addr: &str,
        cfg: ServeConfig,
    ) -> Result<PcsServer, ServeError> {
        let listener = TcpListener::bind(addr).map_err(ServeError::Bind)?;
        let local_addr = listener.local_addr().map_err(ServeError::Bind)?;
        let vertex_count = engine.snapshot().graph().num_vertices();
        let shared = Arc::new(Shared {
            batcher: Batcher::new(BATCH_WINDOW, BATCH_MAX),
            engine,
            cfg: cfg.clone(),
            queue: Mutex::new(VecDeque::new()),
            queued: Condvar::new(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            stats: ServerStats::default(),
            vertex_count,
        });

        let dispatcher_handle = {
            let s = Arc::clone(&shared);
            thread::Builder::new()
                .name("pcs-serve-batch".to_string())
                .spawn(move || s.batcher.run_dispatcher(&s.engine, &s.stats))
                .map_err(ServeError::Spawn)?
        };
        let mut worker_handles = Vec::with_capacity(cfg.workers.max(1));
        for i in 0..cfg.workers.max(1) {
            let s = Arc::clone(&shared);
            let h = thread::Builder::new()
                .name(format!("pcs-serve-worker-{i}"))
                .spawn(move || worker_loop(&s))
                .map_err(ServeError::Spawn)?;
            worker_handles.push(h);
        }
        let listener_handle = {
            let s = Arc::clone(&shared);
            thread::Builder::new()
                .name("pcs-serve-accept".to_string())
                .spawn(move || accept_loop(&s, listener))
                .map_err(ServeError::Spawn)?
        };

        Ok(PcsServer {
            shared,
            local_addr,
            listener_handle: Some(listener_handle),
            worker_handles,
            dispatcher_handle: Some(dispatcher_handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot_stats()
    }

    /// Graceful shutdown: stop admitting, drain, join every thread.
    /// Returns the final counters.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.listener_handle.take() {
            let _ = h.join();
        }
        // Wake and join the workers; they drain the queue first.
        self.shared.queued.notify_all();
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        // No worker is left to submit queries; retire the dispatcher.
        self.shared.batcher.shutdown();
        if let Some(h) = self.dispatcher_handle.take() {
            let _ = h.join();
        }
        self.shared.snapshot_stats()
    }
}

/// The accept loop: admission control happens here.
fn accept_loop(shared: &Shared, listener: TcpListener) {
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let (stream, _peer) = match accepted {
            Ok(pair) => pair,
            Err(_) => continue,
        };
        if shared.active.load(Ordering::Acquire) >= shared.cfg.max_connections {
            // Shed: answer 503 without admitting. Best-effort write —
            // the client may already be gone.
            shared.stats.shed.fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = stream.write_all(SHED_503);
            let _ = stream.flush();
            continue;
        }
        shared.active.fetch_add(1, Ordering::AcqRel);
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        // Responses are latency-sensitive and sent in one write; never
        // let Nagle hold them back.
        let _ = stream.set_nodelay(true);
        shared.push_conn(Conn { http: HttpConn::new(stream), last_active: Instant::now() });
    }
}

/// One worker: multiplexes parked connections off the run queue.
fn worker_loop(shared: &Shared) {
    while let Some(mut conn) = shared.pop_conn() {
        let draining = shared.shutdown.load(Ordering::Acquire);
        match conn.http.poll_readable(POLL_WINDOW) {
            Ok(Poll::Closed) | Err(_) => {
                shared.active.fetch_sub(1, Ordering::AcqRel);
            }
            Ok(Poll::Idle) => {
                if draining || conn.last_active.elapsed() > KEEP_ALIVE_TIMEOUT {
                    shared.active.fetch_sub(1, Ordering::AcqRel);
                } else {
                    shared.push_conn(conn);
                }
            }
            Ok(Poll::Data) => {
                // During drain, serve this last buffered request with
                // `Connection: close`; otherwise honor keep-alive.
                let keep = serve_one(shared, &mut conn.http, !draining);
                if keep {
                    conn.last_active = Instant::now();
                    shared.push_conn(conn);
                } else {
                    shared.active.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
    }
}

/// Reads and answers one request. Returns whether to keep the
/// connection.
fn serve_one(shared: &Shared, http: &mut HttpConn, allow_keep_alive: bool) -> bool {
    let req = match http.read_request(shared.cfg.read_timeout, MAX_BODY_BYTES) {
        Ok(req) => req,
        Err(HttpError::Closed) => return false,
        Err(HttpError::Io(_)) => return false,
        Err(err) => {
            let status = http_error_status(&err);
            let body = format!(
                "{{\"error\":\"http\",\"detail\":\"{}\"}}",
                crate::protocol::json_escape(&err.to_string())
            );
            shared.stats.requests.fetch_add(1, Ordering::Relaxed);
            shared.count_status(status);
            let _ = http.write_response(&Response::json(status, body, false));
            return false;
        }
    };
    let keep = allow_keep_alive && req.keep_alive;
    let (status, payload) = dispatch(shared, &req);
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    shared.count_status(status);
    let resp = match payload {
        Payload::Json(body) => Response::json(status, body, keep),
        Payload::Octets(body) => Response::octets(status, body, keep),
    };
    if http.write_response(&resp).is_err() {
        return false;
    }
    keep
}

/// A dispatched response body: JSON for every API route, raw bytes
/// for the `/wal` replication feed.
enum Payload {
    Json(String),
    Octets(Vec<u8>),
}

/// Routes one parsed request and produces `(status, body)`.
fn dispatch(shared: &Shared, req: &crate::http::Request) -> (u16, Payload) {
    let routed = route(req, shared.vertex_count, shared.engine.taxonomy());
    let (status, body) = match routed {
        Err(api) => (api.status(), render_api_error(&api)),
        Ok(Route::Health) => {
            (200, format!("{{\"status\":\"ok\",\"epoch\":{}}}", shared.engine.epoch()))
        }
        Ok(Route::Stats) => (200, shared.snapshot_stats().to_json()),
        Ok(Route::Query(q)) => {
            shared.stats.queries.fetch_add(1, Ordering::Relaxed);
            match shared.batcher.submit(q) {
                Some(Ok(resp)) => (200, render_query_response(&resp)),
                Some(Err(e)) => {
                    if matches!(e, EngineError::Internal { .. }) {
                        shared.stats.internal_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    (engine_error_status(&e), render_engine_error(&e))
                }
                None => {
                    shared.stats.internal_errors.fetch_add(1, Ordering::Relaxed);
                    (
                        500,
                        "{\"error\":\"dispatch\",\"detail\":\"batch dispatcher unavailable\"}"
                            .to_string(),
                    )
                }
            }
        }
        Ok(Route::Apply(batch)) => {
            shared.stats.updates.fetch_add(1, Ordering::Relaxed);
            // Concurrent `/apply` calls take the engine's writer lock in
            // turn: each publishes its own epoch (and, on a durable
            // engine, appends and fsyncs its own WAL record).
            match shared.engine.apply(&batch) {
                Ok(report) => (200, render_update_report(&report)),
                Err(e) => {
                    if matches!(e, EngineError::Internal { .. }) {
                        shared.stats.internal_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    (engine_error_status(&e), render_engine_error(&e))
                }
            }
        }
        Ok(Route::WalTail { from, max }) => {
            return match shared.engine.wal_tail_since(from, max) {
                Ok(frames) => (200, Payload::Octets(frames)),
                Err(e) => {
                    let (status, tag, detail) = wal_error(&e);
                    (
                        status,
                        Payload::Json(format!(
                            "{{\"error\":\"{tag}\",\"detail\":\"{}\"}}",
                            crate::protocol::json_escape(&detail)
                        )),
                    )
                }
            };
        }
    };
    (status, Payload::Json(body))
}

/// Maps a `/wal` failure to `(status, tag, detail)`.
///
/// * A reclaimed gap (the requested epochs were checkpointed away) is
///   `410 Gone` — the follower cannot catch up from the log and must
///   re-seed from a snapshot.
/// * Asking a non-durable server for its log is a client
///   misconfiguration → 400.
/// * Anything else is a server-side store failure → 500.
fn wal_error(err: &EngineError) -> (u16, &'static str, String) {
    match err {
        EngineError::Store(StoreError::Corrupt { .. }) => (410, "wal_gone", err.to_string()),
        EngineError::NotDurable => (400, "not_durable", err.to_string()),
        _ => (500, "wal", err.to_string()),
    }
}

/// Maps a wire-level parse failure to a status.
fn http_error_status(err: &HttpError) -> u16 {
    match err {
        HttpError::Timeout => 408,
        HttpError::HeadTooLarge => 431,
        HttpError::BodyTooLarge { .. } => 413,
        HttpError::UnsupportedMethod(_) => 405,
        HttpError::UnsupportedVersion(_) => 505,
        _ => 400,
    }
}

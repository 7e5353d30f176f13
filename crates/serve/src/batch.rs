//! Cross-request query batching.
//!
//! Worker threads do not call the engine directly. Each validated
//! query is submitted to a shared [`Batcher`]; a dedicated dispatcher
//! thread does three things:
//!
//! 1. **gather** everything that arrives within a short window (or
//!    until the batch cap);
//! 2. **deduplicate** identical requests;
//! 3. **call [`PcsEngine::query_batch`] once** on the unique requests.
//!    That one engine call pins one epoch snapshot, answers from the
//!    result cache what it holds, computes the rest and fills the
//!    cache with them.
//!
//! Three things fall out of that:
//!
//! * under a zipfian workload the hot vertices collapse — fifty
//!   concurrent requests for the same `(v, k)` cost one search, and
//!   on a cache-enabled engine the *next* fifty cost zero;
//! * every response in a batch reports the same `epoch` (a cache hit
//!   may report an older epoch only under the engine's surgical mode,
//!   which proves the answer unchanged);
//! * results are `Arc`-shared, so a hundred waiters for one hot
//!   answer clone a pointer, not a community list.
//!
//! Dedup runs before the cache: twins in one window count once in the
//! engine's cache counters (one hit or one miss), and every other twin
//! counts as `dedup_saved`.
//!
//! **Dedup-key contract:** the dedup map is keyed on the
//! [`QueryRequest`] itself (`Hash + Eq` are derived on the request).
//! Never mirror request fields into a hand-maintained tuple key: any
//! field added later silently falls out of such a mirror, and two
//! requests differing only in that field would then dedup together —
//! serving one client another client's answer.
//!
//! The submitting worker blocks on its own `sync_channel(1)` until the
//! dispatcher sends its result. A submitter still waiting after
//! [`SUBMIT_DEADLINE`], or whose sender was dropped unsent, gets
//! `None` — the server maps that to a 500 rather than parking a
//! connection forever; it cannot happen unless the dispatcher thread
//! has died.

use crate::server::ServerStats;
use pcs_engine::{Error as EngineError, PcsEngine, QueryRequest, QueryResponse};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Hard ceiling on how long a submitter waits for its result.
pub const SUBMIT_DEADLINE: Duration = Duration::from_secs(30);

/// What a submitter gets back: the engine answer (`Arc`-shared with
/// every deduplicated twin and with the result cache) or the error.
pub type BatchOutcome = Result<Arc<QueryResponse>, EngineError>;

struct PendingQuery {
    req: QueryRequest,
    reply: SyncSender<BatchOutcome>,
}

struct BatcherState {
    pending: Vec<PendingQuery>,
    shutdown: bool,
}

/// The shared batching queue. Workers submit; one dispatcher drains.
pub struct Batcher {
    state: Mutex<BatcherState>,
    arrived: Condvar,
    window: Duration,
    max_batch: usize,
}

impl Batcher {
    /// Creates a batcher gathering for at most `window` per batch, up
    /// to `max_batch` requests.
    pub fn new(window: Duration, max_batch: usize) -> Batcher {
        Batcher {
            state: Mutex::new(BatcherState { pending: Vec::new(), shutdown: false }),
            arrived: Condvar::new(),
            window,
            max_batch: max_batch.max(1),
        }
    }

    /// Recovers the state lock even if a holder panicked: the queue is
    /// a Vec of (request, sender) pairs, which cannot be left in a
    /// torn state by any code here.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, BatcherState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                self.state.clear_poison();
                poisoned.into_inner()
            }
        }
    }

    /// Submits one validated query and blocks until the dispatcher
    /// sends the result. Returns `None` only on dispatcher death
    /// (deadline or dropped sender) or post-shutdown submission.
    pub fn submit(&self, req: QueryRequest) -> Option<BatchOutcome> {
        let (reply, result) = sync_channel(1);
        {
            let mut state = self.lock_state();
            if state.shutdown {
                return None;
            }
            state.pending.push(PendingQuery { req, reply });
        }
        self.arrived.notify_all();
        result.recv_timeout(SUBMIT_DEADLINE).ok()
    }

    /// The dispatcher loop, counting into `stats`. Run on a dedicated
    /// thread; returns when [`Batcher::shutdown`] is called and the
    /// queue has drained.
    pub fn run_dispatcher(&self, engine: &PcsEngine, stats: &ServerStats) {
        loop {
            let taken = {
                let mut state = self.lock_state();
                // Sleep until something arrives or shutdown.
                while state.pending.is_empty() && !state.shutdown {
                    state = match self.arrived.wait(state) {
                        Ok(g) => g,
                        Err(poisoned) => {
                            self.state.clear_poison();
                            poisoned.into_inner()
                        }
                    };
                }
                if state.pending.is_empty() && state.shutdown {
                    return;
                }
                // Gather: give stragglers one window to pile on, then
                // take everything up to the cap.
                let deadline = Instant::now() + self.window;
                while state.pending.len() < self.max_batch && !state.shutdown {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    match self.arrived.wait_timeout(state, deadline - now) {
                        Ok((g, timed_out)) => {
                            state = g;
                            if timed_out.timed_out() {
                                break;
                            }
                        }
                        Err(poisoned) => {
                            self.state.clear_poison();
                            state = poisoned.into_inner().0;
                        }
                    }
                }
                let take = state.pending.len().min(self.max_batch);
                state.pending.drain(..take).collect::<Vec<_>>()
            };
            if taken.is_empty() {
                continue;
            }
            Self::execute(engine, stats, taken);
        }
    }

    /// Answers one gathered batch: dedup, one engine call, then
    /// distribution to the waiting submitters.
    fn execute(engine: &PcsEngine, stats: &ServerStats, batch: Vec<PendingQuery>) {
        let (unique, assignment) = Self::dedup_requests(batch.iter().map(|p| &p.req));
        // Count before sending: the waiter may read `/stats` the moment
        // it has its reply, and must find itself counted.
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.batched_requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
        stats.dedup_saved.fetch_add((batch.len() - unique.len()) as u64, Ordering::Relaxed);
        let results = engine.query_batch(&unique);
        Self::distribute(&batch, &assignment, &results);
    }

    /// Collapses identical requests: returns the unique requests plus,
    /// per input, the index of its unique twin.
    ///
    /// Keyed on the request itself (see the module docs' dedup-key
    /// contract): every `QueryRequest` field — present and future —
    /// participates via the derived `Hash`/`Eq`, so a new builder knob
    /// can never silently fall out of the key and alias two distinct
    /// requests.
    fn dedup_requests<'a>(
        requests: impl Iterator<Item = &'a QueryRequest>,
    ) -> (Vec<QueryRequest>, Vec<usize>) {
        let mut unique: Vec<QueryRequest> = Vec::new();
        let mut index_of: HashMap<QueryRequest, usize> = HashMap::new();
        let mut assignment: Vec<usize> = Vec::new();
        for req in requests {
            let idx = match index_of.get(req) {
                Some(&idx) => idx,
                None => {
                    let idx = unique.len();
                    unique.push(req.clone());
                    index_of.insert(req.clone(), idx);
                    idx
                }
            };
            assignment.push(idx);
        }
        (unique, assignment)
    }

    /// Sends `results[assignment[i]]` to `pending[i]`'s submitter.
    ///
    /// A missing result — the dispatcher produced fewer results than
    /// unique requests, which is a bug in this module, not a property
    /// of any client's request — posts a truthful
    /// [`EngineError::Internal`] (a stable-tagged 500 at the HTTP
    /// layer) instead of fabricating a client-addressable error.
    fn distribute(pending: &[PendingQuery], assignment: &[usize], results: &[BatchOutcome]) {
        for (i, p) in pending.iter().enumerate() {
            let outcome = assignment.get(i).and_then(|&idx| results.get(idx)).cloned();
            let outcome = outcome.unwrap_or_else(|| {
                Err(EngineError::Internal {
                    component: "batch-dispatch",
                    detail: format!(
                        "no result for request {i}: {} results for {} waiters",
                        results.len(),
                        pending.len()
                    ),
                })
            });
            // A submitter past its deadline has hung up; nothing to do.
            let _ = p.reply.send(outcome);
        }
    }

    /// Signals shutdown and wakes the dispatcher so it can drain and
    /// exit. Safe to call more than once.
    pub fn shutdown(&self) {
        self.lock_state().shutdown = true;
        self.arrived.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_engine::PcsEngine;
    use pcs_graph::Graph;
    use pcs_ptree::{PTree, Taxonomy};
    use std::sync::atomic::Ordering;
    use std::thread;

    fn engine() -> Arc<PcsEngine> {
        let n = 12usize;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for d in 1..=2u32 {
                let v = (u + d) % n as u32;
                let (lo, hi) = (u.min(v), u.max(v));
                if !edges.contains(&(lo, hi)) {
                    edges.push((lo, hi));
                }
            }
        }
        let g = Graph::from_edges(n, &edges).unwrap();
        let mut tax = Taxonomy::new("root");
        let a = tax.add_child(Taxonomy::ROOT, "a").unwrap();
        let profiles = (0..n).map(|_| PTree::from_labels(&tax, [a]).unwrap()).collect::<Vec<_>>();
        Arc::new(PcsEngine::builder().graph(g).taxonomy(tax).profiles(profiles).build().unwrap())
    }

    #[test]
    fn submissions_get_results_and_twins_dedup() {
        let engine = engine();
        let batcher = Arc::new(Batcher::new(Duration::from_millis(30), 64));
        let stats = Arc::new(ServerStats::default());
        let dispatcher = {
            let b = Arc::clone(&batcher);
            let e = Arc::clone(&engine);
            let s = Arc::clone(&stats);
            thread::spawn(move || b.run_dispatcher(&e, &s))
        };
        let mut handles = Vec::new();
        for _ in 0..8 {
            let b = Arc::clone(&batcher);
            handles.push(thread::spawn(move || {
                b.submit(QueryRequest::vertex(3).k(2)).expect("result")
            }));
        }
        let epochs: Vec<u64> =
            handles.into_iter().map(|h| h.join().unwrap().expect("query ok").epoch).collect();
        assert!(epochs.windows(2).all(|w| w[0] == w[1]), "one epoch per batch");
        assert!(stats.dedup_saved.load(Ordering::Relaxed) > 0);
        batcher.shutdown();
        dispatcher.join().unwrap();
    }

    #[test]
    fn shutdown_refuses_new_submissions() {
        let batcher = Batcher::new(Duration::from_millis(5), 8);
        batcher.shutdown();
        assert!(batcher.submit(QueryRequest::vertex(0).k(1)).is_none());
    }

    /// The dedup-key contract: requests differing in ANY builder field
    /// must never collapse together. The old hand-maintained tuple key
    /// silently dropped fields added after it was written (it never
    /// carried `bypass_cache`), aliasing distinct requests.
    #[test]
    fn requests_differing_in_any_builder_field_never_dedup() {
        use pcs_engine::Algorithm;
        let base = || QueryRequest::vertex(3).k(2);
        let variants: Vec<QueryRequest> = vec![
            base(),
            QueryRequest::vertex(4).k(2),       // vertex differs
            base().k(3),                        // k differs
            base().algorithm(Algorithm::Basic), // algorithm differs
            base().max_communities(1),          // cap differs
            base().collect_stats(true),         // stats flag differs
            base().bypass_cache(true),          // cache flag differs
        ];
        let (unique, assignment) = Batcher::dedup_requests(variants.iter());
        assert_eq!(unique.len(), variants.len(), "distinct requests deduped together: {unique:?}");
        assert_eq!(assignment, (0..variants.len()).collect::<Vec<_>>());

        // And true twins still collapse.
        let twins = [base(), base(), base()];
        let (unique, assignment) = Batcher::dedup_requests(twins.iter());
        assert_eq!(unique.len(), 1);
        assert_eq!(assignment, vec![0, 0, 0]);
    }

    /// A results/waiters length mismatch is a dispatcher bug and must
    /// surface as the truthful `Internal` error, not a fabricated
    /// client-addressable one.
    #[test]
    fn forced_result_mismatch_reports_internal_error() {
        let (pending, waiters): (Vec<PendingQuery>, Vec<_>) = (0..2)
            .map(|v| {
                let (reply, result) = sync_channel(1);
                (PendingQuery { req: QueryRequest::vertex(v).k(1), reply }, result)
            })
            .unzip();
        let resp = Arc::new(engine().query(&QueryRequest::vertex(0).k(1)).expect("query ok"));
        // Two waiters, two assignments — but only one result made it.
        Batcher::distribute(&pending, &[0, 1], &[Ok(resp)]);

        let take = |i: usize| waiters[i].try_recv().expect("sent");
        assert!(take(0).is_ok(), "covered waiter gets its result");
        match take(1) {
            Err(EngineError::Internal { component, .. }) => {
                assert_eq!(component, "batch-dispatch");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
    }
}

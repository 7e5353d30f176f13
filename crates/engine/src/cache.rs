//! The epoch-keyed hot-query result cache.
//!
//! Community-search traffic is heavily repetitive (zipfian over query
//! vertices), so the single cheapest answer is the one already
//! computed. Each published [`SnapshotInner`](crate::snapshot) may
//! carry a [`QueryCache`]: a bounded map from the *resolved* query key
//! (vertex, k, concrete algorithm, response cap, stats flag) to the
//! `Arc`-shared [`QueryResponse`] computed at that snapshot's epoch.
//! [`PcsEngine::query_batch`](crate::PcsEngine::query_batch) is the one
//! reader and writer: it looks each request up in the snapshot it
//! pinned, computes the misses and fills them into the same cache.
//!
//! Correctness comes from the epoch keying, not from timestamps: the
//! cache lives **on the snapshot**, so a hit can only ever return an
//! answer computed against the exact graph/profile version the reader
//! is looking at. Publishing a new epoch swaps in a new cache —
//! empty under [`CacheMode::Wholesale`], or pre-seeded with the
//! entries provably untouched by the batch under
//! [`CacheMode::Surgical`] (see
//! [`PcsEngine`](crate::PcsEngine) for the survival rule).
//!
//! Eviction is a two-generation segmented FIFO: inserts land in the
//! `current` generation; when `current` reaches half the configured
//! capacity it becomes `previous` and the old `previous` is dropped
//! wholesale. A hit in `previous` promotes the entry back into
//! `current`, so sustained-hot entries survive rotation while one-shot
//! entries age out after at most two rotations — O(1) per operation,
//! never more than `capacity` entries resident, no per-entry clock to
//! maintain.
//!
//! This module is on the `pcs-audit` hot-path discipline: no `unwrap`,
//! no `expect`, no panicking indexing; the cache mutex recovers from
//! poisoning by discarding cached entries (they are pure derived
//! state).

use crate::request::{QueryRequest, QueryResponse};
use pcs_core::Algorithm;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Invalidation policy of the engine's result cache (see
/// [`EngineBuilder::result_cache`](crate::EngineBuilder::result_cache)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheMode {
    /// No result cache (default): every query computes.
    #[default]
    Off,
    /// Cache hot results within an epoch; every published update batch
    /// starts the next epoch with an empty cache. Always sound, zero
    /// bookkeeping on the write path.
    Wholesale,
    /// Like [`CacheMode::Wholesale`], but an update batch carries
    /// forward the entries whose answers it provably could not have
    /// changed: the query vertex was not re-profiled and no label of
    /// its profile subtree is in the batch's invalidation set. Edge
    /// batches always touch the taxonomy root (every profile contains
    /// it), so surgical survival helps profile-only churn — exactly
    /// the updates whose invalidation sets the CP-tree patcher also
    /// localizes.
    Surgical,
}

/// Monotonic counters of one engine's cache behavior, shared across
/// every epoch's cache instance so rates survive invalidation.
#[derive(Debug, Default)]
pub(crate) struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    surgical_survivals: AtomicU64,
}

impl CacheStats {
    pub(crate) fn snapshot(&self) -> CacheStatsSnapshot {
        CacheStatsSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            surgical_survivals: self.surgical_survivals.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of the engine's cache counters (see
/// [`PcsEngine::cache_stats`](crate::PcsEngine::cache_stats)).
///
/// All counters are monotonic over the engine's lifetime; they are
/// **not** reset when an epoch publish replaces the cache instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStatsSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to computation.
    pub misses: u64,
    /// Entries dropped by capacity rotation (not by epoch publish —
    /// wholesale invalidation is accounted implicitly by the epoch).
    pub evictions: u64,
    /// Entries carried alive across an epoch publish by
    /// [`CacheMode::Surgical`].
    pub surgical_survivals: u64,
}

/// The full identity of a cacheable answer. Built from a
/// [`QueryRequest`] **after** [`Algorithm::Auto`] resolution, so an
/// `Auto` request and an explicit request for the same concrete
/// algorithm share one entry. The `bypass_cache` flag is deliberately
/// not part of the key: a bypassing request never reads or writes the
/// cache at all.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    vertex: u32,
    k: u32,
    algorithm: Algorithm,
    cap: Option<usize>,
    stats: bool,
}

impl CacheKey {
    /// The key of `request` under the engine's resolved `algorithm`.
    pub(crate) fn for_request(request: &QueryRequest, algorithm: Algorithm) -> CacheKey {
        CacheKey {
            vertex: request.vertex_id(),
            k: request.degree_bound(),
            algorithm,
            cap: request.community_cap(),
            stats: request.wants_stats(),
        }
    }

    /// The query vertex this entry answers for (survival checks).
    pub(crate) fn vertex(&self) -> u32 {
        self.vertex
    }
}

/// The two generations. `current` receives inserts and promotions;
/// `previous` is the read-only overflow awaiting the next rotation.
#[derive(Default)]
struct Gens {
    current: HashMap<CacheKey, Arc<QueryResponse>>,
    previous: HashMap<CacheKey, Arc<QueryResponse>>,
}

/// One epoch's resident result cache (see the module docs for the
/// keying, eviction, and invalidation story).
pub(crate) struct QueryCache {
    /// Rotation threshold: each generation holds at most this many
    /// entries, so the cache holds at most `2 × half_cap` total.
    half_cap: usize,
    /// Engine-lifetime counters, shared across epoch instances.
    stats: Arc<CacheStats>,
    gens: Mutex<Gens>,
}

impl QueryCache {
    /// An empty cache bounded at `capacity` total entries.
    pub(crate) fn new(capacity: usize, stats: Arc<CacheStats>) -> QueryCache {
        QueryCache { half_cap: (capacity / 2).max(1), stats, gens: Mutex::new(Gens::default()) }
    }

    /// Locks the generations, recovering from poisoning by discarding
    /// all cached entries: the cache is pure derived state, so a
    /// panicking reader must cost later readers at most recomputation,
    /// never a propagated panic.
    fn lock_gens(&self) -> MutexGuard<'_, Gens> {
        match self.gens.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                guard.current.clear();
                guard.previous.clear();
                self.gens.clear_poison();
                guard
            }
        }
    }

    /// The cached answer for `key`, if resident. A hit in the previous
    /// generation promotes the entry, so hot keys survive rotations.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<Arc<QueryResponse>> {
        let mut gens = self.lock_gens();
        let found = match gens.current.get(key) {
            Some(hit) => Some(Arc::clone(hit)),
            None => match gens.previous.remove(key) {
                Some(hit) => {
                    Self::insert_locked(
                        &mut gens,
                        self.half_cap,
                        &self.stats,
                        key.clone(),
                        Arc::clone(&hit),
                    );
                    Some(hit)
                }
                None => None,
            },
        };
        match &found {
            Some(_) => self.stats.hits.fetch_add(1, Ordering::Relaxed),
            None => self.stats.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Caches `response` under `key`, rotating generations when the
    /// current one is full.
    pub(crate) fn insert(&self, key: CacheKey, response: Arc<QueryResponse>) {
        let mut gens = self.lock_gens();
        Self::insert_locked(&mut gens, self.half_cap, &self.stats, key, response);
    }

    fn insert_locked(
        gens: &mut Gens,
        half_cap: usize,
        stats: &CacheStats,
        key: CacheKey,
        response: Arc<QueryResponse>,
    ) {
        if gens.current.len() >= half_cap && !gens.current.contains_key(&key) {
            let dropped = std::mem::take(&mut gens.previous);
            gens.previous = std::mem::take(&mut gens.current);
            if !dropped.is_empty() {
                stats.evictions.fetch_add(dropped.len() as u64, Ordering::Relaxed);
            }
        }
        gens.current.insert(key, response);
    }

    /// Entries currently resident (both generations).
    pub(crate) fn len(&self) -> usize {
        let gens = self.lock_gens();
        gens.current.len() + gens.previous.len()
    }

    /// Builds the **next epoch's** cache from this one, carrying over
    /// every entry `survives` approves and re-stamping nothing — a
    /// surviving response still reports the epoch it was computed at,
    /// which by the survival proof answers identically at the new
    /// epoch. Counts each carried entry as a surgical survival.
    pub(crate) fn carry_surviving(
        &self,
        capacity: usize,
        survives: impl Fn(&CacheKey) -> bool,
    ) -> QueryCache {
        let next = QueryCache::new(capacity, Arc::clone(&self.stats));
        let mut carried = 0u64;
        {
            let gens = self.lock_gens();
            let mut next_gens = next.lock_gens();
            for (key, response) in gens.previous.iter().chain(gens.current.iter()) {
                if next_gens.current.len() >= next.half_cap {
                    break;
                }
                if survives(key) {
                    next_gens.current.insert(key.clone(), Arc::clone(response));
                    carried += 1;
                }
            }
        }
        if carried > 0 {
            self.stats.surgical_survivals.fetch_add(carried, Ordering::Relaxed);
        }
        next
    }
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field("len", &self.len())
            .field("capacity", &(self.half_cap * 2))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcs_core::{PcsOutcome, QueryStats};
    use std::collections::HashSet;
    use std::time::Duration;

    fn response(epoch: u64) -> Arc<QueryResponse> {
        Arc::new(QueryResponse {
            outcome: PcsOutcome { communities: Vec::new(), stats: QueryStats::default() },
            algorithm: Algorithm::AdvP,
            index_used: true,
            elapsed: Duration::ZERO,
            stats: None,
            total_communities: 0,
            epoch,
        })
    }

    fn key(vertex: u32) -> CacheKey {
        CacheKey { vertex, k: 2, algorithm: Algorithm::AdvP, cap: None, stats: false }
    }

    #[test]
    fn lookup_miss_then_hit() {
        let stats = Arc::new(CacheStats::default());
        let cache = QueryCache::new(8, Arc::clone(&stats));
        assert!(cache.lookup(&key(1)).is_none());
        cache.insert(key(1), response(0));
        let hit = cache.lookup(&key(1)).expect("resident after insert");
        assert_eq!(hit.epoch, 0);
        let snap = stats.snapshot();
        assert_eq!((snap.hits, snap.misses), (1, 1));
    }

    /// Requests differing in any field the key carries map to pairwise
    /// distinct keys through `for_request`, and none hits another's
    /// entry. A field `for_request` failed to read would alias two
    /// requests and serve one client another client's answer.
    #[test]
    fn distinct_keys_never_collide() {
        let key_of =
            |r: &QueryRequest| CacheKey::for_request(r, r.requested_algorithm().resolve(true));
        let base = || QueryRequest::vertex(3).k(2);
        let variants = [
            base(),
            QueryRequest::vertex(4).k(2),       // vertex differs
            base().k(3),                        // k differs
            base().algorithm(Algorithm::Basic), // algorithm differs
            base().max_communities(1),          // cap differs
            base().collect_stats(true),         // stats flag differs
        ];
        let keys: HashSet<CacheKey> = variants.iter().map(key_of).collect();
        assert_eq!(keys.len(), variants.len(), "distinct requests share a key: {keys:?}");

        let cache = QueryCache::new(64, Arc::new(CacheStats::default()));
        cache.insert(key_of(&base()), response(7));
        for other in &variants[1..] {
            assert!(cache.lookup(&key_of(other)).is_none(), "{other:?} must not hit {:?}", base());
        }
        // `bypass_cache` is deliberately no part of the key.
        assert_eq!(key_of(&base().bypass_cache(true)), key_of(&base()));
    }

    #[test]
    fn rotation_bounds_residency_and_counts_evictions() {
        let stats = Arc::new(CacheStats::default());
        let cache = QueryCache::new(8, Arc::clone(&stats));
        for v in 0..40 {
            cache.insert(key(v), response(0));
            assert!(cache.len() <= 8, "resident {} after insert {v}", cache.len());
        }
        assert!(stats.snapshot().evictions > 0);
        // The most recent insert is always resident.
        assert!(cache.lookup(&key(39)).is_some());
    }

    #[test]
    fn hot_entries_survive_rotation_via_promotion() {
        let cache = QueryCache::new(8, Arc::new(CacheStats::default()));
        cache.insert(key(0), response(0));
        for v in 1..=3 {
            cache.insert(key(v), response(0));
        }
        // key 0 rotated into `previous`; touching it promotes it back.
        assert!(cache.lookup(&key(0)).is_some());
        for v in 4..=6 {
            cache.insert(key(v), response(0));
        }
        assert!(cache.lookup(&key(0)).is_some(), "promoted entry survives the next rotation");
    }

    #[test]
    fn carry_surviving_filters_and_counts() {
        let stats = Arc::new(CacheStats::default());
        let cache = QueryCache::new(16, Arc::clone(&stats));
        for v in 0..6 {
            cache.insert(key(v), response(3));
        }
        let next = cache.carry_surviving(16, |k| k.vertex() % 2 == 0);
        for v in 0..6 {
            assert_eq!(next.lookup(&key(v)).is_some(), v % 2 == 0, "vertex {v}");
        }
        assert_eq!(stats.snapshot().surgical_survivals, 3);
    }

    #[test]
    fn poisoned_lock_recovers_empty() {
        let cache = Arc::new(QueryCache::new(8, Arc::new(CacheStats::default())));
        cache.insert(key(1), response(0));
        let poisoner = Arc::clone(&cache);
        let result = std::thread::spawn(move || {
            let _guard = poisoner.gens.lock();
            panic!("deliberate cache poisoning (test)");
        })
        .join();
        assert!(result.is_err());
        assert!(cache.lookup(&key(1)).is_none(), "poisoned cache discards entries");
        cache.insert(key(2), response(0));
        assert!(cache.lookup(&key(2)).is_some(), "cache keeps working after recovery");
    }
}

//! Cross-session advice cache.
//!
//! The serving layer's contexts are cache keys shared across users: N
//! concurrent sessions drilling into the same region of the data should
//! pay for **one** HB-cuts run. [`AdviceCache`] provides that sharing as
//! a sharded map in front of [`Advisor::advise`], keyed by the
//! *canonical* context's structure ([`CacheKey`]) so contexts that
//! differ only in conjunct order, set-literal order or surface
//! whitespace hit the same entry.
//!
//! A hit renders nothing: the key's one hash, computed when the key is
//! made, picks the shard and is the shard map's hash too, and equal
//! hashes are confirmed by comparing structure. Admission builds a
//! normal form only for a repeated attribute, and canonicalization sorts
//! the admitted context in place, so a hit clones no query
//! (`docs/adr/0018-a-cache-hit-renders-nothing.md`).
//!
//! Two properties matter for serving:
//!
//! * **Single-flight** — concurrent requests for the same key block on
//!   one advisor run instead of racing N identical computations (each
//!   entry is a [`OnceLock`]; the map shard lock is only held for the
//!   entry lookup, never across the advisor run).
//! * **Determinism** — the cache advises on the canonicalized query, so
//!   a cached answer is byte-identical to what a direct
//!   `advisor.advise(context.canonicalized())` call would produce;
//!   sharing never changes payloads, only who computes them.
//!
//! Errors are cached too: the advisor is a deterministic function of
//! (backend, config, context), so a failed context keeps failing and
//! re-running it would only burn backend operations. The exception is a
//! store I/O error ([`StoreError::Io`]): a failed read says nothing
//! about the context, so the callers of that flight see the error, the
//! entry is dropped, and the next request runs again.
//!
//! A cache built with [`AdviceCache::bounded`] additionally enforces a
//! capacity: once a shard is full, inserting a new context evicts its
//! least-recently-used **settled** entry (in-flight computations are
//! never evicted, so single-flight semantics — and the exactness of the
//! `runs` counter per resident key — are preserved). A long-running
//! server therefore no longer grows without bound with the number of
//! distinct contexts ever advised.

use crate::advisor::{Advice, Advisor};
use crate::error::{CoreError, CoreResult};
use charles_sdl::{CacheKey, Query};
use charles_store::StoreError;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One cache slot: settled exactly once, then shared by reference.
type Slot = Arc<OnceLock<Result<Arc<Advice>, CoreError>>>;

/// A slot plus the logical timestamp of its last touch (for LRU
/// eviction in bounded caches).
struct Entry {
    slot: Slot,
    last_used: u64,
}

/// A shard's map: its keys arrive hashed ([`CacheKey`] writes its one
/// `u64`), and [`KeyHash`] passes that on instead of hashing it again.
type Shard = HashMap<CacheKey, Entry, BuildHasherDefault<KeyHash>>;

/// The hasher of a [`Shard`]: the last `u64` written is the hash.
#[derive(Default)]
struct KeyHash(u64);

impl Hasher for KeyHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only a CacheKey hashes here, as one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Counters describing cache effectiveness. `runs` is exact even under
/// contention (it is incremented inside the single-flight initializer),
/// which is what lets tests assert "identical contexts across sessions
/// produce exactly one advisor run".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdviceCacheStats {
    /// Lookups that found a settled entry.
    pub hits: u64,
    /// Lookups that found no settled entry (the caller either ran the
    /// advisor or blocked on the concurrent run that did — so
    /// `misses ≥ runs`, with equality when there was no contention).
    pub misses: u64,
    /// Advisor executions actually performed.
    pub runs: u64,
    /// Entries evicted to stay within a bounded cache's capacity
    /// (always 0 for unbounded caches). A re-requested evicted context
    /// is recomputed, so `runs` counts it again.
    pub evictions: u64,
}

/// A sharded, single-flight cache of advice keyed by canonical context.
pub struct AdviceCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry bound; `None` = unbounded.
    shard_capacity: Option<usize>,
    /// Logical clock driving LRU recency.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    runs: AtomicU64,
    evictions: AtomicU64,
}

impl AdviceCache {
    /// Unbounded cache with the default shard count (16).
    pub fn new() -> AdviceCache {
        AdviceCache::with_shards(16)
    }

    /// Unbounded cache with an explicit shard count (clamped to ≥ 1).
    /// More shards mean less lock contention on the entry lookup; the
    /// advisor runs themselves never hold a shard lock.
    pub fn with_shards(shards: usize) -> AdviceCache {
        AdviceCache::build(shards, None)
    }

    /// Bounded cache: at most ~`capacity` entries total, evicting the
    /// least-recently-used settled entry of a full shard on insert.
    /// The bound is enforced per shard (`⌈capacity / shards⌉` each), so
    /// a skewed key distribution can evict slightly early; in-flight
    /// entries are never evicted, so a shard whose entries are all
    /// mid-computation may transiently exceed its bound rather than
    /// break single-flight. The shard count is clamped to at most
    /// `capacity` (and both to ≥ 1), so the effective total —
    /// [`AdviceCache::capacity`] — exceeds the request by at most
    /// `shards − 1` rounding slack, never by a multiple of it.
    pub fn bounded(shards: usize, capacity: usize) -> AdviceCache {
        let capacity = capacity.max(1);
        let n = shards.max(1).min(capacity);
        AdviceCache::build(n, Some(capacity.div_ceil(n)))
    }

    fn build(shards: usize, shard_capacity: Option<usize>) -> AdviceCache {
        let n = shards.max(1);
        AdviceCache {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            runs: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Number of settled or in-flight entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("advice cache shard poisoned").len())
            .sum()
    }

    /// True when no context has been advised through the cache yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured total capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.shard_capacity.map(|c| c * self.shards.len())
    }

    /// Effectiveness counters so far.
    pub fn stats(&self) -> AdviceCacheStats {
        AdviceCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Advise on `context` through the cache: admit (statically analyze
    /// and normalize), canonicalize, look up, and either reuse the
    /// settled answer or run `advisor` exactly once for this key
    /// (concurrent callers of the same key block on that run).
    ///
    /// Admission happens *before* keying, so redundant-conjunct
    /// spellings of one context — `(a: [0,100], a: [50,200])` and
    /// `(a: [50,100])` — collapse to a single entry. Admission failures
    /// (ill-typed or provably-empty contexts) are not cached: they cost
    /// zero backend operations to re-derive, and keeping them out keeps
    /// the capacity for answers that were expensive to compute.
    ///
    /// The caller owns the pairing of cache and advisor: one cache must
    /// only ever be used with advisors over the same backend and config,
    /// otherwise keys would conflate answers from different sources.
    pub fn advise_cached(&self, advisor: &Advisor<'_>, context: Query) -> CoreResult<Arc<Advice>> {
        let key = CacheKey::new(advisor.admit(context)?);
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[self.shard_index(&key)];
        let slot: Slot = {
            let mut shard = shard.lock().expect("advice cache shard poisoned");
            if let Some(entry) = shard.get_mut(&key) {
                entry.last_used = now;
                entry.slot.clone()
            } else {
                if let Some(cap) = self.shard_capacity {
                    if shard.len() >= cap {
                        self.evict_lru(&mut shard);
                    }
                }
                let entry = shard.entry(key.clone()).or_insert(Entry {
                    slot: Slot::default(),
                    last_used: now,
                });
                entry.slot.clone()
            }
        };
        if slot.get().is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let result = slot
            .get_or_init(|| {
                self.runs.fetch_add(1, Ordering::Relaxed);
                advisor.advise(key.into_query()).map(Arc::new)
            })
            .clone();
        if matches!(result, Err(CoreError::Store(StoreError::Io(_)))) {
            // Transient, unlike every other error: forget this flight
            // (and only this one — the key may already hold a retry).
            let mut shard = shard.lock().expect("advice cache shard poisoned");
            shard.retain(|_, e| !Arc::ptr_eq(&e.slot, &slot));
        }
        result
    }

    /// Evict the least-recently-used *settled* entry of a full shard.
    /// In-flight entries (unsettled `OnceLock`s with callers blocked on
    /// them) are skipped: removing one would let a later request start a
    /// duplicate run for the same key while the first is still going.
    /// If every entry is in flight, nothing is evicted and the shard
    /// transiently exceeds its bound.
    fn evict_lru(&self, shard: &mut Shard) {
        let victim = shard
            .iter()
            .filter(|(_, e)| e.slot.get().is_some())
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k.clone());
        if let Some(k) = victim {
            shard.remove(&k);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The shard of a key, from bits 32 and up of its one hash: the
    /// shard map takes its bucket index from the low bits (under 2³²
    /// buckets) and its tag from the top seven.
    fn shard_index(&self, key: &CacheKey) -> usize {
        let mut h = KeyHash::default();
        key.hash(&mut h);
        ((h.finish() >> 32) % self.shards.len() as u64) as usize
    }
}

impl Default for AdviceCache {
    fn default() -> AdviceCache {
        AdviceCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_sdl::{parse_query, Constraint, Predicate};
    use charles_store::{Backend, DataType, TableBuilder, Value};

    fn table() -> charles_store::Table {
        let mut b = TableBuilder::new("t");
        b.add_column("kind", DataType::Str)
            .add_column("size", DataType::Int);
        for i in 0..64i64 {
            let kind = if i % 2 == 0 { "even" } else { "odd" };
            b.push_row(vec![Value::str(kind), Value::Int(i)]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn equivalent_contexts_share_one_run() {
        let t = table();
        let advisor = Advisor::new(&t);
        let cache = AdviceCache::with_shards(4);
        let schema = Backend::schema(&t);
        let q1 = parse_query("(kind: , size: )", schema).unwrap();
        let q2 = parse_query("(size: ,   kind: )", schema).unwrap();
        let a1 = cache.advise_cached(&advisor, q1).unwrap();
        let a2 = cache.advise_cached(&advisor, q2).unwrap();
        // Same Arc: the second call reused the settled entry.
        assert!(Arc::ptr_eq(&a1, &a2));
        let stats = cache.stats();
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cached_equals_direct_advise_on_canonical_context() {
        let t = table();
        let advisor = Advisor::new(&t);
        let cache = AdviceCache::new();
        let schema = Backend::schema(&t);
        let q = parse_query("(size: , kind: )", schema).unwrap();
        let cached = cache.advise_cached(&advisor, q.clone()).unwrap();
        let direct = advisor.advise(q.canonicalized()).unwrap();
        assert_eq!(cached.context, direct.context);
        assert_eq!(cached.context_size, direct.context_size);
        assert_eq!(cached.ranked.len(), direct.ranked.len());
        for (c, d) in cached.ranked.iter().zip(&direct.ranked) {
            assert_eq!(c.segmentation, d.segmentation);
            assert_eq!(c.score, d.score);
        }
    }

    #[test]
    fn redundant_conjunct_spellings_share_one_entry() {
        let t = table();
        let advisor = Advisor::new(&t);
        let cache = AdviceCache::with_shards(4);
        let schema = Backend::schema(&t);
        // Three spellings of (size: [10,40], kind: ) — analysis merges
        // the duplicated attribute before the cache keys the context.
        let spellings = [
            "(size: [10,40], kind: )",
            "(size: [0,40], size: [10,99], kind: )",
            "(kind: , size: [10,50], size: [0,40])",
        ];
        let advices: Vec<_> = spellings
            .iter()
            .map(|s| {
                cache
                    .advise_cached(&advisor, parse_query(s, schema).unwrap())
                    .unwrap()
            })
            .collect();
        assert!(Arc::ptr_eq(&advices[0], &advices[1]));
        assert!(Arc::ptr_eq(&advices[0], &advices[2]));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().runs, 1, "one run for all spellings");
    }

    #[test]
    fn both_spellings_of_a_signed_zero_set_share_one_entry() {
        let mut b = TableBuilder::new("w");
        b.add_column("w", DataType::Float)
            .add_column("size", DataType::Int);
        for i in 0..16i64 {
            let w = [-0.0, 0.0, 0.5, -0.5][i as usize % 4];
            b.push_row(vec![Value::Float(w), Value::Int(i)]).unwrap();
        }
        let t = b.finish();
        let advisor = Advisor::new(&t);
        let cache = AdviceCache::with_shards(4);
        let schema = Backend::schema(&t);
        let q = |s: &str| parse_query(s, schema).unwrap();
        let a1 = cache
            .advise_cached(&advisor, q("(w: {0.0, -0.0}, size: )"))
            .unwrap();
        let a2 = cache
            .advise_cached(&advisor, q("(w: {-0.0, 0.0}, size: )"))
            .unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(cache.stats().runs, 1);
        // The set keeps both zeros, so it selects both zeros' rows.
        assert_eq!(a1.context_size, 8);
        // Each zero alone is a context of its own.
        let minus = cache
            .advise_cached(&advisor, q("(w: {-0.0}, size: )"))
            .unwrap();
        assert_eq!(minus.context_size, 4);
        assert_eq!(cache.stats().runs, 2);
    }

    #[test]
    fn an_integral_float_from_1e15_keys_apart_from_its_int() {
        // `Value::render` prints `Float(1e15)` like `Int(10¹⁵)`, so the
        // two shared a rendered key; the structural key tells the literal
        // types apart. (The parser types every literal by its column, so
        // only a hand-built query can hold such a pair.)
        let t = table();
        let advisor = Advisor::new(&t);
        let cache = AdviceCache::with_shards(2);
        let context = |v: Value| {
            Query::new(vec![
                Predicate::any("kind"),
                Predicate::new("size", Constraint::range(Value::Int(0), v).unwrap()),
            ])
            .unwrap()
        };
        let (int, float) = (
            context(Value::Int(1_000_000_000_000_000)),
            context(Value::Float(1e15)),
        );
        assert_eq!(int.to_string(), float.to_string());
        let a1 = cache.advise_cached(&advisor, int).unwrap();
        let a2 = cache.advise_cached(&advisor, float).unwrap();
        assert!(!Arc::ptr_eq(&a1, &a2));
        assert_eq!((cache.len(), cache.stats().runs), (2, 2));
        // The same answer, computed twice.
        let ranked = |a: &Advice| -> Vec<String> {
            a.ranked
                .iter()
                .map(|r| r.segmentation.to_string())
                .collect()
        };
        assert_eq!(ranked(&a1), ranked(&a2));
    }

    #[test]
    fn an_ill_typed_literal_that_renders_like_a_number_keys_apart() {
        // With analysis off nothing rejects the quoted string '-3' on an
        // `Int` column, and it renders bare, like the number -3: the
        // rendered key shared one entry between the two, so whichever
        // came first decided the other's answer. The structural key
        // tells `Str` from `Int`.
        let mut b = TableBuilder::new("t");
        b.add_column("kind", DataType::Str)
            .add_column("size", DataType::Int);
        for i in -8..8i64 {
            b.push_row(vec![
                Value::str(["a", "b"][i.rem_euclid(2) as usize]),
                Value::Int(i),
            ])
            .unwrap();
        }
        let t = b.finish();
        let advisor = Advisor::with_config(&t, crate::Config::default().with_analysis(false));
        let cache = AdviceCache::with_shards(2);
        let schema = Backend::schema(&t);
        let quoted = parse_query("(size: {'-3'}, kind: )", schema).unwrap();
        let number = parse_query("(size: {-3}, kind: )", schema).unwrap();
        assert_eq!(quoted.to_string(), number.to_string());
        assert!(cache.advise_cached(&advisor, quoted).is_err());
        let advice = cache.advise_cached(&advisor, number).unwrap();
        assert_eq!(advice.context_size, 1);
        assert_eq!(cache.stats().runs, 2);
    }

    #[test]
    fn admission_failures_are_not_cached() {
        let t = table();
        let advisor = Advisor::new(&t);
        let cache = AdviceCache::new();
        let schema = Backend::schema(&t);
        let unsat = parse_query("(size: [0,10], size: [20,30])", schema).unwrap();
        let e1 = cache.advise_cached(&advisor, unsat.clone()).unwrap_err();
        let e2 = cache.advise_cached(&advisor, unsat).unwrap_err();
        assert_eq!(e1, CoreError::UnsatisfiableContext);
        assert_eq!(e1, e2);
        assert!(cache.is_empty(), "pruned contexts take no cache slot");
        assert_eq!(cache.stats().runs, 0, "and never reach the advisor");
    }

    #[test]
    fn distinct_contexts_get_distinct_entries() {
        let t = table();
        let advisor = Advisor::new(&t);
        let cache = AdviceCache::with_shards(3);
        let schema = Backend::schema(&t);
        let q1 = parse_query("(kind: , size: )", schema).unwrap();
        let q2 = parse_query("(kind: {even}, size: )", schema).unwrap();
        cache.advise_cached(&advisor, q1).unwrap();
        cache.advise_cached(&advisor, q2).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().runs, 2);
    }

    #[test]
    fn errors_are_cached_and_cloned_out() {
        let t = table();
        let advisor = Advisor::new(&t);
        let cache = AdviceCache::new();
        // Selects nothing: EmptyContext, deterministically.
        let q = parse_query("(kind: {neither}, size: )", Backend::schema(&t)).unwrap();
        let e1 = cache.advise_cached(&advisor, q.clone()).unwrap_err();
        let e2 = cache.advise_cached(&advisor, q).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(cache.stats().runs, 1, "the failing run must not repeat");
    }

    #[test]
    fn bounded_cache_evicts_lru_and_stays_within_capacity() {
        let t = table();
        let advisor = Advisor::new(&t);
        // One shard so the LRU order is fully observable.
        let cache = AdviceCache::bounded(1, 2);
        assert_eq!(cache.capacity(), Some(2));
        let schema = Backend::schema(&t);
        let q = |s: &str| parse_query(s, schema).unwrap();
        cache.advise_cached(&advisor, q("(kind: )")).unwrap();
        cache.advise_cached(&advisor, q("(size: )")).unwrap();
        // Touch the first key so the second becomes the LRU victim.
        cache.advise_cached(&advisor, q("(kind: )")).unwrap();
        cache
            .advise_cached(&advisor, q("(kind: , size: )"))
            .unwrap();
        assert_eq!(cache.len(), 2, "capacity bound enforced");
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        // The touched key survived: re-requesting it is a hit...
        let runs_before = cache.stats().runs;
        cache.advise_cached(&advisor, q("(kind: )")).unwrap();
        assert_eq!(cache.stats().runs, runs_before);
        // ...while the evicted key is recomputed (runs grows again).
        cache.advise_cached(&advisor, q("(size: )")).unwrap();
        assert_eq!(cache.stats().runs, runs_before + 1);
    }

    #[test]
    fn long_running_use_does_not_grow_without_bound() {
        let t = table();
        let advisor = Advisor::new(&t);
        let cache = AdviceCache::bounded(4, 8);
        let schema = Backend::schema(&t);
        // Many distinct contexts — far more than the capacity.
        for lo in 0..40i64 {
            let q = parse_query(&format!("(size: [{lo},{}], kind: )", lo + 3), schema).unwrap();
            cache.advise_cached(&advisor, q).unwrap();
        }
        assert!(
            cache.len() <= 8,
            "bounded cache grew to {} entries",
            cache.len()
        );
        let stats = cache.stats();
        assert!(stats.evictions >= 32, "evictions: {}", stats.evictions);
        assert_eq!(stats.runs, 40, "every distinct context ran once");
    }

    #[test]
    fn small_capacities_are_not_inflated_by_sharding() {
        // Requesting capacity 4 over 16 shards must not admit 16
        // entries: the shard count clamps to the capacity.
        let cache = AdviceCache::bounded(16, 4);
        assert_eq!(cache.capacity(), Some(4));
        assert_eq!(cache.shards.len(), 4);
        let t = table();
        let advisor = Advisor::new(&t);
        let schema = Backend::schema(&t);
        for lo in 0..12i64 {
            let q = parse_query(&format!("(size: [{lo},{}], kind: )", lo + 2), schema).unwrap();
            cache.advise_cached(&advisor, q).unwrap();
        }
        assert!(cache.len() <= 4, "grew to {}", cache.len());
        // Default server shape stays exact: 1024 over 16 shards.
        assert_eq!(AdviceCache::bounded(16, 1024).capacity(), Some(1024));
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let t = table();
        let advisor = Advisor::new(&t);
        let cache = AdviceCache::with_shards(2);
        assert_eq!(cache.capacity(), None);
        let schema = Backend::schema(&t);
        for lo in 0..20i64 {
            let q = parse_query(&format!("(size: [{lo},{}], kind: )", lo + 3), schema).unwrap();
            cache.advise_cached(&advisor, q).unwrap();
        }
        assert_eq!(cache.len(), 20);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn bounded_single_flight_still_runs_once_per_resident_key() {
        let t = table();
        let cache = Arc::new(AdviceCache::bounded(4, 16));
        let threads = 8;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cache = Arc::clone(&cache);
                let t = &t;
                scope.spawn(move || {
                    let advisor = Advisor::new(t);
                    let q = parse_query("(kind: , size: )", Backend::schema(t)).unwrap();
                    cache.advise_cached(&advisor, q).unwrap()
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.runs, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn concurrent_identical_contexts_run_once() {
        let t = table();
        let cache = Arc::new(AdviceCache::with_shards(7));
        let threads = 8;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let cache = Arc::clone(&cache);
                let t = &t;
                scope.spawn(move || {
                    let advisor = Advisor::new(t);
                    let q = parse_query("(kind: , size: )", Backend::schema(t)).unwrap();
                    cache.advise_cached(&advisor, q).unwrap()
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.runs, 1,
            "single-flight: one run for {threads} callers"
        );
        assert_eq!(stats.hits + stats.misses, threads);
        assert_eq!(cache.len(), 1);
    }
}

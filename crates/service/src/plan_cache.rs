//! Sharded LRU cache of compiled query plans.
//!
//! Compilation (parse → normalize → typecheck → optimize) dominates the
//! cost of short queries, and a service sees the same query texts over
//! and over — the paper's production deployment made prepared plans a
//! first-class citizen for exactly this reason. The cache is keyed by
//! `(query text, engine-options fingerprint)`
//! ([`xqr_core::Engine::fingerprint`]): a plan is only reused under
//! options that would have compiled it identically.
//!
//! Sharding: the key hash picks one of N independently locked shards, so
//! concurrent lookups from a worker pool contend only 1/N of the time.
//! Each shard is a small `HashMap` with last-used ticks; eviction scans
//! the shard for the oldest tick, which is O(shard size) but shards are
//! bounded at `capacity / shards` entries — tens, not thousands.
//! Compilation happens *outside* the shard lock: two threads racing on
//! the same missing key may both compile, but neither ever blocks the
//! shard on a slow compile.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use xqr_core::{Engine, PreparedQuery};
use xqr_parallel::lock_recover;
use xqr_pressure::{Category, MemoryLedger};
use xqr_xdm::Result;

/// Coarse per-plan overhead estimate: the compiled operator tree plus
/// map/entry bookkeeping. Plans don't expose exact sizes; the ledger
/// needs a stable order-of-magnitude signal, not an audit.
const PLAN_OVERHEAD_BYTES: u64 = 1024;

/// Cache counters, snapshotted via [`PlanCache::stats`].
///
/// `lookups` is counted independently of `hits`/`misses` so the
/// invariant `hits + misses == lookups` is a real consistency check,
/// not an identity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub lookups: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Live entries across all shards.
    pub entries: u64,
}

impl PlanCacheStats {
    /// Fraction of lookups served from cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

struct Entry {
    plan: Arc<PreparedQuery>,
    last_used: u64,
    /// Estimated footprint charged to the ledger; released on removal.
    bytes: u64,
}

type Key = (Arc<str>, u64);

struct Shard {
    map: HashMap<Key, Entry>,
}

impl Shard {
    /// Remove the least-recently-used entry (the shard must hold one);
    /// returns the bytes it was charged.
    fn evict_oldest(&mut self) -> u64 {
        let oldest = self.map.iter().min_by_key(|(_, e)| e.last_used);
        let oldest = oldest.map(|(key, _)| key.clone());
        let oldest = oldest.expect("evicting from a non-empty shard");
        self.map.remove(&oldest).map_or(0, |victim| victim.bytes)
    }
}

/// A sharded, capacity-bounded LRU cache of compiled plans.
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Max entries per shard (total capacity / shard count, at least 1).
    shard_capacity: usize,
    /// Logical clock for LRU ordering, shared by all shards.
    tick: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Every live entry's estimated bytes are charged here under
    /// [`Category::PlanCache`], from insert to eviction (or drop).
    ledger: Arc<MemoryLedger>,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans across `shards` shards
    /// (both clamped to at least 1), charging its entries to `ledger`.
    pub fn new(capacity: usize, shards: usize, ledger: Arc<MemoryLedger>) -> Self {
        let shards = shards.max(1);
        let shard_capacity = capacity.max(1).div_ceil(shards);
        PlanCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                    })
                })
                .collect(),
            shard_capacity,
            tick: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            ledger,
        }
    }

    fn shard_of(&self, key: &Key) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up the plan for `(query, fingerprint)`, compiling with
    /// `engine` on a miss. Compilation errors are *not* cached — a
    /// mistyped query costs a compile each time, which keeps the cache
    /// free of dead entries.
    pub fn get_or_compile(&self, engine: &Engine, query: &str) -> Result<Arc<PreparedQuery>> {
        let key: Key = (Arc::from(query), engine.fingerprint());
        self.lookups.fetch_add(1, Ordering::Relaxed);
        {
            let mut shard = lock_recover(self.shard_of(&key));
            if let Some(entry) = shard.map.get_mut(&key) {
                entry.last_used = self.next_tick();
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(entry.plan.clone());
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Compile outside the lock; a concurrent racer on the same key
        // may also compile, and whichever inserts last wins. Both get a
        // correct plan either way.
        let plan = engine.compile_shared(query)?;
        // The insert is where a real cache subsystem would touch shared
        // storage; an injected fault here fails the lookup, and the
        // service degrades to compiling without caching.
        xqr_faults::faultpoint!("plans.insert");
        let bytes = query.len() as u64 + PLAN_OVERHEAD_BYTES;
        let mut freed = 0u64;
        let mut shard = lock_recover(self.shard_of(&key));
        while shard.map.len() >= self.shard_capacity && !shard.map.contains_key(&key) {
            freed += shard.evict_oldest();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let tick = self.next_tick();
        let replaced = shard.map.insert(
            key,
            Entry {
                plan: plan.clone(),
                last_used: tick,
                bytes,
            },
        );
        drop(shard);
        freed += replaced.map_or(0, |e| e.bytes);
        self.ledger.charge(Category::PlanCache, bytes);
        self.ledger.release(Category::PlanCache, freed);
        Ok(plan)
    }

    /// Evict least-recently-used plans until at most `max_entries`
    /// remain — the brownout ladder's plan-shedding rung. The configured
    /// capacity is untouched, so the cache regrows once pressure clears.
    /// Returns the number of plans shed.
    pub fn shrink_to(&self, max_entries: usize) -> u64 {
        let per_shard = max_entries.div_ceil(self.shards.len());
        let mut shed = 0u64;
        let mut freed = 0u64;
        for shard in &self.shards {
            let mut shard = lock_recover(shard);
            while shard.map.len() > per_shard {
                freed += shard.evict_oldest();
                shed += 1;
            }
        }
        self.evictions.fetch_add(shed, Ordering::Relaxed);
        self.ledger.release(Category::PlanCache, freed);
        shed
    }

    /// Drop every cached plan (counters are preserved).
    pub fn clear(&self) {
        let mut freed = 0u64;
        for shard in &self.shards {
            let mut shard = lock_recover(shard);
            freed += shard.map.values().map(|e| e.bytes).sum::<u64>();
            shard.map.clear();
        }
        self.ledger.release(Category::PlanCache, freed);
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

/// The ledger outlives the cache (the service hands clones out), so a
/// dropped cache gives its bytes back.
impl Drop for PlanCache {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize, shards: usize) -> PlanCache {
        PlanCache::new(capacity, shards, Arc::new(MemoryLedger::unbounded()))
    }

    /// What the live entries were charged, summed shard by shard.
    fn live_bytes(cache: &PlanCache) -> u64 {
        let per_shard =
            |s: &Mutex<Shard>| lock_recover(s).map.values().map(|e| e.bytes).sum::<u64>();
        cache.shards.iter().map(per_shard).sum()
    }

    fn charged(ledger: &MemoryLedger) -> u64 {
        ledger.snapshot().category(Category::PlanCache).current
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let engine = Engine::new();
        let cache = cache(64, 4);
        for _ in 0..10 {
            cache.get_or_compile(&engine, "1 + 1").unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.lookups, 10);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 9);
        assert_eq!(s.hits + s.misses, s.lookups);
        assert!(s.hit_rate() > 0.8);
    }

    #[test]
    fn distinct_queries_are_distinct_entries() {
        let engine = Engine::new();
        let cache = cache(64, 4);
        cache.get_or_compile(&engine, "1").unwrap();
        cache.get_or_compile(&engine, "2").unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn different_options_miss_on_the_same_text() {
        use xqr_core::EngineOptions;
        let a = Engine::new();
        let b = Engine::with_options(EngineOptions::unoptimized());
        assert_ne!(a.fingerprint(), b.fingerprint());
        let cache = cache(64, 4);
        cache.get_or_compile(&a, "//x").unwrap();
        cache.get_or_compile(&b, "//x").unwrap();
        assert_eq!(
            cache.stats().misses,
            2,
            "same text, different options: no reuse"
        );
    }

    #[test]
    fn capacity_bound_evicts_lru() {
        let engine = Engine::new();
        // One shard so the LRU order is total.
        let cache = cache(2, 1);
        cache.get_or_compile(&engine, "1").unwrap();
        cache.get_or_compile(&engine, "2").unwrap();
        cache.get_or_compile(&engine, "1").unwrap(); // refresh "1"
        cache.get_or_compile(&engine, "3").unwrap(); // evicts "2"
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        let before = cache.stats().hits;
        cache.get_or_compile(&engine, "1").unwrap();
        assert_eq!(cache.stats().hits, before + 1, "\"1\" survived eviction");
        cache.get_or_compile(&engine, "2").unwrap();
        assert_eq!(cache.stats().misses, 4, "\"2\" was the LRU victim");
    }

    #[test]
    fn ledger_tracks_inserts_evictions_and_shrink() {
        let engine = Engine::new();
        let ledger = Arc::new(MemoryLedger::unbounded());
        let cache = PlanCache::new(8, 2, Arc::clone(&ledger));

        for i in 0..8 {
            cache
                .get_or_compile(&engine, &format!("{i} + {i}"))
                .unwrap();
        }
        // Shard skew may evict during the fill; the live charge matches
        // whatever actually stayed resident.
        let live = cache.len() as u64;
        let full = charged(&ledger);
        assert_eq!(full, live_bytes(&cache));
        assert!(full >= live * PLAN_OVERHEAD_BYTES, "{full} for {live}");

        let shed = cache.shrink_to(2);
        assert!(shed >= live - 2, "shed {shed} of {live}");
        assert!(cache.len() <= 2);
        assert_eq!(charged(&ledger), live_bytes(&cache));
        assert!(charged(&ledger) < full, "shrink released bytes");
        assert!(cache.stats().evictions >= shed);

        cache.clear();
        assert_eq!(charged(&ledger), 0, "clear releases everything");
        // The cache regrows after a shrink — capacity was untouched.
        cache.get_or_compile(&engine, "1 + 1").unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(charged(&ledger), live_bytes(&cache));
        assert!(charged(&ledger) > 0);
        drop(cache);
        assert_eq!(charged(&ledger), 0, "a dropped cache gives its bytes back");
    }

    #[test]
    fn eviction_churn_keeps_ledger_balanced() {
        let engine = Engine::new();
        let ledger = Arc::new(MemoryLedger::unbounded());
        let cache = PlanCache::new(2, 1, Arc::clone(&ledger));
        for i in 0..20 {
            cache
                .get_or_compile(&engine, &format!("{} + 1", i % 7))
                .unwrap();
        }
        // Live charge equals the sum over live entries, not the churn.
        let live = charged(&ledger);
        assert_eq!(live, live_bytes(&cache));
        assert!(
            live <= 2 * (PLAN_OVERHEAD_BYTES + 16),
            "charge bounded by capacity: {live}"
        );
        cache.clear();
        assert_eq!(ledger.total(), 0);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let engine = Engine::new();
        let cache = cache(8, 1);
        assert!(cache.get_or_compile(&engine, "1 +").is_err());
        assert!(cache.get_or_compile(&engine, "1 +").is_err());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.stats().misses, 2);
    }

    /// `hits + misses == lookups` must survive heavy eviction churn: a
    /// tiny cache, many more distinct queries than capacity, and
    /// concurrent threads racing compiles and evictions.
    #[test]
    fn stats_invariant_holds_under_eviction_pressure() {
        let engine = std::sync::Arc::new(Engine::new());
        let cache = std::sync::Arc::new(cache(4, 2));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let engine = engine.clone();
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        // 32 distinct queries over capacity 4: almost
                        // every miss evicts something.
                        let q = format!("{} + {}", t % 4, i % 8);
                        cache.get_or_compile(&engine, &q).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.lookups, 800);
        assert_eq!(s.hits + s.misses, s.lookups);
        assert!(s.evictions > 0, "no eviction pressure: {s:?}");
        // Capacity is per shard: at most ceil(4 / 2) entries per shard.
        assert!(cache.len() <= 4, "over capacity: {}", cache.len());
        assert_eq!(s.entries, cache.len() as u64);
        // Evictions never exceed insertions (= misses that compiled).
        assert!(s.evictions <= s.misses, "{s:?}");
    }

    /// A worker that panics while holding a shard lock (injected faults
    /// do exactly this) must not turn the whole cache read-only: every
    /// later caller recovers the lock instead of propagating the panic.
    #[test]
    fn a_poisoned_shard_does_not_take_down_the_cache() {
        let engine = Engine::new();
        let cache = cache(64, 4);
        cache.get_or_compile(&engine, "1 + 1").unwrap();
        let before = xqr_parallel::lock_recoveries();
        // Poison every shard: whichever one "1 + 1" hashes into is
        // certainly covered.
        for shard in &cache.shards {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = shard.lock().unwrap();
                panic!("poison the shard");
            }));
            assert!(shard.is_poisoned());
        }
        // Reads, writes and stats all still work...
        cache.get_or_compile(&engine, "1 + 1").unwrap();
        cache.get_or_compile(&engine, "2 + 2").unwrap();
        let s = cache.stats();
        assert_eq!(s.hits + s.misses, s.lookups, "{s:?}");
        assert_eq!(s.entries, 2);
        // ...and the recoveries were counted for the operator.
        assert!(xqr_parallel::lock_recoveries() >= before + 4);
    }

    #[test]
    fn concurrent_lookups_are_consistent() {
        let engine = std::sync::Arc::new(Engine::new());
        let cache = std::sync::Arc::new(cache(16, 4));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let engine = engine.clone();
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let q = format!("{} + {}", t % 3, i % 5);
                        cache.get_or_compile(&engine, &q).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.lookups, 400);
        assert_eq!(s.hits + s.misses, s.lookups);
    }
}

//! Workspace-wide cache of [`RegridPlan`]s: a [`cdms::lru::Lru`] keyed by
//! the `(source grid, target grid, method)` fingerprint from
//! [`crate::regrid_plan::plan_key`], one unit of weight per plan, with
//! hit/miss/dedup/eviction counters so benches and diagnostics can verify
//! reuse. The `regrid::{bilinear, conservative}` wrappers route through
//! the process-global instance, so every animation frame, spreadsheet cell
//! or hyperwall panel that repeats a grid pair pays the planning cost once.
//!
//! [`SharedPlanCache`] is safe to hit from many threads at once (the
//! multi-tenant session service does). The LRU lock is **never held while
//! a plan builds** (builds for different keys proceed in parallel), and
//! concurrent requests for the *same* key are deduplicated: one thread
//! builds, the rest wait on that build and are counted in
//! [`CacheStats::dedups`]. Keys are content-addressed grid fingerprints,
//! so "same key" means "same work" across sessions.
//!
//! On the dv3dlint `indexing_hot_paths` list: lookups run inside the
//! interactive render loop and must not panic.

use crate::regrid_plan::RegridPlan;
use cdms::lru::Lru;
use cdms::Result;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};

/// Default capacity of the process-global cache: a hyperwall's worth of
/// distinct grid pairs, small enough that eviction scans stay trivial.
pub const DEFAULT_GLOBAL_CAPACITY: usize = 32;

/// Cumulative cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Plans dropped to respect the capacity bound.
    pub evictions: u64,
    /// Lookups that piggybacked on another thread's in-flight build of the
    /// same key instead of building their own copy.
    pub dedups: u64,
}

/// Locks a std mutex, recovering the guard from a poisoned lock (the
/// protected state is plain bookkeeping; a panicked peer cannot corrupt it
/// beyond what the usual counters tolerate).
fn std_lock<T>(m: &StdMutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One in-flight plan build that other threads can wait on.
#[derive(Debug, Default)]
struct BuildSlot {
    done: StdMutex<bool>,
    cv: Condvar,
}

impl BuildSlot {
    fn wait(&self) {
        let mut done = std_lock(&self.done);
        while !*done {
            done = self
                .cv
                .wait(done)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn finish(&self) {
        *std_lock(&self.done) = true;
        self.cv.notify_all();
    }
}

/// A bounded LRU of regrid plans, safe to hit from many session threads
/// at once.
///
/// Invariants the contention tests pin down:
///
/// * the LRU lock is held only for map bookkeeping, never across a plan
///   build — distinct keys build in parallel;
/// * concurrent lookups of the same missing key run **one** build and
///   count **one** miss; the other threads block on that build and count
///   as [`CacheStats::dedups`] (their served lookups also count as hits);
/// * a failed build poisons nothing: waiters retry, and the next claimant
///   rebuilds;
/// * capacity stays bounded under any interleaving (eviction is the
///   ordinary LRU path, counted in [`CacheStats::evictions`]).
#[derive(Debug)]
pub struct SharedPlanCache {
    cache: Mutex<Lru<u64, Arc<RegridPlan>>>,
    inflight: StdMutex<HashMap<u64, Arc<BuildSlot>>>,
    dedups: AtomicU64,
}

impl SharedPlanCache {
    /// A shared cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> SharedPlanCache {
        SharedPlanCache {
            cache: Mutex::new(Lru::new(capacity.max(1))),
            inflight: StdMutex::new(HashMap::new()),
            dedups: AtomicU64::new(0),
        }
    }

    /// Cumulative counters.
    pub fn stats(&self) -> CacheStats {
        let s = self.cache.lock().stats();
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            dedups: self.dedups.load(Ordering::Relaxed),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.cache.lock().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.cache.lock().is_empty()
    }

    /// Drops every cached plan (counters are kept).
    pub fn clear(&self) {
        self.cache.lock().clear();
    }

    /// The cached plan for `key`, bumping recency (counts a hit or miss).
    pub fn get(&self, key: u64) -> Option<Arc<RegridPlan>> {
        self.cache.lock().get(&key)
    }

    /// The plan for `key`, building it on a miss without serializing
    /// unrelated builds, and deduplicating concurrent builds of the same
    /// key. A failed build caches nothing and surfaces the error to the
    /// thread that ran it; waiting threads retry (and rebuild if needed).
    pub fn get_or_build(
        &self,
        key: u64,
        mut build: impl FnMut() -> Result<RegridPlan>,
    ) -> Result<Arc<RegridPlan>> {
        let mut waited = false;
        loop {
            // Look up under the in-flight lock. A builder inserts its plan
            // before it drops its slot, so "no slot" plus a miss means the
            // key is unbuilt: claim it. A thread never misses while a build
            // of its key is in flight, so one build counts one miss.
            let (slot, is_builder) = {
                let mut inflight = std_lock(&self.inflight);
                match inflight.get(&key) {
                    Some(s) => (Arc::clone(s), false),
                    None => {
                        if let Some(plan) = self.cache.lock().get(&key) {
                            if waited {
                                self.dedups.fetch_add(1, Ordering::Relaxed);
                            }
                            return Ok(plan);
                        }
                        let s = Arc::new(BuildSlot::default());
                        inflight.insert(key, Arc::clone(&s));
                        (s, true)
                    }
                }
            };
            if !is_builder {
                slot.wait();
                waited = true;
                continue;
            }
            // build WITHOUT holding either lock: other keys proceed freely
            let out = build().map(|plan| {
                let plan = Arc::new(plan);
                self.cache.lock().insert(key, Arc::clone(&plan), 1);
                plan
            });
            std_lock(&self.inflight).remove(&key);
            slot.finish();
            return out;
        }
    }
}

static GLOBAL: OnceLock<SharedPlanCache> = OnceLock::new();

/// The process-global shared plan cache: the concurrent front every
/// session of the multi-tenant service (and the `regrid` wrappers) hits.
pub fn shared_global() -> &'static SharedPlanCache {
    GLOBAL.get_or_init(|| SharedPlanCache::new(DEFAULT_GLOBAL_CAPACITY))
}

/// Counters of the global cache.
pub fn global_stats() -> CacheStats {
    shared_global().stats()
}

/// Empties the global cache (counters are kept).
pub fn clear_global() {
    shared_global().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdms::RectGrid;

    fn plan_for(n: usize) -> RegridPlan {
        let src = RectGrid::uniform(n, 2 * n).unwrap();
        let dst = RectGrid::uniform(n + 1, 2 * n + 1).unwrap();
        RegridPlan::bilinear(&src.lat, &src.lon, &dst).unwrap()
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let c = SharedPlanCache::new(2);
        c.get_or_build(1, || Ok(plan_for(2))).unwrap();
        c.get_or_build(2, || Ok(plan_for(3))).unwrap();
        assert!(c.get(1).is_some()); // 1 is now more recent than 2
        c.get_or_build(3, || Ok(plan_for(4))).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none(), "LRU entry 2 should have been evicted");
        assert!(c.get(1).is_some());
        assert!(c.get(3).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 3);
        // three builds plus the lookup of the evicted entry
        assert_eq!(s.misses, 4);
    }

    #[test]
    fn get_or_build_builds_once() {
        let c = SharedPlanCache::new(4);
        let mut builds = 0;
        for _ in 0..3 {
            let p = c
                .get_or_build(7, || {
                    builds += 1;
                    Ok(plan_for(2))
                })
                .unwrap();
            assert_eq!(p.dst_shape(), (3, 5));
        }
        assert_eq!(builds, 1);
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn failed_builds_cache_nothing() {
        let c = SharedPlanCache::new(4);
        let r = c.get_or_build(9, || Err(cdms::CdmsError::Invalid("nope".into())));
        assert!(r.is_err());
        assert!(c.is_empty());
        // a later successful build still works
        assert!(c.get_or_build(9, || Ok(plan_for(2))).is_ok());
        assert_eq!(c.len(), 1);
    }
}

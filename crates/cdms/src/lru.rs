//! The workspace's one bounded cache: a weight-budgeted LRU.
//!
//! Every reuse path in the pipeline sits on it: the decoded-chunk cache of
//! [`crate::stream`] (weight = decoded bytes) and the regrid-plan cache in
//! `cdat::plan_cache` (weight = 1 per plan). It does bookkeeping only; the
//! caller owns the locking.
//!
//! * **Hard budget** — eviction runs *before* an insert, so the resident
//!   weight never exceeds the budget, not even transiently. A value
//!   heavier than the whole budget is not cached at all.
//! * **In-place replace** — inserting a resident key first takes the old
//!   entry's weight out, then evicts only for the net weight, so
//!   re-inserting a value evicts nothing it does not have to.
//! * **Deterministic eviction** — the victim is the entry with the
//!   smallest recency stamp. Stamps are unique (one tick per refresh), so
//!   the eviction order is a pure function of the call sequence.
//! * **Counted** — hits, misses, evictions, resident weight and its
//!   high-water mark, in [`LruStats`].
//!
//! On the dv3dlint `indexing_hot_paths` list: it runs under every played
//! frame and every regrid and must not panic.

use std::collections::BTreeMap;

/// Counters of an [`Lru`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to respect the budget.
    pub evictions: u64,
    /// Summed weight of the resident entries (≤ the budget).
    pub weight: usize,
    /// High-water mark of [`LruStats::weight`] (≤ the budget).
    pub peak_weight: usize,
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    weight: usize,
    stamp: u64,
}

/// A least-recently-used cache whose entries carry a weight, bounded by a
/// total weight budget.
#[derive(Debug)]
pub struct Lru<K, V> {
    budget: usize,
    tick: u64,
    map: BTreeMap<K, Entry<V>>,
    stats: LruStats,
}

impl<K: Ord + Clone, V: Clone> Lru<K, V> {
    /// An empty cache whose resident weight never exceeds `budget`.
    pub fn new(budget: usize) -> Lru<K, V> {
        Lru { budget, tick: 0, map: BTreeMap::new(), stats: LruStats::default() }
    }

    /// The value cached under `key`, refreshing its recency. Counts a hit
    /// or a miss.
    pub fn get(&mut self, key: &K) -> Option<V> {
        match self.map.get_mut(key) {
            Some(e) => {
                self.tick += 1;
                e.stamp = self.tick;
                self.stats.hits += 1;
                Some(e.value.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// True when `key` is resident. Touches neither the counters nor the
    /// recency order.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Caches `value` under `key` as the most recently used entry,
    /// evicting least-recently-used entries first so the resident weight
    /// stays within the budget. A resident `key` is replaced in place. A
    /// value heavier than the whole budget is not cached.
    pub fn insert(&mut self, key: K, value: V, weight: usize) {
        if let Some(old) = self.map.remove(&key) {
            self.stats.weight -= old.weight;
        }
        if weight > self.budget {
            return;
        }
        while self.stats.weight + weight > self.budget {
            let Some(victim) = self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(e) = self.map.remove(&victim) {
                self.stats.weight -= e.weight;
                self.stats.evictions += 1;
            }
        }
        self.tick += 1;
        self.map.insert(key, Entry { value, weight, stamp: self.tick });
        self.stats.weight += weight;
        self.stats.peak_weight = self.stats.peak_weight.max(self.stats.weight);
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every entry. The counters are kept; the resident weight
    /// returns to 0.
    pub fn clear(&mut self) {
        self.map.clear();
        self.stats.weight = 0;
    }

    /// The counters so far.
    pub fn stats(&self) -> LruStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reinserting_a_resident_key_evicts_nothing() {
        let mut c: Lru<u32, u32> = Lru::new(10);
        c.insert(1, 1, 4);
        c.insert(2, 2, 3);
        c.insert(3, 3, 3);
        assert_eq!(c.stats().weight, 10, "filled to the budget");
        c.insert(2, 2, 3);
        let s = c.stats();
        assert_eq!(s.evictions, 0, "room for a resident key is already made");
        assert_eq!(s.weight, 10);
        assert_eq!(c.len(), 3);
        // the re-insert refreshed key 2: the next eviction takes key 1
        c.insert(4, 4, 4);
        assert!(!c.contains(&1));
        assert!(c.contains(&2) && c.contains(&3) && c.contains(&4));
    }

    #[test]
    fn clear_keeps_counters_and_resets_weight() {
        let mut c: Lru<u32, u32> = Lru::new(5);
        c.insert(1, 1, 3);
        assert_eq!(c.get(&1), Some(1));
        c.clear();
        assert!(c.is_empty());
        let s = c.stats();
        assert_eq!((s.hits, s.weight, s.peak_weight), (1, 0, 3));
    }

    /// Reference model: entries in recency order, least recent first.
    #[derive(Default)]
    struct Model {
        order: Vec<(u8, usize)>,
        evictions: u64,
    }

    impl Model {
        fn weight(&self) -> usize {
            self.order.iter().map(|&(_, w)| w).sum()
        }

        fn get(&mut self, k: u8) -> bool {
            match self.order.iter().position(|&(key, _)| key == k) {
                Some(i) => {
                    let e = self.order.remove(i);
                    self.order.push(e);
                    true
                }
                None => false,
            }
        }

        fn insert(&mut self, k: u8, w: usize, budget: usize) {
            self.order.retain(|&(key, _)| key != k);
            if w > budget {
                return;
            }
            while self.weight() + w > budget {
                self.order.remove(0);
                self.evictions += 1;
            }
            self.order.push((k, w));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random weighted insert/get/contains sequences against the
        /// recency-list model: the resident set, and so every eviction
        /// victim, matches it exactly, the budget holds after every step,
        /// oversize values never land, and `contains` is invisible.
        #[test]
        fn lru_matches_the_recency_model(
            budget in 1usize..24,
            ops in proptest::collection::vec((0u8..3, 0u8..8, 0usize..12), 1..80),
        ) {
            let mut c: Lru<u8, u8> = Lru::new(budget);
            let mut m = Model::default();
            let (mut hits, mut misses) = (0u64, 0u64);
            for (op, k, w) in ops {
                match op {
                    0 => {
                        c.insert(k, k, w);
                        m.insert(k, w, budget);
                        if w > budget {
                            prop_assert!(!c.contains(&k), "oversize value resident");
                        }
                    }
                    1 => {
                        let hit = m.get(k);
                        prop_assert_eq!(c.get(&k), hit.then_some(k));
                        if hit { hits += 1 } else { misses += 1 }
                    }
                    _ => {
                        let before = c.stats();
                        let resident = c.contains(&k);
                        prop_assert_eq!(resident, m.order.iter().any(|&(key, _)| key == k));
                        prop_assert_eq!(c.stats(), before);
                    }
                }
                let s = c.stats();
                prop_assert!(s.weight <= budget && s.peak_weight <= budget);
                prop_assert_eq!(s.weight, m.weight());
                prop_assert_eq!((s.hits, s.misses, s.evictions), (hits, misses, m.evictions));
                prop_assert_eq!(c.len(), m.order.len());
                for key in 0u8..8 {
                    prop_assert_eq!(c.contains(&key), m.order.iter().any(|&(e, _)| e == key));
                }
            }
        }
    }
}

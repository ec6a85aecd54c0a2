//! Front-end download cache (the §3.1.4 implication: *"it would be
//! necessary to monitor the popularity of downloads … if a handful of
//! popular files dominate, web cache proxies can reduce server workload"*).
//!
//! A byte-capacity LRU over content digests. Fed with a Zipf-popular
//! download stream (the service's shared-URL usage) it quantifies how much
//! origin traffic a front-end cache absorbs.

use std::collections::HashMap;

use mcs_faults::ConfigError;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests served from cache.
    pub hits: u64,
    /// Requests that went to the origin.
    pub misses: u64,
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Bytes fetched from the origin.
    pub miss_bytes: u64,
    /// Objects evicted.
    pub evictions: u64,
}

impl CacheStats {
    /// Request hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Byte hit ratio (origin-offload).
    pub fn byte_hit_ratio(&self) -> f64 {
        let total = self.hit_bytes + self.miss_bytes;
        if total == 0 {
            0.0
        } else {
            self.hit_bytes as f64 / total as f64
        }
    }
}

/// Byte-capacity LRU cache keyed by `u64` content ids.
#[derive(Debug)]
pub struct LruCache {
    capacity_bytes: u64,
    used_bytes: u64,
    // id -> (bytes, recency stamp)
    entries: HashMap<u64, (u64, u64)>,
    clock: u64,
    /// Counters.
    pub stats: CacheStats,
}

impl LruCache {
    /// Creates a cache holding at most `capacity_bytes`. A zero-byte cache
    /// is a configuration error, not a panic.
    pub fn new(capacity_bytes: u64) -> Result<Self, ConfigError> {
        if capacity_bytes == 0 {
            return Err(ConfigError::OutOfRange {
                what: "cache capacity",
                requirement: "must be positive",
            });
        }
        Ok(Self {
            capacity_bytes,
            used_bytes: 0,
            entries: HashMap::new(),
            clock: 0,
            stats: CacheStats::default(),
        })
    }

    /// Requests object `id` of `bytes`; returns true on a cache hit.
    /// Misses fetch from the origin and insert (objects larger than the
    /// whole cache bypass it).
    pub fn request(&mut self, id: u64, bytes: u64) -> bool {
        self.clock += 1;
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.1 = self.clock;
            self.stats.hits += 1;
            self.stats.hit_bytes += bytes;
            return true;
        }
        self.stats.misses += 1;
        self.stats.miss_bytes += bytes;
        if bytes > self.capacity_bytes {
            return false; // too big to cache
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            self.evict_lru();
        }
        self.entries.insert(id, (bytes, self.clock));
        self.used_bytes += bytes;
        false
    }

    /// Evicts the least recently used entry. `request` evicts only while
    /// the cached bytes leave no room for an object that fits the cache,
    /// so some entry is always there to evict.
    fn evict_lru(&mut self) {
        let Some(victim) = self
            .entries
            .iter()
            .min_by_key(|(_, &(_, stamp))| stamp)
            .map(|(&id, _)| id)
        else {
            return;
        };
        let Some((bytes, _)) = self.entries.remove(&victim) else {
            return;
        };
        self.used_bytes -= bytes;
        self.stats.evictions += 1;
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Objects currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_stats::rng::{stream_rng, Rng, Zipf};

    #[test]
    fn zero_capacity_rejected_not_panicked() {
        assert!(LruCache::new(0).is_err());
    }

    #[test]
    fn hit_after_insert() {
        let mut c = LruCache::new(1000).unwrap();
        assert!(!c.request(1, 100));
        assert!(c.request(1, 100));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = LruCache::new(300).unwrap();
        c.request(1, 100);
        c.request(2, 100);
        c.request(3, 100);
        // Touch 1 so 2 becomes LRU.
        c.request(1, 100);
        c.request(4, 100); // evicts 2
        assert!(c.request(1, 100), "1 still cached");
        assert!(!c.request(2, 100), "2 evicted");
        assert!(c.stats.evictions >= 1);
    }

    #[test]
    fn oversized_objects_bypass() {
        let mut c = LruCache::new(100).unwrap();
        assert!(!c.request(1, 500));
        assert!(!c.request(1, 500), "still a miss — never cached");
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn capacity_respected() {
        let mut c = LruCache::new(1000).unwrap();
        for id in 0..50 {
            c.request(id, 90);
        }
        assert!(c.used_bytes() <= 1000);
        assert!(c.len() <= 11);
    }

    #[test]
    fn zipf_workload_gets_high_hit_ratio() {
        // 10k requests over 1000 objects, Zipf(1.0): a small cache captures
        // the popular head — the §3.1.4 locality implication.
        let mut rng = stream_rng(42, 0);
        let zipf = Zipf::new(1000, 1.0);
        let object_bytes = 150_000_000u64 / 100; // scaled-down 150 MB clips
        let mut c = LruCache::new(100 * object_bytes).unwrap(); // caches 10 % of objects
        for _ in 0..10_000 {
            let id = zipf.sample(&mut rng) as u64;
            c.request(id, object_bytes);
        }
        let ratio = c.stats.hit_ratio();
        assert!(ratio > 0.5, "hit ratio {ratio}");
        assert!(c.stats.byte_hit_ratio() > 0.5);
    }

    #[test]
    fn uniform_workload_gets_low_hit_ratio() {
        let mut rng = stream_rng(43, 0);
        let mut c = LruCache::new(100_000).unwrap();
        for i in 0..10_000u64 {
            let id = (rng.random::<u64>() % 10_000).wrapping_add(i / 10_000);
            c.request(id, 1000);
        }
        assert!(c.stats.hit_ratio() < 0.05, "{}", c.stats.hit_ratio());
    }
}

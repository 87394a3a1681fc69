//! The content-addressed plan cache: a bounded in-memory LRU.
//!
//! Entries are named by [`PlanKey::digest`](autocfd_codegen::PlanKey)
//! — canonicalized source × partition × distance × optimize ×
//! [`PLAN_SCHEMA_VERSION`](autocfd_codegen::PLAN_SCHEMA_VERSION) — so
//! equal requests share an entry and a schema bump can never serve an
//! old plan.

use std::collections::HashMap;

/// One cached compile result: everything needed to serve a warm
/// `Compile` without touching the frontend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The [`PlanKey`](autocfd_codegen::PlanKey) digest naming this entry.
    pub digest: String,
    /// The `SpmdPlan` in `codegen::plan_json` form.
    pub plan_json: String,
}

/// Cumulative cache counters, served by `Stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
}

/// Bounded LRU of [`CacheEntry`]s.
///
/// Not internally synchronized — the service wraps it in a `Mutex`.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    entries: HashMap<String, CacheEntry>,
    /// Digests from least- to most-recently used.
    order: Vec<String>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// An in-memory cache holding at most `capacity` entries.
    pub fn in_memory(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `digest`, promoting it to most-recently-used.
    pub fn get(&mut self, digest: &str) -> Option<CacheEntry> {
        match self.entries.get(digest) {
            Some(entry) => {
                self.hits += 1;
                let entry = entry.clone();
                self.touch(digest);
                Some(entry)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// [`get`](PlanCache::get) for the single-flight leader's re-check:
    /// a hit here is a real request-level hit (someone else filled the
    /// entry first), but a miss is the *same* miss the first lookup
    /// already counted, so only the hit counter moves.
    pub fn recheck(&mut self, digest: &str) -> Option<CacheEntry> {
        if self.entries.contains_key(digest) {
            self.get(digest)
        } else {
            None
        }
    }

    /// Insert (or refresh) an entry, evicting the least-recently-used
    /// entry once past capacity.
    pub fn insert(&mut self, entry: CacheEntry) {
        let digest = entry.digest.clone();
        self.entries.insert(digest.clone(), entry);
        self.touch(&digest);
        while self.entries.len() > self.capacity {
            let victim = self.order.remove(0);
            self.entries.remove(&victim);
            self.evictions += 1;
        }
    }

    fn touch(&mut self, digest: &str) {
        self.order.retain(|d| d != digest);
        self.order.push(digest.to_string());
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(digest: &str) -> CacheEntry {
        CacheEntry {
            digest: digest.to_string(),
            // in-memory inserts never parse the plan
            plan_json: "{}".into(),
        }
    }

    #[test]
    fn lru_evicts_oldest_and_get_promotes() {
        let mut c = PlanCache::in_memory(2);
        c.insert(entry("a"));
        c.insert(entry("b"));
        assert!(c.get("a").is_some()); // promotes a over b
        c.insert(entry("c")); // evicts b
        assert!(c.get("b").is_none());
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        let s = c.stats();
        assert_eq!(
            (s.hits, s.misses, s.evictions, c.entries.len()),
            (3, 1, 1, 2)
        );
    }

    #[test]
    fn reinserting_same_digest_does_not_grow_or_evict() {
        let mut c = PlanCache::in_memory(2);
        c.insert(entry("a"));
        c.insert(entry("a"));
        c.insert(entry("b"));
        assert_eq!(c.entries.len(), 2);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut c = PlanCache::in_memory(0);
        c.insert(entry("a"));
        assert!(c.get("a").is_some());
    }
}

//! Epoch-keyed result cache for read-only protocol queries.
//!
//! Entries are keyed on the *normalized query string* (every query
//! parameter except the output format) and stamped with the service's
//! **index epoch** at fill time. Every mutation — insert, remove,
//! sketch retune/rebuild — bumps the epoch, so a lookup only hits when
//! the stored stamp equals the current epoch: a hit is provably the
//! same reply a cold execution would produce right now (rendering is
//! deterministic, so the rendered bytes match too), and a stale entry
//! can never be served — it is dropped on sight instead.
//!
//! Eviction is LRU by insertion/touch order, bounded by entry count:
//! every entry carries the stamp of its last store or hit, and the entry
//! with the smallest stamp is the victim, so a hit allocates nothing and
//! the bookkeeping never outgrows `capacity`. The approximate resident
//! footprint (keys + rendered reply sizes) is published through
//! `ferret_cache_memory_bytes`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ferret_core::telemetry::MetricsRegistry;
use parking_lot::Mutex;

use crate::protocol::{render_response, Response};

struct Entry {
    epoch: u64,
    resp: Response,
    bytes: usize,
    /// `Inner::clock` at the last store or hit; the minimum is the LRU.
    touched: u64,
}

struct Inner {
    entries: HashMap<String, Entry>,
    /// Monotone touch counter; stamps are unique, so the LRU is too.
    clock: u64,
    bytes: usize,
}

impl Inner {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// A bounded, epoch-invalidated LRU cache of query responses.
///
/// Capacity 0 disables the cache entirely (lookups miss, stores are
/// dropped), which keeps the disabled path allocation-free.
pub struct ResultCache {
    inner: Mutex<Inner>,
    epoch: AtomicU64,
    capacity: usize,
    telemetry: Mutex<Option<Arc<MetricsRegistry>>>,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` responses.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                clock: 0,
                bytes: 0,
            }),
            epoch: AtomicU64::new(0),
            capacity,
            telemetry: Mutex::new(None),
        }
    }

    /// Wires a metrics registry in and eagerly registers the cache
    /// series so they appear (at zero) before any traffic.
    pub fn set_telemetry(&self, registry: Option<Arc<MetricsRegistry>>) {
        if let Some(registry) = &registry {
            registry.counter(
                "ferret_cache_hits_total",
                "Query replies served from the result cache.",
                &[],
            );
            registry.counter(
                "ferret_cache_misses_total",
                "Query-cache lookups that required a cold execution.",
                &[],
            );
            registry.counter(
                "ferret_cache_evictions_total",
                "Cache entries dropped (LRU capacity or stale epoch).",
                &[],
            );
            registry.gauge(
                "ferret_cache_memory_bytes",
                "Approximate resident bytes of cached keys and replies.",
                &[],
            );
        }
        *self.telemetry.lock() = registry;
    }

    /// The current index epoch.
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire pairs with the AcqRel bump; the inner mutex orders entry contents
        self.epoch.load(Ordering::Acquire)
    }

    /// Invalidates every cached reply by advancing the epoch. Called on
    /// any mutation of the underlying index; O(1) — stale entries are
    /// dropped lazily as lookups encounter them or LRU pushes them out.
    pub fn bump_epoch(&self) {
        // ordering: AcqRel; release publishes the invalidation to epoch() readers, and no other atomic participates so SeqCst buys nothing
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Whether the cache can ever store anything.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Looks `key` up; returns the cached response only if it was
    /// stored at the current epoch. A stale entry is removed (counted
    /// as an eviction) and reported as a miss.
    pub fn lookup(&self, key: &str) -> Option<Response> {
        if !self.enabled() {
            return None;
        }
        let mut inner = self.inner.lock();
        // The epoch must be read under the lock: reading it first races
        // with a concurrent bump+store, and the reader would then remove
        // the freshly stored entry as "stale" (its epoch is newer than
        // the one the reader loaded).
        let epoch = self.epoch();
        let mut evicted_stale = false;
        let now = inner.tick();
        let result = match inner.entries.get_mut(key) {
            Some(entry) if entry.epoch == epoch => {
                entry.touched = now;
                Some(entry.resp.clone())
            }
            Some(_) => {
                if let Some(entry) = inner.entries.remove(key) {
                    inner.bytes -= entry.bytes;
                    evicted_stale = true;
                }
                None
            }
            None => None,
        };
        let bytes = inner.bytes;
        // Counters are bumped only after the cache lock is released, so the
        // telemetry mutex never nests inside it (see LOCK_ORDER.txt).
        drop(inner);
        if evicted_stale {
            self.count("ferret_cache_evictions_total", 1);
        }
        match &result {
            Some(_) => self.count("ferret_cache_hits_total", 1),
            None => self.count("ferret_cache_misses_total", 1),
        }
        self.publish_bytes(bytes);
        result
    }

    /// Stores a response under `key`, stamped with the current epoch,
    /// evicting least-recently-used entries beyond capacity.
    pub fn store(&self, key: String, resp: Response) {
        if !self.enabled() {
            return;
        }
        let epoch = self.epoch();
        // Approximate footprint: the key plus the rendered reply size.
        let entry_bytes = key.len() + render_response(&resp).len();
        let mut inner = self.inner.lock();
        if let Some(old) = inner.entries.remove(&key) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += entry_bytes;
        let touched = inner.tick();
        inner.entries.insert(
            key,
            Entry {
                epoch,
                resp,
                bytes: entry_bytes,
                touched,
            },
        );
        let mut evicted = 0u64;
        while inner.entries.len() > self.capacity {
            // A linear minimum over at most `capacity + 1` entries.
            let Some(victim) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.touched)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(entry) = inner.entries.remove(&victim) {
                inner.bytes -= entry.bytes;
                evicted += 1;
            }
        }
        let bytes = inner.bytes;
        drop(inner);
        if evicted > 0 {
            self.count("ferret_cache_evictions_total", evicted);
        }
        self.publish_bytes(bytes);
    }

    /// Approximate resident bytes of cached keys and replies.
    pub fn memory_bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    fn count(&self, name: &'static str, n: u64) {
        if let Some(registry) = self.telemetry.lock().as_ref() {
            registry.inc_counter(name, "", &[], n);
        }
    }

    fn publish_bytes(&self, bytes: usize) {
        if let Some(registry) = self.telemetry.lock().as_ref() {
            registry
                .gauge(
                    "ferret_cache_memory_bytes",
                    "Approximate resident bytes of cached keys and replies.",
                    &[],
                )
                .set(bytes as i64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferret_core::object::ObjectId;

    fn resp(id: u64) -> Response {
        Response::Results(vec![(ObjectId(id), 0.5)])
    }

    #[test]
    fn hit_only_at_matching_epoch() {
        let cache = ResultCache::new(4);
        cache.store("q1".into(), resp(7));
        assert_eq!(cache.lookup("q1"), Some(resp(7)));
        cache.bump_epoch();
        assert_eq!(cache.lookup("q1"), None, "stale entry must not hit");
        // The stale entry was dropped, not just skipped.
        assert_eq!(cache.lookup("q1"), None);
    }

    #[test]
    fn lru_eviction_respects_touch_order() {
        let cache = ResultCache::new(2);
        cache.store("a".into(), resp(1));
        cache.store("b".into(), resp(2));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(cache.lookup("a").is_some());
        cache.store("c".into(), resp(3));
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("b").is_none());
        assert!(cache.lookup("c").is_some());
    }

    #[test]
    fn hits_leave_bookkeeping_bounded_and_lru_order_intact() {
        let cache = ResultCache::new(4);
        for key in ["a", "b", "c", "d"] {
            cache.store(key.into(), resp(1));
        }
        // Hit everything but "c" many times; the last round ends on "a".
        for i in 0..10_002 {
            let key = ["b", "d", "a"][i % 3];
            assert!(cache.lookup(key).is_some());
        }
        {
            let inner = cache.inner.lock();
            assert!(inner.entries.len() <= 4, "{} entries", inner.entries.len());
            assert_eq!(inner.clock, 4 + 10_002, "one stamp per touch, no queue");
        }
        // Victims leave in touch order: the never-hit "c", then "b",
        // "d" and "a" as last touched.
        for (new, victim) in [("e", "c"), ("f", "b"), ("g", "d"), ("h", "a")] {
            cache.store(new.into(), resp(2));
            let inner = cache.inner.lock();
            assert!(!inner.entries.contains_key(victim), "{victim} should go");
            assert_eq!(inner.entries.len(), 4);
        }
    }

    #[test]
    fn capacity_zero_disables() {
        let cache = ResultCache::new(0);
        cache.store("a".into(), resp(1));
        assert!(cache.lookup("a").is_none());
    }

    #[test]
    fn restore_after_bump_serves_fresh_reply() {
        let cache = ResultCache::new(4);
        cache.store("q".into(), resp(1));
        cache.bump_epoch();
        cache.store("q".into(), resp(2));
        assert_eq!(cache.lookup("q"), Some(resp(2)));
    }

    #[test]
    fn telemetry_counts_hits_misses_evictions_and_bytes() {
        let registry = Arc::new(MetricsRegistry::new());
        let cache = ResultCache::new(1);
        cache.set_telemetry(Some(Arc::clone(&registry)));
        assert!(cache.lookup("a").is_none()); // miss
        cache.store("a".into(), resp(1));
        assert!(cache.lookup("a").is_some()); // hit
        cache.store("b".into(), resp(2)); // evicts "a"
        assert_eq!(
            registry.counter_value("ferret_cache_hits_total", &[]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("ferret_cache_misses_total", &[]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("ferret_cache_evictions_total", &[]),
            Some(1)
        );
        let gauge = registry.gauge("ferret_cache_memory_bytes", "", &[]);
        assert_eq!(
            gauge.get(),
            ("b".len() + render_response(&resp(2)).len()) as i64
        );
    }
}

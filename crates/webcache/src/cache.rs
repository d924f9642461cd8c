//! The proxy's object cache: byte-bounded storage with expiration times
//! and a pluggable replacement policy.

use crate::policy::ReplacementPolicy;
use piggyback_core::proxy::{classify_element, ElementAction};
use piggyback_core::types::{DurationMs, ResourceId, Timestamp};
use std::collections::{BTreeSet, HashMap};

/// Metadata for one cached resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    pub size: u64,
    /// Version of the resource (server Last-Modified at fetch time).
    pub last_modified: Timestamp,
    /// The entry may be served without validation until this instant
    /// (exclusive) — the freshness interval Δ of Section 2.1.
    pub expires: Timestamp,
    /// Whether the entry arrived via prefetch rather than a client request.
    pub prefetched: bool,
    /// Whether a client request has hit the entry since it was (pre)fetched.
    pub used: bool,
}

impl CacheEntry {
    /// A copy fetched at `now`: fresh for `delta` from then, and unused
    /// until a client asks when it is a speculation (`prefetched`).
    pub fn fetched(
        size: u64,
        last_modified: Timestamp,
        now: Timestamp,
        delta: DurationMs,
        prefetched: bool,
    ) -> Self {
        CacheEntry {
            size,
            last_modified,
            expires: now + delta,
            prefetched,
            used: !prefetched,
        }
    }

    /// Fresh at `now` (no validation needed)?
    pub fn is_fresh(&self, now: Timestamp) -> bool {
        now < self.expires
    }
}

/// What [`Cache::insert_accounted`] displaced: the full entries, not just
/// ids, so callers keeping an external ledger (e.g. the proxy's
/// prefetch used/wasted split) can settle displaced speculations.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    /// The previous entry for the inserted resource, if it was replaced.
    pub replaced: Option<CacheEntry>,
    /// Entries evicted to make room, with their ids (same shard).
    pub evicted: Vec<(ResourceId, CacheEntry)>,
    /// Whether the new entry is actually resident; `false` only for
    /// objects too large to cache (callers must drop the orphan body).
    pub inserted: bool,
}

/// A byte-capacity cache with policy-driven eviction.
pub struct Cache {
    entries: HashMap<ResourceId, CacheEntry>,
    used_bytes: u64,
    capacity: u64,
    policy: Box<dyn ReplacementPolicy + Send>,
    evictions: u64,
    /// Resources whose entry is `prefetched && !used`: speculative bytes
    /// no client has asked for yet. Evicted before anything the policy
    /// nominates — the paper's wasted-bytes concern says unproven
    /// speculation must never displace demand-fetched content. BTreeSet
    /// so victim choice is deterministic (smallest id first).
    speculative: BTreeSet<ResourceId>,
}

impl Cache {
    pub fn new(capacity: u64, policy: Box<dyn ReplacementPolicy + Send>) -> Self {
        Cache {
            entries: HashMap::new(),
            used_bytes: 0,
            capacity,
            policy,
            evictions: 0,
            speculative: BTreeSet::new(),
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Peek without touching recency.
    pub fn peek(&self, r: ResourceId) -> Option<&CacheEntry> {
        self.entries.get(&r)
    }

    /// Look up for a client request: touches the replacement policy and
    /// marks the entry used. The returned snapshot reflects the state
    /// *before* the `used` mark, so callers can detect first use of a
    /// prefetched entry.
    pub fn lookup(&mut self, r: ResourceId, now: Timestamp) -> Option<CacheEntry> {
        let entry = self.entries.get_mut(&r)?;
        let snapshot = *entry;
        entry.used = true;
        self.speculative.remove(&r);
        self.policy.on_access(r, snapshot.size, now);
        Some(snapshot)
    }

    /// Insert (or replace) an entry, evicting as needed. Returns the
    /// evicted resources. Objects larger than the whole cache are not
    /// cached (returned untouched, no eviction storm).
    pub fn insert(&mut self, r: ResourceId, entry: CacheEntry, now: Timestamp) -> Vec<ResourceId> {
        self.insert_accounted(r, entry, now)
            .evicted
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    /// [`Cache::insert`] that also reports *what* it displaced — the
    /// replaced previous entry and each evicted entry — so callers can
    /// settle external per-entry accounting (the prefetch ledger).
    pub fn insert_accounted(
        &mut self,
        r: ResourceId,
        entry: CacheEntry,
        now: Timestamp,
    ) -> InsertOutcome {
        if entry.size > self.capacity {
            // Uncachable: also drop any stale previous copy.
            let replaced = self.take(r);
            return InsertOutcome {
                replaced,
                evicted: Vec::new(),
                inserted: false,
            };
        }
        let replaced = self.entries.remove(&r);
        if let Some(old) = &replaced {
            self.used_bytes -= old.size;
            self.policy.remove(r);
            self.speculative.remove(&r);
        }
        let mut evicted = Vec::new();
        while self.used_bytes + entry.size > self.capacity {
            // Unused prefetched entries go first — speculation that never
            // paid off must not displace demand-fetched content.
            let victim = self
                .speculative
                .first()
                .copied()
                .or_else(|| self.policy.evict_candidate())
                .expect("policy must track every cached entry");
            debug_assert_ne!(victim, r);
            let old = self
                .entries
                .remove(&victim)
                .expect("policy nominated an uncached victim");
            self.used_bytes -= old.size;
            self.policy.remove(victim);
            self.speculative.remove(&victim);
            self.evictions += 1;
            evicted.push((victim, old));
        }
        self.used_bytes += entry.size;
        self.entries.insert(r, entry);
        if entry.prefetched && !entry.used {
            self.speculative.insert(r);
        }
        self.policy.on_insert(r, entry.size, now);
        InsertOutcome {
            replaced,
            evicted,
            inserted: true,
        }
    }

    /// Remove an entry (invalidation). Returns whether it was present.
    pub fn remove(&mut self, r: ResourceId) -> bool {
        self.take(r).is_some()
    }

    /// Remove an entry and return it, so the caller can inspect what was
    /// dropped (e.g. settle a still-unused prefetched entry as wasted).
    pub fn take(&mut self, r: ResourceId) -> Option<CacheEntry> {
        let e = self.entries.remove(&r)?;
        self.used_bytes -= e.size;
        self.policy.remove(r);
        self.speculative.remove(&r);
        Some(e)
    }

    /// Extend an entry's expiration (piggyback freshen or 304 validation).
    pub fn freshen(&mut self, r: ResourceId, expires: Timestamp) -> bool {
        match self.entries.get_mut(&r) {
            Some(e) => {
                e.expires = expires;
                true
            }
            None => false,
        }
    }

    /// Apply one piggyback element naming `r` at `element_lm`, received
    /// at `now` (Section 2.1): classify it against the cached copy, then
    /// on a freshen extend the copy to `expires` and note the mention for
    /// the replacement policy (with `None`, neither), and on an
    /// invalidate drop the copy. Returns the action and the entry as it
    /// was before.
    pub fn apply_element(
        &mut self,
        r: ResourceId,
        element_lm: Timestamp,
        now: Timestamp,
        expires: Option<Timestamp>,
    ) -> (ElementAction, Option<CacheEntry>) {
        let prior = self.entries.get(&r).copied();
        let action = classify_element(prior.map(|e| e.last_modified), element_lm);
        match (action, expires) {
            (ElementAction::Freshen, Some(expires)) => {
                self.freshen(r, expires);
                self.note_piggyback_mention(r, now);
            }
            (ElementAction::Invalidate, _) => {
                self.take(r);
            }
            _ => {}
        }
        (action, prior)
    }

    /// Record that a piggyback mentioned `r` (policy hint).
    pub fn note_piggyback_mention(&mut self, r: ResourceId, now: Timestamp) {
        if let Some(e) = self.entries.get(&r) {
            let size = e.size;
            self.policy.on_piggyback_mention(r, size, now);
        }
    }

    /// Iterate entries (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, &CacheEntry)> {
        self.entries.iter().map(|(&r, e)| (r, e))
    }

    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        let total: u64 = self.entries.values().map(|e| e.size).sum();
        assert_eq!(total, self.used_bytes, "byte accounting drifted");
        assert!(self.used_bytes <= self.capacity, "over capacity");
        assert_eq!(self.policy.len(), self.entries.len(), "policy desync");
        for r in &self.speculative {
            let e = self.entries.get(r).expect("speculative ghost");
            assert!(e.prefetched && !e.used, "speculative set desync");
        }
        let unused_prefetched = self
            .entries
            .iter()
            .filter(|(_, e)| e.prefetched && !e.used)
            .count();
        assert_eq!(
            unused_prefetched,
            self.speculative.len(),
            "speculative miss"
        );
    }
}

impl std::fmt::Debug for Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cache")
            .field("entries", &self.entries.len())
            .field("used_bytes", &self.used_bytes)
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Lru, PolicyKind};

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn r(i: u32) -> ResourceId {
        ResourceId(i)
    }

    fn entry(size: u64, expires: u64) -> CacheEntry {
        CacheEntry {
            size,
            last_modified: Timestamp::ZERO,
            expires: ts(expires),
            prefetched: false,
            used: false,
        }
    }

    fn lru_cache(cap: u64) -> Cache {
        Cache::new(cap, Box::new(Lru::new()))
    }

    #[test]
    fn insert_lookup_remove() {
        let mut c = lru_cache(1000);
        c.insert(r(1), entry(400, 60), ts(0));
        c.check_invariants();
        let e = c.lookup(r(1), ts(10)).unwrap();
        assert!(e.is_fresh(ts(59)));
        assert!(!e.is_fresh(ts(60)));
        assert!(c.remove(r(1)));
        assert!(!c.remove(r(1)));
        c.check_invariants();
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_enforced_with_lru_eviction() {
        let mut c = lru_cache(1000);
        c.insert(r(1), entry(400, 100), ts(1));
        c.insert(r(2), entry(400, 100), ts(2));
        // Touch r1 so r2 is the LRU victim.
        c.lookup(r(1), ts(3));
        let evicted = c.insert(r(3), entry(400, 100), ts(4));
        assert_eq!(evicted, vec![r(2)]);
        c.check_invariants();
        assert!(c.peek(r(1)).is_some());
        assert!(c.peek(r(2)).is_none());
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn oversized_objects_bypass_cache() {
        let mut c = lru_cache(100);
        c.insert(r(1), entry(50, 10), ts(0));
        let evicted = c.insert(r(2), entry(500, 10), ts(1));
        assert!(evicted.is_empty());
        assert!(c.peek(r(2)).is_none());
        assert!(c.peek(r(1)).is_some(), "small entry untouched");
        c.check_invariants();
    }

    #[test]
    fn replace_updates_byte_accounting() {
        let mut c = lru_cache(1000);
        c.insert(r(1), entry(400, 10), ts(0));
        c.insert(r(1), entry(700, 20), ts(1));
        assert_eq!(c.used_bytes(), 700);
        assert_eq!(c.len(), 1);
        c.check_invariants();
    }

    #[test]
    fn freshen_extends_expiry() {
        let mut c = lru_cache(1000);
        c.insert(r(1), entry(100, 50), ts(0));
        assert!(c.freshen(r(1), ts(500)));
        assert!(c.peek(r(1)).unwrap().is_fresh(ts(499)));
        assert!(!c.freshen(r(9), ts(500)));
    }

    #[test]
    fn apply_element_classifies_then_acts_and_returns_the_prior_entry() {
        let mut c = lru_cache(1000);
        c.insert(r(1), entry(100, 50), ts(0));
        // Not newer: freshened only when an expiry is given.
        let (action, prior) = c.apply_element(r(1), Timestamp::ZERO, ts(1), None);
        assert_eq!(
            (action, prior),
            (ElementAction::Freshen, Some(entry(100, 50)))
        );
        assert_eq!(c.peek(r(1)).unwrap().expires, ts(50));
        let (action, _) = c.apply_element(r(1), Timestamp::ZERO, ts(2), Some(ts(90)));
        assert_eq!(action, ElementAction::Freshen);
        assert_eq!(c.peek(r(1)).unwrap().expires, ts(90));
        // Newer: the copy is dropped, and handed back as it was.
        let (action, prior) = c.apply_element(r(1), ts(5), ts(3), Some(ts(90)));
        assert_eq!(action, ElementAction::Invalidate);
        assert_eq!(prior.map(|e| e.expires), Some(ts(90)));
        assert!(c.peek(r(1)).is_none());
        let (action, prior) = c.apply_element(r(1), ts(5), ts(4), Some(ts(90)));
        assert_eq!((action, prior), (ElementAction::PrefetchCandidate, None));
        c.check_invariants();
    }

    #[test]
    fn piggyback_mention_changes_eviction_order_for_aware_policy() {
        let mut c = Cache::new(800, PolicyKind::PiggybackAware.build());
        c.insert(r(1), entry(400, 100), ts(1));
        c.insert(r(2), entry(400, 100), ts(2));
        c.note_piggyback_mention(r(1), ts(3));
        let evicted = c.insert(r(3), entry(400, 100), ts(4));
        assert_eq!(evicted, vec![r(2)]);
        c.check_invariants();
    }

    #[test]
    fn eviction_cascades_until_fit() {
        let mut c = lru_cache(1000);
        for i in 0..5 {
            c.insert(r(i), entry(200, 100), ts(i as u64));
        }
        let evicted = c.insert(r(10), entry(900, 100), ts(10));
        assert_eq!(evicted.len(), 5, "needs almost the whole cache");
        c.check_invariants();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn unused_prefetched_entries_evict_first() {
        let mut c = lru_cache(1000);
        c.insert(r(1), entry(400, 100), ts(1));
        let spec = CacheEntry {
            prefetched: true,
            ..entry(400, 100)
        };
        c.insert(r(2), spec, ts(2));
        // LRU order says r1 is the victim, but r2 is unproven speculation.
        let out = c.insert_accounted(r(3), entry(400, 100), ts(3));
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(out.evicted[0].0, r(2));
        assert!(out.evicted[0].1.prefetched);
        assert!(c.peek(r(1)).is_some(), "demand entry survives");
        c.check_invariants();
    }

    #[test]
    fn used_prefetched_entries_lose_eviction_bias() {
        let mut c = lru_cache(1000);
        let spec = CacheEntry {
            prefetched: true,
            ..entry(400, 100)
        };
        c.insert(r(1), spec, ts(1));
        c.insert(r(2), entry(400, 100), ts(2));
        // A client hit proves the speculation; r1 is now plain LRU.
        c.lookup(r(1), ts(3));
        let out = c.insert_accounted(r(4), entry(400, 100), ts(4));
        assert_eq!(out.evicted[0].0, r(2), "normal LRU order once used");
        c.check_invariants();
    }

    #[test]
    fn insert_accounted_reports_replaced_entry() {
        let mut c = lru_cache(1000);
        let spec = CacheEntry {
            prefetched: true,
            ..entry(300, 100)
        };
        c.insert(r(1), spec, ts(0));
        let out = c.insert_accounted(r(1), entry(500, 200), ts(1));
        let old = out.replaced.expect("old entry reported");
        assert!(old.prefetched && !old.used);
        assert_eq!(old.size, 300);
        assert!(out.evicted.is_empty());
        assert!(out.inserted);
        c.check_invariants();
    }

    #[test]
    fn take_returns_entry_and_uncachable_insert_reports_displaced() {
        let mut c = lru_cache(100);
        let spec = CacheEntry {
            prefetched: true,
            ..entry(50, 100)
        };
        c.insert(r(1), spec, ts(0));
        // Oversized replacement still surfaces the dropped previous copy.
        let out = c.insert_accounted(r(1), entry(500, 100), ts(1));
        assert_eq!(out.replaced.map(|e| e.size), Some(50));
        assert!(!out.inserted, "oversized object reported non-resident");
        assert!(c.peek(r(1)).is_none());
        c.insert(r(2), spec, ts(2));
        assert_eq!(c.take(r(2)).map(|e| e.size), Some(50));
        assert_eq!(c.take(r(2)), None);
        c.check_invariants();
    }

    #[test]
    fn lookup_marks_used() {
        let mut c = lru_cache(100);
        c.insert(
            r(1),
            CacheEntry {
                prefetched: true,
                ..entry(10, 100)
            },
            ts(0),
        );
        assert!(!c.peek(r(1)).unwrap().used);
        c.lookup(r(1), ts(1));
        assert!(c.peek(r(1)).unwrap().used);
        assert!(c.peek(r(1)).unwrap().prefetched);
    }
}

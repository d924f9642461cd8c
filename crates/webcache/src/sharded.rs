//! N-way sharded cache for concurrent proxies.
//!
//! [`ShardedCache`] wraps N independent [`Cache`] shards, each behind its
//! own mutex, and routes every resource to a fixed shard by hashing its
//! [`ResourceId`]. Operations on different shards never contend, so a
//! multi-threaded proxy scales instead of serializing on one big lock.
//!
//! Design notes:
//!
//! * The byte capacity is split evenly across shards, so eviction pressure
//!   is per-shard. A pathological workload that hashes everything into one
//!   shard sees 1/N of the configured capacity; the shard router uses a
//!   Fibonacci multiplicative hash to make that astronomically unlikely
//!   for real id populations (see the distribution property tests below).
//! * All methods take `&self`: the sharding is the synchronization.
//! * Aggregate accessors (`len`, `used_bytes`, `evictions`) lock shards
//!   one at a time, so they are linearizable per shard but only
//!   approximate across shards while writers run — fine for statistics,
//!   which is all they are used for.

use crate::cache::{Cache, CacheEntry, InsertOutcome};
use crate::policy::PolicyKind;
use parking_lot::Mutex;
use piggyback_core::proxy::ElementAction;
use piggyback_core::types::{ResourceId, Timestamp};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// 2^64 / φ, the Fibonacci hashing multiplier: consecutive ids land far
/// apart, and low-entropy id populations still spread evenly.
const FIB_MULT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Route `r` to one of `shards` buckets (Fibonacci multiplicative hash).
///
/// Exposed so co-sharded side tables (e.g. a body store) can use the same
/// routing and keep "everything about resource r lives in shard i" true.
pub fn shard_index(r: ResourceId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    // Multiply spreads entropy into the high bits; take them and reduce.
    (((r.0 as u64).wrapping_mul(FIB_MULT) >> 32) as usize) % shards
}

/// Lock-free occupancy gauges mirrored out of one shard.
///
/// Refreshed (relaxed stores) every time the shard's lock is released by
/// a [`ShardedCache`] accessor, so readers — a metrics endpoint scraping
/// per-shard occupancy — never take a shard lock. Each gauge is
/// individually exact as of some recent quiescent point; cross-gauge
/// consistency is approximate while writers run, which is all statistics
/// need.
#[derive(Debug, Default)]
struct ShardGauges {
    bytes: AtomicU64,
    entries: AtomicU64,
    evictions: AtomicU64,
}

/// A plain snapshot of one shard's occupancy (see [`ShardedCache::occupancy`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Bytes cached in this shard.
    pub bytes: u64,
    /// Entries cached in this shard.
    pub entries: u64,
    /// Evictions from this shard since construction.
    pub evictions: u64,
}

/// A byte-capacity cache split into independently locked shards.
pub struct ShardedCache {
    shards: Vec<Mutex<Cache>>,
    gauges: Vec<ShardGauges>,
    /// Bumped (Release) by every mutating operation — insert, remove,
    /// freshen, a piggyback element's change — and read (Acquire) by
    /// [`mutation_epoch`]. Lets a lock-free reader (a reactor shard's
    /// affine L1) prove "nothing in the cache changed between these two
    /// samples" without touching any shard lock. Lookups don't bump it:
    /// the `used`/recency marks they write never change what a hit would
    /// serve.
    ///
    /// [`mutation_epoch`]: ShardedCache::mutation_epoch
    epoch: AtomicU64,
}

impl ShardedCache {
    /// Build `shards` shards (at least 1) sharing `capacity` bytes evenly.
    pub fn new(capacity: u64, shards: usize, policy: PolicyKind) -> Self {
        let n = shards.max(1) as u64;
        let per = capacity / n;
        let remainder = capacity % n;
        let shards: Vec<_> = (0..n)
            .map(|i| {
                // Give the remainder to shard 0 so no byte is lost.
                let cap = per + if i == 0 { remainder } else { 0 };
                Mutex::new(Cache::new(cap, policy.build()))
            })
            .collect();
        let gauges = (0..shards.len()).map(|_| ShardGauges::default()).collect();
        ShardedCache {
            shards,
            gauges,
            epoch: AtomicU64::new(0),
        }
    }

    /// Current mutation epoch: unchanged between two samples ⇔ no entry
    /// was inserted, removed, invalidated, or re-freshened in between.
    /// Pair with [`bump`](Self::bump_epoch)-on-mutate to validate
    /// lock-free snapshots (acquire/release so an observed bump also
    /// publishes the mutation that caused it).
    pub fn mutation_epoch(&self) -> u64 {
        self.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    fn bump_epoch(&self) {
        self.epoch
            .fetch_add(1, std::sync::atomic::Ordering::Release);
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `r` routes to.
    pub fn shard_of(&self, r: ResourceId) -> usize {
        shard_index(r, self.shards.len())
    }

    /// Run `f` with the shard that owns `r` locked.
    pub fn with_resource_shard<T>(&self, r: ResourceId, f: impl FnOnce(&mut Cache) -> T) -> T {
        self.with_shard(self.shard_of(r), f)
    }

    /// Run `f` with shard `i` locked (statistics, tests, maintenance).
    pub fn with_shard<T>(&self, i: usize, f: impl FnOnce(&mut Cache) -> T) -> T {
        let mut guard = self.shards[i].lock();
        let out = f(&mut guard);
        // Mirror occupancy into the lock-free gauges while still holding
        // the lock, so each store publishes a state the shard really had.
        let g = &self.gauges[i];
        g.bytes.store(guard.used_bytes(), Relaxed);
        g.entries.store(guard.len() as u64, Relaxed);
        g.evictions.store(guard.evictions(), Relaxed);
        out
    }

    /// Per-shard occupancy, read entirely from atomic gauges — no shard
    /// lock is taken, so a metrics scrape can never contend with (or wait
    /// on) the request hot path.
    pub fn occupancy(&self) -> Vec<ShardOccupancy> {
        self.gauges
            .iter()
            .map(|g| ShardOccupancy {
                bytes: g.bytes.load(Relaxed),
                entries: g.entries.load(Relaxed),
                evictions: g.evictions.load(Relaxed),
            })
            .collect()
    }

    /// Client-request lookup: touches recency and marks the entry used.
    /// The snapshot reflects the state before the `used` mark, matching
    /// [`Cache::lookup`].
    pub fn lookup(&self, r: ResourceId, now: Timestamp) -> Option<CacheEntry> {
        self.with_resource_shard(r, |c| c.lookup(r, now))
    }

    /// Peek without touching recency (copies the entry out of the lock).
    pub fn peek(&self, r: ResourceId) -> Option<CacheEntry> {
        self.with_resource_shard(r, |c| c.peek(r).copied())
    }

    /// Insert (or replace), evicting within the owning shard as needed.
    /// Returns the evicted resources — all from the same shard, so a
    /// co-sharded side table can clean up under one lock.
    pub fn insert(&self, r: ResourceId, entry: CacheEntry, now: Timestamp) -> Vec<ResourceId> {
        self.bump_epoch();
        self.with_resource_shard(r, |c| c.insert(r, entry, now))
    }

    /// [`ShardedCache::insert`] that reports the displaced entries (same
    /// shard), matching [`Cache::insert_accounted`].
    pub fn insert_accounted(
        &self,
        r: ResourceId,
        entry: CacheEntry,
        now: Timestamp,
    ) -> InsertOutcome {
        self.bump_epoch();
        self.with_resource_shard(r, |c| c.insert_accounted(r, entry, now))
    }

    /// Remove an entry (invalidation). Returns whether it was present.
    pub fn remove(&self, r: ResourceId) -> bool {
        self.bump_epoch();
        self.with_resource_shard(r, |c| c.remove(r))
    }

    /// Extend an entry's expiration (piggyback freshen or 304 validation).
    pub fn freshen(&self, r: ResourceId, expires: Timestamp) -> bool {
        self.bump_epoch();
        self.with_resource_shard(r, |c| c.freshen(r, expires))
    }

    /// [`Cache::apply_element`] under one lock of `r`'s shard, so no
    /// store lands between the classification and the change. An element
    /// naming a cached entry freshens or invalidates it, so the epoch
    /// moves first then.
    pub fn apply_element(
        &self,
        r: ResourceId,
        element_lm: Timestamp,
        now: Timestamp,
        expires: Option<Timestamp>,
    ) -> (ElementAction, Option<CacheEntry>) {
        self.with_resource_shard(r, |c| {
            if c.peek(r).is_some() {
                self.bump_epoch();
            }
            c.apply_element(r, element_lm, now, expires)
        })
    }

    /// Total configured capacity across shards.
    pub fn capacity(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().capacity()).sum()
    }

    /// Total bytes cached (approximate across shards under writers).
    pub fn used_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().used_bytes()).sum()
    }

    /// Total entries cached (approximate across shards under writers).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total evictions across shards since construction.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().evictions()).sum()
    }
}

impl std::fmt::Debug for ShardedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("entries", &self.len())
            .field("used_bytes", &self.used_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
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

    #[test]
    fn routes_are_stable_and_in_range() {
        let c = ShardedCache::new(1 << 20, 8, PolicyKind::Lru);
        for i in 0..10_000u32 {
            let s = c.shard_of(ResourceId(i));
            assert!(s < 8);
            assert_eq!(s, c.shard_of(ResourceId(i)), "routing must be stable");
            assert_eq!(s, shard_index(ResourceId(i), 8));
        }
    }

    #[test]
    fn single_shard_degenerates_to_plain_cache() {
        let c = ShardedCache::new(1000, 1, PolicyKind::Lru);
        c.insert(ResourceId(1), entry(400, 100), ts(1));
        c.insert(ResourceId(2), entry(400, 100), ts(2));
        c.lookup(ResourceId(1), ts(3));
        let evicted = c.insert(ResourceId(3), entry(400, 100), ts(4));
        assert_eq!(evicted, vec![ResourceId(2)], "LRU order preserved");
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn capacity_split_loses_no_bytes() {
        for shards in 1..=9 {
            let c = ShardedCache::new(1_000_003, shards, PolicyKind::Lru);
            assert_eq!(c.capacity(), 1_000_003, "shards={shards}");
        }
    }

    #[test]
    fn basic_ops_route_through_shards() {
        let c = ShardedCache::new(1 << 20, 4, PolicyKind::Lru);
        let r = ResourceId(42);
        assert!(c.lookup(r, ts(0)).is_none());
        c.insert(r, entry(100, 50), ts(0));
        assert!(c.peek(r).is_some());
        assert!(c.lookup(r, ts(1)).unwrap().is_fresh(ts(49)));
        assert!(c.freshen(r, ts(500)));
        assert!(c.peek(r).unwrap().is_fresh(ts(499)));
        assert_eq!(
            c.apply_element(r, Timestamp::ZERO, ts(2), Some(ts(600))).0,
            ElementAction::Freshen
        );
        assert!(c.peek(r).unwrap().is_fresh(ts(599)));
        assert!(c.remove(r));
        assert!(!c.remove(r));
        assert!(c.is_empty());
    }

    /// The eviction bias survives sharding: within a shard, an unused
    /// prefetched entry is evicted before demand-fetched LRU victims, and
    /// a used one is not. Single shard pins all ids to one eviction arena.
    #[test]
    fn sharded_eviction_prefers_unused_prefetched() {
        let c = ShardedCache::new(1200, 1, PolicyKind::Lru);
        c.insert(ResourceId(1), entry(400, 100), ts(1));
        let spec = CacheEntry {
            prefetched: true,
            ..entry(400, 100)
        };
        c.insert(ResourceId(2), spec, ts(2));
        c.insert(ResourceId(3), entry(400, 100), ts(3));
        // r1 is the LRU victim, but r2 is speculative and unproven.
        let out = c.insert_accounted(ResourceId(4), entry(400, 100), ts(4));
        assert_eq!(out.evicted.len(), 1);
        assert_eq!(out.evicted[0].0, ResourceId(2));
        assert!(out.evicted[0].1.prefetched && !out.evicted[0].1.used);
        assert!(c.peek(ResourceId(1)).is_some());

        // A client hit removes the bias: next eviction is plain LRU (r1).
        assert!(c.remove(ResourceId(4)));
        c.insert(ResourceId(2), spec, ts(5));
        assert!(c.lookup(ResourceId(2), ts(6)).is_some());
        let out = c.insert_accounted(ResourceId(5), entry(400, 100), ts(7));
        assert_eq!(
            out.evicted.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![ResourceId(1)]
        );
        c.with_shard(0, |shard| shard.check_invariants());
    }

    /// Deterministic seeded-interleaving check: replay the same randomized
    /// schedule of operations from T logical threads in a seed-derived
    /// order, twice, and require identical observable end states plus
    /// per-shard invariants after every step. This is a loom-style
    /// exploration driven by seeds rather than exhaustive model checking
    /// (loom is not available offline), so each seed is one fully
    /// deterministic interleaving.
    fn run_interleaving(seed: u64) -> (usize, u64, u64) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let c = ShardedCache::new(8 * 1024, 4, PolicyKind::Lru);

        // T logical threads each hold a scripted op sequence; the scheduler
        // picks which thread runs next from the same RNG stream.
        const THREADS: usize = 4;
        const OPS: usize = 64;
        let mut scripts: Vec<Vec<(u8, u32)>> = (0..THREADS)
            .map(|_| {
                (0..OPS)
                    .map(|_| {
                        let op = (rng.next_u64() % 5) as u8;
                        let id = (rng.next_u64() % 32) as u32;
                        (op, id)
                    })
                    .collect()
            })
            .collect();

        let mut step = 0u64;
        while scripts.iter().any(|s| !s.is_empty()) {
            let t = (rng.next_u64() as usize) % THREADS;
            let Some((op, id)) = scripts[t].pop() else {
                continue;
            };
            let r = ResourceId(id);
            let now = ts(step);
            step += 1;
            match op {
                0 => {
                    c.insert(r, entry(64 + u64::from(id), step + 100), now);
                }
                1 => {
                    c.lookup(r, now);
                }
                2 => {
                    c.remove(r);
                }
                3 => {
                    c.freshen(r, ts(step + 200));
                }
                _ => {
                    // Odd ids name a newer version: an invalidation.
                    let lm = ts(u64::from(id % 2));
                    c.apply_element(r, lm, now, Some(ts(step + 300)));
                }
            }
            for i in 0..c.shard_count() {
                c.with_shard(i, |shard| shard.check_invariants());
            }
        }
        (c.len(), c.used_bytes(), c.evictions())
    }

    #[test]
    fn seeded_interleavings_are_deterministic_and_invariant_preserving() {
        for seed in 0..16u64 {
            let a = run_interleaving(seed);
            let b = run_interleaving(seed);
            assert_eq!(a, b, "seed {seed} must replay identically");
        }
    }

    /// The lock-free occupancy gauges track the real shard state exactly
    /// once the cache is quiescent.
    #[test]
    fn occupancy_gauges_match_locked_state_when_quiescent() {
        let c = ShardedCache::new(1 << 20, 4, PolicyKind::Lru);
        for i in 0..64u32 {
            c.insert(ResourceId(i), entry(100, 1000), ts(u64::from(i)));
        }
        for i in 0..16u32 {
            c.remove(ResourceId(i * 4));
        }
        let occ = c.occupancy();
        assert_eq!(occ.len(), 4);
        let total_bytes: u64 = occ.iter().map(|o| o.bytes).sum();
        let total_entries: u64 = occ.iter().map(|o| o.entries).sum();
        assert_eq!(total_bytes, c.used_bytes());
        assert_eq!(total_entries, c.len() as u64);
        for (i, o) in occ.iter().enumerate() {
            c.with_shard(i, |shard| {
                assert_eq!(o.bytes, shard.used_bytes(), "shard {i}");
                assert_eq!(o.entries, shard.len() as u64, "shard {i}");
                assert_eq!(o.evictions, shard.evictions(), "shard {i}");
            });
        }
    }

    /// Real threads hammering disjoint-and-overlapping id ranges: no
    /// deadlock, no panic, and byte accounting still balances after.
    #[test]
    fn concurrent_threads_preserve_invariants() {
        let c = Arc::new(ShardedCache::new(64 * 1024, 8, PolicyKind::Lru));
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    let r = ResourceId((t * 100 + i) % 256);
                    let now = ts(u64::from(i));
                    match i % 4 {
                        0 => {
                            c.insert(r, entry(128, u64::from(i) + 50), now);
                        }
                        1 => {
                            c.lookup(r, now);
                        }
                        2 => {
                            c.freshen(r, ts(u64::from(i) + 100));
                        }
                        _ => {
                            c.remove(r);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().expect("no shard op may panic");
        }
        for i in 0..c.shard_count() {
            c.with_shard(i, |shard| shard.check_invariants());
        }
        assert!(c.used_bytes() <= c.capacity());
    }

    proptest! {
        /// Every id routes in-range and identically on repeated calls, for
        /// arbitrary shard counts.
        #[test]
        fn shard_index_total_and_stable(id in any::<u32>(), shards in 1usize..64) {
            let a = shard_index(ResourceId(id), shards);
            let b = shard_index(ResourceId(id), shards);
            prop_assert!(a < shards);
            prop_assert_eq!(a, b);
        }

        /// Dense and strided id populations spread across shards: no shard
        /// takes more than 4x its fair share (Fibonacci hashing keeps
        /// low-entropy populations balanced).
        #[test]
        fn shard_distribution_is_balanced(
            start in 0u32..1_000_000,
            stride in 1u32..64,
            shards in 2usize..17,
        ) {
            let n = 512usize;
            let mut counts = vec![0usize; shards];
            for k in 0..n {
                let id = start.wrapping_add(stride * k as u32);
                counts[shard_index(ResourceId(id), shards)] += 1;
            }
            let fair = n / shards;
            for (i, &c) in counts.iter().enumerate() {
                prop_assert!(
                    c <= fair * 4,
                    "shard {} got {} of {} ({} shards, fair {})",
                    i, c, n, shards, fair
                );
            }
        }

        /// Sharded and single-shard caches agree on membership for any op
        /// sequence (eviction order differs by design — capacity is split —
        /// so this uses an over-provisioned cache where no eviction fires).
        #[test]
        fn membership_matches_unsharded_reference(
            ops in proptest::collection::vec((0u8..4, 0u32..64), 0..200)
        ) {
            let sharded = ShardedCache::new(1 << 30, 8, PolicyKind::Lru);
            let mut reference = Cache::new(1 << 30, PolicyKind::Lru.build());
            for (i, &(op, id)) in ops.iter().enumerate() {
                let r = ResourceId(id);
                let now = ts(i as u64);
                match op {
                    0 => {
                        sharded.insert(r, entry(64, i as u64 + 10), now);
                        reference.insert(r, entry(64, i as u64 + 10), now);
                    }
                    1 => {
                        prop_assert_eq!(
                            sharded.lookup(r, now),
                            reference.lookup(r, now)
                        );
                    }
                    2 => {
                        prop_assert_eq!(sharded.remove(r), reference.remove(r));
                    }
                    _ => {
                        prop_assert_eq!(
                            sharded.freshen(r, ts(i as u64 + 99)),
                            reference.freshen(r, ts(i as u64 + 99))
                        );
                    }
                }
            }
            prop_assert_eq!(sharded.len(), reference.len());
            prop_assert_eq!(sharded.used_bytes(), reference.used_bytes());
        }
    }
}

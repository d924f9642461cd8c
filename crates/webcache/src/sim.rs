//! End-to-end proxy cache simulation.
//!
//! Replays a server log through a proxy cache talking to a piggybacking
//! origin, with a resource-modification stream, and measures the effect of
//! the piggyback protocol on coherency (validations avoided, stale
//! responses), prefetching (useful vs futile fetches, bandwidth), and
//! replacement (hit rates) — the applications of Section 4.
//!
//! The origin only observes requests that reach it (misses and
//! validations), exactly as a real server would; cache hits are invisible
//! to its volumes.

use crate::adaptive::{ChangeEstimator, FreshnessPolicy};
use crate::cache::{Cache, CacheEntry};
use crate::policy::PolicyKind;
use piggyback_core::element::{PiggybackElement, PiggybackMessage};
use piggyback_core::filter::ProxyFilter;
use piggyback_core::proxy::ElementAction;
use piggyback_core::rpv::RpvList;
use piggyback_core::server::PiggybackServer;
use piggyback_core::types::{DurationMs, Timestamp};
use piggyback_core::volume::VolumeProvider;
use piggyback_trace::synth::changes::ChangeEvent;
use piggyback_trace::ServerLog;

/// Prefetch policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchConfig {
    /// Skip piggybacked resources larger than this.
    pub max_size: Option<u64>,
    /// At most this many prefetches per piggyback message.
    pub max_per_message: usize,
    /// Fetch again the resources a piggyback just invalidated.
    pub refresh_invalidated: bool,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            max_size: Some(64 * 1024),
            max_per_message: 8,
            refresh_invalidated: false,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone)]
pub struct ProxySimConfig {
    pub capacity_bytes: u64,
    pub policy: PolicyKind,
    pub freshness: FreshnessPolicy,
    /// Process piggyback information at all (off = the baseline proxy).
    pub piggyback: bool,
    /// Content-oriented filter sent with each request.
    pub filter: ProxyFilter,
    /// RPV pacing: (max list length, timeout).
    pub rpv: Option<(usize, DurationMs)>,
    pub prefetch: Option<PrefetchConfig>,
    /// Delta encoding (paper Section 4, citing reference \[23\]): when the
    /// proxy holds an outdated copy, the server transmits only the
    /// difference — modelled as this fraction of the full body size.
    /// `None` disables deltas.
    pub delta_encoding: Option<f64>,
}

impl Default for ProxySimConfig {
    fn default() -> Self {
        ProxySimConfig {
            capacity_bytes: 64 * 1024 * 1024,
            policy: PolicyKind::Lru,
            freshness: FreshnessPolicy::Fixed(DurationMs::from_secs(3600)),
            piggyback: true,
            filter: ProxyFilter::builder().max_piggy(10).build(),
            rpv: Some((16, DurationMs::from_secs(60))),
            prefetch: None,
            delta_encoding: None,
        }
    }
}

/// Counters from a proxy simulation run.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ProxySimReport {
    pub client_requests: u64,
    /// Requests that found any copy in the cache.
    pub cache_hits: u64,
    /// Requests served from cache without contacting the server.
    pub fresh_hits: u64,
    /// Fresh hits whose copy was actually out of date at the server.
    pub stale_served: u64,
    /// If-Modified-Since validations sent.
    pub validations: u64,
    /// Validations answered 304 Not Modified.
    pub not_modified: u64,
    /// Full 200 responses (misses + modified validations).
    pub full_fetches: u64,
    /// Body bytes transferred from the server (including prefetches).
    pub bytes_from_server: u64,
    /// Body bytes served to clients (cache hits + relayed fetches).
    pub bytes_to_clients: u64,
    pub piggyback_messages: u64,
    pub piggybacked_elements: u64,
    /// Cache entries freshened by piggyback metadata.
    pub piggyback_freshens: u64,
    /// Cache entries invalidated by piggyback metadata.
    pub piggyback_invalidations: u64,
    /// Fresh hits served only because a piggyback freshened the entry
    /// (the entry's original Δ had already expired).
    pub piggyback_saved_validations: u64,
    pub prefetches: u64,
    pub prefetch_bytes: u64,
    /// Prefetched entries that served at least one later request.
    pub useful_prefetches: u64,
    pub evictions: u64,
    /// Modified-resource responses sent as deltas.
    pub delta_responses: u64,
    /// Bytes avoided by delta encoding.
    pub delta_bytes_saved: u64,
}

impl ProxySimReport {
    fn frac(n: u64, d: u64) -> f64 {
        if d == 0 {
            0.0
        } else {
            n as f64 / d as f64
        }
    }

    /// Any-copy hit rate.
    pub fn hit_rate(&self) -> f64 {
        Self::frac(self.cache_hits, self.client_requests)
    }

    /// Served-without-server-contact rate.
    pub fn fresh_hit_rate(&self) -> f64 {
        Self::frac(self.fresh_hits, self.client_requests)
    }

    /// Requests that reached the server.
    pub fn server_contacts(&self) -> u64 {
        self.client_requests - self.fresh_hits + self.prefetches
    }

    /// Stale responses per fresh hit.
    pub fn stale_rate(&self) -> f64 {
        Self::frac(self.stale_served, self.fresh_hits)
    }

    /// Fraction of prefetches that were futile.
    pub fn futile_prefetch_rate(&self) -> f64 {
        Self::frac(self.prefetches - self.useful_prefetches, self.prefetches)
    }

    /// Byte hit rate: fraction of client-served bytes that did **not**
    /// cross the proxy↔server link.
    pub fn byte_hit_rate(&self) -> f64 {
        if self.bytes_to_clients == 0 {
            return 0.0;
        }
        1.0 - (self.bytes_from_server.min(self.bytes_to_clients) as f64
            / self.bytes_to_clients as f64)
    }
}

/// Register every resource of `log` with a piggybacking server over the
/// given volume scheme.
pub fn build_server<V: VolumeProvider>(log: &ServerLog, volumes: V) -> PiggybackServer<V> {
    let mut server = PiggybackServer::new(volumes);
    for (_, path, meta) in log.table.iter() {
        server.register(path, meta.size, meta.last_modified, meta.content_type);
    }
    server
}

/// Run the proxy simulation: `log` drives client requests, `changes` drives
/// server-side modifications, `server` answers with piggybacks per `cfg`.
///
/// `log` and `changes` must both be time-ordered. Resource ids in `log`
/// must match the server's table (use [`build_server`]).
pub fn simulate_proxy<V: VolumeProvider>(
    log: &ServerLog,
    changes: &[ChangeEvent],
    server: &mut PiggybackServer<V>,
    cfg: &ProxySimConfig,
) -> ProxySimReport {
    let mut report = ProxySimReport::default();
    let mut cache = Cache::new(cfg.capacity_bytes, cfg.policy.build());
    let mut estimator = ChangeEstimator::new();
    let mut rpv = cfg.rpv.map(|(len, timeout)| RpvList::new(len, timeout));
    // One filter reused for every request: only its RPV list varies, and it
    // is rewritten in place instead of cloning `cfg.filter` per entry.
    let mut live_filter = cfg.filter.clone();
    let disabled_filter = ProxyFilter::disabled();

    let mut change_idx = 0usize;
    for entry in &log.entries {
        let now = entry.time;
        // Apply all modifications up to this instant.
        while change_idx < changes.len() && changes[change_idx].time <= now {
            let ev = changes[change_idx];
            server.touch_modified(ev.resource, ev.time);
            change_idx += 1;
        }

        let r = entry.resource;
        report.client_requests += 1;
        let server_lm = server
            .table()
            .meta(r)
            .map(|m| m.last_modified)
            .unwrap_or(Timestamp::ZERO);

        let cached = cache.lookup(r, now);
        if let Some(snap) = cached {
            report.cache_hits += 1;
            if snap.is_fresh(now) {
                report.fresh_hits += 1;
                report.bytes_to_clients += snap.size;
                if snap.prefetched && !snap.used {
                    report.useful_prefetches += 1;
                }
                if server_lm > snap.last_modified {
                    report.stale_served += 1;
                }
                continue;
            }
            // Expired: validate with If-Modified-Since.
            report.validations += 1;
        }
        let filter = request_filter(cfg, &mut live_filter, &disabled_filter, &mut rpv, now);
        server.record_access(r, entry.client, now);
        let delta = estimator.freshness_for(r, cfg.freshness);
        match cached {
            Some(snap) if server_lm <= snap.last_modified => {
                report.not_modified += 1;
                report.bytes_to_clients += snap.size;
                cache.freshen(r, now + delta);
            }
            // A miss, or a modified resource: a full response, or a delta
            // against the proxy's outdated copy when delta encoding is on.
            _ => {
                report.full_fetches += 1;
                let size = server.table().meta(r).map_or(0, |m| m.size);
                let transfer = match (cached, cfg.delta_encoding) {
                    (Some(_), Some(frac)) => {
                        report.delta_responses += 1;
                        let delta = ((size as f64) * frac.clamp(0.0, 1.0)) as u64;
                        report.delta_bytes_saved += size - delta;
                        delta
                    }
                    _ => size,
                };
                report.bytes_from_server += transfer;
                report.bytes_to_clients += size;
                cache.insert(
                    r,
                    CacheEntry::fetched(size, server_lm, now, delta, false),
                    now,
                );
            }
        }
        estimator.observe(r, server_lm);
        if let Some(msg) = server.piggyback(r, filter, now) {
            process_piggyback(
                &msg,
                now,
                cfg,
                &mut cache,
                &mut estimator,
                &mut rpv,
                &mut report,
            );
        }
    }

    report.evictions = cache.evictions();
    report
}

/// Refresh `live`'s RPV list in place and hand back the filter to send.
///
/// When RPV tracking is off, `live.rpv` keeps whatever `cfg.filter` carried
/// (the config may pin a static RPV list), matching the old clone-per-request
/// behaviour without the per-request allocation.
fn request_filter<'a>(
    cfg: &ProxySimConfig,
    live: &'a mut ProxyFilter,
    disabled: &'a ProxyFilter,
    rpv: &mut Option<RpvList>,
    now: Timestamp,
) -> &'a ProxyFilter {
    if !cfg.piggyback {
        return disabled;
    }
    if let Some(rpv) = rpv {
        rpv.write_ids(now, &mut live.rpv);
    }
    live
}

/// Apply one piggyback: pace its volume, then each element through
/// [`Cache::apply_element`], prefetching candidates (and, when asked,
/// what it invalidated) within the per-message budget.
fn process_piggyback(
    msg: &PiggybackMessage,
    now: Timestamp,
    cfg: &ProxySimConfig,
    cache: &mut Cache,
    estimator: &mut ChangeEstimator,
    rpv: &mut Option<RpvList>,
    report: &mut ProxySimReport,
) {
    report.piggyback_messages += 1;
    report.piggybacked_elements += msg.len() as u64;
    if let Some(rpv) = rpv {
        rpv.record(msg.volume, now);
    }
    let mut prefetched_now = 0usize;
    for e in &msg.elements {
        estimator.observe(e.resource, e.last_modified);
        let expires = now + estimator.freshness_for(e.resource, cfg.freshness);
        let (action, prior) = cache.apply_element(e.resource, e.last_modified, now, Some(expires));
        let fetch = match action {
            ElementAction::Freshen => {
                report.piggyback_freshens += 1;
                if prior.is_some_and(|c| !c.is_fresh(now)) {
                    report.piggyback_saved_validations += 1;
                }
                false
            }
            ElementAction::Invalidate => {
                report.piggyback_invalidations += 1;
                cfg.prefetch.is_some_and(|pf| pf.refresh_invalidated)
            }
            ElementAction::PrefetchCandidate => true,
        };
        if cfg.prefetch.is_some_and(|pf| {
            fetch && prefetched_now < pf.max_per_message && pf.max_size.is_none_or(|m| e.size <= m)
        }) {
            prefetch(e, now, cfg, estimator, cache, report);
            prefetched_now += 1;
        }
    }
}

fn prefetch(
    e: &PiggybackElement,
    now: Timestamp,
    cfg: &ProxySimConfig,
    estimator: &ChangeEstimator,
    cache: &mut Cache,
    report: &mut ProxySimReport,
) {
    report.prefetches += 1;
    report.prefetch_bytes += e.size;
    report.bytes_from_server += e.size;
    let delta = estimator.freshness_for(e.resource, cfg.freshness);
    let entry = CacheEntry::fetched(e.size, e.last_modified, now, delta, true);
    cache.insert(e.resource, entry, now);
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_core::types::SourceId;
    use piggyback_core::volume::DirectoryVolumes;
    use piggyback_trace::record::{Method, ServerLogEntry};
    use piggyback_trace::ServerLog;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// A log over a two-resource site: /d/a.html and /d/b.gif.
    fn tiny_log(times_and_paths: &[(u64, u32, &str)]) -> ServerLog {
        let mut log = ServerLog {
            name: "tiny".into(),
            ..Default::default()
        };
        // Register the full site regardless of what is requested.
        log.table.register_path("/d/a.html", 1_000, Timestamp::ZERO);
        log.table.register_path("/d/b.gif", 2_000, Timestamp::ZERO);
        for &(t, client, path) in times_and_paths {
            let r = log.table.lookup(path).expect("registered above");
            let bytes = log.table.meta(r).unwrap().size;
            log.entries.push(ServerLogEntry {
                time: ts(t),
                client: SourceId(client),
                resource: r,
                method: Method::Get,
                status: 200,
                bytes,
            });
        }
        log
    }

    fn run(log: &ServerLog, changes: &[ChangeEvent], cfg: &ProxySimConfig) -> ProxySimReport {
        let mut server = build_server(log, DirectoryVolumes::new(1));
        simulate_proxy(log, changes, &mut server, cfg)
    }

    #[test]
    fn repeated_request_hits_cache() {
        let log = tiny_log(&[(0, 1, "/d/a.html"), (10, 2, "/d/a.html")]);
        let report = run(&log, &[], &ProxySimConfig::default());
        assert_eq!(report.client_requests, 2);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.fresh_hits, 1);
        assert_eq!(report.full_fetches, 1);
        assert_eq!(report.bytes_from_server, 1_000);
        assert!((report.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn expired_entry_validates_and_304s() {
        let log = tiny_log(&[(0, 1, "/d/a.html"), (4000, 1, "/d/a.html")]);
        let report = run(&log, &[], &ProxySimConfig::default());
        // Δ = 3600s; the second request at 4000s must validate.
        assert_eq!(report.validations, 1);
        assert_eq!(report.not_modified, 1);
        assert_eq!(report.full_fetches, 1, "no refetch on 304");
    }

    #[test]
    fn modified_resource_is_refetched_not_304d() {
        let log = tiny_log(&[(0, 1, "/d/a.html"), (4000, 1, "/d/a.html")]);
        let changes = vec![ChangeEvent {
            time: ts(100),
            resource: log.table.lookup("/d/a.html").unwrap(),
        }];
        let report = run(&log, &changes, &ProxySimConfig::default());
        assert_eq!(report.validations, 1);
        assert_eq!(report.not_modified, 0);
        assert_eq!(report.full_fetches, 2);
    }

    #[test]
    fn stale_serving_within_freshness_window() {
        // Fetch at 0; resource changes at 10; re-request at 100 (< Δ):
        // served from cache although out of date.
        let log = tiny_log(&[(0, 1, "/d/a.html"), (100, 1, "/d/a.html")]);
        let changes = vec![ChangeEvent {
            time: ts(10),
            resource: log.table.lookup("/d/a.html").unwrap(),
        }];
        let report = run(&log, &changes, &ProxySimConfig::default());
        assert_eq!(report.fresh_hits, 1);
        assert_eq!(report.stale_served, 1);
    }

    #[test]
    fn piggyback_invalidation_prevents_stale_serving() {
        // a fetched at 0; b fetched at 1 (same volume → piggyback mentions
        // a); a changes at 10; b revalidates at 5000 → its response
        // piggybacks a with the NEW Last-Modified → proxy invalidates a;
        // request for a at 5050 misses instead of serving stale.
        let log = tiny_log(&[
            (0, 1, "/d/a.html"),
            (1, 1, "/d/b.gif"),
            (5000, 1, "/d/b.gif"),
            (5050, 1, "/d/a.html"),
        ]);
        let a = log.table.lookup("/d/a.html").unwrap();
        let changes = vec![ChangeEvent {
            time: ts(10),
            resource: a,
        }];
        let with = run(&log, &changes, &ProxySimConfig::default());
        assert!(with.piggyback_invalidations >= 1);
        assert_eq!(with.stale_served, 0);

        let without = run(
            &log,
            &changes,
            &ProxySimConfig {
                piggyback: false,
                ..Default::default()
            },
        );
        // Without piggybacking, a@5050's cached copy expired (Δ=3600), so
        // it validates rather than serving stale — but the piggyback case
        // converts that validation into a timely invalidation.
        assert_eq!(without.piggyback_messages, 0);
    }

    #[test]
    fn piggyback_freshen_saves_validation() {
        // a fetched at 0 (Δ=3600, expires 3600); b requested at 4000: its
        // response piggybacks a (unchanged) → freshen a to 4000+Δ; request
        // a at 5000: fresh hit, no validation.
        let log = tiny_log(&[
            (0, 1, "/d/a.html"),
            (4000, 1, "/d/b.gif"),
            (5000, 1, "/d/a.html"),
        ]);
        let report = run(&log, &[], &ProxySimConfig::default());
        assert!(report.piggyback_freshens >= 1);
        assert_eq!(report.piggyback_saved_validations, 1);
        assert_eq!(report.validations, 0);
        assert_eq!(report.fresh_hits, 1);

        // Baseline without piggybacking: the same request validates.
        let base = run(
            &log,
            &[],
            &ProxySimConfig {
                piggyback: false,
                ..Default::default()
            },
        );
        assert_eq!(base.validations, 1);
    }

    #[test]
    fn prefetch_counts_useful_and_futile() {
        // a then b requested: a's... b is piggybacked on a's response? No —
        // volume FIFO is empty at a's request. Request order: a, b, then c
        // requests nothing. Use: a@0 (no piggyback), b@1 (piggybacks a —
        // cached already, freshen), a@2 fresh hit. For a prefetch we need
        // an uncached mention: request b first, then a (piggybacks b? b is
        // cached...). Simplest: two clients. Client 1 fetches a and b;
        // client... the shared cache makes them cached. Instead: prefetch
        // triggers when the piggyback mentions an evicted/never-fetched
        // resource: request a@0, then a@10 expired? Use a tiny trace where
        // b is never requested but gets recorded server-side via another
        // request. Server volume FIFO only holds *accessed* resources, so
        // prefetch needs b accessed once: client 2 fetches b at t=0 through
        // a *different* proxy — not modelled. So: b@0 (cached), evict it by
        // capacity, then a@1 piggybacks b (not in cache) → prefetch; b@2 is
        // a fresh hit on the prefetched copy.
        let log = tiny_log(&[(0, 1, "/d/b.gif"), (1, 1, "/d/a.html"), (2, 1, "/d/b.gif")]);
        let cfg = ProxySimConfig {
            capacity_bytes: 2_500, // b (2000) evicted when a (1000) arrives
            prefetch: Some(PrefetchConfig {
                max_size: None,
                max_per_message: 4,
                refresh_invalidated: false,
            }),
            ..Default::default()
        };
        let report = run(&log, &[], &cfg);
        assert_eq!(report.prefetches, 1, "b prefetched off a's piggyback");
        assert_eq!(report.useful_prefetches, 1, "b@2 hit the prefetched copy");
        assert_eq!(report.futile_prefetch_rate(), 0.0);
        assert_eq!(report.fresh_hits, 1);
    }

    #[test]
    fn rpv_limits_piggyback_messages() {
        let log = tiny_log(&[
            (0, 1, "/d/a.html"),
            (1, 1, "/d/b.gif"),
            (2, 1, "/d/a.html"),
            (3, 1, "/d/b.gif"),
            (4, 1, "/d/a.html"),
        ]);
        // Tiny Δ so every request hits the server.
        let mut cfg = ProxySimConfig {
            freshness: FreshnessPolicy::Fixed(DurationMs::from_millis(1)),
            ..Default::default()
        };
        cfg.rpv = None;
        let unpaced = run(&log, &[], &cfg);
        cfg.rpv = Some((16, DurationMs::from_secs(60)));
        let paced = run(&log, &[], &cfg);
        assert!(
            paced.piggyback_messages < unpaced.piggyback_messages,
            "RPV should suppress repeats: {} vs {}",
            paced.piggyback_messages,
            unpaced.piggyback_messages
        );
    }

    #[test]
    fn eviction_counted() {
        let log = tiny_log(&[(0, 1, "/d/a.html"), (1, 1, "/d/b.gif")]);
        let cfg = ProxySimConfig {
            capacity_bytes: 2_200,
            ..Default::default()
        };
        let report = run(&log, &[], &cfg);
        assert_eq!(report.evictions, 1);
    }

    #[test]
    fn refresh_invalidated_prefetches_the_new_version() {
        // a@0 and b@1 are cached (Δ = 3600 s); a changes at 10; b's
        // validation at 5000 piggybacks a's new Last-Modified, which
        // invalidates a. With the coherency-driven refresh the proxy
        // fetches a again at once, so a@5001 is a fresh hit on a useful
        // prefetch instead of a miss.
        let log = tiny_log(&[
            (0, 1, "/d/a.html"),
            (1, 1, "/d/b.gif"),
            (5000, 1, "/d/b.gif"),
            (5001, 1, "/d/a.html"),
        ]);
        let changes = vec![ChangeEvent {
            time: ts(10),
            resource: log.table.lookup("/d/a.html").unwrap(),
        }];
        let refresh = |refresh_invalidated| ProxySimConfig {
            prefetch: Some(PrefetchConfig {
                max_size: None,
                max_per_message: 4,
                refresh_invalidated,
            }),
            ..Default::default()
        };
        let report = run(&log, &changes, &refresh(true));
        assert_eq!(report.piggyback_invalidations, 1);
        assert_eq!(report.prefetches, 1, "a fetched again off the invalidation");
        assert_eq!(report.fresh_hits, 1, "a@5001 hit the refreshed copy");
        assert_eq!(report.useful_prefetches, 1);
        assert_eq!(report.stale_served, 0);

        let without = run(&log, &changes, &refresh(false));
        assert_eq!(without.piggyback_invalidations, 1);
        assert_eq!((without.prefetches, without.fresh_hits), (0, 0));
        assert_eq!(
            without.full_fetches,
            report.full_fetches + 1,
            "a@5001 misses"
        );
    }
}

#[cfg(test)]
mod delta_tests {
    use super::*;
    use piggyback_core::types::SourceId;
    use piggyback_core::volume::DirectoryVolumes;
    use piggyback_trace::record::{Method, ServerLogEntry};
    use piggyback_trace::ServerLog;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    /// Fetch, modify, validate: with delta encoding the refetch moves only
    /// a fraction of the body.
    #[test]
    fn delta_encoding_shrinks_modified_transfers() {
        let mut log = ServerLog {
            name: "delta".into(),
            ..Default::default()
        };
        let a = log
            .table
            .register_path("/d/a.html", 10_000, Timestamp::ZERO);
        for t in [0u64, 4000] {
            log.entries.push(ServerLogEntry {
                time: ts(t),
                client: SourceId(1),
                resource: a,
                method: Method::Get,
                status: 200,
                bytes: 10_000,
            });
        }
        let changes = vec![ChangeEvent {
            time: ts(100),
            resource: a,
        }];

        let run = |delta: Option<f64>| {
            let mut server = build_server(&log, DirectoryVolumes::new(1));
            let cfg = ProxySimConfig {
                delta_encoding: delta,
                ..Default::default()
            };
            simulate_proxy(&log, &changes, &mut server, &cfg)
        };

        let full = run(None);
        assert_eq!(full.bytes_from_server, 20_000);
        assert_eq!(full.delta_responses, 0);

        let delta = run(Some(0.15));
        // First fetch full (10k), refetch as delta (1.5k).
        assert_eq!(delta.bytes_from_server, 11_500);
        assert_eq!(delta.delta_responses, 1);
        assert_eq!(delta.delta_bytes_saved, 8_500);
        assert_eq!(delta.full_fetches, full.full_fetches);
    }

    /// Misses (no old copy) always transfer the full body.
    #[test]
    fn delta_does_not_apply_to_cold_fetches() {
        let mut log = ServerLog {
            name: "delta2".into(),
            ..Default::default()
        };
        let a = log.table.register_path("/d/a.html", 5_000, Timestamp::ZERO);
        log.entries.push(ServerLogEntry {
            time: ts(0),
            client: SourceId(1),
            resource: a,
            method: Method::Get,
            status: 200,
            bytes: 5_000,
        });
        let mut server = build_server(&log, DirectoryVolumes::new(1));
        let cfg = ProxySimConfig {
            delta_encoding: Some(0.1),
            ..Default::default()
        };
        let report = simulate_proxy(&log, &[], &mut server, &cfg);
        assert_eq!(report.bytes_from_server, 5_000);
        assert_eq!(report.delta_responses, 0);
    }
}

#[cfg(test)]
mod byte_hit_tests {
    use super::*;
    use piggyback_core::types::SourceId;
    use piggyback_core::volume::DirectoryVolumes;
    use piggyback_trace::record::{Method, ServerLogEntry};
    use piggyback_trace::ServerLog;

    #[test]
    fn byte_hit_rate_counts_cache_served_bytes() {
        let mut log = ServerLog {
            name: "bytes".into(),
            ..Default::default()
        };
        let a = log.table.register_path("/d/a.html", 4_000, Timestamp::ZERO);
        for t in [0u64, 10, 20, 30] {
            log.entries.push(ServerLogEntry {
                time: Timestamp::from_secs(t),
                client: SourceId(1),
                resource: a,
                method: Method::Get,
                status: 200,
                bytes: 4_000,
            });
        }
        let mut server = build_server(&log, DirectoryVolumes::new(1));
        let report = simulate_proxy(&log, &[], &mut server, &ProxySimConfig::default());
        // One 4 kB fetch serves four 4 kB responses: byte hit rate 75%.
        assert_eq!(report.bytes_from_server, 4_000);
        assert_eq!(report.bytes_to_clients, 16_000);
        assert!((report.byte_hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn byte_hit_rate_zero_without_traffic() {
        assert_eq!(ProxySimReport::default().byte_hit_rate(), 0.0);
    }
}

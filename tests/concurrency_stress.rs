//! Concurrency stress suite for the sharded proxy (ISSUE tentpole proof).
//!
//! M client threads × K requests hammer a live origin ↔ proxy chain over
//! real loopback TCP. The suite proves three things:
//!
//! 1. **Liveness** — no deadlock, no panic, every request answered (a
//!    watchdog aborts the process if a scenario wedges);
//! 2. **Exact conservation** — lock-free counters still add up when
//!    quiescent: `requests == fresh_hits + not_modified + full_fetches +
//!    upstream_errors + upstream_passthrough` on the proxy, and the
//!    origin's own daemon counter sees exactly
//!    `requests - fresh_hits + upstream_retries` upstream exchanges;
//! 3. **Byte identity** — every 200 body is byte-identical to what the
//!    origin serves directly, no interleaving corruption.
//!
//! The origin lanes below hold the origin's piggybacks byte-identical to
//! the socket-free `PiggybackServer` fed the same schedule.

use piggyback::core::datetime::{
    format_rfc1123, parse_rfc1123, timestamp_from_unix, DEFAULT_TRACE_EPOCH_UNIX,
};
use piggyback::core::filter::{ProxyFilter, PIGGY_FILTER_HEADER};
use piggyback::core::intern::directory_prefix;
use piggyback::core::server::PiggybackServer;
use piggyback::core::types::{DurationMs, SourceId, Timestamp};
use piggyback::core::volume::{
    write_volumes, DirectoryVolumes, ProbabilityVolumesBuilder, SamplingMode, VolumeProvider,
};
use piggyback::core::wire::encode_p_volume;
use piggyback::proxyd::client::HttpClient;
use piggyback::proxyd::netem::{NetProfile, ShimConfig};
use piggyback::proxyd::origin::{start_origin, OriginConfig, OriginHandle, VolumeScheme};
use piggyback::proxyd::proxy::{start_proxy, ProxyConfig, ProxyHandle};
use piggyback::proxyd::record_tap::{start_recorder, RecorderConfig};
use piggyback::proxyd::replay_origin::{start_replay_origin, ReplayConfig, ReplayTiming};
use piggyback::proxyd::volume_center::{start_volume_center, VolumeCenterConfig};
use piggyback::proxyd::{DaemonStats, IoMode, ProxyStats};
use piggyback::trace::synth::samplers::LogNormal;
use piggyback::trace::synth::site::{Site, SiteConfig};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 16;

/// Abort (don't hang CI) if a stress scenario deadlocks.
fn watchdog(limit: Duration) -> Arc<AtomicBool> {
    let done = Arc::new(AtomicBool::new(false));
    let done2 = Arc::clone(&done);
    std::thread::spawn(move || {
        let start = Instant::now();
        while start.elapsed() < limit {
            std::thread::sleep(Duration::from_millis(100));
            if done2.load(Ordering::SeqCst) {
                return;
            }
        }
        eprintln!("watchdog: stress scenario exceeded {limit:?} — deadlock?");
        std::process::exit(101);
    });
    done
}

fn start_chain(freshness: DurationMs) -> (OriginHandle, ProxyHandle) {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let mut cfg = ProxyConfig::new(origin.addr());
    cfg.shards = 8;
    cfg.freshness = freshness;
    cfg.capacity_bytes = 64 * 1024 * 1024; // ample: eviction never drops bodies
    cfg.serve.workers = 64; // persistent client conns pin workers
    (origin, start_proxy(cfg).unwrap())
}

/// Ground truth straight from the origin, before any proxy traffic.
fn reference_bodies(origin: SocketAddr, paths: &[String]) -> HashMap<String, Vec<u8>> {
    let mut client = HttpClient::connect(origin).unwrap();
    paths
        .iter()
        .map(|p| {
            let resp = client.get(p, &[]).unwrap();
            assert_eq!(resp.status, 200);
            (p.clone(), resp.body.to_vec())
        })
        .collect()
}

/// Run `clients` threads × `per_client` GETs against `proxy`, asserting
/// status 200 and byte-identity against `reference`. Returns elapsed time.
fn drive(
    proxy: SocketAddr,
    paths: &[String],
    reference: &HashMap<String, Vec<u8>>,
    clients: usize,
    per_client: usize,
) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                s.spawn(move || {
                    let mut client = HttpClient::connect(proxy).unwrap();
                    for i in 0..per_client {
                        // Stride by a prime so threads desynchronize and
                        // every shard sees contention.
                        let path = &paths[(t * 7 + i) % paths.len()];
                        let resp = client
                            .get(path, &[])
                            .unwrap_or_else(|e| panic!("client {t} req {i} ({path}): {e:?}"));
                        assert_eq!(resp.status, 200, "client {t} req {i} ({path})");
                        assert_eq!(
                            resp.body, reference[path],
                            "client {t} req {i}: body corrupted for {path}"
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    start.elapsed()
}

/// The lock-free counters must balance exactly once traffic quiesces.
fn assert_conserved(s: &ProxyStats, expected_requests: u64) {
    assert_eq!(s.requests, expected_requests);
    assert_eq!(
        s.outcomes(),
        s.requests,
        "outcome counters must conserve requests exactly: {s:?}"
    );
    assert_eq!(s.upstream_errors, 0, "healthy origin: {s:?}");
    assert_eq!(s.upstream_passthrough, 0, "healthy origin: {s:?}");
}

/// Cross-daemon accounting: every proxy upstream exchange is a request
/// the origin's own (independent, lock-free) counter saw.
fn assert_origin_accounting(s: &ProxyStats, before: &DaemonStats, after: &DaemonStats) {
    let seen_by_origin = after.requests - before.requests;
    let sent_by_proxy = s.requests - s.fresh_hits + s.upstream_retries;
    assert_eq!(
        seen_by_origin, sent_by_proxy,
        "origin-side request count must match proxy-side upstream exchanges: {s:?}"
    );
}

#[test]
fn sixteen_clients_conserve_counters_exactly() {
    let done = watchdog(Duration::from_secs(120));
    let (origin, proxy) = start_chain(DurationMs::from_secs(60));
    let paths: Vec<String> = origin.paths();
    let reference = reference_bodies(origin.addr(), &paths);
    let baseline = origin.daemon_stats();

    const PER_CLIENT: usize = 25;
    drive(proxy.addr(), &paths, &reference, CLIENTS, PER_CLIENT);

    let s = proxy.stats();
    assert_conserved(&s, (CLIENTS * PER_CLIENT) as u64);
    assert!(s.fresh_hits > 0, "Δ=60s workload must hit the cache: {s:?}");
    assert_origin_accounting(&s, &baseline, &origin.daemon_stats());

    proxy.stop();
    origin.stop();
    done.store(true, Ordering::SeqCst);
}

#[test]
fn validation_heavy_load_conserves_and_pools() {
    let done = watchdog(Duration::from_secs(120));
    // Δ=1ms: virtually every repeat revalidates upstream, exercising the
    // connection pool on nearly every request.
    let (origin, proxy) = start_chain(DurationMs::from_millis(1));
    let paths: Vec<String> = origin.paths();
    let reference = reference_bodies(origin.addr(), &paths);
    let baseline = origin.daemon_stats();

    const PER_CLIENT: usize = 15;
    drive(proxy.addr(), &paths, &reference, CLIENTS, PER_CLIENT);

    let s = proxy.stats();
    assert_conserved(&s, (CLIENTS * PER_CLIENT) as u64);
    assert!(s.not_modified > 0, "Δ=1ms workload must revalidate: {s:?}");
    assert_origin_accounting(&s, &baseline, &origin.daemon_stats());

    let pool = proxy.pool_stats().expect("the pool is unconditional");
    assert!(
        pool.reuses > 0,
        "validation-heavy load must reuse pooled origin connections: {pool:?}"
    );

    proxy.stop();
    origin.stop();
    done.store(true, Ordering::SeqCst);
}

#[test]
fn small_cache_thrash_stays_live_and_conserved() {
    let done = watchdog(Duration::from_secs(120));
    let origin = start_origin(OriginConfig::default()).unwrap();
    let mut cfg = ProxyConfig::new(origin.addr());
    cfg.shards = 4;
    cfg.capacity_bytes = 16 * 1024; // force constant eviction across shards
    cfg.serve.workers = 64;
    let proxy = start_proxy(cfg).unwrap();
    let paths: Vec<String> = origin.paths();
    let reference = reference_bodies(origin.addr(), &paths);

    const PER_CLIENT: usize = 15;
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let paths = &paths;
            let reference = &reference;
            let addr = proxy.addr();
            s.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for i in 0..PER_CLIENT {
                    let path = &paths[(t * 7 + i) % paths.len()];
                    let resp = client.get(path, &[]).unwrap();
                    assert_eq!(resp.status, 200);
                    // Under thrash a validated entry can race an eviction
                    // and serve the empty body (the seed did the same);
                    // what it must never serve is a *wrong* body.
                    assert!(
                        resp.body.is_empty() || resp.body == reference[path],
                        "corrupted body for {path}"
                    );
                }
            });
        }
    });

    let s = proxy.stats();
    assert_conserved(&s, (CLIENTS * PER_CLIENT) as u64);
    proxy.stop();
    origin.stop();
    done.store(true, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Origin-only lane: the de-serialized origin hot path (read-mostly snapshot,
// atomic stats, piggybacks built per response). Same three proofs as the
// proxy lane: liveness, exact conservation of the server ledger (`requests ==
// piggybacks_sent + suppressed + no_filter`) under concurrent `/_pb/modify`
// and metrics scrapes on both I/O engines, and piggyback content
// byte-identical to the socket-free `PiggybackServer` reference.
// ---------------------------------------------------------------------------

/// Pull one `name value` field out of a `/_pb/stats` body.
fn stats_field(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|r| r.strip_prefix(' '))
                .and_then(|r| r.trim().parse().ok())
        })
        .unwrap_or_else(|| panic!("missing `{name}` in stats body:\n{body}"))
}

/// 16 clients with a mixed workload (filtered, filter-less, 404, and
/// If-Modified-Since requests) racing a `/_pb/modify` mutator and a
/// stats/metrics scraper. At quiescence every ledger must balance exactly,
/// on either I/O engine.
fn origin_conservation_run(io: IoMode) {
    let done = watchdog(Duration::from_secs(120));
    let origin = start_origin(OriginConfig {
        io,
        ..Default::default()
    })
    .unwrap();
    let paths = origin.paths();
    let addr = origin.addr();
    let churn_stop = Arc::new(AtomicBool::new(false));

    const PER_CLIENT: usize = 40; // divisible by 4: exact per-case counts
    let future_ims = format_rfc1123(DEFAULT_TRACE_EPOCH_UNIX + 1_000_000_000);

    std::thread::scope(|s| {
        // Mutator: Last-Modified bumps force table rebuilds (snapshot
        // swaps on the new path) while the serving path is under load.
        {
            let stop = Arc::clone(&churn_stop);
            let paths = &paths;
            s.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                let mut i = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let path = &paths[i % paths.len()];
                    let resp = client.get(&format!("/_pb/modify{path}"), &[]).unwrap();
                    assert_eq!(resp.status, 204, "modify {path}");
                    i += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        // Scraper: the observability surface must stay consistent while
        // the counters it reports on are being bumped.
        {
            let stop = Arc::clone(&churn_stop);
            s.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                while !stop.load(Ordering::SeqCst) {
                    let st = client.get("/_pb/stats", &[]).unwrap();
                    assert_eq!(st.status, 200);
                    let body = String::from_utf8(st.body.to_vec()).unwrap();
                    // Mid-flight reads may lag individual counters but must
                    // never *overshoot* the requests they account for.
                    let requests = stats_field(&body, "requests");
                    let outcomes = stats_field(&body, "piggybacks_sent")
                        + stats_field(&body, "suppressed")
                        + stats_field(&body, "no_filter");
                    assert!(
                        outcomes <= requests + (CLIENTS as u64),
                        "scraped outcomes ran far ahead of requests:\n{body}"
                    );
                    let m = client.get("/__pb/metrics", &[]).unwrap();
                    assert_eq!(m.status, 200);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        let clients: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let paths = &paths;
                let future_ims = future_ims.as_str();
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    for i in 0..PER_CLIENT {
                        let path = &paths[(t * 7 + i) % paths.len()];
                        match i % 4 {
                            0 => {
                                let resp = client
                                    .get(
                                        path,
                                        &[("Piggy-filter", "maxpiggy=10"), ("TE", "chunked")],
                                    )
                                    .unwrap();
                                assert_eq!(resp.status, 200, "client {t} req {i} ({path})");
                            }
                            1 => {
                                let resp = client.get(path, &[]).unwrap();
                                assert_eq!(resp.status, 200, "client {t} req {i} ({path})");
                                assert!(
                                    resp.headers.get("P-volume").is_none(),
                                    "no filter must mean no piggyback ({path})"
                                );
                            }
                            2 => {
                                let resp = client
                                    .get(
                                        "/definitely/not/registered.html",
                                        &[("Piggy-filter", "maxpiggy=10")],
                                    )
                                    .unwrap();
                                assert_eq!(resp.status, 404, "client {t} req {i}");
                                assert!(
                                    resp.headers.get("P-volume").is_none()
                                        && resp.trailers.get("P-volume").is_none(),
                                    "a 404 must never carry P-volume"
                                );
                            }
                            _ => {
                                let resp = client
                                    .get(
                                        path,
                                        &[
                                            ("Piggy-filter", "maxpiggy=10"),
                                            ("If-Modified-Since", future_ims),
                                        ],
                                    )
                                    .unwrap();
                                assert_eq!(resp.status, 304, "client {t} req {i} ({path})");
                            }
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        churn_stop.store(true, Ordering::SeqCst);
    });

    // The server ledger counts exactly the resolved GETs: 404s (one in
    // four requests) never enter it, everything else lands in exactly one
    // outcome bucket.
    let s = origin.stats();
    let issued = (CLIENTS * PER_CLIENT) as u64;
    assert_eq!(s.requests, issued * 3 / 4, "{io:?}: {s:?}");
    assert_eq!(
        s.outcomes(),
        s.requests,
        "server ledger must conserve exactly: {s:?}"
    );
    assert_eq!(s.piggybacks_sent + s.suppressed, issued / 2, "{s:?}");
    assert_eq!(s.no_filter, issued / 4, "{s:?}");
    assert!(
        origin.generation() > 0,
        "the mutator must have advanced the table generation"
    );

    // The HTTP surface reports the same ledger.
    let mut client = HttpClient::connect(addr).unwrap();
    let body = String::from_utf8(client.get("/_pb/stats", &[]).unwrap().body.to_vec()).unwrap();
    assert_eq!(stats_field(&body, "requests"), s.requests);
    assert_eq!(stats_field(&body, "piggybacks_sent"), s.piggybacks_sent);
    assert_eq!(stats_field(&body, "suppressed"), s.suppressed);
    assert_eq!(stats_field(&body, "no_filter"), s.no_filter);
    assert_eq!(stats_field(&body, "generation"), origin.generation());

    // Transport ledger: every counted request got exactly one response
    // (scrapes of /__pb/metrics are intercepted before the counters).
    let d = origin.daemon_stats();
    assert_eq!(
        d.requests,
        d.responses_ok + d.responses_not_modified + d.responses_error,
        "daemon ledger must conserve: {d:?}"
    );

    origin.stop();
    done.store(true, Ordering::SeqCst);
}

#[test]
fn origin_sixteen_clients_conserve_with_concurrent_modify() {
    origin_conservation_run(IoMode::Threaded);
}

#[test]
fn origin_reactor_lane_conserves_with_concurrent_modify() {
    origin_conservation_run(IoMode::Reactor { reactors: 2 });
}

/// One step of the deterministic piggyback-identity schedule.
enum Step {
    Get(String),
    Modify(String),
}

/// Run `schedule` single-threaded against a fresh origin and, step for
/// step, against `reference` — the socket-free server fed the site's
/// resources in registration order and each access at its own timestamp
/// — requiring byte-identical `P-volume`s (trailer or header). Returns
/// the origin's piggybacks.
fn assert_piggybacks_match<V: VolumeProvider>(
    cfg: OriginConfig,
    mut reference: PiggybackServer<V>,
    schedule: &[Step],
    spacing: Duration,
) -> Vec<Option<String>> {
    let (table, _) = Site::generate(&cfg.site);
    for (_, path, meta) in table.iter() {
        reference.register(path, meta.size, Timestamp::ZERO, meta.content_type);
    }
    let filter = ProxyFilter::parse("maxpiggy=10").unwrap();
    let origin = start_origin(cfg).unwrap();
    let mut client = HttpClient::connect(origin.addr()).unwrap();
    let mut out = Vec::new();
    for (i, step) in schedule.iter().enumerate() {
        let now = Timestamp::from_millis(i as u64 + 1);
        match step {
            Step::Get(path) => {
                let resp = client
                    .get(path, &[("Piggy-filter", "maxpiggy=10"), ("TE", "chunked")])
                    .unwrap();
                assert_eq!(resp.status, 200, "{path}");
                let got = resp
                    .trailers
                    .get("P-volume")
                    .or_else(|| resp.headers.get("P-volume"))
                    .map(str::to_owned);
                let r = reference.table().lookup(path).unwrap();
                reference.record_access(r, SourceId(1), now);
                let want = reference
                    .piggyback(r, &filter, now)
                    .map(|msg| encode_p_volume(&msg, reference.table()).unwrap());
                assert_eq!(got, want, "step {i} (GET {path}): origin vs reference");
                out.push(got);
            }
            Step::Modify(path) => {
                let resp = client.get(&format!("/_pb/modify{path}"), &[]).unwrap();
                assert_eq!(resp.status, 204, "modify {path}");
                // The origin stamps the bump by its own clock: read it back
                // with a plain GET, which the reference records too.
                let resp = client.get(path, &[]).unwrap();
                let lm = parse_rfc1123(resp.headers.get("Last-Modified").unwrap()).unwrap();
                let r = reference.table().lookup(path).unwrap();
                reference.touch_modified(r, timestamp_from_unix(lm, DEFAULT_TRACE_EPOCH_UNIX));
                reference.record_access(r, SourceId(1), now);
            }
        }
        if !spacing.is_zero() {
            std::thread::sleep(spacing);
        }
    }
    origin.stop();
    out
}

/// Probability volumes are recency-independent, so the origin must produce
/// piggybacks *byte-identical* to the reference's for an identical request
/// schedule, across a `/_pb/modify` generation bump.
#[test]
fn origin_piggybacks_byte_identical_probability_lane() {
    let done = watchdog(Duration::from_secs(60));
    let site_cfg = SiteConfig {
        n_pages: 60,
        ..Default::default()
    };

    // Persist three disjoint learned implications: page0 -> page1,
    // page2 -> page3, page4 -> page5, each with p = 1.0 (occurrences
    // spaced beyond the co-access window so every occurrence earns its
    // credit).
    let (table, site) = Site::generate(&site_cfg);
    let mut builder =
        ProbabilityVolumesBuilder::new(DurationMs::from_secs(300), 0.1, SamplingMode::Exact);
    for (pair, lead) in [0usize, 2, 4].into_iter().enumerate() {
        let a = site.pages[lead].resource;
        let b = site.pages[lead + 1].resource;
        for k in 0..10u64 {
            let base = Timestamp::from_secs((pair as u64 * 1_000 + k) * 10_000);
            builder.observe(SourceId(1), a, base);
            builder.observe(SourceId(1), b, base + DurationMs::from_secs(2));
        }
    }
    let vols = builder.build(0.5);
    let file = std::env::temp_dir().join(format!("pb-stress-vols-{}.txt", std::process::id()));
    write_volumes(&vols, &table, &mut std::fs::File::create(&file).unwrap()).unwrap();
    let page = |i: usize| table.path(site.pages[i].resource).unwrap().to_owned();

    // Five rounds over the three leaders, with a Last-Modified bump on
    // page1 after the first round: responses 0..3 are generation 0,
    // responses 3..15 must reflect the bump.
    let mut schedule = Vec::new();
    for lead in [0usize, 2, 4] {
        schedule.push(Step::Get(page(lead)));
    }
    schedule.push(Step::Modify(page(1)));
    for _ in 0..4 {
        for lead in [0usize, 2, 4] {
            schedule.push(Step::Get(page(lead)));
        }
    }

    let cfg = OriginConfig {
        site: site_cfg.clone(),
        volumes: VolumeScheme::ProbabilityFile(file.clone()),
        ..Default::default()
    };
    let pv = assert_piggybacks_match(cfg, PiggybackServer::new(vols), &schedule, Duration::ZERO);

    // The schedule actually exercised piggybacks and the generation bump.
    let p1 = page(1);
    assert!(
        pv[0].as_deref().is_some_and(|pv| pv.contains(p1.as_str())),
        "page0's response must piggyback page1: {:?}",
        pv[0]
    );
    assert_ne!(
        pv[0], pv[3],
        "page1's Last-Modified bump must change page0's piggyback"
    );
    assert_eq!(
        pv[3], pv[6],
        "piggybacks must be stable between modifications"
    );
    let _ = std::fs::remove_file(&file);
    done.store(true, Ordering::SeqCst);
}

/// Directory volumes order piggybacks by access recency, so with requests
/// spaced past the clock's millisecond granularity the origin's
/// recency-sorted order must agree byte-for-byte with the reference's
/// move-to-front order over distinct timestamps.
#[test]
fn origin_piggybacks_byte_identical_directory_lane() {
    let done = watchdog(Duration::from_secs(60));
    let cfg = OriginConfig::default();

    // Pick the first 1-level directory (in registration order, identical
    // across runs) with at least three members.
    let (table, _) = Site::generate(&cfg.site);
    let paths: Vec<&str> = table.iter().map(|(_, p, _)| p).collect();
    let mut dirs: Vec<(&str, Vec<&str>)> = Vec::new();
    for &p in &paths {
        let d = directory_prefix(p, 1);
        match dirs.iter_mut().find(|(k, _)| *k == d) {
            Some((_, v)) => v.push(p),
            None => dirs.push((d, vec![p])),
        }
    }
    let members: Vec<String> = dirs
        .iter()
        .map(|(_, v)| v)
        .find(|v| v.len() >= 3)
        .expect("some directory has three resources")
        .iter()
        .take(3)
        .map(|p| (*p).to_owned())
        .collect();

    // Warm each member, shuffle the recency order, then collect the
    // piggybacks. 3ms spacing keeps every access on a distinct
    // millisecond so recency ordering is deterministic.
    let mut schedule: Vec<Step> = members.iter().cloned().map(Step::Get).collect();
    schedule.push(Step::Get(members[0].clone()));
    for m in &members {
        schedule.push(Step::Get(m.clone()));
    }

    let spacing = Duration::from_millis(3);
    let reference = PiggybackServer::new(DirectoryVolumes::new(1));
    let pv = assert_piggybacks_match(cfg, reference, &schedule, spacing);
    assert!(
        pv.iter().filter(|p| p.is_some()).count() >= 3,
        "the schedule must actually produce piggybacks: {pv:?}"
    );
    done.store(true, Ordering::SeqCst);
}

// ---------------------------------------------------------------------------
// Prefetch lane: demand fetches racing the speculative crew. The
// exactly-one-origin-fetch guarantee of `Prefetcher::claim` (a queued
// speculation is cancelled, an on-the-wire one is joined: the demand waits
// on it and serves what landed) is proved
// by cross-daemon accounting: the origin's independent request counter
// must equal the proxy's demand exchanges plus its speculative ones, with
// no duplicates. The speculation ledger itself must conserve exactly:
// `prefetch_issued == prefetch_used + prefetch_wasted + prefetch_inflight`.
// ---------------------------------------------------------------------------

/// Wait until the prefetch crew drains (its counters stop moving), then
/// return the quiescent stats snapshot. Demand traffic has already
/// stopped; only speculative fetches can still be in flight.
fn quiesce_prefetcher(proxy: &ProxyHandle) -> ProxyStats {
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut prev = proxy.stats();
    loop {
        std::thread::sleep(Duration::from_millis(150));
        let cur = proxy.stats();
        let key = |s: &ProxyStats| {
            (
                s.prefetch_issued,
                s.prefetch_used,
                s.prefetch_wasted,
                s.prefetch_cancelled,
            )
        };
        if key(&cur) == key(&prev) {
            return cur;
        }
        assert!(
            Instant::now() < deadline,
            "prefetch crew did not quiesce: {cur:?}"
        );
        prev = cur;
    }
}

/// [`assert_origin_accounting`] extended for an active prefetcher: every
/// speculative fetch (and its retry) is one more exchange the origin saw,
/// and a demand that cancelled or joined a speculation adds nothing.
fn assert_prefetch_origin_accounting(s: &ProxyStats, before: &DaemonStats, after: &DaemonStats) {
    let seen_by_origin = after.requests - before.requests;
    let sent_by_proxy =
        s.requests - s.fresh_hits + s.upstream_retries + s.prefetch_issued + s.prefetch_retries;
    assert_eq!(
        seen_by_origin, sent_by_proxy,
        "a demand racing a speculation must cost exactly one origin fetch: {s:?}"
    );
}

/// 16 clients hammer a warmed origin through a prefetching proxy with no
/// think time, so demand fetches constantly race the speculative crew
/// (cancelling queued jobs, joining in-flight ones, deduping installed
/// entries). Driven in rounds until the race is observed both ways.
fn prefetch_race_run(io: IoMode) {
    let done = watchdog(Duration::from_secs(120));
    let origin = start_origin(OriginConfig::default()).unwrap();
    let paths: Vec<String> = origin.paths();
    // Ground truth doubles as the origin warm-up: piggybacks only name
    // volume mates with recorded accesses, so a cold origin would give
    // the prefetcher nothing to race against.
    let reference = reference_bodies(origin.addr(), &paths);
    let baseline = origin.daemon_stats();

    let mut cfg = ProxyConfig::new(origin.addr());
    cfg.shards = 8;
    cfg.freshness = DurationMs::from_secs(60);
    cfg.capacity_bytes = 64 * 1024 * 1024;
    cfg.serve.workers = 64;
    cfg.prefetch_budget = 4;
    cfg.io = io;
    let proxy = start_proxy(cfg).unwrap();

    const PER_CLIENT: usize = 25;
    let mut rounds = 0u64;
    let s = loop {
        drive(proxy.addr(), &paths, &reference, CLIENTS, PER_CLIENT);
        rounds += 1;
        let s = quiesce_prefetcher(&proxy);
        // The race must have materialized at least once in either
        // direction — a speculation used by a demand, or a queued one
        // cancelled by it — before the ledger means anything.
        if s.prefetch_used + s.prefetch_cancelled > 0 || rounds == 10 {
            break s;
        }
    };

    assert_conserved(&s, rounds * (CLIENTS * PER_CLIENT) as u64);
    assert!(s.prefetch_issued > 0, "warmed origin must speculate: {s:?}");
    assert!(
        s.prefetch_used + s.prefetch_cancelled > 0,
        "no demand ever raced a speculation in {rounds} rounds: {s:?}"
    );
    assert_eq!(
        s.prefetch_issued,
        s.prefetch_used + s.prefetch_wasted + s.prefetch_inflight,
        "speculation ledger must conserve exactly: {s:?}"
    );
    assert_prefetch_origin_accounting(&s, &baseline, &origin.daemon_stats());

    proxy.stop();
    origin.stop();
    done.store(true, Ordering::SeqCst);
}

#[test]
fn prefetch_demand_race_costs_one_origin_fetch_threaded() {
    prefetch_race_run(IoMode::Threaded);
}

#[test]
fn prefetch_demand_race_costs_one_origin_fetch_reactor() {
    prefetch_race_run(IoMode::Reactor { reactors: 2 });
}

// ---------------------------------------------------------------------------
// Recorded-timing lane: the prefetch win must survive `ReplayTiming::
// Recorded` — real recorded TTFBs replayed faithfully, not loopback's
// microseconds. An inventory is captured through the record tap behind a
// shimmed link, then both arms replay against it.
// ---------------------------------------------------------------------------

/// A small site whose directories fit entirely under `maxpiggy`, so every
/// index piggyback names all of its directory mates and page-load
/// coverage is deterministic.
fn small_site() -> SiteConfig {
    SiteConfig {
        n_pages: 12,
        n_dirs: 4,
        max_depth: 1,
        images_per_page: (0, 0),
        shared_images: 0,
        links_per_page: (1, 2),
        page_size: LogNormal::new(900.0f64.ln(), 0.3),
        seed: 11,
        ..Default::default()
    }
}

/// Per-directory page loads over `paths`: directories with at least two
/// members, each an index plus its mates.
fn dir_pages(paths: &[String]) -> Vec<Vec<String>> {
    let mut dirs: Vec<(&str, Vec<String>)> = Vec::new();
    for p in paths {
        let d = directory_prefix(p, 1);
        match dirs.iter_mut().find(|(k, _)| *k == d) {
            Some((_, v)) => v.push(p.clone()),
            None => dirs.push((d, vec![p.clone()])),
        }
    }
    dirs.retain(|(_, v)| v.len() >= 2);
    dirs.into_iter().map(|(_, v)| v).collect()
}

/// Replay one arm against the recorded inventory and return the mean mate
/// latency plus the proxy's quiescent stats. `budget > 0` enables the
/// prefetcher (with a filter soliciting piggybacks); `budget == 0` is the
/// no-piggyback baseline.
fn replay_page_loads(
    inv: &Arc<piggyback::trace::inventory::Inventory>,
    pages: &[Vec<String>],
    budget: usize,
    think: Duration,
) -> (Duration, ProxyStats) {
    let replay = start_replay_origin(ReplayConfig {
        port: 0,
        inventory: Arc::clone(inv),
        timing: ReplayTiming::Recorded { scale: 1.0 },
    })
    .unwrap();
    let mut cfg = ProxyConfig::new(replay.addr());
    cfg.shards = 4;
    cfg.freshness = DurationMs::from_secs(60);
    cfg.rpv = None;
    cfg.report_hits = false;
    cfg.filter = ProxyFilter::builder()
        .max_piggy(if budget > 0 { 10 } else { 0 })
        .build();
    cfg.prefetch_budget = budget;
    let proxy = start_proxy(cfg).unwrap();

    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    let mut mate_total = Duration::ZERO;
    let mut mates = 0u32;
    for page in pages {
        let (index, rest) = page.split_first().unwrap();
        let resp = client.get(index, &[]).unwrap();
        assert_eq!(resp.status, 200, "{index}");
        std::thread::sleep(think);
        for m in rest {
            let t = Instant::now();
            let resp = client.get(m, &[]).unwrap();
            mate_total += t.elapsed();
            mates += 1;
            assert_eq!(resp.status, 200, "{m}");
        }
    }
    let s = quiesce_prefetcher(&proxy);
    assert_eq!(
        s.prefetch_issued,
        s.prefetch_used + s.prefetch_wasted + s.prefetch_inflight,
        "speculation ledger must conserve under recorded timing: {s:?}"
    );
    let divergences = replay.stats().divergences;
    assert_eq!(
        divergences, 0,
        "every demand and speculative fetch must match the recording"
    );
    proxy.stop();
    replay.stop();
    (mate_total / mates.max(1), s)
}

/// Record a page-load workload through a shimmed link (30 ms RTT), then
/// replay it with recorded timing against a prefetching proxy and the
/// no-piggyback baseline. The prefetch arm's mates must hit the cache and
/// beat the baseline's recorded round trips — the paper's latency win,
/// reproduced off loopback.
#[test]
fn prefetch_win_survives_recorded_timing() {
    let done = watchdog(Duration::from_secs(120));
    let origin = start_origin(OriginConfig {
        site: small_site(),
        ..Default::default()
    })
    .unwrap();
    // Warm every path first (piggybacks only name accessed mates), then
    // record the full walk through a 30 ms-RTT shimmed relay so every
    // entry carries a real TTFB for `ReplayTiming::Recorded` to honor.
    {
        let mut c = HttpClient::connect(origin.addr()).unwrap();
        for p in &origin.paths() {
            assert_eq!(c.get(p, &[]).unwrap().status, 200);
        }
    }
    let profile = NetProfile {
        name: "stress-recorded",
        rtt: Duration::from_millis(30),
        jitter: Duration::ZERO,
        down_bps: 0,
        up_bps: 0,
        error_rate: 0.0,
    };
    let center = start_volume_center(VolumeCenterConfig {
        port: 0,
        origin: origin.addr(),
        volume_level: 1,
        shim: Some(ShimConfig { profile, seed: 7 }),
        transparent: true,
    })
    .unwrap();
    let rec = start_recorder(RecorderConfig {
        port: 0,
        origin: center.addr(),
    })
    .unwrap();
    {
        let mut c = HttpClient::connect(rec.addr()).unwrap();
        for p in &origin.paths() {
            let resp = c
                .get(
                    p,
                    &[("TE", "chunked"), (PIGGY_FILTER_HEADER, "maxpiggy=10")],
                )
                .unwrap();
            assert_eq!(resp.status, 200, "recording {p}");
        }
    }
    let inv = Arc::new(rec.finish("stress-recorded"));
    center.stop();
    origin.stop();
    assert!(
        inv.entries.iter().any(|e| e.ttfb_us >= 10_000),
        "the shimmed recording must carry real TTFBs"
    );
    assert!(
        inv.entries.iter().any(|e| e.piggyback.is_some()),
        "the warmed recording must carry piggybacks"
    );

    let pages = dir_pages(&inv.paths());
    assert!(!pages.is_empty(), "small site must have multi-member dirs");
    // Think long enough for a budget-4 crew to clear a directory's mates
    // over the recorded 30 ms TTFBs.
    let think = Duration::from_millis(300);
    let (nopb_mate, nopb_stats) = replay_page_loads(&inv, &pages, 0, think);
    let (pf_mate, pf_stats) = replay_page_loads(&inv, &pages, 4, think);

    assert_eq!(nopb_stats.prefetch_issued, 0, "baseline must not speculate");
    assert!(
        pf_stats.prefetch_used > 0,
        "the prefetch arm must serve mates speculatively: {pf_stats:?}"
    );
    println!(
        "recorded-timing mate latency: nopb={nopb_mate:?} prefetch={pf_mate:?} \
         (used={} issued={})",
        pf_stats.prefetch_used, pf_stats.prefetch_issued
    );
    assert!(
        pf_mate * 2 < nopb_mate,
        "prefetch must at least halve mean mate latency under recorded \
         timing: prefetch={pf_mate:?} nopb={nopb_mate:?}"
    );
    done.store(true, Ordering::SeqCst);
}

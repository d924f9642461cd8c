//! Replay determinism against the committed reference inventory
//! (`crates/trace/testdata/reference.inv`): driving the same request
//! stream through the replay origin twice, and at 1 vs 16 client threads,
//! must yield byte-identical response streams and an exactly equal stats
//! ledger. This is what makes every latency claim in `ext-netprofile`
//! reproducible off loopback — the origin's behavior cannot depend on
//! wall clock, arrival order, or thread interleaving.

use piggyback::core::types::DurationMs;
use piggyback::httpwire::{Request, Response};
use piggyback::proxyd::client::HttpClient;
use piggyback::proxyd::proxy::{start_proxy, ProxyConfig, ProxyStats};
use piggyback::proxyd::replay_origin::{
    start_replay_origin, ReplayConfig, ReplayHandle, ReplayStats, ReplayTiming, DIVERGENCE_HEADER,
};
use piggyback::proxyd::IoMode;
use piggyback::trace::inventory::{reference_inventory_path, Inventory};
use piggyback::trace::record::body_hash;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

fn reference() -> Arc<Inventory> {
    let inv = Inventory::load(&reference_inventory_path())
        .expect("committed reference inventory loads (run make-inventory to regenerate)");
    assert!(!inv.entries.is_empty());
    Arc::new(inv)
}

fn start(inv: &Arc<Inventory>) -> ReplayHandle {
    start_replay_origin(ReplayConfig {
        port: 0,
        inventory: Arc::clone(inv),
        timing: ReplayTiming::Immediate,
    })
    .expect("replay origin starts")
}

/// Everything a client observes about one path: full-fetch status, body
/// hash, `Last-Modified`, and the validation status at that LM.
type Observation = (u16, u64, String, u16);

/// Drive every recorded path twice — plain GET, then `If-Modified-Since`
/// at the recorded `Last-Modified` — across `threads` clients over
/// disjoint path partitions, and collect what each path's wire exchange
/// looked like.
fn drive(addr: SocketAddr, inv: &Inventory, threads: usize) -> BTreeMap<String, Observation> {
    let work: Vec<(String, String)> = inv
        .paths()
        .into_iter()
        .map(|path| {
            let lm = inv
                .entries
                .iter()
                .find(|e| e.path == path)
                .and_then(|e| e.response_header("Last-Modified"))
                .expect("every reference entry carries Last-Modified")
                .to_owned();
            (path, lm)
        })
        .collect();
    let maps: Vec<BTreeMap<String, Observation>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let work = &work;
                s.spawn(move || {
                    let mut client = HttpClient::connect(addr).unwrap();
                    let mut seen = BTreeMap::new();
                    for (path, lm) in work.iter().skip(t).step_by(threads) {
                        let full = client.get(path, &[]).unwrap();
                        let valid = client
                            .get(path, &[("If-Modified-Since", lm.as_str())])
                            .unwrap();
                        let observed_lm = full
                            .headers
                            .get("Last-Modified")
                            .unwrap_or_default()
                            .to_owned();
                        seen.insert(
                            path.clone(),
                            (
                                full.status,
                                body_hash(&full.body),
                                observed_lm,
                                valid.status,
                            ),
                        );
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut merged = BTreeMap::new();
    for m in maps {
        merged.extend(m);
    }
    merged
}

/// One complete run against a fresh replay origin: the observation map
/// plus the origin's final ledger.
fn run(inv: &Arc<Inventory>, threads: usize) -> (BTreeMap<String, Observation>, ReplayStats) {
    let replay = start(inv);
    let seen = drive(replay.addr(), inv, threads);
    let stats = replay.stats();
    replay.stop();
    (seen, stats)
}

#[test]
fn committed_inventory_parses_and_renders_fixed_point() {
    let inv = reference();
    let text = inv.to_text();
    let reparsed = Inventory::parse(&text).expect("committed inventory re-parses");
    assert_eq!(&reparsed, &*inv);
    assert_eq!(reparsed.to_text(), text, "rendering is a fixed point");
    // The replay tests below rely on every path having a 200 + LM.
    for e in &inv.entries {
        assert_eq!(e.status, 200, "{}", e.path);
        assert!(e.response_header("Last-Modified").is_some(), "{}", e.path);
    }
}

#[test]
fn replay_is_identical_across_repeats_and_thread_counts() {
    let inv = reference();
    let (seen_a, stats_a) = run(&inv, 1);
    let (seen_b, stats_b) = run(&inv, 1);
    let (seen_c, stats_c) = run(&inv, 16);

    // Byte-identical response streams: same status, same body bytes, same
    // validator, same 304 on revalidation — for every path, in every run.
    assert_eq!(seen_a, seen_b, "same stream twice must replay identically");
    assert_eq!(seen_a, seen_c, "concurrency must not change any response");
    for (path, (status, hash, _lm, valid)) in &seen_a {
        let entry = inv.entries.iter().find(|e| e.path == *path).unwrap();
        assert_eq!(*status, entry.status, "{path}");
        assert_eq!(
            *hash,
            entry.body_hash(),
            "{path}: body must be the recorded bytes"
        );
        assert_eq!(*valid, 304, "{path}: IMS at the recorded LM must validate");
    }

    // Exactly equal stats ledgers, and the conservation law holds.
    assert_eq!(stats_a, stats_b);
    assert_eq!(stats_a, stats_c, "ledger must not depend on thread count");
    let p = inv.paths().len() as u64;
    assert_eq!(stats_a.requests, 2 * p);
    assert_eq!(stats_a.served_200, p);
    assert_eq!(stats_a.served_304, p);
    assert_eq!(stats_a.divergences, 0);
    assert_eq!(stats_a.outcomes(), stats_a.requests);
}

#[test]
fn divergences_are_flagged_not_improvised() {
    let inv = reference();
    let replay = start(&inv);

    // A path the recording never saw.
    let mut client = HttpClient::connect(replay.addr()).unwrap();
    let resp = client.get("/__never_recorded__.html", &[]).unwrap();
    assert_eq!(resp.status, 500);
    assert_eq!(
        resp.headers.get(DIVERGENCE_HEADER),
        Some("unrecorded-request")
    );

    // A method the recording never saw, even on a recorded path.
    let recorded = inv.paths().remove(0);
    let stream = std::net::TcpStream::connect(replay.addr()).unwrap();
    let mut r = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut w = std::io::BufWriter::new(stream);
    let mut req = Request::new("POST", &recorded);
    req.headers.insert("Host", "t");
    req.headers.insert("Connection", "close");
    req.headers.insert("Content-Length", "0");
    req.write(&mut w).unwrap();
    let resp = Response::read(&mut r, false).unwrap();
    assert_eq!(resp.status, 500);
    assert_eq!(
        resp.headers.get(DIVERGENCE_HEADER),
        Some("unrecorded-request")
    );

    let s = replay.stats();
    assert_eq!(s.requests, 2);
    assert_eq!(s.divergences, 2);
    assert_eq!(s.outcomes(), s.requests);
    replay.stop();
}

/// Drive a proxy backed by the replay origin: each thread walks its
/// partition of the recorded paths twice in a row, so the first pass
/// full-fetches and the second is answered from the warm cache.
fn drive_proxy(inv: &Arc<Inventory>, threads: usize) -> ProxyStats {
    drive_proxy_io(inv, threads, IoMode::Threaded)
}

fn drive_proxy_io(inv: &Arc<Inventory>, threads: usize, io: IoMode) -> ProxyStats {
    let replay = start(inv);
    let mut cfg = ProxyConfig::new(replay.addr());
    cfg.freshness = DurationMs::from_millis(3_600_000);
    cfg.rpv = None;
    cfg.report_hits = false;
    cfg.io = io;
    let proxy = start_proxy(cfg).expect("proxy starts");
    let paths = inv.paths();
    std::thread::scope(|s| {
        for t in 0..threads {
            let paths = &paths;
            let addr = proxy.addr();
            s.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for _pass in 0..2 {
                    for path in paths.iter().skip(t).step_by(threads) {
                        let resp = client.get(path, &[]).unwrap();
                        assert_eq!(resp.status, 200, "{path}");
                    }
                }
            });
        }
    });
    let stats = proxy.stats();
    assert_eq!(replay.stats().divergences, 0);
    proxy.stop();
    replay.stop();
    stats
}

/// With piggyback payloads stripped from the inventory, the proxy's whole
/// ledger is a pure function of the request multiset — so 1 thread and 16
/// threads must land on the *exact same* `ProxyStats`. (With piggybacks
/// attached, the freshen/prefetch split depends on whether a volume-mate
/// is already cached when the payload arrives — classification order is
/// real concurrency, which is why the full-payload determinism claim is
/// made at the replay origin, not the proxy ledger.)
#[test]
fn proxy_ledger_is_thread_count_invariant_without_piggybacks() {
    let mut stripped = (*reference()).clone();
    for e in &mut stripped.entries {
        e.piggyback = None;
    }
    let stripped = Arc::new(stripped);

    let one = drive_proxy(&stripped, 1);
    let sixteen = drive_proxy(&stripped, 16);
    assert_eq!(one, sixteen, "ledger must not depend on client concurrency");

    let p = stripped.paths().len() as u64;
    assert_eq!(one.requests, 2 * p);
    assert_eq!(one.full_fetches, p);
    assert_eq!(one.fresh_hits, p, "second pass must be all warm hits");
    assert_eq!(one.upstream_errors, 0);
    assert_eq!(
        one.piggyback_messages, 0,
        "stripped inventory carries no pv"
    );
    assert_eq!(one.outcomes(), one.requests);
}

/// The I/O-mode invariance lane (ISSUE 7): the serving engine is not
/// allowed to leak into the ledger. With piggybacks stripped (so the
/// ledger is a pure function of the request multiset), the epoll reactor
/// and the threaded pool must land on the *exact same* `ProxyStats`, at
/// 1 client and at 16 — misses through the reactor's nonblocking upstream
/// leg and hits through its inline path included.
#[cfg(target_os = "linux")]
#[test]
fn proxy_ledger_is_io_mode_invariant() {
    let mut stripped = (*reference()).clone();
    for e in &mut stripped.entries {
        e.piggyback = None;
    }
    let stripped = Arc::new(stripped);
    const REACTOR: IoMode = IoMode::Reactor { reactors: 2 };

    for threads in [1, 16] {
        let threaded = drive_proxy_io(&stripped, threads, IoMode::Threaded);
        let reactor = drive_proxy_io(&stripped, threads, REACTOR);
        assert_eq!(
            threaded, reactor,
            "{threads}-client ledger must not depend on the I/O engine"
        );
        assert_eq!(reactor.outcomes(), reactor.requests);
    }
}

/// With the full inventory (piggybacks intact), the order-invariant parts
/// of the proxy ledger still must not depend on concurrency, and the
/// piggyback element classification must conserve: every element lands in
/// exactly one of freshen/invalidate/prefetch.
#[test]
fn proxy_piggyback_counters_conserve_at_any_thread_count() {
    let inv = reference();
    let one = drive_proxy(&inv, 1);
    let sixteen = drive_proxy(&inv, 16);

    for (label, a, b) in [
        ("requests", one.requests, sixteen.requests),
        ("fresh_hits", one.fresh_hits, sixteen.fresh_hits),
        ("full_fetches", one.full_fetches, sixteen.full_fetches),
        ("not_modified", one.not_modified, sixteen.not_modified),
        (
            "upstream_errors",
            one.upstream_errors,
            sixteen.upstream_errors,
        ),
        (
            "piggyback_messages",
            one.piggyback_messages,
            sixteen.piggyback_messages,
        ),
        (
            "piggybacked_elements",
            one.piggybacked_elements,
            sixteen.piggybacked_elements,
        ),
    ] {
        assert_eq!(a, b, "{label} must be thread-count invariant");
    }
    for s in [&one, &sixteen] {
        assert!(s.piggyback_messages > 0, "recorded piggybacks must arrive");
        assert_eq!(
            s.piggyback_freshens + s.piggyback_invalidations + s.prefetch_candidates,
            s.piggybacked_elements,
            "every piggybacked element is classified exactly once: {s:?}"
        );
        assert_eq!(s.outcomes(), s.requests);
    }
}

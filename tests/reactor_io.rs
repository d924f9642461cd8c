//! Reactor-mode integration suite (ISSUE 7 tentpole proof): the epoll
//! reactor must be indistinguishable from the threaded pool on the wire.
//!
//! * **Byte identity** — the same request bytes against two proxies (and
//!   two origins) differing only in `--io` produce byte-identical
//!   responses, misses and hits alike.
//! * **Conservation** — 16 concurrent keep-alive clients through a
//!   reactor proxy leave the lock-free outcome counters balancing
//!   exactly, same as the threaded suite in `concurrency_stress.rs`.
//! * **Pipelining, idle reaping, upstream errors, metrics** — the
//!   reactor-specific behaviors observable from outside.
//! * **Demand on the shards, speculation on the pool** — misses and
//!   demand joins stay on the epoll loop, and a miss workload never
//!   touches the blocking origin pool; the prefetch crew runs every
//!   speculative fetch itself on that pool, as on the threaded engine, so
//!   the two carry disjoint traffic and speculate alike.
//!
//! Linux-only: off Linux `IoMode::Reactor` falls back to the threaded
//! pool and these tests would prove nothing.

#![cfg(target_os = "linux")]

use piggyback::core::filter::ProxyFilter;
use piggyback::core::types::DurationMs;
use piggyback::httpwire::{Request, Response};
use piggyback::proxyd::client::HttpClient;
use piggyback::proxyd::origin::{start_origin, OriginConfig};
use piggyback::proxyd::proxy::{start_proxy, ProxyConfig, ProxyHandle, ProxyStats};
use piggyback::proxyd::util::{serve, ServerHandle};
use piggyback::proxyd::{IoMode, METRICS_PATH};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const REACTOR: IoMode = IoMode::Reactor { reactors: 2 };

/// A proxy over `origin` with deterministic wire output: no piggyback
/// filter, no RPV, no hit reports, freshness far longer than any test.
fn quiet_proxy(origin: SocketAddr, io: IoMode) -> ProxyHandle {
    let mut cfg = ProxyConfig::new(origin);
    cfg.io = io;
    cfg.freshness = DurationMs::from_secs(3600);
    cfg.filter = ProxyFilter::builder().max_piggy(0).build();
    cfg.rpv = None;
    cfg.report_hits = false;
    start_proxy(cfg).unwrap()
}

/// Write `req` raw and read exactly one `Content-Length`-framed response,
/// returning its bytes.
fn raw_roundtrip(stream: &mut TcpStream, req: &[u8]) -> Vec<u8> {
    stream.write_all(req).unwrap();
    read_framed(stream, &mut Vec::new())
}

/// Read one framed response; `carry` holds over-read bytes belonging to
/// the next pipelined response and must be reused across calls.
fn read_framed(stream: &mut TcpStream, carry: &mut Vec<u8>) -> Vec<u8> {
    let mut chunk = [0u8; 16 * 1024];
    let head_len = loop {
        if let Some(p) = find(carry, b"\r\n\r\n") {
            break p + 4;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed mid-header");
        carry.extend_from_slice(&chunk[..n]);
    };
    let total = head_len + content_length(&carry[..head_len]);
    while carry.len() < total {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed mid-body");
        carry.extend_from_slice(&chunk[..n]);
    }
    let rest = carry.split_off(total);
    std::mem::replace(carry, rest)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn content_length(head: &[u8]) -> usize {
    let p = find(head, b"Content-Length: ").expect("framed response");
    let rest = &head[p + 16..];
    let end = find(rest, b"\r\n").unwrap();
    std::str::from_utf8(&rest[..end]).unwrap().parse().unwrap()
}

fn get_bytes(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").into_bytes()
}

#[test]
fn reactor_proxy_byte_identical_to_threaded() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let threaded = quiet_proxy(origin.addr(), IoMode::Threaded);
    let reactor = quiet_proxy(origin.addr(), REACTOR);
    let paths: Vec<String> = origin.paths().into_iter().take(12).collect();

    let mut ct = TcpStream::connect(threaded.addr()).unwrap();
    let mut cr = TcpStream::connect(reactor.addr()).unwrap();
    for path in &paths {
        let req = get_bytes(path);
        // First exchange is a miss (a nonblocking upstream exchange),
        // second a cached hit (inline path). Both must match the threaded
        // proxy byte for byte.
        for pass in ["miss", "hit"] {
            let from_threaded = raw_roundtrip(&mut ct, &req);
            let from_reactor = raw_roundtrip(&mut cr, &req);
            assert_eq!(
                from_threaded, from_reactor,
                "{pass} response for {path} must be byte-identical across I/O modes"
            );
        }
    }
    threaded.stop();
    reactor.stop();
    origin.stop();
}

#[test]
fn sixteen_clients_conserve_counters_in_reactor_mode() {
    const CLIENTS: usize = 16;
    const PER_CLIENT: usize = 60;
    let origin = start_origin(OriginConfig::default()).unwrap();
    let proxy = quiet_proxy(origin.addr(), REACTOR);
    let paths = origin.paths();

    // Warm every path once so the timed region is all fresh hits.
    let mut warm = HttpClient::connect(proxy.addr()).unwrap();
    for p in &paths {
        assert_eq!(warm.get(p, &[]).unwrap().status, 200);
    }
    drop(warm);

    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let paths = &paths;
            let addr = proxy.addr();
            s.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for i in 0..PER_CLIENT {
                    let path = &paths[(t * 7 + i) % paths.len()];
                    let resp = client.get(path, &[]).unwrap();
                    assert_eq!(resp.status, 200, "client {t} req {i} ({path})");
                }
            });
        }
    });

    let s = proxy.stats();
    let expected = (paths.len() + CLIENTS * PER_CLIENT) as u64;
    assert_eq!(s.requests, expected);
    assert_eq!(
        s.outcomes(),
        s.requests,
        "outcome counters must conserve requests exactly: {s:?}"
    );
    assert_eq!(s.upstream_errors, 0, "healthy origin: {s:?}");
    // Objects at/above the streaming threshold are deliberately never
    // cached whole: their repeats are prefix hits (head from cache,
    // suffix relayed), everything else a fresh hit.
    assert_eq!(
        s.fresh_hits + s.prefix_hits,
        (CLIENTS * PER_CLIENT) as u64,
        "warm cache: the timed region is all fresh or prefix hits: {s:?}"
    );
    proxy.stop();
    origin.stop();
}

#[test]
fn reactor_serves_pipelined_bursts_in_order() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let proxy = quiet_proxy(origin.addr(), REACTOR);
    let paths: Vec<String> = origin.paths().into_iter().take(8).collect();

    // Warm, then fire all 8 GETs in one write and read 8 responses back.
    let mut warm = HttpClient::connect(proxy.addr()).unwrap();
    let expected: Vec<Vec<u8>> = paths
        .iter()
        .map(|p| {
            assert_eq!(warm.get(p, &[]).unwrap().status, 200);
            let mut c = TcpStream::connect(proxy.addr()).unwrap();
            raw_roundtrip(&mut c, &get_bytes(p))
        })
        .collect();

    let mut burst = Vec::new();
    for p in &paths {
        burst.extend_from_slice(&get_bytes(p));
    }
    let mut conn = TcpStream::connect(proxy.addr()).unwrap();
    conn.write_all(&burst).unwrap();
    let mut carry = Vec::new();
    for (i, want) in expected.iter().enumerate() {
        let got = read_framed(&mut conn, &mut carry);
        assert_eq!(&got, want, "pipelined response {i} out of order or corrupt");
    }
    assert!(carry.is_empty(), "no trailing bytes after the burst");
    proxy.stop();
    origin.stop();
}

#[test]
fn reactor_reaps_idle_connections() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let mut cfg = ProxyConfig::new(origin.addr());
    cfg.io = REACTOR;
    cfg.freshness = DurationMs::from_secs(3600);
    cfg.reactor_idle_timeout = Duration::from_millis(250);
    let proxy = start_proxy(cfg).unwrap();

    let mut conn = TcpStream::connect(proxy.addr()).unwrap();
    let resp = raw_roundtrip(&mut conn, &get_bytes(&origin.paths()[0]));
    assert!(resp.starts_with(b"HTTP/1.1 200"));

    // Served, then silent: the timer wheel must close us.
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let start = Instant::now();
    let n = conn.read(&mut [0u8; 64]).expect("expected EOF, not error");
    assert_eq!(n, 0, "idle connection must be closed by the reaper");
    assert!(
        start.elapsed() >= Duration::from_millis(100),
        "must not close a live connection instantly"
    );
    proxy.stop();
    origin.stop();
}

#[test]
fn reactor_survives_dead_origin_with_502s() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let mut cfg = ProxyConfig::new(origin.addr());
    cfg.io = REACTOR;
    cfg.freshness = DurationMs::from_secs(3600);
    cfg.filter = ProxyFilter::builder().max_piggy(0).build();
    cfg.rpv = None;
    cfg.report_hits = false;
    // No idle upstream connections retained: once the origin dies, the
    // next fetch must dial it fresh and fail, not ride a stale pooled
    // keep-alive the origin's draining worker still answers.
    cfg.pool_max_idle = 0;
    let proxy = start_proxy(cfg).unwrap();
    let warm_path = origin.paths()[0].clone();
    let cold_path = origin.paths()[1].clone();

    let mut conn = TcpStream::connect(proxy.addr()).unwrap();
    assert!(raw_roundtrip(&mut conn, &get_bytes(&warm_path)).starts_with(b"HTTP/1.1 200"));
    origin.stop();

    // Uncached path: the upstream exchange's dial fails and its
    // settle must answer a 502 — not close the connection.
    let resp = raw_roundtrip(&mut conn, &get_bytes(&cold_path));
    assert!(
        resp.starts_with(b"HTTP/1.1 502"),
        "dead origin must surface as 502: {:?}",
        String::from_utf8_lossy(&resp[..40.min(resp.len())])
    );
    // Same connection, cached-fresh path: still serving.
    assert!(raw_roundtrip(&mut conn, &get_bytes(&warm_path)).starts_with(b"HTTP/1.1 200"));

    let s = proxy.stats();
    assert_eq!(s.upstream_errors, 1, "{s:?}");
    assert_eq!(s.upstream_retries, 0, "a dial failure is terminal: {s:?}");
    assert_eq!(s.outcomes(), s.requests, "{s:?}");
    proxy.stop();
}

#[test]
fn reactor_metrics_expose_io_and_shard_gauges() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let proxy = quiet_proxy(origin.addr(), REACTOR);

    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    assert_eq!(client.get(&origin.paths()[0], &[]).unwrap().status, 200);
    let resp = client.get(METRICS_PATH, &[]).unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body.to_vec()).unwrap();

    let scalar = |name: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
            .unwrap_or_else(|| panic!("{name} missing from scrape:\n{text}"))
            .parse()
            .unwrap()
    };
    assert!(scalar("pb_proxy_accepts_total") >= 1);
    assert!(
        scalar("pb_proxy_open_connections") >= 1,
        "the scraping connection itself is open"
    );
    // Per-shard reactor gauges, one set per configured shard.
    for shard in 0..2 {
        for metric in [
            "pb_proxy_reactor_conns",
            "pb_proxy_reactor_accepts_total",
            "pb_proxy_reactor_wakeups_total",
            "pb_proxy_reactor_timeouts_total",
            "pb_proxy_reactor_upstream_dials_total",
            "pb_proxy_reactor_upstream_reuses_total",
            "pb_proxy_reactor_upstream_inflight",
            "pb_proxy_reactor_upstream_timeouts_total",
        ] {
            let line = format!("{metric}{{shard=\"{shard}\"}}");
            assert!(text.contains(&line), "{line} missing from scrape:\n{text}");
        }
    }
    // Accept-shard balance is observable: the accepts sum to the total.
    let shard_accepts: u64 = text
        .lines()
        .filter(|l| l.starts_with("pb_proxy_reactor_accepts_total"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(shard_accepts, scalar("pb_proxy_accepts_total"));
    proxy.stop();
    origin.stop();
}

/// A plain miss workload never leaves the reactor. Every cold fetch is
/// driven as a nonblocking upstream exchange on the shard's own epoll
/// loop — the blocking poller's origin pool never dials or reuses — and
/// sequential misses on one client connection reuse the shard's parked
/// upstream keep-alive instead of redialing the origin.
#[test]
fn reactor_misses_dial_upstream_without_offloads() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let proxy = quiet_proxy(origin.addr(), REACTOR);
    let paths: Vec<String> = origin.paths().into_iter().take(8).collect();

    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    for p in &paths {
        assert_eq!(client.get(p, &[]).unwrap().status, 200);
    }
    let resp = client.get(METRICS_PATH, &[]).unwrap();
    assert_eq!(resp.status, 200);
    let text = String::from_utf8(resp.body.to_vec()).unwrap();

    let shard_sum = |metric: &str| shard_sum(&text, metric);
    assert_blocking_pool_untouched(&proxy);
    let dials = shard_sum("pb_proxy_reactor_upstream_dials_total");
    let reuses = shard_sum("pb_proxy_reactor_upstream_reuses_total");
    assert!(dials >= 1, "cold misses must dial the origin:\n{text}");
    assert_eq!(
        dials + reuses,
        paths.len() as u64,
        "every miss is exactly one dial or one keep-alive reuse:\n{text}"
    );
    assert_eq!(
        shard_sum("pb_proxy_reactor_upstream_inflight"),
        0,
        "quiescent proxy holds no in-flight upstream exchanges:\n{text}"
    );

    let s = proxy.stats();
    assert_eq!(s.full_fetches, paths.len() as u64, "{s:?}");
    assert_eq!(s.upstream_errors, 0, "{s:?}");
    assert_eq!(s.upstream_retries, 0, "{s:?}");
    assert_eq!(s.outcomes(), s.requests, "{s:?}");
    proxy.stop();
    origin.stop();
}

/// The reactor proxy has no thread to hand work to: its upstream legs
/// are its own, so the blocking poller's `ConnectionPool` must read zero
/// connects and zero reuses whatever the walk.
fn assert_blocking_pool_untouched(proxy: &ProxyHandle) {
    let pool = proxy.pool_stats().expect("the pool is unconditional");
    assert_eq!((pool.connects, pool.reuses), (0, 0), "{pool:?}");
}

/// Sum a per-shard series of a scrape over its shards.
fn shard_sum(text: &str, metric: &str) -> u64 {
    let tagged = format!("{metric}{{shard=");
    text.lines()
        .filter(|l| l.starts_with(&tagged))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

/// On the reactor the prefetch crew's exchanges are the blocking pool's
/// only traffic, and demand exchanges the shards' only upstream traffic:
/// every speculative attempt is one pool checkout, every demand attempt
/// one shard dial or reuse. A joined demand is a fresh hit, no exchange.
/// Polled briefly, so a speculation still checking out can settle.
fn assert_speculation_on_the_pool_demand_on_the_shards(proxy: &ProxyHandle) {
    let split = || {
        let mut m = HttpClient::connect(proxy.addr()).unwrap();
        let text = String::from_utf8(m.get(METRICS_PATH, &[]).unwrap().body.to_vec()).unwrap();
        let legs = shard_sum(&text, "pb_proxy_reactor_upstream_dials_total")
            + shard_sum(&text, "pb_proxy_reactor_upstream_reuses_total");
        let (s, pool) = (proxy.stats(), proxy.pool_stats().unwrap());
        let speculative = s.prefetch_issued + s.prefetch_retries;
        let demand = s.requests - s.fresh_hits + s.upstream_retries;
        (pool.connects + pool.reuses, speculative, legs, demand)
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = split();
    while seen.0 != seen.1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
        seen = split();
    }
    let (pooled, speculative, legs, demand) = seen;
    assert_eq!(pooled, speculative, "pool traffic is speculation only");
    assert_eq!(legs, demand, "shard upstream legs are demand only");
}

/// Speculation runs on the crew's own thread on both engines: on the
/// reactor a walk through a warmed origin prefetches the mates its
/// piggybacks name over the blocking pool, while its demand misses ride
/// the shards; and a demand miss joined to an in-flight speculation parks
/// and is served the speculation's entry, one origin fetch in all.
#[test]
fn reactor_speculation_rides_the_pool_and_demand_the_shards() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    // Piggybacks only name mates with recorded accesses.
    let mut warm = HttpClient::connect(origin.addr()).unwrap();
    for p in &origin.paths() {
        assert_eq!(warm.get(p, &[]).unwrap().status, 200);
    }
    let mut cfg = ProxyConfig::new(origin.addr());
    cfg.io = REACTOR;
    cfg.prefetch_budget = 4;
    let proxy = start_proxy(cfg).unwrap();
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    for p in &origin.paths() {
        assert_eq!(client.get(p, &[]).unwrap().status, 200);
    }
    wait_for(|| {
        let s = proxy.stats();
        s.prefetch_issued > 0
            && s.prefetch_issued == s.prefetch_used + s.prefetch_wasted + s.prefetch_inflight
    });
    let s = proxy.stats();
    assert_eq!(s.outcomes(), s.requests, "{s:?}");
    assert_speculation_on_the_pool_demand_on_the_shards(&proxy);
    proxy.stop();
    origin.stop();

    // The join: the origin holds the speculative GET of `/mate.html`
    // until the demand request for it is parked on the speculation.
    let release = Arc::new(AtomicBool::new(false));
    let held = Arc::clone(&release);
    let origin = serve(0, "held-mate-origin", move |stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        while let Ok(req) = Request::read(&mut r) {
            let mut resp = Response::new(200);
            resp.headers
                .insert("Last-Modified", "Thu, 01 Jan 1998 00:00:00 GMT");
            if req.target == "/page.html" {
                resp.headers
                    .insert("P-volume", "7; \"/mate.html\" 886000000 1024");
            }
            // The speculative leg is the plain GET, without a filter.
            while req.headers.get("Piggy-filter").is_none() && !held.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
            resp.body = req.target.clone().into_bytes().into();
            if resp.write(&mut w).is_err() {
                return;
            }
        }
    })
    .unwrap();
    let mut cfg = ProxyConfig::new(origin.addr);
    cfg.io = REACTOR;
    cfg.prefetch_budget = 1;
    let proxy = start_proxy(cfg).unwrap();
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    assert_eq!(client.get("/page.html", &[]).unwrap().status, 200);
    wait_for(|| proxy.stats().prefetch_issued == 1);
    let addr = proxy.addr();
    let joiner = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client.get("/mate.html", &[]).unwrap()
    });
    wait_for(|| proxy.stats().requests == 2);
    std::thread::sleep(Duration::from_millis(50));
    release.store(true, Ordering::SeqCst);
    let resp = joiner.join().unwrap();
    assert_eq!(resp.headers.get("X-Cache"), Some("HIT"));
    assert_eq!(&resp.body[..], b"/mate.html");
    let s = proxy.stats();
    assert_eq!((s.prefetch_used, s.fresh_hits), (1, 1), "{s:?}");
    assert_speculation_on_the_pool_demand_on_the_shards(&proxy);
    proxy.stop();
    origin.stop();
}

/// An origin whose pages name fixed volume mates on every demand GET:
/// `/p{i}.html` names the next page, the one three on and, on every
/// fourth page, a mate it answers 404. It counts the requests it answers.
fn mates_origin(served: Arc<AtomicU64>) -> ServerHandle {
    serve(0, "mates-origin", move |stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        while let Ok(req) = Request::read(&mut r) {
            let page = req
                .target
                .strip_prefix("/p")
                .and_then(|t| t.strip_suffix(".html"));
            let page = page.and_then(|i| i.parse::<u32>().ok());
            let mut resp = Response::new(if page.is_some() { 200 } else { 404 });
            resp.headers
                .insert("Last-Modified", "Thu, 01 Jan 1998 00:00:00 GMT");
            if let Some(i) = page.filter(|_| req.headers.get("Piggy-filter").is_some()) {
                let mate = |path: String| format!("\"{path}\" 886000000 1024");
                let mut pv = format!("{i}; {}", mate(format!("/p{}.html", i + 1)));
                pv += &format!(", {}", mate(format!("/p{}.html", i + 3)));
                if i % 4 == 0 {
                    pv += &format!(", {}", mate(format!("/gone{i}.html")));
                }
                resp.headers.insert("P-volume", &pv);
            }
            resp.body = req.target.clone().into_bytes().into();
            served.fetch_add(1, Ordering::SeqCst);
            if resp.write(&mut w).is_err() {
                return;
            }
        }
    })
    .unwrap()
}

/// One walk speculates alike on both engines once paced so that no
/// demand races a speculation: after each request, every exchange the
/// proxy started has reached the origin and the counters held still for
/// a while. The speculation counters then agree field for field.
#[test]
fn prefetch_walk_speculates_alike_on_both_engines() {
    let walk = |io: IoMode| {
        let served = Arc::new(AtomicU64::new(0));
        let origin = mates_origin(Arc::clone(&served));
        let mut cfg = ProxyConfig::new(origin.addr);
        cfg.io = io;
        cfg.prefetch_budget = 2;
        let proxy = start_proxy(cfg).unwrap();
        let caught_up = || {
            let s = proxy.stats();
            let demand = s.requests - s.fresh_hits + s.upstream_retries;
            let speculative = s.prefetch_issued + s.prefetch_retries;
            (served.load(Ordering::SeqCst) == demand + speculative).then_some(s)
        };
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        for i in 0..24 {
            assert_eq!(client.get(&format!("/p{i}.html"), &[]).unwrap().status, 200);
            let (mut last, deadline) = (None, Instant::now() + Duration::from_secs(10));
            loop {
                std::thread::sleep(Duration::from_millis(50));
                let now = caught_up();
                if now.is_some() && now == last {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "{io:?}: speculation never settled"
                );
                last = now;
            }
        }
        let s = proxy.stats();
        proxy.stop();
        origin.stop();
        s
    };
    let speculation = |s: &ProxyStats| {
        (
            s.prefetch_issued,
            s.prefetch_used,
            s.prefetch_wasted,
            s.prefetch_cancelled,
            s.prefetch_retries,
        )
    };
    let (threaded, reactor) = (walk(IoMode::Threaded), walk(REACTOR));
    assert!(
        threaded.prefetch_used > 0 && threaded.prefetch_wasted > 0,
        "the walk uses and wastes speculation: {threaded:?}"
    );
    assert_eq!(
        speculation(&reactor),
        speculation(&threaded),
        "(issued, used, wasted, cancelled, retries), reactor vs threaded:\n{reactor:?}\n{threaded:?}"
    );
}

/// Poll `cond` for up to ten seconds.
fn wait_for(cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "condition never held");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn origin_reactor_mode_byte_identical_and_piggybacking() {
    let threaded = start_origin(OriginConfig::default()).unwrap();
    let reactor = start_origin(OriginConfig {
        io: REACTOR,
        ..Default::default()
    })
    .unwrap();
    let paths = threaded.paths();
    assert_eq!(paths, reactor.paths(), "same seed, same site");

    // Identical request sequences (including a piggyback-soliciting pair
    // in one directory) must produce byte-identical response streams —
    // trailers included, so frame with a real Response reader.
    let dir_pair: Vec<&String> = {
        let mut pair = Vec::new();
        for p in &paths {
            if pair.is_empty() {
                pair.push(p);
            } else if p.rsplit_once('/').map(|(d, _)| d) == pair[0].rsplit_once('/').map(|(d, _)| d)
            {
                pair.push(p);
                break;
            }
        }
        pair
    };
    assert_eq!(dir_pair.len(), 2, "site has a two-resource directory");

    let exchange = |addr: SocketAddr| -> Vec<Response> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        dir_pair
            .iter()
            .map(|path| {
                let mut req = Request::new("GET", path);
                req.headers.insert("Host", "t");
                req.headers.insert("TE", "chunked");
                req.headers.insert("Piggy-filter", "maxpiggy=10");
                req.write(&mut w).unwrap();
                Response::read(&mut r, false).unwrap()
            })
            .collect()
    };
    let from_threaded = exchange(threaded.addr());
    let from_reactor = exchange(reactor.addr());
    for (i, (a, b)) in from_threaded.iter().zip(&from_reactor).enumerate() {
        assert_eq!(a.status, b.status, "response {i}");
        assert_eq!(a.body, b.body, "response {i} body");
        assert_eq!(
            a.trailers.get("P-volume"),
            b.trailers.get("P-volume"),
            "response {i} piggyback"
        );
    }
    assert!(
        from_reactor[1].trailers.get("P-volume").is_some(),
        "second request in the directory must carry the piggyback trailer"
    );

    // Both origins account identically.
    let (st, sr) = (threaded.stats(), reactor.stats());
    assert_eq!(st.requests, sr.requests);
    assert_eq!(st.piggybacks_sent, sr.piggybacks_sent);
    assert_eq!(reactor.daemon_stats().connections, 1);
    threaded.stop();
    reactor.stop();
}

// ---------------------------------------------------------------------------
// ISSUE 10: streaming cut-through relay

/// Keep-alive origin serving one large `Content-Length` body for every
/// path, with a fixed `Last-Modified` so response heads are
/// deterministic across proxies.
fn start_big_origin(body: std::sync::Arc<Vec<u8>>) -> SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { break };
            let body = std::sync::Arc::clone(&body);
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut w = BufWriter::new(stream);
                while Request::read(&mut reader).is_ok() {
                    let head = format!(
                        "HTTP/1.1 200 OK\r\nLast-Modified: Thu, 01 Jan 1970 00:00:00 GMT\r\nContent-Length: {}\r\n\r\n",
                        body.len()
                    );
                    if w.write_all(head.as_bytes())
                        .and_then(|()| w.write_all(&body))
                        .and_then(|()| w.flush())
                        .is_err()
                    {
                        break;
                    }
                }
            });
        }
    });
    addr
}

fn deterministic_body(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// A streaming-enabled quiet proxy: objects above 256 KiB cut through,
/// the first 64 KiB is retained as a prefix.
fn streaming_proxy(origin: SocketAddr, io: IoMode) -> ProxyHandle {
    let mut cfg = ProxyConfig::new(origin);
    cfg.io = io;
    cfg.freshness = DurationMs::from_secs(3600);
    cfg.filter = ProxyFilter::builder().max_piggy(0).build();
    cfg.rpv = None;
    cfg.report_hits = false;
    cfg.stream_threshold = 256 * 1024;
    cfg.prefix_bytes = 64 * 1024;
    start_proxy(cfg).unwrap()
}

/// The proxy's counters once every request is accounted, or after ten
/// seconds. Both engines count a relayed response after its last byte
/// reaches the client, so the client may read it before the count.
fn settled_stats(proxy: &ProxyHandle) -> ProxyStats {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = proxy.stats();
        if s.outcomes() == s.requests || Instant::now() >= deadline {
            return s;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Tentpole proof: large-object misses and prefix hits are
/// byte-identical across the threaded engine and the reactor relay —
/// same head (`X-Cache: MISS` / `X-Cache: PREFIX`), same
/// `Content-Length` framing, same decoded payload.
#[test]
fn reactor_streams_large_objects_byte_identical_to_threaded() {
    let body = std::sync::Arc::new(deterministic_body(600 * 1024));
    let threaded = streaming_proxy(
        start_big_origin(std::sync::Arc::clone(&body)),
        IoMode::Threaded,
    );
    let reactor = streaming_proxy(start_big_origin(std::sync::Arc::clone(&body)), REACTOR);

    let mut ct = TcpStream::connect(threaded.addr()).unwrap();
    let mut cr = TcpStream::connect(reactor.addr()).unwrap();
    let req = get_bytes("/big.bin");
    for (pass, tag) in [
        ("miss", &b"X-Cache: MISS"[..]),
        ("prefix hit", &b"X-Cache: PREFIX"[..]),
    ] {
        let from_threaded = raw_roundtrip(&mut ct, &req);
        let from_reactor = raw_roundtrip(&mut cr, &req);
        assert!(
            find(&from_threaded, tag).is_some(),
            "{pass} must be tagged {}",
            String::from_utf8_lossy(tag)
        );
        assert_eq!(
            from_threaded, from_reactor,
            "{pass} response must be byte-identical across I/O modes"
        );
        assert!(
            from_threaded.ends_with(&body[body.len() - 1024..]),
            "{pass} payload must be the origin object"
        );
        assert_eq!(
            from_threaded.len() - body.len(),
            find(&from_threaded, b"\r\n\r\n").unwrap() + 4,
            "{pass} delivers exactly the declared payload"
        );
    }

    for (mode, proxy) in [("threaded", &threaded), ("reactor", &reactor)] {
        let s = settled_stats(proxy);
        assert_eq!(s.requests, 2, "{mode}: {s:?}");
        assert_eq!(s.full_fetches, 1, "{mode}: {s:?}");
        assert_eq!(s.streamed_misses, 1, "{mode}: {s:?}");
        assert_eq!(s.prefix_hits, 1, "{mode}: {s:?}");
        assert_eq!(s.cache_hits, 1, "{mode}: {s:?}");
        assert_eq!(s.upstream_errors, 0, "{mode}: {s:?}");
        assert_eq!(s.outcomes(), s.requests, "{mode} conservation: {s:?}");
    }
    threaded.stop();
    reactor.stop();
}

/// Slow-reader fault lane: a client that stops reading mid-relay makes
/// its socket refuse part of a relayed read, and the bytes it is then
/// owed must pause the origin leg (`relay_paused` fires) instead of
/// buffering the whole object — and the transfer must still complete
/// intact once the client drains.
#[test]
fn reactor_relay_backpressure_pauses_for_slow_readers() {
    let body = std::sync::Arc::new(deterministic_body(8 * 1024 * 1024));
    let proxy = streaming_proxy(start_big_origin(std::sync::Arc::clone(&body)), REACTOR);

    let mut conn = TcpStream::connect(proxy.addr()).unwrap();
    conn.write_all(&get_bytes("/huge.bin")).unwrap();

    // Don't read yet: wait until the relay reports a backpressure pause
    // on some shard (scraped over an independent connection).
    let paused = |text: &str| -> u64 {
        text.lines()
            .filter(|l| l.starts_with("pb_proxy_reactor_relay_paused_total{shard="))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut m = HttpClient::connect(proxy.addr()).unwrap();
        let resp = m.get(METRICS_PATH, &[]).unwrap();
        let text = String::from_utf8(resp.body.to_vec()).unwrap();
        if paused(&text) >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "relay never hit the high-water mark:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // Drain: the full object must arrive intact despite the stall.
    let resp = read_framed(&mut conn, &mut Vec::new());
    let head_len = find(&resp, b"\r\n\r\n").unwrap() + 4;
    assert_eq!(resp.len() - head_len, body.len());
    assert_eq!(
        &resp[head_len..],
        &body[..],
        "payload corrupt after backpressure"
    );

    let s = settled_stats(&proxy);
    assert_eq!(s.streamed_misses, 1, "{s:?}");
    assert_eq!(s.upstream_errors, 0, "{s:?}");
    assert_eq!(s.outcomes(), s.requests, "{s:?}");
    proxy.stop();
}

// Reactor reads stop at a short read, unless the peer's FIN was seen.

/// Hold a socket's segments until it is shut down, so the FIN rides in
/// the last data segment and the peer sees bytes and FIN in one event
/// (Linux `TCP_CORK`).
fn cork(stream: &TcpStream) {
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_CORK: i32 = 3;
    let one: i32 = 1;
    let fd = std::os::unix::io::AsRawFd::as_raw_fd(stream);
    // SAFETY: a plain `int` option on a live socket.
    let rc = unsafe {
        setsockopt(
            fd,
            IPPROTO_TCP,
            TCP_CORK,
            &one as *const i32 as *const u8,
            4,
        )
    };
    assert_eq!(rc, 0, "TCP_CORK");
}

/// A proxy whose upstream and idle deadlines are far beyond what either
/// lane below may take: a read that missed an EOF shows as a wait on one.
fn patient_reactor_proxy(origin: SocketAddr) -> ProxyHandle {
    let mut cfg = ProxyConfig::new(origin);
    cfg.io = REACTOR;
    cfg.filter = ProxyFilter::builder().max_piggy(0).build();
    cfg.rpv = None;
    cfg.report_hits = false;
    cfg.upstream_timeout = Duration::from_secs(20);
    cfg.reactor_idle_timeout = Duration::from_secs(20);
    start_proxy(cfg).unwrap()
}

/// The origin writes a close-delimited response and its FIN together: the
/// FIN raises no edge of its own after the read that took the bytes, so
/// the reactor must read on to the EOF that ends the response.
#[test]
fn reactor_reads_a_close_delimited_response_to_its_fin() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let mut head = Vec::new();
            let mut byte = [0u8; 1];
            while !head.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap_or(0) == 1 {
                head.push(byte[0]);
            }
            cork(&stream);
            let _ = stream.write_all(
                b"HTTP/1.1 200 OK\r\nLast-Modified: Thu, 01 Jan 1970 00:00:00 GMT\r\n\
                  Connection: close\r\n\r\nclose-delimited body",
            );
            // The FIN rides in the segment with the bytes.
            let _ = stream.shutdown(std::net::Shutdown::Write);
        }
    });
    let proxy = patient_reactor_proxy(addr);
    let start = Instant::now();
    for path in ["/one", "/two"] {
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        let resp = client.get(path, &[]).unwrap();
        assert_eq!(resp.status, 200, "{path}");
        assert_eq!(resp.body.as_slice(), b"close-delimited body");
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "waited {:?}: the origin's FIN was missed",
        start.elapsed()
    );
    assert_eq!(proxy.stats().upstream_errors, 0);
    proxy.stop();
}

/// A client pipelines requests and half-closes: every answer comes back,
/// then the close, long before the idle deadline.
#[test]
fn reactor_answers_a_half_closed_pipeline_then_closes() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let proxy = patient_reactor_proxy(origin.addr());
    let paths: Vec<String> = origin.paths().into_iter().take(3).collect();
    let mut burst = Vec::new();
    for path in paths.iter().chain(&paths) {
        burst.extend_from_slice(&get_bytes(path));
    }
    let start = Instant::now();
    let mut stream = TcpStream::connect(proxy.addr()).unwrap();
    // Registered before the bytes come, so they and the FIN arrive as one
    // edge on a connection the reactor already watches.
    std::thread::sleep(Duration::from_millis(50));
    cork(&stream);
    stream.write_all(&burst).unwrap();
    // The FIN rides in the segment with the requests.
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut carry = Vec::new();
    for _ in 0..2 * paths.len() {
        let resp = read_framed(&mut stream, &mut carry);
        assert!(resp.starts_with(b"HTTP/1.1 200 OK\r\n"));
    }
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty() && carry.is_empty(),
        "nothing behind the answers"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "closed after {:?}: the client's FIN was missed",
        start.elapsed()
    );
    proxy.stop();
    origin.stop();
}

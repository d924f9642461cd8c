//! Failure injection against the live network components: truncated
//! responses, mid-body disconnects, garbage protocol data, and slow-start
//! servers. The proxy must degrade to 502s and keep serving — never hang
//! or panic.

use piggyback::core::types::DurationMs;
use piggyback::httpwire::{Request, Response};
use piggyback::proxyd::client::{run_sequence, HttpClient};
use piggyback::proxyd::netem::{Conditioner, NetProfile, ShimConfig};
use piggyback::proxyd::origin::{start_origin, OriginConfig};
use piggyback::proxyd::proxy::{start_proxy, ProxyConfig, ProxyHandle};
use piggyback::proxyd::util::serve;
use piggyback::proxyd::volume_center::{start_volume_center, VolumeCenterConfig};
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// An origin that truncates every response body mid-stream.
fn truncating_origin() -> piggyback::proxyd::util::ServerHandle {
    serve(0, "truncating", |stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        if Request::read(&mut r).is_ok() {
            // Claim 1000 bytes, send 10, slam the connection.
            let _ = w.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\nabcdefghij");
            let _ = w.flush();
        }
        // Drop => RST/FIN.
    })
    .unwrap()
}

/// An origin that speaks garbage.
fn garbage_origin() -> piggyback::proxyd::util::ServerHandle {
    serve(0, "garbage", |stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = stream;
        let mut buf = [0u8; 1024];
        let _ = r.get_mut().read(&mut buf); // swallow whatever arrives
        let _ = w.write_all(b"\x00\x01\x02 NOT HTTP AT ALL \xff\xfe\r\n\r\n");
    })
    .unwrap()
}

/// An origin that alternates: fail the first request on each connection,
/// then answer correctly.
fn flaky_origin() -> (piggyback::proxyd::util::ServerHandle, Arc<AtomicUsize>) {
    let conns = Arc::new(AtomicUsize::new(0));
    let conns2 = Arc::clone(&conns);
    let handle = serve(0, "flaky", move |stream| {
        let n = conns2.fetch_add(1, Ordering::SeqCst);
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        loop {
            let req = match Request::read(&mut r) {
                Ok(q) => q,
                Err(_) => return,
            };
            if n == 0 {
                // First connection: die mid-exchange.
                return;
            }
            let keep = req.keep_alive();
            let mut resp = Response::new(200);
            resp.headers
                .insert("Last-Modified", "Wed, 28 Jan 1998 00:00:00 GMT");
            resp.body = b"recovered".into();
            if resp.write(&mut w).is_err() || !keep {
                return;
            }
        }
    })
    .unwrap();
    (handle, conns)
}

#[test]
fn truncated_origin_response_becomes_502() {
    let origin = truncating_origin();
    let proxy = start_proxy(ProxyConfig::new(origin.addr)).unwrap();
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    let resp = client.get("/x.html", &[]).unwrap();
    assert_eq!(resp.status, 502);
    // The proxy survives and keeps answering.
    let resp = client.get("/y.html", &[]).unwrap();
    assert_eq!(resp.status, 502);
    let s = proxy.stats();
    assert_eq!(s.upstream_errors, 2, "{s:?}");
    assert_eq!(
        s.upstream_retries, 2,
        "a body that dies is retried once, like any mid-exchange failure: {s:?}"
    );
    proxy.stop();
    origin.stop();
}

#[test]
fn garbage_origin_response_becomes_502() {
    let origin = garbage_origin();
    let proxy = start_proxy(ProxyConfig::new(origin.addr)).unwrap();
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    let resp = client.get("/x.html", &[]).unwrap();
    assert_eq!(resp.status, 502);
    proxy.stop();
    origin.stop();
}

#[test]
fn proxy_reconnects_after_dropped_upstream_connection() {
    let (origin, conns) = flaky_origin();
    let proxy = start_proxy(ProxyConfig::new(origin.addr)).unwrap();
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    // First exchange: upstream dies; the proxy retries on a fresh
    // connection and succeeds.
    let resp = client.get("/x.html", &[]).unwrap();
    assert_eq!(resp.status, 200, "reconnect should recover");
    assert_eq!(resp.body, b"recovered");
    assert!(conns.load(Ordering::SeqCst) >= 2);
    proxy.stop();
    origin.stop();
}

#[test]
fn origin_survives_malformed_clients() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    // Throw raw garbage at the origin.
    {
        let mut s = std::net::TcpStream::connect(origin.addr()).unwrap();
        s.write_all(b"\x00\xffTOTAL NONSENSE\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf); // origin just closes
    }
    // Then a well-formed request still works.
    let mut client = HttpClient::connect(origin.addr()).unwrap();
    let resp = client.get(&origin.paths()[0], &[]).unwrap();
    assert_eq!(resp.status, 200);
    origin.stop();
}

#[test]
fn origin_rejects_bad_filter_gracefully() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let mut client = HttpClient::connect(origin.addr()).unwrap();
    // Malformed Piggy-filter: the origin must serve the resource and just
    // skip the piggyback.
    let resp = client
        .get(
            &origin.paths()[0],
            &[("TE", "chunked"), ("Piggy-filter", "!!not=a=filter!!")],
        )
        .unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.trailers.get("P-volume").is_none());
    assert!(resp.headers.get("P-volume").is_none());
    origin.stop();
}

/// An origin that answers correctly (keep-alive) but slowly.
fn slow_origin(delay: Duration) -> piggyback::proxyd::util::ServerHandle {
    serve(0, "slow", move |stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        loop {
            let req = match Request::read(&mut r) {
                Ok(q) => q,
                Err(_) => return,
            };
            std::thread::sleep(delay);
            let keep = req.keep_alive();
            let mut resp = Response::new(200);
            resp.headers
                .insert("Last-Modified", "Wed, 28 Jan 1998 00:00:00 GMT");
            resp.body = b"slow but sound".into();
            if resp.write(&mut w).is_err() || !keep {
                return;
            }
        }
    })
    .unwrap()
}

/// An origin that serves one valid response per connection, then closes:
/// every pooled connection dies right after checkin.
fn one_shot_origin() -> piggyback::proxyd::util::ServerHandle {
    serve(0, "one-shot", |stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        if Request::read(&mut r).is_ok() {
            let mut resp = Response::new(200);
            resp.headers
                .insert("Last-Modified", "Wed, 28 Jan 1998 00:00:00 GMT");
            resp.body = b"one shot".into();
            let _ = resp.write(&mut w);
        }
    })
    .unwrap()
}

/// An origin that appends unsolicited garbage after every complete,
/// valid response — poisoning the keep-alive framing.
fn chatty_origin() -> piggyback::proxyd::util::ServerHandle {
    serve(0, "chatty", |stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        loop {
            let req = match Request::read(&mut r) {
                Ok(q) => q,
                Err(_) => return,
            };
            let keep = req.keep_alive();
            let mut resp = Response::new(200);
            resp.headers
                .insert("Last-Modified", "Wed, 28 Jan 1998 00:00:00 GMT");
            resp.body = b"payload".into();
            if resp.write(&mut w).is_err() {
                return;
            }
            if w.write_all(b"%%%POISON%%%").is_err() || w.flush().is_err() || !keep {
                return;
            }
        }
    })
    .unwrap()
}

/// 8 clients × `per_client` distinct-path GETs; returns the statuses seen.
fn hammer(proxy: SocketAddr, per_client: usize) -> Vec<u16> {
    let results: Vec<Vec<u16>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                s.spawn(move || {
                    let mut client = HttpClient::connect(proxy).unwrap();
                    (0..per_client)
                        .map(|i| {
                            // Distinct paths: every request goes upstream.
                            let path = format!("/t{t}/r{i}.html");
                            client.get(&path, &[]).map_or(0, |r| r.status)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    results.into_iter().flatten().collect()
}

fn conserved(proxy: &ProxyHandle, expected: u64) {
    let s = proxy.stats();
    assert_eq!(s.requests, expected);
    assert_eq!(s.outcomes(), s.requests, "counters must conserve: {s:?}");
}

#[test]
fn truncating_origin_under_parallel_clients() {
    let origin = truncating_origin();
    let proxy = start_proxy(ProxyConfig::new(origin.addr)).unwrap();
    let statuses = hammer(proxy.addr(), 4);
    assert_eq!(statuses.len(), 32);
    assert!(
        statuses.iter().all(|&s| s == 502),
        "every truncated fetch must become a 502: {statuses:?}"
    );
    conserved(&proxy, 32);
    let s = proxy.stats();
    assert_eq!(s.upstream_errors, 32);
    assert_eq!(
        s.upstream_retries, 32,
        "one retry per truncated fetch: {s:?}"
    );
    proxy.stop();
    origin.stop();
}

#[test]
fn garbage_origin_under_parallel_clients() {
    let origin = garbage_origin();
    let proxy = start_proxy(ProxyConfig::new(origin.addr)).unwrap();
    let statuses = hammer(proxy.addr(), 4);
    assert_eq!(statuses.len(), 32);
    assert!(
        statuses.iter().all(|&s| s == 502),
        "garbage must become 502s: {statuses:?}"
    );
    conserved(&proxy, 32);
    proxy.stop();
    origin.stop();
}

#[test]
fn slow_origin_under_parallel_clients() {
    let origin = slow_origin(Duration::from_millis(20));
    let proxy = start_proxy(ProxyConfig::new(origin.addr)).unwrap();
    let statuses = hammer(proxy.addr(), 3);
    assert!(
        statuses.iter().all(|&s| s == 200),
        "slow is not broken: {statuses:?}"
    );
    conserved(&proxy, 24);
    proxy.stop();
    origin.stop();
}

#[test]
fn pool_evicts_dead_connections_under_parallel_load() {
    let origin = one_shot_origin();
    let proxy = start_proxy(ProxyConfig::new(origin.addr)).unwrap();
    let statuses = hammer(proxy.addr(), 5);
    assert!(
        statuses.iter().all(|&s| s == 200),
        "dead pooled connections must be evicted or retried, never surfaced: {statuses:?}"
    );
    conserved(&proxy, 40);
    let pool = proxy.pool_stats().expect("the pool is unconditional");
    let s = proxy.stats();
    // Every checked-in connection dies; each is caught either at checkout
    // (peek sees FIN => evicted) or mid-exchange (retry on a fresh one).
    assert!(
        pool.evicted_unhealthy + s.upstream_retries > 0,
        "the pool must notice dying origin connections: {pool:?} {s:?}"
    );
    proxy.stop();
    origin.stop();
}

#[test]
fn pool_sheds_poisoned_connections_under_parallel_load() {
    let origin = chatty_origin();
    let proxy = start_proxy(ProxyConfig::new(origin.addr)).unwrap();
    let statuses = hammer(proxy.addr(), 5);
    assert!(
        statuses.iter().all(|&s| s == 200),
        "poisoned framing must never corrupt a response: {statuses:?}"
    );
    conserved(&proxy, 40);
    let pool = proxy.pool_stats().expect("the pool is unconditional");
    let s = proxy.stats();
    // Trailing garbage is caught as a dirty checkin (still buffered), an
    // unhealthy checkout (unsolicited bytes on the wire), or a failed
    // reuse that retries fresh — it must never be parsed as a response.
    assert!(
        pool.discarded_dirty + pool.evicted_unhealthy + s.upstream_retries > 0,
        "the pool must shed poisoned connections: {pool:?} {s:?}"
    );
    proxy.stop();
    origin.stop();
}

/// The adverse-network shim is a *schedule*, not a dice roll: the plan for
/// exchange `i` is a pure function of `(seed, i)`, so two conditioners
/// built from the same profile and seed agree on every failure decision
/// and every delay, and a different seed produces a different schedule.
#[test]
fn shim_schedule_is_seed_deterministic() {
    let profile = NetProfile::dsl().with_error_rate(0.3);
    let a = Conditioner::new(profile.clone(), 42);
    let b = Conditioner::new(profile.clone(), 42);
    let other = Conditioner::new(profile, 43);
    let mut any_differs = false;
    for i in 0..512u64 {
        let pa = a.plan_for(i);
        assert_eq!(pa, b.plan_for(i), "same seed must agree on exchange {i}");
        assert_eq!(a.up_delay(&pa, 700), b.up_delay(&pa, 700));
        assert_eq!(a.down_delay(&pa, 9000), b.down_delay(&pa, 9000));
        any_differs |= pa != other.plan_for(i);
    }
    assert!(
        any_differs,
        "a different seed must produce a different schedule"
    );
}

/// A proxy → shimmed volume center → live origin chain. The profile's time
/// constants are zeroed (`scaled(0.0)`) so these tests exercise the error
/// schedule, not the clock.
fn shimmed_stack(
    error_rate: f64,
) -> (
    piggyback::proxyd::origin::OriginHandle,
    piggyback::proxyd::volume_center::VolumeCenterHandle,
    ProxyHandle,
) {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let center = start_volume_center(VolumeCenterConfig {
        port: 0,
        origin: origin.addr(),
        volume_level: 1,
        shim: Some(ShimConfig {
            profile: NetProfile::lan().scaled(0.0).with_error_rate(error_rate),
            seed: 1,
        }),
        transparent: false,
    })
    .unwrap();
    let mut cfg = ProxyConfig::new(center.addr());
    cfg.rpv = None;
    cfg.report_hits = false;
    let proxy = start_proxy(cfg).unwrap();
    (origin, center, proxy)
}

/// error-rate 1.0 kills every exchange: the proxy's retry-once path runs
/// (and also dies), every client request surfaces as a 502, and both the
/// proxy ledger and the shim ledger account for every attempt.
#[test]
fn shim_error_rate_one_fails_every_exchange() {
    let (origin, center, proxy) = shimmed_stack(1.0);
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    let n = 4u64;
    for i in 0..n {
        let resp = client.get(&format!("/shim/e{i}.html"), &[]).unwrap();
        assert_eq!(
            resp.status, 502,
            "a fully-adverse network must surface as 502"
        );
    }
    let s = proxy.stats();
    assert_eq!(s.upstream_errors, n);
    assert_eq!(
        s.upstream_retries, n,
        "every failure must have been retried once"
    );
    conserved(&proxy, n);
    let shim = center.shim_stats().expect("shimmed center reports stats");
    assert_eq!(
        shim.exchanges, 0,
        "nothing may pass through at error rate 1.0"
    );
    assert_eq!(
        shim.failures,
        2 * n,
        "both the first attempt and the retry must be killed"
    );
    proxy.stop();
    center.stop();
    origin.stop();
}

/// error-rate 0 with zeroed time constants is a transparent relay: every
/// request succeeds, the shim counts exactly one passed exchange per
/// upstream fetch, and injects no failures.
#[test]
fn shim_error_rate_zero_is_transparent() {
    let (origin, center, proxy) = shimmed_stack(0.0);
    let paths: Vec<String> = origin.paths().into_iter().take(5).collect();
    let report = run_sequence(proxy.addr(), &paths).unwrap();
    assert_eq!(report.ok, 5);
    assert_eq!(report.errors, 0);
    conserved(&proxy, 5);
    let shim = center.shim_stats().expect("shimmed center reports stats");
    assert_eq!(shim.failures, 0);
    assert_eq!(shim.exchanges, 5, "one shim exchange per upstream fetch");
    proxy.stop();
    center.stop();
    origin.stop();
}

/// A non-zero profile actually delays the exchange: one fetch through a
/// half-scale DSL profile must take at least the profile's RTT.
#[test]
fn shim_imposes_profile_latency() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let center = start_volume_center(VolumeCenterConfig {
        port: 0,
        origin: origin.addr(),
        volume_level: 1,
        shim: Some(ShimConfig {
            profile: NetProfile::dsl().scaled(0.5),
            seed: 7,
        }),
        transparent: false,
    })
    .unwrap();
    let mut cfg = ProxyConfig::new(center.addr());
    cfg.rpv = None;
    cfg.report_hits = false;
    let proxy = start_proxy(cfg).unwrap();
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    let path = origin.paths()[0].clone();
    let start = std::time::Instant::now();
    let resp = client.get(&path, &[]).unwrap();
    let elapsed = start.elapsed();
    assert_eq!(resp.status, 200);
    // Half-scale DSL is a 20 ms RTT before jitter and serialization.
    assert!(
        elapsed >= Duration::from_millis(15),
        "shim must impose the profile's latency, got {elapsed:?}"
    );
    let shim = center.shim_stats().unwrap();
    assert!(shim.delay_us >= 15_000, "delay must be accounted: {shim:?}");
    proxy.stop();
    center.stop();
    origin.stop();
}

/// A stalled reader must cost the reactor a buffer, not a thread: with a
/// SINGLE reactor shard, a client that pipelines a burst of ~12 KiB
/// cached hits and then refuses to read anything would wedge the whole
/// proxy if response writes blocked. A second client proves the shard
/// keeps serving; the stalled client then drains byte-by-byte and must
/// receive every response intact.
#[cfg(target_os = "linux")]
#[test]
fn slow_reader_does_not_stall_reactor_shard() {
    use piggyback::proxyd::IoMode;
    const BODY_LEN: usize = 12 * 1024;
    const BURST: usize = 64;

    let origin = serve(0, "big-page", |stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        loop {
            let req = match Request::read(&mut r) {
                Ok(q) => q,
                Err(_) => return,
            };
            let keep = req.keep_alive();
            let mut resp = Response::new(200);
            resp.headers
                .insert("Last-Modified", "Wed, 28 Jan 1998 00:00:00 GMT");
            resp.body = vec![b'x'; BODY_LEN].into();
            if resp.write(&mut w).is_err() || !keep {
                return;
            }
        }
    })
    .unwrap();

    let mut cfg = ProxyConfig::new(origin.addr);
    cfg.io = IoMode::Reactor { reactors: 1 };
    cfg.freshness = piggyback::core::types::DurationMs::from_secs(3600);
    cfg.rpv = None;
    cfg.report_hits = false;
    let proxy = start_proxy(cfg).unwrap();

    // Warm the page, then capture one cached-hit response verbatim — the
    // burst must come back as exactly this, BURST times over.
    let mut warm = HttpClient::connect(proxy.addr()).unwrap();
    assert_eq!(warm.get("/big.html", &[]).unwrap().status, 200);
    drop(warm);
    let req = b"GET /big.html HTTP/1.1\r\nHost: t\r\n\r\n";
    let one_hit = {
        let mut probe = std::net::TcpStream::connect(proxy.addr()).unwrap();
        probe.write_all(req).unwrap();
        let mut buf = vec![0u8; 64 * 1024];
        let mut filled = 0;
        loop {
            // One cached hit is Content-Length framed; read until the
            // header block plus BODY_LEN bytes have arrived.
            if let Some(p) = buf[..filled].windows(4).position(|w| w == b"\r\n\r\n") {
                if filled >= p + 4 + BODY_LEN {
                    buf.truncate(p + 4 + BODY_LEN);
                    break buf;
                }
            }
            let n = probe.read(&mut buf[filled..]).unwrap();
            assert!(n > 0, "proxy closed the probe");
            filled += n;
        }
    };

    // The slow client: fire the whole burst, then go silent.
    let mut slow = std::net::TcpStream::connect(proxy.addr()).unwrap();
    let mut burst = Vec::with_capacity(BURST * req.len());
    for _ in 0..BURST {
        burst.extend_from_slice(req);
    }
    slow.write_all(&burst).unwrap();

    // While the slow client stalls, the single shard must keep serving
    // other connections — if any response write blocked the reactor
    // thread, these would hang (the 10s read timeout turns that into a
    // failure instead of a wedged test run).
    let mut live = HttpClient::connect(proxy.addr()).unwrap();
    for i in 0..50 {
        let resp = live.get("/big.html", &[]).unwrap();
        assert_eq!(resp.status, 200, "concurrent request {i} during the stall");
        assert_eq!(resp.body.len(), BODY_LEN);
    }
    drop(live);

    // Drain: first at a trickle (1 byte per read, the pathological
    // partial-writer case), then in bulk. Every burst response must
    // arrive byte-identical to the probe's hit.
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let want = one_hit.len() * BURST;
    let mut got = Vec::with_capacity(want);
    let mut one = [0u8; 1];
    for _ in 0..4096 {
        assert_eq!(slow.read(&mut one).unwrap(), 1, "proxy closed mid-trickle");
        got.push(one[0]);
    }
    let mut chunk = [0u8; 16 * 1024];
    while got.len() < want {
        let n = slow.read(&mut chunk).unwrap();
        assert!(n > 0, "proxy closed before the burst was delivered");
        got.extend_from_slice(&chunk[..n]);
    }
    assert_eq!(
        got.len(),
        want,
        "exactly BURST responses, no trailing bytes"
    );
    for (i, resp) in got.chunks(one_hit.len()).enumerate() {
        assert_eq!(resp, &one_hit[..], "burst response {i} corrupt");
    }

    let s = proxy.stats();
    assert_eq!(s.outcomes(), s.requests, "counters must conserve: {s:?}");
    assert_eq!(s.upstream_errors, 0, "{s:?}");
    proxy.stop();
    origin.stop();
}

/// An origin that consumes the request, then closes the connection
/// without answering — a clean mid-exchange kill after the proxy has
/// committed its request bytes.
fn accept_then_close_origin() -> piggyback::proxyd::util::ServerHandle {
    serve(0, "accept-close", |stream| {
        let mut r = BufReader::new(stream);
        let _ = Request::read(&mut r);
        // Drop: FIN after the request was read, before any response.
    })
    .unwrap()
}

/// ISSUE 9 satellite: an origin killed mid-exchange costs exactly one
/// retry on a fresh connection and then a 502 — identically in both
/// I/O modes (the reactor's nonblocking upstream state machine must
/// replicate the threaded pool's retry-once semantics).
fn origin_kill_run(io: piggyback::proxyd::IoMode) {
    let origin = accept_then_close_origin();
    let mut cfg = ProxyConfig::new(origin.addr);
    cfg.io = io;
    let proxy = start_proxy(cfg).unwrap();

    let n = 6u64;
    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    for i in 0..n {
        let resp = client.get(&format!("/kill{i}.html"), &[]).unwrap();
        assert_eq!(resp.status, 502, "request {i}");
    }

    let s = proxy.stats();
    assert_eq!(s.upstream_errors, n, "{s:?}");
    assert_eq!(
        s.upstream_retries, n,
        "exactly one fresh-connection retry per killed exchange: {s:?}"
    );
    conserved(&proxy, n);
    proxy.stop();
    origin.stop();
}

#[test]
fn origin_killed_mid_exchange_retries_once_then_502_threaded() {
    origin_kill_run(piggyback::proxyd::IoMode::Threaded);
}

#[cfg(target_os = "linux")]
#[test]
fn origin_killed_mid_exchange_retries_once_then_502_reactor() {
    origin_kill_run(piggyback::proxyd::IoMode::Reactor { reactors: 2 });
}

/// A stalled origin (accepts, reads the request, never answers) and a
/// trickling one (a head, then one body byte every 50 ms — each read well
/// inside the timeout, the attempt not) are both killed by the
/// per-attempt upstream deadline (`--upstream-timeout-secs`, PROTOCOL.md
/// §7.1): once on the first attempt, once on the retry, then a 502 —
/// within a few timeouts, on both engines. The reactor also counts both
/// kills in its per-shard wheel counter on the metrics endpoint. (The
/// threaded half failed before the pool's connections carried the
/// deadline: it waited until the stalled origin closed, ~16 s, and served
/// the trickled body whole.)
#[test]
fn stalled_and_trickling_origins_hit_the_upstream_timeout_on_both_engines() {
    const TIMEOUT: Duration = Duration::from_millis(300);
    for trickle in [false, true] {
        assert_engine_parity(|io| {
            let origin = serve(0, "stalled", move |mut stream| {
                let mut r = BufReader::new(stream.try_clone().unwrap());
                let _ = Request::read(&mut r);
                if !trickle {
                    // Never answer; hold the socket long past the timeout.
                    std::thread::sleep(Duration::from_secs(8));
                    return;
                }
                let head = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n";
                if stream.write_all(head).is_err() {
                    return;
                }
                for _ in 0..100 {
                    std::thread::sleep(Duration::from_millis(50));
                    if stream.write_all(b"x").is_err() {
                        return;
                    }
                }
            })
            .unwrap();

            let mut cfg = ProxyConfig::new(origin.addr);
            cfg.io = io;
            cfg.report_hits = false;
            cfg.rpv = None;
            cfg.upstream_timeout = TIMEOUT;
            // A short idle window gives the reactor's wheel ~100 ms ticks.
            cfg.reactor_idle_timeout = Duration::from_secs(3);
            let proxy = start_proxy(cfg).unwrap();

            let mut client = HttpClient::connect(proxy.addr()).unwrap();
            let asked = std::time::Instant::now();
            let resp = client.get("/stall.html", &[]).unwrap();
            let took = asked.elapsed();
            let what = format!("{io:?}, trickle {trickle}");
            assert_eq!(resp.status, 502, "{what}: the deadline must end in a 502");
            assert!(took < TIMEOUT * 8, "{what}: the 502 took {took:?}");
            let s = ledger(&proxy);
            assert_eq!(
                (s.upstream_errors, s.upstream_retries),
                (1, 1),
                "{what}: one fresh-connection retry, also killed: {s:?}"
            );

            if io.is_reactor() {
                let scrape = client.get(piggyback::proxyd::METRICS_PATH, &[]).unwrap();
                let text = String::from_utf8(scrape.body.to_vec()).unwrap();
                let timeouts: u64 = text
                    .lines()
                    .filter(|l| l.starts_with("pb_proxy_reactor_upstream_timeouts_total{shard="))
                    .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                    .sum();
                assert!(
                    timeouts >= 2,
                    "{what}: both attempts must be wheel-reaped:\n{text}"
                );
            }
            proxy.stop();
            origin.stop();
            s
        });
    }
}

/// A client that trickles its request — a request line, then one header
/// byte every 100 ms — is closed by the read deadline
/// (`--idle-timeout-secs`, PROTOCOL.md §12.1) on both engines, though no
/// single read waits that long. (The threaded half failed before the
/// blocking poller drove the client machine: each byte restarted its read
/// timeout, and the connection stayed open until the client stopped.)
#[test]
fn a_trickling_client_misses_the_read_deadline_on_both_engines() {
    const IDLE: Duration = Duration::from_millis(400);
    assert_engine_parity(|io| {
        let (origin, _, _) = scripted_origin(|_, _| Answer::full(10));
        let mut cfg = ProxyConfig::new(origin.addr);
        cfg.io = io;
        cfg.report_hits = false;
        cfg.rpv = None;
        cfg.reactor_idle_timeout = IDLE;
        let proxy = start_proxy(cfg).unwrap();

        let mut stream = std::net::TcpStream::connect(proxy.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        stream.write_all(b"GET /slow.html HTTP/1.1\r\n").unwrap();
        let started = std::time::Instant::now();
        let mut buf = [0u8; 64];
        let closed_after = loop {
            if started.elapsed() >= Duration::from_secs(5) {
                break None;
            }
            match stream.read(&mut buf) {
                Ok(0) => break Some(started.elapsed()),
                Ok(_) => panic!("{io:?}: an incomplete request was answered"),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if stream.write_all(b"X").is_err() {
                        break Some(started.elapsed());
                    }
                }
                Err(_) => break Some(started.elapsed()),
            }
        };
        let closed = closed_after.is_some_and(|t| t < Duration::from_secs(2));
        assert!(closed, "{io:?}: closed after {closed_after:?}");
        let s = ledger(&proxy);
        proxy.stop();
        origin.stop();
        (closed, s)
    });
}

#[test]
fn concurrent_load_with_failures_stays_consistent() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let proxy = start_proxy(ProxyConfig::new(origin.addr())).unwrap();
    let paths: Vec<String> = origin.paths().into_iter().take(10).collect();

    let mut handles = Vec::new();
    for t in 0..6 {
        let addr = proxy.addr();
        let paths = paths.clone();
        handles.push(std::thread::spawn(move || {
            let mut ok = 0usize;
            let mut client = HttpClient::connect(addr).unwrap();
            for i in 0..30 {
                let p = &paths[(t + i) % paths.len()];
                if let Ok(resp) = client.get(p, &[]) {
                    if resp.status == 200 {
                        ok += 1;
                    }
                }
            }
            ok
        }));
    }
    let total_ok: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(total_ok, 6 * 30, "every request must succeed");
    let stats = proxy.stats();
    assert_eq!(stats.requests, 180);
    assert!(stats.fresh_hits > 0, "shared cache must absorb repeats");
    proxy.stop();
    origin.stop();
}

// ---------------------------------------------------------------------------
// Engine parity under scripted origin faults (PROTOCOL.md §7.1, §14): the
// upstream lifecycle is written once, so every lane below runs on both
// I/O engines and the two ledgers must agree field for field.
// ---------------------------------------------------------------------------

/// What a [`scripted_origin`] sends for one request: a response
/// declaring `declared` body bytes, of which only `sent` go out — fewer
/// than declared means the connection drops mid-body.
struct Answer {
    /// Status code and reason phrase.
    status: &'static str,
    declared: usize,
    sent: usize,
    /// Extra header lines, each `\r\n`-terminated.
    headers: &'static str,
}

impl Answer {
    fn full(len: usize) -> Answer {
        Answer {
            status: "200 OK",
            declared: len,
            sent: len,
            headers: "",
        }
    }

    fn not_modified() -> Answer {
        Answer {
            status: "304 Not Modified",
            ..Answer::full(0)
        }
    }
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// A keep-alive `Content-Length` origin whose answer to the `n`-th
/// request it sees (counted across connections), `req`, is
/// `script(n, req)`. Returns the connection and request counters
/// alongside the handle.
fn scripted_origin(
    script: impl Fn(usize, &Request) -> Answer + Send + Sync + 'static,
) -> (
    piggyback::proxyd::util::ServerHandle,
    Arc<AtomicUsize>,
    Arc<AtomicUsize>,
) {
    let conns = Arc::new(AtomicUsize::new(0));
    let requests = Arc::new(AtomicUsize::new(0));
    let (conns2, requests2) = (Arc::clone(&conns), Arc::clone(&requests));
    let handle = serve(0, "scripted-origin", move |stream| {
        conns2.fetch_add(1, Ordering::SeqCst);
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        while let Ok(req) = Request::read(&mut r) {
            let answer = script(requests2.fetch_add(1, Ordering::SeqCst), &req);
            let head = format!(
                "HTTP/1.1 {}\r\nLast-Modified: Thu, 01 Jan 1998 00:00:00 GMT\r\n{}\
                 Content-Length: {}\r\n\r\n",
                answer.status, answer.headers, answer.declared
            );
            let body = pattern(answer.declared);
            let sent = w
                .write_all(head.as_bytes())
                .and_then(|()| w.write_all(&body[..answer.sent]))
                .and_then(|()| w.flush());
            if sent.is_err() || answer.sent < answer.declared {
                return; // die mid-body
            }
        }
    })
    .unwrap();
    (handle, conns, requests)
}

fn engines() -> Vec<piggyback::proxyd::IoMode> {
    let mut engines = vec![piggyback::proxyd::IoMode::Threaded];
    #[cfg(target_os = "linux")]
    engines.push(piggyback::proxyd::IoMode::Reactor { reactors: 1 });
    engines
}

/// Run `lane` once per engine — each run against its own fresh origin and
/// proxy — and require identical results. Lanes return the proxy ledger
/// (through [`ledger`]) plus whatever else must not depend on the engine.
fn assert_engine_parity<T: PartialEq + std::fmt::Debug>(
    lane: impl Fn(piggyback::proxyd::IoMode) -> T,
) {
    let results: Vec<T> = engines().into_iter().map(lane).collect();
    for other in &results[1..] {
        assert_eq!(&results[0], other, "the engines' ledgers diverged");
    }
}

/// The proxy's counters minus the one poller-specific field: hits on the
/// affine L1, whose scope is a reactor shard or a blocking connection.
fn ledger(proxy: &ProxyHandle) -> piggyback::proxyd::ProxyStats {
    let mut s = proxy.stats();
    assert_eq!(s.outcomes(), s.requests, "counters must conserve: {s:?}");
    s.affine_hits = 0;
    s
}

fn quiet_proxy(origin: SocketAddr, io: piggyback::proxyd::IoMode) -> ProxyHandle {
    let mut cfg = ProxyConfig::new(origin);
    cfg.io = io;
    cfg.report_hits = false;
    cfg.rpv = None;
    start_proxy(cfg).unwrap()
}

/// One fresh-connection GET, raw: every byte that arrived before the
/// connection closed. The read timeout turns a wedged proxy into a
/// failure instead of a hung run.
fn raw_bytes(addr: SocketAddr, path: &str) -> Vec<u8> {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    if let Err(e) = stream.read_to_end(&mut raw) {
        // A reset after a truncation is fine; a timeout is a hang.
        assert_ne!(e.kind(), std::io::ErrorKind::WouldBlock, "proxy hung");
        assert_ne!(e.kind(), std::io::ErrorKind::TimedOut, "proxy hung");
    }
    raw
}

/// [`raw_bytes`], split into the response head and however many body
/// bytes followed it.
fn raw_get(addr: SocketAddr, path: &str) -> (String, Vec<u8>) {
    let raw = raw_bytes(addr, path);
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head arrives intact")
        + 4;
    (
        String::from_utf8_lossy(&raw[..head_end]).to_string(),
        raw[head_end..].to_vec(),
    )
}

/// Nothing listens at the origin address: the dial failure is terminal —
/// one 502, no retry — in both engines.
#[test]
fn dial_failure_is_terminal_without_retry_on_both_engines() {
    assert_engine_parity(|io| {
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let proxy = quiet_proxy(dead, io);
        let (head, _) = raw_get(proxy.addr(), "/x.html");
        assert!(head.starts_with("HTTP/1.1 502"), "{io:?}: {head}");
        let s = ledger(&proxy);
        assert_eq!(s.upstream_errors, 1, "{io:?}: {s:?}");
        assert_eq!(s.upstream_retries, 0, "{io:?}: {s:?}");
        proxy.stop();
        s
    });
}

/// The origin's first answer dies after 10 of its 1000 declared bytes;
/// every later one is complete. No payload byte has reached the client,
/// so the exchange retries once on a fresh connection and succeeds.
/// (Regression: the reactor used to spin forever on the EOF, and the
/// threaded streaming path answered 502 without retrying.)
#[test]
fn origin_dying_mid_body_is_retried_once_on_both_engines() {
    assert_engine_parity(|io| {
        let (origin, conns, _) = scripted_origin(|n, _| Answer {
            sent: if n == 0 { 10 } else { 1000 },
            ..Answer::full(1000)
        });
        let proxy = quiet_proxy(origin.addr, io);
        let (head, body) = raw_get(proxy.addr(), "/x.html");
        assert!(head.starts_with("HTTP/1.1 200"), "{io:?}: {head}");
        assert_eq!(body, pattern(1000), "{io:?}");
        let s = ledger(&proxy);
        assert_eq!(s.upstream_retries, 1, "{io:?}: {s:?}");
        assert_eq!(s.upstream_errors, 0, "{io:?}: {s:?}");
        let conns = conns.load(Ordering::SeqCst);
        assert_eq!(conns, 2, "{io:?}: first attempt plus one fresh retry");
        proxy.stop();
        origin.stop();
        (s, conns)
    });
}

/// A validation racing an eviction: the cached body is evicted while its
/// 304 is in flight. One shard and a cache that holds one object; the
/// origin answers A's first GET, then holds A's 304 until a second
/// client's miss on B has evicted A. The body pinned at planning answers
/// the validation — `VALIDATED`, A's bytes under A's `Last-Modified` — and
/// the origin sees no second, unconditional GET of A.
#[test]
fn a_validation_whose_body_is_evicted_mid_flight_serves_the_pinned_body_on_both_engines() {
    const LEN: usize = 1000;
    assert_engine_parity(|io| {
        let (release, held) = mpsc::channel::<()>();
        let held = Mutex::new(held);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let (origin, _, _) = scripted_origin(move |_, req| {
            let ims = req.headers.get("If-Modified-Since").is_some();
            log.lock()
                .unwrap()
                .push(format!("{} ims={ims}", req.target));
            if !ims {
                return Answer::full(LEN);
            }
            let _ = held.lock().unwrap().recv_timeout(Duration::from_secs(10));
            Answer::not_modified()
        });
        let mut cfg = ProxyConfig::new(origin.addr);
        cfg.io = io;
        cfg.report_hits = false;
        cfg.rpv = None;
        cfg.shards = 1;
        cfg.capacity_bytes = (LEN * 3 / 2) as u64;
        cfg.freshness = DurationMs::from_millis(1);
        let proxy = start_proxy(cfg).unwrap();
        let (head, a) = raw_get(proxy.addr(), "/a.html");
        assert!(head.contains("X-Cache: MISS"), "{io:?}: {head}");
        let lm = head
            .lines()
            .find(|l| l.starts_with("Last-Modified:"))
            .unwrap();
        std::thread::sleep(Duration::from_millis(5)); // A goes stale

        let addr = proxy.addr();
        let validation = std::thread::spawn(move || raw_get(addr, "/a.html"));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while seen.lock().unwrap().len() < 2 {
            assert!(
                std::time::Instant::now() < deadline,
                "{io:?}: no validation"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let (head, _) = raw_get(proxy.addr(), "/b.html");
        assert!(head.contains("X-Cache: MISS"), "{io:?}: {head}");
        let (_, scrape) = raw_get(proxy.addr(), "/__pb/metrics");
        let scrape = String::from_utf8(scrape).unwrap();
        for evicted in [
            "pb_proxy_cache_shard_evictions_total{shard=\"0\"} 1\n",
            "pb_proxy_body_entries{shard=\"0\"} 1\n",
        ] {
            assert!(scrape.contains(evicted), "{io:?}: B evicted A: {scrape}");
        }
        release.send(()).unwrap();

        let (head, body) = validation.join().unwrap();
        assert!(head.starts_with("HTTP/1.1 200"), "{io:?}: {head}");
        assert!(head.contains("X-Cache: VALIDATED"), "{io:?}: {head}");
        assert!(head.contains(lm), "{io:?}: {head}");
        assert_eq!(body, a, "{io:?}: A's original bytes");
        let seen = seen.lock().unwrap().clone();
        assert_eq!(
            seen,
            ["/a.html ims=false", "/a.html ims=true", "/b.html ims=false"],
            "{io:?}: one validation, no unconditional refetch of A"
        );
        let s = ledger(&proxy);
        assert_eq!(s.validations, 1, "{io:?}: {s:?}");
        assert_eq!(s.not_modified, 1, "{io:?}: {s:?}");
        proxy.stop();
        origin.stop();
        (s, seen)
    });
}

/// An origin that answers an unconditional GET with a 304 gets one
/// request: the proxy asked for no validation, so the 304 passes through
/// like every other non-200.
#[test]
fn an_unsolicited_304_passes_through_on_both_engines() {
    assert_engine_parity(|io| {
        let (origin, _, requests) = scripted_origin(|_, _| Answer::not_modified());
        let proxy = quiet_proxy(origin.addr, io);
        let (head, body) = raw_get(proxy.addr(), "/x.html");
        assert!(head.starts_with("HTTP/1.1 304"), "{io:?}: {head}");
        assert!(body.is_empty(), "{io:?}");
        let s = ledger(&proxy);
        assert_eq!(s.upstream_passthrough, 1, "{io:?}: {s:?}");
        assert_eq!(s.not_modified, 0, "{io:?}: {s:?}");
        let requests = requests.load(Ordering::SeqCst);
        assert_eq!(requests, 1, "{io:?}: one origin request");
        proxy.stop();
        origin.stop();
        (s, requests)
    });
}

/// An origin that closes behind every answer — one says so with
/// `Connection: close` over a `Content-Length` body, one delimits the body
/// by the close itself — leaves nothing worth pooling: each of N
/// sequential misses on one client connection dials afresh, none is
/// retried, and the threaded pool never checks a dead connection in for
/// the next checkout to evict. (Regression: both engines took such a
/// response as reusable.)
#[test]
fn a_connection_the_origin_closes_is_never_pooled_on_both_engines() {
    const N: usize = 4;
    for framing in ["Connection: close\r\nContent-Length: 500\r\n", ""] {
        assert_engine_parity(|io| {
            let (origin, conns) = wire_origin(move |_, stream| {
                let head = format!(
                    "HTTP/1.1 200 OK\r\nLast-Modified: Thu, 01 Jan 1998 00:00:00 GMT\r\n\
                     {framing}\r\n"
                );
                let _ = stream.write_all(&[head.as_bytes(), &pattern(500)].concat());
                false
            });
            let proxy = quiet_proxy(origin.addr, io);
            let mut client = HttpClient::connect(proxy.addr()).unwrap();
            for i in 0..N {
                let resp = client.get(&format!("/p{i}.html"), &[]).unwrap();
                assert_eq!(resp.status, 200, "{io:?} {framing:?} request {i}");
                assert!(resp.body[..] == pattern(500)[..], "{io:?} {framing:?}");
                // Let the origin's close land before the next miss.
                std::thread::sleep(Duration::from_millis(20));
            }
            let s = ledger(&proxy);
            assert_eq!(s.upstream_retries, 0, "{io:?} {framing:?}: {s:?}");
            if io == piggyback::proxyd::IoMode::Threaded {
                let pool = proxy.pool_stats().unwrap();
                assert_eq!(pool.evicted_unhealthy, 0, "{framing:?}: {pool:?}");
            }
            let conns = conns.load(Ordering::SeqCst);
            assert_eq!(conns, N, "{io:?} {framing:?}: one connection per miss");
            proxy.stop();
            origin.stop();
            (s, conns)
        });
    }
}

/// A large `Content-Length` 200 streams through the relay, so it has no
/// trailers: a piggyback on it rides the response *head*, and the
/// streamed settle must apply it like any other.
#[test]
fn header_placed_piggyback_on_a_streamed_response_is_applied_on_both_engines() {
    const TOTAL: usize = 512 * 1024;
    assert_engine_parity(|io| {
        let (origin, _, _) = scripted_origin(|_, _| Answer {
            headers: "P-volume: 7; \"/mate.html\" 886000000 1024\r\n",
            ..Answer::full(TOTAL)
        });
        let proxy = quiet_proxy(origin.addr, io);
        let (head, body) = raw_get(proxy.addr(), "/big.bin");
        assert!(head.contains("X-Cache: MISS"), "{io:?}: {head}");
        assert_eq!(body, pattern(TOTAL), "{io:?}");
        let s = ledger(&proxy);
        assert_eq!(s.streamed_misses, 1, "{io:?}: {s:?}");
        assert_eq!(s.piggyback_messages, 1, "{io:?}: {s:?}");
        assert_eq!(s.prefetch_candidates, 1, "{io:?}: {s:?}");
        proxy.stop();
        origin.stop();
        s
    });
}

/// The origin dies mid-suffix during a prefix-hit relay. The head and
/// cached prefix are already on the client wire, so the proxy cannot
/// 502: it must truncate the client connection, count exactly one
/// terminal outcome, and keep the (still-valid) prefix — the next
/// request prefix-hits again and completes.
#[test]
fn origin_dies_mid_suffix_truncates_client_and_keeps_prefix() {
    const TOTAL: usize = 600 * 1024;
    assert_engine_parity(|io| {
        let (origin, _, origin_requests) = scripted_origin(|n, _| Answer {
            sent: if n == 1 { TOTAL / 3 } else { TOTAL },
            ..Answer::full(TOTAL)
        });
        let proxy = quiet_proxy(origin.addr, io);
        let expect = pattern(TOTAL);

        // Miss: streamed through, the first 64 KiB retained as a prefix.
        let (head, body) = raw_get(proxy.addr(), "/big.bin");
        assert!(head.contains("X-Cache: MISS"), "{io:?}: {head}");
        assert_eq!(body, expect);

        // Prefix hit whose suffix refetch dies mid-body: the client gets
        // the promised head plus a truncated-but-clean body prefix, never
        // a 502.
        let (head, body) = raw_get(proxy.addr(), "/big.bin");
        assert!(head.contains("X-Cache: PREFIX"), "{io:?}: {head}");
        assert!(head.contains(&format!("Content-Length: {TOTAL}")), "{head}");
        assert!(
            body.len() < TOTAL,
            "{io:?}: body must be truncated, got {}",
            body.len()
        );
        assert!(
            body.len() >= 64 * 1024,
            "{io:?}: the cached prefix was flushed before the fault"
        );
        assert_eq!(
            &body[..],
            &expect[..body.len()],
            "{io:?}: whatever arrived must be a clean prefix of the object"
        );

        // The prefix was not poisoned: with the origin healthy again, the
        // next request is a complete, byte-identical prefix hit.
        let (head, body) = raw_get(proxy.addr(), "/big.bin");
        assert!(head.contains("X-Cache: PREFIX"), "{io:?}: {head}");
        assert_eq!(body, expect);

        let s = ledger(&proxy);
        assert_eq!(s.requests, 3);
        assert_eq!(s.streamed_misses, 1);
        assert_eq!(
            s.prefix_hits, 1,
            "{io:?}: only the clean repeat is a hit: {s:?}"
        );
        assert_eq!(
            s.upstream_errors, 1,
            "{io:?}: mid-suffix death is one terminal error"
        );
        assert_eq!(s.upstream_retries, 0, "an engaged relay never retries");
        let origin_requests = origin_requests.load(Ordering::SeqCst);
        assert_eq!(origin_requests, 3, "{io:?}");
        proxy.stop();
        origin.stop();
        (s, origin_requests)
    });
}

/// The object changed length underneath a cached prefix: the prefix head
/// already promised the old length, so the suffix fetch's new
/// `Content-Length` is a mismatch — the client is truncated (never
/// served a spliced body), the stale prefix is dropped, and the next
/// request is a plain MISS that re-primes.
#[test]
fn object_changing_length_under_a_prefix_truncates_and_drops_the_prefix() {
    const OLD: usize = 600 * 1024;
    const NEW: usize = 500 * 1024;
    assert_engine_parity(|io| {
        let (origin, _, origin_requests) =
            scripted_origin(|n, _| Answer::full(if n == 0 { OLD } else { NEW }));
        let proxy = quiet_proxy(origin.addr, io);

        let (head, body) = raw_get(proxy.addr(), "/big.bin");
        assert!(head.contains("X-Cache: MISS"), "{io:?}: {head}");
        assert_eq!(body, pattern(OLD));

        let (head, body) = raw_get(proxy.addr(), "/big.bin");
        assert!(head.contains("X-Cache: PREFIX"), "{io:?}: {head}");
        assert!(head.contains(&format!("Content-Length: {OLD}")), "{head}");
        assert!(
            body.len() <= 64 * 1024,
            "{io:?}: nothing of the new object may follow the old prefix, got {}",
            body.len()
        );
        assert_eq!(&body[..], &pattern(OLD)[..body.len()], "{io:?}");

        let (head, body) = raw_get(proxy.addr(), "/big.bin");
        assert!(
            head.contains("X-Cache: MISS"),
            "{io:?}: the stale prefix must be gone: {head}"
        );
        assert_eq!(body, pattern(NEW));

        let s = ledger(&proxy);
        assert_eq!(s.requests, 3);
        assert_eq!(s.streamed_misses, 2, "{io:?}: {s:?}");
        assert_eq!(s.prefix_hits, 0, "{io:?}: {s:?}");
        assert_eq!(s.upstream_errors, 1, "{io:?}: {s:?}");
        assert_eq!(s.upstream_retries, 0, "a mismatch is terminal: {s:?}");
        let origin_requests = origin_requests.load(Ordering::SeqCst);
        assert_eq!(origin_requests, 3, "{io:?}");
        proxy.stop();
        origin.stop();
        (s, origin_requests)
    });
}

/// A 200 for `body` in chunked framing, terminal chunk included, in one
/// write.
fn write_chunked_ok(stream: &mut std::net::TcpStream, body: &[u8]) -> bool {
    let mut resp = Response::new(200);
    resp.headers
        .insert("Last-Modified", "Thu, 01 Jan 1998 00:00:00 GMT");
    resp.headers.insert("Transfer-Encoding", "chunked");
    resp.body = body.to_vec().into();
    let mut wire = Vec::new();
    resp.write(&mut wire).unwrap();
    stream.write_all(&wire).is_ok()
}

/// One fresh-connection GET that must arrive whole, in whatever framing
/// the proxy chose: its `X-Cache` verdict and decoded body.
fn whole_get(addr: SocketAddr, path: &str) -> (String, Vec<u8>) {
    let raw = raw_bytes(addr, path);
    let resp = Response::read(&mut raw.as_slice(), false).expect("a whole response");
    assert_eq!(resp.status, 200, "{path}");
    let verdict = resp.headers.get("X-Cache").expect("a verdict").to_owned();
    (verdict, resp.body.to_vec())
}

/// The `X-Cache` verdicts of two GETs of `path`, both bodies whole.
fn x_cache_twice(proxy: SocketAddr, path: &str, expect: &[u8]) -> [String; 2] {
    [(); 2].map(|()| {
        let (verdict, body) = whole_get(proxy, path);
        assert!(body == expect, "{path}: body whole, got {}", body.len());
        verdict
    })
}

/// The streaming threshold is one comparison, `>=`, whatever framing the
/// origin chose: an object one byte short of it is cached whole (`MISS`,
/// `HIT`), one of exactly the threshold or more is relayed and
/// prefix-cached (`MISS`, `PREFIX`). (Regression: threaded cached a
/// chunked object of exactly the threshold whole when its terminal chunk
/// rode the last segment.) Both engines, one expectation: a chunked `200`
/// grows into a relay at the threshold on either (PROTOCOL.md §7.1).
#[test]
fn streaming_threshold_is_the_same_comparison_in_both_framings() {
    const THRESHOLD: usize = 256 * 1024;
    for io in engines() {
        // `/length/<n>` and `/chunked/<n>`: n bytes in that framing.
        let origin = serve(0, "sized-origin", |mut stream| {
            let mut r = BufReader::new(stream.try_clone().unwrap());
            while let Ok(req) = Request::read(&mut r) {
                let (framing, n) = req.target[1..].split_once('/').unwrap();
                let body = pattern(n.parse().unwrap());
                let sent = match framing {
                    "length" => write_ok(&mut stream, body.len(), &body),
                    _ => write_chunked_ok(&mut stream, &body),
                };
                if !sent {
                    return;
                }
            }
        })
        .unwrap();
        let proxy = quiet_proxy(origin.addr, io);
        for size in [THRESHOLD - 1, THRESHOLD, THRESHOLD + 1] {
            let relayed = ["MISS", "PREFIX"];
            let length = x_cache_twice(proxy.addr(), &format!("/length/{size}"), &pattern(size));
            let chunked = x_cache_twice(proxy.addr(), &format!("/chunked/{size}"), &pattern(size));
            let expect_length = if size < THRESHOLD {
                ["MISS", "HIT"]
            } else {
                relayed
            };
            assert_eq!(
                length, expect_length,
                "{io:?}: Content-Length, {size} bytes"
            );
            assert_eq!(chunked, expect_length, "{io:?}: chunked, {size} bytes");
        }
        ledger(&proxy);
        proxy.stop();
        origin.stop();
    }
}

/// An origin that chunks every answer, even to the plain GET of a suffix
/// refetch: the pinned relay decodes the chunked body under the
/// `Content-Length` head the prefix hit already sent, so the `PREFIX` hit
/// is whole. A body that then turns out another length is the mismatch
/// it always was — the client is truncated, the prefix dropped, the next
/// GET a plain `MISS`. (Regression: the suffix refetch demanded a
/// `Content-Length` and truncated every prefix hit.) The prefix is primed
/// either way: by a first answer in `Content-Length` framing, or by a
/// chunked one grown into a relay — on both engines.
#[test]
fn prefix_hit_against_an_origin_that_chunks_is_whole() {
    const OLD: usize = 600 * 1024;
    const NEW: usize = 500 * 1024;
    let lane = |io, first_chunked: bool| {
        let (origin, _) = wire_origin(move |n, stream| match n {
            0 if !first_chunked => write_ok(stream, OLD, &pattern(OLD)),
            0 | 1 => write_chunked_ok(stream, &pattern(OLD)),
            _ => write_chunked_ok(stream, &pattern(NEW)),
        });
        let proxy = quiet_proxy(origin.addr, io);
        let what = format!("{io:?}, first answer chunked: {first_chunked}");

        let got = whole_get(proxy.addr(), "/big.bin");
        assert!(
            got == ("MISS".to_owned(), pattern(OLD)),
            "{what}: {}",
            got.0
        );

        let got = whole_get(proxy.addr(), "/big.bin");
        assert!(
            got == ("PREFIX".to_owned(), pattern(OLD)),
            "{what}: {}",
            got.0
        );

        let (head, body) = raw_get(proxy.addr(), "/big.bin");
        assert!(head.contains("X-Cache: PREFIX"), "{what}: {head}");
        assert!(body.len() < OLD, "{what}: truncated, got {}", body.len());
        // Only bytes both versions share may sit behind the old head.
        assert!(body == pattern(NEW)[..body.len()], "{what}: a clean prefix");

        let got = whole_get(proxy.addr(), "/big.bin");
        assert!(
            got == ("MISS".to_owned(), pattern(NEW)),
            "{what}: {}",
            got.0
        );

        let s = ledger(&proxy);
        assert_eq!((s.requests, s.prefix_hits), (4, 1), "{what}: {s:?}");
        assert_eq!(
            (s.upstream_errors, s.upstream_retries),
            (1, 0),
            "{what}: {s:?}"
        );
        proxy.stop();
        origin.stop();
        (s.cache_hits, s.full_fetches, s.bytes_from_origin)
    };
    assert_engine_parity(|io| (lane(io, false), lane(io, true)));
}

// ---------------------------------------------------------------------------
// The volume center between proxy and origin (PROTOCOL.md §14.1): it dials
// the origin once per downstream connection and cuts bodies through, so a
// stale, dying or lying upstream meets the relay first. The lanes through
// a proxy run on both engines and their ledgers must agree.
// ---------------------------------------------------------------------------

fn relay(
    origin: SocketAddr,
    transparent: bool,
) -> piggyback::proxyd::volume_center::VolumeCenterHandle {
    start_volume_center(VolumeCenterConfig {
        port: 0,
        origin,
        volume_level: 1,
        shim: None,
        transparent,
    })
    .unwrap()
}

/// The origin closes its side after every response, as an origin that
/// reaps idle keep-alives does between requests. The center must re-dial,
/// not answer for the dead connection: every GET on the one downstream
/// connection is a 200. (Regression: the second was a well-formed 502,
/// which a proxy passes through as a response and never retries.)
#[test]
fn center_redials_an_upstream_that_closed_its_keepalive() {
    for transparent in [true, false] {
        let origin = one_shot_origin();
        let center = relay(origin.addr, transparent);
        let stream = std::net::TcpStream::connect(center.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        for i in 0..5 {
            let mut req = Request::new("GET", &format!("/stale{i}.html"));
            req.headers.insert("Host", "t");
            req.write(&mut w).unwrap();
            let resp = Response::read(&mut r, false).unwrap();
            assert_eq!(resp.status, 200, "request {i}, transparent {transparent}");
            assert_eq!(resp.body, b"one shot");
        }
        let d = center.daemon_stats();
        assert_eq!((d.connections, d.responses_ok), (1, 5), "{d:?}");
        center.stop();
        origin.stop();
    }
}

/// A keep-alive origin under the test's full control: `script(n, stream)`
/// writes whatever answers the `n`-th request (counted across
/// connections) and says whether the connection stays open. Returns the
/// connection counter alongside the handle.
fn wire_origin(
    script: impl Fn(usize, &mut std::net::TcpStream) -> bool + Send + Sync + 'static,
) -> (piggyback::proxyd::util::ServerHandle, Arc<AtomicUsize>) {
    let conns = Arc::new(AtomicUsize::new(0));
    let requests = AtomicUsize::new(0);
    let conns2 = Arc::clone(&conns);
    let handle = serve(0, "wire-origin", move |mut stream| {
        conns2.fetch_add(1, Ordering::SeqCst);
        let mut r = BufReader::new(stream.try_clone().unwrap());
        while Request::read(&mut r).is_ok() {
            if !script(requests.fetch_add(1, Ordering::SeqCst), &mut stream) {
                return;
            }
        }
    })
    .unwrap();
    (handle, conns)
}

fn write_ok(stream: &mut std::net::TcpStream, declared: usize, body: &[u8]) -> bool {
    let head = format!(
        "HTTP/1.1 200 OK\r\nLast-Modified: Thu, 01 Jan 1998 00:00:00 GMT\r\n\
         Content-Length: {declared}\r\n\r\n"
    );
    // One write: head and body (and any excess) reach the relay together.
    stream.write_all(&[head.as_bytes(), body].concat()).is_ok()
}

/// The upstream dies inside the first relay segment: nothing has gone
/// downstream yet, so the center still answers a well-formed 502 — which
/// the proxy passes through as the response it is (no retry at either
/// hop, no error outcome). The next request finds a fresh path and is
/// whole.
#[test]
fn upstream_dying_inside_the_first_segment_is_a_502_from_the_center() {
    assert_engine_parity(|io| {
        let (origin, conns, _) = scripted_origin(|n, _| Answer {
            sent: if n == 0 { 10 } else { 1000 },
            ..Answer::full(1000)
        });
        let center = relay(origin.addr, true);
        let proxy = quiet_proxy(center.addr(), io);
        let (head, _) = raw_get(proxy.addr(), "/x.html");
        assert!(head.starts_with("HTTP/1.1 502"), "{io:?}: {head}");
        let (head, body) = raw_get(proxy.addr(), "/x.html");
        assert!(head.starts_with("HTTP/1.1 200"), "{io:?}: {head}");
        assert_eq!(body, pattern(1000), "{io:?}");
        let s = ledger(&proxy);
        assert_eq!(s.upstream_passthrough, 1, "{io:?}: {s:?}");
        assert_eq!(s.full_fetches, 1, "{io:?}: {s:?}");
        assert_eq!((s.upstream_retries, s.upstream_errors), (0, 0), "{s:?}");
        let d = center.daemon_stats();
        assert_eq!((d.responses_error, d.responses_ok), (1, 1), "{d:?}");
        let conns = conns.load(Ordering::SeqCst);
        proxy.stop();
        center.stop();
        origin.stop();
        (s, conns)
    });
}

/// The upstream dies after the center's first segment went downstream:
/// the center can only truncate. A proxy still buffering (object under
/// its streaming threshold) sees a failed exchange and retries it once; a
/// proxy already relaying to its client truncates too and settles exactly
/// one error. Never a 502 spliced into a body, never a short body that
/// looks whole.
#[test]
fn upstream_dying_after_the_first_segment_truncates_at_the_center() {
    const SMALL: usize = 100 * 1024;
    const LARGE: usize = 600 * 1024;
    assert_engine_parity(|io| {
        let (origin, _, origin_requests) = scripted_origin(|n, _| match n {
            0 => Answer {
                sent: 40 * 1024,
                ..Answer::full(SMALL)
            },
            1 => Answer::full(SMALL),
            2 => Answer {
                sent: 200 * 1024,
                ..Answer::full(LARGE)
            },
            _ => Answer::full(LARGE),
        });
        let center = relay(origin.addr, true);
        let proxy = quiet_proxy(center.addr(), io);

        let (head, body) = raw_get(proxy.addr(), "/small.bin");
        assert!(head.starts_with("HTTP/1.1 200"), "{io:?}: {head}");
        assert_eq!(body, pattern(SMALL), "{io:?}: the retry's body, whole");

        // The relay had engaged when its upstream died, so whatever was
        // staged still goes out: the client holds the head and a strict
        // prefix of the body, in both engines. (Regression: the reactor
        // dropped a head staged in the readiness pass that aborted.)
        let (head, body) = raw_get(proxy.addr(), "/large.bin");
        assert!(head.starts_with("HTTP/1.1 200"), "{io:?}: {head}");
        assert!(head.contains(&format!("Content-Length: {LARGE}")), "{head}");
        assert!(body.len() < LARGE, "{io:?}: truncated, got {}", body.len());
        assert!(
            body == pattern(LARGE)[..body.len()],
            "{io:?}: a clean prefix"
        );

        let (_, body) = raw_get(proxy.addr(), "/large2.bin");
        assert_eq!(body, pattern(LARGE), "{io:?}: the relay recovered");

        let s = ledger(&proxy);
        assert_eq!(s.requests, 3);
        assert_eq!(
            s.upstream_retries, 1,
            "{io:?}: only the buffered one: {s:?}"
        );
        assert_eq!(s.upstream_errors, 1, "{io:?}: one terminal outcome: {s:?}");
        assert_eq!(s.full_fetches, 2, "{io:?}: {s:?}");
        let d = center.daemon_stats();
        assert_eq!(d.responses_ok, 2, "only whole transfers count: {d:?}");
        assert_eq!(d.responses_error, 0, "the center never answered 502: {d:?}");
        let origin_requests = origin_requests.load(Ordering::SeqCst);
        assert_eq!(origin_requests, 4, "{io:?}");
        proxy.stop();
        center.stop();
        origin.stop();
        (s, origin_requests)
    });
}

/// `Content-Length` lies short: the origin sends 50 bytes more than it
/// declared and keeps the connection open. The relay forwards exactly the
/// declared bytes, and never reuses the connection the excess sits on —
/// the excess is never parsed as the next response.
#[test]
fn bytes_beyond_a_short_content_length_are_dropped_with_their_connection() {
    assert_engine_parity(|io| {
        let (origin, conns) = wire_origin(|n, stream| match n {
            0 => write_ok(stream, 100, &pattern(150)),
            _ => write_ok(stream, 300, &pattern(300)),
        });
        let center = relay(origin.addr, true);
        let proxy = quiet_proxy(center.addr(), io);
        // One client connection, so the proxy reuses its center connection
        // and the center would reuse its origin connection if it could.
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        let first = client.get("/a.html", &[]).unwrap();
        assert_eq!((first.status, &first.body[..]), (200, &pattern(100)[..]));
        let second = client.get("/b.html", &[]).unwrap();
        assert_eq!((second.status, &second.body[..]), (200, &pattern(300)[..]));
        let s = ledger(&proxy);
        assert_eq!(s.full_fetches, 2, "{io:?}: {s:?}");
        assert_eq!((s.upstream_retries, s.upstream_errors), (0, 0), "{s:?}");
        let conns = conns.load(Ordering::SeqCst);
        assert_eq!(conns, 2, "{io:?}: the poisoned connection was not reused");
        proxy.stop();
        center.stop();
        origin.stop();
        (s, conns)
    });
}

/// A declared length above `MAX_BODY` is refused from the head alone: a
/// prompt 502, without reading a body the origin (which sends none here
/// and holds the connection) may never finish.
#[test]
fn content_length_above_max_body_is_a_502_without_reading_the_body() {
    assert_engine_parity(|io| {
        let (origin, _) = wire_origin(|_, stream| {
            let oversized = piggyback::httpwire::parse::MAX_BODY + 1;
            write_ok(stream, oversized, b"only a few bytes follow")
        });
        let center = relay(origin.addr, true);
        let proxy = quiet_proxy(center.addr(), io);
        let (head, _) = raw_get(proxy.addr(), "/huge.bin");
        assert!(head.starts_with("HTTP/1.1 502"), "{io:?}: {head}");
        let s = ledger(&proxy);
        assert_eq!(s.upstream_passthrough, 1, "{io:?}: {s:?}");
        assert_eq!(center.daemon_stats().responses_error, 1);
        proxy.stop();
        center.stop();
        origin.stop();
        s
    });
}

/// Trailers the upstream never announced in a `Trailer` header still
/// follow the body through the cut-through relay: here the unannounced
/// trailer is the piggyback itself, and the proxy behind the center
/// applies it.
#[test]
fn unannounced_trailers_are_forwarded_by_the_center() {
    const TOTAL: usize = 40 * 1024;
    assert_engine_parity(|io| {
        let (origin, _) = wire_origin(|_, stream| {
            let mut wire = b"HTTP/1.1 200 OK\r\n\
                Last-Modified: Thu, 01 Jan 1998 00:00:00 GMT\r\n\
                Transfer-Encoding: chunked\r\n\r\n"
                .to_vec();
            for chunk in pattern(TOTAL).chunks(10_000) {
                wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                wire.extend_from_slice(chunk);
                wire.extend_from_slice(b"\r\n");
            }
            wire.extend_from_slice(
                b"0\r\nP-volume: 7; \"/mate.html\" 886000000 1024\r\nX-Late: 1\r\n\r\n",
            );
            stream.write_all(&wire).is_ok()
        });
        let center = relay(origin.addr, true);
        let proxy = quiet_proxy(center.addr(), io);
        let (head, body) = raw_get(proxy.addr(), "/page.html");
        assert!(head.starts_with("HTTP/1.1 200"), "{io:?}: {head}");
        assert_eq!(body, pattern(TOTAL), "{io:?}");
        let s = ledger(&proxy);
        assert_eq!(s.piggyback_messages, 1, "{io:?}: {s:?}");
        assert_eq!(s.prefetch_candidates, 1, "{io:?}: {s:?}");
        proxy.stop();
        center.stop();
        origin.stop();
        s
    });
}

/// An origin whose one answer is a chunked `200` running one chunk past
/// `MAX_BODY`, and the requests it has seen.
fn endless_chunked_origin() -> (piggyback::proxyd::util::ServerHandle, Arc<AtomicUsize>) {
    const CHUNK: usize = 64 * 1024;
    let requests = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&requests);
    let (origin, _) = wire_origin(move |_, stream| {
        seen.fetch_add(1, Ordering::SeqCst);
        let chunk = pattern(CHUNK);
        let mut sent = stream
            .write_all(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
            .is_ok();
        let chunks = piggyback::httpwire::parse::MAX_BODY / CHUNK + 1;
        for _ in 0..chunks {
            sent = sent
                && write!(stream, "{CHUNK:x}\r\n").is_ok()
                && stream.write_all(&chunk).is_ok()
                && stream.write_all(b"\r\n").is_ok();
        }
        sent && stream.write_all(b"0\r\n\r\n").is_ok()
    });
    (origin, requests)
}

/// GET `/endless` from `addr` and read the answer until the peer closes,
/// keeping only its first KiB and its last five bytes, and counting the
/// rest: a body cut at `MAX_BODY` is never held here. A reset behind the
/// truncation is as good as a FIN; a timeout is a hang.
fn read_endless(addr: SocketAddr) -> (String, usize, [u8; 5]) {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"GET /endless HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (mut head, mut total, mut tail) = (Vec::new(), 0usize, [0u8; 5]);
    let mut buf = vec![0u8; 256 * 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                let keep = (1024 - head.len()).min(n);
                head.extend_from_slice(&buf[..keep]);
                total += n;
                if n >= 5 {
                    tail.copy_from_slice(&buf[n - 5..n]);
                } else {
                    tail.rotate_left(n);
                    tail[5 - n..].copy_from_slice(&buf[..n]);
                }
            }
            Err(e) => {
                assert_ne!(e.kind(), std::io::ErrorKind::WouldBlock, "relay hung");
                assert_ne!(e.kind(), std::io::ErrorKind::TimedOut, "relay hung");
                break;
            }
        }
    }
    (String::from_utf8_lossy(&head).into_owned(), total, tail)
}

/// A body cut at the cap: well past the first MiB, not past the cap by
/// more than a MiB, and without its terminal chunk.
fn assert_cut_at_the_cap(what: &str, total: usize, tail: [u8; 5]) {
    assert!(
        total > 1024 * 1024,
        "{what}: the body was cut through: {total}"
    );
    assert!(
        total <= piggyback::httpwire::parse::MAX_BODY + 1024 * 1024,
        "{what}: the relay stopped at the cap: {total}"
    );
    assert_ne!(
        &tail, b"0\r\n\r\n",
        "{what}: a capped body must not end well-formed"
    );
}

/// A chunked body that runs past `MAX_BODY` cannot be refused from its
/// head; the relay stops at the cap and closes mid-body — the missing
/// terminal chunk is the truncation signal. Here at the center; the lane
/// below drives the same body through the proxy on both engines.
#[test]
fn chunked_body_past_max_body_is_truncated_at_the_center() {
    let (origin, _) = endless_chunked_origin();
    let center = relay(origin.addr, true);
    let (_, total, tail) = read_endless(center.addr());
    assert_cut_at_the_cap("center", total, tail);
    assert_eq!(center.daemon_stats().responses_ok, 0);
    center.stop();
    origin.stop();
}

/// The same body through the proxy: past the threshold it grows into a
/// relay on either engine, so nothing buffers the 64 MiB. The client gets
/// a chunked `200` head and a body cut before its terminal chunk, then
/// the close; the origin sees one request — bytes went out, so the
/// failure is never retried — and the proxy counts one upstream error.
#[test]
fn chunked_body_past_max_body_is_truncated_by_the_proxy() {
    assert_engine_parity(|io| {
        let (origin, requests) = endless_chunked_origin();
        let proxy = quiet_proxy(origin.addr, io);
        let (head, total, tail) = read_endless(proxy.addr());
        assert!(head.starts_with("HTTP/1.1 200"), "{io:?}: {head}");
        assert!(
            head.contains("Transfer-Encoding: chunked"),
            "{io:?}: {head}"
        );
        assert_cut_at_the_cap(&format!("{io:?}"), total, tail);
        assert_eq!(requests.load(Ordering::SeqCst), 1, "{io:?}");
        let s = ledger(&proxy);
        assert_eq!(
            (s.upstream_errors, s.upstream_retries),
            (1, 0),
            "{io:?}: {s:?}"
        );
        proxy.stop();
        origin.stop();
        s
    });
}

// ---------------------------------------------------------------------------
// Speculation under demand (PROTOCOL.md §13.1): a demand miss for a path
// whose speculative fetch is on the wire joins it — the request waits for
// the speculation to settle and serves its entry, or fetches after all if
// nothing landed. Forced here: the origin holds the speculative GET until
// the proxy has counted the demand request.
// ---------------------------------------------------------------------------

const MATE: usize = 3000;

/// GETs of `/mate.html` an origin saw, by leg, and the switch that
/// releases the speculative one.
#[derive(Default)]
struct MateGets {
    speculative: AtomicUsize,
    demand: AtomicUsize,
    release: std::sync::atomic::AtomicBool,
}

/// An origin whose `/page.html` names `/mate.html` as a prefetch candidate
/// (a header-placed piggyback). The speculative GET of the mate — the
/// plain one, without `Piggy-filter` — waits for `release` and is then
/// answered by `speculate`; the demand GET gets the mate whole.
fn mate_origin(
    speculate: impl Fn(&mut std::net::TcpStream) -> bool + Send + Sync + 'static,
) -> (piggyback::proxyd::util::ServerHandle, Arc<MateGets>) {
    let gets = Arc::new(MateGets::default());
    let seen = Arc::clone(&gets);
    let handle = serve(0, "mate-origin", move |mut stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        while let Ok(req) = Request::read(&mut r) {
            let ok = match req.target.as_str() {
                "/page.html" => {
                    let head = "HTTP/1.1 200 OK\r\nLast-Modified: Thu, 01 Jan 1998 00:00:00 GMT\r\n\
                                P-volume: 7; \"/mate.html\" 886000000 3000\r\nContent-Length: 100\r\n\r\n";
                    stream
                        .write_all(&[head.as_bytes(), &pattern(100)].concat())
                        .is_ok()
                }
                _ if req.headers.get("Piggy-filter").is_some() => {
                    seen.demand.fetch_add(1, Ordering::SeqCst);
                    write_ok(&mut stream, MATE, &pattern(MATE))
                }
                _ => {
                    seen.speculative.fetch_add(1, Ordering::SeqCst);
                    while !seen.release.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    speculate(&mut stream)
                }
            };
            if !ok {
                return;
            }
        }
    })
    .unwrap();
    (handle, gets)
}

fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "never: {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The forced join on `io`: the page's piggyback starts the speculation,
/// the demand for the mate arrives while it is held on the wire, then the
/// origin answers it with `speculate`. Returns the mate's verdict (its
/// body must be whole), the ledger and the mate GETs (speculative,
/// demand).
fn join_lane(
    io: piggyback::proxyd::IoMode,
    speculate: impl Fn(&mut std::net::TcpStream) -> bool + Send + Sync + 'static,
) -> (String, piggyback::proxyd::ProxyStats, (usize, usize)) {
    let (origin, gets) = mate_origin(speculate);
    let mut cfg = ProxyConfig::new(origin.addr);
    cfg.io = io;
    cfg.report_hits = false;
    cfg.rpv = None;
    cfg.prefetch_budget = 1;
    let proxy = start_proxy(cfg).unwrap();
    let (verdict, _) = whole_get(proxy.addr(), "/page.html");
    assert_eq!(verdict, "MISS", "{io:?}");
    wait_for("speculation held on the wire", || {
        gets.speculative.load(Ordering::SeqCst) == 1
    });
    let addr = proxy.addr();
    let joiner = std::thread::spawn(move || whole_get(addr, "/mate.html"));
    wait_for("demand counted", || proxy.stats().requests == 2);
    // The demand claims right after it is counted; give it the moment.
    std::thread::sleep(Duration::from_millis(50));
    gets.release.store(true, Ordering::SeqCst);
    let (verdict, body) = joiner.join().unwrap();
    assert!(body == pattern(MATE), "{io:?}: mate body whole");
    let s = ledger(&proxy);
    assert_eq!(
        s.prefetch_issued,
        s.prefetch_used + s.prefetch_wasted + s.prefetch_inflight,
        "{io:?}: speculation ledger: {s:?}"
    );
    proxy.stop();
    origin.stop();
    let gets = (
        gets.speculative.load(Ordering::SeqCst),
        gets.demand.load(Ordering::SeqCst),
    );
    (verdict, s, gets)
}

/// The speculation lands: the joined demand is served its entry, whole,
/// as a hit — and the origin sees one GET of the mate.
#[test]
fn a_demand_joined_to_a_landing_speculation_is_its_hit_on_both_engines() {
    assert_engine_parity(|io| {
        let (mate, s, gets) = join_lane(io, |stream| write_ok(stream, MATE, &pattern(MATE)));
        assert_eq!(mate, "HIT", "{io:?}");
        assert_eq!(gets, (1, 0), "{io:?}: one origin GET of the mate");
        assert_eq!((s.prefetch_used, s.fresh_hits), (1, 1), "{io:?}: {s:?}");
        (s, gets)
    });
}

/// The speculation fails — a 500, or the origin dying mid-body on both
/// attempts: the joined demand falls back to exactly one fetch of its
/// own, served whole as a miss.
#[test]
fn a_demand_joined_to_a_failing_speculation_fetches_once_on_both_engines() {
    assert_engine_parity(|io| {
        let (mate, s, gets) = join_lane(io, |stream| {
            stream
                .write_all(b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n")
                .is_ok()
        });
        assert_eq!(mate, "MISS", "{io:?}");
        assert_eq!(gets, (1, 1), "{io:?}");
        assert_eq!((s.prefetch_wasted, s.prefetch_retries), (1, 0), "{s:?}");
        (s, gets)
    });
    assert_engine_parity(|io| {
        let (mate, s, gets) = join_lane(io, |stream| {
            let _ = write_ok(stream, MATE, &pattern(MATE / 2));
            false
        });
        assert_eq!(mate, "MISS", "{io:?}");
        assert_eq!(gets, (2, 1), "{io:?}: the speculation retried once");
        assert_eq!((s.prefetch_wasted, s.prefetch_retries), (1, 1), "{s:?}");
        (s, gets)
    });
}

/// A joined client that hangs up before the speculation lands still
/// settles: its parked demand is resumed and counted when the speculation
/// settles, though nobody reads the answer. The joiner pipelines a hit of
/// the page ahead of `GET /mate.html` and closes with that answer unread,
/// so its close is a reset: the reactor drops the connection at once and
/// resumes the joined demand into its spare buffers, a slot it no longer
/// holds; the blocking poller resumes it on the worker still waiting for
/// it, and the write to the dead socket fails.
#[test]
fn a_joined_client_that_hangs_up_still_settles_on_both_engines() {
    assert_engine_parity(|io| {
        let (origin, gets) = mate_origin(|stream| write_ok(stream, MATE, &pattern(MATE)));
        let mut cfg = ProxyConfig::new(origin.addr);
        cfg.io = io;
        cfg.report_hits = false;
        cfg.rpv = None;
        cfg.prefetch_budget = 1;
        let proxy = start_proxy(cfg).unwrap();
        assert_eq!(whole_get(proxy.addr(), "/page.html").0, "MISS", "{io:?}");
        wait_for("speculation held on the wire", || {
            gets.speculative.load(Ordering::SeqCst) == 1
        });
        let mut joiner = std::net::TcpStream::connect(proxy.addr()).unwrap();
        joiner
            .write_all(b"GET /page.html HTTP/1.1\r\n\r\nGET /mate.html HTTP/1.1\r\n\r\n")
            .unwrap();
        wait_for("demand counted", || proxy.stats().requests == 3);
        // The page's answer has arrived, and the demand has claimed.
        joiner.peek(&mut [0]).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        drop(joiner);
        let open = || proxy.io_stats().open_connections();
        if io != piggyback::proxyd::IoMode::Threaded {
            wait_for("the reactor dropped the joiner", || open() == 0);
        }
        gets.release.store(true, Ordering::SeqCst);
        wait_for("quiescence", || {
            let s = proxy.stats();
            open() == 0 && s.outcomes() == s.requests
        });
        let s = ledger(&proxy);
        assert_eq!(
            s.prefetch_issued,
            s.prefetch_used + s.prefetch_wasted + s.prefetch_inflight,
            "{io:?}: speculation ledger: {s:?}"
        );
        assert_eq!((s.prefetch_used, s.fresh_hits), (1, 2), "{io:?}: {s:?}");
        proxy.stop();
        origin.stop();
        let gets = (
            gets.speculative.load(Ordering::SeqCst),
            gets.demand.load(Ordering::SeqCst),
        );
        assert_eq!(gets, (1, 0), "{io:?}: one origin GET of the mate");
        (s, gets)
    });
}

/// `--prefetch-budget N` bounds speculation in flight: a page naming more
/// candidates than the budget, each plain GET held at the origin until
/// released, puts exactly N on the wire at once — the rest wait queued —
/// and every candidate is then fetched once and settles in the ledger.
/// (Both halves pass at the parent too: the lane pins the bound the one
/// plan path must keep, since a threaded worker now runs its own plan.)
#[test]
fn prefetch_budget_bounds_speculation_in_flight_on_both_engines() {
    const BUDGET: usize = 2;
    const MATES: usize = 6;
    const SIZE: usize = 500;
    #[derive(Default)]
    struct Held {
        now: AtomicUsize,
        peak: AtomicUsize,
        served: AtomicUsize,
        release: std::sync::atomic::AtomicBool,
    }
    assert_engine_parity(|io| {
        let held = Arc::new(Held::default());
        let seen = Arc::clone(&held);
        let mates: Vec<String> = (0..MATES)
            .map(|i| format!("\"/m{i}.html\" 886000000 {SIZE}"))
            .collect();
        let page = format!(
            "HTTP/1.1 200 OK\r\nLast-Modified: Thu, 01 Jan 1998 00:00:00 GMT\r\n\
             P-volume: 7; {}\r\nContent-Length: 100\r\n\r\n",
            mates.join(", ")
        );
        let origin = serve(0, "budget-origin", move |mut stream| {
            let mut r = BufReader::new(stream.try_clone().unwrap());
            while let Ok(req) = Request::read(&mut r) {
                let ok = if req.target == "/page.html" {
                    stream
                        .write_all(&[page.as_bytes(), &pattern(100)].concat())
                        .is_ok()
                } else {
                    let now = seen.now.fetch_add(1, Ordering::SeqCst) + 1;
                    seen.peak.fetch_max(now, Ordering::SeqCst);
                    while !seen.release.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    seen.now.fetch_sub(1, Ordering::SeqCst);
                    seen.served.fetch_add(1, Ordering::SeqCst);
                    write_ok(&mut stream, SIZE, &pattern(SIZE))
                };
                if !ok {
                    return;
                }
            }
        })
        .unwrap();
        let mut cfg = ProxyConfig::new(origin.addr);
        cfg.io = io;
        cfg.report_hits = false;
        cfg.rpv = None;
        cfg.prefetch_budget = BUDGET;
        let proxy = start_proxy(cfg).unwrap();
        let (verdict, _) = whole_get(proxy.addr(), "/page.html");
        assert_eq!(verdict, "MISS", "{io:?}");
        wait_for("the budget's speculations held on the wire", || {
            held.now.load(Ordering::SeqCst) == BUDGET
        });
        // Give an over-budget fetch the moment it would need to show up.
        std::thread::sleep(Duration::from_millis(100));
        held.release.store(true, Ordering::SeqCst);
        wait_for("every candidate fetched and settled", || {
            proxy.stats().prefetch_fetched_bytes == (MATES * SIZE) as u64
        });
        let peak = held.peak.load(Ordering::SeqCst);
        assert_eq!(peak, BUDGET, "{io:?}: speculation in flight at once");
        assert_eq!(held.served.load(Ordering::SeqCst), MATES, "{io:?}");
        let s = ledger(&proxy);
        assert_eq!(
            (
                s.prefetch_candidates,
                s.prefetch_issued,
                s.prefetch_inflight
            ),
            (MATES as u64, MATES as u64, MATES as u64),
            "{io:?}: every candidate issued once, none used yet: {s:?}"
        );
        assert_eq!(
            s.prefetch_issued,
            s.prefetch_used + s.prefetch_wasted + s.prefetch_inflight,
            "{io:?}: speculation ledger: {s:?}"
        );
        proxy.stop();
        origin.stop();
        (s, peak)
    });
}

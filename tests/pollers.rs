//! The two pollers, lane for lane: keep-alive and pipelining, a malformed
//! request (smuggling-shaped field lines too), an idle client, a pipelined burst under write backpressure,
//! answers resumed from another thread and a dropped waker, and upstream
//! exchanges that reuse, fail to dial, stall or leave bytes behind their
//! response, each against the blocking poller (`serve_blocking`) and the
//! epoll reactor (`serve_reactor`, Linux). Both drive one `ClientMachine`
//! and one `ExchangeMachine`, so every lane must hold on both.

use piggyback::httpwire::{ConnScratch, Request};
use piggyback::proxyd::service::{serve_blocking, Served, Service, Waker};
use piggyback::proxyd::util::{IoStats, ServeOptions, ServerHandle};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy)]
enum Poller {
    Blocking,
    #[cfg(target_os = "linux")]
    Reactor,
}

fn pollers() -> Vec<Poller> {
    let mut pollers = vec![Poller::Blocking];
    #[cfg(target_os = "linux")]
    pollers.push(Poller::Reactor);
    pollers
}

/// Serve `svc` on an ephemeral port with `poller`, closing clients idle
/// for `idle`.
fn start<S: Service>(poller: Poller, svc: S, idle: Duration) -> (ServerHandle, Arc<IoStats>) {
    let stats = Arc::new(IoStats::default());
    let svc = Arc::new(svc);
    let handle = match poller {
        Poller::Blocking => {
            let opts = ServeOptions::default();
            serve_blocking(0, "pollers", opts, Arc::clone(&stats), idle, None, svc)
        }
        #[cfg(target_os = "linux")]
        Poller::Reactor => {
            use piggyback::proxyd::reactor::{serve_reactor, ReactorMetrics, ReactorOptions};
            let opts = ReactorOptions {
                idle_timeout: idle,
                ..ReactorOptions::default()
            };
            let metrics = Arc::new(ReactorMetrics::new(1));
            serve_reactor(0, "pollers", opts, Arc::clone(&stats), metrics, svc)
        }
    };
    (handle.unwrap(), stats)
}

fn connect(handle: &ServerHandle) -> TcpStream {
    let c = TcpStream::connect(handle.addr).unwrap();
    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    c
}

fn write_echo(out: &mut Vec<u8>, path: &str) {
    write!(
        out,
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{}",
        path.len(),
        path
    )
    .unwrap();
}

fn read_response(s: &mut TcpStream, path: &str) -> String {
    let mut want = Vec::new();
    write_echo(&mut want, path);
    let mut buf = vec![0u8; want.len()];
    s.read_exact(&mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// The client reads EOF: the server closed the connection.
fn assert_closed(c: &mut TcpStream, what: &str) {
    let mut buf = [0u8; 16];
    match c.read(&mut buf) {
        Ok(0) => {}
        other => panic!("{what}: expected close (EOF), got {other:?}"),
    }
}

/// Responds with the target to every request, inline.
struct Echo;

impl Service for Echo {
    type Ctx = ();
    type Job = ();
    type Wait = ();

    fn make_ctx(&self) {}

    fn handle(
        &self,
        req: &Request,
        _peer: SocketAddr,
        _now: std::time::Instant,
        _ctx: &mut (),
        _scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<Served<Self>> {
        write_echo(out, &req.target);
        Ok(Served::Inline)
    }
}

#[test]
fn keepalive_and_pipelined_requests_are_answered_in_order() {
    for poller in pollers() {
        let (handle, _) = start(poller, Echo, Duration::from_secs(30));
        let mut c = connect(&handle);
        // Sequential keep-alive requests on one connection.
        for path in ["/a", "/bb", "/ccc"] {
            c.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
                .unwrap();
            assert!(read_response(&mut c, path).ends_with(path), "{poller:?}");
        }
        // Pipelined burst: all requests in one write, responses in order.
        let burst: String = (0..8)
            .map(|i| format!("GET /p{i} HTTP/1.1\r\n\r\n"))
            .collect();
        c.write_all(burst.as_bytes()).unwrap();
        for i in 0..8 {
            let path = format!("/p{i}");
            let got = read_response(&mut c, &path);
            assert!(got.ends_with(path.as_str()), "{poller:?}");
        }
        handle.stop();
    }
}

#[test]
fn idle_connections_are_closed() {
    for poller in pollers() {
        let (handle, stats) = start(poller, Echo, Duration::from_millis(200));
        let mut c = connect(&handle);
        assert_closed(&mut c, &format!("{poller:?} idle"));
        for _ in 0..100 {
            if stats.open_connections() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(stats.open_connections(), 0, "{poller:?}");
        handle.stop();
    }
}

#[test]
fn malformed_requests_close_their_connection() {
    for poller in pollers() {
        let (handle, _) = start(poller, Echo, Duration::from_secs(30));
        let mut c = connect(&handle);
        c.write_all(b"garbage garbage garbage\r\n\r\n").unwrap();
        assert_closed(&mut c, &format!("{poller:?} malformed"));
        handle.stop();
    }
}

/// Whitespace between a field name and its colon, and a line folded onto
/// the one before (obs-fold), are malformed (RFC 9112 §5.1–5.2), not
/// trimmed: a request that carries `Transfer-Encoding : chunked` must not
/// be framed as chunked. Both close the connection unanswered.
#[test]
fn smuggling_shaped_field_lines_close_their_connection() {
    let requests: [&[u8]; 3] = [
        b"POST /te HTTP/1.1\r\nTransfer-Encoding : chunked\r\n\r\n0\r\n\r\n",
        b"GET /cl HTTP/1.1\r\nContent-Length\t: 0\r\n\r\n",
        b"GET /fold HTTP/1.1\r\nHost: a\r\n X-Folded: b\r\n\r\n",
    ];
    for poller in pollers() {
        let (handle, _) = start(poller, Echo, Duration::from_secs(30));
        for request in requests {
            let mut c = connect(&handle);
            c.write_all(request).unwrap();
            let what = format!("{poller:?} {:?}", String::from_utf8_lossy(request));
            assert_closed(&mut c, &what);
        }
        handle.stop();
    }
}

/// Responses large enough to trip the output high-water mark when
/// pipelined: each carries a 64 KiB body.
struct Big;

const BIG_BODY: usize = 64 * 1024;

impl Service for Big {
    type Ctx = ();
    type Job = ();
    type Wait = ();

    fn make_ctx(&self) {}

    fn handle(
        &self,
        _req: &Request,
        _peer: SocketAddr,
        _now: std::time::Instant,
        _ctx: &mut (),
        _scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<Served<Self>> {
        write!(out, "HTTP/1.1 200 OK\r\nContent-Length: {BIG_BODY}\r\n\r\n").unwrap();
        out.resize(out.len() + BIG_BODY, b'x');
        Ok(Served::Inline)
    }
}

/// A pipelined burst whose responses exceed the write high-water mark is
/// served to completion. (On the reactor, a WRITABLE-edge pump entered
/// above the mark once flushed and returned without parsing again,
/// stranding the buffered requests — edge-triggered epoll delivers no
/// further event — until the idle timer closed the connection.)
#[test]
fn pipelined_burst_survives_write_backpressure() {
    const REQS: usize = 200;
    for poller in pollers() {
        let (handle, _) = start(poller, Big, Duration::from_secs(30));
        let mut c = connect(&handle);
        let burst: String = (0..REQS)
            .map(|i| format!("GET /b{i} HTTP/1.1\r\n\r\n"))
            .collect();
        c.write_all(burst.as_bytes()).unwrap();
        // Give the server time to fill its output past the high-water
        // mark while we are not reading.
        std::thread::sleep(Duration::from_millis(150));
        let header = format!("HTTP/1.1 200 OK\r\nContent-Length: {BIG_BODY}\r\n\r\n");
        let want = REQS * (header.len() + BIG_BODY);
        let mut total = 0usize;
        let mut buf = vec![0u8; 8 * 1024];
        while total < want {
            match c.read(&mut buf) {
                Ok(0) => panic!("{poller:?}: closed after {total}/{want} bytes"),
                Ok(n) => total += n,
                Err(e) => panic!("{poller:?}: read stalled after {total}/{want} bytes: {e}"),
            }
        }
        assert_eq!(total, want, "{poller:?}");
        handle.stop();
    }
}

/// `/park…` is answered from another thread through the connection's
/// waker, `/drop…` drops its waker unfired, anything else is answered
/// inline.
struct Parked;

impl Service for Parked {
    type Ctx = ();
    type Job = String;
    type Wait = Option<String>;

    fn make_ctx(&self) {}

    fn handle(
        &self,
        req: &Request,
        _peer: SocketAddr,
        _now: std::time::Instant,
        _ctx: &mut (),
        _scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<Served<Self>> {
        let path = req.target.clone();
        if path.starts_with("/drop") {
            return Ok(Served::Park(None));
        }
        if !path.starts_with("/park") {
            write_echo(out, &path);
            return Ok(Served::Inline);
        }
        Ok(Served::Park(Some(path)))
    }

    fn park(&self, wait: Option<String>, waker: Waker<String>) {
        let Some(path) = wait else { return };
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            waker.wake(path);
        });
    }

    fn resume(
        &self,
        path: String,
        _scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<Served<Self>> {
        write_echo(out, &path);
        Ok(Served::Inline)
    }
}

/// A connection woken from another thread gets its own answer, in order
/// behind and ahead of the pipelined requests around it.
#[test]
fn resumed_answers_reach_the_right_connection_behind_pipelined_requests() {
    for poller in pollers() {
        let (handle, _) = start(poller, Parked, Duration::from_secs(30));
        let addr = handle.addr;
        let clients: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpStream::connect(addr).unwrap();
                    c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    for round in 0..3 {
                        let paths = [
                            format!("/park/{i}/{round}"),
                            format!("/inline/{i}/{round}"),
                            format!("/park/{i}/{round}/last"),
                        ];
                        let burst: String = paths
                            .iter()
                            .map(|p| format!("GET {p} HTTP/1.1\r\n\r\n"))
                            .collect();
                        c.write_all(burst.as_bytes()).unwrap();
                        for path in &paths {
                            let got = read_response(&mut c, path);
                            assert!(got.ends_with(path.as_str()), "cross-wired: {got}");
                        }
                    }
                })
            })
            .collect();
        for c in clients {
            c.join()
                .unwrap_or_else(|_| panic!("{poller:?}: parked client"));
        }
        handle.stop();
    }
}

/// A waker dropped without firing closes its connection at once — after
/// what was already owed — instead of leaving it parked until the idle
/// timeout; the server keeps serving.
#[test]
fn dropped_waker_closes_its_connection() {
    for poller in pollers() {
        let (handle, _) = start(poller, Parked, Duration::from_secs(30));
        let mut bad = connect(&handle);
        bad.write_all(b"GET /inline HTTP/1.1\r\n\r\nGET /drop HTTP/1.1\r\n\r\n")
            .unwrap();
        assert!(read_response(&mut bad, "/inline").ends_with("/inline"));
        assert_closed(&mut bad, &format!("{poller:?} dropped waker"));
        let mut good = connect(&handle);
        good.write_all(b"GET /park/ok HTTP/1.1\r\n\r\n").unwrap();
        let got = read_response(&mut good, "/park/ok");
        assert!(got.ends_with("/park/ok"), "{poller:?}");
        handle.stop();
    }
}

// ---------------------------------------------------------------------------
// The upstream leg: every request becomes an origin exchange, driven by
// the exchange machine both pollers share (PROTOCOL.md §7.1) — over a
// `ConnectionPool` on the blocking poller, over the shard's own
// nonblocking connections on the reactor — each attempt bounded by the
// same timeout.
// ---------------------------------------------------------------------------

use piggyback::httpwire::Response;
use piggyback::proxyd::lifecycle::UpstreamOutcome;
use piggyback::proxyd::service::UpstreamPlan;
use piggyback::proxyd::util::serve;
use piggyback::proxyd::ConnectionPool;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};

const BAD_GATEWAY: &[u8] = b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n";

/// Forwarding service: every request becomes an upstream exchange; the
/// origin's body comes back echoed, any failure as a 502. Counts the
/// retries it is told of.
struct Fwd {
    origin: SocketAddr,
    retries: Arc<AtomicU64>,
}

impl Service for Fwd {
    type Ctx = ();
    type Job = ();
    type Wait = ();

    fn make_ctx(&self) {}

    fn handle(
        &self,
        req: &Request,
        _peer: SocketAddr,
        _now: std::time::Instant,
        _ctx: &mut (),
        _scratch: &mut ConnScratch,
        _out: &mut Vec<u8>,
    ) -> io::Result<Served<Self>> {
        Ok(Served::Upstream(UpstreamPlan {
            origin: self.origin,
            request: format!("GET {} HTTP/1.1\r\nHost: fwd\r\n\r\n", req.target).into_bytes(),
            job: (),
            relay: None,
        }))
    }

    fn settle(
        &self,
        _job: (),
        outcome: UpstreamOutcome,
        _now: std::time::Instant,
        _scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<()> {
        match outcome {
            UpstreamOutcome::Response(resp) => {
                write_echo(out, &String::from_utf8_lossy(&resp.body))
            }
            _ => out.extend_from_slice(BAD_GATEWAY),
        }
        Ok(())
    }

    fn retried(&self, _job: &()) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }
}

/// Where a poller's upstream connections are counted.
enum Upstream {
    Pool(Arc<ConnectionPool>),
    #[cfg(target_os = "linux")]
    Reactor(Arc<piggyback::proxyd::ReactorMetrics>),
}

/// A [`Fwd`] proxy on one poller.
struct Forwarder {
    handle: ServerHandle,
    retries: Arc<AtomicU64>,
    upstream: Upstream,
}

impl Forwarder {
    /// Forward to `origin`, each exchange attempt bounded by `timeout`.
    fn start(poller: Poller, origin: SocketAddr, timeout: Duration) -> Forwarder {
        let retries = Arc::new(AtomicU64::new(0));
        let svc = Arc::new(Fwd {
            origin,
            retries: Arc::clone(&retries),
        });
        let stats = Arc::new(IoStats::default());
        let idle = Duration::from_secs(30);
        let (handle, upstream) = match poller {
            Poller::Blocking => {
                let pool = Arc::new(ConnectionPool::new(origin, 8).with_timeout(timeout));
                let opts = ServeOptions::default();
                let kept = Some(Arc::clone(&pool));
                let handle = serve_blocking(0, "fwd", opts, stats, idle, kept, svc);
                (handle, Upstream::Pool(pool))
            }
            #[cfg(target_os = "linux")]
            Poller::Reactor => {
                use piggyback::proxyd::reactor::{serve_reactor, ReactorMetrics, ReactorOptions};
                let opts = ReactorOptions {
                    idle_timeout: idle,
                    upstream_timeout: timeout,
                    ..ReactorOptions::default()
                };
                let metrics = Arc::new(ReactorMetrics::new(1));
                let handle = serve_reactor(0, "fwd", opts, stats, Arc::clone(&metrics), svc);
                (handle, Upstream::Reactor(metrics))
            }
        };
        Forwarder {
            handle: handle.unwrap(),
            retries,
            upstream,
        }
    }

    /// Fresh upstream dials and reuses of a kept-alive connection so far.
    fn dials_and_reuses(&self) -> (u64, u64) {
        match &self.upstream {
            Upstream::Pool(pool) => (pool.stats().connects, pool.stats().reuses),
            #[cfg(target_os = "linux")]
            Upstream::Reactor(m) => {
                let s = m.shards[0].snapshot();
                (s.upstream_dials, s.upstream_reuses)
            }
        }
    }

    fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }
}

/// Keep-alive origin answering every request with its target as the
/// body, `behind` following each response in the same write.
fn echo_origin(behind: &'static [u8]) -> ServerHandle {
    serve(0, "fwd-origin", move |mut stream| {
        let mut r = io::BufReader::new(stream.try_clone().unwrap());
        while let Ok(req) = Request::read(&mut r) {
            let mut resp = Response::new(200);
            resp.body = req.target.clone().into_bytes().into();
            let mut wire = Vec::new();
            resp.write(&mut wire).unwrap();
            wire.extend_from_slice(behind);
            if stream.write_all(&wire).is_err() {
                break;
            }
        }
    })
    .unwrap()
}

fn assert_bad_gateway(c: &mut TcpStream, poller: Poller) {
    let mut got = vec![0u8; BAD_GATEWAY.len()];
    c.read_exact(&mut got).unwrap();
    assert_eq!(got, BAD_GATEWAY, "{poller:?}");
}

/// Misses keep the origin connection alive across exchanges: the second
/// and third reuse it, no second dial.
#[test]
fn nonblocking_upstream_roundtrip_reuses_connections() {
    let origin = echo_origin(b"");
    for poller in pollers() {
        let fwd = Forwarder::start(poller, origin.addr, Duration::from_secs(30));
        let mut c = connect(&fwd.handle);
        for path in ["/up1", "/up2", "/up3"] {
            c.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
                .unwrap();
            assert!(read_response(&mut c, path).ends_with(path), "{poller:?}");
        }
        assert_eq!(fwd.dials_and_reuses(), (1, 2), "{poller:?}");
        #[cfg(target_os = "linux")]
        if let Upstream::Reactor(m) = &fwd.upstream {
            assert_eq!(
                m.shards[0].snapshot().upstream_inflight,
                0,
                "gauge must settle"
            );
        }
        fwd.handle.stop();
    }
    origin.stop();
}

/// A dead origin (connection refused) fails the exchange without a retry
/// — a failed dial is terminal — and the settle answers 502.
#[test]
fn upstream_dial_failure_yields_502() {
    // A port that is certainly closed.
    let dead = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    for poller in pollers() {
        let fwd = Forwarder::start(poller, dead, Duration::from_secs(30));
        let mut c = connect(&fwd.handle);
        c.write_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        assert_bad_gateway(&mut c, poller);
        assert_eq!(fwd.retries(), 0, "{poller:?}");
        fwd.handle.stop();
    }
}

/// A stalled origin (accepts, never answers) runs each attempt into the
/// timeout: one retry, then 502.
#[test]
fn upstream_timeout_kills_stalled_exchanges() {
    let stall = serve(0, "stall-origin", |stream| {
        let _ = Request::read(&mut io::BufReader::new(&stream));
        std::thread::sleep(Duration::from_secs(30));
    })
    .unwrap();
    for poller in pollers() {
        let fwd = Forwarder::start(poller, stall.addr, Duration::from_millis(300));
        let mut c = connect(&fwd.handle);
        c.write_all(b"GET /stall HTTP/1.1\r\n\r\n").unwrap();
        assert_bad_gateway(&mut c, poller);
        assert_eq!(fwd.retries(), 1, "{poller:?}");
        #[cfg(target_os = "linux")]
        if let Upstream::Reactor(m) = &fwd.upstream {
            let s = m.shards[0].snapshot();
            assert_eq!(s.upstream_timeouts, 2, "both attempts timed out");
            assert_eq!(s.upstream_inflight, 0);
        }
        fwd.handle.stop();
    }
    stall.stop();
}

/// An origin that sends bytes behind its response never has its
/// connection reused, on either poller: every exchange dials afresh, and
/// the pool counts each refusal as dirty.
#[test]
fn a_connection_with_bytes_behind_its_response_is_never_reused() {
    let origin = echo_origin(b"EXTRA-GARBAGE");
    for poller in pollers() {
        let fwd = Forwarder::start(poller, origin.addr, Duration::from_secs(30));
        let mut c = connect(&fwd.handle);
        for path in ["/dirty1", "/dirty2"] {
            c.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
                .unwrap();
            assert!(read_response(&mut c, path).ends_with(path), "{poller:?}");
        }
        assert_eq!(fwd.dials_and_reuses(), (2, 0), "{poller:?}");
        if let Upstream::Pool(pool) = &fwd.upstream {
            assert_eq!(pool.stats().discarded_dirty, 2, "{:?}", pool.stats());
        }
        fwd.handle.stop();
    }
    origin.stop();
}

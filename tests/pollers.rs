//! The two pollers, lane for lane: keep-alive and pipelining, a malformed
//! request, an idle client, a pipelined burst under write backpressure,
//! answers resumed from another thread and a dropped waker, each against
//! the blocking poller (`serve_blocking`) and the epoll reactor
//! (`serve_reactor`, Linux). Both drive one `ClientMachine`, so every
//! lane must hold on both.

use piggyback::httpwire::{ConnScratch, Request};
use piggyback::proxyd::service::{serve_blocking, Served, Service};
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

    fn make_ctx(&self) {}

    fn handle(
        &self,
        req: &Request,
        _peer: SocketAddr,
        _ctx: &mut (),
        _scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<Served> {
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

/// Responses large enough to trip the output high-water mark when
/// pipelined: each carries a 64 KiB body.
struct Big;

const BIG_BODY: usize = 64 * 1024;

impl Service for Big {
    type Ctx = ();

    fn make_ctx(&self) {}

    fn handle(
        &self,
        _req: &Request,
        _peer: SocketAddr,
        _ctx: &mut (),
        _scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<Served> {
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

    fn make_ctx(&self) {}

    fn handle(
        &self,
        req: &Request,
        _peer: SocketAddr,
        _ctx: &mut (),
        _scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<Served> {
        let path = req.target.clone();
        if path.starts_with("/drop") {
            return Ok(Served::Park(Box::new(drop)));
        }
        if !path.starts_with("/park") {
            write_echo(out, &path);
            return Ok(Served::Inline);
        }
        Ok(Served::Park(Box::new(move |waker| {
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                waker.wake(Box::new(move |_scratch, out| {
                    write_echo(out, &path);
                    Ok(Served::Inline)
                }));
            });
        })))
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

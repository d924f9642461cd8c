//! Memory of the streaming relay, guarded at the root: a relayed body
//! costs a bounded number of allocations per 16 KiB and a bounded live
//! heap, whatever its length, on both pollers, and it lasts as long as
//! its client keeps taking bytes, and no longer once it stops. And the
//! origin's memory: it keeps metadata per resource, never a body it has
//! served.
//!
//! The file installs its own counting global allocator, which every
//! process-wide count and peak is read from, so every test in it holds the
//! [`WINDOW`] lock for its whole run: a warmup in one test must never land
//! in another's measured window.

use piggyback::httpwire::Response;
use piggyback::proxyd::origin::{start_origin, OriginConfig};
use piggyback::proxyd::proxy::{start_proxy, ProxyConfig};
use piggyback::proxyd::IoMode;
use piggyback::trace::synth::{LogNormal, SiteConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Counts every allocation and reallocation, and tracks the live heap and
/// its peak.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size.saturating_sub(layout.size()));
        LIVE.fetch_sub(layout.size().saturating_sub(new_size), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Held by every test for its whole run. A lane that fails poisons the
/// lock; the guard is recovered, so one failure does not fail the rest.
static WINDOW: Mutex<()> = Mutex::new(());

/// The live heap a lane may gain beyond what it weighs: allocator and
/// scratch jitter, far under one relayed body or one body per resource.
const SLACK: usize = 256 * 1024;

/// How far the live heap rose above its level at the call while `f` ran.
fn live_heap_growth(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed).saturating_sub(before)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Parse `Content-Length` from a header block without allocating.
fn content_length(head: &[u8]) -> usize {
    let p = find(head, b"Content-Length: ").expect("framed response");
    let mut n = 0usize;
    for &b in &head[p + 16..] {
        match b {
            b'0'..=b'9' => n = n * 10 + (b - b'0') as usize,
            _ => break,
        }
    }
    n
}

/// The payload length of the chunked body `wire` starts with, `None`
/// until its last chunk and trailers are in. Allocation-free.
fn chunked_len(wire: &[u8]) -> Option<usize> {
    let (mut at, mut total) = (0usize, 0usize);
    loop {
        let line = find(&wire[at..], b"\r\n")?;
        let size = std::str::from_utf8(&wire[at..at + line]).ok()?;
        let size = usize::from_str_radix(size.split(';').next()?.trim(), 16).ok()?;
        if size == 0 {
            return find(&wire[at + line..], b"\r\n\r\n").map(|_| total);
        }
        total += size;
        at += line + 2 + size + 2;
        if at > wire.len() {
            return None;
        }
    }
}

/// One keep-alive GET of a `200` using only the caller's buffer: no heap
/// allocation on success (assert messages only format on failure). A
/// chunked answer is read to its last chunk; its payload length, or the
/// declared one, is returned.
fn roundtrip(stream: &mut TcpStream, req: &[u8], buf: &mut [u8]) -> usize {
    stream.write_all(req).expect("write request");
    let mut filled = 0usize;
    let mut read = |buf: &mut [u8], filled: &mut usize| {
        assert!(*filled < buf.len(), "response larger than client buffer");
        let n = stream.read(&mut buf[*filled..]).expect("read response");
        assert!(n > 0, "proxy closed mid-response");
        *filled += n;
    };
    let head_len = loop {
        if let Some(p) = find(&buf[..filled], b"\r\n\r\n") {
            break p + 4;
        }
        read(buf, &mut filled);
    };
    assert!(buf.starts_with(b"HTTP/1.1 200 OK\r\n"), "not a 200");
    if find(&buf[..head_len], b"Transfer-Encoding: chunked").is_some() {
        loop {
            if let Some(n) = chunked_len(&buf[head_len..filled]) {
                return n;
            }
            read(buf, &mut filled);
        }
    }
    let declared = content_length(&buf[..head_len]);
    assert!(
        head_len + declared <= buf.len(),
        "response larger than client buffer"
    );
    while filled < head_len + declared {
        read(buf, &mut filled);
    }
    declared
}

/// An origin answering every request on a connection with one
/// pre-serialized `200` of `len` patterned bytes, `Content-Length` framed.
/// It reads request heads into a stack buffer, so it allocates nothing
/// once a connection is up.
fn canned_origin(len: usize) -> std::net::SocketAddr {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let origin_addr = listener.local_addr().expect("origin addr");
    let mut canned = format!(
        "HTTP/1.1 200 OK\r\n\
         Last-Modified: Mon, 01 Jan 2024 00:00:00 GMT\r\n\
         Content-Length: {len}\r\n\r\n"
    )
    .into_bytes();
    canned.extend((0..len).map(|i| (i % 251) as u8));
    let canned = std::sync::Arc::new(canned);
    std::thread::spawn(move || {
        while let Ok((mut conn, _)) = listener.accept() {
            let canned = std::sync::Arc::clone(&canned);
            std::thread::spawn(move || {
                let mut head = [0u8; 2048];
                loop {
                    let mut filled = 0usize;
                    while find(&head[..filled], b"\r\n\r\n").is_none() {
                        match conn.read(&mut head[filled..]) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => filled += n,
                        }
                    }
                    if conn.write_all(&canned).is_err() {
                        return;
                    }
                }
            });
        }
    });
    origin_addr
}

/// The streaming prefix-hit relay allocates O(1) per 16 KiB of relayed
/// body, never O(body). Each measured request serves a 64 KiB cached
/// prefix and then relays a 1 MiB suffix from the origin through one
/// reused read buffer, read by read; a regression that builds fresh
/// per-read vectors (or re-buffers the whole object) is a multiple of this
/// bound. The origin serves a single pre-serialized
/// response and reads request heads into a stack buffer, so it is quiet
/// in the measured window too.
#[test]
fn streaming_prefix_relay_allocations_are_constant_per_segment() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const TOTAL: usize = 1024 * 1024;
    // The bound's unit: an upstream connection's first read size
    // (`lifecycle::UPSTREAM_READ`).
    const SEGMENT: usize = 16 * 1024;

    let origin_addr = canned_origin(TOTAL);

    let mut cfg = ProxyConfig::new(origin_addr);
    cfg.freshness = piggyback::core::types::DurationMs::from_secs(3600);
    cfg.rpv = None;
    cfg.report_hits = false;
    let proxy = start_proxy(cfg).expect("proxy starts");

    let req = b"GET /large/alloc.bin HTTP/1.1\r\nHost: alloc-test\r\n\r\n";
    let mut buf = vec![0u8; TOTAL + 8 * 1024];
    let mut stream = TcpStream::connect(proxy.addr()).expect("connect");
    // Warmup: streamed miss creates the prefix entry, then prefix hits
    // settle the pooled upstream connection and scratch capacities.
    for _ in 0..3 {
        roundtrip(&mut stream, req, &mut buf);
    }

    const ROUNDS: usize = 6;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..ROUNDS {
        roundtrip(&mut stream, req, &mut buf);
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    let segments = (ROUNDS * (TOTAL / SEGMENT)) as u64;
    let per_segment = (after - before) as f64 / segments as f64;
    assert!(
        per_segment <= 2.0,
        "streaming relay allocates per byte, not per segment: \
         {} allocations / {} segments = {:.2} per segment",
        after - before,
        segments,
        per_segment
    );

    // The threaded relay settles its outcome after the last body byte is
    // on the wire, so the client can get here first: the ledger is exact
    // only once quiescent.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while proxy.stats().outcomes() != proxy.stats().requests && std::time::Instant::now() < deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let s = proxy.stats();
    assert_eq!(s.requests, (3 + ROUNDS) as u64, "{s:?}");
    assert_eq!(s.streamed_misses, 1, "{s:?}");
    assert_eq!(s.prefix_hits, (2 + ROUNDS) as u64, "{s:?}");
    assert_eq!(s.upstream_errors, 0, "{s:?}");
    proxy.stop();
}

/// An upstream body is decoded as it arrives, never held in a
/// read buffer first. A 4 MiB miss is relayed through read-sized buffers
/// on both engines, whatever its framing: a `Content-Length` body from its
/// head, a chunked one once it has grown to the streaming threshold. The
/// chunked relay's live heap is then the held threshold (twice it, as a
/// `Vec` grows), the teed prefix and the client connection's output —
/// what it was owed plus at most one refused read, since the relay pauses
/// while anything is owed — however long the body, and under the 4 MiB a
/// buffered body alone would hold. The
/// origin serves pre-serialized responses and the client reads into one
/// buffer, so the proxy is the only thing allocating in the measured
/// window.
#[test]
fn large_miss_memory_is_bounded_by_the_decoded_body() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const BODY: usize = 4 * 1024 * 1024;
    const THRESHOLD: usize = 256 * 1024;
    const PREFIX: usize = 64 * 1024;
    // The client output's allowance: the 1 MiB mark (`OUT_HIGH_WATER`)
    // a relay once filled before it paused. A relay now pauses while any
    // byte is owed, so the output holds the engaging read (the threshold
    // it held) and at most one refused read; the bound keeps this
    // headroom rather than tighten without measurements to back it.
    const OWED: usize = 1024 * 1024;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let origin_addr = listener.local_addr().expect("origin addr");
    let canned = |chunked: bool| {
        let mut resp = Response::new(200);
        resp.headers
            .insert("Last-Modified", "Mon, 01 Jan 2024 00:00:00 GMT");
        if chunked {
            resp.headers.insert("Transfer-Encoding", "chunked");
        }
        resp.body = (0..BODY)
            .map(|i| (i % 251) as u8)
            .collect::<Vec<u8>>()
            .into();
        let mut wire = Vec::new();
        resp.write(&mut wire).expect("serialize");
        wire
    };
    let wires = std::sync::Arc::new((canned(false), canned(true)));
    std::thread::spawn(move || {
        while let Ok((mut conn, _)) = listener.accept() {
            let wires = std::sync::Arc::clone(&wires);
            std::thread::spawn(move || {
                let mut head = [0u8; 2048];
                loop {
                    let mut filled = 0usize;
                    while find(&head[..filled], b"\r\n\r\n").is_none() {
                        match conn.read(&mut head[filled..]) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => filled += n,
                        }
                    }
                    let wire = match find(&head[..filled], b"GET /chunked") {
                        Some(_) => &wires.1,
                        None => &wires.0,
                    };
                    if conn.write_all(wire).is_err() {
                        return;
                    }
                }
            });
        }
    });

    // Room for the chunked framing too: one size line per read at worst.
    let mut buf = vec![0u8; BODY + 256 * 1024];
    let mut engines = vec![IoMode::Threaded];
    #[cfg(target_os = "linux")]
    engines.push(IoMode::Reactor { reactors: 1 });
    for io in engines {
        let mut cfg = ProxyConfig::new(origin_addr);
        cfg.io = io;
        cfg.rpv = None;
        cfg.report_hits = false;
        let proxy = start_proxy(cfg).expect("proxy starts");
        let mut stream = TcpStream::connect(proxy.addr()).expect("connect");
        // Warm the connection pair and its scratch buffers.
        roundtrip(
            &mut stream,
            b"GET /warm.bin HTTP/1.1\r\nHost: a\r\n\r\n",
            &mut buf,
        );
        let mut lane = |req: &[u8], bound: usize| {
            let mut got = 0;
            let growth = live_heap_growth(|| got = roundtrip(&mut stream, req, &mut buf));
            assert_eq!(got, BODY, "{io:?}: the whole body");
            assert!(
                growth <= bound,
                "{io:?}: the live heap grew {growth} bytes (bound {bound}) for a {BODY}-byte body"
            );
        };
        lane(b"GET /length.bin HTTP/1.1\r\nHost: a\r\n\r\n", SLACK);
        lane(
            b"GET /chunked.bin HTTP/1.1\r\nHost: a\r\n\r\n",
            SLACK + 2 * THRESHOLD + PREFIX + 2 * OWED,
        );
        drop(stream);
        proxy.stop();
    }
}

/// Shrink a socket's receive buffer, so a client that stops reading
/// pushes back on its sender at once instead of after the kernel's
/// autotuned megabytes (Linux `SO_RCVBUF`).
#[cfg(target_os = "linux")]
fn shrink_receive_buffer(stream: &TcpStream, bytes: i32) {
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_RCVBUF: i32 = 8;
    let fd = std::os::unix::io::AsRawFd::as_raw_fd(stream);
    // SAFETY: a plain `int` option on a live socket.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_RCVBUF,
            &bytes as *const i32 as *const u8,
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF)");
}

/// A client that stops reading partway through a large relay costs the
/// proxy about one upstream read, not the body and not a pile of staged
/// output: the relay writes each read through to the client and pauses
/// its origin reads while anything is owed, on both engines. The client
/// takes the head and the first megabyte of an 8 MiB `Content-Length`
/// miss, stalls with a shrunk receive buffer until the proxy's kernel
/// buffers are full and the relay has been pushed back on, then drains
/// the rest; the live heap stays within the same slack as a relay that
/// never stalled.
#[test]
fn stalled_client_holds_one_read_not_the_relay() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const BODY: usize = 8 * 1024 * 1024;
    const STALL_AFTER: usize = 1024 * 1024;

    let origin_addr = canned_origin(BODY);

    let mut buf = vec![0u8; BODY + 64 * 1024];
    let mut engines = vec![IoMode::Threaded];
    #[cfg(target_os = "linux")]
    engines.push(IoMode::Reactor { reactors: 1 });
    for io in engines {
        let mut cfg = ProxyConfig::new(origin_addr);
        cfg.io = io;
        cfg.rpv = None;
        cfg.report_hits = false;
        // Nothing is teed for the prefix store: the lane weighs what the
        // relay holds (the lane above weighs the tee).
        cfg.prefix_bytes = 0;
        let proxy = start_proxy(cfg).expect("proxy starts");
        // Warm the upstream connection and the proxy's pools on a client
        // connection of its own: the measured one starts with an empty
        // output, so what a relay keeps of it shows as growth.
        roundtrip(
            &mut TcpStream::connect(proxy.addr()).expect("connect"),
            b"GET /warm.bin HTTP/1.1\r\nHost: a\r\n\r\n",
            &mut buf,
        );
        let mut stream = TcpStream::connect(proxy.addr()).expect("connect");
        #[cfg(target_os = "linux")]
        shrink_receive_buffer(&stream, 64 * 1024);
        let mut head_len = 0;
        let growth = live_heap_growth(|| {
            stream
                .write_all(b"GET /stalled.bin HTTP/1.1\r\nHost: a\r\n\r\n")
                .expect("write request");
            let mut filled = 0usize;
            let mut stalled = false;
            while head_len == 0 || filled < head_len + BODY {
                if !stalled && filled >= STALL_AFTER {
                    std::thread::sleep(std::time::Duration::from_millis(500));
                    stalled = true;
                }
                let n = stream.read(&mut buf[filled..]).expect("read response");
                assert!(n > 0, "{io:?}: proxy closed mid-response");
                filled += n;
                if head_len == 0 {
                    head_len = find(&buf[..filled], b"\r\n\r\n").map_or(0, |p| p + 4);
                }
            }
            assert_eq!(filled, head_len + BODY, "{io:?}: exactly the body");
        });
        assert!(buf.starts_with(b"HTTP/1.1 200 OK\r\n"), "{io:?}: not a 200");
        assert_eq!(content_length(&buf[..head_len]), BODY, "{io:?}");
        let body = &buf[head_len..head_len + BODY];
        assert!(
            body.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8),
            "{io:?}: payload corrupt after the stall"
        );
        assert!(
            growth <= SLACK,
            "{io:?}: the live heap grew {growth} bytes (bound {SLACK}) while a client \
             stalled on a {BODY}-byte relay"
        );
        drop(stream);
        proxy.stop();
    }
}

/// An engaged relay is cut only when it stops moving: its upstream
/// deadline runs from its last read or client write, not from the
/// attempt's start. On each engine, under a 500 ms upstream timeout, a
/// client with a shrunk receive buffer takes an 8 MiB `Content-Length`
/// miss at a steady pace of at most 32 KiB every 10 ms — several timeouts
/// in all — and gets every byte. (With the deadline from the attempt's
/// start, both engines cut the relay mid-body.)
#[test]
fn a_slow_steady_client_outlives_the_upstream_timeout() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const BODY: usize = 8 * 1024 * 1024;
    const TIMEOUT: Duration = Duration::from_millis(500);

    let origin_addr = canned_origin(BODY);
    let mut buf = vec![0u8; 32 * 1024];
    let mut engines = vec![IoMode::Threaded];
    #[cfg(target_os = "linux")]
    engines.push(IoMode::Reactor { reactors: 1 });
    for io in engines {
        let mut cfg = ProxyConfig::new(origin_addr);
        cfg.io = io;
        cfg.rpv = None;
        cfg.report_hits = false;
        cfg.prefix_bytes = 0;
        cfg.upstream_timeout = TIMEOUT;
        // A short idle window gives the reactor's wheel ~100 ms ticks.
        cfg.reactor_idle_timeout = Duration::from_secs(3);
        let proxy = start_proxy(cfg).expect("proxy starts");
        let mut stream = TcpStream::connect(proxy.addr()).expect("connect");
        #[cfg(target_os = "linux")]
        shrink_receive_buffer(&stream, 64 * 1024);
        stream
            .write_all(b"GET /slow.bin HTTP/1.1\r\nHost: a\r\n\r\n")
            .expect("write request");
        let began = Instant::now();
        let (mut head, mut head_len, mut body) = (Vec::new(), 0, 0);
        while body < BODY {
            let n = stream.read(&mut buf).expect("read response");
            let at = began.elapsed();
            assert!(
                n > 0,
                "{io:?}: cut after {body} of {BODY} body bytes, {at:?} in"
            );
            let mut got = &buf[..n];
            if head_len == 0 {
                head.extend_from_slice(got);
                let Some(p) = find(&head, b"\r\n\r\n") else {
                    continue;
                };
                head_len = p + 4;
                got = &got[got.len() - (head.len() - head_len)..];
            }
            assert!(
                got.iter()
                    .enumerate()
                    .all(|(i, &b)| b == ((body + i) % 251) as u8),
                "{io:?}: payload corrupt at {body}"
            );
            body += got.len();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            head.starts_with(b"HTTP/1.1 200 OK\r\n"),
            "{io:?}: not a 200"
        );
        assert_eq!(content_length(&head[..head_len]), BODY, "{io:?}");
        assert_eq!(body, BODY, "{io:?}: exactly the body");
        let took = began.elapsed();
        assert!(
            took >= TIMEOUT * 4,
            "{io:?}: the transfer took only {took:?}"
        );
        drop(stream);
        proxy.stop();
    }
}

/// A client that never reads pins nothing: a relayed read it does not
/// take within the upstream timeout fails the relay, and the exchange
/// settles as one `error`, freeing its worker (or reactor slot) and its
/// upstream connection, on both engines. Under a 500 ms upstream timeout, a client
/// with a shrunk receive buffer asks for a 16 MiB `Content-Length` miss
/// and never reads; within twice the timeout the proxy has counted the
/// error, and its outcome counters conserve.
#[test]
fn a_client_that_never_reads_settles_as_an_error() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const BODY: usize = 16 * 1024 * 1024;
    const TIMEOUT: Duration = Duration::from_millis(500);

    let origin_addr = canned_origin(BODY);
    let mut engines = vec![IoMode::Threaded];
    #[cfg(target_os = "linux")]
    engines.push(IoMode::Reactor { reactors: 1 });
    for io in engines {
        let mut cfg = ProxyConfig::new(origin_addr);
        cfg.io = io;
        cfg.rpv = None;
        cfg.report_hits = false;
        cfg.prefix_bytes = 0;
        cfg.upstream_timeout = TIMEOUT;
        // A short idle window gives the reactor's wheel ~100 ms ticks.
        cfg.reactor_idle_timeout = Duration::from_secs(3);
        let proxy = start_proxy(cfg).expect("proxy starts");
        let mut stream = TcpStream::connect(proxy.addr()).expect("connect");
        #[cfg(target_os = "linux")]
        shrink_receive_buffer(&stream, 4 * 1024);
        stream
            .write_all(b"GET /never.bin HTTP/1.1\r\nHost: a\r\n\r\n")
            .expect("write request");
        let began = Instant::now();
        while proxy.stats().upstream_errors == 0 && began.elapsed() < TIMEOUT * 2 {
            std::thread::sleep(Duration::from_millis(10));
        }
        let (stats, took) = (proxy.stats(), began.elapsed());
        assert_eq!(
            stats.upstream_errors, 1,
            "{io:?}: nothing settled {took:?} after the request: {stats:?}"
        );
        assert_eq!(stats.outcomes(), stats.requests, "{io:?}: conservation");
        drop(stream);
        proxy.stop();
    }
}

/// The origin keeps metadata per resource — path, size, `Last-Modified` —
/// and builds each 200's body when it serves it, so serving a resource
/// leaves nothing of it behind. On each engine, a flat site of 2 048
/// pages of 2 KiB is warmed with its first 64 pages and then walked once
/// over one keep-alive connection: the live heap it retains afterwards
/// (not its peak) stays within the slack, where one memoized body per
/// page served would retain 4 MiB. Everything else the origin keeps per
/// resource is allocated at start: the snapshot's resource table and the
/// access counters (`AccessState`), one slot per resource each.
#[test]
fn origin_holds_no_body_it_has_served() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const PAGES: usize = 2048;
    const WARMUP: usize = 64;
    let site = SiteConfig {
        n_pages: PAGES,
        images_per_page: (0, 0),
        shared_images: 0,
        page_size: LogNormal::new(2048f64.ln(), 0.0),
        ..Default::default()
    };
    let mut buf = vec![0u8; 64 * 1024];
    let mut engines = vec![IoMode::Threaded];
    #[cfg(target_os = "linux")]
    engines.push(IoMode::Reactor { reactors: 1 });
    for io in engines {
        let origin = start_origin(OriginConfig {
            site: site.clone(),
            io,
            ..Default::default()
        })
        .expect("origin starts");
        let reqs: Vec<Vec<u8>> = origin
            .paths()
            .iter()
            .map(|p| format!("GET {p} HTTP/1.1\r\nHost: a\r\n\r\n").into_bytes())
            .collect();
        assert_eq!(reqs.len(), PAGES, "{io:?}: a flat site");
        let mut stream = TcpStream::connect(origin.addr()).expect("connect");
        for req in &reqs[..WARMUP] {
            roundtrip(&mut stream, req, &mut buf);
        }
        let before = LIVE.load(Ordering::SeqCst);
        let mut served = 0;
        for req in &reqs {
            served += roundtrip(&mut stream, req, &mut buf);
        }
        let retained = LIVE.load(Ordering::SeqCst).saturating_sub(before);
        assert!(served >= PAGES * 2047, "{io:?}: {served} body bytes");
        assert!(
            retained <= SLACK,
            "{io:?}: the origin retained {retained} bytes (bound {SLACK}) after serving \
             {PAGES} distinct pages"
        );
        drop(stream);
        origin.stop();
    }
}

/// The origin builds its serving state once, at its final size: starting
/// it on a flat site of 8 192 pages raises the live heap at most a quarter
/// above what it keeps (no throwaway site, no second table, no path list
/// beside the table, no outgrown buffer freed on the way), and what it
/// keeps per resource is its path once plus fixed-size metadata.
#[test]
fn origin_builds_its_state_once() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const PAGES: usize = 8192;
    let site = SiteConfig {
        n_pages: PAGES,
        images_per_page: (0, 0),
        shared_images: 0,
        page_size: LogNormal::new(2048f64.ln(), 0.0),
        ..Default::default()
    };
    let mut engines = vec![IoMode::Threaded];
    #[cfg(target_os = "linux")]
    engines.push(IoMode::Reactor { reactors: 1 });
    for io in engines {
        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        let origin = start_origin(OriginConfig {
            site: site.clone(),
            io,
            ..Default::default()
        })
        .expect("origin starts");
        let peak = PEAK.load(Ordering::SeqCst).saturating_sub(before);
        let retained = LIVE.load(Ordering::SeqCst).saturating_sub(before);
        let per_resource = retained / PAGES;
        eprintln!("{io:?}: peak {peak} retained {retained} ({per_resource} per resource)");
        assert!(
            peak * 4 <= retained * 5,
            "{io:?}: starting the origin peaked at {peak} live bytes for {retained} retained \
             (bound 1.25x)"
        );
        assert!(
            per_resource < 180,
            "{io:?}: the origin retains {per_resource} bytes per resource (bound 180)"
        );
        origin.stop();
    }
}

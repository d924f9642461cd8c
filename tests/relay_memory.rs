//! Memory of the streaming relay, guarded at the root: a relayed body
//! costs a bounded number of allocations per 16 KiB and a bounded live
//! heap, whatever its length, on both pollers.
//!
//! The file installs its own counting global allocator, which every
//! process-wide count and peak is read from, so every test in it holds the
//! [`WINDOW`] lock for its whole run: a warmup in one test must never land
//! in another's measured window.

use piggyback::httpwire::Response;
use piggyback::proxyd::proxy::{start_proxy, ProxyConfig};
use piggyback::proxyd::IoMode;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// One keep-alive GET of a `200` using only the caller's buffer: no heap
/// allocation on success (assert messages only format on failure).
fn roundtrip(stream: &mut TcpStream, req: &[u8], buf: &mut [u8]) {
    stream.write_all(req).expect("write request");
    let mut filled = 0usize;
    let head_len = loop {
        if let Some(p) = find(&buf[..filled], b"\r\n\r\n") {
            break p + 4;
        }
        let n = stream.read(&mut buf[filled..]).expect("read response");
        assert!(n > 0, "proxy closed mid-response");
        filled += n;
    };
    assert!(buf.starts_with(b"HTTP/1.1 200 OK\r\n"), "not a 200");
    let total = head_len + content_length(&buf[..head_len]);
    assert!(total <= buf.len(), "response larger than client buffer");
    while filled < total {
        let n = stream.read(&mut buf[filled..]).expect("read body");
        assert!(n > 0, "proxy closed mid-body");
        filled += n;
    }
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

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind origin");
    let origin_addr = listener.local_addr().expect("origin addr");
    let mut canned = format!(
        "HTTP/1.1 200 OK\r\n\
         Last-Modified: Mon, 01 Jan 2024 00:00:00 GMT\r\n\
         Content-Length: {TOTAL}\r\n\r\n"
    )
    .into_bytes();
    canned.extend((0..TOTAL).map(|i| (i % 251) as u8));
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
/// read buffer first. A 4 MiB `Content-Length` miss is relayed through
/// read-sized buffers on both engines, and a 4 MiB chunked miss the
/// reactor buffers (PROTOCOL.md §14's policy line) is resident twice at
/// most — the decoded body and the shared copy the cache keeps — where the
/// growing read buffer used to make it three times and more. The origin
/// serves pre-serialized responses and the client reads into one buffer,
/// so the proxy is the only thing allocating in the measured window.
#[test]
fn large_miss_memory_is_bounded_by_the_decoded_body() {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    const BODY: usize = 4 * 1024 * 1024;
    const SLACK: usize = 256 * 1024;

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

    let mut buf = vec![0u8; BODY + 8 * 1024];
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
            let growth = live_heap_growth(|| roundtrip(&mut stream, req, &mut buf));
            assert!(
                growth <= bound,
                "{io:?}: the live heap grew {growth} bytes (bound {bound}) for a {BODY}-byte body"
            );
        };
        lane(b"GET /length.bin HTTP/1.1\r\nHost: a\r\n\r\n", SLACK);
        if io.is_reactor() {
            lane(
                b"GET /chunked.bin HTTP/1.1\r\nHost: a\r\n\r\n",
                2 * BODY + SLACK,
            );
        }
        drop(stream);
        proxy.stop();
    }
}

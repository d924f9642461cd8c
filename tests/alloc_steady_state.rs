//! Allocation-count regression harness for the zero-copy wire hot path.
//!
//! Installs a counting global allocator, drives a warmed proxy connection
//! through pure cached hits with a client that itself performs no heap
//! allocation, and asserts the process allocates **nothing** during the
//! measured window. This is the enforceable form of the steady-state
//! guarantee: once a connection's scratch buffers and recycled header
//! strings are warm, a cached-hit request costs zero heap allocations —
//! parse into reused buffers, look up sharded metadata, bump the shared
//! `Body` refcount, format the head into scratch, one vectored write.
//!
//! Everything else in the process must also be quiet for the window to
//! measure zero: origin workers blocked on accept/read, pool connections
//! idle, the stats/histograms all atomics. A regression anywhere in that
//! set shows up here as a nonzero count. The streaming relay's memory
//! lanes are in `tests/relay_memory.rs`.

use piggyback_proxyd::origin::{start_origin, OriginConfig};
use piggyback_proxyd::proxy::{start_proxy, ProxyConfig};
use piggyback_proxyd::IoMode;
use piggyback_trace::synth::site::{Site, SiteConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts every allocation and reallocation (frees don't matter for the
/// steady-state claim; a path that frees without allocating can't leak).
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter only observes calls.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

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

/// One keep-alive GET round trip using only the caller's buffer. The
/// request bytes are pre-serialized; parsing works on byte slices. No
/// heap allocation on success (assert messages only format on failure).
fn roundtrip(stream: &mut TcpStream, req: &[u8], buf: &mut [u8], expect_hit: bool) {
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
    if expect_hit {
        assert!(
            find(&buf[..head_len], b"X-Cache: HIT\r\n").is_some(),
            "steady-state requests must be cache hits"
        );
    }
    let total = head_len + content_length(&buf[..head_len]);
    assert!(total <= buf.len(), "response larger than client buffer");
    while filled < total {
        let n = stream.read(&mut buf[filled..]).expect("read body");
        assert!(n > 0, "proxy closed mid-body");
        filled += n;
    }
}

/// The allocation counter is process-global, so the two I/O-mode variants
/// must never overlap: a warmup allocation in one would land in the
/// other's measured window. A lane that fails poisons the lock; the
/// guard is recovered, so one failure does not fail every later lane.
static WINDOW: Mutex<()> = Mutex::new(());

#[test]
fn cached_hits_allocate_nothing_after_warmup() {
    steady_state_is_allocation_free(IoMode::Threaded);
}

/// The reactor twin: the epoll path must preserve the zero-allocation
/// guarantee — slab slots, connection scratch, output buffers, and timer
/// wheel entries all reach steady-state capacity during warmup.
#[cfg(target_os = "linux")]
#[test]
fn reactor_cached_hits_allocate_nothing_after_warmup() {
    steady_state_is_allocation_free(IoMode::Reactor { reactors: 2 });
}

/// The miss path must also hit an allocation *steady state*, on both
/// pollers. With freshness zero every request is stale, so each one
/// drives a full upstream exchange — serialize the validation request,
/// ride a kept-alive upstream connection (a reactor shard's, or the
/// blocking poller's pool), parse the 304, re-serve from cache. That path
/// legitimately allocates (the job, the request bytes, response headers),
/// but the per-request count must be a small constant, not grow with
/// connection lifetime. Each engine's bound is 5 % above what it
/// measures, rounded up: 20 allocations per miss here.
#[cfg(target_os = "linux")]
#[test]
fn reactor_miss_path_allocations_stay_bounded() {
    miss_path_allocations_stay_bounded(IoMode::Reactor { reactors: 2 }, 21);
}

/// The blocking poller's twin: its miss path hands the same plan data to
/// the same settle the reactor does, and measures 19 allocations per
/// miss.
#[test]
fn threaded_miss_path_allocations_stay_bounded() {
    miss_path_allocations_stay_bounded(IoMode::Threaded, 20);
}

fn miss_path_allocations_stay_bounded(io: IoMode, bound: u64) {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let site_cfg = SiteConfig {
        n_pages: 8,
        images_per_page: (0, 0),
        ..Default::default()
    };
    let origin = start_origin(OriginConfig {
        site: site_cfg.clone(),
        ..Default::default()
    })
    .expect("origin starts");
    let mut cfg = ProxyConfig::new(origin.addr());
    cfg.io = io;
    // Always stale: every measured request is an upstream validation.
    cfg.freshness = piggyback_core::types::DurationMs::from_millis(0);
    cfg.filter = piggyback_core::filter::ProxyFilter::builder()
        .max_piggy(0)
        .build();
    cfg.rpv = None;
    cfg.report_hits = false;
    // Keep threshold-capped synth bodies on the buffered validation path
    // (see steady_state_is_allocation_free).
    cfg.stream_threshold = 512 * 1024;
    let proxy = start_proxy(cfg).expect("proxy starts");

    let (table, site) = Site::generate(&site_cfg);
    let reqs: Vec<Vec<u8>> = site
        .pages
        .iter()
        .map(|p| {
            format!(
                "GET {} HTTP/1.1\r\nHost: alloc-test\r\n\r\n",
                table.path(p.resource).unwrap()
            )
            .into_bytes()
        })
        .collect();
    let mut buf = vec![0u8; 512 * 1024];

    let mut stream = TcpStream::connect(proxy.addr()).expect("connect");
    // Warmup: first round fills the cache (200s), later rounds settle the
    // upstream connection, scratch, and slab capacities.
    for _ in 0..4 {
        for req in &reqs {
            roundtrip(&mut stream, req, &mut buf, false);
        }
    }

    const ROUNDS: usize = 10;
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..ROUNDS {
        for req in &reqs {
            roundtrip(&mut stream, req, &mut buf, false);
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    let total_reqs = (ROUNDS * reqs.len()) as u64;
    let per_request = (after - before) / total_reqs;
    // The bound leaves 5 % for allocator jitter while catching any O(n)
    // regression (per-request buffer churn lands at hundreds per
    // exchange).
    assert!(
        per_request <= bound,
        "{io:?}: the miss path allocates too much: {} allocations / {} requests = {} per request",
        after - before,
        total_reqs,
        per_request
    );

    let s = proxy.stats();
    assert_eq!(s.requests, 14 * reqs.len() as u64);
    assert!(
        s.not_modified >= 13 * reqs.len() as u64,
        "every post-fill request must be an upstream validation: {s:?}"
    );
    assert_eq!(s.upstream_errors, 0, "{s:?}");
    proxy.stop();
    origin.stop();
}

fn steady_state_is_allocation_free(io: IoMode) {
    let _window = WINDOW.lock().unwrap_or_else(|e| e.into_inner());
    let site_cfg = SiteConfig {
        n_pages: 16,
        images_per_page: (0, 0),
        ..Default::default()
    };
    let origin = start_origin(OriginConfig {
        site: site_cfg.clone(),
        ..Default::default()
    })
    .expect("origin starts");
    let mut cfg = ProxyConfig::new(origin.addr());
    cfg.io = io;
    // Far longer than the test: every measured request is a fresh hit.
    cfg.freshness = piggyback_core::types::DurationMs::from_secs(3600);
    // Synth bodies cap at exactly the default stream threshold (256 KiB),
    // and threshold-sized objects stream; keep this lane's heavy-tail
    // pages whole-cached so every measured request is a zero-alloc hit.
    cfg.stream_threshold = 512 * 1024;
    let proxy = start_proxy(cfg).expect("proxy starts");

    // Pre-serialize one request per page, browser-shaped headers included,
    // so the measured loop only writes bytes.
    let (table, site) = Site::generate(&site_cfg);
    let reqs: Vec<Vec<u8>> = site
        .pages
        .iter()
        .map(|p| {
            format!(
                "GET {} HTTP/1.1\r\n\
                 Host: alloc-test\r\n\
                 User-Agent: alloc-steady-state/1.0\r\n\
                 Accept: text/html,*/*;q=0.8\r\n\
                 Cookie: session=0123456789abcdef\r\n\r\n",
                table.path(p.resource).unwrap()
            )
            .into_bytes()
        })
        .collect();
    let mut buf = vec![0u8; 512 * 1024];

    let mut stream = TcpStream::connect(proxy.addr()).expect("connect");
    // Warmup: every page goes MISS → HIT on this connection, the scratch
    // buffers and recycled header strings reach their steady-state
    // capacity, the hit reporter and RPV table see this source.
    for round in 0..4 {
        for req in &reqs {
            roundtrip(&mut stream, req, &mut buf, round > 0);
        }
    }

    // Measured window: pure cached hits. The proxy, the origin (idle),
    // and this client must collectively allocate nothing.
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    for _ in 0..10 {
        for req in &reqs {
            roundtrip(&mut stream, req, &mut buf, true);
        }
    }
    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "cached-hit steady state must not allocate ({} allocations across {} requests)",
        after - before,
        10 * reqs.len()
    );

    let s = proxy.stats();
    assert_eq!(s.requests, 14 * reqs.len() as u64);
    assert!(s.fresh_hits >= 13 * reqs.len() as u64, "{s:?}");
    proxy.stop();
    origin.stop();
}

//! The volume center as a cut-through relay (PROTOCOL.md §14.1), checked
//! where tier-1 sees it: downstream bytes equal `Response::write` of the
//! upstream response in every framing and both modes; a live origin's
//! piggybacks pass through, and a bare `304` leaves what an oblivious
//! origin's center vouches for as it was; relay memory is O(segment), not
//! O(body); the first byte does not wait for the last; the shim's delay
//! ledger is conserved however a body is segmented; and the record tap,
//! the same loop recording, relays in step, re-dials after a
//! `Connection: close` and records a `HEAD`.
//!
//! The file runs under a counting allocator whose figures are
//! process-global, so every test takes [`window`] and they run one at a
//! time.

use piggyback::core::datetime::{parse_rfc1123, timestamp_from_unix, DEFAULT_TRACE_EPOCH_UNIX};
use piggyback::core::filter::ProxyFilter;
use piggyback::core::server::PiggybackServer;
use piggyback::core::types::{SourceId, Timestamp};
use piggyback::core::volume::DirectoryVolumes;
use piggyback::core::wire::{decode_p_volume, encode_p_volume};
use piggyback::httpwire::{BodyReader, Request, Response, StreamFraming};
use piggyback::proxyd::netem::{Conditioner, NetProfile, ShimConfig};
use piggyback::proxyd::origin::{start_origin, OriginConfig};
use piggyback::proxyd::record_tap::{start_recorder, RecorderConfig};
use piggyback::proxyd::util::{serve, ServerHandle};
use piggyback::proxyd::volume_center::{
    start_volume_center, VolumeCenterConfig, VolumeCenterHandle,
};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Counting allocator: live bytes, their peak, and bytes ever requested.
// ---------------------------------------------------------------------------

struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    REQUESTED.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
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
        if new_size > layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// One test at a time (see the module docs).
fn window() -> MutexGuard<'static, ()> {
    static WINDOW: Mutex<()> = Mutex::new(());
    WINDOW.lock().unwrap_or_else(|e| e.into_inner())
}

/// How far the live heap rose above its level at the call while `f` ran.
fn live_heap_growth(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    f();
    PEAK.load(Relaxed).saturating_sub(before)
}

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

const LAST_MODIFIED: &str = "Wed, 28 Jan 1998 00:00:00 GMT";
const SEGMENT: usize = 16 * 1024;

/// The body every stub serves: byte `i` of any object is `PATTERN[i % N]`,
/// written from this static so a stub never allocates for a body.
static PATTERN: [u8; 64 * 1024] = {
    let mut bytes = [0u8; 64 * 1024];
    let mut i = 0;
    while i < bytes.len() {
        bytes[i] = (i % 251) as u8;
        i += 1;
    }
    bytes
};

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| PATTERN[i % PATTERN.len()]).collect()
}

/// Write `len` pattern bytes from offset 0 as `Content-Length` payload or
/// as 16 KiB chunks, from the static.
fn write_pattern<W: Write>(w: &mut W, len: usize, chunked: bool) -> std::io::Result<()> {
    let mut at = 0;
    while at < len {
        let from = at % PATTERN.len();
        let take = (len - at).min(SEGMENT).min(PATTERN.len() - from);
        if chunked {
            write!(w, "{take:x}\r\n")?;
        }
        w.write_all(&PATTERN[from..from + take])?;
        if chunked {
            w.write_all(b"\r\n")?;
        }
        at += take;
    }
    Ok(())
}

fn center(origin: SocketAddr, transparent: bool, shim: Option<ShimConfig>) -> VolumeCenterHandle {
    start_volume_center(VolumeCenterConfig {
        port: 0,
        origin,
        volume_level: 1,
        shim,
        transparent,
    })
    .unwrap()
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    // A relay that wedges fails the test instead of hanging the run.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn serialized(resp: &Response) -> Vec<u8> {
    let mut wire = Vec::new();
    resp.write(&mut wire).unwrap();
    wire
}

fn head_end(wire: &[u8]) -> usize {
    wire.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("a complete head")
        + 4
}

/// Read one response head off `stream` into `buf`; returns (head length,
/// bytes buffered so far).
fn read_head(stream: &mut TcpStream, buf: &mut [u8]) -> (usize, usize) {
    let mut filled = 0;
    loop {
        if let Some(p) = buf[..filled].windows(4).position(|w| w == b"\r\n\r\n") {
            return (p + 4, filled);
        }
        let n = stream.read(&mut buf[filled..]).expect("relay went quiet");
        assert!(n > 0, "relay closed before a full head");
        filled += n;
    }
}

// ---------------------------------------------------------------------------
// Byte identity, both modes, every framing.
// ---------------------------------------------------------------------------

/// An upstream that answers every request with whatever wire bytes the
/// test staged, and keeps the request it saw.
struct Stub {
    handle: ServerHandle,
    answer: Arc<Mutex<Vec<u8>>>,
    seen: Arc<Mutex<Option<Request>>>,
}

fn stub() -> Stub {
    let answer = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::new(Mutex::new(None));
    let (answer2, seen2) = (Arc::clone(&answer), Arc::clone(&seen));
    let handle = serve(0, "relay-stub", move |mut stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        while let Ok(req) = Request::read(&mut r) {
            *seen2.lock().unwrap() = Some(req);
            if stream.write_all(&answer2.lock().unwrap()).is_err() {
                return;
            }
        }
    })
    .unwrap();
    Stub {
        handle,
        answer,
        seen,
    }
}

/// One mode's half of the identity fixture: a center in front of the
/// shared stub, one keep-alive downstream connection, and — for the
/// oblivious mode — the reference server that is fed the same
/// observations the center learns from.
struct Lane {
    center: VolumeCenterHandle,
    down: TcpStream,
    reference: PiggybackServer<DirectoryVolumes>,
    observations: u64,
}

struct Identity {
    stub: Stub,
    transparent: Lane,
    oblivious: Lane,
}

fn identity() -> MutexGuard<'static, Identity> {
    static FIXTURE: OnceLock<Mutex<Identity>> = OnceLock::new();
    FIXTURE
        .get_or_init(|| {
            let stub = stub();
            let lane = |transparent| {
                let center = center(stub.handle.addr, transparent, None);
                let down = connect(center.addr());
                Lane {
                    center,
                    down,
                    reference: PiggybackServer::new(DirectoryVolumes::new(1)),
                    observations: 0,
                }
            };
            Mutex::new(Identity {
                transparent: lane(true),
                oblivious: lane(false),
                stub,
            })
        })
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Body sizes that straddle the 8 KiB chunk and 16 KiB segment boundaries.
const BOUNDARIES: [usize; 7] = [
    8 * 1024,
    16 * 1024,
    24 * 1024,
    32 * 1024,
    48 * 1024,
    64 * 1024,
    200 * 1024 - 1,
];

struct Case {
    status: u16,
    head: bool,
    chunked: bool,
    trailers: bool,
    size: usize,
    transparent: bool,
    te: bool,
    filter: bool,
    path: String,
}

/// Relay one exchange and hold the downstream bytes to `Response::write`
/// of the upstream response as parsed (plus, in oblivious mode, the
/// `P-volume` the reference server generates from the same history).
fn check_identity(fixture: &mut Identity, case: &Case) {
    let mut upstream = Response::new(case.status);
    upstream.headers.insert("Last-Modified", LAST_MODIFIED);
    upstream.headers.insert("Content-Type", "text/html");
    if !Response::bodiless_status(case.status) {
        upstream.body = pattern(case.size).into();
    }
    if case.chunked {
        upstream.headers.insert("Transfer-Encoding", "chunked");
        if case.trailers {
            upstream.trailers.insert("X-Body-Sum", "abc123");
            upstream.trailers.insert("X-Late", "1");
        }
    }
    let mut wire = serialized(&upstream);
    if case.head {
        wire.truncate(head_end(&wire)); // a HEAD answer is its head alone
    }
    *fixture.stub.answer.lock().unwrap() = wire.clone();

    let mut req = Request::new(if case.head { "HEAD" } else { "GET" }, &case.path);
    req.headers.insert("Host", "t");
    if case.te {
        req.headers.insert("TE", "chunked");
    }
    if case.filter {
        req.headers.insert("Piggy-filter", "maxpiggy=10");
    }

    let lane = if case.transparent {
        &mut fixture.transparent
    } else {
        &mut fixture.oblivious
    };
    let mut expect = Response::read(&mut BufReader::new(wire.as_slice()), case.head).unwrap();
    if !case.transparent && (case.status == 200 || case.status == 304) {
        // The center's clock ticks in milliseconds and volume recency is
        // ordered by it: keep observations on distinct ticks.
        std::thread::sleep(Duration::from_millis(2));
        lane.observations += 1;
        let now = Timestamp::from_millis(lane.observations);
        let server = &mut lane.reference;
        let lm = timestamp_from_unix(
            parse_rfc1123(LAST_MODIFIED).unwrap(),
            DEFAULT_TRACE_EPOCH_UNIX,
        );
        let size = if case.status == 200 {
            expect.body.len() as u64
        } else {
            let known = server.table().lookup(&case.path);
            known
                .and_then(|r| server.table().meta(r))
                .map_or(0, |m| m.size)
        };
        let resource = server.register_path(&case.path, size, lm);
        let source = SourceId(lane.down.local_addr().unwrap().port() as u32);
        server.record_access(resource, source, now);
        if case.filter {
            let filter = ProxyFilter::parse("maxpiggy=10").unwrap();
            if let Some(msg) = server.piggyback(resource, &filter, now) {
                let pv = encode_p_volume(&msg, server.table()).unwrap();
                if case.status == 200 && case.te && !case.head {
                    expect.trailers.insert("P-volume", &pv);
                } else {
                    expect.headers.insert("P-volume", &pv);
                }
            }
        }
    }
    let expect = serialized(&expect);

    req.write(&mut lane.down).unwrap();
    let mut got = vec![0u8; expect.len()];
    lane.down
        .read_exact(&mut got)
        .expect("the relay sent fewer bytes than Response::write would");
    assert!(
        got == expect,
        "downstream bytes differ from Response::write"
    );

    // The forwarded request: verbatim through a transparent relay, without
    // the filter towards an oblivious origin.
    let seen = fixture.stub.seen.lock().unwrap().take().expect("forwarded");
    assert_eq!((&seen.method, &seen.target), (&req.method, &req.target));
    if case.transparent {
        assert_eq!(seen.headers, req.headers);
    } else {
        assert!(seen.headers.get("Piggy-filter").is_none());
        assert_eq!(seen.headers.get("TE"), req.headers.get("TE"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]
    #[test]
    fn relayed_bytes_equal_response_write(
        status in prop_oneof![Just(200u16), Just(200), Just(200), Just(204), Just(304), Just(404)],
        head in prop_oneof![Just(false), Just(false), Just(false), Just(true)],
        chunked in any::<bool>(),
        trailers in any::<bool>(),
        pick in 0usize..12,
        nudge in 0usize..3,
        free in 0usize..200 * 1024,
        transparent in any::<bool>(),
        te in any::<bool>(),
        filter in any::<bool>(),
        dir in 0usize..3,
        page in 0usize..6,
    ) {
        let _window = window();
        let size = match pick {
            0 => 0,
            1 => 1,
            2..=8 => BOUNDARIES[pick - 2] + nudge - 1,
            _ => free,
        };
        let path = format!("/d{dir}/p{page}.html");
        let case = Case { status, head, chunked, trailers, size, transparent, te, filter, path };
        check_identity(&mut identity(), &case);
    }
}

/// After the property lane's traffic both connections are still the ones
/// opened first, in step, with nothing stray behind the last response, and
/// the oblivious center learned exactly what the reference did.
#[test]
fn identity_lanes_stay_in_step_on_one_connection() {
    let _window = window();
    let mut fixture = identity();
    for (transparent, size) in [(true, 40_000), (false, 40_000), (true, 0), (false, 0)] {
        let case = Case {
            status: 200,
            head: false,
            chunked: size == 0,
            trailers: false,
            size,
            transparent,
            te: true,
            filter: true,
            path: "/d0/p0.html".into(),
        };
        check_identity(&mut fixture, &case);
    }
    for lane in [&fixture.transparent, &fixture.oblivious] {
        assert_eq!(lane.center.daemon_stats().connections, 1);
        lane.down.set_nonblocking(true).unwrap();
        let mut probe = [0u8; 1];
        let quiet = matches!(
            lane.down.peek(&mut probe),
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock
        );
        lane.down.set_nonblocking(false).unwrap();
        assert!(quiet, "stray bytes behind the last relayed response");
    }
    assert_eq!(fixture.transparent.center.learned_resources(), 0);
    assert_eq!(
        fixture.oblivious.center.learned_resources(),
        fixture.oblivious.reference.table().len()
    );
    assert_eq!(
        fixture.oblivious.center.stats(),
        fixture.oblivious.reference.stats()
    );
}

// ---------------------------------------------------------------------------
// What the center relays and vouches for.
// ---------------------------------------------------------------------------

/// The live origin's piggybacks pass through a transparent center, which
/// learns nothing and counts what it relayed.
#[test]
fn transparent_center_relays_the_origins_piggybacks() {
    let _window = window();
    let origin = start_origin(OriginConfig::default()).unwrap();
    let exchange = |stream: &mut TcpStream, r: &mut BufReader<TcpStream>, path: &str| {
        let mut req = Request::new("GET", path);
        req.headers.insert("Host", "t");
        req.headers.insert("TE", "chunked");
        req.headers.insert("Piggy-filter", "maxpiggy=10");
        req.write(stream).unwrap();
        let resp = Response::read(r, false).unwrap();
        assert_eq!(resp.status, 200);
        resp
    };
    // The same walk, direct and through the center, from cold connections
    // to an origin warmed so that piggybacks name volume mates.
    let walk = |addr: SocketAddr| {
        let mut stream = connect(addr);
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let paths: Vec<String> = origin.paths().into_iter().take(8).collect();
        paths
            .iter()
            .map(|p| exchange(&mut stream, &mut r, p))
            .collect::<Vec<_>>()
    };
    for p in &origin.paths() {
        let mut stream = connect(origin.addr());
        let mut r = BufReader::new(stream.try_clone().unwrap());
        exchange(&mut stream, &mut r, p);
    }
    let center = center(origin.addr(), true, None);
    let relayed = walk(center.addr());

    assert!(
        relayed.iter().any(|resp| {
            resp.trailers.get("P-volume").is_some() || resp.headers.get("P-volume").is_some()
        }),
        "origin piggybacks must pass through"
    );
    assert_eq!(
        center.learned_resources(),
        0,
        "a transparent relay learns nothing"
    );
    let bytes: usize = relayed.iter().map(|resp| resp.body.len()).sum();
    assert_eq!(center.daemon_stats().bytes_sent, bytes as u64);
    center.stop();
    origin.stop();
}

/// An oblivious origin answers `/docs/a.html` with a dated 200, then every
/// validation of it with a bare 304 (no `Last-Modified`). The center's next
/// piggyback still vouches for the date it observed, not the trace epoch.
#[test]
fn a_bare_304_keeps_the_date_the_center_observed() {
    let _window = window();
    const OBSERVED: &str = "Sun, 01 Mar 1998 00:00:00 GMT";
    let origin = serve(0, "bare-304-origin", |mut stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        while let Ok(req) = Request::read(&mut r) {
            let mut resp = Response::new(200);
            if req.headers.get("If-Modified-Since").is_some() {
                resp = Response::new(304);
            } else {
                resp.headers.insert("Last-Modified", OBSERVED);
                resp.body = pattern(100).into();
            }
            if resp.write(&mut stream).is_err() {
                return;
            }
        }
    })
    .unwrap();
    let center = center(origin.addr, false, None);
    let mut down = connect(center.addr());
    let mut r = BufReader::new(down.try_clone().unwrap());
    let mut get = |path: &str, ims: bool| {
        let mut req = Request::new("GET", path);
        req.headers.insert("Host", "t");
        req.headers.insert("Piggy-filter", "maxpiggy=10");
        if ims {
            req.headers.insert("If-Modified-Since", OBSERVED);
        }
        req.write(&mut down).unwrap();
        Response::read(&mut r, false).unwrap()
    };
    assert_eq!(get("/docs/a.html", false).status, 200);
    assert_eq!(get("/docs/a.html", true).status, 304);
    let b = get("/docs/b.html", false);
    assert_eq!(b.status, 200);
    let pv = b.headers.get("P-volume").expect("b's piggyback names a");
    let wire = decode_p_volume(pv).unwrap();
    let a = wire
        .elements
        .iter()
        .find(|e| e.path == "/docs/a.html")
        .expect("a is b's volume mate");
    let observed = timestamp_from_unix(parse_rfc1123(OBSERVED).unwrap(), DEFAULT_TRACE_EPOCH_UNIX);
    assert_eq!(a.last_modified, observed, "the 304 reset the vouched date");
    center.stop();
    origin.stop();
}

// ---------------------------------------------------------------------------
// Bounded memory and first-byte ordering.
// ---------------------------------------------------------------------------

/// A stub that answers `GET /<len>` (`/c<len>` chunked) with `len` pattern
/// bytes straight from the static: nothing on its side of the relay
/// allocates for a body.
fn pattern_origin() -> ServerHandle {
    serve(0, "pattern-origin", |mut stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        while let Ok(req) = Request::read(&mut r) {
            let spec = req.target.trim_start_matches('/');
            let chunked = spec.starts_with('c');
            let len: usize = spec.trim_start_matches('c').parse().unwrap();
            let sent = if chunked {
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
                    .and_then(|()| write_pattern(&mut stream, len, true))
                    .and_then(|()| stream.write_all(b"0\r\n\r\n"))
            } else {
                write!(stream, "HTTP/1.1 200 OK\r\nContent-Length: {len}\r\n\r\n")
                    .and_then(|()| write_pattern(&mut stream, len, false))
            };
            if sent.is_err() {
                return;
            }
        }
    })
    .unwrap()
}

/// GET `target` and consume the response through preallocated buffers,
/// checking every body byte against the pattern. Returns the body length.
fn drain_pattern(
    down: &mut TcpStream,
    target: &str,
    buf: &mut [u8],
    sink: &mut Vec<u8>,
    decoder: &mut BodyReader,
) -> usize {
    write!(down, "GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let (head_len, mut filled) = read_head(down, buf);
    let chunked = buf[..head_len]
        .windows(26)
        .any(|w| w == b"Transfer-Encoding: chunked");
    decoder.reset(if chunked {
        StreamFraming::Chunked
    } else {
        let len = target.trim_start_matches('/').parse().unwrap();
        StreamFraming::Length(len)
    });
    let mut at = head_len;
    let mut checked = 0usize;
    loop {
        sink.clear();
        at += decoder.push(&buf[at..filled], sink).unwrap();
        for &b in sink.iter() {
            assert_eq!(b, PATTERN[checked % PATTERN.len()], "body byte {checked}");
            checked += 1;
        }
        if decoder.is_done() {
            assert_eq!(at, filled, "stray bytes behind the body");
            return checked;
        }
        filled = down.read(buf).expect("relay went quiet mid-body");
        assert!(filled > 0, "relay closed mid-body");
        at = 0;
    }
}

/// Aim 3 at this hop: relaying a 16 MiB body, in either framing, grows
/// the live heap by a few segment-sized buffers — and a steady-state
/// exchange that fits one segment allocates nothing that scales with its
/// body.
#[test]
fn relay_memory_is_bounded_by_the_segment_not_the_body() {
    let _window = window();
    const BIG: usize = 16 * 1024 * 1024;
    let origin = pattern_origin();
    let center = center(origin.addr, true, None);
    let mut down = connect(center.addr());
    let mut buf = vec![0u8; 64 * 1024];
    let mut sink = Vec::with_capacity(64 * 1024);
    let mut decoder = BodyReader::length(0);

    for target in [format!("/{BIG}"), format!("/c{BIG}")] {
        let mut got = 0;
        let growth = live_heap_growth(|| {
            got = drain_pattern(&mut down, &target, &mut buf, &mut sink, &mut decoder);
        });
        assert_eq!(got, BIG);
        assert!(
            growth <= 256 * 1024,
            "GET {target}: live heap grew {growth} bytes for a {BIG}-byte body"
        );
    }

    // Steady state, one segment: everything body-sized is a reused buffer,
    // so a 12 KiB body costs the allocator what a 1 KiB body does.
    let mut requested_per_exchange = |len: usize| {
        let target = format!("/{len}");
        for _ in 0..4 {
            drain_pattern(&mut down, &target, &mut buf, &mut sink, &mut decoder);
        }
        let before = REQUESTED.load(Relaxed);
        for _ in 0..16 {
            drain_pattern(&mut down, &target, &mut buf, &mut sink, &mut decoder);
        }
        (REQUESTED.load(Relaxed) - before) / 16
    };
    let large = requested_per_exchange(12 * 1024);
    let small = requested_per_exchange(1024);
    assert!(
        large <= small + 64,
        "a 12 KiB exchange requested {large} heap bytes, a 1 KiB one {small}"
    );
    center.stop();
    origin.stop();
}

/// Cut-through, proven without a stopwatch: the origin sends the head and
/// the first 64 KiB of a 1 MiB body, then refuses to send another byte
/// until the test holds a body byte that came *through the relay*. A
/// store-and-forward relay deadlocks here (and fails on the read timeout).
fn first_byte_arrives_before_the_last_is_sent(shim: Option<ShimConfig>) {
    const TOTAL: usize = 1024 * 1024;
    const OPENING: usize = 64 * 1024;
    let (seen_tx, seen_rx) = mpsc::channel::<()>();
    let seen_rx = Mutex::new(seen_rx);
    let origin = serve(0, "gated-origin", move |mut stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        if Request::read(&mut r).is_err() {
            return;
        }
        let opening = write!(stream, "HTTP/1.1 200 OK\r\nContent-Length: {TOTAL}\r\n\r\n")
            .and_then(|()| stream.write_all(&PATTERN[..OPENING]));
        let released = seen_rx
            .lock()
            .unwrap()
            .recv_timeout(Duration::from_secs(15));
        if opening.is_ok() && released.is_ok() {
            for _ in 1..TOTAL / OPENING {
                let _ = stream.write_all(&PATTERN[..OPENING]);
            }
        }
    })
    .unwrap();
    let center = center(origin.addr, true, shim);
    let mut down = connect(center.addr());
    write!(
        down,
        "GET /big HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut buf = vec![0u8; 64 * 1024];
    let (head_len, mut filled) = read_head(&mut down, &mut buf);
    while filled == head_len {
        let n = down
            .read(&mut buf[filled..])
            .expect("no body byte while the origin still holds the rest: store-and-forward");
        assert!(n > 0);
        filled += n;
    }
    seen_tx.send(()).unwrap();
    let mut body = buf[head_len..filled].to_vec();
    down.read_to_end(&mut body).unwrap();
    assert_eq!(body.len(), TOTAL);
    assert!(body.chunks(OPENING).all(|c| c == &PATTERN[..OPENING]));
    center.stop();
    origin.stop();
}

#[test]
fn first_byte_does_not_wait_for_the_last() {
    let _window = window();
    first_byte_arrives_before_the_last_is_sent(None);
}

#[test]
fn first_byte_does_not_wait_for_the_last_under_a_dsl_shaped_shim() {
    let _window = window();
    first_byte_arrives_before_the_last_is_sent(Some(ShimConfig {
        profile: NetProfile::dsl().scaled(0.05),
        seed: 3,
    }));
}

// ---------------------------------------------------------------------------
// Shim conservation.
// ---------------------------------------------------------------------------

/// The pacing law: whatever the segmentation, one exchange is delayed by
/// exactly `up_delay(request bytes) + down_delay(response bytes)` in the
/// shim's ledger, and a response that fits one write sleeps once.
#[test]
fn shim_delay_is_conserved_across_segmentation() {
    let _window = window();
    let shim = ShimConfig {
        profile: NetProfile::dsl().scaled(0.02),
        seed: 11,
    };
    for (len, one_write) in [(8 * 1024, true), (40 * SEGMENT, false)] {
        let origin = pattern_origin();
        let center = center(origin.addr, true, Some(shim.clone()));
        let mut down = connect(center.addr());
        let mut req = Request::new("GET", &format!("/{len}"));
        req.headers.insert("Host", "t");
        req.headers.insert("Connection", "close");
        let mut request_wire = Vec::new();
        req.write(&mut request_wire).unwrap();
        down.write_all(&request_wire).unwrap();
        let mut response_wire = Vec::new();
        down.read_to_end(&mut response_wire).unwrap();
        assert_eq!(response_wire.len() - head_end(&response_wire), len);

        let reference = Conditioner::new(shim.profile.clone(), shim.seed);
        let plan = reference.plan_for(0);
        let owed = reference.up_delay(&plan, request_wire.len()).as_micros()
            + reference.down_delay(&plan, response_wire.len()).as_micros();
        let stats = center.shim_stats().unwrap();
        assert_eq!(stats.exchanges, 1);
        assert_eq!(u128::from(stats.delay_us), owed, "{len}-byte body");
        if one_write {
            assert_eq!(stats.sleeps, 2, "one for the request, one for the response");
        } else {
            assert_eq!(
                stats.sleeps as usize,
                1 + response_wire.len().div_ceil(SEGMENT),
                "one per 16 KiB write"
            );
        }
        center.stop();
        origin.stop();
    }
}

// ---------------------------------------------------------------------------
// The record tap: the same loop, recording.
// ---------------------------------------------------------------------------

/// One piggyback GET for `path` on `down`, and its response.
fn get_piggybacked(down: &mut TcpStream, r: &mut BufReader<TcpStream>, path: &str) -> Response {
    let mut req = Request::new("GET", path);
    req.headers.insert("Host", "t");
    req.headers.insert("TE", "chunked");
    req.headers.insert("Piggy-filter", "maxpiggy=10");
    req.write(down).unwrap();
    Response::read(r, false).unwrap()
}

/// An upstream that answers `Connection: close` and hangs up: the tap
/// re-dials for the next request on the same downstream connection, and
/// records both exchanges.
#[test]
fn record_tap_redials_after_connection_close() {
    let _window = window();
    let origin = serve(0, "closing-origin", |mut stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        if let Ok(req) = Request::read(&mut r) {
            let mut resp = Response::new(200);
            resp.headers.insert("Last-Modified", LAST_MODIFIED);
            resp.headers.insert("Connection", "close");
            resp.body = req.target.into_bytes().into();
            let _ = resp.write(&mut stream);
        }
    })
    .unwrap();
    let rec = start_recorder(RecorderConfig {
        port: 0,
        origin: origin.addr,
    })
    .unwrap();
    let mut down = connect(rec.addr());
    let mut r = BufReader::new(down.try_clone().unwrap());
    let paths = ["/first.html", "/second.html", "/third.html"];
    for p in paths {
        let resp = get_piggybacked(&mut down, &mut r, p);
        assert_eq!(resp.status, 200, "{p}");
        assert_eq!(resp.body, p.as_bytes(), "{p}");
    }
    drop((down, r));
    let inv = rec.finish("closes");
    origin.stop();
    let recorded: Vec<(&str, u16)> = inv
        .entries
        .iter()
        .map(|e| (e.path.as_str(), e.status))
        .collect();
    assert_eq!(recorded, paths.map(|p| (p, 200)));
    assert!(inv
        .entries
        .iter()
        .all(|e| e.response_header("Connection").is_none()));
}

/// A `HEAD` through the tap is answered bodiless, recorded with no body,
/// and leaves the connection framed for the `GET` behind it.
#[test]
fn record_tap_records_a_head_without_a_body() {
    let _window = window();
    let origin = start_origin(OriginConfig::default()).unwrap();
    let rec = start_recorder(RecorderConfig {
        port: 0,
        origin: origin.addr(),
    })
    .unwrap();
    let path = origin.paths()[0].clone();
    let mut down = connect(rec.addr());
    let mut r = BufReader::new(down.try_clone().unwrap());
    let mut head = Request::new("HEAD", &path);
    head.headers.insert("Host", "t");
    head.write(&mut down).unwrap();
    let resp = Response::read(&mut r, true).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.is_empty());
    let get = get_piggybacked(&mut down, &mut r, &path);
    assert_eq!(get.status, 200);
    assert!(!get.body.is_empty());
    drop((down, r));
    let inv = rec.finish("head");
    origin.stop();
    assert_eq!(inv.entries.len(), 2);
    let (h, g) = (&inv.entries[0], &inv.entries[1]);
    assert_eq!((h.method.as_str(), h.status), ("HEAD", 200));
    assert!(h.body.is_empty(), "a HEAD records no body");
    assert!(h.response_header("Last-Modified").is_some());
    assert_eq!(
        (g.method.as_str(), g.body.clone()),
        ("GET", get.body.to_vec())
    );
}

//! Byte taps: benchmark-owned TCP relays interposed on each hop of a
//! traced run. A tap forwards bytes the moment they arrive, frames the
//! HTTP messages passing through with the harness's own framer, and emits
//! one span per exchange — attribution from *outside* the daemons.
//!
//! The traced run keeps one client request in flight, so causality is
//! read off the wire: an upstream exchange belongs to the latest client
//! request; one for a different path than the client asked for is a
//! speculative fetch that request caused.

use crate::chain::Engine;
use crate::wire::{frame_request, ResponseFramer};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hop {
    ClientToProxy,
    ProxyToCenter,
    CenterToOrigin,
}

/// One exchange seen at one hop (or, for `loadgen.op`, one operation seen
/// by the generator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// The client request this work was done for.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    /// When the first response byte passed.
    pub first_byte_ns: u64,
    pub end_ns: u64,
    pub path: String,
    pub status: u16,
    pub class: &'static str,
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \"start_ns\": {}, \
             \"first_byte_ns\": {}, \"end_ns\": {}, \"path\": \"{}\", \"status\": {}, \
             \"class\": \"{}\", \"bytes\": {}}}",
            self.id,
            self.parent,
            self.req,
            self.name,
            self.start_ns,
            self.first_byte_ns,
            self.end_ns,
            self.path.replace('\\', "\\\\").replace('"', "\\\""),
            self.status,
            self.class,
            self.bytes
        )
    }
}

/// The client request currently in flight, as the generator announced it.
#[derive(Debug, Default, Clone)]
struct Current {
    req: u64,
    op_span: u64,
    proxy_span: u64,
    path: String,
}

/// Wire bytes kept for the library-layer loops: the first few messages of
/// each kind at each hop, whole.
#[derive(Debug, Default)]
pub struct Captures {
    pub requests: HashMap<Hop, Vec<Vec<u8>>>,
    pub responses: HashMap<Hop, Vec<Vec<u8>>>,
}

/// Messages kept per (hop, direction), and the largest one kept.
const CAPTURE_COUNT: usize = 64;
const CAPTURE_MAX_BYTES: usize = 5 * 1024 * 1024;
const CAPTURE_BUDGET_BYTES: usize = 24 * 1024 * 1024;

/// State shared by the taps of one chain and the generator.
pub struct TapShared {
    engine: Engine,
    t0: Instant,
    next_id: AtomicU64,
    /// Spans are recorded only while this is set: set-up traffic is
    /// captured for the layer loops but not traced.
    recording: AtomicBool,
    spans: Mutex<Vec<Span>>,
    current: Mutex<Current>,
    /// Open proxy→center exchanges by path, so the center→origin exchange
    /// they cause can name its parent.
    open_center: Mutex<HashMap<String, u64>>,
    captures: Mutex<Captures>,
    captured_bytes: AtomicU64,
}

impl TapShared {
    pub fn new(engine: Engine) -> Self {
        TapShared {
            engine,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            recording: AtomicBool::new(false),
            spans: Mutex::new(Vec::with_capacity(64 * 1024)),
            current: Mutex::new(Current::default()),
            open_center: Mutex::new(HashMap::new()),
            captures: Mutex::new(Captures::default()),
            captured_bytes: AtomicU64::new(0),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn set_recording(&self, on: bool) {
        self.recording.store(on, Ordering::SeqCst);
    }

    /// The generator is about to send client request `req` for `path`.
    /// Returns the id of the root span it will close with [`end_op`].
    pub fn begin_op(&self, req: u64, path: &str) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.current.lock().expect("tap state");
        cur.req = req;
        cur.op_span = id;
        cur.proxy_span = 0;
        cur.path.clear();
        cur.path.push_str(path);
        id
    }

    #[allow(clippy::too_many_arguments)]
    pub fn end_op(
        &self,
        id: u64,
        req: u64,
        path: &str,
        start_ns: u64,
        first_byte_ns: u64,
        status: u16,
        class: &'static str,
        bytes: u64,
    ) {
        self.push(Span {
            id,
            parent: 0,
            req,
            name: "loadgen.op",
            start_ns,
            first_byte_ns,
            end_ns: self.now_ns(),
            path: path.to_owned(),
            status,
            class,
            bytes,
        });
    }

    fn push(&self, span: Span) {
        if self.recording.load(Ordering::SeqCst) {
            self.spans.lock().expect("span store").push(span);
        }
    }

    /// A request for `path` passed `hop`: name the span it opens.
    fn open(&self, hop: Hop, path: &str) -> Opened {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.current.lock().expect("tap state");
        let (name, parent) = match hop {
            Hop::ClientToProxy => {
                cur.proxy_span = id;
                (self.engine.layer(), cur.op_span)
            }
            Hop::ProxyToCenter => {
                self.open_center
                    .lock()
                    .expect("tap state")
                    .insert(path.to_owned(), id);
                let name = if path == cur.path {
                    "proxyd.volume_center"
                } else {
                    "proxyd.prefetch"
                };
                (name, cur.proxy_span)
            }
            Hop::CenterToOrigin => {
                let parent = self
                    .open_center
                    .lock()
                    .expect("tap state")
                    .get(path)
                    .copied()
                    .unwrap_or(cur.proxy_span);
                ("proxyd.origin", parent)
            }
        };
        Opened {
            id,
            parent,
            req: cur.req,
            name,
            path: path.to_owned(),
            start_ns: self.now_ns(),
            record: self.recording.load(Ordering::SeqCst),
        }
    }

    fn close(
        &self,
        hop: Hop,
        o: Opened,
        first_byte_ns: u64,
        status: u16,
        class: &'static str,
        bytes: u64,
    ) {
        if hop == Hop::ProxyToCenter {
            let mut open = self.open_center.lock().expect("tap state");
            if open.get(&o.path) == Some(&o.id) {
                open.remove(&o.path);
            }
        }
        if !o.record {
            return;
        }
        self.push(Span {
            id: o.id,
            parent: o.parent,
            req: o.req,
            name: o.name,
            start_ns: o.start_ns,
            first_byte_ns,
            end_ns: self.now_ns(),
            path: o.path,
            status,
            class,
            bytes,
        });
    }

    fn capture(&self, hop: Hop, request: bool, bytes: &[u8]) {
        if bytes.len() > CAPTURE_MAX_BYTES
            || self.captured_bytes.load(Ordering::Relaxed) as usize + bytes.len()
                > CAPTURE_BUDGET_BYTES
        {
            return;
        }
        let mut caps = self.captures.lock().expect("captures");
        let list = if request {
            caps.requests.entry(hop).or_default()
        } else {
            caps.responses.entry(hop).or_default()
        };
        if list.len() < CAPTURE_COUNT {
            list.push(bytes.to_vec());
            self.captured_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
    }

    /// Does the tap still want whole messages of this kind?
    fn wants(&self, hop: Hop, request: bool) -> bool {
        let caps = self.captures.lock().expect("captures");
        let map = if request {
            &caps.requests
        } else {
            &caps.responses
        };
        map.get(&hop).map_or(0, Vec::len) < CAPTURE_COUNT
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store"))
    }

    pub fn take_captures(&self) -> Captures {
        std::mem::take(&mut *self.captures.lock().expect("captures"))
    }
}

struct Opened {
    id: u64,
    parent: u64,
    req: u64,
    name: &'static str,
    path: String,
    start_ns: u64,
    /// Was recording on when the request passed? A set-up exchange whose
    /// response is still being forwarded when recording starts is not part
    /// of the traced pass.
    record: bool,
}

/// One listening tap.
pub struct Tap {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: std::thread::JoinHandle<()>,
}

impl Tap {
    pub fn start(shared: Arc<TapShared>, hop: Hop, upstream: SocketAddr) -> io::Result<Tap> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("tap-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(down) = conn else { continue };
                    let Ok(up) = TcpStream::connect(upstream) else {
                        continue; // dropping `down` closes it, as a dead upstream would
                    };
                    let _ = relay(Arc::clone(&shared), hop, down, up);
                }
            })?;
        Ok(Tap { addr, stop, accept })
    }

    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
    }
}

/// Exchanges whose request has passed and whose response has not.
type Pending = Arc<Mutex<VecDeque<Opened>>>;

/// Start the two pump threads of one tapped connection. They are
/// detached: each ends when its source closes, and closes its sink.
fn relay(shared: Arc<TapShared>, hop: Hop, down: TcpStream, up: TcpStream) -> io::Result<()> {
    down.set_nodelay(true)?;
    up.set_nodelay(true)?;
    let pending: Pending = Arc::new(Mutex::new(VecDeque::new()));
    let (down_r, up_w) = (down.try_clone()?, up.try_clone()?);
    let (shared2, pending2) = (Arc::clone(&shared), Arc::clone(&pending));
    std::thread::Builder::new()
        .name("tap-up".into())
        .spawn(move || {
            let _ = pump_requests(&shared2, hop, down_r, up_w, &pending2);
        })?;
    std::thread::Builder::new()
        .name("tap-down".into())
        .spawn(move || {
            let _ = pump_responses(&shared, hop, up, down, &pending);
        })?;
    Ok(())
}

const PUMP_BUF: usize = 64 * 1024;

fn pump_requests(
    shared: &TapShared,
    hop: Hop,
    mut from: TcpStream,
    mut to: TcpStream,
    pending: &Pending,
) -> io::Result<()> {
    let mut buf = vec![0u8; PUMP_BUF];
    // Bytes of requests not yet framed (a request split across reads).
    let mut partial: Vec<u8> = Vec::with_capacity(PUMP_BUF);
    loop {
        let n = from.read(&mut buf)?;
        if n == 0 {
            let _ = to.shutdown(Shutdown::Write);
            return Ok(());
        }
        partial.extend_from_slice(&buf[..n]);
        let mut off = 0;
        while let Some((used, path)) = frame_request(&partial[off..])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))?
        {
            // Open the span before the bytes move on, so no downstream
            // hop can see the request before this one has named it.
            let opened = shared.open(hop, path);
            pending.lock().expect("pending").push_back(opened);
            shared.capture(hop, true, &partial[off..off + used]);
            off += used;
        }
        partial.drain(..off);
        to.write_all(&buf[..n])?;
    }
}

fn pump_responses(
    shared: &TapShared,
    hop: Hop,
    mut from: TcpStream,
    mut to: TcpStream,
    pending: &Pending,
) -> io::Result<()> {
    let mut buf = vec![0u8; PUMP_BUF];
    let mut framer = ResponseFramer::new();
    let mut first_byte_ns = 0u64;
    // The current message's bytes, kept only while a capture is wanted.
    let mut keep: Option<Vec<u8>> = None;
    loop {
        let n = from.read(&mut buf)?;
        if n == 0 {
            let _ = to.shutdown(Shutdown::Write);
            return Ok(());
        }
        let seen_ns = shared.now_ns();
        to.write_all(&buf[..n])?;
        let mut off = 0;
        while off < n {
            if !framer.mid_message() {
                first_byte_ns = seen_ns;
                keep = shared.wants(hop, false).then(Vec::new);
            }
            let (used, done) = framer
                .advance(&buf[off..n])
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))?;
            if let Some(k) = &mut keep {
                if k.len() + used <= CAPTURE_MAX_BYTES {
                    k.extend_from_slice(&buf[off..off + used]);
                } else {
                    keep = None;
                }
            }
            off += used;
            if let Some(framed) = done {
                if let Some(k) = keep.take() {
                    shared.capture(hop, false, &k);
                }
                // A response with no request before it is a protocol
                // violation the generator's own check will also see.
                if let Some(opened) = pending.lock().expect("pending").pop_front() {
                    shared.close(
                        hop,
                        opened,
                        first_byte_ns,
                        framed.status,
                        framed.class.as_str(),
                        framed.wire_len,
                    );
                }
            }
        }
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its child spans cover (children may overlap each other; covered time
/// is counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    /// A scripted upstream: answers each request line it reads with the
    /// next canned response.
    fn scripted_upstream(responses: Vec<Vec<u8>>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut r = io::BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            for resp in responses {
                let mut line = String::new();
                loop {
                    line.clear();
                    if r.read_line(&mut line).unwrap() == 0 {
                        return;
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                // Dribble the response so the tap sees it split.
                for piece in resp.chunks(7) {
                    w.write_all(piece).unwrap();
                    w.flush().unwrap();
                }
            }
        });
        addr
    }

    #[test]
    fn tap_frames_length_chunked_trailer_and_pipelined_exchanges() {
        let chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: P-volume\r\n\r\n\
                        4\r\nabcd\r\n3\r\nefg\r\n0\r\nP-volume: 7; \"/x\" 1 2\r\n\r\n"
            .to_vec();
        let length = b"HTTP/1.1 200 OK\r\nX-Cache: HIT\r\nContent-Length: 5\r\n\r\nhello".to_vec();
        let bodiless = b"HTTP/1.1 304 Not Modified\r\n\r\n".to_vec();
        let sent = vec![length.clone(), chunked.clone(), bodiless.clone()];
        let upstream = scripted_upstream(sent.clone());
        let shared = Arc::new(TapShared::new(Engine::Threaded));
        shared.set_recording(true);
        let tap = Tap::start(Arc::clone(&shared), Hop::ClientToProxy, upstream).unwrap();

        let op = shared.begin_op(1, "/a");
        let mut c = TcpStream::connect(tap.addr).unwrap();
        // Three requests pipelined in one write.
        c.write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n")
            .unwrap();
        let want = [length, chunked, bodiless].concat();
        let mut got = vec![0u8; want.len()];
        c.read_exact(&mut got).unwrap();
        assert_eq!(got, want, "the tap must forward bytes unchanged");
        drop(c);
        tap.stop();

        let spans = loop {
            let s = shared.take_spans();
            if s.len() == 3 {
                break s;
            }
            shared.spans.lock().unwrap().extend(s);
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        assert_eq!(
            spans.iter().map(|s| s.path.as_str()).collect::<Vec<_>>(),
            ["/a", "/b", "/c"]
        );
        assert_eq!(
            spans.iter().map(|s| s.status).collect::<Vec<_>>(),
            [200, 200, 304]
        );
        assert_eq!(spans[0].class, "HIT");
        for s in &spans {
            assert_eq!((s.name, s.parent, s.req), ("proxyd.proxy", op, 1));
            assert!(s.start_ns <= s.first_byte_ns && s.first_byte_ns <= s.end_ns);
        }
        let caps = shared.take_captures();
        assert_eq!(caps.requests[&Hop::ClientToProxy].len(), 3);
        assert_eq!(
            caps.responses[&Hop::ClientToProxy],
            sent,
            "captures are whole messages"
        );
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let span = |id, parent, a, b| Span {
            id,
            parent,
            req: 1,
            name: "x",
            start_ns: a,
            first_byte_ns: a,
            end_ns: b,
            path: String::new(),
            status: 200,
            class: "-",
            bytes: 0,
        };
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),  // overlaps span 2 for 10
            span(4, 1, 90, 120), // sticks out past the parent
            span(5, 2, 15, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 50 - 10);
        assert_eq!(st[&2], 30 - 5);
        assert_eq!(st[&3], 30);
        assert_eq!(st[&5], 5);
    }
}

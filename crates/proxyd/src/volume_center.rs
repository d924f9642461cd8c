//! The transparent volume center (paper Section 1, bullet 5).
//!
//! A relay on the path between proxy and origin that performs volume
//! maintenance and piggyback generation *on behalf of* a server that knows
//! nothing about the protocol: it observes request/response traffic to
//! learn the resource population (sizes and Last-Modified times), maintains
//! directory-based volumes keyed on what it sees, strips the `Piggy-filter`
//! header before forwarding upstream, and appends the `P-volume` trailer on
//! the way back down.
//!
//! Both ends must not notice it, so it is a *cut-through* relay
//! (PROTOCOL.md §14.1): bodies move downstream segment by segment as they
//! arrive, through buffers that live as long as the connection, and
//! requests are forwarded from the struct they were parsed into.

use crate::client::PooledConn;
use crate::netem::{Conditioner, ExchangePlan, ShimStats};
use crate::origin::strip_origin_form;
use crate::prefetch::{PIGGY_PUSH_HEADER, PUSH_COUNT_HEADER};
use crate::stats::{AtomicDaemonStats, DaemonStats};
use crate::util::{serve, Clock, ServerHandle};
use parking_lot::Mutex;
use piggyback_core::datetime::{parse_rfc1123, timestamp_from_unix, DEFAULT_TRACE_EPOCH_UNIX};
use piggyback_core::filter::{ProxyFilter, PIGGY_FILTER_HEADER};
use piggyback_core::server::{PiggybackServer, ServerStats};
use piggyback_core::types::{SourceId, Timestamp};
use piggyback_core::volume::DirectoryVolumes;
use piggyback_core::wire::{encode_p_volume, P_VOLUME_HEADER};
use piggyback_httpwire::{
    encode_stream_head, parse, BodyReader, BodyWriter, ConnScratch, HeaderMap, HttpError, Request,
    Response, StreamFraming,
};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Volume center configuration.
#[derive(Debug, Clone)]
pub struct VolumeCenterConfig {
    /// 0 picks an ephemeral port.
    pub port: u16,
    /// The (piggyback-oblivious) origin to relay to.
    pub origin: SocketAddr,
    /// Directory-volume prefix depth for the learned volumes.
    pub volume_level: usize,
    /// Adverse-network shim on the relay path (`pb-volume-center
    /// --netem PROFILE`): seeded-deterministic latency/jitter/bandwidth
    /// conditioning and error injection per [`crate::netem`]. `None`
    /// relays at loopback speed.
    pub shim: Option<crate::netem::ShimConfig>,
    /// Pure conditioner mode: forward `Piggy-filter`/`Piggy-push`
    /// verbatim, relay the origin's own piggybacks and pushed responses
    /// downstream (paying the shim's per-response delay on each), and do
    /// no volume learning of its own. `false` is the paper's oblivious-
    /// origin deployment: consume the filter, learn from traffic, strip
    /// `Piggy-push` (a volume-oblivious origin cannot push), and append
    /// locally-generated piggybacks.
    pub transparent: bool,
}

struct CenterState {
    server: PiggybackServer<DirectoryVolumes>,
    clock: Clock,
}

/// A running volume center.
pub struct VolumeCenterHandle {
    handle: ServerHandle,
    state: Arc<Mutex<CenterState>>,
    daemon: Arc<AtomicDaemonStats>,
    shim: Option<Arc<Conditioner>>,
}

impl VolumeCenterHandle {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr
    }

    pub fn stats(&self) -> ServerStats {
        self.state.lock().server.stats()
    }

    /// Lock-free transport counters for the relay itself.
    pub fn daemon_stats(&self) -> DaemonStats {
        self.daemon.snapshot()
    }

    /// Conditioner counters, when an adverse-network shim is configured.
    pub fn shim_stats(&self) -> Option<ShimStats> {
        self.shim.as_ref().map(|c| c.stats())
    }

    /// Number of resources learned from observed traffic.
    pub fn learned_resources(&self) -> usize {
        self.state.lock().server.table().len()
    }

    pub fn stop(self) {
        self.handle.stop();
    }
}

/// Start the volume center relay.
pub fn start_volume_center(cfg: VolumeCenterConfig) -> io::Result<VolumeCenterHandle> {
    let state = Arc::new(Mutex::new(CenterState {
        server: PiggybackServer::new(DirectoryVolumes::new(cfg.volume_level)),
        clock: Clock::new(),
    }));
    let daemon = Arc::new(AtomicDaemonStats::new());
    let shim = cfg
        .shim
        .map(|s| Arc::new(Conditioner::new(s.profile, s.seed)));
    let state2 = Arc::clone(&state);
    let daemon2 = Arc::clone(&daemon);
    let shim2 = shim.clone();
    let origin = cfg.origin;
    let transparent = cfg.transparent;
    let handle = serve(cfg.port, "volume-center", move |stream| {
        let _ = handle_connection(
            stream,
            origin,
            &state2,
            &daemon2,
            shim2.as_deref(),
            transparent,
        );
    })?;
    Ok(VolumeCenterHandle {
        handle,
        state,
        daemon,
        shim,
    })
}

/// Approximate wire size of a request (for upstream bandwidth delay).
fn request_wire_len(req: &Request) -> usize {
    let headers: usize = req.headers.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
    req.method.len() + req.target.len() + 12 + headers + 2 + req.body.len()
}

/// Payload bytes per relay segment, and wire bytes per downstream write.
/// Matches the proxy's streaming segment granularity so the shim spreads
/// serialization delay the way a real link would, instead of
/// store-and-forwarding whole responses.
const PACE_CHUNK: usize = 16 * 1024;

/// The framing `Response::write` picks for `resp` carrying `size` body
/// bytes.
fn framing_of(resp: &Response, size: usize) -> StreamFraming {
    let chunked =
        !resp.trailers.is_empty() || resp.headers.list_contains("Transfer-Encoding", "chunked");
    if chunked && !Response::bodiless_status(resp.status) {
        StreamFraming::Chunked
    } else {
        StreamFraming::Length(size)
    }
}

/// The downstream half of a relay connection: the socket, the one staging
/// buffer and body encoder every response on it goes through, and the
/// shim's pacing state for the response under way.
///
/// Head, framing and payload are staged and leave in writes of exactly
/// [`PACE_CHUNK`] bytes, a response's tail in one shorter write: a
/// response that fits one write leaves in one write, and a larger one
/// never has more than a write's worth waiting here.
struct Downstream<'a> {
    sock: TcpStream,
    stage: Vec<u8>,
    writer: BodyWriter,
    /// The shim and its plan for the exchange under way.
    shim: Option<(&'a Conditioner, ExchangePlan)>,
    /// Wire bytes of this response written so far, and the delay they paid.
    sent: usize,
    paid: Duration,
}

impl Downstream<'_> {
    /// Start a response: stage its head for a body framed as `framing`.
    fn begin(&mut self, resp: &Response, framing: StreamFraming) {
        self.stage.clear();
        self.sent = 0;
        self.paid = Duration::ZERO;
        encode_stream_head(resp, framing, &mut self.stage);
        self.writer.reset(framing);
    }

    /// Encode `payload` behind what is staged, writing as it fills.
    fn body(&mut self, payload: &[u8]) -> io::Result<()> {
        for piece in payload.chunks(PACE_CHUNK) {
            self.writer.push(piece, &mut self.stage)?;
            self.drain(false)?;
        }
        Ok(())
    }

    /// End the body (terminal chunk and `trailers` when chunked) and write
    /// out everything still staged.
    fn finish(&mut self, trailers: &HeaderMap) -> io::Result<()> {
        self.writer.finish(trailers, &mut self.stage)?;
        self.drain(true)
    }

    /// A response that was read whole: the relay loop with the body as its
    /// single segment. Wire bytes equal `resp.write`.
    fn whole(&mut self, resp: &Response) -> io::Result<()> {
        self.begin(resp, framing_of(resp, resp.body.len()));
        self.body(&resp.body)?;
        self.finish(&resp.trailers)
    }

    /// Write staged bytes: every whole [`PACE_CHUNK`], and with `all` the
    /// tail too. Under a shim each write first pays the *increment* of the
    /// response's cumulative delay — the first one the propagation
    /// half-RTT, the jitter share and its own serialization time, each
    /// later one only its serialization share — so time-to-first-byte is
    /// not pushed out to the full-transfer time, and the increments
    /// telescope: `n` wire bytes are delayed by `down_delay(plan, n)` in
    /// total however the body was segmented. Dues are taken in whole
    /// microseconds, the unit of `ShimStats::delay_us`, so the ledger
    /// telescopes as exactly as the sleeps.
    fn drain(&mut self, all: bool) -> io::Result<()> {
        let mut from = 0;
        while from < self.stage.len() {
            let to = (from + PACE_CHUNK).min(self.stage.len());
            if to - from < PACE_CHUNK && !all {
                break;
            }
            self.sent += to - from;
            if let Some((cond, plan)) = &self.shim {
                let due = cond.down_delay(plan, self.sent).as_micros() as u64;
                let due = Duration::from_micros(due);
                cond.apply(due.saturating_sub(self.paid));
                self.paid = due;
            }
            self.sock.write_all(&self.stage[from..to])?;
            from = to;
        }
        self.stage.drain(..from);
        Ok(())
    }

    /// The answer to an upstream that failed before any byte of its
    /// response moved downstream (unpaced: no upstream bytes crossed the
    /// link).
    fn bad_gateway(&mut self, daemon: &AtomicDaemonStats) -> io::Result<()> {
        daemon.count_response(502, 0);
        self.stage.clear();
        Response::new(502).write(&mut self.stage)?;
        self.sock.write_all(&self.stage)
    }
}

fn source_of(stream: &TcpStream) -> SourceId {
    match stream.peer_addr() {
        Ok(addr) => SourceId(addr.port() as u32), // loopback demos: one id per downstream conn
        Err(_) => SourceId(0),
    }
}

/// Put `req` on the upstream connection — `idle` from the previous
/// exchange, or a fresh dial — and read the response head. The upstream
/// may have closed `idle` since (origins reap idle keep-alives), so a
/// failure up to here, with nothing sent downstream yet, is retried once on
/// a fresh connection; a dial failure or a second failure is terminal
/// (PROTOCOL.md §7.1's contract, at this hop). A request with a body is
/// never replayed: the origin may have acted on it already.
fn forward(
    idle: Option<PooledConn>,
    origin: SocketAddr,
    req: &Request,
    scratch: &mut ConnScratch,
) -> Result<(PooledConn, Response), HttpError> {
    let mut conn = match idle {
        Some(conn) => conn,
        None => PooledConn::connect(origin)?,
    };
    let mut retry = req.body.is_empty();
    loop {
        let head = req
            .write_with(&mut conn.writer, scratch)
            .map_err(HttpError::from)
            .and_then(|()| Response::read_head(&mut conn.reader));
        match head {
            Ok(resp) => return Ok((conn, resp)),
            Err(_) if retry => {
                retry = false;
                conn = PooledConn::connect(origin)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Serve one downstream connection. Everything an exchange needs —
/// request, scratch, segment and staging buffers, body decoder and
/// encoder — lives here and is reused, and bodies *cut through*: segments
/// of [`PACE_CHUNK`] payload bytes move downstream as they arrive, in the
/// upstream's own framing, so the relay holds O(segment) memory and the
/// first byte does not wait for the last (PROTOCOL.md §14.1). An `Err`
/// means a transfer died after its head went downstream: the connection
/// is dropped mid-body, the only honest signal left.
fn handle_connection(
    downstream: TcpStream,
    origin: SocketAddr,
    state: &Arc<Mutex<CenterState>>,
    daemon: &AtomicDaemonStats,
    shim: Option<&Conditioner>,
    transparent: bool,
) -> Result<(), HttpError> {
    use std::sync::atomic::Ordering::Relaxed;
    daemon.connections.fetch_add(1, Relaxed);
    let source = source_of(&downstream);
    let mut down_r = BufReader::new(downstream.try_clone()?);
    let mut down = Downstream {
        sock: downstream,
        stage: Vec::new(),
        writer: BodyWriter::length(0),
        shim: None,
        sent: 0,
        paid: Duration::ZERO,
    };
    // Dialed by the first request, then kept beside the downstream
    // connection for as long as every exchange on it ends cleanly.
    let mut up: Option<PooledConn> = None;
    let mut scratch = ConnScratch::new();
    let mut req = Request::empty();
    let mut reader = BodyReader::length(0);
    let mut seg = Vec::new();

    loop {
        if req.read_into(&mut down_r, &mut scratch).is_err() {
            return Ok(());
        }
        daemon.requests.fetch_add(1, Relaxed);
        let keep = req.keep_alive();
        let head = req.method == "HEAD";

        // Adverse-network conditioning: a failed plan kills the exchange
        // mid-flight (downstream connection dropped after the request was
        // read — the proxy's retry-once path must absorb it); a passing
        // plan pays the upstream direction's delay before forwarding.
        down.shim = shim.map(|cond| (cond, cond.next_plan()));
        if let Some((cond, plan)) = &down.shim {
            if plan.fail {
                return Ok(());
            }
            cond.apply(cond.up_delay(plan, request_wire_len(&req)));
        }

        // The oblivious origin understands neither header: the filter is
        // consumed here, and a leaked `Piggy-push` could even solicit
        // pushes the relay would then misparse as pipelined responses. A
        // transparent relay forwards the request as it came.
        let filter = if transparent {
            None
        } else {
            let filter = req
                .headers
                .get(PIGGY_FILTER_HEADER)
                .and_then(|v| ProxyFilter::parse(v).ok());
            req.headers.remove(PIGGY_FILTER_HEADER);
            req.headers.remove(PIGGY_PUSH_HEADER);
            filter
        };
        // Everything up to the first segment: nothing has gone downstream
        // yet, so an upstream that fails in here is still answered with a
        // well-formed 502, on a downstream connection that stays usable.
        let opened = 'open: {
            let Ok((mut conn, mut resp)) = forward(up.take(), origin, &req, &mut scratch) else {
                break 'open None;
            };
            // The relay rule, from the head alone. A body cuts through when
            // everything the downstream head must say is known before it;
            // otherwise it is read whole first: a body delimited by the
            // upstream's close (`framed` is `None`), a chunked one whose
            // size the learning below needs, and anything ahead of a push
            // burst (transparent mode only), whose announced count must
            // stay rewritable until the burst is in hand.
            let bodiless = head || Response::bodiless_status(resp.status);
            let framed = if bodiless {
                Some(StreamFraming::Length(0))
            } else if resp.headers.list_contains("Transfer-Encoding", "chunked") {
                Some(StreamFraming::Chunked)
            } else {
                match parse::content_length(&resp.headers) {
                    Ok(declared) => declared.map(StreamFraming::Length),
                    Err(_) => break 'open None,
                }
            };
            let announced = match resp.headers.get(PUSH_COUNT_HEADER) {
                Some(v) if transparent => v.parse::<usize>().unwrap_or(0),
                _ => 0,
            };
            let cut_through = framed.filter(|&framing| {
                announced == 0 && (transparent || framing != StreamFraming::Chunked)
            });
            let first = match cut_through {
                Some(framing) => {
                    reader.reset(framing);
                    reader
                        .read_segment(&mut conn.reader, &mut seg, PACE_CHUNK)
                        .map(drop)
                }
                None if bodiless => Ok(()),
                None => resp.read_rest(&mut conn.reader, parse::MAX_BODY),
            };
            first
                .is_ok()
                .then_some((conn, resp, framed, cut_through, announced))
        };
        let Some((mut conn, mut resp, framed, cut_through, announced)) = opened else {
            down.bad_gateway(daemon)?;
            if keep {
                continue;
            }
            return Ok(());
        };

        // Drain the announced push burst from upstream before touching the
        // downstream, so a mid-burst upstream failure can be patched over
        // by rewriting the announced count to what actually arrived — the
        // downstream never blocks on promised responses that will not
        // come.
        let mut pushed: Vec<Response> = Vec::new();
        while pushed.len() < announced {
            match Response::read(&mut conn.reader, false) {
                Ok(p) => pushed.push(p),
                Err(_) => break,
            }
        }
        if pushed.len() != announced {
            if pushed.is_empty() {
                resp.headers.remove(PUSH_COUNT_HEADER);
            } else {
                resp.headers
                    .set(PUSH_COUNT_HEADER, &pushed.len().to_string());
            }
        }

        // Body bytes the downstream head declares: the upstream's own
        // declaration when cutting through (a chunked cut-through declares
        // nothing), the buffered length otherwise.
        let body_len = match cut_through {
            Some(StreamFraming::Length(declared)) => declared,
            _ => resp.body.len(),
        };

        // Learn from the observed exchange and generate the piggyback
        // (oblivious-origin mode only: a transparent relay neither learns
        // nor rewrites — the origin's own piggybacks pass through). This
        // runs before the body moves, so a transfer that dies later leaves
        // its resource learned and its access recorded.
        if !transparent && (resp.status == 200 || resp.status == 304) {
            let path = strip_origin_form(&req.target);
            let mut st = state.lock();
            let now = st.clock.now();
            let lm = resp
                .headers
                .get("Last-Modified")
                .and_then(parse_rfc1123)
                .map(|u| timestamp_from_unix(u, DEFAULT_TRACE_EPOCH_UNIX))
                .unwrap_or(Timestamp::ZERO);
            let size = if resp.status == 200 {
                body_len as u64
            } else {
                st.server
                    .table()
                    .lookup(path)
                    .and_then(|r| st.server.table().meta(r))
                    .map_or(0, |m| m.size)
            };
            let resource = st.server.register_path(path, size, lm);
            st.server.record_access(resource, source, now);

            if let Some(filter) = filter {
                if let Some(msg) = st.server.piggyback(resource, &filter, now) {
                    if let Ok(pv) = encode_p_volume(&msg, st.server.table()) {
                        let wants_chunked = req.headers.list_contains("TE", "chunked");
                        if resp.status == 200 && wants_chunked && !head {
                            resp.trailers.insert(P_VOLUME_HEADER, &pv);
                        } else {
                            resp.headers.insert(P_VOLUME_HEADER, &pv);
                        }
                    }
                }
            }
        }

        match cut_through {
            None => {
                daemon.count_response(resp.status, resp.body.len());
                down.whole(&resp)?;
            }
            Some(upstream) => {
                let trailing = upstream == StreamFraming::Chunked;
                if trailing {
                    // The trailers are still on the upstream wire: announce
                    // the names the upstream announced.
                    for name in resp.headers.get("Trailer").unwrap_or("").split(',') {
                        let _ = resp.trailers.try_insert(name.trim(), "");
                    }
                }
                down.begin(&resp, framing_of(&resp, body_len));
                // Past the first write a failure on either side can only
                // truncate: never a well-formed short body, never a 502
                // spliced into one.
                loop {
                    down.body(&seg)?;
                    if reader.is_done() {
                        break;
                    }
                    reader.read_segment(&mut conn.reader, &mut seg, PACE_CHUNK)?;
                }
                daemon.count_response(resp.status, reader.decoded());
                down.finish(if trailing {
                    reader.trailers()
                } else {
                    &resp.trailers
                })?;
            }
        }
        for p in &pushed {
            daemon.pushes_sent.fetch_add(1, Relaxed);
            daemon
                .push_bytes_sent
                .fetch_add(p.body.len() as u64, Relaxed);
            daemon.bytes_sent.fetch_add(p.body.len() as u64, Relaxed);
            down.whole(p)?;
        }

        // Like a pool checkin (PROTOCOL.md §7): only a connection that
        // ended this exchange cleanly — framed, complete, asked to stay
        // open, nothing unread behind the response — serves the next.
        if framed.is_some()
            && pushed.len() == announced
            && resp.keep_alive()
            && conn.reader.buffer().is_empty()
        {
            up = Some(conn);
        }
        if !keep {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::synth_body;
    use std::io::BufWriter;

    /// A deliberately piggyback-oblivious origin: plain HTTP/1.1, no
    /// volumes, no trailers.
    fn start_dumb_origin() -> ServerHandle {
        serve(0, "dumb-origin", |stream| {
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let mut w = BufWriter::new(stream);
            loop {
                let req = match Request::read(&mut r) {
                    Ok(q) => q,
                    Err(_) => return,
                };
                let keep = req.keep_alive();
                let path = strip_origin_form(&req.target).to_owned();
                let mut resp = Response::new(200);
                resp.headers
                    .insert("Last-Modified", "Wed, 28 Jan 1998 00:00:00 GMT");
                resp.body = synth_body(&path, 512).into();
                if resp.write(&mut w).is_err() || !keep {
                    return;
                }
            }
        })
        .unwrap()
    }

    fn get_with_filter(
        addr: SocketAddr,
        path: &str,
    ) -> Result<Response, piggyback_httpwire::HttpError> {
        let stream = TcpStream::connect(addr)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        let mut req = Request::new("GET", path);
        req.headers.insert("Host", "t");
        req.headers.insert("TE", "chunked");
        req.headers.insert(PIGGY_FILTER_HEADER, "maxpiggy=10");
        req.headers.insert("Connection", "close");
        req.write(&mut writer)?;
        Response::read(&mut reader, false)
    }

    #[test]
    fn center_adds_piggybacks_for_oblivious_origin() {
        let origin = start_dumb_origin();
        let center = start_volume_center(VolumeCenterConfig {
            port: 0,
            origin: origin.addr,
            volume_level: 1,
            shim: None,
            transparent: false,
        })
        .unwrap();

        // Same downstream "proxy" (we fake it with one-shot connections;
        // the center keys sources by port, so use a single connection for
        // the pair that must share history).
        let stream = TcpStream::connect(center.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        for path in ["/docs/a.html", "/docs/b.html"] {
            let mut req = Request::new("GET", path);
            req.headers.insert("Host", "t");
            req.headers.insert("TE", "chunked");
            req.headers.insert(PIGGY_FILTER_HEADER, "maxpiggy=10");
            req.write(&mut writer).unwrap();
            let resp = Response::read(&mut reader, false).unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, synth_body(path, 512));
            if path == "/docs/b.html" {
                let pv = resp
                    .trailers
                    .get(P_VOLUME_HEADER)
                    .expect("center must piggyback the volume-mate");
                assert!(pv.contains("/docs/a.html"), "{pv}");
            }
        }
        assert_eq!(center.learned_resources(), 2);
        assert!(center.stats().piggybacks_sent >= 1);

        center.stop();
        origin.stop();
    }

    #[test]
    fn center_transparent_without_filter() {
        let origin = start_dumb_origin();
        let center = start_volume_center(VolumeCenterConfig {
            port: 0,
            origin: origin.addr,
            volume_level: 1,
            shim: None,
            transparent: false,
        })
        .unwrap();
        let stream = TcpStream::connect(center.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut req = Request::new("GET", "/plain.html");
        req.headers.insert("Host", "t");
        req.headers.insert("Connection", "close");
        req.write(&mut writer).unwrap();
        let resp = Response::read(&mut reader, false).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.trailers.is_empty());
        assert!(resp.headers.get(P_VOLUME_HEADER).is_none());
        center.stop();
        origin.stop();
    }

    #[test]
    fn transparent_center_relays_piggybacks_and_pushes() {
        use crate::origin::{start_origin, OriginConfig};
        let origin = start_origin(OriginConfig {
            push_max: 4,
            ..OriginConfig::default()
        })
        .unwrap();
        // Warm the origin's access state so piggybacks (and pushes) name
        // volume mates a cold downstream has not requested yet.
        {
            let stream = TcpStream::connect(origin.addr()).unwrap();
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let mut w = BufWriter::new(stream);
            for p in &origin.paths {
                let mut req = Request::new("GET", p);
                req.headers.insert("Host", "t");
                req.write(&mut w).unwrap();
                assert_eq!(Response::read(&mut r, false).unwrap().status, 200);
            }
        }
        let center = start_volume_center(VolumeCenterConfig {
            port: 0,
            origin: origin.addr(),
            volume_level: 1,
            shim: None,
            transparent: true,
        })
        .unwrap();

        let stream = TcpStream::connect(center.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut saw_piggyback = false;
        let mut pushes = 0usize;
        for p in origin.paths.iter().take(8) {
            let mut req = Request::new("GET", p);
            req.headers.insert("Host", "t");
            req.headers.insert("TE", "chunked");
            req.headers.insert(PIGGY_FILTER_HEADER, "maxpiggy=10");
            req.headers.insert(PIGGY_PUSH_HEADER, "accept");
            req.write(&mut writer).unwrap();
            let resp = Response::read(&mut reader, false).unwrap();
            assert_eq!(resp.status, 200);
            saw_piggyback |= resp.trailers.get(P_VOLUME_HEADER).is_some()
                || resp.headers.get(P_VOLUME_HEADER).is_some();
            let n: usize = resp
                .headers
                .get(PUSH_COUNT_HEADER)
                .map_or(0, |v| v.parse().unwrap());
            for _ in 0..n {
                let pushed = Response::read(&mut reader, false).unwrap();
                assert_eq!(pushed.status, 200);
                assert!(pushed.headers.get("X-Push-Path").is_some());
                pushes += 1;
            }
        }
        assert!(saw_piggyback, "origin piggybacks must pass through");
        assert!(pushes > 0, "announced pushes must be relayed");
        assert_eq!(
            center.learned_resources(),
            0,
            "a transparent relay learns nothing"
        );
        let d = center.daemon_stats();
        assert_eq!(d.pushes_sent, pushes as u64);
        assert!(d.push_bytes_sent > 0);
        center.stop();
        origin.stop();
    }

    #[test]
    fn center_502s_when_origin_dies() {
        let origin = start_dumb_origin();
        let addr = origin.addr;
        origin.stop();
        // Origin is gone; connecting through the center should fail
        // gracefully (connection error or 502, never a hang/panic).
        let center = start_volume_center(VolumeCenterConfig {
            port: 0,
            origin: addr,
            volume_level: 1,
            shim: None,
            transparent: false,
        })
        .unwrap();
        match get_with_filter(center.addr(), "/x") {
            Ok(resp) => assert_eq!(resp.status, 502),
            Err(_) => { /* dropped connection: also graceful */ }
        }
        center.stop();
    }
}

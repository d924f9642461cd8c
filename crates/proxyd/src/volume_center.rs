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
//! Both ends must not notice it, so it is one more driver of the proxy's
//! upstream [`ExchangeMachine`] — retry, deadline and reuse verdict
//! included — through the blocking poller's own exchange loop
//! (PROTOCOL.md §14.1): the downstream gets the upstream's own head,
//! after a hook that learns and piggybacks, and bodies cut through read by
//! read as they arrive — a `Content-Length` payload written from the
//! upstream read buffer, not copied — through buffers that live as long
//! as the connection. Requests are forwarded from the struct they were
//! parsed into. The record tap ([`crate::record_tap`]) is this same loop,
//! transparent and unshimmed, with a recorder.

use crate::client::PooledConn;
use crate::lifecycle::{
    self, AsIs, ExchangeMachine, HeadHook, ResponseMachine, Reuse, UpstreamOutcome,
};
use crate::netem::{Conditioner, ExchangePlan, ShimStats};
use crate::origin::strip_origin_form;
use crate::record_tap::Recorder;
use crate::service::blocking_exchange;
use crate::stats::{AtomicDaemonStats, DaemonStats};
use crate::util::{serve, source_from_addr, Clock, ServerHandle};
use parking_lot::Mutex;
use piggyback_core::filter::{ProxyFilter, PIGGY_FILTER_HEADER};
use piggyback_core::server::{PiggybackServer, ServerStats};
use piggyback_core::types::{SourceId, Timestamp};
use piggyback_core::volume::DirectoryVolumes;
use piggyback_core::wire::{encode_p_volume, P_VOLUME_HEADER};
use piggyback_httpwire::{
    encode_stream_head, write_all_parts, BodyWriter, ConnScratch, Request, Response, StreamFraming,
};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Pure conditioner mode: forward `Piggy-filter` verbatim, relay the
    /// origin's own piggybacks downstream (paying the shim's per-response
    /// delay), and do no volume learning of its own. `false` is the
    /// paper's oblivious-origin deployment: consume the filter, learn from
    /// traffic, and append locally-generated piggybacks.
    pub transparent: bool,
}

/// What the center learns, behind its lock, and the clock that maps each
/// exchange's start stamp to protocol time before [`learn`] takes the lock.
struct Center {
    server: Mutex<PiggybackServer<DirectoryVolumes>>,
    clock: Clock,
}

/// A running volume center.
pub struct VolumeCenterHandle {
    handle: ServerHandle,
    center: Arc<Center>,
    daemon: Arc<AtomicDaemonStats>,
    shim: Option<Arc<Conditioner>>,
}

impl VolumeCenterHandle {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr
    }

    pub fn stats(&self) -> ServerStats {
        self.center.server.lock().stats()
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
        self.center.server.lock().table().len()
    }

    pub fn stop(self) {
        self.handle.stop();
    }
}

/// Start the volume center relay.
pub fn start_volume_center(cfg: VolumeCenterConfig) -> io::Result<VolumeCenterHandle> {
    start_relay(cfg, None)
}

/// Start the relay, recording every exchange into `recorder` if given.
pub(crate) fn start_relay(
    cfg: VolumeCenterConfig,
    recorder: Option<Arc<Recorder>>,
) -> io::Result<VolumeCenterHandle> {
    let server = PiggybackServer::new(DirectoryVolumes::new(cfg.volume_level));
    let center = Arc::new(Center {
        server: Mutex::new(server),
        clock: Clock::new(),
    });
    let daemon = Arc::new(AtomicDaemonStats::new());
    let shim = cfg
        .shim
        .map(|s| Arc::new(Conditioner::new(s.profile, s.seed)));
    let center2 = Arc::clone(&center);
    let daemon2 = Arc::clone(&daemon);
    let shim2 = shim.clone();
    let origin = cfg.origin;
    let transparent = cfg.transparent;
    let handle = serve(cfg.port, "volume-center", move |stream| {
        let _ = handle_connection(
            stream,
            origin,
            &center2,
            &daemon2,
            shim2.as_deref(),
            transparent,
            recorder.as_deref(),
        );
    })?;
    Ok(VolumeCenterHandle {
        handle,
        center,
        daemon,
        shim,
    })
}

/// Approximate wire size of a request (for upstream bandwidth delay).
fn request_wire_len(req: &Request) -> usize {
    let headers: usize = req.headers.iter().map(|(n, v)| n.len() + v.len() + 4).sum();
    req.method.len() + req.target.len() + 12 + headers + 2 + req.body.len()
}

/// Wire bytes per paced downstream write, so the shim spreads
/// serialization delay the way a real link would instead of
/// store-and-forwarding whole responses — and, unpaced, the least a write
/// carries before a response's tail.
const PACE_CHUNK: usize = 16 * 1024;

/// The downstream half of a relay connection: the socket, the body
/// encoder of responses written whole, and the shim's pacing state for
/// the response under way — a sink for the connection's one staging
/// buffer, which is also the response machine's sink.
///
/// Nothing leaves before a [`PACE_CHUNK`] is waiting or the response's
/// tail is: a response that fits one write leaves in one write, after
/// everything upstream went well. Unpaced, what is waiting then leaves in
/// one write — the staged bytes, then the payload the response machine
/// forwarded in place, not copied. Under a shim everything is staged and
/// leaves in writes of exactly [`PACE_CHUNK`] bytes, a response's tail in
/// one shorter write, so a response never has more than a write's worth
/// waiting.
struct Downstream<'a> {
    sock: TcpStream,
    writer: BodyWriter,
    /// The shim and its plan for the exchange under way.
    shim: Option<(&'a Conditioner, ExchangePlan)>,
    /// Wire bytes of this response written so far, and the delay they paid.
    sent: usize,
    paid: Duration,
}

impl Downstream<'_> {
    /// Start a response: nothing of it written, no delay paid.
    fn begin(&mut self) {
        self.sent = 0;
        self.paid = Duration::ZERO;
    }

    /// A response read whole, written as `Response::write` frames it and
    /// paced like a relayed one: its body is staged a segment at a time.
    fn whole(&mut self, resp: &Response, stage: &mut Vec<u8>) -> io::Result<()> {
        self.begin();
        let length = (!resp.is_chunked()).then_some(resp.body.len());
        let framing = length.map_or(StreamFraming::Chunked, StreamFraming::Length);
        stage.clear();
        encode_stream_head(resp, framing, stage);
        self.writer.reset(framing);
        for piece in resp.body.chunks(PACE_CHUNK) {
            self.writer.push(piece, stage)?;
            self.send(stage, &[], false)?;
        }
        self.writer.finish(&resp.trailers, stage)?;
        self.send(stage, &[], true)
    }

    /// Send the staged bytes, then `span` — payload the response machine
    /// forwarded in place — with `all` the response's tail too. Under a
    /// shim each write first pays the *increment* of the response's
    /// cumulative delay — the first one the propagation half-RTT, the
    /// jitter share and its own serialization time, each later one only
    /// its serialization share — so time-to-first-byte is not pushed out
    /// to the full-transfer time, and the increments telescope: `n` wire
    /// bytes are delayed by `down_delay(plan, n)` in total however the
    /// body was segmented. Dues are taken in whole microseconds, the unit
    /// of `ShimStats::delay_us`, so the ledger telescopes as exactly as
    /// the sleeps.
    fn send(&mut self, stage: &mut Vec<u8>, span: &[u8], all: bool) -> io::Result<()> {
        let Some((cond, plan)) = self.shim else {
            if all || stage.len() + span.len() >= PACE_CHUNK {
                self.sent += stage.len() + span.len();
                write_all_parts(&mut self.sock, &[stage, span])?;
                stage.clear();
            } else {
                stage.extend_from_slice(span);
            }
            return Ok(());
        };
        stage.extend_from_slice(span);
        let mut from = 0;
        while from < stage.len() {
            let to = (from + PACE_CHUNK).min(stage.len());
            if to - from < PACE_CHUNK && !all {
                break;
            }
            self.sent += to - from;
            let due = cond.down_delay(&plan, self.sent).as_micros() as u64;
            let due = Duration::from_micros(due);
            cond.apply(due.saturating_sub(self.paid));
            self.paid = due;
            self.sock.write_all(&stage[from..to])?;
            from = to;
        }
        stage.drain(..from);
        Ok(())
    }

    /// The answer to an upstream that failed before any byte of its
    /// response moved downstream (unpaced: no upstream bytes crossed the
    /// link).
    fn bad_gateway(&mut self, daemon: &AtomicDaemonStats, stage: &mut Vec<u8>) -> io::Result<()> {
        daemon.count_response(502, 0);
        stage.clear();
        Response::new(502).write(stage)?;
        self.sock.write_all(stage)
    }
}

/// The oblivious-origin mode's head hook: learn the resource from the
/// observed response (its size is `size`, the declared or buffered body
/// length) at the exchange's `start`, and put its piggyback in a trailer
/// when the request offered `TE: chunked` on a `GET` `200`, in a header
/// otherwise. It runs before any byte of the response moves downstream, so
/// a transfer that dies later leaves its resource learned and its access
/// recorded. It reads no clock, and converts the stamp before it locks.
fn learn(
    center: &Center,
    start: Instant,
    req: &Request,
    source: SourceId,
    filter: Option<&ProxyFilter>,
    resp: &mut Response,
    size: usize,
) {
    if resp.status != 200 && resp.status != 304 {
        return;
    }
    let path = strip_origin_form(&req.target);
    let now = center.clock.at(start);
    let mut server = center.server.lock();
    // A 304 carries no body and may omit `Last-Modified`: it keeps the
    // size and the date the center last observed.
    let (size, lm) = if resp.status == 200 {
        (size as u64, lifecycle::last_modified(resp, Timestamp::ZERO))
    } else {
        let seen = server
            .table()
            .lookup(path)
            .and_then(|r| server.table().meta(r));
        let (size, seen_lm) = seen.map_or((0, Timestamp::ZERO), |m| (m.size, m.last_modified));
        (size, lifecycle::last_modified(resp, seen_lm))
    };
    let resource = server.register_path(path, size, lm);
    server.record_access(resource, source, now);
    let Some(msg) = filter.and_then(|f| server.piggyback(resource, f, now)) else {
        return;
    };
    let Ok(pv) = encode_p_volume(&msg, server.table()) else {
        return;
    };
    if resp.status == 200 && req.method != "HEAD" && req.headers.list_contains("TE", "chunked") {
        resp.trailers.insert(P_VOLUME_HEADER, &pv);
    } else {
        resp.headers.insert(P_VOLUME_HEADER, &pv);
    }
}

/// Serve one downstream connection: read a request, forward it on the
/// upstream connection kept from the previous exchange (or a fresh dial),
/// and relay the response through the response machine, which writes the
/// upstream's own head — after [`learn`] in oblivious mode — and cuts the
/// body through in the upstream's own framing, so the relay holds
/// O(read) memory and the first byte does not wait for the last
/// (PROTOCOL.md §14.1). Everything an exchange needs — request, its
/// serialized bytes, scratch, staging buffer, body encoder — lives here
/// and is reused. With a `recorder` every response is read whole and
/// recorded before its tail goes out.
fn handle_connection(
    downstream: TcpStream,
    origin: SocketAddr,
    center: &Center,
    daemon: &AtomicDaemonStats,
    shim: Option<&Conditioner>,
    transparent: bool,
    recorder: Option<&Recorder>,
) -> io::Result<()> {
    use std::sync::atomic::Ordering::Relaxed;
    daemon.connections.fetch_add(1, Relaxed);
    let source = downstream.peer_addr().map_or(SourceId(0), source_from_addr);
    let mut down_r = BufReader::new(downstream.try_clone()?);
    let mut down = Downstream {
        sock: downstream,
        writer: BodyWriter::length(0),
        shim: None,
        sent: 0,
        paid: Duration::ZERO,
    };
    // Dialed by the first request, then kept beside the downstream
    // connection for as long as every exchange on it leaves it reusable.
    let mut up: Option<PooledConn> = None;
    let mut scratch = ConnScratch::new();
    let mut req = Request::empty();
    let mut request = Vec::new();

    loop {
        if req.read_into(&mut down_r, &mut scratch).is_err() {
            return Ok(());
        }
        daemon.requests.fetch_add(1, Relaxed);
        let keep = req.keep_alive();

        // Adverse-network conditioning: a failed plan kills the exchange
        // mid-flight (downstream connection dropped after the request was
        // read — the proxy's retry-once path must absorb it); a passing
        // plan pays the upstream direction's delay before forwarding.
        down.shim = shim.map(|cond| (cond, cond.next_plan()));
        down.begin();
        if let Some((cond, plan)) = &down.shim {
            if plan.fail {
                return Ok(());
            }
            cond.apply(cond.up_delay(plan, request_wire_len(&req)));
        }

        // The oblivious origin does not understand the filter: it is
        // consumed here. A transparent relay forwards the request as it
        // came.
        let filter = if transparent {
            None
        } else {
            let filter = req
                .headers
                .get(PIGGY_FILTER_HEADER)
                .and_then(|v| ProxyFilter::parse(v).ok());
            req.headers.remove(PIGGY_FILTER_HEADER);
            filter
        };
        // The exchange's start: the time the hook learns at, and a
        // recording's first stamp.
        let (start, mut first) = (Instant::now(), None);
        let hook = |resp: &mut Response, size: usize| {
            learn(center, start, &req, source, filter.as_ref(), resp, size)
        };
        let as_is = AsIs {
            head_request: req.method == "HEAD",
            whole: recorder.is_some(),
            hook: (!transparent).then_some(&hook as HeadHook),
        };
        request.clear();
        req.write_with(&mut request, &mut scratch)?;
        // `write_with` staged the head in what is the machine's sink next.
        scratch.out.clear();
        let machine = ResponseMachine::as_is(as_is);
        // The last read's span, left in the upstream connection's buffer.
        let mut tail = 0..0;
        let (outcome, kept) = blocking_exchange(
            ExchangeMachine::new(&request[..], req.body.is_empty(), machine, start),
            |_| up.take().map_or_else(|| PooledConn::connect(origin), Ok),
            &mut scratch.out,
            |stage, span, machine| {
                if recorder.is_some() && first.is_none() {
                    first = Some(Instant::now());
                }
                if !machine.is_done() {
                    return down.send(stage, span, false);
                }
                tail = machine.span();
                Ok(())
            },
        );
        let stage = &mut scratch.out;
        match outcome {
            // Counted before its tail is written, like a response written
            // whole: a client holding the last byte sees the count.
            UpstreamOutcome::Streamed { head, total, .. } => {
                daemon.count_response(head.status, total);
                let last = kept.as_ref().map_or(&[][..], |(conn, _)| &conn.buf[tail]);
                down.send(stage, last, true)?;
            }
            UpstreamOutcome::Response(resp) => {
                if let Some(recorder) = recorder {
                    let done = Instant::now();
                    recorder.record(&req, &resp, start, first.unwrap_or(done), done);
                }
                daemon.count_response(resp.status, resp.body.len());
                down.whole(&resp, stage)?;
            }
            // Past the first write a failure on either side can only
            // truncate: never a well-formed short body, never a 502
            // spliced into one. The connection is dropped mid-body, the
            // only honest signal left.
            UpstreamOutcome::StreamFailed { .. } if down.sent > 0 => return Ok(()),
            // Nothing went downstream: a well-formed 502, on a downstream
            // connection that stays usable.
            _ => down.bad_gateway(daemon, stage)?,
        }
        // Like a pool checkin (PROTOCOL.md §7.1): a connection the machine
        // may reuse serves the next exchange.
        up = kept.and_then(|(conn, reuse)| (reuse == Reuse::Keep).then_some(conn));
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

        // Same downstream "proxy": one connection carries the pair that
        // must share history.
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
    fn transparent_center_relays_piggybacks() {
        use crate::origin::{start_origin, OriginConfig};
        let origin = start_origin(OriginConfig::default()).unwrap();
        // Warm the origin's access state so piggybacks name
        // volume mates a cold downstream has not requested yet.
        {
            let stream = TcpStream::connect(origin.addr()).unwrap();
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let mut w = BufWriter::new(stream);
            for p in &origin.paths() {
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
        for p in origin.paths().iter().take(8) {
            let mut req = Request::new("GET", p);
            req.headers.insert("Host", "t");
            req.headers.insert("TE", "chunked");
            req.headers.insert(PIGGY_FILTER_HEADER, "maxpiggy=10");
            req.write(&mut writer).unwrap();
            let resp = Response::read(&mut reader, false).unwrap();
            assert_eq!(resp.status, 200);
            saw_piggyback |= resp.trailers.get(P_VOLUME_HEADER).is_some()
                || resp.headers.get(P_VOLUME_HEADER).is_some();
        }
        assert!(saw_piggyback, "origin piggybacks must pass through");
        assert_eq!(
            center.learned_resources(),
            0,
            "a transparent relay learns nothing"
        );
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

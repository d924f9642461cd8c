//! One request path per daemon, polled two ways.
//!
//! A daemon is a [`Service`]: parse-complete requests in, serialized
//! response bytes out. An answer that needs an origin exchange is a
//! [`Served::Upstream`] plan, one that waits on work another thread
//! finishes a [`Served::Park`] registration. Two pollers drive the same
//! service (PROTOCOL.md §12): the epoll reactor ([`crate::reactor`],
//! Linux) and the blocking poller here, which runs each connection on a
//! worker of [`serve_with_stats`]'s pool and every plan through
//! [`blocking_exchange`] on a [`ConnectionPool`]. Both move a client
//! connection's bytes through one socket-free [`ClientMachine`], as they
//! move an origin's through one [`ExchangeMachine`] — the retry contract,
//! the attempt deadline and the reuse verdict included; a poller only
//! moves bytes. Here a relayed read leaves in one vectored write: what it
//! staged, then the payload span the machine forwarded in place. So the
//! proxy and the origin are each written once, whichever engine serves
//! them.

use crate::client::{ConnectionPool, PooledConn};
use crate::lifecycle::{self, ExchangeMachine, RelayRule, ResponseMachine, Reuse, UpstreamOutcome};
use crate::util::{serve_with_stats, IoStats, ServeOptions, ServerHandle};
use piggyback_httpwire::parse::MAX_BODY;
use piggyback_httpwire::{write_all_parts, ConnScratch, HttpError, Request, Response};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// What a handled request needs next, returned by [`Service::handle`].
pub enum Served {
    /// The response is fully serialized into `out` (cache hits, metrics,
    /// synthesized errors).
    Inline,
    /// The request needs an origin exchange: the poller drives it and
    /// calls the plan's continuation with the outcome.
    Upstream(UpstreamPlan),
    /// The request waits on work another thread finishes (a demand miss
    /// joined to an in-flight speculation): the poller hands the closure
    /// the connection's [`Waker`] and waits.
    Park(ParkFn),
}

/// Registers a parked connection's [`Waker`] with whatever will finish
/// its work; called by the poller right after the park.
pub type ParkFn = Box<dyn FnOnce(Waker) + Send>;
/// What a woken connection runs on its poller: it serializes into the
/// connection's buffer like [`Service::handle`] and says what comes next
/// the same way.
pub type ResumeFn = Box<dyn FnOnce(&mut ConnScratch, &mut Vec<u8>) -> io::Result<Served> + Send>;

/// Wakes one parked connection: [`wake`](Self::wake) hands the
/// continuation to the poller's callback, and a waker dropped unfired
/// hands it `None` — close the connection, nothing would ever answer it.
pub struct Waker(Option<Box<dyn FnOnce(Option<ResumeFn>) + Send>>);

impl Waker {
    /// A waker delivering to `deliver`, which the poller supplies.
    pub(crate) fn new(deliver: impl FnOnce(Option<ResumeFn>) + Send + 'static) -> Waker {
        Waker(Some(Box::new(deliver)))
    }

    /// Resume the connection with `then`, run on its poller.
    pub fn wake(mut self, then: ResumeFn) {
        let deliver = self.0.take().expect("a waker fires once");
        deliver(Some(then));
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        if let Some(deliver) = self.0.take() {
            deliver(None);
        }
    }
}

/// One origin exchange: pre-serialized request bytes out, the response
/// machine's [`UpstreamOutcome`] into the continuation.
pub struct UpstreamPlan {
    /// Origin to dial (or reuse a kept-alive connection to).
    pub origin: SocketAddr,
    /// The full serialized request, so the origin sees identical bytes
    /// from either poller.
    pub request: Vec<u8>,
    /// Continuation run on the poller with the outcome. It must serialize
    /// the client-facing response into `out` (append-only); an `Err`
    /// drops the client connection after what is staged.
    pub finish: FinishFn,
    /// Side-effect hook invoked exactly once if the exchange is retried
    /// on a fresh connection.
    pub retry: RetryFn,
    /// Opt-in large-object cut-through: the rule the exchange's
    /// [`ResponseMachine`] decides under. `None` buffers every response.
    pub relay: Option<RelayRule>,
    /// The request sent `Piggy-push: accept`: the machine reads the
    /// pushed responses the main one announces.
    pub accept_push: bool,
}

pub type FinishFn =
    Box<dyn FnOnce(&mut ConnScratch, &mut Vec<u8>, UpstreamOutcome) -> io::Result<()> + Send>;
pub type RetryFn = Box<dyn Fn() + Send>;

/// A protocol engine: parse-complete requests in, serialized response
/// bytes out. Implemented by the proxy and the origin, polled by the
/// reactor and by [`serve_blocking`].
pub trait Service: Send + Sync + 'static {
    /// Poller-affine service state, passed mutably to every
    /// [`handle`](Self::handle) call — a lock-free home for the proxy's
    /// L1. A reactor shard owns one; the blocking poller builds one per
    /// connection. Use `()` when the service keeps none.
    type Ctx: Send + 'static;

    /// Build a fresh context.
    fn make_ctx(&self) -> Self::Ctx;

    /// Called once per accepted connection.
    fn on_connect(&self, _peer: SocketAddr) {}

    /// Largest request body accepted: a larger one is answered `413`, and
    /// the connection closes.
    fn body_cap(&self) -> usize {
        MAX_BODY
    }

    /// Handle one parsed request of the batch that arrived at `now` (the
    /// poller's one clock stamp for it). Serialize the response into `out`
    /// (append-only; earlier pipelined responses may precede it) and
    /// return [`Served::Inline`]; return [`Served::Upstream`] to have the
    /// poller drive an origin exchange; or return [`Served::Park`] to wait
    /// for another thread's wake-up. Errors close the connection.
    fn handle(
        &self,
        req: &Request,
        peer: SocketAddr,
        now: Instant,
        ctx: &mut Self::Ctx,
        scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<Served>;

    /// The batch is handled and its responses are about to be written:
    /// fold what it tallied in `ctx` into shared state. Called at the end
    /// of every [`ClientMachine::advance`], so both pollers reach it
    /// before they write.
    fn end_batch(&self, _ctx: &mut Self::Ctx) {}
}

/// Bytes the request buffer grows by when a read finds it full.
const READ_CHUNK: usize = 16 * 1024;
/// Hard cap on a client connection's buffered request bytes (the wire
/// crate's body limit plus framing headroom).
const MAX_REQUEST_BUF: usize = MAX_BODY + 64 * 1024;
/// Stop parsing further pipelined requests while more than this many
/// response bytes are waiting on a slow client; resume when drained.
const OUT_HIGH_WATER: usize = 1024 * 1024;

/// Where a [`ClientMachine`] sits in its request lifecycle.
enum ClientState {
    /// Reading and answering requests.
    Ready,
    /// An answer is pending on an upstream plan or a park; `keep` is the
    /// request's keep-alive, applied when it settles.
    Parked { keep: bool },
    /// Nothing more is read: drain what is staged, then close.
    Closing,
}

/// The client half of one connection, written once for both pollers and
/// socket-free: the poller reads bytes into [`input`](Self::input),
/// [`advance`](Self::advance)s the machine, and writes what
/// [`output`](Self::output) stages. The machine parses pipelined requests
/// as they complete, has [`Service::handle`] answer them, applies output
/// backpressure, answers an oversized body `413`, and keeps the idle and
/// read deadlines against a clock the poller passes in (PROTOCOL.md
/// §12.4).
pub struct ClientMachine {
    /// Request bytes: `buf[pos..end]` are read and not yet parsed,
    /// `buf[end..]` is room for the next read. Zeroed only as it grows.
    buf: Vec<u8>,
    pos: usize,
    end: usize,
    req: Request,
    scratch: ConnScratch,
    /// Staged response bytes; `out[sent..]` still owe the client.
    out: Vec<u8>,
    sent: usize,
    state: ClientState,
    /// When [`advance`](Self::advance) last ran (the accept, before it
    /// first does).
    last_active: Instant,
    /// When the buffered incomplete request was first seen.
    req_start: Option<Instant>,
    /// The client closed its side.
    eof: bool,
    /// The last advance stopped because the buffered bytes hold no whole
    /// request, not on backpressure or a park.
    starved: bool,
}

impl ClientMachine {
    /// A machine for a connection accepted at `now`.
    pub fn new(now: Instant) -> ClientMachine {
        ClientMachine {
            buf: Vec::new(),
            pos: 0,
            end: 0,
            req: Request::empty(),
            scratch: ConnScratch::new(),
            out: Vec::new(),
            sent: 0,
            state: ClientState::Ready,
            last_active: now,
            req_start: None,
            eof: false,
            starved: true,
        }
    }

    /// Room for the next read, grown when full. Empty once the buffer
    /// holds the cap's worth of unparsed bytes: a read into it returns 0,
    /// which [`filled`](Self::filled) takes as the client's EOF.
    pub fn input(&mut self) -> &mut [u8] {
        if self.end == self.buf.len() && self.buf.len() < MAX_REQUEST_BUF {
            let grown = (self.buf.len() + READ_CHUNK).min(MAX_REQUEST_BUF);
            self.buf.resize(grown, 0);
        }
        &mut self.buf[self.end..]
    }

    /// `n` bytes were read into [`input`](Self::input); 0 is EOF.
    pub fn filled(&mut self, n: usize) {
        self.end += n;
        self.eof |= n == 0;
    }

    /// Parse and handle the buffered pipelined requests while the
    /// connection is ready and its output under the high-water mark:
    /// every inline answer is staged, and so is the `413` for a body over
    /// the service's cap before the connection closes. Returns the first
    /// [`Served::Upstream`] or [`Served::Park`] with the connection parked
    /// until [`unpark`](Self::unpark) or [`resume`](Self::resume).
    pub fn advance<S: Service>(
        &mut self,
        svc: &S,
        ctx: &mut S::Ctx,
        peer: SocketAddr,
        now: Instant,
    ) -> Option<Served> {
        self.last_active = now;
        let mut parked = None;
        self.starved = false;
        while matches!(self.state, ClientState::Ready) && !self.starved && !self.backlogged() {
            match self.read_request(svc.body_cap()) {
                // The bytes ran out: for a live connection, wait for more.
                Err(HttpError::ConnectionClosed) => {
                    self.starved = true;
                    if self.eof {
                        self.state = ClientState::Closing;
                    }
                }
                // Garbage gets no answer, an oversized body its 413.
                Err(_) => self.state = ClientState::Closing,
                Ok(keep) => {
                    self.req_start = None;
                    let (scratch, out) = (&mut self.scratch, &mut self.out);
                    let served = svc.handle(&self.req, peer, now, ctx, scratch, out);
                    self.state = match served {
                        Ok(Served::Inline) if keep => ClientState::Ready,
                        Ok(Served::Inline) | Err(_) => ClientState::Closing,
                        Ok(served) => {
                            parked = Some(served);
                            ClientState::Parked { keep }
                        }
                    };
                }
            }
        }
        svc.end_batch(ctx);
        if matches!(self.state, ClientState::Closing) {
            self.pos = self.end;
        }
        // Compact the parsed prefix so the buffer never grows across
        // requests.
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.starved && self.end > 0 {
            self.req_start.get_or_insert(now);
        } else {
            self.req_start = None;
        }
        parked
    }

    /// Parse the next buffered request under `cap`, and say whether it
    /// keeps the connection alive. A body over the cap is the client's
    /// mistake, not a dead connection: its `413` is staged before the
    /// error returns.
    fn read_request(&mut self, cap: usize) -> Result<bool, HttpError> {
        let mut rest = &self.buf[self.pos..self.end];
        let read = self.req.read_into_capped(&mut rest, &mut self.scratch, cap);
        match &read {
            Ok(_) => self.pos = self.end - rest.len(),
            Err(e) if e.body_too_large() => Response::new(413)
                .write_with(&mut self.out, &mut self.scratch)
                .expect("writing to a Vec cannot fail"),
            Err(_) => {}
        }
        read.map(|framing| framing.keep_alive(self.req.version))
    }

    /// Run a parked connection's continuation, woken by its [`Waker`].
    /// An inline answer unparks it, a failure closes it, and another plan
    /// or park is returned with the connection still parked.
    pub fn resume(&mut self, then: ResumeFn) -> Option<Served> {
        match then(&mut self.scratch, &mut self.out) {
            Ok(Served::Inline) => self.unpark(true),
            Ok(served) => return Some(served),
            Err(_) => self.unpark(false),
        }
        None
    }

    /// The parked answer is staged (`ok`), or it can only be truncated:
    /// back to reading requests if the request kept the connection alive,
    /// to closing once drained otherwise.
    pub fn unpark(&mut self, ok: bool) {
        self.state = match self.state {
            ClientState::Parked { keep: true } if ok => ClientState::Ready,
            _ => ClientState::Closing,
        };
    }

    /// Where a plan's continuation or a relay stages its bytes: the
    /// connection's scratch and its output, append-only.
    pub fn stage(&mut self) -> (&mut ConnScratch, &mut Vec<u8>) {
        (&mut self.scratch, &mut self.out)
    }

    /// Staged bytes the client is still owed.
    pub fn output(&self) -> &[u8] {
        &self.out[self.sent..]
    }

    /// `n` bytes of [`output`](Self::output) were written. The written
    /// prefix is dropped once it is at least as long as what is still
    /// owed, so a relay the client drains holds at most twice what it
    /// owes (an amortised drain: the capacity stays).
    pub fn wrote(&mut self, n: usize) {
        self.sent += n;
        if self.sent >= self.out.len() - self.sent {
            self.out.drain(..self.sent);
            self.sent = 0;
        }
    }

    /// Is the output at the high-water mark? A relay feeding the client
    /// pauses its origin reads until it is not.
    pub(crate) fn backlogged(&self) -> bool {
        self.output().len() >= OUT_HIGH_WATER
    }

    /// May [`advance`](Self::advance) serve more without new input? Yes
    /// when it last stopped on backpressure a write has since relieved,
    /// or on a park that settled — buffered requests wait, and no read
    /// will report them.
    pub fn can_advance(&self) -> bool {
        matches!(self.state, ClientState::Ready) && !self.starved && !self.backlogged()
    }

    /// Closing with nothing left to write: the poller closes the socket.
    pub fn done(&self) -> bool {
        matches!(self.state, ClientState::Closing) && self.output().is_empty()
    }

    /// When the connection times out under `idle`: `idle` after its last
    /// activity, or after the first byte of a request still incomplete
    /// (the read deadline) — a trickling client does not extend it.
    pub fn deadline(&self, idle: Duration) -> Instant {
        self.req_start.unwrap_or(self.last_active) + idle
    }

    /// Has the [`deadline`](Self::deadline) passed at `now`?
    pub fn expired(&self, now: Instant, idle: Duration) -> bool {
        now >= self.deadline(idle)
    }
}

/// Serve `svc` on `127.0.0.1:port` from a blocking worker pool (threads
/// `{name}-worker-*`), one connection per worker at a time. A client
/// silent for `idle_timeout`, or still sending one request that long, is
/// closed. Upstream plans run on `pool`; a service that never plans one
/// (the origin) passes `None`.
pub fn serve_blocking<S: Service>(
    port: u16,
    name: &'static str,
    opts: ServeOptions,
    io_stats: Arc<IoStats>,
    idle_timeout: Duration,
    pool: Option<Arc<ConnectionPool>>,
    svc: Arc<S>,
) -> io::Result<ServerHandle> {
    serve_with_stats(port, name, opts, io_stats, move |stream| {
        let _ = poll(&*svc, pool.as_deref(), idle_timeout, stream);
    })
}

/// One connection, start to close, on the [`ClientMachine`]: advance it,
/// follow what it [`Served`], write what is staged — a pipelined window's
/// answers in one write — and block for more bytes, until it is done or
/// the client misses a deadline.
fn poll<S: Service>(
    svc: &S,
    pool: Option<&ConnectionPool>,
    idle_timeout: Duration,
    mut stream: TcpStream,
) -> io::Result<()> {
    let peer = stream.peer_addr()?;
    svc.on_connect(peer);
    let idle = Some(idle_timeout).filter(|t| !t.is_zero());
    stream.set_read_timeout(idle)?;
    let mut ctx = svc.make_ctx();
    let mut machine = ClientMachine::new(Instant::now());
    loop {
        if let Some(served) = machine.advance(svc, &mut ctx, peer, Instant::now()) {
            follow(served, &mut machine, pool, &mut stream);
        }
        // Whatever is staged goes out, even ahead of a close: a 413, or
        // the head and strict prefix of a relay that failed.
        write_staged(&mut stream, &mut machine)?;
        if machine.done() || idle.is_some_and(|t| machine.expired(Instant::now(), t)) {
            return Ok(());
        }
        if !machine.can_advance() {
            match stream.read(machine.input()) {
                Ok(n) => machine.filled(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Follow `served` until the machine is unparked: a plan runs on this
/// thread, and a park blocks until the waker fires.
fn follow(
    mut served: Served,
    machine: &mut ClientMachine,
    pool: Option<&ConnectionPool>,
    w: &mut TcpStream,
) {
    loop {
        served = match served {
            Served::Inline => return machine.unpark(true),
            Served::Upstream(plan) => {
                // A prefix hit's head leaves before the origin is dialed.
                // The plan runs even when that write fails: the request
                // was counted, so its outcome must be settled.
                let sent = write_staged(w, machine);
                let ran = pool
                    .ok_or(io::ErrorKind::Unsupported.into())
                    .and_then(|pool| {
                        let (scratch, out) = machine.stage();
                        run_plan(plan, pool, scratch, out, |seg, span| {
                            write_all_parts(w, &[seg, span]).map(|()| seg.clear())
                        })
                    });
                return machine.unpark(sent.is_ok() && ran.is_ok());
            }
            Served::Park(register) => {
                let (tx, rx) = mpsc::channel();
                register(Waker::new(move |then| {
                    let _ = tx.send(then);
                }));
                let Ok(Some(then)) = rx.recv() else {
                    return machine.unpark(false);
                };
                match machine.resume(then) {
                    Some(next) => next,
                    None => return,
                }
            }
        }
    }
}

/// Write what is staged. Bytes a failed write leaves are dropped with the
/// connection: nothing will deliver them, and a plan run after the
/// failure must not find them in its sink.
fn write_staged(w: &mut TcpStream, machine: &mut ClientMachine) -> io::Result<()> {
    let n = machine.output().len();
    let written = w.write_all(machine.output());
    machine.wrote(n);
    written
}

/// Run `plan`'s one exchange on the calling thread: [`blocking_exchange`]
/// over `pool`, with `out` as the machine's sink, handing `flush` what
/// each read staged and its span of payload forwarded in place, to go out
/// in that order; then the continuation, with the outcome. A relay holds
/// one read's worth, never the body.
pub(crate) fn run_plan(
    plan: UpstreamPlan,
    pool: &ConnectionPool,
    scratch: &mut ConnScratch,
    out: &mut Vec<u8>,
    mut flush: impl FnMut(&mut Vec<u8>, &[u8]) -> io::Result<()>,
) -> io::Result<()> {
    let UpstreamPlan {
        request,
        finish,
        retry,
        relay,
        accept_push,
        ..
    } = plan;
    let machine = ResponseMachine::new(relay, accept_push);
    let (outcome, kept) = blocking_exchange(
        ExchangeMachine::new(request, true, machine, Instant::now()),
        |again| {
            if !again {
                return pool.checkout();
            }
            retry();
            pool.connect_fresh()
        },
        out,
        |seg, span, _| flush(seg, span),
    );
    if let Some((conn, reuse)) = kept {
        pool.checkin(conn, reuse);
    }
    finish(scratch, out, outcome)
}

/// Drive `machine` to its outcome on blocking connections, for every
/// blocking hop — the blocking poller's plans and the volume center: dial
/// (`dial(true)` for the retry), write, read into the connection's buffer
/// (grown by [`lifecycle::grow_upstream_read`]) and hand each read to the
/// machine, then `flush` what the read appended to `sink` and its
/// [span](ExchangeMachine::span), the payload forwarded in place, to go
/// out in that order (the machine says whether it was the last read) —
/// until the machine is done or an attempt fails, and then the machine
/// says whether to go again (PROTOCOL.md §7.1). A failed dial is terminal.
/// A connection's timeout bounds each attempt: a read or write that waits
/// longer fails, and so does an attempt past its deadline. The connection
/// of an exchange that ended comes back with the machine's verdict on it.
pub(crate) fn blocking_exchange<'h>(
    mut machine: ExchangeMachine<'h>,
    mut dial: impl FnMut(bool) -> io::Result<PooledConn>,
    sink: &mut Vec<u8>,
    mut flush: impl FnMut(&mut Vec<u8>, &[u8], &ExchangeMachine<'h>) -> io::Result<()>,
) -> (UpstreamOutcome, Option<(PooledConn, Reuse)>) {
    let mut again = false;
    while let Ok(mut conn) = dial(again) {
        match attempt(&mut machine, &mut conn, sink, &mut flush) {
            Ok(()) => {
                let reuse = machine.reuse();
                return (machine.into_outcome(), Some((conn, reuse)));
            }
            Err(_) if machine.fail(Instant::now()) => again = true,
            Err(_) => break,
        }
    }
    (machine.into_outcome(), None)
}

/// One attempt of `machine` on `conn`, until its response is done.
fn attempt<'h>(
    machine: &mut ExchangeMachine<'h>,
    conn: &mut PooledConn,
    sink: &mut Vec<u8>,
    flush: &mut impl FnMut(&mut Vec<u8>, &[u8], &ExchangeMachine<'h>) -> io::Result<()>,
) -> Result<(), HttpError> {
    let n = machine.to_write().len();
    conn.stream.write_all(machine.to_write())?;
    machine.wrote(n);
    while !machine.is_done() {
        if conn
            .timeout
            .is_some_and(|t| machine.expired(Instant::now(), t))
        {
            return Err(io::Error::from(io::ErrorKind::TimedOut).into());
        }
        let n = match conn.stream.read(&mut conn.buf) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        machine.filled(&conn.buf[..n], sink)?;
        flush(sink, &conn.buf[machine.span()], machine)?;
        lifecycle::grow_upstream_read(&mut conn.buf, n);
    }
    Ok(())
}

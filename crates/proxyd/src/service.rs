//! One request path per daemon, polled two ways.
//!
//! A daemon is a [`Service`]: parse-complete requests in, serialized
//! response bytes out. An answer that needs an origin exchange is a
//! [`Served::Upstream`] plan carrying the service's job; one that waits
//! on work another thread finishes is a [`Served::Park`] carrying the
//! service's wait. Both are data: the poller hands a plan's job back to
//! [`Service::settle`] with the exchange's outcome, and a parked wait to
//! [`Service::park`] with the connection's [`Waker`], which delivers a
//! job back to [`Service::resume`] (PROTOCOL.md §12.4). Two pollers drive
//! the same service (PROTOCOL.md §12): the epoll reactor
//! ([`crate::reactor`], Linux) and the blocking poller here, which runs
//! each connection on a worker of [`serve_with_stats`]'s pool and every
//! plan through [`blocking_exchange`] on a [`ConnectionPool`]. Both move a
//! client connection's bytes through one socket-free [`ClientMachine`],
//! as they move an origin's through one [`ExchangeMachine`] — the retry
//! contract, the attempt deadline and the reuse verdict included; a
//! poller only moves bytes. Here a relayed read leaves in one vectored
//! write: what it staged, then the payload span the machine forwarded in
//! place. So the proxy and the origin are each written once, whichever
//! engine serves them.

use crate::client::{ConnectionPool, PooledConn};
use crate::lifecycle::{self, ExchangeMachine, RelayRule, ResponseMachine, Reuse, UpstreamOutcome};
use crate::util::{serve_with_stats, setup_client_socket, IoStats, ServeOptions, ServerHandle};
use piggyback_httpwire::parse::MAX_BODY;
use piggyback_httpwire::{write_all_parts, ConnScratch, HttpError, Request, Response};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// What a handled request needs next, returned by [`Service::handle`]
/// and [`Service::resume`].
pub enum Served<S: Service + ?Sized> {
    /// The response is fully serialized into `out` (cache hits, metrics,
    /// synthesized errors).
    Inline,
    /// The request needs an origin exchange: the poller drives it and
    /// settles the plan's job with the outcome ([`Service::settle`]).
    Upstream(UpstreamPlan<S::Job>),
    /// The request waits on work another thread finishes (a demand miss
    /// joined to an in-flight speculation): the poller registers the wait
    /// with the connection's [`Waker`] ([`Service::park`]) and waits.
    Park(S::Wait),
}

/// Wakes one parked connection: [`wake`](Self::wake) hands a job to the
/// poller's one delivery callback, which runs [`Service::resume`] on the
/// connection's poller, and a waker dropped unfired hands it `None` —
/// close the connection, nothing would ever answer it.
pub struct Waker<J>(Option<Box<dyn FnOnce(Option<J>) + Send>>);

impl<J> Waker<J> {
    /// A waker delivering to `deliver`, which the poller supplies.
    pub(crate) fn new(deliver: impl FnOnce(Option<J>) + Send + 'static) -> Waker<J> {
        Waker(Some(Box::new(deliver)))
    }

    /// Resume the connection with `job`, on its poller.
    pub fn wake(mut self, job: J) {
        let deliver = self.0.take().expect("a waker fires once");
        deliver(Some(job));
    }
}

impl<J> Drop for Waker<J> {
    fn drop(&mut self) {
        if let Some(deliver) = self.0.take() {
            deliver(None);
        }
    }
}

/// One origin exchange: pre-serialized request bytes out, the response
/// machine's [`UpstreamOutcome`] back to the service with `job`.
pub struct UpstreamPlan<J> {
    /// Origin to dial (or reuse a kept-alive connection to).
    pub origin: SocketAddr,
    /// The full serialized request, so the origin sees identical bytes
    /// from either poller.
    pub request: Vec<u8>,
    /// What the service settles the outcome against
    /// ([`Service::settle`]), and names a retry by
    /// ([`Service::retried`]).
    pub job: J,
    /// Opt-in large-object cut-through: the rule the exchange's
    /// [`ResponseMachine`] decides under. `None` buffers every response.
    pub relay: Option<RelayRule>,
}

/// A protocol engine: parse-complete requests in, serialized response
/// bytes out. Implemented by the proxy and the origin, polled by the
/// reactor and by [`serve_blocking`]. A service that never plans or parks
/// names no job or wait (the origin's are `Infallible`) and keeps the
/// defaults of [`settle`](Self::settle), [`retried`](Self::retried),
/// [`park`](Self::park) and [`resume`](Self::resume).
pub trait Service: Send + Sync + 'static {
    /// Poller-affine service state, passed mutably to every
    /// [`handle`](Self::handle) call — a lock-free home for the proxy's
    /// L1. A reactor shard owns one; the blocking poller builds one per
    /// connection. Use `()` when the service keeps none.
    type Ctx: Send + 'static;

    /// What an upstream plan carries to [`settle`](Self::settle), and a
    /// [`Waker`] delivers to [`resume`](Self::resume).
    type Job: Send + 'static;

    /// What a parked request waits on, registered by
    /// [`park`](Self::park).
    type Wait: Send + 'static;

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
    ) -> io::Result<Served<Self>>;

    /// The batch is handled and its responses are about to be written:
    /// fold what it tallied in `ctx` into shared state. Called at the end
    /// of every [`ClientMachine::advance`], so both pollers reach it
    /// before they write.
    fn end_batch(&self, _ctx: &mut Self::Ctx) {}

    /// A plan's exchange ended with `outcome`, at `now` — the stamp of
    /// the upstream wakeup that finished it, the time it settles at — on
    /// the poller. Serialize the client-facing response into `out`
    /// (append-only); an `Err` drops the client connection after what is
    /// staged, and so does the default.
    fn settle(
        &self,
        _job: Self::Job,
        _outcome: UpstreamOutcome,
        _now: Instant,
        _scratch: &mut ConnScratch,
        _out: &mut Vec<u8>,
    ) -> io::Result<()> {
        Err(io::ErrorKind::Unsupported.into())
    }

    /// The plan of `job` goes again on a fresh connection: called once,
    /// before the retry.
    fn retried(&self, _job: &Self::Job) {}

    /// Register a parked request's `wait` with its connection's `waker`;
    /// called by the poller right after the park. The default drops the
    /// waker, which closes the connection.
    fn park(&self, _wait: Self::Wait, _waker: Waker<Self::Job>) {}

    /// Answer a woken connection's `job` on its poller: serialize into
    /// `out` like [`handle`](Self::handle), and say what comes next the
    /// same way. The default closes the connection.
    fn resume(
        &self,
        _job: Self::Job,
        _scratch: &mut ConnScratch,
        _out: &mut Vec<u8>,
    ) -> io::Result<Served<Self>> {
        Err(io::ErrorKind::Unsupported.into())
    }
}

/// Bytes the request buffer grows by when a read finds it full.
const READ_CHUNK: usize = 16 * 1024;
/// Hard cap on a client connection's buffered request bytes (the wire
/// crate's body limit plus framing headroom).
const MAX_REQUEST_BUF: usize = MAX_BODY + 64 * 1024;
/// Stop parsing further pipelined requests while more than this many
/// response bytes are waiting on a slow client; resume when drained. A
/// relay never piles output up to it: it pauses while anything is owed.
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
    ) -> Option<Served<S>> {
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

    /// Answer a parked connection's `job`, delivered by its [`Waker`],
    /// through [`Service::resume`]. An inline answer unparks it, a
    /// failure closes it, and another plan or park is returned with the
    /// connection still parked.
    pub fn resume<S: Service>(&mut self, svc: &S, job: S::Job) -> Option<Served<S>> {
        match svc.resume(job, &mut self.scratch, &mut self.out) {
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

    /// Where a plan's settle or a relay stages its bytes: the
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
    /// owed (an amortised drain: the capacity stays), and a fully written
    /// output is emptied. A relay adds at most one read's refused span to
    /// what is owed (see [`write_through`](Self::write_through)), so the
    /// capacity a relay leaves is about one read, not the body.
    pub fn wrote(&mut self, n: usize) {
        self.sent += n;
        if self.sent >= self.out.len() - self.sent {
            self.out.drain(..self.sent);
            self.sent = 0;
        }
    }

    /// Write what the client is owed, then `span` (a relayed read's
    /// payload, forwarded in place), in nonblocking vectored writes until
    /// both are out or the socket refuses more: only the part of `span` it
    /// refuses is copied in behind what is still owed. A flush is the
    /// empty span, written with a plain write like every answer that is
    /// not relayed. `Err` = the connection broke.
    pub(crate) fn write_through(&mut self, w: &mut impl Write, mut span: &[u8]) -> io::Result<()> {
        while !(self.output().is_empty() && span.is_empty()) {
            let owed = self.output().len();
            let wrote = match span.is_empty() {
                true => w.write(self.output()),
                false => w.write_vectored(&[IoSlice::new(self.output()), IoSlice::new(span)]),
            };
            match wrote {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wrote(n.min(owed));
                    span = &span[n.saturating_sub(owed)..];
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.extend_from_slice(span);
        Ok(())
    }

    /// Is the output at the high-water mark? Pipelined requests wait
    /// until it is not.
    fn backlogged(&self) -> bool {
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
    // A relay a client stalls for the upstream timeout settles as an
    // error, as the reactor's relay deadline does: neither this worker nor
    // the upstream connection waits on it (see [`Until`]).
    setup_client_socket(&stream, pool.and_then(|p| p.timeout))?;
    let mut ctx = svc.make_ctx();
    let mut machine = ClientMachine::new(Instant::now());
    loop {
        if let Some(served) = machine.advance(svc, &mut ctx, peer, Instant::now()) {
            follow(svc, served, &mut machine, pool, &mut stream);
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
/// thread and is settled, and a park blocks until the waker delivers the
/// job to resume.
fn follow<S: Service>(
    svc: &S,
    mut served: Served<S>,
    machine: &mut ClientMachine,
    pool: Option<&ConnectionPool>,
    w: &mut TcpStream,
) {
    let mut sent = true;
    loop {
        // What is staged leaves before the work runs or waits: answers
        // pipelined ahead of it, a prefix hit's head. The work runs even
        // when that write fails — the request was counted, so its outcome
        // must be settled — and the connection closes after it.
        sent &= write_staged(w, machine).is_ok();
        served = match served {
            Served::Inline => return machine.unpark(true),
            Served::Upstream(plan) => {
                let Some(pool) = pool else {
                    return machine.unpark(false);
                };
                let (scratch, out) = machine.stage();
                let flush = |seg: &mut Vec<u8>, span: &[u8]| {
                    let mut w = Until(w, pool.timeout.map(|t| Instant::now() + t));
                    write_all_parts(&mut w, &[seg, span]).map(|()| seg.clear())
                };
                let retried = || svc.retried(&plan.job);
                let (outcome, now) =
                    pool_exchange(plan.request, plan.relay, pool, out, retried, flush);
                let settled = svc.settle(plan.job, outcome, now, scratch, out);
                return machine.unpark(sent && settled.is_ok());
            }
            Served::Park(wait) => {
                let (tx, rx) = mpsc::channel();
                let waker = Waker::new(move |job| {
                    let _ = tx.send(job);
                });
                svc.park(wait, waker);
                let Ok(Some(job)) = rx.recv() else {
                    return machine.unpark(false);
                };
                match machine.resume(svc, job) {
                    Some(next) => next,
                    None if sent => return,
                    None => return machine.unpark(false),
                }
            }
        }
    }
}

/// A client socket whose writes give up once the deadline passed: the
/// flush of one relayed read must be taken by the upstream timeout. Each
/// write call waits at most that long ([`setup_client_socket`]), but a
/// call may take a few bytes first and then wait it out, so the deadline
/// is checked between calls too.
struct Until<'a>(&'a mut TcpStream, Option<Instant>);

impl Write for Until<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        if self.1.is_some_and(|at| Instant::now() >= at) {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.0.write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
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

/// Run one exchange of `request` on the calling thread:
/// [`blocking_exchange`] over `pool`, with `out` as the machine's sink,
/// handing `flush` what each read staged and its span of payload
/// forwarded in place, to go out in that order, and calling `retried`
/// before a retry. Returns the outcome and one clock read taken as the
/// exchange returned, the stamp it settles at. A relay holds one read's
/// worth, never the body.
pub(crate) fn pool_exchange(
    request: Vec<u8>,
    relay: Option<RelayRule>,
    pool: &ConnectionPool,
    out: &mut Vec<u8>,
    mut retried: impl FnMut(),
    mut flush: impl FnMut(&mut Vec<u8>, &[u8]) -> io::Result<()>,
) -> (UpstreamOutcome, Instant) {
    let machine = ResponseMachine::new(relay);
    let (outcome, kept) = blocking_exchange(
        ExchangeMachine::new(request, true, machine, Instant::now()),
        |again| {
            if !again {
                return pool.checkout();
            }
            retried();
            pool.connect_fresh()
        },
        out,
        |seg, span, _| flush(seg, span),
    );
    let now = Instant::now();
    if let Some((conn, reuse)) = kept {
        pool.checkin(conn, reuse);
    }
    (outcome, now)
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
/// longer fails, and so does an attempt past its deadline — an engaged
/// relay's runs from the end of its last flush. The connection of an
/// exchange that ended comes back with the machine's verdict on it.
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
        machine.moved(Instant::now());
        lifecycle::grow_upstream_read(&mut conn.buf, n);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// What a scripted writer does with one write.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        /// Take at most this many bytes, across the buffers in order.
        Take(usize),
        Block,
        Interrupt,
        Fail,
    }

    /// A socket stand-in that follows its script, one step per write, and
    /// refuses (`WouldBlock`) once the script runs out.
    struct Script {
        steps: VecDeque<Step>,
        got: Vec<u8>,
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            match self.steps.pop_front().unwrap_or(Step::Block) {
                Step::Take(mut k) => {
                    let before = self.got.len();
                    for buf in bufs {
                        let take = k.min(buf.len());
                        self.got.extend_from_slice(&buf[..take]);
                        k -= take;
                    }
                    Ok(self.got.len() - before)
                }
                Step::Block => Err(io::ErrorKind::WouldBlock.into()),
                Step::Interrupt => Err(io::ErrorKind::Interrupted.into()),
                Step::Fail => Err(io::ErrorKind::BrokenPipe.into()),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// `write_through` against every way a nonblocking socket answers:
    /// owed bytes leave before the span, the refused remainder is copied
    /// behind them exactly, a fully taken write leaves the output empty
    /// with its capacity, and the output never holds more than what was
    /// owed plus one span.
    #[test]
    fn write_through_sends_owed_bytes_then_the_span_and_keeps_only_the_refusal() {
        let pattern = |n: usize, salt: u8| -> Vec<u8> {
            (0..n).map(|i| (i as u8).wrapping_mul(7) ^ salt).collect()
        };
        let scripts: Vec<Vec<Step>> = vec![
            vec![],
            vec![Step::Take(1)],
            vec![Step::Take(5), Step::Interrupt, Step::Take(7)],
            vec![Step::Take(99), Step::Block, Step::Take(1000)],
            vec![Step::Take(100)],
            vec![Step::Take(101)],
            vec![Step::Interrupt, Step::Take(250), Step::Take(250)],
            vec![Step::Take(1000)],
            vec![Step::Take(3), Step::Fail],
            vec![Step::Take(0)],
        ];
        for (sent, owed) in [(0, 0), (0, 1), (0, 100), (3, 100), (60, 40)] {
            for span_len in [0, 1, 300] {
                for script in &scripts {
                    let mut m = ClientMachine::new(Instant::now());
                    let staged = pattern(sent + owed, 1);
                    m.stage().1.extend_from_slice(&staged);
                    m.wrote(sent);
                    assert_eq!(m.output(), &staged[sent..]);
                    let (out_len, capacity) = (m.out.len(), m.out.capacity());
                    let span = pattern(span_len, 2);
                    let mut w = Script {
                        steps: script.iter().copied().collect(),
                        got: Vec::new(),
                    };
                    let case = format!("sent {sent} owed {owed} span {span_len} {script:?}");
                    let result = m.write_through(&mut w, &span);
                    let mut want = staged[sent..].to_vec();
                    want.extend_from_slice(&span);
                    let failed = script
                        .iter()
                        .any(|s| matches!(s, Step::Fail | Step::Take(0)));
                    assert_eq!(
                        result.is_err(),
                        failed && w.got.len() < want.len(),
                        "{case}"
                    );
                    assert!(want.starts_with(&w.got), "{case}: out of order");
                    if result.is_err() {
                        continue;
                    }
                    let mut delivered = w.got.clone();
                    delivered.extend_from_slice(m.output());
                    assert_eq!(delivered, want, "{case}: the remainder is not exact");
                    assert!(m.output().len() <= owed + span_len, "{case}");
                    assert!(m.out.len() <= out_len + span_len, "{case}");
                    if w.got.len() >= owed {
                        assert!(m.out.len() <= span_len, "{case}: owed bytes kept");
                    }
                    if w.got.len() == want.len() {
                        assert!(m.out.is_empty(), "{case}");
                        assert_eq!(m.out.capacity(), capacity, "{case}: capacity changed");
                    }
                    // A flush is the empty span: it delivers the rest.
                    let mut flush = Script {
                        steps: [Step::Take(usize::MAX)].into(),
                        got: Vec::new(),
                    };
                    m.write_through(&mut flush, &[]).expect("flush");
                    w.got.extend_from_slice(&flush.got);
                    assert_eq!(w.got, want, "{case}: flushed");
                    assert!(m.output().is_empty(), "{case}");
                }
            }
        }
    }
}

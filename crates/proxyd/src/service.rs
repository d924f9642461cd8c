//! One request path per daemon, polled two ways.
//!
//! A daemon is a [`Service`]: parse-complete requests in, serialized
//! response bytes out. An answer that needs an origin exchange is a
//! [`Served::Upstream`] plan, one that waits on work another thread
//! finishes a [`Served::Park`] registration. Two pollers drive the same
//! service (PROTOCOL.md §12): the epoll reactor ([`crate::reactor`],
//! Linux) and the blocking poller here, which runs each connection on a
//! worker of [`serve_with_stats`]'s pool and every plan through
//! [`blocking_exchange`] on a [`ConnectionPool`]. So the proxy and the
//! origin are each written once, whichever engine serves them.

use crate::client::{ConnectionPool, PooledConn};
use crate::lifecycle::{RelayRule, ResponseMachine, UpstreamOutcome};
use crate::util::{serve_with_stats, IoStats, ServeOptions, ServerHandle};
use piggyback_httpwire::parse::MAX_BODY;
use piggyback_httpwire::{ConnScratch, HttpError, Request, Response};
use std::io::{self, BufRead, BufReader, Write};
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
    /// the client-facing response into `out` (append-only) and may return
    /// [`UpstreamNext::Again`] to chain a follow-up exchange (the
    /// refetch after a body-less 304).
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

/// What the continuation wants next.
pub enum UpstreamNext {
    /// The response bytes are in `out`; the connection goes on.
    Done,
    /// Run another exchange (fresh attempt counter) first.
    Again(UpstreamPlan),
}

pub type FinishFn = Box<
    dyn FnOnce(&mut ConnScratch, &mut Vec<u8>, UpstreamOutcome) -> io::Result<UpstreamNext> + Send,
>;
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

    /// Handle one parsed request. Serialize the response into `out`
    /// (append-only; earlier pipelined responses may precede it) and
    /// return [`Served::Inline`]; return [`Served::Upstream`] to have the
    /// poller drive an origin exchange; or return [`Served::Park`] to wait
    /// for another thread's wake-up. Errors close the connection.
    fn handle(
        &self,
        req: &Request,
        peer: SocketAddr,
        ctx: &mut Self::Ctx,
        scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<Served>;
}

/// Parse the next request under `cap`, for either poller. A body over
/// the cap is the client's mistake, not a dead connection: its `413` is
/// staged in `out` before the error returns, and the poller writes it
/// before closing.
pub(crate) fn read_request<R: BufRead>(
    req: &mut Request,
    r: &mut R,
    scratch: &mut ConnScratch,
    cap: usize,
    out: &mut Vec<u8>,
) -> Result<(), HttpError> {
    let read = req.read_into_capped(r, scratch, cap);
    if read.as_ref().is_err_and(HttpError::body_too_large) {
        Response::new(413)
            .write_with(out, scratch)
            .expect("writing to a Vec cannot fail");
    }
    read
}

/// Client bytes a relay stages before they are written downstream: one
/// write per segment, not one per origin-side read. Bounds memory per
/// in-flight relay: the whole body is never resident.
const STREAM_SEGMENT: usize = 16 * 1024;

/// Serve `svc` on `127.0.0.1:port` from a blocking worker pool (threads
/// `{name}-worker-*`), one connection per worker at a time. A client
/// silent for `idle_timeout` is closed. Upstream plans run on `pool`; a
/// service that never plans one (the origin) passes `None`.
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

/// One connection, start to close: read a request, `handle` it, follow
/// what it [`Served`] until the answer is staged, write it, repeat while
/// the client keeps the connection alive.
fn poll<S: Service>(
    svc: &S,
    pool: Option<&ConnectionPool>,
    idle_timeout: Duration,
    stream: TcpStream,
) -> io::Result<()> {
    let peer = stream.peer_addr()?;
    svc.on_connect(peer);
    stream.set_read_timeout(Some(idle_timeout).filter(|t| !t.is_zero()))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut ctx = svc.make_ctx();
    let mut scratch = ConnScratch::new();
    let mut req = Request::empty();
    // Steady state allocates nothing per hit: the request parses into
    // reused buffers and the answer into this reused output buffer.
    let mut out = Vec::new();
    loop {
        let answered = match read_request(
            &mut req,
            &mut reader,
            &mut scratch,
            svc.body_cap(),
            &mut out,
        ) {
            Ok(()) => svc
                .handle(&req, peer, &mut ctx, &mut scratch, &mut out)
                .and_then(|served| follow(served, pool, &mut writer, &mut scratch, &mut out)),
            Err(_) => Err(io::ErrorKind::InvalidData.into()),
        };
        // Whatever is staged goes out, even ahead of a close: a 413, or
        // the head and strict prefix of a relay that failed.
        write_out(&mut writer, &mut out)?;
        if answered.is_err() || !req.keep_alive() {
            return Ok(());
        }
    }
}

/// Follow `served` until its answer is staged in `out`: a plan runs on
/// this thread, and a park blocks until the waker fires.
fn follow(
    mut served: Served,
    pool: Option<&ConnectionPool>,
    w: &mut TcpStream,
    scratch: &mut ConnScratch,
    out: &mut Vec<u8>,
) -> io::Result<()> {
    loop {
        served = match served {
            Served::Inline => return Ok(()),
            Served::Upstream(plan) => {
                // A prefix hit's head leaves before the origin is dialed.
                // The plan runs even when that write fails: the request
                // was counted, so its outcome must be settled.
                let sent = write_out(w, out);
                let pool = pool.ok_or(io::ErrorKind::Unsupported)?;
                let ran = run_plan(plan, pool, scratch, out, |seg| write_out(w, seg));
                return sent.and(ran);
            }
            Served::Park(register) => {
                let (tx, rx) = mpsc::channel();
                register(Waker::new(move |then| {
                    let _ = tx.send(then);
                }));
                let Ok(Some(then)) = rx.recv() else {
                    return Err(io::ErrorKind::ConnectionAborted.into());
                };
                then(scratch, out)?
            }
        }
    }
}

fn write_out(w: &mut TcpStream, out: &mut Vec<u8>) -> io::Result<()> {
    if !out.is_empty() {
        w.write_all(out)?;
        out.clear();
    }
    Ok(())
}

/// Run `plan` — and every exchange its continuation chains — on the
/// calling thread: [`blocking_exchange`] over `pool`, with `out` as the
/// machine's sink, handing `flush` a segment when it fills, when the
/// machine engages (its head goes out before more payload is awaited) and
/// when the response ends; then the continuation, with the outcome.
pub(crate) fn run_plan(
    mut plan: UpstreamPlan,
    pool: &ConnectionPool,
    scratch: &mut ConnScratch,
    out: &mut Vec<u8>,
    mut flush: impl FnMut(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    loop {
        let UpstreamPlan {
            request,
            finish,
            retry,
            relay,
            accept_push,
            ..
        } = plan;
        let mut engaged = false;
        let (outcome, conn) = blocking_exchange(
            &request,
            true,
            || ResponseMachine::new(relay, accept_push),
            |again| {
                if !again {
                    return pool.checkout();
                }
                retry();
                pool.connect_fresh()
            },
            out,
            |seg, machine| {
                if seg.len() >= STREAM_SEGMENT || machine.is_done() || machine.engaged() != engaged
                {
                    engaged = machine.engaged();
                    flush(seg)?;
                }
                Ok(())
            },
        );
        if let Some(conn) = conn {
            pool.checkin(conn);
        }
        match finish(scratch, out, outcome)? {
            UpstreamNext::Done => return Ok(()),
            UpstreamNext::Again(next) => plan = next,
        }
    }
}

/// One blocking upstream exchange, for every blocking hop — the blocking
/// poller's plans and the volume center — owning the single retry loop
/// (PROTOCOL.md §7.1): a failure while the response machine is still
/// retryable goes again once, on the connection `dial(true)` gives, if
/// the request is `replayable`; a dial failure is terminal; an engaged
/// relay or a whole response is never retried. A connection with a
/// timeout bounds each attempt by it: a read or write that waits longer
/// fails, and so does an attempt still unfinished once that long has
/// passed since its dial. The loop is the reactor's: read bytes, feed the
/// machine built by `machine`, and `flush` what it appended to `sink` — a
/// retryable failure never leaves any there. The connection comes back
/// only when the machine says it may carry another exchange.
pub(crate) fn blocking_exchange<'h>(
    request: &[u8],
    replayable: bool,
    machine: impl Fn() -> ResponseMachine<'h>,
    mut dial: impl FnMut(bool) -> io::Result<PooledConn>,
    sink: &mut Vec<u8>,
    mut flush: impl FnMut(&mut Vec<u8>, &ResponseMachine<'h>) -> io::Result<()>,
) -> (UpstreamOutcome, Option<PooledConn>) {
    for retry in [false, true] {
        if retry && !replayable {
            break;
        }
        let started = Instant::now();
        let Ok(mut conn) = dial(retry) else { break };
        let mut machine = machine();
        let fed = conn
            .writer
            .write_all(request)
            .map_err(HttpError::from)
            .and_then(|()| {
                while !machine.is_done() {
                    if conn.timeout.is_some_and(|t| started.elapsed() >= t) {
                        return Err(io::Error::from(io::ErrorKind::TimedOut).into());
                    }
                    let input = conn.reader.fill_buf()?;
                    let consumed = machine.feed(input, input.is_empty(), sink)?;
                    conn.reader.consume(consumed);
                    flush(sink, &machine)?;
                }
                Ok(())
            });
        if fed.is_err() && machine.retryable() {
            continue;
        }
        let reusable = machine.reusable();
        return (machine.into_outcome(), reusable.then_some(conn));
    }
    (UpstreamOutcome::Failed, None)
}

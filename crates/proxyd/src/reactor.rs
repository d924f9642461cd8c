//! From-scratch epoll reactor: the event-driven poller behind
//! `--io reactor`.
//!
//! The blocking poller ([`crate::service::serve_blocking`]) pins one
//! worker thread per live connection, so concurrency is capped by the pool
//! — not by the (allocation-free) request hot path. This module polls the
//! same [`Service`] with a small fixed set of reactor threads instead,
//! each owning:
//!
//! - its **own `SO_REUSEPORT` listener** on the shared port, so the kernel
//!   spreads accepts across reactors with no shared accept lock;
//! - an **epoll instance** (raw `epoll_create1`/`epoll_ctl`/`epoll_wait`
//!   through a thin hand-declared FFI layer — no external crates) with
//!   **edge-triggered** registration: every connection is registered once
//!   for `IN|OUT|RDHUP` and never re-armed, so steady state does zero
//!   `epoll_ctl` calls;
//! - a **slab** of nonblocking connections, each a socket around the
//!   [`ClientMachine`] the blocking poller drives too, addressed by
//!   generation-tagged tokens (index in the low word, generation in the
//!   high word) so a stale event or late wake-up can never hit a recycled
//!   slot;
//! - a **timer wheel** (coarse ticks, lazy revalidation) enforcing idle
//!   and read (slow-loris) timeouts without per-connection timers;
//! - an **eventfd-backed injection queue** through which other threads
//!   wake parked connections ([`Waker`]), and a **deferred list** for the
//!   shard's own upstream starts, run before the next `epoll_wait`.
//!
//! The upstream leg (a proxy cache miss fetching from the origin) runs on
//! the same epoll loop: the service returns [`Served::Upstream`] with a
//! serialized request and a continuation, the reactor parks the client
//! connection, dials the origin with a nonblocking `connect` (completion
//! reported via `EPOLLOUT`), and moves bytes edge-triggered for the
//! lifecycle's [`ExchangeMachine`] — the same one the blocking poller
//! drives, which owns the request's write cursor, the deadline, the
//! retry contract and the reuse verdict, and feeds every read to its
//! [`ResponseMachine`]. The continuation runs on the reactor thread with
//! the machine's outcome. Upstream connections are kept alive in a
//! per-shard idle list, so a warm miss path does zero dials. Work another
//! thread finishes (a demand miss joined to an in-flight speculation)
//! parks the connection the same way ([`Served::Park`]) until its
//! [`Waker`] resumes it on this shard. No request ever leaves its reactor
//! thread: there is no worker pool. Every upstream exchange a shard runs
//! belongs to one of its client connections; speculative prefetch GETs
//! are the prefetch crew's own, run on the proxy's blocking pool.
//!
//! Cache hits, errors, and every client-side read/write stay on the
//! reactor, so a slow client can stall only its own connection —
//! readiness on WRITABLE drains the rest.

use crate::lifecycle::{grow_upstream_read, ExchangeMachine, ResponseMachine, UPSTREAM_READ};
use crate::service::{ClientMachine, ResumeFn, Served, Service, UpstreamPlan, Waker};
use crate::stats::ReactorShardStats;
use crate::util::{setup_client_socket, IoStats, OpenGuard, ServerHandle};
use piggyback_httpwire::ConnScratch;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::AtomicBool;
use std::sync::atomic::Ordering::{self, Relaxed};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Thin FFI surface over the handful of syscalls the reactor needs. The
/// workspace deliberately carries no `libc` crate; std already links the
/// platform libc, so declaring the prototypes is enough.
mod sys {
    pub type RawFd = i32;

    // x86_64 is the one Linux ABI where the kernel declares epoll_event
    // packed; everywhere else it has natural alignment.
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EPOLLET: u32 = 1 << 31;

    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;

    pub const EPOLL_CLOEXEC: i32 = 0x80000;
    pub const EFD_CLOEXEC: i32 = 0x80000;
    pub const EFD_NONBLOCK: i32 = 0x800;

    pub const AF_INET: i32 = 2;
    pub const SOCK_STREAM: i32 = 1;
    pub const SOCK_CLOEXEC: i32 = 0x80000;
    pub const SOCK_NONBLOCK: i32 = 0x800;
    pub const SOL_SOCKET: i32 = 1;
    pub const SO_REUSEADDR: i32 = 2;
    pub const SO_REUSEPORT: i32 = 15;
    pub const SO_ERROR: i32 = 4;

    pub const EINPROGRESS: i32 = 115;
    pub const EINTR: i32 = 4;

    #[repr(C)]
    pub struct SockAddrIn {
        pub sin_family: u16,
        /// Network byte order.
        pub sin_port: u16,
        /// Network byte order.
        pub sin_addr: u32,
        pub sin_zero: [u8; 8],
    }

    extern "C" {
        pub fn connect(fd: RawFd, addr: *const SockAddrIn, len: u32) -> i32;
        pub fn getsockopt(
            fd: RawFd,
            level: i32,
            optname: i32,
            optval: *mut u8,
            optlen: *mut u32,
        ) -> i32;
        pub fn epoll_create1(flags: i32) -> RawFd;
        pub fn epoll_ctl(epfd: RawFd, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(
            epfd: RawFd,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout: i32,
        ) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> RawFd;
        pub fn socket(domain: i32, ty: i32, protocol: i32) -> RawFd;
        pub fn setsockopt(
            fd: RawFd,
            level: i32,
            optname: i32,
            optval: *const u8,
            optlen: u32,
        ) -> i32;
        pub fn bind(fd: RawFd, addr: *const SockAddrIn, len: u32) -> i32;
        pub fn listen(fd: RawFd, backlog: i32) -> i32;
        pub fn read(fd: RawFd, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: RawFd, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: RawFd) -> i32;
    }
}

/// Token reserved for the per-reactor listener.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token reserved for the eventfd waker.
const WAKE_TOKEN: u64 = u64::MAX - 1;

/// Distinguishes upstream-connection tokens from client-connection tokens
/// in the shared epoll/timer-wheel token space. Generations are masked to
/// 31 bits so no client token can ever set this bit (and the reserved
/// `LISTENER_TOKEN`/`WAKE_TOKEN` values are matched before dispatch).
const UPSTREAM_BIT: u64 = 1 << 63;
/// Generation mask keeping slab tokens clear of [`UPSTREAM_BIT`].
const GEN_MASK: u32 = 0x7FFF_FFFF;

/// Timer wheel granularity: slots per full idle-timeout revolution.
const WHEEL_SLOTS: usize = 64;
/// Cap on accepts drained per readiness event, so one accept storm cannot
/// starve live connections (the listener is level-triggered and re-fires).
const ACCEPTS_PER_WAKE: usize = 256;

const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(200);

// ---------------------------------------------------------------------------
// fd wrappers

struct EpollFd(RawFd);

impl EpollFd {
    fn new() -> io::Result<Self> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EpollFd(fd))
    }

    fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        if unsafe { sys::epoll_ctl(self.0, sys::EPOLL_CTL_ADD, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    fn del(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = sys::EpollEvent { events: 0, data: 0 };
        if unsafe { sys::epoll_ctl(self.0, sys::EPOLL_CTL_DEL, fd, &mut ev) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Fill `events` with what is ready within `timeout_ms`.
    fn ready(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> usize {
        let n = unsafe {
            sys::epoll_wait(self.0, events.as_mut_ptr(), events.len() as i32, timeout_ms)
        };
        if n < 0 {
            0 // EINTR: treat as spurious wakeup
        } else {
            n as usize
        }
    }
}

impl Drop for EpollFd {
    fn drop(&mut self) {
        unsafe { sys::close(self.0) };
    }
}

struct EventFd(RawFd);

impl EventFd {
    fn new() -> io::Result<Self> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(EventFd(fd))
    }

    fn wake(&self) {
        let one: u64 = 1;
        unsafe { sys::write(self.0, &one as *const u64 as *const u8, 8) };
    }

    fn drain(&self) {
        let mut buf = [0u8; 8];
        while unsafe { sys::read(self.0, buf.as_mut_ptr(), 8) } > 0 {}
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe { sys::close(self.0) };
    }
}

/// Bind a `SO_REUSEPORT` loopback listener on `port` (0 = ephemeral). Each
/// reactor binds its own; the kernel hashes incoming connections across
/// all listeners on the port, giving lock-free accept sharding.
fn bind_reuseport(port: u16) -> io::Result<TcpListener> {
    let fd = unsafe { sys::socket(sys::AF_INET, sys::SOCK_STREAM | sys::SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let close_on_err = |e: io::Error| {
        unsafe { sys::close(fd) };
        e
    };
    let one: i32 = 1;
    for opt in [sys::SO_REUSEADDR, sys::SO_REUSEPORT] {
        let rc = unsafe {
            sys::setsockopt(fd, sys::SOL_SOCKET, opt, &one as *const i32 as *const u8, 4)
        };
        if rc != 0 {
            return Err(close_on_err(io::Error::last_os_error()));
        }
    }
    let addr = sys::SockAddrIn {
        sin_family: sys::AF_INET as u16,
        sin_port: port.to_be(),
        sin_addr: u32::from(std::net::Ipv4Addr::LOCALHOST).to_be(),
        sin_zero: [0; 8],
    };
    let len = std::mem::size_of::<sys::SockAddrIn>() as u32;
    if unsafe { sys::bind(fd, &addr, len) } != 0 {
        return Err(close_on_err(io::Error::last_os_error()));
    }
    if unsafe { sys::listen(fd, 1024) } != 0 {
        return Err(close_on_err(io::Error::last_os_error()));
    }
    let listener = unsafe { TcpListener::from_raw_fd(fd) };
    listener.set_nonblocking(true)?;
    Ok(listener)
}

// ---------------------------------------------------------------------------
// public surface

/// One [`ReactorShardStats`] per reactor thread, shared with the metrics
/// renderer.
#[derive(Debug)]
pub struct ReactorMetrics {
    pub shards: Vec<ReactorShardStats>,
}

impl ReactorMetrics {
    pub fn new(shards: usize) -> Self {
        ReactorMetrics {
            shards: (0..shards).map(|_| ReactorShardStats::default()).collect(),
        }
    }
}

/// Sizing and timeout knobs for [`serve_reactor`].
#[derive(Debug, Clone, Copy)]
pub struct ReactorOptions {
    /// Close connections with no client activity for this long; also the
    /// read deadline for an incomplete request (slow-loris guard).
    pub idle_timeout: Duration,
    /// Deadline of a nonblocking upstream exchange, from its start and
    /// again from its retry; a stalled exchange is killed (and retried
    /// once, then failed) when it fires.
    /// Idle kept-alive upstream connections are reaped on the same clock.
    pub upstream_timeout: Duration,
    /// Kept-alive idle upstream connections retained per reactor shard.
    pub upstream_max_idle: usize,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        ReactorOptions {
            idle_timeout: Duration::from_secs(120),
            upstream_timeout: Duration::from_secs(30),
            upstream_max_idle: 8,
        }
    }
}

/// Resolve a `--reactors` request (0 = auto) to a concrete shard count.
pub fn resolve_reactors(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(1, 8)
}

// ---------------------------------------------------------------------------
// injection

/// Work injected into a reactor from another thread: a parked
/// connection's [`Waker`] fired, so run `then` for `token`, or close it
/// when the waker was dropped unfired.
struct Inbound {
    token: u64,
    then: Option<ResumeFn>,
}

/// Work a shard defers to its own top level, so a continuation never runs
/// inside the `pump` that produced it; run before the next `epoll_wait`.
enum Deferred {
    /// Start the upstream plan the client connection `client` parked on.
    Start { plan: UpstreamPlan, client: u64 },
    /// Finish an exchange whose dial failed at once.
    Failed(Exchange),
}

/// Cross-thread injection queue into one reactor, woken via eventfd.
struct Injector {
    queue: Mutex<Vec<Inbound>>,
    efd: EventFd,
}

impl Injector {
    fn new() -> io::Result<Arc<Self>> {
        Ok(Arc::new(Injector {
            queue: Mutex::new(Vec::new()),
            efd: EventFd::new()?,
        }))
    }

    fn push(&self, c: Inbound) {
        self.queue.lock().unwrap_or_else(|e| e.into_inner()).push(c);
        self.efd.wake();
    }

    fn drain_into(&self, out: &mut Vec<Inbound>) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        out.append(&mut q);
    }
}

/// Stop-side handle held inside [`ServerHandle`].
pub(crate) struct ReactorHandle {
    stop: Arc<AtomicBool>,
    injectors: Vec<Arc<Injector>>,
    joins: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    pub(crate) fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for inj in &self.injectors {
            inj.efd.wake();
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
    }
}

// ---------------------------------------------------------------------------
// connection state machine

/// A client connection: its socket around the [`ClientMachine`] that
/// holds everything else.
struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    machine: ClientMachine,
    /// Upstream token of a streaming relay writing through to this
    /// connection. It pauses its origin reads while the client is owed
    /// anything; a flush that empties the output re-drives it.
    relay_up: Option<u64>,
    /// The client's FIN was seen: reads go on to the EOF, since a FIN
    /// that came with the last bytes raises no edge of its own.
    hup: bool,
    _guard: OpenGuard,
}

/// Slot map with generation-tagged tokens: `token = gen << 32 | index`
/// (generation masked to 31 bits so bit 63 stays free for
/// [`UPSTREAM_BIT`]). A removed slot bumps its generation, so events and
/// completions that raced with the close miss (generation mismatch)
/// instead of touching whatever connection reused the slot. Generic over
/// the slot payload: client [`Conn`]s and upstream [`UpConn`]s each get
/// their own slab (and token space).
struct Slab<T> {
    entries: Vec<Option<T>>,
    gens: Vec<u32>,
    free: Vec<u32>,
}

fn token_of(index: u32, gen: u32) -> u64 {
    ((gen & GEN_MASK) as u64) << 32 | index as u64
}

fn index_of(token: u64) -> u32 {
    token as u32
}

fn gen_of(token: u64) -> u32 {
    (token >> 32) as u32 & GEN_MASK
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            entries: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, conn: T) -> u64 {
        match self.free.pop() {
            Some(i) => {
                self.entries[i as usize] = Some(conn);
                token_of(i, self.gens[i as usize])
            }
            None => {
                let i = self.entries.len() as u32;
                self.entries.push(Some(conn));
                self.gens.push(0);
                token_of(i, 0)
            }
        }
    }

    fn get_mut(&mut self, token: u64) -> Option<&mut T> {
        let i = index_of(token) as usize;
        if i >= self.entries.len() || self.gens[i] & GEN_MASK != gen_of(token) {
            return None;
        }
        self.entries[i].as_mut()
    }

    fn remove(&mut self, token: u64) -> Option<T> {
        let i = index_of(token) as usize;
        if i >= self.entries.len() || self.gens[i] & GEN_MASK != gen_of(token) {
            return None;
        }
        let conn = self.entries[i].take();
        if conn.is_some() {
            self.gens[i] = self.gens[i].wrapping_add(1);
            self.free.push(i as u32);
        }
        conn
    }
}

/// Coarse timer wheel: `WHEEL_SLOTS` buckets of raw tokens (client or
/// upstream — bit 63 dispatches at expiry), one bucket drained per tick.
/// Entries are revalidated lazily at expiry — activity just updates the
/// connection's `last_active`, and a still-fresh connection is
/// rescheduled for its remaining lifetime. No per-activity bookkeeping on
/// the hot path.
struct Wheel {
    slots: Vec<Vec<u64>>,
    cursor: usize,
    tick: Duration,
}

impl Wheel {
    fn new(idle_timeout: Duration) -> Self {
        let tick = (idle_timeout / (WHEEL_SLOTS as u32 / 2))
            .clamp(Duration::from_millis(10), Duration::from_secs(1));
        Wheel {
            // Pre-sized so steady-state reschedules of a few connections
            // never allocate (the alloc-counting suite runs in reactor
            // mode too).
            slots: (0..WHEEL_SLOTS).map(|_| Vec::with_capacity(32)).collect(),
            cursor: 0,
            tick,
        }
    }

    fn ticks_for(&self, remain: Duration) -> usize {
        let t = self.tick.as_millis().max(1) as u64;
        let r = remain.as_millis() as u64;
        (r.div_ceil(t) as usize).clamp(1, WHEEL_SLOTS - 1)
    }

    fn schedule(&mut self, token: u64, ticks_ahead: usize) {
        let slot = (self.cursor + ticks_ahead.clamp(1, WHEEL_SLOTS - 1)) % WHEEL_SLOTS;
        self.slots[slot].push(token);
    }

    /// Drain the current slot into `out` and advance the cursor.
    fn advance_into(&mut self, out: &mut Vec<u64>) {
        out.append(&mut self.slots[self.cursor]);
        self.cursor = (self.cursor + 1) % WHEEL_SLOTS;
    }
}

// ---------------------------------------------------------------------------
// upstream connection state machine

/// One in-flight upstream exchange, attached to an [`UpConn`].
struct Exchange {
    /// The plan's continuation and retry hook (its request moved into the
    /// machine).
    plan: UpstreamPlan,
    /// The parked client connection's token; one the slab no longer
    /// holds if the client died mid-exchange.
    client: u64,
    /// Boxed: an idle exchange slot stays small.
    machine: Box<ExchangeMachine<'static>>,
}

/// A nonblocking origin connection owned by one reactor shard: mid-dial
/// (`connect()` returned `EINPROGRESS`; `EPOLLOUT` plus `SO_ERROR` report
/// the result), driving `ex`, or — with no `ex` — kept alive in the
/// shard's idle list awaiting the next miss.
struct UpConn {
    stream: TcpStream,
    dialing: bool,
    /// One read's bytes, allocated at the dial (grown once by
    /// [`grow_upstream_read`]): never the body.
    buf: Vec<u8>,
    /// When it went idle.
    last_active: Instant,
    /// The origin's FIN was seen: reads go on to the EOF (see
    /// [`Conn::hup`]).
    hup: bool,
    ex: Option<Exchange>,
}

// ---------------------------------------------------------------------------
// the reactor proper

struct Reactor<S: Service> {
    shard: usize,
    ep: EpollFd,
    listener: TcpListener,
    inject: Arc<Injector>,
    svc: Arc<S>,
    /// Shard-affine service state (the proxy's lock-free L1 cache).
    ctx: S::Ctx,
    slab: Slab<Conn>,
    /// Nonblocking origin connections, in their own token space
    /// ([`UPSTREAM_BIT`]).
    upstreams: Slab<UpConn>,
    /// Kept-alive idle upstream tokens (all phase `Idle`).
    idle_ups: VecDeque<u64>,
    wheel: Wheel,
    idle_timeout: Duration,
    upstream_timeout: Duration,
    upstream_max_idle: usize,
    io_stats: Arc<IoStats>,
    metrics: Arc<ReactorMetrics>,
    stop: Arc<AtomicBool>,
    /// When fd exhaustion pauses accepting: the listener is deregistered
    /// and re-armed once this deadline passes (checked on timer ticks).
    accept_paused_until: Option<Instant>,
    accept_backoff: Duration,
    expired_buf: Vec<u64>,
    comp_buf: Vec<Inbound>,
    deferred: VecDeque<Deferred>,
    /// Scratch + sink for continuations whose client connection died
    /// mid-exchange (the continuation must still run: request counters
    /// were bumped at plan time and conservation needs the outcome).
    spare_scratch: ConnScratch,
    spare_out: Vec<u8>,
    /// The clock read right after the last `epoll_wait` returned: the
    /// arrival stamp of every batch that wakeup serves, and the stamp of
    /// every upstream exchange it starts, moves, fails or settles.
    now: Instant,
}

impl<S: Service> Reactor<S> {
    fn shard_stats(&self) -> &ReactorShardStats {
        &self.metrics.shards[self.shard]
    }

    fn run(mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 1024];
        let listener = self.listener.as_raw_fd();
        for (fd, token) in [(listener, LISTENER_TOKEN), (self.inject.efd.0, WAKE_TOKEN)] {
            if self.ep.add(fd, token, sys::EPOLLIN).is_err() {
                return;
            }
        }
        let tick = self.wheel.tick;
        let mut next_tick = Instant::now() + tick;
        loop {
            let now = Instant::now();
            let timeout_ms = if next_tick > now {
                ((next_tick - now).as_millis() as i32).saturating_add(1)
            } else {
                0
            };
            let n = self.ep.ready(&mut events, timeout_ms);
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            self.now = Instant::now();
            self.shard_stats().wakeups.fetch_add(1, Relaxed);
            let mut accept_ready = false;
            for ev in &events[..n] {
                // Field reads copy out of the (possibly packed) struct.
                let token = ev.data;
                let mask = ev.events;
                match token {
                    LISTENER_TOKEN => accept_ready = true,
                    WAKE_TOKEN => {
                        self.inject.efd.drain();
                        self.drain_completions();
                    }
                    t if t & UPSTREAM_BIT != 0 => self.upstream_event(token, mask),
                    _ => self.conn_event(token, mask),
                }
            }
            if accept_ready {
                self.do_accept();
            }
            let mut now = self.now;
            while now >= next_tick {
                self.on_tick();
                next_tick += tick;
                now = Instant::now();
            }
            self.run_deferred();
        }
    }

    // -- accept path --------------------------------------------------------

    fn do_accept(&mut self) {
        if self.accept_paused_until.is_some() {
            return;
        }
        for _ in 0..ACCEPTS_PER_WAKE {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    self.register(stream, peer);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if matches!(e.raw_os_error(), Some(23) | Some(24)) => {
                    // EMFILE/ENFILE: deregister the listener and back off;
                    // spinning on a level-triggered ready listener would
                    // burn the whole reactor.
                    self.io_stats.accept_errors.fetch_add(1, Relaxed);
                    let _ = self.ep.del(self.listener.as_raw_fd());
                    self.accept_paused_until = Some(Instant::now() + self.accept_backoff);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    break;
                }
                // ECONNABORTED / EINTR and friends: transient, next
                // iteration retries.
                Err(_) => continue,
            }
        }
    }

    fn register(&mut self, stream: TcpStream, peer: SocketAddr) {
        self.io_stats.accepts.fetch_add(1, Relaxed);
        self.shard_stats().accepts.fetch_add(1, Relaxed);
        if setup_client_socket(&stream, None).is_err() || stream.set_nonblocking(true).is_err() {
            return;
        }
        let fd = stream.as_raw_fd();
        let conn = Conn {
            stream,
            peer,
            machine: ClientMachine::new(Instant::now()),
            relay_up: None,
            hup: false,
            _guard: OpenGuard::new(&self.io_stats),
        };
        let token = self.slab.insert(conn);
        // Registered once, edge-triggered, for the connection's lifetime:
        // the kernel reports each readable/writable *transition* and the
        // reactor drains the socket, so steady state does zero epoll_ctl.
        let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
        if self.ep.add(fd, token, interest).is_err() {
            self.slab.remove(token);
            return;
        }
        self.shard_stats().conns.fetch_add(1, Relaxed);
        let ticks = self.wheel.ticks_for(self.idle_timeout);
        self.wheel.schedule(token, ticks);
        self.svc.on_connect(peer);
        // The socket may have become readable before registration; ET
        // reports readiness present at ADD time, but pump eagerly anyway.
        self.conn_event(token, sys::EPOLLIN);
    }

    // -- timers -------------------------------------------------------------

    fn on_tick(&mut self) {
        if let Some(until) = self.accept_paused_until {
            if Instant::now() >= until {
                self.accept_paused_until = None;
                let listener = self.listener.as_raw_fd();
                if self.ep.add(listener, LISTENER_TOKEN, sys::EPOLLIN).is_err() {
                    // Re-arm failed (still out of fds): stay paused.
                    self.accept_paused_until = Some(Instant::now() + self.accept_backoff);
                } else {
                    self.do_accept();
                }
            }
        }
        let mut expired = std::mem::take(&mut self.expired_buf);
        self.wheel.advance_into(&mut expired);
        for token in expired.drain(..) {
            if token & UPSTREAM_BIT != 0 {
                self.upstream_tick(token);
                continue;
            }
            // A parked connection gets the same deadline: if nothing
            // answers it within the idle window it is closed rather than
            // rescheduled forever. A late wake-up for a closed slot finds
            // no connection (the slab generation check). (A parked
            // nonblocking exchange has its own, tighter wheel entry via
            // the upstream token.)
            let Some(conn) = self.slab.get_mut(token) else {
                continue;
            };
            let deadline = conn.machine.deadline(self.idle_timeout);
            let now = Instant::now();
            if now >= deadline {
                self.shard_stats().timeouts.fetch_add(1, Relaxed);
                self.close_conn(token);
            } else {
                let ticks = self.wheel.ticks_for((deadline - now).max(self.wheel.tick));
                self.wheel.schedule(token, ticks);
            }
        }
        self.expired_buf = expired;
    }

    /// Lazy expiry for an upstream token: reap idle connections past the
    /// upstream timeout, kill exchanges past their machine's deadline
    /// (counted, then failed like any I/O error), reschedule everything
    /// still fresh.
    fn upstream_tick(&mut self, token: u64) {
        let Some(up) = self.upstreams.get_mut(token & !UPSTREAM_BIT) else {
            return;
        };
        let deadline = match &up.ex {
            Some(ex) => ex.machine.deadline(self.upstream_timeout),
            None => up.last_active + self.upstream_timeout,
        };
        let now = self.now;
        if now < deadline {
            let ticks = self.wheel.ticks_for((deadline - now).max(self.wheel.tick));
            self.wheel.schedule(token, ticks);
        } else if up.ex.is_none() {
            self.close_upstream(token);
        } else {
            self.shard_stats().upstream_timeouts.fetch_add(1, Relaxed);
            self.upstream_exchange_error(token);
        }
    }

    // -- connection events --------------------------------------------------

    fn conn_event(&mut self, token: u64, mask: u32) {
        if mask & sys::EPOLLERR != 0 {
            self.close_conn(token);
            return;
        }
        if mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0
            && !self.read_conn(token, mask & (sys::EPOLLRDHUP | sys::EPOLLHUP) != 0)
        {
            return;
        }
        self.pump(token);
    }

    /// Drain the socket into the machine: to a short read (it proves the
    /// socket empty, and the next bytes raise a new edge), or to the EOF
    /// once the client's FIN was seen (`hup`, sticky). `false` = closed.
    fn read_conn(&mut self, token: u64, hup: bool) -> bool {
        let Some(conn) = self.slab.get_mut(token) else {
            return false;
        };
        conn.hup |= hup;
        loop {
            let input = conn.machine.input();
            let offered = input.len();
            match conn.stream.read(input) {
                Ok(n) => {
                    conn.machine.filled(n);
                    if n == 0 || (n < offered && !conn.hup) {
                        return true;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return false;
                }
            }
        }
    }

    /// Drive the connection's machine: advance it, hand off what it
    /// parked on, flush, and go again while it can serve more without
    /// new input. Called on readable, writable, and completion events —
    /// it is idempotent on a quiescent connection.
    fn pump(&mut self, token: u64) {
        loop {
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            let parked = conn
                .machine
                .advance(&*self.svc, &mut self.ctx, conn.peer, self.now);
            if let Some(served) = parked {
                self.park(token, served);
            }
            if self.flush_conn(token) {
                return;
            }
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            // With edge-triggered registration no further event arrives
            // for bytes already buffered: a flush that relieved the
            // backpressure the machine stopped on must re-enter here.
            if conn.machine.can_advance() {
                continue;
            }
            // A relay paused on this client's backpressure resumes the
            // moment a flush has emptied the output (the client is
            // parked, so this is disjoint from `can_advance`).
            if let Some(u) = conn.relay_up.filter(|_| conn.machine.output().is_empty()) {
                self.drive_upstream(u);
            }
            return;
        }
    }

    /// Write staged output until EAGAIN, and close a connection whose
    /// machine is done. A write that took bytes moves the relay feeding
    /// the connection. `true` = connection closed.
    fn flush_conn(&mut self, token: u64) -> bool {
        let Some(conn) = self.slab.get_mut(token) else {
            return true;
        };
        let owed = conn.machine.output().len();
        let broken = conn.machine.write_through(&mut conn.stream, &[]).is_err();
        if let Some(u) = conn.relay_up.filter(|_| conn.machine.output().len() < owed) {
            let up = self.upstreams.get_mut(u & !UPSTREAM_BIT);
            if let Some(ex) = up.and_then(|up| up.ex.as_mut()) {
                ex.machine.moved(self.now);
            }
        }
        let close = broken || conn.machine.done();
        if close {
            self.close_conn(token);
        }
        close
    }

    /// Hand a parked connection's pending work to whatever answers it:
    /// an upstream plan starts at top level — deferred, so it never
    /// re-enters the `pump` that produced it — and a park closure gets the
    /// connection's [`Waker`].
    fn park(&mut self, token: u64, served: Served) {
        match served {
            Served::Inline => {}
            Served::Upstream(plan) => self.deferred.push_back(Deferred::Start {
                plan,
                client: token,
            }),
            Served::Park(register) => {
                let inject = Arc::clone(&self.inject);
                register(Waker::new(move |then| inject.push(Inbound { token, then })))
            }
        }
    }

    fn drain_completions(&mut self) {
        let mut comps = std::mem::take(&mut self.comp_buf);
        self.inject.drain_into(&mut comps);
        for Inbound { token, then } in comps.drain(..) {
            self.resume(token, then);
        }
        self.comp_buf = comps;
    }

    /// Run deferred work until none is left; what it defers in turn runs
    /// too, still before the next `epoll_wait`.
    fn run_deferred(&mut self) {
        while let Some(deferred) = self.deferred.pop_front() {
            match deferred {
                Deferred::Start { plan, client } => self.start_upstream(plan, client),
                Deferred::Failed(ex) => self.finish_exchange(ex),
            }
        }
    }

    /// Run a woken connection's continuation on this shard — into the
    /// spare buffers if the client died meanwhile, since the request was
    /// counted at plan time and its outcome still must be. An unfired
    /// waker closes the connection.
    fn resume(&mut self, token: u64, then: Option<ResumeFn>) {
        let Some(then) = then else {
            self.close_conn(token);
            return;
        };
        let next = match self.slab.get_mut(token) {
            Some(conn) => conn.machine.resume(then),
            None => {
                self.spare_out.clear();
                then(&mut self.spare_scratch, &mut self.spare_out).ok()
            }
        };
        match next {
            Some(served) => self.park(token, served),
            None => self.pump(token),
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.slab.remove(token) {
            let _ = self.ep.del(conn.stream.as_raw_fd());
            self.shard_stats().conns.fetch_sub(1, Relaxed);
            // A relay feeding this client has nowhere to write: abort it
            // now instead of waiting for the upstream timeout wheel.
            if let Some(u) = conn.relay_up {
                self.settle_upstream(u);
            }
            // Dropping conn closes the socket and releases the OpenGuard.
        }
    }

    // -- nonblocking upstream leg --------------------------------------------

    /// Begin an upstream exchange for the parked client `client`: reuse a
    /// healthy kept-alive connection or dial fresh.
    fn start_upstream(&mut self, mut plan: UpstreamPlan, client: u64) {
        self.shard_stats().upstream_inflight.fetch_add(1, Relaxed);
        let request = std::mem::take(&mut plan.request);
        let response = ResponseMachine::new(plan.relay);
        let machine = ExchangeMachine::new(request, true, response, self.now);
        let ex = Exchange {
            plan,
            client,
            machine: Box::new(machine),
        };
        // Reuse: pop idle connections until one passes the quiet-peek
        // health check (WouldBlock ⇔ open and silent — the same probe as
        // the blocking pool's checkout).
        while let Some(utoken) = self.idle_ups.pop_front() {
            let Some(up) = self.upstreams.get_mut(utoken & !UPSTREAM_BIT).filter(|up| {
                let mut probe = [0u8; 1];
                matches!(
                    up.stream.peek(&mut probe),
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock
                )
            }) else {
                self.close_upstream(utoken);
                continue;
            };
            up.ex = Some(ex);
            self.shard_stats().upstream_reuses.fetch_add(1, Relaxed);
            // The single wheel entry created at dial time is still live
            // (lazy revalidation reschedules it for the life of the
            // connection), so no new entry here — duplicates would
            // accumulate one per reuse.
            self.drive_upstream(utoken);
            return;
        }
        self.dial_upstream(ex);
    }

    /// Fresh nonblocking dial for `ex`. A dial that fails at once — a
    /// failed dial is terminal — is finished at top level, never inside
    /// `pump`.
    fn dial_upstream(&mut self, ex: Exchange) {
        self.shard_stats().upstream_dials.fetch_add(1, Relaxed);
        let Ok((stream, connected)) = dial_nonblocking(ex.plan.origin) else {
            self.deferred.push_back(Deferred::Failed(ex));
            return;
        };
        let fd = stream.as_raw_fd();
        let up = UpConn {
            stream,
            dialing: !connected,
            buf: vec![0; UPSTREAM_READ],
            last_active: self.now,
            hup: false,
            ex: Some(ex),
        };
        let utoken = self.upstreams.insert(up) | UPSTREAM_BIT;
        let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
        if self.ep.add(fd, utoken, interest).is_err() {
            let up = self.upstreams.remove(utoken & !UPSTREAM_BIT);
            if let Some(ex) = up.and_then(|u| u.ex) {
                self.deferred.push_back(Deferred::Failed(ex));
            }
            return;
        }
        let ticks = self.wheel.ticks_for(self.upstream_timeout);
        self.wheel.schedule(utoken, ticks);
        if connected {
            self.drive_upstream(utoken);
        }
    }

    /// Readiness on an upstream token: finish dialing, or drive the
    /// exchange. Any event on an idle connection (origin FIN, unsolicited
    /// bytes) poisons it.
    fn upstream_event(&mut self, utoken: u64, mask: u32) {
        let Some(up) = self.upstreams.get_mut(utoken & !UPSTREAM_BIT) else {
            return;
        };
        up.hup |= mask & (sys::EPOLLRDHUP | sys::EPOLLHUP) != 0;
        if up.ex.is_none() {
            if mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                self.close_upstream(utoken);
            }
        } else if up.dialing {
            // Dial completion: EPOLLOUT on success, EPOLLOUT|ERR|HUP on
            // failure — SO_ERROR tells which. A failed dial is terminal.
            if mask & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) == 0 {
                return;
            }
            if so_error(up.stream.as_raw_fd()) != 0 {
                self.settle_upstream(utoken);
                return;
            }
            up.dialing = false;
            self.drive_upstream(utoken);
        } else if mask & sys::EPOLLERR != 0 {
            self.upstream_exchange_error(utoken);
        } else {
            self.drive_upstream(utoken);
        }
    }

    /// Move bytes for the exchange machine: write what it has to write,
    /// then read into the connection's buffer (grown by
    /// [`grow_upstream_read`]) and hand it each read, until it is done or
    /// the socket is drained — by the rule and the sticky FIN of
    /// [`read_conn`](Self::read_conn); a call that began the request reads
    /// nothing, since nothing can answer it yet. An engaged machine
    /// stages client bytes in the parked client's output, and each read
    /// leaves at once behind them with its span of payload forwarded in
    /// place, in one vectored write
    /// ([`write_through`](ClientMachine::write_through)); origin reads
    /// pause while the client is owed anything. Every read moves the
    /// exchange at the wakeup's stamp. The end and every failure route to
    /// settle/retry.
    fn drive_upstream(&mut self, utoken: u64) {
        enum Out {
            Wait,
            Error,
            /// The response ended, or the parked client of a relay
            /// vanished (terminal, never retried).
            Settle,
            /// A write to the parked client failed: closing it settles
            /// the relay it fed.
            Broken(u64),
        }
        loop {
            let out = {
                let Reactor {
                    upstreams,
                    slab,
                    metrics,
                    shard,
                    spare_out,
                    now,
                    ..
                } = self;
                let stats = &metrics.shards[*shard];
                let Some(up) = upstreams.get_mut(utoken & !UPSTREAM_BIT) else {
                    return;
                };
                let Some(ex) = up.ex.as_mut() else { return };
                let machine = &mut ex.machine;
                let mut client = slab.get_mut(ex.client);
                let mut verdict = Out::Wait;
                let mut drained = machine.unsent() && !up.hup;
                while !machine.to_write().is_empty() {
                    match up.stream.write(machine.to_write()) {
                        Ok(n) if n > 0 => machine.wrote(n),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        _ => {
                            verdict = Out::Error;
                            break;
                        }
                    }
                }
                // A buffering machine never touches its sink, so an
                // orphaned exchange lends it the spare one.
                while matches!(verdict, Out::Wait) {
                    if machine.engaged() {
                        let Some(conn) = client.as_mut() else {
                            verdict = Out::Settle;
                            break;
                        };
                        if conn.relay_up.is_none() {
                            conn.relay_up = Some(utoken);
                            stats.relays.fetch_add(1, Relaxed);
                        }
                        if !machine.is_done() && !conn.machine.output().is_empty() {
                            // Slow reader: stop pulling from the origin
                            // until the client drains (the flush path
                            // re-drives this exchange).
                            stats.relay_paused.fetch_add(1, Relaxed);
                            break;
                        }
                    }
                    if machine.is_done() {
                        verdict = Out::Settle;
                        break;
                    }
                    if drained {
                        break;
                    }
                    let offered = up.buf.len();
                    let n = match up.stream.read(&mut up.buf) {
                        Ok(n) => n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            verdict = Out::Error;
                            break;
                        }
                    };
                    let sink = match client.as_mut() {
                        Some(conn) => conn.machine.stage().1,
                        None => &mut *spare_out,
                    };
                    if machine.filled(&up.buf[..n], sink).is_err() {
                        verdict = Out::Error;
                    } else if let Some(conn) = client.as_mut() {
                        let span = &up.buf[machine.span()];
                        if conn.machine.write_through(&mut conn.stream, span).is_err() {
                            verdict = Out::Broken(ex.client);
                        }
                    }
                    machine.moved(*now);
                    drained = n < offered && !up.hup;
                    grow_upstream_read(&mut up.buf, n);
                }
                verdict
            };
            match out {
                Out::Wait => return,
                // Re-enter to see the relay settled, or orphaned.
                Out::Broken(client) => self.close_conn(client),
                Out::Error => return self.upstream_exchange_error(utoken),
                Out::Settle => return self.settle_upstream(utoken),
            }
        }
    }

    /// The exchange failed (I/O error, EOF, a response no machine reads,
    /// the deadline): the dead connection is closed, and the exchange
    /// machine says whether the exchange goes again on a fresh one or is
    /// settled (PROTOCOL.md §7.1).
    fn upstream_exchange_error(&mut self, utoken: u64) {
        let again = self
            .upstreams
            .get_mut(utoken & !UPSTREAM_BIT)
            .and_then(|up| up.ex.as_mut())
            .is_some_and(|ex| ex.machine.fail(self.now));
        if !again {
            return self.settle_upstream(utoken);
        }
        let ex = self
            .upstreams
            .get_mut(utoken & !UPSTREAM_BIT)
            .and_then(|up| up.ex.take());
        self.close_upstream(utoken);
        let Some(ex) = ex else { return };
        (ex.plan.retry)();
        self.dial_upstream(ex);
    }

    /// The exchange is over — its response ended, or it was given up:
    /// park the origin connection if the machine finds it reusable and
    /// the idle list has room, close it otherwise, then run the
    /// continuation with the machine's outcome.
    fn settle_upstream(&mut self, utoken: u64) {
        let Some(up) = self.upstreams.get_mut(utoken & !UPSTREAM_BIT) else {
            return;
        };
        let Some(ex) = up.ex.take() else { return };
        if ex.machine.reusable() && self.idle_ups.len() < self.upstream_max_idle {
            up.last_active = self.now;
            self.idle_ups.push_back(utoken);
        } else {
            self.close_upstream(utoken);
        }
        if let Some(conn) = self.slab.get_mut(ex.client) {
            conn.relay_up = None;
        }
        self.finish_exchange(ex);
    }

    /// Run the continuation with the machine's outcome at the wakeup's
    /// stamp, writing into the parked client's buffers (or the spare set if
    /// the client died — the continuation's counter updates must happen
    /// regardless), then unpark and pump the client.
    fn finish_exchange(&mut self, ex: Exchange) {
        let Exchange {
            plan,
            client,
            machine,
        } = ex;
        let outcome = machine.into_outcome();
        let (scratch, out) = match self.slab.get_mut(client) {
            Some(conn) => conn.machine.stage(),
            None => {
                self.spare_out.clear();
                (&mut self.spare_scratch, &mut self.spare_out)
            }
        };
        let done = (plan.finish)(scratch, out, outcome, self.now);
        self.shard_stats().upstream_inflight.fetch_sub(1, Relaxed);
        // An `Err` can only end in a truncation: drain what is staged —
        // the client head and a strict prefix of the body — then close.
        if let Some(conn) = self.slab.get_mut(client) {
            conn.machine.unpark(done.is_ok());
            self.pump(client);
        }
    }

    fn close_upstream(&mut self, utoken: u64) {
        if let Some(up) = self.upstreams.remove(utoken & !UPSTREAM_BIT) {
            let _ = self.ep.del(up.stream.as_raw_fd());
        }
        // O(idle list) removal; the list is capped at upstream_max_idle.
        self.idle_ups.retain(|t| *t != utoken);
    }
}

/// Nonblocking IPv4 connect. Returns the stream and whether the TCP
/// handshake already completed (loopback often connects synchronously);
/// otherwise completion is reported by `EPOLLOUT` + `SO_ERROR`.
fn dial_nonblocking(addr: SocketAddr) -> io::Result<(TcpStream, bool)> {
    let SocketAddr::V4(v4) = addr else {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "reactor upstream requires IPv4",
        ));
    };
    let fd = unsafe {
        sys::socket(
            sys::AF_INET,
            sys::SOCK_STREAM | sys::SOCK_CLOEXEC | sys::SOCK_NONBLOCK,
            0,
        )
    };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    let sa = sys::SockAddrIn {
        sin_family: sys::AF_INET as u16,
        sin_port: v4.port().to_be(),
        sin_addr: u32::from(*v4.ip()).to_be(),
        sin_zero: [0; 8],
    };
    let len = std::mem::size_of::<sys::SockAddrIn>() as u32;
    let rc = unsafe { sys::connect(fd, &sa, len) };
    let connected = if rc == 0 {
        true
    } else {
        let e = io::Error::last_os_error();
        match e.raw_os_error() {
            Some(sys::EINPROGRESS) | Some(sys::EINTR) => false,
            _ => {
                unsafe { sys::close(fd) };
                return Err(e);
            }
        }
    };
    let stream = unsafe { TcpStream::from_raw_fd(fd) };
    let _ = stream.set_nodelay(true);
    Ok((stream, connected))
}

/// Read a socket's pending async error (`SO_ERROR`); 0 means none.
fn so_error(fd: RawFd) -> i32 {
    let mut err: i32 = 0;
    let mut len: u32 = 4;
    let rc = unsafe {
        sys::getsockopt(
            fd,
            sys::SOL_SOCKET,
            sys::SO_ERROR,
            &mut err as *mut i32 as *mut u8,
            &mut len,
        )
    };
    if rc != 0 {
        return -1;
    }
    err
}

/// Bind `127.0.0.1:port` (0 = ephemeral) with one `SO_REUSEPORT` listener
/// per shard in `metrics` and serve `svc` on that many reactor threads
/// until the handle is stopped. `metrics.shards.len()` is the
/// authoritative reactor count (size it with [`resolve_reactors`]).
pub fn serve_reactor<S: Service>(
    port: u16,
    name: &'static str,
    opts: ReactorOptions,
    io_stats: Arc<IoStats>,
    metrics: Arc<ReactorMetrics>,
    svc: Arc<S>,
) -> io::Result<ServerHandle> {
    let shards = metrics.shards.len().max(1);
    let first = bind_reuseport(port)?;
    let addr = first.local_addr()?;
    let mut listeners = vec![first];
    for _ in 1..shards {
        listeners.push(bind_reuseport(addr.port())?);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let injectors = (0..shards)
        .map(|_| Injector::new())
        .collect::<io::Result<Vec<_>>>()?;
    let mut joins = Vec::new();
    for (shard, listener) in listeners.into_iter().enumerate() {
        let spawned = EpollFd::new().and_then(|ep| {
            let reactor = Reactor {
                shard,
                ep,
                listener,
                inject: Arc::clone(&injectors[shard]),
                ctx: svc.make_ctx(),
                svc: Arc::clone(&svc),
                slab: Slab::new(),
                upstreams: Slab::new(),
                idle_ups: VecDeque::new(),
                wheel: Wheel::new(opts.idle_timeout),
                idle_timeout: opts.idle_timeout,
                upstream_timeout: opts.upstream_timeout,
                upstream_max_idle: opts.upstream_max_idle,
                io_stats: Arc::clone(&io_stats),
                metrics: Arc::clone(&metrics),
                stop: Arc::clone(&stop),
                accept_paused_until: None,
                accept_backoff: ACCEPT_BACKOFF_MIN,
                expired_buf: Vec::new(),
                comp_buf: Vec::new(),
                deferred: VecDeque::new(),
                spare_scratch: ConnScratch::new(),
                spare_out: Vec::new(),
                now: Instant::now(),
            };
            std::thread::Builder::new()
                .name(format!("{name}-reactor-{shard}"))
                .spawn(move || reactor.run())
        });
        match spawned {
            Ok(j) => joins.push(j),
            Err(e) => {
                // Shards spawned before the failure are already accepting
                // on their SO_REUSEPORT listeners; tear them down instead
                // of leaking threads bound to the port with no stop
                // handle.
                ReactorHandle {
                    stop,
                    injectors,
                    joins,
                }
                .stop();
                return Err(e);
            }
        }
    }
    Ok(ServerHandle::from_reactor(
        addr,
        io_stats,
        ReactorHandle {
            stop,
            injectors,
            joins,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_tokens_survive_aba() {
        let stats = Arc::new(IoStats::default());
        let mk = || {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            Conn {
                peer: stream.peer_addr().unwrap(),
                stream,
                machine: ClientMachine::new(Instant::now()),
                relay_up: None,
                hup: false,
                _guard: OpenGuard::new(&stats),
            }
        };
        let mut slab = Slab::new();
        let t1 = slab.insert(mk());
        assert!(slab.get_mut(t1).is_some());
        assert!(slab.remove(t1).is_some());
        // Slot reused, generation bumped: the old token must miss.
        let t2 = slab.insert(mk());
        assert_eq!(index_of(t1), index_of(t2));
        assert_ne!(gen_of(t1), gen_of(t2));
        assert!(slab.get_mut(t1).is_none());
        assert!(slab.remove(t1).is_none());
        assert!(slab.get_mut(t2).is_some());
    }

    #[test]
    fn wheel_expires_in_order() {
        let mut w = Wheel::new(Duration::from_secs(64));
        w.schedule(1, 1);
        w.schedule(UPSTREAM_BIT | 2, 3);
        let mut out = Vec::new();
        w.advance_into(&mut out); // cursor slot (empty at schedule time)
        out.clear();
        w.advance_into(&mut out);
        assert_eq!(out, vec![1]);
        out.clear();
        w.advance_into(&mut out);
        assert!(out.is_empty());
        w.advance_into(&mut out);
        assert_eq!(out, vec![UPSTREAM_BIT | 2]);
    }
}

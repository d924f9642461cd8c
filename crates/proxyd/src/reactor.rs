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
//!   start detached upstream exchanges (speculative prefetch GETs) and
//!   wake parked connections ([`Waker`]).
//!
//! The upstream leg (a proxy cache miss fetching from the origin) is a
//! first-class nonblocking state machine on the same epoll loop: the
//! service returns [`Served::Upstream`] with a serialized request and a
//! continuation, the reactor parks the client connection, dials the origin
//! with a nonblocking `connect` (completion reported via `EPOLLOUT`),
//! drives the write/read exchange edge-triggered — every byte read, from
//! the status line on, is fed to the lifecycle's [`ResponseMachine`], the
//! same one the blocking poller feeds, pushed responses behind the main
//! one included — and runs the continuation on the reactor thread with
//! the machine's outcome (or a terminal failure). Upstream connections
//! are kept alive in a per-shard idle list, so a warm miss path does zero
//! dials. Work another thread finishes (a demand miss joined to an
//! in-flight speculation) parks the connection the same way
//! ([`Served::Park`]) until its [`Waker`] resumes it on this shard. No
//! request ever leaves its reactor thread: there is no worker pool.
//!
//! Cache hits, errors, and every client-side read/write stay on the
//! reactor, so a slow client can stall only its own connection —
//! readiness on WRITABLE drains the rest.

use crate::lifecycle::ResponseMachine;
use crate::service::{ClientMachine, ResumeFn, Served, Service, UpstreamNext, UpstreamPlan, Waker};
use crate::util::{IoStats, OpenGuard, ServerHandle};
use piggyback_httpwire::ConnScratch;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// Bytes read per nonblocking read() call on an upstream connection.
const READ_CHUNK: usize = 16 * 1024;
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

    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> usize {
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

/// Per-reactor-shard counters, rendered at `/__pb/metrics` as
/// `*_reactor_*{shard="i"}` so accept-shard balance is observable.
#[derive(Debug, Default)]
pub struct ReactorShardStats {
    /// epoll_wait returns (readiness batches + timer ticks).
    pub wakeups: AtomicU64,
    /// Connections this shard's listener accepted.
    pub accepts: AtomicU64,
    /// Connections currently registered with this shard (gauge).
    pub conns: AtomicU64,
    /// Connections closed by the idle/read timer wheel.
    pub timeouts: AtomicU64,
    /// Fresh nonblocking TCP dials to the origin from this shard.
    pub upstream_dials: AtomicU64,
    /// Upstream exchanges served by a kept-alive idle connection.
    pub upstream_reuses: AtomicU64,
    /// Upstream exchanges currently dialing or mid-exchange (gauge).
    pub upstream_inflight: AtomicU64,
    /// Upstream exchanges killed by the `--upstream-timeout-secs` wheel.
    pub upstream_timeouts: AtomicU64,
    /// Streaming relays engaged (large-object cut-through exchanges).
    pub relays: AtomicU64,
    /// Times a streaming relay paused its upstream reads because the
    /// client's output buffer hit the high-water mark — the slow-reader
    /// backpressure proof: a lagging client throttles the origin leg
    /// instead of ballooning the proxy's buffers.
    pub relay_paused: AtomicU64,
}

impl ReactorShardStats {
    pub fn wakeups(&self) -> u64 {
        self.wakeups.load(Ordering::Relaxed)
    }
    pub fn accepts(&self) -> u64 {
        self.accepts.load(Ordering::Relaxed)
    }
    pub fn conns(&self) -> u64 {
        self.conns.load(Ordering::Relaxed)
    }
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
    pub fn upstream_dials(&self) -> u64 {
        self.upstream_dials.load(Ordering::Relaxed)
    }
    pub fn upstream_reuses(&self) -> u64 {
        self.upstream_reuses.load(Ordering::Relaxed)
    }
    pub fn upstream_inflight(&self) -> u64 {
        self.upstream_inflight.load(Ordering::Relaxed)
    }
    pub fn upstream_timeouts(&self) -> u64 {
        self.upstream_timeouts.load(Ordering::Relaxed)
    }
    pub fn relays(&self) -> u64 {
        self.relays.load(Ordering::Relaxed)
    }
    pub fn relay_paused(&self) -> u64 {
        self.relay_paused.load(Ordering::Relaxed)
    }
}

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
    /// Per-attempt deadline for a nonblocking upstream exchange; a stalled
    /// exchange is killed (and retried once, then failed) when it fires.
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

/// Work injected into a reactor from another thread (or deferred by the
/// reactor itself to break re-entrancy).
enum Inbound {
    /// Start an upstream exchange. `client` is the parked client token;
    /// None for detached prefetch plans, whose continuation settles the
    /// speculation ledger. Routed through the queue (even shard-locally)
    /// so exchange continuations always run at top level — never inside
    /// the `pump` that produced the plan.
    Start {
        plan: UpstreamPlan,
        client: Option<u64>,
    },
    /// An exchange failed before it could touch the event loop (instant
    /// dial failure); finish it at top level instead of recursing into
    /// `pump` from inside `pump`.
    Failed(Exchange),
    /// A parked connection's [`Waker`] fired: run `then` for it, or close
    /// it when the waker was dropped unfired.
    Resume { token: u64, then: Option<ResumeFn> },
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

/// Cloneable handle for submitting detached [`UpstreamPlan`]s to the
/// reactor fleet (round-robin across shards). Obtained from
/// [`ServerHandle::reactor_submitter`]; used by the prefetcher so
/// speculative GETs ride the same nonblocking upstream connections as
/// demand misses instead of burning a blocking pool thread.
#[derive(Clone)]
pub struct ReactorSubmitter {
    injectors: Vec<Arc<Injector>>,
    next: Arc<AtomicU64>,
}

impl ReactorSubmitter {
    /// Hand `plan` to the next reactor shard; its continuation runs on
    /// that reactor thread.
    pub fn submit(&self, plan: UpstreamPlan) {
        let i = self.next.fetch_add(1, Ordering::Relaxed) as usize % self.injectors.len();
        self.injectors[i].push(Inbound::Start { plan, client: None });
    }
}

/// Stop-side handle held inside [`ServerHandle`].
pub(crate) struct ReactorHandle {
    stop: Arc<AtomicBool>,
    injectors: Vec<Arc<Injector>>,
    joins: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// A cloneable submitter for detached upstream plans.
    pub(crate) fn submitter(&self) -> ReactorSubmitter {
        ReactorSubmitter {
            injectors: self.injectors.clone(),
            next: Arc::new(AtomicU64::new(0)),
        }
    }

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
    /// Upstream token of a streaming relay feeding this connection's
    /// output. When the output drains below the high-water mark, the
    /// flush path re-drives that upstream (backpressure release).
    relay_up: Option<u64>,
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

/// Lifecycle of one nonblocking origin connection.
enum UpPhase {
    /// `connect()` returned `EINPROGRESS`; completion arrives as
    /// `EPOLLOUT` (success/failure read via `SO_ERROR`).
    Dialing,
    /// Driving an exchange: writing the request and/or reading the
    /// response.
    Busy,
    /// Kept alive in the shard's idle list awaiting the next miss.
    Idle,
}

/// One in-flight upstream exchange, attached to a [`UpConn`].
struct Exchange {
    plan: UpstreamPlan,
    /// Parked client connection token (None for detached prefetch plans).
    client: Option<u64>,
    /// 0 = first attempt; 1 = retry on a fresh connection.
    attempt: u8,
    /// Write cursor into `plan.request`.
    wpos: usize,
    /// Per-attempt deadline base for the upstream timeout wheel.
    started: Instant,
    /// Reads this attempt's response. Boxed: an idle exchange slot stays
    /// small.
    machine: Box<ResponseMachine<'static>>,
}

/// A nonblocking origin connection owned by one reactor shard.
struct UpConn {
    stream: TcpStream,
    phase: UpPhase,
    /// Response bytes read and not yet fed: at most one read's worth —
    /// never the body.
    rbuf: Vec<u8>,
    read_eof: bool,
    last_active: Instant,
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
    /// Scratch + sink for continuations whose client connection died
    /// mid-exchange (the continuation must still run: request counters
    /// were bumped at plan time and conservation needs the outcome).
    spare_scratch: ConnScratch,
    spare_out: Vec<u8>,
}

impl<S: Service> Reactor<S> {
    fn shard_stats(&self) -> &ReactorShardStats {
        &self.metrics.shards[self.shard]
    }

    fn run(mut self) {
        let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 1024];
        if self
            .ep
            .add(self.listener.as_raw_fd(), LISTENER_TOKEN, sys::EPOLLIN)
            .is_err()
        {
            return;
        }
        if self
            .ep
            .add(self.inject.efd.0, WAKE_TOKEN, sys::EPOLLIN)
            .is_err()
        {
            return;
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
            let n = self.ep.wait(&mut events, timeout_ms);
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            self.shard_stats().wakeups.fetch_add(1, Ordering::Relaxed);
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
            let mut now = Instant::now();
            while now >= next_tick {
                self.on_tick();
                next_tick += tick;
                now = Instant::now();
            }
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
                    self.io_stats.accept_errors.fetch_add(1, Ordering::Relaxed);
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
        self.io_stats.accepts.fetch_add(1, Ordering::Relaxed);
        self.shard_stats().accepts.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let fd = stream.as_raw_fd();
        let guard = OpenGuard::new(&self.io_stats);
        let conn = Conn {
            stream,
            peer,
            machine: ClientMachine::new(Instant::now()),
            relay_up: None,
            _guard: guard,
        };
        let token = self.slab.insert(conn);
        // Registered once, edge-triggered, for the connection's lifetime:
        // the kernel reports each readable/writable *transition* and the
        // reactor drains to EAGAIN, so steady state does zero epoll_ctl.
        let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
        if self.ep.add(fd, token, interest).is_err() {
            self.slab.remove(token);
            return;
        }
        self.shard_stats().conns.fetch_add(1, Ordering::Relaxed);
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
                if self
                    .ep
                    .add(self.listener.as_raw_fd(), LISTENER_TOKEN, sys::EPOLLIN)
                    .is_err()
                {
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
                self.shard_stats().timeouts.fetch_add(1, Ordering::Relaxed);
                self.close_conn(token);
            } else {
                let ticks = self.wheel.ticks_for((deadline - now).max(self.wheel.tick));
                self.wheel.schedule(token, ticks);
            }
        }
        self.expired_buf = expired;
    }

    /// Lazy expiry for an upstream token: reap idle connections past the
    /// upstream timeout, kill stalled exchanges (counted, then treated as
    /// an exchange I/O error: one retry on a fresh connection, then
    /// failure), reschedule everything still fresh.
    fn upstream_tick(&mut self, token: u64) {
        enum Verdict {
            Reschedule(Duration),
            Reap,
            Stalled,
        }
        let verdict = match self.upstreams.get_mut(token & !UPSTREAM_BIT) {
            None => return,
            Some(up) => match up.phase {
                UpPhase::Idle => {
                    let idle = up.last_active.elapsed();
                    if idle >= self.upstream_timeout {
                        Verdict::Reap
                    } else {
                        Verdict::Reschedule(self.upstream_timeout.saturating_sub(idle))
                    }
                }
                UpPhase::Dialing | UpPhase::Busy => {
                    let ran = up
                        .ex
                        .as_ref()
                        .map(|ex| ex.started.elapsed())
                        .unwrap_or_default();
                    if ran >= self.upstream_timeout {
                        Verdict::Stalled
                    } else {
                        Verdict::Reschedule(self.upstream_timeout.saturating_sub(ran))
                    }
                }
            },
        };
        match verdict {
            Verdict::Reschedule(remain) => {
                let ticks = self.wheel.ticks_for(remain.max(self.wheel.tick));
                self.wheel.schedule(token, ticks);
            }
            Verdict::Reap => self.close_upstream(token),
            Verdict::Stalled => {
                self.shard_stats()
                    .upstream_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                self.upstream_exchange_error(token);
            }
        }
    }

    // -- connection events --------------------------------------------------

    fn conn_event(&mut self, token: u64, mask: u32) {
        if mask & sys::EPOLLERR != 0 {
            self.close_conn(token);
            return;
        }
        if mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0 && !self.read_conn(token) {
            return;
        }
        self.pump(token);
    }

    /// Drain the socket into the machine until EAGAIN/EOF. `false` =
    /// closed.
    fn read_conn(&mut self, token: u64) -> bool {
        let Some(conn) = self.slab.get_mut(token) else {
            return false;
        };
        loop {
            match conn.stream.read(conn.machine.input()) {
                Ok(n) => {
                    conn.machine.filled(n);
                    if n == 0 {
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
                .advance(&*self.svc, &mut self.ctx, conn.peer, Instant::now());
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
            // moment a flush frees output capacity (the client is parked,
            // so this is disjoint from `can_advance`).
            if let Some(u) = conn.relay_up.filter(|_| !conn.machine.backlogged()) {
                self.drive_upstream(u);
            }
            return;
        }
    }

    /// Write staged output until EAGAIN, and close a connection whose
    /// machine is done. `true` = connection closed.
    fn flush_conn(&mut self, token: u64) -> bool {
        let Some(conn) = self.slab.get_mut(token) else {
            return true;
        };
        let mut broken = false;
        while !conn.machine.output().is_empty() {
            match conn.stream.write(conn.machine.output()) {
                Ok(0) => broken = true,
                Ok(n) => conn.machine.wrote(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => broken = true,
            }
            if broken {
                break;
            }
        }
        let close = broken || conn.machine.done();
        if close {
            self.close_conn(token);
        }
        close
    }

    /// Hand a parked connection's pending work to whatever answers it:
    /// an upstream plan starts at top level — deferred through the
    /// shard-local queue, so it never re-enters the `pump` that produced
    /// it — and a park closure gets the connection's [`Waker`].
    fn park(&mut self, token: u64, served: Served) {
        match served {
            Served::Inline => {}
            Served::Upstream(plan) => self.inject.push(Inbound::Start {
                plan,
                client: Some(token),
            }),
            Served::Park(register) => {
                let inject = Arc::clone(&self.inject);
                register(Waker::new(move |then| {
                    inject.push(Inbound::Resume { token, then })
                }))
            }
        }
    }

    fn drain_completions(&mut self) {
        let mut comps = std::mem::take(&mut self.comp_buf);
        self.inject.drain_into(&mut comps);
        for inbound in comps.drain(..) {
            match inbound {
                Inbound::Start { plan, client } => self.start_upstream(plan, client, 0),
                Inbound::Failed(ex) => self.finish_exchange(ex),
                Inbound::Resume { token, then } => self.resume(token, then),
            }
        }
        self.comp_buf = comps;
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
            self.shard_stats().conns.fetch_sub(1, Ordering::Relaxed);
            // A relay feeding this client has nowhere to write: abort it
            // now instead of waiting for the upstream timeout wheel.
            if let Some(u) = conn.relay_up {
                self.settle_upstream(u, false);
            }
            // Dropping conn closes the socket and releases the OpenGuard.
        }
    }

    // -- nonblocking upstream leg --------------------------------------------

    /// Begin (or continue, on retry) an upstream exchange: reuse a healthy
    /// kept-alive connection or dial fresh. `client` is the parked client
    /// token (None for detached prefetch plans); `attempt` 1 marks the
    /// one-shot retry on a fresh connection.
    fn start_upstream(&mut self, plan: UpstreamPlan, client: Option<u64>, attempt: u8) {
        let ex = Exchange {
            machine: Box::new(ResponseMachine::new(plan.relay, plan.accept_push)),
            plan,
            client,
            attempt,
            wpos: 0,
            started: Instant::now(),
        };
        if attempt == 0 {
            self.shard_stats()
                .upstream_inflight
                .fetch_add(1, Ordering::Relaxed);
        }
        // Reuse: pop idle connections to this origin until one passes the
        // quiet-peek health check (WouldBlock ⇔ open and silent — the same
        // probe as the threaded pool's checkout).
        if attempt == 0 {
            let mut reuse = None;
            while let Some(utoken) = self.idle_ups.pop_front() {
                let healthy = match self.upstreams.get_mut(utoken & !UPSTREAM_BIT) {
                    None => false,
                    Some(up) => {
                        let mut probe = [0u8; 1];
                        matches!(
                            up.stream.peek(&mut probe),
                            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock
                        )
                    }
                };
                if healthy {
                    reuse = Some(utoken);
                    break;
                }
                self.close_upstream(utoken);
            }
            if let Some(utoken) = reuse {
                self.shard_stats()
                    .upstream_reuses
                    .fetch_add(1, Ordering::Relaxed);
                let up = self
                    .upstreams
                    .get_mut(utoken & !UPSTREAM_BIT)
                    .expect("healthy idle upstream");
                up.phase = UpPhase::Busy;
                up.rbuf.clear();
                up.read_eof = false;
                up.last_active = Instant::now();
                up.ex = Some(ex);
                // The single wheel entry created at dial time is still
                // live (lazy revalidation reschedules it for the life of
                // the connection), so no new entry here — duplicates
                // would accumulate one per reuse.
                self.drive_upstream(utoken);
                return;
            }
        }
        self.dial_upstream(ex);
    }

    /// Fresh nonblocking dial for `ex`. Instant failures are deferred
    /// through the injector so the continuation never runs inside `pump`.
    fn dial_upstream(&mut self, ex: Exchange) {
        self.shard_stats()
            .upstream_dials
            .fetch_add(1, Ordering::Relaxed);
        match dial_nonblocking(ex.plan.origin) {
            Err(_) => {
                // Mirrors the threaded path: a connect error propagates
                // immediately (no retry), on either attempt.
                self.inject.push(Inbound::Failed(ex));
            }
            Ok((stream, connected)) => {
                let up = UpConn {
                    stream,
                    phase: if connected {
                        UpPhase::Busy
                    } else {
                        UpPhase::Dialing
                    },
                    rbuf: Vec::new(),
                    read_eof: false,
                    last_active: Instant::now(),
                    ex: Some(ex),
                };
                let fd = up.stream.as_raw_fd();
                let utoken = self.upstreams.insert(up) | UPSTREAM_BIT;
                let interest = sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLRDHUP | sys::EPOLLET;
                if self.ep.add(fd, utoken, interest).is_err() {
                    let up = self.upstreams.remove(utoken & !UPSTREAM_BIT);
                    if let Some(ex) = up.and_then(|u| u.ex) {
                        self.inject.push(Inbound::Failed(ex));
                    }
                    return;
                }
                let ticks = self.wheel.ticks_for(self.upstream_timeout);
                self.wheel.schedule(utoken, ticks);
                if connected {
                    self.drive_upstream(utoken);
                }
            }
        }
    }

    /// Readiness on an upstream token: finish dialing, write the request,
    /// read/parse the response.
    fn upstream_event(&mut self, utoken: u64, mask: u32) {
        let phase = match self.upstreams.get_mut(utoken & !UPSTREAM_BIT) {
            None => return,
            Some(up) => match up.phase {
                UpPhase::Dialing => 0,
                UpPhase::Busy => 1,
                UpPhase::Idle => 2,
            },
        };
        match phase {
            0 => {
                // Dial completion: EPOLLOUT on success, EPOLLOUT|ERR|HUP
                // on failure — SO_ERROR tells which.
                if mask & (sys::EPOLLOUT | sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                    let fd = self
                        .upstreams
                        .get_mut(utoken & !UPSTREAM_BIT)
                        .map(|up| up.stream.as_raw_fd());
                    let Some(fd) = fd else { return };
                    if so_error(fd) == 0 {
                        if let Some(up) = self.upstreams.get_mut(utoken & !UPSTREAM_BIT) {
                            up.phase = UpPhase::Busy;
                            up.last_active = Instant::now();
                        }
                        self.drive_upstream(utoken);
                    } else {
                        // Connect failed: no retry, same as the threaded
                        // pool's checkout error propagating.
                        self.settle_upstream(utoken, false);
                    }
                }
            }
            1 => {
                if mask & sys::EPOLLERR != 0 {
                    self.upstream_exchange_error(utoken);
                    return;
                }
                self.drive_upstream(utoken);
            }
            _ => {
                // Any event on a parked idle connection (origin FIN,
                // unsolicited bytes) poisons it.
                if mask & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                    self.close_upstream(utoken);
                }
            }
        }
    }

    /// Write request bytes, then read response bytes and feed them to the
    /// exchange's [`ResponseMachine`] until EAGAIN: every read is fed and
    /// forgotten. An engaged machine writes straight into the parked
    /// client's output buffer; origin reads pause while that client sits
    /// above the high-water mark. Terminal conditions route to
    /// settle/retry.
    fn drive_upstream(&mut self, utoken: u64) {
        enum Out {
            Wait,
            Error,
            /// The response ended; `dirty` forbids parking the connection.
            Done {
                dirty: bool,
            },
            /// The parked client vanished around a relay: terminal, never
            /// retried.
            ClientGone,
        }
        loop {
            let mut flush_client = None;
            let mut backpressured = false;
            let out = {
                let Reactor {
                    upstreams,
                    slab,
                    metrics,
                    shard,
                    spare_out,
                    ..
                } = self;
                let stats = &metrics.shards[*shard];
                let up = match upstreams.get_mut(utoken & !UPSTREAM_BIT) {
                    Some(u) => u,
                    None => return,
                };
                let Some(ex) = up.ex.as_mut() else { return };
                let mut verdict = Out::Wait;
                // Write leg.
                while ex.wpos < ex.plan.request.len() {
                    match up.stream.write(&ex.plan.request[ex.wpos..]) {
                        Ok(0) => {
                            verdict = Out::Error;
                            break;
                        }
                        Ok(n) => ex.wpos += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            verdict = Out::Error;
                            break;
                        }
                    }
                }
                // Read leg (only meaningful once the request is fully out,
                // but draining early bytes is harmless and keeps ET armed).
                // A buffering machine never touches its sink, so a
                // detached (or orphaned) exchange lends it the spare one.
                let mut client = ex.client.and_then(|t| slab.get_mut(t));
                while matches!(verdict, Out::Wait) {
                    let sink = match client.as_mut() {
                        Some(conn) => conn.machine.stage().1,
                        None => &mut *spare_out,
                    };
                    let machine = &mut ex.machine;
                    let fed = machine.feed(&up.rbuf, up.read_eof, sink);
                    let mut paused = false;
                    if machine.engaged() {
                        let Some(conn) = client.as_mut() else {
                            verdict = Out::ClientGone;
                            break;
                        };
                        if conn.relay_up.is_none() {
                            conn.relay_up = Some(utoken);
                            stats.relays.fetch_add(1, Ordering::Relaxed);
                        }
                        flush_client = ex.client;
                        paused = conn.machine.backlogged();
                    }
                    let Ok(consumed) = fed else {
                        verdict = Out::Error;
                        break;
                    };
                    up.rbuf.drain(..consumed);
                    if machine.is_done() {
                        // Leftover bytes after a complete response poison
                        // the framing; such a connection must not be
                        // parked (same contract as the pool's dirty
                        // checkin refusal).
                        verdict = Out::Done {
                            dirty: !machine.reusable() || !up.rbuf.is_empty() || up.read_eof,
                        };
                        break;
                    }
                    if paused {
                        // Slow reader: stop pulling from the origin until
                        // the client drains (the flush path re-drives this
                        // exchange).
                        stats.relay_paused.fetch_add(1, Ordering::Relaxed);
                        backpressured = true;
                        break;
                    }
                    if up.read_eof {
                        // Every EOF ends the response or fails it above;
                        // never re-read `Ok(0)`.
                        verdict = Out::Error;
                        break;
                    }
                    let old = up.rbuf.len();
                    up.rbuf.resize(old + READ_CHUNK, 0);
                    match up.stream.read(&mut up.rbuf[old..]) {
                        Ok(0) => {
                            up.rbuf.truncate(old);
                            up.read_eof = true;
                        }
                        Ok(n) => up.rbuf.truncate(old + n),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            up.rbuf.truncate(old);
                            break;
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                            up.rbuf.truncate(old);
                        }
                        Err(_) => {
                            up.rbuf.truncate(old);
                            verdict = Out::Error;
                        }
                    }
                }
                up.last_active = Instant::now();
                verdict
            };
            match out {
                Out::Wait => {
                    if let Some(ct) = flush_client {
                        // Relay bytes were enqueued: flush now — with
                        // edge-triggered registration, no EPOLLOUT arrives
                        // for a socket that was already writable.
                        if self.flush_conn(ct) {
                            // Client closed while flushing; re-enter so the
                            // relay step observes ClientGone.
                            continue;
                        }
                        if backpressured {
                            let freed = self
                                .slab
                                .get_mut(ct)
                                .is_some_and(|c| !c.machine.backlogged());
                            if freed {
                                continue;
                            }
                        }
                    }
                    return;
                }
                Out::Error => {
                    self.upstream_exchange_error(utoken);
                    return;
                }
                Out::Done { dirty } => {
                    self.settle_upstream(utoken, !dirty);
                    return;
                }
                Out::ClientGone => {
                    self.settle_upstream(utoken, false);
                    return;
                }
            }
        }
    }

    /// Mid-exchange failure (I/O error, EOF, malformed response, timeout):
    /// retry once on a fresh connection, then fail terminally. The dead
    /// connection is always closed. A machine that is no longer
    /// retryable never goes again — bytes already reached the client (a
    /// second attempt would splice a second body into the stream), or the
    /// response is whole and only its push burst was cut short.
    fn upstream_exchange_error(&mut self, utoken: u64) {
        let retryable = self
            .upstreams
            .get_mut(utoken & !UPSTREAM_BIT)
            .and_then(|up| up.ex.as_ref())
            .is_some_and(|ex| ex.attempt == 0 && ex.machine.retryable());
        if !retryable {
            self.settle_upstream(utoken, false);
            return;
        }
        let ex = self
            .upstreams
            .get_mut(utoken & !UPSTREAM_BIT)
            .and_then(|up| up.ex.take());
        self.close_upstream(utoken);
        let Some(ex) = ex else { return };
        (ex.plan.retry)();
        let Exchange { plan, client, .. } = ex;
        self.start_upstream(plan, client, 1);
    }

    /// The exchange is over — its response ended, or it was given up
    /// (dial failure, second failed attempt, aborted relay): park the
    /// origin connection if it is `reusable`, close it otherwise, then run
    /// the continuation with the machine's outcome.
    fn settle_upstream(&mut self, utoken: u64, reusable: bool) {
        let ex = self
            .upstreams
            .get_mut(utoken & !UPSTREAM_BIT)
            .and_then(|up| up.ex.take());
        if !reusable || self.idle_ups.len() >= self.upstream_max_idle {
            self.close_upstream(utoken);
        } else if let Some(up) = self.upstreams.get_mut(utoken & !UPSTREAM_BIT) {
            up.phase = UpPhase::Idle;
            up.rbuf.clear();
            up.last_active = Instant::now();
            self.idle_ups.push_back(utoken);
        }
        let Some(ex) = ex else { return };
        if let Some(conn) = ex.client.and_then(|t| self.slab.get_mut(t)) {
            conn.relay_up = None;
        }
        self.finish_exchange(ex);
    }

    /// Run the continuation with the machine's outcome, writing into the
    /// parked client's buffers (or the spare set if the client died — the
    /// continuation's counter updates must happen regardless), then unpark
    /// and pump the client or chain the follow-up exchange.
    fn finish_exchange(&mut self, ex: Exchange) {
        let Exchange {
            plan,
            client,
            machine,
            ..
        } = ex;
        let outcome = machine.into_outcome();
        let client = client.filter(|t| self.slab.get_mut(*t).is_some());
        let next = match client {
            Some(token) => {
                let conn = self.slab.get_mut(token).expect("checked above");
                let (scratch, out) = conn.machine.stage();
                (plan.finish)(scratch, out, outcome)
            }
            None => {
                self.spare_out.clear();
                (plan.finish)(&mut self.spare_scratch, &mut self.spare_out, outcome)
            }
        };
        match next {
            Ok(UpstreamNext::Again(plan2)) => {
                // A chained exchange (refetch after a 304 whose body was
                // evicted) gets its own two attempts, matching the
                // threaded path's per-exchange retry loop.
                self.shard_stats()
                    .upstream_inflight
                    .fetch_sub(1, Ordering::Relaxed);
                self.start_upstream(plan2, client, 0);
            }
            // An `Err` can only end in a truncation: drain what is staged
            // — the client head and a strict prefix of the body — then
            // close.
            done => {
                self.shard_stats()
                    .upstream_inflight
                    .fetch_sub(1, Ordering::Relaxed);
                if let Some(token) = client {
                    let conn = self.slab.get_mut(token).expect("checked above");
                    conn.machine.unpark(done.is_ok());
                    self.pump(token);
                }
            }
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
                spare_scratch: ConnScratch::new(),
                spare_out: Vec::new(),
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
    use crate::lifecycle::UpstreamOutcome;
    use piggyback_httpwire::Request;

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

    fn read_response(s: &mut TcpStream, path: &str) -> String {
        let want = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{}",
            path.len(),
            path
        );
        let mut buf = vec![0u8; want.len()];
        s.read_exact(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    /// Forwarding service: every request becomes a nonblocking upstream
    /// exchange against a real (blocking, keep-alive) origin.
    struct Fwd {
        origin: SocketAddr,
    }

    impl Service for Fwd {
        type Ctx = ();

        fn make_ctx(&self) {}

        fn handle(
            &self,
            req: &Request,
            _peer: SocketAddr,
            _ctx: &mut (),
            _scratch: &mut ConnScratch,
            _out: &mut Vec<u8>,
        ) -> io::Result<Served> {
            let request = format!("GET {} HTTP/1.1\r\nHost: fwd\r\n\r\n", req.target).into_bytes();
            Ok(Served::Upstream(UpstreamPlan {
                origin: self.origin,
                request,
                finish: Box::new(|_scratch, out, outcome| {
                    match outcome {
                        UpstreamOutcome::Response(resp, _) => {
                            write!(
                                out,
                                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
                                resp.body.len()
                            )?;
                            out.extend_from_slice(&resp.body);
                        }
                        UpstreamOutcome::Failed
                        | UpstreamOutcome::Streamed { .. }
                        | UpstreamOutcome::StreamFailed { .. } => {
                            write!(out, "HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\n\r\n")?;
                        }
                    }
                    Ok(UpstreamNext::Done)
                }),
                retry: Box::new(|| {}),
                relay: None,
                accept_push: false,
            }))
        }
    }

    /// Keep-alive echo origin for the forwarding tests.
    fn spawn_echo_origin() -> crate::util::ServerHandle {
        crate::util::serve(0, "fwd-origin", |stream| {
            let mut r = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut w = std::io::BufWriter::new(stream);
            while let Ok(req) = Request::read(&mut r) {
                let mut resp = piggyback_httpwire::Response::new(200);
                resp.body = req.target.clone().into_bytes().into();
                if resp.write(&mut w).is_err() {
                    break;
                }
            }
        })
        .unwrap()
    }

    /// The nonblocking upstream leg serves misses on the reactor and keeps
    /// the origin connection alive across exchanges (second request
    /// reuses, no second dial).
    #[test]
    fn nonblocking_upstream_roundtrip_reuses_connections() {
        let origin = spawn_echo_origin();
        let metrics = Arc::new(ReactorMetrics::new(1));
        let handle = serve_reactor(
            0,
            "fwd-reactor",
            ReactorOptions {
                idle_timeout: Duration::from_secs(30),
                ..ReactorOptions::default()
            },
            Arc::new(IoStats::default()),
            Arc::clone(&metrics),
            Arc::new(Fwd {
                origin: origin.addr,
            }),
        )
        .unwrap();
        let mut c = TcpStream::connect(handle.addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for path in ["/up1", "/up2", "/up3"] {
            c.write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
                .unwrap();
            assert!(read_response(&mut c, path).ends_with(path));
        }
        let s = &metrics.shards[0];
        assert_eq!(s.upstream_dials(), 1, "one dial, then keep-alive reuse");
        assert_eq!(s.upstream_reuses(), 2);
        assert_eq!(s.upstream_inflight(), 0, "gauge must settle to zero");
        handle.stop();
        origin.stop();
    }

    /// A dead origin (connection refused) fails the exchange without a
    /// retry — same contract as the threaded pool's checkout error — and
    /// the continuation synthesizes the 502.
    #[test]
    fn upstream_dial_failure_yields_502() {
        let dead = {
            // Grab a port that is certainly closed.
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let handle = serve_reactor(
            0,
            "dead-fwd-reactor",
            ReactorOptions {
                idle_timeout: Duration::from_secs(30),
                ..ReactorOptions::default()
            },
            Arc::new(IoStats::default()),
            Arc::new(ReactorMetrics::new(1)),
            Arc::new(Fwd { origin: dead }),
        )
        .unwrap();
        let mut c = TcpStream::connect(handle.addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        c.write_all(b"GET /x HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        let mut tmp = [0u8; 1024];
        loop {
            match c.read(&mut tmp) {
                Ok(0) => break,
                Ok(n) => {
                    buf.extend_from_slice(&tmp[..n]);
                    if buf.windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
                Err(e) => panic!("read: {e}"),
            }
        }
        let got = String::from_utf8_lossy(&buf);
        assert!(got.starts_with("HTTP/1.1 502"), "got: {got}");
        handle.stop();
    }

    /// A stalled origin (accepts, never answers) trips the upstream
    /// timeout wheel: one counted kill per attempt, retry once, then 502.
    #[test]
    fn upstream_timeout_kills_stalled_exchanges() {
        let stall = crate::util::serve(0, "stall-origin", |stream| {
            let mut r = std::io::BufReader::new(stream);
            let _ = Request::read(&mut r);
            std::thread::sleep(Duration::from_secs(30));
        })
        .unwrap();
        let metrics = Arc::new(ReactorMetrics::new(1));
        let handle = serve_reactor(
            0,
            "stall-fwd-reactor",
            ReactorOptions {
                idle_timeout: Duration::from_secs(30),
                upstream_timeout: Duration::from_millis(300),
                ..ReactorOptions::default()
            },
            Arc::new(IoStats::default()),
            Arc::clone(&metrics),
            Arc::new(Fwd { origin: stall.addr }),
        )
        .unwrap();
        let mut c = TcpStream::connect(handle.addr).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        c.write_all(b"GET /stall HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = [0u8; 64];
        let n = c.read(&mut buf).unwrap();
        assert!(
            buf[..n].starts_with(b"HTTP/1.1 502"),
            "got: {}",
            String::from_utf8_lossy(&buf[..n])
        );
        let s = &metrics.shards[0];
        assert_eq!(s.upstream_timeouts(), 2, "both attempts timed out");
        assert_eq!(s.upstream_inflight(), 0);
        handle.stop();
        stall.stop();
    }
}

//! Shared plumbing for the network daemons: wall-clock mapping, server
//! lifecycle, I/O-mode selection, HTTP dates, and deterministic body
//! synthesis.

use piggyback_core::datetime::Rfc1123;
use piggyback_core::types::{SourceId, Timestamp};
use piggyback_httpwire::HeaderMap;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maps wall-clock time to protocol [`Timestamp`]s (milliseconds since the
/// process's own epoch). It reads no clock after its start: protocol time
/// is always a stamp a poller took, converted.
#[derive(Debug, Clone)]
pub struct Clock {
    start: Instant,
}

impl Clock {
    pub fn new() -> Self {
        Clock {
            start: Instant::now(),
        }
    }

    /// The protocol time at `instant`, a clock reading the caller already
    /// holds.
    pub fn at(&self, instant: Instant) -> Timestamp {
        let elapsed = instant.saturating_duration_since(self.start);
        Timestamp::from_millis(elapsed.as_millis() as u64)
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

/// Which I/O engine a daemon uses to serve its listening socket.
///
/// `Threaded` is the blocking accept-loop + bounded worker pool that every
/// PR so far has used: one worker thread pinned per live connection. It is
/// the A/B baseline and the only mode off Linux. `Reactor` is the epoll
/// readiness loop in [`crate::reactor`]: a few reactor threads each own a
/// `SO_REUSEPORT` listener and multiplex thousands of nonblocking
/// connections. On non-Linux targets `Reactor` silently falls back to
/// `Threaded` so configs stay portable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoMode {
    #[default]
    Threaded,
    /// Epoll reactor with `reactors` shards (0 = size from the machine's
    /// available parallelism, capped at 8).
    Reactor { reactors: usize },
}

impl IoMode {
    /// Parse a `--io` flag value. Accepts `threaded` and `reactor`.
    pub fn parse(s: &str) -> Option<IoMode> {
        match s {
            "threaded" => Some(IoMode::Threaded),
            "reactor" => Some(IoMode::Reactor { reactors: 0 }),
            _ => None,
        }
    }

    pub fn is_reactor(&self) -> bool {
        matches!(self, IoMode::Reactor { .. })
    }
}

/// Accept-side connection accounting, shared by both I/O modes and exported
/// at `/__pb/metrics` (`*_accepts_total`, `*_open_connections`). Gauges are
/// maintained with relaxed atomics: scrapes observe a near-instantaneous
/// snapshot, never perturbing the serve path.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Connections accepted since start (counter).
    pub accepts: AtomicU64,
    /// Connections currently open: accepted and not yet closed (gauge).
    pub open: AtomicU64,
    /// accept() failures that forced a backoff (EMFILE/ENFILE).
    pub accept_errors: AtomicU64,
}

impl IoStats {
    pub fn accepts_total(&self) -> u64 {
        self.accepts.load(Ordering::Relaxed)
    }

    pub fn open_connections(&self) -> u64 {
        self.open.load(Ordering::Relaxed)
    }

    pub fn accept_errors_total(&self) -> u64 {
        self.accept_errors.load(Ordering::Relaxed)
    }
}

/// RAII increment of [`IoStats::open`]; dropping (connection closed or
/// shed) decrements. Threading this *through* the work queue means queued
/// but unserved connections still count as open, matching what a client
/// (and the c10k bench) observes.
pub(crate) struct OpenGuard(Arc<IoStats>);

impl OpenGuard {
    pub(crate) fn new(stats: &Arc<IoStats>) -> Self {
        stats.open.fetch_add(1, Ordering::Relaxed);
        OpenGuard(Arc::clone(stats))
    }
}

impl Drop for OpenGuard {
    fn drop(&mut self) {
        self.0.open.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Sizing for the bounded accept/worker model.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// The most worker threads draining accepted connections. Workers
    /// start on demand, one only when a connection arrives and none is
    /// idle, so this caps the pool rather than sizing it. Persistent
    /// (keep-alive) connections pin a worker for their lifetime, so set
    /// this above the expected concurrent-connection count.
    pub workers: usize,
    /// Accepted connections waiting for a worker. When full, new
    /// connections are dropped (closed) instead of queueing unboundedly.
    pub queue_depth: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            workers: 64,
            queue_depth: 128,
        }
    }
}

/// The bounded handoff between the accept loop and the workers. Workers
/// start on demand, up to one per `wake` slot, and an idle one waits on
/// its own condvar on a stack, so a connection goes to the worker that
/// went idle last: the one whose stack, allocator arena and caches are
/// warm. A worker deeper in the stack runs again only when that many
/// connections are open at once, so a server that sees few at a time
/// keeps few threads' memory resident.
struct WorkQueue {
    inner: Mutex<WorkQueueInner>,
    /// One per worker, indexed as its name is.
    wake: Box<[Condvar]>,
    capacity: usize,
    name: &'static str,
    handler: Arc<dyn Fn(TcpStream) + Send + Sync>,
}

struct WorkQueueInner {
    conns: VecDeque<(TcpStream, OpenGuard)>,
    /// Idle workers, the most recently idle on top.
    idle: Vec<usize>,
    /// Workers running; the next one started is `{name}-worker-{started}`.
    started: usize,
    shutdown: bool,
}

impl WorkQueue {
    fn lock(&self) -> MutexGuard<'_, WorkQueueInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue an accepted connection and wake the most recently idle
    /// worker for it, or start one while fewer than the cap run; `false`
    /// (connection dropped by the caller) when the queue is full, no
    /// worker runs, or the pool is shutting down.
    fn push(self: &Arc<Self>, stream: TcpStream, guard: OpenGuard) -> bool {
        let mut inner = self.lock();
        if inner.shutdown || inner.conns.len() >= self.capacity {
            return false;
        }
        match inner.idle.pop() {
            Some(i) => self.wake[i].notify_one(),
            // A worker that fails to start is not counted, so the next
            // connection tries again.
            None if inner.started < self.wake.len() && self.start(inner.started).is_ok() => {
                inner.started += 1;
            }
            None if inner.started == 0 => return false,
            None => {}
        }
        inner.conns.push_back((stream, guard));
        true
    }

    /// Start worker `i`. Workers are detached: they exit on the queue's
    /// shutdown signal (or with the process), and stop() must not wait on
    /// one pinned by a client that holds its connection open.
    fn start(self: &Arc<Self>, i: usize) -> io::Result<()> {
        let queue = Arc::clone(self);
        std::thread::Builder::new()
            .name(format!("{}-worker-{i}", self.name))
            .spawn(move || {
                let mut done = None;
                while let Some((stream, guard)) = queue.pop(i, done.take()) {
                    (queue.handler)(stream);
                    done = Some(guard);
                }
            })
            .map(drop)
    }

    /// Blocking pop for worker `i`, whose last connection `done` counted;
    /// `None` once shutdown is signalled. A worker with nothing to take
    /// goes on the idle stack before `done` stops counting as open, so a
    /// connection accepted after the gauge falls finds it there.
    fn pop(&self, i: usize, mut done: Option<OpenGuard>) -> Option<(TcpStream, OpenGuard)> {
        let mut inner = self.lock();
        loop {
            if let Some(conn) = inner.conns.pop_front() {
                return Some(conn);
            }
            if inner.shutdown {
                return None;
            }
            // After a spurious wakeup the worker is still on the stack.
            if !inner.idle.contains(&i) {
                inner.idle.push(i);
            }
            drop(done.take());
            inner = self.wake[i].wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn shutdown(&self) {
        let mut inner = self.lock();
        inner.shutdown = true;
        inner.conns.clear();
        for i in std::mem::take(&mut inner.idle) {
            self.wake[i].notify_one();
        }
    }
}

/// Handle to a running server (either I/O mode). Dropping does NOT stop
/// the server; call [`ServerHandle::stop`].
pub struct ServerHandle {
    pub addr: SocketAddr,
    stats: Arc<IoStats>,
    inner: HandleInner,
}

enum HandleInner {
    Threaded {
        stop: Arc<AtomicBool>,
        queue: Arc<WorkQueue>,
        join: Option<JoinHandle<()>>,
    },
    #[cfg(target_os = "linux")]
    Reactor(crate::reactor::ReactorHandle),
}

impl ServerHandle {
    /// Accept-side counters for this listener (both I/O modes).
    pub fn io_stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    /// Handle for injecting detached upstream exchanges into the reactor
    /// shards (reactor-mode servers only).
    #[cfg(target_os = "linux")]
    pub(crate) fn reactor_submitter(&self) -> Option<crate::reactor::ReactorSubmitter> {
        match &self.inner {
            HandleInner::Reactor(handle) => Some(handle.submitter()),
            _ => None,
        }
    }

    #[cfg(target_os = "linux")]
    pub(crate) fn from_reactor(
        addr: SocketAddr,
        stats: Arc<IoStats>,
        handle: crate::reactor::ReactorHandle,
    ) -> Self {
        ServerHandle {
            addr,
            stats,
            inner: HandleInner::Reactor(handle),
        }
    }

    /// Signal shutdown and wait for the accept/reactor loops to exit. Idle
    /// workers exit immediately; workers pinned by a still-open keep-alive
    /// connection finish that connection and then exit (they are detached
    /// daemon threads, so this does not block).
    pub fn stop(self) {
        match self.inner {
            HandleInner::Threaded {
                stop,
                queue,
                mut join,
            } => {
                stop.store(true, Ordering::SeqCst);
                // Unblock accept() with a dummy connection.
                let _ = TcpStream::connect(self.addr);
                if let Some(j) = join.take() {
                    let _ = j.join();
                }
                queue.shutdown();
            }
            #[cfg(target_os = "linux")]
            HandleInner::Reactor(handle) => handle.stop(),
        }
    }
}

/// Bind `127.0.0.1:port` (0 = ephemeral) and serve with the default
/// [`ServeOptions`] until the handle is stopped.
pub fn serve<F>(port: u16, name: &'static str, handler: F) -> io::Result<ServerHandle>
where
    F: Fn(TcpStream) + Send + Sync + 'static,
{
    serve_with(port, name, ServeOptions::default(), handler)
}

/// [`serve_with_stats`] with a private stats block (callers that don't
/// export connection gauges).
pub fn serve_with<F>(
    port: u16,
    name: &'static str,
    opts: ServeOptions,
    handler: F,
) -> io::Result<ServerHandle>
where
    F: Fn(TcpStream) + Send + Sync + 'static,
{
    serve_with_stats(port, name, opts, Arc::new(IoStats::default()), handler)
}

/// EMFILE (process) / ENFILE (system): the fd table is full. Backing off
/// is the only useful response — accept() will keep failing until some
/// other connection closes, and retrying in a tight loop burns a core
/// exactly when the process is least able to spare one.
fn is_fd_exhaustion(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23) | Some(24))
}

/// Bind `127.0.0.1:port` (0 = ephemeral) and dispatch connections to a
/// bounded worker pool: at most `opts.workers` threads, started on demand,
/// pull accepted connections from a queue of at most `opts.queue_depth`,
/// and the most recently idle worker takes the next one. Unlike
/// thread-per-connection this caps both thread count and backlog memory,
/// so an accept storm degrades by shedding connections instead of
/// exhausting the process; and a server that sees few connections at once
/// runs few threads.
///
/// Transient accept errors are survivable by design: ECONNABORTED and
/// friends retry immediately, fd exhaustion (EMFILE/ENFILE) sleeps with
/// doubling backoff (10ms → 100ms cap) so the loop never spins hot while
/// the process is out of descriptors, and resumes as soon as one frees up.
pub fn serve_with_stats<F>(
    port: u16,
    name: &'static str,
    opts: ServeOptions,
    stats: Arc<IoStats>,
    handler: F,
) -> io::Result<ServerHandle>
where
    F: Fn(TcpStream) + Send + Sync + 'static,
{
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let queue = Arc::new(WorkQueue {
        inner: Mutex::new(WorkQueueInner {
            conns: VecDeque::new(),
            idle: Vec::new(),
            started: 0,
            shutdown: false,
        }),
        wake: (0..opts.workers.max(1)).map(|_| Condvar::new()).collect(),
        capacity: opts.queue_depth.max(1),
        name,
        handler: Arc::new(handler),
    });

    let queue2 = Arc::clone(&queue);
    let stats2 = Arc::clone(&stats);
    const BACKOFF_MIN: Duration = Duration::from_millis(10);
    const BACKOFF_MAX: Duration = Duration::from_millis(100);
    let join = std::thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || {
            let mut backoff = BACKOFF_MIN;
            for conn in listener.incoming() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                match conn {
                    Ok(stream) => {
                        backoff = BACKOFF_MIN;
                        stats2.accepts.fetch_add(1, Ordering::Relaxed);
                        // Request/response traffic is latency-bound small
                        // writes; Nagle+delayed-ACK costs ~40ms per stall.
                        let _ = stream.set_nodelay(true);
                        // push() refusing (queue full) drops the stream,
                        // closing the connection: bounded load shedding.
                        let _ = queue2.push(stream, OpenGuard::new(&stats2));
                    }
                    Err(e) if is_fd_exhaustion(&e) => {
                        stats2.accept_errors.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(BACKOFF_MAX);
                    }
                    // ECONNABORTED (peer gone between SYN and accept),
                    // EINTR and the like: transient, retry immediately.
                    Err(_) => continue,
                }
            }
        })?;
    Ok(ServerHandle {
        addr,
        stats,
        inner: HandleInner::Threaded {
            stop,
            queue,
            join: Some(join),
        },
    })
}

#[cfg(target_os = "linux")]
mod rlimit_sys {
    #[repr(C)]
    pub struct RLimit {
        pub cur: u64,
        pub max: u64,
    }

    pub const RLIMIT_NOFILE: i32 = 7;

    extern "C" {
        pub fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        pub fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
}

/// Current `(soft, hard)` RLIMIT_NOFILE. `Unsupported` off Linux.
pub fn nofile_limits() -> io::Result<(u64, u64)> {
    #[cfg(target_os = "linux")]
    {
        let mut rl = rlimit_sys::RLimit { cur: 0, max: 0 };
        if unsafe { rlimit_sys::getrlimit(rlimit_sys::RLIMIT_NOFILE, &mut rl) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((rl.cur, rl.max))
    }
    #[cfg(not(target_os = "linux"))]
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "rlimit queries are linux-only",
    ))
}

/// Set the soft RLIMIT_NOFILE (hard limit unchanged). `Unsupported` off
/// Linux. Used by the accept-backoff regression test (lowering) and the
/// c10k bench (raising).
pub fn set_nofile_soft(soft: u64) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        let (_, hard) = nofile_limits()?;
        let rl = rlimit_sys::RLimit {
            cur: soft.min(hard),
            max: hard,
        };
        if unsafe { rlimit_sys::setrlimit(rlimit_sys::RLIMIT_NOFILE, &rl) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = soft;
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "rlimit changes are linux-only",
        ))
    }
}

/// Best-effort raise of the soft fd limit to at least `want`; returns the
/// effective soft limit afterwards, or 0 when the limits cannot even be
/// queried (so a caller's `effective < want` check fires rather than
/// silently assuming an ample limit). A privileged process may push the
/// *hard* limit too (bounded by `fs.nr_open`) — the c10k bench holds both
/// ends of every connection in one process, which can exceed a container's
/// default hard cap; unprivileged processes clamp to the hard limit.
pub fn raise_nofile_limit(want: u64) -> u64 {
    match nofile_limits() {
        Ok((soft, hard)) => {
            if soft >= want {
                return soft;
            }
            #[cfg(target_os = "linux")]
            if hard < want {
                let rl = rlimit_sys::RLimit {
                    cur: want,
                    max: want,
                };
                if unsafe { rlimit_sys::setrlimit(rlimit_sys::RLIMIT_NOFILE, &rl) } == 0 {
                    return want;
                }
            }
            let target = want.min(hard);
            match set_nofile_soft(target) {
                Ok(()) => target,
                Err(_) => soft,
            }
        }
        Err(_) => 0,
    }
}

/// Unsent bytes above which a client socket stops being writable (Linux
/// `TCP_NOTSENT_LOWAT`): two upstream reads' worth.
const UNSENT_LOWAT: i32 = 128 * 1024;

/// `IPPROTO_TCP` and its `TCP_NOTSENT_LOWAT` option (Linux).
#[cfg(target_os = "linux")]
const IPPROTO_TCP: i32 = 6;
#[cfg(target_os = "linux")]
const TCP_NOTSENT_LOWAT: i32 = 25;

/// The one setup of an accepted client socket, on both pollers: no Nagle
/// delay (request/response traffic is latency-bound small writes), and
/// blocking writes bounded by `write_timeout` (none when `None`, as on the
/// reactor's nonblocking sockets): a write call the client takes no byte
/// of for that long fails. On Linux the socket is also writable only
/// while less than [`UNSENT_LOWAT`] bytes wait unsent, so a blocked write,
/// or a reactor waiting for `EPOLLOUT`, wakes as the client drains them.
/// Without it the kernel wakes the writer only once a third of the send
/// buffer is free, and autotuning grows that buffer to megabytes: a
/// client taking 3 MB/s left one 64 KiB write blocked for half a second.
pub(crate) fn setup_client_socket(
    stream: &TcpStream,
    write_timeout: Option<Duration>,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(write_timeout)?;
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
        }
        let fd = std::os::unix::io::AsRawFd::as_raw_fd(stream);
        let lowat: *const i32 = &UNSENT_LOWAT;
        // SAFETY: a plain `int` option on a live socket; the kernel reads
        // its four bytes during the call.
        if unsafe { setsockopt(fd, IPPROTO_TCP, TCP_NOTSENT_LOWAT, lowat.cast(), 4) } != 0 {
            return Err(io::Error::last_os_error());
        }
    }
    Ok(())
}

/// Map a connection's peer IP to a protocol [`SourceId`] (the low 32 bits
/// of the address). Port-insensitive: all connections from one host count
/// as one source, matching the paper's per-proxy server statistics.
pub fn source_from_addr(addr: SocketAddr) -> SourceId {
    match addr.ip() {
        std::net::IpAddr::V4(v4) => SourceId(u32::from(v4)),
        std::net::IpAddr::V6(v6) => {
            let o = v6.octets();
            SourceId(u32::from_be_bytes([o[12], o[13], o[14], o[15]]))
        }
    }
}

/// Maximum body size the live daemons materialize (big resources are
/// truncated to keep loopback demos fast; metadata keeps the true size).
pub const MAX_LIVE_BODY: usize = 256 * 1024;

/// The length of the synthetic body of a `size`-byte resource: `size`,
/// capped at [`MAX_LIVE_BODY`].
pub(crate) fn synth_len(size: u64) -> usize {
    usize::try_from(size).map_or(MAX_LIVE_BODY, |s| s.min(MAX_LIVE_BODY))
}

/// Fill `body` with `path`'s synthetic pattern, `<!-- {path} -->\n`
/// repeated and cut off at the end: the pattern is written once, then
/// doubled in place.
pub(crate) fn fill_synth_body(path: &str, body: &mut [u8]) {
    let mut n = 0;
    for part in [&b"<!-- "[..], path.as_bytes(), b" -->\n"] {
        let take = part.len().min(body.len() - n);
        body[n..n + take].copy_from_slice(&part[..take]);
        n += take;
    }
    // The filled head is whole periods of the pattern, so a copy of it
    // starts the next period where the head ends.
    while n < body.len() {
        let take = n.min(body.len() - n);
        body.copy_within(..take, n);
        n += take;
    }
}

/// `name: <date>` for `unix` seconds, from the date's stack bytes (no
/// formatter, no `String`); a year past 9999 takes the `Display` path.
pub(crate) fn insert_date(headers: &mut HeaderMap, name: &str, unix: i64) {
    let date = Rfc1123(unix);
    match date.to_bytes() {
        Some(b) => headers.insert(name, std::str::from_utf8(&b).expect("ASCII")),
        None => headers.insert(name, &date.to_string()),
    }
}

/// Deterministic body for `path` of (approximately) `size` bytes.
pub fn synth_body(path: &str, size: u64) -> Vec<u8> {
    let mut body = vec![0; synth_len(size)];
    fill_synth_body(path, &mut body);
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn clock_maps_stamps_monotonically() {
        let c = Clock::new();
        let t0 = Instant::now();
        assert!(c.at(t0 + Duration::from_millis(5)) >= c.at(t0));
        assert_eq!(
            c.at(t0 + Duration::from_secs(60)).as_millis() - c.at(t0).as_millis(),
            60_000
        );
    }

    /// The stack-byte date is `format_rfc1123` byte for byte: 1998-01-01,
    /// the trace epoch, the leap days of 2000 and 2024, the day after the
    /// second, the Unix epoch, the last second of 9999 and the one after.
    #[test]
    fn insert_date_matches_format_rfc1123() {
        use piggyback_core::datetime::{format_rfc1123, DEFAULT_TRACE_EPOCH_UNIX};
        for unix in [
            883_612_800,
            DEFAULT_TRACE_EPOCH_UNIX,
            951_782_400,
            1_709_164_800,
            1_709_251_200,
            0,
            253_402_300_799,
            253_402_300_800,
        ] {
            let mut h = HeaderMap::new();
            insert_date(&mut h, "If-Modified-Since", unix);
            assert_eq!(
                h.get("If-Modified-Since"),
                Some(&*format_rfc1123(unix)),
                "{unix}"
            );
        }
    }

    #[test]
    fn io_mode_parses() {
        assert_eq!(IoMode::parse("threaded"), Some(IoMode::Threaded));
        assert_eq!(
            IoMode::parse("reactor"),
            Some(IoMode::Reactor { reactors: 0 })
        );
        assert_eq!(IoMode::parse("epoll"), None);
        assert_eq!(IoMode::default(), IoMode::Threaded);
    }

    #[test]
    fn synth_body_size_and_determinism() {
        let a = synth_body("/x.html", 1000);
        let b = synth_body("/x.html", 1000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
        assert_eq!(synth_body("/x", 0).len(), 0);
        // Oversize requests are truncated to the live cap.
        assert_eq!(synth_body("/big", 10_000_000).len(), MAX_LIVE_BODY);
    }

    /// The body builder as it was, one pattern-sized append at a time:
    /// the fill must reproduce it byte for byte.
    fn reference_synth_body(path: &str, size: u64) -> Vec<u8> {
        let size = (size as usize).min(MAX_LIVE_BODY);
        let pattern = format!("<!-- {path} -->\n");
        let mut body = Vec::with_capacity(size);
        while body.len() < size {
            let remain = size - body.len();
            let take = remain.min(pattern.len());
            body.extend_from_slice(&pattern.as_bytes()[..take]);
        }
        body
    }

    #[test]
    fn fill_matches_the_reference_body() {
        let path = "/dir3/page17.html";
        let pattern = format!("<!-- {path} -->\n").len() as u64;
        let long = format!("/{}", "x".repeat(4000));
        let cases: [(&str, u64); 10] = [
            (path, 0),
            (path, 1),
            (path, pattern - 1),
            (path, pattern),
            (path, pattern + 1),
            (path, 2048),
            (path, 3000),
            (path, MAX_LIVE_BODY as u64 + 1),
            (&long, 3000),
            ("", 100),
        ];
        for (p, size) in cases {
            let want = reference_synth_body(p, size);
            assert_eq!(
                synth_body(p, size),
                want,
                "path len {} size {size}",
                p.len()
            );
            let mut filled = vec![0xAA; want.len()];
            fill_synth_body(p, &mut filled);
            assert_eq!(filled, want, "fill, path len {} size {size}", p.len());
        }
    }

    /// Both pollers' setup, read back with `getsockopt` on an accepted
    /// loopback socket: `TCP_NODELAY` on, the low-water mark set, and a
    /// write timeout only where the poller blocks.
    #[cfg(target_os = "linux")]
    #[test]
    fn client_socket_setup_reads_back() {
        extern "C" {
            fn getsockopt(fd: i32, level: i32, name: i32, value: *mut u8, len: *mut u32) -> i32;
        }
        const TCP_NODELAY: i32 = 1;
        let int_option = |stream: &TcpStream, name: i32| {
            let fd = std::os::unix::io::AsRawFd::as_raw_fd(stream);
            let (mut value, mut len) = (0i32, 4u32);
            let out: *mut i32 = &mut value;
            // SAFETY: the kernel writes at most `len` (4) bytes into `value`.
            let rc = unsafe { getsockopt(fd, IPPROTO_TCP, name, out.cast(), &mut len) };
            assert_eq!((rc, len), (0, 4), "{}", io::Error::last_os_error());
            value
        };
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let blocking = Some(Duration::from_secs(1));
        for write_timeout in [blocking, None] {
            let _client = TcpStream::connect(addr).unwrap();
            let (accepted, _) = listener.accept().unwrap();
            assert_eq!(int_option(&accepted, TCP_NODELAY), 0, "off before");
            setup_client_socket(&accepted, write_timeout).unwrap();
            assert_ne!(int_option(&accepted, TCP_NODELAY), 0, "{write_timeout:?}");
            assert_eq!(
                int_option(&accepted, TCP_NOTSENT_LOWAT),
                UNSENT_LOWAT,
                "{write_timeout:?}"
            );
            assert_eq!(accepted.write_timeout().unwrap(), write_timeout);
        }
    }

    #[test]
    fn serve_accepts_and_stops() {
        let handle = serve(0, "echo", |mut s| {
            let mut buf = [0u8; 5];
            let _ = s.read_exact(&mut buf);
            let _ = s.write_all(&buf);
        })
        .unwrap();
        let mut c = TcpStream::connect(handle.addr).unwrap();
        c.write_all(b"hello").unwrap();
        let mut back = [0u8; 5];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello");
        assert_eq!(handle.io_stats().accepts_total(), 1);
        handle.stop();
    }

    #[test]
    fn open_connection_gauge_tracks_lifecycle() {
        let handle = serve(0, "gauge-echo", |mut s| {
            let mut buf = [0u8; 5];
            let _ = s.read_exact(&mut buf);
            let _ = s.write_all(&buf);
        })
        .unwrap();
        let stats = Arc::clone(handle.io_stats());
        assert_eq!(stats.open_connections(), 0);
        let mut c = TcpStream::connect(handle.addr).unwrap();
        // Wait for accept to register the connection.
        for _ in 0..100 {
            if stats.open_connections() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(stats.open_connections(), 1);
        c.write_all(b"hello").unwrap();
        let mut back = [0u8; 5];
        c.read_exact(&mut back).unwrap();
        drop(c);
        for _ in 0..100 {
            if stats.open_connections() == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(stats.open_connections(), 0);
        handle.stop();
    }

    /// An echo handler that records the name of each worker it ran on.
    fn naming_echo() -> (
        Arc<Mutex<Vec<String>>>,
        impl Fn(TcpStream) + Send + Sync + 'static,
    ) {
        let names = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&names);
        let echo = move |mut s: TcpStream| {
            let name = std::thread::current().name().unwrap_or("").to_owned();
            seen.lock().unwrap().push(name);
            let mut buf = [0u8; 5];
            let _ = s.read_exact(&mut buf);
            let _ = s.write_all(&buf);
        };
        (names, echo)
    }

    fn distinct(names: &Mutex<Vec<String>>) -> Vec<String> {
        let mut names = names.lock().unwrap().clone();
        names.sort();
        names.dedup();
        names
    }

    fn wait_until_closed(stats: &IoStats) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.open_connections() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(stats.open_connections(), 0);
    }

    fn echo_once(addr: SocketAddr) {
        let mut c = TcpStream::connect(addr).unwrap();
        c.write_all(b"hello").unwrap();
        let mut back = [0u8; 5];
        c.read_exact(&mut back).unwrap();
        assert_eq!(&back, b"hello");
    }

    #[test]
    fn serial_connections_are_served_by_one_worker() {
        let (names, echo) = naming_echo();
        let handle = serve(0, "serial", echo).unwrap();
        for _ in 0..20 {
            // The worker is back on the idle stack once the gauge falls.
            wait_until_closed(handle.io_stats());
            echo_once(handle.addr);
        }
        assert_eq!(names.lock().unwrap().len(), 20);
        assert_eq!(distinct(&names), ["serial-worker-0"]);
        handle.stop();
    }

    #[test]
    fn stop_with_idle_and_unstarted_workers_returns_promptly() {
        let (_, echo) = naming_echo();
        // Dropped once the accept loop and every worker have exited.
        let alive = Arc::new(());
        let held = Arc::clone(&alive);
        let handle = serve_with(
            0,
            "idle-stop",
            ServeOptions {
                workers: 8,
                queue_depth: 8,
            },
            move |s| {
                let _held = &held;
                echo(s)
            },
        )
        .unwrap();
        echo_once(handle.addr);
        wait_until_closed(handle.io_stats());
        let begun = Instant::now();
        handle.stop();
        assert!(
            begun.elapsed() < Duration::from_secs(2),
            "{:?}",
            begun.elapsed()
        );
        // The one idle worker woke and exited; the seven never started.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Arc::strong_count(&alive) > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            Arc::strong_count(&alive),
            1,
            "an idle worker outlived stop()"
        );
    }

    #[test]
    fn worker_pool_serves_more_connections_than_workers() {
        let (names, echo) = naming_echo();
        let handle = serve_with(
            0,
            "par-echo",
            ServeOptions {
                workers: 4,
                queue_depth: 64,
            },
            echo,
        )
        .unwrap();
        let addr = handle.addr;
        let clients: Vec<_> = (0..16)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = TcpStream::connect(addr).unwrap();
                    c.write_all(b"hello").unwrap();
                    let mut back = [0u8; 5];
                    c.read_exact(&mut back).unwrap();
                    assert_eq!(&back, b"hello");
                })
            })
            .collect();
        for c in clients {
            c.join().expect("every connection must be served");
        }
        assert_eq!(names.lock().unwrap().len(), 16);
        let workers = distinct(&names);
        assert!(workers.len() <= 4, "more workers than the cap: {workers:?}");
        handle.stop();
    }

    #[test]
    fn full_queue_sheds_instead_of_growing() {
        use std::sync::mpsc;
        // One worker that blocks until released; queue depth one. The
        // first connection pins the worker, the second fills the queue,
        // the third must be shed (closed without service).
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = std::sync::Mutex::new(release_rx);
        let handle = serve_with(
            0,
            "shed",
            ServeOptions {
                workers: 1,
                queue_depth: 1,
            },
            move |mut s| {
                let _ = release_rx.lock().unwrap().recv();
                let _ = s.write_all(b"ok");
            },
        )
        .unwrap();
        let addr = handle.addr;
        let _pinned = TcpStream::connect(addr).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let _queued = TcpStream::connect(addr).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let mut shed = TcpStream::connect(addr).unwrap();
        // The shed connection is closed unserved: EOF, never "ok".
        shed.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 2];
        match shed.read(&mut buf) {
            Ok(0) => {}
            other => panic!("expected EOF on shed connection, got {other:?}"),
        }
        // Release the worker so the pinned + queued connections finish.
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        handle.stop();
    }
}

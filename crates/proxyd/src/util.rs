//! Shared plumbing for the network daemons: wall-clock mapping, server
//! lifecycle, I/O-mode selection, and deterministic body synthesis.

use piggyback_core::types::{SourceId, Timestamp};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maps wall-clock time to protocol [`Timestamp`]s (milliseconds since the
/// process's own epoch).
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

    pub fn now(&self) -> Timestamp {
        self.at(Instant::now())
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
    /// Worker threads draining accepted connections. Persistent
    /// (keep-alive) connections pin a worker for their lifetime, so size
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

/// The bounded handoff between the accept loop and the workers.
struct WorkQueue {
    inner: std::sync::Mutex<WorkQueueInner>,
    ready: std::sync::Condvar,
    capacity: usize,
}

struct WorkQueueInner {
    conns: std::collections::VecDeque<(TcpStream, OpenGuard)>,
    shutdown: bool,
}

impl WorkQueue {
    fn new(capacity: usize) -> Self {
        WorkQueue {
            inner: std::sync::Mutex::new(WorkQueueInner {
                conns: std::collections::VecDeque::new(),
                shutdown: false,
            }),
            ready: std::sync::Condvar::new(),
            capacity,
        }
    }

    /// Enqueue an accepted connection; `false` (connection dropped by the
    /// caller) when the queue is full or shutting down.
    fn push(&self, stream: TcpStream, guard: OpenGuard) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.shutdown || inner.conns.len() >= self.capacity {
            return false;
        }
        inner.conns.push_back((stream, guard));
        drop(inner);
        self.ready.notify_one();
        true
    }

    /// Blocking pop; `None` once shutdown is signalled and the queue
    /// drained.
    fn pop(&self) -> Option<(TcpStream, OpenGuard)> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(s) = inner.conns.pop_front() {
                return Some(s);
            }
            if inner.shutdown {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn shutdown(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.shutdown = true;
        inner.conns.clear();
        drop(inner);
        self.ready.notify_all();
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
/// bounded worker pool: `opts.workers` threads pull accepted connections
/// from a queue of at most `opts.queue_depth`. Unlike thread-per-connection
/// this caps both thread count and backlog memory, so an accept storm
/// degrades by shedding connections instead of exhausting the process.
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
    let handler = Arc::new(handler);
    let queue = Arc::new(WorkQueue::new(opts.queue_depth.max(1)));

    for i in 0..opts.workers.max(1) {
        let queue = Arc::clone(&queue);
        let handler = Arc::clone(&handler);
        // Workers are detached: they die with the queue's shutdown signal
        // (or the process), and stop() must not wait on one pinned by a
        // client that holds its connection open.
        std::thread::Builder::new()
            .name(format!("{name}-worker-{i}"))
            .spawn(move || {
                while let Some((stream, guard)) = queue.pop() {
                    handler(stream);
                    drop(guard);
                }
            })?;
    }

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

/// Deterministic body for `path` of (approximately) `size` bytes.
pub fn synth_body(path: &str, size: u64) -> Vec<u8> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn clock_is_monotonic() {
        let c = Clock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
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

    #[test]
    fn worker_pool_serves_more_connections_than_workers() {
        let handle = serve_with(
            0,
            "par-echo",
            ServeOptions {
                workers: 4,
                queue_depth: 64,
            },
            |mut s| {
                let mut buf = [0u8; 5];
                let _ = s.read_exact(&mut buf);
                let _ = s.write_all(&buf);
            },
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

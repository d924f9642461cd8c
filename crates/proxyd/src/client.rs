//! A workload-driver HTTP client for the loopback deployments, plus the
//! keep-alive [`ConnectionPool`] the blocking poller runs its upstream
//! exchanges on: a [`PooledConn`] is a socket and its read buffer (16 KiB,
//! grown once to 64 KiB by a read that fills it), and whether it goes back
//! to the pool is the exchange machine's verdict
//! ([`crate::lifecycle::ExchangeMachine::reuse`]).

use crate::lifecycle::{Reuse, UPSTREAM_READ};
use crate::obs::{HistogramSnapshot, LatencyHistogram};
use parking_lot::Mutex;
use piggyback_httpwire::{HttpError, Request, Response};
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Pool behavior counters (a snapshot of [`ConnectionPool`] internals).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh TCP connections opened.
    pub connects: u64,
    /// Checkouts served from the idle list.
    pub reuses: u64,
    /// Idle connections dropped at checkout because the health check
    /// failed (peer closed, or unsolicited bytes ⇒ poisoned framing).
    pub evicted_unhealthy: u64,
    /// Connections refused at checkin because bytes sat unread behind the
    /// response (they would desynchronize the next exchange's framing).
    pub discarded_dirty: u64,
    /// Connections dropped at checkin because the idle list was full.
    pub discarded_full: u64,
}

/// A pooled origin connection. Checked out of a [`ConnectionPool`], used
/// for exactly one exchange at a time, and checked back in with the
/// exchange machine's verdict ([`Reuse`]).
pub struct PooledConn {
    pub stream: TcpStream,
    /// One read's bytes ([`UPSTREAM_READ`], grown once by
    /// [`grow_upstream_read`](crate::lifecycle::grow_upstream_read)),
    /// allocated at the dial and shared by every exchange on the
    /// connection: never the body.
    pub buf: Vec<u8>,
    /// The per-attempt deadline of every exchange on this connection
    /// (PROTOCOL.md §7.1); `None` waits as long as the peer does.
    pub timeout: Option<Duration>,
}

impl PooledConn {
    /// Open a standalone (pool-less) connection — the volume center keeps
    /// one beside each downstream connection.
    pub fn connect(origin: SocketAddr) -> io::Result<Self> {
        Self::dial(origin, None)
    }

    /// Open a connection whose reads and writes each fail after `timeout`.
    fn dial(origin: SocketAddr, timeout: Option<Duration>) -> io::Result<Self> {
        let stream = TcpStream::connect(origin)?;
        stream.set_nodelay(true)?;
        if timeout.is_some() {
            stream.set_read_timeout(timeout)?;
            stream.set_write_timeout(timeout)?;
        }
        Ok(PooledConn {
            stream,
            buf: vec![0; UPSTREAM_READ],
            timeout,
        })
    }
}

/// A bounded keep-alive pool of connections to one origin.
///
/// Checkout pops an idle connection and health-checks it with a
/// non-blocking peek: `WouldBlock` means quiet-and-open (healthy),
/// `Ok(0)` means the peer closed, and `Ok(n)` means the peer sent bytes
/// nobody asked for — a poisoned connection whose framing can no longer
/// be trusted. Unhealthy connections are evicted and the next candidate
/// tried; an empty list falls through to a fresh connect.
pub struct ConnectionPool {
    origin: SocketAddr,
    idle: Mutex<VecDeque<PooledConn>>,
    max_idle: usize,
    pub(crate) timeout: Option<Duration>,
    connects: AtomicU64,
    reuses: AtomicU64,
    evicted_unhealthy: AtomicU64,
    discarded_dirty: AtomicU64,
    discarded_full: AtomicU64,
}

impl ConnectionPool {
    /// A pool holding at most `max_idle` idle connections to `origin`.
    pub fn new(origin: SocketAddr, max_idle: usize) -> Self {
        ConnectionPool {
            origin,
            idle: Mutex::new(VecDeque::new()),
            max_idle,
            timeout: None,
            connects: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            evicted_unhealthy: AtomicU64::new(0),
            discarded_dirty: AtomicU64::new(0),
            discarded_full: AtomicU64::new(0),
        }
    }

    /// Bound every exchange attempt on this pool's connections by
    /// `timeout` (zero: unbounded), as the reactor's upstream wheel does.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout).filter(|t| !t.is_zero());
        self
    }

    pub fn origin(&self) -> SocketAddr {
        self.origin
    }

    /// Idle connections currently pooled.
    pub fn idle_len(&self) -> usize {
        self.idle.lock().len()
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            connects: self.connects.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            evicted_unhealthy: self.evicted_unhealthy.load(Ordering::Relaxed),
            discarded_dirty: self.discarded_dirty.load(Ordering::Relaxed),
            discarded_full: self.discarded_full.load(Ordering::Relaxed),
        }
    }

    /// Get a connection: a health-checked idle one if available, else a
    /// fresh connect.
    pub fn checkout(&self) -> io::Result<PooledConn> {
        loop {
            let candidate = self.idle.lock().pop_front();
            let Some(conn) = candidate else { break };
            if conn_is_quiet(&conn.stream) {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                return Ok(conn);
            }
            self.evicted_unhealthy.fetch_add(1, Ordering::Relaxed);
            // Dropped; try the next idle candidate.
        }
        self.connect_fresh()
    }

    /// Open a fresh connection, bypassing the idle list (used for the
    /// retry after an attempt failed).
    pub fn connect_fresh(&self) -> io::Result<PooledConn> {
        let conn = PooledConn::dial(self.origin, self.timeout)?;
        self.connects.fetch_add(1, Ordering::Relaxed);
        Ok(conn)
    }

    /// Return a connection after an exchange, with the exchange machine's
    /// verdict on it. Pooled only for [`Reuse::Keep`] and while the pool
    /// has room; [`Reuse::Unread`] — bytes behind the response, which
    /// would hand the next caller a desynchronized stream — is counted.
    pub fn checkin(&self, conn: PooledConn, reuse: Reuse) {
        match reuse {
            Reuse::Keep => {}
            Reuse::Unread => {
                self.discarded_dirty.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Reuse::Spent => return,
        }
        let mut idle = self.idle.lock();
        if idle.len() >= self.max_idle {
            drop(idle);
            self.discarded_full.fetch_add(1, Ordering::Relaxed);
            return;
        }
        idle.push_back(conn);
    }
}

/// Open with no readable bytes pending? (`WouldBlock` ⇔ quiet ⇔ healthy.)
/// One `recv(MSG_PEEK | MSG_DONTWAIT)` asks, so the socket never leaves
/// blocking mode and its timeouts stay armed.
#[cfg(any(target_os = "linux", target_os = "android", target_vendor = "apple"))]
fn conn_is_quiet(stream: &TcpStream) -> bool {
    use std::os::unix::io::AsRawFd;
    const MSG_PEEK: i32 = 0x2;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const MSG_DONTWAIT: i32 = 0x40;
    #[cfg(target_vendor = "apple")]
    const MSG_DONTWAIT: i32 = 0x80;
    extern "C" {
        fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    }
    let mut probe = 0u8;
    // SAFETY: a one-byte peek into a live local; the fd is the stream's.
    let n = unsafe { recv(stream.as_raw_fd(), &mut probe, 1, MSG_PEEK | MSG_DONTWAIT) };
    n < 0 && io::Error::last_os_error().kind() == io::ErrorKind::WouldBlock
}

/// Open with no readable bytes pending? (`WouldBlock` ⇔ quiet ⇔ healthy.)
#[cfg(not(any(target_os = "linux", target_os = "android", target_vendor = "apple")))]
fn conn_is_quiet(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let quiet = matches!(
        stream.peek(&mut probe),
        Err(ref e) if e.kind() == io::ErrorKind::WouldBlock
    );
    // A connection we cannot restore to blocking mode is unusable.
    quiet && stream.set_nonblocking(false).is_ok()
}

/// Aggregate results of a driven request sequence.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ClientReport {
    pub requests: u64,
    pub ok: u64,
    pub not_modified: u64,
    pub errors: u64,
    pub bytes: u64,
    pub cache_hits_observed: u64,
    /// Completed HTTP exchanges — every response that contributed a
    /// latency sample, whatever its status. Transport failures (no
    /// response at all) are the only untimed requests. This is the
    /// denominator of [`mean_latency_ms`](Self::mean_latency_ms); dividing
    /// by `requests - errors` instead was biased, because `errors` counts
    /// 404s whose latency *was* accumulated.
    pub timed_requests: u64,
    pub mean_latency_ms: f64,
    /// Per-request latency distribution in microseconds (merge lane
    /// snapshots bucketwise for multi-connection drivers).
    pub histogram: HistogramSnapshot,
}

/// A persistent-connection HTTP client.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    addr: SocketAddr,
}

impl HttpClient {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            addr,
        })
    }

    /// One GET over the persistent connection, reconnecting once if the
    /// peer dropped it.
    pub fn get(&mut self, path: &str, extra: &[(&str, &str)]) -> Result<Response, HttpError> {
        for attempt in 0..2 {
            let mut req = Request::new("GET", path);
            req.headers.insert("Host", "driver");
            for (n, v) in extra {
                req.headers.insert(n, v);
            }
            let result = req
                .write(&mut self.writer)
                .map_err(HttpError::from)
                .and_then(|()| Response::read(&mut self.reader, false));
            match result {
                Ok(resp) => return Ok(resp),
                Err(e) if attempt == 0 => {
                    let stream = TcpStream::connect(self.addr)?;
                    self.reader = BufReader::new(stream.try_clone()?);
                    self.writer = BufWriter::new(stream);
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("loop returns on second attempt")
    }
}

/// Drive a sequence of paths through the target, collecting statistics.
pub fn run_sequence(addr: SocketAddr, paths: &[String]) -> io::Result<ClientReport> {
    let mut client = HttpClient::connect(addr)?;
    let mut report = ClientReport::default();
    let hist = LatencyHistogram::new();
    let mut total_latency_ms = 0.0f64;
    for path in paths {
        report.requests += 1;
        let start = Instant::now();
        match client.get(path, &[]) {
            Ok(resp) => {
                let elapsed = start.elapsed();
                total_latency_ms += elapsed.as_secs_f64() * 1000.0;
                report.timed_requests += 1;
                hist.record(elapsed);
                report.bytes += resp.body.len() as u64;
                match resp.status {
                    200 => report.ok += 1,
                    304 => report.not_modified += 1,
                    _ => report.errors += 1,
                }
                if resp.headers.get("X-Cache") == Some("HIT") {
                    report.cache_hits_observed += 1;
                }
            }
            Err(_) => report.errors += 1,
        }
    }
    if report.timed_requests > 0 {
        report.mean_latency_ms = total_latency_ms / report.timed_requests as f64;
    }
    report.histogram = hist.snapshot();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::{start_origin, OriginConfig};
    use crate::proxy::{start_proxy, ProxyConfig};

    #[test]
    fn drives_origin_directly() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let paths: Vec<String> = origin.paths().into_iter().take(5).collect();
        let report = run_sequence(origin.addr(), &paths).unwrap();
        assert_eq!(report.requests, 5);
        assert_eq!(report.ok, 5);
        assert_eq!(report.errors, 0);
        assert!(report.bytes > 0);
        origin.stop();
    }

    #[test]
    fn observes_proxy_cache_hits() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let proxy = start_proxy(ProxyConfig::new(origin.addr())).unwrap();
        let p = origin.paths()[0].clone();
        let seq = vec![p.clone(), p.clone(), p];
        let report = run_sequence(proxy.addr(), &seq).unwrap();
        assert_eq!(report.ok, 3);
        assert_eq!(report.cache_hits_observed, 2);
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn nonexistent_paths_counted_as_errors() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let report = run_sequence(origin.addr(), &["/nope.html".to_owned()]).unwrap();
        assert_eq!(report.errors, 1);
        origin.stop();
    }

    /// Regression for the biased mean: 404 responses accumulated latency
    /// in the numerator but were excluded from the `requests - errors`
    /// denominator, inflating `mean_latency_ms` on mixed workloads and
    /// zeroing it on all-404 ones. The explicit `timed_requests` count
    /// makes numerator and denominator cover the same exchanges.
    #[test]
    fn latency_mean_counts_every_timed_response() {
        let origin = start_origin(OriginConfig::default()).unwrap();

        // All-404 sequence: each response was timed, so the mean must be
        // defined (the old code divided by requests - errors == 0 and
        // reported 0.0 despite having timed both exchanges).
        let seq = vec!["/nope-a.html".to_owned(), "/nope-b.html".to_owned()];
        let report = run_sequence(origin.addr(), &seq).unwrap();
        assert_eq!(report.errors, 2);
        assert_eq!(report.timed_requests, 2);
        assert!(
            report.mean_latency_ms > 0.0,
            "timed 404s must contribute to the mean: {report:?}"
        );
        assert_eq!(report.histogram.count(), 2);

        // Mixed sequence: mean agrees with the histogram built from the
        // same samples (micros vs ms), which a lopsided denominator breaks.
        let good = origin.paths()[0].clone();
        let seq = vec![good.clone(), "/nope.html".to_owned(), good];
        let report = run_sequence(origin.addr(), &seq).unwrap();
        assert_eq!(report.timed_requests, 3);
        assert_eq!(report.histogram.count(), 3);
        let hist_mean_ms = report.histogram.mean() / 1000.0;
        assert!(
            (report.mean_latency_ms - hist_mean_ms).abs() <= 0.01 + hist_mean_ms * 0.25,
            "mean {} vs histogram mean {}",
            report.mean_latency_ms,
            hist_mean_ms
        );
        origin.stop();
    }

    fn exchange(conn: &mut PooledConn, path: &str) -> Response {
        let mut req = Request::new("GET", path);
        req.headers.insert("Host", "pool.test");
        req.write(&mut conn.stream).unwrap();
        Response::read(&mut BufReader::new(&conn.stream), false).unwrap()
    }

    #[test]
    fn pool_reuses_connections_across_exchanges() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let pool = ConnectionPool::new(origin.addr(), 4);
        let path = origin.paths()[0].clone();

        let mut c1 = pool.checkout().unwrap();
        assert_eq!(pool.stats().reuses, 0);
        assert_eq!(exchange(&mut c1, &path).status, 200);
        pool.checkin(c1, Reuse::Keep);
        assert_eq!(pool.idle_len(), 1);

        let mut c2 = pool.checkout().unwrap();
        assert_eq!(
            pool.stats().reuses,
            1,
            "second checkout must hit the idle list"
        );
        assert_eq!(exchange(&mut c2, &path).status, 200);
        pool.checkin(c2, Reuse::Keep);

        let s = pool.stats();
        assert_eq!(s.connects, 1);
        assert_eq!(s.reuses, 1);
        assert_eq!(s.evicted_unhealthy, 0);
        origin.stop();
    }

    #[test]
    fn pool_evicts_closed_connections_on_checkout() {
        // A server that closes the connection after every response: any
        // pooled connection is dead by the next checkout.
        let oneshot = crate::util::serve(0, "oneshot", |stream| {
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let mut w = BufWriter::new(stream);
            if Request::read(&mut r).is_ok() {
                let mut resp = Response::new(200);
                resp.body = b"once".into();
                let _ = resp.write(&mut w);
            }
            // Handler returns: stream drops, peer sees FIN.
        })
        .unwrap();
        let pool = ConnectionPool::new(oneshot.addr, 4);
        let mut c = pool.checkout().unwrap();
        assert_eq!(exchange(&mut c, "/x").status, 200);
        pool.checkin(c, Reuse::Keep);
        assert_eq!(pool.idle_len(), 1);
        std::thread::sleep(std::time::Duration::from_millis(50));
        // Checkout health-checks the dead idle connection, evicts it, and
        // falls through to a working fresh connect.
        let mut c2 = pool.checkout().unwrap();
        assert_eq!(exchange(&mut c2, "/y").status, 200);
        let s = pool.stats();
        assert_eq!(s.evicted_unhealthy, 1);
        assert_eq!(s.connects, 2);
        assert_eq!(s.reuses, 0, "dead idle connection must not be handed out");
        oneshot.stop();
    }

    /// The one-syscall probe evicts a connection holding one unsolicited
    /// byte, and leaves one that passed it in blocking mode: a read waits
    /// out the read timeout instead of failing at once.
    #[test]
    fn pool_probe_evicts_unsolicited_bytes_and_keeps_blocking_mode() {
        let server = crate::util::serve(0, "chatty", |stream| {
            let mut r = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            while let Ok(req) = Request::read(&mut r) {
                let mut resp = Response::new(200);
                resp.body = b"ok".into();
                let _ = resp.write(&mut w);
                if req.target == "/chatty" {
                    // After the client has read the response.
                    std::thread::sleep(Duration::from_millis(30));
                    let _ = std::io::Write::write_all(&mut w, b"x");
                }
            }
        })
        .unwrap();
        let timeout = Duration::from_millis(150);
        let pool = ConnectionPool::new(server.addr, 4).with_timeout(timeout);
        let mut c = pool.checkout().unwrap();
        assert_eq!(exchange(&mut c, "/chatty").status, 200);
        pool.checkin(c, Reuse::Keep);
        std::thread::sleep(Duration::from_millis(100));
        let mut c = pool.checkout().unwrap();
        let s = pool.stats();
        assert_eq!((s.evicted_unhealthy, s.reuses, s.connects), (1, 0, 2));

        assert_eq!(exchange(&mut c, "/quiet").status, 200);
        pool.checkin(c, Reuse::Keep);
        let mut c = pool.checkout().unwrap();
        assert_eq!(pool.stats().reuses, 1, "a quiet connection passes");
        let start = Instant::now();
        let read = std::io::Read::read(&mut c.stream, &mut [0u8; 1]);
        assert!(read.is_err(), "nothing was sent: {read:?}");
        assert!(
            start.elapsed() >= timeout - Duration::from_millis(20),
            "the read must block until its timeout, not return at once"
        );
        server.stop();
    }

    #[test]
    fn pool_bounds_idle_list() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let pool = ConnectionPool::new(origin.addr(), 2);
        let conns: Vec<_> = (0..4).map(|_| pool.checkout().unwrap()).collect();
        for c in conns {
            pool.checkin(c, Reuse::Keep);
        }
        assert_eq!(pool.idle_len(), 2);
        assert_eq!(pool.stats().discarded_full, 2);
        origin.stop();
    }
}

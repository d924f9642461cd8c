//! The load generator: never more than two threads and two connections.
//!
//! * Open-loop segments: one keep-alive connection, a pacing writer thread
//!   and a timestamping reader thread; latency counts from the moment a
//!   request was *due*, and how late the writer ran is reported.
//! * Closed-loop segments: one connection kept a fixed number of requests
//!   deep by one thread.
//! * Browsing: two users, one thread and one connection each.
//! * Serial (traced run): one request in flight.
//!
//! Every response is checked — status, body length and checksum against
//! the deterministic source, `X-Cache` class — and the steady-state loops
//! allocate nothing, so allocation counts taken around them belong to the
//! daemons.

use crate::alloc;
use crate::sys;
use crate::tap::TapShared;
use crate::wire::{CacheClass, Framed, ResponseFramer};
use crate::workload::{Browse, Expect, Load, Op, PacedSegment, Plan};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A response that does not arrive within this long is a failed
/// operation, and so is everything queued behind it.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);
const READ_BUF: usize = 256 * 1024;

/// Check one response against what the plan says the operation returns.
/// On failure, why (the first one of a segment is printed).
pub fn verify(plan: &Plan, op: Op, got: &Framed) -> Result<(), &'static str> {
    let res = &plan.resources[op.res as usize];
    if got.status != res.status {
        return Err("wrong status");
    }
    if got.body_len != res.len {
        return Err("wrong body length");
    }
    if got.body_sum != res.sum {
        return Err("body checksum mismatch");
    }
    if !op.expect.admits(got.class) {
        return Err("wrong X-Cache class");
    }
    Ok(())
}

fn describe(plan: &Plan, i: usize, op: Op, why: &str, got: &Framed) -> String {
    format!(
        "op {i} {}: {why} (status {}, {} bytes, {})",
        plan.resources[op.res as usize].path,
        got.status,
        got.body_len,
        got.class.as_str()
    )
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    Ok(stream)
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// What one segment did. `None` among the per-operation samples marks a
/// failed operation, which misses every latency figure.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Milliseconds from due time (open loop) or send time to last byte.
    /// Closed-loop segments deeper than one request have no per-operation
    /// clock and leave this empty.
    pub lat_ms: Vec<Option<f64>>,
    /// Milliseconds from the same origin to the first response byte.
    pub ttfb_ms: Vec<Option<f64>>,
    /// Open loop only: how late each request was sent, milliseconds.
    pub lag_ms: Vec<f64>,
    /// Open loop only, requests per second.
    pub offered_rate: f64,
    pub achieved_rate: f64,
    /// Requests completed (browsing counts page loads as operations and
    /// resources as requests; elsewhere the two are the same).
    pub requests: u64,
    /// From the first send to the last completion.
    pub wall_ns: u64,
    /// Process CPU (user + system, the whole in-process chain and the
    /// generator) over the same interval.
    pub cpu_ns: u64,
    /// Time the hypervisor withheld the CPU over the same interval.
    pub stolen_ns: u64,
    /// Closed loop only: how long each timing window took, nanoseconds,
    /// and how many operations a window is.
    pub window_ns: Vec<u64>,
    pub window_ops: usize,
}

impl Outcome {
    fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.first_failure.get_or_insert_with(|| what.into());
    }

    pub fn req_per_s(&self) -> f64 {
        self.requests as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }

    /// Requests per second over the *median* timing window of each of
    /// `blocks` equal parts of the segment: what the chain sustains while
    /// the host leaves it alone. A stall (the hypervisor taking the CPU, an
    /// interrupt storm) lengthens a few windows and the total; it does not
    /// move the median window.
    pub fn median_window_req_per_s(&self, blocks: usize) -> Vec<f64> {
        let per_block = (self.window_ns.len() / blocks.max(1)).max(1);
        self.window_ns
            .chunks(per_block)
            .filter(|block| block.len() == per_block)
            .map(|block| {
                let mut w = block.to_vec();
                w.sort_unstable();
                self.window_ops as f64 / (w[w.len() / 2].max(1) as f64 / 1e9)
            })
            .collect()
    }

    pub fn cpu_us_per_req(&self) -> f64 {
        self.cpu_ns as f64 / 1e3 / self.requests.max(1) as f64
    }
}

// ---------------------------------------------------------------------
// Open loop
// ---------------------------------------------------------------------

/// Lead time before the first arrival, so the writer is never late for
/// it merely because threads were still starting.
const PACED_LEAD_NS: u64 = 2_000_000;

/// A writer this far behind its schedule was not running (the host had
/// taken the CPU, and the chain's with it). It catches up
/// [`CATCH_UP_BURST`] requests per mean arrival gap rather than in one
/// burst: the requests it owes are still timed from when they were due,
/// but the chain is not handed, say, 2 000 requests in one write because
/// the hypervisor paused everybody for 100 ms — a backlog that grows the
/// reactor's output buffer by megabytes for the rest of the run, in the
/// runs where the host happened to do that.
const CATCH_UP_LAG_NS: u64 = 1_000_000;
const CATCH_UP_BURST: usize = 4;

/// Run one open-loop segment.
pub fn run_paced(addr: SocketAddr, plan: &Plan, seg: &PacedSegment) -> io::Result<Outcome> {
    let n = seg.ops.len();
    let stream = connect(addr)?;
    let mut wstream = stream.try_clone()?;
    let mut rstream = stream;
    let abort = AtomicBool::new(false);
    let mut sent_ns = vec![0u64; n];
    let mut first_ns = vec![0u64; n];
    let mut done_ns = vec![0u64; n];
    let mut ok = vec![false; n];
    let mut out = Outcome {
        attempted: n as u64,
        requests: n as u64,
        ..Default::default()
    };
    let t0 = Instant::now();
    let cpu0 = sys::process_cpu_ns();
    let stolen0 = sys::stolen_ns();

    let mean_gap = Duration::from_nanos(seg.due_ns[n - 1] / n as u64);
    out.first_failure = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut owed = 0usize;
            for (i, op) in seg.ops.iter().enumerate() {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let due = seg.due_ns[i] + PACED_LEAD_NS;
                let now = ns(t0.elapsed());
                if now > due + CATCH_UP_LAG_NS {
                    owed += 1;
                    if owed.is_multiple_of(CATCH_UP_BURST) {
                        std::thread::sleep(mean_gap);
                    }
                } else {
                    owed = 0;
                    if due > now {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                }
                sent_ns[i] = ns(t0.elapsed());
                if wstream.write_all(plan.arena.get(op.res)).is_err() {
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
            }
        });

        let mut framer = ResponseFramer::new();
        let mut buf = vec![0u8; READ_BUF];
        let mut next = 0usize;
        let mut failure = None;
        'read: while next < n {
            let got = match rstream.read(&mut buf) {
                Ok(0) => {
                    failure = Some("connection closed".to_owned());
                    break;
                }
                Ok(got) => got,
                Err(e) => {
                    failure = Some(format!("read: {e}"));
                    break;
                }
            };
            let t = ns(t0.elapsed());
            let mut off = 0;
            while off < got {
                if next == n {
                    failure = Some("more responses than requests".to_owned());
                    break 'read;
                }
                if !framer.mid_message() {
                    first_ns[next] = t;
                }
                match framer.advance(&buf[off..got]) {
                    Err(e) => {
                        failure = Some(format!("framing: {}", e.0));
                        break 'read;
                    }
                    Ok((used, done)) => {
                        off += used;
                        let Some(framed) = done else { continue };
                        done_ns[next] = t;
                        match verify(plan, seg.ops[next], &framed) {
                            Ok(()) => ok[next] = true,
                            Err(why) => {
                                failure.get_or_insert_with(|| {
                                    describe(plan, next, seg.ops[next], why, &framed)
                                });
                            }
                        }
                        next += 1;
                    }
                }
            }
        }
        if next < n {
            // Everything still outstanding has failed; stop offering load.
            abort.store(true, Ordering::Relaxed);
            let _ = rstream.shutdown(std::net::Shutdown::Both);
        }
        writer.join().expect("pacing writer panicked");
        failure
    });
    out.wall_ns = ns(t0.elapsed()).saturating_sub(PACED_LEAD_NS);
    out.cpu_ns = sys::process_cpu_ns() - cpu0;
    out.stolen_ns = sys::stolen_ns() - stolen0;

    for i in 0..n {
        let due = seg.due_ns[i] + PACED_LEAD_NS;
        if ok[i] {
            out.lat_ms
                .push(Some(done_ns[i].saturating_sub(due) as f64 / 1e6));
            out.ttfb_ms
                .push(Some(first_ns[i].saturating_sub(due) as f64 / 1e6));
        } else {
            out.failed += 1;
            out.lat_ms.push(None);
            out.ttfb_ms.push(None);
        }
        if sent_ns[i] > 0 {
            out.lag_ms.push(sent_ns[i].saturating_sub(due) as f64 / 1e6);
        }
    }
    let span = |v: &[u64]| (v[n - 1].saturating_sub(v[0])).max(1) as f64 / 1e9;
    out.offered_rate = (n - 1) as f64 / span(&seg.due_ns);
    out.achieved_rate = if sent_ns[n - 1] > 0 {
        (n - 1) as f64 / span(&sent_ns)
    } else {
        0.0
    };
    Ok(out)
}

// ---------------------------------------------------------------------
// Closed loop
// ---------------------------------------------------------------------

/// Run one closed-loop segment: windows of `depth` requests on one
/// connection, the next window sent once the previous one has come back
/// whole.
///
/// Windows rather than a sliding pipeline, and a generator in the
/// `SCHED_IDLE` class (it runs only when the chain has nothing left to
/// do), because generator and chain share one CPU: a sliding window lets
/// the pair settle into whatever batch size the scheduler happened to
/// start it in — one response read and one request sent per wake-up, or
/// sixteen — and each of those regimes has its own cost per request.
pub fn run_closed(
    addr: SocketAddr,
    plan: &Plan,
    ops: &[Op],
    (depth, window): (usize, usize),
) -> io::Result<Outcome> {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                // Refused (the segment then runs in the normal class and
                // is merely noisier) only by a kernel without the class.
                let _ = sys::set_sched_idle();
                closed_loop(addr, plan, ops, depth, window.max(1))
            })
            .join()
            .expect("closed-loop generator panicked")
    })
}

fn closed_loop(
    addr: SocketAddr,
    plan: &Plan,
    ops: &[Op],
    depth: usize,
    window: usize,
) -> io::Result<Outcome> {
    let n = ops.len();
    let mut stream = connect(addr)?;
    let mut out = Outcome {
        attempted: n as u64,
        window_ns: Vec::with_capacity(n / window + 1),
        window_ops: window,
        ..Default::default()
    };
    let mut window_start = 0u64;
    let mut framer = ResponseFramer::new();
    let mut buf = vec![0u8; READ_BUF];
    let mut outbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut sent = 0usize;
    let mut next = 0usize;
    // With one request outstanding every operation has its own clock.
    let per_op = depth == 1;
    let mut sent_at = 0u64;
    let mut first_at = 0u64;

    let t0 = Instant::now();
    let cpu0 = sys::process_cpu_ns();
    let stolen0 = sys::stolen_ns();
    'run: while next < n {
        if next == sent {
            outbuf.clear();
            while sent < n && sent - next < depth {
                outbuf.extend_from_slice(plan.arena.get(ops[sent].res));
                sent += 1;
            }
            sent_at = ns(t0.elapsed());
            if let Err(e) = stream.write_all(&outbuf) {
                out.fail(format!("write: {e}"));
                break;
            }
        }
        let got = match stream.read(&mut buf) {
            Ok(0) => {
                out.fail("connection closed");
                break;
            }
            Ok(got) => got,
            Err(e) => {
                out.fail(format!("read: {e}"));
                break;
            }
        };
        let t = ns(t0.elapsed());
        let mut off = 0;
        while off < got {
            if next == sent {
                out.fail("more responses than requests");
                break 'run;
            }
            if !framer.mid_message() {
                first_at = t;
            }
            match framer.advance(&buf[off..got]) {
                Err(e) => {
                    out.fail(format!("framing: {}", e.0));
                    break 'run;
                }
                Ok((used, done)) => {
                    off += used;
                    let Some(framed) = done else { continue };
                    let verdict = verify(plan, ops[next], &framed);
                    if let Err(why) = verdict {
                        out.fail(describe(plan, next, ops[next], why, &framed));
                    }
                    if per_op {
                        let good = verdict.is_ok();
                        out.lat_ms.push(good.then(|| (t - sent_at) as f64 / 1e6));
                        out.ttfb_ms
                            .push(good.then(|| (first_at - sent_at) as f64 / 1e6));
                    }
                    next += 1;
                    if next.is_multiple_of(window) {
                        out.window_ns.push(t - window_start);
                        window_start = t;
                    }
                }
            }
        }
    }
    out.wall_ns = ns(t0.elapsed());
    out.cpu_ns = sys::process_cpu_ns() - cpu0;
    out.stolen_ns = sys::stolen_ns() - stolen0;
    out.requests = next as u64;
    // Operations never answered have failed too.
    out.failed += (n - next) as u64;
    Ok(out)
}

// ---------------------------------------------------------------------
// Browsing users
// ---------------------------------------------------------------------

/// One connection with one request in flight: send, read to the end of
/// the response, report when the first and the last byte came.
struct Conn {
    stream: TcpStream,
    framer: ResponseFramer,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        Ok(Conn {
            stream: connect(addr)?,
            framer: ResponseFramer::new(),
            buf: vec![0u8; READ_BUF],
        })
    }

    /// Returns (framed response, first-byte instant, last-byte instant).
    fn get(&mut self, request: &[u8]) -> Result<(Framed, Instant, Instant), String> {
        self.stream
            .write_all(request)
            .map_err(|e| format!("write: {e}"))?;
        let mut first = None;
        loop {
            let got = match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("connection closed".into()),
                Ok(got) => got,
                Err(e) => return Err(format!("read: {e}")),
            };
            let t = Instant::now();
            first.get_or_insert(t);
            let (used, done) = self
                .framer
                .advance(&self.buf[..got])
                .map_err(|e| format!("framing: {}", e.0))?;
            if let Some(framed) = done {
                if used != got {
                    return Err("bytes after the response".into());
                }
                return Ok((framed, first.unwrap_or(t), t));
            }
        }
    }
}

/// What one user measured, load by load.
struct UserOutcome {
    lat_ms: Vec<Option<f64>>,
    ttfb_ms: Vec<Option<f64>>,
    failed: u64,
    first_failure: Option<String>,
}

/// Returns (page-load milliseconds, milliseconds to the page document's
/// first byte).
fn page_load(
    conn: &mut Conn,
    plan: &Plan,
    load: &Load,
    resources_done: &AtomicU64,
) -> Result<(f64, f64), String> {
    if let Some(control) = load.modify {
        // Control traffic: checked, but outside the operation's clock.
        let (framed, _, _) = conn.get(plan.arena.get(control))?;
        let op = Op {
            res: control,
            expect: Expect::Control,
        };
        verify(plan, op, &framed).map_err(|why| format!("modify: {why}"))?;
    }
    let start = Instant::now();
    let mut ttfb = 0.0;
    for (i, res) in std::iter::once(load.page)
        .chain(load.images.iter().copied())
        .enumerate()
    {
        let (framed, first, _) = conn.get(plan.arena.get(res))?;
        let op = Op {
            res,
            expect: Expect::Any,
        };
        verify(plan, op, &framed)
            .map_err(|why| format!("{}: {why}", plan.resources[res as usize].path))?;
        if i == 0 {
            ttfb = (first - start).as_secs_f64() * 1e3;
        }
        resources_done.fetch_add(1, Ordering::Relaxed);
    }
    Ok((start.elapsed().as_secs_f64() * 1e3, ttfb))
}

fn run_user(
    addr: SocketAddr,
    plan: &Plan,
    loads: &[Load],
    think: Duration,
    resources_done: &AtomicU64,
) -> UserOutcome {
    let mut out = UserOutcome {
        lat_ms: Vec::with_capacity(loads.len()),
        ttfb_ms: Vec::with_capacity(loads.len()),
        failed: 0,
        first_failure: None,
    };
    let mut conn = Conn::open(addr);
    for (i, load) in loads.iter().enumerate() {
        let result = match &mut conn {
            Ok(c) => page_load(c, plan, load, resources_done),
            Err(e) => Err(format!("connect: {e}")),
        };
        match result {
            Ok((lat, ttfb)) => {
                out.lat_ms.push(Some(lat));
                out.ttfb_ms.push(Some(ttfb));
            }
            Err(why) => {
                out.failed += 1;
                out.first_failure
                    .get_or_insert_with(|| format!("load {i}: {why}"));
                out.lat_ms.push(None);
                out.ttfb_ms.push(None);
                // The connection's framing state is unknown: start afresh.
                conn = Conn::open(addr);
            }
        }
        std::thread::sleep(think);
    }
    out
}

/// Run every user's loads `range` concurrently, one thread each. An
/// operation is a page load; `requests` counts the resources fetched.
pub fn run_browse(
    addr: SocketAddr,
    plan: &Plan,
    browse: &Browse,
    range: std::ops::Range<usize>,
) -> Outcome {
    let resources_done = AtomicU64::new(0);
    let t0 = Instant::now();
    let cpu0 = sys::process_cpu_ns();
    let stolen0 = sys::stolen_ns();
    let users: Vec<UserOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = browse
            .users
            .iter()
            .map(|loads| {
                let loads = &loads[range.clone()];
                let done = &resources_done;
                scope.spawn(move || run_user(addr, plan, loads, browse.think, done))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("browsing user panicked"))
            .collect()
    });
    let mut out = Outcome {
        attempted: (range.len() * users.len()) as u64,
        requests: resources_done.load(Ordering::Relaxed),
        wall_ns: ns(t0.elapsed()),
        cpu_ns: sys::process_cpu_ns() - cpu0,
        stolen_ns: sys::stolen_ns() - stolen0,
        ..Default::default()
    };
    for u in users {
        out.failed += u.failed;
        out.lat_ms.extend(u.lat_ms);
        out.ttfb_ms.extend(u.ttfb_ms);
        if out.first_failure.is_none() {
            out.first_failure = u.first_failure;
        }
    }
    out
}

// ---------------------------------------------------------------------
// Serial (traced run)
// ---------------------------------------------------------------------

/// One operation of a serial pass.
#[derive(Debug, Clone, Copy)]
pub struct SerialSample {
    pub ok: bool,
    pub control: bool,
    pub class: CacheClass,
    pub lat_ns: u64,
    pub ttfb_ns: u64,
    /// Process CPU, this thread's CPU and heap allocations between the
    /// moment before this request was sent and the moment before the next.
    pub cpu_ns: u64,
    pub own_cpu_ns: u64,
    pub allocs: u64,
}

/// Run `ops` one at a time on one connection, sleeping `think` before each
/// index listed in `pauses` (the page-load boundaries of a browsing list).
/// With `taps`, each operation is announced to the taps first and closes a
/// root span afterwards.
pub fn run_serial(
    addr: SocketAddr,
    plan: &Plan,
    ops: &[Op],
    (pauses, think): (&[usize], Duration),
    taps: Option<&TapShared>,
) -> (Vec<SerialSample>, Option<String>) {
    let mut samples = Vec::with_capacity(ops.len());
    let mut first_failure = None;
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(e) => return (samples, Some(format!("connect: {e}"))),
    };
    let boundary = || (sys::process_cpu_ns(), sys::thread_cpu_ns(), alloc::count());
    let mut pauses = pauses.iter().copied().peekable();
    let mut before = boundary();
    for (i, &op) in ops.iter().enumerate() {
        if pauses.next_if_eq(&i).is_some() {
            std::thread::sleep(think);
            // What the chain did while the user was thinking (speculative
            // fetches) is not this request's cost.
            before = boundary();
        }
        let path = plan.resources[op.res as usize].path.as_str();
        let req = i as u64 + 1;
        let root = taps.map(|t| (t.begin_op(req, path), t.now_ns()));
        let sent = Instant::now();
        let result = conn.get(plan.arena.get(op.res));
        let after = boundary();
        let mut sample = SerialSample {
            ok: false,
            control: op.expect == Expect::Control,
            class: CacheClass::None,
            lat_ns: 0,
            ttfb_ns: 0,
            cpu_ns: after.0 - before.0,
            own_cpu_ns: after.1 - before.1,
            allocs: after.2 - before.2,
        };
        before = after;
        match result {
            Ok((framed, first, last)) => {
                sample.class = framed.class;
                sample.lat_ns = ns(last - sent);
                sample.ttfb_ns = ns(first - sent);
                match verify(plan, op, &framed) {
                    Ok(()) => sample.ok = true,
                    Err(why) => {
                        first_failure.get_or_insert_with(|| describe(plan, i, op, why, &framed));
                    }
                }
                if let (Some(t), Some((id, start_ns))) = (taps, root) {
                    t.end_op(
                        id,
                        req,
                        path,
                        start_ns,
                        start_ns + sample.ttfb_ns,
                        framed.status,
                        framed.class.as_str(),
                        framed.wire_len,
                    );
                }
                samples.push(sample);
            }
            Err(why) => {
                first_failure.get_or_insert_with(|| format!("op {i} {path}: {why}"));
                // Nothing sensible can follow on a broken connection: this
                // operation and every one behind it has failed.
                samples.resize(ops.len(), sample);
                break;
            }
        }
    }
    (samples, first_failure)
}

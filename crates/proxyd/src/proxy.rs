//! A caching proxy that speaks the piggyback protocol upstream.
//!
//! The proxy half of Section 2.1: client requests are served from a
//! byte-bounded cache with a freshness interval Δ; misses and expired
//! entries go upstream with a `Piggy-filter` header (including the RPV
//! list) and `TE: chunked`; `P-volume` piggybacks in the response trailer
//! freshen or invalidate cached entries.
//!
//! ## Concurrency model
//!
//! Proxy state is split into independently locked pieces so parallel
//! requests only contend when they touch the same resource shard:
//!
//! * the cache is an N-way [`ShardedCache`] keyed by resource hash, with
//!   the body store co-sharded by the same hash;
//! * the resource table sits behind a read/write lock (lookups are reads);
//! * statistics are lock-free atomics ([`AtomicProxyStats`]);
//! * upstream fetches check keep-alive connections out of a bounded,
//!   health-checked [`ConnectionPool`] (the threaded engine's, and every
//!   speculative fetch's) or a reactor shard's idle list instead of
//!   reconnecting per fetch.
//!
//! ## One service, two pollers
//!
//! The proxy is one [`Service`]: planning ([`plan_request`]) resolves a
//! request to a reply or an [`UpstreamJob`], and the job rides an
//! [`UpstreamPlan`] (or a [`Join`] on a speculation) as data. Either
//! poller — the blocking one of [`crate::service`] or the epoll reactor —
//! runs the plan and hands the job back with its outcome to
//! [`Service::settle`], which passes it to the settle functions of
//! [`crate::lifecycle`]: they write what the job does to the cache, the
//! counters and the client's answer once, socket-free (PROTOCOL.md §12).

use crate::client::{ConnectionPool, PoolStats};
use crate::lifecycle::{self, Settled, UpstreamJob, UpstreamOutcome};
use crate::obs::{render_histogram, render_scalar, render_transport, ProxyObs};
use crate::origin::strip_origin_form;
use crate::prefetch::{self, Prefetcher, Speculation};
use crate::service::{serve_blocking, Served, Service, UpstreamPlan, Waker};
use crate::stats::AtomicProxyStats;
pub use crate::stats::ProxyStats;
use crate::util::{Clock, IoMode, IoStats, ServeOptions, ServerHandle};
use parking_lot::{Mutex, RwLock};
use piggyback_core::datetime::{unix_from_timestamp, Rfc1123, DEFAULT_TRACE_EPOCH_UNIX};
use piggyback_core::filter::{ProxyFilter, PIGGY_FILTER_HEADER};
use piggyback_core::report::HitReporter;
use piggyback_core::rpv::RpvList;
use piggyback_core::table::ResourceTable;
use piggyback_core::types::{DurationMs, ResourceId, Timestamp};
use piggyback_httpwire::{parse, push_decimal, Body, ConnScratch, HeaderMap, Request, Response};
use piggyback_webcache::{CacheEntry, PolicyKind, ShardedBodyStore, ShardedCache};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Admin path the proxy answers locally (never forwarded upstream).
pub const METRICS_PATH: &str = "/__pb/metrics";

/// Proxy configuration.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// 0 picks an ephemeral port.
    pub port: u16,
    pub origin: SocketAddr,
    pub capacity_bytes: u64,
    /// The freshness interval Δ.
    pub freshness: DurationMs,
    /// Content-oriented filter template sent upstream.
    pub filter: ProxyFilter,
    /// RPV list bounds (length, timeout); `None` disables RPV.
    pub rpv: Option<(usize, DurationMs)>,
    pub policy: PolicyKind,
    /// Report cache-served accesses upstream via `Piggy-report`
    /// (Section 5 extension).
    pub report_hits: bool,
    /// Cache/body shard count (clamped to at least 1).
    pub shards: usize,
    /// Idle origin connections the pool retains.
    pub pool_max_idle: usize,
    /// Accept-loop worker/queue sizing of the threaded engine's blocking
    /// poller; the reactor spawns no worker threads.
    pub serve: ServeOptions,
    /// Serve the Prometheus admin endpoint `GET /__pb/metrics`
    /// (`pb-proxy --no-metrics` disables it; disabled scrapes get a local
    /// 404, never a proxied fetch).
    pub metrics: bool,
    /// Client-side I/O engine. [`IoMode::Reactor`] (Linux only; silently
    /// falls back to `Threaded` elsewhere) multiplexes connections on an
    /// epoll readiness loop instead of pinning a worker thread each. Both
    /// engines poll the one proxy service, so their wire bytes are
    /// identical.
    pub io: IoMode,
    /// Idle/read deadline for client connections (`--idle-timeout-secs`),
    /// on both engines.
    pub reactor_idle_timeout: std::time::Duration,
    /// Per-attempt deadline for an upstream exchange
    /// (`--upstream-timeout-secs`), on both engines: a stalled or
    /// trickling origin leg is killed when it passes (retried once, then
    /// 502). Also the reactor's idle reaping horizon for parked upstream
    /// connections.
    pub upstream_timeout: std::time::Duration,
    /// Maximum concurrent speculative fetches acting on piggybacked
    /// `PrefetchCandidate` elements; 0 disables the prefetcher (the seed
    /// behavior: candidates are only counted).
    pub prefetch_budget: usize,
    /// Response bodies at or above this many bytes take the streaming
    /// cut-through path on a miss: relayed to the client in bounded
    /// segments as they arrive from the origin, never materialized or
    /// cached whole. 0 disables streaming (every miss buffers, the seed
    /// behavior).
    pub stream_threshold: usize,
    /// Leading bytes of each streamed object teed into the body store as
    /// a [`Body::prefix`] entry, so a repeat request serves the head at
    /// cache-hit latency while only the suffix streams from the origin.
    /// 0 disables prefix caching.
    pub prefix_bytes: usize,
    /// Largest client request body accepted; beyond it the proxy answers
    /// `413 Payload Too Large` instead of buffering without bound.
    pub client_body_cap: usize,
}

impl ProxyConfig {
    pub fn new(origin: SocketAddr) -> Self {
        ProxyConfig {
            port: 0,
            origin,
            capacity_bytes: 32 * 1024 * 1024,
            freshness: DurationMs::from_secs(60),
            filter: ProxyFilter::builder().max_piggy(10).build(),
            rpv: Some((16, DurationMs::from_secs(30))),
            policy: PolicyKind::Lru,
            report_hits: true,
            shards: 8,
            pool_max_idle: 32,
            serve: ServeOptions::default(),
            metrics: true,
            io: IoMode::default(),
            reactor_idle_timeout: std::time::Duration::from_secs(120),
            upstream_timeout: std::time::Duration::from_secs(30),
            prefetch_budget: 0,
            stream_threshold: 256 * 1024,
            prefix_bytes: 64 * 1024,
            client_body_cap: parse::MAX_BODY,
        }
    }
}

/// Shared proxy state; every piece locks independently (or not at all).
/// `pub(crate)` because the lifecycle functions ([`crate::lifecycle`]) and
/// the prefetch workers ([`crate::prefetch`]) operate on the same
/// cache/table/pool/stats the request path does.
pub(crate) struct ProxyShared {
    pub(crate) cfg: ProxyConfig,
    pub(crate) clock: Clock,
    /// Path ↔ id mapping. Grows monotonically (ids are never removed), so
    /// lookups take the read lock and only first-registrations write.
    pub(crate) table: RwLock<ResourceTable>,
    pub(crate) cache: ShardedCache,
    /// Cached bodies as shared [`Body`]s, co-sharded with `cache` via the
    /// same hash so shard i of the cache and shard i of the bodies cover
    /// the same resources. A hit clones the `Body` (a refcount bump) —
    /// the stored bytes are never copied again after the retain-time copy.
    pub(crate) bodies: ShardedBodyStore,
    /// The RPV list of the one upstream (docs/PROTOCOL.md §2): every client's
    /// requests reach the same server, so they share its pacing.
    pub(crate) rpv: Option<Mutex<RpvList>>,
    reporter: Mutex<HitReporter>,
    pub(crate) stats: AtomicProxyStats,
    /// Latency histograms + piggyback-overhead accounting (lock-free).
    pub(crate) obs: ProxyObs,
    /// Keep-alive origin pool of the blocking poller's plans and of every
    /// speculative fetch: the prefetch crew runs its plans on it under
    /// either engine, so on the reactor it carries speculation only.
    pub(crate) pool: Arc<ConnectionPool>,
    /// The speculative fetch engine (`--prefetch-budget > 0`). `OnceLock`
    /// because it is started after the `Arc` is built — the workers hold
    /// a `Weak` back-reference.
    pub(crate) prefetcher: OnceLock<Arc<Prefetcher>>,
    /// Accept-side counters (both I/O modes), exported at the scrape.
    io_stats: Arc<IoStats>,
    /// Per-reactor-shard gauges when running in reactor mode.
    #[cfg(target_os = "linux")]
    reactor_metrics: Option<Arc<crate::reactor::ReactorMetrics>>,
}

impl ProxyShared {
    /// Account one request answered from a fresh cache entry.
    pub(crate) fn note_fresh_hit(&self, path: &str, start: Instant) {
        self.stats.cache_hits.fetch_add(1, Relaxed);
        self.stats.fresh_hits.fetch_add(1, Relaxed);
        if self.cfg.report_hits {
            self.reporter.lock().record_hit(path);
        }
        self.obs.fresh_hit.record(start.elapsed());
    }

    /// Fold a poller's [`HitTally`] into the shared counters, the
    /// `fresh_hit` histogram and the hit reporter. Every hit it holds is
    /// sampled as its batch's arrival to now, when the batch is staged.
    fn fold(&self, tally: &mut HitTally) {
        let Some(since) = tally.since.take() else {
            return;
        };
        let (n, s) = (std::mem::take(&mut tally.hits), &self.stats);
        for counter in [&s.requests, &s.affine_hits, &s.cache_hits, &s.fresh_hits] {
            counter.fetch_add(n, Relaxed);
        }
        self.obs.fresh_hit.record_n(since.elapsed(), n);
        if !tally.reports.is_empty() {
            let (table, mut reporter) = (self.table.read(), self.reporter.lock());
            for (r, hits) in tally.reports.drain(..) {
                if let Some(path) = table.path(r) {
                    reporter.record_hits(path, hits);
                }
            }
        }
    }
}

/// A running proxy.
pub struct ProxyHandle {
    handle: ServerHandle,
    shared: Arc<ProxyShared>,
}

impl ProxyHandle {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr
    }

    pub fn stats(&self) -> ProxyStats {
        self.shared.stats.snapshot()
    }

    /// Origin-pool counters (always `Some`; the `Option` predates the
    /// pool being unconditional).
    pub fn pool_stats(&self) -> Option<PoolStats> {
        Some(self.shared.pool.stats())
    }

    /// Latency/piggyback-overhead histograms (lock-free snapshots).
    pub fn obs(&self) -> &ProxyObs {
        &self.shared.obs
    }

    /// Accept-side counters: accepts, open connections, accept backoffs.
    pub fn io_stats(&self) -> &Arc<IoStats> {
        &self.shared.io_stats
    }

    /// The proxy's [`Service`] over this proxy's state, for a test that
    /// drives it without a poller, with chosen stamps and scripted
    /// upstream outcomes.
    pub fn service(&self) -> ProxySvc {
        ProxySvc {
            shared: Arc::clone(&self.shared),
        }
    }

    pub fn stop(self) {
        // Drain the speculative fetchers first so no prefetch worker is
        // mid-exchange while the listener tears down.
        if let Some(p) = self.shared.prefetcher.get() {
            p.shutdown();
        }
        self.handle.stop();
    }
}

/// Start the proxy.
pub fn start_proxy(cfg: ProxyConfig) -> io::Result<ProxyHandle> {
    let shards = cfg.shards.max(1);
    let io_stats = Arc::new(IoStats::default());
    #[cfg(target_os = "linux")]
    let reactor_metrics = match cfg.io {
        IoMode::Reactor { reactors } => Some(Arc::new(crate::reactor::ReactorMetrics::new(
            crate::reactor::resolve_reactors(reactors),
        ))),
        IoMode::Threaded => None,
    };
    let shared = Arc::new(ProxyShared {
        clock: Clock::new(),
        table: RwLock::new(ResourceTable::new()),
        cache: ShardedCache::new(cfg.capacity_bytes, shards, cfg.policy),
        // Prefix heads live under their own byte economy: an eighth of
        // the metadata cache's capacity, split per shard, retained by
        // recency (hits and piggybacked volume mentions both refresh).
        bodies: ShardedBodyStore::with_prefix_budget(shards, cfg.capacity_bytes / 8),
        rpv: cfg.rpv.map(|(len, t)| Mutex::new(RpvList::new(len, t))),
        reporter: Mutex::new(HitReporter::new()),
        stats: AtomicProxyStats::new(),
        obs: ProxyObs::default(),
        pool: Arc::new(
            ConnectionPool::new(cfg.origin, cfg.pool_max_idle).with_timeout(cfg.upstream_timeout),
        ),
        prefetcher: OnceLock::new(),
        io_stats: Arc::clone(&io_stats),
        #[cfg(target_os = "linux")]
        reactor_metrics: reactor_metrics.clone(),
        cfg,
    });
    if shared.cfg.prefetch_budget > 0 {
        let p = Prefetcher::start(shared.cfg.prefetch_budget, Arc::downgrade(&shared));
        let _ = shared.prefetcher.set(Arc::new(p));
    }
    let svc = Arc::new(ProxySvc {
        shared: Arc::clone(&shared),
    });
    let cfg = &shared.cfg;
    #[cfg(target_os = "linux")]
    if let Some(metrics) = reactor_metrics {
        let opts = crate::reactor::ReactorOptions {
            idle_timeout: cfg.reactor_idle_timeout,
            upstream_timeout: cfg.upstream_timeout,
            // The same retention knob as the threaded pool, so
            // `pool_max_idle: 0` forbids upstream keep-alives in both
            // I/O modes (per reactor shard here, globally there).
            upstream_max_idle: cfg.pool_max_idle,
        };
        let handle =
            crate::reactor::serve_reactor(cfg.port, "proxy", opts, io_stats, metrics, svc)?;
        return Ok(ProxyHandle { handle, shared });
    }
    let pool = Some(Arc::clone(&shared.pool));
    let idle = cfg.reactor_idle_timeout;
    let handle = serve_blocking(cfg.port, "proxy", cfg.serve, io_stats, idle, pool, svc)?;
    Ok(ProxyHandle { handle, shared })
}

/// The proxy as a [`Service`]: cache hits, metrics, and synthesized errors
/// serialize inline; upstream fetches become [`UpstreamPlan`]s the poller
/// runs, and a demand miss joined to an in-flight speculation parks on a
/// [`Join`] until the speculation settles.
pub struct ProxySvc {
    shared: Arc<ProxyShared>,
}

/// A demand miss joined to an in-flight speculation of its path: the
/// wait a parked connection registers ([`Service::park`]), and the job
/// its waker delivers back when the speculation settles.
pub struct Join {
    spec: Speculation,
    job: UpstreamJob,
}

/// A poller's lock-free affine L1 — one per reactor shard, one per
/// connection on the blocking poller: the last fresh hits it served,
/// revalidated by the cache's global
/// [`mutation_epoch`](piggyback_webcache::ShardedCache::mutation_epoch)
/// so a repeat hit costs zero shard-lock acquisitions while the cache is
/// quiescent. Every entry was filled under one epoch, certified around the
/// locked lookup that filled it, and the first request that finds the
/// cache's epoch moved clears the map, so the bodies it holds are ones
/// the cache held at that epoch. An entry is serveable while it is still fresh
/// at its batch's arrival (the poller's clock stamp, so the hit reads no
/// clock). Any cache mutation anywhere invalidates the whole L1 —
/// conservative, but what makes the shortcut correct without per-entry
/// coherence.
///
/// Accepted divergence from the locked path: an L1 hit does not touch LRU
/// recency (the filling lookup already did, and eviction order is not
/// part of the wire contract). Wire bytes are identical.
///
/// An L1 hit writes only this poller-local memory: its head is stored in
/// the entry, and its accounting goes to the [`HitTally`].
#[derive(Default)]
pub struct ProxyCtx {
    l1: HashMap<String, L1Hit>,
    /// The mutation epoch every entry of `l1` was filled under.
    epoch: u64,
    tally: HitTally,
}

struct L1Hit {
    head: HitHead,
    body: Body,
    r: ResourceId,
    expires: Timestamp,
}

/// What L1 hits owe the shared state, held where the poller serves them:
/// their count, when their batch arrived, and their `Piggy-report` counts
/// by resource (the path is resolved at the fold). [`ProxyShared::fold`]
/// pays it off at the end of every batch, before the batch's responses
/// are written, and before anything in the batch reads what it owes.
#[derive(Default)]
struct HitTally {
    hits: u64,
    since: Option<Instant>,
    reports: Vec<(ResourceId, u64)>,
}

impl HitTally {
    /// One hit of the batch that arrived at `now`, reported for `r` if
    /// set.
    fn hit(&mut self, now: Instant, r: Option<ResourceId>) {
        if let Some(r) = r {
            match self.reports.iter_mut().find(|(id, _)| *id == r) {
                Some((_, hits)) => *hits += 1,
                None => self.reports.push((r, 1)),
            }
        }
        self.hits += 1;
        self.since.get_or_insert(now);
    }
}

/// Distinct resources a tally reports before it folds early.
const TALLY_REPORTS: usize = 64;

/// A fresh hit's response head — `Last-Modified`, `X-Cache: HIT` and
/// `Content-Length` — encoded once and kept inline, so an L1 entry
/// carries it with no allocation of its own.
struct HitHead {
    len: u8,
    bytes: [u8; HIT_HEAD_MAX],
}

/// Room for the head with its 29-byte date and a 20-digit length.
const HIT_HEAD_MAX: usize = 128;

impl HitHead {
    /// Append the head of a hit on a `body_len`-byte body last modified
    /// at `lm` to `out` (the RFC 1123 date by [`Rfc1123::encode`], the
    /// length by a digit loop), and keep a copy when it fits. With the
    /// body behind it, the bytes are `cached_response(body, lm, "HIT")`
    /// serialized, which `hit_bytes_match_cached_response` pins down.
    fn append(out: &mut Vec<u8>, lm: Timestamp, body_len: usize) -> Option<HitHead> {
        let at = out.len();
        out.extend_from_slice(b"HTTP/1.1 200 OK\r\nLast-Modified: ");
        Rfc1123(unix_from_timestamp(lm, DEFAULT_TRACE_EPOCH_UNIX)).encode(out);
        out.extend_from_slice(b"\r\nX-Cache: HIT\r\nContent-Length: ");
        push_decimal(out, body_len);
        out.extend_from_slice(b"\r\n\r\n");
        let head = out.get(at..).filter(|h| h.len() <= HIT_HEAD_MAX)?;
        let mut bytes = [0; HIT_HEAD_MAX];
        bytes[..head.len()].copy_from_slice(head);
        Some(HitHead {
            len: head.len() as u8,
            bytes,
        })
    }

    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

/// Paths the affine L1 retains before clearing itself wholesale — a tiny
/// bound; the point is repeat hits on a hot set, not a second cache tier.
const L1_CAP: usize = 1024;

impl Service for ProxySvc {
    type Ctx = ProxyCtx;
    type Job = UpstreamJob;
    type Wait = Join;

    fn make_ctx(&self) -> ProxyCtx {
        ProxyCtx::default()
    }

    fn body_cap(&self) -> usize {
        self.shared.cfg.client_body_cap
    }

    fn end_batch(&self, ctx: &mut ProxyCtx) {
        self.shared.fold(&mut ctx.tally);
    }

    fn handle(
        &self,
        req: &Request,
        _peer: SocketAddr,
        now: Instant,
        ctx: &mut ProxyCtx,
        scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<Served<Self>> {
        let shared = &self.shared;
        let path = strip_origin_form(&req.target);
        // A mutation since the fill invalidates every entry: drop their
        // bodies now, not when the map next reaches its cap.
        let epoch = shared.cache.mutation_epoch();
        if std::mem::replace(&mut ctx.epoch, epoch) != epoch {
            ctx.l1.clear();
        }
        if let Some(hit) = ctx.l1.get(path).filter(|_| req.method == "GET") {
            // Serveable while still fresh at the batch's arrival;
            // otherwise the locked path decides (and counts the
            // validation).
            if shared.clock.at(now) < hit.expires {
                if ctx.tally.reports.len() == TALLY_REPORTS {
                    shared.fold(&mut ctx.tally);
                }
                ctx.tally.hit(now, shared.cfg.report_hits.then_some(hit.r));
                out.extend_from_slice(hit.head.as_bytes());
                out.extend_from_slice(hit.body.as_slice());
                return Ok(Served::Inline);
            }
            ctx.l1.remove(path);
        }
        // The scrape and the report drain read what the tally owes.
        shared.fold(&mut ctx.tally);
        match plan_request(req, shared, now) {
            Step::Reply(Reply::Hit(r, snap, body)) => {
                let head = HitHead::append(out, snap.last_modified, body.len());
                out.extend_from_slice(body.as_slice());
                // Fill the L1 only when nothing mutated around the locked
                // lookup — then `epoch` certifies the snapshot is current.
                if let Some(head) = head.filter(|_| shared.cache.mutation_epoch() == epoch) {
                    if ctx.l1.len() >= L1_CAP {
                        ctx.l1.clear();
                    }
                    let hit = L1Hit {
                        head,
                        body,
                        r,
                        expires: snap.expires,
                    };
                    ctx.l1.insert(path.to_owned(), hit);
                }
                Ok(Served::Inline)
            }
            Step::Reply(Reply::Full(resp)) => {
                resp.write_with(out, scratch)?;
                Ok(Served::Inline)
            }
            // A plain miss racing a speculative fetch of the same path:
            // cancel a still-queued job outright, but join one already on
            // the wire — the connection parks until the speculation
            // settles, then serves what landed or fetches after all, so
            // the origin sees exactly one fetch either way. Every
            // speculation settles within its upstream deadline, so the
            // park needs no timeout of its own.
            Step::Upstream(job) => {
                let prefetcher = shared.prefetcher.get().filter(|_| job.validate.is_none());
                Ok(match prefetcher.and_then(|p| p.claim(shared, &job.path)) {
                    Some(spec) => Served::Park(Join { spec, job }),
                    None => fetch(shared, job, scratch, out),
                })
            }
        }
    }

    /// Hand the outcome to the lifecycle's settle at `now`, and write
    /// what it returns.
    fn settle(
        &self,
        job: UpstreamJob,
        outcome: UpstreamOutcome,
        now: Instant,
        scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<()> {
        let shared = &self.shared;
        match lifecycle::settle(shared, &job, outcome, shared.clock.at(now)) {
            Settled::Reply(resp) => resp.write_with(out, scratch),
            Settled::Sent => Ok(()),
            Settled::Abort => Err(lifecycle::relay_aborted()),
        }
    }

    fn retried(&self, _job: &UpstreamJob) {
        self.shared.stats.upstream_retries.fetch_add(1, Relaxed);
    }

    fn park(&self, wait: Join, waker: Waker<UpstreamJob>) {
        wait.spec.on_settle(waker, wait.job);
    }

    /// The joined speculation settled: serve what landed, or fetch after
    /// all.
    fn resume(
        &self,
        job: UpstreamJob,
        scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<Served<Self>> {
        let Some((body, lm)) = lifecycle::landed_speculation(&self.shared, &job) else {
            return Ok(fetch(&self.shared, job, scratch, out));
        };
        HitHead::append(out, lm, body.len());
        out.extend_from_slice(body.as_slice());
        Ok(Served::Inline)
    }
}

/// The upstream plan that answers `job`: the poller dials (or reuses) an
/// origin connection and hands the outcome back to [`Service::settle`]
/// with the job. A prefix hit's head and cached bytes are staged in `out`
/// first: both pollers write them before the origin is dialed, so the
/// client's first byte waits on no round trip.
fn fetch(
    shared: &ProxyShared,
    mut job: UpstreamJob,
    scratch: &mut ConnScratch,
    out: &mut Vec<u8>,
) -> Served<ProxySvc> {
    if let Some(head) = lifecycle::probe_prefix(shared, &mut job, out) {
        out.extend_from_slice(head.as_slice());
    }
    let leg = lifecycle::first_leg(shared, &job);
    Served::Upstream(UpstreamPlan {
        origin: shared.cfg.origin,
        request: leg.request_bytes(scratch),
        job,
        relay: leg.relay,
    })
}

/// What a request resolves to: a fresh cache hit served straight from the
/// shared body (no `Response` is built, no headers are allocated), or a
/// full response for every other outcome.
enum Reply {
    /// The resource, its cache entry (`Last-Modified`, and when it stops
    /// being fresh, which feeds the affine L1) and its body.
    Hit(ResourceId, CacheEntry, Body),
    Full(Response),
}

/// What the lock-scoped planning phase resolved a request to: an
/// immediately-serveable reply, or a description of the upstream work
/// still owed. Splitting here lets a poller serve `Reply` inline and
/// carry the self-contained [`UpstreamJob`] across an exchange without
/// borrowing the request.
enum Step {
    Reply(Reply),
    Upstream(UpstreamJob),
}

/// Phase 1: cache consult under shard-scoped locks, for a request whose
/// batch arrived at `start`. Never blocks on the network, so it is safe on
/// a reactor thread. The fresh-hit path is allocation-free; only a miss
/// pays for the owned `UpstreamJob`.
fn plan_request(req: &Request, shared: &ProxyShared, start: Instant) -> Step {
    if req.method != "GET" {
        return Step::Reply(Reply::Full(Response::new(400)));
    }
    let path = strip_origin_form(&req.target);
    // Admin scrape, answered before the request counter so scrapes never
    // disturb the conservation invariant they report on.
    if path == METRICS_PATH {
        return Step::Reply(Reply::Full(if shared.cfg.metrics {
            metrics_response(shared)
        } else {
            Response::new(404)
        }));
    }
    let now = shared.clock.at(start);
    shared.stats.requests.fetch_add(1, Relaxed);
    let cached = shared
        .table
        .read()
        .lookup(path)
        .and_then(|r| shared.cache.lookup(r, now).map(|snap| (r, snap)));
    // First client contact with a prefetched entry settles the
    // speculation as used — whatever the request then resolves to —
    // because the lookup above already flipped its `used` mark.
    if let Some((_, snap)) = &cached {
        prefetch::note_speculative_hit(&shared.stats, snap);
    }
    // A cached entry whose body was invalidated underneath us (concurrent
    // piggyback) degrades to a plain fetch. A prefix entry is never a full
    // body — serving or validating it would truncate the object — so it
    // degrades the same way (the lifecycle probes prefixes separately).
    let cached = cached.and_then(|(r, snap)| {
        let body = shared.bodies.get(r).filter(|b| !b.is_prefix())?;
        Some((r, snap, body))
    });
    let validate = match cached {
        Some((r, snap, body)) if snap.is_fresh(now) => {
            shared.note_fresh_hit(path, start);
            return Step::Reply(Reply::Hit(r, snap, body));
        }
        // A stale entry validates, its body pinned against eviction.
        Some((_, snap, body)) => {
            shared.stats.cache_hits.fetch_add(1, Relaxed);
            shared.stats.validations.fetch_add(1, Relaxed);
            Some((snap.last_modified, body))
        }
        None => None,
    };
    // The filter to send upstream, with the RPV ids attached.
    let mut filter = shared.cfg.filter.clone();
    if let Some(rpv) = &shared.rpv {
        filter.rpv = rpv.lock().filter_ids(now);
    }
    Step::Upstream(UpstreamJob {
        validate,
        filter,
        report: shared.reporter.lock().drain_header(),
        path: path.to_owned(),
        start,
        prefix: None,
    })
}

/// Render the proxy's Prometheus exposition. Reads only atomics and the
/// cache's occupancy gauges — no cache or table lock is taken, so a
/// scrape can never stall (or be stalled by) request traffic.
fn metrics_response(shared: &ProxyShared) -> Response {
    let (stats, pool) = (shared.stats.snapshot(), shared.pool.stats());
    let mut out = String::with_capacity(8 * 1024);
    // `pb_proxy_{name}_total`, unlabelled.
    let counter = |out: &mut String, name: &str, value| {
        render_scalar(out, &format!("pb_proxy_{name}_total"), "", "counter", value);
    };
    counter(&mut out, "requests", stats.requests);
    for (label, value) in [
        ("fresh_hit", stats.fresh_hits),
        ("prefix_hit", stats.prefix_hits),
        ("not_modified", stats.not_modified),
        ("full_fetch", stats.full_fetches),
        ("error", stats.upstream_errors),
        ("passthrough", stats.upstream_passthrough),
    ] {
        let labels = format!("outcome=\"{label}\"");
        render_scalar(
            &mut out,
            "pb_proxy_outcome_requests_total",
            &labels,
            "counter",
            value,
        );
    }
    for (name, value) in [
        ("cache_hits", stats.cache_hits),
        ("affine_hits", stats.affine_hits),
        ("streamed_misses", stats.streamed_misses),
        ("validations", stats.validations),
        ("bytes_from_origin", stats.bytes_from_origin),
        ("piggyback_messages", stats.piggyback_messages),
        ("piggybacked_elements", stats.piggybacked_elements),
        ("piggyback_freshens", stats.piggyback_freshens),
        ("piggyback_invalidations", stats.piggyback_invalidations),
        ("prefetch_candidates", stats.prefetch_candidates),
        ("prefetch_issued", stats.prefetch_issued),
        ("prefetch_used", stats.prefetch_used),
        ("prefetch_wasted", stats.prefetch_wasted),
        ("prefetch_wasted_bytes", stats.prefetch_wasted_bytes),
        ("prefetch_fetched_bytes", stats.prefetch_fetched_bytes),
        ("prefetch_used_bytes", stats.prefetch_used_bytes),
        ("prefetch_cancelled", stats.prefetch_cancelled),
        ("prefetch_retries", stats.prefetch_retries),
        ("upstream_retries", stats.upstream_retries),
    ] {
        counter(&mut out, name, value);
    }
    // Issued-but-unresolved speculations: in-flight fetches plus resident
    // never-hit prefetched entries (a gauge, not a counter).
    let inflight = stats.prefetch_inflight;
    render_scalar(
        &mut out,
        "pb_proxy_prefetch_inflight",
        "",
        "gauge",
        inflight,
    );
    for (outcome, hist) in shared.obs.outcomes() {
        let (labels, hist) = (format!("outcome=\"{outcome}\""), hist.snapshot());
        render_histogram(
            &mut out,
            "pb_proxy_request_duration_seconds",
            &labels,
            &hist,
            1e6,
        );
    }
    let overhead = shared.obs.piggyback_bytes.snapshot();
    render_histogram(
        &mut out,
        "pb_proxy_piggyback_overhead_bytes",
        "",
        &overhead,
        1.0,
    );
    for (name, value) in [
        ("pool_connects", pool.connects),
        ("pool_reuses", pool.reuses),
        ("pool_evicted_unhealthy", pool.evicted_unhealthy),
        ("pool_discarded_dirty", pool.discarded_dirty),
        ("pool_discarded_full", pool.discarded_full),
    ] {
        counter(&mut out, name, value);
    }
    let idle = shared.pool.idle_len() as u64;
    render_scalar(&mut out, "pb_proxy_pool_idle", "", "gauge", idle);
    // Capacity from config, not `cache.capacity()`: the latter sums
    // per-shard fields under each shard lock.
    let capacity = shared.cfg.capacity_bytes;
    render_scalar(
        &mut out,
        "pb_proxy_cache_capacity_bytes",
        "",
        "gauge",
        capacity,
    );
    for (i, shard) in shared.cache.occupancy().iter().enumerate() {
        let labels = format!("shard=\"{i}\"");
        for (name, kind, value) in [
            ("pb_proxy_cache_shard_bytes", "gauge", shard.bytes),
            ("pb_proxy_cache_shard_entries", "gauge", shard.entries),
            (
                "pb_proxy_cache_shard_evictions_total",
                "counter",
                shard.evictions,
            ),
        ] {
            render_scalar(&mut out, name, &labels, kind, value);
        }
    }
    // Body-store occupancy (full bodies + prefix entries), per shard,
    // from the lock-free mirror gauges.
    for (i, shard) in shared.bodies.occupancy().iter().enumerate() {
        let labels = format!("shard=\"{i}\"");
        for (name, value) in [
            ("pb_proxy_body_bytes", shard.bytes),
            ("pb_proxy_body_entries", shard.entries),
            ("pb_proxy_prefix_bytes", shard.prefix_bytes),
            ("pb_proxy_prefix_entries", shard.prefix_entries),
        ] {
            render_scalar(&mut out, name, &labels, "gauge", value);
        }
    }
    #[cfg(target_os = "linux")]
    let shards = shared
        .reactor_metrics
        .as_ref()
        .map_or(&[][..], |rm| &rm.shards);
    #[cfg(not(target_os = "linux"))]
    let shards = &[];
    render_transport(
        &mut out,
        "pb_proxy",
        &shared.io_stats,
        shards,
        |out, labels, s| {
            for (family, kind, value) in [
                ("upstream_dials_total", "counter", s.upstream_dials),
                ("upstream_reuses_total", "counter", s.upstream_reuses),
                ("upstream_inflight", "gauge", s.upstream_inflight),
                ("upstream_timeouts_total", "counter", s.upstream_timeouts),
                ("relays_total", "counter", s.relays),
                ("relay_paused_total", "counter", s.relay_paused),
            ] {
                let name = format!("pb_proxy_reactor_{family}");
                render_scalar(out, &name, labels, kind, value);
            }
        },
    );
    let mut resp = Response::new(200);
    resp.headers
        .insert("Content-Type", "text/plain; version=0.0.4");
    resp.body = out.into();
    resp
}

/// Build a `HeaderMap` holding the standard piggyback request headers —
/// handy for tests and the client driver.
pub fn piggyback_request_headers(filter: &ProxyFilter) -> HeaderMap {
    let mut h = HeaderMap::new();
    h.insert("TE", "chunked");
    h.insert(PIGGY_FILTER_HEADER, &filter.to_header_value());
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::cached_response;
    use crate::origin::{start_origin, OriginConfig, OriginHandle};
    use std::io::{BufReader, BufWriter, Write};
    use std::net::{TcpListener, TcpStream};

    /// Drive the whole site once directly (no proxy), so the origin's
    /// access state covers every resource. Piggybacks only name volume
    /// mates with recorded accesses, so a cold proxy talking to a cold
    /// origin never sees a prefetch candidate — the paper's scenario is
    /// a fresh proxy joining an origin other clients already warmed.
    fn warm_origin(origin: &OriginHandle) {
        let stream = TcpStream::connect(origin.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        for p in &origin.paths() {
            let mut req = Request::new("GET", p);
            req.headers.insert("Host", "origin.test");
            req.write(&mut writer).unwrap();
            let resp = Response::read(&mut reader, false).unwrap();
            assert_eq!(resp.status, 200);
        }
    }

    /// Both I/O engines: every lifecycle test below runs once per engine,
    /// since what it checks is written once for both.
    fn engines() -> Vec<IoMode> {
        let mut engines = vec![IoMode::Threaded];
        #[cfg(target_os = "linux")]
        engines.push(IoMode::Reactor { reactors: 1 });
        engines
    }

    fn get(addr: SocketAddr, path: &str) -> Response {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut req = Request::new("GET", path);
        req.headers.insert("Host", "proxy.test");
        req.headers.insert("Connection", "close");
        req.write(&mut writer).unwrap();
        let resp = Response::read(&mut reader, false).unwrap();
        // The proxy closes a `Connection: close` client only once the
        // request is fully settled: waiting for the EOF makes every
        // counter a caller reads next exact.
        let _ = io::copy(&mut reader, &mut io::sink());
        resp
    }

    #[test]
    fn proxy_caches_and_validates() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        for io in engines() {
            let mut cfg = ProxyConfig::new(origin.addr());
            cfg.io = io;
            let proxy = start_proxy(cfg).unwrap();
            let path = origin.paths()[0].clone();

            let r1 = get(proxy.addr(), &path);
            assert_eq!(r1.status, 200);
            assert_eq!(r1.headers.get("X-Cache"), Some("MISS"));

            let r2 = get(proxy.addr(), &path);
            assert_eq!(r2.status, 200);
            assert_eq!(r2.headers.get("X-Cache"), Some("HIT"));
            assert_eq!(r1.body, r2.body);

            let stats = proxy.stats();
            assert_eq!(stats.requests, 2);
            assert_eq!(stats.fresh_hits, 1);
            assert_eq!(stats.full_fetches, 1);
            assert_eq!(stats.outcomes(), stats.requests, "conservation");
            proxy.stop();
        }
        origin.stop();
    }

    #[test]
    fn hit_bytes_match_cached_response() {
        // The stored head plus the body must stay byte-identical to
        // serializing the seed's full `Response` — for bodies of every
        // interesting size class (empty, small, multi-chunk-buffer sized).
        for (body, lm) in [
            (Body::empty(), Timestamp::ZERO),
            (Body::from(b"hello".to_vec()), Timestamp::from_secs(12345)),
            (
                Body::from(vec![b'x'; 40_000]),
                Timestamp::from_secs(86_400 * 900 + 3),
            ),
        ] {
            let mut appended = Vec::new();
            let head = HitHead::append(&mut appended, lm, body.len()).expect("the head fits");
            assert_eq!(appended, head.as_bytes(), "what was sent is what is stored");
            let mut fast = head.as_bytes().to_vec();
            fast.extend_from_slice(body.as_slice());
            let mut seed = Vec::new();
            cached_response(&body, lm, "HIT").write(&mut seed).unwrap();
            assert_eq!(fast, seed, "body len {}", body.len());
        }
    }

    #[test]
    fn affine_l1_keeps_entries_of_one_epoch_only() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let proxy = start_proxy(ProxyConfig::new(origin.addr())).unwrap();
        let paths = &origin.paths()[..9];
        for p in &paths[..8] {
            assert_eq!(get(proxy.addr(), p).headers.get("X-Cache"), Some("MISS"));
        }
        let svc = ProxySvc {
            shared: Arc::clone(&proxy.shared),
        };
        let (mut ctx, mut scratch) = (svc.make_ctx(), ConnScratch::new());
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mut serve = |ctx: &mut ProxyCtx, path: &str| {
            let req = Request::new("GET", path);
            let mut out = Vec::new();
            let served = svc.handle(&req, peer, Instant::now(), ctx, &mut scratch, &mut out);
            assert!(matches!(served, Ok(Served::Inline)), "{path} is a hit");
        };
        for p in &paths[..8] {
            serve(&mut ctx, p);
        }
        assert_eq!(ctx.l1.len(), 8, "every locked hit fills the L1");
        // A miss stores a ninth page: the cache's epoch moves.
        assert_eq!(
            get(proxy.addr(), &paths[8]).headers.get("X-Cache"),
            Some("MISS")
        );
        serve(&mut ctx, &paths[0]);
        let kept: Vec<&String> = ctx.l1.keys().collect();
        assert_eq!(kept, [&paths[0]], "no entry filled before the mutation");
        proxy.stop();
        origin.stop();
    }

    /// The freshness policy in virtual time: `ProxySvc::handle` and
    /// `ProxySvc::settle` are driven with chosen stamps and scripted
    /// origin answers — no client connection, no origin, no sleep. Δ is
    /// 60 s, and every step lands on either side of a freshness edge.
    #[test]
    fn freshness_runs_in_virtual_time() {
        use crate::lifecycle::UpstreamOutcome;
        use piggyback_core::datetime::format_rfc1123;
        use piggyback_core::wire::P_VOLUME_HEADER;
        use std::time::Duration;
        const DELTA: Duration = Duration::from_secs(60);
        const MS: Duration = Duration::from_millis(1);
        let mut cfg = ProxyConfig::new("127.0.0.1:1".parse().unwrap());
        cfg.freshness = DurationMs::from_secs(60);
        cfg.rpv = None;
        cfg.report_hits = false;
        let proxy = start_proxy(cfg).unwrap();
        let svc = ProxySvc {
            shared: Arc::clone(&proxy.shared),
        };
        let (mut ctx, mut scratch) = (svc.make_ctx(), ConnScratch::new());
        let peer: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let x_cache = |out: &[u8]| {
            let resp = Response::read(&mut &out[..], false).unwrap();
            resp.headers.get("X-Cache").unwrap_or("").to_owned()
        };
        // One request of a batch arriving at `at`: the inline answer's
        // verdict, or the plan it goes upstream with.
        let mut serve = |ctx: &mut ProxyCtx, path: &str, at: Instant| {
            let mut out = Vec::new();
            let req = Request::new("GET", path);
            let served = svc.handle(&req, peer, at, ctx, &mut scratch, &mut out);
            svc.end_batch(ctx);
            match served.unwrap() {
                Served::Inline => Ok(x_cache(&out)),
                Served::Upstream(plan) => Err(Box::new(plan)),
                Served::Park(_) => panic!("{path}: no prefetcher, no join"),
            }
        };
        // The plan's job, settled at `at` with `answer`.
        let settle = |plan: Box<UpstreamPlan<UpstreamJob>>, answer, at: Instant| {
            let mut out = Vec::new();
            svc.settle(plan.job, answer, at, &mut ConnScratch::new(), &mut out)
                .unwrap();
            x_cache(&out)
        };
        let date =
            |lm: Timestamp| format_rfc1123(unix_from_timestamp(lm, DEFAULT_TRACE_EPOCH_UNIX));
        let validates = |plan: &UpstreamPlan<UpstreamJob>, lm| {
            let ims = format!("If-Modified-Since: {}\r\n", date(lm));
            String::from_utf8_lossy(&plan.request).contains(&ims)
        };
        // A 200 last modified at `lm`, its `P-volume` naming `/a` at `a_lm`.
        let ok = |lm, a_lm: Option<Timestamp>| {
            let mut resp = Response::new(200);
            resp.headers.insert("Last-Modified", &date(lm));
            if let Some(a_lm) = a_lm {
                let pv = format!("1; \"/a\" {} 5", a_lm.as_secs());
                resp.headers.insert(P_VOLUME_HEADER, &pv);
            }
            resp.body = Body::from(b"hello".to_vec());
            UpstreamOutcome::Response(resp)
        };
        let not_modified = || UpstreamOutcome::Response(Response::new(304));
        let stats = || proxy.stats();
        let (t0, lm) = (Instant::now(), Timestamp::from_secs(1_000));

        // 1. A miss is stored.
        let plan = serve(&mut ctx, "/a", t0).unwrap_err();
        assert!(!validates(&plan, lm));
        assert_eq!(settle(plan, ok(lm, None), t0), "MISS");

        // 2. A hit just inside Δ: locked, then from the affine L1, then
        // locked again once a store moved the cache's epoch.
        let t1 = t0 + DELTA - MS;
        assert_eq!(serve(&mut ctx, "/a", t1).ok().as_deref(), Some("HIT"));
        assert_eq!(serve(&mut ctx, "/a", t1).ok().as_deref(), Some("HIT"));
        assert_eq!((stats().fresh_hits, stats().affine_hits), (2, 1));
        let plan = serve(&mut ctx, "/b", t1).unwrap_err();
        assert_eq!(settle(plan, ok(lm, None), t1), "MISS");
        assert_eq!(serve(&mut ctx, "/a", t1).ok().as_deref(), Some("HIT"));
        assert_eq!((stats().fresh_hits, stats().affine_hits), (3, 1));

        // 3. At Δ it validates with `If-Modified-Since`.
        let plan = serve(&mut ctx, "/a", t0 + DELTA).unwrap_err();
        assert!(validates(&plan, lm));
        assert_eq!(stats().validations, 1);

        // 4. A 304 settled at t3 — a second after the plan — is fresh for
        // Δ from t3, not from the plan.
        let t3 = t0 + DELTA + Duration::from_secs(1);
        assert_eq!(settle(plan, not_modified(), t3), "VALIDATED");
        assert_eq!(
            serve(&mut ctx, "/a", t3 + DELTA - MS).ok().as_deref(),
            Some("HIT")
        );

        // 5. A piggyback that is not newer, on the miss of `/c` at t4,
        // freshens `/a` until t4 + Δ, past where the 304 left it.
        let t4 = t3 + DELTA / 2;
        let plan = serve(&mut ctx, "/c", t4).unwrap_err();
        assert_eq!(settle(plan, ok(lm, Some(lm)), t4), "MISS");
        assert_eq!(stats().piggyback_freshens, 1);
        assert_eq!(
            serve(&mut ctx, "/a", t4 + DELTA - MS).ok().as_deref(),
            Some("HIT")
        );
        let plan = serve(&mut ctx, "/a", t4 + DELTA).unwrap_err();
        assert!(validates(&plan, lm));
        assert_eq!(settle(plan, not_modified(), t4 + DELTA), "VALIDATED");

        // 6. A newer piggybacked `Last-Modified` invalidates it: the next
        // request is a plain miss, still inside the last 304's Δ.
        let t5 = t4 + DELTA + Duration::from_secs(1);
        let newer = Timestamp::from_secs(2_000);
        let plan = serve(&mut ctx, "/d", t5).unwrap_err();
        assert_eq!(settle(plan, ok(lm, Some(newer)), t5), "MISS");
        assert_eq!(stats().piggyback_invalidations, 1);
        let plan = serve(&mut ctx, "/a", t5).unwrap_err();
        assert!(!validates(&plan, lm) && !validates(&plan, newer));
        assert_eq!(settle(plan, ok(newer, None), t5), "MISS");

        let s = stats();
        assert_eq!((s.validations, s.not_modified, s.full_fetches), (2, 2, 5));
        assert_eq!(s.outcomes(), s.requests, "conservation");
        proxy.stop();
    }

    #[test]
    fn sharded_proxy_pools_origin_connections() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let mut cfg = ProxyConfig::new(origin.addr());
        cfg.freshness = DurationMs::from_millis(1); // force validations
        let proxy = start_proxy(cfg).unwrap();
        let path = origin.paths()[0].clone();
        for _ in 0..5 {
            get(proxy.addr(), &path);
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
        let pool = proxy.pool_stats().expect("the pool is unconditional");
        assert!(
            pool.reuses >= 3,
            "validations must reuse the pooled origin connection: {pool:?}"
        );
        assert!(pool.connects <= 2, "{pool:?}");
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn proxy_receives_piggybacks() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let proxy = start_proxy(ProxyConfig::new(origin.addr())).unwrap();
        // Walk a handful of pages; volume-mates generate piggybacks.
        for p in origin.paths().iter().take(12) {
            let r = get(proxy.addr(), p);
            assert_eq!(r.status, 200);
        }
        let stats = proxy.stats();
        assert!(
            stats.piggyback_messages > 0,
            "expected piggybacks, stats: {stats:?}"
        );
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn proxy_passes_404_through_uncached() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        for io in engines() {
            let mut cfg = ProxyConfig::new(origin.addr());
            cfg.io = io;
            let proxy = start_proxy(cfg).unwrap();
            let r = get(proxy.addr(), "/definitely/not/here.html");
            assert_eq!(r.status, 404);
            let r = get(proxy.addr(), "/definitely/not/here.html");
            assert_eq!(r.status, 404);
            let stats = proxy.stats();
            assert_eq!(stats.fresh_hits, 0);
            assert_eq!(stats.upstream_passthrough, 2);
            assert_eq!(stats.outcomes(), stats.requests, "conservation");
            proxy.stop();
        }
        origin.stop();
    }

    #[test]
    fn expired_entries_validate_with_304_and_revive() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        for io in engines() {
            let mut cfg = ProxyConfig::new(origin.addr());
            cfg.io = io;
            cfg.freshness = DurationMs::from_millis(1); // everything expires at once
            let proxy = start_proxy(cfg).unwrap();
            let path = origin.paths()[0].clone();

            let r1 = get(proxy.addr(), &path);
            assert_eq!(r1.headers.get("X-Cache"), Some("MISS"));
            std::thread::sleep(std::time::Duration::from_millis(5));
            let r2 = get(proxy.addr(), &path);
            assert_eq!(
                r2.headers.get("X-Cache"),
                Some("VALIDATED"),
                "expired entry must be revalidated, not refetched"
            );
            assert_eq!(r1.body, r2.body, "304 revives the cached body");
            let stats = proxy.stats();
            assert_eq!(stats.validations, 1);
            assert_eq!(stats.not_modified, 1);
            assert_eq!(stats.full_fetches, 1);
            proxy.stop();
        }
        origin.stop();
    }

    #[test]
    fn modified_resource_refetched_on_validation() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        for io in engines() {
            let mut cfg = ProxyConfig::new(origin.addr());
            cfg.io = io;
            cfg.freshness = DurationMs::from_millis(1);
            let proxy = start_proxy(cfg).unwrap();
            let path = origin.paths()[0].clone();

            get(proxy.addr(), &path);
            // Bump the origin's Last-Modified.
            let r = get(proxy.addr(), &format!("/_pb/modify{path}"));
            assert_eq!(r.status, 204);
            std::thread::sleep(std::time::Duration::from_millis(5));
            let r2 = get(proxy.addr(), &path);
            assert_eq!(
                r2.headers.get("X-Cache"),
                Some("MISS"),
                "modified resource comes back as a fresh 200"
            );
            let stats = proxy.stats();
            assert_eq!(stats.not_modified, 0);
            assert!(stats.full_fetches >= 2);
            proxy.stop();
        }
        origin.stop();
    }

    #[test]
    fn piggyback_request_headers_helper() {
        let f = ProxyFilter::builder().max_piggy(5).build();
        let h = piggyback_request_headers(&f);
        assert_eq!(h.get("TE"), Some("chunked"));
        assert_eq!(h.get(PIGGY_FILTER_HEADER), Some("maxpiggy=5"));
    }

    #[test]
    fn hit_reports_reach_the_origin() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let proxy = start_proxy(ProxyConfig::new(origin.addr())).unwrap();
        let hot = origin.paths()[0].clone();
        let other = origin.paths()[1].clone();

        // Warm the cache, then hit it repeatedly: hits accumulate in the
        // proxy's reporter.
        get(proxy.addr(), &hot);
        let origin_count_before = {
            // Access count at the origin after the single real fetch.
            origin.stats().requests
        };
        for _ in 0..5 {
            let r = get(proxy.addr(), &hot);
            assert_eq!(r.headers.get("X-Cache"), Some("HIT"));
        }
        // The next upstream request (a miss for `other`) drains the report.
        get(proxy.addr(), &other);

        // The origin saw only two real requests...
        assert_eq!(origin.stats().requests, origin_count_before + 1);
        // ...but its access count for `hot` includes the 5 reported cache
        // hits: 1 real fetch + 5 reported = 6.
        assert_eq!(origin.access_count(&hot), 6);
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn metrics_endpoint_scrapes_without_counting_itself() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let proxy = start_proxy(ProxyConfig::new(origin.addr())).unwrap();
        let path = origin.paths()[0].clone();
        get(proxy.addr(), &path); // MISS
        get(proxy.addr(), &path); // HIT
        let m = get(proxy.addr(), METRICS_PATH);
        assert_eq!(m.status, 200);
        assert_eq!(
            m.headers.get("Content-Type"),
            Some("text/plain; version=0.0.4")
        );
        let text = String::from_utf8(m.body.to_vec()).unwrap();
        // The scrape itself must not disturb the request counter.
        assert!(text.contains("pb_proxy_requests_total 2\n"), "{text}");
        assert!(
            text.contains("pb_proxy_outcome_requests_total{outcome=\"fresh_hit\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pb_proxy_outcome_requests_total{outcome=\"full_fetch\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pb_proxy_request_duration_seconds_count{outcome=\"fresh_hit\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pb_proxy_cache_shard_bytes{shard=\"0\"}"),
            "{text}"
        );
        assert!(text.contains("pb_proxy_cache_capacity_bytes"), "{text}");
        assert!(text.contains("pb_proxy_body_bytes{shard=\"0\"}"), "{text}");
        assert!(
            text.contains("pb_proxy_prefix_entries{shard=\"0\"}"),
            "{text}"
        );
        // Conservation is checkable from the scrape alone.
        let outcome_total: u64 = text
            .lines()
            .filter(|l| l.starts_with("pb_proxy_outcome_requests_total{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(outcome_total, 2, "{text}");
        let duration_total: u64 = text
            .lines()
            .filter(|l| l.starts_with("pb_proxy_request_duration_seconds_count"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(duration_total, 2, "histogram totals == requests: {text}");
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn metrics_can_be_disabled() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let mut cfg = ProxyConfig::new(origin.addr());
        cfg.metrics = false;
        let proxy = start_proxy(cfg).unwrap();
        let m = get(proxy.addr(), METRICS_PATH);
        assert_eq!(m.status, 404, "disabled scrape is a local 404");
        let stats = proxy.stats();
        assert_eq!(stats.requests, 0, "never proxied, never counted");
        proxy.stop();
        origin.stop();
    }

    #[test]
    fn stale_entry_without_its_body_is_a_plain_fetch_not_a_validation() {
        // A stale entry whose body is gone (evicted or invalidated) cannot
        // be validated — a 304 would leave nothing to serve, never an
        // empty 200 — so planning sees the missing body and fetches in
        // full instead.
        let origin = start_origin(OriginConfig::default()).unwrap();
        for io in engines() {
            let mut cfg = ProxyConfig::new(origin.addr());
            cfg.io = io;
            cfg.freshness = DurationMs::from_millis(1);
            let proxy = start_proxy(cfg).unwrap();
            let path = origin.paths()[0].clone();

            let r1 = get(proxy.addr(), &path);
            assert_eq!(r1.headers.get("X-Cache"), Some("MISS"));
            assert!(!r1.body.is_empty());

            // The table entry stays (so the entry is there, and stale) but
            // its body is gone before the next request plans.
            let r = proxy.shared.table.read().lookup(&path).unwrap();
            proxy.shared.bodies.remove(r);
            std::thread::sleep(std::time::Duration::from_millis(5));

            let r2 = get(proxy.addr(), &path);
            assert_eq!(r2.status, 200);
            assert_eq!(
                r2.headers.get("X-Cache"),
                Some("MISS"),
                "a body-less entry is fetched, not validated"
            );
            assert_eq!(r2.body, r1.body, "the fetched body, not an empty 200");

            let stats = proxy.stats();
            assert_eq!(stats.requests, 2);
            assert_eq!(stats.validations, 0);
            assert_eq!(stats.not_modified, 0);
            assert_eq!(stats.full_fetches, 2);
            assert_eq!(stats.upstream_retries, 0);
            assert_eq!(stats.outcomes(), stats.requests, "conservation");
            proxy.stop();
        }
        assert_eq!(
            origin.daemon_stats().responses_not_modified,
            0,
            "no If-Modified-Since went upstream"
        );
        origin.stop();
    }

    #[test]
    fn prefetcher_fetches_piggyback_candidates_and_serves_them() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        warm_origin(&origin);
        for io in engines() {
            let mut cfg = ProxyConfig::new(origin.addr());
            cfg.io = io;
            cfg.prefetch_budget = 2;
            let proxy = start_proxy(cfg).unwrap();

            // First walk: responses carry piggybacked volume mates;
            // uncached candidates become speculative fetches in the
            // background.
            for p in &origin.paths() {
                assert_eq!(get(proxy.addr(), p).status, 200);
            }
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while proxy.stats().prefetch_issued == 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            assert!(
                proxy.stats().prefetch_issued > 0,
                "walking the whole site must surface prefetch candidates: {:?}",
                proxy.stats()
            );

            // Second walk: every path is demanded, so each speculative
            // entry resolves — used on a hit, joined if still in flight,
            // cancelled if still queued (never issued).
            for p in &origin.paths() {
                assert_eq!(get(proxy.addr(), p).status, 200);
            }
            let s = proxy.stats();
            assert!(
                s.prefetch_used >= 1,
                "a prefetched entry served a hit: {s:?}"
            );
            assert_eq!(
                s.prefetch_issued,
                s.prefetch_used + s.prefetch_wasted + s.prefetch_inflight,
                "ledger conservation at quiescence: {s:?}"
            );
            assert_eq!(s.outcomes(), s.requests, "request conservation: {s:?}");
            proxy.stop();
        }
        origin.stop();
    }

    #[test]
    fn unreachable_origin_yields_502() {
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        for io in engines() {
            let mut cfg = ProxyConfig::new(dead);
            cfg.io = io;
            let proxy = start_proxy(cfg).unwrap();
            let r = get(proxy.addr(), "/x");
            assert_eq!(r.status, 502);
            let stats = proxy.stats();
            assert_eq!(stats.upstream_errors, 1);
            assert_eq!(
                stats.upstream_retries, 0,
                "a dial failure is terminal, not retried ({io:?})"
            );
            assert_eq!(stats.outcomes(), stats.requests, "conservation");
            proxy.stop();
        }
    }

    /// A hand-rolled keep-alive origin serving one deterministic body
    /// under `Content-Length` framing for every path — the shape of a
    /// real large-object origin, with none of the replay origin's
    /// piggyback or volume machinery. The listener thread leaks with the
    /// test process, like every other fixture here that outlives its
    /// assertions.
    fn start_big_origin(body: Arc<Vec<u8>>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(stream) = conn else { continue };
                let body = Arc::clone(&body);
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = BufWriter::new(stream);
                    while Request::read(&mut reader).is_ok() {
                        let head = format!(
                            "HTTP/1.1 200 OK\r\nLast-Modified: Thu, 01 Jan 1970 00:00:00 GMT\r\nContent-Length: {}\r\n\r\n",
                            body.len()
                        );
                        if writer.write_all(head.as_bytes()).is_err()
                            || writer.write_all(&body).is_err()
                            || writer.flush().is_err()
                        {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    fn deterministic_body(len: usize) -> Arc<Vec<u8>> {
        Arc::new((0..len).map(|i| (i % 251) as u8).collect())
    }

    #[test]
    fn large_object_streams_then_hits_prefix() {
        let body = deterministic_body(600 * 1024);
        let addr = start_big_origin(Arc::clone(&body));
        for io in engines() {
            let mut cfg = ProxyConfig::new(addr);
            cfg.io = io;
            cfg.stream_threshold = 256 * 1024;
            cfg.prefix_bytes = 64 * 1024;
            let proxy = start_proxy(cfg).unwrap();

            let r1 = get(proxy.addr(), "/big.bin");
            assert_eq!(r1.status, 200);
            assert_eq!(r1.headers.get("X-Cache"), Some("MISS"));
            assert_eq!(
                r1.body.as_slice(),
                body.as_slice(),
                "streamed body must be byte-identical"
            );

            let r2 = get(proxy.addr(), "/big.bin");
            assert_eq!(r2.status, 200);
            assert_eq!(r2.headers.get("X-Cache"), Some("PREFIX"));
            assert_eq!(
                r2.body.as_slice(),
                body.as_slice(),
                "prefix-hit body must be byte-identical"
            );

            let stats = proxy.stats();
            assert_eq!(stats.requests, 2);
            assert_eq!(stats.full_fetches, 1);
            assert_eq!(stats.streamed_misses, 1);
            assert_eq!(stats.prefix_hits, 1);
            assert_eq!(stats.cache_hits, 1);
            assert_eq!(stats.outcomes(), stats.requests, "conservation");

            let occ = proxy.shared.bodies.occupancy();
            let prefixes: u64 = occ.iter().map(|s| s.prefix_entries).sum();
            let entries: u64 = occ.iter().map(|s| s.entries).sum();
            assert_eq!(prefixes, 1, "exactly one prefix entry retained");
            assert_eq!(entries, 1, "streamed object must not be cached whole");
            let bytes: u64 = occ.iter().map(|s| s.bytes).sum();
            assert_eq!(bytes, 64 * 1024, "only the prefix head is resident");
            proxy.stop();
        }
    }

    #[test]
    fn small_object_stays_on_the_buffered_path() {
        let body = deterministic_body(10 * 1024);
        let addr = start_big_origin(Arc::clone(&body));
        for io in engines() {
            let mut cfg = ProxyConfig::new(addr);
            cfg.io = io;
            let proxy = start_proxy(cfg).unwrap();
            let r1 = get(proxy.addr(), "/small.bin");
            assert_eq!(r1.headers.get("X-Cache"), Some("MISS"));
            let r2 = get(proxy.addr(), "/small.bin");
            assert_eq!(
                r2.headers.get("X-Cache"),
                Some("HIT"),
                "sub-threshold objects cache whole and serve as plain hits"
            );
            assert_eq!(r2.body.as_slice(), body.as_slice());
            let stats = proxy.stats();
            assert_eq!(stats.streamed_misses, 0);
            assert_eq!(stats.fresh_hits, 1);
            assert_eq!(stats.outcomes(), stats.requests, "conservation");
            proxy.stop();
        }
    }

    /// Both pollers parse under the proxy's cap and answer `413`. (The
    /// reactor half failed before the reactor honored the cap: it parsed
    /// under the wire crate's 64 MiB limit and served the request.)
    #[test]
    fn oversized_client_body_gets_413() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        for io in engines() {
            let mut cfg = ProxyConfig::new(origin.addr());
            cfg.io = io;
            cfg.client_body_cap = 1024;
            let proxy = start_proxy(cfg).unwrap();
            let stream = TcpStream::connect(proxy.addr()).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            writer
                .write_all(b"GET /a.html HTTP/1.1\r\nHost: p\r\nContent-Length: 4096\r\n\r\n")
                .unwrap();
            // The proxy may reject before draining; ignore write errors.
            let _ = writer.write_all(&[b'x'; 4096]);
            let _ = writer.flush();
            let resp = Response::read(&mut reader, false).unwrap();
            assert_eq!(resp.status, 413, "{io:?}");
            assert_eq!(
                proxy.stats().requests,
                0,
                "{io:?}: rejected before accounting"
            );
            proxy.stop();
        }
        origin.stop();
    }
}

//! A piggybacking origin server over TCP.
//!
//! Serves a synthetic [`Site`] with HTTP/1.1 persistent connections,
//! If-Modified-Since validation, and piggyback generation: when a request
//! carries a `Piggy-filter` header and `TE: chunked`, the 200 response is
//! chunk-encoded and the `P-volume` piggyback rides in the trailer
//! (Section 2.3). On a 304 — which has no body to delay — the piggyback is
//! sent as an ordinary response header instead.
//!
//! The magic prefix `/_pb/modify` bumps a resource's Last-Modified time,
//! letting examples and tests exercise invalidation end-to-end.
//!
//! ## Concurrency
//!
//! The serving path takes **no global lock** (PROTOCOL.md §9), under
//! either I/O engine. Origin state is split by write frequency:
//!
//! * the resource table and volume mapping live in an immutable
//!   [`OriginSnapshot`] behind a [`SnapshotCell`], rebuilt and swapped
//!   wholesale only on `/_pb/modify` and probability-volume epoch
//!   advances, each bumping a generation counter;
//! * per-resource access counts/recency are relaxed atomics
//!   ([`AccessState`]), as are the piggyback statistics
//!   ([`AtomicServerStats`]) and transport counters;
//! * per-source access histories for online probability-volume learning
//!   are striped across lock shards ([`StripedHistories`]) keyed by
//!   `fasthash(source)`.
//!
//! Every piggyback is built per response (Section 2): element selection
//! against the snapshot and the live access state, then `P-volume`
//! encoding. Its piggybacks are byte-identical to those of the socket-free
//! [`PiggybackServer`](piggyback_core::server::PiggybackServer) fed the
//! same access history (`tests/concurrency_stress.rs` holds the two
//! together).

use crate::obs::{render_histogram, render_scalar, render_transport, DaemonObs};
use crate::prefetch::{PIGGY_PUSH_HEADER, PUSH_COUNT_HEADER, PUSH_PATH_HEADER};
use crate::proxy::METRICS_PATH;
use crate::service::{serve_blocking, Served, Service};
use crate::stats::{AtomicDaemonStats, DaemonStats};
use crate::util::{synth_body, Clock, IoMode, IoStats, ServeOptions, ServerHandle};
use parking_lot::Mutex;
use piggyback_core::datetime::{
    format_rfc1123, parse_rfc1123, timestamp_from_unix, unix_from_timestamp,
    DEFAULT_TRACE_EPOCH_UNIX,
};
use piggyback_core::filter::{ProxyFilter, PIGGY_FILTER_HEADER};
use piggyback_core::report::{parse_report, ReportEntry, PIGGY_REPORT_HEADER};
use piggyback_core::server::{AtomicServerStats, ServerStats};
use piggyback_core::snapshot::{
    AccessState, FrozenVolumes, OriginSnapshot, SnapshotCell, StaticDirectoryVolumes,
};
use piggyback_core::striped::StripedHistories;
use piggyback_core::table::ResourceTable;
use piggyback_core::types::{DurationMs, ResourceId, SourceId, Timestamp};
use piggyback_core::volume::{ProbabilityVolumes, ProbabilityVolumesBuilder, SamplingMode};
use piggyback_core::wire::{decode_p_volume, encode_p_volume, P_VOLUME_HEADER};
use piggyback_httpwire::{Body, ConnScratch, Request, Response};
use piggyback_trace::synth::site::{Site, SiteConfig};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// The 404 body, shared by every miss: a `'static` [`Body`] clones as a
/// pointer copy instead of reallocating the bytes per request.
static NOT_FOUND_BODY: Body = Body::from_static(b"not found\n");

/// Memoized synthetic response bodies, one slot per registered resource.
///
/// `synth_body` is deterministic in `(path, size)` and the site's path and
/// size metadata are fixed at startup (`/_pb/modify` bumps only
/// Last-Modified), so each body is materialized once — lazily, on first
/// request — and every later 200 serves the same shared allocation via a
/// refcount bump.
struct BodyCache {
    slots: Vec<OnceLock<Body>>,
}

impl BodyCache {
    fn new(resources: usize) -> Self {
        BodyCache {
            slots: (0..resources).map(|_| OnceLock::new()).collect(),
        }
    }

    fn get(&self, r: ResourceId, path: &str, size: u64) -> Body {
        match self.slots.get(r.0 as usize) {
            Some(slot) => slot
                .get_or_init(|| Body::from(synth_body(path, size)))
                .clone(),
            // Ids past the startup table (unreachable today) still serve
            // correctly, just without memoization.
            None => Body::from(synth_body(path, size)),
        }
    }
}

/// Which volume scheme the origin serves with.
#[derive(Debug, Clone)]
pub enum VolumeScheme {
    /// Directory-prefix volumes at the given depth (maintained online).
    Directory { level: usize },
    /// Probability volumes loaded from a file written by
    /// [`write_volumes`](piggyback_core::volume::write_volumes) — a server
    /// restarting with yesterday's offline build.
    ProbabilityFile(std::path::PathBuf),
}

/// Periodic in-process probability-volume learning (probability schemes
/// only): every `epoch`, the striped access histories are drained into a
/// [`ProbabilityVolumesBuilder`] and the learned implications are merged
/// (by max probability) into the serving snapshot, bumping its generation.
#[derive(Debug, Clone)]
pub struct OnlineEpochConfig {
    /// How often to rebuild and swap the volume snapshot.
    pub epoch: DurationMs,
    /// Pairwise co-access window `T` fed to the builder (keep well below
    /// `epoch`: pairs still open when the histories are drained are lost).
    pub window: DurationMs,
    /// Membership threshold `p_t` in `(0, 1]`.
    pub threshold: f64,
}

/// Origin configuration.
#[derive(Debug, Clone)]
pub struct OriginConfig {
    /// 0 picks an ephemeral port.
    pub port: u16,
    pub site: SiteConfig,
    pub volumes: VolumeScheme,
    /// Serve the Prometheus admin endpoint `GET /__pb/metrics`
    /// (`pb-origin --no-metrics` disables it; disabled scrapes get a 404).
    pub metrics: bool,
    /// Learn probability volumes online from live traffic (requires a
    /// probability `volumes` scheme).
    pub online_epoch: Option<OnlineEpochConfig>,
    /// Connection-serving engine: blocking worker pool (default) or the
    /// epoll reactor (`--io reactor`, Linux only — other platforms fall
    /// back to the threaded pool). Both poll the one origin service, so
    /// wire output is byte-identical.
    pub io: IoMode,
    /// Close connections idle for this long (both engines).
    pub reactor_idle_timeout: std::time::Duration,
    /// Server-push baseline (`--push N`): when a request carries
    /// `Piggy-push: accept`, stream up to N volume members as full pushed
    /// responses after the main 200 (the main response announces them
    /// with `X-Push-Count`, each pushed response names its resource with
    /// `X-Push-Path`). 0 disables pushing.
    pub push_max: usize,
}

impl Default for OriginConfig {
    fn default() -> Self {
        OriginConfig {
            port: 0,
            site: SiteConfig {
                n_pages: 60,
                ..Default::default()
            },
            volumes: VolumeScheme::Directory { level: 1 },
            metrics: true,
            online_epoch: None,
            io: IoMode::default(),
            reactor_idle_timeout: std::time::Duration::from_secs(120),
            push_max: 0,
        }
    }
}

/// Lock-free-on-the-serving-path origin state (see module docs).
struct OriginState {
    snapshot: SnapshotCell<OriginSnapshot>,
    /// Serializes rebuild-and-swap (modify, epoch advance). Never taken
    /// on the 200/304 serving path.
    swap: Mutex<()>,
    access: AccessState,
    stats: AtomicServerStats,
    epoch: Option<EpochState>,
}

struct EpochState {
    cfg: OnlineEpochConfig,
    histories: StripedHistories,
    /// Next rebuild time in clock millis; the request that CASes it
    /// forward performs the rebuild inline.
    deadline_ms: AtomicU64,
    rebuilds: AtomicU64,
}

struct OriginShared {
    state: OriginState,
    clock: Clock,
    /// Shared synthetic bodies, keyed by resource id.
    bodies: BodyCache,
    /// Most volume members pushed after one main response (0 = never).
    push_max: usize,
    /// Accept/open-connection counters, fed by whichever I/O engine runs.
    io_stats: Arc<IoStats>,
    /// Per-reactor-shard counters (reactor engine only).
    #[cfg(target_os = "linux")]
    reactor_metrics: Option<Arc<crate::reactor::ReactorMetrics>>,
}

/// The shape [`OriginHandle::cache_stats`] answers with (never built).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

/// A running origin.
pub struct OriginHandle {
    handle: ServerHandle,
    shared: Arc<OriginShared>,
    daemon: Arc<AtomicDaemonStats>,
    obs: Arc<DaemonObs>,
    /// Paths the synthetic site serves (useful for driving workloads).
    pub paths: Vec<String>,
}

impl OriginHandle {
    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.addr
    }

    pub fn stats(&self) -> ServerStats {
        self.shared.state.stats.snapshot()
    }

    /// Lock-free transport counters: every parsed request (any method,
    /// any endpoint) and every response, by class. Tests use these for
    /// exact request-conservation checks against the proxy's counters.
    pub fn daemon_stats(&self) -> DaemonStats {
        self.daemon.snapshot()
    }

    /// Response-timing and piggyback-overhead histograms.
    pub fn obs(&self) -> &DaemonObs {
        &self.obs
    }

    /// The server-side access count for `path` (includes counts absorbed
    /// from `Piggy-report` headers).
    pub fn access_count(&self, path: &str) -> u64 {
        let state = &self.shared.state;
        let snap = state.snapshot.load();
        snap.table.lookup(path).map_or(0, |r| state.access.count(r))
    }

    /// The serving snapshot's generation (bumped by `/_pb/modify` and
    /// epoch advances).
    pub fn generation(&self) -> u64 {
        self.shared.state.snapshot.load().generation
    }

    /// Always `None`: the origin keeps no piggyback encode cache. Kept
    /// only because the benchmark package (`bench/src/trace.rs`) reads it
    /// for its `core.piggy_cache_hit_ratio` layer metric.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Completed online-epoch rebuilds (0 unless epoch learning is on).
    pub fn epoch_rebuilds(&self) -> u64 {
        let epoch = self.shared.state.epoch.as_ref();
        epoch.map_or(0, |e| e.rebuilds.load(Relaxed))
    }

    pub fn stop(self) {
        self.handle.stop();
    }
}

/// Load persisted probability volumes and re-key their implication ids
/// onto the site's id space by path (ids for paths the site does not
/// serve are registered past the site table and simply never resolve at
/// serving time).
fn load_probability_volumes(
    path: &std::path::Path,
    site_table: &ResourceTable,
) -> io::Result<ProbabilityVolumes> {
    let file = std::fs::File::open(path)?;
    let mut reader = BufReader::new(file);
    let mut scratch = ResourceTable::new();
    let vols = piggyback_core::volume::read_volumes(&mut reader, &mut scratch)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut table_all = site_table.clone();
    let mut remapped: HashMap<ResourceId, Vec<(ResourceId, f32)>> = Default::default();
    for (r, s, p) in vols.iter() {
        let (Some(pr), Some(ps)) = (scratch.path(r), scratch.path(s)) else {
            continue;
        };
        let rid = table_all.register_path(pr, 0, Timestamp::ZERO);
        let sid = table_all.register_path(ps, 0, Timestamp::ZERO);
        remapped.entry(rid).or_default().push((sid, p));
    }
    Ok(ProbabilityVolumes::from_implications(
        vols.threshold(),
        remapped,
    ))
}

/// Start an origin serving a freshly generated site.
pub fn start_origin(cfg: OriginConfig) -> io::Result<OriginHandle> {
    let (table, _site) = Site::generate(&cfg.site);
    let paths: Vec<String> = table.iter().map(|(_, p, _)| p.to_owned()).collect();

    // Register the site's resources (same ids, same registration-time
    // metadata) into an immutable table.
    let mut reg = ResourceTable::new();
    for (_, path, meta) in table.iter() {
        reg.register(path, meta.size, Timestamp::ZERO, meta.content_type);
    }
    let reg = Arc::new(reg);
    let volumes = match &cfg.volumes {
        VolumeScheme::Directory { level } => {
            FrozenVolumes::Directory(Arc::new(StaticDirectoryVolumes::build(&reg, *level)))
        }
        VolumeScheme::ProbabilityFile(path) => {
            FrozenVolumes::Probability(Arc::new(load_probability_volumes(path, &table)?))
        }
    };
    let epoch = match (&cfg.online_epoch, &volumes) {
        (None, _) => None,
        (Some(ep), FrozenVolumes::Probability(_)) => {
            if !(ep.threshold > 0.0 && ep.threshold <= 1.0) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "online epoch threshold must be in (0, 1]",
                ));
            }
            Some(EpochState {
                // Retain a full epoch of history per source: the drain
                // happens once per epoch, and the builder applies its
                // own co-access window `T` within the drained batch.
                histories: StripedHistories::new(ep.epoch),
                deadline_ms: AtomicU64::new(ep.cfg_initial_deadline()),
                rebuilds: AtomicU64::new(0),
                cfg: ep.clone(),
            })
        }
        (Some(_), FrozenVolumes::Directory(_)) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "online epoch learning requires probability volumes",
            ));
        }
    };
    let access = AccessState::new(reg.len());
    let state = OriginState {
        snapshot: SnapshotCell::new(Arc::new(OriginSnapshot::new(0, reg, volumes))),
        swap: Mutex::new(()),
        access,
        stats: AtomicServerStats::new(),
        epoch,
    };

    let io_stats = Arc::new(IoStats::default());
    #[cfg(target_os = "linux")]
    let reactor_metrics = match cfg.io {
        IoMode::Reactor { reactors } => Some(Arc::new(crate::reactor::ReactorMetrics::new(
            crate::reactor::resolve_reactors(reactors),
        ))),
        IoMode::Threaded => None,
    };
    let shared = Arc::new(OriginShared {
        state,
        clock: Clock::new(),
        bodies: BodyCache::new(paths.len()),
        push_max: cfg.push_max,
        io_stats: Arc::clone(&io_stats),
        #[cfg(target_os = "linux")]
        reactor_metrics: reactor_metrics.clone(),
    });
    let daemon = Arc::new(AtomicDaemonStats::new());
    let obs = Arc::new(DaemonObs::default());
    let svc = Arc::new(OriginSvc {
        shared: Arc::clone(&shared),
        daemon: Arc::clone(&daemon),
        obs: Arc::clone(&obs),
        metrics: cfg.metrics,
    });
    #[cfg(target_os = "linux")]
    if let Some(rm) = reactor_metrics {
        let opts = crate::reactor::ReactorOptions {
            idle_timeout: cfg.reactor_idle_timeout,
            ..Default::default()
        };
        let handle = crate::reactor::serve_reactor(cfg.port, "origin", opts, io_stats, rm, svc)?;
        return Ok(OriginHandle {
            handle,
            shared,
            daemon,
            obs,
            paths,
        });
    }
    let idle = cfg.reactor_idle_timeout;
    let serve = ServeOptions::default();
    let handle = serve_blocking(cfg.port, "origin", serve, io_stats, idle, None, svc)?;
    Ok(OriginHandle {
        handle,
        shared,
        daemon,
        obs,
        paths,
    })
}

/// The origin as a [`Service`]: every response — site resources, admin
/// endpoints, the metrics scrape — serializes inline, with the pushed
/// volume members right behind the main response they were announced on;
/// the origin has no upstream.
struct OriginSvc {
    shared: Arc<OriginShared>,
    daemon: Arc<AtomicDaemonStats>,
    obs: Arc<DaemonObs>,
    metrics: bool,
}

impl Service for OriginSvc {
    type Ctx = ();

    fn make_ctx(&self) {}

    fn on_connect(&self, _peer: SocketAddr) {
        self.daemon.connections.fetch_add(1, Relaxed);
    }

    fn handle(
        &self,
        req: &Request,
        peer: SocketAddr,
        now: std::time::Instant,
        _ctx: &mut (),
        scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> io::Result<Served> {
        let (shared, daemon, obs) = (&*self.shared, &*self.daemon, &*self.obs);
        // Admin scrape, intercepted before the request/response counters
        // so scrapes never appear in the ledger they report on. Served from
        // atomics alone — no serving state is locked.
        if strip_origin_form(&req.target) == METRICS_PATH {
            let resp = if self.metrics {
                origin_metrics_response(daemon, obs, shared)
            } else {
                Response::new(404)
            };
            resp.write_with(out, scratch)?;
            return Ok(Served::Inline);
        }
        daemon.requests.fetch_add(1, Relaxed);
        // Pushed volume members (`push_max > 0`, and the request opted in)
        // ride the same stream, right behind the main response they were
        // announced on.
        let mut pushed = Vec::new();
        let source = crate::util::source_from_addr(peer);
        let resp = handle_request(req, source, shared.clock.at(now), shared, obs, &mut pushed);
        daemon.count_response(resp.status, resp.body.len());
        for p in &pushed {
            daemon.pushes_sent.fetch_add(1, Relaxed);
            daemon
                .push_bytes_sent
                .fetch_add(p.body.len() as u64, Relaxed);
            // Pushed bodies are response bytes on the wire too.
            daemon.bytes_sent.fetch_add(p.body.len() as u64, Relaxed);
        }
        obs.class_for(resp.status).record(now.elapsed());
        resp.write_with(out, scratch)?;
        for p in &pushed {
            p.write_with(out, scratch)?;
        }
        Ok(Served::Inline)
    }
}

impl OnlineEpochConfig {
    /// First deadline: one epoch after the (fresh) clock's zero.
    fn cfg_initial_deadline(&self) -> u64 {
        self.epoch.as_millis()
    }
}

/// Render the origin's Prometheus exposition from lock-free counters and
/// histograms only: the transport ledger, the piggyback ledger and the
/// generation gauge (all atomics).
fn origin_metrics_response(
    daemon: &AtomicDaemonStats,
    obs: &DaemonObs,
    shared: &OriginShared,
) -> Response {
    let c = &shared.state;
    let stats = daemon.snapshot();
    let mut out = String::with_capacity(4 * 1024);
    render_scalar(
        &mut out,
        "pb_origin_connections_total",
        "",
        "counter",
        stats.connections,
    );
    render_scalar(
        &mut out,
        "pb_origin_requests_total",
        "",
        "counter",
        stats.requests,
    );
    for (label, value) in [
        ("ok", stats.responses_ok),
        ("not_modified", stats.responses_not_modified),
        ("error", stats.responses_error),
    ] {
        render_scalar(
            &mut out,
            "pb_origin_responses_total",
            &format!("class=\"{label}\""),
            "counter",
            value,
        );
    }
    render_scalar(
        &mut out,
        "pb_origin_bytes_sent_total",
        "",
        "counter",
        stats.bytes_sent,
    );
    render_scalar(
        &mut out,
        "pb_origin_pushes_sent_total",
        "",
        "counter",
        stats.pushes_sent,
    );
    render_scalar(
        &mut out,
        "pb_origin_push_bytes_sent_total",
        "",
        "counter",
        stats.push_bytes_sent,
    );
    let pb = c.stats.snapshot();
    render_scalar(
        &mut out,
        "pb_origin_pb_requests_total",
        "",
        "counter",
        pb.requests,
    );
    for (label, value) in [
        ("sent", pb.piggybacks_sent),
        ("suppressed", pb.suppressed),
        ("no_filter", pb.no_filter),
    ] {
        render_scalar(
            &mut out,
            "pb_origin_piggyback_outcomes_total",
            &format!("outcome=\"{label}\""),
            "counter",
            value,
        );
    }
    render_scalar(
        &mut out,
        "pb_origin_piggyback_elements_total",
        "",
        "counter",
        pb.elements_sent,
    );
    render_scalar(
        &mut out,
        "pb_origin_table_generation",
        "",
        "gauge",
        c.snapshot.load().generation,
    );
    if let Some(ep) = &c.epoch {
        render_scalar(
            &mut out,
            "pb_origin_epoch_rebuilds_total",
            "",
            "counter",
            ep.rebuilds.load(Relaxed),
        );
    }
    for (class, hist) in obs.classes() {
        render_histogram(
            &mut out,
            "pb_origin_response_duration_seconds",
            &format!("class=\"{class}\""),
            &hist.snapshot(),
            1e6,
        );
    }
    render_histogram(
        &mut out,
        "pb_origin_piggyback_overhead_bytes",
        "",
        &obs.piggyback_bytes.snapshot(),
        1.0,
    );
    #[cfg(target_os = "linux")]
    let shards = shared
        .reactor_metrics
        .as_ref()
        .map_or(&[][..], |rm| &rm.shards);
    #[cfg(not(target_os = "linux"))]
    let shards = &[];
    render_transport(
        &mut out,
        "pb_origin",
        &shared.io_stats,
        shards,
        |_, _, _| {},
    );
    let mut resp = Response::new(200);
    resp.headers
        .insert("Content-Type", "text/plain; version=0.0.4");
    resp.body = out.into();
    resp
}

/// The `/_pb/stats` plain-text body.
fn stats_response(stats: &ServerStats, resources: usize, generation: u64) -> Response {
    let mut resp = Response::new(200);
    resp.headers.insert("Content-Type", "text/plain");
    resp.body = format!(
        "requests {}\npiggybacks_sent {}\nelements_sent {}\nsuppressed {}\nno_filter {}\navg_piggyback_size {:.3}\nresources {}\ngeneration {}\n",
        stats.requests,
        stats.piggybacks_sent,
        stats.elements_sent,
        stats.suppressed,
        stats.no_filter,
        stats.avg_piggyback_size(),
        resources,
        generation,
    )
    .into();
    resp
}

/// HTTP dates have one-second granularity, so a modification bump must
/// land on a *later second* than both the old value and any copy a client
/// validated against.
fn bumped_last_modified(prev: Timestamp, now: Timestamp) -> Timestamp {
    Timestamp::from_secs(now.as_secs().max(prev.as_secs()) + 1)
}

fn handle_request(
    req: &Request,
    source: SourceId,
    now: Timestamp,
    shared: &OriginShared,
    obs: &DaemonObs,
    push_out: &mut Vec<Response>,
) -> Response {
    if req.method != "GET" && req.method != "HEAD" {
        let mut resp = Response::new(405);
        resp.headers.insert("Allow", "GET, HEAD");
        return resp;
    }
    let path = strip_origin_form(&req.target);
    let (c, bodies, push_max) = (&shared.state, &shared.bodies, shared.push_max);
    if path == "/_pb/stats" {
        let snap = c.snapshot.load();
        return stats_response(&c.stats.snapshot(), snap.table.len(), snap.generation);
    }
    if let Some(target) = path.strip_prefix("/_pb/modify") {
        return c.modify(target, now);
    }

    let snap = c.snapshot.load();

    if let Some(v) = req.headers.get(PIGGY_REPORT_HEADER) {
        if let Ok(entries) = parse_report(v) {
            c.absorb_report(&snap, &entries, source, now);
        }
    }

    // Lookup miss short-circuits before any filter parsing or piggyback
    // work: a 404 never carries `P-volume` and never touches the ledger.
    let Some(resource) = snap.table.lookup(path) else {
        let mut resp = Response::new(404);
        resp.body = NOT_FOUND_BODY.clone();
        return resp;
    };
    c.stats.requests.fetch_add(1, Relaxed);
    c.access.record(resource, now);
    if let Some(ep) = &c.epoch {
        ep.histories.record(source, resource, now);
        c.maybe_advance_epoch(now);
    }
    let meta = *snap.table.meta(resource).expect("in snapshot");

    let piggyback: Option<String> =
        match req.headers.get(PIGGY_FILTER_HEADER).map(ProxyFilter::parse) {
            Some(Ok(filter)) => c.encode_piggyback(&snap, resource, &filter),
            _ => {
                c.stats.no_filter.fetch_add(1, Relaxed);
                None
            }
        };
    let mut resp = respond(req, path, resource, meta, piggyback.as_deref(), bodies, obs);

    // Server-push baseline (`--push N`): after a full 200 to a peer that
    // opted in with `Piggy-push: accept`, stream up to `push_max` volume
    // members as complete responses on the same connection. The main
    // response announces the count so the receiver knows how many
    // responses to read before its next request.
    if push_max > 0
        && resp.status == 200
        && req.method != "HEAD"
        && req.headers.get(PIGGY_PUSH_HEADER).is_some()
    {
        if let Some(pv) = piggyback.as_deref() {
            build_pushes(pv, &snap, &c.access, bodies, push_max, push_out);
            if !push_out.is_empty() {
                resp.headers
                    .insert(PUSH_COUNT_HEADER, &push_out.len().to_string());
            }
        }
    }
    resp
}

/// Materialize full pushed responses for the members of an encoded
/// `P-volume`: each carries `X-Push-Path` naming the resource it answers,
/// plus the same Last-Modified/Content-Type/body a demand GET would get.
/// Members that vanished from the snapshot between encoding and push are
/// skipped silently — the announced count is taken from the output after
/// this returns, so the wire never promises more than it delivers.
fn build_pushes(
    pv: &str,
    snap: &OriginSnapshot,
    access: &AccessState,
    bodies: &BodyCache,
    push_max: usize,
    out: &mut Vec<Response>,
) {
    let Ok(wire) = decode_p_volume(pv) else {
        return;
    };
    // The wire sorts elements by ascending resource id (delta encoding),
    // discarding the piggyback's priority order. Re-rank by live access
    // recency — most recent first, ties by ascending id, the same order
    // the piggyback was built in — so a small push budget lands on the
    // members a client is most likely to request next.
    let mut ranked: Vec<(ResourceId, u64, &piggyback_core::wire::WireElement)> = wire
        .elements
        .iter()
        .filter_map(|e| {
            snap.table
                .lookup(&e.path)
                .map(|r| (r, access.recency_raw(r), e))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));
    for (r, _, e) in ranked.into_iter().take(push_max) {
        let Some(meta) = snap.table.meta(r) else {
            continue;
        };
        let meta = *meta;
        let mut p = Response::new(200);
        p.headers.insert(PUSH_PATH_HEADER, &e.path);
        p.headers.insert(
            "Last-Modified",
            &format_rfc1123(unix_from_timestamp(
                meta.last_modified,
                DEFAULT_TRACE_EPOCH_UNIX,
            )),
        );
        p.headers
            .insert("Content-Type", content_type_str(meta.content_type));
        p.body = bodies.get(r, &e.path, meta.size);
        out.push(p);
    }
}

/// Build the HTTP response for a resolved resource: conditional handling,
/// body lookup (memoized shared bytes), and piggyback placement (trailer,
/// or header fallback).
fn respond(
    req: &Request,
    path: &str,
    resource: ResourceId,
    meta: piggyback_core::types::ResourceMeta,
    piggyback: Option<&str>,
    bodies: &BodyCache,
    obs: &DaemonObs,
) -> Response {
    let lm_unix = unix_from_timestamp(meta.last_modified, DEFAULT_TRACE_EPOCH_UNIX);
    let not_modified = req
        .headers
        .get("If-Modified-Since")
        .and_then(parse_rfc1123)
        .map(|ims| meta.last_modified <= timestamp_from_unix(ims, DEFAULT_TRACE_EPOCH_UNIX))
        .unwrap_or(false);
    if let Some(pv) = piggyback {
        // The Section 2.3 overhead ledger: P-volume payload bytes this
        // response will carry (trailer or header alike).
        obs.piggyback_bytes.record_value(pv.len() as u64);
    }

    let wants_chunked = req.headers.list_contains("TE", "chunked");
    let mut resp = Response::new(if not_modified { 304 } else { 200 });
    resp.headers
        .insert("Last-Modified", &format_rfc1123(lm_unix));
    resp.headers
        .insert("Content-Type", content_type_str(meta.content_type));
    if not_modified {
        // No body to delay: piggyback as a plain header.
        if let Some(pv) = piggyback {
            resp.headers.insert(P_VOLUME_HEADER, pv);
        }
        return resp;
    }
    if req.method != "HEAD" {
        resp.body = bodies.get(resource, path, meta.size);
    }
    match piggyback {
        Some(pv) if wants_chunked && req.method != "HEAD" => {
            resp.trailers.insert(P_VOLUME_HEADER, pv);
        }
        Some(pv) => {
            // Peer cannot take trailers: header fallback.
            resp.headers.insert(P_VOLUME_HEADER, pv);
        }
        None => {}
    }
    resp
}

impl OriginState {
    /// Build the serialized piggyback for `(resource, filter)` against
    /// `snap`, accounting the outcome exactly as
    /// [`PiggybackServer::piggyback`](piggyback_core::server::PiggybackServer::piggyback)
    /// does.
    fn encode_piggyback(
        &self,
        snap: &OriginSnapshot,
        resource: ResourceId,
        filter: &ProxyFilter,
    ) -> Option<String> {
        let encoding = compute_encoding(snap, resource, filter, &self.access);
        self.stats
            .count_piggyback_outcome(encoding.as_ref().map(|&(_, n)| n));
        encoding.map(|(text, _)| text)
    }

    fn absorb_report(
        &self,
        snap: &OriginSnapshot,
        entries: &[ReportEntry],
        source: SourceId,
        now: Timestamp,
    ) {
        for e in entries {
            let Some(id) = snap.table.lookup(&e.path) else {
                continue;
            };
            self.access.record_many(id, e.hits.min(1_000), now);
            if let Some(ep) = &self.epoch {
                ep.histories.record(source, id, now);
            }
        }
    }

    /// `/_pb/modify{path}`: clone the table, bump the Last-Modified, and
    /// swap in a successor snapshot under the (rare) swap lock.
    fn modify(&self, target: &str, now: Timestamp) -> Response {
        let _swap = self.swap.lock();
        let snap = self.snapshot.load();
        let Some(r) = snap.table.lookup(target) else {
            return Response::new(404);
        };
        let prev = snap
            .table
            .meta(r)
            .map(|m| m.last_modified)
            .unwrap_or(Timestamp::ZERO);
        let mut table = (*snap.table).clone();
        table.touch_modified(r, bumped_last_modified(prev, now));
        self.snapshot.store(Arc::new(snap.with_table(table)));
        Response::new(204)
    }

    /// Advance the learning epoch if its deadline has passed. The request
    /// that wins the deadline CAS rebuilds inline; everyone else — and
    /// this very request — keeps serving from the previous snapshot
    /// (RCU semantics: readers are never blocked by the swap).
    fn maybe_advance_epoch(&self, now: Timestamp) {
        let Some(ep) = &self.epoch else {
            return;
        };
        let deadline = ep.deadline_ms.load(Relaxed);
        if now.as_millis() < deadline {
            return;
        }
        if ep
            .deadline_ms
            .compare_exchange(
                deadline,
                now.as_millis() + ep.cfg.epoch.as_millis(),
                Relaxed,
                Relaxed,
            )
            .is_err()
        {
            return; // another request won this epoch
        }
        let drained = ep.histories.drain_sorted();
        if drained.is_empty() {
            return;
        }
        let mut builder =
            ProbabilityVolumesBuilder::new(ep.cfg.window, ep.cfg.threshold, SamplingMode::Exact);
        for (t, s, r) in drained {
            builder.observe(s, r, t);
        }
        let learned = builder.build(ep.cfg.threshold);
        if learned.implication_count() == 0 {
            return;
        }
        let _swap = self.swap.lock();
        let snap = self.snapshot.load();
        let FrozenVolumes::Probability(current) = &snap.volumes else {
            return; // unreachable: epoch state only exists for probability volumes
        };
        // Accumulative merge: keep every known implication at its best
        // probability, fold in this epoch's estimates.
        let mut merged: HashMap<ResourceId, Vec<(ResourceId, f32)>> = HashMap::new();
        for (r, s, p) in current.iter() {
            merged.entry(r).or_default().push((s, p));
        }
        for (r, s, p) in learned.iter() {
            let list = merged.entry(r).or_default();
            match list.iter_mut().find(|(existing, _)| *existing == s) {
                Some(entry) => entry.1 = entry.1.max(p),
                None => list.push((s, p)),
            }
        }
        for list in merged.values_mut() {
            list.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0 .0.cmp(&b.0 .0)));
        }
        let vols = ProbabilityVolumes::from_implications(current.threshold(), merged);
        let next = OriginSnapshot::new(
            snap.generation + 1,
            Arc::clone(&snap.table),
            FrozenVolumes::Probability(Arc::new(vols)),
        );
        self.snapshot.store(Arc::new(next));
        ep.rebuilds.fetch_add(1, Relaxed);
    }
}

/// Compute the serialized piggyback and its element count: element
/// selection against the snapshot plus live access state, then `P-volume`
/// encoding (`None` = the filter suppressed it).
fn compute_encoding(
    snap: &OriginSnapshot,
    resource: ResourceId,
    filter: &ProxyFilter,
    access: &AccessState,
) -> Option<(String, u64)> {
    let msg = snap.piggyback(resource, filter, access)?;
    let text = encode_p_volume(&msg, &snap.table).ok()?;
    Some((text, msg.len() as u64))
}

/// Reduce absolute-form targets (`http://host/path`) to origin-form.
pub fn strip_origin_form(target: &str) -> &str {
    if let Some(rest) = target.strip_prefix("http://") {
        match rest.find('/') {
            Some(i) => &rest[i..],
            None => "/",
        }
    } else {
        target
    }
}

fn content_type_str(ct: piggyback_core::types::ContentType) -> &'static str {
    use piggyback_core::types::ContentType;
    match ct {
        ContentType::Html => "text/html",
        ContentType::Image => "image/gif",
        ContentType::Text => "text/plain",
        ContentType::Binary => "application/octet-stream",
        ContentType::Other => "application/octet-stream",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader as StdBufReader, BufWriter};
    use std::net::TcpStream;

    fn connect(handle: &OriginHandle) -> (StdBufReader<TcpStream>, BufWriter<TcpStream>) {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        (
            StdBufReader::new(stream.try_clone().unwrap()),
            BufWriter::new(stream),
        )
    }

    fn get(
        reader: &mut StdBufReader<TcpStream>,
        writer: &mut BufWriter<TcpStream>,
        path: &str,
        extra: &[(&str, &str)],
    ) -> Response {
        request(reader, writer, "GET", path, extra)
    }

    fn request(
        reader: &mut StdBufReader<TcpStream>,
        writer: &mut BufWriter<TcpStream>,
        method: &str,
        path: &str,
        extra: &[(&str, &str)],
    ) -> Response {
        let mut req = Request::new(method, path);
        req.headers.insert("Host", "origin.test");
        for (n, v) in extra {
            req.headers.insert(n, v);
        }
        req.write(writer).unwrap();
        Response::read(reader, method == "HEAD").unwrap()
    }

    /// Persist a small learned volume set for `site_cfg` and return
    /// (file path, page-0 path, page-1 path): page 0 implies page 1.
    fn persisted_volumes(site_cfg: &SiteConfig, tag: &str) -> (std::path::PathBuf, String, String) {
        use piggyback_core::volume::{write_volumes, ProbabilityVolumesBuilder, SamplingMode};
        let (table, site) = Site::generate(site_cfg);
        let a = site.pages[0].resource;
        let b = site.pages[1].resource;
        let mut builder =
            ProbabilityVolumesBuilder::new(DurationMs::from_secs(300), 0.1, SamplingMode::Exact);
        for i in 0..10u64 {
            let base = Timestamp::from_secs(i * 10_000);
            builder.observe(SourceId(1), a, base);
            builder.observe(SourceId(1), b, base + DurationMs::from_secs(2));
        }
        let vols = builder.build(0.5);
        let path =
            std::env::temp_dir().join(format!("pb-test-vols-{tag}-{}.txt", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        write_volumes(&vols, &table, &mut f).unwrap();
        (
            path,
            table.path(a).unwrap().to_owned(),
            table.path(b).unwrap().to_owned(),
        )
    }

    fn piggyback_trailer_flow(cfg: OriginConfig) {
        let origin = start_origin(cfg).unwrap();
        let paths = origin.paths.clone();
        let (mut r, mut w) = connect(&origin);

        // Two requests in the same 1-level volume; the second should carry
        // a piggyback trailer naming the first.
        let same_dir: Vec<&String> = {
            use std::collections::HashMap;
            let mut by_dir: HashMap<&str, Vec<&String>> = HashMap::new();
            for p in &paths {
                by_dir
                    .entry(piggyback_core::intern::directory_prefix(p, 1))
                    .or_default()
                    .push(p);
            }
            by_dir
                .into_values()
                .find(|v| v.len() >= 2)
                .expect("some directory has two resources")
        };

        let resp1 = get(
            &mut r,
            &mut w,
            same_dir[0],
            &[("TE", "chunked"), ("Piggy-filter", "maxpiggy=10")],
        );
        assert_eq!(resp1.status, 200);
        assert!(!resp1.body.is_empty());

        let resp2 = get(
            &mut r,
            &mut w,
            same_dir[1],
            &[("TE", "chunked"), ("Piggy-filter", "maxpiggy=10")],
        );
        assert_eq!(resp2.status, 200);
        let pv = resp2
            .trailers
            .get("P-volume")
            .expect("piggyback trailer expected");
        assert!(pv.contains(same_dir[0].as_str()), "piggyback {pv}");

        // Conservation: both served requests resolved to an outcome.
        let stats = origin.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.outcomes(), stats.requests);
        origin.stop();
    }

    #[test]
    fn serves_site_resources_with_piggyback_trailer() {
        piggyback_trailer_flow(OriginConfig::default());
    }

    #[test]
    fn push_mode_streams_volume_mates_after_main_response() {
        let origin = start_origin(OriginConfig {
            push_max: 4,
            ..OriginConfig::default()
        })
        .unwrap();
        let paths = origin.paths.clone();
        let (mut r, mut w) = connect(&origin);

        // Same-directory pair, as in the trailer-flow test: the second
        // request's piggyback names the first, so the push stream must
        // carry the first resource's full body.
        let same_dir: Vec<&String> = {
            use std::collections::HashMap;
            let mut by_dir: HashMap<&str, Vec<&String>> = HashMap::new();
            for p in &paths {
                by_dir
                    .entry(piggyback_core::intern::directory_prefix(p, 1))
                    .or_default()
                    .push(p);
            }
            by_dir
                .into_values()
                .find(|v| v.len() >= 2)
                .expect("some directory has two resources")
        };

        let resp1 = get(
            &mut r,
            &mut w,
            same_dir[0],
            &[("TE", "chunked"), ("Piggy-filter", "maxpiggy=10")],
        );
        assert_eq!(resp1.status, 200);

        let resp2 = get(
            &mut r,
            &mut w,
            same_dir[1],
            &[
                ("TE", "chunked"),
                ("Piggy-filter", "maxpiggy=10"),
                (PIGGY_PUSH_HEADER, "accept"),
            ],
        );
        assert_eq!(resp2.status, 200);
        let n: usize = resp2
            .headers
            .get(PUSH_COUNT_HEADER)
            .expect("push count announced")
            .parse()
            .unwrap();
        assert!(n >= 1, "at least the volume mate pushed");

        // Exactly `n` full responses follow on the same stream, each
        // naming its resource. The volume mate's pushed body must be
        // byte-identical to what a demand GET returned.
        let mut pushed_mate = None;
        for _ in 0..n {
            let p = Response::read(&mut r, false).unwrap();
            assert_eq!(p.status, 200);
            let path = p
                .headers
                .get(PUSH_PATH_HEADER)
                .expect("push path")
                .to_owned();
            if path == *same_dir[0] {
                pushed_mate = Some(p);
            }
        }
        let mate = pushed_mate.expect("volume mate was pushed");
        assert_eq!(mate.body, resp1.body);

        // The stream stays usable after the push burst.
        let resp3 = get(&mut r, &mut w, same_dir[0], &[]);
        assert_eq!(resp3.status, 200);

        let daemon = origin.daemon_stats();
        assert_eq!(daemon.pushes_sent, n as u64);
        assert!(daemon.push_bytes_sent > 0);
        origin.stop();
    }

    #[test]
    fn conditional_requests_and_modification() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let path = origin.paths[0].clone();
        let (mut r, mut w) = connect(&origin);

        let resp = get(&mut r, &mut w, &path, &[]);
        assert_eq!(resp.status, 200);
        let lm = resp.headers.get("Last-Modified").unwrap().to_owned();

        // Validate: 304 without body.
        let resp = get(&mut r, &mut w, &path, &[("If-Modified-Since", &lm)]);
        assert_eq!(resp.status, 304);
        assert!(resp.body.is_empty());

        // Modify, then the same validation gets a fresh 200.
        assert_eq!(origin.generation(), 0);
        let resp = get(&mut r, &mut w, &format!("/_pb/modify{path}"), &[]);
        assert_eq!(resp.status, 204);
        assert_eq!(origin.generation(), 1, "modify must bump the generation");
        let resp = get(&mut r, &mut w, &path, &[("If-Modified-Since", &lm)]);
        assert_eq!(resp.status, 200, "modified resource must be re-sent");

        origin.stop();
    }

    #[test]
    fn origin_serves_persisted_probability_volumes() {
        let site_cfg = SiteConfig {
            n_pages: 20,
            seed: 77,
            ..Default::default()
        };
        let (path, a_path, b_path) = persisted_volumes(&site_cfg, "persist");
        let origin = start_origin(OriginConfig {
            site: site_cfg,
            volumes: VolumeScheme::ProbabilityFile(path.clone()),
            ..Default::default()
        })
        .unwrap();
        let (mut r, mut w) = connect(&origin);
        let resp = get(
            &mut r,
            &mut w,
            &a_path,
            &[("TE", "chunked"), ("Piggy-filter", "maxpiggy=5")],
        );
        assert_eq!(resp.status, 200);
        let pv = resp
            .trailers
            .get("P-volume")
            .expect("persisted implication must piggyback immediately");
        assert!(pv.contains(&b_path), "expected {b_path} in {pv}");
        origin.stop();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn probability_piggyback_repeats_until_the_generation_moves() {
        let site_cfg = SiteConfig {
            n_pages: 20,
            seed: 78,
            ..Default::default()
        };
        let (path, a_path, b_path) = persisted_volumes(&site_cfg, "generation");
        let origin = start_origin(OriginConfig {
            site: site_cfg,
            volumes: VolumeScheme::ProbabilityFile(path.clone()),
            ..Default::default()
        })
        .unwrap();
        let (mut r, mut w) = connect(&origin);
        let headers = [("TE", "chunked"), ("Piggy-filter", "maxpiggy=5")];

        let resp1 = get(&mut r, &mut w, &a_path, &headers);
        let pv1 = resp1.trailers.get("P-volume").unwrap().to_owned();
        let resp2 = get(&mut r, &mut w, &a_path, &headers);
        let pv2 = resp2.trailers.get("P-volume").unwrap().to_owned();
        assert_eq!(
            pv1, pv2,
            "a repeat within a generation must be byte-identical"
        );

        // A modification bumps the generation, and the next trailer
        // reflects the new Last-Modified.
        let resp = get(&mut r, &mut w, &format!("/_pb/modify{b_path}"), &[]);
        assert_eq!(resp.status, 204);
        let resp3 = get(&mut r, &mut w, &a_path, &headers);
        let pv3 = resp3.trailers.get("P-volume").unwrap().to_owned();
        assert_ne!(pv3, pv1, "a generation bump must change the trailer");
        assert_eq!(origin.generation(), 1);

        // Every piggyback lands in the ledger.
        let stats = origin.stats();
        assert_eq!(stats.piggybacks_sent, 3);
        assert_eq!(stats.outcomes(), stats.requests);
        origin.stop();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn online_epoch_learns_new_implications() {
        // Seed volumes relate pages 0→1 only; online learning must pick
        // up the co-access pattern page 2→3 from live traffic.
        let site_cfg = SiteConfig {
            n_pages: 20,
            seed: 79,
            ..Default::default()
        };
        let (path, _, _) = persisted_volumes(&site_cfg, "epoch");
        let (table, site) = Site::generate(&site_cfg);
        let c_path = table.path(site.pages[2].resource).unwrap().to_owned();
        let d_path = table.path(site.pages[3].resource).unwrap().to_owned();
        let origin = start_origin(OriginConfig {
            site: site_cfg,
            volumes: VolumeScheme::ProbabilityFile(path.clone()),
            online_epoch: Some(OnlineEpochConfig {
                epoch: DurationMs::from_millis(60),
                window: DurationMs::from_millis(10),
                threshold: 0.5,
            }),
            ..Default::default()
        })
        .unwrap();
        let (mut r, mut w) = connect(&origin);
        let headers = [("TE", "chunked"), ("Piggy-filter", "maxpiggy=5")];

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut learned = false;
        while std::time::Instant::now() < deadline {
            // One c→d co-access inside the builder window, then a gap well
            // past it: every occurrence of c earns a (c, d) pair credit,
            // so p(d|c) estimates to 1.0 at the next epoch drain.
            let resp = get(&mut r, &mut w, &c_path, &headers);
            std::thread::sleep(std::time::Duration::from_millis(3));
            get(&mut r, &mut w, &d_path, &headers);
            std::thread::sleep(std::time::Duration::from_millis(20));
            if let Some(pv) = resp.trailers.get("P-volume") {
                if pv.contains(&d_path) {
                    learned = true;
                    break;
                }
            }
        }
        assert!(learned, "epoch advance must learn the c→d co-access");
        assert!(origin.generation() > 0, "epoch swap bumps the generation");
        origin.stop();
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stats_endpoint_reports_counters() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let (mut r, mut w) = connect(&origin);
        get(&mut r, &mut w, &origin.paths[0].clone(), &[]);
        let resp = get(&mut r, &mut w, "/_pb/stats", &[]);
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body.to_vec()).unwrap();
        assert!(text.contains("requests 1"), "{text}");
        assert!(text.contains("no_filter 1"), "{text}");
        assert!(text.contains("resources"), "{text}");
        assert!(text.contains("generation 0"), "{text}");
        origin.stop();
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let (mut r, mut w) = connect(&origin);
        get(&mut r, &mut w, &origin.paths[0].clone(), &[]);
        get(&mut r, &mut w, "/no/such/thing.html", &[]);
        let resp = get(&mut r, &mut w, METRICS_PATH, &[]);
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.headers.get("Content-Type"),
            Some("text/plain; version=0.0.4")
        );
        let text = String::from_utf8(resp.body.to_vec()).unwrap();
        // The scrape itself stays out of the request ledger.
        assert!(text.contains("pb_origin_requests_total 2\n"), "{text}");
        assert!(
            text.contains("pb_origin_responses_total{class=\"ok\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pb_origin_responses_total{class=\"error\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pb_origin_response_duration_seconds_count{class=\"ok\"} 1"),
            "{text}"
        );
        // Duration histogram totals balance against the request counter.
        let duration_total: u64 = text
            .lines()
            .filter(|l| l.starts_with("pb_origin_response_duration_seconds_count"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(duration_total, 2, "{text}");
        // The snapshot path exposes its piggyback ledger and generation.
        assert!(text.contains("pb_origin_pb_requests_total 1"), "{text}");
        assert!(
            text.contains("pb_origin_piggyback_outcomes_total{outcome=\"no_filter\"} 1"),
            "{text}"
        );
        assert!(text.contains("pb_origin_table_generation 0"), "{text}");

        // Disabled endpoint answers 404 locally.
        let muted = start_origin(OriginConfig {
            metrics: false,
            ..Default::default()
        })
        .unwrap();
        let (mut r2, mut w2) = connect(&muted);
        let resp = get(&mut r2, &mut w2, METRICS_PATH, &[]);
        assert_eq!(resp.status, 404);
        muted.stop();
        origin.stop();
    }

    #[test]
    fn non_get_head_rejected_with_405_allow() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let path = origin.paths[0].clone();
        let (mut r, mut w) = connect(&origin);
        for method in ["POST", "PUT", "DELETE", "OPTIONS"] {
            let resp = request(&mut r, &mut w, method, &path, &[]);
            assert_eq!(resp.status, 405, "{method}");
            assert_eq!(resp.headers.get("Allow"), Some("GET, HEAD"), "{method}");
        }
        origin.stop();
    }

    #[test]
    fn missing_resources_404_without_piggyback_work() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let (mut r, mut w) = connect(&origin);
        // Even with a filter and TE, a 404 must carry no piggyback and
        // must not touch the piggyback ledger at all.
        let resp = get(
            &mut r,
            &mut w,
            "/no/such/thing.html",
            &[("TE", "chunked"), ("Piggy-filter", "maxpiggy=10")],
        );
        assert_eq!(resp.status, 404);
        assert!(resp.headers.get("P-volume").is_none());
        assert!(resp.trailers.get("P-volume").is_none());
        let stats = origin.stats();
        assert_eq!(stats.requests, 0, "404s never enter the server ledger");
        assert_eq!(stats.outcomes(), 0);
        origin.stop();
    }

    #[test]
    fn no_filter_no_piggyback() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let paths = origin.paths.clone();
        let (mut r, mut w) = connect(&origin);
        get(&mut r, &mut w, &paths[0], &[]);
        let resp = get(&mut r, &mut w, &paths[1], &[]);
        assert!(resp.trailers.get("P-volume").is_none());
        assert!(resp.headers.get("P-volume").is_none());
        let stats = origin.stats();
        assert_eq!(stats.no_filter, 2);
        assert_eq!(stats.outcomes(), stats.requests);
        origin.stop();
    }

    #[test]
    fn absolute_form_targets_accepted() {
        assert_eq!(strip_origin_form("http://h.com/a/b.html"), "/a/b.html");
        assert_eq!(strip_origin_form("http://h.com"), "/");
        assert_eq!(strip_origin_form("/plain"), "/plain");
    }
}

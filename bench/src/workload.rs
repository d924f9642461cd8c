//! The four workloads: what each feeds the chain and what it expects back.
//!
//! Every phase is a fixed, seeded request list of fixed length — never a
//! fixed duration — cut into [`SEGMENTS`] equal segments, and every length
//! and rate below is a literal constant calibrated once, so two commits
//! (or two runs) receive identical load. A segment is the unit the run
//! interleaves (engine against engine, paced against closed-loop) and the
//! unit every timed figure is first taken over. `--seconds` scales the
//! segment lengths linearly from [`NOMINAL_SECONDS`]; it never turns a
//! list into a stopwatch.

use crate::rng::Rng;
use crate::wire::{CacheClass, Checksum};
use piggyback_core::filter::ProxyFilter;
use piggyback_core::types::DurationMs;
use piggyback_proxyd::netem::{NetProfile, ShimConfig};
use piggyback_proxyd::{synth_body, ProxyConfig};
use piggyback_trace::synth::samplers::LogNormal;
use piggyback_trace::synth::site::{Site, SiteConfig};
use std::sync::Arc;

/// The `--seconds` value the literal list lengths below were sized for
/// (`run_seconds` in `BENCHMARK.json`): the measured segments of both
/// engines together take about this long. Thirty seconds, because the
/// host's slow spells last up to that long: over ten seeds `large_stream`
/// spread 10–16 % in 20 s runs and 4–9 % in 30 s ones, and 92 runs of 30 s
/// still leave a quarter of the driver's time cap spare.
pub const NOMINAL_SECONDS: f64 = 30.0;

/// Segments per phase (sixteen would meet a quiet spell of the host more
/// often, but a run the host steals half the CPU from would then outlast
/// the driver's time cap). Each is long enough to take a median over and
/// short enough that a dozen of them, interleaved with the other engine's
/// and the other phase's, spread every figure over the whole run.
pub const SEGMENTS: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HitFlood,
    MissChurn,
    BrowseDsl,
    LargeStream,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::HitFlood,
        Kind::MissChurn,
        Kind::BrowseDsl,
        Kind::LargeStream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HitFlood => "hit_flood",
            Kind::MissChurn => "miss_churn",
            Kind::BrowseDsl => "browse_dsl",
            Kind::LargeStream => "large_stream",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// What the `X-Cache` verdict on an operation must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Any verdict the proxy can give a 200 (timing decides which).
    Any,
    Hit,
    Miss,
    Validated,
    /// Large objects are never cached whole: a hit would be a bug.
    MissOrPrefix,
    /// Control traffic relayed to the origin uncached (`/_pb/modify…`):
    /// no verdict, and not an operation of the workload.
    Control,
}

impl Expect {
    pub fn admits(self, class: CacheClass) -> bool {
        match self {
            Expect::Any => matches!(
                class,
                CacheClass::Hit | CacheClass::Miss | CacheClass::Validated | CacheClass::Prefix
            ),
            Expect::Hit => class == CacheClass::Hit,
            Expect::Miss => class == CacheClass::Miss,
            Expect::Validated => class == CacheClass::Validated,
            Expect::MissOrPrefix => matches!(class, CacheClass::Miss | CacheClass::Prefix),
            Expect::Control => class == CacheClass::None,
        }
    }
}

/// One GET of a phase list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index into [`Plan::resources`].
    pub res: u32,
    pub expect: Expect,
}

/// A resource the chain serves, with what its body must be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    pub path: String,
    /// 200 for content, 204 for the origin's control endpoint.
    pub status: u16,
    pub len: u64,
    pub sum: u64,
}

/// Pre-serialized request bytes per resource, so the generator's send
/// path is one `write` of bytes that already exist.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RequestArena {
    bytes: Vec<u8>,
    spans: Vec<(u32, u32)>,
}

impl RequestArena {
    /// A browser-shaped GET: the header set (and so the parse cost) of a
    /// real client, not a bare request line.
    fn push(&mut self, path: &str) {
        let start = self.bytes.len() as u32;
        self.bytes.extend_from_slice(
            format!(
                "GET {path} HTTP/1.1\r\n\
                 Host: bench.piggyback.test\r\n\
                 User-Agent: Mozilla/5.0 (X11; Linux x86_64) pb-chain-bench/0.1\r\n\
                 Accept: text/html,application/xhtml+xml,image/gif,image/jpeg,*/*;q=0.8\r\n\
                 Accept-Language: en-US,en;q=0.5\r\n\
                 Connection: keep-alive\r\n\r\n"
            )
            .as_bytes(),
        );
        self.spans.push((start, self.bytes.len() as u32));
    }

    pub fn get(&self, res: u32) -> &[u8] {
        let (a, b) = self.spans[res as usize];
        &self.bytes[a as usize..b as usize]
    }
}

/// One open-loop segment: requests sent on one keep-alive connection on a
/// seeded Poisson schedule whether or not earlier ones have completed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacedSegment {
    pub ops: Vec<Op>,
    /// When each op is due, nanoseconds from the segment's start.
    pub due_ns: Vec<u64>,
}

/// The open-loop phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Paced {
    pub rate: f64,
    pub segments: Vec<PacedSegment>,
}

/// The closed-loop phase: one connection kept `depth` requests deep, which
/// stands in for the many ready clients the connection limit forbids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Closed {
    pub depth: usize,
    /// Operations per timing window: the rate figure is taken over the
    /// median window of a segment. The depth, except where single requests
    /// differ too much to be timed singly (`large_stream`: one round).
    pub window: usize,
    pub segments: Vec<Vec<Op>>,
}

/// One page load of a browsing user: optionally a control request that
/// modifies a page at the origin, then the page, then its images, then
/// think time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Load {
    /// Control resource (`/_pb/modify<path>`) requested before this load.
    pub modify: Option<u32>,
    pub page: u32,
    pub images: Vec<u32>,
}

/// The browsing phase: a fixed population of users who each wait for
/// their page — a closed loop by nature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Browse {
    /// Per user: warm-up loads (part of set-up), then [`SEGMENTS`] runs
    /// of `segment_loads` measured loads.
    pub users: Vec<Vec<Load>>,
    pub warm_loads: usize,
    pub segment_loads: usize,
    pub think: std::time::Duration,
}

impl Browse {
    /// The load indices of measured segment `k`, the same for every user.
    pub fn segment(&self, k: usize) -> std::ops::Range<usize> {
        let start = self.warm_loads + k * self.segment_loads;
        start..start + self.segment_loads
    }
}

/// The benchmark-owned large-object origin's population: every body is a
/// window of one shared pattern buffer, so serving costs no generation.
#[derive(Debug)]
pub struct StubObjects {
    pub pattern: Vec<u8>,
    pub objects: Vec<StubObject>,
}

#[derive(Debug)]
pub struct StubObject {
    pub path: String,
    /// The body is `pattern[offset..offset + len]`.
    pub offset: usize,
    pub len: usize,
    /// A request that offers `TE: chunked` is answered chunk-encoded.
    pub chunked: bool,
}

impl StubObjects {
    pub fn body(&self, i: usize) -> &[u8] {
        let o = &self.objects[i];
        &self.pattern[o.offset..o.offset + o.len]
    }
}

pub enum OriginSpec {
    /// `pb-origin` serving a generated site.
    Site(SiteConfig),
    /// The benchmark's own stub (pb-origin caps bodies at 256 KiB).
    Stub(Arc<StubObjects>),
}

/// How to start the chain for a workload.
pub struct ChainSpec {
    pub origin: OriginSpec,
    pub shim: Option<ShimConfig>,
    /// Applied to `ProxyConfig::new(upstream)`; the engine is set by the
    /// caller.
    pub proxy: fn(&mut ProxyConfig),
}

/// The phase lists of one run.
#[derive(Default)]
struct Lists {
    populate: Vec<Op>,
    warmup: Option<PacedSegment>,
    paced: Option<Paced>,
    closed: Option<Closed>,
    unloaded: Option<Vec<Vec<Op>>>,
    browse: Option<Browse>,
    serial: Vec<Op>,
    serial_pauses: Vec<usize>,
}

/// What the chain serves: the resources, how to start the chain, and the
/// site structure the browsing walk follows.
struct World {
    resources: Vec<Resource>,
    chain: ChainSpec,
    site: Option<Site>,
}

/// Everything one run of one workload needs, derived from the seed alone.
pub struct Plan {
    pub resources: Vec<Resource>,
    pub arena: RequestArena,
    pub chain: ChainSpec,
    /// Fetched once, serially, at set-up.
    pub populate: Vec<Op>,
    /// Paced at the measured phase's own rate, so its duration is a
    /// property of the list, not of the host.
    pub warmup: Option<PacedSegment>,
    pub paced: Option<Paced>,
    pub closed: Option<Closed>,
    /// Segments run with one request in flight, for the latency figures;
    /// `None` where the closed-loop phase already is that (`large_stream`)
    /// or the users are (`browse_dsl`).
    pub unloaded: Option<Vec<Vec<Op>>>,
    pub browse: Option<Browse>,
    /// The traced run's list: one request in flight at a time.
    pub serial: Vec<Op>,
    /// Indices into `serial` where a page load starts: the serial driver
    /// thinks there, as the user would. Empty unless browsing.
    pub serial_pauses: Vec<usize>,
    /// How long generating the site and the request lists took.
    pub site_generate_ms: f64,
    pub requests_generate_ms: f64,
}

impl Plan {
    pub fn build(kind: Kind, seed: u64, seconds: f64) -> Plan {
        let scale = seconds / NOMINAL_SECONDS;
        let t = std::time::Instant::now();
        let mut world = match kind {
            Kind::HitFlood => hit_flood_world(seed),
            Kind::MissChurn => miss_churn_world(seed, scaled(CHURN_SERIAL, scale)),
            Kind::BrowseDsl => browse_dsl_world(seed),
            Kind::LargeStream => large_stream_world(seed),
        };
        let site_generate_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = std::time::Instant::now();
        let lists = match kind {
            Kind::HitFlood => hit_flood_lists(seed, scale, &world),
            Kind::MissChurn => miss_churn_lists(seed, scale, scaled(CHURN_SERIAL, scale), &world),
            Kind::BrowseDsl => browse_dsl_lists(seed, scale, &mut world),
            Kind::LargeStream => large_stream_lists(seed, scale, &world),
        };
        let arena = arena_for(&world.resources);
        let requests_generate_ms = t.elapsed().as_secs_f64() * 1e3;
        Plan {
            resources: world.resources,
            arena,
            chain: world.chain,
            populate: lists.populate,
            warmup: lists.warmup,
            paced: lists.paced,
            closed: lists.closed,
            unloaded: lists.unloaded,
            browse: lists.browse,
            serial: lists.serial,
            serial_pauses: lists.serial_pauses,
            site_generate_ms,
            requests_generate_ms,
        }
    }

    /// Every paced segment, the warm-up first.
    fn paced_segments(&self) -> impl Iterator<Item = &PacedSegment> + Clone {
        self.warmup
            .iter()
            .chain(self.paced.iter().flat_map(|p| &p.segments))
    }

    /// A fingerprint of every generated input, for the determinism tests
    /// and the run header.
    pub fn fingerprint(&self) -> u64 {
        let mut c = Checksum::default();
        let mut ops = |ops: &[Op]| {
            for op in ops {
                c.update(&op.res.to_le_bytes());
                c.update(&[op.expect as u8]);
            }
        };
        ops(&self.populate);
        ops(&self.serial);
        for seg in self.paced_segments() {
            ops(&seg.ops);
        }
        for seg in self.closed.iter().flat_map(|c| &c.segments) {
            ops(seg);
        }
        for seg in self.unloaded.iter().flatten() {
            ops(seg);
        }
        for d in self.paced_segments().flat_map(|seg| &seg.due_ns) {
            c.update(&d.to_le_bytes());
        }
        for load in self.browse.iter().flat_map(|b| b.users.iter().flatten()) {
            c.update(&load.page.to_le_bytes());
            c.update(&load.modify.unwrap_or(u32::MAX).to_le_bytes());
            for i in &load.images {
                c.update(&i.to_le_bytes());
            }
        }
        for r in &self.resources {
            c.update(r.path.as_bytes());
            c.update(&r.sum.to_le_bytes());
        }
        c.finish()
    }
}

/// A segment length scaled by `--seconds`; never so short that a median
/// over it means nothing.
fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale).round() as usize).max(16)
}

/// A seeded Poisson arrival schedule: `n` cumulative exponential gaps,
/// rescaled so the last arrival falls exactly at `n / rate` — every seed
/// offers the same rate over the same time, only the gaps differ.
pub fn poisson_schedule(rng: &mut Rng, n: usize, rate: f64) -> Vec<u64> {
    let mut t = 0.0f64;
    let raw: Vec<f64> = (0..n)
        .map(|_| {
            t += rng.exponential(1.0);
            t
        })
        .collect();
    let stretch = n as f64 / rate * 1e9 / t;
    raw.into_iter().map(|x| (x * stretch) as u64).collect()
}

fn paced_segment(ops: Vec<Op>, rate: f64, rng: &mut Rng) -> PacedSegment {
    let due_ns = poisson_schedule(rng, ops.len(), rate);
    PacedSegment { ops, due_ns }
}

/// The measured phases of a request-list workload: [`SEGMENTS`] paced
/// segments of `n_paced` ops, as many closed-loop ones of `n_closed`, and
/// (where `n_unloaded > 0`) as many one-request-in-flight ones, drawn
/// alternately — the order the run executes them in — so the phases walk
/// one stream.
fn phases(
    mut draw: impl FnMut(usize) -> Vec<Op>,
    (rate, n_paced): (f64, usize),
    (depth, window, n_closed): (usize, usize, usize),
    n_unloaded: usize,
    arrivals: &mut Rng,
) -> (Paced, Closed, Option<Vec<Vec<Op>>>) {
    let mut paced = Vec::with_capacity(SEGMENTS);
    let mut closed = Vec::with_capacity(SEGMENTS);
    let mut unloaded = Vec::with_capacity(SEGMENTS);
    for _ in 0..SEGMENTS {
        paced.push(paced_segment(draw(n_paced), rate, arrivals));
        closed.push(draw(n_closed));
        if n_unloaded > 0 {
            unloaded.push(draw(n_unloaded));
        }
    }
    (
        Paced {
            rate,
            segments: paced,
        },
        Closed {
            depth,
            window,
            segments: closed,
        },
        (n_unloaded > 0).then_some(unloaded),
    )
}

/// Resources of a generated site, in table order (a `ResourceId` is its
/// position), with the checksum of the body `pb-origin` will synthesize.
fn site_world(cfg: SiteConfig, shim: Option<ShimConfig>, proxy: fn(&mut ProxyConfig)) -> World {
    let (table, site) = Site::generate(&cfg);
    let resources = table
        .iter()
        .map(|(_, path, meta)| {
            let body = synth_body(path, meta.size);
            Resource {
                path: path.to_owned(),
                status: 200,
                len: body.len() as u64,
                sum: Checksum::of(&body),
            }
        })
        .collect();
    World {
        resources,
        chain: ChainSpec {
            origin: OriginSpec::Site(cfg),
            shim,
            proxy,
        },
        site: Some(site),
    }
}

fn arena_for(resources: &[Resource]) -> RequestArena {
    let mut arena = RequestArena::default();
    for r in resources {
        arena.push(&r.path);
    }
    arena
}

/// Pages of (almost exactly) `bytes` bytes and nothing else: no images,
/// so the request mix is the list and only the list.
fn flat_site(seed: u64, pages: usize, dirs: usize, bytes: f64) -> SiteConfig {
    SiteConfig {
        n_pages: pages,
        n_dirs: dirs,
        images_per_page: (0, 0),
        shared_images: 0,
        page_size: LogNormal::new(bytes.ln(), 0.0),
        seed,
        ..Default::default()
    }
}

/// Zipf(`theta`) cumulative distribution over `n` ranks.
fn zipf_cdf(n: usize, theta: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (0..n)
        .map(|k| {
            acc += 1.0 / ((k + 1) as f64).powf(theta);
            acc
        })
        .collect();
    for v in &mut cdf {
        *v /= acc;
    }
    cdf
}

// ---------------------------------------------------------------------
// hit_flood
// ---------------------------------------------------------------------

/// Paced rate, requests per second.
const HIT_RATE: f64 = 20_000.0;
/// Operations per paced segment (0.45 s at [`HIT_RATE`]).
const HIT_PACED: usize = 9_000;
/// Operations per closed-loop segment (about 0.45 s threaded, 0.2 s reactor).
const HIT_CLOSED: usize = 72_000;
/// Operations per one-in-flight segment (about 0.2 s).
const HIT_UNLOADED: usize = 18_000;
const HIT_WARMUP: usize = 20_000;
const HIT_DEPTH: usize = 16;
const HIT_SERIAL: usize = 9_000;

/// 64 pages of ~2 KiB, Δ = 1 h, all cached at set-up: the smallest
/// message on the pure fast path.
fn hit_flood_world(seed: u64) -> World {
    site_world(flat_site(seed, 64, 8, 2048.0), None, |cfg| {
        cfg.freshness = DurationMs::from_secs(3600);
    })
}

fn hit_flood_lists(seed: u64, scale: f64, world: &World) -> Lists {
    let mut perm: Vec<u32> = (0..world.resources.len() as u32).collect();
    Rng::fork(seed, "popularity").shuffle(&mut perm);
    let cdf = zipf_cdf(perm.len(), 0.8);
    let mut rng = Rng::fork(seed, "requests");
    let mut draw = |n: usize| -> Vec<Op> {
        (0..n)
            .map(|_| {
                let u = rng.unit();
                let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                Op {
                    res: perm[rank],
                    expect: Expect::Hit,
                }
            })
            .collect()
    };
    let mut arrivals = Rng::fork(seed, "arrivals");
    let warmup = paced_segment(draw(HIT_WARMUP), HIT_RATE, &mut arrivals);
    let serial = draw(scaled(HIT_SERIAL, scale));
    let (paced, closed, unloaded) = phases(
        draw,
        (HIT_RATE, scaled(HIT_PACED, scale)),
        (HIT_DEPTH, HIT_DEPTH, scaled(HIT_CLOSED, scale)),
        scaled(HIT_UNLOADED, scale),
        &mut arrivals,
    );
    Lists {
        populate: (0..world.resources.len() as u32)
            .map(|res| Op {
                res,
                expect: Expect::Miss,
            })
            .collect(),
        warmup: Some(warmup),
        paced: Some(paced),
        closed: Some(closed),
        unloaded,
        serial,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// miss_churn
// ---------------------------------------------------------------------

const CHURN_PAGES: usize = 4_000;
const CHURN_REVISIT: usize = 200;
const CHURN_RATE: f64 = 4_000.0;
/// Operations per paced segment (0.45 s at [`CHURN_RATE`]).
const CHURN_PACED: usize = 1_800;
/// Operations per closed-loop segment (about 0.45 s).
const CHURN_CLOSED: usize = 8_400;
/// Operations per one-in-flight segment (about 0.2 s).
const CHURN_UNLOADED: usize = 3_000;
const CHURN_WARMUP: usize = 4_000;
const CHURN_DEPTH: usize = 8;
const CHURN_SERIAL: usize = 4_500;
const CHURN_REVISIT_SHARE: f64 = 0.3;
/// The proxy's cache: a quarter of what the churn pages weigh, so none of
/// them survives until the walk returns to it, and ten times what the
/// revisited pages weigh, so none of those is ever the oldest entry of its
/// shard — whichever lists a run executes between two visits.
const CHURN_CACHE_BYTES: u64 = 4 * 1024 * 1024;
/// Strides co-prime with [`CHURN_PAGES`]; the seed picks one.
const CHURN_STRIDES: [usize; 8] = [1_237, 1_511, 1_777, 2_003, 2_311, 2_657, 2_953, 3_259];

/// 4 000 pages walked with a co-prime stride — each a full fetch with a
/// store and an eviction — interleaved 70/30 with round-robin revisits to
/// 200 further pages that stay resident in a 4 MiB LRU, at Δ = 0 so each
/// revisit is an If-Modified-Since → 304. Δ = 0 rather than the 1 ms the
/// concurrency tests use: at 1 ms a piggyback freshen followed within
/// the same millisecond by a revisit is a fresh hit, and the outcome mix
/// would depend on timing; at 0 it repeats exactly.
fn miss_churn_world(seed: u64, serial_ops: usize) -> World {
    site_world(
        flat_site(seed, CHURN_PAGES + CHURN_REVISIT + serial_ops, 24, 2048.0),
        None,
        |cfg| {
            cfg.capacity_bytes = CHURN_CACHE_BYTES;
            cfg.freshness = DurationMs::ZERO;
        },
    )
}

fn miss_churn_lists(seed: u64, scale: f64, serial_ops: usize, world: &World) -> Lists {
    let mut ids: Vec<u32> = (0..world.resources.len() as u32).collect();
    Rng::fork(seed, "popularity").shuffle(&mut ids);
    let (revisit, rest) = ids.split_at(CHURN_REVISIT);
    let (churn, serial_only) = rest.split_at(CHURN_PAGES);
    let mut rng = Rng::fork(seed, "requests");
    let stride = CHURN_STRIDES[rng.below(CHURN_STRIDES.len())];
    let mut at = rng.below(CHURN_PAGES);
    let mut next_revisit = 0usize;
    let mut draw = |n: usize| -> Vec<Op> {
        (0..n)
            .map(|_| {
                if rng.unit() < CHURN_REVISIT_SHARE {
                    next_revisit = (next_revisit + 1) % CHURN_REVISIT;
                    Op {
                        res: revisit[next_revisit],
                        expect: Expect::Validated,
                    }
                } else {
                    at = (at + stride) % CHURN_PAGES;
                    Op {
                        res: churn[at],
                        expect: Expect::Miss,
                    }
                }
            })
            .collect()
    };
    let mut arrivals = Rng::fork(seed, "arrivals");
    let warmup = paced_segment(draw(CHURN_WARMUP), CHURN_RATE, &mut arrivals);
    let (paced, closed, unloaded) = phases(
        draw,
        (CHURN_RATE, scaled(CHURN_PACED, scale)),
        (CHURN_DEPTH, CHURN_DEPTH, scaled(CHURN_CLOSED, scale)),
        scaled(CHURN_UNLOADED, scale),
        &mut arrivals,
    );
    // The traced run's serial list follows a *prefix* of the lists above,
    // so it must not depend on where they left the walk: its full fetches
    // go to pages of its own, each asked for once, and its revisits cycle
    // from the start.
    let mut rng = Rng::fork(seed, "serial");
    let mut fresh = serial_only.iter();
    // Round-robin like the lists above (not `i % CHURN_REVISIT`, which
    // leaves the gap between two visits of a page to chance — long enough,
    // on some seeds, for the full fetches between them to evict it).
    let mut next_revisit = 0usize;
    let serial = (0..serial_ops)
        .map(|_| {
            if rng.unit() < CHURN_REVISIT_SHARE {
                next_revisit = (next_revisit + 1) % CHURN_REVISIT;
                Op {
                    res: revisit[next_revisit],
                    expect: Expect::Validated,
                }
            } else {
                Op {
                    res: *fresh.next().expect("one page of its own per serial op"),
                    expect: Expect::Miss,
                }
            }
        })
        .collect();
    Lists {
        populate: revisit
            .iter()
            .map(|&res| Op {
                res,
                expect: Expect::Miss,
            })
            .collect(),
        warmup: Some(warmup),
        paced: Some(paced),
        closed: Some(closed),
        unloaded,
        serial,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// browse_dsl
// ---------------------------------------------------------------------

const BROWSE_USERS: usize = 2;
/// Page loads per user per segment (about 2 s).
const BROWSE_SEGMENT_LOADS: usize = 36;
const BROWSE_WARM_LOADS: usize = 24;
const BROWSE_THINK_MS: u64 = 40;
const BROWSE_MODIFY_EVERY: usize = 25;
/// A modify targets the page this many loads ahead in the same user's
/// walk, so the origin's next piggyback can invalidate the cached copy
/// before the user gets there.
const BROWSE_MODIFY_AHEAD: usize = 3;
const BROWSE_SERIAL_LOADS: usize = 90;
const BROWSE_FRESHNESS_MS: u64 = 4_000;
/// `dsl` time constants are multiplied by this (10 ms RTT, 6 Mb/s down).
const BROWSE_NETEM_SCALE: f64 = 0.25;

/// A site with embedded images and an HREF graph, walked by two users
/// behind a DSL-shaped link: the one workload where the paper's mechanism
/// (freshen, invalidate, prefetch) decides the result.
fn browse_dsl_world(seed: u64) -> World {
    let site = SiteConfig {
        n_pages: 80,
        n_dirs: 10,
        max_depth: 2,
        images_per_page: (2, 2),
        shared_images: 4,
        image_share_prob: 0.25,
        links_per_page: (4, 4),
        link_locality: 0.7,
        page_size: LogNormal::new(2048f64.ln(), 0.25),
        image_size: LogNormal::new(3072f64.ln(), 0.25),
        seed,
        ..Default::default()
    };
    let shim = ShimConfig {
        profile: NetProfile::dsl().scaled(BROWSE_NETEM_SCALE),
        seed: Rng::fork(seed, "netem").next_u64(),
    };
    site_world(site, Some(shim), |cfg| {
        cfg.freshness = DurationMs::from_millis(BROWSE_FRESHNESS_MS);
        cfg.filter = ProxyFilter::builder().max_piggy(10).build();
        // RPV timeout = Δ, the paper's pairing: a volume may piggyback
        // again once what it last freshened has expired.
        cfg.rpv = Some((16, DurationMs::from_millis(BROWSE_FRESHNESS_MS)));
        cfg.prefetch_budget = 4;
    })
}

fn browse_dsl_lists(seed: u64, scale: f64, world: &mut World) -> Lists {
    let site = world
        .site
        .take()
        .expect("browse_dsl walks a generated site");
    let resources = &mut world.resources;
    // The control resource that modifies `page`, registered on first use.
    let mut modify_of = std::collections::BTreeMap::new();
    let mut modify_res = |page: u32| -> u32 {
        *modify_of.entry(page).or_insert_with(|| {
            resources.push(Resource {
                path: format!("/_pb/modify{}", resources[page as usize].path),
                status: 204,
                len: 0,
                sum: Checksum::of(&[]),
            });
            resources.len() as u32 - 1
        })
    };
    let mut walk = |user: usize, loads: usize| -> Vec<Load> {
        let mut rng = Rng::fork(seed, &format!("walk{user}"));
        let mut at = rng.below(site.pages.len());
        let mut pages = Vec::with_capacity(loads + BROWSE_MODIFY_AHEAD);
        for _ in 0..loads + BROWSE_MODIFY_AHEAD {
            pages.push(at);
            let links = &site.pages[at].links;
            at = if links.is_empty() || rng.unit() < 0.15 {
                rng.below(site.pages.len())
            } else {
                links[rng.below(links.len())]
            };
        }
        (0..loads)
            .map(|i| {
                let page = &site.pages[pages[i]];
                Load {
                    modify: (i % BROWSE_MODIFY_EVERY == BROWSE_MODIFY_EVERY - 1)
                        .then(|| modify_res(site.pages[pages[i + BROWSE_MODIFY_AHEAD]].resource.0)),
                    page: page.resource.0,
                    images: page.images.iter().map(|r| r.0).collect(),
                }
            })
            .collect()
    };
    let segment_loads = ((BROWSE_SEGMENT_LOADS as f64 * scale).round() as usize).max(2);
    let users = (0..BROWSE_USERS)
        .map(|u| walk(u, BROWSE_WARM_LOADS + SEGMENTS * segment_loads))
        .collect();
    // The traced run replays a third walk with one request in flight.
    let serial_loads = ((BROWSE_SERIAL_LOADS as f64 * scale).round() as usize).max(8);
    let mut serial = Vec::new();
    let mut serial_pauses = Vec::new();
    for load in walk(BROWSE_USERS, serial_loads) {
        serial_pauses.push(serial.len());
        serial.extend(load.modify.map(|res| Op {
            res,
            expect: Expect::Control,
        }));
        serial.extend(std::iter::once(load.page).chain(load.images).map(|res| Op {
            res,
            expect: Expect::Any,
        }));
    }
    Lists {
        browse: Some(Browse {
            users,
            warm_loads: BROWSE_WARM_LOADS,
            segment_loads,
            think: std::time::Duration::from_millis(BROWSE_THINK_MS),
        }),
        serial,
        serial_pauses,
        ..Default::default()
    }
}

// ---------------------------------------------------------------------
// large_stream
// ---------------------------------------------------------------------

const LARGE_OBJECTS: usize = 48;
const LARGE_MIN: usize = 256 * 1024;
const LARGE_MAX: usize = 4 * 1024 * 1024;
/// GETs per round: the unit that carries the workload's byte mix.
const LARGE_ROUND: usize = 24;
/// Objects that appear in every round (the head of the Zipf curve); the
/// rest of a round rotates through the tail.
const LARGE_HOT: usize = 10;
const LARGE_RATE: f64 = 80.0;
/// Rounds per paced segment (0.6 s at [`LARGE_RATE`]) and per closed-loop
/// segment (about 0.4 s), at the nominal `--seconds`.
const LARGE_PACED_ROUNDS: usize = 2;
const LARGE_CLOSED_ROUNDS: usize = 6;
const LARGE_WARM_ROUNDS: usize = 4;
const LARGE_SERIAL_ROUNDS: usize = 6;

/// How many of a round's [`LARGE_ROUND`] GETs each popularity rank gets:
/// Zipf(1.0) shares by largest remainder.
fn zipf_round_counts() -> Vec<usize> {
    let weights: Vec<f64> = (0..LARGE_OBJECTS).map(|k| 1.0 / (k + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights
        .iter()
        .map(|w| w / total * LARGE_ROUND as f64)
        .collect();
    let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..LARGE_OBJECTS).collect();
    order.sort_by(|&a, &b| {
        (exact[b] - exact[b].floor())
            .total_cmp(&(exact[a] - exact[a].floor()))
            .then(a.cmp(&b))
    });
    let left = LARGE_ROUND - counts.iter().sum::<usize>();
    for &i in &order[..left] {
        counts[i] += 1;
    }
    counts
}

/// 48 objects log-spaced 256 KiB–4 MiB under Zipf(1.0) popularity, odd
/// ranks chunk-encoded (when the request offers `TE: chunked`, as the
/// proxy's piggyback GET does) and even ones Content-Length, behind a
/// 16 MiB proxy: bytes, not requests, dominate.
///
/// The seed decides which object *name* holds which popularity rank and
/// the order of GETs inside a round; size and framing are tied to rank
/// (the size ladder by a fixed interleave) and every round asks for the
/// same hot ranks the same number of times (the remaining slots rotate
/// through the tail), so the byte mix of a segment — which a 16x size
/// range would otherwise let the seed swing — is nearly the same for
/// every seed and every segment.
fn large_stream_world(seed: u64) -> World {
    // Size-ladder position per popularity rank: a bit-reversal interleave,
    // so neighbouring ranks sit far apart on the ladder and any few
    // consecutive ranks sample it evenly. The hottest object sits mid-ladder.
    let mut ladder: Vec<usize> = (0..LARGE_OBJECTS).collect();
    ladder.sort_by_key(|&i| (i as u32).reverse_bits());
    for pos in &mut ladder {
        *pos = (*pos + LARGE_OBJECTS / 2) % LARGE_OBJECTS;
    }
    let size_at = |pos: usize| -> usize {
        let frac = pos as f64 / (LARGE_OBJECTS - 1) as f64;
        (LARGE_MIN as f64 * (LARGE_MAX as f64 / LARGE_MIN as f64).powf(frac)).round() as usize
    };
    let mut names: Vec<usize> = (0..LARGE_OBJECTS).collect();
    Rng::fork(seed, "popularity").shuffle(&mut names);
    let mut fill = Rng::fork(seed, "bodies");
    const WINDOW_STEP: usize = 4_099;
    let mut pattern = vec![0u8; LARGE_MAX + LARGE_OBJECTS * WINDOW_STEP];
    for chunk in pattern.chunks_mut(8) {
        let word = fill.next_u64().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
    // Index = popularity rank.
    let objects: Vec<StubObject> = (0..LARGE_OBJECTS)
        .map(|rank| StubObject {
            path: format!("/large/obj{:02}.bin", names[rank]),
            offset: rank * WINDOW_STEP,
            len: size_at(ladder[rank]),
            chunked: rank % 2 == 1,
        })
        .collect();
    let stub = Arc::new(StubObjects { pattern, objects });
    let resources = (0..LARGE_OBJECTS)
        .map(|i| Resource {
            path: stub.objects[i].path.clone(),
            status: 200,
            len: stub.objects[i].len as u64,
            sum: Checksum::of(stub.body(i)),
        })
        .collect();
    World {
        resources,
        chain: ChainSpec {
            origin: OriginSpec::Stub(stub),
            shim: None,
            proxy: |cfg| {
                // The prefix store gets an eighth of this, split over
                // eight shards: four 64 KiB heads per shard, enough that
                // the ten hot objects keep theirs wherever they hash.
                cfg.capacity_bytes = 16 * 1024 * 1024;
                cfg.freshness = DurationMs::from_secs(3600);
            },
        },
        site: None,
    }
}

fn large_stream_lists(seed: u64, scale: f64, world: &World) -> Lists {
    let OriginSpec::Stub(stub) = &world.chain.origin else {
        unreachable!("large_stream is served by the stub origin");
    };
    // A length-framed large object is never cached whole, so a HIT on one
    // is a bug. A chunked one may be: the reactor engine buffers chunked
    // bodies it cannot size up front and caches those that fit (the
    // PROTOCOL §14 divergence), so any verdict is admitted there.
    let expect_of = |rank: u32| {
        if stub.objects[rank as usize].chunked {
            Expect::Any
        } else {
            Expect::MissOrPrefix
        }
    };
    let counts = zipf_round_counts();
    let hot: usize = counts[..LARGE_HOT].iter().sum();
    let tail_slots = LARGE_ROUND - hot;
    let tail_ranks = LARGE_OBJECTS - LARGE_HOT;
    let mut rng = Rng::fork(seed, "requests");
    let mut round_no = 0usize;
    let mut rounds = |n: usize| -> Vec<Op> {
        let mut ops = Vec::with_capacity(n * LARGE_ROUND);
        for _ in 0..n {
            let mut round: Vec<u32> = Vec::with_capacity(LARGE_ROUND);
            for (rank, &c) in counts[..LARGE_HOT].iter().enumerate() {
                round.extend(std::iter::repeat_n(rank as u32, c));
            }
            for slot in 0..tail_slots {
                let pick = (round_no * tail_slots + slot) % tail_ranks;
                round.push((LARGE_HOT + pick) as u32);
            }
            rng.shuffle(&mut round);
            ops.extend(round.into_iter().map(|res| Op {
                res,
                expect: expect_of(res),
            }));
            round_no += 1;
        }
        ops
    };
    let rounds_scaled = |n: usize| ((n as f64 * scale).round() as usize).max(1);
    let mut arrivals = Rng::fork(seed, "arrivals");
    let warmup = paced_segment(rounds(LARGE_WARM_ROUNDS), LARGE_RATE, &mut arrivals);
    let serial = rounds(rounds_scaled(LARGE_SERIAL_ROUNDS));
    // Segments are whole rounds, so each carries the same byte mix.
    // One request in flight already, so the closed-loop segments feed the
    // latency figures too; a GET's time follows its size, so the rate is
    // timed round by round.
    let (paced, closed, unloaded) = phases(
        |n| rounds(n / LARGE_ROUND),
        (LARGE_RATE, rounds_scaled(LARGE_PACED_ROUNDS) * LARGE_ROUND),
        (
            1,
            LARGE_ROUND,
            rounds_scaled(LARGE_CLOSED_ROUNDS) * LARGE_ROUND,
        ),
        0,
        &mut arrivals,
    );
    Lists {
        warmup: Some(warmup),
        paced: Some(paced),
        closed: Some(closed),
        unloaded,
        serial,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every request-list operation in the order an end-to-end run sends
    /// it: warm-up, then paced, closed-loop and one-in-flight segment k in
    /// turn.
    fn all_ops(p: &Plan) -> Vec<Op> {
        let mut ops: Vec<Op> = p.warmup.iter().flat_map(|s| s.ops.clone()).collect();
        if let (Some(pa), Some(cl)) = (&p.paced, &p.closed) {
            for (k, (a, b)) in pa.segments.iter().zip(&cl.segments).enumerate() {
                ops.extend(a.ops.iter().copied());
                ops.extend(b.iter().copied());
                ops.extend(p.unloaded.iter().flat_map(|u| u[k].iter().copied()));
            }
        }
        ops
    }

    #[test]
    fn same_seed_is_byte_identical_and_other_seed_differs() {
        for kind in Kind::ALL {
            let a = Plan::build(kind, 11, 2.0);
            let b = Plan::build(kind, 11, 2.0);
            let c = Plan::build(kind, 12, 2.0);
            assert_eq!(a.fingerprint(), b.fingerprint(), "{}", kind.name());
            assert_ne!(a.fingerprint(), c.fingerprint(), "{}", kind.name());
            assert_eq!(a.arena, b.arena);
            assert_eq!(a.serial, b.serial);
            assert_eq!(a.paced, b.paced, "{}: arrival schedule", kind.name());
            assert_eq!(a.closed, b.closed);
            assert_eq!(a.browse, b.browse);
            if let (Some(pa), Some(pc)) = (&a.paced, &c.paced) {
                assert_ne!(
                    pa.segments[0].due_ns,
                    pc.segments[0].due_ns,
                    "{}: arrivals follow the seed",
                    kind.name()
                );
                assert_eq!(pa.segments.len(), SEGMENTS);
                assert_eq!(a.closed.as_ref().unwrap().segments.len(), SEGMENTS);
            }
        }
    }

    #[test]
    fn poisson_schedule_has_the_offered_rate() {
        let due = poisson_schedule(&mut Rng::new(5), 50_000, 20_000.0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(
            due[due.len() - 1],
            2_500_000_000,
            "50 000 arrivals at 20 000/s"
        );
        // Exponential gaps: the median gap is ln 2 of the mean.
        let mut gaps: Vec<u64> = due.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2] as f64;
        assert!(
            (median / (50_000.0 * 2f64.ln()) - 1.0).abs() < 0.05,
            "median gap {median}"
        );
    }

    #[test]
    fn churn_never_revisits_a_churn_page_within_the_cache_horizon() {
        let p = Plan::build(Kind::MissChurn, 3, NOMINAL_SECONDS);
        let ops = all_ops(&p);
        let mut last_seen = std::collections::HashMap::new();
        let mut churn_no = 0usize;
        for op in &ops {
            if op.expect == Expect::Miss {
                if let Some(prev) = last_seen.insert(op.res, churn_no) {
                    assert_eq!(churn_no - prev, CHURN_PAGES, "stride walk period");
                }
                churn_no += 1;
            }
        }
        let revisits = ops.iter().filter(|o| o.expect == Expect::Validated).count();
        let share = revisits as f64 / ops.len() as f64;
        assert!((share - 0.3).abs() < 0.02, "revisit share {share}");
        // The cache holds fewer churn pages than the walk's period and the
        // revisited pages many times over.
        let page = p.resources[0].len;
        assert!(CHURN_CACHE_BYTES / page < CHURN_PAGES as u64 * 3 / 5);
        assert!(CHURN_CACHE_BYTES / page > CHURN_REVISIT as u64 * 8);
        // The serial list's full fetches are pages nothing else asks for,
        // each once, so it can follow any prefix of the lists above.
        let mut fresh: Vec<u32> = p
            .serial
            .iter()
            .filter(|o| o.expect == Expect::Miss)
            .map(|o| o.res)
            .collect();
        assert!(fresh.iter().all(|r| !last_seen.contains_key(r)));
        let n = fresh.len();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), n, "serial pages repeat");
        for s in CHURN_STRIDES {
            assert_eq!(gcd(s, CHURN_PAGES), 1, "stride {s}");
        }
    }

    /// The most full fetches between two visits of one revisited page
    /// (populate counts as the first visit).
    fn worst_revisit_gap(ops: impl Iterator<Item = Op>) -> usize {
        let mut last_visit = std::collections::HashMap::new();
        let (mut fetches, mut worst) = (0usize, 0usize);
        for op in ops {
            match op.expect {
                Expect::Validated => {
                    let prev = last_visit.insert(op.res, fetches).unwrap_or(0);
                    worst = worst.max(fetches - prev);
                }
                _ => fetches += 1,
            }
        }
        worst
    }

    /// A revisited page stays resident only while fewer full fetches pass
    /// between two visits of it than its cache shard holds pages — on every
    /// seed, in the end-to-end order and where the traced run's serial list
    /// takes over after any number of segments.
    #[test]
    fn churn_revisits_come_round_before_the_cache_turns_over() {
        for seed in 1..=24u64 {
            let p = Plan::build(Kind::MissChurn, seed, NOMINAL_SECONDS);
            // Two thirds of the pages the cache holds: the rest is the
            // margin for its eight shards filling unevenly and for the
            // revisited pages' own room.
            let page = p.resources[0].len as usize;
            let limit = CHURN_CACHE_BYTES as usize / page * 2 / 3;
            let all = all_ops(&p);
            assert!(
                worst_revisit_gap(all.iter().copied()) < limit,
                "seed {seed}"
            );
            let per_segment = (all.len() - CHURN_WARMUP) / SEGMENTS;
            for k in 0..=SEGMENTS {
                let prefix = all[..CHURN_WARMUP + k * per_segment].iter();
                let gap = worst_revisit_gap(prefix.chain(&p.serial).copied());
                assert!(gap < limit, "seed {seed}, serial after {k} segments: {gap}");
            }
        }
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn large_rounds_share_one_rank_multiset_and_byte_mix() {
        let counts = zipf_round_counts();
        assert_eq!(counts.iter().sum::<usize>(), LARGE_ROUND);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]), "{counts:?}");
        assert!(counts[LARGE_HOT..].iter().all(|&c| c <= 1));
        for seed in [1u64, 2, 99] {
            let p = Plan::build(Kind::LargeStream, seed, NOMINAL_SECONDS);
            let ops = all_ops(&p);
            let bytes: Vec<u64> = ops
                .chunks(LARGE_ROUND)
                .map(|r| r.iter().map(|o| p.resources[o.res as usize].len).sum())
                .collect();
            let (lo, hi) = (
                *bytes.iter().min().unwrap() as f64,
                *bytes.iter().max().unwrap() as f64,
            );
            assert!(hi / lo < 1.25, "seed {seed}: round bytes {bytes:?}");
            for r in ops.chunks(LARGE_ROUND) {
                for (rank, &c) in counts[..LARGE_HOT].iter().enumerate() {
                    assert_eq!(r.iter().filter(|o| o.res == rank as u32).count(), c);
                }
            }
            // Every object is asked for at some point.
            let mut seen: Vec<u32> = ops.iter().map(|o| o.res).collect();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), LARGE_OBJECTS);
            // Sizes span the ladder and half the objects are chunked; the
            // structure (size and framing per rank) is the same for every
            // seed, only the names move.
            let OriginSpec::Stub(stub) = &p.chain.origin else {
                panic!("stub origin")
            };
            assert_eq!(
                stub.objects.iter().filter(|o| o.chunked).count(),
                LARGE_OBJECTS / 2
            );
            assert_eq!(stub.objects.iter().map(|o| o.len).min(), Some(LARGE_MIN));
            assert_eq!(stub.objects.iter().map(|o| o.len).max(), Some(LARGE_MAX));
            let other = Plan::build(Kind::LargeStream, seed + 1, 1.0);
            let OriginSpec::Stub(other) = &other.chain.origin else {
                panic!("stub origin")
            };
            assert!(stub
                .objects
                .iter()
                .zip(&other.objects)
                .all(|(a, b)| (a.len, a.chunked) == (b.len, b.chunked)));
            assert!(stub
                .objects
                .iter()
                .zip(&other.objects)
                .any(|(a, b)| a.path != b.path));
        }
    }

    #[test]
    fn browse_loads_follow_the_link_graph_and_modify_ahead() {
        let p = Plan::build(Kind::BrowseDsl, 4, NOMINAL_SECONDS);
        let b = p.browse.as_ref().unwrap();
        assert_eq!(b.users.len(), BROWSE_USERS);
        assert_ne!(b.users[0], b.users[1]);
        assert_eq!(b.segment(0).start, BROWSE_WARM_LOADS);
        assert_eq!(b.segment(SEGMENTS - 1).end, b.users[0].len());
        for u in &b.users {
            assert_eq!(u.len(), BROWSE_WARM_LOADS + SEGMENTS * BROWSE_SEGMENT_LOADS);
            let mods = u.iter().filter(|l| l.modify.is_some()).count();
            assert_eq!(mods, u.len() / BROWSE_MODIFY_EVERY);
            for (i, l) in u.iter().enumerate() {
                assert!(p.resources[l.page as usize].path.ends_with(".html"));
                assert_eq!(l.images.len(), 2);
                if let (Some(m), Some(ahead)) = (l.modify, u.get(i + BROWSE_MODIFY_AHEAD)) {
                    assert_eq!(
                        p.resources[m as usize].path,
                        format!("/_pb/modify{}", p.resources[ahead.page as usize].path)
                    );
                    assert_eq!(p.resources[m as usize].status, 204);
                }
            }
        }
        assert_eq!(p.serial_pauses.len(), BROWSE_SERIAL_LOADS);
    }
}

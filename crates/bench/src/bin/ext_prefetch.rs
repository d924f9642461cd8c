//! `ext-prefetch` — piggyback-driven prefetch vs. plain caching, measured
//! end-to-end across network profiles.
//!
//! The paper's headline *use* of piggybacked server volumes is
//! speculation: a proxy told "these volume mates exist at these
//! Last-Modified times" can fetch them before its clients ask. This
//! experiment measures that benefit on the live chain
//!
//! ```text
//! client -> proxy -> [adverse-network shim] transparent volume center -> origin
//! ```
//!
//! against an origin whose access state was warmed beforehand — the
//! paper's scenario of a fresh proxy joining a server other clients
//! already taught. Two arms per profile, identical conditioner seeds:
//!
//! * `nopb` — maxpiggy=0: every page-load member pays a full shimmed
//!   round trip.
//! * `prefetch` — maxpiggy=10 plus `--prefetch-budget 4`: the index
//!   fetch's piggyback names the directory mates; the prefetcher pulls
//!   them during the client's think time, so the mates fresh-hit.
//!
//! The workload is per-directory page loads: fetch the index, think for
//! a few shimmed RTTs (the paper's inter-click gap), then fetch the
//! mates. Cells land in `BENCH_pipeline.json` as
//! `ext_prefetch_<profile>_<arm>` with p50/p90/p99 latency over the
//! *mate* requests — the predicted clicks speculation claims to
//! accelerate; index fetches are necessarily misses in every arm and
//! are reported separately (`mean_ms` covers all demand requests). The
//! run fails unless the
//! prefetch arm beats `nopb` on mate p90 for the dsl and dialup
//! profiles. Each arm also reports the speculation ledger
//! (issued/used/wasted, wasted-bytes ratio) so the bandwidth price of
//! the latency win sits next to it.
//!
//! Environment: `PB_SCALE` scales the directory count, `PB_NETEM_SCALE`
//! (default 0.25) scales profile time constants, `PB_IO=reactor` serves
//! the proxy from the epoll reactor (cells suffixed `_reactor`).

use piggyback_bench::{banner, cell_seed, print_table, record_cell_stats, scale_factor};
use piggyback_core::filter::ProxyFilter;
use piggyback_core::types::DurationMs;
use piggyback_proxyd::client::HttpClient;
use piggyback_proxyd::netem::{NetProfile, ShimConfig};
use piggyback_proxyd::obs::LatencyHistogram;
use piggyback_proxyd::origin::{start_origin, OriginConfig};
use piggyback_proxyd::proxy::{start_proxy, ProxyConfig, ProxyStats};
use piggyback_proxyd::volume_center::{start_volume_center, VolumeCenterConfig};
use piggyback_proxyd::IoMode;
use std::time::{Duration, Instant};

/// Volume mates fetched per directory page load (index + mates).
const PATHS_PER_DIR: usize = 4;
/// Speculative fetch concurrency for the prefetch arm.
const PREFETCH_BUDGET: usize = 4;

struct Arm {
    name: &'static str,
    max_piggy: u32,
    prefetch_budget: usize,
}

const ARMS: &[Arm] = &[
    Arm {
        name: "nopb",
        max_piggy: 0,
        prefetch_budget: 0,
    },
    Arm {
        name: "prefetch",
        max_piggy: 10,
        prefetch_budget: PREFETCH_BUDGET,
    },
];

fn io_mode() -> IoMode {
    match std::env::var("PB_IO") {
        Ok(v) => IoMode::parse(&v).unwrap_or_else(|| {
            eprintln!("PB_IO expects 'threaded' or 'reactor', got {v}");
            std::process::exit(2);
        }),
        Err(_) => IoMode::default(),
    }
}

fn netem_scale() -> f64 {
    std::env::var("PB_NETEM_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|f: &f64| *f > 0.0)
        .unwrap_or(0.25)
}

/// Group the origin's paths into per-directory page loads: an index plus
/// up to `PATHS_PER_DIR - 1` mates, directories with at least one mate.
/// Each page keeps the directory's *last* members in warm-walk order:
/// piggybacks rank volume mates most-recently-accessed first and cap at
/// maxpiggy, so these are the members a warmed origin actually names.
fn page_loads(paths: &[String], max_dirs: usize) -> Vec<Vec<String>> {
    let mut dirs: Vec<(String, Vec<String>)> = Vec::new();
    for path in paths {
        let dir = path
            .rsplit_once('/')
            .map(|(d, _)| d)
            .unwrap_or("")
            .to_owned();
        match dirs.iter_mut().find(|(d, _)| *d == dir) {
            Some((_, ps)) => ps.push(path.clone()),
            None => dirs.push((dir, vec![path.clone()])),
        }
    }
    dirs.retain(|(_, ps)| ps.len() >= 2);
    dirs.truncate(max_dirs);
    dirs.into_iter()
        .map(|(_, mut ps)| {
            if ps.len() > PATHS_PER_DIR {
                ps.drain(..ps.len() - PATHS_PER_DIR);
            }
            ps
        })
        .collect()
}

struct CellResult {
    /// Mean over every demand request, index fetches included.
    mean_ms: f64,
    /// Mean over the index fetches alone (the misses every arm pays).
    index_ms: f64,
    /// Percentiles over the mate requests (ms).
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    wall: Duration,
    /// Mate-request percentiles in µs, for `BENCH_pipeline.json`.
    percentiles: (u64, u64, u64, u64),
    stats: ProxyStats,
}

/// One (profile, arm) cell: fresh origin warmed out-of-band, transparent
/// shimmed relay, cold proxy, per-directory page loads with think time.
fn run_cell(profile: NetProfile, seed: u64, arm: &Arm, loads: usize, io: IoMode) -> CellResult {
    let origin = start_origin(OriginConfig::default()).expect("origin starts");
    let pages = page_loads(&origin.paths(), loads);
    assert!(!pages.is_empty(), "site must have multi-resource dirs");
    // Warm the origin's access state directly (no shim, not measured):
    // piggybacks only name volume mates with recorded
    // accesses, so a cold origin would never speculate. Then re-warm the
    // measured page members with distinct-millisecond spacing: recency
    // keys are millisecond-granular and a loopback walk lands whole
    // directories in one tick, which would leave piggyback priority to
    // the resource-id tie-break instead of these, the popular members.
    {
        let mut c = HttpClient::connect(origin.addr()).expect("warm connect");
        for p in &origin.paths() {
            let resp = c.get(p, &[]).expect("warm fetch");
            assert_eq!(resp.status, 200);
        }
        for p in pages.iter().flatten() {
            let resp = c.get(p, &[]).expect("re-warm fetch");
            assert_eq!(resp.status, 200);
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let center = start_volume_center(VolumeCenterConfig {
        port: 0,
        origin: origin.addr(),
        volume_level: 1,
        shim: Some(ShimConfig {
            profile: profile.clone(),
            seed,
        }),
        transparent: true,
    })
    .expect("volume center starts");
    let mut cfg = ProxyConfig::new(center.addr());
    cfg.freshness = DurationMs::from_secs(60);
    cfg.filter = ProxyFilter::builder().max_piggy(arm.max_piggy).build();
    cfg.rpv = None;
    cfg.report_hits = false;
    cfg.prefetch_budget = arm.prefetch_budget;
    cfg.io = io;
    let proxy = start_proxy(cfg).expect("proxy starts");

    // The paper's inter-click think time, identical across arms: long
    // enough for a budget-sized crew to drain a maxpiggy-sized candidate
    // list over the shimmed path — up to ceil(10/4) = 3 fetch waves, each
    // paying a round trip plus a body transfer on the constrained
    // downlink (~20 KB covers the site's log-normal body sizes). Real
    // inter-click gaps dwarf this on every profile modeled.
    let wave = if profile.down_bps == 0 {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(20_000.0 * 8.0 / profile.down_bps as f64)
    };
    let think = profile.rtt.mul_f64(4.0) + wave.mul_f64(3.0) + Duration::from_millis(20);

    let hist = LatencyHistogram::new();
    let mut mean_sum = 0.0f64;
    let mut index_sum = 0.0f64;
    let mut n = 0u64;
    let mut indexes = 0u64;
    let mut client = HttpClient::connect(proxy.addr()).expect("client connects");
    let start = Instant::now();
    for page in &pages {
        let (index, mates) = page.split_first().expect("non-empty page");
        let t = Instant::now();
        let resp = client.get(index, &[]).expect("index fetch");
        assert_eq!(resp.status, 200);
        let e = t.elapsed().as_secs_f64() * 1000.0;
        mean_sum += e;
        index_sum += e;
        n += 1;
        indexes += 1;
        std::thread::sleep(think);
        for m in mates {
            let t = Instant::now();
            let resp = client.get(m, &[]).expect("mate fetch");
            assert_eq!(resp.status, 200);
            let e = t.elapsed();
            hist.record(e);
            mean_sum += e.as_secs_f64() * 1000.0;
            n += 1;
        }
    }
    let wall = start.elapsed();

    let stats = proxy.stats();
    assert_eq!(
        stats.prefetch_issued,
        stats.prefetch_used + stats.prefetch_wasted + stats.prefetch_inflight,
        "{}/{}: speculation ledger must conserve: {stats:?}",
        profile.name,
        arm.name
    );
    proxy.stop();
    center.stop();
    origin.stop();

    let snap = hist.snapshot();
    let (p50, p90, p99, max) = snap.percentiles();
    CellResult {
        mean_ms: mean_sum / n as f64,
        index_ms: index_sum / indexes as f64,
        p50_ms: p50 as f64 / 1000.0,
        p90_ms: p90 as f64 / 1000.0,
        p99_ms: p99 as f64 / 1000.0,
        wall,
        percentiles: (p50, p90, p99, max),
        stats,
    }
}

fn wasted_ratio(s: &ProxyStats) -> f64 {
    if s.prefetch_fetched_bytes == 0 {
        0.0
    } else {
        s.prefetch_wasted_bytes as f64 / s.prefetch_fetched_bytes as f64
    }
}

fn main() {
    banner("ext-prefetch", "piggyback-driven prefetch vs plain caching");
    let loads = ((8.0 * scale_factor()).round() as usize).max(2);
    let scale = netem_scale();
    let io = io_mode();
    let cell_suffix = if io.is_reactor() { "_reactor" } else { "" };
    println!(
        "{loads} directory page loads x {} paths; netem scale {scale}; io {}",
        PATHS_PER_DIR,
        if io.is_reactor() {
            "reactor"
        } else {
            "threaded"
        },
    );

    let mut rows = Vec::new();
    let mut p90 = std::collections::HashMap::new();
    for (i, name) in ["lan", "dsl", "dialup"].iter().enumerate() {
        let profile = NetProfile::named(name)
            .expect("built-in profile")
            .scaled(scale);
        let seed = cell_seed("ext_prefetch", i);
        for arm in ARMS {
            let cell = run_cell(profile.clone(), seed, arm, loads, io);
            let s = &cell.stats;
            if arm.name == "prefetch" {
                assert!(
                    s.prefetch_issued > 0,
                    "{name}: the prefetch arm must speculate: {s:?}"
                );
            }
            let id = format!("ext_prefetch_{name}_{}{cell_suffix}", arm.name);
            record_cell_stats(&id, cell.wall, cell.percentiles);
            p90.insert((*name, arm.name), cell.p90_ms);
            rows.push(vec![
                id,
                format!("{:.2}", cell.mean_ms),
                format!("{:.2}", cell.index_ms),
                format!("{:.2}", cell.p50_ms),
                format!("{:.2}", cell.p90_ms),
                format!("{:.2}", cell.p99_ms),
                s.prefetch_issued.to_string(),
                s.prefetch_used.to_string(),
                s.prefetch_wasted.to_string(),
                format!("{:.2}", wasted_ratio(s)),
            ]);
        }
    }

    println!();
    print_table(
        &[
            "cell",
            "mean_ms",
            "index_ms",
            "p50_ms",
            "p90_ms",
            "p99_ms",
            "spec",
            "used",
            "wasted",
            "waste_ratio",
        ],
        &rows,
    );

    let p90_of = |prof: &str, arm: &str| *p90.get(&(prof, arm)).unwrap();
    println!("\nprefetch vs nopb, mate-request p90 (ms):");
    for prof in ["lan", "dsl", "dialup"] {
        println!(
            "  {prof}: nopb {:.2}  prefetch {:.2}",
            p90_of(prof, "nopb"),
            p90_of(prof, "prefetch"),
        );
    }

    // The gate: on the profiles where a round trip hurts, the predicted
    // clicks behind the prefetcher must beat the no-piggyback baseline
    // at p90.
    for prof in ["dsl", "dialup"] {
        let (pf, base) = (p90_of(prof, "prefetch"), p90_of(prof, "nopb"));
        if pf >= base {
            eprintln!("FAIL: {prof}: prefetch p90 {pf:.2} ms !< nopb p90 {base:.2} ms");
            std::process::exit(1);
        }
    }
    println!("prefetch beats nopb on mate p90 for dsl and dialup");
}

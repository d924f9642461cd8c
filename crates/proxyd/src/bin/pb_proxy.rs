//! `pb-proxy` — run a caching proxy that speaks the piggyback protocol.
//!
//! ```text
//! pb-proxy --origin 127.0.0.1:8080 [--port 8081] [--capacity-mb 32]
//!          [--delta-secs 60] [--maxpiggy 10] [--no-rpv]
//!          [--shards 8] [--pool-idle 32] [--workers 64]
//!          [--no-metrics] [--no-report-hits]
//!          [--io threaded|reactor] [--reactors N] [--idle-timeout-secs 120]
//!          [--upstream-timeout-secs 30] [--prefetch-budget N]
//!          [--stream-threshold-kb 256] [--prefix-kb 64] [--client-body-cap-kb N]
//! ```
//!
//! `--io reactor` serves connections from the epoll reactor (Linux;
//! other platforms fall back to the threaded pool) with `--reactors`
//! SO_REUSEPORT accept shards (0 = auto); `--io threaded` (the default)
//! keeps the blocking worker pool. Both engines poll the one proxy
//! service, so wire output is byte-identical, and both enforce the same
//! deadlines: `--idle-timeout-secs` closes a client connection silent
//! that long, and `--upstream-timeout-secs` bounds every upstream attempt
//! (a stalled or trickling origin is retried once on a fresh connection,
//! then answered `502`).
//! `--prefetch-budget N` turns piggybacked `PrefetchCandidate` elements
//! into at most N concurrent speculative origin fetches (0, the default,
//! only counts candidates).
//! `--stream-threshold-kb N` cuts large-object misses through segment by
//! segment instead of buffering them (0 disables streaming entirely);
//! `--prefix-kb N` keeps the first N KiB of each streamed object so a
//! repeat request serves its head at hit latency while the rest streams
//! from the origin (0 disables prefix retention). `--client-body-cap-kb`
//! rejects request bodies above the cap with `413` before buffering them.
//! Prints statistics every 10 seconds. Unless `--no-metrics` is given,
//! `GET /__pb/metrics` serves Prometheus counters and latency histograms.

use piggyback_core::filter::ProxyFilter;
use piggyback_core::types::DurationMs;
use piggyback_proxyd::proxy::{start_proxy, ProxyConfig};
use piggyback_proxyd::IoMode;
use std::net::SocketAddr;

fn main() {
    let mut origin: Option<SocketAddr> = None;
    let mut port = 8081u16;
    let mut capacity_mb = 32u64;
    let mut delta_secs = 60u64;
    let mut maxpiggy = 10u32;
    let mut use_rpv = true;
    let mut shards = 8usize;
    let mut pool_idle = 32usize;
    let mut workers = 64usize;
    let mut metrics = true;
    let mut report_hits = true;
    let mut io = IoMode::default();
    let mut reactors: Option<usize> = None;
    let mut idle_timeout_secs = 120u64;
    let mut upstream_timeout_secs = 30u64;
    let mut prefetch_budget = 0usize;
    let mut stream_threshold_kb = 256usize;
    let mut prefix_kb = 64usize;
    let mut client_body_cap_kb: Option<usize> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--origin" => origin = Some(value("--origin").parse().expect("host:port")),
            "--port" => port = value("--port").parse().expect("numeric port"),
            "--capacity-mb" => capacity_mb = value("--capacity-mb").parse().expect("number"),
            "--delta-secs" => delta_secs = value("--delta-secs").parse().expect("number"),
            "--maxpiggy" => maxpiggy = value("--maxpiggy").parse().expect("number"),
            "--no-rpv" => use_rpv = false,
            "--shards" => shards = value("--shards").parse().expect("number"),
            "--pool-idle" => pool_idle = value("--pool-idle").parse().expect("number"),
            "--workers" => workers = value("--workers").parse().expect("number"),
            "--metrics" => metrics = true,
            "--no-metrics" => metrics = false,
            "--no-report-hits" => report_hits = false,
            "--io" => {
                let v = value("--io");
                io = IoMode::parse(&v).unwrap_or_else(|| {
                    eprintln!("--io expects 'threaded' or 'reactor', got {v}");
                    std::process::exit(2);
                });
            }
            "--reactors" => reactors = Some(value("--reactors").parse().expect("number")),
            "--idle-timeout-secs" => {
                idle_timeout_secs = value("--idle-timeout-secs").parse().expect("number");
            }
            "--upstream-timeout-secs" => {
                upstream_timeout_secs = value("--upstream-timeout-secs").parse().expect("number");
            }
            "--prefetch-budget" => {
                prefetch_budget = value("--prefetch-budget").parse().expect("number");
            }
            "--stream-threshold-kb" => {
                stream_threshold_kb = value("--stream-threshold-kb").parse().expect("number");
            }
            "--prefix-kb" => prefix_kb = value("--prefix-kb").parse().expect("number"),
            "--client-body-cap-kb" => {
                client_body_cap_kb = Some(value("--client-body-cap-kb").parse().expect("number"));
            }
            "--help" | "-h" => {
                println!(
                    "pb-proxy --origin HOST:PORT [--port 8081] [--capacity-mb 32] \
                     [--delta-secs 60] [--maxpiggy 10] [--no-rpv] \
                     [--shards 8] [--pool-idle 32] [--workers 64] \
                     [--no-metrics] [--no-report-hits] \
                     [--io threaded|reactor] [--reactors N] [--idle-timeout-secs 120] \
                     [--upstream-timeout-secs 30] [--prefetch-budget N] \
                     [--stream-threshold-kb 256] [--prefix-kb 64] [--client-body-cap-kb N]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    let origin = origin.unwrap_or_else(|| {
        eprintln!("--origin is required");
        std::process::exit(2);
    });

    let mut cfg = ProxyConfig::new(origin);
    cfg.port = port;
    cfg.capacity_bytes = capacity_mb * 1024 * 1024;
    cfg.freshness = DurationMs::from_secs(delta_secs);
    cfg.filter = ProxyFilter::builder().max_piggy(maxpiggy).build();
    if !use_rpv {
        cfg.rpv = None;
    }
    cfg.shards = shards;
    cfg.pool_max_idle = pool_idle;
    cfg.serve.workers = workers;
    cfg.metrics = metrics;
    cfg.report_hits = report_hits;
    cfg.io = match (io, reactors) {
        (IoMode::Reactor { .. }, Some(n)) => IoMode::Reactor { reactors: n },
        (mode, _) => mode,
    };
    cfg.reactor_idle_timeout = std::time::Duration::from_secs(idle_timeout_secs);
    cfg.upstream_timeout = std::time::Duration::from_secs(upstream_timeout_secs);
    cfg.prefetch_budget = prefetch_budget;
    cfg.stream_threshold = stream_threshold_kb * 1024;
    cfg.prefix_bytes = prefix_kb * 1024;
    if let Some(kb) = client_body_cap_kb {
        cfg.client_body_cap = kb * 1024;
    }

    let proxy = start_proxy(cfg).expect("failed to start proxy");
    if metrics {
        eprintln!(
            "metrics: http://{}{}",
            proxy.addr(),
            piggyback_proxyd::METRICS_PATH
        );
    }
    eprintln!(
        "pb-proxy listening on {} -> origin {origin} (sharded x{shards}, pooled origin connections)",
        proxy.addr()
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(10));
        let s = proxy.stats();
        eprintln!(
            "req={} hit={} fresh={} prefix={} streamed={} valid={} 304={} pb_msgs={} \
             freshened={} invalidated={} errs={} passthru={} retries={}",
            s.requests,
            s.cache_hits,
            s.fresh_hits,
            s.prefix_hits,
            s.streamed_misses,
            s.validations,
            s.not_modified,
            s.piggyback_messages,
            s.piggyback_freshens,
            s.piggyback_invalidations,
            s.upstream_errors,
            s.upstream_passthrough,
            s.upstream_retries
        );
        if let Some(p) = proxy.pool_stats() {
            eprintln!(
                "pool: connects={} reuses={} evicted={} dirty={} full={}",
                p.connects, p.reuses, p.evicted_unhealthy, p.discarded_dirty, p.discarded_full
            );
        }
        if prefetch_budget > 0 {
            eprintln!(
                "prefetch: issued={} used={} wasted={} inflight={} cancelled={} \
                 used_bytes={} wasted_bytes={}",
                s.prefetch_issued,
                s.prefetch_used,
                s.prefetch_wasted,
                s.prefetch_inflight,
                s.prefetch_cancelled,
                s.prefetch_used_bytes,
                s.prefetch_wasted_bytes
            );
        }
    }
}

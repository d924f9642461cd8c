//! `pb-origin` — run a piggybacking origin server.
//!
//! ```text
//! pb-origin [--port 8080] [--pages 60] [--level 1] [--seed 42]
//!           [--volumes-file volumes.txt] [--epoch-secs N] [--print-paths]
//!           [--metrics | --no-metrics]
//!           [--io threaded|reactor] [--reactors N] [--idle-timeout-secs 120]
//!           [--push N]
//! ```
//!
//! `--level` serves directory volumes at that prefix depth (the default);
//! `--volumes-file` loads persisted probability volumes (see the
//! `online_volumes` example) instead, and `--epoch-secs N` adds online
//! probability-volume learning on top of them. `GET /__pb/metrics` serves
//! Prometheus counters and response-timing histograms unless
//! `--no-metrics` is given (`--metrics`, the default, turns it back on).
//! Requests are served from the lock-free snapshot path (PROTOCOL.md §9),
//! and every piggyback is built per response. `--io reactor` serves
//! connections from the epoll reactor (Linux; other platforms fall back
//! to the threaded pool) with `--reactors` SO_REUSEPORT accept shards
//! (0 = auto); both engines poll the one origin service, so wire output
//! is byte-identical, and both close a connection silent for
//! `--idle-timeout-secs`. `--push N` enables the server-push baseline:
//! after a full 200 to a `Piggy-push: accept` peer, up to N volume
//! members stream as complete responses on the same connection.

use piggyback_core::types::DurationMs;
use piggyback_proxyd::origin::{start_origin, OnlineEpochConfig, OriginConfig, VolumeScheme};
use piggyback_proxyd::IoMode;
use piggyback_trace::synth::site::SiteConfig;

fn main() {
    let mut cfg = OriginConfig {
        port: 8080,
        site: SiteConfig {
            n_pages: 60,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut print_paths = false;
    let mut reactors: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--port" => cfg.port = value("--port").parse().expect("numeric port"),
            "--pages" => cfg.site.n_pages = value("--pages").parse().expect("numeric pages"),
            "--level" => {
                let level = value("--level").parse().expect("numeric level");
                cfg.volumes = VolumeScheme::Directory { level };
            }
            "--volumes-file" => {
                cfg.volumes = VolumeScheme::ProbabilityFile(value("--volumes-file").into());
            }
            "--seed" => cfg.site.seed = value("--seed").parse().expect("numeric seed"),
            "--print-paths" => print_paths = true,
            "--metrics" => cfg.metrics = true,
            "--no-metrics" => cfg.metrics = false,
            "--epoch-secs" => {
                let secs: u64 = value("--epoch-secs")
                    .parse()
                    .expect("numeric epoch seconds");
                cfg.online_epoch = Some(OnlineEpochConfig {
                    epoch: DurationMs::from_secs(secs),
                    // Keep the co-access window well inside the epoch so
                    // drained histories lose at most a window's tail.
                    window: DurationMs::from_secs((secs / 4).max(1)),
                    threshold: 0.25,
                });
            }
            "--io" => {
                let v = value("--io");
                cfg.io = IoMode::parse(&v).unwrap_or_else(|| {
                    eprintln!("--io expects 'threaded' or 'reactor', got {v}");
                    std::process::exit(2);
                });
            }
            "--push" => cfg.push_max = value("--push").parse().expect("number"),
            "--reactors" => reactors = Some(value("--reactors").parse().expect("number")),
            "--idle-timeout-secs" => {
                let secs: u64 = value("--idle-timeout-secs").parse().expect("number");
                cfg.reactor_idle_timeout = std::time::Duration::from_secs(secs);
            }
            "--help" | "-h" => {
                println!(
                    "pb-origin [--port 8080] [--pages 60] [--level 1] [--seed 42] \
                     [--volumes-file volumes.txt] [--epoch-secs N] [--print-paths] \
                     [--metrics | --no-metrics] \
                     [--io threaded|reactor] [--reactors N] [--idle-timeout-secs 120] \
                     [--push N]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }

    if let (IoMode::Reactor { .. }, Some(n)) = (cfg.io, reactors) {
        cfg.io = IoMode::Reactor { reactors: n };
    }
    let metrics = cfg.metrics;
    let origin = start_origin(cfg).expect("failed to start origin");
    eprintln!(
        "pb-origin listening on {} ({} resources)",
        origin.addr(),
        origin.paths.len()
    );
    if metrics {
        eprintln!(
            "metrics: http://{}{}",
            origin.addr(),
            piggyback_proxyd::METRICS_PATH
        );
    }
    if print_paths {
        for p in &origin.paths {
            println!("{p}");
        }
    }
    eprintln!("press Ctrl-C to stop; try:");
    eprintln!(
        "  curl -s http://{}{} -H 'TE: chunked' -H 'Piggy-filter: maxpiggy=5' --raw",
        origin.addr(),
        origin.paths[0]
    );
    loop {
        std::thread::sleep(std::time::Duration::from_secs(10));
        let s = origin.stats();
        let d = origin.daemon_stats();
        eprintln!(
            "req={} piggybacks={} elements={} | conns={} ok={} 304={} err={} bytes={} \
             pushes={} push_bytes={}",
            s.requests,
            s.piggybacks_sent,
            s.elements_sent,
            d.connections,
            d.responses_ok,
            d.responses_not_modified,
            d.responses_error,
            d.bytes_sent,
            d.pushes_sent,
            d.push_bytes_sent
        );
    }
}

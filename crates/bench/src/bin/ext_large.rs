//! `ext-large` — large-object delivery: buffered store-and-forward vs
//! streaming cut-through vs streaming + prefix cache.
//!
//! The paper's proxies move whole objects; this extension measures what
//! the streaming path (PROTOCOL.md §14) buys on the workload it was built
//! for — objects far larger than a page, over access links where
//! serialization time dominates. Three proxy arms differ only in the
//! streaming knobs:
//!
//! * `buffered`  — `stream_threshold = 0`: the seed behaviour, the proxy
//!   materializes the full body before the first client byte.
//! * `streaming` — cut-through relay, no prefix retention.
//! * `prefix`    — cut-through plus a 64 KiB cached prefix, so a repeat
//!   request serves its head at hit latency while the suffix streams.
//!
//! **TTFB cells** run the chain `client -> proxy -> [netem shim] volume
//! center -> origin` per profile (dsl, dialup), cold objects for the
//! buffered/streaming arms and warm repeats for the prefix arm, and
//! record time-to-first-byte and full-transfer percentiles as
//! `ext_large_<profile>_<arm>_ttfb` / `_full`. Gate: streaming TTFB p90
//! beats buffered on every profile, and prefix beats streaming.
//!
//! **RSS cells** spawn a real `pb-proxy` child per (arm, object size) —
//! 256 KiB, 1 MiB, 8 MiB — drive a two-pass workload over six distinct
//! objects, and read the child's `VmHWM` from `/proc/<pid>/status`
//! (`ext_large_rss_<arm>_<size>`; the prefix arm also on the reactor
//! engine, `ext_large_rss_prefix_reactor_<size>`). Gate: the streaming
//! proxy's peak RSS is flat in object size on either engine (it never
//! materializes a whole object), while the buffered proxy's grows with
//! what it caches.
//!
//! **Identity cell** (`ext_large_identity`): the same object fetched
//! twice through buffered/streaming x threaded/reactor proxies on a
//! clean loopback path must be byte-identical everywhere, with the
//! second streaming fetch tagged `X-Cache: PREFIX`.
//!
//! Environment: `PB_SCALE` scales measured round counts,
//! `PB_NETEM_SCALE` (default 0.1) scales the shim's time constants.

use piggyback_bench::{
    banner, cell_seed, print_table, record_cell, record_cell_rss, record_cell_stats, scale_factor,
};
use piggyback_httpwire::Request;
use piggyback_proxyd::netem::{NetProfile, ShimConfig};
use piggyback_proxyd::obs::LatencyHistogram;
use piggyback_proxyd::proxy::{start_proxy, ProxyConfig};
use piggyback_proxyd::volume_center::{start_volume_center, VolumeCenterConfig};
use piggyback_proxyd::IoMode;
use piggyback_trace::profiles::{large_objects, LARGE_MAX_BYTES, LARGE_MIN_BYTES};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

const STREAM_THRESHOLD: usize = 256 * 1024;
const PREFIX_BYTES: usize = 64 * 1024;
/// Distinct objects per RSS cell; two passes each.
const RSS_OBJECTS: usize = 6;

fn netem_scale() -> f64 {
    std::env::var("PB_NETEM_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|f: &f64| *f > 0.0)
        .unwrap_or(0.1)
}

/// Deterministic body for object `idx` of `size` bytes; cheap to
/// regenerate, so origins never hold the population in memory.
fn object_body(idx: usize, size: usize) -> Vec<u8> {
    (0..size).map(|i| ((i + idx * 17) % 251) as u8).collect()
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A plain large-object origin: `GET /large/obj<idx>_<size>.bin` serves
/// [`object_body`]. Threads are detached; the process exit reaps them.
fn start_big_origin() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("origin binds");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            std::thread::spawn(move || {
                let _ = stream.set_nodelay(true);
                let mut r = BufReader::new(stream.try_clone().expect("clone"));
                let mut w = BufWriter::new(stream);
                while let Ok(req) = Request::read(&mut r) {
                    let Some((idx, size)) = parse_object_path(&req.target) else {
                        let _ = w.write_all(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
                        let _ = w.flush();
                        continue;
                    };
                    let body = object_body(idx, size);
                    let head = format!(
                        "HTTP/1.1 200 OK\r\nLast-Modified: Thu, 01 Jan 1998 00:00:00 GMT\r\n\
                         Content-Length: {}\r\n\r\n",
                        body.len()
                    );
                    if w.write_all(head.as_bytes()).is_err()
                        || w.write_all(&body).is_err()
                        || w.flush().is_err()
                    {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// `/large/obj<idx>_<size>.bin` -> `(idx, size)`.
fn parse_object_path(target: &str) -> Option<(usize, usize)> {
    let rest = target.strip_prefix("/large/obj")?;
    let rest = rest.strip_suffix(".bin")?;
    let (idx, size) = rest.split_once('_')?;
    Some((idx.parse().ok()?, size.parse().ok()?))
}

fn object_path(idx: usize, size: usize) -> String {
    format!("/large/obj{idx}_{size}.bin")
}

struct Fetch {
    ttfb: Duration,
    total: Duration,
    body_hash: u64,
    body_len: usize,
    cache_tag: String,
}

/// One fresh-connection GET with client-side TTFB (first response byte)
/// and full-transfer timing.
fn fetch(addr: SocketAddr, path: &str) -> std::io::Result<Fetch> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut first = [0u8; 1];
    stream.read_exact(&mut first)?;
    let ttfb = start.elapsed();
    let mut raw = vec![first[0]];
    stream.read_to_end(&mut raw)?;
    let total = start.elapsed();

    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no head"))?
        + 4;
    let head = String::from_utf8_lossy(&raw[..head_end]).to_string();
    if !head.starts_with("HTTP/1.1 200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("status: {}", head.lines().next().unwrap_or("")),
        ));
    }
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no length"))?;
    let body = &raw[head_end..];
    if body.len() != content_length {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("body {} of {content_length} bytes", body.len()),
        ));
    }
    let cache_tag = head
        .lines()
        .find_map(|l| l.strip_prefix("X-Cache: "))
        .unwrap_or("")
        .trim()
        .to_string();
    Ok(Fetch {
        ttfb,
        total,
        body_hash: fnv1a(body),
        body_len: body.len(),
        cache_tag,
    })
}

fn expect_body(f: &Fetch, idx: usize, size: usize, what: &str) {
    let body = object_body(idx, size);
    assert_eq!(f.body_len, size, "{what}: body length");
    assert_eq!(
        f.body_hash,
        fnv1a(&body),
        "{what}: delivered bytes diverge from the origin object"
    );
}

#[derive(Clone, Copy)]
struct Arm {
    name: &'static str,
    stream_threshold: usize,
    prefix_bytes: usize,
}

const ARMS: [Arm; 3] = [
    Arm {
        name: "buffered",
        stream_threshold: 0,
        prefix_bytes: 0,
    },
    Arm {
        name: "streaming",
        stream_threshold: STREAM_THRESHOLD,
        prefix_bytes: 0,
    },
    Arm {
        name: "prefix",
        stream_threshold: STREAM_THRESHOLD,
        prefix_bytes: PREFIX_BYTES,
    },
];

fn arm_proxy(upstream: SocketAddr, arm: Arm, io: IoMode) -> piggyback_proxyd::proxy::ProxyHandle {
    let mut cfg = ProxyConfig::new(upstream);
    cfg.rpv = None;
    cfg.report_hits = false;
    cfg.metrics = false;
    cfg.io = io;
    cfg.stream_threshold = arm.stream_threshold;
    cfg.prefix_bytes = arm.prefix_bytes;
    start_proxy(cfg).expect("proxy starts")
}

struct TtfbCell {
    ttfb: LatencyHistogram,
    full: LatencyHistogram,
    wall: Duration,
}

/// One (profile, arm) TTFB cell. The buffered/streaming arms fetch a
/// *distinct* cold object per round (miss-path TTFB); the prefix arm
/// warms one object and measures repeats (prefix-hit TTFB). Every arm
/// sees the identical conditioner schedule (same profile, same seed).
fn ttfb_cell(profile: &NetProfile, seed: u64, arm: Arm, size: usize, rounds: usize) -> TtfbCell {
    let origin = start_big_origin();
    let center = start_volume_center(VolumeCenterConfig {
        port: 0,
        origin,
        volume_level: 1,
        shim: Some(ShimConfig {
            profile: profile.clone(),
            seed,
        }),
        transparent: true,
    })
    .expect("volume center starts");
    let proxy = arm_proxy(center.addr(), arm, IoMode::Threaded);

    let warm_streaming = arm.prefix_bytes > 0;
    if warm_streaming {
        let f = fetch(proxy.addr(), &object_path(0, size)).expect("warmup fetch");
        expect_body(&f, 0, size, "warmup");
    }
    let ttfb = LatencyHistogram::default();
    let full = LatencyHistogram::default();
    let start = Instant::now();
    for round in 0..rounds {
        // Cold per round for buffered/streaming (distinct object), warm
        // repeat of object 0 for the prefix arm.
        let idx = if warm_streaming { 0 } else { round + 1 };
        let f = fetch(proxy.addr(), &object_path(idx, size)).expect("measured fetch");
        expect_body(&f, idx, size, arm.name);
        if warm_streaming {
            assert_eq!(
                f.cache_tag, "PREFIX",
                "prefix arm repeats must be prefix hits"
            );
        }
        ttfb.record(f.ttfb);
        full.record(f.total);
    }
    let wall = start.elapsed();
    let stats = proxy.stats();
    assert_eq!(stats.upstream_errors, 0, "{}: clean cell", arm.name);
    proxy.stop();
    center.stop();
    TtfbCell { ttfb, full, wall }
}

// ---------------------------------------------------------------------------
// RSS cells: a real pb-proxy child per (arm, size), VmHWM sampled.
// ---------------------------------------------------------------------------

fn pb_proxy_bin() -> std::path::PathBuf {
    let mut p = std::env::current_exe().expect("current exe");
    p.pop();
    p.push("pb-proxy");
    assert!(
        p.exists(),
        "pb-proxy binary not found next to ext-large at {} — build the workspace binaries first",
        p.display()
    );
    p
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Spawn a pb-proxy child for `arm` on the `io` engine, drive two passes
/// over `RSS_OBJECTS` distinct objects of `size` bytes, and return (child
/// peak RSS KiB, wall). The first pass is all misses; the second
/// exercises whichever repeat lane the arm has (whole-body hits when
/// buffered, prefix hits when streaming).
fn rss_cell(origin: SocketAddr, arm: Arm, io: &str, size: usize) -> (u64, Duration) {
    use std::process::{Command, Stdio};
    let mut child = Command::new(pb_proxy_bin())
        .args([
            "--io",
            io,
            "--origin",
            &origin.to_string(),
            "--port",
            "0",
            "--capacity-mb",
            "64",
            "--no-metrics",
            "--no-report-hits",
            "--stream-threshold-kb",
            &(arm.stream_threshold / 1024).to_string(),
            "--prefix-kb",
            &(arm.prefix_bytes / 1024).to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("pb-proxy child spawns");
    // The child announces its ephemeral port on stderr:
    //   pb-proxy listening on 127.0.0.1:PORT -> origin ...
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr: SocketAddr = loop {
        let line = lines
            .next()
            .expect("child exited before announcing its address")
            .expect("child stderr");
        if let Some(rest) = line.strip_prefix("pb-proxy listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .parse()
                .expect("child address parses");
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    let drain = std::thread::spawn(move || for _ in lines.by_ref() {});

    let start = Instant::now();
    for pass in 0..2 {
        for idx in 0..RSS_OBJECTS {
            let f = fetch(addr, &object_path(idx, size)).expect("rss fetch");
            expect_body(&f, idx, size, arm.name);
            if pass == 1 && arm.prefix_bytes > 0 {
                assert_eq!(f.cache_tag, "PREFIX", "streaming repeats are prefix hits");
            }
        }
    }
    let wall = start.elapsed();
    let rss = vm_hwm_kb(child.id()).expect("child VmHWM readable");
    let _ = child.kill();
    let _ = child.wait();
    let _ = drain.join();
    (rss, wall)
}

// ---------------------------------------------------------------------------
// Identity cell: byte identity across arms and I/O engines on loopback.
// ---------------------------------------------------------------------------

fn identity_cell() -> Duration {
    let size = 600 * 1024;
    let start = Instant::now();
    let mut hashes = Vec::new();
    for io in [IoMode::Threaded, IoMode::Reactor { reactors: 2 }] {
        for arm in [ARMS[0], ARMS[2]] {
            let origin = start_big_origin();
            let proxy = arm_proxy(origin, arm, io);
            for repeat in 0..2 {
                let f = fetch(proxy.addr(), &object_path(3, size)).expect("identity fetch");
                expect_body(&f, 3, size, "identity");
                if repeat == 1 && arm.prefix_bytes > 0 {
                    assert_eq!(
                        f.cache_tag, "PREFIX",
                        "streaming repeat must hit the prefix in both I/O modes"
                    );
                }
                hashes.push(f.body_hash);
            }
            let stats = proxy.stats();
            assert_eq!(stats.upstream_errors, 0, "identity cell is error-free");
            proxy.stop();
        }
    }
    assert!(
        hashes.windows(2).all(|w| w[0] == w[1]),
        "delivered bytes must be identical across buffered/streaming and threaded/reactor"
    );
    start.elapsed()
}

fn main() {
    banner(
        "ext-large",
        "large-object TTFB, memory, and byte identity: buffered vs streaming vs prefix",
    );
    let nscale = netem_scale();
    let rounds = ((4.0 * scale_factor()).round() as usize).clamp(2, 8);
    // Per-profile cold-object size: sized so serialization dominates RTT
    // but cells stay minutes-free even on scaled dialup.
    let cells: [(&str, usize); 2] = [("dsl", 512 * 1024), ("dialup", LARGE_MIN_BYTES)];
    let profile = large_objects(scale_factor());
    println!(
        "workload universe: {} objects, {} requests, {} total bytes; \
         {rounds} measured rounds/arm; netem scale {nscale}",
        profile.objects.len(),
        profile.requests.len(),
        profile.total_request_bytes()
    );

    let mut rows = Vec::new();
    let mut ttfb_p90 = Vec::new();
    for (i, (pname, size)) in cells.iter().enumerate() {
        let net = NetProfile::named(pname).expect("profile").scaled(nscale);
        let seed = cell_seed("ext_large", i);
        for arm in ARMS {
            let cell = ttfb_cell(&net, seed, arm, *size, rounds);
            let t = cell.ttfb.snapshot();
            let f = cell.full.snapshot();
            let id = format!("ext_large_{pname}_{}", arm.name);
            record_cell_stats(&format!("{id}_ttfb"), cell.wall, t.percentiles());
            record_cell_stats(&format!("{id}_full"), cell.wall, f.percentiles());
            let (tp50, tp90, ..) = t.percentiles();
            let (fp50, fp90, ..) = f.percentiles();
            rows.push(vec![
                id.clone(),
                format!("{:.1}", tp50 as f64 / 1000.0),
                format!("{:.1}", tp90 as f64 / 1000.0),
                format!("{:.1}", fp50 as f64 / 1000.0),
                format!("{:.1}", fp90 as f64 / 1000.0),
            ]);
            ttfb_p90.push((*pname, arm.name, tp90));
        }
    }
    println!();
    print_table(
        &[
            "cell",
            "ttfb_p50_ms",
            "ttfb_p90_ms",
            "full_p50_ms",
            "full_p90_ms",
        ],
        &rows,
    );

    // Gate 1: cut-through beats store-and-forward on first-byte latency,
    // and the prefix cache beats cut-through, on every adverse profile.
    let p90 = |prof: &str, arm: &str| {
        ttfb_p90
            .iter()
            .find(|(p, a, _)| *p == prof && *a == arm)
            .map(|(_, _, v)| *v)
            .unwrap()
    };
    for (pname, _) in &cells {
        let (b, s, x) = (
            p90(pname, "buffered"),
            p90(pname, "streaming"),
            p90(pname, "prefix"),
        );
        println!("{pname}: ttfb p90 buffered {b} us, streaming {s} us, prefix {x} us");
        if s >= b {
            eprintln!("FAIL: {pname}: streaming TTFB p90 ({s} us) must beat buffered ({b} us)");
            std::process::exit(1);
        }
        if x > s {
            eprintln!("FAIL: {pname}: prefix TTFB p90 ({x} us) must not exceed streaming ({s} us)");
            std::process::exit(1);
        }
    }
    println!("ttfb gate: buffered > streaming >= prefix on every profile");

    // Gate 2: streaming peak RSS is flat in object size.
    let rss_origin = start_big_origin();
    let sizes: [(&str, usize); 3] = [
        ("256k", LARGE_MIN_BYTES),
        ("1m", 1024 * 1024),
        ("8m", LARGE_MAX_BYTES),
    ];
    let mut rss_rows = Vec::new();
    let mut rss_of = std::collections::HashMap::new();
    // The buffered and prefix arms on threaded, and the prefix arm on the
    // reactor too: each engine's relay answers to the flatness gate.
    let rows = [
        (ARMS[0].name, ARMS[0], "threaded"),
        (ARMS[2].name, ARMS[2], "threaded"),
        ("prefix_reactor", ARMS[2], "reactor"),
    ];
    for (row, arm, io) in rows {
        for (tag, size) in sizes {
            let (rss_kb, wall) = rss_cell(rss_origin, arm, io, size);
            let id = format!("ext_large_rss_{row}_{tag}");
            record_cell_rss(&id, wall, rss_kb);
            rss_rows.push(vec![
                id,
                format!("{rss_kb}"),
                format!("{}", wall.as_millis()),
            ]);
            rss_of.insert((row, tag), rss_kb);
        }
    }
    println!();
    print_table(&["cell", "peak_rss_kb", "wall_ms"], &rss_rows);
    let mut growths = Vec::new();
    for row in ["prefix", "prefix_reactor"] {
        let growth = rss_of[&(row, "8m")].saturating_sub(rss_of[&(row, "256k")]);
        // Flat = never materializes even one max-size object.
        if growth >= (LARGE_MAX_BYTES / 1024) as u64 {
            eprintln!(
                "FAIL: streaming proxy ({row}) RSS grew {growth} KiB from 256 KiB to 8 MiB \
                 objects — the relay is materializing bodies"
            );
            std::process::exit(1);
        }
        growths.push(format!("{row} {growth} KiB"));
    }
    if rss_of[&("buffered", "8m")] <= rss_of[&("prefix", "8m")] {
        eprintln!(
            "FAIL: buffered proxy at 8 MiB ({} KiB) must out-weigh the streaming proxy ({} KiB)",
            rss_of[&("buffered", "8m")],
            rss_of[&("prefix", "8m")]
        );
        std::process::exit(1);
    }
    println!(
        "rss gate: streaming growth 256k->8m = {} (flat); \
         buffered 8m = {} KiB vs streaming 8m = {} KiB",
        growths.join(", "),
        rss_of[&("buffered", "8m")],
        rss_of[&("prefix", "8m")]
    );

    // Gate 3: byte identity across arms and I/O engines.
    let wall = identity_cell();
    record_cell("ext_large_identity", wall);
    println!("identity gate: byte-identical bodies across buffered/streaming x threaded/reactor");
}

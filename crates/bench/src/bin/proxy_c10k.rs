//! `proxy-c10k` — the reactor's headline claim: hold ten thousand
//! idle-but-live client connections on one proxy while serving cached-hit
//! throughput competitive with the threaded pool's best case.
//!
//! The threaded pool (`--io threaded`, `ServeOptions { workers: 64 }`)
//! burns one blocking thread per live connection, so 10k held connections
//! simply cannot all be served — the worker pool saturates and the queue
//! sheds. The epoll reactor multiplexes them on a handful of threads.
//!
//! Procedure:
//!
//! 1. Start one origin, and two `pb-proxy` child processes over it,
//!    identically configured except for `--io`: `threaded` and
//!    `reactor`. Warm both caches. (Child processes, so the held
//!    population's accepted ends spend the *proxy's* fd budget, not
//!    this process's.)
//! 2. Measure the threaded baseline: 16 pipelined connections of pure
//!    cached hits → `proxy_c10k_threaded_16c`.
//! 3. Open `PB_C10K_CONNS` (default 10000) keep-alive connections to the
//!    reactor proxy, each proven live with one cached-hit GET, and HOLD
//!    them open.
//! 4. Scrape `/__pb/metrics` and assert `pb_proxy_open_connections`
//!    observes every held connection.
//! 5. With all of them still held, run the same 16-connection throughput
//!    workload → `proxy_c10k_reactor_16c`.
//!
//! Gate (nonzero exit on failure): the reactor must hold every connection
//! AND its loaded throughput must be within 10% of the threaded
//! baseline's unloaded number (`reactor >= 0.9 * threaded`).
//!
//! `PB_C10K_CONNS` scales the held population (CI smoke uses 1000);
//! `PB_SCALE` scales the timed request count.

use piggyback_bench::{
    banner, browser_get, print_table, record_cell, scale_factor, PipelinedClient,
};
use piggyback_proxyd::client::HttpClient;
use piggyback_proxyd::origin::{start_origin, OriginConfig};
use piggyback_proxyd::raise_nofile_limit;
use piggyback_trace::synth::samplers::LogNormal;
use piggyback_trace::synth::site::{Site, SiteConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const PAGES: usize = 64;
const BATCH: usize = 32;
const CONNS: usize = 16;
const PASSES: usize = 5;

fn held_target() -> usize {
    std::env::var("PB_C10K_CONNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000)
}

/// ~12 KiB pages, no images, far under `MAX_LIVE_BODY` (the page shape
/// the retired `proxy-ab` cells in `BENCH_pipeline.json` were taken on).
fn site_config() -> SiteConfig {
    SiteConfig {
        n_pages: PAGES,
        images_per_page: (0, 0),
        page_size: LogNormal::new((12.0 * 1024.0f64).ln(), 0.2),
        ..Default::default()
    }
}

/// A `pb-proxy` child process. The proxies run out-of-process so each
/// held connection costs one fd *here* (the client end) and one fd in
/// the child (the accepted end) — an in-process proxy would pay both
/// out of a single `RLIMIT_NOFILE` budget, halving the reachable
/// population on hosts where the hard limit cannot be raised.
struct ProxyProc {
    child: Child,
    addr: SocketAddr,
}

impl ProxyProc {
    fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn stop(self) {}
}

impl Drop for ProxyProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_proxy_stack(origin: SocketAddr, io: &str, paths: &[String]) -> ProxyProc {
    let bin = std::env::current_exe()
        .expect("current exe")
        .with_file_name("pb-proxy");
    let mut child = Command::new(&bin)
        .args(["--origin", &origin.to_string(), "--port", "0"])
        .args(["--delta-secs", "3600", "--no-rpv", "--no-report-hits"])
        // Holding idle-but-LIVE connections is the whole point: the
        // reaper must not shoot the population while the hold phase
        // builds it.
        .args(["--idle-timeout-secs", "3600"])
        .args(["--io", io])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
    let stderr = child.stderr.take().expect("child stderr piped");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // Parse the bound address off the startup banner, then keep
        // draining so the child never blocks on a full stderr pipe.
        for line in BufReader::new(stderr).lines() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("pb-proxy listening on ") {
                let addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                let _ = tx.send(addr);
            }
        }
    });
    let addr: SocketAddr = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("pb-proxy did not announce its address")
        .parse()
        .expect("pb-proxy announced a malformed address");
    let proxy = ProxyProc { child, addr };
    let mut warm = HttpClient::connect(proxy.addr()).expect("connect");
    for path in paths {
        let resp = warm.get(path, &[]).expect("warmup request");
        assert_eq!(resp.status, 200, "warmup {path}");
    }
    proxy
}

/// Open `n` keep-alive connections, prove each live with one cached-hit
/// GET, and return the streams (held open by the caller). Eight opener
/// threads share one ~12 KiB-response drain buffer each, so 10k held
/// connections cost file descriptors, not gigabytes.
fn hold_connections(addr: SocketAddr, n: usize, path: &str) -> Vec<TcpStream> {
    let req = browser_get(path);
    let threads = 8;
    let mut held: Vec<TcpStream> = Vec::with_capacity(n);
    let streams = std::sync::Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for t in 0..threads {
            let count = n / threads + usize::from(t < n % threads);
            let streams = &streams;
            let req = req.as_str();
            s.spawn(move || {
                let mut buf = vec![0u8; 64 * 1024];
                let mut local = Vec::with_capacity(count);
                for _ in 0..count {
                    let mut stream = TcpStream::connect(addr).expect("connect held conn");
                    stream.write_all(req.as_bytes()).expect("write probe");
                    read_one_response(&mut stream, &mut buf);
                    local.push(stream);
                }
                streams.lock().unwrap().append(&mut local);
            });
        }
    });
    held.append(&mut streams.into_inner().unwrap());
    held
}

/// Read exactly one `Content-Length`-framed response into `buf` (reused
/// across calls; grown if a response outsizes it).
fn read_one_response(stream: &mut TcpStream, buf: &mut Vec<u8>) {
    use piggyback_bench::pipelined::{content_length, find};
    let mut filled = 0usize;
    let head_len = loop {
        if let Some(p) = find(&buf[..filled], b"\r\n\r\n") {
            break p + 4;
        }
        if filled == buf.len() {
            buf.resize(buf.len() * 2, 0);
        }
        let n = stream.read(&mut buf[filled..]).expect("read probe");
        assert!(n > 0, "proxy closed probe connection");
        filled += n;
    };
    assert!(buf.starts_with(b"HTTP/1.1 200 OK\r\n"), "probe not a 200");
    let total = head_len + content_length(&buf[..head_len]);
    if buf.len() < total {
        buf.resize(total, 0);
    }
    while filled < total {
        let n = stream.read(&mut buf[filled..]).expect("read probe body");
        assert!(n > 0, "proxy closed probe connection mid-body");
        filled += n;
    }
    assert_eq!(filled, total, "probe connection must be drained exactly");
}

/// Scrape `/__pb/metrics` and return the named scalar.
fn scrape_metric(addr: SocketAddr, name: &str) -> u64 {
    let mut client = HttpClient::connect(addr).expect("scrape connect");
    let resp = client
        .get(piggyback_proxyd::METRICS_PATH, &[])
        .expect("scrape");
    assert_eq!(resp.status, 200, "metrics scrape");
    let text = String::from_utf8(resp.body.to_vec()).expect("utf8 metrics");
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("{name} not in scrape"))
        .parse()
        .unwrap_or_else(|_| panic!("{name} not numeric"))
}

/// One timed pass of the 16-connection pipelined cached-hit workload.
fn time_pass(addr: SocketAddr, all_batches: &[Vec<Vec<u8>>]) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for batches in all_batches {
            s.spawn(move || {
                let mut client = PipelinedClient::connect(addr).expect("connect");
                for batch in batches {
                    client.run_batch(batch, BATCH);
                }
            });
        }
    });
    start.elapsed()
}

/// Median-of-passes throughput cell. Returns requests/second.
fn measure(id: &str, addr: SocketAddr, all_batches: &[Vec<Vec<u8>>], total: usize) -> f64 {
    let mut passes: Vec<Duration> = (0..PASSES).map(|_| time_pass(addr, all_batches)).collect();
    passes.sort();
    let med = passes[passes.len() / 2];
    record_cell(id, med);
    total as f64 / med.as_secs_f64()
}

fn main() {
    banner(
        "proxy-c10k",
        "reactor holds 10k live connections at threaded-pool cached-hit throughput",
    );
    let target = held_target();
    // Held conns + 16 bench conns + the origin's accepted upstream
    // sockets + slack. The proxies are child processes with their own
    // fd tables, so the accepted ends don't count against this budget.
    let want = (target + 512) as u64;
    let effective = raise_nofile_limit(want);
    if effective < want {
        eprintln!(
            "warning: RLIMIT_NOFILE {effective} < wanted {want}; \
             lower PB_C10K_CONNS or raise the hard limit"
        );
    }

    let site_cfg = site_config();
    let (table, site) = Site::generate(&site_cfg);
    let paths: Vec<String> = site
        .pages
        .iter()
        .map(|p| table.path(p.resource).unwrap().to_owned())
        .collect();
    let origin = start_origin(OriginConfig {
        site: site_cfg,
        ..Default::default()
    })
    .expect("origin starts");

    let threaded = start_proxy_stack(origin.addr(), "threaded", &paths);
    let reactor = start_proxy_stack(origin.addr(), "reactor", &paths);

    let scale = scale_factor();
    let per_conn = ((2000.0 * scale) as usize).max(BATCH).div_ceil(BATCH) * BATCH;
    let total = CONNS * per_conn;
    let all_batches: Vec<Vec<Vec<u8>>> = (0..CONNS)
        .map(|t| {
            (0..per_conn / BATCH)
                .map(|b| {
                    let mut bytes = Vec::new();
                    for i in 0..BATCH {
                        bytes.extend_from_slice(
                            browser_get(&paths[(t * 7 + b * BATCH + i) % paths.len()]).as_bytes(),
                        );
                    }
                    bytes
                })
                .collect()
        })
        .collect();

    // Threaded baseline first, unloaded: its best case.
    let threaded_rps = measure(
        "proxy_c10k_threaded_16c",
        threaded.addr(),
        &all_batches,
        total,
    );
    println!("threaded 16c (unloaded): {threaded_rps:.0} req/s");

    // Hold the population against the reactor proxy.
    let t0 = Instant::now();
    let held = hold_connections(reactor.addr(), target, &paths[0]);
    println!(
        "held {} connections against the reactor proxy in {:.1}s",
        held.len(),
        t0.elapsed().as_secs_f64()
    );
    let open = scrape_metric(reactor.addr(), "pb_proxy_open_connections");
    assert!(
        open >= held.len() as u64,
        "scrape must observe every held connection: open={open} held={}",
        held.len()
    );

    // Reactor throughput with the whole population still live.
    let reactor_rps = measure(
        "proxy_c10k_reactor_16c",
        reactor.addr(),
        &all_batches,
        total,
    );
    println!(
        "reactor 16c (holding {}): {reactor_rps:.0} req/s",
        held.len()
    );

    // The held connections must have survived the loaded passes.
    let open_after = scrape_metric(reactor.addr(), "pb_proxy_open_connections");
    assert!(
        open_after >= held.len() as u64,
        "held connections must survive the timed passes: open={open_after}"
    );

    println!();
    print_table(
        &["cell", "held conns", "req/s"],
        &[
            vec![
                "proxy_c10k_threaded_16c".into(),
                "0".into(),
                format!("{threaded_rps:.0}"),
            ],
            vec![
                "proxy_c10k_reactor_16c".into(),
                held.len().to_string(),
                format!("{reactor_rps:.0}"),
            ],
        ],
    );

    let ratio = reactor_rps / threaded_rps;
    println!(
        "\nreactor/threaded throughput ratio: {ratio:.2} (gate: >= 0.90 while holding {target})"
    );
    drop(held);
    reactor.stop();
    threaded.stop();
    origin.stop();

    let mut failed = false;
    if open < target as u64 {
        eprintln!("GATE FAIL: held {open} < target {target} connections");
        failed = true;
    }
    if ratio < 0.9 {
        eprintln!("GATE FAIL: reactor throughput {ratio:.2}x threaded, below 0.90x");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

//! End-to-end scrape of the `/__pb/metrics` admin endpoint under
//! concurrent load.
//!
//! M client threads hammer an origin ↔ proxy chain over loopback TCP
//! while a scraper thread polls the Prometheus endpoint the whole time
//! (the endpoint takes no cache/table lock, so concurrent scrapes must
//! never wedge or be wedged by traffic). Once quiescent, the suite checks
//! the stats conservation invariant *from the scraped text alone*:
//!
//! ```text
//! pb_proxy_requests_total == Σ pb_proxy_outcome_requests_total{outcome=*}
//!                         == Σ pb_proxy_request_duration_seconds_count{outcome=*}
//! ```

use piggyback::core::types::DurationMs;
use piggyback::proxyd::client::HttpClient;
use piggyback::proxyd::origin::{start_origin, OriginConfig};
use piggyback::proxyd::proxy::{start_proxy, ProxyConfig};
use piggyback::proxyd::METRICS_PATH;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const PER_CLIENT: usize = 25;

/// Abort (don't hang CI) if the scenario deadlocks.
fn watchdog(limit: Duration) -> Arc<AtomicBool> {
    let done = Arc::new(AtomicBool::new(false));
    let done2 = Arc::clone(&done);
    std::thread::spawn(move || {
        let start = Instant::now();
        while start.elapsed() < limit {
            std::thread::sleep(Duration::from_millis(100));
            if done2.load(Ordering::SeqCst) {
                return;
            }
        }
        eprintln!("watchdog: metrics scenario exceeded {limit:?} — deadlock?");
        std::process::exit(101);
    });
    done
}

fn scrape(addr: SocketAddr) -> String {
    let mut client = HttpClient::connect(addr).unwrap();
    let resp = client.get(METRICS_PATH, &[]).unwrap();
    assert_eq!(resp.status, 200, "metrics scrape failed");
    assert_eq!(
        resp.headers.get("Content-Type"),
        Some("text/plain; version=0.0.4")
    );
    String::from_utf8(resp.body.to_vec()).expect("exposition is UTF-8")
}

/// The value of the unique sample named exactly `name` (no labels).
fn sample(text: &str, name: &str) -> u64 {
    let line = text
        .lines()
        .find(|l| l.split(' ').next() == Some(name))
        .unwrap_or_else(|| panic!("no sample {name} in:\n{text}"));
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

/// Sum of every sample whose name+labels start with `prefix`.
fn sample_sum(text: &str, prefix: &str) -> u64 {
    text.lines()
        .filter(|l| l.starts_with(prefix) && !l.starts_with("# "))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

#[test]
fn scraped_metrics_conserve_under_concurrency() {
    let done = watchdog(Duration::from_secs(120));
    let origin = start_origin(OriginConfig::default()).unwrap();
    let mut cfg = ProxyConfig::new(origin.addr());
    cfg.shards = 8;
    // Short Δ so the workload mixes fresh hits, validations, and fetches.
    cfg.freshness = DurationMs::from_millis(50);
    cfg.serve.workers = 64;
    let proxy = start_proxy(cfg).unwrap();
    let paths: Vec<String> = origin.paths.clone();

    // Drive load while a scraper polls the endpoint concurrently. Every
    // mid-flight scrape must parse and stay internally monotone; the
    // endpoint must never deadlock against traffic.
    let stop_scraper = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let scraper = {
            let stop = Arc::clone(&stop_scraper);
            let addr = proxy.addr();
            s.spawn(move || {
                let mut scrapes = 0u64;
                let mut last_requests = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let text = scrape(addr);
                    let requests = sample(&text, "pb_proxy_requests_total");
                    assert!(
                        requests >= last_requests,
                        "request counter went backwards: {requests} < {last_requests}"
                    );
                    last_requests = requests;
                    scrapes += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                scrapes
            })
        };
        for t in 0..CLIENTS {
            let paths = &paths;
            let addr = proxy.addr();
            s.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for i in 0..PER_CLIENT {
                    let path = &paths[(t * 7 + i) % paths.len()];
                    let resp = client.get(path, &[]).unwrap();
                    assert_eq!(resp.status, 200, "client {t} req {i} ({path})");
                    if i % 5 == 4 {
                        std::thread::sleep(Duration::from_millis(3));
                    }
                }
            });
        }
        // A monitor stops the scraper once every client request is
        // visible in the scraped counter (scoped threads join on exit,
        // so the scraper must be told to finish).
        s.spawn({
            let stop = Arc::clone(&stop_scraper);
            let addr = proxy.addr();
            let expected = (CLIENTS * PER_CLIENT) as u64;
            move || {
                // Poll until all client requests are visible, then stop
                // the scraper.
                loop {
                    let text = scrape(addr);
                    if sample(&text, "pb_proxy_requests_total") >= expected {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                stop.store(true, Ordering::SeqCst);
            }
        });
        let scrapes = scraper.join().unwrap();
        assert!(scrapes > 0, "scraper never ran");
    });

    // Quiescent: conservation must be checkable from the scrape alone.
    let text = scrape(proxy.addr());
    let requests = sample(&text, "pb_proxy_requests_total");
    assert_eq!(requests, (CLIENTS * PER_CLIENT) as u64);
    let outcome_sum = sample_sum(&text, "pb_proxy_outcome_requests_total{");
    assert_eq!(
        outcome_sum, requests,
        "scraped outcome counters must conserve requests:\n{text}"
    );
    let histogram_sum = sample_sum(&text, "pb_proxy_request_duration_seconds_count");
    assert_eq!(
        histogram_sum, requests,
        "per-outcome histogram totals must equal the request count:\n{text}"
    );
    // Scrapes themselves never entered the ledger.
    assert_eq!(sample(&text, "pb_proxy_requests_total"), requests);

    // Cross-check against the in-process accessors the tests always had.
    let stats = proxy.stats();
    assert_eq!(stats.requests, requests);
    assert_eq!(stats.outcomes(), outcome_sum);

    // Shard occupancy gauges are present and account for cached bytes.
    let shard_bytes = sample_sum(&text, "pb_proxy_cache_shard_bytes{");
    assert!(shard_bytes > 0, "cache must hold bytes after the run");
    assert!(shard_bytes <= sample(&text, "pb_proxy_cache_capacity_bytes"));

    proxy.stop();
    origin.stop();
    done.store(true, Ordering::SeqCst);
}

#[test]
fn origin_metrics_balance_their_own_ledger() {
    let done = watchdog(Duration::from_secs(60));
    let origin = start_origin(OriginConfig::default()).unwrap();
    let paths: Vec<String> = origin.paths.clone();
    std::thread::scope(|s| {
        for t in 0..4 {
            let paths = &paths;
            let addr = origin.addr();
            s.spawn(move || {
                let mut client = HttpClient::connect(addr).unwrap();
                for i in 0..20 {
                    let path = &paths[(t * 5 + i) % paths.len()];
                    assert_eq!(client.get(path, &[]).unwrap().status, 200);
                }
            });
        }
    });
    let text = scrape(origin.addr());
    let requests = sample(&text, "pb_origin_requests_total");
    assert_eq!(requests, 80, "scrapes stay out of the ledger:\n{text}");
    let responses = sample_sum(&text, "pb_origin_responses_total{");
    assert_eq!(responses, requests, "every request answered:\n{text}");
    let histogram_sum = sample_sum(&text, "pb_origin_response_duration_seconds_count");
    assert_eq!(histogram_sum, requests, "{text}");
    origin.stop();
    done.store(true, Ordering::SeqCst);
}

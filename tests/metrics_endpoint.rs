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
//!
//! Two last lanes hold the `pb_origin_*` and the `pb_proxy_*` families a
//! scrape declares equal to the lists in `docs/PROTOCOL.md` §8.

use piggyback::core::types::{DurationMs, SourceId, Timestamp};
use piggyback::core::volume::{write_volumes, ProbabilityVolumesBuilder, SamplingMode};
use piggyback::httpwire::Response;
use piggyback::proxyd::client::HttpClient;
use piggyback::proxyd::origin::{start_origin, OnlineEpochConfig, OriginConfig, VolumeScheme};
use piggyback::proxyd::proxy::{start_proxy, ProxyConfig};
use piggyback::proxyd::{IoMode, METRICS_PATH};
use piggyback::trace::synth::site::Site;
use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
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

/// Read `n` responses off one raw connection, in order.
fn read_responses(stream: &TcpStream, n: usize) -> Vec<Response> {
    let mut reader = BufReader::new(stream);
    (0..n)
        .map(|_| Response::read(&mut reader, false).unwrap())
        .collect()
}

fn raw_get(path: &str) -> String {
    format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n")
}

/// L1 hits are tallied where the poller serves them and folded into the
/// shared state once per batch, before the batch's responses are written
/// and before anything in it reads that state. On both engines: a scrape
/// pipelined behind N hits counts all N; a later miss on another
/// connection reports them upstream; at quiescence the counters and the
/// latency histograms conserve; and a stored hit head never outlives its
/// entry.
#[test]
fn hit_tally_folds_before_anything_reads_it() {
    const N: usize = 8;
    let done = watchdog(Duration::from_secs(60));
    let mut engines = vec![IoMode::Threaded];
    #[cfg(target_os = "linux")]
    engines.push(IoMode::Reactor { reactors: 1 });
    for io in engines {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let (hot, other) = (origin.paths[0].clone(), origin.paths[1].clone());
        let mut cfg = ProxyConfig::new(origin.addr());
        cfg.io = io;
        cfg.freshness = DurationMs::from_secs(3600);
        let proxy = start_proxy(cfg).unwrap();

        // A miss, then the locked hit that fills this connection's L1.
        let mut a = TcpStream::connect(proxy.addr()).unwrap();
        a.write_all(raw_get(&hot).as_bytes()).unwrap();
        a.write_all(raw_get(&hot).as_bytes()).unwrap();
        let warm = read_responses(&a, 2);
        assert_eq!(warm[1].headers.get("X-Cache"), Some("HIT"), "{io:?}");
        let mut burst = raw_get(&hot).repeat(N);
        burst.push_str(&raw_get(METRICS_PATH));
        a.write_all(burst.as_bytes()).unwrap();
        let answers = read_responses(&a, N + 1);
        for hit in &answers[..N] {
            assert_eq!(hit.headers.get("X-Cache"), Some("HIT"), "{io:?}");
            assert_eq!(hit.body, warm[0].body);
        }
        let text = String::from_utf8(answers[N].body.to_vec()).unwrap();
        assert_eq!(
            sample(&text, "pb_proxy_requests_total"),
            2 + N as u64,
            "{io:?}:\n{text}"
        );
        assert_eq!(
            sample(&text, "pb_proxy_affine_hits_total"),
            N as u64,
            "{io:?}"
        );
        assert_eq!(
            sample(
                &text,
                "pb_proxy_outcome_requests_total{outcome=\"fresh_hit\"}"
            ),
            1 + N as u64,
            "{io:?}"
        );

        // The next request upstream, from another connection, reports
        // every hit: one real fetch plus N + 1 reported accesses.
        assert_eq!(origin.access_count(&hot), 1, "{io:?}");
        let mut b = HttpClient::connect(proxy.addr()).unwrap();
        assert_eq!(b.get(&other, &[]).unwrap().status, 200);
        assert_eq!(origin.access_count(&hot), 2 + N as u64, "{io:?}");

        let stats = proxy.stats();
        assert_eq!(stats.requests, 3 + N as u64, "{io:?}");
        assert_eq!(stats.outcomes(), stats.requests, "{io:?}: {stats:?}");
        let text = scrape(proxy.addr());
        assert_eq!(
            sample_sum(&text, "pb_proxy_request_duration_seconds_count"),
            sample(&text, "pb_proxy_requests_total"),
            "{io:?}:\n{text}"
        );
        proxy.stop();
        origin.stop();
    }
    done.store(true, Ordering::SeqCst);
}

/// A modified resource, once refetched, is served from the L1 with its new
/// `Last-Modified`: the head stored in an entry dies with the entry.
#[test]
fn stored_hit_head_never_outlives_its_entry() {
    let done = watchdog(Duration::from_secs(60));
    let mut engines = vec![IoMode::Threaded];
    #[cfg(target_os = "linux")]
    engines.push(IoMode::Reactor { reactors: 1 });
    for io in engines {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let hot = origin.paths[0].clone();
        let mut cfg = ProxyConfig::new(origin.addr());
        cfg.io = io;
        cfg.freshness = DurationMs::from_millis(400);
        let proxy = start_proxy(cfg).unwrap();
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        let mut get = |path: &str| client.get(path, &[]).unwrap();
        let lm = |r: &Response| r.headers.get("Last-Modified").unwrap().to_owned();

        assert_eq!(get(&hot).headers.get("X-Cache"), Some("MISS"));
        let old = get(&hot);
        assert_eq!(old.headers.get("X-Cache"), Some("HIT"), "{io:?}");
        assert_eq!(lm(&get(&hot)), lm(&old), "{io:?}: an L1 hit");
        assert_eq!(get(&format!("/_pb/modify{hot}")).status, 204);
        std::thread::sleep(Duration::from_millis(600));
        let refetched = get(&hot);
        assert_eq!(refetched.headers.get("X-Cache"), Some("MISS"), "{io:?}");
        assert_ne!(lm(&refetched), lm(&old), "{io:?}: the origin's new date");
        for _ in 0..3 {
            let hit = get(&hot);
            assert_eq!(hit.headers.get("X-Cache"), Some("HIT"), "{io:?}");
            assert_eq!(lm(&hit), lm(&refetched), "{io:?}");
        }
        assert!(
            proxy.stats().affine_hits >= 3,
            "{io:?}: {:?}",
            proxy.stats()
        );
        proxy.stop();
        origin.stop();
    }
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

/// The names starting with `prefix` that `docs/PROTOCOL.md` §8
/// documents. A `{a,b}` group inside a name stands for one name per
/// member, as in `pb_proxy_pool_{connects,reuses}_total`; a group with a
/// `=` is a label set and ends the name.
fn documented_families(prefix: &str) -> BTreeSet<String> {
    let doc = include_str!("../docs/PROTOCOL.md");
    let start = doc.find("\n## 8.").expect("§8 exists");
    let len = doc[start..].find("\n## 9.").expect("§9 follows §8");
    let name_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    let mut names = BTreeSet::new();
    for (i, _) in doc[start..start + len].match_indices(prefix) {
        let mut expanded = vec![String::new()];
        let mut rest = &doc[start + i..];
        loop {
            let end = rest.find(|c| !name_char(c)).unwrap_or(rest.len());
            for name in &mut expanded {
                name.push_str(&rest[..end]);
            }
            rest = &rest[end..];
            let Some((group, after)) = rest
                .strip_prefix('{')
                .and_then(|r| r.split_once('}'))
                .filter(|(g, _)| g.chars().all(|c| name_char(c) || c == ','))
            else {
                break;
            };
            expanded = expanded
                .iter()
                .flat_map(|head| group.split(',').map(move |m| format!("{head}{m}")))
                .collect();
            rest = after;
        }
        names.extend(expanded.into_iter().filter(|n| n.len() > prefix.len()));
    }
    names
}

/// Every family starting with `prefix` a scrape declares on a `# TYPE`
/// line.
fn scraped_families(text: &str, prefix: &str) -> BTreeSet<String> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE "))
        .filter_map(|l| l.split(' ').next())
        .filter(|name| name.starts_with(prefix))
        .map(str::to_owned)
        .collect()
}

/// `scraped` equals what §8 documents under `prefix` — the
/// `{prefix}reactor_*` families only where the reactor engine exists.
fn assert_families_documented(scraped: &BTreeSet<String>, prefix: &str) {
    // Off Linux the reactor falls back to the threaded engine, which has
    // no per-shard families.
    let reactor = format!("{prefix}reactor_");
    let documented: BTreeSet<String> = documented_families(prefix)
        .into_iter()
        .filter(|n| cfg!(target_os = "linux") || !n.starts_with(&reactor))
        .collect();
    let undocumented: Vec<_> = scraped.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(scraped).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "scraped but not in docs/PROTOCOL.md §8: {undocumented:?}; \
         in §8 but never scraped: {stale:?}"
    );
}

/// The origin's exposition and its reference agree: with every optional
/// family switched on (probability volumes, online epochs, push) the
/// families the threaded and reactor scrapes declare are exactly the
/// families §8 documents — none undocumented, none documented but gone.
#[test]
fn origin_scrape_families_match_protocol_section_8() {
    let done = watchdog(Duration::from_secs(60));
    let site = OriginConfig::default().site;
    let (table, pages) = Site::generate(&site);
    let (a, b) = (pages.pages[0].resource, pages.pages[1].resource);
    let mut builder =
        ProbabilityVolumesBuilder::new(DurationMs::from_secs(300), 0.1, SamplingMode::Exact);
    for k in 0..10u64 {
        let base = Timestamp::from_secs(k * 10_000);
        builder.observe(SourceId(1), a, base);
        builder.observe(SourceId(1), b, base + DurationMs::from_secs(2));
    }
    let file = std::env::temp_dir().join(format!("pb-audit-vols-{}.txt", std::process::id()));
    write_volumes(
        &builder.build(0.5),
        &table,
        &mut std::fs::File::create(&file).unwrap(),
    )
    .unwrap();

    let mut scraped = BTreeSet::new();
    for io in [IoMode::Threaded, IoMode::Reactor { reactors: 2 }] {
        let origin = start_origin(OriginConfig {
            site: site.clone(),
            volumes: VolumeScheme::ProbabilityFile(file.clone()),
            online_epoch: Some(OnlineEpochConfig {
                epoch: DurationMs::from_secs(60),
                window: DurationMs::from_secs(10),
                threshold: 0.5,
            }),
            push_max: 4,
            io,
            ..Default::default()
        })
        .unwrap();
        let mut client = HttpClient::connect(origin.addr()).unwrap();
        let page = table.path(a).unwrap();
        let resp = client
            .get(page, &[("Piggy-filter", "maxpiggy=5"), ("TE", "chunked")])
            .unwrap();
        assert_eq!(resp.status, 200, "{io:?}");
        scraped.extend(scraped_families(&scrape(origin.addr()), "pb_origin_"));
        origin.stop();
    }
    let _ = std::fs::remove_file(&file);
    assert_families_documented(&scraped, "pb_origin_");
    done.store(true, Ordering::SeqCst);
}

/// The proxy's exposition and its reference agree: with prefetch,
/// streaming and prefix caching, and push acceptance on, the families the
/// threaded and reactor scrapes declare are exactly the `pb_proxy_*`
/// families §8 documents.
#[test]
fn proxy_scrape_families_match_protocol_section_8() {
    let done = watchdog(Duration::from_secs(60));
    let origin = start_origin(OriginConfig {
        push_max: 4,
        ..Default::default()
    })
    .unwrap();
    let page = origin.paths[0].clone();
    let mut scraped = BTreeSet::new();
    for io in [IoMode::Threaded, IoMode::Reactor { reactors: 2 }] {
        let mut cfg = ProxyConfig::new(origin.addr());
        cfg.io = io;
        cfg.prefetch_budget = 4;
        cfg.accept_push = true;
        cfg.stream_threshold = 1;
        cfg.prefix_bytes = 1;
        let proxy = start_proxy(cfg).unwrap();
        let mut client = HttpClient::connect(proxy.addr()).unwrap();
        for _ in 0..2 {
            assert_eq!(client.get(&page, &[]).unwrap().status, 200, "{io:?}");
        }
        scraped.extend(scraped_families(&scrape(proxy.addr()), "pb_proxy_"));
        proxy.stop();
    }
    origin.stop();
    assert_families_documented(&scraped, "pb_proxy_");
    done.store(true, Ordering::SeqCst);
}

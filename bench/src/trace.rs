//! The traced run (`--trace 1`): per-layer attribution from outside.
//!
//! Per engine, in a fresh child:
//!
//! 1. **Untraced pass** — the real chain with no taps; the workload's
//!    serial list runs with one request in flight. Counts are deltas of the
//!    daemons' public handles, a `/__pb/metrics` scrape, `/proc/self/io`
//!    and `getrusage`; CPU is read per request (process and generator
//!    thread) and per daemon (thread names); allocations come from the
//!    counting allocator.
//! 2. **Traced pass** — a second chain with a byte tap on every hop runs
//!    the same list; each tap emits a span per exchange. Self times come
//!    from here, and the two passes' median latencies give the tracing
//!    overhead.
//! 3. **Library loops** ([`crate::layers`]) over the bytes the taps kept.
//!
//! Engine-neutral names are reported by the threaded child only; the
//! reactor child adds `proxyd.reactor.*`.

use crate::chain::{Chain, Engine};
use crate::layers;
use crate::loadgen::{self, SerialSample};
use crate::metrics;
use crate::report::Report;
use crate::run::{ledger_gate, set_up, steps, SpinWatch, Step, Turns};
use crate::stats::{median, percentile};
use crate::sys;
use crate::tap::{self_times, Span};
use crate::workload::{Kind, Plan};
use piggyback_proxyd::{HttpClient, PoolStats, ProxyStats, ShimStats};
use std::io::Write;
use std::time::{Duration, Instant};

/// Where the span files go, relative to the working directory (the root
/// of the checkout when the driver runs the benchmark).
const OUT_DIR: &str = "bench/out";

/// Segments of the end-to-end run the threaded child plays (in that run's
/// order) for the figures only an open loop has.
const OPEN_LOOP_SEGMENTS: usize = 3;

/// Think time between page loads of the serial browsing pass, so
/// speculative fetches have the time a real user would give them.
const SERIAL_THINK: Duration = Duration::from_millis(25);

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn per_k(num: u64, den: u64) -> f64 {
    ratio(num, den) * 1000.0
}

/// One scrape of the proxy's `/__pb/metrics`, as (name-with-labels, value).
fn scrape(chain: &Chain) -> (Vec<(String, f64)>, f64) {
    let start = Instant::now();
    let body = HttpClient::connect(chain.proxy.addr())
        .ok()
        .and_then(|mut c| c.get("/__pb/metrics", &[]).ok())
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let values = body
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect();
    (values, ms)
}

/// Sum of every series of `family` (all label sets) in a scrape.
fn family(scrape: &[(String, f64)], family: &str) -> u64 {
    scrape
        .iter()
        .filter(|(n, _)| n == family || n.strip_prefix(family).is_some_and(|r| r.starts_with('{')))
        .map(|(_, v)| *v)
        .sum::<f64>() as u64
}

/// Everything countable about a chain at one instant.
struct Counters {
    stats: ProxyStats,
    pool: Option<PoolStats>,
    shim: Option<ShimStats>,
    origin_requests: u64,
    origin_bytes: u64,
    origin_pb_requests: u64,
    origin_pb_sent: u64,
    center_requests: u64,
    piggy_cache: (u64, u64),
    piggy_bytes: (u64, u64),
    scrape: Vec<(String, f64)>,
    rw_syscalls: u64,
    ctx_switches: u64,
    groups: sys::GroupCpu,
}

impl Counters {
    fn read(chain: &Chain) -> Counters {
        let (origin_requests, origin_bytes) = chain.origin.requests_and_bytes();
        let (origin_pb_requests, origin_pb_sent, piggy_cache) = match &chain.origin {
            crate::chain::OriginEnd::Site(h) => {
                let s = h.stats();
                let c = h.cache_stats().map_or((0, 0), |c| (c.hits, c.misses));
                (s.requests, s.piggybacks_sent, c)
            }
            crate::chain::OriginEnd::Stub(_) => (0, 0, (0, 0)),
        };
        let pb = chain.proxy.obs().piggyback_bytes.snapshot();
        Counters {
            // The scrape goes first: it is itself a request to the proxy
            // (answered before the request counters, so the ledger does
            // not see it), and everything below is read after it.
            scrape: scrape(chain).0,
            stats: chain.proxy.stats(),
            pool: chain.proxy.pool_stats(),
            shim: chain.center.shim_stats(),
            origin_requests,
            origin_bytes,
            origin_pb_requests,
            origin_pb_sent,
            center_requests: chain.center.daemon_stats().requests,
            piggy_cache,
            piggy_bytes: (pb.sum, pb.count()),
            rw_syscalls: sys::rw_syscalls(),
            ctx_switches: sys::context_switches(),
            groups: sys::group_cpu(),
        }
    }
}

fn serial_pass(chain: &Chain, plan: &Plan, report: &mut Report, what: &str) -> Vec<SerialSample> {
    let (samples, first_failure) = loadgen::run_serial(
        chain.client_addr,
        plan,
        &plan.serial,
        (&plan.serial_pauses, SERIAL_THINK),
        chain.taps.as_deref(),
    );
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    report.tally(what, samples.len() as u64, failed, first_failure.as_deref());
    samples
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn median_of(samples: &[SerialSample], pick: impl Fn(&SerialSample) -> Option<f64>) -> f64 {
    median(&samples.iter().filter_map(pick).collect::<Vec<_>>())
}

/// The traced run of one engine.
pub fn traced(
    kind: Kind,
    engine: Engine,
    seed: u64,
    seconds: f64,
    turns: &mut Turns,
) -> std::io::Result<Report> {
    // One turn for the whole traced run: the engines run one after the
    // other (nothing here is bounded, so nothing needs interleaving).
    turns.wait();
    let mut report = Report::default();
    let layer = engine.layer();
    let neutral = engine == Engine::Threaded;
    let plan = Plan::build(kind, seed, seconds);
    report.note(format!(
        "{}: inputs fingerprint {:016x}",
        engine.name(),
        plan.fingerprint()
    ));

    // ---- Pass 1: untraced ------------------------------------------------
    let chain = set_up(&plan, engine, false, &mut report)?;
    let mut spin = SpinWatch::start();
    let mut ledger = chain.proxy.stats();

    // The open-loop figures that only an open loop has: how late the
    // generator ran, and the tail it measured.
    if neutral {
        // The first few segments of the end-to-end run, in its order.
        let mut lag_ms = Vec::new();
        let mut lat_ms: Vec<f64> = Vec::new();
        for k in 0..OPEN_LOOP_SEGMENTS {
            for step in steps(&plan, k) {
                // Closed-loop and one-in-flight segments are not measured
                // here, but they are part of the sequence.
                let out = step.play(&chain, &plan, k, &mut ledger, &mut report)?;
                lag_ms.extend(&out.lag_ms);
                // A closed loop has no schedule to be late for; browsing's
                // tail is the page-load tail.
                if matches!(step, Step::Paced(_) | Step::Browsing(_)) {
                    lat_ms.extend(out.lat_ms.iter().flatten());
                }
            }
        }
        spin.again("across the open-loop segments", &mut report);
        report.put("loadgen.sched_lag_p99_ms", percentile(&lag_ms, 0.99), "ms");
        report.put("loadgen.lat_p99_ms", percentile(&lat_ms, 0.99), "ms");
    }

    let before = Counters::read(&chain);
    let samples = serial_pass(&chain, &plan, &mut report, "serial (untraced)");
    ledger_gate(
        &chain,
        &ledger,
        Some(samples.len() as u64),
        "serial (untraced)",
        &mut report,
    );
    let after = Counters::read(&chain);
    spin.again("across the untraced serial pass", &mut report);
    let scrape_ms = median(&(0..5).map(|_| scrape(&chain).1).collect::<Vec<_>>());
    chain.stop();

    let ops: Vec<&SerialSample> = samples.iter().filter(|s| s.ok && !s.control).collect();
    let n_ops = ops.len() as u64;
    let n_all = samples.len() as u64;
    let untraced_p50 = median(&ops.iter().map(|s| s.lat_ns as f64).collect::<Vec<_>>());
    let d = |f: fn(&ProxyStats) -> u64| f(&after.stats) - f(&before.stats);
    let requests = d(|s| s.requests);
    let groups = after.groups.since(&before.groups);
    let origin_reqs = after.origin_requests - before.origin_requests;
    let center_reqs = after.center_requests - before.center_requests;
    let origin_cpu_us = us(ratio(groups.origin_ns, origin_reqs));
    let center_cpu_us = us(ratio(groups.center_ns, center_reqs));
    // Upstream exchanges a miss-class request causes, on average.
    let misses = ops.iter().filter(|s| !s.class.is_hit()).count() as u64;
    let exchanges_per_miss = ratio(center_reqs, misses.max(1));

    // Engine-specific figures.
    let chain_cpu = |s: &SerialSample| us((s.cpu_ns.saturating_sub(s.own_cpu_ns)) as f64);
    let hit = |s: &SerialSample| s.ok && !s.control && s.class.is_hit();
    let miss = |s: &SerialSample| s.ok && !s.control && !s.class.is_hit();
    report.put(
        format!("{layer}.hit_cpu_us_per_req"),
        median_of(&samples, |s| hit(s).then(|| chain_cpu(s))),
        "us",
    );
    let miss_cpu = median_of(&samples, |s| miss(s).then(|| chain_cpu(s)));
    report.put(
        format!("{layer}.miss_self_cpu_us_per_req"),
        if misses == 0 {
            0.0
        } else {
            (miss_cpu - exchanges_per_miss * (center_cpu_us + origin_cpu_us)).max(0.0)
        },
        "us",
    );
    report.put(
        format!("{layer}.allocs_per_hit"),
        median_of(&samples, |s| hit(s).then_some(s.allocs as f64)),
        "count",
    );
    report.put(
        format!("{layer}.allocs_per_miss"),
        median_of(&samples, |s| miss(s).then_some(s.allocs as f64)),
        "count",
    );
    report.put(
        format!("{layer}.rw_syscalls_per_req"),
        ratio(after.rw_syscalls - before.rw_syscalls, n_all),
        "count",
    );
    report.put(
        format!("{layer}.ctx_switches_per_req"),
        ratio(after.ctx_switches - before.ctx_switches, n_all),
        "count",
    );
    report.put(
        format!("{layer}.upstream_retries_per_kreq"),
        per_k(d(|s| s.upstream_retries), requests),
        "count",
    );
    report.put(
        format!("{layer}.upstream_errors"),
        d(|s| s.upstream_errors) as f64,
        "count",
    );
    let mean_allocs = ratio(samples.iter().map(|s| s.allocs).sum(), n_all);
    report.note(format!(
        "{}: untraced serial pass: {n_ops} ops ({misses} went upstream), p50 {:.1} us, \
         mean allocations/request {mean_allocs:.2}",
        engine.name(),
        us(untraced_p50)
    ));

    if engine == Engine::Reactor {
        let fam = |name: &str| family(&after.scrape, name) - family(&before.scrape, name);
        let (dials, reuses) = (
            fam("pb_proxy_reactor_upstream_dials_total"),
            fam("pb_proxy_reactor_upstream_reuses_total"),
        );
        report.put(
            "proxyd.reactor.wakeups_per_req",
            ratio(fam("pb_proxy_reactor_wakeups_total"), requests),
            "count",
        );
        report.put(
            "proxyd.reactor.upstream_reuse_ratio",
            ratio(reuses, dials + reuses),
            "ratio",
        );
        report.put(
            "proxyd.reactor.affine_hit_ratio",
            ratio(d(|s| s.affine_hits), d(|s| s.fresh_hits)),
            "ratio",
        );
        report.put(
            "proxyd.reactor.offloads",
            fam("pb_proxy_reactor_offloads_total") as f64,
            "count",
        );
        report.put(
            "proxyd.reactor.relay_paused_per_kreq",
            per_k(fam("pb_proxy_reactor_relay_paused_total"), requests),
            "count",
        );
    }

    if neutral {
        engine_neutral_counts(&before, &after, n_all, &mut report);
        report.put("proxyd.origin.cpu_us_per_req", origin_cpu_us, "us");
        report.put(
            "proxyd.volume_center.self_cpu_us_per_req",
            center_cpu_us,
            "us",
        );
        report.put(
            "loadgen.cpu_us_per_req",
            us(ratio(samples.iter().map(|s| s.own_cpu_ns).sum(), n_all)),
            "us",
        );
        report.put("proxyd.obs.scrape_ms", scrape_ms, "ms");
        report.put("trace.site_generate_ms", plan.site_generate_ms, "ms");
        report.put(
            "trace.requests_generate_ms",
            plan.requests_generate_ms,
            "ms",
        );
    }

    // ---- Pass 2: traced ---------------------------------------------------
    let chain = set_up(&plan, engine, true, &mut report)?;
    let taps = chain.taps.clone().expect("a traced chain has taps");
    let ledger = chain.proxy.stats();
    taps.set_recording(true);
    let traced_samples = serial_pass(&chain, &plan, &mut report, "serial (traced)");
    ledger_gate(
        &chain,
        &ledger,
        Some(traced_samples.len() as u64),
        "serial (traced)",
        &mut report,
    );
    // Let exchanges still on the wire (speculative fetches) close.
    std::thread::sleep(Duration::from_millis(50));
    taps.set_recording(false);
    spin.again("across the traced serial pass", &mut report);
    let spans = taps.take_spans();
    let captures = taps.take_captures();
    chain.stop();
    write_spans(kind, engine, &spans, &mut report)?;

    let self_ns = self_times(&spans);
    let self_p50_us = |keep: &dyn Fn(&Span) -> bool| {
        us(median(
            &spans
                .iter()
                .filter(|s| keep(s))
                .map(|s| self_ns[&s.id] as f64)
                .collect::<Vec<_>>(),
        ))
    };
    let content = |s: &Span| s.status == 200;
    report.put(
        format!("{layer}.hit_self_p50_us"),
        self_p50_us(&|s| s.name == layer && content(s) && s.class == "HIT"),
        "us",
    );
    report.put(
        format!("{layer}.miss_self_p50_us"),
        self_p50_us(&|s| s.name == layer && content(s) && s.class != "HIT"),
        "us",
    );
    if neutral {
        report.put(
            "proxyd.volume_center.self_p50_us",
            self_p50_us(&|s| s.name == "proxyd.volume_center"),
            "us",
        );
        report.put(
            "proxyd.origin.direct_p50_us",
            us(median(
                &spans
                    .iter()
                    .filter(|s| s.name == "proxyd.origin")
                    .map(|s| s.duration_ns() as f64)
                    .collect::<Vec<_>>(),
            )),
            "us",
        );
        let traced_p50 = median_of(&traced_samples, |s| {
            (s.ok && !s.control).then_some(s.lat_ns as f64)
        });
        report.put(
            "loadgen.trace_overhead_pct",
            if untraced_p50 > 0.0 {
                (traced_p50 / untraced_p50 - 1.0) * 100.0
            } else {
                0.0
            },
            "%",
        );
        layers::measure(&plan, &captures, &mut report);
        report.put("loadgen.host_spin_drift_pct", spin.worst_pct, "%");
    }
    Ok(report)
}

/// Counts that do not depend on which engine served them, as deltas over
/// the untraced serial pass.
fn engine_neutral_counts(before: &Counters, after: &Counters, sent: u64, report: &mut Report) {
    let d = |f: fn(&ProxyStats) -> u64| f(&after.stats) - f(&before.stats);
    let requests = d(|s| s.requests);
    let fam = |name: &str| family(&after.scrape, name) - family(&before.scrape, name);

    report.put(
        "core.piggy_cache_hit_ratio",
        ratio(
            after.piggy_cache.0 - before.piggy_cache.0,
            (after.piggy_cache.0 + after.piggy_cache.1)
                - (before.piggy_cache.0 + before.piggy_cache.1),
        ),
        "ratio",
    );
    report.put(
        "core.piggyback_elements_per_msg",
        ratio(d(|s| s.piggybacked_elements), d(|s| s.piggyback_messages)),
        "count",
    );
    report.put(
        "core.piggyback_bytes_per_msg",
        ratio(
            after.piggy_bytes.0 - before.piggy_bytes.0,
            after.piggy_bytes.1 - before.piggy_bytes.1,
        ),
        "bytes",
    );
    report.put(
        "webcache.hit_ratio",
        ratio(d(|s| s.cache_hits), requests),
        "ratio",
    );
    report.put(
        "webcache.evictions_per_kreq",
        per_k(fam("pb_proxy_cache_shard_evictions_total"), requests),
        "count",
    );
    report.put(
        "webcache.prefix_hit_ratio",
        ratio(d(|s| s.prefix_hits), requests),
        "ratio",
    );
    let origin_reqs = after.origin_requests - before.origin_requests;
    report.put(
        "proxyd.origin.piggybacks_sent_ratio",
        ratio(
            after.origin_pb_sent - before.origin_pb_sent,
            after.origin_pb_requests - before.origin_pb_requests,
        ),
        "ratio",
    );
    report.put(
        "proxyd.origin.bytes_sent_per_req",
        ratio(after.origin_bytes - before.origin_bytes, origin_reqs),
        "bytes",
    );
    let shim = |f: fn(&ShimStats) -> u64| match (&before.shim, &after.shim) {
        (Some(b), Some(a)) => f(a) - f(b),
        _ => 0,
    };
    report.put(
        "proxyd.netem.delay_ms_per_exchange",
        ratio(shim(|s| s.delay_us), shim(|s| s.exchanges)) / 1e3,
        "ms",
    );
    report.put(
        "proxyd.netem.exchanges_per_req",
        ratio(shim(|s| s.exchanges), sent),
        "ratio",
    );
    report.put(
        "proxyd.netem.failures",
        shim(|s| s.failures) as f64,
        "count",
    );
    let pool = |f: fn(&PoolStats) -> u64| match (&before.pool, &after.pool) {
        (Some(b), Some(a)) => f(a) - f(b),
        _ => 0,
    };
    report.put(
        "proxyd.client.pool_reuse_ratio",
        ratio(
            pool(|p| p.reuses),
            pool(|p| p.reuses) + pool(|p| p.connects),
        ),
        "ratio",
    );
    report.put(
        "proxyd.client.pool_dials",
        pool(|p| p.connects) as f64,
        "count",
    );
    report.put(
        "proxyd.prefetch.issued_per_kreq",
        per_k(d(|s| s.prefetch_issued), requests),
        "count",
    );
    report.put(
        "proxyd.prefetch.used_ratio",
        ratio(d(|s| s.prefetch_used), d(|s| s.prefetch_issued)),
        "ratio",
    );
    report.put(
        "proxyd.prefetch.wasted_bytes_ratio",
        ratio(
            d(|s| s.prefetch_wasted_bytes),
            d(|s| s.prefetch_fetched_bytes),
        ),
        "ratio",
    );
    report.put(
        "proxyd.prefetch.cancelled_per_kreq",
        per_k(d(|s| s.prefetch_cancelled), requests),
        "count",
    );
    report.put(
        "proxyd.prefetch.inflight_at_end",
        after.stats.prefetch_inflight as f64,
        "count",
    );
    report.put(
        "proxyd.stats.fresh_hit_ratio",
        ratio(d(|s| s.fresh_hits), requests),
        "ratio",
    );
    report.put(
        "proxyd.stats.validation_ratio",
        ratio(d(|s| s.validations), requests),
        "ratio",
    );
    report.put(
        "proxyd.stats.full_fetch_ratio",
        ratio(d(|s| s.full_fetches), requests),
        "ratio",
    );
    report.put(
        "proxyd.stats.streamed_miss_ratio",
        ratio(d(|s| s.streamed_misses), requests),
        "ratio",
    );
    report.put(
        "proxyd.stats.origin_bytes_per_req",
        ratio(d(|s| s.bytes_from_origin), requests),
        "bytes",
    );
    report.put(
        "proxyd.stats.piggyback_freshens_per_kreq",
        per_k(d(|s| s.piggyback_freshens), requests),
        "count",
    );
    report.put(
        "proxyd.stats.piggyback_invalidations_per_kreq",
        per_k(d(|s| s.piggyback_invalidations), requests),
        "count",
    );
}

/// One JSON object per line: name, start, end, parent, request id and
/// what passed. Kept in memory during the run, written here at its end.
fn write_spans(
    kind: Kind,
    engine: Engine,
    spans: &[Span],
    report: &mut Report,
) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/trace-{}-{}.jsonl", kind.name(), engine.name());
    let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(w, "{}", s.to_json())?;
    }
    w.flush()?;
    report.note(format!(
        "{}: {} spans written to {path}",
        engine.name(),
        spans.len()
    ));
    Ok(())
}

/// The traced run's result: the threaded child's figures plus the reactor
/// child's `proxyd.reactor.*`, in the order of `BENCHMARK.json`.
pub fn merge(threaded: &Report, reactor: &Report) -> Report {
    let mut out = Report::default();
    for (name, unit, _) in metrics::per_layer_all() {
        for child in [threaded, reactor] {
            if let Some(v) = child.get(&name) {
                out.put(name.clone(), v, unit);
                break;
            }
        }
    }
    for child in [threaded, reactor] {
        out.attempted += child.attempted;
        out.failed += child.failed;
        out.notes.extend(child.notes.iter().cloned());
    }
    out
}

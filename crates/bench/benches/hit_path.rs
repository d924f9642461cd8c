//! Micro-benchmark for the proxy's hit path, socket included: one
//! loopback connection kept 16 requests deep with browser-shaped GETs for
//! one cached page, on each I/O engine. Every request after the warm-up
//! is an affine L1 hit, so a batch measures parsing, the hit itself, the
//! per-batch fold of its accounting and the socket reads and writes —
//! client side included, on the same machine. Throughput is per request.
//!
//! ```bash
//! cargo bench -p piggyback-bench --bench hit_path
//! ```

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use piggyback_bench::{browser_get, PipelinedClient};
use piggyback_core::types::DurationMs;
use piggyback_proxyd::{start_origin, start_proxy, IoMode, OriginConfig, ProxyConfig};

/// Requests in flight on the connection.
const DEPTH: usize = 16;

fn bench_hit_path(c: &mut Criterion) {
    let origin = start_origin(OriginConfig::default()).expect("origin starts");
    let get = browser_get(&origin.paths[0]);
    let batch = get.repeat(DEPTH);
    let mut group = c.benchmark_group("hit_path");
    group.throughput(Throughput::Elements(DEPTH as u64));
    for (name, io) in [
        ("threaded", IoMode::Threaded),
        ("reactor", IoMode::Reactor { reactors: 1 }),
    ] {
        let mut cfg = ProxyConfig::new(origin.addr());
        cfg.io = io;
        cfg.freshness = DurationMs::from_secs(3600);
        let proxy = start_proxy(cfg).expect("proxy starts");
        let mut client = PipelinedClient::connect(proxy.addr()).expect("connect");
        // The miss, then the locked hit that fills the connection's L1.
        client.check_hit = false;
        client.run_batch(get.as_bytes(), 1);
        client.check_hit = true;
        client.run_batch(get.as_bytes(), 1);
        group.bench_function(&format!("pipelined_{DEPTH}_{name}"), |b| {
            b.iter(|| client.run_batch(batch.as_bytes(), DEPTH))
        });
        let stats = proxy.stats();
        assert_eq!(stats.outcomes(), stats.requests, "{stats:?}");
        proxy.stop();
    }
    group.finish();
    origin.stop();
}

criterion_group!(benches, bench_hit_path);
criterion_main!(benches);

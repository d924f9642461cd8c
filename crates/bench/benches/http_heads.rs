//! Micro-benchmarks for HTTP heads on the proxy's hit path: parsing the
//! benchmark's browser-shaped GET, parsing a pb-origin response head,
//! serializing a hit-shaped response, and encoding an RFC 1123 date.

use criterion::{criterion_group, criterion_main, Criterion};
use piggyback_core::datetime::{Rfc1123, DEFAULT_TRACE_EPOCH_UNIX};
use piggyback_httpwire::{ConnScratch, Request, Response};
use std::hint::black_box;

/// The GET `pb-chain-bench` sends (`bench/src/workload.rs`).
const BROWSER_GET: &[u8] = b"GET /site/page17.html HTTP/1.1\r\n\
    Host: bench.piggyback.test\r\n\
    User-Agent: Mozilla/5.0 (X11; Linux x86_64) pb-chain-bench/0.1\r\n\
    Accept: text/html,application/xhtml+xml,image/gif,image/jpeg,*/*;q=0.8\r\n\
    Accept-Language: en-US,en;q=0.5\r\n\
    Connection: keep-alive\r\n\r\n";

fn bench_heads(c: &mut Criterion) {
    let date = Rfc1123(DEFAULT_TRACE_EPOCH_UNIX + 86_400 * 45 + 31_777);

    // The head pb-origin frames a piggybacked page with.
    let mut origin = Response::new(200);
    origin.headers.insert("Last-Modified", &date.to_string());
    origin.headers.insert("Content-Type", "text/html");
    origin
        .trailers
        .insert("P-volume", "7; \"/a.html\" 886000000 1024");
    let mut wire = Vec::new();
    origin.write(&mut wire).unwrap();
    let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
    let origin_head = &wire[..head_end];

    // A hit as the proxy answers it.
    let mut hit = Response::new(200);
    hit.headers.insert("Last-Modified", &date.to_string());
    hit.headers.insert("X-Cache", "HIT");
    hit.body = vec![b'x'; 2048].into();

    let mut group = c.benchmark_group("http_heads");
    group.sample_size(50);
    let mut req = Request::empty();
    let mut scratch = ConnScratch::new();
    group.bench_function("request_read_into_browser_get", |b| {
        b.iter(|| {
            req.read_into(&mut black_box(BROWSER_GET), &mut scratch)
                .unwrap();
            black_box(req.headers.len())
        })
    });
    group.bench_function("response_read_head_origin", |b| {
        b.iter(|| black_box(Response::read_head(&mut black_box(origin_head)).unwrap()))
    });
    group.bench_function("response_write_with_hit", |b| {
        b.iter(|| {
            black_box(&hit)
                .write_with(&mut std::io::sink(), &mut scratch)
                .unwrap()
        })
    });
    let mut out = Vec::with_capacity(64);
    group.bench_function("rfc1123_encode", |b| {
        b.iter(|| {
            out.clear();
            black_box(date).encode(&mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_heads);
criterion_main!(benches);

//! Micro-benchmarks for the `P-volume` encode path and its memo cache —
//! the pieces the lock-free origin composes on its serving hot path.
//!
//! `encode_p_volume` is what an uncached origin pays per request (after
//! an equally per-request element selection); the `PiggybackCache`
//! benches show what the origin pays with the cache: a sub-microsecond
//! probe on a hit, and the full compute only on the first request after a
//! generation bump.

use criterion::{criterion_group, criterion_main, Criterion};
use piggyback_core::element::{PiggybackElement, PiggybackMessage};
use piggyback_core::filter::ProxyFilter;
use piggyback_core::piggy_cache::PiggybackCache;
use piggyback_core::table::ResourceTable;
use piggyback_core::types::{ContentType, Timestamp, VolumeId};
use piggyback_core::wire::{encode_p_volume, encode_p_volume_into};
use std::hint::black_box;
use std::sync::Arc;

/// A table plus a message with `n` elements over realistic-looking paths.
fn message_of(n: usize) -> (ResourceTable, PiggybackMessage) {
    let mut table = ResourceTable::new();
    let mut msg = PiggybackMessage::new(VolumeId(7));
    for i in 0..n {
        let path = format!("/dir{:02}/page{:04}/img{:03}.gif", i % 8, i, i % 5);
        let size = 128 + (i as u64 * 977) % 20_000;
        let lm = Timestamp::from_secs(885_945_600 + i as u64 * 3600);
        let id = table.register(&path, size, lm, ContentType::Image);
        msg.elements.push(PiggybackElement {
            resource: id,
            size,
            last_modified: lm,
        });
    }
    (table, msg)
}

fn bench_encode(c: &mut Criterion) {
    for n in [10usize, 30] {
        let (table, msg) = message_of(n);
        c.bench_function(&format!("encode_p_volume_{n}"), |b| {
            b.iter(|| {
                let s = encode_p_volume(black_box(&msg), &table).expect("known resources");
                black_box(s.len())
            })
        });
    }

    // The allocation-free variant the hot path prefers: one buffer reused
    // across requests, truncated back to its mark each time.
    let (table, msg) = message_of(30);
    c.bench_function("encode_p_volume_into_reuse_30", |b| {
        let mut buf = String::with_capacity(4096);
        b.iter(|| {
            buf.clear();
            encode_p_volume_into(black_box(&msg), &table, &mut buf).expect("known resources");
            black_box(buf.len())
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    let (table, msg) = message_of(30);
    let encoded: Arc<str> = encode_p_volume(&msg, &table)
        .expect("known resources")
        .into();
    let filter = ProxyFilter::builder().max_piggy(250).build();

    // Steady state: every probe after the first hits.
    let cache = PiggybackCache::new();
    cache.get_or_insert_with(VolumeId(7), &filter, 1, || {
        Some((Arc::clone(&encoded), msg.len() as u64))
    });
    c.bench_function("piggyback_cache_hit", |b| {
        b.iter(|| {
            let got = cache.get_or_insert_with(black_box(VolumeId(7)), &filter, 1, || {
                unreachable!("warmed entry must hit")
            });
            black_box(got.expect("cached encoding").1)
        })
    });

    // Cold probe after a generation bump (a `/_pb/modify` or epoch swap):
    // the miss path pays the lookup, the compute, and the insert. The
    // compute here is an Arc clone so the bench isolates cache overhead
    // from encode cost (measured separately above).
    c.bench_function("piggyback_cache_miss_insert", |b| {
        let cache = PiggybackCache::new();
        let mut generation = 0u64;
        b.iter(|| {
            generation += 1;
            let got = cache.get_or_insert_with(VolumeId(7), &filter, generation, || {
                Some((Arc::clone(&encoded), msg.len() as u64))
            });
            black_box(got.expect("computed encoding").1)
        })
    });

    // End-to-end comparison cell: miss that actually re-encodes, i.e. what
    // one request costs right after invalidation.
    c.bench_function("piggyback_cache_miss_encode_30", |b| {
        let cache = PiggybackCache::new();
        let mut generation = 0u64;
        b.iter(|| {
            generation += 1;
            let got = cache.get_or_insert_with(VolumeId(7), &filter, generation, || {
                let s = encode_p_volume(&msg, &table).expect("known resources");
                Some((s.into(), msg.len() as u64))
            });
            black_box(got.expect("computed encoding").1)
        })
    });
}

criterion_group!(benches, bench_encode, bench_cache);
criterion_main!(benches);

//! Micro-benchmarks for per-request piggyback generation — the operation
//! on the server's critical path (it must not delay responses) — and for
//! the `P-volume` encoding the origin runs on every piggyback it sends.

use criterion::{criterion_group, criterion_main, Criterion};
use piggyback_bench::{build_probability_volumes, load_server_log};
use piggyback_core::element::{PiggybackElement, PiggybackMessage};
use piggyback_core::filter::ProxyFilter;
use piggyback_core::table::ResourceTable;
use piggyback_core::types::{ContentType, Timestamp, VolumeId};
use piggyback_core::volume::{DirectoryVolumes, VolumeProvider};
use piggyback_core::wire::{encode_p_volume, encode_p_volume_into};
use std::hint::black_box;

fn bench_generation(c: &mut Criterion) {
    std::env::set_var("PB_SCALE", "0.2");
    let log = load_server_log("aiusa");
    let mut table = log.table.clone();
    for e in &log.entries {
        table.count_access(e.resource);
    }

    // Warm directory volumes.
    let mut dir = DirectoryVolumes::new(1);
    for (id, path, _) in table.iter() {
        dir.assign(id, path);
    }
    for e in &log.entries {
        dir.record_access(e.resource, e.client, e.time, &table);
    }
    let (prob, _) = build_probability_volumes(&log, 0.1);

    let requests: Vec<_> = log.entries.iter().take(1000).map(|e| e.resource).collect();
    let filter = ProxyFilter::builder().max_piggy(10).build();
    let now = Timestamp::from_secs(1_000_000);

    c.bench_function("directory_piggyback_1k", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for &r in &requests {
                if let Some(m) = dir.piggyback(r, &filter, now, &table) {
                    n += m.len();
                }
            }
            black_box(n)
        })
    });
    c.bench_function("probability_piggyback_1k", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for &r in &requests {
                if let Some(m) = prob.piggyback(r, &filter, now, &table) {
                    n += m.len();
                }
            }
            black_box(n)
        })
    });
}

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

criterion_group!(benches, bench_generation, bench_encode);
criterion_main!(benches);

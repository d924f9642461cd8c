//! Library layers, timed from outside: bytes the taps captured on the wire
//! are fed to the public functions of `httpwire`, `core`, `webcache` and
//! `proxyd::obs` in timed loops under the counting allocator. No daemon
//! runs while these do, so a figure here is the layer's own cost on this
//! workload's messages — the self-time share an optimisation can save.
//!
//! A layer the workload never exercises (no such bytes crossed a tap)
//! reports 0: flat by construction, as the interaction table predicts.

use crate::alloc;
use crate::report::Report;
use crate::stats::median;
use crate::tap::{Captures, Hop};
use crate::workload::{OriginSpec, Plan};
use piggyback_core::filter::{ProxyFilter, PIGGY_FILTER_HEADER};
use piggyback_core::proxy::classify_element;
use piggyback_core::rpv::RpvTable;
use piggyback_core::server::PiggybackServer;
use piggyback_core::table::ResourceTable;
use piggyback_core::types::{DurationMs, ResourceId, SourceId, Timestamp, VolumeId};
use piggyback_core::volume::DirectoryVolumes;
use piggyback_core::wire::{
    decode_p_volume, encode_p_volume, intern_wire_piggyback, WirePiggyback, P_VOLUME_HEADER,
};
use piggyback_httpwire::{
    read_chunked_into, write_chunked, Body, BodyReader, BodyWriter, ConnScratch, HeaderMap,
    Request, Response,
};
use piggyback_proxyd::LatencyHistogram;
use piggyback_webcache::{CacheEntry, PolicyKind, ShardedBodyStore, ShardedCache};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time spent on each loop.
const LOOP_BUDGET: Duration = Duration::from_millis(40);
const BATCHES: usize = 8;

/// Run `pass` (which performs `ops` operations per call) repeatedly for
/// [`LOOP_BUDGET`], in [`BATCHES`] batches; returns the median batch's
/// nanoseconds per operation and the steady-state allocations per
/// operation. One untimed call first warms buffers.
fn time_loop(ops: usize, mut pass: impl FnMut()) -> (f64, f64) {
    if ops == 0 {
        return (0.0, 0.0);
    }
    pass();
    let mut per_op = Vec::with_capacity(BATCHES);
    let mut allocs = 0u64;
    let mut calls = 0u64;
    for _ in 0..BATCHES {
        let start = Instant::now();
        let a0 = alloc::count();
        let mut n = 0u64;
        while start.elapsed() < LOOP_BUDGET / BATCHES as u32 || n == 0 {
            pass();
            n += 1;
        }
        per_op.push(start.elapsed().as_nanos() as f64 / (n * ops as u64) as f64);
        allocs += alloc::count() - a0;
        calls += n;
    }
    (median(&per_op), allocs as f64 / (calls * ops as u64) as f64)
}

fn head_end(message: &[u8]) -> usize {
    message
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(message.len(), |i| i + 4)
}

fn header_values<'a>(messages: &'a [Vec<u8>], name: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    for m in messages {
        // Trailers ride after the body, so look at every line of the
        // message that parses as text; bodies are synthetic and never
        // contain a header name at a line start.
        for line in m.split(|&b| b == b'\n') {
            let Some(colon) = line.iter().position(|&b| b == b':') else {
                continue;
            };
            if line[..colon].eq_ignore_ascii_case(name.as_bytes()) {
                if let Ok(v) = std::str::from_utf8(&line[colon + 1..]) {
                    out.push(v.trim());
                }
            }
        }
    }
    out
}

/// All library-layer figures for one workload.
pub fn measure(plan: &Plan, caps: &Captures, report: &mut Report) {
    let empty = Vec::new();
    let client_requests = caps.requests.get(&Hop::ClientToProxy).unwrap_or(&empty);
    let client_responses = caps.responses.get(&Hop::ClientToProxy).unwrap_or(&empty);
    let upstream_requests = caps.requests.get(&Hop::ProxyToCenter).unwrap_or(&empty);
    let upstream_responses = caps.responses.get(&Hop::ProxyToCenter).unwrap_or(&empty);
    httpwire(
        client_requests,
        client_responses,
        upstream_requests,
        upstream_responses,
        report,
    );
    core(plan, upstream_requests, upstream_responses, report);
    webcache(plan, report);

    let hist = LatencyHistogram::new();
    let mut v = 1u64;
    let (ns, _) = time_loop(64, || {
        for _ in 0..64 {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            hist.record_value(v >> 44);
        }
    });
    black_box(hist.snapshot());
    report.put("proxyd.obs.histogram_record_ns", ns, "ns");
}

fn httpwire(
    client_requests: &[Vec<u8>],
    client_responses: &[Vec<u8>],
    upstream_requests: &[Vec<u8>],
    upstream_responses: &[Vec<u8>],
    report: &mut Report,
) {
    let mut scratch = ConnScratch::new();

    // Requests as the proxy reads them from a client.
    let mut req = Request::empty();
    let (ns, allocs) = time_loop(client_requests.len(), || {
        for wire in client_requests {
            req.read_into(&mut wire.as_slice(), &mut scratch)
                .expect("captured client request parses");
            black_box(&req);
        }
    });
    report.put("httpwire.request_read_ns", ns, "ns");
    report.put("httpwire.request_read_allocs", allocs, "count");

    // Responses as the proxy writes them to a client.
    let parsed: Vec<Response> = client_responses
        .iter()
        .filter_map(|w| Response::read(&mut w.as_slice(), false).ok())
        .collect();
    let (ns, allocs) = time_loop(parsed.len(), || {
        for resp in &parsed {
            resp.write_with(&mut std::io::sink(), &mut scratch)
                .expect("sink never fails");
        }
    });
    report.put("httpwire.response_write_ns", ns, "ns");
    report.put("httpwire.response_write_allocs", allocs, "count");

    // Requests as the proxy writes them upstream.
    let parsed: Vec<Request> = upstream_requests
        .iter()
        .filter_map(|w| Request::read(&mut w.as_slice()).ok())
        .collect();
    let (ns, _) = time_loop(parsed.len(), || {
        for r in &parsed {
            r.write_with(&mut std::io::sink(), &mut scratch)
                .expect("sink never fails");
        }
    });
    report.put("httpwire.request_write_ns", ns, "ns");

    // Responses as the proxy reads them from upstream.
    let (ns, _) = time_loop(upstream_responses.len(), || {
        for wire in upstream_responses {
            black_box(
                Response::read(&mut wire.as_slice(), false)
                    .expect("captured upstream response parses"),
            );
        }
    });
    report.put("httpwire.response_read_ns", ns, "ns");

    // Chunked coding, per KiB of payload, over the chunked upstream bodies.
    let chunked: Vec<&[u8]> = upstream_responses
        .iter()
        .filter(|w| {
            let head = &w[..head_end(w)];
            head.windows(7).any(|x| x.eq_ignore_ascii_case(b"chunked"))
                && !head.starts_with(b"HTTP/1.1 304")
        })
        .map(|w| &w[head_end(w)..])
        .collect();
    let mut decoded: Vec<(Vec<u8>, HeaderMap)> = Vec::new();
    let (mut body, mut trailers, mut line) = (Vec::new(), HeaderMap::new(), Vec::new());
    for raw in &chunked {
        if read_chunked_into(&mut &raw[..], &mut body, &mut trailers, &mut line).is_ok() {
            decoded.push((body.clone(), trailers.clone()));
        }
    }
    let kib = decoded.iter().map(|d| d.0.len()).sum::<usize>() as f64 / 1024.0;
    let (ns, _) = time_loop(chunked.len(), || {
        for raw in &chunked {
            read_chunked_into(&mut &raw[..], &mut body, &mut trailers, &mut line)
                .expect("captured chunked body decodes");
        }
    });
    let per_kib = |ns_per_op: f64, ops: usize| {
        if kib > 0.0 {
            ns_per_op * ops as f64 / kib
        } else {
            0.0
        }
    };
    report.put(
        "httpwire.chunked_read_ns_per_kib",
        per_kib(ns, chunked.len()),
        "ns",
    );
    let mut sink = Vec::new();
    let (ns, _) = time_loop(decoded.len(), || {
        for (b, t) in &decoded {
            sink.clear();
            write_chunked(&mut sink, b, t, 8 * 1024).expect("vec never fails");
        }
    });
    report.put(
        "httpwire.chunked_write_ns_per_kib",
        per_kib(ns, decoded.len()),
        "ns",
    );

    // The streaming relay step: pull a segment, push it on.
    struct Relay<'a> {
        raw: &'a [u8],
        chunked: bool,
        len: usize,
    }
    let relays: Vec<Relay> = upstream_responses
        .iter()
        .filter_map(|w| {
            let resp = Response::read(&mut w.as_slice(), false).ok()?;
            (resp.status == 200 && !resp.body.is_empty()).then(|| Relay {
                raw: &w[head_end(w)..],
                chunked: resp.headers.list_contains("Transfer-Encoding", "chunked"),
                len: resp.body.len(),
            })
        })
        .collect();
    let relay_kib = relays.iter().map(|r| r.len).sum::<usize>() as f64 / 1024.0;
    let mut seg = Vec::new();
    let (ns, _) = time_loop(relays.len(), || {
        for r in &relays {
            let (mut reader, mut writer) = if r.chunked {
                (BodyReader::chunked(), BodyWriter::chunked())
            } else {
                (BodyReader::length(r.len), BodyWriter::length(r.len))
            };
            let mut src = r.raw;
            let mut out = std::io::sink();
            while !reader.is_done() {
                match reader.read_segment(&mut src, &mut seg, 16 * 1024) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => writer.push(&seg, &mut out).expect("sink never fails"),
                }
            }
            writer
                .finish(&HeaderMap::new(), &mut out)
                .expect("sink never fails");
        }
    });
    let relay = if relay_kib > 0.0 {
        ns * relays.len() as f64 / relay_kib
    } else {
        0.0
    };
    report.put("httpwire.stream_relay_ns_per_kib", relay, "ns");
}

fn core(
    plan: &Plan,
    upstream_requests: &[Vec<u8>],
    upstream_responses: &[Vec<u8>],
    report: &mut Report,
) {
    // Filters as the proxy sent them.
    let filter_values = header_values(upstream_requests, PIGGY_FILTER_HEADER);
    let (ns, _) = time_loop(filter_values.len(), || {
        for v in &filter_values {
            black_box(ProxyFilter::parse(v).expect("captured filter parses"));
        }
    });
    report.put("core.filter_parse_ns", ns, "ns");
    let filters: Vec<ProxyFilter> = filter_values
        .iter()
        .filter_map(|v| ProxyFilter::parse(v).ok())
        .collect();
    let (ns, _) = time_loop(filters.len(), || {
        for f in &filters {
            black_box(f.to_header_value());
        }
    });
    report.put("core.filter_encode_ns", ns, "ns");

    // Piggybacks as the origin sent them.
    let pv_values = header_values(upstream_responses, P_VOLUME_HEADER);
    let (ns, _) = time_loop(pv_values.len(), || {
        for v in &pv_values {
            black_box(decode_p_volume(v).expect("captured P-volume decodes"));
        }
    });
    report.put("core.pvolume_decode_ns", ns, "ns");
    let wires: Vec<WirePiggyback> = pv_values
        .iter()
        .filter_map(|v| decode_p_volume(v).ok())
        .collect();
    let mut table = ResourceTable::new();
    let messages: Vec<_> = wires
        .iter()
        .map(|w| intern_wire_piggyback(w, &mut table))
        .collect();
    let (ns, _) = time_loop(messages.len(), || {
        for m in &messages {
            black_box(encode_p_volume(m, &table).expect("interned message encodes"));
        }
    });
    report.put("core.pvolume_encode_ns", ns, "ns");

    // One element against a cached copy, as the proxy classifies it.
    let elements: Vec<Timestamp> = wires
        .iter()
        .flat_map(|w| w.elements.iter().map(|e| e.last_modified))
        .collect();
    let (ns, _) = time_loop(elements.len(), || {
        for (i, &lm) in elements.iter().enumerate() {
            let cached = (i % 3 != 0).then_some(Timestamp(lm.0.saturating_sub((i % 2) as u64)));
            black_box(classify_element(black_box(cached), black_box(lm)));
        }
    });
    report.put("core.classify_element_ns", ns, "ns");

    // Piggyback construction at the server, over the workload's own site.
    let server_ns = match &plan.chain.origin {
        OriginSpec::Stub(_) => 0.0,
        OriginSpec::Site(_) => {
            let mut server = PiggybackServer::new(DirectoryVolumes::new(1));
            let ids: Vec<ResourceId> = plan
                .resources
                .iter()
                .filter(|r| r.status == 200)
                .map(|r| server.register_path(&r.path, r.len, Timestamp::ZERO))
                .collect();
            for (i, &r) in ids.iter().enumerate() {
                server.record_access(r, SourceId(1), Timestamp(i as u64));
            }
            let filter = filters
                .first()
                .cloned()
                .unwrap_or_else(|| ProxyFilter::builder().max_piggy(10).build());
            // No RPV: every call builds a message.
            let filter = ProxyFilter {
                rpv: Vec::new(),
                ..filter
            };
            let now = Timestamp(ids.len() as u64);
            let sample: Vec<ResourceId> = ids.iter().copied().step_by(ids.len() / 64 + 1).collect();
            time_loop(sample.len(), || {
                for &r in &sample {
                    black_box(server.piggyback(r, &filter, now));
                }
            })
            .0
        }
    };
    report.put("core.server_piggyback_ns", server_ns, "ns");

    // RPV bookkeeping at the proxy: one record per piggyback received.
    let mut rpv: RpvTable<u32> = RpvTable::new(256, 16, DurationMs::from_secs(30));
    let mut tick = 0u64;
    let (ns, _) = time_loop(64, || {
        for i in 0..64u32 {
            tick += 1;
            rpv.record(&(i % 4), VolumeId(i % 24), Timestamp(tick));
        }
    });
    report.put("core.rpv_record_ns", ns, "ns");
}

fn webcache(plan: &Plan, report: &mut Report) {
    // A cache holding the workload's own resources (or as many as fit),
    // sharded and sized the way the workload's proxy is.
    let mut cfg = piggyback_proxyd::ProxyConfig::new(([127, 0, 0, 1], 1).into());
    (plan.chain.proxy)(&mut cfg);
    let shards = 8;
    let now = Timestamp(1_000);
    let far = Timestamp(u64::MAX / 2);
    let content: Vec<(ResourceId, u64)> = plan
        .resources
        .iter()
        .enumerate()
        .filter(|(_, r)| r.status == 200)
        .map(|(i, r)| (ResourceId(i as u32), r.len))
        .collect();
    let entry = |size: u64| CacheEntry {
        size,
        last_modified: Timestamp::ZERO,
        expires: far,
        prefetched: false,
        used: true,
    };
    let small: Vec<(ResourceId, u64)> = content
        .iter()
        .copied()
        .filter(|&(_, len)| len < cfg.stream_threshold as u64)
        .collect();

    let cache = ShardedCache::new(cfg.capacity_bytes, shards, PolicyKind::Lru);
    let bodies = ShardedBodyStore::with_prefix_budget(shards, cfg.capacity_bytes / 8);
    let payload = Body::from(vec![0x5au8; 4 * 1024]);
    for &(r, len) in &small {
        cache.insert(r, entry(len), now);
        bodies.insert(r, payload.slice(..(len as usize).min(payload.len())));
    }
    let probe: Vec<ResourceId> = small
        .iter()
        .map(|p| p.0)
        .step_by(small.len() / 256 + 1)
        .collect();
    let (ns, _) = time_loop(probe.len(), || {
        for &r in &probe {
            black_box(cache.lookup(r, now));
        }
    });
    report.put("webcache.lookup_ns", ns, "ns");
    let (ns, _) = time_loop(probe.len(), || {
        for &r in &probe {
            black_box(bodies.get(r));
        }
    });
    report.put("webcache.body_get_ns", ns, "ns");
    let (ns, _) = time_loop(probe.len(), || {
        for &r in &probe {
            black_box(cache.freshen(r, far));
        }
    });
    report.put("webcache.freshen_ns", ns, "ns");

    // Insert into a full cache: every insert evicts. Ids rotate through a
    // range far larger than the cache holds.
    let size = small.first().map_or(2_048, |p| p.1.max(1));
    let full = ShardedCache::new(64 * size, shards, PolicyKind::Lru);
    let mut next = 0u32;
    let (ns, _) = time_loop(64, || {
        for _ in 0..64 {
            next = (next + 1) % 100_000;
            black_box(full.insert_accounted(ResourceId(next), entry(size), now));
        }
    });
    report.put("webcache.insert_evict_ns", ns, "ns");
    let store = ShardedBodyStore::new(shards);
    let body = payload.slice(..(size as usize).min(payload.len()));
    let (ns, _) = time_loop(64, || {
        for i in 0..64u32 {
            store.insert(ResourceId(i), body.clone());
        }
        for i in 0..64u32 {
            store.remove(ResourceId(i));
        }
    });
    // One insert and the remove that keeps the store bounded.
    report.put("webcache.body_insert_ns", ns, "ns");

    // Prefix entries for the large objects (none on small-object sites).
    let large: Vec<(ResourceId, u64)> = content
        .iter()
        .copied()
        .filter(|&(_, len)| len >= cfg.stream_threshold as u64)
        .collect();
    let head = vec![0xa5u8; cfg.prefix_bytes.max(1)];
    let prefixes = ShardedBodyStore::with_prefix_budget(shards, u64::MAX / 2);
    for &(r, len) in &large {
        prefixes.insert(r, Body::prefix(head.clone(), len as usize));
    }
    let (ns, _) = time_loop(large.len(), || {
        for &(r, _) in &large {
            black_box(prefixes.get_prefix(r));
        }
    });
    report.put("webcache.prefix_get_ns", ns, "ns");
}

//! One proxy policy, run two ways. A seeded request-and-modify sequence runs
//! through the replay (`webcache::simulate_proxy`) and through the live
//! proxy's service (`ProxyHandle::service`) in virtual time, and after
//! every step both must hold the same counters: they are the decision log.
//! The live proxy's origin is scripted, a `PiggybackServer` over the same
//! log and modifications that answers each upstream plan at the stamp it
//! was planned at. No sleep and no origin socket.

use piggyback::core::datetime::{
    format_rfc1123, parse_rfc1123, timestamp_from_unix, unix_from_timestamp,
    DEFAULT_TRACE_EPOCH_UNIX,
};
use piggyback::core::filter::{ProxyFilter, PIGGY_FILTER_HEADER};
use piggyback::core::server::PiggybackServer;
use piggyback::core::types::{DurationMs, ResourceId, SourceId, Timestamp};
use piggyback::core::volume::DirectoryVolumes;
use piggyback::core::wire::{encode_p_volume, P_VOLUME_HEADER};
use piggyback::httpwire::{Body, ConnScratch, Request, Response};
use piggyback::proxyd::lifecycle::UpstreamOutcome;
use piggyback::proxyd::proxy::{start_proxy, ProxyConfig, ProxyStats};
use piggyback::proxyd::service::{Served, Service};
use piggyback::trace::record::{Method, ServerLogEntry};
use piggyback::trace::synth::changes::ChangeEvent;
use piggyback::trace::ServerLog;
use piggyback::webcache::{
    build_server, simulate_proxy, FreshnessPolicy, ProxySimConfig, ProxySimReport,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Δ, and the RPV timeout with it, as `browse_dsl` runs the chain.
const DELTA: DurationMs = DurationMs::from_secs(4);
const RESOURCES: u32 = 12;
const REQUESTS: usize = 60;
const MODIFICATIONS: usize = 15;

/// SplitMix64: the sequence is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Twelve resources in three directories, sixty requests from two clients
/// about 0.7 s apart (ten Δ in all), and fifteen modifications. The
/// modifications fall on whole seconds, because an HTTP date and a
/// `P-volume` element carry `Last-Modified` in seconds.
fn workload(seed: u64) -> (ServerLog, Vec<ChangeEvent>) {
    let mut rng = Rng(seed);
    let mut log = ServerLog {
        name: "parity".into(),
        ..Default::default()
    };
    for i in 0..RESOURCES {
        let path = format!("/d{}/r{i}.html", i % 3);
        log.table
            .register_path(&path, 300 + 97 * u64::from(i), Timestamp::ZERO);
    }
    let mut t = 0;
    for _ in 0..REQUESTS {
        t += 200 + rng.below(1_000);
        let resource = ResourceId(rng.below(RESOURCES.into()) as u32);
        log.entries.push(ServerLogEntry {
            time: Timestamp::from_millis(t),
            client: SourceId(rng.below(2) as u32),
            resource,
            method: Method::Get,
            status: 200,
            bytes: log.table.meta(resource).expect("registered").size,
        });
    }
    let mut changes: Vec<_> = (0..MODIFICATIONS)
        .map(|_| ChangeEvent {
            time: Timestamp::from_secs(1 + rng.below(t / 1_000)),
            resource: ResourceId(rng.below(RESOURCES.into()) as u32),
        })
        .collect();
    changes.sort_by_key(|e| (e.time, e.resource.0));
    (log, changes)
}

/// The scripted origin's answer to one upstream request planned at `now`
/// for `client`: it parses the path, `If-Modified-Since` and
/// `Piggy-filter`, records the access, answers 304 or a 200 with
/// `Last-Modified`, and attaches the piggyback as `P-volume`.
fn answer(
    origin: &mut PiggybackServer<DirectoryVolumes>,
    request: &[u8],
    client: SourceId,
    now: Timestamp,
) -> UpstreamOutcome {
    let req = Request::read(&mut &request[..]).expect("the proxy's request parses");
    let r = origin
        .table()
        .lookup(&req.target)
        .expect("a path of the site");
    origin.record_access(r, client, now);
    let meta = *origin.table().meta(r).expect("registered");
    let since = req.headers.get("If-Modified-Since").map(|d| {
        let unix = parse_rfc1123(d).expect("an HTTP date");
        timestamp_from_unix(unix, DEFAULT_TRACE_EPOCH_UNIX)
    });
    let mut resp = if since.is_some_and(|ims| meta.last_modified <= ims) {
        Response::new(304)
    } else {
        let mut resp = Response::new(200);
        let lm = unix_from_timestamp(meta.last_modified, DEFAULT_TRACE_EPOCH_UNIX);
        resp.headers.insert("Last-Modified", &format_rfc1123(lm));
        resp.body = Body::from(vec![b'x'; meta.size as usize]);
        resp
    };
    let filter = req
        .headers
        .get(PIGGY_FILTER_HEADER)
        .map(|f| ProxyFilter::parse(f).expect("the proxy's filter parses"));
    if let Some(msg) = filter.and_then(|f| origin.piggyback(r, &f, now)) {
        let pv = encode_p_volume(&msg, origin.table()).expect("encodable");
        resp.headers.insert(P_VOLUME_HEADER, &pv);
    }
    UpstreamOutcome::Response(resp)
}

/// The compared counters, named, replay first.
fn counters(sim: &ProxySimReport, live: &ProxyStats) -> [(&'static str, u64, u64); 9] {
    [
        ("fresh_hits", sim.fresh_hits, live.fresh_hits),
        ("cache_hits", sim.cache_hits, live.cache_hits),
        ("validations", sim.validations, live.validations),
        ("not_modified", sim.not_modified, live.not_modified),
        ("full_fetches", sim.full_fetches, live.full_fetches),
        (
            "piggyback_messages",
            sim.piggyback_messages,
            live.piggyback_messages,
        ),
        (
            "piggybacked_elements",
            sim.piggybacked_elements,
            live.piggybacked_elements,
        ),
        (
            "piggyback_freshens",
            sim.piggyback_freshens,
            live.piggyback_freshens,
        ),
        (
            "piggyback_invalidations",
            sim.piggyback_invalidations,
            live.piggyback_invalidations,
        ),
    ]
}

#[test]
fn replay_and_live_proxy_decide_alike() {
    let (log, changes) = workload(45);
    let sim_cfg = ProxySimConfig {
        capacity_bytes: 1 << 20,
        freshness: FreshnessPolicy::Fixed(DELTA),
        filter: ProxyFilter::builder().max_piggy(10).build(),
        rpv: Some((16, DELTA)),
        prefetch: None,
        ..Default::default()
    };
    let mut cfg = ProxyConfig::new("127.0.0.1:1".parse().expect("an address"));
    cfg.freshness = DELTA;
    cfg.filter = sim_cfg.filter.clone();
    cfg.rpv = sim_cfg.rpv;
    cfg.report_hits = false;
    let proxy = start_proxy(cfg).expect("proxy starts");
    let svc = proxy.service();
    // Each client its own connection: its own peer address and context.
    let peers: [SocketAddr; 2] = ["127.0.0.1:40001", "127.0.0.1:40002"].map(|a| a.parse().unwrap());
    let mut ctxs = [svc.make_ctx(), svc.make_ctx()];
    let mut origin = build_server(&log, DirectoryVolumes::new(1));
    let (t0, mut applied) = (Instant::now(), 0);
    for (k, entry) in log.entries.iter().enumerate() {
        let now = entry.time;
        for ev in changes[applied..].iter().take_while(|ev| ev.time <= now) {
            origin.touch_modified(ev.resource, ev.time);
            applied += 1;
        }
        let path = log.table.path(entry.resource).expect("registered");
        let at = t0 + Duration::from_millis(now.as_millis());
        let c = entry.client.0 as usize;
        let (mut out, mut scratch) = (Vec::new(), ConnScratch::new());
        let req = Request::new("GET", path);
        match svc.handle(&req, peers[c], at, &mut ctxs[c], &mut scratch, &mut out) {
            Ok(Served::Inline) => {}
            Ok(Served::Upstream(plan)) => {
                let outcome = answer(&mut origin, &plan.request, entry.client, now);
                svc.settle(plan.job, outcome, at, &mut scratch, &mut out)
                    .expect("settles");
            }
            Ok(Served::Park(_)) => panic!("step {k}: no prefetcher, so no join"),
            Err(e) => panic!("step {k}: {e}"),
        }
        svc.end_batch(&mut ctxs[c]);

        let prefix = ServerLog {
            entries: log.entries[..=k].to_vec(),
            ..log.clone()
        };
        let mut server = build_server(&prefix, DirectoryVolumes::new(1));
        let sim = simulate_proxy(&prefix, &changes, &mut server, &sim_cfg);
        let live = proxy.stats();
        for (name, replay, proxied) in counters(&sim, &live) {
            assert_eq!(
                proxied, replay,
                "step {k} (GET {path} from client {c} at {now}): `{name}` is {proxied} live, \
                 {replay} in the replay"
            );
        }
    }
    let live = proxy.stats();
    assert_eq!(live.outcomes(), live.requests, "conservation");
    assert!(
        live.piggyback_freshens > 0 && live.piggyback_invalidations > 0 && live.not_modified > 0,
        "the sequence exercises every decision: {live:?}"
    );
    proxy.stop();
}

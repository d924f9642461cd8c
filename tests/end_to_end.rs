//! End-to-end integration tests over real loopback TCP: origin ↔ proxy ↔
//! client, and the transparent volume-center chain.

use piggyback::core::intern::directory_prefix;
use piggyback::httpwire::{Request, Response};
use piggyback::proxyd::client::HttpClient;
use piggyback::proxyd::origin::{start_origin, OriginConfig};
use piggyback::proxyd::proxy::{start_proxy, ProxyConfig};
use piggyback::proxyd::util::{serve, synth_body};
use piggyback::proxyd::volume_center::{start_volume_center, VolumeCenterConfig};
use std::io::{BufReader, BufWriter};

/// Two paths from `paths` sharing a 1-level directory prefix.
fn volume_pair(paths: &[String]) -> (String, String) {
    use std::collections::HashMap;
    let mut by_dir: HashMap<&str, Vec<&String>> = HashMap::new();
    for p in paths {
        by_dir.entry(directory_prefix(p, 1)).or_default().push(p);
    }
    let group = by_dir
        .into_values()
        .find(|v| v.len() >= 2)
        .expect("a directory with two resources");
    (group[0].clone(), group[1].clone())
}

#[test]
fn proxy_chain_serves_and_piggybacks() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let proxy = start_proxy(ProxyConfig::new(origin.addr())).unwrap();
    let (a, b) = volume_pair(&origin.paths());

    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    let r1 = client.get(&a, &[]).unwrap();
    assert_eq!(r1.status, 200);
    assert_eq!(r1.headers.get("X-Cache"), Some("MISS"));

    // The response to `b` carries a piggyback naming `a` — which the proxy
    // consumes (it never reaches the client).
    let r2 = client.get(&b, &[]).unwrap();
    assert_eq!(r2.status, 200);
    assert!(r2.trailers.get("P-volume").is_none());

    // `a` is served from the cache.
    let r3 = client.get(&a, &[]).unwrap();
    assert_eq!(r3.headers.get("X-Cache"), Some("HIT"));
    assert_eq!(r3.body, r1.body);

    let stats = proxy.stats();
    assert!(stats.piggyback_messages >= 1);
    assert!(stats.piggybacked_elements >= 1);
    assert_eq!(stats.fresh_hits, 1);

    proxy.stop();
    origin.stop();
}

#[test]
fn piggyback_invalidation_propagates_through_proxy() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let proxy = start_proxy(ProxyConfig::new(origin.addr())).unwrap();
    let (a, b) = volume_pair(&origin.paths());
    let mut client = HttpClient::connect(proxy.addr()).unwrap();

    // Cache both.
    client.get(&a, &[]).unwrap();
    client.get(&b, &[]).unwrap();

    // Modify `a` at the origin.
    let resp = client.get(&format!("/_pb/modify{a}"), &[]).unwrap();
    assert_eq!(resp.status, 204);

    // Find a third path in the same volume whose response will piggyback
    // the fresh Last-Modified of `a`.
    let prefix = directory_prefix(&a, 1).to_owned();
    let third = origin
        .paths()
        .into_iter()
        .find(|p| directory_prefix(p, 1) == prefix && *p != a && *p != b);
    if let Some(third) = third {
        client.get(&third, &[]).unwrap();
        // Piggyback processing may invalidate `a`; the next request for
        // `a` must not serve the stale cached copy as a HIT with the old
        // Last-Modified.
        let stats = proxy.stats();
        if stats.piggyback_invalidations > 0 {
            let r = client.get(&a, &[]).unwrap();
            assert_eq!(
                r.headers.get("X-Cache"),
                Some("MISS"),
                "invalidated entry must be re-fetched"
            );
        }
    }

    proxy.stop();
    origin.stop();
}

#[test]
fn volume_center_chain_end_to_end() {
    // Dumb origin with deterministic bodies.
    let origin = serve(0, "dumb", |stream| {
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        loop {
            let req = match Request::read(&mut r) {
                Ok(q) => q,
                Err(_) => return,
            };
            let keep = req.keep_alive();
            let mut resp = Response::new(200);
            resp.headers
                .insert("Last-Modified", "Wed, 28 Jan 1998 00:00:00 GMT");
            resp.body = synth_body(&req.target, 400).into();
            if resp.write(&mut w).is_err() || !keep {
                return;
            }
        }
    })
    .unwrap();

    let center = start_volume_center(VolumeCenterConfig {
        port: 0,
        origin: origin.addr,
        volume_level: 1,
        shim: None,
        transparent: false,
    })
    .unwrap();
    let proxy = start_proxy(ProxyConfig::new(center.addr())).unwrap();

    let mut client = HttpClient::connect(proxy.addr()).unwrap();
    for p in ["/w/x.html", "/w/y.html", "/w/z.html", "/w/x.html"] {
        let resp = client.get(p, &[]).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, synth_body(p, 400));
    }

    // The center learned the resources and piggybacked for the dumb origin.
    assert_eq!(center.learned_resources(), 3);
    assert!(center.stats().piggybacks_sent >= 1, "{:?}", center.stats());
    assert!(proxy.stats().piggyback_messages >= 1);
    // The repeat of /w/x.html was a proxy cache hit.
    assert_eq!(proxy.stats().fresh_hits, 1);

    proxy.stop();
    center.stop();
    origin.stop();
}

#[test]
fn many_clients_share_one_proxy_cache() {
    let origin = start_origin(OriginConfig::default()).unwrap();
    let proxy = start_proxy(ProxyConfig::new(origin.addr())).unwrap();
    let path = origin.paths()[0].clone();

    // Four clients request the same resource concurrently-ish.
    let mut handles = Vec::new();
    for _ in 0..4 {
        let addr = proxy.addr();
        let p = path.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = HttpClient::connect(addr).unwrap();
            let r = c.get(&p, &[]).unwrap();
            assert_eq!(r.status, 200);
            r.body.len()
        }));
    }
    let lens: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(lens.iter().all(|&l| l == lens[0]));

    let stats = proxy.stats();
    assert_eq!(stats.requests, 4);
    // At least one request actually hit the origin; subsequent ones could
    // race, but the cache must have served *some* of them once warm...
    // deterministically we can only bound:
    assert!(stats.full_fetches >= 1);
    assert!(stats.full_fetches + stats.fresh_hits + stats.validations >= 4);

    proxy.stop();
    origin.stop();
}

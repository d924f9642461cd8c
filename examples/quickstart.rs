//! Quickstart: the full piggyback protocol end-to-end, over real TCP on
//! loopback.
//!
//! Starts a piggybacking origin serving a synthetic site, a caching proxy
//! in front of it, and drives a browsing session through the proxy. Watch
//! the proxy's cache get freshened and invalidated by `P-volume` trailers.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use piggyback::proxyd::client::HttpClient;
use piggyback::proxyd::origin::{start_origin, OriginConfig};
use piggyback::proxyd::proxy::{start_proxy, ProxyConfig};

fn main() {
    // 1. Origin: a synthetic 40-page site with 1-level directory volumes.
    let mut origin_cfg = OriginConfig::default();
    origin_cfg.site.n_pages = 40;
    let origin = start_origin(origin_cfg).expect("origin");
    println!(
        "origin   : {} ({} resources, 1-level directory volumes)",
        origin.addr(),
        origin.paths().len()
    );

    // 2. Proxy: 60 s freshness interval, RPV pacing, maxpiggy=10.
    let proxy = start_proxy(ProxyConfig::new(origin.addr())).expect("proxy");
    println!("proxy    : {} -> {}\n", proxy.addr(), origin.addr());

    // 3. A browsing session: walk a directory of the site twice.
    let mut client = HttpClient::connect(proxy.addr()).expect("client");
    let pages: Vec<String> = origin.paths().into_iter().take(8).collect();

    println!("first pass (cold cache):");
    for p in &pages {
        let resp = client.get(p, &[]).expect("request");
        println!(
            "  GET {p:40} -> {} [{}] {} bytes",
            resp.status,
            resp.headers.get("X-Cache").unwrap_or("-"),
            resp.body.len()
        );
    }

    println!("\nsecond pass (cache + piggyback freshening):");
    for p in &pages {
        let resp = client.get(p, &[]).expect("request");
        println!(
            "  GET {p:40} -> {} [{}]",
            resp.status,
            resp.headers.get("X-Cache").unwrap_or("-")
        );
    }

    // 4. Modify a resource at the origin, touch a volume-mate, and watch
    //    the piggyback invalidate the stale copy.
    let victim = &pages[0];
    let neighbour = &pages[1];
    println!("\nmodifying {victim} at the origin...");
    let resp = client
        .get(&format!("/_pb/modify{victim}"), &[])
        .expect("modify");
    assert_eq!(resp.status, 204);

    // Wait out the proxy's freshness interval is not needed: ask for the
    // *neighbour* with an expired entry... simplest demonstration: force
    // re-validation by requesting the neighbour after its Δ. Here we just
    // re-request the neighbour — if its entry is still fresh the piggyback
    // arrives with the next validation; to make the demo deterministic we
    // request a brand-new resource in the same volume, whose response
    // piggybacks the *new* Last-Modified of the victim.
    let fresh_path = origin
        .paths()
        .iter()
        .find(|p| {
            piggyback::core::intern::directory_prefix(p, 1)
                == piggyback::core::intern::directory_prefix(victim, 1)
                && !pages.contains(p)
        })
        .cloned()
        .unwrap_or_else(|| neighbour.clone());
    println!("requesting {fresh_path} (same volume) to pick up the piggyback...");
    client.get(&fresh_path, &[]).expect("request");

    let stats = proxy.stats();
    println!("\nproxy statistics:");
    println!("  requests               {}", stats.requests);
    println!("  fresh cache hits       {}", stats.fresh_hits);
    println!("  validations sent       {}", stats.validations);
    println!("  piggyback messages     {}", stats.piggyback_messages);
    println!("  piggybacked elements   {}", stats.piggybacked_elements);
    println!("  entries freshened      {}", stats.piggyback_freshens);
    println!("  entries invalidated    {}", stats.piggyback_invalidations);
    assert!(stats.piggyback_messages > 0, "piggybacks must flow");

    let origin_stats = origin.stats();
    println!("\norigin statistics:");
    println!("  requests               {}", origin_stats.requests);
    println!("  piggybacks sent        {}", origin_stats.piggybacks_sent);
    println!(
        "  avg piggyback size     {:.2}",
        origin_stats.avg_piggyback_size()
    );

    proxy.stop();
    origin.stop();
    println!("\ndone.");
}

//! `make-inventory` — record the committed reference inventory, and the
//! CI replay-determinism lane.
//!
//! ```text
//! make-inventory [--out FILE] [--check]
//! ```
//!
//! Without flags, drives a fixed-seed synthetic site through a live origin
//! behind a [`record tap`](piggyback_proxyd::record_tap) and writes the
//! capture to `crates/trace/testdata/reference.inv` (the inventory the
//! determinism tests and `ext-netprofile` replay). With `--check`, no file
//! is written; instead the lane that CI runs:
//!
//! 1. **record** — capture the same site fresh, in-process;
//! 2. **replay** — serve the fresh capture from a replay origin and drive
//!    every path twice (plain, then `If-Modified-Since`), checking each
//!    body byte-for-byte and the full ledger conservation law;
//! 3. **diff** — load the *committed* inventory and verify its paths,
//!    statuses, and body hashes match the fresh recording exactly (wire
//!    timing and piggyback contents are clock-dependent and excluded),
//!    then run the same replay checks against it.
//!
//! Exit status is non-zero on any mismatch, so a stale or corrupted
//! committed inventory fails the lane rather than silently skewing every
//! downstream experiment.

use piggyback_bench::banner;
use piggyback_core::filter::PIGGY_FILTER_HEADER;
use piggyback_proxyd::client::HttpClient;
use piggyback_proxyd::origin::{start_origin, OriginConfig};
use piggyback_proxyd::record_tap::{start_recorder, RecorderConfig};
use piggyback_proxyd::replay_origin::{
    start_replay_origin, ReplayConfig, ReplayTiming, DIVERGENCE_HEADER,
};
use piggyback_trace::inventory::{reference_inventory_path, Inventory};
use piggyback_trace::record::body_hash;
use piggyback_trace::synth::samplers::LogNormal;
use piggyback_trace::synth::site::SiteConfig;
use std::path::PathBuf;
use std::sync::Arc;

/// The reference site: small enough to commit (~50 text-only pages, under
/// 100 KiB on disk), structured enough to exercise piggybacking (8
/// directories of volume-mates). Fixed seed: the page bodies are
/// byte-stable across runs and machines, which is what lets `--check`
/// diff a fresh recording against the committed file.
fn reference_site() -> SiteConfig {
    SiteConfig {
        n_pages: 48,
        n_dirs: 8,
        max_depth: 2,
        images_per_page: (0, 0),
        shared_images: 0,
        links_per_page: (1, 2),
        page_size: LogNormal::new(900.0f64.ln(), 0.3),
        seed: 7,
        ..Default::default()
    }
}

/// Capture the reference site through the record tap: every page fetched
/// once, in sorted path order, over one keep-alive connection, with the
/// filter headers a piggyback-capable proxy would send.
fn record_reference() -> Inventory {
    let origin = start_origin(OriginConfig {
        site: reference_site(),
        ..Default::default()
    })
    .expect("origin starts");
    let rec = start_recorder(RecorderConfig {
        port: 0,
        origin: origin.addr(),
    })
    .expect("record tap starts");

    let mut paths = origin.paths();
    paths.sort();
    let mut client = HttpClient::connect(rec.addr()).expect("connect to tap");
    for path in &paths {
        let resp = client
            .get(
                path,
                &[("TE", "chunked"), (PIGGY_FILTER_HEADER, "maxpiggy=10")],
            )
            .expect("recorded fetch");
        assert_eq!(resp.status, 200, "recording {path}");
    }
    drop(client);

    let inv = rec.finish("reference");
    origin.stop();
    assert_eq!(inv.entries.len(), paths.len(), "one entry per page");
    inv
}

/// Replay `inv` and drive every recorded path twice — a plain GET that
/// must return the recorded body byte-for-byte, then a conditional GET at
/// the recorded `Last-Modified` that must validate — plus one divergence
/// probe. Returns the failures found (empty = the inventory replays
/// deterministically and the ledger conserves).
fn check_replay(inv: &Arc<Inventory>, label: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let replay = start_replay_origin(ReplayConfig {
        port: 0,
        inventory: Arc::clone(inv),
        timing: ReplayTiming::Immediate,
    })
    .expect("replay origin starts");
    let mut client = HttpClient::connect(replay.addr()).expect("connect to replay");

    let paths = inv.paths();
    for path in &paths {
        let entry = inv
            .entries
            .iter()
            .find(|e| e.path == *path && e.status == 200)
            .or_else(|| inv.entries.iter().find(|e| e.path == *path))
            .expect("paths() only lists recorded paths");
        match client.get(path, &[]) {
            Ok(resp) => {
                if resp.status != entry.status {
                    failures.push(format!(
                        "{label}: {path}: replayed status {} != recorded {}",
                        resp.status, entry.status
                    ));
                } else if body_hash(&resp.body) != entry.body_hash() {
                    failures.push(format!("{label}: {path}: replayed body differs"));
                }
            }
            Err(e) => failures.push(format!("{label}: {path}: replay fetch failed: {e}")),
        }
        let Some(lm) = entry.response_header("Last-Modified") else {
            failures.push(format!("{label}: {path}: no recorded Last-Modified"));
            continue;
        };
        let lm = lm.to_owned();
        match client.get(path, &[("If-Modified-Since", &lm)]) {
            Ok(resp) if resp.status == 304 => {}
            Ok(resp) => failures.push(format!(
                "{label}: {path}: IMS at recorded LM got {} (want 304)",
                resp.status
            )),
            Err(e) => failures.push(format!("{label}: {path}: validation failed: {e}")),
        }
    }

    // A request the recording never saw must be a flagged divergence, not
    // an improvised answer.
    match client.get("/__never_recorded__.html", &[]) {
        Ok(resp) => {
            if resp.status != 500 || resp.headers.get(DIVERGENCE_HEADER).is_none() {
                failures.push(format!(
                    "{label}: unrecorded path got {} without {DIVERGENCE_HEADER}",
                    resp.status
                ));
            }
        }
        Err(e) => failures.push(format!("{label}: divergence probe failed: {e}")),
    }

    let s = replay.stats();
    let p = paths.len() as u64;
    let expect = [
        ("requests", s.requests, 2 * p + 1),
        ("served_200", s.served_200, p),
        ("served_304", s.served_304, p),
        ("divergences", s.divergences, 1),
        ("outcomes", s.outcomes(), s.requests),
    ];
    for (name, got, want) in expect {
        if got != want {
            failures.push(format!("{label}: ledger {name} = {got}, want {want}"));
        }
    }
    replay.stop();
    failures
}

/// Diff the committed inventory against a fresh recording of the same
/// site: paths, statuses, and body hashes must agree exactly. Timing
/// fields and piggyback payloads are excluded — both depend on the wall
/// clock at record time.
fn diff_inventories(fresh: &Inventory, committed: &Inventory) -> Vec<String> {
    let mut failures = Vec::new();
    if fresh.entries.len() != committed.entries.len() {
        failures.push(format!(
            "committed inventory has {} entries, fresh recording has {}",
            committed.entries.len(),
            fresh.entries.len()
        ));
        return failures;
    }
    for (f, c) in fresh.entries.iter().zip(&committed.entries) {
        if f.path != c.path {
            failures.push(format!(
                "entry {}: committed path {} != fresh {}",
                c.seq, c.path, f.path
            ));
        } else if f.status != c.status || f.body_hash() != c.body_hash() {
            failures.push(format!(
                "entry {} ({}): committed bytes differ",
                c.seq, c.path
            ));
        }
    }
    failures
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(args.next().expect("--out requires a value"))),
            "--check" => check = true,
            "--help" | "-h" => {
                println!("make-inventory [--out FILE] [--check]");
                return;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(reference_inventory_path);

    banner(
        "make-inventory",
        "record the reference inventory / verify record -> replay determinism",
    );
    let fresh = record_reference();
    println!(
        "recorded {} exchanges ({} bytes of body) from the reference site",
        fresh.entries.len(),
        fresh.entries.iter().map(|e| e.body.len()).sum::<usize>()
    );

    if !check {
        if let Err(e) = fresh.save(&out) {
            eprintln!("could not write {}: {e}", out.display());
            std::process::exit(1);
        }
        println!("wrote {}", out.display());
        return;
    }

    let fresh = Arc::new(fresh);
    let mut failures = check_replay(&fresh, "fresh");
    println!(
        "fresh capture replays deterministically: {}",
        if failures.is_empty() { "yes" } else { "NO" }
    );

    match Inventory::load(&out) {
        Ok(committed) => {
            let committed = Arc::new(committed);
            failures.extend(diff_inventories(&fresh, &committed));
            failures.extend(check_replay(&committed, "committed"));
            println!(
                "committed {} matches the fresh recording and replays: {}",
                out.display(),
                if failures.is_empty() { "yes" } else { "NO" }
            );
        }
        Err(e) => failures.push(format!("could not load committed {}: {e}", out.display())),
    }

    if !failures.is_empty() {
        eprintln!("\n{} check(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("all replay-determinism checks passed");
}

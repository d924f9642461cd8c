//! `pb-record` — capture live proxy↔origin traffic into an inventory.
//!
//! ```text
//! pb-record --origin 127.0.0.1:8080 --out traffic.inv [--port 8084] [--name NAME]
//! ```
//!
//! Point the proxy's `--origin` at this tap instead of the real origin.
//! The tap is the transparent volume center's relay loop (no shim) with a
//! recorder: traffic passes through unmodified — keep-alive, re-dials
//! and `HEAD` included — and every exchange (request line,
//! headers, body, piggyback payload, TTFB and transfer timing) is
//! captured before its response's tail is relayed. Press Enter (or close
//! stdin) to stop recording and write the inventory; replay it with
//! `pb-replay`.

use piggyback_proxyd::record_tap::{start_recorder, RecorderConfig};
use std::net::SocketAddr;
use std::path::PathBuf;

fn main() {
    let mut origin: Option<SocketAddr> = None;
    let mut out: Option<PathBuf> = None;
    let mut port = 8084u16;
    let mut name: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        };
        match arg.as_str() {
            "--origin" => origin = Some(value("--origin").parse().expect("host:port")),
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--port" => port = value("--port").parse().expect("numeric port"),
            "--name" => name = Some(value("--name")),
            "--help" | "-h" => {
                println!("pb-record --origin HOST:PORT --out FILE [--port 8084] [--name NAME]");
                return;
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    let origin = origin.unwrap_or_else(|| {
        eprintln!("--origin is required");
        std::process::exit(2);
    });
    let out = out.unwrap_or_else(|| {
        eprintln!("--out is required");
        std::process::exit(2);
    });
    let name = name.unwrap_or_else(|| {
        out.file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "recording".to_owned())
    });

    let rec = start_recorder(RecorderConfig { port, origin }).expect("failed to start record tap");
    eprintln!(
        "pb-record capturing on {} -> origin {origin}; press Enter to stop and write {}",
        rec.addr(),
        out.display()
    );
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);

    let inventory = rec.finish(&name);
    let entries = inventory.entries.len();
    if let Err(e) = inventory.save(&out) {
        eprintln!("could not write {}: {e}", out.display());
        std::process::exit(1);
    }
    eprintln!("wrote {entries} exchanges to {}", out.display());
}

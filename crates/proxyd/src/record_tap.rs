//! Record mode: the transparent volume center, recording.
//!
//! `pb-record` (and the in-process [`start_recorder`]) is the volume
//! center's own connection loop in transparent mode with no shim
//! ([`crate::volume_center`], PROTOCOL.md §14.1), plus a recorder:
//! requests and responses pass through unmodified on the exchange machine
//! every relay drives — re-dial after a `Connection: close` and `HEAD`
//! included. The loop reads each response whole and records
//! the exchange — request line and headers, response status/headers/body,
//! the `P-volume` piggyback payload, and wire timing (TTFB at the first
//! upstream read, then transfer duration) — into a versioned
//! [`Inventory`] (docs/PROTOCOL.md §11) before the response's tail goes
//! out, so [`RecorderHandle::finish`] never misses an exchange a client
//! has read. Recording does not perturb the traffic beyond its
//! store-and-forward delay.
//!
//! A committed inventory is then re-served deterministically by
//! [`crate::replay_origin`], making latency experiments reproducible from
//! the repo alone.

use crate::volume_center::{start_relay, VolumeCenterConfig, VolumeCenterHandle};
use parking_lot::Mutex;
use piggyback_core::wire::P_VOLUME_HEADER;
use piggyback_httpwire::{HeaderMap, Request, Response};
use piggyback_trace::inventory::Inventory;
use piggyback_trace::record::RecordedExchange;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Record tap configuration.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// 0 picks an ephemeral port.
    pub port: u16,
    /// The live origin whose traffic is being captured.
    pub origin: SocketAddr,
}

/// The capture the relay loop records each exchange into.
pub(crate) struct Recorder {
    t0: Instant,
    entries: Mutex<Vec<RecordedExchange>>,
}

impl Recorder {
    /// Record one exchange: `req` as parsed, `resp` read whole, the
    /// exchange started at `start`, its first upstream read at `first` and
    /// its outcome at `done`. Entries take their `seq` in capture order
    /// across connections.
    pub(crate) fn record(
        &self,
        req: &Request,
        resp: &Response,
        start: Instant,
        first: Instant,
        done: Instant,
    ) {
        let piggyback = resp
            .trailers
            .get(P_VOLUME_HEADER)
            .or_else(|| resp.headers.get(P_VOLUME_HEADER))
            .map(str::to_owned);
        let entry = RecordedExchange {
            seq: 0, // assigned under the lock below
            method: req.method.clone(),
            path: req.target.clone(),
            status: resp.status,
            chunked: resp.is_chunked(),
            start_us: start.duration_since(self.t0).as_micros() as u64,
            ttfb_us: first.duration_since(start).as_micros() as u64,
            transfer_us: done.duration_since(first).as_micros() as u64,
            request_headers: captured_headers(&req.headers, false),
            response_headers: captured_headers(&resp.headers, true),
            piggyback,
            body: resp.body.to_vec(),
        };
        let mut entries = self.entries.lock();
        let seq = entries.len() as u32;
        entries.push(RecordedExchange { seq, ..entry });
    }
}

/// A running record tap.
pub struct RecorderHandle {
    center: VolumeCenterHandle,
    recorder: Arc<Recorder>,
}

impl RecorderHandle {
    pub fn addr(&self) -> SocketAddr {
        self.center.addr()
    }

    /// Exchanges captured so far.
    pub fn recorded(&self) -> usize {
        self.recorder.entries.lock().len()
    }

    /// Stop the relay and package the capture as an inventory named
    /// `name`. Entries are in global capture order across connections.
    pub fn finish(self, name: &str) -> Inventory {
        self.center.stop();
        let entries = std::mem::take(&mut *self.recorder.entries.lock());
        Inventory {
            name: name.to_owned(),
            entries,
        }
    }
}

/// Start the record tap relay.
pub fn start_recorder(cfg: RecorderConfig) -> io::Result<RecorderHandle> {
    let recorder = Arc::new(Recorder {
        t0: Instant::now(),
        entries: Mutex::new(Vec::new()),
    });
    let center = start_relay(
        VolumeCenterConfig {
            port: cfg.port,
            origin: cfg.origin,
            volume_level: 1,
            shim: None,
            transparent: true,
        },
        Some(Arc::clone(&recorder)),
    )?;
    Ok(RecorderHandle { center, recorder })
}

/// Headers the replay origin recomputes (framing) or that are hop-by-hop;
/// excluded from the recorded response headers.
fn is_unrecorded_header(name: &str) -> bool {
    name.eq_ignore_ascii_case("Content-Length")
        || name.eq_ignore_ascii_case("Transfer-Encoding")
        || name.eq_ignore_ascii_case("Trailer")
        || name.eq_ignore_ascii_case("Connection")
}

fn captured_headers(map: &HeaderMap, skip_framing: bool) -> Vec<(String, String)> {
    map.iter()
        .filter(|(n, _)| !(skip_framing && is_unrecorded_header(n)))
        .filter(|(n, _)| !n.eq_ignore_ascii_case(P_VOLUME_HEADER))
        .map(|(n, v)| (n.to_owned(), v.to_owned()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::origin::{start_origin, OriginConfig};
    use piggyback_core::filter::PIGGY_FILTER_HEADER;
    use std::io::{BufReader, BufWriter};
    use std::net::TcpStream;

    /// Recording a live origin captures bodies, piggybacks, and timing,
    /// and relays the traffic unmodified.
    #[test]
    fn records_live_exchanges_transparently() {
        let origin = start_origin(OriginConfig::default()).unwrap();
        let rec = start_recorder(RecorderConfig {
            port: 0,
            origin: origin.addr(),
        })
        .unwrap();
        let paths: Vec<String> = origin.paths().into_iter().take(4).collect();

        let stream = TcpStream::connect(rec.addr()).unwrap();
        let mut r = BufReader::new(stream.try_clone().unwrap());
        let mut w = BufWriter::new(stream);
        for path in &paths {
            let mut req = Request::new("GET", path);
            req.headers.insert("Host", "t");
            req.headers.insert("TE", "chunked");
            req.headers.insert(PIGGY_FILTER_HEADER, "maxpiggy=10");
            req.write(&mut w).unwrap();
            let resp = Response::read(&mut r, false).unwrap();
            assert_eq!(resp.status, 200);
        }
        drop((r, w));

        let inv = rec.finish("test");
        origin.stop();
        assert_eq!(inv.entries.len(), paths.len());
        for (i, e) in inv.entries.iter().enumerate() {
            assert_eq!(e.seq as usize, i);
            assert_eq!(e.path, paths[i]);
            assert_eq!(e.status, 200);
            assert!(!e.body.is_empty());
            // The origin chunk-encodes exactly when it attaches a trailer
            // piggyback; the recorded framing flag must agree.
            assert_eq!(e.chunked, e.piggyback.is_some(), "{}", e.path);
            assert!(e.response_header("Last-Modified").is_some());
            // Framing headers are recomputed on replay, never recorded.
            assert!(e.response_header("Transfer-Encoding").is_none());
            assert!(e.response_header("Content-Length").is_none());
            assert!(e.transfer_us <= 10_000_000, "sane transfer time");
        }
        // Volume-mates share directories in the synthetic site, so at
        // least one later exchange should carry a piggyback... but only
        // when the site groups these first paths. Assert the weaker,
        // always-true property: any recorded pv is non-empty.
        for e in &inv.entries {
            if let Some(pv) = &e.piggyback {
                assert!(!pv.is_empty());
            }
        }
        // The capture round-trips through the on-disk format.
        let text = inv.to_text();
        assert_eq!(Inventory::parse(&text).unwrap(), inv);
    }
}

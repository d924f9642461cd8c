//! Starting and stopping the real chain in-process — client → proxy →
//! volume center → origin — through the daemons' public handles, with the
//! byte taps of a traced run interposed on each hop.

use crate::tap::{Hop, Tap, TapShared};
use crate::wire::{frame_request, offers_chunked};
use crate::workload::{ChainSpec, OriginSpec, StubObjects};
use piggyback_proxyd::{
    start_origin, start_proxy, start_volume_center, IoMode, OriginConfig, OriginHandle,
    ProxyConfig, ProxyHandle, VolumeCenterConfig, VolumeCenterHandle,
};
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Which proxy I/O engine a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Threaded,
    Reactor,
}

impl Engine {
    pub const BOTH: [Engine; 2] = [Engine::Threaded, Engine::Reactor];

    pub fn name(self) -> &'static str {
        match self {
            Engine::Threaded => "threaded",
            Engine::Reactor => "reactor",
        }
    }

    /// The layer name the engine's metrics and spans go under
    /// (`proxyd::proxy` is the blocking driver, `proxyd::reactor` the
    /// epoll one).
    pub fn layer(self) -> &'static str {
        match self {
            Engine::Threaded => "proxyd.proxy",
            Engine::Reactor => "proxyd.reactor",
        }
    }

    pub fn parse(s: &str) -> Option<Engine> {
        Engine::BOTH.into_iter().find(|e| e.name() == s)
    }

    fn io_mode(self) -> IoMode {
        match self {
            Engine::Threaded => IoMode::Threaded,
            // One shard: the process is pinned to one CPU.
            Engine::Reactor => IoMode::Reactor { reactors: 1 },
        }
    }
}

pub enum OriginEnd {
    Site(OriginHandle),
    Stub(StubOrigin),
}

impl OriginEnd {
    fn addr(&self) -> SocketAddr {
        match self {
            OriginEnd::Site(h) => h.addr(),
            OriginEnd::Stub(s) => s.addr,
        }
    }

    /// Requests the origin parsed and body bytes it sent.
    pub fn requests_and_bytes(&self) -> (u64, u64) {
        match self {
            OriginEnd::Site(h) => {
                let d = h.daemon_stats();
                (d.requests, d.bytes_sent)
            }
            OriginEnd::Stub(s) => (
                s.requests.load(Ordering::Relaxed),
                s.bytes_sent.load(Ordering::Relaxed),
            ),
        }
    }
}

/// A running chain. `client_addr` is where the generator connects: the
/// proxy itself, or the first tap of a traced run.
pub struct Chain {
    pub origin: OriginEnd,
    pub center: VolumeCenterHandle,
    pub proxy: ProxyHandle,
    pub taps: Option<Arc<TapShared>>,
    tap_handles: Vec<Tap>,
    pub client_addr: SocketAddr,
}

impl Chain {
    /// Start origin, volume center and proxy (and, for a traced run, a tap
    /// in front of each) on ephemeral loopback ports.
    pub fn start(spec: &ChainSpec, engine: Engine, traced: bool) -> io::Result<Chain> {
        let taps = traced.then(|| Arc::new(TapShared::new(engine)));
        let mut tap_handles = Vec::new();
        let mut hop = |upstream: SocketAddr, hop: Hop| -> io::Result<SocketAddr> {
            match &taps {
                None => Ok(upstream),
                Some(shared) => {
                    let tap = Tap::start(Arc::clone(shared), hop, upstream)?;
                    let addr = tap.addr;
                    tap_handles.push(tap);
                    Ok(addr)
                }
            }
        };

        let origin = match &spec.origin {
            OriginSpec::Site(site) => OriginEnd::Site(start_origin(OriginConfig {
                site: site.clone(),
                io: engine.io_mode(),
                ..Default::default()
            })?),
            OriginSpec::Stub(objects) => OriginEnd::Stub(StubOrigin::start(Arc::clone(objects))?),
        };
        let center = start_volume_center(VolumeCenterConfig {
            port: 0,
            origin: hop(origin.addr(), Hop::CenterToOrigin)?,
            volume_level: 1,
            shim: spec.shim.clone(),
            // The origin piggybacks for itself; the center conditions the
            // link and relays.
            transparent: true,
        })?;
        let mut cfg = ProxyConfig::new(hop(center.addr(), Hop::ProxyToCenter)?);
        (spec.proxy)(&mut cfg);
        cfg.io = engine.io_mode();
        let proxy = start_proxy(cfg)?;
        let client_addr = hop(proxy.addr(), Hop::ClientToProxy)?;
        Ok(Chain {
            origin,
            center,
            proxy,
            taps,
            tap_handles,
            client_addr,
        })
    }

    pub fn stop(self) {
        for tap in self.tap_handles {
            tap.stop();
        }
        self.proxy.stop();
        self.center.stop();
        match self.origin {
            OriginEnd::Site(h) => h.stop(),
            OriginEnd::Stub(s) => s.stop(),
        }
    }
}

/// The benchmark-owned large-object origin. `pb-origin` caps bodies at
/// 256 KiB, so objects up to 4 MiB need their own server: a blocking
/// thread per connection that answers `GET <path>` with a window of the
/// shared pattern buffer — chunk-encoded (16 KiB chunks) when the object
/// is a chunked one *and* the request offers `TE: chunked`, as `pb-origin`
/// only chunks for a peer that asked; length-framed otherwise. (The proxy
/// validates a cached prefix by refetching with a plain GET and expects a
/// `Content-Length` back: an origin that chunked unconditionally would
/// make every prefix hit on the threaded engine a truncated response.)
/// Threads are named `origin-stub-…` so CPU attribution by thread name
/// files them under the origin.
pub struct StubOrigin {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: std::thread::JoinHandle<()>,
    pub requests: Arc<AtomicU64>,
    pub bytes_sent: Arc<AtomicU64>,
}

const STUB_CHUNK: usize = 16 * 1024;

impl StubOrigin {
    fn start(objects: Arc<StubObjects>) -> io::Result<StubOrigin> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let requests = Arc::new(AtomicU64::new(0));
        let bytes_sent = Arc::new(AtomicU64::new(0));
        let (stop2, req2, bytes2) = (
            Arc::clone(&stop),
            Arc::clone(&requests),
            Arc::clone(&bytes_sent),
        );
        let accept = std::thread::Builder::new()
            .name("origin-stub-accept".into())
            .spawn(move || {
                for (n, conn) in listener.incoming().enumerate() {
                    if stop2.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let (objects, req, bytes) =
                        (Arc::clone(&objects), Arc::clone(&req2), Arc::clone(&bytes2));
                    // Detached like the daemons' workers: a connection
                    // thread ends when its peer closes.
                    let _ = std::thread::Builder::new()
                        .name(format!("origin-stub-{n}"))
                        .spawn(move || {
                            let _ = stub_connection(stream, &objects, &req, &bytes);
                        });
                }
            })?;
        Ok(StubOrigin {
            addr,
            stop,
            accept,
            requests,
            bytes_sent,
        })
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
    }
}

fn stub_connection(
    stream: TcpStream,
    objects: &StubObjects,
    requests: &AtomicU64,
    bytes_sent: &AtomicU64,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = stream.try_clone()?;
    let mut w = BufWriter::with_capacity(64 * 1024, stream);
    let mut buf = vec![0u8; 16 * 1024];
    let mut have = 0usize;
    loop {
        let framed = frame_request(&buf[..have])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.0))?;
        let Some((used, target)) = framed else {
            if have == buf.len() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "request too large",
                ));
            }
            let n = reader.read(&mut buf[have..])?;
            if n == 0 {
                return Ok(());
            }
            have += n;
            continue;
        };
        requests.fetch_add(1, Ordering::Relaxed);
        match objects.objects.iter().position(|o| o.path == target) {
            None => w.write_all(b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n")?,
            Some(i) => {
                let body = objects.body(i);
                bytes_sent.fetch_add(body.len() as u64, Ordering::Relaxed);
                const HEAD: &str = "HTTP/1.1 200 OK\r\n\
                                    Last-Modified: Thu, 01 Jan 1998 00:00:00 GMT\r\n\
                                    Content-Type: application/octet-stream\r\n";
                if objects.objects[i].chunked && offers_chunked(&buf[..used]) {
                    write!(w, "{HEAD}Transfer-Encoding: chunked\r\n\r\n")?;
                    for chunk in body.chunks(STUB_CHUNK) {
                        write!(w, "{:x}\r\n", chunk.len())?;
                        w.write_all(chunk)?;
                        w.write_all(b"\r\n")?;
                    }
                    w.write_all(b"0\r\n\r\n")?;
                } else {
                    write!(w, "{HEAD}Content-Length: {}\r\n\r\n", body.len())?;
                    w.write_all(body)?;
                }
            }
        }
        w.flush()?;
        buf.copy_within(used..have, 0);
        have -= used;
    }
}

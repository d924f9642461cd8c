//! Regression test for the accept loop's fd-exhaustion backoff: when
//! `accept()` hits EMFILE the server must count the failure, back off
//! instead of spinning or dying, and serve the queued connection as soon
//! as a descriptor frees up.
//!
//! The test lowers the soft RLIMIT_NOFILE and fills the process fd table
//! with ballast until EMFILE. Its two client sockets are created before
//! that and connected after, which takes no descriptor (the kernel
//! completes the handshake from the listen backlog without an accept).
//! One kernel detail bounds what the exhausted loop can still take: an
//! `accept()` blocked waiting for a connection has already reserved the
//! lowest free descriptor — absent from `/proc/self/fd`, yet skipped by
//! every `open()` — and the first connection to arrive is accepted into
//! it. So at most one of the two connections is accepted while the table
//! is full; the other must wait in the backlog while the loop backs off.
//! It lives in its own test binary because the rlimit and a full fd table
//! are process-wide state no concurrently running test could survive.

#![cfg(target_os = "linux")]

use piggyback_proxyd::{nofile_limits, serve_with, set_nofile_soft, ServeOptions};
use std::fs::File;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::{AsRawFd, FromRawFd};
use std::time::{Duration, Instant};

const RESPONSE: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";

/// Restores the original soft limit even if the test panics mid-ballast.
struct LimitGuard(u64);

impl Drop for LimitGuard {
    fn drop(&mut self) {
        let _ = set_nofile_soft(self.0);
    }
}

fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd").unwrap().count() as u64
}

/// The two calls std has no split for: a TCP socket made now, connected
/// later.
mod sys {
    pub const AF_INET: i32 = 2;
    pub const SOCK_STREAM: i32 = 1;
    pub const SOCK_CLOEXEC: i32 = 0x80000;

    #[repr(C)]
    pub struct SockAddrIn {
        pub family: u16,
        /// Network byte order.
        pub port: u16,
        /// Network byte order.
        pub addr: u32,
        pub zero: [u8; 8],
    }

    extern "C" {
        pub fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        pub fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    }
}

/// A TCP socket whose descriptor is taken now and whose connection is
/// made later by [`connect`].
fn unconnected_socket() -> TcpStream {
    let fd = unsafe { sys::socket(sys::AF_INET, sys::SOCK_STREAM | sys::SOCK_CLOEXEC, 0) };
    assert!(fd >= 0, "socket: {}", std::io::Error::last_os_error());
    unsafe { TcpStream::from_raw_fd(fd) }
}

fn connect(stream: &TcpStream, addr: SocketAddr) {
    let SocketAddr::V4(v4) = addr else {
        panic!("the server listens on IPv4 loopback")
    };
    let sa = sys::SockAddrIn {
        family: sys::AF_INET as u16,
        port: v4.port().to_be(),
        addr: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    let len = std::mem::size_of::<sys::SockAddrIn>() as u32;
    let rc = unsafe { sys::connect(stream.as_raw_fd(), &sa, len) };
    assert_eq!(
        rc,
        0,
        "handshake completes from the backlog: {}",
        std::io::Error::last_os_error()
    );
}

#[test]
fn accept_loop_backs_off_on_emfile_and_recovers() {
    let (orig_soft, _hard) = nofile_limits().unwrap();
    let _guard = LimitGuard(orig_soft);

    // One request per connection: read up to the header terminator, answer,
    // close. The client observes recovery as a served response + EOF.
    let server = serve_with(0, "backoff-test", ServeOptions::default(), |mut stream| {
        let mut buf = [0u8; 4096];
        let mut filled = 0;
        while !buf[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
            match stream.read(&mut buf[filled..]) {
                Ok(0) | Err(_) => return,
                Ok(n) => filled += n,
            }
        }
        let _ = stream.write_all(RESPONSE);
    })
    .unwrap();
    let stats = server.io_stats().clone();
    let clients = [unconnected_socket(), unconnected_socket()];

    // Lower the ceiling to just above what's already open, then eat every
    // remaining descriptor with ballast. The margin only bounds how much
    // ballast we open; the loop below finds the true edge.
    set_nofile_soft(open_fds() + 32).unwrap();
    let mut ballast = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(f) => ballast.push(f),
            Err(e) => {
                assert_eq!(e.raw_os_error(), Some(24), "expected EMFILE, got {e}");
                break;
            }
        }
    }

    for client in &clients {
        connect(client, server.addr);
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
    }
    // Both connections now wait on accept(), which fails with EMFILE. The
    // loop must register each failure and keep retrying instead of dying;
    // two more failures mean at least one retry began after both arrived.
    let seen = stats.accept_errors_total();
    let deadline = Instant::now() + Duration::from_secs(5);
    while stats.accept_errors_total() < seen + 2 {
        assert!(
            Instant::now() < deadline,
            "accept loop never observed fd exhaustion"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        stats.accepts_total() < 2,
        "only a descriptor reserved before the exhaustion is acceptable: {}",
        stats.accepts_total()
    );

    // Recovery: descriptors free up, the backed-off accept retries, and
    // the connection that waited in the backlog the whole time is served.
    ballast.clear();
    for mut client in clients {
        client.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let mut got = Vec::new();
        client.read_to_end(&mut got).expect("served after recovery");
        assert_eq!(got, RESPONSE, "queued connection must be served intact");
    }
    assert_eq!(stats.accepts_total(), 2);
    assert!(stats.accept_errors_total() >= 2);
    server.stop();
}

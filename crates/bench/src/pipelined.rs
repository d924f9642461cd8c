//! A pipelined raw-socket HTTP client for the wire-path benches
//! (`proxy-c10k`): writes a batch of pre-serialized GETs in
//! one syscall, then drains the responses, checking status (and
//! optionally `X-Cache: HIT`) and using `Content-Length` to frame each
//! body. Deliberately dumber and faster than [`HttpClient`]
//! (piggyback_proxyd::client::HttpClient): no header map, no allocation
//! per response, so the client never becomes the bottleneck being
//! measured.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// See module docs. `pos..filled` of `buf` is the unparsed window.
pub struct PipelinedClient {
    stream: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    filled: usize,
    /// Assert `X-Cache: HIT` on every response (cache-hit workloads).
    pub check_hit: bool,
}

impl PipelinedClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Ok(PipelinedClient {
            stream: TcpStream::connect(addr)?,
            buf: vec![0u8; 1024 * 1024],
            pos: 0,
            filled: 0,
            check_hit: true,
        })
    }

    /// Write `reqs` back-to-back, then read exactly `count` responses,
    /// asserting every one is a `200` (and a cache hit if `check_hit`).
    pub fn run_batch(&mut self, reqs: &[u8], count: usize) {
        self.stream.write_all(reqs).expect("write batch");
        for _ in 0..count {
            self.read_response();
        }
    }

    pub fn read_response(&mut self) {
        // Fill until the header block is complete.
        let head_len = loop {
            if let Some(p) = find(&self.buf[self.pos..self.filled], b"\r\n\r\n") {
                break p + 4;
            }
            self.fill();
        };
        let head = &self.buf[self.pos..self.pos + head_len];
        assert!(head.starts_with(b"HTTP/1.1 200 OK\r\n"), "not a 200");
        if self.check_hit {
            assert!(find(head, b"X-Cache: HIT\r\n").is_some(), "not a cache hit");
        }
        let total = head_len + content_length(head);
        while self.filled - self.pos < total {
            self.fill();
        }
        self.pos += total;
        if self.pos == self.filled {
            self.pos = 0;
            self.filled = 0;
        }
    }

    fn fill(&mut self) {
        if self.filled == self.buf.len() {
            // Compact the unparsed tail (rare: only when a response spans
            // the end of the buffer).
            self.buf.copy_within(self.pos..self.filled, 0);
            self.filled -= self.pos;
            self.pos = 0;
        }
        let n = self
            .stream
            .read(&mut self.buf[self.filled..])
            .expect("read");
        assert!(n > 0, "server closed mid-response");
        self.filled += n;
    }
}

pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

pub fn content_length(head: &[u8]) -> usize {
    let p = find(head, b"Content-Length: ").expect("framed response");
    let rest = &head[p + 16..];
    let end = find(rest, b"\r\n").unwrap();
    std::str::from_utf8(&rest[..end]).unwrap().parse().unwrap()
}

/// A browser-shaped GET: per-header parse cost (allocated by the buffered
/// wire path, recycled by the zero-copy path) matches real traffic.
pub fn browser_get(path: &str) -> String {
    format!(
        "GET {path} HTTP/1.1\r\n\
         Host: bench\r\n\
         User-Agent: proxy-ab/1.0 (bench; x86_64)\r\n\
         Accept: text/html,application/xhtml+xml,*/*;q=0.8\r\n\
         Accept-Language: en-US,en;q=0.5\r\n\
         Accept-Encoding: identity\r\n\
         Referer: http://bench/index.html\r\n\
         Cookie: session=0123456789abcdef; theme=light\r\n\
         Cache-Control: max-age=3600\r\n\r\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_helpers() {
        let head = b"HTTP/1.1 200 OK\r\nContent-Length: 42\r\n\r\n";
        assert_eq!(content_length(head), 42);
        assert_eq!(find(head, b"\r\n\r\n"), Some(head.len() - 4));
        assert!(browser_get("/a.html").starts_with("GET /a.html HTTP/1.1\r\n"));
    }
}

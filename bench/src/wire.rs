//! The benchmark's own view of HTTP bytes: an incremental response
//! framer that never allocates after construction, and the body checksum.
//!
//! It is deliberately *not* `piggyback_httpwire`: the generator and the
//! taps must keep working — and keep costing the same — when the library
//! under test changes, and they must be able to say a response is wrong.

/// FNV-1a folded over little-endian 64-bit words (then the tail bytes and
/// the length), so a 4 MiB body checks at memory speed. Independent of
/// how the body was split across reads.
#[derive(Debug, Clone, Copy)]
pub struct Checksum {
    h: u64,
    tail: [u8; 8],
    tail_len: usize,
    len: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Checksum {
    fn default() -> Self {
        Checksum {
            h: FNV_OFFSET,
            tail: [0; 8],
            tail_len: 0,
            len: 0,
        }
    }
}

impl Checksum {
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.tail_len > 0 {
            let take = (8 - self.tail_len).min(data.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < 8 {
                return;
            }
            self.h = (self.h ^ u64::from_le_bytes(self.tail)).wrapping_mul(FNV_PRIME);
            self.tail_len = 0;
        }
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            self.h = (self.h ^ w).wrapping_mul(FNV_PRIME);
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    pub fn finish(&self) -> u64 {
        let mut h = self.h;
        for &b in &self.tail[..self.tail_len] {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        (h ^ self.len).wrapping_mul(FNV_PRIME)
    }

    pub fn of(data: &[u8]) -> u64 {
        let mut c = Checksum::default();
        c.update(data);
        c.finish()
    }
}

/// The proxy's `X-Cache` verdict on a response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheClass {
    /// No `X-Cache` header (pass-through, direct-to-origin exchanges).
    None,
    Hit,
    Miss,
    Validated,
    Prefix,
    Other,
}

impl CacheClass {
    /// Served without waiting for an upstream exchange.
    pub fn is_hit(self) -> bool {
        self == CacheClass::Hit
    }

    pub fn as_str(self) -> &'static str {
        match self {
            CacheClass::None => "-",
            CacheClass::Hit => "HIT",
            CacheClass::Miss => "MISS",
            CacheClass::Validated => "VALIDATED",
            CacheClass::Prefix => "PREFIX",
            CacheClass::Other => "?",
        }
    }
}

/// One complete response, as framed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Framed {
    pub status: u16,
    pub class: CacheClass,
    pub body_len: u64,
    pub body_sum: u64,
    /// Bytes the message took on the wire, head and framing included.
    pub wire_len: u64,
    pub chunked: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameError(pub &'static str);

#[derive(Debug, Clone, Copy)]
enum State {
    Head,
    Length(u64),
    ChunkSize,
    ChunkData(u64),
    /// CR LF after a chunk's data; the count is bytes still to skip.
    ChunkEnd(u8),
    Trailers,
}

/// Largest response head the framer accepts.
const MAX_HEAD: usize = 16 * 1024;

/// Incremental response framer: [`advance`](Self::advance) consumes bytes
/// up to the end of the current message and reports it when complete.
pub struct ResponseFramer {
    state: State,
    head: Vec<u8>,
    /// Chunk-size / trailer line accumulator.
    line: Vec<u8>,
    sum: Checksum,
    status: u16,
    class: CacheClass,
    chunked: bool,
    wire_len: u64,
    /// Any byte of the current message consumed yet?
    started: bool,
}

impl Default for ResponseFramer {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseFramer {
    pub fn new() -> Self {
        ResponseFramer {
            state: State::Head,
            head: Vec::with_capacity(MAX_HEAD),
            line: Vec::with_capacity(MAX_HEAD),
            sum: Checksum::default(),
            status: 0,
            class: CacheClass::None,
            chunked: false,
            wire_len: 0,
            started: false,
        }
    }

    /// Has any byte of the current message been consumed?
    pub fn mid_message(&self) -> bool {
        self.started
    }

    /// Consume from `input`; returns bytes used and the message if it
    /// completed. Never consumes past the end of a message, so pipelined
    /// responses come out one call at a time.
    pub fn advance(&mut self, input: &[u8]) -> Result<(usize, Option<Framed>), FrameError> {
        let mut used = 0;
        while used < input.len() {
            self.started = true;
            let rest = &input[used..];
            match self.state {
                State::Head => {
                    let before = self.head.len();
                    let room = MAX_HEAD - before;
                    if room == 0 {
                        return Err(FrameError("response head too large"));
                    }
                    let take = rest.len().min(room);
                    self.head.extend_from_slice(&rest[..take]);
                    let from = before.saturating_sub(3);
                    match find(&self.head[from..], b"\r\n\r\n") {
                        None => used += take,
                        Some(at) => {
                            let head_end = from + at + 4;
                            used += head_end - before;
                            self.head.truncate(head_end);
                            self.wire_len = head_end as u64;
                            self.parse_head()?;
                            if let Some(done) = self.finish_if_bodiless() {
                                return Ok((used, Some(done)));
                            }
                        }
                    }
                }
                State::Length(left) => {
                    let take = (rest.len() as u64).min(left) as usize;
                    self.sum.update(&rest[..take]);
                    used += take;
                    self.wire_len += take as u64;
                    let left = left - take as u64;
                    self.state = State::Length(left);
                    if left == 0 {
                        return Ok((used, Some(self.complete())));
                    }
                }
                State::ChunkSize => {
                    if let Some(line) = self.take_line(rest, &mut used)? {
                        let hex = line.split(|&b| b == b';').next().unwrap_or(&[]);
                        let hex = std::str::from_utf8(hex).map_err(|_| FrameError("chunk size"))?;
                        let size = u64::from_str_radix(hex.trim(), 16)
                            .map_err(|_| FrameError("chunk size"))?;
                        self.line.clear();
                        self.state = if size == 0 {
                            State::Trailers
                        } else {
                            State::ChunkData(size)
                        };
                    }
                }
                State::ChunkData(left) => {
                    let take = (rest.len() as u64).min(left) as usize;
                    self.sum.update(&rest[..take]);
                    used += take;
                    self.wire_len += take as u64;
                    let left = left - take as u64;
                    self.state = if left == 0 {
                        State::ChunkEnd(2)
                    } else {
                        State::ChunkData(left)
                    };
                }
                State::ChunkEnd(left) => {
                    let take = (left as usize).min(rest.len());
                    used += take;
                    self.wire_len += take as u64;
                    let left = left - take as u8;
                    self.state = if left == 0 {
                        State::ChunkSize
                    } else {
                        State::ChunkEnd(left)
                    };
                }
                State::Trailers => {
                    if let Some(line) = self.take_line(rest, &mut used)? {
                        let blank = line.is_empty();
                        self.line.clear();
                        if blank {
                            return Ok((used, Some(self.complete())));
                        }
                    }
                }
            }
        }
        Ok((used, None))
    }

    /// Accumulate up to and including the next LF; yields the line without
    /// its CR LF once whole. The borrow ends before the caller clears it.
    fn take_line(&mut self, rest: &[u8], used: &mut usize) -> Result<Option<&[u8]>, FrameError> {
        let (take, whole) = match rest.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (rest.len(), false),
        };
        if self.line.len() + take > MAX_HEAD {
            return Err(FrameError("framing line too long"));
        }
        self.line.extend_from_slice(&rest[..take]);
        *used += take;
        self.wire_len += take as u64;
        if !whole {
            return Ok(None);
        }
        let mut end = self.line.len() - 1;
        if end > 0 && self.line[end - 1] == b'\r' {
            end -= 1;
        }
        Ok(Some(&self.line[..end]))
    }

    fn parse_head(&mut self) -> Result<(), FrameError> {
        let head = &self.head[..self.head.len() - 4];
        let mut lines = head.split(|&b| b == b'\n').map(|l| match l {
            [rest @ .., b'\r'] => rest,
            l => l,
        });
        let status_line = lines.next().ok_or(FrameError("empty head"))?;
        if status_line.len() < 12 || !status_line.starts_with(b"HTTP/1.") {
            return Err(FrameError("bad status line"));
        }
        self.status = std::str::from_utf8(&status_line[9..12])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or(FrameError("bad status code"))?;
        let mut length = None;
        self.chunked = false;
        self.class = CacheClass::None;
        for line in lines {
            let Some(colon) = line.iter().position(|&b| b == b':') else {
                continue;
            };
            let (name, value) = (&line[..colon], trim(&line[colon + 1..]));
            if name.eq_ignore_ascii_case(b"content-length") {
                length = std::str::from_utf8(value)
                    .ok()
                    .and_then(|s| s.parse::<u64>().ok());
                if length.is_none() {
                    return Err(FrameError("bad content-length"));
                }
            } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
                self.chunked = value.eq_ignore_ascii_case(b"chunked");
            } else if name.eq_ignore_ascii_case(b"x-cache") {
                self.class = match value {
                    b"HIT" => CacheClass::Hit,
                    b"MISS" => CacheClass::Miss,
                    b"VALIDATED" => CacheClass::Validated,
                    b"PREFIX" => CacheClass::Prefix,
                    _ => CacheClass::Other,
                };
            }
        }
        let bodiless = matches!(self.status, 100..=199 | 204 | 304);
        self.state = if bodiless {
            State::Length(0)
        } else if self.chunked {
            State::ChunkSize
        } else {
            // The harness only talks keep-alive HTTP/1.1 to daemons that
            // always frame; a close-delimited body would hang a pipeline.
            State::Length(length.ok_or(FrameError("response neither chunked nor length-framed"))?)
        };
        Ok(())
    }

    fn finish_if_bodiless(&mut self) -> Option<Framed> {
        matches!(self.state, State::Length(0)).then(|| self.complete())
    }

    fn complete(&mut self) -> Framed {
        let done = Framed {
            status: self.status,
            class: self.class,
            body_len: self.sum.len,
            body_sum: self.sum.finish(),
            wire_len: self.wire_len,
            chunked: self.chunked,
        };
        self.state = State::Head;
        self.head.clear();
        self.line.clear();
        self.sum = Checksum::default();
        self.started = false;
        done
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn trim(mut v: &[u8]) -> &[u8] {
    while let [b' ' | b'\t', rest @ ..] = v {
        v = rest;
    }
    while let [rest @ .., b' ' | b'\t'] = v {
        v = rest;
    }
    v
}

/// Does a framed request's head offer `TE: chunked`?
pub fn offers_chunked(request: &[u8]) -> bool {
    request.split(|&b| b == b'\n').skip(1).any(|l| {
        l.iter().position(|&b| b == b':').is_some_and(|colon| {
            l[..colon].eq_ignore_ascii_case(b"te")
                && trim(
                    l[colon + 1..]
                        .strip_suffix(b"\r")
                        .unwrap_or(&l[colon + 1..]),
                )
                .eq_ignore_ascii_case(b"chunked")
        })
    })
}

/// Request-side framing for the taps: where does the next request end,
/// and which path does it name? Requests the harness and the daemons send
/// upstream are bodiless GETs; a `Content-Length` body is skipped, any
/// other framing is an error.
pub fn frame_request(buf: &[u8]) -> Result<Option<(usize, &str)>, FrameError> {
    let Some(head_end) = find(buf, b"\r\n\r\n").map(|i| i + 4) else {
        if buf.len() > MAX_HEAD {
            return Err(FrameError("request head too large"));
        }
        return Ok(None);
    };
    let head = &buf[..head_end];
    let line_end = find(head, b"\r\n").unwrap_or(head.len());
    let line = std::str::from_utf8(&head[..line_end]).map_err(|_| FrameError("request line"))?;
    let mut parts = line.split(' ');
    let (Some(_method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(FrameError("request line"));
    };
    let mut body = 0usize;
    for l in head[line_end..].split(|&b| b == b'\n') {
        let Some(colon) = l.iter().position(|&b| b == b':') else {
            continue;
        };
        if l[..colon].eq_ignore_ascii_case(b"content-length") {
            body = std::str::from_utf8(trim(&l[colon + 1..]))
                .ok()
                .and_then(|s| s.trim_end_matches('\r').parse().ok())
                .ok_or(FrameError("request content-length"))?;
        } else if l[..colon].eq_ignore_ascii_case(b"transfer-encoding") {
            return Err(FrameError("chunked request body"));
        }
    }
    if buf.len() < head_end + body {
        return Ok(None);
    }
    Ok(Some((head_end + body, target)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_all(wire: &[u8], step: usize) -> Vec<Framed> {
        let mut f = ResponseFramer::new();
        let mut out = Vec::new();
        for piece in wire.chunks(step) {
            let mut off = 0;
            while off < piece.len() {
                let (used, done) = f.advance(&piece[off..]).unwrap();
                off += used;
                out.extend(done);
            }
        }
        assert!(!f.mid_message(), "trailing partial message");
        out
    }

    #[test]
    fn checksum_is_split_independent_and_length_sensitive() {
        let data: Vec<u8> = (0..10_007u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = Checksum::of(&data);
        for step in [1usize, 3, 7, 8, 9, 64, 1000] {
            let mut c = Checksum::default();
            for piece in data.chunks(step) {
                c.update(piece);
            }
            assert_eq!(c.finish(), whole, "step {step}");
        }
        assert_ne!(Checksum::of(&data[..data.len() - 1]), whole);
        assert_ne!(Checksum::of(&[0u8; 8]), Checksum::of(&[0u8; 16]));
        let mut flipped = data.clone();
        flipped[5000] ^= 1;
        assert_ne!(Checksum::of(&flipped), whole);
    }

    #[test]
    fn frames_content_length_chunked_trailer_and_pipelined() {
        let body_a = b"hello world, this is body A";
        let body_b: Vec<u8> = (0..5000u32).map(|i| (i % 256) as u8).collect();
        let mut wire = Vec::new();
        // 1: Content-Length with a cache verdict.
        wire.extend_from_slice(
            format!(
                "HTTP/1.1 200 OK\r\nX-Cache: HIT\r\nContent-Length: {}\r\n\r\n",
                body_a.len()
            )
            .as_bytes(),
        );
        wire.extend_from_slice(body_a);
        // 2: chunked, chunk extension, trailer — written by the library
        // under test, read by the harness's own framer.
        let mut resp = piggyback_httpwire::Response::new(200);
        resp.headers.insert("X-Cache", "MISS");
        resp.body = body_b.clone().into();
        resp.trailers
            .insert("P-volume", "7; \"/a.html\" 886000000 1024");
        resp.write(&mut wire).unwrap();
        // 3: bodiless statuses.
        wire.extend_from_slice(b"HTTP/1.1 304 Not Modified\r\nX-Cache: VALIDATED\r\n\r\n");
        wire.extend_from_slice(b"HTTP/1.1 204 No Content\r\n\r\n");
        // 4: hand-written chunked with an extension and empty trailer.
        wire.extend_from_slice(
            b"HTTP/1.1 200 OK\r\ntransfer-encoding: Chunked\r\nX-Cache: PREFIX\r\n\r\n\
              5;ext=1\r\nhello\r\n6\r\n world\r\n0\r\n\r\n",
        );

        for step in [1usize, 2, 5, 17, 4096, wire.len()] {
            let got = frame_all(&wire, step);
            assert_eq!(got.len(), 5, "step {step}");
            assert_eq!(
                (got[0].status, got[0].class, got[0].body_len, got[0].chunked),
                (200, CacheClass::Hit, body_a.len() as u64, false)
            );
            assert_eq!(got[0].body_sum, Checksum::of(body_a));
            assert_eq!(
                (got[1].class, got[1].body_len, got[1].chunked),
                (CacheClass::Miss, 5000, true)
            );
            assert_eq!(got[1].body_sum, Checksum::of(&body_b));
            assert_eq!(
                (got[2].status, got[2].class, got[2].body_len),
                (304, CacheClass::Validated, 0)
            );
            assert_eq!((got[3].status, got[3].class), (204, CacheClass::None));
            assert_eq!(got[4].body_sum, Checksum::of(b"hello world"));
            assert_eq!(got[4].class, CacheClass::Prefix);
            assert_eq!(
                got.iter().map(|f| f.wire_len).sum::<u64>(),
                wire.len() as u64
            );
        }
    }

    #[test]
    fn rejects_unframed_and_malformed_responses() {
        let mut f = ResponseFramer::new();
        assert!(f.advance(b"HTTP/1.1 200 OK\r\nX: y\r\n\r\nbody").is_err());
        let mut f = ResponseFramer::new();
        assert!(f.advance(b"garbage\r\n\r\n").is_err());
        let mut f = ResponseFramer::new();
        assert!(f
            .advance(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n")
            .is_err());
    }

    #[test]
    fn frames_pipelined_requests() {
        let wire = b"GET /a.html HTTP/1.1\r\nHost: x\r\n\r\nGET /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /c";
        let (n1, p1) = frame_request(wire).unwrap().unwrap();
        assert_eq!(p1, "/a.html");
        let (n2, p2) = frame_request(&wire[n1..]).unwrap().unwrap();
        assert_eq!(p2, "/b");
        assert_eq!(frame_request(&wire[n1 + n2..]).unwrap(), None);
        assert!(frame_request(b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").is_err());
        assert!(offers_chunked(
            b"GET /x HTTP/1.1\r\nHost: o\r\nte: chunked\r\n\r\n"
        ));
        assert!(!offers_chunked(
            b"GET /te:chunked HTTP/1.1\r\nHost: TE: chunked\r\n\r\n"
        ));
    }
}

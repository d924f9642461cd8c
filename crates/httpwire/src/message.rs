//! HTTP request and response messages: types, serialization, and parsing.

use crate::body::Body;
use crate::chunked::{read_chunked_into_capped, write_chunked};
use crate::error::HttpError;
use crate::headers::HeaderMap;
use crate::parse::{
    content_length, read_headers, read_headers_into, read_line, read_line_into, MAX_BODY,
};
use crate::scratch::{flush_segments, ConnScratch, Seg};
use std::io::{BufRead, Read, Write};

/// Read a declared-length body in bounded windows instead of one
/// `read_exact` into a `resize(n)` buffer. A `Content-Length` header is
/// attacker-controlled: trusting it with an up-front allocation lets a
/// peer that never sends a byte pin `n` bytes of memory per connection.
/// Windowed growth allocates only for bytes that actually arrived
/// (plus at most one 64 KiB window).
fn read_body_windowed<R: Read>(r: &mut R, buf: &mut Vec<u8>, n: usize) -> Result<(), HttpError> {
    const WINDOW: usize = 64 * 1024;
    buf.clear();
    while buf.len() < n {
        let at = buf.len();
        let take = (n - at).min(WINDOW);
        buf.resize(at + take, 0);
        r.read_exact(&mut buf[at..])?;
    }
    Ok(())
}

/// HTTP protocol version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    Http10,
    Http11,
}

impl Version {
    pub const fn as_str(self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }

    pub fn parse(s: &str) -> Result<Version, HttpError> {
        match s {
            "HTTP/1.0" => Ok(Version::Http10),
            "HTTP/1.1" => Ok(Version::Http11),
            other => Err(HttpError::BadVersion(other.to_owned())),
        }
    }
}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub target: String,
    pub version: Version,
    pub headers: HeaderMap,
    pub body: Body,
}

impl Request {
    /// A bodiless HTTP/1.1 request.
    pub fn new(method: &str, target: &str) -> Self {
        Request {
            method: method.to_owned(),
            target: target.to_owned(),
            version: Version::Http11,
            headers: HeaderMap::new(),
            body: Body::empty(),
        }
    }

    /// A placeholder request for [`read_into`](Self::read_into) loops: the
    /// serve loop creates one per connection and refills it per message,
    /// reusing the method/target strings and the header map's entries.
    pub fn empty() -> Self {
        Request {
            method: String::new(),
            target: String::new(),
            version: Version::Http11,
            headers: HeaderMap::new(),
            body: Body::empty(),
        }
    }

    /// Should the connection stay open after this exchange?
    pub fn keep_alive(&self) -> bool {
        match self.version {
            Version::Http11 => !self.headers.list_contains("Connection", "close"),
            Version::Http10 => self.headers.list_contains("Connection", "keep-alive"),
        }
    }

    /// Serialize onto `w`. A non-empty body forces a `Content-Length`.
    pub fn write<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write!(
            w,
            "{} {} {}\r\n",
            self.method,
            self.target,
            self.version.as_str()
        )?;
        let mut wrote_cl = false;
        for (name, value) in self.headers.iter() {
            if name.eq_ignore_ascii_case("Content-Length") {
                wrote_cl = true;
            }
            write!(w, "{name}: {value}\r\n")?;
        }
        if !self.body.is_empty() && !wrote_cl {
            write!(w, "Content-Length: {}\r\n", self.body.len())?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }

    /// [`write`](Self::write) through the connection's scratch buffer:
    /// the head is encoded into `scratch.out` and the whole message —
    /// body referenced, not copied — goes out in one vectored write.
    /// Wire bytes are identical to `write`.
    pub fn write_with<W: Write>(
        &self,
        w: &mut W,
        scratch: &mut ConnScratch,
    ) -> std::io::Result<()> {
        let ConnScratch { out, segs, .. } = scratch;
        out.clear();
        segs.clear();
        write!(
            out,
            "{} {} {}\r\n",
            self.method,
            self.target,
            self.version.as_str()
        )?;
        let mut wrote_cl = false;
        for (name, value) in self.headers.iter() {
            if name.eq_ignore_ascii_case("Content-Length") {
                wrote_cl = true;
            }
            write!(out, "{name}: {value}\r\n")?;
        }
        if !self.body.is_empty() && !wrote_cl {
            write!(out, "Content-Length: {}\r\n", self.body.len())?;
        }
        out.extend_from_slice(b"\r\n");
        segs.push(Seg::Out(0, out.len()));
        if !self.body.is_empty() {
            segs.push(Seg::Body(0, self.body.len()));
        }
        flush_segments(w, out, &self.body, segs)?;
        w.flush()
    }

    /// Parse a request from `r` (blocking until complete or error).
    pub fn read<R: BufRead>(r: &mut R) -> Result<Request, HttpError> {
        let mut req = Request::empty();
        let mut scratch = ConnScratch::new();
        req.read_into(r, &mut scratch)?;
        Ok(req)
    }

    /// Parse a request from `r` into `self`, reusing `self`'s strings and
    /// header entries plus the connection scratch. The steady-state serve
    /// loop (bodiless GETs on a persistent connection) refills everything
    /// in place: zero heap allocation per request.
    pub fn read_into<R: BufRead>(
        &mut self,
        r: &mut R,
        scratch: &mut ConnScratch,
    ) -> Result<(), HttpError> {
        self.read_into_capped(r, scratch, MAX_BODY)
    }

    /// [`read_into`](Self::read_into) with a caller-chosen body cap: a
    /// declared or chunked body larger than `cap` is rejected with
    /// [`HttpError::LimitExceeded`]`("body cap")` before any large
    /// allocation happens. The proxy maps this to a `413` response.
    pub fn read_into_capped<R: BufRead>(
        &mut self,
        r: &mut R,
        scratch: &mut ConnScratch,
        cap: usize,
    ) -> Result<(), HttpError> {
        {
            let line = read_line_into(r, &mut scratch.line)?;
            let mut parts = line.split_ascii_whitespace();
            let (method, target, version) =
                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                    (Some(m), Some(t), Some(v), None) => (m, t, v),
                    _ => return Err(HttpError::BadRequestLine(line.to_owned())),
                };
            self.version = Version::parse(version)?;
            self.method.clear();
            self.method.push_str(method);
            self.target.clear();
            self.target.push_str(target);
        }
        read_headers_into(r, &mut self.headers, &mut scratch.line)?;
        if self.headers.list_contains("Transfer-Encoding", "chunked") {
            // Request trailers are read (into scratch) and discarded,
            // matching the original parser.
            read_chunked_into_capped(
                r,
                &mut scratch.body_vec,
                &mut scratch.trailers,
                &mut scratch.line,
                cap,
            )?;
            self.body = Body::from(scratch.body_vec.as_slice());
        } else {
            match content_length(&self.headers)? {
                Some(n) if n > 0 => {
                    if n > cap {
                        return Err(HttpError::LimitExceeded("body cap"));
                    }
                    read_body_windowed(r, &mut scratch.body_vec, n)?;
                    self.body = Body::from(scratch.body_vec.as_slice());
                }
                _ => self.body = Body::empty(),
            }
        }
        Ok(())
    }
}

/// An HTTP response, including any trailer headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub version: Version,
    pub status: u16,
    pub reason: String,
    pub headers: HeaderMap,
    pub body: Body,
    /// Trailer headers (sent/received only with chunked transfer-coding).
    pub trailers: HeaderMap,
}

impl Response {
    pub fn new(status: u16) -> Self {
        Response {
            version: Version::Http11,
            status,
            reason: reason_phrase(status).to_owned(),
            headers: HeaderMap::new(),
            body: Body::empty(),
            trailers: HeaderMap::new(),
        }
    }

    /// Whether this status code forbids a body.
    pub fn bodiless_status(status: u16) -> bool {
        matches!(status, 100..=199 | 204 | 304)
    }

    pub fn keep_alive(&self) -> bool {
        match self.version {
            Version::Http11 => !self.headers.list_contains("Connection", "close"),
            Version::Http10 => self.headers.list_contains("Connection", "keep-alive"),
        }
    }

    /// The one framing rule of every writer: the body is chunk-encoded
    /// when there are trailers to carry or an explicit
    /// `Transfer-Encoding: chunked` header asks for it, and never under a
    /// status that forbids a body.
    pub fn is_chunked(&self) -> bool {
        (!self.trailers.is_empty() || self.headers.list_contains("Transfer-Encoding", "chunked"))
            && !Self::bodiless_status(self.status)
    }

    /// Serialize. A chunked body ([`is_chunked`](Self::is_chunked)) is
    /// chunk-encoded and the `Trailer` header is emitted, per the paper's
    /// Section 2.3 flow; otherwise a `Content-Length` body is written.
    pub fn write<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let chunked = self.is_chunked();
        write!(
            w,
            "{} {} {}\r\n",
            self.version.as_str(),
            self.status,
            self.reason
        )?;
        for (name, value) in self.headers.iter() {
            // We compute framing headers ourselves.
            if name.eq_ignore_ascii_case("Content-Length")
                || name.eq_ignore_ascii_case("Transfer-Encoding")
                || name.eq_ignore_ascii_case("Trailer")
            {
                continue;
            }
            write!(w, "{name}: {value}\r\n")?;
        }
        if chunked {
            w.write_all(b"Transfer-Encoding: chunked\r\n")?;
            if !self.trailers.is_empty() {
                let names: Vec<&str> = self.trailers.iter().map(|(n, _)| n).collect();
                write!(w, "Trailer: {}\r\n", names.join(", "))?;
            }
            w.write_all(b"\r\n")?;
            write_chunked(w, &self.body, &self.trailers, 8 * 1024)?;
        } else if Self::bodiless_status(self.status) {
            w.write_all(b"\r\n")?;
        } else {
            write!(w, "Content-Length: {}\r\n\r\n", self.body.len())?;
            w.write_all(&self.body)?;
        }
        w.flush()
    }

    /// [`write`](Self::write) through the connection's scratch buffer.
    /// The head, chunk framing, and trailers are encoded into
    /// `scratch.out`; body bytes are *referenced* (recorded as [`Seg`]
    /// ranges), never copied; and the whole message is emitted with
    /// batched vectored writes. Wire bytes are identical to `write` —
    /// the byte-identity property tests hold the two together.
    pub fn write_with<W: Write>(
        &self,
        w: &mut W,
        scratch: &mut ConnScratch,
    ) -> std::io::Result<()> {
        let ConnScratch { out, segs, .. } = scratch;
        out.clear();
        segs.clear();
        let chunked = self.is_chunked();
        write!(
            out,
            "{} {} {}\r\n",
            self.version.as_str(),
            self.status,
            self.reason
        )?;
        for (name, value) in self.headers.iter() {
            // We compute framing headers ourselves.
            if name.eq_ignore_ascii_case("Content-Length")
                || name.eq_ignore_ascii_case("Transfer-Encoding")
                || name.eq_ignore_ascii_case("Trailer")
            {
                continue;
            }
            write!(out, "{name}: {value}\r\n")?;
        }
        if chunked {
            out.extend_from_slice(b"Transfer-Encoding: chunked\r\n");
            if !self.trailers.is_empty() {
                out.extend_from_slice(b"Trailer: ");
                let mut first = true;
                for (name, _) in self.trailers.iter() {
                    if !first {
                        out.extend_from_slice(b", ");
                    }
                    out.extend_from_slice(name.as_bytes());
                    first = false;
                }
                out.extend_from_slice(b"\r\n");
            }
            out.extend_from_slice(b"\r\n");
            // Chunk framing: each size line closes the pending scratch
            // segment, the chunk data is referenced from the body, and
            // the chunk-terminating CRLF coalesces into the next
            // segment's scratch bytes.
            const CHUNK: usize = 8 * 1024;
            let mut mark = 0;
            let mut pos = 0;
            while pos < self.body.len() {
                let len = (self.body.len() - pos).min(CHUNK);
                write!(out, "{len:x}\r\n")?;
                segs.push(Seg::Out(mark, out.len()));
                segs.push(Seg::Body(pos, pos + len));
                mark = out.len();
                out.extend_from_slice(b"\r\n");
                pos += len;
            }
            // Terminal chunk, trailer section, final blank line.
            out.extend_from_slice(b"0\r\n");
            for (name, value) in self.trailers.iter() {
                write!(out, "{name}: {value}\r\n")?;
            }
            out.extend_from_slice(b"\r\n");
            segs.push(Seg::Out(mark, out.len()));
        } else if Self::bodiless_status(self.status) {
            out.extend_from_slice(b"\r\n");
            segs.push(Seg::Out(0, out.len()));
        } else {
            write!(out, "Content-Length: {}\r\n\r\n", self.body.len())?;
            segs.push(Seg::Out(0, out.len()));
            segs.push(Seg::Body(0, self.body.len()));
        }
        flush_segments(w, out, &self.body, segs)?;
        w.flush()
    }

    /// Parse a response. `head_request` suppresses body reading (responses
    /// to HEAD carry headers only).
    pub fn read<R: BufRead>(r: &mut R, head_request: bool) -> Result<Response, HttpError> {
        Self::read_capped(r, head_request, MAX_BODY)
    }

    /// Parse only the status line and headers, leaving the body (and any
    /// trailers) unread on `r`. The streaming relay uses this to decide —
    /// from `Content-Length`/`Transfer-Encoding` alone — whether to
    /// buffer the body as usual or cut it through segment by segment with
    /// a [`BodyReader`](crate::stream::BodyReader).
    pub fn read_head<R: BufRead>(r: &mut R) -> Result<Response, HttpError> {
        let line = read_line(r)?;
        let mut parts = line.splitn(3, ' ');
        let version = Version::parse(parts.next().unwrap_or(""))
            .map_err(|_| HttpError::BadStatusLine(line.clone()))?;
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| HttpError::BadStatusLine(line.clone()))?;
        let reason = parts.next().unwrap_or("").to_owned();
        let headers = read_headers(r)?;
        Ok(Response {
            version,
            status,
            reason,
            headers,
            body: Body::empty(),
            trailers: HeaderMap::new(),
        })
    }

    /// Read the body (and trailers) that follow a [`read_head`](Self::read_head)
    /// call into `self`, honoring `cap` exactly like
    /// [`read_capped`](Self::read_capped). The buffered fallback for
    /// responses the streaming relay decides not to cut through.
    pub fn read_rest<R: BufRead>(&mut self, r: &mut R, cap: usize) -> Result<(), HttpError> {
        let cap = cap.min(MAX_BODY);
        if Self::bodiless_status(self.status) {
            self.body = Body::empty();
        } else if self.headers.list_contains("Transfer-Encoding", "chunked") {
            let mut body = Vec::new();
            let mut line = Vec::with_capacity(64);
            read_chunked_into_capped(r, &mut body, &mut self.trailers, &mut line, cap)?;
            self.body = body.into();
        } else if let Some(n) = content_length(&self.headers)? {
            if n > cap {
                return Err(HttpError::LimitExceeded("body cap"));
            }
            let mut body = Vec::new();
            read_body_windowed(r, &mut body, n)?;
            self.body = body.into();
        } else {
            // HTTP/1.0 style: body delimited by connection close.
            let mut body = Vec::new();
            r.take(cap as u64 + 1).read_to_end(&mut body)?;
            if body.len() > cap {
                return Err(HttpError::LimitExceeded("body size"));
            }
            self.body = body.into();
        }
        Ok(())
    }

    /// [`read`](Self::read) with a caller-chosen body cap: a body larger
    /// than `cap` is a protocol error
    /// ([`HttpError::LimitExceeded`]`("body cap")`) rather than an
    /// allocation. A declared `Content-Length` is also read in bounded
    /// windows, so a lying peer can't pin `cap` bytes without sending
    /// them.
    pub fn read_capped<R: BufRead>(
        r: &mut R,
        head_request: bool,
        cap: usize,
    ) -> Result<Response, HttpError> {
        let mut resp = Self::read_head(r)?;
        if !head_request {
            resp.read_rest(r, cap)?;
        }
        Ok(resp)
    }
}

/// Canonical reason phrases for the statuses this stack emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn request_round_trip(req: &Request) -> Request {
        let mut wire = Vec::new();
        req.write(&mut wire).unwrap();
        Request::read(&mut BufReader::new(wire.as_slice())).unwrap()
    }

    fn response_round_trip(resp: &Response, head: bool) -> Response {
        let mut wire = Vec::new();
        resp.write(&mut wire).unwrap();
        Response::read(&mut BufReader::new(wire.as_slice()), head).unwrap()
    }

    #[test]
    fn paper_example_request() {
        let mut req = Request::new("GET", "/mafia.html");
        req.headers.insert("host", "sig.com");
        req.headers.insert("TE", "chunked");
        req.headers
            .insert("Piggy-filter", "maxpiggy=10; rpv=\"3,4\"");
        let got = request_round_trip(&req);
        assert_eq!(got.method, "GET");
        assert_eq!(got.target, "/mafia.html");
        assert_eq!(
            got.headers.get("piggy-filter"),
            Some("maxpiggy=10; rpv=\"3,4\"")
        );
        assert!(got.body.is_empty());
        assert!(got.keep_alive());
    }

    #[test]
    fn request_with_body_gets_content_length() {
        let mut req = Request::new("POST", "/submit");
        req.body = b"payload".into();
        let mut wire = Vec::new();
        req.write(&mut wire).unwrap();
        let s = String::from_utf8(wire).unwrap();
        assert!(s.contains("Content-Length: 7"));
        let got = request_round_trip(&req);
        assert_eq!(got.body, b"payload");
    }

    #[test]
    fn bad_request_lines_rejected() {
        for wire in [
            "GET /x\r\n\r\n",
            "\r\n\r\n",
            "GET /x HTTP/2.0 extra\r\n\r\n",
        ] {
            let r = Request::read(&mut BufReader::new(wire.as_bytes()));
            assert!(r.is_err(), "{wire:?} should fail");
        }
        let r = Request::read(&mut BufReader::new(&b"GET /x HTTP/3.0\r\n\r\n"[..]));
        assert!(matches!(r, Err(HttpError::BadVersion(_))));
    }

    #[test]
    fn response_content_length_round_trip() {
        let mut resp = Response::new(200);
        resp.headers.insert("Content-Type", "text/html");
        resp.body = b"<html>hi</html>".into();
        let got = response_round_trip(&resp, false);
        assert_eq!(got.status, 200);
        assert_eq!(got.reason, "OK");
        assert_eq!(got.body, resp.body);
        assert!(got.trailers.is_empty());
    }

    #[test]
    fn response_with_trailers_uses_chunked() {
        let mut resp = Response::new(200);
        resp.body = b"data".into();
        resp.trailers
            .insert("P-volume", "12; \"/a.html\" 886000000 100");
        let mut wire = Vec::new();
        resp.write(&mut wire).unwrap();
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("Trailer: P-volume"));
        // Trailer value appears after the terminal chunk.
        let zero_pos = text.find("\r\n0\r\n").expect("terminal chunk");
        let pv_pos = text.find("P-volume: 12").expect("trailer present");
        assert!(pv_pos > zero_pos, "piggyback must not delay the body");

        let got = response_round_trip(&resp, false);
        assert_eq!(got.body, b"data");
        assert_eq!(
            got.trailers.get("P-volume"),
            Some("12; \"/a.html\" 886000000 100")
        );
    }

    /// End-to-end injection guard: every construction path for header and
    /// trailer maps rejects CR/LF, so a serialized message can never carry
    /// a line the caller didn't put there.
    #[test]
    fn crlf_values_cannot_split_header_or_trailer_lines() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mut resp = Response::new(200);
        resp.body = b"ok".into();
        // Untrusted path refuses...
        assert!(resp
            .headers
            .try_insert("X-Cache", "HIT\r\nInjected: header")
            .is_err());
        assert!(resp
            .trailers
            .try_insert("P-volume", "1;\r\nInjected: trailer")
            .is_err());
        // ...and the trusted path panics instead of writing it through.
        assert!(catch_unwind(AssertUnwindSafe(|| {
            resp.headers.insert("X-Cache", "HIT\r\nInjected: header")
        }))
        .is_err());
        assert!(catch_unwind(AssertUnwindSafe(|| {
            resp.trailers.insert("P-volume", "1;\r\nInjected: trailer")
        }))
        .is_err());
        resp.headers.insert("X-Cache", "HIT");
        resp.trailers.insert("P-volume", "1;");
        let mut wire = Vec::new();
        resp.write(&mut wire).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(!text.contains("Injected"), "no injected line on the wire");
        // Same guarantee on the request side.
        let mut req = Request::new("GET", "/x");
        assert!(catch_unwind(AssertUnwindSafe(|| {
            req.headers
                .insert("Piggy-filter", "maxpiggy=5\r\nHost: evil")
        }))
        .is_err());
        let mut wire = Vec::new();
        req.write(&mut wire).unwrap();
        assert!(!String::from_utf8(wire).unwrap().contains("evil"));
    }

    #[test]
    fn not_modified_has_no_body() {
        let mut resp = Response::new(304);
        resp.trailers.insert("P-volume", "1;");
        let mut wire = Vec::new();
        resp.write(&mut wire).unwrap();
        let text = String::from_utf8(wire).unwrap();
        // 304 must not be chunked even if trailers were requested; the
        // piggyback is dropped rather than the framing corrupted.
        assert!(!text.contains("Transfer-Encoding"));
        let got = Response::read(&mut BufReader::new(text.as_bytes()), false).unwrap();
        assert_eq!(got.status, 304);
        assert!(got.body.is_empty());
    }

    #[test]
    fn head_response_body_suppressed() {
        let mut resp = Response::new(200);
        resp.headers.insert("Content-Length", "100");
        let mut wire = Vec::new();
        // Hand-write: headers claim 100 bytes but none follow (HEAD).
        resp.write(&mut wire).unwrap();
        // write() emits Content-Length: 0 since body is empty; build the
        // HEAD wire manually instead.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n";
        let got = Response::read(&mut BufReader::new(&wire[..]), true).unwrap();
        assert!(got.body.is_empty());
    }

    #[test]
    fn http10_close_delimited_body() {
        let wire = b"HTTP/1.0 200 OK\r\n\r\nstream-until-close";
        let got = Response::read(&mut BufReader::new(&wire[..]), false).unwrap();
        assert_eq!(got.body, b"stream-until-close");
        assert!(!got.keep_alive());
    }

    #[test]
    fn keep_alive_semantics() {
        let mut req = Request::new("GET", "/");
        assert!(req.keep_alive(), "1.1 defaults to keep-alive");
        req.headers.insert("Connection", "close");
        assert!(!req.keep_alive());
        let mut r10 = Request::new("GET", "/");
        r10.version = Version::Http10;
        assert!(!r10.keep_alive(), "1.0 defaults to close");
        r10.headers.insert("Connection", "keep-alive");
        assert!(r10.keep_alive());
    }

    #[test]
    fn chunked_request_body() {
        let wire = b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n";
        let got = Request::read(&mut BufReader::new(&wire[..])).unwrap();
        assert_eq!(got.body, b"abc");
    }

    /// `write_with` must emit exactly the bytes `write` does, across every
    /// framing mode (Content-Length, chunked + trailers, bodiless), for
    /// bodies spanning multiple chunks, and when the scratch is reused.
    #[test]
    fn write_with_is_byte_identical_to_write() {
        let mut scratch = ConnScratch::new();
        let mut responses = Vec::new();
        let mut cl = Response::new(200);
        cl.headers.insert("Content-Type", "text/html");
        cl.body = b"<html>hi</html>".into();
        responses.push(cl);
        let mut chunked = Response::new(200);
        chunked.headers.insert("X-Cache", "MISS");
        chunked.body = vec![b'x'; 20_000].into(); // > 2 chunks at 8 KiB
        chunked
            .trailers
            .insert("P-volume", "7; \"/a.html\" 886000000 1024");
        chunked.trailers.insert("X-Extra", "1");
        responses.push(chunked);
        let mut empty_chunked = Response::new(200);
        empty_chunked.trailers.insert("P-volume", "1;");
        responses.push(empty_chunked);
        let mut bodiless = Response::new(304);
        bodiless.headers.insert("Last-Modified", "now");
        responses.push(bodiless);
        responses.push(Response::new(204));
        for resp in &responses {
            let mut seed = Vec::new();
            resp.write(&mut seed).unwrap();
            let mut fast = Vec::new();
            resp.write_with(&mut fast, &mut scratch).unwrap();
            assert_eq!(
                fast,
                seed,
                "status {} body {}B trailers {}",
                resp.status,
                resp.body.len(),
                resp.trailers.len()
            );
        }
        // Requests too.
        let mut req = Request::new("GET", "/mafia.html");
        req.headers.insert("Host", "sig.com");
        req.headers.insert("TE", "chunked");
        let mut post = Request::new("POST", "/submit");
        post.body = b"payload".into();
        for req in [&req, &post] {
            let mut seed = Vec::new();
            req.write(&mut seed).unwrap();
            let mut fast = Vec::new();
            req.write_with(&mut fast, &mut scratch).unwrap();
            assert_eq!(fast, seed, "{} {}", req.method, req.target);
        }
    }

    /// Regression: a `Content-Length` larger than the cap is rejected
    /// *before* any body-sized allocation, and a peer that declares a big
    /// body but never sends it can't pin more than one read window.
    #[test]
    fn adversarial_content_length_cannot_force_a_huge_allocation() {
        // Over the cap: rejected up front.
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 1000000\r\n\r\n";
        let mut req = Request::empty();
        let mut scratch = ConnScratch::new();
        let err = req
            .read_into_capped(&mut BufReader::new(&wire[..]), &mut scratch, 64 * 1024)
            .unwrap_err();
        assert!(matches!(err, HttpError::LimitExceeded("body cap")));
        assert!(err.body_too_large());
        assert_eq!(scratch.body_vec.capacity(), 0, "no allocation happened");

        // Under the cap but the peer hangs up after 10 bytes: the buffer
        // only ever grew by bounded windows, not the full claim.
        let mut wire = b"POST /x HTTP/1.1\r\nContent-Length: 50000000\r\n\r\n".to_vec();
        wire.extend_from_slice(&[b'a'; 10]);
        let err = req
            .read_into(&mut BufReader::new(wire.as_slice()), &mut scratch)
            .unwrap_err();
        assert!(matches!(err, HttpError::ConnectionClosed));
        assert!(
            scratch.body_vec.capacity() <= 256 * 1024,
            "windowed read allocated {} for a 50 MB claim",
            scratch.body_vec.capacity()
        );

        // Same guarantee on the response side.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 1000000\r\n\r\n";
        let err =
            Response::read_capped(&mut BufReader::new(&wire[..]), false, 64 * 1024).unwrap_err();
        assert!(matches!(err, HttpError::LimitExceeded("body cap")));
        assert!(err.body_too_large());

        // Chunked bodies honor the same cap.
        let mut wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        crate::chunked::write_chunked(&mut wire, &vec![b'x'; 100_000], &HeaderMap::new(), 8 * 1024)
            .unwrap();
        let err = Response::read_capped(&mut BufReader::new(wire.as_slice()), false, 64 * 1024)
            .unwrap_err();
        assert!(err.body_too_large());
    }

    #[test]
    fn capped_reads_accept_bodies_under_the_cap() {
        let wire = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nwxyz";
        let mut req = Request::empty();
        let mut scratch = ConnScratch::new();
        req.read_into_capped(&mut BufReader::new(&wire[..]), &mut scratch, 64)
            .unwrap();
        assert_eq!(req.body, b"wxyz");
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi";
        let resp = Response::read_capped(&mut BufReader::new(&wire[..]), false, 64).unwrap();
        assert_eq!(resp.body, b"hi");
        assert_eq!(reason_phrase(413), "Payload Too Large");
    }

    /// `read_head` + `read_rest` must reconstruct exactly what one-shot
    /// `read` parses, across every framing mode.
    #[test]
    fn split_head_rest_reads_match_read() {
        let mut responses = Vec::new();
        let mut cl = Response::new(200);
        cl.headers.insert("Content-Type", "text/html");
        cl.body = vec![b'y'; 20_000].into();
        responses.push(cl);
        let mut chunked = Response::new(200);
        chunked.body = vec![b'z'; 30_000].into();
        chunked
            .trailers
            .insert("P-volume", "3; \"/v.html\" 886000000 64");
        responses.push(chunked);
        responses.push(Response::new(304));
        for resp in &responses {
            let mut wire = Vec::new();
            resp.write(&mut wire).unwrap();
            let whole = Response::read(&mut BufReader::new(wire.as_slice()), false).unwrap();
            let mut r = BufReader::new(wire.as_slice());
            let mut split = Response::read_head(&mut r).unwrap();
            assert!(split.body.is_empty(), "head read must not consume the body");
            split.read_rest(&mut r, MAX_BODY).unwrap();
            assert_eq!(split, whole, "status {}", resp.status);
        }
    }

    /// A reused `Request` + scratch parses a stream of pipelined requests
    /// with the same results as fresh `Request::read` calls.
    #[test]
    fn read_into_reuses_and_matches_read() {
        let wire = b"GET /a.html HTTP/1.1\r\nHost: one\r\nTE: chunked\r\n\r\n\
                     POST /b HTTP/1.1\r\nContent-Length: 4\r\n\r\nwxyz\
                     GET /ccc HTTP/1.0\r\n\r\n";
        let mut fresh_reader = BufReader::new(&wire[..]);
        let mut reuse_reader = BufReader::new(&wire[..]);
        let mut req = Request::empty();
        let mut scratch = ConnScratch::new();
        for _ in 0..3 {
            let fresh = Request::read(&mut fresh_reader).unwrap();
            req.read_into(&mut reuse_reader, &mut scratch).unwrap();
            assert_eq!(req, fresh);
        }
        assert!(matches!(
            req.read_into(&mut reuse_reader, &mut scratch),
            Err(HttpError::ConnectionClosed)
        ));
    }
}

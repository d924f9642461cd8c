//! Incremental body framing for the streaming cut-through path.
//!
//! The buffered readers ([`crate::Request::read_into`],
//! [`crate::Response::read`]) materialize the whole body before a single
//! downstream byte moves, which makes TTFB equal the full transfer time
//! for multi-MB objects. This module frames bodies in *bounded segments*
//! instead:
//!
//! * [`BodyReader`] is a resumable decoder: feed it byte slices as they
//!   arrive (from a `BufRead` fill or a reactor read buffer) and it
//!   appends decoded payload bytes to a caller-owned sink, telling you
//!   exactly how many input bytes it consumed — leftover bytes belong to
//!   the next message on a keep-alive connection.
//! * [`BodyWriter`] is the matching encoder: push payload segments and it
//!   emits wire bytes that are **byte-identical** to the buffered writers
//!   (`Content-Length` passthrough, or chunked at the same 8 KiB chunk
//!   granularity as [`crate::Response::write`], regardless of how the
//!   segments were sliced).
//! * [`encode_stream_head`] serializes a response head for a body that is
//!   not materialized yet, identical to the head `Response::write` would
//!   produce for the same headers and framing.
//!
//! Neither type allocates per segment in steady state: the reader's line
//! buffer and the writer's pending-chunk buffer reach a fixed capacity
//! and are reused, which is what the streaming-relay alloc lane asserts.

use crate::error::HttpError;
use crate::headers::HeaderMap;
use crate::message::{push_field, push_hex, Response};
use crate::parse::{find_byte, push_field_line, MAX_BODY, MAX_HEADERS, MAX_LINE};
use std::io::{BufRead, Write};

/// Chunk granularity of the buffered chunked writer
/// ([`crate::Response::write`] / `write_with`). [`BodyWriter`] re-chunks
/// arbitrary segments to this size so streamed wire output is
/// byte-identical to the buffered path.
pub const STREAM_CHUNK: usize = 8 * 1024;

/// How a streamed body is framed on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFraming {
    /// `Content-Length: n` — raw payload bytes follow the head.
    Length(usize),
    /// `Transfer-Encoding: chunked` — re-chunked at [`STREAM_CHUNK`].
    Chunked,
}

#[derive(Debug)]
enum RState {
    /// Fixed-length body: `remaining` payload bytes left.
    Length {
        remaining: usize,
    },
    /// Accumulating a chunk-size line into `line`.
    ChunkSize,
    /// Inside chunk data: `remaining` payload bytes left in this chunk.
    ChunkData {
        remaining: usize,
    },
    /// Expecting the `\r` after chunk data.
    ChunkCr,
    /// Expecting the `\n` after chunk data.
    ChunkLf,
    /// Accumulating trailer lines into `line`.
    Trailers,
    Done,
}

/// Resumable incremental body decoder.
///
/// Construct with [`length`](BodyReader::length) or
/// [`chunked`](BodyReader::chunked) once the message head has been
/// parsed, then [`push`](BodyReader::push) input slices as they arrive.
/// Decoded payload bytes are appended to the caller's sink; the return
/// value says how much input was consumed (the rest belongs to the next
/// message). Chunked trailers accumulate in
/// [`trailers`](BodyReader::trailers).
#[derive(Debug)]
pub struct BodyReader {
    state: RState,
    line: Vec<u8>,
    trailers: HeaderMap,
    decoded: usize,
    cap: usize,
}

impl BodyReader {
    /// Decoder for a `Content-Length: total` body.
    pub fn length(total: usize) -> Self {
        Self::new(StreamFraming::Length(total))
    }

    /// Decoder for a chunked body. Total decoded size is guarded by the
    /// same [`MAX_BODY`] limit as the buffered reader (the streaming
    /// relay never buffers that much, but a lying peer still can't stream
    /// forever into a capped consumer).
    pub fn chunked() -> Self {
        Self::new(StreamFraming::Chunked)
    }

    /// Decoder for a body framed as `framing`.
    pub fn new(framing: StreamFraming) -> Self {
        let mut reader = BodyReader {
            state: RState::Done,
            line: Vec::new(),
            trailers: HeaderMap::new(),
            decoded: 0,
            cap: 0,
        };
        reader.reset(framing);
        reader
    }

    /// Re-arm for the next body on the same connection. The line buffer
    /// and the trailer map's buffers are kept, so a relay that holds one
    /// reader per connection decodes every later message without
    /// allocating.
    pub fn reset(&mut self, framing: StreamFraming) {
        (self.state, self.cap) = match framing {
            StreamFraming::Length(0) => (RState::Done, usize::MAX),
            StreamFraming::Length(total) => (RState::Length { remaining: total }, usize::MAX),
            StreamFraming::Chunked => (RState::ChunkSize, MAX_BODY),
        };
        self.line.clear();
        self.trailers.clear();
        self.decoded = 0;
    }

    /// Has the body (including any trailer section) been fully decoded?
    pub fn is_done(&self) -> bool {
        matches!(self.state, RState::Done)
    }

    /// Total payload bytes decoded so far.
    pub fn decoded(&self) -> usize {
        self.decoded
    }

    /// Trailer headers (populated once a chunked body reaches its
    /// trailer section; empty for fixed-length bodies).
    pub fn trailers(&self) -> &HeaderMap {
        &self.trailers
    }

    /// Feed `input` to a `Content-Length` body without copying it: its
    /// payload bytes are `input[..n]` for the returned `n`, counted as
    /// decoded and left where they are. `None`, with nothing consumed,
    /// for a chunked body — its payload is not contiguous on the wire —
    /// and for a body already done; [`push`](Self::push) decodes those.
    pub fn pass(&mut self, input: &[u8]) -> Option<usize> {
        let RState::Length { remaining } = &mut self.state else {
            return None;
        };
        let take = (*remaining).min(input.len());
        *remaining -= take;
        self.decoded += take;
        if *remaining == 0 {
            self.state = RState::Done;
        }
        Some(take)
    }

    /// Feed `input`; decoded payload bytes are appended to `sink`.
    /// Returns the number of input bytes consumed. Once the body is done
    /// the remaining bytes are left unconsumed for the next message.
    pub fn push(&mut self, input: &[u8], sink: &mut Vec<u8>) -> Result<usize, HttpError> {
        let mut pos = 0;
        while pos < input.len() {
            match self.state {
                RState::Done => break,
                RState::Length { ref mut remaining } => {
                    let take = (*remaining).min(input.len() - pos);
                    sink.extend_from_slice(&input[pos..pos + take]);
                    pos += take;
                    self.decoded += take;
                    *remaining -= take;
                    if *remaining == 0 {
                        self.state = RState::Done;
                    }
                }
                RState::ChunkData { ref mut remaining } => {
                    let take = (*remaining).min(input.len() - pos);
                    sink.extend_from_slice(&input[pos..pos + take]);
                    pos += take;
                    self.decoded += take;
                    *remaining -= take;
                    if *remaining == 0 {
                        self.state = RState::ChunkCr;
                    }
                }
                RState::ChunkCr => {
                    if input[pos] != b'\r' {
                        return Err(HttpError::BadChunkSize("missing chunk CRLF".into()));
                    }
                    pos += 1;
                    self.state = RState::ChunkLf;
                }
                RState::ChunkLf => {
                    if input[pos] != b'\n' {
                        return Err(HttpError::BadChunkSize("missing chunk CRLF".into()));
                    }
                    pos += 1;
                    self.state = RState::ChunkSize;
                }
                RState::ChunkSize => {
                    if !self.take_line(input, &mut pos)? {
                        break; // need more input
                    }
                    let text = std::str::from_utf8(&self.line)
                        .map_err(|_| HttpError::BadChunkSize("non-UTF8 size line".into()))?;
                    // Chunk extensions (";ext=...") are allowed and ignored.
                    let size_part = text.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(size_part, 16)
                        .map_err(|_| HttpError::BadChunkSize(text.to_owned()))?;
                    if self
                        .decoded
                        .checked_add(size)
                        .is_none_or(|total| total > self.cap)
                    {
                        return Err(HttpError::LimitExceeded("chunked body size"));
                    }
                    self.line.clear();
                    self.state = if size == 0 {
                        RState::Trailers
                    } else {
                        RState::ChunkData { remaining: size }
                    };
                }
                RState::Trailers => {
                    if !self.take_line(input, &mut pos)? {
                        break;
                    }
                    if self.line.is_empty() {
                        self.state = RState::Done;
                        continue;
                    }
                    if self.trailers.len() >= MAX_HEADERS {
                        return Err(HttpError::LimitExceeded("trailer count"));
                    }
                    push_field_line(&mut self.trailers, &self.line)?;
                    self.line.clear();
                }
            }
        }
        Ok(pos)
    }

    /// Accumulate bytes of `input` into `self.line` until a full line
    /// (terminator stripped, CRLF or bare LF) is present. Returns whether
    /// a complete line is ready; `pos` advances past consumed bytes.
    fn take_line(&mut self, input: &[u8], pos: &mut usize) -> Result<bool, HttpError> {
        match find_byte(&input[*pos..], b'\n') {
            Some(nl) => {
                self.line.extend_from_slice(&input[*pos..*pos + nl]);
                *pos += nl + 1;
                if self.line.last() == Some(&b'\r') {
                    self.line.pop();
                }
                if self.line.len() > MAX_LINE {
                    return Err(HttpError::LimitExceeded("line length"));
                }
                Ok(true)
            }
            None => {
                self.line.extend_from_slice(&input[*pos..]);
                *pos = input.len();
                if self.line.len() > MAX_LINE {
                    return Err(HttpError::LimitExceeded("line length"));
                }
                Ok(false)
            }
        }
    }

    /// Blocking convenience for the threaded engine: decode from `r`
    /// until `sink` holds at least `min_fill` payload bytes or the body
    /// is complete. `sink` is cleared first. Returns the segment length
    /// (0 only when the body was already done).
    pub fn read_segment<R: BufRead>(
        &mut self,
        r: &mut R,
        sink: &mut Vec<u8>,
        min_fill: usize,
    ) -> Result<usize, HttpError> {
        sink.clear();
        while !self.is_done() && sink.len() < min_fill.max(1) {
            let available = r.fill_buf()?;
            if available.is_empty() {
                return Err(HttpError::ConnectionClosed);
            }
            // Borrow-split: push can't take `r` and `available` together.
            let consumed = {
                let mut tmp = std::mem::take(sink);
                let res = self.push(available, &mut tmp);
                *sink = tmp;
                res?
            };
            r.consume(consumed);
        }
        Ok(sink.len())
    }
}

/// Incremental body encoder, byte-identical to the buffered writers.
///
/// Push payload segments of any size; full [`STREAM_CHUNK`]-sized chunks
/// are emitted as soon as available and the final partial chunk (plus the
/// terminal chunk and trailer section) on [`finish`](BodyWriter::finish),
/// so the wire bytes match `write_chunked(body, trailers, 8 * 1024)`
/// exactly no matter how the body was segmented.
#[derive(Debug)]
pub struct BodyWriter {
    /// `Some(n)`: raw `Content-Length` passthrough with `n` payload bytes
    /// still owed. `None`: re-chunking at [`STREAM_CHUNK`].
    owed: Option<usize>,
    /// The partial chunk a chunked body has accumulated so far.
    pending: Vec<u8>,
    hdr: Vec<u8>,
    written: usize,
}

impl BodyWriter {
    /// Encoder for a `Content-Length: total` body (raw passthrough).
    pub fn length(total: usize) -> Self {
        Self::new(StreamFraming::Length(total))
    }

    /// Encoder for a chunked body.
    pub fn chunked() -> Self {
        Self::new(StreamFraming::Chunked)
    }

    fn new(framing: StreamFraming) -> Self {
        let mut writer = BodyWriter {
            owed: None,
            pending: Vec::new(),
            hdr: Vec::new(),
            written: 0,
        };
        writer.reset(framing);
        writer
    }

    /// Re-arm for the next body on the same connection, keeping the
    /// partial-chunk and chunk-header buffers (see [`BodyReader::reset`]).
    pub fn reset(&mut self, framing: StreamFraming) {
        self.pending.clear();
        self.written = 0;
        self.owed = match framing {
            StreamFraming::Length(total) => Some(total),
            StreamFraming::Chunked => {
                self.pending.reserve(STREAM_CHUNK);
                None
            }
        };
    }

    /// Total payload bytes accepted so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Encode one payload segment onto `w`.
    pub fn push<W: Write>(&mut self, seg: &[u8], w: &mut W) -> std::io::Result<()> {
        self.written += seg.len();
        if let Some(owed) = &mut self.owed {
            if seg.len() > *owed {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "body longer than declared Content-Length",
                ));
            }
            *owed -= seg.len();
            return w.write_all(seg);
        }
        let pending = &mut self.pending;
        let mut seg = seg;
        // Top up a pending partial chunk first.
        if !pending.is_empty() {
            let take = (STREAM_CHUNK - pending.len()).min(seg.len());
            pending.extend_from_slice(&seg[..take]);
            seg = &seg[take..];
            if pending.len() == STREAM_CHUNK {
                Self::emit_chunk(&mut self.hdr, pending, w)?;
                pending.clear();
            }
        }
        // Full chunks straight from the segment, no copy.
        while seg.len() >= STREAM_CHUNK {
            Self::emit_chunk(&mut self.hdr, &seg[..STREAM_CHUNK], w)?;
            seg = &seg[STREAM_CHUNK..];
        }
        pending.extend_from_slice(seg);
        Ok(())
    }

    fn emit_chunk<W: Write>(hdr: &mut Vec<u8>, chunk: &[u8], w: &mut W) -> std::io::Result<()> {
        hdr.clear();
        push_hex(hdr, chunk.len());
        hdr.extend_from_slice(b"\r\n");
        crate::scratch::write_all_parts(w, &[hdr.as_slice(), chunk, b"\r\n"])
    }

    /// Finish the body: flush any partial chunk, then the terminal chunk
    /// and trailer section (chunked), or validate the declared length was
    /// met (`Content-Length`).
    pub fn finish<W: Write>(&mut self, trailers: &HeaderMap, w: &mut W) -> std::io::Result<()> {
        match self.owed {
            Some(0) => Ok(()),
            Some(_) => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "body shorter than declared Content-Length",
            )),
            None => {
                if !self.pending.is_empty() {
                    Self::emit_chunk(&mut self.hdr, &self.pending, w)?;
                    self.pending.clear();
                }
                self.hdr.clear();
                self.hdr.extend_from_slice(b"0\r\n");
                for (name, value) in trailers.iter() {
                    push_field(&mut self.hdr, name, value);
                }
                self.hdr.extend_from_slice(b"\r\n");
                w.write_all(&self.hdr)
            }
        }
    }
}

/// Serialize the head of `resp` for a streamed body, byte-identical to
/// the head [`Response::write`] emits for the same headers and framing.
/// Framing headers in `resp.headers` (`Content-Length`,
/// `Transfer-Encoding`, `Trailer`) are skipped and recomputed from
/// `framing`; the `Trailer` announce line comes from `resp.trailers`
/// (callers that will send no trailers leave it empty). A bodiless status
/// (1xx, 204, 304) gets no framing headers at all, as in `Response::write`.
pub fn encode_stream_head(resp: &Response, framing: StreamFraming, out: &mut Vec<u8>) {
    resp.encode_head(
        (!Response::bodiless_status(resp.status)).then_some(framing),
        out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::write_chunked;
    use std::io::BufReader;

    fn pattern(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// Push `wire` into a reader in slices of `step` bytes, collecting
    /// decoded output. Returns (decoded, consumed).
    fn decode_in_steps(r: &mut BodyReader, wire: &[u8], step: usize) -> (Vec<u8>, usize) {
        let mut sink = Vec::new();
        let mut consumed = 0;
        while consumed < wire.len() && !r.is_done() {
            let end = (consumed + step).min(wire.len());
            consumed += r.push(&wire[consumed..end], &mut sink).unwrap();
            if r.is_done() {
                break;
            }
        }
        (sink, consumed)
    }

    #[test]
    fn length_reader_decodes_and_stops_at_boundary() {
        let body = pattern(1000);
        let mut wire = body.clone();
        wire.extend_from_slice(b"NEXT MESSAGE");
        for step in [1, 7, 64, 4096] {
            let mut r = BodyReader::length(1000);
            let (sink, consumed) = decode_in_steps(&mut r, &wire, step);
            assert!(r.is_done());
            assert_eq!(sink, body, "step {step}");
            assert_eq!(consumed, 1000, "step {step}: must not eat the next message");
            assert_eq!(r.decoded(), 1000);
        }
        let mut r = BodyReader::length(0);
        assert!(r.is_done());
        assert_eq!(r.push(b"xyz", &mut Vec::new()).unwrap(), 0);
    }

    #[test]
    fn length_reader_passes_payload_in_place() {
        let mut wire = pattern(1000);
        wire.extend_from_slice(b"NEXT MESSAGE");
        for step in [1, 7, 64, 4096] {
            let mut r = BodyReader::length(1000);
            let mut passed = Vec::new();
            let mut at = 0;
            while !r.is_done() {
                let input = &wire[at..(at + step).min(wire.len())];
                let n = r.pass(input).expect("a length body passes");
                passed.extend_from_slice(&input[..n]);
                at += n;
            }
            assert_eq!(passed, &wire[..1000], "step {step}");
            assert_eq!(r.decoded(), 1000);
            assert_eq!(r.pass(b"xyz"), None, "a done body consumes nothing");
        }
        assert_eq!(BodyReader::chunked().pass(b"3\r\nabc"), None);
    }

    #[test]
    fn chunked_reader_matches_buffered_decoder_at_any_slicing() {
        let body = pattern(20_000);
        let mut trailers = HeaderMap::new();
        trailers.insert("P-volume", "7; \"/a.html\" 886000000 1024");
        trailers.insert("X-Extra", "1");
        let mut wire = Vec::new();
        write_chunked(&mut wire, &body, &trailers, 8 * 1024).unwrap();
        wire.extend_from_slice(b"GET /next HTTP/1.1\r\n");
        let tail = wire.len() - b"GET /next HTTP/1.1\r\n".len();
        for step in [1, 2, 3, 13, 1024, 100_000] {
            let mut r = BodyReader::chunked();
            let (sink, consumed) = decode_in_steps(&mut r, &wire, step);
            assert!(r.is_done(), "step {step}");
            assert_eq!(sink, body, "step {step}");
            assert_eq!(consumed, tail, "step {step}");
            assert_eq!(
                r.trailers().get("p-volume"),
                Some("7; \"/a.html\" 886000000 1024")
            );
            assert_eq!(r.trailers().get("x-extra"), Some("1"));
        }
    }

    #[test]
    fn chunked_reader_handles_extensions_and_rejects_garbage() {
        let mut r = BodyReader::chunked();
        let mut sink = Vec::new();
        r.push(b"5;ext=1\r\nhello\r\n0\r\n\r\n", &mut sink).unwrap();
        assert!(r.is_done());
        assert_eq!(sink, b"hello");

        let mut r = BodyReader::chunked();
        assert!(matches!(
            r.push(b"zz\r\n", &mut Vec::new()),
            Err(HttpError::BadChunkSize(_))
        ));
        let mut r = BodyReader::chunked();
        assert!(matches!(
            r.push(b"2\r\nhiXX", &mut Vec::new()),
            Err(HttpError::BadChunkSize(_))
        ));
        // Adversarial size line cannot overflow the cap.
        let mut r = BodyReader::chunked();
        assert!(matches!(
            r.push(b"ffffffffffffffff\r\n", &mut Vec::new()),
            Err(HttpError::LimitExceeded("chunked body size"))
        ));
    }

    #[test]
    fn read_segment_bounds_each_fill() {
        let body = pattern(100_000);
        let mut wire = Vec::new();
        write_chunked(&mut wire, &body, &HeaderMap::new(), 8 * 1024).unwrap();
        let mut reader = BufReader::with_capacity(4096, wire.as_slice());
        let mut r = BodyReader::chunked();
        let mut sink = Vec::new();
        let mut got = Vec::new();
        let mut segments = 0;
        loop {
            let n = r.read_segment(&mut reader, &mut sink, 16 * 1024).unwrap();
            if n == 0 {
                break;
            }
            assert!(sink.len() <= 16 * 1024 + 4096, "bounded segment");
            got.extend_from_slice(&sink);
            segments += 1;
        }
        assert_eq!(got, body);
        assert!(segments >= 5, "body spanned multiple segments: {segments}");
        // Truncation surfaces as ConnectionClosed.
        let mut short = BufReader::new(&wire[..wire.len() / 2]);
        let mut r = BodyReader::chunked();
        loop {
            match r.read_segment(&mut short, &mut sink, 16 * 1024) {
                Ok(0) => panic!("truncated body must not complete"),
                Ok(_) => continue,
                Err(HttpError::ConnectionClosed) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    }

    #[test]
    fn writer_is_byte_identical_to_buffered_chunked_writer() {
        let mut trailers = HeaderMap::new();
        trailers.insert("P-volume", "3; \"/x\" 1 2");
        for len in [0usize, 1, 8191, 8192, 8193, 20_000, 65_536] {
            let body = pattern(len);
            let mut seed = Vec::new();
            write_chunked(&mut seed, &body, &trailers, 8 * 1024).unwrap();
            for step in [1, 7, 1000, 8192, 12_345, 100_000] {
                let mut w = BodyWriter::chunked();
                let mut wire = Vec::new();
                for seg in body.chunks(step.max(1)) {
                    w.push(seg, &mut wire).unwrap();
                }
                w.finish(&trailers, &mut wire).unwrap();
                assert_eq!(wire, seed, "len {len} step {step}");
                assert_eq!(w.written(), len);
            }
        }
    }

    #[test]
    fn length_writer_validates_declared_size() {
        let mut w = BodyWriter::length(5);
        let mut wire = Vec::new();
        w.push(b"he", &mut wire).unwrap();
        w.push(b"llo", &mut wire).unwrap();
        w.finish(&HeaderMap::new(), &mut wire).unwrap();
        assert_eq!(wire, b"hello");

        let mut w = BodyWriter::length(3);
        assert!(w.push(b"toolong", &mut Vec::new()).is_err());
        let mut w = BodyWriter::length(9);
        w.push(b"short", &mut Vec::new()).unwrap();
        assert!(w.finish(&HeaderMap::new(), &mut Vec::new()).is_err());
    }

    /// head + streamed body must equal `Response::write` byte-for-byte.
    #[test]
    fn streamed_response_is_byte_identical_to_buffered_write() {
        // Content-Length framing.
        let mut resp = Response::new(200);
        resp.headers.insert("Content-Type", "text/html");
        resp.headers.insert("X-Cache", "MISS");
        resp.body = pattern(30_000).into();
        let mut seed = Vec::new();
        resp.write(&mut seed).unwrap();
        let mut wire = Vec::new();
        encode_stream_head(&resp, StreamFraming::Length(resp.body.len()), &mut wire);
        let mut w = BodyWriter::length(resp.body.len());
        for seg in resp.body.as_slice().chunks(4096) {
            w.push(seg, &mut wire).unwrap();
        }
        w.finish(&HeaderMap::new(), &mut wire).unwrap();
        assert_eq!(wire, seed);

        // Chunked framing with trailers.
        let mut resp = Response::new(200);
        resp.headers.insert("X-Cache", "MISS");
        resp.body = pattern(20_000).into();
        resp.trailers.insert("P-volume", "7; \"/a.html\" 1 2");
        let mut seed = Vec::new();
        resp.write(&mut seed).unwrap();
        let mut wire = Vec::new();
        encode_stream_head(&resp, StreamFraming::Chunked, &mut wire);
        let mut w = BodyWriter::chunked();
        for seg in resp.body.as_slice().chunks(1000) {
            w.push(seg, &mut wire).unwrap();
        }
        w.finish(&resp.trailers, &mut wire).unwrap();
        assert_eq!(wire, seed);

        // Chunked framing, no trailers (client-facing relay shape): the
        // buffered equivalent is a response with an explicit TE header.
        let mut resp = Response::new(200);
        resp.headers.insert("Transfer-Encoding", "chunked");
        resp.body = pattern(9000).into();
        let mut seed = Vec::new();
        resp.write(&mut seed).unwrap();
        let mut wire = Vec::new();
        encode_stream_head(&resp, StreamFraming::Chunked, &mut wire);
        let mut w = BodyWriter::chunked();
        w.push(resp.body.as_slice(), &mut wire).unwrap();
        w.finish(&HeaderMap::new(), &mut wire).unwrap();
        assert_eq!(wire, seed);
    }

    /// A bodiless status carries no framing headers in either writer, so
    /// a relay can send a 304 or 204 through the same head + (empty) body
    /// path as everything else.
    #[test]
    fn bodiless_head_is_byte_identical_to_buffered_write() {
        for status in [204u16, 304] {
            let mut resp = Response::new(status);
            resp.headers.insert("Last-Modified", "now");
            resp.headers.insert("Content-Length", "100");
            let mut seed = Vec::new();
            resp.write(&mut seed).unwrap();
            let mut wire = Vec::new();
            encode_stream_head(&resp, StreamFraming::Length(0), &mut wire);
            let mut w = BodyWriter::length(0);
            w.finish(&HeaderMap::new(), &mut wire).unwrap();
            assert_eq!(wire, seed, "status {status}");
        }
    }

    /// One reader and one writer re-armed across messages of either
    /// framing behave exactly like freshly constructed ones.
    #[test]
    fn reset_reader_and_writer_match_fresh_ones() {
        let mut trailers = HeaderMap::new();
        trailers.insert("T", "v");
        let mut r = BodyReader::length(0);
        let mut w = BodyWriter::length(0);
        for (len, chunked) in [(20_000usize, true), (5, false), (9000, true), (0, false)] {
            let body = pattern(len);
            let framing = if chunked {
                StreamFraming::Chunked
            } else {
                StreamFraming::Length(len)
            };
            let mut seed = Vec::new();
            if chunked {
                write_chunked(&mut seed, &body, &trailers, STREAM_CHUNK).unwrap();
            } else {
                seed.extend_from_slice(&body);
            }
            w.reset(framing);
            let mut wire = Vec::new();
            for seg in body.chunks(3000) {
                w.push(seg, &mut wire).unwrap();
            }
            w.finish(&trailers, &mut wire).unwrap();
            assert_eq!(wire, seed, "len {len} chunked {chunked}");
            assert_eq!(w.written(), len);

            r.reset(framing);
            let (decoded, consumed) = decode_in_steps(&mut r, &wire, 777);
            assert!(r.is_done());
            assert_eq!(decoded, body);
            assert_eq!(consumed, wire.len());
            assert_eq!(r.decoded(), len);
            assert_eq!(r.trailers().len(), usize::from(chunked), "stale trailers");
        }
    }

    /// Decode → re-encode round trip: a relay that reads with BodyReader
    /// and writes with BodyWriter reproduces the original chunked wire.
    #[test]
    fn relay_round_trip_reproduces_wire() {
        let body = pattern(50_000);
        let mut trailers = HeaderMap::new();
        trailers.insert("T", "v");
        let mut origin_wire = Vec::new();
        write_chunked(&mut origin_wire, &body, &trailers, 8 * 1024).unwrap();

        let mut r = BodyReader::chunked();
        let mut w = BodyWriter::chunked();
        let mut relayed = Vec::new();
        let mut sink = Vec::new();
        let mut pos = 0;
        while !r.is_done() {
            let end = (pos + 1500).min(origin_wire.len()); // MTU-ish slices
            sink.clear();
            pos += r.push(&origin_wire[pos..end], &mut sink).unwrap();
            w.push(&sink, &mut relayed).unwrap();
        }
        w.finish(r.trailers(), &mut relayed).unwrap();
        assert_eq!(relayed, origin_wire);
    }
}

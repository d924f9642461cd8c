//! Low-level line and header-section reading, with protocol limits.
//!
//! Every head and trailer section goes through one header-line routine,
//! [`push_field_line`]. Line ends, colons and the bytes a field value may
//! not hold are found a word (eight bytes) at a time.

use crate::error::HttpError;
use crate::headers::{is_token, HeaderMap};
use crate::message::Version;
use std::io::BufRead;

/// Maximum length of a single line (request line, status line, header).
pub const MAX_LINE: usize = 16 * 1024;
/// Maximum number of headers per section.
pub const MAX_HEADERS: usize = 128;
/// Maximum body size we will buffer.
pub const MAX_BODY: usize = 64 * 1024 * 1024;

const LO: u64 = u64::from_ne_bytes([0x01; 8]);
const HI: u64 = u64::from_ne_bytes([0x80; 8]);

/// The high bit of every zero byte of `w` is set in the result, and the
/// lowest one set marks the first zero byte. Bytes above a zero byte may
/// be flagged falsely, so only "any" and "first" are meaningful.
fn zero_bytes(w: u64) -> u64 {
    w.wrapping_sub(LO) & !w & HI
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// Index of the first `b` in `hay`, a word at a time.
pub(crate) fn find_byte(hay: &[u8], b: u8) -> Option<usize> {
    let pattern = LO * u64::from(b);
    let mut words = hay.chunks_exact(8);
    for (i, w) in (&mut words).enumerate() {
        let hit = zero_bytes(word(w) ^ pattern);
        if hit != 0 {
            return Some(i * 8 + hit.trailing_zeros() as usize / 8);
        }
    }
    let done = hay.len() - words.remainder().len();
    words
        .remainder()
        .iter()
        .position(|&c| c == b)
        .map(|p| done + p)
}

/// Does `bytes` hold a byte `flags` marks, a word at a time? The last,
/// partial word is padded with spaces, which no caller's mask flags.
fn any_flagged(bytes: &[u8], flags: impl Fn(u64) -> u64) -> bool {
    let mut words = bytes.chunks_exact(8);
    if words.any(|w| flags(word(w)) != 0) {
        return true;
    }
    let mut last = [b' '; 8];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    flags(word(&last)) != 0
}

/// Flags CR, LF and NUL, the bytes no field value may hold.
fn ctl(w: u64) -> u64 {
    zero_bytes(w)
        | zero_bytes(w ^ (LO * u64::from(b'\r')))
        | zero_bytes(w ^ (LO * u64::from(b'\n')))
}

/// Does `bytes` hold a CR, LF or NUL?
pub(crate) fn has_ctl(bytes: &[u8]) -> bool {
    any_flagged(bytes, ctl)
}

/// The bytes `str::trim` removes that are ASCII: HTAB, LF, VT, FF, CR
/// and SP (`u8::is_ascii_whitespace` leaves out VT).
fn trimmed_ascii(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// The one header-line routine, shared by request heads, response heads
/// and both trailer readers: parse `line` (terminator stripped) as
/// `name:value` and append the field to `map`.
///
/// The grammar (RFC 9112 §5.1–5.2): the name is a non-empty token that
/// runs right up to the first colon, so whitespace before the colon and a
/// line that starts with SP or HTAB (obs-fold) are rejected, not trimmed;
/// the value is trimmed exactly as `str::trim` trims it and may then hold
/// no CR, LF or NUL. Every failure is [`HttpError::BadHeader`]. An ASCII
/// value is trimmed and checked bytewise and copied once, into the map;
/// only a value holding a non-ASCII byte, a CR or a NUL takes the `str`
/// path. Returns the field as the map stores it.
pub(crate) fn push_field_line<'l>(
    map: &mut HeaderMap,
    line: &'l [u8],
) -> Result<(&'l str, &'l str), HttpError> {
    let bad = || HttpError::BadHeader(String::from_utf8_lossy(line).into_owned());
    let colon = find_byte(line, b':').ok_or_else(bad)?;
    let (name, raw) = (&line[..colon], &line[colon + 1..]);
    if !is_token(name) {
        return Err(bad());
    }
    let start = raw
        .iter()
        .position(|&b| !trimmed_ascii(b))
        .unwrap_or(raw.len());
    let end = raw
        .iter()
        .rposition(|&b| !trimmed_ascii(b))
        .map_or(start, |e| e + 1);
    let value = &raw[start..end];
    // SAFETY: a token is ASCII.
    let name = unsafe { std::str::from_utf8_unchecked(name) };
    if !any_flagged(value, |w| ctl(w) | (w & HI)) {
        // SAFETY: `value` was just checked ASCII.
        let value = unsafe { std::str::from_utf8_unchecked(value) };
        // SAFETY: both are `&str`.
        unsafe { map.push_unchecked(name.as_bytes(), value.as_bytes()) };
        return Ok((name, value));
    }
    let value = std::str::from_utf8(raw).map_err(|_| bad())?.trim();
    if has_ctl(value.as_bytes()) {
        return Err(bad());
    }
    // SAFETY: both are `&str`.
    unsafe { map.push_unchecked(name.as_bytes(), value.as_bytes()) };
    Ok((name, value))
}

/// Hand the next CRLF- (or bare-LF-) terminated line, terminator
/// stripped, to `parse`: borrowed straight from the reader's buffer when
/// that holds the whole line, else gathered into `buf` first. EOF before
/// the line ends is `ConnectionClosed`; a line longer than [`MAX_LINE`]
/// is `LimitExceeded("line length")`.
pub(crate) fn with_line<R: BufRead, T>(
    r: &mut R,
    buf: &mut Vec<u8>,
    parse: impl FnOnce(&[u8]) -> Result<T, HttpError>,
) -> Result<T, HttpError> {
    buf.clear();
    loop {
        let available = r.fill_buf()?;
        if available.is_empty() {
            return Err(HttpError::ConnectionClosed);
        }
        let Some(pos) = find_byte(available, b'\n') else {
            let len = available.len();
            buf.extend_from_slice(available);
            r.consume(len);
            if buf.len() > MAX_LINE {
                return Err(HttpError::LimitExceeded("line length"));
            }
            continue;
        };
        let line = if buf.is_empty() {
            &available[..pos]
        } else {
            buf.extend_from_slice(&available[..pos]);
            buf.as_slice()
        };
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        let parsed = if line.len() > MAX_LINE {
            Err(HttpError::LimitExceeded("line length"))
        } else {
            parse(line)
        };
        r.consume(pos + 1);
        return parsed;
    }
}

/// `line` as text; a line that is not UTF-8 is a `BadHeader`.
pub(crate) fn line_text(line: &[u8]) -> Result<&str, HttpError> {
    std::str::from_utf8(line).map_err(|e| HttpError::BadHeader(format!("non-UTF8 line: {e}")))
}

/// Read field lines up to the blank line into `map`, reusing `line` as
/// line scratch; more than [`MAX_HEADERS`] fields is
/// `LimitExceeded(limit)`. The header section of a head and the trailer
/// section of a chunked body both end this way.
pub(crate) fn read_fields_into<R: BufRead>(
    r: &mut R,
    map: &mut HeaderMap,
    line: &mut Vec<u8>,
    limit: &'static str,
) -> Result<(), HttpError> {
    read_fields_noting(r, map, line, limit, |_, _| {})
}

/// [`read_fields_into`], handing `note` each field as the map stores it,
/// the moment it is appended.
fn read_fields_noting<R: BufRead>(
    r: &mut R,
    map: &mut HeaderMap,
    line: &mut Vec<u8>,
    limit: &'static str,
    mut note: impl FnMut(&str, &str),
) -> Result<(), HttpError> {
    loop {
        let done = with_line(r, line, |line| {
            if line.is_empty() {
                return Ok(true);
            }
            if map.len() >= MAX_HEADERS {
                line_text(line)?;
                return Err(HttpError::LimitExceeded(limit));
            }
            let (name, value) = push_field_line(map, line)?;
            note(name, value);
            Ok(false)
        })?;
        if done {
            return Ok(());
        }
    }
}

/// Read a header section (lines until the blank line) into a
/// caller-owned map, reusing `line` as line scratch. The map is cleared
/// first and keeps its buffers, so a reused map fills without allocating.
pub fn read_headers_into<R: BufRead>(
    r: &mut R,
    headers: &mut HeaderMap,
    line: &mut Vec<u8>,
) -> Result<(), HttpError> {
    headers.clear();
    read_fields_into(r, headers, line, "header count")
}

/// What a request head's field pass records as it goes — the facts that
/// frame the body and decide keep-alive — so no caller scans the map for
/// them again. Each equals what the map-scanning accessor computes on the
/// parsed map: [`HeaderMap::list_contains`], [`content_length`] and
/// [`Request::keep_alive`](crate::Request::keep_alive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Framing {
    /// `Transfer-Encoding` lists `chunked`.
    pub chunked: bool,
    /// `Connection` lists `close`.
    pub close: bool,
    /// `Connection` lists `keep-alive`.
    pub keep_alive_token: bool,
    /// The first `Content-Length` field, read as [`content_length`] reads
    /// it.
    declared: Declared,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Declared {
    #[default]
    Absent,
    Length(usize),
    Malformed,
    OverLimit,
}

impl Framing {
    /// Fold one field in, as the map stores it.
    #[inline]
    fn note(&mut self, name: &str, value: &str) {
        // List members trimmed as `list_contains` trims them.
        let members = || value.split(',').map(str::trim);
        match name.len() {
            10 if name.eq_ignore_ascii_case("Connection") => {
                for member in members() {
                    self.close |= member.eq_ignore_ascii_case("close");
                    self.keep_alive_token |= member.eq_ignore_ascii_case("keep-alive");
                }
            }
            17 if name.eq_ignore_ascii_case("Transfer-Encoding") => {
                self.chunked |= members().any(|m| m.eq_ignore_ascii_case("chunked"));
            }
            14 if self.declared == Declared::Absent
                && name.eq_ignore_ascii_case("Content-Length") =>
            {
                self.declared = match value.trim().parse::<usize>() {
                    Ok(n) if n > MAX_BODY => Declared::OverLimit,
                    Ok(n) => Declared::Length(n),
                    Err(_) => Declared::Malformed,
                };
            }
            _ => {}
        }
    }

    /// [`content_length`] of the parsed map.
    pub fn content_length(&self) -> Result<Option<usize>, HttpError> {
        match self.declared {
            Declared::Absent => Ok(None),
            Declared::Length(n) => Ok(Some(n)),
            Declared::Malformed => Err(HttpError::BadContentLength),
            Declared::OverLimit => Err(HttpError::LimitExceeded("content length")),
        }
    }

    /// Should a connection carrying a request of `version` stay open?
    pub fn keep_alive(&self, version: Version) -> bool {
        match version {
            Version::Http11 => !self.close,
            Version::Http10 => self.keep_alive_token,
        }
    }
}

/// [`read_headers_into`] for a request head: the field pass records its
/// [`Framing`] on the way.
pub fn read_request_fields_into<R: BufRead>(
    r: &mut R,
    headers: &mut HeaderMap,
    line: &mut Vec<u8>,
) -> Result<Framing, HttpError> {
    headers.clear();
    let mut framing = Framing::default();
    read_fields_noting(r, headers, line, "header count", |n, v| framing.note(n, v))?;
    Ok(framing)
}

/// Read a header section (lines until the blank line).
pub fn read_headers<R: BufRead>(r: &mut R) -> Result<HeaderMap, HttpError> {
    let mut headers = HeaderMap::new();
    let mut line = Vec::with_capacity(64);
    read_headers_into(r, &mut headers, &mut line)?;
    Ok(headers)
}

/// Parse a `Content-Length` header if present.
pub fn content_length(headers: &HeaderMap) -> Result<Option<usize>, HttpError> {
    match headers.get("Content-Length") {
        None => Ok(None),
        Some(v) => {
            let n: usize = v.trim().parse().map_err(|_| HttpError::BadContentLength)?;
            if n > MAX_BODY {
                return Err(HttpError::LimitExceeded("content length"));
            }
            Ok(Some(n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn read_line<R: BufRead>(r: &mut R) -> Result<String, HttpError> {
        with_line(r, &mut Vec::new(), |line| {
            line_text(line).map(str::to_owned)
        })
    }

    #[test]
    fn reads_crlf_and_lf_lines() {
        let mut r = BufReader::new(&b"one\r\ntwo\nthree\r\n"[..]);
        assert_eq!(read_line(&mut r).unwrap(), "one");
        assert_eq!(read_line(&mut r).unwrap(), "two");
        assert_eq!(read_line(&mut r).unwrap(), "three");
        assert!(matches!(
            read_line(&mut r),
            Err(HttpError::ConnectionClosed)
        ));
    }

    #[test]
    fn line_split_across_buffer_boundaries() {
        // A tiny BufReader forces fill_buf to return partial lines.
        let data = b"abcdefghijklmnop\r\nqr\r\n".to_vec();
        let mut r = BufReader::with_capacity(4, data.as_slice());
        assert_eq!(read_line(&mut r).unwrap(), "abcdefghijklmnop");
        assert_eq!(read_line(&mut r).unwrap(), "qr");
    }

    #[test]
    fn line_length_limit() {
        let long = vec![b'a'; MAX_LINE + 10];
        let mut r = BufReader::new(long.as_slice());
        assert!(matches!(
            read_line(&mut r),
            Err(HttpError::LimitExceeded(_)) | Err(HttpError::ConnectionClosed)
        ));
    }

    #[test]
    fn header_section_parses() {
        let wire = b"Host: example.com\r\nTE: chunked\r\nPiggy-filter: maxpiggy=10\r\n\r\n";
        let mut r = BufReader::new(&wire[..]);
        let h = read_headers(&mut r).unwrap();
        assert_eq!(h.len(), 3);
        assert_eq!(h.get("host"), Some("example.com"));
        assert_eq!(h.get("piggy-filter"), Some("maxpiggy=10"));
    }

    /// RFC 9112 §5.1–5.2: whitespace before the colon and obs-fold lines
    /// are rejected, not trimmed; the value is trimmed as `str::trim`
    /// trims it, Unicode spaces included.
    #[test]
    fn field_grammar() {
        for bad in [
            &b"Transfer-Encoding : chunked\r\n\r\n"[..],
            b"Content-Length\t: 0\r\n\r\n",
            b"Host: a\r\n X-Folded: b\r\n\r\n",
            b"\tX: v\r\n\r\n",
            b": v\r\n\r\n",
            b"X: a\rb\r\n\r\n",
            b"X: a\0\r\n\r\n",
            b"X: \xff\r\n\r\n",
        ] {
            let got = read_headers(&mut BufReader::new(bad));
            assert!(matches!(got, Err(HttpError::BadHeader(_))), "{bad:?}");
        }
        let wire = "A:\x0b\x0c v \t\r\nB: \u{a0}w\u{3000}\r\nC:\r\nD: x:y \r\r\n\r\n";
        let h = read_headers(&mut BufReader::new(wire.as_bytes())).unwrap();
        let got: Vec<_> = h.iter().collect();
        assert_eq!(got, [("A", "v"), ("B", "w"), ("C", ""), ("D", "x:y")]);
    }

    #[test]
    fn header_without_colon_rejected() {
        let mut r = BufReader::new(&b"nocolonhere\r\n\r\n"[..]);
        assert!(matches!(read_headers(&mut r), Err(HttpError::BadHeader(_))));
    }

    #[test]
    fn content_length_parsing() {
        let mut h = HeaderMap::new();
        assert_eq!(content_length(&h).unwrap(), None);
        h.insert("Content-Length", "123");
        assert_eq!(content_length(&h).unwrap(), Some(123));
        h.set("Content-Length", "xyz");
        assert!(matches!(
            content_length(&h),
            Err(HttpError::BadContentLength)
        ));
        h.set("Content-Length", &format!("{}", MAX_BODY + 1));
        assert!(matches!(
            content_length(&h),
            Err(HttpError::LimitExceeded(_))
        ));
    }
}

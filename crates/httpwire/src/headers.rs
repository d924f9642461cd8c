//! A case-insensitive, order-preserving header map.

use crate::parse::has_ctl;
use std::fmt;

/// HTTP header collection. Lookup is case-insensitive; insertion order is
/// preserved on the wire. Multiple headers with the same name are kept.
///
/// Every name and value lives in one byte buffer, back to back, and a
/// field is a pair of offsets into it: an insert copies its bytes once,
/// and a fresh map allocates twice (buffer and offsets, sized for 16
/// fields of 512 bytes together) however many fields it takes up to
/// those sizes. [`clear`](Self::clear) keeps
/// both allocations, so a map reused across messages on a persistent
/// connection fills without allocating. A removal compacts the buffer.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct HeaderMap {
    /// Names and values back to back, in insertion order. Only whole
    /// UTF-8 names and values are ever written here (see
    /// [`push_unchecked`](Self::push_unchecked)), so every field range is
    /// valid UTF-8.
    bytes: Vec<u8>,
    /// Per field: where its name ends (its value begins) and where its
    /// value ends. A name begins where the field before it ends, so equal
    /// field lists are equal maps.
    ends: Vec<(usize, usize)>,
}

/// Fields a fresh map makes room for on its first insert.
const FRESH_FIELDS: usize = 16;
/// Name and value bytes a fresh map makes room for on its first insert.
const FRESH_BYTES: usize = 512;

/// `TOKEN[b]`: may byte `b` appear in a field name (an RFC 9110 `tchar`)?
static TOKEN: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric()
            || matches!(
                c,
                b'!' | b'#'
                    | b'$'
                    | b'%'
                    | b'&'
                    | b'\''
                    | b'*'
                    | b'+'
                    | b'-'
                    | b'.'
                    | b'^'
                    | b'_'
                    | b'`'
                    | b'|'
                    | b'~'
            );
        b += 1;
    }
    table
};

/// Is `name` a non-empty run of token bytes?
pub(crate) fn is_token(name: &[u8]) -> bool {
    !name.is_empty() && name.iter().all(|&b| TOKEN[usize::from(b)])
}

/// Is `name` a valid RFC 7230 header field name (token)?
pub fn valid_header_name(name: &str) -> bool {
    is_token(name.as_bytes())
}

/// Is `value` a valid header field value (no CR/LF/NUL)?
pub fn valid_header_value(value: &str) -> bool {
    !has_ctl(value.as_bytes())
}

impl HeaderMap {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a header. Panics on syntactically invalid names or values —
    /// in release builds too, because a CR/LF smuggled into a value here
    /// would otherwise be written to the wire verbatim and split the
    /// header (or trailer) line into an injected one. Use
    /// [`try_insert`](Self::try_insert) for untrusted input.
    pub fn insert(&mut self, name: &str, value: &str) {
        assert!(valid_header_name(name), "invalid header name {name:?}");
        assert!(
            valid_header_value(value),
            "invalid value for header {name:?}"
        );
        self.push(name, value);
    }

    /// Append after validating.
    pub fn try_insert(&mut self, name: &str, value: &str) -> Result<(), InvalidHeader> {
        if !valid_header_name(name) {
            return Err(InvalidHeader::Name(name.to_owned()));
        }
        if !valid_header_value(value) {
            return Err(InvalidHeader::Value(name.to_owned()));
        }
        self.push(name, value.trim());
        Ok(())
    }

    fn push(&mut self, name: &str, value: &str) {
        // SAFETY: both are `&str`.
        unsafe { self.push_unchecked(name.as_bytes(), value.as_bytes()) }
    }

    /// Append a field whose bytes the caller has already validated.
    ///
    /// # Safety
    ///
    /// `name` and `value` must each be valid UTF-8: the accessors hand out
    /// `&str` views of the buffer without checking it again.
    pub(crate) unsafe fn push_unchecked(&mut self, name: &[u8], value: &[u8]) {
        if self.ends.capacity() == 0 {
            self.ends.reserve_exact(FRESH_FIELDS);
            self.bytes
                .reserve_exact(FRESH_BYTES.max(name.len() + value.len()));
        }
        self.bytes.extend_from_slice(name);
        let name_end = self.bytes.len();
        self.bytes.extend_from_slice(value);
        self.ends.push((name_end, self.bytes.len()));
    }

    /// Remove every field, keeping the buffers' capacity for reuse.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Replace all occurrences of `name` with a single value.
    pub fn set(&mut self, name: &str, value: &str) {
        self.remove(name);
        self.insert(name, value);
    }

    /// First value for `name`, case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// All values for `name`.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Remove all occurrences; returns whether any existed. The fields
    /// behind a removed one move down over it, so the buffer holds only
    /// live bytes.
    pub fn remove(&mut self, name: &str) -> bool {
        let before = self.ends.len();
        let (mut start, mut to, mut kept) = (0, 0, 0);
        for i in 0..before {
            let (name_end, end) = self.ends[i];
            if !self.text(start, name_end).eq_ignore_ascii_case(name) {
                self.bytes.copy_within(start..end, to);
                self.ends[kept] = (to + name_end - start, to + end - start);
                to += end - start;
                kept += 1;
            }
            start = end;
        }
        self.bytes.truncate(to);
        self.ends.truncate(kept);
        kept != before
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        let mut start = 0;
        self.ends.iter().map(move |&(name_end, end)| {
            let field = (self.text(start, name_end), self.text(name_end, end));
            start = end;
            field
        })
    }

    fn text(&self, start: usize, end: usize) -> &str {
        // SAFETY: the buffer holds whole UTF-8 names and values back to
        // back, and every range asked for is one of them.
        unsafe { std::str::from_utf8_unchecked(&self.bytes[start..end]) }
    }

    /// Does a comma-separated list header contain `token`
    /// (case-insensitive)? E.g. `Connection: keep-alive, TE`.
    pub fn list_contains(&self, name: &str, token: &str) -> bool {
        self.get_all(name).any(|v| {
            v.split(',')
                .any(|part| part.trim().eq_ignore_ascii_case(token))
        })
    }
}

impl fmt::Debug for HeaderMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeaderMap")
            .field("entries", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// Header validation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidHeader {
    Name(String),
    Value(String),
}

impl fmt::Display for InvalidHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidHeader::Name(n) => write!(f, "invalid header name {n:?}"),
            InvalidHeader::Value(n) => write!(f, "invalid value for header {n:?}"),
        }
    }
}

impl std::error::Error for InvalidHeader {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_insensitive_lookup() {
        let mut h = HeaderMap::new();
        h.insert("Content-Type", "text/html");
        assert_eq!(h.get("content-type"), Some("text/html"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/html"));
        assert!(h.contains("Content-type"));
        assert!(!h.contains("Content-Length"));
    }

    #[test]
    fn multi_value_preserved_in_order() {
        let mut h = HeaderMap::new();
        h.insert("Via", "proxy-a");
        h.insert("Via", "proxy-b");
        let all: Vec<&str> = h.get_all("via").collect();
        assert_eq!(all, vec!["proxy-a", "proxy-b"]);
        assert_eq!(h.get("Via"), Some("proxy-a"));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn set_replaces_all() {
        let mut h = HeaderMap::new();
        h.insert("X", "1");
        h.insert("X", "2");
        h.set("x", "3");
        assert_eq!(h.get_all("X").count(), 1);
        assert_eq!(h.get("X"), Some("3"));
    }

    #[test]
    fn remove_reports_presence() {
        let mut h = HeaderMap::new();
        h.insert("A", "1");
        assert!(h.remove("a"));
        assert!(!h.remove("a"));
        assert!(h.is_empty());
    }

    #[test]
    fn name_validation() {
        assert!(valid_header_name("Piggy-filter"));
        assert!(valid_header_name("TE"));
        assert!(!valid_header_name(""));
        assert!(!valid_header_name("Bad Header"));
        assert!(!valid_header_name("Bad:Header"));
        assert!(valid_header_value("maxpiggy=10; rpv=\"3,4\""));
        assert!(!valid_header_value("evil\r\nInjected: yes"));
    }

    /// `insert` must reject CR/LF values in release builds too: a
    /// `debug_assert!` alone let `evil\r\nInjected: yes` reach the wire
    /// verbatim, splitting the header line. Both entry points are probed
    /// (catch_unwind rather than `#[should_panic]` so one test covers
    /// every vector and runs identically under `--release`).
    #[test]
    fn insert_rejects_crlf_in_release_builds() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let vectors: &[(&str, &str)] = &[
            ("X-Evil", "ok\r\nInjected: yes"),
            ("X-Evil", "ok\rInjected: yes"),
            ("X-Evil", "ok\nInjected: yes"),
            ("X-Evil", "nul\0byte"),
            ("Bad Name", "v"),
            ("Bad:Name", "v"),
            ("", "v"),
        ];
        for &(name, value) in vectors {
            let mut h = HeaderMap::new();
            let r = catch_unwind(AssertUnwindSafe(|| h.insert(name, value)));
            assert!(r.is_err(), "insert({name:?}, {value:?}) must panic");
            assert!(h.is_empty(), "nothing may be appended on rejection");
            let mut h = HeaderMap::new();
            assert!(h.try_insert(name, value).is_err());
            let r = catch_unwind(AssertUnwindSafe(|| h.set(name, value)));
            assert!(r.is_err(), "set({name:?}, {value:?}) must panic");
        }
    }

    #[test]
    fn try_insert_rejects_and_trims() {
        let mut h = HeaderMap::new();
        assert!(h.try_insert("Bad Name", "x").is_err());
        assert!(h.try_insert("Good", "bad\nvalue").is_err());
        h.try_insert("Good", "  padded  ").unwrap();
        assert_eq!(h.get("good"), Some("padded"));
    }

    /// `clear` keeps both buffers: a refilled map reuses the same
    /// allocation, and the map equals one built fresh.
    #[test]
    fn clear_reuses_the_buffer() {
        let mut h = HeaderMap::new();
        h.try_insert("Host", "  example.com  ").unwrap();
        assert_eq!(h.get("host"), Some("example.com"));
        let ptr_before = h.get("host").unwrap().as_ptr();
        h.clear();
        assert!(h.is_empty());
        h.try_insert("Host", "example.org").unwrap();
        assert_eq!(h.get("host"), Some("example.org"));
        assert_eq!(h.get("host").unwrap().as_ptr(), ptr_before);
        let mut plain = HeaderMap::new();
        plain.insert("Host", "example.org");
        assert_eq!(h, plain);
        assert_eq!(h.clone(), plain);
    }

    /// A removal compacts the buffer: `set` in a loop does not grow it,
    /// and what remains equals a map built with only the kept fields.
    #[test]
    fn removal_compacts_the_buffer() {
        let mut h = HeaderMap::new();
        h.insert("A", "1");
        h.insert("X", "first");
        h.insert("B", "22");
        h.insert("x", "second");
        h.insert("C", "333");
        assert!(h.remove("X"));
        let mut want = HeaderMap::new();
        want.insert("A", "1");
        want.insert("B", "22");
        want.insert("C", "333");
        assert_eq!(h, want);
        for i in 0..10_000 {
            h.set("Date", if i % 2 == 0 { "even" } else { "odd" });
        }
        assert_eq!(h.bytes.len(), "A1B22C333Dateodd".len());
        assert!(h.bytes.capacity() <= FRESH_BYTES);
        let got: Vec<_> = h.iter().collect();
        assert_eq!(
            got,
            [("A", "1"), ("B", "22"), ("C", "333"), ("Date", "odd")]
        );
    }

    #[test]
    fn list_contains_tokens() {
        let mut h = HeaderMap::new();
        h.insert("Connection", "keep-alive, TE");
        assert!(h.list_contains("connection", "te"));
        assert!(h.list_contains("Connection", "Keep-Alive"));
        assert!(!h.list_contains("Connection", "close"));
        h.insert("TE", "chunked");
        assert!(h.list_contains("TE", "chunked"));
    }
}

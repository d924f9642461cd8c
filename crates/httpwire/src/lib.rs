//! # piggyback-httpwire
//!
//! A from-scratch HTTP/1.1 subset built for the piggyback protocol:
//! request/response parsing and serialization, persistent-connection
//! semantics, and — crucially — **chunked transfer-coding with trailers**,
//! the mechanism the paper uses to append the `P-volume` piggyback after
//! the response body (Section 2.3) so the piggyback never delays the data.
//!
//! The crate is transport-agnostic: everything reads from `BufRead` and
//! writes to `Write`, so it works over `TcpStream`s, Unix sockets, or
//! in-memory buffers in tests.
//!
//! ```
//! use piggyback_httpwire::{Request, Response};
//! use std::io::BufReader;
//!
//! let mut req = Request::new("GET", "/mafia.html");
//! req.headers.insert("host", "sig.com");
//! req.headers.insert("TE", "chunked");
//! req.headers.insert("Piggy-filter", "maxpiggy=10; rpv=\"3,4\"");
//!
//! let mut resp = Response::new(200);
//! resp.body = b"<html>...</html>".into();
//! resp.trailers.insert("P-volume", "7; \"/a.html\" 886000000 1024");
//!
//! let mut wire = Vec::new();
//! resp.write(&mut wire).unwrap();
//! let parsed = Response::read(&mut BufReader::new(wire.as_slice()), false).unwrap();
//! assert_eq!(parsed.trailers.get("P-volume"), resp.trailers.get("P-volume"));
//! ```

pub mod body;
pub mod chunked;
pub mod error;
pub mod headers;
pub mod message;
pub mod parse;
pub mod scratch;
pub mod stream;

pub use body::Body;
pub use chunked::{read_chunked, read_chunked_into, read_chunked_into_capped, write_chunked};
pub use error::HttpError;
pub use headers::{HeaderMap, InvalidHeader};
pub use message::{push_decimal, reason_phrase, Request, Response, Version};
pub use parse::Framing;
pub use scratch::{flush_segments, write_all_parts, ConnScratch, Seg};
pub use stream::{encode_stream_head, BodyReader, BodyWriter, StreamFraming, STREAM_CHUNK};

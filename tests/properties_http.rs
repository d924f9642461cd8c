//! Property tests for the from-scratch HTTP/1.1 stack: arbitrary bytes
//! must never panic or hang the parser, and every serializable message
//! must round-trip exactly.

use piggyback::httpwire::{
    read_chunked, BodyReader, BodyWriter, ConnScratch, HeaderMap, Request, Response,
};
use proptest::prelude::*;
use std::io::BufReader;

fn arb_token() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9-]{0,15}".prop_map(|s| s)
}

fn arb_header_value() -> impl Strategy<Value = String> {
    // Printable ASCII without CR/LF, trimmed (serialization adds one SP).
    "[ -~]{0,60}".prop_map(|s| s.trim().to_owned())
}

fn arb_target() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-zA-Z0-9_.-]{1,10}", 1..5)
        .prop_map(|segs| format!("/{}", segs.join("/")))
}

proptest! {
    /// Feeding arbitrary bytes to the request parser returns Ok or Err —
    /// never panics, never loops forever.
    #[test]
    fn request_parser_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = Request::read(&mut BufReader::new(bytes.as_slice()));
    }

    /// Same for the response parser (both HEAD and GET framing).
    #[test]
    fn response_parser_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
        head in any::<bool>(),
    ) {
        let _ = Response::read(&mut BufReader::new(bytes.as_slice()), head);
    }

    /// And the chunked decoder.
    #[test]
    fn chunked_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = read_chunked(&mut BufReader::new(bytes.as_slice()));
    }

    /// Serialized requests parse back to identical structures.
    #[test]
    fn request_round_trip(
        method in prop_oneof![Just("GET"), Just("POST"), Just("HEAD")],
        target in arb_target(),
        headers in proptest::collection::vec((arb_token(), arb_header_value()), 0..8),
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut req = Request::new(method, &target);
        for (n, v) in &headers {
            // Skip names that collide with framing headers we compute.
            if n.eq_ignore_ascii_case("content-length")
                || n.eq_ignore_ascii_case("transfer-encoding") {
                continue;
            }
            req.headers.insert(n, v);
        }
        if method == "POST" {
            req.body = body.into();
        }
        let mut wire = Vec::new();
        req.write(&mut wire).unwrap();
        let parsed = Request::read(&mut BufReader::new(wire.as_slice())).unwrap();
        prop_assert_eq!(parsed.method, req.method);
        prop_assert_eq!(parsed.target, req.target);
        prop_assert_eq!(parsed.body, req.body);
        // Compare full per-name lists: `get` returns the first
        // case-insensitive match, so generated names that collide only in
        // case (e.g. "P" and "p") must be checked as ordered multisets.
        for (n, _) in req.headers.iter() {
            let sent: Vec<&str> = req.headers.get_all(n).collect();
            let got: Vec<&str> = parsed.headers.get_all(n).collect();
            prop_assert_eq!(got, sent, "header {} lost", n);
        }
    }

    /// Serialized responses parse back identically, across plain and
    /// chunked/trailer framing.
    #[test]
    fn response_round_trip(
        status in prop_oneof![Just(200u16), Just(204), Just(304), Just(404), Just(500)],
        body in proptest::collection::vec(any::<u8>(), 0..512),
        trailer in proptest::option::of(arb_header_value()),
    ) {
        let mut resp = Response::new(status);
        resp.headers.insert("Content-Type", "text/html");
        if !Response::bodiless_status(status) {
            resp.body = body.into();
        }
        if let Some(t) = &trailer {
            resp.trailers.insert("P-volume", t);
        }
        let mut wire = Vec::new();
        resp.write(&mut wire).unwrap();
        let parsed = Response::read(&mut BufReader::new(wire.as_slice()), false).unwrap();
        prop_assert_eq!(parsed.status, resp.status);
        if Response::bodiless_status(status) {
            prop_assert!(parsed.body.is_empty());
        } else {
            prop_assert_eq!(&parsed.body, &resp.body);
            if let Some(t) = &trailer {
                // Trailers only survive on body-bearing chunked responses.
                prop_assert_eq!(parsed.trailers.get("P-volume"), Some(t.as_str()));
            }
        }
    }

    /// Pipelined messages on one connection parse in order without
    /// consuming each other's bytes.
    #[test]
    fn pipelined_requests_parse_in_order(targets in proptest::collection::vec(arb_target(), 1..6)) {
        let mut wire = Vec::new();
        for t in &targets {
            Request::new("GET", t).write(&mut wire).unwrap();
        }
        let mut reader = BufReader::new(wire.as_slice());
        for t in &targets {
            let parsed = Request::read(&mut reader).unwrap();
            prop_assert_eq!(&parsed.target, t);
        }
        prop_assert!(Request::read(&mut reader).is_err(), "stream exhausted");
    }

    /// The scratch-threaded request serializer emits bytes identical to
    /// the seed serializer, including when the scratch is reused across
    /// messages (the steady-state shape on a keep-alive connection).
    #[test]
    fn request_write_with_is_byte_identical(
        method in prop_oneof![Just("GET"), Just("POST"), Just("HEAD")],
        target in arb_target(),
        headers in proptest::collection::vec((arb_token(), arb_header_value()), 0..8),
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut req = Request::new(method, &target);
        for (n, v) in &headers {
            if n.eq_ignore_ascii_case("content-length")
                || n.eq_ignore_ascii_case("transfer-encoding") {
                continue;
            }
            req.headers.insert(n, v);
        }
        if method == "POST" {
            req.body = body.into();
        }
        let mut seed = Vec::new();
        req.write(&mut seed).unwrap();
        let mut scratch = ConnScratch::new();
        for _ in 0..2 {
            let mut wire = Vec::new();
            req.write_with(&mut wire, &mut scratch).unwrap();
            prop_assert_eq!(&wire, &seed);
        }
    }

    /// Same for responses, across every framing the serializer can emit:
    /// identity (Content-Length), chunked via a Transfer-Encoding header,
    /// chunked via trailers, and bodiless statuses.
    #[test]
    fn response_write_with_is_byte_identical(
        status in prop_oneof![Just(200u16), Just(204), Just(304), Just(404), Just(500)],
        headers in proptest::collection::vec((arb_token(), arb_header_value()), 0..8),
        body in proptest::collection::vec(any::<u8>(), 0..2048),
        chunked in any::<bool>(),
        trailer in proptest::option::of(arb_header_value()),
    ) {
        let mut resp = Response::new(status);
        for (n, v) in &headers {
            if n.eq_ignore_ascii_case("content-length")
                || n.eq_ignore_ascii_case("transfer-encoding")
                || n.eq_ignore_ascii_case("trailer") {
                continue;
            }
            resp.headers.insert(n, v);
        }
        if chunked {
            resp.headers.insert("Transfer-Encoding", "chunked");
        }
        if !Response::bodiless_status(status) {
            resp.body = body.into();
        }
        if let Some(t) = &trailer {
            resp.trailers.insert("P-volume", t);
        }
        let mut seed = Vec::new();
        resp.write(&mut seed).unwrap();
        let mut scratch = ConnScratch::new();
        for _ in 0..2 {
            let mut wire = Vec::new();
            resp.write_with(&mut wire, &mut scratch).unwrap();
            prop_assert_eq!(&wire, &seed);
        }
    }

    /// Header values carrying CR or LF are rejected before they can reach
    /// either serializer — response splitting is impossible by
    /// construction on both wire paths.
    #[test]
    fn headers_reject_crlf_injection(
        name in arb_token(),
        prefix in "[ -~]{0,20}",
        evil in prop_oneof![Just('\r'), Just('\n')],
        suffix in "[ -~]{0,20}",
    ) {
        let value = format!("{prefix}{evil}{suffix}");
        let mut map = HeaderMap::new();
        prop_assert!(map.try_insert(&name, &value).is_err());
        prop_assert_eq!(map.len(), 0);
    }

    /// Header maps behave like case-insensitive multimaps under arbitrary
    /// insert/remove sequences.
    #[test]
    fn header_map_model(ops in proptest::collection::vec(
        (arb_token(), arb_header_value(), 0u8..3), 0..40)
    ) {
        let mut map = HeaderMap::new();
        let mut model: Vec<(String, String)> = Vec::new();
        for (name, value, op) in ops {
            match op {
                0 => {
                    if map.try_insert(&name, &value).is_ok() {
                        model.push((name.to_ascii_lowercase(), value.trim().to_owned()));
                    }
                }
                1 => {
                    map.remove(&name);
                    model.retain(|(n, _)| *n != name.to_ascii_lowercase());
                }
                _ => {
                    let got = map.get(&name);
                    let want = model
                        .iter()
                        .find(|(n, _)| *n == name.to_ascii_lowercase())
                        .map(|(_, v)| v.as_str());
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(map.len(), model.len());
        }
    }

    /// The streaming body encoders are segmentation-transparent
    /// (PROTOCOL.md §14): however a body is cut into `push` segments,
    /// Content-Length framing emits exactly the body bytes, and chunked
    /// framing decodes back to them with trailers intact.
    #[test]
    fn segmented_body_writer_is_byte_identical(
        body in proptest::collection::vec(any::<u8>(), 0..4096),
        cuts in proptest::collection::vec(0usize..4097, 0..8),
    ) {
        let mut splits: Vec<usize> = cuts.iter().map(|&c| c.min(body.len())).collect();
        splits.push(body.len());
        splits.sort_unstable();
        splits.dedup();

        // Content-Length framing: the wire IS the body.
        let mut lw = BodyWriter::length(body.len());
        let mut wire = Vec::new();
        let mut prev = 0;
        for &cut in &splits {
            lw.push(&body[prev..cut], &mut wire).unwrap();
            prev = cut;
        }
        lw.finish(&HeaderMap::new(), &mut wire).unwrap();
        prop_assert_eq!(lw.written(), body.len());
        prop_assert_eq!(&wire, &body);

        // Chunked framing: any segmentation decodes back to the body.
        let mut cw = BodyWriter::chunked();
        let mut wire = Vec::new();
        let mut prev = 0;
        for &cut in &splits {
            cw.push(&body[prev..cut], &mut wire).unwrap();
            prev = cut;
        }
        let mut trailers = HeaderMap::new();
        trailers.insert("X-Probe", "v");
        cw.finish(&trailers, &mut wire).unwrap();
        let mut rd = BodyReader::chunked();
        let mut decoded = Vec::new();
        let consumed = rd.push(&wire, &mut decoded).unwrap();
        prop_assert_eq!(consumed, wire.len());
        prop_assert!(rd.is_done());
        prop_assert_eq!(&decoded, &body);
        prop_assert_eq!(rd.trailers().get("X-Probe"), Some("v"));
    }
}

// ---------------------------------------------------------------------------
// The upstream response machine (`proxyd::lifecycle::ResponseMachine`,
// PROTOCOL.md §14): the one decoder both proxy engines feed. Socket-free,
// so the lane drives it the way either driver does — the wire from the
// status line on, in arbitrary pieces — and requires that the split never
// shows: same outcome, same client bytes, same bytes consumed.
// ---------------------------------------------------------------------------

use piggyback::core::types::Timestamp;
use piggyback::httpwire::{parse::MAX_BODY, HttpError};
use piggyback::proxyd::lifecycle::{
    AsIs, ExchangeMachine, RelayRule, ResponseMachine, Reuse, UpstreamOutcome,
};

const THRESHOLD: usize = 4096;
const PREFIX: usize = 1024;
const SKIP: usize = 100;
const NEXT: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nnext";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Framing {
    Length,
    Chunked,
    ChunkedTrailers,
    Bodiless(u16),
    CloseDelimited,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    None,
    /// Relays from a declared length at the threshold, or grows a chunked
    /// body into a relay once it reaches it.
    Plain,
    Pinned,
}

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 7 % 253) as u8).collect()
}

/// The origin's wire for `body` in `framing`, and whether the response
/// ends only when the connection does.
fn origin_wire(framing: Framing, body: &[u8]) -> (Vec<u8>, bool) {
    let mut resp = Response::new(200);
    resp.headers
        .insert("Last-Modified", "Thu, 01 Jan 1998 00:00:00 GMT");
    resp.body = body.to_vec().into();
    match framing {
        Framing::Length => {}
        Framing::Chunked => resp.headers.insert("Transfer-Encoding", "chunked"),
        Framing::ChunkedTrailers => resp
            .trailers
            .insert("P-volume", "7; \"/mate.html\" 886000000 1024"),
        Framing::Bodiless(status) => resp = Response::new(status),
        Framing::CloseDelimited => {
            let mut wire = b"HTTP/1.0 200 OK\r\nX-Origin: old\r\n\r\n".to_vec();
            wire.extend_from_slice(body);
            return (wire, true);
        }
    }
    let mut wire = Vec::new();
    resp.write(&mut wire).unwrap();
    (wire, false)
}

fn rule(kind: Rule, total: usize) -> Option<RelayRule> {
    let plain = RelayRule {
        threshold: THRESHOLD,
        prefix_bytes: PREFIX,
        skip: 0,
        expect_total: None,
        now: Timestamp::ZERO,
    };
    match kind {
        Rule::None => None,
        Rule::Plain => Some(plain),
        Rule::Pinned => Some(RelayRule {
            threshold: 0,
            prefix_bytes: 0,
            skip: SKIP.min(total),
            expect_total: Some(total),
            ..plain
        }),
    }
}

/// Everything a run of the machine shows its driver.
#[derive(Debug, PartialEq)]
struct Run {
    /// `Err` is a failed exchange; the flag says whether it had engaged.
    outcome: Result<String, bool>,
    client: Vec<u8>,
    consumed: usize,
    /// The exchange machine's verdict on the connection.
    reuse: Reuse,
}

/// An outcome as a comparable string.
fn describe(outcome: UpstreamOutcome) -> String {
    match outcome {
        UpstreamOutcome::Response(resp) => format!("response {resp:?}"),
        UpstreamOutcome::Streamed {
            head,
            total,
            prefix,
        } => format!("streamed {total} {prefix:?} {head:?}"),
        UpstreamOutcome::StreamFailed { mismatch } => format!("stream failed {mismatch}"),
        UpstreamOutcome::Failed => "failed".to_owned(),
    }
}

/// Drive one attempt of an exchange machine as a driver does: hand it the
/// wire from its status line in `split`-byte reads (`0`: one read), then
/// the close as a read of its own, and stop reading once it is done. The
/// client gets what each read appended to the sink, then the read's span.
fn run_machine(wire: &[u8], closes: bool, rule: Option<RelayRule>, split: usize) -> Run {
    let response = ResponseMachine::new(rule);
    let mut machine = ExchangeMachine::new(Vec::new(), true, response, Instant::now());
    let mut client = Vec::new();
    let mut consumed = 0;
    let step = if split == 0 { wire.len().max(1) } else { split };
    let close: &[u8] = &[];
    for read in wire.chunks(step).chain(closes.then_some(close)) {
        if machine.is_done() {
            break;
        }
        match machine.filled(read, &mut client) {
            Ok(n) => {
                client.extend_from_slice(&read[machine.span()]);
                consumed += n;
                assert!(n == read.len() || machine.is_done(), "input left behind");
            }
            Err(_) => break,
        }
    }
    let reuse = machine.reuse();
    let outcome = if machine.is_done() {
        Ok(describe(machine.into_outcome()))
    } else {
        Err(machine.engaged())
    };
    Run {
        outcome,
        client,
        consumed,
        reuse,
    }
}

/// One more whole response on the wire behind the one an exchange reads:
/// the odd ones chunked with a trailer, the first bodiless.
fn stray_wire(i: usize) -> Vec<u8> {
    let mut stray = Response::new(200);
    if i % 2 == 1 {
        stray.trailers.insert("X-Probe", "v");
    }
    stray.body = payload(500 * i).into();
    let mut wire = Vec::new();
    stray.write(&mut wire).unwrap();
    wire
}

/// Every framing × sizes straddling the threshold × every rule × every
/// split: the split is invisible, a buffered outcome is `Response::read`
/// of the same wire, a relayed one puts exactly the payload (minus the
/// skip) under a well-formed client head, and bytes behind the response
/// are never touched.
#[test]
fn response_machine_is_split_transparent() {
    let framings = [
        Framing::Length,
        Framing::Chunked,
        Framing::ChunkedTrailers,
        Framing::Bodiless(204),
        Framing::Bodiless(304),
        Framing::CloseDelimited,
    ];
    let sizes = [
        0,
        1,
        THRESHOLD - 1,
        THRESHOLD,
        THRESHOLD + 1,
        3 * THRESHOLD + 5,
    ];
    for framing in framings {
        for size in sizes {
            if matches!(framing, Framing::Bodiless(_)) && size != 0 {
                continue;
            }
            let body = payload(size);
            let (mut wire, closes) = origin_wire(framing, &body);
            let response_len = wire.len();
            if !closes {
                wire.extend_from_slice(NEXT);
            }
            for kind in [Rule::None, Rule::Plain, Rule::Pinned] {
                let what = format!("{framing:?} size {size} rule {kind:?}");
                let whole = run_machine(&wire, closes, rule(kind, size), 0);
                for split in [1, 7, 1500, 16384] {
                    let mut cut = run_machine(&wire, closes, rule(kind, size), split);
                    // Read whole, the next response shares the last read;
                    // a piece ending with the response leaves it unread.
                    if cut.reuse == Reuse::Keep {
                        assert_eq!(response_len % split, 0, "{what} split {split}");
                        cut.reuse = Reuse::Unread;
                    }
                    assert_eq!(cut, whole, "{what} split {split}");
                }
                let outcome = whole.outcome.as_ref().expect(&what);
                if !outcome.starts_with("stream failed") {
                    assert_eq!(whole.consumed, response_len, "{what}");
                }
                // Only a framed response that ended whole leaves its
                // connection fit for the next exchange: never one the
                // origin delimited by closing it — and not while bytes sit
                // unread behind it.
                let framed = !closes && !outcome.starts_with("stream failed");
                let reuse = if framed { Reuse::Unread } else { Reuse::Spent };
                assert_eq!(whole.reuse, reuse, "{what}");

                let chunked = matches!(framing, Framing::Chunked | Framing::ChunkedTrailers);
                let relays = match kind {
                    Rule::None => false,
                    Rule::Plain => (framing == Framing::Length || chunked) && size >= THRESHOLD,
                    Rule::Pinned => framing == Framing::Length || chunked,
                };
                if kind == Rule::Pinned && !relays {
                    // Not a 200 of a known framing under a head already sent.
                    assert_eq!(outcome, "stream failed true", "{what}");
                    assert!(whole.client.is_empty(), "{what}");
                } else if relays {
                    assert!(outcome.starts_with(&format!("streamed {size} ")), "{what}");
                    if kind == Rule::Pinned {
                        assert_eq!(whole.client, &body[SKIP.min(size)..], "{what}");
                    } else {
                        let sent = Response::read(&mut whole.client.as_slice(), false);
                        let sent = sent.expect(&what);
                        assert_eq!(sent.headers.get("X-Cache"), Some("MISS"), "{what}");
                        assert_eq!(
                            sent.headers.contains("Content-Length"),
                            !chunked,
                            "{what}: the client framing follows the origin's"
                        );
                        assert_eq!(sent.body, body, "{what}");
                        assert!(sent.trailers.is_empty(), "{what}");
                        let teed = &body[..PREFIX.min(size)];
                        assert!(outcome.contains(&format!(" {teed:?} ")), "{what}");
                    }
                    if framing == Framing::ChunkedTrailers {
                        assert!(outcome.contains("886000000"), "{what}: trailers kept");
                    }
                } else {
                    let mut reference = &wire[..response_len];
                    let read = Response::read(&mut reference, false).expect(&what);
                    assert_eq!(outcome, &format!("response {read:?}"), "{what}");
                    assert!(
                        whole.client.is_empty(),
                        "{what}: a buffered body sends nothing"
                    );
                }
            }
        }
    }

    // Unannounced bytes behind a response: a chunked one, then three more
    // whole responses and the next one. In any split the machine reads
    // the first response alone, and a read that brought bytes behind it
    // leaves the connection unfit.
    let mut main = Response::new(200);
    main.trailers
        .insert("P-volume", "7; \"/mate1.html\" 886000000 1024");
    main.body = payload(3 * THRESHOLD).into();
    let mut wire = Vec::new();
    main.write(&mut wire).unwrap();
    let main_len = wire.len();
    for i in 0..3 {
        wire.extend_from_slice(&stray_wire(i));
    }
    wire.extend_from_slice(NEXT);
    let main = Response::read(&mut &wire[..], false).unwrap();
    for split in [0, 1, 7, 1500, 16384] {
        let run = run_machine(&wire, false, None, split);
        assert_eq!(
            run.outcome,
            Ok(format!("response {main:?}")),
            "split {split}"
        );
        assert_eq!(run.consumed, main_len, "split {split}");
        assert!(run.client.is_empty(), "split {split}");
        let aligned = split > 0 && main_len % split == 0;
        let reuse = if aligned { Reuse::Keep } else { Reuse::Unread };
        assert_eq!(run.reuse, reuse, "split {split}");
    }
}

/// A pinned relay decodes whatever framing the origin chose under the
/// `Content-Length` head already sent, and a body of another length is a
/// mismatch in both directions — never more than the promised bytes.
#[test]
fn response_machine_pinned_length_mismatch() {
    let body = payload(3000);
    for framing in [Framing::Length, Framing::Chunked] {
        for promised in [2000, 4000] {
            let (wire, _) = origin_wire(framing, &body);
            for split in [0, 1, 1500] {
                let what = format!("{framing:?} promised {promised} split {split}");
                let run = run_machine(&wire, false, rule(Rule::Pinned, promised), split);
                assert_eq!(run.outcome, Ok("stream failed true".to_owned()), "{what}");
                assert!(run.client.len() <= promised - SKIP, "{what}");
                assert!(body[SKIP..].starts_with(&run.client), "{what}");
            }
        }
    }
}

/// Wires no response can be read from end in one error, and before the
/// machine engages nothing has been written for the client — the driver
/// may still retry or answer 502.
#[test]
fn response_machine_errors_before_any_client_byte() {
    let bad_chunk = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\nxx".to_vec();
    let mut short = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n".to_vec();
    short.extend_from_slice(&payload(40));
    let huge = format!(
        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n",
        MAX_BODY + 1
    );
    let unparsable = b"HTTP/1.1 200 OK\r\nContent-Length: many\r\n\r\n".to_vec();
    for (wire, closes) in [
        (bad_chunk, false),
        (short, true),
        (huge.into_bytes(), false),
        (unparsable, false),
    ] {
        for kind in [Rule::None, Rule::Plain] {
            for split in [0, 1, 7] {
                let run = run_machine(&wire, closes, rule(kind, 0), split);
                assert_eq!(run.outcome, Err(false), "{kind:?} split {split}");
                assert!(run.client.is_empty(), "{kind:?} split {split}");
            }
        }
    }
    // Once engaged, the same short body is a truncation: the client holds
    // the head and a strict prefix, and the failure is not retryable.
    let mut short = b"HTTP/1.1 200 OK\r\nContent-Length: 8000\r\n\r\n".to_vec();
    short.extend_from_slice(&payload(5000));
    for split in [0, 1, 1500] {
        let run = run_machine(&short, true, rule(Rule::Plain, 0), split);
        assert_eq!(run.outcome, Err(true), "split {split}");
        let head_end = run
            .client
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .unwrap()
            + 4;
        assert!(String::from_utf8_lossy(&run.client[..head_end]).contains("Content-Length: 8000"));
        assert_eq!(run.client[head_end..], payload(5000), "split {split}");
    }
    // The limit is an error the parser names, not an allocation.
    let huge = b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n";
    assert!(matches!(
        ResponseMachine::new(None).feed(huge, false, &mut Vec::new()),
        Err(HttpError::LimitExceeded(_))
    ));
}

/// An upstream head with whitespace before a colon, or an obs-fold line,
/// is malformed (RFC 9112 §5.1–5.2): the exchange fails before any client
/// byte, as any unreadable response does (PROTOCOL.md §7.1), rather than
/// honouring `Content-Length : 4` as framing.
#[test]
fn response_machine_fails_smuggling_shaped_heads() {
    let heads: [&[u8]; 3] = [
        b"HTTP/1.1 200 OK\r\nContent-Length : 4\r\n\r\nbody",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding\t: chunked\r\n\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n X-Folded: v\r\n\r\nbody",
    ];
    for wire in heads {
        for split in [0, 1, 7] {
            let run = run_machine(wire, false, rule(Rule::Plain, 0), split);
            let what = String::from_utf8_lossy(wire);
            assert_eq!(run.outcome, Err(false), "{what:?} split {split}");
            assert!(run.client.is_empty(), "{what:?} split {split}");
        }
    }
}

/// What a raw relay shows its driver read by read: everything the client
/// got, what of it came through the sink, the outcome, and how many bytes
/// the read that ended the exchange forwarded.
struct SpanRun {
    client: Vec<u8>,
    sink: Vec<u8>,
    outcome: String,
    last_read: usize,
}

/// Drive `response` over `wire` in `split`-byte reads the way every driver
/// writes a read: what it appended to the sink, then its span.
fn run_spans(response: ResponseMachine, wire: &[u8], split: usize) -> SpanRun {
    let mut machine = ExchangeMachine::new(Vec::new(), true, response, Instant::now());
    let (mut client, mut sink) = (Vec::new(), Vec::new());
    let mut last_read = 0;
    for read in wire.chunks(split) {
        let staged = sink.len();
        machine.filled(read, &mut sink).expect("a framed response");
        let span = &read[machine.span()];
        client.extend_from_slice(&sink[staged..]);
        client.extend_from_slice(span);
        last_read = sink.len() - staged + span.len();
        if machine.is_done() {
            break;
        }
    }
    assert!(machine.is_done(), "the wire holds the whole response");
    SpanRun {
        client,
        sink,
        outcome: describe(machine.into_outcome()),
        last_read,
    }
}

/// A raw relay of a `Content-Length` body copies no payload byte: the
/// machine leaves it in the read and names it by span. Under reads of any
/// size, around both upstream read sizes (`UPSTREAM_READ`,
/// `UPSTREAM_READ_MAX`): what the reads staged plus their spans, in that
/// order, is the client head plus the payload past the skip; the sink never
/// holds a payload byte; the tee still sees the skipped bytes; and a read
/// that overruns the promised length forwards nothing.
#[test]
fn raw_relay_forwards_payload_by_span() {
    let sizes = [16383, 16384, 16385, 65535, 65536, 65537];
    let splits = [1, 7, 1500, 16384, 65536];
    let as_is = AsIs {
        head_request: false,
        whole: false,
        hook: None,
    };
    let pinned = |total| RelayRule {
        threshold: 0,
        prefix_bytes: PREFIX,
        skip: SKIP,
        expect_total: Some(total),
        now: Timestamp::ZERO,
    };
    for size in sizes {
        let body = payload(size);
        let (mut wire, _) = origin_wire(Framing::Length, &body);
        let head_len = wire.len() - size;
        wire.extend_from_slice(NEXT);
        for split in splits {
            let what = format!("size {size} split {split}");
            // As-is (the volume center): the upstream's own head, then the
            // whole payload.
            let run = run_spans(ResponseMachine::as_is(as_is), &wire, split);
            assert_eq!(run.sink, &wire[..head_len], "as-is {what}");
            assert_eq!(run.client, &wire[..head_len + size], "as-is {what}");
            // Pinned behind a prefix hit: the head went out with the
            // prefix, so the client gets only the payload past the skip.
            let response = ResponseMachine::new(Some(pinned(size)));
            let run = run_spans(response, &wire, split);
            assert!(run.sink.is_empty(), "pinned {what}: nothing staged");
            assert_eq!(run.client, &body[SKIP..], "pinned {what}");
            let teed = &body[..PREFIX];
            assert!(
                run.outcome.contains(&format!(" {teed:?} ")),
                "pinned {what}"
            );
        }
    }
    // Overruns: a head declaring another length forwards nothing at all;
    // a chunked body that runs past the promise (decoded into the sink,
    // not by span) ends on a read that forwards nothing of itself.
    let body = payload(65537);
    for (framing, promised) in [(Framing::Length, 65536), (Framing::Chunked, 16385)] {
        let (wire, _) = origin_wire(framing, &body);
        for split in splits {
            let what = format!("{framing:?} promised {promised} split {split}");
            let response = ResponseMachine::new(Some(pinned(promised)));
            let run = run_spans(response, &wire, split);
            assert_eq!(run.outcome, "stream failed true", "{what}");
            assert_eq!(run.last_read, 0, "{what}: the overrunning read");
            assert!(run.client.len() <= promised - SKIP, "{what}");
            assert!(body[SKIP..].starts_with(&run.client), "{what}");
            if framing == Framing::Length {
                assert!(run.client.is_empty(), "{what}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The exchange machine (`proxyd::lifecycle::ExchangeMachine`, PROTOCOL.md
// §7.1): the attempts around the response machine, which both pollers and
// the volume center drive. Socket-free, so the lane plays scripted
// upstreams to it — one script per connection the driver dials — and
// checks the retry contract, the attempt deadline and the reuse verdict.
// ---------------------------------------------------------------------------

/// How a scripted connection ends if the machine still wants bytes after
/// its wire.
#[derive(Debug, Clone, Copy)]
enum Then {
    /// The upstream closes: a read returns EOF.
    Close,
    /// A read fails (a reset).
    Reset,
    /// Nothing arrives until the attempt's deadline passes.
    Stall,
}

const REQUEST: &[u8] = b"GET /x HTTP/1.1\r\nHost: origin\r\n\r\n";
const TIMEOUT: Duration = Duration::from_secs(30);

/// Everything an exchange shows its driver.
#[derive(Debug, PartialEq)]
struct ExchangeRun {
    outcome: String,
    client: Vec<u8>,
    /// Connections dialed: the first, and the retry if there was one.
    dials: usize,
    reuse: Reuse,
}

/// Drive an exchange machine over scripted connections as a driver does:
/// dial the next script, write the whole request, hand the machine the
/// script's wire in `split`-byte reads (`0`: one read) until it is done,
/// then end the connection as the script says; on a failure, ask the
/// machine whether to dial again. A stall moves the driver's clock to the
/// attempt's deadline.
fn run_exchange(
    scripts: &[(&[u8], Then)],
    replayable: bool,
    rule: Option<RelayRule>,
    split: usize,
) -> ExchangeRun {
    let mut now = Instant::now();
    let response = ResponseMachine::new(rule);
    let mut machine = ExchangeMachine::new(REQUEST, replayable, response, now);
    let mut client = Vec::new();
    let mut dials = 0;
    for (wire, then) in scripts {
        dials += 1;
        assert_eq!(machine.to_write(), REQUEST, "every attempt sends it whole");
        machine.wrote(REQUEST.len());
        assert_eq!(machine.deadline(TIMEOUT), now + TIMEOUT);
        let step = if split == 0 { wire.len().max(1) } else { split };
        let mut fed = Ok(0);
        for read in wire.chunks(step) {
            fed = machine.filled(read, &mut client);
            client.extend_from_slice(&read[machine.span()]);
            if fed.is_err() || machine.is_done() {
                break;
            }
        }
        if fed.is_ok() && !machine.is_done() {
            fed = match then {
                Then::Close => machine.filled(&[], &mut client),
                Then::Reset => Err(HttpError::ConnectionClosed),
                Then::Stall => {
                    now += TIMEOUT;
                    assert!(machine.expired(now, TIMEOUT));
                    Err(HttpError::ConnectionClosed)
                }
            };
        }
        if fed.is_ok() || !machine.fail(now) {
            break;
        }
        assert!(client.is_empty(), "a retry follows no client byte");
    }
    ExchangeRun {
        reuse: machine.reuse(),
        outcome: describe(machine.into_outcome()),
        client,
        dials,
    }
}

/// The retry contract, the deadline and the reuse verdict on scripted
/// upstreams, for every split of the reads: an attempt that fails before
/// a byte reached the client goes again once, on a fresh connection, and
/// a second failure is `Failed`; a request that may not be replayed and
/// an engaged relay are never retried; a connection is fit for the next exchange only with nothing
/// unread behind the response and no EOF.
#[test]
fn exchange_machine_keeps_the_retry_contract() {
    let page = payload(3 * THRESHOLD);
    let (good, _) = origin_wire(Framing::Length, &page);
    let (chunked, _) = origin_wire(Framing::Chunked, &page);
    let half_head = &good[..10];
    let half_body = &good[..good.len() / 2];
    let read = |wire: &[u8]| Response::read(&mut &wire[..], false).unwrap();
    let reference = describe(UpstreamOutcome::Response(read(&good)));
    let thens = [Then::Close, Then::Reset, Then::Stall];
    for split in [0, 1, 7, 1500, 16384] {
        let run = |scripts: &[(&[u8], Then)], replayable, rule| {
            let run = run_exchange(scripts, replayable, rule, split);
            (run.outcome, run.dials, run.reuse)
        };
        // One failure before engaging, in the head or the body, by close,
        // reset or deadline: retried once, and the retry's response is the
        // exchange's.
        for cut in [half_head, half_body] {
            for then in thens {
                let what = format!("split {split} cut {} {then:?}", cut.len());
                let scripts = [(cut, then), (&good[..], Then::Close)];
                let once = (reference.clone(), 2, Reuse::Keep);
                assert_eq!(run(&scripts, true, None), once, "{what}");
                // A second failure is the last.
                let scripts = [(cut, then), (cut, then), (&good[..], Then::Close)];
                let twice = ("failed".to_owned(), 2, Reuse::Spent);
                assert_eq!(run(&scripts, true, None), twice, "{what}");
                // A request that may not go out twice goes out once.
                let scripts = [(cut, then), (&good[..], Then::Close)];
                let never = ("failed".to_owned(), 1, Reuse::Spent);
                assert_eq!(run(&scripts, false, None), never, "{what}");
            }
        }
        // After engaging — at the head, or once a chunked body grew — a
        // failure only truncates.
        for then in thens {
            let what = format!("split {split} {then:?}");
            let truncated = ("stream failed false".to_owned(), 1, Reuse::Spent);
            let scripts = [(half_body, then), (&good[..], Then::Close)];
            assert_eq!(
                run(&scripts, true, rule(Rule::Plain, 0)),
                truncated,
                "{what}"
            );
            let cut = &chunked[..chunked.len() - 3];
            let scripts = [(cut, then), (&chunked[..], Then::Close)];
            assert_eq!(
                run(&scripts, true, rule(Rule::Plain, 0)),
                truncated,
                "{what}"
            );
        }
    }

    // Bytes behind the response in its last read leave the connection
    // unfit; reads that stop at the response's end leave it fit.
    let mut behind = good.clone();
    behind.extend_from_slice(NEXT);
    let run = run_exchange(&[(&behind, Then::Close)], true, None, 0);
    assert_eq!((run.outcome, run.reuse), (reference.clone(), Reuse::Unread));
    let run = run_exchange(&[(&behind, Then::Close)], true, None, good.len());
    assert_eq!((run.outcome, run.reuse), (reference, Reuse::Keep));
}

// ---------------------------------------------------------------------------
// The client machine (`proxyd::service::ClientMachine`, PROTOCOL.md §12.4):
// the request side both pollers drive. Socket-free, so the lane feeds it
// a pipelined wire in arbitrary pieces under a fake service and requires
// that the split never shows: the same requests handled, the same bytes
// staged, the close at the same point.
// ---------------------------------------------------------------------------

use piggyback::proxyd::service::{ClientMachine, Served, Service, UpstreamPlan};
use std::io::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The fake service's body cap: a larger request body is a `413`.
const CLIENT_CAP: usize = 1024;

/// Answers `/up…` with an upstream plan, `/park…` with a park, anything
/// else inline; its context records every request it handled.
struct Fake;

impl Service for Fake {
    type Ctx = Vec<String>;
    type Job = String;
    type Wait = ();

    fn make_ctx(&self) -> Vec<String> {
        Vec::new()
    }

    fn body_cap(&self) -> usize {
        CLIENT_CAP
    }

    fn handle(
        &self,
        req: &Request,
        peer: SocketAddr,
        _now: Instant,
        ctx: &mut Vec<String>,
        _scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> std::io::Result<Served<Self>> {
        let what = format!("{} {} {:?}", req.method, req.target, &req.body[..]);
        ctx.push(what.clone());
        if req.target.starts_with("/up") {
            return Ok(Served::Upstream(UpstreamPlan {
                origin: peer,
                request: Vec::new(),
                job: what,
                relay: None,
            }));
        }
        if req.target.starts_with("/park") {
            return Ok(Served::Park(()));
        }
        writeln!(out, "inline {what}")?;
        Ok(Served::Inline)
    }

    fn settle(
        &self,
        what: String,
        outcome: UpstreamOutcome,
        _now: Instant,
        _scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> std::io::Result<()> {
        let failed = matches!(outcome, UpstreamOutcome::Failed);
        writeln!(out, "upstream {what} failed {failed}")?;
        Ok(())
    }

    fn resume(
        &self,
        _job: String,
        _scratch: &mut ConnScratch,
        out: &mut Vec<u8>,
    ) -> std::io::Result<Served<Self>> {
        out.extend_from_slice(b"resumed\n");
        Ok(Served::Inline)
    }
}

/// Everything a run of the client machine shows its poller.
#[derive(Debug, PartialEq)]
struct ClientRun {
    /// The requests the service handled, in order.
    handled: Vec<String>,
    /// What each advance parked on, in order.
    parked: Vec<&'static str>,
    /// Every byte staged for the client.
    staged: Vec<u8>,
    /// The requests handled when the machine was done, and whether the
    /// client's EOF had arrived by then.
    closed: Option<(usize, bool)>,
}

fn peer() -> SocketAddr {
    "127.0.0.1:9".parse().unwrap()
}

/// Copy `bytes` into the machine the way a poller's reads do.
fn feed(machine: &mut ClientMachine, mut bytes: &[u8]) {
    while !bytes.is_empty() {
        let room = machine.input();
        let n = room.len().min(bytes.len());
        room[..n].copy_from_slice(&bytes[..n]);
        machine.filled(n);
        bytes = &bytes[n..];
    }
}

/// Drive the machine as a poller does: after each piece, advance, settle
/// what it parked on (a plan fails, a park is resumed inline), take what
/// is staged, and go again while it can advance without input. The
/// client's EOF follows the last piece.
fn run_client(pieces: &[&[u8]]) -> ClientRun {
    let now = Instant::now();
    let mut machine = ClientMachine::new(now);
    let mut ctx = Fake.make_ctx();
    let mut run = ClientRun {
        handled: Vec::new(),
        parked: Vec::new(),
        staged: Vec::new(),
        closed: None,
    };
    let eof: &[u8] = &[];
    for (i, piece) in pieces.iter().chain([&eof]).enumerate() {
        if piece.is_empty() {
            machine.filled(0);
        }
        feed(&mut machine, piece);
        loop {
            let mut next = machine.advance(&Fake, &mut ctx, peer(), now);
            while let Some(served) = next.take() {
                match served {
                    Served::Inline => unreachable!("inline answers are staged, not returned"),
                    Served::Upstream(plan) => {
                        run.parked.push("upstream");
                        let (scratch, out) = machine.stage();
                        let settled =
                            Fake.settle(plan.job, UpstreamOutcome::Failed, now, scratch, out);
                        machine.unpark(settled.is_ok());
                    }
                    Served::Park(()) => {
                        run.parked.push("park");
                        next = machine.resume(&Fake, String::new());
                    }
                }
            }
            let staged = machine.output();
            run.staged.extend_from_slice(staged);
            let n = staged.len();
            machine.wrote(n);
            if machine.done() {
                run.handled = ctx;
                run.closed = Some((run.handled.len(), i == pieces.len()));
                return run;
            }
            if !machine.can_advance() {
                break;
            }
        }
    }
    run.handled = ctx;
    run
}

/// A pipelined run — GET, HEAD, an upstream miss, a parked `Content-Length`
/// body, a chunked body — ended by a `Connection: close`, an oversized
/// body, garbage or the client's EOF, fed whole, at every request
/// boundary, and in 7- and 1-byte pieces: every split handles the same
/// requests, stages the same bytes and closes at the same point, and
/// nothing behind the end is handled.
#[test]
fn client_machine_is_split_transparent() {
    let run: [&[u8]; 5] = [
        b"GET /a HTTP/1.1\r\nHost: t\r\n\r\n",
        b"HEAD /a HTTP/1.1\r\n\r\n",
        b"GET /up/1 HTTP/1.1\r\n\r\n",
        b"POST /park/1 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
        b"POST /c HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
    ];
    let mut oversized = format!(
        "POST /big HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        2 * CLIENT_CAP
    )
    .into_bytes();
    oversized.extend_from_slice(&payload(2 * CLIENT_CAP));
    let ends: [(&str, &[u8]); 4] = [
        ("close", b"GET /last HTTP/1.1\r\nConnection: close\r\n\r\n"),
        ("oversized", &oversized),
        ("garbage", b"NOT AN HTTP LINE\r\n\r\n"),
        ("eof", b""),
    ];
    let behind: &[u8] = b"GET /never HTTP/1.1\r\n\r\n";
    for (end, last) in ends {
        let mut messages = run.to_vec();
        if end != "eof" {
            messages.extend([last, behind]);
        }
        let wire = messages.concat();
        let whole = run_client(&[&wire]);
        let cuts = [
            messages.clone(),
            wire.chunks(7).collect(),
            wire.chunks(1).collect(),
        ];
        for (i, pieces) in cuts.iter().enumerate() {
            assert_eq!(run_client(pieces), whole, "{end}, split {i}");
        }

        let handled = whole.handled.len();
        assert_eq!(whole.parked, ["upstream", "park"], "{end}");
        assert!(!whole.handled.iter().any(|r| r.contains("/never")), "{end}");
        let staged = String::from_utf8_lossy(&whole.staged).into_owned();
        assert!(
            staged.starts_with(
                "inline GET /a []\ninline HEAD /a []\nupstream GET /up/1 [] failed true\nresumed\n"
            ),
            "{end}: {staged}"
        );
        let chunked = format!("inline POST /c {:?}\n", b"hello");
        match end {
            "close" => {
                assert_eq!(whole.closed, Some((6, false)), "{end}");
                assert!(staged.ends_with("inline GET /last []\n"), "{staged}");
            }
            "oversized" => {
                assert_eq!(whole.closed, Some((5, false)), "{end}");
                let refused = format!("{chunked}HTTP/1.1 413 ");
                assert!(staged.contains(&refused), "{staged}");
            }
            "garbage" => {
                assert_eq!(whole.closed, Some((5, false)), "{end}");
                assert!(
                    staged.ends_with(&chunked),
                    "no answer for garbage: {staged}"
                );
            }
            _ => {
                assert_eq!(whole.closed, Some((5, true)), "{end}");
                assert!(staged.ends_with(&chunked), "{staged}");
            }
        }
        assert_eq!(handled, whole.closed.unwrap().0);
    }
}

/// The read deadline runs from the first byte of a request still
/// incomplete, and later bytes do not extend it; a complete request
/// clears it, leaving the idle deadline from the last activity. The clock
/// is the one passed in.
#[test]
fn client_machine_read_deadline_runs_from_the_first_byte() {
    let idle = Duration::from_secs(10);
    let t0 = Instant::now();
    let at = |s: u64| t0 + Duration::from_secs(s);
    let mut ctx = Fake.make_ctx();
    let mut machine = ClientMachine::new(t0);
    assert_eq!(machine.deadline(idle), at(10), "idle from the accept");
    machine.advance(&Fake, &mut ctx, peer(), at(4));
    assert_eq!(machine.deadline(idle), at(14), "idle from the last advance");

    feed(&mut machine, b"GET /slow HTTP/1.1\r\n");
    machine.advance(&Fake, &mut ctx, peer(), at(5));
    for s in 6..15 {
        feed(&mut machine, b"X");
        machine.advance(&Fake, &mut ctx, peer(), at(s));
        assert_eq!(machine.deadline(idle), at(15), "trickled byte at {s}s");
        assert!(!machine.expired(at(s), idle), "{s}s");
    }
    assert!(machine.expired(at(15), idle));
    assert!(ctx.is_empty());

    feed(&mut machine, b": y\r\n\r\n");
    machine.advance(&Fake, &mut ctx, peer(), at(14));
    assert_eq!(ctx.len(), 1, "the request completed");
    assert_eq!(machine.deadline(idle), at(24), "back to the idle deadline");
    assert!(!machine.expired(at(15), idle));
}

/// A relay the client drains slowly holds at most twice what it still
/// owes: the written prefix of the output goes once it is as long as the
/// rest (an amortised drain, not a reallocation). Each step stages one
/// 64 KiB read the way a relay does, and the client takes half of what is
/// owed; every byte still reaches it, in order.
#[test]
fn client_output_is_bounded_by_what_is_owed() {
    const READ: usize = 64 * 1024;
    let mut machine = ClientMachine::new(Instant::now());
    let body = payload(64 * READ);
    let mut delivered = Vec::new();
    let held = |machine: &mut ClientMachine| machine.stage().1.len();
    for (i, read) in body.chunks(READ).enumerate() {
        machine.stage().1.extend_from_slice(read);
        let owed = machine.output().len();
        assert!(held(&mut machine) <= 2 * owed + READ, "read {i} staged");
        delivered.extend_from_slice(&machine.output()[..owed / 2]);
        machine.wrote(owed / 2);
        let owed = machine.output().len();
        assert!(
            held(&mut machine) <= 2 * owed + READ,
            "read {i} half written"
        );
    }
    let owed = machine.output().len();
    delivered.extend_from_slice(machine.output());
    machine.wrote(owed);
    assert!(
        delivered == body,
        "every staged byte reached the client, in order"
    );
    assert_eq!(held(&mut machine), 0);
}

// ---------------------------------------------------------------------------
// The byte-level head parser against the reference it replaced: lines read
// byte by byte, `split_once(':')`, `str::trim` and `HeaderMap::try_insert`,
// with one change of rule — the field name is no longer trimmed, so
// whitespace before the colon and an obs-fold line are rejected (RFC 9112
// §5.1–5.2). Same message, or the same error variant, on every input.
// ---------------------------------------------------------------------------

mod reference {
    use piggyback::httpwire::parse::{content_length, MAX_BODY, MAX_HEADERS, MAX_LINE};
    use piggyback::httpwire::{Body, HeaderMap, HttpError, Request, Response, Version};
    use std::io::{BufRead, Read};

    pub fn read_line_into<'a, R: BufRead>(
        r: &mut R,
        buf: &'a mut Vec<u8>,
    ) -> Result<&'a str, HttpError> {
        buf.clear();
        loop {
            let available = r.fill_buf()?;
            if available.is_empty() {
                return Err(HttpError::ConnectionClosed);
            }
            match available.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    buf.extend_from_slice(&available[..pos]);
                    r.consume(pos + 1);
                    break;
                }
                None => {
                    let len = available.len();
                    buf.extend_from_slice(available);
                    r.consume(len);
                    if buf.len() > MAX_LINE {
                        return Err(HttpError::LimitExceeded("line length"));
                    }
                }
            }
        }
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        if buf.len() > MAX_LINE {
            return Err(HttpError::LimitExceeded("line length"));
        }
        std::str::from_utf8(buf).map_err(|e| HttpError::BadHeader(format!("non-UTF8 line: {e}")))
    }

    /// One field line; the name is taken as it stands.
    pub fn field(map: &mut HeaderMap, line: &str) -> Result<(), HttpError> {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(line.to_owned()))?;
        map.try_insert(name, value.trim())
            .map_err(|_| HttpError::BadHeader(line.to_owned()))
    }

    fn read_fields<R: BufRead>(
        r: &mut R,
        map: &mut HeaderMap,
        limit: &'static str,
    ) -> Result<(), HttpError> {
        let mut buf = Vec::new();
        loop {
            let line = read_line_into(r, &mut buf)?;
            if line.is_empty() {
                return Ok(());
            }
            if map.len() >= MAX_HEADERS {
                return Err(HttpError::LimitExceeded(limit));
            }
            field(map, line)?;
        }
    }

    fn read_chunked<R: BufRead>(r: &mut R) -> Result<Vec<u8>, HttpError> {
        let mut body = Vec::new();
        let mut buf = Vec::new();
        loop {
            let line = read_line_into(r, &mut buf)?;
            let part = line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(part, 16)
                .map_err(|_| HttpError::BadChunkSize(line.to_owned()))?;
            if body.len().checked_add(size).is_none_or(|t| t > MAX_BODY) {
                return Err(HttpError::LimitExceeded("chunked body size"));
            }
            if size == 0 {
                break;
            }
            let at = body.len();
            body.resize(at + size, 0);
            r.read_exact(&mut body[at..])?;
            let mut crlf = [0u8; 2];
            r.read_exact(&mut crlf)?;
            if &crlf != b"\r\n" {
                return Err(HttpError::BadChunkSize("missing chunk CRLF".into()));
            }
        }
        read_fields(r, &mut HeaderMap::new(), "trailer count")?;
        Ok(body)
    }

    pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, HttpError> {
        let mut buf = Vec::new();
        let line = read_line_into(r, &mut buf)?;
        let mut parts = line.split_ascii_whitespace();
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) => (m, t, v),
                _ => return Err(HttpError::BadRequestLine(line.to_owned())),
            };
        let mut req = Request::new(method, target);
        req.version = Version::parse(version)?;
        read_fields(r, &mut req.headers, "header count")?;
        if req.headers.list_contains("Transfer-Encoding", "chunked") {
            req.body = read_chunked(r)?.into();
        } else if let Some(n) = content_length(&req.headers)?.filter(|&n| n > 0) {
            let mut body = Vec::new();
            r.take(n as u64).read_to_end(&mut body)?;
            if body.len() < n {
                return Err(HttpError::ConnectionClosed);
            }
            req.body = body.into();
        }
        Ok(req)
    }

    pub fn read_head<R: BufRead>(r: &mut R) -> Result<Response, HttpError> {
        let mut buf = Vec::new();
        let line = read_line_into(r, &mut buf)?.to_owned();
        let mut parts = line.splitn(3, ' ');
        let version = Version::parse(parts.next().unwrap_or(""))
            .map_err(|_| HttpError::BadStatusLine(line.clone()))?;
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| HttpError::BadStatusLine(line.clone()))?;
        let reason = parts.next().unwrap_or("").to_owned();
        let mut headers = HeaderMap::new();
        read_fields(r, &mut headers, "header count")?;
        Ok(Response {
            version,
            status,
            reason,
            headers,
            body: Body::empty(),
            trailers: HeaderMap::new(),
        })
    }

    /// A chunked body's trailer section (what follows `0\r\n`) fed in
    /// `pieces`, as the streaming decoder took it: the limit on the count
    /// is checked before the line's UTF-8. `None`: the section never ended.
    pub fn trailers(pieces: &[&[u8]]) -> Option<Result<HeaderMap, HttpError>> {
        let mut map = HeaderMap::new();
        let mut line = Vec::new();
        let step = |line: &mut Vec<u8>, map: &mut HeaderMap| {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if line.len() > MAX_LINE {
                return Err(HttpError::LimitExceeded("line length"));
            }
            if line.is_empty() {
                return Ok(true);
            }
            if map.len() >= MAX_HEADERS {
                return Err(HttpError::LimitExceeded("trailer count"));
            }
            let text = std::str::from_utf8(line)
                .map_err(|_| HttpError::BadHeader("non-UTF8 trailer".into()))?;
            field(map, text)?;
            line.clear();
            Ok(false)
        };
        for piece in pieces {
            let mut pos = 0;
            while pos < piece.len() {
                match piece[pos..].iter().position(|&b| b == b'\n') {
                    Some(nl) => {
                        line.extend_from_slice(&piece[pos..pos + nl]);
                        pos += nl + 1;
                        match step(&mut line, &mut map) {
                            Ok(true) => return Some(Ok(map)),
                            Ok(false) => {}
                            Err(e) => return Some(Err(e)),
                        }
                    }
                    None => {
                        line.extend_from_slice(&piece[pos..]);
                        pos = piece.len();
                        if line.len() > MAX_LINE {
                            return Some(Err(HttpError::LimitExceeded("line length")));
                        }
                    }
                }
            }
        }
        None
    }
}

/// A result with its error reduced to the variant (and a limit's name).
fn variant<T>(r: Result<T, HttpError>) -> Result<T, String> {
    r.map_err(|e| match e {
        HttpError::LimitExceeded(what) => format!("LimitExceeded({what})"),
        other => format!("{other:?}")
            .split('(')
            .next()
            .unwrap_or_default()
            .to_owned(),
    })
}

const FIELD_NAMES: [&str; 6] = [
    "Host",
    "Transfer-Encoding",
    "Content-Length",
    "TE",
    "X-Probe",
    "P-volume",
];
/// Optional whitespace, Unicode spaces `str::trim` removes, and the CR
/// and NUL no value may keep.
const PADS: [&str; 9] = [
    "", " ", "\t", "  ", "\x0b", "\x0c", "\r", "\u{a0}", "\u{3000}",
];
const INJECTED: [&[u8]; 9] = [
    b"",
    b"\r",
    b"\0",
    "é".as_bytes(),
    "\u{85}".as_bytes(),
    b"\xff",
    b"\t",
    b":",
    b"\n",
];

/// One field line ending in CRLF or a bare LF: well formed, or with
/// whitespace before the colon, an obs-fold, an empty or non-token name,
/// padding around the value, and a byte injected into it.
fn arb_field_line() -> impl Strategy<Value = Vec<u8>> {
    (
        (0..FIELD_NAMES.len(), 0u8..8),
        (0..PADS.len(), 0..PADS.len()),
        "[ -~]{0,24}",
        (0..INJECTED.len(), 0usize..25),
        0..16usize,
        any::<bool>(),
    )
        .prop_map(
            |((name, shape), (lead, tail), value, (inject, at), long, lf)| {
                let mut line = Vec::new();
                match shape {
                    0 => line.extend_from_slice(b" "),
                    1 => line.extend_from_slice(b"\t"),
                    _ => {}
                }
                if shape != 2 {
                    line.extend_from_slice(FIELD_NAMES[name].as_bytes());
                }
                match shape {
                    3 => line.extend_from_slice(b" "),
                    4 => line.extend_from_slice(b"\t"),
                    5 => line.extend_from_slice(b"@x"),
                    _ => {}
                }
                line.push(b':');
                line.extend_from_slice(PADS[lead].as_bytes());
                let mut value = value.into_bytes();
                let at = at.min(value.len());
                value.splice(at..at, INJECTED[inject].iter().copied());
                line.extend_from_slice(&value);
                // Now and then a line one byte short of the length limit, at
                // it, or one byte over it.
                let pad = PADS[tail].as_bytes();
                if long < 3 {
                    let want = piggyback::httpwire::parse::MAX_LINE - 1 + long;
                    line.resize(want.saturating_sub(pad.len()).max(line.len()), b'v');
                }
                line.extend_from_slice(pad);
                line.extend_from_slice(if lf { b"\n" } else { b"\r\n" });
                line
            },
        )
}

/// A head: `start` then field lines and the blank line, then a body.
fn arb_head(start: &'static [&'static str]) -> impl Strategy<Value = Vec<u8>> {
    (
        0..start.len(),
        proptest::collection::vec(arb_field_line(), 0..6),
        prop_oneof![
            Just(&b""[..]),
            Just(&b"abcde"[..]),
            Just(&b"3\r\nabc\r\n0\r\nX-T: v\r\n\r\n"[..]),
        ],
    )
        .prop_map(move |(line, fields, body)| {
            let mut wire = start[line].as_bytes().to_vec();
            wire.extend(fields.concat());
            wire.extend_from_slice(b"\r\n");
            wire.extend_from_slice(body);
            wire
        })
}

const REQUEST_LINES: &[&str] = &[
    "GET /a.html HTTP/1.1\r\n",
    "POST /form HTTP/1.1\r\n",
    "GET /b HTTP/1.0\n",
    "GET  /c  HTTP/1.1 \r\n",
    "GET /d HTTP/2.0\r\n",
    "GET /e\r\n",
];
const STATUS_LINES: &[&str] = &[
    "HTTP/1.1 200 OK\r\n",
    "HTTP/1.1 304 Not Modified\r\n",
    "HTTP/1.0 404\r\n",
    "HTTP/1.1 2x0 OK\r\n",
];

/// Every split of `wire` for a short one; about 64 evenly spaced splits,
/// and those around each line end, for a long one.
fn splits(wire: &[u8]) -> Vec<usize> {
    if wire.len() <= 1024 {
        return (0..=wire.len()).collect();
    }
    let mut at: Vec<usize> = (0..=64).map(|i| i * wire.len() / 64).collect();
    for (i, _) in wire.iter().enumerate().filter(|(_, &b)| b == b'\n') {
        at.extend([i.saturating_sub(1), i, i + 1]);
    }
    at.retain(|&s| s <= wire.len());
    at
}

fn check_request(wire: &[u8]) {
    let want = variant(reference::read_request(&mut BufReader::new(wire)));
    assert_eq!(&variant(Request::read(&mut BufReader::new(wire))), &want);
    // A reused request and scratch, the serve loop's shape, read the same
    // message twice over; a tiny reader splits lines across fills.
    let mut req = Request::empty();
    let mut scratch = ConnScratch::new();
    for cap in [3, 4096] {
        let got = req
            .read_into(&mut BufReader::with_capacity(cap, wire), &mut scratch)
            .map(|()| req.clone());
        let want = variant(reference::read_request(&mut BufReader::with_capacity(
            cap, wire,
        )));
        assert_eq!(variant(got), want);
    }
}

fn check_head(wire: &[u8]) {
    for split in splits(wire) {
        let (a, b) = wire.split_at(split);
        let got = variant(Response::read_head(&mut std::io::Read::chain(a, b)));
        let want = variant(reference::read_head(&mut std::io::Read::chain(a, b)));
        assert_eq!(got, want, "split {}", split);
    }
}

fn check_trailers(section: &[u8]) {
    for split in splits(section) {
        let (a, b) = section.split_at(split);
        let mut reader = BodyReader::chunked();
        let mut sink = Vec::new();
        let mut got = None;
        for piece in [&b"0\r\n"[..], a, b] {
            match reader.push(piece, &mut sink) {
                Err(e) => {
                    got = Some(Err(e));
                    break;
                }
                Ok(_) if reader.is_done() => {
                    got = Some(Ok(reader.trailers().clone()));
                    break;
                }
                Ok(_) => {}
            }
        }
        let want = reference::trailers(&[a, b]);
        assert_eq!(got.map(variant), want.map(variant), "split {}", split);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `Request::read` and a reused `read_into` parse what the reference
    /// parses, on arbitrary bytes and on heads with injected whitespace,
    /// non-ASCII, NUL, CR and over-long lines.
    #[test]
    fn request_parser_matches_the_reference(
        head in arb_head(REQUEST_LINES),
        noise in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        check_request(&head);
        check_request(&noise);
        let mut prefixed = b"GET / HTTP/1.1\r\n".to_vec();
        prefixed.extend_from_slice(&noise);
        check_request(&prefixed);
    }

    /// `Response::read_head` over a `Chain` split anywhere parses what the
    /// reference parses over the same split.
    #[test]
    fn response_head_parser_matches_the_reference(
        head in arb_head(STATUS_LINES),
        noise in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        check_head(&head);
        let mut prefixed = b"HTTP/1.1 200 OK\r\n".to_vec();
        prefixed.extend_from_slice(&noise);
        check_head(&prefixed);
    }

    /// `BodyReader` trailers, fed split at every point, are the
    /// reference's trailers, or its error.
    #[test]
    fn body_reader_trailers_match_the_reference(
        fields in proptest::collection::vec(arb_field_line(), 0..5),
        noise in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut section = fields.concat();
        section.extend_from_slice(b"\r\n");
        check_trailers(&section);
        check_trailers(&noise);
    }
}

/// Field names that frame a request, in the cases a client may send them,
/// and two that only look alike.
const FRAMING_NAMES: [&str; 9] = [
    "Connection",
    "connection",
    "CoNNection",
    "Transfer-Encoding",
    "transfer-encoding",
    "Content-Length",
    "CONTENT-LENGTH",
    "Keep-Alive",
    "X-Connection",
];
const FRAMING_VALUES: [&str; 24] = [
    "close",
    "Close",
    "keep-alive",
    "KEEP-ALIVE",
    "keep-alive, close",
    "TE, close",
    " upgrade ,Keep-Alive ",
    "x, ,close,",
    "closed",
    "chunked",
    "gzip, chunked",
    "chunked, gzip",
    "Chunked",
    "gzip",
    "notchunked",
    "0",
    "4",
    "007",
    "-1",
    "abc",
    "4 4",
    "67108864",
    "67108865",
    "99999999999999999999",
];

/// A request head of framing fields: `Connection` in mixed case and
/// repeated, `Transfer-Encoding` lists, duplicate and malformed
/// `Content-Length`, under HTTP/1.0 or 1.1.
fn arb_framing_head() -> impl Strategy<Value = (bool, Vec<u8>)> {
    (
        any::<bool>(),
        proptest::collection::vec(
            (
                0..FRAMING_NAMES.len(),
                0..FRAMING_VALUES.len(),
                0..PADS.len(),
            ),
            0..7,
        ),
    )
        .prop_map(|(http10, fields)| {
            let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
            let mut wire = format!("GET /f {version}\r\nHost: t\r\n");
            for (name, value, pad) in fields {
                let (name, pad) = (FRAMING_NAMES[name], PADS[pad]);
                wire.push_str(&format!("{name}:{pad}{}{pad}\r\n", FRAMING_VALUES[value]));
            }
            wire.push_str("\r\n");
            (http10, wire.into_bytes())
        })
}

proptest! {
    /// What the field pass records equals what the map-scanning accessors
    /// compute on the map it parsed, and `read_into_capped` hands back
    /// exactly that record.
    #[test]
    fn field_pass_framing_matches_the_map((http10, wire) in arb_framing_head()) {
        use piggyback::httpwire::parse::{content_length, read_request_fields_into};
        use piggyback::httpwire::Version;
        let fields = &wire[wire.iter().position(|&b| b == b'\n').unwrap() + 1..];
        let (mut map, mut line) = (HeaderMap::new(), Vec::new());
        let framing = read_request_fields_into(&mut BufReader::new(fields), &mut map, &mut line)
            .unwrap();
        prop_assert_eq!(framing.chunked, map.list_contains("Transfer-Encoding", "chunked"));
        prop_assert_eq!(framing.close, map.list_contains("Connection", "close"));
        prop_assert_eq!(framing.keep_alive_token, map.list_contains("Connection", "keep-alive"));
        prop_assert_eq!(
            format!("{:?}", framing.content_length()),
            format!("{:?}", content_length(&map))
        );
        let mut req = Request::new("GET", "/f");
        req.version = if http10 { Version::Http10 } else { Version::Http11 };
        req.headers = map;
        prop_assert_eq!(framing.keep_alive(req.version), req.keep_alive());

        let mut read = Request::empty();
        let mut scratch = ConnScratch::new();
        // A declared or chunked body that never arrives fails the read;
        // a head that frames none hands back the record.
        if let Ok(got) = read.read_into_capped(&mut &wire[..], &mut scratch, 1 << 20) {
            prop_assert_eq!(got, framing);
            prop_assert_eq!(&read.headers, &req.headers);
        }
    }
}

/// The fixed-width date encoder gives the bytes of the `write!` rendering
/// it replaced at four times of day on every day of 1900–2100 and of the
/// years 0 and 9999; outside 0–9999 it falls back to that rendering.
#[test]
fn rfc1123_encoder_matches_the_formatter() {
    use piggyback::core::datetime::{civil_from_unix, days_from_civil, weekday_from_unix, Rfc1123};
    const DAYS: [&str; 7] = ["Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"];
    const MONTHS: [&str; 12] = [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ];
    let formatted = |unix: i64| {
        let c = civil_from_unix(unix);
        format!(
            "{}, {:02} {} {:04} {:02}:{:02}:{:02} GMT",
            DAYS[weekday_from_unix(unix) as usize],
            c.day,
            MONTHS[(c.month - 1) as usize],
            c.year,
            c.hour,
            c.minute,
            c.second
        )
    };
    let years = [
        (1900, 2100),
        (0, 0),
        (9999, 9999),
        (-1, -1),
        (10_000, 10_000),
    ];
    let mut out = Vec::new();
    for (first, last) in years {
        for day in days_from_civil(first, 1, 1)..days_from_civil(last + 1, 1, 1) {
            for secs in [0, 31_777, 43_200, 86_399] {
                let unix = day * 86_400 + secs;
                out.clear();
                Rfc1123(unix).encode(&mut out);
                let want = formatted(unix);
                assert_eq!(out, want.as_bytes(), "unix {unix}");
                assert_eq!(Rfc1123(unix).to_string(), want);
                assert_eq!(
                    Rfc1123(unix).to_bytes().is_some(),
                    (0..=9999).contains(&first)
                );
            }
        }
    }
}

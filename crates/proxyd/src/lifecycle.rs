//! The upstream lifecycle, written once for both proxy engines.
//!
//! Everything between "the plan says *go upstream*" and "the client has
//! its answer" that needs no socket lives here: which request goes to the
//! origin ([`first_leg`], [`speculative_leg`]), the
//! attempts that carry it — retry, deadline and reuse
//! ([`ExchangeMachine`]), how the response is decoded and whether it
//! buffers or cuts through to the client ([`ResponseMachine`], under the
//! leg's [`RelayRule`]), the head a prefix hit sends ahead of it
//! ([`probe_prefix`]), and what the
//! exchange's [`UpstreamOutcome`] does to the cache, the counters, the
//! piggyback state and the reply ([`settle`]). Both
//! pollers of the proxy service — the blocking one ([`crate::service`])
//! and the reactor — dial, write, read bytes into the exchange machine,
//! hand its outcome here through the plan's continuation, and write what
//! comes back — so the two engines cannot drift (PROTOCOL.md §7.1, §14).
//! The volume center drives the same machine through the same blocking
//! loop, under the upstream's own head ([`AsIs`], PROTOCOL.md §14.1).
//! A `Content-Length` body relayed under raw framing is never copied
//! here: the machine names the payload of each read by its
//! [span](ExchangeMachine::span), and every driver writes it after what
//! the read staged; every driver's reads start at [`UPSTREAM_READ`] and
//! grow once by [`grow_upstream_read`].

use crate::prefetch::{self, PIGGY_PUSH_HEADER, PUSH_COUNT_HEADER};
use crate::proxy::ProxyShared;
use piggyback_core::datetime::{
    format_rfc1123, parse_rfc1123, timestamp_from_unix, unix_from_timestamp,
    DEFAULT_TRACE_EPOCH_UNIX,
};
use piggyback_core::filter::{ProxyFilter, PIGGY_FILTER_HEADER};
use piggyback_core::proxy::{classify_element, ElementAction};
use piggyback_core::report::PIGGY_REPORT_HEADER;
use piggyback_core::types::{ResourceId, Timestamp};
use piggyback_core::wire::{decode_p_volume, P_VOLUME_HEADER};
use piggyback_httpwire::{
    encode_stream_head, parse, Body, BodyReader, BodyWriter, ConnScratch, HttpError, Request,
    Response, StreamFraming,
};
use piggyback_webcache::CacheEntry;
use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

/// Everything the rest of a request needs once planning resolved it to
/// upstream work, detached from the `Request` (owned path, filter,
/// drained report) so either driver can carry it across an exchange.
pub(crate) struct UpstreamJob {
    pub(crate) path: String,
    pub(crate) source: SocketAddr,
    /// A validation's `Last-Modified` and the cached body it validates,
    /// pinned at planning (a refcount, no copy): a 304 answers from this
    /// body even if the entry was evicted or replaced mid-flight.
    pub(crate) validate: Option<(Timestamp, Body)>,
    pub(crate) filter: ProxyFilter,
    pub(crate) report: Option<String>,
    /// Spans planning, any queue wait, and the exchange, so latency
    /// histograms mean the same thing in both I/O modes.
    pub(crate) start: Instant,
    /// Set by [`probe_prefix`] once a retained prefix head went to the
    /// client: the fetch is then the suffix refetch behind it.
    pub(crate) prefix: Option<PrefixHit>,
}

/// The retained prefix a request was answered from.
pub(crate) struct PrefixHit {
    r: ResourceId,
    total: usize,
    head_len: usize,
}

/// How an upstream exchange ended, as either driver reports it.
pub enum UpstreamOutcome {
    /// A complete response was read off the origin connection, with the
    /// whole responses a `--push` origin streamed behind it.
    Response(Response, Vec<Response>),
    /// The exchange failed terminally before any origin payload byte
    /// moved downstream (dial failure, second-attempt I/O error, or
    /// timeout).
    Failed,
    /// A streaming relay delivered the entire payload to the client.
    /// `head` is the origin's response head (body empty, trailers filled
    /// in when the body was chunked), `prefix` the teed leading bytes per
    /// the [`RelayRule`].
    Streamed {
        head: Response,
        total: usize,
        prefix: Vec<u8>,
    },
    /// A streaming exchange died after bytes (head or payload) may have
    /// reached the client: no retry is possible and no error response may
    /// be written, only a truncated close. `mismatch` marks a response
    /// whose head or length contradicted [`RelayRule::expect_total`].
    StreamFailed { mismatch: bool },
}

/// Large-object cut-through parameters for one upstream exchange, the same
/// on both engines: a `200` declaring at least `threshold` payload bytes
/// engages at its head, and a chunked one, whose size no header declares,
/// grows into a relay once that many are decoded. Once engaged, payload
/// moves origin → client read by read, with O(read) memory, and the
/// exchange is never retried.
#[derive(Debug, Clone, Copy)]
pub struct RelayRule {
    /// Engage when the payload is at least this many bytes, declared or
    /// decoded (ignored when `expect_total` pins an exact length).
    pub threshold: usize,
    /// Tee the first N payload bytes, handed back through
    /// [`UpstreamOutcome::Streamed`] for the prefix store.
    pub prefix_bytes: usize,
    /// Drop this many leading payload bytes instead of forwarding them —
    /// the suffix relay behind a cache-served prefix head.
    pub skip: usize,
    /// The client head already sent (with the cached prefix) promised
    /// exactly this many payload bytes: any 200 relays under it, and a
    /// body that turns out longer or shorter is a mismatch.
    pub expect_total: Option<usize>,
    /// Proxy-clock time the leg was built: the `Last-Modified` of a
    /// streamed client head whose origin sent none.
    pub now: Timestamp,
}

/// What a response head means for a fetch carrying a [`RelayRule`].
enum RelayDecision {
    /// Relay from the first payload byte, under a client head declaring
    /// this many.
    Engage(usize),
    /// A chunked 200 that engages if it reaches the threshold.
    Grow,
    /// Small or non-200: buffer the exchange as usual.
    Buffer,
    /// The head contradicts a pinned length: terminal.
    Mismatch,
}

impl RelayRule {
    /// The relay decision, from the response head alone.
    fn decide(&self, head: &Response) -> RelayDecision {
        let ok = head.status == 200;
        let chunked = head.headers.list_contains("Transfer-Encoding", "chunked");
        let declared = if chunked {
            None
        } else {
            // A malformed Content-Length fails a pinned relay outright;
            // otherwise the decoder choice produces the error.
            parse::content_length(&head.headers).unwrap_or(None)
        };
        match (self.expect_total, declared) {
            (Some(want), _) if ok && (chunked || declared == Some(want)) => {
                RelayDecision::Engage(want)
            }
            (Some(_), _) => RelayDecision::Mismatch,
            (None, Some(n)) if ok && n >= self.threshold => RelayDecision::Engage(n),
            (None, _) if ok && chunked => RelayDecision::Grow,
            (None, _) => RelayDecision::Buffer,
        }
    }
}

/// The client side of an engaged relay.
#[derive(Default)]
struct Relay {
    /// Chunked client framing (a grown chunked body) re-encodes through
    /// this; `None` passes payload through raw under a declared length.
    chunker: Option<BodyWriter>,
    /// Raw framing: payload bytes the client head still promises.
    owed: usize,
    /// Leading payload bytes still to drop.
    skip: usize,
    /// The leading payload bytes copied aside for the prefix store, up to
    /// `want`.
    prefix: Vec<u8>,
    want: usize,
    /// Payload bytes the last feed forwarded in place: the tail of the
    /// input it consumed, which the driver writes after the sink.
    passed: usize,
    /// Decoded payload staged for the sink, reused across feeds.
    seg: Vec<u8>,
    /// The chunked client body ends with the upstream's trailers (an
    /// as-is relay of a chunked body), not with the head's.
    trailing: bool,
}

impl Relay {
    /// A relay under a client head declaring `declared` payload bytes
    /// (`None`: chunked), skipping and teeing what `rule` says.
    fn new(declared: Option<usize>, rule: Option<&RelayRule>) -> Relay {
        let (skip, want) = rule.map_or((0, 0), |r| (r.skip, r.prefix_bytes));
        Relay {
            chunker: declared.is_none().then(BodyWriter::chunked),
            owed: declared.unwrap_or(0).saturating_sub(skip),
            skip,
            want,
            ..Relay::default()
        }
    }

    /// Copy aside what the prefix store still wants of `payload`.
    fn tee(prefix: &mut Vec<u8>, want: usize, payload: &[u8]) {
        let take = (want - prefix.len()).min(payload.len());
        prefix.extend_from_slice(&payload[..take]);
    }

    /// Decode `input` and move its payload on, past the skip and through
    /// the tee, returning the input consumed — `None` when the body
    /// overran the promised length, with nothing of this input forwarded.
    /// A `Content-Length` body under raw framing is not copied at all: its
    /// payload stays in `input`, the last [`passed`](Self::passed) bytes
    /// consumed. Any other is decoded into `seg` first, then chunk-encoded
    /// or copied raw into `sink`.
    fn forward(
        &mut self,
        reader: &mut BodyReader,
        input: &[u8],
        sink: &mut Vec<u8>,
    ) -> Result<Option<usize>, HttpError> {
        self.passed = 0;
        self.seg.clear();
        let passed = self.chunker.is_none().then(|| reader.pass(input)).flatten();
        let (consumed, payload) = match passed {
            Some(n) => (n, &input[..n]),
            None => (reader.push(input, &mut self.seg)?, &self.seg[..]),
        };
        Relay::tee(&mut self.prefix, self.want, payload);
        let drop = self.skip.min(payload.len());
        self.skip -= drop;
        let payload = &payload[drop..];
        if let Some(chunker) = &mut self.chunker {
            chunker.push(payload, sink)?;
        } else if let Some(left) = self.owed.checked_sub(payload.len()) {
            self.owed = left;
            match passed {
                Some(_) => self.passed = payload.len(),
                None => sink.extend_from_slice(payload),
            }
        } else {
            return Ok(None);
        }
        Ok(Some(consumed))
    }
}

/// What the volume center's head hook sees: the main response head, and
/// the payload length the client head declares (0 for a chunked body) or
/// the buffered body's. It may add headers and trailers.
pub type HeadHook<'h> = &'h (dyn Fn(&mut Response, usize) + Sync);

/// The volume center's relay (PROTOCOL.md §14.1): the client gets the
/// upstream's own head — any status, after the hook — in the framing
/// `Response::write` would give it, and the upstream's trailers behind a
/// chunked body. The body engages at the head, except where the head
/// cannot go out first: a body delimited by the upstream's close, a
/// chunked body the hook must learn the size of, a head announcing a
/// push burst, whose count must stay rewritable, and any response of a
/// relay that records it whole.
#[derive(Clone, Copy)]
pub struct AsIs<'h> {
    /// The request was a `HEAD`: the response has no body.
    pub head_request: bool,
    /// Buffer every response whole: the record tap keeps the decoded
    /// body and its trailers.
    pub whole: bool,
    /// Runs once on the main response before any of it is in the sink: at
    /// the head when the body engages, on the whole response (the
    /// exchange's outcome) otherwise.
    pub hook: Option<HeadHook<'h>>,
}

/// One upstream exchange in flight, written once for both engines and
/// socket-free. A driver builds the machine from the leg's relay rule and
/// push acceptance, and from then on only reads bytes and
/// [`feed`](Self::feed)s them, from the first byte of the status line
/// on: the machine parses the head, picks the decoder, decides buffer /
/// relay / grow-then-relay, writes whatever the client is owed into the
/// sink the driver flushes, reads the pushed responses a `--push` origin
/// announced behind it, and ends as the exchange's [`UpstreamOutcome`].
/// Each attempt of an [`ExchangeMachine`] reads its response with one.
#[derive(Default)]
pub struct ResponseMachine<'h> {
    rule: Option<RelayRule>,
    as_is: Option<AsIs<'h>>,
    /// The leg sent `Piggy-push: accept`, so an `X-Push-Count` on the main
    /// head announces that many responses behind it.
    accept_push: bool,
    /// Bytes of the next head whose blank line has not arrived yet.
    held: Vec<u8>,
    /// The main response, from its head on.
    main: Option<Part>,
    /// The pushed response being read, from its head on.
    push: Option<Part>,
    /// Whole pushed responses, in wire order.
    pushed: Vec<Response>,
    /// Announced pushes not read whole yet.
    owed: usize,
    /// The bytes of the last feed's input the client gets as they are.
    span: Range<usize>,
}

impl<'h> ResponseMachine<'h> {
    /// A machine for one exchange, before any byte of its response.
    pub fn new(rule: Option<RelayRule>, accept_push: bool) -> ResponseMachine<'h> {
        ResponseMachine {
            rule,
            accept_push,
            ..ResponseMachine::default()
        }
    }

    /// A machine for one as-is exchange (the volume center's).
    pub fn as_is(as_is: AsIs<'h>, accept_push: bool) -> ResponseMachine<'h> {
        ResponseMachine {
            as_is: Some(as_is),
            accept_push,
            ..ResponseMachine::default()
        }
    }

    /// Has payload (or its client head) been handed to the sink? From
    /// here on a failure can only truncate: no retry, no error response.
    pub fn engaged(&self) -> bool {
        self.main.as_ref().is_some_and(|m| m.relay.is_some())
    }

    /// May a failed exchange go again on a fresh connection? Only while
    /// nothing of it is worth keeping: no byte reached the client and the
    /// main response has not ended.
    pub fn retryable(&self) -> bool {
        !self.engaged() && !self.main.as_ref().is_some_and(Part::is_done)
    }

    /// Did the exchange end: the main response whole or in a mismatch, and
    /// every push it announced read (or the burst cut short)?
    pub fn is_done(&self) -> bool {
        self.main.as_ref().is_some_and(Part::is_done) && self.owed == 0
    }

    /// May the connection carry another exchange: the response ended
    /// whole, framed (not by the upstream's close) under a head that
    /// allows keep-alive, and so did every push it announced? The
    /// response's half of [`ExchangeMachine::reuse`], which also refuses a
    /// connection with bytes unread behind the response or after EOF — the
    /// two ways a burst can be cut short.
    pub fn reusable(&self) -> bool {
        self.main
            .as_ref()
            .is_some_and(|m| m.is_whole() && m.reader.is_some() && m.head.keep_alive())
            && self.owed == 0
    }

    /// Feed the next bytes off the origin connection (`eof`: it closed
    /// behind them). Returns how many were this exchange's — the rest
    /// belong to whatever follows on the connection. Client bytes are
    /// appended to `sink`, except the payload of a `Content-Length` body
    /// relayed under raw framing: that stays in `input`, at
    /// [`ExchangeMachine::span`], and the client gets it after the sink.
    /// `Err` fails the exchange; once the main response is whole, a
    /// failing push only cuts the burst short.
    pub fn feed(
        &mut self,
        input: &[u8],
        eof: bool,
        sink: &mut Vec<u8>,
    ) -> Result<usize, HttpError> {
        let mut used = 0;
        self.span = 0..0;
        if !self.main.as_ref().is_some_and(Part::is_done) {
            let (rule, as_is, accept_push) = (self.rule, self.as_is, self.accept_push);
            let start = |head, sink: &mut Vec<u8>| Part::main(head, rule, as_is, accept_push, sink);
            let (n, ended) = advance(&mut self.held, &mut self.main, start, input, eof, sink)?;
            used = n;
            // The forwarded payload is the tail of what the main response
            // took: nothing behind it reaches the sink (pushes buffer).
            let main = self.main.as_ref().and_then(|m| m.relay.as_ref());
            self.span = used - main.map_or(0, |r| r.passed)..used;
            if !ended {
                return Ok(used);
            }
            let main = self.main.as_ref().expect("an ended response");
            if accept_push && main.is_whole() {
                self.owed = announced_pushes(&main.head);
            }
        }
        while self.owed > 0 {
            let rest = &input[used..];
            let start = |head: Response, _: &mut Vec<u8>| {
                body_framing(&head, false).map(|framing| Part::new(head, framing))
            };
            match advance(&mut self.held, &mut self.push, start, rest, eof, sink) {
                Ok((n, ended)) => {
                    used += n;
                    if !ended {
                        break;
                    }
                    let push = self.push.take().expect("an ended push");
                    if let UpstreamOutcome::Response(resp, _) = push.into_outcome(Vec::new(), None)
                    {
                        self.pushed.push(resp);
                    }
                    self.owed -= 1;
                }
                Err(_) => self.owed = 0,
            }
        }
        Ok(used)
    }

    /// The exchange's outcome. Before the main response ended this is the
    /// failure the driver gave up with: a truncation once engaged,
    /// [`UpstreamOutcome::Failed`] otherwise. After it, a burst cut short
    /// keeps the pushes that arrived whole.
    pub fn into_outcome(self) -> UpstreamOutcome {
        match self.main {
            Some(main) => main.into_outcome(self.pushed, self.as_is.and_then(|a| a.hook)),
            None => UpstreamOutcome::Failed,
        }
    }

    /// A machine for the same leg, before any byte of its response.
    fn fresh(&self) -> ResponseMachine<'h> {
        ResponseMachine {
            rule: self.rule,
            as_is: self.as_is,
            accept_push: self.accept_push,
            ..ResponseMachine::default()
        }
    }
}

/// Bytes one upstream read takes at first: the size of the read buffer an
/// upstream connection allocates at its dial, and every exchange on it
/// reuses. It holds one read, never the body.
pub const UPSTREAM_READ: usize = 16 * 1024;

/// Bytes one upstream read takes at most: see [`grow_upstream_read`].
pub const UPSTREAM_READ_MAX: usize = 64 * 1024;

/// The one read-size rule of every upstream driver: a read of `n` bytes
/// that filled `buf` grows it, once, to [`UPSTREAM_READ_MAX`]. A
/// connection that carries a large body then moves it in a quarter of the
/// reads (and relay writes); one that carries only small responses keeps
/// its small buffer.
pub fn grow_upstream_read(buf: &mut Vec<u8>, n: usize) {
    if n == buf.len() && n < UPSTREAM_READ_MAX {
        buf.resize(UPSTREAM_READ_MAX, 0);
    }
}

/// What an exchange leaves its connection fit for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reuse {
    /// The next exchange.
    Keep,
    /// Nothing: bytes nobody asked for sit behind the response, so the
    /// framing of whatever follows cannot be trusted.
    Unread,
    /// Nothing: the response or the upstream ended the connection, or the
    /// exchange did not end.
    Spent,
}

/// One upstream exchange, attempt by attempt, written once for every
/// driver and socket-free (PROTOCOL.md §7.1). It owns the serialized
/// request and its write cursor, the attempt and its start on a clock the
/// driver passes in, and the attempt's [`ResponseMachine`]. A driver dials,
/// writes [`to_write`](Self::to_write), reads into its connection's buffer
/// and hands each read to [`filled`](Self::filled) until the machine
/// [`is_done`](Self::is_done); on any failure — I/O error, a response no
/// machine reads, an EOF before the end, the
/// [deadline](Self::expired) — it asks [`fail`](Self::fail) whether to go
/// again on a fresh connection. A failed dial is terminal. At the end
/// [`reuse`](Self::reuse) says what the connection is fit for and
/// [`into_outcome`](Self::into_outcome) how the exchange ended.
pub struct ExchangeMachine<'h> {
    request: Cow<'h, [u8]>,
    /// Bytes of `request` written this attempt.
    written: usize,
    /// 0, or 1 on the retry.
    attempt: u8,
    /// The request may go out twice (it carries no body the upstream may
    /// have acted on).
    replayable: bool,
    started: Instant,
    response: ResponseMachine<'h>,
    /// A read this attempt saw EOF.
    eof: bool,
    /// A read this attempt brought bytes behind the response.
    unread: bool,
}

impl<'h> ExchangeMachine<'h> {
    /// The first attempt of `request`, read by `response`, started at `now`.
    pub fn new(
        request: impl Into<Cow<'h, [u8]>>,
        replayable: bool,
        response: ResponseMachine<'h>,
        now: Instant,
    ) -> ExchangeMachine<'h> {
        ExchangeMachine {
            request: request.into(),
            written: 0,
            attempt: 0,
            replayable,
            started: now,
            response,
            eof: false,
            unread: false,
        }
    }

    /// Request bytes this attempt has not written yet.
    pub fn to_write(&self) -> &[u8] {
        &self.request[self.written..]
    }

    /// `n` bytes of [`to_write`](Self::to_write) went out.
    pub fn wrote(&mut self, n: usize) {
        self.written += n;
    }

    /// Has this attempt written no byte yet? Then nothing can answer it.
    pub fn unsent(&self) -> bool {
        self.written == 0
    }

    /// One read's bytes off the connection — empty is its EOF — fed to the
    /// response machine, client bytes appended to `sink` and the payload
    /// it forwards in place left at [`span`](Self::span). Returns how many
    /// were the exchange's: the rest sit unread behind the response. `Err`
    /// fails the attempt, and so does an EOF the response does not end at.
    pub fn filled(&mut self, read: &[u8], sink: &mut Vec<u8>) -> Result<usize, HttpError> {
        self.eof |= read.is_empty();
        let used = self.response.feed(read, self.eof, sink)?;
        self.unread |= used < read.len();
        if self.eof && !self.response.is_done() {
            return Err(HttpError::ConnectionClosed);
        }
        Ok(used)
    }

    /// The bytes of the last read the client gets as they are: a driver
    /// writes them after what the read appended to the sink.
    pub fn span(&self) -> Range<usize> {
        self.response.span.clone()
    }

    /// Did the exchange end (see [`ResponseMachine::is_done`])?
    pub fn is_done(&self) -> bool {
        self.response.is_done()
    }

    /// Has a byte for the client been staged (see
    /// [`ResponseMachine::engaged`])?
    pub fn engaged(&self) -> bool {
        self.response.engaged()
    }

    /// When the attempt times out under `timeout`.
    pub fn deadline(&self, timeout: Duration) -> Instant {
        self.started + timeout
    }

    /// Has the attempt's [`deadline`](Self::deadline) passed at `now`?
    pub fn expired(&self, now: Instant, timeout: Duration) -> bool {
        now >= self.deadline(timeout)
    }

    /// The attempt failed. `true`: go again once, on a fresh connection,
    /// from `now` — only the first attempt of a replayable request whose
    /// response machine is still [retryable](ResponseMachine::retryable).
    /// `false`: give up; [`into_outcome`](Self::into_outcome) keeps what is
    /// worth keeping.
    pub fn fail(&mut self, now: Instant) -> bool {
        let again = self.attempt == 0 && self.replayable && self.response.retryable();
        if again {
            self.attempt = 1;
            self.written = 0;
            self.started = now;
            self.response = self.response.fresh();
            self.eof = false;
            self.unread = false;
        }
        again
    }

    /// What the connection is fit for once the exchange is over: the next
    /// exchange only if the response machine allows it, no byte sits
    /// unread behind the response and no read saw EOF.
    pub fn reuse(&self) -> Reuse {
        if !self.response.reusable() || self.eof {
            Reuse::Spent
        } else if self.unread {
            Reuse::Unread
        } else {
            Reuse::Keep
        }
    }

    /// May the connection carry the next exchange?
    pub fn reusable(&self) -> bool {
        self.reuse() == Reuse::Keep
    }

    /// How the exchange ended (see [`ResponseMachine::into_outcome`]).
    pub fn into_outcome(self) -> UpstreamOutcome {
        self.response.into_outcome()
    }
}

/// The pushes a main head announces with `X-Push-Count`; 0 when it
/// announces none it can count.
pub(crate) fn announced_pushes(head: &Response) -> usize {
    head.headers
        .get(PUSH_COUNT_HEADER)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// How a response's body is delimited, from its head alone: `None` when
/// it runs until the upstream closes. `Err` is a framing header no body
/// can be read under — above `MAX_BODY` a declared length is refused
/// before a byte is read.
fn body_framing(head: &Response, head_request: bool) -> Result<Option<StreamFraming>, HttpError> {
    Ok(if head_request || Response::bodiless_status(head.status) {
        Some(StreamFraming::Length(0))
    } else if head.headers.list_contains("Transfer-Encoding", "chunked") {
        Some(StreamFraming::Chunked)
    } else {
        parse::content_length(&head.headers)?.map(StreamFraming::Length)
    })
}

/// Read one response over `input`: its head first — held back until its
/// blank line arrives, then parsed once and handed to `start` — then its
/// body. Returns the bytes of `input` it took and whether the response
/// ended.
fn advance(
    held: &mut Vec<u8>,
    part: &mut Option<Part>,
    start: impl FnOnce(Response, &mut Vec<u8>) -> Result<Part, HttpError>,
    input: &[u8],
    eof: bool,
    sink: &mut Vec<u8>,
) -> Result<(usize, bool), HttpError> {
    let mut used = 0;
    if part.is_none() {
        if input.is_empty() && !eof {
            return Ok((0, false));
        }
        // The head may straddle what is held and `input`; only a head
        // still incomplete is copied aside, never the body behind one.
        let mut rest = held.as_slice().chain(input);
        let head = match Response::read_head(&mut rest) {
            Ok(head) => head,
            // The bytes ran out: for a live connection, wait for more.
            Err(HttpError::ConnectionClosed) if !eof => {
                held.extend_from_slice(input);
                return Ok((input.len(), false));
            }
            Err(e) => return Err(e),
        };
        used = input.len() - rest.into_inner().1.len();
        held.clear();
        *part = Some(start(head, sink)?);
    }
    let part = part.as_mut().expect("started above");
    used += part.feed(&input[used..], eof, sink)?;
    Ok((used, part.is_done()))
}

/// One response being decoded: the main one of an exchange, or a push
/// behind it (always buffered).
struct Part {
    /// The origin's head; body and trailers are filled in at the end.
    head: Response,
    /// `None`: no framing header, the body runs until the origin closes.
    reader: Option<BodyReader>,
    /// Payload held back: the whole body while buffering, what was
    /// decoded so far while a chunked 200 may still grow into a relay.
    body: Vec<u8>,
    /// Set while a chunked 200 may still grow into a relay.
    grow: Option<RelayRule>,
    relay: Option<Relay>,
    /// Set once the response ended.
    end: Option<End>,
}

enum End {
    Whole,
    /// The head, or the length the body turned out to have, contradicts
    /// the client head a pinned relay had already sent.
    Mismatch,
}

impl Part {
    /// Start buffering the response `head` begins, its body framed as
    /// `framing` says.
    fn new(head: Response, framing: Option<StreamFraming>) -> Part {
        Part {
            head,
            reader: framing.map(BodyReader::new),
            body: Vec::new(),
            grow: None,
            relay: None,
            end: None,
        }
    }

    /// Start the main response: the relay decision, from its head alone.
    /// An engaging head writes its client head into `sink` right away (a
    /// pinned relay's went out with the cached prefix). `Err` is a failed,
    /// retryable exchange like any other before a byte moved.
    fn main(
        head: Response,
        rule: Option<RelayRule>,
        as_is: Option<AsIs>,
        accept_push: bool,
        sink: &mut Vec<u8>,
    ) -> Result<Part, HttpError> {
        let framing = body_framing(&head, as_is.is_some_and(|a| a.head_request))?;
        let mut part = Part::new(head, framing);
        if let Some(rule) = rule {
            match rule.decide(&part.head) {
                RelayDecision::Engage(n) => {
                    if rule.expect_total.is_none() {
                        write_stream_head(&part.head, Some(n), rule.now, sink);
                    }
                    part.relay = Some(Relay::new(Some(n), Some(&rule)));
                }
                RelayDecision::Grow => part.grow = Some(rule),
                RelayDecision::Mismatch => part.end = Some(End::Mismatch),
                RelayDecision::Buffer => {}
            }
        } else if let (Some(as_is), Some(framing)) = (as_is, framing) {
            // A close-delimited body (no framing) buffers too.
            let buffers = as_is.whole
                || (as_is.hook.is_some() && framing == StreamFraming::Chunked)
                || (accept_push && announced_pushes(&part.head) > 0);
            if !buffers {
                part.engage(as_is.hook, framing, sink);
            }
        }
        Ok(part)
    }

    /// Engage an as-is relay: the hook, then the upstream's head as the
    /// client head, announcing the trailers a chunked upstream announced.
    fn engage(&mut self, hook: Option<HeadHook>, upstream: StreamFraming, sink: &mut Vec<u8>) {
        let declared = match upstream {
            StreamFraming::Length(n) => n,
            StreamFraming::Chunked => 0,
        };
        if let Some(hook) = hook {
            hook(&mut self.head, declared);
        }
        let trailing = upstream == StreamFraming::Chunked;
        if trailing {
            for name in self.head.headers.get("Trailer").unwrap_or("").split(',') {
                let _ = self.head.trailers.try_insert(name.trim(), "");
            }
        }
        let client = (!self.head.is_chunked()).then_some(declared);
        let framing = client.map_or(StreamFraming::Chunked, StreamFraming::Length);
        encode_stream_head(&self.head, framing, sink);
        let mut relay = Relay::new(client, None);
        relay.trailing = trailing;
        self.relay = Some(relay);
    }

    /// Did the response end (whole, or in a mismatch)?
    fn is_done(&self) -> bool {
        self.end.is_some()
    }

    fn is_whole(&self) -> bool {
        matches!(self.end, Some(End::Whole))
    }

    /// Decode the next body bytes; returns how many were this response's.
    fn feed(&mut self, input: &[u8], eof: bool, sink: &mut Vec<u8>) -> Result<usize, HttpError> {
        if self.is_done() {
            return Ok(0);
        }
        let consumed = match (&mut self.reader, &mut self.relay) {
            (None, _) => {
                if self.body.len() + input.len() > parse::MAX_BODY {
                    return Err(HttpError::LimitExceeded("body size"));
                }
                self.body.extend_from_slice(input);
                input.len()
            }
            (Some(reader), None) => reader.push(input, &mut self.body)?,
            (Some(reader), Some(relay)) => match relay.forward(reader, input, sink)? {
                Some(consumed) => consumed,
                None => {
                    self.end = Some(End::Mismatch);
                    return Ok(0);
                }
            },
        };
        self.step(eof, sink)?;
        Ok(consumed)
    }

    /// After decoding: engage a grown body, end a finished one.
    fn step(&mut self, eof: bool, sink: &mut Vec<u8>) -> Result<(), HttpError> {
        let Some(reader) = &self.reader else {
            if eof {
                self.end = Some(End::Whole);
            }
            return Ok(());
        };
        // The one comparison `decide` applies to a declared length: an
        // object of exactly the threshold streams in either framing.
        if let Some(rule) = self.grow.filter(|rule| reader.decoded() >= rule.threshold) {
            self.grow = None;
            write_stream_head(&self.head, None, rule.now, sink);
            let mut relay = Relay::new(None, Some(&rule));
            Relay::tee(&mut relay.prefix, relay.want, &self.body);
            let chunker = relay.chunker.as_mut().expect("a grown body is chunked");
            chunker.push(&self.body, sink)?;
            // The buffer stages the relay's decoded payload from here on.
            relay.seg = std::mem::take(&mut self.body);
            self.relay = Some(relay);
        }
        if !reader.is_done() {
            return if eof {
                Err(HttpError::ConnectionClosed)
            } else {
                Ok(())
            };
        }
        let mut end = End::Whole;
        if let Some(relay) = &mut self.relay {
            // A proxy relay keeps the origin's trailers (the piggyback)
            // and ends the client's body clean — its head has none; an
            // as-is relay forwards the upstream's, or the hook's.
            let trailers = if relay.trailing {
                reader.trailers()
            } else {
                &self.head.trailers
            };
            match &mut relay.chunker {
                Some(chunker) => chunker
                    .finish(trailers, sink)
                    .expect("writing to a Vec cannot fail"),
                None if relay.owed > 0 => end = End::Mismatch,
                None => {}
            }
        }
        self.end = Some(end);
        Ok(())
    }

    /// The response's outcome, carrying `pushed` if it was buffered whole
    /// — and then first handed to the as-is `hook`, trailers and all.
    fn into_outcome(self, pushed: Vec<Response>, hook: Option<HeadHook>) -> UpstreamOutcome {
        let Part {
            mut head,
            reader,
            body,
            relay,
            end,
            ..
        } = self;
        match (end, relay) {
            (Some(End::Whole), relay) => {
                if let Some(reader) = &reader {
                    head.trailers = reader.trailers().clone();
                }
                match relay {
                    Some(relay) => UpstreamOutcome::Streamed {
                        head,
                        total: reader.map_or(0, |r| r.decoded()),
                        prefix: relay.prefix,
                    },
                    None => {
                        let len = body.len();
                        head.body = body.into();
                        if let Some(hook) = hook {
                            hook(&mut head, len);
                        }
                        UpstreamOutcome::Response(head, pushed)
                    }
                }
            }
            (Some(End::Mismatch), _) => UpstreamOutcome::StreamFailed { mismatch: true },
            (None, Some(_)) => UpstreamOutcome::StreamFailed { mismatch: false },
            (None, None) => UpstreamOutcome::Failed,
        }
    }
}

/// One upstream exchange as the drivers see it: the request to put on
/// the wire, whether its response may cut through, and whether pushed
/// responses may follow it.
pub(crate) struct Leg {
    pub(crate) request: Request,
    pub(crate) relay: Option<RelayRule>,
    pub(crate) accept_push: bool,
}

impl Leg {
    /// The request as a plan carries it onto the wire, so the origin sees
    /// identical bytes from both engines.
    pub(crate) fn request_bytes(&self, scratch: &mut ConnScratch) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(256);
        self.request
            .write_with(&mut bytes, scratch)
            .expect("serializing to a Vec cannot fail");
        bytes
    }
}

/// The plain GET of suffix refetches and speculative fetches: no
/// `TE: chunked` and no `Piggy-filter`, so the origin answers with
/// `Content-Length` framing and no piggyback (a speculative fetch must
/// not solicit more candidates and snowball).
fn plain_request(path: &str) -> Request {
    let mut req = Request::new("GET", path);
    req.headers.insert("Host", "origin");
    req
}

/// The piggyback GET of demand misses and validations, with the drained
/// hit report and, on a validation, `If-Modified-Since`.
fn demand_request(shared: &ProxyShared, job: &UpstreamJob) -> Request {
    let mut req = plain_request(&job.path);
    req.headers.insert("TE", "chunked");
    req.headers
        .insert(PIGGY_FILTER_HEADER, &job.filter.to_header_value());
    if shared.cfg.accept_push {
        req.headers.insert(PIGGY_PUSH_HEADER, "accept");
    }
    if let Some(r) = &job.report {
        req.headers.insert(PIGGY_REPORT_HEADER, r);
    }
    if let Some((lm, _)) = &job.validate {
        let unix = unix_from_timestamp(*lm, DEFAULT_TRACE_EPOCH_UNIX);
        req.headers
            .insert("If-Modified-Since", &format_rfc1123(unix));
    }
    req
}

/// Whether `job` may take the streaming cut-through path: plain demand
/// misses only. Validations stay buffered (a 304 needs the full-response
/// exchange), `--accept-push` reads pushed responses behind a buffered
/// main one, and an active prefetcher's claim/join protocol expects every
/// miss to materialize a cacheable body.
fn streaming_eligible(shared: &ProxyShared, job: &UpstreamJob) -> bool {
    shared.cfg.stream_threshold > 0
        && job.validate.is_none()
        && !shared.cfg.accept_push
        && shared.prefetcher.get().is_none()
}

/// Probe for a retained prefix of a streaming-eligible miss. On a hit the
/// prefix-hit response head is written to `out` and the cached bytes that
/// follow it are returned: the caller sends both right away — no origin
/// round trip gates the client's first byte — and `job` becomes the
/// suffix fetch behind them.
pub(crate) fn probe_prefix(
    shared: &ProxyShared,
    job: &mut UpstreamJob,
    out: &mut Vec<u8>,
) -> Option<Body> {
    if !streaming_eligible(shared, job) {
        return None;
    }
    let r = shared.table.read().lookup(&job.path)?;
    let head = shared.bodies.get_prefix(r)?;
    let total = head.total_len();
    write!(
        out,
        "HTTP/1.1 200 OK\r\nX-Cache: PREFIX\r\nContent-Length: {total}\r\n\r\n"
    )
    .expect("writing to a Vec cannot fail");
    job.prefix = Some(PrefixHit {
        r,
        total,
        head_len: head.len(),
    });
    Some(head)
}

/// The exchange that answers `job`. Behind a prefix hit it is a plain
/// GET whose body must be exactly the recorded total (or the object
/// changed underneath the prefix); otherwise the piggyback GET, cutting
/// through at the configured threshold, in either framing, when
/// streaming applies.
pub(crate) fn first_leg(shared: &ProxyShared, job: &UpstreamJob) -> Leg {
    match &job.prefix {
        Some(hit) => Leg {
            request: plain_request(&job.path),
            accept_push: false,
            relay: Some(RelayRule {
                threshold: 0,
                prefix_bytes: 0,
                skip: hit.head_len,
                expect_total: Some(hit.total),
                now: shared.clock.now(),
            }),
        },
        None => Leg {
            request: demand_request(shared, job),
            accept_push: shared.cfg.accept_push,
            relay: streaming_eligible(shared, job).then(|| RelayRule {
                threshold: shared.cfg.stream_threshold,
                prefix_bytes: shared.cfg.prefix_bytes,
                skip: 0,
                expect_total: None,
                now: shared.clock.now(),
            }),
        },
    }
}

/// A speculative fetch: the plain GET, never streamed — the body must be
/// buffered to install into the cache.
pub(crate) fn speculative_leg(path: &str) -> Leg {
    Leg {
        request: plain_request(path),
        relay: None,
        accept_push: false,
    }
}

/// `Last-Modified` as a protocol [`Timestamp`], `now` when absent.
pub(crate) fn last_modified(resp: &Response, now: Timestamp) -> Timestamp {
    resp.headers
        .get("Last-Modified")
        .and_then(parse_rfc1123)
        .map(|u| timestamp_from_unix(u, DEFAULT_TRACE_EPOCH_UNIX))
        .unwrap_or(now)
}

/// The client head of a streamed miss, written the moment the relay
/// engages: the same headers as a buffered MISS, framed by what is known
/// — `Content-Length` when the origin declared one, chunked otherwise.
fn write_stream_head(head: &Response, declared: Option<usize>, now: Timestamp, out: &mut Vec<u8>) {
    let lm = last_modified(head, now);
    let framing = match declared {
        Some(n) => StreamFraming::Length(n),
        None => StreamFraming::Chunked,
    };
    encode_stream_head(&cached_response(&Body::empty(), lm, "MISS"), framing, out);
}

/// A 200 carrying `body` the way the proxy answers from its cache:
/// `Last-Modified` plus the `X-Cache` verdict.
pub(crate) fn cached_response(body: &Body, lm: Timestamp, x_cache: &str) -> Response {
    let mut resp = Response::new(200);
    let unix = unix_from_timestamp(lm, DEFAULT_TRACE_EPOCH_UNIX);
    resp.headers.insert("Last-Modified", &format_rfc1123(unix));
    resp.headers.insert("X-Cache", x_cache);
    resp.body = body.clone();
    resp
}

/// The entry a just-resolved speculation installed for `job`, counted as
/// the fresh hit it is; `None` when the speculation left nothing
/// serveable (fetch failed, or already displaced) and the demand fetch
/// should proceed.
pub(crate) fn landed_speculation(
    shared: &ProxyShared,
    job: &UpstreamJob,
) -> Option<(Body, Timestamp)> {
    let now = shared.clock.now();
    let r = shared.table.read().lookup(&job.path)?;
    let snap = shared.cache.lookup(r, now)?;
    // The lookup flipped `used`; settle the speculation even if the body
    // vanishes before we can serve it.
    prefetch::note_speculative_hit(&shared.stats, &snap);
    let body = shared.bodies.get(r).filter(|b| !b.is_prefix())?;
    shared.note_fresh_hit(&job.path, job.start);
    Some((body, snap.last_modified))
}

/// What the driver does once an exchange is settled.
pub(crate) enum Settled {
    /// Write this response to the client.
    Reply(Response),
    /// The relay already delivered the whole answer.
    Sent,
    /// Bytes reached the client and the transfer cannot complete: drop
    /// the client connection, the only honest signal left (a
    /// `Content-Length` client sees the truncation, a chunked client the
    /// missing terminal chunk).
    Abort,
}

/// The error a driver drops the client connection with on
/// [`Settled::Abort`].
pub(crate) fn relay_aborted() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "relay failed after bytes reached the client",
    )
}

/// The single terminal outcome for a failed exchange. `requests` was
/// counted at plan time, so conservation (`requests == Σ outcomes`) holds
/// even when the client dies mid-body.
fn count_error(shared: &ProxyShared, job: &UpstreamJob) {
    shared.stats.upstream_errors.fetch_add(1, Relaxed);
    shared.obs.error.record(job.start.elapsed());
}

/// Settle `job`'s exchange: store or freshen, then the pushes a `--push`
/// origin streamed behind the response, then the piggyback, then the
/// outcome histogram.
pub(crate) fn settle(shared: &ProxyShared, job: &UpstreamJob, outcome: UpstreamOutcome) -> Settled {
    if let Some(hit) = &job.prefix {
        return settle_suffix(shared, job, hit, outcome);
    }
    let now = shared.clock.now();
    let (resp, pushed) = match outcome {
        UpstreamOutcome::Response(resp, pushed) => (resp, pushed),
        UpstreamOutcome::Failed => {
            count_error(shared, job);
            return Settled::Reply(Response::new(502));
        }
        UpstreamOutcome::StreamFailed { .. } => {
            count_error(shared, job);
            return Settled::Abort;
        }
        UpstreamOutcome::Streamed {
            head,
            total,
            prefix,
        } => {
            shared.stats.full_fetches.fetch_add(1, Relaxed);
            shared.stats.streamed_misses.fetch_add(1, Relaxed);
            shared
                .stats
                .bytes_from_origin
                .fetch_add(total as u64, Relaxed);
            let lm = last_modified(&head, now);
            let r = shared
                .table
                .write()
                .register_path(&job.path, total as u64, lm);
            if !prefix.is_empty() && prefix.len() < total {
                // The tee becomes a prefix entry — streamed objects are
                // deliberately never cached whole.
                shared.bodies.insert(r, Body::prefix(prefix, total));
            }
            // The piggyback rode the chunked trailers, or the head of a
            // `Content-Length` response.
            process_piggyback(shared, &head, job.source, now);
            shared.obs.full_fetch.record(job.start.elapsed());
            return Settled::Sent;
        }
    };
    let (result, hist) = match &job.validate {
        // The table never forgets ids, so the validated path resolves;
        // the entry is freshened only if it is still cached, and the
        // reply is the body pinned at planning.
        Some((lm, body)) if resp.status == 304 => {
            if let Some(r) = shared.table.read().lookup(&job.path) {
                shared.cache.freshen(r, now + shared.cfg.freshness);
            }
            shared.stats.not_modified.fetch_add(1, Relaxed);
            (
                cached_response(body, *lm, "VALIDATED"),
                &shared.obs.not_modified,
            )
        }
        // A 200 is stored and served as a MISS; any other status — an
        // unsolicited 304 included — passes through untouched and
        // uncached.
        _ if resp.status == 200 => (
            store_full_response(shared, &job.path, &resp, now),
            &shared.obs.full_fetch,
        ),
        _ => {
            shared.stats.upstream_passthrough.fetch_add(1, Relaxed);
            let mut out = Response::new(resp.status);
            out.body = resp.body.clone();
            (out, &shared.obs.passthrough)
        }
    };
    // Server-pushed volume members enter the cache before piggyback
    // classification, so the piggybacks see them as cached entries
    // (Freshen) instead of re-queueing them as prefetch candidates.
    for p in &pushed {
        prefetch::accept_push(shared, p, now);
    }
    process_piggyback(shared, &resp, job.source, now);
    hist.record(job.start.elapsed());
    Settled::Reply(result)
}

/// Settle the suffix fetch behind a prefix hit. The prefix head is
/// already on the client wire, so no failure may turn into a 502.
fn settle_suffix(
    shared: &ProxyShared,
    job: &UpstreamJob,
    hit: &PrefixHit,
    outcome: UpstreamOutcome,
) -> Settled {
    match outcome {
        UpstreamOutcome::Streamed { total, .. } => {
            shared.stats.cache_hits.fetch_add(1, Relaxed);
            shared.stats.prefix_hits.fetch_add(1, Relaxed);
            // Range-free refetch: the origin resent the whole object
            // (bandwidth unchanged; TTFB is what the prefix buys).
            shared
                .stats
                .bytes_from_origin
                .fetch_add(total as u64, Relaxed);
            shared.obs.prefix_hit.record(job.start.elapsed());
            Settled::Sent
        }
        failed => {
            if matches!(failed, UpstreamOutcome::StreamFailed { mismatch: true }) {
                // New length or status: the head already sent is stale.
                // Drop the poisoned prefix; the next request misses and
                // re-primes. Any other failure leaves the prefix valid —
                // nothing contradicted it, only the transfer died.
                shared.bodies.remove(hit.r);
            }
            count_error(shared, job);
            Settled::Abort
        }
    }
}

/// Store a 200 upstream response: register the path, retain the body
/// once, insert the entry, and settle/clean up everything the insert
/// displaced.
fn store_full_response(
    shared: &ProxyShared,
    path: &str,
    resp: &Response,
    now: Timestamp,
) -> Response {
    shared.stats.full_fetches.fetch_add(1, Relaxed);
    shared
        .stats
        .bytes_from_origin
        .fetch_add(resp.body.len() as u64, Relaxed);
    let lm = last_modified(resp, now);
    let size = resp.body.len() as u64;
    let r = shared.table.write().register_path(path, size, lm);
    // Retain the fetched bytes once; every hit from here on is a
    // refcount bump on this same allocation.
    let body = resp.body.clone();
    // Body first, then the entry: a concurrent lookup never sees
    // an entry without its body (the reverse order could). The
    // evictees share r's shard (the stores are co-sharded), so
    // insert and cleanup stay under one body-shard lock each.
    shared.bodies.insert(r, body.clone());
    let out = shared.cache.insert_accounted(
        r,
        CacheEntry {
            size,
            last_modified: lm,
            expires: now + shared.cfg.freshness,
            prefetched: false,
            used: true,
        },
        now,
    );
    if let Some(old) = &out.replaced {
        // A still-unused speculative entry displaced by the demand fetch
        // it raced: settle it as wasted.
        prefetch::settle_displaced(&shared.stats, old);
    }
    if !out.evicted.is_empty() {
        for (_, old) in &out.evicted {
            prefetch::settle_displaced(&shared.stats, old);
        }
        shared.bodies.with_resource_shard(r, |bodies| {
            for (v, _) in &out.evicted {
                bodies.remove(*v);
            }
        });
    }
    if !out.inserted {
        // Oversized for its shard: drop the orphan body so the store
        // cannot hold bytes the cache will never serve.
        shared.bodies.remove(r);
    }
    cached_response(&body, lm, "MISS")
}

/// Apply one response's `P-volume` piggyback (trailer on a chunked 200,
/// header otherwise) to the cache, and feed the prefetcher:
/// `PrefetchCandidate` elements are queued for speculative fetch, and
/// invalidated entries are re-queued so coherency misses turn into
/// refreshed cache entries.
fn process_piggyback(shared: &ProxyShared, resp: &Response, source: SocketAddr, now: Timestamp) {
    let delta = shared.cfg.freshness;
    let pv = resp
        .trailers
        .get(P_VOLUME_HEADER)
        .or_else(|| resp.headers.get(P_VOLUME_HEADER));
    let Some(pv) = pv else {
        return;
    };
    shared.obs.piggyback_bytes.record_value(pv.len() as u64);
    let Ok(wire) = decode_p_volume(pv) else {
        return;
    };
    shared.stats.piggyback_messages.fetch_add(1, Relaxed);
    shared
        .stats
        .piggybacked_elements
        .fetch_add(wire.elements.len() as u64, Relaxed);
    if let Some(rpv) = &shared.rpv {
        rpv.lock().record(&source, wire.volume, now);
    }
    // Register the whole batch under one write acquisition: per-element
    // write locks let the writer-preference queue interleave a planner
    // between every element, convoying both sides.
    let ids: Vec<_> = {
        let mut table = shared.table.write();
        wire.elements
            .iter()
            .map(|e| table.register_path(&e.path, e.size, e.last_modified))
            .collect()
    };
    for (e, r) in wire.elements.iter().zip(ids) {
        let cached_lm = shared.cache.peek(r).map(|c| c.last_modified);
        match classify_element(cached_lm, e.last_modified) {
            ElementAction::Freshen => {
                shared.cache.freshen(r, now + delta);
                shared.cache.note_piggyback_mention(r, now);
                // Volume mentions also bias prefix retention: a prefix of
                // a resource the origin still groups into active volumes
                // earns its bytes (the VoD prefix-retention signal).
                shared.bodies.note_mention(r);
                shared.stats.piggyback_freshens.fetch_add(1, Relaxed);
            }
            ElementAction::Invalidate => {
                // Entry first, then body: a concurrent lookup that
                // wins the entry also finds the body still there.
                if let Some(old) = shared.cache.take(r) {
                    prefetch::settle_displaced(&shared.stats, &old);
                }
                shared.bodies.remove(r);
                shared.stats.piggyback_invalidations.fetch_add(1, Relaxed);
                // Coherency-driven refresh: the origin just told us the
                // current version exists — refetch it ahead of demand.
                if let Some(p) = shared.prefetcher.get() {
                    p.enqueue(shared, r, &e.path);
                }
            }
            ElementAction::PrefetchCandidate => {
                shared.stats.prefetch_candidates.fetch_add(1, Relaxed);
                if let Some(p) = shared.prefetcher.get() {
                    p.enqueue(shared, r, &e.path);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short read never grows the buffer, a filling read grows it to
    /// `UPSTREAM_READ_MAX` once, and nothing grows it past that.
    #[test]
    fn upstream_read_grows_once_on_a_full_read() {
        let mut buf = vec![0; UPSTREAM_READ];
        for n in [0, 1, UPSTREAM_READ - 1] {
            grow_upstream_read(&mut buf, n);
            assert_eq!(buf.len(), UPSTREAM_READ, "a {n}-byte read");
        }
        grow_upstream_read(&mut buf, UPSTREAM_READ);
        assert_eq!(buf.len(), UPSTREAM_READ_MAX);
        let at = buf.as_ptr();
        for n in [0, UPSTREAM_READ, UPSTREAM_READ_MAX, UPSTREAM_READ_MAX] {
            grow_upstream_read(&mut buf, n);
            assert_eq!(buf.len(), UPSTREAM_READ_MAX, "a {n}-byte read");
        }
        assert_eq!(buf.as_ptr(), at, "never reallocated again");
    }
}

//! Allocation counts of the HTTP head parsers and serializers, socket-free.
//!
//! A counting global allocator counts per thread, so the lanes need no
//! quiet process and run in parallel with each other: what a lane counts
//! is what its own thread allocated. The steady-state lanes (a warmed
//! `read_into`, `write_with` into warmed scratch) must allocate nothing;
//! a fresh `Response::read_head` must allocate a fixed number of times,
//! however many fields its head carries. The socket-level zero-alloc hit
//! lanes live in `crates/proxyd/tests/alloc_steady_state.rs`.

use piggyback::httpwire::{ConnScratch, Request, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::BufReader;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter only observes calls, and a
// const-initialized thread-local `Cell` neither allocates nor registers a
// destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The benchmark's browser-shaped GET.
const BROWSER_GET: &[u8] = b"GET /site/page17.html HTTP/1.1\r\n\
    Host: bench.piggyback.test\r\n\
    User-Agent: Mozilla/5.0 (X11; Linux x86_64) pb-chain-bench/0.1\r\n\
    Accept: text/html,application/xhtml+xml,image/gif,image/jpeg,*/*;q=0.8\r\n\
    Accept-Language: en-US,en;q=0.5\r\n\
    Connection: keep-alive\r\n\r\n";

#[test]
fn warmed_request_read_into_allocates_nothing() {
    let mut req = Request::empty();
    let mut scratch = ConnScratch::new();
    req.read_into(&mut &BROWSER_GET[..], &mut scratch).unwrap();
    let n = allocations(|| {
        for _ in 0..100 {
            req.read_into(&mut &BROWSER_GET[..], &mut scratch).unwrap();
        }
    });
    assert_eq!(n, 0, "a warmed read_into allocated");
    assert_eq!(req.headers.len(), 5);
    // Lines split across reader fills go through the line scratch, which
    // warms the same way.
    let mut readers: Vec<_> = (0..11)
        .map(|_| BufReader::with_capacity(16, BROWSER_GET))
        .collect();
    req.read_into(&mut readers.pop().unwrap(), &mut scratch)
        .unwrap();
    let n = allocations(|| {
        for r in &mut readers {
            req.read_into(r, &mut scratch).unwrap();
        }
    });
    assert_eq!(n, 0, "a warmed read_into of split lines allocated");
}

#[test]
fn write_with_into_warmed_scratch_allocates_nothing() {
    let mut scratch = ConnScratch::new();
    let req = Request::read(&mut &BROWSER_GET[..]).unwrap();
    let mut resp = Response::new(200);
    resp.headers
        .insert("Last-Modified", "Wed, 28 Jan 1998 00:00:00 GMT");
    resp.headers.insert("X-Cache", "HIT");
    resp.body = vec![b'x'; 2048].into();
    let mut chunked = resp.clone();
    chunked
        .trailers
        .insert("P-volume", "7; \"/a.html\" 886000000 1024");
    let write_all = |scratch: &mut ConnScratch| {
        req.write_with(&mut std::io::sink(), scratch).unwrap();
        resp.write_with(&mut std::io::sink(), scratch).unwrap();
        chunked.write_with(&mut std::io::sink(), scratch).unwrap();
    };
    write_all(&mut scratch);
    let n = allocations(|| {
        for _ in 0..100 {
            write_all(&mut scratch);
        }
    });
    assert_eq!(n, 0, "write_with into warmed scratch allocated");
}

/// A head the way pb-origin frames a piggybacked page, with `extra`
/// further fields of a realistic size.
fn origin_head(extra: usize) -> Vec<u8> {
    let mut head = b"HTTP/1.1 200 OK\r\n\
        Last-Modified: Wed, 28 Jan 1998 00:00:00 GMT\r\n\
        Transfer-Encoding: chunked\r\n\
        Trailer: P-volume\r\n"
        .to_vec();
    let fields = [
        "Date: Wed, 28 Jan 1998 00:00:01 GMT",
        "Server: pb-origin/0.1",
        "Content-Type: text/html; charset=utf-8",
        "Cache-Control: max-age=60, must-revalidate",
        "ETag: \"5243-886000000\"",
        "Accept-Ranges: bytes",
        "Vary: Accept-Encoding",
        "Via: 1.1 pb-volume-center",
        "X-Cache: MISS",
    ];
    for field in &fields[..extra] {
        head.extend_from_slice(field.as_bytes());
        head.extend_from_slice(b"\r\n");
    }
    head.extend_from_slice(b"\r\n");
    head
}

#[test]
fn response_read_head_allocations_do_not_grow_with_its_fields() {
    let (small, large) = (origin_head(0), origin_head(9));
    let mut heads = [(small, 0), (large, 0)];
    for (wire, allocs) in &mut heads {
        let mut head = None;
        *allocs = allocations(|| head = Some(Response::read_head(&mut wire.as_slice()).unwrap()));
        let head = head.unwrap();
        assert!(head.headers.list_contains("Transfer-Encoding", "chunked"));
        assert_eq!(head.headers.get("Trailer"), Some("P-volume"));
    }
    let [(_, three), (_, twelve)] = heads;
    assert_eq!(
        three, twelve,
        "a 3-field head took {three} allocations, a 12-field head {twelve}"
    );
}

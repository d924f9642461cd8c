//! Budgeted speculative prefetcher: the proxy half of the paper's
//! headline *use* of piggybacked server volumes (Sections 2.1, 5).
//!
//! `P-volume` elements classified as [`ElementAction::PrefetchCandidate`]
//! — volume mates the proxy has never cached — are queued here and
//! fetched through the origin [`ConnectionPool`](crate::client::ConnectionPool)
//! by a fixed crew of `--prefetch-budget` workers, so speculation can
//! never open more than `budget` concurrent origin exchanges. Fetched
//! entries land in the cache with `prefetched: true, used: false`, which
//! makes the used/wasted split measurable and marks them first in line
//! for eviction (see `webcache`'s speculative tiebreak).
//!
//! [`ElementAction::PrefetchCandidate`]: piggyback_core::proxy::ElementAction
//!
//! ## The speculation ledger
//!
//! Every speculation resolves **exactly once**:
//!
//! ```text
//! prefetch_issued == prefetch_used + prefetch_wasted + prefetch_inflight
//! ```
//!
//! `issued` counts fetches actually started (plus accepted server
//! pushes); a speculation is *used* the first time a client request hits
//! its entry, and *wasted* when the fetch fails, returns non-200, loses a
//! race to a demand fetch, or its entry is displaced (replaced, evicted,
//! invalidated) before any client asked. Until one of those happens it is
//! *inflight*. Exactly-once settlement leans on two cache properties:
//! [`Cache::lookup`](piggyback_webcache::Cache::lookup) flips `used`
//! under the shard lock and returns the pre-flip snapshot (so only one
//! caller observes the first use), and
//! [`Cache::insert_accounted`](piggyback_webcache::Cache::insert_accounted)
//! / [`Cache::take`](piggyback_webcache::Cache::take) surface displaced
//! entries to exactly one caller. The law is exact at quiescence; tests
//! assert it under 16-client stress in both I/O modes.
//!
//! ## Cancellation and coalescing
//!
//! A client demand fetch always wins. Before going upstream for a miss,
//! the proxy calls [`Prefetcher::claim`]: a still-queued speculation is
//! cancelled outright (the demand fetch proceeds, the queued job never
//! issues); a speculation already on the wire is *joined* — the demand
//! request parks on the job's condvar and serves the prefetched entry
//! when it lands, so the origin sees exactly one fetch either way.
//!
//! ## Server push
//!
//! The minimal server-push baseline rides the same ledger: a proxy
//! started with `--accept-push` adds `Piggy-push: accept` upstream, and
//! an origin started with `--push N` answers by streaming up to N volume
//! members as full pushed responses (`X-Push-Count` on the main
//! response, `X-Push-Path` naming each body) on the same connection.
//! [`accept_push`] files accepted bodies as issued speculations;
//! duplicate pushes settle instantly as wasted bytes.

use crate::lifecycle::{self, Leg, UpstreamOutcome};
use crate::proxy::ProxyShared;
use crate::stats::AtomicProxyStats;
use piggyback_core::types::{ResourceId, Timestamp};
use piggyback_httpwire::{ConnScratch, Response};
use piggyback_webcache::CacheEntry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

/// Request header a push-accepting proxy sends upstream.
pub const PIGGY_PUSH_HEADER: &str = "Piggy-push";
/// Main-response header: how many pushed responses follow on the wire.
pub const PUSH_COUNT_HEADER: &str = "X-Push-Count";
/// Pushed-response header naming the resource the body belongs to.
pub const PUSH_PATH_HEADER: &str = "X-Push-Path";

/// Queued-but-unfetched candidates beyond this are dropped silently: a
/// piggyback burst must not grow an unbounded backlog of speculation.
const QUEUE_CAP: usize = 4096;

/// How long a demand request will wait for an in-flight speculative
/// fetch before giving up and fetching itself (belt-and-suspenders: a
/// worker always resolves its job, so this only fires if a fetch wedges).
const JOIN_TIMEOUT: Duration = Duration::from_secs(10);

/// What [`Prefetcher::claim`] resolved a demand miss to.
pub(crate) enum Claim {
    /// No unresolved speculation for the path (or a queued one was just
    /// cancelled): the demand fetch proceeds.
    Fetch,
    /// A speculative fetch is on the wire; joining it requires parking
    /// (only returned to callers that asked not to park).
    InFlight,
    /// The speculation resolved: re-consult the cache before fetching.
    Resolved,
}

/// Lifecycle of one speculative fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobState {
    /// In the queue, not yet picked up; cancellable.
    Queued,
    /// A worker is on the wire; joiners wait on the condvar.
    Fetching,
    /// Resolved (installed or wasted); joiners should re-check the cache.
    Done,
    /// A demand fetch claimed the resource before any worker started.
    Cancelled,
}

/// One speculative fetch's coordination point.
struct Job {
    state: Mutex<JobState>,
    done: Condvar,
}

struct Candidate {
    r: ResourceId,
    path: String,
    job: Arc<Job>,
}

struct PrefetchState {
    queue: VecDeque<Candidate>,
    /// One entry per unresolved candidate, keyed by resource — the dedup
    /// gate and the demand path's cancellation/join handle.
    jobs: HashMap<ResourceId, Arc<Job>>,
}

struct PrefetchInner {
    state: Mutex<PrefetchState>,
    work: Condvar,
    shutdown: AtomicBool,
}

/// The budgeted prefetch engine; one per proxy when
/// `--prefetch-budget > 0`.
pub(crate) struct Prefetcher {
    inner: Arc<PrefetchInner>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Prefetcher {
    /// Spawn `budget` fetch workers against the (not yet fully
    /// constructed) proxy. Workers hold a `Weak` so the prefetcher never
    /// keeps the proxy alive.
    pub(crate) fn start(budget: usize, shared: Weak<ProxyShared>) -> Prefetcher {
        let inner = Arc::new(PrefetchInner {
            state: Mutex::new(PrefetchState {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
            }),
            work: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..budget.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("pb-prefetch-{i}"))
                    .spawn(move || worker_loop(&inner, &shared))
                    .expect("spawn prefetch worker")
            })
            .collect();
        Prefetcher {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Queue a speculative fetch for `r` unless it is already cached,
    /// already queued/fetching, or the queue is full.
    pub(crate) fn enqueue(&self, shared: &ProxyShared, r: ResourceId, path: &str) {
        if self.inner.shutdown.load(Relaxed) || shared.cache.peek(r).is_some() {
            return;
        }
        {
            let mut st = self.inner.state.lock().unwrap();
            if st.jobs.contains_key(&r) || st.queue.len() >= QUEUE_CAP {
                return;
            }
            let job = Arc::new(Job {
                state: Mutex::new(JobState::Queued),
                done: Condvar::new(),
            });
            st.jobs.insert(r, Arc::clone(&job));
            st.queue.push_back(Candidate {
                r,
                path: path.to_owned(),
                job,
            });
        }
        self.inner.work.notify_one();
    }

    /// Demand-path hook, called before a miss goes upstream. A
    /// still-queued speculation for `path` is cancelled (the demand fetch
    /// wins; the origin sees one fetch either way). One already on the
    /// wire is joined when `park` is set — the caller blocks until it
    /// lands, or gives up after [`JOIN_TIMEOUT`] and fetches itself —
    /// and reported as [`Claim::InFlight`] otherwise, for reactor
    /// threads, which must never park.
    pub(crate) fn claim(&self, shared: &ProxyShared, path: &str, park: bool) -> Claim {
        let Some(r) = shared.table.read().lookup(path) else {
            return Claim::Fetch;
        };
        let job = self.inner.state.lock().unwrap().jobs.get(&r).cloned();
        let Some(job) = job else {
            return Claim::Fetch;
        };
        let mut st = job.state.lock().unwrap();
        loop {
            match *st {
                JobState::Queued => {
                    *st = JobState::Cancelled;
                    drop(st);
                    // The stale queue entry stays; workers skip cancelled
                    // candidates. Never hold a job lock while taking the
                    // state lock (workers lock in that order too).
                    self.inner.state.lock().unwrap().jobs.remove(&r);
                    shared.stats.prefetch_cancelled.fetch_add(1, Relaxed);
                    return Claim::Fetch;
                }
                JobState::Fetching if !park => return Claim::InFlight,
                JobState::Fetching => {
                    let (guard, timeout) = job.done.wait_timeout(st, JOIN_TIMEOUT).unwrap();
                    st = guard;
                    if timeout.timed_out() {
                        return Claim::Fetch;
                    }
                }
                JobState::Done => return Claim::Resolved,
                JobState::Cancelled => return Claim::Fetch,
            }
        }
    }

    /// Stop accepting work, wake and join every worker.
    pub(crate) fn shutdown(&self) {
        self.inner.shutdown.store(true, Relaxed);
        self.inner.work.notify_all();
        for w in self.workers.lock().unwrap().drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &Arc<PrefetchInner>, shared: &Weak<ProxyShared>) {
    let mut scratch = ConnScratch::new();
    loop {
        let cand = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if inner.shutdown.load(Relaxed) {
                    return;
                }
                if let Some(c) = st.queue.pop_front() {
                    break c;
                }
                st = inner.work.wait(st).unwrap();
            }
        };
        let Some(shared) = shared.upgrade() else {
            return;
        };
        run_candidate(inner, &shared, cand, &mut scratch);
    }
}

fn run_candidate(
    inner: &PrefetchInner,
    shared: &Arc<ProxyShared>,
    cand: Candidate,
    scratch: &mut ConnScratch,
) {
    {
        let mut st = cand.job.state.lock().unwrap();
        match *st {
            // The demand path cancelled (and unregistered) this job.
            JobState::Cancelled => return,
            JobState::Queued => *st = JobState::Fetching,
            // Unreachable (one worker per queue entry); stay safe.
            JobState::Fetching | JobState::Done => return,
        }
    }
    fetch_and_install(shared, cand.r, &cand.path, scratch);
    {
        let mut st = cand.job.state.lock().unwrap();
        *st = JobState::Done;
        cand.job.done.notify_all();
    }
    inner.state.lock().unwrap().jobs.remove(&cand.r);
}

/// Fetch `path` speculatively and install it: the plain GET goes through
/// the blocking driver's exchange loop (same retry-once contract as the
/// demand path) or, in reactor mode, a reactor shard; either way the
/// outcome lands in [`settle_speculation`], which settles the ledger
/// exactly once.
fn fetch_and_install(
    shared: &Arc<ProxyShared>,
    r: ResourceId,
    path: &str,
    scratch: &mut ConnScratch,
) {
    // Last-second dedup: a demand fetch or an accepted push may have
    // landed the entry since this candidate was queued. Skipping here is
    // free — the fetch was never issued.
    if shared.cache.peek(r).is_some() {
        return;
    }
    let stats = &shared.stats;
    stats.prefetch_issued.fetch_add(1, Relaxed);
    stats.prefetch_inflight.fetch_add(1, Relaxed);
    let leg = lifecycle::speculative_leg(path);
    #[cfg(target_os = "linux")]
    if let Some(sub) = shared.upstream_submit.get() {
        return fetch_via_reactor(shared, sub, r, path, &leg, scratch);
    }
    let retries = &stats.prefetch_retries;
    let (outcome, _) = crate::proxy::exchange(shared, &leg, retries, &mut std::io::sink(), scratch);
    settle_speculation(shared, r, path, outcome);
}

/// How long a prefetch worker waits for a reactor-driven speculation to
/// land before releasing its budget slot anyway (belt-and-suspenders:
/// the reactor always resolves an exchange — the upstream timeout wheel
/// guarantees it — so this only fires if a shard wedges).
#[cfg(target_os = "linux")]
const LAND_TIMEOUT: Duration = Duration::from_secs(60);

/// Reactor mode: the speculative GET rides the same nonblocking upstream
/// legs as demand misses. The worker still parks on its budget slot until
/// the exchange lands — bounding concurrent speculation is the whole
/// point of `--prefetch-budget` — but the exchange itself is driven by a
/// reactor shard, and the ledger settles in the continuation on that
/// reactor thread.
#[cfg(target_os = "linux")]
fn fetch_via_reactor(
    shared: &Arc<ProxyShared>,
    sub: &crate::reactor::ReactorSubmitter,
    r: ResourceId,
    path: &str,
    leg: &Leg,
    scratch: &mut ConnScratch,
) {
    use crate::reactor::{UpstreamNext, UpstreamPlan};
    let request = leg.request_bytes(scratch);
    let landed = Arc::new((Mutex::new(false), Condvar::new()));
    let finish_shared = Arc::clone(shared);
    let finish_landed = Arc::clone(&landed);
    let retry_shared = Arc::clone(shared);
    let path_owned = path.to_owned();
    sub.submit(UpstreamPlan {
        origin: shared.cfg.origin,
        request,
        retry: Box::new(move || {
            retry_shared.stats.prefetch_retries.fetch_add(1, Relaxed);
        }),
        finish: Box::new(move |_scratch, _out, outcome| {
            settle_speculation(&finish_shared, r, &path_owned, outcome);
            let (flag, cv) = &*finish_landed;
            *flag.lock().unwrap() = true;
            cv.notify_all();
            Ok(UpstreamNext::Done)
        }),
        relay: None,
    });
    let (flag, cv) = &*landed;
    let mut done = flag.lock().unwrap();
    while !*done {
        let (guard, timeout) = cv.wait_timeout(done, LAND_TIMEOUT).unwrap();
        done = guard;
        if timeout.timed_out() {
            break;
        }
    }
}

/// Resolve an issued speculation from its exchange outcome: a 200 is
/// installed, anything else is wasted on the spot.
fn settle_speculation(shared: &ProxyShared, r: ResourceId, path: &str, outcome: UpstreamOutcome) {
    let stats = &shared.stats;
    // The speculative leg carries no relay rule, so the only other
    // outcome is `Failed`.
    let UpstreamOutcome::Response(resp) = outcome else {
        stats.prefetch_wasted.fetch_add(1, Relaxed);
        stats.prefetch_inflight.fetch_sub(1, Relaxed);
        return;
    };
    let size = resp.body.len() as u64;
    stats.prefetch_fetched_bytes.fetch_add(size, Relaxed);
    if resp.status != 200 {
        stats.prefetch_wasted.fetch_add(1, Relaxed);
        stats.prefetch_wasted_bytes.fetch_add(size, Relaxed);
        stats.prefetch_inflight.fetch_sub(1, Relaxed);
        return;
    }
    let now = shared.clock.now();
    let lm = lifecycle::last_modified(&resp, now);
    shared.table.write().register_path(path, size, lm);
    install_speculative(shared, r, resp.body.clone(), size, lm, now);
}

/// Install a speculatively fetched (or pushed) body as a
/// `prefetched: true, used: false` entry, settling everything the insert
/// displaces. The caller has already counted the speculation as issued.
pub(crate) fn install_speculative(
    shared: &ProxyShared,
    r: ResourceId,
    body: piggyback_httpwire::Body,
    size: u64,
    lm: Timestamp,
    now: Timestamp,
) {
    let stats = &shared.stats;
    // A demand fetch that completed while we were on the wire wins: keep
    // its entry, settle our fetch as wasted.
    if shared.cache.peek(r).is_some() {
        stats.prefetch_wasted.fetch_add(1, Relaxed);
        stats.prefetch_wasted_bytes.fetch_add(size, Relaxed);
        stats.prefetch_inflight.fetch_sub(1, Relaxed);
        return;
    }
    // Body first, then the entry, exactly like the demand path: a
    // concurrent lookup that wins the entry also finds the body.
    shared.bodies.insert(r, body);
    let out = shared.cache.insert_accounted(
        r,
        CacheEntry {
            size,
            last_modified: lm,
            expires: now + shared.cfg.freshness,
            prefetched: true,
            used: false,
        },
        now,
    );
    if let Some(old) = &out.replaced {
        settle_displaced(stats, old);
    }
    if !out.evicted.is_empty() {
        for (_, old) in &out.evicted {
            settle_displaced(stats, old);
        }
        shared.bodies.with_resource_shard(r, |bodies| {
            for (v, _) in &out.evicted {
                bodies.remove(*v);
            }
        });
    }
    if !out.inserted {
        // Oversized for its shard: the body can never be served, so the
        // speculation is wasted on the spot.
        shared.bodies.remove(r);
        stats.prefetch_wasted.fetch_add(1, Relaxed);
        stats.prefetch_wasted_bytes.fetch_add(size, Relaxed);
        stats.prefetch_inflight.fetch_sub(1, Relaxed);
    }
}

/// Settle a speculation the moment a client hit proves it out. Call with
/// the **pre-mark** snapshot every `Cache::lookup` returns; the shard
/// lock guarantees exactly one caller sees `used == false`.
pub(crate) fn note_speculative_hit(stats: &AtomicProxyStats, snap: &CacheEntry) {
    if snap.prefetched && !snap.used {
        stats.prefetch_used.fetch_add(1, Relaxed);
        stats.prefetch_used_bytes.fetch_add(snap.size, Relaxed);
        stats.prefetch_inflight.fetch_sub(1, Relaxed);
    }
}

/// Settle a speculation whose entry was displaced — replaced by a demand
/// insert, evicted for space, or invalidated by a piggyback — before any
/// client used it.
pub(crate) fn settle_displaced(stats: &AtomicProxyStats, old: &CacheEntry) {
    if old.prefetched && !old.used {
        stats.prefetch_wasted.fetch_add(1, Relaxed);
        stats.prefetch_wasted_bytes.fetch_add(old.size, Relaxed);
        stats.prefetch_inflight.fetch_sub(1, Relaxed);
    }
}

/// Accept one server-pushed response (`--accept-push`). Every push enters
/// the ledger as an issued speculation; a duplicate of something already
/// cached settles instantly as wasted bytes (the origin spent bandwidth
/// the proxy could not use).
pub(crate) fn accept_push(shared: &ProxyShared, resp: &Response, now: Timestamp) {
    if resp.status != 200 {
        return;
    }
    let Some(path) = resp.headers.get(PUSH_PATH_HEADER) else {
        return;
    };
    let stats = &shared.stats;
    let size = resp.body.len() as u64;
    let lm = lifecycle::last_modified(resp, now);
    let r = shared.table.write().register_path(path, size, lm);
    stats.prefetch_issued.fetch_add(1, Relaxed);
    stats.prefetch_inflight.fetch_add(1, Relaxed);
    stats.prefetch_fetched_bytes.fetch_add(size, Relaxed);
    if shared.cache.peek(r).is_some() {
        // Duplicate push: issued-and-instantly-wasted bandwidth.
        stats.prefetch_wasted.fetch_add(1, Relaxed);
        stats.prefetch_wasted_bytes.fetch_add(size, Relaxed);
        stats.prefetch_inflight.fetch_sub(1, Relaxed);
        return;
    }
    stats.pushes_accepted.fetch_add(1, Relaxed);
    install_speculative(shared, r, resp.body.clone(), size, lm, now);
}

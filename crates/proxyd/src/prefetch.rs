//! Budgeted speculative prefetcher: the proxy half of the paper's
//! headline *use* of piggybacked server volumes (Sections 2.1, 5).
//!
//! `P-volume` elements classified as [`ElementAction::PrefetchCandidate`]
//! — volume mates the proxy has never cached — are queued here and
//! fetched by a fixed crew of `--prefetch-budget` workers, each holding
//! its slot until its fetch settles, so speculation can never have more
//! than `budget` origin exchanges in flight. A worker runs its fetch
//! itself, on the proxy's keep-alive [`ConnectionPool`], whichever engine
//! serves the clients: on the reactor, speculation is the pool's only
//! traffic and demand the shards' only upstream traffic. Fetched
//! entries land in the cache with `prefetched: true, used: false`, which
//! makes the used/wasted split measurable and marks them first in line
//! for eviction (see `webcache`'s speculative tiebreak).
//!
//! [`ElementAction::PrefetchCandidate`]: piggyback_core::proxy::ElementAction
//! [`ConnectionPool`]: crate::client::ConnectionPool
//!
//! ## The speculation ledger
//!
//! Every speculation resolves **exactly once**:
//!
//! ```text
//! prefetch_issued == prefetch_used + prefetch_wasted + prefetch_inflight
//! ```
//!
//! `issued` counts fetches actually started; a speculation is *used* the first time a client request hits
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
//! request adds a waiter to the job and, woken when the speculation
//! settles, serves the prefetched entry (or fetches after all if nothing
//! landed), so the origin sees exactly one fetch either way. The waiter
//! is the parked connection's [`Waker`] and the demand's job: the waker
//! delivers the job back to the connection's poller, which resumes it
//! ([`Service::resume`](crate::service::Service::resume)). Every
//! speculation's exchange runs under the upstream deadline, so it settles
//! in bounded time and a joiner needs no timeout of its own.

use crate::lifecycle::{self, UpstreamJob, UpstreamOutcome};
use crate::proxy::ProxyShared;
use crate::service::{pool_exchange, Waker};
use crate::stats::AtomicProxyStats;
use piggyback_core::types::{ResourceId, Timestamp};
use piggyback_httpwire::ConnScratch;
use piggyback_webcache::CacheEntry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Condvar, Mutex, Weak};

/// Queued-but-unfetched candidates beyond this are dropped silently: a
/// piggyback burst must not grow an unbounded backlog of speculation.
const QUEUE_CAP: usize = 4096;

/// Lifecycle of one speculative fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum JobState {
    /// In the queue, not yet picked up; cancellable.
    #[default]
    Queued,
    /// A worker is on the wire; joiners add waiters.
    Fetching,
    /// Resolved (installed or wasted); joiners should re-check the cache.
    Done,
    /// A demand fetch claimed the resource before any worker started.
    Cancelled,
}

/// A wake-up owed to a request joined to a speculation: its connection's
/// waker and the job it resumes with. Fires exactly once: when the job
/// settles, or — should it go away unsettled — when dropped.
struct Waiter(Option<(Waker<UpstreamJob>, UpstreamJob)>);

impl Drop for Waiter {
    fn drop(&mut self) {
        if let Some((waker, job)) = self.0.take() {
            waker.wake(job);
        }
    }
}

/// One speculative fetch's coordination point: its state and the
/// requests joined to it.
#[derive(Default)]
struct Job(Mutex<JobInner>);

#[derive(Default)]
struct JobInner {
    state: JobState,
    joined: Vec<Waiter>,
}

impl Job {
    /// Resolve the job and wake everything joined to it (each waiter
    /// fires as it drops, outside the lock).
    fn settle(&self) {
        let joined = {
            let mut st = self.0.lock().unwrap();
            st.state = JobState::Done;
            std::mem::take(&mut st.joined)
        };
        drop(joined);
    }
}

/// An in-flight speculation a demand request joined ([`Prefetcher::claim`]).
pub(crate) struct Speculation(Arc<Job>);

impl Speculation {
    /// Wake `waker` with `job` once the speculation settles — at once if
    /// it already has.
    pub(crate) fn on_settle(&self, waker: Waker<UpstreamJob>, job: UpstreamJob) {
        let waiter = Waiter(Some((waker, job)));
        let mut st = (self.0).0.lock().unwrap();
        if st.state == JobState::Fetching {
            st.joined.push(waiter);
        }
        // Otherwise `waiter` fires as it drops, after the lock.
    }
}

/// Settles its job when dropped, whichever way the fetch ended — its
/// outcome settled, or the worker unwound mid-fetch — so joiners wake
/// exactly once and the dedup entry goes.
struct Landing {
    inner: Arc<PrefetchInner>,
    r: ResourceId,
    job: Arc<Job>,
}

impl Drop for Landing {
    fn drop(&mut self) {
        self.job.settle();
        self.inner.state.lock().unwrap().jobs.remove(&self.r);
    }
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
            let job = Arc::new(Job::default());
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
    /// wins; the origin sees one fetch either way) and `None` returned:
    /// fetch. One already on the wire (or just resolved) is returned to
    /// be joined: the caller waits for it to settle, then re-consults the
    /// cache.
    pub(crate) fn claim(&self, shared: &ProxyShared, path: &str) -> Option<Speculation> {
        let r = shared.table.read().lookup(path)?;
        let job = self.inner.state.lock().unwrap().jobs.get(&r).cloned()?;
        let mut st = job.0.lock().unwrap();
        match st.state {
            JobState::Queued => {
                st.state = JobState::Cancelled;
                drop(st);
                // The stale queue entry stays; workers skip cancelled
                // candidates. Never hold a job lock while taking the
                // state lock (workers lock in that order too).
                self.inner.state.lock().unwrap().jobs.remove(&r);
                shared.stats.prefetch_cancelled.fetch_add(1, Relaxed);
                None
            }
            JobState::Fetching | JobState::Done => {
                drop(st);
                Some(Speculation(job))
            }
            JobState::Cancelled => None,
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

/// Fetch `cand` speculatively and install it, unless the demand path
/// cancelled it: the plain GET is one [`pool_exchange`] (same retry-once
/// contract and deadline as the demand path) the worker runs itself on
/// the proxy's pool, on either engine, holding its budget slot until the
/// exchange ends. The outcome lands in [`settle_speculation`] — settling
/// the ledger exactly once — and then the landing settles the job as it
/// drops.
fn run_candidate(
    inner: &Arc<PrefetchInner>,
    shared: &ProxyShared,
    cand: Candidate,
    scratch: &mut ConnScratch,
) {
    {
        let mut st = cand.job.0.lock().unwrap();
        match st.state {
            // The demand path cancelled (and unregistered) this job.
            JobState::Cancelled => return,
            JobState::Queued => st.state = JobState::Fetching,
            // Unreachable (one worker per queue entry); stay safe.
            JobState::Fetching | JobState::Done => return,
        }
    }
    let _landing = Landing {
        inner: Arc::clone(inner),
        r: cand.r,
        job: cand.job,
    };
    // Last-second dedup: a demand fetch may have landed the entry since
    // this candidate was queued. Skipping here is free — the fetch was
    // never issued.
    if shared.cache.peek(cand.r).is_some() {
        return;
    }
    let stats = &shared.stats;
    stats.prefetch_issued.fetch_add(1, Relaxed);
    stats.prefetch_inflight.fetch_add(1, Relaxed);
    let leg = lifecycle::speculative_leg(&cand.path);
    let (request, sink) = (leg.request_bytes(scratch), &mut Vec::new());
    let retried = || {
        stats.prefetch_retries.fetch_add(1, Relaxed);
    };
    // A speculative leg never engages, so nothing reaches the sink.
    let flush = |_: &mut Vec<u8>, _: &[u8]| Ok(());
    let (outcome, now) = pool_exchange(request, leg.relay, &shared.pool, sink, retried, flush);
    settle_speculation(shared, cand.r, &cand.path, outcome, shared.clock.at(now));
}

/// Resolve an issued speculation from its exchange outcome, settled at
/// `now`: a 200 is stored unless a demand fetch landed the entry while it
/// was on the wire, anything else is wasted on the spot.
fn settle_speculation(
    shared: &ProxyShared,
    r: ResourceId,
    path: &str,
    outcome: UpstreamOutcome,
    now: Timestamp,
) {
    let stats = &shared.stats;
    // The speculative leg carries no relay rule, so the only other
    // outcome is `Failed`.
    let UpstreamOutcome::Response(resp) = outcome else {
        return settle_wasted(stats, 0);
    };
    let size = resp.body.len() as u64;
    stats.prefetch_fetched_bytes.fetch_add(size, Relaxed);
    if resp.status != 200 {
        return settle_wasted(stats, size);
    }
    let lm = lifecycle::last_modified(&resp, now);
    shared.table.write().register_path(path, size, lm);
    // A demand fetch that completed while we were on the wire wins; a body
    // oversized for its shard can never be served.
    if shared.cache.peek(r).is_some() || !lifecycle::store(shared, r, &resp.body, lm, now, true) {
        settle_wasted(stats, size);
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
        settle_wasted(stats, old.size);
    }
}

/// Settle one issued speculation as wasted, with the `bytes` it fetched
/// for nothing (0 for a failure).
fn settle_wasted(stats: &AtomicProxyStats, bytes: u64) {
    stats.prefetch_wasted.fetch_add(1, Relaxed);
    stats.prefetch_wasted_bytes.fetch_add(bytes, Relaxed);
    stats.prefetch_inflight.fetch_sub(1, Relaxed);
}

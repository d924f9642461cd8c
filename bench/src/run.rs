//! One workload on one engine, inside one fresh child process: set-up,
//! the measured segments with their correctness gates, and the figures.
//!
//! The two engines' children are alive at once and take turns: the parent
//! hands one of them the CPU for one step (set-up, or one segment), waits
//! for it to finish, and hands it to the other. Paced and closed-loop
//! segments alternate inside each child. Every figure is therefore a
//! figure over a dozen short segments spread across the whole run — on a
//! host whose speed wanders for seconds at a time, that is the only way a
//! thirty-second run averages over the wandering instead of sampling it.

use crate::chain::{Chain, Engine};
use crate::loadgen::{self, Outcome};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::sys;
use crate::workload::{Kind, Op, PacedSegment, Plan, SEGMENTS};
use piggyback_proxyd::ProxyStats;
use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

/// Each spin calibration's length. The issue asked for a second; at three
/// per engine per run that is a quarter of the time cap, so it is shorter.
const SPIN: Duration = Duration::from_millis(100);
/// Host speed may drift this much between calibrations before the run warns.
const SPIN_WARN_PCT: f64 = 15.0;

/// The child's side of the turn-taking: before each step it says `ready`
/// and waits for the parent's `go`. Without a parent (standard input at
/// end of file) it runs free.
#[derive(Default)]
pub struct Turns {
    free_running: bool,
}

/// What a child prints when it wants the CPU to itself for its next step…
pub const READY: &str = "ready";
/// …and when its next step sleeps most of the time and may run alongside
/// the sibling's (which must say the same).
pub const READY_SHARED: &str = "ready shared";

impl Turns {
    /// Wait for a turn with the CPU to this child alone.
    pub fn wait(&mut self) {
        self.wait_saying(READY);
    }

    /// Wait for a turn the sibling may share.
    pub fn wait_shared(&mut self) {
        self.wait_saying(READY_SHARED);
    }

    fn wait_saying(&mut self, word: &str) {
        if self.free_running {
            return;
        }
        println!("{word}");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        match std::io::stdin().lock().read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => self.free_running = true,
        }
    }
}

/// Spin calibrations through a run: the worst relative change between
/// consecutive ones.
pub struct SpinWatch {
    last: f64,
    pub worst_pct: f64,
}

impl SpinWatch {
    pub fn start() -> Self {
        SpinWatch {
            last: sys::spin_calibration(SPIN),
            worst_pct: 0.0,
        }
    }

    pub fn again(&mut self, since: &str, report: &mut Report) {
        let now = sys::spin_calibration(SPIN);
        let drift = (now / self.last - 1.0).abs() * 100.0;
        if drift > SPIN_WARN_PCT {
            report.note(format!(
                "WARNING host speed changed {drift:.1}% {since} \
                 (spin {:.0} -> {now:.0} ns/Miter): figures from then are suspect",
                self.last
            ));
        }
        self.worst_pct = self.worst_pct.max(drift);
        self.last = now;
    }
}

/// The exact ledgers, read once the proxy is quiescent: every request has
/// exactly one outcome, every issued speculation is used, wasted or still
/// in flight, and — where the generator can say (`sent`) — the proxy saw
/// exactly the requests the generator sent. Browsing cannot say: control
/// requests ride along.
pub fn ledger_gate(
    chain: &Chain,
    before: &ProxyStats,
    sent: Option<u64>,
    phase: &str,
    report: &mut Report,
) -> ProxyStats {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut stats = chain.proxy.stats();
    let balanced = |s: &ProxyStats| {
        s.outcomes() == s.requests
            && s.prefetch_issued == s.prefetch_used + s.prefetch_wasted + s.prefetch_inflight
            && sent.is_none_or(|n| s.requests - before.requests == n)
    };
    while !balanced(&stats) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
        stats = chain.proxy.stats();
    }
    if !balanced(&stats) {
        report.tally(
            &format!("{phase} ledger"),
            0,
            1,
            Some(&format!(
                "requests {} outcomes {} (generator sent {sent:?}, proxy counted {}); \
                 prefetch issued {} used {} wasted {} inflight {}",
                stats.requests,
                stats.outcomes(),
                stats.requests - before.requests,
                stats.prefetch_issued,
                stats.prefetch_used,
                stats.prefetch_wasted,
                stats.prefetch_inflight
            )),
        );
    }
    stats
}

fn tally(report: &mut Report, phase: &str, out: &Outcome) {
    report.tally(
        phase,
        out.attempted,
        out.failed,
        out.first_failure.as_deref(),
    );
}

/// Set-up: start the chain, populate it, warm it up at the measured
/// phase's own pace. Failures here are failed operations like any other.
pub fn set_up(
    plan: &Plan,
    engine: Engine,
    traced: bool,
    report: &mut Report,
) -> std::io::Result<Chain> {
    let chain = Chain::start(&plan.chain, engine, traced)?;
    if !plan.populate.is_empty() {
        let out = loadgen::run_closed(chain.client_addr, plan, &plan.populate, (1, 1))?;
        tally(report, "populate", &out);
    }
    if let Some(warm) = &plan.warmup {
        let out = loadgen::run_paced(chain.client_addr, plan, warm)?;
        tally(report, "warm-up", &out);
    }
    if let Some(browse) = &plan.browse {
        let out = loadgen::run_browse(chain.client_addr, plan, browse, 0..browse.warm_loads);
        tally(report, "warm-up", &out);
    }
    Ok(chain)
}

/// One measured segment of one phase.
pub enum Step<'a> {
    Paced(&'a PacedSegment),
    Closed {
        ops: &'a [Op],
        depth: usize,
        window: usize,
    },
    OneInFlight(&'a [Op]),
    Browsing(std::ops::Range<usize>),
}

/// What a run plays for segment `k`, in order: paced, closed-loop,
/// one-in-flight — or browsing. The lists' expectations are written for
/// this order.
pub fn steps(plan: &Plan, k: usize) -> Vec<Step<'_>> {
    let mut steps = Vec::with_capacity(3);
    if let Some(paced) = &plan.paced {
        steps.push(Step::Paced(&paced.segments[k]));
    }
    if let Some(closed) = &plan.closed {
        steps.push(Step::Closed {
            ops: &closed.segments[k],
            depth: closed.depth,
            window: closed.window,
        });
    }
    if let Some(unloaded) = &plan.unloaded {
        steps.push(Step::OneInFlight(&unloaded[k]));
    }
    if let Some(browse) = &plan.browse {
        steps.push(Step::Browsing(browse.segment(k)));
    }
    steps
}

impl Step<'_> {
    fn name(&self) -> &'static str {
        match self {
            Step::Paced(_) => "paced",
            Step::Closed { .. } => "closed-loop",
            Step::OneInFlight(_) => "one-in-flight",
            Step::Browsing(_) => "browsing",
        }
    }

    /// Run the segment, count its operations, and pass the ledger gate.
    pub fn play(
        &self,
        chain: &Chain,
        plan: &Plan,
        k: usize,
        ledger: &mut ProxyStats,
        report: &mut Report,
    ) -> std::io::Result<Outcome> {
        let addr = chain.client_addr;
        let out = match self {
            Step::Paced(seg) => loadgen::run_paced(addr, plan, seg)?,
            Step::Closed { ops, depth, window } => {
                loadgen::run_closed(addr, plan, ops, (*depth, *window))?
            }
            Step::OneInFlight(ops) => loadgen::run_closed(addr, plan, ops, (1, 1))?,
            Step::Browsing(range) => {
                let browse = plan.browse.as_ref().expect("a browsing step has users");
                loadgen::run_browse(addr, plan, browse, range.clone())
            }
        };
        tally(report, &format!("{} segment {k}", self.name()), &out);
        // Browsing cannot say how many requests the proxy should have
        // counted: control requests ride along.
        let sent = (!matches!(self, Step::Browsing(_))).then_some(out.attempted);
        *ledger = ledger_gate(chain, ledger, sent, self.name(), report);
        Ok(out)
    }
}

/// The `q`-quantile of a segment's per-operation samples; a failed
/// operation counts as infinitely slow.
fn segment_percentile(samples: &[Option<f64>], q: f64) -> f64 {
    let vals: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    percentile(&vals, q)
}

/// Segments of a phase whose figures count: the [`KEEP`] from which the
/// hypervisor stole the least time.
const KEEP: usize = 4;

/// A segment that saturates the CPU is read in this many blocks, so the
/// best of them is the best of 48 stretches of the run, each a fraction of
/// a second: the host's quiet spells can be shorter than a segment. Fewer
/// blocks where one would hold under [`BLOCK_MIN`] samples (the large
/// objects): the best of many small samples is a lucky sample.
const BLOCKS: usize = 4;
const BLOCK_MIN: usize = 100;

fn blocks_for(samples: usize) -> usize {
    (samples / BLOCK_MIN).clamp(1, BLOCKS)
}

/// One figure over the segments of a phase: (share of the segment's wall
/// time that was stolen, the figure) per segment.
#[derive(Default)]
struct Figure(Vec<(f64, f64)>);

impl Figure {
    fn push(&mut self, out: &Outcome, value: f64) {
        let stolen_share = out.stolen_ns as f64 / out.wall_ns.max(1) as f64;
        self.0.push((stolen_share, value));
    }

    /// The `q`-quantile of each block of a saturating segment's
    /// per-operation samples.
    fn push_blocks(&mut self, out: &Outcome, samples: &[Option<f64>], q: f64) {
        let per_block = (samples.len() / blocks_for(samples.len())).max(1);
        for block in samples.chunks(per_block).filter(|b| b.len() == per_block) {
            self.push(out, segment_percentile(block, q));
        }
    }

    /// The median over the [`KEEP`] segments the hypervisor disturbed
    /// least, and every segment it disturbed no more than the last of
    /// those (all of them, on a host that steals nothing).
    ///
    /// The host takes the CPU away for tens of milliseconds at a time —
    /// nothing in some 0.4 s segments, a third of others — and a segment it
    /// took 100 ms from reads up to twice the latency of one it left alone.
    /// The kernel reports that time (`steal` in `/proc/stat`), so the
    /// estimator can tell a disturbed segment from a quiet one instead of
    /// averaging the disturbance in.
    fn estimate(&self) -> f64 {
        let mut shares: Vec<f64> = self.0.iter().map(|s| s.0).collect();
        shares.sort_by(f64::total_cmp);
        let Some(&cut) = shares.get(KEEP.min(shares.len()).saturating_sub(1)) else {
            return 0.0;
        };
        let kept: Vec<f64> = self.0.iter().filter(|s| s.0 <= cut).map(|s| s.1).collect();
        median(&kept)
    }

    /// The lowest segment. A segment that keeps the CPU busy from its first
    /// request to its last (closed loop, one in flight) can be slowed by
    /// the host — stolen time, or a busy sibling hyperthread, which the
    /// kernel does not report and which makes everything 1.5x slower for
    /// seconds at a time — but never sped up: its segments read one of two
    /// values 1.5x apart, and the lower one is the chain on a core it has
    /// to itself. Over ten runs the lowest one-in-flight segment of
    /// `hit_flood` read 8.2–8.6 µs while the median segment read 8.6 in
    /// some runs and 13.5 in others.
    fn lowest(&self) -> f64 {
        self.0.iter().map(|s| s.1).fold(f64::INFINITY, f64::min)
    }

    /// The highest segment: [`lowest`](Self::lowest) for a rate.
    fn highest(&self) -> f64 {
        self.0.iter().map(|s| s.1).fold(0.0, f64::max)
    }

    fn range(&self) -> String {
        if self.0.is_empty() {
            return "-".to_owned();
        }
        let v = self.0.iter().map(|s| s.1);
        format!(
            "{:.4}..{:.4}",
            v.clone().fold(f64::INFINITY, f64::min),
            v.fold(0.0, f64::max)
        )
    }
}

/// Per-segment figures of one engine.
#[derive(Default)]
struct Segments {
    lat_p50_ms: Figure,
    ttfb_p50_ms: Figure,
    cpu_us_per_req: Figure,
    req_per_s: Figure,
    /// The paced segments' own median latency: a diagnostic (see
    /// `README.md`, "Why latency is not taken from the paced phase").
    paced_lat_p50_ms: Figure,
    /// Every paced (or browsing) operation's latency and every paced
    /// request's lateness, for the tail diagnostics.
    lat_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    worst_rate_error_pct: f64,
    stolen_ms: f64,
    /// The peak resident set of each segment of any phase, MiB.
    peak_rss_mib: Vec<f64>,
}

impl Segments {
    /// Call after a segment of any phase whose peak resident set was reset
    /// (`sys::reset_peak_rss`) before it.
    fn end(&mut self) {
        self.peak_rss_mib.push(sys::peak_rss_kib() as f64 / 1024.0);
    }

    /// A paced segment: the CPU figure, and the open-loop diagnostics.
    fn paced_segment(&mut self, out: &Outcome) {
        self.cpu_us_per_req.push(out, out.cpu_us_per_req());
        self.paced_lat_p50_ms
            .push(out, segment_percentile(&out.lat_ms, 0.5));
        self.lat_ms.extend(out.lat_ms.iter().flatten());
        self.lag_ms.extend(&out.lag_ms);
        self.stolen_ms += out.stolen_ns as f64 / 1e6;
        let off = (out.achieved_rate / out.offered_rate.max(1e-9) - 1.0).abs() * 100.0;
        self.worst_rate_error_pct = self.worst_rate_error_pct.max(off);
    }

    /// A segment with one request in flight: the latency figures.
    fn latency_segment(&mut self, out: &Outcome) {
        self.lat_p50_ms.push_blocks(out, &out.lat_ms, 0.5);
        self.ttfb_p50_ms.push_blocks(out, &out.ttfb_ms, 0.5);
    }

    /// A closed-loop segment: the rate figure, over its median windows.
    fn rate_segment(&mut self, out: &Outcome) {
        for rate in out.median_window_req_per_s(blocks_for(out.window_ns.len())) {
            self.req_per_s.push(out, rate);
        }
        self.stolen_ms += out.stolen_ns as f64 / 1e6;
    }

    /// A browsing segment feeds every figure: its users are a closed loop
    /// with one request in flight each, and it has no other phase. It
    /// sleeps most of the time, so its rate is by the wall clock.
    fn browsing_segment(&mut self, out: &Outcome) {
        self.lat_p50_ms
            .push(out, segment_percentile(&out.lat_ms, 0.5));
        self.ttfb_p50_ms
            .push(out, segment_percentile(&out.ttfb_ms, 0.5));
        self.cpu_us_per_req.push(out, out.cpu_us_per_req());
        self.req_per_s.push(out, out.req_per_s());
        self.lat_ms.extend(out.lat_ms.iter().flatten());
        self.stolen_ms += out.stolen_ns as f64 / 1e6;
    }
}

/// The end-to-end run of one engine: set-up, then paced and closed-loop
/// segments alternately (or the browsing segments), each after waiting
/// for its turn and each followed by the ledger gate.
pub fn end_to_end(
    kind: Kind,
    engine: Engine,
    seed: u64,
    seconds: f64,
    turns: &mut Turns,
) -> std::io::Result<Report> {
    let mut report = Report::default();
    let e = engine.name();
    turns.wait();
    let started = Instant::now();
    let plan = Plan::build(kind, seed, seconds);
    let chain = set_up(&plan, engine, false, &mut report)?;
    report.put(format!("setup_s.{e}"), started.elapsed().as_secs_f64(), "s");
    report.note(format!(
        "{e}: inputs fingerprint {:016x}",
        plan.fingerprint()
    ));

    let mut ledger = chain.proxy.stats();
    let mut seg = Segments::default();
    let mut spin: Option<SpinWatch> = None;
    if plan.browse.is_some() {
        // Browsing sleeps (think time, the shimmed link) some 98 % of the
        // time, and its cache ages by the wall clock: pausing one engine's
        // users while the other's browse would empty its cache. So both
        // engines' users browse at once, through the same stretch of host
        // weather, and the segments only cut the figures. The spin
        // calibrations stay outside the shared stretch — this one in the
        // turn set-up ran in, the last in a turn of its own: two children
        // spinning at once would each read half the host's speed.
        spin = Some(SpinWatch::start());
        turns.wait_shared();
    }
    for k in 0..SEGMENTS {
        for step in steps(&plan, k) {
            if !matches!(step, Step::Browsing(_)) {
                turns.wait();
            }
            if matches!(step, Step::Paced(_)) {
                calibrate(&mut spin, k, &mut report);
            }
            sys::reset_peak_rss();
            let out = step.play(&chain, &plan, k, &mut ledger, &mut report)?;
            seg.end();
            match step {
                Step::Paced(_) => seg.paced_segment(&out),
                Step::Closed { .. } => {
                    seg.rate_segment(&out);
                    if plan.unloaded.is_none() {
                        // Already one request in flight: the latency
                        // phase too.
                        seg.latency_segment(&out);
                    }
                }
                Step::OneInFlight(_) => seg.latency_segment(&out),
                Step::Browsing(_) => seg.browsing_segment(&out),
            }
        }
    }
    let mut spin = spin.expect("at least one segment ran");
    if plan.browse.is_some() {
        turns.wait();
        spin.again("across the browsing segments", &mut report);
    } else {
        spin.again("over the second half of the run", &mut report);
    }

    // Segments that saturate the CPU: the best one. Segments that mostly
    // wait (paced, browsing): the median of the least disturbed.
    let saturating = plan.browse.is_none();
    let (req, lat, ttfb) = if saturating {
        (
            seg.req_per_s.highest(),
            seg.lat_p50_ms.lowest(),
            seg.ttfb_p50_ms.lowest(),
        )
    } else {
        (
            seg.req_per_s.estimate(),
            seg.lat_p50_ms.estimate(),
            seg.ttfb_p50_ms.estimate(),
        )
    };
    report.put(format!("req_per_s.{e}"), req, "1/s");
    report.put(
        format!("cpu_us_per_req.{e}"),
        seg.cpu_us_per_req.estimate(),
        "us",
    );
    report.put(format!("lat_p50_ms.{e}"), lat, "ms");
    report.put(format!("ttfb_p50_ms.{e}"), ttfb, "ms");
    // The median segment's peak: a buffer that balloons once, in the one
    // segment the host stalled the reader of, is not the chain's footprint;
    // one that balloons whenever a large body passes is, and shows in most
    // segments.
    report.put(
        format!("peak_rss_mib.{e}"),
        median(&seg.peak_rss_mib),
        "MiB",
    );
    // The tail, how late the generator ran, and how the segments spread:
    // diagnostics printed beside the figures, not figures.
    report.put(
        format!("loadgen.lat_p99_ms.{e}"),
        percentile(&seg.lat_ms, 0.99),
        "ms",
    );
    report.put(
        format!("loadgen.sched_lag_p99_ms.{e}"),
        percentile(&seg.lag_ms, 0.99),
        "ms",
    );
    report.put(
        format!("loadgen.host_spin_drift_pct.{e}"),
        spin.worst_pct,
        "%",
    );
    if plan.paced.is_some() {
        report.put(
            format!("loadgen.paced_lat_p50_ms.{e}"),
            seg.paced_lat_p50_ms.estimate(),
            "ms",
        );
    }
    if plan.browse.is_some() {
        // Page loads by the shimmed exchanges they waited for (~13 ms each).
        let n = seg.lat_ms.len().max(1) as f64;
        let share = |lo: f64, hi: f64| {
            seg.lat_ms.iter().filter(|&&ms| ms >= lo && ms < hi).count() as f64 * 100.0 / n
        };
        report.note(format!(
            "{e}: page loads that waited for 0 / 1 / 2 / 3+ shimmed exchanges: \
             {:.1}% / {:.1}% / {:.1}% / {:.1}%; mean page load {:.3} ms",
            share(0.0, 5.0),
            share(5.0, 19.0),
            share(19.0, 32.0),
            share(32.0, f64::INFINITY),
            seg.lat_ms.iter().sum::<f64>() / n
        ));
    }
    let rate_error = seg.worst_rate_error_pct;
    if rate_error > 0.5 {
        report.note(format!(
            "WARNING {e}: a paced segment's achieved rate was {rate_error:.2}% off the offered rate"
        ));
    }
    report.note(format!(
        "{e} segments ({SEGMENTS} per phase): lat_p50_ms {}, cpu_us_per_req {}, req_per_s {}, \
         paced lat_p50_ms {}; generator lag p50 {:.3} ms; \
         worst paced rate error {rate_error:.2}%; stolen by the host {:.0} ms",
        seg.lat_p50_ms.range(),
        seg.cpu_us_per_req.range(),
        seg.req_per_s.range(),
        seg.paced_lat_p50_ms.range(),
        median(&seg.lag_ms),
        seg.stolen_ms,
    ));
    chain.stop();
    Ok(report)
}

/// Spin calibrations at the start and the middle of the run (the last one
/// follows the final segment), each inside this child's own turn.
fn calibrate(spin: &mut Option<SpinWatch>, k: usize, report: &mut Report) {
    match spin {
        None => *spin = Some(SpinWatch::start()),
        Some(s) if k == SEGMENTS / 2 => s.again("over the first half of the run", report),
        Some(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure(segments: &[(f64, f64)]) -> Figure {
        Figure(segments.to_vec())
    }

    /// The reference: sort by stolen share, keep the first four and every
    /// tie with the fourth, take the nearest-rank median.
    fn reference(segments: &[(f64, f64)]) -> f64 {
        let mut s = segments.to_vec();
        s.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let cut = s[KEEP.min(s.len()) - 1].0;
        let mut kept: Vec<f64> = s.iter().filter(|x| x.0 <= cut).map(|x| x.1).collect();
        kept.sort_by(|a, b| a.partial_cmp(b).unwrap());
        kept[kept.len().div_ceil(2) - 1]
    }

    #[test]
    fn estimate_is_the_median_of_the_least_disturbed_segments() {
        // Four quiet segments agree; the disturbed ones read up to double.
        let segs = [
            (0.30, 0.19),
            (0.00, 0.103),
            (0.22, 0.17),
            (0.00, 0.109),
            (0.32, 0.26),
            (0.00, 0.081),
            (0.15, 0.14),
            (0.00, 0.111),
            (0.02, 0.107),
        ];
        assert_eq!(figure(&segs).estimate(), 0.103);
        assert_eq!(figure(&segs).estimate(), reference(&segs));
        // A host that steals nothing: every segment counts.
        let quiet: Vec<(f64, f64)> = (0..12).map(|i| (0.0, 1.0 + i as f64)).collect();
        assert_eq!(figure(&quiet).estimate(), 6.0);
        // Fewer segments than KEEP, and none at all.
        assert_eq!(figure(&[(0.5, 2.0), (0.1, 4.0)]).estimate(), 2.0);
        assert_eq!(figure(&[]).estimate(), 0.0);
        assert_eq!(figure(&segs).lowest(), 0.081);
        assert_eq!(figure(&segs).highest(), 0.26);
        // Against the reference on seeded inputs.
        let mut r = crate::rng::Rng::new(17);
        for n in [1usize, 3, 4, 5, 12, 40] {
            let segs: Vec<(f64, f64)> = (0..n)
                .map(|_| ((r.below(4) as f64) * 0.025, r.unit()))
                .collect();
            assert_eq!(figure(&segs).estimate(), reference(&segs), "n={n}");
        }
    }

    #[test]
    fn a_failed_operation_is_infinitely_slow_in_its_segment() {
        let ok: Vec<Option<f64>> = (0..100).map(|i| (i % 2 == 0).then_some(1.0)).collect();
        assert_eq!(segment_percentile(&ok, 0.5), 1.0);
        assert!(segment_percentile(&ok, 0.6).is_infinite());
    }
}

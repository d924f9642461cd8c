//! Observability primitives: allocation-free latency histograms and
//! Prometheus text rendering.
//!
//! The paper's argument is quantitative — piggyback overhead versus saved
//! validations (Sections 2.3 and 4) — so a live daemon must expose
//! *distributions*, not just the aggregate counters in [`crate::stats`].
//! [`LatencyHistogram`] is the recording half: a fixed array of log2
//! buckets incremented with relaxed atomic adds, so the hot path never
//! allocates, never locks, and never branches on contention. Snapshots are
//! plain `Copy` values that merge bucketwise, which lets per-thread or
//! per-lane recorders fold into one distribution (the property the HTTP/2
//! server-push measurement studies rely on for per-request percentiles).
//!
//! Bucket scheme: bucket 0 holds the value 0 and bucket `i ≥ 1` holds
//! values `v` with `2^(i-1) <= v < 2^i`, i.e. the upper bound of bucket
//! `i` is `2^i - 1`. The last bucket is unbounded (+Inf). Values are
//! dimensionless `u64`s; the daemons record microseconds for latencies and
//! raw byte counts for piggyback overhead.

use crate::stats::{ReactorShardCounts, ReactorShardStats};
use crate::util::IoStats;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Bucket count. Bucket `BUCKETS - 1` is the unbounded overflow bucket, so
/// the largest finite upper bound is `2^(BUCKETS-2) - 1` — with 28 buckets
/// that is ~67 seconds in microseconds (or 64 MiB as bytes), far beyond
/// anything the loopback daemons produce.
pub const BUCKETS: usize = 28;

/// The log2 bucket a value lands in.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`, or `None` for the +Inf bucket.
pub fn bucket_upper(i: usize) -> Option<u64> {
    if i + 1 >= BUCKETS {
        None
    } else {
        Some((1u64 << i) - 1)
    }
}

/// A fixed-bucket log2 histogram recorded with relaxed atomics.
///
/// `record*` is wait-free: two `fetch_add`s and a `fetch_max`, no
/// allocation, no lock. Relaxed ordering suffices for the same reason it
/// does in [`crate::stats`]: each cell is independent, and cross-cell
/// totals are only read when the recorder is quiescent (or treated as
/// approximate while it is not).
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a raw value (microseconds, bytes, ...).
    #[inline]
    pub fn record_value(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Relaxed);
        self.sum.fetch_add(value, Relaxed);
        self.max.fetch_max(value, Relaxed);
    }

    /// Record an elapsed duration in microseconds.
    #[inline]
    pub fn record(&self, elapsed: Duration) {
        self.record_value(elapsed.as_micros() as u64);
    }

    /// Record `n` samples of one elapsed duration at once: what `n`
    /// calls of [`record`](Self::record) would leave.
    pub fn record_n(&self, elapsed: Duration, n: u64) {
        let value = elapsed.as_micros() as u64;
        self.buckets[bucket_index(value)].fetch_add(n, Relaxed);
        self.sum.fetch_add(value.saturating_mul(n), Relaxed);
        if n > 0 {
            self.max.fetch_max(value, Relaxed);
        }
    }

    /// Relaxed read of every cell into a plain snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, cell) in buckets.iter_mut().zip(&self.buckets) {
            *out = cell.load(Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// A plain `Copy` snapshot of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest value ever recorded (exact, unlike the bucket bounds).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fold `other` into `self` (bucketwise add; exact because log2 bucket
    /// boundaries are identical across all histograms).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Mean of all recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`), reported as the inclusive upper
    /// bound of the bucket holding the `ceil(q * count)`-th sample — an
    /// upper estimate with at most 2x relative error by construction. The
    /// overflow bucket reports the exact observed `max`. Returns 0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return match bucket_upper(i) {
                    // Never report a bound beyond the observed maximum.
                    Some(upper) => upper.min(self.max),
                    None => self.max,
                };
            }
        }
        self.max
    }

    /// `(p50, p90, p99, max)` in the recorded unit.
    pub fn percentiles(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            self.max,
        )
    }
}

/// Per-outcome request timing plus piggyback-overhead accounting for the
/// caching proxy. One histogram per terminal outcome, mirroring the
/// conservation invariant of [`ProxyStats`](crate::stats::ProxyStats):
/// when the proxy is quiescent, the six outcome histogram counts sum to
/// exactly `requests`.
#[derive(Debug, Default)]
pub struct ProxyObs {
    /// Served from cache, fresh — no upstream exchange.
    pub fresh_hit: LatencyHistogram,
    /// Head served from a retained large-object prefix, suffix streamed
    /// from the origin. Timed to completion of the whole transfer (the
    /// TTFB win shows up in the bench's first-byte timings, not here).
    pub prefix_hit: LatencyHistogram,
    /// Validated upstream, origin answered 304.
    pub not_modified: LatencyHistogram,
    /// Full 200 fetch from the origin.
    pub full_fetch: LatencyHistogram,
    /// Upstream exchange failed (client saw 502).
    pub error: LatencyHistogram,
    /// Upstream status other than 200/304 relayed uncached.
    pub passthrough: LatencyHistogram,
    /// `P-volume` piggyback payload bytes per response that carried one
    /// (trailer on 200s, header on 304s) — the paper's Section 2.3
    /// overhead, measured per response rather than as an aggregate mean.
    pub piggyback_bytes: LatencyHistogram,
}

impl ProxyObs {
    /// `(outcome_label, histogram)` pairs, in conservation order.
    pub fn outcomes(&self) -> [(&'static str, &LatencyHistogram); 6] {
        [
            ("fresh_hit", &self.fresh_hit),
            ("prefix_hit", &self.prefix_hit),
            ("not_modified", &self.not_modified),
            ("full_fetch", &self.full_fetch),
            ("error", &self.error),
            ("passthrough", &self.passthrough),
        ]
    }
}

/// Per-response-class timing for the origin / volume-center daemons, plus
/// piggyback bytes *sent* (the server side of the overhead ledger).
#[derive(Debug, Default)]
pub struct DaemonObs {
    /// 200/204 responses.
    pub ok: LatencyHistogram,
    /// 304 responses.
    pub not_modified: LatencyHistogram,
    /// Everything else (404s, 400s, ...).
    pub error: LatencyHistogram,
    /// `P-volume` payload bytes per piggyback-carrying response sent.
    pub piggyback_bytes: LatencyHistogram,
}

impl DaemonObs {
    /// The histogram a response with `status` is timed into (same
    /// classification as `AtomicDaemonStats::count_response`).
    pub fn class_for(&self, status: u16) -> &LatencyHistogram {
        match status {
            200 | 204 => &self.ok,
            304 => &self.not_modified,
            _ => &self.error,
        }
    }

    /// `(class_label, histogram)` pairs.
    pub fn classes(&self) -> [(&'static str, &LatencyHistogram); 3] {
        [
            ("ok", &self.ok),
            ("not_modified", &self.not_modified),
            ("error", &self.error),
        ]
    }
}

// ---------------------------------------------------------------------------
// Prometheus text rendering
// ---------------------------------------------------------------------------

/// Append a `# TYPE` line and a single sample for a counter or gauge.
pub fn render_scalar(out: &mut String, name: &str, labels: &str, kind: &str, value: u64) {
    if !out.contains(&format!("# TYPE {name} ")) {
        out.push_str(&format!("# TYPE {name} {kind}\n"));
    }
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

/// Append the transport families the proxy and the origin share, named
/// under `prefix`: the accept-side counters of either engine, then for each
/// reactor shard its connections, accepts, wakeups and timeouts, followed
/// by what `shard` appends of the daemon's own for it (given the shard's
/// labels).
pub fn render_transport(
    out: &mut String,
    prefix: &str,
    io: &IoStats,
    shards: &[ReactorShardStats],
    mut shard: impl FnMut(&mut String, &str, &ReactorShardCounts),
) {
    for (family, kind, value) in [
        ("accepts_total", "counter", io.accepts_total()),
        ("open_connections", "gauge", io.open_connections()),
        ("accept_backoffs_total", "counter", io.accept_errors_total()),
    ] {
        render_scalar(out, &format!("{prefix}_{family}"), "", kind, value);
    }
    for (i, stats) in shards.iter().enumerate() {
        let labels = format!("shard=\"{i}\"");
        let s = stats.snapshot();
        for (family, kind, value) in [
            ("reactor_conns", "gauge", s.conns),
            ("reactor_accepts_total", "counter", s.accepts),
            ("reactor_wakeups_total", "counter", s.wakeups),
            ("reactor_timeouts_total", "counter", s.timeouts),
        ] {
            render_scalar(out, &format!("{prefix}_{family}"), &labels, kind, value);
        }
        shard(out, &labels, &s);
    }
}

/// Append one histogram in Prometheus exposition format: cumulative
/// `_bucket{le=...}` samples, `_sum`, and `_count`. `scale` divides raw
/// values for the `le` bounds and `_sum` (use `1e6` to expose recorded
/// microseconds as seconds, `1.0` for bytes).
pub fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &str,
    snap: &HistogramSnapshot,
    scale: f64,
) {
    if !out.contains(&format!("# TYPE {name} ")) {
        out.push_str(&format!("# TYPE {name} histogram\n"));
    }
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (i, &c) in snap.buckets.iter().enumerate() {
        cumulative += c;
        // Skip interior empty buckets but always keep +Inf; this keeps the
        // exposition compact without changing cumulative semantics.
        let is_last = i + 1 == BUCKETS;
        if c == 0 && !is_last {
            continue;
        }
        let le = match bucket_upper(i) {
            Some(upper) => format!("{}", upper as f64 / scale),
            None => "+Inf".to_owned(),
        };
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    let braced = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{name}_sum{braced} {}\n", snap.sum as f64 / scale));
    out.push_str(&format!("{name}_count{braced} {}\n", snap.count()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_scheme_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        // Every finite bucket's upper bound routes back to that bucket.
        for i in 0..BUCKETS - 1 {
            let upper = bucket_upper(i).unwrap();
            assert_eq!(bucket_index(upper), i, "bucket {i}");
            assert_eq!(bucket_index(upper + 1), i + 1, "bucket {i} boundary");
        }
        assert_eq!(bucket_upper(BUCKETS - 1), None);
    }

    #[test]
    fn record_snapshot_and_stats() {
        let h = LatencyHistogram::new();
        for v in [0, 1, 5, 5, 100, 1000] {
            h.record_value(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum, 1111);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 1111.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_bound_samples() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record_value(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        // Upper estimates: at least the true quantile, at most 2x (log2
        // bucketing), and never beyond the observed max.
        assert!((500..=1000).contains(&p50), "p50={p50}");
        assert!((990..=1000).contains(&p99), "p99={p99}");
        assert_eq!(s.quantile(1.0), 1000);
        assert_eq!(s.max, 1000);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn merge_is_bucketwise_exact() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        for v in [1, 10, 100] {
            a.record_value(v);
        }
        for v in [2, 20, 200, 2000] {
            b.record_value(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(), 7);
        assert_eq!(merged.sum, 111 + 2222);
        assert_eq!(merged.max, 2000);

        // Merging equals recording everything into one histogram.
        let all = LatencyHistogram::new();
        for v in [1, 10, 100, 2, 20, 200, 2000] {
            all.record_value(v);
        }
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(LatencyHistogram::new());
        let threads = 8;
        let per = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..per {
                        h.record_value(t * 1000 + i % 97);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), threads * per);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let h = LatencyHistogram::new();
        h.record_value(1500); // 1.5ms as micros
        h.record_value(3000);
        let mut out = String::new();
        render_scalar(&mut out, "pb_x_total", "", "counter", 42);
        render_scalar(&mut out, "pb_y", "shard=\"0\"", "gauge", 7);
        render_histogram(
            &mut out,
            "pb_lat_seconds",
            "outcome=\"hit\"",
            &h.snapshot(),
            1e6,
        );
        assert!(out.contains("# TYPE pb_x_total counter\npb_x_total 42\n"));
        assert!(out.contains("pb_y{shard=\"0\"} 7\n"));
        assert!(out.contains("# TYPE pb_lat_seconds histogram\n"));
        assert!(out.contains("le=\"+Inf\"}} 2") || out.contains("le=\"+Inf\"} 2"));
        assert!(out.contains("pb_lat_seconds_count{outcome=\"hit\"} 2"));
        // Cumulative buckets are monotone and end at the count.
        let counts: Vec<u64> = out
            .lines()
            .filter(|l| l.starts_with("pb_lat_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(*counts.last().unwrap(), 2);
    }
}

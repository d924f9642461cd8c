//! The shared experiment sweep engine.
//!
//! Every `fig*`/`table*` binary is a grid of independent (profile ×
//! configuration) cells. This module fans the grid out across a rayon
//! thread pool ([`sweep`]), memoizes synthetic log generation so each
//! profile is built once per process ([`shared_server_log`]), and wraps
//! whole experiments in wall-clock + peak-RSS accounting that lands in
//! `BENCH_pipeline.json` ([`run_timed`]).
//!
//! Determinism: cells are dispatched to worker threads dynamically but
//! results are reassembled in grid order, and every cell derives its own
//! seed from the experiment tag and cell index ([`cell_seed`]) — so table
//! output is byte-identical whether `PB_THREADS` is 1 or 64.

use piggyback_proxyd::obs::{HistogramSnapshot, LatencyHistogram};
use piggyback_trace::profiles;
use piggyback_trace::record::{ClientTrace, ServerLog};
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Process-global distribution of per-cell wall times, recorded by
/// [`sweep`] and read back (as before/after deltas) by [`run_timed`] so
/// `BENCH_pipeline.json` carries cell-latency percentiles alongside the
/// experiment wall clock. Monotone atomics, so a delta of two snapshots is
/// exact even if another sweep runs concurrently elsewhere in the process.
static CELL_TIMES: OnceLock<LatencyHistogram> = OnceLock::new();

fn cell_times() -> &'static LatencyHistogram {
    CELL_TIMES.get_or_init(LatencyHistogram::default)
}

/// `after - before`, bucketwise. Valid because histogram cells only grow.
/// `max` is a process-lifetime high-water mark, not differenced.
fn snapshot_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let mut delta = *after;
    for (d, b) in delta.buckets.iter_mut().zip(&before.buckets) {
        *d -= *b;
    }
    delta.sum -= before.sum;
    delta
}

/// Worker-thread count: `PB_THREADS` env var, defaulting to all cores.
///
/// `PB_THREADS=1` bypasses the pool entirely — sweeps run as a plain
/// sequential loop, so the serial baseline carries no pool overhead.
pub fn pb_threads() -> usize {
    std::env::var("PB_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Run every cell of `grid` through `f`, in parallel when `PB_THREADS > 1`,
/// returning results in grid order regardless of completion order.
pub fn sweep<I, O, F>(grid: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync + Send,
{
    let timed = |input: I| {
        let start = Instant::now();
        let out = f(input);
        cell_times().record(start.elapsed());
        out
    };
    let threads = pb_threads();
    if threads <= 1 || grid.len() <= 1 {
        return grid.into_iter().map(timed).collect();
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    pool.install(|| grid.into_par_iter().map(timed).collect())
}

/// A deterministic per-cell seed: stable across runs, thread counts, and
/// platforms; distinct across experiment tags and cell indices.
pub fn cell_seed(tag: &str, index: usize) -> u64 {
    // FNV-1a over the tag, then a splitmix64 finalizer over the index.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in tag.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut z = h ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------------
// Memoized synthetic log generation
// ---------------------------------------------------------------------------

type LogCache = Mutex<HashMap<String, Arc<ServerLog>>>;
type TraceCache = Mutex<HashMap<String, Arc<ClientTrace>>>;

static SERVER_LOGS: OnceLock<LogCache> = OnceLock::new();
static CLIENT_TRACES: OnceLock<TraceCache> = OnceLock::new();

/// A named profile's server log at benchmark scale, generated at most once
/// per process and shared behind an `Arc` across all sweep cells.
///
/// The cache key includes the effective `PB_SCALE`, so tests that vary the
/// scale within one process never see a stale log.
pub fn shared_server_log(name: &str) -> Arc<ServerLog> {
    let key = format!("{name}@{}", crate::scale_factor());
    let cache = SERVER_LOGS.get_or_init(Default::default);
    let mut cache = cache.lock().expect("log cache poisoned");
    Arc::clone(
        cache
            .entry(key)
            .or_insert_with(|| Arc::new(crate::load_server_log(name))),
    )
}

/// Client-trace analogue of [`shared_server_log`] (`att`, `digital`).
pub fn shared_client_trace(name: &str) -> Arc<ClientTrace> {
    let s = crate::scale_factor();
    let key = format!("{name}@{s}");
    let cache = CLIENT_TRACES.get_or_init(Default::default);
    let mut cache = cache.lock().expect("trace cache poisoned");
    Arc::clone(cache.entry(key).or_insert_with(|| {
        let profile = match name {
            "att" => profiles::att(crate::ATT_SCALE * s),
            "digital" => profiles::digital(crate::DIGITAL_SCALE * s),
            other => panic!("unknown client profile {other}"),
        };
        Arc::new(profile.generate())
    }))
}

// ---------------------------------------------------------------------------
// Pipeline accounting: wall clock, peak RSS, BENCH_pipeline.json
// ---------------------------------------------------------------------------

/// Run `f` as the timed body of experiment `id`, then merge a record with
/// the wall clock, thread count, and peak RSS into the bench file
/// (`BENCH_pipeline.json` in the working directory, or `PB_BENCH_PATH`).
///
/// When a serial (`threads == 1`) record for the same experiment exists,
/// the entry also carries `speedup_vs_serial`.
pub fn run_timed<T>(id: &str, f: impl FnOnce() -> T) -> T {
    run_timed_into(&bench_path(), id, f)
}

/// [`run_timed`] merging into the bench file at `path`.
pub fn run_timed_into<T>(path: &str, id: &str, f: impl FnOnce() -> T) -> T {
    let before = cell_times().snapshot();
    let start = Instant::now();
    let out = f();
    let wall_ms = start.elapsed().as_millis() as u64;
    let cells = snapshot_delta(&before, &cell_times().snapshot());
    let percentiles = (cells.count() > 0).then(|| {
        let (p50, p90, p99, max) = cells.percentiles();
        CellPercentiles {
            p50_us: p50,
            p90_us: p90,
            p99_us: p99,
            max_us: max,
        }
    });
    let entry = BenchEntry {
        id: id.to_string(),
        threads: pb_threads(),
        scales: Scales::current(),
        wall_ms,
        peak_rss_kb: peak_rss_kb(),
        cell_percentiles: percentiles,
    };
    if let Err(e) = merge_into_bench_file(path, &entry) {
        eprintln!("warning: could not update {path}: {e}");
    }
    out
}

/// Merge a pre-measured wall time for experiment `id` into the bench
/// file, for benches whose A/B cells interleave their timed passes (so no
/// single contiguous region is the cell and [`run_timed`] cannot wrap it).
pub fn record_cell(id: &str, wall: std::time::Duration) {
    let entry = BenchEntry {
        id: id.to_string(),
        threads: pb_threads(),
        scales: Scales::current(),
        wall_ms: wall.as_millis() as u64,
        peak_rss_kb: peak_rss_kb(),
        cell_percentiles: None,
    };
    if let Err(e) = merge_into_bench_file(&bench_path(), &entry) {
        eprintln!("warning: could not update {}: {e}", bench_path());
    }
}

/// [`record_cell`] with explicit latency percentiles, for benches that
/// measure per-request latency with their own [`LatencyHistogram`] (rather
/// than per-cell wall times via [`sweep`]). `percentiles` is the
/// `(p50, p90, p99, max)` microsecond tuple from
/// [`HistogramSnapshot::percentiles`].
pub fn record_cell_stats(id: &str, wall: std::time::Duration, percentiles: (u64, u64, u64, u64)) {
    let (p50_us, p90_us, p99_us, max_us) = percentiles;
    let entry = BenchEntry {
        id: id.to_string(),
        threads: pb_threads(),
        scales: Scales::current(),
        wall_ms: wall.as_millis() as u64,
        peak_rss_kb: peak_rss_kb(),
        cell_percentiles: Some(CellPercentiles {
            p50_us,
            p90_us,
            p99_us,
            max_us,
        }),
    };
    if let Err(e) = merge_into_bench_file(&bench_path(), &entry) {
        eprintln!("warning: could not update {}: {e}", bench_path());
    }
}

/// [`record_cell`] with an explicitly measured peak RSS — for benches
/// whose subject runs out-of-process (a child proxy's `VmHWM`), where
/// this process's own high-water mark would be the wrong number.
pub fn record_cell_rss(id: &str, wall: std::time::Duration, peak_rss_kb: u64) {
    let entry = BenchEntry {
        id: id.to_string(),
        threads: pb_threads(),
        scales: Scales::current(),
        wall_ms: wall.as_millis() as u64,
        peak_rss_kb: Some(peak_rss_kb),
        cell_percentiles: None,
    };
    if let Err(e) = merge_into_bench_file(&bench_path(), &entry) {
        eprintln!("warning: could not update {}: {e}", bench_path());
    }
}

/// Peak resident set size of this process in KiB, when the platform
/// exposes it (`VmHWM` in `/proc/self/status` on Linux).
pub fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                return rest
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<u64>()
                    .ok();
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

fn bench_path() -> String {
    std::env::var("PB_BENCH_PATH").unwrap_or_else(|_| "BENCH_pipeline.json".to_string())
}

/// Per-cell wall-time percentiles for one experiment run, in microseconds
/// (integers, so the line-oriented parser below stays trivial). Upper
/// bounds of log2 histogram buckets — see
/// [`HistogramSnapshot::quantile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellPercentiles {
    pub p50_us: u64,
    pub p90_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
}

/// The input scales a record was measured at: `PB_SCALE` (1 when unset,
/// [`crate::scale_factor`]) and `PB_NETEM_SCALE` (`None` when unset: the
/// binary's own default). A record without them in the file reads as the
/// defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scales {
    pub scale: f64,
    pub netem_scale: Option<f64>,
}

impl Default for Scales {
    fn default() -> Self {
        Scales {
            scale: 1.0,
            netem_scale: None,
        }
    }
}

impl Scales {
    /// The scales this process runs at.
    pub fn current() -> Self {
        Scales {
            scale: crate::scale_factor(),
            netem_scale: std::env::var("PB_NETEM_SCALE")
                .ok()
                .and_then(|s| s.parse().ok())
                .filter(|f: &f64| *f > 0.0),
        }
    }
}

/// One experiment record in the bench file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    pub id: String,
    pub threads: usize,
    pub scales: Scales,
    pub wall_ms: u64,
    pub peak_rss_kb: Option<u64>,
    /// Present when the run dispatched at least one [`sweep`] cell.
    pub cell_percentiles: Option<CellPercentiles>,
}

/// Merge `entry` into the bench file at `path`, replacing any previous
/// record with the same `(id, threads, scales)` key (so a smoke-scale run
/// never overwrites a default-scale cell) and recomputing speedups.
fn merge_into_bench_file(path: &str, entry: &BenchEntry) -> std::io::Result<()> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => parse_bench_file(&text),
        Err(_) => Vec::new(),
    };
    entries
        .retain(|e| !(e.id == entry.id && e.threads == entry.threads && e.scales == entry.scales));
    entries.push(entry.clone());
    entries.sort_by(|a, b| {
        let netem = |e: &BenchEntry| e.scales.netem_scale.unwrap_or(0.0);
        a.id.cmp(&b.id)
            .then(b.scales.scale.total_cmp(&a.scales.scale))
            .then(netem(b).total_cmp(&netem(a)))
            .then(a.threads.cmp(&b.threads))
    });
    std::fs::write(path, render_bench_file(&entries))
}

/// Serialize entries as stable, line-oriented JSON (one entry per line, so
/// the parser below stays trivial and diffs stay readable).
fn render_bench_file(entries: &[BenchEntry]) -> String {
    let serial: Vec<&BenchEntry> = entries.iter().filter(|e| e.threads == 1).collect();
    let mut out = String::from("{\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let netem = e
            .scales
            .netem_scale
            .map_or("null".into(), |f| f.to_string());
        let mut line = format!(
            "    {{\"id\": \"{}\", \"threads\": {}, \"scale\": {}, \"netem_scale\": {netem}, \
             \"wall_ms\": {}",
            e.id, e.threads, e.scales.scale, e.wall_ms
        );
        if let Some(rss) = e.peak_rss_kb {
            line.push_str(&format!(", \"peak_rss_kb\": {rss}"));
        }
        if let Some(p) = e.cell_percentiles {
            line.push_str(&format!(
                ", \"cell_p50_us\": {}, \"cell_p90_us\": {}, \"cell_p99_us\": {}, \
                 \"cell_max_us\": {}",
                p.p50_us, p.p90_us, p.p99_us, p.max_us
            ));
        }
        if e.threads > 1 {
            let base = serial.iter().find(|s| s.id == e.id && s.scales == e.scales);
            if let Some(base) = base {
                let speedup = base.wall_ms as f64 / (e.wall_ms.max(1)) as f64;
                line.push_str(&format!(", \"speedup_vs_serial\": {speedup:.2}"));
            }
        }
        line.push('}');
        if i + 1 < entries.len() {
            line.push(',');
        }
        line.push('\n');
        out.push_str(&line);
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parse a bench file previously written by [`render_bench_file`]. Derived
/// fields (speedups) are recomputed on render, so only the primary fields
/// are read back.
fn parse_bench_file(text: &str) -> Vec<BenchEntry> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with('{') || !line.contains("\"id\"") {
            continue;
        }
        let Some(id) = field_str(line, "id") else {
            continue;
        };
        let Some(threads) = field_u64(line, "threads") else {
            continue;
        };
        let Some(wall_ms) = field_u64(line, "wall_ms") else {
            continue;
        };
        let cell_percentiles = match (
            field_u64(line, "cell_p50_us"),
            field_u64(line, "cell_p90_us"),
            field_u64(line, "cell_p99_us"),
            field_u64(line, "cell_max_us"),
        ) {
            (Some(p50_us), Some(p90_us), Some(p99_us), Some(max_us)) => Some(CellPercentiles {
                p50_us,
                p90_us,
                p99_us,
                max_us,
            }),
            _ => None,
        };
        let defaults = Scales::default();
        out.push(BenchEntry {
            id,
            threads: threads as usize,
            scales: Scales {
                scale: field_f64(line, "scale").unwrap_or(defaults.scale),
                netem_scale: field_f64(line, "netem_scale").or(defaults.netem_scale),
            },
            wall_ms,
            peak_rss_kb: field_u64(line, "peak_rss_kb"),
            cell_percentiles,
        });
    }
    out
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// A number field; `None` when absent or `null`.
fn field_f64(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..]
        .find([',', '}'])
        .map_or(line.len(), |i| start + i);
    line[start..end].trim().parse().ok()
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test here that runs a [`sweep`], whose cell times
    /// land in the one process-global histogram.
    static SWEEP_CELLS: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn sweep_preserves_grid_order() {
        let _cells = SWEEP_CELLS.lock().unwrap_or_else(|e| e.into_inner());
        let grid: Vec<u64> = (0..100).collect();
        let out = sweep(grid.clone(), |x| x * 3);
        assert_eq!(out, grid.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        assert_eq!(cell_seed("fig3", 0), cell_seed("fig3", 0));
        assert_ne!(cell_seed("fig3", 0), cell_seed("fig3", 1));
        assert_ne!(cell_seed("fig3", 0), cell_seed("fig4", 0));
    }

    #[test]
    fn shared_log_is_generated_once() {
        let _env = crate::tests::PB_SCALE_ENV
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        std::env::set_var("PB_SCALE", "0.02");
        let a = shared_server_log("aiusa");
        let b = shared_server_log("aiusa");
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the cache");
        std::env::remove_var("PB_SCALE");
    }

    #[test]
    fn bench_file_roundtrip_and_speedup() {
        let dir = std::env::temp_dir().join("pb_bench_file_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        let serial = BenchEntry {
            id: "figX".into(),
            threads: 1,
            scales: Scales::default(),
            wall_ms: 900,
            peak_rss_kb: Some(4096),
            cell_percentiles: Some(CellPercentiles {
                p50_us: 1023,
                p90_us: 4095,
                p99_us: 8191,
                max_us: 7777,
            }),
        };
        let parallel = BenchEntry {
            id: "figX".into(),
            threads: 4,
            scales: Scales::default(),
            wall_ms: 300,
            peak_rss_kb: None,
            cell_percentiles: None,
        };
        merge_into_bench_file(path, &serial).unwrap();
        merge_into_bench_file(path, &parallel).unwrap();
        // Overwrite the parallel record: merge replaces, never duplicates.
        merge_into_bench_file(path, &parallel).unwrap();

        let text = std::fs::read_to_string(path).unwrap();
        let parsed = parse_bench_file(&text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], serial);
        assert_eq!(parsed[1], parallel);
        assert!(
            text.contains("\"speedup_vs_serial\": 3.00"),
            "missing speedup in: {text}"
        );
        assert!(
            text.contains("\"cell_p50_us\": 1023") && text.contains("\"cell_max_us\": 7777"),
            "missing percentiles in: {text}"
        );
        let _ = std::fs::remove_file(path);
    }

    /// A smoke-scale run of an experiment gets a record of its own: it
    /// leaves the default-scale record of the same id and threads as it
    /// was, and replaces only a record of its own scales. A record
    /// written without scales reads as the defaults.
    #[test]
    fn smoke_scale_record_leaves_the_default_scale_one_intact() {
        let dir = std::env::temp_dir().join("pb_bench_scales_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        let path = path.to_str().unwrap();
        std::fs::write(
            path,
            "{\n  \"entries\": [\n    {\"id\": \"ext_x\", \"threads\": 1, \"wall_ms\": 24754}\n  ]\n}\n",
        )
        .unwrap();
        let default = BenchEntry {
            id: "ext_x".into(),
            threads: 1,
            scales: Scales::default(),
            wall_ms: 24754,
            peak_rss_kb: None,
            cell_percentiles: None,
        };
        assert_eq!(
            parse_bench_file(&std::fs::read_to_string(path).unwrap()),
            std::slice::from_ref(&default)
        );
        let smoke = BenchEntry {
            scales: Scales {
                scale: 0.05,
                netem_scale: Some(0.1),
            },
            wall_ms: 2055,
            ..default.clone()
        };
        merge_into_bench_file(path, &smoke).unwrap();
        let smoke_again = BenchEntry {
            wall_ms: 2100,
            ..smoke.clone()
        };
        merge_into_bench_file(path, &smoke_again).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(parse_bench_file(&text), [default, smoke_again], "{text}");
        assert!(
            text.contains("\"scale\": 1, \"netem_scale\": null")
                && text.contains("\"scale\": 0.05, \"netem_scale\": 0.1"),
            "both scales recorded in each entry: {text}"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn run_timed_records_cell_percentiles() {
        let dir = std::env::temp_dir().join("pb_bench_percentile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_pipeline.json");
        let _ = std::fs::remove_file(&path);
        // Cell times are process-global: no other sweep may add its fast
        // cells to this probe's window.
        let _cells = SWEEP_CELLS.lock().unwrap_or_else(|e| e.into_inner());
        run_timed_into(path.to_str().unwrap(), "percentile_probe", || {
            sweep((0..8).collect::<Vec<u32>>(), |x| {
                std::thread::sleep(std::time::Duration::from_micros(200));
                x
            })
        });
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = parse_bench_file(&text);
        let entry = parsed
            .iter()
            .find(|e| e.id == "percentile_probe")
            .expect("entry written");
        let p = entry.cell_percentiles.expect("8 sweep cells were timed");
        assert!(p.p50_us >= 200, "slept 200us per cell: {p:?}");
        assert!(p.p50_us <= p.p90_us && p.p90_us <= p.p99_us);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_delta_subtracts_bucketwise() {
        let h = LatencyHistogram::default();
        h.record_value(100);
        let before = h.snapshot();
        h.record_value(100);
        h.record_value(5000);
        let delta = snapshot_delta(&before, &h.snapshot());
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum, 5100);
    }
}

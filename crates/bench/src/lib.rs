//! # piggyback-bench
//!
//! The experiment harness: one binary per table/figure of the paper (see
//! DESIGN.md §4) plus Criterion micro-benchmarks. This library holds the
//! shared plumbing — profile loading at benchmark scale, replay wrappers
//! for directory and probability volumes, and plain-text table/series
//! printing.
//!
//! All experiments are deterministic (fixed seeds). Scale is controlled by
//! the `PB_SCALE` environment variable (default 1.0 multiplies each
//! profile's built-in benchmark scale, chosen to keep every binary under
//! ~a minute on a laptop).

use piggyback_core::filter::ProxyFilter;
use piggyback_core::metrics::{replay, MetricsReport, ReplayConfig, RpvConfig};
use piggyback_core::table::ResourceTable;
use piggyback_core::types::DurationMs;
use piggyback_core::volume::{
    DirectoryVolumes, ProbabilityVolumes, ProbabilityVolumesBuilder, SamplingMode,
};
use piggyback_trace::profiles::{self, ServerProfile};
use piggyback_trace::ServerLog;

pub mod pipelined;
pub mod sweep;
pub use pipelined::{browser_get, PipelinedClient};
pub use sweep::{
    cell_seed, pb_threads, record_cell, record_cell_rss, record_cell_stats, run_timed,
    run_timed_into, shared_client_trace, shared_server_log, sweep,
};

/// Benchmark-scale factors per profile, tuned for ~50k-request logs.
pub const AIUSA_SCALE: f64 = 0.3;
pub const APACHE_SCALE: f64 = 0.02;
pub const SUN_SCALE: f64 = 0.004;
pub const MARIMBA_SCALE: f64 = 0.25;
pub const ATT_SCALE: f64 = 0.05;
pub const DIGITAL_SCALE: f64 = 0.01;

/// `PB_SCALE` multiplier (default 1.0).
pub fn scale_factor() -> f64 {
    std::env::var("PB_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Generate a named profile's log at benchmark scale.
pub fn load_server_log(name: &str) -> ServerLog {
    let s = scale_factor();
    let profile: ServerProfile = match name {
        "aiusa" => profiles::aiusa(AIUSA_SCALE * s),
        "apache" => profiles::apache(APACHE_SCALE * s),
        "sun" => profiles::sun(SUN_SCALE * s),
        "marimba" => profiles::marimba(MARIMBA_SCALE * s),
        other => panic!("unknown profile {other}"),
    };
    profile.generate()
}

/// The evaluation's standard windows: T = 300 s, C = 2 h.
pub fn standard_config() -> ReplayConfig {
    ReplayConfig::default()
}

/// Replay `log` against `level`-deep directory volumes under `filter`
/// (whole-trace access counts, per the paper's access filters).
pub fn directory_replay(
    log: &ServerLog,
    level: usize,
    filter: ProxyFilter,
    rpv_timeout: Option<DurationMs>,
    window: Option<DurationMs>,
) -> MetricsReport {
    let mut table = log.table.clone();
    for e in &log.entries {
        table.count_access(e.resource);
    }
    let mut vols = DirectoryVolumes::new(level);
    for (id, path, _) in table.iter() {
        use piggyback_core::volume::VolumeProvider;
        vols.assign(id, path);
    }
    let mut cfg = ReplayConfig {
        base_filter: filter,
        ..Default::default()
    };
    if let Some(w) = window {
        cfg.window = w;
    }
    if let Some(t) = rpv_timeout {
        cfg.rpv = Some(RpvConfig {
            max_len: 64,
            timeout: t,
        });
    }
    replay(log.requests(), &mut table, &mut vols, &cfg)
}

/// Build probability volumes from `log` (exact counters) at a low build
/// threshold so the result can be re-thresholded upward for sweeps.
pub fn build_probability_volumes(
    log: &ServerLog,
    build_threshold: f64,
) -> (ProbabilityVolumes, ProbabilityVolumesBuilder) {
    let mut builder = ProbabilityVolumesBuilder::new(
        DurationMs::from_secs(300),
        build_threshold,
        SamplingMode::Exact,
    );
    for (t, src, r) in log.triples() {
        builder.observe(src, r, t);
    }
    let vols = builder.build(build_threshold);
    (vols, builder)
}

/// Replay `log` against prebuilt probability volumes.
pub fn probability_replay(
    log: &ServerLog,
    vols: &ProbabilityVolumes,
    filter: ProxyFilter,
) -> MetricsReport {
    let mut table = log.table.clone();
    for e in &log.entries {
        table.count_access(e.resource);
    }
    let mut vols = vols.clone();
    let cfg = ReplayConfig {
        base_filter: filter,
        ..Default::default()
    };
    replay(log.requests(), &mut table, &mut vols, &cfg)
}

/// Thin `vols` by effective (new-true) probability using the same trace.
pub fn thin_volumes(
    log: &ServerLog,
    vols: &ProbabilityVolumes,
    eff_threshold: f64,
) -> ProbabilityVolumes {
    thin_volumes_by(
        log,
        vols,
        eff_threshold,
        piggyback_core::volume::ThinningCriterion::NewTrue,
    )
}

/// Thin `vols` under an explicit criterion.
pub fn thin_volumes_by(
    log: &ServerLog,
    vols: &ProbabilityVolumes,
    eff_threshold: f64,
    criterion: piggyback_core::volume::ThinningCriterion,
) -> ProbabilityVolumes {
    piggyback_core::volume::effective::thin_with_trace_by(
        vols,
        DurationMs::from_secs(300),
        log.triples(),
        eff_threshold,
        criterion,
    )
}

/// Clone a table for use with combined volumes.
pub fn table_of(log: &ServerLog) -> ResourceTable {
    log.table.clone()
}

// ---------------------------------------------------------------------------
// Plain-text reporting helpers
// ---------------------------------------------------------------------------

/// Print a banner naming the experiment and its paper artifact.
pub fn banner(id: &str, what: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}

/// Print an aligned table: `headers` then `rows` of equal arity.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged row");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:>w$}", c, w = widths[i]));
        }
        s
    };
    let headers_owned: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    println!("{}", line(&headers_owned));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1))
    );
    for row in rows {
        println!("{}", line(row));
    }
}

/// Format a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Format a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Quantiles of a sample (sorted internally). `qs` in `[0, 1]`.
pub fn quantiles(mut xs: Vec<f64>, qs: &[f64]) -> Vec<f64> {
    if xs.is_empty() {
        return qs.iter().map(|_| f64::NAN).collect();
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    qs.iter()
        .map(|&q| {
            let idx = ((xs.len() - 1) as f64 * q).round() as usize;
            xs[idx]
        })
        .collect()
}

/// Empirical CDF value: fraction of `xs` that is `<= x`.
pub fn cdf_at(xs: &[f64], x: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&v| v <= x).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `PB_SCALE` is process-global and tests run on parallel threads:
    /// every test that sets or clears it holds this lock, or one test's
    /// `remove_var` lands between another's two reads.
    pub(crate) static PB_SCALE_ENV: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn quantiles_and_cdf() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let q = quantiles(xs.clone(), &[0.0, 0.5, 1.0]);
        // Nearest-rank at q=0.5 over 100 points: index round(99*0.5)=50.
        assert_eq!(q, vec![1.0, 51.0, 100.0]);
        assert!((cdf_at(&xs, 50.0) - 0.5).abs() < 1e-9);
        assert_eq!(cdf_at(&xs, 0.0), 0.0);
        assert_eq!(cdf_at(&xs, 1000.0), 1.0);
        assert_eq!(cdf_at(&[], 1.0), 0.0);
        assert!(quantiles(vec![], &[0.5])[0].is_nan());
    }

    #[test]
    fn directory_replay_on_tiny_profile() {
        let _env = PB_SCALE_ENV.lock().unwrap_or_else(|e| e.into_inner());
        std::env::remove_var("PB_SCALE");
        let log = {
            let p = profiles::aiusa(0.01);
            p.generate()
        };
        let report = directory_replay(&log, 1, ProxyFilter::default(), None, None);
        assert_eq!(report.requests, log.entries.len() as u64);
        assert!(report.fraction_predicted() > 0.0, "some locality expected");
    }

    #[test]
    fn probability_pipeline_on_tiny_profile() {
        let log = profiles::aiusa(0.01).generate();
        let (vols, builder) = build_probability_volumes(&log, 0.05);
        assert!(builder.counter_count() > 0);
        assert!(vols.implication_count() > 0);
        let report = probability_replay(&log, &vols, ProxyFilter::default());
        assert!(report.piggyback_messages > 0);
        let thinned = thin_volumes(&log, &vols, 0.2);
        assert!(thinned.implication_count() <= vols.implication_count());
    }

    #[test]
    fn table_printer_handles_alignment() {
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(f2(1.234), "1.23");
    }
}

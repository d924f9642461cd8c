//! The metric names of `BENCHMARK.json`, in one place. A unit test holds
//! this list and that file together.

use crate::chain::Engine;

/// Which way is better; `BENCHMARK.json` spells it `lower` / `higher`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

use Better::{Higher, Lower};

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The ten end-to-end metrics; the same set on every workload. Every
/// bound is the contract's ceiling: on the development host the spread of
/// ten runs of the same code reaches 3–17 % (`results/`),
/// and a bound has to clear its own noise before it can catch a change.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("req_per_s.threaded", "1/s", Higher, 0.25),
    e2e("req_per_s.reactor", "1/s", Higher, 0.25),
    e2e("cpu_us_per_req.threaded", "us", Lower, 0.25),
    e2e("cpu_us_per_req.reactor", "us", Lower, 0.25),
    e2e("lat_p50_ms.threaded", "ms", Lower, 0.25),
    e2e("lat_p50_ms.reactor", "ms", Lower, 0.25),
    e2e("ttfb_p50_ms.threaded", "ms", Lower, 0.25),
    e2e("ttfb_p50_ms.reactor", "ms", Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

pub fn end_to_end_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|m| m.name).collect()
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Engine-specific layer metrics, under `proxyd.proxy.` (the threaded
/// driver) and `proxyd.reactor.` alike.
pub const PER_ENGINE: [PerLayer; 10] = [
    layer("hit_self_p50_us", "us", Lower),
    layer("hit_cpu_us_per_req", "us", Lower),
    layer("allocs_per_hit", "count", Lower),
    layer("rw_syscalls_per_req", "count", Lower),
    layer("ctx_switches_per_req", "count", Lower),
    layer("miss_self_p50_us", "us", Lower),
    layer("miss_self_cpu_us_per_req", "us", Lower),
    layer("allocs_per_miss", "count", Lower),
    layer("upstream_retries_per_kreq", "count", Lower),
    layer("upstream_errors", "count", Lower),
];

/// Layer metrics that have one value per run (read in the threaded child
/// unless the name says `reactor`).
pub const PER_LAYER: [PerLayer; 65] = [
    layer("httpwire.request_read_ns", "ns", Lower),
    layer("httpwire.response_write_ns", "ns", Lower),
    layer("httpwire.request_read_allocs", "count", Lower),
    layer("httpwire.response_write_allocs", "count", Lower),
    layer("httpwire.request_write_ns", "ns", Lower),
    layer("httpwire.response_read_ns", "ns", Lower),
    layer("httpwire.chunked_read_ns_per_kib", "ns", Lower),
    layer("httpwire.chunked_write_ns_per_kib", "ns", Lower),
    layer("httpwire.stream_relay_ns_per_kib", "ns", Lower),
    layer("core.filter_encode_ns", "ns", Lower),
    layer("core.filter_parse_ns", "ns", Lower),
    layer("core.pvolume_encode_ns", "ns", Lower),
    layer("core.pvolume_decode_ns", "ns", Lower),
    layer("core.server_piggyback_ns", "ns", Lower),
    layer("core.classify_element_ns", "ns", Lower),
    layer("core.rpv_record_ns", "ns", Lower),
    layer("core.piggy_cache_hit_ratio", "ratio", Higher),
    layer("core.piggyback_elements_per_msg", "count", Higher),
    layer("core.piggyback_bytes_per_msg", "bytes", Lower),
    layer("webcache.lookup_ns", "ns", Lower),
    layer("webcache.body_get_ns", "ns", Lower),
    layer("webcache.hit_ratio", "ratio", Higher),
    layer("webcache.insert_evict_ns", "ns", Lower),
    layer("webcache.body_insert_ns", "ns", Lower),
    layer("webcache.freshen_ns", "ns", Lower),
    layer("webcache.evictions_per_kreq", "count", Lower),
    layer("webcache.prefix_get_ns", "ns", Lower),
    layer("webcache.prefix_hit_ratio", "ratio", Higher),
    layer("proxyd.origin.direct_p50_us", "us", Lower),
    layer("proxyd.origin.cpu_us_per_req", "us", Lower),
    layer("proxyd.origin.piggybacks_sent_ratio", "ratio", Higher),
    layer("proxyd.origin.bytes_sent_per_req", "bytes", Lower),
    layer("proxyd.volume_center.self_p50_us", "us", Lower),
    layer("proxyd.volume_center.self_cpu_us_per_req", "us", Lower),
    layer("proxyd.netem.delay_ms_per_exchange", "ms", Lower),
    layer("proxyd.netem.exchanges_per_req", "ratio", Lower),
    layer("proxyd.netem.failures", "count", Lower),
    layer("proxyd.reactor.wakeups_per_req", "count", Lower),
    layer("proxyd.reactor.upstream_reuse_ratio", "ratio", Higher),
    layer("proxyd.reactor.affine_hit_ratio", "ratio", Higher),
    layer("proxyd.reactor.offloads", "count", Lower),
    layer("proxyd.reactor.relay_paused_per_kreq", "count", Lower),
    layer("proxyd.client.pool_reuse_ratio", "ratio", Higher),
    layer("proxyd.client.pool_dials", "count", Lower),
    layer("proxyd.prefetch.issued_per_kreq", "count", Higher),
    layer("proxyd.prefetch.used_ratio", "ratio", Higher),
    layer("proxyd.prefetch.wasted_bytes_ratio", "ratio", Lower),
    layer("proxyd.prefetch.cancelled_per_kreq", "count", Lower),
    layer("proxyd.prefetch.inflight_at_end", "count", Lower),
    layer("proxyd.stats.fresh_hit_ratio", "ratio", Higher),
    layer("proxyd.stats.validation_ratio", "ratio", Lower),
    layer("proxyd.stats.full_fetch_ratio", "ratio", Lower),
    layer("proxyd.stats.streamed_miss_ratio", "ratio", Lower),
    layer("proxyd.stats.origin_bytes_per_req", "bytes", Lower),
    layer("proxyd.stats.piggyback_freshens_per_kreq", "count", Higher),
    layer(
        "proxyd.stats.piggyback_invalidations_per_kreq",
        "count",
        Higher,
    ),
    layer("proxyd.obs.scrape_ms", "ms", Lower),
    layer("proxyd.obs.histogram_record_ns", "ns", Lower),
    layer("trace.site_generate_ms", "ms", Lower),
    layer("trace.requests_generate_ms", "ms", Lower),
    layer("loadgen.sched_lag_p99_ms", "ms", Lower),
    layer("loadgen.lat_p99_ms", "ms", Lower),
    layer("loadgen.cpu_us_per_req", "us", Lower),
    layer("loadgen.trace_overhead_pct", "%", Lower),
    layer("loadgen.host_spin_drift_pct", "%", Lower),
];

/// Every per-layer metric name, engine-specific ones expanded: 85.
pub fn per_layer_all() -> Vec<(String, &'static str, Better)> {
    let mut all = Vec::new();
    for engine in Engine::BOTH {
        for m in &PER_ENGINE {
            all.push((format!("{}.{}", engine.layer(), m.name), m.unit, m.better));
        }
    }
    for m in &PER_LAYER {
        all.push((m.name.to_owned(), m.unit, m.better));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = end_to_end_names().iter().map(|s| s.to_string()).collect();
        let layers = per_layer_all();
        assert_eq!(layers.len(), 85);
        names.extend(layers.iter().map(|l| l.0.clone()));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it honest.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(text.contains(&entry), "end_to_end entry missing: {entry}");
        }
        for (name, unit, better) in per_layer_all() {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            );
            assert!(text.contains(&entry), "per_layer entry missing: {entry}");
        }
        assert_eq!(
            text.matches("\"name\": ").count(),
            10 + 85 + 4,
            "no extra entries"
        );
        for kind in crate::workload::Kind::ALL {
            assert!(text.contains(&format!("{{\"name\": \"{}\", \"why\": ", kind.name())));
        }
        assert!(text.contains(&format!(
            "\"run_seconds\": {}",
            crate::workload::NOMINAL_SECONDS as u64
        )));
    }
}

//! # piggyback-proxyd
//!
//! Runnable network components for the SIGCOMM '98 server-volumes
//! reproduction, built on `std::net` TCP. Each daemon is written once as
//! a [`service::Service`] and polled by a bounded blocking worker pool or
//! (`--io reactor`, Linux) the epoll [`reactor`]:
//!
//! * [`origin`] — a piggybacking origin server serving a synthetic site
//!   with If-Modified-Since validation and `P-volume` chunked trailers;
//! * [`proxy`] — a caching proxy sending `Piggy-filter` headers upstream
//!   and applying piggybacks to its cache ([`lifecycle`] holds what both
//!   of its I/O engines do with an upstream response);
//! * [`volume_center`] — the paper's transparent volume center: an on-path
//!   relay that learns volumes from observed traffic and piggybacks on
//!   behalf of an oblivious origin;
//! * [`client`] — a workload-driver HTTP client;
//! * [`record_tap`] / [`replay_origin`] — the record/replay harness: the
//!   volume center's relay, recording versioned traffic inventories, and
//!   a deterministic origin re-serving them byte-identically;
//! * [`netem`] — the seeded adverse-network conditioner (dialup/DSL/LAN
//!   profiles per the paper's §5) shimmed into the volume-center relay.
//!
//! [`obs`] carries the shared observability layer: allocation-free log2
//! latency histograms and the Prometheus text rendering behind each
//! daemon's `GET /__pb/metrics` admin endpoint.
//!
//! Each component starts on an ephemeral loopback port and returns a
//! handle exposing its address and live statistics, so end-to-end
//! deployments compose in-process (see the `quickstart` example).

pub mod client;
pub mod lifecycle;
pub mod netem;
pub mod obs;
pub mod origin;
pub mod prefetch;
pub mod proxy;
#[cfg(target_os = "linux")]
pub mod reactor;
pub mod record_tap;
pub mod replay_origin;
pub mod service;
pub mod stats;
pub mod util;
pub mod volume_center;

pub use client::{run_sequence, ClientReport, ConnectionPool, HttpClient, PoolStats, PooledConn};
pub use netem::{Conditioner, ExchangePlan, NetProfile, ShimConfig, ShimStats};
pub use obs::{DaemonObs, HistogramSnapshot, LatencyHistogram, ProxyObs};
pub use origin::{start_origin, OnlineEpochConfig, OriginConfig, OriginHandle, VolumeScheme};
pub use proxy::{start_proxy, ProxyConfig, ProxyHandle, ProxyStats, METRICS_PATH};
#[cfg(target_os = "linux")]
pub use reactor::{resolve_reactors, serve_reactor, ReactorMetrics, ReactorOptions};
pub use record_tap::{start_recorder, RecorderConfig, RecorderHandle};
pub use replay_origin::{
    start_replay_origin, ReplayConfig, ReplayHandle, ReplayStats, ReplayTiming, DIVERGENCE_HEADER,
};
pub use service::{serve_blocking, Served, Service};
pub use stats::{
    AtomicDaemonStats, AtomicProxyStats, DaemonStats, ReactorShardCounts, ReactorShardStats,
};
pub use util::{
    nofile_limits, raise_nofile_limit, serve_with, serve_with_stats, set_nofile_soft,
    source_from_addr, synth_body, Clock, IoMode, IoStats, ServeOptions, ServerHandle,
};
pub use volume_center::{start_volume_center, VolumeCenterConfig, VolumeCenterHandle};

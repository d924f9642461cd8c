//! # piggyback-core
//!
//! The primary contribution of *"Improving End-to-End Performance of the
//! Web Using Server Volumes and Proxy Filters"* (Cohen, Krishnamurthy,
//! Rexford — SIGCOMM 1998): server **volumes**, proxy **filters**, and
//! **piggyback** generation, plus the trace-replay metrics engine used in
//! the paper's evaluation.
//!
//! ## Architecture
//!
//! * [`types`] / [`intern`] / [`table`] — identifiers, timestamps, URL-path
//!   interning, and the server's resource table.
//! * [`element`] — piggyback messages and the Section 2.3 wire-cost model.
//! * [`filter`] — the `Piggy-filter` request header: enable bit, `maxpiggy`,
//!   RPV list, access/probability/size/content-type thresholds.
//! * [`rpv`] — the proxy's transient pacing state: recently piggybacked
//!   volume lists.
//! * [`volume`] — volume construction: [`volume::DirectoryVolumes`]
//!   (Section 3.2) and [`volume::ProbabilityVolumes`] with sampling,
//!   effectiveness thinning, and combined (same-prefix) restriction
//!   (Section 3.3).
//! * [`server`] / [`proxy`] — the two protocol endpoints of Section 2.1.
//! * [`wire`] — the `P-volume` trailer header encoding.
//! * [`metrics`] — the replay engine computing fraction predicted, true
//!   prediction fraction, update fraction, and piggyback sizes.
//!
//! ## Example
//!
//! ```
//! use piggyback_core::prelude::*;
//!
//! let mut server = PiggybackServer::new(DirectoryVolumes::new(1));
//! let page = server.register_path("/news/index.html", 4096, Timestamp::from_secs(0));
//! let logo = server.register_path("/news/logo.gif", 1024, Timestamp::from_secs(0));
//!
//! server.record_access(logo, SourceId(9), Timestamp::from_secs(100));
//! let filter = ProxyFilter::builder().max_piggy(10).build();
//! let msg = server
//!     .handle_request(page, SourceId(9), &filter, Timestamp::from_secs(101))
//!     .expect("logo is piggybacked on the page response");
//! assert_eq!(msg.elements[0].resource, logo);
//! ```

pub mod datetime;
pub mod element;
pub mod fasthash;
pub mod filter;
pub mod intern;
pub mod metrics;
pub mod proxy;
pub mod report;
pub mod rpv;
pub mod server;
pub mod snapshot;
pub mod striped;
pub mod table;
pub mod types;
pub mod volume;
pub mod wire;

/// Convenient re-exports of the most used items.
pub mod prelude {
    pub use crate::element::{PiggybackElement, PiggybackMessage, WireCost};
    pub use crate::filter::{ProxyFilter, ProxyFilterBuilder, PIGGY_FILTER_HEADER};
    pub use crate::intern::{directory_prefix, PathInterner};
    pub use crate::metrics::{
        precount_accesses, replay, MetricsReport, ReplayConfig, Request, RpvConfig,
    };
    pub use crate::proxy::{classify_element, ElementAction};
    pub use crate::report::{
        absorb_report, parse_report, HitReporter, ReportEntry, PIGGY_REPORT_HEADER,
    };
    pub use crate::rpv::{RpvList, RpvTable};
    pub use crate::server::{AtomicServerStats, PiggybackServer, ServerStats};
    pub use crate::snapshot::{
        AccessState, FrozenVolumes, OriginSnapshot, SnapshotCell, StaticDirectoryVolumes,
    };
    pub use crate::striped::StripedHistories;
    pub use crate::table::ResourceTable;
    pub use crate::types::{
        ContentType, ContentTypeSet, DurationMs, ResourceId, ResourceMeta, ServerId, SourceId,
        Timestamp, VolumeId,
    };
    pub use crate::volume::{
        DirectoryVolumes, ProbabilityVolumes, ProbabilityVolumesBuilder, SamplingMode,
        ThinningCriterion, VolumeProvider, WithPopularityFallback, POPULARITY_VOLUME,
    };
    pub use crate::wire::{
        decode_p_volume, encode_p_volume, encode_p_volume_into, intern_wire_piggyback, WireElement,
        WirePiggyback, P_VOLUME_HEADER,
    };
}

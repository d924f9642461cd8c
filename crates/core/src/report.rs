//! Proxy→server access reporting (paper Section 5, future work: "we are
//! studying ways for the proxy to piggyback information to the server
//! about accesses that are satisfied at the cache").
//!
//! A server only sees cache misses and validations, so its access counts
//! and pairwise statistics under-represent popular cached resources. The
//! proxy can piggyback a compact report of cache-served accesses onto its
//! next request via the `Piggy-report` header:
//!
//! ```text
//! Piggy-report: "/a/b.html" 3, "/icons/logo.gif" 12
//! ```
//!
//! i.e. `quoted-path SP hit-count` clauses. The server folds the counts
//! into its resource table (access filters) and, for recency-based
//! volumes, treats reported resources as just-accessed.

use crate::table::ResourceTable;
use crate::types::{SourceId, Timestamp};
use crate::volume::VolumeProvider;
use std::collections::HashMap;
use std::fmt;

/// Name of the request header carrying the report.
pub const PIGGY_REPORT_HEADER: &str = "Piggy-report";

/// Bound on clauses per report: a proxy with a hot cache must not blow up
/// request headers.
pub const MAX_REPORT_ENTRIES: usize = 64;

/// A proxy-side accumulator of cache-served accesses, drained into a
/// `Piggy-report` header on the next upstream request to that server.
#[derive(Debug, Default, Clone)]
pub struct HitReporter {
    counts: HashMap<String, u64>,
}

impl HitReporter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a cache hit served for `path`. Repeat hits on a pending
    /// path (the steady state between drains) only bump the counter — the
    /// path is owned once, on first sight.
    pub fn record_hit(&mut self, path: &str) {
        self.record_hits(path, 1);
    }

    /// Record `n` cache hits served for `path` at once.
    pub fn record_hits(&mut self, path: &str, n: u64) {
        if let Some(count) = self.counts.get_mut(path) {
            *count += n;
        } else {
            self.counts.insert(path.to_owned(), n);
        }
    }

    /// Number of distinct paths pending.
    pub fn pending(&self) -> usize {
        self.counts.len()
    }

    /// Drain up to [`MAX_REPORT_ENTRIES`] of the highest-count entries into
    /// a header value; `None` when nothing is pending. Remaining entries
    /// stay queued for the next request.
    pub fn drain_header(&mut self) -> Option<String> {
        if self.counts.is_empty() {
            return None;
        }
        let mut entries: Vec<(String, u64)> = self.counts.drain().collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let rest = entries.split_off(entries.len().min(MAX_REPORT_ENTRIES));
        for (p, c) in rest {
            self.counts.insert(p, c);
        }
        let mut out = String::new();
        for (i, (path, count)) in entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push('"');
            out.push_str(path);
            out.push_str("\" ");
            out.push_str(&count.to_string());
        }
        Some(out)
    }
}

/// One decoded report clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportEntry {
    pub path: String,
    pub hits: u64,
}

/// Error decoding a `Piggy-report` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportParseError(pub String);

impl fmt::Display for ReportParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad Piggy-report clause: {:?}", self.0)
    }
}

impl std::error::Error for ReportParseError {}

/// Parse a `Piggy-report` header value.
pub fn parse_report(value: &str) -> Result<Vec<ReportEntry>, ReportParseError> {
    let mut entries = Vec::new();
    let value = value.trim();
    if value.is_empty() {
        return Ok(entries);
    }
    for clause in value.split(',') {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let bad = || ReportParseError(clause.to_owned());
        if !clause.starts_with('"') {
            return Err(bad());
        }
        let close = clause[1..].find('"').ok_or_else(bad)? + 1;
        let path = clause[1..close].to_owned();
        let hits: u64 = clause[close + 1..].trim().parse().map_err(|_| bad())?;
        if entries.len() >= MAX_REPORT_ENTRIES {
            return Err(ReportParseError("too many clauses".into()));
        }
        entries.push(ReportEntry { path, hits });
    }
    Ok(entries)
}

/// Server-side absorption: fold reported hits into access counts and
/// inform the volume provider (reported resources count as accessed by
/// the reporting source `now`, for recency-based schemes).
///
/// Unknown paths are ignored (a report can only describe resources the
/// server once served). Returns the number of absorbed entries.
pub fn absorb_report<V: VolumeProvider>(
    entries: &[ReportEntry],
    source: SourceId,
    now: Timestamp,
    table: &mut ResourceTable,
    volumes: &mut V,
) -> usize {
    let mut absorbed = 0;
    for e in entries {
        let Some(id) = table.lookup(&e.path) else {
            continue;
        };
        for _ in 0..e.hits.min(1_000) {
            table.count_access(id);
        }
        volumes.record_access(id, source, now, table);
        absorbed += 1;
    }
    absorbed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::DirectoryVolumes;

    #[test]
    fn reporter_drains_highest_counts_first() {
        let mut rep = HitReporter::new();
        for _ in 0..3 {
            rep.record_hit("/hot.html");
        }
        rep.record_hit("/cold.html");
        assert_eq!(rep.pending(), 2);
        let header = rep.drain_header().unwrap();
        assert_eq!(header, "\"/hot.html\" 3, \"/cold.html\" 1");
        assert_eq!(rep.pending(), 0);
        assert_eq!(rep.drain_header(), None);
    }

    #[test]
    fn reporter_respects_entry_cap() {
        let mut rep = HitReporter::new();
        for i in 0..(MAX_REPORT_ENTRIES + 10) {
            rep.record_hit(&format!("/r{i}.html"));
        }
        let header = rep.drain_header().unwrap();
        let parsed = parse_report(&header).unwrap();
        assert_eq!(parsed.len(), MAX_REPORT_ENTRIES);
        assert_eq!(rep.pending(), 10, "overflow stays queued");
    }

    #[test]
    fn report_round_trip() {
        let mut rep = HitReporter::new();
        rep.record_hit("/a/b.html");
        rep.record_hit("/a/b.html");
        rep.record_hit("/x.gif");
        let header = rep.drain_header().unwrap();
        let entries = parse_report(&header).unwrap();
        assert_eq!(
            entries,
            vec![
                ReportEntry {
                    path: "/a/b.html".into(),
                    hits: 2
                },
                ReportEntry {
                    path: "/x.gif".into(),
                    hits: 1
                },
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(parse_report("/a 1").is_err(), "unquoted path");
        assert!(parse_report("\"/a\" x").is_err(), "non-numeric count");
        assert!(parse_report("\"/a").is_err(), "unterminated quote");
        assert_eq!(parse_report("").unwrap(), vec![]);
        assert_eq!(parse_report("  ").unwrap(), vec![]);
    }

    #[test]
    fn absorb_updates_counts_and_volumes() {
        let mut table = ResourceTable::new();
        let mut vols = DirectoryVolumes::new(1);
        let a = table.register_path("/d/a.html", 100, Timestamp::ZERO);
        let b = table.register_path("/d/b.html", 100, Timestamp::ZERO);
        vols.assign(a, "/d/a.html");
        vols.assign(b, "/d/b.html");

        let entries = parse_report("\"/d/a.html\" 5, \"/unknown\" 2").unwrap();
        let absorbed = absorb_report(
            &entries,
            SourceId(9),
            Timestamp::from_secs(10),
            &mut table,
            &mut vols,
        );
        assert_eq!(absorbed, 1, "unknown path ignored");
        assert_eq!(table.meta(a).unwrap().access_count, 5);

        // The reported resource is now in its volume's FIFO: a request for
        // b piggybacks a even though the server never saw a directly.
        let msg = vols
            .piggyback(
                b,
                &crate::filter::ProxyFilter::default(),
                Timestamp::from_secs(11),
                &table,
            )
            .expect("piggyback from reported access");
        assert_eq!(msg.elements[0].resource, a);
    }

    #[test]
    fn absorb_caps_pathological_counts() {
        let mut table = ResourceTable::new();
        let mut vols = DirectoryVolumes::new(0);
        let a = table.register_path("/a", 1, Timestamp::ZERO);
        vols.assign(a, "/a");
        let entries = vec![ReportEntry {
            path: "/a".into(),
            hits: u64::MAX,
        }];
        absorb_report(
            &entries,
            SourceId(1),
            Timestamp::ZERO,
            &mut table,
            &mut vols,
        );
        assert_eq!(table.meta(a).unwrap().access_count, 1_000);
    }
}

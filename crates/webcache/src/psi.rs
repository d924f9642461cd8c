//! Piggyback Server Invalidation (PSI) — the comparator mechanism of the
//! paper's reference [20] (Krishnamurthy & Wills, WWW7 1998).
//!
//! Where volumes piggyback *related resources* of the requested one, PSI
//! piggybacks the list of resources **modified since the proxy's last
//! contact**. The server keeps a global modification log (no per-proxy
//! state); the proxy remembers its own last-contact time per server and
//! sends it with each request. The paper's volume mechanism generalizes
//! PSI ("the server can improve cache coherency by sending a list of
//! resources that have been modified [19, 20]"), so this module exists as
//! the baseline volumes are measured against in `ext_psi`.

use crate::adaptive::FreshnessPolicy;
use crate::cache::{Cache, CacheEntry};
use crate::policy::PolicyKind;
use piggyback_core::types::{DurationMs, ResourceId, Timestamp};
use piggyback_trace::synth::changes::ChangeEvent;
use piggyback_trace::ServerLog;

/// The server's modification log: appended on every resource change,
/// queried by "everything after t".
#[derive(Debug, Default)]
pub struct ModificationLog {
    events: Vec<(Timestamp, ResourceId)>,
}

impl ModificationLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a modification (times must be non-decreasing).
    pub fn record(&mut self, time: Timestamp, resource: ResourceId) {
        debug_assert!(
            self.events.last().is_none_or(|&(t, _)| t <= time),
            "modification log must be appended in time order"
        );
        self.events.push((time, resource));
    }

    /// Resources modified strictly after `since`, up to `cap` (the most
    /// recent are preferred when truncating, as the paper's PSI does).
    pub fn modified_since(&self, since: Timestamp, cap: usize) -> Vec<(Timestamp, ResourceId)> {
        let start = self.events.partition_point(|&(t, _)| t <= since);
        let slice = &self.events[start..];
        if slice.len() <= cap {
            slice.to_vec()
        } else {
            slice[slice.len() - cap..].to_vec()
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// PSI simulation configuration.
#[derive(Debug, Clone)]
pub struct PsiConfig {
    pub capacity_bytes: u64,
    pub freshness: FreshnessPolicy,
    /// Maximum invalidations piggybacked per response.
    pub max_piggy: usize,
    /// PSI on/off (off = plain TTL proxy, for baselining).
    pub enabled: bool,
}

impl Default for PsiConfig {
    fn default() -> Self {
        PsiConfig {
            capacity_bytes: 64 * 1024 * 1024,
            freshness: FreshnessPolicy::Fixed(DurationMs::from_secs(3600)),
            max_piggy: 10,
            enabled: true,
        }
    }
}

/// Counters from a PSI run (aligned with
/// [`ProxySimReport`](crate::sim::ProxySimReport) where meaningful).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PsiReport {
    pub client_requests: u64,
    pub cache_hits: u64,
    pub fresh_hits: u64,
    pub stale_served: u64,
    pub validations: u64,
    pub not_modified: u64,
    pub full_fetches: u64,
    pub piggyback_messages: u64,
    pub piggybacked_elements: u64,
    pub psi_invalidations: u64,
}

impl PsiReport {
    pub fn stale_rate(&self) -> f64 {
        if self.fresh_hits == 0 {
            0.0
        } else {
            self.stale_served as f64 / self.fresh_hits as f64
        }
    }

    pub fn avg_piggyback_size(&self) -> f64 {
        if self.piggyback_messages == 0 {
            0.0
        } else {
            self.piggybacked_elements as f64 / self.piggyback_messages as f64
        }
    }
}

/// Run the PSI coherency simulation: one proxy, one origin, the origin
/// piggybacks its modification log since the proxy's last contact.
pub fn simulate_psi(log: &ServerLog, changes: &[ChangeEvent], cfg: &PsiConfig) -> PsiReport {
    let mut report = PsiReport::default();
    let mut cache = Cache::new(cfg.capacity_bytes, PolicyKind::Lru.build());
    let mut modlog = ModificationLog::new();
    // Current Last-Modified per resource (the origin's file system).
    let mut server_lm: std::collections::HashMap<ResourceId, Timestamp> = Default::default();
    let mut last_contact: Option<Timestamp> = None;

    let mut change_idx = 0usize;
    for entry in &log.entries {
        let now = entry.time;
        while change_idx < changes.len() && changes[change_idx].time <= now {
            let ev = changes[change_idx];
            modlog.record(ev.time, ev.resource);
            server_lm.insert(ev.resource, ev.time);
            change_idx += 1;
        }

        let r = entry.resource;
        report.client_requests += 1;
        let origin_lm = server_lm.get(&r).copied().unwrap_or(Timestamp::ZERO);
        let delta = match cfg.freshness {
            FreshnessPolicy::Fixed(d) => d,
            FreshnessPolicy::Adaptive { default, .. } => default,
        };

        if let Some(snap) = cache.lookup(r, now) {
            report.cache_hits += 1;
            if snap.is_fresh(now) {
                report.fresh_hits += 1;
                if origin_lm > snap.last_modified {
                    report.stale_served += 1;
                }
                continue;
            }
            // Validation contact.
            report.validations += 1;
            if origin_lm > snap.last_modified {
                report.full_fetches += 1;
            } else {
                report.not_modified += 1;
            }
        } else {
            report.full_fetches += 1;
        }

        // Server contact: install/freshen the entry and absorb the PSI
        // piggyback.
        let size = log.table.meta(r).map_or(0, |m| m.size);
        cache.insert(
            r,
            CacheEntry::fetched(size, origin_lm, now, delta, false),
            now,
        );
        if cfg.enabled {
            let since = last_contact.unwrap_or(Timestamp::ZERO);
            let mods = modlog.modified_since(since, cfg.max_piggy);
            if !mods.is_empty() {
                report.piggyback_messages += 1;
                report.piggybacked_elements += mods.len() as u64;
                for (_, modified) in mods {
                    if modified != r && cache.remove(modified) {
                        report.psi_invalidations += 1;
                    }
                }
            }
        }
        last_contact = Some(now);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_core::types::SourceId;
    use piggyback_trace::record::{Method, ServerLogEntry};

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn tiny_log(reqs: &[(u64, &str)]) -> ServerLog {
        let mut log = ServerLog {
            name: "psi".into(),
            ..Default::default()
        };
        for p in ["/a.html", "/b.html"] {
            log.table.register_path(p, 1_000, Timestamp::ZERO);
        }
        for &(t, path) in reqs {
            let r = log.table.lookup(path).unwrap();
            log.entries.push(ServerLogEntry {
                time: ts(t),
                client: SourceId(1),
                resource: r,
                method: Method::Get,
                status: 200,
                bytes: 1_000,
            });
        }
        log
    }

    #[test]
    fn modification_log_windows() {
        let mut m = ModificationLog::new();
        for i in 1..=5u64 {
            m.record(ts(i * 10), ResourceId(i as u32));
        }
        assert_eq!(m.len(), 5);
        assert_eq!(m.modified_since(ts(0), 10).len(), 5);
        assert_eq!(m.modified_since(ts(30), 10).len(), 2);
        assert_eq!(m.modified_since(ts(50), 10).len(), 0);
        // Truncation keeps the most recent.
        let capped = m.modified_since(ts(0), 2);
        assert_eq!(capped.len(), 2);
        assert_eq!(capped[0].1, ResourceId(4));
        assert_eq!(capped[1].1, ResourceId(5));
    }

    #[test]
    fn psi_invalidates_stale_copies() {
        // a and b cached; a modified; next contact (for b, expired via
        // tiny Δ? no: b's re-request within Δ is a fresh hit)... force a
        // contact by requesting b after expiry.
        let log = tiny_log(&[
            (0, "/a.html"),
            (1, "/b.html"),
            (4000, "/b.html"),
            (4010, "/a.html"),
        ]);
        let a = log.table.lookup("/a.html").unwrap();
        let changes = vec![ChangeEvent {
            time: ts(100),
            resource: a,
        }];
        let report = simulate_psi(&log, &changes, &PsiConfig::default());
        // b@4000 expired -> validation contact -> PSI piggybacks a's
        // modification -> a invalidated -> a@4010 is a full fetch, never
        // served stale.
        assert!(report.psi_invalidations >= 1, "{report:?}");
        assert_eq!(report.stale_served, 0);

        // Without PSI, a@4010's copy expired anyway (Δ=1h, 4010 > 3600)...
        // shrink the window: request a at 500 instead.
        let log = tiny_log(&[
            (0, "/a.html"),
            (1, "/b.html"),
            (200, "/b.html"),
            (500, "/a.html"),
        ]);
        let changes = vec![ChangeEvent {
            time: ts(100),
            resource: a,
        }];
        let off = simulate_psi(
            &log,
            &changes,
            &PsiConfig {
                enabled: false,
                ..Default::default()
            },
        );
        // a@500 is fresh by TTL but stale in fact.
        assert_eq!(off.stale_served, 1);
        let on = simulate_psi(&log, &changes, &PsiConfig::default());
        // With PSI... b@200 is also fresh (no contact!), so no piggyback
        // flows and a stays stale — PSI only helps when contacts happen.
        assert_eq!(on.stale_served, 1, "PSI needs a contact to carry news");
    }

    #[test]
    fn psi_cap_bounds_piggybacks() {
        let log = tiny_log(&[(0, "/a.html"), (5000, "/a.html")]);
        let b = log.table.lookup("/b.html").unwrap();
        // 100 modifications of b between the contacts.
        let changes: Vec<ChangeEvent> = (1..=100)
            .map(|i| ChangeEvent {
                time: ts(i * 10),
                resource: b,
            })
            .collect();
        let report = simulate_psi(
            &log,
            &changes,
            &PsiConfig {
                max_piggy: 10,
                ..Default::default()
            },
        );
        assert!(report.piggybacked_elements <= 10);
    }
}

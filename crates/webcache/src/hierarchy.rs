//! Two-level (hierarchical) proxy caching with piggybacking (paper
//! Section 1: "our techniques are applicable to the general case of
//! hierarchical caching"; Section 5 lists multi-level caches as future
//! work).
//!
//! Topology: clients are partitioned across `n_children` child proxies,
//! all of which share one parent proxy in front of the origin. Piggyback
//! information flows at both levels:
//!
//! * origin → parent: the origin's volumes, filtered by the parent;
//! * parent → child: the parent acts as a *volume center* for its
//!   children — it learns directory volumes from the traffic it relays
//!   and piggybacks on responses to child misses/validations.
//!
//! Each level keeps its own RPV state, so redundant piggybacks are
//! suppressed independently per hop.

use crate::cache::{Cache, CacheEntry};
use crate::policy::PolicyKind;
use piggyback_core::filter::ProxyFilter;
use piggyback_core::proxy::ElementAction;
use piggyback_core::rpv::RpvList;
use piggyback_core::server::PiggybackServer;
use piggyback_core::types::{DurationMs, Timestamp};
use piggyback_core::volume::{DirectoryVolumes, VolumeProvider};
use piggyback_trace::synth::changes::ChangeEvent;
use piggyback_trace::ServerLog;

/// Hierarchy configuration.
#[derive(Debug, Clone)]
pub struct HierarchyConfig {
    pub n_children: usize,
    pub child_capacity: u64,
    pub parent_capacity: u64,
    /// Child-level freshness interval.
    pub child_delta: DurationMs,
    /// Parent-level freshness interval.
    pub parent_delta: DurationMs,
    /// Piggybacking on/off at both levels.
    pub piggyback: bool,
    /// Filter template used at both hops.
    pub filter: ProxyFilter,
    /// Directory-prefix depth for the parent's learned volumes.
    pub parent_volume_level: usize,
    /// Children apply parent piggyback *freshens* (not just
    /// invalidations). Freshening from the parent extends the life of
    /// copies the parent may itself hold stale; disable to trade hit rate
    /// for end-to-end freshness (see the `ext_hierarchy` experiment).
    pub freshen_from_parent: bool,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            n_children: 4,
            child_capacity: 8 * 1024 * 1024,
            parent_capacity: 64 * 1024 * 1024,
            child_delta: DurationMs::from_secs(1800),
            parent_delta: DurationMs::from_secs(3600),
            piggyback: true,
            filter: ProxyFilter::builder().max_piggy(10).build(),
            parent_volume_level: 1,
            freshen_from_parent: true,
        }
    }
}

/// Counters from a hierarchy simulation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyReport {
    pub client_requests: u64,
    /// Served from a child cache without contacting the parent.
    pub child_fresh_hits: u64,
    /// Child misses/validations served from the parent's cache without
    /// contacting the origin.
    pub parent_served: u64,
    /// Requests that reached the origin.
    pub origin_contacts: u64,
    /// Responses served (at any level) that were out of date at the origin.
    pub stale_served: u64,
    /// Piggyback messages parent→child.
    pub child_piggybacks: u64,
    /// Piggyback messages origin→parent.
    pub parent_piggybacks: u64,
    /// Child cache entries freshened/invalidated by parent piggybacks.
    pub child_freshens: u64,
    pub child_invalidations: u64,
}

impl HierarchyReport {
    pub fn child_hit_rate(&self) -> f64 {
        if self.client_requests == 0 {
            0.0
        } else {
            self.child_fresh_hits as f64 / self.client_requests as f64
        }
    }

    /// Fraction of requests absorbed before the origin.
    pub fn origin_shielding(&self) -> f64 {
        if self.client_requests == 0 {
            0.0
        } else {
            1.0 - self.origin_contacts as f64 / self.client_requests as f64
        }
    }
}

struct Child {
    cache: Cache,
    rpv: RpvList,
}

/// Run the two-level simulation. `server` is the origin (use
/// [`build_server`](crate::sim::build_server)).
pub fn simulate_hierarchy<V: VolumeProvider>(
    log: &ServerLog,
    changes: &[ChangeEvent],
    origin: &mut PiggybackServer<V>,
    cfg: &HierarchyConfig,
) -> HierarchyReport {
    assert!(cfg.n_children > 0);
    let mut report = HierarchyReport::default();

    let mut children: Vec<Child> = (0..cfg.n_children)
        .map(|_| Child {
            cache: Cache::new(cfg.child_capacity, PolicyKind::Lru.build()),
            rpv: RpvList::new(32, cfg.child_delta.min(DurationMs::from_secs(60))),
        })
        .collect();
    let mut parent_cache = Cache::new(cfg.parent_capacity, PolicyKind::Lru.build());
    let mut parent_rpv = RpvList::new(32, DurationMs::from_secs(60));
    // The parent's learned volumes (volume-center role for its children).
    let mut parent_volumes: PiggybackServer<DirectoryVolumes> =
        PiggybackServer::new(DirectoryVolumes::new(cfg.parent_volume_level));

    let mut change_idx = 0usize;
    for entry in &log.entries {
        let now = entry.time;
        while change_idx < changes.len() && changes[change_idx].time <= now {
            origin.touch_modified(changes[change_idx].resource, changes[change_idx].time);
            change_idx += 1;
        }

        let r = entry.resource;
        report.client_requests += 1;
        let origin_lm = origin
            .table()
            .meta(r)
            .map(|m| m.last_modified)
            .unwrap_or(Timestamp::ZERO);
        let child_idx = entry.client.0 as usize % cfg.n_children;

        // --- child level -------------------------------------------------
        let child = &mut children[child_idx];
        if let Some(snap) = child.cache.lookup(r, now) {
            if snap.is_fresh(now) {
                report.child_fresh_hits += 1;
                if origin_lm > snap.last_modified {
                    report.stale_served += 1;
                }
                continue;
            }
        }

        // --- parent level ------------------------------------------------
        // The parent serves from its cache when fresh; otherwise it goes
        // to the origin (validation collapsing: one upstream fetch
        // refreshes the shared parent copy for all children).
        let served_lm = match parent_cache.lookup(r, now) {
            Some(snap) if snap.is_fresh(now) => {
                report.parent_served += 1;
                snap.last_modified
            }
            _ => {
                // Parent contacts the origin.
                report.origin_contacts += 1;
                let mut filter = if cfg.piggyback {
                    cfg.filter.clone()
                } else {
                    ProxyFilter::disabled()
                };
                filter.rpv = parent_rpv.filter_ids(now);
                origin.record_access(r, entry.client, now);
                let size = origin.table().meta(r).map_or(0, |m| m.size);
                let fetched = CacheEntry::fetched(size, origin_lm, now, cfg.parent_delta, false);
                parent_cache.insert(r, fetched, now);
                if let Some(msg) = origin.piggyback(r, &filter, now) {
                    report.parent_piggybacks += 1;
                    parent_rpv.record(msg.volume, now);
                    // Parent applies origin piggybacks to its own cache.
                    let expires = Some(now + cfg.parent_delta);
                    for e in &msg.elements {
                        parent_cache.apply_element(e.resource, e.last_modified, now, expires);
                    }
                }
                origin_lm
            }
        };
        if origin_lm > served_lm {
            report.stale_served += 1;
        }

        // The parent learns volumes from relayed traffic and piggybacks to
        // the child (volume-center behaviour).
        {
            let path_owned = origin.table().path(r).map(|p| p.to_owned());
            if let Some(path) = path_owned {
                let size = origin.table().meta(r).map_or(0, |m| m.size);
                let pr = parent_volumes.register_path(&path, size, served_lm);
                parent_volumes.record_access(pr, entry.client, now);
                if cfg.piggyback {
                    let child = &mut children[child_idx];
                    let mut filter = cfg.filter.clone();
                    filter.rpv = child.rpv.filter_ids(now);
                    if let Some(msg) = parent_volumes.piggyback(pr, &filter, now) {
                        report.child_piggybacks += 1;
                        child.rpv.record(msg.volume, now);
                        // Invalidation-only mode applies no freshen.
                        let expires = cfg.freshen_from_parent.then(|| now + cfg.child_delta);
                        for e in &msg.elements {
                            // Translate the parent's ids back to origin ids
                            // via paths (the parent's table is its own).
                            let Some(epath) = parent_volumes.table().path(e.resource) else {
                                continue;
                            };
                            let Some(orig_id) = origin.table().lookup(epath) else {
                                continue;
                            };
                            match child
                                .cache
                                .apply_element(orig_id, e.last_modified, now, expires)
                            {
                                (ElementAction::Freshen, _) if expires.is_some() => {
                                    report.child_freshens += 1;
                                }
                                (ElementAction::Invalidate, _) => report.child_invalidations += 1,
                                _ => {}
                            }
                        }
                    }
                }
            }
        }

        // Install the response in the child cache.
        let child = &mut children[child_idx];
        let size = origin.table().meta(r).map_or(0, |m| m.size);
        let fetched = CacheEntry::fetched(size, served_lm, now, cfg.child_delta, false);
        child.cache.insert(r, fetched, now);
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::build_server;
    use piggyback_core::types::SourceId;
    use piggyback_trace::record::{Method, ServerLogEntry};

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn tiny_log(reqs: &[(u64, u32, &str)]) -> ServerLog {
        let mut log = ServerLog {
            name: "hier".into(),
            ..Default::default()
        };
        for p in ["/d/a.html", "/d/b.html", "/e/c.html"] {
            log.table.register_path(p, 1_000, Timestamp::ZERO);
        }
        for &(t, client, path) in reqs {
            let r = log.table.lookup(path).unwrap();
            log.entries.push(ServerLogEntry {
                time: ts(t),
                client: SourceId(client),
                resource: r,
                method: Method::Get,
                status: 200,
                bytes: 1_000,
            });
        }
        log
    }

    #[test]
    fn parent_shields_origin_across_children() {
        // Clients 0 and 1 land on different children (n_children=2); both
        // request the same resource. Child caches are cold for client 1,
        // but the parent's copy serves it without an origin contact.
        let log = tiny_log(&[(0, 0, "/d/a.html"), (10, 1, "/d/a.html")]);
        let mut origin = build_server(&log, DirectoryVolumes::new(1));
        let cfg = HierarchyConfig {
            n_children: 2,
            ..Default::default()
        };
        let report = simulate_hierarchy(&log, &[], &mut origin, &cfg);
        assert_eq!(report.client_requests, 2);
        assert_eq!(report.origin_contacts, 1);
        assert_eq!(report.parent_served, 1);
        assert!(report.origin_shielding() > 0.49);
    }

    #[test]
    fn child_cache_serves_repeats() {
        let log = tiny_log(&[(0, 0, "/d/a.html"), (5, 0, "/d/a.html")]);
        let mut origin = build_server(&log, DirectoryVolumes::new(1));
        let report = simulate_hierarchy(&log, &[], &mut origin, &HierarchyConfig::default());
        assert_eq!(report.child_fresh_hits, 1);
        assert_eq!(report.origin_contacts, 1);
    }

    #[test]
    fn parent_piggybacks_to_children() {
        // Same child, two resources in the same directory: the second
        // response carries a parent→child piggyback mentioning the first.
        let log = tiny_log(&[(0, 0, "/d/a.html"), (10, 0, "/d/b.html")]);
        let mut origin = build_server(&log, DirectoryVolumes::new(1));
        let report = simulate_hierarchy(&log, &[], &mut origin, &HierarchyConfig::default());
        assert!(report.child_piggybacks >= 1, "{report:?}");
        assert!(report.child_freshens >= 1);
        // Origin→parent piggybacks happened too.
        assert!(report.parent_piggybacks >= 1);
    }

    #[test]
    fn piggyback_off_means_no_messages() {
        let log = tiny_log(&[(0, 0, "/d/a.html"), (10, 0, "/d/b.html")]);
        let mut origin = build_server(&log, DirectoryVolumes::new(1));
        let cfg = HierarchyConfig {
            piggyback: false,
            ..Default::default()
        };
        let report = simulate_hierarchy(&log, &[], &mut origin, &cfg);
        assert_eq!(report.child_piggybacks, 0);
        assert_eq!(report.parent_piggybacks, 0);
    }

    #[test]
    fn invalidation_only_mode_skips_freshens() {
        let log = tiny_log(&[(0, 0, "/d/a.html"), (10, 0, "/d/b.html")]);
        let mut origin = build_server(&log, DirectoryVolumes::new(1));
        let cfg = HierarchyConfig {
            freshen_from_parent: false,
            ..Default::default()
        };
        let report = simulate_hierarchy(&log, &[], &mut origin, &cfg);
        assert!(report.child_piggybacks >= 1);
        assert_eq!(report.child_freshens, 0, "freshens disabled");
    }

    #[test]
    fn stale_detection_spans_levels() {
        // Fetch, modify at origin, re-request within both deltas: the
        // child serves its stale copy.
        let log = tiny_log(&[(0, 0, "/d/a.html"), (100, 0, "/d/a.html")]);
        let a = log.table.lookup("/d/a.html").unwrap();
        let changes = vec![ChangeEvent {
            time: ts(50),
            resource: a,
        }];
        let mut origin = build_server(&log, DirectoryVolumes::new(1));
        let report = simulate_hierarchy(&log, &changes, &mut origin, &HierarchyConfig::default());
        assert_eq!(report.stale_served, 1);
    }
}

//! Proxy-side piggyback handling (paper Section 2.1): the pure function
//! [`classify_element`] implements the per-element processing ("if p is
//! not in the cache, it could be prefetched..."). The proxy's cache
//! applies it (`piggyback_webcache::Cache::apply_element`), and its one
//! RPV list per server is a [`crate::rpv::RpvList`].

use crate::types::Timestamp;

/// What a proxy should do with one piggyback element (Section 2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElementAction {
    /// Not in the cache: a prefetch candidate.
    PrefetchCandidate,
    /// Cached and the server's copy is not newer: extend the expiration
    /// time (saves a future If-Modified-Since validation).
    Freshen,
    /// Cached but the server's copy is newer: the cached copy is stale —
    /// delete it (and optionally prefetch a fresh copy).
    Invalidate,
}

/// Decide the action for a piggyback element describing a resource whose
/// cached Last-Modified (if any) is `cached_last_modified`, given the
/// element's (server-side) Last-Modified time.
pub fn classify_element(
    cached_last_modified: Option<Timestamp>,
    element_last_modified: Timestamp,
) -> ElementAction {
    match cached_last_modified {
        None => ElementAction::PrefetchCandidate,
        Some(lm) if element_last_modified > lm => ElementAction::Invalidate,
        Some(_) => ElementAction::Freshen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: u64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn classify_matches_section_2_1() {
        // Not cached: prefetch candidate.
        assert_eq!(
            classify_element(None, ts(10)),
            ElementAction::PrefetchCandidate
        );
        // Cached, same version: freshen.
        assert_eq!(
            classify_element(Some(ts(10)), ts(10)),
            ElementAction::Freshen
        );
        // Cached, server older than cache (clock skew): still fresh.
        assert_eq!(
            classify_element(Some(ts(11)), ts(10)),
            ElementAction::Freshen
        );
        // Cached, server newer: stale.
        assert_eq!(
            classify_element(Some(ts(9)), ts(10)),
            ElementAction::Invalidate
        );
    }
}

//! The server's resource table: interned paths plus per-resource metadata.

use crate::intern::PathInterner;
use crate::types::{ContentType, ResourceId, ResourceMeta, Timestamp};

/// Paths and metadata for every resource a server knows about.
///
/// This is the state a real origin server already has (its file system and
/// access counters); volume providers and piggyback generation read from it.
#[derive(Debug, Default, Clone)]
pub struct ResourceTable {
    interner: PathInterner,
    meta: Vec<ResourceMeta>,
}

impl ResourceTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table with room for `resources` entries: registering that
    /// many grows neither the path map nor the metadata, so no outgrown
    /// buffer is ever freed.
    pub fn with_capacity(resources: usize) -> Self {
        ResourceTable {
            interner: PathInterner::with_capacity(resources),
            meta: Vec::with_capacity(resources),
        }
    }

    /// Register (or update) a resource, returning its id.
    pub fn register(
        &mut self,
        path: &str,
        size: u64,
        last_modified: Timestamp,
        content_type: ContentType,
    ) -> ResourceId {
        let id = self.interner.intern(path);
        if id.index() == self.meta.len() {
            self.meta
                .push(ResourceMeta::new(size, last_modified, content_type));
        } else {
            let m = &mut self.meta[id.index()];
            m.size = size;
            m.last_modified = last_modified;
            m.content_type = content_type;
        }
        id
    }

    /// Register a path with metadata inferred from the path (type from the
    /// extension, placeholder size), for trace-driven use where bodies are
    /// not materialized.
    pub fn register_path(&mut self, path: &str, size: u64, last_modified: Timestamp) -> ResourceId {
        self.register(path, size, last_modified, ContentType::from_path(path))
    }

    /// Mark a modification of `r` at `when` (updates Last-Modified).
    pub fn touch_modified(&mut self, r: ResourceId, when: Timestamp) {
        if let Some(m) = self.meta.get_mut(r.index()) {
            m.last_modified = when;
        }
    }

    /// Increment the access counter for `r`, returning the new count.
    pub fn count_access(&mut self, r: ResourceId) -> u64 {
        match self.meta.get_mut(r.index()) {
            Some(m) => {
                m.access_count += 1;
                m.access_count
            }
            None => 0,
        }
    }

    /// Metadata for `r`, if registered.
    pub fn meta(&self, r: ResourceId) -> Option<&ResourceMeta> {
        self.meta.get(r.index())
    }

    /// The path for `r`, if registered.
    pub fn path(&self, r: ResourceId) -> Option<&str> {
        self.interner.path(r)
    }

    /// Id of an already-registered path.
    pub fn lookup(&self, path: &str) -> Option<ResourceId> {
        self.interner.get(path)
    }

    /// Number of registered resources.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// Iterate `(id, path, meta)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, &str, &ResourceMeta)> {
        self.interner
            .iter()
            .map(move |(id, p)| (id, p, &self.meta[id.index()]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut t = ResourceTable::new();
        let a = t.register("/a.html", 100, Timestamp::from_secs(1), ContentType::Html);
        assert_eq!(t.lookup("/a.html"), Some(a));
        assert_eq!(t.path(a), Some("/a.html"));
        assert_eq!(t.meta(a).unwrap().size, 100);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn re_register_updates_metadata() {
        let mut t = ResourceTable::new();
        let a = t.register("/a.html", 100, Timestamp::from_secs(1), ContentType::Html);
        t.count_access(a);
        let a2 = t.register("/a.html", 250, Timestamp::from_secs(9), ContentType::Html);
        assert_eq!(a, a2);
        let m = t.meta(a).unwrap();
        assert_eq!(m.size, 250);
        assert_eq!(m.last_modified, Timestamp::from_secs(9));
        // Access counts survive a metadata update.
        assert_eq!(m.access_count, 1);
    }

    #[test]
    fn access_counting() {
        let mut t = ResourceTable::new();
        let a = t.register_path("/img/logo.gif", 2048, Timestamp::ZERO);
        assert_eq!(t.meta(a).unwrap().content_type, ContentType::Image);
        assert_eq!(t.count_access(a), 1);
        assert_eq!(t.count_access(a), 2);
        assert_eq!(t.meta(a).unwrap().access_count, 2);
        // Counting an unknown id is a no-op.
        assert_eq!(t.count_access(ResourceId(999)), 0);
    }

    #[test]
    fn touch_modified_updates_lm() {
        let mut t = ResourceTable::new();
        let a = t.register_path("/x", 1, Timestamp::ZERO);
        t.touch_modified(a, Timestamp::from_secs(77));
        assert_eq!(t.meta(a).unwrap().last_modified, Timestamp::from_secs(77));
    }
}

//! URL path interning.
//!
//! Servers and the trace replay engine refer to resources billions of times;
//! interning paths to dense [`ResourceId`]s keeps every downstream structure
//! (volume FIFOs, pairwise counters, metric windows) indexable by `u32`.

use crate::fasthash::FxHashMap;
use crate::types::ResourceId;
use std::sync::Arc;

/// A dense string interner mapping URL paths to [`ResourceId`]s.
///
/// Ids are assigned in first-seen order and are stable for the lifetime of
/// the interner. Lookup by path is `O(1)` expected; lookup by id is `O(1)`.
///
/// Each path is stored once on the heap: the id-indexed vector and the
/// by-path map share one `Arc<str>` allocation, so inserting never copies
/// the string a second time and cloning the interner is shallow per path.
#[derive(Debug, Default, Clone)]
pub struct PathInterner {
    by_path: FxHashMap<Arc<str>, ResourceId>,
    paths: Vec<Arc<str>>,
}

impl PathInterner {
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty interner with room for `paths` paths.
    pub fn with_capacity(paths: usize) -> Self {
        PathInterner {
            by_path: FxHashMap::with_capacity_and_hasher(paths, Default::default()),
            paths: Vec::with_capacity(paths),
        }
    }

    /// Intern `path`, returning its id (existing or freshly assigned).
    ///
    /// Paths are normalized first: see [`normalize_path`].
    pub fn intern(&mut self, path: &str) -> ResourceId {
        let norm = normalize_path(path);
        if let Some(&id) = self.by_path.get(norm.as_ref()) {
            return id;
        }
        let id =
            ResourceId(u32::try_from(self.paths.len()).expect("more than u32::MAX interned paths"));
        let shared: Arc<str> = Arc::from(norm.as_ref());
        self.by_path.insert(Arc::clone(&shared), id);
        self.paths.push(shared);
        id
    }

    /// Look up an already-interned path without inserting.
    pub fn get(&self, path: &str) -> Option<ResourceId> {
        self.by_path.get(normalize_path(path).as_ref()).copied()
    }

    /// The path for `id`, if assigned.
    pub fn path(&self, id: ResourceId) -> Option<&str> {
        self.paths.get(id.index()).map(|s| s.as_ref())
    }

    /// Number of interned paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterate `(id, path)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ResourceId, &str)> {
        self.paths
            .iter()
            .enumerate()
            .map(|(i, p)| (ResourceId(i as u32), p.as_ref()))
    }
}

/// Normalize a URL path the way the paper's log cleaning did: ensure a
/// leading `/`, drop a trailing `/` (so `http://www.foo.com/` and
/// `http://www.foo.com` are "combined [as] identical resources"), and strip
/// any `#fragment`.
///
/// Query strings are preserved: the paper *deletes* query URLs from its logs
/// entirely, which is the caller's policy decision, not the interner's.
pub fn normalize_path(path: &str) -> std::borrow::Cow<'_, str> {
    use std::borrow::Cow;
    let path = match path.find('#') {
        Some(i) => &path[..i],
        None => path,
    };
    let needs_leading = !path.starts_with('/');
    let trailing = path.len() > 1 && path.ends_with('/');
    if !needs_leading && !trailing {
        if path.is_empty() {
            return Cow::Borrowed("/");
        }
        return Cow::Borrowed(path);
    }
    let mut s = String::with_capacity(path.len() + 1);
    if needs_leading {
        s.push('/');
    }
    s.push_str(path);
    while s.len() > 1 && s.ends_with('/') {
        s.pop();
    }
    Cow::Owned(s)
}

/// The directory prefix of `path` at `level` (paper Section 3.2.1).
///
/// Level 0 is the site root (every resource shares it); level `k` keeps the
/// first `k` directory components. A resource shallower than `k` components
/// belongs to the volume of its own directory.
///
/// ```
/// use piggyback_core::intern::directory_prefix;
/// assert_eq!(directory_prefix("/a/b.html", 0), "/");
/// assert_eq!(directory_prefix("/a/b.html", 1), "/a");
/// assert_eq!(directory_prefix("/a/d/e.html", 1), "/a");
/// assert_eq!(directory_prefix("/a/d/e.html", 2), "/a/d");
/// assert_eq!(directory_prefix("/f/g.html", 1), "/f");
/// // Shallow resources saturate at their own directory.
/// assert_eq!(directory_prefix("/top.html", 3), "/");
/// ```
pub fn directory_prefix(path: &str, level: usize) -> &str {
    if level == 0 {
        return "/";
    }
    debug_assert!(path.starts_with('/'), "paths must be normalized");
    // The final component is the file name; it never counts toward the
    // prefix. Find the byte offset after `level` directory components, or
    // the last '/' if the path is shallower.
    let mut components = 0usize;
    let mut last_slash = 0usize;
    for (i, b) in path.bytes().enumerate() {
        if b == b'/' {
            if i > 0 {
                components += 1;
                if components == level {
                    return &path[..i];
                }
            }
            last_slash = i;
        }
    }
    // Fewer than `level` directories: the prefix is everything up to the
    // final slash (the resource's own directory).
    if last_slash == 0 {
        "/"
    } else {
        &path[..last_slash]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_assigns_dense_ids() {
        let mut i = PathInterner::new();
        let a = i.intern("/a.html");
        let b = i.intern("/b.html");
        let a2 = i.intern("/a.html");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(i.len(), 2);
        assert_eq!(i.path(a), Some("/a.html"));
        assert_eq!(i.get("/b.html"), Some(b));
        assert_eq!(i.get("/c.html"), None);
    }

    #[test]
    fn intern_normalizes() {
        let mut i = PathInterner::new();
        let root1 = i.intern("/");
        let root2 = i.intern("");
        assert_eq!(root1, root2);
        let a = i.intern("/dir/");
        let b = i.intern("/dir");
        assert_eq!(a, b);
        let c = i.intern("page.html");
        assert_eq!(i.path(c), Some("/page.html"));
        let d = i.intern("/x.html#sec2");
        assert_eq!(i.path(d), Some("/x.html"));
    }

    #[test]
    fn map_and_vec_share_one_allocation() {
        let mut i = PathInterner::new();
        let a = i.intern("/shared/path.html");
        // Two owners (map key + vec slot) of a single heap string.
        let arc = i.paths.get(a.index()).unwrap();
        assert_eq!(Arc::strong_count(arc), 2);
        // Re-interning adds no owners.
        i.intern("/shared/path.html");
        assert_eq!(Arc::strong_count(i.paths.get(a.index()).unwrap()), 2);
        // Cloning the interner shares rather than copies the strings.
        let copy = i.clone();
        assert_eq!(Arc::strong_count(copy.paths.first().unwrap()), 4);
    }

    #[test]
    fn iter_in_id_order() {
        let mut i = PathInterner::new();
        i.intern("/x");
        i.intern("/y");
        let all: Vec<_> = i.iter().map(|(id, p)| (id.0, p.to_string())).collect();
        assert_eq!(all, vec![(0, "/x".into()), (1, "/y".into())]);
    }

    #[test]
    fn prefix_levels() {
        assert_eq!(directory_prefix("/a/b/c/d.html", 0), "/");
        assert_eq!(directory_prefix("/a/b/c/d.html", 1), "/a");
        assert_eq!(directory_prefix("/a/b/c/d.html", 2), "/a/b");
        assert_eq!(directory_prefix("/a/b/c/d.html", 3), "/a/b/c");
        // Deeper than the path: saturates at the file's own directory.
        assert_eq!(directory_prefix("/a/b/c/d.html", 9), "/a/b/c");
        assert_eq!(directory_prefix("/d.html", 2), "/");
        assert_eq!(directory_prefix("/", 2), "/");
    }

    #[test]
    fn paper_example_grouping() {
        // One-level volumes: /a/b.html and /a/d/e.html together, /f/g.html apart.
        let p1 = directory_prefix("/a/b.html", 1);
        let p2 = directory_prefix("/a/d/e.html", 1);
        let p3 = directory_prefix("/f/g.html", 1);
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        // Zero-level volumes: all three together.
        assert_eq!(
            directory_prefix("/a/b.html", 0),
            directory_prefix("/f/g.html", 0)
        );
    }
}

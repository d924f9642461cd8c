//! A cheaply-cloneable, sliceable byte container for message bodies.
//!
//! [`Body`] is a minimal `bytes::Bytes`: either a `&'static [u8]` or an
//! `Arc<[u8]>` plus a sub-range. Cloning bumps a refcount (or copies two
//! pointers for statics); slicing adjusts the range; neither copies bytes.
//! The proxy's cache stores one `Body` per resource and every cached hit
//! serves a clone of it, so the stored bytes flow to `write_vectored`
//! without a memcpy.
//!
//! Bytes are copied exactly once, when a message is *retained*: converting
//! a `Vec<u8>` (or `&[u8]`) into a `Body` performs the single
//! `Arc::from` copy; an `Arc<[u8]>` converts with none (the origin builds
//! each body in place in its `Arc`). `from_static` is `const`, so canned
//! bodies (the origin's 404 page) can live in `static`s and serve with
//! zero copies ever.

use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Shared, immutable bytes with O(1) clone and slice.
#[derive(Clone)]
pub struct Body {
    repr: Repr,
    start: usize,
    end: usize,
}

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<[u8]>),
    /// The first bytes of a larger object (prefix caching): `head` is
    /// what we retained, `total_len` the full object length recorded at
    /// capture time. Serving a prefix hit validates the streamed suffix
    /// against `total_len`.
    Prefix {
        head: Arc<[u8]>,
        total_len: usize,
    },
}

impl Body {
    /// An empty body. `const`, so it costs nothing to construct.
    pub const fn empty() -> Self {
        Body::from_static(b"")
    }

    /// Wrap a `'static` byte slice without copying — usable in `static`
    /// items for canned responses.
    pub const fn from_static(bytes: &'static [u8]) -> Self {
        Body {
            start: 0,
            end: bytes.len(),
            repr: Repr::Static(bytes),
        }
    }

    /// A prefix body: the first `head.len()` bytes of a `total_len`-byte
    /// object. The stored bytes are shared (`Arc`), so prefix hits serve
    /// the head zero-copy. Panics if `total_len < head.len()`.
    pub fn prefix(head: impl Into<Arc<[u8]>>, total_len: usize) -> Self {
        let head: Arc<[u8]> = head.into();
        assert!(
            total_len >= head.len(),
            "prefix head longer than the object it prefixes"
        );
        Body {
            start: 0,
            end: head.len(),
            repr: Repr::Prefix { head, total_len },
        }
    }

    /// Is this body a retained prefix of a larger object?
    pub fn is_prefix(&self) -> bool {
        matches!(self.repr, Repr::Prefix { .. })
    }

    /// The full length of the object this body belongs to: `total_len`
    /// for a prefix, the body's own length otherwise.
    pub fn total_len(&self) -> usize {
        match self.repr {
            Repr::Prefix { total_len, .. } => total_len,
            _ => self.len(),
        }
    }

    /// The full backing slice (ignoring this body's sub-range).
    fn backing(&self) -> &[u8] {
        match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(a) => a,
            Repr::Prefix { head, .. } => head,
        }
    }

    /// The bytes of this body.
    pub fn as_slice(&self) -> &[u8] {
        &self.backing()[self.start..self.end]
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-body sharing the same backing storage (no copy). The range is
    /// relative to this body and clamped to its bounds.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Body {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        let hi = hi.min(self.len());
        let lo = lo.min(hi);
        // A slice of a prefix is just bytes: the prefix marker describes
        // the whole retained head, not arbitrary sub-ranges of it.
        let repr = match &self.repr {
            Repr::Prefix { head, .. } => Repr::Shared(Arc::clone(head)),
            other => other.clone(),
        };
        Body {
            repr,
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copy the bytes out into a fresh `Vec` (the one deliberate copy).
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Body {
    fn default() -> Self {
        Body::empty()
    }
}

impl Deref for Body {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Body {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Arc<[u8]>> for Body {
    /// Adopt bytes already shared: no copy, so a body built in place in
    /// its `Arc` is never copied before the wire.
    fn from(arc: Arc<[u8]>) -> Self {
        Body {
            start: 0,
            end: arc.len(),
            repr: Repr::Shared(arc),
        }
    }
}

impl From<Vec<u8>> for Body {
    /// The single retain-time copy: `Arc<[u8]>` from the vec.
    fn from(v: Vec<u8>) -> Self {
        Body::from(Arc::<[u8]>::from(v))
    }
}

impl From<&[u8]> for Body {
    fn from(s: &[u8]) -> Self {
        Body::from(Arc::<[u8]>::from(s))
    }
}

impl<const N: usize> From<&[u8; N]> for Body {
    fn from(s: &[u8; N]) -> Self {
        Body::from(&s[..])
    }
}

impl From<String> for Body {
    fn from(s: String) -> Self {
        Body::from(s.into_bytes())
    }
}

impl From<&str> for Body {
    fn from(s: &str) -> Self {
        Body::from(s.as_bytes())
    }
}

impl std::fmt::Debug for Body {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_prefix() {
            write!(
                f,
                "Body({} bytes, prefix of {})",
                self.len(),
                self.total_len()
            )
        } else {
            write!(f, "Body({} bytes)", self.len())
        }
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        // A prefix is not equal to a full body with the same head bytes:
        // equality covers the object it claims to represent.
        self.is_prefix() == other.is_prefix()
            && self.total_len() == other.total_len()
            && self.as_slice() == other.as_slice()
    }
}

impl Eq for Body {}

impl PartialEq<[u8]> for Body {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Body {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for Body {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<Body> for Vec<u8> {
    fn eq(&self, other: &Body) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Body {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Body {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_static_are_const() {
        static CANNED: Body = Body::from_static(b"not found\n");
        const EMPTY: Body = Body::empty();
        assert_eq!(CANNED, b"not found\n");
        assert_eq!(CANNED.len(), 10);
        assert!(EMPTY.is_empty());
        assert_eq!(EMPTY.len(), 0);
    }

    #[test]
    fn clone_shares_storage() {
        let b = Body::from(b"hello world".to_vec());
        let c = b.clone();
        assert_eq!(b, c);
        // Same backing allocation: the slices point into the same memory.
        assert_eq!(b.as_slice().as_ptr(), c.as_slice().as_ptr());
    }

    #[test]
    fn slice_is_zero_copy_and_clamped() {
        let b = Body::from(b"hello world".to_vec());
        let hello = b.slice(..5);
        let world = b.slice(6..);
        assert_eq!(hello, b"hello");
        assert_eq!(world, b"world");
        // Sub-slices share the parent's storage.
        assert_eq!(world.as_slice().as_ptr(), unsafe {
            b.as_slice().as_ptr().add(6)
        });
        // Nested slicing is relative to the slice, not the root.
        assert_eq!(world.slice(1..3), b"or");
        // Out-of-range bounds clamp instead of panicking.
        assert_eq!(b.slice(..100), b"hello world");
        assert_eq!(b.slice(20..30).len(), 0);
        // Inverted bounds clamp to empty too.
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = b.slice(5..2);
        assert_eq!(inverted.len(), 0);
    }

    #[test]
    fn conversions_and_equality() {
        let v: Body = b"abc".to_vec().into();
        let s: Body = "abc".into();
        let a: Body = b"abc".into();
        assert_eq!(v, s);
        assert_eq!(s, a);
        assert_eq!(v, *b"abc");
        assert_eq!(v, b"abc");
        assert_eq!(v, b"abc".to_vec());
        assert_eq!(b"abc".to_vec(), v);
        assert_eq!(v.to_vec(), b"abc");
        assert_ne!(v, Body::empty());
        assert_eq!(format!("{v:?}"), "Body(3 bytes)");
    }

    #[test]
    fn prefix_bodies_carry_total_len_and_share_head_bytes() {
        let head: Arc<[u8]> = Arc::from(&b"first 8 b"[..9]);
        let p = Body::prefix(Arc::clone(&head), 1_000_000);
        assert!(p.is_prefix());
        assert_eq!(p.len(), 9);
        assert_eq!(p.total_len(), 1_000_000);
        // Zero-copy: clone and as_slice point at the shared head.
        assert_eq!(p.clone().as_slice().as_ptr(), head.as_ptr());
        // Slicing yields plain bytes, not a prefix claim.
        let s = p.slice(..5);
        assert!(!s.is_prefix());
        assert_eq!(s.total_len(), 5);
        assert_eq!(s.as_slice().as_ptr(), head.as_ptr());
        // Equality distinguishes a prefix from a full body with the same
        // bytes, and prefixes of different objects from each other.
        let full: Body = b"first 8 b".into();
        assert_ne!(p, full);
        assert_ne!(p, Body::prefix(Arc::clone(&head), 2_000_000));
        assert_eq!(p, Body::prefix(head, 1_000_000));
        // Byte-level comparisons stay byte-level.
        assert_eq!(p, b"first 8 b");
        assert!(format!("{p:?}").contains("prefix of 1000000"));
    }

    #[test]
    #[should_panic(expected = "prefix head longer")]
    fn prefix_total_len_must_cover_head() {
        let _ = Body::prefix(&b"123456"[..], 3);
    }

    #[test]
    fn deref_gives_slice_methods() {
        let b = Body::from(b"chunky".to_vec());
        assert_eq!(&b[1..3], b"hu");
        assert!(b.starts_with(b"ch"));
        assert_eq!(b.iter().count(), 6);
    }
}

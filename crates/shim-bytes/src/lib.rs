//! Offline stand-in for [`bytes`](https://crates.io/crates/bytes).
//!
//! The build environment has no network access to crates.io, so this
//! workspace ships the one type of it the wire path uses: [`Bytes`], an
//! immutable, cheaply cloneable view of a shared byte buffer.
//!
//! A [`Bytes`] is an `Arc<[u8]>` plus a range: a fresh blob is one
//! allocation (the reference counts sit in front of the bytes), a deref
//! is one pointer hop, and [`Bytes::split_to`]/[`Bytes::slice`] share the
//! allocation — the primitive the wire path's borrowed decode is built on.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// The shared backing store of every empty [`Bytes`], so `Bytes::new()`
/// and `Default` never allocate.
fn empty_backing() -> &'static Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(&[][..]))
}

/// An immutable, cheaply cloneable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::from(empty_backing().clone())
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copies a slice into a new buffer: one allocation.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(Arc::<[u8]>::from(data))
    }

    /// Number of bytes in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    /// Both halves share the backing allocation.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(0..at);
        self.start += at;
        head
    }

    /// A sub-view (`range` is relative to the start of this view). Shares
    /// the backing allocation.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of bounds of {} bytes",
            self.len()
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Copies the bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Views a whole shared buffer without copying it.
impl From<Arc<[u8]>> for Bytes {
    fn from(data: Arc<[u8]>) -> Bytes {
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }
}

/// Moves the bytes into one exactly sized shared allocation (a copy; the
/// `Vec`'s own allocation is freed).
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from(Arc::<[u8]>::from(v))
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{:?}", self.as_slice())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_to_keeps_rest() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4]);
        let head = b.split_to(2);
        assert_eq!(head.to_vec(), vec![1, 2]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.to_vec(), vec![3, 4]);
    }

    #[test]
    fn slice_is_relative_to_read_position() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4, 5]);
        b.split_to(1);
        let mid = b.slice(1..3);
        assert_eq!(mid.to_vec(), vec![3, 4]);
        // The parent is unaffected.
        assert_eq!(b.to_vec(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn views_share_one_allocation() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4]);
        let head = b.split_to(2);
        let tail_ptr = b.as_slice().as_ptr();
        let head_ptr = head.as_slice().as_ptr();
        assert_eq!(unsafe { head_ptr.add(2) }, tail_ptr);
        assert!(Arc::ptr_eq(&head.data, &b.data));
    }

    #[test]
    fn empty_bytes_share_a_static_backing() {
        let a = Bytes::new();
        let b = Bytes::default();
        assert!(Arc::ptr_eq(&a.data, &b.data));
        assert!(a.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn underflow_panics() {
        let mut b = Bytes::copy_from_slice(&[1]);
        let _ = b.split_to(4);
    }
}

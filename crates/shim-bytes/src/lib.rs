//! Offline stand-in for [`bytes`](https://crates.io/crates/bytes).
//!
//! The build environment has no network access to crates.io, so this
//! workspace ships a minimal, API-compatible implementation of the subset
//! the codecs use: [`Bytes`], [`BytesMut`] and the [`Buf`]/[`BufMut`]
//! traits. Integer accessors exist in both big-endian (default, matching
//! the real crate) and `_le` little-endian flavours.
//!
//! Zero-copy slicing is real, not approximated: a [`Bytes`] is an
//! `Arc<Vec<u8>>` plus a range, so `From<Vec<u8>>` takes ownership
//! without copying, [`Bytes::split_to`]/[`Bytes::slice`] share the
//! allocation, and [`Bytes::try_reclaim`] hands the backing `Vec` back
//! to a buffer pool once no other view is alive — the primitives the
//! wire path's borrowed decode and pooled frame buffers are built on.

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

/// The shared backing store of every empty [`Bytes`], so `Bytes::new()`
/// and `Default` never allocate.
fn empty_backing() -> &'static Arc<Vec<u8>> {
    static EMPTY: OnceLock<Arc<Vec<u8>>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::new(Vec::new()))
}

/// An immutable, cheaply cloneable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes {
            data: empty_backing().clone(),
            start: 0,
            end: 0,
        }
    }
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wraps a static byte slice.
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::from_vec(bytes.to_vec())
    }

    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from_vec(data.to_vec())
    }

    /// Takes ownership of a `Vec` without copying its contents.
    fn from_vec(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }

    /// Number of bytes remaining.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when no bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    /// Both halves share the backing allocation.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let head = Bytes {
            data: self.data.clone(),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// A sub-view of the remaining bytes (`range` is relative to the
    /// current read position). Shares the backing allocation.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice out of bounds"
        );
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Recovers the backing `Vec` when this is the last live view of it
    /// (buffer-pool reuse); otherwise returns `self` unchanged. The
    /// returned `Vec` keeps its full capacity and contents — callers
    /// reusing it as scratch should `clear()` it.
    pub fn try_reclaim(self) -> Result<Vec<u8>, Bytes> {
        let Bytes { data, start, end } = self;
        match Arc::try_unwrap(data) {
            Ok(v) => Ok(v),
            Err(data) => Err(Bytes { data, start, end }),
        }
    }

    /// Copies the remaining bytes into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    fn take_bytes(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "buffer underflow");
        let s = self.start;
        self.start += n;
        &self.data[s..s + n]
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

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
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

/// A growable byte buffer.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Allocated capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Empties the buffer, keeping its capacity (scratch-buffer reuse).
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Shortens the buffer to `len` bytes, keeping its capacity; no effect
    /// when it is already that short.
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(len);
    }

    /// Shrinks the allocation to at most `min_capacity` (or the current
    /// length, whichever is larger) — the decay half of a
    /// high-water-mark scratch buffer.
    pub fn shrink_to(&mut self, min_capacity: usize) {
        self.data.shrink_to(min_capacity);
    }

    /// Converts into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from_vec(self.data)
    }

    /// Extracts the inner `Vec` without copying.
    pub fn into_vec(self) -> Vec<u8> {
        self.data
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> BytesMut {
        BytesMut { data }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{:?}", self.data)
    }
}

macro_rules! get_impl {
    ($(($name:ident, $name_le:ident, $ty:ty)),* $(,)?) => {
        $(
            /// Reads the value big-endian, advancing the buffer.
            fn $name(&mut self) -> $ty;
            /// Reads the value little-endian, advancing the buffer.
            fn $name_le(&mut self) -> $ty;
        )*
    };
}

/// Read access to a byte buffer, consuming from the front.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Reads one byte.
    fn get_u8(&mut self) -> u8;

    /// Reads one signed byte.
    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    get_impl!(
        (get_u16, get_u16_le, u16),
        (get_u32, get_u32_le, u32),
        (get_u64, get_u64_le, u64),
        (get_i16, get_i16_le, i16),
        (get_i32, get_i32_le, i32),
        (get_i64, get_i64_le, i64),
    );

    /// Reads an `f64`, big-endian.
    fn get_f64(&mut self) -> f64;
    /// Reads an `f64`, little-endian.
    fn get_f64_le(&mut self) -> f64;
    /// Copies bytes into `dst`, advancing the buffer.
    fn copy_to_slice(&mut self, dst: &mut [u8]);
    /// Advances the read position by `n` bytes.
    fn advance(&mut self, n: usize);
}

macro_rules! buf_get_body {
    ($self:ident, $ty:ty, $from:ident) => {{
        let mut raw = [0u8; std::mem::size_of::<$ty>()];
        raw.copy_from_slice($self.take_bytes(std::mem::size_of::<$ty>()));
        <$ty>::$from(raw)
    }};
}

macro_rules! impl_buf_ints {
    ($(($name:ident, $name_le:ident, $ty:ty)),* $(,)?) => {
        $(
            fn $name(&mut self) -> $ty {
                buf_get_body!(self, $ty, from_be_bytes)
            }
            fn $name_le(&mut self) -> $ty {
                buf_get_body!(self, $ty, from_le_bytes)
            }
        )*
    };
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        self.take_bytes(1)[0]
    }

    impl_buf_ints!(
        (get_u16, get_u16_le, u16),
        (get_u32, get_u32_le, u32),
        (get_u64, get_u64_le, u64),
        (get_i16, get_i16_le, i16),
        (get_i32, get_i32_le, i32),
        (get_i64, get_i64_le, i64),
    );

    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(self.take_bytes(dst.len()));
    }

    fn advance(&mut self, n: usize) {
        self.take_bytes(n);
    }
}

macro_rules! put_impl {
    ($(($name:ident, $name_le:ident, $ty:ty)),* $(,)?) => {
        $(
            /// Appends the value big-endian.
            fn $name(&mut self, v: $ty);
            /// Appends the value little-endian.
            fn $name_le(&mut self, v: $ty);
        )*
    };
}

/// Write access to a growable byte buffer.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);

    /// Appends one signed byte.
    fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }

    put_impl!(
        (put_u16, put_u16_le, u16),
        (put_u32, put_u32_le, u32),
        (put_u64, put_u64_le, u64),
        (put_i16, put_i16_le, i16),
        (put_i32, put_i32_le, i32),
        (put_i64, put_i64_le, i64),
    );

    /// Appends an `f64`, big-endian.
    fn put_f64(&mut self, v: f64);
    /// Appends an `f64`, little-endian.
    fn put_f64_le(&mut self, v: f64);
    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

macro_rules! impl_bufmut_ints {
    ($(($name:ident, $name_le:ident, $ty:ty)),* $(,)?) => {
        $(
            fn $name(&mut self, v: $ty) {
                self.data.extend_from_slice(&v.to_be_bytes());
            }
            fn $name_le(&mut self, v: $ty) {
                self.data.extend_from_slice(&v.to_le_bytes());
            }
        )*
    };
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    impl_bufmut_ints!(
        (put_u16, put_u16_le, u16),
        (put_u32, put_u32_le, u32),
        (put_u64, put_u64_le, u64),
        (put_i16, put_i16_le, i16),
        (put_i32, put_i32_le, i32),
        (put_i64, put_i64_le, i64),
    );

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_both_endiannesses() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u16(0x0102);
        w.put_u32_le(0xA1B2C3D4);
        w.put_i64_le(-9);
        w.put_f64_le(2.5);
        w.put_slice(b"xy");
        let mut r = w.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 0x0102);
        assert_eq!(r.get_u32_le(), 0xA1B2C3D4);
        assert_eq!(r.get_i64_le(), -9);
        assert_eq!(r.get_f64_le(), 2.5);
        assert_eq!(r.to_vec(), b"xy");
    }

    #[test]
    fn split_to_keeps_rest() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4]);
        let head = b.split_to(2);
        assert_eq!(head.to_vec(), vec![1, 2]);
        assert_eq!(b.remaining(), 2);
        assert_eq!(b.to_vec(), vec![3, 4]);
    }

    #[test]
    fn slice_is_relative_to_read_position() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4, 5]);
        b.advance(1);
        let mid = b.slice(1..3);
        assert_eq!(mid.to_vec(), vec![3, 4]);
        // The parent is unaffected.
        assert_eq!(b.to_vec(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn from_vec_and_reclaim_are_zero_copy() {
        let v = vec![7u8; 32];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_slice().as_ptr(), ptr, "From<Vec> must not copy");
        // A live clone blocks reclaim…
        let clone = b.clone();
        let b = b.try_reclaim().unwrap_err();
        drop(clone);
        // …and the last view gets the original allocation back.
        let back = b.try_reclaim().unwrap();
        assert_eq!(back.as_ptr(), ptr, "reclaim must return the same Vec");
        assert_eq!(back.len(), 32);
    }

    #[test]
    fn views_share_one_allocation() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4]);
        let head = b.split_to(2);
        let tail_ptr = b.as_slice().as_ptr();
        let head_ptr = head.as_slice().as_ptr();
        assert_eq!(unsafe { head_ptr.add(2) }, tail_ptr);
    }

    #[test]
    fn empty_bytes_share_a_static_backing() {
        let a = Bytes::new();
        let b = Bytes::default();
        assert!(Arc::ptr_eq(&a.data, &b.data));
        assert!(a.is_empty());
    }

    #[test]
    fn bytes_mut_scratch_reuse() {
        let mut w = BytesMut::with_capacity(64);
        w.put_slice(b"hello");
        assert_eq!(w.len(), 5);
        w.clear();
        assert_eq!(w.len(), 0);
        assert!(w.capacity() >= 64);
        w.put_slice(b"again");
        assert_eq!(w.into_vec(), b"again");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut b = Bytes::copy_from_slice(&[1]);
        let _ = b.get_u32();
    }
}

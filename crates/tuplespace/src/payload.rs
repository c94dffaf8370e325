//! Binary payload codec.
//!
//! JavaSpaces requires entries crossing the space to be serializable; the
//! Rust analogue is the [`Payload`] trait, a small hand-rolled binary codec
//! over [`bytes`]. Application task bodies implement `Payload` and travel
//! through the space as `Value::Bytes` fields, so the space itself stays
//! application-agnostic — the separation of concerns §3 of the paper credits
//! to JavaSpaces.
//!
//! All integers are little-endian. Strings and byte blobs are length-prefixed
//! with a `u32`.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::fx::FxBuild;

/// Errors raised while decoding a payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A length prefix or tag had an impossible value.
    Corrupt(&'static str),
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadError::Truncated => write!(f, "payload truncated"),
            PayloadError::Corrupt(what) => write!(f, "payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for PayloadError {}

/// Types that can be serialized into a space entry and back.
pub trait Payload: Sized {
    /// Appends this value's encoding to `w`.
    fn encode(&self, w: &mut WireWriter);
    /// Decodes a value from the front of `r`.
    fn decode(r: &mut WireReader) -> Result<Self, PayloadError>;

    /// Convenience: encode to a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode(&mut w);
        w.into_vec()
    }

    /// Convenience: decode from a byte slice, requiring full consumption.
    fn from_bytes(bytes: &[u8]) -> Result<Self, PayloadError> {
        let mut r = WireReader::new(Bytes::copy_from_slice(bytes));
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(PayloadError::Corrupt("trailing bytes"));
        }
        Ok(v)
    }
}

/// Decodes one full frame out of a ref-counted buffer, threading a
/// [`NameInterner`] through the decode so recurring field and type names
/// resolve to shared `Arc<str>`s instead of fresh allocations.
///
/// This is the zero-copy sibling of [`Payload::from_bytes`]: `frame` is
/// consumed by reference count, not copied, so `Bytes`-backed values in
/// the decoded payload alias the frame's allocation. The interner is
/// borrowed for the duration of the decode and handed back afterwards,
/// letting a connection reuse one cache across its whole lifetime.
pub fn decode_frame<T: Payload>(
    frame: Bytes,
    interner: &mut NameInterner,
) -> Result<T, PayloadError> {
    let mut r = WireReader::with_interner(frame, std::mem::take(interner));
    let out = T::decode(&mut r);
    let trailing = r.remaining();
    if let Some(cache) = r.into_interner() {
        *interner = cache;
    }
    let v = out?;
    if trailing != 0 {
        return Err(PayloadError::Corrupt("trailing bytes"));
    }
    Ok(v)
}

/// A bounded cache of recurring wire names (tuple field names, type
/// names).
///
/// Task tuples repeat the same handful of names millions of times; the
/// interner turns each repeat into an `Arc` refcount bump instead of a
/// heap allocation. Bounded on both entry count and name length so a
/// hostile peer streaming unique names cannot grow it without limit —
/// once full, unseen names simply decode unshared.
///
/// Names are hashed with the crate's multiplicative `FxBuild`, not
/// SipHash: every field name of every decoded tuple is looked up here,
/// and the keyed hash was several percent of a framework-bound job's
/// CPU. The keys do come off the wire, but the same two caps bound what
/// a collision flood can do — at most 256 colliding 64-byte entries,
/// i.e. a lookup degrades to comparing against 256 short strings, once
/// per name, on the attacker's own connection.
#[derive(Debug, Default)]
pub struct NameInterner {
    set: HashSet<Arc<str>, FxBuild>,
}

impl NameInterner {
    /// Entry cap; past it, new names are no longer cached.
    const MAX_ENTRIES: usize = 256;
    /// Names longer than this are never cached (they are almost
    /// certainly data, not schema).
    const MAX_NAME_LEN: usize = 64;

    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached name count.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The shared `Arc<str>` for `name`, caching it when within bounds.
    pub fn intern(&mut self, name: &str) -> Arc<str> {
        if let Some(hit) = self.set.get(name) {
            return hit.clone();
        }
        let arc: Arc<str> = Arc::from(name);
        if name.len() <= Self::MAX_NAME_LEN && self.set.len() < Self::MAX_ENTRIES {
            self.set.insert(arc.clone());
        }
        arc
    }
}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Finishes and returns the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Finishes and returns the backing vector without copying.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf.into_vec()
    }

    /// The bytes written so far, borrowed.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Empties the writer, keeping its allocation (scratch reuse).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Drops everything written after the first `len` bytes (taking back
    /// a partly encoded value), keeping the allocation.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Overwrites the `u32` at byte offset `at` — how a length prefix is
    /// filled in once the value behind it has been encoded in place.
    pub fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Allocated capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Shrinks the allocation to at most `min_capacity` (high-water decay).
    pub fn shrink_to(&mut self, min_capacity: usize) {
        self.buf.shrink_to(min_capacity);
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    /// Appends an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64_le(v);
    }

    /// Appends an `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.put_u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.put_slice(v.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn put_blob(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.put_slice(v);
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u32(v.len() as u32);
        for x in v {
            self.put_f64(*x);
        }
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_u32(v.len() as u32);
        for x in v {
            self.put_u32(*x);
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Consuming decoder over a byte buffer.
///
/// The buffer is a ref-counted [`Bytes`], so decoding can hand out
/// zero-copy views of it ([`WireReader::get_bytes`]) that stay valid as
/// long as any view lives. With an attached [`NameInterner`]
/// ([`WireReader::with_interner`] or [`decode_frame`]), recurring names
/// decode to shared `Arc<str>`s.
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
    interner: Option<NameInterner>,
}

impl WireReader {
    /// Wraps a buffer for decoding.
    pub fn new(buf: Bytes) -> Self {
        Self {
            buf,
            interner: None,
        }
    }

    /// Wraps a buffer for decoding with a name cache attached; recover it
    /// with [`WireReader::into_interner`] when done.
    pub fn with_interner(buf: Bytes, interner: NameInterner) -> Self {
        Self {
            buf,
            interner: Some(interner),
        }
    }

    /// Takes back the attached name cache, if any.
    pub fn into_interner(self) -> Option<NameInterner> {
        self.interner
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize) -> Result<(), PayloadError> {
        if self.buf.remaining() < n {
            Err(PayloadError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, PayloadError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PayloadError> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PayloadError> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, PayloadError> {
        self.need(8)?;
        Ok(self.buf.get_i64_le())
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, PayloadError> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    /// Reads a bool; only 0 and 1 are legal encodings.
    pub fn get_bool(&mut self) -> Result<bool, PayloadError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(PayloadError::Corrupt("bool tag")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, PayloadError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let raw = self.buf.split_to(len);
        String::from_utf8(raw.to_vec()).map_err(|_| PayloadError::Corrupt("utf8"))
    }

    /// Reads a length-prefixed byte blob into a fresh vector.
    pub fn get_blob(&mut self) -> Result<Vec<u8>, PayloadError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        Ok(self.buf.split_to(len).to_vec())
    }

    /// Reads a length-prefixed byte blob as a zero-copy view of the
    /// underlying frame. The view keeps the whole frame allocation alive
    /// until dropped.
    pub fn get_bytes(&mut self) -> Result<Bytes, PayloadError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        Ok(self.buf.split_to(len))
    }

    /// Reads a length-prefixed UTF-8 name as a shared `Arc<str>`,
    /// deduplicated through the attached [`NameInterner`] when present.
    pub fn get_name(&mut self) -> Result<Arc<str>, PayloadError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let s = std::str::from_utf8(&self.buf[..len]).map_err(|_| PayloadError::Corrupt("utf8"))?;
        let name = match &mut self.interner {
            Some(cache) => cache.intern(s),
            None => Arc::from(s),
        };
        self.buf.advance(len);
        Ok(name)
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, PayloadError> {
        let len = self.get_u32()? as usize;
        self.need(len.checked_mul(8).ok_or(PayloadError::Corrupt("length"))?)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.buf.get_f64_le());
        }
        Ok(out)
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, PayloadError> {
        let len = self.get_u32()? as usize;
        self.need(len.checked_mul(4).ok_or(PayloadError::Corrupt("length"))?)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.buf.get_u32_le());
        }
        Ok(out)
    }
}

impl Payload for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u32(*self);
    }
    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        r.get_u32()
    }
}

impl Payload for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(*self);
    }
    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        r.get_u64()
    }
}

impl Payload for i64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_i64(*self);
    }
    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        r.get_i64()
    }
}

impl Payload for f64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f64(*self);
    }
    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        r.get_f64()
    }
}

impl Payload for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        r.get_str()
    }
}

impl Payload for Vec<f64> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f64_slice(self);
    }
    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        r.get_f64_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Sample {
        id: u32,
        label: String,
        xs: Vec<f64>,
        flag: bool,
    }

    impl Payload for Sample {
        fn encode(&self, w: &mut WireWriter) {
            w.put_u32(self.id);
            w.put_str(&self.label);
            w.put_f64_slice(&self.xs);
            w.put_bool(self.flag);
        }
        fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
            Ok(Sample {
                id: r.get_u32()?,
                label: r.get_str()?,
                xs: r.get_f64_vec()?,
                flag: r.get_bool()?,
            })
        }
    }

    #[test]
    fn struct_roundtrip() {
        let s = Sample {
            id: 9,
            label: "strip-3".into(),
            xs: vec![1.0, -2.5, f64::MAX],
            flag: true,
        };
        let bytes = s.to_bytes();
        assert_eq!(Sample::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn truncated_fails() {
        let s = Sample {
            id: 1,
            label: "x".into(),
            xs: vec![],
            flag: false,
        };
        let bytes = s.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Sample::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert_eq!(
            u32::from_bytes(&bytes),
            Err(PayloadError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let mut r = WireReader::new(Bytes::from_static(&[2]));
        assert_eq!(r.get_bool(), Err(PayloadError::Corrupt("bool tag")));
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = WireWriter::new();
        w.put_u32(2);
        w.put_u8(0xff);
        w.put_u8(0xfe);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_str(), Err(PayloadError::Corrupt("utf8")));
    }

    #[test]
    fn primitive_impls_roundtrip() {
        assert_eq!(u32::from_bytes(&5u32.to_bytes()).unwrap(), 5);
        assert_eq!(u64::from_bytes(&7u64.to_bytes()).unwrap(), 7);
        assert_eq!(i64::from_bytes(&(-3i64).to_bytes()).unwrap(), -3);
        assert_eq!(f64::from_bytes(&1.25f64.to_bytes()).unwrap(), 1.25);
        assert_eq!(
            String::from_bytes(&"hello".to_string().to_bytes()).unwrap(),
            "hello"
        );
        let xs = vec![0.5, 1.5];
        assert_eq!(Vec::<f64>::from_bytes(&xs.to_bytes()).unwrap(), xs);
    }

    #[test]
    fn u32_slice_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u32_slice(&[1, 2, 3]);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn get_bytes_is_a_zero_copy_view() {
        let mut w = WireWriter::new();
        w.put_blob(&[9u8; 32]);
        let frame = w.finish();
        let frame_ptr = frame.as_ref().as_ptr();
        let mut r = WireReader::new(frame);
        let view = r.get_bytes().unwrap();
        assert_eq!(view.as_ref(), &[9u8; 32]);
        // The view points into the frame (4 bytes in, past the length
        // prefix) rather than at a copy.
        assert_eq!(view.as_ref().as_ptr(), unsafe { frame_ptr.add(4) });
    }

    #[test]
    fn get_name_interns_repeats() {
        let mut w = WireWriter::new();
        w.put_str("task_id");
        w.put_str("task_id");
        w.put_str("payload");
        let mut r = WireReader::with_interner(w.finish(), NameInterner::new());
        let a = r.get_name().unwrap();
        let b = r.get_name().unwrap();
        let c = r.get_name().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "repeat must share one allocation");
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(&*a, "task_id");
        assert_eq!(&*c, "payload");
        assert_eq!(r.into_interner().unwrap().len(), 2);
    }

    #[test]
    fn interner_is_bounded() {
        let mut cache = NameInterner::new();
        // Oversized names never enter the cache.
        let long = "x".repeat(NameInterner::MAX_NAME_LEN + 1);
        let _ = cache.intern(&long);
        assert!(cache.is_empty());
        // The entry cap holds under a flood of unique names.
        for i in 0..2 * NameInterner::MAX_ENTRIES {
            let _ = cache.intern(&format!("name-{i}"));
        }
        assert_eq!(cache.len(), NameInterner::MAX_ENTRIES);
        // A full cache still hands out correct (uncached) names.
        assert_eq!(&*cache.intern("overflow"), "overflow");
    }

    #[test]
    fn decode_frame_matches_from_bytes_and_rejects_trailing() {
        let s = Sample {
            id: 3,
            label: "frame".into(),
            xs: vec![0.5],
            flag: true,
        };
        let mut bytes = s.to_bytes();
        let mut cache = NameInterner::new();
        let decoded: Sample = decode_frame(Bytes::copy_from_slice(&bytes), &mut cache).unwrap();
        assert_eq!(decoded, s);
        bytes.push(0);
        assert_eq!(
            decode_frame::<Sample>(Bytes::from(bytes), &mut cache),
            Err(PayloadError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn writer_scratch_reuse_keeps_capacity() {
        let mut w = WireWriter::with_capacity(128);
        w.put_blob(&[1u8; 100]);
        assert!(w.capacity() >= 128);
        w.clear();
        assert!(w.is_empty());
        assert!(w.capacity() >= 128);
        w.put_u32(7);
        assert_eq!(w.as_slice(), &7u32.to_le_bytes());
        assert_eq!(w.into_vec(), 7u32.to_le_bytes().to_vec());
    }

    #[test]
    fn huge_length_prefix_is_truncation_not_panic() {
        let mut w = WireWriter::new();
        w.put_u32(u32::MAX);
        let mut r = WireReader::new(w.finish());
        assert_eq!(r.get_blob(), Err(PayloadError::Truncated));
        let mut r2 = WireReader::new({
            let mut w = WireWriter::new();
            w.put_u32(u32::MAX);
            w.finish()
        });
        assert!(r2.get_f64_vec().is_err());
    }
}

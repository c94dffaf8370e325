//! Binary payload codec.
//!
//! JavaSpaces requires entries crossing the space to be serializable; the
//! Rust analogue is the [`Payload`] trait, a small hand-rolled binary codec
//! that writes into a `Vec<u8>` and reads from a shared [`Bytes`] frame.
//! Application task bodies implement `Payload` and travel through the
//! space as `Value::Bytes` fields, so the space itself stays
//! application-agnostic — the separation of concerns §3 of the paper
//! credits to JavaSpaces.
//!
//! All integers are little-endian. Strings and byte blobs are length-prefixed
//! with a `u32`.

use bytes::Bytes;
use std::fmt;
use std::sync::Arc;

use crate::shape::Shape;
use crate::value::Str;

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
/// connection's [`NameInterner`] through the decode so tuples and
/// templates of a shape the connection has seen before reuse its shape.
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
    *interner = r.into_interner();
    let v = out?;
    if trailing != 0 {
        return Err(PayloadError::Corrupt("trailing bytes"));
    }
    Ok(v)
}

/// Whether a cached shape belongs to tuples or to templates: a connection
/// typically writes one shape of a type and takes with another, and the
/// two must not evict each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShapeKind {
    /// Field names of a tuple.
    Tuple,
    /// Constrained field names of a template.
    Template,
}

/// A connection's shape cache: the last [`Shape`] decoded for each type
/// name, tuples and templates apart.
///
/// Task tuples repeat the same shape millions of times. A decoder that
/// finds the type name here compares the frame's field-name bytes with
/// the cached shape's names; when they all match, the tuple reuses the
/// shape — no name is hashed, UTF-8-checked, allocated or refcounted.
/// Anything else decodes the names, canonicalises them and looks the
/// shape up in the process-wide table, which becomes the type's cached
/// shape. The cache is keyed by content, so it survives reconnects.
///
/// Bounded: at most `MAX_ENTRIES` type names per kind, and shapes over
/// the table's caps (too many fields, over-long names) are never cached,
/// so a peer streaming distinct shapes cannot grow it.
#[derive(Debug, Default)]
pub struct NameInterner {
    /// Indexed by [`ShapeKind`].
    by_kind: [Vec<Arc<Shape>>; 2],
}

impl NameInterner {
    /// Type names cached per kind; past it, new types decode uncached.
    pub const MAX_ENTRIES: usize = 64;

    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cached shape count.
    pub fn len(&self) -> usize {
        self.by_kind.iter().map(Vec::len).sum()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached shape whose type name is `type_name`.
    fn find(&self, kind: ShapeKind, type_name: &[u8]) -> Option<&Arc<Shape>> {
        self.by_kind[kind as usize]
            .iter()
            .find(|s| s.type_name().as_bytes() == type_name)
    }

    /// Makes `shape` its type's cached shape, if it is within the caps.
    pub(crate) fn remember(&mut self, kind: ShapeKind, shape: &Arc<Shape>) {
        if !shape.is_cacheable() {
            return;
        }
        let slots = &mut self.by_kind[kind as usize];
        match slots
            .iter()
            .position(|s| s.type_name() == shape.type_name())
        {
            Some(i) => slots[i] = shape.clone(),
            None if slots.len() < Self::MAX_ENTRIES => slots.push(shape.clone()),
            None => {}
        }
    }
}

/// Append-only encoder into a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Finishes and returns the encoded bytes as a shared buffer.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finishes and returns the backing vector without copying.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
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
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_blob(v.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn put_blob(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
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

/// Consuming decoder over a byte buffer: the buffer and a read position.
///
/// The buffer is a ref-counted [`Bytes`], so decoding can hand out
/// zero-copy views of it ([`WireReader::get_bytes`]) that stay valid as
/// long as any view lives. Recurring shapes decode through the reader's
/// [`NameInterner`] (an empty one unless attached with
/// [`WireReader::with_interner`] or [`decode_frame`]).
#[derive(Debug)]
pub struct WireReader {
    buf: Bytes,
    /// Bytes of `buf` consumed so far.
    pos: usize,
    interner: NameInterner,
}

impl WireReader {
    /// Wraps a buffer for decoding.
    pub fn new(buf: Bytes) -> Self {
        Self::with_interner(buf, NameInterner::new())
    }

    /// Wraps a buffer for decoding with a shape cache attached; recover it
    /// with [`WireReader::into_interner`] when done.
    pub fn with_interner(buf: Bytes, interner: NameInterner) -> Self {
        Self {
            buf,
            pos: 0,
            interner,
        }
    }

    /// Takes back the shape cache.
    pub fn into_interner(self) -> NameInterner {
        self.interner
    }

    /// The shape cache, for the tuple and template decoders.
    pub(crate) fn interner(&mut self) -> &mut NameInterner {
        &mut self.interner
    }

    /// Bytes consumed so far: a point [`WireReader::rewind`] can return to.
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// Goes back to `position`, to read what follows it again.
    pub(crate) fn rewind(&mut self, position: usize) {
        assert!(position <= self.pos, "a reader rewinds, never skips");
        self.pos = position;
    }

    /// The bytes not yet consumed.
    fn rest(&self) -> &[u8] {
        &self.buf[self.pos..]
    }

    /// The length-prefixed bytes at the read position, not consumed.
    fn peek_prefixed(&self) -> Result<&[u8], PayloadError> {
        self.need(4)?;
        let len = u32::from_le_bytes(self.rest()[..4].try_into().expect("four bytes")) as usize;
        self.need(4 + len)?;
        Ok(&self.rest()[4..4 + len])
    }

    /// If the length-prefixed name at the read position is `name`'s bytes,
    /// consumes it and returns true; otherwise consumes nothing.
    pub(crate) fn skip_name_if(&mut self, name: &str) -> Result<bool, PayloadError> {
        let same = self.peek_prefixed()? == name.as_bytes();
        if same {
            self.pos += 4 + name.len();
        }
        Ok(same)
    }

    /// The `kind` shape cached for the length-prefixed type name at the
    /// read position (for an untyped template: for the empty type name,
    /// which is not on the wire); on a hit the name is consumed, on a miss
    /// nothing is.
    pub(crate) fn cached_shape(
        &mut self,
        kind: ShapeKind,
        typed: bool,
    ) -> Result<Option<Arc<Shape>>, PayloadError> {
        if !typed {
            return Ok(self.interner.find(kind, b"").cloned());
        }
        let name = self.peek_prefixed()?;
        let hit = self.interner.find(kind, name).cloned();
        if let Some(shape) = &hit {
            self.pos += 4 + shape.type_name().len();
        }
        Ok(hit)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn need(&self, n: usize) -> Result<(), PayloadError> {
        if self.remaining() < n {
            Err(PayloadError::Truncated)
        } else {
            Ok(())
        }
    }

    /// Consumes the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&[u8], PayloadError> {
        self.need(n)?;
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    /// Consumes the next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], PayloadError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, PayloadError> {
        Ok(self.take_array::<1>()?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, PayloadError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, PayloadError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, PayloadError> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    /// Reads an `f64`.
    pub fn get_f64(&mut self) -> Result<f64, PayloadError> {
        Ok(f64::from_le_bytes(self.take_array()?))
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
        let raw = self.get_blob()?;
        String::from_utf8(raw).map_err(|_| PayloadError::Corrupt("utf8"))
    }

    /// Reads a length-prefixed UTF-8 string as a checked view of the
    /// underlying frame, like [`WireReader::get_bytes`].
    pub fn get_str_view(&mut self) -> Result<Str, PayloadError> {
        Str::from_utf8(self.get_bytes()?).map_err(|_| PayloadError::Corrupt("utf8"))
    }

    /// Reads a length-prefixed byte blob into a fresh vector.
    pub fn get_blob(&mut self) -> Result<Vec<u8>, PayloadError> {
        let len = self.get_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed byte blob as a zero-copy view of the
    /// underlying frame. The view keeps the whole frame allocation alive
    /// until dropped.
    pub fn get_bytes(&mut self) -> Result<Bytes, PayloadError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        self.pos += len;
        Ok(self.buf.slice(self.pos - len..self.pos))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, PayloadError> {
        let raw = self.take_prefixed_array::<8>()?;
        Ok(raw
            .chunks_exact(8)
            .map(|x| f64::from_le_bytes(x.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, PayloadError> {
        let raw = self.take_prefixed_array::<4>()?;
        Ok(raw
            .chunks_exact(4)
            .map(|x| u32::from_le_bytes(x.try_into().expect("4 bytes")))
            .collect())
    }

    /// Consumes a `u32` element count and that many `N`-byte elements.
    fn take_prefixed_array<const N: usize>(&mut self) -> Result<&[u8], PayloadError> {
        let len = self.get_u32()? as usize;
        self.take(len.checked_mul(N).ok_or(PayloadError::Corrupt("length"))?)
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
        let mut r = WireReader::new(Bytes::copy_from_slice(&[2]));
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
    fn interner_is_bounded() {
        use crate::shape::MAX_NAME_LEN;
        let mut cache = NameInterner::new();
        // Shapes over the table's caps are never cached.
        let long = "x".repeat(MAX_NAME_LEN + 1);
        cache.remember(ShapeKind::Tuple, &Shape::new("t", &[&long]));
        assert!(cache.is_empty());
        // The entry cap holds under a flood of distinct types.
        for i in 0..2 * NameInterner::MAX_ENTRIES {
            cache.remember(ShapeKind::Tuple, &Shape::new(&format!("type-{i}"), &["a"]));
        }
        assert_eq!(cache.len(), NameInterner::MAX_ENTRIES);
        // One shape per type: a new shape of a cached type replaces it.
        cache.remember(ShapeKind::Tuple, &Shape::new("type-0", &["b"]));
        assert_eq!(cache.len(), NameInterner::MAX_ENTRIES);
        let hit = cache.find(ShapeKind::Tuple, b"type-0").unwrap();
        assert_eq!(hit.names().collect::<Vec<_>>(), ["b"]);
        // Kinds are apart.
        assert!(cache.find(ShapeKind::Template, b"type-0").is_none());
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

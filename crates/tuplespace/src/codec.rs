//! [`Payload`] codecs for [`Value`], [`Tuple`] and [`Template`] — what the
//! remote-space protocol (and anything else that ships tuples across a
//! wire) serializes.

use std::sync::Arc;

use bytes::Bytes;

use crate::payload::{Payload, PayloadError, ShapeKind, WireReader, WireWriter};
use crate::shape::{canonicalise, Shape};
use crate::template::{Constraint, Template};
use crate::tuple::Tuple;
use crate::value::Value;

impl Payload for Value {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            Value::Int(v) => {
                w.put_u8(0);
                w.put_i64(*v);
            }
            Value::Float(v) => {
                w.put_u8(1);
                w.put_f64(*v);
            }
            Value::Bool(v) => {
                w.put_u8(2);
                w.put_bool(*v);
            }
            Value::Str(v) => {
                w.put_u8(3);
                w.put_str(v);
            }
            Value::Bytes(v) => {
                w.put_u8(4);
                w.put_blob(v);
            }
            Value::List(items) => {
                w.put_u8(5);
                w.put_u32(items.len() as u32);
                for item in items {
                    item.encode(w);
                }
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        match r.get_u8()? {
            0 => Ok(Value::Int(r.get_i64()?)),
            1 => Ok(Value::Float(r.get_f64()?)),
            2 => Ok(Value::Bool(r.get_bool()?)),
            3 => Ok(Value::Str(r.get_str()?)),
            // Zero-copy: the decoded value is a view into the frame.
            4 => Ok(Value::Bytes(r.get_bytes()?)),
            5 => {
                let n = r.get_u32()? as usize;
                if n > 1 << 20 {
                    return Err(PayloadError::Corrupt("list length"));
                }
                let mut items = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    items.push(Value::decode(r)?);
                }
                Ok(Value::List(items))
            }
            _ => Err(PayloadError::Corrupt("value tag")),
        }
    }
}

/// Fewest wire bytes a named field takes: a 4-byte name length and at
/// least a one-byte constraint (`Exists`). A count prefix larger than the
/// frame could hold is truncation, found before anything is allocated
/// for it.
const MIN_FIELD_BYTES: usize = 5;

/// Decodes `[type name] | count:u32 | count × (name, item)` into a shape
/// and its items in shape order, through the reader's shape cache.
///
/// While the frame's names equal those of the type's cached shape they
/// are skipped by byte compare, and a frame whose names all match reuses
/// that shape as is. Otherwise the names are decoded and checked, the
/// fields canonicalised, and the shape looked up and cached. Items decode
/// straight into their final array.
fn decode_fields<T: Clone>(
    r: &mut WireReader,
    kind: ShapeKind,
    typed: bool,
    count_what: &'static str,
    mut item: impl FnMut(&mut WireReader) -> Result<T, PayloadError>,
    filler: impl Fn() -> T,
) -> Result<(Arc<Shape>, Arc<[T]>), PayloadError> {
    let cached = r.cached_shape(kind, typed)?;
    let type_name = match (&cached, typed) {
        (None, true) => Some(r.get_bytes()?),
        _ => None,
    };
    let n = r.get_u32()? as usize;
    if n > 1 << 16 {
        return Err(PayloadError::Corrupt(count_what));
    }
    if n > r.remaining() / MIN_FIELD_BYTES {
        return Err(PayloadError::Truncated);
    }
    let known = cached.as_ref().filter(|s| s.len() == n);
    // The leading names that matched `known`, and every name after them.
    let mut matched = 0;
    let mut names: Vec<Bytes> = Vec::new();
    let mut failed = None;
    let mut field = |r: &mut WireReader, i: usize| -> Result<T, PayloadError> {
        match known {
            Some(shape) if matched == i && r.skip_name_if(shape.name(i))? => matched += 1,
            _ => names.push(r.get_bytes()?),
        }
        item(r)
    };
    // A mapped range is `TrustedLen`, so this is one exact allocation; on
    // an error the remaining slots are filled without reading.
    let items: Arc<[T]> = (0..n)
        .map(|i| {
            if failed.is_none() {
                match field(r, i) {
                    Ok(v) => return v,
                    Err(e) => failed = Some(e),
                }
            }
            filler()
        })
        .collect();
    if let Some(e) = failed {
        return Err(e);
    }
    if let Some(shape) = known.filter(|_| matched == n) {
        return Ok((shape.clone(), items));
    }
    let ty = match (&type_name, &cached) {
        (Some(raw), _) => utf8(raw)?,
        (None, Some(shape)) => shape.type_name(),
        (None, None) => "",
    };
    let mut strs: Vec<&str> = Vec::with_capacity(n);
    if let Some(shape) = known {
        strs.extend(shape.names().take(matched));
    }
    for raw in &names {
        strs.push(utf8(raw)?);
    }
    let (shape, items) = canonicalise(ty, &strs, items);
    r.interner().remember(kind, &shape);
    Ok((shape, items))
}

fn utf8(raw: &[u8]) -> Result<&str, PayloadError> {
    std::str::from_utf8(raw).map_err(|_| PayloadError::Corrupt("utf8"))
}

impl Payload for Tuple {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self.type_name());
        w.put_u32(self.len() as u32);
        for (name, value) in self.fields() {
            w.put_str(name);
            value.encode(w);
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        let (shape, values) = decode_fields(
            r,
            ShapeKind::Tuple,
            true,
            "field count",
            Value::decode,
            || Value::Bool(false),
        )?;
        Ok(Tuple::from_parts(shape, values))
    }
}

impl Payload for Template {
    fn encode(&self, w: &mut WireWriter) {
        match self.type_name() {
            Some(ty) => {
                w.put_bool(true);
                w.put_str(ty);
            }
            None => w.put_bool(false),
        }
        w.put_u32(self.constraints().len() as u32);
        for (name, constraint) in self.constraints() {
            w.put_str(name);
            match constraint {
                Constraint::Exact(v) => {
                    w.put_u8(0);
                    v.encode(w);
                }
                Constraint::OneOf(vs) => {
                    w.put_u8(1);
                    w.put_u32(vs.len() as u32);
                    for v in vs {
                        v.encode(w);
                    }
                }
                Constraint::IntRange(lo, hi) => {
                    w.put_u8(2);
                    w.put_i64(*lo);
                    w.put_i64(*hi);
                }
                Constraint::FloatRange(lo, hi) => {
                    w.put_u8(3);
                    w.put_f64(*lo);
                    w.put_f64(*hi);
                }
                Constraint::Exists => w.put_u8(4),
            }
        }
    }

    fn decode(r: &mut WireReader) -> Result<Self, PayloadError> {
        let typed = r.get_bool()?;
        let (shape, constraints) = decode_fields(
            r,
            ShapeKind::Template,
            typed,
            "constraint count",
            decode_constraint,
            || Constraint::Exists,
        )?;
        Ok(Template::from_parts(typed, shape, constraints))
    }
}

fn decode_constraint(r: &mut WireReader) -> Result<Constraint, PayloadError> {
    Ok(match r.get_u8()? {
        0 => Constraint::Exact(Value::decode(r)?),
        1 => {
            let k = r.get_u32()? as usize;
            if k > 1 << 16 {
                return Err(PayloadError::Corrupt("one-of length"));
            }
            let mut vs = Vec::with_capacity(k.min(1024));
            for _ in 0..k {
                vs.push(Value::decode(r)?);
            }
            Constraint::OneOf(vs)
        }
        2 => {
            let lo = r.get_i64()?;
            let hi = r.get_i64()?;
            Constraint::IntRange(lo, hi)
        }
        3 => {
            let lo = r.get_f64()?;
            let hi = r.get_f64()?;
            Constraint::FloatRange(lo, hi)
        }
        4 => Constraint::Exists,
        _ => return Err(PayloadError::Corrupt("constraint tag")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rich_tuple() -> Tuple {
        Tuple::build("acc.task")
            .field("id", 42i64)
            .field("weight", -1.5f64)
            .field("live", true)
            .field("label", "strip-3")
            .field("payload", vec![0u8, 255, 128])
            .field(
                "coords",
                vec![
                    Value::Int(1),
                    Value::Str("x".into()),
                    Value::List(vec![Value::Bool(false)]),
                ],
            )
            .done()
    }

    #[test]
    fn value_roundtrip_all_variants() {
        for v in [
            Value::Int(i64::MIN),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::Str("héllo".into()),
            Value::from(vec![1u8, 2, 3]),
            Value::List(vec![Value::Int(1), Value::List(vec![])]),
        ] {
            assert_eq!(Value::from_bytes(&v.to_bytes()).unwrap(), v);
        }
    }

    #[test]
    fn tuple_roundtrip() {
        let t = rich_tuple();
        assert_eq!(Tuple::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn template_roundtrip_all_constraints() {
        let tmpl = Template::build("acc.task")
            .eq("id", 42i64)
            .one_of("label", vec!["a".into(), "b".into()])
            .int_range("x", -5, 5)
            .float_range("y", 0.0, 1.0)
            .exists("payload")
            .done();
        let decoded = Template::from_bytes(&tmpl.to_bytes()).unwrap();
        assert_eq!(decoded, tmpl);

        let any = Template::any_type().exists("k").done();
        assert_eq!(Template::from_bytes(&any.to_bytes()).unwrap(), any);

        // The smallest field on the wire: an empty name, `Exists`.
        let tiny = Template::build("t").exists("").done();
        assert_eq!(Template::from_bytes(&tiny.to_bytes()).unwrap(), tiny);
    }

    #[test]
    fn decoded_template_still_matches() {
        let tmpl = Template::build("acc.task").eq("id", 42i64).done();
        let decoded = Template::from_bytes(&tmpl.to_bytes()).unwrap();
        assert!(decoded.matches(&rich_tuple()));
    }

    #[test]
    fn corrupt_tags_rejected() {
        assert!(Value::from_bytes(&[9]).is_err());
        let mut bytes = rich_tuple().to_bytes();
        let last = bytes.len() - 1;
        bytes.truncate(last);
        assert!(Tuple::from_bytes(&bytes).is_err());
    }

    #[test]
    fn decoded_bytes_value_views_the_frame() {
        let t = Tuple::build("blob").field("payload", vec![7u8; 64]).done();
        let frame = bytes::Bytes::from(t.to_bytes());
        let frame_ptr = frame.as_ref().as_ptr();
        let frame_len = frame.len();
        let mut r = WireReader::new(frame);
        let decoded = Tuple::decode(&mut r).unwrap();
        let view = decoded.get_bytes("payload").unwrap();
        let view_ptr = view.as_ptr() as usize;
        let lo = frame_ptr as usize;
        assert!(
            view_ptr >= lo && view_ptr + view.len() <= lo + frame_len,
            "decoded blob must alias the frame, not a copy"
        );
    }

    #[test]
    fn length_caps_reject_at_boundary() {
        // Value::List: > 2^20 items is corrupt, exactly the cap is merely
        // truncated (the items aren't there).
        let mut w = WireWriter::new();
        w.put_u8(5);
        w.put_u32((1 << 20) + 1);
        assert_eq!(
            Value::from_bytes(w.as_slice()),
            Err(PayloadError::Corrupt("list length"))
        );
        let mut w = WireWriter::new();
        w.put_u8(5);
        w.put_u32(1 << 20);
        assert_eq!(
            Value::from_bytes(w.as_slice()),
            Err(PayloadError::Truncated)
        );

        // Tuple: > 2^16 fields is corrupt.
        let mut w = WireWriter::new();
        w.put_str("t");
        w.put_u32((1 << 16) + 1);
        assert_eq!(
            Tuple::from_bytes(w.as_slice()),
            Err(PayloadError::Corrupt("field count"))
        );
        let mut w = WireWriter::new();
        w.put_str("t");
        w.put_u32(1 << 16);
        assert_eq!(
            Tuple::from_bytes(w.as_slice()),
            Err(PayloadError::Truncated)
        );

        // Template: constraint count and one-of caps.
        let mut w = WireWriter::new();
        w.put_bool(false);
        w.put_u32((1 << 16) + 1);
        assert_eq!(
            Template::from_bytes(w.as_slice()),
            Err(PayloadError::Corrupt("constraint count"))
        );
        let mut w = WireWriter::new();
        w.put_bool(false);
        w.put_u32(1);
        w.put_str("f");
        w.put_u8(1); // OneOf
        w.put_u32((1 << 16) + 1);
        assert_eq!(
            Template::from_bytes(w.as_slice()),
            Err(PayloadError::Corrupt("one-of length"))
        );
    }

    /// Canonicalising a frame's names is one sort, not a search per field:
    /// the largest tuple and template a frame may carry, their names in
    /// reverse order, decode in a blink (a quadratic pass took seconds).
    #[test]
    fn widest_reversed_frames_decode_like_the_builder_builds() {
        const N: usize = 1 << 16;
        let name = |i: usize| format!("f{:05}", N - 1 - i);
        let mut w = WireWriter::new();
        w.put_str("wide");
        w.put_u32(N as u32);
        let mut builder = Tuple::build("wide");
        for i in 0..N {
            w.put_str(&name(i));
            Value::Int(i as i64).encode(&mut w);
            builder = builder.field(name(i), i as i64);
        }
        let decoded = Tuple::from_bytes(w.as_slice()).unwrap();
        assert_eq!(decoded, builder.done());
        assert_eq!(decoded.get_int(&name(0)), Some(0));

        let mut w = WireWriter::new();
        w.put_bool(true);
        w.put_str("wide");
        w.put_u32(N as u32);
        let mut builder = Template::build("wide");
        for i in 0..N {
            w.put_str(&name(i));
            w.put_u8(4); // Exists
            builder = builder.exists(name(i));
        }
        assert_eq!(Template::from_bytes(w.as_slice()).unwrap(), builder.done());
    }

    #[test]
    fn interned_decode_shares_names_across_tuples() {
        use crate::payload::{decode_frame, NameInterner};
        use std::sync::Arc as StdArc;
        let a = Tuple::build("acc.task").field("task_id", 1i64).done();
        let b = Tuple::build("acc.task").field("task_id", 2i64).done();
        let mut cache = NameInterner::new();
        let da: Tuple = decode_frame(bytes::Bytes::from(a.to_bytes()), &mut cache).unwrap();
        let db: Tuple = decode_frame(bytes::Bytes::from(b.to_bytes()), &mut cache).unwrap();
        assert_eq!(da, a);
        assert_eq!(db, b);
        // One shape across both frames.
        assert!(StdArc::ptr_eq(da.shape(), db.shape()));
        assert_eq!(cache.len(), 1);
    }
}

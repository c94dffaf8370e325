//! Tuples: typed, named-field entries stored in a space.
//!
//! A [`Tuple`] is the Rust analogue of a JavaSpaces `Entry`: it carries a
//! type name (the Java class) and a set of named fields (the entry's public
//! fields). The type and field names are the tuple's [`Shape`], shared by
//! every tuple of that shape; the tuple itself is that shape plus its
//! values, in the shape's (sorted) name order, and optionally a trace
//! context: entry metadata, not a field.

use std::fmt;
use std::num::NonZeroU64;
use std::sync::Arc;

use acc_telemetry::TraceContext;

use crate::shape::{canonical_order, is_canonical, Shape};
use crate::value::Value;

/// An immutable, named-field record stored in a [`crate::Space`].
///
/// Cloning is two reference-count increments; dropping touches no name.
/// Equality, like matching, is over the type, names and values: the
/// trace context is metadata ([`Tuple::trace`]).
#[derive(Clone)]
pub struct Tuple {
    shape: Arc<Shape>,
    /// `values[i]` is the field named `shape.name(i)`.
    values: Arc<[Value]>,
    /// The trace context's ids (never zero), in 16 bytes: a space holds
    /// every tuple it stores inline.
    trace: Option<(NonZeroU64, NonZeroU64)>,
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        self.shape == other.shape && self.values == other.values
    }
}

impl Eq for Tuple {}

impl Tuple {
    /// Starts building a tuple of the given type.
    pub fn build(type_name: impl Into<Arc<str>>) -> TupleBuilder {
        TupleBuilder {
            type_name: type_name.into(),
            fields: Vec::new(),
        }
    }

    /// A tuple of `shape` whose field `i` is `values[i]`.
    ///
    /// # Panics
    /// When `values` does not have one value per field of `shape`.
    pub fn from_parts(shape: Arc<Shape>, values: Arc<[Value]>) -> Tuple {
        assert_eq!(
            shape.len(),
            values.len(),
            "one value per field of the shape"
        );
        Tuple {
            shape,
            values,
            trace: None,
        }
    }

    /// The trace context the tuple carries: the span of whoever wrote it,
    /// for whoever takes it to join. It travels with the tuple through a
    /// space and across the wire; the WAL does not keep it.
    pub fn trace(&self) -> Option<TraceContext> {
        self.trace.map(|(trace_id, span_id)| TraceContext {
            trace_id: trace_id.get(),
            span_id: span_id.get(),
        })
    }

    /// The tuple carrying `trace` as its trace context (none if either id
    /// is zero, which no context has).
    pub fn with_trace(mut self, trace: Option<TraceContext>) -> Tuple {
        self.trace =
            trace.and_then(|ctx| NonZeroU64::new(ctx.trace_id).zip(NonZeroU64::new(ctx.span_id)));
        self
    }

    /// The tuple's shape: its type and field names.
    pub fn shape(&self) -> &Arc<Shape> {
        &self.shape
    }

    /// The field values, in the shape's name order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The tuple's type name (the analogue of the entry's Java class).
    pub fn type_name(&self) -> &str {
        self.shape.type_name()
    }

    /// The shared type-name allocation (cheap to clone on hot paths).
    pub(crate) fn type_name_arc(&self) -> Arc<str> {
        self.shape.type_name_arc().clone()
    }

    /// All fields as `(name, value)`, sorted by name.
    pub fn fields(&self) -> impl ExactSizeIterator<Item = (&str, &Value)> + '_ {
        self.shape.names().zip(self.values.iter())
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the tuple has no fields.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Looks up a field by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.shape.position(name).map(|i| &self.values[i])
    }

    /// Integer field accessor.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(Value::as_int)
    }

    /// Float field accessor.
    pub fn get_float(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(Value::as_float)
    }

    /// Bool field accessor.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.get(name).and_then(Value::as_bool)
    }

    /// String field accessor.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(Value::as_str)
    }

    /// Bytes field accessor.
    pub fn get_bytes(&self, name: &str) -> Option<&[u8]> {
        self.get(name).and_then(Value::as_bytes)
    }

    /// List field accessor.
    pub fn get_list(&self, name: &str) -> Option<&[Value]> {
        self.get(name).and_then(Value::as_list)
    }

    /// Approximate serialized size of the tuple in bytes. Drives space
    /// statistics and the simulator's communication-cost model.
    pub fn size_hint(&self) -> usize {
        self.type_name().len()
            + self
                .fields()
                .map(|(n, v)| n.len() + v.size_hint())
                .sum::<usize>()
    }

    /// Returns a copy of this tuple with one field replaced or added.
    pub fn with_field(&self, name: impl Into<Arc<str>>, value: impl Into<Value>) -> Tuple {
        let mut builder = Tuple::build(self.shape.type_name_arc().clone());
        for (n, v) in self.fields() {
            builder = builder.field(n, v.clone());
        }
        builder.field(name, value).done()
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tuple")
            .field("type_name", &self.type_name())
            .field("fields", &self.fields().collect::<Vec<_>>())
            .finish()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{{", self.type_name())?;
        for (i, (n, v)) in self.fields().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{n}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// Builder for [`Tuple`]; later duplicate field names overwrite earlier ones.
#[derive(Debug)]
pub struct TupleBuilder {
    type_name: Arc<str>,
    fields: Vec<(Arc<str>, Value)>,
}

impl TupleBuilder {
    /// Adds (or overwrites) a field.
    pub fn field(mut self, name: impl Into<Arc<str>>, value: impl Into<Value>) -> Self {
        self.fields.push((name.into(), value.into()));
        self
    }

    /// Finishes the tuple: sorts the fields once and looks the shape up.
    pub fn done(self) -> Tuple {
        let names: Vec<&str> = self.fields.iter().map(|(n, _)| &**n).collect();
        if is_canonical(&names) {
            let shape = Shape::interned(&self.type_name, &names);
            let values = self.fields.into_iter().map(|(_, v)| v).collect();
            return Tuple::from_parts(shape, values);
        }
        let order = canonical_order(&names);
        let sorted: Vec<&str> = order.iter().map(|&i| names[i]).collect();
        let shape = Shape::interned(&self.type_name, &sorted);
        let mut slots: Vec<Option<Value>> = self.fields.into_iter().map(|(_, v)| Some(v)).collect();
        let values = order
            .iter()
            .map(|&i| slots[i].take().expect("each index kept once"))
            .collect();
        Tuple::from_parts(shape, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_access() {
        let t = Tuple::build("task")
            .field("id", 3i64)
            .field("label", "strip")
            .field("weight", 2.5f64)
            .field("done", false)
            .done();
        assert_eq!(t.type_name(), "task");
        assert_eq!(t.len(), 4);
        assert_eq!(t.get_int("id"), Some(3));
        assert_eq!(t.get_str("label"), Some("strip"));
        assert_eq!(t.get_float("weight"), Some(2.5));
        assert_eq!(t.get_bool("done"), Some(false));
        assert!(t.get("missing").is_none());
    }

    #[test]
    fn duplicate_field_overwrites() {
        let t = Tuple::build("t").field("x", 1i64).field("x", 2i64).done();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_int("x"), Some(2));
    }

    #[test]
    fn fields_are_sorted_canonically() {
        let a = Tuple::build("t").field("b", 1i64).field("a", 2i64).done();
        let b = Tuple::build("t").field("a", 2i64).field("b", 1i64).done();
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(a.shape(), b.shape()));
        assert_eq!(a.fields().next().unwrap().0, "a");
    }

    #[test]
    fn with_field_replaces_and_inserts() {
        let t = Tuple::build("t").field("a", 1i64).done();
        let t2 = t.with_field("a", 9i64).with_field("z", "new");
        assert_eq!(t2.get_int("a"), Some(9));
        assert_eq!(t2.get_str("z"), Some("new"));
        // Original untouched (immutability).
        assert_eq!(t.get_int("a"), Some(1));
        assert!(t.get("z").is_none());
    }

    #[test]
    fn the_trace_context_is_metadata_not_content() {
        let ctx = TraceContext {
            trace_id: 1,
            span_id: 2,
        };
        let t = Tuple::build("t").field("a", 1i64).done();
        let traced = t.clone().with_trace(Some(ctx));
        assert_eq!(traced.trace(), Some(ctx));
        assert_eq!(t.trace(), None);
        assert_eq!(traced, t, "equality ignores the trace context");
        assert_eq!(traced.len(), 1, "it is not a field");
    }

    #[test]
    fn display_is_readable() {
        let t = Tuple::build("task").field("id", 1i64).done();
        assert_eq!(format!("{t}"), "task{id: 1}");
    }

    #[test]
    fn size_hint_counts_names_and_values() {
        let t = Tuple::build("tt").field("ab", 1i64).done();
        assert_eq!(t.size_hint(), 2 + 2 + 8);
    }

    #[test]
    fn from_decoded_canonicalises_when_needed() {
        // What the decoder does with a frame's names and values.
        let from_decoded = |ty: &str, names: &[&str], values: Arc<[Value]>| {
            let (shape, values) = crate::shape::canonicalise(ty, names, values);
            Tuple::from_parts(shape, values)
        };
        // Canonical input: the values are kept as given.
        let values: Arc<[Value]> = vec![Value::Int(1), Value::Int(2)].into();
        let sorted = from_decoded("t", &["a", "b"], values.clone());
        assert!(Arc::ptr_eq(&sorted.values, &values));
        assert_eq!(
            sorted,
            Tuple::build("t").field("a", 1i64).field("b", 2i64).done()
        );
        // Unsorted + duplicate input: builder semantics (sort, later wins).
        let messy = from_decoded(
            "t",
            &["b", "a", "b"],
            vec![Value::Int(2), Value::Int(1), Value::Int(9)].into(),
        );
        assert_eq!(
            messy,
            Tuple::build("t")
                .field("b", 2i64)
                .field("a", 1i64)
                .field("b", 9i64)
                .done()
        );
        assert_eq!(messy.get_int("b"), Some(9));
    }

    #[test]
    #[should_panic(expected = "one value per field")]
    fn from_parts_checks_the_value_count() {
        Tuple::from_parts(Shape::new("t", &["a"]), Arc::from(Vec::new()));
    }

    #[test]
    fn empty_tuple() {
        let t = Tuple::build("empty").done();
        assert!(t.is_empty());
        assert_eq!(t.size_hint(), 5);
    }
}

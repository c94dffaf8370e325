//! Field values stored in tuples.
//!
//! JavaSpaces entries carry serialized Java objects; the Rust equivalent is a
//! closed set of typed values. Matching (and therefore equality) must be
//! deterministic, so floats compare by bit pattern.

use bytes::Bytes;
use std::fmt;
use std::ops::Deref;

/// A single typed field value inside a [`crate::Tuple`].
#[derive(Debug, Clone)]
pub enum Value {
    /// Signed 64-bit integer.
    Int(i64),
    /// IEEE-754 double. Compared bitwise so that matching is deterministic
    /// (`NaN` matches an identical `NaN`).
    Float(f64),
    /// Boolean flag.
    Bool(bool),
    /// UTF-8 string. Ref-counted like `Bytes`: a string decoded from a
    /// network frame is a view of the frame, and a clone shares it.
    Str(Str),
    /// Opaque binary payload (serialized application state — the analogue of
    /// a serialized Java object travelling through the space). Ref-counted:
    /// cloning is O(1), and values decoded from a network frame borrow the
    /// frame's allocation instead of copying out of it.
    Bytes(Bytes),
    /// Ordered list of values.
    List(Vec<Value>),
}

impl Value {
    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
            Value::List(_) => "list",
        }
    }

    /// Returns the integer if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float if this is a `Float`.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the bool if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the string slice if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v.as_str()),
            _ => None,
        }
    }

    /// Returns the byte slice if this is a `Bytes`.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(v) => Some(v.as_ref()),
            _ => None,
        }
    }

    /// Returns the list if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Approximate in-memory size in bytes; used by space statistics and the
    /// cost model (entry sizes drive the paper's task-planning overheads).
    pub fn size_hint(&self) -> usize {
        match self {
            Value::Int(_) | Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::List(l) => l.iter().map(Value::size_hint).sum::<usize>() + 8,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            (Value::List(a), Value::List(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{:?}", v.as_str()),
            Value::Bytes(v) => write!(f, "<{} bytes>", v.len()),
            Value::List(v) => {
                write!(f, "[")?;
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Str::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Str::from(v.as_str()))
    }
}

impl From<Str> for Value {
    fn from(v: Str) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(Bytes::from(v))
    }
}

impl From<Bytes> for Value {
    fn from(v: Bytes) -> Self {
        Value::Bytes(v)
    }
}

impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::List(v)
    }
}

/// An immutable UTF-8 string over a shared [`Bytes`] view: what a string
/// field holds.
///
/// A string decoded from a frame is checked when decoded and borrows the
/// frame's allocation; a clone is a reference count. One made from a
/// `&str` or a `String` is one allocation, as a blob is.
#[derive(Clone, PartialEq, Eq)]
pub struct Str(Bytes);

impl Str {
    /// `bytes` as a string, if they are UTF-8. Shares their allocation.
    pub fn from_utf8(bytes: Bytes) -> Result<Str, std::str::Utf8Error> {
        std::str::from_utf8(&bytes)?;
        Ok(Str(bytes))
    }

    /// The string. Checked again on each call rather than trusted
    /// unchecked: field strings are names of a few bytes.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("a Str is built from checked UTF-8")
    }

    /// Length in bytes, without the check [`Str::as_str`] makes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True for the empty string.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl Deref for Str {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl std::hash::Hash for Str {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.as_ref().hash(state);
    }
}

impl From<&str> for Str {
    fn from(v: &str) -> Self {
        Str(Bytes::copy_from_slice(v.as_bytes()))
    }
}

impl fmt::Debug for Str {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip_and_eq() {
        let v = Value::from(42i64);
        assert_eq!(v.as_int(), Some(42));
        assert_eq!(v, Value::Int(42));
        assert_ne!(v, Value::Int(43));
        assert_eq!(v.type_name(), "int");
    }

    #[test]
    fn float_eq_is_bitwise() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_ne!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
    }

    #[test]
    fn cross_type_never_equal() {
        assert_ne!(Value::Int(1), Value::Float(1.0));
        assert_ne!(Value::Bool(true), Value::Int(1));
        assert_ne!(Value::Str("1".into()), Value::Int(1));
    }

    #[test]
    fn accessors_reject_wrong_type() {
        let v = Value::from("hello");
        assert_eq!(v.as_str(), Some("hello"));
        assert_eq!(v.as_int(), None);
        assert_eq!(v.as_float(), None);
        assert_eq!(v.as_bool(), None);
        assert_eq!(v.as_bytes(), None);
        assert!(v.as_list().is_none());
    }

    #[test]
    fn list_values() {
        let v = Value::from(vec![Value::Int(1), Value::Str("x".into())]);
        let l = v.as_list().unwrap();
        assert_eq!(l.len(), 2);
        assert_eq!(l[0].as_int(), Some(1));
        assert_eq!(format!("{v}"), "[1, \"x\"]");
    }

    #[test]
    fn size_hints() {
        assert_eq!(Value::Int(0).size_hint(), 8);
        assert_eq!(Value::Bool(true).size_hint(), 1);
        assert_eq!(Value::Str("abcd".into()).size_hint(), 4);
        assert_eq!(Value::from(vec![0u8; 100]).size_hint(), 100);
        assert_eq!(
            Value::List(vec![Value::Int(0), Value::Int(1)]).size_hint(),
            24
        );
    }

    #[test]
    fn str_views_share_their_bytes_and_check_utf8() {
        let frame = Bytes::copy_from_slice(b"-job-");
        let view = Str::from_utf8(frame.slice(1..4)).unwrap();
        assert_eq!(view.as_str(), "job");
        assert_eq!(view.as_ptr(), frame[1..].as_ptr(), "a view, not a copy");
        assert_eq!(view.clone().as_ptr(), view.as_ptr(), "a clone shares it");
        assert!(Str::from_utf8(Bytes::copy_from_slice(&[0xff])).is_err());
        assert_eq!(Value::Str(view), Value::from("job"));
        assert_eq!(Value::from(String::from("job")).as_str(), Some("job"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Value::Int(5)), "5");
        assert_eq!(format!("{}", Value::Str("a".into())), "\"a\"");
        assert_eq!(format!("{}", Value::from(vec![1u8, 2])), "<2 bytes>");
    }
}

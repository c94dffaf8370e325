//! Shapes: a tuple type's name plus its sorted, unique field names.
//!
//! In JavaSpaces an entry is an instance of a class, and the class fixes
//! the field names. A [`Shape`] is that class: every [`crate::Tuple`] and
//! every [`crate::Template`] holds one `Arc<Shape>` and keeps its values
//! (or constraints) in an array in the shape's name order, so field `i`
//! of the array is named `shape.names()[i]`.
//!
//! Shapes are interned in one process-wide table, so tuples built by the
//! same code, or decoded off any connection, share one `Arc<Shape>` and
//! compare shapes by pointer. The table is bounded (see [`Shape::new`]):
//! past its caps a shape is simply built unshared.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::fx::{FxBuild, FxHasher};

/// A tuple type's name and its field names, sorted and unique.
#[derive(PartialEq, Eq)]
pub struct Shape {
    type_name: Arc<str>,
    names: Box<[Box<str>]>,
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shape")
            .field("type_name", &self.type_name)
            .field("names", &self.names)
            .finish()
    }
}

/// Caps on the process-wide table. Shape names come off the wire, so the
/// table must not grow with what a peer sends: at most `MAX_SHAPES`
/// shapes, each of at most `MAX_FIELDS` names of at most `MAX_NAME_LEN`
/// bytes (a few MB at worst). A shape over a cap is built unshared.
pub(crate) const MAX_SHAPES: usize = 1024;
/// See [`MAX_SHAPES`].
pub(crate) const MAX_FIELDS: usize = 64;
/// See [`MAX_SHAPES`]. Longer names are almost certainly data, not schema.
pub(crate) const MAX_NAME_LEN: usize = 64;

#[derive(Default)]
struct Table {
    /// Keyed by [`key_hash`]; a bucket holds the shapes sharing a hash.
    buckets: HashMap<u64, Vec<Arc<Shape>>, FxBuild>,
    len: usize,
}

fn table() -> &'static Mutex<Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE.get_or_init(Mutex::default)
}

/// The table key. Fx, not SipHash: the caps bound what a collision flood
/// can do to `MAX_SHAPES` comparisons, and only on a decoder's cache miss.
fn key_hash(type_name: &str, names: &[&str]) -> u64 {
    let mut h = FxHasher::default();
    type_name.hash(&mut h);
    names.hash(&mut h);
    h.finish()
}

fn shareable<N: AsRef<str>>(type_name: &str, names: &[N]) -> bool {
    names.len() <= MAX_FIELDS
        && type_name.len() <= MAX_NAME_LEN
        && names.iter().all(|n| n.as_ref().len() <= MAX_NAME_LEN)
}

impl Shape {
    /// The shape of `type_name` tuples with these field names, in any
    /// order (duplicates collapse): the process-wide shared one when the
    /// table has room, a fresh one otherwise.
    pub fn new(type_name: &str, names: &[&str]) -> Arc<Shape> {
        if is_canonical(names) {
            return Shape::interned(type_name, names);
        }
        let sorted: Vec<&str> = canonical_order(names)
            .into_iter()
            .map(|i| names[i])
            .collect();
        Shape::interned(type_name, &sorted)
    }

    /// [`Shape::new`] for names already sorted and unique.
    pub(crate) fn interned(type_name: &str, names: &[&str]) -> Arc<Shape> {
        debug_assert!(is_canonical(names));
        let build = || {
            Arc::new(Shape {
                type_name: Arc::from(type_name),
                names: names.iter().map(|n| Box::from(*n)).collect(),
            })
        };
        if !shareable(type_name, names) {
            return build();
        }
        let key = key_hash(type_name, names);
        let mut table = table().lock();
        if let Some(hit) = table.buckets.get(&key).and_then(|bucket| {
            bucket.iter().find(|s| {
                &*s.type_name == type_name && s.names.iter().map(|n| &**n).eq(names.iter().copied())
            })
        }) {
            return hit.clone();
        }
        let shape = build();
        if table.len < MAX_SHAPES {
            table.len += 1;
            table.buckets.entry(key).or_default().push(shape.clone());
        }
        shape
    }

    /// Most shapes the process-wide table holds; later ones are built
    /// unshared.
    pub const MAX_SHARED: usize = MAX_SHAPES;

    /// How many shapes the process-wide table holds.
    pub fn shared_count() -> usize {
        table().lock().len
    }

    /// True when the shape is within the table's caps, so a decoder may
    /// keep it.
    pub(crate) fn is_cacheable(&self) -> bool {
        shareable(&self.type_name, &self.names)
    }

    /// The type name.
    pub fn type_name(&self) -> &str {
        &self.type_name
    }

    /// The shared type-name allocation.
    pub(crate) fn type_name_arc(&self) -> &Arc<str> {
        &self.type_name
    }

    /// The field names, sorted.
    pub fn names(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.names.iter().map(|n| &**n)
    }

    /// Field `i`'s name.
    pub fn name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True for a shape without fields.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Where `name` sits in the name order, if the shape has it.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.names.binary_search_by(|n| (**n).cmp(name)).ok()
    }
}

/// Decoded items in wire order, with their names, put into shape order:
/// as they are when the names are canonical (what every encoder emits),
/// else sorted with builder semantics.
pub(crate) fn canonicalise<T: Clone>(
    type_name: &str,
    names: &[&str],
    items: Arc<[T]>,
) -> (Arc<Shape>, Arc<[T]>) {
    if is_canonical(names) {
        return (Shape::interned(type_name, names), items);
    }
    let order = canonical_order(names);
    let sorted: Vec<&str> = order.iter().map(|&i| names[i]).collect();
    let items = order.iter().map(|&i| items[i].clone()).collect();
    (Shape::interned(type_name, &sorted), items)
}

/// True when `names` is strictly ascending: sorted, no duplicates.
pub(crate) fn is_canonical<N: AsRef<str>>(names: &[N]) -> bool {
    names.windows(2).all(|w| w[0].as_ref() < w[1].as_ref())
}

/// Indices into `names` of the fields a tuple keeps, in name order: one
/// stable sort, and of equal names the last given wins (builder
/// semantics: a later `field` overwrites an earlier one). O(n log n).
pub(crate) fn canonical_order<N: AsRef<str>>(names: &[N]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..names.len()).collect();
    order.sort_by(|&a, &b| names[a].as_ref().cmp(names[b].as_ref()));
    let mut kept = Vec::with_capacity(order.len());
    for (k, &i) in order.iter().enumerate() {
        let overwritten = order
            .get(k + 1)
            .is_some_and(|&next| names[next].as_ref() == names[i].as_ref());
        if !overwritten {
            kept.push(i);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_shapes_are_one_allocation() {
        let a = Shape::new("shape.test", &["b", "a"]);
        let b = Shape::new("shape.test", &["a", "b", "a"]);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.names().collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(a.position("b"), Some(1));
        assert_eq!(a.position("c"), None);
        assert!(!Arc::ptr_eq(&a, &Shape::new("shape.other", &["a", "b"])));
    }

    #[test]
    fn canonical_order_keeps_the_last_duplicate() {
        let names = ["b", "a", "b", "c", "a"];
        let order = canonical_order(&names);
        assert_eq!(order, [4, 2, 3]);
        assert!(is_canonical(&["a", "b"]));
        assert!(!is_canonical(&["a", "a"]));
        assert!(!is_canonical(&["b", "a"]));
    }

    #[test]
    fn oversized_shapes_are_built_unshared() {
        let long = "x".repeat(MAX_NAME_LEN + 1);
        let a = Shape::new("shape.long", &[&long]);
        let b = Shape::new("shape.long", &[&long]);
        assert_eq!(a, b);
        assert!(!Arc::ptr_eq(&a, &b));
        let many: Vec<String> = (0..=MAX_FIELDS).map(|i| format!("f{i:03}")).collect();
        let many: Vec<&str> = many.iter().map(String::as_str).collect();
        assert!(!Arc::ptr_eq(
            &Shape::new("shape.wide", &many),
            &Shape::new("shape.wide", &many)
        ));
    }
}

//! Templates: associative, value-based matching against tuples.
//!
//! A [`Template`] plays the role of a JavaSpaces template entry: specified
//! fields must match, unspecified fields are wildcards (the analogue of
//! `null` template fields). On top of exact matching we support small
//! extensions (`OneOf`, integer/float ranges) which the framework uses for
//! e.g. "any task of this job".

use std::fmt;
use std::sync::Arc;

use crate::shape::{canonicalise, Shape};
use crate::tuple::Tuple;
use crate::value::Value;

/// A per-field matching rule.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// Field must exist and equal this value exactly.
    Exact(Value),
    /// Field must exist and equal one of these values.
    OneOf(Vec<Value>),
    /// Field must be an `Int` within `[lo, hi]` inclusive.
    IntRange(i64, i64),
    /// Field must be a `Float` within `[lo, hi]` inclusive (NaN never matches).
    FloatRange(f64, f64),
    /// Field must exist (any value).
    Exists,
}

impl Constraint {
    /// Does `value` satisfy this constraint?
    pub fn matches(&self, value: &Value) -> bool {
        match self {
            Constraint::Exact(want) => want == value,
            Constraint::OneOf(set) => set.iter().any(|want| want == value),
            Constraint::IntRange(lo, hi) => value.as_int().is_some_and(|v| v >= *lo && v <= *hi),
            Constraint::FloatRange(lo, hi) => {
                value.as_float().is_some_and(|v| v >= *lo && v <= *hi)
            }
            Constraint::Exists => true,
        }
    }
}

/// An associative-lookup pattern over tuples: a [`Shape`] naming the
/// constrained fields, plus one [`Constraint`] per name, in name order.
///
/// Both parts are ref-counted, so `Clone` is two refcount bumps — requests
/// on the wire path clone templates freely without copying constraint
/// payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Template {
    /// False for a template matching any tuple type (its shape's type
    /// name is then empty).
    typed: bool,
    shape: Arc<Shape>,
    /// `constraints[i]` constrains the field named `shape.name(i)`.
    constraints: Arc<[Constraint]>,
}

impl Template {
    /// Starts building a template for the given tuple type.
    pub fn build(type_name: impl Into<Arc<str>>) -> TemplateBuilder {
        TemplateBuilder {
            type_name: Some(type_name.into()),
            constraints: Vec::new(),
        }
    }

    /// Starts building a template that matches any tuple type.
    pub fn any_type() -> TemplateBuilder {
        TemplateBuilder {
            type_name: None,
            constraints: Vec::new(),
        }
    }

    /// A template matching every tuple of `type_name` (no field constraints).
    pub fn of_type(type_name: impl Into<Arc<str>>) -> Template {
        Template::build(type_name).done()
    }

    /// The type this template selects, if any.
    pub fn type_name(&self) -> Option<&str> {
        self.typed.then(|| self.shape.type_name())
    }

    /// The field constraints as `(name, constraint)`, sorted by name.
    pub fn constraints(&self) -> impl ExactSizeIterator<Item = (&str, &Constraint)> + '_ {
        self.shape.names().zip(self.constraints.iter())
    }

    /// A template of `shape`'s names with one constraint each.
    pub(crate) fn from_parts(
        typed: bool,
        shape: Arc<Shape>,
        constraints: Arc<[Constraint]>,
    ) -> Template {
        debug_assert_eq!(shape.len(), constraints.len());
        Template {
            typed,
            shape,
            constraints,
        }
    }

    /// True when `tuple` satisfies the template: the type matches (or the
    /// template is type-wildcarded) and every constrained field matches.
    /// Fields of the tuple not mentioned by the template are ignored —
    /// JavaSpaces `null`-field semantics.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        if self.typed && self.shape.type_name() != tuple.type_name() {
            return false;
        }
        self.constraints()
            .all(|(name, c)| tuple.get(name).is_some_and(|v| c.matches(v)))
    }

    /// A matcher that resolves this template's field positions once per
    /// tuple shape instead of once per tuple — what a scan uses.
    pub(crate) fn matcher(&self) -> Matcher<'_> {
        Matcher {
            template: self,
            last: None,
        }
    }
}

/// Constraint counts up to which a [`Matcher`] remembers positions.
const MEMO: usize = 4;

/// [`Template::matches`] with the positions of the constrained fields
/// remembered for the last tuple shape seen: tuples sharing a shape are
/// matched by index, with no name comparison.
pub(crate) struct Matcher<'t> {
    template: &'t Template,
    /// The last shape and, if its type can match at all, the position of
    /// each constrained field in it (`u32::MAX` for a field it lacks).
    last: Option<(Arc<Shape>, Option<[u32; MEMO]>)>,
}

impl<'t> Matcher<'t> {
    /// Same answer as [`Template::matches`].
    pub(crate) fn matches(&mut self, tuple: &Tuple) -> bool {
        let template = self.template;
        if template.constraints.len() > MEMO {
            return template.matches(tuple);
        }
        let shape = tuple.shape();
        let fresh = !matches!(&self.last, Some((seen, _)) if Arc::ptr_eq(seen, shape));
        if fresh {
            let resolved = (!template.typed || template.shape.type_name() == shape.type_name())
                .then(|| {
                    let mut at = [u32::MAX; MEMO];
                    for (slot, name) in at.iter_mut().zip(template.shape.names()) {
                        *slot = shape.position(name).map_or(u32::MAX, |i| i as u32);
                    }
                    at
                });
            self.last = Some((shape.clone(), resolved));
        }
        let Some((_, Some(at))) = &self.last else {
            return false;
        };
        let values = tuple.values();
        template
            .constraints
            .iter()
            .zip(at)
            .all(|(c, &i)| i != u32::MAX && c.matches(&values[i as usize]))
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.type_name() {
            Some(ty) => write!(f, "{ty}?{{")?,
            None => write!(f, "*?{{")?,
        }
        for (i, (n, c)) in self.constraints().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match c {
                Constraint::Exact(v) => write!(f, "{n} == {v}")?,
                Constraint::OneOf(vs) => write!(f, "{n} in {{{} options}}", vs.len())?,
                Constraint::IntRange(lo, hi) => write!(f, "{n} in {lo}..={hi}")?,
                Constraint::FloatRange(lo, hi) => write!(f, "{n} in {lo}..={hi}")?,
                Constraint::Exists => write!(f, "{n} exists")?,
            }
        }
        write!(f, "}}")
    }
}

/// Builder for [`Template`]; a later constraint on a field replaces an
/// earlier one.
#[derive(Debug)]
pub struct TemplateBuilder {
    type_name: Option<Arc<str>>,
    constraints: Vec<(Arc<str>, Constraint)>,
}

impl TemplateBuilder {
    fn push(mut self, name: Arc<str>, c: Constraint) -> Self {
        self.constraints.push((name, c));
        self
    }

    /// Field must equal `value`.
    pub fn eq(self, name: impl Into<Arc<str>>, value: impl Into<Value>) -> Self {
        self.push(name.into(), Constraint::Exact(value.into()))
    }

    /// Field must equal one of `values`.
    pub fn one_of(self, name: impl Into<Arc<str>>, values: Vec<Value>) -> Self {
        self.push(name.into(), Constraint::OneOf(values))
    }

    /// Field must be an integer in `[lo, hi]`.
    pub fn int_range(self, name: impl Into<Arc<str>>, lo: i64, hi: i64) -> Self {
        self.push(name.into(), Constraint::IntRange(lo, hi))
    }

    /// Field must be a float in `[lo, hi]`.
    pub fn float_range(self, name: impl Into<Arc<str>>, lo: f64, hi: f64) -> Self {
        self.push(name.into(), Constraint::FloatRange(lo, hi))
    }

    /// Field must exist, with any value.
    pub fn exists(self, name: impl Into<Arc<str>>) -> Self {
        self.push(name.into(), Constraint::Exists)
    }

    /// Finishes the template.
    pub fn done(self) -> Template {
        let (names, constraints): (Vec<Arc<str>>, Vec<Constraint>) =
            self.constraints.into_iter().unzip();
        let names: Vec<&str> = names.iter().map(|n| &**n).collect();
        let ty = self.type_name.as_deref();
        let (shape, constraints) = canonicalise(ty.unwrap_or(""), &names, constraints.into());
        Template::from_parts(ty.is_some(), shape, constraints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn task(id: i64, kind: &str) -> Tuple {
        Tuple::build("task")
            .field("id", id)
            .field("kind", kind)
            .done()
    }

    #[test]
    fn type_only_template_matches_all_of_type() {
        let t = Template::of_type("task");
        assert!(t.matches(&task(1, "a")));
        assert!(t.matches(&task(2, "b")));
        assert!(!t.matches(&Tuple::build("result").done()));
    }

    #[test]
    fn any_type_matches_everything() {
        let t = Template::any_type().done();
        assert!(t.matches(&task(1, "a")));
        assert!(t.matches(&Tuple::build("result").done()));
    }

    #[test]
    fn exact_field_match() {
        let t = Template::build("task").eq("id", 3i64).done();
        assert!(t.matches(&task(3, "x")));
        assert!(!t.matches(&task(4, "x")));
    }

    #[test]
    fn missing_field_fails_constraint() {
        let t = Template::build("task").eq("owner", "w1").done();
        assert!(!t.matches(&task(1, "x")));
    }

    #[test]
    fn one_of_and_ranges() {
        let t = Template::build("task")
            .one_of("kind", vec!["a".into(), "b".into()])
            .int_range("id", 10, 20)
            .done();
        assert!(t.matches(&task(15, "a")));
        assert!(t.matches(&task(10, "b")));
        assert!(!t.matches(&task(15, "c")));
        assert!(!t.matches(&task(9, "a")));
        assert!(!t.matches(&task(21, "b")));
    }

    #[test]
    fn float_range_rejects_nan_and_wrong_type() {
        let c = Constraint::FloatRange(0.0, 1.0);
        assert!(c.matches(&Value::Float(0.5)));
        assert!(!c.matches(&Value::Float(f64::NAN)));
        assert!(!c.matches(&Value::Int(0)));
    }

    #[test]
    fn exists_constraint() {
        let t = Template::build("task").exists("kind").done();
        assert!(t.matches(&task(1, "anything")));
        assert!(!t.matches(&Tuple::build("task").field("id", 1i64).done()));
    }

    #[test]
    fn duplicate_constraint_overwrites() {
        let t = Template::build("task").eq("id", 1i64).eq("id", 2i64).done();
        assert!(!t.matches(&task(1, "x")));
        assert!(t.matches(&task(2, "x")));
        assert_eq!(t.constraints().len(), 1);
    }

    #[test]
    fn matcher_agrees_with_matches_across_shapes() {
        let t = Template::build("task")
            .eq("kind", "a")
            .int_range("id", 0, 9)
            .done();
        let other = Tuple::build("task").field("kind", "a").done();
        let wrong_type = Tuple::build("result")
            .field("kind", "a")
            .field("id", 1i64)
            .done();
        let mut m = t.matcher();
        for tuple in [
            task(1, "a"),
            task(2, "b"),
            other,
            task(3, "a"),
            wrong_type,
            task(10, "a"),
        ] {
            assert_eq!(m.matches(&tuple), t.matches(&tuple), "{tuple}");
        }
    }

    #[test]
    fn display_is_readable() {
        let t = Template::build("task").eq("id", 1i64).done();
        assert_eq!(format!("{t}"), "task?{id == 1}");
    }

    #[test]
    fn int_range_wrong_type_fails() {
        let t = Template::build("task").int_range("kind", 0, 5).done();
        assert!(!t.matches(&task(1, "x")));
    }
}

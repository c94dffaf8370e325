//! Spans and events: [`span!`](crate::span) marks a region and
//! [`event!`](crate::event) a point, each carrying key–value fields.
//! Both write to one sink, the [flight recorder](crate::flight), and only
//! while it is installed: otherwise the macros compile down to one relaxed
//! atomic load and a branch, so the disabled path costs a few nanoseconds
//! and builds no fields — instrumentation can stay in hot paths
//! permanently. A record goes to the recorder as borrowed parts — static
//! name, static key list, a stack array of [`FieldRef`]s — which it
//! copies into the calling thread's ring without allocating. Nesting is
//! carried by span ids: every span names its parent's.

use std::fmt;

use crate::clock;
use crate::context::{self, TraceContext};
use crate::flight::{self, Parts, RecordKind};

/// A field value as the call site hands it over: scalars by value, text
/// borrowed. Lives only for the duration of one `span!`/`event!` call:
/// the flight recorder copies it into a ring slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FieldRef<'a> {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(&'a str),
}

/// The text a flight dump shows for the value: floats to three decimals,
/// text unquoted.
impl fmt::Display for FieldRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldRef::I64(v) => write!(f, "{v}"),
            FieldRef::U64(v) => write!(f, "{v}"),
            FieldRef::F64(v) => write!(f, "{v:.3}"),
            FieldRef::Bool(v) => write!(f, "{v}"),
            FieldRef::Str(v) => f.write_str(v),
        }
    }
}

/// Types usable as `key = value` in [`span!`](crate::span) and
/// [`event!`](crate::event). The macros call `as_field(&value)`, so a
/// `String` or `&str` field is borrowed, never copied to the heap.
pub trait AsField {
    /// The value as a borrowed field.
    fn as_field(&self) -> FieldRef<'_>;
}

macro_rules! impl_as_field {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {$(
        impl AsField for $ty {
            fn as_field(&self) -> FieldRef<'_> {
                FieldRef::$variant(*self as $conv)
            }
        }
    )*};
}

impl_as_field!(
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64, i64 => I64 as i64,
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64, f32 => F64 as f64, f64 => F64 as f64,
);

impl AsField for bool {
    fn as_field(&self) -> FieldRef<'_> {
        FieldRef::Bool(*self)
    }
}

impl AsField for str {
    fn as_field(&self) -> FieldRef<'_> {
        FieldRef::Str(self)
    }
}

impl AsField for String {
    fn as_field(&self) -> FieldRef<'_> {
        FieldRef::Str(self)
    }
}

impl<T: AsField + ?Sized> AsField for &T {
    fn as_field(&self) -> FieldRef<'_> {
        (**self).as_field()
    }
}

/// True while the flight recorder is installed, which is when spans and
/// events are recorded. The macros check this before building fields.
#[inline]
pub fn enabled() -> bool {
    flight::installed()
}

/// Emits a point event (used by [`event!`](crate::event); call the macro,
/// not this). `keys` and `values` pair up by position.
pub fn emit_event(name: &'static str, keys: &'static [&'static str], values: &[FieldRef<'_>]) {
    let ctx = TraceContext::current();
    flight::record(&Parts {
        kind: RecordKind::Event,
        name,
        keys,
        values,
        trace_id: ctx.map(|c| c.trace_id).unwrap_or(0),
        span_id: ctx.map(|c| c.span_id).unwrap_or(0),
        parent_span_id: 0,
        ticks: clock::ticks(),
        elapsed_ticks: 0,
    });
}

/// RAII guard for an entered span: records the span's exit, with the
/// elapsed time, on drop. Constructed by [`span!`](crate::span).
#[must_use = "a span ends when its guard drops; bind it with `let _span = span!(..)`"]
pub struct SpanGuard {
    data: Option<SpanData>,
}

struct SpanData {
    name: &'static str,
    /// [`clock::ticks`] at enter — the enter record's own timestamp.
    start_ticks: u64,
    ctx: TraceContext,
    parent: Option<TraceContext>,
}

impl SpanGuard {
    /// Enters a span (used by [`span!`](crate::span); call the macro, not
    /// this). The span becomes a child of the thread's current
    /// [`TraceContext`] (same trace id, fresh span id) — or a new trace
    /// root if there is none — and makes itself current until exit.
    /// `keys` and `values` pair up by position.
    pub fn enter(
        name: &'static str,
        keys: &'static [&'static str],
        values: &[FieldRef<'_>],
    ) -> SpanGuard {
        let parent = TraceContext::current();
        let ctx = match parent {
            Some(p) => p.child(),
            None => TraceContext::root(),
        };
        context::set_current(Some(ctx));
        let start_ticks = clock::ticks();
        flight::record(&Parts {
            kind: RecordKind::Enter,
            name,
            keys,
            values,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: parent.map(|p| p.span_id).unwrap_or(0),
            ticks: start_ticks,
            elapsed_ticks: 0,
        });
        SpanGuard {
            data: Some(SpanData {
                name,
                start_ticks,
                ctx,
                parent,
            }),
        }
    }

    /// The no-op guard the macro returns while the recorder is off.
    pub fn disabled() -> SpanGuard {
        SpanGuard { data: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else {
            return;
        };
        context::set_current(data.parent);
        let ticks = clock::ticks();
        flight::record(&Parts {
            kind: RecordKind::Exit,
            name: data.name,
            keys: &[],
            values: &[],
            trace_id: data.ctx.trace_id,
            span_id: data.ctx.span_id,
            parent_span_id: data.parent.map(|p| p.span_id).unwrap_or(0),
            ticks,
            elapsed_ticks: ticks.saturating_sub(data.start_ticks),
        });
    }
}

/// Opens a span with key–value fields; returns a [`SpanGuard`] that closes
/// it on drop. Compiles to an atomic load + branch while the flight
/// recorder is off.
///
/// ```
/// let _span = acc_telemetry::span!("master.planning", tasks = 128usize);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::SpanGuard::enter(
                $name,
                &[$(stringify!($key)),*],
                &[$($crate::trace::AsField::as_field(&$value)),*],
            )
        } else {
            $crate::trace::SpanGuard::disabled()
        }
    };
}

/// Emits a point event with key–value fields. Compiles to an atomic load
/// + branch while the flight recorder is off.
///
/// ```
/// acc_telemetry::event!("worker.transition", from = "Stopped", to = "Running");
/// ```
#[macro_export]
macro_rules! event {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::emit_event(
                $name,
                &[$(stringify!($key)),*],
                &[$($crate::trace::AsField::as_field(&$value)),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::thread_records;
    use crate::json::Json;
    use crate::tests::{Recording, TEST_EXCLUSIVE};

    /// What identifies a record in a dump: kind, name, and its trace,
    /// span and parent ids (hex, as the dump has them).
    fn shape(record: &Json) -> (&str, &str, &str, &str, &str) {
        let text = |key: &str| record[key].as_str().unwrap_or("?");
        (
            text("kind"),
            text("name"),
            text("trace"),
            text("span"),
            text("parent"),
        )
    }

    fn hex(id: u64) -> String {
        format!("{id:x}")
    }

    #[test]
    fn disabled_macros_are_inert() {
        // Other tests turn the recorder on; this one needs it off.
        let _guard = TEST_EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        {
            let _span = span!("never.seen", x = 1);
            assert_eq!(
                TraceContext::current(),
                None,
                "a disabled span sets no context"
            );
            event!("never.seen.event", y = 2);
        }
        assert_eq!(TraceContext::current(), None);
        let dump = flight::dump_json();
        assert!(!dump.contains("never.seen"), "recorded while off:\n{dump}");
        assert!(!enabled());
    }

    #[test]
    fn span_tree_with_parents_and_fields() {
        let _recording = Recording::start();
        {
            let _outer = span!("outer", job = "j");
            {
                let _inner = span!("inner", task = 7u64);
                event!("tick", ok = true);
            }
        }
        let records = thread_records();
        let kinds: Vec<(&str, &str)> = records
            .iter()
            .map(|r| (r["kind"].as_str().unwrap(), r["name"].as_str().unwrap()))
            .collect();
        assert_eq!(
            kinds,
            [
                ("enter", "outer"),
                ("enter", "inner"),
                ("event", "tick"),
                ("exit", "inner"),
                ("exit", "outer"),
            ]
        );
        // Nesting is carried by ids: inner's parent is outer, the event
        // sits in inner.
        assert_eq!(records[0]["parent"].as_str(), Some("0"));
        assert_eq!(records[1]["parent"], records[0]["span"]);
        assert_eq!(records[2]["span"], records[1]["span"]);
        assert_eq!(records[0]["fields"], Json::object([("job", "j".into())]));
        assert_eq!(records[1]["fields"], Json::object([("task", "7".into())]));
        assert_eq!(records[2]["fields"], Json::object([("ok", "true".into())]));
        assert!(records[3]["elapsed_us"].as_u64().is_some(), "inner exit");
        assert_eq!(records[3]["fields"], Json::Null);
    }

    #[test]
    fn spans_carry_linked_trace_context() {
        let _recording = Recording::start();
        assert_eq!(TraceContext::current(), None);
        let (outer_ctx, inner_ctx) = {
            let _outer = span!("ctx.outer");
            let outer_ctx = TraceContext::current().expect("outer span sets context");
            let inner_ctx = {
                let _inner = span!("ctx.inner");
                let inner_ctx = TraceContext::current().unwrap();
                assert_eq!(inner_ctx.trace_id, outer_ctx.trace_id);
                assert_ne!(inner_ctx.span_id, outer_ctx.span_id);
                event!("ctx.tick");
                inner_ctx
            };
            assert_eq!(TraceContext::current(), Some(outer_ctx));
            (outer_ctx, inner_ctx)
        };
        assert_eq!(TraceContext::current(), None);
        assert_ne!(outer_ctx.trace_id, 0);
        let trace = hex(outer_ctx.trace_id);
        let (outer, inner) = (hex(outer_ctx.span_id), hex(inner_ctx.span_id));
        let records = thread_records();
        let shapes: Vec<_> = records.iter().map(shape).collect();
        assert_eq!(
            shapes,
            [
                // The outer span is a trace root.
                ("enter", "ctx.outer", &*trace, &*outer, "0"),
                ("enter", "ctx.inner", &*trace, &*inner, &*outer),
                // The event is pinned to its enclosing span.
                ("event", "ctx.tick", &*trace, &*inner, "0"),
                // Exits carry the same ids as their enters.
                ("exit", "ctx.inner", &*trace, &*inner, &*outer),
                ("exit", "ctx.outer", &*trace, &*outer, "0"),
            ]
        );
    }

    #[test]
    fn attached_context_becomes_span_parent() {
        let _recording = Recording::start();
        let remote = TraceContext::root();
        let adopted = {
            let _ctx = remote.attach();
            let _span = span!("ctx.adopted");
            TraceContext::current().unwrap()
        };
        assert_ne!(adopted.span_id, remote.span_id);
        let records = thread_records();
        let (trace, span, parent) = (
            hex(remote.trace_id),
            hex(adopted.span_id),
            hex(remote.span_id),
        );
        assert_eq!(
            shape(&records[0]),
            ("enter", "ctx.adopted", &*trace, &*span, &*parent)
        );
    }

    /// A test that fails while holding the recorder does not leave it on
    /// for the next one.
    #[test]
    fn a_panic_under_recording_turns_the_recorder_off() {
        let outcome = std::panic::catch_unwind(|| {
            let _recording = Recording::start();
            assert!(enabled());
            panic!("a failed assertion while recording");
        });
        assert!(outcome.is_err());
        let _guard = TEST_EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
    }
}

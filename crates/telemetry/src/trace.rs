//! The structured-tracing facade: spans, events and subscribers.
//!
//! Instrumented code marks regions with [`span!`](crate::span) and points
//! with [`event!`](crate::event), each carrying key–value fields. Nothing
//! happens unless a sink is active: the macros compile down to one
//! relaxed atomic load and a branch, so the disabled path costs a few
//! nanoseconds and allocates nothing — instrumentation can stay in hot
//! paths permanently.
//!
//! There are two sinks. The [flight recorder](crate::flight) takes each
//! record as borrowed parts — static name, static key list, a stack
//! array of [`FieldRef`]s — and copies them into its ring without
//! allocating. A [`Subscriber`], when one is installed, gets an owned
//! [`TraceEvent`] (a `Vec` of fields, a `String` per text field) with
//! the thread-local span depth attached, so it can reconstruct the span
//! tree per thread; that event is built only while a subscriber is
//! installed. Three subscribers ship here: the implicit no-op default,
//! a [`StderrSubscriber`] for humans and CI greps, and a
//! [`RingBufferSubscriber`] for tests that assert on emitted span trees.

use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::clock;
use crate::context::{self, TraceContext};
use crate::flight::{self, Parts, RecordKind};

/// A field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Signed integer.
    I64(i64),
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Text.
    Str(String),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:.3}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v:?}"),
        }
    }
}

/// A field value as the call site hands it over: scalars by value, text
/// borrowed. Lives only for the duration of one `span!`/`event!` call —
/// the flight recorder copies it into a ring slot, a subscriber gets
/// [`FieldRef::to_owned`].
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

impl FieldRef<'_> {
    /// The owned form a [`TraceEvent`] carries.
    pub fn to_owned(&self) -> FieldValue {
        match *self {
            FieldRef::I64(v) => FieldValue::I64(v),
            FieldRef::U64(v) => FieldValue::U64(v),
            FieldRef::F64(v) => FieldValue::F64(v),
            FieldRef::Bool(v) => FieldValue::Bool(v),
            FieldRef::Str(v) => FieldValue::Str(v.to_owned()),
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

/// What a [`TraceEvent`] describes.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceKind {
    /// A span was entered.
    SpanEnter,
    /// A span was exited.
    SpanExit {
        /// Wall-clock time spent inside the span, microseconds.
        elapsed_us: u64,
    },
    /// A point event.
    Event,
}

/// One dispatched trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Span/event kind.
    pub kind: TraceKind,
    /// Static name, e.g. `master.planning` or `worker.transition`.
    pub name: &'static str,
    /// Key–value fields attached at the call site.
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Span nesting depth on the emitting thread (0 = top level).
    pub depth: usize,
    /// The distributed trace this record belongs to (0 = none current).
    pub trace_id: u64,
    /// For spans, the span's own id; for events, the enclosing span's
    /// id (0 = none).
    pub span_id: u64,
    /// The parent span's id (0 = a trace root, or no span context).
    pub parent_span_id: u64,
}

impl TraceEvent {
    /// The value of field `key`, if present.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Receives every span enter/exit and event while installed.
pub trait Subscriber: Send + Sync {
    /// Handles one trace record. Called with no telemetry locks held.
    fn record(&self, event: &TraceEvent);
}

/// Bit set in [`ACTIVE`] while a subscriber is installed.
const SUBSCRIBER_BIT: u8 = 1;
/// Bit set in [`ACTIVE`] while the flight recorder is on.
const FLIGHT_BIT: u8 = 2;

static ACTIVE: AtomicU8 = AtomicU8::new(0);
static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);

thread_local! {
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// True when any trace sink — a [`Subscriber`] or the flight recorder —
/// is active. The macros check this before building fields, which is
/// what makes disabled tracing near-free: one relaxed load of a single
/// byte covers both sinks.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

fn set_bit(bit: u8, on: bool) {
    if on {
        ACTIVE.fetch_or(bit, Ordering::Release);
    } else {
        ACTIVE.fetch_and(!bit, Ordering::Release);
    }
}

/// Flips the flight-recorder bit (crate use; see [`crate::flight`]).
pub(crate) fn set_flight_active(on: bool) {
    set_bit(FLIGHT_BIT, on);
}

/// Installs `subscriber` as the process-wide trace sink, replacing any
/// previous one.
pub fn install(subscriber: Arc<dyn Subscriber>) {
    *SUBSCRIBER.write().unwrap_or_else(|e| e.into_inner()) = Some(subscriber);
    set_bit(SUBSCRIBER_BIT, true);
}

/// Removes the installed subscriber. The flight recorder, if on, keeps
/// recording; otherwise tracing reverts to the no-op default.
pub fn uninstall() {
    set_bit(SUBSCRIBER_BIT, false);
    *SUBSCRIBER.write().unwrap_or_else(|e| e.into_inner()) = None;
}

#[inline]
fn dispatch(record: Parts<'_>) {
    let active = ACTIVE.load(Ordering::Relaxed);
    if active & FLIGHT_BIT != 0 {
        flight::record(&record);
    }
    if active & SUBSCRIBER_BIT != 0 {
        to_subscriber(&record);
    }
}

/// Builds the owned event a [`Subscriber`] takes. Out of line: this is
/// the allocating path, and only runs while a subscriber is installed.
#[cold]
fn to_subscriber(record: &Parts<'_>) {
    let subscriber = SUBSCRIBER.read().unwrap_or_else(|e| e.into_inner()).clone();
    let Some(subscriber) = subscriber else {
        return;
    };
    let kind = match record.kind {
        RecordKind::Enter => TraceKind::SpanEnter,
        RecordKind::Exit => TraceKind::SpanExit {
            elapsed_us: clock::Scale::now().span_us(record.elapsed_ticks),
        },
        RecordKind::Event => TraceKind::Event,
    };
    subscriber.record(&TraceEvent {
        kind,
        name: record.name,
        fields: record
            .keys
            .iter()
            .zip(record.values)
            .map(|(key, value)| (*key, value.to_owned()))
            .collect(),
        depth: record.depth,
        trace_id: record.trace_id,
        span_id: record.span_id,
        parent_span_id: record.parent_span_id,
    });
}

/// Emits a point event (used by [`event!`](crate::event); call the macro,
/// not this). `keys` and `values` pair up by position.
pub fn emit_event(name: &'static str, keys: &'static [&'static str], values: &[FieldRef<'_>]) {
    let ctx = TraceContext::current();
    dispatch(Parts {
        kind: RecordKind::Event,
        name,
        keys,
        values,
        depth: DEPTH.with(|d| d.get()),
        trace_id: ctx.map(|c| c.trace_id).unwrap_or(0),
        span_id: ctx.map(|c| c.span_id).unwrap_or(0),
        parent_span_id: 0,
        ticks: clock::ticks(),
        elapsed_ticks: 0,
    });
}

/// RAII guard for an entered span: emits `SpanExit` (with the elapsed
/// time) on drop. Constructed by [`span!`](crate::span).
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
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        let parent = TraceContext::current();
        let ctx = match parent {
            Some(p) => p.child(),
            None => TraceContext::root(),
        };
        context::set_current(Some(ctx));
        let start_ticks = clock::ticks();
        dispatch(Parts {
            kind: RecordKind::Enter,
            name,
            keys,
            values,
            depth,
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

    /// The no-op guard the macro returns while tracing is disabled.
    pub fn disabled() -> SpanGuard {
        SpanGuard { data: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else {
            return;
        };
        let depth = DEPTH.with(|d| {
            let depth = d.get().saturating_sub(1);
            d.set(depth);
            depth
        });
        context::set_current(data.parent);
        let ticks = clock::ticks();
        dispatch(Parts {
            kind: RecordKind::Exit,
            name: data.name,
            keys: &[],
            values: &[],
            depth,
            trace_id: data.ctx.trace_id,
            span_id: data.ctx.span_id,
            parent_span_id: data.parent.map(|p| p.span_id).unwrap_or(0),
            ticks,
            elapsed_ticks: ticks.saturating_sub(data.start_ticks),
        });
    }
}

/// Opens a span with key–value fields; returns a [`SpanGuard`] that closes
/// it on drop. Compiles to an atomic load + branch when no trace sink is
/// active.
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
/// + branch when no trace sink is active.
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

// ---------------------------------------------------------------------
// Shipped subscribers.
// ---------------------------------------------------------------------

/// Writes one line per trace record to stderr — the subscriber behind
/// `ACC_TRACE=stderr`, and what CI greps for required span names.
#[derive(Debug, Default)]
pub struct StderrSubscriber;

impl Subscriber for StderrSubscriber {
    fn record(&self, event: &TraceEvent) {
        let indent = "  ".repeat(event.depth);
        let mut fields = String::new();
        for (k, v) in &event.fields {
            fields.push_str(&format!(" {k}={v}"));
        }
        match &event.kind {
            TraceKind::SpanEnter => eprintln!("[trace] {indent}> {}{fields}", event.name),
            TraceKind::SpanExit { elapsed_us } => {
                eprintln!("[trace] {indent}< {} ({elapsed_us} us)", event.name)
            }
            TraceKind::Event => eprintln!("[trace] {indent}. {}{fields}", event.name),
        }
    }
}

/// Captures the last `capacity` trace records in memory, for tests that
/// assert on the emitted span tree.
#[derive(Debug)]
pub struct RingBufferSubscriber {
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
}

impl RingBufferSubscriber {
    /// A ring buffer retaining the most recent `capacity` records.
    pub fn new(capacity: usize) -> Arc<RingBufferSubscriber> {
        Arc::new(RingBufferSubscriber {
            capacity: capacity.max(1),
            events: Mutex::new(VecDeque::with_capacity(capacity.max(1))),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<TraceEvent>> {
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// All captured records, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().iter().cloned().collect()
    }

    /// Names of captured records, oldest first (spans appear once per
    /// enter and once per exit).
    pub fn names(&self) -> Vec<&'static str> {
        self.lock().iter().map(|e| e.name).collect()
    }

    /// Names of span-enter records only, oldest first — the span tree in
    /// preorder for single-threaded sections.
    pub fn span_names(&self) -> Vec<&'static str> {
        self.lock()
            .iter()
            .filter(|e| e.kind == TraceKind::SpanEnter)
            .map(|e| e.name)
            .collect()
    }

    /// Number of captured records named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.lock().iter().filter(|e| e.name == name).count()
    }

    /// Drops all captured records.
    pub fn clear(&self) {
        self.lock().clear();
    }
}

impl Subscriber for RingBufferSubscriber {
    fn record(&self, event: &TraceEvent) {
        let mut events = self.lock();
        if events.len() == self.capacity {
            events.pop_front();
        }
        events.push_back(event.clone());
    }
}

/// Installs the stderr subscriber when the `ACC_TRACE` environment
/// variable is set (to anything but `0` or the empty string). Returns
/// whether tracing ended up enabled. Idempotent, so every entry point can
/// call it.
pub fn init_from_env() -> bool {
    match std::env::var("ACC_TRACE") {
        Ok(v) if !v.is_empty() && v != "0" => {
            if !enabled() {
                install(Arc::new(StderrSubscriber));
            }
            true
        }
        _ => enabled(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Subscriber installation is process-global; every test that installs
    // one (here and in `flight`) serialises on this lock so captures
    // don't interleave.
    use crate::TEST_EXCLUSIVE as EXCLUSIVE;

    fn with_ring<R>(f: impl FnOnce(&RingBufferSubscriber) -> R) -> R {
        let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        let ring = RingBufferSubscriber::new(1024);
        install(ring.clone());
        let out = f(&ring);
        uninstall();
        out
    }

    #[test]
    fn disabled_macros_are_inert() {
        // Other tests install subscribers and the flight recorder.
        let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!enabled());
        let _span = span!("never.seen", x = 1);
        event!("never.seen.event", y = 2);
        // Nothing to assert beyond "did not panic / did not allocate a
        // subscriber": enabled() is still false.
        assert!(!enabled());
    }

    #[test]
    fn span_tree_with_depths_and_fields() {
        let events = with_ring(|ring| {
            {
                let _outer = span!("outer", job = "j");
                {
                    let _inner = span!("inner", task = 7u64);
                    event!("tick", ok = true);
                }
            }
            ring.events()
        });
        let shape: Vec<(&str, usize, bool)> = events
            .iter()
            .map(|e| (e.name, e.depth, e.kind == TraceKind::SpanEnter))
            .collect();
        assert_eq!(
            shape,
            vec![
                ("outer", 0, true),
                ("inner", 1, true),
                ("tick", 2, false),
                ("inner", 1, false),
                ("outer", 0, false),
            ]
        );
        assert_eq!(
            events[0].field("job"),
            Some(&FieldValue::Str("j".to_owned()))
        );
        assert_eq!(events[1].field("task"), Some(&FieldValue::U64(7)));
        let TraceKind::SpanExit { .. } = events[3].kind else {
            panic!("inner exit expected");
        };
    }

    #[test]
    fn ring_buffer_caps_capacity() {
        let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        let ring = RingBufferSubscriber::new(4);
        install(ring.clone());
        for _ in 0..10 {
            event!("e");
        }
        uninstall();
        assert_eq!(ring.events().len(), 4);
    }

    #[test]
    fn spans_carry_linked_trace_context() {
        let events = with_ring(|ring| {
            assert_eq!(TraceContext::current(), None);
            {
                let _outer = span!("ctx.outer");
                let outer_ctx = TraceContext::current().expect("outer span sets context");
                {
                    let _inner = span!("ctx.inner");
                    let inner_ctx = TraceContext::current().unwrap();
                    assert_eq!(inner_ctx.trace_id, outer_ctx.trace_id);
                    assert_ne!(inner_ctx.span_id, outer_ctx.span_id);
                    event!("ctx.tick");
                }
                assert_eq!(TraceContext::current(), Some(outer_ctx));
            }
            assert_eq!(TraceContext::current(), None);
            ring.events()
        });
        let outer = &events[0];
        let inner = &events[1];
        let tick = &events[2];
        assert_eq!(outer.parent_span_id, 0, "outer is a trace root");
        assert_ne!(outer.trace_id, 0);
        assert_eq!(inner.trace_id, outer.trace_id);
        assert_eq!(inner.parent_span_id, outer.span_id);
        assert_eq!(tick.trace_id, outer.trace_id);
        assert_eq!(
            tick.span_id, inner.span_id,
            "event pinned to enclosing span"
        );
        // Exits carry the same ids as their enters.
        assert_eq!(events[3].span_id, inner.span_id);
        assert_eq!(events[4].span_id, outer.span_id);
    }

    #[test]
    fn attached_context_becomes_span_parent() {
        let (remote, events) = with_ring(|ring| {
            let remote = TraceContext::root();
            {
                let _ctx = remote.attach();
                let _span = span!("ctx.adopted");
            }
            (remote, ring.events())
        });
        assert_eq!(events[0].trace_id, remote.trace_id);
        assert_eq!(events[0].parent_span_id, remote.span_id);
        assert_ne!(events[0].span_id, remote.span_id);
    }

    #[test]
    fn uninstall_mid_span_still_balances_depth() {
        let _guard = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        let ring = RingBufferSubscriber::new(64);
        install(ring.clone());
        {
            let _span = span!("survivor");
            uninstall();
        } // exit dispatches to nobody, but depth must rewind
        install(ring.clone());
        event!("after");
        uninstall();
        let last = ring.events().pop().unwrap();
        assert_eq!(last.name, "after");
        assert_eq!(last.depth, 0, "depth leaked by uninstalled span");
    }
}

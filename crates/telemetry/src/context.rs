//! Distributed trace context: one 64-bit trace id shared by every span a
//! request touches, on any thread or process, plus the [`TraceAssembler`]
//! that stitches per-process flight-recorder dumps back into one tree.
//!
//! A [`TraceContext`] is the pair `(trace_id, span_id)`. Each thread has a
//! *current* context; [`span!`](crate::span) makes the new span a child of
//! the current context (same trace id, fresh span id) and restores the
//! parent on exit. Crossing a boundary — a wire protocol frame, an SNMP
//! community suffix, a task tuple — means serializing the current context
//! on the sending side and [`TraceContext::attach`]ing it on the receiving
//! side, so the receiver's spans join the sender's trace.
//!
//! Ids are random-looking 64-bit values generated without any external
//! RNG: a process-global counter run through a splitmix64 finalizer,
//! seeded from the clock and address-space layout.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::json::Json;

/// A propagated trace identity: which trace a unit of work belongs to and
/// which span is its immediate parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Shared by every span of one logical request, across threads and
    /// processes. Never zero.
    pub trace_id: u64,
    /// The span the context points at (the parent of whatever adopts the
    /// context). Never zero.
    pub span_id: u64,
}

thread_local! {
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
}

/// Counter values a thread draws from the process-wide counter at once.
const ID_BLOCK: u64 = 1024;

/// Returns a fresh, unique, never-zero 64-bit id.
///
/// Ids are the splitmix64 image of a process-wide counter. A span needs
/// one per enter, so threads take counter values [`ID_BLOCK`] at a time
/// and hand them out from a thread-local: the shared counter's cache line
/// is touched once per thousand ids, not once per span.
pub fn fresh_id() -> u64 {
    const STEP: u64 = 0x9e37_79b9_7f4a_7c15;
    static COUNTER: OnceLock<AtomicU64> = OnceLock::new();
    thread_local! {
        /// Next counter value of this thread's block, and how many remain.
        static BLOCK: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }
    loop {
        let raw = BLOCK.with(|block| {
            let (mut next, mut left) = block.get();
            if left == 0 {
                let counter = COUNTER.get_or_init(|| {
                    // Seed from wall-clock nanoseconds and ASLR so
                    // concurrently started processes draw from different
                    // sequences.
                    let nanos = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_nanos() as u64)
                        .unwrap_or(STEP);
                    let aslr = &COUNTER as *const _ as u64;
                    AtomicU64::new(nanos ^ aslr.rotate_left(32) ^ (std::process::id() as u64) << 17)
                });
                next = counter.fetch_add(STEP.wrapping_mul(ID_BLOCK), Ordering::Relaxed);
                left = ID_BLOCK;
            }
            block.set((next.wrapping_add(STEP), left - 1));
            next
        });
        let id = splitmix64(raw);
        if id != 0 {
            return id;
        }
    }
}

/// The splitmix64 finalizer: a cheap bijective mixer, so sequential
/// counter values come out looking uniformly random.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TraceContext {
    /// Starts a brand-new trace: fresh trace id, fresh span id.
    pub fn root() -> TraceContext {
        TraceContext {
            trace_id: fresh_id(),
            span_id: fresh_id(),
        }
    }

    /// A child context: same trace, fresh span id.
    pub fn child(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: fresh_id(),
        }
    }

    /// The calling thread's current context, if any (set by an enclosing
    /// [`span!`](crate::span) or an [`attach`](TraceContext::attach)).
    #[inline]
    pub fn current() -> Option<TraceContext> {
        CURRENT.with(|c| c.get())
    }

    /// Like [`current`](TraceContext::current), but `None` unless tracing
    /// is enabled — the check boundary-crossing code should use, so no
    /// context bytes are built or shipped while tracing is off.
    pub fn current_if_enabled() -> Option<TraceContext> {
        if crate::trace::enabled() {
            TraceContext::current()
        } else {
            None
        }
    }

    /// Makes `self` the calling thread's current context until the guard
    /// drops (which restores the previous context). This is how a receiver
    /// adopts a propagated context: attach, then open spans as usual.
    pub fn attach(self) -> ContextGuard {
        let prev = CURRENT.with(|c| c.replace(Some(self)));
        ContextGuard { prev }
    }

    /// Wire form: 16 bytes, trace id then span id, little endian.
    pub fn to_bytes(&self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..].copy_from_slice(&self.span_id.to_le_bytes());
        out
    }

    /// Inverse of [`to_bytes`](TraceContext::to_bytes). `None` when the
    /// slice has the wrong length or either id is zero.
    pub fn from_bytes(bytes: &[u8]) -> Option<TraceContext> {
        if bytes.len() != 16 {
            return None;
        }
        let trace_id = u64::from_le_bytes(bytes[..8].try_into().ok()?);
        let span_id = u64::from_le_bytes(bytes[8..].try_into().ok()?);
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext { trace_id, span_id })
    }

    /// Text form `"<trace_hex>:<span_hex>"` — what rides in the SNMP
    /// community suffix.
    pub fn encode(&self) -> String {
        format!("{:x}:{:x}", self.trace_id, self.span_id)
    }

    /// Inverse of [`encode`](TraceContext::encode).
    pub fn parse(text: &str) -> Option<TraceContext> {
        let (t, s) = text.split_once(':')?;
        let trace_id = u64::from_str_radix(t, 16).ok()?;
        let span_id = u64::from_str_radix(s, 16).ok()?;
        if trace_id == 0 || span_id == 0 {
            return None;
        }
        Some(TraceContext { trace_id, span_id })
    }
}

/// Restores the previously current context when dropped. Returned by
/// [`TraceContext::attach`].
#[must_use = "the context detaches when the guard drops; bind it with `let _ctx = ..`"]
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Sets or clears the thread's current context (span enter/exit path;
/// crate use).
#[inline]
pub(crate) fn set_current(ctx: Option<TraceContext>) {
    CURRENT.with(|c| c.set(ctx));
}

// ---------------------------------------------------------------------
// The assembler: per-process dumps in, one cross-process tree out.
// ---------------------------------------------------------------------

/// One assembled span: where it ran and where it hangs in the trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (e.g. `master.dispatch`).
    pub name: String,
    /// Label of the process whose dump contributed the span.
    pub process: String,
    /// Thread label within that process.
    pub thread: String,
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id (`0` = a trace root).
    pub parent_span_id: u64,
    /// Microseconds since the contributing process's telemetry epoch.
    pub t_us: u64,
    /// Span duration in microseconds, folded in from the matching
    /// span-exit record; `0` when the exit was never observed (the span
    /// was still open, or its exit aged out of the ring).
    pub elapsed_us: u64,
}

/// Stitches span records from several processes' flight-recorder dumps
/// into per-trace trees, keyed by the trace and span ids every record
/// carries.
#[derive(Debug, Default)]
pub struct TraceAssembler {
    spans: Vec<SpanRecord>,
    by_span: BTreeMap<u64, usize>,
}

impl TraceAssembler {
    /// An empty assembler.
    pub fn new() -> TraceAssembler {
        TraceAssembler::default()
    }

    /// Parses a flight-recorder dump (the `/spans` body or a
    /// `flight-<pid>.json` file) and adds its span-enter records under the
    /// given process label. Returns how many spans were added.
    ///
    /// The dump holds one record object per line, so each line parses on
    /// its own: a truncated dump still yields every complete line, and
    /// whatever else a line holds (the header, a torn tail) is skipped.
    pub fn add_flight_json(&mut self, process: &str, dump: &str) -> usize {
        let mut added = 0;
        for line in dump.lines() {
            let Ok(record) = Json::parse(line.trim_end_matches(',')) else {
                continue;
            };
            let hex = |key: &str| {
                record[key]
                    .as_str()
                    .and_then(|id| u64::from_str_radix(id, 16).ok())
            };
            match record["kind"].as_str() {
                Some("enter") => {}
                Some("exit") => {
                    // Fold the duration into the already-seen enter record.
                    if let (Some(span_id), Some(elapsed_us)) =
                        (hex("span"), record["elapsed_us"].as_u64())
                    {
                        self.set_elapsed(span_id, elapsed_us);
                    }
                    continue;
                }
                _ => continue,
            }
            let (Some(name), Some(trace_id), Some(span_id)) =
                (record["name"].as_str(), hex("trace"), hex("span"))
            else {
                continue;
            };
            if span_id == 0 {
                continue;
            }
            added += self.push(SpanRecord {
                name: name.to_owned(),
                process: process.to_owned(),
                thread: record["thread"].as_str().unwrap_or_default().to_owned(),
                trace_id,
                span_id,
                parent_span_id: hex("parent").unwrap_or(0),
                t_us: record["t_us"].as_u64().unwrap_or(0),
                elapsed_us: 0,
            });
        }
        added
    }

    fn set_elapsed(&mut self, span_id: u64, elapsed_us: u64) {
        if let Some(&i) = self.by_span.get(&span_id) {
            if self.spans[i].elapsed_us == 0 {
                self.spans[i].elapsed_us = elapsed_us;
            }
        }
    }

    fn push(&mut self, record: SpanRecord) -> usize {
        if self.by_span.contains_key(&record.span_id) {
            return 0;
        }
        self.by_span.insert(record.span_id, self.spans.len());
        self.spans.push(record);
        1
    }

    /// All distinct trace ids seen, in first-seen order.
    pub fn traces(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for s in &self.spans {
            if !out.contains(&s.trace_id) {
                out.push(s.trace_id);
            }
        }
        out
    }

    /// Every span of one trace, in insertion order.
    pub fn spans(&self, trace_id: u64) -> Vec<&SpanRecord> {
        self.spans
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .collect()
    }

    /// The first span with the given name, across all traces.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The chain of ancestors of `span_id`, nearest first. Stops at a
    /// trace root or at a parent no contributed dump covered.
    pub fn ancestry(&self, span_id: u64) -> Vec<&SpanRecord> {
        let mut out = Vec::new();
        let mut cursor = self
            .by_span
            .get(&span_id)
            .map(|&i| self.spans[i].parent_span_id)
            .unwrap_or(0);
        while cursor != 0 {
            let Some(&i) = self.by_span.get(&cursor) else {
                break;
            };
            out.push(&self.spans[i]);
            cursor = self.spans[i].parent_span_id;
            if out.len() > self.spans.len() {
                break; // corrupt parent cycle; never loop forever
            }
        }
        out
    }

    /// Spans of one trace whose parent span no contributed dump covers —
    /// the visible stubs of a process that died mid-flight (or whose dump
    /// was never collected). Trace roots (`parent == 0`) are not orphans.
    pub fn orphans(&self, trace_id: u64) -> Vec<&SpanRecord> {
        self.spans(trace_id)
            .into_iter()
            .filter(|s| s.parent_span_id != 0 && !self.by_span.contains_key(&s.parent_span_id))
            .collect()
    }

    /// Human-readable indented tree of one trace, for test failure output
    /// and debugging: `name [process/thread]` per line. Spans whose parent
    /// dump is missing (a worker that died mid-flight) are not silently
    /// promoted to roots: they render under an explicit orphan section so
    /// partial collections stay legible.
    pub fn render_tree(&self, trace_id: u64) -> String {
        let spans = self.spans(trace_id);
        let mut out = String::new();
        for root in spans.iter().filter(|s| s.parent_span_id == 0) {
            self.render_into(root, 0, &spans, &mut out);
        }
        let orphans = self.orphans(trace_id);
        if !orphans.is_empty() {
            out.push_str("-- orphaned spans (parent dump missing) --\n");
            for orphan in orphans {
                self.render_into(orphan, 0, &spans, &mut out);
            }
        }
        out
    }

    fn render_into(&self, node: &SpanRecord, depth: usize, all: &[&SpanRecord], out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!(
            "{} [{}/{}]\n",
            node.name, node.process, node.thread
        ));
        for child in all.iter().filter(|s| s.parent_span_id == node.span_id) {
            self.render_into(child, depth + 1, all, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_distinct_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = fresh_id();
            assert_ne!(id, 0);
            assert!(seen.insert(id), "duplicate id {id:x}");
        }
    }

    #[test]
    fn bytes_and_text_roundtrip() {
        let ctx = TraceContext::root();
        assert_eq!(TraceContext::from_bytes(&ctx.to_bytes()), Some(ctx));
        assert_eq!(TraceContext::parse(&ctx.encode()), Some(ctx));
        assert_eq!(TraceContext::from_bytes(&[1, 2, 3]), None);
        assert_eq!(TraceContext::from_bytes(&[0u8; 16]), None);
        assert_eq!(TraceContext::parse("nope"), None);
        assert_eq!(TraceContext::parse("0:0"), None);
    }

    #[test]
    fn attach_nests_and_restores() {
        assert_eq!(TraceContext::current(), None);
        let outer = TraceContext::root();
        {
            let _a = outer.attach();
            assert_eq!(TraceContext::current(), Some(outer));
            let inner = outer.child();
            {
                let _b = inner.attach();
                assert_eq!(TraceContext::current(), Some(inner));
            }
            assert_eq!(TraceContext::current(), Some(outer));
        }
        assert_eq!(TraceContext::current(), None);
    }

    #[test]
    fn assembler_builds_ancestry_across_processes() {
        let mut asm = TraceAssembler::new();
        // "Process A": the master's root span and its wire call.
        let master = r#"{"thread":"main","kind":"enter","name":"master.dispatch","trace":"7","span":"64","parent":"0","depth":0,"t_us":0}
{"thread":"main","kind":"enter","name":"remote.take","trace":"7","span":"65","parent":"64","depth":1,"t_us":1}
"#;
        assert_eq!(asm.add_flight_json("a", master), 2);
        // "Process B": the server-side handler, as a flight dump line.
        let dump = r#"{"thread":"svc-1","kind":"enter","name":"space.serve","trace":"7","span":"66","parent":"65","depth":0,"t_us":10}
"#;
        assert_eq!(asm.add_flight_json("b", dump), 1);
        assert_eq!(asm.traces(), vec![7]);
        let take = asm.find("remote.take").unwrap();
        let chain = asm.ancestry(take.span_id);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].name, "master.dispatch");
        let serve = asm.find("space.serve").unwrap();
        assert_eq!(serve.process, "b");
        assert_eq!(serve.thread, "svc-1");
        assert_eq!(serve.span_id, 0x66);
        // Re-adding the same dump is a no-op.
        assert_eq!(asm.add_flight_json("b", dump), 0);
        assert!(asm.render_tree(7).contains("remote.take"));
    }

    #[test]
    fn missing_process_dump_yields_orphan_section_not_a_broken_tree() {
        // Master dispatched (root span), a worker picked the task up and
        // died mid-flight: only the worker's *child* spans made it into a
        // dump, the worker.task span that parented them never did.
        let mut asm = TraceAssembler::new();
        let master = r#"{"thread":"main","kind":"enter","name":"master.dispatch","trace":"9","span":"1","parent":"0","depth":0,"t_us":0}
"#;
        let dead_worker = r#"{"thread":"acc-worker-w0","kind":"enter","name":"worker.compute","trace":"9","span":"30","parent":"20","depth":1,"t_us":50}
{"thread":"acc-worker-w0","kind":"enter","name":"worker.result.write","trace":"9","span":"31","parent":"30","depth":2,"t_us":90}
"#;
        assert_eq!(asm.add_flight_json("master", master), 1);
        assert_eq!(asm.add_flight_json("w0", dead_worker), 2);

        // Stitching still works where it can: ancestry stops cleanly at
        // the missing parent instead of failing or looping.
        let write = asm.find("worker.result.write").unwrap();
        let chain = asm.ancestry(write.span_id);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].name, "worker.compute");

        // The orphan is identified: worker.compute's parent (span 0x20,
        // the worker.task span) is in no dump. Its own child is not an
        // orphan — it hangs off a span we do have.
        let orphans = asm.orphans(9);
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].name, "worker.compute");

        // The render keeps the true root at the top level and the
        // orphan subtree under an explicit section, fully indented.
        let tree = asm.render_tree(9);
        assert!(tree.starts_with("master.dispatch"), "{tree}");
        assert!(
            tree.contains("orphaned spans (parent dump missing)"),
            "{tree}"
        );
        assert!(tree.contains("worker.compute [w0/acc-worker-w0]"), "{tree}");
        assert!(tree.contains("  worker.result.write"), "{tree}");
    }

    #[test]
    fn complete_trace_renders_without_orphan_section() {
        let mut asm = TraceAssembler::new();
        let dump = r#"{"thread":"t","kind":"enter","name":"root","trace":"5","span":"1","parent":"0","depth":0,"t_us":0}
{"thread":"t","kind":"enter","name":"leaf","trace":"5","span":"2","parent":"1","depth":1,"t_us":1}
"#;
        assert_eq!(asm.add_flight_json("p", dump), 2);
        assert!(asm.orphans(5).is_empty());
        let tree = asm.render_tree(5);
        assert!(!tree.contains("orphaned spans"), "{tree}");
        assert!(tree.contains("root"), "{tree}");
        assert!(tree.contains("  leaf"), "{tree}");
    }

    #[test]
    fn exit_records_fold_durations_into_spans() {
        let mut asm = TraceAssembler::new();
        let dump = r#"{"thread":"t","kind":"enter","name":"root","trace":"5","span":"1","parent":"0","depth":0,"t_us":0}
{"thread":"t","kind":"enter","name":"leaf","trace":"5","span":"2","parent":"1","depth":1,"t_us":10}
{"thread":"t","kind":"exit","name":"leaf","trace":"5","span":"2","parent":"1","depth":1,"t_us":40,"elapsed_us":30}
{"thread":"t","kind":"exit","name":"missing","trace":"5","span":"9","parent":"0","depth":0,"t_us":50,"elapsed_us":99}
"#;
        assert_eq!(asm.add_flight_json("p", dump), 2);
        assert_eq!(asm.find("leaf").unwrap().elapsed_us, 30);
        assert_eq!(asm.find("root").unwrap().elapsed_us, 0, "root never exited");
    }

    #[test]
    fn a_dump_cut_mid_line_still_yields_every_complete_line() {
        let dump = r#"{"pid":1,"dropped":0,"retained":[],"events":[
{"thread":"t","kind":"enter","name":"root","trace":"5","span":"1","parent":"0","depth":0,"t_us":0},
{"thread":"t","kind":"enter","name":"leaf","trace":"5","span":"2","parent":"1","depth":1,"t_us":1},
{"thread":"t","kind":"enter","name":"cut","trace":"5","span":"3","parent":"1","depth":1,"t_us":2}
]}
"#;
        let crash = dump.find("\"cut\"").expect("the last record");
        let mut asm = TraceAssembler::new();
        assert_eq!(asm.add_flight_json("p", &dump[..crash]), 2);
        assert_eq!(asm.find("leaf").unwrap().thread, "t");
        assert!(asm.find("cut").is_none());
    }

    #[test]
    fn flight_parser_survives_hostile_names() {
        let mut asm = TraceAssembler::new();
        let dump = r#"{"thread":"we\"ird\\thread","kind":"enter","name":"x","trace":"1","span":"2","parent":"0","depth":0,"t_us":0}
not json at all
{"thread":"we\"ird\\thread","kind":"event","name":"ignored","trace":"1","span":"3"}
"#;
        assert_eq!(asm.add_flight_json("p", dump), 1);
        assert_eq!(asm.find("x").unwrap().thread, "we\"ird\\thread");
    }
}

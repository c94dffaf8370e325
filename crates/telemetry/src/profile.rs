//! Per-job waterfall profiles: phase attribution, critical-path
//! reconstruction and a one-word bound verdict.
//!
//! The cluster already records *per-task* cost (the `TaskTiming` that
//! rides every result tuple) and *per-span* structure (the flight
//! recorder / [`TraceAssembler`]). This module defines the job-level
//! answer assembled from them: a [`JobProfile`] with
//!
//! * **phase totals** — how much of the job's aggregate effort went to
//!   dispatch, space wait, transfer, compute, result write and master
//!   aggregation ([`PhaseTotals`]);
//! * a **critical path** — the chain of work bounding job wall-clock:
//!   dispatch followed by the task chain of the worker whose last result
//!   closed the job ([`CriticalPath`]);
//! * a **bound verdict** — one word naming the dominant regime
//!   ([`BoundVerdict`]), with an evidence string carrying the numbers
//!   behind it ([`judge`]);
//! * optional **scatter-gather fan-out** attribution per grid shard
//!   ([`ShardPhase`]).
//!
//! The types live here (not in the cluster crate) so anything holding a
//! flight dump — a test, a post-mortem script — can build profiles and
//! write them as the `/profile.json` document; `acc_top` draws the
//! waterfall from that document. The master-side `JobProfiler` that folds
//! live result tuples into profiles lives with the observer in
//! `acc-cluster`.
//!
//! [`span_critical_path`] is the span-tree counterpart: given an
//! assembled cross-process trace, it walks from the root down the
//! longest-duration child at each level, yielding the chain of spans
//! that bounded that trace.

use crate::context::{SpanRecord, TraceAssembler};
use crate::json::Json;

/// Aggregate microseconds per phase, summed over every task of a job.
///
/// The task-side fields are raw sums of the corresponding `TaskTiming`
/// fields; `dispatch_us` and `aggregation_us` are master-side scalars.
/// Note `wait_us` and `xfer_us` overlap by construction: the first task
/// of a prefetch batch carries the full take round-trip as `wait_us`
/// *and* its per-task transfer share as `xfer_us` (see the worker's
/// timing attribution). Critical-path arithmetic de-duplicates this;
/// the totals here stay raw so they reconcile exactly with the summed
/// `TaskTiming` fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Master-side task planning + dispatch writes.
    pub dispatch_us: u64,
    /// Blocked in `take` waiting for a task to arrive (space wait).
    pub wait_us: u64,
    /// Per-task share of batch transfer cost.
    pub xfer_us: u64,
    /// Executor compute time.
    pub compute_us: u64,
    /// Result-tuple write cost.
    pub write_us: u64,
    /// Master-side result gathering (aggregation loop).
    pub aggregation_us: u64,
}

impl PhaseTotals {
    /// Sum over every phase (raw; wait/xfer overlap included).
    pub fn sum(&self) -> u64 {
        self.dispatch_us
            + self.wait_us
            + self.xfer_us
            + self.compute_us
            + self.write_us
            + self.aggregation_us
    }

    /// The `phases` section of `/profile.json`.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("dispatch_us", self.dispatch_us.into()),
            ("wait_us", self.wait_us.into()),
            ("xfer_us", self.xfer_us.into()),
            ("compute_us", self.compute_us.into()),
            ("write_us", self.write_us.into()),
            ("aggregation_us", self.aggregation_us.into()),
        ])
    }
}

/// One step of a critical path: the dispatch segment or one task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSegment {
    /// Human label (`dispatch`, `task 17`).
    pub label: String,
    /// Task id, `None` for master-side segments.
    pub task_id: Option<u64>,
    /// Worker that executed the segment (empty for master-side).
    pub worker: String,
    /// Effective duration: for a task,
    /// `max(wait, xfer) + compute + write` — wait already contains the
    /// batch round-trip the transfer share was carved from, so adding
    /// both would double-count it.
    pub duration_us: u64,
}

/// The chain of work bounding job wall-clock: a dispatch segment
/// followed by every task the bounding worker executed, in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// The bounding worker (the one whose last result closed the job).
    pub worker: String,
    /// Retained segment detail, oldest first (bounded; see `omitted`).
    pub segments: Vec<PathSegment>,
    /// Segments whose detail was not retained (their time still counts
    /// in `total_us`).
    pub omitted: usize,
    /// Full chain duration including omitted segments.
    pub total_us: u64,
}

impl CriticalPath {
    /// The `critical_path` section of `/profile.json`.
    pub fn to_json(&self) -> Json {
        let segments = self.segments.iter().map(|s| {
            Json::object([
                ("label", s.label.as_str().into()),
                ("task", s.task_id.into()),
                ("worker", s.worker.as_str().into()),
                ("duration_us", s.duration_us.into()),
            ])
        });
        Json::object([
            ("worker", self.worker.as_str().into()),
            ("total_us", self.total_us.into()),
            ("omitted", self.omitted.into()),
            ("segments", segments.collect()),
        ])
    }
}

/// Scatter-gather fan-out attribution for one grid shard over the job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPhase {
    /// Shard index in the grid.
    pub index: usize,
    /// Shard server address.
    pub addr: String,
    /// Operations routed to the shard during the job.
    pub ops: u64,
    /// Total microseconds spent in those operations.
    pub total_us: u64,
}

/// The one-word answer: which regime bounded the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundVerdict {
    /// Master-side planning/dispatch dominated the critical path.
    DispatchBound,
    /// Space interaction (wait + transfer + result write) dominated.
    SpaceBound,
    /// Executor compute dominated, spread evenly across workers.
    ComputeBound,
    /// One slow worker bounded the job while peers sat done.
    StragglerBound,
}

impl BoundVerdict {
    /// The canonical hyphenated form (`straggler-bound`, …).
    pub fn as_str(&self) -> &'static str {
        match self {
            BoundVerdict::DispatchBound => "dispatch-bound",
            BoundVerdict::SpaceBound => "space-bound",
            BoundVerdict::ComputeBound => "compute-bound",
            BoundVerdict::StragglerBound => "straggler-bound",
        }
    }
}

/// Everything [`judge`] needs, reduced to scalars so the caller decides
/// where the numbers come from (live observer state, a replayed dump…).
#[derive(Debug, Clone, Default)]
pub struct VerdictInput {
    /// Dispatch time on the critical path, µs.
    pub dispatch_us: u64,
    /// Space interaction (wait + transfer + result write) on the
    /// critical path, µs.
    pub space_us: u64,
    /// Compute on the critical path, µs.
    pub compute_us: u64,
    /// True when the straggler detector flagged the critical-path worker.
    pub straggler_flagged: bool,
    /// Mean per-task compute of the critical-path worker, µs.
    pub path_worker_mean_compute_us: f64,
    /// Mean per-task compute across the *other* workers, µs (0 when the
    /// job ran on a single worker).
    pub peer_mean_compute_us: f64,
}

/// How much slower than its peers' mean compute a worker must be for the
/// fallback straggler rule (no detector flag) to fire.
pub const STRAGGLER_RATIO: f64 = 2.0;

/// Names the dominant regime and returns the evidence behind the call.
///
/// Straggler wins first: either the cluster's straggler detector flagged
/// the critical-path worker, or that worker's mean per-task compute is
/// at least [`STRAGGLER_RATIO`]× its peers' — a job bounded by one slow
/// machine is a scheduling problem before it is a compute problem.
/// Otherwise the largest critical-path share (dispatch / space /
/// compute) names the verdict.
pub fn judge(input: &VerdictInput) -> (BoundVerdict, String) {
    let total = (input.dispatch_us + input.space_us + input.compute_us).max(1);
    let pct = |us: u64| us as f64 * 100.0 / total as f64;
    let shares = format!(
        "critical path: dispatch {:.1}%, space {:.1}%, compute {:.1}%",
        pct(input.dispatch_us),
        pct(input.space_us),
        pct(input.compute_us)
    );
    let ratio = if input.peer_mean_compute_us > 0.0 {
        input.path_worker_mean_compute_us / input.peer_mean_compute_us
    } else {
        0.0
    };
    if input.straggler_flagged || ratio >= STRAGGLER_RATIO {
        let why = if input.straggler_flagged {
            "flagged by the straggler detector".to_owned()
        } else {
            format!("{ratio:.1}x its peers' mean compute")
        };
        return (
            BoundVerdict::StragglerBound,
            format!("bounding worker is {why}; {shares}"),
        );
    }
    let verdict = if input.dispatch_us >= input.space_us && input.dispatch_us >= input.compute_us {
        BoundVerdict::DispatchBound
    } else if input.space_us >= input.compute_us {
        BoundVerdict::SpaceBound
    } else {
        BoundVerdict::ComputeBound
    };
    (verdict, shares)
}

/// One job's assembled waterfall profile.
#[derive(Debug, Clone)]
pub struct JobProfile {
    /// Job name.
    pub job: String,
    /// Results folded in.
    pub tasks: u64,
    /// Results that carried an executor error.
    pub errors: u64,
    /// Job wall-clock, milliseconds (elapsed-so-far while running).
    pub wall_ms: u64,
    /// False while the job is still running.
    pub finished: bool,
    /// Aggregate per-phase totals.
    pub phases: PhaseTotals,
    /// The reconstructed bounding chain.
    pub critical_path: CriticalPath,
    /// Per-shard scatter-gather attribution (empty without a grid).
    pub fanout: Vec<ShardPhase>,
    /// The one-word answer.
    pub verdict: BoundVerdict,
    /// The numbers behind the verdict.
    pub evidence: String,
}

impl JobProfile {
    /// The full profile as one `/profile.json` object.
    pub fn to_json(&self) -> Json {
        let fanout = self.fanout.iter().map(|s| {
            Json::object([
                ("shard", s.index.into()),
                ("addr", s.addr.as_str().into()),
                ("ops", s.ops.into()),
                ("total_us", s.total_us.into()),
            ])
        });
        Json::object([
            ("job", self.job.as_str().into()),
            ("tasks", self.tasks.into()),
            ("errors", self.errors.into()),
            ("wall_ms", self.wall_ms.into()),
            ("finished", self.finished.into()),
            ("verdict", self.verdict.as_str().into()),
            ("evidence", self.evidence.as_str().into()),
            ("phases", self.phases.to_json()),
            ("critical_path", self.critical_path.to_json()),
            ("fanout", fanout.collect()),
        ])
    }
}

/// Walks an assembled trace from its root down the longest child at each
/// level: the chain of spans that bounded the trace's wall-clock.
///
/// The root is the trace's `parent == 0` span with the largest folded
/// duration (several processes can contribute roots); descent always
/// follows the child with the largest [`SpanRecord::elapsed_us`], ties
/// broken toward the later-starting span. Spans whose exit was never
/// observed count as duration 0, so a truncated dump shortens the path
/// rather than inventing one. Empty when the trace has no root span.
pub fn span_critical_path<'a>(asm: &'a TraceAssembler, trace_id: u64) -> Vec<&'a SpanRecord> {
    let spans = asm.spans(trace_id);
    let best = |candidates: &[&'a SpanRecord]| -> Option<&'a SpanRecord> {
        candidates
            .iter()
            .copied()
            .max_by_key(|s| (s.elapsed_us, s.t_us))
    };
    let roots: Vec<&SpanRecord> = spans
        .iter()
        .copied()
        .filter(|s| s.parent_span_id == 0)
        .collect();
    let mut chain = Vec::new();
    let mut cursor = match best(&roots) {
        Some(root) => root,
        None => return chain,
    };
    loop {
        chain.push(cursor);
        let children: Vec<&SpanRecord> = spans
            .iter()
            .copied()
            .filter(|s| s.parent_span_id == cursor.span_id)
            .collect();
        match best(&children) {
            Some(child) if chain.len() <= spans.len() => cursor = child,
            _ => break,
        }
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> JobProfile {
        JobProfile {
            job: "render \"x\"".into(),
            tasks: 40,
            errors: 1,
            wall_ms: 620,
            finished: true,
            phases: PhaseTotals {
                dispatch_us: 3_000,
                wait_us: 42_000,
                xfer_us: 9_000,
                compute_us: 510_000,
                write_us: 8_000,
                aggregation_us: 2_000,
            },
            critical_path: CriticalPath {
                worker: "w-slow".into(),
                segments: vec![
                    PathSegment {
                        label: "dispatch".into(),
                        task_id: None,
                        worker: String::new(),
                        duration_us: 3_000,
                    },
                    PathSegment {
                        label: "task 4".into(),
                        task_id: Some(4),
                        worker: "w-slow".into(),
                        duration_us: 140_000,
                    },
                ],
                omitted: 3,
                total_us: 600_000,
            },
            fanout: vec![ShardPhase {
                index: 0,
                addr: "127.0.0.1:9201".into(),
                ops: 120,
                total_us: 23_000,
            }],
            verdict: BoundVerdict::StragglerBound,
            evidence: "bounding worker is 4.2x its peers' mean compute".into(),
        }
    }

    #[test]
    fn phase_totals_sum_and_json() {
        let p = sample_profile().phases;
        assert_eq!(p.sum(), 574_000);
        let json = Json::parse(&p.to_json().to_string()).unwrap();
        assert_eq!(json["compute_us"].as_u64(), Some(510_000), "{json}");
        assert_eq!(json["aggregation_us"].as_u64(), Some(2_000), "{json}");
    }

    #[test]
    fn judge_prefers_straggler_then_largest_share() {
        let (v, why) = judge(&VerdictInput {
            dispatch_us: 10,
            space_us: 20,
            compute_us: 1_000,
            straggler_flagged: true,
            path_worker_mean_compute_us: 100.0,
            peer_mean_compute_us: 90.0,
        });
        assert_eq!(v, BoundVerdict::StragglerBound);
        assert!(why.contains("straggler detector"), "{why}");

        let (v, why) = judge(&VerdictInput {
            dispatch_us: 10,
            space_us: 20,
            compute_us: 1_000,
            straggler_flagged: false,
            path_worker_mean_compute_us: 500.0,
            peer_mean_compute_us: 100.0,
        });
        assert_eq!(v, BoundVerdict::StragglerBound);
        assert!(why.contains("5.0x"), "{why}");

        let (v, _) = judge(&VerdictInput {
            dispatch_us: 10,
            space_us: 20,
            compute_us: 1_000,
            straggler_flagged: false,
            path_worker_mean_compute_us: 100.0,
            peer_mean_compute_us: 100.0,
        });
        assert_eq!(v, BoundVerdict::ComputeBound);

        let (v, _) = judge(&VerdictInput {
            dispatch_us: 10,
            space_us: 2_000,
            compute_us: 1_000,
            ..VerdictInput::default()
        });
        assert_eq!(v, BoundVerdict::SpaceBound);

        let (v, _) = judge(&VerdictInput {
            dispatch_us: 5_000,
            space_us: 2_000,
            compute_us: 1_000,
            ..VerdictInput::default()
        });
        assert_eq!(v, BoundVerdict::DispatchBound);

        // Single-worker job: no peers, ratio rule cannot fire.
        let (v, _) = judge(&VerdictInput {
            dispatch_us: 10,
            space_us: 20,
            compute_us: 1_000,
            straggler_flagged: false,
            path_worker_mean_compute_us: 500.0,
            peer_mean_compute_us: 0.0,
        });
        assert_eq!(v, BoundVerdict::ComputeBound);
    }

    #[test]
    fn profile_renders_json_and_waterfall() {
        let json = Json::parse(&sample_profile().to_json().to_string()).unwrap();
        assert_eq!(json["job"].as_str(), Some("render \"x\""), "{json}");
        assert_eq!(json["verdict"].as_str(), Some("straggler-bound"), "{json}");
        let segments = &json["critical_path"]["segments"];
        assert_eq!(segments[0]["task"], Json::Null, "{json}");
        assert_eq!(segments[1]["task"].as_u64(), Some(4), "{json}");
        assert_eq!(json["critical_path"]["omitted"].as_u64(), Some(3), "{json}");
        assert_eq!(json["fanout"][0]["shard"].as_u64(), Some(0), "{json}");
        assert_eq!(
            json["phases"]["compute_us"].as_u64(),
            Some(510_000),
            "{json}"
        );
    }

    #[test]
    fn span_critical_path_follows_longest_children() {
        let mut asm = TraceAssembler::new();
        let dump = r#"{"thread":"t","kind":"enter","name":"job","trace":"a","span":"1","parent":"0","depth":0,"t_us":0}
{"thread":"t","kind":"enter","name":"fast.task","trace":"a","span":"2","parent":"1","depth":1,"t_us":5}
{"thread":"t","kind":"enter","name":"slow.task","trace":"a","span":"3","parent":"1","depth":1,"t_us":6}
{"thread":"t","kind":"enter","name":"slow.compute","trace":"a","span":"4","parent":"3","depth":2,"t_us":7}
{"thread":"t","kind":"exit","name":"slow.compute","trace":"a","span":"4","parent":"3","depth":2,"t_us":90,"elapsed_us":83}
{"thread":"t","kind":"exit","name":"slow.task","trace":"a","span":"3","parent":"1","depth":1,"t_us":95,"elapsed_us":89}
{"thread":"t","kind":"exit","name":"fast.task","trace":"a","span":"2","parent":"1","depth":1,"t_us":9,"elapsed_us":4}
{"thread":"t","kind":"exit","name":"job","trace":"a","span":"1","parent":"0","depth":0,"t_us":100,"elapsed_us":100}
"#;
        assert_eq!(asm.add_flight_json("p", dump), 4);
        let path: Vec<&str> = span_critical_path(&asm, 0xa)
            .iter()
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(path, vec!["job", "slow.task", "slow.compute"]);
        // Chain total is bounded by the root's duration.
        let chain = span_critical_path(&asm, 0xa);
        assert!(chain[1..]
            .iter()
            .all(|s| s.elapsed_us <= chain[0].elapsed_us));
        assert!(span_critical_path(&asm, 0xdead).is_empty());
    }
}

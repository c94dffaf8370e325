//! One run of one workload: set-up, warm-up, the measured phase, the output
//! checks, and the metrics — end-to-end from an untraced run, per-layer
//! from a traced one.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_tuplespace::StoreHandle;

use crate::apps::{ExecLog, TracedApp};
use crate::jobs::{self, JobApp, JobSpec, Session, TraceCtx};
use crate::layers::{layer_metrics, CountDelta, TraceData};
use crate::ops::{self, ClientRun, OpsRig};
use crate::probes::{self, ProbeInput};
use crate::rig::{self, Rig, Topology};
use crate::spec::Metrics;
use crate::trace::{TracedStore, Tracer};
use crate::{gen, stats, Scale};

/// How long and how often a run does each thing.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub scale: Scale,
    pub seconds: f64,
    /// Requests (jobs, or blocks of op cycles) the measured phase completes
    /// at least, however short `seconds` is.
    pub min_requests: usize,
    /// Set-ups timed per untraced run; `setup_s` is their median.
    pub setups: usize,
    pub probe_iterations: usize,
}

impl Plan {
    pub fn full(seconds: f64) -> Plan {
        Plan {
            scale: Scale::Full,
            seconds,
            // The tail of the job workloads is a p90: it needs 100 jobs to
            // have ten samples beyond it, and gets 110.
            min_requests: 110,
            setups: 3,
            probe_iterations: 2_000,
        }
    }

    pub fn smoke() -> Plan {
        Plan {
            scale: Scale::Smoke,
            seconds: 0.1,
            min_requests: 3,
            setups: 1,
            probe_iterations: 64,
        }
    }
}

/// What a run reports.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Facts about the run that are not metrics (sample counts, which
    /// percentile the tail is, sync policy, …), for the human-readable part
    /// of the output.
    pub notes: Vec<String>,
    pub errors: Vec<String>,
}

/// Peak resident set of this process so far, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median_of(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// Request latencies of a measured phase, ascending, with the tail
/// percentile the workload reports.
struct Latencies {
    sorted_ms: Vec<f64>,
    tail: f64,
}

impl Latencies {
    fn new(latencies_ms: Vec<f64>, tail: f64) -> Latencies {
        Latencies {
            sorted_ms: stats::sorted(latencies_ms),
            tail,
        }
    }

    fn p50_ms(&self) -> f64 {
        stats::percentile(&self.sorted_ms, 0.50)
    }

    fn tail_ms(&self) -> f64 {
        stats::percentile(&self.sorted_ms, self.tail)
    }

    /// The sample count and the tail, which is printed but is not a bounded
    /// metric (see the README: it does not repeat on the reference host).
    fn note(&self) -> String {
        let n = self.sorted_ms.len();
        format!(
            "latency over {n} requests: p{} = {:.4} ms (highest percentile {n} samples support: {})",
            self.tail * 100.0,
            self.tail_ms(),
            stats::highest_supported(n).map_or("none".into(), |p| format!("p{}", p * 100.0)),
        )
    }
}

/// The end-to-end metrics of a measured phase, in `spec::END_TO_END` order.
fn end_to_end(
    items: u64,
    wall_s: f64,
    latencies: &Latencies,
    setup_s: &[f64],
    peak_rss_mb: f64,
) -> Metrics {
    vec![
        ("work_per_s", items as f64 / wall_s),
        ("latency_ms_p50", latencies.p50_ms()),
        ("setup_s", median_of(setup_s)),
        ("peak_rss_mb", peak_rss_mb),
    ]
}

// ---------------------------------------------------------------- jobs

/// Builds the rig, installs the application (wrapped when traced) and runs
/// one unmeasured warm-up job.
fn open_session(
    spec: JobSpec,
    app: &mut JobApp,
    tag: &str,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(Session, Option<Arc<TracedStore>>), String> {
    let mut installable = app.installable();
    let exec = Arc::new(ExecLog::default());
    let rig = match tracer {
        None => Rig::build(spec.topology, installable.as_ref(), tag)?,
        Some(tracer) => Rig::build(
            spec.topology,
            &TracedApp {
                inner: installable.as_mut(),
                tracer: tracer.clone(),
                log: exec.clone(),
            },
            tag,
        )?,
    };
    let (store, traced): (StoreHandle, _) = match tracer {
        None => (rig.cluster.store(), None),
        Some(tracer) => {
            let traced = TracedStore::new(rig.cluster.store(), tracer.clone());
            (traced.clone(), Some(traced))
        }
    };
    let session = Session {
        master: rig.master(store.clone()),
        rig,
        store,
        trace: tracer.map(|tracer| TraceCtx {
            tracer: tracer.clone(),
            exec,
        }),
    };
    let warm = app.run_one(&session.master, None);
    if let Some(error) = warm.error {
        return Err(format!("warm-up job failed: {error}"));
    }
    Ok((session, traced))
}

fn close_session(session: Session) -> Vec<std::path::PathBuf> {
    let Session { rig, .. } = session;
    rig.teardown()
}

fn remove_dirs(dirs: &[std::path::PathBuf]) {
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn job_notes(spec: JobSpec, app: &JobApp, notes: &mut Vec<String>) {
    notes.push(format!(
        "{} tasks per job, {} workers, {} shard server(s)",
        app.tasks_per_job(),
        rig::WORKERS,
        spec.topology.shards
    ));
    if spec.topology.durable {
        notes.push(format!(
            "WAL: SyncPolicy::EveryN(64) (WalOptions::default()), directory on {} under {}",
            rig::fs_type(&rig::out_dir()),
            rig::out_dir().display()
        ));
    }
}

/// An untraced run of a job workload: the end-to-end metrics.
pub fn job_untraced(
    workload: &str,
    spec: JobSpec,
    seed: u64,
    plan: Plan,
) -> Result<RunResult, String> {
    let mut app = JobApp::new(spec.app, seed);
    let mut notes = Vec::new();
    job_notes(spec, &app, &mut notes);

    // Set-up is everything from an empty process to the first measured job.
    let mut setup_s = Vec::new();
    let t0 = Instant::now();
    let (session, _) = open_session(spec, &mut app, &format!("{workload}-0"), None)?;
    setup_s.push(t0.elapsed().as_secs_f64());

    let m = jobs::measure(
        &session,
        &mut app,
        Duration::from_secs_f64(plan.seconds),
        plan.min_requests,
        0,
    );
    // Read here, before the recovery check loads the whole WAL into this
    // process and before the further set-ups: one set-up and the measured
    // phase are what a user of the system would hold in memory.
    let peak_rss_mb = peak_rss_mb();
    let mut errors = m.errors.clone();
    let non_start = session.rig.non_start_signals();
    if non_start > 0 {
        errors.push(format!(
            "{non_start} Stop/Pause/Resume signals reached the workers: the run is void"
        ));
    }
    let wal_dirs = close_session(session);
    let mut failed = m.failed;
    for dir in &wal_dirs {
        if let Err(e) = jobs::check_recovery(dir, m.jobs()) {
            errors.push(e);
            failed = m.attempted;
        }
    }
    remove_dirs(&wal_dirs);

    // The further set-ups are only timed: `setup_s` is the median of all.
    for rep in 1..plan.setups {
        let t0 = Instant::now();
        let (again, _) = open_session(spec, &mut app, &format!("{workload}-{rep}"), None)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        remove_dirs(&close_session(again));
    }

    let latencies = Latencies::new(m.job_ms, 0.90);
    notes.push(latencies.note());
    Ok(RunResult {
        correct: errors.is_empty() && failed == 0,
        attempted: m.attempted,
        failed,
        metrics: end_to_end(m.attempted, m.wall_s, &latencies, &setup_s, peak_rss_mb),
        notes,
        errors,
    })
}

fn shard_ops_since(rig: &Rig, before: &[acc_telemetry::profile::ShardPhase]) -> Vec<u64> {
    rig.cluster
        .grid()
        .map(|grid| grid.fanout_since(before).iter().map(|s| s.ops).collect())
        .unwrap_or_default()
}

/// A traced run of a job workload: a quarter of the time untraced (the
/// overhead reference), the rest traced, then the layer probes.
pub fn job_traced(
    workload: &str,
    spec: JobSpec,
    seed: u64,
    plan: Plan,
) -> Result<RunResult, String> {
    let tracer = Tracer::new();
    let mut app = JobApp::new(spec.app, seed);
    let mut notes = Vec::new();
    job_notes(spec, &app, &mut notes);
    let (session, traced) =
        open_session(spec, &mut app, &format!("{workload}-traced"), Some(&tracer))?;
    let traced = traced.expect("a traced session has a traced store");
    let floor = plan.min_requests.min(20);

    let reference = jobs::measure(
        &session,
        &mut app,
        Duration::from_secs_f64(plan.seconds * 0.25),
        floor,
        0,
    );

    let registry_before = acc_telemetry::registry().snapshot();
    let fanout_before = session
        .rig
        .cluster
        .grid()
        .map(|g| g.fanout_profile())
        .unwrap_or_default();
    tracer.set_on(true);
    let m = jobs::measure(
        &session,
        &mut app,
        Duration::from_secs_f64(plan.seconds * 0.75),
        floor,
        reference.jobs(),
    );
    tracer.set_on(false);
    let counts = CountDelta::between(&registry_before, &acc_telemetry::registry().snapshot());
    let shard_ops = shard_ops_since(&session.rig, &fanout_before);

    let mut errors: Vec<String> = reference.errors.iter().chain(&m.errors).cloned().collect();
    let non_start_signals = session.rig.non_start_signals();
    let exec = session.trace.as_ref().expect("traced session").exec.clone();
    let wal_dirs = close_session(session);
    let mut failed = reference.failed + m.failed;
    let attempted = reference.attempted + m.attempted;
    for dir in &wal_dirs {
        if let Err(e) = jobs::check_recovery(dir, reference.jobs() + m.jobs()) {
            errors.push(e);
            failed = attempted;
        }
    }
    remove_dirs(&wal_dirs);

    // grid4_job's yardstick: the same application through one shard, in
    // this process, untraced.
    let direct_us_per_task = if spec.topology.shards > 1 {
        let direct = JobSpec {
            topology: Topology {
                shards: 1,
                ..spec.topology
            },
            ..spec
        };
        let (session, _) = open_session(direct, &mut app, &format!("{workload}-direct"), None)?;
        let d = jobs::measure(
            &session,
            &mut app,
            Duration::from_secs_f64(plan.seconds * 0.1),
            floor,
            0,
        );
        errors.extend(d.errors.iter().cloned());
        remove_dirs(&close_session(session));
        Some(d.wall_s * 1e6 / d.attempted.max(1) as f64)
    } else {
        None
    };

    let results = traced.take_log();
    let (Some(task), Some(result)) = (&results.sample_task, &results.sample_result) else {
        return Err(format!(
            "no task or result tuple crossed the master's store handle: {errors:?}"
        ));
    };
    let scratch = rig::out_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {scratch:?}: {e}"))?;
    let probes = probes::run(ProbeInput {
        task,
        result,
        backlog: Vec::new(),
        scan_field: "payload",
        iterations: plan.probe_iterations,
        dir: &scratch,
    })?;

    let span_file = scratch.join(format!("{workload}.spans.jsonl"));
    let written = tracer
        .flush(&span_file)
        .map_err(|e| format!("write {span_file:?}: {e}"))?;
    notes.push(format!(
        "{written} spans written to {}",
        span_file.display()
    ));
    notes.push(format!(
        "traced segment: {} jobs in {:.3} s; untraced reference: {} jobs",
        m.jobs(),
        m.wall_s,
        reference.jobs()
    ));

    let data = TraceData {
        items: m.attempted,
        requests: m.jobs(),
        wall_s: m.wall_s,
        spans: tracer.take_spans(),
        store_calls: traced.calls(),
        results,
        executed_tasks: exec.tasks.load(Ordering::Relaxed),
        result_payload_bytes: exec.result_bytes.load(Ordering::Relaxed),
        plan_ms: m.plan_ms,
        aggregate_ms: m.aggregate_ms,
        counts,
        shard_ops,
        non_start_signals,
        scan_takes: 0,
        probes,
        traced_p50_ms: median_of(&m.job_ms),
        untraced_p50_ms: median_of(&reference.job_ms),
        tail_ms: Latencies::new([reference.job_ms, m.job_ms].concat(), 0.90).tail_ms(),
        direct_us_per_task,
    };
    if non_start_signals > 0 {
        errors.push(format!(
            "{non_start_signals} Stop/Pause/Resume signals reached the workers: the run is void"
        ));
    }
    Ok(RunResult {
        correct: errors.is_empty() && failed == 0,
        attempted,
        failed,
        metrics: layer_metrics(&data),
        notes,
        errors,
    })
}

// ----------------------------------------------------------------- ops

struct OpsPhase {
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    scan_takes: u64,
    blocks: u64,
    wall_s: f64,
    errors: Vec<String>,
}

fn fold_clients(runs: Vec<ClientRun>, wall_s: f64) -> OpsPhase {
    let mut phase = OpsPhase {
        op_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        scan_takes: 0,
        blocks: 0,
        wall_s,
        errors: Vec::new(),
    };
    for run in runs {
        phase
            .op_ms
            .extend(run.op_ns.iter().map(|&ns| f64::from(ns) / 1e6));
        phase.attempted += run.attempted;
        phase.failed += run.failed;
        phase.scan_takes += run.scan_takes;
        phase.blocks += run.blocks;
        phase.errors.extend(run.first_error);
    }
    phase
}

/// Builds the `space_ops` rig and runs the unmeasured warm-up cycles.
fn open_ops(
    seed: u64,
    scale: Scale,
    tracer: Option<&Arc<Tracer>>,
) -> Result<(OpsRig, Vec<gen::OpStream>), String> {
    let rig = OpsRig::build(seed, scale, tracer)?;
    let mut streams: Vec<gen::OpStream> = (0..ops::CLIENTS)
        .map(|client| gen::OpStream::new(seed, client))
        .collect();
    let warm_blocks = ops::warmup_cycles(scale) / gen::BLOCK_CYCLES;
    let (runs, wall_s) = ops::run_phase(&rig, &mut streams, Duration::ZERO, warm_blocks, None);
    let warm = fold_clients(runs, wall_s);
    if let Some(error) = warm.errors.first() {
        return Err(format!("warm-up ops failed: {error}"));
    }
    Ok((rig, streams))
}

fn ops_notes(scale: Scale, notes: &mut Vec<String>) {
    notes.push(format!(
        "{} clients, {} resident tuples of {} other jobs, 1 scan pair per {} cycles",
        ops::CLIENTS,
        ops::backlog_size(scale),
        gen::BACKLOG_JOBS,
        gen::BLOCK_CYCLES
    ));
}

/// An untraced run of `space_ops`.
pub fn ops_untraced(seed: u64, plan: Plan) -> Result<RunResult, String> {
    let mut notes = Vec::new();
    ops_notes(plan.scale, &mut notes);
    let mut setup_s = Vec::new();
    let t0 = Instant::now();
    let (rig, mut streams) = open_ops(seed, plan.scale, None)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    let (runs, wall_s) = ops::run_phase(
        &rig,
        &mut streams,
        Duration::from_secs_f64(plan.seconds),
        plan.min_requests as u64,
        None,
    );
    let peak_rss_mb = peak_rss_mb();
    let phase = fold_clients(runs, wall_s);
    let mut errors = phase.errors.clone();
    let mut failed = phase.failed;
    if let Err(e) = rig.check_backlog_intact() {
        errors.push(e);
        failed = failed.max(1);
    }
    rig.teardown();

    // The further set-ups are only timed: `setup_s` is the median of all.
    for _ in 1..plan.setups {
        let t0 = Instant::now();
        let (again, _) = open_ops(seed, plan.scale, None)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        again.teardown();
    }

    let latencies = Latencies::new(phase.op_ms, 0.99);
    notes.push(latencies.note());
    Ok(RunResult {
        correct: errors.is_empty() && failed == 0,
        attempted: phase.attempted,
        failed,
        metrics: end_to_end(
            phase.attempted,
            phase.wall_s,
            &latencies,
            &setup_s,
            peak_rss_mb,
        ),
        notes,
        errors,
    })
}

/// A traced run of `space_ops`.
pub fn ops_traced(seed: u64, plan: Plan) -> Result<RunResult, String> {
    let tracer = Tracer::new();
    let mut notes = Vec::new();
    ops_notes(plan.scale, &mut notes);
    let (rig, mut streams) = open_ops(seed, plan.scale, Some(&tracer))?;
    let floor = (plan.min_requests as u64).min(20);

    let (runs, wall_s) = ops::run_phase(
        &rig,
        &mut streams,
        Duration::from_secs_f64(plan.seconds * 0.25),
        floor,
        None,
    );
    let reference = fold_clients(runs, wall_s);

    let registry_before = acc_telemetry::registry().snapshot();
    tracer.set_on(true);
    let (runs, wall_s) = ops::run_phase(
        &rig,
        &mut streams,
        Duration::from_secs_f64(plan.seconds * 0.75),
        floor,
        Some(&tracer),
    );
    tracer.set_on(false);
    let counts = CountDelta::between(&registry_before, &acc_telemetry::registry().snapshot());
    let phase = fold_clients(runs, wall_s);

    let mut errors: Vec<String> = reference
        .errors
        .iter()
        .chain(&phase.errors)
        .cloned()
        .collect();
    let mut failed = reference.failed + phase.failed;
    if let Err(e) = rig.check_backlog_intact() {
        errors.push(e);
        failed = failed.max(1);
    }
    let store_calls = rig.traced.iter().map(|s| s.calls()).sum();
    rig.teardown();

    let sample = ops::sample_tuple(seed);
    let scratch = rig::out_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {scratch:?}: {e}"))?;
    let probes = probes::run(ProbeInput {
        task: &sample,
        result: &sample,
        backlog: gen::backlog(seed, ops::backlog_size(plan.scale)),
        scan_field: "key",
        iterations: plan.probe_iterations,
        dir: &scratch,
    })?;

    let span_file = scratch.join("space_ops.spans.jsonl");
    let written = tracer
        .flush(&span_file)
        .map_err(|e| format!("write {span_file:?}: {e}"))?;
    notes.push(format!(
        "{written} spans written to {}",
        span_file.display()
    ));
    notes.push(format!(
        "traced segment: {} ops in {:.3} s; untraced reference: {} ops",
        phase.attempted, phase.wall_s, reference.attempted
    ));

    let data = TraceData {
        items: phase.attempted,
        requests: phase.blocks,
        wall_s: phase.wall_s,
        spans: tracer.take_spans(),
        store_calls,
        counts,
        scan_takes: phase.scan_takes,
        probes,
        traced_p50_ms: median_of(&phase.op_ms),
        untraced_p50_ms: median_of(&reference.op_ms),
        tail_ms: Latencies::new([reference.op_ms, phase.op_ms].concat(), 0.99).tail_ms(),
        ..TraceData::default()
    };
    Ok(RunResult {
        correct: errors.is_empty() && failed == 0,
        attempted: reference.attempted + phase.attempted,
        failed,
        metrics: layer_metrics(&data),
        notes,
        errors,
    })
}

/// Runs `workload` once under `plan`.
pub fn run_workload(
    workload: &str,
    seed: u64,
    traced: bool,
    plan: Plan,
) -> Result<RunResult, String> {
    match (jobs::job_spec(workload, plan.scale), workload, traced) {
        (Some(spec), _, false) => job_untraced(workload, spec, seed, plan),
        (Some(spec), _, true) => job_traced(workload, spec, seed, plan),
        (None, "space_ops", false) => ops_untraced(seed, plan),
        (None, "space_ops", true) => ops_traced(seed, plan),
        _ => Err(format!("unknown workload '{workload}'")),
    }
}

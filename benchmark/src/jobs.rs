//! The five job workloads: a master dispatching whole jobs, closed loop,
//! to two workers through the real thread runtime.

use std::sync::Arc;
use std::time::{Duration, Instant};

use acc_apps::prefetch::{
    generate_cluster, pagerank_sequential, run_pagerank_parallel, LinkGraph, PageRank, PrefetchApp,
    StochasticMatrix,
};
use acc_apps::raytrace::{benchmark_scene, render_sequential, Image, RayTraceApp};
use acc_core::{Application, Master, RunReport};
use acc_tuplespace::{SpaceError, StoreHandle, Template, Tuple};

use crate::apps::{ExecLog, NullApp, TracedApp};
use crate::gen;
use crate::rig::{Rig, Topology};
use crate::trace::Tracer;
use crate::Scale;

/// Tuple type of the acknowledged writes `durable_job` looks for after
/// recovery.
pub const SENTINEL_TYPE: &str = "bench.sentinel";

/// Which application a job workload runs, at which size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// `tasks` zero-compute tasks with 64-byte payloads.
    Null { tasks: usize },
    /// `RayTraceApp` at `size`×`size` in strips of `strip_rows` lines.
    Raytrace { size: u32, strip_rows: u32 },
    /// PageRank over a generated cluster of `pages` pages.
    Prefetch { pages: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    pub app: AppKind,
    pub topology: Topology,
}

/// The job workloads by name. Sizes are constants, not flags: a result is
/// comparable with another only at the same sizes.
pub fn job_spec(workload: &str, scale: Scale) -> Option<JobSpec> {
    let full = scale == Scale::Full;
    let null = |tasks: usize| AppKind::Null {
        tasks: if full { tasks } else { tasks / 50 },
    };
    let one_shard = Topology {
        shards: 1,
        durable: false,
    };
    Some(match workload {
        "null_job" => JobSpec {
            app: null(2_000),
            topology: one_shard,
        },
        "raytrace_job" => JobSpec {
            // The paper's 600×600 plane in 24 slices of 25 lines.
            app: if full {
                AppKind::Raytrace {
                    size: 600,
                    strip_rows: 25,
                }
            } else {
                AppKind::Raytrace {
                    size: 72,
                    strip_rows: 3,
                }
            },
            topology: one_shard,
        },
        "prefetch_job" => JobSpec {
            app: AppKind::Prefetch {
                pages: if full { 500 } else { 100 },
            },
            topology: one_shard,
        },
        "grid4_job" => JobSpec {
            app: null(400),
            topology: Topology {
                shards: 4,
                durable: false,
            },
        },
        "durable_job" => JobSpec {
            app: null(1_200),
            topology: Topology {
                shards: 1,
                durable: true,
            },
        },
        _ => return None,
    })
}

/// What one job did.
#[derive(Debug, Clone, Default)]
pub struct JobOutcome {
    /// Tasks the job was meant to complete.
    pub attempted: u64,
    /// Tasks of an incomplete job, failed or absent results, and outputs
    /// that failed the workload's check.
    pub failed: u64,
    pub plan_ms: f64,
    pub aggregate_ms: f64,
    /// The first failed check, in words.
    pub error: Option<String>,
}

impl JobOutcome {
    fn fail_all(&mut self, why: String) {
        self.failed = self.attempted;
        self.error.get_or_insert(why);
    }

    fn fold(&mut self, report: &RunReport) {
        self.plan_ms += report.times.task_planning_ms;
        self.aggregate_ms += report.times.task_aggregation_ms;
    }
}

/// The spans and logs a traced job feeds.
pub struct TraceCtx {
    pub tracer: Arc<Tracer>,
    pub exec: Arc<ExecLog>,
}

/// A job workload's application and the reference output its results are
/// checked against.
pub enum JobApp {
    Null(NullApp),
    Raytrace {
        size: u32,
        strip_rows: u32,
        expected: Image,
    },
    Prefetch {
        matrix: StochasticMatrix,
        expected_ranks: Vec<f64>,
        expected_iterations: usize,
    },
}

/// Strip height of the prefetch application (the paper's 20 rows).
const PREFETCH_STRIP_ROWS: usize = 20;

/// Power iterations per solve: the count the paper configuration (seed
/// 2001) converges in. Every seed's page graph runs exactly this many
/// barrier rounds — the convergence test is switched off — so a solve is
/// the same amount of work whatever the seed.
const PREFETCH_ROUNDS: usize = 15;

fn prefetch_solver() -> PageRank {
    PageRank {
        tolerance: 0.0,
        max_iterations: PREFETCH_ROUNDS,
        ..PageRank::default()
    }
}

fn prefetch_app(matrix: &StochasticMatrix) -> PrefetchApp {
    let mut app = PrefetchApp::new(matrix.clone(), PREFETCH_STRIP_ROWS);
    app.solver = prefetch_solver();
    app
}

impl JobApp {
    /// Generates the inputs from `seed` and computes the reference output
    /// sequentially. The seed drives the null payload bytes and the page
    /// graph; the ray-traced scene is the paper's fixed one.
    pub fn new(kind: AppKind, seed: u64) -> JobApp {
        match kind {
            AppKind::Null { tasks } => {
                JobApp::Null(NullApp::new(gen::null_payloads(seed, tasks, 64)))
            }
            AppKind::Raytrace { size, strip_rows } => JobApp::Raytrace {
                size,
                strip_rows,
                expected: render_sequential(&benchmark_scene(), size, size),
            },
            AppKind::Prefetch { pages } => {
                let graph = LinkGraph::from_pages(&generate_cluster("acme", pages, seed));
                let matrix = StochasticMatrix::from_graph(&graph);
                let (expected_ranks, expected_iterations) =
                    pagerank_sequential(&matrix, &prefetch_solver());
                JobApp::Prefetch {
                    matrix,
                    expected_ranks,
                    expected_iterations,
                }
            }
        }
    }

    fn raytrace(size: u32, strip_rows: u32) -> RayTraceApp {
        RayTraceApp::new(benchmark_scene(), size, size, strip_rows)
    }

    /// An instance to install on the cluster (it supplies the executor the
    /// workers link).
    pub fn installable(&self) -> Box<dyn Application> {
        match self {
            // The echo executor needs none of the payloads.
            JobApp::Null(_) => Box::new(NullApp::new(Vec::new())),
            JobApp::Raytrace {
                size, strip_rows, ..
            } => Box::new(JobApp::raytrace(*size, *strip_rows)),
            JobApp::Prefetch { matrix, .. } => Box::new(prefetch_app(matrix)),
        }
    }

    /// Tasks per job; for the prefetch solve, strips × rounds.
    pub fn tasks_per_job(&self) -> u64 {
        match self {
            JobApp::Null(app) => app.payloads().len() as u64,
            JobApp::Raytrace {
                size, strip_rows, ..
            } => u64::from(size / strip_rows),
            JobApp::Prefetch {
                matrix,
                expected_iterations,
                ..
            } => (matrix.strips(PREFETCH_STRIP_ROWS).len() * expected_iterations) as u64,
        }
    }

    /// Runs one job to completion and checks its output.
    pub fn run_one(&mut self, master: &Master, trace: Option<&TraceCtx>) -> JobOutcome {
        let mut outcome = JobOutcome {
            attempted: self.tasks_per_job(),
            ..JobOutcome::default()
        };
        match self {
            JobApp::Null(app) => {
                app.reset();
                match run_traced(master, app, trace) {
                    Err(e) => outcome.fail_all(format!("space error: {e}")),
                    Ok(report) => {
                        outcome.fold(&report);
                        if !report.complete {
                            outcome.fail_all(format!(
                                "incomplete job: {}/{} results",
                                report.results_collected, report.times.tasks
                            ));
                        }
                        let wrong = report.failures.len() as u64 + app.wrong_results();
                        if wrong > 0 {
                            outcome.failed = outcome.failed.max(wrong.min(outcome.attempted));
                            outcome.error.get_or_insert(format!(
                                "{wrong} tasks not echoed exactly once with their payload"
                            ));
                        }
                    }
                }
            }
            JobApp::Raytrace {
                size,
                strip_rows,
                expected,
            } => {
                let mut app = JobApp::raytrace(*size, *strip_rows);
                match run_traced(master, &mut app, trace) {
                    Err(e) => outcome.fail_all(format!("space error: {e}")),
                    Ok(report) => {
                        outcome.fold(&report);
                        if app.image().as_ref() != Some(expected) {
                            outcome.fail_all("image differs from render_sequential".into());
                        }
                    }
                }
            }
            JobApp::Prefetch {
                matrix,
                expected_ranks,
                expected_iterations,
            } => {
                // The executor wrapper installed on the workers still spans
                // every strip; planning and absorbing run inside the
                // library's own round loop and count as master time.
                let mut app = prefetch_app(matrix);
                let span = trace.and_then(|ctx| ctx.tracer.span("core.master.run"));
                let solved = run_pagerank_parallel(master, &mut app);
                drop(span);
                match solved {
                    Err(e) => outcome.fail_all(format!("solve failed: {e}")),
                    Ok(reports) => {
                        reports.iter().for_each(|r| outcome.fold(r));
                        let close = app.ranks().len() == expected_ranks.len()
                            && app
                                .ranks()
                                .iter()
                                .zip(expected_ranks.iter())
                                .all(|(a, b)| (a - b).abs() <= 1e-9);
                        if app.iterations() != *expected_iterations || !close {
                            outcome.fail_all(format!(
                                "ranks or iteration count ({} vs {expected_iterations}) differ from sequential PageRank",
                                app.iterations()
                            ));
                        }
                    }
                }
            }
        }
        outcome
    }
}

fn run_traced(
    master: &Master,
    app: &mut dyn Application,
    trace: Option<&TraceCtx>,
) -> Result<RunReport, SpaceError> {
    match trace {
        None => master.run(app),
        Some(ctx) => {
            let _span = ctx.tracer.span("core.master.run");
            master.run(&mut TracedApp {
                inner: app,
                tracer: ctx.tracer.clone(),
                log: ctx.exec.clone(),
            })
        }
    }
}

/// The measured phase of a job workload.
#[derive(Debug, Default)]
pub struct Measured {
    pub job_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub plan_ms: f64,
    pub aggregate_ms: f64,
    pub errors: Vec<String>,
}

impl Measured {
    pub fn jobs(&self) -> u64 {
        self.job_ms.len() as u64
    }
}

/// A built rig with the master that drives it and that master's handle to
/// the cluster's store (wrapped in a `TracedStore` on a traced run).
pub struct Session {
    pub rig: Rig,
    pub master: Master,
    pub store: StoreHandle,
    pub trace: Option<TraceCtx>,
}

/// Runs jobs back to back for `duration`, and on until `min_jobs` are in:
/// each job is dispatched when the previous one's last result is absorbed.
/// After every job no task or result tuple may remain in any shard; on a
/// durable rig a sentinel tuple numbered from `first_job` is then written
/// and acknowledged.
pub fn measure(
    session: &Session,
    app: &mut JobApp,
    duration: Duration,
    min_jobs: usize,
    first_job: u64,
) -> Measured {
    let Session {
        rig,
        master,
        store,
        trace,
    } = session;
    let trace = trace.as_ref().filter(|ctx| ctx.tracer.is_on());
    let durable = rig.is_durable();
    let mut m = Measured::default();
    let start = Instant::now();
    while start.elapsed() < duration || m.job_ms.len() < min_jobs {
        let job_index = first_job + m.jobs();
        let root = trace.and_then(|ctx| ctx.tracer.job("job", job_index));
        let t0 = Instant::now();
        let mut outcome = app.run_one(master, trace);
        m.job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(root);
        let leftover = rig.leftover_tuples();
        if leftover > 0 {
            outcome.fail_all(format!("{leftover} task/result tuples left in the shards"));
        }
        if durable {
            if let Err(e) = store.write(sentinel(job_index)) {
                outcome.fail_all(format!("sentinel write failed: {e}"));
            }
        }
        m.attempted += outcome.attempted;
        m.failed += outcome.failed;
        m.plan_ms += outcome.plan_ms;
        m.aggregate_ms += outcome.aggregate_ms;
        let fatal = outcome.error.is_some();
        m.errors.extend(outcome.error);
        if fatal && m.errors.len() >= 3 {
            break; // a broken system; three examples say as much as thirty
        }
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m
}

fn sentinel(job_index: u64) -> Tuple {
    Tuple::build(SENTINEL_TYPE)
        .field("job_index", job_index as i64)
        .done()
}

/// `durable_job`'s closing check: recover the WAL directory into a fresh
/// space; every acknowledged sentinel must be there, and no task or result.
pub fn check_recovery(dir: &std::path::Path, sentinels: u64) -> Result<(), String> {
    let recovered =
        acc_tuplespace::Space::recover(dir).map_err(|e| format!("recovery failed: {e}"))?;
    let mut missing = 0;
    for i in 0..sentinels {
        let template = Template::build(SENTINEL_TYPE)
            .eq("job_index", i as i64)
            .done();
        if recovered.count(&template) != 1 {
            missing += 1;
        }
    }
    let stray = recovered.count(&Template::of_type(acc_core::task::TASK_TYPE))
        + recovered.count(&Template::of_type(acc_core::task::RESULT_TYPE));
    recovered.close();
    if missing > 0 || stray > 0 {
        return Err(format!(
            "recovered space: {missing} of {sentinels} acknowledged sentinels missing, {stray} stray task/result tuples"
        ));
    }
    Ok(())
}

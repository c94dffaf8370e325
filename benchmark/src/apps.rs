//! The zero-compute application, and the delegating wrappers that put
//! spans around an application's planning, execution and aggregation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use acc_core::{Application, ExecError, TaskEntry, TaskExecutor, TaskSpec};

use crate::trace::Tracer;

/// Echoes each task's payload back: all framework, no compute. Aggregation
/// checks that every task id came back exactly once with its own payload.
pub struct NullApp {
    payloads: Arc<Vec<Vec<u8>>>,
    absorbed: Vec<u32>,
    mismatched: u64,
}

impl NullApp {
    pub fn new(payloads: Vec<Vec<u8>>) -> NullApp {
        let tasks = payloads.len();
        NullApp {
            payloads: Arc::new(payloads),
            absorbed: vec![0; tasks],
            mismatched: 0,
        }
    }

    pub fn payloads(&self) -> &[Vec<u8>] {
        &self.payloads
    }

    /// Forgets the previous job's results.
    pub fn reset(&mut self) {
        self.absorbed.iter_mut().for_each(|n| *n = 0);
        self.mismatched = 0;
    }

    /// Tasks that were not absorbed exactly once, plus results whose
    /// payload or id did not match what was planned.
    pub fn wrong_results(&self) -> u64 {
        self.absorbed.iter().filter(|&&n| n != 1).count() as u64 + self.mismatched
    }
}

impl Application for NullApp {
    fn job_name(&self) -> String {
        "null-job".into()
    }

    fn bundle_name(&self) -> String {
        "null-job-worker".into()
    }

    fn plan(&mut self) -> Vec<TaskSpec> {
        self.payloads
            .iter()
            .enumerate()
            .map(|(i, payload)| TaskSpec {
                task_id: i as u64,
                payload: payload.clone(),
            })
            .collect()
    }

    fn executor(&self) -> Arc<dyn TaskExecutor> {
        struct Echo;
        impl TaskExecutor for Echo {
            fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
                Ok(task.payload.clone())
            }
        }
        Arc::new(Echo)
    }

    fn absorb(&mut self, task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
        match self.payloads.get(task_id as usize) {
            Some(expected) if expected == payload => self.absorbed[task_id as usize] += 1,
            _ => self.mismatched += 1,
        }
        Ok(())
    }
}

/// What the wrapped executor saw, summed over all worker threads.
#[derive(Default)]
pub struct ExecLog {
    pub tasks: AtomicU64,
    pub result_bytes: AtomicU64,
}

struct TracedExecutor {
    inner: Arc<dyn TaskExecutor>,
    tracer: Arc<Tracer>,
    log: Arc<ExecLog>,
}

impl TaskExecutor for TracedExecutor {
    fn execute(&self, task: &TaskEntry) -> Result<Vec<u8>, ExecError> {
        let span = self.tracer.span("apps.execute");
        let out = self.inner.execute(task);
        if span.is_some() {
            self.log.tasks.fetch_add(1, Ordering::Relaxed);
            if let Ok(bytes) = &out {
                self.log
                    .result_bytes
                    .fetch_add(bytes.len() as u64, Ordering::Relaxed);
            }
        }
        out
    }
}

/// Delegating `Application`: spans around `plan` and `absorb`, and an
/// executor that spans every `execute` on the workers.
pub struct TracedApp<'a> {
    pub inner: &'a mut dyn Application,
    pub tracer: Arc<Tracer>,
    pub log: Arc<ExecLog>,
}

impl Application for TracedApp<'_> {
    fn job_name(&self) -> String {
        self.inner.job_name()
    }

    fn bundle_name(&self) -> String {
        self.inner.bundle_name()
    }

    fn bundle_kb(&self) -> usize {
        self.inner.bundle_kb()
    }

    fn plan(&mut self) -> Vec<TaskSpec> {
        let _span = self.tracer.span("apps.plan");
        self.inner.plan()
    }

    fn executor(&self) -> Arc<dyn TaskExecutor> {
        Arc::new(TracedExecutor {
            inner: self.inner.executor(),
            tracer: self.tracer.clone(),
            log: self.log.clone(),
        })
    }

    fn absorb(&mut self, task_id: u64, payload: &[u8]) -> Result<(), ExecError> {
        let _span = self.tracer.span("apps.absorb");
        self.inner.absorb(task_id, payload)
    }

    fn snapshot_partials(&self) -> Option<Vec<u8>> {
        self.inner.snapshot_partials()
    }

    fn restore_partials(&mut self, bytes: &[u8]) -> Result<(), ExecError> {
        self.inner.restore_partials(bytes)
    }
}

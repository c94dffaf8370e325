//! The timing metrics the paper's evaluation reports (§5.2).

use std::collections::BTreeMap;

/// Phase timings for one application run, in milliseconds. These are the
/// exact quantities plotted in Figures 6–8 and measured again in the
/// dynamic-behaviour experiment (§5.2.3).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseTimes {
    /// Total time the master spent decomposing the application and writing
    /// task entries into the space.
    pub task_planning_ms: f64,
    /// Total time the master spent collecting and assimilating results.
    pub task_aggregation_ms: f64,
    /// Maximum worker computation span (first task access → last result
    /// write) across all participating workers.
    pub max_worker_ms: f64,
    /// Maximum instantaneous per-task master overhead (planning or
    /// aggregating one task) — "Maximum Master Overhead" in §5.2.3.
    pub max_master_overhead_ms: f64,
    /// End-to-end parallel execution time measured at the master.
    pub parallel_ms: f64,
    /// Number of tasks planned.
    pub tasks: usize,
    /// Final busy span per worker (keyed by worker name).
    pub per_worker_ms: BTreeMap<String, f64>,
}

impl PhaseTimes {
    /// Task planning + aggregation — the combined master-side cost the
    /// dynamic-behaviour experiment reports.
    pub fn planning_and_aggregation_ms(&self) -> f64 {
        self.task_planning_ms + self.task_aggregation_ms
    }

    /// Number of distinct workers that returned at least one result.
    pub fn workers_used(&self) -> usize {
        self.per_worker_ms.len()
    }

    /// Speedup of this run relative to a baseline run (typically 1 worker).
    pub fn speedup_vs(&self, baseline: &PhaseTimes) -> f64 {
        if self.parallel_ms <= 0.0 {
            return 0.0;
        }
        baseline.parallel_ms / self.parallel_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let mut t = PhaseTimes {
            task_planning_ms: 100.0,
            task_aggregation_ms: 50.0,
            parallel_ms: 500.0,
            ..PhaseTimes::default()
        };
        t.per_worker_ms.insert("w01".into(), 300.0);
        t.per_worker_ms.insert("w02".into(), 400.0);
        assert_eq!(t.planning_and_aggregation_ms(), 150.0);
        assert_eq!(t.workers_used(), 2);
        let baseline = PhaseTimes {
            parallel_ms: 1000.0,
            ..PhaseTimes::default()
        };
        assert_eq!(t.speedup_vs(&baseline), 2.0);
    }

    #[test]
    fn zero_parallel_time_speedup_is_zero() {
        let t = PhaseTimes::default();
        let b = PhaseTimes {
            parallel_ms: 100.0,
            ..PhaseTimes::default()
        };
        assert_eq!(t.speedup_vs(&b), 0.0);
    }
}

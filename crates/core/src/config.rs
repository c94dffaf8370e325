//! Framework configuration.

use std::time::Duration;

/// The inference engine's CPU-load threshold rules (paper §4.4).
///
/// * external load in `[0, idle_max)`  → worker is idle → Start / Resume;
/// * external load in `[idle_max, pause_max)` → transient pressure → Pause;
/// * external load in `[pause_max, 100]` → sustained pressure → Stop.
///
/// The paper's heuristics set the bands at 0–25 / 25–50 / 50–100.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// Exclusive upper bound of the idle band (paper: 25).
    pub idle_max: u64,
    /// Exclusive upper bound of the pause band (paper: 50).
    pub pause_max: u64,
}

impl Thresholds {
    /// The paper's threshold heuristics: 25 / 50.
    pub fn paper() -> Thresholds {
        Thresholds {
            idle_max: 25,
            pause_max: 50,
        }
    }

    /// Custom thresholds; panics if not `0 < idle_max <= pause_max <= 100`.
    pub fn new(idle_max: u64, pause_max: u64) -> Thresholds {
        assert!(
            idle_max > 0 && idle_max <= pause_max && pause_max <= 100,
            "thresholds must satisfy 0 < idle_max <= pause_max <= 100"
        );
        Thresholds {
            idle_max,
            pause_max,
        }
    }
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds::paper()
    }
}

/// Everything tunable about a framework deployment.
#[derive(Debug, Clone)]
pub struct FrameworkConfig {
    /// SNMP community string shared by manager and agents.
    pub community: String,
    /// How often the monitoring agent polls each worker.
    pub poll_interval: Duration,
    /// Threshold rules for the inference engine.
    pub thresholds: Thresholds,
    /// Consecutive out-of-band samples required before the inference engine
    /// acts (1 = react immediately; higher damps oscillation).
    pub hysteresis: usize,
    /// Modeled cost of fetching + verifying a code bundle per KB, plus a
    /// fixed base. This is the class-loading overhead Start pays and Resume
    /// avoids.
    pub class_load_base: Duration,
    /// Per-KB component of the class-loading cost.
    pub class_load_per_kb: Duration,
    /// How long a worker waits on the task template before re-checking its
    /// signal channel.
    pub task_poll_timeout: Duration,
    /// Limits enforced around every task execution (the sandbox policy of
    /// paper §1's security challenge).
    pub policy: crate::policy::ExecutionPolicy,
    /// How many times a failing task is returned to the space before the
    /// worker writes a terminal error result instead (poison-task guard).
    pub max_task_retries: u32,
    /// How many planned tasks the master writes per batched space
    /// operation during the planning phase (one pipelined round trip per
    /// chunk on a remote space). It also bounds a result drain: after
    /// blocking for one result the master takes at most this many more in
    /// one non-blocking batch.
    pub dispatch_chunk: usize,
    /// Samples retained per cluster-view history ring (per worker, per
    /// series), and the depth of each worker's trace-retention window.
    pub history_depth: usize,
    /// Straggler threshold: a worker is flagged when its median compute
    /// time exceeds `straggler_k ×` the median of its peers' median
    /// compute times. Values below 1 are treated as 1.
    pub straggler_k: f64,
    /// Completed tasks required before a worker can be judged a
    /// straggler.
    pub straggler_min_samples: u64,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            community: "public".into(),
            poll_interval: Duration::from_millis(100),
            thresholds: Thresholds::paper(),
            hysteresis: 1,
            class_load_base: Duration::from_millis(40),
            class_load_per_kb: Duration::from_micros(200),
            task_poll_timeout: Duration::from_millis(50),
            policy: crate::policy::ExecutionPolicy::default(),
            max_task_retries: 3,
            dispatch_chunk: 256,
            history_depth: acc_telemetry::DEFAULT_DEPTH,
            straggler_k: 4.0,
            straggler_min_samples: 5,
        }
    }
}

impl FrameworkConfig {
    /// The observer tuning derived from this deployment's settings.
    pub fn observer_config(&self) -> acc_cluster::ObserverConfig {
        acc_cluster::ObserverConfig {
            history_depth: self.history_depth,
            straggler_k: self.straggler_k,
            straggler_min_samples: self.straggler_min_samples,
        }
    }
}

impl FrameworkConfig {
    /// The modeled class-loading duration for a bundle of `kb` kilobytes.
    pub fn class_load_cost(&self, kb: u64) -> Duration {
        self.class_load_base + self.class_load_per_kb * (kb as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_thresholds() {
        let t = Thresholds::paper();
        assert_eq!(t.idle_max, 25);
        assert_eq!(t.pause_max, 50);
        assert_eq!(Thresholds::default(), t);
    }

    #[test]
    fn custom_thresholds_validated() {
        let t = Thresholds::new(10, 90);
        assert_eq!(t.idle_max, 10);
        assert!(std::panic::catch_unwind(|| Thresholds::new(0, 50)).is_err());
        assert!(std::panic::catch_unwind(|| Thresholds::new(60, 50)).is_err());
        assert!(std::panic::catch_unwind(|| Thresholds::new(10, 101)).is_err());
    }

    #[test]
    fn class_load_cost_scales_with_size() {
        let cfg = FrameworkConfig::default();
        let small = cfg.class_load_cost(10);
        let large = cfg.class_load_cost(1000);
        assert!(large > small);
        assert_eq!(
            small,
            Duration::from_millis(40) + Duration::from_micros(2000)
        );
    }
}

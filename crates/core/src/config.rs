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
    /// Samples of poll history retained per worker.
    pub history_capacity: usize,
    /// Modeled cost of fetching + verifying a code bundle per KB, plus a
    /// fixed base. This is the class-loading overhead Start pays and Resume
    /// avoids.
    pub class_load_base: Duration,
    /// Per-KB component of the class-loading cost.
    pub class_load_per_kb: Duration,
    /// How long a worker waits on the task template before re-checking its
    /// signal channel.
    pub task_poll_timeout: Duration,
    /// Whether workers take tasks under a transaction (crash safety at the
    /// cost of two-phase bookkeeping). Benchmarked in the ablations.
    pub transactional_take: bool,
    /// Limits enforced around every task execution (the sandbox policy of
    /// paper §1's security challenge).
    pub policy: crate::policy::ExecutionPolicy,
    /// How many times a failing task is returned to the space before the
    /// worker writes a terminal error result instead (poison-task guard).
    pub max_task_retries: u32,
    /// How many tasks a worker fetches from the space per round trip
    /// (one batch take). Signals are still drained between tasks,
    /// so signal latency is bounded by one task regardless — but unstarted
    /// prefetched tasks only return to the space when the worker reacts to
    /// Pause/Stop, so keep this small (paper §4.3). 1 disables prefetch.
    pub task_prefetch: usize,
    /// How many planned tasks the master writes per batched space
    /// operation during the planning phase (one pipelined round trip per
    /// chunk on a remote space). It also bounds a result drain: after
    /// blocking for one result the master takes at most this many more in
    /// one non-blocking batch.
    pub dispatch_chunk: usize,
    /// Base interval between a worker's heartbeat/metric tuple
    /// publications into the space (actual intervals are jittered
    /// ±25%). `Duration::ZERO` disables federation publishing and the
    /// master-side collector entirely. Kept at a second by default so
    /// the federation plane stays off the space's hot path.
    pub metrics_interval: Duration,
    /// Samples retained per federation history ring (per worker, per
    /// series).
    pub history_depth: usize,
    /// Straggler threshold: a worker is flagged when its median compute
    /// time exceeds `straggler_k ×` the median of its peers' median
    /// compute times. Values below 1 are treated as 1.
    pub straggler_k: f64,
    /// Completed tasks required before a worker can be judged a
    /// straggler.
    pub straggler_min_samples: u64,
    /// Tail-based trace retention: a finished task whose compute time
    /// reaches this percentile of the worker's per-job compute history
    /// gets its full flight-recorder trace pinned (kept past ring
    /// eviction). Errored or retried tasks are always retained. Set
    /// `>= 1.0` to retain only the per-job maximum seen so far; values
    /// are clamped to `[0, 1]`.
    pub trace_retention_percentile: f64,
    /// Completed tasks a worker must have seen (per job) before the
    /// percentile rule fires — below this the distribution is noise.
    pub trace_retention_min_samples: usize,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            community: "public".into(),
            poll_interval: Duration::from_millis(100),
            thresholds: Thresholds::paper(),
            hysteresis: 1,
            history_capacity: 1024,
            class_load_base: Duration::from_millis(40),
            class_load_per_kb: Duration::from_micros(200),
            task_poll_timeout: Duration::from_millis(50),
            transactional_take: false,
            policy: crate::policy::ExecutionPolicy::default(),
            max_task_retries: 3,
            task_prefetch: 4,
            dispatch_chunk: 256,
            metrics_interval: Duration::from_secs(1),
            history_depth: acc_telemetry::DEFAULT_DEPTH,
            straggler_k: 4.0,
            straggler_min_samples: 5,
            trace_retention_percentile: 0.95,
            trace_retention_min_samples: 8,
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

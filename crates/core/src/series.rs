//! The framework's global telemetry series, registered once per process
//! in [`acc_telemetry::registry`]: what the benchmark's layer table and
//! `/healthz` read.

use std::sync::{Arc, OnceLock};

use acc_telemetry::{registry, Counter};

/// Framework-layer series, shared by the worker and monitoring modules.
pub(crate) struct CoreSeries {
    /// Load samples examined by the monitoring agent.
    pub monitor_samples: Arc<Counter>,
    /// Consecutive-transport-failure strikes workers absorbed on takes
    /// (each strike is one ridden-out transient failure).
    pub transport_strikes: Arc<Counter>,
}

/// The lazily registered framework series (one set per process).
pub(crate) fn series() -> &'static CoreSeries {
    static SERIES: OnceLock<CoreSeries> = OnceLock::new();
    SERIES.get_or_init(|| {
        let r = registry();
        CoreSeries {
            monitor_samples: r.counter("monitor.samples"),
            transport_strikes: r.counter("worker.transport_strikes"),
        }
    })
}

//! The framework's global telemetry series, registered once per process
//! in [`acc_telemetry::registry`]: what the benchmark's layer table,
//! `/healthz` and `/cluster.json` read.

use std::sync::{Arc, OnceLock};

use acc_telemetry::{registry, Counter};

use crate::monitor::PollFailure;

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

/// Monitor polls that failed, one `monitor.failed_polls.{kind}` counter
/// per [`PollFailure`], in [`PollFailure::ALL`] order. Registered apart
/// from [`CoreSeries`]: `/cluster.json` reads these, and rendering it must
/// not register the rest.
pub(crate) fn failed_polls() -> &'static [Arc<Counter>; 4] {
    static SERIES: OnceLock<[Arc<Counter>; 4]> = OnceLock::new();
    SERIES.get_or_init(|| {
        PollFailure::ALL.map(|failure| {
            let kind = failure.as_str();
            // Registered once per process, so each name leaks once.
            let name = Box::leak(format!("monitor.failed_polls.{kind}").into_boxed_str());
            registry().counter(name)
        })
    })
}

//! The `wal.*` telemetry series the benchmark's layer table reads,
//! registered in the workspace-wide [`acc_telemetry::registry`] like every
//! other layer's series.

use std::sync::{Arc, OnceLock};

use acc_telemetry::{registry, Counter};

pub(crate) struct DurabilitySeries {
    pub appends: Arc<Counter>,
    pub append_bytes: Arc<Counter>,
    pub fsyncs: Arc<Counter>,
}

pub(crate) fn series() -> &'static DurabilitySeries {
    static SERIES: OnceLock<DurabilitySeries> = OnceLock::new();
    SERIES.get_or_init(|| {
        let r = registry();
        DurabilitySeries {
            appends: r.counter("wal.append.count"),
            append_bytes: r.counter("wal.append.bytes"),
            fsyncs: r.counter("wal.fsync.count"),
        }
    })
}

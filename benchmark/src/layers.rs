//! The per-layer table: every number of `spec::PER_LAYER`, computed from
//! what the traced run collected — spans, the `TaskTiming` riding each
//! result tuple, `RunReport` phase times, registry count deltas, the grid's
//! fan-out profile and the layer probes. A layer a workload bypasses reads 0.

use std::collections::BTreeMap;

use acc_telemetry::Snapshot;

use crate::probes::Probes;
use crate::spec::Metrics;
use crate::stats;
use crate::trace::{totals_by_name, ResultLog, Span};

/// Growth of every registry counter, and of every histogram's observation
/// count, across the traced segment.
#[derive(Debug, Default)]
pub struct CountDelta {
    counters: BTreeMap<&'static str, u64>,
    observations: BTreeMap<&'static str, u64>,
}

impl CountDelta {
    pub fn between(before: &Snapshot, after: &Snapshot) -> CountDelta {
        let counters = after
            .counters
            .iter()
            .map(|(name, now)| {
                let was = before.counters.get(name).copied().unwrap_or(0);
                (*name, now.saturating_sub(was))
            })
            .collect();
        let observations = after
            .histograms
            .iter()
            .map(|(name, now)| {
                let was = before.histograms.get(name).map_or(0, |h| h.count);
                (*name, now.count.saturating_sub(was))
            })
            .collect();
        CountDelta {
            counters,
            observations,
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    pub fn observations(&self, name: &str) -> f64 {
        self.observations.get(name).copied().unwrap_or(0) as f64
    }
}

/// Everything the traced segment of a run collected.
#[derive(Default)]
pub struct TraceData {
    /// Tasks (ops on `space_ops`) completed in the traced segment.
    pub items: u64,
    /// Jobs (blocks of ops on `space_ops`) in the traced segment.
    pub requests: u64,
    pub wall_s: f64,
    pub spans: Vec<Span>,
    /// Store calls through the master's (the op clients') traced handle.
    pub store_calls: u64,
    pub results: ResultLog,
    pub executed_tasks: u64,
    pub result_payload_bytes: u64,
    /// `RunReport` phase times summed over the traced jobs.
    pub plan_ms: f64,
    pub aggregate_ms: f64,
    pub counts: CountDelta,
    /// Ops each grid shard served in the traced segment.
    pub shard_ops: Vec<u64>,
    pub non_start_signals: u64,
    /// Takes by exact `Bytes` match the harness issued (`space_ops`).
    pub scan_takes: u64,
    pub probes: Probes,
    pub traced_p50_ms: f64,
    pub untraced_p50_ms: f64,
    /// The tail percentile over every request of the run, both segments.
    pub tail_ms: f64,
    /// µs per task of the same application through a one-shard grid,
    /// measured in the same process (`grid4_job` only).
    pub direct_us_per_task: Option<f64>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics, in `spec::PER_LAYER` order.
pub fn layer_metrics(d: &TraceData) -> Metrics {
    let items = d.items as f64;
    let requests = d.requests as f64;
    let totals = totals_by_name(&d.spans);
    let cpu_us = |name: &str| totals.get(name).map_or(0.0, |t| t.cpu_ns as f64 / 1e3);
    let self_cpu_us = |name: &str| totals.get(name).map_or(0.0, |t| t.self_cpu_ns as f64 / 1e3);
    let c = &d.counts;
    let p = &d.probes;

    let take_wait_us_p50 = totals.get("store.take").map_or(0.0, |t| {
        let us: Vec<f64> = t.durations_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        stats::median(&us)
    });
    let results = d.results.results as f64;
    let max_worker_tasks = d.results.per_worker.values().copied().max().unwrap_or(0) as f64;

    let frames = c.counter("remote.buffer_reuse_hits") + c.counter("remote.buffer_reuse_misses");
    let index_probes = c.counter("space.index.hits") + c.counter("space.index.misses");
    let shard_ops: f64 = d.shard_ops.iter().sum::<u64>() as f64;
    let max_shard_ops = d.shard_ops.iter().copied().max().unwrap_or(0) as f64;
    // Only a grid of several shards has a spread to speak of.
    let grid = d.shard_ops.len() > 1;

    // The remainder: what one task costs end to end, minus every layer
    // self time visible from outside. Span self CPU times cover the
    // application and the master (CPU, not wall: on one CPU the wall time
    // inside a span also holds every other thread's turn); the codec, the
    // space and the WAL are priced as operations counted × the probe's
    // cost of one. What is left is the workers' and the server's own
    // loops, syscalls, loopback, scheduling and off-CPU waits.
    let us_per_item = ratio(d.wall_s * 1e6, items);
    let space_writes = c.counter("space.write.count");
    let space_reads = c.counter("space.read.count");
    let space_takes = c.counter("space.take.count");
    let scans = d.scan_takes as f64;
    let wire_tuples = space_writes + space_reads + space_takes;
    let attributed_us = cpu_us("apps.execute")
        + self_cpu_us("apps.plan")
        + self_cpu_us("apps.absorb")
        + self_cpu_us("core.master.run")
        + wire_tuples * (p.encode_ns + p.decode_ns) / 1e3
        + (space_writes * p.space_write_ns
            + space_reads * p.space_read_indexed_ns
            + (space_takes - scans).max(0.0) * p.space_take_indexed_ns
            + scans * p.space_take_scan_ns)
            / 1e3
        + c.counter("wal.append.count") * p.wal_append_us;
    let unattributed_us_per_task = us_per_item - ratio(attributed_us, items);

    vec![
        ("latency_ms_tail", d.tail_ms),
        (
            "apps.compute_us_per_task",
            ratio(cpu_us("apps.execute"), d.executed_tasks as f64),
        ),
        (
            "apps.result_bytes_per_task",
            ratio(d.result_payload_bytes as f64, d.executed_tasks as f64),
        ),
        ("core.master.plan_ms_per_job", ratio(d.plan_ms, requests)),
        (
            "core.master.aggregate_ms_per_job",
            ratio(d.aggregate_ms, requests),
        ),
        (
            "core.master.store_calls_per_task",
            if results > 0.0 {
                ratio(d.store_calls as f64, items)
            } else {
                0.0
            },
        ),
        (
            "core.master.take_wait_us_p50",
            if results > 0.0 { take_wait_us_p50 } else { 0.0 },
        ),
        (
            "core.master.absorb_us_per_task",
            ratio(cpu_us("apps.absorb"), items),
        ),
        (
            "core.worker.wait_us_per_task",
            ratio(d.results.wait_us as f64, results),
        ),
        (
            "core.worker.xfer_us_per_task",
            ratio(d.results.xfer_us as f64, results),
        ),
        (
            "core.worker.write_us_per_task",
            ratio(d.results.write_us as f64, results),
        ),
        (
            "core.worker.max_task_share",
            ratio(max_worker_tasks, results),
        ),
        (
            "core.monitor.polls_per_s",
            ratio(c.counter("monitor.samples"), d.wall_s),
        ),
        (
            "core.monitor.heartbeats_per_s",
            ratio(c.counter("worker.heartbeats.published"), d.wall_s),
        ),
        ("core.monitor.non_start_signals", d.non_start_signals as f64),
        ("tuplespace.payload.encode_ns_per_tuple", p.encode_ns),
        ("tuplespace.payload.decode_ns_per_tuple", p.decode_ns),
        ("tuplespace.payload.task_tuple_bytes", p.task_bytes),
        ("tuplespace.payload.result_tuple_bytes", p.result_bytes),
        ("tuplespace.remote.rtt_us_p50", p.rtt_us),
        ("tuplespace.remote.write_us_p50", p.remote_write_us),
        ("tuplespace.remote.take_us_p50", p.remote_take_us),
        ("tuplespace.remote.frames_per_task", ratio(frames, items)),
        (
            "tuplespace.remote.frame_bytes_per_task",
            ratio(c.counter("remote.frame_bytes"), items),
        ),
        (
            "tuplespace.remote.buffer_reuse_rate",
            ratio(c.counter("remote.buffer_reuse_hits"), frames),
        ),
        (
            "tuplespace.remote.reconnects",
            c.counter("remote.reconnects"),
        ),
        ("tuplespace.space.write_ns_p50", p.space_write_ns),
        (
            "tuplespace.space.read_indexed_ns_p50",
            p.space_read_indexed_ns,
        ),
        (
            "tuplespace.space.take_indexed_ns_p50",
            p.space_take_indexed_ns,
        ),
        ("tuplespace.space.take_scan_ns_p50", p.space_take_scan_ns),
        (
            "tuplespace.space.index_hit_rate",
            ratio(c.counter("space.index.hits"), index_probes),
        ),
        (
            "tuplespace.space.shard_contention",
            c.counter("space.shard_contention"),
        ),
        (
            "tuplespace.space.blocked_waits_per_job",
            ratio(c.counter("space.blocked_waits"), requests),
        ),
        ("durability.wal.append_us_p50", p.wal_append_us),
        (
            "durability.wal.syncs_per_task",
            ratio(c.counter("wal.fsync.count"), items),
        ),
        (
            "durability.wal.bytes_per_user_byte",
            if c.counter("wal.append.bytes") > 0.0 {
                ratio(
                    c.counter("wal.append.bytes"),
                    c.counter("space.bytes_written"),
                )
            } else {
                0.0
            },
        ),
        (
            "tuplespace.journal.write_take_us_p50",
            p.journal_write_take_us,
        ),
        ("spacegrid.shard_ops_per_task", ratio(shard_ops, items)),
        (
            "spacegrid.scatters_per_task",
            ratio(c.observations("grid.scatter.fanout"), items),
        ),
        (
            "spacegrid.restores_per_job",
            ratio(c.counter("grid.restored_tuples"), requests),
        ),
        ("spacegrid.lost_tuples", c.counter("grid.lost_tuples")),
        (
            "spacegrid.shard_imbalance",
            if grid {
                ratio(max_shard_ops * d.shard_ops.len() as f64, shard_ops)
            } else {
                0.0
            },
        ),
        (
            "spacegrid.overhead_vs_direct",
            d.direct_us_per_task
                .map_or(0.0, |direct| ratio(us_per_item, direct)),
        ),
        (
            "telemetry.trace_overhead_pct",
            if d.untraced_p50_ms > 0.0 {
                (d.traced_p50_ms / d.untraced_p50_ms - 1.0) * 100.0
            } else {
                0.0
            },
        ),
        (
            "telemetry.flight_dropped_events",
            c.counter("telemetry.flight.dropped_events"),
        ),
        ("unattributed_us_per_task", unattributed_us_per_task),
        (
            "unattributed_share",
            ratio(unattributed_us_per_task, us_per_item),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PER_LAYER;

    #[test]
    fn prints_exactly_the_per_layer_table_in_order() {
        let names: Vec<&str> = layer_metrics(&TraceData::default())
            .iter()
            .map(|(name, _)| *name)
            .collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
    }

    #[test]
    fn a_bypassed_layer_reads_zero_not_nan() {
        for (name, value) in layer_metrics(&TraceData::default()) {
            assert!(value.is_finite(), "{name} = {value}");
        }
    }
}

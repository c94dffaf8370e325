//! The benchmark's contract as data: workloads, end-to-end metrics with
//! their bounds, per-layer metrics, and the `BENCHMARK.json` text generated
//! from them (a unit test holds the committed file to this text).

/// Seconds one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 12;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "null_job",
        why: "2000 zero-compute 64 B tasks per job through one space server: framework-bound (wire round trips, master one-take-per-result aggregation, worker take/write loop)",
    },
    Workload {
        name: "raytrace_job",
        why: "the paper's 600x600 ray trace in 24 strips with 45 KB results: compute-bound and the only large-frame user of the wire, so framework-loop changes must not show here",
    },
    Workload {
        name: "prefetch_job",
        why: "full PageRank solves of the paper's 500-page cluster, 15 barrier rounds of 25 strips each: latency-bound on blocking-take wake-ups and per-round fixed cost",
    },
    Workload {
        name: "grid4_job",
        why: "400-task null jobs through a 4-shard partitioned space (spread placement, scatter-gather takes, loser restore): spacegrid-bound, the layer null_job bypasses",
    },
    Workload {
        name: "durable_job",
        why: "1200-task null jobs over a journaled space (WAL, fsync every 64 appends, three connections appending): journal- and WAL-bound, ends with a recovery check",
    },
    Workload {
        name: "space_ops",
        why: "no framework: 2 clients write/read/take against a 50000-tuple resident backlog, indexed lookups beside a 4% share of unindexed scans, so p50 is the index path and p99 the scan path",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// What a user of the system sees. A *work item* is a task (job workloads)
/// or an op (`space_ops`); a *request* is what the closed-loop client waits
/// for: a whole job, or one op.
///
/// The bounds are what the reference host can resolve, not what one would
/// wish for: its speed wanders by several percent for minutes at a time
/// (README, "How steady it is"), which puts the quartile spread of ten runs
/// at 2–11 % of the median; every bound sits at the 25 % the contract allows
/// at most, about three times that.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// One row per number the traced run prints; the prefix is the module the
/// number belongs to.
pub const PER_LAYER: [PerLayer; 47] = [
    layer("latency_ms_tail", "ms", "lower"),
    layer("apps.compute_us_per_task", "us", "lower"),
    layer("apps.result_bytes_per_task", "bytes", "lower"),
    layer("core.master.plan_ms_per_job", "ms", "lower"),
    layer("core.master.aggregate_ms_per_job", "ms", "lower"),
    layer("core.master.store_calls_per_task", "count", "lower"),
    layer("core.master.take_wait_us_p50", "us", "lower"),
    layer("core.master.absorb_us_per_task", "us", "lower"),
    layer("core.worker.wait_us_per_task", "us", "lower"),
    layer("core.worker.xfer_us_per_task", "us", "lower"),
    layer("core.worker.write_us_per_task", "us", "lower"),
    layer("core.worker.max_task_share", "ratio", "lower"),
    layer("core.monitor.polls_per_s", "1/s", "lower"),
    layer("core.monitor.heartbeats_per_s", "1/s", "lower"),
    layer("core.monitor.non_start_signals", "count", "lower"),
    layer("tuplespace.payload.encode_ns_per_tuple", "ns", "lower"),
    layer("tuplespace.payload.decode_ns_per_tuple", "ns", "lower"),
    layer("tuplespace.payload.task_tuple_bytes", "bytes", "lower"),
    layer("tuplespace.payload.result_tuple_bytes", "bytes", "lower"),
    layer("tuplespace.remote.rtt_us_p50", "us", "lower"),
    layer("tuplespace.remote.write_us_p50", "us", "lower"),
    layer("tuplespace.remote.take_us_p50", "us", "lower"),
    layer("tuplespace.remote.frames_per_task", "count", "lower"),
    layer("tuplespace.remote.frame_bytes_per_task", "bytes", "lower"),
    layer("tuplespace.remote.buffer_reuse_rate", "ratio", "higher"),
    layer("tuplespace.remote.reconnects", "count", "lower"),
    layer("tuplespace.space.write_ns_p50", "ns", "lower"),
    layer("tuplespace.space.read_indexed_ns_p50", "ns", "lower"),
    layer("tuplespace.space.take_indexed_ns_p50", "ns", "lower"),
    layer("tuplespace.space.take_scan_ns_p50", "ns", "lower"),
    layer("tuplespace.space.index_hit_rate", "ratio", "higher"),
    layer("tuplespace.space.shard_contention", "count", "lower"),
    layer("tuplespace.space.blocked_waits_per_job", "count", "lower"),
    layer("durability.wal.append_us_p50", "us", "lower"),
    layer("durability.wal.syncs_per_task", "count", "lower"),
    layer("durability.wal.bytes_per_user_byte", "ratio", "lower"),
    layer("tuplespace.journal.write_take_us_p50", "us", "lower"),
    layer("spacegrid.shard_ops_per_task", "count", "lower"),
    layer("spacegrid.scatters_per_task", "count", "lower"),
    layer("spacegrid.restores_per_job", "count", "lower"),
    layer("spacegrid.lost_tuples", "count", "lower"),
    layer("spacegrid.shard_imbalance", "ratio", "lower"),
    layer("spacegrid.overhead_vs_direct", "ratio", "lower"),
    layer("telemetry.trace_overhead_pct", "%", "lower"),
    layer("telemetry.flight_dropped_events", "count", "lower"),
    layer("unattributed_us_per_task", "us", "lower"),
    layer("unattributed_share", "ratio", "lower"),
];

/// The run command, as the driver types it from the root of a checkout.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quoted(&COMMAND)));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// The metrics of one run, by name, in table order.
pub type Metrics = Vec<(&'static str, f64)>;

/// The unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric '{name}' is in neither table"))
}

/// The result line the driver reads: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn committed_manifest_is_the_generated_one() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with `-- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let doc = Json::parse(&manifest()).expect("manifest is JSON");
        let keys: Vec<&str> = doc.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(manifest().len() < 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name) && unit_ok(m.unit));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(["lower", "higher"].contains(&m.better));
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit) && ["lower", "higher"].contains(&m.better));
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_round_trips_with_every_digit() {
        let metrics: Metrics = vec![("work_per_s", 24_123.456_789_012_3), ("setup_s", 0.25)];
        let line = result_line(true, 220_000, 0, &metrics);
        let doc = Json::parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(220_000.0));
        let m = doc.get("metrics").expect("metrics");
        let value = |name| {
            m.get(name)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
        };
        assert_eq!(value("work_per_s"), Some(24_123.456_789_012_3));
        assert_eq!(
            m.get("setup_s").and_then(|v| v.get("unit")),
            Some(&Json::Str("s".into()))
        );
    }
}

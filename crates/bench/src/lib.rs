//! # acc-bench
//!
//! The benchmark harness: regenerates every table and figure of the
//! paper's evaluation (§5).
//!
//! * `cargo run -p acc-bench --bin repro -- all` prints every artifact;
//!   individual ids: `fig6 fig7 fig8 fig9 fig10 fig11 exp3 table2`.
//! * `cargo bench -p acc-bench` runs the Criterion benches: space
//!   operations, the scalability sweeps, adaptation signal latencies,
//!   the dynamic-load experiment, application kernels, and the design
//!   ablations called out in `DESIGN.md`.
//!
//! The library part holds the shared report formatting so the binary and
//! the benches print identical rows, and the one `BENCH_*.json` exporter
//! ([`bench_record`], [`write_bench_record`]) the measured benches share.

#![warn(missing_docs)]

pub mod report;

pub use report::{ascii_plot, format_ms, Table};

use acc_telemetry::Json;

/// One `BENCH_<bench>.json` record, stamped with where and from what it
/// was measured — `host.cpu` (`model name` from `/proc/cpuinfo`),
/// `host.cores`, `host.clock` (the flight recorder's tick source: an event
/// costs more without a usable TSC) and `commit` (`git describe --always
/// --dirty`), `"unknown"` for whatever cannot be read — then `fields` in
/// order.
pub fn bench_record<'a>(bench: &str, fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let host = Json::object([
        ("cpu", cpu.into()),
        ("cores", cores.into()),
        ("clock", acc_telemetry::clock::source().into()),
    ]);
    let stamp = [
        ("bench", bench.into()),
        ("host", host),
        ("commit", commit.into()),
    ];
    Json::object(stamp.into_iter().chain(fields))
}

/// The `results_ns` field: each label's nanoseconds per iteration,
/// rounded.
pub fn results_ns<L: AsRef<str>>(rows: &[(L, f64)]) -> Json {
    Json::object(
        rows.iter()
            .map(|(label, ns)| (label.as_ref(), Json::Float(*ns, 0))),
    )
}

/// Writes `record` to `BENCH_<bench>.json` at the repository root.
pub fn write_bench_record(record: &Json) {
    let bench = record["bench"]
        .as_str()
        .expect("a bench record names its bench");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, format!("{record}\n")).expect("write the bench record");
    println!("{bench}: wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_bench_record_carries_its_host_commit_and_results() {
        let record = bench_record(
            "unit",
            [
                ("results_ns", results_ns(&[("unit/op", 12.6)])),
                ("speedup", Json::Float(2.0, 3)),
            ],
        );
        let parsed = Json::parse(&record.to_string()).unwrap();
        assert!(parsed["host"]["cpu"].as_str().is_some(), "{parsed}");
        assert!(parsed["host"]["cores"].as_u64().is_some(), "{parsed}");
        assert!(parsed["commit"].as_str().is_some(), "{parsed}");
        assert_eq!(
            parsed["results_ns"]["unit/op"].as_u64(),
            Some(13),
            "{parsed}"
        );
        assert_eq!(parsed["speedup"].as_f64(), Some(2.0), "{parsed}");
    }
}

//! # acc-bench
//!
//! The paper's evaluation (§5) and the measured benches.
//!
//! * `cargo run -p acc-bench --bin repro -- all` prints every table and
//!   figure from the virtual-time simulator; individual ids: `fig6 fig7
//!   fig8 fig9 fig10 fig11 exp3 table2 ablations hetero baseline`.
//! * `cargo bench -p acc-bench --bench <name>` runs one measured bench;
//!   each writes the `BENCH_<name>.json` record committed at the
//!   repository root (`telemetry` writes `BENCH_trace.json`). Without
//!   `--bench` (`cargo test --benches`) each body runs once as a smoke
//!   test and nothing is written.
//!
//! The library part holds the shared report formatting, the timing loop
//! the custom-harness benches share ([`median_ns`]) and the one
//! `BENCH_*.json` exporter ([`bench_record`], [`write_bench_record`]).

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

/// Median nanoseconds per call of `op` over `reps` timed passes of
/// `iters` calls each.
pub fn median_ns(reps: usize, iters: u64, mut op: impl FnMut()) -> f64 {
    median(
        (0..reps)
            .map(|_| {
                let start = std::time::Instant::now();
                for _ in 0..iters {
                    op();
                }
                start.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect(),
    )
}

/// The middle sample (the upper one of an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
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

    /// Every committed record says where and from what it was measured:
    /// a number without its host and commit cannot be compared.
    #[test]
    fn every_committed_bench_record_carries_its_host_and_commit() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut records = 0;
        for entry in std::fs::read_dir(&root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let record = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(record["host"]["cpu"].as_str().is_some(), "{name}: {record}");
            assert!(
                record["host"]["cores"].as_u64().is_some(),
                "{name}: {record}"
            );
            assert!(record["commit"].as_str().is_some(), "{name}: {record}");
            records += 1;
        }
        assert!(records > 0, "no BENCH_*.json at {}", root.display());
    }
}

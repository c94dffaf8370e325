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
//! the benches print identical rows.

#![warn(missing_docs)]

pub mod report;

pub use report::{ascii_plot, format_ms, Table};

/// Where and from what a `BENCH_*.json` record was measured: the host's
/// CPU model and core count, and `git describe --always --dirty` of the
/// checkout (`"unknown"` for whatever cannot be read).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `std::thread::available_parallelism`, 0 when unknown.
    pub cores: usize,
    /// The commit the numbers belong to.
    pub commit: String,
}

impl Provenance {
    /// Reads the three from the running host and the enclosing checkout.
    pub fn capture() -> Provenance {
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
        Provenance { cpu, cores, commit }
    }
}

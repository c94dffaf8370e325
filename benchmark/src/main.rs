//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! acc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! acc-benchmark smoke
//! acc-benchmark repeat <n> [--seed <first>] [--seconds <s>]
//! acc-benchmark manifest
//! ```

mod apps;
mod gen;
mod jobs;
mod json;
mod layers;
mod ops;
mod pin;
mod probes;
mod repeat;
mod rig;
mod run;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

use run::{Plan, RunResult};
use spec::{unit_of, RUN_SECONDS, WORKLOADS};

/// Full size, or the ~1/50 size of the smoke run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

const USAGE: &str = "usage:
  acc-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
  acc-benchmark smoke
  acc-benchmark repeat <n> [--seed <first>] [--seconds <s>]
  acc-benchmark manifest
workloads: null_job raytrace_job prefetch_job grid4_job durable_job space_ops";

/// The value following `flag`, parsed; `None` when the flag is absent.
pub(crate) fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .and_then(|v| v.parse().ok())
            .map(Some)
            .ok_or_else(|| format!("{name} needs a value")),
    }
}

fn print_run(workload: &str, seed: u64, traced: bool, cpu: usize, result: &RunResult) {
    println!(
        "# {workload}  seed {seed}  {}  pinned to cpu {cpu}",
        if traced { "traced run" } else { "untraced run" }
    );
    for note in &result.notes {
        println!("# {note}");
    }
    for (name, value) in &result.metrics {
        println!("{name:<44} {value:>16.4} {}", unit_of(name));
    }
    println!(
        "failed_share {} / {} = {}",
        result.failed,
        result.attempted,
        result.failed as f64 / result.attempted.max(1) as f64
    );
    for error in &result.errors {
        println!("# CHECK FAILED: {error}");
    }
}

fn run_one(args: &[String]) -> Result<ExitCode, String> {
    let workload: String = flag(args, "--workload")?.ok_or(USAGE)?;
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        return Err(format!("unknown workload '{workload}'\n{USAGE}"));
    }
    let seed = flag(args, "--seed")?.unwrap_or(gen::DEFAULT_SEED);
    let seconds = flag(args, "--seconds")?.unwrap_or(RUN_SECONDS as f64);
    let traced = match flag::<u8>(args, "--trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    // Before any thread exists: the threads inherit the mask.
    let cpu =
        pin::pin_to_first_allowed_cpu().map_err(|e| format!("refusing to run unpinned: {e}"))?;
    let result = run::run_workload(&workload, seed, traced, Plan::full(seconds))?;
    print_run(&workload, seed, traced, cpu, &result);
    // The driver reads the last line.
    println!(
        "{}",
        spec::result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics
        )
    );
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// All six workloads at about a fiftieth of their size, both modes, checks
/// on; timings are printed but mean nothing at this size.
fn smoke() -> Result<ExitCode, String> {
    let cpu =
        pin::pin_to_first_allowed_cpu().map_err(|e| format!("refusing to run unpinned: {e}"))?;
    let mut ok = true;
    for w in &WORKLOADS {
        for traced in [false, true] {
            let result = run::run_workload(w.name, gen::DEFAULT_SEED, traced, Plan::smoke())?;
            print_run(w.name, gen::DEFAULT_SEED, traced, cpu, &result);
            ok &= result.correct;
        }
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("smoke") => smoke(),
        Some("repeat") => repeat::repeat(&args[1..]),
        Some("manifest") => {
            print!("{}", spec::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some(a) if a.starts_with("--") => run_one(&args),
        _ => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

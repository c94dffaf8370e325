//! `repeat <n>`: the repeatability check. Every workload runs `n` times, a
//! fresh process and another seed each time; per end-to-end metric the
//! spread of the `n` values — the distance between their first and third
//! quartile as a share of their median — is held against the metric's bound. With
//! `--sets 2` the whole thing runs twice and the two sets' medians must
//! agree within the bound as well — two sets of runs of the same code.

use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::spec::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::{flag, gen, pin, rig, stats};

/// One untraced run in a child process; its end-to-end metrics by name.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); exit {:?}; stderr: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    if doc.get("correct") != Some(&Json::Bool(true)) || !output.status.success() {
        return Err(format!(
            "{workload} seed {seed}: run not correct:\n{stdout}"
        ));
    }
    let metrics = doc.get("metrics").ok_or("result line has no metrics")?;
    END_TO_END
        .iter()
        .map(|m| {
            metrics
                .get(m.name)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .map(|v| (m.name.to_owned(), v))
                .ok_or_else(|| format!("{workload}: metric {} missing", m.name))
        })
        .collect()
}

/// The spread of one metric over one set of runs.
struct Spread {
    values: Vec<f64>,
    median: f64,
    quartiles: [f64; 3],
}

impl Spread {
    fn of(values: Vec<f64>) -> Spread {
        Spread {
            median: stats::median(&values),
            quartiles: stats::quartiles(&values),
            values,
        }
    }

    /// Distance between the first and third quartile, as a share of the
    /// median.
    fn iqr_share(&self) -> f64 {
        (self.quartiles[2] - self.quartiles[0]) / self.median
    }

    /// (max − min) ÷ median.
    fn range_share(&self) -> f64 {
        let s = stats::sorted(self.values.clone());
        (s[s.len() - 1] - s[0]) / self.median
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".into(), |s| s.trim().to_owned());
    let cpu = pin::first_allowed_cpu().map_or("unknown".into(), |c| c.to_string());
    format!(
        "{{\"cores\": {cores}, \"kernel\": \"{kernel}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"pinned_cpu\": \"{cpu}\", \"wal_fs\": \"{}\"}}",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
        rig::fs_type(&rig::out_dir()),
    )
}

pub fn repeat(args: &[String]) -> Result<ExitCode, String> {
    let n: usize = args
        .first()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n >= 2)
        .ok_or("repeat needs a run count of at least 2")?;
    let first_seed = flag(args, "--seed")?.unwrap_or(gen::DEFAULT_SEED);
    let seconds = flag(args, "--seconds")?.unwrap_or(RUN_SECONDS as f64);
    let sets: usize = flag(args, "--sets")?.unwrap_or(1);

    let mut breaches = 0;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        // spreads[set][metric]
        let mut spreads: Vec<Vec<Spread>> = Vec::new();
        for set in 0..sets {
            let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
            for i in 0..n {
                let seed = first_seed + (set * n + i) as u64;
                let metrics = child_run(w.name, seed, seconds)?;
                eprintln!("{} set {set} run {i} seed {seed}: {metrics:?}", w.name);
                for (slot, (_, value)) in per_metric.iter_mut().zip(metrics) {
                    slot.push(value);
                }
            }
            spreads.push(per_metric.into_iter().map(Spread::of).collect());
        }
        for (k, m) in END_TO_END.iter().enumerate() {
            let mut set_rows = Vec::new();
            let mut verdict = "ok";
            for (set, per_metric) in spreads.iter().enumerate() {
                let s = &per_metric[k];
                // The spread judged is the quartile distance (the range is
                // printed beside it: one disturbed run moves it, not the
                // quartiles). setup_s is held to its bound between sets
                // only; within a set its spread is reported, not judged.
                if m.name != "setup_s" && s.iqr_share() > m.bound {
                    verdict = "BREACH: spread";
                }
                if set > 0 {
                    let before = spreads[set - 1][k].median;
                    let worse = if m.better == "lower" {
                        s.median / before - 1.0
                    } else {
                        1.0 - s.median / before
                    };
                    if worse > m.bound {
                        verdict = "BREACH: set medians";
                    }
                }
                set_rows.push(format!(
                    "{{\"values\": {:?}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"iqr_share\": {:.5}, \"range_share\": {:.5}}}",
                    s.values, s.median, s.quartiles[0], s.quartiles[2], s.iqr_share(), s.range_share()
                ));
                eprintln!(
                    "{:<13} {:<16} set {set}: median {:>12.4} {:<4} iqr/median {:>6.2}%  (max-min)/median {:>6.2}%  bound {:>4.0}%",
                    w.name, m.name, s.median, m.unit, s.iqr_share() * 100.0, s.range_share() * 100.0, m.bound * 100.0
                );
            }
            if verdict != "ok" {
                breaches += 1;
                eprintln!("{:<13} {:<16} {verdict}", w.name, m.name);
            }
            rows.push(format!(
                "    {{\"workload\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"bound\": {}, \"verdict\": \"{verdict}\", \"sets\": [{}]}}",
                w.name, m.name, m.unit, m.bound, set_rows.join(", ")
            ));
        }
    }
    println!(
        "{{\n  \"host\": {},\n  \"runs_per_set\": {n},\n  \"sets\": {sets},\n  \"seconds\": {seconds},\n  \"first_seed\": {first_seed},\n  \"breaches\": {breaches},\n  \"results\": [\n{}\n  ]\n}}",
        host_json(),
        rows.join(",\n")
    );
    Ok(if breaches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

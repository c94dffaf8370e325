//! Offline stand-in for [`criterion`](https://crates.io/crates/criterion).
//!
//! The build environment has no network access to crates.io, so this
//! workspace ships a small timing harness covering the criterion API
//! subset the benches use: [`Criterion`] with `bench_function` /
//! `benchmark_group`, [`BenchmarkGroup`] with `throughput` /
//! `bench_with_input` / `finish`, [`BenchmarkId`], [`Throughput`],
//! [`Bencher::iter`], and the [`criterion_group!`] / [`criterion_main!`]
//! macros (including the `name = …; config = …; targets = …` form).
//!
//! Mode selection mirrors the real crate: `cargo bench` passes `--bench`
//! to the harness binary and gets full measurement; any other invocation
//! (notably `cargo test`, which also builds `harness = false` bench
//! targets) runs each benchmark body exactly once as a smoke test.
//! There is no statistical analysis — each benchmark reports the median
//! ns/iter over `sample_size` samples.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// An opaque identity function that defeats constant-folding.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Full measurement (`cargo bench`).
    Measure,
    /// One iteration per benchmark (`cargo test` smoke run).
    Test,
}

fn detect_mode() -> Mode {
    if std::env::args().any(|a| a == "--bench") {
        Mode::Measure
    } else {
        Mode::Test
    }
}

/// Units processed per iteration, for derived throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Bytes handled per iteration.
    Bytes(u64),
    /// Logical elements handled per iteration.
    Elements(u64),
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id naming the parameter of a parameterised benchmark.
    pub fn from_parameter<P: Display>(parameter: P) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }

    /// An id with a function name and a parameter.
    pub fn new<S: Into<String>, P: Display>(function: S, parameter: P) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", function.into(), parameter),
        }
    }
}

/// The benchmark driver handed to each registered bench function.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    mode: Mode,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(3),
            warm_up_time: Duration::from_millis(500),
            mode: detect_mode(),
        }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Total time budget for the timed samples of one benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    /// Time spent running the body before measurement starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = self.bencher(id.to_string(), None);
        f(&mut b);
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    fn bencher(&self, label: String, throughput: Option<Throughput>) -> Bencher {
        Bencher {
            mode: self.mode,
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            label,
            throughput,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Runs a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id);
        let mut b = self.criterion.bencher(label, self.throughput);
        f(&mut b);
        self
    }

    /// Runs a parameterised benchmark in this group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.id);
        let mut b = self.criterion.bencher(label, self.throughput);
        f(&mut b, input);
        self
    }

    /// Ends the group. (Reporting happens per-benchmark; this is a no-op
    /// kept for API compatibility.)
    pub fn finish(self) {}
}

/// Times one benchmark body.
pub struct Bencher {
    mode: Mode,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    label: String,
    throughput: Option<Throughput>,
}

impl Bencher {
    /// Runs `f` repeatedly and reports the median time per call.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        if self.mode == Mode::Test {
            black_box(f());
            println!("{}: ok (test mode, 1 iter)", self.label);
            return;
        }

        // Warm up, running the body at least once.
        let warm_deadline = Instant::now() + self.warm_up_time;
        loop {
            black_box(f());
            if Instant::now() >= warm_deadline {
                break;
            }
        }

        // Calibrate a batch size that takes roughly one sample's slice of
        // the measurement budget (bounded below by 1ms for timer noise).
        let slice = (self.measurement_time / self.sample_size as u32).max(Duration::from_millis(1));
        let mut batch: u64 = 1;
        let mut elapsed;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            elapsed = start.elapsed();
            if elapsed >= slice || batch >= 1 << 40 {
                break;
            }
            // Jump toward the target in one step once we have a signal.
            batch = if elapsed < slice / 16 {
                batch * 16
            } else {
                let per_iter = (elapsed.as_nanos() / batch as u128).max(1);
                ((slice.as_nanos() / per_iter).max(1) as u64).max(batch + batch / 4 + 1)
            };
        }

        let mut samples_ns_per_iter: Vec<u128> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let ns = start.elapsed().as_nanos().max(1);
            samples_ns_per_iter.push(ns / batch as u128);
        }
        samples_ns_per_iter.sort_unstable();
        let median = samples_ns_per_iter[samples_ns_per_iter.len() / 2].max(1);

        let mut line = format!(
            "{}: {} ns/iter (batch {batch}, {} samples)",
            self.label, median, self.sample_size
        );
        match self.throughput {
            Some(Throughput::Bytes(n)) => {
                let mbps = n as f64 * 1e9 / median as f64 / (1024.0 * 1024.0);
                line.push_str(&format!(", {mbps:.1} MiB/s"));
            }
            Some(Throughput::Elements(n)) => {
                let eps = n as f64 * 1e9 / median as f64;
                line.push_str(&format!(", {eps:.0} elem/s"));
            }
            None => {}
        }
        println!("{line}");
    }
}

/// Declares a benchmark group function callable from [`criterion_main!`].
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Generates `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_mode_runs_body_once() {
        let mut calls = 0u32;
        let mut c = Criterion {
            mode: Mode::Test,
            ..Criterion::default()
        };
        c.bench_function("unit/one", |b| b.iter(|| calls += 1));
        assert_eq!(calls, 1);
    }

    #[test]
    fn group_labels_and_throughput_compose() {
        let mut c = Criterion {
            mode: Mode::Test,
            ..Criterion::default()
        };
        let mut group = c.benchmark_group("unit/group");
        group.throughput(Throughput::Bytes(64));
        let mut seen = Vec::new();
        for n in [1usize, 4] {
            group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
                b.iter(|| seen.push(n));
            });
        }
        group.bench_function("plain", |b| b.iter(|| seen.push(99)));
        group.finish();
        assert_eq!(seen, vec![1, 4, 99]);
    }

    #[test]
    fn measure_mode_times_fast_body() {
        let mut c = Criterion {
            mode: Mode::Measure,
            ..Criterion::default()
        }
        .sample_size(3)
        .measurement_time(Duration::from_millis(30))
        .warm_up_time(Duration::from_millis(5));
        let mut count = 0u64;
        c.bench_function("unit/fast", |b| b.iter(|| count += 1));
        assert!(count > 3);
    }
}

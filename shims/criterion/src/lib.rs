//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no registry access, so the workspace vendors
//! the subset of the `criterion 0.5` API its six bench targets use:
//! [`Criterion`], [`BenchmarkGroup`] (with `sample_size`,
//! `measurement_time`, `warm_up_time`, `throughput`), [`Bencher::iter`],
//! [`BenchmarkId`], [`Throughput`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is deliberately simple — median of `sample_size` samples,
//! each sample timing a batch of iterations sized to fill
//! `measurement_time / sample_size` of wall clock — and results print as
//! one line per benchmark:
//!
//! ```text
//! consensus_latency/token_alg1/4   time: 812.3 µs/iter   thrpt: …
//! ```
//!
//! Good enough for honest relative numbers on one machine; swap in real
//! criterion when the registry is reachable if statistical rigor is
//! needed.

#![deny(rustdoc::broken_intra_doc_links)]

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver handed to each `criterion_group!` target.
pub struct Criterion {
    default_sample_size: usize,
    default_measurement_time: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            default_sample_size: 10,
            default_measurement_time: Duration::from_millis(300),
        }
    }
}

impl Criterion {
    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let (sample_size, measurement_time) =
            (self.default_sample_size, self.default_measurement_time);
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size,
            measurement_time,
            warm_up_time: Duration::from_millis(50),
            throughput: None,
        }
    }

    /// Run a single stand-alone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let (sample_size, measurement_time) =
            (self.default_sample_size, self.default_measurement_time);
        run_benchmark(
            name,
            sample_size,
            measurement_time,
            Duration::from_millis(50),
            None,
            f,
        );
        self
    }
}

/// A named set of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Total wall-clock budget for the timed samples of each benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Wall-clock budget for untimed warm-up iterations.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Declare work-per-iteration so results also report a rate.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark `f` under `id`.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id);
        run_benchmark(
            &full,
            self.sample_size,
            self.measurement_time,
            self.warm_up_time,
            self.throughput,
            f,
        );
        self
    }

    /// Benchmark `f` under `id`, passing `input` through by reference.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl fmt::Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    /// Finish the group (printing is already done per-benchmark).
    pub fn finish(self) {}
}

/// Identifier combining a function name and a parameter, e.g. `fine/8`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// Just the parameter, for single-function groups.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id)
    }
}

/// Work performed per iteration, for rate reporting.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Logical elements (operations, messages, …) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Timing harness passed to each benchmark closure.
pub struct Bencher {
    iters_per_sample: u64,
    /// Duration of the sample recorded by the last `iter` call.
    sampled: Duration,
}

impl Bencher {
    /// Time `iters_per_sample` back-to-back calls of `routine`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        for _ in 0..self.iters_per_sample {
            black_box(routine());
        }
        self.sampled = start.elapsed();
    }
}

fn run_benchmark<F>(
    name: &str,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    throughput: Option<Throughput>,
    mut f: F,
) where
    F: FnMut(&mut Bencher),
{
    // Warm-up and calibration: one iteration at a time until the warm-up
    // budget is spent, to estimate the cost of a single iteration.
    let warm_up_start = Instant::now();
    let mut warm_up_iters: u64 = 0;
    let mut bencher = Bencher {
        iters_per_sample: 1,
        sampled: Duration::ZERO,
    };
    let mut per_iter_estimate = Duration::ZERO;
    while warm_up_start.elapsed() < warm_up_time || warm_up_iters == 0 {
        f(&mut bencher);
        per_iter_estimate = bencher.sampled;
        warm_up_iters += 1;
        if warm_up_iters >= 1000 {
            break;
        }
    }

    // Size each sample so that sample_size samples fill measurement_time.
    let sample_budget = measurement_time / (sample_size as u32);
    let iters_per_sample = if per_iter_estimate.is_zero() {
        1000
    } else {
        (sample_budget.as_nanos() / per_iter_estimate.as_nanos().max(1)).clamp(1, 1_000_000) as u64
    };

    let mut samples: Vec<Duration> = Vec::with_capacity(sample_size);
    bencher.iters_per_sample = iters_per_sample;
    for _ in 0..sample_size {
        f(&mut bencher);
        samples.push(bencher.sampled / (iters_per_sample as u32));
    }
    samples.sort();
    let median = samples[samples.len() / 2];

    let rate = throughput.map(|t| {
        let per_sec = |units: u64| units as f64 / median.as_secs_f64().max(1e-12);
        match t {
            Throughput::Elements(n) => format!("{:.3e} elem/s", per_sec(n)),
            Throughput::Bytes(n) => format!("{:.3e} B/s", per_sec(n)),
        }
    });
    match rate {
        Some(rate) => println!("{name:<50} time: {median:>12.3?}/iter   thrpt: {rate}"),
        None => println!("{name:<50} time: {median:>12.3?}/iter"),
    }
}

/// Define a benchmark group function that runs each target in order.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Define `main` to run the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim_selftest");
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(10))
            .warm_up_time(Duration::from_millis(1));
        group.throughput(Throughput::Elements(10));
        let mut calls = 0u64;
        group.bench_with_input(BenchmarkId::new("sum", 10), &10u64, |b, &n| {
            b.iter(|| {
                calls += 1;
                (0..n).sum::<u64>()
            });
        });
        group.finish();
        assert!(calls > 0, "benchmark closure never ran");
    }
}
